//! The agent hierarchy.
//!
//! "When a Master Agent receives a computation request from a client, agents
//! collect computation abilities from servers (through the hierarchy) and
//! chooses the best one according to some scheduling heuristics. The MA
//! sends back a reference to the chosen server."
//!
//! [`MasterAgent`] sits at the root; [`AgentNode`]s form the tree below it
//! (Local Agents, possibly nested, exactly like DIET's MA/LA hierarchy —
//! Figure 1 of the paper). A submit walks the tree gathering [`Estimate`]s
//! from every SeD declaring the service, then the plug-in [`Scheduler`]
//! picks the winner.
//!
//! Finding at the MA reads a remote subtree from a held table where it can:
//! each [`RemoteSlot`] keeps the last batch its subtree returned for each
//! service, and while that batch is younger than [`HELD_ESTIMATES_MAX_AGE`]
//! a submit schedules over it (plus the MA's own placements since) instead
//! of sending a `Forward`. The walk still runs when the batch is stale,
//! missing, emptied by the request's exclusions, or shows a candidate at
//! its admission limit, and it refreshes the table as it goes.

use crate::dagda::ReplicaCatalog;
use crate::error::DietError;
use crate::faults::{FaultAction, FaultPlan};
use crate::monitor::{Estimate, MissTally, Periodic};
use crate::sched::Scheduler;
use crate::sed::SedHandle;
use obs::{Obs, TraceCtx};
use parking_lot::{Mutex, RwLock};
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The second half of a remote collect: waits for the answer to a request
/// already sent, until the earlier of the caller's deadline (if it passes
/// one) and the stub's own. Returns the subtree's estimates and the
/// request's round trip.
pub type Gather = Box<dyn FnOnce(Option<Instant>) -> Result<(Vec<Estimate>, Duration), DietError>>;

/// A child agent that lives in another process and is reachable only over
/// the wire. The local tree sees it as an opaque estimate source:
/// `send_collect` carries a submit down to it (a `Forward` frame, in the
/// TCP implementation) without waiting, and the returned [`Gather`]
/// collects the subtree's aggregated estimates. Splitting the two lets one
/// thread ask every sibling subtree at once and wait on one deadline.
/// Finding calls it only through [`RemoteSlot`], which keeps the answer
/// as the subtree's held batch.
/// [`crate::hierarchy::RemoteAgentClient`] is the TCP implementation;
/// tests can plug in in-process fakes.
pub trait RemoteSubtree: Send + Sync {
    /// Agent name (for liveness bookkeeping and diagnostics).
    fn name(&self) -> String;
    /// Ask the whole remote subtree for estimates for `service`. An error,
    /// here or from the gather, means the subtree is unreachable — callers
    /// treat it as empty, never as fatal.
    fn send_collect(
        &self,
        service: &str,
        exclude: &[String],
        ctx: TraceCtx,
    ) -> Result<Gather, DietError>;
    /// Liveness probe of the remote agent process.
    fn ping(&self, timeout: Duration) -> bool;
}

/// How long a remote subtree's last estimates stand in for a walk of it.
/// Over this window the MA sees its own placements (it adds them to the
/// held queues) but not the subtree's completions, another parent's
/// placements or a SeD that joins below it; the walk it saves costs one
/// hop (~0.1 ms on loopback), and the paper's own walk took ~50 ms, so the
/// estimates a DIET scheduler read were older than this by the time it
/// placed.
pub const HELD_ESTIMATES_MAX_AGE: Duration = Duration::from_millis(20);

/// One service's estimates as a remote subtree last returned them.
struct Held {
    /// When the batch arrived.
    at: Instant,
    /// The batch, with the hop's round trip already in every `probe_rtt`
    /// and the MA's placements since `at` in every `queue_length`.
    estimates: Vec<Estimate>,
}

/// A [`RemoteSubtree`] plus its availability bit, flipped by the heartbeat
/// monitor: an agent that misses its heartbeats has its whole subtree's
/// SeDs pulled from routing (collect skips the slot), and a successful
/// probe later re-registers them — the slot is marked, never removed.
///
/// The slot also holds the subtree's last estimates per service, which the
/// MA's finding reads instead of walking while they are fresh (see
/// [`HELD_ESTIMATES_MAX_AGE`]).
pub struct RemoteSlot {
    remote: Arc<dyn RemoteSubtree>,
    available: AtomicBool,
    held: Mutex<HashMap<String, Held>>,
}

impl RemoteSlot {
    pub fn new(remote: Arc<dyn RemoteSubtree>) -> Arc<Self> {
        Arc::new(RemoteSlot {
            remote,
            available: AtomicBool::new(true),
            held: Mutex::default(),
        })
    }

    pub fn name(&self) -> String {
        self.remote.name()
    }

    pub fn remote(&self) -> &Arc<dyn RemoteSubtree> {
        &self.remote
    }

    /// Is this subtree currently part of routing?
    pub fn is_available(&self) -> bool {
        self.available.load(Ordering::Acquire)
    }

    /// Mark the subtree in or out of routing. Either way its held estimates
    /// go: an evicted subtree is never placed from the table, and a restored
    /// one is walked afresh.
    pub fn set_available(&self, v: bool) {
        self.available.store(v, Ordering::Release);
        self.held.lock().clear();
    }

    /// The held estimates for `service` that may stand in for a walk, minus
    /// the `exclude`d labels, with the batch's arrival stamp. `None` — walk
    /// instead — when there is no batch, it is older than
    /// [`HELD_ESTIMATES_MAX_AGE`], exclusion leaves nothing, or a candidate
    /// left is at its admission limit (the held queue only ever grows
    /// between walks, so only the wire can say whether it drained). A
    /// request that excludes a held label drops the batch, so the next
    /// submit walks.
    fn read_held(&self, service: &str, exclude: &[String]) -> Option<(Vec<Estimate>, Instant)> {
        let mut held = self.held.lock();
        let entry = held.get(service)?;
        if entry.at.elapsed() > HELD_ESTIMATES_MAX_AGE {
            held.remove(service);
            return None;
        }
        let at = entry.at;
        let (kept, dropped): (Vec<Estimate>, Vec<Estimate>) = entry
            .estimates
            .iter()
            .cloned()
            .partition(|e| !exclude.contains(&e.server));
        if !dropped.is_empty() {
            held.remove(service);
        }
        if kept.is_empty() || kept.iter().any(Estimate::is_saturated) {
            return None;
        }
        Some((kept, at))
    }

    /// A walk's answer: with nothing excluded, it replaces the held batch
    /// for `service`. Returns the stamp placements from it are counted
    /// against (`None` when it was not kept).
    fn keep(&self, service: &str, exclude: &[String], estimates: &[Estimate]) -> Option<Instant> {
        if !exclude.is_empty() {
            return None;
        }
        if estimates.is_empty() {
            self.held.lock().remove(service);
            return None;
        }
        let at = Instant::now();
        let held = Held {
            at,
            estimates: estimates.to_vec(),
        };
        self.held.lock().insert(service.to_string(), held);
        Some(at)
    }

    /// A walk that did not answer: the subtree's held batch for `service`
    /// is no longer evidence of anything.
    fn forget_service(&self, service: &str) {
        self.held.lock().remove(service);
    }

    /// Drop every held batch that lists `label`.
    fn forget_label(&self, label: &str) {
        self.held
            .lock()
            .retain(|_, h| !h.estimates.iter().any(|e| e.server == label));
    }

    /// The MA placed a request on `label` from the batch stamped `at`: count
    /// it in the held queue the way the SeD's `LoadTracker` will count it on
    /// arrival. A batch replaced since already saw it, or will.
    fn placed(&self, service: &str, label: &str, at: Instant) {
        let mut held = self.held.lock();
        let Some(entry) = held.get_mut(service).filter(|h| h.at == at) else {
            return;
        };
        if let Some(e) = entry.estimates.iter_mut().find(|e| e.server == label) {
            e.queue_length += 1;
        }
    }
}

/// Where a candidate came from.
#[derive(Clone)]
enum Source {
    /// A SeD attached in this process.
    Local(Arc<SedHandle>),
    /// A remote subtree's batch, with the stamp of the held batch it is
    /// counted against (if any).
    Remote(Arc<RemoteSlot>, Option<Instant>),
}

/// How a collect may reach a remote subtree.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Reach {
    /// Serving a `Forward`: walk every one — the parent asking is its own
    /// table refreshing.
    Walk,
    /// Finding at the MA: read a fresh held batch instead of walking, and
    /// keep what the walks return.
    Held,
    /// Finding that must not block (the MA's reactor thread): read fresh
    /// held batches, and give up where a walk or an armed fault plan would
    /// be needed.
    HeldOnly,
}

/// One collect in progress: the request, what has been read, and the
/// walks still to be gathered.
struct Collect<'a> {
    service: &'a str,
    exclude: &'a [String],
    ctx: TraceCtx,
    reach: Reach,
    /// A [`Reach::HeldOnly`] collect met a subtree it could not read
    /// without blocking: its candidates are incomplete.
    gave_up: bool,
    out: Vec<(Estimate, Source)>,
    sent: Vec<(Arc<RemoteSlot>, Gather)>,
    /// Remote slots answered from their held batch.
    reads: u64,
    /// Remote slots walked.
    walks: u64,
}

impl<'a> Collect<'a> {
    fn new(service: &'a str, exclude: &'a [String], ctx: TraceCtx, reach: Reach) -> Self {
        Collect {
            service,
            exclude,
            ctx,
            reach,
            gave_up: false,
            out: Vec::new(),
            sent: Vec::new(),
            reads: 0,
            walks: 0,
        }
    }

    /// One available remote slot: its held batch if that may stand in,
    /// otherwise a walk — the request goes down now, and [`Self::gather`]
    /// collects the answer and keeps it as the new batch. A
    /// [`Reach::HeldOnly`] collect gives up instead of walking.
    fn read_or_walk(&mut self, slot: &Arc<RemoteSlot>) {
        if let Some((ests, at)) = (self.reach != Reach::Walk)
            .then(|| slot.read_held(self.service, self.exclude))
            .flatten()
        {
            self.reads += 1;
            let from = Source::Remote(slot.clone(), Some(at));
            self.out.extend(ests.into_iter().map(|e| (e, from.clone())));
            return;
        }
        if self.reach == Reach::HeldOnly {
            self.gave_up = true;
            return;
        }
        self.walks += 1;
        match slot
            .remote
            .send_collect(self.service, self.exclude, self.ctx)
        {
            Ok(pending) => self.sent.push((slot.clone(), pending)),
            Err(_) => slot.forget_service(self.service),
        }
    }

    /// The last step of a collect: wait for every walk sent, against one
    /// deadline. A remote subtree's measured round trip is this parent's
    /// proximity signal for everything below it. Returns how many subtrees
    /// had not answered by the deadline.
    fn gather(&mut self, until: Option<Instant>) -> usize {
        let mut timeouts = 0;
        for (slot, pending) in std::mem::take(&mut self.sent) {
            match pending(until) {
                Ok((mut ests, rtt)) => {
                    let hop = rtt.as_secs_f64();
                    for e in &mut ests {
                        e.probe_rtt += hop;
                    }
                    let at = match self.reach {
                        Reach::Held => slot.keep(self.service, self.exclude, &ests),
                        Reach::Walk | Reach::HeldOnly => None,
                    };
                    for e in ests {
                        if !self.exclude.contains(&e.server) {
                            self.out.push((e, Source::Remote(slot.clone(), at)));
                        }
                    }
                }
                Err(e) => {
                    slot.forget_service(self.service);
                    if matches!(e, DietError::Timeout { .. }) {
                        timeouts += 1;
                    }
                }
            }
        }
        timeouts
    }
}

/// An interior node of the hierarchy: a Local Agent with SeDs and/or child
/// agents below it. SeD membership is dynamic — agents deregister servers
/// that die (heartbeat misses or failed calls) and can attach new ones.
/// Children come in two flavours: in-process [`AgentNode`]s and
/// [`RemoteSlot`]s fronting agents in other processes.
pub struct AgentNode {
    pub name: String,
    seds: RwLock<Vec<Arc<SedHandle>>>,
    pub children: Vec<Arc<AgentNode>>,
    /// Remote child agents (other processes), attached at runtime.
    remotes: RwLock<Vec<Arc<RemoteSlot>>>,
    /// Failure injection for the *agent itself* (stall/kill during estimate
    /// collection) — how tests make a whole subtree go quiet.
    faults: RwLock<Option<Arc<FaultPlan>>>,
}

impl AgentNode {
    pub fn leaf(name: &str, seds: Vec<Arc<SedHandle>>) -> Arc<Self> {
        Arc::new(AgentNode {
            name: name.to_string(),
            seds: RwLock::new(seds),
            children: vec![],
            remotes: RwLock::new(vec![]),
            faults: RwLock::new(None),
        })
    }

    pub fn interior(name: &str, children: Vec<Arc<AgentNode>>) -> Arc<Self> {
        Arc::new(AgentNode {
            name: name.to_string(),
            seds: RwLock::new(vec![]),
            children,
            remotes: RwLock::new(vec![]),
            faults: RwLock::new(None),
        })
    }

    /// Snapshot of the SeDs attached directly to this agent.
    pub fn seds(&self) -> Vec<Arc<SedHandle>> {
        self.seds.read().clone()
    }

    /// Attach a SeD to this agent at runtime.
    pub fn add_sed(&self, sed: Arc<SedHandle>) {
        self.seds.write().push(sed);
    }

    /// Attach a remote child agent; returns its slot so deployment code
    /// (or the heartbeat monitor) can flip its availability.
    pub fn add_remote(&self, remote: Arc<dyn RemoteSubtree>) -> Arc<RemoteSlot> {
        let slot = RemoteSlot::new(remote);
        self.remotes.write().push(slot.clone());
        slot
    }

    /// Snapshot of the remote child slots attached directly to this agent.
    pub fn remotes(&self) -> Vec<Arc<RemoteSlot>> {
        self.remotes.read().clone()
    }

    /// Arm failure injection on this agent's collection path.
    pub fn set_faults(&self, plan: Arc<FaultPlan>) {
        *self.faults.write() = Some(plan);
    }

    /// Remove every SeD with this label from the subtree — all of them,
    /// not just the first: a label accidentally registered at two nodes
    /// (double registration) must not leave a stale handle the scheduler
    /// can still pick. Returns how many handles were removed.
    pub fn remove_sed(&self, label: &str) -> usize {
        let mut removed = {
            let mut seds = self.seds.write();
            let before = seds.len();
            seds.retain(|s| s.config.label != label);
            before - seds.len()
        };
        for child in &self.children {
            removed += child.remove_sed(label);
        }
        removed
    }

    /// The first two steps of a collect, depth-first over the in-process
    /// tree: ask every available remote slot (from its held batch, or by
    /// sending the request down — each waiting reply recorded in `c.sent`),
    /// then read the local SeDs' estimates — memory reads, done inline
    /// while the remotes work. The gather ([`Collect::gather`]) adds the
    /// walked subtrees' estimates; the caller reaches those SeDs by label
    /// over the wire.
    fn send_and_read(&self, c: &mut Collect) {
        if c.gave_up {
            return;
        }
        if let Some(plan) = self.faults.read().clone() {
            // A stall would block the caller: a collect that must not
            // block leaves the plan to the one that may.
            if c.reach == Reach::HeldOnly {
                c.gave_up = true;
                return;
            }
            // Stall is applied inside on_request; Kill makes the whole
            // subtree go dark mid-collection.
            if plan.on_request() == FaultAction::Kill {
                return;
            }
        }
        for slot in self.remotes.read().iter() {
            if slot.is_available() {
                c.read_or_walk(slot);
            }
        }
        for sed in self.seds.read().iter() {
            if c.exclude.iter().any(|l| *l == sed.config.label) {
                continue;
            }
            if let Some(e) = sed.estimate(c.service) {
                c.out.push((e, Source::Local(sed.clone())));
            }
        }
        for child in &self.children {
            child.send_and_read(c);
        }
    }

    /// Estimates for a service from this whole subtree, skipping excluded
    /// labels (servers a retrying client has just seen fail) — the LA-side
    /// serving loop aggregates these into an `EstimateBatch` frame. Every
    /// remote subtree is walked, all at once, and waited on until its
    /// stub's own deadline; one that does not answer contributes nothing
    /// (it is skipped, never fatal).
    pub fn estimates(&self, service: &str, exclude: &[String], ctx: TraceCtx) -> Vec<Estimate> {
        let mut c = Collect::new(service, exclude, ctx, Reach::Walk);
        self.send_and_read(&mut c);
        c.gather(None);
        c.out.into_iter().map(|(e, _)| e).collect()
    }

    /// Every SeD in this subtree (for liveness sweeps). Remote subtrees'
    /// SeDs are not visible here — their own process monitors them.
    fn collect_all(&self, out: &mut Vec<Arc<SedHandle>>) {
        out.extend(self.seds.read().iter().cloned());
        for child in &self.children {
            child.collect_all(out);
        }
    }

    /// Every remote slot in this subtree (for agent liveness sweeps).
    fn collect_remote_slots(&self, out: &mut Vec<Arc<RemoteSlot>>) {
        out.extend(self.remotes.read().iter().cloned());
        for child in &self.children {
            child.collect_remote_slots(out);
        }
    }

    /// Total number of SeDs in this subtree (agent bookkeeping: "the number
    /// of servers that can solve a given problem").
    pub fn sed_count(&self) -> usize {
        self.seds.read().len() + self.children.iter().map(|c| c.sed_count()).sum::<usize>()
    }

    /// How many SeDs in this subtree declare `service`.
    pub fn solver_count(&self, service: &str) -> usize {
        self.seds
            .read()
            .iter()
            .filter(|s| s.declares(service))
            .count()
            + self
                .children
                .iter()
                .map(|c| c.solver_count(service))
                .sum::<usize>()
    }
}

/// Where finding put a request: the winner's label, plus its handle when
/// the SeD is attached in this process rather than behind a remote agent.
pub(crate) struct Placement {
    pub label: String,
    pub sed: Option<Arc<SedHandle>>,
}

impl Placement {
    /// The in-process handle, for callers that cannot reach a SeD by label.
    pub fn handle(&self) -> Result<&Arc<SedHandle>, DietError> {
        self.sed.as_ref().ok_or_else(|| {
            DietError::Rejected(format!(
                "chosen server {} lives behind a remote agent; resolve by label instead",
                self.label
            ))
        })
    }
}

/// How many failed calls (while the SeD still answers liveness probes) it
/// takes before the MA deregisters it anyway.
const FAILURE_STRIKES: u32 = 3;

/// The Master Agent.
pub struct MasterAgent {
    pub name: String,
    children: Vec<Arc<AgentNode>>,
    scheduler: Arc<dyn Scheduler>,
    /// Labels removed from the hierarchy (dead or repeatedly failing SeDs).
    deregistered: Mutex<Vec<String>>,
    /// Consecutive failed calls per still-alive label; a successful call
    /// through the client's retry loop clears its winner's count.
    pub(crate) strikes: Mutex<MissTally>,
    /// Metrics sink: submits, scheduler decisions, finding-time histogram,
    /// deregistrations, heartbeat counters.
    obs: Arc<Obs>,
    /// Hierarchy-wide replica catalog (DAGDA). When registered, estimates
    /// gain locality terms and deregistration drops the dead SeD's replicas.
    catalog: RwLock<Option<Arc<ReplicaCatalog>>>,
    /// Estimate-collection deadline. When set, it bounds the whole gather:
    /// a remote subtree that has not answered when it expires is treated
    /// exactly like an empty one — skipped, never fatal. `None` (the
    /// default) leaves each remote stub to its own deadline.
    collect_timeout: RwLock<Option<Duration>>,
}

impl MasterAgent {
    pub fn new(
        name: &str,
        children: Vec<Arc<AgentNode>>,
        scheduler: Arc<dyn Scheduler>,
    ) -> Arc<Self> {
        Self::new_with_obs(name, children, scheduler, Arc::new(Obs::new()))
    }

    /// Like [`MasterAgent::new`] but recording into an injected
    /// observability sink.
    pub fn new_with_obs(
        name: &str,
        children: Vec<Arc<AgentNode>>,
        scheduler: Arc<dyn Scheduler>,
        obs: Arc<Obs>,
    ) -> Arc<Self> {
        Arc::new(MasterAgent {
            name: name.to_string(),
            children,
            scheduler,
            deregistered: Mutex::new(Vec::new()),
            strikes: Mutex::default(),
            obs,
            catalog: RwLock::new(None),
            collect_timeout: RwLock::new(None),
        })
    }

    /// Swap the scheduling policy (plug-in scheduler hot swap).
    pub fn with_scheduler(self: &Arc<Self>, scheduler: Arc<dyn Scheduler>) -> Arc<Self> {
        Arc::new(MasterAgent {
            name: self.name.clone(),
            children: self.children.clone(),
            scheduler,
            deregistered: Mutex::new(Vec::new()),
            strikes: Mutex::default(),
            obs: self.obs.clone(),
            catalog: RwLock::new(self.catalog.read().clone()),
            collect_timeout: RwLock::new(*self.collect_timeout.read()),
        })
    }

    /// Bound how long a submit waits for remote subtrees' estimates. Every
    /// subtree is asked at once and the deadline covers them all, so a
    /// stalled or dead LA costs at most one deadline, not the whole submit.
    pub fn set_collect_timeout(&self, d: Duration) {
        *self.collect_timeout.write() = Some(d);
    }

    /// Register the hierarchy-wide replica catalog and attach it to every
    /// SeD currently in the hierarchy (publish-on-retain / unpublish-on-
    /// evict). Estimates gain data-locality terms from here on, and
    /// [`MasterAgent::deregister`] drops a dead SeD's catalog entries.
    pub fn register_catalog(&self, catalog: Arc<ReplicaCatalog>) {
        for sed in self.all_seds() {
            sed.attach_catalog(catalog.clone());
        }
        *self.catalog.write() = Some(catalog);
    }

    /// The registered replica catalog, if any.
    pub fn catalog(&self) -> Option<Arc<ReplicaCatalog>> {
        self.catalog.read().clone()
    }

    /// This agent's observability sink.
    pub fn obs(&self) -> Arc<Obs> {
        self.obs.clone()
    }

    /// This agent's metrics registry (convenience for assertions/dumps).
    pub fn metrics(&self) -> &obs::Registry {
        &self.obs.metrics
    }

    /// Handle a client submit: traverse, schedule, return the chosen SeD.
    pub fn submit(&self, service: &str) -> Result<Arc<SedHandle>, DietError> {
        let placed = self.schedule(service, &[], &[], TraceCtx::default())?;
        placed.handle().cloned()
    }

    /// Submit returning only the winning SeD's *label* — the form the wire
    /// protocol needs (a `SubmitReply` carries a name, and the client
    /// reaches the SeD through its own connection pool). Works whether the
    /// winner is a local handle or an estimate that travelled up from a
    /// remote subtree. `exclude`d labels are skipped (the resubmission
    /// path); with a catalog registered, `data_ids` give every candidate
    /// the locality split (bytes already local vs. bytes it would pull), so
    /// data-aware schedulers can prefer the SeDs holding the inputs.
    pub fn resolve(
        &self,
        service: &str,
        data_ids: &[String],
        exclude: &[String],
        ctx: TraceCtx,
    ) -> Result<String, DietError> {
        self.schedule(service, data_ids, exclude, ctx)
            .map(|placed| placed.label)
    }

    /// Collect candidates from every child subtree on the caller's thread:
    /// every remote subtree not read from its held batch (finding only) is
    /// walked, all at once, and the armed deadline (if any) bounds the
    /// whole gather. `None` when a [`Reach::HeldOnly`] collect gave up.
    fn collect_candidates(
        &self,
        service: &str,
        exclude: &[String],
        ctx: TraceCtx,
        reach: Reach,
    ) -> Option<Vec<(Estimate, Source)>> {
        let until = self.collect_timeout.read().map(|d| Instant::now() + d);
        let mut c = Collect::new(service, exclude, ctx, reach);
        for child in &self.children {
            child.send_and_read(&mut c);
        }
        if c.gave_up {
            return None;
        }
        let timeouts = c.gather(until);
        let m = &self.obs.metrics;
        if timeouts > 0 {
            m.counter("diet_ma_subtree_timeouts_total")
                .add(timeouts as u64);
        }
        if c.reads > 0 {
            m.counter("diet_ma_finding_held_total").add(c.reads);
        }
        if c.walks > 0 {
            m.counter("diet_ma_finding_walks_total").add(c.walks);
        }
        Some(c.out)
    }

    /// The scheduling core every submit variant funnels through: collect,
    /// inject locality, drop saturated candidates, pick. Also the in-process
    /// route of the client's retry loop.
    pub(crate) fn schedule(
        &self,
        service: &str,
        data_ids: &[String],
        exclude: &[String],
        ctx: TraceCtx,
    ) -> Result<Placement, DietError> {
        self.place(service, data_ids, exclude, ctx, Reach::Held)
            .expect("a collect that may walk never gives up")
    }

    /// [`schedule`](Self::schedule) without a walk, for a caller that must
    /// not block: `None` when a remote subtree has no fresh held batch that
    /// may stand in for it, or a fault plan is armed in the tree. Nothing
    /// was sent, counted or placed then; schedule where blocking is fine.
    pub(crate) fn schedule_held(
        &self,
        service: &str,
        exclude: &[String],
        ctx: TraceCtx,
    ) -> Option<Result<Placement, DietError>> {
        self.place(service, &[], exclude, ctx, Reach::HeldOnly)
    }

    /// The body of [`schedule`](Self::schedule) and
    /// [`schedule_held`](Self::schedule_held): `None` when a
    /// [`Reach::HeldOnly`] collect gave up.
    fn place(
        &self,
        service: &str,
        data_ids: &[String],
        exclude: &[String],
        ctx: TraceCtx,
        reach: Reach,
    ) -> Option<Result<Placement, DietError>> {
        let started = Instant::now();
        let mut candidates = self.collect_candidates(service, exclude, ctx, reach)?;
        if !data_ids.is_empty() {
            if let Some(cat) = self.catalog.read().as_ref() {
                for (est, _) in candidates.iter_mut() {
                    let (local, miss) = cat.locality(&est.server, data_ids);
                    est.data_local_bytes = local;
                    est.data_miss_bytes = miss;
                }
                self.obs
                    .metrics
                    .counter("diet_ma_data_aware_submits_total")
                    .inc();
            }
        }
        // Admission-aware spreading: a saturated SeD (queue at its admission
        // limit) would reject the request with `Busy` anyway, so drop it from
        // consideration while any unsaturated candidate remains. When *every*
        // candidate is saturated, keep them all — a Busy bounce plus client
        // backoff beats a spurious NoServerAvailable.
        if candidates.iter().any(|(e, _)| !e.is_saturated())
            && candidates.iter().any(|(e, _)| e.is_saturated())
        {
            let dropped = candidates.iter().filter(|(e, _)| e.is_saturated()).count();
            candidates.retain(|(e, _)| !e.is_saturated());
            self.obs
                .metrics
                .counter("diet_ma_saturated_skipped_total")
                .add(dropped as u64);
        }
        self.obs.metrics.counter("diet_ma_submits_total").inc();
        if candidates.is_empty() {
            let any_declared = self.children.iter().any(|c| c.solver_count(service) > 0);
            self.obs.metrics.counter("diet_ma_no_candidate_total").inc();
            return Some(Err(if any_declared {
                DietError::NoServerAvailable(service.to_string())
            } else {
                DietError::ServiceNotFound(service.to_string())
            }));
        }
        let ests: Vec<Estimate> = candidates.iter().map(|(e, _)| e.clone()).collect();
        let pick = self.scheduler.select(&ests);
        let Some((chosen_est, source)) = candidates.get(pick).cloned() else {
            return Some(Err(DietError::Rejected(format!(
                "scheduler {} returned out-of-range index {pick}",
                self.scheduler.name()
            ))));
        };
        let sed = match source {
            Source::Local(sed) => Some(sed),
            Source::Remote(slot, at) => {
                if let Some(at) = at {
                    slot.placed(service, &chosen_est.server, at);
                }
                None
            }
        };
        // Every scheduler decision is a labelled counter tick; the finding
        // time feeds the histogram the Figure-5 percentiles come from.
        self.obs
            .metrics
            .counter_with(
                "diet_ma_scheduled_total",
                &[
                    ("sed", &chosen_est.server),
                    ("policy", self.scheduler.name()),
                ],
            )
            .inc();
        self.obs
            .metrics
            .histogram("diet_ma_finding_seconds")
            .observe(started.elapsed().as_secs_f64());
        Some(Ok(Placement {
            label: chosen_est.server,
            sed,
        }))
    }

    pub fn scheduler_name(&self) -> &'static str {
        self.scheduler.name()
    }

    /// The scheduling policy itself — the federation path schedules
    /// peer-collected estimates with the same policy local submits use.
    pub fn scheduler_handle(&self) -> Arc<dyn Scheduler> {
        self.scheduler.clone()
    }

    /// This MA's whole tree reduced to bare estimates — what it answers
    /// when consulted *as* a federation peer (or as a remote subtree of a
    /// larger hierarchy). Honours the collect deadline when one is armed.
    pub fn estimates(&self, service: &str, exclude: &[String], ctx: TraceCtx) -> Vec<Estimate> {
        self.collect_candidates(service, exclude, ctx, Reach::Walk)
            .expect("a collect that may walk never gives up")
            .into_iter()
            .map(|(e, _)| e)
            .collect()
    }

    pub fn sed_count(&self) -> usize {
        self.children.iter().map(|c| c.sed_count()).sum()
    }

    /// Total SeDs declaring `service` ("the number of servers that can solve
    /// a given problem").
    pub fn solver_count(&self, service: &str) -> usize {
        self.children.iter().map(|c| c.solver_count(service)).sum()
    }

    /// Every SeD currently registered anywhere in the hierarchy.
    pub fn all_seds(&self) -> Vec<Arc<SedHandle>> {
        let mut out = Vec::new();
        for child in &self.children {
            child.collect_all(&mut out);
        }
        out
    }

    /// Every remote agent slot anywhere in the local tree (for liveness
    /// sweeps — each process monitors its own direct view of the wire).
    pub fn remote_slots(&self) -> Vec<Arc<RemoteSlot>> {
        let mut out = Vec::new();
        for child in &self.children {
            child.collect_remote_slots(&mut out);
        }
        out
    }

    /// Remove a SeD from the hierarchy by label — every registration of it,
    /// across the whole tree. Returns true if at least one handle was
    /// removed. Deregistered labels never reappear in candidate sets, and
    /// no held batch that lists the label is read again: a SeD behind a
    /// remote agent comes back only if a walk finds it there.
    pub fn deregister(&self, label: &str) -> bool {
        for slot in self.remote_slots() {
            slot.forget_label(label);
        }
        let removed = self
            .children
            .iter()
            .map(|c| c.remove_sed(label))
            .sum::<usize>()
            > 0;
        if removed {
            let mut dead = self.deregistered.lock();
            if !dead.iter().any(|l| l == label) {
                dead.push(label.to_string());
            }
            self.obs
                .metrics
                .counter("diet_ma_sed_deregistered_total")
                .inc();
            // A deregistered SeD's replicas are unreachable: drop them so
            // no scheduler or puller chases a dead location. Both heartbeat
            // evictions and failure-report removals funnel through here.
            if let Some(cat) = self.catalog.read().as_ref() {
                let dropped = cat.drop_sed(label);
                if dropped > 0 {
                    self.obs
                        .metrics
                        .counter("diet_ma_catalog_dropped_total")
                        .add(dropped as u64);
                }
            }
        }
        removed
    }

    /// Labels deregistered so far, in removal order.
    pub fn deregistered(&self) -> Vec<String> {
        self.deregistered.lock().clone()
    }

    /// A client (or transport) reports that a call to this SeD failed at
    /// the middleware level (timeout, connection loss — not an application
    /// error). A dead SeD is deregistered immediately; one that still
    /// answers liveness probes is deregistered after [`FAILURE_STRIKES`]
    /// consecutive reports — a call that succeeds through the client's
    /// retry loop in between starts the count again. Returns true when the
    /// SeD was deregistered.
    pub fn report_failure(&self, sed: &SedHandle) -> bool {
        let label = &sed.config.label;
        self.obs
            .metrics
            .counter("diet_ma_failure_reports_total")
            .inc();
        if !sed.is_alive() {
            return self.deregister(label);
        }
        let struck_out = self.strikes.lock().miss(label, FAILURE_STRIKES);
        struck_out && self.deregister(label)
    }
}

/// Agent-side SeD liveness: a background thread that pings every registered
/// SeD on a fixed interval and deregisters the ones that miss
/// `miss_threshold` consecutive heartbeats — so `collect` stops offering
/// them as candidates even if no client ever calls them again.
///
/// A SeD probe is the in-process analog of the codec's `Ping`: it goes
/// through the SeD's command queue, so a wedged worker fails the probe even
/// though its process is technically still there. Remote agents get a wire
/// `Ping` on the connection that already carries their `Forward`s.
pub struct HeartbeatMonitor(Periodic);

impl HeartbeatMonitor {
    pub fn spawn(
        ma: Arc<MasterAgent>,
        interval: Duration,
        ping_timeout: Duration,
        miss_threshold: u32,
    ) -> HeartbeatMonitor {
        let (mut misses, mut agent_misses) = (MissTally::default(), MissTally::default());
        let metrics = ma.obs();
        let m_beats = metrics.metrics.counter("diet_heartbeat_beats_total");
        let m_missed = metrics.metrics.counter("diet_heartbeat_misses_total");
        let m_evicted = metrics.metrics.counter("diet_heartbeat_evictions_total");
        let m_agent_evicted = metrics
            .metrics
            .counter("diet_heartbeat_agent_evictions_total");
        let m_agent_restored = metrics
            .metrics
            .counter("diet_heartbeat_agent_restorations_total");
        // Runs until a stop is requested or the monitor is dropped.
        HeartbeatMonitor(Periodic::spawn(interval, move || {
            for sed in ma.all_seds() {
                let label = &sed.config.label;
                m_beats.inc();
                // A worker deep in a long solve can't answer the queued
                // ping in time, but it is busy, not dead — only a probe
                // failure on an idle (or exited) worker counts as a miss.
                if sed.ping(ping_timeout) || (sed.is_alive() && sed.is_busy()) {
                    misses.hit(label);
                } else {
                    m_missed.inc();
                    if misses.miss(label, miss_threshold) && ma.deregister(label) {
                        m_evicted.inc();
                    }
                }
            }
            // Remote agent sweep: an interior agent that misses its
            // heartbeats takes its whole subtree's SeDs out of routing
            // (the slot is marked unavailable); a probe answered later
            // puts them straight back — agents are marked, not removed,
            // because the far process may just have restarted.
            for slot in ma.remote_slots() {
                let name = slot.name();
                m_beats.inc();
                if slot.remote().ping(ping_timeout) {
                    if !slot.is_available() {
                        slot.set_available(true);
                        m_agent_restored.inc();
                    }
                    agent_misses.hit(&name);
                } else {
                    m_missed.inc();
                    if agent_misses.miss(&name, miss_threshold) && slot.is_available() {
                        slot.set_available(false);
                        m_agent_evicted.inc();
                    }
                }
            }
        }))
    }

    /// Stop the monitor and wait for its thread to exit.
    pub fn stop(self) {
        self.0.stop();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::data::{DietValue, Persistence};
    use crate::profile::{ArgTag, Profile, ProfileDesc};
    use crate::sched::{MinQueue, RoundRobin, WeightedSpeed};
    use crate::sed::{SedConfig, ServiceTable, SolveFn};
    use std::sync::atomic::AtomicUsize;

    fn echo_table() -> ServiceTable {
        let mut d = ProfileDesc::alloc("echo", 0, 0, 1);
        d.set_arg(0, ArgTag::Scalar).unwrap();
        let solve: SolveFn = Arc::new(|p: &mut Profile| {
            let x = p.get_i32(0)?;
            p.set(1, DietValue::ScalarI32(x), Persistence::Volatile)?;
            Ok(0)
        });
        let mut t = ServiceTable::init(4);
        t.add(d, solve).unwrap();
        t
    }

    fn hierarchy(n_seds_per_la: &[usize]) -> (Arc<MasterAgent>, Vec<Arc<SedHandle>>) {
        let mut all = Vec::new();
        let mut las = Vec::new();
        for (li, &n) in n_seds_per_la.iter().enumerate() {
            let mut seds = Vec::new();
            for s in 0..n {
                let sed =
                    SedHandle::spawn(SedConfig::new(&format!("la{li}/sed{s}"), 1.0), echo_table());
                all.push(sed.clone());
                seds.push(sed);
            }
            las.push(AgentNode::leaf(&format!("LA{li}"), seds));
        }
        let ma = MasterAgent::new("MA", las, Arc::new(RoundRobin::new()));
        (ma, all)
    }

    #[test]
    fn submit_traverses_whole_hierarchy() {
        let (ma, seds) = hierarchy(&[2, 3, 1]);
        assert_eq!(ma.sed_count(), 6);
        assert_eq!(ma.solver_count("echo"), 6);
        let chosen = ma.submit("echo").unwrap();
        assert!(seds.iter().any(|s| s.config.label == chosen.config.label));
        let m = ma.metrics();
        assert_eq!(m.counter_value("diet_ma_submits_total"), 1);
        assert_eq!(m.histogram("diet_ma_finding_seconds").count(), 1);
        for s in seds {
            s.shutdown();
        }
    }

    #[test]
    fn round_robin_spreads_requests() {
        let (ma, seds) = hierarchy(&[2, 2]);
        let mut counts = std::collections::HashMap::new();
        for _ in 0..8 {
            let c = ma.submit("echo").unwrap();
            *counts.entry(c.config.label.clone()).or_insert(0) += 1;
        }
        assert_eq!(counts.len(), 4);
        assert!(counts.values().all(|&v| v == 2));
        for s in seds {
            s.shutdown();
        }
    }

    #[test]
    fn saturated_seds_are_skipped_while_alternatives_exist() {
        // sed "full" reports an admission limit of 0 → saturated from the
        // first estimate; sed "open" is unbounded. The MA must never pick
        // the saturated one while the open one is a candidate.
        let full = SedHandle::spawn(
            SedConfig::new("full", 1.0).with_admission_limit(0),
            echo_table(),
        );
        let open = SedHandle::spawn(SedConfig::new("open", 1.0), echo_table());
        let la = AgentNode::leaf("LA", vec![full.clone(), open.clone()]);
        let ma = MasterAgent::new("MA", vec![la], Arc::new(MinQueue));
        for _ in 0..4 {
            let chosen = ma.submit("echo").unwrap();
            assert_eq!(chosen.config.label, "open");
        }
        assert_eq!(
            ma.metrics()
                .counter_value("diet_ma_saturated_skipped_total"),
            4
        );
        // Every remaining candidate saturated: still schedulable (the SeD
        // will answer Busy and the client backs off), not NoServerAvailable.
        let only_full = SedHandle::spawn(
            SedConfig::new("full2", 1.0).with_admission_limit(0),
            echo_table(),
        );
        let la2 = AgentNode::leaf("LA", vec![only_full.clone()]);
        let ma2 = MasterAgent::new("MA", vec![la2], Arc::new(MinQueue));
        assert_eq!(ma2.submit("echo").unwrap().config.label, "full2");
        full.shutdown();
        open.shutdown();
        only_full.shutdown();
    }

    #[test]
    fn unknown_service_is_not_found() {
        let (ma, seds) = hierarchy(&[1]);
        assert!(matches!(
            ma.submit("nosuch"),
            Err(DietError::ServiceNotFound(_))
        ));
        for s in seds {
            s.shutdown();
        }
    }

    #[test]
    fn nested_agents_are_traversed() {
        let sed_a = SedHandle::spawn(SedConfig::new("deep/a", 1.0), echo_table());
        let sed_b = SedHandle::spawn(SedConfig::new("deep/b", 1.0), echo_table());
        let leaf_a = AgentNode::leaf("leafA", vec![sed_a.clone()]);
        let leaf_b = AgentNode::leaf("leafB", vec![sed_b.clone()]);
        let mid = AgentNode::interior("mid", vec![leaf_a, leaf_b]);
        let ma = MasterAgent::new("MA", vec![mid], Arc::new(RoundRobin::new()));
        assert_eq!(ma.sed_count(), 2);
        let c1 = ma.submit("echo").unwrap().config.label.clone();
        let c2 = ma.submit("echo").unwrap().config.label.clone();
        assert_ne!(c1, c2);
        sed_a.shutdown();
        sed_b.shutdown();
    }

    #[test]
    fn min_queue_prefers_idle_sed() {
        let busy = SedHandle::spawn(SedConfig::new("busy", 1.0), {
            let mut d = ProfileDesc::alloc("echo", 0, 0, 1);
            d.set_arg(0, ArgTag::Scalar).unwrap();
            let solve: SolveFn = Arc::new(|p: &mut Profile| {
                std::thread::sleep(std::time::Duration::from_millis(80));
                let x = p.get_i32(0)?;
                p.set(1, DietValue::ScalarI32(x), Persistence::Volatile)?;
                Ok(0)
            });
            let mut t = ServiceTable::init(1);
            t.add(d, solve).unwrap();
            t
        });
        let idle = SedHandle::spawn(SedConfig::new("idle", 1.0), echo_table());
        let la = AgentNode::leaf("LA", vec![busy.clone(), idle.clone()]);
        let ma = MasterAgent::new("MA", vec![la], Arc::new(MinQueue));

        // Fill busy's queue.
        let d = ProfileDesc::alloc("echo", 0, 0, 1);
        let mut p = Profile::alloc(&d);
        p.set(0, DietValue::ScalarI32(1), Persistence::Volatile)
            .unwrap();
        let _pending = busy.submit(p).unwrap();

        let chosen = ma.submit("echo").unwrap();
        assert_eq!(chosen.config.label, "idle");
        busy.shutdown();
        idle.shutdown();
    }

    #[test]
    fn resolve_excluding_skips_failed_servers() {
        let (ma, seds) = hierarchy(&[2]);
        let ctx = TraceCtx::default();
        let excluded = vec!["la0/sed0".to_string()];
        for _ in 0..4 {
            let label = ma.resolve("echo", &[], &excluded, ctx).unwrap();
            assert_eq!(label, "la0/sed1");
        }
        // Excluding everything looks like "declared but unreachable".
        let all = vec!["la0/sed0".to_string(), "la0/sed1".to_string()];
        assert!(matches!(
            ma.resolve("echo", &[], &all, ctx),
            Err(DietError::NoServerAvailable(_))
        ));
        for s in seds {
            s.shutdown();
        }
    }

    #[test]
    fn deregister_removes_sed_from_candidates() {
        let (ma, seds) = hierarchy(&[1, 1]);
        assert_eq!(ma.sed_count(), 2);
        assert!(ma.deregister("la1/sed0"));
        assert!(!ma.deregister("la1/sed0"), "already removed");
        assert_eq!(ma.sed_count(), 1);
        assert_eq!(ma.deregistered(), vec!["la1/sed0".to_string()]);
        for _ in 0..3 {
            assert_eq!(ma.submit("echo").unwrap().config.label, "la0/sed0");
        }
        for s in seds {
            s.shutdown();
        }
    }

    #[test]
    fn report_failure_deregisters_dead_sed_immediately() {
        let (ma, seds) = hierarchy(&[2]);
        let victim = seds[0].clone();
        victim.shutdown();
        while victim.is_alive() {
            std::thread::sleep(std::time::Duration::from_millis(2));
        }
        assert!(ma.report_failure(&victim));
        assert_eq!(ma.deregistered(), vec![victim.config.label.clone()]);
        for s in seds {
            s.shutdown();
        }
    }

    #[test]
    fn report_failure_needs_strikes_for_live_sed() {
        let (ma, seds) = hierarchy(&[2]);
        let suspect = seds[0].clone();
        // Alive but repeatedly failing calls: two strikes keep it, the
        // third removes it.
        assert!(!ma.report_failure(&suspect));
        assert!(!ma.report_failure(&suspect));
        assert!(ma.report_failure(&suspect));
        assert_eq!(ma.sed_count(), 1);
        for s in seds {
            s.shutdown();
        }
    }

    #[test]
    fn heartbeat_monitor_deregisters_dead_sed() {
        let (ma, seds) = hierarchy(&[2]);
        let monitor = HeartbeatMonitor::spawn(
            ma.clone(),
            std::time::Duration::from_millis(10),
            std::time::Duration::from_millis(100),
            2,
        );
        // Kill one SeD abruptly (no orderly drain).
        seds[1].faults().kill_at_request(1);
        let d = ProfileDesc::alloc("echo", 0, 0, 1);
        let mut p = Profile::alloc(&d);
        p.set(0, DietValue::ScalarI32(1), Persistence::Volatile)
            .unwrap();
        let _ = seds[1].submit(p);
        // The monitor notices within a few beats.
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(5);
        while ma.sed_count() == 2 && std::time::Instant::now() < deadline {
            std::thread::sleep(std::time::Duration::from_millis(10));
        }
        assert_eq!(ma.sed_count(), 1);
        assert_eq!(ma.deregistered(), vec![seds[1].config.label.clone()]);
        monitor.stop();
        for s in seds {
            s.shutdown();
        }
    }

    #[test]
    fn heartbeat_monitor_spares_a_busy_sed() {
        // A worker deep in a long solve can't answer queued pings, but it
        // is busy, not dead — the monitor must not evict it mid-solve.
        let mut table = ServiceTable::init(1);
        let d = ProfileDesc::alloc("slow", 0, 0, 1);
        let solve: crate::sed::SolveFn = Arc::new(|_p| {
            std::thread::sleep(std::time::Duration::from_millis(400));
            Ok(0)
        });
        table.add(d.clone(), solve).unwrap();
        let sed = SedHandle::spawn(SedConfig::new("busy/0", 1.0), table);
        let la = AgentNode::leaf("LA", vec![sed.clone()]);
        let ma = MasterAgent::new("MA", vec![la], Arc::new(RoundRobin::new()));
        let monitor = HeartbeatMonitor::spawn(
            ma.clone(),
            std::time::Duration::from_millis(10),
            std::time::Duration::from_millis(20),
            2,
        );
        let mut p = Profile::alloc(&d);
        p.set(0, DietValue::ScalarI32(0), Persistence::Volatile)
            .unwrap();
        let rx = sed.submit(p).unwrap();
        // Many monitor sweeps elapse during the solve; the SeD survives.
        let out = rx.recv().unwrap();
        assert!(out.result.is_ok());
        assert_eq!(ma.sed_count(), 1);
        assert!(ma.deregistered().is_empty());
        monitor.stop();
        sed.shutdown();
    }

    #[test]
    fn data_aware_submit_prefers_the_replica_holder() {
        use crate::dagda::ReplicaCatalog;
        use crate::sched::DataLocal;
        let (ma, seds) = hierarchy(&[2]);
        let ma = ma.with_scheduler(Arc::new(DataLocal::default()));
        let cat = Arc::new(ReplicaCatalog::new());
        ma.register_catalog(cat.clone());
        // sed1 holds a 100 MB input; both SeDs are otherwise identical.
        seds[1].store_data(
            "ic",
            DietValue::vec_f64(vec![0.0; 4]),
            Persistence::Persistent,
        );
        // Catalog says the payload is large even though the test value is
        // small — locality is judged from catalog metadata.
        cat.publish(
            "ic",
            "la0/sed1",
            100 << 20,
            crate::dagda::checksum(&DietValue::vec_f64(vec![0.0; 4])),
        );
        let ids = vec!["ic".to_string()];
        for _ in 0..5 {
            let chosen = ma.resolve("echo", &ids, &[], TraceCtx::default());
            assert_eq!(chosen.unwrap(), "la0/sed1");
        }
        // Without data ids the policy degrades to expected finish and the
        // label tie-break picks sed0.
        assert_eq!(ma.submit("echo").unwrap().config.label, "la0/sed0");
        for s in seds {
            s.shutdown();
        }
    }

    #[test]
    fn deregister_drops_the_dead_seds_replicas() {
        use crate::dagda::ReplicaCatalog;
        let (ma, seds) = hierarchy(&[2]);
        let cat = Arc::new(ReplicaCatalog::new());
        ma.register_catalog(cat.clone());
        seds[0].store_data("a", DietValue::ScalarI32(1), Persistence::Persistent);
        seds[1].store_data("a", DietValue::ScalarI32(1), Persistence::Persistent);
        seds[1].store_data("b", DietValue::ScalarI32(2), Persistence::Sticky);
        assert_eq!(cat.holders("a").len(), 2);
        assert!(ma.deregister(&seds[1].config.label));
        assert_eq!(cat.holders("a"), vec!["la0/sed0"]);
        assert!(cat.locate("b").is_none());
        assert_eq!(
            ma.metrics().counter_value("diet_ma_catalog_dropped_total"),
            2
        );
        for s in seds {
            s.shutdown();
        }
    }

    #[test]
    fn duplicate_registration_is_fully_removed() {
        // The same label accidentally attached at two nodes (double
        // registration): deregistration must purge *both* handles, not just
        // the first match, or the scheduler can still pick the stale one.
        let sed = SedHandle::spawn(SedConfig::new("dup/0", 1.0), echo_table());
        let twin = SedHandle::spawn(SedConfig::new("dup/0", 1.0), echo_table());
        let la0 = AgentNode::leaf("LA0", vec![sed.clone()]);
        let la1 = AgentNode::leaf("LA1", vec![twin.clone()]);
        let ma = MasterAgent::new("MA", vec![la0.clone(), la1], Arc::new(RoundRobin::new()));
        assert_eq!(ma.sed_count(), 2);
        assert!(ma.deregister("dup/0"));
        assert_eq!(ma.sed_count(), 0, "every registration of the label gone");
        assert!(matches!(
            ma.submit("echo"),
            Err(DietError::ServiceNotFound(_))
        ));
        // The node-level API reports the count directly.
        let a = AgentNode::leaf("A", vec![sed.clone()]);
        let b = AgentNode::leaf("B", vec![sed.clone(), twin.clone()]);
        let root = AgentNode::interior("root", vec![a, b]);
        assert_eq!(root.remove_sed("dup/0"), 3);
        assert_eq!(root.remove_sed("dup/0"), 0);
        sed.shutdown();
        twin.shutdown();
    }

    /// The round trip every fake subtree reports for its answer.
    const HOP: Duration = Duration::from_micros(100);

    /// A remote agent over SeDs that declare `echo`, answering `Forward`s
    /// from memory: a stand-in for an LA process. A test bumps a SeD's
    /// queue ([`FakeRemote::land`]) to model a placed call arriving there.
    struct FakeRemote {
        name: String,
        seds: Mutex<Vec<Estimate>>,
        fail: AtomicBool,
        /// How long the subtree takes to answer.
        stall: Mutex<Duration>,
        /// `Forward`s received.
        forwards: AtomicUsize,
    }

    impl FakeRemote {
        fn new(name: &str, seds: &[(&str, f64)]) -> Arc<Self> {
            let seds = seds
                .iter()
                .map(|&(label, speed_factor)| Estimate {
                    server: label.to_string(),
                    speed_factor,
                    ..Estimate::default()
                })
                .collect();
            Arc::new(FakeRemote {
                name: name.to_string(),
                seds: Mutex::new(seds),
                fail: AtomicBool::new(false),
                stall: Mutex::new(Duration::ZERO),
                forwards: AtomicUsize::new(0),
            })
        }

        fn forwards(&self) -> usize {
            self.forwards.load(Ordering::Relaxed)
        }

        /// A call placed on `label` reaches it: its queue grows by one.
        fn land(&self, label: &str) {
            let mut seds = self.seds.lock();
            if let Some(e) = seds.iter_mut().find(|e| e.server == label) {
                e.queue_length += 1;
            }
        }
    }

    impl RemoteSubtree for FakeRemote {
        fn name(&self) -> String {
            self.name.clone()
        }
        fn send_collect(
            &self,
            service: &str,
            exclude: &[String],
            _ctx: TraceCtx,
        ) -> Result<Gather, DietError> {
            if self.fail.load(Ordering::Relaxed) {
                return Err(DietError::Transport("remote agent unreachable".into()));
            }
            self.forwards.fetch_add(1, Ordering::Relaxed);
            let ests: Vec<Estimate> = self
                .seds
                .lock()
                .iter()
                .filter(|e| service == "echo" && !exclude.contains(&e.server))
                .cloned()
                .collect();
            let due = Instant::now() + *self.stall.lock();
            Ok(Box::new(move |until: Option<Instant>| {
                if let Some(until) = until.filter(|u| *u < due) {
                    std::thread::sleep(until.saturating_duration_since(Instant::now()));
                    return Err(DietError::Timeout { after_secs: 0.0 });
                }
                std::thread::sleep(due.saturating_duration_since(Instant::now()));
                Ok((ests, HOP))
            }))
        }
        fn ping(&self, _timeout: Duration) -> bool {
            !self.fail.load(Ordering::Relaxed)
        }
    }

    #[test]
    fn remote_subtree_estimates_join_local_candidates() {
        let (ma, seds) = hierarchy(&[1]);
        let ma = ma.with_scheduler(Arc::new(WeightedSpeed));
        let remote = FakeRemote::new("LA-remote", &[("remote/sed0", 10.0)]);
        let slot = ma.children[0].add_remote(remote.clone());
        // The remote SeD is 10x faster: the scheduler picks it, and the
        // label-only resolve path hands its name back.
        let label = ma
            .resolve("echo", &[], &[], TraceCtx::default())
            .expect("resolve");
        assert_eq!(label, "remote/sed0");
        // The handle-returning path cannot hand out a remote SeD.
        assert!(matches!(ma.submit("echo"), Err(DietError::Rejected(_))));
        // Excluding the remote label falls back to the local SeD.
        let label = ma
            .resolve(
                "echo",
                &[],
                &["remote/sed0".to_string()],
                TraceCtx::default(),
            )
            .unwrap();
        assert_eq!(label, "la0/sed0");
        // An unreachable remote subtree is skipped, never fatal.
        remote.fail.store(true, Ordering::Relaxed);
        let label = ma.resolve("echo", &[], &[], TraceCtx::default()).unwrap();
        assert_eq!(label, "la0/sed0");
        remote.fail.store(false, Ordering::Relaxed);
        // An unavailable slot (heartbeat evicted) is out of routing even
        // though the far process would answer.
        slot.set_available(false);
        let label = ma.resolve("echo", &[], &[], TraceCtx::default()).unwrap();
        assert_eq!(label, "la0/sed0");
        slot.set_available(true);
        assert_eq!(
            ma.resolve("echo", &[], &[], TraceCtx::default()).unwrap(),
            "remote/sed0"
        );
        for s in seds {
            s.shutdown();
        }
    }

    #[test]
    fn heartbeat_monitor_marks_and_restores_remote_agents() {
        let (ma, seds) = hierarchy(&[1]);
        let remote = FakeRemote::new("LA-remote", &[("remote/sed0", 10.0)]);
        let slot = ma.children[0].add_remote(remote.clone());
        let monitor = HeartbeatMonitor::spawn(
            ma.clone(),
            Duration::from_millis(10),
            Duration::from_millis(50),
            2,
        );
        // Healthy: stays available.
        std::thread::sleep(Duration::from_millis(50));
        assert!(slot.is_available());
        // Goes quiet: evicted after the miss threshold.
        remote.fail.store(true, Ordering::Relaxed);
        let deadline = Instant::now() + Duration::from_secs(5);
        while slot.is_available() && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(10));
        }
        assert!(!slot.is_available(), "agent eviction never happened");
        // Comes back: restored on the next successful probe.
        remote.fail.store(false, Ordering::Relaxed);
        let deadline = Instant::now() + Duration::from_secs(5);
        while !slot.is_available() && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(10));
        }
        assert!(slot.is_available(), "agent restoration never happened");
        let mm = ma.metrics();
        assert!(mm.counter_value("diet_heartbeat_agent_evictions_total") >= 1);
        assert!(mm.counter_value("diet_heartbeat_agent_restorations_total") >= 1);
        monitor.stop();
        for s in seds {
            s.shutdown();
        }
    }

    #[test]
    fn every_submit_is_counted_per_chosen_sed() {
        let (ma, seds) = hierarchy(&[1, 1]);
        for _ in 0..5 {
            ma.submit("echo").unwrap();
        }
        assert!(ma.submit("nosuch").is_err());
        let m = ma.metrics();
        assert_eq!(m.counter_value("diet_ma_submits_total"), 6);
        assert_eq!(m.counter_value("diet_ma_no_candidate_total"), 1);
        // Round robin over two SeDs: 3 + 2 scheduler decisions, and one
        // finding-time observation per decision.
        let per_sed: Vec<u64> = ["la0/sed0", "la1/sed0"]
            .iter()
            .map(|sed| {
                let labels = [("sed", *sed), ("policy", ma.scheduler_name())];
                m.counter_with("diet_ma_scheduled_total", &labels).get()
            })
            .collect();
        assert_eq!(per_sed.iter().sum::<u64>(), 5);
        assert!(per_sed.iter().all(|&n| n >= 2), "{per_sed:?}");
        assert_eq!(m.histogram("diet_ma_finding_seconds").count(), 5);
        for s in seds {
            s.shutdown();
        }
    }

    /// An MA over nothing but `sites`, one remote slot each.
    fn remote_ma(
        sites: &[Arc<FakeRemote>],
        scheduler: Arc<dyn Scheduler>,
    ) -> (Arc<MasterAgent>, Vec<Arc<RemoteSlot>>) {
        let root = AgentNode::leaf("MA/local", vec![]);
        let slots = sites.iter().map(|s| root.add_remote(s.clone())).collect();
        (MasterAgent::new("MA", vec![root], scheduler), slots)
    }

    fn resolve(ma: &MasterAgent) -> String {
        ma.resolve("echo", &[], &[], TraceCtx::default()).unwrap()
    }

    #[test]
    fn submits_within_the_bound_send_one_forward_per_slot() {
        let sites = [
            FakeRemote::new("la-a", &[("a/0", 1.0), ("a/1", 1.0)]),
            FakeRemote::new("la-b", &[("b/0", 1.0)]),
        ];
        let (ma, slots) = remote_ma(&sites, Arc::new(RoundRobin::new()));
        const N: usize = 50;
        let start = Instant::now();
        for _ in 0..N {
            resolve(&ma);
        }
        // One walk per slot, unless the machine stalled this thread past
        // the bound (then one more per bound elapsed).
        let windows = 1 + (start.elapsed().as_nanos() / HELD_ESTIMATES_MAX_AGE.as_nanos()) as usize;
        for site in &sites {
            assert!(
                (1..=windows).contains(&site.forwards()),
                "{}: {} forwards for {N} submits",
                site.name,
                site.forwards()
            );
        }
        // Every slot read is either held or walked, and the walks are the
        // forwards sent.
        let m = ma.metrics();
        let held = m.counter_value("diet_ma_finding_held_total");
        let walks = m.counter_value("diet_ma_finding_walks_total");
        assert_eq!(held + walks, (N * sites.len()) as u64);
        assert_eq!(
            walks,
            sites.iter().map(|s| s.forwards() as u64).sum::<u64>()
        );
        // The held batch carries the hop's round trip, as the walk did.
        let rtt = slots[1].held.lock()["echo"].estimates[0].probe_rtt;
        assert_eq!(rtt, HOP.as_secs_f64());
        // Past the bound, the next submit walks every slot again.
        std::thread::sleep(HELD_ESTIMATES_MAX_AGE);
        let before: Vec<usize> = sites.iter().map(|s| s.forwards()).collect();
        resolve(&ma);
        for (site, before) in sites.iter().zip(before) {
            assert_eq!(site.forwards(), before + 1, "{} not walked", site.name);
        }
        assert_eq!(m.counter_value("diet_ma_finding_walks_total"), walks + 2);
    }

    /// Finding that must not block answers only from fresh held batches:
    /// before the first walk, past the bound, or with a fault plan armed it
    /// gives up having sent, counted and consumed nothing, and the walking
    /// submit then runs as it would have.
    #[test]
    fn schedule_held_never_walks() {
        let sites = [
            FakeRemote::new("la-a", &[("a/0", 1.0)]),
            FakeRemote::new("la-b", &[("b/0", 1.0)]),
        ];
        let (ma, _) = remote_ma(&sites, Arc::new(RoundRobin::new()));
        let ctx = TraceCtx::default();
        let forwards = || sites.iter().map(|s| s.forwards()).sum::<usize>();
        let held = || ma.schedule_held("echo", &[], ctx).map(|r| r.unwrap().label);
        let submits = || ma.metrics().counter_value("diet_ma_submits_total");

        assert_eq!(held(), None, "no batch yet");
        assert_eq!((forwards(), submits()), (0, 0));
        // A walk fills the table and a held answer follows, sending
        // nothing — unless this thread stalled past the bound in between.
        let label = (0..5)
            .find_map(|_| {
                resolve(&ma);
                let (sent, placed) = (forwards(), submits());
                let label = held()?;
                assert_eq!((forwards(), submits()), (sent, placed + 1));
                Some(label)
            })
            .expect("five walks in a row went stale before the next read");
        assert!(["a/0", "b/0"].contains(&label.as_str()), "{label}");

        std::thread::sleep(HELD_ESTIMATES_MAX_AGE);
        let (sent, placed) = (forwards(), submits());
        assert_eq!(held(), None, "past the bound");
        assert_eq!((forwards(), submits()), (sent, placed));
        resolve(&ma);
        assert_eq!(forwards(), sent + 2);

        let plan = FaultPlan::new();
        ma.children[0].set_faults(plan.clone());
        assert_eq!(held(), None, "a fault plan is armed");
        assert_eq!(plan.requests_seen(), 0);
        resolve(&ma);
        assert_eq!(plan.requests_seen(), 1);
    }

    /// The paper's cold start, 100 submits in a row: per-SeD placements
    /// from the held table, with the MA counting its own placements, match
    /// a walk before every submit. Each placed call lands on its SeD (its
    /// queue grows) before the next submit; nothing completes.
    #[test]
    fn a_burst_from_the_table_places_like_the_walk() {
        fn burst(scheduler: Arc<dyn Scheduler>, walk_each: bool) -> (Vec<String>, usize) {
            let sites = [
                FakeRemote::new("la-a", &[("a/0", 1.0), ("a/1", 2.0)]),
                FakeRemote::new("la-b", &[("b/0", 1.5), ("b/1", 0.5)]),
            ];
            let (ma, slots) = remote_ma(&sites, scheduler);
            let mut placed = Vec::new();
            for _ in 0..100 {
                if walk_each {
                    // Re-marking a slot drops what it held.
                    slots.iter().for_each(|s| s.set_available(true));
                }
                let label = resolve(&ma);
                sites.iter().for_each(|s| s.land(&label));
                placed.push(label);
            }
            (placed, sites.iter().map(|s| s.forwards()).sum())
        }
        fn counts(placed: &[String]) -> Vec<(String, usize)> {
            let mut c = std::collections::BTreeMap::new();
            for l in placed {
                *c.entry(l.clone()).or_insert(0) += 1;
            }
            c.into_iter().collect()
        }
        let spread = |placed: &[String]| {
            let c: Vec<usize> = counts(placed).into_iter().map(|(_, n)| n).collect();
            c.iter().max().unwrap() - c.iter().min().unwrap()
        };

        let (walked, walk_forwards) = burst(Arc::new(RoundRobin::new()), true);
        let (held, held_forwards) = burst(Arc::new(RoundRobin::new()), false);
        assert_eq!(walk_forwards, 200, "the baseline walks every submit");
        assert!(held_forwards < 200);
        assert_eq!(held, walked, "round robin placed in another order");

        let policies: [fn() -> Arc<dyn Scheduler>; 2] =
            [|| Arc::new(MinQueue), || Arc::new(WeightedSpeed)];
        for policy in policies {
            let (walked, _) = burst(policy(), true);
            let (held, _) = burst(policy(), false);
            assert!(spread(&held) <= spread(&walked), "{held:?} vs {walked:?}");
            assert_eq!(counts(&held), counts(&walked));
        }
        // Without the MA counting its placements, min-queue would have put
        // the whole burst on one SeD; with them it spreads evenly.
        assert!(spread(&burst(Arc::new(MinQueue), false).0) <= 1);
    }

    #[test]
    fn a_deregistered_label_or_an_unavailable_slot_is_never_placed_from_the_table() {
        let sites = [
            FakeRemote::new("la-a", &[("a/0", 1.0), ("a/1", 1.0)]),
            FakeRemote::new("la-b", &[("b/0", 1.0)]),
        ];
        let (ma, slots) = remote_ma(&sites, Arc::new(RoundRobin::new()));
        for _ in 0..3 {
            resolve(&ma);
        }
        // la-a's own monitor drops a/1, and the MA is told: the batch the
        // MA holds still lists it, but is not read again.
        sites[0].seds.lock().retain(|e| e.server != "a/1");
        assert!(!ma.deregister("a/1"), "no handle here: a remote SeD");
        for _ in 0..20 {
            assert_ne!(resolve(&ma), "a/1");
        }
        assert!(sites[0].forwards() >= 2, "la-a not walked after the purge");

        // An evicted slot is neither read nor walked; restored, it walks.
        let walks_b = sites[1].forwards();
        slots[1].set_available(false);
        for _ in 0..20 {
            assert_ne!(resolve(&ma), "b/0");
        }
        assert_eq!(sites[1].forwards(), walks_b);
        slots[1].set_available(true);
        assert_eq!(resolve(&ma), "b/0", "the least recently used label");
        assert_eq!(sites[1].forwards(), walks_b + 1);
    }

    #[test]
    fn a_request_excluding_a_held_label_drops_the_batch() {
        let site = FakeRemote::new("la-a", &[("a/0", 1.0), ("a/1", 1.0)]);
        let (ma, slots) = remote_ma(std::slice::from_ref(&site), Arc::new(RoundRobin::new()));
        let holds = || slots[0].held.lock().contains_key("echo");
        let ctx = TraceCtx::default();
        resolve(&ma);
        assert!(holds());
        // The request is answered without a/0, and the batch is dropped...
        let excluded = ["a/0".to_string()];
        assert_eq!(ma.resolve("echo", &[], &excluded, ctx).unwrap(), "a/1");
        assert!(!holds());
        // ...so the next submit walks, and its answer is held again.
        let walks = site.forwards();
        resolve(&ma);
        assert_eq!(site.forwards(), walks + 1);
        assert!(holds());
        // Exclusion that leaves nothing held walks (and finds nothing).
        let all = ["a/0".to_string(), "a/1".to_string()];
        assert!(ma.resolve("echo", &[], &all, ctx).is_err());
        assert_eq!(site.forwards(), walks + 2);
    }

    /// The held queue only grows between walks: a candidate it shows at
    /// its admission limit is checked on the wire, not dropped from the
    /// table's say-so.
    #[test]
    fn a_held_candidate_at_its_admission_limit_walks() {
        let site = FakeRemote::new("la-a", &[("a/0", 1.0)]);
        site.seds.lock()[0].admission_limit = Some(2);
        let (ma, _) = remote_ma(std::slice::from_ref(&site), Arc::new(MinQueue));
        for _ in 0..2 {
            site.land(&resolve(&ma));
        }
        // Held (or re-walked) queue now reads 2 of 2: the next submit walks.
        let walks = site.forwards();
        assert_eq!(resolve(&ma), "a/0");
        assert_eq!(site.forwards(), walks + 1);
    }

    #[test]
    fn a_stale_batch_walks_and_the_collect_timeout_bounds_the_walk() {
        let (ma, seds) = hierarchy(&[1]);
        let site = FakeRemote::new("la-remote", &[("remote/0", 1.0)]);
        ma.children[0].add_remote(site.clone());
        let deadline = Duration::from_millis(50);
        ma.set_collect_timeout(deadline);
        resolve(&ma);
        assert_eq!(site.forwards(), 1);
        // The subtree wedges while its batch ages out: the next submit
        // walks it, and the deadline, not the subtree, ends the wait.
        *site.stall.lock() = Duration::from_secs(5);
        std::thread::sleep(HELD_ESTIMATES_MAX_AGE);
        let t0 = Instant::now();
        assert_eq!(resolve(&ma), "la0/sed0");
        assert!(t0.elapsed() < deadline + Duration::from_millis(500));
        assert_eq!(site.forwards(), 2);
        let timeouts = || ma.metrics().counter_value("diet_ma_subtree_timeouts_total");
        assert_eq!(timeouts(), 1);
        // A subtree that did not answer holds nothing: it is walked again.
        assert_eq!(resolve(&ma), "la0/sed0");
        assert_eq!((site.forwards(), timeouts()), (3, 2));
        for s in seds {
            s.shutdown();
        }
    }
}

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

use crate::dagda::ReplicaCatalog;
use crate::error::DietError;
use crate::faults::{FaultAction, FaultPlan};
use crate::monitor::{Estimate, MissTally};
use crate::sched::Scheduler;
use crate::sed::SedHandle;
use crossbeam::channel::{bounded, RecvTimeoutError, Sender};
use obs::{Obs, TraceCtx};
use parking_lot::{Mutex, RwLock};
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

/// A [`RemoteSubtree`] plus its availability bit, flipped by the heartbeat
/// monitor: an agent that misses its heartbeats has its whole subtree's
/// SeDs pulled from routing (collect skips the slot), and a successful
/// probe later re-registers them — the slot is marked, never removed.
pub struct RemoteSlot {
    remote: Arc<dyn RemoteSubtree>,
    available: AtomicBool,
}

impl RemoteSlot {
    pub fn new(remote: Arc<dyn RemoteSubtree>) -> Arc<Self> {
        Arc::new(RemoteSlot {
            remote,
            available: AtomicBool::new(true),
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

    pub fn set_available(&self, v: bool) {
        self.available.store(v, Ordering::Release);
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
    /// tree: send the request to every available remote slot (each waiting
    /// reply recorded in `sent`), then read the local SeDs'
    /// estimates — memory reads, done inline while the remotes work. Local
    /// SeDs carry their handle; estimates from remote subtrees (added by
    /// [`gather`]) carry `None` — the caller reaches those SeDs by label
    /// over the wire.
    fn send_and_read(
        &self,
        service: &str,
        exclude: &[String],
        ctx: TraceCtx,
        out: &mut Vec<(Estimate, Option<Arc<SedHandle>>)>,
        sent: &mut Vec<Gather>,
    ) {
        if let Some(plan) = self.faults.read().clone() {
            // Stall is applied inside on_request; Kill makes the whole
            // subtree go dark mid-collection.
            if plan.on_request() == FaultAction::Kill {
                return;
            }
        }
        for slot in self.remotes.read().iter() {
            if !slot.is_available() {
                continue;
            }
            if let Ok(pending) = slot.remote.send_collect(service, exclude, ctx) {
                sent.push(pending);
            }
        }
        for sed in self.seds.read().iter() {
            if exclude.iter().any(|l| *l == sed.config.label) {
                continue;
            }
            if let Some(e) = sed.estimate(service) {
                out.push((e, Some(sed.clone())));
            }
        }
        for child in &self.children {
            child.send_and_read(service, exclude, ctx, out, sent);
        }
    }

    /// Estimates for a service from this whole subtree, skipping excluded
    /// labels (servers a retrying client has just seen fail) — the LA-side
    /// serving loop aggregates these into an `EstimateBatch` frame. Every
    /// remote subtree is asked at once and waited on until its stub's own
    /// deadline; one that does not answer contributes nothing (it is
    /// skipped, never fatal).
    pub fn estimates(&self, service: &str, exclude: &[String], ctx: TraceCtx) -> Vec<Estimate> {
        let mut out = Vec::new();
        let mut sent = Vec::new();
        self.send_and_read(service, exclude, ctx, &mut out, &mut sent);
        gather(sent, None, exclude, &mut out);
        out.into_iter().map(|(e, _)| e).collect()
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

/// The last step of a collect: wait for every request `sent`, against one
/// deadline. A remote subtree's measured round trip is this parent's
/// proximity signal for everything below it. Returns how many subtrees had
/// not answered by the deadline.
fn gather(
    sent: Vec<Gather>,
    until: Option<Instant>,
    exclude: &[String],
    out: &mut Vec<(Estimate, Option<Arc<SedHandle>>)>,
) -> usize {
    let mut timeouts = 0;
    for pending in sent {
        match pending(until) {
            Ok((ests, rtt)) => {
                let hop = rtt.as_secs_f64();
                for mut e in ests {
                    if exclude.contains(&e.server) {
                        continue;
                    }
                    e.probe_rtt += hop;
                    out.push((e, None));
                }
            }
            Err(DietError::Timeout { .. }) => timeouts += 1,
            Err(_) => {}
        }
    }
    timeouts
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
    /// every remote subtree is asked at once, and the armed deadline (if
    /// any) bounds the whole gather.
    fn collect_candidates(
        &self,
        service: &str,
        exclude: &[String],
        ctx: TraceCtx,
    ) -> Vec<(Estimate, Option<Arc<SedHandle>>)> {
        let until = self.collect_timeout.read().map(|d| Instant::now() + d);
        let mut out = Vec::new();
        let mut sent = Vec::new();
        for child in &self.children {
            child.send_and_read(service, exclude, ctx, &mut out, &mut sent);
        }
        let timeouts = gather(sent, until, exclude, &mut out);
        if timeouts > 0 {
            self.obs
                .metrics
                .counter("diet_ma_subtree_timeouts_total")
                .add(timeouts as u64);
        }
        out
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
        let started = Instant::now();
        let mut candidates = self.collect_candidates(service, exclude, ctx);
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
            return Err(if any_declared {
                DietError::NoServerAvailable(service.to_string())
            } else {
                DietError::ServiceNotFound(service.to_string())
            });
        }
        let ests: Vec<Estimate> = candidates.iter().map(|(e, _)| e.clone()).collect();
        let pick = self.scheduler.select(&ests);
        let (chosen_est, chosen_handle) = candidates.get(pick).cloned().ok_or_else(|| {
            DietError::Rejected(format!(
                "scheduler {} returned out-of-range index {pick}",
                self.scheduler.name()
            ))
        })?;
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
        Ok(Placement {
            label: chosen_est.server,
            sed: chosen_handle,
        })
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
        self.collect_candidates(service, exclude, ctx)
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
    /// removed. Deregistered labels never reappear in candidate sets.
    pub fn deregister(&self, label: &str) -> bool {
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
pub struct HeartbeatMonitor {
    stop: Sender<()>,
    thread: Option<std::thread::JoinHandle<()>>,
}

impl HeartbeatMonitor {
    pub fn spawn(
        ma: Arc<MasterAgent>,
        interval: Duration,
        ping_timeout: Duration,
        miss_threshold: u32,
    ) -> HeartbeatMonitor {
        let (stop_tx, stop_rx) = bounded::<()>(1);
        let thread = std::thread::spawn(move || {
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
            while let Err(RecvTimeoutError::Timeout) = stop_rx.recv_timeout(interval) {
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
            }
        });
        HeartbeatMonitor {
            stop: stop_tx,
            thread: Some(thread),
        }
    }

    /// Stop the monitor and wait for its thread to exit.
    pub fn stop(mut self) {
        self.shutdown();
    }

    fn shutdown(&mut self) {
        let _ = self.stop.try_send(());
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }
}

impl Drop for HeartbeatMonitor {
    fn drop(&mut self) {
        self.shutdown();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::data::{DietValue, Persistence};
    use crate::profile::{ArgTag, Profile, ProfileDesc};
    use crate::sched::{MinQueue, RoundRobin};
    use crate::sed::{SedConfig, ServiceTable, SolveFn};

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

    struct FakeRemote {
        name: String,
        label: String,
        fail: AtomicBool,
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
            let ests = if service != "echo" || exclude.contains(&self.label) {
                vec![]
            } else {
                vec![Estimate {
                    server: self.label.clone(),
                    speed_factor: 10.0,
                    ..Estimate::default()
                }]
            };
            Ok(Box::new(move |_| Ok((ests, Duration::ZERO))))
        }
        fn ping(&self, _timeout: Duration) -> bool {
            !self.fail.load(Ordering::Relaxed)
        }
    }

    #[test]
    fn remote_subtree_estimates_join_local_candidates() {
        use crate::sched::WeightedSpeed;
        let (ma, seds) = hierarchy(&[1]);
        let ma = ma.with_scheduler(Arc::new(WeightedSpeed));
        let remote = Arc::new(FakeRemote {
            name: "LA-remote".into(),
            label: "remote/sed0".into(),
            fail: AtomicBool::new(false),
        });
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
        let remote = Arc::new(FakeRemote {
            name: "LA-remote".into(),
            label: "remote/sed0".into(),
            fail: AtomicBool::new(false),
        });
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
}

//! The Server Daemon (SeD).
//!
//! "A SeD encapsulates a computational server ... The information stored by
//! a SeD is a list of the data available on its server, all information
//! concerning its load and the list of problems that it can solve."
//!
//! A [`ServiceTable`] maps service names to solve functions (the
//! `diet_service_table_add` analog); [`SedHandle::spawn`] starts the daemon:
//! a worker thread that executes queued solve requests one at a time —
//! matching the paper's constraint that "each server cannot compute more
//! than one simulation at the same time".

use crate::dagda::{self, DataResolver, ReplicaCatalog};
use crate::data::{DietValue, Persistence};
use crate::datamgr::DataManager;
use crate::error::DietError;
use crate::faults::{FaultAction, FaultPlan};
use crate::monitor::{Estimate, LoadTracker};
use crate::profile::{Profile, ProfileDesc};
use obs::{Obs, TraceCtx};
use parking_lot::RwLock;
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A solve function: receives the profile with IN arguments filled, writes
/// its OUT arguments, and returns the service status code (0 = success —
/// the paper's "integer for error controls").
pub type SolveFn = Arc<dyn Fn(&mut Profile) -> Result<i32, DietError> + Send + Sync>;

/// The service table (the `diet_service_table_*` API).
#[derive(Clone, Default)]
pub struct ServiceTable {
    entries: HashMap<String, (ProfileDesc, SolveFn)>,
    max_size: usize,
}

impl ServiceTable {
    /// `diet_service_table_init(max_size)`.
    pub fn init(max_size: usize) -> Self {
        ServiceTable {
            entries: HashMap::with_capacity(max_size),
            max_size,
        }
    }

    /// `diet_service_table_add(profile, convertor=NULL, solve_func)`.
    pub fn add(&mut self, desc: ProfileDesc, solve: SolveFn) -> Result<(), DietError> {
        if self.max_size > 0 && self.entries.len() >= self.max_size {
            return Err(DietError::Rejected(format!(
                "service table full ({} entries)",
                self.max_size
            )));
        }
        self.entries.insert(desc.service.clone(), (desc, solve));
        Ok(())
    }

    pub fn lookup(&self, service: &str) -> Option<&(ProfileDesc, SolveFn)> {
        self.entries.get(service)
    }

    pub fn declares(&self, service: &str) -> bool {
        self.entries.contains_key(service)
    }

    pub fn len(&self) -> usize {
        self.entries.len()
    }

    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// `diet_print_service_table` — rendered to a string.
    pub fn render(&self) -> String {
        let mut names: Vec<&String> = self.entries.keys().collect();
        names.sort();
        let mut out = String::from("service table:\n");
        for n in names {
            let (d, _) = &self.entries[n];
            out.push_str(&format!(
                "  {n} (last_in={}, last_inout={}, last_out={})\n",
                d.last_in, d.last_inout, d.last_out
            ));
        }
        out
    }
}

/// Static configuration of one SeD.
#[derive(Debug, Clone)]
pub struct SedConfig {
    /// Unique label (e.g. "toulouse-violette/0").
    pub label: String,
    /// Relative machine speed (feeds estimates).
    pub speed_factor: f64,
    /// Advertised free memory, bytes.
    pub free_memory: u64,
    /// Byte cap on the SeD's persistent-data store; `None` = unbounded.
    pub data_capacity: Option<u64>,
    /// Admission control: reject new requests with `Busy` once this many
    /// jobs are queued + running. `None` = accept everything (the
    /// paper-era behaviour; requests queue without bound).
    pub admission_limit: Option<usize>,
}

impl SedConfig {
    pub fn new(label: &str, speed_factor: f64) -> Self {
        SedConfig {
            label: label.to_string(),
            speed_factor,
            free_memory: 32 << 30,
            data_capacity: None,
            admission_limit: None,
        }
    }

    /// Bound the persistent-data store (LRU-evicted, sticky pinned).
    pub fn with_data_capacity(mut self, bytes: u64) -> Self {
        self.data_capacity = Some(bytes);
        self
    }

    /// Bound the solve queue: requests beyond `jobs` queued + running are
    /// answered with `Busy` so clients back off instead of timing out.
    pub fn with_admission_limit(mut self, jobs: usize) -> Self {
        self.admission_limit = Some(jobs);
        self
    }
}

/// One queued solve request.
struct Job {
    profile: Profile,
    submitted: Instant,
    /// Trace context propagated from the caller (possibly across the wire);
    /// inactive (`trace_id == 0`) jobs record no spans.
    ctx: TraceCtx,
    reply: Completion,
}

/// One-shot delivery of a job's outcome.
///
/// Fired exactly once: with `Some(outcome)` when the worker completes the
/// job, or with `None` if the job is abandoned before completion — the
/// worker died mid-job (kill fault), the reply was deliberately dropped
/// (`DropReply` fault), or the command queue rejected the job. `None` is
/// the crash signal a serving layer turns into a severed connection, so a
/// remote caller observes exactly what a host death looks like.
pub struct Completion(Option<Box<dyn FnOnce(Option<SolveOutcome>) + Send>>);

impl Completion {
    pub fn new(f: impl FnOnce(Option<SolveOutcome>) + Send + 'static) -> Self {
        Completion(Some(Box::new(f)))
    }

    /// Deliver the outcome.
    fn fire(mut self, outcome: SolveOutcome) {
        if let Some(f) = self.0.take() {
            f(Some(outcome));
        }
    }
}

impl Drop for Completion {
    fn drop(&mut self) {
        if let Some(f) = self.0.take() {
            f(None);
        }
    }
}

/// What the worker sends back.
#[derive(Debug, Clone)]
pub struct SolveOutcome {
    pub result: Result<Profile, DietError>,
    /// Time the job waited in the SeD queue, seconds.
    pub queue_wait: f64,
    /// Solve execution time, seconds.
    pub solve_time: f64,
}

enum Command {
    Run(Job),
    /// Liveness probe: the worker answers on the channel. Pings queue
    /// behind running jobs, so a wedged solve (or an injected stall) makes
    /// the SeD look dead to heartbeat monitors — which is the desired
    /// semantics.
    Ping(Sender<()>),
    Shutdown,
}

/// Clears the liveness flag when the worker exits for any reason,
/// including a panic inside a solve function.
struct AliveGuard(Arc<AtomicBool>);

impl Drop for AliveGuard {
    fn drop(&mut self) {
        self.0.store(false, Ordering::Release);
    }
}

/// A live SeD: configuration + queue endpoint + load tracker. Cloneable
/// handles share the same daemon.
pub struct SedHandle {
    pub config: SedConfig,
    table: Arc<RwLock<ServiceTable>>,
    load: Arc<LoadTracker>,
    pub datamgr: Arc<DataManager>,
    tx: Sender<Command>,
    alive: Arc<AtomicBool>,
    /// Optional host probe feeding free-memory into estimates (FAST/CoRI).
    probe: RwLock<Option<Arc<dyn crate::probe::Probe>>>,
    /// Failure injection switches consulted by the worker per request.
    faults: Arc<FaultPlan>,
    /// Tracing + metrics sink; spans from propagated contexts and the
    /// SeD-side counters/histograms land here.
    obs: Arc<Obs>,
    /// Hierarchy-wide replica catalog (shared with the MA); publishes on
    /// retain, unpublishes on eviction. None = no DAGDA participation.
    catalog: Arc<RwLock<Option<Arc<ReplicaCatalog>>>>,
    /// How the worker pulls data ids it does not hold from the owning SeD.
    resolver: Arc<RwLock<Option<Arc<dyn DataResolver>>>>,
}

impl SedHandle {
    /// Launch the daemon (the `diet_SeD()` analog — but returning a handle
    /// instead of never returning). The worker owns the receive side and
    /// executes jobs strictly one at a time.
    pub fn spawn(config: SedConfig, table: ServiceTable) -> Arc<SedHandle> {
        Self::spawn_with_obs(config, table, Arc::new(Obs::new()))
    }

    /// Like [`SedHandle::spawn`] but recording into an injected
    /// observability sink — deployments that want one unified trace/metrics
    /// view pass the same `Arc<Obs>` to every component.
    pub fn spawn_with_obs(config: SedConfig, table: ServiceTable, obs: Arc<Obs>) -> Arc<SedHandle> {
        let (tx, rx): (Sender<Command>, Receiver<Command>) = channel();
        let table = Arc::new(RwLock::new(table));
        let load = LoadTracker::new();
        let datamgr = Arc::new(match config.data_capacity {
            Some(cap) => DataManager::with_capacity(cap),
            None => DataManager::new(),
        });
        let alive = Arc::new(AtomicBool::new(true));
        let faults = FaultPlan::new();
        let catalog: Arc<RwLock<Option<Arc<ReplicaCatalog>>>> = Arc::new(RwLock::new(None));
        let resolver: Arc<RwLock<Option<Arc<dyn DataResolver>>>> = Arc::new(RwLock::new(None));
        let handle = Arc::new(SedHandle {
            config: config.clone(),
            table: table.clone(),
            load: load.clone(),
            datamgr: datamgr.clone(),
            tx,
            alive: alive.clone(),
            probe: RwLock::new(None),
            faults: faults.clone(),
            obs: obs.clone(),
            catalog: catalog.clone(),
            resolver: resolver.clone(),
        });

        let worker_table = table;
        let worker_load = load;
        let worker_alive = alive;
        let worker_dm = datamgr;
        let worker_faults = faults;
        let worker_catalog = catalog;
        let worker_resolver = resolver;
        // Metric handles interned once; label distinguishes SeDs when
        // several share one registry. Updates below are pure atomics.
        let labels: &[(&str, &str)] = &[("sed", &config.label)];
        let m_solves = obs.metrics.counter_with("diet_sed_solves_total", labels);
        let m_errors = obs
            .metrics
            .counter_with("diet_sed_solve_errors_total", labels);
        let m_solve_h = obs.metrics.histogram_with("diet_sed_solve_seconds", labels);
        let m_queue_h = obs
            .metrics
            .histogram_with("diet_sed_queue_wait_seconds", labels);
        let m_qlen = obs.metrics.gauge_with("diet_sed_queue_length", labels);
        let m_reply_fail = obs
            .metrics
            .counter_with("diet_sed_reply_failures_total", labels);
        let m_data_hit = obs.metrics.counter_with("diet_data_hits_total", labels);
        let m_data_miss = obs.metrics.counter_with("diet_data_misses_total", labels);
        let m_data_pull_b = obs
            .metrics
            .counter_with("diet_data_pull_bytes_total", labels);
        let m_data_pull_h = obs.metrics.histogram_with("diet_data_pull_seconds", labels);
        let m_data_fail = obs
            .metrics
            .counter_with("diet_data_resolve_failures_total", labels);
        let worker_label = config.label;
        let worker_obs = obs;
        std::thread::spawn(move || {
            let _guard = AliveGuard(worker_alive);
            while let Ok(cmd) = rx.recv() {
                match cmd {
                    Command::Shutdown => break,
                    Command::Ping(reply) => {
                        let _ = reply.send(());
                    }
                    Command::Run(mut job) => {
                        let action = worker_faults.on_request();
                        if action == FaultAction::Kill {
                            // Injected crash: abandon the job without a
                            // reply and stop serving. Flip liveness *before*
                            // the job (and its reply channel) drops, so a
                            // client observing the disconnect already sees a
                            // dead SeD and the MA deregisters it at once.
                            _guard.0.store(false, Ordering::Release);
                            break;
                        }
                        let queue_wait = job.submitted.elapsed().as_secs_f64();
                        let exec_start_ns = worker_obs.tracer.now_ns();
                        let started = Instant::now();
                        worker_load.start();
                        // Resolve grid-data references before validation:
                        // every `DataRef` IN slot is replaced by the actual
                        // value — from this SeD's own store, or pulled
                        // SeD-to-SeD from the catalogued owner.
                        let mut resolved_refs: Vec<(usize, String)> = Vec::new();
                        let mut resolve_err: Option<DietError> = None;
                        for i in 0..job.profile.values.len() {
                            let id = match &job.profile.values[i] {
                                DietValue::DataRef { id } => id.clone(),
                                _ => continue,
                            };
                            let local = worker_dm.get(&id);
                            let fetched = match local {
                                Ok(v) => {
                                    m_data_hit.inc();
                                    Ok(v)
                                }
                                Err(_) => {
                                    m_data_miss.inc();
                                    let pull_start = Instant::now();
                                    let pulled = pull_from_owner(
                                        &worker_dm,
                                        &worker_catalog,
                                        &worker_resolver,
                                        &worker_label,
                                        &id,
                                    );
                                    if let Ok(v) = &pulled {
                                        m_data_pull_b.add(v.payload_bytes());
                                        m_data_pull_h.observe(pull_start.elapsed().as_secs_f64());
                                    }
                                    pulled
                                }
                            };
                            match fetched {
                                Ok(v) => {
                                    job.profile.values[i] = v;
                                    resolved_refs.push((i, id));
                                }
                                Err(e) => {
                                    m_data_fail.inc();
                                    resolve_err = Some(e);
                                    break;
                                }
                            }
                        }
                        let solved = if let Some(e) = resolve_err {
                            Err(e)
                        } else {
                            // A dag-tagged request (`svc@d<dag>.n<node>`)
                            // executes the canonical service but keeps the
                            // tag as its publication namespace, so outputs
                            // of concurrent workflows never collide.
                            let canonical = job
                                .profile
                                .service
                                .split('@')
                                .next()
                                .unwrap_or_default()
                                .to_string();
                            let tagged = canonical.len() != job.profile.service.len();
                            let t = worker_table.read();
                            match t.lookup(&canonical) {
                                None => {
                                    Err(DietError::ServiceNotFound(job.profile.service.clone()))
                                }
                                Some((desc, solve)) => {
                                    let validated = if tagged {
                                        let mut d = desc.clone();
                                        d.service = job.profile.service.clone();
                                        d.validate(&job.profile)
                                    } else {
                                        desc.validate(&job.profile)
                                    };
                                    match validated {
                                        Err(e) => Err(e),
                                        Ok(()) => {
                                            let solve = solve.clone();
                                            drop(t);
                                            match solve(&mut job.profile) {
                                                Ok(0) => {
                                                    // Retain PERSISTENT/STICKY
                                                    // arguments (DTM behaviour);
                                                    // VOLATILE data is dropped
                                                    // with the job. Args that
                                                    // arrived as refs are already
                                                    // resident under their own id.
                                                    let skip: Vec<usize> = resolved_refs
                                                        .iter()
                                                        .map(|(i, _)| *i)
                                                        .collect();
                                                    if tagged {
                                                        publish_all_tagged(
                                                            &worker_dm,
                                                            worker_catalog.read().as_deref(),
                                                            &worker_label,
                                                            &job.profile,
                                                            &skip,
                                                        );
                                                    } else {
                                                        retain_and_publish(
                                                            &worker_dm,
                                                            worker_catalog.read().as_deref(),
                                                            &worker_label,
                                                            &job.profile,
                                                            &skip,
                                                        );
                                                    }
                                                    // The reply re-collapses
                                                    // resolved args back to refs:
                                                    // the client sent an id and
                                                    // gets an id back, never the
                                                    // payload. Tagged requests
                                                    // additionally collapse every
                                                    // heavy output to its
                                                    // published ref — scalars
                                                    // stay inline so the engine
                                                    // reads status codes without
                                                    // payload bytes.
                                                    let mut reply = job.profile.clone();
                                                    if tagged {
                                                        for (i, v) in
                                                            reply.values.iter_mut().enumerate()
                                                        {
                                                            if resolved_refs
                                                                .iter()
                                                                .any(|(ri, _)| *ri == i)
                                                            {
                                                                continue;
                                                            }
                                                            if matches!(
                                                                v,
                                                                DietValue::File { .. }
                                                                    | DietValue::VectorF64(_)
                                                                    | DietValue::VectorI32(_)
                                                            ) {
                                                                *v = DietValue::DataRef {
                                                                    id: format!(
                                                                        "{}#{i}",
                                                                        job.profile.service
                                                                    ),
                                                                };
                                                            }
                                                        }
                                                    }
                                                    for (i, id) in &resolved_refs {
                                                        reply.values[*i] =
                                                            DietValue::DataRef { id: id.clone() };
                                                    }
                                                    Ok(reply)
                                                }
                                                Ok(status) => Err(DietError::SolveFailed {
                                                    service: job.profile.service.clone(),
                                                    status,
                                                }),
                                                Err(e) => Err(e),
                                            }
                                        }
                                    }
                                }
                            }
                        };
                        let solve_time = started.elapsed().as_secs_f64();
                        worker_load.finish(queue_wait + solve_time);
                        m_solves.inc();
                        if solved.is_err() {
                            m_errors.inc();
                        }
                        m_solve_h.observe(solve_time);
                        m_queue_h.observe(queue_wait);
                        m_qlen.set(worker_load.queue_length() as f64);
                        if job.ctx.is_active() {
                            // The queue wait ended exactly where execution
                            // began; both spans parent under the caller's
                            // attempt span, joining its trace.
                            let queued_start =
                                exec_start_ns.saturating_sub((queue_wait * 1e9) as u64);
                            worker_obs.tracer.record_window(
                                job.ctx.trace_id,
                                job.ctx.parent_span,
                                "Queued",
                                &worker_label,
                                queued_start,
                                exec_start_ns,
                            );
                            worker_obs.tracer.record_window(
                                job.ctx.trace_id,
                                job.ctx.parent_span,
                                "Execution",
                                &worker_label,
                                exec_start_ns,
                                worker_obs.tracer.now_ns(),
                            );
                        }
                        if action == FaultAction::DropReply {
                            worker_load.reply_failed();
                            m_reply_fail.inc();
                            // Dropping the completion unfired delivers
                            // `None`: an in-process caller sees its channel
                            // disconnect, a TCP serving loop severs the
                            // connection — the same observable as a crash
                            // between solve and reply.
                        } else {
                            job.reply.fire(SolveOutcome {
                                result: solved,
                                queue_wait,
                                solve_time,
                            });
                        }
                    }
                }
            }
        });
        handle
    }

    /// Liveness probe: true while the worker loop is running. Flips to
    /// false after `shutdown()` drains (or if the worker panics) — agents
    /// use this to drop dead servers from candidate sets.
    pub fn is_alive(&self) -> bool {
        self.alive.load(Ordering::Acquire)
    }

    /// Liveness probe through the worker queue: the in-process analog of
    /// [`Message::Ping`](crate::codec::Message::Ping), answered once the
    /// worker gets to it. Returns false when the worker is dead, wedged, or
    /// slower than the deadline.
    pub fn ping(&self, timeout: Duration) -> bool {
        let (ptx, prx) = channel();
        if self.tx.send(Command::Ping(ptx)).is_err() {
            return false;
        }
        prx.recv_timeout(timeout).is_ok()
    }

    /// Is the worker executing a solve right now? Pings queue behind the
    /// running job, so liveness monitors must not read a missed deadline as
    /// death while this is true.
    pub fn is_busy(&self) -> bool {
        self.load.is_solving()
    }

    /// Failure injection switches for this SeD (tests and experiments).
    pub fn faults(&self) -> Arc<FaultPlan> {
        self.faults.clone()
    }

    /// Replies this SeD computed but could not deliver.
    pub fn reply_failures(&self) -> u64 {
        self.load.reply_failures()
    }

    /// Record an undeliverable reply noticed outside the worker (e.g. a TCP
    /// serving loop whose connection died before the reply was written).
    pub fn note_reply_failure(&self) {
        self.load.reply_failed();
        self.obs
            .metrics
            .counter_with(
                "diet_sed_reply_failures_total",
                &[("sed", &self.config.label)],
            )
            .inc();
    }

    /// This SeD's observability sink (tracer + metrics registry).
    pub fn obs(&self) -> Arc<Obs> {
        self.obs.clone()
    }

    /// Does this SeD declare the service? Used during hierarchy traversal.
    pub fn declares(&self, service: &str) -> bool {
        self.table.read().declares(service)
    }

    /// Attach a host probe: subsequent estimates report its live
    /// free-memory figure instead of the static configuration value.
    pub fn set_probe(&self, probe: Arc<dyn crate::probe::Probe>) {
        *self.probe.write() = Some(probe);
    }

    /// Monitoring probe: snapshot the load into an estimate, or None if the
    /// SeD is dead or the service is not declared here.
    pub fn estimate(&self, service: &str) -> Option<Estimate> {
        if !self.is_alive() || !self.declares(service) {
            return None;
        }
        let free_memory = match self.probe.read().as_ref() {
            Some(p) => p.report().free_memory,
            None => self.config.free_memory,
        };
        let mut e = self
            .load
            .estimate(&self.config.label, self.config.speed_factor, free_memory);
        e.admission_limit = self.config.admission_limit;
        Some(e)
    }

    /// Admission check: would a new request be accepted right now? The
    /// serving loop consults this before enqueueing and answers `Busy`
    /// when it returns false.
    pub fn admits(&self) -> bool {
        match self.config.admission_limit {
            None => true,
            Some(cap) => self.load.queue_length() < cap,
        }
    }

    /// Admission control as every data path to this SeD applies it — the
    /// TCP serving loop and the client's in-process attempt alike: `Busy`
    /// (counted) when the fault plan forces it or the queue is full.
    pub(crate) fn admit(&self) -> Result<(), DietError> {
        if self.faults().force_busy() || !self.admits() {
            self.obs.metrics.counter("diet_sed_busy_total").inc();
            return Err(DietError::Busy);
        }
        Ok(())
    }

    /// Enqueue a solve; returns the receiver for the outcome. The queue
    /// length is bumped immediately so estimates see the pending job.
    pub fn submit(&self, profile: Profile) -> Result<Receiver<SolveOutcome>, DietError> {
        self.submit_traced(profile, TraceCtx::default())
    }

    /// [`SedHandle::submit`] carrying a trace context: the worker records
    /// `Queued` and `Execution` spans under `ctx.parent_span`, joining the
    /// caller's trace (this is the in-process analog of the context the TCP
    /// path ships inside `Call` frames).
    pub fn submit_traced(
        &self,
        profile: Profile,
        ctx: TraceCtx,
    ) -> Result<Receiver<SolveOutcome>, DietError> {
        let (rtx, rrx) = channel();
        let load = self.load.clone();
        let m_fail = self.obs.metrics.counter_with(
            "diet_sed_reply_failures_total",
            &[("sed", &self.config.label)],
        );
        // On `None` (abandoned job) the sender drops unsent, disconnecting
        // the receiver — the caller observes exactly a worker crash.
        self.submit_with_callback(profile, ctx, move |outcome| {
            if let Some(o) = outcome {
                if rtx.send(o).is_err() {
                    // The client abandoned the call (timeout); the SeD
                    // keeps serving, but the lost delivery is counted so
                    // operators can see it.
                    load.reply_failed();
                    m_fail.inc();
                }
            }
        })?;
        Ok(rrx)
    }

    /// Enqueue a solve whose outcome is delivered through a one-shot
    /// callback instead of a channel — the readiness-driven serving path
    /// uses this so a completed job queues its reply frame directly,
    /// without a per-connection pump thread parked on a receiver.
    ///
    /// `cb` runs exactly once, on the worker thread: `Some(outcome)` on
    /// completion, `None` if the job is abandoned (worker killed mid-job,
    /// reply dropped by fault injection, or — even when this returns
    /// `Err` — the command queue rejected the job, since the rejected
    /// job's completion still fires `None` as it drops).
    pub fn submit_with_callback(
        &self,
        profile: Profile,
        ctx: TraceCtx,
        cb: impl FnOnce(Option<SolveOutcome>) + Send + 'static,
    ) -> Result<(), DietError> {
        self.load.enqueue();
        self.tx
            .send(Command::Run(Job {
                profile,
                submitted: Instant::now(),
                ctx,
                reply: Completion::new(cb),
            }))
            .map_err(|_| DietError::Transport(format!("SeD {} is down", self.config.label)))
    }

    /// Current queue length (jobs pending + running).
    pub fn queue_length(&self) -> usize {
        self.load.queue_length()
    }

    pub fn completed(&self) -> u64 {
        self.load.completed()
    }

    /// Orderly shutdown. Pending jobs ahead of the shutdown command still run.
    pub fn shutdown(&self) {
        let _ = self.tx.send(Command::Shutdown);
    }

    /// Register an extra service on a running SeD.
    pub fn add_service(&self, desc: ProfileDesc, solve: SolveFn) -> Result<(), DietError> {
        self.table.write().add(desc, solve)
    }

    /// Fetch previously retained persistent data by id (`service#index`).
    pub fn persistent_data(&self, id: &str) -> Result<DietValue, DietError> {
        self.datamgr.get(id)
    }

    /// Join a hierarchy-wide replica catalog: retained data is published,
    /// evicted/freed data unpublished. Call once at deployment time.
    pub fn attach_catalog(&self, catalog: Arc<ReplicaCatalog>) {
        let label = self.config.label.clone();
        let cat = catalog.clone();
        let departures = self
            .obs
            .metrics
            .counter_with("diet_data_departures_total", &[("sed", &self.config.label)]);
        self.datamgr.set_evict_hook(move |id| {
            cat.unpublish(id, &label);
            departures.inc();
        });
        *self.catalog.write() = Some(catalog);
    }

    /// The catalog this SeD participates in, if any.
    pub fn catalog(&self) -> Option<Arc<ReplicaCatalog>> {
        self.catalog.read().clone()
    }

    /// Install the SeD-to-SeD pull mechanism the worker uses for data ids it
    /// does not hold (the TCP pool in production).
    pub fn set_resolver(&self, resolver: Arc<dyn DataResolver>) {
        *self.resolver.write() = Some(resolver);
    }

    /// Seed this SeD's store with a value under an explicit id (the
    /// server-side half of the client's `store_data`), publishing to the
    /// catalog when one is attached. Returns false for volatile data.
    pub fn store_data(&self, id: &str, value: DietValue, mode: Persistence) -> bool {
        let size = value.payload_bytes();
        let cks = dagda::checksum(&value);
        let ok = self.datamgr.retain(id, value, mode);
        if ok {
            if let Some(cat) = self.catalog.read().as_ref() {
                cat.publish(id, &self.config.label, size, cks);
            }
        }
        ok
    }
}

/// Pull `id` from the SeD the catalog says holds it, verify the checksum,
/// and retain the replica locally (as `Persistent` — only the origin's pin
/// applies). Any gap in the chain — no catalog, no resolver, no replica, a
/// transfer failure, a checksum mismatch — degrades to `DataNotFound`, which
/// the client answers by re-shipping the value inline.
fn pull_from_owner(
    dm: &DataManager,
    catalog: &RwLock<Option<Arc<ReplicaCatalog>>>,
    resolver: &RwLock<Option<Arc<dyn DataResolver>>>,
    self_label: &str,
    id: &str,
) -> Result<DietValue, DietError> {
    let cat = catalog
        .read()
        .clone()
        .ok_or_else(|| DietError::DataNotFound(id.to_string()))?;
    let rep = cat
        .locate(id)
        .filter(|r| r.sed != self_label)
        .ok_or_else(|| DietError::DataNotFound(id.to_string()))?;
    let res = resolver
        .read()
        .clone()
        .ok_or_else(|| DietError::DataNotFound(id.to_string()))?;
    let (value, _origin_mode) = res
        .fetch(&rep.sed, id)
        .map_err(|_| DietError::DataNotFound(id.to_string()))?;
    if dagda::checksum(&value) != rep.checksum {
        return Err(DietError::DataNotFound(id.to_string()));
    }
    if dm.retain(id, value.clone(), Persistence::Persistent) {
        cat.publish(id, self_label, value.payload_bytes(), rep.checksum);
    }
    Ok(value)
}

/// Retain every non-null PERSISTENT/STICKY argument of a completed profile
/// under the id `service#index` — the data-manager side of a solve.
pub fn retain_persistent_args(dm: &DataManager, profile: &Profile) {
    retain_and_publish(dm, None, "", profile, &[]);
}

/// [`retain_persistent_args`] plus catalog publication; `skip` holds arg
/// indices already resident under their own data-ref id.
pub fn retain_and_publish(
    dm: &DataManager,
    catalog: Option<&ReplicaCatalog>,
    sed_label: &str,
    profile: &Profile,
    skip: &[usize],
) {
    for (i, (v, m)) in profile.values.iter().zip(&profile.persistence).enumerate() {
        if skip.contains(&i) || matches!(v, DietValue::Null) || *m == Persistence::Volatile {
            continue;
        }
        let id = format!("{}#{}", profile.service, i);
        if dm.retain(&id, v.clone(), *m) {
            if let Some(cat) = catalog {
                cat.publish(&id, sed_label, v.payload_bytes(), dagda::checksum(v));
            }
        }
    }
}

/// The dag-tagged variant of [`retain_and_publish`]: a workflow node's
/// outputs are the *only* copy of its intermediates on the grid, so every
/// non-null argument is retained — VOLATILE upgraded to PERSISTENT — under
/// the tagged id (`svc@d<dag>.n<node>#index`). `skip` holds arg indices
/// that arrived as refs and are already resident under their own id.
pub fn publish_all_tagged(
    dm: &DataManager,
    catalog: Option<&ReplicaCatalog>,
    sed_label: &str,
    profile: &Profile,
    skip: &[usize],
) {
    for (i, v) in profile.values.iter().enumerate() {
        if skip.contains(&i) || matches!(v, DietValue::Null) {
            continue;
        }
        let id = format!("{}#{}", profile.service, i);
        if dm.retain(&id, v.clone(), Persistence::Persistent) {
            if let Some(cat) = catalog {
                cat.publish(&id, sed_label, v.payload_bytes(), dagda::checksum(v));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::data::Persistence;
    use crate::profile::{ArgTag, ProfileDesc};

    /// A toy service: doubles an i32 (arg 0 IN, arg 1 OUT).
    fn doubler_table() -> ServiceTable {
        let mut d = ProfileDesc::alloc("double", 0, 0, 1);
        d.set_arg(0, ArgTag::Scalar).unwrap();
        d.set_arg(1, ArgTag::Scalar).unwrap();
        let solve: SolveFn = Arc::new(|p: &mut Profile| {
            let x = p.get_i32(0)?;
            p.set(1, DietValue::ScalarI32(2 * x), Persistence::Volatile)?;
            Ok(0)
        });
        let mut t = ServiceTable::init(10);
        t.add(d, solve).unwrap();
        t
    }

    fn call(sed: &SedHandle, x: i32) -> SolveOutcome {
        let d = ProfileDesc::alloc("double", 0, 0, 1);
        let mut p = Profile::alloc(&d);
        p.set(0, DietValue::ScalarI32(x), Persistence::Volatile)
            .unwrap();
        sed.submit(p).unwrap().recv().unwrap()
    }

    #[test]
    fn solve_roundtrip() {
        let sed = SedHandle::spawn(SedConfig::new("test/0", 1.0), doubler_table());
        let out = call(&sed, 21);
        let p = out.result.unwrap();
        assert_eq!(p.get_i32(1).unwrap(), 42);
        assert!(out.solve_time >= 0.0);
        sed.shutdown();
    }

    #[test]
    fn jobs_run_serially_in_order() {
        // A slow service records execution order.
        let log = Arc::new(parking_lot::Mutex::new(Vec::new()));
        let log2 = log.clone();
        let mut d = ProfileDesc::alloc("slow", 0, 0, 1);
        d.set_arg(0, ArgTag::Scalar).unwrap();
        let solve: SolveFn = Arc::new(move |p: &mut Profile| {
            let x = p.get_i32(0)?;
            std::thread::sleep(std::time::Duration::from_millis(20));
            log2.lock().push(x);
            p.set(1, DietValue::ScalarI32(x), Persistence::Volatile)?;
            Ok(0)
        });
        let mut t = ServiceTable::init(4);
        t.add(d.clone(), solve).unwrap();
        let sed = SedHandle::spawn(SedConfig::new("test/1", 1.0), t);

        let mut receivers = Vec::new();
        for x in 0..4 {
            let mut p = Profile::alloc(&d);
            p.set(0, DietValue::ScalarI32(x), Persistence::Volatile)
                .unwrap();
            receivers.push(sed.submit(p).unwrap());
        }
        // While running, queue length reflects backlog.
        assert!(sed.queue_length() >= 1);
        for r in receivers {
            r.recv().unwrap().result.unwrap();
        }
        assert_eq!(*log.lock(), vec![0, 1, 2, 3]);
        assert_eq!(sed.queue_length(), 0);
        assert_eq!(sed.completed(), 4);
        sed.shutdown();
    }

    #[test]
    fn later_jobs_accumulate_queue_wait() {
        let mut d = ProfileDesc::alloc("slow", 0, 0, 0);
        d.set_arg(0, ArgTag::Scalar).unwrap();
        let solve: SolveFn = Arc::new(|_p: &mut Profile| {
            std::thread::sleep(std::time::Duration::from_millis(30));
            Ok(0)
        });
        let mut t = ServiceTable::init(2);
        t.add(d.clone(), solve).unwrap();
        let sed = SedHandle::spawn(SedConfig::new("test/2", 1.0), t);
        let mk = || {
            let mut p = Profile::alloc(&d);
            p.set(0, DietValue::ScalarI32(0), Persistence::Volatile)
                .unwrap();
            p
        };
        let r1 = sed.submit(mk()).unwrap();
        let r2 = sed.submit(mk()).unwrap();
        let o1 = r1.recv().unwrap();
        let o2 = r2.recv().unwrap();
        assert!(
            o2.queue_wait > o1.queue_wait + 0.02,
            "second job should wait behind the first: {} vs {}",
            o2.queue_wait,
            o1.queue_wait
        );
        sed.shutdown();
    }

    #[test]
    fn nonzero_status_becomes_solve_failed() {
        let mut d = ProfileDesc::alloc("fail", 0, 0, 0);
        d.set_arg(0, ArgTag::Scalar).unwrap();
        let solve: SolveFn = Arc::new(|_| Ok(7));
        let mut t = ServiceTable::init(1);
        t.add(d.clone(), solve).unwrap();
        let sed = SedHandle::spawn(SedConfig::new("test/3", 1.0), t);
        let mut p = Profile::alloc(&d);
        p.set(0, DietValue::ScalarI32(0), Persistence::Volatile)
            .unwrap();
        let out = sed.submit(p).unwrap().recv().unwrap();
        assert!(matches!(
            out.result,
            Err(DietError::SolveFailed { status: 7, .. })
        ));
        sed.shutdown();
    }

    #[test]
    fn invalid_profile_rejected_by_validation() {
        let sed = SedHandle::spawn(SedConfig::new("test/4", 1.0), doubler_table());
        let d = ProfileDesc::alloc("double", 0, 0, 1);
        let p = Profile::alloc(&d); // IN arg left Null
        let out = sed.submit(p).unwrap().recv().unwrap();
        assert!(matches!(out.result, Err(DietError::ProfileMismatch { .. })));
        sed.shutdown();
    }

    #[test]
    fn unknown_service_rejected() {
        let sed = SedHandle::spawn(SedConfig::new("test/5", 1.0), doubler_table());
        let d = ProfileDesc::alloc("nope", -1, -1, 0);
        let p = Profile::alloc(&d);
        let out = sed.submit(p).unwrap().recv().unwrap();
        assert!(matches!(out.result, Err(DietError::ServiceNotFound(_))));
        sed.shutdown();
    }

    #[test]
    fn estimates_reflect_declared_services_and_load() {
        let sed = SedHandle::spawn(SedConfig::new("test/6", 1.15), doubler_table());
        assert!(sed.estimate("nope").is_none());
        let e = sed.estimate("double").unwrap();
        assert_eq!(e.server, "test/6");
        assert!((e.speed_factor - 1.15).abs() < 1e-12);
        assert_eq!(e.queue_length, 0);
        assert_eq!(e.known_mean_duration, None);
        // After a call the mean duration is known.
        call(&sed, 1);
        let e = sed.estimate("double").unwrap();
        assert!(e.known_mean_duration.is_some());
        assert_eq!(e.completed, 1);
        sed.shutdown();
    }

    #[test]
    fn shutdown_stops_worker_but_queued_jobs_finish() {
        let sed = SedHandle::spawn(SedConfig::new("test/7", 1.0), doubler_table());
        let d = ProfileDesc::alloc("double", 0, 0, 1);
        let mut p = Profile::alloc(&d);
        p.set(0, DietValue::ScalarI32(5), Persistence::Volatile)
            .unwrap();
        let r = sed.submit(p).unwrap();
        sed.shutdown();
        // The queued job still completes (shutdown is behind it in the queue).
        let out = r.recv().unwrap();
        assert_eq!(out.result.unwrap().get_i32(1).unwrap(), 10);
    }

    #[test]
    fn persistent_out_args_are_retained_on_the_server() {
        // A service producing a PERSISTENT OUT value: after the call the
        // data survives on the SeD under "service#index" while volatile
        // arguments are not retained.
        let mut d = ProfileDesc::alloc("makeic", 0, 0, 1);
        d.set_arg(0, ArgTag::Scalar).unwrap();
        let solve: SolveFn = Arc::new(|p: &mut Profile| {
            let x = p.get_i32(0)?;
            p.set(1, DietValue::vec_i32(vec![x; 4]), Persistence::Persistent)?;
            Ok(0)
        });
        let mut t = ServiceTable::init(1);
        t.add(d.clone(), solve).unwrap();
        let sed = SedHandle::spawn(SedConfig::new("dm/0", 1.0), t);

        let mut p = Profile::alloc(&d);
        p.set(0, DietValue::ScalarI32(7), Persistence::Volatile)
            .unwrap();
        let out = sed.submit(p).unwrap().recv().unwrap();
        out.result.unwrap();

        // The OUT vector persisted; the volatile IN scalar did not.
        assert_eq!(
            sed.persistent_data("makeic#1").unwrap(),
            DietValue::vec_i32(vec![7; 4])
        );
        assert!(sed.persistent_data("makeic#0").is_err());
        assert_eq!(sed.datamgr.len(), 1);
        sed.shutdown();
    }

    /// A service summing an i32 vector arriving via arg 0 (IN), result in
    /// arg 1 (OUT) — used by the data-ref tests.
    fn summer_table() -> ServiceTable {
        let mut d = ProfileDesc::alloc("sum", 0, 0, 1);
        d.set_arg(0, ArgTag::Vector).unwrap();
        d.set_arg(1, ArgTag::Scalar).unwrap();
        let solve: SolveFn = Arc::new(|p: &mut Profile| {
            let total = match &p.values[0] {
                DietValue::VectorI32(v) => v.iter().sum::<i32>(),
                other => {
                    return Err(DietError::Rejected(format!(
                        "expected vector, got {}",
                        other.type_name()
                    )))
                }
            };
            p.set(1, DietValue::ScalarI32(total), Persistence::Volatile)?;
            Ok(0)
        });
        let mut t = ServiceTable::init(1);
        t.add(d, solve).unwrap();
        t
    }

    fn sum_ref_profile(id: &str) -> Profile {
        let d = ProfileDesc::alloc("sum", 0, 0, 1);
        let mut p = Profile::alloc(&d);
        p.set(0, DietValue::data_ref(id), Persistence::Persistent)
            .unwrap();
        p
    }

    #[test]
    fn data_ref_resolves_from_the_local_store() {
        let sed = SedHandle::spawn(SedConfig::new("ref/0", 1.0), summer_table());
        let cat = Arc::new(ReplicaCatalog::new());
        sed.attach_catalog(cat.clone());
        assert!(sed.store_data(
            "nums",
            DietValue::vec_i32(vec![1, 2, 3]),
            Persistence::Persistent
        ));
        assert_eq!(cat.holders("nums"), vec!["ref/0"]);

        let out = sed.submit(sum_ref_profile("nums")).unwrap().recv().unwrap();
        let p = out.result.unwrap();
        assert_eq!(p.get_i32(1).unwrap(), 6);
        // The reply carries the ref back, not the payload.
        assert_eq!(p.values[0].as_data_ref(), Some("nums"));
        sed.shutdown();
    }

    #[test]
    fn unresolvable_data_ref_is_data_not_found() {
        let sed = SedHandle::spawn(SedConfig::new("ref/1", 1.0), summer_table());
        let out = sed
            .submit(sum_ref_profile("ghost"))
            .unwrap()
            .recv()
            .unwrap();
        assert!(matches!(out.result, Err(DietError::DataNotFound(_))));
        sed.shutdown();
    }

    /// In-process resolver: fetches straight out of other SeDs' stores.
    struct MapResolver(HashMap<String, Arc<DataManager>>);

    impl DataResolver for MapResolver {
        fn fetch(&self, sed: &str, id: &str) -> Result<(DietValue, Persistence), DietError> {
            self.0
                .get(sed)
                .ok_or_else(|| DietError::Transport(format!("no such sed {sed}")))?
                .get_with_mode(id)
        }
    }

    #[test]
    fn data_ref_pulls_sed_to_sed_through_the_catalog() {
        let owner = SedHandle::spawn(SedConfig::new("owner", 1.0), summer_table());
        let exec = SedHandle::spawn(SedConfig::new("exec", 1.0), summer_table());
        let cat = Arc::new(ReplicaCatalog::new());
        owner.attach_catalog(cat.clone());
        exec.attach_catalog(cat.clone());
        exec.set_resolver(Arc::new(MapResolver(HashMap::from([(
            "owner".to_string(),
            owner.datamgr.clone(),
        )]))));
        owner.store_data(
            "nums",
            DietValue::vec_i32(vec![5; 10]),
            Persistence::Persistent,
        );

        // The executing SeD holds nothing; the solve still succeeds by
        // pulling from the owner, and the replica is now catalogued on both.
        let out = exec
            .submit(sum_ref_profile("nums"))
            .unwrap()
            .recv()
            .unwrap();
        assert_eq!(out.result.unwrap().get_i32(1).unwrap(), 50);
        assert!(exec.datamgr.contains("nums"));
        assert_eq!(cat.holders("nums"), vec!["exec", "owner"]);

        // Owner dies: the catalog forgets its replicas, but exec still
        // serves from its own copy.
        cat.drop_sed("owner");
        assert_eq!(cat.holders("nums"), vec!["exec"]);
        let out = exec
            .submit(sum_ref_profile("nums"))
            .unwrap()
            .recv()
            .unwrap();
        assert_eq!(out.result.unwrap().get_i32(1).unwrap(), 50);
        owner.shutdown();
        exec.shutdown();
    }

    #[test]
    fn eviction_unpublishes_from_the_catalog() {
        let sed = SedHandle::spawn(SedConfig::new("evict/0", 1.0), summer_table());
        let cat = Arc::new(ReplicaCatalog::new());
        // Bounded store: 2 × 40-byte vectors fit, the third evicts the LRU.
        let dm = &sed.datamgr;
        assert!(dm.capacity().is_none());
        sed.attach_catalog(cat.clone());
        sed.store_data(
            "a",
            DietValue::vec_i32(vec![0; 10]),
            Persistence::Persistent,
        );
        sed.datamgr.free("a").unwrap();
        assert!(cat.locate("a").is_none(), "free must unpublish");
        sed.shutdown();
    }

    #[test]
    fn attached_probe_feeds_estimates() {
        use crate::probe::{HostReport, StaticProbe};
        let sed = SedHandle::spawn(SedConfig::new("probe/0", 1.0), doubler_table());
        let before = sed.estimate("double").unwrap();
        assert_eq!(before.free_memory, sed.config.free_memory);
        sed.set_probe(Arc::new(StaticProbe(HostReport {
            load1: 1.0,
            free_memory: 12345,
            total_memory: 99999,
        })));
        let after = sed.estimate("double").unwrap();
        assert_eq!(after.free_memory, 12345);
        sed.shutdown();
    }

    #[test]
    fn is_alive_tracks_worker_lifetime() {
        let sed = SedHandle::spawn(SedConfig::new("alive/0", 1.0), doubler_table());
        assert!(sed.is_alive());
        sed.shutdown();
        // The worker drains and flips the flag.
        for _ in 0..200 {
            if !sed.is_alive() {
                break;
            }
            std::thread::sleep(std::time::Duration::from_millis(2));
        }
        assert!(!sed.is_alive());
        // Dead SeDs stop producing estimates.
        assert!(sed.estimate("double").is_none());
    }

    #[test]
    fn ping_answers_pong_until_shutdown() {
        let sed = SedHandle::spawn(SedConfig::new("ping/0", 1.0), doubler_table());
        assert!(sed.ping(Duration::from_secs(1)));
        sed.shutdown();
        for _ in 0..200 {
            if !sed.is_alive() {
                break;
            }
            std::thread::sleep(Duration::from_millis(2));
        }
        assert!(!sed.ping(Duration::from_millis(100)));
    }

    #[test]
    fn kill_at_request_abandons_job_and_flips_alive() {
        let sed = SedHandle::spawn(SedConfig::new("kill/0", 1.0), doubler_table());
        sed.faults().kill_at_request(2);
        // First request survives.
        assert_eq!(call(&sed, 1).result.unwrap().get_i32(1).unwrap(), 2);
        // Second request kills the worker: the reply channel disconnects.
        let d = ProfileDesc::alloc("double", 0, 0, 1);
        let mut p = Profile::alloc(&d);
        p.set(0, DietValue::ScalarI32(9), Persistence::Volatile)
            .unwrap();
        let rx = sed.submit(p).unwrap();
        assert!(rx.recv().is_err(), "killed worker must not reply");
        for _ in 0..200 {
            if !sed.is_alive() {
                break;
            }
            std::thread::sleep(Duration::from_millis(2));
        }
        assert!(!sed.is_alive());
        assert!(sed.estimate("double").is_none());
    }

    #[test]
    fn dropped_replies_are_counted() {
        let sed = SedHandle::spawn(SedConfig::new("drop/0", 1.0), doubler_table());
        sed.faults().set_drop_replies(true);
        let d = ProfileDesc::alloc("double", 0, 0, 1);
        let mut p = Profile::alloc(&d);
        p.set(0, DietValue::ScalarI32(4), Persistence::Volatile)
            .unwrap();
        let rx = sed.submit(p).unwrap();
        assert!(rx.recv_timeout(Duration::from_millis(300)).is_err());
        assert_eq!(sed.reply_failures(), 1);
        // The solve itself still completed.
        assert_eq!(sed.completed(), 1);
        sed.shutdown();
    }

    #[test]
    fn abandoned_receiver_counts_as_reply_failure() {
        // The solve is slow enough that the client's hang-up (dropping the
        // receiver) always lands before the worker tries to reply.
        let mut d = ProfileDesc::alloc("slow", 0, 0, 1);
        d.set_arg(0, ArgTag::Scalar).unwrap();
        let solve: SolveFn = Arc::new(|p: &mut Profile| {
            std::thread::sleep(Duration::from_millis(100));
            let x = p.get_i32(0)?;
            p.set(1, DietValue::ScalarI32(x), Persistence::Volatile)?;
            Ok(0)
        });
        let mut t = ServiceTable::init(1);
        t.add(d.clone(), solve).unwrap();
        let sed = SedHandle::spawn(SedConfig::new("aband/0", 1.0), t);
        let mut p = Profile::alloc(&d);
        p.set(0, DietValue::ScalarI32(4), Persistence::Volatile)
            .unwrap();
        drop(sed.submit(p).unwrap()); // client hangs up immediately
        let deadline = Instant::now() + Duration::from_secs(10);
        while sed.reply_failures() == 0 && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(5));
        }
        assert_eq!(sed.reply_failures(), 1);
        sed.shutdown();
    }

    #[test]
    fn service_table_renders_and_limits() {
        let t = doubler_table();
        let s = t.render();
        assert!(s.contains("double"));
        assert!(s.contains("last_out=1"));

        let mut small = ServiceTable::init(1);
        let d1 = ProfileDesc::alloc("a", -1, -1, 0);
        let d2 = ProfileDesc::alloc("b", -1, -1, 0);
        let nop: SolveFn = Arc::new(|_| Ok(0));
        small.add(d1, nop.clone()).unwrap();
        assert!(small.add(d2, nop).is_err());
    }

    #[test]
    fn traced_submit_records_queued_and_execution_spans() {
        let obs = Arc::new(Obs::new());
        let sed =
            SedHandle::spawn_with_obs(SedConfig::new("tr/0", 1.0), doubler_table(), obs.clone());
        let ctx = TraceCtx {
            trace_id: 77,
            parent_span: 5,
        };
        let d = ProfileDesc::alloc("double", 0, 0, 1);
        let mut p = Profile::alloc(&d);
        p.set(0, DietValue::ScalarI32(2), Persistence::Volatile)
            .unwrap();
        sed.submit_traced(p, ctx)
            .unwrap()
            .recv()
            .unwrap()
            .result
            .unwrap();
        let spans = obs.tracer.snapshot();
        let names: Vec<&str> = spans.iter().map(|s| s.name).collect();
        assert!(names.contains(&"Queued"), "spans: {names:?}");
        assert!(names.contains(&"Execution"), "spans: {names:?}");
        for s in &spans {
            assert_eq!(s.trace_id, 77);
            assert_eq!(s.parent, 5);
            assert_eq!(s.resource, "tr/0");
        }
        // Untraced submits record no spans...
        let before = spans.len();
        call(&sed, 1);
        assert_eq!(obs.tracer.snapshot().len(), before);
        // ...but still feed the metrics registry.
        assert_eq!(obs.metrics.counter_value("diet_sed_solves_total"), 2);
        assert!(obs
            .metrics
            .render_prometheus()
            .contains("diet_sed_solve_seconds_bucket{sed=\"tr/0\""));
        sed.shutdown();
    }

    #[test]
    fn admission_limit_reflected_in_estimate_and_admits() {
        let cfg = SedConfig::new("adm/0", 1.0).with_admission_limit(2);
        let sed = SedHandle::spawn(cfg, doubler_table());
        assert!(sed.admits());
        let e = sed.estimate("double").unwrap();
        assert_eq!(e.admission_limit, Some(2));
        assert!(!e.is_saturated());
        // Unbounded SeDs always admit.
        let open = SedHandle::spawn(SedConfig::new("adm/1", 1.0), doubler_table());
        assert!(open.admits());
        assert_eq!(open.estimate("double").unwrap().admission_limit, None);
        sed.shutdown();
        open.shutdown();
    }

    #[test]
    fn add_service_on_running_sed() {
        let sed = SedHandle::spawn(SedConfig::new("test/8", 1.0), doubler_table());
        let mut d = ProfileDesc::alloc("triple", 0, 0, 1);
        d.set_arg(0, ArgTag::Scalar).unwrap();
        sed.add_service(
            d.clone(),
            Arc::new(|p: &mut Profile| {
                let x = p.get_i32(0)?;
                p.set(1, DietValue::ScalarI32(3 * x), Persistence::Volatile)?;
                Ok(0)
            }),
        )
        .unwrap();
        let mut p = Profile::alloc(&d);
        p.set(0, DietValue::ScalarI32(3), Persistence::Volatile)
            .unwrap();
        let out = sed.submit(p).unwrap().recv().unwrap();
        assert_eq!(out.result.unwrap().get_i32(1).unwrap(), 9);
        sed.shutdown();
    }
}

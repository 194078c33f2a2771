//! The client API.
//!
//! "In the DIET architecture, a client is an application which uses DIET to
//! request a service. The goal of the client is to connect to a Master Agent
//! in order to dispose of a SeD which will be able to solve the problem.
//! Then the client sends input data to the chosen SED and, after the end of
//! computation, retrieve output data."
//!
//! The API follows the GridRPC shape the paper highlights:
//! `initialize` / `call` / `async_call` + wait / `finalize`, with per-call
//! measurements of *finding time* (MA traversal) and *latency* (data send +
//! service initiation + queue wait) — the two quantities of Figure 5.

use crate::agent::{MasterAgent, Placement};
use crate::dag::{DagEventRec, DagOutcome, WorkflowSpec};
use crate::data::{DietValue, Persistence};
use crate::error::DietError;
use crate::hierarchy::RemoteAgentClient;
use crate::profile::Profile;
use crate::sed::SolveOutcome;
use crate::transport::TcpSedPool;
use obs::{Obs, TraceCtx, Tracer};
use std::collections::HashMap;
use std::sync::mpsc::{Receiver, RecvTimeoutError, TryRecvError};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Per-call measurements — the client-side view the paper instruments.
#[derive(Debug, Clone, Copy, Default)]
pub struct CallStats {
    /// Time for the MA to return a suitable SeD ("finding time").
    pub finding: f64,
    /// Client → SeD submission (data send) time.
    pub send: f64,
    /// Time the request waited in the SeD queue before starting.
    pub queue_wait: f64,
    /// Solve execution time on the SeD.
    pub solve: f64,
    /// End-to-end wall time of the call.
    pub total: f64,
    /// How many times the call was resubmitted through the MA after a
    /// failed attempt (0 = first attempt succeeded).
    pub retries: u32,
    /// Trace id of this call (0 when the path was untraced). One id spans
    /// every attempt of the call, including resubmissions to other SeDs.
    pub trace_id: u64,
}

impl CallStats {
    /// The paper's "latency": everything between submission and the start of
    /// service execution (data transfer + initiation + queue wait).
    pub fn latency(&self) -> f64 {
        self.send + self.queue_wait
    }

    /// Middleware overhead excluding queue wait (finding + send) — the
    /// ≈70 ms/request quantity of Section 5.2.
    pub fn overhead(&self) -> f64 {
        self.finding + self.send
    }
}

/// Handle to a workflow DAG admitted by a remote MA's engine
/// ([`DietClient::submit_dag`]): the engine-assigned dag id plus the
/// workflow trace id every node span stitches under.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DagHandle {
    pub dag_id: u64,
    pub trace_id: u64,
}

/// Per-call fault-tolerance knobs for the retrying calls —
/// [`DietClient::call_with_retry`], [`DietClient::call_over_tcp`] and
/// [`DietClient::call_distributed`] — for one dispatch round of the
/// jobserver and for one launch of a DAG node, all of which run the same
/// retry loop.
#[derive(Debug, Clone, Copy)]
pub struct RetryPolicy {
    /// Deadline for each individual attempt (send + queue + solve).
    pub attempt_timeout: Duration,
    /// How many times to resubmit after the first attempt fails.
    pub max_retries: u32,
    /// First backoff delay; doubles per retry.
    pub backoff_base: Duration,
    /// Upper bound on any single backoff delay.
    pub backoff_cap: Duration,
    /// Fraction of each backoff randomised away (0.0 = deterministic,
    /// 0.5 = sleep anywhere in [0.5·backoff, backoff]). Jitter decorrelates
    /// clients that were all told `Busy` at the same instant, so the
    /// retries do not arrive as a synchronised second stampede.
    pub jitter: f64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            attempt_timeout: Duration::from_secs(2),
            max_retries: 3,
            backoff_base: Duration::from_millis(25),
            backoff_cap: Duration::from_secs(1),
            jitter: 0.0,
        }
    }
}

impl RetryPolicy {
    /// Bounded exponential backoff before retry number `retry` (0-based):
    /// `base · 2^retry`, capped.
    pub fn backoff(&self, retry: u32) -> Duration {
        let factor = 1u32.checked_shl(retry).unwrap_or(u32::MAX);
        self.backoff_base
            .checked_mul(factor)
            .map_or(self.backoff_cap, |d| d.min(self.backoff_cap))
    }

    /// [`backoff`](Self::backoff) scaled into `[1 - jitter, 1]` of itself by
    /// a deterministic hash of `(salt, retry)` — reproducible for a given
    /// call (the salt is its trace id) yet decorrelated across calls.
    pub fn backoff_jittered(&self, retry: u32, salt: u64) -> Duration {
        let d = self.backoff(retry);
        if self.jitter <= 0.0 {
            return d;
        }
        // splitmix64-style scramble: cheap, stateless, well distributed.
        let mut x = salt.wrapping_add(0x9E37_79B9_7F4A_7C15u64.wrapping_mul(retry as u64 + 1));
        x ^= x >> 30;
        x = x.wrapping_mul(0xBF58_476D_1CE4_E5B9);
        x ^= x >> 27;
        x = x.wrapping_mul(0x94D0_49BB_1331_11EB);
        x ^= x >> 31;
        let unit = (x >> 11) as f64 / (1u64 << 53) as f64; // [0, 1)
        let scale = 1.0 - self.jitter.clamp(0.0, 1.0) * unit;
        Duration::from_secs_f64(d.as_secs_f64() * scale)
    }
}

/// Is this failure worth resubmitting elsewhere? Transport losses and
/// deadline expiries are; application-level failures (bad profile, solve
/// status) would fail identically on any server.
pub(crate) fn is_retryable(e: &DietError) -> bool {
    matches!(e, DietError::Transport(_) | DietError::Timeout { .. })
}

/// Did finding come back empty? Over the wire an MA answers no label at
/// all, so an unknown service and a momentarily unavailable one look the
/// same; both routes treat both as a miss worth a backed-off retry.
fn is_finding_miss(e: &DietError) -> bool {
    matches!(
        e,
        DietError::NoServerAvailable(_) | DietError::ServiceNotFound(_)
    )
}

/// Did the attempt fail because a referenced grid-data item could not be
/// found anywhere (its holders evicted it or died)? Over TCP the SeD's
/// `DataNotFound` travels back as a rejection string, so match the display
/// text too.
fn is_data_not_found(e: &DietError) -> bool {
    match e {
        DietError::DataNotFound(_) => true,
        DietError::Rejected(msg) => msg.contains("persistent data not found"),
        _ => false,
    }
}

/// Where a call's finding phase runs: the in-process [`MasterAgent`] or a
/// remote MA process behind a [`RemoteAgentClient`].
pub(crate) trait Route {
    /// What finding hands the data path: a placement or a SeD label.
    type Target;
    /// One finding phase. `data_ids` feed data-aware scheduling where the
    /// route can carry them (the `Submit` frame cannot).
    fn find(
        &self,
        service: &str,
        data_ids: &[String],
        exclude: &[String],
        ctx: TraceCtx,
    ) -> Result<Self::Target, DietError>;
    fn label(target: &Self::Target) -> &str;
    /// How an attempt on `target` went: `ok` for a served call, not for a
    /// transport fault or timeout, which blames it.
    fn report(&self, target: &Self::Target, ok: bool);
}

impl Route for MasterAgent {
    type Target = Placement;
    fn find(
        &self,
        service: &str,
        data_ids: &[String],
        exclude: &[String],
        ctx: TraceCtx,
    ) -> Result<Placement, DietError> {
        self.schedule(service, data_ids, exclude, ctx)
    }
    fn label(placed: &Placement) -> &str {
        &placed.label
    }
    /// A served call clears the SeD's strikes. A SeD behind a remote agent
    /// is left to that agent's heartbeats.
    fn report(&self, placed: &Placement, ok: bool) {
        let Some(sed) = &placed.sed else { return };
        if ok {
            self.strikes.lock().hit(&placed.label);
        } else {
            self.report_failure(sed);
        }
    }
}

impl Route for RemoteAgentClient {
    type Target = String;
    fn find(
        &self,
        service: &str,
        _data_ids: &[String],
        exclude: &[String],
        ctx: TraceCtx,
    ) -> Result<String, DietError> {
        self.submit(service, exclude, ctx)?
            .ok_or_else(|| DietError::NoServerAvailable(service.to_string()))
    }
    fn label(label: &String) -> &str {
        label
    }
    /// A remote MA learns about dead SeDs from its own heartbeats.
    fn report(&self, _: &String, _: bool) {}
}

/// How a retry loop ended: the solved profile, its stats and the target
/// that served it — or the error that stopped it.
pub(crate) type Routed<T> = Result<(Profile, CallStats, T), DietError>;

/// What a retrying call did besides its result — the caller's counters.
#[derive(Debug, Default)]
pub(crate) struct Tally {
    pub retries: u64,
    pub busy: u64,
    pub reships: u64,
}

/// The one retry loop under every GridRPC call: find a SeD over `route`,
/// run `attempt` against it, classify what went wrong, back off, repeat —
/// at most `policy.max_retries` times after the first attempt.
///
/// `attempt` runs one bounded attempt and returns
/// `(out_profile, queue_wait, solve_time)`; `reship` puts the request's
/// referenced payloads back on a target that lost them and says whether it
/// could. The loop owns backoff (jittered, salted by the trace id), the
/// exclusion list (seeded with `exclude`), error classification, re-ship,
/// and the trace: with a `tracer`, every attempt is an `attempt` span under
/// `parent` with `Finding` and `Submission` windows, so a failed attempt
/// still leaves its footprint; without one, `parent` itself goes down to
/// the agents and the SeD. The caller owns metrics, history and outcomes,
/// from the result and the [`Tally`].
#[allow(clippy::too_many_arguments)]
pub(crate) fn retry_loop<R: Route>(
    route: &R,
    tracer: Option<&Tracer>,
    parent: TraceCtx,
    profile: &Profile,
    policy: &RetryPolicy,
    mut exclude: Vec<String>,
    mut attempt: impl FnMut(&R::Target, Profile, TraceCtx) -> Result<(Profile, f64, f64), DietError>,
    reship: impl Fn(&R::Target, &[String]) -> bool,
) -> (Routed<R::Target>, Tally) {
    let issued = Instant::now();
    let trace_id = parent.trace_id;
    let data_ids = profile.data_ref_ids();
    let mut tally = Tally::default();
    let mut finding = 0.0;
    let mut last_err = None;
    for attempt_no in 0..=policy.max_retries {
        if attempt_no > 0 {
            std::thread::sleep(policy.backoff_jittered(attempt_no - 1, trace_id));
            tally.retries += 1;
        }
        let span = tracer.map(|t| t.span(trace_id, parent.parent_span, "attempt", "client"));
        let ctx = span.as_ref().map_or(parent, |s| s.ctx());
        let now_ns = || tracer.map_or(0, |t| t.now_ns());
        let window = |name, resource: &str, start_ns, end_ns| {
            if let Some(t) = tracer {
                t.record_window(trace_id, ctx.parent_span, name, resource, start_ns, end_ns);
            }
        };
        let finding_start_ns = now_ns();
        let t0 = Instant::now();
        let target = match route.find(&profile.service, &data_ids, &exclude, ctx) {
            Ok(target) => target,
            Err(e) => {
                // Busy agents, lost hops and empty findings may all clear
                // by the next attempt; anything else would not.
                if e == DietError::Busy {
                    tally.busy += 1;
                } else if !is_finding_miss(&e) && !is_retryable(&e) {
                    return (Err(e), tally);
                }
                last_err = Some(e);
                continue;
            }
        };
        finding += t0.elapsed().as_secs_f64();
        window("Finding", "agents", finding_start_ns, now_ns());
        let label = R::label(&target);
        let submit_start_ns = now_ns();
        let t1 = Instant::now();
        match attempt(&target, profile.clone(), ctx) {
            Ok((out, queue_wait, solve)) => {
                let send = (t1.elapsed().as_secs_f64() - queue_wait - solve).max(0.0);
                // Retroactive: the data-shipping slice of the attempt
                // window, excluding remote queueing and execution.
                let submit_end_ns = submit_start_ns + (send * 1e9) as u64;
                window("Submission", label, submit_start_ns, submit_end_ns);
                drop(span);
                route.report(&target, true);
                let stats = CallStats {
                    finding,
                    send,
                    queue_wait,
                    solve,
                    total: issued.elapsed().as_secs_f64(),
                    retries: attempt_no,
                    trace_id,
                };
                return (Ok((out, stats, target)), tally);
            }
            // Every holder of a referenced item evicted it or died. The SeD
            // itself is healthy (no blame, no exclusion): with the payloads
            // re-hosted and re-published there, the next attempt finds them.
            Err(e) if is_data_not_found(&e) && reship(&target, &data_ids) => {
                tally.reships += 1;
                last_err = Some(e);
            }
            // Admission control pushed back: the SeD is healthy, its queue
            // is just full. Back off (jittered, so a herd of rejected
            // clients de-synchronises) without blaming or excluding it.
            Err(DietError::Busy) => {
                tally.busy += 1;
                last_err = Some(DietError::Busy);
            }
            Err(e) if is_retryable(&e) => {
                // The time sunk shipping data to a SeD that never replied.
                window("Submission", label, submit_start_ns, now_ns());
                route.report(&target, false);
                exclude.push(label.to_string());
                last_err = Some(e);
            }
            Err(e) => return (Err(e), tally),
        }
    }
    let exhausted = DietError::RetriesExhausted {
        service: profile.service.clone(),
        attempts: policy.max_retries + 1,
        last: last_err.map(|e| e.to_string()).unwrap_or_default(),
    };
    (Err(exhausted), tally)
}

/// One in-process attempt: admission, submit, wait up to `timeout`.
fn solve_in_process(
    placed: &Placement,
    profile: Profile,
    ctx: TraceCtx,
    timeout: Duration,
) -> Result<(Profile, f64, f64), DietError> {
    let sed = placed.handle()?;
    sed.admit()?;
    match sed.submit_traced(profile, ctx)?.recv_timeout(timeout) {
        Ok(o) => o.result.map(|p| (p, o.queue_wait, o.solve_time)),
        Err(RecvTimeoutError::Timeout) => Err(DietError::Timeout {
            after_secs: timeout.as_secs_f64(),
        }),
        Err(RecvTimeoutError::Disconnected) => {
            Err(DietError::Transport("SeD dropped the reply channel".into()))
        }
    }
}

/// Handle for an asynchronous call (the GridRPC `grpc_call_async` analog).
pub struct CallHandle {
    server: String,
    issued: Instant,
    stats: CallStats,
    rx: Receiver<SolveOutcome>,
}

impl CallHandle {
    /// Which SeD the request was mapped to.
    pub fn server(&self) -> &str {
        &self.server
    }

    /// Block until the result arrives (the `grpc_wait` analog).
    pub fn wait(self) -> Result<(Profile, CallStats), DietError> {
        let outcome = self
            .rx
            .recv()
            .map_err(|_| DietError::Transport("SeD dropped the reply channel".into()))?;
        self.finish(outcome)
    }

    /// Wait with a timeout.
    pub fn wait_timeout(self, d: Duration) -> Result<(Profile, CallStats), DietError> {
        match self.rx.recv_timeout(d) {
            Ok(outcome) => self.finish(outcome),
            Err(RecvTimeoutError::Timeout) => Err(DietError::Timeout {
                after_secs: d.as_secs_f64(),
            }),
            Err(RecvTimeoutError::Disconnected) => {
                Err(DietError::Transport("SeD dropped the reply channel".into()))
            }
        }
    }

    /// Non-blocking probe (the `grpc_probe` analog): Some when complete.
    pub fn try_wait(self) -> Result<Result<(Profile, CallStats), DietError>, CallHandle> {
        match self.rx.try_recv() {
            Ok(outcome) => Ok(self.finish(outcome)),
            Err(TryRecvError::Empty) => Err(self),
            Err(TryRecvError::Disconnected) => Ok(Err(DietError::Transport(
                "SeD dropped the reply channel".into(),
            ))),
        }
    }

    fn finish(mut self, outcome: SolveOutcome) -> Result<(Profile, CallStats), DietError> {
        self.stats.queue_wait = outcome.queue_wait;
        self.stats.solve = outcome.solve_time;
        self.stats.total = self.issued.elapsed().as_secs_f64();
        outcome.result.map(|p| (p, self.stats))
    }
}

/// A DIET client session (the `diet_initialize` … `diet_finalize` span).
pub struct DietClient {
    ma: Option<Arc<MasterAgent>>,
    /// Completed calls' stats, in completion order.
    history: parking_lot::Mutex<Vec<(String, CallStats)>>,
    /// Tracing + metrics sink for the request path.
    obs: Arc<Obs>,
    /// Payloads stored on the grid by this client, kept so a call whose
    /// reference turns up missing (every holder evicted it or died) can
    /// re-ship the data inline instead of failing.
    stored: parking_lot::Mutex<HashMap<String, DietValue>>,
}

impl DietClient {
    /// `diet_initialize(configuration_file, ...)` — the configuration here
    /// is simply the MA reference that the config file would name.
    pub fn initialize(ma: Arc<MasterAgent>) -> Self {
        Self::initialize_with_obs(ma, Arc::new(Obs::new()))
    }

    /// Like [`DietClient::initialize`] but recording into an injected
    /// observability sink — share one `Arc<Obs>` with the SeDs/MA to get a
    /// single trace covering all five request phases.
    pub fn initialize_with_obs(ma: Arc<MasterAgent>, obs: Arc<Obs>) -> Self {
        DietClient {
            ma: Some(ma),
            history: parking_lot::Mutex::new(Vec::new()),
            obs,
            stored: parking_lot::Mutex::new(HashMap::new()),
        }
    }

    /// A session with no in-process MA: every finding phase must go through
    /// a remote Master Agent process via
    /// [`call_distributed`](Self::call_distributed). The in-process entry
    /// points (`call`, `call_with_retry`, …) answer
    /// [`DietError::NotInitialized`].
    pub fn initialize_distributed(obs: Arc<Obs>) -> Self {
        DietClient {
            ma: None,
            history: parking_lot::Mutex::new(Vec::new()),
            obs,
            stored: parking_lot::Mutex::new(HashMap::new()),
        }
    }

    /// A lightweight handle to grid data previously stored with
    /// [`DietClient::store_data`]: what a profile carries instead of the
    /// payload (only the id crosses the wire).
    pub fn data_ref(&self, id: &str) -> DietValue {
        DietValue::data_ref(id)
    }

    /// Store `value` on the grid under `id` (DAGDA's `dagda_put_data`): the
    /// hosting SeD retains it and publishes a replica-catalog entry, and the
    /// client keeps a local copy for the re-ship fallback. Returns the label
    /// of the hosting SeD. `Volatile` data is refused — there is nothing to
    /// persist.
    pub fn store_data(
        &self,
        id: &str,
        value: DietValue,
        mode: Persistence,
    ) -> Result<String, DietError> {
        let ma = self.ma()?;
        let mut seds = ma.all_seds();
        seds.sort_by(|a, b| a.config.label.cmp(&b.config.label));
        let sed = seds
            .first()
            .ok_or_else(|| DietError::Rejected("no SeD to host grid data".into()))?;
        if !sed.store_data(id, value.clone(), mode) {
            return Err(DietError::Rejected(format!(
                "store_data({id}): volatile data is not retained"
            )));
        }
        self.note_stored(id, value);
        Ok(sed.config.label.clone())
    }

    /// [`DietClient::store_data`] with the data path over real TCP: ships
    /// the payload to the SeD behind `label` as a `PutData` frame.
    pub fn store_data_over_tcp(
        &self,
        pool: &TcpSedPool,
        label: &str,
        id: &str,
        value: DietValue,
        mode: Persistence,
        deadline: Duration,
    ) -> Result<(), DietError> {
        pool.put_data(label, id, value.clone(), mode, deadline)?;
        self.note_stored(id, value);
        Ok(())
    }

    fn note_stored(&self, id: &str, value: DietValue) {
        self.obs
            .metrics
            .counter("diet_client_data_stored_bytes_total")
            .add(value.payload_bytes());
        self.stored.lock().insert(id.to_string(), value);
    }

    /// Every referenced payload this client still holds, or `None` if any
    /// id is unknown here — then re-shipping cannot help.
    fn cached_payloads(&self, ids: &[String]) -> Option<Vec<(String, DietValue)>> {
        if ids.is_empty() {
            return None;
        }
        let stored = self.stored.lock();
        ids.iter()
            .map(|id| stored.get(id).map(|v| (id.clone(), v.clone())))
            .collect()
    }

    /// Repair lost grid data by re-shipping every cached payload under its
    /// original id with `ship` (so the catalog entry reappears where the
    /// next attempt will look for it). False when any id is uncached or a
    /// ship fails — the caller then surfaces the original error.
    fn try_reship(&self, ids: &[String], ship: impl Fn(&str, DietValue) -> bool) -> bool {
        let Some(payloads) = self.cached_payloads(ids) else {
            return false;
        };
        payloads.into_iter().all(|(id, v)| ship(&id, v))
    }

    /// This client's observability sink.
    pub fn obs(&self) -> Arc<Obs> {
        self.obs.clone()
    }

    /// This client's metrics registry (convenience for assertions/dumps).
    pub fn metrics(&self) -> &obs::Registry {
        &self.obs.metrics
    }

    /// The full `diet_initialize` path: parse the configuration file text,
    /// resolve its `MAName` through the name server, open the session.
    pub fn initialize_from_config(
        config_text: &str,
        names: &crate::naming::NameServer,
    ) -> Result<Self, DietError> {
        let cfg = crate::config::DietConfig::parse(config_text)?;
        let ma = names.resolve(cfg.ma_name()?)?;
        Ok(Self::initialize(ma))
    }

    fn ma(&self) -> Result<&Arc<MasterAgent>, DietError> {
        self.ma.as_ref().ok_or(DietError::NotInitialized)
    }

    /// Submit a problem asynchronously: find a SeD, ship the data, return a
    /// handle. The profile's service name selects the problem.
    pub fn async_call(&self, profile: Profile) -> Result<CallHandle, DietError> {
        let ma = self.ma()?;
        let t0 = Instant::now();
        let sed = ma.submit(&profile.service)?;
        let finding = t0.elapsed().as_secs_f64();

        let t1 = Instant::now();
        let rx = sed.submit(profile)?;
        let send = t1.elapsed().as_secs_f64();

        Ok(CallHandle {
            server: sed.config.label.clone(),
            issued: t0,
            stats: CallStats {
                finding,
                send,
                ..Default::default()
            },
            rx,
        })
    }

    /// Synchronous call (the `diet_call` analog): the profile is consumed
    /// and returned with OUT arguments filled by the server.
    pub fn call(&self, profile: Profile) -> Result<(Profile, CallStats), DietError> {
        let handle = self.async_call(profile)?;
        let server = handle.server().to_string();
        let res = handle.wait();
        if let Ok((_, stats)) = &res {
            self.history.lock().push((server, *stats));
        }
        res
    }

    /// Fault-tolerant synchronous call over the in-process path: each
    /// attempt is bounded by `policy.attempt_timeout`; on a transport
    /// failure or timeout the failed SeD is reported to the MA (which may
    /// deregister it), excluded, and the request resubmitted through the MA
    /// after a bounded exponential backoff. Application-level errors are
    /// returned immediately — retrying them elsewhere cannot help.
    pub fn call_with_retry(
        &self,
        profile: Profile,
        policy: &RetryPolicy,
    ) -> Result<(Profile, CallStats), DietError> {
        let timeout = policy.attempt_timeout;
        self.retrying(
            self.ma()?.as_ref(),
            profile,
            policy,
            |placed, p, ctx| solve_in_process(placed, p, ctx, timeout),
            |placed, id, v| {
                let mode = Persistence::Persistent;
                placed
                    .sed
                    .as_ref()
                    .is_some_and(|s| s.store_data(id, v, mode))
            },
        )
    }

    /// Fault-tolerant synchronous call where the data path runs over real
    /// TCP: finding still goes through the MA (which must share labels with
    /// `pool`'s registry), the solve goes through [`TcpSedPool::call`], and
    /// failures resubmit exactly like [`call_with_retry`](Self::call_with_retry).
    pub fn call_over_tcp(
        &self,
        pool: &TcpSedPool,
        profile: Profile,
        policy: &RetryPolicy,
    ) -> Result<(Profile, CallStats), DietError> {
        self.retrying_over(self.ma()?.as_ref(), pool, profile, policy)
    }

    /// Fault-tolerant synchronous call over the *fully distributed* path:
    /// finding goes through a remote Master Agent process (`ma`, speaking
    /// `Submit`/`SubmitReply` frames over its multiplexed connection), the
    /// solve goes directly to the chosen SeD through `pool` — the DIET
    /// shortcut where data never relays through the agents. Needs no
    /// in-process MA, so it works from a bare
    /// [`DietClient::initialize_distributed`] session. Failures resubmit
    /// exactly like [`call_with_retry`](Self::call_with_retry), except that
    /// the remote MA learns about dead SeDs from its own heartbeats.
    pub fn call_distributed(
        &self,
        ma: &RemoteAgentClient,
        pool: &TcpSedPool,
        profile: Profile,
        policy: &RetryPolicy,
    ) -> Result<(Profile, CallStats), DietError> {
        self.retrying_over(ma, pool, profile, policy)
    }

    /// Ship a workflow DAG to a remote MA's engine. Returns immediately
    /// with a [`DagHandle`]; the engine schedules every node inside the
    /// hierarchy (intermediates move SeD-to-SeD, never through this
    /// client) while the caller polls with [`poll_dag`](Self::poll_dag) or
    /// blocks in [`wait_dag`](Self::wait_dag). The handle's trace id is
    /// the workflow trace every node span stitches under.
    pub fn submit_dag(
        &self,
        ma: &RemoteAgentClient,
        spec: &WorkflowSpec,
    ) -> Result<DagHandle, DietError> {
        let trace_id = self.obs.tracer.new_trace();
        let ctx = TraceCtx {
            trace_id,
            parent_span: 0,
        };
        let dag_id = ma.submit_dag(spec, ctx)?;
        self.obs.metrics.counter("diet_client_dags_total").inc();
        Ok(DagHandle { dag_id, trace_id })
    }

    /// One progress poll: events after the `since` cursor plus the outcome
    /// once the dag finished.
    pub fn poll_dag(
        &self,
        ma: &RemoteAgentClient,
        dag_id: u64,
        since: u64,
    ) -> Result<(Vec<DagEventRec>, Option<DagOutcome>), DietError> {
        ma.dag_status(dag_id, since)
    }

    /// Block until the dag finishes (polling the event stream) or `timeout`
    /// elapses. Returns the outcome and every event observed.
    pub fn wait_dag(
        &self,
        ma: &RemoteAgentClient,
        handle: &DagHandle,
        timeout: Duration,
    ) -> Result<(DagOutcome, Vec<DagEventRec>), DietError> {
        let deadline = Instant::now() + timeout;
        let mut seen: Vec<DagEventRec> = Vec::new();
        let mut cursor = 0u64;
        loop {
            let (events, outcome) = ma.dag_status(handle.dag_id, cursor)?;
            if let Some(last) = events.last() {
                cursor = last.seq;
            }
            seen.extend(events);
            if let Some(outcome) = outcome {
                return Ok((outcome, seen));
            }
            if Instant::now() >= deadline {
                return Err(DietError::Timeout {
                    after_secs: timeout.as_secs_f64(),
                });
            }
            std::thread::sleep(Duration::from_millis(25));
        }
    }

    /// A retrying call with the data path over `pool`.
    fn retrying_over<R: Route>(
        &self,
        route: &R,
        pool: &TcpSedPool,
        profile: Profile,
        policy: &RetryPolicy,
    ) -> Result<(Profile, CallStats), DietError> {
        let timeout = policy.attempt_timeout;
        self.retrying(
            route,
            profile,
            policy,
            |target, p, ctx| pool.call_traced(R::label(target), p, timeout, ctx),
            |target, id, v| {
                let mode = Persistence::Persistent;
                pool.put_data(R::label(target), id, v, mode, timeout)
                    .is_ok()
            },
        )
    }

    /// [`retry_loop`] under a fresh trace, with re-ship from this client's
    /// stored payloads (`ship` puts one on a target), then this session's
    /// counters and history from what it returned.
    fn retrying<R: Route>(
        &self,
        route: &R,
        profile: Profile,
        policy: &RetryPolicy,
        attempt: impl FnMut(&R::Target, Profile, TraceCtx) -> Result<(Profile, f64, f64), DietError>,
        ship: impl Fn(&R::Target, &str, DietValue) -> bool,
    ) -> Result<(Profile, CallStats), DietError> {
        let root = TraceCtx {
            trace_id: self.obs.tracer.new_trace(),
            parent_span: 0,
        };
        let (result, tally) = retry_loop(
            route,
            Some(&self.obs.tracer),
            root,
            &profile,
            policy,
            Vec::new(),
            attempt,
            |target, ids| self.try_reship(ids, |id, v| ship(target, id, v)),
        );
        let m = &self.obs.metrics;
        m.counter("diet_client_resubmissions_total")
            .add(tally.retries);
        m.counter("diet_client_busy_total").add(tally.busy);
        m.counter("diet_client_data_reships_total")
            .add(tally.reships);
        let (out, stats, target) = result.inspect_err(|_| {
            m.counter("diet_client_failures_total").inc();
        })?;
        m.counter("diet_client_requests_total").inc();
        m.histogram("diet_client_finding_seconds")
            .observe(stats.finding);
        m.histogram("diet_client_latency_seconds")
            .observe(stats.latency());
        m.histogram("diet_client_solve_seconds")
            .observe(stats.solve);
        m.histogram("diet_client_total_seconds")
            .observe(stats.total);
        self.history
            .lock()
            .push((R::label(&target).to_string(), stats));
        Ok((out, stats))
    }

    /// Record an async call's stats into the session history (callers of
    /// `async_call`/`wait` do this by hand; `call` does it automatically).
    pub fn record(&self, server: &str, stats: CallStats) {
        self.history.lock().push((server.to_string(), stats));
    }

    /// Completed-call history: (server label, stats).
    pub fn history(&self) -> Vec<(String, CallStats)> {
        self.history.lock().clone()
    }

    /// `diet_finalize()` — drops the MA reference; further calls error.
    pub fn finalize(&mut self) {
        self.ma = None;
    }

    pub fn is_initialized(&self) -> bool {
        self.ma.is_some()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::agent::AgentNode;
    use crate::data::{DietValue, Persistence};
    use crate::profile::{ArgTag, ProfileDesc};
    use crate::sched::RoundRobin;
    use crate::sed::{SedConfig, SedHandle, ServiceTable, SolveFn};

    fn square_table(delay_ms: u64) -> ServiceTable {
        let mut d = ProfileDesc::alloc("square", 0, 0, 1);
        d.set_arg(0, ArgTag::Scalar).unwrap();
        let solve: SolveFn = Arc::new(move |p: &mut Profile| {
            if delay_ms > 0 {
                std::thread::sleep(Duration::from_millis(delay_ms));
            }
            let x = p.get_i32(0)?;
            p.set(1, DietValue::ScalarI32(x * x), Persistence::Volatile)?;
            Ok(0)
        });
        let mut t = ServiceTable::init(2);
        t.add(d, solve).unwrap();
        t
    }

    fn session(delay_ms: u64, n_seds: usize) -> (DietClient, Vec<Arc<SedHandle>>) {
        let seds: Vec<Arc<SedHandle>> = (0..n_seds)
            .map(|i| {
                SedHandle::spawn(
                    SedConfig::new(&format!("sed{i}"), 1.0),
                    square_table(delay_ms),
                )
            })
            .collect();
        let la = AgentNode::leaf("LA", seds.clone());
        let ma = MasterAgent::new("MA", vec![la], Arc::new(RoundRobin::new()));
        (DietClient::initialize(ma), seds)
    }

    fn square_profile(x: i32) -> Profile {
        let d = ProfileDesc::alloc("square", 0, 0, 1);
        let mut p = Profile::alloc(&d);
        p.set(0, DietValue::ScalarI32(x), Persistence::Volatile)
            .unwrap();
        p
    }

    #[test]
    fn sync_call_returns_out_args_and_stats() {
        let (client, seds) = session(0, 1);
        let (p, stats) = client.call(square_profile(9)).unwrap();
        assert_eq!(p.get_i32(1).unwrap(), 81);
        assert!(stats.total >= stats.solve);
        assert!(stats.finding >= 0.0 && stats.send >= 0.0);
        assert_eq!(client.history().len(), 1);
        for s in seds {
            s.shutdown();
        }
    }

    #[test]
    fn async_calls_overlap() {
        let (client, seds) = session(50, 2);
        let t0 = Instant::now();
        let h1 = client.async_call(square_profile(2)).unwrap();
        let h2 = client.async_call(square_profile(3)).unwrap();
        let (p1, _) = h1.wait().unwrap();
        let (p2, _) = h2.wait().unwrap();
        let elapsed = t0.elapsed();
        assert_eq!(p1.get_i32(1).unwrap(), 4);
        assert_eq!(p2.get_i32(1).unwrap(), 9);
        // Two 50 ms solves on two SeDs should take well under 100 ms.
        assert!(
            elapsed < Duration::from_millis(95),
            "calls did not overlap: {elapsed:?}"
        );
        for s in seds {
            s.shutdown();
        }
    }

    #[test]
    fn queueing_shows_up_in_latency() {
        let (client, seds) = session(40, 1);
        let h1 = client.async_call(square_profile(1)).unwrap();
        let h2 = client.async_call(square_profile(2)).unwrap();
        let (_, s1) = h1.wait().unwrap();
        let (_, s2) = h2.wait().unwrap();
        assert!(
            s2.latency() > s1.latency() + 0.03,
            "second call should queue behind the first: {} vs {}",
            s2.latency(),
            s1.latency()
        );
        for s in seds {
            s.shutdown();
        }
    }

    #[test]
    fn try_wait_polls() {
        let (client, seds) = session(30, 1);
        let h = client.async_call(square_profile(4)).unwrap();
        let mut h = match h.try_wait() {
            Err(h) => h, // not ready yet
            Ok(done) => {
                // Extremely fast machine: accept immediate completion.
                assert_eq!(done.unwrap().0.get_i32(1).unwrap(), 16);
                for s in seds {
                    s.shutdown();
                }
                return;
            }
        };
        loop {
            match h.try_wait() {
                Ok(done) => {
                    assert_eq!(done.unwrap().0.get_i32(1).unwrap(), 16);
                    break;
                }
                Err(again) => {
                    h = again;
                    std::thread::sleep(Duration::from_millis(5));
                }
            }
        }
        for s in seds {
            s.shutdown();
        }
    }

    #[test]
    fn wait_timeout_fires() {
        let (client, seds) = session(200, 1);
        let h = client.async_call(square_profile(5)).unwrap();
        match h.wait_timeout(Duration::from_millis(20)) {
            Err(DietError::Timeout { .. }) => {}
            other => panic!("expected timeout, got {other:?}"),
        }
        for s in seds {
            s.shutdown();
        }
    }

    #[test]
    fn backoff_doubles_and_caps() {
        let p = RetryPolicy {
            backoff_base: Duration::from_millis(25),
            backoff_cap: Duration::from_millis(120),
            ..Default::default()
        };
        assert_eq!(p.backoff(0), Duration::from_millis(25));
        assert_eq!(p.backoff(1), Duration::from_millis(50));
        assert_eq!(p.backoff(2), Duration::from_millis(100));
        assert_eq!(p.backoff(3), Duration::from_millis(120)); // capped
        assert_eq!(p.backoff(31), Duration::from_millis(120));
    }

    #[test]
    fn jittered_backoff_is_bounded_and_deterministic() {
        let p = RetryPolicy {
            backoff_base: Duration::from_millis(100),
            backoff_cap: Duration::from_secs(10),
            jitter: 0.5,
            ..Default::default()
        };
        for retry in 0..4 {
            let full = p.backoff(retry);
            let j = p.backoff_jittered(retry, 0xDEAD_BEEF);
            assert!(j <= full, "jitter must only shrink: {j:?} > {full:?}");
            let floor = Duration::from_secs_f64(full.as_secs_f64() * 0.5);
            assert!(j >= floor, "jitter below floor: {j:?} < {floor:?}");
            // Same (salt, retry) → same delay; reruns are reproducible.
            assert_eq!(j, p.backoff_jittered(retry, 0xDEAD_BEEF));
        }
        // Different salts de-synchronise (overwhelmingly likely to differ).
        assert_ne!(p.backoff_jittered(0, 1), p.backoff_jittered(0, 2));
        // jitter = 0 is the exact deterministic schedule.
        let plain = RetryPolicy { jitter: 0.0, ..p };
        assert_eq!(plain.backoff_jittered(2, 7), plain.backoff(2));
    }

    fn fast_policy() -> RetryPolicy {
        RetryPolicy {
            attempt_timeout: Duration::from_millis(500),
            max_retries: 3,
            backoff_base: Duration::from_millis(5),
            backoff_cap: Duration::from_millis(20),
            jitter: 0.0,
        }
    }

    #[test]
    fn retry_resubmits_through_ma_after_sed_crash() {
        let (client, seds) = session(0, 3);
        // LRU round-robin visits labels in lexicographic order on a cold
        // start, so "sed0" receives the first request — and dies on it.
        seds[0].faults().kill_at_request(1);
        let (p, stats) = client
            .call_with_retry(square_profile(7), &fast_policy())
            .unwrap();
        assert_eq!(p.get_i32(1).unwrap(), 49);
        assert_eq!(stats.retries, 1);
        // The MA noticed the corpse and deregistered it.
        let ma = client.ma().unwrap();
        assert_eq!(ma.deregistered(), vec!["sed0".to_string()]);
        assert_eq!(ma.sed_count(), 2);
        for s in seds {
            s.shutdown();
        }
    }

    #[test]
    fn a_served_call_clears_the_winners_strikes() {
        // Two transient faults, a served call, two more: never three in a
        // row, so the live SeD stays registered.
        let (client, seds) = session(0, 1);
        let ma = client.ma().unwrap();
        assert!(!ma.report_failure(&seds[0]));
        assert!(!ma.report_failure(&seds[0]));
        let (p, _) = client
            .call_with_retry(square_profile(3), &fast_policy())
            .unwrap();
        assert_eq!(p.get_i32(1).unwrap(), 9);
        assert!(!ma.report_failure(&seds[0]));
        assert!(!ma.report_failure(&seds[0]));
        assert_eq!(ma.sed_count(), 1);
        assert!(ma.deregistered().is_empty());
        // A third in a row still removes it.
        assert!(ma.report_failure(&seds[0]));
        seds[0].shutdown();
    }

    #[test]
    fn burst_with_mid_burst_kill_loses_no_requests() {
        let (client, seds) = session(0, 3);
        // The victim dies on its 4th request, mid-burst.
        seds[1].faults().kill_at_request(4);
        let policy = fast_policy();
        let mut total_retries = 0;
        for x in 0..30 {
            let (p, stats) = client
                .call_with_retry(square_profile(x), &policy)
                .unwrap_or_else(|e| panic!("request {x} lost: {e}"));
            assert_eq!(p.get_i32(1).unwrap(), x * x);
            total_retries += stats.retries;
        }
        assert!(total_retries >= 1, "the killed request must have retried");
        let ma = client.ma().unwrap();
        assert_eq!(ma.deregistered(), vec!["sed1".to_string()]);
        // Survivors kept absorbing the load.
        assert_eq!(client.history().len(), 30);
        for s in seds {
            s.shutdown();
        }
    }

    #[test]
    fn application_errors_are_not_retried() {
        // A solve that fails with a status code fails identically anywhere:
        // the client must return it immediately, not burn the retry budget.
        let mut d = ProfileDesc::alloc("bad", 0, 0, 0);
        d.set_arg(0, ArgTag::Scalar).unwrap();
        let solve: SolveFn = Arc::new(|_| Ok(3));
        let mut t = ServiceTable::init(1);
        t.add(d.clone(), solve).unwrap();
        let seds: Vec<Arc<SedHandle>> = (0..2)
            .map(|i| SedHandle::spawn(SedConfig::new(&format!("bad{i}"), 1.0), t.clone()))
            .collect();
        let la = AgentNode::leaf("LA", seds.clone());
        let ma = MasterAgent::new("MA", vec![la], Arc::new(RoundRobin::new()));
        let client = DietClient::initialize(ma.clone());
        let mut p = Profile::alloc(&d);
        p.set(0, DietValue::ScalarI32(1), Persistence::Volatile)
            .unwrap();
        match client.call_with_retry(p, &fast_policy()) {
            Err(DietError::SolveFailed { status: 3, .. }) => {}
            other => panic!("expected SolveFailed, got {other:?}"),
        }
        // No SeD was blamed for an application error.
        assert_eq!(ma.sed_count(), 2);
        assert!(ma.deregistered().is_empty());
        for s in seds {
            s.shutdown();
        }
    }

    #[test]
    fn retries_exhaust_when_every_server_fails() {
        let (client, seds) = session(0, 2);
        seds[0].faults().kill_at_request(1);
        seds[1].faults().kill_at_request(1);
        let policy = RetryPolicy {
            max_retries: 4,
            ..fast_policy()
        };
        match client.call_with_retry(square_profile(2), &policy) {
            // Both SeDs die and get excluded; the MA runs out of candidates
            // before the budget does.
            Err(DietError::RetriesExhausted { attempts, .. }) => assert!(attempts >= 2),
            other => panic!("expected RetriesExhausted, got {other:?}"),
        }
        for s in seds {
            s.shutdown();
        }
    }

    #[test]
    fn slow_sed_times_out_and_request_lands_elsewhere() {
        let (client, seds) = session(0, 2);
        // sed0 wedges: every request stalls far beyond the attempt timeout.
        seds[0].faults().set_stall(Duration::from_secs(5));
        let policy = RetryPolicy {
            attempt_timeout: Duration::from_millis(80),
            ..fast_policy()
        };
        let (p, stats) = client.call_with_retry(square_profile(6), &policy).unwrap();
        assert_eq!(p.get_i32(1).unwrap(), 36);
        assert_eq!(stats.retries, 1);
        for s in seds {
            s.shutdown();
        }
    }

    fn sum_table() -> ServiceTable {
        let mut d = ProfileDesc::alloc("sum", 0, 0, 1);
        d.set_arg(0, ArgTag::Vector).unwrap();
        let solve: SolveFn = Arc::new(|p: &mut Profile| {
            let s: f64 = match p.get(0)? {
                DietValue::VectorF64(xs) => xs.iter().sum(),
                _ => return Err(DietError::Rejected("expected f64 vector".into())),
            };
            p.set(1, DietValue::ScalarF64(s), Persistence::Volatile)?;
            Ok(0)
        });
        let mut t = ServiceTable::init(2);
        t.add(d, solve).unwrap();
        t
    }

    fn sum_ref_profile(client: &DietClient, id: &str) -> Profile {
        let d = ProfileDesc::alloc("sum", 0, 0, 1);
        let mut p = Profile::alloc(&d);
        p.set(0, client.data_ref(id), Persistence::Persistent)
            .unwrap();
        p
    }

    fn data_session() -> (DietClient, Vec<Arc<SedHandle>>) {
        let seds: Vec<Arc<SedHandle>> = (0..2)
            .map(|i| SedHandle::spawn(SedConfig::new(&format!("sed{i}"), 1.0), sum_table()))
            .collect();
        let la = AgentNode::leaf("LA", seds.clone());
        let ma = MasterAgent::new("MA", vec![la], Arc::new(RoundRobin::new()))
            .with_scheduler(Arc::new(crate::sched::DataLocal::default()));
        ma.register_catalog(Arc::new(crate::dagda::ReplicaCatalog::new()));
        (DietClient::initialize(ma), seds)
    }

    #[test]
    fn stored_data_is_scheduled_onto_its_holder() {
        let (client, seds) = data_session();
        let host = client
            .store_data(
                "xs",
                DietValue::vec_f64(vec![1.0, 2.0, 3.5]),
                Persistence::Persistent,
            )
            .unwrap();
        assert_eq!(host, "sed0");
        // Volatile refusal surfaces as an application error.
        assert!(client
            .store_data("tmp", DietValue::ScalarI32(1), Persistence::Volatile)
            .is_err());
        // Repeated ref calls all land on the holder — only the id travels.
        for _ in 0..4 {
            let (p, _) = client
                .call_with_retry(sum_ref_profile(&client, "xs"), &fast_policy())
                .unwrap();
            assert_eq!(p.get_f64(1).unwrap(), 6.5);
        }
        let hist = client.history();
        assert_eq!(hist.len(), 4);
        assert!(hist.iter().all(|(server, _)| server == "sed0"));
        assert_eq!(
            client
                .metrics()
                .counter_value("diet_client_data_reships_total"),
            0
        );
        for s in seds {
            s.shutdown();
        }
    }

    #[test]
    fn lost_holder_triggers_inline_reship_and_no_lost_request() {
        let (client, seds) = data_session();
        client
            .store_data(
                "xs",
                DietValue::vec_f64(vec![4.0, 0.5]),
                Persistence::Persistent,
            )
            .unwrap();
        // The hosting SeD dies: the MA drops it and its catalog entries.
        let ma = client.ma().unwrap().clone();
        seds[0].shutdown();
        assert!(ma.deregister("sed0"));
        assert!(ma.catalog().unwrap().locate("xs").is_none());
        // The call lands on sed1, which cannot resolve the ref anywhere;
        // the client re-ships the cached payload inline and succeeds.
        let (p, stats) = client
            .call_with_retry(sum_ref_profile(&client, "xs"), &fast_policy())
            .unwrap();
        assert_eq!(p.get_f64(1).unwrap(), 4.5);
        assert_eq!(stats.retries, 1);
        assert_eq!(
            client
                .metrics()
                .counter_value("diet_client_data_reships_total"),
            1
        );
        // The re-shipped payload was re-hosted and re-published by sed1.
        assert_eq!(ma.catalog().unwrap().holders("xs"), vec!["sed1"]);
        let (p, stats) = client
            .call_with_retry(sum_ref_profile(&client, "xs"), &fast_policy())
            .unwrap();
        assert_eq!(p.get_f64(1).unwrap(), 4.5);
        assert_eq!(stats.retries, 0);
        for s in seds {
            s.shutdown();
        }
    }

    #[test]
    fn divergent_replica_is_refused_and_repaired_by_reship() {
        // The holder serves data only; the one SeD that can run `sum` has
        // to pull from it.
        let holder = SedHandle::spawn(SedConfig::new("sed0", 1.0), ServiceTable::init(1));
        let exec = SedHandle::spawn(SedConfig::new("sed1", 1.0), sum_table());
        let seds = vec![holder.clone(), exec.clone()];
        let la = AgentNode::leaf("LA", seds.clone());
        let ma = MasterAgent::new("MA", vec![la], Arc::new(RoundRobin::new()));
        let cat = Arc::new(crate::dagda::ReplicaCatalog::new());
        ma.register_catalog(cat.clone());
        struct FromHolder(Arc<SedHandle>);
        impl crate::dagda::DataResolver for FromHolder {
            fn fetch(&self, _: &str, id: &str) -> Result<(DietValue, Persistence), DietError> {
                self.0.datamgr.get_with_mode(id)
            }
        }
        exec.set_resolver(Arc::new(FromHolder(holder.clone())));
        let client = DietClient::initialize(ma);
        let xs = DietValue::vec_f64(vec![4.0, 0.5]);
        let host = client
            .store_data("xs", xs.clone(), Persistence::Persistent)
            .unwrap();
        assert_eq!(host, "sed0");
        // The catalog's record and the holder's bytes disagree.
        let good = crate::dagda::checksum(&xs);
        cat.publish("xs", "sed0", xs.payload_bytes(), good ^ 1);

        let out = exec
            .submit(sum_ref_profile(&client, "xs"))
            .unwrap()
            .recv()
            .unwrap();
        assert!(
            matches!(out.result, Err(DietError::DataNotFound(ref id)) if id == "xs"),
            "{:?}",
            out.result
        );
        assert!(!exec.datamgr.contains("xs"), "the bad replica was kept");
        assert_eq!(cat.holders("xs"), vec!["sed0"], "and published");

        // The client's copy repairs it: re-shipped to the executing SeD,
        // published under its true checksum, found there on the retry.
        let (p, stats) = client
            .call_with_retry(sum_ref_profile(&client, "xs"), &fast_policy())
            .unwrap();
        assert_eq!(p.get_f64(1).unwrap(), 4.5);
        assert_eq!(stats.retries, 1);
        assert_eq!(
            client
                .metrics()
                .counter_value("diet_client_data_reships_total"),
            1
        );
        let at_exec = cat.replicas("xs").into_iter().find(|r| r.sed == "sed1");
        assert_eq!(at_exec.map(|r| r.checksum), Some(good));
        for s in seds {
            s.shutdown();
        }
    }

    #[test]
    fn unknown_ref_is_not_reshipped() {
        // A reference this client never stored cannot be repaired locally:
        // the DataNotFound surfaces to the caller instead of looping.
        let (client, seds) = data_session();
        match client.call_with_retry(sum_ref_profile(&client, "ghost"), &fast_policy()) {
            Err(DietError::DataNotFound(id)) => assert_eq!(id, "ghost"),
            other => panic!("expected DataNotFound, got {other:?}"),
        }
        for s in seds {
            s.shutdown();
        }
    }

    #[test]
    fn initialize_from_config_resolves_the_ma() {
        let (client0, seds) = session(0, 1);
        // Re-register the same MA under a name server and connect via config.
        let ma = client0.ma().unwrap().clone();
        let ns = crate::naming::NameServer::new();
        ns.register(ma);
        let client =
            DietClient::initialize_from_config("MAName = MA\ntraceLevel = 2\n", &ns).unwrap();
        let (p, _) = client.call(square_profile(6)).unwrap();
        assert_eq!(p.get_i32(1).unwrap(), 36);
        // Bad config / unknown MA both error.
        assert!(DietClient::initialize_from_config("traceLevel = 2", &ns).is_err());
        assert!(DietClient::initialize_from_config("MAName = nope", &ns).is_err());
        for s in seds {
            s.shutdown();
        }
    }

    #[test]
    fn finalize_blocks_further_calls() {
        let (mut client, seds) = session(0, 1);
        assert!(client.is_initialized());
        client.finalize();
        assert!(!client.is_initialized());
        assert!(matches!(
            client.call(square_profile(1)),
            Err(DietError::NotInitialized)
        ));
        for s in seds {
            s.shutdown();
        }
    }

    #[test]
    fn unknown_service_surfaces_not_found() {
        let (client, seds) = session(0, 1);
        let d = ProfileDesc::alloc("missing", -1, -1, 0);
        let p = Profile::alloc(&d);
        assert!(matches!(client.call(p), Err(DietError::ServiceNotFound(_))));
        for s in seds {
            s.shutdown();
        }
    }
}

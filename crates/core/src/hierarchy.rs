//! The distributed MA/LA hierarchy: agents as separate TCP processes.
//!
//! The in-process tree ([`crate::agent`]) models the paper's hierarchy
//! inside one address space. This module puts each agent behind a real
//! socket, the deployment shape DIET ran on the grid: a Master Agent
//! process at the top, Local Agent processes per site, SeD processes at
//! the leaves, every edge a TCP connection speaking the frame codec.
//!
//! Frame flow for one finding phase (client submit, depth 2):
//!
//! ```text
//! client ──Submit──────────▶ MA process
//!                             │ the LA slot's held batch is fresh and
//!                             │ names a candidate: schedule over it (plus
//!                             │ the MA's own placements since), no frame,
//!                             │ on the MA's reactor thread
//!                             │ ─ ─ otherwise (stale, missing, emptied
//!                             │     by exclude, or a candidate at its
//!                             │     admission limit) a dispatch worker
//!                             │     walks: ─ ─ ─ ─ ─ ─ ─ ─ ─ ─ ─ ─ ─ ─
//!                             │  Forward (mux, rid)
//!                             ▼
//!                            LA process ──estimates()──▶ local SeDs
//!                             │                 │ Forward to its own
//!                             │                 ▼ remote children...
//!                             │  EstimateBatch (echoes rid)
//!                             ▼
//!                            MA holds the batch (empty exclude only)
//!                            and schedules over the aggregate
//! client ◀─SubmitReply(label)┘
//! client ──Call(label)──────▶ chosen SeD directly (the DIET shortcut:
//!                             data never relays through the agents)
//! ```
//!
//! Estimates hop up the tree inside [`Message::EstimateBatch`] frames;
//! each parent adds the measured hop RTT to every child estimate's
//! `probe_rtt`, so by the time an estimate reaches the scheduler its
//! probe time reflects the real path down the tree. Only the MA holds
//! batches ([`crate::agent::HELD_ESTIMATES_MAX_AGE`] bounds their age): an
//! LA answering a `Forward` always walks its own subtree, because the
//! `Forward` is its parent's table refreshing. Trace contexts ride
//! inside `Forward` frames, so one trace covers the whole finding phase
//! across every process when the submit walks; a submit answered from the
//! held batch has no agent hop to trace.
//!
//! Federation: when an MA cannot resolve a service in its own tree
//! (`ServiceNotFound`), it forwards the request to its federation peers
//! (other MAs) with `ttl = 0` — peers consult only their own trees, so
//! a cycle of MAs cannot loop a request. `NoServerAvailable` (declared
//! but currently saturated/excluded) does **not** federate: the service
//! exists here, the client should back off and retry locally.
//!
//! Failure semantics: every agent process answers `Ping` on the same mux
//! connection that carries its `Forward`s, so
//! [`crate::agent::HeartbeatMonitor`] probes it without dialing; a subtree
//! whose agent misses its deadline is marked unavailable and skipped by
//! collection, its held batch dropped (never removed — a returning agent is
//! restored on its next successful probe, which redials once the old
//! connection died, and walked afresh). A stalled or dead subtree costs one
//! collection deadline, not the whole submit; without a heartbeat monitor,
//! the MA may place on a dead agent's SeDs from its held batch until that
//! batch ages out.

use crate::agent::{AgentNode, Gather, MasterAgent, RemoteSubtree};
use crate::client::is_transient;
use crate::codec::Message;
use crate::dag::{DagEngine, DagEventRec, DagOutcome, WorkflowSpec};
use crate::data::DietValue;
use crate::error::DietError;
use crate::monitor::{poll_until, Estimate};
use crate::reactor::{ConnHandle, Lane};
use crate::sed::SedHandle;
use crate::transport::{busy_is_error, unexpected, Peer, Pending, ServerConfig, TcpServer};
use obs::{Obs, TraceCtx};
use std::net::SocketAddr;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

// ---------------------------------------------------------------- SeD serving

/// Expose a live SeD over TCP — the serving half of the CORBA role in the
/// original DIET. Each accepted connection streams `Call`/`CallReply` frames
/// and answers `Ping` with `Pong` so remote heartbeat monitors can probe the
/// node.
///
/// Rides the readiness-driven serving core ([`TcpServer::spawn_framed`],
/// [`ServerConfig::default`] pool sizing): one reactor thread owns every
/// connection. The path is **pipelined** end to end — a `Call` frame is
/// served on the reactor thread itself, since admitting it into the SeD's
/// solve queue via [`SedHandle::submit_with_callback`] is an enqueue that
/// never blocks; when the solve completes, its callback queues the
/// `CallReply` straight onto the connection's write queue (replies may
/// overtake each other — that is the point; the request id pairs them).
/// No per-connection pump thread, no parked worker, no dispatch hop: an
/// idle connection costs a registered buffer. `Ping` and `GetData` (a
/// lookup in the SeD's data manager, which never blocks) are answered on
/// the reactor thread too; `PutData` and `DumpMetricsRid` are answered on
/// the dispatch workers.
///
/// Admission control: when the SeD's `admission_limit` is reached (or the
/// fault plan forces it), a `Call` is answered with [`Message::Busy`]
/// echoing its id instead of queueing without bound — the client backs off
/// and resubmits; the MA meanwhile sees the saturation in `Estimate` and
/// routes around it.
///
/// Failure semantics, chosen so clients can tell application errors from
/// crashes:
///
/// * Submission rejections and solve errors travel back as `CallReply` with
///   an `Err` string — the request *was* handled, it just failed, so the
///   client must not silently resubmit it.
/// * If the SeD worker dies mid-call its completion fires `None` and the
///   server is killed **without** a reply, as the SeD's process would have
///   died: the client observes a transport error, which the retry layer
///   treats as retryable and resubmits through the Master Agent, and a
///   redial of the dead SeD is refused rather than accepted and severed.
/// * Reply frames that cannot be delivered (client gone, socket reset) are
///   recorded on the SeD's load tracker via
///   [`SedHandle::note_reply_failure`] instead of being swallowed.
pub fn serve_sed_over_tcp(sed: Arc<SedHandle>) -> Result<TcpServer, DietError> {
    // The reactor's instrumentation lands in this SeD's own registry — so a
    // telemetry flusher ships tick latency and queue depths to the
    // collector alongside the solve metrics.
    let cfg = ServerConfig {
        obs: Some(sed.obs()),
        ..ServerConfig::default()
    };
    TcpServer::spawn_framed("127.0.0.1:0", cfg, move |handle, msg, _| {
        match msg {
            Message::Call {
                request_id,
                ctx,
                profile,
            } => {
                // Admission control: a full queue answers Busy (echoing
                // the id so the mux client wakes exactly this caller)
                // instead of queueing without bound. The fault plan can
                // force it to simulate overload.
                if sed.admit().is_err() {
                    let _ = handle.send(&Message::Busy { request_id });
                    return None;
                }
                let h = handle.clone();
                let cb_sed = sed.clone();
                // Handles (refcounts, not copies) on what the request
                // carried: a reply slot still holding the same buffer was
                // not replaced by the solve and is not shipped back.
                let request = profile.values.clone();
                let res = sed.submit_with_callback(profile, ctx, move |outcome| {
                    match outcome {
                        Some(o) => {
                            let reply = Message::CallReply {
                                request_id,
                                queue_wait: o.queue_wait,
                                solve: o.solve_time,
                                result: match o.result {
                                    Ok(mut p) => {
                                        p.drop_unreplaced(&request);
                                        Ok(p)
                                    }
                                    Err(e) => Err(e.to_string()),
                                },
                            };
                            // The reply frame *is* the result-return phase:
                            // span it so the trace covers the hand-off back
                            // toward the client.
                            let obs = cb_sed.obs();
                            let ret_start_ns = obs.tracer.now_ns();
                            let sent = h.send(&reply);
                            if ctx.is_active() {
                                obs.tracer.record_window(
                                    ctx.trace_id,
                                    ctx.parent_span,
                                    "ResultReturn",
                                    &cb_sed.config.label,
                                    ret_start_ns,
                                    obs.tracer.now_ns(),
                                );
                            }
                            if sent.is_err() {
                                // Client gone: record the lost delivery.
                                cb_sed.note_reply_failure();
                                h.close();
                            }
                        }
                        // Worker crashed while holding the request (or the
                        // queue rejected it): the reply can never come.
                        // The SeD is down, so its server goes down with it:
                        // every caller on any connection sees a transport
                        // fault and retries elsewhere, and a redial is
                        // refused instead of accepted and severed in turn.
                        None => {
                            cb_sed.note_reply_failure();
                            h.kill_server();
                        }
                    }
                });
                if res.is_err() {
                    // The SeD worker is gone — a crash, not an application
                    // rejection. The rejected job's completion has already
                    // fired `None` above (counting the failure and taking
                    // the server down); this is an idempotent backstop.
                    handle.kill_server();
                }
            }
            // DAGDA's SeD-to-SeD pull: another SeD (or a client) asks
            // for a catalogued item by id; serve it out of the local
            // store. A miss is an application-level `Err`, not a
            // dropped connection — the puller falls back to re-shipping.
            Message::GetData { request_id, id } => {
                let result = sed.datamgr.get_with_mode(&id).map_err(|e| e.to_string());
                let _ = handle.send(&Message::DataReply {
                    request_id,
                    id,
                    result,
                });
            }
            // The client-side `store_data` leg: retain + publish to the
            // catalog, ack with an empty DataReply. Volatile payloads
            // are refused — there is nothing to persist.
            Message::PutData {
                request_id,
                id,
                mode,
                value,
            } => {
                let result = if sed.store_data(&id, value, mode) {
                    Ok((DietValue::Null, mode))
                } else {
                    Err(format!("store_data({id}): volatile data is not retained"))
                };
                let _ = handle.send(&Message::DataReply {
                    request_id,
                    id,
                    result,
                });
            }
            // The `dump-metrics` request: rides a shared mux like `Call`,
            // and the selector picks the exported view.
            Message::DumpMetricsRid { request_id, what } => {
                let text = component_view(&sed.obs(), &what);
                let _ = handle.send(&Message::MetricsReplyRid { request_id, text });
            }
            Message::Ping { request_id } => {
                let _ = handle.send(&Message::Pong { request_id });
            }
            _ => {}
        }
        None
    })
}

/// Shared [`Message::DumpMetricsRid`] view dispatch for single-component
/// processes (SeDs and agents): the selector picks the Prometheus text or
/// the Chrome trace of the component's own spans. (`"topology"` is a
/// collector-level view; see `crate::collector`.)
fn component_view(obs: &Obs, what: &str) -> String {
    match what {
        "" | "prometheus" => obs.metrics.render_prometheus(),
        "chrome" => obs::chrome_trace(&obs.tracer.snapshot()),
        other => format!("unknown metrics view {other:?}\n"),
    }
}

// --------------------------------------------------------------- agent client

/// Client stub for a remote agent process: one multiplexed connection
/// carrying `Forward`/`Submit` frames, redialed transparently when it dies.
///
/// A parent agent holds one of these per remote child (via the
/// [`RemoteSubtree`] impl); a client holds one for the MA it submits
/// through; an MA holds one per federation peer.
pub struct RemoteAgentClient {
    name: String,
    peer: Peer,
    timeout: Duration,
}

impl RemoteAgentClient {
    /// A stub for the agent at `addr`. Dials lazily on first use, so the
    /// stub can be built before (or while) the agent process comes up.
    pub fn new(name: &str, addr: SocketAddr) -> Arc<Self> {
        Self::with_timeout(name, addr, Duration::from_secs(5))
    }

    /// [`RemoteAgentClient::new`] with an explicit per-request deadline —
    /// the bound on how long one hop down the tree may take.
    pub fn with_timeout(name: &str, addr: SocketAddr, timeout: Duration) -> Arc<Self> {
        Arc::new(RemoteAgentClient {
            name: name.to_string(),
            peer: Peer::new(addr),
            timeout,
        })
    }

    /// The remote agent's address.
    pub fn addr(&self) -> SocketAddr {
        self.peer.addr()
    }

    /// One finding hop: forward a request down to this agent and wait for
    /// the aggregated estimates of its whole subtree. `ttl` bounds
    /// *sideways* (federation) forwarding at the receiver; tree-downward
    /// collection always recurses.
    pub fn forward(
        &self,
        service: &str,
        exclude: &[String],
        ctx: TraceCtx,
        ttl: u8,
    ) -> Result<Vec<Estimate>, DietError> {
        let gather = self.send_forward(service, exclude, ctx, ttl)?;
        gather(None).map(|(estimates, _)| estimates)
    }

    /// [`forward`](Self::forward) in two halves: the `Forward` frame goes
    /// out now, and the returned [`Gather`] waits for its answer until the
    /// earlier of the caller's deadline and this stub's own.
    fn send_forward(
        &self,
        service: &str,
        exclude: &[String],
        ctx: TraceCtx,
        ttl: u8,
    ) -> Result<Gather, DietError> {
        let pending = self.peer.send(|request_id| Message::Forward {
            request_id,
            ctx,
            service: service.to_string(),
            exclude: exclude.to_vec(),
            ttl,
        })?;
        let own = Instant::now() + self.timeout;
        Ok(Box::new(move |until: Option<Instant>| {
            let (reply, rtt) = pending.wait(until.map_or(own, |u| u.min(own)))?;
            match busy_is_error(reply)? {
                Message::EstimateBatch { estimates, .. } => Ok((estimates, rtt)),
                other => Err(unexpected("forward", other)),
            }
        }))
    }

    /// Submit through a remote MA: returns the winning SeD's label
    /// (`None` when the MA found no server — the remote analog of
    /// [`DietError::NoServerAvailable`]).
    pub fn submit(
        &self,
        service: &str,
        exclude: &[String],
        ctx: TraceCtx,
    ) -> Result<Option<String>, DietError> {
        let mut sent = self.send_submits(exclude, [(service, ctx)])?;
        sent.pop().expect("one submit, one reply").wait()
    }

    /// The first half of [`submit`](Self::submit) for a batch: one
    /// `Submit` per `(service, ctx)`, each excluding `exclude`, all on the
    /// wire in one write, returned without waiting in the order of `asks`.
    /// Their deadline runs from this send.
    pub(crate) fn send_submits<'s>(
        &self,
        exclude: &[String],
        asks: impl IntoIterator<Item = (&'s str, TraceCtx)>,
    ) -> Result<Vec<SentSubmit>, DietError> {
        let until = Instant::now() + self.timeout;
        let builds = asks.into_iter().map(|(service, ctx)| {
            move |request_id| Message::Submit {
                service: service.to_string(),
                request_id,
                ctx,
                exclude: exclude.to_vec(),
            }
        });
        let sent = self.peer.send_all(builds)?;
        Ok(sent
            .into_iter()
            .map(|pending| SentSubmit { pending, until })
            .collect())
    }

    /// High-water mark of requests in flight at once on the connection to
    /// the MA.
    pub fn peak_inflight(&self) -> u64 {
        self.peer.peak_inflight()
    }

    /// Admit a workflow DAG into the remote MA's engine; returns the
    /// engine-assigned dag id. A validation failure (or an MA served
    /// without an engine) comes back as [`DietError::Rejected`].
    pub fn submit_dag(&self, spec: &WorkflowSpec, ctx: TraceCtx) -> Result<u64, DietError> {
        let build = |request_id| Message::SubmitDag {
            request_id,
            ctx,
            spec: spec.clone(),
        };
        match self.peer.request(build, self.timeout)? {
            Message::DagReply { result, .. } => result.map_err(DietError::Rejected),
            other => Err(unexpected("submit_dag", other)),
        }
    }

    /// Poll a dag's progress: events with sequence numbers after `since`,
    /// plus the outcome once the dag finished.
    pub fn dag_status(
        &self,
        dag_id: u64,
        since: u64,
    ) -> Result<(Vec<DagEventRec>, Option<DagOutcome>), DietError> {
        let build = |request_id| Message::DagStatus {
            request_id,
            dag_id,
            since,
        };
        match self.peer.request(build, self.timeout)? {
            Message::DagEvent {
                events, outcome, ..
            } => Ok((events, outcome)),
            Message::DagReply { result: Err(e), .. } => Err(DietError::Rejected(e)),
            other => Err(unexpected("dag_status", other)),
        }
    }

    /// Wait for a dag to finish, following its event stream every
    /// [`DAG_POLL`] from the start: its outcome and every event seen, or
    /// `None` once `stop` is true. Transient errors ([`is_transient`]) are
    /// ridden out until `timeout`; past it the wait returns the last one
    /// still standing, or `Timeout` if the MA was answering.
    pub(crate) fn wait_dag(
        &self,
        dag_id: u64,
        timeout: Duration,
        stop: impl Fn() -> bool,
    ) -> Result<Option<(DagOutcome, Vec<DagEventRec>)>, DietError> {
        let mut seen: Vec<DagEventRec> = Vec::new();
        let mut ridden = None;
        let waited = poll_until(DAG_POLL, timeout, || {
            if stop() {
                return Ok(Some(None));
            }
            match self.dag_status(dag_id, seen.last().map_or(0, |e| e.seq)) {
                Ok((events, outcome)) => {
                    ridden = None;
                    seen.extend(events);
                    Ok(outcome.map(Some))
                }
                Err(e) if is_transient(&e) => {
                    ridden = Some(e);
                    Ok(None)
                }
                Err(e) => Err(e),
            }
        });
        match waited {
            Ok(outcome) => Ok(outcome.map(|o| (o, seen))),
            Err(e @ DietError::Timeout { .. }) => Err(ridden.unwrap_or(e)),
            Err(e) => Err(e),
        }
    }
}

/// How often [`RemoteAgentClient::wait_dag`] asks for a dag's progress.
const DAG_POLL: Duration = Duration::from_millis(25);

/// A `Submit` on the wire ([`RemoteAgentClient::send_submits`]), its reply
/// not yet waited on.
pub(crate) struct SentSubmit {
    pending: Pending,
    until: Instant,
}

impl SentSubmit {
    /// Wait, until the deadline set at the send, for what
    /// [`RemoteAgentClient::submit`] returns.
    pub(crate) fn wait(self) -> Result<Option<String>, DietError> {
        match busy_is_error(self.pending.wait(self.until)?.0)? {
            Message::SubmitReply { server, .. } => Ok(server),
            other => Err(unexpected("submit", other)),
        }
    }
}

impl RemoteSubtree for RemoteAgentClient {
    fn name(&self) -> String {
        self.name.clone()
    }

    fn send_collect(
        &self,
        service: &str,
        exclude: &[String],
        ctx: TraceCtx,
    ) -> Result<Gather, DietError> {
        self.send_forward(service, exclude, ctx, 0)
    }

    fn ping(&self, timeout: Duration) -> bool {
        self.peer.ping(timeout)
    }
}

// --------------------------------------------------------------- agent serving

/// Sizing and admission policy for one served agent process.
#[derive(Clone)]
pub struct AgentConfig {
    /// Concurrent forwards this agent admits before answering `Busy`
    /// (echoing the request id, so exactly the over-limit caller backs
    /// off). `None` admits without bound.
    pub admission_limit: Option<usize>,
    /// Connection-pool sizing for the agent's listener.
    pub server: ServerConfig,
    /// Observability sink the serving loop records into (busy counters,
    /// per-hop trace windows). Share one across a deployment so a single
    /// trace snapshot shows every hop.
    pub obs: Arc<Obs>,
}

impl Default for AgentConfig {
    fn default() -> Self {
        AgentConfig {
            admission_limit: None,
            server: ServerConfig::default(),
            obs: Arc::new(Obs::new()),
        }
    }
}

/// Serve an agent subtree (a Local Agent process) at `addr` —
/// `"127.0.0.1:0"` for an ephemeral port, or an old address on the restart
/// path: a recovered agent rebinds it so parents' stubs (which hold the
/// address, not the connection) find it again without re-registration.
///
/// Protocol: `Forward` frames are answered with `EstimateBatch` carrying
/// the whole subtree's estimates (local SeDs, in-process children, and
/// remote children reached through this node's [`RemoteSubtree`] slots);
/// over-admission answers `Busy`. `Ping`/`Pong` serves heartbeat probes,
/// `DumpMetricsRid` ships the agent's registry.
pub fn serve_agent_over_tcp_at(
    node: Arc<AgentNode>,
    addr: impl std::net::ToSocketAddrs + Clone + Send + Sync + 'static,
    cfg: AgentConfig,
) -> Result<TcpServer, DietError> {
    let inflight = Arc::new(AtomicUsize::new(0));
    let admission_limit = cfg.admission_limit;
    let obs = cfg.obs.clone();
    let mut server_cfg = cfg.server;
    if server_cfg.obs.is_none() {
        server_cfg.obs = Some(obs.clone());
    }
    TcpServer::spawn_framed(addr, server_cfg, move |handle: &ConnHandle, msg, _| {
        match msg {
            Message::Forward {
                request_id,
                ctx,
                service,
                exclude,
                ttl: _,
            } => {
                // Per-agent admission: the PR-5 Busy backpressure,
                // applied one level up — an overloaded *agent* (not
                // just an overloaded SeD) pushes back explicitly.
                let admitted = inflight.fetch_add(1, Ordering::AcqRel) + 1;
                if admission_limit.is_some_and(|cap| admitted > cap) {
                    inflight.fetch_sub(1, Ordering::AcqRel);
                    obs.metrics.counter("diet_agent_busy_total").inc();
                    let _ = handle.send(&Message::Busy { request_id });
                    return None;
                }
                // Collection blocks this dispatch worker while the subtree
                // answers — concurrency stays bounded by `cfg.workers`.
                let t0 = obs.tracer.now_ns();
                let estimates = node.estimates(&service, &exclude, ctx);
                inflight.fetch_sub(1, Ordering::AcqRel);
                if ctx.is_active() {
                    obs.tracer.record_window(
                        ctx.trace_id,
                        ctx.parent_span,
                        "AgentEstimate",
                        &node.name,
                        t0,
                        obs.tracer.now_ns(),
                    );
                }
                let _ = handle.send(&Message::EstimateBatch {
                    request_id,
                    estimates,
                });
            }
            Message::DumpMetricsRid { request_id, what } => {
                let text = component_view(&obs, &what);
                let _ = handle.send(&Message::MetricsReplyRid { request_id, text });
            }
            Message::Ping { request_id } => {
                let _ = handle.send(&Message::Pong { request_id });
            }
            _ => {}
        }
        None
    })
}

/// Serve a Master Agent process on an ephemeral port: the top of the tree,
/// the process clients submit to.
///
/// `Submit` frames resolve through the MA's whole (possibly remote) tree
/// and answer `SubmitReply` with the winning label. When resolution fails
/// with `ServiceNotFound` and `peers` is non-empty, the request
/// **federates**: each peer MA is consulted with a `Forward` at `ttl = 0`
/// (so a cycle of MAs cannot loop), the aggregated estimates are
/// scheduled with this MA's own policy, and the winner's label is
/// returned as if it were local. `NoServerAvailable` does not federate —
/// the service is declared here, the client should retry locally.
///
/// A submit the held estimates answer without a walk is answered on the
/// reactor thread. One that needs a walk or a federation, one into a tree
/// with a fault plan armed, and every submit to an MA with an admission
/// limit go to a dispatch worker.
///
/// `Forward` frames make this MA usable *as* a federation peer (and as a
/// remote subtree of an even larger tree): they are answered with the
/// estimates of the MA's own tree only.
pub fn serve_ma_over_tcp(
    ma: Arc<MasterAgent>,
    peers: Vec<Arc<RemoteAgentClient>>,
    cfg: AgentConfig,
) -> Result<TcpServer, DietError> {
    serve_ma_inner(ma, peers, "127.0.0.1:0", cfg, None)
}

/// [`serve_ma_over_tcp`] at `addr`, plus a workflow engine: `SubmitDag`
/// frames are admitted into `engine` (tied to the submitting connection, so
/// a client disconnect cancels the dag's unplaced nodes) and `DagStatus`
/// polls are answered with the engine's event stream. An MA served without
/// an engine rejects dag frames with an explanatory `DagReply`.
pub fn serve_ma_over_tcp_with_dag(
    ma: Arc<MasterAgent>,
    peers: Vec<Arc<RemoteAgentClient>>,
    addr: impl std::net::ToSocketAddrs + Clone + Send + Sync + 'static,
    cfg: AgentConfig,
    engine: Arc<DagEngine>,
) -> Result<TcpServer, DietError> {
    serve_ma_inner(ma, peers, addr, cfg, Some(engine))
}

fn serve_ma_inner(
    ma: Arc<MasterAgent>,
    peers: Vec<Arc<RemoteAgentClient>>,
    addr: impl std::net::ToSocketAddrs + Clone + Send + Sync + 'static,
    cfg: AgentConfig,
    engine: Option<Arc<DagEngine>>,
) -> Result<TcpServer, DietError> {
    let inflight = Arc::new(AtomicUsize::new(0));
    let admission_limit = cfg.admission_limit;
    let obs = cfg.obs.clone();
    let mut server_cfg = cfg.server;
    if server_cfg.obs.is_none() {
        server_cfg.obs = Some(obs.clone());
    }
    TcpServer::spawn_framed(addr, server_cfg, move |handle: &ConnHandle, msg, lane| {
        match msg {
            Message::Submit {
                service,
                request_id,
                ctx,
                exclude,
            } => {
                // On the reactor thread, answer only from the held table:
                // a walk, a federation or an admission count goes to the
                // dispatch pool.
                if lane == Lane::Reactor {
                    let answer = admission_limit
                        .is_none()
                        .then(|| ma.schedule_held(&service, &exclude, ctx))
                        .flatten();
                    let federates = !peers.is_empty()
                        && matches!(answer, Some(Err(DietError::ServiceNotFound(_))));
                    return match answer {
                        Some(answer) if !federates => {
                            let server = answer.ok().map(|placed| placed.label);
                            let _ = handle.send(&Message::SubmitReply { request_id, server });
                            None
                        }
                        _ => Some(Message::Submit {
                            service,
                            request_id,
                            ctx,
                            exclude,
                        }),
                    };
                }
                let admitted = inflight.fetch_add(1, Ordering::AcqRel) + 1;
                if admission_limit.is_some_and(|cap| admitted > cap) {
                    inflight.fetch_sub(1, Ordering::AcqRel);
                    obs.metrics.counter("diet_agent_busy_total").inc();
                    let _ = handle.send(&Message::Busy { request_id });
                    return None;
                }
                let server = match ma.resolve(&service, &[], &exclude, ctx) {
                    Ok(label) => Some(label),
                    Err(DietError::ServiceNotFound(_)) if !peers.is_empty() => {
                        federate(&ma, &peers, &service, &exclude, ctx, &obs)
                    }
                    Err(_) => None,
                };
                inflight.fetch_sub(1, Ordering::AcqRel);
                let _ = handle.send(&Message::SubmitReply { request_id, server });
            }
            // Acting as a federation peer (or as somebody's remote
            // subtree): answer with our own tree's estimates. ttl = 0
            // forbids consulting *our* peers in turn, which is the only
            // ttl federation sends — requests die after one hop.
            Message::Forward {
                request_id,
                ctx,
                service,
                exclude,
                ttl: _,
            } => {
                let estimates = ma.estimates(&service, &exclude, ctx);
                let _ = handle.send(&Message::EstimateBatch {
                    request_id,
                    estimates,
                });
            }
            Message::DumpMetricsRid { request_id, what } => {
                let text = component_view(&obs, &what);
                let _ = handle.send(&Message::MetricsReplyRid { request_id, text });
            }
            Message::SubmitDag {
                request_id,
                ctx,
                spec,
            } => {
                let result = match &engine {
                    Some(eng) => eng
                        .submit(spec, ctx, Some(handle.clone()))
                        .map_err(|e| e.to_string()),
                    None => Err("no workflow engine at this MA".into()),
                };
                let _ = handle.send(&Message::DagReply { request_id, result });
            }
            Message::DagStatus {
                request_id,
                dag_id,
                since,
            } => match engine.as_ref().map(|eng| eng.status(dag_id, since)) {
                Some(Ok((events, outcome))) => {
                    let _ = handle.send(&Message::DagEvent {
                        request_id,
                        dag_id,
                        events,
                        outcome,
                    });
                }
                Some(Err(e)) => {
                    let _ = handle.send(&Message::DagReply {
                        request_id,
                        result: Err(e.to_string()),
                    });
                }
                None => {
                    let _ = handle.send(&Message::DagReply {
                        request_id,
                        result: Err("no workflow engine at this MA".into()),
                    });
                }
            },
            Message::Ping { request_id } => {
                let _ = handle.send(&Message::Pong { request_id });
            }
            _ => {}
        }
        None
    })
}

/// The MA-to-MA forwarding leg: consult every federation peer, schedule
/// over whatever came back with the local MA's policy. Returns the winning
/// label, or `None` when no peer had a usable candidate.
fn federate(
    ma: &Arc<MasterAgent>,
    peers: &[Arc<RemoteAgentClient>],
    service: &str,
    exclude: &[String],
    ctx: TraceCtx,
    obs: &Arc<Obs>,
) -> Option<String> {
    obs.metrics.counter("diet_ma_federated_total").inc();
    let mut candidates: Vec<Estimate> = Vec::new();
    for peer in peers {
        match peer.forward(service, exclude, ctx, 0) {
            Ok(ests) => {
                candidates.extend(
                    ests.into_iter()
                        .filter(|e| !exclude.contains(&e.server) && !e.is_saturated()),
                );
            }
            // A dead or busy peer is an empty peer — federation is
            // best-effort over whoever answers.
            Err(_) => continue,
        }
    }
    if candidates.is_empty() {
        return None;
    }
    let pick = ma.scheduler_handle().select(&candidates);
    let winner = candidates.get(pick)?;
    obs.metrics.counter("diet_ma_federated_hits_total").add(1);
    Some(winner.server.clone())
}

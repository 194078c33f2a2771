//! The MA-DAG workflow engine: typed task DAGs scheduled inside the agent
//! hierarchy.
//!
//! The follow-up paper runs the full `grafic → ramses → galics` zoom
//! pipeline as a DIET workflow handled by an MA-DAG agent instead of a
//! client driving each stage and round-tripping every intermediate snapshot.
//! This module is that agent: clients ship a [`WorkflowSpec`] (nodes =
//! service profiles, edges = data-flow) in a `SubmitDag` frame; the engine
//! owns the per-node state machines
//!
//! ```text
//! Pending ──deps done──▶ Ready ──finding──▶ Placed ──call──▶ Running
//!                                                              │
//!                                 Done ◀──first reply wins─────┤
//!                                 Failed ◀──rejected/retries───┘
//!                                 Cancelled ◀── upstream failed, or the
//!                                               client disconnected
//! ```
//!
//! and drives the existing middleware underneath: placement goes through
//! the MA's scheduler with the node's input data-ref ids, so the DAGDA
//! replica catalog and the `DataLocal` estimate terms pull a stage onto
//! the SeD already holding its inputs; the solve goes through the
//! [`TcpSedPool`] — data moves SeD-to-SeD, never through the client.
//!
//! **Data-flow via tagged services.** Before placing node `n` of dag `d`,
//! the engine rewrites the profile's service name to `svc@d<d>.n<n>`. The
//! SeD looks the service up under its canonical name (everything before
//! `@`) but, seeing the tag, retains *every* payload-bearing argument of
//! the completed profile under `svc@d<d>.n<n>#<arg>` and collapses those
//! arguments to [`DietValue::DataRef`]s in the reply. Downstream nodes
//! declare [`DagInput`] edges; the engine wires each one as a `DataRef` to
//! the upstream node's published id. Intermediate snapshots therefore live
//! only on SeDs, and the tag makes ids collision-free across concurrent
//! dags — plus deterministic solves produce checksum-identical replicas, so
//! speculative duplicates publish safely under the same id.
//!
//! **Failure handling** is the client's: every launch of a node, primary
//! or speculative, is one `client::retry_loop` over the in-process MA, so a
//! node fails and retries exactly like a GridRPC call (DESIGN §7). Finding
//! misses, `Busy` and transport faults back off and retry within the
//! node's `max_retries`, a faulty SeD is blamed and excluded; `DataNotFound`
//! and application rejections fail the node and cancel its descendants.
//! The engine keeps only the node's own business: wiring its inputs, its
//! state transitions, its `DagNode` trace window and its outcome. A
//! background monitor adds **speculation**: when a running
//! node exceeds `k×` the running median duration of its service, a
//! duplicate launches on a different SeD — first completion wins, the
//! loser's reply is discarded (counted in `diet_dag_spec_losses_total`).
//! The same monitor watches the submitting connection: a client that
//! disconnects mid-dag cancels every node not yet placed
//! (`diet_dag_cancelled_total`) and lets running solves drain.
//!
//! **Launch threads.** Each launch runs on a thread of its own for as long
//! as its retry loop blocks, but the thread outlives it: it parks, and the
//! next launch is handed to a parked thread when one is idle. Only when
//! none is does a new thread start (`diet_dag_launch_threads_total`), so a
//! launch never waits for another one and concurrency stays unbounded.
//! Starting a thread costs more than a diamond's engine work per node, on
//! every node of the critical path. [`DagEngine::shutdown`], or dropping
//! the engine, ends the parked threads.

use crate::agent::{MasterAgent, Placement};
use crate::client::{retry_loop, RetryPolicy};
use crate::data::{DietValue, Persistence};
use crate::error::DietError;
use crate::monitor::Periodic;
use crate::profile::Profile;
use crate::reactor::ConnHandle;
use crate::transport::TcpSedPool;
use obs::TraceCtx;
use parking_lot::{Mutex, RwLock};
use std::cmp::Reverse;
use std::collections::{BTreeMap, BinaryHeap, HashMap, HashSet};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{channel, SendError, Sender};
use std::sync::{Arc, Weak};
use std::time::{Duration, Instant};

// ------------------------------------------------------------- wire-level types

/// A client-submitted workflow: a DAG of service invocations.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct WorkflowSpec {
    /// Human-readable workflow name (labels events and telemetry).
    pub name: String,
    pub nodes: Vec<DagNodeSpec>,
}

/// One node of a workflow DAG: a service profile plus its data-flow edges.
#[derive(Debug, Clone, PartialEq)]
pub struct DagNodeSpec {
    /// Dag-unique node id (also the ordering key for events).
    pub id: u32,
    /// The profile to solve. IN arguments fed by upstream nodes may be left
    /// `Null` — [`DagNodeSpec::inputs`] overwrites them at launch.
    pub profile: Profile,
    /// Nodes that must be `Done` before this one becomes `Ready`.
    pub deps: Vec<u32>,
    /// Data-flow edges: argument `arg` is wired to the value upstream node
    /// `from_node` produced in its argument `from_arg` (as a grid data ref —
    /// the payload never leaves the SeDs).
    pub inputs: Vec<DagInput>,
    /// Registered expander run MA-side when this node completes, producing
    /// follow-up nodes from the result (the zoom fan-out: part-2 targets are
    /// only known once part 1's halo catalog exists).
    pub expander: Option<String>,
    /// Free-form parameters the expander reads (e.g. `max_zooms`).
    pub params: Vec<(String, String)>,
    /// Retry budget of each launch: at most `max_retries + 1` attempts,
    /// with finding misses, `Busy` bounces and transport faults all
    /// counting against it.
    pub max_retries: u32,
}

impl DagNodeSpec {
    pub fn new(id: u32, profile: Profile) -> Self {
        DagNodeSpec {
            id,
            profile,
            deps: Vec::new(),
            inputs: Vec::new(),
            expander: None,
            params: Vec::new(),
            max_retries: 2,
        }
    }
}

/// One data-flow edge of a [`DagNodeSpec`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DagInput {
    /// Argument index in this node's profile.
    pub arg: u32,
    /// Upstream node id (must also appear in `deps`).
    pub from_node: u32,
    /// Argument index of the upstream node's published output.
    pub from_arg: u32,
}

/// Node lifecycle states (wire-encoded as one byte).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DagNodeState {
    Pending = 0,
    Ready = 1,
    Placed = 2,
    Running = 3,
    Done = 4,
    Failed = 5,
    Cancelled = 6,
}

impl DagNodeState {
    /// Terminal states never transition again.
    pub fn is_terminal(self) -> bool {
        matches!(
            self,
            DagNodeState::Done | DagNodeState::Failed | DagNodeState::Cancelled
        )
    }
}

/// One progress event in a dag's ordered stream (polled via `DagStatus`).
#[derive(Debug, Clone, PartialEq)]
pub struct DagEventRec {
    /// Monotonic per-dag sequence number (the poll cursor).
    pub seq: u64,
    pub node: u32,
    pub state: DagNodeState,
    /// SeD label, error string, or other context for the transition.
    pub detail: String,
    /// Milliseconds since the dag was submitted.
    pub at_ms: u64,
}

/// Terminal record for one node.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct DagNodeOutcome {
    pub node: u32,
    /// Canonical service name (untagged).
    pub service: String,
    /// SeD whose reply won (empty if the node never ran).
    pub sed: String,
    /// 0 for a completed node; -1 for failed/cancelled.
    pub status: i32,
    pub attempts: u32,
    /// A speculative duplicate was launched for this node.
    pub speculated: bool,
    pub duration_ms: u64,
    /// Published outputs: `(arg index, grid data id)` — fetch through the
    /// pool from `sed` if the payload itself is wanted client-side.
    pub outputs: Vec<(u32, String)>,
    /// Scalar results kept inline (service status codes and the like).
    pub scalars: Vec<(u32, i64)>,
}

/// Terminal record for a whole dag.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct DagOutcome {
    pub dag_id: u64,
    /// Every node completed.
    pub ok: bool,
    pub makespan_ms: u64,
    /// Nodes cancelled (upstream failure or client disconnect).
    pub cancelled: u32,
    pub nodes: Vec<DagNodeOutcome>,
}

// ------------------------------------------------------------------- expanders

/// Everything an expander may consult when a node completes.
pub struct ExpandCtx<'a> {
    pub dag_id: u64,
    /// The completed node's id.
    pub node: u32,
    /// The completed node's reply profile (payload args collapsed to refs).
    pub reply: &'a Profile,
    /// The node's published outputs `(arg, id)`.
    pub outputs: &'a [(u32, String)],
    /// The node spec's parameters.
    pub params: &'a [(String, String)],
    /// Smallest node id not yet taken — expanders number new nodes from
    /// here up.
    pub next_id: u32,
    /// Pull a published value out of the grid (catalog lookup + SeD fetch) —
    /// the engine-side data plane; nothing reaches the submitting client.
    pub fetch: &'a dyn Fn(&str) -> Result<DietValue, DietError>,
}

impl ExpandCtx<'_> {
    pub fn param(&self, key: &str) -> Option<&str> {
        self.params
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }

    /// The published id of the completed node's argument `arg`.
    pub fn output_id(&self, arg: u32) -> Option<&str> {
        self.outputs
            .iter()
            .find(|(a, _)| *a == arg)
            .map(|(_, id)| id.as_str())
    }
}

/// A dynamic fan-out hook: turn one completed node into follow-up nodes.
pub type DagExpander =
    Arc<dyn Fn(&ExpandCtx<'_>) -> Result<Vec<DagNodeSpec>, DietError> + Send + Sync>;

// ------------------------------------------------------------------ run state

struct NodeRun {
    spec: DagNodeSpec,
    /// Untagged service name (what the hierarchy resolves).
    canonical: String,
    /// `svc@d<dag>.n<node>` — the collision-free publication namespace.
    tagged: String,
    state: DagNodeState,
    attempts: u32,
    /// SeDs currently holding an in-flight attempt (primary + speculative).
    placed_on: Vec<String>,
    launched_at: Option<Instant>,
    speculated: bool,
    detail: String,
    /// Winning reply (payload args collapsed to refs).
    reply: Option<Profile>,
    won_by: String,
    duration_ms: u64,
}

impl NodeRun {
    fn outcome(&self) -> DagNodeOutcome {
        let mut outputs = Vec::new();
        let mut scalars = Vec::new();
        if let Some(reply) = &self.reply {
            for (i, v) in reply.values.iter().enumerate() {
                match v {
                    DietValue::DataRef { id } => outputs.push((i as u32, id.clone())),
                    DietValue::ScalarI32(x) => scalars.push((i as u32, *x as i64)),
                    DietValue::ScalarI64(x) => scalars.push((i as u32, *x)),
                    _ => {}
                }
            }
        }
        DagNodeOutcome {
            node: self.spec.id,
            service: self.canonical.clone(),
            sed: self.won_by.clone(),
            status: if self.state == DagNodeState::Done {
                0
            } else {
                -1
            },
            attempts: self.attempts,
            speculated: self.speculated,
            duration_ms: self.duration_ms,
            outputs,
            scalars,
        }
    }
}

struct DagRun {
    id: u64,
    name: String,
    trace_id: u64,
    submitted: Instant,
    /// The submitting connection — a closed one cancels the dag.
    conn: Option<ConnHandle>,
    nodes: BTreeMap<u32, NodeRun>,
    events: Vec<DagEventRec>,
    seq: u64,
    /// Expanders that have been handed a `Done` node and have not yet
    /// inserted (or failed to produce) its children. The dag is not
    /// finished while one is in flight, even if every node is terminal.
    pending_expansions: usize,
    /// Held by the one expansion of this dag that runs at a time, from
    /// taking `next_id` to inserting its nodes: two expanders that finish
    /// together would otherwise number their nodes from the same id.
    expansion_turn: Arc<Mutex<()>>,
    outcome: Option<DagOutcome>,
}

impl DagRun {
    fn push_event(&mut self, node: u32, state: DagNodeState, detail: impl Into<String>) {
        self.seq += 1;
        self.events.push(DagEventRec {
            seq: self.seq,
            node,
            state,
            detail: detail.into(),
            at_ms: self.submitted.elapsed().as_millis() as u64,
        });
    }

    fn set_state(&mut self, node: u32, state: DagNodeState, detail: impl Into<String>) {
        let detail = detail.into();
        if let Some(n) = self.nodes.get_mut(&node) {
            n.state = state;
            if !detail.is_empty() {
                n.detail = detail.clone();
            }
        }
        self.push_event(node, state, detail);
    }

    fn finished(&self) -> bool {
        self.pending_expansions == 0 && self.nodes.values().all(|n| n.state.is_terminal())
    }

    /// Node ids whose deps are all `Done` and are still `Pending`.
    fn newly_ready(&self) -> Vec<u32> {
        self.nodes
            .values()
            .filter(|n| {
                n.state == DagNodeState::Pending
                    && n.spec.deps.iter().all(|d| {
                        self.nodes
                            .get(d)
                            .is_some_and(|up| up.state == DagNodeState::Done)
                    })
            })
            .map(|n| n.spec.id)
            .collect()
    }

    /// Transitively cancel every non-terminal descendant of `root`.
    fn cancel_descendants(&mut self, root: u32) -> usize {
        let mut doomed: HashSet<u32> = HashSet::new();
        doomed.insert(root);
        // Fixed point over the dependency edges (the node set is small).
        loop {
            let next: Vec<u32> = self
                .nodes
                .values()
                .filter(|n| {
                    !doomed.contains(&n.spec.id)
                        && !n.state.is_terminal()
                        && n.spec.deps.iter().any(|d| doomed.contains(d))
                })
                .map(|n| n.spec.id)
                .collect();
            if next.is_empty() {
                break;
            }
            doomed.extend(next);
        }
        doomed.remove(&root);
        let mut cancelled = 0;
        for id in doomed {
            if self.nodes.get(&id).is_some_and(|n| !n.state.is_terminal()) {
                self.set_state(id, DagNodeState::Cancelled, "upstream failed");
                cancelled += 1;
            }
        }
        cancelled
    }

    fn next_node_id(&self) -> u32 {
        self.nodes.keys().max().map(|m| m + 1).unwrap_or(0)
    }

    fn build_outcome(&self) -> DagOutcome {
        let nodes: Vec<DagNodeOutcome> = self.nodes.values().map(NodeRun::outcome).collect();
        DagOutcome {
            dag_id: self.id,
            ok: self.nodes.values().all(|n| n.state == DagNodeState::Done),
            makespan_ms: self.submitted.elapsed().as_millis() as u64,
            cancelled: self
                .nodes
                .values()
                .filter(|n| n.state == DagNodeState::Cancelled)
                .count() as u32,
            nodes,
        }
    }
}

// --------------------------------------------------------------------- engine

/// Tuning knobs for the engine.
#[derive(Debug, Clone)]
pub struct DagEngineConfig {
    /// Per-attempt call deadline against the chosen SeD.
    pub attempt_timeout: Duration,
    /// Straggler/disconnect sweep cadence.
    pub monitor_interval: Duration,
}

impl Default for DagEngineConfig {
    fn default() -> Self {
        DagEngineConfig {
            attempt_timeout: Duration::from_secs(60),
            monitor_interval: Duration::from_millis(20),
        }
    }
}

/// Launch a duplicate when a running node exceeds this multiple of the
/// running median duration for its service.
const SPECULATE_FACTOR: f64 = 3.0;

/// Median samples required before speculation arms.
const SPECULATE_MIN_SAMPLES: usize = 3;

/// One launch of a node, handed to a launch thread.
type Launch = Box<dyn FnOnce() + Send>;

/// The channels of an engine's parked launch threads, one each; `None`
/// once the engine is shut down.
type Parked = Mutex<Option<Vec<Sender<Launch>>>>;

/// Launch threads one engine keeps parked. A thread that finishes its
/// launch while this many are parked already exits instead; a burst
/// wider than this pays a thread start for each launch beyond it.
const PARKED_LAUNCHERS_MAX: usize = 32;

/// The MA-side workflow engine. One per served Master Agent; shares the
/// MA's [`Obs`](obs::Obs) so dag spans and `diet_dag_*` metrics land next
/// to the finding-phase telemetry.
pub struct DagEngine {
    ma: Arc<MasterAgent>,
    pool: Arc<TcpSedPool>,
    cfg: DagEngineConfig,
    obs: Arc<obs::Obs>,
    expanders: RwLock<HashMap<String, DagExpander>>,
    dags: Mutex<HashMap<u64, Arc<Mutex<DagRun>>>>,
    /// The admitted dags without an outcome yet: what the monitor sweeps
    /// and `diet_dag_running` counts. Finished dags stay only in `dags`.
    live: Mutex<HashMap<u64, Arc<Mutex<DagRun>>>>,
    next_dag: AtomicU64,
    /// Completed wall-clock durations per canonical service (speculation's
    /// running median).
    durations: Mutex<HashMap<String, RunningMedian>>,
    /// The straggler/disconnect sweep. Its tick holds only a `Weak`, so the
    /// last `Arc` may drop inside a tick; `Periodic` skips the self-join.
    monitor: Periodic,
    /// Idle launch threads (see [`launch`](Self::launch)). Each holds
    /// only a `Weak` to this list, so dropping the engine, or `shutdown`
    /// emptying it, ends them.
    parked: Arc<Parked>,
}

impl DagEngine {
    /// Stand the engine up next to an in-process MA handle. Spawns the
    /// monitor thread; it stops when the engine is dropped or
    /// [`shutdown`](Self::shutdown) is called.
    pub fn new(ma: Arc<MasterAgent>, pool: Arc<TcpSedPool>, cfg: DagEngineConfig) -> Arc<Self> {
        let obs = ma.obs();
        Arc::new_cyclic(|weak: &Weak<DagEngine>| {
            let weak = weak.clone();
            let monitor = Periodic::spawn(cfg.monitor_interval, move || {
                if let Some(eng) = weak.upgrade() {
                    eng.monitor_tick();
                }
            });
            DagEngine {
                ma,
                pool,
                cfg,
                obs,
                expanders: RwLock::new(HashMap::new()),
                dags: Mutex::new(HashMap::new()),
                live: Mutex::new(HashMap::new()),
                next_dag: AtomicU64::new(0),
                durations: Mutex::new(HashMap::new()),
                monitor,
                parked: Arc::new(Mutex::new(Some(Vec::new()))),
            }
        })
    }

    /// Stop the monitor thread and wait for it, and end the parked launch
    /// threads (deployment teardown). A launch still running finishes, and
    /// its thread exits instead of parking.
    pub fn shutdown(&self) {
        self.monitor.stop();
        self.parked.lock().take();
    }

    /// Register a dynamic fan-out hook under `name` (referenced by
    /// [`DagNodeSpec::expander`]).
    pub fn register_expander(&self, name: &str, f: DagExpander) {
        self.expanders.write().insert(name.to_string(), f);
    }

    /// Validate and admit a workflow; returns the dag id immediately (the
    /// client polls progress via [`status`](Self::status)). `conn`, when
    /// given, ties the dag's life to the submitting connection.
    pub fn submit(
        self: &Arc<Self>,
        spec: WorkflowSpec,
        ctx: TraceCtx,
        conn: Option<ConnHandle>,
    ) -> Result<u64, DietError> {
        validate_spec(&spec)?;
        let dag_id = self.next_dag.fetch_add(1, Ordering::Relaxed) + 1;
        let trace_id = if ctx.trace_id != 0 {
            ctx.trace_id
        } else {
            self.obs.tracer.new_trace()
        };
        let mut nodes = BTreeMap::new();
        for n in &spec.nodes {
            nodes.insert(n.id, self.node_run(dag_id, n));
        }
        let n_nodes = nodes.len();
        let run = Arc::new(Mutex::new(DagRun {
            id: dag_id,
            name: spec.name.clone(),
            trace_id,
            submitted: Instant::now(),
            conn,
            nodes,
            events: Vec::new(),
            seq: 0,
            pending_expansions: 0,
            expansion_turn: Arc::default(),
            outcome: None,
        }));
        self.dags.lock().insert(dag_id, run.clone());
        let m = &self.obs.metrics;
        m.counter("diet_dag_submitted_total").inc();
        m.counter("diet_dag_nodes_total").add(n_nodes as u64);
        {
            // Set under the lock, so racing admissions and finishes leave
            // the gauge at the last count, not an older one.
            let mut live = self.live.lock();
            live.insert(dag_id, run.clone());
            m.gauge("diet_dag_running").set(live.len() as f64);
        }
        // Roots launch immediately; everything else waits on its in-edges.
        let ready = run.lock().newly_ready();
        for id in ready {
            self.mark_ready_and_launch(&run, id);
        }
        Ok(dag_id)
    }

    /// Events after `since` (the poll cursor) plus the outcome once the
    /// dag is finished.
    pub fn status(
        &self,
        dag_id: u64,
        since: u64,
    ) -> Result<(Vec<DagEventRec>, Option<DagOutcome>), DietError> {
        let run = self
            .dags
            .lock()
            .get(&dag_id)
            .cloned()
            .ok_or_else(|| DietError::Rejected(format!("unknown dag {dag_id}")))?;
        let g = run.lock();
        let events = g.events.iter().filter(|e| e.seq > since).cloned().collect();
        Ok((events, g.outcome.clone()))
    }

    /// Outcome of a finished dag (None while it runs).
    pub fn outcome(&self, dag_id: u64) -> Option<DagOutcome> {
        let run = self.dags.lock().get(&dag_id).cloned()?;
        let g = run.lock();
        g.outcome.clone()
    }

    /// Dags admitted and not yet finished.
    pub fn running_dags(&self) -> usize {
        self.live.lock().len()
    }

    fn node_run(&self, dag_id: u64, spec: &DagNodeSpec) -> NodeRun {
        let canonical = spec.profile.service.clone();
        NodeRun {
            tagged: format!("{canonical}@d{dag_id}.n{}", spec.id),
            canonical,
            spec: spec.clone(),
            state: DagNodeState::Pending,
            attempts: 0,
            placed_on: Vec::new(),
            launched_at: None,
            speculated: false,
            detail: String::new(),
            reply: None,
            won_by: String::new(),
            duration_ms: 0,
        }
    }

    fn mark_ready_and_launch(self: &Arc<Self>, run: &Arc<Mutex<DagRun>>, node: u32) {
        {
            let mut g = run.lock();
            match g.nodes.get(&node) {
                Some(n) if n.state == DagNodeState::Pending => {}
                _ => return,
            }
            g.set_state(node, DagNodeState::Ready, "");
        }
        self.launch(run, node, false);
    }

    /// Start one launch of `node` (primary or speculative duplicate) on a
    /// parked launch thread, or on a new one when none is idle: a launch
    /// never waits for another to finish.
    fn launch(self: &Arc<Self>, run: &Arc<Mutex<DagRun>>, node: u32, speculative: bool) {
        let engine = self.clone();
        let run = run.clone();
        let launch: Launch = Box::new(move || engine.run_launch(&run, node, speculative));
        let idle = self.parked.lock().as_mut().and_then(Vec::pop);
        let launch = match idle {
            Some(idle) => match idle.send(launch) {
                Ok(()) => return,
                Err(SendError(launch)) => launch,
            },
            None => launch,
        };
        self.obs
            .metrics
            .counter("diet_dag_launch_threads_total")
            .inc();
        let parked = Arc::downgrade(&self.parked);
        std::thread::spawn(move || launch_thread(launch, parked));
    }

    /// One launch of a node: the client's retry loop over the in-process
    /// MA, with the node's own business in its attempt (the tagged profile,
    /// Placed → Running, the `DagNode` window) and its outcome applied once
    /// the loop returns.
    fn run_launch(self: &Arc<Self>, run: &Arc<Mutex<DagRun>>, node: u32, speculative: bool) {
        // ---- snapshot the node and wire its inputs -----------------------
        let (profile, tagged, policy, exclude, trace_id) = {
            let mut g = run.lock();
            let trace_id = g.trace_id;
            let Some(n) = g.nodes.get(&node) else { return };
            // A primary launch starts from Ready; a duplicate only joins a
            // live node, and must land somewhere new.
            let exclude = match (speculative, n.state) {
                (false, DagNodeState::Ready) => Vec::new(),
                (true, DagNodeState::Running) => n.placed_on.clone(),
                _ => return,
            };
            // Finding sees the canonical service; the attempt sends the
            // tagged one. Data-flow edges point at upstream publications.
            let mut profile = n.spec.profile.clone();
            for input in &n.spec.inputs {
                let Some(up) = g.nodes.get(&input.from_node) else {
                    continue;
                };
                let id = format!("{}#{}", up.tagged, input.from_arg);
                let idx = input.arg as usize;
                if idx < profile.values.len() {
                    profile.values[idx] = DietValue::data_ref(&id);
                    profile.persistence[idx] = Persistence::Persistent;
                }
            }
            let policy = RetryPolicy {
                attempt_timeout: self.cfg.attempt_timeout,
                max_retries: n.spec.max_retries,
                ..RetryPolicy::default()
            };
            let tagged = n.tagged.clone();
            let n = g.nodes.get_mut(&node).expect("found above, same lock");
            n.attempts += 1;
            (profile, tagged, policy, exclude, trace_id)
        };
        let parent = TraceCtx {
            trace_id,
            parent_span: 0,
        };
        let tracer = &self.obs.tracer;
        let (result, tally) = retry_loop(
            &*self.ma,
            None,
            parent,
            &profile,
            &policy,
            exclude,
            |placed: &Placement, mut p, ctx| {
                let label = &placed.label;
                {
                    let mut g = run.lock();
                    let n = match g.nodes.get_mut(&node) {
                        Some(n) if !n.state.is_terminal() => n,
                        // Won by the other attempt, or cancelled: stop.
                        _ => return Err(DietError::Rejected(format!("node {node} is over"))),
                    };
                    n.placed_on.push(label.clone());
                    if n.launched_at.is_none() || !speculative {
                        n.launched_at = Some(Instant::now());
                    }
                    if !speculative {
                        g.set_state(node, DagNodeState::Placed, "");
                    }
                    g.set_state(node, DagNodeState::Running, label.clone());
                }
                p.service = tagged.clone();
                let start_ns = tracer.now_ns();
                let res = self.pool.call_traced(label, p, policy.attempt_timeout, ctx);
                if trace_id != 0 {
                    tracer.record_window(trace_id, 0, "DagNode", label, start_ns, tracer.now_ns());
                }
                if res.is_err() {
                    let mut g = run.lock();
                    if let Some(n) = g.nodes.get_mut(&node) {
                        if let Some(pos) = n.placed_on.iter().position(|l| l == label) {
                            n.placed_on.remove(pos);
                        }
                    }
                }
                res
            },
            // The engine keeps no copy of a node's inputs to re-ship.
            |_, _| false,
        );
        self.obs
            .metrics
            .counter("diet_dag_node_retries_total")
            .add(tally.retries);
        if let Some(n) = run.lock().nodes.get_mut(&node) {
            n.attempts += tally.retries as u32;
        }
        match result {
            Ok((reply, stats, placed)) => {
                let took = stats.send + stats.queue_wait + stats.solve;
                let took = Duration::from_secs_f64(took);
                self.complete_node(run, node, &placed.label, reply, took);
            }
            Err(e) => self.fail_node(run, node, &e.to_string()),
        }
    }

    /// First completed attempt wins; later ones are speculation losers.
    fn complete_node(
        self: &Arc<Self>,
        run: &Arc<Mutex<DagRun>>,
        node: u32,
        label: &str,
        reply: Profile,
        took: Duration,
    ) {
        let m = &self.obs.metrics;
        let (canonical, expand_job) = {
            let mut g = run.lock();
            let Some(n) = g.nodes.get_mut(&node) else {
                return;
            };
            if n.state.is_terminal() {
                if n.state == DagNodeState::Done {
                    m.counter("diet_dag_spec_losses_total").inc();
                }
                return;
            }
            n.reply = Some(reply.clone());
            n.won_by = label.to_string();
            n.duration_ms = took.as_millis() as u64;
            let canonical = n.canonical.clone();
            let expander = n.spec.expander.clone();
            let params = n.spec.params.clone();
            let expand_job = expander.map(|name| (name, params, g.id));
            // Counted under the same lock as the `Done` transition, so the
            // monitor sweep never sees "all terminal" before the children.
            g.pending_expansions += usize::from(expand_job.is_some());
            g.set_state(node, DagNodeState::Done, label);
            (canonical, expand_job)
        };
        self.durations
            .lock()
            .entry(canonical)
            .or_default()
            .push(took);

        // ---- dynamic fan-out ----------------------------------------------
        if let Some((name, params, dag_id)) = expand_job {
            let expanded = self.expand(run, node, &name, &params, dag_id);
            let mut g = run.lock();
            g.pending_expansions -= 1;
            match expanded {
                Ok(new_nodes) => {
                    m.counter("diet_dag_nodes_total").add(new_nodes as u64);
                }
                Err(e) => {
                    // The fan-out source completed but its expansion is the
                    // dag's continuation — failing it fails the dag. The
                    // node is already `Done`, which `fail_node` would skip.
                    self.fail_locked(&mut g, node, &format!("expand {name}: {e}"));
                    drop(g);
                    self.maybe_finish(run);
                    return;
                }
            }
        }

        // ---- release downstream nodes -------------------------------------
        let ready = run.lock().newly_ready();
        for id in ready {
            self.mark_ready_and_launch(run, id);
        }
        self.maybe_finish(run);
    }

    /// Run a registered expander and insert the nodes it produced. One
    /// expansion per dag runs at a time, so `ExpandCtx::next_id` is still
    /// the smallest id not taken when its nodes go in.
    fn expand(
        self: &Arc<Self>,
        run: &Arc<Mutex<DagRun>>,
        node: u32,
        name: &str,
        params: &[(String, String)],
        dag_id: u64,
    ) -> Result<usize, DietError> {
        let expander = self
            .expanders
            .read()
            .get(name)
            .cloned()
            .ok_or_else(|| DietError::Rejected(format!("no expander {name:?} registered")))?;
        let turn = run.lock().expansion_turn.clone();
        let _turn = turn.lock();
        let (reply, outputs, next_id) = {
            let g = run.lock();
            let n = g
                .nodes
                .get(&node)
                .ok_or_else(|| DietError::Rejected("node vanished".into()))?;
            let reply = n
                .reply
                .clone()
                .ok_or_else(|| DietError::Rejected("no reply to expand".into()))?;
            (reply, n.outcome().outputs, g.next_node_id())
        };
        let catalog = self.ma.catalog();
        let pool = self.pool.clone();
        let fetch = move |id: &str| -> Result<DietValue, DietError> {
            let cat = catalog
                .as_ref()
                .ok_or_else(|| DietError::DataNotFound(id.to_string()))?;
            let rep = cat
                .locate(id)
                .ok_or_else(|| DietError::DataNotFound(id.to_string()))?;
            pool.get_data(&rep.sed, id, Duration::from_secs(30))
                .map(|(v, _)| v)
        };
        let ctx = ExpandCtx {
            dag_id,
            node,
            reply: &reply,
            outputs: &outputs,
            params,
            next_id,
            fetch: &fetch,
        };
        let new_nodes = expander(&ctx)?;
        let mut g = run.lock();
        let mut inserted = 0;
        for spec in new_nodes {
            if g.nodes.contains_key(&spec.id) {
                return Err(DietError::Rejected(format!(
                    "expander produced duplicate node id {}",
                    spec.id
                )));
            }
            let id = spec.id;
            let nr = self.node_run(g.id, &spec);
            g.nodes.insert(id, nr);
            g.push_event(
                id,
                DagNodeState::Pending,
                format!("expanded from node {node}"),
            );
            inserted += 1;
        }
        Ok(inserted)
    }

    fn fail_node(self: &Arc<Self>, run: &Arc<Mutex<DagRun>>, node: u32, detail: &str) {
        {
            let mut g = run.lock();
            match g.nodes.get(&node) {
                Some(n) if !n.state.is_terminal() => {}
                _ => return,
            }
            self.fail_locked(&mut g, node, detail);
        }
        self.maybe_finish(run);
    }

    fn fail_locked(&self, g: &mut DagRun, node: u32, detail: &str) {
        let m = &self.obs.metrics;
        g.set_state(node, DagNodeState::Failed, detail);
        m.counter("diet_dag_node_failures_total").inc();
        let cancelled = g.cancel_descendants(node);
        m.counter("diet_dag_cancelled_total").add(cancelled as u64);
    }

    /// Finalize the dag once every node is terminal.
    fn maybe_finish(self: &Arc<Self>, run: &Arc<Mutex<DagRun>>) {
        let m = &self.obs.metrics;
        let mut g = run.lock();
        if g.outcome.is_some() || !g.finished() {
            return;
        }
        let outcome = g.build_outcome();
        if outcome.ok {
            m.counter("diet_dag_completed_total").inc();
        } else {
            m.counter("diet_dag_failed_total").inc();
        }
        m.histogram("diet_dag_makespan_seconds")
            .observe(outcome.makespan_ms as f64 / 1e3);
        let finish_detail = format!(
            "dag {} finished ({})",
            g.name,
            if outcome.ok { "ok" } else { "failed" }
        );
        g.push_event(
            u32::MAX,
            if outcome.ok {
                DagNodeState::Done
            } else {
                DagNodeState::Failed
            },
            finish_detail,
        );
        g.outcome = Some(outcome);
        let id = g.id;
        drop(g);
        let mut live = self.live.lock();
        live.remove(&id);
        m.gauge("diet_dag_running").set(live.len() as f64);
    }

    /// The periodic sweep: client-disconnect cancellation and straggler
    /// speculation.
    fn monitor_tick(self: &Arc<Self>) {
        let runs: Vec<Arc<Mutex<DagRun>>> = self.live.lock().values().cloned().collect();
        let m = &self.obs.metrics;
        for run in runs {
            // ---- cancel-on-disconnect -------------------------------------
            let mut spec_targets: Vec<u32> = Vec::new();
            {
                let mut g = run.lock();
                if g.outcome.is_some() {
                    continue;
                }
                if g.conn.as_ref().is_some_and(|c| c.is_closed()) {
                    let doomed: Vec<u32> = g
                        .nodes
                        .values()
                        .filter(|n| matches!(n.state, DagNodeState::Pending | DagNodeState::Ready))
                        .map(|n| n.spec.id)
                        .collect();
                    for id in &doomed {
                        g.set_state(*id, DagNodeState::Cancelled, "client disconnected");
                    }
                    m.counter("diet_dag_cancelled_total")
                        .add(doomed.len() as u64);
                    // Running nodes drain; the dag finalizes via the sweep.
                }
                // ---- straggler speculation --------------------------------
                let durations = self.durations.lock();
                for n in g.nodes.values() {
                    if n.state != DagNodeState::Running || n.speculated {
                        continue;
                    }
                    let Some(at) = n.launched_at else { continue };
                    let Some(samples) = durations.get(&n.canonical) else {
                        continue;
                    };
                    if samples.len() < SPECULATE_MIN_SAMPLES {
                        continue;
                    }
                    let Some(med) = samples.median() else {
                        continue;
                    };
                    if at.elapsed().as_secs_f64() > SPECULATE_FACTOR * med.as_secs_f64() {
                        spec_targets.push(n.spec.id);
                    }
                }
                drop(durations);
                for id in &spec_targets {
                    if let Some(n) = g.nodes.get_mut(id) {
                        n.speculated = true;
                    }
                    g.push_event(*id, DagNodeState::Running, "speculative duplicate launched");
                }
            }
            for id in spec_targets {
                m.counter("diet_dag_speculative_launches_total").inc();
                self.launch(&run, id, true);
            }
            self.maybe_finish(&run);
        }
    }
}

/// A launch thread: run `launch`, then park on a channel of its own until
/// the engine hands it the next one. It exits when `PARKED_LAUNCHERS_MAX`
/// threads are parked already, or once the engine is dropped or shut down.
/// A launch that panics unwinds this thread and no other. Nothing a launch
/// leaves behind reaches the next: each is a closure over its own node,
/// and the engine keeps no thread-local state.
fn launch_thread(mut launch: Launch, parked: Weak<Parked>) {
    loop {
        launch();
        let (tx, rx) = channel();
        {
            let Some(parked) = parked.upgrade() else {
                return;
            };
            let mut parked = parked.lock();
            match parked.as_mut() {
                Some(idle) if idle.len() < PARKED_LAUNCHERS_MAX => idle.push(tx),
                _ => return,
            }
        }
        match rx.recv() {
            Ok(next) => launch = next,
            Err(_) => return,
        }
    }
}

/// One service's completed durations, split at the median so a sweep reads
/// it in O(1) however many have completed: `hi` holds the larger half (one
/// more when the count is odd), so its least element is `sorted[len / 2]`.
#[derive(Default)]
struct RunningMedian {
    /// The smaller half, largest on top.
    lo: BinaryHeap<Duration>,
    /// The larger half, smallest on top.
    hi: BinaryHeap<Reverse<Duration>>,
}

impl RunningMedian {
    fn len(&self) -> usize {
        self.lo.len() + self.hi.len()
    }

    fn push(&mut self, x: Duration) {
        match self.hi.peek() {
            Some(Reverse(m)) if x < *m => self.lo.push(x),
            _ => self.hi.push(Reverse(x)),
        }
        if self.hi.len() > self.lo.len() + 1 {
            let Reverse(m) = self.hi.pop().expect("hi is the longer half");
            self.lo.push(m);
        } else if self.lo.len() > self.hi.len() {
            let m = self.lo.pop().expect("lo is the longer half");
            self.hi.push(Reverse(m));
        }
    }

    /// The upper median, `sorted[len / 2]`; `None` before any sample.
    fn median(&self) -> Option<Duration> {
        self.hi.peek().map(|Reverse(m)| *m)
    }
}

/// Structural admission checks: unique ids, edges referencing real nodes,
/// input args in range, and acyclicity (Kahn's algorithm).
fn validate_spec(spec: &WorkflowSpec) -> Result<(), DietError> {
    if spec.nodes.is_empty() {
        return Err(DietError::Rejected("empty workflow".into()));
    }
    let mut ids = HashSet::new();
    for n in &spec.nodes {
        if !ids.insert(n.id) {
            return Err(DietError::Rejected(format!("duplicate node id {}", n.id)));
        }
        if n.profile.service.contains('@') {
            return Err(DietError::Rejected(format!(
                "service name {:?} may not contain '@' (reserved for dag tagging)",
                n.profile.service
            )));
        }
    }
    for n in &spec.nodes {
        for d in &n.deps {
            if !ids.contains(d) {
                return Err(DietError::Rejected(format!(
                    "node {} depends on unknown node {d}",
                    n.id
                )));
            }
            if *d == n.id {
                return Err(DietError::Rejected(format!(
                    "node {} depends on itself",
                    n.id
                )));
            }
        }
        for i in &n.inputs {
            if !n.deps.contains(&i.from_node) {
                return Err(DietError::Rejected(format!(
                    "node {} wires input from node {} without depending on it",
                    n.id, i.from_node
                )));
            }
            if i.arg as usize >= n.profile.values.len() {
                return Err(DietError::Rejected(format!(
                    "node {} input arg {} out of range",
                    n.id, i.arg
                )));
            }
        }
    }
    // Kahn: repeatedly strip nodes whose deps are all stripped.
    let mut remaining: HashMap<u32, Vec<u32>> =
        spec.nodes.iter().map(|n| (n.id, n.deps.clone())).collect();
    let mut stripped: HashSet<u32> = HashSet::new();
    loop {
        let next: Vec<u32> = remaining
            .iter()
            .filter(|(_, deps)| deps.iter().all(|d| stripped.contains(d)))
            .map(|(id, _)| *id)
            .collect();
        if next.is_empty() {
            break;
        }
        for id in next {
            remaining.remove(&id);
            stripped.insert(id);
        }
    }
    if !remaining.is_empty() {
        let mut cyclic: Vec<u32> = remaining.into_keys().collect();
        cyclic.sort();
        return Err(DietError::Rejected(format!(
            "workflow has a dependency cycle through nodes {cyclic:?}"
        )));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profile::{ArgTag, ProfileDesc};

    fn svc_desc() -> ProfileDesc {
        let mut d = ProfileDesc::alloc("svc", 0, 0, 1);
        d.set_arg(0, ArgTag::Scalar).unwrap();
        d.set_arg(1, ArgTag::Scalar).unwrap();
        d
    }

    fn node(id: u32, deps: &[u32]) -> DagNodeSpec {
        let mut n = DagNodeSpec::new(id, Profile::alloc(&svc_desc()));
        n.deps = deps.to_vec();
        n
    }

    #[test]
    fn validates_structure() {
        let ok = WorkflowSpec {
            name: "w".into(),
            nodes: vec![node(0, &[]), node(1, &[0]), node(2, &[0, 1])],
        };
        assert!(validate_spec(&ok).is_ok());

        assert!(validate_spec(&WorkflowSpec::default()).is_err());

        let dup = WorkflowSpec {
            name: "w".into(),
            nodes: vec![node(0, &[]), node(0, &[])],
        };
        assert!(validate_spec(&dup).is_err());

        let dangling = WorkflowSpec {
            name: "w".into(),
            nodes: vec![node(0, &[9])],
        };
        assert!(validate_spec(&dangling).is_err());

        let cycle = WorkflowSpec {
            name: "w".into(),
            nodes: vec![node(0, &[1]), node(1, &[0])],
        };
        let err = validate_spec(&cycle).unwrap_err();
        assert!(err.to_string().contains("cycle"), "{err}");
    }

    #[test]
    fn validates_input_edges() {
        let mut n1 = node(1, &[]);
        n1.inputs = vec![DagInput {
            arg: 0,
            from_node: 0,
            from_arg: 1,
        }];
        // Wiring from node 0 without depending on it is rejected.
        let spec = WorkflowSpec {
            name: "w".into(),
            nodes: vec![node(0, &[]), n1.clone()],
        };
        assert!(validate_spec(&spec).is_err());
        n1.deps = vec![0];
        let spec = WorkflowSpec {
            name: "w".into(),
            nodes: vec![node(0, &[]), n1.clone()],
        };
        assert!(validate_spec(&spec).is_ok());
        // Arg index out of range.
        n1.inputs[0].arg = 9;
        let spec = WorkflowSpec {
            name: "w".into(),
            nodes: vec![node(0, &[]), n1],
        };
        assert!(validate_spec(&spec).is_err());
    }

    #[test]
    fn tagged_service_names_rejected_in_specs() {
        let mut n = node(0, &[]);
        n.profile.service = "svc@d1.n0".into();
        let spec = WorkflowSpec {
            name: "w".into(),
            nodes: vec![n],
        };
        assert!(validate_spec(&spec).is_err());
    }

    #[test]
    fn node_states_roundtrip_as_bytes() {
        for s in [
            DagNodeState::Pending,
            DagNodeState::Ready,
            DagNodeState::Placed,
            DagNodeState::Running,
            DagNodeState::Done,
            DagNodeState::Failed,
            DagNodeState::Cancelled,
        ] {
            assert_eq!(DagNodeState::from_u8(s as u8), Some(s));
        }
        assert_eq!(DagNodeState::from_u8(7), None);
        assert!(DagNodeState::Done.is_terminal());
        assert!(!DagNodeState::Running.is_terminal());
    }

    #[test]
    fn cancel_descendants_is_transitive() {
        let spec = WorkflowSpec {
            name: "w".into(),
            nodes: vec![node(0, &[]), node(1, &[0]), node(2, &[1]), node(3, &[])],
        };
        let mut nodes = BTreeMap::new();
        for n in &spec.nodes {
            nodes.insert(
                n.id,
                NodeRun {
                    tagged: format!("svc@d1.n{}", n.id),
                    canonical: "svc".into(),
                    spec: n.clone(),
                    state: DagNodeState::Pending,
                    attempts: 0,
                    placed_on: vec![],
                    launched_at: None,
                    speculated: false,
                    detail: String::new(),
                    reply: None,
                    won_by: String::new(),
                    duration_ms: 0,
                },
            );
        }
        let mut run = DagRun {
            id: 1,
            name: "w".into(),
            trace_id: 0,
            submitted: Instant::now(),
            conn: None,
            nodes,
            events: vec![],
            seq: 0,
            pending_expansions: 0,
            expansion_turn: Arc::default(),
            outcome: None,
        };
        run.set_state(0, DagNodeState::Failed, "boom");
        assert_eq!(run.cancel_descendants(0), 2);
        assert_eq!(run.nodes[&1].state, DagNodeState::Cancelled);
        assert_eq!(run.nodes[&2].state, DagNodeState::Cancelled);
        // The independent sibling is untouched.
        assert_eq!(run.nodes[&3].state, DagNodeState::Pending);
    }

    proptest::proptest! {
        /// The two-heap median is the sort-based one the sweep used to
        /// compute, `sorted[len / 2]` of the durations in seconds, after
        /// every sample, ties and repeats included.
        #[test]
        fn running_median_is_the_sorted_median(
            xs in proptest::collection::vec(0u64..50, 1..200)
        ) {
            let mut m = RunningMedian::default();
            let mut seen = Vec::new();
            for x in xs {
                let x = Duration::from_micros(125 * x);
                m.push(x);
                seen.push(x.as_secs_f64());
                let mut sorted = seen.clone();
                sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
                proptest::prop_assert_eq!(m.len(), seen.len());
                let median = m.median().map(|d| d.as_secs_f64());
                proptest::prop_assert_eq!(median, Some(sorted[sorted.len() / 2]));
            }
        }
    }

    /// `diet_dag_running` and `running_dags` count the dags without an
    /// outcome: N admitted dags held at a gate read N, and 0 once released
    /// and finished, however many finished dags the engine still keeps.
    #[test]
    fn running_gauge_counts_unfinished_dags() {
        use crate::data::DietValue;
        use crate::deploy::{SedSpec, TcpTopologySpec};
        use crate::sched::RoundRobin;
        use crate::sed::{ServiceTable, SolveFn};
        use std::sync::{Condvar, Mutex as StdMutex};

        const N: usize = 5;
        let gate = Arc::new((StdMutex::new(false), Condvar::new()));
        let table = {
            let gate = gate.clone();
            move |_: &SedSpec| {
                let gate = gate.clone();
                let solve: SolveFn = Arc::new(move |p: &mut Profile| {
                    let (open, cv) = &*gate;
                    let mut open = open.lock().unwrap();
                    while !*open {
                        open = cv.wait(open).unwrap();
                    }
                    let x = p.get_i32(0)?;
                    p.set(1, DietValue::ScalarI32(x), Persistence::Volatile)?;
                    Ok(0)
                });
                let mut t = ServiceTable::init(1);
                t.add(svc_desc(), solve).unwrap();
                t
            }
        };
        let d = TcpTopologySpec {
            ma_name: "ma".into(),
            ma_seds: vec![SedSpec {
                label: "s0".into(),
                speed_factor: 1.0,
            }],
            sites: vec![],
            admission_limit: None,
            child_timeout_ms: 5_000,
        }
        .deploy(Arc::new(RoundRobin::new()), table)
        .unwrap();
        let gauge = d.obs.metrics.gauge("diet_dag_running");
        let submit = |i: usize| {
            let mut root = node(0, &[]);
            root.profile
                .set(0, DietValue::ScalarI32(i as i32), Persistence::Volatile)
                .unwrap();
            let spec = WorkflowSpec {
                name: format!("w{i}"),
                nodes: vec![root],
            };
            d.dag.submit(spec, TraceCtx::default(), None).unwrap()
        };
        let wait_all = |ids: &[u64]| {
            let deadline = Instant::now() + Duration::from_secs(20);
            while ids.iter().any(|id| d.dag.outcome(*id).is_none()) {
                assert!(Instant::now() < deadline, "dags did not finish");
                std::thread::sleep(Duration::from_millis(2));
            }
        };

        let held: Vec<u64> = (0..N).map(submit).collect();
        assert_eq!((d.dag.running_dags(), gauge.get()), (N, N as f64));
        {
            let (open, cv) = &*gate;
            *open.lock().unwrap() = true;
            cv.notify_all();
        }
        wait_all(&held);
        assert_eq!((d.dag.running_dags(), gauge.get()), (0, 0.0));
        for id in &held {
            assert!(d.dag.outcome(*id).unwrap().ok);
        }
        // Finished dags stay queryable but are no longer counted.
        let more: Vec<u64> = (N..2 * N).map(submit).collect();
        wait_all(&more);
        assert_eq!((d.dag.running_dags(), gauge.get()), (0, 0.0));
        assert!(d.dag.status(held[0], 0).unwrap().1.is_some());
        d.shutdown();
    }
}

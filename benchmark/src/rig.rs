//! What every workload shares: the seeded generator, the no-compute
//! services, in-process deployments over loopback TCP (with or without
//! telemetry shipping), repeated set-up, and timed probe loops.

use diet_core::agent::{AgentNode, MasterAgent};
use diet_core::dag::{DagEngine, DagEngineConfig};
use diet_core::dagda::ReplicaCatalog;
use diet_core::data::{DietValue, Persistence};
use diet_core::deploy::{SedSpec, TcpDeployment, TcpTopologySpec, TelemetrySpec};
use diet_core::hierarchy::{
    serve_ma_over_tcp_with_dag, serve_sed_over_tcp, AgentConfig, RemoteAgentClient,
};
use diet_core::jobserver::{serve_jobserver_over_tcp, JobClient, JobServer, JobServerConfig};
use diet_core::profile::{ArgTag, Profile, ProfileDesc};
use diet_core::sched::RoundRobin;
use diet_core::sed::{SedConfig, SedHandle, ServiceTable, SolveFn};
use diet_core::transport::{ServerConfig, TcpSedPool, TcpServer};
use diet_core::{
    serve_collector_over_tcp, Collector, DietClient, TelemetryConfig, TelemetryFlusher,
};
use obs::{MetricSnapshot, Obs};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Caller threads a workload may use: the load generator is one process
/// with at most this many threads and client connections per endpoint.
pub fn callers() -> usize {
    nproc().min(2)
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// A run sets its deployment up at least this often, and keeps going (up
/// to the maximum) until it has spent the budget; `setup_s` is the median.
const SETUP_ROUNDS_MIN: usize = 3;
const SETUP_ROUNDS_MAX: usize = 9;
const SETUP_BUDGET: Duration = Duration::from_secs(2);

/// Telemetry flush interval in the traced pass.
const FLUSH_INTERVAL: Duration = Duration::from_millis(200);

// ------------------------------------------------------------------ inputs

/// SplitMix64: the only source of variation between runs. Everything a
/// workload sends is derived from `--seed` through one of these.
pub struct SplitMix64(u64);

impl SplitMix64 {
    pub fn new(seed: u64) -> Self {
        SplitMix64(seed)
    }

    /// An independent stream for caller `k` of the same run.
    pub fn fork(&self, k: u64) -> Self {
        SplitMix64(self.0 ^ (k + 1).wrapping_mul(0xA076_1D64_78BD_642F))
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut x = self.0;
        x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        x ^ (x >> 31)
    }

    pub fn next_i32(&mut self) -> i32 {
        self.next_u64() as i32
    }

    pub fn bytes(&mut self, n: usize) -> Vec<u8> {
        let mut out = Vec::with_capacity(n + 8);
        while out.len() < n {
            out.extend_from_slice(&self.next_u64().to_le_bytes());
        }
        out.truncate(n);
        out
    }
}

/// FNV-1a, for result digests.
pub fn fnv1a(h: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(h, |h, b| {
        (h ^ *b as u64).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

pub const FNV_SEED: u64 = 0xcbf2_9ce4_8422_2325;

// ---------------------------------------------------------------- services

pub fn echo_desc() -> ProfileDesc {
    let mut d = ProfileDesc::alloc("echo", 0, 0, 1);
    d.set_arg(0, ArgTag::Scalar).unwrap();
    d.set_arg(1, ArgTag::Scalar).unwrap();
    d
}

/// `echo`: i32 in, the same i32 out. The kernel does nothing, so every
/// microsecond of a call is middleware.
pub fn echo_table() -> ServiceTable {
    let solve: SolveFn = Arc::new(|p: &mut Profile| {
        let x = p.get_i32(0)?;
        p.set(1, DietValue::ScalarI32(x), Persistence::Volatile)?;
        Ok(0)
    });
    let mut t = ServiceTable::init(1);
    t.add(echo_desc(), solve).unwrap();
    t
}

pub fn echo_profile(x: i32) -> Profile {
    let mut p = Profile::alloc(&echo_desc());
    p.set(0, DietValue::ScalarI32(x), Persistence::Volatile)
        .unwrap();
    p
}

// --------------------------------------------------------------- telemetry

/// The traced pass's collector: every component of a deployment ships its
/// spans and metric deltas here, and the per-layer counters are read back
/// from the one merged registry.
pub struct Telemetry {
    pub collector: Arc<Collector>,
    server: TcpServer,
}

impl Telemetry {
    pub fn start() -> Telemetry {
        let collector = Arc::new(Collector::new());
        let server =
            serve_collector_over_tcp(collector.clone(), "127.0.0.1:0", ServerConfig::default())
                .expect("bind collector");
        Telemetry { collector, server }
    }

    pub fn spec(&self) -> TelemetrySpec {
        TelemetrySpec {
            collector: self.server.local_addr,
            interval: FLUSH_INTERVAL,
        }
    }

    /// A flusher for an `Obs` the benchmark owns (clients, the jobserver).
    pub fn flusher(&self, obs: Arc<Obs>, role: &str, label: &str) -> TelemetryFlusher {
        TelemetryFlusher::spawn(
            obs,
            TelemetryConfig::new(self.server.local_addr, role, label)
                .site("bench")
                .interval(FLUSH_INTERVAL),
        )
    }

    pub fn spans_shipped(&self) -> u64 {
        self.collector.sources().iter().map(|(_, h)| h.spans).sum()
    }

    pub fn metrics(&self) -> Metrics {
        Metrics(self.collector.obs.metrics.snapshot())
    }

    pub fn stop(self) {
        self.server.kill();
    }
}

/// A point-in-time registry snapshot with the few reductions the per-layer
/// table needs. Sums run across every label set of a name.
pub struct Metrics(Vec<(String, obs::Labels, MetricSnapshot)>);

impl Metrics {
    pub fn counter(&self, name: &str) -> f64 {
        self.0
            .iter()
            .filter(|(n, _, _)| n == name)
            .fold(0.0, |sum, (_, _, m)| match m {
                MetricSnapshot::Counter(c) => sum + *c as f64,
                _ => sum,
            })
    }

    /// `(sum, count)` of a histogram.
    pub fn hist(&self, name: &str) -> (f64, f64) {
        let mut out = (0.0, 0.0);
        for (n, _, m) in &self.0 {
            if let (true, MetricSnapshot::Histogram { sum, count, .. }) = (n == name, m) {
                out.0 += sum;
                out.1 += *count as f64;
            }
        }
        out
    }

    /// Quantile of a histogram merged across label sets: the upper bound of
    /// the bucket holding the rank, as the program's own exporter reports it.
    pub fn hist_quantile(&self, name: &str, q: f64) -> f64 {
        let mut merged: Option<(Vec<f64>, Vec<u64>)> = None;
        for (n, _, m) in &self.0 {
            if let (true, MetricSnapshot::Histogram { bounds, counts, .. }) = (n == name, m) {
                match &mut merged {
                    None => merged = Some((bounds.clone(), counts.clone())),
                    Some((b, c)) if b == bounds => {
                        c.iter_mut().zip(counts).for_each(|(a, x)| *a += x)
                    }
                    Some(_) => {}
                }
            }
        }
        let Some((bounds, counts)) = merged else {
            return 0.0;
        };
        let total: u64 = counts.iter().sum();
        if total == 0 {
            return 0.0;
        }
        let rank = (q * total as f64).ceil().max(1.0) as u64;
        let mut cum = 0;
        for (i, c) in counts.iter().enumerate() {
            cum += c;
            if cum >= rank {
                return bounds[i.min(bounds.len() - 1)];
            }
        }
        *bounds.last().unwrap()
    }
}

// ------------------------------------------------------------- deployments

/// Stand a `TcpTopologySpec::chain` up in this process: with one shared
/// `Obs` in the untraced pass, with per-component telemetry flushers
/// shipping to `telemetry`'s collector in the traced pass.
pub fn deploy_chain(
    depth: usize,
    seds: usize,
    table: impl Fn() -> ServiceTable,
    telemetry: Option<&Telemetry>,
) -> TcpDeployment {
    let spec = TcpTopologySpec::chain(depth, seds);
    let sched = Arc::new(RoundRobin::new());
    let table_for = |_: &SedSpec| table();
    match telemetry {
        Some(t) => spec.deploy_with_telemetry(sched, table_for, &t.spec()),
        None => spec.deploy(sched, table_for),
    }
    .expect("deploy topology")
}

/// MA + SeDs with **bounded** data stores, every edge a loopback socket.
///
/// `TcpTopologySpec` spawns its SeDs with unbounded stores; the data-plane
/// workloads publish hundreds of MiB per run, so they wire the same
/// components by hand (as `exp_data_reuse` does) to get
/// `SedConfig::with_data_capacity` and LRU eviction in steady state.
pub struct FlatGrid {
    pub ma_client: Arc<RemoteAgentClient>,
    pub pool: Arc<TcpSedPool>,
    pub seds: Vec<Arc<SedHandle>>,
    pub catalog: Arc<ReplicaCatalog>,
    ma_server: TcpServer,
    sed_servers: Vec<TcpServer>,
    dag: Arc<DagEngine>,
    flushers: Vec<TelemetryFlusher>,
}

impl FlatGrid {
    pub fn deploy(
        n_seds: usize,
        capacity: u64,
        table: impl Fn() -> ServiceTable,
        telemetry: Option<&Telemetry>,
    ) -> FlatGrid {
        let shared = Arc::new(Obs::new());
        let component_obs = || match telemetry {
            Some(_) => Arc::new(Obs::new()),
            None => shared.clone(),
        };
        let mut flushers = Vec::new();
        let pool = Arc::new(TcpSedPool::new());
        let catalog = Arc::new(ReplicaCatalog::new());
        let mut seds = Vec::new();
        let mut sed_servers = Vec::new();
        for i in 0..n_seds {
            let label = format!("flat/s{i}");
            let obs = component_obs();
            let sed = SedHandle::spawn_with_obs(
                SedConfig::new(&label, 1.0).with_data_capacity(capacity),
                table(),
                obs.clone(),
            );
            let server = serve_sed_over_tcp(sed.clone()).expect("bind SeD");
            pool.register(&label, server.local_addr);
            sed.set_resolver(pool.clone());
            if let Some(t) = telemetry {
                flushers.push(t.flusher(obs, "sed", &label));
            }
            seds.push(sed);
            sed_servers.push(server);
        }
        let ma_obs = component_obs();
        let ma = MasterAgent::new_with_obs(
            "MA-flat",
            vec![AgentNode::leaf("MA-flat/local", seds.clone())],
            Arc::new(RoundRobin::new()),
            ma_obs.clone(),
        );
        ma.register_catalog(catalog.clone());
        let dag = DagEngine::new(ma.clone(), pool.clone(), DagEngineConfig::default());
        let ma_server = serve_ma_over_tcp_with_dag(
            ma,
            vec![],
            "127.0.0.1:0",
            AgentConfig {
                obs: ma_obs.clone(),
                ..AgentConfig::default()
            },
            dag.clone(),
        )
        .expect("bind MA");
        if let Some(t) = telemetry {
            flushers.push(t.flusher(ma_obs, "ma", "MA-flat"));
        }
        let ma_client = RemoteAgentClient::new("MA-flat", ma_server.local_addr);
        FlatGrid {
            ma_client,
            pool,
            seds,
            catalog,
            ma_server,
            sed_servers,
            dag,
            flushers,
        }
    }

    pub fn label(&self, i: usize) -> &str {
        &self.seds[i].config.label
    }

    /// Ship every component's pending telemetry now.
    pub fn flush_telemetry(&self) {
        for f in &self.flushers {
            let _ = f.flush_now();
        }
    }

    pub fn shutdown(mut self) {
        self.dag.shutdown();
        self.ma_server.kill();
        for s in &self.sed_servers {
            s.kill();
        }
        for s in &self.seds {
            s.shutdown();
        }
        for f in &mut self.flushers {
            f.shutdown();
        }
    }
}

/// One client session per caller thread, each with its own `Obs`; in the
/// traced pass each ships its spans and metrics to the collector too.
pub fn caller_clients(telemetry: Option<&Telemetry>) -> (Vec<DietClient>, Vec<TelemetryFlusher>) {
    let mut flushers = Vec::new();
    let clients = (0..callers())
        .map(|k| {
            let obs = Arc::new(Obs::new());
            if let Some(t) = telemetry {
                flushers.push(t.flusher(obs.clone(), "client", &format!("caller-{k}")));
            }
            DietClient::initialize_distributed(obs)
        })
        .collect();
    (clients, flushers)
}

/// A durable jobserver in front of a deployment, served over loopback.
pub struct JobRig {
    pub js: Arc<JobServer>,
    pub job: Arc<JobClient>,
    /// The jobserver's data directory (WAL and snapshots).
    pub dir: PathBuf,
    server: TcpServer,
    flusher: Option<TelemetryFlusher>,
}

impl JobRig {
    /// `configure` adjusts the default `JobServerConfig` (two dispatchers).
    pub fn up(
        d: &TcpDeployment,
        telemetry: Option<&Telemetry>,
        configure: impl FnOnce(&mut JobServerConfig),
    ) -> JobRig {
        let dir = work_dir("jobs");
        let mut cfg = JobServerConfig::new(&dir);
        cfg.workers = 2;
        configure(&mut cfg);
        let obs = Arc::new(Obs::new());
        let js = JobServer::spawn(cfg, d.ma_client.clone(), d.pool.clone(), obs.clone())
            .expect("spawn jobserver");
        let server = serve_jobserver_over_tcp(js.clone(), "127.0.0.1:0", ServerConfig::default())
            .expect("bind jobserver");
        let job = JobClient::with_timeout(server.local_addr, Duration::from_secs(10));
        let flusher = telemetry.map(|t| t.flusher(obs, "jobserver", "jobserver"));
        JobRig {
            js,
            job,
            dir,
            server,
            flusher,
        }
    }

    pub fn flush_telemetry(&self) {
        if let Some(f) = &self.flusher {
            f.flush_now().expect("flush jobserver telemetry");
        }
    }

    pub fn down(self) {
        self.js.shutdown();
        self.server.kill();
        drop(self.flusher);
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

// ------------------------------------------------------------------ set-up

/// Set the deployment up several times, tearing all but the last down,
/// and return the last one with the median set-up time in seconds. Warm-up
/// belongs inside `setup`: a round ends when the deployment has served its
/// warm-up traffic. Cheap set-ups get more rounds, so the median of a
/// 50 ms set-up is not at the mercy of one descheduled thread.
pub fn repeat_setup<D>(setup: impl Fn() -> D, teardown: impl Fn(D)) -> (D, f64) {
    let began = Instant::now();
    let mut times = Vec::new();
    loop {
        let t = Instant::now();
        let d = setup();
        times.push(t.elapsed().as_secs_f64());
        let enough = times.len() >= SETUP_ROUNDS_MIN && began.elapsed() >= SETUP_BUDGET;
        if enough || times.len() == SETUP_ROUNDS_MAX {
            return (d, crate::stats::median(&times));
        }
        teardown(d);
    }
}

/// Run `f(k)` on `n` caller threads at once; what each returns, in order.
pub fn on_callers<T: Send>(n: usize, f: impl Fn(usize) -> T + Sync) -> Vec<T> {
    std::thread::scope(|s| {
        let f = &f;
        let handles: Vec<_> = (0..n).map(|k| s.spawn(move || f(k))).collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("caller thread panicked"))
            .collect()
    })
}

/// A scratch directory under `benchmark/out/work`, inside the checkout,
/// emptied on creation.
pub fn work_dir(tag: &str) -> PathBuf {
    let dir = Path::new(crate::OUT_DIR)
        .join("work")
        .join(format!("{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create work dir");
    dir
}

// ------------------------------------------------------------------ probes

/// Median seconds per call of `f`, over batches sized to run ~5 ms each
/// for ~60 ms in total — a layer probe, not a benchmark of its own.
pub fn time_per_call<R>(mut f: impl FnMut() -> R) -> f64 {
    let t = Instant::now();
    std::hint::black_box(f());
    let once = t.elapsed().as_secs_f64().max(1e-9);
    let per_batch = ((5e-3 / once) as usize).clamp(1, 1_000_000);
    let batches = ((60e-3 / (once * per_batch as f64)) as usize).clamp(3, 12);
    let mut per_call = Vec::with_capacity(batches);
    for _ in 0..batches {
        let t = Instant::now();
        for _ in 0..per_batch {
            std::hint::black_box(f());
        }
        per_call.push(t.elapsed().as_secs_f64() / per_batch as f64);
    }
    crate::stats::median(&per_call)
}

pub const MIB: f64 = 1024.0 * 1024.0;

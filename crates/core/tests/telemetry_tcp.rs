//! Distributed telemetry end to end: a 3-level topology where every
//! component (MA, two LAs, two SeDs, the client) keeps a *private* `Obs`
//! and ships it to one collector process over the wire — nothing shared
//! but sockets. The collector must reassemble what the single-process
//! deployments got for free: one stitched trace per request and one
//! merged metrics registry.

use diet_core::data::{DietValue, Persistence};
use diet_core::deploy::{TcpTopologySpec, TelemetrySpec};
use diet_core::profile::{ArgTag, Profile, ProfileDesc};
use diet_core::sched::RoundRobin;
use diet_core::sed::{ServiceTable, SolveFn};
use diet_core::transport::{ServerConfig, TcpSedPool};
use diet_core::{
    serve_collector_over_tcp, Collector, DietClient, RetryPolicy, TelemetryConfig, TelemetryFlusher,
};
use obs::Obs;
use std::sync::Arc;
use std::time::Duration;

fn table(service: &'static str) -> ServiceTable {
    let mut d = ProfileDesc::alloc(service, 0, 0, 1);
    d.set_arg(0, ArgTag::Scalar).unwrap();
    let solve: SolveFn = Arc::new(|p: &mut Profile| {
        let x = p.get_i32(0)?;
        p.set(1, DietValue::ScalarI32(x + 1), Persistence::Volatile)?;
        Ok(0)
    });
    let mut t = ServiceTable::init(2);
    t.add(d, solve).unwrap();
    t
}

fn request(service: &str, x: i32) -> Profile {
    let mut d = ProfileDesc::alloc(service, 0, 0, 1);
    d.set_arg(0, ArgTag::Scalar).unwrap();
    let mut p = Profile::alloc(&d);
    p.set(0, DietValue::ScalarI32(x), Persistence::Volatile)
        .unwrap();
    p
}

fn policy() -> RetryPolicy {
    RetryPolicy {
        attempt_timeout: Duration::from_secs(10),
        max_retries: 6,
        backoff_base: Duration::from_millis(20),
        backoff_cap: Duration::from_millis(200),
        jitter: 0.5,
    }
}

/// A flush interval long enough that nothing ships unless the test says so
/// — every assertion below runs against explicit, acked flushes.
const MANUAL: Duration = Duration::from_secs(3600);

/// The tentpole, end to end: each process's private telemetry crosses the
/// wire and the collector reassembles (a) one stitched trace covering
/// every hop of a request, (b) a merged registry whose counters equal the
/// per-process sums, (c) a topology/health view of every reporting
/// process, and (d) its own reactor's instrumentation in the same scrape.
#[test]
fn collector_stitches_cross_process_traces_and_merges_metrics() {
    let collector = Arc::new(Collector::new());
    let col_server =
        serve_collector_over_tcp(collector.clone(), "127.0.0.1:0", ServerConfig::default())
            .unwrap();
    let col_addr = col_server.local_addr;

    // MA -> la1 -> la2 -> 2 SeDs, every component with a private Obs and
    // its own flusher pointed at the collector.
    let spec = TcpTopologySpec::chain(3, 2);
    let d = spec
        .deploy_with_telemetry(
            Arc::new(RoundRobin::new()),
            |_| table("echo"),
            &TelemetrySpec {
                collector: col_addr,
                interval: MANUAL,
            },
        )
        .unwrap();
    assert_eq!(d.flushers.len(), 5, "MA + 2 LAs + 2 SeDs each flush");

    // The client is its own "process": private Obs, own flusher.
    let client_obs = Arc::new(Obs::new());
    let client = DietClient::initialize_distributed(client_obs.clone());
    let client_flusher = TelemetryFlusher::spawn(
        client_obs.clone(),
        TelemetryConfig::new(col_addr, "client", "client-0")
            .site("workstation")
            .interval(MANUAL),
    );

    // The first request walks the tree (the MA holds no estimates yet);
    // the rest are found from what that walk left held.
    const CALLS: usize = 6;
    let mut walked_trace = None;
    for i in 0..CALLS {
        let (out, stats) = client
            .call_distributed(&d.ma_client, &d.pool, request("echo", i as i32), &policy())
            .unwrap();
        assert_eq!(out.get_i32(1).unwrap(), i as i32 + 1);
        walked_trace.get_or_insert(stats.trace_id);
    }
    let walked_trace = walked_trace.unwrap();

    // Nothing has shipped yet: the collector knows no sources and holds no
    // spans for the trace.
    assert!(collector.sources().is_empty());
    assert!(collector.trace(walked_trace).is_empty());

    // Ship everything, synchronously (each flush waits for its ack).
    assert_eq!(d.flush_telemetry(), 0, "component flushes failed");
    client_flusher.flush_now().unwrap();
    assert_eq!(client_flusher.flush_errors(), 0);

    // (a) One stitched trace covers every hop of the walking request, across
    // five distinct processes' recordings: the client's Finding/Submission,
    // both interior agents' estimate windows, the winning SeD's queue and
    // solve windows, and the serving loop's result return.
    let trace = collector.trace(walked_trace);
    for phase in [
        "Finding",
        "Submission",
        "AgentEstimate",
        "Queued",
        "Execution",
        "ResultReturn",
    ] {
        assert!(
            trace.iter().any(|s| s.name == phase),
            "stitched trace missing {phase}: {trace:?}"
        );
    }
    for hop in ["la1", "la2"] {
        assert!(
            trace
                .iter()
                .any(|s| s.name == "AgentEstimate" && s.resource == hop),
            "trace missing the {hop} hop: {trace:?}"
        );
    }
    // Sorted by start time, and the client's side of the request (the
    // attempt envelope, then its Finding window) opens before the SeD
    // executes — the cross-process ordering survived the wire.
    assert!(trace.windows(2).all(|w| w[0].start_ns <= w[1].start_ns));
    assert!(matches!(trace.first().unwrap().name, "attempt" | "Finding"));
    let start = |name| trace.iter().find(|s| s.name == name).unwrap().start_ns;
    assert!(start("Finding") <= start("Execution"));

    // (b) Merged counters equal the per-process sums. Each SeD's solve
    // counter carries its label, so the merged registry must agree with
    // the SeD's private registry exactly — and the labeled totals must add
    // up to the calls made.
    let mut total = 0;
    for sed in &d.seds {
        let label = sed.config.label.clone();
        let local = sed
            .obs()
            .metrics
            .counter_with("diet_sed_solves_total", &[("sed", &label)])
            .get();
        let merged = collector
            .obs
            .metrics
            .counter_with("diet_sed_solves_total", &[("sed", &label)])
            .get();
        assert_eq!(merged, local, "merged solve count for {label}");
        total += merged;
    }
    assert_eq!(total as usize, CALLS);

    // (c) The topology view lists every reporting process under its site.
    let topo = collector.view("topology");
    for needle in ["site la2", "d3/s0", "d3/s1", "la1", "ma", "client-0"] {
        assert!(topo.contains(needle), "topology missing {needle}:\n{topo}");
    }
    assert_eq!(collector.sources().len(), 6, "5 components + 1 client");

    // (d) The collector's own Prometheus scrape — fetched over the wire
    // through the correlated dump — includes the merged component series
    // AND the collector reactor's own instrumentation.
    let pool = TcpSedPool::new();
    pool.register("collector", col_addr);
    let prom = pool
        .dump_metrics_correlated("collector", "", Duration::from_secs(5))
        .unwrap();
    for series in [
        "diet_sed_solves_total",
        "diet_reactor_tick_seconds",
        "diet_reactor_dispatch_depth",
        "diet_reactor_write_queue_bytes",
        "diet_collector_spans_ingested_total",
    ] {
        assert!(prom.contains(series), "scrape missing {series}");
    }
    // Chrome export of the merged trace store also serves over the wire.
    let chrome = pool
        .dump_metrics_correlated("collector", "chrome", Duration::from_secs(5))
        .unwrap();
    assert!(chrome.contains("\"Finding\""), "chrome export: {chrome}");

    drop(client_flusher);
    d.shutdown();
    col_server.stop();
}

/// Shutdown is a flush: killing a telemetry deployment ships each
/// component's tail before the flusher threads exit, so a run that never
/// hit its flush interval still reaches the collector intact.
#[test]
fn deployment_shutdown_ships_the_telemetry_tail() {
    let collector = Arc::new(Collector::new());
    let col_server =
        serve_collector_over_tcp(collector.clone(), "127.0.0.1:0", ServerConfig::default())
            .unwrap();

    let spec = TcpTopologySpec::chain(2, 1);
    let d = spec
        .deploy_with_telemetry(
            Arc::new(RoundRobin::new()),
            |_| table("echo"),
            &TelemetrySpec {
                collector: col_server.local_addr,
                interval: MANUAL,
            },
        )
        .unwrap();
    let client_obs = Arc::new(Obs::new());
    let client = DietClient::initialize_distributed(client_obs);
    let (out, stats) = client
        .call_distributed(&d.ma_client, &d.pool, request("echo", 1), &policy())
        .unwrap();
    assert_eq!(out.get_i32(1).unwrap(), 2);

    assert!(collector.trace(stats.trace_id).is_empty());
    d.shutdown(); // final flush happens here, synchronously

    let trace = collector.trace(stats.trace_id);
    assert!(
        trace.iter().any(|s| s.name == "Execution"),
        "tail flush missing the SeD's solve window: {trace:?}"
    );
    assert!(
        collector
            .obs
            .metrics
            .counter_with("diet_sed_solves_total", &[("sed", "d2/s0")])
            .get()
            >= 1
    );
    col_server.stop();
}

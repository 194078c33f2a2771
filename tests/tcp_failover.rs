//! Live analogue of experiment E9 (failure recovery): a SeD is killed in
//! the middle of a request burst running over real TCP sockets, and the
//! fault-tolerant client path — resubmission through the Master Agent,
//! failure reporting, heartbeat-driven deregistration — must drain the
//! burst with zero lost requests.
//!
//! The paper ran its campaigns on Grid'5000, where "nodes died mid-run";
//! this test reproduces that failure mode end to end: codec, socket,
//! SeD worker, retry engine.

use cosmogrid::namelist::default_run_namelist;
use cosmogrid::services::{cosmology_service_table, status, zoom1_profile};
use diet_core::agent::{AgentNode, HeartbeatMonitor, MasterAgent};
use diet_core::client::{DietClient, RetryPolicy};
use diet_core::hierarchy::serve_sed_over_tcp;
use diet_core::sched::RoundRobin;
use diet_core::sed::{SedConfig, SedHandle};
use diet_core::transport::TcpSedPool;
use std::sync::Arc;
use std::time::{Duration, Instant};

const BURST: usize = 30;

/// A burst of instant-turnaround requests: an invalid resolution makes the
/// solve return `BAD_RESOLUTION` immediately while still exercising the
/// full path (codec, socket, SeD queue, solve, reply).
fn quick_profile() -> diet_core::profile::Profile {
    let mut nl = default_run_namelist(8, 50.0);
    nl.set("OUTPUT_PARAMS", "aout", "0.5");
    zoom1_profile(&nl, 7)
}

#[test]
fn sed_killed_mid_burst_over_tcp_loses_no_requests() {
    // Three SeDs, each behind its own real TCP server.
    let seds: Vec<Arc<SedHandle>> = (0..3)
        .map(|i| {
            SedHandle::spawn(
                SedConfig::new(&format!("ft/{i}"), 1.0),
                cosmology_service_table(),
            )
        })
        .collect();
    let servers: Vec<_> = seds
        .iter()
        .map(|s| serve_sed_over_tcp(s.clone()).expect("bind"))
        .collect();

    let pool = TcpSedPool::new();
    for (sed, srv) in seds.iter().zip(&servers) {
        pool.register(&sed.config.label, srv.local_addr);
    }

    let la = AgentNode::leaf("LA", seds.clone());
    let ma = MasterAgent::new("MA", vec![la], Arc::new(RoundRobin::new()));
    let monitor = HeartbeatMonitor::spawn(
        ma.clone(),
        Duration::from_millis(25),
        Duration::from_millis(200),
        2,
    );
    let client = DietClient::initialize(ma.clone());

    // The victim's worker crashes while holding its 4th request: the
    // serving loop severs the connection without a reply, so the client
    // sees a transport fault mid-burst.
    let victim = &seds[1];
    victim.faults().kill_at_request(4);

    let policy = RetryPolicy {
        attempt_timeout: Duration::from_secs(10),
        max_retries: 3,
        backoff_base: Duration::from_millis(5),
        backoff_cap: Duration::from_millis(50),
        ..RetryPolicy::default()
    };

    let mut total_retries = 0u32;
    for i in 0..BURST {
        let (out, stats) = client
            .call_over_tcp(&pool, quick_profile(), &policy)
            .unwrap_or_else(|e| panic!("request {i} lost: {e}"));
        assert_eq!(out.get_i32(3).unwrap(), status::BAD_RESOLUTION);
        total_retries += stats.retries;
    }

    // Zero lost requests, and at least one of them had to be resubmitted
    // through the MA after the crash.
    assert_eq!(client.history().len(), BURST);
    assert!(
        total_retries >= 1,
        "the killed SeD should have forced at least one resubmission"
    );

    // The client's registry agrees with the per-call stats: every request
    // counted, every resubmission counted, none failed.
    let cm = client.metrics();
    assert_eq!(cm.counter_value("diet_client_requests_total"), BURST as u64);
    assert_eq!(
        cm.counter_value("diet_client_resubmissions_total"),
        total_retries as u64
    );
    assert_eq!(cm.counter_value("diet_client_failures_total"), 0);

    // The dead SeD was deregistered, and the undeliverable reply was
    // counted rather than swallowed.
    assert_eq!(ma.deregistered(), vec!["ft/1".to_string()]);
    assert_eq!(ma.sed_count(), 2);
    assert!(
        victim.reply_failures() >= 1,
        "serving loop must record the reply it could not deliver"
    );
    assert!(!victim.is_alive());

    // Work after the crash kept flowing to the survivors.
    assert_eq!(
        seds[0].completed() + seds[2].completed(),
        BURST as u64 - victim.completed()
    );

    // Liveness alone — no client traffic — must also evict a dead server:
    // shut down a survivor's worker and wait for the heartbeat monitor to
    // notice the missed pings and deregister it.
    seds[2].shutdown();
    let deadline = Instant::now() + Duration::from_secs(5);
    while !ma.deregistered().contains(&"ft/2".to_string()) {
        assert!(
            Instant::now() < deadline,
            "heartbeat monitor never deregistered the shut-down SeD"
        );
        std::thread::sleep(Duration::from_millis(10));
    }
    assert_eq!(ma.sed_count(), 1);

    // The MA-side registry mirrors what the assertions above observed
    // structurally: two SeDs gone (crash + heartbeat), at least one
    // eviction driven purely by missed beats, and a live beat counter.
    let mm = ma.metrics();
    assert_eq!(mm.counter_value("diet_ma_sed_deregistered_total"), 2);
    assert!(mm.counter_value("diet_heartbeat_evictions_total") >= 1);
    assert!(mm.counter_value("diet_heartbeat_misses_total") >= 2);
    assert!(mm.counter_value("diet_heartbeat_beats_total") > 0);
    assert!(mm.counter_value("diet_ma_failure_reports_total") >= 1);

    monitor.stop();
    for srv in &servers {
        srv.stop();
    }
    seds[0].shutdown();
}

#[test]
fn tcp_timeout_resubmits_to_another_server() {
    // Two SeDs; one stalls far past the attempt deadline. The client's
    // per-attempt timeout must fire and the request must land on the
    // healthy server — no lost request, exactly one retry.
    let slow = SedHandle::spawn(SedConfig::new("tt/slow", 1.0), cosmology_service_table());
    let fast = SedHandle::spawn(SedConfig::new("tt/fast", 1.0), cosmology_service_table());
    slow.faults().set_stall(Duration::from_secs(5));

    let srv_slow = serve_sed_over_tcp(slow.clone()).expect("bind");
    let srv_fast = serve_sed_over_tcp(fast.clone()).expect("bind");
    let pool = TcpSedPool::new();
    pool.register("tt/slow", srv_slow.local_addr);
    pool.register("tt/fast", srv_fast.local_addr);

    let la = AgentNode::leaf("LA", vec![slow.clone(), fast.clone()]);
    let ma = MasterAgent::new("MA", vec![la], Arc::new(RoundRobin::new()));
    let client = DietClient::initialize(ma.clone());

    let policy = RetryPolicy {
        attempt_timeout: Duration::from_millis(150),
        max_retries: 2,
        backoff_base: Duration::from_millis(1),
        backoff_cap: Duration::from_millis(5),
        ..RetryPolicy::default()
    };

    let (out, stats) = client
        .call_over_tcp(&pool, quick_profile(), &policy)
        .expect("request must survive the stalled server");
    assert_eq!(out.get_i32(3).unwrap(), status::BAD_RESOLUTION);
    // Whichever server was tried first, the call finished; if the stalled
    // one was tried first, exactly one resubmission happened.
    assert!(stats.retries <= 1);

    let (_, stats2) = client
        .call_over_tcp(&pool, quick_profile(), &policy)
        .expect("second request must also survive");
    assert!(
        stats.retries + stats2.retries >= 1,
        "one of the two calls must have hit the stalled server and retried"
    );

    srv_slow.stop();
    srv_fast.stop();
    slow.shutdown();
    fast.shutdown();
}

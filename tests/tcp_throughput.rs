//! Soak test for the pipelined, multiplexed serving path: ≥64 concurrent
//! callers share one multiplexed connection per SeD, a SeD is killed in the
//! middle of the run, and every caller must still get *its own* reply —
//! zero lost requests, zero mis-correlated replies.
//!
//! Run at `RAYON_NUM_THREADS=1` and `4` by the CI matrix; the serving path
//! itself is plain OS threads, so the sweep guards against width-dependent
//! scheduling assumptions leaking into the transport.

use diet_core::agent::{AgentNode, HeartbeatMonitor, MasterAgent};
use diet_core::client::{DietClient, RetryPolicy};
use diet_core::data::{DietValue, Persistence};
use diet_core::hierarchy::serve_sed_over_tcp;
use diet_core::profile::{ArgTag, Profile, ProfileDesc};
use diet_core::sched::RoundRobin;
use diet_core::sed::{SedConfig, SedHandle, ServiceTable, SolveFn};
use diet_core::transport::TcpSedPool;
use std::sync::Arc;
use std::time::Duration;

const CALLERS: usize = 64;
const CALLS_PER_CALLER: usize = 2;

/// An injective transform of the input: if replies were ever routed to the
/// wrong waiter, the caller's output check below would catch it.
fn expected(x: i32) -> i32 {
    x.wrapping_mul(31).wrapping_add(7)
}

/// `mark31`: OUT(1) = 31·IN(0) + 7, instant turnaround. The full path —
/// codec, socket, admission, SeD queue, solve, correlated reply — is
/// exercised while keeping the solve itself negligible, so the test
/// saturates the *serving* layer, not the simulator.
fn mark_table() -> ServiceTable {
    let mut d = ProfileDesc::alloc("mark31", 0, 0, 1);
    d.set_arg(0, ArgTag::Scalar).unwrap();
    d.set_arg(1, ArgTag::Scalar).unwrap();
    let solve: SolveFn = Arc::new(|p: &mut Profile| {
        let x = p.get_i32(0)?;
        p.set(1, DietValue::ScalarI32(expected(x)), Persistence::Volatile)?;
        Ok(0)
    });
    let mut t = ServiceTable::init(1);
    t.add(d, solve).unwrap();
    t
}

fn mark_profile(x: i32) -> Profile {
    let mut d = ProfileDesc::alloc("mark31", 0, 0, 1);
    d.set_arg(0, ArgTag::Scalar).unwrap();
    d.set_arg(1, ArgTag::Scalar).unwrap();
    let mut p = Profile::alloc(&d);
    p.set(0, DietValue::ScalarI32(x), Persistence::Volatile)
        .unwrap();
    p
}

#[test]
fn pipelined_soak_with_mid_run_kill_loses_and_miscorrelates_nothing() {
    // Two SeDs behind real TCP servers; one dies mid-run.
    let seds: Vec<Arc<SedHandle>> = (0..2)
        .map(|i| SedHandle::spawn(SedConfig::new(&format!("tp/{i}"), 1.0), mark_table()))
        .collect();
    let servers: Vec<_> = seds
        .iter()
        .map(|s| serve_sed_over_tcp(s.clone()).expect("bind"))
        .collect();

    let pool = Arc::new(TcpSedPool::new());
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
    let client = Arc::new(DietClient::initialize(ma.clone()));

    // The victim's worker crashes while holding its 20th request. The
    // serving loop severs the connection, which poisons every waiter
    // multiplexed onto it — all of them must resubmit and still succeed.
    let victim = seds[1].clone();
    victim.faults().kill_at_request(20);

    let policy = RetryPolicy {
        attempt_timeout: Duration::from_secs(20),
        max_retries: 4,
        backoff_base: Duration::from_millis(5),
        backoff_cap: Duration::from_millis(50),
        jitter: 0.5,
    };

    let handles: Vec<_> = (0..CALLERS)
        .map(|i| {
            let client = client.clone();
            let pool = pool.clone();
            std::thread::spawn(move || {
                for j in 0..CALLS_PER_CALLER {
                    let x = (i * CALLS_PER_CALLER + j) as i32;
                    let (out, _) = client
                        .call_over_tcp(&pool, mark_profile(x), &policy)
                        .unwrap_or_else(|e| panic!("caller {i} call {j} lost: {e}"));
                    // Correlation: the reply must be the one computed from
                    // OUR input, not any of the other 127 in flight.
                    assert_eq!(
                        out.get_i32(1).unwrap(),
                        expected(x),
                        "caller {i} call {j} got someone else's reply"
                    );
                }
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }

    let total = CALLERS * CALLS_PER_CALLER;
    assert_eq!(client.history().len(), total);
    let cm = client.metrics();
    assert_eq!(cm.counter_value("diet_client_requests_total"), total as u64);
    assert_eq!(cm.counter_value("diet_client_failures_total"), 0);

    // Pipelining evidence: the callers shared per-label multiplexed
    // connections instead of dialing per request. Budget: one dial per
    // label plus a handful of redials after the crash severed tp/1's
    // connection (concurrent callers may race to redial a dead mux).
    assert!(
        pool.dials() <= 8,
        "expected shared mux connections, saw {} dials for {total} requests",
        pool.dials()
    );
    // And the surviving connection really carried many requests at once.
    let peak = seds
        .iter()
        .map(|s| pool.peak_inflight(&s.config.label))
        .max()
        .unwrap();
    assert!(
        peak >= 4,
        "expected >=4 overlapping in-flight requests on one connection, saw {peak}"
    );

    // The dead SeD was noticed and routed around.
    assert!(ma.deregistered().contains(&"tp/1".to_string()));
    assert!(!victim.is_alive());

    monitor.stop();
    for srv in &servers {
        srv.stop();
    }
    seds[0].shutdown();
}

#[test]
fn overload_yields_busy_backoff_not_timeouts() {
    // One SeD with a tiny admission limit and a per-request stall: a burst
    // of concurrent callers must overrun the queue. Overrun requests get an
    // explicit `Busy` and back off (with jitter) until the queue drains —
    // nobody times out, nobody is lost, and the healthy-but-loaded SeD is
    // never treated as failed.
    let sed = SedHandle::spawn(
        SedConfig::new("ov/0", 1.0).with_admission_limit(4),
        mark_table(),
    );
    sed.faults().set_stall(Duration::from_millis(5));
    let server = serve_sed_over_tcp(sed.clone()).expect("bind");
    let pool = Arc::new(TcpSedPool::new());
    pool.register("ov/0", server.local_addr);

    let la = AgentNode::leaf("LA", vec![sed.clone()]);
    let ma = MasterAgent::new("MA", vec![la], Arc::new(RoundRobin::new()));
    let client = Arc::new(DietClient::initialize(ma.clone()));

    let policy = RetryPolicy {
        attempt_timeout: Duration::from_secs(20),
        max_retries: 12,
        backoff_base: Duration::from_millis(10),
        backoff_cap: Duration::from_millis(200),
        jitter: 0.5,
    };

    let handles: Vec<_> = (0..32)
        .map(|i| {
            let client = client.clone();
            let pool = pool.clone();
            std::thread::spawn(move || {
                let (out, _) = client
                    .call_over_tcp(&pool, mark_profile(i), &policy)
                    .unwrap_or_else(|e| panic!("caller {i} lost under overload: {e}"));
                assert_eq!(out.get_i32(1).unwrap(), expected(i));
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }

    let cm = client.metrics();
    // 32 callers against an admission limit of 4: overload was real and the
    // explicit Busy path carried it, with zero timeouts and zero failures.
    assert!(
        cm.counter_value("diet_client_busy_total") >= 1,
        "overload never produced a Busy rejection"
    );
    assert_eq!(cm.counter_value("diet_client_failures_total"), 0);
    assert_eq!(cm.counter_value("diet_client_requests_total"), 32);
    // Busy is backpressure, not failure: the SeD was never blamed for it.
    assert!(ma.deregistered().is_empty());
    assert!(sed.is_alive());
    // And the SeD-side admission counter agrees that it pushed back.
    assert!(sed.obs().metrics.counter_value("diet_sed_busy_total") >= 1);

    server.stop();
    sed.shutdown();
}

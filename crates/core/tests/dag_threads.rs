//! `DagEngine::shutdown` joins the engine's monitor and ends its parked
//! launch threads: once it returns, the process is back to the threads it
//! had before `DagEngine::new`. In between, launches reuse parked threads
//! instead of starting one each.
//!
//! The tests take turns (`serial`) and compare thread ids, not counts,
//! leaving out the harness's threads: the harness may start the thread of
//! one test, or end that of another, while a test counts.

use diet_core::dag::{DagNodeSpec, WorkflowSpec};
use diet_core::data::{DietValue, Persistence};
use diet_core::deploy::{SedSpec, TcpTopologySpec};
use diet_core::profile::{ArgTag, Profile, ProfileDesc};
use diet_core::sched::RoundRobin;
use diet_core::sed::{ServiceTable, SolveFn};
use diet_core::transport::TcpSedPool;
use diet_core::{DagEngine, DagEngineConfig, MasterAgent, TraceCtx};
use std::collections::BTreeSet;
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::{Duration, Instant};

/// The threads the harness runs this binary's tests on.
static HARNESS: Mutex<BTreeSet<u32>> = Mutex::new(BTreeSet::new());

/// Note the calling test's thread in [`HARNESS`], then wait for its turn.
fn serial() -> MutexGuard<'static, ()> {
    static TURN: Mutex<()> = Mutex::new(());
    let me = std::fs::read_link("/proc/thread-self").expect("read /proc/thread-self");
    let me = me.file_name().and_then(|t| t.to_str()?.parse().ok());
    lock(&HARNESS).insert(me.expect("a thread id ends /proc/thread-self"));
    lock(&TURN)
}

fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

/// The ids of the process's threads. A listing of `/proc/self/task` can
/// skip a live thread while others end, so it is taken again until it
/// holds as many ids as the `Threads:` count of `/proc/self/status` on
/// either side of it.
fn threads() -> BTreeSet<u32> {
    let count = || {
        let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
        status
            .lines()
            .find_map(|l| l.strip_prefix("Threads:"))
            .and_then(|v| v.trim().parse::<usize>().ok())
            .expect("no Threads: line in /proc/self/status")
    };
    let deadline = Instant::now() + Duration::from_secs(5);
    loop {
        let n = count();
        let ids: BTreeSet<u32> = std::fs::read_dir("/proc/self/task")
            .expect("list /proc/self/task")
            .filter_map(|task| task.ok()?.file_name().to_str()?.parse().ok())
            .collect();
        if (ids.len() == n && count() == n) || Instant::now() > deadline {
            return ids;
        }
    }
}

/// Threads alive now that were not in `before`, the harness's left out.
fn started_since(before: &BTreeSet<u32>) -> usize {
    let harness = lock(&HARNESS);
    threads()
        .difference(before)
        .filter(|t| !harness.contains(t))
        .count()
}

/// [`started_since`], once it falls to 0 or a deadline passes. The kernel
/// takes an ended thread off the list a moment after it returns; that
/// moment is microseconds, not a sweep interval.
fn left_over(before: &BTreeSet<u32>) -> usize {
    let settle = Instant::now() + Duration::from_millis(200);
    while started_since(before) > 0 && Instant::now() < settle {
        std::thread::yield_now();
    }
    started_since(before)
}

#[test]
fn shutdown_joins_the_monitor() {
    let _turn = serial();
    let ma = MasterAgent::new("MA", vec![], Arc::new(RoundRobin::new()));
    let pool = Arc::new(TcpSedPool::new());
    // A monitor still asleep at the count would stay there for a minute.
    let cfg = DagEngineConfig {
        monitor_interval: Duration::from_secs(60),
        ..DagEngineConfig::default()
    };
    let before = threads();
    let engine = DagEngine::new(ma, pool, cfg);
    assert_eq!(started_since(&before), 1, "the monitor is one thread");
    engine.shutdown();
    assert_eq!(left_over(&before), 0, "shutdown left the monitor running");
}

fn echo_desc() -> ProfileDesc {
    let mut d = ProfileDesc::alloc("echo", 0, 0, 1);
    d.set_arg(0, ArgTag::Scalar).unwrap();
    d.set_arg(1, ArgTag::Scalar).unwrap();
    d
}

fn echo_table(_: &SedSpec) -> ServiceTable {
    let solve: SolveFn = Arc::new(|p: &mut Profile| {
        let x = p.get_i32(0)?;
        p.set(1, DietValue::ScalarI32(x), Persistence::Volatile)?;
        Ok(0)
    });
    let mut t = ServiceTable::init(1);
    t.add(echo_desc(), solve).unwrap();
    t
}

/// Submit a one-node dag and wait for its outcome.
fn run_one(engine: &Arc<DagEngine>, i: i32) {
    let mut profile = Profile::alloc(&echo_desc());
    profile
        .set(0, DietValue::ScalarI32(i), Persistence::Volatile)
        .unwrap();
    let spec = WorkflowSpec {
        name: format!("one-{i}"),
        nodes: vec![DagNodeSpec::new(0, profile)],
    };
    let id = engine.submit(spec, TraceCtx::default(), None).unwrap();
    let deadline = Instant::now() + Duration::from_secs(20);
    loop {
        if let Some(outcome) = engine.outcome(id) {
            assert!(outcome.ok, "dag {i} failed: {outcome:?}");
            assert!(outcome.nodes[0].scalars.contains(&(1, i as i64)));
            return;
        }
        assert!(Instant::now() < deadline, "dag {i} did not finish");
        std::thread::sleep(Duration::from_millis(1));
    }
}

/// 50 one-node dags, one after another, over a one-SeD TCP topology: at
/// most two launches are ever in flight (the next dag's, and the last
/// one's thread on its way back to park), so at most two launch threads
/// start, not 50; and `shutdown` ends the parked ones.
#[test]
fn launch_threads_are_parked_and_reused() {
    let _turn = serial();
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
    .deploy(Arc::new(RoundRobin::new()), echo_table)
    .unwrap();
    // Dial the SeD and start whatever it starts on a first call before
    // the count.
    run_one(&d.dag, -1);
    let launch_threads = || d.obs.metrics.counter_value("diet_dag_launch_threads_total");
    let cfg = DagEngineConfig {
        monitor_interval: Duration::from_secs(60),
        ..DagEngineConfig::default()
    };
    let before = threads();
    let started = launch_threads();
    let engine = DagEngine::new(d.ma.clone(), d.pool.clone(), cfg);
    for i in 0..50 {
        run_one(&engine, i);
    }
    let started = launch_threads() - started;
    assert!(
        (1..=2).contains(&started),
        "{started} launch threads started for 50 launches in a row"
    );
    engine.shutdown();
    assert_eq!(left_over(&before), 0, "shutdown left launch threads parked");
    d.shutdown();
}

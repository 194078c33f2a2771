//! `DagEngine::shutdown` joins the engine's monitor: once it returns, the
//! process is back to the threads it had before `DagEngine::new`.
//!
//! One test in its own binary: nothing else in the process starts or ends
//! threads while it counts.

use diet_core::sched::RoundRobin;
use diet_core::transport::TcpSedPool;
use diet_core::{DagEngine, DagEngineConfig, MasterAgent};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The `Threads:` line of `/proc/self/status`.
fn thread_count() -> usize {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    status
        .lines()
        .find_map(|l| l.strip_prefix("Threads:"))
        .and_then(|v| v.trim().parse().ok())
        .expect("no Threads: line in /proc/self/status")
}

#[test]
fn shutdown_joins_the_monitor() {
    let ma = MasterAgent::new("MA", vec![], Arc::new(RoundRobin::new()));
    let pool = Arc::new(TcpSedPool::new());
    // A monitor still asleep at the count would stay there for a minute.
    let cfg = DagEngineConfig {
        monitor_interval: Duration::from_secs(60),
        ..DagEngineConfig::default()
    };
    let before = thread_count();
    let engine = DagEngine::new(ma, pool, cfg);
    assert_eq!(thread_count(), before + 1, "the monitor is one thread");
    engine.shutdown();
    // The kernel takes a joined thread off the count a moment after the
    // join returns; that moment is microseconds, not a sweep interval.
    let settle = Instant::now() + Duration::from_millis(200);
    while thread_count() > before && Instant::now() < settle {
        std::thread::yield_now();
    }
    assert_eq!(thread_count(), before, "shutdown left the monitor running");
}

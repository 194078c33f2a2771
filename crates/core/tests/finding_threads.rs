//! Finding costs no thread: a deployed MA asks its remote subtrees on the
//! caller's thread, so a thousand submits leave the process's thread count
//! where it was — and start no thread along the way. A thread spawned per
//! submit that exits before the next one does not change the count; it
//! shows up in the ids Linux hands out to new threads instead.
//!
//! One test in its own binary: nothing else in the process starts or ends
//! threads while it counts.

use diet_core::data::{DietValue, Persistence};
use diet_core::deploy::TcpTopologySpec;
use diet_core::profile::{ArgTag, Profile, ProfileDesc};
use diet_core::sched::RoundRobin;
use diet_core::sed::{ServiceTable, SolveFn};
use std::sync::Arc;

fn echo_table() -> ServiceTable {
    let mut d = ProfileDesc::alloc("echo", 0, 0, 1);
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

/// The `Threads:` line of `/proc/self/status`.
fn thread_count() -> usize {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    status
        .lines()
        .find_map(|l| l.strip_prefix("Threads:"))
        .and_then(|v| v.trim().parse().ok())
        .expect("no Threads: line in /proc/self/status")
}

/// The kernel id of a fresh thread. Ids are allocated in increasing order
/// (until they wrap at `pid_max`), so the distance between two of these
/// bounds how many threads and processes were started in between.
fn fresh_tid() -> u64 {
    std::thread::spawn(|| {
        let link = std::fs::read_link("/proc/thread-self").expect("read /proc/thread-self");
        link.file_name()
            .and_then(|t| t.to_str())
            .and_then(|t| t.parse().ok())
            .expect("/proc/thread-self ends in a thread id")
    })
    .join()
    .unwrap()
}

#[test]
fn a_thousand_resolves_start_no_thread() {
    let d = TcpTopologySpec::chain(2, 2)
        .deploy(Arc::new(RoundRobin::new()), |_| echo_table())
        .unwrap();
    let ctx = obs::TraceCtx::default();
    // The first resolve dials the LA (its demux thread is per connection,
    // not per request).
    d.ma.resolve("echo", &[], &[], ctx).unwrap();
    let before = thread_count();
    let first = fresh_tid();
    for _ in 0..1000 {
        let label = d.ma.resolve("echo", &[], &[], ctx).unwrap();
        assert!(label.starts_with("d2/"), "{label}");
    }
    let started = fresh_tid().saturating_sub(first + 1);
    let after = thread_count();
    assert_eq!(before, after, "finding left threads behind");
    // A little room for whatever else starts a thread meanwhile.
    assert!(started < 50, "1000 resolves started {started} threads");
    d.shutdown();
}

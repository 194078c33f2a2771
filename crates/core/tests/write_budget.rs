//! The write syscalls a durable task costs the whole deployment: a
//! 1000-task `echo` campaign through an in-process jobserver, MA and two
//! SeDs, counted by the kernel's `syscw` for this process (every `write`,
//! `writev` and `pwrite` any thread makes: frames, replies, WAL records).
//!
//! Per task that is the `Call` frame and the SeD's reply, plus the
//! window's shares of one `Submit` write, one MA reply write, one WAL
//! `Dispatched` append and one WAL `Done` append. This file holds one test
//! so that no other test's writes land in the count.

use diet_core::data::{DietValue, Persistence};
use diet_core::deploy::TcpTopologySpec;
use diet_core::jobserver::{
    serve_jobserver_over_tcp, JobClient, JobServer, JobServerConfig, TaskPayload,
};
use diet_core::profile::{ArgTag, Profile, ProfileDesc};
use diet_core::sched::RoundRobin;
use diet_core::sed::{ServiceTable, SolveFn};
use diet_core::transport::ServerConfig;
use diet_core::Obs;
use std::sync::Arc;
use std::time::Duration;

const TASKS: usize = 1000;

/// Most write syscalls one task may cost, summed over every component.
const WRITES_PER_TASK: f64 = 3.0;

fn echo_desc() -> ProfileDesc {
    let mut d = ProfileDesc::alloc("echo", 0, 0, 1);
    d.set_arg(0, ArgTag::Scalar).unwrap();
    d
}

fn echo_table() -> ServiceTable {
    let solve: SolveFn = Arc::new(|p: &mut Profile| {
        let x = p.get_i32(0)?;
        p.set(1, DietValue::ScalarI32(x), Persistence::Volatile)?;
        Ok(0)
    });
    let mut t = ServiceTable::init(1);
    t.add(echo_desc(), solve).unwrap();
    t
}

fn tasks(base: i32) -> Vec<TaskPayload> {
    (0..TASKS as i32)
        .map(|x| {
            let mut p = Profile::alloc(&echo_desc());
            p.set(0, DietValue::ScalarI32(base + x), Persistence::Volatile)
                .unwrap();
            TaskPayload::Call(p)
        })
        .collect()
}

/// Write syscalls this process has made so far, or `None` where the
/// kernel does not report them.
fn writes() -> Option<u64> {
    let io = std::fs::read_to_string("/proc/self/io").ok()?;
    io.lines()
        .find_map(|line| line.strip_prefix("syscw:"))
        .and_then(|n| n.trim().parse().ok())
}

#[test]
fn a_durable_task_costs_at_most_three_writes() {
    if writes().is_none() {
        eprintln!("skipped: no syscw in /proc/self/io");
        return;
    }
    let d = TcpTopologySpec::chain(1, 2)
        .deploy(Arc::new(RoundRobin::new()), |_| echo_table())
        .unwrap();
    let dir = std::env::temp_dir().join(format!("diet-write-budget-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let mut cfg = JobServerConfig::new(&dir);
    cfg.workers = 2;
    let js = JobServer::spawn(
        cfg,
        d.ma_client.clone(),
        d.pool.clone(),
        Arc::new(Obs::new()),
    )
    .unwrap();
    let server =
        serve_jobserver_over_tcp(js.clone(), "127.0.0.1:0", ServerConfig::default()).unwrap();
    let client = JobClient::with_timeout(server.local_addr, Duration::from_secs(10));
    let run = |name: &str, base: i32| {
        let (cid, _) = client.submit_tasks(name, tasks(base)).unwrap();
        let (summary, _) = client
            .wait(cid, Duration::from_millis(5), Duration::from_secs(60))
            .unwrap();
        assert_eq!(summary.done, TASKS as u64, "{name}: {summary:?}");
    };
    // The warm-up dials every connection and grows the windows.
    run("warm-up", 0);
    let before = writes().unwrap();
    run("counted", TASKS as i32);
    let per_task = (writes().unwrap() - before) as f64 / TASKS as f64;
    eprintln!("{per_task:.2} writes per task");
    js.shutdown();
    server.kill();
    d.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
    assert!(
        per_task <= WRITES_PER_TASK,
        "{per_task:.2} writes per task, budget {WRITES_PER_TASK}"
    );
}

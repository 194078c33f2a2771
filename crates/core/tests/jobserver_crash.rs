//! `kill -9` a real `diet_jobserver` process mid-campaign, restart it on
//! the same directory, and prove that no completed task is solved again.
//!
//! The test process hosts an MA + 3 SeDs over TCP with a counting `echo`
//! service (every solve of input `x` is tallied here), then launches the
//! `diet_jobserver` binary as a separate OS process pointed at that
//! hierarchy. Once a third of a 48-task campaign is done, the jobserver
//! gets SIGKILL — no shutdown path, possibly a torn WAL record. The dead
//! server's log is replayed offline to learn exactly which tasks it had
//! logged Done; a fresh process on the same directory must keep every one
//! of them done and finish the rest.

use diet_core::data::{DietValue, Persistence};
use diet_core::deploy::TcpTopologySpec;
use diet_core::jobserver::{JobClient, TaskPayload, TaskState};
use diet_core::profile::{ArgTag, Profile, ProfileDesc};
use diet_core::sched::RoundRobin;
use diet_core::sed::{ServiceTable, SolveFn};
use diet_core::{JobStore, JobStoreConfig, Obs};
use std::collections::{HashMap, HashSet};
use std::io::BufRead;
use std::net::SocketAddr;
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

const TASKS: i32 = 48;

type SolveCounts = Arc<Mutex<HashMap<i32, u32>>>;

fn counting_table(counts: &SolveCounts) -> ServiceTable {
    let mut d = ProfileDesc::alloc("echo", 0, 0, 1);
    d.set_arg(0, ArgTag::Scalar).unwrap();
    let counts = counts.clone();
    let solve: SolveFn = Arc::new(move |p: &mut Profile| {
        let x = p.get_i32(0)?;
        *counts.lock().unwrap().entry(x).or_insert(0) += 1;
        std::thread::sleep(Duration::from_millis(8));
        p.set(1, DietValue::ScalarI32(x + 1), Persistence::Volatile)?;
        Ok(0)
    });
    let mut t = ServiceTable::init(2);
    t.add(d, solve).unwrap();
    t
}

fn call_task(x: i32) -> TaskPayload {
    let mut d = ProfileDesc::alloc("echo", 0, 0, 1);
    d.set_arg(0, ArgTag::Scalar).unwrap();
    let mut p = Profile::alloc(&d);
    p.set(0, DietValue::ScalarI32(x), Persistence::Volatile)
        .unwrap();
    TaskPayload::Call(p)
}

/// A `diet_jobserver` child that is SIGKILLed when dropped, so a failed
/// assertion never leaves the process behind.
struct Jobserver(Child);

impl Jobserver {
    /// Launch the binary on `dir` and scrape its bound address from stdout.
    fn spawn(dir: &Path, ma: SocketAddr, seds: &[(String, SocketAddr)]) -> (Jobserver, SocketAddr) {
        let mut cmd = Command::new(env!("CARGO_BIN_EXE_diet_jobserver"));
        cmd.arg("--dir")
            .arg(dir)
            .arg("--ma")
            .arg(ma.to_string())
            .arg("--snapshot-every")
            .arg("64")
            .arg("--heartbeat-ms")
            .arg("200")
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit());
        for (label, addr) in seds {
            cmd.arg("--sed").arg(format!("{label}={addr}"));
        }
        let mut child = Jobserver(cmd.spawn().expect("spawn diet_jobserver"));
        // The address line is all the binary ever prints to stdout.
        let stdout = child.0.stdout.take().expect("child stdout");
        let mut line = String::new();
        std::io::BufReader::new(stdout)
            .read_line(&mut line)
            .expect("read jobserver stdout");
        let addr = line
            .trim_end()
            .rsplit(' ')
            .next()
            .and_then(|a| a.parse().ok())
            .unwrap_or_else(|| panic!("cannot parse jobserver address from {line:?}"));
        (child, addr)
    }
}

impl Drop for Jobserver {
    fn drop(&mut self) {
        let _ = self.0.kill();
        let _ = self.0.wait();
    }
}

#[test]
fn sigkill_mid_campaign_recovers_without_recomputing_done_tasks() {
    let counts: SolveCounts = Arc::new(Mutex::new(HashMap::new()));
    let d = TcpTopologySpec::chain(1, 3)
        .deploy(Arc::new(RoundRobin::new()), |_| counting_table(&counts))
        .expect("deploy hierarchy");
    let seds: Vec<(String, SocketAddr)> = d
        .pool
        .labels()
        .into_iter()
        .map(|l| {
            let a = d.pool.endpoint(&l).expect("endpoint");
            (l, a)
        })
        .collect();
    let ma = d.ma_server.local_addr;
    let dir = std::env::temp_dir().join(format!("diet-jobserver-crash-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("mkdir");

    // Phase 1: run until a third is done, then SIGKILL.
    let (mut first, addr) = Jobserver::spawn(&dir, ma, &seds);
    let client = JobClient::with_timeout(addr, Duration::from_secs(5));
    let (cid, _) = client
        .submit_tasks("crash-campaign", (0..TASKS).map(call_task).collect())
        .expect("submit");
    let kill_at = TASKS as u64 / 3;
    let deadline = Instant::now() + Duration::from_secs(60);
    while client.attach("crash-campaign").expect("attach").done < kill_at {
        assert!(
            Instant::now() < deadline,
            "campaign never reached {kill_at} done"
        );
        std::thread::sleep(Duration::from_millis(2));
    }
    first.0.kill().expect("SIGKILL jobserver");
    let _ = first.0.wait();

    // Post-mortem: the dead server's log says exactly which tasks were
    // durably Done. More may have completed between the attach above and
    // the kill; the log, not the attach, is the recomputation baseline.
    let done_before: HashSet<u64> = {
        let store = JobStore::open(&dir, JobStoreConfig::default(), Arc::new(Obs::new()))
            .expect("offline replay of the dead server's log");
        (0..TASKS as u64)
            .filter(|&tid| store.task_status(cid, tid).map(|t| t.state) == Some(TaskState::Done))
            .collect()
    };
    let solves_at_kill = counts.lock().unwrap().clone();
    assert!(
        !done_before.is_empty() && done_before.len() < TASKS as usize,
        "kill landed outside the campaign ({} of {TASKS} done) — nothing proven",
        done_before.len()
    );

    // Phase 2: restart on the same dir, recover, finish.
    let restarted = Instant::now();
    let (second, addr) = Jobserver::spawn(&dir, ma, &seds);
    let client = JobClient::with_timeout(addr, Duration::from_secs(5));
    let attached = client
        .attach("crash-campaign")
        .expect("attach after restart");
    let recovery = restarted.elapsed();
    assert_eq!(attached.campaign_id, cid, "campaign lost in restart");
    assert!(
        recovery < Duration::from_secs(15),
        "recovery took {recovery:?}"
    );
    let (summary, _) = client
        .wait(cid, Duration::from_millis(10), Duration::from_secs(120))
        .expect("campaign never finished after restart");
    assert_eq!(summary.done, TASKS as u64, "campaign did not drain");
    assert_eq!(summary.failed, 0);

    // Zero recomputation: no task the dead server had logged Done was
    // solved again after the kill. (Comparing against the at-kill tallies
    // keeps phase-1 retries from passing as recovery recompute; the attempt
    // in flight at the kill instant may run twice — it was never logged.)
    let final_counts = counts.lock().unwrap().clone();
    let recomputed: Vec<u64> = done_before
        .iter()
        .copied()
        .filter(|&tid| {
            let x = tid as i32;
            final_counts.get(&x) > solves_at_kill.get(&x)
        })
        .collect();
    assert!(
        recomputed.is_empty(),
        "tasks logged Done before the kill were solved again: {recomputed:?}"
    );

    drop(second);
    d.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

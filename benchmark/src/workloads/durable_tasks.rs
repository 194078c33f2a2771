//! `durable_tasks`: a closed loop of 1000-task `echo` campaigns through the
//! durable jobserver. The solve does nothing and the calls are tiny, so the
//! WAL (`JobLog` append), the store's transitions and snapshots and the two
//! dispatchers do most of the work. The traced pass uses the same WAL a
//! second way: a 10k-task campaign is stopped half done and reopened.

use super::{common_layers, rss_at_mark, Args, Completion, Report};
use crate::rig::{
    self, deploy_chain, echo_profile, echo_table, repeat_setup, time_per_call, JobRig, SplitMix64,
    Telemetry, MIB,
};
use crate::spans::SpanLog;
use crate::stats;
use diet_core::codec::{encode_message, Message};
use diet_core::deploy::TcpDeployment;
use diet_core::jobserver::{JobLog, JobStore, JobStoreConfig, TaskPayload};
use obs::Obs;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

const CAMPAIGN_TASKS: usize = 1000;
const WARMUP_TASKS: usize = 1000;
const POLL: Duration = Duration::from_millis(5);
const CAMPAIGN_TIMEOUT: Duration = Duration::from_secs(60);
/// The replay phase: campaign size, and how many times it is reopened
/// (the first open is discarded).
const REPLAY_TASKS: usize = 10_000;
const REPLAY_OPENS: usize = 6;
/// The peak RSS is read after this many campaigns.
const RSS_MARK: usize = 10;

fn tasks(values: impl Iterator<Item = i32>) -> Vec<TaskPayload> {
    values.map(|x| TaskPayload::Call(echo_profile(x))).collect()
}

struct Rig {
    telemetry: Option<Telemetry>,
    d: TcpDeployment,
    jobs: JobRig,
}

impl Rig {
    fn up(trace: bool) -> Rig {
        let telemetry = trace.then(Telemetry::start);
        let d = deploy_chain(1, 2, echo_table, telemetry.as_ref());
        let jobs = JobRig::up(&d, telemetry.as_ref(), |_| {});
        let rig = Rig { telemetry, d, jobs };
        let (done, _) = rig
            .campaign("warm-up", tasks(0..WARMUP_TASKS as i32), None)
            .expect("warm-up campaign");
        assert_eq!(done, WARMUP_TASKS as u64, "warm-up campaign incomplete");
        rig
    }

    fn down(self) {
        self.jobs.down();
        self.d.shutdown();
        if let Some(t) = self.telemetry {
            t.stop();
        }
    }

    /// Submit one campaign and wait for it; returns `(tasks done, tasks
    /// failed or missing)`.
    fn campaign(
        &self,
        name: &str,
        payloads: Vec<TaskPayload>,
        log: Option<&mut SpanLog>,
    ) -> Result<(u64, u64), String> {
        let n = payloads.len() as u64;
        let t0 = Instant::now();
        let (cid, _) = self
            .jobs
            .job
            .submit_tasks(name, payloads)
            .map_err(|e| format!("submit {name}: {e}"))?;
        let t1 = Instant::now();
        let (summary, _events) = self
            .jobs
            .job
            .wait(cid, POLL, CAMPAIGN_TIMEOUT)
            .map_err(|e| format!("wait {name}: {e}"))?;
        if let Some(log) = log {
            let (s, m, e) = (log.ns(t0), log.ns(t1), log.ns(Instant::now()));
            let id = log.add("tasks.campaign", "client", cid, 0, s, e);
            log.add("jobserver.submit_tasks", "client", cid, id, s, m);
            log.add("jobserver.wait", "client", cid, id, m, e);
        }
        Ok((summary.done, n - summary.done.min(n)))
    }
}

pub fn run(args: &Args) -> Report {
    let mut report = Report::default();
    let epoch = Instant::now();
    let (rig, setup_s) = repeat_setup(|| Rig::up(args.trace), Rig::down);
    report.setup_s = setup_s;

    // ---- append phase: campaigns back to back for the run's length ---------
    let mut log = args.trace.then(|| SpanLog::new(epoch, 0));
    let mut rng = SplitMix64::new(args.seed);
    let start = Instant::now();
    let deadline = start + Duration::from_secs_f64(args.seconds);
    let mut done_total = 0;
    let mut campaigns_ok = 0;
    for i in 0.. {
        let t = Instant::now();
        if t >= deadline {
            break;
        }
        let payloads = tasks((0..CAMPAIGN_TASKS).map(|_| rng.next_i32()));
        report.attempted += CAMPAIGN_TASKS as u64;
        match rig.campaign(&format!("c-{}-{i}", args.seed), payloads, log.as_mut()) {
            Ok((done, missing)) => {
                done_total += done;
                campaigns_ok += (missing == 0) as u64;
                report.failed += missing;
                report.completions.push(Completion::now(start, t));
                rss_at_mark(report.completions.len(), RSS_MARK, &mut report.rss_mib);
            }
            Err(e) => {
                report.failed += CAMPAIGN_TASKS as u64;
                report.notes.push(format!("error: {e}"));
            }
        }
    }
    report.close_phase();
    report.ops_per_completion = CAMPAIGN_TASKS as f64;
    report.check(
        format!("done == N ({done_total} of {})", report.attempted),
        done_total == report.attempted && campaigns_ok == report.completions.len() as u64,
    );
    report.notes.push(format!(
        "one op = one task; latency = one {CAMPAIGN_TASKS}-task campaign, submit to drained ({} campaigns)",
        report.completions.len()
    ));

    if let Some(telemetry) = &rig.telemetry {
        replay(&mut report, &rig, args.seed);
        assert_eq!(rig.d.flush_telemetry(), 0, "telemetry flush failed");
        rig.jobs.flush_telemetry();
        common_layers(&mut report, telemetry, &rig.d.pool, &rig.d.seds);
        report.spans = log.map(|l| l.records).unwrap_or_default();
    }
    rig.down();
    if args.trace {
        let dir = rig::work_dir("tasks-probes");
        probes(&mut report, &dir);
        let _ = std::fs::remove_dir_all(&dir);
    }
    report
}

/// The WAL read back: stop the jobserver with a 10k-task campaign about
/// half done, then time `JobStore::open` on fresh copies of its directory.
fn replay(report: &mut Report, rig: &Rig, seed: u64) {
    let mut rng = SplitMix64::new(seed).fork(7);
    let payloads = tasks((0..REPLAY_TASKS).map(|_| rng.next_i32()));
    let Ok((cid, _)) = rig.jobs.job.submit_tasks("replay", payloads) else {
        report.check("replay campaign submitted", false);
        return;
    };
    let wait_until = Instant::now() + CAMPAIGN_TIMEOUT;
    while rig
        .jobs
        .job
        .progress(cid, u64::MAX)
        .is_ok_and(|(s, _)| s.done < REPLAY_TASKS as u64 / 2)
        && Instant::now() < wait_until
    {
        std::thread::sleep(Duration::from_millis(1));
    }
    rig.jobs.js.shutdown();
    let logged_done: u64 = rig.jobs.js.store().campaigns().iter().map(|c| c.done).sum();
    let logged_failed: u64 = rig
        .jobs
        .js
        .store()
        .campaigns()
        .iter()
        .map(|c| c.failed)
        .sum();

    let mut open_s = Vec::new();
    let mut recovered = Vec::new();
    for i in 0..REPLAY_OPENS {
        let copy = rig.jobs.dir.join(format!("copy-{i}"));
        std::fs::create_dir_all(&copy).expect("create copy dir");
        for file in ["wal.log", "snapshot.bin"] {
            if rig.jobs.dir.join(file).exists() {
                std::fs::copy(rig.jobs.dir.join(file), copy.join(file)).expect("copy job state");
            }
        }
        let t = Instant::now();
        let store = JobStore::open(&copy, JobStoreConfig::default(), Arc::new(Obs::new()))
            .expect("reopen job store");
        open_s.push(t.elapsed().as_secs_f64());
        recovered.push(store.recovered_done());
    }
    report.layer("jobserver.recover_s", stats::median(&open_s[1..]));
    report.layer("jobserver.recovered_done", recovered[0] as f64);
    report.check(
        format!(
            "every reopen recovers the {logged_done} tasks logged Done (got {recovered:?}), {logged_failed} failed"
        ),
        recovered.iter().all(|r| *r == logged_done) && logged_failed == 0,
    );
    report.notes.push(format!(
        "replay: stopped at {logged_done} done across all campaigns, {} in the 10k campaign still to run",
        REPLAY_TASKS as u64 - rig.jobs.js.store().summary(cid).map_or(0, |s| s.done)
    ));
}

/// Timed loops over the WAL's and the store's public functions, no
/// dispatchers and no network.
fn probes(report: &mut Report, dir: &Path) {
    let campaign = tasks(0..CAMPAIGN_TASKS as i32);

    // --- codec: one campaign's SubmitTasks frame -------------------------------
    let submit = Message::SubmitTasks {
        request_id: 7,
        campaign: "probe".into(),
        tasks: campaign.clone(),
    };
    report.layer(
        "codec.encode_tasks_us",
        time_per_call(|| encode_message(&submit)) * 1e6,
    );

    // --- JobLog: append, then replay 100k records -------------------------------
    let wal = dir.join("probe.log");
    let record = [0x5au8; 48];
    let (mut log, _) = JobLog::open(&wal).expect("open probe log");
    report.layer(
        "jobserver.wal_append_us",
        time_per_call(|| log.append(&record).expect("append")) * 1e6,
    );
    while log.records() < 100_000 {
        log.append(&record).expect("append");
    }
    drop(log);
    let wal_mib = std::fs::metadata(&wal).expect("probe log").len() as f64 / MIB;
    report.layer(
        "jobserver.wal_replay_mib_s",
        wal_mib / time_per_call(|| JobLog::open(&wal).expect("replay probe log").1.len()),
    );

    // --- JobStore: submit, the per-task transition cycle, snapshot ---------------
    const CAMPAIGNS: usize = 5;
    let cfg = JobStoreConfig {
        snapshot_every: u64::MAX,
        ..JobStoreConfig::default()
    };
    let store = JobStore::open(dir.join("store"), cfg, Arc::new(Obs::new())).expect("probe store");
    let t = Instant::now();
    for c in 0..CAMPAIGNS {
        store
            .submit(&format!("probe-{c}"), campaign.clone())
            .expect("store submit");
    }
    let n = (CAMPAIGNS * CAMPAIGN_TASKS) as f64;
    report.layer(
        "jobserver.store_submit_us",
        t.elapsed().as_secs_f64() / n * 1e6,
    );
    let t = Instant::now();
    let mut cycled = 0.0;
    while let Some(task) = store.next_task(Duration::ZERO) {
        let attempt = store
            .dispatched(task.campaign_id, task.task_id, task.epoch, None, "probe")
            .expect("fresh claim");
        let done = store.complete(
            task.campaign_id,
            task.task_id,
            task.epoch,
            attempt,
            "probe",
            1,
        );
        assert!(done, "probe task completed");
        cycled += 1.0;
    }
    report.layer(
        "jobserver.store_cycle_us",
        t.elapsed().as_secs_f64() / cycled * 1e6,
    );
    report.check("the store probe cycled every task", cycled == n);
    // Exact: the same tasks log the same bytes on every run.
    let wal_bytes = std::fs::metadata(store.wal_path())
        .expect("store wal")
        .len();
    report.layer("jobserver.wal_bytes_per_task", wal_bytes as f64 / n);
    let t = Instant::now();
    store.snapshot_now().expect("snapshot");
    report.layer("jobserver.snapshot_ms", t.elapsed().as_secs_f64() * 1e3);
}

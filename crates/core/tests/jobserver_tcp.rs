//! The durable campaign jobserver over real sockets: a separate
//! task-queue process (here: a separate listener in-process) that drives
//! campaigns through the MA hierarchy, survives restarts from its WAL,
//! and re-queues work stranded on dead SeDs.

use diet_core::dag::{DagInput, DagNodeSpec, WorkflowSpec};
use diet_core::data::{DietValue, Persistence};
use diet_core::deploy::TcpTopologySpec;
use diet_core::jobserver::{
    serve_jobserver_over_tcp, JobClient, JobServer, JobServerConfig, JobStore, JobStoreConfig,
    TaskPayload, TaskState,
};
use diet_core::profile::{ArgTag, Profile, ProfileDesc};
use diet_core::sched::RoundRobin;
use diet_core::sed::{ServiceTable, SolveFn};
use diet_core::transport::ServerConfig;
use diet_core::{DietClient, DietError, Obs};
use std::collections::{HashMap, HashSet};
use std::path::PathBuf;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

type SolveCounts = Arc<Mutex<HashMap<i32, u32>>>;

fn tmpdir(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!(
        "diet-jstcp-{tag}-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = std::fs::remove_dir_all(&d);
    std::fs::create_dir_all(&d).unwrap();
    d
}

/// `echo` service that counts how many times each input was solved —
/// the probe for the exactly-once-per-done-task guarantee.
fn counting_table(counts: &SolveCounts, delay: Duration) -> ServiceTable {
    paced_table(counts, move |_| delay)
}

/// [`counting_table`] with a solve time that depends on the input.
fn paced_table(
    counts: &SolveCounts,
    pace: impl Fn(i32) -> Duration + Send + Sync + 'static,
) -> ServiceTable {
    let mut d = ProfileDesc::alloc("echo", 0, 0, 1);
    d.set_arg(0, ArgTag::Scalar).unwrap();
    let counts = counts.clone();
    let solve: SolveFn = Arc::new(move |p: &mut Profile| {
        let x = p.get_i32(0)?;
        *counts.lock().unwrap().entry(x).or_insert(0) += 1;
        let delay = pace(x);
        if !delay.is_zero() {
            std::thread::sleep(delay);
        }
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

fn dag_task(x: i32) -> TaskPayload {
    // Two chained echo calls: node 1 consumes node 0's output.
    let mut d = ProfileDesc::alloc("echo", 0, 0, 1);
    d.set_arg(0, ArgTag::Scalar).unwrap();
    let mut a = Profile::alloc(&d);
    a.set(0, DietValue::ScalarI32(x), Persistence::Volatile)
        .unwrap();
    let mut b = DagNodeSpec::new(1, Profile::alloc(&d));
    b.deps = vec![0];
    b.inputs = vec![DagInput {
        arg: 0,
        from_node: 0,
        from_arg: 1,
    }];
    TaskPayload::Dag(WorkflowSpec {
        name: format!("chain-{x}"),
        nodes: vec![DagNodeSpec::new(0, a), b],
    })
}

fn server_config(dir: &PathBuf) -> JobServerConfig {
    let mut cfg = JobServerConfig::new(dir);
    cfg.workers = 3;
    cfg.retry.attempt_timeout = Duration::from_secs(5);
    cfg.heartbeat = Some(Duration::from_millis(100));
    cfg
}

/// A mixed campaign (plain calls + one data-flow DAG) submitted over the
/// wire runs to completion through the MA hierarchy, and the progress
/// feed carries every transition.
#[test]
fn campaign_runs_end_to_end_over_tcp() {
    let counts: SolveCounts = Arc::new(Mutex::new(HashMap::new()));
    let d = TcpTopologySpec::chain(1, 2)
        .deploy(Arc::new(RoundRobin::new()), |_| {
            counting_table(&counts, Duration::ZERO)
        })
        .unwrap();
    let dir = tmpdir("e2e");
    let obs = Arc::new(Obs::new());
    let js = JobServer::spawn(
        server_config(&dir),
        d.ma_client.clone(),
        d.pool.clone(),
        obs.clone(),
    )
    .unwrap();
    let server =
        serve_jobserver_over_tcp(js.clone(), "127.0.0.1:0", ServerConfig::default()).unwrap();
    let client = JobClient::connect(server.local_addr);
    assert!(client.ping(Duration::from_secs(1)));

    let n_calls = 24;
    let mut tasks: Vec<TaskPayload> = (0..n_calls).map(call_task).collect();
    tasks.push(dag_task(1000));
    let (cid, ids) = client.submit_tasks("mixed", tasks).unwrap();
    assert_eq!(ids.len(), n_calls as usize + 1);

    let (summary, events) = client
        .wait(cid, Duration::from_millis(20), Duration::from_secs(30))
        .unwrap();
    assert_eq!(summary.done, n_calls as u64 + 1);
    assert_eq!(summary.failed, 0);
    assert!(summary.finished);

    // Every task's feed starts at its first dispatch and ends Done.
    // (Task creation is a WAL record, not a transition, so Pending only
    // appears in the feed on requeues.)
    for tid in 0..=n_calls as u64 {
        let states: Vec<TaskState> = events
            .iter()
            .filter(|e| e.task_id == tid)
            .map(|e| e.state)
            .collect();
        assert_eq!(states.first(), Some(&TaskState::Dispatched), "task {tid}");
        assert_eq!(states.last(), Some(&TaskState::Done), "task {tid}");
    }
    // Done calls carry the solving SeD's label; the DAG ran in-engine.
    let st = client.task_status(cid, 0).unwrap();
    assert!(st.sed.starts_with("d1/"), "unexpected sed {:?}", st.sed);
    let st = client.task_status(cid, n_calls as u64).unwrap();
    assert_eq!(st.sed, "dag");

    // The solver saw each call input exactly once (two for the DAG chain).
    let counts = counts.lock().unwrap();
    for x in 0..n_calls {
        assert_eq!(counts.get(&x), Some(&1), "input {x} recomputed");
    }
    assert!(obs.metrics.counter("diet_jobserver_tasks_done_total").get() >= n_calls as u64);

    js.shutdown();
    server.kill();
    d.shutdown();
}

/// Submitting the same campaign name twice (a client crash-loop) attaches
/// to the existing campaign instead of duplicating work, and a second
/// client can follow along with its own cursor.
#[test]
fn resubmit_is_idempotent_and_clients_share_cursors() {
    let counts: SolveCounts = Arc::new(Mutex::new(HashMap::new()));
    let d = TcpTopologySpec::chain(1, 2)
        .deploy(Arc::new(RoundRobin::new()), |_| {
            counting_table(&counts, Duration::from_millis(2))
        })
        .unwrap();
    let dir = tmpdir("idem");
    let js = JobServer::spawn(
        server_config(&dir),
        d.ma_client.clone(),
        d.pool.clone(),
        Arc::new(Obs::new()),
    )
    .unwrap();
    let server =
        serve_jobserver_over_tcp(js.clone(), "127.0.0.1:0", ServerConfig::default()).unwrap();

    let a = JobClient::connect(server.local_addr);
    let b = JobClient::connect(server.local_addr);
    let n = 16;
    let tasks: Vec<TaskPayload> = (0..n).map(call_task).collect();
    let (cid, _) = a.submit_tasks("camp", tasks).unwrap();
    // Client crash-loop: resubmission returns the same campaign.
    let (cid2, ids2) = a
        .submit_tasks("camp", (0..n).map(call_task).collect())
        .unwrap();
    assert_eq!(cid, cid2);
    assert_eq!(ids2.len(), n as usize);
    // A second process attaches by name and gets the same campaign id.
    let att = b.attach("camp").unwrap();
    assert_eq!(att.campaign_id, cid);

    let (summary, events_a) = a
        .wait(cid, Duration::from_millis(10), Duration::from_secs(30))
        .unwrap();
    assert_eq!(summary.done, n as u64);

    // Client B replays the full history afterwards through paged cursors
    // and sees exactly the same event sequence.
    let mut cursor = 0;
    let mut events_b = Vec::new();
    loop {
        let (s, batch) = b.progress(cid, cursor).unwrap();
        if batch.is_empty() {
            assert!(s.finished);
            break;
        }
        cursor = batch.last().unwrap().seq;
        events_b.extend(batch);
    }
    let sig = |evs: &[diet_core::TaskEventRec]| -> Vec<(u64, u64, TaskState)> {
        evs.iter().map(|e| (e.seq, e.task_id, e.state)).collect()
    };
    assert_eq!(sig(&events_a), sig(&events_b));

    // Exactly-once despite the duplicate submission.
    let counts = counts.lock().unwrap();
    for x in 0..n {
        assert_eq!(counts.get(&x), Some(&1), "input {x} recomputed");
    }

    js.shutdown();
    server.kill();
    d.shutdown();
}

/// Kill a SeD mid-campaign: the heartbeat declares it dead, its stranded
/// tasks are re-queued, and the campaign finishes on the survivor.
#[test]
fn dead_sed_tasks_are_requeued_and_finish_elsewhere() {
    let counts: SolveCounts = Arc::new(Mutex::new(HashMap::new()));
    let d = TcpTopologySpec::chain(1, 2)
        .deploy(Arc::new(RoundRobin::new()), |_| {
            counting_table(&counts, Duration::from_millis(5))
        })
        .unwrap();
    let dir = tmpdir("deadsed");
    let obs = Arc::new(Obs::new());
    let mut cfg = server_config(&dir);
    cfg.workers = 2;
    let js = JobServer::spawn(cfg, d.ma_client.clone(), d.pool.clone(), obs.clone()).unwrap();
    let server =
        serve_jobserver_over_tcp(js.clone(), "127.0.0.1:0", ServerConfig::default()).unwrap();
    let client = JobClient::connect(server.local_addr);

    let n = 40;
    let (cid, _) = client
        .submit_tasks("mortal", (0..n).map(call_task).collect())
        .unwrap();

    // Let the campaign get going, then crash one SeD's listener.
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let s = client.attach("mortal").unwrap();
        if s.done >= 5 {
            break;
        }
        assert!(Instant::now() < deadline, "campaign never started");
        std::thread::sleep(Duration::from_millis(10));
    }
    let victim = &d.sed_servers[0];
    victim.kill();

    let (summary, _) = client
        .wait(cid, Duration::from_millis(20), Duration::from_secs(60))
        .unwrap();
    assert_eq!(summary.done, n as u64, "tasks lost with the dead SeD");
    assert_eq!(summary.failed, 0);
    assert!(
        obs.metrics
            .counter("diet_jobserver_machines_dead_total")
            .get()
            >= 1,
        "heartbeat never declared the killed SeD dead"
    );
    // Everything still solved: dead-SeD attempts either finished before
    // the kill or were re-run elsewhere (at-least-once for in-flight,
    // exactly-once for completed).
    let counts = counts.lock().unwrap();
    for x in 0..n {
        assert!(counts.get(&x).copied().unwrap_or(0) >= 1, "input {x} lost");
    }

    js.shutdown();
    server.kill();
    d.shutdown();
}

/// Restart the jobserver mid-campaign on the same directory: recovery
/// replays the WAL, keeps every completed task done (zero recompute), and
/// finishes the remainder.
#[test]
fn restart_recovers_done_work_without_recompute() {
    let counts: SolveCounts = Arc::new(Mutex::new(HashMap::new()));
    let d = TcpTopologySpec::chain(1, 2)
        .deploy(Arc::new(RoundRobin::new()), |_| {
            counting_table(&counts, Duration::from_millis(5))
        })
        .unwrap();
    let dir = tmpdir("restart");
    let n = 40;

    // Phase 1: run until a third is done, then take the server down.
    let done_before: Vec<u64>;
    {
        let js = JobServer::spawn(
            server_config(&dir),
            d.ma_client.clone(),
            d.pool.clone(),
            Arc::new(Obs::new()),
        )
        .unwrap();
        let server =
            serve_jobserver_over_tcp(js.clone(), "127.0.0.1:0", ServerConfig::default()).unwrap();
        let client = JobClient::connect(server.local_addr);
        let (cid, _) = client
            .submit_tasks("durable", (0..n).map(call_task).collect())
            .unwrap();
        let deadline = Instant::now() + Duration::from_secs(20);
        loop {
            let s = client.attach("durable").unwrap();
            if s.done >= n as u64 / 3 {
                break;
            }
            assert!(Instant::now() < deadline, "campaign never progressed");
            std::thread::sleep(Duration::from_millis(10));
        }
        server.kill();
        js.shutdown();
        done_before = (0..n as u64)
            .filter(|&tid| js.store().task_status(cid, tid).unwrap().state == TaskState::Done)
            .collect();
        assert!(!done_before.is_empty());
    }

    // Phase 2: fresh server, same directory. Completed work must survive.
    let obs = Arc::new(Obs::new());
    let js = JobServer::spawn(
        server_config(&dir),
        d.ma_client.clone(),
        d.pool.clone(),
        obs.clone(),
    )
    .unwrap();
    let server =
        serve_jobserver_over_tcp(js.clone(), "127.0.0.1:0", ServerConfig::default()).unwrap();
    let client = JobClient::connect(server.local_addr);
    let att = client.attach("durable").unwrap();
    assert!(
        att.done >= done_before.len() as u64,
        "done work lost in restart"
    );

    let (summary, _) = client
        .wait(
            att.campaign_id,
            Duration::from_millis(20),
            Duration::from_secs(60),
        )
        .unwrap();
    assert_eq!(summary.done, n as u64);
    assert_eq!(summary.failed, 0);

    // The graceful shutdown drained in-flight attempts, so recovery must
    // not have re-run anything: every input solved exactly once.
    let counts = counts.lock().unwrap();
    for x in 0..n {
        assert_eq!(
            counts.get(&x),
            Some(&1),
            "input {x} recomputed after restart"
        );
    }

    js.shutdown();
    server.kill();
    d.shutdown();
}

/// Every liveness probe rides its prober's one connection: ten pings from a
/// remote-agent stub, ten from a jobserver client and ten heartbeats of the
/// jobserver's machine pool arrive on one connection per prober, not one
/// connection per probe.
#[test]
fn probes_ride_one_connection_per_prober() {
    use diet_core::agent::RemoteSubtree;
    use diet_core::codec::Message;
    use diet_core::hierarchy::RemoteAgentClient;
    use diet_core::transport::{TcpSedPool, TcpServer};
    // Answers pings, recording the connection each one came in on.
    let seen = Arc::new(Mutex::new(Vec::new()));
    let record = seen.clone();
    let server = TcpServer::spawn_framed("127.0.0.1:0", ServerConfig::default(), move |h, m, _| {
        if let Message::Ping { request_id } = m {
            record.lock().unwrap().push(h.peer_addr());
            let _ = h.send(&Message::Pong { request_id });
        }
        None
    })
    .unwrap();
    let addr = server.local_addr;
    // (probes, connections they came in on) from the `from`th probe on.
    let tally = |from: usize| {
        let seen = seen.lock().unwrap();
        let conns: HashSet<_> = seen[from..].iter().collect();
        (seen.len() - from, conns.len())
    };

    let agent = RemoteAgentClient::new("la", addr);
    for _ in 0..10 {
        assert!(agent.ping(Duration::from_secs(2)));
    }
    assert_eq!(tally(0), (10, 1));

    let client = JobClient::connect(addr);
    for _ in 0..10 {
        assert!(client.ping(Duration::from_secs(2)));
    }
    assert_eq!(tally(10), (10, 1));

    // The heartbeat probes the pool's one label every 20 ms.
    let pool = Arc::new(TcpSedPool::new());
    pool.register("sed", addr);
    let mut cfg = server_config(&tmpdir("probes"));
    cfg.heartbeat = Some(Duration::from_millis(20));
    let js = JobServer::spawn(cfg, agent, pool, Arc::new(Obs::new())).unwrap();
    let deadline = Instant::now() + Duration::from_secs(10);
    while tally(20).0 < 10 {
        assert!(Instant::now() < deadline, "the heartbeat never probed");
        std::thread::sleep(Duration::from_millis(10));
    }
    js.shutdown();
    assert_eq!(tally(20).1, 1);
    server.kill();
}

/// `shutdown` wakes the heartbeat instead of sleeping out its interval:
/// with a 2 s heartbeat asleep it returns as soon as the dispatchers notice
/// the stop (each waits at most 100 ms for work).
#[test]
fn shutdown_does_not_wait_out_the_heartbeat() {
    use diet_core::hierarchy::RemoteAgentClient;
    use diet_core::transport::TcpSedPool;
    // Never dialed: the jobserver is stopped before it has work.
    let agent = RemoteAgentClient::new("ma", "127.0.0.1:9".parse().unwrap());
    let mut cfg = server_config(&tmpdir("hb-stop"));
    cfg.heartbeat = Some(Duration::from_secs(2));
    let js = JobServer::spawn(
        cfg,
        agent,
        Arc::new(TcpSedPool::new()),
        Arc::new(Obs::new()),
    )
    .unwrap();
    // Long enough for the heartbeat thread to be into its first interval.
    std::thread::sleep(Duration::from_millis(50));
    let t0 = Instant::now();
    js.shutdown();
    let took = t0.elapsed();
    assert!(took < Duration::from_millis(500), "shutdown took {took:?}");
}

/// With nothing queued, `shutdown` wakes the dispatchers waiting for work
/// instead of letting each sleep out its 100 ms wait.
#[test]
fn idle_shutdown_does_not_wait_out_the_queue() {
    use diet_core::hierarchy::RemoteAgentClient;
    use diet_core::transport::TcpSedPool;
    // Never dialed: the jobserver is stopped before it has work.
    let agent = RemoteAgentClient::new("ma", "127.0.0.1:9".parse().unwrap());
    let mut cfg = server_config(&tmpdir("idle-stop"));
    cfg.heartbeat = None;
    let js = JobServer::spawn(
        cfg,
        agent,
        Arc::new(TcpSedPool::new()),
        Arc::new(Obs::new()),
    )
    .unwrap();
    // Every dispatcher is inside its wait by now.
    std::thread::sleep(Duration::from_millis(20));
    let t0 = Instant::now();
    js.shutdown();
    let took = t0.elapsed();
    assert!(took < Duration::from_millis(50), "shutdown took {took:?}");
}

/// `shutdown` while a `Dag` task waits on the MA's engine stops the wait
/// instead of waiting out the solve, and records nothing: the task stays
/// dispatched in the WAL, so reopening the store requeues it.
#[test]
fn shutdown_stops_a_waiting_dag_task() {
    let counts: SolveCounts = Arc::new(Mutex::new(HashMap::new()));
    let solve = Duration::from_secs(2);
    let d = TcpTopologySpec::chain(1, 2)
        .deploy(Arc::new(RoundRobin::new()), |_| {
            paced_table(&counts, move |_| solve)
        })
        .unwrap();
    let dir = tmpdir("dag-stop");
    // No heartbeat: a probe under way must not count against `shutdown`.
    let mut cfg = server_config(&dir);
    cfg.heartbeat = None;
    let js = JobServer::spawn(
        cfg,
        d.ma_client.clone(),
        d.pool.clone(),
        Arc::new(Obs::new()),
    )
    .unwrap();
    js.store().submit("dag-stop", vec![dag_task(7)]).unwrap();
    // The DAG's first node is solving: its dispatcher is in the wait.
    let deadline = Instant::now() + Duration::from_secs(10);
    while counts.lock().unwrap().is_empty() {
        assert!(Instant::now() < deadline, "the DAG never started");
        std::thread::sleep(Duration::from_millis(5));
    }
    let t0 = Instant::now();
    js.shutdown();
    let took = t0.elapsed();
    assert!(took < solve / 4, "shutdown took {took:?}");
    drop(js);

    let store = JobStore::open(&dir, JobStoreConfig::default(), Arc::new(Obs::new())).unwrap();
    assert_eq!(store.recovered_inflight(), 1);
    d.shutdown();
}

/// The DAG wait a `Dag` task runs on, reached through
/// `DietClient::wait_dag`, rides out an MA that has been killed until its
/// deadline, then returns the transport error it rode out rather than a
/// bare timeout.
#[test]
fn a_dag_waited_on_a_killed_ma_returns_its_transport_error() {
    let counts: SolveCounts = Arc::new(Mutex::new(HashMap::new()));
    let d = TcpTopologySpec::chain(1, 2)
        .deploy(Arc::new(RoundRobin::new()), |_| {
            paced_table(&counts, |_| Duration::from_secs(2))
        })
        .unwrap();
    let TaskPayload::Dag(spec) = dag_task(7) else {
        unreachable!("dag_task builds a Dag payload")
    };
    let client = DietClient::initialize_distributed(Arc::new(Obs::new()));
    let handle = client.submit_dag(&d.ma_client, &spec).unwrap();
    d.ma_server.kill();
    let timeout = Duration::from_millis(300);
    let t0 = Instant::now();
    let got = client.wait_dag(&d.ma_client, &handle, timeout);
    let took = t0.elapsed();
    assert!(matches!(got, Err(DietError::Transport(_))), "{got:?}");
    assert!(took >= timeout, "gave up after {took:?}");
    assert!(took < timeout + Duration::from_secs(1), "{took:?}");
    d.shutdown();
}

/// Each task's states in a campaign's event feed, by task id.
fn states_by_task(events: &[diet_core::TaskEventRec]) -> HashMap<u64, Vec<TaskState>> {
    let mut by_task: HashMap<u64, Vec<TaskState>> = HashMap::new();
    for e in events {
        by_task.entry(e.task_id).or_default().push(e.state);
    }
    by_task
}

/// One dispatcher keeps a window on the wire: with a single dispatcher
/// thread, a 64-task campaign still has more than one finding out on the
/// MA's connection at once, while each SeD's connection carries one of its
/// calls at a time. One task at a time would hold the MA's peak at 1.
#[test]
fn a_dispatcher_keeps_a_window_on_the_wire() {
    let counts: SolveCounts = Arc::new(Mutex::new(HashMap::new()));
    let d = TcpTopologySpec::chain(1, 2)
        .deploy(Arc::new(RoundRobin::new()), |_| {
            counting_table(&counts, Duration::ZERO)
        })
        .unwrap();
    let dir = tmpdir("window");
    let mut cfg = server_config(&dir);
    cfg.workers = 1;
    // Heartbeat probes ride the SeDs' connections too: none here.
    cfg.heartbeat = None;
    let js = JobServer::spawn(
        cfg,
        d.ma_client.clone(),
        d.pool.clone(),
        Arc::new(Obs::new()),
    )
    .unwrap();
    let server =
        serve_jobserver_over_tcp(js.clone(), "127.0.0.1:0", ServerConfig::default()).unwrap();
    let client = JobClient::connect(server.local_addr);

    let n = 64;
    let (cid, _) = client
        .submit_tasks("window", (0..n).map(call_task).collect())
        .unwrap();
    let (summary, events) = client
        .wait(cid, Duration::from_millis(10), Duration::from_secs(30))
        .unwrap();
    assert_eq!(summary.done, n as u64);
    assert_eq!(summary.failed, 0);
    let by_task = states_by_task(&events);
    for tid in 0..n as u64 {
        assert_eq!(by_task[&tid].last(), Some(&TaskState::Done), "task {tid}");
    }
    let peak = d.ma_client.peak_inflight();
    assert!(peak > 1, "one finding at a time on the MA (peak {peak})");
    for label in d.pool.labels() {
        let peak = d.pool.peak_inflight(&label);
        assert_eq!(peak, 1, "{label} carried {peak} calls at once");
    }

    js.shutdown();
    server.kill();
    d.shutdown();
}

/// A window does not spend a call's deadline in a SeD's queue. One
/// dispatcher's window has grown to 32 claims on a cheap campaign when 32
/// slow ones arrive, over two SeDs that solve one job at a time. Sent
/// together, 16 calls of 60 ms would queue 0.96 s on a SeD, past the
/// 0.6 s attempt deadline. The window's calls go one at a time per SeD
/// instead, so no call times out, no healthy SeD is blamed, and every
/// input is solved exactly once.
#[test]
fn a_window_spends_no_deadline_in_a_sed_queue() {
    let counts: SolveCounts = Arc::new(Mutex::new(HashMap::new()));
    let slow = 1000;
    let d = TcpTopologySpec::chain(1, 2)
        .deploy(Arc::new(RoundRobin::new()), |_| {
            paced_table(&counts, move |x| {
                Duration::from_millis(if x >= slow { 60 } else { 0 })
            })
        })
        .unwrap();
    let dir = tmpdir("window-deadline");
    let obs = Arc::new(Obs::new());
    let mut cfg = server_config(&dir);
    cfg.workers = 1;
    cfg.retry.attempt_timeout = Duration::from_millis(600);
    cfg.heartbeat = None;
    let js = JobServer::spawn(cfg, d.ma_client.clone(), d.pool.clone(), obs.clone()).unwrap();
    let server =
        serve_jobserver_over_tcp(js.clone(), "127.0.0.1:0", ServerConfig::default()).unwrap();
    let client = JobClient::connect(server.local_addr);

    // Windows of 1, 2, 4, 8, 16 and 32 cheap claims, and more of 32: the
    // window is full.
    let cheap = 256;
    let (cid, _) = client
        .submit_tasks("cheap", (0..cheap).map(call_task).collect())
        .unwrap();
    let (summary, _) = client
        .wait(cid, Duration::from_millis(10), Duration::from_secs(30))
        .unwrap();
    assert_eq!(summary.done, cheap as u64);
    let peak = d.ma_client.peak_inflight();
    assert!(peak > 16, "the window never grew (peak {peak})");

    let n = 32;
    let (cid, _) = client
        .submit_tasks("slow", (slow..slow + n).map(call_task).collect())
        .unwrap();
    let (summary, events) = client
        .wait(cid, Duration::from_millis(10), Duration::from_secs(60))
        .unwrap();
    assert_eq!(summary.done, n as u64);
    assert_eq!(summary.failed, 0);
    for (tid, states) in states_by_task(&events) {
        let dispatched = states
            .iter()
            .filter(|s| **s == TaskState::Dispatched)
            .count();
        assert_eq!(dispatched, 1, "task {tid} dispatched again: {states:?}");
    }
    let resubmissions = obs
        .metrics
        .counter("diet_jobserver_resubmissions_total")
        .get();
    assert_eq!(resubmissions, 0, "a healthy SeD's call was resubmitted");
    let counts = counts.lock().unwrap();
    for x in (0..cheap).chain(slow..slow + n) {
        assert_eq!(counts.get(&x), Some(&1), "input {x} not solved once");
    }

    js.shutdown();
    server.kill();
    d.shutdown();
}

/// A SeD dies on its 20th request while a window's claims are queued for
/// it. The call on the wire fails, and so does each later one launched at
/// the dead connection. The dispatcher's retry loop moves every one of them
/// to the survivor (no heartbeat here to requeue them): every task ends
/// Done exactly once.
#[test]
fn a_sed_killed_under_a_window_loses_no_task() {
    let counts: SolveCounts = Arc::new(Mutex::new(HashMap::new()));
    let d = TcpTopologySpec::chain(1, 2)
        .deploy(Arc::new(RoundRobin::new()), |_| {
            counting_table(&counts, Duration::ZERO)
        })
        .unwrap();
    d.seds[0].faults().kill_at_request(20);
    let dir = tmpdir("window-kill");
    let obs = Arc::new(Obs::new());
    let mut cfg = server_config(&dir);
    cfg.workers = 1;
    cfg.heartbeat = None;
    let js = JobServer::spawn(cfg, d.ma_client.clone(), d.pool.clone(), obs.clone()).unwrap();
    let server =
        serve_jobserver_over_tcp(js.clone(), "127.0.0.1:0", ServerConfig::default()).unwrap();
    let client = JobClient::connect(server.local_addr);

    let n = 128;
    let (cid, _) = client
        .submit_tasks("window-kill", (0..n).map(call_task).collect())
        .unwrap();
    let (summary, events) = client
        .wait(cid, Duration::from_millis(10), Duration::from_secs(30))
        .unwrap();
    assert!(!d.seds[0].is_alive(), "the fault never fired");
    assert_eq!(summary.done, n as u64, "tasks lost with the dead SeD");
    assert_eq!(summary.failed, 0);
    for (tid, states) in states_by_task(&events) {
        let done = states.iter().filter(|s| **s == TaskState::Done).count();
        assert_eq!(done, 1, "task {tid} went Done {done} times: {states:?}");
    }
    let resubmissions = obs
        .metrics
        .counter("diet_jobserver_resubmissions_total")
        .get();
    assert!(resubmissions > 0, "no claim was retried");
    let counts = counts.lock().unwrap();
    for x in 0..n {
        assert!(counts.get(&x).copied().unwrap_or(0) >= 1, "input {x} lost");
    }

    js.shutdown();
    server.kill();
    d.shutdown();
}

/// A SeD that admits one job at a time faces three dispatchers' windows,
/// each with a call on its connection: it answers the others `Busy`, and
/// each of those claims backs off and comes back through its retry loop.
/// No task fails, and none is solved twice.
#[test]
fn busy_replies_to_a_window_back_off_and_finish() {
    use diet_core::hierarchy::{
        serve_ma_over_tcp, serve_sed_over_tcp, AgentConfig, RemoteAgentClient,
    };
    use diet_core::sed::{SedConfig, SedHandle};
    use diet_core::transport::TcpSedPool;
    use diet_core::{AgentNode, MasterAgent};
    let counts: SolveCounts = Arc::new(Mutex::new(HashMap::new()));
    let sed = SedHandle::spawn(
        SedConfig::new("adm/0", 1.0).with_admission_limit(1),
        counting_table(&counts, Duration::from_millis(2)),
    );
    let sed_server = serve_sed_over_tcp(sed.clone()).unwrap();
    let pool = Arc::new(TcpSedPool::new());
    pool.register("adm/0", sed_server.local_addr);
    let ma = MasterAgent::new(
        "MA",
        vec![AgentNode::leaf("LA", vec![sed.clone()])],
        Arc::new(RoundRobin::new()),
    );
    let ma_server = serve_ma_over_tcp(ma, vec![], AgentConfig::default()).unwrap();
    let dir = tmpdir("window-busy");
    let mut cfg = server_config(&dir);
    cfg.workers = 3;
    cfg.heartbeat = None;
    let js = JobServer::spawn(
        cfg,
        RemoteAgentClient::new("MA", ma_server.local_addr),
        pool,
        Arc::new(Obs::new()),
    )
    .unwrap();
    let server =
        serve_jobserver_over_tcp(js.clone(), "127.0.0.1:0", ServerConfig::default()).unwrap();
    let client = JobClient::connect(server.local_addr);

    let n = 96;
    let (cid, _) = client
        .submit_tasks("window-busy", (0..n).map(call_task).collect())
        .unwrap();
    let (summary, _) = client
        .wait(cid, Duration::from_millis(10), Duration::from_secs(30))
        .unwrap();
    assert_eq!(summary.done, n as u64);
    assert_eq!(summary.failed, 0);
    let busy = sed.obs().metrics.counter("diet_sed_busy_total").get();
    assert!(busy > 0, "the window never met the admission limit");
    let counts = counts.lock().unwrap();
    for x in 0..n {
        assert_eq!(counts.get(&x), Some(&1), "input {x} solved twice");
    }

    js.shutdown();
    server.kill();
    sed_server.kill();
    ma_server.kill();
}

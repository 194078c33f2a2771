//! The durable campaign jobserver over real sockets: a separate
//! task-queue process (here: a separate listener in-process) that drives
//! campaigns through the MA hierarchy, survives restarts from its WAL,
//! and re-queues work stranded on dead SeDs.

use diet_core::dag::{DagInput, DagNodeSpec, WorkflowSpec};
use diet_core::data::{DietValue, Persistence};
use diet_core::deploy::TcpTopologySpec;
use diet_core::jobserver::{
    serve_jobserver_over_tcp, JobClient, JobServer, JobServerConfig, TaskPayload, TaskState,
};
use diet_core::profile::{ArgTag, Profile, ProfileDesc};
use diet_core::sched::RoundRobin;
use diet_core::sed::{ServiceTable, SolveFn};
use diet_core::transport::ServerConfig;
use diet_core::Obs;
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
    let mut d = ProfileDesc::alloc("echo", 0, 0, 1);
    d.set_arg(0, ArgTag::Scalar).unwrap();
    let counts = counts.clone();
    let solve: SolveFn = Arc::new(move |p: &mut Profile| {
        let x = p.get_i32(0)?;
        *counts.lock().unwrap().entry(x).or_insert(0) += 1;
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
    cfg.heartbeat_timeout = Duration::from_millis(100);
    cfg.heartbeat_misses = 2;
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
    let server = TcpServer::spawn_framed("127.0.0.1:0", ServerConfig::default(), move |h, m| {
        if let Message::Ping { request_id } = m {
            record.lock().unwrap().push(h.peer_addr());
            let _ = h.send(&Message::Pong { request_id });
        }
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

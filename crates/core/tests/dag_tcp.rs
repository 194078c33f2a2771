//! The MA-DAG workflow engine over real sockets: data-flow DAGs submitted
//! through `SubmitDag` frames, scheduled inside the hierarchy. The
//! contracts under test are the ones that make engine-side workflows
//! worth having: intermediate snapshots move SeD-to-SeD (never through
//! the client), stragglers are cut short by speculative duplicates,
//! progress streams over the wire, and a dead client cancels its dag.

use diet_core::dag::{DagInput, DagNodeSpec, DagNodeState, WorkflowSpec};
use diet_core::data::{DietValue, Persistence};
use diet_core::deploy::{SedSpec, TcpTopologySpec};
use diet_core::hierarchy::RemoteAgentClient;
use diet_core::profile::{ArgTag, Profile, ProfileDesc};
use diet_core::sched::RoundRobin;
use diet_core::sed::{ServiceTable, SolveFn};
use diet_core::{DietClient, TraceCtx};
use obs::Obs;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

fn two_sed_topology() -> TcpTopologySpec {
    TcpTopologySpec {
        ma_name: "ma".into(),
        ma_seds: vec![
            SedSpec {
                label: "s0".into(),
                speed_factor: 1.0,
            },
            SedSpec {
                label: "s1".into(),
                speed_factor: 1.0,
            },
        ],
        sites: vec![],
        admission_limit: None,
        child_timeout_ms: 5_000,
    }
}

const VEC_LEN: usize = 10_000; // 80 KB payload — obvious in byte counters

fn stage_a_desc() -> ProfileDesc {
    let mut d = ProfileDesc::alloc("stageA", 0, 0, 1);
    d.set_arg(0, ArgTag::Scalar).unwrap();
    d.set_arg(1, ArgTag::Vector).unwrap();
    d
}

fn stage_b_desc() -> ProfileDesc {
    let mut d = ProfileDesc::alloc("stageB", 0, 0, 1);
    d.set_arg(0, ArgTag::Vector).unwrap();
    d.set_arg(1, ArgTag::Scalar).unwrap();
    d
}

/// `stageA` lives only on s0, `stageB` only on s1 — the engine has no
/// choice but to move the 80 KB intermediate across SeDs.
fn split_stage_table(label: &str) -> ServiceTable {
    let mut t = ServiceTable::init(1);
    if label == "s0" {
        let solve: SolveFn = Arc::new(|p: &mut Profile| {
            let n = p.get_i32(0)? as usize;
            let v: Vec<f64> = (0..n).map(|i| i as f64).collect();
            p.set(1, DietValue::vec_f64(v), Persistence::Volatile)?;
            Ok(0)
        });
        t.add(stage_a_desc(), solve).unwrap();
    } else {
        let solve: SolveFn = Arc::new(|p: &mut Profile| {
            let v = match p.get(0)? {
                DietValue::VectorF64(v) => v.clone(),
                other => panic!("stageB input not resolved: {}", other.type_name()),
            };
            let sum: f64 = v.iter().sum();
            p.set(1, DietValue::ScalarI32(sum as i32), Persistence::Volatile)?;
            Ok(0)
        });
        t.add(stage_b_desc(), solve).unwrap();
    }
    t
}

/// Tentpole acceptance: a two-stage data-flow dag whose intermediate
/// vector moves SeD-to-SeD through the replica catalog. The client sees
/// only control frames — the outcome carries a grid ref for the heavy
/// output and an inline scalar for the final answer, and the pulling
/// SeD's byte counter accounts for the whole payload.
#[test]
fn intermediates_move_sed_to_sed_not_through_client() {
    let d = two_sed_topology()
        .deploy(Arc::new(RoundRobin::new()), |s| split_stage_table(&s.label))
        .unwrap();
    let client = DietClient::initialize_distributed(Arc::new(Obs::new()));

    let mut a = Profile::alloc(&stage_a_desc());
    a.set(
        0,
        DietValue::ScalarI32(VEC_LEN as i32),
        Persistence::Volatile,
    )
    .unwrap();
    let mut node_b = DagNodeSpec::new(1, Profile::alloc(&stage_b_desc()));
    node_b.deps = vec![0];
    node_b.inputs = vec![DagInput {
        arg: 0,
        from_node: 0,
        from_arg: 1,
    }];
    let spec = WorkflowSpec {
        name: "split-stages".into(),
        nodes: vec![DagNodeSpec::new(0, a), node_b],
    };

    let handle = client.submit_dag(&d.ma_client, &spec).unwrap();
    let (outcome, _events) = client
        .wait_dag(&d.ma_client, &handle, Duration::from_secs(30))
        .unwrap();

    assert!(outcome.ok, "dag failed: {outcome:?}");
    let a_out = outcome.nodes.iter().find(|n| n.node == 0).unwrap();
    let b_out = outcome.nodes.iter().find(|n| n.node == 1).unwrap();
    assert_eq!(a_out.sed, "s0");
    assert_eq!(b_out.sed, "s1");

    // The heavy intermediate came back to the client as a *reference*,
    // never as payload: the outcome lists a tagged grid id for stageA's
    // vector, and the wire events carry only strings.
    let (_, vec_ref) = a_out
        .outputs
        .iter()
        .find(|(arg, _)| *arg == 1)
        .expect("stageA's vector output published as a ref");
    assert!(
        vec_ref.starts_with("stageA@d"),
        "expected a tagged grid id, got {vec_ref:?}"
    );

    // stageB consumed the real data (sum of 0..n), so the intermediate
    // did move — and s1's pull counter accounts for every byte of it,
    // proving the transfer ran SeD-to-SeD through the catalog.
    let expected: f64 = (0..VEC_LEN).map(|i| i as f64).sum();
    let (_, sum) = b_out.scalars.iter().find(|(arg, _)| *arg == 1).unwrap();
    assert_eq!(*sum, expected as i64);
    let pulled = d
        .obs
        .metrics
        .counter_with("diet_data_pull_bytes_total", &[("sed", "s1")])
        .get();
    assert!(
        pulled >= (VEC_LEN * 8) as u64,
        "s1 pulled only {pulled} bytes for an {} byte vector",
        VEC_LEN * 8
    );

    d.shutdown();
}

/// A table whose single `work` service runs in ~20 ms — unless the shared
/// trip-wire is armed, in which case exactly one solve (the straggler)
/// wedges for `stall`.
fn straggler_table(trip: Arc<AtomicBool>, stall: Duration) -> ServiceTable {
    let mut d = ProfileDesc::alloc("work", 0, 0, 1);
    d.set_arg(0, ArgTag::Scalar).unwrap();
    let solve: SolveFn = Arc::new(move |p: &mut Profile| {
        if trip.swap(false, Ordering::SeqCst) {
            std::thread::sleep(stall);
        } else {
            std::thread::sleep(Duration::from_millis(20));
        }
        let x = p.get_i32(0)?;
        p.set(1, DietValue::ScalarI32(x * 2), Persistence::Volatile)?;
        Ok(0)
    });
    let mut t = ServiceTable::init(1);
    t.add(d, solve).unwrap();
    t
}

fn work_node(id: u32, x: i32) -> DagNodeSpec {
    let mut d = ProfileDesc::alloc("work", 0, 0, 1);
    d.set_arg(0, ArgTag::Scalar).unwrap();
    let mut p = Profile::alloc(&d);
    p.set(0, DietValue::ScalarI32(x), Persistence::Volatile)
        .unwrap();
    DagNodeSpec::new(id, p)
}

/// Straggler speculation: after warm-up dags establish the running median,
/// one solve is wedged far past `speculate_factor` × median. The monitor
/// must launch a duplicate on the other SeD and the dag completes from
/// the duplicate's reply — zero lost dags, wedged original ignored.
#[test]
fn straggler_completes_via_speculative_duplicate() {
    let trip = Arc::new(AtomicBool::new(false));
    let stall = Duration::from_secs(4);
    let d = two_sed_topology()
        .deploy(Arc::new(RoundRobin::new()), {
            let trip = trip.clone();
            move |_| straggler_table(trip.clone(), stall)
        })
        .unwrap();
    let client = DietClient::initialize_distributed(Arc::new(Obs::new()));

    // Warm-up: three clean single-node dags build the duration samples the
    // speculation policy needs (speculate_min_samples).
    for i in 0..3 {
        let spec = WorkflowSpec {
            name: format!("warmup-{i}"),
            nodes: vec![work_node(0, i)],
        };
        let handle = client.submit_dag(&d.ma_client, &spec).unwrap();
        let (outcome, _) = client
            .wait_dag(&d.ma_client, &handle, Duration::from_secs(10))
            .unwrap();
        assert!(outcome.ok);
    }

    // Arm the straggler: the next solve (wherever it lands) wedges for 4 s,
    // ~200x the median. The duplicate lands on the *other* SeD (the
    // engine excludes the straggler's placement) and wins.
    trip.store(true, Ordering::SeqCst);
    let spec = WorkflowSpec {
        name: "straggled".into(),
        nodes: vec![work_node(0, 21)],
    };
    let started = Instant::now();
    let handle = client.submit_dag(&d.ma_client, &spec).unwrap();
    let (outcome, _) = client
        .wait_dag(&d.ma_client, &handle, Duration::from_secs(10))
        .unwrap();

    assert!(outcome.ok, "straggled dag lost: {outcome:?}");
    assert!(
        started.elapsed() < stall,
        "completion waited out the straggler instead of speculating"
    );
    let n = &outcome.nodes[0];
    assert!(n.speculated, "node completed without a duplicate: {n:?}");
    assert!(
        n.scalars.contains(&(1, 42)),
        "wrong result: {:?}",
        n.scalars
    );
    assert!(
        d.obs
            .metrics
            .counter("diet_dag_speculative_launches_total")
            .get()
            >= 1
    );
    assert_eq!(d.obs.metrics.counter("diet_dag_failed_total").get(), 0);

    d.shutdown();
}

/// Progress events stream over the wire via `DagStatus` polling with a
/// cursor, and every node's lifecycle lands as "DagNode" spans under the
/// one workflow trace.
#[test]
fn events_poll_over_wire_and_spans_stitch_under_workflow_trace() {
    let d = two_sed_topology()
        .deploy(Arc::new(RoundRobin::new()), {
            move |_| straggler_table(Arc::new(AtomicBool::new(false)), Duration::ZERO)
        })
        .unwrap();
    let client = DietClient::initialize_distributed(Arc::new(Obs::new()));

    let mut tail = work_node(1, 2);
    tail.deps = vec![0];
    let spec = WorkflowSpec {
        name: "chain".into(),
        nodes: vec![work_node(0, 1), tail],
    };
    let handle = client.submit_dag(&d.ma_client, &spec).unwrap();
    let (outcome, events) = client
        .wait_dag(&d.ma_client, &handle, Duration::from_secs(10))
        .unwrap();
    assert!(outcome.ok);

    // The stream covers each node's full lifecycle, strictly ordered by
    // sequence number, and closes with the dag-level terminal event.
    assert!(events.windows(2).all(|w| w[0].seq < w[1].seq));
    for node in [0, 1] {
        for state in [
            DagNodeState::Ready,
            DagNodeState::Running,
            DagNodeState::Done,
        ] {
            assert!(
                events.iter().any(|e| e.node == node && e.state == state),
                "missing {state:?} event for node {node}: {events:?}"
            );
        }
    }
    assert_eq!(events.last().unwrap().node, u32::MAX, "dag terminal event");

    // Polling with the cursor past the end returns nothing new — the
    // stream is incremental, not a replay.
    let last_seq = events.last().unwrap().seq;
    let (rest, done) = client
        .poll_dag(&d.ma_client, handle.dag_id, last_seq)
        .unwrap();
    assert!(rest.is_empty());
    assert!(done.is_some());

    // Every node ran as a "DagNode" span under the workflow's trace id —
    // one stitched trace for the whole dag, labeled by executing SeD.
    let spans: Vec<_> = d
        .obs
        .tracer
        .snapshot()
        .into_iter()
        .filter(|s| s.trace_id == handle.trace_id && s.name == "DagNode")
        .collect();
    assert_eq!(spans.len(), 2, "one DagNode span per node: {spans:?}");
    for s in &spans {
        assert!(s.resource == "s0" || s.resource == "s1");
    }

    d.shutdown();
}

/// A client that vanishes mid-dag must not leak work: unplaced nodes are
/// cancelled (and counted), the running root drains, and the dag reaches
/// a terminal outcome.
#[test]
fn client_disconnect_cancels_unplaced_nodes() {
    let d = two_sed_topology()
        .deploy(Arc::new(RoundRobin::new()), {
            // Every solve takes ~700 ms — long enough to drop the client
            // while the root is still running and its children unplaced.
            move |_| straggler_table(Arc::new(AtomicBool::new(true)), Duration::from_millis(700))
        })
        .unwrap();

    let mut left = work_node(1, 2);
    left.deps = vec![0];
    let mut right = work_node(2, 3);
    right.deps = vec![0];
    let spec = WorkflowSpec {
        name: "orphaned".into(),
        nodes: vec![work_node(0, 1), left, right],
    };

    // Submit through a throwaway stub and kill it while the root runs.
    let rac = RemoteAgentClient::new("ma", d.ma_server.local_addr);
    let dag_id = rac.submit_dag(&spec, TraceCtx::default()).unwrap();
    std::thread::sleep(Duration::from_millis(150));
    drop(rac);

    // The engine notices the dead connection and finishes the dag without
    // placing the children.
    let deadline = Instant::now() + Duration::from_secs(10);
    let outcome = loop {
        let (_, outcome) = d.dag.status(dag_id, 0).unwrap();
        if let Some(o) = outcome {
            break o;
        }
        assert!(Instant::now() < deadline, "dag never reached an outcome");
        std::thread::sleep(Duration::from_millis(25));
    };

    assert_eq!(outcome.cancelled, 2, "both children cancelled: {outcome:?}");
    assert!(!outcome.ok);
    for node in [1, 2] {
        let n = outcome.nodes.iter().find(|n| n.node == node).unwrap();
        assert_eq!(n.sed, "", "cancelled node must never have been placed");
    }
    assert_eq!(d.obs.metrics.counter("diet_dag_cancelled_total").get(), 2);

    d.shutdown();
}

/// A dag whose root carries an expander is not finished until the expander
/// has returned: the root goes `Done` before its children exist, and the
/// monitor sweep (every 20 ms) must not finalise the one-node dag in that
/// window. The expander is held on a latch across many sweeps.
#[test]
fn sweep_does_not_finalise_a_dag_whose_expander_is_still_running() {
    use std::sync::mpsc;
    let d = two_sed_topology()
        .deploy(Arc::new(RoundRobin::new()), {
            move |_| straggler_table(Arc::new(AtomicBool::new(false)), Duration::ZERO)
        })
        .unwrap();
    let (entered_tx, entered_rx) = mpsc::channel::<()>();
    let (release_tx, release_rx) = mpsc::channel::<()>();
    let (entered_tx, release_rx) = (
        std::sync::Mutex::new(entered_tx),
        std::sync::Mutex::new(release_rx),
    );
    d.dag.register_expander(
        "latched_fanout",
        Arc::new(move |ctx| {
            entered_tx.lock().unwrap().send(()).unwrap();
            release_rx.lock().unwrap().recv().unwrap();
            let mut child = work_node(ctx.next_id, 5);
            child.deps = vec![ctx.node];
            Ok(vec![child])
        }),
    );
    let mut root = work_node(0, 1);
    root.expander = Some("latched_fanout".into());
    let spec = WorkflowSpec {
        name: "latched".into(),
        nodes: vec![root],
    };
    let client = DietClient::initialize_distributed(Arc::new(Obs::new()));
    let handle = client.submit_dag(&d.ma_client, &spec).unwrap();

    // The root is Done and the expander is parked on the latch. Let the
    // sweep run ten times over; the dag must stay open throughout.
    entered_rx
        .recv_timeout(Duration::from_secs(10))
        .expect("expander never ran");
    let until = Instant::now() + Duration::from_millis(250);
    while Instant::now() < until {
        assert!(
            d.dag.outcome(handle.dag_id).is_none(),
            "dag finalised while its expander was still running"
        );
        std::thread::sleep(Duration::from_millis(5));
    }
    release_tx.send(()).unwrap();

    let (outcome, _) = client
        .wait_dag(&d.ma_client, &handle, Duration::from_secs(10))
        .unwrap();
    assert!(outcome.ok, "dag failed: {outcome:?}");
    assert_eq!(outcome.nodes.len(), 2, "child missing: {outcome:?}");
    assert!(outcome.nodes[1].scalars.contains(&(1, 10)));

    d.shutdown();
}

/// A failed expansion is the loss of the dag's continuation: the dag must
/// end `!ok`, not be swept up as a successful one-node dag.
#[test]
fn failed_expansion_fails_the_dag() {
    let d = two_sed_topology()
        .deploy(Arc::new(RoundRobin::new()), {
            move |_| straggler_table(Arc::new(AtomicBool::new(false)), Duration::ZERO)
        })
        .unwrap();
    let mut root = work_node(0, 1);
    root.expander = Some("not_registered".into());
    let spec = WorkflowSpec {
        name: "bad-fanout".into(),
        nodes: vec![root],
    };
    let client = DietClient::initialize_distributed(Arc::new(Obs::new()));
    let handle = client.submit_dag(&d.ma_client, &spec).unwrap();
    let (outcome, _) = client
        .wait_dag(&d.ma_client, &handle, Duration::from_secs(10))
        .unwrap();
    assert!(!outcome.ok, "failed expansion reported ok: {outcome:?}");
    assert_eq!(d.obs.metrics.counter("diet_dag_failed_total").get(), 1);
    d.shutdown();
}

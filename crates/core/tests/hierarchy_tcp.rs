//! The distributed hierarchy end to end: MAs, LAs, and SeDs as separate
//! TCP processes (local processes in these tests — separate listeners,
//! separate connections, nothing shared but the wire).

use diet_core::agent::HELD_ESTIMATES_MAX_AGE;
use diet_core::data::{DietValue, Persistence};
use diet_core::deploy::{SedSpec, TcpSiteSpec, TcpTopologySpec};
use diet_core::hierarchy::{
    serve_agent_over_tcp_at, serve_ma_over_tcp, serve_sed_over_tcp, AgentConfig, RemoteAgentClient,
};
use diet_core::profile::{ArgTag, Profile, ProfileDesc};
use diet_core::sched::RoundRobin;
use diet_core::sed::{SedConfig, SedHandle, ServiceTable, SolveFn};
use diet_core::transport::TcpSedPool;
use diet_core::{
    AgentNode, DietClient, DietError, FaultPlan, HeartbeatMonitor, MasterAgent, Obs, RetryPolicy,
};
use std::sync::Arc;
use std::time::{Duration, Instant};

fn table(service: &'static str) -> ServiceTable {
    let mut d = ProfileDesc::alloc(service, 0, 0, 1);
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

fn request(service: &str, x: i32) -> Profile {
    let mut d = ProfileDesc::alloc(service, 0, 0, 1);
    d.set_arg(0, ArgTag::Scalar).unwrap();
    let mut p = Profile::alloc(&d);
    p.set(0, DietValue::ScalarI32(x), Persistence::Volatile)
        .unwrap();
    p
}

fn policy() -> RetryPolicy {
    RetryPolicy {
        attempt_timeout: Duration::from_secs(10),
        max_retries: 6,
        backoff_base: Duration::from_millis(20),
        backoff_cap: Duration::from_millis(200),
        jitter: 0.5,
    }
}

/// The tentpole, end to end: a 3-level MA → LA → LA topology where the
/// client's submit crosses two remote agent hops before a SeD is chosen,
/// and the solve then goes to that SeD directly. One trace covers the
/// whole finding phase across every process.
#[test]
fn three_level_topology_resolves_through_two_remote_hops() {
    let spec = TcpTopologySpec::chain(3, 2);
    let d = spec
        .deploy(Arc::new(RoundRobin::new()), |_| table("echo"))
        .unwrap();
    let client = DietClient::initialize_distributed(d.obs.clone());
    let (out, stats) = client
        .call_distributed(&d.ma_client, &d.pool, request("echo", 41), &policy())
        .unwrap();
    assert_eq!(out.get_i32(1).unwrap(), 42);
    assert!(stats.finding > 0.0, "finding crossed two TCP hops");

    // The winner lives at the bottom of the chain, behind both hops.
    let (label, _) = client.history().pop().unwrap();
    assert!(label.starts_with("d3/"), "winner {label} not a leaf SeD");

    // Trace propagation: the same trace id shows the client's Finding
    // window AND each interior agent's AgentEstimate window — one trace
    // covers the full finding phase across every process.
    let spans = d.obs.tracer.snapshot();
    let trace: Vec<_> = spans
        .iter()
        .filter(|s| s.trace_id == stats.trace_id)
        .collect();
    assert!(trace.iter().any(|s| s.name == "Finding"));
    for hop in ["la1", "la2"] {
        assert!(
            trace
                .iter()
                .any(|s| s.name == "AgentEstimate" && s.resource == hop),
            "trace missing the {hop} hop: {trace:?}"
        );
    }
    d.shutdown();
}

/// A client holding the MA in-process reaches a SeD behind a remote agent:
/// finding hands `call_over_tcp` the winner's label, which is all its data
/// path needs, even though the MA holds no handle for that SeD.
#[test]
fn call_over_tcp_reaches_a_sed_behind_a_remote_agent() {
    let d = TcpTopologySpec::chain(2, 1)
        .deploy(Arc::new(RoundRobin::new()), |_| table("echo"))
        .unwrap();
    let client = DietClient::initialize(d.ma.clone());
    let (out, stats) = client
        .call_over_tcp(&d.pool, request("echo", 41), &policy())
        .unwrap();
    assert_eq!(out.get_i32(1).unwrap(), 42);
    assert_eq!(stats.retries, 0);
    assert_eq!(client.history().pop().unwrap().0, "d2/s0");
    d.shutdown();
}

/// Depth 1 still works over the wire: an MA with only MA-local SeDs.
#[test]
fn depth_one_topology_serves_ma_local_seds() {
    let spec = TcpTopologySpec::chain(1, 2);
    let d = spec
        .deploy(Arc::new(RoundRobin::new()), |_| table("echo"))
        .unwrap();
    let label = d
        .ma_client
        .submit("echo", &[], obs::TraceCtx::default())
        .unwrap()
        .expect("a candidate");
    assert!(label.starts_with("d1/"));
    let (out, _, _) = d
        .pool
        .call_traced(
            &label,
            request("echo", 1),
            Duration::from_secs(5),
            obs::TraceCtx::default(),
        )
        .unwrap();
    assert_eq!(out.get_i32(1).unwrap(), 2);
    d.shutdown();
}

/// The failover guarantee: killing an interior LA mid-burst loses zero
/// requests. The MA has two remote subtrees; when one agent process dies,
/// finding skips it (a dead remote is an empty remote) and every request
/// lands on the surviving subtree or on SeDs already chosen.
#[test]
fn interior_la_kill_mid_burst_loses_zero_requests() {
    let spec = TcpTopologySpec {
        ma_name: "MA".into(),
        ma_seds: vec![],
        sites: vec![
            TcpSiteSpec {
                name: "la-a".into(),
                seds: vec![
                    SedSpec {
                        label: "a/s0".into(),
                        speed_factor: 1.0,
                    },
                    SedSpec {
                        label: "a/s1".into(),
                        speed_factor: 1.0,
                    },
                ],
                children: vec![],
            },
            TcpSiteSpec {
                name: "la-b".into(),
                seds: vec![
                    SedSpec {
                        label: "b/s0".into(),
                        speed_factor: 1.0,
                    },
                    SedSpec {
                        label: "b/s1".into(),
                        speed_factor: 1.0,
                    },
                ],
                children: vec![],
            },
        ],
        admission_limit: None,
        child_timeout_ms: 500,
    };
    let d = Arc::new(
        spec.deploy(Arc::new(RoundRobin::new()), |_| table("echo"))
            .unwrap(),
    );
    const BURST: usize = 30;
    let client = Arc::new(DietClient::initialize_distributed(d.obs.clone()));
    let mut workers = Vec::new();
    for i in 0..BURST {
        let dep = d.clone();
        let client = client.clone();
        workers.push(std::thread::spawn(move || {
            let (out, _) = client
                .call_distributed(
                    &dep.ma_client,
                    &dep.pool,
                    request("echo", i as i32),
                    &policy(),
                )
                .unwrap_or_else(|e| panic!("request {i} lost: {e}"));
            assert_eq!(out.get_i32(1).unwrap(), i as i32 + 1);
        }));
        if i == BURST / 2 {
            // Crash the interior agent mid-burst: its listener closes and
            // every live connection is severed.
            assert!(d.kill_agent("la-a"));
        }
    }
    for w in workers {
        w.join().unwrap();
    }
    // After the kill, finding still works and routes around the corpse
    // once what the MA held from before the kill has aged out (until then
    // it may place on la-a's SeDs, which still serve).
    std::thread::sleep(HELD_ESTIMATES_MAX_AGE);
    let label = d
        .ma_client
        .submit("echo", &[], obs::TraceCtx::default())
        .unwrap()
        .expect("surviving subtree serves");
    assert!(label.starts_with("b/"), "routed to dead subtree: {label}");
    if let Ok(d) = Arc::try_unwrap(d) {
        d.shutdown();
    }
}

/// Multi-MA federation: an MA that cannot resolve a service in its own
/// tree forwards to its federation peers and schedules over their
/// estimates; a service that *is* declared locally never federates.
#[test]
fn unknown_service_federates_to_peer_ma() {
    let obs = Arc::new(Obs::new());
    let pool = TcpSedPool::new();

    // MA2's island declares "beta".
    let beta =
        SedHandle::spawn_with_obs(SedConfig::new("beta/s0", 1.0), table("beta"), obs.clone());
    let beta_srv = serve_sed_over_tcp(beta.clone()).unwrap();
    pool.register("beta/s0", beta_srv.local_addr);
    let ma2 = MasterAgent::new_with_obs(
        "MA2",
        vec![AgentNode::leaf("site2", vec![beta.clone()])],
        Arc::new(RoundRobin::new()),
        obs.clone(),
    );
    let cfg = || AgentConfig {
        obs: obs.clone(),
        ..AgentConfig::default()
    };
    let ma2_srv = serve_ma_over_tcp(ma2.clone(), vec![], cfg()).unwrap();

    // MA1's island declares "alpha" and peers with MA2.
    let alpha =
        SedHandle::spawn_with_obs(SedConfig::new("alpha/s0", 1.0), table("alpha"), obs.clone());
    let alpha_srv = serve_sed_over_tcp(alpha.clone()).unwrap();
    pool.register("alpha/s0", alpha_srv.local_addr);
    let ma1 = MasterAgent::new_with_obs(
        "MA1",
        vec![AgentNode::leaf("site1", vec![alpha.clone()])],
        Arc::new(RoundRobin::new()),
        obs.clone(),
    );
    let peer = RemoteAgentClient::new("MA2", ma2_srv.local_addr);
    let ma1_srv = serve_ma_over_tcp(ma1.clone(), vec![peer], cfg()).unwrap();

    let ma1_client = RemoteAgentClient::new("MA1", ma1_srv.local_addr);
    let ctx = obs::TraceCtx::default();

    // "beta" is unknown to MA1's tree → federated to MA2, whose SeD wins.
    let label = ma1_client.submit("beta", &[], ctx).unwrap();
    assert_eq!(label.as_deref(), Some("beta/s0"));
    assert!(obs.metrics.counter("diet_ma_federated_total").get() >= 1);
    // ... and the label is directly callable, exactly like a local winner.
    let (out, _, _) = pool
        .call_traced("beta/s0", request("beta", 7), Duration::from_secs(5), ctx)
        .unwrap();
    assert_eq!(out.get_i32(1).unwrap(), 8);

    // "alpha" is declared locally: excluding its only server yields
    // NoServerAvailable, which must NOT federate.
    let before = obs.metrics.counter("diet_ma_federated_total").get();
    let none = ma1_client
        .submit("alpha", &["alpha/s0".into()], ctx)
        .unwrap();
    assert_eq!(none, None);
    assert_eq!(
        obs.metrics.counter("diet_ma_federated_total").get(),
        before,
        "NoServerAvailable must stay local"
    );

    for s in [&ma1_srv, &ma2_srv, &alpha_srv, &beta_srv] {
        s.kill();
    }
    alpha.shutdown();
    beta.shutdown();
}

/// Tree-shaped liveness: heartbeat loss on an interior agent takes its
/// whole subtree out of routing; when the agent comes back (same address),
/// the next successful probe puts the subtree straight back.
#[test]
fn heartbeat_marks_dead_subtree_and_restores_it_on_return() {
    let spec = TcpTopologySpec {
        ma_name: "MA".into(),
        ma_seds: vec![],
        sites: vec![
            TcpSiteSpec {
                name: "la-a".into(),
                seds: vec![SedSpec {
                    label: "a/s0".into(),
                    speed_factor: 1.0,
                }],
                children: vec![],
            },
            TcpSiteSpec {
                name: "la-b".into(),
                seds: vec![SedSpec {
                    label: "b/s0".into(),
                    speed_factor: 1.0,
                }],
                children: vec![],
            },
        ],
        admission_limit: None,
        child_timeout_ms: 500,
    };
    let d = spec
        .deploy(Arc::new(RoundRobin::new()), |_| table("echo"))
        .unwrap();
    let addr_a = d.agent_addr("la-a").unwrap();
    let slot_a =
        d.ma.remote_slots()
            .into_iter()
            .find(|s| s.name() == "la-a")
            .unwrap();
    let monitor = HeartbeatMonitor::spawn(
        d.ma.clone(),
        Duration::from_millis(30),
        Duration::from_millis(150),
        2,
    );

    assert!(d.kill_agent("la-a"));
    let deadline = Instant::now() + Duration::from_secs(5);
    while slot_a.is_available() {
        assert!(Instant::now() < deadline, "la-a never marked unavailable");
        std::thread::sleep(Duration::from_millis(20));
    }
    assert!(
        d.obs
            .metrics
            .counter("diet_heartbeat_agent_evictions_total")
            .get()
            >= 1
    );
    // With the subtree out of routing, every submit lands on la-b — and
    // pays no dial/timeout for the corpse.
    let ctx = obs::TraceCtx::default();
    for _ in 0..4 {
        let label = d.ma_client.submit("echo", &[], ctx).unwrap().unwrap();
        assert_eq!(label, "b/s0");
    }

    // The agent returns on the same address (host reboot): rebuild its
    // node over the still-running SeD and rebind.
    let sed_a = d
        .seds
        .iter()
        .find(|s| s.config.label == "a/s0")
        .unwrap()
        .clone();
    let node = AgentNode::leaf("la-a", vec![sed_a]);
    let revived = serve_agent_over_tcp_at(
        node,
        addr_a,
        AgentConfig {
            obs: d.obs.clone(),
            ..AgentConfig::default()
        },
    )
    .unwrap();
    let deadline = Instant::now() + Duration::from_secs(5);
    while !slot_a.is_available() {
        assert!(Instant::now() < deadline, "la-a never restored");
        std::thread::sleep(Duration::from_millis(20));
    }
    assert!(
        d.obs
            .metrics
            .counter("diet_heartbeat_agent_restorations_total")
            .get()
            >= 1
    );
    // Its subtree is schedulable again.
    let label = d
        .ma_client
        .submit("echo", &["b/s0".into()], ctx)
        .unwrap()
        .unwrap();
    assert_eq!(label, "a/s0");

    monitor.stop();
    revived.kill();
    d.shutdown();
}

/// One LA process over one SeD, with a fault plan on the agent's own
/// collection path.
fn faulty_site(
    name: &str,
    label: &str,
) -> (
    Arc<FaultPlan>,
    diet_core::transport::TcpServer,
    Arc<SedHandle>,
) {
    let sed = SedHandle::spawn(SedConfig::new(label, 1.0), table("echo"));
    let node = AgentNode::leaf(name, vec![sed.clone()]);
    let plan = FaultPlan::new();
    node.set_faults(plan.clone());
    let server = serve_agent_over_tcp_at(node, "127.0.0.1:0", AgentConfig::default()).unwrap();
    (plan, server, sed)
}

/// Sibling sites are asked in parallel and waited on once: two LAs each
/// stalled by D cost one submit about D, not 2·D. A site wedged past the
/// collect deadline is an empty subtree — submits land on the healthy
/// site within the deadline and the timeout counter ticks.
#[test]
fn sibling_sites_are_asked_at_once_and_a_wedged_one_costs_one_deadline() {
    let (plan_a, server_a, sed_a) = faulty_site("la-a", "a/s0");
    let (plan_b, server_b, sed_b) = faulty_site("la-b", "b/s0");
    let root = AgentNode::leaf("MA/local", vec![]);
    let slots: Vec<_> = [("la-a", &server_a), ("la-b", &server_b)]
        .into_iter()
        .map(|(name, server)| {
            root.add_remote(RemoteAgentClient::with_timeout(
                name,
                server.local_addr,
                Duration::from_secs(10),
            ))
        })
        .collect();
    let ma = MasterAgent::new("MA", vec![root], Arc::new(RoundRobin::new()));
    ma.set_collect_timeout(Duration::from_secs(5));
    let ctx = obs::TraceCtx::default();
    // Warm both connections so the timed submit measures finding alone. A
    // probe rides the connection a `Forward` does and, unlike a submit,
    // leaves no held estimates behind: the timed submit walks both sites.
    for slot in &slots {
        assert!(slot.remote().ping(Duration::from_secs(5)));
    }

    let stall = Duration::from_millis(300);
    plan_a.set_stall(stall);
    plan_b.set_stall(stall);
    let t0 = Instant::now();
    ma.resolve("echo", &[], &[], ctx).unwrap();
    let took = t0.elapsed();
    assert!(took >= stall, "the stall was not applied: {took:?}");
    assert!(took < 2 * stall, "sites asked in turn: {took:?}");
    let timeouts = || ma.metrics().counter_value("diet_ma_subtree_timeouts_total");
    assert_eq!(timeouts(), 0);

    // Wedge la-b far past the deadline; la-a answers at once. The held
    // estimates of the timed submit age out first, so each submit below
    // walks la-b (la-a only until its first answer is held again).
    std::thread::sleep(HELD_ESTIMATES_MAX_AGE);
    plan_a.set_stall(Duration::ZERO);
    plan_b.set_stall(Duration::from_secs(3));
    let deadline = Duration::from_millis(200);
    ma.set_collect_timeout(deadline);
    for _ in 0..3 {
        let t0 = Instant::now();
        assert_eq!(ma.resolve("echo", &[], &[], ctx).unwrap(), "a/s0");
        let took = t0.elapsed();
        assert!(
            took < deadline + Duration::from_millis(300),
            "a wedged site cost more than the deadline: {took:?}"
        );
    }
    assert_eq!(timeouts(), 3);

    plan_b.set_stall(Duration::ZERO);
    server_a.kill();
    server_b.kill();
    sed_a.shutdown();
    sed_b.shutdown();
}

/// Per-agent admission control: an MA serving with a tiny admission limit
/// answers overflow with `Busy` (echoing the request id), and the client's
/// retry loop absorbs it — every request still completes.
#[test]
fn agent_admission_limit_pushes_back_with_busy() {
    let spec = TcpTopologySpec {
        ma_name: "MA".into(),
        ma_seds: vec![SedSpec {
            label: "m/s0".into(),
            speed_factor: 1.0,
        }],
        sites: vec![],
        admission_limit: Some(1),
        child_timeout_ms: 500,
    };
    let d = Arc::new(
        spec.deploy(Arc::new(RoundRobin::new()), |_| table("echo"))
            .unwrap(),
    );
    let client = Arc::new(DietClient::initialize_distributed(d.obs.clone()));
    let mut workers = Vec::new();
    for i in 0..12 {
        let d = d.clone();
        let client = client.clone();
        workers.push(std::thread::spawn(move || {
            client
                .call_distributed(&d.ma_client, &d.pool, request("echo", i), &policy())
                .map(|(out, _)| out.get_i32(1).unwrap())
        }));
    }
    for (i, w) in workers.into_iter().enumerate() {
        assert_eq!(w.join().unwrap().unwrap(), i as i32 + 1);
    }
    if let Ok(d) = Arc::try_unwrap(d) {
        d.shutdown();
    }
}

/// An unknown service with no federation peers is a clean `None`, which
/// the distributed client surfaces as `RetriesExhausted` wrapping
/// `NoServerAvailable` — not a hang, not a transport fault.
#[test]
fn unknown_service_without_peers_is_a_clean_miss() {
    let spec = TcpTopologySpec::chain(2, 1);
    let d = spec
        .deploy(Arc::new(RoundRobin::new()), |_| table("echo"))
        .unwrap();
    let client = DietClient::initialize_distributed(d.obs.clone());
    let fast = RetryPolicy {
        attempt_timeout: Duration::from_secs(2),
        max_retries: 1,
        backoff_base: Duration::from_millis(5),
        backoff_cap: Duration::from_millis(10),
        jitter: 0.0,
    };
    let err = client
        .call_distributed(&d.ma_client, &d.pool, request("nosuch", 0), &fast)
        .unwrap_err();
    assert!(
        matches!(err, DietError::RetriesExhausted { .. }),
        "got {err:?}"
    );
    d.shutdown();
}

/// A SeD dies between two refreshes of the MA's held estimates, and its LA
/// (no heartbeat monitor in this topology) keeps listing it. A request
/// placed on it fails over once: the retry excludes the label, which is
/// answered without it and drops the held batch.
#[test]
fn a_sed_killed_between_refreshes_costs_at_most_one_retry_per_request() {
    let d = Arc::new(
        TcpTopologySpec::chain(2, 3)
            .deploy(Arc::new(RoundRobin::new()), |_| table("echo"))
            .unwrap(),
    );
    let client = Arc::new(DietClient::initialize_distributed(d.obs.clone()));
    for i in 0..6 {
        client
            .call_distributed(&d.ma_client, &d.pool, request("echo", i), &policy())
            .unwrap();
    }
    // The SeD's host dies: its server goes, and nothing tells the LA.
    let victim = d.seds.iter().position(|s| s.config.label == "d2/s1");
    d.sed_servers[victim.unwrap()].kill();
    let workers: Vec<_> = (0..4)
        .map(|k| {
            let (d, client) = (d.clone(), client.clone());
            std::thread::spawn(move || {
                (0..10)
                    .map(|i| {
                        let x = k * 10 + i;
                        let (out, stats) = client
                            .call_distributed(&d.ma_client, &d.pool, request("echo", x), &policy())
                            .unwrap_or_else(|e| panic!("request {x} lost: {e}"));
                        assert_eq!(out.get_i32(1).unwrap(), x + 1);
                        stats.retries
                    })
                    .collect::<Vec<_>>()
            })
        })
        .collect();
    let retries: Vec<u32> = workers
        .into_iter()
        .flat_map(|w| w.join().unwrap())
        .collect();
    assert!(retries.iter().all(|&r| r <= 1), "{retries:?}");
    assert!(retries.contains(&1), "the dead SeD was never tried");
    if let Ok(d) = Arc::try_unwrap(d) {
        d.shutdown();
    }
}

/// The benchmark's `rpc_small` shape — `chain(2, 2)`, two closed-loop
/// callers — with the split of the MA's finding read over the wire from
/// its metrics dump: most submits are answered from the held table.
#[test]
fn held_estimates_answer_most_submits_at_the_rpc_small_shape() {
    let d = Arc::new(
        TcpTopologySpec::chain(2, 2)
            .deploy(Arc::new(RoundRobin::new()), |_| table("echo"))
            .unwrap(),
    );
    let client = Arc::new(DietClient::initialize_distributed(d.obs.clone()));
    const CALLS: usize = 1000;
    let callers: Vec<_> = (0..2)
        .map(|_| {
            let (d, client) = (d.clone(), client.clone());
            std::thread::spawn(move || {
                for i in 0..CALLS as i32 {
                    client
                        .call_distributed(&d.ma_client, &d.pool, request("echo", i), &policy())
                        .unwrap();
                }
            })
        })
        .collect();
    for c in callers {
        c.join().unwrap();
    }
    let dump = TcpSedPool::new();
    dump.register("MA", d.ma_server.local_addr);
    let text = dump
        .dump_metrics_correlated("MA", "", Duration::from_secs(5))
        .unwrap();
    let counter = |name: &str| -> u64 {
        text.lines()
            .find_map(|l| l.strip_prefix(name)?.strip_prefix(' ')?.parse().ok())
            .unwrap_or(0)
    };
    let held = counter("diet_ma_finding_held_total");
    let walks = counter("diet_ma_finding_walks_total");
    // One remote slot: each submit reads it once, from the table or the wire.
    assert_eq!(held + walks, 2 * CALLS as u64);
    let ratio = held as f64 / (held + walks) as f64;
    println!("{held} held, {walks} walked: hit ratio {ratio:.3}");
    assert!(walks >= 1 && ratio > 0.5, "{held} held, {walks} walked");
    if let Ok(d) = Arc::try_unwrap(d) {
        d.shutdown();
    }
}

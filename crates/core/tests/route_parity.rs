//! Route parity: the three retrying GridRPC calls and the DAG engine's node
//! launches run one retry loop, so a fault must end the same way whichever
//! route the request takes — finding in-process with the solve in-process
//! (`call_with_retry`) or over TCP (`call_over_tcp`), finding through a
//! remote MA process (`call_distributed`), or a one-node dag placed by a
//! `DagEngine` on the in-process MA. Each row injects one fault into a
//! fresh grid per route and compares what the caller saw: the outcome
//! kind, the resubmissions, and (for the calls) the Busy bounces and
//! re-ships behind them.

use diet_core::dag::{DagEngine, DagEngineConfig, DagNodeSpec, WorkflowSpec};
use diet_core::data::{DietValue, Persistence};
use diet_core::hierarchy::{serve_ma_over_tcp, serve_sed_over_tcp, AgentConfig, RemoteAgentClient};
use diet_core::profile::{ArgTag, Profile, ProfileDesc};
use diet_core::sched::RoundRobin;
use diet_core::sed::{SedConfig, SedHandle, ServiceTable, SolveFn};
use diet_core::transport::{TcpSedPool, TcpServer};
use diet_core::{AgentNode, CallStats, DietClient, DietError, MasterAgent, RetryPolicy, TraceCtx};
use std::sync::Arc;
use std::time::{Duration, Instant};

const MAX_RETRIES: u32 = 2;

fn policy() -> RetryPolicy {
    RetryPolicy {
        attempt_timeout: Duration::from_secs(5),
        max_retries: MAX_RETRIES,
        backoff_base: Duration::from_millis(1),
        backoff_cap: Duration::from_millis(5),
        jitter: 0.0,
    }
}

/// `sum`: OUT scalar = the sum of an IN vector (inline or by reference).
fn sum_table() -> ServiceTable {
    let mut d = ProfileDesc::alloc("sum", 0, 0, 1);
    d.set_arg(0, ArgTag::Vector).unwrap();
    let solve: SolveFn = Arc::new(|p: &mut Profile| {
        let s: f64 = match p.get(0)? {
            DietValue::VectorF64(xs) => xs.iter().sum(),
            _ => return Err(DietError::Rejected("expected f64 vector".into())),
        };
        p.set(1, DietValue::ScalarF64(s), Persistence::Volatile)?;
        Ok(0)
    });
    let mut t = ServiceTable::init(1);
    t.add(d, solve).unwrap();
    t
}

fn request(service: &str, arg: DietValue) -> Profile {
    let mut p = Profile::alloc(&ProfileDesc::alloc(service, 0, 0, 1));
    p.set(0, arg, Persistence::Persistent).unwrap();
    p
}

fn sum_of(xs: &[f64]) -> Profile {
    request("sum", DietValue::vec_f64(xs.to_vec()))
}

/// SeDs `p/0..n` on their own TCP servers, an in-process MA over them, and
/// the same MA served over TCP as the remote route.
struct Grid {
    seds: Vec<Arc<SedHandle>>,
    _servers: Vec<TcpServer>,
    pool: Arc<TcpSedPool>,
    ma: Arc<MasterAgent>,
    remote_ma: Arc<RemoteAgentClient>,
    client: DietClient,
}

impl Grid {
    fn new(n: usize) -> Grid {
        let seds: Vec<_> = (0..n)
            .map(|i| SedHandle::spawn(SedConfig::new(&format!("p/{i}"), 1.0), sum_table()))
            .collect();
        let pool = Arc::new(TcpSedPool::new());
        let mut servers = Vec::new();
        for sed in &seds {
            let server = serve_sed_over_tcp(sed.clone()).unwrap();
            pool.register(&sed.config.label, server.local_addr);
            servers.push(server);
        }
        let la = AgentNode::leaf("LA", seds.clone());
        let ma = MasterAgent::new("MA", vec![la], Arc::new(RoundRobin::new()));
        let ma_server = serve_ma_over_tcp(ma.clone(), vec![], AgentConfig::default()).unwrap();
        let remote_ma = RemoteAgentClient::new("MA", ma_server.local_addr);
        servers.push(ma_server);
        Grid {
            seds,
            _servers: servers,
            pool,
            ma: ma.clone(),
            remote_ma,
            client: DietClient::initialize(ma),
        }
    }

    fn call(&self, route: usize, p: Profile) -> Result<(Profile, CallStats), DietError> {
        match route {
            0 => self.client.call_with_retry(p, &policy()),
            1 => self.client.call_over_tcp(&self.pool, p, &policy()),
            _ => {
                let ma = &self.remote_ma;
                self.client.call_distributed(ma, &self.pool, p, &policy())
            }
        }
    }

    /// `p` as a one-node dag through an engine on this grid's MA and pool:
    /// `Done` reads "ok", `Failed` "retries exhausted", next to the
    /// engine's node retries. The outcome is awaited with a deadline, so a
    /// node that never stops retrying fails the row instead of hanging it.
    fn dag(&self, p: Profile) -> (String, u64) {
        let engine = DagEngine::new(
            self.ma.clone(),
            self.pool.clone(),
            DagEngineConfig::default(),
        );
        let mut node = DagNodeSpec::new(0, p);
        node.max_retries = MAX_RETRIES;
        let spec = WorkflowSpec {
            name: "parity".into(),
            nodes: vec![node],
        };
        let id = engine.submit(spec, TraceCtx::default(), None).unwrap();
        let deadline = Instant::now() + Duration::from_secs(20);
        let outcome = loop {
            match engine.outcome(id) {
                Some(o) => break Some(o),
                None if Instant::now() > deadline => break None,
                None => std::thread::sleep(Duration::from_millis(5)),
            }
        };
        engine.shutdown();
        let retries = self
            .ma
            .metrics()
            .counter_value("diet_dag_node_retries_total");
        let kind = match outcome {
            Some(o) if o.ok => "ok",
            Some(_) => "retries exhausted",
            None => "no outcome within the deadline",
        };
        (kind.to_string(), retries)
    }
}

impl Drop for Grid {
    fn drop(&mut self) {
        for sed in &self.seds {
            sed.shutdown();
        }
    }
}

const ROUTES: [&str; 3] = ["call_with_retry", "call_over_tcp", "call_distributed"];

/// What a client saw: outcome kind, resubmissions (`CallStats::retries` on
/// success), Busy bounces, re-ships.
type Seen = (String, u64, u64, u64);

struct Fault {
    name: &'static str,
    seds: usize,
    /// Break the grid; returns the request to send into it.
    inject: fn(&Grid) -> Profile,
    expect: (&'static str, u64, u64, u64),
    /// What the one-node dag ends with: outcome kind and node retries.
    dag: (&'static str, u64),
}

const FAULTS: [Fault; 6] = [
    Fault {
        name: "SeD killed mid-call",
        seds: 2,
        inject: |g| {
            // Round-robin on a cold start picks p/0 first.
            g.seds[0].faults().kill_at_request(1);
            sum_of(&[1.0, 2.0])
        },
        expect: ("ok", 1, 0, 0),
        dag: ("ok", 1),
    },
    Fault {
        name: "SeD busy",
        seds: 2,
        inject: |g| {
            g.seds[0].faults().set_force_busy(true);
            sum_of(&[1.0, 2.0])
        },
        expect: ("ok", 1, 1, 0),
        dag: ("ok", 1),
    },
    Fault {
        name: "unknown service",
        seds: 1,
        inject: |_| request("nosuch", DietValue::vec_f64(vec![1.0])),
        expect: ("retries exhausted", MAX_RETRIES as u64, 0, 0),
        dag: ("retries exhausted", MAX_RETRIES as u64),
    },
    Fault {
        name: "every candidate excluded",
        seds: 1,
        inject: |g| {
            g.seds[0].faults().kill_at_request(1);
            sum_of(&[1.0, 2.0])
        },
        expect: ("retries exhausted", MAX_RETRIES as u64, 0, 0),
        dag: ("retries exhausted", MAX_RETRIES as u64),
    },
    Fault {
        name: "DataNotFound with a cached payload",
        seds: 1,
        inject: |g| {
            let xs = DietValue::vec_f64(vec![1.0, 2.0]);
            let mode = Persistence::Persistent;
            let deadline = Duration::from_secs(5);
            g.client
                .store_data_over_tcp(&g.pool, "p/0", "xs", xs, mode, deadline)
                .unwrap();
            // The holder loses it; only the client's copy is left.
            g.seds[0].datamgr.free("xs").unwrap();
            request("sum", DietValue::data_ref("xs"))
        },
        expect: ("ok", 1, 0, 1),
        // By design: the engine holds no copy of a node's inputs, so it has
        // nothing to re-ship and the node fails on the first attempt.
        dag: ("retries exhausted", 0),
    },
    Fault {
        name: "every candidate Busy",
        seds: 1,
        inject: |g| {
            g.seds[0].faults().set_force_busy(true);
            sum_of(&[1.0, 2.0])
        },
        expect: (
            "retries exhausted",
            MAX_RETRIES as u64,
            MAX_RETRIES as u64 + 1,
            0,
        ),
        dag: ("retries exhausted", MAX_RETRIES as u64),
    },
];

fn seen(client: &DietClient, result: Result<(Profile, CallStats), DietError>) -> Seen {
    let m = client.metrics();
    let retries = m.counter_value("diet_client_resubmissions_total");
    let busy = m.counter_value("diet_client_busy_total");
    let reships = m.counter_value("diet_client_data_reships_total");
    let kind = match result {
        Ok((out, stats)) => {
            assert_eq!(out.get_f64(1).unwrap(), 3.0);
            assert_eq!(stats.retries as u64, retries);
            "ok".to_string()
        }
        Err(DietError::RetriesExhausted { .. }) => "retries exhausted".to_string(),
        Err(e) => format!("{e:?}"),
    };
    (kind, retries, busy, reships)
}

#[test]
fn every_fault_ends_the_same_way_on_every_route() {
    let mut failures = Vec::new();
    for fault in &FAULTS {
        let (kind, retries, busy, reships) = fault.expect;
        let expect: Seen = (kind.to_string(), retries, busy, reships);
        for (route, name) in ROUTES.iter().enumerate() {
            let grid = Grid::new(fault.seds);
            let p = (fault.inject)(&grid);
            let got = seen(&grid.client, grid.call(route, p));
            if got != expect {
                failures.push(format!(
                    "{}: {name} saw {got:?}, not {expect:?}",
                    fault.name
                ));
            }
        }
        let expect = (fault.dag.0.to_string(), fault.dag.1);
        let grid = Grid::new(fault.seds);
        let p = (fault.inject)(&grid);
        let got = grid.dag(p);
        if got != expect {
            failures.push(format!(
                "{}: the dag engine saw {got:?}, not {expect:?}",
                fault.name
            ));
        }
    }
    assert!(failures.is_empty(), "{failures:#?}");
}

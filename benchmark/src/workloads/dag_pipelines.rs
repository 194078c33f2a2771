//! `dag_pipelines`: a closed loop of six-node diamonds through the MA's DAG
//! engine — `gen` (256 KiB out) → 4 × `xform` (by reference, 64 KiB out) →
//! `reduce`. The services compute nothing to speak of, so the node state
//! machines, placement, tagged intermediates and event polling dominate.
//! It is the one workload where a refactor of `dag.rs` can show.

use super::{common_layers, rss_at_mark, Args, Completion, Report};
use crate::rig::{caller_clients, on_callers, repeat_setup, FlatGrid, SplitMix64, Telemetry};
use crate::spans::SpanLog;
use crate::stats::Samples;
use diet_core::dag::{DagInput, DagNodeSpec, WorkflowSpec};
use diet_core::data::{DietValue, Persistence};
use diet_core::profile::{ArgTag, Profile, ProfileDesc};
use diet_core::sed::{ServiceTable, SolveFn};
use diet_core::{DietClient, TelemetryFlusher};
use obs::SpanRecord;
use std::sync::Arc;
use std::time::{Duration, Instant};

const GEN_LEN: usize = 32 * 1024; // f64s: 256 KiB
const FAN: usize = 4;
const XFORM_LEN: usize = GEN_LEN / FAN; // 64 KiB each
const NODES_PER_DAG: f64 = 2.0 + FAN as f64;
/// Longest dependency chain: gen, xform, reduce.
const DEPTH: f64 = 3.0;
const SED_CAPACITY: u64 = 64 << 20;
const POLL: Duration = Duration::from_millis(2);
const DAG_TIMEOUT: Duration = Duration::from_secs(30);
const WARMUP_DAGS: usize = 20;
/// Submitter 0 reads the peak RSS after this many of its own dags.
const RSS_MARK: usize = 200;

fn desc(name: &str, last_in: isize, last_out: isize, tags: &[ArgTag]) -> ProfileDesc {
    let mut d = ProfileDesc::alloc(name, last_in, last_in, last_out);
    for (i, tag) in tags.iter().enumerate() {
        d.set_arg(i, *tag).unwrap();
    }
    d
}

fn gen_desc() -> ProfileDesc {
    desc("gen", 0, 1, &[ArgTag::Scalar, ArgTag::Vector])
}

fn xform_desc() -> ProfileDesc {
    desc(
        "xform",
        1,
        2,
        &[ArgTag::Vector, ArgTag::Scalar, ArgTag::Vector],
    )
}

fn reduce_desc() -> ProfileDesc {
    let mut tags = vec![ArgTag::Vector; FAN];
    tags.push(ArgTag::Scalar);
    desc("reduce", FAN as isize - 1, FAN as isize, &tags)
}

/// Element `i` of the vector `gen` makes from `seed`: small integers, so
/// every sum downstream is exact in f64.
fn gen_value(seed: i32, i: usize) -> f64 {
    ((seed as i64).wrapping_mul(31).wrapping_add(i as i64)).rem_euclid(1000) as f64
}

/// What `reduce` must return for a dag seeded with `seed`: `xform` k keeps
/// every FAN-th element from offset k and adds k to each.
fn expected_sum(seed: i32) -> i64 {
    let gen: f64 = (0..GEN_LEN).map(|i| gen_value(seed, i)).sum();
    let added: usize = (0..FAN).map(|k| k * XFORM_LEN).sum();
    gen as i64 + added as i64
}

fn vector(p: &Profile, arg: usize) -> Result<&[f64], diet_core::DietError> {
    match p.get(arg)? {
        DietValue::VectorF64(v) => Ok(v),
        other => Err(diet_core::DietError::Rejected(format!(
            "arg {arg}: expected a vector, got {}",
            other.type_name()
        ))),
    }
}

fn pipeline_table() -> ServiceTable {
    let gen: SolveFn = Arc::new(|p: &mut Profile| {
        let seed = p.get_i32(0)?;
        let v: Vec<f64> = (0..GEN_LEN).map(|i| gen_value(seed, i)).collect();
        p.set(1, DietValue::vec_f64(v), Persistence::Persistent)?;
        Ok(0)
    });
    let xform: SolveFn = Arc::new(|p: &mut Profile| {
        let k = p.get_i32(1)? as usize;
        let out: Vec<f64> = vector(p, 0)?
            .iter()
            .skip(k)
            .step_by(FAN)
            .map(|x| x + k as f64)
            .collect();
        p.set(2, DietValue::vec_f64(out), Persistence::Persistent)?;
        Ok(0)
    });
    let reduce: SolveFn = Arc::new(|p: &mut Profile| {
        let mut sum = 0.0;
        for arg in 0..FAN {
            sum += vector(p, arg)?.iter().sum::<f64>();
        }
        p.set(FAN, DietValue::ScalarI64(sum as i64), Persistence::Volatile)?;
        Ok(0)
    });
    let mut t = ServiceTable::init(3);
    t.add(gen_desc(), gen).unwrap();
    t.add(xform_desc(), xform).unwrap();
    t.add(reduce_desc(), reduce).unwrap();
    t
}

/// The diamond: node 0 `gen`, nodes 1..=FAN `xform`, node FAN+1 `reduce`.
fn diamond(seed: i32) -> WorkflowSpec {
    let scalar = |p: &mut Profile, arg: usize, v: i32| {
        p.set(arg, DietValue::ScalarI32(v), Persistence::Volatile)
            .unwrap()
    };
    let mut gen = Profile::alloc(&gen_desc());
    scalar(&mut gen, 0, seed);
    let mut nodes = vec![DagNodeSpec::new(0, gen)];
    let reduce_id = FAN as u32 + 1;
    let mut reduce = DagNodeSpec::new(reduce_id, Profile::alloc(&reduce_desc()));
    for k in 0..FAN as u32 {
        let mut p = Profile::alloc(&xform_desc());
        scalar(&mut p, 1, k as i32);
        let mut node = DagNodeSpec::new(k + 1, p);
        node.deps = vec![0];
        node.inputs = vec![DagInput {
            arg: 0,
            from_node: 0,
            from_arg: 1,
        }];
        nodes.push(node);
        reduce.deps.push(k + 1);
        reduce.inputs.push(DagInput {
            arg: k,
            from_node: k + 1,
            from_arg: 2,
        });
    }
    nodes.push(reduce);
    WorkflowSpec {
        name: "diamond".into(),
        nodes,
    }
}

struct Rig {
    telemetry: Option<Telemetry>,
    grid: FlatGrid,
    clients: Vec<DietClient>,
    flushers: Vec<TelemetryFlusher>,
}

/// One dag's client-side timings.
struct DagRun {
    sum: Option<i64>,
    submit_s: f64,
    poll_s: Vec<f64>,
}

impl Rig {
    fn up(trace: bool) -> Rig {
        let telemetry = trace.then(Telemetry::start);
        let grid = FlatGrid::deploy(2, SED_CAPACITY, pipeline_table, telemetry.as_ref());
        let (clients, flushers) = caller_clients(telemetry.as_ref());
        let rig = Rig {
            telemetry,
            grid,
            clients,
            flushers,
        };
        for i in 0..WARMUP_DAGS {
            let run = rig
                .dag(i % rig.clients.len(), i as i32)
                .expect("warm-up dag");
            assert_eq!(run.sum, Some(expected_sum(i as i32)), "warm-up dag result");
        }
        rig
    }

    fn down(self) {
        drop(self.flushers);
        self.grid.shutdown();
        if let Some(t) = self.telemetry {
            t.stop();
        }
    }

    /// Submit one diamond and poll it to its outcome.
    fn dag(&self, k: usize, seed: i32) -> Result<DagRun, String> {
        let client = &self.clients[k];
        let ma = &self.grid.ma_client;
        let t = Instant::now();
        let handle = client
            .submit_dag(ma, &diamond(seed))
            .map_err(|e| format!("submit dag: {e}"))?;
        let submit_s = t.elapsed().as_secs_f64();
        let mut poll_s = Vec::new();
        let mut since = 0;
        loop {
            std::thread::sleep(POLL);
            let p = Instant::now();
            let (events, outcome) = client
                .poll_dag(ma, handle.dag_id, since)
                .map_err(|e| format!("poll dag: {e}"))?;
            poll_s.push(p.elapsed().as_secs_f64());
            since = events.last().map_or(since, |e| e.seq);
            if let Some(outcome) = outcome {
                let sum = outcome
                    .nodes
                    .iter()
                    .find(|n| n.service == "reduce" && outcome.ok)
                    .and_then(|n| n.scalars.iter().find(|(arg, _)| *arg == FAN as u32))
                    .map(|(_, v)| *v);
                return Ok(DagRun {
                    sum,
                    submit_s,
                    poll_s,
                });
            }
            if t.elapsed() > DAG_TIMEOUT {
                return Err(format!("dag {} never finished", handle.dag_id));
            }
        }
    }
}

#[derive(Default)]
struct Submitter {
    attempted: u64,
    failed: u64,
    wrong: u64,
    completions: Vec<Completion>,
    submit_us: Vec<f64>,
    poll_us: Vec<f64>,
    polls: u64,
    rss_mib: Option<f64>,
    spans: Vec<SpanRecord>,
}

pub fn run(args: &Args) -> Report {
    let mut report = Report::default();
    let epoch = Instant::now();
    let (rig, setup_s) = repeat_setup(|| Rig::up(args.trace), Rig::down);
    report.setup_s = setup_s;

    let start = Instant::now();
    let deadline = start + Duration::from_secs_f64(args.seconds);
    let per_submitter = on_callers(rig.clients.len(), |k| {
        let mut rng = SplitMix64::new(args.seed).fork(k as u64);
        let mut log = args.trace.then(|| SpanLog::new(epoch, k as u64));
        let mut c = Submitter::default();
        loop {
            let t = Instant::now();
            if t >= deadline {
                break;
            }
            let seed = rng.next_i32();
            c.attempted += 1;
            match rig.dag(k, seed) {
                Err(_) => c.failed += 1,
                Ok(run) => {
                    c.completions.push(Completion::now(start, t));
                    if k == 0 {
                        rss_at_mark(c.completions.len(), RSS_MARK, &mut c.rss_mib);
                    }
                    c.wrong += (run.sum != Some(expected_sum(seed))) as u64;
                    c.submit_us.push(run.submit_s * 1e6);
                    c.polls += run.poll_s.len() as u64;
                    c.poll_us.extend(run.poll_s.iter().map(|s| s * 1e6));
                    if let Some(log) = &mut log {
                        let polling: f64 = run.poll_s.iter().sum();
                        log.add_call(
                            "dag.pipeline",
                            "client",
                            seed as u64,
                            t,
                            &[("dag.submit", run.submit_s), ("dag.polls", polling)],
                        );
                    }
                }
            }
        }
        c.spans = log.map(|l| l.records).unwrap_or_default();
        c
    });

    let (mut wrong, mut polls) = (0, 0);
    let (mut submit_us, mut poll_us) = (Vec::new(), Vec::new());
    for c in per_submitter {
        report.attempted += c.attempted;
        report.failed += c.failed;
        report.rss_mib = report.rss_mib.or(c.rss_mib);
        report.completions.extend(c.completions);
        report.spans.extend(c.spans);
        wrong += c.wrong;
        polls += c.polls;
        submit_us.extend(c.submit_us);
        poll_us.extend(c.poll_us);
    }
    let dags = report.completions.len() as f64;
    report.close_phase();
    report.ops_per_completion = NODES_PER_DAG;
    report.check(
        format!("every reduce returned the expected sum ({wrong} wrong)"),
        wrong == 0 && dags > 0.0,
    );
    report.notes.push(format!(
        "one op = one node; latency = one {NODES_PER_DAG}-node dag, submit to outcome ({dags} dags)"
    ));

    if let Some(telemetry) = &rig.telemetry {
        let latencies = report.completions.iter().map(|c| c.latency_ms).collect();
        // The services compute next to nothing, so a dag's latency is the
        // engine's per-node cost along its critical path.
        report.layer(
            "dag.node_overhead_ms",
            Samples::new(latencies).median() / DEPTH,
        );
        report.layer("dag.submit_us", Samples::new(submit_us).median());
        report.layer("dag.poll_us", Samples::new(poll_us).median());
        report.layer("dag.polls_per_dag", polls as f64 / dags.max(1.0));
        rig.grid.flush_telemetry();
        for f in &rig.flushers {
            f.flush_now().expect("flush client telemetry");
        }
        common_layers(&mut report, telemetry, &rig.grid.pool, &rig.grid.seds);
    }
    rig.down();
    report
}

//! `e2e-bench`: the repository's end-to-end benchmark.
//!
//! ```text
//! e2e-bench --workload W --seed N --seconds S --trace 0|1   one run of one workload
//! e2e-bench [--seed N] [--workload W] [--passes K] [--seconds S] [--traced] [--rebaseline]
//!                                                           the suite, one child process per run
//! e2e-bench compare A.json B.json                           verdict per (metric, workload)
//! e2e-bench manifest                                        BENCHMARK.json on stdout
//! ```
//!
//! Paths are relative to the repository root; `run.sh` changes there first.

mod catalog;
mod compare;
mod env;
mod json;
mod rig;
mod spans;
mod stats;
mod suite;
mod workloads;

use json::Value;
use stats::Samples;
use workloads::{Args, Report};

/// Where runs leave traces, result files and scratch state.
pub const OUT_DIR: &str = "benchmark/out";

pub struct Cli {
    pub workload: Option<String>,
    pub seed: u64,
    pub seconds: f64,
    /// `--trace 0|1`: present for a single run, absent for the suite.
    pub trace: Option<bool>,
    pub passes: usize,
    pub traced: bool,
    pub rebaseline: bool,
}

impl Cli {
    fn parse(args: &[String]) -> Result<Cli, String> {
        let mut cli = Cli {
            workload: None,
            seed: 1,
            seconds: catalog::RUN_SECONDS as f64,
            trace: None,
            passes: 1,
            traced: false,
            rebaseline: false,
        };
        let mut it = args.iter();
        while let Some(flag) = it.next() {
            let mut value = || {
                it.next()
                    .ok_or_else(|| format!("{flag} needs a value"))
                    .map(String::as_str)
            };
            let bad = |v: &str| format!("bad value {v:?} for {flag}");
            match flag.as_str() {
                "--workload" => {
                    let w = value()?;
                    if !catalog::WORKLOADS.iter().any(|k| k.name == w) {
                        return Err(format!("unknown workload {w:?}"));
                    }
                    cli.workload = Some(w.to_string());
                }
                "--seed" => cli.seed = value().and_then(|v| v.parse().map_err(|_| bad(v)))?,
                "--seconds" => {
                    cli.seconds = value().and_then(|v| v.parse().map_err(|_| bad(v)))?;
                    if !(cli.seconds > 0.0 && cli.seconds <= 60.0) {
                        return Err("--seconds must be in (0, 60]".into());
                    }
                }
                "--trace" => {
                    cli.trace = Some(match value()? {
                        "0" => false,
                        "1" => true,
                        v => return Err(bad(v)),
                    })
                }
                "--passes" => {
                    cli.passes = value().and_then(|v| v.parse().map_err(|_| bad(v)))?;
                    if cli.passes == 0 {
                        return Err("--passes must be at least 1".into());
                    }
                }
                "--traced" => cli.traced = true,
                "--rebaseline" => cli.rebaseline = true,
                other => return Err(format!("unknown argument {other:?}")),
            }
        }
        Ok(cli)
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let code = match args.first().map(String::as_str) {
        Some("compare") => compare::main(&args[1..]),
        Some("manifest") => {
            print!("{}", catalog::manifest().pretty());
            0
        }
        _ => match Cli::parse(&args) {
            Err(e) => {
                eprintln!("e2e-bench: {e}\nsee the usage at the top of benchmark/src/main.rs");
                2
            }
            Ok(cli) => match (cli.trace, &cli.workload) {
                (Some(trace), Some(workload)) => run_one(workload, &cli, trace),
                (Some(_), None) => {
                    eprintln!("e2e-bench: --trace needs --workload");
                    2
                }
                (None, _) => suite::main(&cli),
            },
        },
    };
    std::process::exit(code);
}

/// One run of one workload in this process. Prints every metric as
/// `name value unit`, then the result object as the last line.
fn run_one(workload: &str, cli: &Cli, trace: bool) -> i32 {
    println!(
        "# e2e-bench {workload} seed={} seconds={} trace={}",
        cli.seed, cli.seconds, trace as u8
    );
    println!("# fingerprint {}", env::fingerprint(cli.seed).compact());
    if rig::nproc() < 2 {
        println!("# warning: nproc < 2 — callers, servers and kernels share one core; read no wall-clock scaling into these numbers");
    }
    let args = Args {
        seed: cli.seed,
        seconds: cli.seconds,
        trace,
        rebaseline: cli.rebaseline,
    };
    let report = workloads::run(workload, &args).expect("workload name was validated");

    let mut correct = report.attempted > 0 && report.failed == 0;
    for (name, ok) in &report.checks {
        println!("check {} {name}", if *ok { "ok  " } else { "FAIL" });
        correct &= ok;
    }
    for note in &report.notes {
        println!("note {note}");
    }

    let metrics = if trace {
        write_trace(workload, &report);
        per_layer_metrics(&report)
    } else {
        end_to_end_metrics(&report)
    };
    for (name, value, unit) in &metrics {
        println!("{name} {value} {unit}");
    }
    println!("ops_attempted {} count", report.attempted);
    println!("ops_failed {} count", report.failed);
    println!(
        "failed_frac {} ratio",
        report.failed as f64 / report.attempted.max(1) as f64
    );

    let result = Value::obj(vec![
        ("correct", Value::Bool(correct)),
        ("attempted", Value::Num(report.attempted.max(1) as f64)),
        ("failed", Value::Num(report.failed as f64)),
        (
            "metrics",
            Value::Obj(
                metrics
                    .into_iter()
                    .map(|(name, value, unit)| {
                        (
                            name.to_string(),
                            Value::obj(vec![
                                ("value", Value::Num(value)),
                                ("unit", Value::Str(unit.into())),
                            ]),
                        )
                    })
                    .collect(),
            ),
        ),
    ]);
    println!("{}", result.compact());
    if correct {
        0
    } else {
        1
    }
}

type MetricLine = (&'static str, f64, &'static str);

fn latencies(report: &Report) -> Samples {
    Samples::new(report.completions.iter().map(|c| c.latency_ms).collect())
}

/// Every end-to-end metric, defined the same way on every workload.
fn end_to_end_metrics(report: &Report) -> Vec<MetricLine> {
    let latencies = latencies(report);
    println!(
        "note latency ms over {} samples: p75 {} p90 {} p95 {} p99 {} max {}",
        latencies.count(),
        latencies.percentile(75.0),
        latencies.percentile(90.0),
        latencies.percentile(95.0),
        latencies.percentile(99.0),
        latencies.max()
    );
    let value = |name: &str| match name {
        "setup_s" => report.setup_s,
        "makespan_s" => report.makespan_s,
        "throughput_per_s" => report.throughput_per_s(),
        "latency_p50_ms" => latencies.median(),
        "peak_rss_mib" => report.rss_mib.unwrap_or_else(env::peak_rss_mib),
        other => unreachable!("end-to-end metric {other} has no definition"),
    };
    catalog::END_TO_END
        .iter()
        .map(|m| (m.name, value(m.name), m.unit))
        .collect()
}

/// Every per-layer metric; 0 for the ones another workload measures.
fn per_layer_metrics(report: &Report) -> Vec<MetricLine> {
    // The tail is a per-layer metric because it cannot hold an end-to-end
    // bound on a shared machine: one descheduled vCPU moves p99 severalfold.
    let (tail_pct, tail_ms) = latencies(report).tail();
    let mut measured = report.layers.clone();
    measured.push(("client.latency_tail_ms", tail_ms));
    measured.push(("client.latency_tail_pct", tail_pct));
    for (name, _) in &measured {
        assert!(
            catalog::PER_LAYER.iter().any(|m| m.name == *name),
            "{name} is not in the catalog"
        );
    }
    catalog::PER_LAYER
        .iter()
        .map(|m| {
            let value = measured
                .iter()
                .find(|(name, _)| *name == m.name)
                .map_or(0.0, |(_, v)| *v);
            (m.name, value, m.unit)
        })
        .collect()
}

fn write_trace(workload: &str, report: &Report) {
    std::fs::create_dir_all(OUT_DIR).expect("create benchmark/out");
    let path = format!("{OUT_DIR}/{workload}.trace.json");
    std::fs::write(&path, spans::chrome_trace(&report.spans)).expect("write trace");
    println!("# trace {path} ({} spans recorded)", report.spans.len());
    for line in spans::render_table(&spans::layer_table(&report.spans)).lines() {
        println!("# {line}");
    }
}

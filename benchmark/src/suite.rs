//! The suite: every workload, each run in its own child process (a fresh
//! rayon pool, allocator and RSS per run), `--passes` untraced runs with
//! consecutive seeds, then one traced run when `--traced`. Prints every
//! metric by name and writes `benchmark/out/results.json`.

use crate::catalog::{END_TO_END, PER_LAYER, WORKLOADS};
use crate::json::{self, Value};
use crate::{env, stats, Cli, OUT_DIR};
use std::io::{BufRead, BufReader};
use std::process::{Command, Stdio};

/// One child run: its parsed result object, or `None` if it failed.
fn run_child(cli: &Cli, workload: &str, seed: u64, trace: bool) -> Option<Value> {
    let mut cmd = Command::new(std::env::current_exe().expect("current_exe"));
    cmd.args(["--workload", workload])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &cli.seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .stdout(Stdio::piped());
    if cli.rebaseline {
        cmd.arg("--rebaseline");
    }
    let mut child = cmd.spawn().expect("spawn workload process");
    let mut last = String::new();
    for line in BufReader::new(child.stdout.take().expect("child stdout"))
        .lines()
        .map_while(Result::ok)
    {
        // Metric lines are reprinted as a table below; pass the rest on.
        if ["# ", "check ", "note "]
            .iter()
            .any(|p| line.starts_with(p))
        {
            println!("  {line}");
        }
        last = line;
    }
    let status = child.wait().expect("wait for workload process");
    let result = json::parse(&last).ok()?;
    let correct = result.get("correct") == Some(&Value::Bool(true));
    (status.success() && correct).then_some(result)
}

fn metric(result: &Value, name: &str) -> Option<f64> {
    result.get("metrics")?.get(name)?.get("value")?.as_f64()
}

fn count(result: &Value, key: &str) -> f64 {
    result.get(key).and_then(Value::as_f64).unwrap_or(0.0)
}

pub fn main(cli: &Cli) -> i32 {
    let mut failed_runs = 0;
    let mut out = Vec::new();
    for w in WORKLOADS
        .iter()
        .filter(|w| cli.workload.as_deref().is_none_or(|only| only == w.name))
    {
        println!("== {} ==", w.name);
        let mut fields = Vec::new();

        // ---- untraced passes: the end-to-end metrics ---------------------
        let seeds: Vec<u64> = (0..cli.passes as u64).map(|i| cli.seed + i).collect();
        let runs: Vec<Value> = seeds
            .iter()
            .filter_map(|&seed| {
                println!(" untraced run, seed {seed}");
                let r = run_child(cli, w.name, seed, false);
                failed_runs += r.is_none() as i32;
                r
            })
            .collect();
        fields.push((
            "seeds",
            Value::Arr(seeds.iter().map(|s| Value::Num(*s as f64)).collect()),
        ));
        let total = |key: &str| Value::Num(runs.iter().map(|r| count(r, key)).sum());
        fields.push(("attempted", total("attempted")));
        fields.push(("failed", total("failed")));
        let mut e2e = Vec::new();
        for m in &END_TO_END {
            let values: Vec<f64> = runs.iter().filter_map(|r| metric(r, m.name)).collect();
            let median = stats::median(&values);
            println!(
                "{} {median} {} (spread {:.4} over {} runs)",
                m.name,
                m.unit,
                stats::relative_spread(&values),
                values.len()
            );
            e2e.push((
                m.name,
                Value::obj(vec![
                    ("unit", Value::Str(m.unit.into())),
                    ("median", Value::Num(median)),
                    (
                        "values",
                        Value::Arr(values.into_iter().map(Value::Num).collect()),
                    ),
                ]),
            ));
        }
        let untraced_throughput = e2e
            .iter()
            .find(|(n, _)| *n == "throughput_per_s")
            .and_then(|(_, v)| v.get("median")?.as_f64())
            .unwrap_or(0.0);
        fields.push(("end_to_end", Value::obj(e2e)));

        // ---- traced pass: the per-layer metrics ----------------------------
        if cli.traced {
            println!(" traced run, seed {}", cli.seed);
            match run_child(cli, w.name, cli.seed, true) {
                None => failed_runs += 1,
                Some(r) => {
                    let mut layers = Vec::new();
                    for m in PER_LAYER.iter().filter(|m| m.on == w.name || m.on == "all") {
                        let value = metric(&r, m.name).unwrap_or(0.0);
                        println!("{} {value} {}", m.name, m.unit);
                        layers.push((
                            m.name,
                            Value::obj(vec![
                                ("unit", Value::Str(m.unit.into())),
                                ("value", Value::Num(value)),
                                ("moves", Value::Str(m.moves.into())),
                            ]),
                        ));
                    }
                    let traced = metric(&r, "telemetry.throughput_traced").unwrap_or(0.0);
                    if untraced_throughput > 0.0 {
                        let overhead = 1.0 - traced / untraced_throughput;
                        println!("telemetry.overhead_frac {overhead} ratio");
                        layers.push((
                            "telemetry.overhead_frac",
                            Value::obj(vec![
                                ("unit", Value::Str("ratio".into())),
                                ("value", Value::Num(overhead)),
                                ("moves", Value::Str("throughput_per_s".into())),
                            ]),
                        ));
                    }
                    fields.push(("per_layer", Value::obj(layers)));
                }
            }
        }
        out.push((w.name, Value::obj(fields)));
    }

    let results = Value::obj(vec![
        ("fingerprint", env::fingerprint(cli.seed)),
        ("seconds", Value::Num(cli.seconds)),
        ("passes", Value::Num(cli.passes as f64)),
        ("workloads", Value::obj(out)),
    ]);
    std::fs::create_dir_all(OUT_DIR).expect("create benchmark/out");
    let path = format!("{OUT_DIR}/results.json");
    std::fs::write(&path, results.pretty()).expect("write results");
    println!("wrote {path}");
    if failed_runs > 0 {
        eprintln!("e2e-bench: {failed_runs} run(s) failed a correctness check or crashed");
        return 1;
    }
    0
}

//! `e2e-bench compare A.json B.json`: for every (end-to-end metric,
//! workload) pair in two suite result files, is B improved, within bound,
//! regressed or unresolved against A — by the bounds `BENCHMARK.json` fixes.
//! Unresolved means the run-to-run spread on either side is wider than the
//! bound, so the files cannot tell a change that size from noise.

use crate::json::{self, Value};
use crate::stats;

#[derive(Debug, PartialEq)]
pub enum Verdict {
    Improved,
    WithinBound,
    Regressed,
    Unresolved,
}

/// `a` and `b` are the per-run values of one metric on one workload;
/// `higher_is_better` and `bound` come from the benchmark definition.
pub fn verdict(a: &[f64], b: &[f64], higher_is_better: bool, bound: f64) -> (Verdict, f64) {
    let (ma, mb) = (stats::median(a), stats::median(b));
    // Positive = B is worse, as a share of A.
    let worse = if higher_is_better { ma - mb } else { mb - ma } / ma.abs().max(f64::MIN_POSITIVE);
    let spread = stats::relative_spread(a).max(stats::relative_spread(b));
    let v = if spread > bound {
        Verdict::Unresolved
    } else if worse > bound {
        Verdict::Regressed
    } else if worse < -bound {
        Verdict::Improved
    } else {
        Verdict::WithinBound
    };
    (v, worse)
}

fn load(path: &str) -> Result<Value, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    json::parse(&text).map_err(|e| format!("{path}: {e}"))
}

fn values(results: &Value, workload: &str, metric: &str) -> Option<Vec<f64>> {
    let arr = results
        .get("workloads")?
        .get(workload)?
        .get("end_to_end")?
        .get(metric)?
        .get("values")?
        .as_arr()?;
    Some(arr.iter().filter_map(Value::as_f64).collect())
}

pub fn main(args: &[String]) -> i32 {
    let [a_path, b_path] = args else {
        eprintln!("usage: e2e-bench compare A.json B.json");
        return 2;
    };
    let loaded = load("BENCHMARK.json").and_then(|d| Ok((d, load(a_path)?, load(b_path)?)));
    let (definition, a, b) = match loaded {
        Ok(v) => v,
        Err(e) => {
            eprintln!("e2e-bench compare: {e}");
            return 2;
        }
    };
    for (label, file) in [("A", &a), ("B", &b)] {
        if let Some(f) = file.get("fingerprint") {
            println!("{label}: {}", f.compact());
        }
    }
    if a.get("fingerprint")
        .map(|f| (f.get("nproc"), f.get("cpu_model")))
        != b.get("fingerprint")
            .map(|f| (f.get("nproc"), f.get("cpu_model")))
    {
        println!("warning: A and B were measured on different hardware");
    }

    let empty = [];
    let metrics = definition
        .get("end_to_end")
        .and_then(Value::as_arr)
        .unwrap_or(&empty);
    let workloads = a.get("workloads").and_then(Value::as_obj).unwrap_or(&[]);
    let mut regressed = 0;
    println!(
        "{:<16} {:<18} {:>14} {:>14} {:>9} {:>7}  verdict",
        "workload", "metric", "A median", "B median", "worse by", "bound"
    );
    for (workload, _) in workloads {
        for m in metrics {
            let (Some(name), Some(bound)) = (
                m.get("name").and_then(Value::as_str),
                m.get("bound").and_then(Value::as_f64),
            ) else {
                continue;
            };
            let higher = m.get("better").and_then(Value::as_str) == Some("higher");
            let (Some(va), Some(vb)) = (values(&a, workload, name), values(&b, workload, name))
            else {
                println!("{workload:<16} {name:<18} missing from one file");
                continue;
            };
            if va.is_empty() || vb.is_empty() {
                println!("{workload:<16} {name:<18} no successful run in one file");
                continue;
            }
            let (v, worse) = verdict(&va, &vb, higher, bound);
            regressed += (v == Verdict::Regressed) as i32;
            println!(
                "{workload:<16} {name:<18} {:>14.6} {:>14.6} {:>+8.2}% {:>6.0}%  {}",
                stats::median(&va),
                stats::median(&vb),
                worse * 100.0,
                bound * 100.0,
                match v {
                    Verdict::Improved => "improved",
                    Verdict::WithinBound => "within bound",
                    Verdict::Regressed => "REGRESSED",
                    Verdict::Unresolved => "unresolved (spread wider than the bound)",
                }
            );
        }
    }
    if regressed > 0 {
        1
    } else {
        0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdicts_follow_direction_bound_and_spread() {
        let base = [100.0, 101.0, 99.0];
        // Lower is better: +10 % is a regression at a 5 % bound.
        assert_eq!(
            verdict(&base, &[110.0, 111.0, 109.0], false, 0.05).0,
            Verdict::Regressed
        );
        assert_eq!(
            verdict(&base, &[90.0, 91.0, 89.0], false, 0.05).0,
            Verdict::Improved
        );
        // Higher is better flips it.
        assert_eq!(
            verdict(&base, &[110.0, 111.0, 109.0], true, 0.05).0,
            Verdict::Improved
        );
        assert_eq!(
            verdict(&base, &[103.0, 102.0, 104.0], true, 0.05).0,
            Verdict::WithinBound
        );
        // A side noisier than the bound cannot resolve anything.
        assert_eq!(
            verdict(&base, &[80.0, 120.0, 100.0], false, 0.05).0,
            Verdict::Unresolved
        );
        // Single runs have no spread and compare by value alone.
        let (v, worse) = verdict(&[2.0], &[2.5], false, 0.1);
        assert_eq!(v, Verdict::Regressed);
        assert!((worse - 0.25).abs() < 1e-12);
    }
}

//! The environment a result was measured in. Every result file carries
//! this, so two files are only compared knowing what they ran on.

use crate::json::Value;

fn read_trimmed(path: &str) -> Option<String> {
    std::fs::read_to_string(path)
        .ok()
        .map(|s| s.trim().to_string())
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|text| {
            text.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

/// The checked-out commit, read from `.git` directly; "unknown" in a plain
/// checkout that is not a repository.
fn git_commit() -> String {
    let head = read_trimmed(".git/HEAD");
    head.and_then(|head| match head.strip_prefix("ref: ") {
        Some(reference) => read_trimmed(&format!(".git/{reference}")),
        None => Some(head),
    })
    .unwrap_or_else(|| "unknown".into())
}

pub fn fingerprint(seed: u64) -> Value {
    Value::obj(vec![
        ("nproc", Value::Num(crate::rig::nproc() as f64)),
        ("cpu_model", Value::Str(cpu_model())),
        (
            "kernel",
            Value::Str(
                read_trimmed("/proc/sys/kernel/osrelease").unwrap_or_else(|| "unknown".into()),
            ),
        ),
        // RAYON_NUM_THREADS is left as the caller set it (normally unset);
        // this is the width the pool actually runs at.
        (
            "rayon_threads",
            Value::Num(rayon::current_num_threads() as f64),
        ),
        ("git_commit", Value::Str(git_commit())),
        ("seed", Value::Num(seed as f64)),
    ])
}

/// Peak resident set of this process so far (`VmHWM`), MiB.
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|text| {
            text.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

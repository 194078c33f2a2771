//! The five workloads. Each runs alone in its own process: set-up
//! (repeated, warm-up inside), one timed phase with tracing off or on,
//! correctness checks, and — in the traced pass — its layer probes.

pub mod bulk_data;
pub mod dag_pipelines;
pub mod durable_tasks;
pub mod rpc_small;
pub mod zoom_campaign;

use crate::rig::{Metrics, Telemetry};
use diet_core::sed::SedHandle;
use diet_core::transport::TcpSedPool;
use obs::SpanRecord;
use std::sync::Arc;
use std::time::Instant;

pub struct Args {
    pub seed: u64,
    /// Length of a closed-loop timed phase.
    pub seconds: f64,
    /// Bench spans, telemetry shipping and layer probes on.
    pub trace: bool,
    /// Rewrite the science reference instead of checking against it.
    pub rebaseline: bool,
}

/// One user-visible operation that completed in the timed phase.
#[derive(Debug, Clone, Copy)]
pub struct Completion {
    /// When it completed, seconds after the timed phase began.
    pub at_s: f64,
    pub latency_ms: f64,
}

impl Completion {
    /// An operation that began at `began` and has just completed, in a
    /// timed phase that started at `phase_start`.
    pub fn now(phase_start: Instant, began: Instant) -> Completion {
        let now = Instant::now();
        Completion {
            at_s: (now - phase_start).as_secs_f64(),
            latency_ms: (now - began).as_secs_f64() * 1e3,
        }
    }
}

/// What a workload hands back; the end-to-end metrics are derived from it
/// in one place so every workload defines them the same way.
#[derive(Default)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    /// Named correctness checks; any `false` fails the run.
    pub checks: Vec<(String, bool)>,
    pub setup_s: f64,
    /// First operation submitted to last operation completed.
    pub makespan_s: f64,
    /// Every operation completed in the timed phase.
    pub completions: Vec<Completion>,
    /// Units of work one completion stands for (`throughput_per_s` counts
    /// these): 1 request, 6 MiB, 1000 tasks, 6 nodes.
    pub ops_per_completion: f64,
    /// Peak RSS read at a fixed amount of work, if the run got that far
    /// (see [`rss_at_mark`]); the process's final peak otherwise.
    pub rss_mib: Option<f64>,
    /// Per-layer metrics measured by this run (traced pass only).
    pub layers: Vec<(&'static str, f64)>,
    pub spans: Vec<SpanRecord>,
    /// Free-form lines for the human-readable output.
    pub notes: Vec<String>,
}

impl Report {
    pub fn check(&mut self, name: impl Into<String>, ok: bool) {
        self.checks.push((name.into(), ok));
    }

    pub fn layer(&mut self, name: &'static str, value: f64) {
        self.layers.push((name, value));
    }

    /// Close a closed-loop timed phase: its makespan runs from the phase's
    /// start (when the first operation was submitted) to the last completion.
    pub fn close_phase(&mut self) {
        self.makespan_s = self.completions.iter().map(|c| c.at_s).fold(0.0, f64::max);
    }

    /// Units of work completed in the timed phase.
    pub fn ops(&self) -> f64 {
        self.completions.len() as f64 * self.ops_per_completion
    }

    /// `throughput_per_s`: the median rate over equal slices of the timed
    /// phase, so a stall that hits a few slices (a descheduled vCPU, a slow
    /// fsync) does not move it the way it moves a plain mean. A slice holds
    /// eight completions or more; a phase too sparse for two slices falls
    /// back to the mean.
    pub fn throughput_per_s(&self) -> f64 {
        let span = self.makespan_s.max(1e-9);
        let slices = (self.completions.len() / 8).min(32);
        if slices < 2 {
            return self.ops() / span;
        }
        let mut counts = vec![0.0; slices];
        for c in &self.completions {
            let slot = ((c.at_s / span) * slices as f64) as usize;
            counts[slot.min(slices - 1)] += self.ops_per_completion;
        }
        let per_slice_s = span / slices as f64;
        let rates: Vec<f64> = counts.iter().map(|n| n / per_slice_s).collect();
        crate::stats::median(&rates)
    }
}

/// Read the process's peak RSS into `slot` when a caller's `completed`
/// count reaches `mark`. What a closed loop retains (call history, span
/// rings, the job store's tasks) grows with the work it got done, and how
/// much it gets done in `--seconds` varies with the machine; memory at a
/// stated amount of work does not.
pub fn rss_at_mark(completed: usize, mark: usize, slot: &mut Option<f64>) {
    if completed == mark {
        *slot = Some(crate::env::peak_rss_mib());
    }
}

pub fn run(workload: &str, args: &Args) -> Option<Report> {
    Some(match workload {
        "zoom_campaign" => zoom_campaign::run(args),
        "rpc_small" => rpc_small::run(args),
        "bulk_data" => bulk_data::run(args),
        "durable_tasks" => durable_tasks::run(args),
        "dag_pipelines" => dag_pipelines::run(args),
        _ => return None,
    })
}

/// Layer metrics every workload reads the same way from the merged
/// registry and the client-side pool: counts at the layer boundaries.
pub fn common_layers(
    report: &mut Report,
    telemetry: &Telemetry,
    pool: &TcpSedPool,
    seds: &[Arc<SedHandle>],
) {
    let m: Metrics = telemetry.metrics();
    let ops = report.ops().max(1.0);
    let (_, ticks) = m.hist("diet_reactor_tick_seconds");
    report.layer(
        "reactor.tick_p50_us",
        m.hist_quantile("diet_reactor_tick_seconds", 0.5) * 1e6,
    );
    report.layer("reactor.ticks_per_op", ticks / ops);
    report.layer("transport.dials", pool.dials() as f64);
    report.layer(
        "transport.peak_inflight",
        pool.labels()
            .iter()
            .map(|l| pool.peak_inflight(l))
            .max()
            .unwrap_or(0) as f64,
    );
    report.layer(
        "client.retries",
        m.counter("diet_client_resubmissions_total"),
    );
    report.layer("client.busy", m.counter("diet_client_busy_total"));
    report.layer("sed.solve_sum_s", m.hist("diet_sed_solve_seconds").0);
    report.layer("sed.busy_total", m.counter("diet_sed_busy_total"));
    report.layer(
        "datamgr.evictions",
        seds.iter().map(|s| s.datamgr.evictions()).sum::<u64>() as f64,
    );
    report.layer("dagda.pull_bytes", m.counter("diet_data_pull_bytes_total"));
    report.layer("dagda.hits", m.counter("diet_data_hits_total"));
    report.layer("dagda.misses", m.counter("diet_data_misses_total"));
    report.layer("dag.nodes_total", m.counter("diet_dag_nodes_total"));
    report.layer("dag.retries", m.counter("diet_dag_node_retries_total"));
    report.layer(
        "dag.speculative_launches",
        m.counter("diet_dag_speculative_launches_total"),
    );
    report.layer(
        "jobserver.snapshots",
        m.counter("diet_jobserver_snapshots_total"),
    );
    report.layer("rayon.threads", rayon::current_num_threads() as f64);
    report.layer("telemetry.throughput_traced", report.throughput_per_s());
    report.layer("telemetry.spans_shipped", telemetry.spans_shipped() as f64);
    report.layer(
        "telemetry.spans_dropped",
        m.counter("diet_obs_spans_dropped_total"),
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report(at_s: impl Iterator<Item = f64>, makespan_s: f64, weight: f64) -> Report {
        Report {
            makespan_s,
            ops_per_completion: weight,
            completions: at_s
                .map(|at_s| Completion {
                    at_s,
                    latency_ms: 1.0,
                })
                .collect(),
            ..Report::default()
        }
    }

    #[test]
    fn throughput_is_the_median_slice_rate() {
        // 100 completions a second for 8 s, nothing during seconds 2 and 3.
        let steady = (0..800).map(|i| i as f64 / 100.0);
        let stalled = steady.clone().filter(|t| !(2.0..4.0).contains(t));
        let r = report(stalled, 8.0, 6.0);
        assert_eq!(r.completions.len(), 600);
        assert_eq!(r.ops(), 3600.0);
        // The mean would say 450 ops/s; three quarters of the slices ran at 600.
        assert!((r.throughput_per_s() - 600.0).abs() < 1e-9);
        assert!((report(steady, 8.0, 1.0).throughput_per_s() - 100.0).abs() < 1e-9);
    }

    #[test]
    fn sparse_phases_fall_back_to_the_mean() {
        // Nine completions cannot fill two slices of eight.
        let r = report((1..=9).map(|i| i as f64 * 3.0), 30.0, 1.0);
        assert!((r.throughput_per_s() - 0.3).abs() < 1e-12);
        assert_eq!(report(std::iter::empty(), 0.0, 1.0).throughput_per_s(), 0.0);
    }
}

//! The benchmark's vocabulary: workloads, end-to-end metrics and per-layer
//! metrics, by the names later issues refer to. `BENCHMARK.json` is this
//! table rendered (`e2e-bench manifest`); a unit test keeps the two equal.

use crate::json::Value;

pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
}

pub const WORKLOADS: [Workload; 5] = [
    Workload {
        name: "zoom_campaign",
        why: "the paper's campaign (1 zoom1 + 8 zoom2 at 16^3) through jobserver, MA DAG engine, LA and 2 SeDs: kernels do >95% of the work",
    },
    Workload {
        name: "rpc_small",
        why: "closed loop of 4-byte echo calls through MA, LA and 2 SeDs: per-message cost dominates, kernels and WAL do nothing",
    },
    Workload {
        name: "bulk_data",
        why: "closed loop of 1 MiB put, pull by reference, get and inline call: the same wire layers byte-bound, plus the data managers",
    },
    Workload {
        name: "durable_tasks",
        why: "closed loop of 1000-task echo campaigns through the jobserver: WAL append, store transitions, snapshots, dispatch",
    },
    Workload {
        name: "dag_pipelines",
        why: "closed loop of 6-node no-compute diamonds through the MA DAG engine: node state machines, placement, tagged intermediates",
    },
];

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    /// Share of the parent's median by which the metric may worsen.
    pub bound: f64,
}

/// Every workload reports every one of these with tracing off. The
/// per-workload definitions are in the README's metric table.
pub const END_TO_END: [EndToEnd; 5] = [
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: "lower",
        bound: 0.25,
    },
    EndToEnd {
        name: "makespan_s",
        unit: "s",
        better: "lower",
        bound: 0.25,
    },
    EndToEnd {
        name: "throughput_per_s",
        unit: "ops/s",
        better: "higher",
        bound: 0.25,
    },
    EndToEnd {
        name: "latency_p50_ms",
        unit: "ms",
        better: "lower",
        bound: 0.25,
    },
    EndToEnd {
        name: "peak_rss_mib",
        unit: "MiB",
        better: "lower",
        bound: 0.25,
    },
];

pub struct Layer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    /// The workload whose traced run measures it; 0 is reported elsewhere.
    pub on: &'static str,
    /// The end-to-end metric it should move on that workload.
    pub moves: &'static str,
}

const fn layer(
    name: &'static str,
    unit: &'static str,
    better: &'static str,
    on: &'static str,
    moves: &'static str,
) -> Layer {
    Layer {
        name,
        unit,
        better,
        on,
        moves,
    }
}

const ZOOM: &str = "zoom_campaign";
const RPC: &str = "rpc_small";
const BULK: &str = "bulk_data";
const TASKS: &str = "durable_tasks";
const DAG: &str = "dag_pipelines";
/// Measured on every workload's traced run.
pub const ALL: &str = "all";

pub const PER_LAYER: &[Layer] = &[
    // codec
    layer(
        "codec.encode_small_ns",
        "ns",
        "lower",
        RPC,
        "throughput_per_s",
    ),
    layer(
        "codec.decode_small_ns",
        "ns",
        "lower",
        RPC,
        "throughput_per_s",
    ),
    layer(
        "codec.small_frame_bytes",
        "B",
        "lower",
        RPC,
        "throughput_per_s",
    ),
    layer(
        "codec.encode_bulk_mib_s",
        "MiB/s",
        "higher",
        BULK,
        "throughput_per_s",
    ),
    layer(
        "codec.decode_bulk_mib_s",
        "MiB/s",
        "higher",
        BULK,
        "throughput_per_s",
    ),
    layer(
        "codec.encode_tasks_us",
        "us",
        "lower",
        TASKS,
        "throughput_per_s",
    ),
    // reactor / transport
    layer(
        "reactor.framebuf_small_mfps",
        "Mframes/s",
        "higher",
        RPC,
        "latency_p50_ms",
    ),
    layer(
        "reactor.framebuf_bulk_mib_s",
        "MiB/s",
        "higher",
        BULK,
        "throughput_per_s",
    ),
    layer("reactor.tick_p50_us", "us", "lower", ALL, "latency_p50_ms"),
    layer(
        "reactor.ticks_per_op",
        "count",
        "lower",
        ALL,
        "latency_p50_ms",
    ),
    layer("transport.mux_rtt_us", "us", "lower", RPC, "latency_p50_ms"),
    layer(
        "transport.sed_call_us",
        "us",
        "lower",
        RPC,
        "latency_p50_ms",
    ),
    layer(
        "transport.put_mib_s",
        "MiB/s",
        "higher",
        BULK,
        "throughput_per_s",
    ),
    layer(
        "transport.get_mib_s",
        "MiB/s",
        "higher",
        BULK,
        "throughput_per_s",
    ),
    layer(
        "transport.inline_mib_s",
        "MiB/s",
        "higher",
        BULK,
        "throughput_per_s",
    ),
    layer("transport.dials", "count", "lower", ALL, "latency_p50_ms"),
    layer(
        "transport.peak_inflight",
        "count",
        "higher",
        ALL,
        "throughput_per_s",
    ),
    // client / agent / hierarchy / sched
    layer(
        "client.finding_p50_us",
        "us",
        "lower",
        RPC,
        "latency_p50_ms",
    ),
    layer("client.send_p50_us", "us", "lower", RPC, "latency_p50_ms"),
    layer("client.retries", "count", "lower", ALL, "latency_p50_ms"),
    layer("client.busy", "count", "lower", ALL, "latency_p50_ms"),
    layer(
        "agent.resolve_inproc_us",
        "us",
        "lower",
        RPC,
        "latency_p50_ms",
    ),
    layer(
        "agent.ma_finding_p50_us",
        "us",
        "lower",
        RPC,
        "latency_p50_ms",
    ),
    layer(
        "hierarchy.submit_d1_us",
        "us",
        "lower",
        RPC,
        "latency_p50_ms",
    ),
    layer(
        "hierarchy.submit_d2_us",
        "us",
        "lower",
        RPC,
        "latency_p50_ms",
    ),
    layer("client.open_p50_ms", "ms", "lower", RPC, "latency_p50_ms"),
    layer("client.open_tail_ms", "ms", "lower", RPC, "latency_p50_ms"),
    layer(
        "client.open_max_late_ms",
        "ms",
        "lower",
        RPC,
        "latency_p50_ms",
    ),
    layer(
        "client.open_stalls",
        "count",
        "lower",
        RPC,
        "latency_p50_ms",
    ),
    layer(
        "client.latency_tail_ms",
        "ms",
        "lower",
        ALL,
        "latency_p50_ms",
    ),
    layer(
        "client.latency_tail_pct",
        "%",
        "higher",
        ALL,
        "latency_p50_ms",
    ),
    // sed
    layer("sed.submit_inproc_us", "us", "lower", RPC, "latency_p50_ms"),
    layer(
        "sed.queue_wait_p50_us",
        "us",
        "lower",
        RPC,
        "latency_p50_ms",
    ),
    layer("sed.solve_sum_s", "s", "lower", ALL, "makespan_s"),
    layer("sed.busy_total", "count", "lower", ALL, "latency_p50_ms"),
    layer(
        "sed.pull_mib_s",
        "MiB/s",
        "higher",
        BULK,
        "throughput_per_s",
    ),
    // datamgr / dagda
    layer("datamgr.retain_us", "us", "lower", BULK, "throughput_per_s"),
    layer("datamgr.get_us", "us", "lower", BULK, "latency_p50_ms"),
    layer(
        "datamgr.evictions",
        "count",
        "lower",
        ALL,
        "throughput_per_s",
    ),
    layer(
        "dagda.checksum_mib_s",
        "MiB/s",
        "higher",
        BULK,
        "throughput_per_s",
    ),
    layer("dagda.locate_ns", "ns", "lower", BULK, "latency_p50_ms"),
    layer("dagda.pull_bytes", "B", "lower", ALL, "throughput_per_s"),
    layer("dagda.hits", "count", "higher", ALL, "throughput_per_s"),
    layer("dagda.misses", "count", "lower", ALL, "throughput_per_s"),
    // dag
    layer("dag.node_overhead_ms", "ms", "lower", DAG, "latency_p50_ms"),
    layer("dag.submit_us", "us", "lower", DAG, "latency_p50_ms"),
    layer("dag.poll_us", "us", "lower", DAG, "latency_p50_ms"),
    layer("dag.polls_per_dag", "count", "lower", DAG, "latency_p50_ms"),
    layer(
        "dag.nodes_total",
        "count",
        "higher",
        ALL,
        "throughput_per_s",
    ),
    layer("dag.retries", "count", "lower", ALL, "latency_p50_ms"),
    layer(
        "dag.speculative_launches",
        "count",
        "lower",
        ALL,
        "makespan_s",
    ),
    // jobserver
    layer(
        "jobserver.wal_append_us",
        "us",
        "lower",
        TASKS,
        "throughput_per_s",
    ),
    layer(
        "jobserver.wal_replay_mib_s",
        "MiB/s",
        "higher",
        TASKS,
        "throughput_per_s",
    ),
    layer(
        "jobserver.store_submit_us",
        "us",
        "lower",
        TASKS,
        "throughput_per_s",
    ),
    layer(
        "jobserver.store_cycle_us",
        "us",
        "lower",
        TASKS,
        "throughput_per_s",
    ),
    layer(
        "jobserver.snapshot_ms",
        "ms",
        "lower",
        TASKS,
        "latency_p50_ms",
    ),
    layer(
        "jobserver.wal_bytes_per_task",
        "B",
        "lower",
        TASKS,
        "throughput_per_s",
    ),
    layer(
        "jobserver.snapshots",
        "count",
        "lower",
        ALL,
        "latency_p50_ms",
    ),
    layer("jobserver.recover_s", "s", "lower", TASKS, "setup_s"),
    layer(
        "jobserver.recovered_done",
        "count",
        "higher",
        TASKS,
        "setup_s",
    ),
    layer(
        "jobserver.dag_task_floor_ms",
        "ms",
        "lower",
        ZOOM,
        "makespan_s",
    ),
    // services / archive / namelist / workflow
    layer("services.zoom1_solve_s", "s", "lower", ZOOM, "makespan_s"),
    layer("services.zoom2_solve_s", "s", "lower", ZOOM, "makespan_s"),
    layer("archive.pack_mib_s", "MiB/s", "higher", ZOOM, "makespan_s"),
    layer(
        "archive.unpack_mib_s",
        "MiB/s",
        "higher",
        ZOOM,
        "makespan_s",
    ),
    layer("namelist.parse_us", "us", "lower", ZOOM, "makespan_s"),
    layer(
        "workflow.parse_catalog_us",
        "us",
        "lower",
        ZOOM,
        "makespan_s",
    ),
    // grafic
    layer("grafic.single_level_ms", "ms", "lower", ZOOM, "makespan_s"),
    layer("grafic.zoom_ics_ms", "ms", "lower", ZOOM, "makespan_s"),
    layer(
        "grafic.fft3d_ns_per_cell",
        "ns",
        "lower",
        ZOOM,
        "makespan_s",
    ),
    // ramses
    layer("ramses.steps", "count", "lower", ZOOM, "makespan_s"),
    layer("ramses.step_ms", "ms", "lower", ZOOM, "makespan_s"),
    layer("ramses.field_ms", "ms", "lower", ZOOM, "makespan_s"),
    layer("ramses.poisson_ms", "ms", "lower", ZOOM, "makespan_s"),
    layer(
        "ramses.poisson_cycles",
        "count",
        "lower",
        ZOOM,
        "makespan_s",
    ),
    layer("ramses.cic_deposit_ms", "ms", "lower", ZOOM, "makespan_s"),
    layer("ramses.cic_interp_ms", "ms", "lower", ZOOM, "makespan_s"),
    layer("ramses.octree_ms", "ms", "lower", ZOOM, "makespan_s"),
    layer(
        "ramses.snapshot_encode_mib_s",
        "MiB/s",
        "higher",
        ZOOM,
        "makespan_s",
    ),
    layer(
        "ramses.particle_steps_per_s",
        "1/s",
        "higher",
        ZOOM,
        "makespan_s",
    ),
    layer(
        "ramses.cell_updates_per_s",
        "1/s",
        "higher",
        ZOOM,
        "makespan_s",
    ),
    // galics
    layer("galics.halo_maker_ms", "ms", "lower", ZOOM, "makespan_s"),
    layer("galics.pipeline_ms", "ms", "lower", ZOOM, "makespan_s"),
    layer("galics.halos", "count", "higher", ZOOM, "makespan_s"),
    // rayon
    layer("rayon.threads", "count", "higher", ALL, "makespan_s"),
    layer(
        "rayon.region_overhead_us",
        "us",
        "lower",
        ZOOM,
        "makespan_s",
    ),
    layer(
        "rayon.two_solve_ratio",
        "ratio",
        "lower",
        ZOOM,
        "makespan_s",
    ),
    // telemetry / budget
    layer(
        "telemetry.throughput_traced",
        "ops/s",
        "higher",
        ALL,
        "throughput_per_s",
    ),
    layer(
        "telemetry.spans_shipped",
        "count",
        "higher",
        ALL,
        "throughput_per_s",
    ),
    layer(
        "telemetry.spans_dropped",
        "count",
        "lower",
        ALL,
        "throughput_per_s",
    ),
    layer("budget.residual_frac", "ratio", "lower", ZOOM, "makespan_s"),
];

/// Seconds one run measures: the length of every closed-loop timed phase.
/// `zoom_campaign` is fixed work sized to take about three times as long.
pub const RUN_SECONDS: u64 = 12;

/// `BENCHMARK.json`, exactly as the contract shapes it.
pub fn manifest() -> Value {
    let strs =
        |items: &[&str]| Value::Arr(items.iter().map(|s| Value::Str(s.to_string())).collect());
    Value::obj(vec![
        ("command", strs(&["bash", "benchmark/run.sh"])),
        ("paths", strs(&["benchmark"])),
        ("run_seconds", Value::Num(RUN_SECONDS as f64)),
        (
            "workloads",
            Value::Arr(
                WORKLOADS
                    .iter()
                    .map(|w| {
                        Value::obj(vec![
                            ("name", Value::Str(w.name.into())),
                            ("why", Value::Str(w.why.into())),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "end_to_end",
            Value::Arr(
                END_TO_END
                    .iter()
                    .map(|m| {
                        Value::obj(vec![
                            ("name", Value::Str(m.name.into())),
                            ("unit", Value::Str(m.unit.into())),
                            ("better", Value::Str(m.better.into())),
                            ("bound", Value::Num(m.bound)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "per_layer",
            Value::Arr(
                PER_LAYER
                    .iter()
                    .map(|m| {
                        Value::obj(vec![
                            ("name", Value::Str(m.name.into())),
                            ("unit", Value::Str(m.unit.into())),
                            ("better", Value::Str(m.better.into())),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    fn ok_name(s: &str) -> bool {
        s.len() <= 64
            && s.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    fn ok_unit(s: &str) -> bool {
        !s.is_empty()
            && s.len() <= 16
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
    }

    #[test]
    fn names_and_units_fit_the_contract() {
        let mut seen = HashSet::new();
        for w in &WORKLOADS {
            assert!(ok_name(w.name) && seen.insert(w.name), "{}", w.name);
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
        }
        for m in &END_TO_END {
            assert!(ok_name(m.name) && seen.insert(m.name), "{}", m.name);
            assert!(ok_unit(m.unit), "{}", m.unit);
            assert!(m.bound > 0.0 && m.bound <= 0.25);
            assert!(m.better == "lower" || m.better == "higher");
        }
        for m in PER_LAYER {
            assert!(ok_name(m.name) && seen.insert(m.name), "{}", m.name);
            assert!(ok_unit(m.unit), "{}", m.unit);
            assert!(m.better == "lower" || m.better == "higher");
            assert!(m.on == ALL || WORKLOADS.iter().any(|w| w.name == m.on));
            assert!(END_TO_END.iter().any(|e| e.name == m.moves), "{}", m.moves);
        }
        assert!(PER_LAYER.len() <= 128);
        assert!(END_TO_END.iter().any(|m| m.name == "setup_s"
            && m.unit == "s"
            && m.better == "lower"
            && END_TO_END.iter().all(|o| o.bound <= m.bound)));
    }

    #[test]
    fn benchmark_json_is_this_table() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("read BENCHMARK.json");
        assert!(text.len() <= 64 * 1024);
        let on_disk = crate::json::parse(&text).expect("parse BENCHMARK.json");
        assert!((1..=60).contains(&RUN_SECONDS));
        assert_eq!(
            on_disk,
            manifest(),
            "regenerate with: benchmark/run.sh manifest > BENCHMARK.json"
        );
    }
}

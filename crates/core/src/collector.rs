//! Unified telemetry collector — the LogCentral analogue.
//!
//! One process per deployment runs a [`Collector`]: every MA, LA, SeD, and
//! client ships its spans and metric deltas here via a
//! [`crate::telemetry::TelemetryFlusher`], and the collector merges them
//! into a single [`Obs`]. Because span records carry their originating
//! `trace_id` across the wire untouched, a request that hopped
//! client → MA → LA → SeD stitches back into one trace
//! (Finding → Submission → Queued → Execution → ResultReturn) even though
//! each hop recorded its window in a different process.
//!
//! The collector serves its merged state over the same framed reactor as
//! every other component, which has a deliberate side effect: the reactor's
//! own instrumentation (`diet_reactor_tick_seconds`, dispatch/write-queue
//! gauges, drop counters) registers into the *merged* registry, so a
//! Prometheus scrape of the collector shows the health of the event loop
//! doing the collecting.
//!
//! Views, all served through the correlated [`Message::DumpMetricsRid`]:
//!
//! - `""` / `"prometheus"` — text exposition of the merged registry
//! - `"chrome"` — Chrome `chrome://tracing` JSON of every merged span
//! - `"topology"` — VizDIET-style plaintext snapshot: reporting processes
//!   grouped by site with per-source batch/span/staleness health

use crate::codec::{Message, ProcessSource};
use crate::error::DietError;
use crate::reactor::ConnHandle;
use crate::transport::{ServerConfig, TcpServer};
use obs::{Labels, MetricSnapshot, Obs, SpanRecord};
use parking_lot::Mutex;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::Arc;
use std::time::Instant;

/// Liveness/volume bookkeeping for one reporting process.
#[derive(Debug, Clone)]
pub struct SourceHealth {
    pub site: String,
    /// Spans merged from this source.
    pub spans: u64,
    /// Push batches (span or delta) received from this source.
    pub batches: u64,
    /// When the last batch arrived.
    pub last_seen: Instant,
}

/// Merge point for a deployment's telemetry. Cheap to clone via `Arc`.
pub struct Collector {
    /// The unified registry + span ring every push lands in.
    pub obs: Arc<Obs>,
    sources: Mutex<BTreeMap<(String, String, u32), SourceHealth>>,
    started: Instant,
}

impl Default for Collector {
    fn default() -> Self {
        Self::new()
    }
}

impl Collector {
    pub fn new() -> Self {
        Collector {
            // Collector ring must hold every process's spans, not one
            // process's worth — size it at the default, not the trimmed
            // per-component capacity.
            obs: Arc::new(Obs::new()),
            sources: Mutex::new(BTreeMap::new()),
            started: Instant::now(),
        }
    }

    fn touch(&self, source: &ProcessSource, spans: u64) {
        let mut map = self.sources.lock();
        let entry = map
            .entry((source.role.clone(), source.label.clone(), source.pid))
            .or_insert_with(|| SourceHealth {
                site: source.site.clone(),
                spans: 0,
                batches: 0,
                last_seen: Instant::now(),
            });
        entry.site = source.site.clone();
        entry.spans += spans;
        entry.batches += 1;
        entry.last_seen = Instant::now();
    }

    /// Merge one span batch into the unified ring.
    pub fn ingest_spans(&self, source: &ProcessSource, spans: Vec<SpanRecord>) {
        self.touch(source, spans.len() as u64);
        self.obs
            .metrics
            .counter_with(
                "diet_collector_spans_ingested_total",
                &[("role", &source.role), ("label", &source.label)],
            )
            .add(spans.len() as u64);
        for rec in spans {
            self.obs.tracer.ingest(rec);
        }
    }

    /// Merge one metric-delta batch into the unified registry. Counters and
    /// histogram buckets accumulate across sources; gauges are last-write-
    /// wins, so same-named gauges from different processes should carry
    /// distinguishing labels (the components label theirs already).
    pub fn ingest_deltas(
        &self,
        source: &ProcessSource,
        deltas: &[(String, Labels, MetricSnapshot)],
    ) {
        self.touch(source, 0);
        self.obs
            .metrics
            .counter_with(
                "diet_collector_deltas_ingested_total",
                &[("role", &source.role), ("label", &source.label)],
            )
            .add(deltas.len() as u64);
        for (name, labels, snap) in deltas {
            if self.obs.metrics.apply(name, labels, snap).is_err() {
                // Same name registered with a conflicting kind — count it,
                // keep merging the rest of the batch.
                self.obs
                    .metrics
                    .counter("diet_collector_merge_conflicts_total")
                    .inc();
            }
        }
    }

    /// Every merged span belonging to `trace_id`, ordered by start time —
    /// the stitched cross-process trace.
    pub fn trace(&self, trace_id: u64) -> Vec<SpanRecord> {
        let mut spans: Vec<SpanRecord> = self
            .obs
            .tracer
            .snapshot()
            .into_iter()
            .filter(|s| s.trace_id == trace_id)
            .collect();
        spans.sort_by_key(|s| (s.start_ns, s.end_ns, s.span_id));
        spans
    }

    /// Sources that have reported at least once, in deterministic order.
    pub fn sources(&self) -> Vec<(ProcessSource, SourceHealth)> {
        self.sources
            .lock()
            .iter()
            .map(|((role, label, pid), health)| {
                (
                    ProcessSource {
                        role: role.clone(),
                        label: label.clone(),
                        pid: *pid,
                        site: health.site.clone(),
                    },
                    health.clone(),
                )
            })
            .collect()
    }

    /// VizDIET-style plaintext health snapshot: every reporting process
    /// grouped by site, with batch/span volume and time since last report.
    pub fn topology_snapshot(&self) -> String {
        let sources = self.sources();
        let mut by_site: BTreeMap<&str, Vec<&(ProcessSource, SourceHealth)>> = BTreeMap::new();
        for entry in &sources {
            let site = if entry.0.site.is_empty() {
                "(unsited)"
            } else {
                entry.0.site.as_str()
            };
            by_site.entry(site).or_default().push(entry);
        }
        let mut out = String::new();
        let _ = writeln!(
            out,
            "diet topology: {} process(es), {} site(s), collector up {:.1}s",
            sources.len(),
            by_site.len(),
            self.started.elapsed().as_secs_f64()
        );
        for (site, members) in &by_site {
            let _ = writeln!(out, "site {site}");
            for (src, health) in members {
                let _ = writeln!(
                    out,
                    "  {role:<6} {label:<16} pid={pid:<7} batches={batches:<5} \
                     spans={spans:<7} last_seen={ago:.1}s ago",
                    role = src.role,
                    label = src.label,
                    pid = src.pid,
                    batches = health.batches,
                    spans = health.spans,
                    ago = health.last_seen.elapsed().as_secs_f64(),
                );
            }
        }
        out
    }

    /// Render the view a `DumpMetricsRid` request selects.
    pub fn view(&self, what: &str) -> String {
        match what {
            "" | "prometheus" => self.obs.metrics.render_prometheus(),
            "chrome" => obs::chrome_trace(&self.obs.tracer.snapshot()),
            "topology" => self.topology_snapshot(),
            other => format!("unknown metrics view {other:?}\n"),
        }
    }
}

/// Serve a [`Collector`] on the framed reactor. The collector's unified
/// `Obs` doubles as the server's instrumentation registry, so the reactor's
/// tick-latency and queue-depth series appear in the collector's own
/// Prometheus output.
pub fn serve_collector_over_tcp(
    collector: Arc<Collector>,
    addr: &str,
    mut cfg: ServerConfig,
) -> Result<TcpServer, DietError> {
    if cfg.obs.is_none() {
        cfg.obs = Some(collector.obs.clone());
    }
    TcpServer::spawn_framed(
        addr,
        cfg,
        move |handle: &ConnHandle, msg: Message| match msg {
            Message::PushSpans {
                request_id,
                source,
                spans,
            } => {
                collector.ingest_spans(&source, spans);
                let _ = handle.send(&Message::PushAck { request_id });
            }
            Message::PushMetricDeltas {
                request_id,
                source,
                deltas,
            } => {
                collector.ingest_deltas(&source, &deltas);
                let _ = handle.send(&Message::PushAck { request_id });
            }
            Message::DumpMetricsRid { request_id, what } => {
                let text = collector.view(&what);
                let _ = handle.send(&Message::MetricsReplyRid { request_id, text });
            }
            Message::Ping { request_id } => {
                let _ = handle.send(&Message::Pong { request_id });
            }
            _ => {}
        },
    )
}

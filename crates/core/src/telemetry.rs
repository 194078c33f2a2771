//! Per-process telemetry shipping — the LogComponent half of the paper's
//! LogService/LogCentral stack.
//!
//! Since PR 6 split the MA/LA tree into separate TCP processes, each
//! component's [`Obs`] is an island: spans and metrics are visible only to
//! whoever holds that process's `Arc`. A [`TelemetryFlusher`] reconnects
//! the islands: a background thread drains the process's span ring
//! ([`Obs::drain_spans`]) and metric deltas ([`obs::Registry::delta_since`])
//! on an interval — and once more on shutdown — and ships them to the
//! collector process (`crate::collector`) as [`Message::PushSpans`] /
//! [`Message::PushMetricDeltas`] batches tagged with this process's
//! identity ([`ProcessSource`]).
//!
//! Delivery rides one multiplexed connection: pushes carry correlation ids
//! and the collector acks each batch with [`Message::PushAck`], so
//! [`TelemetryFlusher::flush_now`] is synchronous — after it returns `Ok`,
//! the collector has merged the batch. Failed flushes count into the local
//! `diet_telemetry_flush_errors_total` counter (which itself ships on the
//! next successful flush); the spans drained for a failed push are lost,
//! which the span-drop accounting makes visible rather than silent.

use crate::codec::{Message, ProcessSource};
use crate::error::DietError;
use crate::monitor::Periodic;
use crate::transport::{unexpected, Peer};
use obs::{DeltaTracker, Obs};
use parking_lot::Mutex;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Where and as whom a process reports its telemetry.
#[derive(Clone)]
pub struct TelemetryConfig {
    /// Address of the collector process.
    pub collector: SocketAddr,
    /// Component kind: "ma", "la", "sed", "client".
    pub role: String,
    /// Component label (a SeD's `lyon/0`, an agent's site name, …).
    pub label: String,
    /// Deployment site, for the collector's topology view (may be empty).
    pub site: String,
    /// How often the background thread flushes.
    pub interval: Duration,
}

impl TelemetryConfig {
    pub fn new(collector: SocketAddr, role: &str, label: &str) -> Self {
        TelemetryConfig {
            collector,
            role: role.to_string(),
            label: label.to_string(),
            site: String::new(),
            interval: Duration::from_millis(500),
        }
    }

    pub fn site(mut self, site: &str) -> Self {
        self.site = site.to_string();
        self
    }

    pub fn interval(mut self, interval: Duration) -> Self {
        self.interval = interval;
        self
    }
}

struct FlusherShared {
    obs: Arc<Obs>,
    source: ProcessSource,
    /// The collector, over one connection redialed when dead. The flush
    /// thread and any `flush_now` caller share it.
    collector: Peer,
    /// Cumulative-value memory for delta shipping; held across flushes so
    /// every increment ships exactly once.
    tracker: Mutex<DeltaTracker>,
    flush_errors: AtomicU64,
}

impl FlusherShared {
    fn push(&self, build: impl FnOnce(u64) -> Message) -> Result<(), DietError> {
        match self.collector.request(build, Duration::from_secs(5))? {
            Message::PushAck { .. } => Ok(()),
            other => Err(unexpected("telemetry push", other)),
        }
    }

    /// One flush: drain spans, compute metric deltas, ship both, wait for
    /// the acks. Spans ship first so the delta batch includes any
    /// span-drop accounting the drain just updated.
    fn flush(&self) -> Result<(), DietError> {
        let spans = self.obs.drain_spans();
        if !spans.is_empty() {
            self.push(|request_id| Message::PushSpans {
                request_id,
                source: self.source.clone(),
                spans,
            })?;
        }
        let deltas = {
            let mut tracker = self.tracker.lock();
            self.obs.metrics.delta_since(&mut tracker)
        };
        if !deltas.is_empty() {
            self.push(|request_id| Message::PushMetricDeltas {
                request_id,
                source: self.source.clone(),
                deltas,
            })?;
        }
        Ok(())
    }

    fn flush_counted(&self) {
        if self.flush().is_err() {
            self.flush_errors.fetch_add(1, Ordering::Relaxed);
            self.obs
                .metrics
                .counter("diet_telemetry_flush_errors_total")
                .inc();
        }
    }
}

/// Background flusher for one process's [`Obs`]. Construct with
/// [`TelemetryFlusher::spawn`]; drop (or call
/// [`shutdown`](TelemetryFlusher::shutdown)) to stop the thread after one
/// final flush, so short-lived processes still report their tail.
pub struct TelemetryFlusher {
    shared: Arc<FlusherShared>,
    /// The interval flush; taken by the first `shutdown`.
    flusher: Option<Periodic>,
}

impl TelemetryFlusher {
    /// Start flushing `obs` to `cfg.collector` every `cfg.interval`.
    pub fn spawn(obs: Arc<Obs>, cfg: TelemetryConfig) -> Self {
        let shared = Arc::new(FlusherShared {
            obs,
            source: ProcessSource {
                role: cfg.role,
                label: cfg.label,
                pid: std::process::id(),
                site: cfg.site,
            },
            collector: Peer::new(cfg.collector),
            tracker: Mutex::new(DeltaTracker::new()),
            flush_errors: AtomicU64::new(0),
        });
        let worker = shared.clone();
        let flusher = Periodic::spawn(cfg.interval, move || worker.flush_counted());
        TelemetryFlusher {
            shared,
            flusher: Some(flusher),
        }
    }

    /// The identity batches from this flusher carry.
    pub fn source(&self) -> &ProcessSource {
        &self.shared.source
    }

    /// Synchronous flush: drains and ships now, returning once the
    /// collector has acked (or the push failed). Deterministic tests hang
    /// off this instead of sleeping for the interval.
    pub fn flush_now(&self) -> Result<(), DietError> {
        self.shared.flush()
    }

    /// Flushes that failed end to end (connect, push, or ack).
    pub fn flush_errors(&self) -> u64 {
        self.shared.flush_errors.load(Ordering::Relaxed)
    }

    /// Stop the background thread after one final flush. Called by `Drop`;
    /// explicit calls make shutdown ordering visible in deployment code.
    pub fn shutdown(&mut self) {
        if let Some(flusher) = self.flusher.take() {
            flusher.stop();
            self.shared.flush_counted();
        }
    }
}

impl Drop for TelemetryFlusher {
    fn drop(&mut self) {
        self.shutdown();
    }
}

//! Bench spans: recorded from the benchmark's own files around each call
//! into a layer, kept in memory, written as Chrome-trace JSON when the run
//! ends. Fields the program returns (`CallStats`, `DagNodeOutcome`, event
//! times) become child spans, so a layer's self time is its span minus the
//! part of that interval its children cover.

use obs::SpanRecord;
use std::collections::{BTreeMap, HashMap};
use std::time::Instant;

/// Spans written to the trace file; the layer table uses all of them.
const TRACE_FILE_SPANS: usize = 20_000;

/// One thread's span log. Ids are unique across logs of one run as long as
/// each log gets its own `lane`.
pub struct SpanLog {
    epoch: Instant,
    next_id: u64,
    pub records: Vec<SpanRecord>,
}

impl SpanLog {
    /// `epoch` is shared by every log of a run so their clocks line up.
    pub fn new(epoch: Instant, lane: u64) -> SpanLog {
        SpanLog {
            epoch,
            next_id: (lane << 40) + 1,
            records: Vec::new(),
        }
    }

    pub fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Record `[start_ns, end_ns]`; returns the span id for children.
    pub fn add(
        &mut self,
        name: &'static str,
        resource: &str,
        trace: u64,
        parent: u64,
        start_ns: u64,
        end_ns: u64,
    ) -> u64 {
        let id = self.next_id;
        self.next_id += 1;
        self.records.push(SpanRecord {
            trace_id: trace,
            span_id: id,
            parent,
            name,
            resource: resource.to_string(),
            start_ns,
            end_ns: end_ns.max(start_ns),
        });
        id
    }

    /// Record a span for a call that started at `start` and just returned,
    /// then lay `phases` (name, seconds) end to end from its start as child
    /// spans — how the fields of a returned `CallStats` enter the trace.
    pub fn add_call(
        &mut self,
        name: &'static str,
        resource: &str,
        trace: u64,
        start: Instant,
        phases: &[(&'static str, f64)],
    ) -> u64 {
        let s = self.ns(start);
        let e = self.ns(Instant::now());
        let id = self.add(name, resource, trace, 0, s, e);
        let mut at = s;
        for (phase, secs) in phases {
            let end = (at + (secs.max(0.0) * 1e9) as u64).min(e);
            self.add(phase, resource, trace, id, at, end);
            at = end;
        }
        id
    }
}

/// One row of the layer table.
#[derive(Debug, Clone, PartialEq)]
pub struct LayerRow {
    pub name: &'static str,
    pub count: u64,
    pub total_s: f64,
    pub self_s: f64,
}

/// Per span name: how many, their total duration, and their self time —
/// duration minus the union of the children's intervals, clipped to the
/// parent, so children that overlap (two SeDs solving at once) are not
/// subtracted twice.
pub fn layer_table(records: &[SpanRecord]) -> Vec<LayerRow> {
    let mut children: HashMap<u64, Vec<(u64, u64)>> = HashMap::new();
    for r in records.iter().filter(|r| r.parent != 0) {
        children
            .entry(r.parent)
            .or_default()
            .push((r.start_ns, r.end_ns));
    }
    let mut rows: BTreeMap<&'static str, LayerRow> = BTreeMap::new();
    for r in records {
        let dur = r.end_ns - r.start_ns;
        let covered = children
            .get_mut(&r.span_id)
            .map_or(0, |kids| union_within(kids, r.start_ns, r.end_ns));
        let row = rows.entry(r.name).or_insert(LayerRow {
            name: r.name,
            count: 0,
            total_s: 0.0,
            self_s: 0.0,
        });
        row.count += 1;
        row.total_s += dur as f64 * 1e-9;
        row.self_s += (dur - covered) as f64 * 1e-9;
    }
    let mut rows: Vec<LayerRow> = rows.into_values().collect();
    rows.sort_by(|a, b| b.self_s.total_cmp(&a.self_s));
    rows
}

/// Length of the union of `intervals` inside `[lo, hi]`.
fn union_within(intervals: &mut [(u64, u64)], lo: u64, hi: u64) -> u64 {
    intervals.sort_unstable();
    let mut covered = 0;
    let mut at = lo;
    for &(s, e) in intervals.iter() {
        let s = s.max(at);
        let e = e.min(hi);
        if e > s {
            covered += e - s;
            at = e;
        }
    }
    covered
}

pub fn render_table(rows: &[LayerRow]) -> String {
    let mut out = format!(
        "{:<28} {:>9} {:>12} {:>12}\n",
        "span", "count", "total_s", "self_s"
    );
    for r in rows {
        out.push_str(&format!(
            "{:<28} {:>9} {:>12.6} {:>12.6}\n",
            r.name, r.count, r.total_s, r.self_s
        ));
    }
    out
}

/// Chrome `trace_event` JSON of (a bounded prefix of) the run's spans,
/// through the repository's own exporter.
pub fn chrome_trace(records: &[SpanRecord]) -> String {
    obs::chrome_trace(&records[..records.len().min(TRACE_FILE_SPANS)])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let mut log = SpanLog::new(Instant::now(), 0);
        let root = log.add("campaign", "client", 1, 0, 0, 1_000);
        // Two overlapping children and one sticking out past the parent.
        log.add("node", "s0", 1, root, 100, 500);
        log.add("node", "s1", 1, root, 300, 700);
        log.add("node", "s1", 1, root, 900, 1_500);
        let rows = layer_table(&log.records);
        let campaign = rows.iter().find(|r| r.name == "campaign").unwrap();
        assert_eq!(campaign.count, 1);
        assert!((campaign.total_s - 1_000e-9).abs() < 1e-15);
        // Covered: [100,700] and [900,1000] = 700 ns of 1000.
        assert!((campaign.self_s - 300e-9).abs() < 1e-15);
        let node = rows.iter().find(|r| r.name == "node").unwrap();
        assert_eq!(node.count, 3);
        assert!((node.self_s - node.total_s).abs() < 1e-15);
    }

    #[test]
    fn call_phases_become_children_laid_end_to_end() {
        let mut log = SpanLog::new(Instant::now(), 3);
        let start = Instant::now();
        std::thread::sleep(std::time::Duration::from_millis(2));
        let id = log.add_call(
            "rpc.call",
            "client",
            7,
            start,
            &[("finding", 0.0005), ("send", 0.0005), ("solve", 10.0)],
        );
        assert_eq!(id >> 40, 3);
        let parent = log.records[0].clone();
        assert_eq!(log.records.len(), 4);
        assert_eq!(log.records[1].start_ns, parent.start_ns);
        assert_eq!(log.records[2].start_ns, log.records[1].end_ns);
        // A phase longer than the call is clipped to it.
        assert_eq!(log.records[3].end_ns, parent.end_ns);
        assert!(log.records.iter().skip(1).all(|r| r.parent == id));
        let trace = chrome_trace(&log.records);
        assert!(crate::json::parse(&trace).is_ok(), "{trace}");
    }
}

//! Execution traces and Gantt charts.
//!
//! Every scheduling decision and task execution in a simulated campaign is
//! recorded as a [`TraceEvent`]; [`Gantt`] aggregates them into exactly the
//! per-SeD views the paper plots: Figure 4-left (the Gantt chart of the 100
//! sub-simulations over the SeDs) and Figure 4-right (per-SeD execution
//! time), plus the Figure 5 series (finding time and latency per request).

use crate::des::SimTime;

/// What a trace entry describes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum TraceKind {
    /// Agent hierarchy traversal to pick a SeD ("finding time").
    Finding,
    /// Client → SeD input transfer + service initiation.
    Submission,
    /// Waiting in the SeD queue.
    Queued,
    /// The solve itself.
    Execution,
    /// An execution cut short by a server failure (the work is lost).
    Aborted,
    /// SeD → client result transfer.
    ResultReturn,
}

/// One interval on one resource.
#[derive(Debug, Clone)]
pub struct TraceEvent {
    /// Request identifier (0 = part 1; 1..=100 = the sub-simulations).
    pub request: u32,
    /// SeD label, or "agents" for hierarchy work.
    pub resource: String,
    pub kind: TraceKind,
    pub start: SimTime,
    pub end: SimTime,
}

impl TraceEvent {
    pub fn duration(&self) -> SimTime {
        self.end - self.start
    }
}

/// An accumulating trace.
#[derive(Debug, Clone, Default)]
pub struct Gantt {
    pub events: Vec<TraceEvent>,
}

/// Figure 4-right: one bar per SeD.
#[derive(Debug, Clone, PartialEq)]
pub struct SedSummary {
    pub resource: String,
    pub requests: usize,
    /// Total busy (execution) time, seconds.
    pub busy: f64,
    /// Completion time of its last task.
    pub finish: f64,
}

impl Gantt {
    pub fn record(
        &mut self,
        request: u32,
        resource: impl Into<String>,
        kind: TraceKind,
        start: SimTime,
        end: SimTime,
    ) {
        debug_assert!(end >= start, "negative interval");
        self.events.push(TraceEvent {
            request,
            resource: resource.into(),
            kind,
            start,
            end,
        });
    }

    /// Campaign makespan: last event end minus first event start.
    pub fn makespan(&self) -> f64 {
        let start = self
            .events
            .iter()
            .map(|e| e.start)
            .fold(f64::INFINITY, f64::min);
        let end = self.events.iter().map(|e| e.end).fold(0.0f64, f64::max);
        if self.events.is_empty() {
            0.0
        } else {
            end - start
        }
    }

    /// Figure 4-right data: per-SeD request count, busy time and finish time,
    /// sorted by resource label. Only `Execution` events count as busy.
    pub fn sed_summaries(&self) -> Vec<SedSummary> {
        let mut map: std::collections::BTreeMap<String, SedSummary> =
            std::collections::BTreeMap::new();
        for e in &self.events {
            if e.kind != TraceKind::Execution {
                continue;
            }
            let s = map.entry(e.resource.clone()).or_insert(SedSummary {
                resource: e.resource.clone(),
                requests: 0,
                busy: 0.0,
                finish: 0.0,
            });
            s.requests += 1;
            s.busy += e.duration();
            s.finish = s.finish.max(e.end);
        }
        map.into_values().collect()
    }

    /// Figure 5 series: per-request duration of a given kind, ordered by
    /// request id.
    pub fn per_request(&self, kind: TraceKind) -> Vec<(u32, f64)> {
        let mut v: Vec<(u32, f64)> = self
            .events
            .iter()
            .filter(|e| e.kind == kind)
            .map(|e| (e.request, e.duration()))
            .collect();
        v.sort_by_key(|&(r, _)| r);
        v
    }

    /// Mean duration of a kind (paper: "finding time ... 49.8 ms on average").
    pub fn mean_duration(&self, kind: TraceKind) -> f64 {
        let v = self.per_request(kind);
        if v.is_empty() {
            return 0.0;
        }
        v.iter().map(|(_, d)| d).sum::<f64>() / v.len() as f64
    }

    /// Export all events as CSV (request,resource,kind,start,end) — the raw
    /// material for re-plotting the paper's figures with any tool.
    pub fn to_csv(&self) -> String {
        let mut out = String::from("request,resource,kind,start,end\n");
        for e in &self.events {
            out.push_str(&format!(
                "{},{},{:?},{:.6},{:.6}\n",
                e.request, e.resource, e.kind, e.start, e.end
            ));
        }
        out
    }

    /// ASCII Gantt chart (Figure 4-left): one row per SeD, time bucketed
    /// into `width` columns; each executed request paints its span with a
    /// letter cycling a..z by request id.
    pub fn render_ascii(&self, width: usize) -> String {
        let makespan = self.makespan().max(1e-9);
        let t0 = self
            .events
            .iter()
            .map(|e| e.start)
            .fold(f64::INFINITY, f64::min);
        let mut rows: std::collections::BTreeMap<String, Vec<char>> =
            std::collections::BTreeMap::new();
        for e in &self.events {
            if e.kind != TraceKind::Execution {
                continue;
            }
            let row = rows
                .entry(e.resource.clone())
                .or_insert_with(|| vec!['.'; width]);
            let c0 = (((e.start - t0) / makespan) * width as f64) as usize;
            let c1 = ((((e.end - t0) / makespan) * width as f64) as usize).min(width);
            let glyph = char::from(b'a' + (e.request % 26) as u8);
            for cell in row
                .iter_mut()
                .take(c1)
                .skip(c0.min(width.saturating_sub(1)))
            {
                *cell = glyph;
            }
        }
        let label_w = rows.keys().map(|k| k.len()).max().unwrap_or(0);
        let mut out = String::new();
        for (label, row) in rows {
            out.push_str(&format!("{label:label_w$} |"));
            out.extend(row);
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Gantt {
        let mut g = Gantt::default();
        g.record(1, "sedA", TraceKind::Finding, 0.0, 0.05);
        g.record(1, "sedA", TraceKind::Execution, 0.1, 10.1);
        g.record(2, "sedB", TraceKind::Finding, 0.0, 0.04);
        g.record(2, "sedB", TraceKind::Execution, 0.1, 5.1);
        g.record(3, "sedA", TraceKind::Execution, 10.1, 22.1);
        g
    }

    #[test]
    fn makespan_spans_all_events() {
        let g = sample();
        assert!((g.makespan() - 22.1).abs() < 1e-12);
    }

    #[test]
    fn summaries_count_and_accumulate() {
        let g = sample();
        let s = g.sed_summaries();
        assert_eq!(s.len(), 2);
        let a = s.iter().find(|x| x.resource == "sedA").unwrap();
        assert_eq!(a.requests, 2);
        assert!((a.busy - 22.0).abs() < 1e-9);
        assert!((a.finish - 22.1).abs() < 1e-9);
        let b = s.iter().find(|x| x.resource == "sedB").unwrap();
        assert_eq!(b.requests, 1);
        assert!((b.busy - 5.0).abs() < 1e-9);
    }

    #[test]
    fn per_request_sorted_and_filtered() {
        let g = sample();
        let f = g.per_request(TraceKind::Finding);
        assert_eq!(f.len(), 2);
        assert_eq!(f[0].0, 1);
        assert!((f[0].1 - 0.05).abs() < 1e-12);
        assert!((g.mean_duration(TraceKind::Finding) - 0.045).abs() < 1e-12);
    }

    #[test]
    fn mean_of_missing_kind_is_zero() {
        let g = sample();
        assert_eq!(g.mean_duration(TraceKind::Queued), 0.0);
    }

    #[test]
    fn ascii_gantt_has_one_row_per_sed() {
        let g = sample();
        let art = g.render_ascii(40);
        let lines: Vec<&str> = art.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].starts_with("sedA"));
        assert!(lines[0].contains('b')); // request 1 paints 'b'
        assert!(lines[1].contains('c')); // request 2 paints 'c'
    }

    #[test]
    fn csv_has_header_and_rows() {
        let g = sample();
        let csv = g.to_csv();
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines[0], "request,resource,kind,start,end");
        assert_eq!(lines.len(), 1 + g.events.len());
        assert!(lines[1].starts_with("1,sedA,Finding,"));
    }

    #[test]
    fn empty_gantt_is_safe() {
        let g = Gantt::default();
        assert_eq!(g.makespan(), 0.0);
        assert!(g.sed_summaries().is_empty());
        assert_eq!(g.render_ascii(10), "");
    }
}

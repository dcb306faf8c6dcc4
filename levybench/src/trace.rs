//! The traced run's span recorder and per-layer table.
//!
//! Spans come from two places: the benchmark's own code, around each
//! call into a layer's public function, and the spans `levyd` already
//! records (read through `Server::traces()` and joined to the client
//! span by trace id). Both are kept in memory and written once, when
//! the run ends. A span's self time is its duration minus its
//! children's.

use std::collections::HashMap;
use std::fmt::Write as _;
use std::time::{Instant, SystemTime, UNIX_EPOCH};

use crate::report::{json_str, median};

/// Span names, interned so a traced run stores no per-span strings.
pub const SPAN_NAMES: &[&str] = &[
    // benchmark-side spans
    "client_request",
    "measure_cell",
    "replay_cell",
    "trial",
    // levyd's own spans
    "request",
    "cache_probe",
    "queue_wait",
    "worker_exec",
    "simulate",
    "response_encode",
    "cluster_route",
    "peer_peek",
    "peer_forward",
];

pub fn intern(name: &str) -> &'static str {
    SPAN_NAMES
        .iter()
        .find(|n| **n == name)
        .copied()
        .unwrap_or("other")
}

#[derive(Debug, Clone)]
pub struct SpanRec {
    pub name: &'static str,
    pub id: u64,
    /// 0 for a root.
    pub parent: u64,
    pub start_us: u64,
    pub dur_ns: u64,
    pub trace: u128,
}

/// Maps `Instant`s onto unix microseconds, so benchmark spans and
/// server spans share one time axis.
#[derive(Debug, Clone, Copy)]
pub struct Clock {
    epoch: Instant,
    epoch_unix_us: u64,
}

impl Clock {
    pub fn new() -> Clock {
        Clock {
            epoch: Instant::now(),
            epoch_unix_us: SystemTime::now()
                .duration_since(UNIX_EPOCH)
                .map(|d| d.as_micros() as u64)
                .unwrap_or(0),
        }
    }

    pub fn unix_us(&self, t: Instant) -> u64 {
        self.epoch_unix_us + t.saturating_duration_since(self.epoch).as_micros() as u64
    }
}

/// One thread's spans.
#[derive(Debug)]
pub struct Recorder {
    clock: Clock,
    next_id: u64,
    pub spans: Vec<SpanRec>,
}

impl Recorder {
    /// `id_base` keeps ids of different recorders apart.
    pub fn new(clock: Clock, id_base: u64) -> Recorder {
        Recorder {
            clock,
            next_id: id_base,
            spans: Vec::new(),
        }
    }

    pub fn next_id(&mut self) -> u64 {
        self.next_id += 1;
        self.next_id
    }

    /// Records a finished span under a fresh id.
    pub fn record(
        &mut self,
        name: &'static str,
        parent: u64,
        start: Instant,
        end: Instant,
        trace: u128,
    ) {
        let id = self.next_id();
        self.record_with_id(id, name, parent, start, end, trace);
    }

    pub fn record_with_id(
        &mut self,
        id: u64,
        name: &'static str,
        parent: u64,
        start: Instant,
        end: Instant,
        trace: u128,
    ) {
        self.spans.push(SpanRec {
            name,
            id,
            parent,
            start_us: self.clock.unix_us(start),
            dur_ns: end.saturating_duration_since(start).as_nanos() as u64,
            trace,
        });
    }
}

/// One row of the per-layer table: all spans of one name.
#[derive(Debug, Clone)]
pub struct Row {
    pub name: &'static str,
    pub count: u64,
    pub total_ms: f64,
    pub self_ms: f64,
    pub self_p50_us: f64,
}

/// Groups spans by name, with self time = duration − children.
pub fn rows(spans: &[SpanRec]) -> Vec<Row> {
    let mut child_ns: HashMap<u64, u64> = HashMap::new();
    for s in spans.iter().filter(|s| s.parent != 0) {
        *child_ns.entry(s.parent).or_default() += s.dur_ns;
    }
    let mut by_name: HashMap<&'static str, (u64, f64, f64, Vec<f64>)> = HashMap::new();
    for s in spans {
        let self_ns = s
            .dur_ns
            .saturating_sub(child_ns.get(&s.id).copied().unwrap_or(0));
        let e = by_name.entry(s.name).or_default();
        e.0 += 1;
        e.1 += s.dur_ns as f64 / 1e6;
        e.2 += self_ns as f64 / 1e6;
        e.3.push(self_ns as f64 / 1e3);
    }
    let mut out: Vec<Row> = by_name
        .into_iter()
        .map(|(name, (count, total_ms, self_ms, selfs))| Row {
            name,
            count,
            total_ms,
            self_ms,
            self_p50_us: median(&selfs),
        })
        .collect();
    let order = |n: &str| {
        SPAN_NAMES
            .iter()
            .position(|x| *x == n)
            .unwrap_or(usize::MAX)
    };
    out.sort_by_key(|r| order(r.name));
    out
}

/// The span part of the per-layer table.
pub fn format_rows(rows: &[Row]) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "  {:<16} {:>9} {:>12} {:>12} {:>13}",
        "span", "count", "total_ms", "self_ms", "self_p50_us"
    );
    for r in rows {
        let _ = writeln!(
            out,
            "  {:<16} {:>9} {:>12.1} {:>12.1} {:>13.2}",
            r.name, r.count, r.total_ms, r.self_ms, r.self_p50_us
        );
    }
    out
}

/// The span export: per-name rows plus the first `sample` raw spans.
pub fn export_json(spans: &[SpanRec], rows: &[Row], sample: usize) -> String {
    let rows_json: Vec<String> = rows
        .iter()
        .map(|r| {
            format!(
                "{{\"span\":{},\"count\":{},\"total_ms\":{:.3},\"self_ms\":{:.3},\"self_p50_us\":{:.3}}}",
                json_str(r.name),
                r.count,
                r.total_ms,
                r.self_ms,
                r.self_p50_us
            )
        })
        .collect();
    let spans_json: Vec<String> = spans
        .iter()
        .take(sample)
        .map(|s| {
            format!(
                "{{\"name\":{},\"trace\":\"{:032x}\",\"id\":\"{:016x}\",\"parent\":\"{:016x}\",\"start_unix_us\":{},\"dur_ns\":{}}}",
                json_str(s.name),
                s.trace,
                s.id,
                s.parent,
                s.start_us,
                s.dur_ns
            )
        })
        .collect();
    format!(
        "\"spans_total\":{},\"rows\":[{}],\"spans_sample\":[{}]",
        spans.len(),
        rows_json.join(","),
        spans_json.join(",")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let span = |name, id, parent, dur_ns| SpanRec {
            name,
            id,
            parent,
            start_us: 0,
            dur_ns,
            trace: 1,
        };
        let spans = vec![
            span("request", 1, 0, 1000),
            span("cache_probe", 2, 1, 300),
            span("response_encode", 3, 1, 200),
        ];
        let rows = rows(&spans);
        let request = rows.iter().find(|r| r.name == "request").unwrap();
        assert_eq!(request.count, 1);
        assert!((request.self_ms - 0.0005).abs() < 1e-12);
        assert!((request.total_ms - 0.001).abs() < 1e-12);
    }
}

//! Lightweight span tracing: RAII timing guards, trace/span identity, and
//! the `traceparent`-style context that crosses process boundaries.
//!
//! A [`Span`] is an RAII guard: construct it when entering a region, and on
//! drop the elapsed wall time is recorded (in microseconds) into a
//! histogram. When tracing is enabled — via the `LEVY_TRACE` environment
//! variable or programmatically with [`set_trace_enabled`] — each span
//! additionally emits one JSONL event on stderr:
//!
//! ```text
//! {"seq":17,"ts_us":1754480000123456,"span":"levy_served_engine_execute","dur_us":8123}
//! ```
//!
//! Every event carries a process-wide monotonic `seq`, so interleaved
//! multi-thread stderr output can be re-ordered deterministically; spans
//! that belong to a distributed trace (see [`crate::traces`]) additionally
//! carry `trace_id`, `span_id`, and `parent_id` fields.
//!
//! Tracing only observes timing and writes to stderr; it never touches RNG
//! streams or simulation state, so seeded results are byte-identical with
//! tracing on or off (tested in `levy-served`).

use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};
use std::time::{Instant, SystemTime, UNIX_EPOCH};

use crate::metrics::Histogram;
use crate::registry::Registry;

/// Tri-state so the `LEVY_TRACE` lookup happens at most once.
const TRACE_UNSET: u8 = 0;
const TRACE_OFF: u8 = 1;
const TRACE_ON: u8 = 2;

static TRACE_STATE: AtomicU8 = AtomicU8::new(TRACE_UNSET);

/// Whether JSONL span events are being emitted.
///
/// Initialized lazily from `LEVY_TRACE` (enabled when set to anything other
/// than empty or `0`), unless overridden by [`set_trace_enabled`].
pub fn trace_enabled() -> bool {
    match TRACE_STATE.load(Ordering::Relaxed) {
        TRACE_ON => true,
        TRACE_OFF => false,
        _ => {
            let on = matches!(std::env::var("LEVY_TRACE"), Ok(v) if !v.is_empty() && v != "0");
            let state = if on { TRACE_ON } else { TRACE_OFF };
            // A racing initializer computes the same answer; last store wins.
            TRACE_STATE.store(state, Ordering::Relaxed);
            on
        }
    }
}

/// Overrides the `LEVY_TRACE` decision for this process.
///
/// Exists so tests and tools can toggle tracing without mutating the
/// process environment (which is unsafe under concurrent threads).
pub fn set_trace_enabled(enabled: bool) {
    TRACE_STATE.store(
        if enabled { TRACE_ON } else { TRACE_OFF },
        Ordering::Relaxed,
    );
}

/// 128-bit trace identity, rendered as 32 lowercase hex digits.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct TraceId(pub u128);

/// 64-bit span identity, rendered as 16 lowercase hex digits (so the
/// numeric order is the rendered order).
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SpanId(pub u64);

impl std::fmt::Display for TraceId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:032x}", self.0)
    }
}

impl std::fmt::Display for SpanId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:016x}", self.0)
    }
}

impl TraceId {
    /// Parses exactly 32 lowercase/uppercase hex digits.
    pub fn from_hex(s: &str) -> Option<TraceId> {
        if s.len() != 32 {
            return None;
        }
        u128::from_str_radix(s, 16).ok().map(TraceId)
    }
}

impl SpanId {
    /// Parses exactly 16 lowercase/uppercase hex digits.
    pub fn from_hex(s: &str) -> Option<SpanId> {
        if s.len() != 16 {
            return None;
        }
        u64::from_str_radix(s, 16).ok().map(SpanId)
    }
}

/// The pair that travels across boundaries: which trace, and which span
/// within it is the parent of whatever happens next.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SpanContext {
    /// Identity of the whole trace.
    pub trace_id: TraceId,
    /// The span acting as parent on the other side of the boundary.
    pub span_id: SpanId,
}

impl SpanContext {
    /// Renders the W3C-`traceparent`-style header value
    /// `00-<trace_id>-<span_id>-01`.
    pub fn to_traceparent(&self) -> String {
        format!("00-{}-{}-01", self.trace_id, self.span_id)
    }

    /// Parses a `traceparent`-style value; tolerates any 2-hex-digit
    /// version and flags field, rejects malformed ids and the all-zero
    /// trace id.
    pub fn parse_traceparent(value: &str) -> Option<SpanContext> {
        let mut parts = value.trim().split('-');
        let version = parts.next()?;
        let trace = parts.next()?;
        let span = parts.next()?;
        let flags = parts.next()?;
        if parts.next().is_some() || version.len() != 2 || flags.len() != 2 {
            return None;
        }
        if u8::from_str_radix(version, 16).is_err() || u8::from_str_radix(flags, 16).is_err() {
            return None;
        }
        let trace_id = TraceId::from_hex(trace)?;
        let span_id = SpanId::from_hex(span)?;
        if trace_id.0 == 0 || span_id.0 == 0 {
            return None;
        }
        Some(SpanContext { trace_id, span_id })
    }
}

/// Process-unique id source: a time-derived seed (so two processes do not
/// collide) mixed with a monotonic counter (so one process never repeats).
/// No RNG stream is touched — determinism of seeded simulations is
/// unaffected.
fn id_word() -> u64 {
    static SEQ: AtomicU64 = AtomicU64::new(0);
    static SEED: std::sync::OnceLock<u64> = std::sync::OnceLock::new();
    let seed = *SEED.get_or_init(|| {
        let nanos = SystemTime::now()
            .duration_since(UNIX_EPOCH)
            .map(|d| d.as_nanos() as u64)
            .unwrap_or(0x5DEECE66D);
        nanos ^ (std::process::id() as u64).rotate_left(32)
    });
    let n = SEQ.fetch_add(1, Ordering::Relaxed);
    // SplitMix64 finalizer: spreads the counter over the word.
    let mut z = seed.wrapping_add(n.wrapping_mul(0x9E37_79B9_7F4A_7C15));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A fresh, non-zero trace id.
pub fn next_trace_id() -> TraceId {
    loop {
        let id = ((id_word() as u128) << 64) | id_word() as u128;
        if id != 0 {
            return TraceId(id);
        }
    }
}

/// A fresh, non-zero span id.
pub fn next_span_id() -> SpanId {
    loop {
        let id = id_word();
        if id != 0 {
            return SpanId(id);
        }
    }
}

/// Next value of the process-wide monotonic event sequence number.
fn next_seq() -> u64 {
    static SEQ: AtomicU64 = AtomicU64::new(0);
    SEQ.fetch_add(1, Ordering::Relaxed)
}

/// Identity attached to a JSONL trace event, when the span belongs to a
/// distributed trace.
#[derive(Clone, Copy, Debug)]
pub struct EventIds {
    /// Trace the span belongs to.
    pub trace_id: TraceId,
    /// The span's own id.
    pub span_id: SpanId,
    /// Parent span, absent for roots.
    pub parent_id: Option<SpanId>,
}

/// Formats one JSONL trace event (without the trailing newline).
///
/// `seq` is a process-wide monotonic sequence number: stderr interleaving
/// across threads can be undone by sorting on it. Span names are
/// identifiers (`[a-z0-9_]`) by convention, so no JSON string escaping is
/// needed for them.
pub fn format_trace_event(
    seq: u64,
    ts_us: u64,
    span: &str,
    dur_us: u64,
    ids: Option<&EventIds>,
) -> String {
    let mut out =
        format!("{{\"seq\":{seq},\"ts_us\":{ts_us},\"span\":\"{span}\",\"dur_us\":{dur_us}");
    if let Some(ids) = ids {
        out.push_str(&format!(
            ",\"trace_id\":\"{}\",\"span_id\":\"{}\"",
            ids.trace_id, ids.span_id
        ));
        if let Some(parent) = ids.parent_id {
            out.push_str(&format!(",\"parent_id\":\"{parent}\""));
        }
    }
    out.push('}');
    out
}

/// Emits one JSONL event on stderr if `LEVY_TRACE` is on. `pub(crate)` so
/// [`crate::traces::TraceSpan`] shares the seq counter and format.
pub(crate) fn emit_trace_event(span: &str, dur_us: u64, ids: Option<&EventIds>) {
    if !trace_enabled() {
        return;
    }
    let ts_us = SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map(|d| d.as_micros() as u64)
        .unwrap_or(0);
    eprintln!(
        "{}",
        format_trace_event(next_seq(), ts_us, span, dur_us, ids)
    );
}

/// RAII timing guard. See the module docs.
pub struct Span {
    name: &'static str,
    start: Instant,
    histogram: Option<Histogram>,
}

impl Span {
    /// Enters a span whose duration lands in the global-registry histogram
    /// `<name>_duration_us`.
    ///
    /// Resolving the histogram takes the registry lock, so for per-item hot
    /// loops resolve once and use [`Span::with`] instead.
    pub fn enter(name: &'static str) -> Span {
        let histogram = Registry::global().histogram(
            &format!("{name}_duration_us"),
            "Wall time of the span, in microseconds.",
        );
        Span::with(&histogram, name)
    }

    /// Enters a span recording into an already-resolved histogram.
    pub fn with(histogram: &Histogram, name: &'static str) -> Span {
        Span {
            name,
            start: Instant::now(),
            histogram: Some(histogram.clone()),
        }
    }

    /// Enters a span that only emits trace events (no histogram).
    pub fn untimed(name: &'static str) -> Span {
        Span {
            name,
            start: Instant::now(),
            histogram: None,
        }
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        let dur_us = u64::try_from(self.start.elapsed().as_micros()).unwrap_or(u64::MAX);
        if let Some(histogram) = &self.histogram {
            histogram.record(dur_us);
        }
        emit_trace_event(self.name, dur_us, None);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn span_records_into_histogram() {
        let h = Histogram::new();
        {
            let _span = Span::with(&h, "test_span");
            std::thread::sleep(std::time::Duration::from_millis(2));
        }
        let snap = h.snapshot();
        assert_eq!(snap.count, 1);
        assert!(snap.sum >= 1_000, "slept 2ms, recorded {} us", snap.sum);
    }

    #[test]
    fn enter_registers_duration_histogram() {
        {
            let _span = Span::enter("levy_obs_test_span");
        }
        let text = Registry::global().encode();
        assert!(text.contains("levy_obs_test_span_duration_us_count"));
    }

    #[test]
    fn trace_override_toggles() {
        set_trace_enabled(true);
        assert!(trace_enabled());
        set_trace_enabled(false);
        assert!(!trace_enabled());
    }

    #[test]
    fn ids_are_unique_and_nonzero() {
        let mut seen = std::collections::HashSet::new();
        for _ in 0..1000 {
            let t = next_trace_id();
            let s = next_span_id();
            assert_ne!(t.0, 0);
            assert_ne!(s.0, 0);
            assert!(seen.insert(s.0), "span id repeated");
        }
    }

    #[test]
    fn traceparent_round_trips() {
        let ctx = SpanContext {
            trace_id: next_trace_id(),
            span_id: next_span_id(),
        };
        let header = ctx.to_traceparent();
        assert_eq!(SpanContext::parse_traceparent(&header), Some(ctx));
        assert_eq!(header.len(), 2 + 1 + 32 + 1 + 16 + 1 + 2);
    }

    #[test]
    fn traceparent_rejects_malformed() {
        for bad in [
            "",
            "00-abc-def-01",
            "00-00000000000000000000000000000000-0000000000000000-01",
            "zz-0123456789abcdef0123456789abcdef-0123456789abcdef-01",
            "00-0123456789abcdef0123456789abcdef-0123456789abcdef-01-extra",
            "00-0123456789abcdef0123456789abcdef-0123456789abcdeX-01",
        ] {
            assert_eq!(SpanContext::parse_traceparent(bad), None, "{bad}");
        }
    }

    #[test]
    fn formatted_events_carry_seq_and_ids() {
        let ids = EventIds {
            trace_id: TraceId(0xABCD),
            span_id: SpanId(0x12),
            parent_id: Some(SpanId(0x34)),
        };
        let line = format_trace_event(7, 99, "worker_exec", 1234, Some(&ids));
        assert!(
            line.starts_with("{\"seq\":7,\"ts_us\":99,\"span\":\"worker_exec\",\"dur_us\":1234")
        );
        assert!(line.contains(&format!("\"trace_id\":\"{}\"", TraceId(0xABCD))));
        assert!(line.contains(&format!("\"span_id\":\"{}\"", SpanId(0x12))));
        assert!(line.contains(&format!("\"parent_id\":\"{}\"", SpanId(0x34))));
        let bare = format_trace_event(8, 100, "simulate", 5, None);
        assert!(!bare.contains("trace_id"));
        assert!(bare.ends_with('}'));
    }
}

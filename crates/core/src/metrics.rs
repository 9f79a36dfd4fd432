//! Zero-cost-when-off observability for the mapping pipeline.
//!
//! A long-running mapping service is only operable if the search is
//! visible: how long each pipeline phase took, how many swaps a local
//! search evaluated versus accepted, what the simulated runtime did to
//! each link. This module provides the plumbing:
//!
//! * [`MetricsSink`] — the backend trait. One method, [`MetricsSink::record`],
//!   receives `(scope, name, kind, value)` events.
//! * [`NullSink`] — discards everything (the default).
//! * [`MemorySink`] — accumulates records in memory; the test backend.
//! * [`JsonLinesSink`] — appends one JSON object per record to a writer;
//!   the `repro --metrics <path>` backend. JSON is hand-rolled (the
//!   workspace's vendored `serde` is a marker-trait shim).
//! * [`Metrics`] — the one observation handle threaded through mappers,
//!   the pipeline and the service. Disabled (`Metrics::off`, the
//!   `Default`) it is a `None` check per call and takes no clock
//!   readings; every emission site is gated on it. It also carries the
//!   event-level [`Trace`] ([`Metrics::with_trace`], [`Metrics::trace`]),
//!   so a mapper takes one handle for both "how much" and "why".
//!
//! The overhead contract: search hot loops never call the sink directly.
//! Mappers aggregate counters in plain integers ([`crate::delta::SearchStats`])
//! and report once per `map()`/phase boundary, so the refinement inner
//! loop is identical instructions with metrics on or off (guarded by the
//! `refine_pass` bench group in `geomap-bench`).

use crate::trace::{Trace, TraceScope};
use std::fmt;
use std::io::{self, Write};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// What a recorded value means.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MetricKind {
    /// Monotonic count of events (swaps, messages, samples).
    Counter,
    /// A point-in-time measurement (a cost, a fraction).
    Gauge,
    /// A duration in seconds.
    Timing,
}

impl MetricKind {
    /// Stable lowercase label used in the JSON-lines output.
    pub fn label(self) -> &'static str {
        match self {
            MetricKind::Counter => "counter",
            MetricKind::Gauge => "gauge",
            MetricKind::Timing => "timing",
        }
    }
}

/// A metrics backend. Implementations must be cheap enough to call a few
/// times per pipeline phase (not per candidate evaluation — aggregation
/// happens in the callers).
pub trait MetricsSink: Send + Sync {
    /// Record one observation. `scope` is a `/`-joined path (experiment,
    /// app, mapper), `name` the metric within it.
    fn record(&self, scope: &str, name: &str, kind: MetricKind, value: f64);

    /// Flush any buffered output (no-op by default).
    fn flush(&self) {}
}

/// Discards every record.
#[derive(Debug, Clone, Copy, Default)]
pub struct NullSink;

impl MetricsSink for NullSink {
    fn record(&self, _scope: &str, _name: &str, _kind: MetricKind, _value: f64) {}
}

/// One observation kept by [`MemorySink`].
#[derive(Debug, Clone, PartialEq)]
pub struct MetricRecord {
    /// `/`-joined scope path the record was emitted under.
    pub scope: String,
    /// Metric name within the scope.
    pub name: String,
    /// Counter, gauge or timing.
    pub kind: MetricKind,
    /// The observed value (counters are summable).
    pub value: f64,
}

/// In-memory sink for tests and programmatic inspection.
#[derive(Debug, Default)]
pub struct MemorySink {
    records: Mutex<Vec<MetricRecord>>,
}

impl MemorySink {
    /// An empty sink.
    pub fn new() -> Self {
        Self::default()
    }

    /// All records in emission order.
    pub fn snapshot(&self) -> Vec<MetricRecord> {
        self.records.lock().expect("metrics lock").clone()
    }

    /// Sum of every record with this exact `scope` and `name` (0.0 when
    /// nothing matched).
    pub fn sum(&self, scope: &str, name: &str) -> f64 {
        self.records
            .lock()
            .expect("metrics lock")
            .iter()
            .filter(|r| r.scope == scope && r.name == name)
            .map(|r| r.value)
            .sum()
    }

    /// Sum of every record with this `name`, across all scopes.
    pub fn sum_named(&self, name: &str) -> f64 {
        self.records
            .lock()
            .expect("metrics lock")
            .iter()
            .filter(|r| r.name == name)
            .map(|r| r.value)
            .sum()
    }

    /// True when at least one record matches `scope` and `name`.
    pub fn has(&self, scope: &str, name: &str) -> bool {
        self.records
            .lock()
            .expect("metrics lock")
            .iter()
            .any(|r| r.scope == scope && r.name == name)
    }

    /// True when some record's name equals `name` and its scope ends
    /// with `scope_suffix` (mappers nest their own scope segment, so
    /// callers often know only the tail).
    pub fn has_suffixed(&self, scope_suffix: &str, name: &str) -> bool {
        self.records
            .lock()
            .expect("metrics lock")
            .iter()
            .any(|r| r.name == name && r.scope.ends_with(scope_suffix))
    }
}

impl MetricsSink for MemorySink {
    fn record(&self, scope: &str, name: &str, kind: MetricKind, value: f64) {
        self.records
            .lock()
            .expect("metrics lock")
            .push(MetricRecord {
                scope: scope.to_string(),
                name: name.to_string(),
                kind,
                value,
            });
    }
}

/// Appends one JSON object per record, newline-delimited:
/// `{"scope":"fig5/LU/MPIPP","name":"search.swaps_accepted","kind":"counter","value":42}`.
///
/// Non-finite values serialize as `null` so every line stays valid JSON.
pub struct JsonLinesSink {
    out: Mutex<Box<dyn Write + Send>>,
}

impl JsonLinesSink {
    /// Create (truncate) `path` and write records to it.
    pub fn create(path: &std::path::Path) -> io::Result<Self> {
        let file = std::fs::File::create(path)?;
        Ok(Self::from_writer(io::BufWriter::new(file)))
    }

    /// Write records to an arbitrary writer (tests pass a `Vec<u8>`).
    pub fn from_writer(w: impl Write + Send + 'static) -> Self {
        Self {
            out: Mutex::new(Box::new(w)),
        }
    }
}

impl fmt::Debug for JsonLinesSink {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("JsonLinesSink")
    }
}

/// Minimal JSON string escaping: quotes, backslashes and control bytes.
/// Shared with the trace exporter (`crate::trace`).
pub(crate) fn escape_json(s: &str, out: &mut String) {
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
}

impl MetricsSink for JsonLinesSink {
    fn record(&self, scope: &str, name: &str, kind: MetricKind, value: f64) {
        let mut line = String::with_capacity(64);
        line.push_str("{\"scope\":\"");
        escape_json(scope, &mut line);
        line.push_str("\",\"name\":\"");
        escape_json(name, &mut line);
        line.push_str("\",\"kind\":\"");
        line.push_str(kind.label());
        line.push_str("\",\"value\":");
        if value.is_finite() {
            // Rust's f64 Display never produces NaN/inf here and its
            // plain decimal form is valid JSON.
            line.push_str(&format!("{value}"));
        } else {
            line.push_str("null");
        }
        line.push('}');
        let mut out = self.out.lock().expect("metrics lock");
        let _ = writeln!(out, "{line}");
    }

    fn flush(&self) {
        let _ = self.out.lock().expect("metrics lock").flush();
    }
}

/// The handle threaded through mappers, the pipeline and the runtime.
///
/// `Metrics::off()` (the `Default`) carries no sink: every method is a
/// `None` check, [`Metrics::timed`] runs the closure without touching
/// the clock, and cloning is free. An enabled handle carries an
/// `Arc<dyn MetricsSink>` plus its scope path; [`Metrics::scoped`]
/// derives child handles (`"fig5"` → `"fig5/LU"` → `"fig5/LU/MPIPP"`).
///
/// The handle also carries a [`Trace`], off unless attached with
/// [`Metrics::with_trace`]. Records and events are independent: a
/// handle may trace with its sink off, or the other way round, and
/// [`Metrics::scoped`] keeps the attached trace either way.
#[derive(Clone, Default)]
pub struct Metrics {
    inner: Option<Arc<MetricsInner>>,
    trace: Trace,
}

struct MetricsInner {
    sink: Arc<dyn MetricsSink>,
    scope: String,
}

impl fmt::Debug for Metrics {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.inner {
            Some(inner) => write!(f, "Metrics(on, scope={:?}", inner.scope)?,
            None => f.write_str("Metrics(off")?,
        }
        if self.trace.enabled() {
            f.write_str(", traced")?;
        }
        f.write_str(")")
    }
}

impl Metrics {
    /// The disabled handle (same as `Default`).
    pub fn off() -> Self {
        Self::default()
    }

    /// An enabled handle with an empty scope.
    pub fn new(sink: Arc<dyn MetricsSink>) -> Self {
        Self {
            inner: Some(Arc::new(MetricsInner {
                sink,
                scope: String::new(),
            })),
            trace: Trace::off(),
        }
    }

    /// This handle with `trace` attached; events of every layer the
    /// handle reaches go there.
    pub fn with_trace(self, trace: Trace) -> Self {
        Self { trace, ..self }
    }

    /// The attached trace ([`Trace::off`] unless one was attached).
    #[inline]
    pub fn trace(&self) -> &Trace {
        &self.trace
    }

    /// A scope on a new `process`/`name` track of the attached trace.
    /// With tracing off this allocates nothing and records nothing.
    pub fn track(&self, process: &str, name: &str) -> TraceScope<'_> {
        TraceScope::new(&self.trace, self.trace.track(process, name))
    }

    /// Whether records go anywhere. Gate any non-trivial preparation
    /// (formatting, aggregation walks) on this.
    #[inline]
    pub fn enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// A child handle whose scope is `self`'s with `/segment` appended
    /// and the same trace. Disabled handles stay disabled for free.
    pub fn scoped(&self, segment: &str) -> Metrics {
        let Some(inner) = &self.inner else {
            return self.clone();
        };
        let scope = if inner.scope.is_empty() {
            segment.to_string()
        } else {
            format!("{}/{segment}", inner.scope)
        };
        Metrics {
            inner: Some(Arc::new(MetricsInner {
                sink: Arc::clone(&inner.sink),
                scope,
            })),
            trace: self.trace.clone(),
        }
    }

    /// The current scope path (empty when disabled or unscoped).
    pub fn scope(&self) -> &str {
        self.inner.as_ref().map_or("", |i| i.scope.as_str())
    }

    /// Record a counter increment.
    #[inline]
    pub fn counter(&self, name: &str, value: u64) {
        if let Some(inner) = &self.inner {
            inner
                .sink
                .record(&inner.scope, name, MetricKind::Counter, value as f64);
        }
    }

    /// Record a gauge observation.
    #[inline]
    pub fn gauge(&self, name: &str, value: f64) {
        if let Some(inner) = &self.inner {
            inner
                .sink
                .record(&inner.scope, name, MetricKind::Gauge, value);
        }
    }

    /// Record a duration in seconds.
    #[inline]
    pub fn timing(&self, name: &str, seconds: f64) {
        if let Some(inner) = &self.inner {
            inner
                .sink
                .record(&inner.scope, name, MetricKind::Timing, seconds);
        }
    }

    /// Run `f`, recording its wall-clock duration as `name` when
    /// enabled; when disabled the clock is never read.
    #[inline]
    pub fn timed<T>(&self, name: &str, f: impl FnOnce() -> T) -> T {
        match &self.inner {
            None => f(),
            Some(inner) => {
                let start = Instant::now();
                let out = f();
                inner.sink.record(
                    &inner.scope,
                    name,
                    MetricKind::Timing,
                    start.elapsed().as_secs_f64(),
                );
                out
            }
        }
    }

    /// Run `f` as one pipeline phase: a `span` on `scope`'s track and
    /// a `name` timing, both bracketing the same closure. With both off
    /// it runs `f` behind `None` checks alone.
    #[inline]
    pub fn phase<T>(
        &self,
        scope: TraceScope<'_>,
        span: &'static str,
        name: &str,
        f: impl FnOnce() -> T,
    ) -> T {
        scope.span_begin(span);
        let out = self.timed(name, f);
        scope.span_end(span);
        out
    }

    /// Flush the underlying sink and the attached trace.
    pub fn flush(&self) {
        if let Some(inner) = &self.inner {
            inner.sink.flush();
        }
        self.trace.flush();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn off_handle_is_inert_and_cheap() {
        let m = Metrics::off();
        assert!(!m.enabled());
        m.counter("c", 1);
        m.gauge("g", 2.0);
        m.timing("t", 3.0);
        assert_eq!(m.timed("t", || 7), 7);
        assert!(!m.scoped("child").enabled());
        assert_eq!(m.scope(), "");
        assert_eq!(format!("{m:?}"), "Metrics(off)");
    }

    #[test]
    fn memory_sink_accumulates_with_scopes() {
        let sink = Arc::new(MemorySink::new());
        let m = Metrics::new(sink.clone());
        let child = m.scoped("fig5").scoped("LU");
        assert_eq!(child.scope(), "fig5/LU");
        child.counter("swaps", 3);
        child.counter("swaps", 4);
        child.gauge("cost", 1.5);
        m.timing("total", 0.25);
        assert_eq!(sink.sum("fig5/LU", "swaps"), 7.0);
        assert_eq!(sink.sum("fig5/LU", "cost"), 1.5);
        assert!(sink.has("", "total"));
        assert!(sink.has_suffixed("LU", "swaps"));
        assert!(!sink.has("fig5", "swaps"));
        assert_eq!(sink.sum_named("swaps"), 7.0);
        let snap = sink.snapshot();
        assert_eq!(snap.len(), 4);
        assert_eq!(snap[0].kind, MetricKind::Counter);
        assert_eq!(snap[3].kind, MetricKind::Timing);
    }

    #[test]
    fn trace_rides_along_scopes_and_phases() {
        use crate::trace::{RingBufferSink, TraceEventKind};
        let ring = Arc::new(RingBufferSink::new(16));
        let traced = Metrics::off().with_trace(Trace::new(ring.clone()));
        let child = traced.scoped("a");
        assert!(!child.enabled() && child.trace().enabled());
        assert_eq!(format!("{child:?}"), "Metrics(off, traced)");

        let sink = Arc::new(MemorySink::new());
        let both = Metrics::new(sink.clone())
            .with_trace(traced.trace().clone())
            .scoped("geo");
        let scope = both.track("search", "geo");
        assert_eq!(both.phase(scope, "grouping", "phase.grouping", || 3), 3);
        assert!(sink.has("geo", "phase.grouping"));
        let events: Vec<_> = ring.snapshot().iter().map(|e| (e.name, e.kind)).collect();
        assert_eq!(
            events,
            [
                ("grouping", TraceEventKind::SpanBegin),
                ("grouping", TraceEventKind::SpanEnd)
            ]
        );
    }

    #[test]
    fn timed_records_a_timing() {
        let sink = Arc::new(MemorySink::new());
        let m = Metrics::new(sink.clone());
        let out = m.timed("phase", || 42);
        assert_eq!(out, 42);
        let snap = sink.snapshot();
        assert_eq!(snap.len(), 1);
        assert_eq!(snap[0].kind, MetricKind::Timing);
        assert!(snap[0].value >= 0.0);
    }

    #[test]
    fn jsonl_sink_emits_one_valid_object_per_line() {
        use std::sync::Mutex as StdMutex;
        // Shared buffer we can inspect after the sink wrote to it.
        #[derive(Clone)]
        struct Shared(Arc<StdMutex<Vec<u8>>>);
        impl Write for Shared {
            fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
                self.0.lock().unwrap().extend_from_slice(buf);
                Ok(buf.len())
            }
            fn flush(&mut self) -> io::Result<()> {
                Ok(())
            }
        }
        let buf = Shared(Arc::new(StdMutex::new(Vec::new())));
        let sink = JsonLinesSink::from_writer(buf.clone());
        sink.record("fig5/LU", "search.swaps", MetricKind::Counter, 42.0);
        sink.record("a\"b\\c", "nan_gauge", MetricKind::Gauge, f64::NAN);
        sink.record("", "t", MetricKind::Timing, 0.125);
        sink.flush();
        let text = String::from_utf8(buf.0.lock().unwrap().clone()).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 3);
        assert_eq!(
            lines[0],
            "{\"scope\":\"fig5/LU\",\"name\":\"search.swaps\",\"kind\":\"counter\",\"value\":42}"
        );
        // Escaping keeps the quote and backslash inside a JSON string.
        assert!(lines[1].contains("a\\\"b\\\\c"), "{}", lines[1]);
        // Non-finite values become null, not bare NaN.
        assert!(lines[1].ends_with("\"value\":null}"), "{}", lines[1]);
        assert!(lines[2].contains("\"kind\":\"timing\""));
        for l in &lines {
            assert!(l.starts_with('{') && l.ends_with('}'), "not an object: {l}");
            // Balanced quotes (escaped ones excluded) — a cheap stand-in
            // for a JSON parser in this dependency-free workspace.
            let unescaped_quotes = l
                .as_bytes()
                .iter()
                .enumerate()
                .filter(|&(i, &b)| b == b'"' && (i == 0 || l.as_bytes()[i - 1] != b'\\'))
                .count();
            assert_eq!(unescaped_quotes % 2, 0, "unbalanced quotes: {l}");
        }
    }
}

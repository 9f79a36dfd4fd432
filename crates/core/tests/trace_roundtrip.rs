//! Round-trip contract of the trace layer: events recorded through a
//! [`Trace`] handle into a [`RingBufferSink`] export as Chrome
//! trace-event JSON that parses back with per-track monotonically
//! non-decreasing timestamps — the shape Perfetto and `chrome://tracing`
//! require — and instrumentation never changes algorithm results.

use geomap_core::{
    GeoMapper, Mapper, MappingProblem, MemorySink, Metrics, MultilevelConfig, MultilevelMapper,
    RingBufferSink, Trace, TraceEventKind,
};
use std::sync::Arc;

/// A tiny hand-rolled reader for the subset of JSON the exporter emits:
/// one object per line between `[` and `]`, string values without
/// escapes beyond `\"`, and plain decimal numbers.
#[derive(Debug, PartialEq)]
struct ParsedEvent {
    ph: String,
    pid: u64,
    tid: u64,
    ts: Option<f64>,
    name: String,
}

fn field<'a>(line: &'a str, key: &str) -> Option<&'a str> {
    let tag = format!("\"{key}\":");
    let start = line.find(&tag)? + tag.len();
    let rest = &line[start..];
    if let Some(stripped) = rest.strip_prefix('"') {
        stripped.split('"').next()
    } else {
        rest.split([',', '}']).next().map(str::trim)
    }
}

fn parse_chrome_json(json: &str) -> Vec<ParsedEvent> {
    let body = json
        .trim()
        .strip_prefix('[')
        .expect("opens as an array")
        .strip_suffix(']')
        .expect("closes as an array");
    body.lines()
        .map(str::trim)
        .filter(|l| l.starts_with('{'))
        .map(|line| ParsedEvent {
            ph: field(line, "ph").expect("ph").to_string(),
            pid: field(line, "pid").expect("pid").parse().expect("pid int"),
            tid: field(line, "tid").expect("tid").parse().expect("tid int"),
            ts: field(line, "ts").map(|v| v.parse().expect("ts number")),
            name: field(line, "name").expect("name").to_string(),
        })
        .collect()
}

#[test]
fn ring_to_json_to_parse_back_is_lossless_and_monotonic() {
    let sink = Arc::new(RingBufferSink::new(1024));
    let trace = Trace::new(sink.clone());
    let a = trace.track("procA", "track one");
    let b = trace.track("procB", "track two");
    // Deliberately record out of timestamp order across tracks.
    trace.span_begin(a, "work", 0.5);
    trace.instant(b, "tick", 0.1);
    trace.counter(b, "depth", 0.2, 3.0);
    trace.span_end(a, "work", 0.9);
    trace.instant(a, "done", 0.9);

    let json = sink.to_chrome_json();
    let events = parse_chrome_json(&json);
    // 4 metadata records (2 tracks × process_name/thread_name) + 5 events.
    assert_eq!(events.len(), 9, "{json}");

    let meta: Vec<&ParsedEvent> = events.iter().filter(|e| e.ph == "M").collect();
    assert_eq!(meta.len(), 4);
    assert!(meta.iter().any(|e| e.name == "process_name" && e.pid == 1));
    assert!(meta
        .iter()
        .any(|e| e.name == "thread_name" && e.tid == b.0 as u64));

    // Every non-metadata event parses back with the µs timestamp, and
    // per-(pid,tid) timestamps are monotonically non-decreasing.
    let data: Vec<&ParsedEvent> = events.iter().filter(|e| e.ph != "M").collect();
    assert_eq!(data.len(), 5);
    let mut last: std::collections::HashMap<(u64, u64), f64> = Default::default();
    for e in &data {
        let ts = e.ts.expect("data events carry ts");
        let prev = last.entry((e.pid, e.tid)).or_insert(f64::NEG_INFINITY);
        assert!(
            ts >= *prev,
            "track ({},{}) went backwards: {ts} < {prev}",
            e.pid,
            e.tid
        );
        *prev = ts;
    }
    // Spot-check the µs conversion and counter naming.
    assert!(data.iter().any(|e| e.ph == "B" && e.ts == Some(500000.0)));
    assert!(
        data.iter()
            .any(|e| e.ph == "C" && e.name == "track two depth"),
        "counter name not track-prefixed: {json}"
    );
}

#[test]
fn capacity_bound_holds_and_drops_are_counted() {
    let sink = Arc::new(RingBufferSink::new(8));
    let trace = Trace::new(sink.clone());
    let t = trace.track("p", "t");
    for i in 0..50 {
        trace.instant(t, "e", i as f64);
    }
    let kept = sink.snapshot();
    assert_eq!(kept.len(), 8, "ring exceeded its capacity");
    assert_eq!(sink.dropped(), 42);
    // The survivors are the most recent events.
    assert!(kept.iter().all(|e| e.ts >= 42.0));
    assert!(kept.iter().all(|e| e.kind == TraceEventKind::Instant));
}

/// The four settings of the one observation handle — off, metrics
/// only, trace only, both — each with the ring it traces into.
fn handle_settings() -> Vec<(&'static str, Metrics, Option<Arc<RingBufferSink>>)> {
    let ring = || Arc::new(RingBufferSink::new(1 << 16));
    let sink = || Metrics::new(Arc::new(MemorySink::new()));
    let (traced, both) = (ring(), ring());
    vec![
        ("off", Metrics::off(), None),
        ("metrics", sink(), None),
        (
            "trace",
            Metrics::off().with_trace(Trace::new(traced.clone())),
            Some(traced),
        ),
        (
            "both",
            sink().with_trace(Trace::new(both.clone())),
            Some(both),
        ),
    ]
}

/// Every span opened on a track closes on it, in nesting order.
fn assert_balanced(ring: &RingBufferSink, label: &str) {
    assert_eq!(ring.dropped(), 0, "{label}: the ring overflowed");
    let events = ring.snapshot();
    for t in ring.tracks() {
        let mut depth = 0i64;
        for e in events.iter().filter(|e| e.track == t.id) {
            match e.kind {
                TraceEventKind::SpanBegin => depth += 1,
                TraceEventKind::SpanEnd => depth -= 1,
                _ => {}
            }
            assert!(depth >= 0, "{label}: E before B on {}", t.name);
        }
        assert_eq!(depth, 0, "{label}: unclosed span on {}", t.name);
    }
}

#[test]
fn tracing_is_bit_identical_at_the_mapper_level() {
    use commgraph::apps::AppKind;
    use geonet::{presets, InstanceType};
    let net = presets::paper_ec2_network(8, InstanceType::M4Xlarge, 2);
    let problem = MappingProblem::unconstrained(AppKind::KMeans.workload(32).pattern(), net);

    // The core mappers: the direct solver and multilevel around it,
    // coarsening for real (cutoff below N). The baselines crate runs
    // the same matrix over every algorithm of its factory.
    let build = |name: &str, metrics: Metrics| -> Box<dyn Mapper> {
        let geo = GeoMapper {
            seed: 7,
            metrics: metrics.clone(),
            ..GeoMapper::default()
        };
        match name {
            "geo" => Box::new(geo),
            _ => Box::new(MultilevelMapper {
                config: MultilevelConfig {
                    coarsen_cutoff: 8,
                    ..MultilevelConfig::default()
                },
                inner: geo,
                metrics,
            }),
        }
    };
    for name in ["geo", "multilevel"] {
        let reference = build(name, Metrics::off()).map(&problem);
        for (setting, metrics, ring) in handle_settings() {
            let label = format!("{name} with {setting}");
            assert_eq!(
                build(name, metrics).map(&problem),
                reference,
                "{label}: instrumentation changed the mapping"
            );
            let Some(ring) = ring else { continue };
            assert!(!ring.snapshot().is_empty(), "{label}: recorded nothing");
            assert_balanced(&ring, &label);
            // The exported JSON is already sorted, so a second export
            // round-trip stays monotonic per track too.
            let events = parse_chrome_json(&ring.to_chrome_json());
            assert!(events.iter().any(|e| e.ph == "B"), "{label}");
            assert!(events.iter().any(|e| e.ph == "E"), "{label}");
        }
    }
}

//! Golden wire fixtures: the exact bytes both protocols put on the
//! wire for a fixed corpus, checked into `tests/fixtures/`.
//!
//! The frame layout (magic, version, kind, correlation id, length
//! prefix, payload tags, field order) is a compatibility contract with
//! every deployed peer: an accidental reordering or width change would
//! pass the roundtrip suites — encoder and decoder drift together — but
//! break the wire. These tests catch exactly that drift: any change to
//! the serialized bytes shows up as a readable hex diff against the
//! checked-in fixture.
//!
//! Intentional format changes regenerate the fixtures with
//! `UPDATE_GOLDEN=1 cargo test -p geomap-service --test wire_golden`
//! — the diff then documents the change in review.

use geomap_service::frame;
use geomap_service::hist::{Histogram, SCHEMA_VERSION};
use geomap_service::proto::{
    CacheTier, CalibSpec, ErrorCode, ErrorResponse, HistSummary, JournalResponse, MapRequest,
    MapResponse, MultilevelSpec, RemapDiffResponse, RemapRequest, Request, Response, StatsDetail,
    StatsResponse, TraceContext, TraceDumpResponse, WireTraceEvent, WireTrack,
};
use std::fmt::Write as _;
use std::path::PathBuf;

/// The pinned corpus: fixed values only — every byte these produce is
/// part of the golden contract.
fn request_corpus() -> Vec<(&'static str, u64, Request)> {
    let mut full = MapRequest::new("golden-é", "src,dst,bytes,msgs\n0,1,5,2\n1,0,7,3\n");
    full.ranks = Some(2);
    full.constraints_csv = Some("process,site\n0,1\n".into());
    full.algorithm = "montecarlo".into();
    full.seed = 424242;
    full.kappa = 9;
    full.samples = 1500;
    full.calibration = CalibSpec {
        days: 3,
        probes_per_day: 24,
        noise_cv: 0.25,
        loss_rate: 0.125,
        seed: 7,
    };
    full.deadline_ms = Some(2_000);
    full.reserve = true;
    full.lease_ttl_ms = Some(60_000);
    full.use_result_cache = false;
    full.idempotency_key = Some("key-\"q\"-\\s".into());

    vec![
        (
            "map minimal",
            1,
            Request::Map(MapRequest::new("bare", "src,dst,bytes,msgs\n0,1,1,1\n")),
        ),
        ("map full", 2, Request::Map(full)),
        (
            "release",
            3,
            Request::Release {
                id: "rel".into(),
                lease: 12345,
            },
        ),
        (
            "stats",
            4,
            Request::Stats {
                id: "st".into(),
                detail: false,
            },
        ),
        ("shutdown", 5, Request::Shutdown { id: "bye".into() }),
        // PR 8 extensions — appended so every pre-existing block above
        // keeps its exact bytes (trace-free and detail-free encodings
        // must stay bit-identical to the PR 7 fixtures).
        (
            "map traced",
            6,
            Request::Map(MapRequest {
                trace: Some(TraceContext {
                    trace_id: 0x000F_EED5_C0FF_EE42,
                    parent_span: 77,
                    sampled: true,
                }),
                ..MapRequest::new("traced", "src,dst,bytes,msgs\n0,1,1,1\n")
            }),
        ),
        (
            "stats detail",
            7,
            Request::Stats {
                id: "st-d".into(),
                detail: true,
            },
        ),
        ("trace dump", 8, Request::TraceDump { id: "td".into() }),
        // Journal, remap and multilevel layouts — appended so every
        // block above keeps its exact bytes.
        (
            "journal",
            9,
            Request::Journal {
                id: "jr".into(),
                key: "client-7/42".into(),
            },
        ),
        (
            "remap minimal",
            10,
            Request::Remap(RemapRequest::new(
                "rm-bare",
                "src,dst,bytes,msgs\n0,1,1,1\n",
                vec![0, 1],
            )),
        ),
        (
            "remap budget lease",
            11,
            Request::Remap(RemapRequest {
                constraints_csv: Some("process,site\n0,0\n".into()),
                budget: Some(3),
                alpha: 0.125,
                calibration: CalibSpec {
                    days: 2,
                    probes_per_day: 5,
                    noise_cv: 0.5,
                    loss_rate: 0.25,
                    seed: 9,
                },
                lease: Some(77),
                ..RemapRequest::new("rm-full", "src,dst,bytes,msgs\n0,1,5,2\n", vec![1, 0, 1, 0])
            }),
        ),
        (
            "map multilevel",
            12,
            Request::Map(MapRequest {
                algorithm: "multilevel".into(),
                multilevel: Some(MultilevelSpec {
                    coarsen_cutoff: 64,
                    match_rounds: 3,
                    refine_passes: 1,
                }),
                ..MapRequest::new("ml", "src,dst,bytes,msgs\n0,1,1,1\n")
            }),
        ),
        (
            "map traced multilevel",
            13,
            Request::Map(MapRequest {
                algorithm: "multilevel".into(),
                trace: Some(TraceContext {
                    trace_id: 42,
                    parent_span: 0,
                    sampled: false,
                }),
                multilevel: Some(MultilevelSpec::default()),
                ..MapRequest::new("ml-traced", "src,dst,bytes,msgs\n0,1,1,1\n")
            }),
        ),
    ]
}

/// A deterministic histogram summary for the detail-stats golden: three
/// fixed samples through the real bucketing code.
fn golden_hist() -> HistSummary {
    let mut h = Histogram::default();
    h.record(10); // exact bucket
    h.record(1_000); // log-linear region
    h.record(250_000);
    HistSummary::from_histogram("map_e2e", &h)
}

fn response_corpus() -> Vec<(&'static str, u64, Response)> {
    vec![
        (
            "map",
            1,
            Response::Map(MapResponse {
                id: "golden-é".into(),
                mapping: vec![0, 3, 1, 2],
                cost: 1234.5625, // exactly representable: stable bits
                cached: CacheTier::Result,
                queue_wait_s: 0.5,
                solve_s: 0.25,
                lease: Some(7),
                site_counts: vec![1, 1, 1, 1],
                free_nodes: vec![3, 3, 3, 3],
                degraded: true,
                staleness: 2,
            }),
        ),
        (
            "release",
            2,
            Response::Release {
                id: "rel".into(),
                freed: vec![4, 0, 0, 0],
                free_nodes: vec![4, 4, 4, 4],
            },
        ),
        (
            "stats",
            3,
            Response::Stats(StatsResponse {
                id: "st".into(),
                served: 100,
                result_hits: 40,
                problem_hits: 20,
                misses: 40,
                rejected: 5,
                replays: 3,
                free_nodes: vec![16],
                active_leases: 2,
                detail: None,
            }),
        ),
        (
            "shutdown",
            4,
            Response::Shutdown {
                id: "bye".into(),
                draining: 6,
            },
        ),
        (
            "error",
            5,
            Response::Error(ErrorResponse {
                id: "err".into(),
                code: ErrorCode::OverCapacity,
                message: "admission queue full (8 waiting); retry later".into(),
            }),
        ),
        // PR 8 extensions — appended; blocks above stay byte-stable.
        (
            "stats detail",
            6,
            Response::Stats(StatsResponse {
                id: "st-d".into(),
                served: 100,
                result_hits: 40,
                problem_hits: 20,
                misses: 40,
                rejected: 5,
                replays: 3,
                free_nodes: vec![16],
                active_leases: 2,
                detail: Some(StatsDetail {
                    hist_schema: SCHEMA_VERSION,
                    queue_depth: 1,
                    max_queue_depth: 4,
                    leased_nodes: vec![2],
                    hists: vec![golden_hist()],
                    shards: 1,
                }),
            }),
        ),
        (
            "trace dump",
            7,
            Response::TraceDump(TraceDumpResponse {
                id: "td".into(),
                now_s: 1.5,
                dropped: 1,
                tracks: vec![WireTrack {
                    track: 0,
                    process: "service".into(),
                    name: "worker-0".into(),
                }],
                events: vec![
                    WireTraceEvent {
                        track: 0,
                        name: "request".into(),
                        kind: WireTraceEvent::SPAN_BEGIN,
                        ts_s: 0.25,
                        value: 0.0,
                    },
                    WireTraceEvent {
                        track: 0,
                        name: "trace".into(),
                        kind: WireTraceEvent::COUNTER,
                        ts_s: 0.25,
                        value: 4503599627370495.0, // 2^52 - 1: f64-exact
                    },
                    WireTraceEvent {
                        track: 0,
                        name: "request".into(),
                        kind: WireTraceEvent::SPAN_END,
                        ts_s: 0.5,
                        value: 0.0,
                    },
                ],
            }),
        ),
        // Journal and remap layouts — appended; blocks above stay
        // byte-stable.
        (
            "journal",
            8,
            Response::Journal(JournalResponse {
                id: "jr".into(),
                key: "client-7/42".into(),
                held: true,
                lease: Some(12),
                site_counts: vec![2, 0, 1],
            }),
        ),
        (
            "remap",
            9,
            Response::RemapDiff(RemapDiffResponse {
                id: "rm-full".into(),
                mapping: vec![1, 1, 0, 0],
                moved: vec![1, 2],
                old_cost: 9.5,
                new_cost: 7.25,
                migrations: 2,
                lease: Some(77),
                free_nodes: vec![2, 2],
            }),
        ),
    ]
}

/// Render one wire message as a labelled hex block: 16 bytes per line,
/// with an ASCII gutter, so a fixture diff reads like a debugger dump.
fn hex_block(out: &mut String, label: &str, bytes: &[u8]) {
    writeln!(out, "== {label} ({} bytes)", bytes.len()).unwrap();
    for row in bytes.chunks(16) {
        let hex: Vec<String> = row.iter().map(|b| format!("{b:02x}")).collect();
        let ascii: String = row
            .iter()
            .map(|&b| {
                if (0x20..0x7f).contains(&b) {
                    b as char
                } else {
                    '.'
                }
            })
            .collect();
        writeln!(out, "{:<48} |{ascii}|", hex.join(" ")).unwrap();
    }
    out.push('\n');
}

fn render_v2() -> String {
    let mut out = String::from(
        "# Golden v2 binary frames. Regenerate with UPDATE_GOLDEN=1 (see wire_golden.rs).\n\n",
    );
    for (label, corr, request) in request_corpus() {
        hex_block(
            &mut out,
            &format!("request: {label}"),
            &frame::encode_request(&request, corr),
        );
    }
    for (label, corr, response) in response_corpus() {
        hex_block(
            &mut out,
            &format!("response: {label}"),
            &frame::encode_response(&response, corr),
        );
    }
    out
}

fn render_v1() -> String {
    let mut out = String::from(
        "# Golden v1 JSON lines. Regenerate with UPDATE_GOLDEN=1 (see wire_golden.rs).\n\n",
    );
    for (label, _, request) in request_corpus() {
        writeln!(out, "== request: {label}\n{}", request.to_line()).unwrap();
    }
    for (label, _, response) in response_corpus() {
        writeln!(out, "== response: {label}\n{}", response.to_line()).unwrap();
    }
    out
}

fn fixture_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name)
}

fn check_golden(name: &str, rendered: String) {
    let path = fixture_path(name);
    if std::env::var("UPDATE_GOLDEN").is_ok() {
        std::fs::create_dir_all(path.parent().unwrap()).expect("fixtures dir");
        std::fs::write(&path, &rendered).expect("write fixture");
        return;
    }
    let golden = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden fixture {} ({e}); generate it with \
             UPDATE_GOLDEN=1 cargo test -p geomap-service --test wire_golden",
            path.display()
        )
    });
    assert_eq!(
        rendered,
        golden,
        "wire bytes drifted from {}. If the format change is intentional, \
         regenerate with UPDATE_GOLDEN=1 and include the fixture diff in review.",
        path.display()
    );
}

#[test]
fn v2_frames_match_the_golden_fixture() {
    check_golden("frames_v2.hex", render_v2());
}

#[test]
fn v1_lines_match_the_golden_fixture() {
    check_golden("lines_v1.txt", render_v1());
}

/// The golden corpus must itself decode — a fixture pinning bytes no
/// decoder accepts would freeze a bug, not a contract.
#[test]
fn golden_corpus_decodes_through_both_protocols() {
    for (label, corr, request) in request_corpus() {
        let wire = frame::encode_request(&request, corr);
        let (f, _) = frame::Frame::decode(&wire).expect(label);
        assert_eq!(f.corr_id, corr, "{label}");
        assert_eq!(
            frame::decode_request_payload(&f.payload).expect(label),
            request,
            "{label}"
        );
        assert_eq!(
            Request::from_line(&request.to_line()).expect(label),
            request
        );
    }
    for (label, corr, response) in response_corpus() {
        let wire = frame::encode_response(&response, corr);
        let (got_corr, decoded) =
            geomap_service::wire::WireFormat::decode_response(&wire).expect(label);
        assert_eq!(got_corr, corr, "{label}");
        assert_eq!(decoded, response, "{label}");
        assert_eq!(
            Response::from_line(&response.to_line()).expect(label),
            response
        );
    }
}

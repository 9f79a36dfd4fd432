//! One parse per problem: the daemon's two request memos map a request
//! (or, for new solver fields, its problem text) straight to its cache
//! keys, and the problem key hashes the parsed edges, so formatting
//! differences still meet in the problem tier. Counted with
//! [`MappingService::parses`].

use commgraph::apps::AppKind;
use geomap_service::proto::{CacheTier, CalibSpec, ErrorCode, Response};
use geomap_service::{MapRequest, MappingService, RemapRequest, Request, ServiceConfig};
use geonet::{presets, InstanceType};

/// The paper's four EC2 regions with 64 nodes each: every pattern
/// below fits one region.
fn service() -> MappingService {
    MappingService::new(
        presets::paper_ec2_network(64, InstanceType::M4Xlarge, 1),
        ServiceConfig::default(),
    )
}

fn map(svc: &MappingService, req: MapRequest) -> (CacheTier, Vec<usize>) {
    match svc.handle(&Request::Map(req)) {
        Response::Map(r) => (r.cached, r.mapping),
        other => panic!("expected a map response, got {other:?}"),
    }
}

fn request(csv: &str, ranks: usize, seed: u64, calib_seed: u64) -> MapRequest {
    MapRequest {
        ranks: Some(ranks),
        seed,
        calibration: CalibSpec {
            seed: calib_seed,
            ..CalibSpec::default()
        },
        ..MapRequest::new(format!("m{seed}.{calib_seed}"), csv)
    }
}

/// Twelve LU/SP/BT/K-means/DNN patterns of 16–64 ranks, each under 4
/// solver seeds × 2 calibration seeds: 96 distinct requests over 24
/// distinct problems. Each problem text is parsed once; the repeat of
/// the whole set is all result hits and parses nothing.
#[test]
fn a_fresh_daemon_parses_each_problem_once() {
    const PATTERNS: [(AppKind, usize); 12] = [
        (AppKind::Lu, 16),
        (AppKind::Sp, 16),
        (AppKind::Bt, 16),
        (AppKind::KMeans, 16),
        (AppKind::Dnn, 16),
        (AppKind::Lu, 36),
        (AppKind::KMeans, 36),
        (AppKind::Lu, 64),
        (AppKind::Sp, 64),
        (AppKind::Bt, 64),
        (AppKind::KMeans, 64),
        (AppKind::Dnn, 64),
    ];
    let svc = service();
    let csvs: Vec<String> = PATTERNS
        .iter()
        .map(|(app, n)| app.workload(*n).pattern().to_csv())
        .collect();
    let requests: Vec<MapRequest> = PATTERNS
        .iter()
        .zip(&csvs)
        .flat_map(|(&(_, n), csv)| (0..8u64).map(move |v| request(csv, n, 10 + v % 4, 20 + v / 4)))
        .collect();
    assert_eq!(requests.len(), 96);
    let tiers: Vec<CacheTier> = requests.iter().map(|r| map(&svc, r.clone()).0).collect();
    assert_eq!(tiers.iter().filter(|&&t| t == CacheTier::Miss).count(), 24);
    assert_eq!(
        tiers.iter().filter(|&&t| t == CacheTier::Problem).count(),
        72
    );
    assert_eq!(svc.parses(), 24);
    for r in &requests {
        assert_eq!(map(&svc, r.clone()).0, CacheTier::Result);
    }
    assert_eq!(svc.parses(), 24);
}

/// A remap of a problem the daemon mapped checks its pins against the
/// held problem and parses nothing; it lands in the problem tier.
#[test]
fn a_remap_of_a_held_problem_parses_nothing() {
    let svc = service();
    let csv = AppKind::Sp.workload(16).pattern().to_csv();
    let mut req = request(&csv, 16, 7, 3);
    req.constraints_csv = Some("process,site\n0,2\n".into());
    let (_, mapping) = map(&svc, req.clone());
    let stats = |svc: &MappingService| match svc.handle(&Request::Stats {
        id: "s".into(),
        detail: false,
    }) {
        Response::Stats(s) => (s.problem_hits, s.misses),
        other => panic!("expected stats, got {other:?}"),
    };
    assert_eq!((svc.parses(), stats(&svc)), (1, (0, 1)));

    let remap = RemapRequest {
        constraints_csv: req.constraints_csv.clone(),
        calibration: req.calibration.clone(),
        budget: Some(2),
        ..RemapRequest::new("r", csv.as_str(), mapping.clone())
    };
    match svc.handle(&Request::Remap(remap.clone())) {
        Response::RemapDiff(d) => assert!(d.new_cost <= d.old_cost),
        other => panic!("expected a remap diff, got {other:?}"),
    }
    assert_eq!((svc.parses(), stats(&svc)), (1, (1, 1)));

    // The pin check still runs against the held problem.
    let mut moved = mapping;
    moved[0] = (moved[0] + 1) % 4;
    match svc.handle(&Request::Remap(RemapRequest {
        mapping: moved,
        ..remap
    })) {
        Response::Error(e) => {
            assert_eq!(e.code, ErrorCode::BadRequest);
            assert_eq!(e.message, "starting mapping violates its pin constraints");
        }
        other => panic!("expected bad_request, got {other:?}"),
    }
    assert_eq!(svc.parses(), 1);
}

/// Pattern text that parses to the same problem reaches the same
/// problem-cache entry: extra whitespace and blank lines, reordered
/// rows, and a repeated `src,dst` row split in two. Each new text is
/// parsed once, then hits the problem tier under a new solver seed.
#[test]
fn reformatted_pattern_csv_hits_the_problem_tier() {
    let svc = service();
    let csv = AppKind::Lu.workload(16).pattern().to_csv();
    assert_eq!(map(&svc, request(&csv, 16, 1, 5)).0, CacheTier::Miss);

    let (header, rows) = csv.split_once('\n').unwrap();
    let rows: Vec<&str> = rows.lines().collect();
    let spaced = format!(
        "{header}\n\n{}\n",
        rows.iter()
            .map(|r| format!("  {} ", r.replace(',', " , ")))
            .collect::<Vec<_>>()
            .join("\n")
    );
    let reordered = format!(
        "{header}\n{}\n",
        rows.iter().rev().copied().collect::<Vec<_>>().join("\n")
    );
    // Split the first row into two rows whose bytes and messages sum
    // back exactly.
    let f: Vec<&str> = rows[0].split(',').collect();
    let (bytes, msgs): (u64, u64) = (f[2].parse().unwrap(), f[3].parse().unwrap());
    assert!(msgs >= 2, "the first LU row carries several messages");
    let split = format!(
        "{header}\n{},{},{},{}\n{},{},{},{}\n{}\n",
        f[0],
        f[1],
        bytes / 2,
        msgs / 2,
        f[0],
        f[1],
        bytes - bytes / 2,
        msgs - msgs / 2,
        rows[1..].join("\n")
    );
    for (k, text) in [spaced, reordered, split].iter().enumerate() {
        assert_ne!(text, &csv);
        let seed = 2 + k as u64;
        assert_eq!(
            map(&svc, request(text, 16, seed, 5)).0,
            CacheTier::Problem,
            "variant {k}"
        );
        assert_eq!(svc.parses(), 2 + k as u64);
    }
}

/// A malformed pattern is rejected with its parse error every time it
/// arrives: failed parses are never memoized.
#[test]
fn malformed_csv_is_rejected_with_its_message() {
    let svc = service();
    let bad = request("src,dst,bytes,msgs\n0,1,100\n", 16, 1, 5);
    for round in 1..=2u64 {
        match svc.handle(&Request::Map(bad.clone())) {
            Response::Error(e) => {
                assert_eq!(e.code, ErrorCode::BadRequest);
                assert_eq!(
                    e.message,
                    "bad pattern CSV: line 2: expected 4 fields, got 3"
                );
            }
            other => panic!("expected bad_request, got {other:?}"),
        }
        assert_eq!(svc.parses(), round);
    }
}

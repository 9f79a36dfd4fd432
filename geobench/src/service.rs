//! The two daemon workloads: `service_mix` (in-process, through the v2
//! codec round trip, reserving and releasing) and `service_wire` (the
//! same stream through `MappingServer` on loopback).
//!
//! One pass has three phases, each on its own timer:
//!
//! * the stream: a fresh daemon answers the whole request stream
//!   (`rps`, `lat_p50_us`, `cost`);
//! * the solves: the 96 requests that solve (24 misses, 72 problem hits)
//!   sent to fresh daemons, round after round, until the phase has
//!   taken [`MIN_SAMPLE_S`] (`map_s` is the fastest round's client-timed
//!   wall time);
//! * the remaps: rounds of one remap request per distinct problem, each
//!   repairing the placement it got under one calibration against the
//!   other calibration — the link estimates drifted — until the phase
//!   has taken [`MIN_SAMPLE_S`] (`remap_s` is the fastest round).
//!
//! Passes repeat until the run's time is up; `rps` and the latency
//! percentiles report the pass or window that was fastest on them.

use crate::{
    best, derive, mean, median, peak_rss_mb, quantile, same_cost, setup_samples, threads, timed,
    Args, Cpus, Ledger, Report, MIN_SAMPLE_S, SCENARIO, SETUP_SAMPLES,
};
use commgraph::apps::AppKind;
use commgraph::CommPattern;
use geomap_core::{cost, ConstraintVector, Mapping, MappingProblem};
use geomap_service::frame::{self, Frame};
use geomap_service::proto::{CacheTier, CalibSpec};
use geomap_service::{
    MapRequest, MappingServer, MappingService, PooledClient, RemapRequest, Request, Response,
    ServiceConfig,
};
use geonet::{presets, Calibrator, InstanceType, SiteNetwork};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use std::any::Any;
use std::time::{Duration, Instant};

/// The stream's patterns, most requested first (Zipf rank order).
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
const SOLVER_SEEDS: usize = 4;
const CALIB_SEEDS: usize = 2;
/// Request variants per pattern: every solver seed under every
/// calibration seed.
const VARIANTS: usize = SOLVER_SEEDS * CALIB_SEEDS;
/// EC2 nodes per region (4 regions).
const NODES_PER_SITE: usize = 64;
/// Map requests per pass, in-process.
const STREAM_MIX: usize = 40_960;
/// Map requests per pass on the wire (about two seconds at batch 64).
const STREAM_WIRE: usize = 4_096;
/// Requests in flight per pipelined call (`service_load`'s batch).
const BATCH: usize = 64;
/// Share of a pattern's ranks a remap may migrate.
const BUDGET_SHARE: f64 = 0.10;
/// Latency samples per percentile window: ten windows per in-process
/// stream (about 60 ms each).
const LAT_WINDOW: usize = 4096;
/// Batches per latency window on the wire: four per stream. Un-stalled
/// batches follow the host's speed in full, so short windows give the
/// fastest-window estimator more chances.
const WIRE_LAT_WINDOW: usize = 16;

/// Generated inputs of a service workload.
struct Inputs {
    network: SiteNetwork,
    csvs: Vec<String>,
    ranks: Vec<usize>,
    /// Reference problems, `[pattern][calibration]`: the pattern parsed
    /// back from its CSV on the calibrated estimate, exactly as the
    /// daemon assembles it.
    problems: Vec<Vec<MappingProblem>>,
    solver_seeds: [u64; SOLVER_SEEDS],
    calib_seeds: [u64; CALIB_SEEDS],
    /// `(pattern, variant)` per request, in send order.
    stream: Vec<(usize, usize)>,
}

#[derive(Default, Clone, Copy)]
struct SetupTimes {
    pattern_s: f64,
    network_s: f64,
    calibrate_s: f64,
    problem_s: f64,
}

/// Seed of the request order. The order is a fixed trace so every
/// `--seed` sends the same sequence of frame sizes: on the wire, which
/// batches stall depends on that sequence (see `README.md`).
const ORDER_SEED: u64 = 0x05EE_D0F0_EDE5;

/// Zipf-skewed stream of `len` requests: pattern `r` (0-based rank) is
/// requested in proportion to `1/(r+1)`, and its requests cycle through
/// all [`VARIANTS`], so every (pattern, solver seed, calibration seed)
/// appears. Composition and order are fixed; `--seed` picks the seeds
/// the variants stand for.
fn stream(len: usize) -> Vec<(usize, usize)> {
    let h: f64 = (1..=PATTERNS.len()).map(|r| 1.0 / r as f64).sum();
    let mut counts: Vec<usize> = (1..=PATTERNS.len())
        .map(|r| ((len as f64 / (r as f64 * h)).floor() as usize).max(VARIANTS))
        .collect();
    let rest: usize = counts[1..].iter().sum();
    counts[0] = len - rest;
    let mut out: Vec<(usize, usize)> = counts
        .iter()
        .enumerate()
        .flat_map(|(r, &c)| (0..c).map(move |j| (r, j % VARIANTS)))
        .collect();
    let mut rng = StdRng::seed_from_u64(ORDER_SEED);
    for i in (1..out.len()).rev() {
        let j = rng.random_range(0..=i);
        out.swap(i, j);
    }
    out
}

fn setup(seed: u64, wire: bool) -> Result<(Inputs, SetupTimes), String> {
    let mut t = SetupTimes::default();
    let (csvs, s) = timed(|| {
        PATTERNS
            .iter()
            .map(|(app, n)| app.workload(*n).pattern().to_csv())
            .collect::<Vec<_>>()
    });
    t.pattern_s = s;
    let (network, s) = timed(|| {
        presets::paper_ec2_network(NODES_PER_SITE, InstanceType::M4Xlarge, derive(SCENARIO, 1))
    });
    t.network_s = s;
    let solver_seeds = std::array::from_fn(|k| derive(seed, 10 + k as u64));
    let calib_seeds: [u64; CALIB_SEEDS] = std::array::from_fn(|k| derive(seed, 20 + k as u64));
    let (estimates, s) = timed(|| {
        calib_seeds
            .iter()
            .map(|&c| {
                let spec = CalibSpec {
                    seed: c,
                    ..CalibSpec::default()
                };
                Calibrator::new(spec.to_config())
                    .calibrate_resilient(&network, None)
                    .map(|r| r.estimated)
                    .map_err(|e| format!("reference calibration: {e}"))
            })
            .collect::<Result<Vec<_>, _>>()
    });
    let estimates = estimates?;
    t.calibrate_s = s;
    let ranks: Vec<usize> = PATTERNS.iter().map(|(_, n)| *n).collect();
    let (problems, s) = timed(|| {
        csvs.iter()
            .zip(&ranks)
            .map(|(csv, &n)| {
                let pattern = CommPattern::from_csv(n, csv)?;
                Ok(estimates
                    .iter()
                    .map(|est| {
                        MappingProblem::new(pattern.clone(), est.clone(), ConstraintVector::none(n))
                    })
                    .collect())
            })
            .collect::<Result<Vec<Vec<_>>, String>>()
    });
    let problems = problems?;
    t.problem_s = s;
    let len = if wire { STREAM_WIRE } else { STREAM_MIX };
    Ok((
        Inputs {
            network,
            csvs,
            ranks,
            problems,
            solver_seeds,
            calib_seeds,
            stream: stream(len),
        },
        t,
    ))
}

impl Inputs {
    fn daemon(&self) -> MappingService {
        MappingService::new(
            self.network.clone(),
            ServiceConfig {
                workers: 1,
                ..ServiceConfig::default()
            },
        )
    }

    /// Map request `i` of the stream (`reserve` on the in-process stream
    /// only) or of the solve phase (never reserving).
    fn map_request(&self, i: usize, (r, v): (usize, usize), reserve: bool) -> Request {
        Request::Map(MapRequest {
            ranks: Some(self.ranks[r]),
            seed: self.solver_seeds[v % SOLVER_SEEDS],
            calibration: CalibSpec {
                seed: self.calib_seeds[v / SOLVER_SEEDS],
                ..CalibSpec::default()
            },
            reserve,
            ..MapRequest::new(format!("m{i}"), self.csvs[r].clone())
        })
    }

    /// Remap of pattern `r`'s placement from calibration `c` against
    /// the other calibration.
    fn remap_request(&self, r: usize, c: usize, start: Vec<usize>) -> Request {
        Request::Remap(RemapRequest {
            budget: Some(self.budget(r) as u64),
            calibration: CalibSpec {
                seed: self.calib_seeds[1 - c],
                ..CalibSpec::default()
            },
            ..RemapRequest::new(format!("r{r}.{c}"), self.csvs[r].clone(), start)
        })
    }

    fn budget(&self, r: usize) -> usize {
        (self.ranks[r] as f64 * BUDGET_SHARE).ceil() as usize
    }

    fn check_map(
        &self,
        req: &Request,
        resp: &Response,
        (r, v): (usize, usize),
    ) -> Result<MapSummary, String> {
        let Request::Map(m) = req else {
            unreachable!("map requests only")
        };
        let Response::Map(got) = resp else {
            return Err(format!("{}: answered {resp:?}", m.id));
        };
        let c = v / SOLVER_SEEDS;
        if got.id != m.id {
            return Err(format!("{}: response id {}", m.id, got.id));
        }
        let problem = &self.problems[r][c];
        let mapping = Mapping::from(got.mapping.clone());
        mapping
            .validate(problem)
            .map_err(|e| format!("{}: invalid mapping: {e}", m.id))?;
        same_cost(&m.id, got.cost, cost(problem, &mapping))?;
        if got.site_counts != mapping.site_counts(problem.num_sites()) {
            return Err(format!("{}: site counts disagree with the mapping", m.id));
        }
        if got.lease.is_some() != m.reserve {
            return Err(format!(
                "{}: lease {:?} for reserve={}",
                m.id, got.lease, m.reserve
            ));
        }
        Ok(MapSummary {
            tier: got.cached,
            cost: got.cost,
            solve_s: got.solve_s,
            lease: got.lease,
            site_counts: got.site_counts.clone(),
        })
    }

    /// Check the repair of pattern `r` against calibration `c`.
    fn check_remap(
        &self,
        (r, c): (usize, usize),
        req: &Request,
        resp: &Response,
    ) -> Result<f64, String> {
        let Request::Remap(q) = req else {
            unreachable!("remap requests only")
        };
        let Response::RemapDiff(d) = resp else {
            return Err(format!("{}: answered {resp:?}", q.id));
        };
        let problem = &self.problems[r][c];
        let start = Mapping::from(q.mapping.clone());
        let repaired = Mapping::from(d.mapping.clone());
        repaired
            .validate(problem)
            .map_err(|e| format!("{}: invalid mapping: {e}", q.id))?;
        let diff: Vec<usize> = (0..start.len())
            .filter(|&i| start.site_of(i) != repaired.site_of(i))
            .collect();
        if diff != d.moved || d.migrations != d.moved.len() as u64 {
            return Err(format!(
                "{}: migration diff disagrees with the mapping",
                q.id
            ));
        }
        if d.moved.len() > self.budget(r) {
            return Err(format!("{}: moved {} over budget", q.id, d.moved.len()));
        }
        if d.new_cost > d.old_cost {
            return Err(format!(
                "{}: cost rose {} -> {}",
                q.id, d.old_cost, d.new_cost
            ));
        }
        same_cost(&q.id, d.old_cost, cost(problem, &start))?;
        same_cost(&q.id, d.new_cost, cost(problem, &repaired))?;
        Ok(d.new_cost)
    }
}

struct MapSummary {
    tier: CacheTier,
    cost: f64,
    solve_s: f64,
    lease: Option<u64>,
    site_counts: Vec<usize>,
}

/// Per-layer times of one traced request, seconds.
#[derive(Default)]
struct Laps {
    encode: f64,
    decode: f64,
    handle: f64,
}

/// The v2 codec round trip of the in-process daemon:
/// `encode_request` → `Frame::decode` → `decode_request_payload` →
/// `handle` → `encode_response` → `Frame::decode` →
/// `decode_response_payload`. With `laps`, each step is timed into it.
/// Returns the decoded response and the one `handle` produced.
fn round_trip(
    svc: &MappingService,
    req: &Request,
    corr: u64,
    mut laps: Option<&mut Laps>,
) -> Result<(Response, Response), String> {
    let mut clock = laps.as_ref().map(|_| Instant::now());
    let mut lap = |slot: fn(&mut Laps) -> &mut f64, laps: &mut Option<&mut Laps>| {
        if let (Some(t), Some(l)) = (clock.as_mut(), laps.as_deref_mut()) {
            let now = Instant::now();
            *slot(l) += (now - *t).as_secs_f64();
            *t = now;
        }
    };
    let bytes = frame::encode_request(req, corr);
    lap(|l| &mut l.encode, &mut laps);
    let (f, used) = Frame::decode(&bytes).map_err(|e| format!("request frame: {e:?}"))?;
    if used != bytes.len() || f.corr_id != corr {
        return Err("request frame: length or correlation id mismatch".into());
    }
    let decoded =
        frame::decode_request_payload(&f.payload).map_err(|e| format!("request: {e:?}"))?;
    lap(|l| &mut l.decode, &mut laps);
    let resp = svc.handle(&decoded);
    lap(|l| &mut l.handle, &mut laps);
    let rbytes = frame::encode_response(&resp, corr);
    lap(|l| &mut l.encode, &mut laps);
    let (rf, _) = Frame::decode(&rbytes).map_err(|e| format!("response frame: {e:?}"))?;
    let back =
        frame::decode_response_payload(&rf.payload).map_err(|e| format!("response: {e:?}"))?;
    lap(|l| &mut l.decode, &mut laps);
    Ok((back, resp))
}

/// Results of one pass.
#[derive(Default)]
struct Pass {
    /// Seconds the stream's map requests (and their releases) took.
    busy_s: f64,
    /// In-process only: seconds each map request and its release took;
    /// emptied by [`Pass::finish`] once summarized.
    req_s: Vec<f64>,
    /// Map requests per second: in-process the highest over windows of
    /// [`LAT_WINDOW`] requests, on the wire over the whole stream.
    rps: f64,
    /// Per-request latency, seconds (amortized per batch on the wire);
    /// emptied by [`Pass::finish`] once summarized.
    lat_s: Vec<f64>,
    lat_p50_s: f64,
    lat_mean_s: f64,
    /// Client-timed wall time of each round of the solving requests.
    solve_rounds_s: Vec<f64>,
    /// Σ `solve_s` the daemon reported over the solve rounds, as a share
    /// of their client-timed wall time; for comparison only.
    daemon_share: f64,
    cost_sum: f64,
    responses: usize,
    /// Wall time of each round of remap requests.
    remap_rounds_s: Vec<f64>,
    remap_costs: Vec<f64>,
    tiers: [usize; 3],
    // Traced passes only.
    encode_s: Vec<f64>,
    decode_s: Vec<f64>,
    /// `handle` per tier, from the stream and the solve rounds.
    handle_s: [Vec<f64>; 3],
    /// `handle` per stream request, every tier.
    stream_handle_s: Vec<f64>,
    remap_handle_s: Vec<f64>,
    release_s: Vec<f64>,
    batch_s: Vec<f64>,
    server_e2e_us: f64,
    queue_wait_s: f64,
    server_queue_us: f64,
    server_sum_s: f64,
}

impl Pass {
    /// Fastest solve round.
    fn solve_round_s(&self) -> f64 {
        best(&self.solve_rounds_s)
    }

    /// Fastest remap round.
    fn remap_s(&self) -> f64 {
        best(&self.remap_rounds_s)
    }

    /// Summarize the latencies and free them, so memory does not grow
    /// with the number of passes. The percentiles are taken per window
    /// of `window` consecutive samples, and the pass keeps its lowest
    /// window's.
    fn finish(&mut self, window: usize) {
        let windows = || self.lat_s.chunks(window);
        self.lat_p50_s = best(&windows().map(median).collect::<Vec<_>>());
        self.lat_mean_s = mean(&self.lat_s);
        self.lat_s = Vec::new();
        self.rps = if self.req_s.is_empty() {
            self.responses as f64 / self.busy_s
        } else {
            let windows = self.req_s.chunks(LAT_WINDOW);
            1.0 / best(&windows.map(|w| mean(w)).collect::<Vec<_>>())
        };
        self.req_s = Vec::new();
    }
}

fn tier_index(t: CacheTier) -> usize {
    match t {
        CacheTier::Result => 0,
        CacheTier::Problem => 1,
        CacheTier::Miss => 2,
    }
}

/// Bookkeeping shared by both transports: check one map response and
/// fold it into the pass; remembers the first placement of each
/// (pattern, variant) for determinism and for the remap phase.
fn absorb_map(
    inputs: &Inputs,
    req: &Request,
    resp: &Response,
    entry: (usize, usize),
    first: &mut [Option<Vec<usize>>],
    pass: &mut Pass,
) -> Result<MapSummary, String> {
    let summary = inputs.check_map(req, resp, entry)?;
    let Response::Map(got) = resp else {
        unreachable!("checked above")
    };
    let slot = &mut first[entry.0 * VARIANTS + entry.1];
    match slot {
        Some(m) if *m != got.mapping => {
            return Err(format!("{}: same request, different mapping", got.id))
        }
        Some(_) => {}
        None => *slot = Some(got.mapping.clone()),
    }
    pass.tiers[tier_index(summary.tier)] += 1;
    pass.cost_sum += summary.cost;
    pass.queue_wait_s += got.queue_wait_s;
    pass.responses += 1;
    Ok(summary)
}

/// One request per (pattern, variant), in stream order of first
/// appearance: against a fresh daemon, exactly the stream's 24 misses
/// and 72 problem hits.
fn solving_entries(inputs: &Inputs) -> Vec<(usize, usize)> {
    let mut seen = vec![false; PATTERNS.len() * VARIANTS];
    inputs
        .stream
        .iter()
        .copied()
        .filter(|&(r, v)| !std::mem::replace(&mut seen[r * VARIANTS + v], true))
        .collect()
}

/// A solve-phase response must be a miss or problem hit and give the
/// placement the stream gave for the same request.
fn check_solve(
    inputs: &Inputs,
    req: &Request,
    resp: &Response,
    entry: (usize, usize),
    first: &[Option<Vec<usize>>],
    tiers: &mut [usize; 3],
) -> Result<MapSummary, String> {
    let summary = inputs.check_map(req, resp, entry)?;
    let Response::Map(got) = resp else {
        unreachable!("checked above")
    };
    if first[entry.0 * VARIANTS + entry.1].as_ref() != Some(&got.mapping) {
        return Err(format!("{}: placement differs from the stream's", got.id));
    }
    tiers[tier_index(summary.tier)] += 1;
    Ok(summary)
}

/// Solve rounds must each see the stream's misses and problem hits and
/// no result hit.
fn check_solve_tiers(tiers: [usize; 3]) -> Result<(), String> {
    let miss = PATTERNS.len() * CALIB_SEEDS;
    let want = [0, PATTERNS.len() * VARIANTS - miss, miss];
    if tiers == want {
        Ok(())
    } else {
        Err(format!(
            "solve round tiers [result, problem, miss] {tiers:?}, expected {want:?}"
        ))
    }
}

/// The pass must have seen exactly one miss per (pattern, calibration)
/// and one problem hit per other solver seed.
fn check_tiers(pass: &Pass, len: usize) -> Result<(), String> {
    let miss = PATTERNS.len() * CALIB_SEEDS;
    let problem = PATTERNS.len() * VARIANTS - miss;
    let want = [len - miss - problem, problem, miss];
    if pass.tiers == want {
        Ok(())
    } else {
        Err(format!(
            "cache tiers [result, problem, miss] {:?}, expected {want:?}",
            pass.tiers
        ))
    }
}

/// The remap requests of one pass: each (pattern, calibration)'s
/// placement for the first solver seed, repaired against the other
/// calibration. Returns each request's `(pattern, target calibration)`
/// and the requests.
fn remap_requests(
    inputs: &Inputs,
    first: &[Option<Vec<usize>>],
) -> (Vec<(usize, usize)>, Vec<Request>) {
    let mut targets = Vec::new();
    let mut requests = Vec::new();
    for r in 0..PATTERNS.len() {
        for c in 0..CALIB_SEEDS {
            if let Some(m) = &first[r * VARIANTS + c * SOLVER_SEEDS] {
                targets.push((r, 1 - c));
                requests.push(inputs.remap_request(r, c, m.clone()));
            }
        }
    }
    (targets, requests)
}

/// One in-process pass. The stream and the remaps run single-threaded,
/// pinned to CPU `turn`; the solves use every CPU.
fn mix_pass(inputs: &Inputs, traced: bool, cpus: &Cpus, turn: usize, report: &mut Report) -> Pass {
    let svc = inputs.daemon();
    let mut pass = Pass::default();
    let mut first: Vec<Option<Vec<usize>>> = vec![None; PATTERNS.len() * VARIANTS];
    cpus.on(turn, || {
        for (i, &entry) in inputs.stream.iter().enumerate() {
            let req = inputs.map_request(i, entry, true);
            let mut laps = Laps::default();
            let t0 = Instant::now();
            let result = round_trip(&svc, &req, 2 * i as u64 + 1, traced.then_some(&mut laps));
            let map_s = t0.elapsed().as_secs_f64();
            let summary = result.and_then(|(back, resp)| {
                if back != resp {
                    return Err(format!("m{i}: response changed in the codec round trip"));
                }
                absorb_map(inputs, &req, &back, entry, &mut first, &mut pass)
            });
            let summary = match summary {
                Ok(s) => s,
                Err(e) => {
                    report.op(Err(e));
                    continue;
                }
            };
            report.op(Ok(()));
            pass.lat_s.push(map_s);
            pass.busy_s += map_s;
            if traced {
                pass.encode_s.push(laps.encode);
                pass.decode_s.push(laps.decode);
                pass.handle_s[tier_index(summary.tier)].push(laps.handle);
                pass.stream_handle_s.push(laps.handle);
            }

            let lease = summary.lease.expect("checked: reserve grants a lease");
            let release = Request::Release {
                id: format!("x{i}"),
                lease,
            };
            let mut laps = Laps::default();
            let t0 = Instant::now();
            let result = round_trip(
                &svc,
                &release,
                2 * i as u64 + 2,
                traced.then_some(&mut laps),
            );
            let release_s = t0.elapsed().as_secs_f64();
            pass.busy_s += release_s;
            pass.req_s.push(map_s + release_s);
            if traced {
                pass.release_s.push(laps.handle);
            }
            report.op(result.and_then(|(back, resp)| match back {
                Response::Release { ref freed, .. } if back == resp => {
                    if *freed == summary.site_counts {
                        Ok(())
                    } else {
                        Err(format!(
                            "x{i}: freed {freed:?}, leased {:?}",
                            summary.site_counts
                        ))
                    }
                }
                other => Err(format!("x{i}: answered {other:?}")),
            }));
        }
    });
    report.op(check_tiers(&pass, inputs.stream.len()));
    pass.finish(LAT_WINDOW);

    // The solves, each round on a fresh daemon, pinned like the stream.
    let solving: Vec<((usize, usize), Request)> = solving_entries(inputs)
        .into_iter()
        .enumerate()
        .map(|(k, entry)| (entry, inputs.map_request(k, entry, false)))
        .collect();
    let (mut spent, mut daemon_s, mut rounds) = (0.0, 0.0, 0usize);
    cpus.on(turn, || {
        while rounds == 0 || spent < MIN_SAMPLE_S {
            let round_start = spent;
            let fresh = inputs.daemon();
            let mut tiers = [0usize; 3];
            for (k, (entry, req)) in solving.iter().enumerate() {
                let mut laps = Laps::default();
                let t0 = Instant::now();
                let result = round_trip(&fresh, req, k as u64 + 1, traced.then_some(&mut laps));
                spent += t0.elapsed().as_secs_f64();
                let summary = result.and_then(|(back, resp)| {
                    if back != resp {
                        return Err(format!("s{k}: response changed in the codec round trip"));
                    }
                    check_solve(inputs, req, &back, *entry, &first, &mut tiers)
                });
                match summary {
                    Ok(s) => {
                        daemon_s += s.solve_s;
                        if traced {
                            pass.handle_s[tier_index(s.tier)].push(laps.handle);
                        }
                        report.op(Ok(()));
                    }
                    Err(e) => report.op(Err(e)),
                }
            }
            report.op(check_solve_tiers(tiers));
            pass.solve_rounds_s.push(spent - round_start);
            rounds += 1;
        }
    });
    pass.daemon_share = daemon_s / spent;

    // The remaps, on the stream's daemon: its problem cache already
    // holds every calibration they ask for.
    let (targets, remaps) = remap_requests(inputs, &first);
    let (mut spent, mut rounds) = (0.0, 0usize);
    cpus.on(turn, || {
        while rounds == 0 || spent < MIN_SAMPLE_S {
            let round_start = spent;
            for (k, (req, &target)) in remaps.iter().zip(&targets).enumerate() {
                let mut laps = Laps::default();
                let corr = 1_000_000 + (rounds * remaps.len() + k) as u64;
                let t0 = Instant::now();
                let result = round_trip(&svc, req, corr, traced.then_some(&mut laps));
                spent += t0.elapsed().as_secs_f64();
                if traced {
                    pass.remap_handle_s.push(laps.handle);
                }
                match result.and_then(|(back, _)| inputs.check_remap(target, req, &back)) {
                    Ok(c) => {
                        if rounds == 0 {
                            pass.remap_costs.push(c);
                        }
                        report.op(Ok(()));
                    }
                    Err(e) => report.op(Err(e)),
                }
            }
            pass.remap_rounds_s.push(spent - round_start);
            rounds += 1;
        }
    });

    // Every lease came back: nothing leaked, nothing double-freed.
    let inv = svc.inventory();
    report.op(
        if inv.free_nodes() == inv.capacities() && inv.active_leases() == 0 {
            Ok(())
        } else {
            Err(format!(
                "inventory after the pass: free {:?} of {:?}, {} active leases",
                inv.free_nodes(),
                inv.capacities(),
                inv.active_leases()
            ))
        },
    );
    pass
}

/// One pass on the wire. The server's threads run on CPU `turn + 1`
/// and the client on CPU `turn`, for the stream, the solve rounds and
/// the remaps.
fn wire_pass(
    inputs: &Inputs,
    traced: bool,
    cpus: &Cpus,
    turn: usize,
    report: &mut Report,
) -> Result<Pass, String> {
    // The server's threads inherit the CPU they are started from.
    let server = cpus
        .on(turn + 1, || {
            MappingServer::bind(inputs.daemon(), "127.0.0.1:0")
        })
        .map_err(|e| format!("bind loopback: {e}"))?;
    let mut client = PooledClient::new(
        server.local_addr().to_string(),
        1,
        Some(Duration::from_secs(60)),
    );
    let mut pass = Pass::default();
    let mut first: Vec<Option<Vec<usize>>> = vec![None; PATTERNS.len() * VARIANTS];
    cpus.on(turn, || {
        for (b, chunk) in inputs.stream.chunks(BATCH).enumerate() {
            let requests: Vec<Request> = chunk
                .iter()
                .enumerate()
                .map(|(k, &entry)| inputs.map_request(b * BATCH + k, entry, false))
                .collect();
            let (result, batch_s) = timed(|| client.pipeline(&requests));
            let responses = match result {
                Ok(r) if r.len() == requests.len() => r,
                Ok(r) => {
                    report.op(Err(format!("batch {b}: {} responses", r.len())));
                    continue;
                }
                Err(e) => {
                    for _ in chunk {
                        report.op(Err(format!("batch {b}: {e}")));
                    }
                    continue;
                }
            };
            pass.busy_s += batch_s;
            pass.batch_s.push(batch_s);
            pass.lat_s.push(batch_s / chunk.len() as f64);
            for ((req, resp), &entry) in requests.iter().zip(&responses).zip(chunk) {
                let ok = absorb_map(inputs, req, resp, entry, &mut first, &mut pass);
                report.op(ok.map(|_| ()));
            }
            if traced {
                // The codec work of this batch, replayed outside the timed
                // call: what the client and the reactor encode and decode.
                for (k, (req, resp)) in requests.iter().zip(&responses).enumerate() {
                    let corr = k as u64 + 1;
                    let (bytes, enc_req) = timed(|| frame::encode_request(req, corr));
                    let (_, dec_req) = timed(|| {
                        Frame::decode(&bytes)
                            .map(|(f, _)| frame::decode_request_payload(&f.payload))
                    });
                    let (rbytes, enc_resp) = timed(|| frame::encode_response(resp, corr));
                    let (_, dec_resp) = timed(|| {
                        Frame::decode(&rbytes)
                            .map(|(f, _)| frame::decode_response_payload(&f.payload))
                    });
                    pass.encode_s.push(enc_req + enc_resp);
                    pass.decode_s.push(dec_req + dec_resp);
                }
            }
        }
    });
    report.op(check_tiers(&pass, inputs.stream.len()));
    pass.finish(WIRE_LAT_WINDOW);

    // The solves, each round on a fresh server and connection, in the
    // stream's batches, pinned like the stream; the connection opens
    // before the timer starts.
    let solving: Vec<((usize, usize), Request)> = solving_entries(inputs)
        .into_iter()
        .enumerate()
        .map(|(k, entry)| (entry, inputs.map_request(k, entry, false)))
        .collect();
    let (mut spent, mut daemon_s, mut rounds) = (0.0, 0.0, 0usize);
    while rounds == 0 || spent < MIN_SAMPLE_S {
        let round_start = spent;
        let fresh = cpus
            .on(turn + 1, || {
                MappingServer::bind(inputs.daemon(), "127.0.0.1:0")
            })
            .map_err(|e| format!("bind loopback: {e}"))?;
        let mut tiers = [0usize; 3];
        cpus.on(turn, || {
            let mut conn = PooledClient::new(
                fresh.local_addr().to_string(),
                1,
                Some(Duration::from_secs(60)),
            );
            conn.pipeline(&[Request::Stats {
                id: "open".into(),
                detail: false,
            }])
            .map_err(|e| format!("connect: {e}"))?;
            for chunk in solving.chunks(BATCH) {
                let requests: Vec<Request> = chunk.iter().map(|(_, r)| r.clone()).collect();
                let (result, s) = timed(|| conn.pipeline(&requests));
                spent += s;
                match result {
                    Ok(responses) if responses.len() == requests.len() => {
                        for ((entry, req), resp) in chunk.iter().zip(&responses) {
                            match check_solve(inputs, req, resp, *entry, &first, &mut tiers) {
                                Ok(s) => {
                                    daemon_s += s.solve_s;
                                    report.op(Ok(()));
                                }
                                Err(e) => report.op(Err(e)),
                            }
                        }
                    }
                    Ok(r) => report.op(Err(format!("solve batch: {} responses", r.len()))),
                    Err(e) => report.op(Err(format!("solve batch: {e}"))),
                }
            }
            Ok::<_, String>(())
        })?;
        report.op(check_solve_tiers(tiers));
        fresh.join();
        pass.solve_rounds_s.push(spent - round_start);
        rounds += 1;
    }
    pass.daemon_share = daemon_s / spent;

    let (targets, remaps) = remap_requests(inputs, &first);
    let (mut spent, mut rounds) = (0.0, 0usize);
    cpus.on(turn, || {
        while rounds == 0 || spent < MIN_SAMPLE_S {
            let (result, s) = timed(|| client.pipeline(&remaps));
            spent += s;
            pass.remap_rounds_s.push(s);
            match result {
                Ok(responses) if responses.len() == remaps.len() => {
                    for ((req, resp), &target) in remaps.iter().zip(&responses).zip(&targets) {
                        match inputs.check_remap(target, req, resp) {
                            Ok(c) => {
                                if rounds == 0 {
                                    pass.remap_costs.push(c);
                                }
                                report.op(Ok(()));
                            }
                            Err(e) => report.op(Err(e)),
                        }
                    }
                }
                Ok(r) => report.op(Err(format!("remap batch: {} responses", r.len()))),
                Err(e) => report.op(Err(format!("remap batch: {e}"))),
            }
            rounds += 1;
        }
    });

    // The daemon's own view of the same requests: the mean from the
    // `map_e2e` histogram's exact sum (its p50 is bucket-quantized), and
    // the queue wait it reported per response (only a connection's
    // first request is charged one).
    let stats = server.service().stats("geobench", true);
    if let Some(h) = stats
        .detail
        .as_ref()
        .and_then(|d| d.hists.iter().find(|h| h.name == "map_e2e"))
    {
        pass.server_e2e_us = h.sum_us as f64 / h.count.max(1) as f64;
        pass.server_sum_s = h.sum_us as f64 * 1e-6;
    }
    pass.server_queue_us = pass.queue_wait_s / pass.responses.max(1) as f64 * 1e6;
    drop(client);
    server.join();
    Ok(pass)
}

pub fn run(args: &Args) -> Result<Report, String> {
    let wire = args.workload == "service_wire";
    if args.onecpu {
        return Err("--onecpu applies to the solver workloads only".into());
    }
    let mut report = Report::default();
    let mut ledger = Ledger::default();
    let mut setup_times = Vec::new();
    let cpus = Cpus::of_process();
    let (prepared, setup_s) = setup_samples(SETUP_SAMPLES, &cpus, || {
        let (inputs, t) = setup(args.seed, wire)?;
        setup_times.push(t);
        // A daemon ready for its first request (on the wire, listening)
        // is part of the set-up; it is returned so that its teardown
        // falls outside the timer.
        let daemon: Box<dyn Any> = if wire {
            Box::new(
                MappingServer::bind(inputs.daemon(), "127.0.0.1:0")
                    .map_err(|e| format!("bind loopback: {e}"))?,
            )
        } else {
            Box::new(inputs.daemon())
        };
        Ok::<_, String>((inputs, daemon))
    })?;
    let (inputs, daemon) = prepared;
    drop(daemon);

    let mut plain: Vec<Pass> = Vec::new();
    let mut traced: Vec<Pass> = Vec::new();
    let started = Instant::now();
    let min_passes = if args.trace { 4 } else { 3 };
    let mut n = 0usize;
    // A pass starts only if it should end within the run's time.
    let mut last_s = 0.0;
    while n < min_passes || started.elapsed().as_secs_f64() + last_s <= args.seconds {
        let pass_started = Instant::now();
        let trace_this = args.trace && n % 2 == 1;
        let pass = if wire {
            wire_pass(&inputs, trace_this, &cpus, n / 2, &mut report)?
        } else {
            mix_pass(&inputs, trace_this, &cpus, n / 2, &mut report)
        };
        if trace_this {
            traced.push(pass);
        } else {
            plain.push(pass);
        }
        n += 1;
        last_s = pass_started.elapsed().as_secs_f64();
    }
    report.note(format!(
        "{}: {} requests per pass, {} passes, {} threads",
        args.workload,
        inputs.stream.len(),
        n,
        threads()
    ));

    let rps = |p: &Pass| p.rps;
    let per_pass = |passes: &[Pass], f: &dyn Fn(&Pass) -> f64| {
        median(&passes.iter().map(f).collect::<Vec<_>>())
    };
    // The pass that was fastest on a metric (for `rps`, the highest).
    let fastest =
        |passes: &[Pass], f: &dyn Fn(&Pass) -> f64| best(&passes.iter().map(f).collect::<Vec<_>>());
    let ms = |f: &dyn Fn(&Pass) -> f64| {
        plain
            .iter()
            .map(|p| format!("{:.1}", f(p) * 1e3))
            .collect::<Vec<_>>()
            .join(" ")
    };
    report.note(format!(
        "untraced samples, ms: set-up [{}], stream [{}], fastest solve round [{}], fastest remap round [{}]",
        setup_s
            .iter()
            .map(|s| format!("{:.2}", s * 1e3))
            .collect::<Vec<_>>()
            .join(" "),
        ms(&|p| p.busy_s),
        ms(&|p| p.solve_round_s()),
        ms(&|p| p.remap_s())
    ));
    report.note(format!(
        "the daemon's own solve_s is {:.1} % of the client-timed solve rounds",
        100.0 * per_pass(&plain, &|p| p.daemon_share)
    ));
    if let Some(p) = plain.first() {
        report.note(format!(
            "tiers per pass [result, problem, miss] = {:?}; latency percentiles are per window \
             of {} samples",
            p.tiers,
            if wire { WIRE_LAT_WINDOW } else { LAT_WINDOW }
        ));
    }
    if wire {
        let batches: Vec<f64> = plain.iter().flat_map(|p| p.batch_s.clone()).collect();
        let q = |x: f64| quantile(&batches, x) * 1e3;
        report.note(format!(
            "batch of {BATCH} wall time, ms: p10 {:.2}, p25 {:.2}, p50 {:.2}, p75 {:.2}, p90 {:.2}, max {:.2}; {:.0} % of batches over 10 ms",
            q(0.1),
            q(0.25),
            q(0.5),
            q(0.75),
            q(0.9),
            q(1.0),
            100.0 * batches.iter().filter(|&&b| b > 0.010).count() as f64 / batches.len().max(1) as f64
        ));
    }
    if !args.trace {
        report.metric("setup_s", best(&setup_s), "s");
        report.metric("map_s", fastest(&plain, &|p| p.solve_round_s()), "s");
        report.metric(
            "cost",
            per_pass(&plain, &|p| p.cost_sum / p.responses as f64),
            "s",
        );
        report.metric("remap_s", fastest(&plain, &|p| p.remap_s()), "s");
        report.metric(
            "remap_cost",
            per_pass(&plain, &|p| mean(&p.remap_costs)),
            "s",
        );
        report.metric("rps", 1.0 / fastest(&plain, &|p| 1.0 / rps(p)), "1/s");
        report.metric("lat_p50_us", fastest(&plain, &|p| p.lat_p50_s) * 1e6, "us");
        report.metric("peak_rss_mb", peak_rss_mb(), "MB");
        return Ok(report);
    }

    let med = |f: fn(&SetupTimes) -> f64| median(&setup_times.iter().map(f).collect::<Vec<_>>());
    ledger.set("commgraph.pattern_s", med(|t| t.pattern_s));
    ledger.set("geonet.network_s", med(|t| t.network_s));
    ledger.set("geonet.calibrate_s", med(|t| t.calibrate_s));
    ledger.set("core.problem_s", med(|t| t.problem_s));
    let all =
        |f: fn(&Pass) -> &Vec<f64>| traced.iter().flat_map(|p| f(p).clone()).collect::<Vec<_>>();
    let encode = all(|p| &p.encode_s);
    let decode = all(|p| &p.decode_s);
    ledger.set("service.frame.encode_us", mean(&encode) * 1e6);
    ledger.set("service.frame.decode_us", mean(&decode) * 1e6);
    let total: usize = traced.iter().map(|p| p.responses).sum();
    let results: usize = traced.iter().map(|p| p.tiers[0]).sum();
    ledger.set(
        "service.cache.hit_ratio",
        results as f64 / total.max(1) as f64,
    );
    if wire {
        ledger.set("service.wire.batch_ms", median(&all(|p| &p.batch_s)) * 1e3);
        ledger.set(
            "service.wire.server_e2e_us",
            per_pass(&traced, &|p| p.server_e2e_us),
        );
        ledger.set(
            "service.wire.queue_wait_us",
            per_pass(&traced, &|p| p.server_queue_us),
        );
        ledger.set(
            "service.wire.server_share",
            per_pass(&traced, &|p| p.server_sum_s / p.busy_s),
        );
    } else {
        let handle: Vec<Vec<f64>> = (0..3)
            .map(|t| traced.iter().flat_map(|p| p.handle_s[t].clone()).collect())
            .collect();
        ledger.set("service.handle.result_us", median(&handle[0]) * 1e6);
        ledger.set("service.handle.problem_us", median(&handle[1]) * 1e6);
        ledger.set("service.handle.miss_us", median(&handle[2]) * 1e6);
        ledger.set(
            "service.handle.remap_us",
            median(&all(|p| &p.remap_handle_s)) * 1e6,
        );
        ledger.set(
            "service.inventory.release_us",
            median(&all(|p| &p.release_s)) * 1e6,
        );
        // Codec plus handle, per map request, against the same traced
        // requests' latency.
        ledger.set(
            "coverage.request",
            (mean(&encode) + mean(&decode) + mean(&all(|p| &p.stream_handle_s)))
                / per_pass(&traced, &|p| p.lat_mean_s),
        );
    }
    let overhead = |f: &dyn Fn(&Pass) -> f64| fastest(&traced, f) - fastest(&plain, f);
    ledger.set("overhead.map_s", overhead(&|p| p.solve_round_s()));
    ledger.set("overhead.remap_s", overhead(&|p| p.remap_s()));
    ledger.set("overhead.lat_p50_us", overhead(&|p| p.lat_p50_s) * 1e6);
    // Requests per second lost to tracing.
    ledger.set(
        "overhead.rps",
        1.0 / fastest(&plain, &|p| 1.0 / rps(p)) - 1.0 / fastest(&traced, &|p| 1.0 / rps(p)),
    );
    ledger.set("threads", threads() as f64);
    ledger.emit(&mut report)?;
    Ok(report)
}

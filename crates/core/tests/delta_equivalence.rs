//! Equivalence harness for the incremental Δ-cost engine.
//!
//! Pins `CostEvaluator` (cached `O(deg)` deltas) to the ground truth on
//! three levels:
//!
//! 1. **Delta equivalence** — `swap_delta`/`move_delta` match a full
//!    Eq. 3 recompute within `1e-9` relative, over randomized `CG`/`AG`
//!    patterns, randomized `LT`/`BT` matrices, random constraint
//!    vectors, and long randomized apply sequences (proptest).
//!    The site-table screen in front of the engine is sound: it drops
//!    a candidate only when its exact delta is at or above the limit,
//!    and passes every other one through bitwise unchanged. So is the
//!    site-bucket bound of the sweep's row kernel, which decides
//!    exactly as the screened loop it replaces.
//! 2. **Exhaustive small instances** — every one of the `N·(N−1)/2`
//!    swaps for `N ≤ 16`, all three cost models.
//! 3. **Oracle regression** — `GeoMapper` produces *bit-identical*
//!    mappings whether its refinement runs on the incremental engine or
//!    the full-recompute oracle, on the Fig. 5 mini-setup (4 sites × 16
//!    nodes, N = 64, all five paper workloads). The MPIPP twin of this
//!    test lives in the baselines crate (`mpipp::tests`).

use commgraph::apps::AppKind;
use commgraph::pattern::PatternBuilder;
use commgraph::CommPattern;
use geomap_core::delta::{
    Candidates, CostEval, CostEvaluator, CostTables, Evaluation, FullRecomputeEval, SwapScope,
};
use geomap_core::{
    cost_with_model, Climb, ConstraintVector, CostModel, GeoMapper, Mapper, Mapping, MappingProblem,
};
use geonet::{presets, GeoCoord, InstanceType, Site, SiteNetwork, SquareMatrix};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

/// Random problem: `n` processes over `m` sites with random directed
/// `CG`/`AG` (density ~`degree/n`) and random positive `LT`/`BT`.
fn random_problem(n: usize, m: usize, seed: u64) -> MappingProblem {
    random_problem_on(n, m, seed, true)
}

/// [`random_problem`]; with `fast_local` false, links inside a site
/// are drawn from the same ranges as links between sites, so some
/// `X(k,l) + X(l,k) − X(k,k) − X(l,l)` cross terms come out negative.
fn random_problem_on(n: usize, m: usize, seed: u64, fast_local: bool) -> MappingProblem {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut b = PatternBuilder::new(n);
    let edges = (n * 3).max(4);
    for _ in 0..edges {
        let src = rng.random_range(0..n);
        let dst = rng.random_range(0..n);
        if src == dst {
            continue;
        }
        let bytes = rng.random_range(1..2_000_000u64);
        let msgs = rng.random_range(1..64u64);
        b.record_many(src, dst, bytes, msgs);
    }
    let pattern = ensure_nonempty(b.build(), n);
    let sites: Vec<Site> = (0..m)
        .map(|k| {
            Site::new(
                format!("s{k}"),
                GeoCoord::new(k as f64, -(k as f64)),
                n.div_ceil(m),
            )
        })
        .collect();
    let lt = SquareMatrix::from_fn(m, |k, l| {
        if k == l && fast_local {
            rng.random_range(1e-5..1e-4)
        } else {
            rng.random_range(1e-3..0.2)
        }
    });
    let bt = SquareMatrix::from_fn(m, |k, l| {
        if k == l && fast_local {
            rng.random_range(1e9..1e10)
        } else {
            rng.random_range(1e6..1e8)
        }
    });
    let net = SiteNetwork::new(sites, lt, bt);
    let constraints = if rng.random_bool(0.5) {
        ConstraintVector::random(
            n,
            rng.random_range(0.1..0.5),
            &net.capacities(),
            seed ^ 0xC1,
        )
    } else {
        ConstraintVector::none(n)
    };
    MappingProblem::new(pattern, net, constraints)
}

/// An all-isolated pattern breaks nothing, but make the common case a
/// connected one: add a ring edge when the random draw came up empty.
fn ensure_nonempty(pattern: CommPattern, n: usize) -> CommPattern {
    if (0..n).any(|i| !pattern.out_edges(i).is_empty()) {
        return pattern;
    }
    let mut b = PatternBuilder::new(n);
    for i in 0..n {
        b.record_many(i, (i + 1) % n, 1000, 1);
    }
    b.build()
}

/// Random feasible assignment honouring capacities and pins.
fn random_assignment(problem: &MappingProblem, rng: &mut StdRng) -> Vec<geonet::SiteId> {
    let n = problem.num_processes();
    let mut free = problem.free_capacities();
    let mut sites: Vec<Option<geonet::SiteId>> =
        (0..n).map(|i| problem.constraints().pin_of(i)).collect();
    for s in sites.iter_mut() {
        if s.is_none() {
            loop {
                let k = rng.random_range(0..free.len());
                if free[k] > 0 {
                    free[k] -= 1;
                    *s = Some(geonet::SiteId(k));
                    break;
                }
            }
        }
    }
    sites.into_iter().map(|s| s.unwrap()).collect()
}

/// Apply a random swap (two times in three) or move (capacity ignored)
/// with the engine's own delta.
fn apply_random(inc: &mut CostEvaluator<'_>, rng: &mut StdRng, n: usize, m: usize) {
    if rng.random_range(0..3u32) < 2 {
        let (a, b) = (rng.random_range(0..n), rng.random_range(0..n));
        let d = inc.swap_delta(a, b);
        inc.apply_swap(a, b, d);
    } else {
        let i = rng.random_range(0..n);
        let to = geonet::SiteId(rng.random_range(0..m));
        let d = inc.move_delta(i, to);
        inc.apply_move(i, to, d);
    }
}

/// Relative-tolerance check scaled by the instance's total cost.
fn assert_close(label: &str, got: f64, want: f64, scale: f64) {
    assert!(
        (got - want).abs() <= 1e-9 * scale.abs().max(1.0),
        "{label}: incremental {got} vs full recompute {want} (scale {scale})"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Property 1: every swap delta matches the full Eq. 3 recompute.
    #[test]
    fn prop_swap_delta_matches_full_recompute(seed in 0u64..10_000) {
        let mut rng = StdRng::seed_from_u64(seed ^ 0x5A);
        let n = rng.random_range(4..40usize);
        let m = rng.random_range(2..6usize);
        let problem = random_problem(n, m, seed);
        let tables = CostTables::build(&problem, CostModel::Full);
        let sites = random_assignment(&problem, &mut rng);
        let eval = CostEvaluator::new(&tables, sites.clone());
        let scale = tables.total(&sites);
        for _ in 0..32 {
            let a = rng.random_range(0..n);
            let b = rng.random_range(0..n);
            let mut swapped = sites.clone();
            swapped.swap(a, b);
            let want = tables.total(&swapped) - tables.total(&sites);
            // Same-site swaps are exact no-ops for the engine.
            let want = if sites[a] == sites[b] { 0.0 } else { want };
            prop_assert!((eval.swap_delta(a, b) - want).abs() <= 1e-9 * scale.max(1.0));
        }
    }

    /// Property 2: every move delta matches the full Eq. 3 recompute.
    #[test]
    fn prop_move_delta_matches_full_recompute(seed in 0u64..10_000) {
        let mut rng = StdRng::seed_from_u64(seed ^ 0xA5);
        let n = rng.random_range(4..40usize);
        let m = rng.random_range(2..6usize);
        let problem = random_problem(n, m, seed);
        let tables = CostTables::build(&problem, CostModel::Full);
        let sites = random_assignment(&problem, &mut rng);
        let eval = CostEvaluator::new(&tables, sites.clone());
        let scale = tables.total(&sites);
        for _ in 0..32 {
            let i = rng.random_range(0..n);
            let to = geonet::SiteId(rng.random_range(0..m));
            let mut moved = sites.clone();
            moved[i] = to;
            let want = if sites[i] == to { 0.0 } else { tables.total(&moved) - tables.total(&sites) };
            prop_assert!((eval.move_delta(i, to) - want).abs() <= 1e-9 * scale.max(1.0));
        }
    }

    /// Property 3: long randomized apply sequences, each engine
    /// applying its own delta, keep the incremental engine in lockstep
    /// with the oracle and with a fresh recompute.
    #[test]
    fn prop_apply_sequences_stay_in_lockstep(seed in 0u64..10_000) {
        let mut rng = StdRng::seed_from_u64(seed ^ 0x7E57);
        let n = rng.random_range(6..32usize);
        let m = rng.random_range(2..5usize);
        let problem = random_problem(n, m, seed);
        let tables = CostTables::build(&problem, CostModel::Full);
        let sites = random_assignment(&problem, &mut rng);
        let mut inc = CostEvaluator::new(&tables, sites.clone());
        let mut full = FullRecomputeEval::new(&tables, sites);
        let scale = inc.total().abs().max(1.0);

        for _ in 0..120 {
            if rng.random_range(0..3u32) < 2 {
                // Swap two random processes.
                let a = rng.random_range(0..n);
                let b = rng.random_range(0..n);
                let (da, db) = (inc.swap_delta(a, b), full.swap_delta(a, b));
                prop_assert!((da - db).abs() <= 1e-9 * scale);
                inc.apply_swap(a, b, da);
                full.apply_swap(a, b, db);
            } else {
                // Move a random process (capacity ignored on purpose:
                // delta math is independent of feasibility).
                let i = rng.random_range(0..n);
                let to = geonet::SiteId(rng.random_range(0..m));
                let (da, db) = (inc.move_delta(i, to), full.move_delta(i, to));
                prop_assert!((da - db).abs() <= 1e-9 * scale);
                inc.apply_move(i, to, da);
                full.apply_move(i, to, db);
            }
            prop_assert_eq!(inc.sites(), full.sites());
            prop_assert!((inc.total() - full.total()).abs() <= 1e-9 * scale);
            // The incremental total must also track a fresh recompute.
            prop_assert!((inc.total() - tables.total(inc.sites())).abs() <= 1e-9 * scale);
        }
    }

    /// Property 4: the site-table screen is sound. Over random limits
    /// and apply sequences, `*_if_below` answers `None` only when the
    /// exact delta is `>= limit`, every `Some` is bitwise the
    /// unscreened delta, the oracle never screens, and the shifted
    /// table and the total stay within tolerance of a fresh build.
    #[test]
    fn prop_screen_is_sound_under_applies(seed in 0u64..10_000) {
        let mut rng = StdRng::seed_from_u64(seed ^ 0x5C2E);
        let n = rng.random_range(4..32usize);
        let m = rng.random_range(2..6usize);
        let problem = random_problem(n, m, seed);
        let tables = CostTables::build(&problem, CostModel::Full);
        let sites = random_assignment(&problem, &mut rng);
        let mut inc = CostEvaluator::new(&tables, sites.clone());
        let full = FullRecomputeEval::new(&tables, sites);
        let scale = inc.total().abs().max(1.0);
        // A limit near the exact delta (both sides, exact ties
        // included) or anywhere on the cost scale.
        let limit_near = |rng: &mut StdRng, exact: f64| match rng.random_range(0..4u32) {
            0 => exact,
            1 => exact + rng.random_range(-1e-6..1e-6) * scale,
            2 => exact + rng.random_range(-1.0..1.0) * exact.abs(),
            _ => rng.random_range(-1.0..1.0) * scale,
        };
        for _ in 0..80 {
            for _ in 0..8 {
                let (a, b) = (rng.random_range(0..n), rng.random_range(0..n));
                let exact = inc.swap_delta(a, b);
                let limit = limit_near(&mut rng, exact);
                match inc.swap_delta_if_below(a, b, limit) {
                    None => prop_assert!(exact >= limit, "swap ({a},{b}) screened: {exact} < {limit}"),
                    Some(d) => prop_assert_eq!(d.to_bits(), exact.to_bits()),
                }
                let i = rng.random_range(0..n);
                let to = geonet::SiteId(rng.random_range(0..m));
                let exact = inc.move_delta(i, to);
                let limit = limit_near(&mut rng, exact);
                match inc.move_delta_if_below(i, to, limit) {
                    None => prop_assert!(exact >= limit, "move ({i}→{to:?}) screened: {exact} < {limit}"),
                    Some(d) => prop_assert_eq!(d.to_bits(), exact.to_bits()),
                }
                prop_assert!(full.swap_delta_if_below(a, b, f64::NEG_INFINITY).is_some());
            }
            apply_random(&mut inc, &mut rng, n, m);
            let fresh = CostEvaluator::new(&tables, inc.sites().to_vec());
            prop_assert!((inc.total() - fresh.total()).abs() <= 1e-9 * scale);
            for i in 0..n {
                for s in 0..m {
                    let (got, want) = (inc.site_cost(i, geonet::SiteId(s)), fresh.site_cost(i, geonet::SiteId(s)));
                    prop_assert!(
                        (got - want).abs() <= 1e-9 * want.abs(),
                        "site_cost({i}, {s}) drifted: {got} vs fresh {want}"
                    );
                }
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]
    /// Property 5: the site-bucket bound is sound and the row kernel is
    /// the screened loop, sped up. Over random networks (half of them
    /// with negative cross terms, where the bound must fall back),
    /// movable sets and apply sequences: whenever
    /// `bucket_rejects(a, s, scope, t)` holds, every movable `b` on
    /// `s` has an exact `swap_delta(a, b) >= t`, at thresholds right at
    /// and just above each of those deltas; and `first_improving_swap`,
    /// over a full-pair range and over a sparse list, returns bitwise
    /// the hit and the count of a plain loop over `swap_delta_if_below`.
    #[test]
    fn prop_bucket_bound_is_sound(seed in 0u64..10_000) {
        let mut rng = StdRng::seed_from_u64(seed ^ 0xB0C4);
        let n = rng.random_range(4..40usize);
        let m = rng.random_range(2..6usize);
        let problem = random_problem_on(n, m, seed, rng.random_bool(0.5));
        let tables = CostTables::build(&problem, CostModel::Full);
        let mut inc = CostEvaluator::new(&tables, random_assignment(&problem, &mut rng));
        let members: Vec<bool> = (0..n).map(|_| rng.random_bool(0.8)).collect();
        let permits = |i: usize, s: geonet::SiteId| !(i + s.index()).is_multiple_of(7);
        let scope = SwapScope::new(n, |i| members[i], &permits);
        let movable = scope.movable();
        let scale = inc.total().abs().max(1.0);
        for _ in 0..24 {
            for a in 0..n {
                let sa = inc.sites()[a];
                for s in (0..m).map(geonet::SiteId).filter(|&s| s != sa) {
                    let bucket: Vec<(usize, f64)> = (0..n)
                        .filter(|&b| members[b] && inc.sites()[b] == s)
                        .map(|b| (b, inc.swap_delta(a, b)))
                        .collect();
                    let mut limits = vec![rng.random_range(-1.0..1.0) * scale];
                    for &(_, d) in &bucket {
                        limits.extend([d, d.next_up()]);
                    }
                    for t in limits {
                        if inc.bucket_rejects(a, s, &scope, t) {
                            for &(b, d) in &bucket {
                                prop_assert!(d >= t, "bucket ({a}, {s:?}) rejected at {t}, but swap ({a},{b}) = {d}");
                            }
                        }
                    }
                }
                let threshold = match rng.random_range(0..3u32) {
                    0 => -1e-12,
                    1 => inc.swap_delta(a, rng.random_range(0..n)).next_up(),
                    _ => rng.random_range(-0.5..0.5) * scale,
                };
                let sparse: Vec<u32> = (a as u32 + 1..n as u32).filter(|_| rng.random_bool(0.3)).collect();
                for candidates in [Candidates::Range(a + 1..n), Candidates::List(&sparse)] {
                    let (mut want, mut want_evaluated) = (None, 0u64);
                    for b in candidates.iter() {
                        let sb = inc.sites()[b];
                        if !movable.contains(b) || sb == sa || !permits(a, sb) || !permits(b, sa) {
                            continue;
                        }
                        want_evaluated += 1;
                        if let Some(d) = inc.swap_delta_if_below(a, b, threshold).filter(|&d| d < threshold) {
                            want = Some((b, d));
                            break;
                        }
                    }
                    let (hit, evaluated) = inc.first_improving_swap(a, candidates, &scope, threshold);
                    prop_assert_eq!(
                        hit.map(|(b, d)| (b, d.to_bits())),
                        want.map(|(b, d)| (b, d.to_bits())),
                        "row {} at threshold {}", a, threshold
                    );
                    prop_assert_eq!(evaluated, want_evaluated);
                }
            }
            apply_random(&mut inc, &mut rng, n, m);
        }
    }
}

/// Exhaustive: all N·(N−1)/2 swaps on every instance with N ≤ 16, under
/// all three cost models, against a brute-force recompute.
#[test]
fn exhaustive_all_swaps_small_instances() {
    for n in [2usize, 3, 5, 8, 12, 16] {
        for seed in 0..4u64 {
            let m = (n / 2).clamp(2, 5);
            let problem = random_problem(n, m, seed.wrapping_mul(977).wrapping_add(n as u64));
            let mut rng = StdRng::seed_from_u64(seed ^ n as u64);
            let sites = random_assignment(&problem, &mut rng);
            for model in [
                CostModel::Full,
                CostModel::LatencyOnly,
                CostModel::BandwidthOnly,
            ] {
                let tables = CostTables::build(&problem, model);
                let eval = CostEvaluator::new(&tables, sites.clone());
                let base = tables.total(&sites);
                for a in 0..n {
                    for b in (a + 1)..n {
                        let mut swapped = sites.clone();
                        swapped.swap(a, b);
                        let want = if sites[a] == sites[b] {
                            0.0
                        } else {
                            tables.total(&swapped) - base
                        };
                        assert_close(
                            &format!("n={n} seed={seed} {model:?} swap ({a},{b})"),
                            eval.swap_delta(a, b),
                            want,
                            base,
                        );
                    }
                }
            }
        }
    }
}

/// The flat tables agree with the reference `cost_with_model` path on
/// real application workloads (the two are independent implementations
/// of Eq. 3).
#[test]
fn tables_match_reference_cost_on_paper_workloads() {
    let net = presets::paper_ec2_network(16, InstanceType::M4Xlarge, 7);
    for &app in AppKind::ALL.iter() {
        let problem = MappingProblem::unconstrained(app.workload(64).pattern(), net.clone());
        let mut rng = StdRng::seed_from_u64(11);
        let sites = random_assignment(&problem, &mut rng);
        let mapping = Mapping::new(sites.clone());
        for model in [
            CostModel::Full,
            CostModel::LatencyOnly,
            CostModel::BandwidthOnly,
        ] {
            let tables = CostTables::build(&problem, model);
            let want = cost_with_model(&problem, &mapping, model);
            assert_close(
                &format!("{} {model:?}", app.name()),
                tables.total(&sites),
                want,
                want,
            );
        }
    }
}

/// Oracle regression (Fig. 5 mini-setup: 4 sites × 16 nodes, N = 64):
/// GeoMapper's refinement produces bit-identical mappings on the
/// incremental engine and on the full-recompute oracle, for all five
/// paper workloads.
#[test]
fn geo_mapper_identical_on_both_engines_fig5_mini() {
    let net = presets::paper_ec2_network(16, InstanceType::M4Xlarge, 3);
    for &app in AppKind::ALL.iter() {
        let problem = MappingProblem::unconstrained(app.workload(64).pattern(), net.clone());
        let incremental = GeoMapper {
            evaluation: Evaluation::Incremental,
            ..GeoMapper::default()
        }
        .map(&problem);
        let oracle = GeoMapper {
            evaluation: Evaluation::FullRecompute,
            ..GeoMapper::default()
        }
        .map(&problem);
        assert_eq!(
            incremental,
            oracle,
            "{}: refinement diverged between incremental and oracle evaluation",
            app.name()
        );
    }
}

/// Same regression with data-movement constraints in play.
#[test]
fn geo_mapper_identical_on_both_engines_with_constraints() {
    let net = presets::paper_ec2_network(16, InstanceType::M4Xlarge, 5);
    let pattern = AppKind::KMeans.workload(64).pattern();
    let constraints = ConstraintVector::random(64, 0.2, &net.capacities(), 17);
    let problem = MappingProblem::new(pattern, net, constraints);
    let incremental = GeoMapper {
        evaluation: Evaluation::Incremental,
        ..GeoMapper::default()
    }
    .map(&problem);
    let oracle = GeoMapper {
        evaluation: Evaluation::FullRecompute,
        ..GeoMapper::default()
    }
    .map(&problem);
    assert_eq!(incremental, oracle);
}

/// Work-ratio acceptance check: at N = 1024 a full partner-edge
/// hill-climb pass evaluates ≥10× fewer α–β terms on the incremental
/// engine than on the full-recompute oracle.
#[test]
fn incremental_engine_saves_10x_terms_at_n1024() {
    let net = presets::paper_ec2_network(256, InstanceType::M4Xlarge, 1);
    let problem = MappingProblem::unconstrained(AppKind::Lu.workload(1024).pattern(), net);
    let tables = CostTables::build(&problem, CostModel::Full);
    let mut rng = StdRng::seed_from_u64(2);
    let sites = random_assignment(&problem, &mut rng);

    let counted_pass = |evaluation: Evaluation| -> (u64, Vec<geonet::SiteId>) {
        let mut eval = evaluation.evaluator(&tables, sites.clone());
        let before = eval.terms();
        let swaps = SwapScope::new(sites.len(), |_| true, &|_, _| true);
        Climb::new(eval.as_mut(), geomap_core::TraceScope::off()).first_sweep(&swaps);
        (eval.terms() - before, eval.sites().to_vec())
    };

    let (inc_terms, inc_sites) = counted_pass(Evaluation::Incremental);
    let (full_terms, full_sites) = counted_pass(Evaluation::FullRecompute);
    assert_eq!(
        inc_sites, full_sites,
        "the two engines must take identical sweeps"
    );
    assert!(
        full_terms >= 10 * inc_terms,
        "expected ≥10× term savings at N=1024: incremental {inc_terms}, full {full_terms}"
    );
}

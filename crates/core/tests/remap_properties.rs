//! Property harness for the bounded-migration incremental re-solver.
//!
//! Four laws, each over randomized problems, randomized feasible
//! starting assignments, and randomized budgets (proptest):
//!
//! 1. **Budget** — the repair never moves more ranks than the migration
//!    budget allows, and `moved` is exactly the set of ranks whose site
//!    changed from the start.
//! 2. **Pins** — a rank pinned by the Eq. 5 constraint vector never
//!    moves, whatever the budget.
//! 3. **Monotonicity** — the repaired Eq. 3 cost never exceeds the
//!    starting cost. This holds for *every* α ≥ 0: the search starts at
//!    the current placement (zero migrations), so any accepted endpoint
//!    satisfies `cost_new + α·moved ≤ cost_start`, hence
//!    `cost_new ≤ cost_start`.
//! 4. **Oracle** — with the budget non-binding (`None`) and α = 0 the
//!    repair *is* the cold re-solve: same passes over the same
//!    neighborhood from the same start, bit-identical mapping and cost.

use commgraph::pattern::PatternBuilder;
use commgraph::CommPattern;
use geomap_core::{
    cold_resolve, cost, repair, ConstraintVector, Mapping, MappingProblem, RemapConfig,
};
use geonet::{GeoCoord, Site, SiteId, SiteNetwork, SquareMatrix};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

/// Random problem: `n` processes over `m` sites with random directed
/// traffic and random positive `LT`/`BT`; half the instances carry
/// random pin constraints.
fn random_problem(n: usize, m: usize, seed: u64) -> MappingProblem {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut b = PatternBuilder::new(n);
    for _ in 0..(n * 3).max(4) {
        let src = rng.random_range(0..n);
        let dst = rng.random_range(0..n);
        if src == dst {
            continue;
        }
        b.record_many(
            src,
            dst,
            rng.random_range(1..2_000_000u64),
            rng.random_range(1..64u64),
        );
    }
    let pattern = ensure_nonempty(b.build(), n);
    // A little slack above perfectly-tight capacity so repairs have
    // somewhere to move ranks to.
    let per_site = n.div_ceil(m) + 1;
    let sites: Vec<Site> = (0..m)
        .map(|k| Site::new(format!("s{k}"), GeoCoord::new(k as f64, 0.0), per_site))
        .collect();
    let lt = SquareMatrix::from_fn(m, |k, l| {
        if k == l {
            rng.random_range(1e-5..1e-4)
        } else {
            rng.random_range(1e-3..0.2)
        }
    });
    let bt = SquareMatrix::from_fn(m, |k, l| {
        if k == l {
            rng.random_range(1e9..1e10)
        } else {
            rng.random_range(1e6..1e8)
        }
    });
    let net = SiteNetwork::new(sites, lt, bt);
    let constraints = if rng.random_bool(0.5) {
        ConstraintVector::random(
            n,
            rng.random_range(0.1..0.4),
            &net.capacities(),
            seed ^ 0xC1,
        )
    } else {
        ConstraintVector::none(n)
    };
    MappingProblem::new(pattern, net, constraints)
}

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

/// Random feasible starting assignment honouring capacities and pins —
/// the "current placement" a drift event leaves behind.
fn random_start(problem: &MappingProblem, rng: &mut StdRng) -> Mapping {
    let n = problem.num_processes();
    let mut free = problem.free_capacities();
    let mut sites: Vec<Option<SiteId>> = (0..n).map(|i| problem.constraints().pin_of(i)).collect();
    for s in sites.iter_mut() {
        if s.is_none() {
            loop {
                let k = rng.random_range(0..free.len());
                if free[k] > 0 {
                    free[k] -= 1;
                    *s = Some(SiteId(k));
                    break;
                }
            }
        }
    }
    Mapping::new(sites.into_iter().map(|s| s.unwrap()).collect())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Properties 1–3 in one sweep: budget respected, `moved` exact,
    /// pins immobile, Eq. 3 cost monotone — across random budgets and
    /// random α (including α = 0 and large α).
    #[test]
    fn prop_budget_pins_and_monotonicity(seed in 0u64..10_000) {
        let mut rng = StdRng::seed_from_u64(seed ^ 0x2EA1);
        let n = rng.random_range(6..48usize);
        let m = rng.random_range(2..6usize);
        let problem = random_problem(n, m, seed);
        let start = random_start(&problem, &mut rng);
        let start_cost = cost(&problem, &start);

        let budget = rng.random_range(0..=n);
        let alpha = [0.0, 1e-6, start_cost.abs() * 0.01][rng.random_range(0..3usize)];
        let outcome = repair(
            &problem,
            &start,
            &RemapConfig { budget: Some(budget), alpha, ..RemapConfig::default() },
        );

        // Budget: migrations never exceed it, and `moved` is exactly
        // the diff against the start.
        let diff: Vec<usize> = (0..n)
            .filter(|&i| outcome.mapping.site_of(i) != start.site_of(i))
            .collect();
        prop_assert!(diff.len() <= budget,
            "moved {} ranks past a budget of {budget}", diff.len());
        let mut moved = outcome.moved.clone();
        moved.sort_unstable();
        prop_assert_eq!(moved, diff, "`moved` is not the exact start diff");

        // Pins: Eq. 5 holds on the repaired placement and no pinned
        // rank changed site.
        prop_assert!(problem.constraints().satisfied_by(outcome.mapping.as_slice()));
        for i in 0..n {
            if let Some(pin) = problem.constraints().pin_of(i) {
                prop_assert_eq!(outcome.mapping.site_of(i), pin);
                prop_assert_eq!(outcome.mapping.site_of(i), start.site_of(i));
            }
        }

        // Feasibility: the repair never overfills a site.
        prop_assert!(outcome.mapping.validate(&problem).is_ok());

        // Monotonicity: Eq. 3 never worsens, for any α ≥ 0.
        prop_assert!(outcome.new_cost <= outcome.old_cost + 1e-9 * start_cost.abs().max(1.0),
            "repair worsened Eq. 3: {} -> {}", outcome.old_cost, outcome.new_cost);
        // And the reported costs are real Eq. 3 evaluations.
        prop_assert!((outcome.old_cost - start_cost).abs() <= 1e-9 * start_cost.abs().max(1.0));
        let recomputed = cost(&problem, &outcome.mapping);
        prop_assert!((outcome.new_cost - recomputed).abs() <= 1e-9 * recomputed.abs().max(1.0),
            "reported new_cost {} vs recompute {}", outcome.new_cost, recomputed);
    }

    /// Property 4: unbounded, α = 0 repair is bit-identical to the
    /// cold-resolve oracle (same mapping, same cost bits).
    #[test]
    fn prop_unbounded_repair_matches_cold_resolve(seed in 0u64..10_000) {
        let mut rng = StdRng::seed_from_u64(seed ^ 0x01D);
        let n = rng.random_range(6..40usize);
        let m = rng.random_range(2..5usize);
        let problem = random_problem(n, m, seed ^ 0xFACE);
        let start = random_start(&problem, &mut rng);

        let config = RemapConfig { budget: None, alpha: 0.0, ..RemapConfig::default() };
        let repaired = repair(&problem, &start, &config);
        let oracle = cold_resolve(&problem, &start, config.passes);

        prop_assert_eq!(repaired.mapping.as_slice(), oracle.mapping.as_slice(),
            "unbounded repair diverged from the cold-resolve oracle");
        prop_assert_eq!(repaired.new_cost.to_bits(), oracle.new_cost.to_bits());
        prop_assert_eq!(repaired.passes_run, oracle.passes_run);
    }

    /// Degenerate budgets behave: zero budget is a no-op that still
    /// reports honest costs.
    #[test]
    fn prop_zero_budget_changes_nothing(seed in 0u64..10_000) {
        let mut rng = StdRng::seed_from_u64(seed ^ 0x2E20);
        let n = rng.random_range(4..32usize);
        let problem = random_problem(n, 3, seed ^ 0xBEEF);
        let start = random_start(&problem, &mut rng);
        let outcome = repair(
            &problem,
            &start,
            &RemapConfig { budget: Some(0), alpha: 0.0, ..RemapConfig::default() },
        );
        prop_assert_eq!(outcome.mapping.as_slice(), start.as_slice());
        prop_assert!(outcome.moved.is_empty());
        prop_assert_eq!(outcome.new_cost.to_bits(), outcome.old_cost.to_bits());
    }
}

/// K-means N=128 solved by `GeoMapper` on the 4-region EC2 preset with
/// 40 nodes per region (spare room, so repairs can move as well as
/// swap), then region 0's WAN links degrade: latency ×16, bandwidth
/// ÷16. Returns the drifted problem and the mapping solved before it.
fn drifted_kmeans_128() -> (MappingProblem, Mapping) {
    use commgraph::apps::AppKind;
    use geomap_core::{GeoMapper, Mapper};
    let net = geonet::presets::paper_ec2_network(40, geonet::InstanceType::M4Xlarge, 1);
    let pattern = AppKind::KMeans.workload(128).pattern();
    let solved =
        GeoMapper::default().map(&MappingProblem::unconstrained(pattern.clone(), net.clone()));
    let m = net.num_sites();
    let hit = |k: usize, l: usize| k != l && (k == 0 || l == 0);
    let lt = SquareMatrix::from_fn(m, |k, l| {
        let base = net.latency(SiteId(k), SiteId(l));
        if hit(k, l) {
            base * 16.0
        } else {
            base
        }
    });
    let bt = SquareMatrix::from_fn(m, |k, l| {
        let base = net.bandwidth(SiteId(k), SiteId(l));
        if hit(k, l) {
            base / 16.0
        } else {
            base
        }
    });
    let drifted = SiteNetwork::new(net.sites().to_vec(), lt, bt);
    (MappingProblem::unconstrained(pattern, drifted), solved)
}

/// Exact trajectories of two repairs of [`drifted_kmeans_128`]: a
/// priced one (α = 0.1 % of the drifted cost per migration) under a
/// 10 % budget, and an unbounded α = 0 one.
#[test]
fn kmeans_128_repair_trajectories_are_pinned() {
    let (problem, start) = drifted_kmeans_128();
    let priced = repair(
        &problem,
        &start,
        &RemapConfig {
            budget: Some(12),
            alpha: 1e-3 * cost(&problem, &start),
            ..RemapConfig::default()
        },
    );
    let free = repair(&problem, &start, &RemapConfig::default());
    assert_eq!(
        (priced.ops, priced.passes_run, priced.terms),
        (10, 3, 61_732)
    );
    assert_eq!(priced.moved, [4, 6, 21, 22, 37, 39, 68, 70, 80, 81, 82, 83]);
    assert_eq!(priced.new_cost.to_bits(), 0x40a2_a3d9_75a9_720a);
    assert_eq!((free.ops, free.passes_run, free.terms), (29, 4, 163_200));
    assert_eq!(
        free.moved,
        [0, 4, 6, 16, 80, 81, 82, 83, 84, 85, 86, 87, 116, 117, 124, 125]
    );
    assert_eq!(free.new_cost.to_bits(), 0x40a2_9bd4_1f92_403c);
}

//! Online remapping: bounded-migration repair of a drifted mapping.
//!
//! The SC'17 formulation is solve-once: Eq. 3 is minimized against a
//! calibration snapshot and the mapping is handed to the runtime. Real
//! geo-clouds drift — leases expire, nodes fail, link estimates go
//! stale — and re-solving cold throws away the one thing the runtime
//! already paid for: the current placement. Following the warm-start
//! local-search line of work (Schulz & Träff's process-mapping
//! refinement), [`repair`] points the PR 1 Δ-cost engine
//! ([`crate::delta`]) at the *current* mapping and searches for the
//! cheapest repair under a combined objective
//!
//! ```text
//! Eq3_cost(P) + α · |{i : P_i ≠ P⁰_i}|
//! ```
//!
//! where `P⁰` is the starting (drifted) mapping and `α` prices one rank
//! migration. Two knobs bound the blast radius:
//!
//! * a **hard migration budget** — the repair never displaces more than
//!   `budget` ranks from where they currently run, no matter how
//!   profitable a larger rearrangement would be;
//! * **pin preservation** — ranks pinned by the problem's
//!   [`ConstraintVector`] never move (Eq. 5 keeps holding).
//!
//! Because the search starts at `P⁰` (zero migrations) and only ever
//! accepts operations that strictly decrease the combined objective,
//! the repaired Eq. 3 cost can never exceed the starting cost:
//! `cost(P) = obj(P) − α·moved ≤ obj(P) ≤ obj(P⁰) = cost(P⁰)`. The
//! property suite (`tests/remap_properties.rs`) pins this, the budget,
//! and the pins.
//!
//! [`cold_resolve`] is the oracle twin: the identical search with the
//! budget and the migration price removed. A repair whose budget is
//! non-binding must walk the exact same trajectory, so equivalence
//! tests compare the two mappings element-wise.

use crate::constraint::ConstraintVector;
use crate::cost::CostModel;
use crate::delta::{CostEval, CostEvaluator, CostTables};
use crate::mapping::Mapping;
use crate::problem::MappingProblem;
use geonet::SiteId;

/// Accept threshold shared with the delta engine's hill climb: a
/// candidate must beat the current objective by more than this (in the
/// negative direction) to be applied, so float dust never loops.
const IMPROVEMENT_EPS: f64 = -1e-9;

/// Tuning for one [`repair`] call.
#[derive(Debug, Clone)]
pub struct RemapConfig {
    /// Hard migration budget: the repaired mapping may differ from the
    /// starting mapping on at most this many ranks. `None` is
    /// unbounded (the cold-resolve regime).
    pub budget: Option<usize>,
    /// Price of one migrated rank in Eq. 3 cost units. `0.0` optimizes
    /// cost alone (subject to the budget); larger values prefer
    /// staying put unless the communication win pays for the move.
    pub alpha: f64,
    /// Maximum improvement sweeps over all ranks.
    pub passes: usize,
    /// Cost model folded into the tables (Eq. 3 by default).
    pub model: CostModel,
}

impl Default for RemapConfig {
    fn default() -> Self {
        Self {
            budget: None,
            alpha: 0.0,
            passes: 16,
            model: CostModel::Full,
        }
    }
}

/// What a repair did.
#[derive(Debug, Clone)]
pub struct RemapOutcome {
    /// The repaired mapping.
    pub mapping: Mapping,
    /// Eq. 3 cost of the starting mapping.
    pub old_cost: f64,
    /// Eq. 3 cost of the repaired mapping (`≤ old_cost` always).
    pub new_cost: f64,
    /// Ranks whose site changed vs. the starting mapping, ascending.
    pub moved: Vec<usize>,
    /// Operations (moves + swaps) the search accepted.
    pub ops: usize,
    /// Improvement sweeps actually run (≤ `config.passes`).
    pub passes_run: usize,
    /// α–β terms the Δ-engine evaluated (work metric).
    pub terms: u64,
}

impl RemapOutcome {
    /// Number of migrated ranks (`moved.len()`).
    pub fn migrations(&self) -> usize {
        self.moved.len()
    }

    /// The combined objective of the repaired mapping under `alpha`.
    pub fn objective(&self, alpha: f64) -> f64 {
        #[allow(clippy::cast_precision_loss)] // rank counts are small
        let m = self.moved.len() as f64;
        self.new_cost + alpha * m
    }
}

/// Migration bookkeeping against the starting assignment: how many
/// ranks currently deviate, and how an operation changes that count.
struct MigrationLedger {
    origin: Vec<SiteId>,
    moved: usize,
}

impl MigrationLedger {
    fn new(origin: Vec<SiteId>) -> Self {
        Self { origin, moved: 0 }
    }

    /// Change in the deviation count if `i` (currently at `from`)
    /// lands on `to`: `+1` leaving home, `-1` returning home, else 0.
    fn delta(&self, i: usize, from: SiteId, to: SiteId) -> isize {
        let home = self.origin[i];
        isize::from(to != home) - isize::from(from != home)
    }

    fn apply(&mut self, d: isize) {
        self.moved = self
            .moved
            .checked_add_signed(d)
            .expect("migration count cannot go negative");
    }

    /// Whether an operation with deviation change `d` fits `budget`.
    fn fits(&self, d: isize, budget: Option<usize>) -> bool {
        let Some(budget) = budget else { return true };
        self.moved.saturating_add_signed(d) <= budget
    }
}

/// Repair `start` against `problem` under `config`: bounded-migration
/// local search from the current placement, via the incremental
/// Δ-cost evaluator.
///
/// # Panics
/// Panics if `start` does not cover the problem's processes or
/// violates its pin constraints — drift moves free ranks, never pinned
/// ones, so a pin-violating start is a caller bug, not churn.
pub fn repair(problem: &MappingProblem, start: &Mapping, config: &RemapConfig) -> RemapOutcome {
    let tables = CostTables::build(problem, config.model);
    repair_with_tables(
        &tables,
        problem.constraints(),
        &problem.capacities(),
        start,
        config,
    )
}

/// [`repair`] against prebuilt tables (the service keeps tables cached
/// per problem; the bench reuses one build across budget sweeps).
/// `capacities` are the *live* per-site node capacities — pass the
/// inventory's current view, not the nominal cluster, so a repair
/// never migrates a rank onto a site that has no room today.
pub fn repair_with_tables(
    tables: &CostTables,
    constraints: &ConstraintVector,
    capacities: &[usize],
    start: &Mapping,
    config: &RemapConfig,
) -> RemapOutcome {
    let n = tables.num_processes();
    let m = tables.num_sites();
    assert_eq!(
        start.len(),
        n,
        "starting mapping covers {} ranks, problem has {n}",
        start.len()
    );
    assert_eq!(
        capacities.len(),
        m,
        "capacities cover {} sites, problem has {m}",
        capacities.len()
    );
    assert!(
        constraints.satisfied_by(start.as_slice()),
        "starting mapping violates pin constraints — pins never drift"
    );

    let origin = start.as_slice().to_vec();
    let mut counts = vec![0usize; m];
    for &s in &origin {
        counts[s.index()] += 1;
    }

    let mut eval = CostEvaluator::new(tables, origin.clone());
    let old_cost = eval.total();
    let mut ledger = MigrationLedger::new(origin);
    let mut ops = 0usize;
    let mut passes_run = 0usize;

    for _ in 0..config.passes {
        passes_run += 1;
        let mut improved = false;
        for i in 0..n {
            if constraints.pin_of(i).is_some() {
                continue;
            }
            // Best operation rooted at rank i: a move to any site with
            // spare capacity, or a swap with a communication partner
            // (the classic QAP neighborhood, O(deg) candidates).
            let si = eval.sites()[i];
            let mut best: Option<(Candidate, f64)> = None;
            for s in 0..m {
                let to = SiteId(s);
                if to == si || counts[s] >= capacities[s] {
                    continue;
                }
                let mig = ledger.delta(i, si, to);
                if !ledger.fits(mig, config.budget) {
                    continue;
                }
                let bound = best.as_ref().map_or(IMPROVEMENT_EPS, |(_, b)| *b);
                let mig_cost = config.alpha * mig as f64;
                let Some(d) = eval.move_delta_if_below(i, to, bound - mig_cost) else {
                    continue;
                };
                let obj = d + mig_cost;
                if obj < bound {
                    best = Some((Candidate::Move(to, mig), obj));
                }
            }
            for k in 0..eval.peers(i).len() {
                let j = eval.peers(i)[k] as usize;
                if j == i || constraints.pin_of(j).is_some() {
                    continue;
                }
                let sj = eval.sites()[j];
                if sj == si {
                    continue;
                }
                let mig = ledger.delta(i, si, sj) + ledger.delta(j, sj, si);
                if !ledger.fits(mig, config.budget) {
                    continue;
                }
                let bound = best.as_ref().map_or(IMPROVEMENT_EPS, |(_, b)| *b);
                let mig_cost = config.alpha * mig as f64;
                let Some(d) = eval.swap_delta_if_below(i, j, bound - mig_cost) else {
                    continue;
                };
                let obj = d + mig_cost;
                if obj < bound {
                    best = Some((Candidate::Swap(j, mig), obj));
                }
            }
            if let Some((op, _)) = best {
                match op {
                    Candidate::Move(to, mig) => {
                        counts[si.index()] -= 1;
                        counts[to.index()] += 1;
                        eval.apply_move(i, to);
                        ledger.apply(mig);
                    }
                    Candidate::Swap(j, mig) => {
                        eval.apply_swap(i, j);
                        ledger.apply(mig);
                    }
                }
                ops += 1;
                improved = true;
            }
        }
        if !improved {
            break;
        }
    }

    let sites = eval.sites().to_vec();
    let moved: Vec<usize> = sites
        .iter()
        .zip(&ledger.origin)
        .enumerate()
        .filter(|(_, (now, home))| now != home)
        .map(|(i, _)| i)
        .collect();
    debug_assert_eq!(
        moved.len(),
        ledger.moved,
        "ledger drifted from the assignment"
    );
    if let Some(budget) = config.budget {
        debug_assert!(moved.len() <= budget, "budget violated");
    }
    let new_cost = eval.total();
    debug_assert!(
        new_cost <= old_cost + 1e-6 * old_cost.abs().max(1.0),
        "repair increased Eq. 3 cost: {old_cost} -> {new_cost}"
    );
    RemapOutcome {
        mapping: Mapping::new(sites),
        old_cost,
        new_cost,
        moved,
        ops,
        passes_run,
        terms: eval.terms(),
    }
}

/// One candidate operation rooted at a rank, with its migration-count
/// change.
enum Candidate {
    Move(SiteId, isize),
    Swap(usize, isize),
}

/// The cold-resolve oracle: the identical search with no migration
/// budget and no migration price — what a from-scratch local re-solve
/// of the drifted placement converges to. `repair` with a non-binding
/// budget and `alpha == 0` is definitionally equivalent (the property
/// suite compares the mappings element-wise); quality tests compare a
/// budgeted repair's cost against this oracle's.
pub fn cold_resolve(problem: &MappingProblem, start: &Mapping, passes: usize) -> RemapOutcome {
    repair(
        problem,
        start,
        &RemapConfig {
            budget: None,
            alpha: 0.0,
            passes,
            model: CostModel::Full,
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::cost;
    use commgraph::pattern::PatternBuilder;
    use geonet::{GeoCoord, Site, SiteNetwork, SquareMatrix};
    use rand::rngs::StdRng;
    use rand::{RngExt, SeedableRng};

    fn problem(n: usize, m: usize, seed: u64) -> MappingProblem {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut b = PatternBuilder::new(n);
        for i in 0..n {
            b.record_many(i, (i + 1) % n, 64 * 1024, 8);
        }
        for _ in 0..n {
            let src = rng.random_range(0..n);
            let dst = rng.random_range(0..n);
            if src != dst {
                b.record_many(src, dst, rng.random_range(1..1_000_000u64), 4);
            }
        }
        let sites: Vec<Site> = (0..m)
            .map(|k| {
                Site::new(
                    format!("s{k}"),
                    GeoCoord::new(k as f64, -(k as f64)),
                    n.div_ceil(m) + 1,
                )
            })
            .collect();
        let lt = SquareMatrix::from_fn(m, |k, l| {
            if k == l {
                1e-5
            } else {
                1e-3 * (1 + k + l) as f64
            }
        });
        let bt = SquareMatrix::from_fn(m, |k, l| {
            if k == l {
                1e10
            } else {
                1e7 / (1 + k + l) as f64
            }
        });
        MappingProblem::unconstrained(b.build(), SiteNetwork::new(sites, lt, bt))
    }

    fn drifted(problem: &MappingProblem, displace: usize, seed: u64) -> Mapping {
        // A feasible start, then `displace` random ranks shuffled onto
        // random sites with spare room (capacity-preserving drift).
        let caps = problem.capacities();
        let n = problem.num_processes();
        let mut rng = StdRng::seed_from_u64(seed);
        let mut counts = vec![0usize; caps.len()];
        let mut sites = Vec::with_capacity(n);
        for i in 0..n {
            let mut s = i % caps.len();
            while counts[s] >= caps[s] {
                s = (s + 1) % caps.len();
            }
            counts[s] += 1;
            sites.push(SiteId(s));
        }
        for _ in 0..displace {
            let i = rng.random_range(0..n);
            let to = rng.random_range(0..caps.len());
            if counts[to] < caps[to] {
                counts[sites[i].index()] -= 1;
                counts[to] += 1;
                sites[i] = SiteId(to);
            }
        }
        Mapping::new(sites)
    }

    #[test]
    fn repair_never_increases_cost_and_respects_budget() {
        let p = problem(48, 4, 7);
        let start = drifted(&p, 12, 99);
        let out = repair(
            &p,
            &start,
            &RemapConfig {
                budget: Some(6),
                alpha: 0.0,
                ..RemapConfig::default()
            },
        );
        assert!(out.migrations() <= 6);
        assert!(out.new_cost <= out.old_cost);
        assert!((cost(&p, &out.mapping) - out.new_cost).abs() < 1e-6 * out.old_cost.max(1.0));
        assert!(out.mapping.validate(&p).is_ok());
    }

    #[test]
    fn zero_budget_repair_is_the_identity() {
        let p = problem(32, 4, 3);
        let start = drifted(&p, 8, 5);
        let out = repair(
            &p,
            &start,
            &RemapConfig {
                budget: Some(0),
                ..RemapConfig::default()
            },
        );
        assert_eq!(out.mapping.as_slice(), start.as_slice());
        assert_eq!(out.migrations(), 0);
        assert_eq!(out.new_cost, out.old_cost);
    }

    #[test]
    fn pinned_ranks_never_move() {
        let p = problem(32, 4, 11);
        let start = drifted(&p, 10, 13);
        let mut pins = ConstraintVector::none(32);
        for i in [0usize, 7, 15, 31] {
            pins.pin(i, start.site_of(i));
        }
        let p = p.with_constraints(pins.clone());
        let out = repair(&p, &start, &RemapConfig::default());
        for i in [0usize, 7, 15, 31] {
            assert_eq!(out.mapping.site_of(i), start.site_of(i), "pin {i} moved");
        }
        assert!(pins.satisfied_by(out.mapping.as_slice()));
    }

    #[test]
    fn nonbinding_budget_matches_cold_resolve_exactly() {
        let p = problem(40, 5, 21);
        let start = drifted(&p, 14, 23);
        let cold = cold_resolve(&p, &start, 16);
        let warm = repair(
            &p,
            &start,
            &RemapConfig {
                budget: Some(40), // every rank may move: non-binding
                alpha: 0.0,
                ..RemapConfig::default()
            },
        );
        assert_eq!(warm.mapping.as_slice(), cold.mapping.as_slice());
        assert_eq!(warm.new_cost.to_bits(), cold.new_cost.to_bits());
    }

    #[test]
    fn alpha_trades_migrations_for_cost() {
        let p = problem(48, 4, 31);
        let start = drifted(&p, 16, 37);
        let free = repair(
            &p,
            &start,
            &RemapConfig {
                alpha: 0.0,
                ..RemapConfig::default()
            },
        );
        let priced = repair(
            &p,
            &start,
            &RemapConfig {
                alpha: free.old_cost, // one migration costs the whole map
                ..RemapConfig::default()
            },
        );
        assert!(priced.migrations() <= free.migrations());
    }

    #[test]
    fn repair_never_overfills_a_site() {
        let p = problem(48, 4, 41);
        let start = drifted(&p, 20, 43);
        let out = repair(&p, &start, &RemapConfig::default());
        let caps = p.capacities();
        let counts = out.mapping.site_counts(caps.len());
        for (j, (&c, &cap)) in counts.iter().zip(&caps).enumerate() {
            assert!(c <= cap, "site {j}: {c} > capacity {cap}");
        }
    }
}

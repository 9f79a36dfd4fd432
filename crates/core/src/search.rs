//! The one local-search driver: every improving operation a mapper
//! applies goes through a [`Climb`] over a [`CostEval`]. A climb visits
//! roots in the caller's order and picks operations by one of three
//! acceptance rules:
//!
//! * [`Climb::first_sweep`] — the first improving swap of each row (the
//!   Geo polish; multilevel classes above `SWAP_SCAN_LIMIT` members);
//! * `Climb::best_sweep` — the best improving move, or swap with a
//!   partner, of each root (repair; multilevel's move pass);
//! * [`Climb::steepest`] — the best improving swap among all pairs, one
//!   scan per step (MPIPP; multilevel classes of at most
//!   `SWAP_SCAN_LIMIT`).
//!
//! It keeps one [`SearchStats`], traces a `pass` span per sweep or scan
//! and a `swap` or `move` instant per accepted operation, and takes one
//! priced input, a `MigrationLedger`.

use crate::delta::{Candidates, CostEval, CostTables, Evaluation, ProcessSet, SwapScope};
use crate::mapping::Mapping;
use crate::metrics::Metrics;
use crate::trace::TraceScope;
use geonet::SiteId;

/// Below this process count a first-improvement row holds every later
/// process; above it, only the later communication partners.
pub(crate) const FULL_PAIR_LIMIT: usize = 256;

/// Multilevel weight classes of at most this many members climb by
/// steepest descent, larger ones by first improvement. Kept small: a
/// class costs O(steps · class²) evaluations.
pub(crate) const SWAP_SCAN_LIMIT: usize = 64;

/// Acceptance threshold of MPIPP's exchange rounds.
pub const EXCHANGE_EPS: f64 = -1e-15;

/// Acceptance threshold of the Geo polish and multilevel refinement.
pub(crate) const CLIMB_EPS: f64 = -1e-12;

/// Acceptance threshold of bounded-migration repair, on the priced
/// objective.
pub(crate) const REPAIR_EPS: f64 = -1e-9;

/// Relative tie band of the steepest scan: deltas within this fraction
/// of the total count as equal. Far above the ~1e-15 cross-engine
/// rounding noise, far below any meaningful cost difference.
const TIE_BAND_REL: f64 = 1e-12;

/// Counters of one search, accumulated in plain integers and emitted
/// once per phase, so the hot path carries no sink calls.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SearchStats {
    /// Sweeps and scans that offer swaps, each last one that found no
    /// improvement included.
    pub passes: u64,
    /// Eligible candidate swaps decided, whether by a bound, the screen
    /// or the exact Δ.
    pub swaps_evaluated: u64,
    /// Swaps actually applied.
    pub swaps_accepted: u64,
    /// Moves actually applied (not emitted).
    pub moves_accepted: u64,
    /// Random restarts taken (0 for single-start searches).
    pub restarts: u64,
    /// α–β terms the evaluator computed ([`CostEval::terms`] at the end
    /// of the search, including evaluator construction).
    pub terms: u64,
}

impl SearchStats {
    /// Field-wise accumulate `other` into `self` (merging restarts or
    /// refinement candidates).
    pub fn absorb(&mut self, other: SearchStats) {
        self.passes += other.passes;
        self.swaps_evaluated += other.swaps_evaluated;
        self.swaps_accepted += other.swaps_accepted;
        self.moves_accepted += other.moves_accepted;
        self.restarts += other.restarts;
        self.terms += other.terms;
    }

    /// Emit the standard `search.*` counters to `metrics` (no-op when
    /// the handle is off).
    pub fn emit(&self, metrics: &Metrics) {
        metrics.counter("search.passes", self.passes);
        metrics.counter("search.swaps_evaluated", self.swaps_evaluated);
        metrics.counter("search.swaps_accepted", self.swaps_accepted);
        metrics.counter("search.restarts", self.restarts);
        metrics.counter("search.terms", self.terms);
    }
}

/// Migrations against a starting assignment: a climb under a ledger
/// minimizes `cost + α · displaced` and never displaces more than
/// `budget` processes.
#[derive(Debug, Clone)]
pub(crate) struct MigrationLedger {
    origin: Vec<SiteId>,
    moved: usize,
    budget: Option<usize>,
    alpha: f64,
}

impl MigrationLedger {
    /// A ledger with nothing displaced from `origin` yet.
    pub(crate) fn new(origin: Vec<SiteId>, budget: Option<usize>, alpha: f64) -> Self {
        Self {
            origin,
            moved: 0,
            budget,
            alpha,
        }
    }
}

/// The change in displaced processes if each `(i, from, to)` leg lands,
/// and its price under `ledger` (free without one); `None` when it would
/// exceed the budget.
fn quote(
    ledger: Option<&MigrationLedger>,
    legs: &[(usize, SiteId, SiteId)],
) -> Option<(isize, f64)> {
    let Some(l) = ledger else {
        return Some((0, 0.0));
    };
    let home = |i: usize, s: SiteId| isize::from(s != l.origin[i]);
    let d: isize = legs.iter().map(|&(i, f, t)| home(i, t) - home(i, f)).sum();
    let fits = l
        .budget
        .is_none_or(|b| l.moved.saturating_add_signed(d) <= b);
    fits.then_some((d, l.alpha * d as f64))
}

/// Per-site loads in weight units against capacities: a move needs room
/// for the mover's weight.
pub(crate) struct Room<'r> {
    loads: Vec<usize>,
    weights: &'r [usize],
    capacities: &'r [usize],
}

impl<'r> Room<'r> {
    /// The loads of `sites` under `weights`.
    pub(crate) fn new(sites: &[SiteId], weights: &'r [usize], capacities: &'r [usize]) -> Self {
        let mut loads = vec![0; capacities.len()];
        for (s, &w) in sites.iter().zip(weights) {
            loads[s.index()] += w;
        }
        Self {
            loads,
            weights,
            capacities,
        }
    }
}

/// One local search over an evaluator. See the module doc for the three
/// rules; callers compose them into passes.
pub struct Climb<'a, E: CostEval + ?Sized> {
    eval: &'a mut E,
    scope: TraceScope<'a>,
    ledger: Option<MigrationLedger>,
    stats: SearchStats,
    partners: Vec<u32>,
}

impl<'a, E: CostEval + ?Sized> Climb<'a, E> {
    /// A climb from `eval`'s assignment, tracing to `scope`.
    pub fn new(eval: &'a mut E, scope: TraceScope<'a>) -> Self {
        Self {
            eval,
            scope,
            ledger: None,
            stats: SearchStats::default(),
            partners: Vec::new(),
        }
    }

    /// Price and bound the climb's operations by `ledger` (best-per-root
    /// sweeps only).
    pub(crate) fn priced(self, ledger: MigrationLedger) -> Self {
        Self {
            ledger: Some(ledger),
            ..self
        }
    }

    /// The current total cost.
    pub fn total(&self) -> f64 {
        self.eval.total()
    }

    /// The counters so far, with `terms` read from the evaluator.
    pub fn finish(self) -> SearchStats {
        SearchStats {
            terms: self.eval.terms(),
            ..self.stats
        }
    }

    fn swap(&mut self, a: usize, b: usize, delta: f64, mig: isize) {
        self.eval.apply_swap(a, b, delta);
        self.stats.swaps_accepted += 1;
        self.settle(mig, "swap");
    }

    fn relocate(&mut self, i: usize, to: SiteId, delta: f64, mig: isize, room: &mut Room<'_>) {
        room.loads[self.eval.sites()[i].index()] -= room.weights[i];
        room.loads[to.index()] += room.weights[i];
        self.eval.apply_move(i, to, delta);
        self.stats.moves_accepted += 1;
        self.settle(mig, "move");
    }

    fn settle(&mut self, mig: isize, what: &'static str) {
        if let Some(l) = &mut self.ledger {
            l.moved = l.moved.checked_add_signed(mig).expect("moved count < 0");
        }
        self.scope.instant(what);
    }

    /// One first-improvement sweep over `swaps`' movable processes,
    /// ascending. Each row is one [`CostEval::first_improving_swap`] call
    /// at `CLIMB_EPS`, plus one per accepted swap, after which the row
    /// goes on past the candidate it took. Rows are full pairs below
    /// `FULL_PAIR_LIMIT` processes, later partners above. Returns
    /// whether a swap was applied.
    pub fn first_sweep(&mut self, swaps: &SwapScope<'_>) -> bool {
        debug_assert!(self.ledger.is_none(), "first improvement is unpriced");
        let n = self.eval.sites().len();
        let mut partners = std::mem::take(&mut self.partners);
        self.stats.passes += 1;
        self.scope.span_begin("pass");
        let mut improved = false;
        for i in swaps.movable().iter() {
            let mut candidates = if n <= FULL_PAIR_LIMIT {
                Candidates::Range(i + 1..n)
            } else {
                let peers = self.eval.peers(i);
                partners.clear();
                partners.extend_from_slice(&peers[peers.partition_point(|&p| p as usize <= i)..]);
                Candidates::List(&partners)
            };
            loop {
                let (hit, evaluated) =
                    self.eval
                        .first_improving_swap(i, candidates.clone(), swaps, CLIMB_EPS);
                self.stats.swaps_evaluated += evaluated;
                let Some((j, d)) = hit else { break };
                self.swap(i, j, d, 0);
                improved = true;
                candidates = candidates.after(j);
            }
        }
        self.scope.span_end("pass");
        self.partners = partners;
        improved
    }

    /// One best-per-root sweep over `roots`, ascending. Each root takes
    /// its operation of lowest priced objective below `threshold`: a
    /// move to a site with `room` for it or, with `swaps`, a swap with a
    /// partner in `roots` (equal weights, so loads hold). Sites come
    /// first, then partners in CSR order; ties keep the earlier. Returns
    /// whether anything was applied.
    pub(crate) fn best_sweep(
        &mut self,
        roots: &ProcessSet,
        room: &mut Room<'_>,
        swaps: bool,
        threshold: f64,
    ) -> bool {
        if swaps {
            self.stats.passes += 1;
        }
        self.scope.span_begin("pass");
        let mut improved = false;
        for i in roots.iter() {
            let (eval, ledger) = (&*self.eval, self.ledger.as_ref());
            let si = eval.sites()[i];
            // The best operation so far: its target site, its partner if
            // it is a swap, its Δ, migration change and priced objective.
            let mut best: Option<(SiteId, Option<usize>, f64, isize, f64)> = None;
            for s in 0..room.loads.len() {
                let to = SiteId(s);
                if to == si || room.loads[s] + room.weights[i] > room.capacities[s] {
                    continue;
                }
                let Some((mig, price)) = quote(ledger, &[(i, si, to)]) else {
                    continue;
                };
                let bound = best.map_or(threshold, |b| b.4);
                let Some(d) = eval.move_delta_if_below(i, to, bound - price) else {
                    continue;
                };
                if d + price < bound {
                    best = Some((to, None, d, mig, d + price));
                }
            }
            let partners = if swaps { eval.peers(i) } else { &[] };
            for &j in partners {
                let j = j as usize;
                let sj = eval.sites()[j];
                if j == i || !roots.contains(j) || sj == si {
                    continue;
                }
                let Some((mig, price)) = quote(ledger, &[(i, si, sj), (j, sj, si)]) else {
                    continue;
                };
                self.stats.swaps_evaluated += 1;
                let bound = best.map_or(threshold, |b| b.4);
                let Some(d) = eval.swap_delta_if_below(i, j, bound - price) else {
                    continue;
                };
                if d + price < bound {
                    best = Some((sj, Some(j), d, mig, d + price));
                }
            }
            let Some((to, partner, d, mig, _)) = best else {
                continue;
            };
            match partner {
                Some(j) => self.swap(i, j, d, mig),
                None => self.relocate(i, to, d, mig, room),
            }
            improved = true;
        }
        self.scope.span_end("pass");
        improved
    }

    /// Steepest descent over `movable`: up to `cap` scans, each applying
    /// the best swap below `threshold`, stopping at a scan that finds
    /// none. Each scan is a pass. Every scan but such a last one
    /// applies a swap, so `cap` bounds scans and accepted swaps alike:
    /// MPIPP's `max_rounds`, counted in scans, and multilevel's
    /// 2·|class|, counted in accepted swaps, are the same cap. Returns
    /// whether a swap was applied.
    pub fn steepest(&mut self, movable: &[usize], threshold: f64, cap: usize) -> bool {
        debug_assert!(self.ledger.is_none(), "steepest descent is unpriced");
        let mut improved = false;
        for _ in 0..cap {
            self.stats.passes += 1;
            self.scope.span_begin("pass");
            let (best, evaluated) = best_improving_swap(&*self.eval, movable, threshold);
            self.stats.swaps_evaluated += evaluated;
            if let Some((a, b, d)) = best {
                self.swap(a, b, d, 0);
                improved = true;
            }
            self.scope.span_end("pass");
            if best.is_none() {
                break;
            }
        }
        improved
    }
}

/// Best improving swap among `movable` processes, strictly below
/// `threshold`: the lexicographically first pair whose Δ lies within a
/// noise band of the minimum Δ, and the number of Δ evaluations (min
/// scan + tie-band re-scan). The band keeps the choice the same on both
/// engines, which round differently in the last bits; on symmetric
/// patterns many swaps tie exactly. The min scan fans rows out on rayon
/// from 64 rows up; its reduction is schedule-independent.
pub(crate) fn best_improving_swap<E: CostEval + ?Sized>(
    eval: &E,
    movable: &[usize],
    threshold: f64,
) -> (Option<(usize, usize, f64)>, u64) {
    let row_best = |ai: usize| -> Option<(usize, usize, f64)> {
        let a = movable[ai];
        let mut best: Option<(usize, usize, f64)> = None;
        for &b in &movable[ai + 1..] {
            let limit = best.map_or(threshold, |(_, _, bd)| bd);
            let Some(d) = eval.swap_delta_if_below(a, b, limit) else {
                continue;
            };
            if d < threshold && best.is_none_or(|(_, _, bd)| d < bd) {
                best = Some((a, b, d));
            }
        }
        best
    };
    let per_row: Vec<Option<(usize, usize, f64)>> = if movable.len() >= 64 {
        use rayon::prelude::*;
        (0..movable.len()).into_par_iter().map(row_best).collect()
    } else {
        (0..movable.len()).map(row_best).collect()
    };
    // The min scan evaluates every unordered movable pair exactly once.
    let len = movable.len() as u64;
    let mut evaluated = len * len.saturating_sub(1) / 2;
    let min = per_row
        .iter()
        .flatten()
        .map(|&(_, _, d)| d)
        .fold(f64::INFINITY, f64::min);
    if min == f64::INFINITY {
        return (None, evaluated);
    }
    // Second pass: earliest pair inside the tie band. A row whose own
    // minimum lies above the band cannot contain one; the rest are
    // re-scanned in order, short-circuiting at the first hit.
    let band = min + TIE_BAND_REL * eval.total().abs().max(1.0);
    // Screened out means Δ ≥ limit, hence Δ > band or Δ ≥ threshold.
    let limit = threshold.min(band.next_up());
    for (ai, row) in per_row.iter().enumerate() {
        let Some((_, _, rd)) = row else { continue };
        if *rd > band {
            continue;
        }
        let a = movable[ai];
        for &b in &movable[ai + 1..] {
            evaluated += 1;
            let Some(d) = eval.swap_delta_if_below(a, b, limit) else {
                continue;
            };
            if d < threshold && d <= band {
                return (Some((a, b, d)), evaluated);
            }
        }
    }
    unreachable!("the row containing the minimum is inside the band")
}

/// Polish `mapping` in place with up to `passes` first-improvement
/// sweeps over prebuilt `tables`. `movable(i)` gates which processes may
/// move and `permits(i, s)` whether `i` may sit on site `s`.
/// `stats.terms` includes the evaluator's construction: the work metric
/// Fig. 4 compares.
pub fn polish(
    tables: &CostTables,
    evaluation: Evaluation,
    mapping: &mut Mapping,
    passes: usize,
    movable: &dyn Fn(usize) -> bool,
    permits: &dyn Fn(usize, SiteId) -> bool,
    scope: TraceScope<'_>,
) -> SearchStats {
    let mut eval = evaluation.evaluator(tables, mapping.as_slice().to_vec());
    let swaps = SwapScope::new(mapping.len(), movable, permits);
    let mut climb = Climb::new(eval.as_mut(), scope);
    for _ in 0..passes {
        if !climb.first_sweep(&swaps) {
            break;
        }
    }
    let stats = climb.finish();
    if stats.swaps_accepted > 0 {
        *mapping = Mapping::new(eval.sites().to_vec());
    }
    stats
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::CostModel;
    use crate::delta::CostEvaluator;
    use crate::problem::MappingProblem;
    use commgraph::apps::{RandomGraph, Workload};
    use geonet::{presets, InstanceType};

    /// `steepest`'s cap bounds scans and accepted swaps at once: below
    /// the unbounded climb's length every one of its `cap` scans
    /// accepts, at that length it ends on the same assignment without
    /// a last scan, and above it the last scan finds nothing.
    #[test]
    fn steepest_cap_counts_scans_and_accepted_swaps_alike() {
        let net = presets::paper_ec2_network(8, InstanceType::M4Xlarge, 5);
        let pattern = RandomGraph {
            n: 32,
            degree: 4,
            max_bytes: 400_000,
            seed: 5,
        }
        .pattern();
        let problem = MappingProblem::unconstrained(pattern, net);
        let tables = CostTables::build(&problem, CostModel::Full);
        let start: Vec<SiteId> = (0..32).map(|i| SiteId(i % 4)).collect();
        let movable: Vec<usize> = (0..32).collect();
        let climb = |cap: usize| {
            let mut eval = CostEvaluator::new(&tables, start.clone());
            let mut climb = Climb::new(&mut eval, TraceScope::off());
            climb.steepest(&movable, CLIMB_EPS, cap);
            let stats = climb.finish();
            ((stats.passes, stats.swaps_accepted), eval.sites().to_vec())
        };
        let (full, end) = climb(usize::MAX);
        let steps = full.1;
        assert!(steps >= 2, "the climb takes {steps} steps");
        assert_eq!(full.0, steps + 1);
        for cap in 0..steps {
            assert_eq!(climb(cap as usize).0, (cap, cap));
        }
        assert_eq!(climb(steps as usize), ((steps, steps), end));
        assert_eq!(climb(steps as usize + 1).0, full);
    }
}

//! MPIPP — Chen et al.'s profile-guided process placement (ICS'06).
//!
//! MPIPP iteratively improves a random initial placement by pairwise
//! exchanges: each round evaluates the cost delta of swapping every
//! process pair mapped to different sites and applies the best
//! improving swap, until a local optimum. Several random restarts are
//! taken and the best local optimum wins. With `O(N²)` candidate pairs
//! per round and `O(N)`-ish rounds this is the `O(N³)` behaviour the
//! paper measures in Fig. 4 — much heavier than Greedy or
//! Geo-distributed, which is why the paper drops MPIPP beyond ~1000
//! processes.

use crate::random::random_mapping;
use geomap_core::delta::{best_improving_swap, CostTables, Evaluation, SearchStats};
use geomap_core::{cost, Mapper, Mapping, MappingProblem, Metrics, TraceScope};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Best-swap acceptance threshold (strictly improving, FP-noise-proof).
const SWAP_EPS: f64 = -1e-15;

/// The MPIPP baseline.
#[derive(Debug, Clone)]
pub struct MpippMapper {
    /// Random restarts.
    pub restarts: usize,
    /// Safety cap on exchange rounds per restart.
    pub max_rounds: usize,
    /// RNG seed for the initial placements.
    pub seed: u64,
    /// Δ-cost engine for the exchange rounds: the incremental default
    /// answers each candidate pair in `O(deg)`; the full-recompute
    /// oracle re-walks the pattern per pair (the seed's original
    /// behaviour, kept for verification).
    pub evaluation: Evaluation,
    /// Observability handle (off by default): restart count, exchange
    /// rounds, swaps evaluated vs. accepted, Eq. 3 terms touched; its
    /// trace gets `restart` and per-round `pass` spans plus
    /// accepted-`swap` instants on a `"search"/"MPIPP"` track.
    pub metrics: Metrics,
}

impl MpippMapper {
    /// Default configuration with an explicit seed.
    pub fn with_seed(seed: u64) -> Self {
        Self {
            seed,
            ..Self::default()
        }
    }
}

impl Default for MpippMapper {
    fn default() -> Self {
        Self {
            restarts: 4,
            max_rounds: 1000,
            seed: 0x3B1B,
            evaluation: Evaluation::Incremental,
            metrics: Metrics::off(),
        }
    }
}

impl MpippMapper {
    /// One local search from a random feasible start. Returns the local
    /// optimum, its exact cost, and the search counters of this restart.
    fn local_search(
        &self,
        problem: &MappingProblem,
        tables: &CostTables,
        rng: &mut StdRng,
        scope: TraceScope<'_>,
    ) -> (Mapping, f64, SearchStats) {
        let n = problem.num_processes();
        let constraints = problem.constraints();
        let mapping = random_mapping(problem, rng);

        // Constrained processes never move (their site is fixed by C).
        let movable: Vec<usize> = (0..n)
            .filter(|&i| constraints.pin_of(i).is_none())
            .collect();

        let mut stats = SearchStats::default();
        let mut eval = self
            .evaluation
            .evaluator(tables, mapping.as_slice().to_vec());
        for _ in 0..self.max_rounds {
            scope.span_begin("pass");
            let (swap, evaluated) = best_improving_swap(eval.as_ref(), &movable, SWAP_EPS);
            stats.passes += 1;
            stats.swaps_evaluated += evaluated;
            let Some((a, b, _)) = swap else {
                scope.span_end("pass");
                break;
            };
            eval.apply_swap(a, b);
            stats.swaps_accepted += 1;
            scope.instant("swap");
            scope.span_end("pass");
        }
        stats.terms = eval.terms();
        let mapping = Mapping::new(eval.sites().to_vec());
        // Guard against drift in the incremental deltas.
        let exact = cost::cost(problem, &mapping);
        debug_assert!((exact - eval.total()).abs() <= 1e-6 * exact.max(1.0));
        (mapping, exact, stats)
    }
}

impl Mapper for MpippMapper {
    fn name(&self) -> &'static str {
        "MPIPP"
    }

    fn map(&self, problem: &MappingProblem) -> Mapping {
        let metrics = self.metrics.scoped(self.name());
        let tables = CostTables::build(problem, geomap_core::CostModel::Full);
        let mut rng = StdRng::seed_from_u64(self.seed);
        let tscope = metrics.track("search", self.name());
        let (best, total) = metrics.timed("phase.refinement", || {
            let mut best: Option<(Mapping, f64)> = None;
            let mut total = SearchStats::default();
            for _ in 0..self.restarts.max(1) {
                tscope.span_begin("restart");
                let (m, c, stats) = self.local_search(problem, &tables, &mut rng, tscope);
                tscope.span_end("restart");
                total.absorb(stats);
                total.restarts += 1;
                if best.as_ref().is_none_or(|(_, bc)| c < *bc) {
                    best = Some((m, c));
                }
            }
            (best, total)
        });
        total.emit(&metrics);
        best.expect("at least one restart").0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::RandomMapper;
    use commgraph::apps::{AppKind, RandomGraph, Workload};
    use geomap_core::{cost, ConstraintVector};
    use geonet::{presets, InstanceType};

    fn problem(n: usize) -> MappingProblem {
        let net = presets::paper_ec2_network(n / 4, InstanceType::M4Xlarge, 1);
        let pat = RandomGraph {
            n,
            degree: 4,
            max_bytes: 500_000,
            seed: 8,
        }
        .pattern();
        MappingProblem::unconstrained(pat, net)
    }

    #[test]
    fn feasible_and_deterministic() {
        let p = problem(24);
        let m = MpippMapper::with_seed(5).map(&p);
        m.validate(&p).unwrap();
        assert_eq!(m, MpippMapper::with_seed(5).map(&p));
    }

    #[test]
    fn improves_over_its_own_random_start() {
        let p = problem(24);
        let mpipp_cost = cost(&p, &MpippMapper::with_seed(5).map(&p));
        // Average several random mappings as the reference.
        let avg: f64 = (0..10)
            .map(|s| cost(&p, &RandomMapper::with_seed(s).map(&p)))
            .sum::<f64>()
            / 10.0;
        assert!(mpipp_cost < avg, "{mpipp_cost} vs baseline avg {avg}");
    }

    #[test]
    fn local_optimum_has_no_improving_swap() {
        let p = problem(16);
        let m = MpippMapper {
            restarts: 1,
            ..MpippMapper::with_seed(2)
        }
        .map(&p);
        for a in 0..16 {
            for b in (a + 1)..16 {
                if m.site_of(a) != m.site_of(b) {
                    assert!(
                        geomap_core::cost::swap_delta(&p, &m, a, b) >= -1e-9,
                        "improving swap ({a},{b}) remains"
                    );
                }
            }
        }
    }

    #[test]
    fn respects_constraints() {
        let net = presets::paper_ec2_network(6, InstanceType::M4Xlarge, 1);
        let pat = AppKind::Lu.workload(24).pattern();
        let c = ConstraintVector::random(24, 0.3, &net.capacities(), 4);
        let p = MappingProblem::new(pat, net, c.clone());
        let m = MpippMapper::with_seed(6).map(&p);
        m.validate(&p).unwrap();
        assert!(c.satisfied_by(m.as_slice()));
    }

    #[test]
    fn identical_on_both_engines_fig5_mini() {
        // Oracle regression on the Fig. 5 mini-setup (4 sites × 16
        // nodes, N = 64): the incremental Δ-engine must drive MPIPP's
        // best-swap rounds to bit-identical mappings as the
        // full-recompute oracle, for all five paper workloads.
        use geomap_core::delta::Evaluation;
        let net = presets::paper_ec2_network(16, InstanceType::M4Xlarge, 3);
        for &app in AppKind::ALL.iter() {
            let p = MappingProblem::unconstrained(app.workload(64).pattern(), net.clone());
            let inc = MpippMapper {
                evaluation: Evaluation::Incremental,
                ..MpippMapper::default()
            }
            .map(&p);
            let full = MpippMapper {
                evaluation: Evaluation::FullRecompute,
                ..MpippMapper::default()
            }
            .map(&p);
            assert_eq!(inc, full, "{}: engines diverged", app.name());
        }
    }

    #[test]
    fn more_restarts_never_worse() {
        let p = problem(20);
        let one = cost(
            &p,
            &MpippMapper {
                restarts: 1,
                ..MpippMapper::with_seed(9)
            }
            .map(&p),
        );
        let four = cost(
            &p,
            &MpippMapper {
                restarts: 4,
                ..MpippMapper::with_seed(9)
            }
            .map(&p),
        );
        assert!(four <= one + 1e-9);
    }
}

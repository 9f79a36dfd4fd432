//! Monte Carlo mapping study (paper §5.4, Figs. 9 and 10).
//!
//! The paper samples random mappings (10⁷ draws) to obtain the cost
//! distribution, showing that Geo-distributed lands in the < 1 % tail,
//! and that best-of-K random search needs K ≈ 10⁴⁺ to approach it. This
//! module provides both: distribution sampling (rayon-parallel) and a
//! best-of-K mapper.

use crate::random::random_mapping;
use geomap_core::delta::{polish, CostTables, Evaluation};
use geomap_core::{cost, CostModel, Mapper, Mapping, MappingProblem, Metrics};
use rand::rngs::StdRng;
use rand::SeedableRng;
use rayon::prelude::*;

/// Best-of-K random search, doubling as the Fig. 9/10 sampler.
#[derive(Debug, Clone)]
pub struct MonteCarlo {
    /// Number of random mappings drawn.
    pub samples: usize,
    /// RNG seed.
    pub seed: u64,
    /// Swap hill-climb passes applied to the best sample before
    /// returning it (0 = plain best-of-K, the paper's Fig. 10 setting).
    pub polish_passes: usize,
    /// Δ-cost engine for the polish sweeps.
    pub evaluation: Evaluation,
    /// Observability handle (off by default): sample count, sampling
    /// time, and — when polishing — refinement search stats. Its trace
    /// gets `sampling`/`refinement` spans — with per-pass spans and
    /// accepted-`swap` instants during the polish — on a
    /// `"search"/"MonteCarlo"` track.
    pub metrics: Metrics,
}

impl MonteCarlo {
    /// Create a sampler (plain best-of-K; no polish).
    pub fn new(samples: usize, seed: u64) -> Self {
        assert!(samples > 0, "need at least one sample");
        Self {
            samples,
            seed,
            polish_passes: 0,
            evaluation: Evaluation::Incremental,
            metrics: Metrics::off(),
        }
    }

    /// Draw all sample costs (unsorted), in parallel chunks. Sample `i`
    /// is always generated from the same derived seed, so results are
    /// independent of the parallel schedule.
    pub fn sample_costs(&self, problem: &MappingProblem) -> Vec<f64> {
        (0..self.samples)
            .into_par_iter()
            .map(|i| {
                let mut rng = StdRng::seed_from_u64(self.seed.wrapping_add(i as u64));
                cost(problem, &random_mapping(problem, &mut rng))
            })
            .collect()
    }

    /// Empirical CDF of the sampled costs: returns the sorted costs; the
    /// CDF at `sorted[k]` is `(k+1)/len`.
    pub fn cdf(&self, problem: &MappingProblem) -> Vec<f64> {
        let mut costs = self.sample_costs(problem);
        costs.sort_by(f64::total_cmp);
        costs
    }

    /// Fraction of random mappings strictly cheaper than `c` — the
    /// paper's "probability that a random mapping beats X".
    ///
    /// Convention: an empty `sorted_costs` slice yields `0.0` (no
    /// evidence that anything beats `c`), never `NaN`.
    pub fn fraction_below(sorted_costs: &[f64], c: f64) -> f64 {
        if sorted_costs.is_empty() {
            return 0.0;
        }
        let k = sorted_costs.partition_point(|&x| x < c);
        k as f64 / sorted_costs.len() as f64
    }

    /// Running best-of-K minima at the requested `ks` (each `k ≤
    /// samples`), as Fig. 10 plots. Returns `(k, min_cost_of_first_k)`
    /// pairs **in the caller's order** — duplicated and unsorted `ks`
    /// are fine; each entry always describes its own `k`.
    pub fn best_of_k_curve(&self, problem: &MappingProblem, ks: &[usize]) -> Vec<(usize, f64)> {
        let costs = self.sample_costs(problem);
        // Prefix minima are computed over the unique ks in ascending
        // order (one pass over the samples), then reported back in the
        // caller's order.
        let mut sorted_ks: Vec<usize> = ks.to_vec();
        sorted_ks.sort_unstable();
        sorted_ks.dedup();
        let mut running = f64::INFINITY;
        let mut upto = 0usize;
        let mut min_at = std::collections::HashMap::with_capacity(sorted_ks.len());
        for k in sorted_ks {
            assert!(
                k >= 1 && k <= costs.len(),
                "k={k} outside 1..={}",
                costs.len()
            );
            for &c in &costs[upto..k] {
                running = running.min(c);
            }
            upto = k;
            min_at.insert(k, running);
        }
        ks.iter().map(|&k| (k, min_at[&k])).collect()
    }
}

impl Mapper for MonteCarlo {
    fn name(&self) -> &'static str {
        "MonteCarlo"
    }

    fn map(&self, problem: &MappingProblem) -> Mapping {
        assert!(
            self.samples > 0,
            "MonteCarlo: `samples` must be > 0 (got 0) — best-of-K needs at \
             least one draw; construct via MonteCarlo::new"
        );
        let metrics = self.metrics.scoped(self.name());
        metrics.counter("search.samples", self.samples as u64);
        let tscope = metrics.track("search", self.name());
        let best = metrics.phase(tscope, "sampling", "phase.sampling", || {
            (0..self.samples)
                .into_par_iter()
                .map(|i| {
                    let mut rng = StdRng::seed_from_u64(self.seed.wrapping_add(i as u64));
                    let m = random_mapping(problem, &mut rng);
                    (cost(problem, &m), i, m)
                })
                .min_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)))
                .expect("non-empty sample range")
        });
        let mut m = best.2;
        if self.polish_passes > 0 {
            let constraints = problem.constraints();
            let movable = |i: usize| constraints.pin_of(i).is_none();
            let stats = metrics.phase(tscope, "refinement", "phase.refinement", || {
                polish(
                    &CostTables::build(problem, CostModel::Full),
                    self.evaluation,
                    &mut m,
                    self.polish_passes,
                    &movable,
                    &|_, _| true,
                    tscope,
                )
            });
            stats.emit(&metrics);
        }
        m
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ExhaustiveMapper;
    use commgraph::apps::{RandomGraph, Workload};
    use geonet::{presets, InstanceType};

    fn problem() -> MappingProblem {
        let net = presets::paper_ec2_network(4, InstanceType::M4Xlarge, 1);
        let pat = RandomGraph {
            n: 16,
            degree: 3,
            max_bytes: 300_000,
            seed: 3,
        }
        .pattern();
        MappingProblem::unconstrained(pat, net)
    }

    #[test]
    fn best_of_k_is_monotone_in_k() {
        let p = problem();
        let mc = MonteCarlo::new(256, 1);
        let curve = mc.best_of_k_curve(&p, &[1, 4, 16, 64, 256]);
        for w in curve.windows(2) {
            assert!(w[1].1 <= w[0].1, "{curve:?}");
        }
    }

    #[test]
    fn cdf_is_sorted_and_complete() {
        let p = problem();
        let cdf = MonteCarlo::new(128, 2).cdf(&p);
        assert_eq!(cdf.len(), 128);
        assert!(cdf.windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn fraction_below_boundaries() {
        let sorted = vec![1.0, 2.0, 3.0, 4.0];
        assert_eq!(MonteCarlo::fraction_below(&sorted, 0.5), 0.0);
        assert_eq!(MonteCarlo::fraction_below(&sorted, 2.5), 0.5);
        assert_eq!(MonteCarlo::fraction_below(&sorted, 10.0), 1.0);
    }

    #[test]
    fn fraction_below_empty_is_zero_not_nan() {
        // Regression: 0/0 used to yield NaN; the convention is 0.0.
        let f = MonteCarlo::fraction_below(&[], 1.0);
        assert_eq!(f, 0.0);
        assert!(!f.is_nan());
    }

    #[test]
    fn best_of_k_curve_preserves_caller_order() {
        // Regression: the curve used to come back silently sorted by k.
        let p = problem();
        let mc = MonteCarlo::new(64, 4);
        let unsorted = mc.best_of_k_curve(&p, &[64, 1, 16, 16]);
        assert_eq!(
            unsorted.iter().map(|&(k, _)| k).collect::<Vec<_>>(),
            vec![64, 1, 16, 16],
            "caller's k order (duplicates included) must be preserved"
        );
        // Same minima as the sorted query, just reordered.
        let sorted = mc.best_of_k_curve(&p, &[1, 16, 64]);
        assert_eq!(unsorted[0], sorted[2]);
        assert_eq!(unsorted[1], sorted[0]);
        assert_eq!(unsorted[2], sorted[1]);
        assert_eq!(unsorted[3], sorted[1]);
    }

    #[test]
    #[should_panic(expected = "`samples` must be > 0")]
    fn zero_samples_by_struct_literal_fails_clearly() {
        // Regression: bypassing `new` via the pub fields used to die on a
        // cryptic `expect("samples > 0")` inside the rayon reduction.
        let p = problem();
        let mc = MonteCarlo {
            samples: 0,
            ..MonteCarlo::new(1, 1)
        };
        mc.map(&p);
    }

    #[test]
    fn emits_sampling_metrics() {
        let sink = std::sync::Arc::new(geomap_core::MemorySink::new());
        let p = problem();
        let mc = MonteCarlo {
            polish_passes: 4,
            metrics: Metrics::new(sink.clone()),
            ..MonteCarlo::new(32, 6)
        };
        let with = mc.map(&p);
        assert_eq!(sink.sum("MonteCarlo", "search.samples"), 32.0);
        assert!(sink.has("MonteCarlo", "phase.sampling"));
        assert!(sink.has("MonteCarlo", "phase.refinement"));
        // Instrumentation must not change the result.
        let without = MonteCarlo {
            polish_passes: 4,
            ..MonteCarlo::new(32, 6)
        }
        .map(&p);
        assert_eq!(with, without);
    }

    #[test]
    fn map_returns_the_sample_minimum() {
        let p = problem();
        let mc = MonteCarlo::new(64, 5);
        let best = geomap_core::cost(&p, &mc.map(&p));
        let min = mc
            .sample_costs(&p)
            .into_iter()
            .fold(f64::INFINITY, f64::min);
        assert!((best - min).abs() < 1e-12);
    }

    #[test]
    fn never_beats_the_exhaustive_optimum() {
        let net = presets::ec2_sites(&["us-east-1", "eu-west-1"], 4);
        let net = geonet::SynthNetworkBuilder::new(geonet::SynthConfig::default()).build(net);
        let pat = RandomGraph {
            n: 8,
            degree: 2,
            max_bytes: 100_000,
            seed: 9,
        }
        .pattern();
        let p = MappingProblem::unconstrained(pat, net);
        let (_, opt) = ExhaustiveMapper::default().optimum(&p);
        let best = geomap_core::cost(&p, &MonteCarlo::new(2000, 3).map(&p));
        assert!(best >= opt - 1e-9);
        // ...and with 2000 samples over a 2^8=256-point space it finds it.
        assert!(
            best <= opt + 1e-6 * opt.max(1.0),
            "best {best} vs opt {opt}"
        );
    }

    #[test]
    fn deterministic_regardless_of_parallelism() {
        let p = problem();
        let a = MonteCarlo::new(100, 7).map(&p);
        let b = MonteCarlo::new(100, 7).map(&p);
        assert_eq!(a, b);
    }

    #[test]
    #[should_panic(expected = "at least one sample")]
    fn zero_samples_rejected() {
        MonteCarlo::new(0, 1);
    }

    #[test]
    fn polish_never_hurts_and_engines_agree() {
        let p = problem();
        let plain = geomap_core::cost(&p, &MonteCarlo::new(64, 5).map(&p));
        let polished = MonteCarlo {
            polish_passes: 20,
            ..MonteCarlo::new(64, 5)
        };
        let inc = polished.map(&p);
        assert!(geomap_core::cost(&p, &inc) <= plain + 1e-12);
        let oracle = MonteCarlo {
            evaluation: geomap_core::Evaluation::FullRecompute,
            ..polished.clone()
        }
        .map(&p);
        assert_eq!(inc, oracle, "polish diverged between engines");
    }
}

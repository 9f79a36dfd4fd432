//! Multilevel scaling experiment: coarsen–map–refine vs the direct
//! solver on the Azure 20-region preset.
//!
//! The paper's Fig. 4 stops at 4/256 because every compared algorithm
//! is super-linear in N; the multilevel solver exists to push the same
//! Eq. 3 objective to 100k+ ranks. This experiment sweeps N over a
//! clustered workload (the locality structure heavy-edge matching is
//! built to exploit), timing the multilevel solve at every scale and
//! the direct [`GeoMapper`] wherever it is still affordable, reporting
//! the cost ratio at each overlap point.
//!
//! `repro multilevel` prints the table and writes
//! `multilevel_scaling.csv`; the `multilevel_bench` binary reuses
//! [`problem_at`]/[`run_scale`] verbatim for the acceptance artifact
//! `BENCH_multilevel.json` (N = 262144 in single-digit seconds, cost
//! parity ±5% at every N where both solvers run).

use crate::util::{fmt_secs, timed, Csv, ExpContext};
use commgraph::apps::{ClusteredGraph, Workload};
use geomap_core::{
    cost, GeoMapper, Mapper, MappingProblem, Metrics, MultilevelConfig, MultilevelMapper,
};
use geonet::presets;

/// The full N sweep (the last point is the acceptance scale).
pub const SWEEP: [usize; 4] = [4096, 16384, 65536, 262144];
/// Quick-mode sweep.
pub const QUICK_SWEEP: [usize; 2] = [256, 1024];
/// Largest N the direct solver runs at in the full sweep (the whole
/// point of the hierarchy is that direct does not scale past it).
pub const DIRECT_LIMIT: usize = 4096;

/// One scale point: multilevel always, direct when it ran.
pub struct ScaleRun {
    /// Rank count of this scale point.
    pub n: usize,
    /// Multilevel solve wall-clock, seconds.
    pub ml_time_s: f64,
    /// Eq. 3 cost of the multilevel mapping.
    pub ml_cost: f64,
    /// Direct-solver wall-clock (`None` when `n` was over the limit).
    pub direct_time_s: Option<f64>,
    /// Eq. 3 cost of the direct mapping, when it ran.
    pub direct_cost: Option<f64>,
}

impl ScaleRun {
    /// Multilevel cost over direct cost, where direct ran.
    pub fn ratio(&self) -> Option<f64> {
        self.direct_cost.map(|d| self.ml_cost / d)
    }
}

/// `n` ranks of the clustered workload over the Azure 20-region preset
/// with 25% headroom.
pub fn problem_at(n: usize, seed: u64) -> MappingProblem {
    let per_region = ((n as f64) * 1.25 / 20.0).ceil() as usize;
    let net = presets::azure20_network(per_region, seed);
    let pattern = ClusteredGraph {
        n,
        cluster: 64,
        degree: 8,
        locality: 0.8,
        max_bytes: 1 << 20,
        seed: seed ^ 0xC1A5,
    }
    .pattern();
    MappingProblem::unconstrained(pattern, net)
}

/// Solve one scale point: multilevel always, the direct solver when
/// `n <= direct_limit`. Both mappings are validated before timing is
/// reported.
pub fn run_scale(
    n: usize,
    seed: u64,
    config: MultilevelConfig,
    direct_limit: usize,
    metrics: &Metrics,
) -> ScaleRun {
    let problem = problem_at(n, seed);
    let inner = GeoMapper {
        seed,
        ..GeoMapper::default()
    };
    let ml = MultilevelMapper {
        config,
        metrics: metrics.clone(),
        inner: inner.clone(),
    };
    let (mapping, t) = timed(|| ml.map(&problem));
    mapping.validate(&problem).unwrap();
    let ml_cost = cost(&problem, &mapping);
    let (direct_time_s, direct_cost) = if n <= direct_limit {
        let (direct, td) = timed(|| inner.map(&problem));
        direct.validate(&problem).unwrap();
        (Some(td.as_secs_f64()), Some(cost(&problem, &direct)))
    } else {
        (None, None)
    };
    ScaleRun {
        n,
        ml_time_s: t.as_secs_f64(),
        ml_cost,
        direct_time_s,
        direct_cost,
    }
}

/// Run the experiment (`repro multilevel`).
pub fn run(ctx: &ExpContext) {
    println!("== Multilevel: coarsen-map-refine vs direct at scale (Azure 20 regions) ==");
    let (sweep, config, direct_limit) = if ctx.quick {
        (
            QUICK_SWEEP.to_vec(),
            MultilevelConfig {
                coarsen_cutoff: 64,
                ..MultilevelConfig::default()
            },
            QUICK_SWEEP[0],
        )
    } else {
        (SWEEP.to_vec(), MultilevelConfig::default(), DIRECT_LIMIT)
    };
    let mut csv = Csv::new(&[
        "n",
        "ml_time_s",
        "ml_cost",
        "direct_time_s",
        "direct_cost",
        "cost_ratio",
    ]);
    println!(
        "{:>8} {:>12} {:>16} {:>12} {:>16} {:>8}",
        "N", "multilevel", "ml cost", "direct", "direct cost", "ratio"
    );
    let exp_metrics = ctx.metrics.scoped("multilevel_exp");
    for n in sweep {
        let r = run_scale(n, ctx.seed, config, direct_limit, &ctx.metrics);
        exp_metrics.timing(&format!("solve.{n}"), r.ml_time_s);
        println!(
            "{:>8} {:>12} {:>16.6} {:>12} {:>16} {:>8}",
            r.n,
            fmt_secs(r.ml_time_s),
            r.ml_cost,
            r.direct_time_s.map_or("-".into(), fmt_secs),
            r.direct_cost.map_or("-".into(), |c| format!("{c:.6}")),
            r.ratio().map_or("-".into(), |x| format!("{x:.3}")),
        );
        csv.row(&[
            r.n.to_string(),
            format!("{:.6}", r.ml_time_s),
            format!("{:.6}", r.ml_cost),
            r.direct_time_s.map_or(String::new(), |t| format!("{t:.6}")),
            r.direct_cost.map_or(String::new(), |c| format!("{c:.6}")),
            r.ratio().map_or(String::new(), |x| format!("{x:.6}")),
        ]);
    }
    ctx.write_csv("multilevel_scaling.csv", &csv.finish());
    println!("(expected shape: multilevel near-linear in N; ratio within 1.05 at every overlap)");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn runs_in_smoke_mode() {
        run(&ExpContext::smoke());
    }

    #[test]
    fn quick_scale_point_keeps_cost_parity() {
        let r = run_scale(
            QUICK_SWEEP[0],
            7,
            MultilevelConfig {
                coarsen_cutoff: 64,
                ..MultilevelConfig::default()
            },
            QUICK_SWEEP[0],
            &Metrics::off(),
        );
        let ratio = r.ratio().expect("direct ran at the quick scale");
        assert!(ratio <= 1.05, "cost ratio {ratio} above the 5% band");
    }
}

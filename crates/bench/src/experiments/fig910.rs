//! Figures 9 and 10: the Monte Carlo mapping study.
//!
//! * **Fig. 9** — the CDF of normalized communication time over many
//!   random mappings, with the costs achieved by Greedy, MPIPP and
//!   Geo-distributed marked. The paper's headline: the probability that
//!   a random mapping beats Geo is < 1 % (LU) or < 0.1 % (K-means/DNN).
//! * **Fig. 10** — the best-of-K curve: minimal cost after K random
//!   draws, decreasing ~logarithmically; Geo reaches the same level at
//!   K ≈ 10⁴ draws' budget.
//!
//! The paper uses 10⁷ draws; the full run here defaults to 10⁵ (the
//! tail estimate is stable well before that — the CSV records the exact
//! count used).

use crate::setup::app_problem;
use crate::util::{Csv, ExpContext};
use baselines::{paper_mappers, MonteCarlo};
use commgraph::apps::AppKind;
use geomap_core::{cost, GeoMapper, Mapper};

const APPS: [AppKind; 3] = [AppKind::Lu, AppKind::KMeans, AppKind::Dnn];

/// Fig. 9: CDF + algorithm markers.
pub fn run_fig9(ctx: &ExpContext) {
    println!("== Fig. 9: CDF of normalized communication time (Monte Carlo) ==");
    let samples = ctx.scaled(100_000, 2_000);
    let mut csv = Csv::new(&["app", "quantile", "normalized_cost"]);
    let mut markers = Csv::new(&[
        "app",
        "algorithm",
        "normalized_cost",
        "fraction_of_random_below",
    ]);
    for app in APPS {
        let problem = app_problem(app, ctx.scaled(16, 4), 0.2, ctx.seed);
        let mc = MonteCarlo::new(samples, ctx.seed);
        let sorted = mc.cdf(&problem);
        let max = *sorted.last().expect("samples > 0");

        // Down-sample the CDF to 200 points for the CSV.
        let points = 200.min(sorted.len());
        for p in 0..points {
            let idx = (p * (sorted.len() - 1)) / (points.max(2) - 1);
            csv.row(&[
                app.name().into(),
                format!("{:.5}", (idx + 1) as f64 / sorted.len() as f64),
                format!("{:.5}", sorted[idx] / max),
            ]);
        }

        println!("\n--- {app} ({samples} draws) ---");
        let mut marker_points: Vec<(&str, f64)> = Vec::new();
        let app_metrics = ctx.metrics.scoped("fig9").scoped(app.name());
        let mut geo_mapping = None;
        let algos: Vec<(&str, f64)> = paper_mappers(ctx.seed, &app_metrics)
            .iter()
            .map(|mapper| {
                let m = mapper.map(&problem);
                let c = cost(&problem, &m);
                if mapper.name() == "Geo-distributed" {
                    geo_mapping = Some(m);
                }
                (mapper.name(), c)
            })
            .collect();
        // With tracing on, replay the winning mapping through the
        // simulated runtime so the trace shows all three layers: search
        // trajectories, mpirt rank intervals, simnet message timelines.
        if ctx.metrics.trace().enabled() {
            let workload = app.workload(problem.num_processes());
            let result = mpirt::execute_workload(
                workload.as_ref(),
                problem.network(),
                geo_mapping.as_ref().expect("Geo mapper ran").as_slice(),
                &mpirt::RunConfig::comm_only(),
                ctx.metrics.trace(),
            );
            println!(
                "  traced replay of Geo-distributed mapping: makespan {:.4}s",
                result.makespan
            );
        }
        for (name, c) in algos {
            let frac = MonteCarlo::fraction_below(&sorted, c);
            println!(
                "  {name:<16} normalized {:.3}, P(random beats it) = {:.4}",
                c / max,
                frac
            );
            markers.row(&[
                app.name().into(),
                name.into(),
                format!("{:.5}", c / max),
                format!("{frac:.6}"),
            ]);
            marker_points.push((name, c / max));
        }
        let normalized: Vec<f64> = sorted.iter().map(|c| c / max).collect();
        let svg = crate::svg::cdf_with_markers(
            &format!("Fig. 9 — {app}: CDF of normalized communication time"),
            &normalized,
            &marker_points,
        );
        ctx.write_csv(
            &format!("fig9_{}.svg", app.name().to_lowercase().replace('-', "")),
            &svg,
        );
    }
    ctx.write_csv("fig9_cdf.csv", &csv.finish());
    ctx.write_csv("fig9_markers.csv", &markers.finish());
    println!("\n(expected: Geo in the <1% tail for LU, <0.1% for K-means/DNN)");
}

/// Fig. 10: best-of-K random search.
pub fn run_fig10(ctx: &ExpContext) {
    println!("== Fig. 10: normalized minimal cost vs Monte Carlo budget K ==");
    let max_k = ctx.scaled(1_000_000, 4_096);
    let ks: Vec<usize> = {
        let mut v = Vec::new();
        let mut k = 1usize;
        while k <= max_k {
            v.push(k);
            k *= 4;
        }
        if *v.last().unwrap() != max_k {
            v.push(max_k);
        }
        v
    };
    let mut csv = Csv::new(&["app", "k", "normalized_min_cost", "geo_normalized_cost"]);
    for app in APPS {
        let problem = app_problem(app, ctx.scaled(16, 4), 0.2, ctx.seed);
        let mc = MonteCarlo::new(max_k, ctx.seed);
        let curve = mc.best_of_k_curve(&problem, &ks);
        let norm = curve[0].1; // K=1: a single random draw
        let geo = cost(
            &problem,
            &GeoMapper {
                seed: ctx.seed,
                ..GeoMapper::default()
            }
            .map(&problem),
        );
        println!("\n--- {app} (Geo at {:.3} of K=1 cost) ---", geo / norm);
        println!("{:<10} {:>12}", "K", "min/K1");
        for (k, c) in &curve {
            println!("{k:<10} {:>12.4}", c / norm);
            csv.row(&[
                app.name().into(),
                k.to_string(),
                format!("{:.5}", c / norm),
                format!("{:.5}", geo / norm),
            ]);
        }
        let final_best = curve.last().unwrap().1;
        println!(
            "  random search needs K≈{max_k} to reach {:.3}; Geo achieves {:.3} in one run",
            final_best / norm,
            geo / norm
        );
        let pts: Vec<(f64, f64)> = curve.iter().map(|(k, c)| (*k as f64, c / norm)).collect();
        let geo_line: Vec<(f64, f64)> = vec![(1.0, geo / norm), (max_k as f64, geo / norm)];
        let svg = crate::svg::lines(
            &format!("Fig. 10 — {app}: best-of-K random search"),
            &[
                ("best of K random", pts),
                ("Geo-distributed (one run)", geo_line),
            ],
            "K (random mappings tried)",
            "normalized minimal cost",
            true,
        );
        ctx.write_csv(
            &format!("fig10_{}.svg", app.name().to_lowercase().replace('-', "")),
            &svg,
        );
    }
    ctx.write_csv("fig10_best_of_k.csv", &csv.finish());
    println!("\n(expected: ~log(K) decline; Geo comparable to the best Monte Carlo result)");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig9_runs_in_smoke_mode() {
        run_fig9(&ExpContext::smoke());
    }

    #[test]
    fn fig10_runs_in_smoke_mode() {
        run_fig10(&ExpContext::smoke());
    }
}

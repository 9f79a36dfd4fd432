//! Figures 5 and 6: overall performance improvement of the five
//! applications over Baseline, on the emulated EC2 deployment.
//!
//! * **Fig. 5** replays each application end-to-end on the simulated
//!   message-passing runtime *including computation* (the paper's real
//!   EC2 runs), so computation-bound apps (DNN) show small improvements.
//! * **Fig. 6** zeroes computation (the paper's ns-2 simulation study),
//!   isolating communication; improvements grow accordingly.
//!
//! Expected shape (§5.3/5.4): Geo wins everywhere (~50 % on average, up
//! to 90 %); Greedy strong on BT/SP/LU but weak (< 10 %) on K-means and
//! DNN; MPIPP a uniform 10–30 %.

use crate::setup::app_problem;
use crate::util::{improvement_pct, mean, std_error, Csv, ExpContext};
use baselines::{paper_mappers, RandomMapper};
use commgraph::apps::AppKind;
use geomap_core::{Mapper, MappingProblem, Metrics};
use mpirt::RunConfig;

/// Measured improvements of one app: `(name, greedy, mpipp, geo)` in %.
pub struct AppRow {
    /// Application name.
    pub app: &'static str,
    /// Improvement over Baseline per algorithm, in percent.
    pub improvements: [f64; 3],
    /// Standard error of the baseline makespans.
    pub baseline_stderr: f64,
}

/// Execute one mapping and report the makespan. When `metrics` is
/// enabled the run's full telemetry (per-link traffic, per-rank
/// breakdowns) is exported through it; when its trace is enabled the
/// replay records per-rank intervals and per-link message lifecycles.
fn makespan(
    problem: &MappingProblem,
    mapping: &geomap_core::Mapping,
    cfg: &RunConfig,
    app: AppKind,
    metrics: &Metrics,
) -> f64 {
    let workload = app.workload(problem.num_processes());
    let result = mpirt::execute_workload(
        workload.as_ref(),
        problem.network(),
        mapping.as_slice(),
        cfg,
        metrics.trace(),
    );
    result.emit_metrics(metrics);
    result.makespan
}

/// Shared driver for both figures. `label` scopes the metrics stream
/// (`"fig5"` / `"fig6"`), giving records like
/// `fig5/LU/Geo-distributed/search.swaps_accepted` and
/// `fig5/LU/Geo-distributed/runtime/makespan_s`.
pub fn improvements(ctx: &ExpContext, cfg: &RunConfig, label: &str) -> Vec<AppRow> {
    let fig_metrics = ctx.metrics.scoped(label);
    let baseline_runs = ctx.scaled(10, 3);
    let nodes_per_site = ctx.scaled(16, 4);
    AppKind::ALL
        .iter()
        .map(|&app| {
            let app_metrics = fig_metrics.scoped(app.name());
            let problem = app_problem(app, nodes_per_site, 0.2, ctx.seed);
            let baselines: Vec<f64> = (0..baseline_runs)
                .map(|i| {
                    let m = RandomMapper::with_seed(ctx.seed.wrapping_add(i as u64)).map(&problem);
                    // Baseline replays stay untraced: ten random runs per
                    // app would drown the optimized timelines.
                    makespan(&problem, &m, cfg, app, &Metrics::off())
                })
                .collect();
            let base = mean(&baselines);
            app_metrics.gauge("baseline_makespan_s", base);
            let mut improvements = [0.0; 3];
            for (slot, mapper) in paper_mappers(ctx.seed, &app_metrics).iter().enumerate() {
                let m = mapper.map(&problem);
                m.validate(&problem).unwrap();
                let per_mapper = app_metrics.scoped(mapper.name());
                let t = makespan(&problem, &m, cfg, app, &per_mapper.scoped("runtime"));
                improvements[slot] = improvement_pct(base, t);
                per_mapper.gauge("improvement_pct", improvements[slot]);
            }
            AppRow {
                app: app.name(),
                improvements,
                baseline_stderr: std_error(&baselines),
            }
        })
        .collect()
}

fn report(title: &str, file: &str, rows: &[AppRow], ctx: &ExpContext) {
    println!("== {title} ==");
    println!(
        "{:<10} {:>8} {:>8} {:>8}   (improvement % over Baseline)",
        "app", "Greedy", "MPIPP", "Geo"
    );
    let mut csv = Csv::new(&[
        "app",
        "greedy_pct",
        "mpipp_pct",
        "geo_pct",
        "baseline_stderr",
    ]);
    for r in rows {
        println!(
            "{:<10} {:>8.1} {:>8.1} {:>8.1}",
            r.app, r.improvements[0], r.improvements[1], r.improvements[2]
        );
        csv.row(&[
            r.app.into(),
            format!("{:.2}", r.improvements[0]),
            format!("{:.2}", r.improvements[1]),
            format!("{:.2}", r.improvements[2]),
            format!("{:.4}", r.baseline_stderr),
        ]);
    }
    let geo_avg = mean(&rows.iter().map(|r| r.improvements[2]).collect::<Vec<_>>());
    println!("Geo-distributed mean improvement: {geo_avg:.1}%");
    ctx.write_csv(file, &csv.finish());

    // Companion figure.
    let categories: Vec<&str> = rows.iter().map(|r| r.app).collect();
    let series: Vec<(&str, Vec<f64>)> = ["Greedy", "MPIPP", "Geo-distributed"]
        .iter()
        .enumerate()
        .map(|(i, name)| (*name, rows.iter().map(|r| r.improvements[i]).collect()))
        .collect();
    let svg =
        crate::svg::grouped_bars(title, &categories, &series, "improvement over Baseline (%)");
    ctx.write_csv(&file.replace(".csv", ".svg"), &svg);
}

/// Fig. 5: total time (computation included).
pub fn run_fig5(ctx: &ExpContext) {
    let rows = improvements(ctx, &RunConfig::default(), "fig5");
    report(
        "Fig. 5: overall improvement on emulated EC2 (with computation)",
        "fig5_ec2_improvement.csv",
        &rows,
        ctx,
    );
}

/// Fig. 6: communication time only.
pub fn run_fig6(ctx: &ExpContext) {
    let rows = improvements(ctx, &RunConfig::comm_only(), "fig6");
    report(
        "Fig. 6: communication-only improvement (simulation)",
        "fig6_sim_improvement.csv",
        &rows,
        ctx,
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn geo_wins_on_every_app_comm_only() {
        let ctx = ExpContext::smoke();
        let rows = improvements(&ctx, &RunConfig::comm_only(), "fig6");
        for r in &rows {
            let geo = r.improvements[2];
            assert!(geo > 0.0, "{}: geo improvement {geo}", r.app);
            if r.app == "DNN" {
                // Known deviation (see EXPERIMENTS.md): on the synthetic
                // network bandwidth and latency are strongly correlated,
                // so bandwidth-greedy placement is accidentally good for
                // the latency-bound DNN makespan. Geo must still clearly
                // beat Baseline and stay competitive.
                assert!(geo > 15.0, "DNN: geo only {geo}%");
                continue;
            }
            // Makespan is a noisy proxy for Eq. 3 at smoke scale (16
            // processes): the simulated runtime serializes messages in
            // ways the α–β objective does not see, so a mapping that is
            // strictly cheaper under Eq. 3 can replay a few points worse.
            // The modeled-objective dominance is asserted exactly below;
            // here geo only has to stay in the same band.
            assert!(
                geo + 10.0 >= r.improvements[0] && geo + 10.0 >= r.improvements[1],
                "{}: geo {geo} far below a baseline {:?}",
                r.app,
                r.improvements
            );
        }
    }

    #[test]
    fn metrics_stream_covers_mappers_and_runtime() {
        use geomap_core::MemorySink;
        use std::sync::Arc;
        let sink = Arc::new(MemorySink::new());
        let ctx = ExpContext {
            metrics: Metrics::new(sink.clone()),
            ..ExpContext::smoke()
        };
        improvements(&ctx, &RunConfig::comm_only(), "fig6");
        for mapper in ["Greedy", "MPIPP", "Geo-distributed"] {
            assert!(
                sink.has(&format!("fig6/LU/{mapper}"), "improvement_pct"),
                "no improvement gauge for {mapper}"
            );
            assert!(
                sink.has(&format!("fig6/LU/{mapper}/runtime"), "makespan_s"),
                "no runtime telemetry for {mapper}"
            );
        }
        // The swap-based mappers report their search statistics through
        // the same stream.
        for mapper in ["MPIPP", "Geo-distributed"] {
            assert!(
                sink.has(&format!("fig6/LU/{mapper}"), "search.swaps_evaluated"),
                "no search stats for {mapper}"
            );
        }
        assert!(sink.has("fig6/LU", "baseline_makespan_s"));
    }

    #[test]
    fn geo_never_loses_the_modeled_objective() {
        // The §5.3 claim the optimizer actually controls: on every
        // workload, Geo's Eq. 3 cost is no worse than Greedy's or
        // MPIPP's on the same problem instance.
        use geomap_core::cost;
        let ctx = ExpContext::smoke();
        for &app in commgraph::apps::AppKind::ALL.iter() {
            let problem = app_problem(app, ctx.scaled(16, 4), 0.2, ctx.seed);
            let costs: Vec<(&'static str, f64)> =
                baselines::paper_mappers(ctx.seed, &Metrics::off())
                    .iter()
                    .map(|m| (m.name(), cost(&problem, &m.map(&problem))))
                    .collect();
            let geo = costs
                .iter()
                .find(|(n, _)| *n == "Geo-distributed")
                .unwrap()
                .1;
            for &(name, c) in &costs {
                assert!(
                    geo <= c * (1.0 + 1e-9),
                    "{}: geo cost {geo} worse than {name}'s {c}",
                    app.name()
                );
            }
        }
    }
}

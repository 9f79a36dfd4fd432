//! Criterion timing of the cost-function kernels: full Eq. 3 evaluation,
//! incremental swap deltas and the aggregate replays, plus the
//! delta-engine comparison rows (incremental vs full-recompute) for a
//! single candidate query and for a whole hill-climb refinement pass,
//! and the `pattern_build` group: parsing, profiling and the partner
//! and table construction every problem pays before its first search.

use commgraph::apps::{AppKind, ClusteredGraph, Workload};
use commgraph::CommPattern;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use geomap_core::{
    cost, cost::swap_delta, polish, CostTables, Evaluation, Mapping, MappingProblem, Metrics,
    TraceScope,
};
use geonet::{presets, InstanceType, SiteId};
use simnet::{bottleneck_time, sum_cost};
use std::hint::black_box;

fn problem(n: usize) -> (MappingProblem, Mapping) {
    let net = presets::paper_ec2_network(n / 4, InstanceType::M4Xlarge, 1);
    let p = MappingProblem::unconstrained(AppKind::KMeans.workload(n).pattern(), net);
    let m = Mapping::from((0..n).map(|i| i % 4).collect::<Vec<_>>());
    (p, m)
}

fn bench_cost(c: &mut Criterion) {
    let mut group = c.benchmark_group("cost_eval");
    for n in [64usize, 256, 1024] {
        let (p, m) = problem(n);
        group.bench_with_input(BenchmarkId::new("eq3_full", n), &n, |b, _| {
            b.iter(|| black_box(cost(&p, &m)))
        });
        // n/2 + 1 sits on a different site of the round-robin mapping, so
        // the delta cannot short-circuit to zero.
        group.bench_with_input(BenchmarkId::new("swap_delta", n), &n, |b, _| {
            b.iter(|| black_box(swap_delta(&p, &m, 0, n / 2 + 1)))
        });
        let assignment: Vec<SiteId> = m.as_slice().to_vec();
        group.bench_with_input(BenchmarkId::new("replay_sum", n), &n, |b, _| {
            b.iter(|| black_box(sum_cost(p.pattern(), p.network(), &assignment)))
        });
        group.bench_with_input(BenchmarkId::new("replay_bottleneck", n), &n, |b, _| {
            b.iter(|| black_box(bottleneck_time(p.pattern(), p.network(), &assignment)))
        });
    }
    group.finish();
}

/// One swap-delta query, incremental engine vs full-recompute oracle.
/// The incremental engine answers in `O(deg)` regardless of `n`; the
/// oracle re-walks the whole pattern.
fn bench_delta_engines(c: &mut Criterion) {
    let mut group = c.benchmark_group("delta_engine");
    for n in [64usize, 256, 1024] {
        let (p, m) = problem(n);
        let tables = CostTables::build(&p, geomap_core::CostModel::Full);
        for (name, evaluation) in [
            ("swap_delta_inc", Evaluation::Incremental),
            ("swap_delta_full", Evaluation::FullRecompute),
        ] {
            let eval = evaluation.evaluator(&tables, m.as_slice().to_vec());
            group.bench_with_input(BenchmarkId::new(name, n), &n, |b, _| {
                b.iter(|| black_box(eval.swap_delta(0, n / 2 + 1)))
            });
        }
    }
    group.finish();
}

/// A full hill-climb refinement pass over all processes — the unit of
/// work Fig. 4's Geo-distributed overhead is made of. The incremental
/// engine must win by ≥5× at N ≥ 1024 (asserted in
/// `core/tests/delta_equivalence.rs` by term counts; measured in
/// wall-clock here).
fn bench_refine_pass(c: &mut Criterion) {
    let mut group = c.benchmark_group("refine_pass");
    for n in [256usize, 1024] {
        let (p, m) = problem(n);
        let tables = CostTables::build(&p, geomap_core::CostModel::Full);
        for (name, evaluation) in [
            ("inc", Evaluation::Incremental),
            ("full", Evaluation::FullRecompute),
        ] {
            group.bench_with_input(BenchmarkId::new(name, n), &n, |b, _| {
                b.iter(|| {
                    let mut mapping = m.clone();
                    black_box(polish(
                        &tables,
                        evaluation,
                        &mut mapping,
                        1,
                        &|_| true,
                        &|_, _| true,
                        TraceScope::off(),
                    ))
                })
            });
        }
    }
    group.finish();
}

/// The off path of the observability layer: one refinement pass
/// through the single `polish` entry point with the trace scope off,
/// plus `SearchStats::emit` on `Metrics::off()` — what every mapper
/// runs when nobody observes it. Counters live in plain integers and
/// the off handle never reads the clock, so this row should track
/// `refine_pass/inc/256`; run it alone with
/// `cargo bench --bench cost_eval -- refine_pass_metrics_off`.
fn bench_metrics_off(c: &mut Criterion) {
    let (p, m) = problem(256);
    let tables = CostTables::build(&p, geomap_core::CostModel::Full);
    let mut group = c.benchmark_group("refine_pass_metrics_off");
    group.bench_function("off", |b| {
        b.iter(|| {
            let mut mapping = m.clone();
            let stats = polish(
                &tables,
                Evaluation::Incremental,
                &mut mapping,
                1,
                &|_| true,
                &|_, _| true,
                TraceScope::off(),
            );
            stats.emit(&Metrics::off());
            black_box(stats.swaps_accepted)
        })
    });
    group.finish();
}

/// Building a problem's inputs: `from_csv` on the daemon's miss path,
/// `Program::profile` on the generators, and `partners()` plus
/// `CostTables::build` on every repair and daemon solve. Run alone with
/// `cargo bench --bench cost_eval -- pattern_build`.
fn bench_pattern_build(c: &mut Criterion) {
    let mut group = c.benchmark_group("pattern_build");
    let csv = AppKind::KMeans.workload(64).pattern().to_csv();
    group.bench_function("from_csv/kmeans/64", |b| {
        b.iter(|| black_box(CommPattern::from_csv(64, &csv).expect("valid CSV")))
    });
    for (app, n) in [(AppKind::KMeans, 128usize), (AppKind::Lu, 64)] {
        let program = app.workload(n).program();
        group.bench_function(format!("profile/{}/{n}", app.name()), |b| {
            b.iter(|| black_box(program.profile()))
        });
    }
    let clustered = ClusteredGraph {
        n: 4096,
        cluster: 64,
        degree: 8,
        locality: 0.8,
        max_bytes: 1 << 20,
        seed: 5,
    };
    for (name, pattern) in [
        ("kmeans/128", AppKind::KMeans.workload(128).pattern()),
        ("clustered/4096", clustered.pattern()),
    ] {
        let n = pattern.n();
        let net = presets::paper_ec2_network(n / 4, InstanceType::M4Xlarge, 1);
        let p = MappingProblem::unconstrained(pattern, net);
        group.bench_function(format!("partners/{name}"), |b| {
            b.iter(|| black_box(p.pattern().partners()))
        });
        group.bench_function(format!("tables/{name}"), |b| {
            b.iter(|| black_box(CostTables::build(&p, geomap_core::CostModel::Full)))
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_cost,
    bench_delta_engines,
    bench_refine_pass,
    bench_metrics_off,
    bench_pattern_build
);
criterion_main!(benches);

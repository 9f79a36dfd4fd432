//! Criterion timing of the mappers' optimization overhead (Fig. 4's
//! quantity, measured precisely): Baseline, Greedy, MPIPP and
//! Geo-distributed at the paper's scales. The `geo_solve` group times
//! one serial `GeoMapper` solve at the shapes the benchmark's solver and
//! service workloads solve, so a change to packing, evaluator set-up or
//! refinement shows without the rayon pool's scheduling in the number.

use baselines::{GreedyMapper, MpippMapper, RandomMapper};
use commgraph::apps::AppKind;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use geomap_core::{ConstraintVector, GeoMapper, Mapper, MappingProblem};
use geonet::{presets, InstanceType};
use std::hint::black_box;

fn problem(sites: usize, processes: usize) -> MappingProblem {
    let regions = ["us-east-1", "us-west-2", "ap-southeast-1", "eu-west-1"];
    let net_sites = presets::ec2_sites(&regions[..sites], processes / sites);
    let net = geonet::SynthNetworkBuilder::new(geonet::SynthConfig::ec2(InstanceType::M4Xlarge))
        .build(net_sites);
    MappingProblem::unconstrained(AppKind::Lu.workload(processes).pattern(), net)
}

fn bench_mappers(c: &mut Criterion) {
    let mut group = c.benchmark_group("mapper_overhead");
    for (sites, processes) in [(1usize, 32usize), (2, 64), (4, 64), (4, 128), (4, 256)] {
        let p = problem(sites, processes);
        let scale = format!("{sites}s/{processes}p");
        group.bench_with_input(BenchmarkId::new("baseline", &scale), &p, |b, p| {
            b.iter(|| black_box(RandomMapper::with_seed(1).map(p)))
        });
        group.bench_with_input(BenchmarkId::new("greedy", &scale), &p, |b, p| {
            b.iter(|| black_box(GreedyMapper::default().map(p)))
        });
        group.bench_with_input(BenchmarkId::new("geo", &scale), &p, |b, p| {
            b.iter(|| black_box(GeoMapper::default().map(p)))
        });
        // Same mapper on the full-recompute oracle engine: the gap to
        // "geo" is the end-to-end payoff of incremental Δ evaluation.
        group.bench_with_input(
            BenchmarkId::new("geo_full_recompute", &scale),
            &p,
            |b, p| {
                b.iter(|| {
                    let mapper = GeoMapper {
                        evaluation: geomap_core::Evaluation::FullRecompute,
                        ..GeoMapper::default()
                    };
                    black_box(mapper.map(p))
                })
            },
        );
        // MPIPP is O(N^3)-ish; keep it to the smaller scales so the suite
        // stays runnable (the paper similarly drops it at scale).
        if processes <= 64 {
            group.bench_with_input(BenchmarkId::new("mpipp", &scale), &p, |b, p| {
                b.iter(|| black_box(MpippMapper::with_seed(1).map(p)))
            });
        }
    }
    group.finish();
}

/// Serial K-means solves on the paper's EC2 preset: N=128 over 4×32
/// nodes with 20 % of the ranks pinned, and N=64 over 4×64 nodes.
fn bench_geo_solve(c: &mut Criterion) {
    let mut group = c.benchmark_group("geo_solve");
    for (n, nodes, pinned) in [(128usize, 32usize, 0.2), (64, 64, 0.0)] {
        let net = presets::paper_ec2_network(nodes, InstanceType::M4Xlarge, 1);
        let pins = if pinned > 0.0 {
            ConstraintVector::random(n, pinned, &net.capacities(), 3)
        } else {
            ConstraintVector::none(n)
        };
        let p = MappingProblem::new(AppKind::KMeans.workload(n).pattern(), net, pins);
        let mapper = GeoMapper {
            parallel: false,
            ..GeoMapper::default()
        };
        let id = format!("ec2_4x{nodes}");
        group.bench_with_input(BenchmarkId::new(format!("kmeans{n}"), id), &p, |b, p| {
            b.iter(|| black_box(mapper.map(p)))
        });
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_mappers
}
criterion_group! {
    name = solves;
    config = Criterion::default().sample_size(30);
    targets = bench_geo_solve
}
criterion_main!(benches, solves);

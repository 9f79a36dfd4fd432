//! Criterion timing of one parallel map's fixed cost in the rayon shim:
//! trivial maps over 2 and 24 items (the shapes of the Geo search's
//! pack and polish fan-outs), and a whole small Geo solve that makes two
//! such maps — LU N=16 over EC2 4×64, the daemon's problem-tier scale.

use commgraph::apps::AppKind;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use geomap_core::{GeoMapper, Mapper, MappingProblem};
use geonet::{presets, InstanceType};
use rayon::prelude::*;
use std::hint::black_box;

fn bench_par_map(c: &mut Criterion) {
    let mut group = c.benchmark_group("par_map_overhead");
    for items in [2usize, 24] {
        group.bench_with_input(BenchmarkId::new("trivial", items), &items, |b, &items| {
            b.iter(|| {
                let out: Vec<usize> = (0..items)
                    .into_par_iter()
                    .map(|i| black_box(i) + 1)
                    .collect();
                black_box(out)
            })
        });
    }
    let net = presets::paper_ec2_network(64, InstanceType::M4Xlarge, 1);
    let problem = MappingProblem::unconstrained(AppKind::Lu.workload(16).pattern(), net);
    group.bench_with_input(
        BenchmarkId::new("geo_lu16", "ec2_4x64"),
        &problem,
        |b, p| b.iter(|| black_box(GeoMapper::default().map(p))),
    );
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(30);
    targets = bench_par_map
}
criterion_main!(benches);

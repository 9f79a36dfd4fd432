//! Criterion timing of the substrates: the discrete-event runtime
//! replaying full applications, network calibration and application
//! profiling (pattern generation + CYPRESS compression).

use commgraph::apps::AppKind;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use geomap_core::Trace;
use geonet::{presets, CalibrationConfig, Calibrator, InstanceType, SiteId};
use mpirt::RunConfig;
use std::hint::black_box;

fn bench_runtime(c: &mut Criterion) {
    let net = presets::paper_ec2_network(16, InstanceType::M4Xlarge, 1);
    let assignment: Vec<SiteId> = (0..64).map(|i| SiteId(i / 16)).collect();
    let mut group = c.benchmark_group("simulator");
    for kind in [AppKind::Lu, AppKind::KMeans, AppKind::Dnn] {
        let program = kind.workload(64).program();
        group.bench_with_input(
            BenchmarkId::new("des_execute", kind.name()),
            &program,
            |b, prog| {
                b.iter(|| {
                    black_box(mpirt::execute(
                        prog,
                        &net,
                        &assignment,
                        &RunConfig::comm_only(),
                        &Trace::off(),
                    ))
                })
            },
        );
    }
    group.bench_function("profile_lu64", |b| {
        let w = AppKind::Lu.workload(64);
        b.iter(|| black_box(w.pattern()))
    });
    group.bench_function("calibrate_4_sites", |b| {
        b.iter(|| black_box(Calibrator::new(CalibrationConfig::default()).calibrate(&net)))
    });
    group.finish();
}

/// The off path of the trace layer: the discrete-event replay through
/// the single `mpirt::execute` entry point with `Trace::off()`, where
/// every event site is a `None` check. Run it alone with
/// `cargo bench --bench simulator -- simnet_trace_off`.
fn bench_trace_off(c: &mut Criterion) {
    let net = presets::paper_ec2_network(16, InstanceType::M4Xlarge, 1);
    let assignment: Vec<SiteId> = (0..64).map(|i| SiteId(i / 16)).collect();
    let program = AppKind::KMeans.workload(64).program();
    let cfg = RunConfig::comm_only();
    let mut group = c.benchmark_group("simnet_trace_off");
    group.bench_function("off", |b| {
        b.iter(|| {
            black_box(mpirt::execute(
                &program,
                &net,
                &assignment,
                &cfg,
                &Trace::off(),
            ))
            .makespan
        })
    });
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_runtime, bench_trace_off
}
criterion_main!(benches);

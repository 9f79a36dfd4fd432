//! The complete Fig. 2 pipeline, end to end.
//!
//! Everything the paper automates, in order: profile the application
//! (trace + CYPRESS-style compression), calibrate the network with
//! simulated SKaMPI ping-pongs (O(M²) probes instead of O(N²)), group
//! sites with K-means, optimize the mapping — then *verify the result on
//! the ground-truth network the optimizer never saw*, by replaying the
//! program in the message-passing runtime simulator.
//!
//! ```text
//! cargo run --release --example full_pipeline
//! ```

use geo_process_mapping::prelude::*;
use geomap_core::pipeline::{self, PipelineConfig};
use geomap_core::Trace;
use geonet::calibration_cost_minutes;

fn main() {
    // Ground truth: the live cloud. The optimizer only ever sees probes.
    let truth = net::presets::paper_ec2_network(16, net::InstanceType::M4Xlarge, 2024);
    let app = comm::apps::AppKind::Sp;
    let workload = app.workload(64);
    let program = workload.program();

    println!("== stage 0: the environment (hidden from the optimizer) ==");
    println!("{}", truth.summary());
    let (site_min, node_min) = calibration_cost_minutes(4, 64);
    println!(
        "calibration budget: {site_min:.0} site-pair minutes vs {node_min:.0} node-pair minutes"
    );

    println!("\n== stages 1-4: profile -> calibrate -> group -> optimize ==");
    let constraints = ConstraintVector::random(64, 0.2, &truth.capacities(), 99);
    let result = pipeline::run(&program, &truth, constraints, &PipelineConfig::default());
    println!(
        "profiling: {} edges, trace compressed {:.0}x",
        result.pattern.num_edges(),
        result.compression_ratio
    );
    println!(
        "calibration: {} probes, max inter-site variation {:.1}%",
        result.calibration.probes,
        result.calibration.max_inter_site_cv() * 100.0
    );
    println!(
        "optimization: cost {:.1}s (estimated), took {:?}",
        result.estimated_cost, result.optimization_time
    );

    println!("\n== stage 5: verify against the ground truth ==");
    let cfg = runtime::RunConfig::comm_only();
    let optimized = runtime::execute(
        &program,
        &truth,
        result.mapping.as_slice(),
        &cfg,
        &Trace::off(),
    )
    .makespan;
    let random_mapping = baselines::RandomMapper::default().map(&result.problem);
    let random = runtime::execute(
        &program,
        &truth,
        random_mapping.as_slice(),
        &cfg,
        &Trace::off(),
    )
    .makespan;
    println!("random placement:     {random:>8.2}s communication time");
    println!("pipeline's placement: {optimized:>8.2}s communication time");
    println!(
        "improvement:          {:>8.1}%",
        (random - optimized) / random * 100.0
    );
    assert!(
        optimized < random,
        "the optimized mapping must beat random on the real network"
    );
}

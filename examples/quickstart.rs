//! Quickstart: map an HPC kernel across four cloud regions.
//!
//! Builds the paper's EC2 deployment (US East, US West, Singapore,
//! Ireland — 16 nodes each), profiles NPB LU at 64 ranks, runs every
//! mapping algorithm and compares both the Eq. 3 cost and the actual
//! simulated execution time.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use geo_process_mapping::prelude::*;
use geomap_core::{cost as eq3_cost, Trace};

fn main() {
    // 1. The environment: 4 geo-distributed EC2 regions, 16 m4.xlarge
    //    instances each (paper §5.1).
    let network = net::presets::paper_ec2_network(16, net::InstanceType::M4Xlarge, 42);
    println!("network: {}", network.summary());

    // 2. The application: NPB LU, one process per instance.
    let app = comm::apps::AppKind::Lu;
    let workload = app.workload(64);
    let pattern = workload.pattern();
    println!(
        "workload: {} — {:.1} MB over {} messages, diagonal locality {:.2}",
        app,
        pattern.total_bytes() / 1e6,
        pattern.total_msgs(),
        pattern.diagonal_locality(9),
    );

    // 3. The problem and the mappers.
    let problem = MappingProblem::unconstrained(pattern, network.clone());
    let mappers: Vec<Box<dyn Mapper>> = vec![
        Box::new(baselines::RandomMapper::default()),
        Box::new(baselines::GreedyMapper::default()),
        Box::new(baselines::MpippMapper::default()),
        Box::new(GeoMapper::default()),
    ];

    // 4. Compare: model cost (Eq. 3) and simulated communication time.
    println!(
        "\n{:<16} {:>12} {:>14}",
        "mapper", "Eq.3 cost", "simulated time"
    );
    let mut baseline_time = None;
    for mapper in &mappers {
        let mapping = mapper.map(&problem);
        mapping
            .validate(&problem)
            .expect("mappers must emit feasible mappings");
        let c = eq3_cost(&problem, &mapping);
        let t = runtime::execute_workload(
            workload.as_ref(),
            &network,
            mapping.as_slice(),
            &runtime::RunConfig::comm_only(),
            &Trace::off(),
        )
        .makespan;
        let vs = match baseline_time {
            None => {
                baseline_time = Some(t);
                String::new()
            }
            Some(base) => format!("  ({:+.0}% vs Baseline)", (base - t) / base * 100.0),
        };
        println!("{:<16} {c:>11.1}s {t:>13.2}s{vs}", mapper.name());
    }
}

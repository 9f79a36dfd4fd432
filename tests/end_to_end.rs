//! End-to-end integration: the full paper flow across every crate.

use geo_process_mapping::comm::apps::Workload;
use geo_process_mapping::prelude::*;
use geomap_core::{cost as eq3_cost, Trace};

/// The paper's deployment at a reduced node count per site.
fn deployment(nodes_per_site: usize, seed: u64) -> net::SiteNetwork {
    net::presets::paper_ec2_network(nodes_per_site, net::InstanceType::M4Xlarge, seed)
}

fn all_mappers(seed: u64) -> Vec<Box<dyn Mapper>> {
    vec![
        Box::new(baselines::RandomMapper::with_seed(seed)),
        Box::new(baselines::GreedyMapper::default()),
        Box::new(baselines::MpippMapper::with_seed(seed)),
        Box::new(GeoMapper {
            seed,
            ..GeoMapper::default()
        }),
    ]
}

#[test]
fn every_mapper_is_feasible_on_every_app() {
    let network = deployment(8, 1);
    for app in comm::apps::AppKind::ALL {
        let pattern = app.workload(32).pattern();
        let constraints = ConstraintVector::random(32, 0.2, &network.capacities(), 5);
        let problem = MappingProblem::new(pattern, network.clone(), constraints);
        for mapper in all_mappers(1) {
            let m = mapper.map(&problem);
            m.validate(&problem)
                .unwrap_or_else(|e| panic!("{} on {app}: {e}", mapper.name()));
        }
    }
}

#[test]
fn geo_beats_baseline_on_every_app_in_model_cost() {
    let network = deployment(8, 2);
    for app in comm::apps::AppKind::ALL {
        let pattern = app.workload(32).pattern();
        let problem = MappingProblem::unconstrained(pattern, network.clone());
        let base: f64 = (0..5)
            .map(|s| {
                eq3_cost(
                    &problem,
                    &baselines::RandomMapper::with_seed(s).map(&problem),
                )
            })
            .sum::<f64>()
            / 5.0;
        let geo = eq3_cost(&problem, &GeoMapper::default().map(&problem));
        assert!(
            geo < 0.8 * base,
            "{app}: geo {geo} not clearly below baseline {base}"
        );
    }
}

#[test]
fn geo_beats_baseline_in_simulated_execution() {
    let network = deployment(8, 3);
    for app in [comm::apps::AppKind::Lu, comm::apps::AppKind::KMeans] {
        let workload = app.workload(32);
        let problem = MappingProblem::unconstrained(workload.pattern(), network.clone());
        let cfg = runtime::RunConfig::comm_only();
        let base = runtime::execute_workload(
            workload.as_ref(),
            &network,
            baselines::RandomMapper::with_seed(9)
                .map(&problem)
                .as_slice(),
            &cfg,
            &Trace::off(),
        )
        .makespan;
        let geo = runtime::execute_workload(
            workload.as_ref(),
            &network,
            GeoMapper::default().map(&problem).as_slice(),
            &cfg,
            &Trace::off(),
        )
        .makespan;
        assert!(geo < base, "{app}: simulated geo {geo} vs baseline {base}");
    }
}

#[test]
fn optimized_mappings_cut_wan_traffic() {
    let network = deployment(8, 4);
    let workload = comm::apps::AppKind::Lu.workload(32);
    let problem = MappingProblem::unconstrained(workload.pattern(), network.clone());
    let cfg = runtime::RunConfig::comm_only();
    let random = runtime::execute_workload(
        workload.as_ref(),
        &network,
        baselines::RandomMapper::with_seed(1)
            .map(&problem)
            .as_slice(),
        &cfg,
        &Trace::off(),
    );
    let geo = runtime::execute_workload(
        workload.as_ref(),
        &network,
        GeoMapper::default().map(&problem).as_slice(),
        &cfg,
        &Trace::off(),
    );
    assert!(
        geo.stats.wan_fraction() < random.stats.wan_fraction(),
        "geo wan {} vs random wan {}",
        geo.stats.wan_fraction(),
        random.stats.wan_fraction()
    );
    // Same application, same total traffic — only its placement differs.
    assert_eq!(geo.stats.total_messages(), random.stats.total_messages());
    assert_eq!(geo.stats.total_bytes(), random.stats.total_bytes());
}

#[test]
fn full_constraints_force_identical_mappings_across_mappers() {
    let network = deployment(4, 5);
    let pattern = comm::apps::AppKind::Sp.workload(16).pattern();
    let constraints = ConstraintVector::random(16, 1.0, &network.capacities(), 8);
    let problem = MappingProblem::new(pattern, network, constraints);
    let reference = baselines::RandomMapper::with_seed(0).map(&problem);
    for mapper in all_mappers(3) {
        assert_eq!(
            mapper.map(&problem),
            reference,
            "{} deviated",
            mapper.name()
        );
    }
}

#[test]
fn tiny_instance_heuristics_bounded_by_exhaustive_optimum() {
    let sites = net::presets::ec2_sites(&["us-east-1", "ap-southeast-1", "eu-west-1"], 2);
    let network = net::SynthNetworkBuilder::new(net::SynthConfig::default()).build(sites);
    let pattern = comm::apps::Ring {
        n: 6,
        iterations: 3,
        bytes: 500_000,
    }
    .pattern();
    let problem = MappingProblem::unconstrained(pattern, network);
    let (_, optimum) = baselines::ExhaustiveMapper::default().optimum(&problem);
    for mapper in all_mappers(7) {
        let c = eq3_cost(&problem, &mapper.map(&problem));
        assert!(c >= optimum - 1e-9, "{} beat the optimum?!", mapper.name());
    }
    let geo = eq3_cost(&problem, &GeoMapper::default().map(&problem));
    assert!(
        geo <= 1.5 * optimum,
        "geo {geo} too far from optimum {optimum}"
    );
}

#[test]
fn calibrated_estimates_produce_mappings_good_on_ground_truth() {
    use geomap_core::pipeline::{self, PipelineConfig};
    let truth = deployment(8, 6);
    let program = comm::apps::AppKind::KMeans.workload(32).program();
    let result = pipeline::run(
        &program,
        &truth,
        ConstraintVector::none(32),
        &PipelineConfig::default(),
    );
    // Evaluate the pipeline's mapping against ground truth.
    let true_problem = MappingProblem::unconstrained(result.pattern.clone(), truth);
    let geo_on_truth = eq3_cost(&true_problem, &result.mapping);
    let base_on_truth = eq3_cost(
        &true_problem,
        &baselines::RandomMapper::with_seed(2).map(&true_problem),
    );
    assert!(geo_on_truth < base_on_truth);
}

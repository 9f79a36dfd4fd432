//! Cross-crate property tests: random problems in, invariants out.

use geo_process_mapping::comm::apps::Workload;
use geo_process_mapping::prelude::*;
use geomap_core::{cost as eq3_cost, Trace};
use proptest::prelude::*;

/// A random problem: 2–4 sites from the EC2 catalogue, 4–24 processes
/// with a random sparse pattern and random constraint ratio.
fn arb_problem() -> impl Strategy<Value = MappingProblem> {
    (2usize..=4, 1usize..=6, 0u64..1000, 0.0f64..0.8).prop_map(
        |(sites, per_site_factor, seed, ratio)| {
            let names: Vec<&str> =
                ["us-east-1", "us-west-2", "ap-southeast-1", "eu-west-1"][..sites].to_vec();
            let nodes = per_site_factor.max(1);
            let net_sites = net::presets::ec2_sites(&names, nodes);
            let network = net::SynthNetworkBuilder::new(net::SynthConfig {
                seed,
                ..net::SynthConfig::default()
            })
            .build(net_sites);
            let n = sites * nodes;
            let pattern = comm::apps::RandomGraph {
                n,
                degree: 3,
                max_bytes: 1_000_000,
                seed,
            }
            .pattern();
            let constraints =
                ConstraintVector::random(n, ratio, &network.capacities(), seed ^ 0xC0);
            MappingProblem::new(pattern, network, constraints)
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn every_mapper_is_always_feasible(problem in arb_problem(), seed in 0u64..100) {
        let mappers: Vec<Box<dyn Mapper>> = vec![
            Box::new(baselines::RandomMapper::with_seed(seed)),
            Box::new(baselines::GreedyMapper::default()),
            Box::new(baselines::MpippMapper { restarts: 1, ..baselines::MpippMapper::with_seed(seed) }),
            Box::new(GeoMapper { seed, ..GeoMapper::default() }),
        ];
        for mapper in mappers {
            let m = mapper.map(&problem);
            prop_assert!(m.validate(&problem).is_ok(), "{} infeasible", mapper.name());
            let c = eq3_cost(&problem, &m);
            prop_assert!(c.is_finite() && c >= 0.0);
        }
    }

    #[test]
    fn cost_agrees_with_simnet_replay(problem in arb_problem(), seed in 0u64..100) {
        let m = baselines::RandomMapper::with_seed(seed).map(&problem);
        let a = eq3_cost(&problem, &m);
        let b = sim::sum_cost(problem.pattern(), problem.network(), m.as_slice());
        prop_assert!((a - b).abs() <= 1e-9 * a.max(1.0));
        // The bottleneck estimate is a lower bound on the sum.
        let bt = sim::bottleneck_time(problem.pattern(), problem.network(), m.as_slice());
        prop_assert!(bt <= a + 1e-9);
    }

    #[test]
    fn geo_never_loses_to_its_own_baseline_badly(problem in arb_problem()) {
        // Geo's packed mapping must never be worse than the *average*
        // random mapping: the algorithm optimizes the exact objective we
        // measure.
        let base: f64 = (0..5)
            .map(|s| eq3_cost(&problem, &baselines::RandomMapper::with_seed(s).map(&problem)))
            .sum::<f64>() / 5.0;
        let geo = eq3_cost(&problem, &GeoMapper::default().map(&problem));
        prop_assert!(geo <= base * 1.05, "geo {geo} vs baseline mean {base}");
    }

    #[test]
    fn des_makespan_bounded_below_by_single_message_floor(
        n in 2usize..10, bytes in 1u64..1_000_000, seed in 0u64..50
    ) {
        // A single transfer through the DES can never beat the raw alpha-beta
        // time of its link, whatever the mapping.
        let network = net::presets::paper_ec2_network(4, net::InstanceType::M4Xlarge, seed);
        let mut b = comm::ProgramBuilder::new(n);
        b.transfer(0, 1, bytes);
        let program = b.build();
        let assignment: Vec<geonet::SiteId> =
            (0..n).map(|i| geonet::SiteId((i as u64 + seed) as usize % 4)).collect();
        let result = runtime::execute(&program, &network, &assignment,
            &runtime::RunConfig { send_overhead: 0.0, ..runtime::RunConfig::comm_only() }, &Trace::off());
        let floor = network.alpha_beta(assignment[0], assignment[1]).transfer_time(bytes);
        prop_assert!(result.makespan >= floor - 1e-12);
        prop_assert!((result.makespan - floor).abs() < 1e-9);
    }

    #[test]
    fn compression_preserves_profiles_for_real_apps(
        ranks in prop::sample::select(vec![8usize, 12, 16]),
        app_idx in 0usize..5,
    ) {
        let app = comm::apps::AppKind::ALL[app_idx];
        let program = app.workload(ranks).program();
        let mut trace = comm::Trace::new();
        for r in 0..ranks {
            for op in program.rank_ops(r) {
                if let comm::RankOp::Send { to, bytes } = op {
                    trace.push(r, *to, *bytes);
                }
            }
        }
        let direct = trace.to_pattern(ranks);
        let compressed = trace.compress().to_pattern(ranks);
        prop_assert_eq!(&direct, &compressed);
        prop_assert_eq!(&direct, &program.profile());
    }

    #[test]
    fn swap_chain_keeps_cost_bookkeeping_exact(problem in arb_problem(), swaps in prop::collection::vec((0usize..20, 0usize..20), 1..10)) {
        // Apply a chain of swaps tracking cost incrementally; the running
        // total must match a full recomputation at the end.
        let n = problem.num_processes();
        let mut mapping = baselines::RandomMapper::with_seed(3).map(&problem);
        let mut running = eq3_cost(&problem, &mapping);
        for (a, b) in swaps {
            let (a, b) = (a % n, b % n);
            // Swapping constrained processes would violate C; skip those.
            if problem.constraints().pin_of(a).is_some() || problem.constraints().pin_of(b).is_some() {
                continue;
            }
            running += geomap_core::cost::swap_delta(&problem, &mapping, a, b);
            mapping.swap(a, b);
        }
        let exact = eq3_cost(&problem, &mapping);
        prop_assert!((running - exact).abs() <= 1e-6 * exact.max(1.0),
            "incremental {running} vs exact {exact}");
    }
}

//! Integration tests for the future-work extensions: multi-site
//! (allowed-set) constraints and multi-provider deployments.

use geo_process_mapping::prelude::*;
use geomap_core::cost as eq3_cost;
use geomap_core::AllowedSites;
use geonet::presets::MultiCloud;
use geonet::SiteId;

#[test]
fn multicloud_network_keeps_observations() {
    let network = MultiCloud::default().build();
    // Observation 1 survives the provider mix.
    assert!(network.intra_inter_bandwidth_ratio() > 5.0);
    // Cross-provider EU pair (eu-west-1 <-> West Europe, ~1000 km) still
    // beats the transpacific same-provider pair (us-east-1 <-> Japan
    // East is not present; use ap-southeast-1 <-> West US).
    let site = |name: &str| SiteId(network.sites().iter().position(|s| s.name == name).unwrap());
    let eu_pair = network.bandwidth(site("eu-west-1"), site("West Europe"));
    let transpacific = network.bandwidth(site("ap-southeast-1"), site("West US"));
    assert!(
        eu_pair > transpacific,
        "nearby cross-provider {eu_pair} not above far same-planet {transpacific}"
    );
}

#[test]
fn multisite_constraints_on_multicloud_end_to_end() {
    let network = MultiCloud::default().build();
    let n = network.total_nodes();
    let pattern = comm::apps::AppKind::Lu.workload(n).pattern();
    let problem = MappingProblem::unconstrained(pattern, network.clone());

    let eu_sites: Vec<SiteId> = network
        .sites()
        .iter()
        .enumerate()
        .filter(|(_, s)| s.name == "eu-west-1" || s.name == "West Europe")
        .map(|(i, _)| SiteId(i))
        .collect();
    let mut allowed = AllowedSites::unrestricted(n);
    for i in 0..n / 3 {
        allowed.restrict(i, &eu_sites);
    }
    let mapping = GeoMapper::with_allowed(allowed.clone()).map(&problem);
    mapping.validate(&problem).unwrap();
    assert!(allowed.satisfied_by(mapping.as_slice()));

    // Still better than random despite the policy.
    let random = eq3_cost(&problem, &baselines::RandomMapper::default().map(&problem));
    assert!(eq3_cost(&problem, &mapping) < random);
}

#[test]
fn allowed_sets_tighten_monotonically() {
    // Cost under {EU-only} ⊇ cost under {EU or US-East} ⊇ unrestricted.
    let network = MultiCloud::default().build();
    let n = network.total_nodes();
    let pattern = comm::apps::AppKind::KMeans.workload(n).pattern();
    let problem = MappingProblem::unconstrained(pattern, network.clone());
    let site = |name: &str| SiteId(network.sites().iter().position(|s| s.name == name).unwrap());

    // Restrict 6 processes — within even a single site's capacity (8
    // nodes), so the singleton-set case stays feasible.
    let restricted = 6.min(n);
    let cost_with = |sets: &[Vec<SiteId>]| {
        let mut allowed = AllowedSites::unrestricted(n);
        for (i, set) in sets.iter().cycle().take(restricted).enumerate() {
            allowed.restrict(i, set);
        }
        eq3_cost(&problem, &GeoMapper::with_allowed(allowed).map(&problem))
    };
    let free = eq3_cost(&problem, &GeoMapper::default().map(&problem));
    let loose = cost_with(&[vec![
        site("eu-west-1"),
        site("West Europe"),
        site("us-east-1"),
    ]]);
    let tight = cost_with(&[vec![site("West Europe")]]);
    assert!(free <= loose + 1e-9, "unrestricted {free} vs loose {loose}");
    assert!(loose <= tight + 1e-9, "loose {loose} vs tight {tight}");
}

#[test]
fn geo_still_wins_on_azure_profile() {
    // Future work #1: the algorithm is not EC2-specific.
    let network = net::presets::azure_network(
        &["East US", "West Europe", "Japan East", "Southeast Asia"],
        8,
        3,
    );
    let pattern = comm::apps::AppKind::Lu.workload(32).pattern();
    let problem = MappingProblem::unconstrained(pattern, network);
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
    assert!(geo < 0.6 * base, "geo {geo} vs base {base}");
}

//! Mapping across two cloud providers with set-valued residency rules.
//!
//! The paper's future-work scenario: a deployment spanning Amazon EC2
//! *and* Windows Azure, where cross-provider links pay a peering
//! penalty, and GDPR data may live in **any EU region of either
//! provider** — a multi-site constraint (an allowed-site *set*, not a
//! single pin), this workspace's extension of the paper's constraint
//! model.
//!
//! ```text
//! cargo run --release --example multi_cloud
//! ```

use geo_process_mapping::prelude::*;
use geomap_core::cost as eq3_cost;
use geomap_core::AllowedSites;
use geonet::presets::MultiCloud;
use geonet::SiteId;

fn main() {
    // Three EC2 + three Azure regions, 8 nodes each.
    let deployment = MultiCloud::default();
    let network = deployment.build();
    println!("multi-cloud network: {}", network.summary());
    for (i, site) in network.sites().iter().enumerate() {
        let provider = if i < deployment.ec2_regions.len() {
            "EC2"
        } else {
            "Azure"
        };
        println!(
            "  site {i}: {:<16} ({provider}, {} nodes)",
            site.name, site.nodes
        );
    }

    let n = network.total_nodes();
    let pattern = comm::apps::AppKind::KMeans.workload(n).pattern();
    let problem = MappingProblem::unconstrained(pattern, network.clone());

    // GDPR rule: the first quarter of the processes handle EU records
    // and may run in eu-west-1 (EC2) or West Europe (Azure) — either
    // provider satisfies the residency law.
    let eu_sites: Vec<SiteId> = network
        .sites()
        .iter()
        .enumerate()
        .filter(|(_, s)| s.name == "eu-west-1" || s.name == "West Europe")
        .map(|(i, _)| SiteId(i))
        .collect();
    let mut allowed = AllowedSites::unrestricted(n);
    for i in 0..n / 4 {
        allowed.restrict(i, &eu_sites);
    }
    println!(
        "\npolicy: processes 0..{} restricted to {:?}",
        n / 4,
        eu_sites
            .iter()
            .map(|s| &network.site(*s).name)
            .collect::<Vec<_>>()
    );

    let mapping = GeoMapper::with_allowed(allowed.clone()).map(&problem);
    assert!(allowed.satisfied_by(mapping.as_slice()), "policy violated");

    let random = eq3_cost(&problem, &baselines::RandomMapper::default().map(&problem));
    let multi = eq3_cost(&problem, &mapping);
    println!("\nrandom placement cost:      {random:>8.1}s");
    println!(
        "policy-aware Geo cost:      {multi:>8.1}s  ({:.1}% better)",
        (random - multi) / random * 100.0
    );

    // Where did the EU processes land?
    let mut eu_counts = vec![0usize; network.num_sites()];
    for i in 0..n / 4 {
        eu_counts[mapping.site_of(i).index()] += 1;
    }
    println!("\nEU process placement:");
    for (i, c) in eu_counts.iter().enumerate() {
        if *c > 0 {
            println!("  {:<16} {c} processes", network.site(SiteId(i)).name);
        }
    }
    println!("(all inside the allowed EU set, split across providers as capacity allows)");
}

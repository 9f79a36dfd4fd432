//! Extension experiments beyond the paper's evaluation — its two stated
//! pieces of future work (§7):
//!
//! * **azure** — "first extend this study onto different clouds such as
//!   Windows Azure": the Fig. 6 communication-improvement comparison
//!   rerun on the Azure network profile (Table 3 fit: steeper distance
//!   decay, lower absolute WAN bandwidth).
//! * **multicloud** — "later consider ... multiple cloud providers": the
//!   same comparison on a combined EC2+Azure deployment with peering
//!   penalties on cross-provider links, plus the multi-site allowed-set
//!   constraints ("any EU region of either provider") that only make
//!   sense in that setting.

use crate::util::{improvement_pct, mean, Csv, ExpContext};
use baselines::{paper_mappers, RandomMapper};
use commgraph::apps::AppKind;
use geomap_core::{
    cost, AllowedSites, ConstraintVector, GeoMapper, Mapper, MappingProblem, Metrics,
};
use geonet::presets::MultiCloud;
use geonet::SiteId;

fn improvement_table(title: &str, file: &str, network: &geonet::SiteNetwork, ctx: &ExpContext) {
    println!("== {title} ==");
    let n = network.total_nodes();
    println!("network: {}", network.summary());
    println!(
        "{:<10} {:>8} {:>8} {:>8}   (improvement % over Baseline, Eq. 3 cost)",
        "app", "Greedy", "MPIPP", "Geo"
    );
    let mut csv = Csv::new(&["app", "greedy_pct", "mpipp_pct", "geo_pct"]);
    for app in AppKind::ALL {
        let pattern = app.workload(n).pattern();
        let problem = MappingProblem::unconstrained(pattern, network.clone());
        let samples = ctx.scaled(8, 3);
        let base = mean(
            &(0..samples)
                .map(|i| {
                    cost(
                        &problem,
                        &RandomMapper::with_seed(ctx.seed + i as u64).map(&problem),
                    )
                })
                .collect::<Vec<_>>(),
        );
        let mut row = Vec::new();
        for mapper in paper_mappers(ctx.seed, &Metrics::off()) {
            let imp = improvement_pct(base, cost(&problem, &mapper.map(&problem)));
            row.push(imp);
        }
        println!(
            "{:<10} {:>8.1} {:>8.1} {:>8.1}",
            app.name(),
            row[0],
            row[1],
            row[2]
        );
        csv.row(&[
            app.name().into(),
            format!("{:.2}", row[0]),
            format!("{:.2}", row[1]),
            format!("{:.2}", row[2]),
        ]);
    }
    ctx.write_csv(file, &csv.finish());
}

/// Azure validation run.
pub fn run_azure(ctx: &ExpContext) {
    let nodes = ctx.scaled(16, 4);
    let network = geonet::presets::azure_network(
        &["East US", "West Europe", "Japan East", "Southeast Asia"],
        nodes,
        ctx.seed,
    );
    improvement_table(
        "Extension: improvement on Windows Azure (future work #1)",
        "ext_azure_improvement.csv",
        &network,
        ctx,
    );
}

/// Multi-provider run, including allowed-set constraints.
pub fn run_multicloud(ctx: &ExpContext) {
    let nodes = ctx.scaled(8, 4);
    let mc = MultiCloud {
        nodes,
        seed: ctx.seed,
        ..MultiCloud::default()
    };
    let network = mc.build();
    improvement_table(
        "Extension: improvement on a combined EC2+Azure deployment (future work #2)",
        "ext_multicloud_improvement.csv",
        &network,
        ctx,
    );

    // Allowed-set constraints across providers: EU data may live in any
    // EU region of either provider (eu-west-1 = site 1, West Europe =
    // site 4 in the default MultiCloud layout).
    println!("\n-- multi-site constraints: EU data on any EU region of either provider --");
    let n = network.total_nodes();
    let eu_sites: Vec<SiteId> = network
        .sites()
        .iter()
        .enumerate()
        .filter(|(_, s)| s.name == "eu-west-1" || s.name == "West Europe")
        .map(|(i, _)| SiteId(i))
        .collect();
    assert_eq!(
        eu_sites.len(),
        2,
        "default MultiCloud must include two EU regions"
    );
    let pattern = AppKind::KMeans.workload(n).pattern();
    let problem = MappingProblem::new(pattern, network, ConstraintVector::none(n));
    let mut allowed = AllowedSites::unrestricted(n);
    let eu_processes = n / 4;
    for i in 0..eu_processes {
        allowed.restrict(i, &eu_sites);
    }
    let mapping = GeoMapper::with_allowed(allowed.clone()).map(&problem);
    assert!(allowed.satisfied_by(mapping.as_slice()));
    let base = cost(&problem, &RandomMapper::with_seed(ctx.seed).map(&problem));
    let multi = cost(&problem, &mapping);
    println!(
        "{eu_processes}/{n} processes restricted to {} EU sites: cost {multi:.1}s vs random {base:.1}s ({:.1}% better), policy holds",
        eu_sites.len(),
        improvement_pct(base, multi)
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn azure_runs_in_smoke_mode() {
        run_azure(&ExpContext::smoke());
    }

    #[test]
    fn multicloud_runs_in_smoke_mode() {
        run_multicloud(&ExpContext::smoke());
    }
}

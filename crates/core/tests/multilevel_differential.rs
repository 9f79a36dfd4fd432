//! Differential oracle for the multilevel solver, on the paper's
//! Fig. 4 / Fig. 5 setups (the five applications over the emulated
//! 4-region EC2 deployment).
//!
//! Two gates, both tier-1 (they run under plain `cargo test`, not just
//! the bench):
//!
//! * **Degenerate bit-identity** — with a coarsening cutoff at or
//!   above `N`, the multilevel solver *is* the direct [`GeoMapper`]:
//!   the inner solver sees the untouched problem on the same RNG
//!   stream, so the mapping must match bit for bit, at every `N ≤
//!   4096` shape we can afford here.
//! * **±5 % cost band** — full multilevel (cutoff forcing several
//!   levels) stays within 5 % of the direct solver's Eq. 3 cost on
//!   every Fig. 4/Fig. 5 application, and stays feasible.

use commgraph::apps::AppKind;
use geomap_core::{
    cost, AllowedSites, GeoMapper, Mapper, MappingProblem, MultilevelConfig, MultilevelMapper,
};
use geonet::{presets, InstanceType, SiteId};

const APPS: [AppKind; 5] = [
    AppKind::Bt,
    AppKind::Sp,
    AppKind::Lu,
    AppKind::KMeans,
    AppKind::Dnn,
];

/// One Fig. 5-style problem: `n` ranks of `app` over the paper's
/// 4-region EC2 network with just enough slack capacity.
fn fig_problem(app: AppKind, n: usize, seed: u64) -> MappingProblem {
    let net = presets::paper_ec2_network(n.div_ceil(4) + 1, InstanceType::M4Xlarge, seed);
    MappingProblem::unconstrained(app.workload(n).pattern(), net)
}

#[test]
fn degenerate_cutoff_matches_direct_solver_bit_for_bit() {
    for app in APPS {
        for n in [16usize, 64, 256] {
            let problem = fig_problem(app, n, 7);
            let inner = GeoMapper::default();
            let direct = inner.map(&problem);
            let multilevel = MultilevelMapper {
                config: MultilevelConfig {
                    coarsen_cutoff: 4096,
                    ..MultilevelConfig::default()
                },
                inner,
                ..MultilevelMapper::default()
            }
            .map(&problem);
            assert_eq!(
                multilevel.as_slice(),
                direct.as_slice(),
                "{app:?} at n={n}: degenerate multilevel diverged from GeoMapper"
            );
        }
    }
}

#[test]
fn full_multilevel_within_five_percent_of_direct() {
    for app in APPS {
        let n = 64;
        let problem = fig_problem(app, n, 7);
        let inner = GeoMapper::default();
        let direct_cost = cost(&problem, &inner.map(&problem));
        let mapper = MultilevelMapper {
            // Cutoff 8 on 64 ranks forces a real hierarchy (~3 levels).
            config: MultilevelConfig {
                coarsen_cutoff: 8,
                match_rounds: 2,
                refine_passes: 3,
            },
            inner,
            ..MultilevelMapper::default()
        };
        let mapping = mapper.map(&problem);
        mapping.validate(&problem).unwrap();
        let ml_cost = cost(&problem, &mapping);
        let ratio = ml_cost / direct_cost;
        assert!(
            ratio <= 1.05,
            "{app:?}: multilevel cost {ml_cost} is {:.1}% above direct {direct_cost}",
            (ratio - 1.0) * 100.0
        );
        assert!(
            ratio > 0.2,
            "{app:?}: multilevel cost {ml_cost} suspiciously below direct {direct_cost}"
        );
    }
}

/// Allowed-site sets below the cutoff: the inner solver maps the problem
/// with its sets, bit for bit what `GeoMapper::with_allowed` gives.
#[test]
fn allowed_sets_at_or_below_cutoff_match_geo_with_allowed() {
    let n = 64;
    let problem = fig_problem(AppKind::Lu, n, 7);
    let mut allowed = AllowedSites::unrestricted(n);
    for i in 0..8 {
        allowed.restrict(i, &[SiteId(1), SiteId(2)]);
    }
    let inner = GeoMapper::with_allowed(allowed.clone());
    let direct = inner.map(&problem);
    let multilevel = MultilevelMapper {
        config: MultilevelConfig {
            coarsen_cutoff: n,
            ..MultilevelConfig::default()
        },
        inner,
        ..MultilevelMapper::default()
    }
    .map(&problem);
    assert!(allowed.satisfied_by(multilevel.as_slice()));
    assert_eq!(multilevel.as_slice(), direct.as_slice());
}

/// Coarsening would merge processes with different sets, so a problem
/// above the cutoff is refused up front with the reason.
#[test]
#[should_panic(expected = "multilevel cannot carry allowed-site sets through coarsening")]
fn allowed_sets_above_cutoff_are_rejected() {
    let n = 64;
    let problem = fig_problem(AppKind::Lu, n, 7);
    MultilevelMapper {
        config: MultilevelConfig {
            coarsen_cutoff: 8,
            ..MultilevelConfig::default()
        },
        inner: GeoMapper::with_allowed(AllowedSites::unrestricted(n)),
        ..MultilevelMapper::default()
    }
    .map(&problem);
}

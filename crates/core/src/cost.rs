//! The communication cost function (paper Eq. 3).
//!
//! When process `i` is mapped to site `k` and process `j` to site `l`,
//! the cost of their traffic is
//! `f(w_ij, d_kl) = AG(i,j)·LT(k,l) + CG(i,j)/BT(k,l)` — message count
//! times latency plus volume over bandwidth — and the mapping's total
//! cost (Eq. 2/4) is the sum over all process pairs. Evaluation is
//! `O(E)` over the sparse pattern.
//!
//! [`CostModel`] exposes latency-only and bandwidth-only variants for the
//! ablation study of the design choices in DESIGN.md.

use crate::mapping::Mapping;
use crate::problem::MappingProblem;
use commgraph::CommPattern;
use geonet::{SiteId, SiteNetwork};

/// Which terms of Eq. 3 the objective uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CostModel {
    /// The paper's full α–β objective.
    #[default]
    Full,
    /// Only `AG·LT` (ablation: ignore bandwidth).
    LatencyOnly,
    /// Only `CG/BT` (ablation: ignore latency).
    BandwidthOnly,
}

/// Cost of the traffic between one mapped process pair (Eq. 3).
#[inline]
pub fn pair_cost(net: &SiteNetwork, msgs: f64, bytes: f64, from: SiteId, to: SiteId) -> f64 {
    msgs * net.latency(from, to) + bytes / net.bandwidth(from, to)
}

/// Fold a [`CostModel`] into raw `(msgs, bytes)` edge components: the
/// latency-only model zeroes the bytes, the bandwidth-only model the
/// messages, so downstream evaluation is always the full two-term
/// kernel. Used by [`crate::delta::CostTables`] to bake the model into
/// its flat storage once at build time.
#[inline]
pub fn model_components(model: CostModel, msgs: f64, bytes: f64) -> (f64, f64) {
    match model {
        CostModel::Full => (msgs, bytes),
        CostModel::LatencyOnly => (msgs, 0.0),
        CostModel::BandwidthOnly => (0.0, bytes),
    }
}

/// Total cost of `mapping` under the paper's full model (Eq. 2/4).
pub fn cost(problem: &MappingProblem, mapping: &Mapping) -> f64 {
    cost_with_model(problem, mapping, CostModel::Full)
}

/// Total cost under a chosen [`CostModel`].
pub fn cost_with_model(problem: &MappingProblem, mapping: &Mapping, model: CostModel) -> f64 {
    debug_assert_eq!(mapping.len(), problem.num_processes());
    let net = problem.network();
    let pattern = problem.pattern();
    let mut total = 0.0;
    for src in 0..pattern.n() {
        let from = mapping.site_of(src);
        for e in pattern.out_edges(src) {
            let to = mapping.site_of(e.dst);
            total += match model {
                CostModel::Full => pair_cost(net, e.msgs, e.bytes, from, to),
                CostModel::LatencyOnly => e.msgs * net.latency(from, to),
                CostModel::BandwidthOnly => e.bytes / net.bandwidth(from, to),
            };
        }
    }
    total
}

/// Cost contribution of all edges incident to process `i` (both
/// directions). `O(deg(i))`: the problem's cached partner list is walked
/// in lockstep with `i`'s sorted out-edges, the in-direction being the
/// remainder. Used by local-search mappers for incremental swap
/// evaluation.
pub fn incident_cost(problem: &MappingProblem, mapping: &Mapping, i: usize) -> f64 {
    incident_cost_with(problem, i, &|p| mapping.site_of(p))
}

/// Exact cost change from swapping the sites of processes `a` and `b` in
/// `mapping` (without mutating or cloning it — this runs in the local-
/// search inner loops). Edges between `a` and `b` themselves are handled
/// once.
pub fn swap_delta(problem: &MappingProblem, mapping: &Mapping, a: usize, b: usize) -> f64 {
    let (sa, sb) = (mapping.site_of(a), mapping.site_of(b));
    if a == b || sa == sb {
        return 0.0;
    }
    let plain = |p: usize| mapping.site_of(p);
    let swapped = |p: usize| {
        if p == a {
            sb
        } else if p == b {
            sa
        } else {
            mapping.site_of(p)
        }
    };
    let before = incident_cost_with(problem, a, &plain) + incident_cost_with(problem, b, &plain)
        - ab_cost_with(problem, a, b, &plain);
    let after = incident_cost_with(problem, a, &swapped) + incident_cost_with(problem, b, &swapped)
        - ab_cost_with(problem, a, b, &swapped);
    after - before
}

/// [`incident_cost`] under an arbitrary process→site view.
fn incident_cost_with(
    problem: &MappingProblem,
    i: usize,
    site_of: &dyn Fn(usize) -> SiteId,
) -> f64 {
    let net = problem.network();
    let mut out = problem.pattern().out_edges(i).iter().peekable();
    let si = site_of(i);
    let mut total = 0.0;
    for p in &problem.partners()[i] {
        let sp = site_of(p.peer);
        let (out_m, out_b) = out
            .next_if(|e| e.dst == p.peer)
            .map_or((0.0, 0.0), |e| (e.msgs, e.bytes));
        if out_m > 0.0 {
            total += pair_cost(net, out_m, out_b, si, sp);
        }
        let in_b = p.bytes - out_b;
        let in_m = p.msgs - out_m;
        if in_m > 0.0 {
            total += pair_cost(net, in_m, in_b, sp, si);
        }
    }
    total
}

/// Cost of the direct a↔b edges (counted twice by two incident sums).
fn ab_cost_with(
    problem: &MappingProblem,
    a: usize,
    b: usize,
    site_of: &dyn Fn(usize) -> SiteId,
) -> f64 {
    let net = problem.network();
    let pattern = problem.pattern();
    let (sa, sb) = (site_of(a), site_of(b));
    let mut t = 0.0;
    let (m_ab, b_ab) = (pattern.msgs(a, b), pattern.bytes(a, b));
    if m_ab > 0.0 {
        t += pair_cost(net, m_ab, b_ab, sa, sb);
    }
    let (m_ba, b_ba) = (pattern.msgs(b, a), pattern.bytes(b, a));
    if m_ba > 0.0 {
        t += pair_cost(net, m_ba, b_ba, sb, sa);
    }
    t
}

/// Communication time of a single pattern replayed edge-by-edge — the
/// simple aggregate estimate `Σ` Eq. 3 expressed directly over a pattern
/// and an assignment slice (no problem wrapper). Useful for harness code
/// operating outside a full [`MappingProblem`].
pub fn pattern_cost(pattern: &CommPattern, net: &SiteNetwork, assignment: &[SiteId]) -> f64 {
    assert_eq!(pattern.n(), assignment.len(), "assignment length mismatch");
    let mut total = 0.0;
    for src in 0..pattern.n() {
        let from = assignment[src];
        for e in pattern.out_edges(src) {
            total += pair_cost(net, e.msgs, e.bytes, from, assignment[e.dst]);
        }
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::problem::MappingProblem;
    use commgraph::apps::{RandomGraph, Ring, Workload};
    use commgraph::pattern::PatternBuilder;
    use geonet::{presets, InstanceType};

    fn problem(n: usize) -> MappingProblem {
        let net = presets::paper_ec2_network(n / 4, InstanceType::M4Xlarge, 1);
        let pat = RandomGraph {
            n,
            degree: 4,
            max_bytes: 100_000,
            seed: 5,
        }
        .pattern();
        MappingProblem::unconstrained(pat, net)
    }

    #[test]
    fn two_process_cost_matches_formula() {
        let net = presets::paper_ec2_network(1, InstanceType::M4Xlarge, 1);
        let mut b = PatternBuilder::new(2);
        b.record_many(0, 1, 1000, 3);
        let p = MappingProblem::unconstrained(b.build(), net);
        let m = Mapping::from(vec![0, 2]);
        let lt = p.network().latency(SiteId(0), SiteId(2));
        let bt = p.network().bandwidth(SiteId(0), SiteId(2));
        let expect = 3.0 * lt + 3000.0 / bt;
        assert!((cost(&p, &m) - expect).abs() < 1e-12);
    }

    #[test]
    fn colocated_is_cheaper_than_spread_for_a_ring() {
        let net = presets::paper_ec2_network(2, InstanceType::M4Xlarge, 1);
        let pat = Ring {
            n: 8,
            iterations: 1,
            bytes: 1_000_000,
        }
        .pattern();
        let p = MappingProblem::unconstrained(pat, net);
        let packed = Mapping::from(vec![0, 0, 1, 1, 2, 2, 3, 3]);
        let spread = Mapping::from(vec![0, 1, 2, 3, 0, 1, 2, 3]);
        assert!(cost(&p, &packed) < cost(&p, &spread));
    }

    #[test]
    fn model_terms_add_up() {
        let p = problem(16);
        let m = Mapping::from((0..16).map(|i| i % 4).collect::<Vec<_>>());
        let full = cost_with_model(&p, &m, CostModel::Full);
        let lat = cost_with_model(&p, &m, CostModel::LatencyOnly);
        let bw = cost_with_model(&p, &m, CostModel::BandwidthOnly);
        assert!((full - (lat + bw)).abs() < 1e-9 * full);
        assert!(lat > 0.0 && bw > 0.0);
    }

    #[test]
    fn swap_delta_matches_full_recomputation() {
        let p = problem(16);
        let m = Mapping::from((0..16).map(|i| i % 4).collect::<Vec<_>>());
        let base = cost(&p, &m);
        for (a, b) in [(0usize, 1usize), (2, 7), (3, 12), (5, 5), (0, 4)] {
            let delta = swap_delta(&p, &m, a, b);
            let mut swapped = m.clone();
            swapped.swap(a, b);
            let full = cost(&p, &swapped) - base;
            assert!(
                (delta - full).abs() < 1e-9 * base.max(1.0),
                "swap ({a},{b}): incremental {delta} vs full {full}"
            );
        }
    }

    #[test]
    fn incident_cost_sums_to_twice_total_minus_nothing() {
        // Σ_i incident(i) counts every edge exactly twice.
        let p = problem(16);
        let m = Mapping::from((0..16).map(|i| (i * 7) % 4).collect::<Vec<_>>());
        let total = cost(&p, &m);
        let sum: f64 = (0..16).map(|i| incident_cost(&p, &m, i)).sum();
        assert!((sum - 2.0 * total).abs() < 1e-9 * total);
    }

    #[test]
    fn pattern_cost_agrees_with_problem_cost() {
        let p = problem(16);
        let m = Mapping::from((0..16).map(|i| i % 4).collect::<Vec<_>>());
        let direct = pattern_cost(p.pattern(), p.network(), m.as_slice());
        assert!((direct - cost(&p, &m)).abs() < 1e-12);
    }

    #[test]
    fn empty_pattern_costs_nothing() {
        let net = presets::paper_ec2_network(2, InstanceType::M4Xlarge, 1);
        let p = MappingProblem::unconstrained(commgraph::CommPattern::empty(4), net);
        let m = Mapping::from(vec![0, 1, 2, 3]);
        assert_eq!(cost(&p, &m), 0.0);
    }
}

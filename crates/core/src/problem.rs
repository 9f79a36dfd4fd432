//! The geo-distributed process-mapping problem instance (paper §3.2).

use crate::constraint::ConstraintVector;
use commgraph::pattern::{CommPattern, Partner};
use geonet::{SiteId, SiteNetwork};

/// A complete problem instance: map `N` processes (with communication
/// pattern `CG`/`AG`) onto `M` sites (with `LT`/`BT` and capacities `I`)
/// subject to the data-movement constraint vector `C`.
#[derive(Debug, Clone)]
pub struct MappingProblem {
    pattern: CommPattern,
    network: SiteNetwork,
    constraints: ConstraintVector,
    /// Cached undirected partner lists (built once, used by every greedy
    /// mapper).
    partners: Vec<Vec<Partner>>,
    /// Bytes-equivalent of one message latency: the mean of `LT·BT` over
    /// all directed site pairs. Under the α–β model a message costs
    /// `LT + bytes/BT`, so `LT·BT` is how many bytes "one latency" is
    /// worth — it lets greedy heuristics weigh `AG` against `CG` with a
    /// single scalar.
    lat_eq_bytes: f64,
}

impl MappingProblem {
    /// Assemble a problem.
    ///
    /// # Panics
    /// Panics if the constraint vector length differs from `N`, if total
    /// capacity is smaller than `N`, or if the constraints alone exceed
    /// some site's capacity (no feasible mapping could exist).
    pub fn new(pattern: CommPattern, network: SiteNetwork, constraints: ConstraintVector) -> Self {
        check_feasible(&network, &constraints, pattern.n());
        let partners = pattern.partners();
        let m = network.num_sites();
        let mut lat_eq_bytes = 0.0;
        for k in 0..m {
            for l in 0..m {
                lat_eq_bytes +=
                    network.latency(SiteId(k), SiteId(l)) * network.bandwidth(SiteId(k), SiteId(l));
            }
        }
        lat_eq_bytes /= (m * m) as f64;
        Self {
            pattern,
            network,
            constraints,
            partners,
            lat_eq_bytes,
        }
    }

    /// Problem without any data-movement constraints.
    pub fn unconstrained(pattern: CommPattern, network: SiteNetwork) -> Self {
        let n = pattern.n();
        Self::new(pattern, network, ConstraintVector::none(n))
    }

    /// Number of processes `N`.
    #[inline]
    pub fn num_processes(&self) -> usize {
        self.pattern.n()
    }

    /// Number of sites `M`.
    #[inline]
    pub fn num_sites(&self) -> usize {
        self.network.num_sites()
    }

    /// The communication pattern (`CG`/`AG`).
    #[inline]
    pub fn pattern(&self) -> &CommPattern {
        &self.pattern
    }

    /// The network (`LT`/`BT`, sites, capacities).
    #[inline]
    pub fn network(&self) -> &SiteNetwork {
        &self.network
    }

    /// The data-movement constraints `C`.
    #[inline]
    pub fn constraints(&self) -> &ConstraintVector {
        &self.constraints
    }

    /// Cached undirected partner lists (peer, bidirectional bytes, msgs)
    /// per process.
    #[inline]
    pub fn partners(&self) -> &[Vec<Partner>] {
        &self.partners
    }

    /// Bytes-equivalent of one message latency (mean `LT·BT`).
    #[inline]
    pub fn latency_byte_equivalent(&self) -> f64 {
        self.lat_eq_bytes
    }

    /// Combined α–β weight of an undirected partner edge:
    /// `bytes + msgs · latency_byte_equivalent`. The "communication
    /// quantity" greedy heuristics maximize.
    #[inline]
    pub fn edge_weight(&self, p: &Partner) -> f64 {
        p.bytes + p.msgs * self.lat_eq_bytes
    }

    /// Node capacities per site (`I`), minus nothing — the raw vector.
    pub fn capacities(&self) -> Vec<usize> {
        self.network.capacities()
    }

    /// Capacities remaining after placing only the constrained processes.
    pub fn free_capacities(&self) -> Vec<usize> {
        let mut caps = self.network.capacities();
        for c in self.constraints.iter().flatten() {
            caps[c.index()] -= 1;
        }
        caps
    }

    /// Replace the constraint vector (e.g. for the Fig. 8 constraint-ratio
    /// sweep), revalidating feasibility as [`MappingProblem::new`] does.
    /// Constraints do not touch the traffic, so the partner lists are
    /// reused.
    pub fn with_constraints(&self, constraints: ConstraintVector) -> Self {
        check_feasible(&self.network, &constraints, self.num_processes());
        Self {
            constraints,
            ..self.clone()
        }
    }

    /// A compact description for logs.
    pub fn describe(&self) -> String {
        format!(
            "N={} processes, M={} sites, {} edges, constraint ratio {:.2}",
            self.num_processes(),
            self.num_sites(),
            self.pattern.num_edges(),
            self.constraints.ratio()
        )
    }

    /// All site ids.
    pub fn site_ids(&self) -> impl Iterator<Item = SiteId> {
        (0..self.num_sites()).map(SiteId)
    }
}

/// The checks behind [`MappingProblem::new`]'s panics: one constraint
/// per process, enough nodes for `n` processes, and no site over
/// capacity from its pins alone.
fn check_feasible(network: &SiteNetwork, constraints: &ConstraintVector, n: usize) {
    assert_eq!(
        constraints.len(),
        n,
        "constraint vector must have one entry per process"
    );
    assert!(
        network.total_nodes() >= n,
        "{} processes exceed {} total nodes",
        n,
        network.total_nodes()
    );
    let caps = network.capacities();
    let mut used = vec![0usize; network.num_sites()];
    for (i, c) in constraints.iter().enumerate() {
        if let Some(site) = c {
            assert!(
                site.index() < network.num_sites(),
                "process {i} constrained to unknown {site}"
            );
            used[site.index()] += 1;
            assert!(
                used[site.index()] <= caps[site.index()],
                "constraints alone overflow {site} (capacity {})",
                caps[site.index()]
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use commgraph::apps::{Ring, Workload};
    use geonet::{presets, InstanceType};

    fn problem() -> MappingProblem {
        let net = presets::paper_ec2_network(4, InstanceType::M4Xlarge, 1);
        let pat = Ring {
            n: 16,
            iterations: 2,
            bytes: 1000,
        }
        .pattern();
        MappingProblem::unconstrained(pat, net)
    }

    #[test]
    fn dimensions() {
        let p = problem();
        assert_eq!(p.num_processes(), 16);
        assert_eq!(p.num_sites(), 4);
        assert_eq!(p.capacities(), vec![4, 4, 4, 4]);
        assert_eq!(p.site_ids().count(), 4);
    }

    #[test]
    fn free_capacities_subtract_constraints() {
        let p = problem();
        let mut c = ConstraintVector::none(16);
        c.pin(0, SiteId(2));
        c.pin(5, SiteId(2));
        let p = p.with_constraints(c);
        assert_eq!(p.free_capacities(), vec![4, 4, 2, 4]);
    }

    #[test]
    fn partners_are_cached_and_consistent() {
        let p = problem();
        assert_eq!(p.partners().len(), 16);
        // Each ring rank exchanges with 2 peers.
        assert!(p.partners().iter().all(|ps| ps.len() == 2));
    }

    /// Partner rows are allocated at their exact length (rows sized
    /// `out + in` cost the daemon measurable resident memory), and
    /// `with_constraints` carries the same rows over.
    #[test]
    fn partner_rows_are_exact_and_reused_by_with_constraints() {
        let net = presets::paper_ec2_network(16, InstanceType::M4Xlarge, 1);
        let pat = commgraph::apps::AppKind::KMeans.workload(64).pattern();
        let p = MappingProblem::unconstrained(pat, net);
        assert!(p.partners().iter().all(|r| r.capacity() == r.len()));
        let mut c = ConstraintVector::none(64);
        c.pin(3, SiteId(1));
        let pinned = p.with_constraints(c);
        assert_eq!(pinned.partners(), p.partners());
        assert_eq!(pinned.constraints().pin_of(3), Some(SiteId(1)));
        assert!(pinned.partners().iter().all(|r| r.capacity() == r.len()));
    }

    #[test]
    #[should_panic(expected = "exceed")]
    fn too_many_processes_rejected() {
        let net = presets::paper_ec2_network(2, InstanceType::M4Xlarge, 1);
        let pat = Ring {
            n: 16,
            iterations: 1,
            bytes: 10,
        }
        .pattern();
        MappingProblem::unconstrained(pat, net);
    }

    #[test]
    #[should_panic(expected = "overflow")]
    fn infeasible_constraints_rejected() {
        let net = presets::paper_ec2_network(1, InstanceType::M4Xlarge, 1);
        let pat = Ring {
            n: 4,
            iterations: 1,
            bytes: 10,
        }
        .pattern();
        let mut c = ConstraintVector::none(4);
        c.pin(0, SiteId(0));
        c.pin(1, SiteId(0));
        MappingProblem::new(pat, net, c);
    }

    #[test]
    #[should_panic(expected = "one entry per process")]
    fn wrong_constraint_len_rejected() {
        let net = presets::paper_ec2_network(4, InstanceType::M4Xlarge, 1);
        let pat = Ring {
            n: 4,
            iterations: 1,
            bytes: 10,
        }
        .pattern();
        MappingProblem::new(pat, net, ConstraintVector::none(5));
    }
}

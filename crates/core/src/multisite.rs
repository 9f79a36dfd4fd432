//! Multi-site data-movement constraints — the paper's stated extension.
//!
//! §3.1 limits itself to single-site pins and says: *"we only consider
//! the data movement constraint on individual sites and leave the
//! extension to multiple site constraints in our future work."* This
//! module is that extension: each process may carry an **allowed-site
//! set** (e.g. "any EU region" for GDPR data), generalizing both the
//! unconstrained case (all sites allowed) and the pinned case (a
//! singleton set).
//!
//! Feasibility is no longer a per-site counting argument — it is a
//! capacity-aware bipartite matching problem (Hall's condition over the
//! allowed sets), solved here with Kuhn's augmenting-path algorithm.
//! [`GeoMapper::with_allowed`](crate::GeoMapper::with_allowed) runs
//! Algorithm 1 with set-aware seeding/packing and falls back to
//! augmenting paths when a greedy placement would strand a process, so
//! it succeeds on **every feasible instance**.

use crate::problem::MappingProblem;
use geonet::SiteId;

/// Per-process allowed-site sets. `None` means "anywhere".
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AllowedSites {
    allowed: Vec<Option<Vec<SiteId>>>,
}

impl AllowedSites {
    /// No restrictions on any of `n` processes.
    pub fn unrestricted(n: usize) -> Self {
        Self {
            allowed: vec![None; n],
        }
    }

    /// Build from explicit sets. Sets are deduplicated and sorted; an
    /// empty set is rejected (it can never be satisfied).
    ///
    /// # Panics
    /// Panics on an explicitly empty allowed set.
    pub fn new(allowed: Vec<Option<Vec<SiteId>>>) -> Self {
        let allowed = allowed
            .into_iter()
            .enumerate()
            .map(|(i, set)| {
                set.map(|mut s| {
                    s.sort_unstable();
                    s.dedup();
                    assert!(!s.is_empty(), "process {i} has an empty allowed set");
                    s
                })
            })
            .collect();
        Self { allowed }
    }

    /// Restrict process `i` to `sites`.
    pub fn restrict(&mut self, i: usize, sites: &[SiteId]) {
        assert!(!sites.is_empty(), "allowed set must be non-empty");
        let mut s = sites.to_vec();
        s.sort_unstable();
        s.dedup();
        self.allowed[i] = Some(s);
    }

    /// Number of processes.
    pub fn len(&self) -> usize {
        self.allowed.len()
    }

    /// True when there are no processes.
    pub fn is_empty(&self) -> bool {
        self.allowed.is_empty()
    }

    /// Is `site` allowed for process `i`?
    #[inline]
    pub fn permits(&self, i: usize, site: SiteId) -> bool {
        match &self.allowed[i] {
            None => true,
            Some(s) => s.binary_search(&site).is_ok(),
        }
    }

    /// The explicit set of process `i` (`None` = all sites).
    pub fn set_of(&self, i: usize) -> Option<&[SiteId]> {
        self.allowed[i].as_deref()
    }

    /// Fraction of processes with a restriction.
    pub fn restricted_ratio(&self) -> f64 {
        if self.allowed.is_empty() {
            return 0.0;
        }
        self.allowed.iter().filter(|a| a.is_some()).count() as f64 / self.allowed.len() as f64
    }

    /// Does `mapping` satisfy every allowed set?
    pub fn satisfied_by(&self, mapping: &[SiteId]) -> bool {
        mapping.len() == self.allowed.len()
            && mapping.iter().enumerate().all(|(i, &s)| self.permits(i, s))
    }

    /// Check feasibility against site capacities via matching: returns a
    /// witness assignment if one exists.
    pub fn feasible_assignment(&self, capacities: &[usize]) -> Option<Vec<SiteId>> {
        Matcher::new(self, capacities).solve()
    }

    /// These sets with `problem`'s pins merged in as singleton sets.
    ///
    /// # Panics
    /// Panics if the sets do not cover every process, a pin lies outside
    /// its process's set, or the instance is infeasible (no assignment
    /// satisfies the sets within capacities).
    pub(crate) fn with_pins(&self, problem: &MappingProblem) -> Self {
        let n = problem.num_processes();
        assert_eq!(self.len(), n, "allowed sets must cover every process");
        let mut merged = self.clone();
        for i in 0..n {
            if let Some(pin) = problem.constraints().pin_of(i) {
                assert!(
                    merged.permits(i, pin),
                    "process {i} pinned to {pin} outside its allowed set"
                );
                merged.restrict(i, &[pin]);
            }
        }
        assert!(
            merged.feasible_assignment(&problem.capacities()).is_some(),
            "infeasible multi-site constraint instance"
        );
        merged
    }
}

/// Kuhn's algorithm over processes × sites with site capacities.
struct Matcher<'a> {
    allowed: &'a AllowedSites,
    caps: Vec<usize>,
    /// assignment[i] = site of process i (usize::MAX = unassigned)
    assignment: Vec<usize>,
    /// used[j] = processes currently on site j
    used: Vec<Vec<usize>>,
}

impl<'a> Matcher<'a> {
    fn new(allowed: &'a AllowedSites, capacities: &[usize]) -> Self {
        Self {
            allowed,
            caps: capacities.to_vec(),
            assignment: vec![usize::MAX; allowed.len()],
            used: vec![Vec::new(); capacities.len()],
        }
    }

    fn candidate_sites(&self, i: usize) -> Vec<usize> {
        match self.allowed.set_of(i) {
            Some(s) => s.iter().map(|x| x.index()).collect(),
            None => (0..self.caps.len()).collect(),
        }
    }

    /// Try to place process `i`, evicting/augmenting if needed.
    fn augment(&mut self, i: usize, visited_sites: &mut [bool]) -> bool {
        for j in self.candidate_sites(i) {
            if visited_sites[j] {
                continue;
            }
            visited_sites[j] = true;
            if self.used[j].len() < self.caps[j] {
                self.place(i, j);
                return true;
            }
            // Try to relocate one current occupant of j elsewhere; `place`
            // takes it off j, which frees the slot for i.
            for k in 0..self.used[j].len() {
                let occupant = self.used[j][k];
                if self.augment(occupant, visited_sites) {
                    self.place(i, j);
                    return true;
                }
            }
        }
        false
    }

    fn place(&mut self, i: usize, j: usize) {
        // Remove i from its previous site, if any.
        let prev = self.assignment[i];
        if prev != usize::MAX {
            self.used[prev].retain(|&p| p != i);
        }
        self.assignment[i] = j;
        self.used[j].push(i);
    }

    fn solve(mut self) -> Option<Vec<SiteId>> {
        let n = self.allowed.len();
        // Most-constrained processes first (smallest allowed sets).
        let mut order: Vec<usize> = (0..n).collect();
        order.sort_by_key(|&i| self.allowed.set_of(i).map_or(usize::MAX, <[SiteId]>::len));
        for i in order {
            let mut visited = vec![false; self.caps.len()];
            if !self.augment(i, &mut visited) {
                return None;
            }
        }
        Some(self.assignment.into_iter().map(SiteId).collect())
    }
}

/// Complete a partial assignment via augmenting paths. The instance was
/// verified feasible up front ([`AllowedSites::with_pins`]), so this
/// always succeeds.
pub(crate) fn repair(assignment: &mut [Option<SiteId>], allowed: &AllowedSites, caps: &[usize]) {
    let mut matcher = Matcher::new(allowed, caps);
    for (i, a) in assignment.iter().enumerate() {
        if let Some(site) = a {
            matcher.place(i, site.index());
        }
    }
    let unplaced: Vec<usize> = (0..assignment.len())
        .filter(|&i| assignment[i].is_none())
        .collect();
    for i in unplaced {
        let mut visited = vec![false; caps.len()];
        let ok = matcher.augment(i, &mut visited);
        assert!(ok, "repair failed on a feasible instance (process {i})");
    }
    for (i, a) in assignment.iter_mut().enumerate() {
        *a = Some(SiteId(matcher.assignment[i]));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::cost;
    use crate::geo::GeoMapper;
    use crate::Mapper as _;
    use commgraph::apps::{RandomGraph, Workload};
    use geonet::{presets, InstanceType};

    fn problem(n: usize, nodes: usize, seed: u64) -> MappingProblem {
        let net = presets::paper_ec2_network(nodes, InstanceType::M4Xlarge, seed);
        let pat = RandomGraph {
            n,
            degree: 3,
            max_bytes: 400_000,
            seed,
        }
        .pattern();
        MappingProblem::unconstrained(pat, net)
    }

    #[test]
    fn unrestricted_behaves_like_geo() {
        let p = problem(16, 4, 1);
        let multi = GeoMapper::with_allowed(AllowedSites::unrestricted(16)).map(&p);
        let plain = GeoMapper::default().map(&p);
        // Same algorithm, same config: identical mapping.
        assert_eq!(multi, plain);
    }

    /// Pins go first with or without sets: unrestricted sets on a
    /// 20 %-pinned problem change nothing.
    #[test]
    fn unrestricted_sets_equal_plain_geo_on_pinned_problems() {
        use crate::constraint::ConstraintVector;
        for seed in 0..10 {
            let net = presets::paper_ec2_network(8, InstanceType::M4Xlarge, seed);
            let pat = RandomGraph {
                n: 32,
                degree: 4,
                max_bytes: 500_000,
                seed,
            }
            .pattern();
            let pins = ConstraintVector::random(32, 0.2, &net.capacities(), seed);
            let p = MappingProblem::new(pat, net, pins);
            let multi = GeoMapper::with_allowed(AllowedSites::unrestricted(32)).map(&p);
            assert_eq!(multi, GeoMapper::default().map(&p), "seed {seed}");
        }
    }

    #[test]
    fn restricted_first_only_evaluates_one_order() {
        use crate::geo::OrderSearch;
        use crate::metrics::{MemorySink, Metrics};
        let p = problem(16, 4, 2);
        let mut allowed = AllowedSites::unrestricted(16);
        for i in 0..4 {
            allowed.restrict(i, &[SiteId(2), SiteId(3)]);
        }
        let sink = std::sync::Arc::new(MemorySink::new());
        let m = GeoMapper {
            order_search: OrderSearch::FirstOnly,
            metrics: Metrics::new(sink.clone()),
            ..GeoMapper::with_allowed(allowed.clone())
        }
        .map(&p);
        assert!(allowed.satisfied_by(m.as_slice()));
        assert_eq!(sink.sum("Geo-distributed", "search.orders_evaluated"), 1.0);
        assert_eq!(sink.sum("Geo-distributed", "search.packings"), 1.0);
    }

    #[test]
    fn pins_hold_under_restricted_sets() {
        use crate::constraint::ConstraintVector;
        let p = problem(16, 4, 7);
        let pins = ConstraintVector::random(16, 0.25, &p.capacities(), 7);
        let p = p.with_constraints(pins.clone());
        let mut allowed = AllowedSites::unrestricted(16);
        for i in (0..16).filter(|&i| pins.pin_of(i).is_none()).take(4) {
            allowed.restrict(i, &[SiteId(0), SiteId(1)]);
        }
        let m = GeoMapper::with_allowed(allowed.clone()).map(&p);
        m.validate(&p).unwrap();
        assert!(pins.satisfied_by(m.as_slice()));
        assert!(allowed.satisfied_by(m.as_slice()));
    }

    #[test]
    fn allowed_sets_are_honoured() {
        let p = problem(16, 4, 2);
        let mut allowed = AllowedSites::unrestricted(16);
        // First four processes: EU-ish subset {2, 3}.
        for i in 0..4 {
            allowed.restrict(i, &[SiteId(2), SiteId(3)]);
        }
        let m = GeoMapper::with_allowed(allowed.clone()).map(&p);
        m.validate(&p).unwrap();
        assert!(allowed.satisfied_by(m.as_slice()));
        for i in 0..4 {
            assert!(m.site_of(i) == SiteId(2) || m.site_of(i) == SiteId(3));
        }
    }

    #[test]
    fn singleton_sets_equal_pins() {
        let p = problem(8, 2, 3);
        let mut allowed = AllowedSites::unrestricted(8);
        allowed.restrict(5, &[SiteId(1)]);
        let m = GeoMapper::with_allowed(allowed).map(&p);
        assert_eq!(m.site_of(5), SiteId(1));
    }

    #[test]
    fn tight_instance_is_fully_packed() {
        // Capacity exactly matches and every process is restricted to
        // two sites; Hall's condition is tight.
        let p = problem(8, 2, 4);
        let mut allowed = AllowedSites::unrestricted(8);
        for i in 0..8 {
            let a = i % 4;
            allowed.restrict(i, &[SiteId(a), SiteId((a + 1) % 4)]);
        }
        let m = GeoMapper::with_allowed(allowed.clone()).map(&p);
        m.validate(&p).unwrap();
        assert!(allowed.satisfied_by(m.as_slice()));
    }

    #[test]
    fn matcher_detects_infeasibility() {
        // 3 processes all restricted to a site with capacity 2.
        let mut allowed = AllowedSites::unrestricted(3);
        for i in 0..3 {
            allowed.restrict(i, &[SiteId(0)]);
        }
        assert!(allowed.feasible_assignment(&[2, 5]).is_none());
        assert!(allowed.feasible_assignment(&[3, 5]).is_some());
    }

    #[test]
    fn matcher_uses_augmenting_paths() {
        // p0 can go anywhere, p1 only site 0; capacity 1 each. A naive
        // greedy placing p0 on site 0 first must evict it.
        let mut allowed = AllowedSites::unrestricted(2);
        allowed.restrict(1, &[SiteId(0)]);
        let witness = allowed.feasible_assignment(&[1, 1]).expect("feasible");
        assert_eq!(witness[1], SiteId(0));
        assert_eq!(witness[0], SiteId(1));
    }

    #[test]
    #[should_panic(expected = "infeasible")]
    fn infeasible_instance_panics_in_map() {
        let p = problem(8, 2, 5);
        let mut allowed = AllowedSites::unrestricted(8);
        for i in 0..4 {
            allowed.restrict(i, &[SiteId(0)]); // capacity 2 < 4
        }
        GeoMapper::with_allowed(allowed).map(&p);
    }

    #[test]
    #[should_panic(expected = "empty allowed set")]
    fn empty_set_rejected() {
        AllowedSites::new(vec![Some(vec![])]);
    }

    #[test]
    fn restriction_costs_performance_monotonically() {
        // More freedom can only help the objective.
        let p = problem(16, 4, 6);
        let free = cost(
            &p,
            &GeoMapper::with_allowed(AllowedSites::unrestricted(16)).map(&p),
        );
        let mut allowed = AllowedSites::unrestricted(16);
        for i in 0..8 {
            allowed.restrict(i, &[SiteId(i % 4)]);
        }
        let tight = cost(&p, &GeoMapper::with_allowed(allowed).map(&p));
        assert!(free <= tight + 1e-9, "freedom hurt: {free} vs {tight}");
    }

    #[test]
    fn restricted_ratio() {
        let mut a = AllowedSites::unrestricted(4);
        assert_eq!(a.restricted_ratio(), 0.0);
        a.restrict(0, &[SiteId(1)]);
        a.restrict(3, &[SiteId(0), SiteId(2)]);
        assert_eq!(a.restricted_ratio(), 0.5);
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(32))]
        #[test]
        fn prop_feasible_instances_always_mapped(seed in 0u64..500) {
            use rand::{RngExt, SeedableRng};
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            let p = problem(12, 3, seed);
            // Random sets of size 2-4 (out of 4 sites) for a random subset
            // of processes; reject infeasible draws.
            let mut allowed = AllowedSites::unrestricted(12);
            for i in 0..12 {
                if rng.random_range(0..2) == 0 {
                    let size = rng.random_range(2..=4usize);
                    let start = rng.random_range(0..4usize);
                    let set: Vec<SiteId> = (0..size).map(|k| SiteId((start + k) % 4)).collect();
                    allowed.restrict(i, &set);
                }
            }
            proptest::prop_assume!(allowed.feasible_assignment(&p.capacities()).is_some());
            let m = GeoMapper::with_allowed(allowed.clone()).map(&p);
            proptest::prop_assert!(m.validate(&p).is_ok());
            proptest::prop_assert!(allowed.satisfied_by(m.as_slice()));
        }
    }
}

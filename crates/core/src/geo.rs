//! The Geo-distributed process mapping algorithm (paper §4.3,
//! Algorithm 1).
//!
//! For every order of the site groups, the heuristic repeatedly:
//!
//! 1. picks the unselected site of the current group with the most
//!    available nodes,
//! 2. seeds it with the unselected process of heaviest total
//!    communication quantity,
//! 3. packs the site with the unselected processes communicating most
//!    heavily with the processes already inside it, until the site is
//!    full,
//!
//! then evaluates the Eq. 3 cost of the resulting mapping and keeps the
//! cheapest order; the cheapest few orders are additionally polished by
//! a swap hill-climb (see [`GeoMapper::refine`]). Data-movement-
//! constrained processes are placed first (lines 4–6) and contribute to
//! the packing affinities.
//!
//! The paper's multi-site extension (§3.1's future work) is a parameter
//! of the same search: with [`GeoMapper::with_allowed`], a site's seed
//! and its packing are drawn only from processes whose [`AllowedSites`]
//! set permits that site, and processes a restricted packing strands are
//! finished by augmenting paths. A pin is a singleton set.
//!
//! The paper quotes `O(κ!·N²)`; with an indexed affinity max-heap one
//! packing is `O((N + E)·log N)`, so the whole search is
//! `O(κ!·(N + E)·log N)` plus the bounded refinement. The `κ!` orders
//! are embarrassingly parallel and evaluated with rayon when `parallel`
//! is set.
//!
//! Every site a packing visits is filled to its free capacity, so an
//! order's packing reads only its first `k` groups, where `k` is the
//! shortest prefix whose free capacity holds every unpinned process.
//! Orders sharing that prefix share one packing (`PrefixClasses`): a
//! job that any single group can hold is packed `κ` times, not `κ!`,
//! and each distinct packing is polished at most once.
//! Restricted sets can leave a site part-filled, so there every order
//! is its own class.

use crate::cost::CostModel;
use crate::delta::{CostTables, Evaluation};
use crate::grouping::group_sites;
use crate::mapping::Mapping;
use crate::metrics::Metrics;
use crate::multisite::{repair, AllowedSites};
use crate::problem::MappingProblem;
use crate::trace::TraceScope;
use crate::{polish, Mapper, SearchStats};
use geonet::SiteId;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use rayon::prelude::*;
use std::collections::HashMap;

/// How many group orders Algorithm 1 examines.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OrderSearch {
    /// All `κ!` orders (the paper's algorithm).
    Exhaustive,
    /// Only the identity order — the ablation showing what the order
    /// search buys.
    FirstOnly,
    /// `samples` random orders (always including the identity).
    Random {
        /// Number of sampled orders.
        samples: usize,
    },
}

/// How each site's first process is chosen (line 9 of Algorithm 1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Seeding {
    /// The unselected process with the heaviest communication quantity
    /// (the paper's rule).
    #[default]
    Heaviest,
    /// A random unselected process — ablation baseline.
    Random,
}

/// The paper's Geo-distributed mapper.
///
/// ```
/// use geomap_core::{GeoMapper, Mapper, MappingProblem, cost};
/// use commgraph::apps::{AppKind, Workload};
/// use geonet::{presets, InstanceType};
///
/// let network = presets::paper_ec2_network(4, InstanceType::M4Xlarge, 7);
/// let pattern = AppKind::Lu.workload(16).pattern();
/// let problem = MappingProblem::unconstrained(pattern, network);
/// let mapping = GeoMapper::default().map(&problem);
/// assert!(mapping.validate(&problem).is_ok());
/// assert!(cost(&problem, &mapping) > 0.0);
/// ```
#[derive(Debug, Clone)]
pub struct GeoMapper {
    /// Number of K-means site groups `κ` (paper: "usually less than 5").
    pub kappa: usize,
    /// Seed for grouping and any randomized choices.
    pub seed: u64,
    /// Evaluate group orders on the rayon thread pool.
    pub parallel: bool,
    /// Order-search strategy.
    pub order_search: OrderSearch,
    /// Site-seeding rule.
    pub seeding: Seeding,
    /// Objective used to compare orders.
    pub cost_model: CostModel,
    /// Polish the cheapest orders' packings with a first-improvement
    /// swap hill-climb; the κ! order search doubles as a multi-start.
    /// One order of magnitude cheaper than MPIPP's restarted
    /// best-swap-to-convergence search (Fig. 4) while matching or
    /// beating its quality from the greedy packing's better basin.
    pub refine: bool,
    /// Which Δ-cost engine the refinement sweeps use. The default
    /// incremental engine answers each candidate in `O(deg)`;
    /// [`Evaluation::FullRecompute`] is the `O(E)`-per-candidate oracle
    /// it is verified against (`tests/delta_equivalence.rs`).
    pub evaluation: Evaluation,
    /// Per-process allowed-site sets (the multi-site extension); `None`
    /// places every unpinned process anywhere.
    ///
    /// # Panics
    /// [`Mapper::map`] panics when the sets do not cover every process,
    /// a pin lies outside its process's set, or no assignment satisfies
    /// the sets within capacities.
    pub allowed: Option<AllowedSites>,
    /// Observability handle. [`Metrics::off`] (the default) keeps the
    /// search free of any instrumentation cost. An enabled sink
    /// receives phase timings (`phase.grouping` / `phase.order_search` /
    /// `phase.packing` / `phase.refinement`) and [`SearchStats`]
    /// counters scoped under the mapper's name. An attached trace
    /// records phase spans on a `"search"/"Geo-distributed"` track and,
    /// per polished order, pass spans and accepted-swap instants on its
    /// own `"Geo-distributed refine[k]"` track (one track per order
    /// keeps span nesting valid under rayon).
    pub metrics: Metrics,
}

impl Default for GeoMapper {
    fn default() -> Self {
        Self {
            kappa: 4,
            seed: 0x6E0,
            parallel: true,
            order_search: OrderSearch::Exhaustive,
            seeding: Seeding::Heaviest,
            cost_model: CostModel::Full,
            refine: true,
            evaluation: Evaluation::Incremental,
            allowed: None,
            metrics: Metrics::off(),
        }
    }
}

impl GeoMapper {
    /// The paper's configuration with `κ` groups.
    pub fn with_kappa(kappa: usize) -> Self {
        Self {
            kappa,
            ..Self::default()
        }
    }

    /// The paper's configuration restricted to `allowed`.
    pub fn with_allowed(allowed: AllowedSites) -> Self {
        Self {
            allowed: Some(allowed),
            ..Self::default()
        }
    }

    /// All group orders to evaluate.
    fn orders(&self, num_groups: usize) -> Vec<Vec<usize>> {
        match self.order_search {
            OrderSearch::Exhaustive => permutations(num_groups),
            OrderSearch::FirstOnly => vec![(0..num_groups).collect()],
            OrderSearch::Random { samples } => {
                let mut rng = StdRng::seed_from_u64(self.seed ^ 0x04DE4);
                let mut out = vec![(0..num_groups).collect::<Vec<_>>()];
                for _ in 1..samples.max(1) {
                    let mut p: Vec<usize> = (0..num_groups).collect();
                    for i in (1..p.len()).rev() {
                        let j = rng.random_range(0..=i);
                        p.swap(i, j);
                    }
                    out.push(p);
                }
                out
            }
        }
    }

    /// Run Algorithm 1 for one group order θ; returns the mapping `P^θ`.
    /// `prefix` is the order's packing prefix ([`PrefixClasses`]): the
    /// packing never fills a site of a later group. `allowed` holds the
    /// pin-merged sets, if any.
    fn map_order(
        &self,
        problem: &MappingProblem,
        groups: &[Vec<SiteId>],
        order: &[usize],
        prefix: usize,
        by_quantity: &[usize],
        allowed: Option<&AllowedSites>,
    ) -> Mapping {
        let n = problem.num_processes();
        let partners = problem.partners();
        let constraints = problem.constraints();

        // Lines 3–6: place constrained processes, reduce capacities.
        let mut assignment: Vec<Option<SiteId>> = (0..n).map(|i| constraints.pin_of(i)).collect();
        let mut selected = vec![false; n];
        let mut remaining = n;
        for (i, a) in assignment.iter().enumerate() {
            if a.is_some() {
                selected[i] = true;
                remaining -= 1;
            }
        }
        let mut free_caps = problem.free_capacities();

        let mut rng = StdRng::seed_from_u64(self.seed);
        // Affinity of each unselected process with the site being filled.
        let mut affinity = vec![0.0f64; n];
        let mut heap = AffinityHeap::with_capacity(n);

        'outer: for (pos, &gi) in order.iter().enumerate() {
            let group = &groups[gi];
            // Line 8: one pass per site of the group; sites are taken in
            // decreasing order of available nodes (line 10), re-evaluated
            // dynamically.
            let mut site_done = vec![false; group.len()];
            for _ in 0..group.len() {
                if remaining == 0 {
                    break 'outer;
                }
                debug_assert!(
                    pos < prefix,
                    "order {order:?} packs group {pos}, past its prefix of {prefix}"
                );
                // Site with the largest number of available nodes.
                let Some((slot, &site)) = group
                    .iter()
                    .enumerate()
                    .filter(|(idx, s)| !site_done[*idx] && free_caps[s.index()] > 0)
                    .max_by_key(|(_, s)| free_caps[s.index()])
                else {
                    break;
                };
                site_done[slot] = true;
                let eligible = |t: usize, selected: &[bool]| {
                    !selected[t] && allowed.is_none_or(|a| a.permits(t, site))
                };

                // Packing affinity starts from the processes already in
                // this site (constrained ones).
                affinity.iter_mut().for_each(|a| *a = 0.0);
                for (q, a) in assignment.iter().enumerate() {
                    if *a == Some(site) {
                        for p in &partners[q] {
                            affinity[p.peer] += problem.edge_weight(p);
                        }
                    }
                }

                // Line 9: seed process. A site no eligible process may
                // enter is left for the next one.
                let seed_proc = match self.seeding {
                    Seeding::Heaviest => by_quantity
                        .iter()
                        .copied()
                        .find(|&t| eligible(t, &selected)),
                    Seeding::Random => {
                        let free: Vec<usize> = (0..n).filter(|&t| eligible(t, &selected)).collect();
                        (!free.is_empty()).then(|| free[rng.random_range(0..free.len())])
                    }
                };
                let Some(t0) = seed_proc else { continue };
                place(
                    t0,
                    site,
                    &mut assignment,
                    &mut selected,
                    &mut free_caps,
                    &mut remaining,
                );
                for p in &partners[t0] {
                    affinity[p.peer] += problem.edge_weight(p);
                }

                // Lines 12–14: fill the site with heaviest-affinity
                // processes. An indexed max-heap makes each pick and
                // each affinity update O(log N) instead of an O(N) scan
                // — essential on the paper's 8192-process simulations.
                heap.rebuild(&affinity, &selected);
                while free_caps[site.index()] > 0 && remaining > 0 {
                    let Some(t) = heap.pop_where(|t| eligible(t, &selected)) else {
                        break;
                    };
                    place(
                        t,
                        site,
                        &mut assignment,
                        &mut selected,
                        &mut free_caps,
                        &mut remaining,
                    );
                    for p in &partners[t] {
                        if !selected[p.peer] {
                            affinity[p.peer] += problem.edge_weight(p);
                            heap.raise(p.peer, affinity[p.peer]);
                        }
                    }
                }
            }
        }

        if remaining > 0 {
            // Greedy choices can break Hall's condition on a feasible
            // restricted instance; augmenting paths place the stranded
            // processes without moving a pin (a singleton set).
            let allowed = allowed.expect("an unrestricted packing places every process");
            repair(&mut assignment, allowed, &problem.capacities());
        }
        Mapping::new(
            assignment
                .into_iter()
                .map(|a| a.expect("all processes placed"))
                .collect(),
        )
    }
}

/// The orders of one search, grouped by the part of each order its
/// packing reads. [`GeoMapper::map_order`] fills every site it visits
/// to its free capacity, so it stops inside the first `k` groups of θ,
/// where `k` is the shortest prefix whose free capacity holds every
/// unpinned process; it never reaches θ's later groups. Orders with the
/// same prefix `θ₁..θₖ` therefore get the same packing (and the same
/// cost), and `k` is known before any packing runs. When some unpinned
/// process has a restricted set, a site can be left part-filled and the
/// rule fails, so every order gets its whole length as its prefix.
struct PrefixClasses {
    /// The class of each order.
    class_of: Vec<usize>,
    /// Per class: its first order (the representative that is packed)
    /// and the prefix length `k`.
    reps: Vec<(usize, usize)>,
}

impl PrefixClasses {
    fn new(
        problem: &MappingProblem,
        groups: &[Vec<SiteId>],
        orders: &[Vec<usize>],
        allowed: Option<&AllowedSites>,
    ) -> Self {
        let free = problem.free_capacities();
        let group_free: Vec<usize> = groups
            .iter()
            .map(|g| g.iter().map(|s| free[s.index()]).sum())
            .collect();
        let constraints = problem.constraints();
        let unpinned = constraints.iter().filter(|p| p.is_none()).count();
        let restricted = allowed.is_some_and(|a| {
            (0..problem.num_processes())
                .any(|i| constraints.pin_of(i).is_none() && a.set_of(i).is_some())
        });
        let held_needed = if restricted { usize::MAX } else { unpinned };
        let mut class_by_prefix: HashMap<&[usize], usize> = HashMap::with_capacity(orders.len());
        let mut class_of = Vec::with_capacity(orders.len());
        let mut reps = Vec::new();
        for (idx, order) in orders.iter().enumerate() {
            let mut k = 0;
            let mut held = 0;
            while k < order.len() && held < held_needed {
                held += group_free[order[k]];
                k += 1;
            }
            let class = *class_by_prefix.entry(&order[..k]).or_insert_with(|| {
                reps.push((idx, k));
                reps.len() - 1
            });
            class_of.push(class);
        }
        Self { class_of, reps }
    }
}

/// Processes by decreasing total communication quantity (ties by
/// index) — line 9's seeding key, shared by all orders. Message counts
/// are weighed at their latency-equivalent bytes.
fn by_quantity(problem: &MappingProblem) -> Vec<usize> {
    let quantities: Vec<f64> = problem
        .partners()
        .iter()
        .map(|ps| ps.iter().map(|p| problem.edge_weight(p)).sum::<f64>())
        .collect();
    let mut order: Vec<usize> = (0..problem.num_processes()).collect();
    order.sort_by(|&a, &b| quantities[b].total_cmp(&quantities[a]).then(a.cmp(&b)));
    order
}

/// How many of the cheapest orders the hill-climb polishes (κ = 4 ⇒
/// all 24; larger κ keeps refinement bounded).
const REFINE_TOP: usize = 24;

/// Indexed max-heap over non-negative affinities with lowest-index
/// tie-breaking (the same pick the paper's linear argmax makes, in
/// `O(log N)`). Each process holds at most one slot, and `pos` finds it:
/// a raised affinity sifts that slot up in place, so the heap never
/// holds more than `N` entries and never a stale one.
struct AffinityHeap {
    /// Max-heap of `(affinity bits, Reverse(process))`: the highest
    /// affinity on top, the lowest index among equals.
    slots: Vec<Slot>,
    /// `pos[t]`: the slot holding `t`, or [`Self::ABSENT`].
    pos: Vec<u32>,
}

type Slot = (u64, std::cmp::Reverse<u32>);

impl AffinityHeap {
    const ABSENT: u32 = u32::MAX;

    fn with_capacity(n: usize) -> Self {
        Self {
            slots: Vec::with_capacity(n),
            pos: vec![Self::ABSENT; n],
        }
    }

    /// Non-negative floats compare like their bit patterns.
    #[inline]
    fn slot(t: usize, a: f64) -> Slot {
        debug_assert!(a >= 0.0, "affinities are sums of non-negative weights");
        (a.to_bits(), std::cmp::Reverse(t as u32))
    }

    /// Reset to one slot per unselected process (`O(N)` heapify).
    fn rebuild(&mut self, affinity: &[f64], selected: &[bool]) {
        self.pos.fill(Self::ABSENT);
        self.slots.clear();
        for (t, (&a, &sel)) in affinity.iter().zip(selected).enumerate() {
            if !sel {
                self.slots.push(Self::slot(t, a));
            }
        }
        for i in (0..self.slots.len()).rev() {
            self.sift_down(i);
        }
    }

    /// Record that `t`'s affinity rose to `a`: sift its slot up, or
    /// give it a slot again if a pop dropped it.
    #[inline]
    fn raise(&mut self, t: usize, a: f64) {
        let x = Self::slot(t, a);
        if self.pos[t] == Self::ABSENT {
            self.pos[t] = self.slots.len() as u32;
            self.slots.push(x);
        }
        let i = self.pos[t] as usize;
        debug_assert!(x >= self.slots[i], "affinities only rise");
        self.sift_up(i, x);
    }

    /// Highest-affinity process satisfying `valid`, or `None` when
    /// exhausted. Popped processes that fail `valid` (selected, or not
    /// allowed on the site being filled) are dropped until a `raise`
    /// brings them back; the next site's `rebuild` starts afresh.
    fn pop_where(&mut self, valid: impl Fn(usize) -> bool) -> Option<usize> {
        while let Some(mut top) = self.slots.pop() {
            if let Some(root) = self.slots.first_mut() {
                std::mem::swap(&mut top, root);
                self.sift_down(0);
            }
            let t = top.1 .0 as usize;
            self.pos[t] = Self::ABSENT;
            if valid(t) {
                return Some(t);
            }
        }
        None
    }

    fn sift_up(&mut self, mut i: usize, x: Slot) {
        while i > 0 && x > self.slots[(i - 1) / 2] {
            self.place(i, self.slots[(i - 1) / 2]);
            i = (i - 1) / 2;
        }
        self.place(i, x);
    }

    fn sift_down(&mut self, mut i: usize) {
        let x = self.slots[i];
        loop {
            // The higher child (a missing one compares lowest).
            let left = 2 * i + 1;
            let c = left + usize::from(self.slots.get(left + 1) > self.slots.get(left));
            match self.slots.get(c) {
                Some(&y) if y > x => {
                    self.place(i, y);
                    i = c;
                }
                _ => break,
            }
        }
        self.place(i, x);
    }

    #[inline]
    fn place(&mut self, i: usize, x: Slot) {
        self.slots[i] = x;
        self.pos[x.1 .0 as usize] = i as u32;
    }
}

fn place(
    t: usize,
    site: SiteId,
    assignment: &mut [Option<SiteId>],
    selected: &mut [bool],
    free_caps: &mut [usize],
    remaining: &mut usize,
) {
    assignment[t] = Some(site);
    selected[t] = true;
    free_caps[site.index()] -= 1;
    *remaining -= 1;
}

impl Mapper for GeoMapper {
    fn name(&self) -> &'static str {
        "Geo-distributed"
    }

    fn map(&self, problem: &MappingProblem) -> Mapping {
        let allowed = self.allowed.as_ref().map(|a| a.with_pins(problem));
        let allowed = allowed.as_ref();
        let metrics = self.metrics.scoped(self.name());
        let tscope = metrics.track("search", self.name());
        let groups = metrics.phase(tscope, "grouping", "phase.grouping", || {
            group_sites(problem.network(), self.kappa, self.seed)
        });
        let orders = self.orders(groups.len());
        metrics.counter("search.groups", groups.len() as u64);
        metrics.counter("search.orders_evaluated", orders.len() as u64);

        let by_quantity = by_quantity(problem);
        let classes = PrefixClasses::new(problem, &groups, &orders, allowed);
        metrics.counter("search.packings", classes.reps.len() as u64);

        let constraints = problem.constraints();
        // One flat table build serves the whole order search: ranking the
        // candidate packings and every refinement sweep below.
        let tables = CostTables::build(problem, self.cost_model);
        // Packing time is accumulated across worker threads (CPU seconds,
        // not wall) and only when metrics are on — the disabled path
        // never reads the clock.
        let packing_nanos = std::sync::atomic::AtomicU64::new(0);
        let pack = |&(idx, prefix): &(usize, usize)| {
            let pack_order = || {
                self.map_order(
                    problem,
                    &groups,
                    &orders[idx],
                    prefix,
                    &by_quantity,
                    allowed,
                )
            };
            let m = if metrics.enabled() {
                let t0 = std::time::Instant::now();
                let m = pack_order();
                packing_nanos.fetch_add(
                    t0.elapsed().as_nanos() as u64,
                    std::sync::atomic::Ordering::Relaxed,
                );
                m
            } else {
                pack_order()
            };
            (tables.total(m.as_slice()), m)
        };

        // One packing per prefix class; every order is ranked by its
        // class's cost, ties to the lower order index.
        let (ranked, packings) =
            metrics.phase(tscope, "order_search", "phase.order_search", || {
                let packings: Vec<(f64, Mapping)> = if self.parallel {
                    classes.reps.par_iter().map(pack).collect()
                } else {
                    classes.reps.iter().map(pack).collect()
                };
                let mut ranked: Vec<(usize, f64, usize)> = classes
                    .class_of
                    .iter()
                    .enumerate()
                    .map(|(idx, &class)| (idx, packings[class].0, class))
                    .collect();
                ranked.sort_by(|a, b| a.1.total_cmp(&b.1).then(a.0.cmp(&b.0)));
                (ranked, packings)
            });
        metrics.timing(
            "phase.packing",
            packing_nanos.load(std::sync::atomic::Ordering::Relaxed) as f64 * 1e-9,
        );

        let mut packings: Vec<Option<Mapping>> =
            packings.into_iter().map(|(_, m)| Some(m)).collect();
        if !self.refine {
            return packings[ranked[0].2].take().expect("at least one order");
        }
        // Polish only the few cheapest orders: the hill-climb gets a
        // handful of good multi-start seeds at a fraction of the cost of
        // refining all κ! packings. Within that window each class is
        // polished once, from its first entry — the class's lowest
        // index, since its entries share one cost. Polishing is
        // deterministic, so the other entries would only repeat that
        // result and lose the (cost, index) tie-break to it.
        let top: Vec<(usize, Mapping)> = ranked
            .iter()
            .take(REFINE_TOP)
            .filter_map(|&(idx, _, class)| packings[class].take().map(|m| (idx, m)))
            .collect();
        let movable = |i: usize| constraints.pin_of(i).is_none();
        let polish_order = |(idx, mut m): (usize, Mapping)| {
            // One trace track per polished order: the polishes run under
            // rayon, and interleaved spans on a shared track would break
            // Chrome's begin/end pairing.
            let scope = if metrics.trace().enabled() {
                metrics.track("search", &format!("{} refine[{idx}]", self.name()))
            } else {
                TraceScope::off()
            };
            // The set test only where sets exist.
            let permits: &dyn Fn(usize, SiteId) -> bool = match allowed {
                Some(sets) => &|i, s| sets.permits(i, s),
                None => &|_, _| true,
            };
            let stats = polish(
                &tables,
                self.evaluation,
                &mut m,
                50,
                &movable,
                permits,
                scope,
            );
            (idx, tables.total(m.as_slice()), m, stats)
        };
        let polished: Vec<(usize, f64, Mapping, SearchStats)> =
            metrics.phase(tscope, "refinement", "phase.refinement", || {
                if self.parallel {
                    top.into_par_iter().map(polish_order).collect()
                } else {
                    top.into_iter().map(polish_order).collect()
                }
            });
        if metrics.enabled() {
            // Each polished order is one multi-start of the hill-climb.
            let mut total = SearchStats {
                restarts: polished.len() as u64,
                ..SearchStats::default()
            };
            for (_, _, _, s) in &polished {
                total.absorb(*s);
            }
            total.emit(&metrics);
        }
        polished
            .into_iter()
            .min_by(|a, b| a.1.total_cmp(&b.1).then(a.0.cmp(&b.0)))
            .expect("at least one order")
            .2
    }
}

/// All permutations of `0..k` (Heap's algorithm), in a deterministic
/// order starting with the identity.
///
/// # Panics
/// Panics for `k > 8` — the grouping optimization exists precisely so κ
/// stays small; 8! = 40320 orders is already far beyond the paper's
/// κ ≤ 5.
pub fn permutations(k: usize) -> Vec<Vec<usize>> {
    assert!(k <= 8, "refusing to enumerate {k}! orders; reduce kappa");
    if k == 0 {
        return vec![Vec::new()];
    }
    let mut result = Vec::with_capacity((1..=k).product());
    let mut a: Vec<usize> = (0..k).collect();
    let mut c = vec![0usize; k];
    result.push(a.clone());
    let mut i = 0;
    while i < k {
        if c[i] < i {
            if i % 2 == 0 {
                a.swap(0, i);
            } else {
                a.swap(c[i], i);
            }
            result.push(a.clone());
            c[i] += 1;
            i = 0;
        } else {
            c[i] = 0;
            i += 1;
        }
    }
    result
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::constraint::ConstraintVector;
    use crate::cost::cost;
    use commgraph::apps::{AppKind, RandomGraph, Ring, Workload};
    use geonet::{presets, InstanceType};

    fn problem_with(n: usize, nodes_per_site: usize, seed: u64) -> MappingProblem {
        let net = presets::paper_ec2_network(nodes_per_site, InstanceType::M4Xlarge, seed);
        let pat = RandomGraph {
            n,
            degree: 4,
            max_bytes: 500_000,
            seed,
        }
        .pattern();
        MappingProblem::unconstrained(pat, net)
    }

    #[test]
    fn affinity_heap_matches_linear_argmax() {
        use rand::{RngExt, SeedableRng};
        use std::cell::Cell;
        let mut rng = rand::rngs::StdRng::seed_from_u64(3);
        let n = 60;
        let mut affinity: Vec<f64> = (0..n).map(|_| rng.random_range(0.0..10.0f64)).collect();
        let mut selected = vec![false; n];
        // Pre-select a few.
        for i in [3usize, 17, 41] {
            selected[i] = true;
        }
        // A restricted site's filter also rejects these unselected
        // processes; the heap drops them when they reach the top.
        let restricted: Vec<bool> = (0..n).map(|t| t % 3 == 1).collect();
        let mut heap = AffinityHeap::with_capacity(n);
        heap.rebuild(&affinity, &selected);
        // The O(N) argmax over the processes `valid` admits (first index
        // wins ties).
        let argmax = |affinity: &[f64], valid: &dyn Fn(usize) -> bool| {
            (0..n)
                .filter(|&t| valid(t))
                .max_by(|&a, &b| affinity[a].total_cmp(&affinity[b]).then(b.cmp(&a)))
        };
        // Interleave pops with random affinity raises, checking every pop
        // against the argmax: 20 pops under the plain filter, then 12
        // under the restricted one, then, once every restricted process
        // has been raised again, the plain filter until exhaustion.
        let rejected = Cell::new(0);
        for round in 0.. {
            if round % 3 == 0 {
                let t = rng.random_range(0..n);
                if !selected[t] {
                    affinity[t] += rng.random_range(0.0..5.0f64);
                    heap.raise(t, affinity[t]);
                }
            }
            if round == 32 {
                for t in (0..n).filter(|&t| restricted[t] && !selected[t]) {
                    affinity[t] += rng.random_range(0.5..5.0f64);
                    heap.raise(t, affinity[t]);
                }
            }
            let restrict = (20..32).contains(&round);
            let valid = |t: usize| !(selected[t] || restrict && restricted[t]);
            let expect = argmax(&affinity, &valid);
            let got = heap.pop_where(|t| {
                let ok = valid(t);
                rejected.set(rejected.get() + usize::from(!ok && !selected[t]));
                ok
            });
            assert_eq!(got, expect, "round {round}");
            let Some(t) = got else { break };
            selected[t] = true;
        }
        assert!(rejected.get() > 0, "the restricted rounds rejected nothing");
        assert!(selected.iter().all(|&s| s), "every process was popped");
    }

    #[test]
    fn affinity_heap_exhausts_cleanly() {
        let affinity = vec![1.0, 2.0];
        let selected = vec![true, true];
        let mut heap = AffinityHeap::with_capacity(2);
        heap.rebuild(&affinity, &selected);
        assert_eq!(heap.pop_where(|t| !selected[t]), None);
    }

    #[test]
    fn permutations_count_and_identity_first() {
        assert_eq!(permutations(0), vec![Vec::<usize>::new()]);
        assert_eq!(permutations(1), vec![vec![0]]);
        assert_eq!(permutations(3).len(), 6);
        assert_eq!(permutations(4)[0], vec![0, 1, 2, 3]);
        let mut p5 = permutations(5);
        p5.sort();
        p5.dedup();
        assert_eq!(p5.len(), 120);
    }

    #[test]
    #[should_panic(expected = "refusing")]
    fn huge_kappa_rejected() {
        permutations(9);
    }

    #[test]
    fn produces_feasible_mappings() {
        let p = problem_with(32, 8, 3);
        let m = GeoMapper::default().map(&p);
        m.validate(&p).unwrap();
    }

    #[test]
    fn respects_constraints() {
        let p = problem_with(32, 8, 3);
        let c = ConstraintVector::random(32, 0.3, &p.capacities(), 11);
        let p = p.with_constraints(c.clone());
        let m = GeoMapper::default().map(&p);
        m.validate(&p).unwrap();
        assert!(c.satisfied_by(m.as_slice()));
    }

    #[test]
    fn full_constraint_ratio_leaves_no_freedom() {
        let p = problem_with(16, 4, 5);
        let c = ConstraintVector::random(16, 1.0, &p.capacities(), 2);
        let p = p.with_constraints(c.clone());
        let m = GeoMapper::default().map(&p);
        for i in 0..16 {
            assert_eq!(Some(m.site_of(i)), c.pin_of(i));
        }
    }

    #[test]
    fn beats_contiguous_blocks_on_a_ring() {
        // A ring mapped in contiguous blocks is already decent; Geo must
        // be at least as good and never worse.
        let net = presets::paper_ec2_network(4, InstanceType::M4Xlarge, 1);
        let pat = Ring {
            n: 16,
            iterations: 10,
            bytes: 1_000_000,
        }
        .pattern();
        let p = MappingProblem::unconstrained(pat, net);
        let geo = GeoMapper::default().map(&p);
        let blocks = Mapping::from((0..16).map(|i| i / 4).collect::<Vec<_>>());
        assert!(cost(&p, &geo) <= cost(&p, &blocks) * 1.001);
    }

    #[test]
    fn parallel_and_serial_agree() {
        let p = problem_with(24, 6, 9);
        let a = GeoMapper {
            parallel: true,
            ..GeoMapper::default()
        }
        .map(&p);
        let b = GeoMapper {
            parallel: false,
            ..GeoMapper::default()
        }
        .map(&p);
        assert_eq!(a, b);
    }

    #[test]
    fn exhaustive_order_search_never_loses_to_first_only() {
        for seed in 0..5 {
            let p = problem_with(32, 8, seed);
            let full = GeoMapper::default().map(&p);
            let first = GeoMapper {
                order_search: OrderSearch::FirstOnly,
                ..GeoMapper::default()
            }
            .map(&p);
            assert!(cost(&p, &full) <= cost(&p, &first) + 1e-9, "seed {seed}");
        }
    }

    #[test]
    fn heaviest_seeding_no_worse_than_random_on_average() {
        // Compares the paper's line-9 seeding rule against random seeding
        // on the *raw* Algorithm 1 packing (refinement off): the claim is
        // about the construction heuristic. With the hill-climb on, both
        // variants converge to near-identical local optima and random
        // seeding's more diverse multi-starts can edge ahead, which says
        // nothing about the seeding rule itself.
        let mut wins = 0;
        for seed in 0..10 {
            let p = problem_with(32, 8, seed);
            let h = GeoMapper {
                seed,
                refine: false,
                ..GeoMapper::default()
            }
            .map(&p);
            let r = GeoMapper {
                seeding: Seeding::Random,
                seed,
                refine: false,
                ..GeoMapper::default()
            }
            .map(&p);
            if cost(&p, &h) <= cost(&p, &r) + 1e-12 {
                wins += 1;
            }
        }
        assert!(wins >= 6, "heaviest seeding won only {wins}/10");
    }

    #[test]
    fn deterministic() {
        let p = problem_with(32, 8, 3);
        assert_eq!(GeoMapper::default().map(&p), GeoMapper::default().map(&p));
    }

    #[test]
    fn single_site_puts_everything_there() {
        use geonet::{AlphaBeta, GeoCoord, Site, SiteNetwork};
        let net = SiteNetwork::single_site(
            Site::new("only", GeoCoord::new(0.0, 0.0), 16),
            AlphaBeta::from_ms_mbps(0.3, 100.0),
        );
        let pat = Ring {
            n: 16,
            iterations: 1,
            bytes: 100,
        }
        .pattern();
        let p = MappingProblem::unconstrained(pat, net);
        let m = GeoMapper::default().map(&p);
        assert!(m.as_slice().iter().all(|s| s.index() == 0));
    }

    /// The grouping `map` packs one representative per class for is
    /// sound: every order's unrestricted packing equals its class
    /// representative's prefix packing. Random problems over the 11
    /// EC2 regions with pins and capacity slack, κ = 1..=5, both seeding
    /// rules, exhaustive orders and sampled orders with repeats. With
    /// restricted sets on unpinned processes every order is its own
    /// class (repeats aside) over its whole length.
    #[test]
    fn orders_in_a_prefix_class_share_their_packing() {
        use rand::{RngExt, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(0x9EF1);
        let (mut orders_seen, mut shared) = (0, 0);
        for case in 0..24u64 {
            let net =
                presets::ec2_global_network(rng.random_range(2..6), InstanceType::M4Xlarge, case);
            let n = rng.random_range(8..=net.total_nodes());
            let pattern = RandomGraph {
                n,
                degree: 3,
                max_bytes: 100_000,
                seed: case,
            }
            .pattern();
            let ratio = [0.0, 0.1, 0.3][case as usize % 3];
            let pins = ConstraintVector::random(n, ratio, &net.capacities(), case);
            let problem = MappingProblem::new(pattern, net, pins);
            let by_quantity = by_quantity(&problem);
            // Sets that a plain packing satisfies, so the instance is
            // feasible: a few unpinned processes may use their witness
            // site or one random site.
            let witness = GeoMapper {
                refine: false,
                ..GeoMapper::default()
            }
            .map(&problem);
            let mut set_rng = rand::rngs::StdRng::seed_from_u64(case);
            let mut sets = AllowedSites::unrestricted(n);
            for i in (0..n).filter(|&i| problem.constraints().pin_of(i).is_none()) {
                if sets.restricted_ratio() == 0.0 || set_rng.random_range(0..2) == 0 {
                    let other = SiteId(set_rng.random_range(0..problem.num_sites()));
                    sets.restrict(i, &[witness.site_of(i), other]);
                }
            }
            let sets = sets.with_pins(&problem);
            for kappa in 1..=5 {
                let groups = group_sites(problem.network(), kappa, case);
                for seeding in [Seeding::Heaviest, Seeding::Random] {
                    for order_search in
                        [OrderSearch::Exhaustive, OrderSearch::Random { samples: 30 }]
                    {
                        let mapper = GeoMapper {
                            kappa,
                            seed: case,
                            seeding,
                            order_search,
                            ..GeoMapper::default()
                        };
                        let orders = mapper.orders(groups.len());
                        for allowed in [None, Some(&sets)] {
                            let classes = PrefixClasses::new(&problem, &groups, &orders, allowed);
                            let packed: Vec<Mapping> = classes
                                .reps
                                .iter()
                                .map(|&(idx, k)| {
                                    mapper.map_order(
                                        &problem,
                                        &groups,
                                        &orders[idx],
                                        k,
                                        &by_quantity,
                                        allowed,
                                    )
                                })
                                .collect();
                            for (idx, order) in orders.iter().enumerate() {
                                let full = mapper.map_order(
                                    &problem,
                                    &groups,
                                    order,
                                    order.len(),
                                    &by_quantity,
                                    allowed,
                                );
                                assert_eq!(
                                    full, packed[classes.class_of[idx]],
                                    "case {case}, kappa {kappa}, {seeding:?}, {order_search:?}, order {order:?}, restricted {}",
                                    allowed.is_some()
                                );
                            }
                            if allowed.is_some() {
                                let mut distinct = orders.clone();
                                distinct.sort();
                                distinct.dedup();
                                assert_eq!(classes.reps.len(), distinct.len(), "case {case}");
                                assert!(classes
                                    .reps
                                    .iter()
                                    .all(|&(idx, k)| k == orders[idx].len()));
                            } else {
                                orders_seen += orders.len();
                                shared += orders.len() - classes.reps.len();
                            }
                        }
                    }
                }
            }
        }
        // The sweep must exercise sharing, not only singleton classes.
        assert!(
            shared * 4 > orders_seen,
            "{shared} of {orders_seen} orders shared a packing"
        );
    }

    #[test]
    fn handles_real_workloads() {
        let p = {
            let net = presets::paper_ec2_network(16, InstanceType::M4Xlarge, 1);
            let pat = AppKind::Lu.workload(64).pattern();
            MappingProblem::unconstrained(pat, net)
        };
        let m = GeoMapper::default().map(&p);
        m.validate(&p).unwrap();
        // LU should be mapped far better than round-robin.
        let rr = Mapping::from((0..64).map(|i| i % 4).collect::<Vec<_>>());
        assert!(cost(&p, &m) < cost(&p, &rr));
    }
}

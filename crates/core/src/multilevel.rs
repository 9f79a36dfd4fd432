//! Multilevel coarsen–map–refine solver (DESIGN.md §5g).
//!
//! The direct Geo mapper's per-order greedy + refine is superlinear in
//! the rank count and cannot touch the 100k–1M-rank graphs the ROADMAP
//! north-star asks for. Following the multilevel scheme of Schulz &
//! Träff's sparse-QAP mapper (VieM) and the heavy-edge tradition of
//! multilevel graph partitioning:
//!
//! 1. **Coarsen** — randomized heavy-edge matching contracts the
//!    communication graph level by level. Edge weights sum, rank
//!    weights aggregate, pin constraints merge; a pinned rank never
//!    matches a rank with a different (or absent) pin, so every coarse
//!    vertex has one well-defined pin. Traffic contracted *inside* a
//!    vertex is carried as cumulative `internal_bytes`/`internal_msgs`
//!    so the Eq. 3 cost of any coarse assignment equals the cost of its
//!    projection — exactly, not approximately.
//! 2. **Coarse solve** — the smallest graph goes to the existing
//!    [`GeoMapper`] machinery unchanged, on a network whose capacities
//!    are rescaled from rank units to vertex units. A rank-unit repair
//!    pass then sheds weight off any overfull site (cheapest Δ first),
//!    with a weight-aware first-fit fallback, so the placement is
//!    feasible against the *real* capacities.
//! 3. **Uncoarsen** — the mapping projects down one level at a time;
//!    after every projection a [`crate::search::Climb`] refines it,
//!    capacity-aware: equal-weight swaps (which keep per-site rank
//!    loads invariant by construction) plus a capacity-checked move
//!    pass.
//!
//! A [`MultilevelConfig::coarsen_cutoff`] at or above the rank count
//! disables coarsening entirely: the solver then *is* the inner direct
//! solver, bit for bit, on the same RNG stream — the differential
//! oracle in `tests/multilevel_differential.rs` pins this down.

use std::collections::BTreeMap;

use commgraph::{CommPattern, Edge};
use geonet::{Site, SiteId, SiteNetwork};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

use crate::constraint::ConstraintVector;
use crate::cost::{pair_cost, CostModel};
use crate::delta::{CostTables, Evaluation, ProcessSet, SwapScope};
use crate::geo::GeoMapper;
use crate::mapping::Mapping;
use crate::metrics::Metrics;
use crate::problem::MappingProblem;
use crate::search::{Climb, Room, SearchStats, CLIMB_EPS, SWAP_SCAN_LIMIT};
use crate::trace::TraceScope;
use crate::Mapper;

/// A level whose matching shrinks the graph by less than this factor is
/// a stall: further levels would be near-copies, so coarsening stops.
const STALL_RATIO: f64 = 0.98;

/// A finer level only earns its own refinement sweep when it exposes at
/// least this factor more contracted edges than the last level refined.
/// Near the coarse end of a deep hierarchy the edge count barely
/// shrinks between levels (halving the vertices of a clustered graph
/// merges few edges), so refining every level re-walks nearly the same
/// graph for diminishing gains. The base level always refines.
const REFINE_GROWTH: f64 = 1.5;

/// Levels with fewer contracted edges than this always refine: a sweep
/// over a small graph costs next to nothing, and on shallow hierarchies
/// (small N) every level's sweep is what keeps cost parity with the
/// direct solver. The growth gate above only prunes *expensive* levels.
const REFINE_MIN_EDGES: usize = 1 << 16;

/// Hard backstop on hierarchy depth (a 2× shrink per level exhausts
/// any practical rank count long before this).
const MAX_LEVELS: usize = 64;

/// Knobs for the multilevel solve, threaded through
/// [`crate::pipeline::PipelineConfig`], the daemon's solve path, and
/// `geomap request`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MultilevelConfig {
    /// Stop coarsening once a level has at most this many vertices; the
    /// inner solver runs on that coarsest graph. A cutoff at or above
    /// the rank count degenerates to the inner solver, bit for bit.
    pub coarsen_cutoff: usize,
    /// Randomized heavy-edge matchings tried per level; the one
    /// matching the most vertices (ties: the heavier matched weight)
    /// wins.
    pub match_rounds: usize,
    /// Refinement passes after each uncoarsening projection (and once
    /// more at the base level). Zero disables refinement.
    pub refine_passes: usize,
}

impl Default for MultilevelConfig {
    fn default() -> Self {
        Self {
            coarsen_cutoff: 1024,
            match_rounds: 2,
            refine_passes: 2,
        }
    }
}

/// One contracted level: the coarse graph plus the surjection back to
/// the next-finer level.
#[derive(Debug, Clone)]
pub struct Level {
    /// Finer-vertex → coarse-vertex surjection (`len()` = finer count).
    pub coarse_of: Vec<usize>,
    /// Aggregated rank weight per coarse vertex (how many base ranks it
    /// absorbs).
    pub weights: Vec<usize>,
    /// Bytes contracted *inside* each coarse vertex, cumulative over
    /// all finer levels — an Eq. 3 `(s, s)` term once mapped.
    pub internal_bytes: Vec<f64>,
    /// Messages contracted inside each coarse vertex (cumulative).
    pub internal_msgs: Vec<f64>,
    /// The contracted communication pattern (summed edge weights,
    /// intra-vertex edges folded into the internal totals).
    pub pattern: CommPattern,
    /// Merged pin constraints: every member of a vertex shares its pin.
    pub constraints: ConstraintVector,
}

impl Level {
    /// Coarse vertex count at this level.
    pub fn n(&self) -> usize {
        self.weights.len()
    }
}

/// The level stack produced by coarsening: `levels[0]` contracts the
/// base problem, `levels[k]` contracts `levels[k-1]`. Empty when the
/// cutoff already covers the base problem.
#[derive(Debug, Clone)]
pub struct Hierarchy {
    /// Finest-to-coarsest contraction stack.
    pub levels: Vec<Level>,
}

impl Hierarchy {
    /// Coarsen `problem` by randomized heavy-edge matching until the
    /// cutoff, a matching stall, or `MAX_LEVELS` stops it.
    pub fn coarsen(problem: &MappingProblem, config: &MultilevelConfig, seed: u64) -> Self {
        let n0 = problem.num_processes();
        let mut rng = StdRng::seed_from_u64(seed);
        let mut levels: Vec<Level> = Vec::new();
        let mut pins: Vec<Option<SiteId>> =
            (0..n0).map(|i| problem.constraints().pin_of(i)).collect();
        let mut weights = vec![1usize; n0];
        let mut internal_bytes = vec![0.0; n0];
        let mut internal_msgs = vec![0.0; n0];
        let byte_eq = problem.latency_byte_equivalent();

        loop {
            // The working pattern lives inside the last pushed level
            // (or is the base problem's) — contraction reads it and
            // builds the next level's pattern fresh, so nothing is
            // cloned on the way down.
            let pattern = levels.last().map_or(problem.pattern(), |l| &l.pattern);
            if pattern.n() <= config.coarsen_cutoff || levels.len() >= MAX_LEVELS {
                break;
            }
            let adj = match_adjacency(pattern, byte_eq);
            let (mate, pairs) = best_matching(&adj, &pins, config.match_rounds.max(1), &mut rng);
            if pairs == 0 {
                break;
            }
            let n_fine = pattern.n();
            let n_coarse = n_fine - pairs;
            if (n_coarse as f64) > (n_fine as f64) * STALL_RATIO {
                break;
            }

            // Contract: coarse ids in first-member order keeps the
            // whole construction deterministic for a given RNG stream.
            let mut coarse_of = vec![usize::MAX; n_fine];
            let mut next = 0usize;
            for u in 0..n_fine {
                if coarse_of[u] != usize::MAX {
                    continue;
                }
                coarse_of[u] = next;
                if let Some(v) = mate[u] {
                    coarse_of[v] = next;
                }
                next += 1;
            }
            debug_assert_eq!(next, n_coarse);

            let mut w_c = vec![0usize; n_coarse];
            let mut ib_c = vec![0.0f64; n_coarse];
            let mut im_c = vec![0.0f64; n_coarse];
            let mut pins_c: Vec<Option<SiteId>> = vec![None; n_coarse];
            for u in 0..n_fine {
                let c = coarse_of[u];
                w_c[c] += weights[u];
                ib_c[c] += internal_bytes[u];
                im_c[c] += internal_msgs[u];
                if pins_c[c].is_none() {
                    pins_c[c] = pins[u];
                }
                debug_assert!(
                    pins[u].is_none() || pins_c[c] == pins[u],
                    "matched across different pins"
                );
            }
            // Contract edges by per-coarse-row accumulation, sorted and
            // duplicate-merged — O(E log deg) with flat rows, no per-edge
            // tree-map inserts.
            let mut rows: Vec<Vec<Edge>> = vec![Vec::new(); n_coarse];
            for u in 0..n_fine {
                let cu = coarse_of[u];
                for e in pattern.out_edges(u) {
                    let cv = coarse_of[e.dst];
                    if cu == cv {
                        ib_c[cu] += e.bytes;
                        im_c[cu] += e.msgs;
                    } else {
                        rows[cu].push(Edge {
                            dst: cv,
                            bytes: e.bytes,
                            msgs: e.msgs,
                        });
                    }
                }
            }
            for row in rows.iter_mut() {
                row.sort_unstable_by_key(|e| e.dst);
                let mut w = 0usize;
                for r in 1..row.len() {
                    if row[r].dst == row[w].dst {
                        let (rb, rm) = (row[r].bytes, row[r].msgs);
                        row[w].bytes += rb;
                        row[w].msgs += rm;
                    } else {
                        w += 1;
                        row[w] = row[r];
                    }
                }
                row.truncate(if row.is_empty() { 0 } else { w + 1 });
            }
            let coarse_pattern = CommPattern::from_edge_lists(rows);

            pins = pins_c;
            weights = w_c.clone();
            internal_bytes = ib_c.clone();
            internal_msgs = im_c.clone();
            levels.push(Level {
                coarse_of,
                weights: w_c,
                internal_bytes: ib_c,
                internal_msgs: im_c,
                pattern: coarse_pattern,
                constraints: ConstraintVector::from_pins(pins.clone()),
            });
        }
        Hierarchy { levels }
    }

    /// Number of contracted levels (0 ⇒ nothing was coarsened).
    pub fn num_levels(&self) -> usize {
        self.levels.len()
    }

    /// Project an assignment of `levels[level]` one step finer: to
    /// `levels[level-1]`, or to the base problem when `level == 0`.
    pub fn project(&self, level: usize, coarse_sites: &[SiteId]) -> Vec<SiteId> {
        self.levels[level]
            .coarse_of
            .iter()
            .map(|&c| coarse_sites[c])
            .collect()
    }

    /// Project an assignment of `levels[from_level]` all the way to the
    /// base problem.
    pub fn project_to_base(&self, from_level: usize, sites: &[SiteId]) -> Vec<SiteId> {
        let mut cur = sites.to_vec();
        for k in (0..=from_level).rev() {
            cur = self.project(k, &cur);
        }
        cur
    }

    /// Eq. 3 cost of an assignment at `levels[level]`: the contracted
    /// edges plus each vertex's internal traffic charged at its own
    /// site. Equals the base cost of the projected assignment.
    pub fn cost_at(&self, problem: &MappingProblem, level: usize, sites: &[SiteId]) -> f64 {
        let net = problem.network();
        let lvl = &self.levels[level];
        let mut total = 0.0;
        for i in 0..lvl.n() {
            let si = sites[i];
            for e in lvl.pattern.out_edges(i) {
                total += pair_cost(net, e.msgs, e.bytes, si, sites[e.dst]);
            }
            total += pair_cost(net, lvl.internal_msgs[i], lvl.internal_bytes[i], si, si);
        }
        total
    }
}

/// Pins may merge only when identical: unpinned with unpinned, or two
/// ranks pinned to the *same* site.
fn pin_compatible(a: Option<SiteId>, b: Option<SiteId>) -> bool {
    a == b
}

/// Undirected match adjacency for one level: every neighbour of `u`
/// (either direction) with the heavy-edge weight `bytes + byte_eq·msgs`
/// summed over both directions. Built once per level, so the matching
/// rounds probe flat rows instead of paying two reverse-direction
/// binary searches per edge per round.
fn match_adjacency(pattern: &CommPattern, byte_eq: f64) -> Vec<Vec<(u32, f64)>> {
    let n = pattern.n();
    // In-adjacency rows come out sorted for free (sources are visited
    // in order), and out-edge rows are sorted by construction — so each
    // undirected row is a two-pointer merge, never a sort.
    let mut in_rows: Vec<Vec<(u32, f64)>> = vec![Vec::new(); n];
    for u in 0..n {
        for e in pattern.out_edges(u) {
            in_rows[e.dst].push((u as u32, e.bytes + byte_eq * e.msgs));
        }
    }
    (0..n)
        .map(|u| {
            let out = pattern.out_edges(u);
            let inr = &in_rows[u];
            let mut row: Vec<(u32, f64)> = Vec::with_capacity(out.len() + inr.len());
            let (mut a, mut b) = (0usize, 0usize);
            while a < out.len() || b < inr.len() {
                let entry = if b >= inr.len() || (a < out.len() && (out[a].dst as u32) < inr[b].0) {
                    let e = &out[a];
                    a += 1;
                    (e.dst as u32, e.bytes + byte_eq * e.msgs)
                } else if a >= out.len() || inr[b].0 < out[a].dst as u32 {
                    let e = inr[b];
                    b += 1;
                    e
                } else {
                    let (e, w_in) = (&out[a], inr[b].1);
                    a += 1;
                    b += 1;
                    (e.dst as u32, e.bytes + byte_eq * e.msgs + w_in)
                };
                row.push(entry);
            }
            row
        })
        .collect()
}

/// One randomized heavy-edge matching: visit vertices in a shuffled
/// order, match each unmatched vertex to its heaviest unmatched
/// pin-compatible neighbour (undirected weight from the precomputed
/// [`match_adjacency`]; ties to the smaller peer id).
fn heavy_edge_matching(
    adj: &[Vec<(u32, f64)>],
    pins: &[Option<SiteId>],
    rng: &mut StdRng,
) -> (Vec<Option<usize>>, usize, f64) {
    let n = adj.len();
    let mut order: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        let j = rng.random_range(0..=i);
        order.swap(i, j);
    }
    let mut mate: Vec<Option<usize>> = vec![None; n];
    let mut pairs = 0usize;
    let mut matched_weight = 0.0f64;
    for &u in &order {
        if mate[u].is_some() {
            continue;
        }
        let mut best: Option<(f64, usize)> = None;
        for &(v, w) in &adj[u] {
            let v = v as usize;
            if mate[v].is_some() || !pin_compatible(pins[u], pins[v]) {
                continue;
            }
            let better = match best {
                None => true,
                Some((bw, bv)) => w > bw || (w == bw && v < bv),
            };
            if better {
                best = Some((w, v));
            }
        }
        if let Some((w, v)) = best {
            mate[u] = Some(v);
            mate[v] = Some(u);
            pairs += 1;
            matched_weight += w;
        }
    }
    (mate, pairs, matched_weight)
}

/// Try `rounds` seeded matchings and keep the one matching the most
/// vertices (ties: the heavier matched weight; further ties: the
/// earlier round).
fn best_matching(
    adj: &[Vec<(u32, f64)>],
    pins: &[Option<SiteId>],
    rounds: usize,
    rng: &mut StdRng,
) -> (Vec<Option<usize>>, usize) {
    let mut best: Option<(Vec<Option<usize>>, usize, f64)> = None;
    for _ in 0..rounds {
        let (mate, pairs, weight) = heavy_edge_matching(adj, pins, rng);
        let better = match &best {
            None => true,
            Some((_, bp, bw)) => pairs > *bp || (pairs == *bp && weight > *bw),
        };
        if better {
            best = Some((mate, pairs, weight));
        }
    }
    let (mate, pairs, _) = best.expect("at least one matching round");
    (mate, pairs)
}

/// Build the coarse network: same sites, `LT`/`BT` untouched, but
/// capacities rescaled from rank units to vertex units so the inner
/// solver's unit-capacity bookkeeping stays valid on weighted vertices.
fn vertex_unit_network(net: &SiteNetwork, cap_v: &[usize]) -> SiteNetwork {
    let sites: Vec<Site> = net
        .sites()
        .iter()
        .zip(cap_v)
        .map(|(s, &c)| Site::new(s.name.clone(), s.coord, c))
        .collect();
    SiteNetwork::new(sites, net.lt().clone(), net.bt().clone())
}

/// Solve one coarse level with the inner solver, then make the result
/// feasible against the *real* rank-unit capacities. `None` means even
/// first-fit could not place the level (the caller falls back to the
/// next finer level).
fn solve_coarse(problem: &MappingProblem, lvl: &Level, inner: &GeoMapper) -> Option<Vec<SiteId>> {
    let n_c = lvl.n();
    let caps = problem.network().capacities();
    let m = caps.len();

    let mut pin_vertices = vec![0usize; m];
    for i in 0..n_c {
        if let Some(p) = lvl.constraints.pin_of(i) {
            pin_vertices[p.0] += 1;
        }
    }

    // Vertex-unit capacities: scale by the mean vertex weight, bump by
    // largest remainder until they cover the vertex count, and keep
    // every site at least able to hold its own pinned vertices.
    let total_w: usize = lvl.weights.iter().sum();
    let mean_w = total_w as f64 / n_c as f64;
    let mut cap_v: Vec<usize> = caps
        .iter()
        .zip(&pin_vertices)
        .map(|(&c, &pv)| ((c as f64 / mean_w).floor() as usize).max(pv).max(1))
        .collect();
    let mut covered: usize = cap_v.iter().sum();
    while covered < n_c {
        let k = (0..m)
            .max_by(|&a, &b| {
                let fa = caps[a] as f64 / mean_w - cap_v[a] as f64;
                let fb = caps[b] as f64 / mean_w - cap_v[b] as f64;
                fa.total_cmp(&fb).then(b.cmp(&a))
            })
            .expect("at least one site");
        cap_v[k] += 1;
        covered += 1;
    }

    let scaled = MappingProblem::new(
        lvl.pattern.clone(),
        vertex_unit_network(problem.network(), &cap_v),
        lvl.constraints.clone(),
    );
    // The inner solver's own polish (24 multi-start hill-climbs, 50
    // passes each) only runs when the coarsest graph is small: near the
    // cutoff at large N the contracted graph is close to complete,
    // which degrades the polish's partner-edge sweeps to O(n²·deg), and
    // the uncoarsening refiner revisits this level anyway. On shallow
    // hierarchies the polish is cheap and carries real cost parity.
    let coarse_solver = GeoMapper {
        refine: lvl.pattern.num_edges() < REFINE_MIN_EDGES,
        ..inner.clone()
    };
    let coarse_mapping = coarse_solver.map(&scaled);

    // Rank-unit repair: the vertex-unit solve can overfill a site in
    // rank units when heavy vertices cluster. Shed weight off overfull
    // sites, cheapest Δ first; total overflow strictly decreases each
    // move, so this terminates.
    let tables = CostTables::build_from_pattern(&lvl.pattern, problem.network(), CostModel::Full);
    let mut eval = Evaluation::Incremental.evaluator(&tables, coarse_mapping.as_slice().to_vec());
    let mut loads = vec![0usize; m];
    for i in 0..n_c {
        loads[eval.sites()[i].0] += lvl.weights[i];
    }
    loop {
        let Some(k) = (0..m).find(|&k| loads[k] > caps[k]) else {
            return Some(eval.sites().to_vec());
        };
        let mut best: Option<(f64, usize, usize)> = None;
        for i in 0..n_c {
            if eval.sites()[i].0 != k || lvl.constraints.pin_of(i).is_some() {
                continue;
            }
            for l in 0..m {
                if l == k || loads[l] + lvl.weights[i] > caps[l] {
                    continue;
                }
                let limit = best.map_or(f64::INFINITY, |(bd, _, _)| bd);
                let Some(d) = eval.move_delta_if_below(i, SiteId(l), limit) else {
                    continue;
                };
                if best.is_none_or(|(bd, _, _)| d < bd) {
                    best = Some((d, i, l));
                }
            }
        }
        match best {
            Some((d, i, l)) => {
                loads[k] -= lvl.weights[i];
                loads[l] += lvl.weights[i];
                eval.apply_move(i, SiteId(l), d);
            }
            // Wedged: no single move fits anywhere. Rebuild from
            // scratch with weight-aware first-fit.
            None => return first_fit(lvl, &caps),
        }
    }
}

/// Weight-aware first-fit-decreasing: pins first, then unpinned
/// vertices by descending weight into the roomiest feasible site
/// (worst-fit keeps slack spread out for the heavy tail).
fn first_fit(lvl: &Level, caps: &[usize]) -> Option<Vec<SiteId>> {
    let n = lvl.n();
    let m = caps.len();
    let mut free: Vec<i64> = caps.iter().map(|&c| c as i64).collect();
    let mut sites = vec![SiteId(0); n];
    let mut placed = vec![false; n];
    for i in 0..n {
        if let Some(p) = lvl.constraints.pin_of(i) {
            free[p.0] -= lvl.weights[i] as i64;
            sites[i] = p;
            placed[i] = true;
        }
    }
    if free.iter().any(|&f| f < 0) {
        return None;
    }
    let mut order: Vec<usize> = (0..n).filter(|&i| !placed[i]).collect();
    order.sort_by(|&a, &b| lvl.weights[b].cmp(&lvl.weights[a]).then(a.cmp(&b)));
    for i in order {
        let k = (0..m)
            .filter(|&k| free[k] >= lvl.weights[i] as i64)
            .max_by_key(|&k| (free[k], std::cmp::Reverse(k)))?;
        free[k] -= lvl.weights[i] as i64;
        sites[i] = SiteId(k);
    }
    Some(sites)
}

/// Capacity-aware refinement of one level (or the base problem when
/// `level` is `None`): swaps within equal-weight classes keep per-site
/// loads, then a move pass relocates vertices to sites with room.
/// Classes of at most [`SWAP_SCAN_LIMIT`] members climb by steepest
/// descent, larger ones by first improvement.
fn refine_level(
    problem: &MappingProblem,
    level: Option<&Level>,
    sites: &mut Vec<SiteId>,
    passes: usize,
    scope: TraceScope<'_>,
) -> SearchStats {
    if passes == 0 {
        return SearchStats::default();
    }
    let caps = problem.network().capacities();
    let (tables, weights, pins) = match level {
        Some(lvl) => (
            CostTables::build_from_pattern(&lvl.pattern, problem.network(), CostModel::Full),
            lvl.weights.clone(),
            &lvl.constraints,
        ),
        None => (
            CostTables::build(problem, CostModel::Full),
            vec![1; problem.num_processes()],
            problem.constraints(),
        ),
    };
    let n = weights.len();
    let free = ProcessSet::from_fn(n, |i| pins.pin_of(i).is_none());
    let mut classes: BTreeMap<usize, Vec<usize>> = BTreeMap::new();
    for i in free.iter() {
        classes.entry(weights[i]).or_default().push(i);
    }
    let mut eval = Evaluation::Incremental.evaluator(&tables, std::mem::take(sites));
    let mut room = Room::new(eval.sites(), &weights, &caps);
    let mut climb = Climb::new(eval.as_mut(), scope);

    let mut prev_total = climb.total();
    for _ in 0..passes {
        let mut improved = false;
        for (&w, class) in classes.iter().rev() {
            if class.len() < 2 {
                continue;
            }
            improved |= if class.len() <= SWAP_SCAN_LIMIT {
                // Applied to convergence, bounded so a long improvement
                // chain cannot stall an uncoarsening pass.
                climb.steepest(class, CLIMB_EPS, class.len() * 2)
            } else {
                let movable = |i: usize| free.contains(i) && weights[i] == w;
                climb.first_sweep(&SwapScope::new(n, movable, &|_, _| true))
            };
        }
        // Move pass: whole-vertex relocation gated on real capacity.
        improved |= climb.best_sweep(&free, &mut room, false, CLIMB_EPS);
        if !improved {
            break;
        }
        // Diminishing returns: a pass that moved the cost by less than
        // 0.1% will not earn the next one.
        let now = climb.total();
        if prev_total - now < 1e-3 * prev_total.abs() {
            break;
        }
        prev_total = now;
    }
    let stats = climb.finish();
    *sites = eval.sites().to_vec();
    stats
}

/// The multilevel coarsen–map–refine solver. Implements [`Mapper`]; the
/// inner [`GeoMapper`] handles the coarsest level (and the whole
/// problem when the cutoff disables coarsening).
#[derive(Debug, Clone)]
pub struct MultilevelMapper {
    /// Coarsening and refinement knobs.
    pub config: MultilevelConfig,
    /// Direct solver for the coarsest graph. Its `seed` also drives the
    /// matching RNG (xored, so the two streams stay independent). Its
    /// allowed-site sets apply only when the cutoff disables coarsening:
    /// a coarse vertex has no single set, so `map` panics on a problem
    /// it would coarsen.
    pub inner: GeoMapper,
    /// Observability handle: phase timings (`phase.coarsen` /
    /// `phase.coarse_solve` / `phase.refine`), per-level
    /// `level.vertices` / `level.edges` counters and the uncoarsening
    /// refiner's `search.*` counters, scoped `multilevel`;
    /// its trace gets `coarsen` / `coarse_solve` / `level` spans plus
    /// accepted `swap` / `move` instants on a `"search"/"Multilevel"`
    /// track.
    pub metrics: Metrics,
}

impl Default for MultilevelMapper {
    fn default() -> Self {
        Self {
            config: MultilevelConfig::default(),
            inner: GeoMapper::default(),
            metrics: Metrics::off(),
        }
    }
}

impl Mapper for MultilevelMapper {
    fn name(&self) -> &'static str {
        "Multilevel"
    }

    fn map(&self, problem: &MappingProblem) -> Mapping {
        let n = problem.num_processes();
        // Degenerate configuration: nothing to coarsen. The inner
        // solver sees the problem untouched — same RNG stream,
        // bit-identical result.
        if n <= self.config.coarsen_cutoff {
            return self.inner.map(problem);
        }
        assert!(
            self.inner.allowed.is_none(),
            "multilevel cannot carry allowed-site sets through coarsening \
             ({n} processes > coarsen_cutoff {}); use GeoMapper::with_allowed \
             or a cutoff of at least {n}",
            self.config.coarsen_cutoff
        );
        let metrics = self.metrics.scoped("multilevel");
        let scope = metrics.track("search", "Multilevel");

        let hierarchy = metrics.phase(scope, "coarsen", "phase.coarsen", || {
            Hierarchy::coarsen(problem, &self.config, self.inner.seed ^ 0x5CA1_AB1E)
        });
        metrics.counter("levels", hierarchy.num_levels() as u64);
        if hierarchy.num_levels() == 0 {
            // The graph refused to contract (e.g. no edges at all).
            return self.inner.map(problem);
        }
        for lvl in &hierarchy.levels {
            metrics.counter("level.vertices", lvl.n() as u64);
            metrics.counter("level.edges", lvl.pattern.num_edges() as u64);
        }

        // Solve the deepest level that yields a feasible weighted
        // placement; a level where even first-fit fails is abandoned
        // for the next finer one.
        let mut solved: Option<(usize, Vec<SiteId>)> = None;
        for k in (0..hierarchy.num_levels()).rev() {
            let attempt = metrics.phase(scope, "coarse_solve", "phase.coarse_solve", || {
                solve_coarse(problem, &hierarchy.levels[k], &self.inner)
            });
            if let Some(sites) = attempt {
                solved = Some((k, sites));
                break;
            }
        }
        let Some((start, mut cur)) = solved else {
            // Every level failed even first-fit — solve the base
            // problem directly.
            return self.inner.map(problem);
        };

        // Uncoarsen: refine at each level that grew enough edges since
        // the last refined one (see [`REFINE_GROWTH`]), then project one
        // step finer; a final refinement always runs on the base problem
        // itself.
        let mut last_refined_edges = 0.0f64;
        let mut refined = SearchStats::default();
        for k in (0..=start).rev() {
            scope.span_begin("level");
            let edges = hierarchy.levels[k].pattern.num_edges() as f64;
            if edges < REFINE_MIN_EDGES as f64 || edges >= REFINE_GROWTH * last_refined_edges {
                refined.absorb(metrics.timed("phase.refine", || {
                    refine_level(
                        problem,
                        Some(&hierarchy.levels[k]),
                        &mut cur,
                        self.config.refine_passes,
                        scope,
                    )
                }));
                last_refined_edges = edges;
            }
            cur = hierarchy.project(k, &cur);
            scope.span_end("level");
        }
        refined.absorb(metrics.phase(scope, "level", "phase.refine", || {
            refine_level(problem, None, &mut cur, self.config.refine_passes, scope)
        }));
        // The uncoarsening refiner's own work; the coarse solve's search
        // counters stay under the inner mapper's scope.
        refined.emit(&metrics);

        let mapping = Mapping::new(cur);
        debug_assert!(
            mapping.validate(problem).is_ok(),
            "multilevel produced an infeasible mapping"
        );
        mapping
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::delta::{Candidates, CostEval};
    use crate::search::best_improving_swap;
    use commgraph::apps::{ClusteredGraph, Workload};
    use geonet::{presets, InstanceType};

    /// One partner-edge (or full-pair) hill-climb pass as it stood before
    /// the search driver. Returns (passes, evaluated, accepted).
    fn reference_sweep(eval: &mut dyn CostEval, movable: &dyn Fn(usize) -> bool) -> SearchStats {
        let n = eval.sites().len();
        let swaps = SwapScope::new(n, movable, &|_, _| true);
        let mut stats = SearchStats {
            passes: 1,
            ..SearchStats::default()
        };
        for i in swaps.movable().iter() {
            let partners: Vec<u32> = {
                let peers = eval.peers(i);
                peers[peers.partition_point(|&p| p as usize <= i)..].to_vec()
            };
            let mut candidates = if n <= 256 {
                Candidates::Range(i + 1..n)
            } else {
                Candidates::List(&partners)
            };
            loop {
                let (hit, evaluated) =
                    eval.first_improving_swap(i, candidates.clone(), &swaps, -1e-12);
                stats.swaps_evaluated += evaluated;
                let Some((j, d)) = hit else { break };
                eval.apply_swap(i, j, d);
                stats.swaps_accepted += 1;
                candidates = candidates.after(j);
            }
        }
        stats
    }

    /// `refine_level` as it stood before the search driver.
    fn reference_refine_level(
        problem: &MappingProblem,
        level: Option<&Level>,
        sites: &mut Vec<SiteId>,
        passes: usize,
    ) -> SearchStats {
        const EPS: f64 = -1e-12;
        let mut stats = SearchStats::default();
        let caps = problem.network().capacities();
        let m = caps.len();
        let (tables, weights, pins): (CostTables, Vec<usize>, Vec<Option<SiteId>>) = match level {
            Some(lvl) => (
                CostTables::build_from_pattern(&lvl.pattern, problem.network(), CostModel::Full),
                lvl.weights.clone(),
                (0..lvl.n()).map(|i| lvl.constraints.pin_of(i)).collect(),
            ),
            None => {
                let n = problem.num_processes();
                let pins = (0..n).map(|i| problem.constraints().pin_of(i)).collect();
                (
                    CostTables::build(problem, CostModel::Full),
                    vec![1; n],
                    pins,
                )
            }
        };
        let n = weights.len();
        let mut eval = Evaluation::Incremental.evaluator(&tables, std::mem::take(sites));
        let mut classes: BTreeMap<usize, Vec<usize>> = BTreeMap::new();
        for i in 0..n {
            if pins[i].is_none() {
                classes.entry(weights[i]).or_default().push(i);
            }
        }
        let mut loads = vec![0usize; m];
        for i in 0..n {
            loads[eval.sites()[i].0] += weights[i];
        }
        let mut prev_total = eval.total();
        for _ in 0..passes {
            let mut improved = false;
            for (&w, class) in classes.iter().rev() {
                if class.len() < 2 {
                    continue;
                }
                if class.len() <= 64 {
                    let mut steps = class.len() * 2;
                    while steps > 0 {
                        let (best, evaluated) = best_improving_swap(eval.as_ref(), class, EPS);
                        stats.passes += 1;
                        stats.swaps_evaluated += evaluated;
                        let Some((a, b, d)) = best else { break };
                        eval.apply_swap(a, b, d);
                        stats.swaps_accepted += 1;
                        improved = true;
                        steps -= 1;
                    }
                } else {
                    let movable = |i: usize| pins[i].is_none() && weights[i] == w;
                    let sweep = reference_sweep(eval.as_mut(), &movable);
                    improved |= sweep.swaps_accepted > 0;
                    stats.absorb(sweep);
                }
            }
            for i in 0..n {
                if pins[i].is_some() {
                    continue;
                }
                let si = eval.sites()[i];
                let mut best: Option<(f64, usize)> = None;
                for l in 0..m {
                    if l == si.0 || loads[l] + weights[i] > caps[l] {
                        continue;
                    }
                    let limit = best.map_or(EPS, |(bd, _)| bd);
                    let Some(d) = eval.move_delta_if_below(i, SiteId(l), limit) else {
                        continue;
                    };
                    if d < EPS && best.is_none_or(|(bd, _)| d < bd) {
                        best = Some((d, l));
                    }
                }
                if let Some((d, l)) = best {
                    loads[si.0] -= weights[i];
                    loads[l] += weights[i];
                    eval.apply_move(i, SiteId(l), d);
                    improved = true;
                }
            }
            if !improved {
                break;
            }
            let now = eval.total();
            if prev_total - now < 1e-3 * prev_total.abs() {
                break;
            }
            prev_total = now;
        }
        *sites = eval.sites().to_vec();
        stats.terms = eval.terms();
        stats
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(24))]

        /// At every level of a random hierarchy, and on the base
        /// problem, `refine_level` takes the reference loop's exact
        /// trajectory: same assignment and counters, terms included.
        #[test]
        fn refine_level_matches_the_reference_loop(seed in 0u64..10_000) {
            let mut rng = StdRng::seed_from_u64(seed);
            let n = rng.random_range(40..320usize);
            let pattern = ClusteredGraph {
                n,
                cluster: rng.random_range(4..32),
                degree: rng.random_range(2..8),
                locality: 0.8,
                max_bytes: 1 << 20,
                seed,
            }
            .pattern();
            let nodes = n / 4 + rng.random_range(1..=n / 8 + 1);
            let net = presets::paper_ec2_network(nodes, InstanceType::M4Xlarge, seed);
            let ratio = [0.0, 0.2][rng.random_range(0..2usize)];
            let pins = ConstraintVector::random(n, ratio, &net.capacities(), seed);
            let problem = MappingProblem::new(pattern, net, pins);
            let config = MultilevelConfig {
                coarsen_cutoff: rng.random_range(8..64),
                ..MultilevelConfig::default()
            };
            let hierarchy = Hierarchy::coarsen(&problem, &config, seed);
            let caps = problem.network().capacities();
            let passes = rng.random_range(1..4);
            for k in (0..hierarchy.num_levels()).rev() {
                let lvl = &hierarchy.levels[k];
                let Some(start) = first_fit(lvl, &caps) else { continue };
                let (mut got, mut want) = (start.clone(), start);
                let stats = refine_level(&problem, Some(lvl), &mut got, passes, TraceScope::off());
                let expect = reference_refine_level(&problem, Some(lvl), &mut want, passes);
                proptest::prop_assert_eq!(&got, &want, "level {}", k);
                proptest::prop_assert_eq!(
                    (stats.passes, stats.swaps_evaluated, stats.swaps_accepted, stats.terms),
                    (expect.passes, expect.swaps_evaluated, expect.swaps_accepted, expect.terms)
                );
                if k == 0 {
                    let base = hierarchy.project(0, &got);
                    let (mut got, mut want) = (base.clone(), base);
                    let stats = refine_level(&problem, None, &mut got, passes, TraceScope::off());
                    let expect = reference_refine_level(&problem, None, &mut want, passes);
                    proptest::prop_assert_eq!(&got, &want, "base level");
                    proptest::prop_assert_eq!(
                        (stats.passes, stats.swaps_evaluated, stats.swaps_accepted, stats.terms),
                        (expect.passes, expect.swaps_evaluated, expect.swaps_accepted, expect.terms)
                    );
                }
            }
        }
    }
}

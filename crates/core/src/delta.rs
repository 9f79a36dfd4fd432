//! Incremental Δ-cost evaluation: the change in Eq. 3 cost if processes
//! `a` and `b` swap sites, or `i` moves to site `s`.
//!
//! [`CostTables`] stores the pattern as a directed-split CSR and the
//! network as flat row-major `LT`/`1/BT` matrices. [`CostEvaluator`]
//! caches each process's incident cost over them, so a query reads
//! `O(deg(a) + deg(b))` entries instead of re-walking the `O(E)`
//! pattern, and an apply of the delta the caller holds updates the
//! caches in `O(deg)`.
//!
//! A lazily built per-site table decides most rejections in `O(1)`:
//! [`CostEval::swap_delta_if_below`] and [`CostEval::move_delta_if_below`]
//! return `None` when it proves the delta is at or above the caller's
//! limit, and the exact delta otherwise. The row kernel
//! [`CostEval::first_improving_swap`] bounds a whole site's candidates
//! at once from per-site columns of the same table.
//!
//! [`FullRecomputeEval`] answers every query by a full `O(E)` re-walk
//! behind the same trait; [`Evaluation`] picks one of the two, and
//! `tests/delta_equivalence.rs` holds them to identical mapper
//! decisions. The searches that drive these queries are in
//! [`crate::search`].

use crate::cost::{model_components, CostModel};
use crate::problem::MappingProblem;
use geonet::SiteId;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;

/// Which Δ-cost implementation a mapper's local search uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Evaluation {
    /// Cached incremental deltas (`O(deg)` per candidate) — the default.
    #[default]
    Incremental,
    /// Full `O(E)` recomputation per candidate — the ground-truth oracle
    /// the incremental engine is verified against. Orders of magnitude
    /// slower; useful for tests and debugging only.
    FullRecompute,
}

impl Evaluation {
    /// Construct the chosen evaluator over `tables`, starting from the
    /// assignment in `sites`.
    pub fn evaluator<'t>(
        self,
        tables: &'t CostTables,
        sites: Vec<SiteId>,
    ) -> Box<dyn CostEval + 't> {
        match self {
            Evaluation::Incremental => Box::new(CostEvaluator::new(tables, sites)),
            Evaluation::FullRecompute => Box::new(FullRecomputeEval::new(tables, sites)),
        }
    }
}

/// Why [`CostTables::try_build`] rejected a problem. Every variant is a
/// condition the search kernels cannot survive: non-finite components
/// would poison `total_cmp` orderings, and an overflowing index space
/// would silently truncate the `u32` CSR layout.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CostTablesError {
    /// The process count or the directed CSR entry count does not fit
    /// the `u32` index space of the flat tables.
    IndexOverflow {
        /// Number of processes in the problem.
        processes: usize,
        /// Number of directed CSR entries the partner lists expand to.
        entries: usize,
    },
    /// A folded communication component on an edge is NaN or infinite.
    NonFiniteEdge {
        /// Source process of the offending undirected edge.
        from: usize,
        /// Peer process of the offending undirected edge.
        to: usize,
        /// The folded component values, for the error message.
        detail: String,
    },
    /// A network `LT` or `1/BT` entry is NaN or infinite.
    NonFiniteNetwork {
        /// Row site index.
        from: usize,
        /// Column site index.
        to: usize,
        /// Which entry and its value, for the error message.
        detail: String,
    },
}

impl core::fmt::Display for CostTablesError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            CostTablesError::IndexOverflow { processes, entries } => write!(
                f,
                "CostTables: graph exceeds the u32 CSR index space \
                 ({processes} processes, {entries} directed entries)"
            ),
            CostTablesError::NonFiniteEdge { from, to, detail } => write!(
                f,
                "CostTables: non-finite communication component on edge \
                 {from}↔{to} ({detail}); reject bad profiles before mapping"
            ),
            CostTablesError::NonFiniteNetwork {
                from: _,
                to: _,
                detail,
            } => {
                write!(f, "CostTables: non-finite {detail}")
            }
        }
    }
}

impl std::error::Error for CostTablesError {}

/// Pure index-space check for the flat CSR layout: `row_ptr` stores
/// entry offsets and `peer` stores process ids, both as `u32`. Checked
/// up front — with huge synthetic counts this is testable without
/// allocating anything.
fn csr_fits(processes: usize, entries: usize) -> Result<(), CostTablesError> {
    if processes > u32::MAX as usize || entries > u32::MAX as usize {
        return Err(CostTablesError::IndexOverflow { processes, entries });
    }
    Ok(())
}

/// Flatten a network into row-major `LT` and `1/BT` matrices, rejecting
/// non-finite entries (shared by both table constructors).
fn net_matrices(
    net: &geonet::SiteNetwork,
    m: usize,
) -> Result<(Vec<f64>, Vec<f64>), CostTablesError> {
    let mut lt = Vec::with_capacity(m * m);
    let mut inv_bt = Vec::with_capacity(m * m);
    for k in 0..m {
        for l in 0..m {
            let l_kl = net.latency(SiteId(k), SiteId(l));
            let b_kl = net.bandwidth(SiteId(k), SiteId(l));
            let inv = 1.0 / b_kl;
            if !l_kl.is_finite() {
                return Err(CostTablesError::NonFiniteNetwork {
                    from: k,
                    to: l,
                    detail: format!("latency LT({k},{l}) = {l_kl}"),
                });
            }
            if !inv.is_finite() {
                return Err(CostTablesError::NonFiniteNetwork {
                    from: k,
                    to: l,
                    detail: format!("1/BT({k},{l}) non-finite (BT = {b_kl})"),
                });
            }
            lt.push(l_kl);
            inv_bt.push(inv);
        }
    }
    Ok((lt, inv_bt))
}

/// Immutable, model-folded flat tables for one `(problem, cost model)`
/// pair: the communication pattern as a directed-split CSR over
/// undirected partner edges, and the network as row-major `LT` and
/// `1/BT` matrices. Build once per `map()` call, share freely across
/// threads.
#[derive(Debug, Clone)]
pub struct CostTables {
    n: usize,
    m: usize,
    /// CSR row offsets into the four parallel component arrays.
    row_ptr: Vec<u32>,
    /// Partner process of each CSR entry.
    peer: Vec<u32>,
    /// `AG(i, peer)` — messages `i` sends to the partner.
    out_m: Vec<f64>,
    /// `CG(i, peer)` — bytes `i` sends to the partner.
    out_b: Vec<f64>,
    /// `AG(peer, i)` — messages the partner sends to `i`.
    in_m: Vec<f64>,
    /// `CG(peer, i)` — bytes the partner sends to `i`.
    in_b: Vec<f64>,
    /// Row-major `LT(k, l)`.
    lt: Vec<f64>,
    /// Row-major `1 / BT(k, l)` (division folded into a multiply).
    inv_bt: Vec<f64>,
    /// Every edge component is `>= 0` (the bucket bound relies on it).
    nonneg: bool,
}

impl CostTables {
    /// Flatten `problem` under `model`. The model is folded into the
    /// stored `CG`/`AG` components (latency-only zeroes the bytes,
    /// bandwidth-only the messages), so every downstream evaluation is
    /// the same two-term α–β kernel.
    ///
    /// # Panics
    /// Panics if any folded communication component or network entry is
    /// non-finite, or the graph exceeds the `u32` CSR index space.
    /// Rejecting here — once per `map()` — is what lets the downstream
    /// comparators use plain `total_cmp` orderings without NaN ever
    /// reaching a search decision. [`CostTables::try_build`] is the
    /// non-panicking form for callers fed untrusted problems.
    pub fn build(problem: &MappingProblem, model: CostModel) -> Self {
        match Self::try_build(problem, model) {
            Ok(tables) => tables,
            Err(e) => panic!("{e}"),
        }
    }

    /// [`CostTables::build`] with every rejection as a typed error
    /// instead of a panic: non-finite communication components or
    /// network entries, and graphs whose process count or directed
    /// CSR entry count would silently truncate the `u32` index space.
    /// Degenerate problems — a single vertex, every rank pinned, or
    /// zero-weight edges — build fine and evaluate to well-defined
    /// (possibly zero) costs.
    pub fn try_build(problem: &MappingProblem, model: CostModel) -> Result<Self, CostTablesError> {
        Self::from_partners(
            problem.pattern(),
            problem.partners(),
            problem.network(),
            model,
        )
    }

    /// The one table walk. Each partner row is walked in lockstep with
    /// the pattern's sorted out-row: a peer the out-row reaches gives
    /// the out components, and the in components are `partner − out`.
    fn from_partners(
        pattern: &commgraph::CommPattern,
        partners: &[Vec<commgraph::pattern::Partner>],
        net: &geonet::SiteNetwork,
        model: CostModel,
    ) -> Result<Self, CostTablesError> {
        let n = pattern.n();
        let m = net.num_sites();
        let entries: usize = partners.iter().map(Vec::len).sum();
        csr_fits(n, entries)?;
        let mut row_ptr = Vec::with_capacity(n + 1);
        let mut peer = Vec::with_capacity(entries);
        let mut out_m = Vec::with_capacity(entries);
        let mut out_b = Vec::with_capacity(entries);
        let mut in_m = Vec::with_capacity(entries);
        let mut in_b = Vec::with_capacity(entries);
        let mut nonneg = true;
        row_ptr.push(0u32);
        for (i, ps) in partners.iter().enumerate() {
            let mut out = pattern.out_edges(i).iter().peekable();
            for p in ps {
                let (om, ob) = out
                    .next_if(|e| e.dst == p.peer)
                    .map_or((0.0, 0.0), |e| (e.msgs, e.bytes));
                let (fom, fob) = model_components(model, om, ob);
                let (fim, fib) = model_components(model, p.msgs - om, p.bytes - ob);
                nonneg &= fom >= 0.0 && fob >= 0.0 && fim >= 0.0 && fib >= 0.0;
                if !(fom.is_finite() && fob.is_finite() && fim.is_finite() && fib.is_finite()) {
                    return Err(CostTablesError::NonFiniteEdge {
                        from: i,
                        to: p.peer,
                        detail: format!(
                            "out msgs {fom}, out bytes {fob}, in msgs {fim}, in bytes {fib}"
                        ),
                    });
                }
                peer.push(p.peer as u32);
                out_m.push(fom);
                out_b.push(fob);
                in_m.push(fim);
                in_b.push(fib);
            }
            row_ptr.push(peer.len() as u32);
        }

        let (lt, inv_bt) = net_matrices(net, m)?;
        Ok(Self {
            n,
            m,
            row_ptr,
            peer,
            out_m,
            out_b,
            in_m,
            in_b,
            lt,
            inv_bt,
            nonneg,
        })
    }

    /// [`CostTables::try_build_from_pattern`] with the standard
    /// panic-on-rejection contract of [`CostTables::build`].
    ///
    /// # Panics
    /// Panics under the same conditions as [`CostTables::build`].
    pub fn build_from_pattern(
        pattern: &commgraph::CommPattern,
        net: &geonet::SiteNetwork,
        model: CostModel,
    ) -> Self {
        match Self::try_build_from_pattern(pattern, net, model) {
            Ok(tables) => tables,
            Err(e) => panic!("{e}"),
        }
    }

    /// Build tables directly from a pattern/network pair — the
    /// multilevel refiner's path, which visits a freshly contracted
    /// pattern at every level. It derives the partner rows with
    /// [`CommPattern::partners`](commgraph::CommPattern::partners) and
    /// runs the same walk as [`CostTables::try_build`], so the tables
    /// are bitwise those of the pair wrapped in a [`MappingProblem`].
    pub fn try_build_from_pattern(
        pattern: &commgraph::CommPattern,
        net: &geonet::SiteNetwork,
        model: CostModel,
    ) -> Result<Self, CostTablesError> {
        Self::from_partners(pattern, &pattern.partners(), net, model)
    }

    /// Number of processes.
    #[inline]
    pub fn num_processes(&self) -> usize {
        self.n
    }

    /// Number of sites.
    #[inline]
    pub fn num_sites(&self) -> usize {
        self.m
    }

    /// Number of directed CSR entries (twice the undirected edge count).
    #[inline]
    pub fn num_entries(&self) -> usize {
        self.peer.len()
    }

    /// CSR entry range of process `i`.
    #[inline]
    fn row(&self, i: usize) -> core::ops::Range<usize> {
        self.row_ptr[i] as usize..self.row_ptr[i + 1] as usize
    }

    /// One α–β term: `msgs·LT(from,to) + bytes/BT(from,to)`.
    #[inline]
    fn term(&self, msgs: f64, bytes: f64, from: SiteId, to: SiteId) -> f64 {
        let at = from.index() * self.m + to.index();
        msgs * self.lt[at] + bytes * self.inv_bt[at]
    }

    /// Total Eq. 3 cost of `sites` — `O(E)` over the out components only
    /// (each directed edge is stored twice, once per endpoint).
    pub fn total(&self, sites: &[SiteId]) -> f64 {
        debug_assert_eq!(sites.len(), self.n);
        let mut sum = 0.0;
        for i in 0..self.n {
            let si = sites[i];
            for k in self.row(i) {
                sum += self.term(
                    self.out_m[k],
                    self.out_b[k],
                    si,
                    sites[self.peer[k] as usize],
                );
            }
        }
        sum
    }

    /// Incident cost of process `i` (both directions of every partner
    /// edge) under `sites`.
    fn incident(&self, sites: &[SiteId], i: usize) -> f64 {
        let si = sites[i];
        let mut sum = 0.0;
        for k in self.row(i) {
            let sp = sites[self.peer[k] as usize];
            sum += self.term(self.out_m[k], self.out_b[k], si, sp)
                + self.term(self.in_m[k], self.in_b[k], sp, si);
        }
        sum
    }

    /// Eq. 3 cost of attaching unplaced process `i` at `site` to its
    /// already-placed partners — the greedy mappers' tie-break score.
    /// Unplaced partners contribute nothing. `O(deg(i))`.
    pub fn placement_cost(&self, placed: &[Option<SiteId>], i: usize, site: SiteId) -> f64 {
        let mut sum = 0.0;
        for k in self.row(i) {
            if let Some(sp) = placed[self.peer[k] as usize] {
                sum += self.term(self.out_m[k], self.out_b[k], site, sp)
                    + self.term(self.in_m[k], self.in_b[k], sp, site);
            }
        }
        sum
    }
}

/// A fixed set of process ids, one bit each.
#[derive(Debug, Clone, Default)]
pub struct ProcessSet {
    words: Vec<u64>,
}

impl ProcessSet {
    /// The processes `0..n` for which `member` holds.
    pub fn from_fn(n: usize, member: impl Fn(usize) -> bool) -> Self {
        let mut words = vec![0u64; n.div_ceil(64)];
        for i in (0..n).filter(|&i| member(i)) {
            words[i / 64] |= 1 << (i % 64);
        }
        Self { words }
    }

    /// Whether `i` is in the set (`false` past the end).
    #[inline]
    pub fn contains(&self, i: usize) -> bool {
        self.words
            .get(i / 64)
            .is_some_and(|w| w >> (i % 64) & 1 == 1)
    }

    /// The members in ascending order.
    pub fn iter(&self) -> Members<'_> {
        self.members_in(0..self.words.len() * 64)
    }

    /// The members in `ids`, in ascending order.
    pub fn members_in(&self, ids: core::ops::Range<usize>) -> Members<'_> {
        let k = ids.start / 64;
        let first = self
            .words
            .get(k)
            .map_or(0, |w| w & (!0u64 << (ids.start % 64)));
        Members {
            words: &self.words,
            k,
            rest: first,
            end: ids.end.min(self.words.len() * 64),
        }
    }
}

/// Iterator over the members of a [`ProcessSet`] below an end.
#[derive(Debug, Clone)]
pub struct Members<'s> {
    words: &'s [u64],
    /// Word being drained, and its members not yet returned.
    k: usize,
    rest: u64,
    end: usize,
}

impl Iterator for Members<'_> {
    type Item = usize;

    #[inline]
    fn next(&mut self) -> Option<usize> {
        while self.rest == 0 {
            self.k += 1;
            if self.k * 64 >= self.end {
                return None;
            }
            self.rest = self.words[self.k];
        }
        let i = self.k * 64 + self.rest.trailing_zeros() as usize;
        self.rest &= self.rest - 1;
        (i < self.end).then_some(i)
    }
}

/// Who a sweep may swap: the movable processes, as a bitmap built once
/// per climb, and which sites each process may sit on. Each scope
/// carries a unique id, so an evaluator can keep what it derives from
/// one (bound columns, per-site permission bitmaps) for as long as it
/// is handed the same scope.
pub struct SwapScope<'p> {
    movable: ProcessSet,
    permits: &'p dyn Fn(usize, SiteId) -> bool,
    id: u64,
}

/// Ids of constructed [`SwapScope`]s.
static NEXT_SCOPE_ID: AtomicU64 = AtomicU64::new(1);

impl<'p> SwapScope<'p> {
    /// The scope over processes `0..n` where `movable(i)` gates which
    /// may move and `permits(i, s)` whether `i` may sit on site `s`.
    pub fn new(
        n: usize,
        movable: impl Fn(usize) -> bool,
        permits: &'p dyn Fn(usize, SiteId) -> bool,
    ) -> Self {
        Self {
            movable: ProcessSet::from_fn(n, movable),
            permits,
            id: NEXT_SCOPE_ID.fetch_add(1, Ordering::Relaxed),
        }
    }

    /// The movable processes.
    pub fn movable(&self) -> &ProcessSet {
        &self.movable
    }

    /// Whether `i` may sit on site `s`.
    #[inline]
    pub fn permits(&self, i: usize, s: SiteId) -> bool {
        (self.permits)(i, s)
    }

    /// Whether row `a` on `sa` may swap with candidate `b` on `sb`: `b`
    /// is movable, sits elsewhere, and each may take the other's site.
    #[inline]
    fn eligible(&self, a: usize, sa: SiteId, b: usize, sb: SiteId) -> bool {
        self.movable.contains(b) && sb != sa && self.permits(a, sb) && self.permits(b, sa)
    }
}

/// The candidates of one row of a sweep, in ascending id order.
#[derive(Debug, Clone)]
pub enum Candidates<'c> {
    /// Every process id in the range (a full-pair row).
    Range(core::ops::Range<usize>),
    /// These ids, ascending (a partner-edge row).
    List(&'c [u32]),
}

impl Candidates<'_> {
    /// The ids in order.
    pub fn iter(&self) -> impl Iterator<Item = usize> + '_ {
        let (range, list) = match self {
            Candidates::Range(r) => (r.clone(), &[][..]),
            Candidates::List(l) => (0..0, *l),
        };
        range.chain(list.iter().map(|&b| b as usize))
    }

    /// How many ids there are.
    pub fn len(&self) -> usize {
        match self {
            Candidates::Range(r) => r.len(),
            Candidates::List(l) => l.len(),
        }
    }

    /// Whether there are none.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The candidates after `b`, which must be one of them.
    pub fn after(&self, b: usize) -> Self {
        match self {
            Candidates::Range(r) => Candidates::Range(b + 1..r.end),
            Candidates::List(l) => Candidates::List(&l[l.partition_point(|&c| c as usize <= b)..]),
        }
    }
}

/// Δ-cost evaluation over a mutable assignment: candidate queries and
/// applied moves with cache maintenance.
///
/// `swap_delta`/`move_delta` are `&self` and thread-safe, so a sweep can
/// fan candidate evaluation out with rayon; `apply_*` mutate.
pub trait CostEval: Sync {
    /// Current total Eq. 3 cost (maintained incrementally; see
    /// `tests/delta_equivalence.rs` for the drift bound).
    fn total(&self) -> f64;

    /// The current assignment.
    fn sites(&self) -> &[SiteId];

    /// Exact cost change of swapping the sites of `a` and `b`; `0.0`
    /// when `a == b` or they share a site.
    fn swap_delta(&self, a: usize, b: usize) -> f64;

    /// Exact cost change of moving `i` to `to`; `0.0` when already there.
    /// (Capacity bookkeeping is the caller's job.)
    fn move_delta(&self, i: usize, to: SiteId) -> f64;

    /// [`CostEval::swap_delta`] behind a screen: `None` only when the
    /// exact delta is known to be `>= limit` without computing it;
    /// otherwise `Some` of the exact, bitwise-unchanged `swap_delta`.
    /// Callers keep their own comparison on the returned value, so a
    /// screened search takes exactly the decisions an unscreened one
    /// does. The default never screens.
    fn swap_delta_if_below(&self, a: usize, b: usize, limit: f64) -> Option<f64> {
        let _ = limit;
        Some(self.swap_delta(a, b))
    }

    /// [`CostEval::move_delta`] behind the same screen as
    /// [`CostEval::swap_delta_if_below`].
    fn move_delta_if_below(&self, i: usize, to: SiteId, limit: f64) -> Option<f64> {
        let _ = limit;
        Some(self.move_delta(i, to))
    }

    /// The row kernel of a first-improvement sweep: the first
    /// `b` of `candidates` that `scope` lets `a` swap with (movable, on
    /// another site, permitted both ways) and whose exact swap delta is
    /// below `threshold`, with that delta. Also returns how many such
    /// eligible candidates it decided, the hit included. Decisions are
    /// exactly those of this default, a loop over
    /// [`CostEval::swap_delta_if_below`]; an override may only decide
    /// the same rejections faster.
    fn first_improving_swap(
        &mut self,
        a: usize,
        candidates: Candidates<'_>,
        scope: &SwapScope<'_>,
        threshold: f64,
    ) -> (Option<(usize, f64)>, u64) {
        let sa = self.sites()[a];
        let mut evaluated = 0;
        for b in candidates.iter() {
            if !scope.eligible(a, sa, b, self.sites()[b]) {
                continue;
            }
            evaluated += 1;
            if let Some(d) = self.swap_delta_if_below(a, b, threshold) {
                if d < threshold {
                    return (Some((b, d)), evaluated);
                }
            }
        }
        (None, evaluated)
    }

    /// Apply the swap and update the caches. `delta` is the swap's
    /// [`CostEval::swap_delta`], which the caller got from the query
    /// that chose it; the total advances by exactly that value. Debug
    /// builds check it bitwise.
    fn apply_swap(&mut self, a: usize, b: usize, delta: f64);

    /// Apply the move and update the caches; `delta` is its
    /// [`CostEval::move_delta`], under the same contract as
    /// [`CostEval::apply_swap`].
    fn apply_move(&mut self, i: usize, to: SiteId, delta: f64);

    /// α–β terms evaluated so far (one `pair_cost` = one term) — the
    /// work metric behind the Fig. 4 FLOP comparisons. A screen query
    /// of [`CostEvaluator`] counts one term per site-table entry it
    /// reads (2 for a move, 4 for a swap), plus the exact delta's terms
    /// when it passes; a bucket bound counts 2 per decision and 2 per
    /// process a column build visits.
    fn terms(&self) -> u64;

    /// Partner ids of `i` in CSR order (the communicating pairs a
    /// partner-edge sweep considers).
    fn peers(&self, i: usize) -> &[u32];
}

/// What the row kernel knows about one site of the current row.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Bucket {
    /// Not looked at yet.
    Unknown,
    /// No candidate there is eligible: the row's own site, or one its
    /// process may not sit on.
    Skip,
    /// The bound rules out every candidate there.
    Rejected,
    /// Candidates there go through the pair screen.
    Open,
}

/// Site-bucket bounds for the row kernel over one [`SwapScope`]. For a
/// row on target site `t`, column `t` holds per source site `s` the
/// pair `(G, H)` over the movable `b` on `s`: `G = min (at[b][t] −
/// at[b][s])`, the least change any such `b` sees moving to `t`, and
/// `H = max (|at[b][t]| + |at[b][s]|)`, which bounds those pairs'
/// screen tolerances. A column costs `O(n)` and is built only when a
/// row on its site asks. An apply folds the rows it changed into the
/// built columns (`lower`), which keeps them bounds but can loosen
/// them; when it touched as many rows as the set has members,
/// rebuilding on demand is no dearer, so it drops every column instead
/// (a generation bump), as does a different movable set.
///
/// Full-pair rows also get, per site `t`, the bitmap of movable
/// processes that may sit on `t`, built once per scope: a row on `t`
/// walks its set bits instead of asking `permits` per candidate.
#[derive(Debug, Default)]
struct BucketBounds {
    /// The scope the columns and `allowed` were built for.
    scope: u64,
    set: ProcessSet,
    /// Size of `set`.
    members: usize,
    /// `cols[t·m + s] = (G, H)`; `+∞` for a site without movable
    /// processes.
    cols: Vec<(f64, f64)>,
    /// Generation each column was built in; current when it equals
    /// `generation`.
    built: Vec<u64>,
    generation: u64,
    /// Per-site verdicts of the row being scanned.
    verdict: Vec<Bucket>,
    /// `allowed[t]`: the movable processes that may sit on `t`, once a
    /// full-pair row on `t` asked.
    allowed: Vec<Option<ProcessSet>>,
}

impl BucketBounds {
    /// Adopt `scope` for `m` sites, dropping what a previous scope left.
    fn prepare(&mut self, scope: &SwapScope<'_>, m: usize) {
        if self.built.len() != m {
            self.cols = vec![(0.0, 0.0); m * m];
            self.built = vec![0; m];
            self.generation = 1;
        }
        if self.scope != scope.id {
            self.scope = scope.id;
            self.set.clone_from(&scope.movable);
            self.members = scope.movable.iter().count();
            self.generation += 1;
            self.allowed.clear();
        }
        self.allowed.resize(m, None);
    }

    /// Whether every movable candidate on site `s` is ruled out for row
    /// `a` on site `sa`, and the terms the decision counted. The bound
    /// `(at[a][s] − at[a][sa]) + G` is at most every such pair's table
    /// estimate without its a↔b edge correction, computed in the same
    /// floating-point operations; that correction is
    /// `ω·cross(sa, s)` for nonnegative `ω`, so it can only raise the
    /// estimate when both crosses (`LT` and `1/BT`) are `>= 0`, and the
    /// bound is used only then. Rejecting at `threshold + 2T`, with `T`
    /// the tolerance over `H`, leaves each pair's estimate at or above
    /// `threshold` plus its own tolerance: the pair screen would have
    /// rejected every one of them. A missing column is built only when
    /// the asking row's `budget` of candidates is at least an average
    /// bucket (`members / m`): a row with fewer cannot save what the
    /// build costs, so its buckets stay open.
    #[allow(clippy::too_many_arguments)]
    fn rejects(
        &mut self,
        tables: &CostTables,
        at: &[f64],
        sites: &[SiteId],
        a: usize,
        s: usize,
        threshold: f64,
        budget: usize,
    ) -> (bool, u64) {
        let m = tables.m;
        let sa = sites[a].index();
        if self.built[sa] != self.generation && budget.saturating_mul(m) < self.members {
            return (false, 0);
        }
        if !(tables.nonneg
            && cross(&tables.lt, m, sa, s) >= 0.0
            && cross(&tables.inv_bt, m, sa, s) >= 0.0)
        {
            return (false, 0);
        }
        let built = self.column(at, sites, m, sa);
        let (g, h) = self.cols[sa * m + s];
        let (to, now) = (at[a * m + s], at[a * m + sa]);
        let bound = (to - now) + g;
        let tol = SCREEN_TOL_REL * (to.abs() + now.abs() + h);
        (bound >= threshold + 2.0 * tol, built + 2)
    }

    /// Keep every built column a bound after `p`'s table row or site
    /// changed: fold `p`'s current values into its site's entries.
    /// Entries only loosen this way (a process that left a site, or a
    /// value that rose, still counts), which keeps them sound at
    /// `O(m)` per touched process; returns the terms it counted.
    fn lower(&mut self, at: &[f64], sites: &[SiteId], m: usize, p: usize) -> u64 {
        if !self.set.contains(p) {
            return 0;
        }
        let s = sites[p].index();
        let row = &at[p * m..][..m];
        let mut folded = 0;
        for (t, &to) in row.iter().enumerate() {
            if self.built[t] != self.generation {
                continue;
            }
            let (g, h) = &mut self.cols[t * m + s];
            *g = g.min(to - row[s]);
            *h = h.max(to.abs() + row[s].abs());
            folded += 2;
        }
        folded
    }

    /// Build column `t` unless current; returns the terms it counted
    /// (2 per movable process visited).
    fn column(&mut self, at: &[f64], sites: &[SiteId], m: usize, t: usize) -> u64 {
        if self.built[t] == self.generation {
            return 0;
        }
        let col = &mut self.cols[t * m..][..m];
        col.fill((f64::INFINITY, 0.0));
        let mut visited = 0;
        for b in self.set.iter() {
            let s = sites[b].index();
            let (to, now) = (at[b * m + t], at[b * m + s]);
            let (g, h) = &mut col[s];
            *g = g.min(to - now);
            *h = h.max(to.abs() + now.abs());
            visited += 1;
        }
        self.built[t] = self.generation;
        2 * visited
    }
}

/// `X(sa,sb) + X(sb,sa) − X(sa,sa) − X(sb,sb)` for a row-major `m × m`
/// network matrix: the factor of an a↔b edge's weight in a swap's
/// table estimate.
#[inline]
fn cross(x: &[f64], m: usize, sa: usize, sb: usize) -> f64 {
    x[sa * m + sb] + x[sb * m + sa] - x[sa * m + sa] - x[sb * m + sb]
}

/// The incremental engine: cached per-process incident costs over
/// [`CostTables`], with a lazily built per-site table that screens out
/// candidates in `O(1)`, and site-bucket bounds over that table for the
/// sweep's row kernel.
pub struct CostEvaluator<'t> {
    tables: &'t CostTables,
    sites: Vec<SiteId>,
    /// `incident[i]` = both-direction cost of all edges at `i`. Exact:
    /// every returned delta is computed against it.
    incident: Vec<f64>,
    /// `at[i·m + s]` = the incident cost `i` would have on site `s`,
    /// its peers where they are. Built on the first cross-site screen
    /// query, then shifted by applies, so it drifts from `incident` by
    /// rounding only; the screen's tolerance covers that drift.
    at: OnceLock<Vec<f64>>,
    /// Row-kernel bounds over `at` (boxed: the kernel takes them out
    /// for the length of a row).
    bounds: Option<Box<BucketBounds>>,
    /// Scratch of `shift_site_table`: per-site shift factors.
    unit: Vec<[f64; 4]>,
    total: f64,
    terms: AtomicU64,
}

impl<'t> CostEvaluator<'t> {
    /// Build the caches for `sites` in one `O(E)` walk, bitwise equal to
    /// [`CostTables`]' `incident` and `total` (the same additions in the
    /// same order). The site table waits for the first screen query.
    pub fn new(tables: &'t CostTables, sites: Vec<SiteId>) -> Self {
        assert_eq!(sites.len(), tables.n, "assignment length mismatch");
        let t = tables;
        let mut incident = Vec::with_capacity(t.n);
        let mut total = 0.0;
        for (i, &si) in sites.iter().enumerate() {
            let mut sum = 0.0;
            for k in t.row(i) {
                let sp = sites[t.peer[k] as usize];
                let out = t.term(t.out_m[k], t.out_b[k], si, sp);
                sum += out + t.term(t.in_m[k], t.in_b[k], sp, si);
                total += out;
            }
            incident.push(sum);
        }
        Self {
            tables,
            sites,
            incident,
            at: OnceLock::new(),
            bounds: None,
            unit: Vec::new(),
            total,
            terms: AtomicU64::new((3 * tables.num_entries()) as u64),
        }
    }

    /// Post-move incident cost of `i` sitting at `si_new`, seeing one
    /// peer (`other`) at `other_new`. Also returns the change of the
    /// a↔b edge's cost (0 if `other` is not a partner), which
    /// `swap_delta` needs to un-double-count.
    fn row_after(&self, i: usize, si_new: SiteId, other: usize, other_new: SiteId) -> (f64, f64) {
        let t = self.tables;
        let (mut after, mut ab_after, mut ab_before) = (0.0, 0.0, 0.0);
        for k in t.row(i) {
            let p = t.peer[k] as usize;
            let sp = if p == other { other_new } else { self.sites[p] };
            let term = t.term(t.out_m[k], t.out_b[k], si_new, sp)
                + t.term(t.in_m[k], t.in_b[k], sp, si_new);
            after += term;
            if p == other {
                ab_after = term;
                let (si, so) = (self.sites[i], self.sites[p]);
                ab_before =
                    t.term(t.out_m[k], t.out_b[k], si, so) + t.term(t.in_m[k], t.in_b[k], so, si);
            }
        }
        (after, ab_after - ab_before)
    }

    /// [`CostEval::swap_delta`] without counting its terms (so a debug
    /// build's apply check leaves the counters as a release build's).
    fn exact_swap(&self, a: usize, b: usize) -> f64 {
        let (sa, sb) = (self.sites[a], self.sites[b]);
        if sa == sb {
            return 0.0;
        }
        let (after_a, ab_change) = self.row_after(a, sb, b, sa);
        let (after_b, _) = self.row_after(b, sa, a, sb);
        // The a↔b edge (both directions) appears in both rows: counted
        // twice in the afters and twice in the cached befores, so its
        // change is double-counted exactly once — subtract it.
        (after_a - self.incident[a]) + (after_b - self.incident[b]) - ab_change
    }

    /// [`CostEval::move_delta`] without counting its terms.
    fn exact_move(&self, i: usize, to: SiteId) -> f64 {
        if self.sites[i] == to {
            return 0.0;
        }
        let (after, _) = self.row_after(i, to, usize::MAX, to);
        after - self.incident[i]
    }

    /// Adjust the incident caches of `i`'s peers for `i` moving
    /// `from → to` (skipping `skip`, whose cache is rebuilt wholesale).
    fn shift_peer_caches(&mut self, i: usize, from: SiteId, to: SiteId, skip: usize) {
        let t = self.tables;
        for k in t.row(i) {
            let p = t.peer[k] as usize;
            if p == skip {
                continue;
            }
            let sp = self.sites[p];
            let old =
                t.term(t.out_m[k], t.out_b[k], from, sp) + t.term(t.in_m[k], t.in_b[k], sp, from);
            let new = t.term(t.out_m[k], t.out_b[k], to, sp) + t.term(t.in_m[k], t.in_b[k], sp, to);
            self.incident[p] += new - old;
        }
    }

    #[inline]
    fn count_terms(&self, n: u64) {
        self.terms.fetch_add(n, Ordering::Relaxed);
    }

    /// Degree of process `i` (CSR row length).
    fn deg(&self, i: usize) -> u64 {
        (self.tables.row_ptr[i + 1] - self.tables.row_ptr[i]) as u64
    }

    /// The incident cost `i` would have on site `s`, its peers where
    /// they are: the screen's table entry, kept up to date by shifts,
    /// so it tracks a fresh recompute up to rounding.
    pub fn site_cost(&self, i: usize, s: SiteId) -> f64 {
        self.site_table()[i * self.tables.m + s.index()]
    }

    /// The per-site table, built on first use. Each row first sums its
    /// edge components by peer site, so the build costs `O(E + n·m·q)`
    /// for `q` distinct peer sites per process, counted as `2·m` terms
    /// per (process, peer site) pair.
    fn site_table(&self) -> &[f64] {
        self.at.get_or_init(|| {
            let t = self.tables;
            let m = t.m;
            let mut at = vec![0.0; t.n * m];
            // (out msgs, out bytes, in msgs, in bytes) per peer site.
            let mut by_site = vec![[0.0f64; 4]; m];
            let mut touched: Vec<usize> = Vec::with_capacity(m);
            let mut pairs = 0usize;
            for (i, row) in at.chunks_exact_mut(m).enumerate() {
                for k in t.row(i) {
                    let q = self.sites[t.peer[k] as usize].index();
                    if !touched.contains(&q) {
                        touched.push(q);
                    }
                    let acc = &mut by_site[q];
                    acc[0] += t.out_m[k];
                    acc[1] += t.out_b[k];
                    acc[2] += t.in_m[k];
                    acc[3] += t.in_b[k];
                }
                pairs += touched.len();
                for q in touched.drain(..) {
                    let [om, ob, im, ib] = std::mem::take(&mut by_site[q]);
                    for (s, slot) in row.iter_mut().enumerate() {
                        let (sq, qs) = (s * m + q, q * m + s);
                        *slot +=
                            om * t.lt[sq] + ob * t.inv_bt[sq] + im * t.lt[qs] + ib * t.inv_bt[qs];
                    }
                }
            }
            self.count_terms((2 * m * pairs) as u64);
            at
        })
    }

    /// Shift the site-table rows of `x`'s peers for `x` moving
    /// `from → to` (a no-op until the table exists), `2·m` terms per
    /// peer. A peer's row does not depend on the peer's own site, so
    /// the two halves of a swap shift independently.
    fn shift_site_table(&mut self, x: usize, from: SiteId, to: SiteId) {
        let t = self.tables;
        let m = t.m;
        let Some(at) = self.at.get_mut() else {
            return;
        };
        let (f, g) = (from.index(), to.index());
        // Change per unit of each edge component (out msgs, out bytes,
        // in msgs, in bytes) for a peer on site `s`; components are
        // stored from `x`'s side (out = x→peer).
        let unit = &mut self.unit;
        unit.clear();
        unit.extend((0..m).map(|s| {
            let (fs, gs, sf, sg) = (f * m + s, g * m + s, s * m + f, s * m + g);
            [
                t.lt[gs] - t.lt[fs],
                t.inv_bt[gs] - t.inv_bt[fs],
                t.lt[sg] - t.lt[sf],
                t.inv_bt[sg] - t.inv_bt[sf],
            ]
        }));
        for k in t.row(x) {
            let (om, ob, im, ib) = (t.out_m[k], t.out_b[k], t.in_m[k], t.in_b[k]);
            let row = &mut at[t.peer[k] as usize * m..][..m];
            for (slot, d) in row.iter_mut().zip(unit.iter()) {
                *slot += om * d[0] + ob * d[1] + im * d[2] + ib * d[3];
            }
        }
        self.count_terms(2 * m as u64 * self.deg(x));
    }

    /// Keep the row kernel's state sound after an apply moved `who`:
    /// their sites changed, and their peers' table rows shifted.
    fn moved(&mut self, who: &[usize]) {
        let (Some(at), t) = (self.at.get(), self.tables) else {
            return;
        };
        let Some(bounds) = self.bounds.as_deref_mut() else {
            return;
        };
        if !bounds.built.contains(&bounds.generation) {
            return;
        }
        // Folding costs `O(m)` per touched row, a rebuild `O(m)` per
        // member: past as many touched rows as members, drop instead.
        let touched: usize = who.iter().map(|&x| 1 + t.row(x).len()).sum();
        if touched >= bounds.members {
            bounds.generation += 1;
            return;
        }
        let mut terms = 0;
        for &x in who {
            terms += bounds.lower(at, &self.sites, t.m, x);
            for k in t.row(x) {
                terms += bounds.lower(at, &self.sites, t.m, t.peer[k] as usize);
            }
        }
        self.count_terms(terms);
    }

    /// [`CostEval::first_improving_swap`] over `ids` (ascending), where
    /// `may_move(b)` says whether `b` is movable and may sit on `a`'s
    /// site. Each site gets its verdict at its first candidate.
    #[allow(clippy::too_many_arguments)]
    fn first_in(
        &self,
        a: usize,
        ids: impl Iterator<Item = usize>,
        may_move: impl Fn(usize) -> bool,
        budget: usize,
        scope: &SwapScope<'_>,
        threshold: f64,
        bounds: &mut BucketBounds,
        terms: &mut u64,
    ) -> (Option<(usize, f64)>, u64) {
        let t = self.tables;
        let row = t.row(a);
        let mut k = row.start;
        let mut evaluated = 0;
        for b in ids {
            let s = self.sites[b].index();
            let mut verdict = bounds.verdict[s];
            if verdict == Bucket::Unknown {
                verdict = if !scope.permits(a, SiteId(s)) {
                    Bucket::Skip
                } else {
                    let at = self.site_table();
                    let (rejected, read) =
                        bounds.rejects(t, at, &self.sites, a, s, threshold, budget);
                    *terms += read;
                    if rejected {
                        Bucket::Rejected
                    } else {
                        Bucket::Open
                    }
                };
                bounds.verdict[s] = verdict;
            }
            // Most candidates sit in rejected or skipped sites: count
            // them without a data-dependent branch.
            if verdict != Bucket::Open {
                evaluated += u64::from(verdict == Bucket::Rejected && may_move(b));
                continue;
            }
            if !may_move(b) {
                continue;
            }
            evaluated += 1;
            while k < row.end && (t.peer[k] as usize) < b {
                k += 1;
            }
            let edge = (k < row.end && t.peer[k] as usize == b).then_some(k);
            *terms += 4;
            if let Some(d) = self.screen_swap(a, b, edge, threshold) {
                if d < threshold {
                    return (Some((b, d)), evaluated);
                }
            }
        }
        (None, evaluated)
    }

    /// The pair screen for `a`, `b` on distinct sites: `None` when the
    /// table estimate of `swap_delta(a, b)` is at or above `limit` plus
    /// its tolerance, else the exact delta. The estimate is exact up to
    /// rounding: the a↔b edge, CSR entry `edge` of `a`'s row when they
    /// communicate, contributes `ω·cross(sa, sb)` for `X` = `LT` and
    /// `1/BT` (see [`cross`]), which the four table entries leave out.
    #[inline]
    fn screen_swap(&self, a: usize, b: usize, edge: Option<usize>, limit: f64) -> Option<f64> {
        let (t, at) = (self.tables, self.site_table());
        let m = t.m;
        let (sa, sb) = (self.sites[a].index(), self.sites[b].index());
        let (a_to, a_now) = (at[a * m + sb], at[a * m + sa]);
        let (b_to, b_now) = (at[b * m + sa], at[b * m + sb]);
        let mut estimate = (a_to - a_now) + (b_to - b_now);
        if let Some(k) = edge {
            estimate += (t.out_m[k] + t.in_m[k]) * cross(&t.lt, m, sa, sb)
                + (t.out_b[k] + t.in_b[k]) * cross(&t.inv_bt, m, sa, sb);
        }
        let tol = SCREEN_TOL_REL * (a_to.abs() + a_now.abs() + b_to.abs() + b_now.abs());
        if estimate >= limit + tol {
            return None;
        }
        let exact = self.swap_delta(a, b);
        debug_assert!(
            (estimate - exact).abs() <= tol,
            "swap screen ({a},{b}): estimate {estimate} vs exact {exact}, tol {tol}"
        );
        Some(exact)
    }

    /// Whether the bucket bound alone rules out every candidate on site
    /// `s` for row `a` under `threshold`, over the movable processes of
    /// `scope`: the decision [`CostEval::first_improving_swap`] takes
    /// before screening that site's candidates one by one. When it
    /// does, every movable `b` on `s` has an exact `swap_delta(a, b) >=
    /// threshold`.
    pub fn bucket_rejects(
        &mut self,
        a: usize,
        s: SiteId,
        scope: &SwapScope<'_>,
        threshold: f64,
    ) -> bool {
        if self.sites[a] == s {
            return false;
        }
        let mut bounds = self.bounds.take().unwrap_or_default();
        bounds.prepare(scope, self.tables.m);
        let at = self.site_table();
        let (rejected, terms) = bounds.rejects(
            self.tables,
            at,
            &self.sites,
            a,
            s.index(),
            threshold,
            usize::MAX,
        );
        self.count_terms(terms);
        self.bounds = Some(bounds);
        rejected
    }
}

/// Relative tolerance of the site-table screen: `1e-9` of the summed
/// magnitudes of the table entries an estimate reads. Far above the
/// rounding drift between the shifted table and the exact caches, far
/// below any delta a search decides on.
const SCREEN_TOL_REL: f64 = 1e-9;

impl CostEval for CostEvaluator<'_> {
    fn total(&self) -> f64 {
        self.total
    }

    fn sites(&self) -> &[SiteId] {
        &self.sites
    }

    fn swap_delta(&self, a: usize, b: usize) -> f64 {
        if self.sites[a] != self.sites[b] {
            // Each row_after evaluates 2 terms per entry (+2 for the a↔b
            // "before" correction when present).
            self.count_terms(2 * (self.deg(a) + self.deg(b)) + 2);
        }
        self.exact_swap(a, b)
    }

    fn move_delta(&self, i: usize, to: SiteId) -> f64 {
        if self.sites[i] != to {
            self.count_terms(2 * self.deg(i));
        }
        self.exact_move(i, to)
    }

    fn swap_delta_if_below(&self, a: usize, b: usize, limit: f64) -> Option<f64> {
        if a == b || self.sites[a] == self.sites[b] {
            return Some(0.0);
        }
        self.count_terms(4);
        let row = self.tables.row(a);
        let edge = self.tables.peer[row.clone()]
            .binary_search(&(b as u32))
            .ok()
            .map(|off| row.start + off);
        self.screen_swap(a, b, edge, limit)
    }

    fn move_delta_if_below(&self, i: usize, to: SiteId, limit: f64) -> Option<f64> {
        let si = self.sites[i];
        if si == to {
            return Some(0.0);
        }
        let m = self.tables.m;
        let at = self.site_table();
        self.count_terms(2);
        let (now, there) = (at[i * m + si.index()], at[i * m + to.index()]);
        let estimate = there - now;
        let tol = SCREEN_TOL_REL * (there.abs() + now.abs());
        if estimate >= limit + tol {
            return None;
        }
        let exact = self.move_delta(i, to);
        debug_assert!(
            (estimate - exact).abs() <= tol,
            "move screen ({i}→{to:?}): estimate {estimate} vs exact {exact}, tol {tol}"
        );
        Some(exact)
    }

    /// The default's decisions, reached faster. Each site is put to
    /// the bucket bound at its first candidate; a rejection stands for
    /// the pair screen's rejection of every candidate there (see
    /// `BucketBounds::rejects`), which are then only counted. `a`'s CSR
    /// row is walked in step with the ascending candidates instead of
    /// searched per pair, and terms are counted once per call. A
    /// full-pair row walks the bitmap of processes allowed on `a`'s
    /// site instead of asking `permits` per candidate.
    fn first_improving_swap(
        &mut self,
        a: usize,
        candidates: Candidates<'_>,
        scope: &SwapScope<'_>,
        threshold: f64,
    ) -> (Option<(usize, f64)>, u64) {
        let mut bounds = self.bounds.take().unwrap_or_default();
        bounds.prepare(scope, self.tables.m);
        let sa = self.sites[a];
        bounds.verdict.clear();
        bounds.verdict.resize(self.tables.m, Bucket::Unknown);
        bounds.verdict[sa.index()] = Bucket::Skip;
        let mut terms = 0;
        let budget = candidates.len();
        let found = match candidates {
            Candidates::Range(ids) => {
                let allowed = bounds.allowed[sa.index()].take().unwrap_or_else(|| {
                    let may_sit = |b| scope.movable.contains(b) && scope.permits(b, sa);
                    ProcessSet::from_fn(self.tables.n, may_sit)
                });
                let found = self.first_in(
                    a,
                    allowed.members_in(ids),
                    |_| true,
                    budget,
                    scope,
                    threshold,
                    &mut bounds,
                    &mut terms,
                );
                bounds.allowed[sa.index()] = Some(allowed);
                found
            }
            Candidates::List(ids) => {
                let ids = ids.iter().map(|&b| b as usize);
                let may_move = |b| scope.movable.contains(b) && scope.permits(b, sa);
                self.first_in(
                    a,
                    ids,
                    may_move,
                    budget,
                    scope,
                    threshold,
                    &mut bounds,
                    &mut terms,
                )
            }
        };
        self.bounds = Some(bounds);
        self.count_terms(terms);
        found
    }

    fn apply_swap(&mut self, a: usize, b: usize, delta: f64) {
        debug_assert_eq!(
            delta.to_bits(),
            self.exact_swap(a, b).to_bits(),
            "apply_swap({a},{b}): {delta} is not the swap's delta"
        );
        let (sa, sb) = (self.sites[a], self.sites[b]);
        if sa == sb {
            return;
        }
        self.shift_peer_caches(a, sa, sb, b);
        self.shift_peer_caches(b, sb, sa, a);
        self.shift_site_table(a, sa, sb);
        self.shift_site_table(b, sb, sa);
        self.sites.swap(a, b);
        self.moved(&[a, b]);
        self.incident[a] = self.tables.incident(&self.sites, a);
        self.incident[b] = self.tables.incident(&self.sites, b);
        self.count_terms(4 * (self.deg(a) + self.deg(b)));
        self.total += delta;
    }

    fn apply_move(&mut self, i: usize, to: SiteId, delta: f64) {
        debug_assert_eq!(
            delta.to_bits(),
            self.exact_move(i, to).to_bits(),
            "apply_move({i}→{to:?}): {delta} is not the move's delta"
        );
        let from = self.sites[i];
        if from == to {
            return;
        }
        self.shift_peer_caches(i, from, to, usize::MAX);
        self.shift_site_table(i, from, to);
        self.sites[i] = to;
        self.moved(&[i]);
        self.incident[i] = self.tables.incident(&self.sites, i);
        self.count_terms(4 * self.deg(i));
        self.total += delta;
    }

    fn terms(&self) -> u64 {
        self.terms.load(Ordering::Relaxed)
    }

    fn peers(&self, i: usize) -> &[u32] {
        &self.tables.peer[self.tables.row(i)]
    }
}

/// The ground-truth oracle: answers every query with a full `O(E)`
/// re-walk of the pattern under the hypothetical assignment. Behind the
/// same trait so any mapper can be flipped to it wholesale.
pub struct FullRecomputeEval<'t> {
    tables: &'t CostTables,
    sites: Vec<SiteId>,
    total: f64,
    terms: AtomicU64,
}

impl<'t> FullRecomputeEval<'t> {
    /// Build the oracle for `sites`.
    pub fn new(tables: &'t CostTables, sites: Vec<SiteId>) -> Self {
        assert_eq!(sites.len(), tables.n, "assignment length mismatch");
        let total = tables.total(&sites);
        Self {
            tables,
            sites,
            total,
            terms: AtomicU64::new(tables.num_entries() as u64),
        }
    }

    /// Take the whole total again after an apply instead of adding the
    /// caller's `delta`. Its query took the same sum over the same
    /// sites, so a debug build checks the total moved by exactly
    /// `delta`.
    fn recompute(&mut self, delta: f64) {
        let before = self.total;
        self.total = self.total_with(&|p| self.sites[p]);
        debug_assert_eq!(
            (self.total - before).to_bits(),
            delta.to_bits(),
            "apply: {delta} is not the operation's delta"
        );
    }

    /// Full total under a hypothetical process→site view.
    fn total_with(&self, view: &dyn Fn(usize) -> SiteId) -> f64 {
        let t = self.tables;
        self.terms
            .fetch_add(t.num_entries() as u64, Ordering::Relaxed);
        let mut sum = 0.0;
        for i in 0..t.n {
            let si = view(i);
            for k in t.row(i) {
                sum += t.term(t.out_m[k], t.out_b[k], si, view(t.peer[k] as usize));
            }
        }
        sum
    }
}

impl CostEval for FullRecomputeEval<'_> {
    fn total(&self) -> f64 {
        self.total
    }

    fn sites(&self) -> &[SiteId] {
        &self.sites
    }

    fn swap_delta(&self, a: usize, b: usize) -> f64 {
        if a == b || self.sites[a] == self.sites[b] {
            return 0.0;
        }
        let (sa, sb) = (self.sites[a], self.sites[b]);
        let view = |p: usize| {
            if p == a {
                sb
            } else if p == b {
                sa
            } else {
                self.sites[p]
            }
        };
        self.total_with(&view) - self.total
    }

    fn move_delta(&self, i: usize, to: SiteId) -> f64 {
        if self.sites[i] == to {
            return 0.0;
        }
        let view = |p: usize| if p == i { to } else { self.sites[p] };
        self.total_with(&view) - self.total
    }

    fn apply_swap(&mut self, a: usize, b: usize, delta: f64) {
        self.sites.swap(a, b);
        self.recompute(delta);
    }

    fn apply_move(&mut self, i: usize, to: SiteId, delta: f64) {
        self.sites[i] = to;
        self.recompute(delta);
    }

    fn terms(&self) -> u64 {
        self.terms.load(Ordering::Relaxed)
    }

    fn peers(&self, i: usize) -> &[u32] {
        &self.tables.peer[self.tables.row(i)]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::{cost, cost_with_model};
    use crate::mapping::Mapping;
    use crate::search::{best_improving_swap, polish, Climb, SearchStats};
    use crate::trace::TraceScope;
    use commgraph::apps::{RandomGraph, Workload};
    use geonet::{presets, InstanceType};

    fn problem(n: usize, seed: u64) -> MappingProblem {
        let net = presets::paper_ec2_network(n / 4, InstanceType::M4Xlarge, seed);
        let pat = RandomGraph {
            n,
            degree: 4,
            max_bytes: 400_000,
            seed,
        }
        .pattern();
        MappingProblem::unconstrained(pat, net)
    }

    fn round_robin(n: usize, m: usize) -> Vec<SiteId> {
        (0..n).map(|i| SiteId(i % m)).collect()
    }

    #[test]
    fn csr_fits_rejects_u32_overflow_without_allocating() {
        assert!(csr_fits(0, 0).is_ok());
        assert!(csr_fits(u32::MAX as usize, u32::MAX as usize).is_ok());
        let huge = u32::MAX as usize + 1;
        assert_eq!(
            csr_fits(huge, 8),
            Err(CostTablesError::IndexOverflow {
                processes: huge,
                entries: 8
            })
        );
        assert_eq!(
            csr_fits(8, huge),
            Err(CostTablesError::IndexOverflow {
                processes: 8,
                entries: huge
            })
        );
        let msg = csr_fits(huge, 8).unwrap_err().to_string();
        assert!(msg.contains("u32 CSR index space"), "{msg}");
    }

    #[test]
    fn try_build_rejects_non_finite_network() {
        use geonet::{GeoCoord, Site, SiteNetwork, SquareMatrix};
        let pat = {
            let mut b = commgraph::pattern::PatternBuilder::new(2);
            b.record_many(0, 1, 1000, 1);
            b.build()
        };
        let sites = vec![
            Site::new("a", GeoCoord::new(0.0, 0.0), 2),
            Site::new("b", GeoCoord::new(1.0, 0.0), 2),
        ];
        // A denormal bandwidth passes the network's own `> 0 && finite`
        // gate but overflows the folded `1/BT` — exactly the class of
        // poison the tables must reject with a typed error, not feed
        // into `total_cmp` orderings.
        let lt = SquareMatrix::from_fn(2, |_, _| 0.1);
        let bt = SquareMatrix::from_fn(2, |k, l| if k == 0 && l == 1 { 5e-324 } else { 1e9 });
        let p = MappingProblem::unconstrained(pat, SiteNetwork::new(sites, lt, bt));
        match CostTables::try_build(&p, CostModel::Full) {
            Err(CostTablesError::NonFiniteNetwork { from: 0, to: 1, .. }) => {}
            other => panic!("expected NonFiniteNetwork, got {other:?}"),
        }
    }

    /// Degenerate problems build fine and evaluate to well-defined
    /// costs: a single vertex (no edges at all), every rank pinned, and
    /// zero-weight edges pruned by the builder.
    #[test]
    fn try_build_accepts_degenerate_problems() {
        use crate::constraint::ConstraintVector;

        // Single-vertex graph: empty CSR, zero cost, no panics in the
        // search entry points.
        let single = {
            let pat = commgraph::pattern::PatternBuilder::new(1).build();
            let net = presets::paper_ec2_network(1, InstanceType::M4Xlarge, 1);
            MappingProblem::unconstrained(pat, net)
        };
        let t = CostTables::try_build(&single, CostModel::Full).expect("single vertex builds");
        let sites = vec![SiteId(0)];
        assert_eq!(t.total(&sites), 0.0);
        let eval = Evaluation::Incremental.evaluator(&t, sites);
        assert_eq!(best_improving_swap(eval.as_ref(), &[0], -1e-12).0, None);

        // All ranks pinned: nothing movable, polish is a no-op.
        let p = problem(8, 11);
        let pins =
            ConstraintVector::from_pins((0..8).map(|i| Some(SiteId(i % p.num_sites()))).collect());
        let pinned = p.with_constraints(pins);
        let t = CostTables::try_build(&pinned, CostModel::Full).expect("all-pinned builds");
        let start: Vec<SiteId> = (0..8).map(|i| SiteId(i % pinned.num_sites())).collect();
        let mut mapping = Mapping::new(start.clone());
        let pins_of = pinned.constraints().clone();
        polish(
            &t,
            Evaluation::Incremental,
            &mut mapping,
            4,
            &|i| pins_of.pin_of(i).is_none(),
            &|_, _| true,
            TraceScope::off(),
        );
        assert_eq!(mapping.as_slice(), start.as_slice());

        // Zero-weight edges: record_many with count 0 is pruned by the
        // builder, so the tables see a well-formed (possibly empty)
        // graph rather than 0/0 components.
        let zero = {
            let mut b = commgraph::pattern::PatternBuilder::new(4);
            b.record_many(0, 1, 0, 1); // zero bytes, one message — kept
            b.record_many(2, 3, 5_000, 0); // zero count — dropped
            let net = presets::paper_ec2_network(1, InstanceType::M4Xlarge, 2);
            MappingProblem::unconstrained(b.build(), net)
        };
        let t = CostTables::try_build(&zero, CostModel::Full).expect("zero-weight builds");
        assert_eq!(t.num_entries(), 2);
        let sites = round_robin(4, zero.num_sites());
        assert!(t.total(&sites).is_finite());
    }

    /// Every CSR array and the sign flag, as bits.
    type TableBits = (Vec<u32>, Vec<u32>, [Vec<u64>; 4], bool);

    fn table_bits(t: &CostTables) -> TableBits {
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect();
        (
            t.row_ptr.clone(),
            t.peer.clone(),
            [bits(&t.out_m), bits(&t.out_b), bits(&t.in_m), bits(&t.in_b)],
            t.nonneg,
        )
    }

    /// The construction the lockstep walk replaced: two binary searches
    /// into the out-rows per partner entry.
    fn binary_search_tables(p: &MappingProblem, model: CostModel) -> TableBits {
        let (pattern, mut row_ptr, mut peer) = (p.pattern(), vec![0u32], Vec::new());
        let (mut comps, mut nonneg) = (<[Vec<f64>; 4]>::default(), true);
        for (i, ps) in p.partners().iter().enumerate() {
            for q in ps {
                let (ob, om) = (pattern.bytes(i, q.peer), pattern.msgs(i, q.peer));
                let (fom, fob) = model_components(model, om, ob);
                let (fim, fib) = model_components(model, q.msgs - om, q.bytes - ob);
                nonneg &= fom >= 0.0 && fob >= 0.0 && fim >= 0.0 && fib >= 0.0;
                for (c, x) in comps.iter_mut().zip([fom, fob, fim, fib]) {
                    c.push(x);
                }
                peer.push(q.peer as u32);
            }
            row_ptr.push(peer.len() as u32);
        }
        (
            row_ptr,
            peer,
            comps.map(|c| c.iter().map(|x| x.to_bits()).collect()),
            nonneg,
        )
    }

    /// A random pattern with repeated rows, one-way edges, fractional
    /// traffic and isolated ranks (those at or past `active`).
    fn random_pattern(n: usize, seed: u64) -> commgraph::CommPattern {
        use rand::{rngs::StdRng, RngExt, SeedableRng};
        let mut rng = StdRng::seed_from_u64(seed);
        let active = rng.random_range(1..=n);
        let mut b = commgraph::pattern::PatternBuilder::new(n);
        let mut last = (0, 0);
        for _ in 0..rng.random_range(0..4 * n) {
            if !rng.random_bool(0.3) {
                last = (rng.random_range(0..active), rng.random_range(0..active));
            }
            if rng.random_bool(0.5) {
                b.record_many(
                    last.0,
                    last.1,
                    rng.random_range(0..100_000),
                    rng.random_range(1..4),
                );
            } else {
                b.record_weighted(
                    last.0,
                    last.1,
                    rng.random_range(0.0..1e3),
                    rng.random_range(0.1..3.0),
                );
            }
        }
        b.build()
    }

    #[test]
    fn build_matches_the_binary_search_construction_bitwise() {
        for seed in 0..60 {
            let net = presets::paper_ec2_network(2, InstanceType::M4Xlarge, seed);
            let p = MappingProblem::unconstrained(random_pattern(8, seed), net);
            for model in [
                CostModel::Full,
                CostModel::LatencyOnly,
                CostModel::BandwidthOnly,
            ] {
                assert_eq!(
                    table_bits(&CostTables::build(&p, model)),
                    binary_search_tables(&p, model),
                    "seed {seed}, {model:?}"
                );
            }
        }
    }

    #[test]
    fn build_from_pattern_matches_problem_build() {
        let problems = [problem(48, 41)].into_iter().chain((0..20).map(|seed| {
            let net = presets::paper_ec2_network(4, InstanceType::M4Xlarge, seed);
            MappingProblem::unconstrained(random_pattern(16, seed), net)
        }));
        for p in problems {
            for model in [
                CostModel::Full,
                CostModel::LatencyOnly,
                CostModel::BandwidthOnly,
            ] {
                let via_problem = CostTables::build(&p, model);
                let direct = CostTables::build_from_pattern(p.pattern(), p.network(), model);
                assert_eq!(direct.n, via_problem.n);
                assert_eq!(direct.m, via_problem.m);
                assert_eq!(table_bits(&direct), table_bits(&via_problem), "{model:?}");
                let net_bits = |t: &CostTables| {
                    t.lt.iter()
                        .chain(&t.inv_bt)
                        .map(|x| x.to_bits())
                        .collect::<Vec<_>>()
                };
                assert_eq!(net_bits(&direct), net_bits(&via_problem));
            }
        }
    }

    #[test]
    fn build_from_pattern_rejects_non_finite_network() {
        use geonet::{GeoCoord, Site, SiteNetwork, SquareMatrix};
        let pat = {
            let mut b = commgraph::pattern::PatternBuilder::new(2);
            b.record_many(0, 1, 1000, 1);
            b.build()
        };
        let sites = vec![
            Site::new("a", GeoCoord::new(0.0, 0.0), 2),
            Site::new("b", GeoCoord::new(1.0, 0.0), 2),
        ];
        // Same denormal-bandwidth poison as the try_build test: passes
        // the network's own gate, overflows the folded 1/BT.
        let lt = SquareMatrix::from_fn(2, |_, _| 0.1);
        let bt = SquareMatrix::from_fn(2, |k, l| if k == 0 && l == 1 { 5e-324 } else { 1e9 });
        let net = SiteNetwork::new(sites, lt, bt);
        match CostTables::try_build_from_pattern(&pat, &net, CostModel::Full) {
            Err(CostTablesError::NonFiniteNetwork { .. }) => {}
            other => panic!("expected NonFiniteNetwork, got {other:?}"),
        }
    }

    #[test]
    fn tables_total_matches_cost_with_model() {
        let p = problem(24, 3);
        let sites = round_robin(24, p.num_sites());
        let mapping = Mapping::new(sites.clone());
        for model in [
            CostModel::Full,
            CostModel::LatencyOnly,
            CostModel::BandwidthOnly,
        ] {
            let t = CostTables::build(&p, model);
            let reference = cost_with_model(&p, &mapping, model);
            let flat = t.total(&sites);
            assert!(
                (flat - reference).abs() <= 1e-9 * reference.max(1.0),
                "{model:?}: flat {flat} vs reference {reference}"
            );
        }
    }

    #[test]
    fn swap_delta_matches_brute_force_for_both_engines() {
        let p = problem(16, 5);
        let t = CostTables::build(&p, CostModel::Full);
        let sites = round_robin(16, p.num_sites());
        for evaluation in [Evaluation::Incremental, Evaluation::FullRecompute] {
            let eval = evaluation.evaluator(&t, sites.clone());
            for a in 0..16 {
                for b in a..16 {
                    let d = eval.swap_delta(a, b);
                    let mut swapped = sites.clone();
                    swapped.swap(a, b);
                    let brute = t.total(&swapped) - t.total(&sites);
                    assert!(
                        (d - brute).abs() <= 1e-9 * t.total(&sites).max(1.0),
                        "{evaluation:?} swap ({a},{b}): {d} vs {brute}"
                    );
                }
            }
        }
    }

    #[test]
    fn move_delta_matches_brute_force_for_both_engines() {
        let p = problem(16, 7);
        let t = CostTables::build(&p, CostModel::Full);
        let sites = round_robin(16, p.num_sites());
        for evaluation in [Evaluation::Incremental, Evaluation::FullRecompute] {
            let eval = evaluation.evaluator(&t, sites.clone());
            for i in 0..16 {
                for s in 0..p.num_sites() {
                    let d = eval.move_delta(i, SiteId(s));
                    let mut moved = sites.clone();
                    moved[i] = SiteId(s);
                    let brute = t.total(&moved) - t.total(&sites);
                    assert!(
                        (d - brute).abs() <= 1e-9 * t.total(&sites).max(1.0),
                        "{evaluation:?} move ({i}→{s}): {d} vs {brute}"
                    );
                }
            }
        }
    }

    #[test]
    fn new_matches_the_tables_bitwise() {
        let p = problem(32, 9);
        let t = CostTables::build(&p, CostModel::Full);
        let sites = round_robin(32, p.num_sites());
        let eval = CostEvaluator::new(&t, sites.clone());
        assert_eq!(eval.total.to_bits(), t.total(&sites).to_bits());
        for i in 0..32 {
            assert_eq!(
                eval.incident[i].to_bits(),
                t.incident(&sites, i).to_bits(),
                "incident[{i}]"
            );
        }
    }

    #[test]
    fn apply_updates_total_with_the_callers_delta() {
        let p = problem(16, 9);
        let t = CostTables::build(&p, CostModel::Full);
        let mut eval = CostEvaluator::new(&t, round_robin(16, p.num_sites()));
        for (a, b) in [(0, 5), (7, 12), (4, 4)] {
            let (before, d) = (eval.total(), eval.swap_delta(a, b));
            eval.apply_swap(a, b, d);
            assert_eq!(eval.total().to_bits(), (before + d).to_bits());
        }
        let (before, d) = (eval.total(), eval.move_delta(3, SiteId(2)));
        eval.apply_move(3, SiteId(2), d);
        assert_eq!(eval.total().to_bits(), (before + d).to_bits());
        // Totals track the applied deltas against brute force.
        let brute = t.total(eval.sites());
        assert!((eval.total() - brute).abs() <= 1e-9 * brute.max(1.0));
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "is not the swap's delta")]
    fn apply_rejects_a_stale_delta_in_debug_builds() {
        let p = problem(16, 9);
        let t = CostTables::build(&p, CostModel::Full);
        let mut eval = CostEvaluator::new(&t, round_robin(16, p.num_sites()));
        let d = eval.swap_delta(0, 5);
        eval.apply_swap(0, 5, d.next_up());
    }

    #[test]
    fn incident_caches_stay_exact_after_many_applies() {
        let p = problem(20, 11);
        let t = CostTables::build(&p, CostModel::Full);
        let mut eval = CostEvaluator::new(&t, round_robin(20, p.num_sites()));
        let ops = [(0usize, 7usize), (3, 12), (1, 19), (5, 9), (0, 3), (14, 2)];
        for &(a, b) in &ops {
            let d = eval.swap_delta(a, b);
            eval.apply_swap(a, b, d);
            for i in 0..20 {
                let fresh = t.incident(eval.sites(), i);
                assert!(
                    (eval.incident[i] - fresh).abs() <= 1e-9 * fresh.abs().max(1.0),
                    "incident[{i}] drifted after swap ({a},{b})"
                );
            }
        }
    }

    #[test]
    fn polish_never_increases_cost_and_reaches_local_optimum() {
        let p = problem(32, 13);
        let mut m = Mapping::new(round_robin(32, p.num_sites()));
        let before = cost(&p, &m);
        let t = CostTables::build(&p, CostModel::Full);
        let stats = polish(
            &t,
            Evaluation::Incremental,
            &mut m,
            50,
            &|_| true,
            &|_, _| true,
            TraceScope::off(),
        );
        let after = cost(&p, &m);
        assert!(stats.swaps_accepted > 0, "round-robin should be improvable");
        assert!(after < before);
        // No improving swap may remain at the shared threshold.
        let eval = CostEvaluator::new(&t, m.as_slice().to_vec());
        for a in 0..32 {
            for b in (a + 1)..32 {
                assert!(
                    eval.swap_delta(a, b) >= -1e-9,
                    "improving swap ({a},{b}) remains"
                );
            }
        }
    }

    #[test]
    fn best_improving_swap_is_deterministic_and_lexicographic() {
        let p = problem(24, 17);
        let t = CostTables::build(&p, CostModel::Full);
        let movable: Vec<usize> = (0..24).collect();
        let eval = CostEvaluator::new(&t, round_robin(24, p.num_sites()));
        let expected = {
            // Sequential reference scan of the tie-band rule: find the
            // minimum Δ, then the lexicographically first pair within
            // the band of it.
            let mut min = f64::INFINITY;
            for a in 0..24usize {
                for b in (a + 1)..24 {
                    let d = eval.swap_delta(a, b);
                    if d < -1e-15 {
                        min = min.min(d);
                    }
                }
            }
            let band = min + 1e-12 * eval.total().abs().max(1.0);
            let mut first: Option<(usize, usize)> = None;
            'outer: for a in 0..24usize {
                for b in (a + 1)..24 {
                    let d = eval.swap_delta(a, b);
                    if d < -1e-15 && d <= band {
                        first = Some((a, b));
                        break 'outer;
                    }
                }
            }
            first
        };
        assert!(
            expected.is_some(),
            "round-robin start should have an improving swap"
        );
        let (got, _) = best_improving_swap(&eval, &movable, -1e-15);
        assert_eq!(got.map(|(a, b, _)| (a, b)), expected);
    }

    #[test]
    fn term_counters_reflect_work_asymmetry() {
        let p = problem(64, 19);
        let t = CostTables::build(&p, CostModel::Full);
        let sites = round_robin(64, p.num_sites());
        let inc = CostEvaluator::new(&t, sites.clone());
        let full = FullRecomputeEval::new(&t, sites);
        let (i0, f0) = (inc.terms(), full.terms());
        for a in 0..64 {
            for b in (a + 1)..64 {
                inc.swap_delta(a, b);
                full.swap_delta(a, b);
            }
        }
        let (di, df) = (inc.terms() - i0, full.terms() - f0);
        assert!(
            df >= 10 * di,
            "full recompute should cost ≥10× more terms: incremental {di}, full {df}"
        );
    }

    #[test]
    fn counted_swap_matches_plain_and_counts_all_pairs() {
        let p = problem(24, 21);
        let t = CostTables::build(&p, CostModel::Full);
        let movable: Vec<usize> = (0..24).collect();
        let eval = CostEvaluator::new(&t, round_robin(24, p.num_sites()));
        let (first, evaluated) = best_improving_swap(&eval, &movable, -1e-15);
        let (again, recount) = best_improving_swap(&eval, &movable, -1e-15);
        assert!(
            first.is_some(),
            "round-robin start should have an improving swap"
        );
        assert_eq!((first, evaluated), (again, recount));
        // One full scan visits all C(24,2) pairs; the tie-band re-scan
        // can only add.
        assert!(evaluated >= 24 * 23 / 2, "evaluated {evaluated}");
    }

    #[test]
    fn search_stats_are_internally_consistent() {
        let p = problem(32, 23);
        let mut m = Mapping::new(round_robin(32, p.num_sites()));
        let stats = polish(
            &CostTables::build(&p, CostModel::Full),
            Evaluation::Incremental,
            &mut m,
            50,
            &|_| true,
            &|_, _| true,
            TraceScope::off(),
        );
        assert!(stats.passes >= 1);
        assert!(stats.swaps_accepted > 0, "round-robin should improve");
        assert!(
            stats.swaps_accepted <= stats.swaps_evaluated,
            "accepted {} > evaluated {}",
            stats.swaps_accepted,
            stats.swaps_evaluated
        );
        // The last pass finds nothing, so at least two passes ran.
        assert!(stats.passes >= 2);
        assert!(stats.terms > 0, "evaluator term count must be captured");
    }

    #[test]
    fn stats_terms_match_an_independent_evaluator_run() {
        // Replay the exact climb on a hand-held evaluator: the stats'
        // term counter must equal CostEval::terms of that evaluator.
        let p = problem(24, 29);
        let t = CostTables::build(&p, CostModel::Full);
        let start = round_robin(24, p.num_sites());
        let mut m = Mapping::new(start.clone());
        let stats = polish(
            &t,
            Evaluation::Incremental,
            &mut m,
            50,
            &|_| true,
            &|_, _| true,
            TraceScope::off(),
        );
        let mut replay = CostEvaluator::new(&t, start);
        let swaps = SwapScope::new(24, |_| true, &|_, _| true);
        let mut climb = Climb::new(&mut replay, TraceScope::off());
        for _ in 0..50 {
            if !climb.first_sweep(&swaps) {
                break;
            }
        }
        let replay_stats = climb.finish();
        assert_eq!(stats.swaps_accepted, replay_stats.swaps_accepted);
        assert_eq!(stats.swaps_evaluated, replay_stats.swaps_evaluated);
        assert_eq!(stats.terms, replay.terms());
    }

    #[test]
    fn search_stats_absorb_adds_fieldwise() {
        let mut a = SearchStats {
            passes: 1,
            swaps_evaluated: 10,
            swaps_accepted: 2,
            moves_accepted: 4,
            restarts: 1,
            terms: 100,
        };
        let b = SearchStats {
            passes: 2,
            swaps_evaluated: 5,
            swaps_accepted: 1,
            moves_accepted: 0,
            restarts: 0,
            terms: 50,
        };
        a.absorb(b);
        assert_eq!(
            a,
            SearchStats {
                passes: 3,
                swaps_evaluated: 15,
                swaps_accepted: 3,
                moves_accepted: 4,
                restarts: 1,
                terms: 150,
            }
        );
    }

    #[test]
    #[should_panic(expected = "non-finite")]
    fn non_finite_communication_rejected_at_table_build() {
        // An infinite byte volume passes CommPattern's `v >= 0` check but
        // must be rejected once, at CostTables build time, with a
        // descriptive error instead of poisoning every comparator
        // downstream.
        let n = 4;
        let mut cg = geonet::SquareMatrix::zeros(n);
        let mut ag = geonet::SquareMatrix::zeros(n);
        cg.set(0, 1, f64::INFINITY);
        ag.set(0, 1, 1.0);
        cg.set(1, 0, 10.0);
        ag.set(1, 0, 1.0);
        let pat = commgraph::CommPattern::from_dense(&cg, &ag);
        let net = presets::paper_ec2_network(2, InstanceType::M4Xlarge, 1);
        let p = MappingProblem::unconstrained(pat, net);
        CostTables::build(&p, CostModel::Full);
    }
}

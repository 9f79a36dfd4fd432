//! The SC'17 geo-distributed process-mapping contribution.
//!
//! This crate implements the paper's core: the constrained-optimization
//! formulation of geo-distributed process mapping (§3) and the
//! Geo-distributed mapping algorithm (§4, Algorithm 1).
//!
//! * [`problem::MappingProblem`] — `N` processes with a communication
//!   pattern (`CG`/`AG`), `M` sites with `LT`/`BT` matrices and node
//!   capacities `I`, and a data-movement [`constraint::ConstraintVector`]
//!   `C` pinning some processes to sites.
//! * [`mapping::Mapping`] — the decision vector `P` (process → site) with
//!   feasibility checking against both constraints (Eq. 5's
//!   `(P − C) ∘ C = 0`) and capacities (`count(j, P) ≤ I_j`).
//! * [`cost`](mod@cost) — the α–β cost function of Eq. 3:
//!   `Σ_{i,j} AG(i,j)·LT(P_i,P_j) + CG(i,j)/BT(P_i,P_j)`.
//! * [`delta`] — the incremental Δ-cost engine: flat [`delta::CostTables`]
//!   plus cached evaluators answering swap/move deltas in `O(deg)`, with
//!   a full-recompute oracle behind the same trait.
//! * [`search`] — the one local-search driver, [`search::Climb`], that
//!   every mapper's refinement and the remap repair run on.
//! * [`grouping`] — the K-means grouping optimization over site
//!   coordinates that bounds the order search to `O(κ!)`.
//! * [`geo`] — Algorithm 1: for every order of the groups, greedily seed
//!   each site with the heaviest-communicating unmapped process and pack
//!   the site with its heaviest partners; keep the cheapest order.
//! * [`pipeline`] — the end-to-end flow of Fig. 2: application profiling
//!   → network calibration → grouping → mapping optimization.
//! * [`multilevel`] — the coarsen–map–refine solver for 100k+ ranks:
//!   heavy-edge matching contracts the commgraph level by level, the
//!   coarsest graph goes to the direct solver, and the Δ-cost engine
//!   refines each projection on the way back down.
//! * [`remap`] — online repair under churn: bounded-migration local
//!   search from the current (drifted) mapping, minimizing
//!   `Eq3 + α·moved_ranks` on the Δ-cost engine.

#![warn(missing_docs)]

pub mod constraint;
pub mod cost;
pub mod delta;
pub mod geo;
pub mod grouping;
pub mod mapping;
pub mod metrics;
pub mod multilevel;
pub mod multisite;
pub mod pipeline;
pub mod problem;
pub mod remap;
pub mod search;
pub mod trace;

pub use constraint::ConstraintVector;
pub use cost::{cost, cost_with_model, model_components, pair_cost, CostModel};
pub use delta::{
    Candidates, CostEval, CostEvaluator, CostTables, CostTablesError, Evaluation,
    FullRecomputeEval, ProcessSet, SwapScope,
};
pub use geo::{GeoMapper, OrderSearch, Seeding};
pub use grouping::group_sites;
pub use mapping::Mapping;
pub use metrics::{
    JsonLinesSink, MemorySink, MetricKind, MetricRecord, Metrics, MetricsSink, NullSink,
};
pub use multilevel::{Hierarchy, Level, MultilevelConfig, MultilevelMapper};
pub use multisite::AllowedSites;
pub use problem::MappingProblem;
pub use remap::{cold_resolve, repair, repair_with_tables, RemapConfig, RemapOutcome};
pub use search::{polish, Climb, SearchStats};
pub use trace::{
    NullTraceSink, RingBufferSink, StreamingSink, Trace, TraceEvent, TraceEventKind, TraceScope,
    TraceSink, TraceTrack, TrackId,
};

/// A process-mapping algorithm: produces a feasible [`Mapping`] for a
/// [`MappingProblem`]. Implemented by [`GeoMapper`] here and by the
/// baselines crate (Random, Greedy, MPIPP, exhaustive, Monte Carlo).
pub trait Mapper {
    /// Display name as used in the paper's figures.
    fn name(&self) -> &'static str;

    /// Compute a mapping. Implementations must return a feasible mapping
    /// (constraints honoured, capacities respected) for any valid
    /// problem.
    fn map(&self, problem: &MappingProblem) -> Mapping;
}

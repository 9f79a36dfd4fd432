//! End-to-end observability: one enabled [`Metrics`] handle on the
//! pipeline must yield populated, mutually consistent phase timers and
//! search counters — and must not change any mapping decision. One
//! fixed solve pins the counters to exact values.

use commgraph::apps::AppKind;
use geomap_core::pipeline::{run, PipelineConfig};
use geomap_core::{
    ConstraintVector, GeoMapper, Mapper, MappingProblem, MemorySink, Metrics, MultilevelConfig,
    MultilevelMapper,
};
use geonet::{presets, InstanceType};
use std::sync::Arc;

fn run_with_sink() -> (Arc<MemorySink>, geomap_core::Mapping) {
    let truth = presets::paper_ec2_network(8, InstanceType::M4Xlarge, 7);
    let program = AppKind::Lu.workload(32).program();
    let sink = Arc::new(MemorySink::new());
    let config = PipelineConfig {
        metrics: Metrics::new(sink.clone()),
        ..PipelineConfig::default()
    };
    let result = run(&program, &truth, ConstraintVector::none(32), &config);
    (sink, result.mapping)
}

#[test]
fn pipeline_phases_are_all_timed() {
    let (sink, _) = run_with_sink();
    for phase in ["phase.profiling", "phase.calibration", "phase.optimization"] {
        assert!(sink.has("pipeline", phase), "missing pipeline {phase}");
    }
    // The mapper inherited the pipeline's handle: Algorithm 1's own
    // phases land under the mapper's scope.
    for phase in [
        "phase.grouping",
        "phase.order_search",
        "phase.packing",
        "phase.refinement",
    ] {
        assert!(sink.has("Geo-distributed", phase), "missing mapper {phase}");
    }
    // Phase nesting: the optimization wall time must cover the mapper's
    // wall-clock phases it contains (grouping + order search +
    // refinement; packing is CPU time inside order_search and may
    // exceed wall time on the rayon pool).
    let optimization = sink.sum("pipeline", "phase.optimization");
    let inner = sink.sum("Geo-distributed", "phase.grouping")
        + sink.sum("Geo-distributed", "phase.order_search")
        + sink.sum("Geo-distributed", "phase.refinement");
    assert!(
        inner <= optimization * 1.05 + 0.005,
        "inner phases ({inner:.6}s) exceed the optimization wall ({optimization:.6}s)"
    );
}

#[test]
fn search_counters_are_populated_and_consistent() {
    let (sink, _) = run_with_sink();
    let evaluated = sink.sum("Geo-distributed", "search.swaps_evaluated");
    let accepted = sink.sum("Geo-distributed", "search.swaps_accepted");
    let terms = sink.sum("Geo-distributed", "search.terms");
    let orders = sink.sum("Geo-distributed", "search.orders_evaluated");
    let groups = sink.sum("Geo-distributed", "search.groups");
    let restarts = sink.sum("Geo-distributed", "search.restarts");
    let passes = sink.sum("Geo-distributed", "search.passes");
    assert!(orders >= 1.0, "orders_evaluated {orders}");
    assert!(groups >= 1.0, "groups {groups}");
    assert!(evaluated > 0.0, "swaps_evaluated {evaluated}");
    assert!(
        accepted <= evaluated,
        "accepted {accepted} > evaluated {evaluated}"
    );
    assert!(restarts >= 1.0, "refinement multi-starts {restarts}");
    // Every restart runs at least one sweep.
    assert!(passes >= restarts, "passes {passes} < restarts {restarts}");
    // Each candidate Δ touches at least one α–β term, and the evaluator
    // construction contributes on top.
    assert!(terms >= evaluated, "terms {terms} < evaluated {evaluated}");
}

#[test]
fn instrumentation_never_changes_the_mapping() {
    let (_, instrumented) = run_with_sink();
    let truth = presets::paper_ec2_network(8, InstanceType::M4Xlarge, 7);
    let program = AppKind::Lu.workload(32).program();
    let plain = run(
        &program,
        &truth,
        ConstraintVector::none(32),
        &PipelineConfig::default(),
    );
    assert_eq!(instrumented, plain.mapping);
}

/// The solve behind [`geo_kmeans_128_search_counters_are_pinned`] and
/// its single-site twin: `GeoMapper` on `app` with `n` ranks over the
/// 4-region EC2 preset (`nodes` per region, the ground-truth network,
/// no calibration), `pinned` of the ranks pinned. Returns the summed
/// counter lookup.
fn geo_counters(app: AppKind, n: usize, nodes: usize, pinned: f64) -> impl Fn(&str) -> u64 {
    let net = presets::paper_ec2_network(nodes, InstanceType::M4Xlarge, 1);
    let pins = if pinned > 0.0 {
        ConstraintVector::random(n, pinned, &net.capacities(), 3)
    } else {
        ConstraintVector::none(n)
    };
    let problem = MappingProblem::new(app.workload(n).pattern(), net, pins);
    let sink = Arc::new(MemorySink::new());
    GeoMapper {
        metrics: Metrics::new(sink.clone()),
        ..GeoMapper::default()
    }
    .map(&problem);
    move |name: &str| sink.sum("Geo-distributed", name) as u64
}

/// Exact search counters of one fixed solve: K-means N=128 on 4×32
/// nodes, 20 % pinned. `passes`, `swaps_evaluated` and `swaps_accepted`
/// pin the climb's trajectory to the unscreened engine's; `terms` pins
/// the evaluator's work, so a screen or bucket bound that stops pruning
/// fails here. Unscreened, the same solve counted 88 635 836, and
/// 3 063 016 with the pair screen alone; both figures date from when
/// each apply recomputed its Δ, which cost 126 956 terms here.
#[test]
fn geo_kmeans_128_search_counters_are_pinned() {
    let counter = geo_counters(AppKind::KMeans, 128, 32, 0.2);
    assert_eq!(counter("search.passes"), 88);
    assert_eq!(counter("search.swaps_evaluated"), 342_858);
    assert_eq!(counter("search.swaps_accepted"), 500);
    assert_eq!(counter("search.terms"), 1_835_686);
    // No two of the 24 orders share a packing prefix.
    assert_eq!(counter("search.orders_evaluated"), 24);
    assert_eq!(counter("search.packings"), 24);
}

/// LU N=64 on 4×64 nodes fits one site, so each of the 24 orders packs
/// only its first group: the orders fall into 4 prefix classes, one
/// packing and one polish each. Every candidate swap is a same-site
/// no-op, so each polish runs one pass that evaluates nothing, and the
/// evaluators count only their construction (3 terms per CSR entry:
/// 4 × 3 × 480).
#[test]
fn single_site_lu_64_does_no_pair_work() {
    let counter = geo_counters(AppKind::Lu, 64, 64, 0.0);
    assert_eq!(counter("search.orders_evaluated"), 24);
    assert_eq!(counter("search.packings"), 4);
    assert_eq!(counter("search.passes"), 4);
    assert_eq!(counter("search.swaps_evaluated"), 0);
    assert_eq!(counter("search.swaps_accepted"), 0);
    assert_eq!(counter("search.terms"), 5_760);
}

/// The multilevel solver's own refinement work lands under its
/// `multilevel` scope: K-means N=256 on 4×64 nodes, coarsened to at
/// most 32 vertices. Its refiner runs both the exhaustive best-swap
/// scan and the partner-edge sweep; every site is full, so the move
/// pass finds no room. The inner solver's metrics are off, so no
/// `Geo-distributed` counter appears; the `multilevel` counters are the
/// uncoarsening refiner's swap work and the α–β terms of its evaluators.
#[test]
fn multilevel_refine_counters_are_pinned() {
    let net = presets::paper_ec2_network(64, InstanceType::M4Xlarge, 1);
    let problem = MappingProblem::unconstrained(AppKind::KMeans.workload(256).pattern(), net);
    let sink = Arc::new(MemorySink::new());
    MultilevelMapper {
        config: MultilevelConfig {
            coarsen_cutoff: 32,
            ..MultilevelConfig::default()
        },
        metrics: Metrics::new(sink.clone()),
        ..MultilevelMapper::default()
    }
    .map(&problem);
    let counter = |name: &str| sink.sum("multilevel", name) as u64;
    assert_eq!(counter("levels"), 3);
    assert_eq!(counter("search.passes"), 9);
    assert_eq!(counter("search.swaps_evaluated"), 69_959);
    assert_eq!(counter("search.swaps_accepted"), 45);
    assert_eq!(counter("search.restarts"), 0);
    assert_eq!(counter("search.terms"), 339_122);
    assert!(!sink.has("Geo-distributed", "search.terms"));
}

/// A multilevel solve whose refiner takes every branch: DNN N=256 on
/// 4×72 nodes, coarsened to at most 32 vertices. Its weight classes
/// range from 2 to 256 members, so both the exhaustive best-swap scan
/// (64 members or fewer) and the partner-edge sweep run, and the spare
/// room lets the move pass relocate vertices. The cost bits pin the
/// mapping.
#[test]
fn multilevel_refine_with_moves_is_pinned() {
    let net = presets::paper_ec2_network(72, InstanceType::M4Xlarge, 1);
    let problem = MappingProblem::unconstrained(AppKind::Dnn.workload(256).pattern(), net);
    let sink = Arc::new(MemorySink::new());
    let mapping = MultilevelMapper {
        config: MultilevelConfig {
            coarsen_cutoff: 32,
            ..MultilevelConfig::default()
        },
        metrics: Metrics::new(sink.clone()),
        ..MultilevelMapper::default()
    }
    .map(&problem);
    let counter = |name: &str| sink.sum("multilevel", name) as u64;
    assert_eq!(counter("levels"), 4);
    assert_eq!(counter("search.passes"), 26);
    assert_eq!(counter("search.swaps_evaluated"), 74_617);
    assert_eq!(counter("search.swaps_accepted"), 20);
    assert_eq!(counter("search.terms"), 114_112);
    let cost = geomap_core::cost(&problem, &mapping);
    assert_eq!(cost.to_bits(), 0x4064_ead7_ec10_7c78);
}

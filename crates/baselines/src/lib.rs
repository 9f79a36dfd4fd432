//! Baseline process-mapping algorithms (paper §5.1, "Comparisons").
//!
//! * [`RandomMapper`] — the paper's **Baseline**: uniformly random
//!   feasible mapping, "running directly in the geo-distributed data
//!   centers without any optimization".
//! * [`GreedyMapper`] — **Greedy**, Hoefler & Snir's generic topology-
//!   mapping heuristic for heterogeneous networks (ICS'11): bandwidth-
//!   driven greedy growth from the heaviest task.
//! * [`MpippMapper`] — **MPIPP** (Chen et al., ICS'06): randomized
//!   pairwise-exchange local search with restarts.
//! * [`ExhaustiveMapper`] — brute-force optimum for tiny instances; the
//!   oracle the tests compare heuristics against.
//! * [`MonteCarlo`] — best-of-K random sampling and cost-distribution
//!   sampling for the paper's Figs. 9 and 10.
//!
//! Every mapper honours data-movement constraints and site capacities.

#![warn(missing_docs)]

mod exhaustive;
mod greedy;
mod monte_carlo;
mod mpipp;
mod random;

pub use exhaustive::ExhaustiveMapper;
pub use greedy::GreedyMapper;
pub use monte_carlo::MonteCarlo;
pub use mpipp::MpippMapper;
pub use random::{random_mapping, RandomMapper};

use geomap_core::{GeoMapper, Mapper, MappingProblem, Metrics, MultilevelConfig, MultilevelMapper};

/// The paper's three comparison mappers plus the proposed one, in figure
/// order: Greedy, MPIPP, Geo-distributed. Every mapper is wired to
/// `metrics` and scopes itself under its own name, so one handle yields
/// a comparable set of per-mapper search statistics; with a trace
/// attached, each mapper records its search phases on its own
/// `"search"` track, so one trace file shows the three algorithms'
/// timelines side by side.
pub fn paper_mappers(seed: u64, metrics: &Metrics) -> Vec<Box<dyn Mapper + Sync>> {
    vec![
        Box::new(GreedyMapper {
            metrics: metrics.clone(),
        }),
        Box::new(MpippMapper {
            metrics: metrics.clone(),
            ..MpippMapper::with_seed(seed)
        }),
        Box::new(GeoMapper {
            seed,
            metrics: metrics.clone(),
            ..GeoMapper::default()
        }),
    ]
}

/// Every algorithm name [`mapper_for`] knows, in the order its error
/// message lists them.
pub const ALGORITHMS: [&str; 6] = [
    "geo",
    "greedy",
    "mpipp",
    "random",
    "montecarlo",
    "multilevel",
];

/// The knobs [`mapper_for`] reads besides the algorithm name. There is
/// no `Default`: each caller (the CLI, the daemon) keeps its own.
#[derive(Debug, Clone)]
pub struct MapperSpec {
    /// Seed of every randomized choice.
    pub seed: u64,
    /// Site groups `κ` of the Geo mapper (also multilevel's inner one).
    pub kappa: usize,
    /// Draws of the Monte Carlo mapper.
    pub samples: usize,
    /// Coarsening and refinement of the multilevel mapper.
    pub multilevel: MultilevelConfig,
    /// Observability handle every instrumented mapper carries.
    pub metrics: Metrics,
}

/// Build the mapper an algorithm name selects — the one name → mapper
/// table behind `geomap map --algorithm` and the daemon's `algorithm`
/// field. An unknown name is an error that lists [`ALGORITHMS`].
pub fn mapper_for(algorithm: &str, spec: &MapperSpec) -> Result<Box<dyn Mapper + Sync>, String> {
    let metrics = spec.metrics.clone();
    let geo = || GeoMapper {
        seed: spec.seed,
        kappa: spec.kappa,
        metrics: metrics.clone(),
        ..GeoMapper::default()
    };
    Ok(match algorithm {
        "geo" => Box::new(geo()),
        "greedy" => Box::new(GreedyMapper { metrics }),
        "mpipp" => Box::new(MpippMapper {
            metrics,
            ..MpippMapper::with_seed(spec.seed)
        }),
        "random" => Box::new(RandomMapper::with_seed(spec.seed)),
        "montecarlo" => Box::new(MonteCarlo {
            metrics,
            ..MonteCarlo::new(spec.samples, spec.seed)
        }),
        "multilevel" => Box::new(MultilevelMapper {
            config: spec.multilevel,
            inner: geo(),
            metrics,
        }),
        other => {
            return Err(format!(
                "unknown algorithm {other:?} ({})",
                ALGORITHMS.join("|")
            ))
        }
    })
}

/// Mean cost of `samples` Baseline (random) mappings — the normalization
/// denominator of Figs. 5–7 ("normalized to the average of Baseline").
pub fn baseline_mean_cost(problem: &MappingProblem, samples: usize, seed: u64) -> f64 {
    assert!(samples > 0, "need at least one sample");
    let total: f64 = (0..samples)
        .map(|i| {
            let m = RandomMapper::with_seed(seed.wrapping_add(i as u64)).map(problem);
            geomap_core::cost(problem, &m)
        })
        .sum();
    total / samples as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use commgraph::apps::{RandomGraph, Workload};
    use geomap_core::{cost, MemorySink, RingBufferSink, Trace, TraceEventKind};
    use geonet::{presets, InstanceType};
    use std::sync::Arc;

    fn problem() -> MappingProblem {
        let net = presets::paper_ec2_network(8, InstanceType::M4Xlarge, 1);
        let pat = RandomGraph {
            n: 32,
            degree: 4,
            max_bytes: 500_000,
            seed: 2,
        }
        .pattern();
        MappingProblem::unconstrained(pat, net)
    }

    #[test]
    fn paper_mappers_are_three_and_feasible() {
        let p = problem();
        let mappers = paper_mappers(1, &Metrics::off());
        assert_eq!(mappers.len(), 3);
        assert_eq!(mappers[0].name(), "Greedy");
        assert_eq!(mappers[1].name(), "MPIPP");
        assert_eq!(mappers[2].name(), "Geo-distributed");
        for m in &mappers {
            m.map(&p).validate(&p).unwrap();
        }
    }

    /// Every span opened on a track of `ring` is closed on it.
    fn assert_balanced(ring: &RingBufferSink, label: &str) {
        assert_eq!(ring.dropped(), 0, "{label}: the ring overflowed");
        let events = ring.snapshot();
        for t in ring.tracks() {
            let mut depth = 0i64;
            for e in events.iter().filter(|e| e.track == t.id) {
                match e.kind {
                    TraceEventKind::SpanBegin => depth += 1,
                    TraceEventKind::SpanEnd => depth -= 1,
                    _ => {}
                }
                assert!(depth >= 0, "{label}: E before B on {}", t.name);
            }
            assert_eq!(depth, 0, "{label}: unclosed span on {}", t.name);
        }
    }

    #[test]
    fn traced_mappers_match_untraced_and_cover_search_tracks() {
        let p = problem();
        let sink = Arc::new(RingBufferSink::new(1 << 16));
        let traced = paper_mappers(1, &Metrics::off().with_trace(Trace::new(sink.clone())));
        let plain = paper_mappers(1, &Metrics::off());
        for (t, u) in traced.iter().zip(&plain) {
            assert_eq!(
                t.map(&p),
                u.map(&p),
                "{}: tracing changed the result",
                t.name()
            );
        }
        let tracks = sink.tracks();
        for name in ["Greedy", "MPIPP", "Geo-distributed"] {
            assert!(
                tracks
                    .iter()
                    .any(|t| t.process == "search" && t.name == name),
                "missing search track for {name}"
            );
        }
        let events = sink.snapshot();
        assert!(events
            .iter()
            .any(|e| e.kind == TraceEventKind::SpanBegin && e.name == "pass"));
        assert!(events
            .iter()
            .any(|e| e.kind == TraceEventKind::Instant && e.name == "swap"));
        assert_balanced(&sink, "paper mappers");
    }

    #[test]
    fn every_factory_mapper_is_bit_identical_under_every_handle() {
        let p = problem();
        let spec = |metrics: Metrics| MapperSpec {
            seed: 5,
            kappa: 4,
            samples: 200,
            multilevel: MultilevelConfig {
                coarsen_cutoff: 8,
                ..MultilevelConfig::default()
            },
            metrics,
        };
        for algorithm in ALGORITHMS {
            let build = |m: Metrics| mapper_for(algorithm, &spec(m)).unwrap();
            let reference = build(Metrics::off()).map(&p);
            reference.validate(&p).unwrap();
            let sink = || Metrics::new(Arc::new(MemorySink::new()));
            let (traced, both) = (
                Arc::new(RingBufferSink::new(1 << 16)),
                Arc::new(RingBufferSink::new(1 << 16)),
            );
            let settings = [
                ("metrics", sink(), None),
                (
                    "trace",
                    Metrics::off().with_trace(Trace::new(traced.clone())),
                    Some(traced),
                ),
                (
                    "both",
                    sink().with_trace(Trace::new(both.clone())),
                    Some(both),
                ),
            ];
            for (setting, metrics, ring) in settings {
                let label = format!("{algorithm} with {setting}");
                assert_eq!(build(metrics).map(&p), reference, "{label}");
                if let Some(ring) = ring {
                    assert_balanced(&ring, &label);
                }
            }
        }
    }

    #[test]
    fn unknown_algorithm_lists_every_known_one() {
        let spec = MapperSpec {
            seed: 1,
            kappa: 4,
            samples: 1,
            multilevel: MultilevelConfig::default(),
            metrics: Metrics::off(),
        };
        assert_eq!(
            mapper_for("quantum", &spec).err().unwrap(),
            "unknown algorithm \"quantum\" (geo|greedy|mpipp|random|montecarlo|multilevel)"
        );
    }

    #[test]
    fn baseline_mean_is_above_optimized_costs() {
        let p = problem();
        let mean = baseline_mean_cost(&p, 20, 3);
        for mapper in paper_mappers(1, &Metrics::off()) {
            let c = cost(&p, &mapper.map(&p));
            assert!(
                c < mean,
                "{} cost {c} not below baseline mean {mean}",
                mapper.name()
            );
        }
    }
}

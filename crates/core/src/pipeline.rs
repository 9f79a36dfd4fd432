//! The end-to-end optimization pipeline (paper Fig. 2).
//!
//! The paper automates the whole flow so "users do not need to provide
//! any information on the network or applications": application
//! profiling (CYPRESS → `CG`/`AG`), network calibration (SKaMPI →
//! `LT`/`BT`), grouping, and mapping optimization. This module wires
//! those stages together: give it a program (or pre-profiled pattern)
//! and a ground-truth network, and it returns the mapping plus everything
//! measured along the way.

use crate::constraint::ConstraintVector;
use crate::cost::cost;
use crate::geo::GeoMapper;
use crate::mapping::Mapping;
use crate::metrics::Metrics;
use crate::multilevel::{MultilevelConfig, MultilevelMapper};
use crate::problem::MappingProblem;
use crate::Mapper;
use commgraph::{CommPattern, Program};
use geonet::{CalibrationConfig, CalibrationReport, Calibrator, SiteNetwork};
use serde::{Deserialize, Serialize};
use std::time::{Duration, Instant};

/// Configuration of the full pipeline.
#[derive(Debug, Clone)]
pub struct PipelineConfig {
    /// Network calibration campaign parameters.
    pub calibration: CalibrationConfig,
    /// The mapper (defaults to the paper's [`GeoMapper`]).
    pub mapper: GeoMapper,
    /// Use CYPRESS-style trace compression during profiling (kept as a
    /// switch so the ablation bench can measure its effect on profiling
    /// volume).
    pub compress_traces: bool,
    /// When set, the optimization stage wraps `mapper` in the
    /// [`MultilevelMapper`]: coarsen by heavy-edge matching, solve the
    /// coarsest graph with `mapper`, refine on the way back up. `None`
    /// (the default) keeps the direct solve.
    pub multilevel: Option<MultilevelConfig>,
    /// Observability handle for the pipeline phases. Phase timings are
    /// emitted under the scope `pipeline` (`phase.profiling`,
    /// `phase.calibration`, `phase.optimization`); a mapper whose own
    /// sink is off inherits this one (keeping its own trace), so one
    /// enabled handle covers the full Fig. 2 flow.
    pub metrics: Metrics,
}

impl Default for PipelineConfig {
    fn default() -> Self {
        Self {
            calibration: CalibrationConfig::default(),
            mapper: GeoMapper::default(),
            compress_traces: true,
            multilevel: None,
            metrics: Metrics::off(),
        }
    }
}

/// Everything the pipeline produced.
///
/// Declares the workspace's serde markers: the service crate's `wire`
/// module carries the actual JSON encoding, with the schema-stability
/// contract (serialize → deserialize → bit-identical Eq. 3 cost)
/// enforced by its round-trip tests.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct PipelineResult {
    /// The profiled communication pattern.
    pub pattern: CommPattern,
    /// Trace compression ratio achieved during profiling (1.0 when
    /// compression is off or nothing repeated).
    pub compression_ratio: f64,
    /// The calibration report (estimated `LT`/`BT` + variation).
    pub calibration: CalibrationReport,
    /// The problem as the optimizer saw it (estimated network).
    pub problem: MappingProblem,
    /// The chosen mapping.
    pub mapping: Mapping,
    /// Eq. 3 cost of the chosen mapping under the *estimated* network.
    pub estimated_cost: f64,
    /// Wall-clock spent in the mapping optimization itself (the paper's
    /// "optimization overhead", Fig. 4).
    pub optimization_time: Duration,
}

/// Run the full Fig. 2 pipeline on an application program.
///
/// Profiling executes the CYPRESS step on `program`; calibration probes
/// `truth`; the optimizer then works entirely from estimates, exactly as
/// the paper's deployment does.
pub fn run(
    program: &Program,
    truth: &SiteNetwork,
    constraints: ConstraintVector,
    config: &PipelineConfig,
) -> PipelineResult {
    // 1. Application profiling.
    let metrics = config.metrics.scoped("pipeline");
    let (pattern, compression_ratio) = metrics.timed("phase.profiling", || {
        let mut trace = commgraph::Trace::new();
        for rank in 0..program.num_ranks() {
            for op in program.rank_ops(rank) {
                if let commgraph::RankOp::Send { to, bytes } = op {
                    trace.push(rank, *to, *bytes);
                }
            }
        }
        if config.compress_traces {
            let compressed = trace.compress();
            (
                compressed.to_pattern(program.num_ranks()),
                compressed.compression_ratio(),
            )
        } else {
            (trace.to_pattern(program.num_ranks()), 1.0)
        }
    });
    run_with_pattern(pattern, compression_ratio, truth, constraints, config)
}

/// Run calibration + optimization on a pre-profiled pattern.
pub fn run_with_pattern(
    pattern: CommPattern,
    compression_ratio: f64,
    truth: &SiteNetwork,
    constraints: ConstraintVector,
    config: &PipelineConfig,
) -> PipelineResult {
    // 2. Network calibration.
    let metrics = config.metrics.scoped("pipeline");
    let calibration = metrics.timed("phase.calibration", || {
        Calibrator::new(config.calibration.clone()).calibrate(truth)
    });

    // 3 + 4. Grouping + mapping optimization on the *estimated* network.
    // A mapper without its own metrics sink inherits the pipeline's, so
    // grouping/order-search/packing/refinement timings land in the same
    // sink; the mapper keeps its own trace.
    let geo = if metrics.enabled() && !config.mapper.metrics.enabled() {
        GeoMapper {
            metrics: config
                .metrics
                .clone()
                .with_trace(config.mapper.metrics.trace().clone()),
            ..config.mapper.clone()
        }
    } else {
        config.mapper.clone()
    };
    let multilevel_holder;
    let direct_holder;
    let mapper: &dyn Mapper = if let Some(ml) = config.multilevel {
        multilevel_holder = MultilevelMapper {
            config: ml,
            metrics: geo.metrics.clone(),
            inner: geo,
        };
        &multilevel_holder
    } else {
        direct_holder = geo;
        &direct_holder
    };
    let problem = MappingProblem::new(pattern.clone(), calibration.estimated.clone(), constraints);
    let start = Instant::now();
    let mapping = mapper.map(&problem);
    let optimization_time = start.elapsed();
    metrics.timing("phase.optimization", optimization_time.as_secs_f64());
    let estimated_cost = cost(&problem, &mapping);

    PipelineResult {
        pattern,
        compression_ratio,
        calibration,
        problem,
        mapping,
        estimated_cost,
        optimization_time,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use commgraph::apps::AppKind;
    use geonet::{presets, InstanceType};

    #[test]
    fn pipeline_end_to_end_on_lu() {
        let truth = presets::paper_ec2_network(16, InstanceType::M4Xlarge, 7);
        let program = AppKind::Lu.workload(64).program();
        let result = run(
            &program,
            &truth,
            ConstraintVector::none(64),
            &PipelineConfig::default(),
        );
        result.mapping.validate(&result.problem).unwrap();
        // LU's iterative structure must compress well.
        assert!(
            result.compression_ratio > 3.0,
            "ratio {}",
            result.compression_ratio
        );
        assert!(result.estimated_cost > 0.0);
        // The mapping found on estimates must also be good on the truth:
        // compare against round-robin under the true network.
        let true_problem = MappingProblem::unconstrained(result.pattern.clone(), truth);
        let rr = Mapping::from((0..64).map(|i| i % 4).collect::<Vec<_>>());
        assert!(cost(&true_problem, &result.mapping) < cost(&true_problem, &rr));
    }

    #[test]
    fn compression_switch_changes_ratio_not_pattern() {
        let truth = presets::paper_ec2_network(4, InstanceType::M4Xlarge, 7);
        let program = AppKind::Sp.workload(16).program();
        let on = run(
            &program,
            &truth,
            ConstraintVector::none(16),
            &PipelineConfig::default(),
        );
        let off = run(
            &program,
            &truth,
            ConstraintVector::none(16),
            &PipelineConfig {
                compress_traces: false,
                ..PipelineConfig::default()
            },
        );
        assert_eq!(on.pattern, off.pattern);
        assert!(on.compression_ratio > off.compression_ratio);
        assert_eq!(off.compression_ratio, 1.0);
    }

    #[test]
    fn multilevel_config_flows_through() {
        let truth = presets::paper_ec2_network(16, InstanceType::M4Xlarge, 7);
        let program = AppKind::Lu.workload(64).program();
        let result = run(
            &program,
            &truth,
            ConstraintVector::none(64),
            &PipelineConfig {
                multilevel: Some(MultilevelConfig {
                    coarsen_cutoff: 8,
                    ..MultilevelConfig::default()
                }),
                ..PipelineConfig::default()
            },
        );
        result.mapping.validate(&result.problem).unwrap();
        assert!(result.estimated_cost > 0.0);
    }

    #[test]
    fn constraints_flow_through() {
        let truth = presets::paper_ec2_network(4, InstanceType::M4Xlarge, 7);
        let program = AppKind::KMeans.workload(16).program();
        let c = ConstraintVector::random(16, 0.5, &truth.capacities(), 3);
        let result = run(&program, &truth, c.clone(), &PipelineConfig::default());
        assert!(c.satisfied_by(result.mapping.as_slice()));
    }
}

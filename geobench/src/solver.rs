//! The two solver workloads: `geo_kmeans_128` (direct `GeoMapper`) and
//! `ml_remap_4k` (`MultilevelMapper`), each followed by a bounded
//! `remap::repair` after regions degrade.
//!
//! One cycle is one solve on the calibrated estimate plus a round of
//! repairs of that mapping under every drift scenario, the round sized
//! to take about half a solve. `map_s` is the run's fastest solve and
//! `remap_s` the mean over the scenarios of each one's fastest repair.

use crate::{
    best, derive, mean, median, peak_rss_mb, same_cost, setup_samples, threads, timed, Args, Cpus,
    Ledger, Report, SCENARIO, SETUP_SAMPLES,
};
use commgraph::apps::{AppKind, ClusteredGraph, Workload};
use commgraph::CommPattern;
use geomap_core::{
    cost, repair, repair_with_tables, ConstraintVector, CostModel, CostTables, GeoMapper, Mapper,
    Mapping, MappingProblem, MemorySink, Metrics, MultilevelConfig, MultilevelMapper, RemapConfig,
    RemapOutcome,
};
use geonet::{
    presets, CalibrationConfig, Calibrator, InstanceType, SiteId, SiteNetwork, SquareMatrix,
};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use std::sync::Arc;
use std::time::Instant;

/// Share of ranks a repair may migrate.
const BUDGET_SHARE: f64 = 0.10;
/// Coarsening cutoff of `ml_remap_4k`: at N=4096 it gives the hierarchy
/// depth the default cutoff (1024) gives at N=65536.
const ML_CUTOFF: usize = 64;

#[derive(Clone, Copy, PartialEq, Eq)]
enum Kind {
    /// `geo_kmeans_128`.
    Geo,
    /// `ml_remap_4k`.
    Multilevel,
}

/// Generator parameters of one solver workload.
struct Spec {
    kind: Kind,
    ranks: usize,
    /// Drift scenarios: the regions whose WAN links degrade before one
    /// repair.
    drifts: Vec<Vec<usize>>,
}

impl Spec {
    fn of(workload: &str) -> Self {
        match workload {
            // Each of the four regions degrades in turn.
            "geo_kmeans_128" => Spec {
                kind: Kind::Geo,
                ranks: 128,
                drifts: (0..4).map(|k| vec![k]).collect(),
            },
            // Eight drifts of three of the twenty regions each, drawn once
            // for the scenario. How long a repair takes depends on the
            // mapping it starts from, which changes with `--seed`; the
            // mean over eight drifts evens that out.
            _ => Spec {
                kind: Kind::Multilevel,
                ranks: 4096,
                drifts: (0..8)
                    .map(|k| pick_victims(20, 3, derive(SCENARIO, 4 + 16 * k)))
                    .collect(),
            },
        }
    }
}

/// Everything a cycle needs, built by [`setup`].
struct Inputs {
    pattern: CommPattern,
    problem: MappingProblem,
    /// One drifted problem per drift scenario.
    drifted: Vec<MappingProblem>,
    budget: usize,
}

/// Wall time of each set-up layer in one set-up.
#[derive(Default, Clone, Copy)]
struct SetupTimes {
    pattern_s: f64,
    network_s: f64,
    calibrate_s: f64,
    problem_s: f64,
}

/// Degrade every WAN link touching a site in `victims`: latency ×16,
/// bandwidth ÷16 (the drift `remap_bench` applies).
fn degrade(net: &SiteNetwork, victims: &[usize]) -> SiteNetwork {
    let hit = |k: usize, l: usize| k != l && (victims.contains(&k) || victims.contains(&l));
    let m = net.num_sites();
    let lt = SquareMatrix::from_fn(m, |k, l| {
        let base = net.latency(SiteId(k), SiteId(l));
        if hit(k, l) {
            base * 16.0
        } else {
            base
        }
    });
    let bt = SquareMatrix::from_fn(m, |k, l| {
        let base = net.bandwidth(SiteId(k), SiteId(l));
        if hit(k, l) {
            base / 16.0
        } else {
            base
        }
    });
    SiteNetwork::new(net.sites().to_vec(), lt, bt)
}

/// `count` distinct regions of `m`, seeded.
fn pick_victims(m: usize, count: usize, seed: u64) -> Vec<usize> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut victims = Vec::new();
    while victims.len() < count {
        let v = rng.random_range(0..m);
        if !victims.contains(&v) {
            victims.push(v);
        }
    }
    victims.sort_unstable();
    victims
}

/// Generate and prepare one workload's inputs. The scenario (pattern,
/// cluster, pins, degraded regions) is fixed; `seed` draws the
/// calibration campaign's measurements.
fn setup(spec: &Spec, seed: u64) -> (Inputs, SetupTimes) {
    let n = spec.ranks;
    let mut t = SetupTimes::default();
    let (pattern, s) = timed(|| match spec.kind {
        Kind::Geo => AppKind::KMeans.workload(n).pattern(),
        // `experiments::multilevel::problem_at`'s clustered graph.
        Kind::Multilevel => ClusteredGraph {
            n,
            cluster: 64,
            degree: 8,
            locality: 0.8,
            max_bytes: 1 << 20,
            seed: derive(SCENARIO, 5),
        }
        .pattern(),
    });
    t.pattern_s = s;
    let (truth, s) = timed(|| match spec.kind {
        // §5.1: four EC2 regions, capacity exactly N.
        Kind::Geo => presets::paper_ec2_network(n / 4, InstanceType::M4Xlarge, derive(SCENARIO, 1)),
        // 20 Azure regions with 25 % headroom, as `problem_at` sizes them.
        Kind::Multilevel => presets::azure20_network(
            (n as f64 * 1.25 / 20.0).ceil() as usize,
            derive(SCENARIO, 1),
        ),
    });
    t.network_s = s;
    let (estimate, s) = timed(|| {
        Calibrator::new(CalibrationConfig {
            seed: derive(seed, 2),
            ..CalibrationConfig::default()
        })
        .calibrate(&truth)
        .estimated
    });
    t.calibrate_s = s;
    let (drifted_nets, s) = timed(|| {
        spec.drifts
            .iter()
            .map(|victims| degrade(&estimate, victims))
            .collect::<Vec<_>>()
    });
    t.network_s += s;
    let (problems, s) = timed(|| {
        let pins = match spec.kind {
            Kind::Geo => {
                ConstraintVector::random(n, 0.2, &estimate.capacities(), derive(SCENARIO, 3))
            }
            Kind::Multilevel => ConstraintVector::none(n),
        };
        let drifted = drifted_nets
            .into_iter()
            .map(|net| MappingProblem::new(pattern.clone(), net, pins.clone()))
            .collect();
        (
            MappingProblem::new(pattern.clone(), estimate, pins),
            drifted,
        )
    });
    t.problem_s = s;
    let (problem, drifted) = problems;
    let inputs = Inputs {
        pattern,
        problem,
        drifted,
        budget: (n as f64 * BUDGET_SHARE).ceil() as usize,
    };
    (inputs, t)
}

/// Solve `problem`. The solver's seed is the scenario's, so `--seed`
/// reaches the mapping only through the calibrated estimate: with the
/// solver's seed drawn from `--seed` too, the mapping a repair starts
/// from changed more between seeds, and the slowest drift's repair time
/// with it (27 % IQR / median over ten seeds, multilevel at N=8192).
fn solve(spec: &Spec, problem: &MappingProblem, metrics: &Metrics) -> Mapping {
    let geo = GeoMapper {
        seed: derive(SCENARIO, 6),
        metrics: metrics.clone(),
        ..GeoMapper::default()
    };
    match spec.kind {
        Kind::Geo => geo.map(problem),
        Kind::Multilevel => MultilevelMapper {
            config: MultilevelConfig {
                coarsen_cutoff: ML_CUTOFF,
                ..MultilevelConfig::default()
            },
            inner: geo,
            metrics: metrics.clone(),
            ..MultilevelMapper::default()
        }
        .map(problem),
    }
}

fn remap_config(budget: usize) -> RemapConfig {
    RemapConfig {
        budget: Some(budget),
        alpha: 0.0,
        ..RemapConfig::default()
    }
}

fn check_solve(inputs: &Inputs, mapping: &Mapping, reference: &Mapping) -> Result<(), String> {
    mapping
        .validate(&inputs.problem)
        .map_err(|e| format!("solve: invalid mapping: {e}"))?;
    let c = cost(&inputs.problem, mapping);
    if !(c.is_finite() && c > 0.0) {
        return Err(format!("solve: cost {c} is not a positive number"));
    }
    if mapping.as_slice() != reference.as_slice() {
        return Err("solve: same seed, different mapping".into());
    }
    Ok(())
}

fn check_repair(
    inputs: &Inputs,
    p: &MappingProblem,
    start: &Mapping,
    out: &RemapOutcome,
) -> Result<(), String> {
    out.mapping
        .validate(p)
        .map_err(|e| format!("repair: invalid mapping: {e}"))?;
    let diff: Vec<usize> = (0..start.len())
        .filter(|&i| start.site_of(i) != out.mapping.site_of(i))
        .collect();
    if diff != out.moved {
        return Err("repair: `moved` disagrees with the mapping diff".into());
    }
    if out.moved.len() > inputs.budget {
        return Err(format!(
            "repair: moved {} ranks, budget {}",
            out.moved.len(),
            inputs.budget
        ));
    }
    if let Some(&i) = out
        .moved
        .iter()
        .find(|&&i| p.constraints().pin_of(i).is_some())
    {
        return Err(format!("repair: moved pinned rank {i}"));
    }
    if out.new_cost > out.old_cost {
        return Err(format!(
            "repair: cost rose from {} to {}",
            out.old_cost, out.new_cost
        ));
    }
    same_cost("repair old_cost", out.old_cost, cost(p, start))?;
    same_cost("repair new_cost", out.new_cost, cost(p, &out.mapping))
}

/// Timed samples of one run.
#[derive(Default)]
struct Samples {
    /// Wall time of each solve.
    map_s: Vec<f64>,
    /// Mean time of one repair, per round of repairs (notes only).
    round_s: Vec<f64>,
    /// Fastest single repair of each drift scenario so far.
    scenario_s: Vec<f64>,
    cost: f64,
    remap_cost: f64,
}

impl Samples {
    /// Fold repair times, in round-robin order over the drift
    /// scenarios, into each scenario's fastest.
    fn repairs(&mut self, calls: &[f64], scenarios: usize) {
        if self.scenario_s.is_empty() {
            self.scenario_s = vec![f64::INFINITY; scenarios];
        }
        for (k, &s) in calls.iter().enumerate() {
            let fastest = &mut self.scenario_s[k % scenarios];
            *fastest = fastest.min(s);
        }
        self.round_s.push(mean(calls));
    }

    /// Time of one repair: each scenario's fastest, averaged.
    fn remap_s(&self) -> f64 {
        mean(&self.scenario_s)
    }
}

/// One round of repairs: `reps` times every drift scenario.
struct Repairs {
    /// Mean repaired cost over the scenarios.
    cost: f64,
    /// Wall time of each `repair` call, round-robin over the scenarios.
    calls: Vec<f64>,
}

pub fn run(args: &Args) -> Result<Report, String> {
    let spec = Spec::of(&args.workload);
    let seed = args.seed;
    let mut report = Report::default();
    let mut ledger = Ledger::default();
    let cpus = Cpus::of_process();

    let mut setup_times = Vec::new();
    let samples = if args.onecpu { 1 } else { SETUP_SAMPLES };
    let (inputs, setup_s) = setup_samples(samples, &cpus, || {
        let (inputs, t) = setup(&spec, seed);
        setup_times.push(t);
        Ok::<_, String>(inputs)
    })?;
    let budget_cfg = remap_config(inputs.budget);

    // The first solve fixes the reference mapping every later solve
    // must reproduce, and is the first solve sample; one round of
    // repairs sizes the later rounds to about half a solve each.
    let mut plain = Samples::default();
    let mut traced = Samples::default();
    let started = Instant::now();
    let (reference, map_s) = timed(|| solve(&spec, &inputs.problem, &Metrics::off()));
    report.op(check_solve(&inputs, &reference, &reference));
    if !args.trace || args.onecpu {
        plain.map_s.push(map_s);
    }
    let warm = repair_all(&inputs, &reference, &budget_cfg, 1, &mut report);
    let per_round: f64 = warm.calls.iter().sum();
    let reps = ((0.5 * map_s / per_round.max(1e-6)).ceil() as usize).clamp(1, 500);
    let min_cycles = if args.trace { 4 } else { 3 };
    let mut cycle = 0usize;
    // A cycle starts only if it should end within the run's time.
    let mut last_s = 0.0;
    while cycle < min_cycles || started.elapsed().as_secs_f64() + last_s <= args.seconds {
        let cycle_started = Instant::now();
        if args.trace && !args.onecpu && cycle % 2 == 1 {
            traced_cycle(
                &spec,
                &inputs,
                reps,
                &cpus,
                cycle / 2,
                &reference,
                &mut traced,
                &mut ledger,
                &mut report,
            );
        } else {
            let (mapping, map_s) = timed(|| solve(&spec, &inputs.problem, &Metrics::off()));
            report.op(check_solve(&inputs, &mapping, &reference));
            // A repair is single-threaded: each sample runs on one CPU,
            // the CPUs in turn.
            let repaired = cpus.on(cycle / 2, || {
                repair_all(&inputs, &mapping, &budget_cfg, reps, &mut report)
            });
            plain.map_s.push(map_s);
            plain.repairs(&repaired.calls, inputs.drifted.len());
            plain.cost = cost(&inputs.problem, &mapping);
            plain.remap_cost = repaired.cost;
        }
        cycle += 1;
        last_s = cycle_started.elapsed().as_secs_f64();
    }
    report.note(format!(
        "{}: N={} ranks, {} cycles, repair x{reps} per sample, {} threads",
        args.workload,
        spec.ranks,
        cycle,
        threads()
    ));
    let ms = |v: &[f64]| {
        v.iter()
            .map(|x| format!("{:.1}", x * 1e3))
            .collect::<Vec<_>>()
            .join(" ")
    };
    report.note(format!(
        "untraced samples, ms: set-up [{}], solve [{}], repair [{}]",
        ms(&setup_s),
        ms(&plain.map_s),
        ms(&plain.round_s)
    ));

    if args.onecpu {
        report.metric("onecpu.threads", threads() as f64, "count");
        report.metric("onecpu.map_s", best(&plain.map_s), "s");
        report.metric("onecpu.remap_s", plain.remap_s(), "s");
        return Ok(report);
    }
    if !args.trace {
        report.metric("setup_s", best(&setup_s), "s");
        report.metric("map_s", best(&plain.map_s), "s");
        report.metric("cost", plain.cost, "s");
        report.metric("remap_s", plain.remap_s(), "s");
        report.metric("remap_cost", plain.remap_cost, "s");
        // Cycles of one solve and one repair per second.
        report.metric("rps", 1.0 / (best(&plain.map_s) + plain.remap_s()), "1/s");
        report.metric("lat_p50_us", median(&plain.scenario_s) * 1e6, "us");
        report.metric("peak_rss_mb", peak_rss_mb(), "MB");
        return Ok(report);
    }

    let med = |f: fn(&SetupTimes) -> f64| median(&setup_times.iter().map(f).collect::<Vec<_>>());
    ledger.set("commgraph.pattern_s", med(|t| t.pattern_s));
    ledger.set("geonet.network_s", med(|t| t.network_s));
    ledger.set("geonet.calibrate_s", med(|t| t.calibrate_s));
    ledger.set("core.problem_s", med(|t| t.problem_s));
    ledger.set("overhead.map_s", best(&traced.map_s) - best(&plain.map_s));
    ledger.set("overhead.remap_s", traced.remap_s() - plain.remap_s());
    ledger.set("threads", threads() as f64);
    ledger.emit(&mut report)?;
    Ok(report)
}

/// Repair `mapping` under every drift scenario, `reps` times, timing
/// each call and checking every outcome.
fn repair_all(
    inputs: &Inputs,
    mapping: &Mapping,
    config: &RemapConfig,
    reps: usize,
    report: &mut Report,
) -> Repairs {
    let mut outs = Vec::with_capacity(reps * inputs.drifted.len());
    let mut calls = Vec::with_capacity(outs.capacity());
    for _ in 0..reps {
        for p in &inputs.drifted {
            let (out, s) = timed(|| repair(p, mapping, config));
            outs.push(out);
            calls.push(s);
        }
    }
    for (out, p) in outs.iter().zip(inputs.drifted.iter().cycle()) {
        report.op(check_repair(inputs, p, mapping, out));
    }
    let last = &outs[outs.len() - inputs.drifted.len()..];
    Repairs {
        cost: last.iter().map(|o| o.new_cost).sum::<f64>() / last.len() as f64,
        calls,
    }
}

/// One cycle with every layer timed from here and the mappers' own
/// `Metrics` handle on. Layer medians land in `ledger`.
#[allow(clippy::too_many_arguments)]
fn traced_cycle(
    spec: &Spec,
    inputs: &Inputs,
    reps: usize,
    cpus: &Cpus,
    turn: usize,
    reference: &Mapping,
    traced: &mut Samples,
    ledger: &mut Ledger,
    report: &mut Report,
) {
    let problem = &inputs.problem;
    let (tables, tables_s) = timed(|| CostTables::build(problem, CostModel::Full));
    drop(tables);
    ledger.sample("core.delta.tables_s", tables_s);
    let (tables, s) = timed(|| {
        CostTables::build_from_pattern(&inputs.pattern, problem.network(), CostModel::Full)
    });
    drop(tables);
    ledger.sample("core.delta.tables_from_pattern_s", s);

    let sink = Arc::new(MemorySink::new());
    let metrics = Metrics::new(sink.clone());
    let (mapping, map_s) = timed(|| solve(spec, problem, &metrics));
    report.op(check_solve(inputs, &mapping, reference));
    traced.map_s.push(map_s);

    // The layers that partition one solve: for the direct solver its
    // phases plus the table build it does first (timed standalone
    // above), for the multilevel solver its three phases.
    let geo = "Geo-distributed";
    let ml = "multilevel";
    let phase = |scope: &str, name: &str| sink.sum(scope, name);
    let covered = match spec.kind {
        Kind::Geo => {
            phase(geo, "phase.grouping")
                + tables_s
                + phase(geo, "phase.order_search")
                + phase(geo, "phase.refinement")
        }
        Kind::Multilevel => {
            phase(ml, "phase.coarsen") + phase(ml, "phase.coarse_solve") + phase(ml, "phase.refine")
        }
    };
    ledger.sample("coverage.map_s", covered / map_s);
    ledger.sample("core.grouping_s", phase(geo, "phase.grouping"));
    ledger.sample("core.geo.order_search_s", phase(geo, "phase.order_search"));
    ledger.sample("core.geo.refinement_s", phase(geo, "phase.refinement"));
    ledger.sample("core.geo.orders", sink.sum(geo, "search.orders_evaluated"));
    let evaluated = sink.sum(geo, "search.swaps_evaluated");
    let accepted = sink.sum(geo, "search.swaps_accepted");
    ledger.sample("core.delta.passes", sink.sum(geo, "search.passes"));
    ledger.sample("core.delta.swaps_evaluated", evaluated);
    ledger.sample("core.delta.swaps_accepted", accepted);
    ledger.sample(
        "core.delta.accept_ratio",
        if evaluated > 0.0 {
            accepted / evaluated
        } else {
            0.0
        },
    );
    ledger.sample("core.delta.terms", sink.sum(geo, "search.terms"));
    if spec.kind == Kind::Multilevel {
        ledger.sample("core.multilevel.coarsen_s", sink.sum(ml, "phase.coarsen"));
        ledger.sample(
            "core.multilevel.coarse_solve_s",
            sink.sum(ml, "phase.coarse_solve"),
        );
        ledger.sample("core.multilevel.refine_s", sink.sum(ml, "phase.refine"));
        ledger.sample("core.multilevel.levels", sink.sum(ml, "levels"));
    }

    // The repair split into its two public calls: the table build and
    // the bounded search (`repair` is exactly these two), each next to a
    // call of `repair` itself, which the two must cover. Times and
    // counts are per repair, averaged over the drift scenarios.
    let config = remap_config(inputs.budget);
    let mut whole_s = 0.0;
    let mut tables_s = 0.0;
    let mut repair_s = 0.0;
    let mut split_s = Vec::new();
    let mut outs = Vec::new();
    cpus.on(turn, || {
        for _ in 0..reps {
            for drifted in &inputs.drifted {
                let (whole, s) = timed(|| repair(drifted, &mapping, &config));
                whole_s += s;
                report.op(check_repair(inputs, drifted, &mapping, &whole));
                let (tables, t) = timed(|| CostTables::build(drifted, config.model));
                tables_s += t;
                let capacities = drifted.capacities();
                let (out, s) = timed(|| {
                    repair_with_tables(
                        &tables,
                        drifted.constraints(),
                        &capacities,
                        &mapping,
                        &config,
                    )
                });
                repair_s += s;
                split_s.push(t + s);
                outs.push(out);
            }
        }
    });
    ledger.sample("coverage.remap_s", (tables_s + repair_s) / whole_s);
    for (out, drifted) in outs.iter().zip(inputs.drifted.iter().cycle()) {
        report.op(check_repair(inputs, drifted, &mapping, out));
    }
    let mut counts = [0.0f64; 4];
    for out in &outs[outs.len() - inputs.drifted.len()..] {
        counts[0] += out.ops as f64;
        counts[1] += out.moved.len() as f64;
        counts[2] += out.passes_run as f64;
        counts[3] += out.terms as f64;
    }
    let repairs = (reps * inputs.drifted.len()) as f64;
    let scenarios = inputs.drifted.len() as f64;
    ledger.sample("core.remap.tables_s", tables_s / repairs);
    ledger.sample("core.remap.repair_s", repair_s / repairs);
    ledger.sample("core.remap.ops", counts[0] / scenarios);
    ledger.sample("core.remap.moved", counts[1] / scenarios);
    ledger.sample("core.remap.passes", counts[2] / scenarios);
    ledger.sample("core.remap.terms", counts[3] / scenarios);
    traced.repairs(&split_s, inputs.drifted.len());
}

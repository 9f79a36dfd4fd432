//! End-to-end and per-layer benchmark of the geo-distributed mapper.
//!
//! ```text
//! geobench --workload NAME --seed N --seconds S --trace 0|1 [--onecpu]
//! ```
//!
//! Four workloads, each run from this one process (see `README.md` in
//! this directory for why each was chosen and what every metric means):
//!
//! * `geo_kmeans_128` — the paper's regime: K-means, N=128, on the
//!   4-region EC2 preset, 20 % pinned, mapped by the direct `GeoMapper`
//!   and then repaired after one region degrades;
//! * `ml_remap_4k` — the multilevel solver at N=4096 over the 20
//!   Azure regions, then a 10 %-budget repair after 3 regions degrade;
//! * `service_mix` — a skewed request stream through the v2 codec and
//!   `MappingService::handle`, in-process, reserving and releasing;
//! * `service_wire` — the same stream through `MappingServer` on
//!   loopback, one reactor, one pooled connection, batches of 64.
//!
//! With `--trace 0` the run times the workload's public entry points
//! and prints the end-to-end metrics; with `--trace 1` it alternates
//! untraced and traced operations and prints the per-layer ledger
//! instead. `--onecpu` is the single-thread baseline `run.py` starts
//! pinned to one CPU: it reports only the solver's `map_s` and
//! `remap_s` and the thread count the process saw. Every operation's output is checked; a failed
//! check counts as a failed operation. The last stdout line is one JSON
//! object.

mod service;
mod solver;

use rayon::prelude::*;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::process::ExitCode;
use std::time::Instant;

/// Command line of one run.
#[derive(Debug, Clone)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub onecpu: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        onecpu: false,
    };
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?.clone(),
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace must be 0 or 1, got {other:?}")),
                }
            }
            "--onecpu" => args.onecpu = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if args.seconds.is_nan() || args.seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    Ok(args)
}

/// One reported metric.
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

/// Operations attempted and failed, the first failure messages, and
/// the metrics of one run.
#[derive(Default)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    pub errors: Vec<String>,
    pub metrics: Vec<Metric>,
    /// Human-readable lines printed before the JSON result.
    pub notes: Vec<String>,
}

impl Report {
    /// Count one operation; a failed check fails it.
    pub fn op(&mut self, outcome: Result<(), String>) {
        self.attempted += 1;
        if let Err(e) = outcome {
            self.failed += 1;
            if self.errors.len() < 10 {
                self.errors.push(e);
            }
        }
    }

    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.push(Metric {
            name: name.to_string(),
            value,
            unit,
        });
    }

    pub fn note(&mut self, line: String) {
        self.notes.push(line);
    }

    fn json(&self) -> String {
        let mut s = String::new();
        write!(
            s,
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.failed == 0 && self.attempted > 0,
            self.attempted,
            self.failed
        )
        .unwrap();
        for (i, m) in self.metrics.iter().enumerate() {
            let value = if m.value.is_finite() { m.value } else { 0.0 };
            write!(
                s,
                "{}\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}",
                if i == 0 { "" } else { ", " },
                m.name,
                value,
                m.unit
            )
            .unwrap();
        }
        s.push_str("}}");
        s
    }
}

/// Every per-layer metric of a traced run, in report order. A layer the
/// workload never enters reports 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("commgraph.pattern_s", "s"),
    ("geonet.network_s", "s"),
    ("geonet.calibrate_s", "s"),
    ("core.problem_s", "s"),
    ("core.grouping_s", "s"),
    ("core.delta.tables_s", "s"),
    ("core.delta.tables_from_pattern_s", "s"),
    ("core.geo.order_search_s", "s"),
    ("core.geo.refinement_s", "s"),
    ("core.geo.orders", "count"),
    ("core.delta.passes", "count"),
    ("core.delta.swaps_evaluated", "count"),
    ("core.delta.swaps_accepted", "count"),
    ("core.delta.accept_ratio", "ratio"),
    ("core.delta.terms", "count"),
    ("core.multilevel.coarsen_s", "s"),
    ("core.multilevel.coarse_solve_s", "s"),
    ("core.multilevel.refine_s", "s"),
    ("core.multilevel.levels", "count"),
    ("core.remap.tables_s", "s"),
    ("core.remap.repair_s", "s"),
    ("core.remap.ops", "count"),
    ("core.remap.moved", "count"),
    ("core.remap.passes", "count"),
    ("core.remap.terms", "count"),
    ("service.frame.encode_us", "us"),
    ("service.frame.decode_us", "us"),
    ("service.handle.result_us", "us"),
    ("service.handle.problem_us", "us"),
    ("service.handle.miss_us", "us"),
    ("service.handle.remap_us", "us"),
    ("service.cache.hit_ratio", "ratio"),
    ("service.inventory.release_us", "us"),
    ("service.wire.batch_ms", "ms"),
    ("service.wire.server_e2e_us", "us"),
    ("service.wire.queue_wait_us", "us"),
    ("service.wire.server_share", "ratio"),
    ("coverage.map_s", "ratio"),
    ("coverage.remap_s", "ratio"),
    ("coverage.request", "ratio"),
    ("overhead.map_s", "s"),
    ("overhead.remap_s", "s"),
    ("overhead.lat_p50_us", "us"),
    ("overhead.rps", "1/s"),
    ("threads", "count"),
    ("onecpu.threads", "count"),
    ("onecpu.map_s", "s"),
    ("onecpu.remap_s", "s"),
];

/// Per-layer samples of a traced run, reported as medians.
#[derive(Default)]
pub struct Ledger {
    samples: BTreeMap<&'static str, Vec<f64>>,
}

impl Ledger {
    fn key(name: &str) -> &'static str {
        PER_LAYER
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(n, _)| *n)
            .unwrap_or_else(|| panic!("{name} is not a per-layer metric"))
    }

    pub fn sample(&mut self, name: &str, value: f64) {
        self.samples.entry(Self::key(name)).or_default().push(value);
    }

    pub fn set(&mut self, name: &str, value: f64) {
        self.samples.insert(Self::key(name), vec![value]);
    }

    /// Median of `name`'s samples (0 when it has none).
    pub fn get(&self, name: &str) -> f64 {
        self.samples.get(name).map_or(0.0, |v| median(v))
    }

    fn emit(&self, report: &mut Report) -> Result<(), String> {
        for (name, unit) in PER_LAYER {
            let v = self.get(name);
            if !v.is_finite() {
                return Err(format!("per-layer metric {name} is {v}"));
            }
            report.metric(name, v, unit);
        }
        Ok(())
    }
}

/// Median of `xs` (mean of the middle pair for even counts; NaN when
/// empty).
pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

/// Linear-interpolated quantile `q` of `xs` (NaN when empty).
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    xs.iter().sum::<f64>() / xs.len() as f64
}

/// `Err` unless `got` equals `want` to `1e-9` relative.
pub fn same_cost(what: &str, got: f64, want: f64) -> Result<(), String> {
    let tol = 1e-9 * want.abs().max(1e-300);
    if got.is_finite() && (got - want).abs() <= tol {
        Ok(())
    } else {
        Err(format!("{what}: reported {got:e}, recomputed {want:e}"))
    }
}

/// Peak resident set size of this process, MB (VmHWM).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// Threads the process may run on (what the rayon shim sizes its pool
/// from).
pub fn threads() -> usize {
    std::thread::available_parallelism().map_or(1, |p| p.get())
}

/// The CPUs the process may use, for running single-threaded samples on
/// one CPU at a time in turn. The host slows each CPU on its own, at
/// times for longer than a run: a thread left where the scheduler put it
/// can spend a whole run on the slow one, while taking turns every run
/// samples each CPU.
pub struct Cpus(Vec<usize>);

impl Cpus {
    pub fn of_process() -> Self {
        Cpus(affinity::get())
    }

    /// Run `f` pinned to CPU `turn` (modulo their number), then restore
    /// the full set. Threads `f` starts inherit the pin.
    pub fn on<T>(&self, turn: usize, f: impl FnOnce() -> T) -> T {
        if self.0.len() < 2 {
            return f();
        }
        affinity::set(&self.0[turn % self.0.len()..][..1]);
        let out = f();
        affinity::set(&self.0);
        out
    }
}

/// The calling thread's CPU affinity (Linux `sched_{get,set}affinity`).
mod affinity {
    /// Words of a glibc `cpu_set_t` (1024 CPUs).
    const WORDS: usize = 16;

    extern "C" {
        fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
        fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
    }

    /// CPUs the calling thread may run on (empty if unknown).
    pub fn get() -> Vec<usize> {
        let mut mask = [0u64; WORDS];
        // SAFETY: `mask` is a writable buffer of the size passed.
        let rc = unsafe { sched_getaffinity(0, std::mem::size_of_val(&mask), mask.as_mut_ptr()) };
        if rc != 0 {
            return Vec::new();
        }
        (0..WORDS * 64)
            .filter(|&c| mask[c / 64] >> (c % 64) & 1 == 1)
            .collect()
    }

    /// Restrict the calling thread to `cpus`; false if refused.
    pub fn set(cpus: &[usize]) -> bool {
        let mut mask = [0u64; WORDS];
        for &c in cpus.iter().filter(|&&c| c < WORDS * 64) {
            mask[c / 64] |= 1 << (c % 64);
        }
        // SAFETY: `mask` is a readable buffer of the size passed.
        unsafe { sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr()) == 0 }
    }
}

/// Run `f` and return its result with the wall time in seconds.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t0 = Instant::now();
    let out = f();
    (out, t0.elapsed().as_secs_f64())
}

/// Shortest stretch of repeated operations, seconds: a phase of the
/// service workloads' solve or remap rounds.
pub const MIN_SAMPLE_S: f64 = 0.5;

/// Set-up samples of a run, and the least time each sample repeats the
/// set-up for.
pub const SETUP_SAMPLES: usize = 9;
const SETUP_SAMPLE_S: f64 = 0.3;

/// Fastest of `xs` (NaN when empty). Every timed end-to-end metric is
/// built from the fastest of a run's short operations, `setup_s` too:
/// the host only ever adds time, in bursts, and between them an
/// operation runs at the program's own speed.
pub fn best(xs: &[f64]) -> f64 {
    xs.iter().copied().fold(f64::NAN, f64::min)
}

/// Run a set-up `samples` times over: each sample repeats `f` until it
/// has taken at least `SETUP_SAMPLE_S` and records its fastest set-up
/// (see [`best`]). Sample `k` runs on CPU `k` of `cpus`, so the set-up
/// is sampled on each CPU. Returns the last result and the per-sample
/// times.
pub fn setup_samples<T, E>(
    samples: usize,
    cpus: &Cpus,
    mut f: impl FnMut() -> Result<T, E>,
) -> Result<(T, Vec<f64>), E> {
    let mut fastest = Vec::with_capacity(samples);
    let mut last = None;
    for k in 0..samples.max(1) {
        cpus.on(k, || {
            let mut spent = 0.0;
            let mut sample = f64::INFINITY;
            while spent < SETUP_SAMPLE_S {
                // The previous result is dropped outside the timer.
                drop(last.take());
                let (out, s) = timed(&mut f);
                last = Some(out?);
                spent += s;
                sample = sample.min(s);
            }
            fastest.push(sample);
            Ok(())
        })?;
    }
    Ok((last.expect("at least one set-up ran"), fastest))
}

/// Seed of every workload's scenario: the cluster's ground truth, the
/// generated pattern, the pins and the degraded regions. `--seed` draws
/// what varies between executions of one scenario: the calibration
/// campaign's measurements and the solvers' random choices.
pub const SCENARIO: u64 = 0x5C17;

/// One seed per purpose from a base seed (`--seed` or [`SCENARIO`]).
pub fn derive(seed: u64, purpose: u64) -> u64 {
    let mut z = seed ^ purpose.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn run(args: &Args) -> Result<Report, String> {
    match args.workload.as_str() {
        "geo_kmeans_128" | "ml_remap_4k" => solver::run(args),
        "service_mix" | "service_wire" => service::run(args),
        other => Err(format!(
            "unknown workload {other:?} (geo_kmeans_128|ml_remap_4k|service_mix|service_wire)"
        )),
    }
}

fn main() -> ExitCode {
    // Size the rayon pool from every CPU now, before a sample pins the
    // thread to one: the pool is sized once, on first use.
    let _: Vec<usize> = (0..2).into_par_iter().map(|x| x).collect();
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("geobench: {e}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(report) => {
            for line in &report.notes {
                println!("{line}");
            }
            println!(
                "{:<36} {:>16}  unit",
                format!("{} (seed {})", args.workload, args.seed),
                if args.trace { "traced" } else { "value" }
            );
            for m in &report.metrics {
                println!("{:<36} {:>16.6}  {}", m.name, m.value, m.unit);
            }
            for e in &report.errors {
                println!("FAILED: {e}");
            }
            println!("{}", report.json());
            if report.failed == 0 {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("geobench: {e}");
            ExitCode::FAILURE
        }
    }
}

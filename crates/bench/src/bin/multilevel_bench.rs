//! Acceptance benchmark for the multilevel coarsen–map–refine solver.
//!
//! ```text
//! multilevel_bench [--quick] [--max-n N] [--direct-limit N] [--seed S]
//!                  [--out FILE]
//! ```
//!
//! Sweeps N over the clustered workload on the Azure 20-region preset
//! (the same scale points as `repro multilevel`), timing the multilevel
//! solve at every N and the direct `GeoMapper` wherever `n <=
//! --direct-limit`. Writes `BENCH_multilevel.json` and enforces the
//! acceptance gates:
//!
//! * **cost parity** — at every N where both solvers ran, the
//!   multilevel Eq. 3 cost is within 5% of the direct solver's;
//! * **wall clock** — the largest N solves in single-digit seconds
//!   (< 10 s). Skipped under `--quick`, whose small sweep exists to
//!   exercise the document shape, not the scale claim.
//!
//! The CI `multilevel-smoke` job runs `--max-n 65536` with a pinned
//! seed (the N=4096 direct solve is the slow half of that job) and
//! re-checks the gates from the JSON with an independent validator.

use geomap_bench::experiments::multilevel::{run_scale, DIRECT_LIMIT, QUICK_SWEEP, SWEEP};
use geomap_core::{Metrics, MultilevelConfig};
use geomap_service::json::{obj, Json};
use std::process::ExitCode;

/// The wall-clock gate at the acceptance scale: "single-digit seconds".
const WALLCLOCK_LIMIT_S: f64 = 10.0;
/// The cost-parity gate wherever direct ran.
const PARITY_LIMIT: f64 = 1.05;

struct Config {
    max_n: usize,
    direct_limit: usize,
    seed: u64,
    quick: bool,
    out: String,
}

fn parse_args() -> Result<Config, String> {
    let mut cfg = Config {
        max_n: usize::MAX,
        direct_limit: DIRECT_LIMIT,
        seed: 0x5C17,
        quick: false,
        out: "BENCH_multilevel.json".to_string(),
    };
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut it = argv.iter();
    while let Some(arg) = it.next() {
        let mut val = |name: &str| -> Result<&String, String> {
            it.next().ok_or_else(|| format!("{name} needs a value"))
        };
        match arg.as_str() {
            "--quick" => cfg.quick = true,
            "--max-n" => {
                cfg.max_n = val("--max-n")?
                    .parse()
                    .map_err(|e| format!("--max-n: {e}"))?
            }
            "--direct-limit" => {
                cfg.direct_limit = val("--direct-limit")?
                    .parse()
                    .map_err(|e| format!("--direct-limit: {e}"))?
            }
            "--seed" => cfg.seed = val("--seed")?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--out" => cfg.out = val("--out")?.clone(),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(cfg)
}

fn run() -> Result<String, String> {
    let cfg = parse_args()?;
    let (sweep, ml): (Vec<usize>, MultilevelConfig) = if cfg.quick {
        (
            QUICK_SWEEP.to_vec(),
            MultilevelConfig {
                coarsen_cutoff: 64,
                ..MultilevelConfig::default()
            },
        )
    } else {
        (
            SWEEP.iter().copied().filter(|&n| n <= cfg.max_n).collect(),
            MultilevelConfig::default(),
        )
    };
    if sweep.is_empty() {
        return Err(format!("--max-n {} leaves no scale points", cfg.max_n));
    }

    let mut runs = Vec::new();
    let mut worst_ratio: Option<(usize, f64)> = None;
    let mut largest: Option<(usize, f64)> = None;
    for &n in &sweep {
        eprintln!("multilevel_bench: N={n} over 20 Azure regions...");
        let r = run_scale(n, cfg.seed, ml, cfg.direct_limit, &Metrics::off());
        eprintln!(
            "  multilevel {:.3} s, cost {:.6}{}",
            r.ml_time_s,
            r.ml_cost,
            match (r.direct_time_s, r.ratio()) {
                (Some(td), Some(ratio)) => format!("; direct {td:.3} s, cost ratio {ratio:.4}"),
                _ => "; direct skipped (over --direct-limit)".to_string(),
            }
        );
        if let Some(ratio) = r.ratio() {
            if worst_ratio.is_none_or(|(_, w)| ratio > w) {
                worst_ratio = Some((n, ratio));
            }
        }
        largest = Some((n, r.ml_time_s));
        runs.push(obj(vec![
            ("n", Json::Num(n as f64)),
            ("ml_time_s", Json::Num(r.ml_time_s)),
            ("ml_cost", Json::Num(r.ml_cost)),
            (
                "direct_time_s",
                r.direct_time_s.map_or(Json::Null, Json::Num),
            ),
            ("direct_cost", r.direct_cost.map_or(Json::Null, Json::Num)),
            ("cost_ratio", r.ratio().map_or(Json::Null, Json::Num)),
        ]));
    }

    let (largest_n, largest_s) = largest.expect("sweep is non-empty");
    let parity_ok = worst_ratio.is_none_or(|(_, w)| w <= PARITY_LIMIT);
    let wallclock_ok = largest_s < WALLCLOCK_LIMIT_S;
    let doc = obj(vec![
        (
            "config",
            obj(vec![
                ("regions", Json::Num(20.0)),
                ("coarsen_cutoff", Json::Num(ml.coarsen_cutoff as f64)),
                ("match_rounds", Json::Num(ml.match_rounds as f64)),
                ("refine_passes", Json::Num(ml.refine_passes as f64)),
                ("direct_limit", Json::Num(cfg.direct_limit as f64)),
                ("seed", Json::Num(cfg.seed as f64)),
                ("quick", Json::Bool(cfg.quick)),
            ]),
        ),
        ("runs", Json::Arr(runs)),
        (
            "gates",
            obj(vec![
                ("parity_limit", Json::Num(PARITY_LIMIT)),
                (
                    "worst_cost_ratio",
                    worst_ratio.map_or(Json::Null, |(_, w)| Json::Num(w)),
                ),
                (
                    "worst_ratio_n",
                    worst_ratio.map_or(Json::Null, |(n, _)| Json::Num(n as f64)),
                ),
                ("parity_within_5pct", Json::Bool(parity_ok)),
                ("wallclock_limit_s", Json::Num(WALLCLOCK_LIMIT_S)),
                ("largest_n", Json::Num(largest_n as f64)),
                ("largest_n_time_s", Json::Num(largest_s)),
                ("single_digit_seconds", Json::Bool(wallclock_ok)),
            ]),
        ),
    ]);
    std::fs::write(&cfg.out, format!("{}\n", doc.emit()))
        .map_err(|e| format!("cannot write {:?}: {e}", cfg.out))?;

    // Cost parity is solver quality, not hardware speed: it gates in
    // quick mode too. The wall-clock gate is the acceptance-scale claim
    // and only means something on the full sweep.
    if !parity_ok {
        let (n, w) = worst_ratio.expect("parity can only fail where direct ran");
        return Err(format!(
            "multilevel cost at N={n} is {:.2}% of direct — outside the 5% band",
            w * 100.0
        ));
    }
    if !cfg.quick && !wallclock_ok {
        return Err(format!(
            "N={largest_n} took {largest_s:.3} s; the acceptance gate is < {WALLCLOCK_LIMIT_S} s"
        ));
    }
    Ok(format!(
        "wrote {}: N={largest_n} in {largest_s:.3} s{}",
        cfg.out,
        worst_ratio.map_or(String::new(), |(n, w)| format!(
            "; worst cost ratio {w:.4} (at N={n})"
        ))
    ))
}

fn main() -> ExitCode {
    match run() {
        Ok(msg) => {
            println!("{msg}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("multilevel_bench: {e}");
            ExitCode::FAILURE
        }
    }
}

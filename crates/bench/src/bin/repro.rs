//! Reproduce the paper's tables and figures.
//!
//! ```text
//! repro <experiment>... [--quick] [--seed N] [--out DIR] [--no-csv]
//!                       [--metrics FILE|-] [--trace FILE|-]
//! repro all [--quick]
//! repro list
//! ```

use geomap_bench::experiments::{self, ALL_EXPERIMENTS};
use geomap_bench::util::default_results_dir;
use geomap_bench::ExpContext;
use geomap_core::{JsonLinesSink, Metrics, RingBufferSink, Trace};
use std::io::Write as _;
use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::Arc;

/// Retained trace events before the ring starts evicting the oldest.
const TRACE_CAPACITY: usize = 1 << 20;

/// Where `--trace` writes the Chrome JSON when the run finishes. The
/// file is created at argument-parse time so a bad path fails fast,
/// before hours of experiments.
enum TraceDest {
    Stdout,
    File(PathBuf, std::fs::File),
}

fn usage() -> ExitCode {
    eprintln!(
        "usage: repro <experiment>... [--quick] [--seed N] [--out DIR] [--no-csv] \
         [--metrics FILE|-] [--trace FILE|-]"
    );
    eprintln!("       repro all | list");
    eprintln!("experiments: {}", ALL_EXPERIMENTS.join(" "));
    eprintln!("`-` streams to stdout; --trace writes Chrome trace-event JSON (Perfetto)");
    ExitCode::FAILURE
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut ids: Vec<String> = Vec::new();
    let mut ctx = ExpContext {
        quick: false,
        seed: 0x5C17,
        out_dir: Some(default_results_dir()),
        metrics: Metrics::off(),
    };
    let mut trace_out: Option<(Arc<RingBufferSink>, TraceDest)> = None;

    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--quick" => ctx.quick = true,
            "--no-csv" => ctx.out_dir = None,
            "--seed" => {
                i += 1;
                let Some(v) = args.get(i).and_then(|s| s.parse().ok()) else {
                    eprintln!("--seed needs an integer");
                    return usage();
                };
                ctx.seed = v;
            }
            "--out" => {
                i += 1;
                let Some(v) = args.get(i) else {
                    eprintln!("--out needs a directory");
                    return usage();
                };
                ctx.out_dir = Some(PathBuf::from(v));
            }
            "--metrics" => {
                i += 1;
                let Some(v) = args.get(i) else {
                    eprintln!("--metrics needs a file path (or `-` for stdout)");
                    return usage();
                };
                let sink = if v == "-" {
                    JsonLinesSink::from_writer(std::io::stdout())
                } else {
                    let path = PathBuf::from(v);
                    match JsonLinesSink::create(&path) {
                        Ok(s) => s,
                        Err(e) => {
                            eprintln!("--metrics: cannot create {}: {e}", path.display());
                            return ExitCode::FAILURE;
                        }
                    }
                };
                let trace = ctx.metrics.trace().clone();
                ctx.metrics = Metrics::new(Arc::new(sink)).with_trace(trace);
            }
            "--trace" => {
                i += 1;
                let Some(v) = args.get(i) else {
                    eprintln!("--trace needs a file path (or `-` for stdout)");
                    return usage();
                };
                let dest = if v == "-" {
                    TraceDest::Stdout
                } else {
                    let path = PathBuf::from(v);
                    match std::fs::File::create(&path) {
                        Ok(f) => TraceDest::File(path, f),
                        Err(e) => {
                            eprintln!("--trace: cannot create {v}: {e}");
                            return ExitCode::FAILURE;
                        }
                    }
                };
                let sink = Arc::new(RingBufferSink::new(TRACE_CAPACITY));
                ctx.metrics = ctx.metrics.with_trace(Trace::new(sink.clone()));
                trace_out = Some((sink, dest));
            }
            "list" => {
                for id in ALL_EXPERIMENTS {
                    println!("{id}");
                }
                return ExitCode::SUCCESS;
            }
            "all" => ids.extend(ALL_EXPERIMENTS.iter().map(|s| s.to_string())),
            flag if flag.starts_with("--") => {
                eprintln!("unknown flag {flag}");
                return usage();
            }
            id => ids.push(id.to_string()),
        }
        i += 1;
    }

    if ids.is_empty() {
        return usage();
    }

    for id in &ids {
        if !experiments::run(id, &ctx) {
            eprintln!("unknown experiment {id:?}");
            return usage();
        }
        println!();
    }
    ctx.metrics.flush();
    if let Some((sink, dest)) = trace_out {
        if sink.dropped() > 0 {
            eprintln!(
                "--trace: ring buffer full, dropped the oldest {} events",
                sink.dropped()
            );
        }
        let json = sink.to_chrome_json();
        match dest {
            TraceDest::Stdout => {
                if let Err(e) = std::io::stdout().write_all(json.as_bytes()) {
                    eprintln!("--trace: write to stdout failed: {e}");
                    return ExitCode::FAILURE;
                }
            }
            TraceDest::File(path, mut f) => {
                if let Err(e) = f.write_all(json.as_bytes()) {
                    eprintln!("--trace: write {} failed: {e}", path.display());
                    return ExitCode::FAILURE;
                }
                println!(
                    "  -> wrote {} (load in Perfetto / chrome://tracing)",
                    path.display()
                );
            }
        }
    }
    ExitCode::SUCCESS
}

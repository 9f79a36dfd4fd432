//! Shared harness utilities: experiment context, CSV output, metrics.

use geomap_core::Metrics;
use std::fmt::Write as _;
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// Shared knobs of an experiment run.
#[derive(Debug, Clone)]
pub struct ExpContext {
    /// Shrink sample counts and sweeps for smoke tests.
    pub quick: bool,
    /// Master seed; every derived RNG hangs off this.
    pub seed: u64,
    /// Output directory for CSV artifacts (`None` = don't write).
    pub out_dir: Option<PathBuf>,
    /// Observability handle; experiments scope it per figure/app/mapper
    /// and thread it into the mappers and the simulated runtime, so one
    /// run yields a metrics stream and a Perfetto-loadable timeline.
    /// Disabled by default (`repro --metrics <path>` turns the sink on,
    /// `repro --trace <path>` attaches a trace).
    pub metrics: Metrics,
}

impl Default for ExpContext {
    fn default() -> Self {
        Self {
            quick: false,
            seed: 0x5C17,
            out_dir: Some(default_results_dir()),
            metrics: Metrics::off(),
        }
    }
}

impl ExpContext {
    /// Quick-mode context writing nowhere (for tests).
    pub fn smoke() -> Self {
        Self {
            quick: true,
            seed: 0x5C17,
            out_dir: None,
            metrics: Metrics::off(),
        }
    }

    /// Pick `full` normally, `quick` under `--quick`.
    pub fn scaled(&self, full: usize, quick: usize) -> usize {
        if self.quick {
            quick
        } else {
            full
        }
    }

    /// Write a CSV artifact (no-op when `out_dir` is `None`).
    pub fn write_csv(&self, name: &str, contents: &str) {
        let Some(dir) = &self.out_dir else { return };
        std::fs::create_dir_all(dir).expect("create results dir");
        let path = dir.join(name);
        std::fs::write(&path, contents).unwrap_or_else(|e| panic!("write {path:?}: {e}"));
        println!("  -> wrote {}", path.display());
    }
}

/// `results/` next to the workspace root, overridable via
/// `GEOMAP_RESULTS`.
pub fn default_results_dir() -> PathBuf {
    std::env::var_os("GEOMAP_RESULTS").map_or_else(|| PathBuf::from("results"), PathBuf::from)
}

/// Percentage improvement of `value` over `baseline` (the paper's
/// figures-of-merit): `(baseline − value)/baseline · 100`.
pub fn improvement_pct(baseline: f64, value: f64) -> f64 {
    assert!(baseline > 0.0, "baseline must be positive, got {baseline}");
    (baseline - value) / baseline * 100.0
}

/// Wall-clock a closure, returning `(result, elapsed)`.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, Duration) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed())
}

/// Simple CSV assembly: header plus rows of stringified cells.
pub struct Csv {
    buf: String,
    cols: usize,
}

impl Csv {
    /// Start a CSV with the given header columns.
    pub fn new(header: &[&str]) -> Self {
        let mut buf = String::new();
        writeln!(buf, "{}", header.join(",")).unwrap();
        Self {
            buf,
            cols: header.len(),
        }
    }

    /// Append a row.
    ///
    /// # Panics
    /// Panics if the column count doesn't match the header.
    pub fn row(&mut self, cells: &[String]) -> &mut Self {
        assert_eq!(cells.len(), self.cols, "row width mismatch");
        writeln!(self.buf, "{}", cells.join(",")).unwrap();
        self
    }

    /// Finish and return the contents.
    pub fn finish(self) -> String {
        self.buf
    }
}

/// Format seconds compactly for table output.
pub fn fmt_secs(s: f64) -> String {
    if s < 1e-3 {
        format!("{:.1}us", s * 1e6)
    } else if s < 1.0 {
        format!("{:.2}ms", s * 1e3)
    } else {
        format!("{s:.2}s")
    }
}

/// Mean of a slice.
pub fn mean(v: &[f64]) -> f64 {
    assert!(!v.is_empty(), "mean of empty slice");
    v.iter().sum::<f64>() / v.len() as f64
}

/// Sample standard error of the mean (0 for fewer than two samples).
pub fn std_error(v: &[f64]) -> f64 {
    if v.len() < 2 {
        return 0.0;
    }
    let m = mean(v);
    let var = v.iter().map(|x| (x - m).powi(2)).sum::<f64>() / (v.len() - 1) as f64;
    (var / v.len() as f64).sqrt()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn improvement_math() {
        assert_eq!(improvement_pct(100.0, 50.0), 50.0);
        assert_eq!(improvement_pct(100.0, 100.0), 0.0);
        assert!(improvement_pct(100.0, 110.0) < 0.0);
    }

    #[test]
    fn csv_assembly() {
        let mut c = Csv::new(&["a", "b"]);
        c.row(&["1".into(), "2".into()]);
        let s = c.finish();
        assert_eq!(s, "a,b\n1,2\n");
    }

    #[test]
    #[should_panic(expected = "width")]
    fn csv_checks_width() {
        Csv::new(&["a"]).row(&["1".into(), "2".into()]);
    }

    #[test]
    fn stats_helpers() {
        let v = [1.0, 2.0, 3.0];
        assert_eq!(mean(&v), 2.0);
        assert!(std_error(&v) > 0.0);
        assert_eq!(std_error(&[5.0]), 0.0);
    }

    #[test]
    fn scaled_picks_by_mode() {
        let mut ctx = ExpContext::smoke();
        assert_eq!(ctx.scaled(100, 5), 5);
        ctx.quick = false;
        assert_eq!(ctx.scaled(100, 5), 100);
    }

    #[test]
    fn fmt_secs_ranges() {
        assert!(fmt_secs(5e-5).ends_with("us"));
        assert!(fmt_secs(5e-2).ends_with("ms"));
        assert!(fmt_secs(2.0).ends_with('s'));
    }
}

//! The perf-trajectory regression gate.
//!
//! The bench harness writes each run's timings to `BENCH_<suite>.json`
//! (median ns/iter plus dispersion per benchmark id). This module
//! parses those reports and compares a current run against a
//! checked-in baseline:
//!
//! * Only ids matching the configured prefixes are gated (default: the
//!   paper's hot kernels — round-two and row-merge — and the control
//!   frame path, whose regressions would invalidate the scaling
//!   claims).
//! * When both reports contain the [`CALIBRATION_ID`] benchmark (a
//!   fixed pure-integer workload), current medians are scaled by
//!   `baseline_calibration / current_calibration` first, so a slower
//!   or faster CI machine does not read as a kernel change.
//! * A gated id regresses when its normalized median exceeds the
//!   baseline median by more than `threshold` (default 25 %).
//!
//! The `regress` binary wraps [`compare`] for CI: exit 0 on pass,
//! 1 on regression, 2 on operational errors (unreadable files, no
//! gated benchmarks matched — a silent-pass guard).

use crate::json::{self, Value};

/// Benchmark id of the calibration workload used to normalize across
/// machines.
pub const CALIBRATION_ID: &str = "calibration/spin";

/// Id prefixes gated by default: the round-two and merge kernels, in
/// both the row-store working-set sweep and the stand-alone suites, the
/// control-frame path (socket → router ingest, tick → bytes) the
/// end-to-end ledger ranks above them, and the membership path (a SWIM
/// packet, an anti-entropy round, a view install) it ranks above both
/// wherever views change.
pub const DEFAULT_KERNEL_PREFIXES: &[&str] = &[
    "row_store",
    "round_two_full",
    "round_two_tick",
    "frame_path",
    "membership",
];

/// Default regression threshold: fail above +25 % median.
pub const DEFAULT_THRESHOLD: f64 = 0.25;

/// One benchmark's timings from a `BENCH_*.json` report.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchRecord {
    /// Benchmark id (`group/function/param`).
    pub id: String,
    /// Median ns per iteration across sample slices.
    pub median_ns: f64,
    /// Median absolute deviation of the slice medians, ns.
    pub mad_ns: f64,
    /// Sample slices measured.
    pub samples: u64,
    /// Total iterations timed.
    pub iters: u64,
}

/// A parsed `BENCH_<suite>.json`.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchReport {
    /// Suite name (the bench target, e.g. `kernels`).
    pub suite: String,
    /// Per-benchmark records, in run order.
    pub benches: Vec<BenchRecord>,
}

impl BenchReport {
    /// Find a record by exact id.
    #[must_use]
    pub fn find(&self, id: &str) -> Option<&BenchRecord> {
        self.benches.iter().find(|b| b.id == id)
    }
}

/// Parse a `BENCH_*.json` document.
///
/// # Errors
/// Returns a message when the document is not JSON or lacks the
/// required fields.
pub fn parse_report(text: &str) -> Result<BenchReport, String> {
    let v = json::parse(text)?;
    let suite = v
        .get("suite")
        .and_then(Value::as_str)
        .ok_or("report missing \"suite\"")?
        .to_string();
    let benches = v
        .get("benches")
        .and_then(Value::as_array)
        .ok_or("report missing \"benches\"")?;
    let mut records = Vec::with_capacity(benches.len());
    for b in benches {
        let id = b
            .get("id")
            .and_then(Value::as_str)
            .ok_or("bench missing \"id\"")?
            .to_string();
        let median_ns = b
            .get("median_ns")
            .and_then(Value::as_f64)
            .ok_or_else(|| format!("bench {id} missing \"median_ns\""))?;
        let mad_ns = b.get("mad_ns").and_then(Value::as_f64).unwrap_or(0.0);
        let samples = b.get("samples").and_then(Value::as_f64).unwrap_or(0.0) as u64;
        let iters = b.get("iters").and_then(Value::as_f64).unwrap_or(0.0) as u64;
        records.push(BenchRecord {
            id,
            median_ns,
            mad_ns,
            samples,
            iters,
        });
    }
    Ok(BenchReport {
        suite,
        benches: records,
    })
}

/// Gate configuration.
#[derive(Debug, Clone)]
pub struct RegressConfig {
    /// Fail when `normalized_current > baseline * (1 + threshold)`.
    pub threshold: f64,
    /// Only ids starting with one of these prefixes are gated.
    pub prefixes: Vec<String>,
    /// Normalize by the calibration benchmark when both reports have
    /// it.
    pub calibrate: bool,
}

impl Default for RegressConfig {
    fn default() -> Self {
        RegressConfig {
            threshold: DEFAULT_THRESHOLD,
            prefixes: DEFAULT_KERNEL_PREFIXES
                .iter()
                .map(|s| (*s).to_string())
                .collect(),
            calibrate: true,
        }
    }
}

/// One gated benchmark's baseline-vs-current comparison.
#[derive(Debug, Clone)]
pub struct Comparison {
    /// Benchmark id.
    pub id: String,
    /// Baseline median, ns.
    pub baseline_ns: f64,
    /// Current median after calibration scaling, ns.
    pub current_ns: f64,
    /// `current_ns / baseline_ns` (1.0 = unchanged; 2.0 = 2× slower).
    pub ratio: f64,
    /// Did this id trip the threshold?
    pub regressed: bool,
}

/// The gate's full verdict.
#[derive(Debug, Clone)]
pub struct Verdict {
    /// Every gated comparison, in baseline order.
    pub compared: Vec<Comparison>,
    /// The calibration scale applied to current medians (1.0 when
    /// disabled or unavailable).
    pub scale: f64,
}

impl Verdict {
    /// The comparisons that tripped the threshold.
    #[must_use]
    pub fn regressions(&self) -> Vec<&Comparison> {
        self.compared.iter().filter(|c| c.regressed).collect()
    }

    /// Did the gate pass?
    #[must_use]
    pub fn passed(&self) -> bool {
        self.compared.iter().all(|c| !c.regressed)
    }
}

/// Compare `current` against `baseline` under `cfg`.
///
/// Benchmarks present in only one report are skipped (renames should
/// update the baseline in the same PR); the binary treats an empty
/// comparison set as an operational error so drift cannot silently
/// pass.
#[must_use]
pub fn compare(baseline: &BenchReport, current: &BenchReport, cfg: &RegressConfig) -> Verdict {
    let scale = if cfg.calibrate {
        match (baseline.find(CALIBRATION_ID), current.find(CALIBRATION_ID)) {
            (Some(b), Some(c)) if b.median_ns > 0.0 && c.median_ns > 0.0 => {
                b.median_ns / c.median_ns
            }
            _ => 1.0,
        }
    } else {
        1.0
    };
    let gated = |id: &str| cfg.prefixes.iter().any(|p| id.starts_with(p.as_str()));
    let mut compared = Vec::new();
    for base in baseline.benches.iter().filter(|b| gated(&b.id)) {
        let Some(cur) = current.find(&base.id) else {
            continue;
        };
        if base.median_ns <= 0.0 {
            continue;
        }
        let current_ns = cur.median_ns * scale;
        let ratio = current_ns / base.median_ns;
        compared.push(Comparison {
            id: base.id.clone(),
            baseline_ns: base.median_ns,
            current_ns,
            ratio,
            regressed: ratio > 1.0 + cfg.threshold,
        });
    }
    Verdict { compared, scale }
}

/// Render a verdict as a GitHub-flavored markdown delta table — one
/// row per gated benchmark with baseline/current medians and the
/// ratio, so a baseline refresh is reviewable at a glance instead of
/// a bare exit code. The `current` column is calibration-normalized
/// (the applied scale is stated under the table when it is not 1.0).
#[must_use]
pub fn summary_markdown(verdict: &Verdict) -> String {
    let mut out = String::new();
    out.push_str(if verdict.passed() {
        "### Perf trajectory: pass\n\n"
    } else {
        "### Perf trajectory: REGRESSED\n\n"
    });
    out.push_str("| benchmark | baseline (ns) | current (ns) | ratio | status |\n");
    out.push_str("|---|---:|---:|---:|---|\n");
    for c in &verdict.compared {
        let status = if c.regressed {
            "regressed"
        } else if c.ratio < 1.0 {
            "improved"
        } else {
            "ok"
        };
        out.push_str(&format!(
            "| `{}` | {:.0} | {:.0} | {:.2}× | {status} |\n",
            c.id, c.baseline_ns, c.current_ns, c.ratio
        ));
    }
    if verdict.compared.is_empty() {
        out.push_str("| _no gated benchmarks matched_ | | | | |\n");
    }
    if (verdict.scale - 1.0).abs() > 1e-12 {
        out.push_str(&format!(
            "\nCurrent medians scaled by {:.3} (calibration normalization).\n",
            verdict.scale
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report(suite: &str, entries: &[(&str, f64)]) -> BenchReport {
        BenchReport {
            suite: suite.to_string(),
            benches: entries
                .iter()
                .map(|(id, median)| BenchRecord {
                    id: (*id).to_string(),
                    median_ns: *median,
                    mad_ns: median * 0.05,
                    samples: 16,
                    iters: 1000,
                })
                .collect(),
        }
    }

    fn kernel_entries(scale: f64) -> Vec<(&'static str, f64)> {
        vec![
            ("calibration/spin", 1000.0),
            ("row_store/merge/400", 5_000.0 * scale),
            ("row_store/best_hop/400", 700.0 * scale),
            ("row_store/round_two/400", 90_000.0 * scale),
            ("wire/encode/400", 10_000.0 * scale), // not gated
        ]
    }

    #[test]
    fn identical_reports_pass() {
        let base = report("kernels", &kernel_entries(1.0));
        let verdict = compare(&base, &base, &RegressConfig::default());
        assert!(verdict.passed());
        assert_eq!(verdict.compared.len(), 3, "only gated kernels compared");
        assert_eq!(verdict.scale, 1.0);
    }

    #[test]
    fn synthetic_two_x_slowdown_fails() {
        let base = report("kernels", &kernel_entries(1.0));
        let slow = report("kernels", &kernel_entries(2.0));
        let verdict = compare(&base, &slow, &RegressConfig::default());
        assert!(!verdict.passed());
        assert_eq!(verdict.regressions().len(), 3, "every gated kernel trips");
        for c in verdict.regressions() {
            assert!((c.ratio - 2.0).abs() < 1e-9, "{}: ratio {}", c.id, c.ratio);
        }
    }

    #[test]
    fn within_threshold_noise_passes() {
        let base = report("kernels", &kernel_entries(1.0));
        let noisy = report("kernels", &kernel_entries(1.2));
        assert!(compare(&base, &noisy, &RegressConfig::default()).passed());
    }

    #[test]
    fn ungated_regressions_do_not_fail() {
        let base = report("kernels", &kernel_entries(1.0));
        let mut slow_wire = report("kernels", &kernel_entries(1.0));
        slow_wire
            .benches
            .iter_mut()
            .find(|b| b.id.starts_with("wire/"))
            .unwrap()
            .median_ns *= 10.0;
        assert!(compare(&base, &slow_wire, &RegressConfig::default()).passed());
    }

    #[test]
    fn calibration_normalizes_machine_speed() {
        let base = report("kernels", &kernel_entries(1.0));
        // A machine uniformly 2× slower: calibration *and* kernels all
        // doubled. Normalization cancels it out.
        let mut slower_machine = report("kernels", &kernel_entries(2.0));
        slower_machine
            .benches
            .iter_mut()
            .find(|b| b.id == CALIBRATION_ID)
            .unwrap()
            .median_ns = 2000.0;
        let verdict = compare(&base, &slower_machine, &RegressConfig::default());
        assert!((verdict.scale - 0.5).abs() < 1e-9);
        assert!(verdict.passed(), "uniform slowdown is not a regression");
        // Without calibration the same reports would fail.
        let cfg = RegressConfig {
            calibrate: false,
            ..RegressConfig::default()
        };
        assert!(!compare(&base, &slower_machine, &cfg).passed());
    }

    #[test]
    fn summary_markdown_lists_every_gated_bench() {
        let base = report("kernels", &kernel_entries(1.0));
        let current = {
            let mut c = report("kernels", &kernel_entries(1.0));
            // One kernel 2× slower, one 2× faster.
            c.benches[1].median_ns *= 2.0;
            c.benches[2].median_ns *= 0.5;
            c
        };
        let verdict = compare(&base, &current, &RegressConfig::default());
        let md = summary_markdown(&verdict);
        assert!(md.contains("REGRESSED"));
        assert!(md.contains("| `row_store/merge/400` | 5000 | 10000 | 2.00× | regressed |"));
        assert!(md.contains("| `row_store/best_hop/400` | 700 | 350 | 0.50× | improved |"));
        assert!(md.contains("| `row_store/round_two/400` | 90000 | 90000 | 1.00× | ok |"));
        assert!(!md.contains("wire/encode"), "ungated ids stay out");
        assert!(
            !md.contains("scaled by"),
            "no calibration note at scale 1.0"
        );

        let pass = compare(&base, &base, &RegressConfig::default());
        assert!(summary_markdown(&pass).contains("Perf trajectory: pass"));
    }

    #[test]
    fn report_roundtrips_through_parser() {
        let text = r#"{
  "suite": "kernels",
  "benches": [
    {"id": "row_store/merge/400", "median_ns": 5000.0, "mad_ns": 12.5, "samples": 16, "iters": 9000},
    {"id": "calibration/spin", "median_ns": 1000, "mad_ns": 1, "samples": 16, "iters": 90000}
  ]
}"#;
        let r = parse_report(text).unwrap();
        assert_eq!(r.suite, "kernels");
        assert_eq!(r.benches.len(), 2);
        assert_eq!(r.find(CALIBRATION_ID).unwrap().median_ns, 1000.0);
        assert_eq!(r.benches[0].iters, 9000);
        assert!(parse_report("{\"benches\": []}").is_err(), "missing suite");
        assert!(parse_report("not json").is_err());
    }
}

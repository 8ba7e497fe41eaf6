//! Printing: the result line the driver reads, the tables a person
//! reads, the results file, and the comparison of two such files.

use crate::json::{self, Value};
use crate::run::RunResult;
use crate::spec::{self, Better, Metric};
use std::fmt::Write as _;

/// The two metrics a disturbed host makes untrustworthy; the rest
/// are counts and repeat exactly.
fn is_timing(name: &str) -> bool {
    matches!(name, "setup_s" | "cpu_s")
}

/// The one-line JSON object a driver run ends with. `{}` prints an
/// `f64` with every digit needed to read it back exactly.
pub fn result_line(result: &RunResult, traced: bool) -> String {
    let (specs, values) = if traced {
        (spec::PER_LAYER, &result.per_layer)
    } else {
        (spec::END_TO_END, &result.end_to_end)
    };
    let body: Vec<String> = specs
        .iter()
        .zip(values)
        .map(|(m, (name, value))| {
            format!(
                "\"{name}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        result.correct,
        result.attempted,
        result.failed,
        body.join(", ")
    )
}

/// How the run went, on standard error.
pub fn explain(workload: &str, result: &RunResult) {
    eprintln!(
        "{workload}: {} repetitions in {:.1} s, cpu_s {:.3}..{:.3}, steal share {:.3}{}",
        result.reps,
        result.wall_s,
        result.cpu_range_s.0,
        result.cpu_range_s.1,
        result.steal_share,
        if result.unresolved {
            " — unresolved: no repetition ran undisturbed"
        } else {
            ""
        }
    );
    for problem in &result.problems {
        eprintln!("{workload}: FAILED: {problem}");
    }
}

fn table(title: &str, specs: &[Metric], values: &[(&'static str, f64)], unresolved: bool) {
    println!("{title}");
    for (m, (name, value)) in specs.iter().zip(values) {
        debug_assert_eq!(m.name, *name);
        let bound = m.bound.map_or(String::new(), |b| {
            format!("  may worsen {:.1} %", b * 100.0)
        });
        // Timings of a run with no clean repetition are withheld.
        let shown = if unresolved && is_timing(m.name) {
            "unresolved".to_string()
        } else {
            format!("{value:.6}")
        };
        println!(
            "  {:<38} {shown:>16} {:<6} {} is better{bound}",
            m.name,
            m.unit,
            m.better.as_str()
        );
    }
}

pub fn print_tables(workload: &str, result: &RunResult) {
    println!(
        "== {workload}: {} ({} route queries, {} failed)",
        if result.correct {
            "correct"
        } else {
            "INCORRECT"
        },
        result.attempted,
        result.failed
    );
    table(
        "  -- end to end (untraced repetitions)",
        spec::END_TO_END,
        &result.end_to_end,
        result.unresolved,
    );
    if !result.per_layer.is_empty() {
        table(
            "  -- per layer (traced repetition)",
            spec::PER_LAYER,
            &result.per_layer,
            false,
        );
    }
}

/// The file `--json` writes and `--compare` reads.
pub fn results_json(seed: u64, results: &[(&'static str, RunResult)]) -> String {
    let object = |metrics: &[(&'static str, f64)]| {
        let body: Vec<String> = metrics
            .iter()
            .map(|(name, value)| format!("\"{name}\": {value}"))
            .collect();
        format!("{{{}}}", body.join(", "))
    };
    let mut out = format!("{{\n  \"seed\": {seed},\n  \"workloads\": {{");
    for (k, (name, r)) in results.iter().enumerate() {
        let _ = write!(
            out,
            "{}\n    \"{name}\": {{\"correct\": {}, \"unresolved\": {}, \"attempted\": {}, \"failed\": {},\n      \
             \"end_to_end\": {},\n      \"per_layer\": {}}}",
            if k > 0 { "," } else { "" },
            r.correct,
            r.unresolved,
            r.attempted,
            r.failed,
            object(&r.end_to_end),
            object(&r.per_layer),
        );
    }
    out.push_str("\n  }\n}\n");
    out
}

/// How much worse `new` is than `old`, as a share of `old`; negative
/// when it got better.
pub fn worsening(better: Better, old: f64, new: f64) -> f64 {
    match better {
        Better::Lower => (new - old) / old,
        Better::Higher => (old - new) / old,
    }
}

#[derive(Debug, PartialEq, Eq, Clone, Copy)]
pub enum Verdict {
    Ok,
    Worse,
    Unresolved,
}

pub fn verdict(metric: &Metric, old: f64, new: f64, unresolved: bool) -> Verdict {
    let bound = metric.bound.expect("end-to-end metrics are bounded");
    if unresolved && is_timing(metric.name) {
        Verdict::Unresolved
    } else if worsening(metric.better, old, new) > bound {
        Verdict::Worse
    } else {
        Verdict::Ok
    }
}

/// Compare results file `b` against `a`, workload by workload and
/// end-to-end metric by metric. `Ok(false)` when anything is `worse`.
pub fn compare(a: &str, b: &str) -> Result<bool, String> {
    let load = |path: &str| -> Result<Value, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        json::parse(&text).map_err(|e| format!("{path}: {e}"))
    };
    let (a_doc, b_doc) = (load(a)?, load(b)?);
    let mut all_ok = true;
    for workload in spec::WORKLOADS {
        let side = |doc: &Value, path: &str| -> Result<Value, String> {
            doc.get("workloads")
                .and_then(|w| w.get(workload.name))
                .cloned()
                .ok_or(format!("{path}: no workload {}", workload.name))
        };
        let (wa, wb) = (side(&a_doc, a)?, side(&b_doc, b)?);
        let unresolved = [&wa, &wb]
            .iter()
            .any(|w| w.get("unresolved") != Some(&Value::Bool(false)));
        println!("== {}", workload.name);
        for metric in spec::END_TO_END {
            let read = |w: &Value, path: &str| -> Result<f64, String> {
                w.get("end_to_end")
                    .and_then(|m| m.get(metric.name))
                    .and_then(Value::as_f64)
                    .ok_or(format!("{path}: {} has no {}", workload.name, metric.name))
            };
            let (old, new) = (read(&wa, a)?, read(&wb, b)?);
            let verdict = verdict(metric, old, new, unresolved);
            all_ok &= verdict != Verdict::Worse;
            println!(
                "  {:<24} {old:>16.6} -> {new:>16.6} {:<6} {:+8.3} % (bound {:.1} %)  {}",
                metric.name,
                metric.unit,
                worsening(metric.better, old, new) * 100.0,
                metric.bound.unwrap_or(0.0) * 100.0,
                match verdict {
                    Verdict::Ok => "ok",
                    Verdict::Worse => "worse",
                    Verdict::Unresolved => "unresolved",
                }
            );
        }
    }
    Ok(all_ok)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn result() -> RunResult {
        RunResult {
            correct: true,
            problems: Vec::new(),
            attempted: 4000,
            failed: 0,
            end_to_end: spec::END_TO_END
                .iter()
                .enumerate()
                .map(|(k, m)| (m.name, 1.5 + k as f64))
                .collect(),
            per_layer: spec::PER_LAYER.iter().map(|m| (m.name, 0.25)).collect(),
            unresolved: false,
            reps: 2,
            steal_share: 0.0,
            cpu_range_s: (1.0, 2.0),
            wall_s: 3.0,
        }
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        for traced in [false, true] {
            let line = result_line(&result(), traced);
            assert!(!line.contains('\n'));
            let v = json::parse(&line).expect("result line is JSON");
            let keys: Vec<&str> = v
                .as_object()
                .unwrap()
                .iter()
                .map(|(k, _)| k.as_str())
                .collect();
            assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
            let metrics = v.get("metrics").and_then(Value::as_object).unwrap();
            let expected = if traced {
                spec::PER_LAYER
            } else {
                spec::END_TO_END
            };
            assert_eq!(metrics.len(), expected.len());
            for ((name, body), m) in metrics.iter().zip(expected) {
                assert_eq!(name, m.name);
                assert_eq!(body.get("unit").and_then(Value::as_str), Some(m.unit));
                assert!(body.get("value").and_then(Value::as_f64).is_some());
            }
        }
    }

    #[test]
    fn results_file_round_trips_through_the_reader() {
        let text = results_json(7, &[("ron-196", result())]);
        let v = json::parse(&text).expect("results file is JSON");
        let w = v.get("workloads").and_then(|w| w.get("ron-196")).unwrap();
        assert_eq!(w.get("unresolved"), Some(&Value::Bool(false)));
        let cpu = w.get("end_to_end").and_then(|m| m.get("cpu_s"));
        assert_eq!(cpu.and_then(Value::as_f64), Some(2.5));
    }

    #[test]
    fn verdicts_follow_direction_and_bound() {
        let cpu = spec::END_TO_END.iter().find(|m| m.name == "cpu_s").unwrap();
        let bound = cpu.bound.unwrap();
        assert_eq!(
            verdict(cpu, 10.0, 10.0 * (1.0 + bound * 0.9), false),
            Verdict::Ok
        );
        assert_eq!(
            verdict(cpu, 10.0, 10.0 * (1.0 + bound * 1.1), false),
            Verdict::Worse
        );
        assert_eq!(verdict(cpu, 10.0, 5.0, false), Verdict::Ok);
        assert_eq!(verdict(cpu, 10.0, 20.0, true), Verdict::Unresolved);
        let coverage = spec::END_TO_END
            .iter()
            .find(|m| m.name == "coverage")
            .unwrap();
        assert_eq!(verdict(coverage, 1.0, 0.9, false), Verdict::Worse);
        assert_eq!(verdict(coverage, 0.9, 1.0, false), Verdict::Ok);
        // Counts are exact: disturbance does not excuse them.
        let allocs = spec::END_TO_END
            .iter()
            .find(|m| m.name == "alloc_count")
            .unwrap();
        assert_eq!(verdict(allocs, 100.0, 200.0, true), Verdict::Worse);
    }
}

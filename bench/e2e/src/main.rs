//! End-to-end benchmark of the all-pairs overlay.
//!
//! ```text
//! e2e --workload W --seed N --seconds S --trace 0|1   one run, result as the last line (JSON)
//! e2e [--seed N] [--seconds S] [--json OUT]           every workload, untraced and traced, as tables
//! e2e --smoke                                         the same on n/4 with one repetition each
//! e2e --compare A.json B.json                         B against A within the bounds; exit 1 on `worse`
//! e2e --print-spec                                    BENCHMARK.json
//! ```
//!
//! See `README.md` beside `Cargo.toml` for what is measured and why.

mod fabric;
mod json;
mod meter;
mod node;
mod oracle;
mod report;
mod run;
mod scenario;
mod seeds;
mod spec;
mod stats;

use spec::{Workload, WORKLOADS};
use std::process::ExitCode;

#[global_allocator]
static ALLOC: meter::CountingAlloc = meter::CountingAlloc;

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    json: Option<String>,
    smoke: bool,
    compare: Option<(String, String)>,
    print_spec: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 1,
        seconds: spec::RUN_SECONDS as f64,
        trace: false,
        json: None,
        smoke: false,
        compare: None,
        print_spec: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |what: &str| it.next().ok_or(format!("{flag} needs {what}"));
        match flag.as_str() {
            "--workload" => args.workload = Some(value("a workload name")?),
            "--seed" => {
                args.seed = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?;
            }
            "--seconds" => {
                args.seconds = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
            }
            "--trace" => {
                args.trace = match value("0 or 1")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                };
            }
            "--json" => args.json = Some(value("a path")?),
            "--smoke" => args.smoke = true,
            "--compare" => args.compare = Some((value("two paths")?, value("two paths")?)),
            "--print-spec" => args.print_spec = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(message) => {
            eprintln!("e2e: {message}");
            return ExitCode::from(2);
        }
    };
    if args.print_spec {
        print!("{}", spec::benchmark_json());
        return ExitCode::SUCCESS;
    }
    if let Some((a, b)) = &args.compare {
        return match report::compare(a, b) {
            Ok(true) => ExitCode::SUCCESS,
            Ok(false) => ExitCode::FAILURE,
            Err(message) => {
                eprintln!("e2e: {message}");
                ExitCode::from(2)
            }
        };
    }

    if let Some(name) = &args.workload {
        let Some(workload) = Workload::find(name) else {
            eprintln!("e2e: no workload {name:?}");
            return ExitCode::from(2);
        };
        let result = run::run(
            workload,
            &run::Options {
                seed: args.seed,
                seconds: args.seconds,
                traced: args.trace,
                // A traced run already compares two repetitions, one
                // of each kind.
                min_reps: if args.trace { 1 } else { 2 },
            },
        );
        report::explain(name, &result);
        println!("{}", report::result_line(&result, args.trace));
        return if result.correct {
            ExitCode::SUCCESS
        } else {
            ExitCode::FAILURE
        };
    }

    // Every workload, untraced and traced in one pass each.
    let mut all_correct = true;
    let mut results = Vec::new();
    for workload in WORKLOADS {
        let workload = if args.smoke {
            workload.quartered()
        } else {
            *workload
        };
        let options = run::Options {
            seed: args.seed,
            seconds: if args.smoke { 0.0 } else { args.seconds },
            traced: true,
            min_reps: if args.smoke { 1 } else { 2 },
        };
        let result = run::run(&workload, &options);
        report::explain(workload.name, &result);
        report::print_tables(workload.name, &result);
        all_correct &= result.correct;
        results.push((workload.name, result));
    }
    if let Some(path) = &args.json {
        if let Err(e) = std::fs::write(path, report::results_json(args.seed, &results)) {
            eprintln!("e2e: writing {path}: {e}");
            return ExitCode::from(2);
        }
    }
    if all_correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

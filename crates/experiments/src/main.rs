//! `apor-experiments` — regenerate the paper's tables and figures.
//! [`USAGE`] is the command line; an unknown command or flag prints it
//! on standard error and exits 2.

use apor_experiments::deployment::{self, DeploymentParams};
use apor_experiments::{churn, detour, fig9, multihop_exp, partition, scale};

/// The usage text. Its indented lines are the command table: the first
/// word of each is a command, and [`parse`] admits no other.
const USAGE: &str = "\
usage: apor-experiments [command] [--quick]

commands:
  fig9        routing traffic vs n, RON vs quorum vs section 6.1's closed form (figure 9)
  deployment  failure-laden deployment: figures 8 and 10-14
  multihop    section 3 multi-hop extension claims
  churn       membership churn: SWIM gossip vs centralized coordinator
  partition   partition healing: push-pull anti-entropy on vs off
  detour      recovery CDFs: 1-hop failover vs k-hop feasible detours
  scale       sparse store + netsim at n up to 4096: state, probe bytes, coverage
  all         everything above (the default)

Each study asserts its claim from docs/REPRODUCTION.md after writing
its exports, and exits non-zero when the claim fails.
--quick shrinks the deployment/sweep sizes for a fast smoke run.
CSV series land in ./results (override with APOR_RESULTS_DIR).";

fn commands() -> impl Iterator<Item = &'static str> {
    let table = USAGE.lines().filter(|line| line.starts_with("  "));
    table.filter_map(|line| line.split_whitespace().next())
}

/// The command (`all` when none is named) and whether `--quick` was
/// given. Anything else — a command the table does not list, a second
/// command, another flag — is an error naming the offender.
fn parse(args: &[String]) -> Result<(&str, bool), String> {
    let (mut cmd, mut quick) = (None, false);
    for arg in args {
        match arg.as_str() {
            "--quick" => quick = true,
            flag if flag.starts_with('-') => return Err(format!("unknown flag {flag:?}")),
            name if !commands().any(|known| known == name) => {
                return Err(format!("unknown command {name:?}"));
            }
            name => {
                if let Some(first) = cmd.replace(name) {
                    return Err(format!("two commands, {first:?} and {name:?}"));
                }
            }
        }
    }
    Ok((cmd.unwrap_or("all"), quick))
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (cmd, quick) = parse(&args).unwrap_or_else(|why| {
        eprintln!("{why}\n\n{USAGE}");
        std::process::exit(2);
    });

    let run = |name: &str| cmd == name || cmd == "all";

    if run("fig9") {
        let params = if quick {
            fig9::Fig9Params {
                sizes: vec![25, 49, 81],
                duration_s: 240.0,
                ..Default::default()
            }
        } else {
            fig9::Fig9Params::default()
        };
        fig9::run_and_report(&params).expect("fig9 report");
    }
    if run("deployment") {
        let params = if quick {
            DeploymentParams {
                n: 36,
                minutes: 15.0,
                ..Default::default()
            }
        } else {
            DeploymentParams::default()
        };
        deployment::run_and_report(&params).expect("deployment report");
    }
    if run("multihop") {
        let params = if quick {
            multihop_exp::MultiHopParams {
                sizes: vec![36, 100],
                ..Default::default()
            }
        } else {
            multihop_exp::MultiHopParams::default()
        };
        multihop_exp::run_and_report(&params).expect("multihop report");
    }
    if run("churn") {
        let params = if quick {
            churn::ChurnParams {
                n: 10,
                kill_at_s: 60.0,
                horizon_s: 150.0,
                ..Default::default()
            }
        } else {
            churn::ChurnParams::default()
        };
        churn::run_and_report(&params).expect("churn report");
    }
    if run("partition") {
        let params = if quick {
            partition::PartitionParams {
                horizon_s: 120.0,
                ..Default::default()
            }
        } else {
            partition::PartitionParams::default()
        };
        partition::run_and_report(&params).expect("partition report");
    }
    if run("detour") {
        let params = if quick {
            detour::DetourParams {
                n: 20,
                blackout_at_s: 60.0,
                blackout_s: 120.0,
                horizon_s: 90.0,
                ..Default::default()
            }
        } else {
            detour::DetourParams::default()
        };
        detour::run_and_report(&params).expect("detour report");
    }
    if run("scale") {
        let params = if quick {
            scale::ScaleParams::quick()
        } else {
            scale::ScaleParams::default()
        };
        scale::run_and_report(&params).expect("scale report");
    }
}

#[cfg(test)]
mod tests {
    use super::{commands, parse};

    fn args(line: &str) -> Vec<String> {
        line.split_whitespace().map(str::to_string).collect()
    }

    #[test]
    fn every_listed_command_parses_and_nothing_else_does() {
        assert_eq!(commands().count(), 8);
        for name in commands() {
            assert_eq!(parse(&args(name)), Ok((name, false)));
        }
        assert_eq!(parse(&args("")), Ok(("all", false)));
        assert_eq!(parse(&args("--quick")), Ok(("all", true)));
        assert_eq!(parse(&args("--quick churn")), Ok(("churn", true)));
        // A deleted or folded study must not "pass" in a script that
        // still names it.
        let deleted = "ablations fig1 fig8 fig10 fig14 config theory lower-bound";
        for bad in deleted
            .split(' ')
            .chain(["churn partition", "--fast", "fig9 --quik"])
        {
            assert!(parse(&args(bad)).is_err(), "{bad:?} accepted");
        }
    }

    /// The table and `main` agree: every listed command is one `main`
    /// asks `run(..)` about, and `main` asks about no other.
    #[test]
    fn the_table_is_what_main_dispatches() {
        let asked = include_str!("main.rs").split("run(\"").skip(1);
        let mut dispatched: Vec<&str> = asked.filter_map(|rest| rest.split('"').next()).collect();
        dispatched.push("all");
        dispatched.sort_unstable();
        dispatched.dedup();
        let mut listed: Vec<&str> = commands().collect();
        listed.sort_unstable();
        assert_eq!(dispatched, listed);
    }
}

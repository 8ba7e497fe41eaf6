//! `apor-experiments` — regenerate the paper's tables and figures.
//! [`USAGE`] is the command line; an unknown command or flag prints it
//! on standard error and exits 2.

use apor_analysis::{write_csv, Cdf, Table};
use apor_experiments::deployment::{self, DeploymentData, DeploymentParams};
use apor_experiments::{
    churn, detour, fig1, fig9, lower_bound, multihop_exp, partition, results_path, scale,
    theory_exp,
};

/// The usage text. Its indented lines are the command table: the first
/// word of each is a command, and [`parse`] admits no other.
const USAGE: &str = "\
usage: apor-experiments [command] [--quick]

commands:
  fig1        one-hop detour study (figure 1)
  fig8        concurrent link failures CDF (figure 8)
  fig9        routing traffic vs n, RON vs quorum (figure 9)
  fig10       per-node routing traffic CDF under failures (figure 10)
  fig11       double rendezvous failure CDF (figure 11)
  fig12       route freshness, all pairs (figure 12)
  fig13       route freshness, well-connected node (figure 13)
  fig14       route freshness, poorly-connected node (figure 14)
  config      section 5 parameter table
  theory      section 6.1 closed-form bandwidth & capacity table
  multihop    section 3 multi-hop extension claims
  lower-bound appendix A diamond-counting table
  churn       membership churn: SWIM gossip vs centralized coordinator
  partition   partition healing: push-pull anti-entropy on vs off
  detour      recovery CDFs: 1-hop failover vs k-hop feasible detours
  scale       sparse store + netsim at n up to 4096: state, probe bytes, coverage
  all         everything above (the default)

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
    let mut deployment_cache: Option<DeploymentData> = None;
    let needs_deployment = ["fig8", "fig10", "fig11", "fig12", "fig13", "fig14"]
        .iter()
        .any(|f| run(f));

    if run("config") {
        theory_exp::print_config_table();
    }
    if run("theory") {
        theory_exp::run_and_report().expect("theory report");
    }
    if run("lower-bound") {
        let sizes: &[usize] = if quick {
            &[16, 100, 400]
        } else {
            &[16, 100, 400, 1600, 10_000, 65_536]
        };
        lower_bound::run_and_report(sizes).expect("lower-bound report");
    }
    if run("fig1") {
        let params = if quick {
            fig1::Fig1Params {
                n: 150,
                ..Default::default()
            }
        } else {
            fig1::Fig1Params::default()
        };
        fig1::run_and_report(&params).expect("fig1 report");
    }
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

    if needs_deployment {
        let params = if quick {
            DeploymentParams {
                n: 36,
                minutes: 15.0,
                ..Default::default()
            }
        } else {
            DeploymentParams::default()
        };
        eprintln!(
            "running deployment: n={}, {} minutes of simulated time…",
            params.n, params.minutes
        );
        deployment_cache = Some(deployment::run(&params));
    }

    if let Some(data) = &deployment_cache {
        if run("fig8") {
            report_node_cdf_figure(
                data,
                "Figure 8 — concurrent link failures per node",
                "fig8.csv",
                "concurrent_failures",
                &data.fig8_cdfs(),
            );
        }
        if run("fig10") {
            let (mean, max) = data.fig10_cdfs();
            report_node_cdf_figure(
                data,
                "Figure 10 — per-node routing traffic (bps, in+out)",
                "fig10.csv",
                "routing_bps",
                &(mean, max),
            );
            println!(
                "fleet mean routing: {:.1} Kbps; probing: {:.1} Kbps (theory {:.1})",
                data.mean_routing_bps.iter().sum::<f64>() / data.n as f64 / 1000.0,
                data.mean_probing_bps / 1000.0,
                49.1 * data.n as f64 / 1000.0
            );
        }
        if run("fig11") {
            report_node_cdf_figure(
                data,
                "Figure 11 — destinations with double rendezvous failures",
                "fig11.csv",
                "double_failures",
                &data.fig11_cdfs(),
            );
        }
        if run("fig12") {
            report_freshness_all_pairs(data);
        }
        if run("fig13") {
            report_freshness_single(
                data,
                data.well_connected,
                "Figure 13 — freshness from a well-connected node",
                "fig13.csv",
            );
        }
        if run("fig14") {
            report_freshness_single(
                data,
                data.poorly_connected,
                "Figure 14 — freshness from a poorly-connected node",
                "fig14.csv",
            );
        }
    }
}

/// Shared shape of figures 8/10/11: per-node mean & max CDFs.
fn report_node_cdf_figure(
    data: &DeploymentData,
    title: &str,
    csv: &str,
    metric: &str,
    (mean, max): &(Cdf, Cdf),
) {
    let mut t = Table::new(&["series", "median", "p90", "p98", "max"]);
    for (label, cdf) in [("mean", mean), ("max", max)] {
        t.row(vec![
            label.to_string(),
            format!("{:.2}", cdf.quantile(0.5)),
            format!("{:.2}", cdf.quantile(0.9)),
            format!("{:.2}", cdf.quantile(0.98)),
            format!("{:.2}", cdf.max().unwrap_or(f64::NAN)),
        ]);
    }
    println!("{title} (n={}, {} min)", data.n, data.duration_s / 60.0);
    println!("{}", t.render());

    // CSV: the step functions of both series.
    let mut rows = Vec::new();
    for (x, c) in mean.steps() {
        rows.push(vec!["mean".into(), format!("{x:.3}"), c.to_string()]);
    }
    for (x, c) in max.steps() {
        rows.push(vec!["max".into(), format!("{x:.3}"), c.to_string()]);
    }
    write_csv(
        results_path(csv),
        &["series", metric, "nodes_with_at_most"],
        &rows,
    )
    .expect("write csv");
}

fn freshness_table(rows: &[[f64; 4]]) -> (Table, Vec<Vec<String>>) {
    // rows: per rank, [median, average, p97, max] — already sorted.
    let mut t = Table::new(&["series", "p50 over pairs", "p97 over pairs", "worst"]);
    let col = |k: usize| -> Vec<f64> { rows.iter().map(|r| r[k]).collect() };
    let mut csv = Vec::new();
    for (k, label) in ["median", "average", "97%", "max"].iter().enumerate() {
        let cdf = Cdf::new(col(k));
        t.row(vec![
            (*label).to_string(),
            format!("{:.1}s", cdf.quantile(0.5)),
            format!("{:.1}s", cdf.quantile(0.97)),
            format!("{:.1}s", cdf.max().unwrap_or(f64::NAN)),
        ]);
        for (x, c) in cdf.steps() {
            csv.push(vec![(*label).to_string(), format!("{x:.2}"), c.to_string()]);
        }
    }
    (t, csv)
}

fn report_freshness_all_pairs(data: &DeploymentData) {
    let pairs = data.freshness.all_pairs();
    let rows: Vec<[f64; 4]> = pairs
        .iter()
        .map(|(_, s)| [s.median, s.average, s.p97, s.max])
        .collect();
    let (t, csv) = freshness_table(&rows);
    println!(
        "Figure 12 — route freshness over {} (src,dst) pairs, 30 s sampling",
        pairs.len()
    );
    println!("{}", t.render());
    write_csv(
        results_path("fig12.csv"),
        &["series", "freshness_s", "pairs_with_at_most"],
        &csv,
    )
    .expect("write csv");
}

fn report_freshness_single(data: &DeploymentData, src: usize, title: &str, csv_name: &str) {
    let dests = data.freshness.from_source(src);
    let rows: Vec<[f64; 4]> = dests
        .iter()
        .map(|(_, s)| [s.median, s.average, s.p97, s.max])
        .collect();
    let (t, csv) = freshness_table(&rows);
    println!(
        "{title} (node {src}, mean concurrent failures {:.1}, max {})",
        data.mean_concurrent[src], data.max_concurrent[src]
    );
    println!("{}", t.render());
    write_csv(
        results_path(csv_name),
        &["series", "freshness_s", "destinations_with_at_most"],
        &csv,
    )
    .expect("write csv");
}

#[cfg(test)]
mod tests {
    use super::{commands, parse};

    fn args(line: &str) -> Vec<String> {
        line.split_whitespace().map(str::to_string).collect()
    }

    #[test]
    fn every_listed_command_parses_and_nothing_else_does() {
        assert_eq!(commands().count(), 17);
        for name in commands() {
            assert_eq!(parse(&args(name)), Ok((name, false)));
        }
        assert_eq!(parse(&args("")), Ok(("all", false)));
        assert_eq!(parse(&args("--quick")), Ok(("all", true)));
        assert_eq!(parse(&args("--quick churn")), Ok(("churn", true)));
        // A deleted study must not "pass" in a script that still names it.
        for bad in ["ablations", "churn partition", "--fast", "fig9 --quik"] {
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

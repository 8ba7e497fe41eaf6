//! The failure-laden deployment run behind figures 8 and 10–14.
//!
//! The paper deployed 140 nodes on PlanetLab for 136 minutes and measured,
//! concurrently: per-node concurrent link failures (figure 8), per-node
//! routing bandwidth — mean and worst 1-minute window (figure 10), double
//! rendezvous failures (figure 11) and route freshness at 30-second
//! sampling (figures 12–14). We run the same measurement program against
//! the simulator: synthetic PlanetLab latencies plus a calibrated failure
//! schedule, with every node executing the full quorum overlay stack.
//! [`run_and_report`] writes all six figures from one run; [`check`]
//! holds the run to the paper's bandwidth and recovery claims.

use apor_analysis::{theory, write_csv, Cdf, FreshnessStats, FreshnessTracker, Table};
use apor_netsim::{SimulatorConfig, TrafficClass};
use apor_overlay::config::{Algorithm, NodeConfig};
use apor_overlay::simnode::{overlay_sim_config, World};
use apor_quorum::NodeId;
use apor_topology::{FailureParams, FailureSchedule, PlanetLabParams, Topology};

/// Parameters of a deployment run.
#[derive(Debug, Clone)]
pub struct DeploymentParams {
    /// Overlay size (paper: 140).
    pub n: usize,
    /// Run length in minutes (paper: 136).
    pub minutes: f64,
    /// Warm-up excluded from bandwidth/freshness statistics, seconds.
    pub warmup_s: f64,
    /// Master seed (topology, failures and simulation derive from it).
    pub seed: u64,
    /// Freshness sampling period (paper: 30 s; default 29 s). The
    /// default is deliberately co-prime with the 15 s / 30 s routing
    /// intervals: a 30 s grid is phase-locked to the routing ticks, so
    /// every sample of a pair sees the *same* point of the
    /// recommendation cycle and the measured "freshness" collapses to
    /// a per-pair phase constant (aliasing) instead of a draw from the
    /// actual freshness distribution.
    pub freshness_sample_s: f64,
    /// Failure-metric sampling period (paper: 1 minute).
    pub failure_sample_s: f64,
}

impl Default for DeploymentParams {
    fn default() -> Self {
        DeploymentParams {
            n: 140,
            minutes: 136.0,
            warmup_s: 180.0,
            seed: 0xDE9107,
            freshness_sample_s: 29.0,
            failure_sample_s: 60.0,
        }
    }
}

/// Everything the deployment-derived figures need.
#[derive(Debug)]
pub struct DeploymentData {
    /// Overlay size.
    pub n: usize,
    /// Run length, seconds.
    pub duration_s: f64,
    /// Freshness sampling period, seconds.
    pub freshness_sample_s: f64,
    /// Per-node mean concurrent link failures (figure 8 "mean").
    pub mean_concurrent: Vec<f64>,
    /// Per-node max concurrent link failures (figure 8 "max").
    pub max_concurrent: Vec<usize>,
    /// Per-node mean routing bps, in+out (figure 10 "mean").
    pub mean_routing_bps: Vec<f64>,
    /// Per-node worst 1-minute-window routing bps (figure 10 "max").
    pub max_window_routing_bps: Vec<f64>,
    /// Per-node mean count of destinations under double rendezvous
    /// failure (figure 11 "mean").
    pub mean_double_failures: Vec<f64>,
    /// Per-node max of the same (figure 11 "max").
    pub max_double_failures: Vec<usize>,
    /// Route freshness samples for all pairs (figures 12–14).
    pub freshness: FreshnessTracker,
    /// Node index with the lowest mean concurrent failures (figure 13's
    /// "good connectivity" case study).
    pub well_connected: usize,
    /// Node index with the highest mean concurrent failures (figure 14's
    /// "bad connectivity" case study).
    pub poorly_connected: usize,
    /// Fleet-mean probing bps (sanity: ≈ 49.1·n).
    pub mean_probing_bps: f64,
}

/// Run the deployment.
#[must_use]
pub fn run(params: &DeploymentParams) -> DeploymentData {
    let n = params.n;
    let duration_s = params.minutes * 60.0;

    let topo = Topology::generate(&PlanetLabParams {
        n,
        seed: params.seed,
        ..Default::default()
    });
    let schedule = FailureSchedule::generate(&FailureParams {
        n,
        seed: params.seed ^ 0xFA11,
        duration_s: duration_s + 600.0,
        ..FailureParams::with_n(n)
    });
    let mut world = World::new(
        topo.latency,
        schedule,
        SimulatorConfig {
            seed: params.seed ^ 0x51,
            ..overlay_sim_config()
        },
        10.0,
        |i| NodeConfig::static_member(i, n, Algorithm::Quorum),
    );

    let mut freshness = FreshnessTracker::new(n);
    let mut conc_samples: Vec<Vec<usize>> = vec![Vec::new(); n];
    let mut double_samples: Vec<Vec<usize>> = vec![Vec::new(); n];

    let mut next_freshness = params.warmup_s;
    let mut next_failure = params.warmup_s;
    let mut t = 0.0;
    while t < duration_s {
        let step = (next_freshness.min(next_failure))
            .min(duration_s)
            .max(t + 1.0);
        world.run_until(step);
        t = step;
        if t + 1e-9 >= next_freshness {
            next_freshness += params.freshness_sample_s;
            for src in 0..n {
                let node = world.node(src);
                for dst in 0..n {
                    if dst == src {
                        continue;
                    }
                    let age = node
                        .route_age(NodeId(dst as u16), t)
                        .unwrap_or(f64::INFINITY);
                    freshness.record(src, dst, age);
                }
            }
        }
        if t + 1e-9 >= next_failure {
            next_failure += params.failure_sample_s;
            for i in 0..n {
                let node = world.node(i);
                conc_samples[i].push(node.concurrent_link_failures());
                double_samples[i].push(node.double_rendezvous_failures(t));
            }
        }
    }

    let stats = world.sim().stats();
    let routing = [TrafficClass::Routing];
    let mean_routing_bps: Vec<f64> = (0..n)
        .map(|i| stats.mean_bps(i, &routing, params.warmup_s, duration_s))
        .collect();
    let max_window_routing_bps: Vec<f64> = (0..n)
        .map(|i| stats.max_bucket_bps(i, &routing, params.warmup_s, duration_s))
        .collect();
    let mean_probing_bps =
        stats.fleet_mean_bps(&[TrafficClass::Probing], params.warmup_s, duration_s);

    let mean_of = |v: &Vec<usize>| {
        if v.is_empty() {
            0.0
        } else {
            v.iter().sum::<usize>() as f64 / v.len() as f64
        }
    };
    let mean_concurrent: Vec<f64> = conc_samples.iter().map(mean_of).collect();
    let max_concurrent: Vec<usize> = conc_samples
        .iter()
        .map(|v| v.iter().copied().max().unwrap_or(0))
        .collect();
    let mean_double_failures: Vec<f64> = double_samples.iter().map(mean_of).collect();
    let max_double_failures: Vec<usize> = double_samples
        .iter()
        .map(|v| v.iter().copied().max().unwrap_or(0))
        .collect();

    let well_connected = (0..n)
        .min_by(|&a, &b| mean_concurrent[a].partial_cmp(&mean_concurrent[b]).unwrap())
        .unwrap_or(0);
    let poorly_connected = (0..n)
        .max_by(|&a, &b| mean_concurrent[a].partial_cmp(&mean_concurrent[b]).unwrap())
        .unwrap_or(0);

    DeploymentData {
        n,
        duration_s,
        freshness_sample_s: params.freshness_sample_s,
        mean_concurrent,
        max_concurrent,
        mean_routing_bps,
        max_window_routing_bps,
        mean_double_failures,
        max_double_failures,
        freshness,
        well_connected,
        poorly_connected,
        mean_probing_bps,
    }
}

/// Run, print figures 8 and 10–14 and write their CSVs (`fig8.csv`,
/// `fig10.csv` … `fig14.csv`), all from one deployment run.
///
/// # Errors
/// Propagates CSV I/O errors.
pub fn run_and_report(params: &DeploymentParams) -> std::io::Result<DeploymentData> {
    eprintln!(
        "running deployment: n={}, {} minutes of simulated time…",
        params.n, params.minutes
    );
    let d = run(params);
    let counts = |v: &[usize]| Cdf::new(v.iter().map(|&x| x as f64).collect());

    report_node_cdfs(
        &d,
        "Figure 8 — concurrent link failures per node",
        "fig8.csv",
        "concurrent_failures",
        [
            Cdf::new(d.mean_concurrent.clone()),
            counts(&d.max_concurrent),
        ],
    )?;
    report_node_cdfs(
        &d,
        "Figure 10 — per-node routing traffic (bps, in+out)",
        "fig10.csv",
        "routing_bps",
        [
            Cdf::new(d.mean_routing_bps.clone()),
            Cdf::new(d.max_window_routing_bps.clone()),
        ],
    )?;
    println!(
        "fleet mean routing: {:.1} Kbps (theory {:.1}); probing: {:.1} Kbps (theory {:.1})",
        d.fleet_routing_bps() / 1000.0,
        theory::quorum_routing_bps(d.n as f64) / 1000.0,
        d.mean_probing_bps / 1000.0,
        theory::probing_bps(d.n as f64) / 1000.0
    );
    report_node_cdfs(
        &d,
        "Figure 11 — destinations with double rendezvous failures",
        "fig11.csv",
        "double_failures",
        [
            Cdf::new(d.mean_double_failures.clone()),
            counts(&d.max_double_failures),
        ],
    )?;

    let pairs = d.freshness.all_pairs();
    println!(
        "Figure 12 — route freshness over {} (src,dst) pairs, {} s sampling",
        pairs.len(),
        d.freshness_sample_s
    );
    report_freshness(
        "fig12.csv",
        "pairs_with_at_most",
        pairs.iter().map(|(_, s)| s),
    )?;
    for (src, title, csv) in [
        (
            d.well_connected,
            "Figure 13 — freshness from a well-connected node",
            "fig13.csv",
        ),
        (
            d.poorly_connected,
            "Figure 14 — freshness from a poorly-connected node",
            "fig14.csv",
        ),
    ] {
        println!(
            "{title} (node {src}, mean concurrent failures {:.1}, max {})",
            d.mean_concurrent[src], d.max_concurrent[src]
        );
        let dests = d.freshness.from_source(src);
        report_freshness(
            csv,
            "destinations_with_at_most",
            dests.iter().map(|(_, s)| s),
        )?;
    }
    check(&d);
    Ok(d)
}

impl DeploymentData {
    /// Fleet mean of the per-node mean routing bps.
    #[must_use]
    pub fn fleet_routing_bps(&self) -> f64 {
        self.mean_routing_bps.iter().sum::<f64>() / self.n as f64
    }
}

/// The claim: under a failure-laden schedule the overlay still pays the
/// section 6.1 bandwidth — probing within 30 % of `49.1·n`, routing
/// within 25 % of the quorum closed form — while nodes see concurrent
/// link failures (≥ 2 at the worst node) and a typical pair's route is
/// refreshed within 30 s (median over pairs of each pair's median age).
///
/// # Panics
/// Panics, naming the claim, when the run misses a bound.
pub fn check(d: &DeploymentData) {
    let n = d.n as f64;
    let within = |measured: f64, theory: f64, tolerance: f64, what: &str| {
        assert!(
            (measured - theory).abs() / theory < tolerance,
            "section 6.2: fleet {what} must be within {:.0} % of the closed form; \
             n={}: measured {measured:.0} bps vs theory {theory:.0} bps",
            tolerance * 100.0,
            d.n
        );
    };
    within(d.mean_probing_bps, theory::probing_bps(n), 0.30, "probing");
    within(
        d.fleet_routing_bps(),
        theory::quorum_routing_bps(n),
        0.25,
        "routing",
    );
    let medians = Cdf::new(
        d.freshness
            .all_pairs()
            .iter()
            .map(|(_, s)| s.median)
            .collect(),
    );
    let typical = medians.median().unwrap_or(f64::INFINITY);
    assert!(
        typical <= 30.0,
        "figure 12: the median pair's median route age must be ≤ 30 s; it is {typical:.1} s"
    );
    let worst = d.max_concurrent.iter().copied().max().unwrap_or(0);
    assert!(
        worst >= 2,
        "figure 8: the failure schedule must give some node ≥ 2 concurrent link \
         failures; the worst saw {worst}"
    );
}

/// Figures 8, 10 and 11: the per-node mean and max CDFs.
fn report_node_cdfs(
    d: &DeploymentData,
    title: &str,
    csv: &str,
    metric: &str,
    [mean, max]: [Cdf; 2],
) -> std::io::Result<()> {
    let mut t = Table::new(&["series", "median", "p90", "p98", "max"]);
    let mut rows = Vec::new();
    for (label, cdf) in [("mean", &mean), ("max", &max)] {
        t.row(vec![
            label.to_string(),
            format!("{:.2}", cdf.quantile(0.5)),
            format!("{:.2}", cdf.quantile(0.9)),
            format!("{:.2}", cdf.quantile(0.98)),
            format!("{:.2}", cdf.max().unwrap_or(f64::NAN)),
        ]);
        for (x, c) in cdf.steps() {
            rows.push(vec![label.to_string(), format!("{x:.3}"), c.to_string()]);
        }
    }
    println!("{title} (n={}, {} min)", d.n, d.duration_s / 60.0);
    println!("{}", t.render());
    write_csv(
        crate::results_path(csv),
        &["series", metric, "nodes_with_at_most"],
        &rows,
    )
}

/// Figures 12–14: CDFs over pairs (or destinations) of each pair's
/// median, average, 97th-percentile and worst route age.
fn report_freshness<'a>(
    csv: &str,
    count_column: &str,
    stats: impl Iterator<Item = &'a FreshnessStats>,
) -> std::io::Result<()> {
    let rows: Vec<[f64; 4]> = stats.map(|s| [s.median, s.average, s.p97, s.max]).collect();
    let mut t = Table::new(&["series", "p50 over pairs", "p97 over pairs", "worst"]);
    let mut csv_rows = Vec::new();
    for (k, label) in ["median", "average", "97%", "max"].iter().enumerate() {
        let cdf = Cdf::new(rows.iter().map(|r| r[k]).collect());
        t.row(vec![
            (*label).to_string(),
            format!("{:.1}s", cdf.quantile(0.5)),
            format!("{:.1}s", cdf.quantile(0.97)),
            format!("{:.1}s", cdf.max().unwrap_or(f64::NAN)),
        ]);
        for (x, c) in cdf.steps() {
            csv_rows.push(vec![(*label).to_string(), format!("{x:.2}"), c.to_string()]);
        }
    }
    println!("{}", t.render());
    write_csv(
        crate::results_path(csv),
        &["series", "freshness_s", count_column],
        &csv_rows,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A miniature deployment exercising the whole pipeline.
    fn mini() -> DeploymentData {
        run(&DeploymentParams {
            n: 25,
            minutes: 8.0,
            warmup_s: 120.0,
            seed: 7,
            ..Default::default()
        })
    }

    #[test]
    fn deployment_pipeline_produces_consistent_data() {
        let d = mini();
        assert_eq!(d.n, 25);
        check(&d);
        assert!(d.fleet_routing_bps() > 100.0);
        // Freshness was sampled for many pairs.
        let pairs = d.freshness.all_pairs();
        assert!(pairs.len() > 200, "only {} pairs sampled", pairs.len());
        // Well/poorly connected selection is consistent.
        assert!(d.mean_concurrent[d.well_connected] <= d.mean_concurrent[d.poorly_connected]);
    }

    #[test]
    fn failures_are_observed_by_the_overlay() {
        let d = mini();
        // The calibrated schedule must cause the probers to see failures.
        let total_mean: f64 = d.mean_concurrent.iter().sum();
        assert!(total_mean > 0.0, "no failures observed at all");
    }
}

//! The failure-laden deployment run behind figures 8 and 10–14.
//!
//! The paper deployed 140 nodes on PlanetLab for 136 minutes and measured,
//! concurrently: per-node concurrent link failures (figure 8), per-node
//! routing bandwidth — mean and worst 1-minute window (figure 10), double
//! rendezvous failures (figure 11) and route freshness at 30-second
//! sampling (figures 12–14). We run the same measurement program against
//! the simulator: synthetic PlanetLab latencies plus a calibrated failure
//! schedule, with every node executing the full overlay stack.

use apor_analysis::{Cdf, FreshnessTracker};
use apor_netsim::{Simulator, SimulatorConfig, TrafficClass};
use apor_overlay::config::{Algorithm, NodeConfig};
use apor_overlay::simnode::{overlay_at, overlay_sim_config, populate};
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
    /// Routing algorithm for all nodes.
    pub algorithm: Algorithm,
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
            algorithm: Algorithm::Quorum,
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
    /// Warm-up excluded from statistics, seconds.
    pub warmup_s: f64,
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
    let mut sim = Simulator::new(
        topo.latency,
        schedule,
        SimulatorConfig {
            seed: params.seed ^ 0x51,
            ..overlay_sim_config()
        },
    );
    let members: Vec<NodeId> = (0..n as u16).map(NodeId).collect();
    let algorithm = params.algorithm;
    populate(&mut sim, n, 10.0, move |i| {
        NodeConfig::new(NodeId(i as u16), NodeId(0), algorithm).with_static_members(members.clone())
    });

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
        sim.run_until(step);
        t = step;
        if t + 1e-9 >= next_freshness {
            next_freshness += params.freshness_sample_s;
            for src in 0..n {
                let node = overlay_at(&sim, src);
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
                let node = overlay_at(&sim, i);
                conc_samples[i].push(node.concurrent_link_failures());
                double_samples[i].push(node.double_rendezvous_failures(t));
            }
        }
    }

    let stats = sim.stats();
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
        warmup_s: params.warmup_s,
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

impl DeploymentData {
    /// Figure 8's CDFs: `(mean, max)` concurrent link failures per node.
    #[must_use]
    pub fn fig8_cdfs(&self) -> (Cdf, Cdf) {
        (
            Cdf::new(self.mean_concurrent.clone()),
            Cdf::new(self.max_concurrent.iter().map(|&x| x as f64).collect()),
        )
    }

    /// Figure 10's CDFs: `(mean, max 1-min window)` routing bps per node.
    #[must_use]
    pub fn fig10_cdfs(&self) -> (Cdf, Cdf) {
        (
            Cdf::new(self.mean_routing_bps.clone()),
            Cdf::new(self.max_window_routing_bps.clone()),
        )
    }

    /// Figure 11's CDFs: `(mean, max)` double rendezvous failures per node.
    #[must_use]
    pub fn fig11_cdfs(&self) -> (Cdf, Cdf) {
        (
            Cdf::new(self.mean_double_failures.clone()),
            Cdf::new(self.max_double_failures.iter().map(|&x| x as f64).collect()),
        )
    }
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
        // Bandwidth: probing ≈ 49.1·n within 25 %; routing positive and
        // below full-mesh theory.
        let probing_theory = 49.1 * 25.0;
        assert!(
            (d.mean_probing_bps - probing_theory).abs() / probing_theory < 0.30,
            "probing {} vs {}",
            d.mean_probing_bps,
            probing_theory
        );
        let mean_routing: f64 = d.mean_routing_bps.iter().sum::<f64>() / 25.0;
        assert!(mean_routing > 100.0, "routing {mean_routing}");
        // Freshness was sampled for many pairs.
        let pairs = d.freshness.all_pairs();
        assert!(pairs.len() > 200, "only {} pairs sampled", pairs.len());
        // Median freshness of a typical pair is below 2 routing intervals
        // despite failures.
        let medians = Cdf::new(pairs.iter().map(|(_, s)| s.median).collect());
        assert!(
            medians.median().unwrap() <= 30.0,
            "median-of-medians {}",
            medians.median().unwrap()
        );
        // Well/poorly connected selection is consistent.
        assert!(d.mean_concurrent[d.well_connected] <= d.mean_concurrent[d.poorly_connected]);
    }

    #[test]
    fn failures_are_observed_by_the_overlay() {
        let d = mini();
        // The calibrated schedule must cause the probers to see failures.
        let total_mean: f64 = d.mean_concurrent.iter().sum();
        assert!(total_mean > 0.0, "no failures observed at all");
        let max = d.max_concurrent.iter().max().copied().unwrap_or(0);
        assert!(max >= 2, "worst node saw only {max} concurrent failures");
    }
}

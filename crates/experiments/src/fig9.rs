//! Figure 9: per-node routing traffic vs overlay size, emulation + theory.
//!
//! "Comparison of average per-node routing traffic (incoming and
//! outgoing), for 5 minutes of running an emulation with no node or link
//! failures." Two measured series (RON full-mesh and the quorum
//! algorithm) plus the paper's closed-form curves (section 6.1), whose
//! headline capacity numbers the report prints too. What must hold
//! ([`check`]): measured ≈ theory for both algorithms, and quorum
//! clearly cheaper than RON past the crossover in the tens of nodes.

use crate::ResultTable;
use apor_analysis::theory;
use apor_netsim::{Simulator, SimulatorConfig, TrafficClass};
use apor_overlay::config::{Algorithm, NodeConfig};
use apor_overlay::simnode::{fleet_snapshot, overlay_sim_config, populate};
use apor_quorum::NodeId;
use apor_telemetry::Snapshot;
use apor_topology::{FailureParams, PlanetLabParams, Topology};
use serde::Serialize;

/// Parameters for the figure 9 sweep.
#[derive(Debug, Clone)]
pub struct Fig9Params {
    /// Overlay sizes to emulate (paper: up to ~200).
    pub sizes: Vec<usize>,
    /// Emulated run length, seconds (paper: 5 minutes).
    pub duration_s: f64,
    /// Warm-up excluded from the average, seconds.
    pub warmup_s: f64,
    /// Seed.
    pub seed: u64,
}

impl Default for Fig9Params {
    fn default() -> Self {
        Fig9Params {
            sizes: vec![9, 25, 49, 81, 121, 140, 169, 196],
            duration_s: 300.0,
            warmup_s: 60.0,
            seed: 0xF169,
        }
    }
}

/// One measured point.
#[derive(Debug, Clone, Serialize)]
pub struct Fig9Point {
    /// Overlay size.
    pub n: usize,
    /// Measured mean per-node routing bps (in + out).
    pub measured_bps: f64,
    /// The paper's closed-form prediction.
    pub theory_bps: f64,
    /// Fleet telemetry aggregated over all nodes (probe RTTs, round-two
    /// latency, queue depth, …). Exported as `fig9_telemetry.json`, not
    /// part of the CSV.
    #[serde(skip)]
    pub telemetry: Snapshot,
}

/// The sweep output.
#[derive(Debug, Clone, Serialize)]
pub struct Fig9Result {
    /// Full-mesh (RON) series.
    pub ron: Vec<Fig9Point>,
    /// Quorum series.
    pub quorum: Vec<Fig9Point>,
}

fn measure(n: usize, algorithm: Algorithm, params: &Fig9Params) -> (f64, Snapshot) {
    let topo = Topology::generate(&PlanetLabParams {
        n,
        seed: params.seed ^ n as u64,
        ..Default::default()
    });
    let mut sim = Simulator::new(
        topo.latency,
        FailureParams::none(n, params.duration_s + 60.0),
        SimulatorConfig {
            seed: params.seed,
            ..overlay_sim_config()
        },
    );
    let members: Vec<NodeId> = (0..n as u16).map(NodeId).collect();
    populate(&mut sim, n, 10.0, move |i| {
        NodeConfig::new(NodeId(i as u16), NodeId(0), algorithm).with_static_members(members.clone())
    });
    sim.run_until(params.duration_s);
    let bps =
        sim.stats()
            .fleet_mean_bps(&[TrafficClass::Routing], params.warmup_s, params.duration_s);
    (bps, crate::aggregate_fleet(&fleet_snapshot(&sim, n)))
}

/// Run the sweep.
#[must_use]
pub fn run(params: &Fig9Params) -> Fig9Result {
    let mut ron = Vec::new();
    let mut quorum = Vec::new();
    for &n in &params.sizes {
        let (measured_bps, telemetry) = measure(n, Algorithm::FullMesh, params);
        ron.push(Fig9Point {
            n,
            measured_bps,
            theory_bps: theory::ron_routing_bps(n as f64),
            telemetry,
        });
        let (measured_bps, telemetry) = measure(n, Algorithm::Quorum, params);
        quorum.push(Fig9Point {
            n,
            measured_bps,
            theory_bps: theory::quorum_routing_bps(n as f64),
            telemetry,
        });
    }
    Fig9Result { ron, quorum }
}

/// `fig9.csv`: per n, each algorithm's measured and closed-form bps.
#[must_use]
pub fn table(r: &Fig9Result) -> ResultTable {
    let header = &[
        "n",
        "ron_bps",
        "ron_theory_bps",
        "quorum_bps",
        "quorum_theory_bps",
    ];
    let rows = r
        .ron
        .iter()
        .zip(&r.quorum)
        .map(|(a, b)| {
            vec![
                a.n.to_string(),
                format!("{:.1}", a.measured_bps),
                format!("{:.1}", a.theory_bps),
                format!("{:.1}", b.measured_bps),
                format!("{:.1}", b.theory_bps),
            ]
        })
        .collect();
    (header, rows)
}

/// Run, print and write `fig9.csv` plus the per-arm aggregated fleet
/// telemetry (`fig9_telemetry.json`).
///
/// # Errors
/// Propagates CSV I/O errors.
pub fn run_and_report(params: &Fig9Params) -> std::io::Result<Fig9Result> {
    let r = run(params);
    crate::report_table(
        "Figure 9 — per-node routing traffic (in+out), no failures",
        "fig9.csv",
        &table(&r),
    )?;
    println!(
        "theoretical crossover: n = {} (quorum cheaper beyond)",
        theory::crossover_n()
    );
    println!(
        "56 Kbps budget supports: RON {} nodes, quorum {} nodes (paper: 165 → 300)",
        theory::capacity_at(56_000.0, theory::ron_routing_bps),
        theory::capacity_at(56_000.0, theory::quorum_routing_bps),
    );
    println!(
        "416-site PlanetLab overlay: quorum {:.0} Kbps vs prior {:.0} Kbps (paper: 86 vs 307)",
        (theory::probing_bps(416.0) + theory::quorum_routing_bps(416.0)) / 1000.0,
        (theory::probing_bps(416.0) + theory::ron_routing_bps(416.0)) / 1000.0,
    );
    // The aggregated fleet telemetry, one JSON object per (algorithm, n).
    let arms = r
        .ron
        .iter()
        .map(|p| ("ron", p))
        .chain(r.quorum.iter().map(|p| ("quorum", p)));
    crate::write_arms_json(
        "fig9_telemetry.json",
        arms.map(|(algorithm, p)| {
            (
                format!("\"algorithm\": \"{algorithm}\", \"n\": {}", p.n),
                &p.telemetry,
            )
        }),
    )?;
    check(&r);
    Ok(r)
}

/// The claim: measured routing bytes track section 6.1's closed form
/// (within 25 % for both algorithms at every n ≥ 25), and past the
/// crossover (n ≥ 81) quorum routing costs under 0.8× RON's. At n = 9
/// the quorum arm measures a third below its closed form, whose
/// `196.3·√n` term is most of the total there; `docs/REPRODUCTION.md`
/// records the number.
///
/// # Panics
/// Panics, naming the claim, when a point misses either bound.
pub fn check(r: &Fig9Result) {
    for p in r.ron.iter().chain(&r.quorum).filter(|p| p.n >= 25) {
        let rel = (p.measured_bps - p.theory_bps).abs() / p.theory_bps;
        assert!(
            rel < 0.25,
            "section 6.1: routing bytes must track the closed form within 25 % at n ≥ 25; \
             n={}: measured {:.0} bps vs theory {:.0} bps (rel {rel:.3})",
            p.n,
            p.measured_bps,
            p.theory_bps
        );
    }
    for (ron, quorum) in r.ron.iter().zip(&r.quorum).filter(|(a, _)| a.n >= 81) {
        assert!(
            quorum.measured_bps < 0.8 * ron.measured_bps,
            "figure 9: quorum routing must cost < 0.8× RON past the crossover; \
             n={}: quorum {:.0} bps vs RON {:.0} bps",
            ron.n,
            quorum.measured_bps,
            ron.measured_bps
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_sweep_tracks_theory() {
        let r = run(&Fig9Params {
            sizes: vec![25, 81],
            duration_s: 240.0,
            warmup_s: 60.0,
            seed: 3,
        });
        // At n=25 (below crossover) quorum is allowed to be costlier;
        // at n=81 it must already be clearly cheaper.
        check(&r);
    }
}

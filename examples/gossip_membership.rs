//! Coordinator-free membership: a 16-node overlay survives killing
//! *any* single node.
//!
//! The paper's centralized membership service dies with its coordinator.
//! This example runs the same overlay on the SWIM gossip plane
//! (`apor-membership`) and crashes each node in turn — including node 0,
//! the one the centralized design cannot lose — printing how long the
//! survivors take to agree on the shrunken view (same version, same
//! member list, the quorum-grid invariant).
//!
//! ```sh
//! cargo run --release --example gossip_membership
//! ```

use allpairs_overlay::membership::detection_budget_s;
use allpairs_overlay::netsim::SimulatorConfig;
use allpairs_overlay::overlay::config::{Algorithm, NodeConfig};
use allpairs_overlay::overlay::simnode::{overlay_sim_config, World};
use allpairs_overlay::quorum::NodeId;
use allpairs_overlay::topology::{FailureParams, FailureSchedule, LatencyMatrix};

const N: usize = 16;
const KILL_AT: f64 = 60.0;

/// Crash `victim` at [`KILL_AT`]; return the seconds until every
/// survivor's installed view excludes it and all views are identical.
fn convergence_after_killing(victim: usize) -> Option<f64> {
    // A clean crash, no link noise.
    let failure = FailureParams::scripted(N, 1e6).with_crashes(&[victim], KILL_AT);
    let mut world = World::new(
        LatencyMatrix::uniform(N, 40.0),
        FailureSchedule::generate(&failure),
        SimulatorConfig {
            seed: 0x6055 + victim as u64,
            ..overlay_sim_config()
        },
        5.0,
        |i| NodeConfig::static_member(i, N, Algorithm::Quorum).with_swim(),
    );

    let budget = detection_budget_s(N);
    world
        .first_sample(KILL_AT, 1.0, KILL_AT + budget + 30.0, |w, _| {
            w.common_view((0..N).filter(|&i| i != victim))
                .is_some_and(|view| !view.contains(NodeId(victim as u16)) && view.len() == N - 1)
        })
        .map(|t| t - KILL_AT)
}

fn main() {
    let budget = detection_budget_s(N);
    println!("== SWIM gossip membership: {N}-node overlay, no coordinator ==\n");
    println!("crashing each node in turn at t = {KILL_AT} s; detection budget {budget:.0} s\n");
    println!("victim   survivors agree after");
    println!("------   ---------------------");
    let mut worst: f64 = 0.0;
    for victim in 0..N {
        match convergence_after_killing(victim) {
            Some(s) => {
                worst = worst.max(s);
                let note = if victim == 0 {
                    "  (the node a centralized design cannot lose)"
                } else {
                    ""
                };
                println!("n{victim:<6}  {s:>5.0} s{note}");
            }
            None => println!("n{victim:<6}  NOT CONVERGED within budget — protocol bug"),
        }
    }
    println!(
        "\nworst case {worst:.0} s, budget {budget:.0} s — the overlay survives any single crash."
    );
}

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
use allpairs_overlay::netsim::{Simulator, SimulatorConfig};
use allpairs_overlay::overlay::config::{Algorithm, NodeConfig};
use allpairs_overlay::overlay::simnode::{overlay_at, overlay_sim_config, populate};
use allpairs_overlay::quorum::NodeId;
use allpairs_overlay::topology::{FailureParams, FailureSchedule, LatencyMatrix, NodeOutage};

const N: usize = 16;
const KILL_AT: f64 = 60.0;

/// Crash `victim` at [`KILL_AT`]; return the seconds until every
/// survivor's installed view excludes it and all views are identical.
fn convergence_after_killing(victim: usize) -> Option<f64> {
    let mut failure = FailureParams::with_n(N);
    failure.median_concurrent = 1e-12; // a clean crash, no link noise
    failure.duration_s = 1e6;
    failure.node_outages = vec![NodeOutage {
        node: victim,
        start_s: KILL_AT,
        end_s: 1e6,
    }];
    let mut sim = Simulator::new(
        LatencyMatrix::uniform(N, 40.0),
        FailureSchedule::generate(&failure),
        SimulatorConfig {
            seed: 0x6055 + victim as u64,
            ..overlay_sim_config()
        },
    );
    let members: Vec<NodeId> = (0..N as u16).map(NodeId).collect();
    populate(&mut sim, N, 5.0, move |i| {
        NodeConfig::new(NodeId(i as u16), NodeId(0), Algorithm::Quorum)
            .with_static_members(members.clone())
            .with_swim()
    });

    let budget = detection_budget_s(N);
    let mut t = KILL_AT;
    while t < KILL_AT + budget + 30.0 {
        t += 1.0;
        sim.run_until(t);
        let mut reference = None;
        let mut agreed = true;
        for i in (0..N).filter(|&i| i != victim) {
            let Some(view) = overlay_at(&sim, i).view() else {
                agreed = false;
                break;
            };
            if view.contains(NodeId(victim as u16)) || view.len() != N - 1 {
                agreed = false;
                break;
            }
            match &reference {
                None => reference = Some(view.clone()),
                Some(r) => {
                    if r != view {
                        agreed = false;
                        break;
                    }
                }
            }
        }
        if agreed {
            return Some(t - KILL_AT);
        }
    }
    None
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

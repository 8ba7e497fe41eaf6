//! End-to-end optimality: Theorem 1 made operational.
//!
//! A healthy simulated overlay running the quorum algorithm must converge,
//! within two routing intervals of probing settling, to the *provably
//! optimal* one-hop route for every ordered pair — and agree with the
//! full-mesh baseline, which trivially computes the same optimum from
//! complete information.

use allpairs_overlay::netsim::SimulatorConfig;
use allpairs_overlay::overlay::config::{Algorithm, NodeConfig};
use allpairs_overlay::overlay::simnode::{overlay_sim_config, World};
use allpairs_overlay::quorum::NodeId;
use allpairs_overlay::topology::{FailureParams, LatencyMatrix, PlanetLabParams, Topology};

fn run_overlay(matrix: LatencyMatrix, algorithm: Algorithm, until_s: f64, seed: u64) -> World {
    let n = matrix.len();
    let mut world = World::new(
        matrix,
        FailureParams::none(n, until_s + 100.0),
        SimulatorConfig {
            seed,
            ..overlay_sim_config()
        },
        5.0,
        |i| NodeConfig::static_member(i, n, algorithm),
    );
    world.run_until(until_s);
    world
}

/// The cost of routing `src → dst` through the overlay's chosen first hop,
/// under ground truth (the matrix the run used).
fn chosen_cost(world: &World, src: usize, dst: usize) -> Option<f64> {
    let truth = world.sim().latency();
    let hop = world
        .node(src)
        .best_hop(NodeId(dst as u16), world.sim().now())?;
    Some(if hop.index() == dst {
        truth.rtt(src, dst)
    } else {
        truth.rtt(src, hop.index()) + truth.rtt(hop.index(), dst)
    })
}

#[test]
fn quorum_overlay_converges_to_optimal_one_hops() {
    // A zero-loss topology so measured == ground truth (modulo 1 ms wire
    // quantization and EWMA smoothing of simulator jitter).
    let mut topo = Topology::generate(&PlanetLabParams {
        n: 36,
        seed: 42,
        loss_median: 1e-6,
        loss_sigma: 0.01,
        ..Default::default()
    });
    // Remove loss entirely for exactness.
    let n = topo.len();
    for i in 0..n {
        for j in (i + 1)..n {
            topo.latency.set_loss(i, j, 0.0);
        }
    }
    let world = run_overlay(topo.latency, Algorithm::Quorum, 150.0, 1);
    let truth = world.sim().latency();

    let mut suboptimal = 0;
    let mut worst_excess: f64 = 0.0;
    for src in 0..n {
        for dst in 0..n {
            if src == dst {
                continue;
            }
            let optimal = truth.best_path_with_one_hop(src, dst);
            let chosen =
                chosen_cost(&world, src, dst).unwrap_or_else(|| panic!("{src}→{dst} unrouted"));
            // Tolerance: wire quantization (1 ms per leg) plus EWMA jitter
            // (±3 % per leg).
            let tolerance = 0.08 * optimal + 3.0;
            if chosen > optimal + tolerance {
                suboptimal += 1;
                worst_excess = worst_excess.max(chosen - optimal);
            }
        }
    }
    assert_eq!(
        suboptimal, 0,
        "{suboptimal} pairs route suboptimally (worst excess {worst_excess:.1} ms)"
    );
}

#[test]
fn quorum_and_fullmesh_agree_on_routes() {
    let topo = Topology::generate(&PlanetLabParams {
        n: 25,
        seed: 99,
        loss_median: 1e-6,
        loss_sigma: 0.01,
        ..Default::default()
    });
    let n = topo.len();
    let quorum = run_overlay(topo.latency.clone(), Algorithm::Quorum, 150.0, 2);
    let fullmesh = run_overlay(topo.latency, Algorithm::FullMesh, 150.0, 2);

    let mut disagreements = 0;
    for src in 0..n {
        for dst in 0..n {
            if src == dst {
                continue;
            }
            let a = chosen_cost(&quorum, src, dst).expect("quorum routed");
            let b = chosen_cost(&fullmesh, src, dst).expect("fullmesh routed");
            // The chosen hops may differ on near-ties; the achieved costs
            // must agree within measurement tolerance.
            if (a - b).abs() > 0.08 * b.min(a) + 3.0 {
                disagreements += 1;
            }
        }
    }
    assert_eq!(
        disagreements, 0,
        "quorum and full-mesh disagree on {disagreements} pairs"
    );
}

#[test]
fn every_node_learns_every_destination() {
    // Freshness: in a healthy overlay every (src, dst) pair has received a
    // recommendation within ~1 routing interval (paper: typically 8 s).
    let topo = Topology::generate(&PlanetLabParams {
        n: 49,
        seed: 5,
        ..Default::default()
    });
    let world = run_overlay(topo.latency, Algorithm::Quorum, 200.0, 3);
    let now = world.sim().now();
    let mut worst = 0.0f64;
    for src in 0..49 {
        let node = world.node(src);
        for dst in 0..49 {
            if src == dst {
                continue;
            }
            let age = node
                .route_age(NodeId(dst as u16), now)
                .unwrap_or_else(|| panic!("{src} never heard about {dst}"));
            worst = worst.max(age);
        }
    }
    // Bounded by the routing interval plus a couple of lost-message slacks
    // (loss exists in this topology).
    assert!(worst < 60.0, "worst route age {worst:.1} s");
}

#[test]
fn deterministic_end_to_end() {
    let topo = Topology::generate(&PlanetLabParams {
        n: 16,
        seed: 8,
        ..Default::default()
    });
    let routes = |seed: u64| -> Vec<Option<NodeId>> {
        let world = run_overlay(topo.latency.clone(), Algorithm::Quorum, 120.0, seed);
        let mut out = Vec::new();
        for src in 0..16 {
            for dst in 0..16 {
                if src != dst {
                    out.push(world.node(src).best_hop(NodeId(dst as u16), 120.0));
                }
            }
        }
        out
    };
    assert_eq!(routes(7), routes(7), "same seed must give identical runs");
}

//! Quickstart: a 16-node overlay in the deterministic simulator.
//!
//! Builds a synthetic Internet, runs the grid-quorum overlay on it for a
//! few simulated minutes, and prints the quorum grid, a routing table
//! excerpt, and the bandwidth scorecard against the full-mesh baseline.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use allpairs_overlay::netsim::TrafficClass;
use allpairs_overlay::overlay::config::{Algorithm, NodeConfig};
use allpairs_overlay::overlay::simnode::{overlay_sim_config, World};
use allpairs_overlay::quorum::{Grid, NodeId};
use allpairs_overlay::topology::{FailureParams, PlanetLabParams, Topology};

fn main() {
    let n = 16;
    println!("== allpairs-overlay quickstart: {n} nodes ==\n");

    // 1. A synthetic Internet (geography + routing pathologies).
    let topo = Topology::generate(&PlanetLabParams::with_n(n));
    println!(
        "synthetic topology: RTT range {:.0}–{:.0} ms",
        topo.latency
            .pairs()
            .map(|(_, _, r)| r)
            .fold(f64::INFINITY, f64::min),
        topo.latency.pairs().map(|(_, _, r)| r).fold(0.0, f64::max),
    );

    // 2. The quorum grid every node derives from the membership view.
    let grid = Grid::new(n);
    println!("\nquorum grid ({}):\n{grid}", grid.shape());
    println!(
        "node 0's rendezvous servers: {:?}",
        grid.rendezvous_servers(0)
    );

    // 3. Run the overlay in the simulator.
    let mut world = World::new(
        topo.latency,
        FailureParams::none(n, 1e9),
        overlay_sim_config(),
        5.0,
        |i| NodeConfig::static_member(i, n, Algorithm::Quorum),
    );
    world.run_until(240.0);
    let sim = world.sim();
    let latency = sim.latency();

    // 4. Inspect node 0's routing table against the ground truth.
    let node0 = world.node(0);
    println!("\nnode 0 routing table (vs ground-truth optimum):");
    println!(
        "{:>4} {:>10} {:>12} {:>12} {:>10}",
        "dst", "direct ms", "chosen hop", "chosen ms", "optimal ms"
    );
    for dst in 1..n {
        let direct = latency.rtt(0, dst);
        let hop = node0.best_hop(NodeId(dst as u16), sim.now());
        let chosen_ms = hop.map_or(f64::NAN, |h| {
            if h.index() == dst {
                direct
            } else {
                latency.rtt(0, h.index()) + latency.rtt(h.index(), dst)
            }
        });
        let optimal = latency.best_path_with_one_hop(0, dst);
        println!(
            "{:>4} {:>10.0} {:>12} {:>12.0} {:>10.0}",
            dst,
            direct,
            hop.map_or("-".to_string(), |h| h.to_string()),
            chosen_ms,
            optimal
        );
    }

    // 5. Bandwidth scorecard.
    let routing = sim
        .stats()
        .fleet_mean_bps(&[TrafficClass::Routing], 60.0, 240.0);
    let probing = sim
        .stats()
        .fleet_mean_bps(&[TrafficClass::Probing], 60.0, 240.0);
    println!("\nper-node bandwidth (in+out): routing {routing:.0} bps, probing {probing:.0} bps");
    println!(
        "full-mesh routing at this size would cost ~{:.0} bps (theory)",
        allpairs_overlay::analysis::theory::ron_routing_bps(n as f64)
    );
}

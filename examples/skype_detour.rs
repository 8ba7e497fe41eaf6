//! The section 2 VoIP scenario: a latency-optimizing detour service.
//!
//! "A Voice-over-IP company like Skype could provision thousands of
//! computers near the edges of the Internet … maintaining a list of
//! optimal one-hop routes between any two locations." This example plays
//! that out: a 200-node overlay runs the quorum algorithm over a synthetic
//! Internet, then a series of "calls" between high-latency endpoints ask
//! their overlay nodes for the best one-hop relay.
//!
//! ```sh
//! cargo run --release --example skype_detour
//! ```

use allpairs_overlay::overlay::config::{Algorithm, NodeConfig};
use allpairs_overlay::overlay::simnode::{overlay_sim_config, World};
use allpairs_overlay::quorum::NodeId;
use allpairs_overlay::routing::onehop;
use allpairs_overlay::topology::{FailureParams, PlanetLabParams, Topology};

fn main() {
    let n = 200;
    println!("== Skype-style detour service on a {n}-node overlay ==\n");

    let topo = Topology::generate(&PlanetLabParams::with_n(n).with_seed(0x5C19E));
    let mut world = World::new(
        topo.latency,
        FailureParams::none(n, 1e9),
        overlay_sim_config(),
        10.0,
        |i| NodeConfig::static_member(i, n, Algorithm::Quorum),
    );
    println!("running the overlay for 4 simulated minutes…");
    world.run_until(240.0);
    let sim = world.sim();
    let latency = sim.latency();

    // Place "calls" on the ten worst direct paths.
    let mut bad_pairs = onehop::high_latency_pairs(latency, 400.0);
    bad_pairs
        .sort_by(|&(a, b), &(c, d)| latency.rtt(c, d).partial_cmp(&latency.rtt(a, b)).unwrap());
    bad_pairs.dedup_by_key(|&mut (a, b)| if a < b { (a, b) } else { (b, a) });

    println!("\nten worst call paths and what the overlay does for them:");
    println!(
        "{:>4} → {:<4} {:>10} {:>10} {:>10} {:>12}",
        "src", "dst", "direct ms", "via", "overlay ms", "optimal ms"
    );
    let mut improved = 0;
    let mut optimal_hits = 0;
    let calls: Vec<(usize, usize)> = bad_pairs.into_iter().take(10).collect();
    for &(src, dst) in &calls {
        let node = world.node(src);
        let direct = latency.rtt(src, dst);
        let hop = node.best_hop(NodeId(dst as u16), sim.now());
        let overlay_ms = hop.map_or(direct, |h| {
            if h.index() == dst {
                direct
            } else {
                latency.rtt(src, h.index()) + latency.rtt(h.index(), dst)
            }
        });
        let optimal = latency.best_path_with_one_hop(src, dst);
        if overlay_ms < direct {
            improved += 1;
        }
        if (overlay_ms - optimal).abs() < 25.0 {
            optimal_hits += 1;
        }
        println!(
            "{:>4} → {:<4} {:>10.0} {:>10} {:>10.0} {:>12.0}",
            src,
            dst,
            direct,
            hop.map_or("-".into(), |h| h.to_string()),
            overlay_ms,
            optimal
        );
    }
    println!(
        "\n{improved}/{} calls improved by detouring; {optimal_hits}/{} within 25 ms of the optimum",
        calls.len(),
        calls.len()
    );
    println!(
        "(per-node routing cost at n={n}: quorum {:.1} Kbps vs full-mesh {:.1} Kbps)",
        allpairs_overlay::analysis::theory::quorum_routing_bps(n as f64) / 1000.0,
        allpairs_overlay::analysis::theory::ron_routing_bps(n as f64) / 1000.0,
    );
}

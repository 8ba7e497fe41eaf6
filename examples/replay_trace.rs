//! Replay a measured RTT trace through the overlay.
//!
//! Downstream users rarely want a synthetic Internet — they have their own
//! all-pairs measurements. This example shows the external-data path: a
//! latency matrix in the simple `src,dst,rtt_ms,loss` CSV format (pass a
//! file path as the first argument, or let the example synthesize and
//! dump one) is loaded with `LatencyMatrix::from_csv`, the overlay runs
//! on it, and the resulting routes are compared against the trace's own
//! optimum.
//!
//! ```sh
//! cargo run --release --example replay_trace             # demo trace
//! cargo run --release --example replay_trace pings.csv   # your data
//! ```

use allpairs_overlay::overlay::config::{Algorithm, NodeConfig};
use allpairs_overlay::overlay::simnode::{overlay_sim_config, World};
use allpairs_overlay::quorum::NodeId;
use allpairs_overlay::topology::{FailureParams, LatencyMatrix, PlanetLabParams, Topology};

fn main() {
    let arg = std::env::args().nth(1);
    let (matrix, source) = match arg {
        Some(path) => {
            let csv = std::fs::read_to_string(&path).expect("read trace file");
            (LatencyMatrix::from_csv(&csv).expect("parse trace"), path)
        }
        None => {
            // No trace supplied: synthesize one, dump it, and read it back
            // through the same code path a real trace would take.
            let topo = Topology::generate(&PlanetLabParams::with_n(30));
            let csv = topo.latency.to_csv();
            let path = std::env::temp_dir().join("apor-demo-trace.csv");
            std::fs::write(&path, &csv).expect("write demo trace");
            (
                LatencyMatrix::from_csv(&csv).expect("roundtrip"),
                path.display().to_string(),
            )
        }
    };
    let n = matrix.len();
    println!("== replaying trace {source} ({n} nodes) ==\n");

    let mut world = World::new(
        matrix,
        FailureParams::none(n, 1e9),
        overlay_sim_config(),
        5.0,
        |i| NodeConfig::static_member(i, n, Algorithm::Quorum),
    );
    world.run_until(200.0);
    let sim = world.sim();
    let matrix = sim.latency();

    // Score every pair: how close is the overlay's route to the trace's
    // one-hop optimum?
    let mut within_tolerance = 0usize;
    let mut total = 0usize;
    let mut total_direct = 0.0;
    let mut total_chosen = 0.0;
    for src in 0..n {
        let node = world.node(src);
        for dst in 0..n {
            if src == dst || !matrix.reachable(src, dst) {
                continue;
            }
            total += 1;
            let direct = matrix.rtt(src, dst);
            let optimal = matrix.best_path_with_one_hop(src, dst);
            let chosen = match node.best_hop(NodeId(dst as u16), sim.now()) {
                Some(h) if h.index() == dst => direct,
                Some(h) => matrix.rtt(src, h.index()) + matrix.rtt(h.index(), dst),
                None => f64::INFINITY,
            };
            total_direct += direct;
            total_chosen += chosen.min(direct + 1e9); // count unrouted as direct-ish
            if chosen <= optimal * 1.08 + 3.0 {
                within_tolerance += 1;
            }
        }
    }
    println!(
        "pairs routed within tolerance of the trace optimum: {within_tolerance}/{total} ({:.1}%)",
        100.0 * within_tolerance as f64 / total as f64
    );
    println!(
        "mean latency: direct {:.1} ms → overlay {:.1} ms",
        total_direct / total as f64,
        total_chosen / total as f64
    );
}

//! Rendezvous failover in action (section 4.1, figure 4(b)'s scenario).
//!
//! A 25-node overlay runs healthily; at t = 300 s we cut node 0's links to
//! *both* of its default rendezvous servers for destination 24, and the
//! direct link 0–24 — exactly figure 4(b)'s "proximal rendezvous + direct
//! failures". The demo prints a timeline of what node 0 knows about
//! destination 24 while the section 4.1 machinery detects the double
//! rendezvous failure, picks a random failover rendezvous from 24's
//! row/column, and recovers the route. At t = 700 s the links heal and
//! node 0 reverts to its default rendezvous.
//!
//! ```sh
//! cargo run --release --example failover_demo
//! ```

use allpairs_overlay::netsim::Simulator;
use allpairs_overlay::overlay::config::{Algorithm, NodeConfig};
use allpairs_overlay::overlay::simnode::{overlay_at, overlay_sim_config, populate};
use allpairs_overlay::quorum::{Grid, NodeId};
use allpairs_overlay::topology::{FailureParams, FailureSchedule, LatencyMatrix, LinkOutage};

fn main() {
    let n = 25;
    let src = 0usize;
    let dst = 24usize;
    let grid = Grid::new(n);
    let pair = grid.default_rendezvous_pair(src, dst);
    println!("== rendezvous failover demo: {n} nodes ==");
    println!(
        "src {src} at grid {:?}, dst {dst} at grid {:?}; default rendezvous pair {pair:?}",
        grid.position(src),
        grid.position(dst),
    );
    println!(
        "t=300s: links {src}–{} , {src}–{} and {src}–{dst} fail; t=700s: they heal\n",
        pair[0], pair[1]
    );

    let (kill, heal) = (300.0, 700.0);
    let mut params = FailureParams::with_n(n);
    params.median_concurrent = 1e-9; // no background noise, only our injection
    params.duration_s = 1100.0;
    params.link_outages = pair
        .iter()
        .map(|&s| (src, s))
        .chain(std::iter::once((src, dst)))
        .map(|(a, b)| LinkOutage {
            a,
            b,
            start_s: kill,
            end_s: heal,
        })
        .collect();
    let schedule = FailureSchedule::generate(&params);

    let mut sim = Simulator::new(
        LatencyMatrix::uniform(n, 60.0),
        schedule,
        overlay_sim_config(),
    );
    let members: Vec<NodeId> = (0..n as u16).map(NodeId).collect();
    populate(&mut sim, n, 5.0, move |i| {
        NodeConfig::new(NodeId(i as u16), NodeId(0), Algorithm::Quorum)
            .with_static_members(members.clone())
    });

    println!(
        "{:>6} {:>10} {:>9} {:>9} {:>16} {:>10}",
        "t (s)", "route age", "best hop", "dbl-fail", "active failover", "phase"
    );
    for step in 1..=22 {
        let t = step as f64 * 50.0;
        sim.run_until(t);
        let node = overlay_at(&sim, src);
        let age = node.route_age(NodeId(dst as u16), t);
        let hop = node.best_hop(NodeId(dst as u16), t);
        let dbl = node.double_rendezvous_failures(t);
        let failover = node
            .quorum_router()
            .and_then(|r| r.active_failover(dst))
            .map_or("-".to_string(), |f| format!("node {f}"));
        let phase = if t < kill {
            "healthy"
        } else if t < heal {
            "FAILED"
        } else {
            "healed"
        };
        println!(
            "{:>6.0} {:>10} {:>9} {:>9} {:>16} {:>10}",
            t,
            age.map_or("never".into(), |a| format!("{a:.0}s")),
            hop.map_or("-".into(), |h| h.to_string()),
            dbl,
            failover,
            phase
        );
    }

    let node = overlay_at(&sim, src);
    let final_age = node.route_age(NodeId(dst as u16), sim.now());
    println!(
        "\nfinal route age to dst {dst}: {:.0}s; failovers selected during the run: {}",
        final_age.unwrap_or(f64::NAN),
        node.telemetry()
            .snapshot()
            .counter_total("routing", "failovers_selected")
    );
}

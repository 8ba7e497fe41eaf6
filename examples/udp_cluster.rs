//! A real overlay on real UDP sockets — the "deployment" path.
//!
//! Spawns a 5-node quorum overlay on localhost, with every node running
//! the exact same state machine the simulator drives: one thread per
//! node on a `std` socket, the full probing/link-state/recommendation
//! protocol. The protocol clock is scaled ~60× so the run completes in
//! seconds. Waits until every node knows a route to every peer (or gives
//! up after 10 s), prints each node's measured latencies and chosen
//! routes, shuts the fleet down cleanly, and exits non-zero if any route
//! was missing.
//!
//! ```sh
//! cargo run --release --example udp_cluster
//! ```

use allpairs_overlay::overlay::config::{Algorithm, NodeConfig};
use allpairs_overlay::overlay::node::OverlayNode;
use allpairs_overlay::overlay::udp::{PeerMap, UdpOverlay};
use allpairs_overlay::quorum::NodeId;
use allpairs_overlay::routing::ProtocolConfig;
use std::net::UdpSocket;
use std::process::ExitCode;
use std::time::{Duration, Instant};

fn fast_protocol() -> ProtocolConfig {
    let mut p = ProtocolConfig::quorum();
    p.probe_interval_s = 0.6;
    p.probe_timeout_s = 0.05;
    p.rapid_probe_interval_s = 0.1;
    p.routing_interval_s = 0.4;
    p
}

/// The peers `overlay`'s node has no route to right now.
fn unrouted(overlay: &UdpOverlay, n: u16) -> Vec<NodeId> {
    let now = overlay.now();
    overlay.with_node(|node| {
        (0..n)
            .map(NodeId)
            .filter(|&d| d != node.id() && node.best_hop(d, now).is_none())
            .collect()
    })
}

fn main() -> std::io::Result<ExitCode> {
    let n: u16 = 5;
    println!("== {n}-node overlay on real UDP sockets (localhost) ==\n");

    // Bind everything first so the peer map is complete before any node
    // starts talking.
    let mut sockets = Vec::new();
    let mut peers = PeerMap::new();
    for i in 0..n {
        let s = UdpSocket::bind("127.0.0.1:0")?;
        println!("  {} @ {}", NodeId(i), s.local_addr()?);
        peers.insert(NodeId(i), s.local_addr()?);
        sockets.push(s);
    }

    let mut fleet = Vec::new();
    for (i, socket) in (0..n).zip(sockets) {
        let mut cfg = NodeConfig::static_member(usize::from(i), usize::from(n), Algorithm::Quorum);
        cfg.protocol = fast_protocol();
        fleet.push(UdpOverlay::spawn(
            OverlayNode::new(cfg),
            socket,
            peers.clone(),
        ));
    }

    println!("\nprobing and routing until every node reaches every peer…\n");
    let started = Instant::now();
    while started.elapsed() < Duration::from_secs(10)
        && fleet.iter().any(|o| !unrouted(o, n).is_empty())
    {
        std::thread::sleep(Duration::from_millis(20));
    }

    let mut missing = 0;
    for overlay in &fleet {
        let now = overlay.now();
        missing += unrouted(overlay, n).len();
        overlay.with_node(|node| {
            let me = node.id();
            let peers = || (0..n).map(NodeId).filter(move |&j| j != me);
            let lat: Vec<String> = peers()
                .map(|j| {
                    format!(
                        "{j}:{:.1}ms",
                        node.measured_latency_ms(j).unwrap_or(f64::NAN)
                    )
                })
                .collect();
            let routes: Vec<String> = peers()
                .map(|j| {
                    let hop = node.best_hop(j, now).map_or("?".into(), |h| h.to_string());
                    format!("{j}→{hop}")
                })
                .collect();
            println!(
                "{me}: member={} latencies=[{}] routes=[{}]",
                node.is_member(),
                lat.join(" "),
                routes.join(" ")
            );
        });
    }

    println!("\nshutting down…");
    for overlay in fleet {
        overlay.shutdown()?;
    }
    println!(
        "all nodes stopped cleanly after {:.1} s.",
        started.elapsed().as_secs_f64()
    );
    if missing > 0 {
        eprintln!("{missing} routes missing");
        return Ok(ExitCode::FAILURE);
    }
    Ok(ExitCode::SUCCESS)
}

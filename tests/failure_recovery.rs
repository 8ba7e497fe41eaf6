//! Section 4.1's failure scenarios, with their recovery-time bounds.
//!
//! The paper bounds recovery (time until Src again holds a usable best-hop
//! recommendation for Dst) after failure *detection*:
//!
//! * scenario 1 — direct + best-hop failure: ≤ 2r
//! * scenario 2 — proximal rendezvous ×2 + direct failure: ≤ 2r
//! * scenario 3 — proximal + remote rendezvous + direct failure: ≤ 3r
//!
//! Detection itself takes up to one probing interval `p` (rapid re-probe),
//! and remote rendezvous failures take up to an extra routing interval to
//! notice. We assert end-to-end bounds of `p + k·r` with one interval of
//! slack for message-loss jitter.

use allpairs_overlay::netsim::Simulator;
use allpairs_overlay::overlay::config::{Algorithm, NodeConfig};
use allpairs_overlay::overlay::simnode::{overlay_at, overlay_sim_config, populate};
use allpairs_overlay::quorum::{Grid, NodeId};
use allpairs_overlay::topology::{
    FailureParams, FailureSchedule, LatencyMatrix, LinkOutage, NodeOutage,
};

const N: usize = 25;
const KILL: f64 = 400.0; // failures begin (probing is settled by then)
const P: f64 = 30.0; // probing interval
const R: f64 = 15.0; // quorum routing interval

/// Run a 25-node uniform overlay with the given injected outages; return
/// the simulator plus the ground-truth matrix.
fn run_with_outages(
    link_outages: Vec<LinkOutage>,
    node_outages: Vec<NodeOutage>,
    until_s: f64,
) -> Simulator {
    let mut params = FailureParams::with_n(N);
    params.median_concurrent = 1e-9;
    params.duration_s = until_s + 100.0;
    params.link_outages = link_outages;
    params.node_outages = node_outages;
    let schedule = FailureSchedule::generate(&params);
    let mut sim = Simulator::new(
        LatencyMatrix::uniform(N, 60.0),
        schedule,
        overlay_sim_config(),
    );
    let members: Vec<NodeId> = (0..N as u16).map(NodeId).collect();
    populate(&mut sim, N, 5.0, move |i| {
        NodeConfig::new(NodeId(i as u16), NodeId(0), Algorithm::Quorum)
            .with_static_members(members.clone())
    });
    sim
}

fn outage(a: usize, b: usize, until_s: f64) -> LinkOutage {
    LinkOutage {
        a,
        b,
        start_s: KILL,
        end_s: until_s,
    }
}

/// Earliest time ≥ `from` at which `src` holds a *usable, live* route to
/// `dst`: a fresh recommendation whose hop avoids every dead link.
fn recovery_time(
    sim: &mut Simulator,
    src: usize,
    dst: usize,
    dead: &[(usize, usize)],
    from: f64,
    until: f64,
) -> Option<f64> {
    let is_dead = |a: usize, b: usize| dead.contains(&(a, b)) || dead.contains(&(b, a));
    let mut t = from;
    while t <= until {
        sim.run_until(t);
        let node = overlay_at(sim, src);
        if let Some(hop) = node.best_hop(NodeId(dst as u16), t) {
            let h = hop.index();
            let usable = if h == dst {
                !is_dead(src, dst)
            } else {
                !is_dead(src, h) && !is_dead(h, dst)
            };
            // Require the route to be *fresh* information (received after
            // the failures began), not a stale pre-failure recommendation.
            let fresh = node
                .route_age(NodeId(dst as u16), t)
                .is_some_and(|age| t - age >= KILL);
            if usable && fresh {
                return Some(t);
            }
        }
        t += 1.0;
    }
    None
}

/// Scenario 1 (figure 4a): the direct link Src–Dst and the link to the
/// current best hop fail. Both rendezvous stay healthy ⇒ recovery within
/// one probing interval (detection) + 2 routing intervals.
#[test]
fn scenario_1_direct_and_best_hop_failure() {
    let (src, dst) = (0usize, 24usize);
    // With uniform latency, make node 1 the attractive hop by keeping it;
    // kill direct and one arbitrary relay — the bound is about the
    // recommendation refresh, not which relay dies.
    let dead = vec![(src, dst), (src, 1)];
    let outages = dead.iter().map(|&(a, b)| outage(a, b, 2000.0)).collect();
    let mut sim = run_with_outages(outages, vec![], 2000.0);
    let recovered =
        recovery_time(&mut sim, src, dst, &dead, KILL, KILL + 200.0).expect("must recover");
    let bound = P + 2.0 * R + R; // detection + 2r, plus one interval slack
    assert!(
        recovered - KILL <= bound,
        "scenario 1 took {:.0}s > {:.0}s",
        recovered - KILL,
        bound
    );
}

/// Scenario 2 (figure 4b): proximal failures to *both* default rendezvous
/// plus the direct link. Src fails over to one of Dst's other rendezvous
/// ⇒ still ≤ detection + 2r.
#[test]
fn scenario_2_proximal_rendezvous_failures() {
    let (src, dst) = (0usize, 24usize);
    let grid = Grid::new(N);
    let pair = grid.default_rendezvous_pair(src, dst);
    assert_eq!(pair.len(), 2, "uniform grid has two default rendezvous");
    let mut dead: Vec<(usize, usize)> = pair.iter().map(|&s| (src, s)).collect();
    dead.push((src, dst));
    let outages = dead.iter().map(|&(a, b)| outage(a, b, 2000.0)).collect();
    let mut sim = run_with_outages(outages, vec![], 2000.0);
    let recovered =
        recovery_time(&mut sim, src, dst, &dead, KILL, KILL + 300.0).expect("must recover");
    let bound = P + 2.0 * R + 2.0 * R; // detection + 2r + slack
    assert!(
        recovered - KILL <= bound,
        "scenario 2 took {:.0}s > {:.0}s",
        recovered - KILL,
        bound
    );
}

/// Scenario 3 (figure 4c): one proximal and one *remote* rendezvous
/// failure plus the direct link. The remote failure needs an extra routing
/// interval to detect ⇒ ≤ detection + 3r.
#[test]
fn scenario_3_remote_rendezvous_failure() {
    let (src, dst) = (0usize, 24usize);
    let grid = Grid::new(N);
    let pair = grid.default_rendezvous_pair(src, dst); // {4, 20}
    let (r1, r2) = (pair[0], pair[1]);
    // Proximal: src loses its link to r1. Remote: r2 loses its link to
    // dst (so r2 stops recommending dst, but src still reaches r2).
    let dead = vec![(src, r1), (r2, dst), (src, dst)];
    let outages = dead.iter().map(|&(a, b)| outage(a, b, 2000.0)).collect();
    let mut sim = run_with_outages(outages, vec![], 2000.0);
    let recovered =
        recovery_time(&mut sim, src, dst, &dead, KILL, KILL + 300.0).expect("must recover");
    // Remote detection adds up to REMOTE_FAILURE_INTERVALS (2.5r) on top
    // of scenario 2's bound.
    let bound = P + 3.0 * R + 2.5 * R + R;
    assert!(
        recovered - KILL <= bound,
        "scenario 3 took {:.0}s > {:.0}s",
        recovered - KILL,
        bound
    );
}

/// A dead destination must not cause unbounded failover churn, and nodes
/// must stop claiming routes to it once information expires.
#[test]
fn dead_destination_converges_to_no_route() {
    let (src, dst) = (0usize, 24usize);
    let node_outages = vec![NodeOutage {
        node: dst,
        start_s: KILL,
        end_s: 4000.0,
    }];
    let mut sim = run_with_outages(vec![], node_outages, 4000.0);
    sim.run_until(KILL + 400.0);
    let node = overlay_at(&sim, src);
    // All information about dst has expired: no route is claimed.
    assert_eq!(
        node.best_hop(NodeId(dst as u16), sim.now()),
        None,
        "route to a dead node must eventually disappear"
    );
    // Failover attempts were bounded (dead-destination suppression).
    // The exact count depends on how probe phases align with the
    // staleness window — each routing tick before the last row expires
    // may select one more candidate — so the guard allows a little more
    // than one pass over the 2(√n−1) grid candidates. Unbounded churn
    // would keep selecting forever (the count is flat from here on).
    let failovers = node
        .telemetry()
        .snapshot()
        .counter_total("routing", "failovers_selected");
    assert!(
        failovers <= 12,
        "unbounded failover churn towards a dead node: {failovers}"
    );
}

/// After the failed links heal, the overlay reverts to default rendezvous
/// and direct routes.
#[test]
fn full_recovery_after_healing() {
    let (src, dst) = (0usize, 24usize);
    let grid = Grid::new(N);
    let pair = grid.default_rendezvous_pair(src, dst);
    let heal = KILL + 300.0;
    let mut dead: Vec<(usize, usize)> = pair.iter().map(|&s| (src, s)).collect();
    dead.push((src, dst));
    let outages = dead
        .iter()
        .map(|&(a, b)| LinkOutage {
            a,
            b,
            start_s: KILL,
            end_s: heal,
        })
        .collect();
    let mut sim = run_with_outages(outages, vec![], heal + 400.0);
    sim.run_until(heal + 300.0);
    let node = overlay_at(&sim, src);
    // Direct link is best again in a uniform world.
    assert_eq!(
        node.best_hop(NodeId(dst as u16), sim.now()),
        Some(NodeId(dst as u16)),
        "should revert to the direct route"
    );
    assert_eq!(
        node.quorum_router().and_then(|r| r.active_failover(dst)),
        None,
        "failover rendezvous must be dropped after reversion"
    );
    assert_eq!(node.double_rendezvous_failures(sim.now()), 0);
}

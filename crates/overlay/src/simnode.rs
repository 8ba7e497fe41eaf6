//! Adapter running an [`OverlayNode`] inside the netsim simulator.
//!
//! The mapping convention: simulator node index `i` hosts the overlay node
//! with identity `NodeId(i)`. (Identities and simulator slots coincide;
//! *grid* indices still come from the membership view and may differ when
//! membership is sparse.)

use crate::node::{Outbox, OverlayNode};
use apor_netsim::{Ctx, NodeBehavior, SimulatorConfig};

/// A [`SimulatorConfig`] whose per-packet framing comes from the
/// overlay's real wire constant
/// ([`apor_linkstate::wire::UDP_IP_OVERHEAD`]), so the simulator's
/// bandwidth accounting reproduces the paper's figures without netsim
/// hand-mirroring the value. Overlay simulations should start from this
/// and override fields as needed:
///
/// ```
/// use apor_netsim::SimulatorConfig;
/// let cfg = SimulatorConfig { seed: 7, ..apor_overlay::simnode::overlay_sim_config() };
/// assert_eq!(cfg.per_packet_overhead, apor_linkstate::wire::UDP_IP_OVERHEAD);
/// ```
#[must_use]
pub fn overlay_sim_config() -> SimulatorConfig {
    SimulatorConfig::default().with_per_packet_overhead(apor_linkstate::wire::UDP_IP_OVERHEAD)
}

/// The netsim driver for one overlay node.
pub struct SimNode {
    node: OverlayNode,
}

impl SimNode {
    /// Wrap an overlay node for simulation.
    #[must_use]
    pub fn new(node: OverlayNode) -> Self {
        SimNode { node }
    }

    /// Borrow the wrapped overlay node (post-run inspection).
    #[must_use]
    pub fn overlay(&self) -> &OverlayNode {
        &self.node
    }

    fn flush(out: Outbox, ctx: &mut Ctx<'_>) {
        for (to, class, bytes) in out.sends {
            ctx.send(to.index(), class, bytes);
        }
        for (delay, token) in out.timers {
            ctx.set_timer(delay, token);
        }
    }
}

impl NodeBehavior for SimNode {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        let mut out = Outbox::default();
        self.node.on_start(ctx.now(), &mut out);
        Self::flush(out, ctx);
    }

    fn on_packet(&mut self, ctx: &mut Ctx<'_>, _from: usize, payload: &[u8]) {
        let mut out = Outbox::default();
        self.node.on_packet(ctx.now(), payload, &mut out);
        Self::flush(out, ctx);
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_>, token: u64) {
        let mut out = Outbox::default();
        self.node.on_timer(ctx.now(), token, &mut out);
        Self::flush(out, ctx);
    }

    /// Graceful shutdown ([`apor_netsim::Simulator::shutdown_node`]):
    /// the overlay announces its departure (SWIM `Left` gossip or a
    /// centralized `Leave`) and the farewell packets are flushed before
    /// the node goes silent.
    fn on_shutdown(&mut self, ctx: &mut Ctx<'_>) {
        let mut out = Outbox::default();
        self.node.on_shutdown(ctx.now(), &mut out);
        Self::flush(out, ctx);
    }

    fn as_any(&self) -> &dyn std::any::Any {
        self
    }
}

/// Build a complete simulated overlay: one [`SimNode`] per matrix row,
/// with staggered starts, all using `make_config` to derive their
/// [`NodeConfig`](crate::config::NodeConfig).
pub fn populate<F>(sim: &mut apor_netsim::Simulator, n: usize, start_spread_s: f64, make_config: F)
where
    F: Fn(usize) -> crate::config::NodeConfig,
{
    for i in 0..n {
        let cfg = make_config(i);
        let start = start_spread_s * (i as f64) / (n.max(1) as f64);
        sim.add_node(Box::new(SimNode::new(OverlayNode::new(cfg))), start);
    }
}

/// Convenience for experiments: borrow the overlay node at simulator slot
/// `i`.
///
/// # Panics
/// Panics if slot `i` does not host a [`SimNode`].
#[must_use]
pub fn overlay_at(sim: &apor_netsim::Simulator, i: usize) -> &OverlayNode {
    sim.node(i)
        .as_any()
        .downcast_ref::<SimNode>()
        .expect("slot hosts a SimNode")
        .overlay()
}

/// The whole fleet's telemetry in one snapshot: the registries of the
/// overlay nodes at slots `0..n` merged with the simulator's per-node
/// packet accounting.
///
/// # Panics
/// Panics if a slot below `n` does not host a [`SimNode`].
#[must_use]
pub fn fleet_snapshot(sim: &apor_netsim::Simulator, n: usize) -> apor_telemetry::Snapshot {
    let mut snap = sim.telemetry_snapshot();
    for i in 0..n {
        snap.merge(&overlay_at(sim, i).telemetry().snapshot());
    }
    snap
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{Algorithm, NodeConfig};
    use apor_netsim::{Simulator, TrafficClass};
    use apor_quorum::NodeId;
    use apor_topology::{FailureParams, LatencyMatrix};

    fn static_cfg(n: usize, algo: Algorithm) -> impl Fn(usize) -> NodeConfig {
        move |i| {
            let members: Vec<NodeId> = (0..n as u16).map(NodeId).collect();
            NodeConfig::new(NodeId(i as u16), NodeId(0), algo).with_static_members(members)
        }
    }

    /// End-to-end: a 9-node simulated quorum overlay discovers the optimal
    /// one-hop detour over a hub.
    #[test]
    fn sim_overlay_finds_optimal_detour() {
        let n = 9;
        let mut m = LatencyMatrix::uniform(n, 100.0);
        for i in 0..n {
            if i != 4 {
                m.set_rtt(i, 4, 10.0);
            }
        }
        m.set_rtt(0, 8, 400.0);
        let mut sim = Simulator::new(m, FailureParams::none(n, 1e9), overlay_sim_config());
        populate(&mut sim, n, 5.0, static_cfg(n, Algorithm::Quorum));
        // Probing needs ~30 s to fill rows; two routing intervals after
        // that the optimal one-hop must be known everywhere.
        sim.run_until(120.0);
        let node0 = overlay_at(&sim, 0);
        assert_eq!(
            node0.best_hop(NodeId(8), 120.0),
            Some(NodeId(4)),
            "node 0 must discover the hub detour"
        );
        // Latency estimates reflect the matrix.
        let l = node0.measured_latency_ms(NodeId(4)).unwrap();
        assert!((l - 10.0).abs() < 2.0, "hub latency {l}");
        // And the freshness metric is bounded by ~one routing interval.
        let age = node0.route_age(NodeId(8), 120.0).unwrap();
        assert!(age <= 16.0, "route age {age}");
    }

    /// The headline bandwidth claim, in miniature: quorum routing traffic
    /// is well below full-mesh at the same n. (n must sit above the
    /// crossover at n ≈ 45 — below it the quorum scheme's halved routing
    /// interval makes it the *more* expensive algorithm, exactly as the
    /// paper's section 6 formulas predict.)
    #[test]
    fn quorum_uses_less_routing_bandwidth_than_fullmesh() {
        let n = 81;
        let run = |algo: Algorithm| {
            let m = LatencyMatrix::uniform(n, 50.0);
            let mut sim = Simulator::new(m, FailureParams::none(n, 1e9), overlay_sim_config());
            populate(&mut sim, n, 5.0, static_cfg(n, algo));
            sim.run_until(300.0);
            // Measure steady state: minutes 2–5.
            sim.stats()
                .fleet_mean_bps(&[TrafficClass::Routing], 120.0, 300.0)
        };
        let full = run(Algorithm::FullMesh);
        let quorum = run(Algorithm::Quorum);
        assert!(
            quorum < 0.75 * full,
            "quorum {quorum:.0} bps vs full-mesh {full:.0} bps"
        );
        // Both are in a sane absolute range (see figure 9: tens of Kbps
        // at n=140; much less at n=36).
        assert!(full > 1_000.0 && full < 100_000.0, "full {full}");
    }

    /// Probing traffic is identical across algorithms (measurement is
    /// full-mesh either way) and ≈ the paper's 49.1·n bps.
    #[test]
    fn probing_bandwidth_matches_theory() {
        let n = 25;
        let m = LatencyMatrix::uniform(n, 50.0);
        let mut sim = Simulator::new(m, FailureParams::none(n, 1e9), overlay_sim_config());
        populate(&mut sim, n, 5.0, static_cfg(n, Algorithm::Quorum));
        sim.run_until(300.0);
        let probing = sim
            .stats()
            .fleet_mean_bps(&[TrafficClass::Probing], 60.0, 300.0);
        let theory = 49.1 * n as f64;
        assert!(
            (probing - theory).abs() / theory < 0.15,
            "probing {probing:.0} bps vs theory {theory:.0}"
        );
    }

    /// Graceful shutdown on the SWIM plane: the `Left` gossip flushed
    /// by [`Simulator::shutdown_node`] reconfigures the survivors far
    /// faster than failure detection would.
    #[test]
    fn graceful_leave_reconfigures_survivors() {
        use apor_membership::{detection_budget_s, PUBLISH_PERIOD_S};
        let n = 8;
        let m = LatencyMatrix::uniform(n, 40.0);
        let mut sim = Simulator::new(m, FailureParams::none(n, 1e9), overlay_sim_config());
        populate(&mut sim, n, 2.0, move |i| {
            let members: Vec<NodeId> = (0..n as u16).map(NodeId).collect();
            NodeConfig::new(NodeId(i as u16), NodeId(0), Algorithm::Quorum)
                .with_static_members(members)
                .with_swim()
        });
        sim.run_until(30.0);
        sim.shutdown_node(5);
        assert!(overlay_at(&sim, 5).is_shut_down());
        // Far below the ~26 s failure-detection budget for n=8, every
        // survivor has installed a view that excludes the leaver.
        let budget = PUBLISH_PERIOD_S + 8.0;
        assert!(budget < detection_budget_s(n) / 2.0);
        sim.run_until(30.0 + budget);
        for i in (0..n).filter(|&i| i != 5) {
            let view = overlay_at(&sim, i).view().expect("view installed");
            assert!(
                !view.contains(NodeId(5)),
                "node {i} still sees the leaver after a graceful leave"
            );
        }
    }

    /// Nodes joining through the coordinator converge to one view.
    #[test]
    fn dynamic_membership_converges() {
        let n = 6;
        let m = LatencyMatrix::uniform(n, 40.0);
        let mut sim = Simulator::new(m, FailureParams::none(n, 1e9), overlay_sim_config());
        populate(&mut sim, n, 10.0, move |i| {
            NodeConfig::new(NodeId(i as u16), NodeId(0), Algorithm::Quorum)
        });
        sim.run_until(60.0);
        for i in 0..n {
            let node = overlay_at(&sim, i);
            assert!(node.is_member(), "node {i} not a member");
            assert_eq!(node.view().unwrap().len(), n, "node {i} has partial view");
        }
        // All views identical.
        let v0 = overlay_at(&sim, 0).view().unwrap().clone();
        for i in 1..n {
            assert_eq!(overlay_at(&sim, i).view().unwrap(), &v0);
        }
    }
}

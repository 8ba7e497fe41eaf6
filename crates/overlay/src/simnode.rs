//! Adapter running an [`OverlayNode`] inside the netsim simulator.
//!
//! The mapping convention: simulator node index `i` hosts the overlay node
//! with identity `NodeId(i)`. (Identities and simulator slots coincide;
//! *grid* indices still come from the membership view and may differ when
//! membership is sparse.)

use crate::config::NodeConfig;
use crate::membership::MembershipView;
use crate::node::{Outbox, OverlayNode};
use apor_netsim::{Ctx, FailureSchedule, LatencyMatrix, NodeBehavior, Simulator, SimulatorConfig};
use apor_quorum::NodeId;
use apor_telemetry::trace::Span;
use apor_telemetry::Snapshot;

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

/// The netsim driver for one overlay node; a [`World`] hosts one per
/// simulator slot.
struct SimNode {
    node: OverlayNode,
}

impl SimNode {
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

/// One simulated run: the simulator and the overlay fleet it hosts, one
/// netsim driver per latency-matrix row. Callers read the matrix and the
/// schedule back through [`World::sim`] instead of keeping copies.
pub struct World {
    sim: Simulator,
}

impl World {
    /// The simulator over `latency` and `schedule`, with node `i`
    /// (configured by `node(i)`) at slot `i` of every matrix row,
    /// starting at `start_spread_s · i / n`.
    #[must_use]
    pub fn new(
        latency: LatencyMatrix,
        schedule: FailureSchedule,
        config: SimulatorConfig,
        start_spread_s: f64,
        mut node: impl FnMut(usize) -> NodeConfig,
    ) -> World {
        let n = latency.len();
        let mut sim = Simulator::new(latency, schedule, config);
        for i in 0..n {
            let start = start_spread_s * (i as f64) / (n.max(1) as f64);
            let node = OverlayNode::new(node(i));
            sim.add_node(Box::new(SimNode { node }), start);
        }
        World { sim }
    }

    /// The simulator: time, traffic, events and the network.
    #[must_use]
    pub fn sim(&self) -> &Simulator {
        &self.sim
    }

    /// Run the simulation until `until_s` ([`Simulator::run_until`]).
    pub fn run_until(&mut self, until_s: f64) {
        self.sim.run_until(until_s);
    }

    /// The overlay node at slot `i`.
    #[must_use]
    pub fn node(&self, i: usize) -> &OverlayNode {
        self.sim
            .node(i)
            .as_any()
            .downcast_ref::<SimNode>()
            .map(|host| &host.node)
            .expect("a World slot hosts a SimNode")
    }

    /// The whole fleet's telemetry in one snapshot: every node's
    /// registry merged with the simulator's per-node packet accounting.
    #[must_use]
    pub fn snapshot(&self) -> Snapshot {
        let mut snap = self.sim.telemetry_snapshot();
        for i in 0..self.sim.latency().len() {
            snap.merge(&self.node(i).telemetry().snapshot());
        }
        snap
    }

    /// Every span the fleet's flight recorders hold, node by node.
    #[must_use]
    pub fn spans(&self) -> Vec<Span> {
        let n = self.sim.latency().len();
        (0..n)
            .flat_map(|i| self.node(i).tracer().recent())
            .collect()
    }

    /// The one view all listed nodes hold; `None` when a node has none,
    /// two views differ, or the list is empty.
    #[must_use]
    pub fn common_view(&self, nodes: impl IntoIterator<Item = usize>) -> Option<&MembershipView> {
        let mut common: Option<&MembershipView> = None;
        for i in nodes {
            let view = self.node(i).view()?;
            match common {
                None => common = Some(view),
                Some(c) if c == view => {}
                Some(_) => return None,
            }
        }
        common
    }

    /// Does every `(a, b)` in `pairs` route at `t` both ways? Pairs are
    /// asked in order and the first miss ends the check: a lookup can
    /// count in the node's telemetry, so which lookups run is output.
    #[must_use]
    pub fn routes_both_ways(&self, pairs: &[(usize, usize)], t: f64) -> bool {
        let hop = |from: usize, to: usize| self.node(from).best_hop(NodeId(to as u16), t);
        pairs
            .iter()
            .all(|&(a, b)| hop(a, b).is_some() && hop(b, a).is_some())
    }

    /// The first instant `t = from_s + step_s, + step_s, …` (summed
    /// step by step) before `end_s` at which `done` holds, after running
    /// to it; the run then goes on to `end_s` either way.
    pub fn first_sample(
        &mut self,
        from_s: f64,
        step_s: f64,
        end_s: f64,
        mut done: impl FnMut(&World, f64) -> bool,
    ) -> Option<f64> {
        let (mut t, mut found) = (from_s, None);
        while found.is_none() && t < end_s {
            t += step_s;
            self.sim.run_until(t);
            found = done(self, t).then_some(t);
        }
        self.sim.run_until(end_s);
        found
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Algorithm;
    use apor_netsim::TrafficClass;
    use apor_topology::FailureParams;

    /// A uniform `n`-node world with no failures.
    fn uniform_world(
        n: usize,
        rtt_ms: f64,
        start_spread_s: f64,
        node: impl FnMut(usize) -> NodeConfig,
    ) -> World {
        World::new(
            LatencyMatrix::uniform(n, rtt_ms),
            FailureParams::none(n, 1e9),
            overlay_sim_config(),
            start_spread_s,
            node,
        )
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
        let mut world = World::new(
            m,
            FailureParams::none(n, 1e9),
            overlay_sim_config(),
            5.0,
            |i| NodeConfig::static_member(i, n, Algorithm::Quorum),
        );
        // Probing needs ~30 s to fill rows; two routing intervals after
        // that the optimal one-hop must be known everywhere.
        world.run_until(120.0);
        let node0 = world.node(0);
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
            let mut world = uniform_world(n, 50.0, 5.0, |i| NodeConfig::static_member(i, n, algo));
            world.run_until(300.0);
            // Measure steady state: minutes 2–5.
            world
                .sim()
                .stats()
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
        let mut world = uniform_world(n, 50.0, 5.0, |i| {
            NodeConfig::static_member(i, n, Algorithm::Quorum)
        });
        world.run_until(300.0);
        let probing = world
            .sim()
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
        let mut world = uniform_world(n, 40.0, 2.0, |i| {
            NodeConfig::static_member(i, n, Algorithm::Quorum).with_swim()
        });
        world.run_until(30.0);
        world.sim.shutdown_node(5);
        assert!(world.node(5).is_shut_down());
        // Far below the ~26 s failure-detection budget for n=8, every
        // survivor has installed a view that excludes the leaver.
        let budget = PUBLISH_PERIOD_S + 8.0;
        assert!(budget < detection_budget_s(n) / 2.0);
        world.run_until(30.0 + budget);
        for i in (0..n).filter(|&i| i != 5) {
            let view = world.node(i).view().expect("view installed");
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
        let mut world = uniform_world(n, 40.0, 10.0, |i| {
            NodeConfig::new(NodeId(i as u16), NodeId(0), Algorithm::Quorum)
        });
        world.run_until(60.0);
        for i in 0..n {
            let node = world.node(i);
            assert!(node.is_member(), "node {i} not a member");
            assert_eq!(node.view().unwrap().len(), n, "node {i} has partial view");
        }
        // All views identical.
        let v0 = world.node(0).view().unwrap().clone();
        for i in 1..n {
            assert_eq!(world.node(i).view().unwrap(), &v0);
        }
    }

    /// Before anyone has joined, no node holds a view, so there is no
    /// common one; once the joins settle every node holds the same
    /// view, and a node left out of the list does not count.
    #[test]
    fn common_view_needs_every_listed_node_to_agree() {
        let n = 6;
        let mut world = uniform_world(n, 40.0, 10.0, |i| {
            NodeConfig::new(NodeId(i as u16), NodeId(0), Algorithm::Quorum)
        });
        assert!(world.common_view(0..n).is_none(), "no node has started");
        assert!(world.common_view([]).is_none(), "an empty list has no view");
        world.run_until(60.0);
        let common = world
            .common_view(0..n)
            .expect("the joins converged")
            .clone();
        assert_eq!(common.len(), n);
        assert_eq!(world.common_view([3]), Some(&common));
    }

    /// Two views that differ have no common view: a node that has just
    /// been cut off keeps its full view while the survivors shrink
    /// theirs.
    #[test]
    fn common_view_is_none_when_two_views_differ() {
        use apor_membership::detection_budget_s;
        let n = 8;
        let cut_at = 30.0;
        let schedule = FailureParams::scripted(n, 1e9).with_crashes(&[7], cut_at);
        let mut world = World::new(
            LatencyMatrix::uniform(n, 40.0),
            apor_topology::FailureSchedule::generate(&schedule),
            overlay_sim_config(),
            2.0,
            |i| NodeConfig::static_member(i, n, Algorithm::Quorum).with_swim(),
        );
        world.run_until(cut_at + detection_budget_s(n) + 10.0);
        let survivors = world.common_view(0..7).expect("survivors agree").clone();
        assert!(!survivors.contains(NodeId(7)));
        assert_ne!(world.node(7).view(), Some(&survivors));
        assert!(world.common_view(0..n).is_none());
    }

    /// `first_sample` reports the first sampled instant at which the
    /// condition holds, reached by repeated `+= step_s`, and leaves the
    /// clock at `end_s` whether or not the condition ever held.
    #[test]
    fn first_sample_returns_the_first_instant_and_runs_to_the_end() {
        let mut world = uniform_world(2, 40.0, 0.0, |i| {
            NodeConfig::static_member(i, 2, Algorithm::Quorum)
        });
        let mut asked = Vec::new();
        let found = world.first_sample(10.0, 0.1, 20.0, |w, t| {
            assert_eq!(w.sim().now(), t, "asked at the sampled instant");
            asked.push(t);
            asked.len() == 5
        });
        let want = (0..5).fold(10.0, |t, _| t + 0.1);
        assert_eq!(found, Some(want));
        assert_eq!(asked.last(), Some(&want));
        assert_eq!(world.sim().now(), 20.0);

        let never = world.first_sample(20.0, 1.0, 25.0, |_, _| false);
        assert_eq!(never, None);
        assert_eq!(world.sim().now(), 25.0);
    }
}

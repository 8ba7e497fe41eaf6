//! Per-node overlay configuration.

use apor_membership::AntiEntropyConfig;
use apor_quorum::NodeId;
use apor_routing::ProtocolConfig;
use serde::{Deserialize, Serialize};

/// Which routing algorithm the node runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Algorithm {
    /// RON's original full-mesh link-state broadcast (`Θ(n²)`).
    FullMesh,
    /// The paper's two-round grid-quorum algorithm (`Θ(n√n)`).
    Quorum,
}

impl Algorithm {
    /// The paper's default protocol parameters for this algorithm
    /// (30 s routing interval for full-mesh, 15 s for quorum).
    #[must_use]
    pub fn default_protocol(self) -> ProtocolConfig {
        match self {
            Algorithm::FullMesh => ProtocolConfig::ron(),
            Algorithm::Quorum => ProtocolConfig::quorum(),
        }
    }
}

/// How the overlay learns who its members are.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize, Default)]
pub enum MembershipMode {
    /// The paper's centralized coordinator (section 5): simple, but a
    /// single point of failure.
    #[default]
    Centralized,
    /// Decentralized SWIM gossip (`apor-membership`): coordinator-free
    /// failure detection with agreed, monotonically versioned views.
    Swim,
}

/// Configuration of one overlay node.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct NodeConfig {
    /// This node's stable identity.
    pub id: NodeId,
    /// The membership coordinator's identity ([`MembershipMode::Centralized`]),
    /// or the introducer a joining node contacts first
    /// ([`MembershipMode::Swim`]).
    pub coordinator: NodeId,
    /// Which membership plane the node runs.
    pub membership: MembershipMode,
    /// The SWIM plane's anti-entropy arm (used in
    /// [`MembershipMode::Swim`]). SWIM's timings are the
    /// `apor_membership` constants, and its gossip seed is derived from
    /// [`NodeConfig::seed`].
    pub anti_entropy: AntiEntropyConfig,
    /// Routing algorithm to run.
    pub algorithm: Algorithm,
    /// Protocol timing parameters. The sub-quadratic probing knobs live
    /// here: `probe_policy` / `probe_sample_budget` select entitled +
    /// sampled probing, `probe_interval_max_s` is the ceiling the
    /// per-link adaptive rate backs off to (see
    /// [`ProtocolConfig::with_subquadratic_probing`]).
    pub protocol: ProtocolConfig,
    /// Seed for this node's local randomness (failover picks, phases).
    pub seed: u64,
    /// Join retry period while not yet in the membership view, seconds.
    pub join_retry_s: f64,
    /// Keepalive (re-join) period towards the coordinator, seconds.
    pub keepalive_s: f64,
    /// Coordinator-side membership timeout (paper: 30 minutes), seconds.
    pub member_timeout_s: f64,
    /// Pre-installed membership (skips the join dance). Used by the
    /// steady-state experiments, where the paper measures "after all
    /// nodes have joined".
    pub static_members: Option<Vec<NodeId>>,
    /// Causal-trace flight-recorder capacity in spans (per node).
    /// `0` (the default) disables tracing entirely: no spans are
    /// recorded, no trace context rides the wire, and every
    /// instrumentation site reduces to one relaxed bool load.
    pub trace_capacity: usize,
}

impl NodeConfig {
    /// A node configuration with the paper's defaults.
    #[must_use]
    pub fn new(id: NodeId, coordinator: NodeId, algorithm: Algorithm) -> Self {
        NodeConfig {
            id,
            coordinator,
            membership: MembershipMode::Centralized,
            anti_entropy: AntiEntropyConfig::default(),
            algorithm,
            protocol: algorithm.default_protocol(),
            seed: 0x5EED ^ u64::from(id.0),
            join_retry_s: 5.0,
            keepalive_s: 600.0,
            member_timeout_s: 30.0 * 60.0,
            static_members: None,
            trace_capacity: 0,
        }
    }

    /// Node `i` of a static `n`-node overlay: coordinator 0 and the
    /// view `0..n` pre-installed, the fleet every steady-state study
    /// runs.
    #[must_use]
    pub fn static_member(i: usize, n: usize, algorithm: Algorithm) -> Self {
        let members = (0..n as u16).map(NodeId).collect();
        NodeConfig::new(NodeId(i as u16), NodeId(0), algorithm).with_static_members(members)
    }

    /// Enable causal tracing with a bounded per-node flight recorder
    /// of `capacity` spans (convergence experiments use 1024).
    #[must_use]
    pub fn with_tracing(mut self, capacity: usize) -> Self {
        self.trace_capacity = capacity;
        self
    }

    /// Pre-install a static membership view (no join traffic).
    #[must_use]
    pub fn with_static_members(mut self, members: Vec<NodeId>) -> Self {
        self.static_members = Some(members);
        self
    }

    /// Run the decentralized SWIM membership plane instead of the
    /// centralized coordinator.
    #[must_use]
    pub fn with_swim(mut self) -> Self {
        self.membership = MembershipMode::Swim;
        self
    }

    /// Same node, custom anti-entropy settings on the SWIM plane (implies
    /// [`Self::with_swim`]). `AntiEntropyConfig::disabled()` turns the
    /// periodic push-pull reconciliation off — the ablation arm of
    /// `experiments::partition`.
    #[must_use]
    pub fn with_anti_entropy(mut self, anti_entropy: AntiEntropyConfig) -> Self {
        self.membership = MembershipMode::Swim;
        self.anti_entropy = anti_entropy;
        self
    }

    /// Is this node the membership coordinator?
    #[must_use]
    pub fn is_coordinator(&self) -> bool {
        self.id == self.coordinator
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper_table() {
        let q = NodeConfig::new(NodeId(3), NodeId(0), Algorithm::Quorum);
        assert_eq!(q.protocol.routing_interval_s, 15.0);
        assert_eq!(q.protocol.probe_interval_s, 30.0);
        assert!(!q.is_coordinator());
        assert_eq!(q.member_timeout_s, 1800.0);
        let r = NodeConfig::new(NodeId(0), NodeId(0), Algorithm::FullMesh);
        assert_eq!(r.protocol.routing_interval_s, 30.0);
        assert!(r.is_coordinator());
    }

    #[test]
    fn seeds_differ_per_node() {
        let a = NodeConfig::new(NodeId(1), NodeId(0), Algorithm::Quorum);
        let b = NodeConfig::new(NodeId(2), NodeId(0), Algorithm::Quorum);
        assert_ne!(a.seed, b.seed);
    }

    #[test]
    fn membership_mode_defaults_and_builders() {
        let c = NodeConfig::new(NodeId(1), NodeId(0), Algorithm::Quorum);
        assert_eq!(c.membership, MembershipMode::Centralized);
        let s = c.with_swim();
        assert_eq!(s.membership, MembershipMode::Swim);
        assert!(s.anti_entropy.enabled, "anti-entropy is on by default");
    }

    #[test]
    fn anti_entropy_builder_implies_swim() {
        let c = NodeConfig::new(NodeId(1), NodeId(0), Algorithm::Quorum)
            .with_anti_entropy(AntiEntropyConfig::disabled());
        assert_eq!(c.membership, MembershipMode::Swim);
        assert!(!c.anti_entropy.enabled);
        let on = NodeConfig::new(NodeId(1), NodeId(0), Algorithm::Quorum).with_anti_entropy(
            AntiEntropyConfig {
                enabled: true,
                sync_period_s: 2.0,
            },
        );
        assert!(on.anti_entropy.enabled);
        assert_eq!(on.anti_entropy.sync_period_s, 2.0);
    }

    #[test]
    fn static_member_joins_the_whole_fleet_under_coordinator_0() {
        let c = NodeConfig::static_member(2, 4, Algorithm::FullMesh);
        assert_eq!(
            (c.id, c.coordinator, c.algorithm),
            (NodeId(2), NodeId(0), Algorithm::FullMesh)
        );
        let members: Vec<NodeId> = (0..4).map(NodeId).collect();
        assert_eq!(c.static_members, Some(members));
    }

    #[test]
    fn static_members_installed() {
        let c = NodeConfig::new(NodeId(1), NodeId(0), Algorithm::Quorum).with_static_members(vec![
            NodeId(0),
            NodeId(1),
            NodeId(2),
        ]);
        assert_eq!(c.static_members.as_ref().unwrap().len(), 3);
    }
}

//! Sans-io routing protocol cores for the all-pairs overlay.
//!
//! Everything here is a pure state machine: handlers take the current
//! time and decoded messages, and return messages to transmit. No sockets,
//! no clocks, no tasks — the `apor-netsim` driver and the real-clock
//! UDP driver in `apor-overlay` both run the same code, which is the
//! property the paper leans on when it claims its emulation "uses the same
//! implementation as the one deployed on the Internet" (section 6.1).
//!
//! * [`config`] — the protocol constants of section 5's parameter table.
//! * [`prober`] — RON link monitoring: 30 s probes, rapid re-probe after a
//!   first loss, 5-failure death, EWMA latency; optionally the
//!   sub-quadratic entitled+sampled probing plane with batched frames
//!   and per-link probe-interval backoff on stable links.
//! * [`fullmesh`] — the baseline: broadcast link state to everyone,
//!   `Θ(n²)` per-node communication, the whole matrix held privately
//!   and for one membership view.
//! * [`quorum_router`] — the paper's contribution: the two-round grid
//!   quorum protocol (section 3) with rapid rendezvous failover, remote
//!   failure detection, dead-destination suppression and §4.2 local route
//!   scavenging. Its route table holds one record per destination, as
//!   Babel's does: the recommendation, the feasibility record and the
//!   failover episode. It also decides what it keeps across a membership
//!   change ([`QuorumRouter::reinstall`]): fresh rows of surviving
//!   origins that the new grid entitles it to.
//! * [`multihop`] — the `log l` iteration scheme for optimal routes of
//!   length ≤ l (section 3, "Multi-hop routes"), with the `Sec` next-hop
//!   recovery trick, plus its communication accounting.
//! * [`onehop`] — offline reference computations over a ground-truth
//!   matrix: the optimal one-hop cost routes are measured against, and
//!   the high-latency pairs a detour helps.
//! * [`feasibility`] — the Babel-style route discipline (RFC 8966) the
//!   k-hop detour layer runs under: the per-destination feasibility
//!   record ([`Feasibility`]: seqno, feasibility distance, retraction)
//!   and its rules, seqno-gated acceptance, explicit retraction, and the
//!   loop-freedom argument that lets the overlay splice detours from
//!   live rows without a consistent snapshot. The whole discipline —
//!   wire trailer, feasibility rules, source-routed splices, measured
//!   recovery wins — is documented in `docs/ROUTING.md` at the
//!   repository root.

#![forbid(unsafe_code)]
// The numeric kernels index several arrays with one loop counter;
// iterator rewrites obscure them without changing the codegen.
#![allow(clippy::needless_range_loop)]
#![warn(missing_docs)]

pub mod config;
mod estimator;
pub mod feasibility;
pub mod fullmesh;
pub mod multihop;
pub mod onehop;
pub mod prober;
pub mod quorum_router;

pub use apor_linkstate::Detour;
pub use config::{ProbePolicy, ProtocolConfig};
pub use feasibility::{select_detour, FeasEntry, Feasibility};
pub use fullmesh::FullMeshRouter;
pub use multihop::{multihop_routes, MultiHopResult};
pub use prober::{ProbeAction, Prober};
pub use quorum_router::{QuorumRouter, RouteDecision};

use apor_linkstate::Message;

/// The routing-side behaviour shared by the full-mesh baseline and the
/// quorum router, so the overlay node runtime is algorithm-agnostic
/// within a membership view. What a router keeps *across* a view change
/// is not part of it: the quorum router carries its own rows
/// ([`QuorumRouter::reinstall`]), the baseline starts over.
pub trait RoutingAlgorithm {
    /// Called every routing interval with the node's freshly measured own
    /// link-state row. Returns the messages to transmit.
    fn on_routing_tick(
        &mut self,
        now: f64,
        own_row: &[apor_linkstate::LinkEntry],
        rng: &mut rand_chacha::ChaCha8Rng,
    ) -> Vec<Message>;

    /// Called for every routing-class message addressed to this node.
    /// May return immediate transmissions (e.g. link state to a freshly
    /// selected failover rendezvous).
    fn on_message(&mut self, now: f64, msg: &Message) -> Vec<Message>;

    /// The current best first hop towards `dst` (`hop == dst` ⇒ direct),
    /// or `None` when the node knows no route.
    fn best_hop(&self, dst: usize, now: f64) -> Option<usize>;

    /// Seconds since this node last received routing information about
    /// `dst` (the freshness metric of figures 12–14).
    fn route_age(&self, dst: usize, now: f64) -> Option<f64>;

    /// Number of destinations currently experiencing a *double rendezvous
    /// failure* from this node's perspective (figure 11). Zero for the
    /// full-mesh baseline, which has no rendezvous.
    fn double_rendezvous_failures(&self, now: f64) -> usize;
}

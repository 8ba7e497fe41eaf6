//! Decentralized SWIM-style gossip membership (`apor-membership`).
//!
//! The paper runs "a simple centralized membership service, running on a
//! coordinator node" — a single point of failure and the first
//! bottleneck on the way to a production-scale overlay. This crate
//! replaces it with a coordinator-free design in the SWIM family
//! (Das et al., *SWIM: Scalable Weakly-consistent Infection-style
//! Process Group Membership Protocol*, DSN 2002):
//!
//! * **Failure detection** ([`swim`]) — every protocol period each node
//!   pings one peer from a shuffled rotation; on a missed ack it asks
//!   `k` helpers to ping indirectly (`ping-req`); still-silent targets
//!   become *suspected* and, after a suspicion timeout, *confirmed
//!   faulty*. Per-node probe traffic is constant in `n`.
//! * **Dissemination** — membership events (alive / suspect / faulty /
//!   left) piggyback on the ping/ack traffic, each retransmitted a
//!   bounded number of times (infection-style, no broadcast hot spot).
//! * **Anti-entropy** ([`AntiEntropyConfig`]) — piggybacking spreads
//!   *fresh* events; state that diverged while a node was unreachable
//!   has no retransmission budget left. So every
//!   `anti_entropy.sync_period_s` a node picks one partner uniformly
//!   from every member it has ever heard of — **including
//!   confirmed-dead ones, which is what lets a healed partition
//!   re-merge**: each side of a split holds the other dead, and a
//!   live-only choice would never cross the boundary. The initiator
//!   pushes its full ledger ([`SwimKind::SyncReq`], chunked into
//!   MTU-sized frames); the partner merges and, once all chunks of the
//!   round arrived, pulls back one delta of everything it knows better
//!   ([`SwimKind::SyncRsp`]). Because the ledger is a
//!   join-semilattice, push-pull over random pairs converges any
//!   divergence in `O(log n)` rounds, and a node that discovers it was
//!   declared dead refutes with a bumped incarnation exactly as under
//!   ordinary suspicion.
//! * **Adaptive suspicion** — the suspicion lifetime is
//!   `max(SUSPICION_PERIODS, SUSPICION_LOG_SCALE · log₂ n)` protocol
//!   periods (`n` = live members), the SWIM scaling that keeps the
//!   false-positive rate flat as refutations need more gossip hops in
//!   bigger clusters; and each node multiplies *its own* verdicts by
//!   `1 + local_health`, a Lifeguard-style counter raised by missed
//!   acks and self-refutations and drained by clean probe rounds — a
//!   lossy node slows its own judgments instead of falsely accusing
//!   well-connected peers.
//! * **View agreement** ([`view`]) — confirmed events accumulate in a
//!   [`ViewLedger`], a join-semilattice per member (incarnation, then
//!   dead-beats-alive). Both the **member list** and the **view
//!   version** are pure functions of the converged ledger, so any two
//!   nodes whose ledgers agree install byte-identical
//!   [`MembershipView`]s (version, sorted members) *without any
//!   coordination* — exactly the invariant the overlay's quorum grid needs (identical
//!   views ⇒ identical grids). Versions are monotone: every lattice
//!   step strictly increases the version.
//!
//! The protocol's timings are constants ([`swim`] lists them); a node's
//! [`SwimConfig`] holds only what differs between callers: its seed and
//! the anti-entropy arm.
//!
//! The state machine is sans-io and deterministic: `on_tick` /
//! `on_message` in, [`SwimMsg`] frames out, all randomness from a seeded
//! ChaCha stream. The netsim driver and any real transport run the identical
//! code, like every other protocol core in this workspace.
//!
//! Measured in `experiments::partition`: a 5-node minority cut off a
//! 32-node overlay for 60 s reconverges to identical views within a
//! few protocol periods of the heal with anti-entropy on, and never
//! without it (each side permanently holds the other dead).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod swim;
pub mod view;
pub mod wire;

pub use swim::{
    detection_budget_s, suspicion_periods_for, suspicion_timeout_s_for, AntiEntropyConfig, Swim,
    SwimConfig, PERIOD_S, PING_TIMEOUT_S, PUBLISH_PERIOD_S, SUSPICION_LOG_SCALE, SUSPICION_PERIODS,
    TOMBSTONE_GC_SYNCS,
};
pub use view::{MemberState, MembershipView, ViewLedger};
pub use wire::{SwimKind, SwimMsg, SwimStatus, SwimUpdate};

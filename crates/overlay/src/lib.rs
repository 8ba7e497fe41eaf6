//! The RON-like overlay node (paper section 5).
//!
//! Three components, exactly as the paper's design section lays out:
//!
//! * **membership service** ([`membership`]) — a centralized coordinator
//!   that assigns a monotonically versioned, sorted member list; every
//!   node with the same view derives the identical quorum grid.
//! * **link monitoring** — the prober from `apor-routing`, wired to the
//!   probe/probe-reply wire messages.
//! * **router** — either the full-mesh baseline or the two-round quorum
//!   algorithm, selected per node.
//!
//! The node itself ([`node::OverlayNode`]) is a sans-io state machine:
//! `on_start` / `on_packet` / `on_timer` in, `(send, set_timer)` commands
//! out. Two drivers run it unchanged, both always compiled and both
//! exercised by the test suite:
//!
//! * [`simnode::World`] hosts a fleet of them in the deterministic
//!   [`netsim`](apor_netsim) simulator (the paper's emulation), which
//!   delivers every timer at exactly the instant it was armed for;
//! * [`udp::UdpOverlay`] runs it on a real UDP socket and the real
//!   clock (the paper's deployment) — one `std` thread per node, timers
//!   delivered whenever the thread wakes, a little after they are due —
//!   with a shutdown path that announces the departure and joins the
//!   thread.
//!
//! The node arms its periodic work the same way under both (see the
//! "Timers" section of [`node`]).
//!
//! Membership comes in two modes ([`config::MembershipMode`]): the
//! paper's centralized coordinator ([`membership`]) and the
//! decentralized SWIM gossip plane from [`apor_membership`], which
//! removes the coordinator single point of failure while preserving
//! the identical-views ⇒ identical-grids invariant.
//!
//! ## View changes: one table
//!
//! Routers, probers and their link-state stores operate in *grid-index
//! space* (positions in the current sorted member list); the wire
//! carries identities. A membership change permutes that space, and the
//! node does **not** start over in the new one. [`node::OverlayNode`]
//! builds one table — `old index → new index`, `None` for a member
//! that left, one entry per member of the *old* view, order-preserving
//! because both member lists are sorted by id — and hands it to the two
//! things that keep state across the change:
//!
//! * the prober ([`Prober::reinstall`](apor_routing::Prober::reinstall))
//!   keeps the measurement of every target that is a target again, under
//!   its new index, and starts its probe rate over;
//! * the quorum router
//!   ([`QuorumRouter::reinstall`](apor_routing::QuorumRouter::reinstall))
//!   keeps the link-state rows that are fresh (the 3-routing-interval
//!   rule), whose origin is still a member and that its *new* grid role
//!   grants it (its own row and its rendezvous clients' — `O(√n)` rows,
//!   `O(n√n)` state), renamed through the table as lanes, at the cost
//!   of the entries a row holds.
//!
//! What is kept and what is dropped is decided there, in the routing
//! crate; this crate only says who moved where. The full-mesh baseline
//! carries nothing. What an install costs is in [`node`]'s "View
//! install" section.
//!
//! ## The message path of a routing frame
//!
//! Within one view the same translation runs on every link-state and
//! recommendation frame, once per direction, and it is the only thing
//! this crate does to a frame ([`node::OverlayNode`]):
//!
//! * **In.** `on_packet` decodes the datagram; the decoded `Message`
//!   owns its body (a link-state row behind an `Arc`, or a `Vec` of
//!   recommendation entries). The node takes it by value and rewrites
//!   it in place into index space: `from` through
//!   [`MembershipView::index_of`] (an unknown sender drops the frame),
//!   `to` forced to this node, and for recommendations each entry's
//!   `dst` and `hop` — one lookup per id, an entry naming an unknown id
//!   removed by the same pass. Link-state *entries* are not touched:
//!   their destinations are positions in the sender's view, and the
//!   router's view/width check guards them. `index_of` tries slot `id`
//!   before it searches, which answers every id of a `0..n` view. The
//!   router then borrows the message; a row it keeps, it keeps by
//!   cloning the `Arc`, so nothing of the frame is copied between the
//!   socket and the store.
//! * **Out.** The router returns index-space messages by value; the
//!   node rewrites each in place to identities (`id_of`, a slice
//!   index), encodes it and drops it. A tick's link-state frames all
//!   point at the one row the router built for that tick.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod config;
pub mod membership;
pub mod node;
pub mod simnode;
pub mod udp;

pub use config::{Algorithm, MembershipMode, NodeConfig};
pub use membership::{Coordinator, MembershipView};
pub use node::{Outbox, OverlayNode};

//! A deterministic discrete-event network simulator.
//!
//! The paper evaluates its system twice: in an *emulation* ("the emulated
//! nodes run on one physical machine … the emulation uses the same
//! implementation as the one deployed on the Internet", section 6.1) and
//! in a real PlanetLab deployment. This crate is the emulation half: the
//! same sans-io overlay node that runs on real UDP sockets runs here
//! against a simulated network with
//!
//! * per-pair latency and Bernoulli packet loss from a
//!   [`LatencyMatrix`] (one record per unordered pair, read once per
//!   send),
//! * link/node failure injection from a [`FailureSchedule`],
//! * and per-packet, per-class, time-bucketed **bandwidth accounting** —
//!   the measurement behind figures 9 and 10.
//!
//! Determinism: events are processed in `(time, sequence)` order and all
//! randomness flows from one seeded ChaCha stream, so a run is a pure
//! function of `(topology, schedule, behaviors, seed)`.
//!
//! # The idle-aware scheduling contract
//!
//! Simulated time advances *only* through the binary-heap event queue:
//! there is no global tick, no per-node polling loop, and no cost
//! proportional to wall-clock or simulated duration. A node that arms no
//! timer and receives no packet consumes **zero** events — an idle
//! overlay of 4096 nodes is exactly as cheap to simulate as an idle
//! overlay of 2. The flip side of the contract binds the behaviors:
//!
//! * Timers are one-shot and **uncancellable** ([`Ctx::set_timer`]).
//!   A behavior that wants fewer wakeups must *coalesce* — track its own
//!   earliest-pending-work time and only arm a timer that undercuts the
//!   one already armed (as `apor_overlay`'s node does; see the
//!   "Timers" section of its `node` module).
//!   Stale timers will still fire; handlers must treat them as harmless
//!   polls, not as authoritative deadlines.
//! * Because wakeups are heap-driven, the queue depth *is* the
//!   simulator's working set. The core records it on every insertion
//!   into the `netsim/event_queue_depth` histogram (under the
//!   [`CORE_TELEMETRY_NODE`] sentinel id of
//!   [`Simulator::telemetry_snapshot`]), which is how the scale study
//!   verifies that idle nodes really cost nothing.
//!
//! # What the simulator measures itself
//!
//! Per node, the packet fate counters `netsim/pkt_sent`,
//! `pkt_delivered`, `pkt_queued` and one `drop_*` per [`DropCause`],
//! and the `deliver_latency_us` histogram; for the core, the
//! `event_queue_depth` histogram. The simulator is their only writer
//! and touches them on every event, so they are plain fields of
//! [`Simulator`] — no registry, atomics or shared cells — and
//! [`Simulator::telemetry_snapshot`] builds the snapshot from them on
//! demand, every key present, zero counters included. Byte accounting
//! ([`TrafficStats`]) is plain data for the same reason: one row of
//! counters per time bucket. The [`FailureSchedule`] holds only the
//! faults it has: an outage list for each node and each link that has
//! one, behind one ever-down bit per node and per link, and one record
//! per partition. So it keeps no list per pair, and the per-packet up
//! checks on a link that is never down skip the outage search.
//!
//! The simulator transports opaque byte buffers: nodes hand it *encoded*
//! messages, so every simulated run also exercises the real wire codec.
//!
//! # What a driver sets
//!
//! [`SimulatorConfig`] holds four values: the master seed, the delay
//! jitter (zero for a jitter-free reference network), the width of the
//! traffic-accounting buckets, and the per-packet framing bytes the
//! driver's wire format adds (zero here, so the simulator stays
//! protocol-agnostic). Everything else is fixed: links have no ingress
//! queue bound — a packet is lost only to the failure schedule, an
//! unreachable pair, Bernoulli loss or a receiver that crashed while it
//! was in flight, each with its own `netsim/drop_*` counter — and
//! [`MAX_EVENTS`] is the runaway guard.

#![forbid(unsafe_code)]
// The numeric kernels index several arrays with one loop counter;
// iterator rewrites obscure them without changing the codegen.
#![allow(clippy::needless_range_loop)]
#![warn(missing_docs)]

mod queue;
mod sim;
mod stats;

/// The network a [`Simulator`] runs over, re-exported so a driver names
/// the two types [`Simulator::new`] takes without depending on
/// `apor-topology` itself.
pub use apor_topology::{FailureSchedule, LatencyMatrix};
pub use sim::{
    Ctx, DropCause, NodeBehavior, Simulator, SimulatorConfig, CORE_TELEMETRY_NODE, MAX_EVENTS,
};
pub use stats::{Direction, TrafficClass, TrafficStats};

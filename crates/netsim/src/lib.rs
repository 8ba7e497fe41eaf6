//! A deterministic discrete-event network simulator.
//!
//! The paper evaluates its system twice: in an *emulation* ("the emulated
//! nodes run on one physical machine … the emulation uses the same
//! implementation as the one deployed on the Internet", section 6.1) and
//! in a real PlanetLab deployment. This crate is the emulation half: the
//! same sans-io overlay node that runs on real UDP sockets runs here
//! against a simulated network with
//!
//! * per-pair latency from a [`LatencyMatrix`](apor_topology::LatencyMatrix),
//! * per-pair Bernoulli packet loss,
//! * link/node failure injection from a
//!   [`FailureSchedule`](apor_topology::FailureSchedule),
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
//!   [`CORE_TELEMETRY_NODE`] sentinel id, merged into
//!   [`Simulator::telemetry_snapshot`]), which is how the scale study
//!   verifies that idle nodes really cost nothing.
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

pub use sim::{
    Ctx, DropCause, NodeBehavior, Simulator, SimulatorConfig, CORE_TELEMETRY_NODE, MAX_EVENTS,
};
pub use stats::{Direction, TrafficClass, TrafficStats};

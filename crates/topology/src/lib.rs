//! Synthetic Internet environment models.
//!
//! The paper's evaluation ran on PlanetLab: a 359-host all-pairs-pings
//! dataset for the detour study (figure 1) and a 140-node deployment with
//! real Internet failures (figures 8–14). Neither is available here, so
//! this crate builds the closest synthetic equivalents:
//!
//! * [`LatencyMatrix`] — an all-pairs RTT and loss-rate matrix that keeps
//!   one [`Link`] record per unordered pair (links are symmetric, as the
//!   paper assumes) plus a record for each direction set apart from its
//!   reverse.
//! * [`planetlab`] — a geography-plus-inflation latency model that
//!   reproduces the *distributional* facts figure 1 depends on: a small
//!   fraction of badly inflated long paths, most of which have a
//!   low-latency one-hop detour through a well-connected intermediary,
//!   while a randomly chosen intermediary almost never helps.
//! * [`failures`] — renewal-process link-failure schedules whose per-node
//!   concurrent-failure distribution is calibrated to figure 8 (most nodes
//!   average < 10 concurrent link failures; a heavy tail reaches the
//!   40–120 range), plus the scripted crashes, blackouts and partitions
//!   the studies inject. A schedule holds only its faults: its one
//!   per-pair cost is an ever-down bit.
//!
//! Everything is seeded and deterministic: the same parameters and seed
//! produce bit-identical environments on every run (we use `rand_chacha`
//! rather than the OS RNG for exactly this reason).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod failures;
pub mod geo;
pub mod matrix;
pub mod planetlab;
pub(crate) mod sampling;

pub use failures::{FailureParams, FailureSchedule, LinkOutage, NodeOutage, Partition};
pub use geo::{GeoPoint, Region};
pub use matrix::{LatencyMatrix, Link};
pub use planetlab::{PlanetLabParams, Topology};

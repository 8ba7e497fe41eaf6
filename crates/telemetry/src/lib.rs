//! The fleet telemetry plane: a zero-external-dependency metrics
//! registry, a causal span tracer, and the bench regression gate.
//!
//! The paper's claims are quantitative — `O(n√n)` state, `O(n√n)` probe
//! traffic, near-optimal one-hop routing — so every layer of the repro
//! needs a cheap, uniform way to *measure* instead of assert. This
//! crate is that plane, deliberately at the bottom of the dependency
//! graph (it depends on nothing, not even the vendored stand-ins) so
//! netsim, membership, linkstate, routing and the overlay can all share
//! one registry.
//!
//! # Adding a metric
//!
//! Get a per-node handle once (usually at construction) and keep the
//! returned cell; incrementing it is the hot path and never locks:
//!
//! ```
//! use apor_telemetry::Telemetry;
//!
//! let t = Telemetry::new(3); // node id 3
//! let sent = t.counter("membership", "probe_sent");
//! let rtt = t.histogram("membership", "probe_rtt_us");
//! sent.inc();
//! rtt.observe(1_250);
//! let snap = t.snapshot();
//! assert_eq!(snap.counter(3, "membership", "probe_sent"), Some(1));
//! ```
//!
//! Handles are cheap clones of shared cells: a component keeps its
//! `Counter` in a field, and the registry sees every increment without
//! further lookups. Registration (`counter`/`gauge`/`histogram`) takes
//! a lock and should happen at setup time, not per packet.
//!
//! # Overhead guarantees
//!
//! * **Increment path**: one relaxed atomic add on a plain `u64` cell —
//!   no locks, no allocation, no branching beyond the add. Histograms
//!   add a leading-zeros bucket index (one instruction) and four such
//!   adds.
//! * **Handle cost**: a handle is its node id and an empty registry;
//!   it preallocates no per-node buffer (`tests/handle_cost.rs` holds
//!   [`Telemetry::new`] to 256 bytes).
//! * **Disabled handles** ([`Telemetry::disabled`]) still count — so
//!   protocol code can read its own counters for control decisions —
//!   but export nothing: [`Telemetry::snapshot`] is empty.
//!
//! # Export format
//!
//! [`Snapshot`] is the export unit: a point-in-time copy of every
//! registered metric, keyed `(node, component, name)`. Snapshots
//! [`merge`](Snapshot::merge) across a fleet (counters/gauges/histogram
//! buckets sum, maxima max — the operation is associative and
//! commutative, so fold order is irrelevant) and export as JSON:
//! [`Snapshot::to_json`] writes one `{"node":…,"component":…,…}` object
//! per metric; histograms carry `count/sum/max` plus estimated
//! `p50/p90/p99` (log₂-bucket upper bounds) and the sparse bucket list.
//!
//! # The perf trajectory
//!
//! The bench harness (vendored criterion) writes each run's timings to
//! `BENCH_<suite>.json`; [`regress`] parses those reports and compares
//! a run against the checked-in baseline, failing (nonzero exit from
//! the `regress` binary) on >25 % median regression in the round-two /
//! best-hop / merge kernels. See [`regress::compare`] for the
//! calibration-based normalization that makes the comparison meaningful
//! across machines.
//!
//! # Causal tracing
//!
//! The second observability layer (after metrics) is the [`trace`]
//! module: per-node span flight recorders, the wire
//! [`trace::TraceCtx`] that carries episode identity across nodes, and
//! the Chrome trace-event exporter/validator behind the
//! `results/*_trace.json` files. The two layers, their export schemas
//! and the Perfetto workflow are documented in `docs/OBSERVABILITY.md`
//! at the repository root.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod json;
pub mod metrics;
pub mod regress;
pub mod snapshot;
pub mod trace;

pub use metrics::{Counter, Gauge, Histogram, Telemetry};
pub use snapshot::{HistogramSnapshot, MetricValue, Snapshot};
pub use trace::{
    chrome_trace_json, validate_chrome_trace, DumpOnPanic, Span, SpanKind, TraceCtx, Tracer,
};

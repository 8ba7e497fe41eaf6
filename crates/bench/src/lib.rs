//! Shared fixtures for the Criterion benchmarks.
//!
//! Two bench suites live in `benches/`:
//!
//! * `kernels` — what a deployment runs every routing interval and on
//!   every control frame: the round-two kernel, the row merge, the full
//!   server tick and the frame path from socket to store. Every id is
//!   under a prefix the `regress` gate compares against the checked-in
//!   baseline, and every one times a function some end-to-end workload
//!   (`BENCHMARK.json`) executes.
//! * `trace_overhead` — what causal tracing costs per span and per
//!   frame, kept in its own binary so it cannot shift the gated one's
//!   code layout.

#![forbid(unsafe_code)]

use apor_linkstate::{LaneRow, LinkEntry, LinkStateStore, RowStore};
use apor_routing::onehop;
use apor_topology::{PlanetLabParams, Topology};
use std::sync::Arc;

/// A deterministic synthetic topology of `n` nodes.
#[must_use]
pub fn bench_topology(n: usize) -> Topology {
    Topology::generate(&PlanetLabParams {
        n,
        seed: 0xBE7C4,
        ..Default::default()
    })
}

/// Node `i`'s ground-truth link-state row in `topo` (see
/// [`onehop::ground_truth_row`]).
#[must_use]
pub fn ground_truth_row(topo: &Topology, i: usize) -> Vec<LinkEntry> {
    onehop::ground_truth_row(&topo.latency, i)
}

/// A row store holding every node's row, derived from the topology's
/// ground truth (all rows fresh at t = 0).
#[must_use]
pub fn full_table(topo: &Topology) -> RowStore {
    let n = topo.len();
    let mut table = RowStore::new(n);
    for i in 0..n {
        let row = LaneRow::from_dense(&ground_truth_row(topo, i));
        table.put_row(i, Arc::new(row), 0.0);
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fixtures_consistent() {
        let t = bench_topology(49);
        let table = full_table(&t);
        assert_eq!(table.len(), 49);
        assert!(table.round_two(&[0], 48, 0.0, 45.0).get(0, 1).is_some());
    }
}

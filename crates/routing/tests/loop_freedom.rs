//! Loop-freedom of the feasibility-gated detour layer.
//!
//! The property under test: when every node forwards with the same
//! (converged quorum) row store but its **own** history-dependent
//! feasibility records — the realistic danger zone, because feasibility
//! distances remember costs from before the churn — walking the
//! next-hop chain produced by [`select_detour`] never revisits a node.
//! Packets may be *dropped* (no feasible detour is a legitimate
//! outcome; recovery then waits for the origin to bump its seqno), but
//! they must never cycle.
//!
//! The generator runs a multi-epoch history over a ground-truth cost
//! matrix: random link deaths and heals, a clean partition that later
//! heals, origins that skip re-publishing (stale rows, filtered by the
//! freshness rule), per-origin seqno bumps and retraction lanes on
//! link death — the same discipline `QuorumRouter::on_routing_tick`
//! applies. Each node's per-destination feasibility records advance
//! from its live direct links every epoch and retract on link loss,
//! exactly as the router does.

use apor_linkstate::{Detour, LaneRow, LinkEntry, LinkStateStore, RowStore, INFINITE_COST};
use apor_routing::feasibility::{select_detour, Feasibility};
use proptest::prelude::*;
use std::sync::Arc;

const MAX_AGE: f64 = 45.0;
const EPOCH_S: f64 = 15.0;

/// Raw per-epoch event material; indices are reduced modulo `n` inside
/// the test body (the stub proptest has no dependent generation).
type RawEpoch = (Vec<(usize, usize)>, Vec<(usize, usize)>, Vec<usize>);

fn base_cost(a: usize, b: usize) -> u16 {
    #[allow(clippy::cast_possible_truncation)]
    let c = 10 + 37 * (1 + (a * b) % 13) as u16;
    c
}

fn truth_row(truth: &[Vec<u16>], o: usize) -> Vec<LinkEntry> {
    truth[o]
        .iter()
        .enumerate()
        .map(|(j, &c)| {
            if j == o {
                LinkEntry::live(0, 0.0)
            } else if c == u16::MAX {
                LinkEntry::dead()
            } else {
                LinkEntry::live(c, 0.0)
            }
        })
        .collect()
}

fn next_seqno(s: u16) -> u16 {
    let n = s.wrapping_add(1);
    if n == 0 {
        1
    } else {
        n
    }
}

/// Replay one history over a shared store + per-node feasibility
/// records (`feas[node][dst]`), returning everything the walk phase
/// needs.
struct Replay {
    store: RowStore,
    feas: Vec<Vec<Feasibility>>,
    now: f64,
}

fn replay(n: usize, raw_epochs: &[RawEpoch], partition_epoch: usize) -> Replay {
    let mut truth: Vec<Vec<u16>> = (0..n)
        .map(|i| {
            (0..n)
                .map(|j| if i == j { 0 } else { base_cost(i, j) })
                .collect()
        })
        .collect();
    let mut store = RowStore::new(n);
    let mut feas = vec![vec![Feasibility::default(); n]; n];
    let mut seqno: Vec<u16> = vec![1; n];
    let mut now = 0.0;
    let partition_epoch = partition_epoch % raw_epochs.len().max(1);

    for (e, (kills, heals, silent)) in raw_epochs.iter().enumerate() {
        now = EPOCH_S * (e + 1) as f64;
        let mut died: Vec<Vec<u16>> = vec![Vec::new(); n];
        #[allow(clippy::cast_possible_truncation)]
        let kill = |truth: &mut Vec<Vec<u16>>, died: &mut Vec<Vec<u16>>, a: usize, b: usize| {
            if a != b && truth[a][b] != u16::MAX {
                truth[a][b] = u16::MAX;
                truth[b][a] = u16::MAX;
                died[a].push(b as u16);
                died[b].push(a as u16);
            }
        };
        for &(a, b) in kills {
            kill(&mut truth, &mut died, a % n, b % n);
        }
        if e == partition_epoch {
            for a in 0..n / 2 {
                for b in n / 2..n {
                    kill(&mut truth, &mut died, a, b);
                }
            }
        }
        let heal = |truth: &mut Vec<Vec<u16>>, a: usize, b: usize| {
            if a != b && truth[a][b] == u16::MAX {
                truth[a][b] = base_cost(a, b);
                truth[b][a] = base_cost(a, b);
            }
        };
        if e == partition_epoch + 1 {
            for a in 0..n / 2 {
                for b in n / 2..n {
                    heal(&mut truth, a, b);
                }
            }
        }
        for &(a, b) in heals {
            heal(&mut truth, a % n, b % n);
        }

        // Origin-side discipline: a death bumps the seqno once and goes
        // on the retraction lane; then publish (unless silent, which
        // leaves the old row — old contents, old receipt time — in the
        // store as a stale row).
        let silent: Vec<usize> = silent.iter().map(|&s| s % n).collect();
        for o in 0..n {
            if !died[o].is_empty() {
                seqno[o] = next_seqno(seqno[o]);
            }
            if silent.contains(&o) {
                continue;
            }
            let mut lane = died[o].clone();
            lane.sort_unstable();
            lane.dedup();
            let row = LaneRow::from_dense(&truth_row(&truth, o)).with_version(seqno[o], &lane);
            store.put_row(o, Arc::new(row), now);
        }
        // Receiver-side discipline, per node: note seqnos, retract lost
        // direct links, advance fd over the live ones.
        for (i, node) in feas.iter_mut().enumerate() {
            for (d, f) in node.iter_mut().enumerate() {
                if d == i {
                    continue;
                }
                f.note_seqno(store.row_seqno(d));
                if died[i].contains(&(d as u16)) {
                    f.retract(store.row_seqno(d));
                }
                let cost = store.cost(i, d);
                if cost != INFINITE_COST {
                    f.advance(store.row_seqno(d), cost);
                }
            }
        }
    }
    Replay { store, feas, now }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 128, ..ProptestConfig::default() })]

    /// No next-hop chain ever revisits a node, across randomized
    /// multi-epoch churn (link deaths, heals, a partition that heals,
    /// stale rows) with per-node feasibility state.
    #[test]
    fn detour_chains_never_loop(
        n in 6usize..10,
        max_hops in 2usize..=8,
        raw_epochs in prop::collection::vec(
            (
                prop::collection::vec((0usize..64, 0usize..64), 0..4),
                prop::collection::vec((0usize..64, 0usize..64), 0..3),
                prop::collection::vec(0usize..64, 0..3),
            ),
            3..6,
        ),
        partition_epoch in 0usize..4,
    ) {
        let r = replay(n, &raw_epochs, partition_epoch);
        for src in 0..n {
            for dst in 0..n {
                if src == dst {
                    continue;
                }
                let mut visited = vec![false; n];
                visited[src] = true;
                let mut cur = src;
                for _ in 0..=n {
                    if cur == dst {
                        break; // delivered
                    }
                    let direct = r.store.row_fresh(cur, r.now, MAX_AGE)
                        && r.store.cost(cur, dst) != INFINITE_COST;
                    let next = if direct {
                        dst
                    } else if let Some(Ok(d)) = select_detour(
                        &r.store, &r.feas[cur][dst], cur, dst, max_hops, r.now, MAX_AGE,
                    ) {
                        d.path[1]
                    } else {
                        break; // dropped: feasibility refused every candidate
                    };
                    prop_assert!(
                        !visited[next],
                        "forwarding loop: {src}→{dst} revisits {next} (at {cur})"
                    );
                    visited[next] = true;
                    cur = next;
                }
            }
        }
    }

    /// Spliced candidate paths are simple and structurally sound:
    /// start at the source, end at the destination, never repeat a
    /// node, never exceed `max_hops` relays, and never advertise a
    /// remaining cost above the total.
    #[test]
    fn candidate_paths_are_simple(
        n in 6usize..10,
        max_hops in 2usize..=8,
        dead_stride in 2usize..6,
        src in 0usize..6,
        dst in 0usize..6,
    ) {
        prop_assume!(src != dst);
        let mut store = RowStore::new(n);
        for o in 0..n {
            let row: Vec<LinkEntry> = (0..n)
                .map(|j| {
                    if j == o {
                        LinkEntry::live(0, 0.0)
                    } else if (o + j) % dead_stride == 0 {
                        LinkEntry::dead()
                    } else {
                        #[allow(clippy::cast_possible_truncation)]
                        LinkEntry::live(10 + ((o * 7 + j * 3) % 90) as u16, 0.0)
                    }
                })
                .collect();
            store.put_row(o, Arc::new(LaneRow::from_dense(&row).with_version(1, &[])), 1.0);
        }
        for Detour { path, cost: total, advertised } in
            store.k_hop_options(src, dst, max_hops, 2.0, MAX_AGE)
        {
            prop_assert_eq!(path[0], src);
            prop_assert_eq!(*path.last().unwrap(), dst);
            prop_assert!(path.len() <= max_hops + 2, "path {path:?} too long");
            let mut seen = vec![false; n];
            for &p in &path {
                prop_assert!(!seen[p], "candidate revisits {p}: {path:?}");
                seen[p] = true;
            }
            prop_assert!(advertised <= total, "remaining exceeds total");
        }
    }
}

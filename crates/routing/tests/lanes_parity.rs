//! Parity properties for the struct-of-arrays (lanes) row layout.
//!
//! The lanes kernel must be observationally invisible to routing: same
//! hop chosen (including lowest-index tie-breaks), same cost to the
//! bit, across all three row representations (dense `LinkStateTable`,
//! lane-backed `RowStore`, and a borrowed `RowRef::Sparse` view), and
//! the lanes themselves must hold the exact wire bytes so a row that
//! travelled through `wire.rs` encode/decode is bit-identical to one
//! stored directly. The whole-tick scatter-gather kernel
//! (`LinkStateStore::round_two`) is held to the single-pair merge-join
//! (`best_one_hop`), pair by pair in both orientations, and a router
//! tick's recommendation frames to frames assembled from that oracle,
//! byte for byte.

use apor_linkstate::wire::{LinkStateMsg, SparseLinkStateMsg};
use apor_linkstate::{
    best_one_hop_rows, LaneRow, LinkEntry, LinkStateStore, LinkStateTable, Message, RecEntry,
    RecFormat, RecommendationMsg, RowRef, RowStore,
};
use apor_quorum::NodeId;
use apor_routing::{ProtocolConfig, QuorumRouter, RoutingAlgorithm};
use proptest::prelude::*;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// A random row of `n` entries: latency over the full wire range, an
/// alive flag, and an arbitrary (off-grid) loss rate.
fn arb_row(n: usize) -> impl Strategy<Value = Vec<LinkEntry>> {
    prop::collection::vec((any::<u16>(), prop::bool::weighted(0.7), 0.0f64..1.0), n).prop_map(
        |raw| {
            raw.into_iter()
                .map(|(lat, alive, loss)| {
                    if alive {
                        LinkEntry::live(lat, loss as f32)
                    } else {
                        LinkEntry::dead()
                    }
                })
                .collect()
        },
    )
}

/// One client row for the round-two suites: its origin, whether it
/// arrived long ago (stale by the time of the tick), and its entries.
#[derive(Debug, Clone)]
struct RowSpec {
    origin: usize,
    stale: bool,
    row: Vec<LinkEntry>,
}

/// Random partial rows at width `n`. Each row draws its own density
/// tier — 0 an all-dead row, 1 about one live entry, 2–3 half/nearly
/// full, 4 fully live (two such rows share one destination lane, the
/// elementwise path) — so destination lanes differ from row to row;
/// latencies span the whole `u16` range and are drawn per row, so the
/// two directions of a link disagree; the self-entry is live in about
/// half the rows; and about one row in six is stale.
fn arb_row_specs(n: usize) -> impl Strategy<Value = Vec<RowSpec>> {
    prop::collection::vec(
        (
            (0..n, 0usize..5, any::<bool>(), 0u8..6),
            prop::collection::vec((any::<u16>(), 0u8..100), n),
        ),
        1..10,
    )
    .prop_map(move |specs| {
        specs
            .into_iter()
            .map(|((origin, tier, self_live, stale_roll), raw)| {
                let threshold = match tier {
                    0 => 0,
                    1 => 100 / n as u8,
                    2 => 50,
                    3 => 90,
                    _ => 100,
                };
                let row = raw
                    .into_iter()
                    .enumerate()
                    .map(|(j, (lat, roll))| {
                        let live = if j == origin {
                            self_live || tier == 4
                        } else {
                            roll < threshold
                        };
                        if live {
                            LinkEntry::live(lat, 0.0)
                        } else {
                            LinkEntry::dead()
                        }
                    })
                    .collect();
                RowSpec {
                    origin,
                    stale: stale_roll == 0,
                    row,
                }
            })
            .collect()
    })
}

/// Times used by the round-two suites: stale rows arrive at
/// `STALE_AT`, fresh ones at `FRESH_AT`, the tick runs at `TICK_AT`
/// under the quorum config's 45 s staleness window.
const STALE_AT: f64 = 0.0;
const FRESH_AT: f64 = 100.0;
const TICK_AT: f64 = 101.0;
const MAX_AGE: f64 = 45.0;

/// `round_two` over `clients ++ [me]` equals `best_one_hop` on every
/// ordered pair — so on both orientations of every unordered pair.
fn assert_round_two_matches_pairs<S: LinkStateStore>(store: &S, clients: &[usize], me: usize) {
    let all = store.round_two(clients, me, TICK_AT, MAX_AGE);
    let mut nodes = clients.to_vec();
    nodes.push(me);
    assert_eq!(all.nodes(), &nodes[..]);
    for (i, &a) in nodes.iter().enumerate() {
        let mut want_recs = Vec::new();
        for (j, &b) in nodes.iter().enumerate() {
            let want = store.best_one_hop(a, b, TICK_AT, MAX_AGE);
            let got = all.get(i, j).map(|(h, c)| (h, f64::from(c)));
            assert_eq!(got, want, "a={a} b={b}");
            if let Some((h, c)) = all.get(i, j) {
                want_recs.push((b, h, c));
            }
        }
        assert_eq!(all.recommendations(i).collect::<Vec<_>>(), want_recs);
    }
}

/// Live `(dst, entry)` pairs of a dense row, ascending — the
/// `RowRef::Sparse` borrowed form.
fn live_pairs(row: &[LinkEntry]) -> Vec<(u16, LinkEntry)> {
    row.iter()
        .enumerate()
        .filter(|(_, e)| e.alive)
        .map(|(d, e)| (d as u16, *e))
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    /// Three-way kernel parity at n = 100: the dense table, the
    /// lane-backed sparse store, and raw `RowRef::Sparse` views all
    /// pick the identical hop at the identical cost — exact equality,
    /// not epsilon, since costs are integer milliseconds in every
    /// representation.
    #[test]
    fn three_way_kernel_parity_n100(
        rows in prop::collection::vec(arb_row(100), 4..7),
        pairs in prop::collection::vec((0usize..4, 0usize..100), 8..9),
    ) {
        let n = 100;
        let mut dense = LinkStateTable::new(n);
        let mut lanes = RowStore::new(n);
        for (i, row) in rows.iter().enumerate() {
            let mut row = row.clone();
            row[i] = LinkEntry::live(0, 0.0);
            dense.update_row(i, &row, 0.0);
            lanes.update_row(i, &row, 0.0);
        }
        for &(a, b) in &pairs {
            // Origins 0..rows.len() all hold rows; `a` is one of them.
            if a == b {
                continue;
            }
            let want = dense.best_one_hop(a, b, 1.0, 45.0);
            let got = lanes.best_one_hop(a, b, 1.0, 45.0);
            prop_assert_eq!(got, want, "store parity a={} b={}", a, b);

            // Raw kernel over borrowed Sparse views of the same rows.
            if b < rows.len() {
                let pa = live_pairs(&dense.row_dense(a).unwrap());
                let pb = live_pairs(&dense.row_dense(b).unwrap());
                let ra = RowRef::Sparse { width: n, entries: &pa };
                let rb = RowRef::Sparse { width: n, entries: &pb };
                let raw = best_one_hop_rows(&ra, &rb, a, b)
                    .map(|(h, c)| (h, f64::from(c)));
                prop_assert_eq!(raw, want, "RowRef::Sparse parity a={} b={}", a, b);
            }

            prop_assert_eq!(
                lanes.one_hop_options(a, b, 1.0, 45.0),
                dense.one_hop_options(a, b, 1.0, 45.0)
            );
        }
    }

    /// Lane rows hold the exact wire bytes: a row stored after a
    /// `wire.rs` encode/decode round trip is bit-identical to the same
    /// row stored directly, for arbitrary latency/liveness/loss —
    /// including off-grid loss rates and the latency-65535 clamp.
    #[test]
    fn lanes_wire_roundtrip_bit_identical(row in arb_row(64)) {
        let msg = Message::LinkState(LinkStateMsg {
            from: NodeId::from_index(1),
            to: NodeId::from_index(2),
            view: 7,
            round: 3,
            basis_ms: 250,
            entries: row.clone(),
            seqno: 0,
            retractions: vec![],
        });
        let Ok(Message::LinkState(decoded)) = Message::decode(&msg.encode()) else {
            panic!("dense wire round trip failed");
        };
        prop_assert_eq!(
            LaneRow::from_dense(&row),
            LaneRow::from_dense(&decoded.entries),
            "dense wire path not bit-identical"
        );

        // Same property through the sparse (live-pairs) wire frame.
        let pairs = live_pairs(&row);
        let smsg = Message::LinkStateSparse(SparseLinkStateMsg {
            from: NodeId::from_index(1),
            to: NodeId::from_index(2),
            view: 7,
            round: 3,
            basis_ms: 250,
            width: 64,
            entries: pairs.clone(),
            seqno: 0,
            retractions: vec![],
        });
        let Ok(Message::LinkStateSparse(sdec)) = Message::decode(&smsg.encode()) else {
            panic!("sparse wire round trip failed");
        };
        prop_assert_eq!(
            LaneRow::from_pairs(&pairs),
            LaneRow::from_pairs(&sdec.entries),
            "sparse wire path not bit-identical"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 256, ..ProptestConfig::default() })]

    /// The whole-tick kernel equals per-pair `best_one_hop` in both
    /// orientations, over both stores, with a stale row and a row that
    /// never arrived in the client set.
    #[test]
    fn round_two_matches_pairs_in_both_orientations(specs in arb_row_specs(16)) {
        let n = 16;
        let mut lanes = RowStore::new(n);
        let mut dense = LinkStateTable::new(n);
        for spec in &specs {
            let at = if spec.stale { STALE_AT } else { FRESH_AT };
            lanes.update_row(spec.origin, &spec.row, at);
            dense.update_row(spec.origin, &spec.row, at);
        }
        // The last spec's origin plays the server; everyone else who
        // sent a row is a client, plus node 0 whether it sent one or not.
        let me = specs[specs.len() - 1].origin;
        let mut clients: Vec<usize> = specs.iter().map(|s| s.origin).chain([0]).collect();
        clients.sort_unstable();
        clients.dedup();
        clients.retain(|&c| c != me);
        assert_round_two_matches_pairs(&lanes, &clients, me);
        assert_round_two_matches_pairs(&dense, &clients, me);
    }

    /// A router tick's `Recommendations` frames are, byte for byte,
    /// the frames assembled from per-pair oracle calls: one per fresh
    /// client in ascending order, destinations `clients ascending ++
    /// [me]` inside each.
    #[test]
    fn tick_frames_match_oracle_bytes(
        specs in arb_row_specs(16),
        with_cost in any::<bool>(),
    ) {
        let (n, me, view) = (16usize, 5usize, 3u32);
        let config = ProtocolConfig {
            rec_format: if with_cost { RecFormat::WithCost } else { RecFormat::Compact },
            ..ProtocolConfig::quorum()
        };
        prop_assert_eq!(config.staleness_s(), MAX_AGE);
        let mut router = QuorumRouter::new(me, n, view, config.clone());
        for spec in specs.iter().filter(|s| s.origin != me) {
            let at = if spec.stale { STALE_AT } else { FRESH_AT };
            let msg = Message::LinkStateSparse(SparseLinkStateMsg {
                from: NodeId::from_index(spec.origin),
                to: NodeId::from_index(me),
                view,
                round: 1,
                basis_ms: 0,
                width: n as u16,
                entries: live_pairs(&spec.row),
                seqno: 0,
                retractions: vec![],
            });
            let _ = router.on_message(at, &msg);
        }
        let own = specs
            .iter()
            .find(|s| s.origin == me)
            .map_or_else(|| vec![LinkEntry::dead(); n], |s| s.row.clone());
        let mut rng = ChaCha8Rng::seed_from_u64(7);
        let got: Vec<Vec<u8>> = router
            .on_routing_tick(TICK_AT, &own, &mut rng)
            .iter()
            .filter(|m| matches!(m, Message::Recommendations(_)))
            .map(|m| m.encode().to_vec())
            .collect();

        let table = router.table();
        let clients: Vec<usize> = table
            .present_rows()
            .into_iter()
            .filter(|&c| c != me && table.row_fresh(c, TICK_AT, MAX_AGE))
            .collect();
        let dests: Vec<usize> = clients.iter().copied().chain([me]).collect();
        let mut want = Vec::new();
        for &c in &clients {
            let recs: Vec<RecEntry> = dests
                .iter()
                .filter_map(|&d| {
                    let (hop, cost) = table.best_one_hop(c, d, TICK_AT, MAX_AGE)?;
                    Some(RecEntry {
                        dst: NodeId::from_index(d),
                        hop: NodeId::from_index(hop),
                        cost_ms: LinkEntry::quantize_latency(cost),
                    })
                })
                .collect();
            if recs.is_empty() {
                continue;
            }
            want.push(
                Message::Recommendations(RecommendationMsg {
                    from: NodeId::from_index(me),
                    to: NodeId::from_index(c),
                    view,
                    round: 1,
                    basis_ms: (TICK_AT * 1000.0) as u32,
                    format: config.rec_format,
                    recs,
                })
                .encode()
                .to_vec(),
            );
        }
        prop_assert_eq!(got, want);
    }
}

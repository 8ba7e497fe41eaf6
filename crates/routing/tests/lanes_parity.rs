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
//! byte for byte. Link-state frames are held to a reference encoder
//! written the way the codec was before rows became the message body
//! (an array of entries, each quantized as it is written): frames a
//! tick emits, and rows a receiver stores, must not have moved a byte.

use apor_linkstate::{
    best_one_hop_rows, LaneRow, LinkEntry, LinkStateMsg, LinkStateStore, LinkStateTable, Message,
    RecEntry, RecFormat, RecommendationMsg, RowRef, RowStore, LS_FLAG_SEQNO,
};
use apor_quorum::NodeId;
use apor_routing::{ProtocolConfig, QuorumRouter, RoutingAlgorithm};
use proptest::prelude::*;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::sync::Arc;

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

/// The link-state frame encoder as it was when the message body was an
/// array of `LinkEntry`: header, entries quantized one by one with
/// `LinkEntry::encode`, and the seqno trailer when versioned. `sparse`
/// entries are `(dst, entry)` pairs and may include dead ones.
struct OldFrame<'a> {
    from: u16,
    to: u16,
    view: u32,
    round: u32,
    basis_ms: u32,
    width: u16,
    seqno: u16,
    retractions: &'a [u16],
}

impl OldFrame<'_> {
    fn header(&self, tag: u8, count: usize, sparse: bool) -> Vec<u8> {
        let mut b = vec![tag];
        b.extend_from_slice(&self.from.to_be_bytes());
        b.extend_from_slice(&self.to.to_be_bytes());
        b.extend_from_slice(&self.view.to_be_bytes());
        b.extend_from_slice(&self.round.to_be_bytes());
        b.extend_from_slice(&(count as u16).to_be_bytes());
        b.extend_from_slice(&self.basis_ms.to_be_bytes());
        if sparse {
            b.extend_from_slice(&self.width.to_be_bytes());
        }
        let versioned = self.seqno != 0 || !self.retractions.is_empty();
        b.extend_from_slice(&(if versioned { LS_FLAG_SEQNO } else { 0 }).to_be_bytes());
        b
    }

    fn trailer(&self, b: &mut Vec<u8>) {
        if self.seqno != 0 || !self.retractions.is_empty() {
            b.extend_from_slice(&self.seqno.to_be_bytes());
            b.extend_from_slice(&(self.retractions.len() as u16).to_be_bytes());
            for r in self.retractions {
                b.extend_from_slice(&r.to_be_bytes());
            }
        }
    }

    fn dense(&self, entries: &[LinkEntry]) -> Vec<u8> {
        let mut b = self.header(3, entries.len(), false);
        for e in entries {
            b.extend_from_slice(&e.encode());
        }
        self.trailer(&mut b);
        b
    }

    fn sparse(&self, entries: &[(u16, LinkEntry)]) -> Vec<u8> {
        let mut b = self.header(9, entries.len(), true);
        for (dst, e) in entries {
            b.extend_from_slice(&dst.to_be_bytes());
            b.extend_from_slice(&e.encode());
        }
        self.trailer(&mut b);
        b
    }
}

/// Strictly ascending picks below `width`.
fn ascending_below(raw: &[u16], width: u16) -> Vec<u16> {
    let mut v: Vec<u16> = raw.iter().map(|r| r % width).collect();
    v.sort_unstable();
    v.dedup();
    v
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

    /// Lane rows hold the exact wire bytes: the row a receiver decodes
    /// from either frame form is bit-identical to the same row reduced
    /// to lanes directly, for arbitrary latency/liveness/loss —
    /// including off-grid loss rates and the latency-65535 clamp.
    #[test]
    fn lanes_wire_roundtrip_bit_identical(row in arb_row(64)) {
        let lanes = Arc::new(LaneRow::from_dense(&row));
        let ls = LinkStateMsg {
            from: NodeId::from_index(1),
            to: NodeId::from_index(2),
            view: 7,
            round: 3,
            basis_ms: 250,
            width: 64,
            row: Arc::clone(&lanes),
        };
        for msg in [Message::LinkState(ls.clone()), Message::LinkStateSparse(ls)] {
            let Ok(Message::LinkState(decoded) | Message::LinkStateSparse(decoded)) =
                Message::decode(&msg.encode())
            else {
                panic!("wire round trip failed");
            };
            prop_assert_eq!(&decoded.row, &lanes, "wire path not bit-identical");
        }
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
            let msg = Message::LinkStateSparse(LinkStateMsg {
                from: NodeId::from_index(spec.origin),
                to: NodeId::from_index(me),
                view,
                round: 1,
                basis_ms: 0,
                width: n as u16,
                row: Arc::new(LaneRow::from_dense(&spec.row)),
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

    /// Any link-state frame the old encoder could write — dense or
    /// sparse, flagless or versioned, dead entries among the live ones,
    /// a retraction lane or none — decodes to exactly the row the old
    /// ingest stored (`from_dense` / `from_pairs` of the decoded
    /// entries, stamped with the version), a store fed that row holds
    /// it, and re-encoding gives the frame back byte for byte whenever
    /// the frame is one `encode` writes (a sparse frame listing a dead
    /// entry is not: the row drops it).
    #[test]
    fn linkstate_frames_decode_to_the_old_rows_and_reencode_to_the_old_bytes(
        row in arb_row(48),
        listed in prop::collection::vec(any::<u16>(), 0..48),
        seqno in prop_oneof![0u16..1, any::<u16>()],
        raw_retractions in prop::collection::vec(any::<u16>(), 0..6),
        envelope in (any::<u16>(), any::<u16>(), any::<u32>(), any::<u32>(), any::<u32>()),
    ) {
        let width = row.len() as u16;
        let retractions = ascending_below(&raw_retractions, width);
        let old = OldFrame {
            from: envelope.0,
            to: envelope.1,
            view: envelope.2,
            round: envelope.3,
            basis_ms: envelope.4,
            width,
            seqno,
            retractions: &retractions,
        };
        // The sparse frame lists a random subset of slots, dead ones
        // included, each entry as it would come back off the wire.
        let pairs: Vec<(u16, LinkEntry)> = ascending_below(&listed, width)
            .into_iter()
            .map(|d| (d, LinkEntry::decode(row[usize::from(d)].encode())))
            .collect();
        let wired: Vec<LinkEntry> = row.iter().map(|e| LinkEntry::decode(e.encode())).collect();
        let cases = [
            (old.dense(&row), LaneRow::from_dense(&wired), true),
            (
                old.sparse(&pairs),
                LaneRow::from_pairs(&pairs),
                pairs.iter().all(|(_, e)| e.alive),
            ),
        ];
        for (bytes, want, canonical) in cases {
            let want = want.with_version(seqno, &retractions);
            let msg = Message::decode(&bytes).expect("an old frame decodes");
            let (Message::LinkState(ls) | Message::LinkStateSparse(ls)) = &msg else {
                panic!("a link-state frame");
            };
            prop_assert_eq!(&*ls.row, &want);
            prop_assert_eq!(ls.width, width);
            let mut store = RowStore::new(usize::from(width));
            prop_assert!(store.put_row(7, Arc::clone(&ls.row), 1.0));
            prop_assert_eq!(store.row_dense(7).unwrap(), want.as_row_ref(row.len()).to_dense());
            prop_assert_eq!(store.row_seqno(7), seqno);
            prop_assert_eq!(store.row_retractions(7), retractions.clone());
            if canonical {
                prop_assert_eq!(msg.encode().to_vec(), bytes.clone());
            }
            // Truncation anywhere still fails, trailer or not.
            for cut in [bytes.len() - 1, bytes.len() / 2, 5] {
                prop_assert!(Message::decode(&bytes[..cut]).is_err());
            }
        }
    }

    /// A tick's round-one frames are, byte for byte, what the old
    /// per-server constructor wrote from the own row: sparse while
    /// `5·live < 3n − 2`, dense otherwise, the seqno and retraction
    /// lane after links die — one frame per rendezvous server.
    #[test]
    fn round_one_frames_match_the_old_constructor_bytes(
        first in arb_row(16),
        second in arb_row(16),
        fully_live in any::<bool>(),
    ) {
        let (n, me, view) = (16usize, 5usize, 3u32);
        let mut router = QuorumRouter::new(me, n, view, ProtocolConfig::quorum());
        let mut rng = ChaCha8Rng::seed_from_u64(7);
        let mut previous = vec![LinkEntry::dead(); n];
        for (round, mut own) in [first, second].into_iter().enumerate() {
            if fully_live {
                // Every link up: the dense form (nothing dies either).
                own = own.iter().map(|e| LinkEntry::live(e.latency_ms, e.loss)).collect();
            }
            let now = 15.0 * round as f64;
            let frames: Vec<Message> = router
                .on_routing_tick(now, &own, &mut rng)
                .into_iter()
                .filter(|m| matches!(m, Message::LinkState(_) | Message::LinkStateSparse(_)))
                .collect();
            // Links alive last tick and dead now are this tick's
            // retractions; the seqno counts the ticks that had any.
            let retractions: Vec<u16> = (0..n)
                .filter(|&d| d != me && previous[d].alive && !own[d].alive)
                .map(|d| d as u16)
                .collect();
            prop_assert_eq!(router.own_seqno(), u16::from(!retractions.is_empty()));
            let live = live_pairs(&own);
            // At least the default servers (failovers may add to them).
            prop_assert!(frames.len() >= router.grid().rendezvous_servers(me).len());
            for frame in &frames {
                let old = OldFrame {
                    from: me as u16,
                    to: frame.to().0,
                    view,
                    round: round as u32 + 1,
                    basis_ms: (now * 1000.0) as u32,
                    width: n as u16,
                    seqno: router.own_seqno(),
                    retractions: &retractions,
                };
                let want = if 5 * live.len() < 3 * n - 2 {
                    old.sparse(&live)
                } else {
                    old.dense(&own)
                };
                prop_assert_eq!(frame.encode().to_vec(), want);
            }
            previous = own;
        }
    }
}

//! One differential oracle for the routing kernels, and the wire-format
//! references.
//!
//! **The oracle** is the definition of a one-hop route computed the slow
//! way: a plain `Vec` of rows (`World`), a freshness check per row, and a
//! brute-force `min` over every relay index in ascending order, replaced
//! only by a strictly cheaper candidate. Everything that computes routes
//! is held to it, hop for hop and cost for cost — ties included:
//!
//! * `LinkStateStore::round_two` on a single pair (a tick with one
//!   client: the scatter-gather and its shared-lane path), at n = 16
//!   and n = 100;
//! * `LinkStateStore::round_two` on a whole tick, every ordered pair,
//!   so both orientations of every unordered pair, with stale rows and
//!   rows that never arrived among the clients;
//! * `RowStore::one_hop_options` (§4.2 scavenging), the full sorted list;
//! * a `QuorumRouter` tick's recommendation frames, byte for byte;
//! * `FullMeshRouter::best_hop` — against the oracle, and against the
//!   definition it had when it sat on a store (`one_hop_options` plus
//!   the direct link).
//!
//! **The wire references**: lanes hold the exact wire bytes, so a row
//! that travelled through encode/decode is bit-identical to one stored
//! directly; and link-state frames are held to a reference encoder
//! written the way the codec was before rows became the message body
//! (an array of entries, each quantized as it is written): frames a tick
//! emits, and rows a receiver stores, must not have moved a byte.

use apor_linkstate::{
    LaneRow, LinkEntry, LinkStateMsg, LinkStateStore, Message, RecEntry, RecFormat,
    RecommendationMsg, RowStore, INFINITE_COST, LS_FLAG_SEQNO,
};
use apor_quorum::NodeId;
use apor_routing::{FullMeshRouter, ProtocolConfig, QuorumRouter, RoutingAlgorithm};
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

/// One received row: its origin, whether it arrived long ago (stale
/// by the time of the tick), and its entries.
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
/// latencies are drawn per row, so the two directions of a link
/// disagree, and either span the whole `u16` range or (half the cases)
/// only 1–3 ms, so that equal-cost paths are the norm; the self-entry
/// is live in about half the rows; and about one row in six is stale.
fn arb_row_specs(n: usize) -> impl Strategy<Value = Vec<RowSpec>> {
    (
        any::<bool>(),
        prop::collection::vec(
            (
                (0..n, 0usize..5, any::<bool>(), 0u8..6),
                prop::collection::vec((any::<u16>(), 0u8..100), n),
            ),
            1..10,
        ),
    )
        .prop_map(move |(ties, specs)| {
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
                                LinkEntry::live(if ties { 1 + lat % 3 } else { lat }, 0.0)
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

/// Times used by the suites: stale rows arrive at `STALE_AT`, fresh
/// ones at `FRESH_AT`, routes are computed at `TICK_AT` under the
/// quorum config's 45 s staleness window.
const STALE_AT: f64 = 0.0;
const FRESH_AT: f64 = 100.0;
const TICK_AT: f64 = 101.0;
const MAX_AGE: f64 = 45.0;

/// **The oracle.** What one node has been told, as plain data: for each
/// origin, the receipt time and full-width row of the last frame it
/// sent, if any — and the route definitions, by exhaustive search.
struct World {
    rows: Vec<Option<(f64, Vec<LinkEntry>)>>,
}

impl World {
    /// Rows land in the order given; a later row from one origin
    /// replaces the earlier one, receipt time included.
    fn new(n: usize, specs: &[RowSpec]) -> Self {
        let mut world = World {
            rows: vec![None; n],
        };
        for spec in specs {
            let at = if spec.stale { STALE_AT } else { FRESH_AT };
            world.put(spec.origin, at, &spec.row);
        }
        world
    }

    /// Row `origin` arrives at `at`, its entries as the wire delivers
    /// them (a live latency of 65535 clamps below the dead sentinel).
    fn put(&mut self, origin: usize, at: f64, row: &[LinkEntry]) {
        let wired = row.iter().map(|e| LinkEntry::decode(e.encode())).collect();
        self.rows[origin] = Some((at, wired));
    }

    /// The same rows in a `RowStore`.
    fn store(&self) -> RowStore {
        let mut store = RowStore::new(self.rows.len());
        for (origin, held) in self.rows.iter().enumerate() {
            if let Some((at, row)) = held {
                store.put_row(origin, Arc::new(LaneRow::from_dense(row)), *at);
            }
        }
        store
    }

    /// Origins that ever sent a row, ascending.
    fn present(&self) -> Vec<usize> {
        (0..self.rows.len())
            .filter(|&o| self.rows[o].is_some())
            .collect()
    }

    /// Row `origin`, when it is present and fresh at `TICK_AT`.
    fn fresh(&self, origin: usize) -> Option<&[LinkEntry]> {
        let (at, row) = self.rows[origin].as_ref()?;
        (TICK_AT - at <= MAX_AGE).then_some(row)
    }

    /// **Round two, by definition**: the best path `a → h → b` from
    /// rows `a` and `b`, both fresh. The direct link costs the cheaper
    /// of the two directions' estimates and is spelled `hop == b`; a
    /// relay `h ∉ {a, b}` costs `row_a[h] + row_b[h]`, needs both legs
    /// alive, and replaces the incumbent only when strictly cheaper —
    /// so ties go to the direct link, then to the lowest index.
    fn best_one_hop(&self, a: usize, b: usize) -> Option<(usize, u32)> {
        if a == b {
            return None;
        }
        let (row_a, row_b) = (self.fresh(a)?, self.fresh(b)?);
        let mut best = (b, row_a[b].cost().min(row_b[a].cost()));
        for h in 0..self.rows.len() {
            if h == a || h == b || !row_a[h].alive || !row_b[h].alive {
                continue;
            }
            let cost = row_a[h].cost() + row_b[h].cost();
            if cost < best.1 {
                best = (h, cost);
            }
        }
        (best.1 != INFINITE_COST).then_some(best)
    }

    /// **§4.2 scavenging, by definition**: every relay `h ∉ {a, b}`
    /// whose own row is fresh, at `row_a[h] + row_h[b]` with both legs
    /// alive, cheapest first and lowest index on ties. Nothing when row
    /// `a` is not fresh.
    fn scavenge_options(&self, a: usize, b: usize) -> Vec<(usize, u32)> {
        let Some(row_a) = self.fresh(a).filter(|_| a != b) else {
            return Vec::new();
        };
        let mut options: Vec<(usize, u32)> = (0..self.rows.len())
            .filter(|&h| h != a && h != b)
            .filter_map(|h| {
                let row_h = self.fresh(h)?;
                (row_a[h].alive && row_h[b].alive).then(|| (h, row_a[h].cost() + row_h[b].cost()))
            })
            .collect();
        options.sort_by_key(|&(h, cost)| (cost, h));
        options
    }

    /// **The route a node holding every row takes, by definition**: the
    /// direct link from its own fresh row, or the relay `h ∉ {me, dst}`
    /// with a fresh row of its own that minimises `own[h] + row_h[dst]`
    /// when that is strictly cheaper — lowest index on ties.
    fn full_mesh_hop(&self, me: usize, dst: usize) -> Option<usize> {
        let own = self.fresh(me).filter(|_| me != dst)?;
        let mut best = (dst, own[dst].cost());
        for (h, leg1) in own.iter().enumerate() {
            let Some(row_h) = self.fresh(h).filter(|_| h != me && h != dst) else {
                continue;
            };
            if leg1.alive && row_h[dst].alive {
                let cost = leg1.cost() + row_h[dst].cost();
                if cost < best.1 {
                    best = (h, cost);
                }
            }
        }
        (best.1 != INFINITE_COST).then_some(best.0)
    }
}

/// Round two on each of `pairs` alone — a tick whose only client is
/// `a`, at server `b` — equals the oracle.
fn assert_pairs_match_oracle(world: &World, pairs: impl Iterator<Item = (usize, usize)>) {
    let store = world.store();
    for (a, b) in pairs {
        assert_eq!(
            store.round_two(&[a], b, TICK_AT, MAX_AGE).get(0, 1),
            world.best_one_hop(a, b),
            "a={a} b={b}"
        );
    }
}

/// Live `(dst, entry)` pairs of a dense row, ascending — what a sparse
/// frame lists.
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

    /// Single pairs at n = 100: wide rows, where the elementwise path
    /// runs whole vector strides plus a remainder.
    #[test]
    fn best_one_hop_matches_oracle_n100(
        specs in arb_row_specs(100),
        pairs in prop::collection::vec((0usize..100, 0usize..100), 32..33),
    ) {
        let world = World::new(100, &specs);
        // Every pair of origins that sent a row, plus random pairs (most
        // of which touch a row that never arrived).
        let held = world.present();
        let held_pairs: Vec<(usize, usize)> = held
            .iter()
            .flat_map(|&a| held.iter().map(move |&b| (a, b)))
            .collect();
        assert_pairs_match_oracle(&world, held_pairs.into_iter().chain(pairs));
    }

    /// Lanes hold the exact wire bytes: the row and the liveness lane a
    /// receiver decodes from either frame form are bit-identical to the
    /// same row and lane built directly, for arbitrary
    /// latency/liveness/loss — including off-grid loss rates and the
    /// latency-65535 clamp.
    #[test]
    fn lanes_wire_roundtrip_bit_identical(row in arb_row(64)) {
        let lanes = Arc::new(LaneRow::from_dense(&row));
        let liveness = LinkStateMsg::liveness_lane(&row);
        let ls = LinkStateMsg {
            from: NodeId::from_index(1),
            to: NodeId::from_index(2),
            view: 7,
            round: 3,
            basis_ms: 250,
            width: 64,
            row: Arc::clone(&lanes),
            liveness_loss: Arc::clone(&liveness),
        };
        for msg in [Message::LinkState(ls.clone()), Message::LinkStateSparse(ls)] {
            let Ok(Message::LinkState(decoded) | Message::LinkStateSparse(decoded)) =
                Message::decode(&msg.encode())
            else {
                panic!("wire round trip failed");
            };
            prop_assert_eq!(&decoded.row, &lanes, "wire path not bit-identical");
            prop_assert_eq!(&decoded.liveness_loss, &liveness, "liveness lane moved");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 256, ..ProptestConfig::default() })]

    /// Every ordered pair, one pair per tick, equals the oracle:
    /// partial rows, stale rows, rows that never arrived, equal costs.
    #[test]
    fn best_one_hop_matches_oracle(specs in arb_row_specs(16)) {
        let world = World::new(16, &specs);
        assert_pairs_match_oracle(&world, (0..16).flat_map(|a| (0..16).map(move |b| (a, b))));
    }

    /// Scavenging returns exactly the oracle's list, in its order.
    #[test]
    fn one_hop_options_match_oracle(specs in arb_row_specs(16)) {
        let world = World::new(16, &specs);
        let store = world.store();
        for a in 0..16 {
            for b in 0..16 {
                prop_assert_eq!(
                    store.one_hop_options(a, b, TICK_AT, MAX_AGE),
                    world.scavenge_options(a, b),
                    "a={} b={}", a, b
                );
            }
        }
    }

    /// The whole-tick kernel equals the oracle on every ordered pair of
    /// `clients ++ [me]` — so on both orientations of every unordered
    /// pair — with a stale row and a row that never arrived in the
    /// client set.
    #[test]
    fn round_two_matches_oracle_in_both_orientations(specs in arb_row_specs(16)) {
        let world = World::new(16, &specs);
        // The last spec's origin plays the server; everyone else who
        // sent a row is a client, plus node 0 whether it sent one or not.
        let me = specs[specs.len() - 1].origin;
        let mut clients = world.present();
        clients.insert(0, 0);
        clients.dedup();
        clients.retain(|&c| c != me);
        let all = world.store().round_two(&clients, me, TICK_AT, MAX_AGE);
        let nodes: Vec<usize> = clients.iter().copied().chain([me]).collect();
        prop_assert_eq!(all.nodes(), &nodes[..]);
        for (i, &a) in nodes.iter().enumerate() {
            let mut want_recs = Vec::new();
            for (j, &b) in nodes.iter().enumerate() {
                let want = world.best_one_hop(a, b);
                prop_assert_eq!(all.get(i, j), want, "a={} b={}", a, b);
                want_recs.extend(want.map(|(h, c)| (b, h, c)));
            }
            prop_assert_eq!(all.recommendations(i).collect::<Vec<_>>(), want_recs);
        }
    }

    /// A router tick's `Recommendations` frames are, byte for byte,
    /// the frames assembled from the oracle: one per fresh client in
    /// ascending order, destinations `clients ascending ++ [me]` inside
    /// each.
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
        let client_specs: Vec<RowSpec> =
            specs.iter().filter(|s| s.origin != me).cloned().collect();
        for spec in &client_specs {
            let at = if spec.stale { STALE_AT } else { FRESH_AT };
            let msg = Message::LinkStateSparse(LinkStateMsg {
                from: NodeId::from_index(spec.origin),
                to: NodeId::from_index(me),
                view,
                round: 1,
                basis_ms: 0,
                width: n as u16,
                row: Arc::new(LaneRow::from_dense(&spec.row)),
                liveness_loss: LinkStateMsg::liveness_lane(&spec.row),
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

        // What the server knows: its clients' rows, and its own as of
        // this tick.
        let mut world = World::new(n, &client_specs);
        world.put(me, TICK_AT, &own);
        let clients: Vec<usize> = world
            .present()
            .into_iter()
            .filter(|&c| c != me && world.fresh(c).is_some())
            .collect();
        let dests: Vec<usize> = clients.iter().copied().chain([me]).collect();
        let mut want = Vec::new();
        for &c in &clients {
            let recs: Vec<RecEntry> = dests
                .iter()
                .filter_map(|&d| {
                    let (hop, cost) = world.best_one_hop(c, d)?;
                    Some(RecEntry {
                        dst: NodeId::from_index(d),
                        hop: NodeId::from_index(hop),
                        cost_ms: LinkEntry::quantize_latency(f64::from(cost)),
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

    /// The full-mesh baseline's private matrix routes as the oracle
    /// defines, and as the baseline did when it scavenged over a store
    /// (`one_hop_options` plus the direct link, strictly cheaper only):
    /// partial rows with dead legs, stale relay rows, a stale or absent
    /// own row, equal costs.
    #[test]
    fn full_mesh_best_hop_matches_oracle_and_the_store_definition(specs in arb_row_specs(16)) {
        let (n, me, view) = (16usize, 5usize, 3u32);
        prop_assert_eq!(ProtocolConfig::quorum().staleness_s(), MAX_AGE);
        let mut router = FullMeshRouter::new(me, n, view, ProtocolConfig::quorum());
        let mut rng = ChaCha8Rng::seed_from_u64(7);
        for spec in &specs {
            let at = if spec.stale { STALE_AT } else { FRESH_AT };
            if spec.origin == me {
                let _ = router.on_routing_tick(at, &spec.row, &mut rng);
            } else {
                let msg = Message::LinkState(LinkStateMsg {
                    from: NodeId::from_index(spec.origin),
                    to: NodeId::from_index(me),
                    view,
                    round: 1,
                    basis_ms: 0,
                    width: n as u16,
                    row: Arc::new(LaneRow::from_dense(&spec.row)),
                    liveness_loss: LinkStateMsg::liveness_lane(&spec.row),
                });
                let _ = router.on_message(at, &msg);
            }
        }
        let world = World::new(n, &specs);
        let store = world.store();
        for dst in 0..n {
            let got = router.best_hop(dst, TICK_AT);
            prop_assert_eq!(got, world.full_mesh_hop(me, dst), "dst={}", dst);
            let mut best = (dst, INFINITE_COST);
            if dst != me && store.row_fresh(me, TICK_AT, MAX_AGE) {
                best.1 = store.cost(me, dst);
            }
            for (h, c) in store.one_hop_options(me, dst, TICK_AT, MAX_AGE) {
                if c < best.1 {
                    best = (h, c);
                }
            }
            prop_assert_eq!(got, (best.1 != INFINITE_COST).then_some(best.0), "dst={}", dst);
        }
    }

    /// Any link-state frame the old encoder could write — dense or
    /// sparse, flagless or versioned, dead entries among the live ones,
    /// a retraction lane or none — decodes to exactly the row the old
    /// ingest stored (`from_dense` / `from_pairs` of the decoded
    /// entries, stamped with the version) beside the liveness bytes of
    /// its live entries, a store fed that row holds it, and re-encoding
    /// gives the frame back byte for byte whenever
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
        let listed: Vec<LinkEntry> = pairs.iter().map(|&(_, e)| e).collect();
        let cases = [
            (
                old.dense(&row),
                LaneRow::from_dense(&wired),
                LinkStateMsg::liveness_lane(&wired),
                true,
            ),
            (
                old.sparse(&pairs),
                LaneRow::from_pairs(&pairs),
                LinkStateMsg::liveness_lane(&listed),
                pairs.iter().all(|(_, e)| e.alive),
            ),
        ];
        for (bytes, want, want_liveness, canonical) in cases {
            let want = want.with_version(seqno, &retractions);
            let msg = Message::decode(&bytes).expect("an old frame decodes");
            let (Message::LinkState(ls) | Message::LinkStateSparse(ls)) = &msg else {
                panic!("a link-state frame");
            };
            prop_assert_eq!(&*ls.row, &want);
            prop_assert_eq!(&ls.liveness_loss, &want_liveness);
            prop_assert_eq!(ls.width, width);
            let mut store = RowStore::new(usize::from(width));
            prop_assert!(store.put_row(7, Arc::clone(&ls.row), 1.0));
            prop_assert_eq!(store.row(7), Some(&want));
            prop_assert_eq!(store.row_seqno(7), seqno);
            prop_assert_eq!(
                store.row(7).map_or(&[][..], LaneRow::retracted),
                &retractions[..]
            );
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

/// The frame writer's chunked copy loops against the per-slot reference
/// ([`OldFrame`], every entry through `LinkEntry::encode`), at widths on
/// either side of the writer's 64-record chunk and at the benchmark
/// scales: a row live everywhere (a full row: no destination lane is
/// held, none is built on decode), dead at its first, a middle or its
/// last slot, or dead everywhere; flagless or with seqno and retraction
/// lane; dense and sparse. The bytes are the reference's,
/// `decode(encode(m)) == m`, and every truncation fails to decode.
#[test]
fn linkstate_codec_matches_the_per_slot_reference_at_every_width() {
    for width in [1usize, 63, 64, 65, 196, 1024] {
        let live: Vec<LinkEntry> = (0..width)
            .map(|d| LinkEntry::live((d * 977 % 65_536) as u16, (d % 9) as f32 * 0.07))
            .collect();
        let mut rows = vec![live.clone(), vec![LinkEntry::dead(); width]];
        for dead_at in [0, width / 2, width - 1] {
            let mut row = live.clone();
            row[dead_at] = LinkEntry::dead();
            rows.push(row);
        }
        for row in &rows {
            for (seqno, retractions) in [(0u16, vec![]), (7, vec![0, (width - 1) as u16])] {
                let mut retractions: Vec<u16> = retractions;
                retractions.dedup();
                let old = OldFrame {
                    from: 3,
                    to: 9,
                    view: 2,
                    round: 5,
                    basis_ms: 250,
                    width: width as u16,
                    seqno,
                    retractions: &retractions,
                };
                let ls = LinkStateMsg {
                    from: NodeId(3),
                    to: NodeId(9),
                    view: 2,
                    round: 5,
                    basis_ms: 250,
                    width: width as u16,
                    row: Arc::new(LaneRow::from_dense(row).with_version(seqno, &retractions)),
                    liveness_loss: LinkStateMsg::liveness_lane(row),
                };
                let cases = [
                    (Message::LinkState(ls.clone()), old.dense(row)),
                    (Message::LinkStateSparse(ls), old.sparse(&live_pairs(row))),
                ];
                for (msg, want) in cases {
                    let bytes = msg.encode();
                    assert_eq!(bytes.len(), msg.wire_size(), "width {width}");
                    assert_eq!(bytes.to_vec(), want, "width {width} seqno {seqno}");
                    assert_eq!(Message::decode(&bytes).as_ref(), Ok(&msg), "width {width}");
                    for cut in 0..bytes.len() {
                        assert!(
                            Message::decode(&bytes[..cut]).is_err(),
                            "width {width}: a {cut}-byte prefix of {} decoded",
                            bytes.len()
                        );
                    }
                }
            }
        }
    }
}

/// A fresh row of `n` live entries, `fill` everywhere but where `set`
/// says otherwise.
fn full_row_spec(origin: usize, n: usize, fill: u16, set: &[(usize, u16)]) -> RowSpec {
    let mut row = vec![LinkEntry::live(fill, 0.0); n];
    for &(d, cost) in set {
        row[d] = LinkEntry::live(cost, 0.0);
    }
    RowSpec {
        origin,
        stale: false,
        row,
    }
}

/// One pair of the world, through the kernel and by definition.
fn kernel_and_oracle(world: &World, a: usize, b: usize) -> [Option<(usize, u32)>; 2] {
    [
        world.store().round_two(&[a], b, TICK_AT, MAX_AGE).get(0, 1),
        world.best_one_hop(a, b),
    ]
}

/// The shared-lane reduction runs on saturating `u16` sums and must
/// fall back to exact `u32` ones exactly when it cannot tell: best sums
/// below, at and above 65 535. The two rows list the same destinations
/// — everything but the pair itself, so no direct link caps the answer
/// and the relay's cost is what comes back. The width spans several of
/// the winner search's chunks, with the winner in a late one.
#[test]
fn shared_lanes_are_exact_below_at_and_above_the_u16_ceiling() {
    let (n, a, b, relay) = (200usize, 3usize, 150usize, 171usize);
    let max = LinkEntry::DEAD_LATENCY - 1;
    for (leg_a, leg_b, want) in [
        (30_000u16, 35_534u16, 65_534u32),
        (30_000, 35_535, 65_535),
        (0x8000, 0x8001, 65_537),
        (0xFFF0, 0xFFF1, 0x1_FFE1),
        (max, max, 2 * u32::from(max)),
    ] {
        // Every other relay costs the most two live legs can: only in
        // the last case does anything tie, and then index 0 wins.
        let mut specs = [
            full_row_spec(a, n, max, &[(relay, leg_a)]),
            full_row_spec(b, n, max, &[(relay, leg_b)]),
        ];
        for spec in &mut specs {
            spec.row[a] = LinkEntry::dead();
            spec.row[b] = LinkEntry::dead();
        }
        let world = World::new(n, &specs);
        let winner = if leg_a == max { 0 } else { relay };
        let [got, by_definition] = kernel_and_oracle(&world, a, b);
        assert_eq!(got, Some((winner, want)), "legs {leg_a} + {leg_b}");
        assert_eq!(got, by_definition);
        assert_eq!(kernel_and_oracle(&world, b, a)[0], Some((winner, want)));
    }
}

/// Full rows — one shared identity lane, so the pair is recognised by
/// address — at the same three levels: the direct link (at most 65 534)
/// caps the answer, so a relay that saturates never wins, and one just
/// below the ceiling does only while it is strictly cheaper.
#[test]
fn full_rows_keep_the_direct_link_against_saturating_relays() {
    let (n, a, b, relay) = (130usize, 0usize, 129usize, 77usize);
    let max = LinkEntry::DEAD_LATENCY - 1;
    for (leg_a, leg_b, direct, want) in [
        (30_000u16, 35_533u16, max, (relay, 65_533u32)),
        (30_000, 35_534, max, (b, 65_534)),
        (30_000, 35_535, max, (b, 65_534)),
        (0x8000, 0x8000, max, (b, 65_534)),
        (40, 60, 101, (relay, 100)),
        (40, 60, 100, (b, 100)),
    ] {
        let world = World::new(
            n,
            &[
                full_row_spec(a, n, max, &[(relay, leg_a), (b, direct)]),
                full_row_spec(b, n, max, &[(relay, leg_b)]),
            ],
        );
        let [got, by_definition] = kernel_and_oracle(&world, a, b);
        assert_eq!(got, Some(want), "legs {leg_a} + {leg_b}, direct {direct}");
        assert_eq!(got, by_definition);
    }
}

/// Ties: among relays of equal cost the lowest index wins wherever it
/// sits in the lane — first slot, either side of a chunk boundary of
/// the winner search, last slot — and the pair's own slots never relay,
/// however cheap their entries.
#[test]
fn shared_lane_ties_go_to_the_lowest_relay() {
    let (n, a, b) = (200usize, 64usize, 128usize);
    for tied in [
        &[0usize, 199][..],
        &[63, 65, 127],
        &[65, 66, 129],
        &[127, 129, 199],
        &[199],
    ] {
        let cheap: Vec<(usize, u16)> = tied.iter().map(|&h| (h, 10)).collect();
        // Self-entries and the direct link's slots read 0: cheaper
        // than any relay, and not relays.
        let mut row_a = cheap.clone();
        row_a.extend([(a, 0), (b, 500)]);
        let mut row_b = cheap;
        row_b.extend([(b, 0), (a, 500)]);
        let world = World::new(
            n,
            &[
                full_row_spec(a, n, 300, &row_a),
                full_row_spec(b, n, 300, &row_b),
            ],
        );
        let [got, by_definition] = kernel_and_oracle(&world, a, b);
        assert_eq!(got, Some((tied[0], 20)), "tied relays {tied:?}");
        assert_eq!(got, by_definition);
    }
}

/// A store that mixes rows borrowing the identity lane with rows that
/// list the very same destinations (a row that lost its last entry
/// writes its lane out) answers as a store of full rows does: such a
/// pair is told apart by content, not by address, and either way the
/// reduction and the scatter-gather agree with the definition.
#[test]
fn listed_and_identity_lanes_with_equal_contents_route_alike() {
    let n = 100usize;
    let specs: Vec<RowSpec> = [5usize, 40, 70, 99]
        .iter()
        .map(|&o| {
            let set: Vec<(usize, u16)> = (0..n)
                .map(|d| (d, ((o * 31 + d * 17) % 97 + 1) as u16))
                .collect();
            full_row_spec(o, n, 1, &set)
        })
        .collect();
    let world = World::new(n, &specs);
    let full = world.store();
    let mut mixed = world.store();
    for spec in &specs[..2] {
        let o = spec.origin;
        let mut dead = spec.row.clone();
        dead[9] = LinkEntry::dead();
        mixed.put_row(o, Arc::new(LaneRow::from_dense(&dead)), FRESH_AT);
        assert_eq!(mixed.entry_count(), full.entry_count() - 1);
        // One destination wider, less that destination: the row lists
        // `0..n`, the very entries of the full row.
        let mut wider = spec.row.clone();
        wider.push(LinkEntry::live(1, 0.0));
        let listed = LaneRow::from_dense(&wider).without(n as u16);
        assert_eq!(listed.held_bytes(), 4 * n, "a listed lane");
        mixed.put_row(o, Arc::new(listed), FRESH_AT);
        assert_eq!(mixed.row(o), full.row(o));
    }
    let (clients, me) = ([5usize, 40, 70], 99usize);
    let got = mixed.round_two(&clients, me, TICK_AT, MAX_AGE);
    let want = full.round_two(&clients, me, TICK_AT, MAX_AGE);
    let nodes = [5usize, 40, 70, 99];
    for (i, &a) in nodes.iter().enumerate() {
        for (j, &b) in nodes.iter().enumerate() {
            assert_eq!(got.get(i, j), want.get(i, j), "a={a} b={b}");
            assert_eq!(got.get(i, j), world.best_one_hop(a, b), "a={a} b={b}");
        }
    }
}

/// Two rows of equal length that list different destinations are not a
/// shared lane: the reduction would pair up legs to different relays.
#[test]
fn equal_length_lanes_with_different_contents_are_not_shared() {
    let n = 8usize;
    let mut row_a = vec![LinkEntry::dead(); n];
    let mut row_b = vec![LinkEntry::dead(); n];
    // a lists {2, 3, 5}, b lists {2, 4, 5}: position for position the
    // cheapest "sum" pairs 3 with 4; the only common relays are 2 and 5.
    for (d, cost) in [(2, 50), (3, 1), (5, 40)] {
        row_a[d] = LinkEntry::live(cost, 0.0);
    }
    for (d, cost) in [(2, 50), (4, 1), (5, 45)] {
        row_b[d] = LinkEntry::live(cost, 0.0);
    }
    let spec = |origin, row| RowSpec {
        origin,
        stale: false,
        row,
    };
    let world = World::new(n, &[spec(0, row_a), spec(7, row_b)]);
    let [got, by_definition] = kernel_and_oracle(&world, 0, 7);
    assert_eq!(got, Some((5, 85)));
    assert_eq!(got, by_definition);
}

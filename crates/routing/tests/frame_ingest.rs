//! A router reads an incoming routing frame where it lies, or the
//! message decoded from it: the two must be one ingest.
//!
//! A node hands its router link-state and recommendation frames still in
//! their payloads ([`LinkStateFrame`], [`RecFrame`]); the fabric workload,
//! the studies and most tests decode a [`Message`] and call
//! `on_message`. Here two fleets that start alike take the same seeded
//! stream of frames, one fleet by each path, and must stay alike —
//! every router's whole state, its `best_hop` and `route_age` over all
//! pairs, its held rows and seqnos — whatever the frames are: dense and
//! sparse rows, rows with dead entries, versioned rows with
//! retractions, stale seqnos, the wrong view or width, an unknown
//! sender, a row about the receiver itself, recommendations naming
//! indices outside the view, and frames cut short. Both routers are
//! run: the full-mesh baseline and the quorum router.

use apor_linkstate::{
    LaneRow, LinkEntry, LinkStateFrame, LinkStateMsg, LinkStateStore, Message, RecEntry, RecFormat,
    RecFrame, RecommendationMsg, LINKSTATE_HEADER_SIZE, SPARSE_LINKSTATE_HEADER_SIZE,
};
use apor_quorum::{NodeId, NodeIdx};
use apor_routing::{FullMeshRouter, ProtocolConfig, QuorumRouter, RoutingAlgorithm};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::fmt::Debug;
use std::sync::Arc;

const N: usize = 9;
const VIEW: u32 = 3;
/// Steps per seed: a routing tick of the whole fleet or one frame.
const STEPS: usize = 300;
const SEEDS: u64 = 6;

/// A row of `width` entries, each live with probability `p_live`.
fn entries(rng: &mut ChaCha8Rng, width: usize, p_live: f64) -> Vec<LinkEntry> {
    (0..width)
        .map(|_| {
            if rng.gen_bool(p_live) {
                LinkEntry::live(rng.gen_range(1..400), rng.gen_range(0.0..0.3))
            } else {
                LinkEntry::dead()
            }
        })
        .collect()
}

/// An ascending subset of `0..width`, each member with probability `p`.
fn subset(rng: &mut ChaCha8Rng, width: usize, p: f64) -> Vec<NodeIdx> {
    NodeIdx::all(width).filter(|_| rng.gen_bool(p)).collect()
}

/// One seeded link-state frame to router `to`: dense or sparse, all live
/// or with dead entries (a sparse one has a record marked dead on the
/// wire), sometimes versioned with a retraction lane — at a seqno that
/// may be older than the one its origin last sent — and sometimes from
/// another view, of another width, from an origin outside the view or
/// from `to` itself.
fn linkstate_frame(rng: &mut ChaCha8Rng, to: usize) -> Vec<u8> {
    let from = match rng.gen_range(0..10) {
        0 => to,
        1 => N + rng.gen_range(0..3usize),
        _ => rng.gen_range(0..N),
    };
    let view = if rng.gen_bool(0.1) { VIEW + 1 } else { VIEW };
    let width = match rng.gen_range(0..12) {
        0 => N - 1,
        1 => N + 1,
        _ => N,
    };
    let p_live = if rng.gen_bool(0.4) { 1.0 } else { 0.7 };
    let row_entries = entries(rng, width, p_live);
    let (seqno, retracted) = if rng.gen_bool(0.4) {
        let seqno = [1, 2, 3, 7, u16::MAX][rng.gen_range(0..5usize)];
        (seqno, subset(rng, width, 0.2))
    } else {
        (0, Vec::new())
    };
    let sparse = rng.gen_bool(0.4);
    let (row, liveness_loss) = if sparse {
        let pairs: Vec<(NodeIdx, LinkEntry)> = NodeIdx::all(width)
            .zip(row_entries.iter().copied())
            .filter(|(_, e)| e.alive)
            .collect();
        let listed: Vec<LinkEntry> = pairs.iter().map(|&(_, e)| e).collect();
        (
            LaneRow::from_pairs(&pairs),
            LinkStateMsg::liveness_lane(&listed),
        )
    } else {
        (
            LaneRow::from_dense(&row_entries),
            LinkStateMsg::liveness_lane(&row_entries),
        )
    };
    let records = row.len();
    let ls = LinkStateMsg {
        from: NodeId::from_index(from),
        to: NodeId::from_index(to),
        view,
        round: rng.gen_range(0..100),
        basis_ms: rng.gen_range(0..1_000_000),
        width: width as u16,
        row: Arc::new(row.with_version(seqno, &retracted)),
        liveness_loss,
    };
    let mut bytes = if sparse {
        Message::LinkStateSparse(ls)
    } else {
        Message::LinkState(ls)
    }
    .encode()
    .to_vec();
    let (header, stride, slots) = if sparse {
        (SPARSE_LINKSTATE_HEADER_SIZE + 2, 5, records)
    } else {
        (LINKSTATE_HEADER_SIZE, 3, width)
    };
    if slots > 0 && rng.gen_bool(0.2) {
        // A latency at the dead sentinel: no encoder of ours writes one,
        // a peer may, and a live entry's is clamped below it.
        let at = header + stride * rng.gen_range(0..slots);
        bytes[at..at + 2].copy_from_slice(&[0xFF, 0xFF]);
    }
    if sparse && records > 0 && rng.gen_bool(0.3) {
        // A record marked dead on the wire: no encoder of ours writes
        // one in a sparse frame, a peer may.
        let at = header + stride * rng.gen_range(0..records);
        bytes[at + 2] &= 0x7F;
    }
    bytes
}

/// One seeded recommendation frame to router `to`, compact or costed,
/// its entries sometimes naming an index outside the view or `to`
/// itself, sometimes from another view or a server outside it.
fn rec_frame(rng: &mut ChaCha8Rng, to: usize) -> Vec<u8> {
    let index = |rng: &mut ChaCha8Rng| {
        if rng.gen_bool(0.1) {
            N + rng.gen_range(0..3usize)
        } else {
            rng.gen_range(0..N)
        }
    };
    let recs = (0..rng.gen_range(0..=N))
        .map(|_| RecEntry {
            dst: NodeId::from_index(index(rng)),
            hop: NodeId::from_index(index(rng)),
            cost_ms: rng.gen_range(1..500),
        })
        .collect();
    Message::Recommendations(RecommendationMsg {
        from: NodeId::from_index(index(rng)),
        to: NodeId::from_index(to),
        view: if rng.gen_bool(0.1) { VIEW - 1 } else { VIEW },
        round: rng.gen_range(0..100),
        basis_ms: rng.gen_range(0..1_000_000),
        format: if rng.gen_bool(0.5) {
            RecFormat::Compact
        } else {
            RecFormat::WithCost
        },
        recs,
    })
    .encode()
    .to_vec()
}

/// Two fleets of one router type, and the two ways of handing them a
/// frame.
struct Twins<R> {
    decoded: Vec<R>,
    in_place: Vec<R>,
    /// Read the frame where it lies.
    ingest: fn(&mut R, f64, &[u8]),
}

impl<R: RoutingAlgorithm + Debug> Twins<R> {
    fn new(make: impl Fn(usize) -> R, ingest: fn(&mut R, f64, &[u8])) -> Self {
        Twins {
            decoded: (0..N).map(&make).collect(),
            in_place: (0..N).map(&make).collect(),
            ingest,
        }
    }

    /// Frame `bytes` to router `to`, by each path.
    fn deliver(&mut self, to: usize, now: f64, bytes: &[u8]) {
        if let Ok(msg) = Message::decode(bytes) {
            assert!(self.decoded[to].on_message(now, &msg).is_empty());
        }
        (self.ingest)(&mut self.in_place[to], now, bytes);
    }

    /// Every router ticks with its seeded row, alike in both fleets, and
    /// each frame it sends is delivered, encoded, by each path.
    fn tick(&mut self, rng: &mut ChaCha8Rng, now: f64) {
        let seed = rng.gen();
        let rows: Vec<Vec<LinkEntry>> = (0..N).map(|_| entries(rng, N, 0.85)).collect();
        let mut sent = Vec::new();
        let (mut rng_a, mut rng_b) = (
            ChaCha8Rng::seed_from_u64(seed),
            ChaCha8Rng::seed_from_u64(seed),
        );
        for (i, row) in rows.iter().enumerate() {
            let a = self.decoded[i].on_routing_tick(now, row, &mut rng_a);
            let b = self.in_place[i].on_routing_tick(now, row, &mut rng_b);
            assert_eq!(a, b, "one tick, two fleets");
            sent.extend(a);
        }
        for msg in sent {
            self.deliver(msg.to().index(), now + 0.01, &msg.encode());
        }
    }

    /// Both fleets in the same state, read every way a caller can.
    fn assert_alike(&self, now: f64, step: &str) {
        for (i, (a, b)) in self.decoded.iter().zip(&self.in_place).enumerate() {
            for dst in 0..N {
                for t in [now, now + 20.0, now + 100.0] {
                    assert_eq!(a.best_hop(dst, t), b.best_hop(dst, t), "{step}: {i}→{dst}");
                    assert_eq!(
                        a.route_age(dst, t),
                        b.route_age(dst, t),
                        "{step}: {i}→{dst}"
                    );
                }
            }
            assert_eq!(format!("{a:?}"), format!("{b:?}"), "{step}: router {i}");
        }
    }

    /// The seeded run: ticks and frames, the fleets compared after each.
    fn run(&mut self, seed: u64) -> (usize, usize) {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let mut now = 1.0;
        let (mut frames, mut accepted) = (0, 0);
        for step in 0..STEPS {
            now += rng.gen_range(0.01..2.0);
            if step % 25 == 0 {
                self.tick(&mut rng, now);
            } else {
                let to = rng.gen_range(0..N);
                let mut bytes = if rng.gen_bool(0.6) {
                    linkstate_frame(&mut rng, to)
                } else {
                    rec_frame(&mut rng, to)
                };
                if rng.gen_bool(0.05) {
                    bytes.truncate(rng.gen_range(0..bytes.len()));
                }
                frames += 1;
                accepted += usize::from(Message::decode(&bytes).is_ok());
                self.deliver(to, now, &bytes);
            }
            self.assert_alike(now, &format!("seed {seed}, step {step}"));
        }
        (frames, accepted)
    }
}

#[test]
fn a_frame_read_in_place_is_the_decoded_message_to_a_quorum_router() {
    let mut held_rows = 0;
    for seed in 0..SEEDS {
        let mut twins = Twins::new(
            |i| QuorumRouter::new(i, N, VIEW, ProtocolConfig::quorum()),
            |router: &mut QuorumRouter, now, bytes| {
                if let Ok(frame) = LinkStateFrame::parse(bytes) {
                    if let Some(from) = NodeIdx::new(frame.from.index(), N) {
                        router.on_linkstate(now, from, &frame);
                    }
                } else if let Ok(frame) = RecFrame::parse(bytes) {
                    if let Some(server) = NodeIdx::new(frame.from.index(), N) {
                        router.on_recommendations(now, server, frame.view, frame.entries());
                    }
                }
            },
        );
        let (frames, accepted) = twins.run(seed);
        assert!(
            accepted > frames / 2,
            "{accepted} of {frames} frames decode"
        );
        for (a, b) in twins.decoded.iter().zip(&twins.in_place) {
            assert_eq!(a.own_seqno(), b.own_seqno());
            for origin in NodeIdx::all(N) {
                assert_eq!(a.table().row(origin), b.table().row(origin));
                assert_eq!(a.table().row_seqno(origin), b.table().row_seqno(origin));
                held_rows += usize::from(a.table().row(origin).is_some());
            }
        }
    }
    assert!(held_rows > 0, "the runs held rows to compare");
}

#[test]
fn a_frame_read_in_place_is_the_decoded_message_to_a_full_mesh_router() {
    for seed in 0..SEEDS {
        let mut twins = Twins::new(
            |i| FullMeshRouter::new(i, N, VIEW, ProtocolConfig::ron()),
            |router: &mut FullMeshRouter, now, bytes| {
                if let Ok(frame) = LinkStateFrame::parse(bytes) {
                    if let Some(from) = NodeIdx::new(frame.from.index(), N) {
                        router.on_linkstate(now, from, &frame);
                    }
                }
            },
        );
        let (frames, accepted) = twins.run(seed);
        assert!(
            accepted > frames / 2,
            "{accepted} of {frames} frames decode"
        );
    }
}

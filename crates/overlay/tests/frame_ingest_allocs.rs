//! What a node allocates to take in a routing frame.
//!
//! Under RON's full mesh every node takes in `n − 1` link-state rows of
//! `3·n` bytes each routing interval, so the receive path is where a
//! full-mesh run would spend its allocator. A node reads link-state and
//! recommendation frames where they lie in the payload and allocates
//! only what its router keeps. These tests count the heap blocks one
//! `on_packet` call makes:
//!
//! * a full-width dense frame into the full-mesh baseline makes none —
//!   the row is written straight into the latency matrix;
//! * into the quorum router it makes the held row's blocks and nothing
//!   else (no liveness lane, no message), and none when the frame is
//!   refused;
//! * a recommendation frame makes none once its server's record has
//!   room for the destinations it names.

use apor_linkstate::{
    LaneRow, LinkEntry, LinkStateMsg, LinkStateStore, Message, RecEntry, RecFormat,
    RecommendationMsg,
};
use apor_overlay::config::{Algorithm, NodeConfig};
use apor_overlay::node::Outbox;
use apor_overlay::OverlayNode;
use apor_quorum::{Grid, NodeId, NodeIdx};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

/// The system allocator, plus a count of the blocks a thread allocates
/// — `alloc`, `alloc_zeroed` and `realloc` alike — while that thread has
/// counting switched on. Other test threads allocate freely without
/// touching it.
struct CountingBlocks;

thread_local! {
    static COUNTING: Cell<bool> = const { Cell::new(false) };
    static BLOCKS: Cell<usize> = const { Cell::new(0) };
}

fn tally() {
    let _ = COUNTING.try_with(|on| {
        if on.get() {
            let _ = BLOCKS.try_with(|b| b.set(b.get() + 1));
        }
    });
}

// SAFETY: every call is forwarded unchanged to `System`, which upholds
// the `GlobalAlloc` contract; the tally only touches thread-local
// `Cell`s with const initialisers, so it never allocates or re-enters.
unsafe impl GlobalAlloc for CountingBlocks {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        tally();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        tally();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        tally();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
    }
}

#[global_allocator]
static ALLOC: CountingBlocks = CountingBlocks;

/// The blocks `node` allocates to take in `payload` at `now`.
fn blocks_to_ingest(node: &mut OverlayNode, now: f64, payload: &[u8]) -> usize {
    let mut out = Outbox::default();
    BLOCKS.with(|b| b.set(0));
    COUNTING.with(|on| on.set(true));
    node.on_packet(now, payload, &mut out);
    COUNTING.with(|on| on.set(false));
    assert!(out.sends.is_empty() && out.timers.is_empty());
    BLOCKS.with(Cell::get)
}

/// The paper's full-mesh scale.
const N: usize = 196;
const ME: usize = 0;

/// A started node of a static `0..N` view.
fn node(algorithm: Algorithm) -> OverlayNode {
    let mut node = OverlayNode::new(NodeConfig::static_member(ME, N, algorithm));
    node.on_start(0.0, &mut Outbox::default());
    node
}

/// Node `from`'s link-state frame to me: `entries` dense, versioned
/// when `seqno` is not 0.
fn linkstate(
    node: &OverlayNode,
    from: u16,
    entries: &[LinkEntry],
    seqno: u16,
    retracted: &[usize],
) -> Vec<u8> {
    let width = entries.len();
    let retracted: Vec<NodeIdx> = retracted
        .iter()
        .map(|&d| NodeIdx::new(d, width).expect("below the width"))
        .collect();
    Message::LinkState(LinkStateMsg {
        from: NodeId(from),
        to: NodeId::from_index(ME),
        view: node.view().expect("a static view").version,
        round: 1,
        basis_ms: 0,
        width: entries.len() as u16,
        row: Arc::new(LaneRow::from_dense(entries).with_version(seqno, &retracted)),
        liveness_loss: LinkStateMsg::liveness_lane(entries),
    })
    .encode()
    .to_vec()
}

/// A row of `width` live entries whose latencies and losses vary.
fn full_row(width: usize) -> Vec<LinkEntry> {
    (0..width)
        .map(|d| LinkEntry::live((d * 37 % 400) as u16 + 1, (d % 7) as f32 * 0.03))
        .collect()
}

#[test]
fn a_full_mesh_node_takes_in_a_dense_frame_without_allocating() {
    let mut node = node(Algorithm::FullMesh);
    let full = full_row(N);
    let mut holes = full.clone();
    (holes[3], holes[90]) = (LinkEntry::dead(), LinkEntry::dead());
    for (t, from, entries) in [(1.0, 5, &full), (2.0, 5, &holes), (3.0, 17, &full)] {
        let frame = linkstate(&node, from, entries, 0, &[]);
        assert_eq!(blocks_to_ingest(&mut node, t, &frame), 0, "frame at {t}");
        assert_eq!(
            node.route_age(NodeId(from), t),
            Some(0.0),
            "row {from} held"
        );
    }
}

#[test]
fn a_quorum_node_allocates_the_held_row_and_nothing_else() {
    let mut node = node(Algorithm::Quorum);
    let full = full_row(N);
    let mut holes = full.clone();
    holes[40] = LinkEntry::dead();
    let held = |node: &OverlayNode| {
        let store = node.quorum_router().expect("a quorum router").table();
        let five = NodeIdx::new(5, N).unwrap();
        (store.row(five).cloned(), store.row_time(five))
    };
    // The first row from an origin also makes the store's map node.
    let frame = linkstate(&node, 5, &full, 0, &[]);
    assert!(blocks_to_ingest(&mut node, 1.0, &frame) > 0);
    // A full row: the row's `Arc` and its latency lane; its destinations
    // are the shared identity lane.
    let frame = linkstate(&node, 5, &full, 0, &[]);
    assert_eq!(blocks_to_ingest(&mut node, 2.0, &frame), 2);
    assert_eq!(held(&node).1, Some(2.0));
    // A row with a dead slot lists its destinations: one block more.
    let frame = linkstate(&node, 5, &holes, 0, &[]);
    assert_eq!(blocks_to_ingest(&mut node, 3.0, &frame), 3);
    // A versioned row also holds its retraction lane.
    let frame = linkstate(&node, 5, &holes, 4, &[40, 41]);
    assert_eq!(blocks_to_ingest(&mut node, 4.0, &frame), 4);
    let retracted = [40, 41].map(|d| NodeIdx::new(d, N).unwrap());
    let want = LaneRow::from_dense(&holes).with_version(4, &retracted);
    assert_eq!(held(&node), (Some(want), Some(4.0)));

    // Refused frames allocate nothing and change nothing: another view,
    // another width, my own row, a sender outside the view.
    let before = held(&node);
    let mut other_view = linkstate(&node, 5, &full, 0, &[]);
    other_view[5..9].copy_from_slice(&u32::MAX.to_be_bytes());
    let refused = [
        other_view,
        linkstate(&node, 5, &full[..N - 1], 0, &[]),
        linkstate(&node, ME as u16, &full, 0, &[]),
        linkstate(&node, 999, &full, 0, &[]),
    ];
    for (i, frame) in refused.iter().enumerate() {
        assert_eq!(
            blocks_to_ingest(&mut node, 5.0, frame),
            0,
            "refused frame {i}"
        );
        assert_eq!(held(&node), before, "refused frame {i}");
    }
    let store = node.quorum_router().expect("a quorum router").table();
    assert_eq!(store.row_count(), 1, "only row 5 is held");
}

#[test]
fn a_recommendation_frame_allocates_nothing_once_its_record_has_room() {
    let mut node = node(Algorithm::Quorum);
    let view = node.view().expect("a static view").version;
    let server = Grid::new(N).rendezvous_servers(ME)[0];
    let dsts: Vec<usize> = (1..N).step_by(7).collect();
    let frame = |format: RecFormat| {
        Message::Recommendations(RecommendationMsg {
            from: NodeId::from_index(server),
            to: NodeId::from_index(ME),
            view,
            round: 1,
            basis_ms: 0,
            format,
            recs: dsts
                .iter()
                .map(|&d| RecEntry {
                    dst: NodeId::from_index(d),
                    hop: NodeId::from_index(server),
                    cost_ms: 60,
                })
                .collect(),
        })
        .encode()
        .to_vec()
    };
    // The first frame makes room for the destinations it names.
    assert!(blocks_to_ingest(&mut node, 1.0, &frame(RecFormat::WithCost)) > 0);
    for (t, format) in [(2.0, RecFormat::WithCost), (3.0, RecFormat::Compact)] {
        assert_eq!(
            blocks_to_ingest(&mut node, t, &frame(format)),
            0,
            "frame at {t}"
        );
        let router = node.quorum_router().expect("a quorum router");
        for &d in &dsts {
            let route = router.route_entry(d).expect("recommended");
            assert_eq!((route.hop.get(), route.received_at), (server, t));
        }
    }
}

/// What a quorum node holds that a frame could change: every held row
/// with its receipt time, and the route it keeps to every destination.
fn routing_state(node: &OverlayNode) -> String {
    let router = node.quorum_router().expect("a quorum router");
    let rows: Vec<_> = router
        .table()
        .held_rows()
        .map(|(origin, at, _)| (origin, at, router.table().row(origin).cloned()))
        .collect();
    let routes: Vec<_> = (0..N).map(|d| router.route_entry(d)).collect();
    format!("{rows:?} {routes:?}")
}

/// Frames that decode but name an index outside the view are refused
/// where the index is checked — the row's width against the view, the
/// sender and each recommendation entry against the member list — and
/// the router never sees the index: on a warm quorum node they change
/// no held row and no route, allocate nothing and panic nowhere.
#[test]
fn hostile_indices_are_refused_without_a_trace() {
    let mut node = node(Algorithm::Quorum);
    let view = node.view().expect("a static view").version;
    let server = Grid::new(N).rendezvous_servers(ME)[0];
    let recs = |entries: &[(u16, u16)]| {
        Message::Recommendations(RecommendationMsg {
            from: NodeId::from_index(server),
            to: NodeId::from_index(ME),
            view,
            round: 1,
            basis_ms: 0,
            format: RecFormat::WithCost,
            recs: entries
                .iter()
                .map(|&(dst, hop)| RecEntry {
                    dst: NodeId(dst),
                    hop: NodeId(hop),
                    cost_ms: 60,
                })
                .collect(),
        })
        .encode()
        .to_vec()
    };
    // Warm: a held row, and routes from the server's record.
    let warm = [
        linkstate(&node, 5, &full_row(N), 0, &[]),
        recs(&[(3, 3), (9, 5), (40, 5)]),
    ];
    for frame in &warm {
        let _ = blocks_to_ingest(&mut node, 1.0, frame);
    }
    let before = routing_state(&node);
    assert!(before.contains("Some(RouteEntry"), "routes held: {before}");

    // A sparse row one wider than the view, its last destination `N` —
    // an index the view does not have, below the frame's own width.
    let n = NodeIdx::new(N, N + 1).expect("inside the frame's width");
    let wide = LaneRow::from_pairs(&[(n, LinkEntry::live(7, 0.0))]);
    let wide = Message::LinkStateSparse(LinkStateMsg {
        from: NodeId(5),
        to: NodeId::from_index(ME),
        view,
        round: 2,
        basis_ms: 0,
        width: (N + 1) as u16,
        row: Arc::new(wide),
        liveness_loss: LinkStateMsg::liveness_lane(&[LinkEntry::live(7, 0.0)]),
    })
    .encode()
    .to_vec();
    let outsider = N as u16;
    let hostile = [
        ("a row of width n + 1 naming n", wide),
        (
            "a row from a non-member",
            linkstate(&node, outsider, &full_row(N), 0, &[]),
        ),
        (
            "recommendations naming a non-member",
            recs(&[(outsider, 3), (3, outsider), (outsider, outsider)]),
        ),
    ];
    for (what, frame) in &hostile {
        assert_eq!(blocks_to_ingest(&mut node, 2.0, frame), 0, "{what}");
        assert_eq!(routing_state(&node), before, "{what}");
    }
}

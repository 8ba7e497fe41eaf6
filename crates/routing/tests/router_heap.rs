//! What one router holds on the heap once it is routing.
//!
//! The paper's scaling argument is about per-node state: `O(√n)`
//! link-state rows. Beside them a router keeps its own bookkeeping — a
//! route slot and a server index entry per destination, and one record
//! per server with an entry per destination it has vouched for — and at
//! `n` in the thousands that bookkeeping is what a node's heap is made
//! of. The route slot also holds the node's own link to the destination,
//! so no row of `n` link entries sits beside it. An entry is 4 B: the destination and a `u16` handle of the time
//! it was last named, because a frame stamps all it names with one
//! time, which the record holds once — inline for the latest frame, in a
//! 10 B slot for an earlier one some entry still holds.
//!
//! These tests pin it to its layout: a router at n = 1024 that has
//! heard one round-two frame from each of its rendezvous servers holds
//! no more live bytes than that layout accounts for, plus a small slack
//! that is written down; and one that has heard 256 frames from each,
//! most of them skipping destinations, holds no more time slots than
//! entries.
//!
//! A row a router keeps holds what routing reads — destinations and
//! latencies — and not the liveness/loss byte each wire entry also
//! carries, which stays with the frame. Two more tests pin that: a row
//! decoded from a full-width dense frame and put in a row store holds 2
//! B an entry, and a full-mesh router that has heard every row holds one
//! `u16` latency per ordered pair and a receipt time per row.

use apor_linkstate::{
    LaneRow, LinkEntry, LinkStateMsg, LinkStateStore, Message, RecEntry, RecFormat,
    RecommendationMsg, RowStore,
};
use apor_quorum::{Grid, NodeId};
use apor_routing::{FullMeshRouter, ProtocolConfig, QuorumRouter, RoutingAlgorithm};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

/// The system allocator, plus a running count of the bytes live on a
/// thread — allocated minus freed — while that thread has counting
/// switched on. Other test threads allocate freely without touching it.
struct LiveBytes;

thread_local! {
    static COUNTING: Cell<bool> = const { Cell::new(false) };
    static LIVE: Cell<isize> = const { Cell::new(0) };
}

#[allow(clippy::cast_possible_wrap)]
fn tally(grown: usize, shrunk: usize) {
    let _ = COUNTING.try_with(|on| {
        if on.get() {
            let _ = LIVE.try_with(|b| b.set(b.get() + grown as isize - shrunk as isize));
        }
    });
}

// SAFETY: every call is forwarded unchanged to `System`, which upholds
// the `GlobalAlloc` contract; the tally only touches thread-local
// `Cell`s with const initialisers, so it never allocates or re-enters.
unsafe impl GlobalAlloc for LiveBytes {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        tally(layout.size(), 0);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        tally(layout.size(), 0);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        tally(new_size, layout.size());
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        tally(0, layout.size());
        System.dealloc(ptr, layout);
    }
}

#[global_allocator]
static ALLOC: LiveBytes = LiveBytes;

/// What `f` returns, and the bytes it left live on this thread.
fn live_after<T>(f: impl FnOnce() -> T) -> (T, isize) {
    LIVE.with(|b| b.set(0));
    COUNTING.with(|on| on.set(true));
    let out = f();
    COUNTING.with(|on| on.set(false));
    (out, LIVE.with(Cell::get))
}

/// A route slot (a recommendation at wire width, a feasibility record
/// and my own link's latency and liveness, 24 B) and a `u16` index into
/// the server records, per destination.
const PER_DESTINATION: usize = 24 + 2;
/// One `(u16 destination, u16 time handle)` entry of a server record.
const PER_ENTRY: usize = 4;
/// One earlier frame's time in a server record's table: the `f64` and
/// the `u16` count of entries that hold it.
const PER_SLOT: usize = 10;
/// One server record: its first-sent time, its latest frame's time,
/// its entry list's and its time table's pointer, capacity and length,
/// and two `u16` handles (72 B), counted once because the router makes
/// room for a record per default server when it is built; plus the one
/// entry of room a frame reserves for the destination it names that the
/// router refuses (me).
const PER_RECORD: usize = 72 + PER_ENTRY;
/// Everything else the router allocates, whatever its history: the
/// disabled telemetry and tracer handles, the row store's header and
/// the rendezvous list — 3.2 kB measured at n = 1024 (2.8 kB at
/// n = 1), so the slack is under 1 kB.
const FIXED: usize = 4096;

const N: usize = 1024;
const ME: usize = 517;

/// Round two as server `s` runs it, naming `dsts` to me.
fn frame(s: usize, dsts: &[usize]) -> Message {
    Message::Recommendations(RecommendationMsg {
        from: NodeId::from_index(s),
        to: NodeId::from_index(ME),
        view: 0,
        round: 1,
        basis_ms: 0,
        format: RecFormat::WithCost,
        recs: dsts
            .iter()
            .map(|&d| RecEntry {
                dst: NodeId::from_index(d),
                hop: NodeId::from_index(d),
                cost_ms: 40,
            })
            .collect(),
    })
}

/// My rendezvous servers, each with the destinations of its honest
/// frame to me: its clients ascending, then itself.
fn servers() -> Vec<(usize, Vec<usize>)> {
    let grid = Grid::new(N);
    grid.rendezvous_servers(ME)
        .into_iter()
        .map(|s| {
            let mut dsts = grid.rendezvous_servers(s);
            dsts.push(s);
            (s, dsts)
        })
        .collect()
}

/// The bytes a router's bookkeeping may hold beside `entries` server
/// entries in `records` records and their time tables, `slots` bytes.
fn budget(entries: usize, records: usize, slots: usize) -> usize {
    N * PER_DESTINATION + entries * PER_ENTRY + records * PER_RECORD + slots + FIXED
}

#[test]
fn a_recommending_router_holds_its_layout_and_no_more() {
    let servers = servers();
    let frames: Vec<Message> = servers.iter().map(|(s, dsts)| frame(*s, dsts)).collect();
    let records = frames.len();
    // Every destination a frame names but me.
    let entries: usize = servers
        .iter()
        .map(|(_, dsts)| dsts.iter().filter(|&&d| d != ME).count())
        .sum();
    assert_eq!(records, 62, "a 32 × 32 grid: 31 in my row, 31 in my column");
    assert_eq!(entries, records * 62);

    let (router, live) = live_after(|| {
        let mut router = QuorumRouter::new(ME, N, 0, ProtocolConfig::quorum());
        for frame in &frames {
            assert!(router.on_message(1.0, frame).is_empty());
        }
        router
    });
    assert_eq!(router.route_entry(ME + 1).map(|r| r.cost_ms), Some(40));

    // One frame per server: every entry holds that frame's time, which
    // the record keeps inline, so there is no time table.
    let budget = budget(entries, records, 0);
    let live = usize::try_from(live).expect("the router holds memory");
    assert!(
        live <= budget,
        "{live} B live after {records} frames ({entries} entries), over the {budget} B budget"
    );
}

/// Frames that keep skipping destinations leave entries holding older
/// times. A record keeps an earlier time only while an entry holds it
/// and reuses the slot after, so its table has at most one slot per
/// entry, in a vector grown by doubling: room for the next power of two
/// at most, however many frames arrive. Each server here sends its
/// honest frame and then 255 more: first alternately a rotating four
/// fifths of its destinations and a single one, then single ones only,
/// one per time, which leave every entry holding a time of its own — the
/// most a table can hold. A table with a slot per frame would need
/// 256 × 10 B per record, past this budget.
#[test]
fn skipping_frames_keep_a_time_table_no_larger_than_the_entries() {
    const FRAMES: usize = 256;
    let servers = servers();
    let records = servers.len();
    let per_record: Vec<usize> = servers
        .iter()
        .map(|(_, dsts)| dsts.iter().filter(|&&d| d != ME).count())
        .collect();
    let entries: usize = per_record.iter().sum();
    let (router, live) = live_after(|| {
        let mut router = QuorumRouter::new(ME, N, 0, ProtocolConfig::quorum());
        for k in 0..FRAMES {
            for (s, dsts) in &servers {
                let named: Vec<usize> = match k {
                    0 => dsts.clone(),
                    k if k < FRAMES / 2 && k % 2 == 0 => dsts
                        .iter()
                        .enumerate()
                        .filter(|(p, _)| p % 5 != k / 2 % 5)
                        .map(|(_, &d)| d)
                        .collect(),
                    k => vec![dsts[k % dsts.len()]],
                };
                assert!(router.on_message(k as f64, &frame(*s, &named)).is_empty());
            }
        }
        router
    });
    assert!(router.route_entry(ME + 1).is_some());

    let slots: usize = per_record
        .iter()
        .map(|e| e.next_power_of_two() * PER_SLOT)
        .sum();
    assert!(slots < records * FRAMES * PER_SLOT);
    let budget = budget(entries, records, slots);
    let live = usize::try_from(live).expect("the router holds memory");
    assert!(
        live <= budget,
        "{live} B live after {FRAMES} frames from each of {records} servers \
         ({entries} entries), over the {budget} B budget"
    );
}

/// A dense link-state frame of `width` live entries from `from` to 0,
/// encoded: latencies and losses that vary from slot to slot.
fn dense_frame(from: usize, width: usize) -> Vec<u8> {
    let entries: Vec<LinkEntry> = (0..width)
        .map(|d| LinkEntry::live((d * 37 % 400) as u16 + 1, (d % 7) as f32 * 0.03))
        .collect();
    Message::LinkState(LinkStateMsg {
        from: NodeId::from_index(from),
        to: NodeId::from_index(0),
        view: 0,
        round: 1,
        basis_ms: 0,
        width: width as u16,
        row: Arc::new(LaneRow::from_dense(&entries)),
        liveness_loss: LinkStateMsg::liveness_lane(&entries),
    })
    .encode()
    .to_vec()
}

/// A row decoded from a width-1024 dense frame with every entry live —
/// every frame under full-mesh probing — and put in a store holds its
/// latency lane, 2 B an entry, beside the row's and the map's headers:
/// its destinations are the shared identity lane, and the frame's
/// liveness lane goes with the message. A row that kept the liveness
/// byte would hold 3 B an entry, 1 kB past this budget.
#[test]
fn a_decoded_full_row_holds_two_bytes_an_entry() {
    const WIDTH: usize = 1024;
    /// The row's `Arc` and header and the store's one map node.
    const HEADERS: usize = 512;
    let frame = dense_frame(3, WIDTH);
    let mut store = RowStore::new(WIDTH);
    let ((), live) = live_after(|| {
        let Ok(Message::LinkState(ls)) = Message::decode(&frame) else {
            panic!("a dense link-state frame");
        };
        assert_eq!(ls.liveness_loss.len(), WIDTH, "the frame carries the loss");
        assert!(store.put_row(3, Arc::clone(&ls.row), 1.0));
    });
    let row = store.row(3).expect("held");
    assert_eq!(row.held_bytes(), 2 * WIDTH);
    let live = usize::try_from(live).expect("the store holds the row");
    assert!(
        (2 * WIDTH..=2 * WIDTH + HEADERS).contains(&live),
        "{live} B live for a {WIDTH}-entry row, not 2 B an entry plus {HEADERS} B"
    );
}

/// A full-mesh router at the paper's n = 196 that has heard its own
/// tick and every other node's dense frame holds its latency matrix —
/// one `u16` per ordered pair, 2·n² B — and one receipt time per row,
/// within 64 B a node. A second `n × n` array of liveness bytes would
/// add n² B, past this budget.
#[test]
fn a_full_mesh_router_holds_one_latency_per_pair() {
    const N: usize = 196;
    let frames: Vec<Vec<u8>> = (1..N).map(|from| dense_frame(from, N)).collect();
    let own: Vec<LinkEntry> = (0..N).map(|d| LinkEntry::live(d as u16, 0.0)).collect();
    let mut rng = ChaCha8Rng::seed_from_u64(1);
    let (router, live) = live_after(|| {
        let mut router = FullMeshRouter::new(0, N, 0, ProtocolConfig::ron());
        assert_eq!(router.on_routing_tick(1.0, &own, &mut rng).len(), N - 1);
        for frame in &frames {
            let msg = Message::decode(frame).expect("a dense frame");
            assert!(router.on_message(1.5, &msg).is_empty());
        }
        router
    });
    assert!((1..N).all(|dst| router.route_age(dst, 2.0) == Some(0.5)));
    let budget = 2 * N * N + 64 * N;
    let live = usize::try_from(live).expect("the router holds memory");
    assert!(
        live <= budget,
        "{live} B live for n = {N}, over the {budget} B budget (2·n² + 64·n)"
    );
}

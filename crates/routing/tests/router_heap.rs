//! What one quorum router holds on the heap once it is recommending.
//!
//! The paper's scaling argument is about per-node state: `O(√n)`
//! link-state rows. Beside them a router keeps its own bookkeeping — a
//! route slot and a server index entry per destination, and one record
//! per server with an entry per destination it has vouched for — and at
//! `n` in the thousands that bookkeeping is what a node's heap is made
//! of. This test pins it to its layout: a router at n = 1024 that has
//! heard one round-two frame from each of its rendezvous servers holds
//! no more live bytes than that layout accounts for, plus a small slack
//! that is written down.

use apor_linkstate::{LinkEntry, Message, RecEntry, RecFormat, RecommendationMsg};
use apor_quorum::NodeId;
use apor_routing::{ProtocolConfig, QuorumRouter, RoutingAlgorithm};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

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

/// A route slot (16 B recommendation + 8 B feasibility record) and a
/// `u16` index into the server records, per destination.
const PER_DESTINATION: usize = 24 + 2;
/// One `(u16 destination, f64 time)` entry of a server record.
const PER_ENTRY: usize = 10;
/// One server record: its first-sent time and its entry list's pointer,
/// capacity and length (32 B), counted twice because the records sit in
/// a vector grown by doubling; plus the one entry of room a frame
/// reserves for the destination it names that the router refuses (me).
const PER_RECORD: usize = 2 * 32 + PER_ENTRY;
/// Everything else the router allocates, whatever its history: the
/// disabled telemetry and tracer handles, the row store's header and
/// the rendezvous list — 3.2 kB measured at n = 1024 (2.8 kB at
/// n = 1), so the slack is under 1 kB.
const FIXED: usize = 4096;

#[test]
fn a_recommending_router_holds_its_layout_and_no_more() {
    let (n, me) = (1024, 517);
    let probe = QuorumRouter::new(me, n, 0, ProtocolConfig::quorum());
    let grid = probe.grid();
    // Round two as each of my servers runs it: one frame to me listing
    // its clients ascending, then itself.
    let frames: Vec<Message> = grid
        .rendezvous_servers(me)
        .into_iter()
        .map(|s| {
            let mut dsts = grid.rendezvous_servers(s);
            dsts.push(s);
            Message::Recommendations(RecommendationMsg {
                from: NodeId::from_index(s),
                to: NodeId::from_index(me),
                view: 0,
                round: 1,
                basis_ms: 0,
                format: RecFormat::WithCost,
                recs: dsts
                    .into_iter()
                    .map(|d| RecEntry {
                        dst: NodeId::from_index(d),
                        hop: NodeId::from_index(d),
                        cost_ms: 40,
                    })
                    .collect(),
            })
        })
        .collect();
    let records = frames.len();
    // Every destination a frame names but me.
    let entries: usize = frames
        .iter()
        .map(|m| match m {
            Message::Recommendations(rm) => rm.recs.iter().filter(|r| r.dst.index() != me).count(),
            _ => 0,
        })
        .sum();
    assert_eq!(records, 62, "a 32 × 32 grid: 31 in my row, 31 in my column");
    assert_eq!(entries, records * 62);

    let (router, live) = live_after(|| {
        let mut router = QuorumRouter::new(me, n, 0, ProtocolConfig::quorum());
        for frame in &frames {
            assert!(router.on_message(1.0, frame).is_empty());
        }
        router
    });
    assert_eq!(router.route_entry(me + 1).map(|r| r.cost_ms), Some(40));

    // My own row, which is not bookkeeping: one entry per destination.
    let own_row = n * std::mem::size_of::<LinkEntry>();
    let budget = n * PER_DESTINATION + own_row + entries * PER_ENTRY + records * PER_RECORD + FIXED;
    let live = usize::try_from(live).expect("the router holds memory");
    assert!(
        live <= budget,
        "{live} B live after {records} frames ({entries} entries), over the {budget} B budget"
    );
}

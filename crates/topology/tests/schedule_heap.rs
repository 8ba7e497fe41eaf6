//! What a scripted failure schedule holds on the heap.
//!
//! The paper's scaling argument is that no node keeps quadratic state,
//! and the emulator that reproduces it should not either: a schedule
//! holds its faults, not the pairs. This test builds the schedule of the
//! `scale-512` benchmark workload — 512 nodes, no background failures,
//! 16 crashes and a 64-node partition — and pins what it leaves live:
//! one ever-down bit per pair (16 kB), an outage-list header per node
//! (12 kB), the 16 crash lists and one side per node for the partition,
//! about 29 kB in all, under a 64 KiB budget. An outage list per pair
//! would cost 3.1 MB of empty headers alone, and a partition spelled out
//! as one outage per cut link 28 672 lists more.

use apor_topology::{FailureParams, FailureSchedule};
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

/// The live bytes a `scale-512` schedule may hold.
const BUDGET: isize = 64 * 1024;

#[test]
fn a_scripted_schedule_holds_its_faults_not_its_pairs() {
    let n = 512;
    let victims: Vec<usize> = (n / 2..n / 2 + 16).collect();
    let minority: Vec<usize> = (n - 64..n).collect();
    let params = FailureParams::scripted(n, 230.0)
        .with_crashes(&victims, 65.0)
        .with_partition(&minority, 95.0, 125.0);

    let (schedule, live) = live_after(|| FailureSchedule::generate(&params));

    assert!(!schedule.is_node_up(victims[0], 100.0));
    assert!(!schedule.is_link_up(0, n - 1, 100.0));
    assert!(schedule.is_link_up(0, n - 1, 130.0));
    assert!(
        live <= BUDGET,
        "{live} B live in a scale-512 schedule, over the {BUDGET} B budget"
    );
}

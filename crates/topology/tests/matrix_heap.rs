//! What a generated latency matrix holds on the heap.
//!
//! The paper assumes links with the same cost both ways (section 3), and
//! its scaling argument is about per-node state; the emulator that
//! reproduces it should not keep two copies of every pair either. This
//! test builds the PlanetLab-model matrix of the `scale-512` benchmark
//! workload and pins what it leaves live: one 16 B record (RTT and loss)
//! per unordered pair, 2 093 056 B at n = 512, plus a node's record of
//! its link to itself, 8 kB. Two dense `n²` arrays of `f64` — the RTT
//! and the loss of each ordered pair — would hold 4 194 304 B.

use apor_topology::{PlanetLabParams, Topology};
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

const N: usize = 512;
/// One record per unordered pair: an `f64` RTT and an `f64` loss.
const PER_PAIR: usize = 16;
/// The slack, written down: each node's 16 B record of its link to
/// itself. A symmetric matrix has no directed exceptions.
const SLACK: usize = N * 16;

#[test]
fn a_generated_matrix_holds_one_record_per_pair() {
    let params = PlanetLabParams {
        n: N,
        seed: 1,
        ..Default::default()
    };
    let (matrix, live) = live_after(|| Topology::generate(&params).latency);

    assert_eq!(matrix.len(), N);
    assert_eq!(matrix.rtt(3, 400).to_bits(), matrix.rtt(400, 3).to_bits());
    assert!(matrix.reachable(0, N - 1) && matrix.rtt(7, 7) == 0.0);
    let budget = N * (N - 1) / 2 * PER_PAIR + SLACK;
    let live = usize::try_from(live).expect("the matrix holds memory");
    assert!(
        live <= budget,
        "{live} B live in an n = {N} matrix, over the {budget} B budget"
    );
}

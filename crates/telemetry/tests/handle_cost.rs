//! What a telemetry handle and a disabled tracer cost to create.
//!
//! A simulated fleet builds one enabled handle per node and layer, and
//! a disabled tracer per node and component, so a buffer preallocated
//! per handle is paid thousands of times over. These tests pin each
//! handle at one small block: the heap bytes `Telemetry::new` requests
//! stay within a small fixed budget, and a disabled tracer allocates
//! its shared header and no span ring.

use apor_telemetry::{SpanKind, Telemetry, Tracer};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// The system allocator, plus a tally of the requests (and their
/// bytes) made on a thread while that thread has counting switched on. Other test
/// threads allocate freely without touching the tally.
struct CountingAlloc;

thread_local! {
    static COUNTING: Cell<bool> = const { Cell::new(false) };
    static BYTES: Cell<usize> = const { Cell::new(0) };
    static CALLS: Cell<usize> = const { Cell::new(0) };
}

fn tally(bytes: usize) {
    let _ = COUNTING.try_with(|on| {
        if on.get() {
            let _ = BYTES.try_with(|b| b.set(b.get() + bytes));
            let _ = CALLS.try_with(|c| c.set(c.get() + 1));
        }
    });
}

// SAFETY: every call is forwarded unchanged to `System`, which upholds
// the `GlobalAlloc` contract; the tally only touches thread-local
// `Cell`s with const initialisers, so it never allocates or re-enters.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        tally(layout.size());
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        tally(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        tally(new_size);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Heap requests and heap bytes made on this thread while `f` runs.
fn allocated_by<T>(f: impl FnOnce() -> T) -> (T, usize, usize) {
    BYTES.with(|b| b.set(0));
    CALLS.with(|c| c.set(0));
    COUNTING.with(|on| on.set(true));
    let out = f();
    COUNTING.with(|on| on.set(false));
    (out, CALLS.with(Cell::get), BYTES.with(Cell::get))
}

#[test]
fn enabled_handle_allocates_at_most_256_bytes() {
    let (handle, _, bytes) = allocated_by(|| Telemetry::new(0));
    assert!(
        bytes <= 256,
        "Telemetry::new allocated {bytes} B; a handle must not preallocate a per-node buffer"
    );
    // The handle still works: registration allocates after creation.
    handle.counter("c", "n").inc();
    assert_eq!(handle.snapshot().counter(0, "c", "n"), Some(1));
}

/// A disabled tracer — whichever way it is built — is one shared
/// header of at most 56 B (the node, the enabled flag and an empty ring
/// behind its lock), and recording into it or reading it allocates
/// nothing.
#[test]
fn disabled_tracer_is_one_small_block_and_no_ring() {
    for (label, make) in [
        ("Tracer::disabled()", Tracer::disabled as fn() -> Tracer),
        ("Tracer::new(7, 0)", || Tracer::new(7, 0)),
    ] {
        let (tracer, calls, bytes) = allocated_by(make);
        assert_eq!(calls, 1, "{label} made {calls} allocations");
        assert!(bytes <= 56, "{label} allocated {bytes} B");
        let (spans, calls, _) = allocated_by(|| {
            tracer.record(SpanKind::GossipHop, 1, 0, 0, 0.0, 1.0);
            tracer.recent()
        });
        assert_eq!(calls, 0, "{label} allocated a ring");
        assert!(spans.is_empty());
    }
}

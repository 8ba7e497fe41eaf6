//! What an enabled telemetry handle costs to create.
//!
//! A simulated fleet builds one enabled handle per node and layer, so a
//! buffer preallocated per handle is paid thousands of times over. This
//! test pins the handle at its node id and an empty registry: the heap
//! bytes `Telemetry::new` requests stay within a small fixed budget.

use apor_telemetry::Telemetry;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// The system allocator, plus a byte tally of the requests made on a
/// thread while that thread has counting switched on. Other test
/// threads allocate freely without touching the tally.
struct CountingAlloc;

thread_local! {
    static COUNTING: Cell<bool> = const { Cell::new(false) };
    static BYTES: Cell<usize> = const { Cell::new(0) };
}

fn tally(bytes: usize) {
    let _ = COUNTING.try_with(|on| {
        if on.get() {
            let _ = BYTES.try_with(|b| b.set(b.get() + bytes));
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

/// Heap bytes requested on this thread while `f` runs.
fn bytes_allocated_by<T>(f: impl FnOnce() -> T) -> (T, usize) {
    BYTES.with(|b| b.set(0));
    COUNTING.with(|on| on.set(true));
    let out = f();
    COUNTING.with(|on| on.set(false));
    (out, BYTES.with(Cell::get))
}

#[test]
fn enabled_handle_allocates_at_most_256_bytes() {
    let (handle, bytes) = bytes_allocated_by(|| Telemetry::new(0));
    assert!(
        bytes <= 256,
        "Telemetry::new allocated {bytes} B; a handle must not preallocate a per-node buffer"
    );
    // The handle still works: registration allocates after creation.
    handle.counter("c", "n").inc();
    assert_eq!(handle.snapshot().counter(0, "c", "n"), Some(1));
}

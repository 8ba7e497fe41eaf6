//! Process-level meters: a counting global allocator, the process CPU
//! clock, and the host's steal counter.
//!
//! The allocator counts only while a measured phase is open
//! ([`Phase::open`] … [`Phase::close`]), so set-up, oracle and
//! bookkeeping allocations of the benchmark itself stay out of the
//! numbers. Its counters are per thread: the benchmark runs on one
//! thread, and `cargo test` runs tests on several at once.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::time::Instant;

/// The counting allocator installed as `#[global_allocator]` in `main.rs`.
pub struct CountingAlloc;

struct Counters {
    counting: Cell<bool>,
    allocs: Cell<u64>,
    alloc_bytes: Cell<u64>,
    /// Live heap bytes, tracked always: a block allocated in set-up and
    /// freed inside a phase must still balance. Wrapping, because a
    /// block may be freed on another thread than allocated it.
    live: Cell<u64>,
    peak: Cell<u64>,
}

thread_local! {
    // Const-initialised and without a destructor, so touching it from
    // inside the allocator never allocates or registers anything.
    static COUNTERS: Counters = const {
        Counters {
            counting: Cell::new(false),
            allocs: Cell::new(0),
            alloc_bytes: Cell::new(0),
            live: Cell::new(0),
            peak: Cell::new(0),
        }
    };
}

fn note_alloc(size: usize) {
    COUNTERS.with(|c| {
        let live = c.live.get().wrapping_add(size as u64);
        c.live.set(live);
        if c.counting.get() {
            c.allocs.set(c.allocs.get() + 1);
            c.alloc_bytes.set(c.alloc_bytes.get() + size as u64);
            c.peak.set(c.peak.get().max(live));
        }
    });
}

fn note_free(size: usize) {
    COUNTERS.with(|c| c.live.set(c.live.get().wrapping_sub(size as u64)));
}

// SAFETY: every method forwards to `System` with the caller's own
// arguments and only adds counter updates, so `System`'s guarantees
// (layout respected, no unwinding) carry over unchanged.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            note_alloc(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        note_free(layout.size());
        // SAFETY: `ptr` came from `alloc`/`realloc` above, i.e. from
        // `System`, with this layout.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller upholds `GlobalAlloc::alloc_zeroed`'s contract.
        let p = unsafe { System.alloc_zeroed(layout) };
        if !p.is_null() {
            note_alloc(layout.size());
        }
        p
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: `ptr` came from `System` with `layout`; the caller
        // upholds the rest of `GlobalAlloc::realloc`'s contract.
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() {
            note_free(layout.size());
            note_alloc(new_size);
        }
        p
    }
}

/// Live heap bytes of this thread right now.
#[cfg(test)]
pub fn live_bytes() -> u64 {
    COUNTERS.with(|c| c.live.get())
}

/// Linux only: the benchmark also reads `/proc/stat`.
fn process_cpu_ns() -> u64 {
    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clk_id: i32, tp: *mut Timespec) -> i32;
    }
    const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable `struct timespec` (two 64-bit
    // fields on every 64-bit Linux target) for the duration of the call.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "CLOCK_PROCESS_CPUTIME_ID unavailable");
    ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64
}

/// Process CPU seconds (user + system) so far.
pub fn cpu_s() -> f64 {
    process_cpu_ns() as f64 / 1e9
}

/// Seconds the hypervisor withheld from this guest, summed over CPUs
/// (`steal` in `/proc/stat`, USER_HZ = 100). `None` off Linux.
pub fn steal_s() -> Option<f64> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let cpu = stat.lines().next()?;
    let steal: f64 = cpu.split_whitespace().nth(8)?.parse().ok()?;
    Some(steal / 100.0)
}

/// What one or more measured intervals cost.
#[derive(Debug, Clone, Copy, Default)]
pub struct Cost {
    pub cpu_s: f64,
    pub wall_s: f64,
    pub allocs: u64,
    pub alloc_bytes: u64,
    /// Peak live heap while any interval was open, bytes.
    pub peak_bytes: u64,
}

/// An accumulator over the measured intervals of one repetition: the
/// `run_until` segments of a simulation, or the fabric's ticks and reads.
pub struct Phase {
    total: Cost,
    open: Option<(f64, Instant)>,
}

impl Phase {
    /// Reset the allocator's counters and start with nothing measured.
    pub fn new() -> Self {
        COUNTERS.with(|c| {
            c.allocs.set(0);
            c.alloc_bytes.set(0);
            c.peak.set(0);
        });
        Phase {
            total: Cost::default(),
            open: None,
        }
    }

    /// Start (or resume) measuring.
    pub fn open(&mut self) {
        assert!(self.open.is_none(), "phase already open");
        COUNTERS.with(|c| {
            c.peak.set(c.peak.get().max(c.live.get()));
            c.counting.set(true);
        });
        self.open = Some((cpu_s(), Instant::now()));
    }

    /// Pause measuring.
    pub fn close(&mut self) {
        let (cpu0, wall0) = self.open.take().expect("phase not open");
        self.total.cpu_s += cpu_s() - cpu0;
        self.total.wall_s += wall0.elapsed().as_secs_f64();
        COUNTERS.with(|c| c.counting.set(false));
    }

    /// Measure one closure.
    pub fn measure<T>(&mut self, f: impl FnOnce() -> T) -> T {
        self.open();
        let out = f();
        self.close();
        out
    }

    /// Everything measured so far.
    pub fn cost(&self) -> Cost {
        assert!(self.open.is_none(), "phase still open");
        COUNTERS.with(|c| Cost {
            allocs: c.allocs.get(),
            alloc_bytes: c.alloc_bytes.get(),
            peak_bytes: c.peak.get(),
            ..self.total
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_phase_counts_nothing_and_balances() {
        let before = live_bytes();
        let mut phase = Phase::new();
        phase.measure(|| {});
        let cost = phase.cost();
        assert_eq!(cost.allocs, 0);
        assert_eq!(cost.alloc_bytes, 0);
        assert_eq!(
            live_bytes(),
            before,
            "an empty phase leaves live bytes unchanged"
        );
    }

    #[test]
    fn phase_counts_allocations_and_live_returns_to_start() {
        let before = live_bytes();
        let mut phase = Phase::new();
        phase.measure(|| {
            let v: Vec<u8> = Vec::with_capacity(1 << 20);
            std::hint::black_box(&v);
        });
        let cost = phase.cost();
        assert_eq!(cost.allocs, 1);
        assert_eq!(cost.alloc_bytes, 1 << 20);
        assert!(cost.peak_bytes >= before + (1 << 20));
        assert_eq!(live_bytes(), before);
        // Outside a phase nothing is counted.
        let v: Vec<u8> = Vec::with_capacity(4096);
        std::hint::black_box(&v);
        assert_eq!(phase.cost().allocs, 1);
    }

    #[test]
    fn cpu_clock_advances_with_work() {
        let t0 = cpu_s();
        let mut x = 0u64;
        for i in 0..20_000_000u64 {
            x = std::hint::black_box(x.wrapping_add(i));
        }
        assert!(cpu_s() > t0, "cpu clock did not advance ({x})");
    }
}

//! A counting global allocator for the allocation-trajectory record.
//!
//! Every binary and test that links `unistore-bench` allocates through
//! [`CountingAlloc`]: a thin wrapper over the system allocator that
//! counts, per thread, allocation calls and requested bytes;
//! `alloc-snapshot` turns the counters into allocs/op and bytes/op for
//! `BENCH_alloc.json`.
//!
//! The counters are per-thread, so a [`measure`] delta is exactly what
//! the measured closure allocated on its own thread — the whole of it
//! for the single-threaded simulation harness — whatever other threads
//! (parallel tests) do meanwhile.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    // Const-initialized and without destructors: reading them from
    // inside the allocator neither allocates nor can observe a torn-down
    // slot.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    static BYTES: Cell<u64> = const { Cell::new(0) };
}

fn count(bytes: usize) {
    ALLOCS.with(|c| c.set(c.get() + 1));
    BYTES.with(|c| c.set(c.get() + bytes as u64));
}

/// System allocator plus per-thread counters of calls and requested
/// bytes.
pub struct CountingAlloc;

// SAFETY: defers every operation to `System`; the counters never affect
// the returned pointers or layouts.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // A grow is a fresh backing allocation from the caller's point
        // of view: count the new size, like a Vec doubling would cost.
        count(new_size);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Allocation activity observed during a [`measure`] call.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct AllocStats {
    /// Number of allocation calls (alloc + alloc_zeroed + realloc).
    pub allocs: u64,
    /// Total requested bytes across those calls.
    pub bytes: u64,
}

impl AllocStats {
    /// Allocations per operation when the measured closure ran `ops`
    /// operations.
    pub fn allocs_per_op(&self, ops: usize) -> f64 {
        self.allocs as f64 / ops.max(1) as f64
    }

    /// Requested bytes per operation.
    pub fn bytes_per_op(&self, ops: usize) -> f64 {
        self.bytes as f64 / ops.max(1) as f64
    }
}

/// Runs `f` and returns its result plus the allocations it made on the
/// calling thread.
pub fn measure<R>(f: impl FnOnce() -> R) -> (R, AllocStats) {
    let (a0, b0) = (ALLOCS.get(), BYTES.get());
    let r = f();
    let stats = AllocStats { allocs: ALLOCS.get() - a0, bytes: BYTES.get() - b0 };
    (r, stats)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn measure_counts_a_known_allocation() {
        let (v, stats) = measure(|| vec![0u8; 4096]);
        assert_eq!(v.len(), 4096);
        assert!(stats.allocs >= 1, "one Vec allocation must be visible");
        assert!(stats.bytes >= 4096, "requested bytes include the Vec payload");
    }

    #[test]
    fn measure_of_nothing_is_zero() {
        let ((), stats) = measure(|| {
            let x = 1u64 + 2;
            std::hint::black_box(x);
        });
        assert_eq!(stats, AllocStats::default());
    }

    #[test]
    fn per_op_rates_divide() {
        let s = AllocStats { allocs: 100, bytes: 6400 };
        assert_eq!(s.allocs_per_op(50), 2.0);
        assert_eq!(s.bytes_per_op(50), 128.0);
        // ops = 0 must not divide by zero.
        assert_eq!(s.allocs_per_op(0), 100.0);
    }
}

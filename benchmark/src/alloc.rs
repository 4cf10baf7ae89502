//! Counting global allocator: allocation calls and requested bytes,
//! process-wide. Two relaxed atomic adds per allocation, on in every
//! run, so traced and untraced runs pay the same.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};

static ALLOCS: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);

pub struct CountingAlloc;

// SAFETY: every operation is deferred to `System` unchanged; the
// counters never influence the returned pointers or layouts.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Relaxed);
        BYTES.fetch_add(layout.size() as u64, Relaxed);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Relaxed);
        BYTES.fetch_add(layout.size() as u64, Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Relaxed);
        BYTES.fetch_add(new_size as u64, Relaxed);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

/// (allocation calls, requested bytes) since process start.
pub fn snapshot() -> (u64, u64) {
    (ALLOCS.load(Relaxed), BYTES.load(Relaxed))
}

/// Runs `f`; returns its result and the (calls, bytes) it allocated.
/// Only meaningful on the single-threaded harness.
pub fn measure<R>(f: impl FnOnce() -> R) -> (R, u64, u64) {
    let (a0, b0) = snapshot();
    let r = f();
    let (a1, b1) = snapshot();
    (r, a1 - a0, b1 - b0)
}

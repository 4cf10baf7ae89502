//! Thread-local scratch-buffer pool for the wire codec.
//!
//! The simulator sizes **every** send with [`super::Wire::wire_size`],
//! whose default implementation encodes into a scratch [`BytesMut`] —
//! so without reuse each simulated message pays a fresh allocation plus
//! O(log n) growth re-allocations before the bytes are thrown away.
//! The pool keeps a small per-thread stack of cleared buffers that
//! retain their high-water capacity: steady-state scratch encodes touch
//! the allocator zero times.

use std::cell::RefCell;

use bytes::BytesMut;

/// Buffers retained per thread; deeper nesting falls back to fresh
/// allocations (encode recursion via the default `wire_size` is shallow).
const MAX_POOLED: usize = 8;

/// Capacity ceiling for a returned buffer: a one-off giant encode must
/// not pin its high-water mark in the pool forever.
const MAX_RETAINED_CAPACITY: usize = 1 << 20;

thread_local! {
    static POOL: RefCell<Vec<BytesMut>> = const { RefCell::new(Vec::new()) };
}

/// Runs `f` with an empty scratch buffer popped from this thread's pool
/// (freshly allocated when the pool is empty), then parks the cleared
/// storage back. Re-entrant: the pool is not borrowed while `f` runs,
/// so a nested call (`put_list` sizes its first item while an outer
/// encode holds a buffer) pops the next buffer down.
pub fn with_buf<R>(f: impl FnOnce(&mut BytesMut) -> R) -> R {
    let mut buf = POOL.with(|p| p.borrow_mut().pop()).unwrap_or_default();
    let r = f(&mut buf);
    if buf.capacity() != 0 && buf.capacity() <= MAX_RETAINED_CAPACITY {
        POOL.with(|p| {
            let mut pool = p.borrow_mut();
            if pool.len() < MAX_POOLED {
                buf.clear();
                pool.push(buf);
            }
        });
    }
    r
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pooled_count() -> usize {
        POOL.with(|p| p.borrow().len())
    }

    #[test]
    fn buffers_are_reused() {
        POOL.with(|p| p.borrow_mut().clear());
        with_buf(|b| {
            b.reserve(128);
            b.extend_from_slice(b"warm");
        });
        assert_eq!(pooled_count(), 1);
        with_buf(|b| {
            assert!(b.is_empty(), "reused buffer comes back cleared");
            assert!(b.capacity() >= 128, "reused buffer keeps its capacity");
        });
    }

    #[test]
    fn nested_calls_get_distinct_buffers_and_both_return() {
        POOL.with(|p| p.borrow_mut().clear());
        with_buf(|outer| {
            outer.extend_from_slice(b"outer");
            with_buf(|inner| {
                assert!(inner.is_empty(), "inner buffer is its own, empty storage");
                inner.extend_from_slice(b"inner");
            });
            assert_eq!(&outer[..], b"outer", "inner encode left the outer bytes alone");
        });
        assert_eq!(pooled_count(), 2, "both buffers are parked");
        with_buf(|b| assert!(b.is_empty()));
    }

    #[test]
    fn pool_depth_is_bounded() {
        POOL.with(|p| p.borrow_mut().clear());
        fn nest(depth: usize) {
            if depth > 0 {
                with_buf(|b| {
                    b.extend_from_slice(b"x");
                    nest(depth - 1);
                });
            }
        }
        nest(2 * MAX_POOLED);
        assert_eq!(pooled_count(), MAX_POOLED);
    }

    #[test]
    fn oversized_buffers_are_not_retained() {
        POOL.with(|p| p.borrow_mut().clear());
        with_buf(|b| b.reserve(MAX_RETAINED_CAPACITY + 1));
        assert_eq!(pooled_count(), 0);
    }
}

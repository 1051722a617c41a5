//! A counting global allocator, gated by a flag.
//!
//! `netpkt.allocs_per_pkt` is an exact count of heap allocations made
//! while a fixed number of bursts run; the flag keeps set-up, reporting
//! and every other part of the run out of the count. With the flag off the
//! cost is one relaxed load per allocation.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

static COUNTING: AtomicBool = AtomicBool::new(false);
static ALLOCS: AtomicU64 = AtomicU64::new(0);

/// The system allocator plus an allocation counter.
pub struct CountingAlloc;

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counter is a statistic that
// publishes no other data, so relaxed ordering is enough.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if COUNTING.load(Ordering::Relaxed) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s requirements.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through this allocator with
        // this `layout`, as the caller guarantees.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if COUNTING.load(Ordering::Relaxed) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        // SAFETY: forwarded unchanged; see `dealloc`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// Counts the allocations (and reallocations) `f` makes, on every thread.
pub fn count_allocs<R>(f: impl FnOnce() -> R) -> (R, u64) {
    let before = ALLOCS.load(Ordering::Relaxed);
    COUNTING.store(true, Ordering::SeqCst);
    let r = f();
    COUNTING.store(false, Ordering::SeqCst);
    (r, ALLOCS.load(Ordering::Relaxed) - before)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_only_while_the_flag_is_on() {
        // The test binary installs the same global allocator as the
        // benchmark (see main.rs). Other tests allocate concurrently, so
        // the checks are one-sided where they have to be.
        let off_before = ALLOCS.load(Ordering::Relaxed);
        let v: Vec<u64> = Vec::with_capacity(32);
        drop(v);
        if !COUNTING.load(Ordering::Relaxed) {
            assert_eq!(
                ALLOCS.load(Ordering::Relaxed),
                off_before,
                "flag off: nothing is counted"
            );
        }
        let (_, n) = count_allocs(|| {
            let a: Vec<u64> = Vec::with_capacity(32);
            let b = Box::new(5u8);
            (a, b)
        });
        assert!(n >= 2, "flag on: both allocations counted, got {n}");
        assert!(!COUNTING.load(Ordering::Relaxed), "flag is off afterwards");
    }
}

//! A counting global allocator, for a test binary to install with
//! `#[global_allocator]`: the system allocator, plus counts of allocations
//! and reallocations and of the heap bytes live now and at their peak.
//!
//! The live-bytes peak is what the binary's own code held at once. Unlike
//! the process's resident high-water mark it does not move with what the
//! C allocator keeps after frees, or with the order of allocations.
//!
//! Included by the test binaries that count (`#[path]`), so its `unsafe`
//! sites exist once in the tree.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};

/// Allocations made, from the binary's start.
pub static ALLOCS: AtomicU64 = AtomicU64::new(0);
/// Reallocations made, from the binary's start.
pub static REALLOCS: AtomicU64 = AtomicU64::new(0);
/// Heap bytes allocated and not yet freed.
static LIVE: AtomicU64 = AtomicU64::new(0);
/// The most `LIVE` has been.
static PEAK: AtomicU64 = AtomicU64::new(0);

/// The system allocator, counting. Its counters are shared by every OS
/// thread of the binary (the test harness runs tests on several at once),
/// so they add with atomic read-modify-writes.
pub struct Counting;

impl Counting {
    fn grow(by: usize) {
        let live = LIVE.fetch_add(by as u64, Relaxed) + by as u64;
        PEAK.fetch_max(live, Relaxed);
    }

    fn shrink(by: usize) {
        LIVE.fetch_sub(by as u64, Relaxed);
    }
}

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Relaxed);
        let ptr = System.alloc(layout);
        if !ptr.is_null() {
            Counting::grow(layout.size());
        }
        ptr
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        Counting::shrink(layout.size());
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        REALLOCS.fetch_add(1, Relaxed);
        let moved = System.realloc(ptr, layout, new_size);
        if !moved.is_null() {
            Counting::shrink(layout.size());
            Counting::grow(new_size);
        }
        moved
    }
}

/// The most heap bytes the binary has held at once, in KiB.
pub fn live_peak_kib() -> u64 {
    PEAK.load(Relaxed) / 1024
}

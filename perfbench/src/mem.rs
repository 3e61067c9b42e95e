//! Heap use, counted by an allocator that only the `perfbench-heap`
//! binary installs.
//!
//! [`Counting`] passes every call to the system allocator and keeps the
//! net bytes allocated and their peak. A seeded episode allocates the
//! same sizes in the same order on every run, so its peak repeats
//! exactly, where the process's resident set moves with the allocator's
//! own caching from run to run. The timed runs happen in the
//! `perfbench` binary, which keeps the system allocator: counting costs
//! them nothing.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicIsize, Ordering};

pub struct Counting;

// Statistics only: no other data is published through these, so
// `Relaxed` suffices.
/// Bytes allocated minus bytes freed since the last [`count_peak`];
/// negative when the counted code frees memory allocated before.
static NET: AtomicIsize = AtomicIsize::new(0);
static PEAK: AtomicIsize = AtomicIsize::new(0);

fn grew(bytes: usize) {
    let now = NET.fetch_add(bytes as isize, Ordering::Relaxed) + bytes as isize;
    PEAK.fetch_max(now, Ordering::Relaxed);
}

fn shrank(bytes: usize) {
    NET.fetch_sub(bytes as isize, Ordering::Relaxed);
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counters are updated
// only after a successful allocation and never touch the memory.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller's `layout` obligations pass through as is.
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            grew(layout.size());
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: as for `alloc`.
        let p = unsafe { System.alloc_zeroed(layout) };
        if !p.is_null() {
            grew(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` was allocated by this allocator, hence by
        // `System`, with `layout`, as the caller guarantees.
        unsafe { System.dealloc(ptr, layout) };
        shrank(layout.size());
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: as for `dealloc`, and the caller guarantees `new_size`
        // is valid for `layout.align()`.
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() {
            shrank(layout.size());
            grew(new_size);
        }
        p
    }
}

/// Run `f` and return its result and the most heap bytes it held above
/// the level it started at. Counts only under [`Counting`] as the
/// global allocator, and only single-threaded: allocations of other
/// threads would be counted too.
pub fn count_peak<T>(f: impl FnOnce() -> T) -> (T, usize) {
    NET.store(0, Ordering::Relaxed);
    PEAK.store(0, Ordering::Relaxed);
    let out = f();
    (out, PEAK.load(Ordering::Relaxed) as usize)
}

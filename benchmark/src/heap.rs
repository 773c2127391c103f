//! Peak live heap, counted by a wrapper around the system allocator.
//!
//! The process's resident-set high-water mark (`VmHWM`) moves by several
//! MiB between identical runs of the multi-threaded workloads, depending
//! on which threads first touch which allocator arenas. The bytes the
//! program holds allocated at once do not, so the benchmark reports those.
//!
//! Counting every allocation in a shared atomic made the two-thread
//! workloads about 4% slower on a 2-vCPU Xeon VM. So each thread counts in
//! a plain thread-local and publishes to the shared total only once it
//! holds [`BATCH`] bytes either way. The peak is taken over published
//! totals, so it may miss up to [`BATCH`] bytes per running thread, and a
//! thread that exits drops its unpublished bytes (less than [`BATCH`]).

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicIsize, Ordering};

/// Net bytes a thread gathers before it publishes them.
const BATCH: isize = 4096;

/// Published bytes currently allocated.
static LIVE: AtomicIsize = AtomicIsize::new(0);
/// The most published bytes ever allocated at once.
static PEAK: AtomicIsize = AtomicIsize::new(0);

thread_local! {
    // A `Copy` value with a const initializer: no destructor to register
    // and no allocation on first use, so the allocator may touch it.
    static PENDING: Cell<isize> = const { Cell::new(0) };
}

fn publish(delta: isize) {
    // Statistics only, publishing no other data: `Relaxed` suffices.
    let now = LIVE.fetch_add(delta, Ordering::Relaxed) + delta;
    PEAK.fetch_max(now, Ordering::Relaxed);
}

/// Counts `delta` bytes allocated (or freed, when negative).
fn count(delta: isize) {
    let full = PENDING.try_with(|p| {
        let pending = p.get() + delta;
        if pending.abs() < BATCH {
            p.set(pending);
            0
        } else {
            p.set(0);
            pending
        }
    });
    match full {
        Ok(0) => {}
        Ok(pending) => publish(pending),
        // The thread's locals are gone: count directly.
        Err(_) => publish(delta),
    }
}

/// The system allocator, counting live bytes.
pub struct Counting;

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged, so `System`'s guarantees carry over; the counting touches
// only atomics and a const-initialized thread-local.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller upholds `alloc`'s contract for `layout`.
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            count(layout.size() as isize);
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: as for `alloc`.
        let p = unsafe { System.alloc_zeroed(layout) };
        if !p.is_null() {
            count(layout.size() as isize);
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller passes a block this allocator returned for
        // `layout`, which `System` allocated.
        unsafe { System.dealloc(ptr, layout) };
        count(-(layout.size() as isize));
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: as for `dealloc`, and the caller upholds `realloc`'s
        // contract for `new_size`.
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() {
            count(new_size as isize - layout.size() as isize);
        }
        p
    }
}

/// The most bytes the process had allocated at once, in MiB.
pub fn peak_mb() -> f64 {
    PEAK.load(Ordering::Relaxed) as f64 / (1024.0 * 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_large_allocation_raises_the_peak() {
        let block = std::hint::black_box(vec![1u8; 8 << 20]);
        assert!(peak_mb() >= 8.0, "peak {} MiB", peak_mb());
        drop(block);
    }
}

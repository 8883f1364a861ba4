//! Peak live heap bytes, counted by wrapping the system allocator.
//!
//! The benchmark reports each campaign's peak live heap (the median over a
//! run's campaigns) rather than the process's peak RSS (`VmHWM`): with two
//! scheduler workers (as the benchmark first ran), glibc hands each thread its own arena, and the RSS of
//! four identical `emi-default` runs on a two-core x86-64 machine ranged
//! from 26 to 46 MiB depending on which arena served which allocation
//! (23-24 MiB with `MALLOC_ARENA_MAX=1`).  The live-byte peak is the
//! program's own demand and does not depend on that.  The allocator itself
//! is unchanged: every call goes to `System`.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicIsize, Ordering};

/// The system allocator, counting live and peak bytes.
struct Counting;

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Live bytes, as flushed by every thread.
static LIVE: AtomicIsize = AtomicIsize::new(0);
/// The highest value `LIVE` reached.
static PEAK: AtomicIsize = AtomicIsize::new(0);

/// How far a thread's unflushed change may grow before it is added to
/// `LIVE`.  Batching keeps threads from contending on one counter at every
/// allocation; the peak is exact to within one batch per thread.
const BATCH: isize = 4 * 1024;

thread_local! {
    static PENDING: Cell<isize> = const { Cell::new(0) };
}

// The counters are statistics that publish no other data, so `Relaxed`
// suffices.
fn note(delta: isize) {
    let flush = PENDING
        .try_with(|pending| {
            let total = pending.get() + delta;
            if total.abs() < BATCH {
                pending.set(total);
                0
            } else {
                pending.set(0);
                total
            }
        })
        .unwrap_or(delta);
    if flush != 0 {
        let live = LIVE.fetch_add(flush, Ordering::Relaxed) + flush;
        if flush > 0 {
            PEAK.fetch_max(live, Ordering::Relaxed);
        }
    }
}

fn grow(bytes: usize) {
    note(bytes as isize);
}

fn shrink(bytes: usize) {
    note(-(bytes as isize));
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged, so `System`'s guarantees carry over; the counting only reads
// sizes from the layouts.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        let ptr = unsafe { System.alloc(layout) };
        if !ptr.is_null() {
            grow(layout.size());
        }
        ptr
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller upholds `GlobalAlloc::alloc_zeroed`'s contract.
        let ptr = unsafe { System.alloc_zeroed(layout) };
        if !ptr.is_null() {
            grow(layout.size());
        }
        ptr
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller upholds `GlobalAlloc::dealloc`'s contract.
        unsafe { System.dealloc(ptr, layout) };
        shrink(layout.size());
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: the caller upholds `GlobalAlloc::realloc`'s contract.
        let new = unsafe { System.realloc(ptr, layout, new_size) };
        if !new.is_null() {
            if new_size > layout.size() {
                grow(new_size - layout.size());
            } else {
                shrink(layout.size() - new_size);
            }
        }
        new
    }
}

/// Starts a new peak at the current live heap size.
pub fn reset_peak() {
    PEAK.store(LIVE.load(Ordering::Relaxed), Ordering::Relaxed);
}

/// The highest live heap size since the last `reset_peak`, in MiB.
pub fn peak_mb() -> f64 {
    PEAK.load(Ordering::Relaxed) as f64 / (1024.0 * 1024.0)
}

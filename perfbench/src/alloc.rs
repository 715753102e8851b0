//! Counting global allocator: allocations, requested bytes and peak live
//! bytes, read as snapshots around the spans the benchmark measures.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering::Relaxed};

/// Forwards to [`System`] and counts every allocation.
///
/// The counters are statistics only; `Relaxed` is enough because no
/// other data is published through them.
pub struct Counting;

static ALLOCS: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);
static LIVE: AtomicU64 = AtomicU64::new(0);
static PEAK: AtomicU64 = AtomicU64::new(0);
static PEAK_PAUSED: AtomicBool = AtomicBool::new(false);

fn grew(size: usize) {
    ALLOCS.fetch_add(1, Relaxed);
    BYTES.fetch_add(size as u64, Relaxed);
    let live = LIVE.fetch_add(size as u64, Relaxed) + size as u64;
    if !PEAK_PAUSED.load(Relaxed) {
        PEAK.fetch_max(live, Relaxed);
    }
}

fn shrank(size: usize) {
    LIVE.fetch_sub(size as u64, Relaxed);
}

// SAFETY: every method hands the caller's layout and pointer to `System`
// unchanged and returns its result unchanged, so `System`'s guarantees are
// the allocator's guarantees. The counters never affect the memory handed
// out.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            grew(layout.size());
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller upholds `GlobalAlloc::alloc_zeroed`'s contract.
        let p = unsafe { System.alloc_zeroed(layout) };
        if !p.is_null() {
            grew(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator (hence `System`) with `layout`.
        unsafe { System.dealloc(ptr, layout) };
        shrank(layout.size());
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: the caller upholds `GlobalAlloc::realloc`'s contract.
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() {
            shrank(layout.size());
            grew(new_size);
        }
        p
    }
}

/// Cumulative allocation counters at one instant.
#[derive(Debug, Clone, Copy, Default)]
pub struct Snapshot {
    /// Allocations (a `realloc` counts as one).
    pub allocs: u64,
    /// Bytes requested by those allocations.
    pub bytes: u64,
}

impl Snapshot {
    /// The sum of two spans' counters.
    pub fn plus(self, other: Snapshot) -> Snapshot {
        Snapshot { allocs: self.allocs + other.allocs, bytes: self.bytes + other.bytes }
    }

    /// Counters accumulated since `earlier`.
    pub fn since(self, earlier: Snapshot) -> Snapshot {
        Snapshot { allocs: self.allocs - earlier.allocs, bytes: self.bytes - earlier.bytes }
    }
}

/// The counters now.
pub fn snapshot() -> Snapshot {
    Snapshot { allocs: ALLOCS.load(Relaxed), bytes: BYTES.load(Relaxed) }
}

/// Runs `f` without letting its allocations raise the peak: for the
/// benchmark's own reference kernel, which frees all it allocates.
pub fn outside_peak<R>(f: impl FnOnce() -> R) -> R {
    PEAK_PAUSED.store(true, Relaxed);
    let r = f();
    PEAK_PAUSED.store(false, Relaxed);
    r
}

/// Highest live heap seen since the process started, in bytes.
pub fn peak_bytes() -> u64 {
    PEAK.load(Relaxed)
}

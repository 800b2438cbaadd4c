//! A counting wrapper around the system allocator.
//!
//! Installed as the global allocator of every binary that links this
//! crate. While the flag is off (the default, and the state during every
//! timed repetition) each call costs one relaxed load; while it is on the
//! wrapper counts calls, bytes requested and the high-water mark of live
//! bytes. Counting slows a run by roughly a quarter, which is why the
//! counts come from a pass of their own.

#![allow(unsafe_code)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, Ordering::Relaxed};

/// The allocator type; see the module docs.
pub struct Counting;

// All five are statistics that publish no other data, so `Relaxed` is
// enough; `idle_scale_s2` updates them from two shard threads.
static ON: AtomicBool = AtomicBool::new(false);
static ALLOCS: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);
static LIVE: AtomicI64 = AtomicI64::new(0);
static PEAK: AtomicI64 = AtomicI64::new(0);

fn note_alloc(size: usize) {
    ALLOCS.fetch_add(1, Relaxed);
    BYTES.fetch_add(size as u64, Relaxed);
    note_live(size as i64);
}

fn note_live(delta: i64) {
    let live = LIVE.fetch_add(delta, Relaxed) + delta;
    PEAK.fetch_max(live, Relaxed);
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the bookkeeping touches only atomics
// and never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller's obligations are passed through unchanged.
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() && ON.load(Relaxed) {
            note_alloc(layout.size());
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller's obligations are passed through unchanged.
        let p = unsafe { System.alloc_zeroed(layout) };
        if !p.is_null() && ON.load(Relaxed) {
            note_alloc(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller's obligations are passed through unchanged.
        unsafe { System.dealloc(ptr, layout) };
        if ON.load(Relaxed) {
            note_live(-(layout.size() as i64));
        }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: the caller's obligations are passed through unchanged.
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() && ON.load(Relaxed) {
            ALLOCS.fetch_add(1, Relaxed);
            BYTES.fetch_add(new_size as u64, Relaxed);
            note_live(new_size as i64 - layout.size() as i64);
        }
        p
    }
}

/// Counter readings; subtract two to get a region's cost.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Snapshot {
    /// Allocation calls (`alloc`, `alloc_zeroed`, `realloc`).
    pub allocs: u64,
    /// Bytes requested by those calls.
    pub bytes: u64,
    /// High-water mark of live bytes since [`start`]. Blocks that were
    /// allocated before counting began and freed during it lower the
    /// live figure, so it is a mark relative to the heap at `start`.
    pub peak_live: u64,
}

/// Zero the counters and switch counting on.
pub fn start() {
    ALLOCS.store(0, Relaxed);
    BYTES.store(0, Relaxed);
    LIVE.store(0, Relaxed);
    PEAK.store(0, Relaxed);
    ON.store(true, Relaxed);
}

/// Switch counting off; the counters keep their values.
pub fn stop() {
    ON.store(false, Relaxed);
}

/// Read the counters.
pub fn snapshot() -> Snapshot {
    Snapshot {
        allocs: ALLOCS.load(Relaxed),
        bytes: BYTES.load(Relaxed),
        peak_live: PEAK.load(Relaxed).max(0) as u64,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One test owns the flag: tests share the process-wide counters, so
    /// the off and on halves must not run concurrently with each other.
    /// Other tests may allocate at any time, hence `>=` while counting.
    #[test]
    fn flag_gates_counting() {
        // Counting is off by default.
        let before = snapshot();
        let v: Vec<u64> = Vec::with_capacity(1024);
        drop(std::hint::black_box(v));
        assert_eq!(snapshot(), before, "nothing is counted while off");

        start();
        let v: Vec<u8> = Vec::with_capacity(4096);
        let during = snapshot();
        drop(std::hint::black_box(v));
        stop();
        assert!(during.allocs >= 1);
        assert!(during.bytes >= 4096);
        assert!(during.peak_live >= 4096);

        let frozen = snapshot();
        drop(std::hint::black_box(Vec::<u8>::with_capacity(64)));
        assert_eq!(snapshot(), frozen, "stop() freezes the counters");
    }
}

//! Shared by the integration tests that make claims about the allocator
//! ("does not copy", "allocates once", "allocates nothing"): a counting
//! global allocator with a per-thread counter, so tests running in
//! parallel do not see each other. Including this module installs it for
//! the whole test binary.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct Counting;

thread_local! {
    /// `(allocations, allocations of at least BIG bytes)` on this thread.
    static ALLOCS: Cell<(usize, usize)> = const { Cell::new((0, 0)) };
    /// Bytes this thread allocated minus bytes it freed.
    static LIVE: Cell<isize> = const { Cell::new(0) };
}

/// Anything this large is an image-sized buffer, not bookkeeping.
const BIG: usize = 32 * 1024;

fn note(size: usize) {
    // `try_with`: the allocator also runs while a thread is torn down.
    let _ = ALLOCS.try_with(|c| {
        let (all, big) = c.get();
        c.set((all + 1, big + usize::from(size >= BIG)));
    });
    note_live(size as isize);
}

fn note_live(delta: isize) {
    let _ = LIVE.try_with(|c| c.set(c.get() + delta));
}

// SAFETY: every call is passed straight to `System`; the counters are
// plain thread-local `Cell`s that never allocate.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        unsafe { System.alloc(layout) }
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        unsafe { System.alloc_zeroed(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        note_live(-(layout.size() as isize));
        unsafe { System.dealloc(ptr, layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        note_live(-(layout.size() as isize));
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// `(allocations, big allocations)` made by `f` on this thread.
pub fn allocs_in<T>(f: impl FnOnce() -> T) -> (T, usize, usize) {
    let (all0, big0) = ALLOCS.with(Cell::get);
    let r = f();
    let (all1, big1) = ALLOCS.with(Cell::get);
    (r, all1 - all0, big1 - big0)
}

/// `(allocations, bytes still allocated)` that `f` leaves behind on this
/// thread: what it allocated and did not free, net of what it freed
/// that was allocated before.
#[allow(dead_code)] // each test binary uses its own subset of this module
pub fn live_bytes_in<T>(f: impl FnOnce() -> T) -> (T, usize, isize) {
    let live0 = LIVE.with(Cell::get);
    let (r, all, _) = allocs_in(f);
    (r, all, LIVE.with(Cell::get) - live0)
}

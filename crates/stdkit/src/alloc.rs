//! An allocation-counting global allocator for allocation-budget tests.
//!
//! [`CountingAlloc`] forwards every request to [`System`] and counts, per
//! thread, the calls that obtain memory (`alloc`, `alloc_zeroed`,
//! `realloc`); frees are not counted. A test binary installs it with
//!
//! ```ignore
//! #[global_allocator]
//! static ALLOC: jarvis_stdkit::alloc::CountingAlloc = jarvis_stdkit::alloc::CountingAlloc;
//! ```
//!
//! and reads [`allocations`] around the code under test. The counter is
//! thread-local, so concurrently running tests in the same binary do not
//! disturb each other's readings — and work a measured call hands to
//! another thread is not counted.
//!
//! It lives in the library rather than behind `cfg(test)` because a
//! dependency's `cfg(test)` items are invisible to other crates' tests;
//! only a binary that names it as its `#[global_allocator]` pays for it.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    // Const-initialised and drop-free, so reading it never allocates and
    // stays valid while the thread tears down.
    static COUNT: Cell<u64> = const { Cell::new(0) };
}

fn bump() {
    // `try_with` fails only after this thread's locals are destroyed;
    // allocations made then go uncounted.
    COUNT.try_with(|c| c.set(c.get() + 1)).unwrap_or(());
}

/// Memory-obtaining allocator calls made so far on the calling thread.
#[must_use]
pub fn allocations() -> u64 {
    COUNT.try_with(Cell::get).unwrap_or(0)
}

/// A [`GlobalAlloc`] over [`System`] that counts allocations per thread.
#[derive(Debug, Clone, Copy, Default)]
pub struct CountingAlloc;

// safety: every method forwards to `System` with the caller's own
// arguments, so `System` upholds the `GlobalAlloc` contract; the counter
// is a thread-local `Cell` that neither allocates nor unwinds.
unsafe impl GlobalAlloc for CountingAlloc {
    // safety: the caller upholds `alloc`'s contract (non-zero size); the
    // request goes to `System` unchanged.
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump();
        // safety: forwarded unchanged, under the caller's contract.
        unsafe { System.alloc(layout) }
    }

    // safety: as `alloc`; `System` zeroes the block.
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        bump();
        // safety: forwarded unchanged, under the caller's contract.
        unsafe { System.alloc_zeroed(layout) }
    }

    // safety: `ptr` was returned by this allocator for `layout`, i.e. by
    // `System`, which therefore owns it and frees it.
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // safety: `ptr` came from `System` with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    // safety: `ptr` was returned by this allocator (by `System`) for
    // `layout`; the caller upholds `realloc`'s size contract.
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump();
        // safety: `ptr` came from `System`; arguments are forwarded unchanged.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

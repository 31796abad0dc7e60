//! A counting global allocator for allocation-budget tests.
//!
//! A test binary installs it with its one `#[global_allocator]` line,
//!
//! ```text
//! #[global_allocator]
//! static ALLOC: testkit::alloc::CountingAllocator = testkit::alloc::CountingAllocator;
//! ```
//!
//! and compares [`allocations`] before and after the code it budgets.
//! Counting is **thread-scoped**: libtest keeps threads of its own alive
//! that allocate at unpredictable times (the slow-test watchdog in
//! particular), and tests of one binary run concurrently, so a
//! process-wide counter flakes. Each thread reads only its own tally,
//! which is exact for code that runs on the calling thread.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// [`System`], counting each `alloc` and `realloc` on the calling thread.
pub struct CountingAllocator;

thread_local! {
    // `const` init: plain static TLS, so bumping the counter inside the
    // allocator never itself allocates (lazy TLS init could).
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

/// Allocations and reallocations the calling thread has made so far.
pub fn allocations() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

fn count() {
    // try_with: a thread whose TLS is already torn down just skips.
    let _ = ALLOCATIONS.try_with(|c| c.set(c.get() + 1));
}

// SAFETY: every method forwards to `System` unchanged; counting touches
// only a `const`-initialised thread-local cell.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: the caller's `alloc` contract, passed through.
        unsafe { System.alloc(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through this allocator.
        unsafe { System.dealloc(ptr, layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        // SAFETY: the caller's `realloc` contract, passed through.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

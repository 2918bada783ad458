//! A counting global allocator for the allocation-discipline tests.
//!
//! Wraps [`System`], counts every allocating call (`alloc`, `alloc_zeroed`,
//! `realloc`) and remembers the largest single request; frees are not
//! counted. The type lives here in `tests/common` so any test binary can
//! install it, but registration via `#[global_allocator]` happens per binary
//! — only the one-test allocation binaries do, so the rest of the suite runs
//! on the plain system allocator.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

/// System allocator plus an atomic count of allocating calls and the
/// largest single request.
pub struct CountingAlloc {
    allocations: AtomicU64,
    largest: AtomicU64,
}

impl CountingAlloc {
    pub const fn new() -> Self {
        CountingAlloc {
            allocations: AtomicU64::new(0),
            largest: AtomicU64::new(0),
        }
    }

    /// Total allocating calls (alloc + alloc_zeroed + realloc) so far.
    pub fn allocations(&self) -> u64 {
        self.allocations.load(Ordering::Relaxed)
    }

    /// Bytes of the largest single request since the last
    /// [`reset_largest`](Self::reset_largest).
    pub fn largest(&self) -> u64 {
        self.largest.load(Ordering::Relaxed)
    }

    /// Start a new high-water mark for [`largest`](Self::largest).
    pub fn reset_largest(&self) {
        self.largest.store(0, Ordering::Relaxed);
    }

    fn count(&self, bytes: usize) {
        self.allocations.fetch_add(1, Ordering::Relaxed);
        self.largest.fetch_max(bytes as u64, Ordering::Relaxed);
    }
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        self.count(layout.size());
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        self.count(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        self.count(new_size);
        System.realloc(ptr, layout, new_size)
    }
}

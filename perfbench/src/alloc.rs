//! A std-only counting global allocator. Every allocation and
//! reallocation bumps a counter of the calling thread, so a
//! single-threaded span reads an exact, repeatable allocation count.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

/// Forwards to the system allocator and counts allocation events.
pub struct Counting;

fn bump() {
    // `try_with` fails only while the thread is torn down, outside any
    // span.
    let _ = ALLOCATIONS.try_with(|count| count.set(count.get() + 1));
}

/// Allocation events (`alloc`, `alloc_zeroed`, `realloc`) the calling
/// thread has made so far.
#[must_use]
pub fn allocations() -> u64 {
    ALLOCATIONS.try_with(Cell::get).unwrap_or(0)
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counter is a
// thread-local `Cell` without a destructor, so touching it never
// allocates or re-enters the allocator.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump();
        // SAFETY: the caller upholds `alloc`'s contract for `layout`.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        bump();
        // SAFETY: the caller upholds `alloc_zeroed`'s contract.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump();
        // SAFETY: `ptr` came from this allocator, which is `System`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator, which is `System`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_the_calling_threads_allocations_exactly() {
        let before = allocations();
        let vector: Vec<u64> = Vec::with_capacity(16);
        std::hint::black_box(&vector);
        let mut text = String::with_capacity(1);
        text.push_str("grows past one byte");
        std::hint::black_box(&text);
        assert_eq!(allocations() - before, 3, "two allocations and one reallocation");
    }
}

//! A counting global allocator for the traced run.
//!
//! Every allocation passes straight through to [`System`]. While the
//! counter is armed ([`arm`]), each allocation, zeroed allocation and
//! reallocation made *on the calling thread* also bumps that thread's
//! count and byte total. Counting per thread keeps the numbers exact:
//! a span reads its own thread's counters at its boundaries, so work on
//! other threads (the load generator's idle connections, a refresher)
//! never leaks into a layer's figure, and a single-threaded call over
//! the same input allocates the same way on every run.
//!
//! The untraced run never arms the counter, so its only cost there is
//! one relaxed atomic load per allocation.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicBool, Ordering};

/// The pass-through allocator installed as `#[global_allocator]`.
pub struct Counting;

static ARMED: AtomicBool = AtomicBool::new(false);

thread_local! {
    // Const-initialised and free of `Drop`, so touching it from inside
    // the allocator never allocates or registers a destructor.
    static COUNTS: Cell<AllocCount> = const { Cell::new(AllocCount { allocs: 0, bytes: 0 }) };
}

/// Allocations made on one thread since it started (while armed).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AllocCount {
    /// Allocation calls, reallocations included.
    pub allocs: u64,
    /// Bytes requested by those calls.
    pub bytes: u64,
}

impl AllocCount {
    /// Counts accumulated between `earlier` and `self`.
    #[must_use]
    pub fn since(self, earlier: Self) -> Self {
        Self {
            allocs: self.allocs - earlier.allocs,
            bytes: self.bytes - earlier.bytes,
        }
    }
}

/// Start or stop counting (process-wide switch, per-thread counters).
pub fn arm(on: bool) {
    ARMED.store(on, Ordering::SeqCst);
}

/// The calling thread's counters so far.
#[must_use]
pub fn snapshot() -> AllocCount {
    COUNTS.try_with(Cell::get).unwrap_or_default()
}

fn note(bytes: usize) {
    if ARMED.load(Ordering::Relaxed) {
        // `try_with` fails only while the thread's locals are being torn
        // down; such allocations are simply not counted.
        let _ = COUNTS.try_with(|c| {
            let now = c.get();
            c.set(AllocCount {
                allocs: now.allocs + 1,
                bytes: now.bytes + bytes as u64,
            });
        });
    }
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counting side effect
// touches only a const-initialised thread-local `Cell` and never
// allocates, so it cannot re-enter the allocator.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: the caller's obligations for `alloc` are passed on as-is.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: the caller's obligations for `alloc_zeroed` are passed on as-is.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` was returned by this allocator, i.e. by `System`,
        // with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        // SAFETY: `ptr` came from `System` with `layout`; the caller
        // guarantees `new_size` is valid for it.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn armed_counts_are_exact_and_per_thread() {
        arm(true);
        let before = snapshot();
        let v: Vec<u64> = Vec::with_capacity(16);
        let after = snapshot().since(before);
        drop(v);
        assert_eq!(after.allocs, 1);
        assert_eq!(after.bytes, 128);

        // Another thread's allocations never show in this thread's count.
        let before = snapshot();
        std::thread::scope(|s| {
            s.spawn(|| {
                let _v: Vec<u8> = vec![1; 1000];
            });
        });
        let spawned = snapshot().since(before);
        assert!(spawned.bytes < 1000, "{spawned:?}");
    }
}

//! A counting global allocator for the traced pass.
//!
//! Off (every untraced pass) it costs one relaxed load and a branch per
//! call on top of the system allocator; the measured effect on `host_s`
//! is in the README. On, it bumps thread-local, non-atomic counters: the
//! cooperative engine runs a whole simulation on the calling thread, so
//! that thread's counters are the run's.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicBool, Ordering};

static COUNTING: AtomicBool = AtomicBool::new(false);

thread_local! {
    // Const-initialised and without destructors, so touching them from
    // inside the allocator never allocates or re-enters it.
    static CALLS: Cell<u64> = const { Cell::new(0) };
    static BYTES: Cell<u64> = const { Cell::new(0) };
}

pub struct CountingAlloc;

#[inline]
fn count(bytes: usize) {
    if COUNTING.load(Ordering::Relaxed) {
        CALLS.with(|c| c.set(c.get() + 1));
        BYTES.with(|b| b.set(b.get() + bytes as u64));
    }
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged; the counters are plain thread-local integers that never
// allocate, so the `GlobalAlloc` contract is exactly `System`'s.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: forwarded unchanged; the caller upholds `alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: forwarded unchanged.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        // SAFETY: forwarded unchanged; `ptr` came from `System` through us.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: forwarded unchanged; `ptr` came from `System` through us.
        unsafe { System.dealloc(ptr, layout) }
    }
}

/// Allocation calls and bytes requested on this thread while counting.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AllocCount {
    pub calls: u64,
    pub bytes: u64,
}

/// Runs `f` with counting on and returns what this thread allocated.
pub fn counted<R>(f: impl FnOnce() -> R) -> (R, AllocCount) {
    let before = snapshot();
    COUNTING.store(true, Ordering::Relaxed);
    let out = f();
    COUNTING.store(false, Ordering::Relaxed);
    let after = snapshot();
    (
        out,
        AllocCount {
            calls: after.calls - before.calls,
            bytes: after.bytes - before.bytes,
        },
    )
}

fn snapshot() -> AllocCount {
    AllocCount {
        calls: CALLS.with(Cell::get),
        bytes: BYTES.with(Cell::get),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // One test only: the switch is process-wide, and a second test
    // flipping it concurrently would race this one.
    #[test]
    fn counts_only_while_switched_on() {
        let off = snapshot();
        drop(std::hint::black_box(vec![0u8; 4096]));
        assert_eq!(snapshot(), off, "off: nothing is counted");

        let (v, n) = counted(|| std::hint::black_box(vec![0u8; 1000]));
        assert_eq!(v.len(), 1000);
        assert_eq!(n.calls, 1);
        assert_eq!(n.bytes, 1000);

        let (_, grown) = counted(|| {
            let mut v = std::hint::black_box(Vec::<u8>::with_capacity(10));
            v.reserve_exact(100);
            v
        });
        assert_eq!(grown.calls, 2, "realloc is counted as a call");
        assert_eq!(grown.bytes, 110);
    }
}

//! Heap allocations per processed event on the request path, as a count.
//!
//! Host time cannot be gated in CI (the box drifts by a third within an
//! hour); allocation counts repeat exactly, so this is the guard that cannot
//! flake. The one test stays alone in this file: the counting allocator is
//! process-wide, and a second test thread would allocate into the count.

use ipipe_bench::scale::{run_rkv_scale, ScaleSpec};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

// Statistics only: no other data is published through these, so `Relaxed`.
static COUNTING: AtomicBool = AtomicBool::new(false);
static ALLOCS: AtomicU64 = AtomicU64::new(0);

struct CountingAlloc;

fn note() {
    if COUNTING.load(Ordering::Relaxed) {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
    }
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counter touches no allocator state.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note();
        // SAFETY: the caller's `layout` is passed through as received.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note();
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note();
        // SAFETY: `ptr` came from this allocator, which is `System` underneath,
        // with this `layout`; both are passed through as received.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: as for `realloc`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Build, deploy, run and drain the smoke-size planetary scenario: at most
/// 1.3 allocations per event. 1.88 before the DMO table stopped copying keys
/// through the heap at every skip-list hop (46,505 over 24,764 events), 1.09
/// after.
#[test]
fn rkv_scale_smoke_stays_within_its_allocation_budget() {
    COUNTING.store(true, Ordering::Relaxed);
    let (stats, _cluster) = run_rkv_scale(&ScaleSpec::smoke(7, 1));
    COUNTING.store(false, Ordering::Relaxed);
    let allocs = ALLOCS.load(Ordering::Relaxed);
    assert!(stats.events > 10_000, "{stats:?}");
    let per_event = allocs as f64 / stats.events as f64;
    assert!(
        per_event <= 1.3,
        "{allocs} allocations over {} events = {per_event:.2} per event",
        stats.events
    );
}

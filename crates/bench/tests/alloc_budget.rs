//! Heap allocations per processed event on the request path, as a count.
//!
//! Host time cannot be gated in CI (the box drifts by a third within an
//! hour); allocation counts repeat exactly, so this is the guard that cannot
//! flake. The one test stays alone in this file: the counting allocator is
//! process-wide, and a second test thread would allocate into the count.

use ipipe_bench::scale::{run_rkv_scale, ScaleSpec};
use ipipe_bench::sharded::{build_grid, GridSpec};
use ipipe_sim::SimTime;
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

/// Run `f` with the counter on; the allocations it made.
fn allocations_in<T>(f: impl FnOnce() -> T) -> (u64, T) {
    let before = ALLOCS.load(Ordering::Relaxed);
    COUNTING.store(true, Ordering::Relaxed);
    let out = f();
    COUNTING.store(false, Ordering::Relaxed);
    (ALLOCS.load(Ordering::Relaxed) - before, out)
}

/// Build, deploy, run and drain the smoke-size planetary scenario: at most
/// 0.95 allocations per event. 1.88 before the DMO table stopped copying keys
/// through the heap at every skip-list hop (46,505 over 24,764 events), 1.09
/// after, 1.07 (26,473) with events and pooled frames in slabs — 17 more
/// allocations than the commit before: a run this short grows the slabs and
/// their free lists and ends before a slot vector would have regrown. 0.958
/// (21,864 over 22,812) with one retransmission timer per client, 0.939
/// (21,417) once the event queue became one heap instead of a timing wheel's
/// 512 slot vectors.
///
/// Then 5 ms of the smoke-size `pod` on two shards, the epoch engine alone
/// (`run_for` only): at most 0.22 per event. 0.51 (4,495 over 8,780 events)
/// while every epoch took the outbox's buffer away and collected a fresh
/// per-shard vector, 0.27 (2,377) since, 0.210 (1,843) with the one-heap
/// event queue. What is left is mostly one emit `Vec` per actor execution;
/// recycling it read 0.077 per event on `pod-par2` and bought no host time,
/// so it is not done.
#[test]
fn smoke_runs_stay_within_their_allocation_budgets() {
    let (allocs, (stats, _cluster)) = allocations_in(|| run_rkv_scale(&ScaleSpec::smoke(7, 1)));
    assert!(stats.events > 10_000, "{stats:?}");
    let per_event = allocs as f64 / stats.events as f64;
    assert!(
        per_event <= 0.95,
        "{allocs} allocations over {} events = {per_event:.3} per event",
        stats.events
    );

    let mut pod = build_grid(&GridSpec::fig16(7, 2, false));
    let (allocs, ()) = allocations_in(|| pod.run_for(SimTime::from_ms(5)));
    let events = pod.epoch_stats().events;
    assert!(events > 5_000, "{events} events");
    let per_event = allocs as f64 / events as f64;
    assert!(
        per_event <= 0.22,
        "{allocs} allocations over {events} events = {per_event:.3} per event"
    );
}

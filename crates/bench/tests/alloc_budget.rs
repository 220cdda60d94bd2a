//! Heap allocations per processed event on the request path, as a count,
//! and the bytes a cluster requests while it builds and deploys.
//!
//! Host time cannot be gated in CI (the box drifts by a third within an
//! hour); allocation counts repeat exactly, so this is the guard that cannot
//! flake. The one test stays alone in this file: the counting allocator is
//! process-wide, and a second test thread would allocate into the count.

use ipipe_bench::scale::{build_keyspace_cluster, deploy_keyspace, run_rkv_scale, ScaleSpec};
use ipipe_bench::sharded::{build_grid, GridSpec};
use ipipe_sim::SimTime;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

// Statistics only: no other data is published through these, so `Relaxed`.
static COUNTING: AtomicBool = AtomicBool::new(false);
static ALLOCS: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);

struct CountingAlloc;

/// One allocation of `bytes` (a `realloc` counts its new size).
fn note(bytes: usize) {
    if COUNTING.load(Ordering::Relaxed) {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        BYTES.fetch_add(bytes as u64, Ordering::Relaxed);
    }
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counter touches no allocator state.
// The workspace denies `unsafe_code`; a global allocator cannot be written
// without it, so this impl is the one place that allows it.
#[allow(unsafe_code)]
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: the caller's `layout` is passed through as received.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
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

/// Run `f` with the counters on; the allocations it made and the bytes they
/// requested.
fn allocations_in<T>(f: impl FnOnce() -> T) -> (u64, u64, T) {
    let (allocs, bytes) = (
        ALLOCS.load(Ordering::Relaxed),
        BYTES.load(Ordering::Relaxed),
    );
    COUNTING.store(true, Ordering::Relaxed);
    let out = f();
    COUNTING.store(false, Ordering::Relaxed);
    (
        ALLOCS.load(Ordering::Relaxed) - allocs,
        BYTES.load(Ordering::Relaxed) - bytes,
        out,
    )
}

/// Build and deploy the smoke-size planetary scenario: at most 320 KiB
/// requested. 13,304,096 bytes while every DMO object was zero-filled at
/// `malloc`, 12 MiB of it the 48 replicas' never-read 256 KiB log windows;
/// 721,184 since an object's bytes wait for its first access; 279,248 since
/// a latency histogram holds only the octaves its samples touched, not a
/// 16 KiB array from registration.
///
/// Build, deploy, run and drain the same scenario: at most
/// 0.95 allocations per event. 1.88 before the DMO table stopped copying keys
/// through the heap at every skip-list hop (46,505 over 24,764 events), 1.09
/// after, 1.07 (26,473) with events and pooled frames in slabs — 17 more
/// allocations than the commit before: a run this short grows the slabs and
/// their free lists and ends before a slot vector would have regrown. 0.958
/// (21,864 over 22,812) with one retransmission timer per client, 0.939
/// (21,417) once the event queue became one heap instead of a timing wheel's
/// 512 slot vectors. 0.9375 (21,386) with windowed histograms against 21,363
/// at the commit before: a histogram now allocates at its first sample, and
/// again each time its samples reach a new octave.
///
/// Then 5 ms of the smoke-size `pod` on two shards, the epoch engine alone
/// (`run_for` only): at most 0.22 per event. 0.51 (4,495 over 8,780 events)
/// while every epoch took the outbox's buffer away and collected a fresh
/// per-shard vector, 0.27 (2,377) since, 0.210 (1,843) with the one-heap
/// event queue, 0.216 (1,900) with windowed histograms: their first octave
/// is allocated while the run records, not while the grid builds. What is
/// left is mostly one emit `Vec` per actor execution; recycling it read 0.077
/// per event on `pod-par2` and bought no host time, so it is not done.
#[test]
fn smoke_runs_stay_within_their_allocation_budgets() {
    let spec = ScaleSpec::smoke(7, 1);
    let (_, bytes, _deployed) = allocations_in(|| {
        let mut c = build_keyspace_cluster(&spec);
        let dep = deploy_keyspace(&mut c, &spec);
        (c, dep)
    });
    assert!(
        bytes <= 320 << 10,
        "building and deploying requested {bytes} bytes"
    );

    let (allocs, _, (stats, _cluster)) = allocations_in(|| run_rkv_scale(&spec));
    assert!(stats.events > 10_000, "{stats:?}");
    let per_event = allocs as f64 / stats.events as f64;
    assert!(
        per_event <= 0.95,
        "{allocs} allocations over {} events = {per_event:.3} per event",
        stats.events
    );

    let mut pod = build_grid(&GridSpec::fig16(7, 2));
    let (allocs, _, ()) = allocations_in(|| pod.run_for(SimTime::from_ms(5)));
    let events = pod.epoch_stats().events;
    assert!(events > 5_000, "{events} events");
    let per_event = allocs as f64 / events as f64;
    assert!(
        per_event <= 0.22,
        "{allocs} allocations over {events} events = {per_event:.3} per event"
    );
}

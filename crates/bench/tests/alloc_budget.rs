//! Heap allocations per processed event on the request path, as a count,
//! the bytes a cluster requests while it builds and deploys, and the most
//! bytes a run holds live at once.
//!
//! Host time cannot be gated in CI (the box drifts by a third within an
//! hour); allocation counts repeat exactly, so this is the guard that cannot
//! flake. The one test stays alone in this file: the counting allocator is
//! process-wide, and a second test thread would allocate into the count.

use ipipe_bench::scale::{build_keyspace_cluster, deploy_keyspace, run_rkv_scale, ScaleSpec};
use ipipe_bench::sharded::{build_grid, GridSpec};
use ipipe_sim::SimTime;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, Ordering};

// Statistics only: no other data is published through these, so `Relaxed`.
static COUNTING: AtomicBool = AtomicBool::new(false);
static ALLOCS: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);
/// Bytes allocated minus bytes freed since counting began (negative when
/// the counted code frees more than it allocated), and its high-water mark.
static LIVE: AtomicI64 = AtomicI64::new(0);
static PEAK: AtomicI64 = AtomicI64::new(0);

struct CountingAlloc;

/// One allocation of `bytes` (a `realloc` counts its new size).
fn note(bytes: usize) {
    if COUNTING.load(Ordering::Relaxed) {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        BYTES.fetch_add(bytes as u64, Ordering::Relaxed);
    }
}

/// Live bytes move by `grown - freed`.
fn live(grown: usize, freed: usize) {
    if COUNTING.load(Ordering::Relaxed) {
        let delta = grown as i64 - freed as i64;
        let now = LIVE.fetch_add(delta, Ordering::Relaxed) + delta;
        PEAK.fetch_max(now, Ordering::Relaxed);
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
        live(layout.size(), 0);
        // SAFETY: the caller's `layout` is passed through as received.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        live(layout.size(), 0);
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        live(new_size, layout.size());
        // SAFETY: `ptr` came from this allocator, which is `System` underneath,
        // with this `layout`; both are passed through as received.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        live(0, layout.size());
        // SAFETY: as for `realloc`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// What one counted stretch of code did to the heap.
struct Counted<T> {
    /// Allocations made (a `realloc` is one).
    allocs: u64,
    /// Bytes those allocations requested.
    bytes: u64,
    /// The most bytes the stretch held live at once, counted from zero at
    /// its start: what it allocated and had not freed yet.
    peak_live: i64,
    out: T,
}

/// Run `f` with the counters on.
fn allocations_in<T>(f: impl FnOnce() -> T) -> Counted<T> {
    let (allocs, bytes) = (
        ALLOCS.load(Ordering::Relaxed),
        BYTES.load(Ordering::Relaxed),
    );
    LIVE.store(0, Ordering::Relaxed);
    PEAK.store(0, Ordering::Relaxed);
    COUNTING.store(true, Ordering::Relaxed);
    let out = f();
    COUNTING.store(false, Ordering::Relaxed);
    Counted {
        allocs: ALLOCS.load(Ordering::Relaxed) - allocs,
        bytes: BYTES.load(Ordering::Relaxed) - bytes,
        peak_live: PEAK.load(Ordering::Relaxed),
        out,
    }
}

/// The most heap the smoke planetary run may hold live at once, counted
/// from the run's start (build included): 408 KiB. 427,090 bytes while a
/// completed request's retry deadline stayed queued until the client's timer
/// reached it and a skip-list node held all 128 bytes of its tower; 403,810
/// since a request that ends drops the ended deadlines at the head and a DMO
/// holds only the prefix its accesses reached; 399,962 since a retry
/// deadline is a field of its in-flight request and leaves with it.
const PEAK_LIVE_BUDGET: i64 = 408 << 10;

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
/// 0.929 (21,195) against 0.927 (21,149) at the commit before, once a DMO
/// object's bytes grow with the prefix its accesses reach: an object whose
/// accesses reach further in steps (a skip list's head among them)
/// allocates once per doubling.
///
/// The same run must hold at most [`PEAK_LIVE_BUDGET`] bytes live.
///
/// Then 5 ms of the smoke-size `pod` on two shards, the epoch engine alone
/// (`run_for` only): at most 0.22 per event. 0.51 (4,495 over 8,780 events)
/// while every epoch took the outbox's buffer away and collected a fresh
/// per-shard vector, 0.27 (2,377) since, 0.210 (1,843) with the one-heap
/// event queue, 0.216 (1,900) with windowed histograms: their first octave
/// is allocated while the run records, not while the grid builds. 0.215
/// (1,890) once every frame goes straight into its destination shard's
/// pool and the shards share one copy of the testbed. What is
/// left is mostly one emit `Vec` per actor execution; recycling it read 0.077
/// per event on `pod-par2` and bought no host time, so it is not done.
#[test]
fn smoke_runs_stay_within_their_allocation_budgets() {
    let spec = ScaleSpec::smoke(7, 1);
    let Counted {
        bytes,
        out: _deployed,
        ..
    } = allocations_in(|| {
        let mut c = build_keyspace_cluster(&spec);
        let dep = deploy_keyspace(&mut c, &spec);
        (c, dep)
    });
    assert!(
        bytes <= 320 << 10,
        "building and deploying requested {bytes} bytes"
    );

    let run = allocations_in(|| run_rkv_scale(&spec));
    let (allocs, (stats, _cluster)) = (run.allocs, run.out);
    assert!(stats.events > 10_000, "{stats:?}");
    let per_event = allocs as f64 / stats.events as f64;
    assert!(
        per_event <= 0.95,
        "{allocs} allocations over {} events = {per_event:.3} per event",
        stats.events
    );
    let peak = run.peak_live;
    assert!(
        peak <= PEAK_LIVE_BUDGET,
        "the run held {peak} bytes live at its peak"
    );

    let mut pod = build_grid(&GridSpec::fig16(7, 2));
    let Counted { allocs, .. } = allocations_in(|| pod.run_for(SimTime::from_ms(5)));
    let events = pod.epoch_stats().events;
    assert!(events > 5_000, "{events} events");
    let per_event = allocs as f64 / events as f64;
    assert!(
        per_event <= 0.22,
        "{allocs} allocations over {events} events = {per_event:.3} per event"
    );
}

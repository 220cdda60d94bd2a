//! The discrete-event queue.
//!
//! [`EventQueue`] is a binary min-heap of small keys, `(at, seq, body)`, over
//! a slab that holds the events themselves. `seq` is the global schedule
//! counter, so the order `(at, seq)` is total: two events for the same
//! instant fire in the order they were scheduled, nothing depends on how the
//! heap happens to be laid out, and a simulation replays bit for bit from its
//! seed. Events are served in same-instant batches by one rule: a batch is
//! its instant and the schedule counter when it formed, and the head of the
//! heap belongs to it while the head is at that instant with a smaller `seq`.
//! [`EventQueue::pop_ready`] pops only such a head, and
//! [`EventQueue::next_batch`] forms a new batch, advancing `now`, only when
//! the head is outside the current one, so an event scheduled at the batch's
//! own instant while it is served waits for a follow-up batch.
//! `tests/queue_ref.rs` checks all of this against an ordered-map reference
//! under arbitrary interleavings.

use crate::time::SimTime;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// What the heap orders: a timestamp, the global schedule counter and the
/// slab index of the event's body. The derived order is `(at, seq)` — `seq`
/// is unique, so `body` never decides.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct Entry {
    at: u64,
    seq: u64,
    body: u32,
}

/// Where the values wait while their keys are ordered: a vector of slots and
/// a LIFO free list, so a steady state reuses the slots it has (and the most
/// recently vacated, likeliest cached, first). A vacated slot is `None`: a
/// stale index panics instead of serving another entry's value.
#[derive(Debug)]
struct Slab<T> {
    slots: Vec<Option<T>>,
    free: Vec<u32>,
}

impl<T> Slab<T> {
    fn new() -> Self {
        Slab {
            slots: Vec::new(),
            free: Vec::new(),
        }
    }

    fn insert(&mut self, value: T) -> u32 {
        if let Some(i) = self.free.pop() {
            self.slots[i as usize] = Some(value);
            return i;
        }
        let i = u32::try_from(self.slots.len()).expect("more than 2^32 pending events");
        self.slots.push(Some(value));
        i
    }

    /// The index is freed before the value is read so that nothing that can
    /// call out (the free list growing) sits between the read and the
    /// caller's write: the value moves once, slot to destination.
    fn take(&mut self, i: u32) -> T {
        self.free.push(i);
        self.slots[i as usize].take().expect("live body")
    }

    fn get(&self, i: u32) -> &T {
        self.slots[i as usize].as_ref().expect("live body")
    }
}

/// A deterministic future-event list: a binary heap of keys over a slab of
/// events (see the module docs for the batch rule and determinism argument).
///
/// `now` advances monotonically as events are popped. Scheduling an event in
/// the past is a logic error and panics — silent time travel corrupts
/// statistics in ways that are extremely painful to debug.
pub struct EventQueue<E> {
    /// The key of every pending event, the smallest `(at, seq)` on top.
    heap: BinaryHeap<Reverse<Entry>>,
    /// Every pending event, at the index its [`Entry::body`] names.
    bodies: Slab<E>,
    /// The batch being served: its instant, and `seq` when it formed.
    batch: (u64, u64),
    seq: u64,
    now: u64,
    popped: u64,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// An empty queue at time zero.
    pub fn new() -> Self {
        EventQueue {
            heap: BinaryHeap::new(),
            bodies: Slab::new(),
            batch: (0, 0),
            seq: 0,
            now: 0,
            popped: 0,
        }
    }

    /// Current simulated time (the timestamp of the last popped event).
    pub fn now(&self) -> SimTime {
        SimTime::from_ns(self.now)
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// True when no events remain.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Total number of events fired so far.
    pub fn fired(&self) -> u64 {
        self.popped
    }

    /// Schedule `event` at absolute time `at`.
    ///
    /// # Panics
    /// Panics if `at` is before [`EventQueue::now`].
    pub fn schedule_at(&mut self, at: SimTime, event: E) {
        assert!(
            at.as_ns() >= self.now,
            "scheduled event in the past: at={at} now={}",
            SimTime::from_ns(self.now)
        );
        let seq = self.seq;
        self.seq += 1;
        let body = self.bodies.insert(event);
        self.heap.push(Reverse(Entry {
            at: at.as_ns(),
            seq,
            body,
        }));
    }

    /// Schedule `event` after a delay relative to `now`.
    pub fn schedule_after(&mut self, delay: SimTime, event: E) {
        self.schedule_at(SimTime::from_ns(self.now) + delay, event);
    }

    /// Timestamp of the next pending event, if any: the top of the heap.
    pub fn peek_time(&self) -> Option<SimTime> {
        self.heap.peek().map(|head| SimTime::from_ns(head.0.at))
    }

    /// Advance `now` to `t` without firing anything. A no-op when `t` is not
    /// ahead of `now`. Panics if an event is pending before `t` (that event
    /// must be popped first).
    pub fn advance_to(&mut self, t: SimTime) {
        if t.as_ns() <= self.now {
            return;
        }
        if let Some(at) = self.peek_time() {
            assert!(at >= t, "advance_to({t}) would skip event at {at}");
        }
        self.now = t.as_ns();
    }

    /// True when the head of the heap belongs to the batch being served.
    #[inline]
    fn head_in_batch(&self) -> bool {
        let (at, formed) = self.batch;
        self.heap
            .peek()
            .is_some_and(|head| head.0.at == at && head.0.seq < formed)
    }

    /// Make the next same-instant batch current, advancing `now` to its
    /// timestamp, and return that timestamp (`None` when nothing is
    /// pending). While a batch is still being served this is a no-op that
    /// returns the batch's timestamp.
    ///
    /// A caller dispatching simultaneous events (a common pattern in
    /// packet-level simulations) forms one batch per distinct timestamp
    /// rather than one per event. Events scheduled at the batch's own
    /// instant while it is served wait for the next call.
    pub fn next_batch(&mut self) -> Option<SimTime> {
        if !self.head_in_batch() {
            let at = self.heap.peek()?.0.at;
            self.batch = (at, self.seq);
            self.now = at;
        }
        Some(SimTime::from_ns(self.batch.0))
    }

    /// Take the next event of the current batch, in FIFO order, straight
    /// from the slab. `None` once the batch is exhausted: this never starts
    /// a new batch, [`EventQueue::next_batch`] does.
    #[inline]
    pub fn pop_ready(&mut self) -> Option<E> {
        if !self.head_in_batch() {
            return None;
        }
        let Reverse(head) = self.heap.pop().expect("the head is in the batch");
        self.popped += 1;
        Some(self.bodies.take(head.body))
    }

    /// Pop the next event, advancing `now` to its timestamp.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        let at = self.next_batch()?;
        let event = self.pop_ready().expect("a current batch is never empty");
        Some((at, event))
    }

    /// Pop the rest of the current batch, or **every** event of the next
    /// one, into `out` (cleared first, refilled in FIFO order). Returns the
    /// batch's timestamp, or `None` when the queue is empty.
    pub fn pop_batch(&mut self, out: &mut Vec<E>) -> Option<SimTime> {
        out.clear();
        let at = self.next_batch()?;
        out.extend(std::iter::from_fn(|| self.pop_ready()));
        Some(at)
    }

    /// Run the event loop until the queue drains or `end` is passed, invoking
    /// `f(queue, state, time, event)` for each event. Events with timestamps
    /// strictly after `end` are left in the queue (and `now` stops at `end`).
    pub fn run_until<S>(
        &mut self,
        state: &mut S,
        end: SimTime,
        mut f: impl FnMut(&mut Self, &mut S, SimTime, E),
    ) {
        while let Some(at) = self.peek_time() {
            if at > end {
                self.now = self.now.max(end.as_ns());
                return;
            }
            let (t, e) = self.pop().expect("peeked entry must pop");
            f(self, state, t, e);
        }
        if self.now < end.as_ns() {
            self.now = end.as_ns();
        }
    }

    /// Visit every pending `(time, event)` without moving anything. The
    /// order is the heap's storage order, not firing order — callers tally,
    /// they do not replay. Taking `&self`, a visit cannot reorder or
    /// renumber events.
    pub fn for_each_pending(&self, mut f: impl FnMut(SimTime, &E)) {
        for Reverse(entry) in &self.heap {
            f(SimTime::from_ns(entry.at), self.bodies.get(entry.body));
        }
    }
}

/// A deterministic merge buffer: a min-heap of totally ordered keys, each
/// carrying a value that takes no part in the order.
///
/// The sharded cluster runtime parks in-flight cross-shard arrivals here,
/// keyed by a total order (arrival time, destination, source, per-source
/// sequence) so that draining the pool at each simulated instant resolves
/// arrivals identically for every shard count. The heap sifts `(key, index)`
/// pairs; the values wait in a slab, as [`EventQueue`]'s events do. The
/// determinism comes from `K`'s `Ord` being total over all keys ever
/// co-resident (give every key a unique tiebreak sequence).
#[derive(Debug)]
pub struct MergePool<K: Ord + Copy, V> {
    heap: BinaryHeap<Reverse<(K, u32)>>,
    values: Slab<V>,
}

impl<K: Ord + Copy, V> Default for MergePool<K, V> {
    fn default() -> Self {
        MergePool::new()
    }
}

impl<K: Ord + Copy, V> MergePool<K, V> {
    /// An empty pool.
    pub fn new() -> Self {
        MergePool {
            heap: BinaryHeap::new(),
            values: Slab::new(),
        }
    }

    /// Park `value` under `key`.
    #[inline]
    pub fn push(&mut self, key: K, value: V) {
        let i = self.values.insert(value);
        self.heap.push(Reverse((key, i)));
    }

    /// The smallest key, if any.
    #[inline]
    pub fn peek(&self) -> Option<&K> {
        self.heap.peek().map(|Reverse((key, _))| key)
    }

    /// Remove and return the smallest key and its value.
    #[inline]
    pub fn pop(&mut self) -> Option<(K, V)> {
        let Reverse((key, i)) = self.heap.pop()?;
        Some((key, self.values.take(i)))
    }

    /// Number of parked entries.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// True when nothing is parked.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }
}

/// Work/span accounting for an epoch-synchronized sharded run.
///
/// Each lockstep epoch processes some events on every shard; the *critical
/// path* of the run is the sum over epochs of the busiest shard's event
/// count — the events a perfectly parallel machine would still have to
/// execute serially. `speedup()` = total events / critical path is the
/// upper bound on wall-clock speedup the sharding exposes, independent of
/// how many cores the host actually has.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EpochStats {
    /// Lockstep epochs executed.
    pub epochs: u64,
    /// Events processed across all shards.
    pub events: u64,
    /// Sum over epochs of the busiest shard's event count.
    pub critical_path: u64,
}

impl EpochStats {
    /// Record one epoch given each shard's processed-event delta.
    pub fn note(&mut self, per_shard: impl IntoIterator<Item = u64>) {
        let (mut total, mut busiest) = (0, 0);
        for delta in per_shard {
            total += delta;
            busiest = busiest.max(delta);
        }
        if total == 0 {
            return;
        }
        self.epochs += 1;
        self.events += total;
        self.critical_path += busiest;
    }

    /// Ideal speedup exposed by the sharding: total work over critical
    /// path (1.0 when serial or empty).
    pub fn speedup(&self) -> f64 {
        if self.critical_path == 0 {
            return 1.0;
        }
        self.events as f64 / self.critical_path as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule_at(SimTime::from_us(30), "c");
        q.schedule_at(SimTime::from_us(10), "a");
        q.schedule_at(SimTime::from_us(20), "b");
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
        assert_eq!(order, vec!["a", "b", "c"]);
        assert_eq!(q.now(), SimTime::from_us(30));
        assert_eq!(q.fired(), 3);
    }

    #[test]
    fn merge_pool_drains_in_total_order() {
        let mut p: MergePool<(u64, u16, u64), (u64, u16, u64)> = MergePool::new();
        assert!(p.is_empty());
        // Push in scrambled order; drain must be ascending by the full key.
        for e in [(5, 1, 0), (3, 0, 2), (3, 0, 1), (3, 1, 0), (9, 0, 0)] {
            p.push(e, e);
        }
        assert_eq!(p.len(), 5);
        assert_eq!(p.peek(), Some(&(3, 0, 1)));
        let drained: Vec<_> = std::iter::from_fn(|| p.pop()).collect();
        let order = [(3, 0, 1), (3, 0, 2), (3, 1, 0), (5, 1, 0), (9, 0, 0)];
        assert_eq!(drained, order.map(|e| (e, e)));
        assert!(p.is_empty());
    }

    /// The queue and the pool order small keys, whatever they carry: the
    /// pool's element is measured with the runtime's key, `(port_ready, dst,
    /// src, seq)`.
    #[test]
    fn ordered_elements_stay_small() {
        use std::mem::size_of;
        assert_eq!(size_of::<Entry>(), 24);
        assert!(size_of::<Reverse<((SimTime, u16, u16, u64), u32)>>() <= 32);
    }

    /// The slab reuses vacated slots: a million events through a queue that
    /// never holds more than a thousand leave a thousand body slots, and the
    /// heap grows no further than what a thousand keys need.
    #[test]
    fn slab_and_slots_stay_bounded_over_a_million_cycles() {
        const PENDING: u64 = 1_000;
        let mut q = EventQueue::new();
        let mut rng = 0x9E37_79B9_7F4A_7C15u64;
        for i in 0..PENDING {
            q.schedule_at(SimTime::from_ns(i * 37), i);
        }
        for i in PENDING..1_000_000 {
            let (t, _) = q.pop().expect("a thousand pending");
            // xorshift delays from 0 ns to ~1 ms.
            rng ^= rng << 13;
            rng ^= rng >> 7;
            rng ^= rng << 17;
            q.schedule_at(t + SimTime::from_ns(rng % (1 << (rng % 21))), i);
            assert!(q.len() as u64 <= PENDING);
        }
        assert!(q.bodies.slots.len() as u64 <= PENDING);
        assert!(q.bodies.free.capacity() as u64 <= 2 * PENDING);
        assert!(q.heap.capacity() as u64 <= 2 * PENDING);
    }

    #[test]
    #[should_panic(expected = "live body")]
    fn a_stale_body_index_panics() {
        let mut slab = Slab::new();
        let i = slab.insert("event");
        assert_eq!(slab.take(i), "event");
        slab.get(i);
    }

    /// The queue owns an event from `schedule_at` until it hands it out:
    /// a popped event is the caller's to drop, once; an event still pending
    /// when the queue goes is dropped with it, once.
    #[test]
    fn every_event_is_dropped_exactly_once() {
        use std::cell::Cell;
        use std::rc::Rc;
        struct Counted(Rc<Cell<u32>>);
        impl Drop for Counted {
            fn drop(&mut self) {
                self.0.set(self.0.get() + 1);
            }
        }
        let drops = Rc::new(Cell::new(0));
        let mut q = EventQueue::new();
        for at in [5, 5, 5, 70, 5_000, 1 << 50] {
            q.schedule_at(SimTime::from_ns(at), Counted(drops.clone()));
        }
        let popped = q.pop().expect("six pending");
        assert_eq!(drops.get(), 0, "the caller holds the popped event");
        drop(popped);
        assert_eq!(drops.get(), 1);
        let mut batch = Vec::new();
        q.pop_batch(&mut batch); // the other two at 5 ns
        assert_eq!((batch.len(), drops.get()), (2, 1));
        batch.clear();
        assert_eq!(drops.get(), 3);
        q.schedule_at(SimTime::from_ns(70), Counted(drops.clone())); // a reused slot
        assert_eq!(q.len(), 4); // the batch at 5 ns is served; later ones are not
        drop(q);
        assert_eq!(drops.get(), 7);
    }

    #[test]
    fn epoch_stats_track_work_and_span() {
        let mut s = EpochStats::default();
        assert_eq!(s.speedup(), 1.0);
        s.note([10, 30, 20, 0]); // busiest shard: 30
        s.note([0, 0, 0, 0]); // empty epochs don't count
        s.note([25, 25, 25, 25]); // busiest shard: 25
        assert_eq!(s.epochs, 2);
        assert_eq!(s.events, 160);
        assert_eq!(s.critical_path, 55);
        assert!((s.speedup() - 160.0 / 55.0).abs() < 1e-12);
    }

    #[test]
    fn fifo_among_simultaneous_events() {
        let mut q = EventQueue::new();
        for i in 0..100 {
            q.schedule_at(SimTime::from_us(5), i);
        }
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
        assert_eq!(order, (0..100).collect::<Vec<_>>());
    }

    #[test]
    #[should_panic(expected = "scheduled event in the past")]
    fn scheduling_in_the_past_panics() {
        let mut q = EventQueue::new();
        q.schedule_at(SimTime::from_us(10), ());
        q.pop();
        q.schedule_at(SimTime::from_us(5), ());
    }

    #[test]
    fn schedule_after_is_relative() {
        let mut q = EventQueue::new();
        q.schedule_at(SimTime::from_us(10), 1);
        q.pop();
        q.schedule_after(SimTime::from_us(5), 2);
        let (t, _) = q.pop().unwrap();
        assert_eq!(t, SimTime::from_us(15));
    }

    #[test]
    fn run_until_respects_end_and_allows_rescheduling() {
        let mut q = EventQueue::new();
        q.schedule_at(SimTime::from_us(1), ());
        let mut count = 0u32;
        q.run_until(&mut count, SimTime::from_us(10), |q, count, _t, ()| {
            *count += 1;
            if *count < 100 {
                q.schedule_after(SimTime::from_us(2), ());
            }
        });
        // Events at 1,3,5,7,9 fire; the one at 11 stays pending.
        assert_eq!(count, 5);
        assert_eq!(q.now(), SimTime::from_us(10));
        assert_eq!(q.len(), 1);
    }

    #[test]
    fn run_until_advances_now_to_end_when_drained() {
        let mut q: EventQueue<()> = EventQueue::new();
        let mut st = ();
        q.run_until(&mut st, SimTime::from_ms(1), |_, _, _, _| {});
        assert_eq!(q.now(), SimTime::from_ms(1));
    }

    #[test]
    fn far_future_events_fire_in_order() {
        let mut q = EventQueue::new();
        // ~52 days of simulated time ahead, scheduled around a near event.
        let far = SimTime::from_ns(1 << 52);
        let near = SimTime::from_us(1);
        q.schedule_at(far, "far");
        q.schedule_at(near, "near");
        q.schedule_at(far, "far2");
        assert_eq!(q.peek_time(), Some(near));
        assert_eq!(q.pop(), Some((near, "near")));
        assert_eq!(q.peek_time(), Some(far));
        assert_eq!(q.pop(), Some((far, "far")));
        assert_eq!(q.pop(), Some((far, "far2")));
        assert_eq!(q.pop(), None);
        assert_eq!(q.now(), far);
    }

    #[test]
    fn a_far_event_fires_before_a_later_one_scheduled_after_an_advance() {
        // An event is scheduled far ahead, the clock jumps to just short of
        // it, and a *later* event is then scheduled from there. The earlier
        // one must still fire first.
        let mut q = EventQueue::new();
        let far = SimTime::from_ns((1 << 48) + 10);
        q.schedule_at(far, "far");
        q.advance_to(SimTime::from_ns((1 << 48) + 1));
        q.schedule_at(SimTime::from_ns((1 << 48) + 20), "later");
        assert_eq!(q.peek_time(), Some(far));
        assert_eq!(q.pop(), Some((far, "far")));
        assert_eq!(q.pop().map(|(_, e)| e), Some("later"));
    }

    #[test]
    fn advance_to_is_a_noop_when_behind_now() {
        let mut q = EventQueue::new();
        q.schedule_at(SimTime::from_us(10), ());
        q.pop();
        assert_eq!(q.now(), SimTime::from_us(10));
        q.advance_to(SimTime::from_us(3));
        assert_eq!(
            q.now(),
            SimTime::from_us(10),
            "advance_to must never rewind"
        );
        q.advance_to(SimTime::from_us(12));
        assert_eq!(q.now(), SimTime::from_us(12));
    }

    #[test]
    fn an_event_scheduled_before_an_advance_fires_first() {
        // The same shape a few nanoseconds from zero: an event scheduled
        // before `advance_to` still precedes one scheduled 1 ns after it.
        let mut q = EventQueue::new();
        q.schedule_at(SimTime::from_ns(130), "early");
        q.advance_to(SimTime::from_ns(128));
        q.schedule_at(SimTime::from_ns(131), "late");
        assert_eq!(q.pop().map(|(_, e)| e), Some("early"));
        assert_eq!(q.pop().map(|(_, e)| e), Some("late"));
    }

    #[test]
    fn same_instant_fifo_holds_across_schedule_times() {
        // Events at one instant scheduled from different distances (one
        // before a pop, two after) must still fire in scheduling order.
        let mut q = EventQueue::new();
        let t = SimTime::from_ns(100_000);
        q.schedule_at(t, 0); // scheduled from now=0
        q.schedule_at(SimTime::from_ns(99_000), 99);
        q.pop(); // now=99_000
        q.schedule_at(t, 1);
        q.schedule_at(t, 2);
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
        assert_eq!(order, vec![0, 1, 2]);
    }

    #[test]
    fn pop_batch_returns_whole_same_instant_burst() {
        let mut q = EventQueue::new();
        let t = SimTime::from_us(7);
        for i in 0..10 {
            q.schedule_at(t, i);
        }
        q.schedule_at(SimTime::from_us(9), 100);
        let mut batch = Vec::new();
        assert_eq!(q.pop_batch(&mut batch), Some(t));
        assert_eq!(batch, (0..10).collect::<Vec<_>>());
        assert_eq!(q.now(), t);
        assert_eq!(q.len(), 1);
        assert_eq!(q.fired(), 10);
        assert_eq!(q.pop_batch(&mut batch), Some(SimTime::from_us(9)));
        assert_eq!(batch, vec![100]);
        assert_eq!(q.pop_batch(&mut batch), None);
        assert!(batch.is_empty());
    }

    #[test]
    fn pop_batch_same_instant_reschedule_forms_a_follow_up_batch() {
        // A handler scheduling into its own timestamp gets a later batch at
        // the same instant; the batch being served is never extended.
        let mut q = EventQueue::new();
        let t = SimTime::from_us(3);
        q.schedule_at(t, 0u32);
        let (mut seen, mut batches, mut batch) = (Vec::new(), 0u32, Vec::new());
        while let Some(at) = q.pop_batch(&mut batch) {
            batches += 1;
            for gen in batch.drain(..) {
                seen.push(gen);
                if gen < 3 {
                    q.schedule_at(at, gen + 1); // zero-delay self-reschedule
                }
            }
        }
        assert_eq!(seen, vec![0, 1, 2, 3]);
        assert_eq!(batches, 4, "each same-instant reschedule is its own batch");
        assert_eq!(q.now(), t);
    }

    #[test]
    fn schedule_at_now_while_batch_in_flight_keeps_fifo() {
        let mut q = EventQueue::new();
        let t = SimTime::from_us(2);
        q.schedule_at(t, 0);
        q.schedule_at(t, 1);
        assert_eq!(q.pop(), Some((t, 0)));
        // Ready batch for `t` still holds event 1; schedule more at `t`.
        q.schedule_at(t, 2);
        q.schedule_at(t, 3);
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
        assert_eq!(order, vec![1, 2, 3]);
    }

    /// `peek_time` reads the top of the heap; after every step it must equal
    /// a full scan of what is pending: schedules above and below the head, a
    /// batch half served with a later and a same-instant schedule in it, and
    /// a drain to `None` followed by new schedules.
    #[test]
    fn peek_time_is_exact_without_a_scan() {
        /// `peek_time`, once checked against the earliest pending instant.
        fn peek(q: &EventQueue<&str>) -> Option<SimTime> {
            let mut min = None;
            q.for_each_pending(|t, _| min = Some(min.map_or(t, |m: SimTime| m.min(t))));
            assert_eq!(q.peek_time(), min);
            min
        }
        let at = |ns: u64| SimTime::from_ns((1 << 50) + ns);
        let mut q = EventQueue::new();
        assert_eq!(peek(&q), None);
        q.schedule_at(at(500), "a");
        assert_eq!(peek(&q), Some(at(500)));
        q.schedule_at(at(9), "b");
        assert_eq!(peek(&q), Some(at(9)));
        assert_eq!(q.pop(), Some((at(9), "b")));
        assert_eq!(peek(&q), Some(at(500)));
        for e in ["c0", "c1", "c2"] {
            q.schedule_at(at(200), e);
            assert_eq!(peek(&q), Some(at(200)));
        }
        assert_eq!(q.next_batch(), Some(at(200)));
        assert_eq!(peek(&q), Some(at(200)));
        assert_eq!(q.pop_ready(), Some("c0"));
        assert_eq!(peek(&q), Some(at(200)));
        q.schedule_at(at(300), "d"); // before "a", with the batch half served
        assert_eq!(peek(&q), Some(at(200)));
        q.schedule_at(at(200), "e"); // the batch's own instant: a follow-up batch
        assert_eq!(peek(&q), Some(at(200)));
        assert_eq!(q.pop_ready(), Some("c1"));
        assert_eq!(peek(&q), Some(at(200)));
        assert_eq!(q.pop_ready(), Some("c2"));
        assert_eq!(peek(&q), Some(at(200)));
        assert_eq!(q.pop_ready(), None, "pop_ready never starts a batch");
        assert_eq!(peek(&q), Some(at(200)));
        assert_eq!(q.pop(), Some((at(200), "e")));
        assert_eq!(peek(&q), Some(at(300)));
        assert_eq!(q.pop(), Some((at(300), "d")));
        assert_eq!(peek(&q), Some(at(500)));
        assert_eq!(q.pop(), Some((at(500), "a")));
        assert_eq!((peek(&q), q.pop()), (None, None));
        let far = at(1 << 49);
        q.schedule_at(far, "far");
        assert_eq!(peek(&q), Some(far));
        q.schedule_at(at(600), "near");
        assert_eq!(peek(&q), Some(at(600)));
        assert_eq!(q.pop(), Some((at(600), "near")));
        assert_eq!(peek(&q), Some(far));
    }

    /// Everything `for_each_pending` visits, as a sorted multiset.
    fn visited(q: &EventQueue<u64>) -> Vec<(SimTime, u64)> {
        let mut seen = Vec::new();
        q.for_each_pending(|t, &id| seen.push((t, id)));
        seen.sort_unstable();
        seen
    }

    proptest! {
        /// Any interleaving of pushes and pops over distinct keys: pops
        /// ascend, each value comes back under the key it was pushed with,
        /// and `len` / `is_empty` / `peek` agree with a `BTreeMap`.
        #[test]
        fn merge_pool_matches_a_btreemap(
            ops in prop::collection::vec((0u8..3, 0u64..50, 0u16..4), 1..400)
        ) {
            type Key = (u64, u16, u64);
            let mut pool: MergePool<Key, Key> = MergePool::new();
            let mut model = std::collections::BTreeMap::new();
            let mut seq = 0u64;
            for (op, at, dst) in ops {
                if op < 2 {
                    seq += 1; // the unique tiebreak: keys never repeat
                    let key = (at, dst, seq);
                    pool.push(key, key);
                    model.insert(key, key);
                } else {
                    let popped = pool.pop();
                    prop_assert_eq!(popped, model.pop_first());
                    if let Some((key, value)) = popped {
                        prop_assert_eq!(key, value);
                    }
                }
                prop_assert_eq!(pool.len(), model.len());
                prop_assert_eq!(pool.is_empty(), model.is_empty());
                prop_assert_eq!(pool.peek(), model.keys().next());
            }
            let drained: Vec<Key> = std::iter::from_fn(|| pool.pop()).map(|(k, _)| k).collect();
            prop_assert!(drained.windows(2).all(|w| w[0] < w[1]));
            prop_assert_eq!(drained, model.into_keys().collect::<Vec<_>>());
        }

        /// After every step the borrowing visit sees exactly the pending
        /// multiset (checked against a model), and at the end exactly what
        /// popping to exhaustion returns. The fixed prologue puts one event
        /// ~6.5 days ahead and schedules one at `now` while a batch is half
        /// served, so the heap holds the rest of a batch, its follow-up and
        /// a far future at once.
        #[test]
        fn for_each_pending_visits_exactly_what_pops(
            ops in prop::collection::vec((0u8..6, 0u64..4096, 0u64..200_000), 1..200)
        ) {
            let mut q = EventQueue::new();
            let mut model: Vec<(SimTime, u64)> = Vec::new();
            let mut next_id = 0u64;
            let mut schedule = |q: &mut EventQueue<u64>, model: &mut Vec<_>, at: SimTime| {
                q.schedule_at(at, next_id);
                model.push((at, next_id));
                next_id += 1;
            };
            let forget = |model: &mut Vec<(SimTime, u64)>, t: SimTime, id: u64| {
                let i = model.iter().position(|&e| e == (t, id)).expect("popped a pending event");
                model.swap_remove(i);
            };
            let t0 = SimTime::from_ns(640);
            for _ in 0..3 {
                schedule(&mut q, &mut model, t0);
            }
            schedule(&mut q, &mut model, SimTime::from_ns((1 << 49) + 5));
            let (t, id) = q.pop().expect("three events at t0");
            forget(&mut model, t, id);
            schedule(&mut q, &mut model, t); // `now`, with the batch at t0 half served
            let mut batch = Vec::new();
            for (op, small, big) in ops {
                match op {
                    0..=1 => {
                        let at = q.now() + SimTime::from_ns((small / 64) * 64);
                        schedule(&mut q, &mut model, at);
                    }
                    2 => {
                        let at = q.now() + SimTime::from_ns((1 << 49) + big);
                        schedule(&mut q, &mut model, at);
                    }
                    3 => {
                        if let Some((t, id)) = q.pop() {
                            forget(&mut model, t, id);
                            if id % 3 == 0 {
                                schedule(&mut q, &mut model, t);
                            }
                        }
                    }
                    4 => {
                        if let Some(t) = q.pop_batch(&mut batch) {
                            for id in batch.drain(..) {
                                forget(&mut model, t, id);
                            }
                        }
                    }
                    _ => {
                        let mut t = q.now() + SimTime::from_ns(big);
                        if let Some(at) = q.peek_time() {
                            t = t.min(at);
                        }
                        q.advance_to(t);
                    }
                }
                model.sort_unstable();
                prop_assert_eq!(&visited(&q), &model);
                prop_assert_eq!(q.len(), model.len());
            }
            let seen = visited(&q);
            let mut popped: Vec<_> = std::iter::from_fn(|| q.pop()).collect();
            popped.sort_unstable();
            prop_assert_eq!(seen, popped);
        }
    }
}

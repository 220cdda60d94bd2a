//! The reference the timing wheel is checked against: a `BinaryHeap` on
//! `(time, seq)`, the structure [`EventQueue`] replaced. It lives here, out
//! of the crate's exports, because nothing but these tests runs it.

use ipipe_sim::{EventQueue, SimTime};
use proptest::prelude::*;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Min-heap on `(at, seq)` with [`EventQueue`]'s observable semantics.
struct HeapEventQueue {
    heap: BinaryHeap<Reverse<(SimTime, u64, u64)>>,
    seq: u64,
    now: SimTime,
    popped: u64,
    /// The batch being served: its instant, and the schedule counter when
    /// it formed. An event scheduled at that instant afterwards waits for
    /// the follow-up batch (the contract's second sentence, DESIGN.md §8).
    batch: (SimTime, u64),
}

impl HeapEventQueue {
    fn new() -> Self {
        HeapEventQueue {
            heap: BinaryHeap::new(),
            seq: 0,
            now: SimTime::ZERO,
            popped: 0,
            batch: (SimTime::ZERO, 0),
        }
    }

    /// True when the head of the heap belongs to the batch being served.
    fn head_in_batch(&self) -> bool {
        let (at, formed) = self.batch;
        let head = self.heap.peek();
        head.is_some_and(|e| e.0 .0 == at && e.0 .1 < formed)
    }

    fn schedule_at(&mut self, at: SimTime, event: u64) {
        assert!(at >= self.now, "scheduled event in the past");
        self.heap.push(Reverse((at, self.seq, event)));
        self.seq += 1;
    }

    fn schedule_after(&mut self, delay: SimTime, event: u64) {
        self.schedule_at(self.now + delay, event);
    }

    fn peek_time(&self) -> Option<SimTime> {
        self.heap.peek().map(|e| e.0 .0)
    }

    /// No-op when `t <= now`; panics if an event is pending before `t`.
    fn advance_to(&mut self, t: SimTime) {
        if t <= self.now {
            return;
        }
        assert!(self.peek_time().is_none_or(|at| at >= t));
        self.now = t;
    }

    /// A no-op while the batch being served has events left; otherwise the
    /// head's instant and everything scheduled for it so far become the
    /// batch.
    fn next_batch(&mut self) -> Option<SimTime> {
        if !self.head_in_batch() {
            self.batch = (self.peek_time()?, self.seq);
            self.now = self.batch.0;
        }
        Some(self.batch.0)
    }

    /// The head, only while it belongs to the batch being served.
    fn pop_ready(&mut self) -> Option<u64> {
        if !self.head_in_batch() {
            return None;
        }
        self.popped += 1;
        self.heap.pop().map(|e| e.0 .2)
    }

    fn pop(&mut self) -> Option<(SimTime, u64)> {
        let at = self.next_batch()?;
        Some((at, self.pop_ready().expect("a batch is never empty")))
    }

    /// The rest of the batch being served, or all of the next one, in FIFO
    /// order.
    fn pop_batch(&mut self, out: &mut Vec<u64>) -> Option<SimTime> {
        out.clear();
        let at = self.next_batch()?;
        out.extend(std::iter::from_fn(|| self.pop_ready()));
        Some(at)
    }

    /// Everything pending, as a sorted multiset of `(time, event)`.
    fn pending(&self) -> Vec<(SimTime, u64)> {
        let mut all: Vec<_> = self.heap.iter().map(|e| (e.0 .0, e.0 .2)).collect();
        all.sort_unstable();
        all
    }
}

/// Everything `for_each_pending` shows, as a sorted multiset.
fn visited(q: &EventQueue<u64>) -> Vec<(SimTime, u64)> {
    let mut seen = Vec::new();
    q.for_each_pending(|t, &id| seen.push((t, id)));
    seen.sort_unstable();
    seen
}

#[test]
fn heap_reference_queue_matches_basic_semantics() {
    let mut q = HeapEventQueue::new();
    q.schedule_at(SimTime::from_us(30), 3);
    q.schedule_at(SimTime::from_us(10), 1);
    q.schedule_after(SimTime::from_us(20), 2);
    assert_eq!(q.peek_time(), Some(SimTime::from_us(10)));
    assert_eq!(q.pop(), Some((SimTime::from_us(10), 1)));
    q.advance_to(SimTime::from_us(15));
    assert_eq!(q.now, SimTime::from_us(15));
    q.advance_to(SimTime::from_us(2)); // no-op
    assert_eq!(q.now, SimTime::from_us(15));
    assert_eq!(q.pop(), Some((SimTime::from_us(20), 2)));
    assert_eq!(q.pop(), Some((SimTime::from_us(30), 3)));
    assert_eq!(q.popped, 3);
    assert!(q.heap.is_empty());
}

#[test]
fn heap_pop_batch_matches_wheel_semantics() {
    let mut w = EventQueue::new();
    let mut h = HeapEventQueue::new();
    for (at, e) in [(7u64, 0u64), (7, 1), (7, 2), (9, 3), (12, 4)] {
        w.schedule_at(SimTime::from_us(at), e);
        h.schedule_at(SimTime::from_us(at), e);
    }
    let (mut wb, mut hb) = (Vec::new(), Vec::new());
    assert_eq!(w.pop_batch(&mut wb), h.pop_batch(&mut hb));
    assert_eq!(wb, hb);
    assert_eq!(wb, vec![0, 1, 2]);
    assert_eq!(w.fired(), h.popped);
    assert_eq!((w.now(), w.len()), (h.now, h.heap.len()));
}

/// Operation sequences for the differential: `(op, small, big)`.
fn ops() -> impl Strategy<Value = Vec<(u8, u64, u64)>> {
    prop::collection::vec((0u8..11, 0u64..4096, 0u64..200_000), 1..300)
}

/// The timing-wheel event queue replays bit-for-bit identically to the
/// reference BinaryHeap queue under an interleaving of scheduling (quantized
/// delays force same-instant bursts, plus a far-future spill path), pops with
/// zero-delay self-reschedules, whole-batch pops, the runtime's
/// `next_batch` + `pop_ready` loop and advance_to jumps. After every step the
/// borrowing visit shows exactly the reference's contents: each key in the
/// wheel, the ready batch and the spill heap still names its own body.
fn wheel_matches_reference(ops: Vec<(u8, u64, u64)>) -> Result<(), TestCaseError> {
    let mut wheel = EventQueue::new();
    let mut heap = HeapEventQueue::new();
    let mut next_id = 0u64;
    let (mut wheel_batch, mut heap_batch) = (Vec::new(), Vec::new());
    for (op, small, big) in ops {
        match op {
            // Schedule after a coarsely quantized delay (collisions likely),
            // including zero-delay.
            0..=2 => {
                let delay = SimTime::from_ns((small / 64) * 64);
                wheel.schedule_after(delay, next_id);
                heap.schedule_after(delay, next_id);
                next_id += 1;
            }
            // Far future: beyond the wheel horizon (spill heap path).
            3 => {
                let at = wheel.now() + SimTime::from_ns((1 << 49) + big);
                wheel.schedule_at(at, next_id);
                heap.schedule_at(at, next_id);
                next_id += 1;
            }
            // Pop and compare; some events reschedule at their own timestamp
            // (zero-delay self-reschedule).
            4..=5 => {
                let a = wheel.pop();
                prop_assert_eq!(a, heap.pop());
                prop_assert_eq!(wheel.now(), heap.now);
                if let Some((t, id)) = a {
                    if id % 3 == 0 {
                        wheel.schedule_at(t, next_id);
                        heap.schedule_at(t, next_id);
                        next_id += 1;
                    }
                }
            }
            // Same-instant burst.
            6 => {
                let at = wheel.now() + SimTime::from_ns(big);
                for _ in 0..(small % 5) + 1 {
                    wheel.schedule_at(at, next_id);
                    heap.schedule_at(at, next_id);
                    next_id += 1;
                }
            }
            // Pop a whole same-instant batch (often the rest of one a single
            // pop began) and compare.
            7 => {
                let t = wheel.pop_batch(&mut wheel_batch);
                prop_assert_eq!(t, heap.pop_batch(&mut heap_batch));
                prop_assert_eq!(&wheel_batch, &heap_batch);
                prop_assert_eq!(wheel.now(), heap.now);
                prop_assert_eq!(wheel.fired(), heap.popped);
            }
            // The runtime's shape (`ShardState::run_slice`): make a batch
            // current, then take up to seven events from it, scheduling at
            // its instant between takes. Those schedules wait for the
            // follow-up batch: no take of this step returns one.
            9..=10 => {
                let t = wheel.next_batch();
                prop_assert_eq!(t, heap.next_batch());
                prop_assert_eq!(wheel.now(), heap.now);
                let mut follow_ups = Vec::new();
                for take in 0..small % 8 {
                    let a = wheel.pop_ready();
                    prop_assert_eq!(a, heap.pop_ready());
                    prop_assert_eq!(wheel.peek_time(), heap.peek_time());
                    if let Some(id) = a {
                        prop_assert!(!follow_ups.contains(&id), "follow-up {} in its batch", id);
                    }
                    if let (Some(t), 1) = (t, (big >> take) & 1) {
                        wheel.schedule_at(t, next_id);
                        heap.schedule_at(t, next_id);
                        follow_ups.push(next_id);
                        next_id += 1;
                    }
                }
                prop_assert_eq!(wheel.fired(), heap.popped);
            }
            // advance_to, clamped to the next pending event so it never skips
            // one; big == 0 also exercises the t <= now no-op.
            _ => {
                let mut t = wheel.now() + SimTime::from_ns(big);
                if let Some(at) = wheel.peek_time() {
                    t = t.min(at);
                }
                wheel.advance_to(t);
                heap.advance_to(t);
                prop_assert_eq!(wheel.now(), heap.now);
            }
        }
        prop_assert_eq!(wheel.len(), heap.heap.len());
        prop_assert_eq!(wheel.peek_time(), heap.peek_time());
        prop_assert_eq!(visited(&wheel), heap.pending());
    }
    // Full drain: the remaining (time, event) streams must be identical.
    loop {
        let a = wheel.pop();
        prop_assert_eq!(a, heap.pop());
        if a.is_none() {
            break;
        }
    }
    prop_assert_eq!(wheel.now(), heap.now);
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// [`wheel_matches_reference`] at tier-1 depth.
    #[test]
    fn timing_wheel_matches_heap_reference(ops in ops()) {
        wheel_matches_reference(ops)?;
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4_000))]

    /// The same differential at 4,000 cases, in release mode:
    /// `scripts/check.sh queue-deep`, which CI's determinism job runs.
    #[test]
    #[ignore = "deep run: cargo test --release -p ipipe-sim --test queue_ref -- --ignored"]
    fn timing_wheel_matches_heap_reference_deep(ops in ops()) {
        wheel_matches_reference(ops)?;
    }
}

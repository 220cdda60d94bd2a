//! The reference [`EventQueue`] is checked against: an ordered map on
//! `(time, seq)`, a structure the queue does not use. It lives here, out of
//! the crate's exports, because nothing but these tests runs it.

use ipipe_sim::{EventQueue, SimTime};
use proptest::prelude::*;
use std::collections::BTreeMap;

/// An ordered map on `(at, seq)` with [`EventQueue`]'s observable semantics.
struct RefQueue {
    pending: BTreeMap<(SimTime, u64), u64>,
    seq: u64,
    now: SimTime,
    popped: u64,
    /// The batch being served: its instant, and the schedule counter when
    /// it formed. An event scheduled at that instant afterwards waits for
    /// the follow-up batch (the contract's second sentence, DESIGN.md §8).
    batch: (SimTime, u64),
}

impl RefQueue {
    fn new() -> Self {
        RefQueue {
            pending: BTreeMap::new(),
            seq: 0,
            now: SimTime::ZERO,
            popped: 0,
            batch: (SimTime::ZERO, 0),
        }
    }

    /// True when the first pending key belongs to the batch being served.
    fn head_in_batch(&self) -> bool {
        let (at, formed) = self.batch;
        let head = self.pending.keys().next();
        head.is_some_and(|&(t, seq)| t == at && seq < formed)
    }

    fn schedule_at(&mut self, at: SimTime, event: u64) {
        assert!(at >= self.now, "scheduled event in the past");
        self.pending.insert((at, self.seq), event);
        self.seq += 1;
    }

    fn schedule_after(&mut self, delay: SimTime, event: u64) {
        self.schedule_at(self.now + delay, event);
    }

    fn peek_time(&self) -> Option<SimTime> {
        self.pending.keys().next().map(|&(at, _)| at)
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
    /// first pending instant and everything scheduled for it so far become
    /// the batch.
    fn next_batch(&mut self) -> Option<SimTime> {
        if !self.head_in_batch() {
            self.batch = (self.peek_time()?, self.seq);
            self.now = self.batch.0;
        }
        Some(self.batch.0)
    }

    /// The first pending event, only while it belongs to the batch being
    /// served.
    fn pop_ready(&mut self) -> Option<u64> {
        if !self.head_in_batch() {
            return None;
        }
        self.popped += 1;
        self.pending.pop_first().map(|(_, event)| event)
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
        let mut all: Vec<_> = self.pending.iter().map(|(&(at, _), &e)| (at, e)).collect();
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
fn reference_queue_matches_basic_semantics() {
    let mut q = RefQueue::new();
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
    assert!(q.pending.is_empty());
}

#[test]
fn reference_pop_batch_matches_queue_semantics() {
    let mut q = EventQueue::new();
    let mut r = RefQueue::new();
    for (at, e) in [(7u64, 0u64), (7, 1), (7, 2), (9, 3), (12, 4)] {
        q.schedule_at(SimTime::from_us(at), e);
        r.schedule_at(SimTime::from_us(at), e);
    }
    let (mut qb, mut rb) = (Vec::new(), Vec::new());
    assert_eq!(q.pop_batch(&mut qb), r.pop_batch(&mut rb));
    assert_eq!(qb, rb);
    assert_eq!(qb, vec![0, 1, 2]);
    assert_eq!(q.fired(), r.popped);
    assert_eq!((q.now(), q.len()), (r.now, r.pending.len()));
}

/// Operation sequences for the differential: `(op, small, big)`.
fn ops() -> impl Strategy<Value = Vec<(u8, u64, u64)>> {
    prop::collection::vec((0u8..11, 0u64..4096, 0u64..200_000), 1..300)
}

/// The event queue replays bit-for-bit identically to the reference under an
/// interleaving of scheduling (quantized delays force same-instant bursts,
/// plus far-future timestamps), pops with zero-delay self-reschedules,
/// whole-batch pops, the runtime's `next_batch` + `pop_ready` loop and
/// advance_to jumps. After every step the borrowing visit shows exactly the
/// reference's contents: each key in the heap still names its own body.
fn queue_matches_reference(ops: Vec<(u8, u64, u64)>) -> Result<(), TestCaseError> {
    let mut queue = EventQueue::new();
    let mut model = RefQueue::new();
    let mut next_id = 0u64;
    let (mut queue_batch, mut model_batch) = (Vec::new(), Vec::new());
    for (op, small, big) in ops {
        match op {
            // Schedule after a coarsely quantized delay (collisions likely),
            // including zero-delay.
            0..=2 => {
                let delay = SimTime::from_ns((small / 64) * 64);
                queue.schedule_after(delay, next_id);
                model.schedule_after(delay, next_id);
                next_id += 1;
            }
            // Far future: ~6.5 days of simulated time ahead.
            3 => {
                let at = queue.now() + SimTime::from_ns((1 << 49) + big);
                queue.schedule_at(at, next_id);
                model.schedule_at(at, next_id);
                next_id += 1;
            }
            // Pop and compare; some events reschedule at their own timestamp
            // (zero-delay self-reschedule).
            4..=5 => {
                let a = queue.pop();
                prop_assert_eq!(a, model.pop());
                prop_assert_eq!(queue.now(), model.now);
                if let Some((t, id)) = a {
                    if id % 3 == 0 {
                        queue.schedule_at(t, next_id);
                        model.schedule_at(t, next_id);
                        next_id += 1;
                    }
                }
            }
            // Same-instant burst.
            6 => {
                let at = queue.now() + SimTime::from_ns(big);
                for _ in 0..(small % 5) + 1 {
                    queue.schedule_at(at, next_id);
                    model.schedule_at(at, next_id);
                    next_id += 1;
                }
            }
            // Pop a whole same-instant batch (often the rest of one a single
            // pop began) and compare.
            7 => {
                let t = queue.pop_batch(&mut queue_batch);
                prop_assert_eq!(t, model.pop_batch(&mut model_batch));
                prop_assert_eq!(&queue_batch, &model_batch);
                prop_assert_eq!(queue.now(), model.now);
                prop_assert_eq!(queue.fired(), model.popped);
            }
            // The runtime's shape (`Cluster::run_slice`): make a batch
            // current, then take up to seven events from it, scheduling at
            // its instant between takes. Those schedules wait for the
            // follow-up batch: no take of this step returns one.
            9..=10 => {
                let t = queue.next_batch();
                prop_assert_eq!(t, model.next_batch());
                prop_assert_eq!(queue.now(), model.now);
                let mut follow_ups = Vec::new();
                for take in 0..small % 8 {
                    let a = queue.pop_ready();
                    prop_assert_eq!(a, model.pop_ready());
                    prop_assert_eq!(queue.peek_time(), model.peek_time());
                    if let Some(id) = a {
                        prop_assert!(!follow_ups.contains(&id), "follow-up {} in its batch", id);
                    }
                    if let (Some(t), 1) = (t, (big >> take) & 1) {
                        queue.schedule_at(t, next_id);
                        model.schedule_at(t, next_id);
                        follow_ups.push(next_id);
                        next_id += 1;
                    }
                }
                prop_assert_eq!(queue.fired(), model.popped);
            }
            // advance_to, clamped to the next pending event so it never skips
            // one; big == 0 also exercises the t <= now no-op.
            _ => {
                let mut t = queue.now() + SimTime::from_ns(big);
                if let Some(at) = queue.peek_time() {
                    t = t.min(at);
                }
                queue.advance_to(t);
                model.advance_to(t);
                prop_assert_eq!(queue.now(), model.now);
            }
        }
        prop_assert_eq!(queue.len(), model.pending.len());
        prop_assert_eq!(queue.is_empty(), model.pending.is_empty());
        prop_assert_eq!(queue.peek_time(), model.peek_time());
        prop_assert_eq!(visited(&queue), model.pending());
    }
    // Full drain: the remaining (time, event) streams must be identical.
    loop {
        let a = queue.pop();
        prop_assert_eq!(a, model.pop());
        if a.is_none() {
            break;
        }
    }
    prop_assert_eq!(queue.now(), model.now);
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// [`queue_matches_reference`] at tier-1 depth.
    #[test]
    fn event_queue_matches_reference(ops in ops()) {
        queue_matches_reference(ops)?;
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4_000))]

    /// The same differential at 4,000 cases, in release mode:
    /// `scripts/check.sh queue-deep`, which CI's determinism job runs.
    #[test]
    #[ignore = "deep run: cargo test --release -p ipipe-sim --test queue_ref -- --ignored"]
    fn event_queue_matches_reference_deep(ops in ops()) {
        queue_matches_reference(ops)?;
    }
}

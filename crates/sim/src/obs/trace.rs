//! Bounded, sim-time-stamped structured trace ring.
//!
//! Every record carries only `Copy` data — static name/category strings,
//! integer ids, sim-time stamps — so pushing an event in the hot path never
//! allocates. The ring holds the most recent `capacity` events; older ones
//! are dropped (counted, never silently). Because records are stamped with
//! **simulated** time and pushed in deterministic simulation order, the ring
//! contents for a given seed are bit-for-bit reproducible.

use crate::time::SimTime;
use std::collections::VecDeque;

/// What kind of record this is (maps onto Chrome `trace_event` phases).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceKind {
    /// A complete span: work that started at `ts` and ran for `dur`
    /// (Chrome phase `"X"`).
    Span {
        /// Span duration.
        dur: SimTime,
    },
    /// A point-in-time marker (Chrome phase `"i"`).
    Instant,
    /// A sampled counter value (Chrome phase `"C"`), rendered as a track.
    Sample {
        /// Sampled value.
        value: i64,
    },
}

/// One trace record. `Copy`, allocation-free.
#[derive(Debug, Clone, Copy)]
pub struct TraceEvent {
    /// Sim-time stamp (span start for [`TraceKind::Span`]).
    pub ts: SimTime,
    /// Static event name, e.g. `"exec"`.
    pub name: &'static str,
    /// Static category, e.g. `"nic"`, `"host"`, `"migration"`.
    pub cat: &'static str,
    /// Node id — exported as the Chrome `pid` so Perfetto groups rows
    /// per server.
    pub node: u16,
    /// Lane within the node (NIC core, host core, client slot …) —
    /// exported as the Chrome `tid`.
    pub lane: u32,
    /// Record kind / phase.
    pub kind: TraceKind,
    /// Optional single integer argument (actor id, queue depth, …) under a
    /// static key. One inline pair keeps records `Copy`.
    pub arg: Option<(&'static str, i64)>,
}

/// Fixed-capacity ring of [`TraceEvent`]s. Keeps the newest records.
#[derive(Debug)]
pub struct TraceRing {
    events: VecDeque<TraceEvent>,
    capacity: usize,
    recorded: u64,
    dropped: u64,
}

impl TraceRing {
    /// Ring holding at most `capacity` records (0 disables recording).
    pub fn new(capacity: usize) -> TraceRing {
        TraceRing {
            events: VecDeque::with_capacity(capacity.min(1 << 20)),
            capacity,
            recorded: 0,
            dropped: 0,
        }
    }

    /// Append a record, evicting the oldest when full.
    pub fn push(&mut self, ev: TraceEvent) {
        if self.capacity == 0 {
            self.dropped += 1;
            return;
        }
        if self.events.len() == self.capacity {
            self.events.pop_front();
            self.dropped += 1;
        }
        self.events.push_back(ev);
        self.recorded += 1;
    }

    /// Maximum records the ring holds (0 = recording disabled).
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Records currently held.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// True when no records are held.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Total records ever pushed (including later-evicted ones).
    pub fn recorded(&self) -> u64 {
        self.recorded
    }

    /// Records evicted or refused because the ring was full/disabled.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Iterate records oldest-first (push order, which is simulation order).
    pub fn iter(&self) -> impl Iterator<Item = &TraceEvent> {
        self.events.iter()
    }

    /// Copy records out oldest-first.
    pub fn to_vec(&self) -> Vec<TraceEvent> {
        self.events.iter().copied().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(ns: u64) -> TraceEvent {
        TraceEvent {
            ts: SimTime::from_ns(ns),
            name: "e",
            cat: "t",
            node: 0,
            lane: 0,
            kind: TraceKind::Instant,
            arg: None,
        }
    }

    #[test]
    fn ring_keeps_newest_and_counts_drops() {
        let mut r = TraceRing::new(3);
        for i in 0..5 {
            r.push(ev(i));
        }
        assert_eq!(r.len(), 3);
        assert_eq!(r.recorded(), 5);
        assert_eq!(r.dropped(), 2);
        let kept: Vec<u64> = r.iter().map(|e| e.ts.as_ns()).collect();
        assert_eq!(kept, vec![2, 3, 4]);
    }

    #[test]
    fn zero_capacity_ring_drops_everything() {
        let mut r = TraceRing::new(0);
        r.push(ev(1));
        assert!(r.is_empty());
        assert_eq!(r.dropped(), 1);
        assert_eq!(r.recorded(), 0);
    }
}

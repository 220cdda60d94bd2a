//! The three RTA worker cores (§4): filter, counter, ranker — pure logic,
//! wrapped by the actors in [`crate::rta::actors`].

use super::regex::Regex;
use ipipe_workload::rta::Tuple;
use std::collections::{BTreeMap, HashMap};

/// The filter worker: "applies a pattern matching module to discard
/// uninteresting data tuples". Stateless (paper: "Filter actor is a
/// stateless one").
pub struct Filter {
    patterns: Vec<Regex>,
}

impl Filter {
    /// Compile a pattern set.
    pub fn new(patterns: &[&str]) -> Filter {
        Filter {
            patterns: patterns
                .iter()
                .map(|p| Regex::new(p).expect("valid filter pattern"))
                .collect(),
        }
    }

    /// True when the tuple matches any pattern (kept).
    pub fn keep(&self, t: &Tuple) -> bool {
        self.patterns.iter().any(|re| re.find(&t.text))
    }

    /// Total NFA states across the pattern set (cost-model input).
    pub fn total_states(&self) -> usize {
        self.patterns.iter().map(Regex::states).sum()
    }
}

/// The counter worker: "uses a sliding window and periodically emits a tuple
/// to the ranker". Counts per-topic weights over the last `window_slots`
/// slots of `slot_width` tuples each.
pub struct Counter {
    window_slots: usize,
    slot_width: u32,
    /// Ring of per-slot topic->count maps.
    slots: Vec<HashMap<u32, u64>>,
    cur: usize,
    in_slot: u32,
    /// Emission cadence: every `emit_every` tuples.
    emit_every: u32,
    since_emit: u32,
}

impl Counter {
    /// Sliding window of `window_slots` slots, `slot_width` tuples/slot,
    /// emitting every `emit_every` tuples.
    pub fn new(window_slots: usize, slot_width: u32, emit_every: u32) -> Counter {
        assert!(window_slots >= 1 && slot_width >= 1 && emit_every >= 1);
        Counter {
            window_slots,
            slot_width,
            slots: vec![HashMap::new(); window_slots],
            cur: 0,
            in_slot: 0,
            emit_every,
            since_emit: 0,
        }
    }

    /// Ingest one tuple; returns the (topic, windowed-count) emissions due.
    pub fn ingest(&mut self, t: &Tuple) -> Vec<(u32, u64)> {
        if self.in_slot == 0 {
            self.slots[self.cur].clear(); // reuse expires the oldest slot
        }
        *self.slots[self.cur].entry(t.topic).or_insert(0) += t.weight as u64;
        self.in_slot += 1;
        if self.in_slot >= self.slot_width {
            self.in_slot = 0;
            self.cur = (self.cur + 1) % self.window_slots;
        }
        self.since_emit += 1;
        if self.since_emit >= self.emit_every {
            self.since_emit = 0;
            vec![(t.topic, self.count(t.topic))]
        } else {
            Vec::new()
        }
    }

    /// Windowed count for a topic.
    pub fn count(&self, topic: u32) -> u64 {
        self.slots
            .iter()
            .map(|s| s.get(&topic).copied().unwrap_or(0))
            .sum()
    }

    /// Distinct topics currently tracked.
    pub fn tracked_topics(&self) -> usize {
        let mut set: std::collections::HashSet<u32> = std::collections::HashSet::new();
        for s in &self.slots {
            set.extend(s.keys().copied());
        }
        set.len()
    }
}

/// The ranker worker: sorts incoming (topic, count) tuples with quicksort
/// and keeps the top-n ("ranker performs quicksort to order tuples" —
/// the quicksort is the heavyweight operation that gets the ranker migrated
/// under load).
pub struct Ranker {
    n: usize,
    /// Ordered by topic, so the quicksort's input — and with it how equal
    /// counts tie-break and which entries a trim keeps — is a function of
    /// the keys, not of `HashMap`'s per-process seed.
    entries: BTreeMap<u32, u64>,
}

/// In-place quicksort by descending count (the paper names the algorithm,
/// so it is implemented rather than delegated to `sort_by`).
pub fn quicksort_desc(v: &mut [(u32, u64)]) {
    if v.len() <= 1 {
        return;
    }
    let pivot = v[v.len() / 2].1;
    let (mut lo, mut hi) = (0usize, v.len() - 1);
    loop {
        while v[lo].1 > pivot {
            lo += 1;
        }
        while v[hi].1 < pivot {
            hi -= 1;
        }
        if lo >= hi {
            break;
        }
        v.swap(lo, hi);
        lo += 1;
        hi = hi.saturating_sub(1);
    }
    let split = lo.min(v.len() - 1);
    let (a, b) = v.split_at_mut(split);
    quicksort_desc(a);
    quicksort_desc(b);
}

impl Ranker {
    /// Top-`n` ranker.
    pub fn new(n: usize) -> Ranker {
        assert!(n >= 1);
        Ranker {
            n,
            entries: BTreeMap::new(),
        }
    }

    /// Update a topic's count; returns the number of entries sorted (the
    /// cost-model input).
    pub fn update(&mut self, topic: u32, count: u64) -> usize {
        self.entries.insert(topic, count);
        // Periodically shrink to bounded state: keep 4n entries.
        if self.entries.len() > self.n * 4 {
            let top = self.top();
            let keep: std::collections::HashSet<u32> = top.iter().map(|(t, _)| *t).collect();
            self.entries.retain(|t, _| keep.contains(t));
        }
        self.entries.len()
    }

    /// Current top-n by count (quicksorted).
    pub fn top(&self) -> Vec<(u32, u64)> {
        let mut v: Vec<(u32, u64)> = self.entries.iter().map(|(&t, &c)| (t, c)).collect();
        quicksort_desc(&mut v);
        v.truncate(self.n);
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ipipe_workload::rta::{RtaWorkload, INTERESTING_WORDS};

    fn tuple(topic: u32, text: &str, weight: u32) -> Tuple {
        Tuple {
            topic,
            text: text.to_string(),
            weight,
        }
    }

    #[test]
    fn filter_keeps_matching_tuples() {
        let f = Filter::new(&INTERESTING_WORDS);
        assert!(f.keep(&tuple(1, "what a goal", 1)));
        assert!(f.keep(&tuple(1, "rocket launch today", 1)));
        assert!(!f.keep(&tuple(1, "lorem ipsum dolor", 1)));
        assert!(f.total_states() > 10);
    }

    #[test]
    fn filter_fraction_matches_workload_config() {
        let f = Filter::new(&INTERESTING_WORDS);
        let mut wl = RtaWorkload::new(100, 0.4, 9);
        let n = 5000;
        let kept = (0..n).filter(|_| f.keep(&wl.next_tuple())).count();
        let frac = kept as f64 / n as f64;
        assert!((frac - 0.4).abs() < 0.03, "frac={frac}");
    }

    #[test]
    fn counter_windows_expire() {
        // 2 slots of 4 tuples: window covers the last ~8 tuples.
        let mut c = Counter::new(2, 4, 1000);
        for _ in 0..4 {
            c.ingest(&tuple(7, "x", 1));
        }
        assert_eq!(c.count(7), 4);
        // Fill the next slot with a different topic: topic 7 still visible.
        for _ in 0..4 {
            c.ingest(&tuple(8, "x", 1));
        }
        assert_eq!(c.count(7), 4);
        // Another slot turn expires topic 7's slot.
        for _ in 0..4 {
            c.ingest(&tuple(9, "x", 1));
        }
        assert_eq!(c.count(7), 0, "old slot expired");
        assert!(c.tracked_topics() >= 1);
    }

    #[test]
    fn counter_emits_periodically() {
        let mut c = Counter::new(4, 100, 5);
        let mut emissions = 0;
        for i in 0..50 {
            emissions += c.ingest(&tuple(i % 3, "x", 2)).len();
        }
        assert_eq!(emissions, 10);
    }

    #[test]
    fn quicksort_sorts_descending() {
        let mut v: Vec<(u32, u64)> = vec![(1, 5), (2, 9), (3, 1), (4, 9), (5, 0), (6, 7)];
        quicksort_desc(&mut v);
        let counts: Vec<u64> = v.iter().map(|(_, c)| *c).collect();
        assert_eq!(counts, vec![9, 9, 7, 5, 1, 0]);
        // Random arrays against the stdlib sort.
        let mut rng = ipipe_sim::DetRng::new(5);
        for _ in 0..50 {
            let mut a: Vec<(u32, u64)> = (0..rng.below(200))
                .map(|i| (i as u32, rng.below(50)))
                .collect();
            let mut b = a.clone();
            quicksort_desc(&mut a);
            b.sort_by_key(|x| std::cmp::Reverse(x.1));
            let ac: Vec<u64> = a.iter().map(|(_, c)| *c).collect();
            let bc: Vec<u64> = b.iter().map(|(_, c)| *c).collect();
            assert_eq!(ac, bc);
        }
    }

    #[test]
    fn ranker_tracks_top_n() {
        let mut r = Ranker::new(3);
        for t in 0..20u32 {
            r.update(t, t as u64 * 10);
        }
        let top = r.top();
        assert_eq!(top.len(), 3);
        assert_eq!(top[0].1, 190);
        assert!(top[0].1 >= top[1].1 && top[1].1 >= top[2].1);
        // Updates change the ranking.
        r.update(0, 1_000_000);
        assert_eq!(r.top()[0], (0, 1_000_000));
    }

    #[test]
    fn ranker_state_stays_bounded() {
        let mut r = Ranker::new(5);
        for t in 0..10_000u32 {
            let n = r.update(t, (t % 97) as u64);
            assert!(n <= 21, "entries grew unbounded: {n}");
        }
    }
}

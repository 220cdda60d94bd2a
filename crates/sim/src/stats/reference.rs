//! The dense layout [`Histogram`] replaced — one count for each of 64
//! octaves' buckets, allocated up front — kept as the reference the windowed
//! layout is driven against. Both must read the same after any sequence of
//! `record`, `merge` (either way), `reset` and `clone`, down to the export
//! line.

use super::{Histogram, SUB};
use crate::obs::Snapshot;
use crate::time::SimTime;
use proptest::prelude::*;

/// Every bucket of 64 octaves, whether reachable or not.
#[derive(Debug, Clone)]
struct Dense {
    counts: Vec<u64>,
    total: u64,
    sum_ns: u128,
    max_ns: u64,
    min_ns: u64,
}

impl Dense {
    fn new() -> Dense {
        Dense {
            counts: vec![0; 64 * SUB],
            total: 0,
            sum_ns: 0,
            max_ns: 0,
            min_ns: u64::MAX,
        }
    }

    fn record(&mut self, ns: u64) {
        let idx = Histogram::bucket_of(ns).min(self.counts.len() - 1);
        self.counts[idx] += 1;
        self.total += 1;
        self.sum_ns += u128::from(ns);
        self.max_ns = self.max_ns.max(ns);
        self.min_ns = self.min_ns.min(ns);
    }

    fn mean(&self) -> u64 {
        match self.total {
            0 => 0,
            n => u64::try_from(self.sum_ns / u128::from(n)).expect("mean <= max"),
        }
    }

    fn max(&self) -> u64 {
        if self.total == 0 {
            0
        } else {
            self.max_ns
        }
    }

    fn min(&self) -> u64 {
        if self.total == 0 {
            0
        } else {
            self.min_ns
        }
    }

    #[allow(clippy::cast_possible_truncation)] // the rank, as in `Histogram`
    fn quantile(&self, q: f64) -> u64 {
        if self.total == 0 {
            return 0;
        }
        let q = q.clamp(0.0, 1.0);
        let rank = ((q * self.total as f64).ceil() as u64).clamp(1, self.total);
        let mut seen = 0u64;
        for (idx, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return Histogram::bucket_upper_bound(idx).min(self.max_ns);
            }
        }
        self.max_ns
    }

    fn merge(&mut self, other: &Dense) {
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.total += other.total;
        self.sum_ns += other.sum_ns;
        self.max_ns = self.max_ns.max(other.max_ns);
        self.min_ns = self.min_ns.min(other.min_ns);
    }

    fn reset(&mut self) {
        self.counts.iter_mut().for_each(|c| *c = 0);
        self.total = 0;
        self.sum_ns = 0;
        self.max_ns = 0;
        self.min_ns = u64::MAX;
    }
}

/// One step on a pair of histograms; `true` picks the first as the target.
#[derive(Debug, Clone)]
enum Op {
    Record(bool, u64),
    /// The target folds the other one in.
    Merge(bool),
    Reset(bool),
    /// The target becomes a clone of the other one.
    Clone(bool),
}

/// A sample: a bucket edge or extreme, or a uniform value small or large.
fn sample((kind, shift, x): (u8, u32, u64)) -> u64 {
    const PICKS: [u64; 6] = [0, 1, 31, 32, 33, u64::MAX];
    match kind {
        0 => PICKS[(x % 6) as usize],
        // An octave edge, 1 << shift, give or take one.
        1 => (1u64 << shift).wrapping_add(x % 3).wrapping_sub(1),
        2 => x % (1 << 24),
        _ => x,
    }
}

fn op() -> impl Strategy<Value = Op> {
    (0u8..9, any::<bool>(), (0u8..4, 0u32..64, any::<u64>())).prop_map(
        |(kind, first, s)| match kind {
            0..=5 => Op::Record(first, sample(s)),
            6 => Op::Merge(first),
            7 => Op::Reset(first),
            _ => Op::Clone(first),
        },
    )
}

/// Quantiles read at every step: a grid from 0 to 1, the tails, and two
/// values outside `[0, 1]`.
fn grid() -> impl Iterator<Item = f64> {
    (0..=10)
        .map(|i| f64::from(i) / 10.0)
        .chain([0.001, 0.99, 0.999, -1.0, 2.0])
}

/// `h` reads as `d` does, and holds no more buckets than its samples' octaves.
fn same(h: &Histogram, d: &Dense) -> Result<(), TestCaseError> {
    prop_assert_eq!(h.count(), d.total);
    prop_assert_eq!(h.min().as_ns(), d.min());
    prop_assert_eq!(h.max().as_ns(), d.max());
    prop_assert_eq!(h.mean().as_ns(), d.mean());
    for q in grid() {
        prop_assert_eq!(h.quantile(q).as_ns(), d.quantile(q), "q = {}", q);
    }
    let mut snap = Snapshot::default();
    snap.hists.insert(("h".into(), 0), h.clone());
    let want = format!(
        "{{\"type\":\"hist\",\"name\":\"h\",\"node\":0,\"count\":{},\"min_ns\":{},\
         \"max_ns\":{},\"mean_ns\":{},\"p50_ns\":{},\"p99_ns\":{}}}\n",
        d.total,
        d.min(),
        d.max(),
        d.mean(),
        d.quantile(0.5),
        d.quantile(0.99),
    );
    prop_assert_eq!(snap.to_jsonl(), want);
    let octaves = match h.count() {
        0 => 0,
        _ => Histogram::bucket_of(d.max_ns) / SUB - Histogram::bucket_of(d.min_ns) / SUB + 1,
    };
    prop_assert!(
        h.held_buckets() <= octaves * SUB,
        "{} buckets held for {} octaves",
        h.held_buckets(),
        octaves
    );
    Ok(())
}

/// Drive two windowed histograms and two dense ones through `ops`, comparing
/// them after every step.
fn windowed_matches_dense(ops: Vec<Op>) -> Result<(), TestCaseError> {
    let mut h = [Histogram::new(), Histogram::new()];
    let mut d = [Dense::new(), Dense::new()];
    for op in ops {
        match op {
            Op::Record(first, ns) => {
                let i = usize::from(!first);
                h[i].record(SimTime::from_ns(ns));
                d[i].record(ns);
            }
            Op::Merge(first) => {
                let (i, j) = if first { (0, 1) } else { (1, 0) };
                let (hj, dj) = (h[j].clone(), d[j].clone());
                h[i].merge(&hj);
                d[i].merge(&dj);
            }
            Op::Reset(first) => {
                let i = usize::from(!first);
                h[i].reset();
                d[i].reset();
            }
            Op::Clone(first) => {
                let (i, j) = if first { (0, 1) } else { (1, 0) };
                h[i] = h[j].clone();
                d[i] = d[j].clone();
            }
        }
        for (h, d) in h.iter().zip(&d) {
            same(h, d)?;
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// [`windowed_matches_dense`] at tier-1 depth.
    #[test]
    fn histogram_matches_dense_reference(ops in prop::collection::vec(op(), 1..100)) {
        windowed_matches_dense(ops)?;
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4_000))]

    /// The same differential at 4,000 cases, in release mode:
    /// `scripts/check.sh queue-deep`.
    #[test]
    #[ignore = "deep run: cargo test --release -p ipipe-sim --lib histogram_matches_dense_reference -- --ignored"]
    fn histogram_matches_dense_reference_deep(ops in prop::collection::vec(op(), 1..100)) {
        windowed_matches_dense(ops)?;
    }
}

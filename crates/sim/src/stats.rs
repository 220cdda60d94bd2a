//! Statistics used by both the simulation harness and the iPipe runtime
//! bookkeeper (§3.2.3): EWMA estimators, Welford running moments, and a
//! log-bucketed latency histogram for exact-enough quantiles.
#![deny(clippy::cast_possible_truncation)]

use crate::time::SimTime;

/// Exponentially weighted moving average.
///
/// The iPipe runtime updates all of its execution-cost statistics with EWMA
/// (§3.2.3). `alpha` is the weight of each new observation.
#[derive(Debug, Clone, Copy)]
pub struct Ewma {
    alpha: f64,
    value: Option<f64>,
}

impl Ewma {
    /// New EWMA with observation weight `alpha` in (0, 1].
    pub fn new(alpha: f64) -> Self {
        assert!(alpha > 0.0 && alpha <= 1.0, "alpha must be in (0,1]");
        Ewma { alpha, value: None }
    }

    /// Fold in an observation.
    pub fn observe(&mut self, x: f64) {
        self.value = Some(match self.value {
            None => x,
            Some(v) => v + self.alpha * (x - v),
        });
    }

    /// Current estimate (None until the first observation).
    pub fn get(&self) -> Option<f64> {
        self.value
    }

    /// Current estimate, or `default` before any observation.
    pub fn get_or(&self, default: f64) -> f64 {
        self.value.unwrap_or(default)
    }

    /// Reset to the unobserved state.
    pub fn reset(&mut self) {
        self.value = None;
    }
}

/// Welford's online mean/variance. Numerically stable; used for exact
/// post-hoc statistics in the experiment harness.
#[derive(Debug, Clone, Copy, Default)]
pub struct Welford {
    n: u64,
    mean: f64,
    m2: f64,
}

impl Welford {
    /// Empty accumulator.
    pub fn new() -> Self {
        Welford::default()
    }

    /// Fold in an observation.
    pub fn observe(&mut self, x: f64) {
        self.n += 1;
        let d = x - self.mean;
        self.mean += d / self.n as f64;
        self.m2 += d * (x - self.mean);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.n
    }

    /// Sample mean (0 if empty).
    pub fn mean(&self) -> f64 {
        self.mean
    }

    /// Population variance (0 if fewer than 2 observations).
    pub fn variance(&self) -> f64 {
        if self.n < 2 {
            0.0
        } else {
            self.m2 / self.n as f64
        }
    }

    /// Population standard deviation.
    pub fn stddev(&self) -> f64 {
        self.variance().sqrt()
    }
}

/// The paper's tail estimator: EWMA of the latency `µ` and of the squared
/// deviation, reporting `µ + 3σ` as an approximate P99 (§3.2.3).
#[derive(Debug, Clone, Copy)]
pub struct TailEstimator {
    mean: Ewma,
    var: Ewma,
}

impl TailEstimator {
    /// New estimator with EWMA weight `alpha`.
    pub fn new(alpha: f64) -> Self {
        TailEstimator {
            mean: Ewma::new(alpha),
            var: Ewma::new(alpha),
        }
    }

    /// Fold in a latency observation.
    pub fn observe(&mut self, t: SimTime) {
        let x = t.as_ns() as f64;
        let prev_mean = self.mean.get_or(x);
        self.mean.observe(x);
        let d = x - prev_mean;
        self.var.observe(d * d);
    }

    /// EWMA mean latency.
    // Saturating is the meaning: `as` drops the fraction of an average of
    // u64 nanosecond counts, which cannot exceed u64::MAX.
    #[allow(clippy::cast_possible_truncation)]
    pub fn mean(&self) -> SimTime {
        SimTime::from_ns(self.mean.get_or(0.0).max(0.0) as u64)
    }

    /// EWMA standard deviation.
    // Saturating is the meaning: `as` drops the fraction of the root of an
    // average of squared u64 deviations, which cannot exceed u64::MAX.
    #[allow(clippy::cast_possible_truncation)]
    pub fn stddev(&self) -> SimTime {
        SimTime::from_ns(self.var.get_or(0.0).max(0.0).sqrt() as u64)
    }

    /// `µ + 3σ`, the paper's approximation of P99.
    pub fn tail(&self) -> SimTime {
        self.mean() + self.stddev() * 3
    }

    /// True once at least one observation has been folded in.
    pub fn observed(&self) -> bool {
        self.mean.get().is_some()
    }

    /// Reset both moments.
    pub fn reset(&mut self) {
        self.mean.reset();
        self.var.reset();
    }
}

/// Log-bucketed latency histogram: ≤3.1% relative resolution from 1 ns to
/// `u64::MAX` ns, exact counts. Quantiles are upper bucket bounds so they
/// never under-report tail latency.
///
/// Counts are held only for the contiguous window of buckets the samples
/// touched, in whole octaves of `SUB` buckets: nothing until the first
/// sample, and at most `(k + 1) × SUB` buckets once the samples span `k`
/// octaves. Every reading is the one a dense array of all `BUCKETS`
/// buckets would give (the test-only dense reference, `stats/reference.rs`,
/// pins this).
#[derive(Debug, Clone)]
pub struct Histogram {
    /// Bucket index of `counts[0]`, a multiple of `SUB`.
    lo: usize,
    /// Counts of buckets `lo .. lo + counts.len()`; empty until the first
    /// sample, a whole number of octaves after.
    counts: Vec<u64>,
    total: u64,
    sum_ns: u128,
    max_ns: u64,
    min_ns: u64,
}

const SUB_BITS: u32 = 5; // 32 sub-buckets per octave => <= ~3.1% resolution
const SUB: usize = 1 << SUB_BITS;
/// Buckets a `u64` sample can reach: octave 0 holds 0..32 one per bucket, and
/// each of octaves 1..60 one doubling (`bucket_of(u64::MAX)` is the last).
const BUCKETS: usize = 60 * SUB;

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl Histogram {
    /// Empty histogram. Allocates nothing.
    pub fn new() -> Self {
        Histogram {
            lo: 0,
            counts: Vec::new(),
            total: 0,
            sum_ns: 0,
            max_ns: 0,
            min_ns: u64::MAX,
        }
    }

    #[inline]
    fn bucket_of(ns: u64) -> usize {
        let idx = if ns < SUB as u64 {
            ns
        } else {
            let octave = u64::from(64 - SUB_BITS - ns.leading_zeros());
            octave * SUB as u64 + ((ns >> (octave - 1)) & (SUB as u64 - 1))
        };
        usize::try_from(idx).expect("a bucket index is below BUCKETS")
    }

    fn bucket_upper_bound(idx: usize) -> u64 {
        let octave = idx / SUB;
        let sub = (idx % SUB) as u64;
        if octave == 0 {
            return sub;
        }
        // The last bucket's bound is `u64::MAX`: the shift carries out of
        // the top bit and the subtraction wraps back.
        ((SUB as u64 + sub + 1) << (octave - 1)).wrapping_sub(1)
    }

    /// Record a latency sample.
    #[inline]
    pub fn record(&mut self, t: SimTime) {
        let ns = t.as_ns();
        let idx = Self::bucket_of(ns);
        match self.counts.get_mut(idx.wrapping_sub(self.lo)) {
            Some(c) => *c += 1,
            None => self.record_outside(idx),
        }
        self.total += 1;
        self.sum_ns += u128::from(ns);
        self.max_ns = self.max_ns.max(ns);
        self.min_ns = self.min_ns.min(ns);
    }

    /// `record`'s slow path: bucket `idx` lies outside the window.
    #[cold]
    #[inline(never)]
    fn record_outside(&mut self, idx: usize) {
        let octave = idx - idx % SUB;
        self.cover(octave, octave + SUB);
        self.counts[idx - self.lo] += 1;
    }

    /// Widen the window to cover buckets `lo..hi` (octave-aligned), keeping
    /// every count: one exact-size allocation when it grows.
    fn cover(&mut self, lo: usize, hi: usize) {
        debug_assert!(lo.is_multiple_of(SUB) && hi.is_multiple_of(SUB) && lo < hi && hi <= BUCKETS);
        if self.counts.is_empty() {
            self.lo = lo;
            self.counts = vec![0; hi - lo];
            return;
        }
        let (old_lo, old_hi) = (self.lo, self.lo + self.counts.len());
        let (lo, hi) = (lo.min(old_lo), hi.max(old_hi));
        if (lo, hi) == (old_lo, old_hi) {
            return;
        }
        let mut counts = Vec::with_capacity(hi - lo);
        counts.resize(old_lo - lo, 0);
        counts.extend_from_slice(&self.counts);
        counts.resize(hi - lo, 0);
        self.lo = lo;
        self.counts = counts;
    }

    /// Number of samples recorded.
    pub fn count(&self) -> u64 {
        self.total
    }

    /// Mean of all samples (zero if empty).
    pub fn mean(&self) -> SimTime {
        if self.total == 0 {
            SimTime::ZERO
        } else {
            let mean = self.sum_ns / u128::from(self.total);
            SimTime::from_ns(u64::try_from(mean).expect("a mean is at most max_ns"))
        }
    }

    /// Exact maximum sample.
    pub fn max(&self) -> SimTime {
        SimTime::from_ns(if self.total == 0 { 0 } else { self.max_ns })
    }

    /// Exact minimum sample (zero if empty).
    pub fn min(&self) -> SimTime {
        SimTime::from_ns(if self.total == 0 { 0 } else { self.min_ns })
    }

    /// Quantile `q` in `[0,1]`; returns the upper bound of the bucket holding
    /// the q-th sample, clamped to the exact maximum. The contract at the
    /// edges is part of the API:
    ///
    /// * **empty histogram** — every quantile is `SimTime::ZERO` (there is
    ///   no sample to bound, and callers feed quantiles into ledgers where
    ///   a sentinel like `MAX` would poison sums);
    /// * **single sample** — every quantile is that sample's value (bucket
    ///   upper bound clamped to the recorded maximum);
    /// * `q` outside `[0,1]` is clamped, `q = 0` reads as the first sample.
    // Saturating is the meaning: the rank is at most `total` before the
    // clamp, so the float-to-int `as` only drops the fraction `ceil` left.
    #[allow(clippy::cast_possible_truncation)]
    pub fn quantile(&self, q: f64) -> SimTime {
        if self.total == 0 {
            return SimTime::ZERO;
        }
        let q = q.clamp(0.0, 1.0);
        let rank = ((q * self.total as f64).ceil() as u64).clamp(1, self.total);
        let mut seen = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return SimTime::from_ns(Self::bucket_upper_bound(self.lo + i).min(self.max_ns));
            }
        }
        SimTime::from_ns(self.max_ns)
    }

    /// Median (p50).
    pub fn p50(&self) -> SimTime {
        self.quantile(0.50)
    }

    /// 99th percentile.
    pub fn p99(&self) -> SimTime {
        self.quantile(0.99)
    }

    /// Merge another histogram into this one, first widening this one's
    /// window to cover the other's.
    pub fn merge(&mut self, other: &Histogram) {
        if !other.counts.is_empty() {
            self.cover(other.lo, other.lo + other.counts.len());
            let from = other.lo - self.lo;
            for (a, b) in self.counts[from..].iter_mut().zip(&other.counts) {
                *a += b;
            }
        }
        self.total += other.total;
        self.sum_ns += other.sum_ns;
        self.max_ns = self.max_ns.max(other.max_ns);
        self.min_ns = self.min_ns.min(other.min_ns);
    }

    /// Clear all samples, and the window with them.
    pub fn reset(&mut self) {
        *self = Histogram::new();
    }

    /// Buckets this histogram holds memory for.
    #[cfg(test)]
    fn held_buckets(&self) -> usize {
        self.counts.capacity()
    }
}

#[cfg(test)]
mod reference;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantile_of_empty_histogram_is_zero() {
        let h = Histogram::new();
        for q in [0.0, 0.5, 0.99, 1.0] {
            assert_eq!(h.quantile(q), SimTime::ZERO, "q={q}");
        }
        assert_eq!(h.p50(), SimTime::ZERO);
        assert_eq!(h.p99(), SimTime::ZERO);
        assert_eq!(h.min(), SimTime::ZERO);
        assert_eq!(h.max(), SimTime::ZERO);
    }

    #[test]
    fn quantile_of_single_sample_is_that_sample() {
        let mut h = Histogram::new();
        h.record(SimTime::from_us(17));
        for q in [0.0, 0.5, 0.99, 1.0] {
            assert_eq!(h.quantile(q), SimTime::from_us(17), "q={q}");
        }
        // Out-of-range q clamps instead of indexing out of the histogram.
        assert_eq!(h.quantile(-3.0), SimTime::from_us(17));
        assert_eq!(h.quantile(42.0), SimTime::from_us(17));
    }

    #[test]
    fn ewma_converges() {
        let mut e = Ewma::new(0.5);
        assert_eq!(e.get(), None);
        e.observe(10.0);
        assert_eq!(e.get(), Some(10.0));
        e.observe(20.0);
        assert_eq!(e.get(), Some(15.0));
        for _ in 0..64 {
            e.observe(100.0);
        }
        assert!((e.get().unwrap() - 100.0).abs() < 1e-6);
    }

    #[test]
    #[should_panic]
    fn ewma_rejects_bad_alpha() {
        Ewma::new(0.0);
    }

    #[test]
    fn welford_matches_closed_form() {
        let mut w = Welford::new();
        for x in [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0] {
            w.observe(x);
        }
        assert_eq!(w.count(), 8);
        assert!((w.mean() - 5.0).abs() < 1e-12);
        assert!((w.variance() - 4.0).abs() < 1e-12);
        assert!((w.stddev() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn tail_estimator_tracks_mu_plus_3_sigma() {
        let mut t = TailEstimator::new(0.1);
        assert!(!t.observed());
        // Constant stream: sigma -> 0, tail -> mean.
        for _ in 0..2000 {
            t.observe(SimTime::from_us(10));
        }
        assert!(t.observed());
        let mean = t.mean().as_us_f64();
        let tail = t.tail().as_us_f64();
        assert!((mean - 10.0).abs() < 0.5, "mean={mean}");
        assert!(tail < 11.0, "tail={tail}");
    }

    #[test]
    fn tail_estimator_sees_dispersion() {
        let mut t = TailEstimator::new(0.05);
        // Alternating 10us / 100us: sigma ~45us, tail should far exceed mean.
        for i in 0..4000 {
            t.observe(SimTime::from_us(if i % 2 == 0 { 10 } else { 100 }));
        }
        assert!(t.tail() > t.mean() * 2);
    }

    #[test]
    fn histogram_buckets_are_monotonic() {
        let mut last = 0;
        for ns in [
            0u64,
            1,
            31,
            32,
            33,
            63,
            64,
            100,
            1000,
            1 << 20,
            u64::MAX / 2,
        ] {
            let b = Histogram::bucket_of(ns);
            assert!(b >= last, "bucket_of({ns})={b} < {last}");
            last = b;
            assert!(Histogram::bucket_upper_bound(b) >= ns);
        }
    }

    #[test]
    fn every_u64_has_a_bucket_and_octaves_meet_edge_to_edge() {
        assert_eq!(Histogram::bucket_of(u64::MAX), BUCKETS - 1);
        assert_eq!(Histogram::bucket_upper_bound(BUCKETS - 1), u64::MAX);
        for octave in 0..BUCKETS / SUB - 1 {
            let last = octave * SUB + SUB - 1;
            // The first value of octave `octave + 1` is 32 << octave.
            let next = (SUB as u64) << octave;
            assert_eq!(Histogram::bucket_upper_bound(last), next - 1, "{octave}");
            assert_eq!(Histogram::bucket_of(next - 1), last);
            assert_eq!(Histogram::bucket_of(next), last + 1);
        }
    }

    #[test]
    fn a_histogram_holds_only_the_octaves_its_samples_span() {
        let mut h = Histogram::new();
        assert_eq!(h.held_buckets(), 0);
        h.merge(&Histogram::new());
        assert_eq!((h.held_buckets(), h.clone().held_buckets()), (0, 0));
        // 1 us .. 1 ms spans the octaves of 1000 ns .. 10^6 ns: k = 10.
        let (lo, hi) = (
            Histogram::bucket_of(1_000) / SUB,
            Histogram::bucket_of(1_000_000) / SUB,
        );
        assert_eq!(hi - lo, 10);
        for us in [7, 1, 1000, 40, 300] {
            h.record(SimTime::from_us(us));
            assert!(h.held_buckets() <= 11 * SUB, "{}", h.held_buckets());
        }
        assert_eq!(h.held_buckets(), 11 * SUB);
        assert_eq!(h.clone().held_buckets(), 11 * SUB);
        // Merging widens the window to cover the other's, no further.
        let mut wide = Histogram::new();
        wide.record(SimTime::from_ns(3));
        wide.merge(&h);
        assert_eq!(wide.held_buckets(), (hi + 1) * SUB);
        h.reset();
        assert_eq!(h.held_buckets(), 0);
        assert_eq!(h.quantile(0.5), SimTime::ZERO);
    }

    #[test]
    fn histogram_quantiles() {
        let mut h = Histogram::new();
        for us in 1..=1000u64 {
            h.record(SimTime::from_us(us));
        }
        assert_eq!(h.count(), 1000);
        let p50 = h.p50().as_us_f64();
        let p99 = h.p99().as_us_f64();
        assert!((p50 - 500.0).abs() / 500.0 < 0.05, "p50={p50}");
        assert!((p99 - 990.0).abs() / 990.0 < 0.05, "p99={p99}");
        assert_eq!(h.min(), SimTime::from_us(1));
        assert_eq!(h.max(), SimTime::from_us(1000));
        let mean = h.mean().as_us_f64();
        assert!((mean - 500.5).abs() < 1.0);
    }

    #[test]
    fn histogram_merge_and_reset() {
        let mut a = Histogram::new();
        let mut b = Histogram::new();
        a.record(SimTime::from_us(1));
        b.record(SimTime::from_us(1000));
        a.merge(&b);
        assert_eq!(a.count(), 2);
        assert_eq!(a.max(), SimTime::from_us(1000));
        a.reset();
        assert_eq!(a.count(), 0);
        assert_eq!(a.quantile(0.99), SimTime::ZERO);
    }

    #[test]
    fn histogram_empty_is_sane() {
        let h = Histogram::new();
        assert_eq!(h.mean(), SimTime::ZERO);
        assert_eq!(h.p99(), SimTime::ZERO);
        assert_eq!(h.min(), SimTime::ZERO);
    }
}

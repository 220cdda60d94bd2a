//! Deterministic random-number generation and the service-time / workload
//! distributions used throughout the paper's evaluation (§5.1, §5.4).

use crate::time::SimTime;
use rand::rngs::StdRng;
use rand::{Rng, RngExt, SeedableRng};
use rand_distr::{Distribution, Exp, Zipf};

/// A seeded deterministic RNG.
///
/// Every simulation component derives its own stream via
/// [`DetRng::fork`] so adding a component never perturbs the draws seen by
/// another — a standard trick for reproducible parallel simulations.
///
/// Cloning copies the full generator state: the clone continues the exact
/// same stream (used by components that are themselves `Clone`, like the
/// network fault plan).
#[derive(Debug, Clone)]
pub struct DetRng {
    inner: StdRng,
    seed: u64,
    forks: u64,
}

impl DetRng {
    /// Create from a 64-bit seed.
    pub fn new(seed: u64) -> Self {
        DetRng {
            inner: StdRng::seed_from_u64(seed),
            seed,
            forks: 0,
        }
    }

    /// The seed this stream was created with.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Derive an independent child stream. Deterministic: the n-th fork of a
    /// given parent is always the same stream.
    pub fn fork(&mut self) -> DetRng {
        self.forks += 1;
        // SplitMix64-style mixing of (seed, fork index).
        let mut z = self
            .seed
            .wrapping_add(0x9E37_79B9_7F4A_7C15u64.wrapping_mul(self.forks));
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        DetRng::new(z ^ (z >> 31))
    }

    /// Uniform f64 in [0, 1).
    pub fn f64(&mut self) -> f64 {
        self.inner.random::<f64>()
    }

    /// Uniform u64 in [0, n).
    pub fn below(&mut self, n: u64) -> u64 {
        assert!(n > 0, "below(0)");
        self.inner.random_range(0..n)
    }

    /// Uniform usize index in [0, n).
    pub fn index(&mut self, n: usize) -> usize {
        assert!(n > 0, "index(0)");
        self.inner.random_range(0..n)
    }

    /// Bernoulli draw.
    pub fn chance(&mut self, p: f64) -> bool {
        self.inner.random_bool(p.clamp(0.0, 1.0))
    }

    /// Exponentially distributed span with the given mean.
    pub fn exp(&mut self, mean: SimTime) -> SimTime {
        let m = mean.as_ns() as f64;
        if m <= 0.0 {
            return SimTime::ZERO;
        }
        let d = Exp::new(1.0 / m).expect("positive rate");
        SimTime::from_ns(d.sample(&mut self.inner).round() as u64)
    }

    /// Zipf-distributed key in [0, n) with exponent `s` (paper uses s = 0.99,
    /// n = 1e6 for the KV workloads, §5.1). One-off draws only: a generator
    /// that draws per request keeps a [`ZipfKeys`] instead.
    pub fn zipf(&mut self, n: u64, s: f64) -> u64 {
        ZipfKeys::new(n, s).sample(self)
    }

    /// Access to the underlying `rand` RNG for use with `rand_distr`.
    pub fn raw(&mut self) -> &mut StdRng {
        &mut self.inner
    }

    /// Fill a byte buffer with random data.
    pub fn fill_bytes(&mut self, buf: &mut [u8]) {
        self.inner.fill_bytes(buf);
    }
}

/// Zipf popularity over the keys `[0, n)` with the sampler's constants built
/// once: `Zipf::new` costs five `ln` and five `exp`, more than a draw.
/// Sampling consumes the RNG exactly as [`DetRng::zipf`] does.
#[derive(Debug, Clone, Copy)]
pub struct ZipfKeys {
    n: u64,
    dist: Zipf,
}

impl ZipfKeys {
    /// Popularity law over `n > 0` keys with exponent `s`.
    pub fn new(n: u64, s: f64) -> ZipfKeys {
        let dist = Zipf::new(n as f64, s).expect("valid zipf parameters");
        ZipfKeys { n, dist }
    }

    /// Draw a key.
    pub fn sample(&self, rng: &mut DetRng) -> u64 {
        // rand_distr's Zipf yields values in [1, n].
        (self.dist.sample(&mut rng.inner) as u64)
            .saturating_sub(1)
            .min(self.n - 1)
    }
}

/// A service-time (or inter-arrival) distribution.
///
/// The paper's scheduler evaluation (§5.4, Fig 16) uses an exponential
/// distribution for the "low dispersion" case and a bimodal-2 distribution
/// for the "high dispersion" case.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ServiceDist {
    /// Always exactly this long.
    Constant(SimTime),
    /// Exponential with the given mean.
    Exponential { mean: SimTime },
    /// Two-point distribution: value `a` with probability `p_a`, else `b`.
    Bimodal { p_a: f64, a: SimTime, b: SimTime },
    /// Uniform in [lo, hi].
    Uniform { lo: SimTime, hi: SimTime },
}

impl ServiceDist {
    /// Draw a sample.
    pub fn sample(&self, rng: &mut DetRng) -> SimTime {
        match *self {
            ServiceDist::Constant(t) => t,
            ServiceDist::Exponential { mean } => rng.exp(mean),
            ServiceDist::Bimodal { p_a, a, b } => {
                if rng.chance(p_a) {
                    a
                } else {
                    b
                }
            }
            ServiceDist::Uniform { lo, hi } => {
                let span = hi.saturating_sub(lo).as_ns();
                lo + SimTime::from_ns(if span == 0 { 0 } else { rng.below(span + 1) })
            }
        }
    }

    /// Analytic mean of the distribution.
    pub fn mean(&self) -> SimTime {
        match *self {
            ServiceDist::Constant(t) => t,
            ServiceDist::Exponential { mean } => mean,
            ServiceDist::Bimodal { p_a, a, b } => SimTime::from_ns(
                (p_a * a.as_ns() as f64 + (1.0 - p_a) * b.as_ns() as f64).round() as u64,
            ),
            ServiceDist::Uniform { lo, hi } => (lo + hi) / 2,
        }
    }
}

/// A Poisson arrival process: exponential inter-arrival gaps at `rate_pps`
/// events per second. Used by the open-loop workload generators (§5.4).
pub struct PoissonArrivals {
    mean_gap: SimTime,
}

impl PoissonArrivals {
    /// Arrival process with the given average events/second.
    pub fn new(rate_pps: f64) -> Self {
        assert!(rate_pps > 0.0, "arrival rate must be positive");
        PoissonArrivals {
            mean_gap: SimTime::from_secs_f64(1.0 / rate_pps),
        }
    }

    /// Draw the gap to the next arrival.
    pub fn next_gap(&self, rng: &mut DetRng) -> SimTime {
        rng.exp(self.mean_gap)
    }

    /// The configured mean gap.
    pub fn mean_gap(&self) -> SimTime {
        self.mean_gap
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn determinism_same_seed_same_stream() {
        let mut a = DetRng::new(42);
        let mut b = DetRng::new(42);
        for _ in 0..100 {
            assert_eq!(a.below(1_000_000), b.below(1_000_000));
        }
    }

    #[test]
    fn forks_are_independent_and_deterministic() {
        let mut parent1 = DetRng::new(7);
        let mut parent2 = DetRng::new(7);
        let mut f1 = parent1.fork();
        let mut f2 = parent2.fork();
        for _ in 0..16 {
            assert_eq!(f1.below(1000), f2.below(1000));
        }
        // Second fork differs from the first.
        let mut g1 = parent1.fork();
        let draws_f: Vec<_> = (0..8).map(|_| f1.below(1 << 30)).collect();
        let draws_g: Vec<_> = (0..8).map(|_| g1.below(1 << 30)).collect();
        assert_ne!(draws_f, draws_g);
    }

    #[test]
    fn exp_mean_is_close() {
        let mut rng = DetRng::new(1);
        let mean = SimTime::from_us(32);
        let n = 20_000;
        let total: u64 = (0..n).map(|_| rng.exp(mean).as_ns()).sum();
        let avg = total as f64 / n as f64;
        let expect = mean.as_ns() as f64;
        assert!(
            (avg - expect).abs() / expect < 0.05,
            "avg={avg} expect={expect}"
        );
    }

    #[test]
    fn zipf_is_skewed_and_in_range() {
        let mut rng = DetRng::new(2);
        let n = 1000u64;
        let mut counts = vec![0u64; n as usize];
        for _ in 0..50_000 {
            let k = rng.zipf(n, 0.99);
            assert!(k < n);
            counts[k as usize] += 1;
        }
        // Key 0 should be far more popular than key 500.
        assert!(counts[0] > counts[500] * 10);
    }

    #[test]
    fn a_reused_zipf_draws_what_a_fresh_one_draws() {
        let (mut a, mut b) = (DetRng::new(9), DetRng::new(9));
        for (n, s) in [(1_000_000, 0.99), (64, 1.0), (500, 1.3), (1, 0.5)] {
            let keys = ZipfKeys::new(n, s);
            for _ in 0..200 {
                assert_eq!(keys.sample(&mut a), b.zipf(n, s));
            }
        }
        assert_eq!(a.below(1 << 40), b.below(1 << 40));
    }

    #[test]
    fn bimodal_mean_and_sampling() {
        let d = ServiceDist::Bimodal {
            p_a: 0.5,
            a: SimTime::from_us(35),
            b: SimTime::from_us(60),
        };
        assert_eq!(d.mean(), SimTime::from_us_f64(47.5));
        let mut rng = DetRng::new(3);
        for _ in 0..100 {
            let s = d.sample(&mut rng);
            assert!(s == SimTime::from_us(35) || s == SimTime::from_us(60));
        }
    }

    #[test]
    fn uniform_bounds() {
        let d = ServiceDist::Uniform {
            lo: SimTime::from_us(1),
            hi: SimTime::from_us(2),
        };
        let mut rng = DetRng::new(4);
        for _ in 0..100 {
            let s = d.sample(&mut rng);
            assert!(s >= SimTime::from_us(1) && s <= SimTime::from_us(2));
        }
        assert_eq!(d.mean(), SimTime::from_ns(1500));
    }

    #[test]
    fn poisson_rate_matches() {
        let arr = PoissonArrivals::new(1_000_000.0); // 1 Mpps -> 1us mean gap
        assert_eq!(arr.mean_gap(), SimTime::from_us(1));
        let mut rng = DetRng::new(5);
        let n = 20_000;
        let total: u64 = (0..n).map(|_| arr.next_gap(&mut rng).as_ns()).sum();
        let avg = total as f64 / n as f64;
        assert!((avg - 1000.0).abs() / 1000.0 < 0.05);
    }

    #[test]
    fn constant_dist() {
        let d = ServiceDist::Constant(SimTime::from_us(9));
        let mut rng = DetRng::new(6);
        assert_eq!(d.sample(&mut rng), SimTime::from_us(9));
        assert_eq!(d.mean(), SimTime::from_us(9));
    }
}

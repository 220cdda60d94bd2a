//! 2-D-array workloads: the count-min-sketch flow monitor and the Naive
//! Bayes flow classifier (Table 3 rows 2 and 10).

use super::{MicroWorkload, PaperRow};
use ipipe_nicsim::mem::TrackedMem;
use ipipe_sim::DetRng;

fn mix(h: u64, salt: u64) -> u64 {
    let mut z = h ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z ^ (z >> 31)
}

/// Count-min sketch flow monitor (row "Flow monitor", citing AFQ): `rows`
/// hash rows over `width` counters; update increments one counter per row,
/// estimate takes the minimum.
pub struct CountMinSketch {
    rows: usize,
    width: usize,
    counters: Vec<Vec<u32>>,
    base: u64,
}

impl CountMinSketch {
    /// Sketch with the given geometry.
    pub fn new(rows: usize, width: usize) -> CountMinSketch {
        assert!(rows >= 1 && width >= 2);
        CountMinSketch {
            rows,
            width,
            counters: vec![vec![0; width]; rows],
            base: 0,
        }
    }

    /// Table 3 configuration: 4 x 1M counters (16 MB — larger than any of
    /// the cards' L2, hence the DRAM misses the row reports).
    pub fn table3() -> CountMinSketch {
        CountMinSketch::new(4, 1 << 20)
    }

    fn index(&self, flow: u64, row: usize) -> usize {
        (mix(flow, row as u64 + 1) % self.width as u64) as usize
    }

    /// Record one occurrence of `flow`.
    pub fn update(&mut self, flow: u64) {
        for r in 0..self.rows {
            let i = self.index(flow, r);
            self.counters[r][i] = self.counters[r][i].saturating_add(1);
        }
    }

    /// Estimated count (never under-counts).
    pub fn estimate(&self, flow: u64) -> u32 {
        (0..self.rows)
            .map(|r| self.counters[r][self.index(flow, r)])
            .min()
            .unwrap_or(0)
    }
}

impl MicroWorkload for CountMinSketch {
    fn name(&self) -> &'static str {
        "Flow monitor"
    }

    fn paper_row(&self) -> PaperRow {
        PaperRow {
            lat_us: 3.2,
            ipc: 1.4,
            mpki: 0.8,
        }
    }

    fn setup(&mut self, mem: &mut TrackedMem, _rng: &mut DetRng) {
        self.base = mem.alloc((self.rows * self.width * 4) as u64);
    }

    fn request(&mut self, mem: &mut TrackedMem, rng: &mut DetRng, req_bytes: u32) {
        // Parse the packet headers (touch the first lines of the payload).
        mem.read(self.base, (req_bytes as u64).min(128));
        let flow = rng.below(1 << 24);
        self.update(flow);
        for r in 0..self.rows {
            let i = self.index(flow, r);
            let addr = self.base + (r * self.width + i) as u64 * 4;
            mem.read(addr, 4);
            mem.write(addr, 4);
        }
        mem.work(6200); // hash computation + header parse + stats export
    }
}

/// Naive Bayes flow classifier (row "Flow classifier", citing the SCC'16
/// web-service classifier): per-class log-likelihood accumulation over a
/// large quantized feature table.
pub struct NaiveBayes {
    classes: usize,
    features: usize,
    bins: usize,
    /// log P(feature=bin | class), quantized.
    table: Vec<f32>,
    priors: Vec<f32>,
    base: u64,
}

impl NaiveBayes {
    /// Classifier with `classes` classes, `features` features per request,
    /// `bins` quantization bins per feature.
    pub fn new(classes: usize, features: usize, bins: usize, seed: u64) -> NaiveBayes {
        let mut rng = DetRng::new(seed);
        let table = (0..classes * features * bins)
            .map(|_| -(rng.f64() as f32) * 6.0 - 0.1)
            .collect();
        NaiveBayes {
            classes,
            features,
            bins,
            table,
            priors: vec![(1.0 / classes as f32).ln(); classes],
            base: 0,
        }
    }

    /// Table 3 configuration: 8 classes x 80 features x 4096 bins of f32
    /// (~10 MB of likelihood tables, randomly indexed — the 15.2 MPKI row).
    pub fn table3() -> NaiveBayes {
        NaiveBayes::new(8, 80, 4096, 0xBAE5)
    }

    /// Classify a feature vector (bin index per feature): argmax class.
    pub fn classify(&self, bins: &[usize]) -> usize {
        let mut best = (0usize, f32::NEG_INFINITY);
        for c in 0..self.classes {
            let mut score = self.priors[c];
            for (f, &b) in bins.iter().enumerate().take(self.features) {
                let i = (c * self.features + f) * self.bins + (b % self.bins);
                score += self.table[i];
            }
            if score > best.1 {
                best = (c, score);
            }
        }
        best.0
    }
}

impl MicroWorkload for NaiveBayes {
    fn name(&self) -> &'static str {
        "Flow classifier"
    }

    fn paper_row(&self) -> PaperRow {
        PaperRow {
            lat_us: 71.0,
            ipc: 0.5,
            mpki: 15.2,
        }
    }

    fn setup(&mut self, mem: &mut TrackedMem, _rng: &mut DetRng) {
        self.base = mem.alloc((self.classes * self.features * self.bins * 4) as u64);
    }

    fn request(&mut self, mem: &mut TrackedMem, rng: &mut DetRng, req_bytes: u32) {
        // Feature extraction scans the payload.
        mem.read(self.base, (req_bytes as u64).min(1024));
        let bins: Vec<usize> = (0..self.features)
            .map(|_| rng.below(self.bins as u64) as usize)
            .collect();
        let _class = self.classify(&bins);
        for c in 0..self.classes {
            for (f, &b) in bins.iter().enumerate() {
                let i = (c * self.features + f) * self.bins + b;
                mem.read(self.base + i as u64 * 4, 4);
            }
        }
        mem.work(30_000); // feature extraction + log-sum arithmetic
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cms_never_undercounts_and_is_close() {
        let mut s = CountMinSketch::new(4, 4096);
        let mut rng = DetRng::new(1);
        let mut truth = std::collections::HashMap::new();
        for _ in 0..20_000 {
            let f = rng.zipf(500, 1.1);
            s.update(f);
            *truth.entry(f).or_insert(0u32) += 1;
        }
        for (&f, &t) in &truth {
            let e = s.estimate(f);
            assert!(e >= t, "undercounted flow {f}: {e} < {t}");
        }
        // The heavy hitter estimate is tight.
        let hot = *truth.values().max().unwrap();
        let hot_flow = truth.iter().max_by_key(|(_, &c)| c).unwrap().0;
        let est = s.estimate(*hot_flow);
        assert!(
            ((est - hot) as f64 / hot as f64) < 0.05,
            "est={est} true={hot}"
        );
    }

    #[test]
    fn cms_unseen_flow_is_near_zero() {
        let mut s = CountMinSketch::new(4, 1 << 16);
        for f in 0..1000u64 {
            s.update(f);
        }
        assert!(s.estimate(999_999_999) <= 2);
    }

    #[test]
    fn nbayes_prefers_the_likely_class() {
        let mut nb = NaiveBayes::new(3, 4, 8, 9);
        let mut set = |class: usize, feature: usize, bin: usize, logp: f32| {
            nb.table[(class * nb.features + feature) * nb.bins + bin] = logp;
        };
        // Make class 2 overwhelmingly likely for bins [1,2,3,4].
        for (f, b) in [(0, 1), (1, 2), (2, 3), (3, 4)] {
            set(2, f, b, -0.01);
            set(0, f, b, -20.0);
            set(1, f, b, -20.0);
        }
        assert_eq!(nb.classify(&[1, 2, 3, 4]), 2);
    }

    #[test]
    fn nbayes_is_deterministic() {
        let nb = NaiveBayes::table3();
        let bins: Vec<usize> = (0..80).map(|i| i * 37 % 4096).collect();
        assert_eq!(nb.classify(&bins), nb.classify(&bins));
    }
}

//! YCSB-style workload mixes for the KV store — the standard cloud-serving
//! benchmark shapes (A–F), built over the same Zipf key popularity as the
//! paper's 95/5 mix (which is YCSB-B). Useful for exploring the RKV system
//! beyond the paper's single operating point.

use crate::kv::{encode_key, KvOp, KEY_LEN};
use ipipe_sim::{DetRng, ZipfKeys};

/// The six core YCSB workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum YcsbMix {
    /// A: update heavy — 50% read / 50% update.
    A,
    /// B: read mostly — 95% read / 5% update (the paper's §5.1 mix).
    B,
    /// C: read only.
    C,
    /// D: read latest — 95% read / 5% insert, reads skew to recent inserts.
    D,
    /// E: short scans — 95% scan / 5% insert.
    E,
    /// F: read-modify-write — 50% read / 50% RMW.
    F,
}

/// A generated YCSB operation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum YcsbOp {
    /// Point read.
    Read {
        /// Key.
        key: [u8; KEY_LEN],
    },
    /// Blind update.
    Update {
        /// Key.
        key: [u8; KEY_LEN],
        /// New value.
        value: Vec<u8>,
    },
    /// Insert of a fresh key.
    Insert {
        /// Key.
        key: [u8; KEY_LEN],
        /// Value.
        value: Vec<u8>,
    },
    /// Range scan starting at `key`.
    Scan {
        /// Start key.
        key: [u8; KEY_LEN],
        /// Records to scan.
        len: u32,
    },
    /// Read-modify-write.
    ReadModifyWrite {
        /// Key.
        key: [u8; KEY_LEN],
        /// New value.
        value: Vec<u8>,
    },
}

impl YcsbOp {
    /// Whether the operation writes.
    pub fn is_write(&self) -> bool {
        !matches!(self, YcsbOp::Read { .. } | YcsbOp::Scan { .. })
    }

    /// Approximate wire size.
    pub fn wire_size(&self) -> u32 {
        let base = 1 + KEY_LEN as u32;
        match self {
            YcsbOp::Read { .. } => base,
            YcsbOp::Scan { .. } => base + 4,
            YcsbOp::Update { value, .. }
            | YcsbOp::Insert { value, .. }
            | YcsbOp::ReadModifyWrite { value, .. } => base + value.len() as u32,
        }
    }

    /// Convert to the two-op [`KvOp`] model where possible (scans and RMWs
    /// map to their dominant phase).
    pub fn as_kv_op(&self) -> KvOp {
        match self {
            YcsbOp::Read { key } | YcsbOp::Scan { key, .. } => KvOp::Get { key: *key },
            YcsbOp::Update { key, value }
            | YcsbOp::Insert { key, value }
            | YcsbOp::ReadModifyWrite { key, value } => KvOp::Put {
                key: *key,
                value: value.clone(),
            },
        }
    }
}

/// Zipf skew of every mix.
const SKEW: f64 = 0.99;

/// YCSB workload generator.
pub struct YcsbWorkload {
    mix: YcsbMix,
    /// Popularity over the pre-loaded records.
    zipf: ZipfKeys,
    inserted: u64,
    value_len: usize,
    rng: DetRng,
}

impl YcsbWorkload {
    /// Generator over `keys` pre-loaded records with `value_len`-byte values.
    pub fn new(mix: YcsbMix, keys: u64, value_len: usize, seed: u64) -> YcsbWorkload {
        assert!(keys > 0);
        YcsbWorkload {
            mix,
            zipf: ZipfKeys::new(keys, SKEW),
            inserted: keys,
            value_len,
            rng: DetRng::new(seed),
        }
    }

    fn zipf_key(&mut self) -> [u8; KEY_LEN] {
        encode_key(self.zipf.sample(&mut self.rng))
    }

    fn latest_key(&mut self) -> [u8; KEY_LEN] {
        // "Read latest": zipf over recency rank, a population that grows
        // with every insert.
        let back = self.rng.zipf(self.inserted, SKEW);
        encode_key(self.inserted - 1 - back.min(self.inserted - 1))
    }

    fn value(&mut self) -> Vec<u8> {
        let mut v = vec![0u8; self.value_len];
        self.rng.fill_bytes(&mut v);
        v
    }

    fn insert(&mut self) -> YcsbOp {
        let key = encode_key(self.inserted);
        self.inserted += 1;
        YcsbOp::Insert {
            key,
            value: self.value(),
        }
    }

    /// Draw the next operation.
    pub fn next_op(&mut self) -> YcsbOp {
        match self.mix {
            YcsbMix::A => {
                if self.rng.chance(0.5) {
                    YcsbOp::Read {
                        key: self.zipf_key(),
                    }
                } else {
                    YcsbOp::Update {
                        key: self.zipf_key(),
                        value: self.value(),
                    }
                }
            }
            YcsbMix::B => {
                if self.rng.chance(0.95) {
                    YcsbOp::Read {
                        key: self.zipf_key(),
                    }
                } else {
                    YcsbOp::Update {
                        key: self.zipf_key(),
                        value: self.value(),
                    }
                }
            }
            YcsbMix::C => YcsbOp::Read {
                key: self.zipf_key(),
            },
            YcsbMix::D => {
                if self.rng.chance(0.95) {
                    YcsbOp::Read {
                        key: self.latest_key(),
                    }
                } else {
                    self.insert()
                }
            }
            YcsbMix::E => {
                if self.rng.chance(0.95) {
                    YcsbOp::Scan {
                        key: self.zipf_key(),
                        len: 1 + self.rng.below(100) as u32,
                    }
                } else {
                    self.insert()
                }
            }
            YcsbMix::F => {
                if self.rng.chance(0.5) {
                    YcsbOp::Read {
                        key: self.zipf_key(),
                    }
                } else {
                    YcsbOp::ReadModifyWrite {
                        key: self.zipf_key(),
                        value: self.value(),
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn write_fraction(mix: YcsbMix, n: usize) -> f64 {
        let mut w = YcsbWorkload::new(mix, 10_000, 64, 1);
        (0..n).filter(|_| w.next_op().is_write()).count() as f64 / n as f64
    }

    #[test]
    fn mix_ratios() {
        assert!((write_fraction(YcsbMix::A, 20_000) - 0.5).abs() < 0.02);
        assert!((write_fraction(YcsbMix::B, 20_000) - 0.05).abs() < 0.01);
        assert_eq!(write_fraction(YcsbMix::C, 5_000), 0.0);
        assert!((write_fraction(YcsbMix::F, 20_000) - 0.5).abs() < 0.02);
    }

    #[test]
    fn d_reads_skew_to_recent_inserts() {
        let mut w = YcsbWorkload::new(YcsbMix::D, 1_000, 16, 2);
        let mut recent = 0;
        let mut reads = 0;
        for _ in 0..20_000 {
            if let YcsbOp::Read { key } = w.next_op() {
                reads += 1;
                // Key ids are zero-padded decimals; recent = top decile.
                let id: u64 = std::str::from_utf8(&key[1..]).unwrap().parse().unwrap();
                if id >= 900 {
                    recent += 1;
                }
            }
        }
        assert!(recent as f64 / reads as f64 > 0.5, "{recent}/{reads}");
    }

    #[test]
    fn e_scans_have_bounded_length() {
        let mut w = YcsbWorkload::new(YcsbMix::E, 1_000, 16, 3);
        let mut scans = 0;
        for _ in 0..5_000 {
            if let YcsbOp::Scan { len, .. } = w.next_op() {
                scans += 1;
                assert!((1..=100).contains(&len));
            }
        }
        assert!(scans > 4_000);
    }

    #[test]
    fn inserts_use_fresh_keys() {
        let mut w = YcsbWorkload::new(YcsbMix::D, 100, 16, 4);
        let mut seen = std::collections::HashSet::new();
        for _ in 0..5_000 {
            if let YcsbOp::Insert { key, .. } = w.next_op() {
                assert!(seen.insert(key), "duplicate insert key");
            }
        }
    }

    #[test]
    fn kv_op_conversion_and_wire_size() {
        let mut w = YcsbWorkload::new(YcsbMix::A, 100, 64, 5);
        for _ in 0..100 {
            let op = w.next_op();
            let _ = op.as_kv_op();
            assert!(op.wire_size() >= 17);
        }
    }
}

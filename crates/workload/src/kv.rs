//! Key-value workload generator (§5.1): "16B key, 95% read and 5% write,
//! zipf distribution with skew of 0.99, and 1 million keys (following the
//! settings in prior work [MICA, Memcache])"; value size grows with packet
//! size.

use ipipe_sim::{DetRng, ZipfKeys};

/// Default key population.
pub const DEFAULT_KEYS: u64 = 1_000_000;
/// Zipf skew used throughout the evaluation.
pub const DEFAULT_SKEW: f64 = 0.99;
/// Read fraction.
pub const DEFAULT_READ_RATIO: f64 = 0.95;
/// Fixed key length in bytes.
pub const KEY_LEN: usize = 16;

/// One generated KV operation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum KvOp {
    /// GET key.
    Get { key: [u8; KEY_LEN] },
    /// PUT key -> value.
    Put { key: [u8; KEY_LEN], value: Vec<u8> },
}

impl KvOp {
    /// The key of the operation.
    pub fn key(&self) -> &[u8; KEY_LEN] {
        match self {
            KvOp::Get { key } => key,
            KvOp::Put { key, .. } => key,
        }
    }

    /// True for reads.
    pub fn is_read(&self) -> bool {
        matches!(self, KvOp::Get { .. })
    }

    /// Approximate serialized size (opcode + key + value).
    pub fn wire_size(&self) -> u32 {
        match self {
            KvOp::Get { .. } => 1 + KEY_LEN as u32,
            KvOp::Put { value, .. } => 1 + KEY_LEN as u32 + value.len() as u32,
        }
    }
}

/// Encode a numeric key id as a fixed 16-byte key ("k" + the id in 15
/// zero-padded decimal digits), written into the array from the right.
///
/// # Panics
/// Panics if `id` needs more than 15 digits (`id >= 10^15`).
pub fn encode_key(id: u64) -> [u8; KEY_LEN] {
    assert!(
        id < 10u64.pow(KEY_LEN as u32 - 1),
        "key id {id} does not fit a key's 15 decimal digits (ids must be below 10^15)"
    );
    let mut k = [b'0'; KEY_LEN];
    k[0] = b'k';
    let (mut rest, mut i) = (id, KEY_LEN);
    while rest != 0 {
        i -= 1;
        k[i] = b'0' + (rest % 10) as u8;
        rest /= 10;
    }
    k
}

/// The KV workload generator.
pub struct KvWorkload {
    zipf: ZipfKeys,
    read_ratio: f64,
    value_len: usize,
    rng: DetRng,
}

impl KvWorkload {
    /// Paper-default workload with values sized so a request fills a packet
    /// of `packet_size` bytes (§5.1: "the value size increases with the
    /// packet size"). Header + key overhead is subtracted.
    pub fn paper_default(packet_size: u32, seed: u64) -> KvWorkload {
        let overhead = 1 + KEY_LEN as u32 + 42; // opcode + key + net headers
        KvWorkload {
            zipf: ZipfKeys::new(DEFAULT_KEYS, DEFAULT_SKEW),
            read_ratio: DEFAULT_READ_RATIO,
            value_len: packet_size.saturating_sub(overhead).max(8) as usize,
            rng: DetRng::new(seed),
        }
    }

    /// Fully parameterized constructor.
    pub fn new(keys: u64, skew: f64, read_ratio: f64, value_len: usize, seed: u64) -> KvWorkload {
        assert!(keys > 0);
        assert!((0.0..=1.0).contains(&read_ratio));
        KvWorkload {
            zipf: ZipfKeys::new(keys, skew),
            read_ratio,
            value_len,
            rng: DetRng::new(seed),
        }
    }

    /// Value length this generator produces.
    pub fn value_len(&self) -> usize {
        self.value_len
    }

    /// Draw the next operation.
    pub fn next_op(&mut self) -> KvOp {
        let key = encode_key(self.zipf.sample(&mut self.rng));
        if self.rng.chance(self.read_ratio) {
            KvOp::Get { key }
        } else {
            let mut value = vec![0u8; self.value_len];
            self.rng.fill_bytes(&mut value);
            KvOp::Put { key, value }
        }
    }

    /// Generate `n` operations.
    pub fn take(&mut self, n: usize) -> Vec<KvOp> {
        (0..n).map(|_| self.next_op()).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn key_encoding_is_fixed_width_and_unique() {
        assert_eq!(encode_key(0).len(), 16);
        assert_eq!(&encode_key(7)[..], b"k000000000000007");
        assert_ne!(encode_key(1), encode_key(10));
        assert_ne!(encode_key(999_999), encode_key(999_998));
    }

    /// Byte-identical to the `format!` it replaced, at every digit-count
    /// boundary up to the 15-digit limit and at 10,000 seeded ids.
    #[test]
    fn key_encoding_matches_format() {
        let old = |id: u64| {
            let mut k = [b'0'; KEY_LEN];
            k[0] = b'k';
            k[1..].copy_from_slice(format!("{id:015}").as_bytes());
            k
        };
        let mut ids = vec![0, 9, 10, 999_999_999_999_999];
        for p in (1..15).map(|k| 10u64.pow(k)) {
            ids.extend([p - 1, p, p + 1]);
        }
        let mut rng = DetRng::new(0x6b6579);
        // Uniform over 1..=15 digit counts, then uniform within one.
        ids.extend((0..10_000).map(|_| {
            let digits = 1 + rng.below(15) as u32;
            rng.below(10u64.pow(digits))
        }));
        for id in ids {
            assert_eq!(encode_key(id), old(id), "id {id}");
        }
    }

    #[test]
    #[should_panic(expected = "key id 1000000000000000 does not fit a key's 15 decimal digits")]
    fn key_ids_past_fifteen_digits_panic() {
        encode_key(10u64.pow(15));
    }

    #[test]
    fn read_write_mix_matches_ratio() {
        let mut w = KvWorkload::paper_default(512, 1);
        let ops = w.take(20_000);
        let reads = ops.iter().filter(|o| o.is_read()).count();
        let ratio = reads as f64 / ops.len() as f64;
        assert!((ratio - 0.95).abs() < 0.01, "ratio={ratio}");
    }

    #[test]
    fn zipf_skew_concentrates_on_hot_keys() {
        let mut w = KvWorkload::paper_default(512, 2);
        let ops = w.take(50_000);
        let hot = ops.iter().filter(|o| o.key() == &encode_key(0)).count();
        // With zipf(1e6, 0.99) the hottest key gets ~4-7% of traffic.
        let frac = hot as f64 / ops.len() as f64;
        assert!(frac > 0.01, "hottest key fraction {frac}");
    }

    #[test]
    fn value_size_scales_with_packet_size() {
        let small = KvWorkload::paper_default(64, 3);
        let large = KvWorkload::paper_default(1024, 3);
        assert!(large.value_len() > small.value_len());
        assert!(large.value_len() < 1024);
    }

    #[test]
    fn determinism() {
        let a: Vec<_> = KvWorkload::paper_default(512, 9).take(100);
        let b: Vec<_> = KvWorkload::paper_default(512, 9).take(100);
        assert_eq!(a, b);
    }

    #[test]
    fn wire_size_accounts_value() {
        let mut w = KvWorkload::new(100, 0.99, 0.0, 64, 4);
        let op = w.next_op();
        assert_eq!(op.wire_size(), 1 + 16 + 64);
        assert!(!op.is_read());
    }
}

//! A `HashMap` for keys the simulator hands out itself.
//!
//! Actor ids, object ids and request tokens are small integers drawn from a
//! counter, so SipHash's flood resistance protects nothing and its cost is
//! paid on every event. [`IdMap`] hashes an integer with one multiply and a
//! fold. The hasher has no per-process seed, so iteration order is a
//! function of the insert/remove history alone. Keep the default hasher for
//! keys that arrive from outside the program.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// `HashMap` with the fixed [`IdHasher`]; build one with `IdMap::default()`.
pub type IdMap<K, V> = HashMap<K, V, BuildHasherDefault<IdHasher>>;

/// Multiplicative (Fibonacci) hasher for integer keys.
#[derive(Debug, Default, Clone, Copy)]
pub struct IdHasher(u64);

impl Hasher for IdHasher {
    /// hashbrown takes the bucket from the low bits and its 7-bit tag from
    /// the top; a product's low bits see only the key's low bits, so fold
    /// the well-mixed high half onto them.
    #[inline]
    fn finish(&self) -> u64 {
        self.0 ^ (self.0 >> 32)
    }

    #[inline]
    fn write_u64(&mut self, n: u64) {
        self.0 = (self.0.rotate_left(5) ^ n).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    }

    #[inline]
    fn write_u32(&mut self, n: u32) {
        self.write_u64(u64::from(n));
    }

    /// Any other key shape still hashes, a byte at a time; the tables in
    /// use never come here.
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(u64::from(b));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::BuildHasher;

    #[test]
    fn same_history_same_iteration_order() {
        let scattered = |k: u64| k.wrapping_mul(0xD134_2543_DE82_EF95) >> 20;
        let build = || {
            let mut m: IdMap<u64, u64> = IdMap::default();
            for k in 0..5_000u64 {
                m.insert(scattered(k), k);
            }
            for k in (0..5_000u64).step_by(3) {
                m.remove(&scattered(k));
            }
            for k in 0..500u64 {
                m.insert(k << 40 | k, k);
            }
            m
        };
        let (a, b) = (build(), build());
        assert_eq!(a.len(), 3_833);
        assert!(a.iter().eq(b.iter()));
    }

    /// The three key shapes in use, 2^17 keys each: no bucket class (low 10
    /// bits) and no tag class (top 7 bits) gets more than twice its share.
    #[test]
    fn buckets_and_tags_spread_for_the_key_shapes_in_use() {
        const N: u64 = 1 << 17;
        let hash = BuildHasherDefault::<IdHasher>::default();
        let worst = |name: &str, hashes: &[u64]| {
            for (what, bits, shift) in [("bucket", 10, 0), ("tag", 7, 57)] {
                let mut classes = vec![0u64; 1 << bits];
                for h in hashes {
                    classes[(h >> shift) as usize & ((1 << bits) - 1)] += 1;
                }
                let mean = hashes.len() as u64 >> bits;
                let max = *classes.iter().max().unwrap();
                assert!(max <= 2 * mean, "{name} {what}: {max} vs mean {mean}");
            }
        };
        // Object ids: dense from 1.
        let dense: Vec<u64> = (1..=N).map(|id| hash.hash_one(id)).collect();
        worst("dense object ids", &dense);
        // Actor ids are u32, cluster-wide: one node sees every 64th.
        let sparse: Vec<u64> = (0..N as u32).map(|i| hash.hash_one(7 + 64 * i)).collect();
        worst("sparse actor ids", &sparse);
        // Request tokens: the client in the high bits, a counter below.
        let tokens: Vec<u64> = (0..N)
            .map(|i| hash.hash_one((i % 8) << 40 | (i / 8)))
            .collect();
        worst("client tokens", &tokens);
    }
}

//! Aggregated multi-user KV stream for the planetary-scale scenarios: the
//! combined traffic of up to millions of modeled users behind **one** source
//! node, expressed as a *token-pure* operation function.
//!
//! Two modeling facts make the aggregation sound:
//!
//! * the superposition of `n` independent per-user Poisson processes at
//!   `r` requests/second each is itself a Poisson process at `n * r` — so
//!   one open-loop generator per source node ([`aggregate_rate`] feeding
//!   `Cluster::set_client_open_loop`) is exactly equivalent to `n` per-user
//!   generator actors, without `n` actors existing;
//! * with homogeneous users, the user behind any given arrival is uniform
//!   over the population, and the key it touches follows the shared Zipf
//!   popularity law — both derivable from the request token alone.
//!
//! Token-purity (the operation is a deterministic function of
//! `(stream seed, token)`, never of draw order) is what lets the client
//! retry machinery rebuild byte-identical payloads for retransmission, and
//! what keeps the stream identical across shard counts: no generator state
//! is shared, so no cross-shard event interleaving can perturb it.

use crate::kv::{encode_key, KvOp};
use ipipe_sim::{DetRng, ZipfKeys};

/// SplitMix64-style mixing of (seed, token) into an independent RNG seed.
fn mix(seed: u64, token: u64) -> u64 {
    let mut z = seed ^ token.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The aggregate arrival rate of `users` independent users each issuing
/// `per_user_rps` requests per second (Poisson superposition).
pub fn aggregate_rate(users: u64, per_user_rps: f64) -> f64 {
    users as f64 * per_user_rps
}

/// Token-pure aggregated KV stream: one instance describes the entire
/// population behind a source node, and [`AggKvStream::op_for`] maps any
/// request token to its operation without mutable state.
#[derive(Debug, Clone, Copy)]
pub struct AggKvStream {
    seed: u64,
    /// Modeled user population behind this source node.
    pub users: u64,
    /// Key popularity law shared by all users, built once per stream.
    zipf: ZipfKeys,
    /// Fraction of operations that are reads.
    pub read_ratio: f64,
    /// Value bytes carried by each write.
    pub value_len: usize,
}

impl AggKvStream {
    /// Fully parameterized constructor.
    pub fn new(
        seed: u64,
        users: u64,
        keys: u64,
        skew: f64,
        read_ratio: f64,
        value_len: usize,
    ) -> AggKvStream {
        assert!(users > 0 && keys > 0);
        assert!((0.0..=1.0).contains(&read_ratio));
        AggKvStream {
            seed,
            users,
            zipf: ZipfKeys::new(keys, skew),
            read_ratio,
            value_len,
        }
    }

    /// The independent RNG stream of one token.
    fn rng_for(&self, token: u64) -> DetRng {
        DetRng::new(mix(self.seed, token))
    }

    /// The user behind request `token` (uniform over the population —
    /// homogeneous users make arrival attribution exchangeable).
    pub fn user_of(&self, token: u64) -> u64 {
        self.rng_for(token).below(self.users)
    }

    /// The operation carried by request `token`: a Zipf-popular key, read
    /// or write by `read_ratio`, values filled from the token's own stream.
    /// Pure: calling twice (e.g. on retransmission) yields identical bytes.
    pub fn op_for(&self, token: u64) -> KvOp {
        let mut rng = self.rng_for(token);
        // Burn the user draw so `user_of` and `op_for` agree on the stream
        // prefix and stay individually stable.
        let _user = rng.below(self.users);
        let key = encode_key(self.zipf.sample(&mut rng));
        if rng.chance(self.read_ratio) {
            KvOp::Get { key }
        } else {
            let mut value = vec![0u8; self.value_len];
            rng.fill_bytes(&mut value);
            KvOp::Put { key, value }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stream() -> AggKvStream {
        AggKvStream::new(42, 1 << 20, 1_000_000, 0.99, 0.95, 32)
    }

    #[test]
    fn op_for_is_token_pure() {
        let s = stream();
        for token in [0u64, 1, 7, 1 << 40, u64::MAX - 3] {
            assert_eq!(s.op_for(token), s.op_for(token), "token={token}");
            assert_eq!(s.user_of(token), s.user_of(token));
        }
        // And stable across instances with the same parameters.
        let t = stream();
        assert_eq!(s.op_for(99), t.op_for(99));
    }

    #[test]
    fn distinct_tokens_draw_distinct_streams() {
        let s = stream();
        let keys: std::collections::BTreeSet<_> = (0..64u64).map(|t| *s.op_for(t).key()).collect();
        // Zipf repeats hot keys, but 64 sequential tokens must not collapse
        // onto a handful of values (the mixer must decorrelate them).
        assert!(keys.len() > 16, "only {} distinct keys", keys.len());
        let users: std::collections::BTreeSet<_> = (0..64u64).map(|t| s.user_of(t)).collect();
        assert!(users.len() > 48, "only {} distinct users", users.len());
    }

    #[test]
    fn mix_matches_read_ratio_and_zipf_skew() {
        let s = stream();
        let n = 20_000u64;
        let mut reads = 0u64;
        let mut hottest = 0u64;
        for token in 0..n {
            let op = s.op_for(token);
            if op.is_read() {
                reads += 1;
            }
            if op.key() == &encode_key(0) {
                hottest += 1;
            }
        }
        let ratio = reads as f64 / n as f64;
        assert!((ratio - 0.95).abs() < 0.01, "ratio={ratio}");
        // zipf(1e6, 0.99): the hottest key draws a few percent of traffic.
        assert!(hottest as f64 / n as f64 > 0.01);
    }

    #[test]
    fn user_attribution_is_roughly_uniform() {
        let s = AggKvStream::new(7, 16, 1000, 0.99, 0.5, 8);
        let mut counts = [0u64; 16];
        for token in 0..16_000u64 {
            counts[s.user_of(token) as usize] += 1;
        }
        for (u, &c) in counts.iter().enumerate() {
            assert!((600..1400).contains(&c), "user {u} got {c}");
        }
    }

    #[test]
    fn aggregate_rate_superposes() {
        assert_eq!(aggregate_rate(1_048_576, 2.5), 1_048_576.0 * 2.5);
    }
}

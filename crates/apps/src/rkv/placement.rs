//! Keyspace placement for the multi-group RKV: a versioned routing table
//! mapping keys → Paxos groups → leader addresses.
//!
//! The keyspace is hash-sharded: a key's FNV-1a-64 digest picks one of
//! `buckets` fixed buckets, and a seeded, exactly-balanced (±1 bucket)
//! bucket→group assignment spreads the buckets over the Paxos groups. The
//! assignment is a pure function of `(seed, buckets, groups)` — every
//! client, every shard and every rerun derives the identical table, which
//! is what keeps the scale scenarios byte-identical across shard counts.
//!
//! Clients consult their copy of the table on every issue and refresh it
//! from `Redirect` replies (`Cluster::set_client_route_refresh` retargets
//! the queued retries; [`RoutingTable::refresh`] steers future issues).
//! Rebalancing never rewrites bucket→group — a hot *group* moves between
//! NIC and host cores via the four-phase actor migration, and leadership
//! hand-offs rewrite group→leader through [`RoutingTable::refresh`],
//! bumping [`RoutingTable::version`] so stale copies are detectable.

use ipipe::actor::Address;
use ipipe_sim::DetRng;

/// FNV-1a 64-bit digest of a key.
fn fnv1a(key: &[u8]) -> u64 {
    let mut h = 0xCBF2_9CE4_8422_2325u64;
    for &b in key {
        h ^= b as u64;
        h = h.wrapping_mul(0x100_0000_01B3);
    }
    h
}

/// Versioned key → group → leader routing table.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RoutingTable {
    /// Bumped on every leader change so stale copies are detectable.
    pub version: u64,
    /// bucket → owning group.
    buckets: Vec<u16>,
    /// group → current leader address (the client's view of it).
    leaders: Vec<Address>,
}

impl RoutingTable {
    /// Build the canonical table: `buckets` hash buckets spread exactly
    /// evenly (±1) over `leaders.len()` groups, shuffled by `seed` so bucket
    /// ranges don't correlate with group indices. Pure in `(seed, buckets,
    /// groups)` — same inputs, same table, everywhere.
    pub fn build(seed: u64, buckets: usize, leaders: Vec<Address>) -> RoutingTable {
        let groups = leaders.len();
        assert!(groups > 0, "at least one group");
        assert!(buckets >= groups, "buckets must cover every group");
        assert!(groups <= u16::MAX as usize, "group id is u16");
        // Round-robin gives exact balance; a seeded Fisher-Yates shuffle
        // removes the bucket↔group correlation without disturbing it.
        let mut assign: Vec<u16> = (0..buckets).map(|b| (b % groups) as u16).collect();
        let mut rng = DetRng::new(seed ^ 0x9E37_79B9_7F4A_7C15);
        for i in (1..buckets).rev() {
            let j = rng.index(i + 1);
            assign.swap(i, j);
        }
        RoutingTable {
            version: 1,
            buckets: assign,
            leaders,
        }
    }

    /// Number of groups.
    pub fn groups(&self) -> usize {
        self.leaders.len()
    }

    /// Number of hash buckets.
    pub fn buckets(&self) -> usize {
        self.buckets.len()
    }

    /// The bucket a key hashes into.
    pub fn bucket_of(&self, key: &[u8]) -> usize {
        (fnv1a(key) % self.buckets.len() as u64) as usize
    }

    /// The group owning a key.
    pub fn group_of(&self, key: &[u8]) -> u16 {
        self.buckets[self.bucket_of(key)]
    }

    /// The current leader address of a group.
    pub fn leader_of(&self, group: u16) -> Address {
        self.leaders[group as usize]
    }

    /// Per-group bucket counts (placement balance diagnostics).
    pub fn loads(&self) -> Vec<usize> {
        let mut loads = vec![0usize; self.leaders.len()];
        for &g in &self.buckets {
            loads[g as usize] += 1;
        }
        loads
    }

    /// Apply a leader move observed via `Redirect`: every group led by
    /// `old` now answers at `new`. Bumps the version if anything changed
    /// and reports whether it did.
    pub fn refresh(&mut self, old: Address, new: Address) -> bool {
        let mut moved = false;
        for l in self.leaders.iter_mut() {
            if *l == old {
                *l = new;
                moved = true;
            }
        }
        if moved {
            self.version += 1;
        }
        moved
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn addr(node: u16, actor: u32) -> Address {
        Address { node, actor }
    }

    fn leaders(n: usize) -> Vec<Address> {
        (0..n).map(|g| addr(g as u16, g as u32)).collect()
    }

    #[test]
    fn same_seed_same_table_different_seed_different_shuffle() {
        let a = RoutingTable::build(9, 1024, leaders(64));
        let b = RoutingTable::build(9, 1024, leaders(64));
        assert_eq!(a, b);
        let c = RoutingTable::build(10, 1024, leaders(64));
        assert_ne!(a.buckets, c.buckets);
    }

    #[test]
    fn placement_is_exactly_balanced() {
        let t = RoutingTable::build(3, 4096, leaders(64));
        let loads = t.loads();
        assert_eq!(loads.iter().sum::<usize>(), 4096);
        assert_eq!(*loads.iter().max().unwrap(), 64);
        assert_eq!(*loads.iter().min().unwrap(), 64);
        // Non-divisible case: ±1.
        let t = RoutingTable::build(3, 1000, leaders(48));
        let loads = t.loads();
        assert!(*loads.iter().max().unwrap() - *loads.iter().min().unwrap() <= 1);
    }

    #[test]
    fn routing_follows_buckets_and_leaders() {
        let t = RoutingTable::build(5, 256, leaders(16));
        let key = b"k000000000000042";
        let b = t.bucket_of(key);
        assert_eq!(b, t.bucket_of(key));
        assert_eq!(t.group_of(key), t.buckets[b]);
    }

    #[test]
    fn refresh_moves_every_group_behind_the_old_leader() {
        let mut t = RoutingTable::build(1, 64, vec![addr(0, 1), addr(0, 1), addr(2, 7)]);
        let v0 = t.version;
        assert!(t.refresh(addr(0, 1), addr(5, 9)));
        assert_eq!(t.leader_of(0), addr(5, 9));
        assert_eq!(t.leader_of(1), addr(5, 9));
        assert_eq!(t.leader_of(2), addr(2, 7));
        assert_eq!(t.version, v0 + 1);
        // A refresh that matches nothing is version-silent.
        assert!(!t.refresh(addr(0, 1), addr(5, 9)));
        assert_eq!(t.version, v0 + 1);
    }
}

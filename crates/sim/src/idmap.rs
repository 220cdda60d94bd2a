//! Tables for keys the simulator hands out itself.
//!
//! Actor ids, object ids and request tokens are small integers drawn from a
//! counter, so SipHash's flood resistance protects nothing and its cost is
//! paid on every event. Two shapes of table serve them:
//!
//! - [`DenseMap`] indexes rows by the id itself: a short `u16` row index per
//!   id and the rows in one contiguous `Vec`. The per-node actor tables (the
//!   runtime's and the scheduler's) use it. No hash, no probe sequence: one
//!   load for the row number, one for the row.
//! - [`IdMap`] and [`IdSet`] hash an integer with one multiply and a fold,
//!   for ids that are sparse or unbounded: request tokens (a client in the
//!   high bits, a counter below), the fig16 baseline's request ids and the
//!   DMO regions keyed by actor. The hasher has no per-process seed, so
//!   iteration order is a function of the insert/remove history alone.
//!
//! DMO object ids go through neither: the object table is a slab of its own
//! (`ipipe::dmo`), its ids a slot and a generation. Keep the default hasher
//! for keys that arrive from outside the program.

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};
use std::ops::Index;

/// `HashMap` with the fixed [`IdHasher`]; build one with `IdMap::default()`.
pub type IdMap<K, V> = HashMap<K, V, BuildHasherDefault<IdHasher>>;

/// `HashSet` with the fixed [`IdHasher`]; build one with `IdSet::default()`.
pub type IdSet<K> = HashSet<K, BuildHasherDefault<IdHasher>>;

/// A map from `u32` ids drawn from a counter to rows kept in one `Vec`.
///
/// `index[id]` holds the id's row plus one (0: absent), two bytes per id up
/// to about the largest id inserted: an id past the end grows the index to
/// the next multiple of 64 entries past it, or to twice its length if that
/// is more, so ids that arrive in rising order reallocate it a logarithmic
/// number of times. Rows sit in insertion order until a removal
/// moves the last row into the hole; iteration follows the rows, so its
/// order is a function of the insert/remove history alone, and callers that
/// pick among rows break ties on the id, not on that order.
#[derive(Debug)]
pub struct DenseMap<V> {
    index: Vec<u16>,
    rows: Vec<(u32, V)>,
}

impl<V> Default for DenseMap<V> {
    fn default() -> DenseMap<V> {
        DenseMap {
            index: Vec::new(),
            rows: Vec::new(),
        }
    }
}

impl<V> DenseMap<V> {
    /// The index's length is a multiple of this.
    const INDEX_STEP: usize = 64;
    /// Ids at or above this are refused: the index would pass 32 MiB.
    const ID_LIMIT: u32 = 1 << 24;

    /// The row of `id`, if present.
    #[inline]
    fn row(&self, id: u32) -> Option<usize> {
        let slot = *self.index.get(id as usize)?;
        usize::from(slot).checked_sub(1)
    }

    /// Number of rows.
    #[inline]
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True with no rows.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// True when `id` has a row.
    #[inline]
    pub fn contains_key(&self, id: u32) -> bool {
        self.row(id).is_some()
    }

    /// The row of `id`.
    #[inline]
    pub fn get(&self, id: u32) -> Option<&V> {
        self.row(id).map(|r| &self.rows[r].1)
    }

    /// The row of `id`, mutably.
    #[inline]
    pub fn get_mut(&mut self, id: u32) -> Option<&mut V> {
        self.row(id).map(|r| &mut self.rows[r].1)
    }

    /// Set `id`'s row to `value`, returning the row it replaces.
    ///
    /// # Panics
    /// If `id` is 2^24 or more, or the map already holds `u16::MAX` rows.
    pub fn insert(&mut self, id: u32, value: V) -> Option<V> {
        if let Some(r) = self.row(id) {
            return Some(std::mem::replace(&mut self.rows[r].1, value));
        }
        assert!(
            id < Self::ID_LIMIT,
            "id {id} is past the dense index's limit"
        );
        let slot = u16::try_from(self.rows.len() + 1).expect("at most u16::MAX rows");
        let at = id as usize;
        if at >= self.index.len() {
            let len = ((at / Self::INDEX_STEP + 1) * Self::INDEX_STEP).max(2 * self.index.len());
            self.index.reserve_exact(len - self.index.len());
            self.index.resize(len, 0);
        }
        self.index[at] = slot;
        self.rows.push((id, value));
        None
    }

    /// Remove `id`'s row and return it. The last row moves into its place.
    pub fn remove(&mut self, id: u32) -> Option<V> {
        let r = self.row(id)?;
        let slot = std::mem::take(&mut self.index[id as usize]);
        let (_, value) = self.rows.swap_remove(r);
        if let Some(&(moved, _)) = self.rows.get(r) {
            self.index[moved as usize] = slot;
        }
        Some(value)
    }

    /// Every `(id, row)`, in row order.
    pub fn iter(&self) -> impl Iterator<Item = (u32, &V)> {
        self.rows.iter().map(|(id, v)| (*id, v))
    }

    /// Every row, in row order.
    pub fn values(&self) -> impl Iterator<Item = &V> {
        self.rows.iter().map(|(_, v)| v)
    }
}

impl<V> Index<u32> for DenseMap<V> {
    type Output = V;

    /// The row of `id`; panics when it has none.
    #[inline]
    fn index(&self, id: u32) -> &V {
        self.get(id).expect("no row for this id")
    }
}

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
    use proptest::prelude::*;
    use std::collections::BTreeMap;
    use std::hash::BuildHasher;

    #[test]
    fn removing_a_middle_row_moves_the_last_into_its_place() {
        let mut m: DenseMap<&str> = DenseMap::default();
        for (id, v) in [(7, "a"), (3, "b"), (40, "c"), (12, "d")] {
            assert_eq!(m.insert(id, v), None);
        }
        assert_eq!(m.remove(3), Some("b"));
        assert_eq!(m.remove(3), None);
        let rows: Vec<(u32, &str)> = m.iter().map(|(id, &v)| (id, v)).collect();
        assert_eq!(rows, [(7, "a"), (12, "d"), (40, "c")]);
        assert_eq!((m[12], m.get(40), m.get(3)), ("d", Some(&"c"), None));
        *m.get_mut(12).unwrap() = "e";
        assert_eq!(m.insert(12, "f"), Some("e"));
        assert_eq!(m.values().copied().collect::<Vec<_>>(), ["a", "f", "c"]);
        assert_eq!(m.len(), 3);
    }

    #[test]
    fn the_index_grows_to_a_step_past_the_id_or_doubles() {
        assert_eq!(DenseMap::<()>::INDEX_STEP, 64);
        let mut m = DenseMap::default();
        let mut lens = Vec::new();
        for id in [5, 63, 64, 300, 330, 639, 640] {
            m.insert(id, ());
            assert_eq!(m.index.capacity(), m.index.len(), "allocated exactly");
            lens.push(m.index.len());
        }
        assert_eq!(lens, [64, 64, 128, 320, 640, 640, 1280]);
        // Lookups past the end read nothing and grow nothing.
        assert_eq!(m.get(u32::MAX), None);
        assert_eq!(m.remove(5_000), None);
        assert_eq!(m.index.len(), 1280);
    }

    #[test]
    #[should_panic(expected = "past the dense index's limit")]
    fn an_id_past_the_limit_is_refused() {
        DenseMap::default().insert(DenseMap::<u8>::ID_LIMIT, 0u8);
    }

    proptest! {
        /// Inserts, removes, gets and `get_mut` writes over ids that cluster
        /// low (so removals hit middle rows, whose hole the last row fills)
        /// and now and then land far past the end: after every step each
        /// lookup, `len` and the iteration as a set agree with a `BTreeMap`.
        #[test]
        fn dense_map_matches_a_btreemap(
            ops in prop::collection::vec(
                (0u8..5, 0u32..40, 0u32..5_000, 0u8..8, any::<u64>()),
                1..300,
            )
        ) {
            let mut map: DenseMap<u64> = DenseMap::default();
            let mut model = BTreeMap::new();
            for (op, low, high, far, value) in ops {
                let id = if far == 0 { high } else { low };
                match op {
                    0 | 1 => prop_assert_eq!(map.insert(id, value), model.insert(id, value)),
                    2 => prop_assert_eq!(map.remove(id), model.remove(&id)),
                    3 => prop_assert_eq!(map.get(id), model.get(&id)),
                    _ => {
                        let (got, want) = (map.get_mut(id), model.get_mut(&id));
                        prop_assert_eq!(got.is_some(), want.is_some());
                        if let (Some(got), Some(want)) = (got, want) {
                            (*got, *want) = (value, value);
                        }
                    }
                }
                prop_assert_eq!(map.len(), model.len());
                prop_assert_eq!(map.is_empty(), model.is_empty());
                let rows: BTreeMap<u32, u64> = map.iter().map(|(id, &v)| (id, v)).collect();
                prop_assert_eq!(rows.len(), map.len());
                prop_assert_eq!(&rows, &model);
                let mut values: Vec<u64> = map.values().copied().collect();
                values.sort_unstable();
                let mut want: Vec<u64> = model.values().copied().collect();
                want.sort_unstable();
                prop_assert_eq!(values, want);
                for probe in [low, high, high + 1] {
                    prop_assert_eq!(map.contains_key(probe), model.contains_key(&probe));
                    prop_assert_eq!(map.get(probe), model.get(&probe));
                }
            }
        }
    }

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

    /// The three key shapes still hashed, 2^17 keys each: no bucket class
    /// (low 10 bits) and no tag class (top 7 bits) gets more than twice its
    /// share.
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
        // The fig16 baseline's request ids: dense from 0.
        let dense: Vec<u64> = (0..N).map(|id| hash.hash_one(id)).collect();
        worst("dense request ids", &dense);
        // DMO regions are keyed by actor id, u32 and cluster-wide: one node
        // sees every 64th.
        let sparse: Vec<u64> = (0..N as u32).map(|i| hash.hash_one(7 + 64 * i)).collect();
        worst("sparse actor ids", &sparse);
        // Request tokens: the client in the high bits, a counter below.
        let tokens: Vec<u64> = (0..N)
            .map(|i| hash.hash_one((i % 8) << 40 | (i / 8)))
            .collect();
        worst("client tokens", &tokens);
    }
}

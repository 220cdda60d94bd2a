//! The log-structured merge tree behind the replicated KV store (§4).
//!
//! The paper's split: the *Memtable* (a DMO Skip List, `ipipe::skiplist`)
//! lives with the Memtable actor; this module implements everything below
//! it — SSTables, leveled organization with exponentially growing size
//! limits, minor/major compaction, tombstone deletes, and multi-level
//! lookups — the state of the host-pinned SSTable-read and compaction
//! actors.

/// Fixed key width (matches the workload generator and the DMO Skip List).
pub const KEY_LEN: usize = 16;
/// Key type.
pub type Key = [u8; KEY_LEN];

/// An immutable sorted run. `None` values are deletion markers
/// (tombstones), which the paper notes are "a special case of insertions".
/// Each table carries a Bloom filter (LevelDB-style, 10 bits/key) so point
/// reads skip tables that cannot hold the key.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SsTable {
    entries: Vec<(Key, Option<Vec<u8>>)>,
    bytes: u64,
    bloom: super::bloom::BloomFilter,
}

impl SsTable {
    /// Build from entries that must be key-sorted and deduplicated.
    pub fn from_sorted(entries: Vec<(Key, Option<Vec<u8>>)>) -> SsTable {
        debug_assert!(
            entries.windows(2).all(|w| w[0].0 < w[1].0),
            "unsorted SSTable"
        );
        let bytes = entries
            .iter()
            .map(|(_, v)| KEY_LEN as u64 + v.as_ref().map(|v| v.len() as u64).unwrap_or(1))
            .sum();
        let mut bloom = super::bloom::BloomFilter::new(entries.len(), 10);
        for (k, _) in &entries {
            bloom.insert(k);
        }
        SsTable {
            entries,
            bytes,
            bloom,
        }
    }

    /// Bloom check: false means the key is definitely not in this table.
    pub fn may_contain(&self, key: &Key) -> bool {
        self.bloom.may_contain(key)
    }

    /// Number of entries (tombstones included).
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Approximate on-disk size.
    pub fn bytes(&self) -> u64 {
        self.bytes
    }

    /// Smallest key (None when empty).
    pub fn min_key(&self) -> Option<&Key> {
        self.entries.first().map(|(k, _)| k)
    }

    /// Largest key.
    pub fn max_key(&self) -> Option<&Key> {
        self.entries.last().map(|(k, _)| k)
    }

    /// Binary-search lookup. `Some(None)` means a tombstone was found (the
    /// key is definitively deleted); `None` means this table has no opinion.
    /// The Bloom filter short-circuits misses.
    pub fn get(&self, key: &Key) -> Option<Option<&[u8]>> {
        if !self.bloom.may_contain(key) {
            return None;
        }
        self.entries
            .binary_search_by(|(k, _)| k.cmp(key))
            .ok()
            .map(|i| self.entries[i].1.as_deref())
    }

    /// Key-range overlap test, used to pick merge inputs.
    pub fn overlaps(&self, other: &SsTable) -> bool {
        match (
            self.min_key(),
            self.max_key(),
            other.min_key(),
            other.max_key(),
        ) {
            (Some(a0), Some(a1), Some(b0), Some(b1)) => a0 <= b1 && b0 <= a1,
            _ => false,
        }
    }

    /// Merge several runs, newest first. On duplicate keys the newest value
    /// wins. Tombstones are kept unless `drop_tombstones` (bottom level).
    pub fn merge(inputs: &[&SsTable], drop_tombstones: bool) -> SsTable {
        // k-way merge via indices, newest-first priority on equal keys.
        let mut idx = vec![0usize; inputs.len()];
        let mut out: Vec<(Key, Option<Vec<u8>>)> = Vec::new();
        loop {
            // Find the smallest head key; among equals the earliest input
            // (newest run) wins and the others advance.
            let mut best: Option<(usize, Key)> = None;
            for (i, table) in inputs.iter().enumerate() {
                if let Some((k, _)) = table.entries.get(idx[i]) {
                    match best {
                        None => best = Some((i, *k)),
                        Some((_, bk)) if *k < bk => best = Some((i, *k)),
                        _ => {}
                    }
                }
            }
            let Some((winner, key)) = best else { break };
            let value = inputs[winner].entries[idx[winner]].1.clone();
            // Advance every input sitting on this key.
            for (i, table) in inputs.iter().enumerate() {
                if table.entries.get(idx[i]).map(|(k, _)| k) == Some(&key) {
                    idx[i] += 1;
                }
            }
            if value.is_some() || !drop_tombstones {
                out.push((key, value));
            }
        }
        SsTable::from_sorted(out)
    }
}

/// The leveled SSTable organization: "each level has a size limit on its
/// SSTables, and this limit grows exponentially with the level number".
#[derive(Debug)]
pub struct Levels {
    levels: Vec<Vec<SsTable>>,
    /// Size limit of level 0 in bytes.
    base_limit: u64,
    /// Limit multiplier per level.
    growth: u64,
}

impl Levels {
    /// Leveled store with `base_limit` bytes at L0 growing by `growth`× per
    /// level.
    pub fn new(base_limit: u64, growth: u64) -> Levels {
        assert!(base_limit > 0 && growth >= 2);
        Levels {
            levels: vec![Vec::new()],
            base_limit,
            growth,
        }
    }

    /// LevelDB-flavoured defaults: 4 MB L0, 10x growth.
    pub fn leveldb_default() -> Levels {
        Levels::new(4 << 20, 10)
    }

    /// Size limit of a level.
    pub fn limit(&self, level: usize) -> u64 {
        self.base_limit * self.growth.pow(level as u32)
    }

    /// Number of levels currently materialized.
    pub fn depth(&self) -> usize {
        self.levels.len()
    }

    /// Total bytes at a level.
    pub fn level_bytes(&self, level: usize) -> u64 {
        self.levels
            .get(level)
            .map(|v| v.iter().map(SsTable::bytes).sum())
            .unwrap_or(0)
    }

    /// Minor compaction: flush a frozen Memtable into level 0, then cascade
    /// major compactions while any level exceeds its limit.
    pub fn flush_memtable(&mut self, entries: Vec<(Key, Option<Vec<u8>>)>) {
        if entries.is_empty() {
            return;
        }
        self.levels[0].push(SsTable::from_sorted(entries));
        self.maybe_compact();
    }

    /// Major compaction pass (public so the compaction actor can drive it).
    pub fn maybe_compact(&mut self) {
        let mut level = 0;
        while level < self.levels.len() {
            if self.level_bytes(level) <= self.limit(level) {
                level += 1;
                continue;
            }
            if self.levels.len() == level + 1 {
                self.levels.push(Vec::new());
            }
            // Merge the whole offending level with the overlapping tables of
            // the next one (simple whole-level compaction, as in the paper's
            // "low-level SSTables are merged into high-level ones").
            let upper: Vec<SsTable> = std::mem::take(&mut self.levels[level]);
            let mut lower_keep = Vec::new();
            let mut lower_merge = Vec::new();
            for t in std::mem::take(&mut self.levels[level + 1]) {
                if upper.iter().any(|u| u.overlaps(&t)) {
                    lower_merge.push(t);
                } else {
                    lower_keep.push(t);
                }
            }
            // Newest first: L(level) tables were pushed in age order (oldest
            // first), so reverse; they all precede level+1 tables.
            let mut inputs: Vec<&SsTable> = upper.iter().rev().collect();
            inputs.extend(lower_merge.iter());
            let is_bottom = level + 2 == self.levels.len() && self.levels[level + 1].is_empty();
            let merged = SsTable::merge(&inputs, is_bottom && lower_keep.is_empty());
            let mut next = lower_keep;
            if !merged.is_empty() {
                next.push(merged);
            }
            self.levels[level + 1] = next;
            level += 1;
        }
    }

    /// Multi-level lookup (paper: "starting with level 0 and moving to high
    /// levels until a matching key is found"). L0 tables are searched newest
    /// first because they may overlap; Bloom filters skip non-holding tables.
    pub fn get(&self, key: &Key) -> Option<Vec<u8>> {
        for (li, level) in self.levels.iter().enumerate() {
            let iter: Box<dyn Iterator<Item = &SsTable>> = if li == 0 {
                Box::new(level.iter().rev())
            } else {
                Box::new(level.iter())
            };
            for table in iter {
                if let Some(hit) = table.get(key) {
                    return hit.map(|v| v.to_vec());
                }
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;

    fn key(i: u64) -> Key {
        let mut k = [0u8; KEY_LEN];
        k[8..].copy_from_slice(&i.to_be_bytes());
        k
    }

    fn table(pairs: &[(u64, Option<&str>)]) -> SsTable {
        SsTable::from_sorted(
            pairs
                .iter()
                .map(|(k, v)| (key(*k), v.map(|s| s.as_bytes().to_vec())))
                .collect(),
        )
    }

    #[test]
    fn sstable_get_and_bounds() {
        let t = table(&[(1, Some("a")), (5, None), (9, Some("c"))]);
        assert_eq!(t.get(&key(1)), Some(Some(b"a".as_ref())));
        assert_eq!(t.get(&key(5)), Some(None), "tombstone is a definitive hit");
        assert_eq!(t.get(&key(2)), None);
        assert_eq!(t.min_key(), Some(&key(1)));
        assert_eq!(t.max_key(), Some(&key(9)));
        assert_eq!(t.len(), 3);
    }

    #[test]
    fn overlap_detection() {
        let a = table(&[(1, Some("x")), (5, Some("y"))]);
        let b = table(&[(5, Some("z")), (9, Some("w"))]);
        let c = table(&[(10, Some("v")), (20, Some("u"))]);
        assert!(a.overlaps(&b));
        assert!(!a.overlaps(&c));
        assert!(!b.overlaps(&c));
    }

    #[test]
    fn merge_newest_wins_and_tombstones() {
        let newest = table(&[(1, Some("new")), (2, None)]);
        let oldest = table(&[(1, Some("old")), (2, Some("stale")), (3, Some("keep"))]);
        let m = SsTable::merge(&[&newest, &oldest], false);
        assert_eq!(m.get(&key(1)), Some(Some(b"new".as_ref())));
        assert_eq!(
            m.get(&key(2)),
            Some(None),
            "tombstone survives mid-tree merges"
        );
        assert_eq!(m.get(&key(3)), Some(Some(b"keep".as_ref())));
        // At the bottom level tombstones are dropped.
        let m = SsTable::merge(&[&newest, &oldest], true);
        assert_eq!(m.get(&key(2)), None);
        assert_eq!(m.len(), 2);
    }

    #[test]
    fn levels_flush_and_lookup() {
        let mut l = Levels::new(200, 10);
        l.flush_memtable(vec![
            (key(1), Some(b"v1".to_vec())),
            (key(2), Some(b"v2".to_vec())),
        ]);
        assert_eq!(l.get(&key(1)), Some(b"v1".to_vec()));
        assert_eq!(l.get(&key(3)), None);
        // A newer flush shadows the old value (L0 searched newest-first).
        l.flush_memtable(vec![(key(1), Some(b"v1b".to_vec()))]);
        assert_eq!(l.get(&key(1)), Some(b"v1b".to_vec()));
        // Delete via tombstone.
        l.flush_memtable(vec![(key(2), None)]);
        assert_eq!(l.get(&key(2)), None);
    }

    #[test]
    fn exponential_limits_and_cascading_compaction() {
        let mut l = Levels::new(100, 10);
        assert_eq!(l.limit(0), 100);
        assert_eq!(l.limit(2), 10_000);
        // Push enough data through L0 that it spills to L1.
        for batch in 0..20u64 {
            let entries: Vec<_> = (0..8)
                .map(|i| (key(batch * 8 + i), Some(vec![b'x'; 16])))
                .collect();
            l.flush_memtable(entries);
        }
        assert!(l.depth() >= 2, "L0 must have overflowed");
        assert!(
            l.level_bytes(0) <= l.limit(0),
            "L0 compacted back under its limit"
        );
        // All data still readable after compactions.
        for i in 0..160u64 {
            assert_eq!(l.get(&key(i)), Some(vec![b'x'; 16]), "key {i}");
        }
    }

    #[test]
    fn model_check_against_btreemap() {
        let mut model: BTreeMap<Key, Option<Vec<u8>>> = BTreeMap::new();
        let mut l = Levels::new(300, 4);
        let mut rng = ipipe_sim::DetRng::new(42);
        let mut mem: BTreeMap<Key, Option<Vec<u8>>> = BTreeMap::new();
        for step in 0..4000u64 {
            let k = key(rng.below(200));
            match rng.below(10) {
                0..=6 => {
                    let v = Some(step.to_le_bytes().to_vec());
                    mem.insert(k, v.clone());
                    model.insert(k, v);
                }
                7 => {
                    mem.insert(k, None);
                    model.insert(k, None);
                }
                _ => {
                    // Read path: memtable first, then levels.
                    let got = match mem.get(&k) {
                        Some(v) => v.clone(),
                        None => l.get(&k),
                    };
                    let want = model.get(&k).cloned().flatten();
                    assert_eq!(got, want, "step {step}");
                }
            }
            // Periodic minor compaction.
            if mem.len() >= 32 {
                l.flush_memtable(std::mem::take(&mut mem).into_iter().collect());
            }
        }
        // Final flush and full sweep.
        l.flush_memtable(mem.into_iter().collect());
        for i in 0..200u64 {
            let want = model.get(&key(i)).cloned().flatten();
            assert_eq!(l.get(&key(i)), want, "final key {i}");
        }
    }
}

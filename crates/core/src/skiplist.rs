//! A Skip List indexed by object IDs instead of pointers (§3.3, Fig 12b).
//!
//! This is the paper's worked example of designing a data structure over
//! DMOs: a traditional Skip List node holds a value pointer and forward
//! pointers; the DMO version replaces both with object IDs, giving the
//! runtime the indirection it needs to relocate the whole structure during
//! actor migration without touching the actor's logical state. The LSM
//! Memtable of the replicated key-value store (§4) is built on this.

use crate::dmo::{ActorDmo, DmoError, ObjectId};
use ipipe_sim::DetRng;

/// Fixed key width (the RKV workload uses 16-byte keys, §5.1).
pub const KEY_LEN: usize = 16;

/// Ordered `(key, value)` pairs as returned by a full traversal.
pub type KvPairs = Vec<([u8; KEY_LEN], Vec<u8>)>;
/// Maximum tower height.
pub const MAX_LEVEL: usize = 12;

const OFF_KEY: u64 = 0;
const OFF_VAL: u64 = 16;
const OFF_LEVEL: u64 = 24;
const OFF_FWD: u64 = 32;
/// Serialized size of one node object.
pub const NODE_BYTES: u64 = OFF_FWD + 8 * MAX_LEVEL as u64;

/// A DMO-backed skip list. The struct itself holds only object IDs and
/// counters — exactly the state that migrates for free.
#[derive(Debug, Clone, Copy)]
pub struct DmoSkipList {
    head: ObjectId,
    len: u64,
    level: usize,
}

impl DmoSkipList {
    /// Create the list, allocating its head node in the actor's region.
    pub fn create(dmo: &mut ActorDmo<'_>) -> Result<DmoSkipList, DmoError> {
        let head = dmo.malloc(NODE_BYTES)?;
        // Head has the maximum level and null forwards.
        dmo.write_u64(head, OFF_LEVEL, MAX_LEVEL as u64)?;
        Ok(DmoSkipList {
            head,
            len: 0,
            level: 1,
        })
    }

    /// Number of keys stored.
    pub fn len(&self) -> u64 {
        self.len
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    fn fwd(dmo: &mut ActorDmo<'_>, node: ObjectId, lvl: usize) -> Result<ObjectId, DmoError> {
        Ok(ObjectId(dmo.read_u64(node, OFF_FWD + 8 * lvl as u64)?))
    }

    fn set_fwd(
        dmo: &mut ActorDmo<'_>,
        node: ObjectId,
        lvl: usize,
        to: ObjectId,
    ) -> Result<(), DmoError> {
        dmo.write_u64(node, OFF_FWD + 8 * lvl as u64, to.0)
    }

    fn key_of(dmo: &mut ActorDmo<'_>, node: ObjectId) -> Result<[u8; KEY_LEN], DmoError> {
        dmo.read_array(node, OFF_KEY)
    }

    fn random_level(rng: &mut DetRng) -> usize {
        let mut lvl = 1;
        while lvl < MAX_LEVEL && rng.chance(0.5) {
            lvl += 1;
        }
        lvl
    }

    /// Walk down/right collecting the rightmost node < `key` at each level.
    fn find_update(
        &self,
        dmo: &mut ActorDmo<'_>,
        key: &[u8; KEY_LEN],
    ) -> Result<[ObjectId; MAX_LEVEL], DmoError> {
        let mut update = [self.head; MAX_LEVEL];
        let mut x = self.head;
        for lvl in (0..self.level).rev() {
            loop {
                let next = Self::fwd(dmo, x, lvl)?;
                if next.is_null() || &Self::key_of(dmo, next)? >= key {
                    break;
                }
                x = next;
            }
            update[lvl] = x;
        }
        Ok(update)
    }

    /// Insert or replace `key` -> `value`. The value is stored in its own
    /// DMO referenced by id (Fig 12b's `val_object`). Returns true when the
    /// key was newly inserted, false when an existing value was replaced.
    pub fn insert(
        &mut self,
        dmo: &mut ActorDmo<'_>,
        rng: &mut DetRng,
        key: &[u8; KEY_LEN],
        value: &[u8],
    ) -> Result<bool, DmoError> {
        let update = self.find_update(dmo, key)?;
        let candidate = Self::fwd(dmo, update[0], 0)?;
        // Replace in place if the key exists.
        if !candidate.is_null() && &Self::key_of(dmo, candidate)? == key {
            let old_val = ObjectId(dmo.read_u64(candidate, OFF_VAL)?);
            if !old_val.is_null() {
                dmo.free(old_val)?;
            }
            let val_obj = dmo.malloc(value.len().max(1) as u64)?;
            dmo.write(val_obj, 0, value)?;
            dmo.write_u64(candidate, OFF_VAL, val_obj.0)?;
            return Ok(false);
        }

        let lvl = Self::random_level(rng);
        let node = dmo.malloc(NODE_BYTES)?;
        let val_obj = dmo.malloc(value.len().max(1) as u64)?;
        dmo.write(val_obj, 0, value)?;
        if lvl > self.level {
            self.level = lvl;
        }
        // Top level first: the node's first access reaches its highest
        // forward word, so its bytes are allocated once, at 32 + 8·lvl, and
        // the levels it never has are never held.
        for (l, &prev) in update.iter().enumerate().take(lvl).rev() {
            let next = Self::fwd(dmo, prev, l)?;
            Self::set_fwd(dmo, node, l, next)?;
            Self::set_fwd(dmo, prev, l, node)?;
        }
        dmo.write(node, OFF_KEY, key)?;
        dmo.write_u64(node, OFF_VAL, val_obj.0)?;
        dmo.write_u64(node, OFF_LEVEL, lvl as u64)?;
        self.len += 1;
        Ok(true)
    }

    /// Look up `key`, returning its value bytes.
    pub fn get(
        &self,
        dmo: &mut ActorDmo<'_>,
        key: &[u8; KEY_LEN],
    ) -> Result<Option<Vec<u8>>, DmoError> {
        let update = self.find_update(dmo, key)?;
        let candidate = Self::fwd(dmo, update[0], 0)?;
        if candidate.is_null() || &Self::key_of(dmo, candidate)? != key {
            return Ok(None);
        }
        let val_obj = ObjectId(dmo.read_u64(candidate, OFF_VAL)?);
        let len = dmo.size_of(val_obj)?;
        Ok(Some(dmo.read(val_obj, 0, len)?))
    }

    /// Remove `key`, freeing its node and value objects. Returns true when
    /// the key was present.
    pub fn remove(
        &mut self,
        dmo: &mut ActorDmo<'_>,
        key: &[u8; KEY_LEN],
    ) -> Result<bool, DmoError> {
        let update = self.find_update(dmo, key)?;
        let target = Self::fwd(dmo, update[0], 0)?;
        if target.is_null() || &Self::key_of(dmo, target)? != key {
            return Ok(false);
        }
        let lvl = dmo.read_u64(target, OFF_LEVEL)? as usize;
        for (l, &prev) in update.iter().enumerate().take(lvl) {
            if Self::fwd(dmo, prev, l)? == target {
                let next = Self::fwd(dmo, target, l)?;
                Self::set_fwd(dmo, prev, l, next)?;
            }
        }
        let val_obj = ObjectId(dmo.read_u64(target, OFF_VAL)?);
        if !val_obj.is_null() {
            dmo.free(val_obj)?;
        }
        dmo.free(target)?;
        self.len -= 1;
        // Shrink the live level.
        while self.level > 1 && Self::fwd(dmo, self.head, self.level - 1)?.is_null() {
            self.level -= 1;
        }
        Ok(true)
    }

    /// In-order traversal of (key, value) pairs — the Memtable flush path.
    pub fn iter_all(&self, dmo: &mut ActorDmo<'_>) -> Result<KvPairs, DmoError> {
        let mut out = Vec::with_capacity(self.len as usize);
        let mut x = Self::fwd(dmo, self.head, 0)?;
        while !x.is_null() {
            let key = Self::key_of(dmo, x)?;
            let val_obj = ObjectId(dmo.read_u64(x, OFF_VAL)?);
            let len = dmo.size_of(val_obj)?;
            out.push((key, dmo.read(val_obj, 0, len)?));
            x = Self::fwd(dmo, x, 0)?;
        }
        Ok(out)
    }

    /// Free every node and value (after a flush). The head survives so the
    /// list can be reused.
    pub fn clear(&mut self, dmo: &mut ActorDmo<'_>) -> Result<(), DmoError> {
        let mut x = Self::fwd(dmo, self.head, 0)?;
        while !x.is_null() {
            let next = Self::fwd(dmo, x, 0)?;
            let val_obj = ObjectId(dmo.read_u64(x, OFF_VAL)?);
            if !val_obj.is_null() {
                dmo.free(val_obj)?;
            }
            dmo.free(x)?;
            x = next;
        }
        for l in 0..MAX_LEVEL {
            Self::set_fwd(dmo, self.head, l, ObjectId::NULL)?;
        }
        self.len = 0;
        self.level = 1;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dmo::{DmoTable, DmoTraffic, Side};

    fn setup() -> (DmoTable, DetRng) {
        let mut t = DmoTable::new(Side::Nic);
        t.register_region(1, 64 << 20);
        (t, DetRng::new(42))
    }

    fn key(i: u64) -> [u8; KEY_LEN] {
        let mut k = [0u8; KEY_LEN];
        k[8..].copy_from_slice(&i.to_be_bytes());
        k
    }

    #[test]
    fn insert_get_roundtrip() {
        let (mut t, mut rng) = setup();
        let mut dmo = t.scoped(1);
        let mut sl = DmoSkipList::create(&mut dmo).unwrap();
        assert!(sl.is_empty());
        for i in 0..100 {
            assert!(sl
                .insert(&mut dmo, &mut rng, &key(i), format!("v{i}").as_bytes())
                .unwrap());
        }
        assert_eq!(sl.len(), 100);
        for i in 0..100 {
            assert_eq!(
                sl.get(&mut dmo, &key(i)).unwrap().unwrap(),
                format!("v{i}").as_bytes()
            );
        }
        assert_eq!(sl.get(&mut dmo, &key(1000)).unwrap(), None);
    }

    #[test]
    fn replace_updates_value_without_growing() {
        let (mut t, mut rng) = setup();
        let mut dmo = t.scoped(1);
        let mut sl = DmoSkipList::create(&mut dmo).unwrap();
        assert!(sl.insert(&mut dmo, &mut rng, &key(5), b"first").unwrap());
        assert!(!sl
            .insert(&mut dmo, &mut rng, &key(5), b"second-longer")
            .unwrap());
        assert_eq!(sl.len(), 1);
        assert_eq!(
            sl.get(&mut dmo, &key(5)).unwrap().unwrap(),
            b"second-longer"
        );
    }

    #[test]
    fn remove_relinks_and_frees() {
        let (mut t, mut rng) = setup();
        {
            let mut dmo = t.scoped(1);
            let mut sl = DmoSkipList::create(&mut dmo).unwrap();
            for i in 0..50 {
                sl.insert(&mut dmo, &mut rng, &key(i), b"val").unwrap();
            }
            for i in (0..50).step_by(2) {
                assert!(sl.remove(&mut dmo, &key(i)).unwrap());
            }
            assert!(!sl.remove(&mut dmo, &key(0)).unwrap());
            assert_eq!(sl.len(), 25);
            for i in 0..50 {
                let got = sl.get(&mut dmo, &key(i)).unwrap();
                assert_eq!(got.is_some(), i % 2 == 1, "key {i}");
            }
        }
    }

    #[test]
    fn iteration_is_sorted() {
        let (mut t, mut rng) = setup();
        let mut dmo = t.scoped(1);
        let mut sl = DmoSkipList::create(&mut dmo).unwrap();
        // Insert in reverse order.
        for i in (0..200).rev() {
            sl.insert(&mut dmo, &mut rng, &key(i), &i.to_le_bytes())
                .unwrap();
        }
        let all = sl.iter_all(&mut dmo).unwrap();
        assert_eq!(all.len(), 200);
        for (i, (k, v)) in all.iter().enumerate() {
            assert_eq!(k, &key(i as u64));
            assert_eq!(v, &(i as u64).to_le_bytes());
        }
    }

    #[test]
    fn clear_releases_region_space() {
        let (mut t, mut rng) = setup();
        let mut dmo = t.scoped(1);
        let mut sl = DmoSkipList::create(&mut dmo).unwrap();
        for i in 0..100 {
            sl.insert(&mut dmo, &mut rng, &key(i), &[0u8; 100]).unwrap();
        }
        let _ = dmo;
        let (used_full, _) = t.region_usage(1).unwrap();
        let mut dmo = t.scoped(1);
        sl.clear(&mut dmo).unwrap();
        assert_eq!(sl.len(), 0);
        assert_eq!(sl.get(&mut dmo, &key(3)).unwrap(), None);
        let _ = dmo;
        let (used_after, _) = t.region_usage(1).unwrap();
        assert!(used_after < used_full / 10, "{used_after} vs {used_full}");
        // Reusable after clear.
        let mut dmo = t.scoped(1);
        sl.insert(&mut dmo, &mut rng, &key(7), b"again").unwrap();
        assert_eq!(sl.get(&mut dmo, &key(7)).unwrap().unwrap(), b"again");
    }

    /// The modelled cost of a fixed run. `DmoTraffic` feeds simulated time
    /// (`nic_mem_time`, `dmo_translate_cost`), so these totals may only move
    /// with the list's algorithm, never with how the table finds an object.
    #[test]
    fn modelled_traffic_of_a_fixed_run_is_pinned() {
        let (mut t, mut rng) = setup();
        let mut dmo = t.scoped(1);
        let mut sl = DmoSkipList::create(&mut dmo).unwrap();
        let mut op_rng = DetRng::new(17);
        for step in 0..1000u64 {
            let k = key(op_rng.below(600));
            sl.insert(&mut dmo, &mut rng, &k, &step.to_le_bytes())
                .unwrap();
        }
        let mut hits = 0;
        for _ in 0..1000 {
            hits += sl.get(&mut dmo, &key(op_rng.below(600))).unwrap().is_some() as u32;
        }
        let mut removed = 0;
        for _ in 0..100 {
            removed += sl.remove(&mut dmo, &key(op_rng.below(600))).unwrap() as u32;
        }
        assert_eq!((sl.len(), hits, removed), (425, 831, 76));
        assert_eq!(
            t.take_traffic(),
            DmoTraffic {
                lookups: 80_625,
                bytes: 918_056
            }
        );
    }

    /// Every node holds exactly its header and the forward words of its
    /// level: the insert links the tower top-down, so the node's first
    /// access is its highest word and the bytes above it are never held.
    #[test]
    fn every_node_holds_exactly_its_tower() {
        let (mut t, mut rng) = setup();
        let mut dmo = t.scoped(1);
        let mut sl = DmoSkipList::create(&mut dmo).unwrap();
        let mut op_rng = DetRng::new(23);
        for step in 0..2000u64 {
            let k = key(op_rng.below(1500));
            sl.insert(&mut dmo, &mut rng, &k, &step.to_le_bytes())
                .unwrap();
        }
        let mut nodes = Vec::new();
        let mut x = DmoSkipList::fwd(&mut dmo, sl.head, 0).unwrap();
        while !x.is_null() {
            nodes.push((x, dmo.read_u64(x, OFF_LEVEL).unwrap()));
            x = DmoSkipList::fwd(&mut dmo, x, 0).unwrap();
        }
        assert_eq!(nodes.len() as u64, sl.len());
        let levels: std::collections::BTreeSet<u64> = nodes.iter().map(|&(_, l)| l).collect();
        assert!(levels.len() >= 5, "{levels:?}");
        for (node, level) in nodes {
            assert_eq!(t.held_bytes(node) as u64, OFF_FWD + 8 * level, "{node:?}");
        }
    }

    #[test]
    fn random_interleaving_matches_btreemap() {
        use std::collections::BTreeMap;
        let (mut t, mut rng) = setup();
        let mut dmo = t.scoped(1);
        let mut sl = DmoSkipList::create(&mut dmo).unwrap();
        let mut model: BTreeMap<[u8; KEY_LEN], Vec<u8>> = BTreeMap::new();
        let mut op_rng = DetRng::new(7);
        for step in 0..3000u64 {
            let k = key(op_rng.below(300));
            match op_rng.below(3) {
                0 | 1 => {
                    let v = step.to_le_bytes().to_vec();
                    sl.insert(&mut dmo, &mut rng, &k, &v).unwrap();
                    model.insert(k, v);
                }
                _ => {
                    let in_sl = sl.remove(&mut dmo, &k).unwrap();
                    let in_model = model.remove(&k).is_some();
                    assert_eq!(in_sl, in_model, "step {step}");
                }
            }
        }
        assert_eq!(sl.len() as usize, model.len());
        let all = sl.iter_all(&mut dmo).unwrap();
        let expect: Vec<_> = model.into_iter().collect();
        assert_eq!(all, expect);
    }
}

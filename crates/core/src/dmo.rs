//! Distributed memory objects (§3.3, Fig 12a).
//!
//! A DMO is a chunk of memory owned by exactly one actor, addressed by an
//! *object ID* rather than a pointer, so its physical location can change
//! (NIC ↔ host) during actor migration without touching actor state. Both
//! sides keep an object table; at any instant a DMO has exactly one copy.
//! Reads and writes are always local — iPipe never lets an actor touch an
//! object across PCIe (remote memory is ~10× slower, §2.2).
//!
//! Isolation (§3.4): each registered actor gets a fixed-capacity region;
//! allocations beyond it fail, and any access to an object the actor does
//! not own traps ([`DmoError::Protection`] — the software-managed-TLB trap
//! on the LiquidIO firmware).

use crate::actor::ActorId;
use ipipe_sim::{IdMap, SimTime};
use std::collections::hash_map::Entry;

/// Which side of the PCIe bus an object currently lives on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Side {
    /// SmartNIC onboard DRAM.
    Nic,
    /// Host DRAM.
    Host,
}

/// Handle to a distributed memory object.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ObjectId(pub u64);

impl ObjectId {
    /// The null object (never allocated).
    pub const NULL: ObjectId = ObjectId(0);

    /// True for the null handle.
    pub fn is_null(self) -> bool {
        self.0 == 0
    }
}

/// DMO operation failures.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DmoError {
    /// The actor's region is exhausted (§3.3: "the DMO allocation will fail").
    OutOfMemory {
        /// Requesting actor.
        actor: ActorId,
    },
    /// Access to an object the actor does not own — the simulated TLB trap.
    Protection {
        /// Offending actor.
        actor: ActorId,
        /// Object it tried to touch.
        object: ObjectId,
    },
    /// Unknown or freed object.
    NoSuchObject(ObjectId),
    /// Offset/length outside the object.
    OutOfBounds {
        /// Object accessed.
        object: ObjectId,
        /// Requested offset.
        offset: u64,
        /// Requested length.
        len: u64,
    },
}

struct DmoEntry {
    owner: ActorId,
    side: Side,
    data: Vec<u8>,
}

#[derive(Debug, Clone, Copy)]
struct Region {
    capacity: u64,
    used: u64,
}

/// The owner check on the result of a table probe: `found` is `actor`'s
/// object `obj`, or the access traps.
fn owned<E: std::ops::Deref<Target = DmoEntry>>(
    found: Option<E>,
    actor: ActorId,
    obj: ObjectId,
) -> Result<E, DmoError> {
    match found {
        None => Err(DmoError::NoSuchObject(obj)),
        Some(e) if e.owner != actor => Err(DmoError::Protection { actor, object: obj }),
        Some(e) => Ok(e),
    }
}

/// Counters of DMO traffic since the last drain — the runtime converts these
/// into modeled memory time (and they are the source of the framework's
/// "DMO address translation" overhead in Fig 17).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DmoTraffic {
    /// Object-table lookups performed.
    pub lookups: u64,
    /// Bytes read or written.
    pub bytes: u64,
}

/// The per-node object table.
pub struct DmoTable {
    default_side: Side,
    objects: IdMap<u64, DmoEntry>,
    regions: IdMap<ActorId, Region>,
    next_id: u64,
    traffic: DmoTraffic,
}

impl DmoTable {
    /// New table; each actor's region is sized by [`DmoTable::register_region`].
    pub fn new(default_side: Side) -> DmoTable {
        DmoTable {
            default_side,
            objects: IdMap::default(),
            regions: IdMap::default(),
            next_id: 1,
            traffic: DmoTraffic::default(),
        }
    }

    /// Register an actor's region of `capacity` bytes (§3.3 initialization:
    /// "large equal-sized chunks of memory regions for each registered
    /// actor" — the LiquidIO "global bootmem region").
    pub fn register_region(&mut self, actor: ActorId, capacity: u64) {
        self.regions.insert(actor, Region { capacity, used: 0 });
    }

    /// Remove an actor's region and free all of its objects (actor teardown
    /// or DoS deregistration, §3.4).
    pub fn drop_actor(&mut self, actor: ActorId) {
        self.objects.retain(|_, e| e.owner != actor);
        self.regions.remove(&actor);
    }

    /// Allocate a DMO of `size` bytes for `actor`.
    pub fn malloc(&mut self, actor: ActorId, size: u64) -> Result<ObjectId, DmoError> {
        let region = self
            .regions
            .get_mut(&actor)
            .ok_or(DmoError::OutOfMemory { actor })?;
        if region.used + size > region.capacity {
            return Err(DmoError::OutOfMemory { actor });
        }
        region.used += size;
        let id = self.next_id;
        self.next_id += 1;
        self.objects.insert(
            id,
            DmoEntry {
                owner: actor,
                side: self.default_side,
                data: vec![0; size as usize],
            },
        );
        Ok(ObjectId(id))
    }

    /// Free a DMO.
    pub fn free(&mut self, actor: ActorId, obj: ObjectId) -> Result<(), DmoError> {
        let Entry::Occupied(slot) = self.objects.entry(obj.0) else {
            return Err(DmoError::NoSuchObject(obj));
        };
        if slot.get().owner != actor {
            return Err(DmoError::Protection { actor, object: obj });
        }
        let freed = slot.remove().data.len() as u64;
        if let Some(r) = self.regions.get_mut(&actor) {
            r.used = r.used.saturating_sub(freed);
        }
        Ok(())
    }

    /// The `len` bytes at `offset` of an object `actor` owns, charged as one
    /// access: one *modelled* lookup once the object is found (so never on
    /// `NoSuchObject`/`Protection`), then `len` bytes if the range fits. The
    /// host-side table is probed once, whatever the model charges.
    fn access(
        &mut self,
        actor: ActorId,
        obj: ObjectId,
        offset: u64,
        len: u64,
    ) -> Result<&mut [u8], DmoError> {
        let entry = owned(self.objects.get_mut(&obj.0), actor, obj)?;
        self.traffic.lookups += 1;
        let end = offset + len;
        if end > entry.data.len() as u64 {
            return Err(DmoError::OutOfBounds {
                object: obj,
                offset,
                len,
            });
        }
        self.traffic.bytes += len;
        Ok(&mut entry.data[offset as usize..end as usize])
    }

    /// Read `len` bytes at `offset`.
    pub fn read(
        &mut self,
        actor: ActorId,
        obj: ObjectId,
        offset: u64,
        len: u64,
    ) -> Result<&[u8], DmoError> {
        self.access(actor, obj, offset, len).map(|b| &*b)
    }

    /// Write `bytes` at `offset`.
    pub fn write(
        &mut self,
        actor: ActorId,
        obj: ObjectId,
        offset: u64,
        bytes: &[u8],
    ) -> Result<(), DmoError> {
        self.access(actor, obj, offset, bytes.len() as u64)?
            .copy_from_slice(bytes);
        Ok(())
    }

    /// `dmo_mmset`: fill `len` bytes at `offset` with `value`.
    pub fn memset(
        &mut self,
        actor: ActorId,
        obj: ObjectId,
        offset: u64,
        value: u8,
        len: u64,
    ) -> Result<(), DmoError> {
        self.access(actor, obj, offset, len)?.fill(value);
        Ok(())
    }

    /// `dmo_mmcpy`: copy between two objects of the same actor.
    pub fn memcpy(
        &mut self,
        actor: ActorId,
        src: ObjectId,
        src_off: u64,
        dst: ObjectId,
        dst_off: u64,
        len: u64,
    ) -> Result<(), DmoError> {
        let data = self.read(actor, src, src_off, len)?.to_vec();
        self.write(actor, dst, dst_off, &data)
    }

    /// `dmo_mmmove`: like memcpy but tolerates overlap within one object.
    pub fn memmove(
        &mut self,
        actor: ActorId,
        obj: ObjectId,
        src_off: u64,
        dst_off: u64,
        len: u64,
    ) -> Result<(), DmoError> {
        let data = self.read(actor, obj, src_off, len)?.to_vec();
        self.write(actor, obj, dst_off, &data)
    }

    /// Size of an object.
    pub fn size_of(&self, actor: ActorId, obj: ObjectId) -> Result<u64, DmoError> {
        owned(self.objects.get(&obj.0), actor, obj).map(|e| e.data.len() as u64)
    }

    /// Which side an object currently lives on.
    pub fn side_of(&self, obj: ObjectId) -> Option<Side> {
        self.objects.get(&obj.0).map(|e| e.side)
    }

    /// All objects owned by `actor` with their sizes (migration phase 3
    /// collects these).
    pub fn objects_of(&self, actor: ActorId) -> Vec<(ObjectId, u64)> {
        let mut v: Vec<_> = self
            .objects
            .iter()
            .filter(|(_, e)| e.owner == actor)
            .map(|(&id, e)| (ObjectId(id), e.data.len() as u64))
            .collect();
        v.sort();
        v
    }

    /// Total bytes of `actor`'s objects.
    pub fn actor_state_bytes(&self, actor: ActorId) -> u64 {
        self.objects
            .values()
            .filter(|e| e.owner == actor)
            .map(|e| e.data.len() as u64)
            .sum()
    }

    /// `dmo_migrate`: flip the side of every object of `actor`. Data moves
    /// with the entry (the simulation keeps one copy, like the real system).
    /// Returns the number of bytes that crossed PCIe.
    pub fn migrate_actor(&mut self, actor: ActorId, to: Side) -> u64 {
        let mut moved = 0;
        for e in self.objects.values_mut() {
            if e.owner == actor && e.side != to {
                e.side = to;
                moved += e.data.len() as u64;
            }
        }
        moved
    }

    /// Region occupancy for an actor: (used, capacity).
    pub fn region_usage(&self, actor: ActorId) -> Option<(u64, u64)> {
        self.regions.get(&actor).map(|r| (r.used, r.capacity))
    }

    /// Drain the DMO traffic counters accumulated since the last call.
    pub fn take_traffic(&mut self) -> DmoTraffic {
        std::mem::take(&mut self.traffic)
    }

    /// Borrow the table scoped to one actor (what `ActorCtx::dmo` hands out).
    pub fn scoped(&mut self, actor: ActorId) -> ActorDmo<'_> {
        ActorDmo { table: self, actor }
    }
}

/// The DMO API surface an actor sees: the same operations with the actor id
/// bound, so ownership checks are automatic.
pub struct ActorDmo<'a> {
    table: &'a mut DmoTable,
    actor: ActorId,
}

impl ActorDmo<'_> {
    /// Allocate an object in this actor's region.
    pub fn malloc(&mut self, size: u64) -> Result<ObjectId, DmoError> {
        self.table.malloc(self.actor, size)
    }

    /// Free an object.
    pub fn free(&mut self, obj: ObjectId) -> Result<(), DmoError> {
        self.table.free(self.actor, obj)
    }

    /// Read bytes.
    pub fn read(&mut self, obj: ObjectId, offset: u64, len: u64) -> Result<Vec<u8>, DmoError> {
        self.table
            .read(self.actor, obj, offset, len)
            .map(|s| s.to_vec())
    }

    /// Read exactly `N` bytes into an array: one access like [`Self::read`],
    /// without the heap copy.
    pub fn read_array<const N: usize>(
        &mut self,
        obj: ObjectId,
        offset: u64,
    ) -> Result<[u8; N], DmoError> {
        let b = self.table.read(self.actor, obj, offset, N as u64)?;
        Ok(b.try_into().expect("N bytes"))
    }

    /// Read a little-endian u64.
    pub fn read_u64(&mut self, obj: ObjectId, offset: u64) -> Result<u64, DmoError> {
        Ok(u64::from_le_bytes(self.read_array(obj, offset)?))
    }

    /// Write bytes.
    pub fn write(&mut self, obj: ObjectId, offset: u64, bytes: &[u8]) -> Result<(), DmoError> {
        self.table.write(self.actor, obj, offset, bytes)
    }

    /// Write a little-endian u64.
    pub fn write_u64(&mut self, obj: ObjectId, offset: u64, v: u64) -> Result<(), DmoError> {
        self.table.write(self.actor, obj, offset, &v.to_le_bytes())
    }

    /// `dmo_mmset`.
    pub fn memset(
        &mut self,
        obj: ObjectId,
        offset: u64,
        value: u8,
        len: u64,
    ) -> Result<(), DmoError> {
        self.table.memset(self.actor, obj, offset, value, len)
    }

    /// `dmo_mmcpy`.
    pub fn memcpy(
        &mut self,
        src: ObjectId,
        src_off: u64,
        dst: ObjectId,
        dst_off: u64,
        len: u64,
    ) -> Result<(), DmoError> {
        self.table
            .memcpy(self.actor, src, src_off, dst, dst_off, len)
    }

    /// Object size.
    pub fn size_of(&mut self, obj: ObjectId) -> Result<u64, DmoError> {
        self.table.size_of(self.actor, obj)
    }

    /// The owning actor id.
    pub fn actor(&self) -> ActorId {
        self.actor
    }
}

/// Estimated PCIe transfer time for moving `bytes` of DMO state, using
/// batched non-blocking writes at the effective streaming bandwidth
/// (migration phase 3, Fig 18: a 32 MB Memtable takes ~36 ms).
pub fn migration_transfer_time(bytes: u64, streaming_bw_bytes_per_s: f64) -> SimTime {
    SimTime::from_secs_f64(bytes as f64 / streaming_bw_bytes_per_s)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn table_with(actor: ActorId, cap: u64) -> DmoTable {
        let mut t = DmoTable::new(Side::Nic);
        t.register_region(actor, cap);
        t
    }

    #[test]
    fn malloc_read_write_roundtrip() {
        let mut t = table_with(1, 4096);
        let o = t.malloc(1, 128).unwrap();
        t.write(1, o, 16, b"hello dmo").unwrap();
        assert_eq!(t.read(1, o, 16, 9).unwrap(), b"hello dmo");
        assert_eq!(t.size_of(1, o).unwrap(), 128);
        assert_eq!(t.side_of(o), Some(Side::Nic));
    }

    #[test]
    fn region_capacity_enforced() {
        let mut t = table_with(1, 1000);
        let a = t.malloc(1, 600).unwrap();
        assert_eq!(t.malloc(1, 600), Err(DmoError::OutOfMemory { actor: 1 }));
        // Freeing returns capacity.
        t.free(1, a).unwrap();
        assert!(t.malloc(1, 600).is_ok());
    }

    #[test]
    fn unregistered_actor_cannot_allocate() {
        let mut t = DmoTable::new(Side::Nic);
        assert_eq!(t.malloc(9, 64), Err(DmoError::OutOfMemory { actor: 9 }));
    }

    #[test]
    fn cross_actor_access_traps() {
        let mut t = table_with(1, 4096);
        t.register_region(2, 4096);
        let o = t.malloc(1, 64).unwrap();
        assert_eq!(
            t.read(2, o, 0, 8).unwrap_err(),
            DmoError::Protection {
                actor: 2,
                object: o
            }
        );
        assert_eq!(
            t.write(2, o, 0, b"x").unwrap_err(),
            DmoError::Protection {
                actor: 2,
                object: o
            }
        );
        assert_eq!(
            t.free(2, o).unwrap_err(),
            DmoError::Protection {
                actor: 2,
                object: o
            }
        );
    }

    #[test]
    fn out_of_bounds_rejected() {
        let mut t = table_with(1, 4096);
        let o = t.malloc(1, 64).unwrap();
        assert!(matches!(
            t.read(1, o, 60, 8).unwrap_err(),
            DmoError::OutOfBounds { .. }
        ));
        assert!(matches!(
            t.write(1, o, 64, b"y").unwrap_err(),
            DmoError::OutOfBounds { .. }
        ));
    }

    #[test]
    fn memset_memcpy_memmove() {
        let mut t = table_with(1, 4096);
        let a = t.malloc(1, 32).unwrap();
        let b = t.malloc(1, 32).unwrap();
        t.memset(1, a, 0, 0xAB, 32).unwrap();
        t.memcpy(1, a, 0, b, 8, 16).unwrap();
        assert_eq!(t.read(1, b, 8, 16).unwrap(), &[0xAB; 16]);
        assert_eq!(t.read(1, b, 0, 8).unwrap(), &[0u8; 8]);
        // Overlapping move within a.
        t.write(1, a, 0, &[1, 2, 3, 4, 5, 6, 7, 8]).unwrap();
        t.memmove(1, a, 0, 4, 8).unwrap();
        assert_eq!(t.read(1, a, 4, 8).unwrap(), &[1, 2, 3, 4, 5, 6, 7, 8]);
    }

    #[test]
    fn migrate_actor_flips_sides_and_counts_bytes() {
        let mut t = table_with(1, 1 << 20);
        t.register_region(2, 1 << 20);
        let a = t.malloc(1, 1000).unwrap();
        let b = t.malloc(1, 500).unwrap();
        let other = t.malloc(2, 400).unwrap();
        let moved = t.migrate_actor(1, Side::Host);
        assert_eq!(moved, 1500);
        assert_eq!(t.side_of(a), Some(Side::Host));
        assert_eq!(t.side_of(b), Some(Side::Host));
        assert_eq!(t.side_of(other), Some(Side::Nic));
        // Idempotent: nothing left to move.
        assert_eq!(t.migrate_actor(1, Side::Host), 0);
        // Data survives migration.
        t.write(1, a, 0, b"persist").unwrap();
        let _ = t.migrate_actor(1, Side::Nic);
        assert_eq!(t.read(1, a, 0, 7).unwrap(), b"persist");
    }

    #[test]
    fn objects_of_and_state_bytes() {
        let mut t = table_with(1, 1 << 20);
        let a = t.malloc(1, 100).unwrap();
        let b = t.malloc(1, 200).unwrap();
        assert_eq!(t.objects_of(1), vec![(a, 100), (b, 200)]);
        assert_eq!(t.actor_state_bytes(1), 300);
        t.drop_actor(1);
        assert_eq!(t.actor_state_bytes(1), 0);
        assert_eq!(t.region_usage(1), None);
    }

    #[test]
    fn traffic_counters_accumulate_and_drain() {
        let mut t = table_with(1, 4096);
        let o = t.malloc(1, 64).unwrap();
        t.write(1, o, 0, &[0; 32]).unwrap();
        let _ = t.read(1, o, 0, 16).unwrap();
        let traffic = t.take_traffic();
        assert_eq!(traffic.lookups, 2);
        assert_eq!(traffic.bytes, 48);
        assert_eq!(t.take_traffic(), DmoTraffic::default());
    }

    /// Naive reference for [`DmoTable`]: a sorted map, with the rules of the
    /// modelled accounting written out. One lookup per access to an object
    /// the actor owns, counted before the bounds check; bytes only on
    /// success; nothing for `malloc`, `free` and `size_of`.
    struct Model {
        objects: std::collections::BTreeMap<u64, (ActorId, Vec<u8>)>,
        used: std::collections::BTreeMap<ActorId, u64>,
        capacity: u64,
        next_id: u64,
        traffic: DmoTraffic,
    }

    impl Model {
        fn owned(&self, actor: ActorId, obj: ObjectId) -> Result<(), DmoError> {
            match self.objects.get(&obj.0) {
                None => Err(DmoError::NoSuchObject(obj)),
                Some((owner, _)) if *owner != actor => {
                    Err(DmoError::Protection { actor, object: obj })
                }
                Some(_) => Ok(()),
            }
        }

        fn access(
            &mut self,
            actor: ActorId,
            obj: ObjectId,
            offset: u64,
            len: u64,
        ) -> Result<&mut [u8], DmoError> {
            self.owned(actor, obj)?;
            self.traffic.lookups += 1;
            let data = &mut self.objects.get_mut(&obj.0).unwrap().1;
            if offset + len > data.len() as u64 {
                return Err(DmoError::OutOfBounds {
                    object: obj,
                    offset,
                    len,
                });
            }
            self.traffic.bytes += len;
            Ok(&mut data[offset as usize..(offset + len) as usize])
        }

        fn malloc(&mut self, actor: ActorId, size: u64) -> Result<ObjectId, DmoError> {
            let used = self
                .used
                .get_mut(&actor)
                .ok_or(DmoError::OutOfMemory { actor })?;
            if *used + size > self.capacity {
                return Err(DmoError::OutOfMemory { actor });
            }
            *used += size;
            let id = self.next_id;
            self.next_id += 1;
            self.objects.insert(id, (actor, vec![0; size as usize]));
            Ok(ObjectId(id))
        }

        fn free(&mut self, actor: ActorId, obj: ObjectId) -> Result<(), DmoError> {
            self.owned(actor, obj)?;
            let (_, data) = self.objects.remove(&obj.0).unwrap();
            *self.used.get_mut(&actor).unwrap() -= data.len() as u64;
            Ok(())
        }

        fn size_of(&self, actor: ActorId, obj: ObjectId) -> Result<u64, DmoError> {
            self.owned(actor, obj)?;
            Ok(self.objects[&obj.0].1.len() as u64)
        }
    }

    #[test]
    fn random_ops_match_the_model_in_results_and_traffic() {
        use ipipe_sim::DetRng;
        const CAP: u64 = 1536;
        let mut t = table_with(1, CAP);
        t.register_region(2, CAP);
        let mut m = Model {
            objects: Default::default(),
            used: [(1, 0), (2, 0)].into(),
            capacity: CAP,
            next_id: 1,
            traffic: DmoTraffic::default(),
        };
        let mut rng = DetRng::new(0xD30);
        let mut errors = [0u32; 4];
        for step in 0..20_000u32 {
            // Actor 3 has no region; ids range over null, freed, live and
            // never-allocated objects; offsets and lengths overshoot often.
            let actors = if rng.chance(0.02) { 3 } else { 2 };
            let actor = 1 + rng.below(actors) as ActorId;
            let obj = ObjectId(rng.below(m.next_id + 2));
            let other = ObjectId(rng.below(m.next_id + 2));
            let (off, len) = (rng.below(72), rng.below(72));
            let fill = rng.below(256) as u8;
            // Every result is compared as bytes: ids and sizes little-endian,
            // unit results empty.
            let done = |()| Vec::new();
            let (got, want) = match rng.below(8) {
                0 | 1 => {
                    let size = 1 + rng.below(64);
                    let id = |o: ObjectId| o.0.to_le_bytes().to_vec();
                    (t.malloc(actor, size).map(id), m.malloc(actor, size).map(id))
                }
                2 => (t.free(actor, obj).map(done), m.free(actor, obj).map(done)),
                3 => (
                    t.read(actor, obj, off, len).map(|b| b.to_vec()),
                    m.access(actor, obj, off, len).map(|b| b.to_vec()),
                ),
                4 => {
                    let bytes = vec![fill; len as usize];
                    (
                        t.write(actor, obj, off, &bytes).map(done),
                        m.access(actor, obj, off, len)
                            .map(|b| b.copy_from_slice(&bytes))
                            .map(done),
                    )
                }
                5 => (
                    t.memset(actor, obj, off, fill, len).map(done),
                    m.access(actor, obj, off, len)
                        .map(|b| b.fill(fill))
                        .map(done),
                ),
                6 => {
                    let dst_off = rng.below(72);
                    let src = m.access(actor, obj, off, len).map(|b| b.to_vec());
                    (
                        t.memcpy(actor, obj, off, other, dst_off, len).map(done),
                        src.and_then(|src| {
                            m.access(actor, other, dst_off, len)
                                .map(|dst| dst.copy_from_slice(&src))
                                .map(done)
                        }),
                    )
                }
                _ => {
                    let size = |n: u64| n.to_le_bytes().to_vec();
                    (
                        t.size_of(actor, obj).map(size),
                        m.size_of(actor, obj).map(size),
                    )
                }
            };
            assert_eq!(got, want, "step {step}");
            assert_eq!(
                t.take_traffic(),
                std::mem::take(&mut m.traffic),
                "step {step}: {got:?}"
            );
            match got {
                Err(DmoError::OutOfMemory { .. }) => errors[0] += 1,
                Err(DmoError::Protection { .. }) => errors[1] += 1,
                Err(DmoError::NoSuchObject(_)) => errors[2] += 1,
                Err(DmoError::OutOfBounds { .. }) => errors[3] += 1,
                Ok(_) => {}
            }
        }
        // Every error path was taken often enough to mean something.
        assert!(errors.iter().all(|&n| n > 100), "{errors:?}");
        for actor in [1, 2] {
            assert_eq!(t.region_usage(actor), Some((m.used[&actor], CAP)));
            let want: Vec<_> = m
                .objects
                .iter()
                .filter(|(_, (owner, _))| *owner == actor)
                .map(|(&id, (_, data))| (ObjectId(id), data.len() as u64))
                .collect();
            assert_eq!(t.objects_of(actor), want);
        }
    }

    #[test]
    fn failed_accesses_are_charged_by_how_far_they_got() {
        let mut t = table_with(1, 4096);
        t.register_region(2, 4096);
        let o = t.malloc(1, 64).unwrap();
        let gone = t.malloc(1, 8).unwrap();
        t.free(1, gone).unwrap();
        // Unknown object or foreign owner: the modelled lookup never happens.
        assert!(t.read(1, gone, 0, 1).is_err());
        assert!(t.write(1, ObjectId::NULL, 0, b"x").is_err());
        assert!(t.memset(2, o, 0, 0, 8).is_err());
        assert!(t.memcpy(2, o, 0, o, 8, 8).is_err());
        assert!(t.size_of(2, o).is_err());
        assert!(t.free(2, o).is_err());
        assert_eq!(t.take_traffic(), DmoTraffic::default());
        // Out of bounds: the object was found (one lookup), no byte moved.
        let one_lookup = DmoTraffic {
            lookups: 1,
            bytes: 0,
        };
        assert!(t.read(1, o, 60, 8).is_err());
        assert_eq!(t.take_traffic(), one_lookup);
        assert!(t.write(1, o, 64, b"y").is_err());
        assert_eq!(t.take_traffic(), one_lookup);
        assert!(t.memset(1, o, 1, 0, 64).is_err());
        assert_eq!(t.take_traffic(), one_lookup);
        // memcpy is a read then a write: a bad destination still pays for
        // the source.
        assert!(t.memcpy(1, o, 0, o, 60, 8).is_err());
        assert_eq!(
            t.take_traffic(),
            DmoTraffic {
                lookups: 2,
                bytes: 8
            }
        );
        // size_of and free are bookkeeping, not accesses.
        assert_eq!(t.size_of(1, o), Ok(64));
        t.free(1, o).unwrap();
        assert_eq!(t.take_traffic(), DmoTraffic::default());
    }

    #[test]
    fn scoped_view_binds_actor() {
        let mut t = table_with(7, 4096);
        let mut view = t.scoped(7);
        let o = view.malloc(16).unwrap();
        view.write_u64(o, 0, 0xDEADBEEF).unwrap();
        assert_eq!(view.read_u64(o, 0).unwrap(), 0xDEADBEEF);
        assert_eq!(view.actor(), 7);
        // Table 4's dmo_mmset / dmo_mmcpy / dmo_free through the same view.
        let p = view.malloc(16).unwrap();
        view.memset(o, 0, 0x42, 16).unwrap();
        view.memcpy(o, 0, p, 8, 8).unwrap();
        assert_eq!(view.read(p, 0, 16).unwrap(), [[0; 8], [0x42; 8]].concat());
        view.free(o).unwrap();
        assert!(view.read(o, 0, 1).is_err());
    }

    #[test]
    fn migration_transfer_time_math() {
        // 32MB at 0.9GB/s ~ 35.6ms — phase 3 of the LSM Memtable actor.
        let t = migration_transfer_time(32 << 20, 0.9e9);
        assert!((t.as_ms_f64() - 37.3).abs() < 2.0, "t={t}");
    }
}

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
//!
//! An object's size is fixed at `malloc`, and sizes alone drive region
//! accounting and migration's byte count. Its bytes exist, zeroed, only as
//! far as an access has reached: an object nobody reads or writes costs the
//! host no memory, and one whose tail nobody touches holds only its prefix.
//!
//! The table itself is a slab: a `Vec` of slots and a LIFO list of the free
//! ones. An object id is `generation << 32 | (slot + 1)`, so until the first
//! free the ids run 1, 2, 3, … and the null id names no slot. Freeing an
//! object bumps its slot's generation, so a stale handle finds the slot's
//! new tenant under another generation and reads `NoSuchObject`; a slot
//! whose generation is spent is retired rather than wrapped.

#![deny(clippy::cast_possible_truncation)]

use crate::actor::ActorId;
use ipipe_sim::{IdMap, SimTime};

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
    size: u64,
    /// The prefix some access has reached; the rest of `size` reads as
    /// zeros and is allocated when an access first reaches it.
    data: Box<[u8]>,
}

#[derive(Debug, Clone, Copy)]
struct Region {
    capacity: u64,
    used: u64,
}

/// One slab slot: the generation its next (or current) tenant's id carries,
/// and the tenant, if any.
struct Slot {
    generation: u32,
    entry: Option<DmoEntry>,
}

/// The id of `slot`'s tenant of `generation`: the slot plus one in the low
/// word (so the null id names no slot), the generation in the high word.
fn join(slot: usize, generation: u32) -> ObjectId {
    ObjectId(u64::from(generation) << 32 | (slot as u64 + 1))
}

/// The slot and generation an id names; [`join`] undone.
fn split(obj: ObjectId) -> (usize, u32) {
    #[expect(clippy::cast_possible_truncation, reason = "keeps the id's low word")]
    let low = obj.0 as u32;
    (low.wrapping_sub(1) as usize, (obj.0 >> 32) as u32)
}

/// An offset or length within an object's held bytes as a host index: those
/// bytes are (or are about to be) allocated, so it fits a `usize`.
fn host_index(n: u64) -> usize {
    usize::try_from(n).expect("held bytes fit the host's address space")
}

/// The live object `obj` names: its slot holds a tenant of its generation.
#[inline]
fn live(slots: &[Slot], obj: ObjectId) -> Option<&DmoEntry> {
    let (slot, generation) = split(obj);
    let s = slots.get(slot)?;
    s.entry.as_ref().filter(|_| s.generation == generation)
}

/// [`live`], mutably.
#[inline]
fn live_mut(slots: &mut [Slot], obj: ObjectId) -> Option<&mut DmoEntry> {
    let (slot, generation) = split(obj);
    let s = slots.get_mut(slot)?;
    s.entry.as_mut().filter(|_| s.generation == generation)
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
    slots: Vec<Slot>,
    /// Free slots, the most recently freed last.
    free: Vec<u32>,
    regions: IdMap<ActorId, Region>,
    traffic: DmoTraffic,
}

impl DmoTable {
    /// New table; each actor's region is sized by [`DmoTable::register_region`].
    pub fn new(default_side: Side) -> DmoTable {
        DmoTable {
            default_side,
            slots: Vec::new(),
            free: Vec::new(),
            regions: IdMap::default(),
            traffic: DmoTraffic::default(),
        }
    }

    /// The slot the next object goes in: the last one freed, else a new
    /// one.
    fn vacant_slot(&mut self) -> usize {
        if let Some(slot) = self.free.pop() {
            return slot as usize;
        }
        // An id's low word is the slot plus one.
        u32::try_from(self.slots.len() + 1).expect("fewer than 2^32 DMO slots");
        self.slots.push(Slot {
            generation: 0,
            entry: None,
        });
        self.slots.len() - 1
    }

    /// Empty `slot` and move its generation on, so no id issued for it so
    /// far names it again. A spent generation retires the slot.
    fn vacate(&mut self, slot: usize) {
        let s = &mut self.slots[slot];
        s.entry = None;
        if let Some(next) = s.generation.checked_add(1) {
            s.generation = next;
            self.free
                .push(u32::try_from(slot).expect("vacant_slot keeps slots below 2^32"));
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
        for slot in 0..self.slots.len() {
            if self.slots[slot]
                .entry
                .as_ref()
                .is_some_and(|e| e.owner == actor)
            {
                self.vacate(slot);
            }
        }
        self.regions.remove(&actor);
    }

    /// Allocate a DMO of `size` bytes for `actor`.
    pub fn malloc(&mut self, actor: ActorId, size: u64) -> Result<ObjectId, DmoError> {
        let region = self
            .regions
            .get_mut(&actor)
            .ok_or(DmoError::OutOfMemory { actor })?;
        region.used = region
            .used
            .checked_add(size)
            .filter(|&used| used <= region.capacity)
            .ok_or(DmoError::OutOfMemory { actor })?;
        let slot = self.vacant_slot();
        let s = &mut self.slots[slot];
        s.entry = Some(DmoEntry {
            owner: actor,
            side: self.default_side,
            size,
            data: Box::default(),
        });
        Ok(join(slot, s.generation))
    }

    /// Free a DMO. Its slot's generation moves on, so `obj` never names
    /// the slot's next tenant; a slot whose generation is spent is retired.
    pub fn free(&mut self, actor: ActorId, obj: ObjectId) -> Result<(), DmoError> {
        let freed = owned(live(&self.slots, obj), actor, obj)?.size;
        self.vacate(split(obj).0);
        if let Some(r) = self.regions.get_mut(&actor) {
            r.used = r.used.saturating_sub(freed);
        }
        Ok(())
    }

    /// The `len` bytes at `offset` of an object `actor` owns, charged as one
    /// access: one *modelled* lookup once the object is found (so never on
    /// `NoSuchObject`/`Protection`), then `len` bytes if the range fits. The
    /// host-side table is probed once, whatever the model charges. An access
    /// that fits and reaches past the held prefix grows it to at least
    /// twice its length (capped at `size`), so a run of appends costs
    /// amortised O(1) per byte.
    fn access(
        &mut self,
        actor: ActorId,
        obj: ObjectId,
        offset: u64,
        len: u64,
    ) -> Result<&mut [u8], DmoError> {
        let entry = owned(live_mut(&mut self.slots, obj), actor, obj)?;
        self.traffic.lookups += 1;
        let end = offset
            .checked_add(len)
            .filter(|&end| end <= entry.size)
            .ok_or(DmoError::OutOfBounds {
                object: obj,
                offset,
                len,
            })?;
        self.traffic.bytes += len;
        let held = entry.data.len();
        if end > held as u64 {
            let grown = end.max(2 * held as u64).min(entry.size);
            let mut data = vec![0; host_index(grown)];
            data[..held].copy_from_slice(&entry.data);
            entry.data = data.into();
        }
        Ok(&mut entry.data[host_index(offset)..host_index(end)])
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
        owned(live(&self.slots, obj), actor, obj).map(|e| e.size)
    }

    /// Which side an object currently lives on.
    pub fn side_of(&self, obj: ObjectId) -> Option<Side> {
        live(&self.slots, obj).map(|e| e.side)
    }

    /// All objects owned by `actor` with their sizes, in id order.
    #[cfg(test)]
    pub(crate) fn objects_of(&self, actor: ActorId) -> Vec<(ObjectId, u64)> {
        let slots = self.slots.iter().enumerate();
        let mut v: Vec<_> = slots
            .filter_map(|(slot, s)| Some((join(slot, s.generation), s.entry.as_ref()?)))
            .filter(|(_, e)| e.owner == actor)
            .map(|(id, e)| (id, e.size))
            .collect();
        v.sort();
        v
    }

    /// How many objects `actor` owns and their total size, in one pass over
    /// the slots (migration phase 3 moves these).
    pub fn footprint(&self, actor: ActorId) -> (usize, u64) {
        let entries = self.slots.iter().filter_map(|s| s.entry.as_ref());
        entries
            .filter(|e| e.owner == actor)
            .fold((0, 0), |(n, bytes), e| (n + 1, bytes + e.size))
    }

    /// Total bytes of `actor`'s objects.
    pub fn actor_state_bytes(&self, actor: ActorId) -> u64 {
        self.footprint(actor).1
    }

    /// `dmo_migrate`: flip the side of every object of `actor`. Data moves
    /// with the entry (the simulation keeps one copy, like the real system).
    /// Returns the number of bytes that crossed PCIe.
    pub fn migrate_actor(&mut self, actor: ActorId, to: Side) -> u64 {
        let mut moved = 0;
        for e in self.slots.iter_mut().filter_map(|s| s.entry.as_mut()) {
            if e.owner == actor && e.side != to {
                e.side = to;
                moved += e.size;
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

    /// The bytes `obj` holds on the host: the prefix its accesses reached.
    #[cfg(test)]
    pub(crate) fn held_bytes(&self, obj: ObjectId) -> usize {
        live(&self.slots, obj).expect("a live object").data.len()
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
    fn malloc_rejects_a_size_that_wraps_the_region() {
        let mut t = table_with(1, 4096);
        t.malloc(1, 64).unwrap();
        assert_eq!(
            t.malloc(1, u64::MAX - 10),
            Err(DmoError::OutOfMemory { actor: 1 })
        );
        assert_eq!(t.region_usage(1), Some((64, 4096)));
        assert!(t.malloc(1, 4096 - 64).is_ok());
    }

    #[test]
    fn an_access_whose_end_wraps_is_out_of_bounds() {
        let mut t = table_with(1, 4096);
        let o = t.malloc(1, 64).unwrap();
        let oob = |offset, len| DmoError::OutOfBounds {
            object: o,
            offset,
            len,
        };
        let one_lookup = DmoTraffic {
            lookups: 1,
            bytes: 0,
        };
        assert_eq!(t.read(1, o, u64::MAX, 2).unwrap_err(), oob(u64::MAX, 2));
        assert_eq!(t.take_traffic(), one_lookup);
        assert_eq!(
            t.write(1, o, u64::MAX - 1, b"abc").unwrap_err(),
            oob(u64::MAX - 1, 3)
        );
        assert_eq!(t.take_traffic(), one_lookup);
        assert_eq!(
            t.memset(1, o, 8, 0, u64::MAX - 4).unwrap_err(),
            oob(8, u64::MAX - 4)
        );
        assert_eq!(t.take_traffic(), one_lookup);
        assert_eq!(
            t.memcpy(1, o, u64::MAX, o, 0, 1).unwrap_err(),
            oob(u64::MAX, 1)
        );
        assert_eq!(t.take_traffic(), one_lookup);
        assert_eq!(
            t.memmove(1, o, u64::MAX - 2, 0, 4).unwrap_err(),
            oob(u64::MAX - 2, 4)
        );
        assert_eq!(t.take_traffic(), one_lookup);
    }

    #[test]
    fn untouched_objects_count_their_full_size() {
        const SIZE: u64 = 256 << 10;
        let mut t = table_with(1, 1 << 20);
        let a = t.malloc(1, SIZE).unwrap();
        let b = t.malloc(1, SIZE).unwrap();
        // Neither object holds host memory, yet both count in full.
        assert_eq!((t.held_bytes(a), t.held_bytes(b)), (0, 0));
        assert_eq!(t.size_of(1, a), Ok(SIZE));
        assert_eq!(t.region_usage(1), Some((2 * SIZE, 1 << 20)));
        assert_eq!(t.objects_of(1), vec![(a, SIZE), (b, SIZE)]);
        assert_eq!(t.actor_state_bytes(1), 2 * SIZE);
        assert_eq!(t.migrate_actor(1, Side::Host), 2 * SIZE);
        t.free(1, b).unwrap();
        assert_eq!(t.region_usage(1), Some((SIZE, 1 << 20)));
        assert_eq!(t.take_traffic(), DmoTraffic::default());
        // The first read sees zeros and is charged like any other.
        assert_eq!(t.read(1, a, SIZE - 16, 16).unwrap(), &[0; 16]);
        assert_eq!(
            t.take_traffic(),
            DmoTraffic {
                lookups: 1,
                bytes: 16
            }
        );
        assert_eq!(t.held_bytes(a) as u64, SIZE);
        assert_eq!(t.size_of(1, a), Ok(SIZE));
        assert_eq!(t.actor_state_bytes(1), SIZE);
    }

    #[test]
    fn an_object_holds_only_the_prefix_its_accesses_reached() {
        const SIZE: u64 = 4096;
        let mut t = table_with(1, 1 << 20);
        let o = t.malloc(1, SIZE).unwrap();
        let full_size = |t: &DmoTable| {
            assert_eq!(t.size_of(1, o), Ok(SIZE));
            assert_eq!(t.region_usage(1), Some((SIZE, 1 << 20)));
            assert_eq!(t.objects_of(1), vec![(o, SIZE)]);
            assert_eq!(t.actor_state_bytes(1), SIZE);
        };
        // A write at offset k holds k + len bytes.
        t.write(1, o, 100, b"abcd").unwrap();
        assert_eq!(t.held_bytes(o), 104);
        full_size(&t);
        // A read past the held prefix sees zeros, is charged like any read,
        // and grows the prefix to its end (or to twice the prefix, if more).
        t.take_traffic();
        assert_eq!(t.read(1, o, 1000, 24).unwrap(), &[0; 24]);
        let read = DmoTraffic {
            lookups: 1,
            bytes: 24,
        };
        assert_eq!(t.take_traffic(), read);
        assert_eq!(t.held_bytes(o), 1024);
        assert_eq!(t.read(1, o, 100, 4).unwrap(), b"abcd");
        // An access inside the prefix allocates nothing; one byte past it
        // doubles it; the doubling stops at `size`.
        t.write(1, o, 1023, b"x").unwrap();
        assert_eq!(t.held_bytes(o), 1024);
        t.write(1, o, 1024, b"y").unwrap();
        assert_eq!(t.held_bytes(o), 2048);
        t.write(1, o, 2048, b"z").unwrap();
        assert_eq!(t.held_bytes(o) as u64, SIZE);
        assert_eq!(t.read(1, o, 1022, 4).unwrap(), [0, b'x', b'y', 0]);
        full_size(&t);
        assert_eq!(t.migrate_actor(1, Side::Host), SIZE);
    }

    #[test]
    fn appends_regrow_the_prefix_a_logarithmic_number_of_times() {
        const WORDS: u64 = 4096;
        let mut t = table_with(1, 1 << 20);
        let o = t.malloc(1, 8 * WORDS).unwrap();
        let mut sizes = vec![0];
        for i in 0..WORDS {
            t.write(1, o, 8 * i, &i.to_le_bytes()).unwrap();
            if sizes.last() != Some(&t.held_bytes(o)) {
                sizes.push(t.held_bytes(o));
            }
        }
        // 8, 16, 32, ..., 32 KiB: one allocation per doubling.
        let doublings: Vec<usize> = (3..=15).map(|b| 1 << b).collect();
        assert_eq!(sizes[1..], doublings);
        for i in 0..WORDS {
            assert_eq!(t.read(1, o, 8 * i, 8).unwrap(), i.to_le_bytes());
        }
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
    /// success; nothing for `malloc`, `free` and `size_of`. Ids follow the
    /// slab's rule: the most recently freed slot first, else a new one; the
    /// slot plus one in the low word, its generation (bumped by each free)
    /// in the high word.
    struct Model {
        objects: std::collections::BTreeMap<u64, (ActorId, Vec<u8>)>,
        used: std::collections::BTreeMap<ActorId, u64>,
        capacity: u64,
        /// Each slot's next or current tenant's generation.
        generations: Vec<u32>,
        /// Free slots, the most recently freed last.
        free: Vec<usize>,
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
            let end = match offset.checked_add(len) {
                Some(end) if end <= data.len() as u64 => end,
                _ => {
                    return Err(DmoError::OutOfBounds {
                        object: obj,
                        offset,
                        len,
                    })
                }
            };
            self.traffic.bytes += len;
            Ok(&mut data[host_index(offset)..host_index(end)])
        }

        fn malloc(&mut self, actor: ActorId, size: u64) -> Result<ObjectId, DmoError> {
            let used = self
                .used
                .get_mut(&actor)
                .ok_or(DmoError::OutOfMemory { actor })?;
            match used.checked_add(size) {
                Some(sum) if sum <= self.capacity => *used = sum,
                _ => return Err(DmoError::OutOfMemory { actor }),
            }
            let slot = self.free.pop().unwrap_or_else(|| {
                self.generations.push(0);
                self.generations.len() - 1
            });
            let id = u64::from(self.generations[slot]) << 32 | (slot as u64 + 1);
            self.objects.insert(id, (actor, vec![0; host_index(size)]));
            Ok(ObjectId(id))
        }

        fn free(&mut self, actor: ActorId, obj: ObjectId) -> Result<(), DmoError> {
            self.owned(actor, obj)?;
            let (_, data) = self.objects.remove(&obj.0).unwrap();
            *self.used.get_mut(&actor).unwrap() -= data.len() as u64;
            let slot = (obj.0 & 0xFFFF_FFFF) as usize - 1;
            self.generations[slot] += 1;
            self.free.push(slot);
            Ok(())
        }

        /// A handle to draw: a slot in use, one past the end (never
        /// allocated) or none (low word 0, the null id at generation 0),
        /// under the slot's current generation (live, or not yet issued
        /// for a free slot), the one before (freed) or the one after.
        fn handle(&self, rng: &mut ipipe_sim::DetRng) -> ObjectId {
            let low = rng.below(self.generations.len() as u64 + 2);
            let current = usize::try_from(low)
                .unwrap()
                .checked_sub(1)
                .and_then(|slot| self.generations.get(slot))
                .copied()
                .unwrap_or(0);
            let generation = match rng.below(4) {
                0 => current.saturating_sub(1),
                1 => current + 1,
                _ => current,
            };
            ObjectId(u64::from(generation) << 32 | low)
        }

        fn size_of(&self, actor: ActorId, obj: ObjectId) -> Result<u64, DmoError> {
            self.owned(actor, obj)?;
            Ok(self.objects[&obj.0].1.len() as u64)
        }

        fn objects_of(&self, actor: ActorId) -> Vec<(ObjectId, u64)> {
            self.objects
                .iter()
                .filter(|(_, (owner, _))| *owner == actor)
                .map(|(&id, (_, data))| (ObjectId(id), data.len() as u64))
                .collect()
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
            generations: Vec::new(),
            free: Vec::new(),
            traffic: DmoTraffic::default(),
        };
        let mut rng = DetRng::new(0xD30);
        let mut errors = [0u32; 4];
        for step in 0..20_000u32 {
            // Actor 3 has no region; ids range over null, freed, live,
            // stale-generation and never-allocated objects; offsets and
            // lengths overshoot often, and an offset near `u64::MAX` wraps
            // `offset + len`.
            let actors = if rng.chance(0.02) { 3 } else { 2 };
            let actor = ActorId::try_from(1 + rng.below(actors)).unwrap();
            let obj = m.handle(&mut rng);
            let other = m.handle(&mut rng);
            let mut offset = || {
                if rng.chance(0.05) {
                    u64::MAX - rng.below(72)
                } else {
                    rng.below(72)
                }
            };
            let (off, dst_off) = (offset(), offset());
            let len = rng.below(72);
            let fill = u8::try_from(rng.below(256)).unwrap();
            // Every result is compared as bytes: ids and sizes little-endian,
            // unit results empty.
            let done = |()| Vec::new();
            let (got, want) = match rng.below(8) {
                0 | 1 => {
                    // Now and then a size that wraps the region's `used`.
                    let size = if rng.chance(0.05) {
                        u64::MAX - rng.below(CAP)
                    } else {
                        1 + rng.below(64)
                    };
                    let id = |o: ObjectId| o.0.to_le_bytes().to_vec();
                    (t.malloc(actor, size).map(id), m.malloc(actor, size).map(id))
                }
                2 => (t.free(actor, obj).map(done), m.free(actor, obj).map(done)),
                3 => (
                    t.read(actor, obj, off, len).map(|b| b.to_vec()),
                    m.access(actor, obj, off, len).map(|b| b.to_vec()),
                ),
                4 => {
                    let bytes = vec![fill; host_index(len)];
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
            for actor in [1, 2, 3] {
                let used = m.used.get(&actor).map(|&used| (used, CAP));
                assert_eq!(t.region_usage(actor), used, "step {step}");
                let want = m.objects_of(actor);
                let bytes: u64 = want.iter().map(|&(_, size)| size).sum();
                assert_eq!(t.objects_of(actor), want, "step {step}");
                assert_eq!(t.footprint(actor), (want.len(), bytes), "step {step}");
                assert_eq!(t.actor_state_bytes(actor), bytes, "step {step}");
            }
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
    }

    #[test]
    fn a_freed_handle_never_reaches_the_object_that_reuses_its_slot() {
        let mut t = table_with(1, 4096);
        t.register_region(2, 4096);
        let old = t.malloc(1, 64).unwrap();
        let kept = t.malloc(1, 8).unwrap();
        // Until the first free, ids are 1, 2, 3, ...
        assert_eq!((old, kept), (ObjectId(1), ObjectId(2)));
        t.write(1, old, 0, b"old").unwrap();
        t.free(1, old).unwrap();
        let new = t.malloc(1, 32).unwrap();
        assert_eq!(
            split(new),
            (split(old).0, 1),
            "the freed slot, next generation"
        );
        t.write(1, new, 0, b"new").unwrap();
        t.take_traffic();
        let gone = DmoError::NoSuchObject(old);
        assert_eq!(t.read(1, old, 0, 3).unwrap_err(), gone);
        assert_eq!(t.write(1, old, 0, b"x").unwrap_err(), gone);
        assert_eq!(t.free(1, old).unwrap_err(), gone);
        assert_eq!(t.size_of(1, old).unwrap_err(), gone);
        assert_eq!(t.side_of(old), None);
        assert_eq!(t.take_traffic(), DmoTraffic::default());
        assert_eq!(t.read(1, new, 0, 3).unwrap(), b"new");
        assert_eq!(t.objects_of(1), vec![(kept, 8), (new, 32)]);
        assert_eq!(t.region_usage(1), Some((40, 4096)));
        // Another actor's tenant of a reused slot: the stale handle still
        // finds nothing, the live one traps for anyone but its owner.
        t.free(1, new).unwrap();
        let foreign = t.malloc(2, 16).unwrap();
        assert_eq!(split(foreign).0, split(old).0);
        for stale in [old, new] {
            let gone = DmoError::NoSuchObject(stale);
            assert_eq!(t.read(1, stale, 0, 1).unwrap_err(), gone);
            assert_eq!(t.read(2, stale, 0, 1).unwrap_err(), gone);
        }
        let trap = DmoError::Protection {
            actor: 1,
            object: foreign,
        };
        assert_eq!(t.read(1, foreign, 0, 1).unwrap_err(), trap);
        assert_eq!(t.free(1, foreign).unwrap_err(), trap);
        // The null handle and one past the last slot name nothing.
        for nothing in [ObjectId::NULL, ObjectId(3), ObjectId(1 << 32)] {
            assert_eq!(t.size_of(1, nothing), Err(DmoError::NoSuchObject(nothing)));
        }
    }

    #[test]
    fn a_slot_whose_generation_is_spent_is_retired_not_wrapped() {
        let mut t = table_with(1, 4096);
        let first = t.malloc(1, 8).unwrap();
        t.free(1, first).unwrap();
        t.slots[0].generation = u32::MAX - 1;
        let penultimate = t.malloc(1, 8).unwrap();
        t.free(1, penultimate).unwrap();
        let last = t.malloc(1, 8).unwrap();
        assert_eq!(last, ObjectId(u64::from(u32::MAX) << 32 | 1));
        t.free(1, last).unwrap();
        // Slot 0 is spent: it stays empty and off the free list.
        assert!(t.free.is_empty());
        let next = t.malloc(1, 8).unwrap();
        assert_eq!(next, ObjectId(2), "a new slot, not generation 0 of slot 0");
        for stale in [first, penultimate, last] {
            assert_eq!(t.size_of(1, stale), Err(DmoError::NoSuchObject(stale)));
            assert_eq!(t.free(1, stale), Err(DmoError::NoSuchObject(stale)));
        }
        assert_eq!(t.objects_of(1), vec![(next, 8)]);
        assert_eq!(t.region_usage(1), Some((8, 4096)));
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

//! Table workloads: the KV cache (hashtable) and the Maglev load balancer
//! (permutation table) — Table 3 rows 3 and 8.

use super::{MicroWorkload, PaperRow};
use ipipe_nicsim::mem::TrackedMem;
use ipipe_sim::DetRng;

fn fnv(data: &[u8]) -> u64 {
    let mut h = 0xcbf29ce484222325u64;
    for &b in data {
        h ^= b as u64;
        h = h.wrapping_mul(0x100000001b3);
    }
    h
}

/// KV cache (row "KV cache", citing KV-Direct): open-addressing hashtable
/// with linear probing, fixed 16 B keys and 32 B values, supporting
/// read/write/delete.
pub struct KvCache {
    slots: Vec<Option<([u8; 16], [u8; 32])>>,
    mask: usize,
    base: u64,
    len: usize,
}

/// Slot footprint in the tracked arena (key + value + metadata).
const SLOT_BYTES: u64 = 64;

impl KvCache {
    /// Cache with `capacity` slots (rounded to a power of two).
    pub fn new(capacity: usize) -> KvCache {
        let cap = capacity.next_power_of_two();
        KvCache {
            slots: vec![None; cap],
            mask: cap - 1,
            base: 0,
            len: 0,
        }
    }

    /// Table 3 configuration: 256k slots (16 MB of slot memory).
    pub fn table3() -> KvCache {
        KvCache::new(256 * 1024)
    }

    /// Number of keys stored.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    fn probe_seq(&self, key: &[u8; 16]) -> usize {
        fnv(key) as usize & self.mask
    }

    /// Insert/overwrite; returns probes taken.
    pub fn put(&mut self, key: [u8; 16], value: [u8; 32]) -> usize {
        assert!(self.len < self.slots.len(), "cache full");
        let mut i = self.probe_seq(&key);
        let mut probes = 1;
        loop {
            match &self.slots[i] {
                Some((k, _)) if *k == key => {
                    self.slots[i] = Some((key, value));
                    return probes;
                }
                None => {
                    self.slots[i] = Some((key, value));
                    self.len += 1;
                    return probes;
                }
                _ => {
                    i = (i + 1) & self.mask;
                    probes += 1;
                }
            }
        }
    }

    /// Lookup; returns (value, probes).
    pub fn get(&self, key: &[u8; 16]) -> (Option<[u8; 32]>, usize) {
        let mut i = self.probe_seq(key);
        let mut probes = 1;
        loop {
            match &self.slots[i] {
                Some((k, v)) if k == key => return (Some(*v), probes),
                None => return (None, probes),
                _ => {
                    i = (i + 1) & self.mask;
                    probes += 1;
                }
            }
        }
    }

    /// Delete with backward-shift (keeps probe chains intact); returns
    /// whether the key existed.
    pub fn del(&mut self, key: &[u8; 16]) -> bool {
        let mut i = self.probe_seq(key);
        loop {
            match &self.slots[i] {
                Some((k, _)) if k == key => break,
                None => return false,
                _ => i = (i + 1) & self.mask,
            }
        }
        // Backward-shift deletion.
        self.slots[i] = None;
        self.len -= 1;
        let mut j = (i + 1) & self.mask;
        while let Some((k, v)) = self.slots[j] {
            let home = self.probe_seq(&k);
            // Can k still be found if we leave the hole at i?
            let reachable = if home <= j {
                !(home <= i && i < j) || home == j
            } else {
                // wrapped chain
                !(home <= i || i < j)
            };
            if !reachable {
                self.slots[i] = Some((k, v));
                self.slots[j] = None;
                i = j;
            }
            j = (j + 1) & self.mask;
            if j == i {
                break;
            }
        }
        true
    }
}

impl MicroWorkload for KvCache {
    fn name(&self) -> &'static str {
        "KV cache"
    }

    fn paper_row(&self) -> PaperRow {
        PaperRow {
            lat_us: 3.7,
            ipc: 1.2,
            mpki: 0.9,
        }
    }

    fn setup(&mut self, mem: &mut TrackedMem, rng: &mut DetRng) {
        self.base = mem.alloc(self.slots.len() as u64 * SLOT_BYTES);
        // Pre-populate to 40% load.
        for _ in 0..self.slots.len() * 2 / 5 {
            let mut k = [0u8; 16];
            rng.fill_bytes(&mut k);
            self.put(k, [0u8; 32]);
        }
    }

    fn request(&mut self, mem: &mut TrackedMem, rng: &mut DetRng, req_bytes: u32) {
        mem.read(self.base, (req_bytes as u64).min(128)); // parse request
        let mut k = [0u8; 16];
        let id = rng.below(self.slots.len() as u64);
        k[..8].copy_from_slice(&id.to_le_bytes());
        let op = rng.below(10);
        let probes = match op {
            0..=6 => self.get(&k).1,
            7 | 8 => self.put(k, [1u8; 32]),
            _ => {
                let existed = self.del(&k);
                if !existed {
                    self.put(k, [2u8; 32]); // keep occupancy steady
                }
                2
            }
        };
        let home = self.probe_seq(&k);
        for p in 0..probes {
            let slot = (home + p) & self.mask;
            mem.read(self.base + slot as u64 * SLOT_BYTES, 48);
        }
        if op >= 7 {
            mem.write(self.base + home as u64 * SLOT_BYTES, 48);
        }
        mem.work(5400); // hash + request parse + response build
    }
}

/// Maglev load balancer (row "Load balancer", citing the Maglev paper):
/// consistent hashing via a permutation-filled lookup table, plus a
/// connection-tracking table for flow affinity.
pub struct MaglevBalancer {
    table: Vec<u16>,
    backends: usize,
    table_base: u64,
    conntrack_base: u64,
    conntrack_entries: u64,
}

impl MaglevBalancer {
    /// Build the Maglev table of (prime) size `m` over `backends` backends.
    pub fn new(m: usize, backends: usize) -> MaglevBalancer {
        assert!(backends >= 1 && m > backends);
        let mut table = vec![u16::MAX; m];
        // Each backend's permutation: offset + i*skip mod m (Maglev §3.4).
        let offsets: Vec<usize> = (0..backends)
            .map(|b| (fnv(&(b as u64).to_le_bytes()) % m as u64) as usize)
            .collect();
        let skips: Vec<usize> = (0..backends)
            .map(|b| (fnv(&(b as u64 + 0x5bd1).to_le_bytes()) % (m as u64 - 1) + 1) as usize)
            .collect();
        let mut next = vec![0usize; backends];
        let mut filled = 0;
        while filled < m {
            for b in 0..backends {
                if filled >= m {
                    break;
                }
                // Find b's next preferred empty slot.
                loop {
                    let c = (offsets[b] + next[b] * skips[b]) % m;
                    next[b] += 1;
                    if table[c] == u16::MAX {
                        table[c] = b as u16;
                        filled += 1;
                        break;
                    }
                }
            }
        }
        MaglevBalancer {
            table,
            backends,
            table_base: 0,
            conntrack_base: 0,
            conntrack_entries: 256 * 1024,
        }
    }

    /// Table 3 configuration: 131071-entry table, 16 backends, 16 MB
    /// conntrack.
    pub fn table3() -> MaglevBalancer {
        MaglevBalancer::new(131_071, 16)
    }

    /// Backend for a flow hash.
    pub fn backend_of(&self, flow: u64) -> u16 {
        self.table[(flow % self.table.len() as u64) as usize]
    }

    /// Per-backend share of the table (for balance tests).
    pub fn shares(&self) -> Vec<usize> {
        let mut s = vec![0; self.backends];
        for &b in &self.table {
            s[b as usize] += 1;
        }
        s
    }
}

impl MicroWorkload for MaglevBalancer {
    fn name(&self) -> &'static str {
        "Load balancer"
    }

    fn paper_row(&self) -> PaperRow {
        PaperRow {
            lat_us: 2.0,
            ipc: 1.3,
            mpki: 1.3,
        }
    }

    fn setup(&mut self, mem: &mut TrackedMem, _rng: &mut DetRng) {
        self.table_base = mem.alloc(self.table.len() as u64 * 2);
        self.conntrack_base = mem.alloc(self.conntrack_entries * 64);
    }

    fn request(&mut self, mem: &mut TrackedMem, rng: &mut DetRng, req_bytes: u32) {
        mem.read(self.table_base, (req_bytes as u64).min(64)); // headers
        let flow = rng.below(1 << 32);
        // Conntrack probe (flow affinity), then the Maglev table on miss.
        let ct = flow % self.conntrack_entries;
        mem.read(self.conntrack_base + ct * 64, 24);
        let _b = self.backend_of(flow);
        let idx = (flow % self.table.len() as u64) * 2;
        mem.read(self.table_base + idx, 2);
        mem.write(self.conntrack_base + ct * 64, 24); // refresh entry
        mem.work(2400); // 5-tuple hash + header rewrite
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    #[test]
    fn kv_cache_matches_hashmap_model() {
        let mut kv = KvCache::new(1024);
        let mut model: HashMap<[u8; 16], [u8; 32]> = HashMap::new();
        let mut rng = DetRng::new(4);
        for _ in 0..5000 {
            let mut k = [0u8; 16];
            k[0] = rng.below(200) as u8;
            k[1] = rng.below(2) as u8;
            match rng.below(3) {
                0 => {
                    let v = [k[0]; 32];
                    kv.put(k, v);
                    model.insert(k, v);
                }
                1 => {
                    assert_eq!(kv.get(&k).0, model.get(&k).copied());
                }
                _ => {
                    assert_eq!(kv.del(&k), model.remove(&k).is_some());
                }
            }
        }
        assert_eq!(kv.len(), model.len());
        for (k, v) in &model {
            assert_eq!(kv.get(k).0, Some(*v));
        }
    }

    #[test]
    fn kv_cache_probe_counts_are_small_at_low_load() {
        let mut kv = KvCache::new(4096);
        let mut rng = DetRng::new(5);
        let mut total = 0;
        for i in 0..1000u64 {
            let mut k = [0u8; 16];
            k[..8].copy_from_slice(&i.to_le_bytes());
            total += kv.put(k, [0; 32]);
            let _ = rng.below(2);
        }
        assert!(total < 1500, "avg probes {}", total as f64 / 1000.0);
    }

    #[test]
    fn maglev_fills_table_evenly() {
        let m = MaglevBalancer::new(65537, 8);
        let shares = m.shares();
        let min = *shares.iter().min().unwrap() as f64;
        let max = *shares.iter().max().unwrap() as f64;
        // Maglev's guarantee: near-perfect balance.
        assert!(max / min < 1.02, "shares={shares:?}");
        assert_eq!(shares.iter().sum::<usize>(), 65537);
    }

    #[test]
    fn maglev_removal_causes_minimal_disruption() {
        let before = MaglevBalancer::new(65537, 8);
        let after = MaglevBalancer::new(65537, 7); // backend 7 removed
        let mut moved_among_survivors = 0;
        let mut total_survivor_slots = 0;
        for flow in 0..20_000u64 {
            let b0 = before.backend_of(flow);
            let b1 = after.backend_of(flow);
            if b0 != 7 {
                total_survivor_slots += 1;
                if b0 != b1 {
                    moved_among_survivors += 1;
                }
            }
        }
        let frac = moved_among_survivors as f64 / total_survivor_slots as f64;
        // Maglev trades some disruption for balance; the paper reports ~1-2%
        // table churn beyond the necessary 1/N. Allow a loose bound.
        assert!(frac < 0.25, "survivor disruption {frac}");
    }

    #[test]
    fn maglev_is_deterministic() {
        let a = MaglevBalancer::new(4099, 5);
        let b = MaglevBalancer::new(4099, 5);
        for f in 0..1000 {
            assert_eq!(a.backend_of(f), b.backend_of(f));
        }
    }
}

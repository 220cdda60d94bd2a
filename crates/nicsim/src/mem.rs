//! Onboard memory model (§2.2.4): the Table 2 latency hierarchy and a small
//! set-associative cache simulator.
//!
//! The cache simulator is fed *real* access traces from the workload
//! implementations (via [`TrackedMem`]) and produces the hit/miss behaviour
//! from which Table 3's MPKI and IPC columns are derived — the causality runs
//! from simulated microarchitecture to reported counters, not the other way.

use crate::spec::{CacheGeom, MemLatencies};
use ipipe_sim::SimTime;

/// Which level of the hierarchy served an access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HitLevel {
    /// Per-core L1 data cache.
    L1,
    /// Shared L2.
    L2,
    /// Onboard DRAM (or host DRAM on the host model).
    Dram,
}

/// One set-associative, true-LRU cache level.
#[derive(Debug, Clone)]
struct CacheLevel {
    /// sets[set] = lines ordered most-recently-used first.
    sets: Vec<Vec<u64>>,
    ways: usize,
    set_mask: u64,
    line_shift: u32,
}

impl CacheLevel {
    fn new(total_bytes: u32, line: u32, ways: u32) -> Self {
        assert!(line.is_power_of_two(), "line size must be a power of two");
        let lines = (total_bytes / line).max(1);
        let ways = ways.min(lines).max(1) as usize;
        let mut num_sets = (lines as usize / ways).max(1);
        // Round down to a power of two so the index is a mask.
        num_sets = 1 << (usize::BITS - 1 - num_sets.leading_zeros());
        CacheLevel {
            sets: vec![Vec::with_capacity(ways); num_sets],
            ways,
            set_mask: num_sets as u64 - 1,
            line_shift: line.trailing_zeros(),
        }
    }

    /// Access the line containing `addr`; returns true on hit. Fills on miss.
    fn access(&mut self, addr: u64) -> bool {
        let tag = addr >> self.line_shift;
        let set = usize::try_from(tag & self.set_mask).expect("a set index is below the set count");
        let set = &mut self.sets[set];
        if let Some(pos) = set.iter().position(|&t| t == tag) {
            let t = set.remove(pos);
            set.insert(0, t);
            return true;
        }
        if set.len() == self.ways {
            set.pop();
        }
        set.insert(0, tag);
        false
    }

    fn flush(&mut self) {
        for s in &mut self.sets {
            s.clear();
        }
    }
}

/// Running counters for an execution profile.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MemCounters {
    /// Total memory accesses issued.
    pub accesses: u64,
    /// Accesses that missed L1.
    pub l1_misses: u64,
    /// Accesses that missed L2 (went to DRAM).
    pub l2_misses: u64,
}

/// A two-level cache simulator with the Table 2 latency hierarchy.
pub struct CacheSim {
    l1: CacheLevel,
    l2: CacheLevel,
    lat: MemLatencies,
    counters: MemCounters,
}

impl CacheSim {
    /// Build from a card's cache geometry and memory latencies.
    pub fn new(geom: CacheGeom, lat: MemLatencies) -> Self {
        CacheSim {
            l1: CacheLevel::new(geom.l1_bytes, geom.line, geom.ways),
            l2: CacheLevel::new(geom.l2_bytes, geom.line, geom.ways),
            lat,
            counters: MemCounters::default(),
        }
    }

    /// Issue one access to `addr`; returns the serving level and its latency.
    pub fn access(&mut self, addr: u64) -> (HitLevel, SimTime) {
        self.counters.accesses += 1;
        if self.l1.access(addr) {
            return (HitLevel::L1, self.lat.l1);
        }
        self.counters.l1_misses += 1;
        if self.l2.access(addr) {
            return (HitLevel::L2, self.lat.l2);
        }
        self.counters.l2_misses += 1;
        (HitLevel::Dram, self.lat.dram)
    }

    /// Access a `len`-byte range starting at `addr` (one access per line).
    pub fn access_range(&mut self, addr: u64, len: u64) -> SimTime {
        let line = 1u64 << self.l1.line_shift;
        let first = addr & !(line - 1);
        let last = (addr + len.max(1) - 1) & !(line - 1);
        let mut total = SimTime::ZERO;
        let mut a = first;
        loop {
            total += self.access(a).1;
            if a == last {
                break;
            }
            a += line;
        }
        total
    }

    /// Current counters.
    pub fn counters(&self) -> MemCounters {
        self.counters
    }

    /// Reset counters without flushing cache contents (for warm measurements).
    pub fn reset_counters(&mut self) {
        self.counters = MemCounters::default();
    }

    /// Empty both levels and reset counters.
    pub fn flush(&mut self) {
        self.l1.flush();
        self.l2.flush();
        self.counters = MemCounters::default();
    }
}

/// A bump-allocated address space whose accesses run through a [`CacheSim`]
/// and whose instruction cost is tallied alongside — the instrumentation
/// context for the Table 3 microbenchmark suite.
pub struct TrackedMem {
    cache: CacheSim,
    next_addr: u64,
    instructions: u64,
    mem_time: SimTime,
}

impl TrackedMem {
    /// New tracked arena over a fresh cache.
    pub fn new(geom: CacheGeom, lat: MemLatencies) -> Self {
        TrackedMem {
            cache: CacheSim::new(geom, lat),
            next_addr: 0x1000, // skip page zero, as any allocator would
            instructions: 0,
            mem_time: SimTime::ZERO,
        }
    }

    /// Allocate `size` bytes, 64-byte aligned; returns the base address.
    pub fn alloc(&mut self, size: u64) -> u64 {
        let base = (self.next_addr + 63) & !63;
        self.next_addr = base + size.max(1);
        base
    }

    /// Record a read of `len` bytes at `addr`.
    pub fn read(&mut self, addr: u64, len: u64) {
        self.mem_time += self.cache.access_range(addr, len);
    }

    /// Record a write of `len` bytes at `addr` (timing-wise identical to a
    /// read in this write-allocate model).
    pub fn write(&mut self, addr: u64, len: u64) {
        self.mem_time += self.cache.access_range(addr, len);
    }

    /// Record `n` ALU/control instructions that do not touch memory.
    pub fn work(&mut self, n: u64) {
        self.instructions += n;
    }

    /// Instructions retired so far (memory accesses count as one instruction
    /// each, added at profile time).
    pub fn instructions(&self) -> u64 {
        self.instructions + self.cache.counters().accesses
    }

    /// Aggregate time spent waiting on the memory hierarchy.
    pub fn mem_time(&self) -> SimTime {
        self.mem_time
    }

    /// Underlying cache counters.
    pub fn counters(&self) -> MemCounters {
        self.cache.counters()
    }

    /// Reset instruction/memory tallies, keeping cache contents warm.
    pub fn reset_profile(&mut self) {
        self.instructions = 0;
        self.mem_time = SimTime::ZERO;
        self.cache.reset_counters();
    }
}

/// Result of the pointer-chasing microbenchmark (paper Table 2 methodology).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChaseResult {
    /// Average latency per dependent load.
    pub avg_latency: SimTime,
    /// Level that served the majority of accesses.
    pub dominant_level: HitLevel,
}

/// Pointer-chase through a working set of `ws_bytes` with random strides,
/// reproducing the Table 2 measurement: a working set inside L1 reports the
/// L1 latency, one inside L2 the L2 latency, and one larger than L2 the DRAM
/// latency.
pub fn pointer_chase(
    geom: CacheGeom,
    lat: MemLatencies,
    ws_bytes: u64,
    steps: u64,
    seed: u64,
) -> ChaseResult {
    let mut cache = CacheSim::new(geom, lat);
    let line = geom.line as u64;
    let slots = (ws_bytes / line).max(1);

    // Build a random cyclic permutation of the lines (Sattolo's algorithm)
    // so every step is a dependent load with an unpredictable stride.
    let mut order: Vec<u64> = (0..slots).collect();
    let mut state = seed | 1;
    let mut rand_below = |n: u64| {
        // xorshift64*
        state ^= state >> 12;
        state ^= state << 25;
        state ^= state >> 27;
        (state.wrapping_mul(0x2545F491_4F6CDD1D)) % n
    };
    for i in (1..order.len()).rev() {
        let j = usize::try_from(rand_below(i as u64)).expect("a draw below i fits a usize");
        order.swap(i, j);
    }

    // Warm the cache with one full traversal.
    for &slot in &order {
        cache.access(slot * line);
    }
    cache.reset_counters();

    let mut total = SimTime::ZERO;
    let mut level_counts = [0u64; 3];
    for (&slot, _) in order.iter().cycle().zip(0..steps) {
        let (lvl, t) = cache.access(slot * line);
        total += t;
        level_counts[match lvl {
            HitLevel::L1 => 0,
            HitLevel::L2 => 1,
            HitLevel::Dram => 2,
        }] += 1;
    }

    let dominant = match level_counts
        .iter()
        .enumerate()
        .max_by_key(|(_, &c)| c)
        .map(|(i, _)| i)
    {
        Some(0) => HitLevel::L1,
        Some(1) => HitLevel::L2,
        _ => HitLevel::Dram,
    };
    ChaseResult {
        avg_latency: SimTime::from_ns(total.as_ns() / steps.max(1)),
        dominant_level: dominant,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{CN2350, HOST_XEON, STINGRAY_PS225};

    fn small_geom() -> CacheGeom {
        CacheGeom {
            l1_bytes: 256,
            l2_bytes: 1024,
            line: 64,
            ways: 2,
        }
    }

    fn lat() -> MemLatencies {
        MemLatencies {
            l1: SimTime::from_ns(1),
            l2: SimTime::from_ns(10),
            l3: None,
            dram: SimTime::from_ns(100),
        }
    }

    #[test]
    fn first_touch_misses_second_hits() {
        let mut c = CacheSim::new(small_geom(), lat());
        let (lvl, t) = c.access(0);
        assert_eq!(lvl, HitLevel::Dram);
        assert_eq!(t, SimTime::from_ns(100));
        let (lvl, t) = c.access(32); // same 64B line
        assert_eq!(lvl, HitLevel::L1);
        assert_eq!(t, SimTime::from_ns(1));
        assert_eq!(c.counters().accesses, 2);
        assert_eq!(c.counters().l2_misses, 1);
    }

    #[test]
    fn lru_eviction_falls_back_to_l2() {
        let mut c = CacheSim::new(small_geom(), lat());
        // L1: 256B/64B = 4 lines, 2 ways -> 2 sets. Addresses 0,128,256 map
        // to set 0; third line evicts the LRU (line 0) from L1 but it stays
        // in L2 (16 lines).
        c.access(0);
        c.access(128);
        c.access(256);
        let (lvl, _) = c.access(0);
        assert_eq!(lvl, HitLevel::L2, "evicted from L1 but resident in L2");
    }

    #[test]
    fn access_range_touches_every_line() {
        let mut c = CacheSim::new(small_geom(), lat());
        c.access_range(10, 200); // spans lines 0..=3 (addr 10..210)
        assert_eq!(c.counters().accesses, 4);
        // Unaligned 1-byte access touches exactly one line.
        c.reset_counters();
        c.access_range(63, 1);
        assert_eq!(c.counters().accesses, 1);
        // Access crossing a line boundary touches two.
        c.reset_counters();
        c.access_range(60, 8);
        assert_eq!(c.counters().accesses, 2);
    }

    #[test]
    fn table2_l1_resident_working_set() {
        // 16KB fits in the CN2350's 32KB L1 -> ~8ns per load.
        let r = pointer_chase(CN2350.cache, CN2350.mem, 16 * 1024, 50_000, 99);
        assert_eq!(r.dominant_level, HitLevel::L1);
        assert_eq!(r.avg_latency, CN2350.mem.l1);
    }

    #[test]
    fn table2_l2_resident_working_set() {
        // 1MB overflows L1 (32KB) but fits L2 (4MB) -> ~56ns.
        let r = pointer_chase(CN2350.cache, CN2350.mem, 1024 * 1024, 50_000, 99);
        assert_eq!(r.dominant_level, HitLevel::L2);
        let ns = r.avg_latency.as_ns();
        assert!(
            ns >= CN2350.mem.l2.as_ns() && ns < CN2350.mem.l2.as_ns() + 10,
            "avg={ns}ns"
        );
    }

    #[test]
    fn table2_dram_working_set() {
        // 16MB overflows the 4MB L2 -> ~115ns.
        let r = pointer_chase(CN2350.cache, CN2350.mem, 16 * 1024 * 1024, 20_000, 99);
        assert_eq!(r.dominant_level, HitLevel::Dram);
        let ns = r.avg_latency.as_ns();
        assert!(ns > CN2350.mem.l2.as_ns(), "avg={ns}ns");
    }

    #[test]
    fn stingray_l2_is_big_enough_for_8mb() {
        // Stingray's 16MB L2 holds an 8MB working set that spills on CN2350.
        let st = pointer_chase(STINGRAY_PS225.cache, STINGRAY_PS225.mem, 8 << 20, 20_000, 7);
        assert_eq!(st.dominant_level, HitLevel::L2);
        let li = pointer_chase(CN2350.cache, CN2350.mem, 8 << 20, 20_000, 7);
        assert_eq!(li.dominant_level, HitLevel::Dram);
    }

    #[test]
    fn host_beats_nic_on_l2_latency() {
        // Table 2's point: SmartNIC L2 latency is comparable to the host L3.
        assert!(HOST_XEON.mem.l2 < CN2350.mem.l2);
        assert!(HOST_XEON.mem.l3.unwrap().as_ns() as i64 - CN2350.mem.l2.as_ns() as i64 <= 0);
    }

    #[test]
    fn tracked_mem_profiles_instructions_and_misses() {
        let mut m = TrackedMem::new(small_geom(), lat());
        let base = m.alloc(4096);
        assert_eq!(base % 64, 0);
        m.work(100);
        for i in 0..64 {
            m.read(base + i * 64, 8);
        }
        assert_eq!(m.instructions(), 100 + 64);
        assert!(m.counters().l2_misses > 0);
        assert!(m.mem_time() > SimTime::ZERO);
        m.reset_profile();
        assert_eq!(m.instructions(), 0);
        assert_eq!(m.mem_time(), SimTime::ZERO);
    }

    #[test]
    fn alloc_is_monotonic_and_aligned() {
        let mut m = TrackedMem::new(small_geom(), lat());
        let a = m.alloc(10);
        let b = m.alloc(100);
        assert!(b >= a + 10);
        assert_eq!(a % 64, 0);
        assert_eq!(b % 64, 0);
    }
}

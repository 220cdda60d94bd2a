//! Queue-structured workloads: the leaky-bucket rate limiter, the pFabric
//! packet scheduler (BST) and chain replication (linked list) — Table 3
//! rows 5, 9 and 11.

use super::{MicroWorkload, PaperRow};
use ipipe_nicsim::mem::TrackedMem;
use ipipe_sim::DetRng;
use std::collections::VecDeque;

/// Leaky-bucket rate limiter (row "Rate limiter", citing ClickNP): per-flow
/// token buckets feeding a shared FIFO that drains at the configured rate.
pub struct RateLimiter {
    /// tokens (in bytes) and last-refill tick per flow.
    buckets: Vec<(f64, u64)>,
    /// Bucket refill rate, bytes per tick.
    rate: f64,
    /// Bucket depth in bytes.
    depth: f64,
    /// The shared FIFO of conforming packets awaiting transmission.
    fifo: VecDeque<(u64, u32)>,
    /// FIFO drain per tick, bytes.
    drain: f64,
    tick: u64,
    base_buckets: u64,
    base_fifo: u64,
    fifo_cap: usize,
    /// Conforming / dropped counters.
    pub passed: u64,
    /// Non-conforming packets dropped.
    pub dropped: u64,
}

impl RateLimiter {
    /// Limiter over `flows` flows at `rate` bytes/tick with `depth`-byte
    /// buckets.
    pub fn new(flows: usize, rate: f64, depth: f64) -> RateLimiter {
        RateLimiter {
            buckets: vec![(depth, 0); flows],
            rate,
            depth,
            fifo: VecDeque::new(),
            drain: rate * 6.0,
            tick: 0,
            base_buckets: 0,
            base_fifo: 0,
            fifo_cap: 64 * 1024,
            passed: 0,
            dropped: 0,
        }
    }

    /// Table 3 configuration: 64k flows.
    pub fn table3() -> RateLimiter {
        RateLimiter::new(64 * 1024, 128.0, 4096.0)
    }

    /// Offer a packet of `bytes` from `flow` at `tick`; true if conforming.
    pub fn offer(&mut self, flow: usize, bytes: u32, tick: u64) -> bool {
        let n_buckets = self.buckets.len();
        let (tokens, last) = &mut self.buckets[flow % n_buckets];
        let elapsed = tick.saturating_sub(*last) as f64;
        *tokens = (*tokens + elapsed * self.rate).min(self.depth);
        *last = tick;
        if *tokens >= bytes as f64 && self.fifo.len() < self.fifo_cap {
            *tokens -= bytes as f64;
            self.fifo.push_back((tick, bytes));
            self.passed += 1;
            true
        } else {
            self.dropped += 1;
            false
        }
    }

    /// Drain the FIFO for one tick; returns packets transmitted.
    pub fn drain_tick(&mut self) -> usize {
        let mut budget = self.drain;
        let mut sent = 0;
        while let Some(&(_, bytes)) = self.fifo.front() {
            if budget < bytes as f64 {
                break;
            }
            budget -= bytes as f64;
            self.fifo.pop_front();
            sent += 1;
        }
        sent
    }

    /// FIFO occupancy.
    pub fn queued(&self) -> usize {
        self.fifo.len()
    }
}

impl MicroWorkload for RateLimiter {
    fn name(&self) -> &'static str {
        "Rate limiter"
    }

    fn paper_row(&self) -> PaperRow {
        PaperRow {
            lat_us: 8.2,
            ipc: 0.7,
            mpki: 4.4,
        }
    }

    fn setup(&mut self, mem: &mut TrackedMem, _rng: &mut DetRng) {
        self.base_buckets = mem.alloc(self.buckets.len() as u64 * 64);
        self.base_fifo = mem.alloc(self.fifo_cap as u64 * 256);
    }

    fn request(&mut self, mem: &mut TrackedMem, rng: &mut DetRng, req_bytes: u32) {
        self.tick += 1;
        let flow = rng.below(self.buckets.len() as u64) as usize;
        // Bucket state: read-modify-write one 64B record.
        mem.read(self.base_buckets + flow as u64 * 64, 24);
        mem.write(self.base_buckets + flow as u64 * 64, 24);
        // Timing-wheel sweep: refill a segment of buckets each tick (this is
        // what makes the leaky-bucket row memory-bound in Table 3).
        for _ in 0..24 {
            let f = rng.below(self.buckets.len() as u64);
            mem.read(self.base_buckets + f * 64, 16);
        }
        let tick = self.tick;
        if self.offer(flow, req_bytes, tick) {
            let slot = (self.passed % self.fifo_cap as u64) * 256;
            mem.write(self.base_fifo + slot, 256);
        }
        // Drain pass touches the head region.
        let sent = self.drain_tick();
        for i in 0..sent.clamp(2, 8) {
            let slot = ((self.tick + i as u64) % self.fifo_cap as u64) * 256;
            mem.read(self.base_fifo + slot, 256);
        }
        mem.work(5600); // token arithmetic + queue management
    }
}

/// pFabric packet scheduler (row "Packet scheduler"): packets are kept in a
/// BST ordered by remaining flow size; the scheduler transmits the packet of
/// the flow with the fewest remaining bytes first.
pub struct PFabricScheduler {
    /// Arena-allocated BST nodes: (key, packet, left, right).
    nodes: Vec<BstNode>,
    root: Option<usize>,
    free: Vec<usize>,
    base: u64,
    /// Packets currently queued.
    pub queued: usize,
}

#[derive(Debug, Clone, Copy)]
struct BstNode {
    key: (u64, u64), // (remaining bytes, tiebreak)
    left: Option<usize>,
    right: Option<usize>,
}

/// BST node footprint in the tracked arena (pFabric nodes carry packet
/// descriptors).
const BST_NODE_BYTES: u64 = 256;

impl PFabricScheduler {
    /// Empty scheduler.
    pub fn new() -> PFabricScheduler {
        PFabricScheduler {
            nodes: Vec::new(),
            root: None,
            free: Vec::new(),
            base: 0,
            queued: 0,
        }
    }

    /// Table 3 configuration (steady-state occupancy built during warmup).
    pub fn table3() -> PFabricScheduler {
        PFabricScheduler::new()
    }

    fn alloc_node(&mut self, key: (u64, u64)) -> usize {
        let node = BstNode {
            key,
            left: None,
            right: None,
        };
        match self.free.pop() {
            Some(i) => {
                self.nodes[i] = node;
                i
            }
            None => {
                self.nodes.push(node);
                self.nodes.len() - 1
            }
        }
    }

    /// Insert a packet with `remaining` bytes left in its flow; returns the
    /// BST depth traversed.
    pub fn insert(&mut self, remaining: u64, tiebreak: u64) -> usize {
        let idx = self.alloc_node((remaining, tiebreak));
        self.queued += 1;
        let mut depth = 1;
        match self.root {
            None => {
                self.root = Some(idx);
            }
            Some(mut cur) => loop {
                depth += 1;
                let next = if (self.nodes[idx].key) < self.nodes[cur].key {
                    &mut self.nodes[cur].left
                } else {
                    &mut self.nodes[cur].right
                };
                match next {
                    Some(n) => cur = *n,
                    None => {
                        *next = Some(idx);
                        break;
                    }
                }
            },
        }
        depth
    }

    /// Extract the highest-priority (smallest remaining) packet; returns
    /// (key, depth traversed).
    pub fn pop_min(&mut self) -> Option<((u64, u64), usize)> {
        let mut depth = 1;
        let mut parent: Option<usize> = None;
        let mut cur = self.root?;
        while let Some(l) = self.nodes[cur].left {
            parent = Some(cur);
            cur = l;
            depth += 1;
        }
        let key = self.nodes[cur].key;
        let right = self.nodes[cur].right;
        match parent {
            None => self.root = right,
            Some(p) => self.nodes[p].left = right,
        }
        self.free.push(cur);
        self.queued -= 1;
        Some((key, depth))
    }
}

impl Default for PFabricScheduler {
    fn default() -> Self {
        Self::new()
    }
}

impl MicroWorkload for PFabricScheduler {
    fn name(&self) -> &'static str {
        "Packet scheduler"
    }

    fn paper_row(&self) -> PaperRow {
        PaperRow {
            lat_us: 12.6,
            ipc: 0.5,
            mpki: 4.9,
        }
    }

    fn setup(&mut self, mem: &mut TrackedMem, rng: &mut DetRng) {
        self.base = mem.alloc(64 * 1024 * BST_NODE_BYTES);
        // Steady-state occupancy: ~8k queued packets.
        for _ in 0..8192 {
            self.insert(rng.below(1 << 20), rng.below(1 << 30));
        }
    }

    fn request(&mut self, mem: &mut TrackedMem, rng: &mut DetRng, _req_bytes: u32) {
        let d1 = self.insert(rng.below(1 << 20), rng.below(1 << 30));
        let (_, d2) = self.pop_min().expect("non-empty");
        // Each BST level is a dependent node visit (read + child update on
        // the path tail).
        for d in 0..d1 + d2 {
            let node = rng.below(self.nodes.len().max(1) as u64);
            mem.read(self.base + node * BST_NODE_BYTES, 288);
            if d + 2 >= d1 + d2 {
                mem.write(self.base + node * BST_NODE_BYTES, 16);
            }
        }
        mem.work(7200); // comparisons + dequeue bookkeeping
    }
}

/// Chain replication (row "Packet replication", citing Hyperloop): updates
/// are appended to a per-chain linked list and forwarded down a replica
/// chain; the tail acknowledges.
pub struct ChainReplication {
    /// Linked list arena: each record points at the next.
    records: Vec<(u64, Option<usize>)>,
    head: Option<usize>,
    tail: Option<usize>,
    /// Replica chain length (including this node).
    pub chain_len: usize,
    base: u64,
    /// Sequence numbers acknowledged, per replica position.
    pub acked: Vec<u64>,
    next_seq: u64,
    cap: usize,
}

impl ChainReplication {
    /// Chain of `chain_len` replicas with an update log of `cap` records.
    pub fn new(chain_len: usize, cap: usize) -> ChainReplication {
        ChainReplication {
            records: Vec::new(),
            head: None,
            tail: None,
            chain_len,
            base: 0,
            acked: vec![0; chain_len],
            next_seq: 0,
            cap,
        }
    }

    /// Table 3 configuration: 4-replica chain (as in Hyperloop's setup).
    pub fn table3() -> ChainReplication {
        ChainReplication::new(4, 64 * 1024)
    }

    /// Append an update; returns its sequence number.
    pub fn append(&mut self, payload: u64) -> u64 {
        self.next_seq += 1;
        let idx = if self.records.len() < self.cap {
            self.records.push((payload, None));
            self.records.len() - 1
        } else {
            // Recycle the head (oldest) record.
            let h = self.head.expect("cap>0 means non-empty at cap");
            self.head = self.records[h].1;
            self.records[h] = (payload, None);
            h
        };
        match self.tail {
            Some(t) => self.records[t].1 = Some(idx),
            None => self.head = Some(idx),
        }
        self.tail = Some(idx);
        // Propagate down the chain: each replica acks in order.
        for r in 0..self.chain_len {
            self.acked[r] = self.next_seq;
        }
        self.next_seq
    }

    /// Walk the list from head for `n` records (integrity scan).
    pub fn scan(&self, n: usize) -> usize {
        let mut cur = self.head;
        let mut seen = 0;
        while let Some(i) = cur {
            seen += 1;
            if seen >= n {
                break;
            }
            cur = self.records[i].1;
        }
        seen
    }
}

impl MicroWorkload for ChainReplication {
    fn name(&self) -> &'static str {
        "Packet replication"
    }

    fn paper_row(&self) -> PaperRow {
        PaperRow {
            lat_us: 1.9,
            ipc: 1.4,
            mpki: 0.6,
        }
    }

    fn setup(&mut self, mem: &mut TrackedMem, _rng: &mut DetRng) {
        self.base = mem.alloc(self.cap as u64 * 128);
    }

    fn request(&mut self, mem: &mut TrackedMem, rng: &mut DetRng, req_bytes: u32) {
        mem.read(self.base, (req_bytes as u64).min(128));
        let seq = self.append(rng.below(1 << 40));
        let slot = (seq % self.cap as u64) * 128;
        mem.write(self.base + slot, 96);
        // Touch the tail pointer record and the per-replica ack line.
        mem.read(
            self.base + ((seq.saturating_sub(1)) % self.cap as u64) * 128,
            16,
        );
        mem.write(self.base + (self.chain_len as u64 * 64), 32);
        mem.work(2700); // header rewrite per downstream replica + ack
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rate_limiter_enforces_rate() {
        let mut rl = RateLimiter::new(4, 100.0, 500.0);
        // Flow 0 blasts 200B packets every tick: only ~1 in 2 conforms after
        // the initial bucket drains.
        let mut passed = 0;
        for tick in 1..=100 {
            if rl.offer(0, 200, tick) {
                passed += 1;
            }
            rl.drain_tick();
        }
        // 100 ticks x 100 B/tick = 10k bytes = 50 packets (+ depth credit).
        assert!((50..=55).contains(&passed), "passed={passed}");
        assert!(rl.dropped > 0);
    }

    #[test]
    fn rate_limiter_idle_flows_regain_tokens() {
        let mut rl = RateLimiter::new(2, 10.0, 100.0);
        assert!(rl.offer(1, 100, 1));
        assert!(!rl.offer(1, 100, 2), "bucket exhausted");
        assert!(rl.offer(1, 100, 12), "refilled after idling");
    }

    #[test]
    fn pfabric_pops_smallest_remaining_first() {
        let mut s = PFabricScheduler::new();
        s.insert(500, 1);
        s.insert(100, 2);
        s.insert(900, 3);
        s.insert(100, 4);
        assert_eq!(s.pop_min().unwrap().0, (100, 2));
        assert_eq!(s.pop_min().unwrap().0, (100, 4));
        assert_eq!(s.pop_min().unwrap().0, (500, 1));
        assert_eq!(s.pop_min().unwrap().0, (900, 3));
        assert_eq!(s.pop_min(), None);
        assert_eq!(s.queued, 0);
    }

    #[test]
    fn pfabric_matches_heap_model() {
        use std::cmp::Reverse;
        use std::collections::BinaryHeap;
        let mut s = PFabricScheduler::new();
        let mut model: BinaryHeap<Reverse<(u64, u64)>> = BinaryHeap::new();
        let mut rng = DetRng::new(12);
        for i in 0..5000u64 {
            if rng.chance(0.55) || model.is_empty() {
                let k = (rng.below(1000), i);
                s.insert(k.0, k.1);
                model.push(Reverse(k));
            } else {
                let got = s.pop_min().map(|(k, _)| k);
                let want = model.pop().map(|Reverse(k)| k);
                assert_eq!(got, want);
            }
        }
        assert_eq!(s.queued, model.len());
    }

    #[test]
    fn chain_replication_acks_in_order() {
        let mut c = ChainReplication::new(3, 1000);
        for i in 1..=50u64 {
            let seq = c.append(i * 7);
            assert_eq!(seq, i);
            assert_eq!(c.acked.last(), Some(&i), "tail must have acked seq {i}");
        }
        assert_eq!(c.scan(50), 50);
    }

    #[test]
    fn chain_replication_recycles_at_capacity() {
        let mut c = ChainReplication::new(2, 8);
        for i in 0..100u64 {
            c.append(i);
        }
        // The list never exceeds its capacity.
        assert!(c.scan(usize::MAX) <= 8);
        assert_eq!(c.acked.last(), Some(&100));
    }
}

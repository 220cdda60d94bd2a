//! Distributed-transaction workload (§5.1): "each request is a multi-key
//! read-write transaction including two reads and one write (as used in
//! prior work, FaSST)"; value size grows with packet size.

use crate::kv::{encode_key, KEY_LEN};
use ipipe_sim::{DetRng, ZipfKeys};

/// A generated transaction request: read set + write set.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TxnRequest {
    /// Keys to read (paper default: 2).
    pub reads: Vec<[u8; KEY_LEN]>,
    /// Keys to write with their new values (paper default: 1).
    pub writes: Vec<([u8; KEY_LEN], Vec<u8>)>,
}

impl TxnRequest {
    /// Approximate serialized size.
    pub fn wire_size(&self) -> u32 {
        let reads = self.reads.len() as u32 * KEY_LEN as u32;
        let writes: u32 = self
            .writes
            .iter()
            .map(|(_, v)| KEY_LEN as u32 + v.len() as u32)
            .sum();
        4 + reads + writes
    }

    /// All keys touched (for partitioning across participants).
    pub fn keys(&self) -> impl Iterator<Item = &[u8; KEY_LEN]> {
        self.reads.iter().chain(self.writes.iter().map(|(k, _)| k))
    }
}

/// Transaction workload generator.
pub struct TxnWorkload {
    zipf: ZipfKeys,
    n_reads: usize,
    n_writes: usize,
    value_len: usize,
    rng: DetRng,
}

impl TxnWorkload {
    /// Paper-default 2R+1W transactions with values sized to the packet.
    pub fn paper_default(packet_size: u32, seed: u64) -> TxnWorkload {
        let overhead = 4 + 3 * KEY_LEN as u32 + 42;
        TxnWorkload {
            zipf: ZipfKeys::new(1_000_000, 0.99),
            n_reads: 2,
            n_writes: 1,
            value_len: packet_size.saturating_sub(overhead).max(8) as usize,
            rng: DetRng::new(seed),
        }
    }

    /// Fully parameterized constructor.
    pub fn new(
        keys: u64,
        skew: f64,
        n_reads: usize,
        n_writes: usize,
        value_len: usize,
        seed: u64,
    ) -> TxnWorkload {
        assert!(keys as usize >= n_reads + n_writes);
        TxnWorkload {
            zipf: ZipfKeys::new(keys, skew),
            n_reads,
            n_writes,
            value_len,
            rng: DetRng::new(seed),
        }
    }

    /// Draw the next transaction; keys within one transaction are distinct.
    pub fn next_txn(&mut self) -> TxnRequest {
        let mut ids = Vec::with_capacity(self.n_reads + self.n_writes);
        while ids.len() < self.n_reads + self.n_writes {
            let id = self.zipf.sample(&mut self.rng);
            if !ids.contains(&id) {
                ids.push(id);
            }
        }
        let reads = ids[..self.n_reads].iter().map(|&i| encode_key(i)).collect();
        let writes = ids[self.n_reads..]
            .iter()
            .map(|&i| {
                let mut v = vec![0u8; self.value_len];
                self.rng.fill_bytes(&mut v);
                (encode_key(i), v)
            })
            .collect();
        TxnRequest { reads, writes }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_shape_two_reads_one_write() {
        let mut w = TxnWorkload::paper_default(512, 1);
        let t = w.next_txn();
        assert_eq!(t.reads.len(), 2);
        assert_eq!(t.writes.len(), 1);
        assert_eq!(t.keys().count(), 3);
    }

    #[test]
    fn keys_within_txn_are_distinct() {
        let mut w = TxnWorkload::new(10, 0.99, 3, 2, 16, 2);
        for _ in 0..200 {
            let t = w.next_txn();
            let mut keys: Vec<_> = t.keys().collect();
            keys.sort();
            keys.dedup();
            assert_eq!(keys.len(), 5);
        }
    }

    #[test]
    fn determinism_and_wire_size() {
        let a = TxnWorkload::paper_default(512, 5).next_txn();
        let b = TxnWorkload::paper_default(512, 5).next_txn();
        assert_eq!(a, b);
        assert!(a.wire_size() <= 512);
        assert!(a.wire_size() > 3 * KEY_LEN as u32);
    }
}

//! The OCC + two-phase-commit protocol (§4):
//!
//! * **Phase 1 (read and lock)** — read the read set, lock the write set;
//!   abort if anything is already locked;
//! * **Phase 2 (validation)** — re-read the read set's versions; abort if
//!   any is locked or changed;
//! * **Phase 3 (log)** — append key/value/version to the coordinator log
//!   (the commit point);
//! * **Phase 4 (commit)** — participants update value/version and unlock.
//!
//! Pure state machines, driven identically by the iPipe actors and by unit
//! tests.

use super::store::ExtHashTable;
use std::collections::{BTreeMap, HashMap};

/// Key type (matches the workload generator).
pub const KEY_LEN: usize = 16;
/// Fixed-width key.
pub type Key = [u8; KEY_LEN];
/// Transaction id.
pub type TxId = u64;
/// Participant index.
pub type PartIdx = u32;
/// A transaction's buffered writes: `(key, value)` pairs.
pub type WriteSet = Vec<(Key, Vec<u8>)>;

/// Coordinator→participant and participant→coordinator messages.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DtMsg {
    /// Phase 1 request: read `reads`, lock `writes`.
    ReadAndLock {
        /// Transaction.
        txid: TxId,
        /// Keys to read.
        reads: Vec<Key>,
        /// Keys to lock.
        writes: Vec<Key>,
    },
    /// Phase 1 reply.
    ReadLockReply {
        /// Transaction.
        txid: TxId,
        /// False when a key was locked/missing: abort.
        ok: bool,
        /// (key, value, version) for each read.
        reads: Vec<(Key, Vec<u8>, u64)>,
    },
    /// Phase 2 request: check versions.
    Validate {
        /// Transaction.
        txid: TxId,
        /// (key, expected version).
        reads: Vec<(Key, u64)>,
    },
    /// Phase 2 reply.
    ValidateReply {
        /// Transaction.
        txid: TxId,
        /// False when a version changed or a key is locked by someone else.
        ok: bool,
    },
    /// Phase 4 request: install writes and unlock.
    Commit {
        /// Transaction.
        txid: TxId,
        /// (key, new value).
        writes: Vec<(Key, Vec<u8>)>,
    },
    /// Phase 4 ack.
    CommitAck {
        /// Transaction.
        txid: TxId,
    },
    /// Abort: release locks.
    Abort {
        /// Transaction.
        txid: TxId,
        /// Keys whose locks to release.
        writes: Vec<Key>,
    },
    /// Abort ack (so the coordinator can finish the transaction).
    AbortAck {
        /// Transaction.
        txid: TxId,
    },
}

/// One coordinator-log record (phase 3): "the coordinator logs the
/// key/value/version information into its coordinator log".
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LogRecord {
    /// Transaction.
    pub txid: TxId,
    /// Written keys with values and the versions read.
    pub writes: Vec<(Key, Vec<u8>)>,
    /// Validated read versions.
    pub read_versions: Vec<(Key, u64)>,
}

impl LogRecord {
    /// Approximate serialized size.
    pub fn bytes(&self) -> u64 {
        8 + self
            .writes
            .iter()
            .map(|(_, v)| KEY_LEN as u64 + v.len() as u64)
            .sum::<u64>()
            + self.read_versions.len() as u64 * (KEY_LEN as u64 + 8)
    }
}

/// The coordinator log with a storage limit; overflowing triggers a
/// checkpoint to the host logging actor (§4).
#[derive(Debug, Default)]
pub struct CoordinatorLog {
    records: Vec<LogRecord>,
    bytes: u64,
}

impl CoordinatorLog {
    /// Empty log.
    pub fn new() -> CoordinatorLog {
        CoordinatorLog::default()
    }

    /// Append a record; returns the new size in bytes.
    pub fn append(&mut self, rec: LogRecord) -> u64 {
        self.bytes += rec.bytes();
        self.records.push(rec);
        self.bytes
    }

    /// Current size.
    pub fn bytes(&self) -> u64 {
        self.bytes
    }

    /// Records held.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Drain everything for a checkpoint message.
    pub fn checkpoint(&mut self) -> Vec<LogRecord> {
        self.bytes = 0;
        std::mem::take(&mut self.records)
    }
}

/// Transaction progress.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TxnPhase {
    /// Phase 1 outstanding.
    ReadLock,
    /// Phase 2 outstanding.
    Validate,
    /// Phase 4 outstanding (phase 3 is local).
    Commit,
    /// Abort messages outstanding.
    Aborting,
}

/// What the coordinator wants done after consuming a reply.
#[derive(Debug, PartialEq, Eq)]
pub enum Step {
    /// Send these messages and keep waiting.
    Send(Vec<(PartIdx, DtMsg)>),
    /// Transaction committed; read results attached.
    Committed(Vec<(Key, Vec<u8>)>),
    /// Transaction aborted.
    Aborted,
    /// Nothing to do yet.
    Wait,
}

struct TxnState {
    phase: TxnPhase,
    /// Read-set partitioning, retained for retry/diagnostic paths.
    #[allow(dead_code)]
    reads: Vec<(PartIdx, Vec<Key>)>,
    writes: Vec<(PartIdx, WriteSet)>,
    pending: usize,
    read_results: Vec<(Key, Vec<u8>, u64)>,
    failed: bool,
}

/// The coordinator state machine. Keys are partitioned across `parts`
/// participants by a caller-supplied hash.
pub struct Coordinator {
    parts: u32,
    active: HashMap<TxId, TxnState>,
    /// The coordinator log (phase 3).
    pub log: CoordinatorLog,
    /// Committed / aborted counters.
    pub committed: u64,
    /// Aborted transactions.
    pub aborted: u64,
}

/// Default key→participant partitioning.
pub fn partition(key: &Key, parts: u32) -> PartIdx {
    let mut h = 0xcbf29ce484222325u64;
    for &b in key {
        h ^= b as u64;
        h = h.wrapping_mul(0x100000001b3);
    }
    (h % parts as u64) as PartIdx
}

impl Coordinator {
    /// Coordinator over `parts` participants.
    pub fn new(parts: u32) -> Coordinator {
        assert!(parts >= 1);
        Coordinator {
            parts,
            active: HashMap::new(),
            log: CoordinatorLog::new(),
            committed: 0,
            aborted: 0,
        }
    }

    /// Outstanding transactions.
    pub fn in_flight(&self) -> usize {
        self.active.len()
    }

    /// Begin a transaction: returns the phase-1 fan-out.
    pub fn begin(
        &mut self,
        txid: TxId,
        reads: Vec<Key>,
        writes: Vec<(Key, Vec<u8>)>,
    ) -> Vec<(PartIdx, DtMsg)> {
        // Every per-partition fan-out (read-lock, validate, commit, abort) is
        // emitted in partition order: message order reaches the simulated
        // event order, so it must not depend on `HashMap`'s per-process seed.
        let mut by_part_r: BTreeMap<PartIdx, Vec<Key>> = BTreeMap::new();
        for k in reads {
            by_part_r
                .entry(partition(&k, self.parts))
                .or_default()
                .push(k);
        }
        let mut by_part_w: BTreeMap<PartIdx, Vec<(Key, Vec<u8>)>> = BTreeMap::new();
        for (k, v) in writes {
            by_part_w
                .entry(partition(&k, self.parts))
                .or_default()
                .push((k, v));
        }
        let mut targets: Vec<PartIdx> = by_part_r.keys().chain(by_part_w.keys()).copied().collect();
        targets.sort_unstable();
        targets.dedup();
        let msgs: Vec<(PartIdx, DtMsg)> = targets
            .iter()
            .map(|&p| {
                (
                    p,
                    DtMsg::ReadAndLock {
                        txid,
                        reads: by_part_r.get(&p).cloned().unwrap_or_default(),
                        writes: by_part_w
                            .get(&p)
                            .map(|ws| ws.iter().map(|(k, _)| *k).collect())
                            .unwrap_or_default(),
                    },
                )
            })
            .collect();
        self.active.insert(
            txid,
            TxnState {
                phase: TxnPhase::ReadLock,
                reads: by_part_r.into_iter().collect(),
                writes: by_part_w.into_iter().collect(),
                pending: msgs.len(),
                read_results: Vec::new(),
                failed: false,
            },
        );
        msgs
    }

    fn abort_fanout(st: &TxnState, txid: TxId) -> Vec<(PartIdx, DtMsg)> {
        st.writes
            .iter()
            .map(|(p, ws)| {
                (
                    *p,
                    DtMsg::Abort {
                        txid,
                        writes: ws.iter().map(|(k, _)| *k).collect(),
                    },
                )
            })
            .collect()
    }

    /// Consume a participant reply.
    pub fn on_reply(&mut self, from: PartIdx, msg: DtMsg) -> Step {
        let _ = from;
        match msg {
            DtMsg::ReadLockReply { txid, ok, reads } => {
                let Some(st) = self.active.get_mut(&txid) else {
                    return Step::Wait;
                };
                debug_assert_eq!(st.phase, TxnPhase::ReadLock);
                st.read_results.extend(reads);
                st.failed |= !ok;
                st.pending -= 1;
                if st.pending > 0 {
                    return Step::Wait;
                }
                if st.failed {
                    // Phase 1 failed: release any write locks we took.
                    st.phase = TxnPhase::Aborting;
                    let out = Self::abort_fanout(st, txid);
                    if out.is_empty() {
                        self.active.remove(&txid);
                        self.aborted += 1;
                        return Step::Aborted;
                    }
                    st.pending = out.len();
                    return Step::Send(out);
                }
                // Phase 2: validate read versions with a second read.
                st.phase = TxnPhase::Validate;
                let mut by_part: BTreeMap<PartIdx, Vec<(Key, u64)>> = BTreeMap::new();
                for (k, _, ver) in &st.read_results {
                    by_part
                        .entry(partition(k, self.parts))
                        .or_default()
                        .push((*k, *ver));
                }
                if by_part.is_empty() {
                    // Write-only transaction: skip straight to log+commit.
                    return self.enter_commit(txid);
                }
                let out: Vec<_> = by_part
                    .into_iter()
                    .map(|(p, reads)| (p, DtMsg::Validate { txid, reads }))
                    .collect();
                st.pending = out.len();
                Step::Send(out)
            }
            DtMsg::ValidateReply { txid, ok } => {
                let Some(st) = self.active.get_mut(&txid) else {
                    return Step::Wait;
                };
                debug_assert_eq!(st.phase, TxnPhase::Validate);
                st.failed |= !ok;
                st.pending -= 1;
                if st.pending > 0 {
                    return Step::Wait;
                }
                if st.failed {
                    st.phase = TxnPhase::Aborting;
                    let out = Self::abort_fanout(st, txid);
                    if out.is_empty() {
                        self.active.remove(&txid);
                        self.aborted += 1;
                        return Step::Aborted;
                    }
                    st.pending = out.len();
                    return Step::Send(out);
                }
                self.enter_commit(txid)
            }
            DtMsg::CommitAck { txid } => {
                let Some(st) = self.active.get_mut(&txid) else {
                    return Step::Wait;
                };
                debug_assert_eq!(st.phase, TxnPhase::Commit);
                st.pending -= 1;
                if st.pending > 0 {
                    return Step::Wait;
                }
                let st = self.active.remove(&txid).expect("present");
                self.committed += 1;
                Step::Committed(
                    st.read_results
                        .into_iter()
                        .map(|(k, v, _)| (k, v))
                        .collect(),
                )
            }
            DtMsg::AbortAck { txid } => {
                let Some(st) = self.active.get_mut(&txid) else {
                    return Step::Wait;
                };
                st.pending -= 1;
                if st.pending > 0 {
                    return Step::Wait;
                }
                self.active.remove(&txid);
                self.aborted += 1;
                Step::Aborted
            }
            _ => Step::Wait,
        }
    }

    /// Phase 3 (local log append — the commit point) + phase 4 fan-out.
    fn enter_commit(&mut self, txid: TxId) -> Step {
        let st = self.active.get_mut(&txid).expect("active");
        let record = LogRecord {
            txid,
            writes: st.writes.iter().flat_map(|(_, ws)| ws.clone()).collect(),
            read_versions: st.read_results.iter().map(|(k, _, v)| (*k, *v)).collect(),
        };
        self.log.append(record);
        let st = self.active.get_mut(&txid).expect("active");
        st.phase = TxnPhase::Commit;
        let out: Vec<(PartIdx, DtMsg)> = st
            .writes
            .iter()
            .map(|(p, ws)| {
                (
                    *p,
                    DtMsg::Commit {
                        txid,
                        writes: ws.clone(),
                    },
                )
            })
            .collect();
        if out.is_empty() {
            // Read-only transaction commits at validation.
            let st = self.active.remove(&txid).expect("present");
            self.committed += 1;
            return Step::Committed(
                st.read_results
                    .into_iter()
                    .map(|(k, v, _)| (k, v))
                    .collect(),
            );
        }
        st.pending = out.len();
        Step::Send(out)
    }
}

/// A participant: the OCC datastore plus message handling.
pub struct Participant {
    /// The extendible-hashtable datastore.
    pub store: ExtHashTable<Key>,
}

impl Default for Participant {
    fn default() -> Self {
        Self::new()
    }
}

impl Participant {
    /// Empty participant store.
    pub fn new() -> Participant {
        Participant {
            store: ExtHashTable::new(8),
        }
    }

    /// Handle a coordinator message, producing the reply.
    pub fn handle(&mut self, msg: DtMsg) -> DtMsg {
        match msg {
            DtMsg::ReadAndLock {
                txid,
                reads,
                writes,
            } => {
                let mut ok = true;
                // Lock the write set first.
                let mut locked: Vec<Key> = Vec::new();
                for k in &writes {
                    // Missing keys are implicitly created so blind writes work.
                    if self.store.get(k).is_none() {
                        self.store.insert(*k, Vec::new());
                    }
                    if self.store.try_lock(k, txid) {
                        locked.push(*k);
                    } else {
                        ok = false;
                        break;
                    }
                }
                // Read set: any locked key aborts (paper phase 1).
                let mut results = Vec::new();
                if ok {
                    for k in &reads {
                        match self.store.get(k) {
                            Some(r) if r.locked_by.is_none() || r.locked_by == Some(txid) => {
                                results.push((*k, r.value.clone(), r.version));
                            }
                            Some(_) => {
                                ok = false;
                                break;
                            }
                            None => {
                                // Absent keys read as empty at version 0.
                                results.push((*k, Vec::new(), 0));
                            }
                        }
                    }
                }
                if !ok {
                    for k in locked {
                        self.store.unlock(&k, txid);
                    }
                    results.clear();
                }
                DtMsg::ReadLockReply {
                    txid,
                    ok,
                    reads: results,
                }
            }
            DtMsg::Validate { txid, reads } => {
                let ok = reads.iter().all(|(k, ver)| match self.store.get(k) {
                    Some(r) => {
                        r.version == *ver && (r.locked_by.is_none() || r.locked_by == Some(txid))
                    }
                    None => *ver == 0,
                });
                DtMsg::ValidateReply { txid, ok }
            }
            DtMsg::Commit { txid, writes } => {
                for (k, v) in writes {
                    let done = self.store.commit_write(&k, v, txid);
                    debug_assert!(done, "commit of unlocked key");
                }
                DtMsg::CommitAck { txid }
            }
            DtMsg::Abort { txid, writes } => {
                for k in writes {
                    self.store.unlock(&k, txid);
                }
                DtMsg::AbortAck { txid }
            }
            other => panic!("participant got a coordinator-side message: {other:?}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(i: u64) -> Key {
        let mut k = [0u8; KEY_LEN];
        k[8..].copy_from_slice(&i.to_be_bytes());
        k
    }

    /// Drive one transaction synchronously to completion.
    fn run_txn(
        coord: &mut Coordinator,
        parts: &mut [Participant],
        txid: TxId,
        reads: Vec<Key>,
        writes: Vec<(Key, Vec<u8>)>,
    ) -> Step {
        let mut inbox: Vec<(PartIdx, DtMsg)> = coord.begin(txid, reads, writes);
        loop {
            let mut replies = Vec::new();
            for (p, m) in inbox.drain(..) {
                replies.push((p, parts[p as usize].handle(m)));
            }
            let mut outcome = Step::Wait;
            for (p, r) in replies {
                match coord.on_reply(p, r) {
                    Step::Send(more) => inbox.extend(more),
                    Step::Wait => {}
                    done => outcome = done,
                }
            }
            if inbox.is_empty() {
                return outcome;
            }
        }
    }

    fn setup(parts: u32, keys: u64) -> (Coordinator, Vec<Participant>) {
        let coord = Coordinator::new(parts);
        let mut ps: Vec<Participant> = (0..parts).map(|_| Participant::new()).collect();
        for i in 0..keys {
            let k = key(i);
            ps[partition(&k, parts) as usize]
                .store
                .insert(k, format!("init-{i}").into_bytes());
        }
        (coord, ps)
    }

    #[test]
    fn read_write_transaction_commits() {
        let (mut c, mut ps) = setup(2, 10);
        let out = run_txn(
            &mut c,
            &mut ps,
            1,
            vec![key(0), key(1)],
            vec![(key(2), b"written".to_vec())],
        );
        match out {
            Step::Committed(reads) => {
                assert_eq!(reads.len(), 2);
                assert!(reads.iter().any(|(k, v)| *k == key(0) && v == b"init-0"));
            }
            other => panic!("expected commit, got {other:?}"),
        }
        assert_eq!(c.committed, 1);
        // Value installed, version bumped, lock released.
        let p = &ps[partition(&key(2), 2) as usize];
        let r = p.store.get(&key(2)).unwrap();
        assert_eq!(r.value, b"written");
        assert_eq!(r.version, 2);
        assert_eq!(r.locked_by, None);
        // Commit point was logged (phase 3).
        assert_eq!(c.log.len(), 1);
    }

    #[test]
    fn read_only_transaction_commits_without_phase4() {
        let (mut c, mut ps) = setup(2, 4);
        let out = run_txn(&mut c, &mut ps, 9, vec![key(1)], vec![]);
        assert!(matches!(out, Step::Committed(_)));
    }

    #[test]
    fn write_locked_key_aborts_phase1() {
        let (mut c, mut ps) = setup(1, 4);
        // Another txn holds the lock on key 1.
        assert!(ps[0].store.try_lock(&key(1), 999));
        let out = run_txn(&mut c, &mut ps, 2, vec![], vec![(key(1), b"x".to_vec())]);
        assert_eq!(out, Step::Aborted);
        assert_eq!(c.aborted, 1);
        // Value untouched.
        assert_eq!(ps[0].store.get(&key(1)).unwrap().value, b"init-1");
        assert_eq!(ps[0].store.get(&key(1)).unwrap().locked_by, Some(999));
    }

    #[test]
    fn read_of_locked_key_aborts_and_releases_own_locks() {
        let (mut c, mut ps) = setup(1, 4);
        assert!(ps[0].store.try_lock(&key(0), 999));
        let out = run_txn(
            &mut c,
            &mut ps,
            3,
            vec![key(0)],
            vec![(key(2), b"mine".to_vec())],
        );
        assert_eq!(out, Step::Aborted);
        // Our write lock on key 2 must have been released.
        assert_eq!(ps[0].store.get(&key(2)).unwrap().locked_by, None);
        assert_eq!(ps[0].store.get(&key(2)).unwrap().value, b"init-2");
    }

    #[test]
    fn version_change_between_phases_aborts() {
        let (mut c, mut ps) = setup(1, 4);
        // Phase 1 manually.
        let msgs = c.begin(5, vec![key(0)], vec![(key(1), b"w".to_vec())]);
        let mut replies = Vec::new();
        for (p, m) in msgs {
            replies.push((p, ps[p as usize].handle(m)));
        }
        // Interleaved writer bumps key 0's version before validation.
        ps[0].store.insert(key(0), b"sneaky".to_vec());
        let mut inbox = Vec::new();
        for (p, r) in replies {
            if let Step::Send(more) = c.on_reply(p, r) {
                inbox.extend(more);
            }
        }
        // Run validation + abort rounds to completion.
        let mut outcome = Step::Wait;
        while !inbox.is_empty() {
            let mut next = Vec::new();
            for (p, m) in inbox.drain(..) {
                let r = ps[p as usize].handle(m);
                match c.on_reply(p, r) {
                    Step::Send(more) => next.extend(more),
                    Step::Wait => {}
                    done => outcome = done,
                }
            }
            inbox = next;
        }
        assert_eq!(outcome, Step::Aborted);
        assert_eq!(ps[0].store.get(&key(1)).unwrap().locked_by, None);
    }

    #[test]
    fn blind_write_to_new_key_works() {
        let (mut c, mut ps) = setup(3, 0);
        let out = run_txn(&mut c, &mut ps, 7, vec![], vec![(key(77), b"new".to_vec())]);
        assert!(matches!(out, Step::Committed(_)));
        let p = &ps[partition(&key(77), 3) as usize];
        assert_eq!(p.store.get(&key(77)).unwrap().value, b"new");
    }

    #[test]
    fn absent_read_key_reads_empty_and_validates() {
        let (mut c, mut ps) = setup(2, 0);
        let out = run_txn(
            &mut c,
            &mut ps,
            8,
            vec![key(5)],
            vec![(key(6), b"v".to_vec())],
        );
        match out {
            Step::Committed(reads) => assert_eq!(reads, vec![(key(5), Vec::new())]),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn coordinator_log_checkpoint_drains() {
        let mut log = CoordinatorLog::new();
        for i in 0..10 {
            log.append(LogRecord {
                txid: i,
                writes: vec![(key(i), vec![0u8; 100])],
                read_versions: vec![(key(i + 1), 1)],
            });
        }
        assert_eq!(log.len(), 10);
        assert!(log.bytes() > 1000);
        let drained = log.checkpoint();
        assert_eq!(drained.len(), 10);
        assert!(log.is_empty());
        assert_eq!(log.bytes(), 0);
    }

    #[test]
    fn many_random_transactions_maintain_invariants() {
        let (mut c, mut ps) = setup(3, 50);
        let mut rng = ipipe_sim::DetRng::new(33);
        for txid in 1..500u64 {
            let r1 = key(rng.below(50));
            let r2 = key(rng.below(50));
            let w = key(rng.below(50));
            let _ = run_txn(
                &mut c,
                &mut ps,
                txid,
                vec![r1, r2],
                vec![(w, txid.to_le_bytes().to_vec())],
            );
            // Between transactions nothing may remain locked.
            for p in &ps {
                for (k, r) in p.store.iter() {
                    assert_eq!(r.locked_by, None, "key {k:?} left locked after txn {txid}");
                }
            }
        }
        assert!(c.committed > 400, "committed={}", c.committed);
        assert_eq!(c.committed + c.aborted, 499);
        assert_eq!(c.in_flight(), 0);
    }
}

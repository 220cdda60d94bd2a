//! Multi-Paxos (§4): "each replica maintains an ordered log for every Paxos
//! instance; a distinguished leader receives client requests and performs
//! consensus coordination using prepare/accept/learning messages. In the
//! common case, consensus for a log instance is achieved with a single round
//! of accept messages and disseminated with an additional learning round."
//!
//! This is a pure message-driven state machine: `handle` consumes a message
//! and returns the messages to send, so it runs identically inside the iPipe
//! consensus actor, the DPDK baseline, and the unit tests (which drive a
//! 3-replica group through commits, leader failure and gap learning).

use ipipe_sim::audit::{AuditReport, CLUSTER_WIDE};
use std::collections::{BTreeMap, HashSet};

/// Replica index within the group.
pub type NodeIdx = u32;
/// Ballot number; encodes the proposing replica (`ballot % n == proposer`).
pub type Ballot = u64;
/// Log position.
pub type Slot = u64;

/// Replica role.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Role {
    /// The distinguished proposer.
    Leader,
    /// Passive acceptor/learner.
    Follower,
    /// Running a two-phase leader election.
    Candidate,
}

/// Protocol messages.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PaxosMsg {
    /// Phase-1a: candidate asks for promises from `from_slot` onward.
    Prepare {
        /// Candidate's ballot.
        ballot: Ballot,
        /// First slot the candidate needs state for.
        from_slot: Slot,
    },
    /// Phase-1b: promise + the acceptor's accepted suffix.
    PrepareReply {
        /// Echoed ballot.
        ballot: Ballot,
        /// True when the promise was granted.
        ok: bool,
        /// Accepted entries at or after `from_slot`: (slot, accepted ballot, value).
        accepted: Vec<(Slot, Ballot, Vec<u8>)>,
    },
    /// Phase-2a: accept request.
    Accept {
        /// Proposer's ballot.
        ballot: Ballot,
        /// Log slot.
        slot: Slot,
        /// Proposed value.
        value: Vec<u8>,
    },
    /// Phase-2b: acceptance (or rejection carrying the higher promise).
    Accepted {
        /// Echoed ballot.
        ballot: Ballot,
        /// Log slot.
        slot: Slot,
        /// True when accepted.
        ok: bool,
    },
    /// Learning phase: the leader disseminates a chosen value.
    Learn {
        /// Log slot.
        slot: Slot,
        /// Chosen value.
        value: Vec<u8>,
    },
    /// Catch-up: a lagging replica asks a peer to re-send Learns for every
    /// committed slot at or after `from_slot` (recovers Learn messages lost
    /// on a lossy link — the heartbeat's commit frontier reveals the gap).
    LearnReq {
        /// First slot the requester is missing.
        from_slot: Slot,
    },
}

#[derive(Debug, Clone, Default)]
struct LogEntry {
    accepted_ballot: Option<Ballot>,
    value: Option<Vec<u8>>,
    committed: bool,
}

/// One Multi-Paxos replica.
pub struct PaxosNode {
    id: NodeIdx,
    n: u32,
    role: Role,
    /// Highest ballot promised (phase 1) or adopted.
    promised: Ballot,
    /// Our current ballot when leading/campaigning.
    ballot: Ballot,
    log: Vec<LogEntry>,
    /// Next slot a leader will propose into.
    next_slot: Slot,
    /// Next committed slot to hand to the application.
    apply_index: Slot,
    /// Per-slot accept quorum tracking (leader side).
    accept_votes: BTreeMap<Slot, HashSet<NodeIdx>>,
    /// Election vote tracking (candidate side).
    prepare_votes: HashSet<NodeIdx>,
    /// Merged accepted state gathered during the election.
    election_merge: BTreeMap<Slot, (Ballot, Vec<u8>)>,
    election_from: Slot,
    /// Best guess at the current leader (`ballot % n` of the last adopted
    /// ballot) — where to redirect clients that hit a follower.
    leader_hint: NodeIdx,
}

impl PaxosNode {
    /// Replica `id` of `n`. Replica 0 starts as the distinguished leader
    /// (ballot 0), the rest as followers.
    pub fn new(id: NodeIdx, n: u32) -> PaxosNode {
        assert!(n >= 1 && id < n);
        PaxosNode {
            id,
            n,
            role: if id == 0 {
                Role::Leader
            } else {
                Role::Follower
            },
            promised: 0,
            ballot: 0,
            log: Vec::new(),
            next_slot: 0,
            apply_index: 0,
            accept_votes: BTreeMap::new(),
            prepare_votes: HashSet::new(),
            election_merge: BTreeMap::new(),
            election_from: 0,
            leader_hint: 0,
        }
    }

    /// This replica's id.
    pub fn id(&self) -> NodeIdx {
        self.id
    }

    /// Current role.
    pub fn role(&self) -> Role {
        self.role
    }

    /// Current ballot.
    pub fn ballot(&self) -> Ballot {
        self.ballot
    }

    /// Most recently adopted leader (`ballot % n`); replica 0 until any
    /// election happens. Used to redirect misrouted clients.
    pub fn leader_hint(&self) -> NodeIdx {
        self.leader_hint
    }

    /// Whether `slot` is locally known to be committed.
    pub fn is_committed(&self, slot: Slot) -> bool {
        self.log
            .get(slot as usize)
            .map(|e| e.committed)
            .unwrap_or(false)
    }

    /// Number of committed-and-unapplied plus applied slots.
    pub fn commit_frontier(&self) -> Slot {
        let mut s = self.apply_index;
        while (s as usize) < self.log.len() && self.log[s as usize].committed {
            s += 1;
        }
        s
    }

    fn majority(&self) -> usize {
        (self.n as usize / 2) + 1
    }

    fn others(&self) -> impl Iterator<Item = NodeIdx> + '_ {
        (0..self.n).filter(move |&p| p != self.id)
    }

    fn entry(&mut self, slot: Slot) -> &mut LogEntry {
        if self.log.len() <= slot as usize {
            self.log.resize_with(slot as usize + 1, LogEntry::default);
        }
        &mut self.log[slot as usize]
    }

    /// Leader: propose a client command. Returns the slot chosen, so the
    /// caller can map a client token to its log position and re-drive the
    /// round on retransmission instead of burning a fresh slot, and the
    /// Accept fan-out. A replica that is not the leader returns no slot and
    /// no messages; the caller should redirect.
    pub fn propose(&mut self, value: Vec<u8>) -> (Option<Slot>, Vec<(NodeIdx, PaxosMsg)>) {
        if self.role != Role::Leader {
            return (None, Vec::new());
        }
        // Never propose into slots that are already decided locally.
        self.next_slot = self.next_slot.max(self.commit_frontier());
        let slot = self.next_slot;
        self.next_slot += 1;
        let ballot = self.ballot;
        let e = self.entry(slot);
        e.accepted_ballot = Some(ballot);
        e.value = Some(value.clone());
        self.accept_votes.entry(slot).or_default().insert(self.id);
        self.maybe_commit(slot); // single-replica groups commit immediately
        let out = self
            .others()
            .map(|p| {
                (
                    p,
                    PaxosMsg::Accept {
                        ballot,
                        slot,
                        value: value.clone(),
                    },
                )
            })
            .collect();
        (Some(slot), out)
    }

    /// Leader: re-drive the round for a slot whose messages may have been
    /// lost. Uncommitted slots get a fresh Accept fan-out under the current
    /// ballot; committed slots get their Learn round re-disseminated.
    pub fn retry_slot(&mut self, slot: Slot) -> Vec<(NodeIdx, PaxosMsg)> {
        if self.role != Role::Leader {
            return Vec::new();
        }
        let Some(value) = self.log.get(slot as usize).and_then(|e| e.value.clone()) else {
            return Vec::new();
        };
        if self.is_committed(slot) {
            return self
                .others()
                .map(|p| {
                    (
                        p,
                        PaxosMsg::Learn {
                            slot,
                            value: value.clone(),
                        },
                    )
                })
                .collect();
        }
        // Re-stamp with the current ballot (safe: phase 2 under a ballot we
        // hold the promise for) and re-run the accept round.
        let ballot = self.ballot;
        self.entry(slot).accepted_ballot = Some(ballot);
        self.accept_votes.entry(slot).or_default().insert(self.id);
        self.others()
            .map(|p| {
                (
                    p,
                    PaxosMsg::Accept {
                        ballot,
                        slot,
                        value: value.clone(),
                    },
                )
            })
            .collect()
    }

    /// Start a two-phase leader election ("when the leader fails, replicas
    /// run a two-phase Paxos leader election").
    pub fn start_election(&mut self) -> Vec<(NodeIdx, PaxosMsg)> {
        self.role = Role::Candidate;
        // Pick a ballot above anything seen, tagged with our id.
        let round = self.promised / self.n as u64 + 1;
        self.ballot = round * self.n as u64 + self.id as u64;
        self.promised = self.ballot;
        self.prepare_votes.clear();
        self.prepare_votes.insert(self.id);
        self.election_merge.clear();
        self.election_from = self.commit_frontier();
        // Merge our own accepted suffix.
        for s in self.election_from..self.log.len() as u64 {
            let e = &self.log[s as usize];
            if let (Some(b), Some(v)) = (e.accepted_ballot, e.value.clone()) {
                self.election_merge.insert(s, (b, v));
            }
        }
        let from_slot = self.election_from;
        let ballot = self.ballot;
        self.others()
            .map(|p| (p, PaxosMsg::Prepare { ballot, from_slot }))
            .collect()
    }

    /// Discard log state below `slot` (all of it must be applied) — the
    /// snapshot/compaction hook that keeps the RSM log window bounded.
    /// Returns the number of entries released.
    pub fn truncate_below(&mut self, slot: Slot) -> usize {
        let upto = slot.min(self.apply_index) as usize;
        let mut freed = 0;
        for e in self.log.iter_mut().take(upto) {
            if e.value.is_some() {
                e.value = None;
                e.accepted_ballot = None;
                freed += 1;
            }
        }
        let keys: Vec<Slot> = self
            .accept_votes
            .range(..upto as Slot)
            .map(|(&s, _)| s)
            .collect();
        for k in keys {
            self.accept_votes.remove(&k);
        }
        freed
    }

    /// Approximate bytes held by the log window (diagnostics).
    pub fn log_bytes(&self) -> usize {
        self.log
            .iter()
            .map(|e| e.value.as_ref().map(Vec::len).unwrap_or(0) + 24)
            .sum()
    }

    /// Drain commands that became committed, in log order.
    pub fn drain_committed(&mut self) -> Vec<(Slot, Vec<u8>)> {
        let mut out = Vec::new();
        while (self.apply_index as usize) < self.log.len() {
            let e = &self.log[self.apply_index as usize];
            if !e.committed {
                break;
            }
            out.push((
                self.apply_index,
                e.value.clone().expect("committed entries have values"),
            ));
            self.apply_index += 1;
        }
        out
    }

    /// Per-replica protocol-safety audit (the state is private, so the
    /// checks live here rather than in the runtime's sweep):
    ///
    /// - `paxos.ballot` — a replica never operates under a ballot above its
    ///   own promise;
    /// - `paxos.leader.ballot` — a leader's ballot is tagged with its id
    ///   (`ballot % n == id`), the structural guarantee behind ballot
    ///   uniqueness;
    /// - `paxos.frontier` — `apply_index ≤ commit_frontier ≤ log.len()`;
    /// - `paxos.accepted.ballot` — no live entry was accepted under a ballot
    ///   above the promise (acceptance always raises the promise first);
    /// - `paxos.committed.value` — every committed-and-unapplied entry holds
    ///   a value (entries below `apply_index` may be truncated);
    /// - `paxos.votes` — accept-quorum sets only ever name group members.
    pub fn audit_into(&self, r: &mut AuditReport, node: u16) {
        r.check("paxos.ballot", node, self.ballot <= self.promised, || {
            format!(
                "own ballot {} above promised {}",
                self.ballot, self.promised
            )
        });
        r.check(
            "paxos.leader.ballot",
            node,
            self.role != Role::Leader || self.ballot % self.n as u64 == self.id as u64,
            || {
                format!(
                    "leading under ballot {} not tagged with id {}",
                    self.ballot, self.id
                )
            },
        );
        let frontier = self.commit_frontier();
        r.check(
            "paxos.frontier",
            node,
            self.apply_index <= frontier && frontier <= self.log.len() as u64,
            || {
                format!(
                    "apply_index {} / frontier {} / log length {}",
                    self.apply_index,
                    frontier,
                    self.log.len()
                )
            },
        );
        for (s, e) in self.log.iter().enumerate().skip(self.apply_index as usize) {
            r.check(
                "paxos.accepted.ballot",
                node,
                e.accepted_ballot.is_none_or(|b| b <= self.promised),
                || {
                    format!(
                        "slot {s}: accepted under {:?} above promised {}",
                        e.accepted_ballot, self.promised
                    )
                },
            );
            r.check(
                "paxos.committed.value",
                node,
                !e.committed || e.value.is_some(),
                || format!("slot {s} committed without a value"),
            );
        }
        for (s, votes) in &self.accept_votes {
            r.check(
                "paxos.votes",
                node,
                votes.len() <= self.n as usize && votes.iter().all(|&v| v < self.n),
                || format!("slot {s}: vote set names non-members (group of {})", self.n),
            );
        }
    }

    /// Cross-replica agreement audit — Paxos' core safety property:
    ///
    /// - `paxos.agreement` — no slot is committed with different values on
    ///   two replicas (slots truncated on either side are skipped: their
    ///   values were applied and released);
    /// - `paxos.split.brain` — no two replicas lead under the same ballot.
    pub fn audit_group(nodes: &[&PaxosNode], r: &mut AuditReport) {
        for (i, a) in nodes.iter().enumerate() {
            for b in nodes.iter().skip(i + 1) {
                let upto = a.log.len().min(b.log.len());
                for s in 0..upto {
                    let (ea, eb) = (&a.log[s], &b.log[s]);
                    if !(ea.committed && eb.committed) {
                        continue;
                    }
                    if let (Some(va), Some(vb)) = (&ea.value, &eb.value) {
                        r.check("paxos.agreement", CLUSTER_WIDE, va == vb, || {
                            format!(
                                "slot {s}: replica {} committed {:02x?} but replica {} committed {:02x?}",
                                a.id, va, b.id, vb
                            )
                        });
                    }
                }
                r.check(
                    "paxos.split.brain",
                    CLUSTER_WIDE,
                    !(a.role == Role::Leader && b.role == Role::Leader && a.ballot == b.ballot),
                    || {
                        format!(
                            "replicas {} and {} both lead under ballot {}",
                            a.id, b.id, a.ballot
                        )
                    },
                );
            }
        }
    }

    fn maybe_commit(&mut self, slot: Slot) -> bool {
        let have = self.accept_votes.get(&slot).map(HashSet::len).unwrap_or(0);
        if have >= self.majority() {
            self.entry(slot).committed = true;
            return true;
        }
        false
    }

    /// Handle a protocol message from `from`; returns messages to send.
    pub fn handle(&mut self, from: NodeIdx, msg: PaxosMsg) -> Vec<(NodeIdx, PaxosMsg)> {
        match msg {
            PaxosMsg::Prepare { ballot, from_slot } => {
                let ok = ballot > self.promised;
                let mut accepted = Vec::new();
                if ok {
                    self.promised = ballot;
                    self.leader_hint = (ballot % self.n as u64) as NodeIdx;
                    if self.role == Role::Leader {
                        self.role = Role::Follower; // deposed
                    }
                    for s in from_slot..self.log.len() as u64 {
                        let e = &self.log[s as usize];
                        if let (Some(b), Some(v)) = (e.accepted_ballot, e.value.clone()) {
                            accepted.push((s, b, v));
                        }
                    }
                }
                vec![(
                    from,
                    PaxosMsg::PrepareReply {
                        ballot,
                        ok,
                        accepted,
                    },
                )]
            }
            PaxosMsg::PrepareReply {
                ballot,
                ok,
                accepted,
            } => {
                if self.role != Role::Candidate || ballot != self.ballot || !ok {
                    return Vec::new();
                }
                for (s, b, v) in accepted {
                    match self.election_merge.get(&s) {
                        Some((eb, _)) if *eb >= b => {}
                        _ => {
                            self.election_merge.insert(s, (b, v));
                        }
                    }
                }
                self.prepare_votes.insert(from);
                if self.prepare_votes.len() < self.majority() {
                    return Vec::new();
                }
                // Won: become leader, re-propose merged values (gap learning:
                // "choose the next available log instance and learn accepted
                // values from other replicas if its log has gaps").
                self.role = Role::Leader;
                self.leader_hint = self.id;
                self.next_slot = self.next_slot.max(self.election_from);
                let mut out = Vec::new();
                let max_slot = self.election_merge.keys().next_back().copied();
                let merged: Vec<(Slot, Vec<u8>)> = self
                    .election_merge
                    .iter()
                    .map(|(&s, (_, v))| (s, v.clone()))
                    .collect();
                for (s, v) in &merged {
                    let ballot = self.ballot;
                    let e = self.entry(*s);
                    e.accepted_ballot = Some(ballot);
                    e.value = Some(v.clone());
                    let votes = self.accept_votes.entry(*s).or_default();
                    votes.clear();
                    votes.insert(self.id);
                    self.maybe_commit(*s);
                    for p in (0..self.n).filter(|&p| p != self.id) {
                        out.push((
                            p,
                            PaxosMsg::Accept {
                                ballot,
                                slot: *s,
                                value: v.clone(),
                            },
                        ));
                    }
                }
                // Fill uncovered gaps below the merge horizon with no-ops.
                if let Some(max) = max_slot {
                    for s in self.election_from..=max {
                        if !self.election_merge.contains_key(&s) {
                            let ballot = self.ballot;
                            let e = self.entry(s);
                            e.accepted_ballot = Some(ballot);
                            e.value = Some(Vec::new());
                            let votes = self.accept_votes.entry(s).or_default();
                            votes.clear();
                            votes.insert(self.id);
                            self.maybe_commit(s);
                            for p in (0..self.n).filter(|&p| p != self.id) {
                                out.push((
                                    p,
                                    PaxosMsg::Accept {
                                        ballot,
                                        slot: s,
                                        value: Vec::new(),
                                    },
                                ));
                            }
                        }
                    }
                    self.next_slot = self.next_slot.max(max + 1);
                }
                out
            }
            PaxosMsg::Accept {
                ballot,
                slot,
                value,
            } => {
                let ok = ballot >= self.promised;
                if ok {
                    self.promised = ballot;
                    self.leader_hint = (ballot % self.n as u64) as NodeIdx;
                    if self.role != Role::Follower && ballot != self.ballot {
                        self.role = Role::Follower;
                    }
                    let e = self.entry(slot);
                    e.accepted_ballot = Some(ballot);
                    e.value = Some(value);
                }
                // A rejection must carry the *promised* ballot, not echo the
                // proposer's: a leader deposed while partitioned away can
                // only learn of the new regime from this reply.
                let reply_ballot = if ok { ballot } else { self.promised };
                vec![(
                    from,
                    PaxosMsg::Accepted {
                        ballot: reply_ballot,
                        slot,
                        ok,
                    },
                )]
            }
            PaxosMsg::Accepted { ballot, slot, ok } => {
                if !ok {
                    // The acceptor promised a higher ballot: we were deposed
                    // without hearing the Prepare (crash/partition window).
                    // Step down so stale re-proposals stop and clients get
                    // redirected toward the real leader.
                    if self.role == Role::Leader && ballot > self.ballot {
                        self.promised = self.promised.max(ballot);
                        self.leader_hint = (ballot % self.n as u64) as NodeIdx;
                        self.role = Role::Follower;
                    }
                    return Vec::new();
                }
                if self.role != Role::Leader || ballot != self.ballot {
                    return Vec::new();
                }
                self.accept_votes.entry(slot).or_default().insert(from);
                let newly = !self.log[slot as usize].committed && self.maybe_commit(slot);
                if newly {
                    // Learning round.
                    let value = self.log[slot as usize].value.clone().expect("accepted");
                    self.others()
                        .map(|p| {
                            (
                                p,
                                PaxosMsg::Learn {
                                    slot,
                                    value: value.clone(),
                                },
                            )
                        })
                        .collect()
                } else {
                    Vec::new()
                }
            }
            PaxosMsg::Learn { slot, value } => {
                let e = self.entry(slot);
                e.value = Some(value);
                e.committed = true;
                Vec::new()
            }
            PaxosMsg::LearnReq { from_slot } => {
                // Re-send Learns for every committed slot we still hold at or
                // after the requester's frontier (truncated slots are below
                // its frontier by definition, so the gap is always servable).
                let mut out = Vec::new();
                for s in from_slot..self.log.len() as u64 {
                    let e = &self.log[s as usize];
                    if e.committed {
                        if let Some(v) = e.value.clone() {
                            out.push((from, PaxosMsg::Learn { slot: s, value: v }));
                        }
                    }
                }
                out
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::VecDeque;

    /// Deliver all in-flight messages until quiescence (optionally dropping
    /// everything to/from `dead`).
    fn pump(
        nodes: &mut [PaxosNode],
        queue: &mut VecDeque<(NodeIdx, NodeIdx, PaxosMsg)>,
        dead: Option<NodeIdx>,
    ) {
        while let Some((from, to, msg)) = queue.pop_front() {
            if Some(from) == dead || Some(to) == dead {
                continue;
            }
            for (dst, m) in nodes[to as usize].handle(from, msg) {
                queue.push_back((to, dst, m));
            }
        }
    }

    fn group(n: u32) -> Vec<PaxosNode> {
        (0..n).map(|i| PaxosNode::new(i, n)).collect()
    }

    #[test]
    fn truncation_bounds_the_log() {
        let mut nodes = group(3);
        let mut q = VecDeque::new();
        for i in 0..100u32 {
            for (to, m) in nodes[0].propose(vec![i as u8; 64]).1 {
                q.push_back((0, to, m));
            }
        }
        pump(&mut nodes, &mut q, None);
        let drained = nodes[0].drain_committed();
        assert_eq!(drained.len(), 100);
        let before = nodes[0].log_bytes();
        let freed = nodes[0].truncate_below(100);
        assert_eq!(freed, 100);
        assert!(nodes[0].log_bytes() < before / 2);
        // The replica still works after truncation.
        for (to, m) in nodes[0].propose(b"post-truncate".to_vec()).1 {
            q.push_back((0, to, m));
        }
        pump(&mut nodes, &mut q, None);
        assert_eq!(nodes[0].drain_committed().len(), 1);
    }

    #[test]
    fn truncation_never_touches_unapplied_slots() {
        let mut n = PaxosNode::new(0, 1);
        n.propose(b"a".to_vec());
        n.propose(b"b".to_vec());
        // Nothing applied yet: truncate_below is a no-op past apply_index.
        assert_eq!(n.truncate_below(10), 0);
        assert_eq!(n.drain_committed().len(), 2);
        assert_eq!(n.truncate_below(10), 2);
    }

    #[test]
    fn single_replica_commits_instantly() {
        let mut n = PaxosNode::new(0, 1);
        let out = n.propose(b"x".to_vec()).1;
        assert!(out.is_empty());
        assert_eq!(n.drain_committed(), vec![(0, b"x".to_vec())]);
    }

    #[test]
    fn three_replicas_commit_in_one_accept_round() {
        let mut nodes = group(3);
        let mut q = VecDeque::new();
        for (to, m) in nodes[0].propose(b"cmd1".to_vec()).1 {
            q.push_back((0, to, m));
        }
        pump(&mut nodes, &mut q, None);
        for node in nodes.iter_mut() {
            assert_eq!(
                node.drain_committed(),
                vec![(0, b"cmd1".to_vec())],
                "node {}",
                node.id()
            );
        }
    }

    #[test]
    fn commands_apply_in_order_across_replicas() {
        let mut nodes = group(3);
        let mut q = VecDeque::new();
        for i in 0..50u32 {
            for (to, m) in nodes[0].propose(format!("c{i}").into_bytes()).1 {
                q.push_back((0, to, m));
            }
        }
        pump(&mut nodes, &mut q, None);
        let expect: Vec<_> = (0..50u32)
            .map(|i| (i as u64, format!("c{i}").into_bytes()))
            .collect();
        for node in nodes.iter_mut() {
            assert_eq!(node.drain_committed(), expect);
        }
    }

    #[test]
    fn leader_failure_election_preserves_committed_values() {
        let mut nodes = group(3);
        let mut q = VecDeque::new();
        for (to, m) in nodes[0].propose(b"durable".to_vec()).1 {
            q.push_back((0, to, m));
        }
        pump(&mut nodes, &mut q, None);
        // Node 0 dies. Node 1 campaigns.
        for (to, m) in nodes[1].start_election() {
            q.push_back((1, to, m));
        }
        pump(&mut nodes, &mut q, Some(0));
        assert_eq!(nodes[1].role(), Role::Leader);
        assert_eq!(nodes[2].role(), Role::Follower);
        // The new leader can commit new commands with the survivor.
        for (to, m) in nodes[1].propose(b"post-failover".to_vec()).1 {
            q.push_back((1, to, m));
        }
        pump(&mut nodes, &mut q, Some(0));
        let all1 = nodes[1].drain_committed();
        let all2 = nodes[2].drain_committed();
        assert_eq!(all1, all2);
        assert_eq!(all1[0].1, b"durable".to_vec());
        assert!(all1.iter().any(|(_, v)| v == b"post-failover"));
    }

    #[test]
    fn election_recovers_uncommitted_accepted_value() {
        let mut nodes = group(3);
        // Leader proposes but only node 1 receives the Accept (partial
        // round); leader then dies before committing.
        let out = nodes[0].propose(b"maybe".to_vec()).1;
        for (to, m) in out {
            if to == 1 {
                let replies = nodes[1].handle(0, m);
                drop(replies); // leader is dead; Accepted goes nowhere
            }
        }
        // Node 2 campaigns; node 1's promise carries the accepted value, so
        // Paxos safety forces the new leader to re-propose it.
        let mut q = VecDeque::new();
        for (to, m) in nodes[2].start_election() {
            q.push_back((2, to, m));
        }
        pump(&mut nodes, &mut q, Some(0));
        assert_eq!(nodes[2].role(), Role::Leader);
        let committed = nodes[2].drain_committed();
        assert_eq!(committed, vec![(0, b"maybe".to_vec())]);
    }

    #[test]
    fn deposed_leader_steps_down() {
        let mut nodes = group(3);
        let mut q = VecDeque::new();
        for (to, m) in nodes[1].start_election() {
            q.push_back((1, to, m));
        }
        pump(&mut nodes, &mut q, None);
        assert_eq!(nodes[1].role(), Role::Leader);
        assert_eq!(nodes[0].role(), Role::Follower, "old leader must step down");
        // Old leader's proposals are now inert.
        assert!(nodes[0].propose(b"stale".to_vec()).1.is_empty());
    }

    #[test]
    fn learn_req_backfills_a_lagging_replica() {
        let mut nodes = group(3);
        // Commit 5 commands, but replica 2 never hears the Learn round (it
        // still votes Accept, so entries are accepted-not-committed there).
        let mut q = VecDeque::new();
        for i in 0..5u32 {
            for (to, m) in nodes[0].propose(format!("v{i}").into_bytes()).1 {
                q.push_back((0, to, m));
            }
        }
        while let Some((from, to, msg)) = q.pop_front() {
            if to == 2 && matches!(msg, PaxosMsg::Learn { .. }) {
                continue; // lossy link eats every Learn toward replica 2
            }
            for (dst, m) in nodes[to as usize].handle(from, msg) {
                q.push_back((to, dst, m));
            }
        }
        assert_eq!(nodes[0].commit_frontier(), 5);
        assert_eq!(nodes[2].commit_frontier(), 0, "Learns were all lost");
        // Catch-up: replica 2 asks the leader from its frontier.
        let from_slot = nodes[2].commit_frontier();
        for (to, m) in nodes[0].handle(2, PaxosMsg::LearnReq { from_slot }) {
            assert_eq!(to, 2);
            nodes[2].handle(0, m);
        }
        assert_eq!(nodes[2].commit_frontier(), 5);
        assert_eq!(nodes[0].drain_committed(), nodes[2].drain_committed());
    }

    #[test]
    fn retry_slot_redrives_a_lost_accept_round() {
        let mut nodes = group(3);
        // Both Accepts are lost: the slot stays uncommitted on the leader.
        let out = nodes[0].propose(b"flaky".to_vec()).1;
        assert_eq!(out.len(), 2);
        assert!(!nodes[0].is_committed(0));
        // Timeout fires; the retried round goes through.
        let mut q = VecDeque::new();
        for (to, m) in nodes[0].retry_slot(0) {
            q.push_back((0, to, m));
        }
        pump(&mut nodes, &mut q, None);
        assert!(nodes[0].is_committed(0));
        assert_eq!(nodes[1].drain_committed(), vec![(0, b"flaky".to_vec())]);
        // Retrying a committed slot re-disseminates Learns, not Accepts.
        assert!(nodes[0]
            .retry_slot(0)
            .iter()
            .all(|(_, m)| matches!(m, PaxosMsg::Learn { .. })));
        // Followers never retry.
        assert!(nodes[1].retry_slot(0).is_empty());
    }

    #[test]
    fn stale_leader_steps_down_on_rejected_accept() {
        let mut nodes = group(3);
        // Replica 0 is partitioned away while 1 wins an election with 2 —
        // 0 never hears the Prepare, so it still believes it leads.
        let mut q = VecDeque::new();
        for (to, m) in nodes[1].start_election() {
            q.push_back((1, to, m));
        }
        pump(&mut nodes, &mut q, Some(0));
        assert_eq!(nodes[1].role(), Role::Leader);
        assert_eq!(nodes[0].role(), Role::Leader, "0 missed the election");
        // The partition heals and 0 proposes: the rejections it gets back
        // carry the higher promise and depose it.
        for (to, m) in nodes[0].propose(b"stale".to_vec()).1 {
            for (back, r) in nodes[to as usize].handle(0, m) {
                assert_eq!(back, 0);
                nodes[0].handle(to, r);
            }
        }
        assert_eq!(nodes[0].role(), Role::Follower, "rejection must depose");
        assert_eq!(nodes[0].leader_hint(), 1);
        // The stale value never committed anywhere.
        assert!(nodes[1].drain_committed().is_empty());
        assert!(nodes[2].drain_committed().is_empty());
    }

    #[test]
    fn leader_hint_follows_elections() {
        let mut nodes = group(3);
        assert_eq!(nodes[2].leader_hint(), 0, "replica 0 leads at boot");
        let mut q = VecDeque::new();
        for (to, m) in nodes[1].start_election() {
            q.push_back((1, to, m));
        }
        pump(&mut nodes, &mut q, None);
        for nd in &nodes {
            assert_eq!(nd.leader_hint(), 1, "node {}", nd.id());
        }
    }

    #[test]
    fn five_replica_group_survives_two_failures() {
        let mut nodes = group(5);
        let mut q = VecDeque::new();
        for (to, m) in nodes[0].propose(b"a".to_vec()).1 {
            q.push_back((0, to, m));
        }
        pump(&mut nodes, &mut q, None);
        // Kill 0; elect 3; commit with quorum {1,2,3} (4 also alive).
        for (to, m) in nodes[3].start_election() {
            q.push_back((3, to, m));
        }
        pump(&mut nodes, &mut q, Some(0));
        for (to, m) in nodes[3].propose(b"b".to_vec()).1 {
            q.push_back((3, to, m));
        }
        pump(&mut nodes, &mut q, Some(0));
        let c3 = nodes[3].drain_committed();
        assert_eq!(c3.len(), 2);
        assert_eq!(c3[0].1, b"a");
        assert_eq!(c3[1].1, b"b");
    }

    #[test]
    fn audit_passes_through_commit_failover_and_truncation() {
        use ipipe_sim::SimTime;
        let audit_all = |nodes: &[PaxosNode]| {
            let mut r = AuditReport::new(SimTime::ZERO);
            for (i, nd) in nodes.iter().enumerate() {
                nd.audit_into(&mut r, i as u16);
            }
            let refs: Vec<&PaxosNode> = nodes.iter().collect();
            PaxosNode::audit_group(&refs, &mut r);
            r
        };
        let mut nodes = group(3);
        let mut q = VecDeque::new();
        for i in 0..20u32 {
            for (to, m) in nodes[0].propose(vec![i as u8; 16]).1 {
                q.push_back((0, to, m));
            }
        }
        pump(&mut nodes, &mut q, None);
        assert!(
            audit_all(&nodes).is_clean(),
            "{}",
            audit_all(&nodes).render()
        );
        // Failover under a dead leader, then more commits.
        for (to, m) in nodes[1].start_election() {
            q.push_back((1, to, m));
        }
        pump(&mut nodes, &mut q, Some(0));
        for (to, m) in nodes[1].propose(b"after".to_vec()).1 {
            q.push_back((1, to, m));
        }
        pump(&mut nodes, &mut q, Some(0));
        assert!(
            audit_all(&nodes).is_clean(),
            "{}",
            audit_all(&nodes).render()
        );
        // Apply + truncate on the new leader: committed-without-value below
        // apply_index must NOT trip the audit.
        let applied = nodes[1].drain_committed().len() as u64;
        assert!(applied >= 21);
        nodes[1].truncate_below(applied);
        assert!(
            audit_all(&nodes).is_clean(),
            "{}",
            audit_all(&nodes).render()
        );
    }

    #[test]
    fn audit_catches_forged_divergence_and_ballot_drift() {
        use ipipe_sim::SimTime;
        let mut nodes = group(3);
        let mut q = VecDeque::new();
        for (to, m) in nodes[0].propose(b"truth".to_vec()).1 {
            q.push_back((0, to, m));
        }
        pump(&mut nodes, &mut q, None);
        // Forge the canonical safety violation: replica 2 commits a
        // different value into an agreed slot.
        nodes[2].log[0].value = Some(b"forged".to_vec());
        let mut r = AuditReport::new(SimTime::ZERO);
        let refs: Vec<&PaxosNode> = nodes.iter().collect();
        PaxosNode::audit_group(&refs, &mut r);
        // Both honest replicas disagree with the forger: two pairs trip.
        assert_eq!(r.violations().len(), 2);
        assert!(r
            .violations()
            .iter()
            .all(|v| v.invariant == "paxos.agreement"));
        // And a replica operating above its own promise.
        nodes[1].ballot = nodes[1].promised + 1;
        let mut r = AuditReport::new(SimTime::ZERO);
        nodes[1].audit_into(&mut r, 1);
        assert!(r.violations().iter().any(|v| v.invariant == "paxos.ballot"));
    }

    /// Deliver in-flight messages, independently dropping each with
    /// probability `loss` (seeded, so failures replay exactly).
    fn pump_lossy(
        nodes: &mut [PaxosNode],
        queue: &mut VecDeque<(NodeIdx, NodeIdx, PaxosMsg)>,
        rng: &mut ipipe_sim::DetRng,
        loss: f64,
    ) {
        while let Some((from, to, msg)) = queue.pop_front() {
            if rng.chance(loss) {
                continue;
            }
            for (dst, m) in nodes[to as usize].handle(from, msg) {
                queue.push_back((to, dst, m));
            }
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(48))]

        /// Satellite: a 3-replica group reaches identical consensus on every
        /// replica under seeded message loss up to 10%, given the recovery
        /// moves the runtime performs (leader retransmit on timeout, follower
        /// LearnReq catch-up driven by the heartbeat commit frontier).
        #[test]
        fn three_replicas_converge_under_seeded_loss(
            seed in proptest::prelude::any::<u64>(),
            loss_pct in 1u32..11,
            n_cmds in 1usize..24,
        ) {
            let loss = loss_pct as f64 / 100.0;
            let mut rng = ipipe_sim::DetRng::new(seed);
            let mut nodes = group(3);
            let mut q = VecDeque::new();
            for i in 0..n_cmds {
                for (to, m) in nodes[0].propose(vec![i as u8; 8]).1 {
                    q.push_back((0, to, m));
                }
            }
            let target = n_cmds as u64;
            let mut rounds = 0;
            while !nodes.iter().all(|nd| nd.commit_frontier() >= target) {
                rounds += 1;
                proptest::prop_assert!(rounds < 400, "no convergence in 400 rounds");
                // Leader re-drives undecided slots (the timeout path)...
                for s in 0..target {
                    if !nodes[0].is_committed(s) {
                        for (to, m) in nodes[0].retry_slot(s) {
                            q.push_back((0, to, m));
                        }
                    }
                }
                // ...and lagging followers ask for committed slots they
                // missed (the heartbeat-frontier path).
                for i in 1..3u32 {
                    let f = nodes[i as usize].commit_frontier();
                    if f < target {
                        q.push_back((i, 0, PaxosMsg::LearnReq { from_slot: f }));
                    }
                }
                pump_lossy(&mut nodes, &mut q, &mut rng, loss);
            }
            let expect: Vec<(Slot, Vec<u8>)> =
                (0..n_cmds).map(|i| (i as u64, vec![i as u8; 8])).collect();
            for nd in nodes.iter_mut() {
                proptest::prop_assert_eq!(nd.drain_committed(), expect.clone());
            }
        }
    }
}

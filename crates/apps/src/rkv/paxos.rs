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
//!
//! # The log is a window
//!
//! A replica holds the slots from `base` on, and drops every slot the whole
//! group has applied. Each `Accepted` carries the acceptor's `apply_index`
//! (`applied`); the leader keeps the highest one each replica reported in an
//! accepting reply in `peer_applied` (its own entry is its own
//! `apply_index`), and each `Accept` carries `trunc`, the highest minimum of
//! those it has known. After each `drain_committed`, and on each accepted
//! `Accept`, a replica drops the entries below `min(apply_index, trunc)`.
//!
//! Why that is safe. An `apply_index` only grows (a crash keeps local state,
//! DESIGN.md §10), so a reported `applied` is a lower bound on that
//! replica's `apply_index` for ever after, and `trunc` is one on every
//! replica's. `base` therefore never passes any replica's commit frontier.
//! A `Prepare(from_slot)` or `LearnReq(from_slot)` asks from its sender's
//! frontier, and the sender has applied every slot below the responder's
//! `base` (even when the message was delayed), so both are served from
//! `max(from_slot, base)` and nothing the sender lacks is left out (a
//! candidate rejects every Accept, so it reports nothing while its election
//! runs and no `base` passes that election's `from_slot`). A late
//! `Accept` below `base` is answered but not stored; a late `Accepted` or
//! `Learn` below `base` changes nothing. No message brings a slot below
//! `base` back into the window. A partitioned or lagging replica holds
//! `trunc` back: the leader keeps every slot that replica's `LearnReq` will
//! ask for.

#![deny(clippy::cast_possible_truncation)]

use ipipe_sim::audit::{AuditReport, CLUSTER_WIDE};
use std::collections::{BTreeMap, VecDeque};

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
        /// Every replica has applied every slot below this one: the
        /// receiver may drop them.
        trunc: Slot,
    },
    /// Phase-2b: acceptance (or rejection carrying the higher promise).
    Accepted {
        /// Echoed ballot.
        ballot: Ballot,
        /// Log slot.
        slot: Slot,
        /// True when accepted.
        ok: bool,
        /// The acceptor's `apply_index`: it has applied every slot below.
        applied: Slot,
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
    /// Accept votes (leader side): bit `p` is set once replica `p` accepted.
    votes: u32,
}

impl LogEntry {
    /// Count `p`'s accept vote; the entry commits once `majority` replicas
    /// have voted. True when this vote committed it.
    fn vote(&mut self, p: NodeIdx, majority: u32) -> bool {
        self.votes |= 1 << p;
        let newly = !self.committed && self.votes.count_ones() >= majority;
        self.committed |= newly;
        newly
    }
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
    /// Slots `base ..`; every slot below `base` is applied on every replica.
    log: VecDeque<LogEntry>,
    /// First slot still held in `log`.
    base: Slot,
    /// Next slot a leader will propose into.
    next_slot: Slot,
    /// Next committed slot to hand to the application.
    apply_index: Slot,
    /// Highest `applied` each replica reported in an accepting `Accepted`;
    /// this replica's own entry is its `apply_index`.
    peer_applied: Vec<Slot>,
    /// Highest truncation point known: every replica has applied every slot
    /// below it.
    trunc: Slot,
    /// Election votes (candidate side): bit `p` is set once replica `p`
    /// promised.
    prepare_votes: u32,
    /// Merged accepted state gathered during the election; emptied when the
    /// election is won.
    election_merge: BTreeMap<Slot, (Ballot, Vec<u8>)>,
    election_from: Slot,
    /// Best guess at the current leader (`ballot % n` of the last adopted
    /// ballot) — where to redirect clients that hit a follower.
    leader_hint: NodeIdx,
}

impl PaxosNode {
    /// Replica `id` of `n` (at most 32: accept votes are a `u32` bitmask).
    /// Replica 0 starts as the distinguished leader (ballot 0), the rest as
    /// followers.
    pub fn new(id: NodeIdx, n: u32) -> PaxosNode {
        assert!((1..=32).contains(&n) && id < n);
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
            log: VecDeque::new(),
            base: 0,
            next_slot: 0,
            apply_index: 0,
            peer_applied: vec![0; n as usize],
            trunc: 0,
            prepare_votes: 0,
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

    /// Whether `slot` is locally known to be committed (every slot below
    /// the window is).
    pub fn is_committed(&self, slot: Slot) -> bool {
        slot < self.base || self.get(slot).is_some_and(|e| e.committed)
    }

    /// Number of committed-and-unapplied plus applied slots.
    pub fn commit_frontier(&self) -> Slot {
        let mut s = self.apply_index;
        while self.get(s).is_some_and(|e| e.committed) {
            s += 1;
        }
        s
    }

    fn majority(&self) -> u32 {
        self.n / 2 + 1
    }

    fn others(&self) -> impl Iterator<Item = NodeIdx> + '_ {
        (0..self.n).filter(move |&p| p != self.id)
    }

    /// The replica that proposes under `ballot`.
    fn proposer(&self, ballot: Ballot) -> NodeIdx {
        NodeIdx::try_from(ballot % u64::from(self.n)).expect("a remainder mod n fits in a u32")
    }

    /// One past the last slot the window holds.
    fn end(&self) -> Slot {
        self.base + self.log.len() as u64
    }

    /// Position of `slot` in the window; `None` below `base`.
    fn index(&self, slot: Slot) -> Option<usize> {
        usize::try_from(slot.checked_sub(self.base)?).ok()
    }

    fn get(&self, slot: Slot) -> Option<&LogEntry> {
        self.log.get(self.index(slot)?)
    }

    fn get_mut(&mut self, slot: Slot) -> Option<&mut LogEntry> {
        let i = self.index(slot)?;
        self.log.get_mut(i)
    }

    /// The entry for `slot`, created (with any gap before it) on first use;
    /// `None` below `base`, which nothing brings back.
    fn entry(&mut self, slot: Slot) -> Option<&mut LogEntry> {
        let i = self.index(slot)?;
        if self.log.len() <= i {
            self.log.resize_with(i + 1, LogEntry::default);
        }
        self.log.get_mut(i)
    }

    /// The held entries from `slot` on (from `base` when `slot` is below
    /// it), with their slots.
    fn suffix(&self, slot: Slot) -> impl Iterator<Item = (Slot, &LogEntry)> {
        let from = slot.max(self.base);
        let skip = self.index(from).unwrap_or(usize::MAX);
        (from..).zip(self.log.iter().skip(skip))
    }

    /// Drop every entry below `min(apply_index, trunc)`.
    fn compact(&mut self) {
        let upto = self.apply_index.min(self.trunc);
        if let Some(n) = self.index(upto) {
            self.log.drain(..n);
            self.base = upto;
        }
    }

    /// The Accept fan-out for `slot` under the current ballot.
    fn accepts(&self, slot: Slot, value: &[u8]) -> Vec<(NodeIdx, PaxosMsg)> {
        let (ballot, trunc) = (self.ballot, self.trunc);
        self.others()
            .map(|p| {
                let value = value.to_vec();
                (
                    p,
                    PaxosMsg::Accept {
                        ballot,
                        slot,
                        value,
                        trunc,
                    },
                )
            })
            .collect()
    }

    /// The Learn fan-out for `slot`.
    fn learns(&self, slot: Slot, value: &[u8]) -> Vec<(NodeIdx, PaxosMsg)> {
        self.others()
            .map(|p| {
                let value = value.to_vec();
                (p, PaxosMsg::Learn { slot, value })
            })
            .collect()
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
        let out = self.accepts(slot, &value);
        let (ballot, id, majority) = (self.ballot, self.id, self.majority());
        let e = self
            .entry(slot)
            .expect("the commit frontier is at or above base");
        e.accepted_ballot = Some(ballot);
        e.value = Some(value);
        e.vote(id, majority); // single-replica groups commit immediately
        (Some(slot), out)
    }

    /// Leader: re-drive the round for a slot whose messages may have been
    /// lost. Uncommitted slots get a fresh Accept fan-out under the current
    /// ballot; committed slots get their Learn round re-disseminated (slots
    /// below the window are applied everywhere and need neither).
    pub fn retry_slot(&mut self, slot: Slot) -> Vec<(NodeIdx, PaxosMsg)> {
        if self.role != Role::Leader {
            return Vec::new();
        }
        let Some(value) = self.get(slot).and_then(|e| e.value.clone()) else {
            return Vec::new();
        };
        if self.is_committed(slot) {
            return self.learns(slot, &value);
        }
        // Re-stamp with the current ballot (safe: phase 2 under a ballot we
        // hold the promise for) and re-run the accept round.
        let (ballot, id) = (self.ballot, self.id);
        let e = self.get_mut(slot).expect("held: it has a value");
        e.accepted_ballot = Some(ballot);
        e.votes |= 1 << id;
        self.accepts(slot, &value)
    }

    /// Start a two-phase leader election ("when the leader fails, replicas
    /// run a two-phase Paxos leader election").
    pub fn start_election(&mut self) -> Vec<(NodeIdx, PaxosMsg)> {
        self.role = Role::Candidate;
        // Pick a ballot above anything seen, tagged with our id.
        let n = u64::from(self.n);
        self.ballot = (self.promised / n + 1) * n + u64::from(self.id);
        self.promised = self.ballot;
        self.prepare_votes = 1 << self.id;
        self.election_from = self.commit_frontier();
        // Merge our own accepted suffix.
        let own = self
            .suffix(self.election_from)
            .filter_map(|(s, e)| Some((s, (e.accepted_ballot?, e.value.clone()?))))
            .collect();
        self.election_merge = own;
        let from_slot = self.election_from;
        let ballot = self.ballot;
        self.others()
            .map(|p| (p, PaxosMsg::Prepare { ballot, from_slot }))
            .collect()
    }

    /// Drain commands that became committed, in log order, then drop what
    /// the whole group has applied.
    pub fn drain_committed(&mut self) -> Vec<(Slot, Vec<u8>)> {
        let mut out = Vec::new();
        while let Some(e) = self.get(self.apply_index).filter(|e| e.committed) {
            let value = e.value.clone().expect("committed entries have values");
            out.push((self.apply_index, value));
            self.apply_index += 1;
        }
        self.peer_applied[self.id as usize] = self.apply_index;
        let group = self.peer_applied.iter().copied().min().unwrap_or(0);
        self.trunc = self.trunc.max(group);
        self.compact();
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
    /// - `paxos.frontier` — `apply_index ≤ commit_frontier ≤` the window's end;
    /// - `paxos.window` — `base ≤ apply_index` and `base ≤ trunc`: the window
    ///   never drops an unapplied slot, nor one some replica may still ask for;
    /// - `paxos.accepted.ballot` — no live entry was accepted under a ballot
    ///   above the promise (acceptance always raises the promise first);
    /// - `paxos.committed.value` — every committed-and-unapplied entry holds
    ///   a value;
    /// - `paxos.votes` — no accept-vote bitmask, nor the prepare-vote one,
    ///   names a bit at or above `n` (the prepare votes are reported only
    ///   as a violation, so a clean audit's check count is unchanged).
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
            self.role != Role::Leader || self.proposer(self.ballot) == self.id,
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
            self.apply_index <= frontier && frontier <= self.end(),
            || {
                format!(
                    "apply_index {} / frontier {} / window end {}",
                    self.apply_index,
                    frontier,
                    self.end()
                )
            },
        );
        r.check(
            "paxos.window",
            node,
            self.base <= self.apply_index && self.base <= self.trunc,
            || {
                format!(
                    "base {} above apply_index {} or trunc {}",
                    self.base, self.apply_index, self.trunc
                )
            },
        );
        for (s, e) in self.suffix(self.apply_index) {
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
        for (s, e) in self.suffix(self.base) {
            r.check(
                "paxos.votes",
                node,
                e.votes.checked_shr(self.n).unwrap_or(0) == 0,
                || {
                    format!(
                        "slot {s}: votes {:#x} name non-members (group of {})",
                        e.votes, self.n
                    )
                },
            );
        }
        if self.prepare_votes.checked_shr(self.n).unwrap_or(0) != 0 {
            let detail = format!(
                "prepare votes {:#x} name non-members (group of {})",
                self.prepare_votes, self.n
            );
            r.violation("paxos.votes", node, detail);
        }
    }

    /// Cross-replica agreement audit — Paxos' core safety property:
    ///
    /// - `paxos.agreement` — no slot is committed with different values on
    ///   two replicas (slots below either window are skipped: the whole
    ///   group applied and dropped them);
    /// - `paxos.split.brain` — no two replicas lead under the same ballot.
    pub fn audit_group(nodes: &[&PaxosNode], r: &mut AuditReport) {
        for (i, a) in nodes.iter().enumerate() {
            for b in nodes.iter().skip(i + 1) {
                let from = a.base.max(b.base);
                for ((s, ea), (_, eb)) in a.suffix(from).zip(b.suffix(from)) {
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

    /// Election won: re-propose `slot` with `value` under the new ballot. A
    /// slot that fell below `base` during the election is applied
    /// everywhere: its Accepts still go out, but it is not stored again.
    fn repropose(&mut self, slot: Slot, value: &[u8], out: &mut Vec<(NodeIdx, PaxosMsg)>) {
        let (ballot, id, majority) = (self.ballot, self.id, self.majority());
        if let Some(e) = self.entry(slot) {
            e.accepted_ballot = Some(ballot);
            e.value = Some(value.to_vec());
            e.votes = 0;
            e.vote(id, majority);
        }
        out.extend(self.accepts(slot, value));
    }

    /// Handle a protocol message from `from`; returns messages to send.
    pub fn handle(&mut self, from: NodeIdx, msg: PaxosMsg) -> Vec<(NodeIdx, PaxosMsg)> {
        match msg {
            PaxosMsg::Prepare { ballot, from_slot } => {
                let ok = ballot > self.promised;
                let mut accepted = Vec::new();
                if ok {
                    self.promised = ballot;
                    self.leader_hint = self.proposer(ballot);
                    if self.role == Role::Leader {
                        self.role = Role::Follower; // deposed
                    }
                    accepted = self
                        .suffix(from_slot)
                        .filter_map(|(s, e)| Some((s, e.accepted_ballot?, e.value.clone()?)))
                        .collect();
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
                self.prepare_votes |= 1 << from;
                if self.prepare_votes.count_ones() < self.majority() {
                    return Vec::new();
                }
                // Won: become leader, re-propose merged values (gap learning:
                // "choose the next available log instance and learn accepted
                // values from other replicas if its log has gaps"). A leader
                // ignores later PrepareReplys, so the merge is freed here.
                self.role = Role::Leader;
                self.leader_hint = self.id;
                self.next_slot = self.next_slot.max(self.election_from);
                let merged = std::mem::take(&mut self.election_merge);
                let mut out = Vec::new();
                for (&s, (_, v)) in &merged {
                    self.repropose(s, v, &mut out);
                }
                // Fill uncovered gaps below the merge horizon with no-ops.
                if let Some(&max) = merged.keys().next_back() {
                    for s in self.election_from..=max {
                        if !merged.contains_key(&s) {
                            self.repropose(s, &[], &mut out);
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
                trunc,
            } => {
                let ok = ballot >= self.promised;
                if ok {
                    self.promised = ballot;
                    self.leader_hint = self.proposer(ballot);
                    if self.role != Role::Follower && ballot != self.ballot {
                        self.role = Role::Follower;
                    }
                    if let Some(e) = self.entry(slot) {
                        e.accepted_ballot = Some(ballot);
                        e.value = Some(value);
                    }
                    self.trunc = self.trunc.max(trunc);
                    self.compact();
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
                        applied: self.apply_index,
                    },
                )]
            }
            PaxosMsg::Accepted {
                ballot,
                slot,
                ok,
                applied,
            } => {
                if !ok {
                    // The acceptor promised a higher ballot: we were deposed
                    // without hearing the Prepare (crash/partition window).
                    // Step down so stale re-proposals stop and clients get
                    // redirected toward the real leader.
                    if self.role == Role::Leader && ballot > self.ballot {
                        self.promised = self.promised.max(ballot);
                        self.leader_hint = self.proposer(ballot);
                        self.role = Role::Follower;
                    }
                    return Vec::new();
                }
                // Only an accepting replica reports: a candidate rejects
                // every Accept, so no `trunc` passes its election's start.
                if let Some(a) = self.peer_applied.get_mut(from as usize) {
                    *a = (*a).max(applied);
                }
                if self.role != Role::Leader || ballot != self.ballot {
                    return Vec::new();
                }
                let majority = self.majority();
                let Some(e) = self.get_mut(slot) else {
                    return Vec::new(); // below the window: applied everywhere
                };
                if !e.vote(from, majority) {
                    return Vec::new();
                }
                // Learning round.
                let value = e.value.clone().expect("accepted");
                self.learns(slot, &value)
            }
            PaxosMsg::Learn { slot, value } => {
                if let Some(e) = self.entry(slot) {
                    e.value = Some(value);
                    e.committed = true;
                }
                Vec::new()
            }
            PaxosMsg::LearnReq { from_slot } => {
                // Re-send Learns for every committed slot we still hold at or
                // after the requester's frontier (it has applied every slot
                // we dropped, so the gap is always servable).
                self.suffix(from_slot)
                    .filter(|(_, e)| e.committed)
                    .filter_map(|(slot, e)| {
                        let value = e.value.clone()?;
                        Some((from, PaxosMsg::Learn { slot, value }))
                    })
                    .collect()
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

    /// Propose `value` on `leader`, deliver everything, and drain every
    /// replica (as the consensus actor does after each message); returns
    /// what each replica applied.
    fn commit_one(nodes: &mut [PaxosNode], leader: NodeIdx, value: Vec<u8>) -> Vec<usize> {
        let mut q = VecDeque::new();
        for (to, m) in nodes[leader as usize].propose(value).1 {
            q.push_back((leader, to, m));
        }
        pump(nodes, &mut q, None);
        nodes
            .iter_mut()
            .map(|n| n.drain_committed().len())
            .collect()
    }

    #[test]
    fn truncation_bounds_the_log() {
        let mut nodes = group(3);
        let mut q = VecDeque::new();
        for i in 0..100u8 {
            for (to, m) in nodes[0].propose(vec![i; 64]).1 {
                q.push_back((0, to, m));
            }
        }
        pump(&mut nodes, &mut q, None);
        for nd in nodes.iter_mut() {
            assert_eq!(nd.drain_committed().len(), 100);
        }
        // The followers applied after they voted, so the leader has not yet
        // heard it: nothing is dropped on any replica.
        assert!(nodes.iter().all(|nd| nd.base == 0 && nd.log.len() == 100));
        // The next round carries their `applied` back to the leader, the one
        // after carries the leader's `trunc` out; each still commits.
        assert_eq!(
            commit_one(&mut nodes, 0, b"post-truncate".to_vec()),
            [1, 1, 1]
        );
        assert_eq!(nodes[0].base, 100);
        assert_eq!(commit_one(&mut nodes, 0, b"again".to_vec()), [1, 1, 1]);
        assert_eq!((nodes[0].base, nodes[0].log.len()), (101, 1));
        // A follower's `trunc` is one round behind the leader's.
        for nd in &nodes[1..] {
            assert_eq!((nd.base, nd.log.len()), (100, 2), "replica {}", nd.id());
        }
        assert!(nodes.iter().all(|nd| nd.is_committed(0)));
    }

    #[test]
    fn truncation_never_touches_unapplied_slots() {
        let mut n = PaxosNode::new(0, 1);
        n.propose(b"a".to_vec());
        n.propose(b"b".to_vec());
        // Committed but not applied: both stay in the window.
        assert_eq!((n.base, n.log.len()), (0, 2));
        assert_eq!(n.drain_committed().len(), 2);
        // Applied by the whole (one-replica) group: both are dropped.
        assert_eq!((n.base, n.log.len()), (2, 0));
        // A follower that has committed slots but not applied them keeps
        // them, however far the leader's `trunc` runs ahead.
        let mut nodes = group(3);
        for i in 0..4u8 {
            let mut q = VecDeque::new();
            for (to, m) in nodes[0].propose(vec![i]).1 {
                q.push_back((0, to, m));
            }
            pump(&mut nodes, &mut q, None);
            nodes[0].drain_committed();
            nodes[1].drain_committed();
        }
        assert_eq!(nodes[2].commit_frontier(), 4);
        assert_eq!((nodes[2].base, nodes[2].log.len()), (0, 4));
        assert_eq!(nodes[0].base, 0, "replica 2 reported nothing applied");
        assert_eq!(nodes[2].drain_committed().len(), 4);
    }

    #[test]
    fn window_holds_at_most_two_entries_in_a_lossless_run() {
        let mut nodes = group(3);
        let mut q = VecDeque::new();
        for i in 0..10_000u32 {
            for (to, m) in nodes[0].propose(i.to_le_bytes().to_vec()).1 {
                q.push_back((0, to, m));
            }
            pump(&mut nodes, &mut q, None);
            for nd in nodes.iter_mut() {
                assert!(nd.log.len() <= 2, "replica {}: {}", nd.id(), nd.log.len());
                assert_eq!(nd.drain_committed().len(), 1);
                assert!(nd.log.len() <= 2, "replica {}: {}", nd.id(), nd.log.len());
            }
        }
        assert!(nodes.iter().all(|nd| nd.base >= 9_998));
    }

    #[test]
    fn late_messages_below_base_change_nothing() {
        let mut nodes = group(3);
        for i in 0..10u8 {
            commit_one(&mut nodes, 0, vec![i]);
        }
        let window = |nd: &PaxosNode| {
            let entries = nd.log.iter().map(|e| {
                let e = e.clone();
                (e.accepted_ballot, e.value, e.committed, e.votes)
            });
            (nd.base, entries.collect::<Vec<_>>())
        };
        let (leader, follower) = (window(&nodes[0]), window(&nodes[1]));
        assert!(leader.0 > 0 && follower.0 > 0);
        let ballot = nodes[0].ballot();
        // A late Accept is still answered (the acceptor keeps its promise)
        // but not stored.
        let late = PaxosMsg::Accept {
            ballot,
            slot: 0,
            value: b"late".to_vec(),
            trunc: 0,
        };
        let reply = nodes[1].handle(0, late);
        assert!(matches!(
            reply.as_slice(),
            [(
                0,
                PaxosMsg::Accepted {
                    slot: 0,
                    ok: true,
                    ..
                }
            )]
        ));
        assert_eq!(window(&nodes[1]), follower);
        // A late Accepted and a late Learn are no-ops.
        let late = PaxosMsg::Accepted {
            ballot,
            slot: 0,
            ok: true,
            applied: 0,
        };
        assert!(nodes[0].handle(2, late).is_empty());
        assert_eq!(window(&nodes[0]), leader);
        let late = PaxosMsg::Learn {
            slot: 0,
            value: b"late".to_vec(),
        };
        assert!(nodes[1].handle(0, late).is_empty());
        assert_eq!(window(&nodes[1]), follower);
        // A LearnReq from below the window is served from `base`.
        let served = nodes[0].handle(1, PaxosMsg::LearnReq { from_slot: 0 });
        assert_eq!(served.len(), leader.1.len());
        assert_eq!(window(&nodes[0]), leader);
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
        let expect: Vec<_> = (0..50u64)
            .map(|i| (i, format!("c{i}").into_bytes()))
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
        assert!(nodes[2].election_merge.is_empty(), "freed once re-proposed");
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
        // Commit 1,000 commands, but replica 2 never hears the Learn round
        // (it still votes Accept, so entries are accepted-not-committed
        // there). Replicas 0 and 1 apply as they go.
        let mut applied = [Vec::new(), Vec::new(), Vec::new()];
        let mut q = VecDeque::new();
        for i in 0..1_000u32 {
            for (to, m) in nodes[0].propose(format!("v{i}").into_bytes()).1 {
                q.push_back((0, to, m));
            }
            while let Some((from, to, msg)) = q.pop_front() {
                if to == 2 && matches!(msg, PaxosMsg::Learn { .. }) {
                    continue; // lossy link eats every Learn toward replica 2
                }
                for (dst, m) in nodes[to as usize].handle(from, msg) {
                    q.push_back((to, dst, m));
                }
            }
            for (nd, out) in nodes.iter_mut().zip(&mut applied).take(2) {
                out.extend(nd.drain_committed());
            }
            // The laggard holds the leader's window open.
            assert!(nodes[0].base <= nodes[2].commit_frontier());
        }
        assert_eq!(nodes[0].commit_frontier(), 1_000);
        assert_eq!(nodes[2].commit_frontier(), 0, "Learns were all lost");
        assert_eq!(nodes[0].log.len(), 1_000);
        // Catch-up: replica 2 asks the leader from its frontier.
        let from_slot = nodes[2].commit_frontier();
        for (to, m) in nodes[0].handle(2, PaxosMsg::LearnReq { from_slot }) {
            assert_eq!(to, 2);
            nodes[2].handle(0, m);
        }
        assert_eq!(nodes[2].commit_frontier(), 1_000);
        applied[2].extend(nodes[2].drain_committed());
        assert_eq!(applied[0], applied[2]);
        // Two lossless rounds carry replica 2's `applied` to the leader and
        // the leader's `trunc` back out: both windows shrink.
        for v in [b"x", b"y"] {
            assert_eq!(commit_one(&mut nodes, 0, v.to_vec()), [1, 1, 1]);
        }
        assert!(nodes[0].log.len() <= 2 && nodes[2].log.len() <= 2);
        assert!(nodes[0].base >= 1_000 && nodes[2].base >= 1_000);
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

    /// Every replica's `audit_into` plus the group's `audit_group`.
    fn audit_all(nodes: &[PaxosNode]) -> AuditReport {
        let mut r = AuditReport::new(ipipe_sim::SimTime::ZERO);
        for (i, nd) in nodes.iter().enumerate() {
            nd.audit_into(&mut r, u16::try_from(i).unwrap());
        }
        let refs: Vec<&PaxosNode> = nodes.iter().collect();
        PaxosNode::audit_group(&refs, &mut r);
        r
    }

    #[test]
    fn audit_passes_through_commit_failover_and_truncation() {
        let assert_clean = |nodes: &[PaxosNode]| {
            let r = audit_all(nodes);
            assert!(r.is_clean(), "{}", r.render());
        };
        let mut nodes = group(3);
        for i in 0..20u8 {
            commit_one(&mut nodes, 0, vec![i; 16]);
        }
        // Applied slots were dropped: entries below `base` must NOT trip the
        // audit, on one replica or across the group.
        assert!(nodes.iter().all(|nd| nd.base >= 18));
        assert_clean(&nodes);
        // Failover under a dead leader, then more commits.
        let mut q = VecDeque::new();
        for (to, m) in nodes[1].start_election() {
            q.push_back((1, to, m));
        }
        pump(&mut nodes, &mut q, Some(0));
        for (to, m) in nodes[1].propose(b"after".to_vec()).1 {
            q.push_back((1, to, m));
        }
        pump(&mut nodes, &mut q, Some(0));
        assert_clean(&nodes);
        assert_eq!(nodes[1].drain_committed().len(), 1);
        assert_clean(&nodes);
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
        // different value into an agreed slot (nothing is applied yet, so
        // the window's first entry is slot 0).
        assert_eq!(nodes[2].base, 0);
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
            n_cmds in 1u8..24,
        ) {
            let loss = f64::from(loss_pct) / 100.0;
            let mut rng = ipipe_sim::DetRng::new(seed);
            let mut nodes = group(3);
            let mut q = VecDeque::new();
            for i in 0..n_cmds {
                for (to, m) in nodes[0].propose(vec![i; 8]).1 {
                    q.push_back((0, to, m));
                }
            }
            let target = u64::from(n_cmds);
            let mut applied = [Vec::new(), Vec::new(), Vec::new()];
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
                for (i, nd) in nodes.iter().enumerate().skip(1) {
                    let f = nd.commit_frontier();
                    if f < target {
                        let i = NodeIdx::try_from(i).unwrap();
                        q.push_back((i, 0, PaxosMsg::LearnReq { from_slot: f }));
                    }
                }
                pump_lossy(&mut nodes, &mut q, &mut rng, loss);
                // Each replica applies (and drops what the group applied)
                // as the consensus actor does, and the audit stays clean.
                for (nd, out) in nodes.iter_mut().zip(&mut applied) {
                    out.extend(nd.drain_committed());
                }
                let r = audit_all(&nodes);
                proptest::prop_assert!(r.is_clean(), "{}", r.render());
            }
            for (nd, out) in nodes.iter_mut().zip(&mut applied) {
                out.extend(nd.drain_committed());
            }
            let expect: Vec<(Slot, Vec<u8>)> =
                (0..n_cmds).map(|i| (u64::from(i), vec![i; 8])).collect();
            for out in applied {
                proptest::prop_assert_eq!(out, expect.clone());
            }
        }
    }
}

//! The four RKV actors (§4) and the deployment helper that wires a
//! replicated group across cluster nodes.

use super::lsm::{Key, Levels, KEY_LEN};
use super::paxos::{NodeIdx, PaxosMsg, PaxosNode, Role, Slot};
use ipipe::prelude::*;
use ipipe::rt::{ClientGenFn, ClientReq, Cluster, Redirect};
use ipipe::skiplist::DmoSkipList;
use ipipe_sim::audit::{AuditReport, CLUSTER_WIDE};
use ipipe_sim::obs::{Counter, Gauge, Registry};
use ipipe_workload::kv::{KvOp, KvWorkload};
use std::cell::RefCell;
use std::collections::{HashMap, HashSet};
use std::rc::Rc;

/// Failure-detector tuning: the leader multicasts a heartbeat every
/// `interval`; a follower that hears nothing from the leader for its
/// effective timeout (`timeout + interval * replica`, staggered so the
/// lowest-index survivor campaigns first) starts a two-phase election.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HeartbeatCfg {
    /// Leader heartbeat period.
    pub interval: SimTime,
    /// Base silence threshold before a follower campaigns.
    pub timeout: SimTime,
}

impl HeartbeatCfg {
    /// Defaults sized for the simulated rack: 200µs beacons, campaign after
    /// 800µs of leader silence (4 missed beacons).
    pub fn lan_default() -> HeartbeatCfg {
        HeartbeatCfg {
            interval: SimTime::from_us(200),
            timeout: SimTime::from_us(800),
        }
    }
}

/// Client writes a non-leader replica will buffer while an election is in
/// flight; past this the replica sheds load with a [`Redirect`] instead of
/// queueing unboundedly (the failover window is short — a deep buffer only
/// hides the redirect signal from clients).
pub const PENDING_CAP: usize = 64;

/// Messages flowing between RKV actors.
pub enum RkvMsg {
    /// Client operation (arrives at the consensus actor).
    Client(KvOp),
    /// Replica-to-replica Paxos traffic.
    Paxos {
        /// Sending replica index.
        from: NodeIdx,
        /// Protocol message.
        msg: PaxosMsg,
    },
    /// Leader liveness beacon, carrying the leader's commit frontier so
    /// lagging followers can request Learn catch-up.
    Heartbeat {
        /// Sending replica (the leader).
        from: NodeIdx,
        /// Leader's commit frontier.
        frontier: Slot,
    },
    /// Self-addressed failure-detector timer tick.
    HbTick,
    /// Committed write applied to the Memtable.
    Apply {
        /// Key.
        key: Key,
        /// Value; `None` is a delete.
        value: Option<Vec<u8>>,
    },
    /// Read routed to the Memtable.
    MemRead {
        /// Key.
        key: Key,
        /// Client to answer.
        client: Address,
        /// Request token.
        token: u64,
    },
    /// Memtable miss forwarded to the SSTable read actor.
    ReadMiss {
        /// Key.
        key: Key,
        /// Client to answer.
        client: Address,
        /// Request token.
        token: u64,
    },
    /// Frozen Memtable contents bound for a minor compaction.
    FlushBatch(Vec<(Key, Option<Vec<u8>>)>),
    /// Operator/failure-detector signal: campaign to become leader (the
    /// two-phase Paxos leader election of §4).
    StartElection,
}

/// The closed-loop client of every RKV figure, scenario and example: the
/// next operation of `wl` aimed at `leader`, in a packet of `packet` bytes
/// or the operation's own wire size when that is smaller (64-byte floor).
pub fn client_gen(leader: Address, packet: u32, mut wl: KvWorkload) -> ClientGenFn {
    Box::new(move |rng, _| {
        let op = wl.next_op();
        ClientReq {
            dst: leader,
            wire_size: packet.min(43 + op.wire_size()).max(64),
            flow: rng.below(1 << 20),
            payload: Some(Box::new(RkvMsg::Client(op))),
        }
    })
}

/// The addresses of one replicated group, every list indexed by replica. A
/// deployment reserves them before any actor exists and hands each actor
/// the few it sends to.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RkvWiring {
    /// Consensus actors.
    pub consensus: Vec<Address>,
    /// Memtable actors.
    pub memtable: Vec<Address>,
    /// SSTable read actors.
    pub sst_read: Vec<Address>,
    /// Compaction actors.
    pub compaction: Vec<Address>,
}

// --------------------------------------------------------------------
// Consensus actor
// --------------------------------------------------------------------

/// Encodes a committed command: key + optional value + reply routing.
fn encode_cmd(token: u64, client: Address, key: &Key, value: Option<&[u8]>) -> Vec<u8> {
    let mut b = Vec::with_capacity(32 + KEY_LEN + value.map(<[u8]>::len).unwrap_or(0));
    b.extend_from_slice(&token.to_le_bytes());
    b.extend_from_slice(&client.node.to_le_bytes());
    b.extend_from_slice(&client.actor.to_le_bytes());
    b.extend_from_slice(key);
    match value {
        Some(v) => {
            b.push(1);
            b.extend_from_slice(v);
        }
        None => b.push(0),
    }
    b
}

fn decode_cmd(b: &[u8]) -> Option<(u64, Address, Key, Option<Vec<u8>>)> {
    if b.len() < 8 + 2 + 4 + KEY_LEN + 1 {
        return None;
    }
    let token = u64::from_le_bytes(b[0..8].try_into().ok()?);
    let node = u16::from_le_bytes(b[8..10].try_into().ok()?);
    let actor = u32::from_le_bytes(b[10..14].try_into().ok()?);
    let key: Key = b[14..14 + KEY_LEN].try_into().ok()?;
    let rest = &b[14 + KEY_LEN..];
    let value = if rest[0] == 1 {
        Some(rest[1..].to_vec())
    } else {
        None
    };
    Some((token, Address { node, actor }, key, value))
}

/// The consensus actor: client ingress + Multi-Paxos coordination.
pub struct ConsensusActor {
    paxos: PaxosNode,
    replica: NodeIdx,
    /// The group's consensus actors by replica index, this one included.
    peers: Vec<Address>,
    /// This replica's Memtable actor.
    memtable: Address,
    /// Client writes that arrived while this replica was not the leader —
    /// proposed as soon as leadership is won (the failover window). Bounded
    /// by [`PENDING_CAP`]; overflow is shed with a [`Redirect`].
    pending: Vec<(u64, Address, Key, Vec<u8>)>,
    /// Failure-detector config; `None` (the default) disables heartbeats so
    /// fault-free deployments stay byte-identical to earlier builds.
    heartbeat: Option<HeartbeatCfg>,
    /// Last time we heard from any peer replica (liveness evidence).
    last_heard: SimTime,
    /// Tokens already applied to the memtable — retransmitted commands that
    /// re-committed into a second slot are absorbed here (exactly-once).
    applied_tokens: HashSet<u64>,
    /// Leader-side token → slot for in-flight proposals, so a client
    /// retransmission re-drives the existing round instead of burning a
    /// fresh slot.
    inflight_tokens: HashMap<u64, Slot>,
    /// `rkv.buffered_writes` gauge mirroring `pending.len()`.
    buffered: Option<Gauge>,
    /// `rkv.dup.commits`: retransmitted commands that re-committed into a
    /// second slot and were absorbed at apply time (exactly-once evidence).
    dup_commits: Option<Counter>,
    /// Client operations (reads and writes) that entered through this
    /// replica — the hotspot signal the multi-group rebalancer reads.
    ops: Option<Counter>,
}

impl ConsensusActor {
    /// Replica `replica` of the group whose consensus actors are `peers`
    /// (indexed by replica), applying to `memtable`.
    pub fn new(replica: NodeIdx, peers: Vec<Address>, memtable: Address) -> ConsensusActor {
        ConsensusActor {
            paxos: PaxosNode::new(replica, peers.len() as u32),
            replica,
            peers,
            memtable,
            pending: Vec::new(),
            heartbeat: None,
            last_heard: SimTime::ZERO,
            applied_tokens: HashSet::new(),
            inflight_tokens: HashMap::new(),
            buffered: None,
            dup_commits: None,
            ops: None,
        }
    }

    /// Enable the heartbeat failure detector.
    pub fn with_heartbeat(mut self, cfg: Option<HeartbeatCfg>) -> ConsensusActor {
        self.heartbeat = cfg;
        self
    }

    /// Attach the `rkv.buffered_writes` gauge.
    pub fn with_buffered_gauge(mut self, g: Gauge) -> ConsensusActor {
        self.buffered = Some(g);
        self
    }

    /// Attach the `rkv.dup.commits` counter.
    pub fn with_dup_counter(mut self, c: Counter) -> ConsensusActor {
        self.dup_commits = Some(c);
        self
    }

    /// Attach a per-group client-operation counter (the rebalancer's
    /// hotspot signal). Metric reads never perturb event or RNG order, so
    /// deployments without it stay byte-identical.
    pub fn with_ops_counter(mut self, c: Counter) -> ConsensusActor {
        self.ops = Some(c);
        self
    }

    fn set_buffered_gauge(&self) {
        if let Some(g) = &self.buffered {
            g.set(self.pending.len() as i64);
        }
    }

    /// Silence threshold for this replica: staggered by index so the
    /// lowest-index live follower campaigns first instead of all followers
    /// dueling with colliding ballots.
    fn effective_timeout(&self, cfg: HeartbeatCfg) -> SimTime {
        cfg.timeout + cfg.interval * self.replica as u64
    }

    fn self_addr(&self, ctx: &ActorCtx<'_>) -> Address {
        Address {
            node: ctx.node(),
            actor: ctx.actor_id(),
        }
    }

    /// Propose everything buffered during a leaderless window.
    fn propose_buffered(&mut self, ctx: &mut ActorCtx<'_>) {
        if self.paxos.role() != Role::Leader || self.pending.is_empty() {
            return;
        }
        for (token, client, key, value) in std::mem::take(&mut self.pending) {
            if self.applied_tokens.contains(&token) {
                // A retransmission already committed this write through
                // another path; just answer the client.
                ctx.reply_to(client, 64, token, None);
                continue;
            }
            let cmd = encode_cmd(token, client, &key, Some(&value));
            let (slot, outs) = self.paxos.propose_tracked(cmd);
            if let Some(s) = slot {
                self.inflight_tokens.insert(token, s);
            }
            self.ship(ctx, token, outs);
        }
        self.set_buffered_gauge();
    }

    /// Leader status (for tests/harness).
    pub fn is_leader(&self) -> bool {
        self.paxos.role() == Role::Leader
    }

    fn ship(&self, ctx: &mut ActorCtx<'_>, token: u64, outs: Vec<(NodeIdx, PaxosMsg)>) {
        for (peer, msg) in outs {
            let size = 48
                + match &msg {
                    PaxosMsg::Accept { value, .. } | PaxosMsg::Learn { value, .. } => {
                        value.len() as u32
                    }
                    PaxosMsg::PrepareReply { accepted, .. } => {
                        accepted.iter().map(|(_, _, v)| v.len() as u32 + 16).sum()
                    }
                    _ => 0,
                };
            ctx.send(
                self.peers[peer as usize],
                token,
                size,
                token,
                Some(Box::new(RkvMsg::Paxos {
                    from: self.replica,
                    msg,
                })),
            );
        }
    }

    fn apply_committed(&mut self, ctx: &mut ActorCtx<'_>) {
        let committed = self.paxos.drain_committed();
        let leader = self.paxos.role() == Role::Leader;
        for (_slot, cmd) in committed {
            if cmd.is_empty() {
                continue; // gap-filling no-op
            }
            let Some((token, client, key, value)) = decode_cmd(&cmd) else {
                continue;
            };
            ctx.charge_work(250);
            self.inflight_tokens.remove(&token);
            if !self.applied_tokens.insert(token) {
                // A retransmitted command that re-committed into a second
                // slot: apply exactly once, but still re-answer the client —
                // it only retried because the first reply was lost.
                if let Some(c) = &self.dup_commits {
                    c.inc();
                }
                if leader {
                    ctx.reply_to(client, 64, token, None);
                }
                continue;
            }
            ctx.send(
                self.memtable,
                token,
                64,
                token,
                Some(Box::new(RkvMsg::Apply { key, value })),
            );
            if leader {
                ctx.reply_to(client, 64, token, None);
            }
        }
    }
}

impl ActorLogic for ConsensusActor {
    fn init(&mut self, ctx: &mut ActorCtx<'_>) {
        // The RSM log window is DMO-resident.
        let _ = ctx.dmo().malloc(self.state_hint_bytes());
        if let Some(cfg) = self.heartbeat {
            self.last_heard = ctx.now();
            let me = self.self_addr(ctx);
            // Stagger the first tick by replica index so beacon and check
            // events interleave deterministically instead of colliding.
            let first = cfg.interval + SimTime::from_us(self.replica as u64);
            ctx.send_after(first, me, 0, 0, 0, Some(Box::new(RkvMsg::HbTick)));
        }
    }

    fn exec(&mut self, ctx: &mut ActorCtx<'_>, mut req: Request) {
        let token = req.token;
        let msg = req.payload_as::<RkvMsg>();
        match *msg {
            RkvMsg::Client(op) => {
                ctx.charge_work(700); // request parse + dispatch
                if let Some(c) = &self.ops {
                    c.inc();
                }
                match op {
                    KvOp::Get { key } => {
                        // Fast-path reads go straight to the Memtable actor.
                        let client = req.reply_to.expect("client read carries reply address");
                        ctx.send(
                            self.memtable,
                            token,
                            64,
                            token,
                            Some(Box::new(RkvMsg::MemRead { key, client, token })),
                        );
                    }
                    KvOp::Put { key, value } => {
                        let client = req.reply_to.expect("client write carries reply address");
                        ctx.charge_work(500); // log append bookkeeping
                        if self.paxos.role() == Role::Leader {
                            if self.applied_tokens.contains(&token) {
                                // Retransmission of a write that already
                                // committed (the reply was lost): answer
                                // directly, never re-propose.
                                ctx.reply_to(client, 64, token, None);
                            } else if let Some(&slot) = self.inflight_tokens.get(&token) {
                                // Retransmission of an in-flight proposal:
                                // re-drive its round instead of burning a
                                // fresh slot.
                                let outs = self.paxos.retry_slot(slot);
                                self.ship(ctx, token, outs);
                                self.apply_committed(ctx);
                            } else {
                                let cmd = encode_cmd(token, client, &key, Some(&value));
                                let (slot, outs) = self.paxos.propose_tracked(cmd);
                                if let Some(s) = slot {
                                    self.inflight_tokens.insert(token, s);
                                }
                                self.ship(ctx, token, outs);
                                self.apply_committed(ctx); // single-replica commits
                            }
                        } else if self.pending.len() >= PENDING_CAP {
                            // Buffer full: shed with a redirect toward the
                            // best-known leader instead of queueing forever.
                            let target = self.peers[self.paxos.leader_hint() as usize];
                            ctx.reply_to(client, 64, token, Some(Box::new(Redirect(target))));
                        } else {
                            // Not the leader (failover window): buffer and
                            // propose once leadership is won.
                            self.pending.push((token, client, key, value));
                            self.set_buffered_gauge();
                        }
                    }
                }
            }
            RkvMsg::Paxos { from, msg } => {
                ctx.charge_work(900); // protocol state machine
                self.last_heard = ctx.now(); // any peer traffic is liveness
                let outs = self.paxos.handle(from, msg);
                self.ship(ctx, token, outs);
                self.propose_buffered(ctx);
                self.apply_committed(ctx);
            }
            RkvMsg::Heartbeat { from, frontier } => {
                ctx.charge_work(120);
                self.last_heard = ctx.now();
                let mine = self.paxos.commit_frontier();
                if frontier > mine {
                    // The leader has decided slots we never learned (lost
                    // Learns): request catch-up from our frontier.
                    self.ship(
                        ctx,
                        token,
                        vec![(from, PaxosMsg::LearnReq { from_slot: mine })],
                    );
                }
            }
            RkvMsg::HbTick => {
                let Some(cfg) = self.heartbeat else {
                    return;
                };
                // Re-arm first so the timer chain never breaks.
                let me = self.self_addr(ctx);
                ctx.send_after(cfg.interval, me, 0, 0, 0, Some(Box::new(RkvMsg::HbTick)));
                if self.paxos.role() == Role::Leader {
                    ctx.charge_work(150);
                    let frontier = self.paxos.commit_frontier();
                    for (peer, &addr) in self.peers.iter().enumerate() {
                        if peer as NodeIdx != self.replica {
                            ctx.send(
                                addr,
                                0,
                                48,
                                0,
                                Some(Box::new(RkvMsg::Heartbeat {
                                    from: self.replica,
                                    frontier,
                                })),
                            );
                        }
                    }
                } else if ctx.now().saturating_sub(self.last_heard) >= self.effective_timeout(cfg) {
                    // Leader silence past the staggered threshold: campaign
                    // automatically ("when the leader fails, replicas run a
                    // two-phase Paxos leader election"). A candidate whose
                    // election stalled re-campaigns on the next expiry.
                    ctx.charge_work(1200);
                    self.last_heard = ctx.now(); // restart the silence clock
                    let outs = self.paxos.start_election();
                    self.ship(ctx, token, outs);
                    self.propose_buffered(ctx);
                    self.apply_committed(ctx);
                }
            }
            RkvMsg::StartElection => {
                ctx.charge_work(1200);
                let outs = self.paxos.start_election();
                self.ship(ctx, token, outs);
                self.propose_buffered(ctx);
                self.apply_committed(ctx);
            }
            _ => {}
        }
    }

    fn host_speedup(&self) -> f64 {
        3.0 // control-heavy, cache-friendly
    }

    fn state_hint_bytes(&self) -> u64 {
        256 * 1024 // RSM log window
    }
}

// --------------------------------------------------------------------
// Memtable actor
// --------------------------------------------------------------------

/// The LSM Memtable actor: a DMO Skip List absorbing writes and serving
/// fast reads; flushes to the compaction actor at the size threshold.
pub struct MemtableActor {
    list: Option<DmoSkipList>,
    bytes: u64,
    /// Flush threshold (paper: Memtable objects of tens of MB; tests shrink
    /// this).
    pub flush_threshold: u64,
    /// This replica's SSTable read actor (Memtable misses go there).
    sst_read: Address,
    /// This replica's compaction actor (frozen Memtables go there).
    compaction: Address,
    /// Minor compactions triggered.
    pub flushes: u64,
    /// `rkv.applies`: commands applied to this memtable. With the consensus
    /// actor's apply-time dedup upstream this counts *unique* committed
    /// writes — the exactly-once ledger the recovery tests audit.
    applies: Option<Counter>,
}

impl MemtableActor {
    /// Memtable in front of the replica's `sst_read` and `compaction` actors.
    pub fn new(sst_read: Address, compaction: Address, flush_threshold: u64) -> MemtableActor {
        MemtableActor {
            list: None,
            bytes: 0,
            flush_threshold,
            sst_read,
            compaction,
            flushes: 0,
            applies: None,
        }
    }

    /// Attach the `rkv.applies` counter.
    pub fn with_applies_counter(mut self, c: Counter) -> MemtableActor {
        self.applies = Some(c);
        self
    }
}

impl ActorLogic for MemtableActor {
    fn init(&mut self, ctx: &mut ActorCtx<'_>) {
        self.list = Some(DmoSkipList::create(&mut ctx.dmo()).expect("memtable region"));
    }

    fn exec(&mut self, ctx: &mut ActorCtx<'_>, mut req: Request) {
        let msg = req.payload_as::<RkvMsg>();
        let list = self.list.as_mut().expect("init ran");
        match *msg {
            RkvMsg::Apply { key, value } => {
                ctx.charge_work(600);
                if let Some(c) = &self.applies {
                    c.inc();
                }
                let bytes = KEY_LEN as u64 + value.as_ref().map(|v| v.len() as u64).unwrap_or(1);
                // Deletions are insertions of a tombstone (paper §4).
                let encoded = match &value {
                    Some(v) => {
                        let mut e = vec![1u8];
                        e.extend_from_slice(v);
                        e
                    }
                    None => vec![0u8],
                };
                let mut dmo = ctx.dmo();
                // Out-of-region inserts trigger an early flush instead of a
                // hard failure.
                let mut rng = ipipe_sim::DetRng::new(self.bytes ^ 0x5eed);
                if list.insert(&mut dmo, &mut rng, &key, &encoded).is_err() {
                    self.bytes = self.flush_threshold; // force flush below
                } else {
                    self.bytes += bytes;
                }
                if self.bytes >= self.flush_threshold {
                    self.flushes += 1;
                    let entries = list.iter_all(&mut dmo).unwrap_or_default();
                    let frozen_bytes = self.bytes;
                    let batch: Vec<(Key, Option<Vec<u8>>)> = entries
                        .into_iter()
                        .map(|(k, e)| {
                            let v = if e.first() == Some(&1) {
                                Some(e[1..].to_vec())
                            } else {
                                None
                            };
                            (k, v)
                        })
                        .collect();
                    let _ = list.clear(&mut dmo);
                    self.bytes = 0;
                    // Paper §4: "the Memtable actor migrates its Memtable
                    // object to the host and issues a message to the
                    // compaction actor" — the object moves asynchronously;
                    // the NIC core only pays the hand-off, not a full scan.
                    ctx.waive_dmo_traffic();
                    ctx.charge(SimTime::from_ns(8_000 + frozen_bytes / 512));
                    let total: u64 = batch
                        .iter()
                        .map(|(_, v)| {
                            KEY_LEN as u64 + v.as_ref().map(|v| v.len() as u64).unwrap_or(1)
                        })
                        .sum();
                    ctx.send(
                        self.compaction,
                        req.token,
                        (total as u32).min(60_000),
                        req.token,
                        Some(Box::new(RkvMsg::FlushBatch(batch))),
                    );
                }
            }
            RkvMsg::MemRead { key, client, token } => {
                ctx.charge_work(500);
                let mut dmo = ctx.dmo();
                match list.get(&mut dmo, &key).ok().flatten() {
                    Some(encoded) => {
                        if encoded.first() == Some(&1) {
                            let len = (encoded.len() - 1) as u32;
                            ctx.reply_to(client, 64 + len, token, None);
                        } else {
                            // Tombstone: definitively not found.
                            ctx.reply_to(client, 64, token, None);
                        }
                    }
                    None => {
                        ctx.send(
                            self.sst_read,
                            token,
                            64,
                            token,
                            Some(Box::new(RkvMsg::ReadMiss { key, client, token })),
                        );
                    }
                }
            }
            _ => {}
        }
    }

    fn host_speedup(&self) -> f64 {
        1.6 // pointer-chasing Skip List: memory-bound (implication I3)
    }

    fn state_hint_bytes(&self) -> u64 {
        32 << 20
    }
}

// --------------------------------------------------------------------
// SSTable read + compaction actors (host-pinned)
// --------------------------------------------------------------------

/// Shared leveled store: the two host-pinned actors are colocated in host
/// memory and share the SSTables.
pub type SharedLevels = Rc<RefCell<Levels>>;

/// Serves reads that missed the Memtable. Host-pinned ("they have to
/// interact with persistent storage").
pub struct SstReadActor {
    levels: SharedLevels,
}

impl SstReadActor {
    /// Reader over shared levels.
    pub fn new(levels: SharedLevels) -> SstReadActor {
        SstReadActor { levels }
    }
}

impl ActorLogic for SstReadActor {
    fn exec(&mut self, ctx: &mut ActorCtx<'_>, mut req: Request) {
        let msg = req.payload_as::<RkvMsg>();
        if let RkvMsg::ReadMiss { key, client, token } = *msg {
            let levels = self.levels.borrow();
            // Each level probed costs a (simulated) storage-page read.
            ctx.charge(SimTime::from_us(2) * (levels.depth().max(1)) as u64);
            ctx.charge_work(800);
            let hit = levels.get(&key);
            let len = hit.map(|v| v.len() as u32).unwrap_or(0);
            ctx.reply_to(client, 64 + len, token, None);
        }
    }

    fn host_pinned(&self) -> bool {
        true
    }

    fn host_speedup(&self) -> f64 {
        2.2
    }
}

/// Performs minor/major compactions. Host-pinned.
pub struct CompactionActor {
    levels: SharedLevels,
}

impl CompactionActor {
    /// Compactor over shared levels.
    pub fn new(levels: SharedLevels) -> CompactionActor {
        CompactionActor { levels }
    }
}

impl ActorLogic for CompactionActor {
    fn exec(&mut self, ctx: &mut ActorCtx<'_>, mut req: Request) {
        let msg = req.payload_as::<RkvMsg>();
        if let RkvMsg::FlushBatch(batch) = *msg {
            let bytes: u64 = batch
                .iter()
                .map(|(_, v)| KEY_LEN as u64 + v.as_ref().map(|v| v.len() as u64).unwrap_or(1))
                .sum();
            // Sequential merge cost ~0.7ns/B plus fixed overhead.
            ctx.charge(SimTime::from_ns(2_000 + (bytes as f64 * 0.7) as u64));
            self.levels.borrow_mut().flush_memtable(batch);
        }
    }

    fn host_pinned(&self) -> bool {
        true
    }

    fn host_speedup(&self) -> f64 {
        2.0
    }
}

// --------------------------------------------------------------------
// Deployment
// --------------------------------------------------------------------

/// Handles to a deployed RKV group.
pub struct RkvDeployment {
    /// Consensus-actor address per replica (clients talk to `consensus[0]`,
    /// the initial leader).
    pub consensus: Vec<Address>,
    /// Memtable actors (diagnostics).
    pub memtable: Vec<Address>,
    /// Every address of the group.
    pub wiring: RkvWiring,
}

/// Deploy a replicated KV group over `replicas` server nodes.
/// `memtable_flush` is the Memtable size threshold in bytes.
///
/// Heartbeats are off: fault-free runs stay byte-identical to builds that
/// predate the failure detector. Use [`deploy_rkv_with`] to enable it.
pub fn deploy_rkv(c: &mut Cluster, replicas: &[usize], memtable_flush: u64) -> RkvDeployment {
    deploy_rkv_with(c, replicas, memtable_flush, None)
}

/// [`deploy_rkv`] plus an optional heartbeat failure detector: the leader
/// beacons every `interval`, silent-leader followers campaign automatically,
/// and lagging followers pull Learn catch-up off the beacon's commit
/// frontier — no operator `StartElection` signal needed.
pub fn deploy_rkv_with(
    c: &mut Cluster,
    replicas: &[usize],
    memtable_flush: u64,
    heartbeat: Option<HeartbeatCfg>,
) -> RkvDeployment {
    deploy_group(c, replicas, memtable_flush, heartbeat, None)
}

/// Deploy one group, replica `ri` on `replicas[ri]`: consensus and Memtable
/// on the NIC, SSTable reader and compaction host-pinned over the LSM
/// levels they share. What tells one group from another is its id: group 7
/// names its actors `rkv-g007-…`, publishes `rkv.applies.g007` and the other
/// per-group streams, and counts client operations per replica, where a
/// rebalancer reads them. `None` is the lone group under the plain names.
pub(super) fn deploy_group(
    c: &mut Cluster,
    replicas: &[usize],
    memtable_flush: u64,
    heartbeat: Option<HeartbeatCfg>,
    group: Option<u16>,
) -> RkvDeployment {
    // Addresses before actors, in registration order.
    let mut wiring = RkvWiring::default();
    for &node in replicas {
        wiring.consensus.push(c.reserve_actor(node));
        wiring.memtable.push(c.reserve_actor(node));
        wiring.sst_read.push(c.reserve_actor(node));
        wiring.compaction.push(c.reserve_actor(node));
    }
    let label = group.map(|g| format!("g{g:03}-")).unwrap_or_default();
    for (ri, &node) in replicas.iter().enumerate() {
        let levels: SharedLevels = Rc::new(RefCell::new(Levels::leveldb_default()));
        let reg = c.obs().registry();
        let node = node as u16;
        let mut consensus =
            ConsensusActor::new(ri as u32, wiring.consensus.clone(), wiring.memtable[ri])
                .with_heartbeat(heartbeat)
                .with_buffered_gauge(reg.gauge_in("rkv.buffered_writes", group, node))
                .with_dup_counter(reg.counter_in("rkv.dup.commits", group, node));
        if group.is_some() {
            consensus = consensus.with_ops_counter(reg.counter_in("rkv.ops", group, node));
        }
        let memtable =
            MemtableActor::new(wiring.sst_read[ri], wiring.compaction[ri], memtable_flush)
                .with_applies_counter(reg.counter_in("rkv.applies", group, node));
        c.register_reserved(
            wiring.consensus[ri],
            &format!("rkv-{label}consensus-{ri}"),
            Box::new(consensus),
            Placement::Nic,
        );
        c.register_reserved(
            wiring.memtable[ri],
            &format!("rkv-{label}memtable-{ri}"),
            Box::new(memtable),
            Placement::Nic,
        );
        c.register_reserved(
            wiring.sst_read[ri],
            &format!("rkv-{label}sst-read-{ri}"),
            Box::new(SstReadActor::new(levels.clone())),
            Placement::Host,
        );
        c.register_reserved(
            wiring.compaction[ri],
            &format!("rkv-{label}compaction-{ri}"),
            Box::new(CompactionActor::new(levels)),
            Placement::Host,
        );
    }
    RkvDeployment {
        consensus: wiring.consensus.clone(),
        memtable: wiring.memtable.clone(),
        wiring,
    }
}

/// Quiesce-time exactly-once reconciliation (DESIGN.md §11): re-derive the
/// apply ledger from the obs registry and check it against the client's
/// issue/completion ledger.
///
/// - `rkv.exactly.once` — per stable replica, `rkv.applies ≤ issued`:
///   retransmitted commands that re-commit into a second slot must be
///   absorbed by the token filter (`rkv.dup.commits`), never re-applied. A
///   breach means a duplicate escaped into a memtable.
/// - `rkv.apply.coverage` — `max(rkv.applies) ≥ done` across stable
///   replicas: a client completion is only ever answered at apply time (or
///   from the applied-token filter), so the most caught-up stable memtable
///   must hold every completed write.
///
/// `stable_nodes` are the replicas that were never crash-restarted: a
/// restarted replica re-applies its log with a fresh token filter, so its
/// counter legitimately double-counts and is excluded by the caller.
pub fn audit_rkv_exactly_once(
    reg: &Registry,
    stable_nodes: &[u16],
    issued: u64,
    done: u64,
    r: &mut AuditReport,
) {
    let mut max_applies = 0u64;
    for &node in stable_nodes {
        let applies = reg.counter_on("rkv.applies", node).get();
        max_applies = max_applies.max(applies);
        r.check("rkv.exactly.once", node, applies <= issued, || {
            format!("{applies} applies but only {issued} distinct tokens issued")
        });
    }
    r.check(
        "rkv.apply.coverage",
        CLUSTER_WIDE,
        stable_nodes.is_empty() || max_applies >= done,
        || {
            format!(
                "{done} client completions but the most caught-up stable \
                 replica only applied {max_applies}"
            )
        },
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use ipipe::actor::Emit;
    use ipipe::rt::{ClientReq, RetryPolicy};
    use ipipe_netsim::FaultPlan;
    use ipipe_nicsim::CN2350;
    use ipipe_workload::kv::KvWorkload;

    fn rkv_cluster(replicas: usize) -> (Cluster, RkvDeployment) {
        let mut c = Cluster::builder(CN2350)
            .servers(replicas)
            .clients(1)
            .seed(0xEBB)
            .build();
        let dep = deploy_rkv(&mut c, &(0..replicas).collect::<Vec<_>>(), 64 * 1024);
        (c, dep)
    }

    #[test]
    fn replicated_kv_serves_reads_and_writes() {
        let (mut c, dep) = rkv_cluster(3);
        let leader = dep.consensus[0];
        let mut wl = KvWorkload::paper_default(512, 1);
        c.set_client(
            0,
            Box::new(move |rng, _| {
                let op = wl.next_op();
                ClientReq {
                    dst: leader,
                    wire_size: 42 + op.wire_size(),
                    flow: rng.below(1 << 20),
                    payload: Some(Box::new(RkvMsg::Client(op))),
                }
            }),
            16,
        );
        c.run_for(SimTime::from_ms(10));
        let done = c.completions().count();
        assert!(done > 1_000, "done={done}");
        assert!(c.completions().p99() >= c.completions().mean());
    }

    #[test]
    fn writes_reach_follower_memtables() {
        // Write-only workload; after the run every replica's memtable actor
        // must have applied commands (checked indirectly via Paxos commit
        // symmetry: follower consensus actors forward Apply messages which
        // would crash on missing memtable wiring).
        let (mut c, dep) = rkv_cluster(3);
        let leader = dep.consensus[0];
        let mut wl = KvWorkload::new(1000, 0.99, 0.0, 64, 3); // all writes
        c.set_client(
            0,
            Box::new(move |rng, _| {
                let op = wl.next_op();
                ClientReq {
                    dst: leader,
                    wire_size: 42 + op.wire_size(),
                    flow: rng.below(1 << 20),
                    payload: Some(Box::new(RkvMsg::Client(op))),
                }
            }),
            8,
        );
        c.run_for(SimTime::from_ms(10));
        assert!(c.completions().count() > 500);
    }

    #[test]
    fn flushes_trigger_compaction_and_sst_reads_still_answer() {
        let (mut c, dep) = rkv_cluster(1);
        let leader = dep.consensus[0];
        // Small flush threshold + write-heavy: force flushes, then read.
        let mut wl = KvWorkload::new(200, 0.99, 0.5, 256, 5);
        c.set_client(
            0,
            Box::new(move |rng, _| {
                let op = wl.next_op();
                ClientReq {
                    dst: leader,
                    wire_size: 42 + op.wire_size(),
                    flow: rng.below(1 << 20),
                    payload: Some(Box::new(RkvMsg::Client(op))),
                }
            }),
            8,
        );
        c.run_for(SimTime::from_ms(20));
        let done = c.completions().count();
        assert!(done > 1_000, "done={done}");
    }

    #[test]
    fn quiesce_audit_and_exactly_once_ledger_reconcile() {
        use ipipe_sim::obs::Obs;
        let obs = Obs::default();
        let mut c = Cluster::builder(CN2350)
            .servers(3)
            .clients(1)
            .seed(0xA0D1)
            .obs(obs.clone())
            .build();
        let dep = deploy_rkv(&mut c, &[0, 1, 2], 64 * 1024);
        let leader = dep.consensus[0];
        let mut wl = KvWorkload::new(1000, 0.99, 0.0, 64, 3); // all writes
        c.set_client(
            0,
            Box::new(move |rng, _| {
                let op = wl.next_op();
                ClientReq {
                    dst: leader,
                    wire_size: 42 + op.wire_size(),
                    flow: rng.below(1 << 20),
                    payload: Some(Box::new(RkvMsg::Client(op))),
                }
            }),
            8,
        );
        c.run_for(SimTime::from_ms(10));
        let done = c.completions().count();
        let issued = c.completions().issued();
        assert!(done > 500, "done={done}");
        // Runtime-wide conservation sweep, then the app-level ledger.
        c.audit().assert_clean();
        let mut r = AuditReport::new(SimTime::ZERO);
        audit_rkv_exactly_once(obs.registry(), &[0, 1, 2], issued, done, &mut r);
        assert!(r.is_clean(), "{}", r.render());
        // An injected duplicate apply must trip the per-replica bound.
        let applies = obs.registry().counter_on("rkv.applies", 0);
        for _ in 0..=(issued - applies.get()) {
            applies.inc();
        }
        let mut r = AuditReport::new(SimTime::ZERO);
        audit_rkv_exactly_once(obs.registry(), &[0, 1, 2], issued, done, &mut r);
        assert!(!r.is_clean());
        assert_eq!(r.violations()[0].invariant, "rkv.exactly.once");
    }

    #[test]
    fn leader_failover_keeps_the_group_serving() {
        let (mut c, dep) = rkv_cluster(3);
        let old_leader = dep.consensus[0];
        let new_leader = dep.consensus[1];
        // Phase 1: steady writes to the initial leader.
        let mut wl = KvWorkload::new(10_000, 0.99, 0.0, 64, 11);
        c.set_client(
            0,
            Box::new(move |rng, _| {
                let op = wl.next_op();
                ClientReq {
                    dst: old_leader,
                    wire_size: 42 + op.wire_size(),
                    flow: rng.below(1 << 20),
                    payload: Some(Box::new(RkvMsg::Client(op))),
                }
            }),
            8,
        );
        c.run_for(SimTime::from_ms(4));
        let before = c.completions().count();
        assert!(before > 200, "pre-failover writes: {before}");
        // The "failure detector" fires: replica 1 campaigns (the old leader
        // is deposed by the higher-ballot Prepare it receives).
        let mut sent_election = false;
        let mut wl = KvWorkload::new(10_000, 0.99, 0.0, 64, 12);
        c.set_client(
            0,
            Box::new(move |rng, _| {
                if !sent_election {
                    sent_election = true;
                    return ClientReq {
                        dst: new_leader,
                        wire_size: 64,
                        flow: 0,
                        payload: Some(Box::new(RkvMsg::StartElection)),
                    };
                }
                let op = wl.next_op();
                ClientReq {
                    dst: new_leader,
                    wire_size: 42 + op.wire_size(),
                    flow: rng.below(1 << 20),
                    payload: Some(Box::new(RkvMsg::Client(op))),
                }
            }),
            8,
        );
        c.run_for(SimTime::from_ms(6));
        let after = c.completions().count();
        assert!(
            after > before + 200,
            "post-failover writes must commit through the new leader: {before} -> {after}"
        );
    }

    /// Deterministic Put for a token, so the client generator and the retry
    /// machinery's `payload_fn` rebuild identical commands.
    fn put_for(token: u64) -> KvOp {
        let mut key = [0u8; KEY_LEN];
        key[..8].copy_from_slice(&token.to_le_bytes());
        KvOp::Put {
            key,
            value: vec![0xAB; 32],
        }
    }

    /// A `ConsensusActor` outside a cluster: replica `replica` of `n`, with
    /// replica `i`'s consensus actor at node `i` and the Memtable beside it.
    fn test_consensus(replica: NodeIdx, n: u16) -> ConsensusActor {
        let peers = (0..n).map(|node| Address { node, actor: 0 }).collect();
        let memtable = Address {
            node: replica as u16,
            actor: 1,
        };
        ConsensusActor::new(replica, peers, memtable)
    }

    /// Run one message through the actor and return what it emitted.
    fn exec_once(actor: &mut ConsensusActor, token: u64, msg: RkvMsg) -> Vec<Emit> {
        let mut dmo = ipipe::dmo::DmoTable::new(ipipe::dmo::Side::Nic, 1 << 20);
        let mut rng = ipipe_sim::DetRng::new(1);
        let mut ctx = ActorCtx::new(SimTime::ZERO, 0, 0, &mut dmo, &mut rng);
        actor.exec(
            &mut ctx,
            ipipe::actor::Request {
                actor: 0,
                flow: 0,
                wire_size: 64,
                arrived: SimTime::ZERO,
                reply_to: Some(Address { node: 9, actor: 0 }),
                token,
                payload: Some(Box::new(msg)),
            },
        );
        ctx.finish().1
    }

    #[test]
    fn retransmitted_write_applies_once_but_replies_each_time() {
        // Single-replica group: proposals commit within the same exec.
        let mut a = test_consensus(0, 1);
        let first = exec_once(&mut a, 7, RkvMsg::Client(put_for(7)));
        let count = |emits: &[Emit]| {
            (
                emits
                    .iter()
                    .filter(|e| matches!(e, Emit::ToActor { .. }))
                    .count(),
                emits
                    .iter()
                    .filter(|e| matches!(e, Emit::ToClient { .. }))
                    .count(),
            )
        };
        assert_eq!(count(&first), (1, 1), "one Apply, one client reply");
        // The client's reply was lost; it retransmits the same token. The
        // write must not reach the memtable a second time, but the client
        // must still be answered (its retry loop would otherwise spin).
        let second = exec_once(&mut a, 7, RkvMsg::Client(put_for(7)));
        assert_eq!(count(&second), (0, 1), "dup absorbed, client re-answered");
    }

    #[test]
    fn follower_bounds_its_buffer_and_redirects_overflow() {
        let obs = ipipe_sim::Obs::disabled();
        let g = obs.registry().gauge_on("rkv.buffered_writes", 1);
        // Replica 1 of 3 boots as a follower; leader hint is replica 0.
        let mut a = test_consensus(1, 3).with_buffered_gauge(g.clone());
        for t in 0..PENDING_CAP as u64 {
            let out = exec_once(&mut a, t, RkvMsg::Client(put_for(t)));
            assert!(out.is_empty(), "writes below the cap buffer silently");
        }
        assert_eq!(g.get(), PENDING_CAP as i64);
        // One past the cap: shed with a redirect toward the hinted leader.
        let out = exec_once(&mut a, 999, RkvMsg::Client(put_for(999)));
        assert_eq!(out.len(), 1);
        match &out[0] {
            Emit::ToClient { payload, token, .. } => {
                assert_eq!(*token, 999);
                let r = payload
                    .as_ref()
                    .expect("redirect payload")
                    .downcast_ref::<Redirect>()
                    .expect("Redirect type");
                assert_eq!(r.0, Address { node: 0, actor: 0 });
            }
            other => panic!("expected ToClient, got {other:?}"),
        }
        assert_eq!(g.get(), PENDING_CAP as i64, "shed writes are not buffered");
    }

    #[test]
    fn heartbeat_detector_elects_new_leader_after_crash() {
        let mut c = Cluster::builder(CN2350)
            .servers(3)
            .clients(1)
            .seed(0xFA11)
            .build();
        let dep = deploy_rkv_with(
            &mut c,
            &[0, 1, 2],
            64 * 1024,
            Some(HeartbeatCfg::lan_default()),
        );
        // The client only knows replica 1 (a follower): its writes ride the
        // buffer/redirect path to the real leader until the crash, and the
        // heartbeat detector's automatic election after it.
        let next = dep.consensus[1];
        c.set_client(
            0,
            Box::new(move |rng, token| {
                let op = put_for(token);
                ClientReq {
                    dst: next,
                    wire_size: 42 + op.wire_size(),
                    flow: rng.below(1 << 20),
                    payload: Some(Box::new(RkvMsg::Client(op))),
                }
            }),
            16,
        );
        c.set_client_retry(
            0,
            RetryPolicy {
                timeout: SimTime::from_us(100),
                cap: SimTime::from_us(400),
                max_tries: 8,
            },
            Some(Box::new(|token| {
                Some(Box::new(RkvMsg::Client(put_for(token))))
            })),
        );
        // The initial leader's node goes dark at 4ms and stays dark.
        c.set_fault_plan(FaultPlan::new(0xD1E).with_crash(
            0,
            SimTime::from_ms(4),
            SimTime::from_ms(500),
        ));
        c.run_for(SimTime::from_ms(4));
        let before = c.completions().count();
        assert!(
            before > 50,
            "redirected writes committed pre-crash: {before}"
        );
        assert!(
            c.obs().registry().counter("client.redirects").get() > 0,
            "the follower shed overflow toward the leader"
        );
        // No operator signal from here on: replica 1 must detect the silent
        // leader, campaign, win with replica 2, and serve the backlog.
        c.run_for(SimTime::from_ms(12));
        let after = c.completions().count();
        assert!(
            after > before + 200,
            "writes must flow through the auto-elected leader: {before} -> {after}"
        );
        assert_eq!(
            c.obs().registry().gauge_on("rkv.buffered_writes", 1).get(),
            0,
            "the failover drain emptied the pending buffer"
        );
    }

    #[test]
    fn heartbeats_leave_a_healthy_group_undisturbed() {
        let mut c = Cluster::builder(CN2350)
            .servers(3)
            .clients(1)
            .seed(0xEBB)
            .build();
        let dep = deploy_rkv_with(
            &mut c,
            &[0, 1, 2],
            64 * 1024,
            Some(HeartbeatCfg::lan_default()),
        );
        let leader = dep.consensus[0];
        let mut wl = KvWorkload::paper_default(512, 1);
        c.set_client(
            0,
            Box::new(move |rng, _| {
                let op = wl.next_op();
                ClientReq {
                    dst: leader,
                    wire_size: 42 + op.wire_size(),
                    flow: rng.below(1 << 20),
                    payload: Some(Box::new(RkvMsg::Client(op))),
                }
            }),
            16,
        );
        c.run_for(SimTime::from_ms(10));
        let done = c.completions().count();
        assert!(done > 1_000, "done={done}");
        // Beacons arrive well inside every follower's timeout: nobody
        // campaigns, so the leader is never deposed and nothing redirects.
        assert_eq!(c.obs().registry().counter("client.redirects").get(), 0);
    }

    #[test]
    fn cmd_encoding_roundtrip() {
        let key = [7u8; KEY_LEN];
        let client = Address { node: 3, actor: 9 };
        let cmd = encode_cmd(42, client, &key, Some(b"value"));
        let (token, c2, k2, v2) = decode_cmd(&cmd).unwrap();
        assert_eq!(token, 42);
        assert_eq!(c2, client);
        assert_eq!(k2, key);
        assert_eq!(v2, Some(b"value".to_vec()));
        let cmd = encode_cmd(1, client, &key, None);
        assert_eq!(decode_cmd(&cmd).unwrap().3, None);
        assert_eq!(decode_cmd(&cmd[..10]), None);
    }
}

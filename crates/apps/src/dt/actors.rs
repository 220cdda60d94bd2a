//! The DT actors (§4): coordinator and participants run on the NIC; a
//! logging actor is pinned to the host for persistent storage access.

use super::txn::{Coordinator, DtMsg, LogRecord, PartIdx, Participant, Step, TxId, KEY_LEN};
use ipipe::prelude::*;
use ipipe::rt::{ClientGenFn, ClientReq, Cluster};
use ipipe_workload::txn::{TxnRequest, TxnWorkload};
use std::collections::HashMap;

/// Actor-level messages.
pub enum DtActorMsg {
    /// Client transaction request (arrives at the coordinator).
    Client(TxnRequest),
    /// Coordinator → participant protocol message.
    ToParticipant(DtMsg),
    /// Participant → coordinator protocol reply.
    FromParticipant {
        /// Replying participant.
        from: PartIdx,
        /// Protocol reply.
        msg: DtMsg,
    },
    /// Coordinator-log checkpoint bound for the logging actor.
    Checkpoint(Vec<LogRecord>),
}

/// The closed-loop client of every DT figure and example: the next
/// transaction of `wl` aimed at the coordinator, in a packet of `packet`
/// bytes or the transaction's own wire size when that is smaller (64-byte
/// floor).
pub fn client_gen(coordinator: Address, packet: u32, mut wl: TxnWorkload) -> ClientGenFn {
    Box::new(move |rng, _| {
        let txn = wl.next_txn();
        ClientReq {
            dst: coordinator,
            wire_size: packet.min(42 + txn.wire_size()).max(64),
            flow: rng.below(1 << 20),
            payload: Some(Box::new(DtActorMsg::Client(txn))),
        }
    })
}

/// The coordinator actor.
pub struct CoordinatorActor {
    coord: Coordinator,
    participants: Vec<Address>,
    logger: Address,
    clients: HashMap<TxId, Address>,
    /// Checkpoint threshold for the coordinator log.
    pub log_limit: u64,
    /// Response cache (paper: "we also cache responses from outstanding
    /// transactions") keyed by txid.
    resp_cache: HashMap<TxId, bool>,
}

impl CoordinatorActor {
    /// Coordinator over `participants`, checkpointing its log to `logger`.
    pub fn new(participants: Vec<Address>, logger: Address, log_limit: u64) -> CoordinatorActor {
        CoordinatorActor {
            coord: Coordinator::new(participants.len() as u32),
            participants,
            logger,
            clients: HashMap::new(),
            log_limit,
            resp_cache: HashMap::new(),
        }
    }

    fn msg_size(msg: &DtMsg) -> u32 {
        32 + match msg {
            DtMsg::ReadAndLock { reads, writes, .. } => {
                ((reads.len() + writes.len()) * KEY_LEN) as u32
            }
            DtMsg::ReadLockReply { reads, .. } => reads
                .iter()
                .map(|(_, v, _)| KEY_LEN as u32 + v.len() as u32 + 8)
                .sum(),
            DtMsg::Validate { reads, .. } => (reads.len() * (KEY_LEN + 8)) as u32,
            DtMsg::Commit { writes, .. } => writes
                .iter()
                .map(|(_, v)| KEY_LEN as u32 + v.len() as u32)
                .sum(),
            DtMsg::Abort { writes, .. } => (writes.len() * KEY_LEN) as u32,
            _ => 0,
        }
    }

    fn ship(&self, ctx: &mut ActorCtx<'_>, token: u64, outs: Vec<(PartIdx, DtMsg)>) {
        for (p, m) in outs {
            let size = Self::msg_size(&m);
            ctx.send(
                self.participants[p as usize],
                token,
                size,
                token,
                Some(Box::new(DtActorMsg::ToParticipant(m))),
            );
        }
    }

    fn finish(&mut self, ctx: &mut ActorCtx<'_>, txid: TxId, committed: bool, resp_len: u32) {
        self.resp_cache.insert(txid, committed);
        if self.resp_cache.len() > 4096 {
            self.resp_cache.clear(); // crude eviction; a cache, not a log
        }
        if let Some(client) = self.clients.remove(&txid) {
            ctx.reply_to(client, 64 + resp_len, txid, None);
        }
        // Checkpoint the coordinator log when it hits the storage limit.
        if self.coord.log.bytes() >= self.log_limit {
            let records = self.coord.log.checkpoint();
            let bytes: u64 = records.iter().map(LogRecord::bytes).sum();
            ctx.charge_work(600);
            ctx.send(
                self.logger,
                txid,
                (bytes as u32).min(60_000),
                txid,
                Some(Box::new(DtActorMsg::Checkpoint(records))),
            );
        }
    }
}

impl ActorLogic for CoordinatorActor {
    fn init(&mut self, ctx: &mut ActorCtx<'_>) {
        // Coordinator log + response cache are DMO-resident (§4).
        let _ = ctx.dmo().malloc(self.state_hint_bytes());
    }

    fn exec(&mut self, ctx: &mut ActorCtx<'_>, mut req: Request) {
        let token = req.token;
        let msg = req.payload_as::<DtActorMsg>();
        match *msg {
            DtActorMsg::Client(txn) => {
                ctx.charge_work(900);
                let client = req.reply_to.expect("client txn carries reply address");
                self.clients.insert(token, client);
                let outs = self.coord.begin(token, txn.reads, txn.writes);
                self.ship(ctx, token, outs);
            }
            DtActorMsg::FromParticipant { from, msg } => {
                ctx.charge_work(650);
                match self.coord.on_reply(from, msg) {
                    Step::Send(outs) => self.ship(ctx, token, outs),
                    Step::Committed(reads) => {
                        let len: u32 = reads.iter().map(|(_, v)| v.len() as u32).sum();
                        self.finish(ctx, token, true, len);
                    }
                    Step::Aborted => self.finish(ctx, token, false, 0),
                    Step::Wait => {}
                }
            }
            _ => {}
        }
    }

    fn host_speedup(&self) -> f64 {
        3.2 // control-flow heavy, small state
    }

    fn state_hint_bytes(&self) -> u64 {
        512 * 1024 // coordinator log window + response cache
    }
}

/// A participant actor: OCC datastore + protocol handling.
pub struct ParticipantActor {
    part: Participant,
    index: PartIdx,
    coordinator: Address,
}

impl ParticipantActor {
    /// Participant `index`, replying to `coordinator`.
    pub fn new(index: PartIdx, coordinator: Address) -> ParticipantActor {
        ParticipantActor {
            part: Participant::new(),
            index,
            coordinator,
        }
    }
}

impl ActorLogic for ParticipantActor {
    fn init(&mut self, ctx: &mut ActorCtx<'_>) {
        // The extendible hashtable datastore is DMO-resident (§4).
        let _ = ctx.dmo().malloc(self.state_hint_bytes());
    }

    fn exec(&mut self, ctx: &mut ActorCtx<'_>, mut req: Request) {
        let token = req.token;
        let msg = req.payload_as::<DtActorMsg>();
        if let DtActorMsg::ToParticipant(m) = *msg {
            // Hashtable probes: a few cache lines per key touched.
            let keys = match &m {
                DtMsg::ReadAndLock { reads, writes, .. } => reads.len() + writes.len(),
                DtMsg::Validate { reads, .. } => reads.len(),
                DtMsg::Commit { writes, .. } => writes.len(),
                DtMsg::Abort { writes, .. } => writes.len(),
                _ => 0,
            };
            ctx.charge_work(400 + 350 * keys as u64);
            let reply = self.part.handle(m);
            let size = CoordinatorActor::msg_size(&reply);
            ctx.send(
                self.coordinator,
                token,
                size,
                token,
                Some(Box::new(DtActorMsg::FromParticipant {
                    from: self.index,
                    msg: reply,
                })),
            );
        }
    }

    fn host_speedup(&self) -> f64 {
        1.8 // hashtable probing: moderately memory-bound
    }

    fn state_hint_bytes(&self) -> u64 {
        16 << 20
    }
}

/// The host-pinned logging actor: absorbs coordinator-log checkpoints.
#[derive(Default)]
pub struct LoggingActor {
    /// Checkpointed records (stands in for persistent storage).
    pub persisted: u64,
    /// Checkpoint batches received.
    pub checkpoints: u64,
}

impl ActorLogic for LoggingActor {
    fn exec(&mut self, ctx: &mut ActorCtx<'_>, mut req: Request) {
        let msg = req.payload_as::<DtActorMsg>();
        if let DtActorMsg::Checkpoint(records) = *msg {
            let bytes: u64 = records.iter().map(LogRecord::bytes).sum();
            // Sequential storage write at ~1 GB/s.
            ctx.charge(SimTime::from_ns(3_000 + bytes));
            self.persisted += records.len() as u64;
            self.checkpoints += 1;
        }
    }

    fn host_pinned(&self) -> bool {
        true
    }

    fn host_speedup(&self) -> f64 {
        2.0
    }
}

/// The addresses of a deployed DT system, reserved before any actor exists.
pub struct DtDeployment {
    /// Client-facing coordinator.
    pub coordinator: Address,
    /// Participant addresses by index.
    pub participants: Vec<Address>,
    /// Host-pinned logging actor.
    pub logger: Address,
}

/// Deploy DT: coordinator on `coord_node`, one participant per entry of
/// `part_nodes`, logger colocated with the coordinator's host.
pub fn deploy_dt(
    c: &mut Cluster,
    coord_node: usize,
    part_nodes: &[usize],
    log_limit: u64,
) -> DtDeployment {
    // Addresses before actors, in registration order.
    let dep = DtDeployment {
        coordinator: c.reserve_actor(coord_node),
        participants: part_nodes.iter().map(|&n| c.reserve_actor(n)).collect(),
        logger: c.reserve_actor(coord_node),
    };
    c.register_reserved(
        dep.coordinator,
        "dt-coordinator",
        Box::new(CoordinatorActor::new(
            dep.participants.clone(),
            dep.logger,
            log_limit,
        )),
        Placement::Nic,
    );
    for (i, &addr) in dep.participants.iter().enumerate() {
        c.register_reserved(
            addr,
            &format!("dt-participant-{i}"),
            Box::new(ParticipantActor::new(i as PartIdx, dep.coordinator)),
            Placement::Nic,
        );
    }
    c.register_reserved(
        dep.logger,
        "dt-logger",
        Box::new(LoggingActor::default()),
        Placement::Host,
    );
    dep
}

#[cfg(test)]
mod tests {
    use super::*;
    use ipipe::rt::ClientReq;
    use ipipe_nicsim::CN2350;
    use ipipe_workload::txn::TxnWorkload;

    #[test]
    fn transactions_commit_end_to_end() {
        let mut c = Cluster::builder(CN2350)
            .servers(3)
            .clients(1)
            .seed(0xD7)
            .build();
        let dep = deploy_dt(&mut c, 0, &[1, 2], 1 << 20);
        let coord = dep.coordinator;
        let mut wl = TxnWorkload::paper_default(512, 4);
        c.set_client(
            0,
            Box::new(move |rng, _| {
                let txn = wl.next_txn();
                ClientReq {
                    dst: coord,
                    wire_size: 42 + txn.wire_size().min(1400),
                    flow: rng.below(1 << 20),
                    payload: Some(Box::new(DtActorMsg::Client(txn))),
                }
            }),
            16,
        );
        c.run_for(SimTime::from_ms(15));
        let done = c.completions().count();
        assert!(done > 500, "done={done}");
        // Round trips: 3 protocol phases over the network keep latency well
        // above a single hop.
        assert!(c.completions().mean() > SimTime::from_us(10));
    }

    #[test]
    fn log_checkpoints_flow_to_host_logger() {
        let mut c = Cluster::builder(CN2350)
            .servers(2)
            .clients(1)
            .seed(0xD8)
            .build();
        // Tiny log limit: checkpoints fire constantly.
        let dep = deploy_dt(&mut c, 0, &[1], 4 * 1024);
        let coord = dep.coordinator;
        let mut wl = TxnWorkload::paper_default(512, 5);
        c.set_client(
            0,
            Box::new(move |rng, _| {
                let txn = wl.next_txn();
                ClientReq {
                    dst: coord,
                    wire_size: 42 + txn.wire_size().min(1400),
                    flow: rng.below(1 << 20),
                    payload: Some(Box::new(DtActorMsg::Client(txn))),
                }
            }),
            8,
        );
        c.run_for(SimTime::from_ms(10));
        assert!(c.completions().count() > 200);
        // The host must have been involved (logger executions charge CPU).
        assert!(c.host_cores_used(0) > 0.0);
    }
}

//! One event shard's loop: the batched dispatch sweep, the ingress merge
//! pool that makes frame arrival order independent of the shard count,
//! `send_frame` (the only way onto the wire), actor registration and the
//! node accessors every handler goes through.

use super::*;
use crate::actor::{ActorCtx, ActorLogic};
use ipipe_netsim::{NodeId, Packet, TxPhase};

/// What a transferred frame becomes once its last bit clears the switch
/// egress port: a deliverable request or a corrupted carcass. This is what
/// waits in the merge pool's slab — the payload is `Box<dyn Any>` and takes
/// no part in the order.
pub(super) enum ArrivalKind {
    Deliver { req: Request },
    Corrupt { wire_size: u32, flip: u8 },
}

/// The order of frames parked at a destination's ingress merge pool, waiting
/// for the port to drain: `(port_ready, dst, src, seq)`. `seq` is a
/// per-source-node monotonic counter, so the order is total and identical
/// for every shard count.
pub(super) type PoolKey = (SimTime, u16, u16, u64);

impl ShardState {
    /// Runtime state of server `node`, which this shard must own.
    pub(super) fn node(&self, node: u16) -> &NodeRt {
        &self.nodes[usize::from(node - self.base)]
    }

    pub(super) fn node_mut(&mut self, node: u16) -> &mut NodeRt {
        &mut self.nodes[usize::from(node - self.base)]
    }

    /// Earliest pending instant in this shard: its own event queue or the
    /// head of the ingress merge pool.
    pub(super) fn next_time(&self) -> Option<SimTime> {
        let q = self.events.peek_time();
        let p = self.pool.peek().map(|&(port_ready, ..)| port_ready);
        match (q, p) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, None) => a,
            (None, b) => b,
        }
    }

    /// Run this shard's events up to `end` (inclusive) and strictly below
    /// `horizon`. At every instant, pooled frame arrivals are resolved
    /// *before* queued handlers run — the rule that makes arrival order
    /// independent of the shard count.
    pub(super) fn run_slice(&mut self, end: SimTime, horizon: Option<SimTime>) {
        while let Some(next) = self.next_time() {
            if next > end {
                break;
            }
            if horizon.is_some_and(|h| next >= h) {
                break;
            }
            if self.pool.peek().is_some_and(|key| key.0 == next) {
                self.resolve_arrivals(next);
                continue;
            }
            // Dispatch is batched per distinct timestamp: one traversal of
            // the event queue serves every simultaneous event, each taken
            // from the queue's slab straight into its handler, and handlers
            // scheduling at the current instant form a follow-up batch with
            // larger sequence numbers.
            let now = self.events.next_batch().expect("peeked");
            while let Some(ev) = self.events.pop_ready() {
                self.processed += 1;
                self.handle(now, ev);
            }
        }
    }

    /// Pop every pool entry whose egress port drains at instant `t` — in
    /// `(port_ready, dst, src, seq)` order — charge the receive queue, and
    /// schedule the ingress event at the receive completion time.
    fn resolve_arrivals(&mut self, t: SimTime) {
        while self.pool.peek().is_some_and(|key| key.0 == t) {
            let ((_, node, src, _), kind) = self.pool.pop().expect("peeked");
            self.processed += 1;
            let (wire_size, ev) = match kind {
                ArrivalKind::Deliver { req } => (req.wire_size, Ev::Deliver { node, req }),
                ArrivalKind::Corrupt { wire_size, flip } => {
                    let ev = Ev::DeliverCorrupt {
                        node,
                        src,
                        wire_size,
                        flip,
                    };
                    (wire_size, ev)
                }
            };
            let rx_end = self.net.finish_transfer(t, node, wire_size);
            self.events.schedule_at(rx_end, ev);
        }
    }

    /// Put `req` on the wire from node `src` to node `dst` at `depart`: the
    /// one place a frame's packet is built (flow label and size are the
    /// request's). Starts the network transfer (TX + fault judgement at send
    /// time) and parks the arrival in the destination's merge pool — directly
    /// when this shard owns the destination, via the outbox otherwise. A
    /// delivered frame becomes a `Deliver` event; a corrupted one a
    /// `DeliverCorrupt` (payload lost on the wire); a dropped one vanishes.
    pub(super) fn send_frame(
        &mut self,
        depart: SimTime,
        src: u16,
        dst: u16,
        kind: PacketKind,
        req: Request,
    ) {
        let pkt =
            Packet::new(NodeId(src), NodeId(dst), req.flow, req.wire_size, kind).stamped(depart);
        let (port_ready, kind) = match self.net.begin_transfer(depart, &pkt) {
            TxPhase::Sent { port_ready } => (port_ready, ArrivalKind::Deliver { req }),
            TxPhase::SentCorrupt { port_ready, flip } => {
                let wire_size = pkt.size;
                (port_ready, ArrivalKind::Corrupt { wire_size, flip })
            }
            TxPhase::Dropped { .. } => return,
        };
        // Per-source-node monotonic sequence: the pool's total-order tiebreak.
        self.send_seq[src as usize] += 1;
        let key = (port_ready, dst, src, self.send_seq[src as usize]);
        if self.shard_of[dst as usize] == self.shard_id {
            self.pool.push(key, kind);
        } else {
            self.outbox.push((key, kind));
        }
    }

    /// Install an actor at `addr`, a node this shard owns and a
    /// cluster-wide actor id the caller allocated.
    pub(super) fn register_actor_local(
        &mut self,
        addr: Address,
        name: &str,
        mut logic: Box<dyn ActorLogic>,
        placement: Placement,
    ) {
        let Address { node, actor: id } = addr;
        let pinned = logic.host_pinned();
        let host_only = self.mode != RuntimeMode::IPipe;
        let on_host = host_only || pinned || placement == Placement::Host;
        let now = self.events.now();
        let n = &mut self.nodes[usize::from(node - self.base)];
        n.dmo.register_region(id, DMO_REGION_BYTES);
        let mut ctx = ActorCtx::new(now, id, node, &mut n.dmo, &mut n.rng);
        logic.init(&mut ctx);
        // Init cost is setup-time, not measured; init *messages* are routed
        // below (timers armed in init must fire).
        let (_, init_emits) = ctx.finish();
        let speedup = logic.host_speedup().max(0.1);
        let hint = logic.state_hint_bytes();
        n.sched
            .register(id, 512, if on_host { Loc::Host } else { Loc::Nic });
        if pinned || host_only {
            n.sched.pin(id);
        }
        n.actors.insert(
            id,
            ActorSlot {
                logic,
                name: name.to_string(),
                host_speedup: speedup,
                state_hot: hint <= self.spec.cache.l2_bytes as u64,
                execs: 0,
            },
        );
        if !init_emits.is_empty() {
            self.route_emits(now, node, init_emits, !on_host);
        }
    }

    fn handle(&mut self, now: SimTime, ev: Ev) {
        match ev {
            Ev::Issue { client } => self.handle_issue(now, client),
            Ev::Deliver { node, req } => self.handle_deliver(now, node, req),
            Ev::NicFree { node, core } => self.handle_nic_free(now, node, core),
            Ev::HostFree { node, core } => self.handle_host_free(now, node, core),
            Ev::RingToHost { node, req } => self.handle_ring_to_host(now, node, req),
            Ev::RingToNic { node, req } => self.handle_ring_to_nic(now, node, req),
            Ev::MigStep { node } => self.handle_mig_step(now, node),
            Ev::MigRetry { node, actor } => {
                let _ = self.force_migrate_local(Address { node, actor });
            }
            Ev::DeliverCorrupt {
                node,
                src,
                wire_size,
                flip,
            } => self.handle_deliver_corrupt(node, src, wire_size, flip),
            Ev::RetryDue { client } => self.handle_retry_due(now, client),
            Ev::DelayedEmit {
                node,
                emit,
                from_nic,
            } => self.route_emit(now, node, emit, from_nic),
        }
    }

    /// A frame came off the wire: replies go to the client machinery,
    /// everything else enters the server's NIC ingress.
    fn handle_deliver(&mut self, now: SimTime, node: u16, req: Request) {
        self.rx_frames += 1;
        if node as usize >= self.n_servers {
            self.handle_reply(now, node, req);
        } else {
            self.handle_ingress(now, node, req);
        }
    }

    /// A damaged frame reached a NIC: run it through the shim stack's real
    /// header codec, which must reject it. The PKI discards rejected frames
    /// before core dispatch, so no scheduler work is generated.
    fn handle_deliver_corrupt(&mut self, node: u16, src: u16, wire_size: u32, flip: u8) {
        self.rx_frames += 1;
        // A frame longer than the codec's payload ceiling (total_len is 16
        // bits and must also cover the 28 IPv4+UDP header bytes) is rejected
        // before the codec runs — silently clamping the length would
        // mislabel jumbo damage as an in-range frame with a bad checksum.
        // The frame is still accounted as processed (`rx_frames`) and as a
        // rejection, with its own reason counter.
        if wire_size as usize > crate::nstack::MAX_UDP_PAYLOAD {
            self.fault_metrics.oversize_rejected.inc();
            self.fault_metrics.corrupt_rejected.inc();
            return;
        }
        let hdr = crate::nstack::build_headers(crate::nstack::WqeHeader {
            src_node: src,
            dst_node: node,
            flow: 0,
            actor: 0,
            payload_len: u16::try_from(wire_size)
                .expect("wire_size <= MAX_UDP_PAYLOAD was just checked"),
        })
        .expect("payload_len <= MAX_UDP_PAYLOAD was just checked");
        let mut damaged = hdr;
        damaged[14 + flip as usize] ^= 0xFF;
        let rejected = crate::nstack::parse_headers(&damaged).is_none();
        debug_assert!(rejected, "corrupted header must fail validation");
        if rejected {
            self.fault_metrics.corrupt_rejected.inc();
        }
    }
}

//! Actor message routing (§3.1, §3.5): every emitted message is delivered
//! locally (traffic manager or ring), parked as a timer, or framed and put on
//! the wire.

use super::cost::{egress_delay, ring_to_nic_latency};
use super::*;

impl ShardState {
    pub(super) fn route_emits(
        &mut self,
        now: SimTime,
        node: u16,
        emits: Vec<Emit>,
        from_nic: bool,
    ) {
        let mode = self.mode;
        for mut e in emits {
            if let Emit::ToActor { after, .. } = &mut e {
                let delay = std::mem::take(after);
                if delay > SimTime::ZERO {
                    // Timer message: park it until the delay expires, then
                    // re-enter routing (port occupancy and faults are
                    // evaluated at fire time, not arm time).
                    let timer = Ev::DelayedEmit {
                        node,
                        emit: e,
                        from_nic,
                    };
                    self.events.schedule_after(delay, timer);
                    continue;
                }
            }
            match e {
                Emit::ToActor {
                    dst,
                    flow,
                    wire_size,
                    payload,
                    token,
                    ..
                } => {
                    let req = Request {
                        actor: dst.actor,
                        flow,
                        wire_size,
                        arrived: now,
                        reply_to: None,
                        token,
                        payload,
                    };
                    if dst.node != node {
                        let depart = now + egress_delay(mode, &self.spec, from_nic, wire_size);
                        self.send_frame(depart, node, dst.node, PacketKind::Internal, req);
                        continue;
                    }
                    // Local delivery: NIC-side actors go through the traffic
                    // manager; host-side through the ring.
                    let n = &mut self.nodes[usize::from(node - self.base)];
                    if n.sched.location(dst.actor) == Some(Loc::Host) {
                        let xfer = n.push_to_host_ring(&self.spec, &req);
                        self.events
                            .schedule_at(now + xfer, Ev::RingToHost { node, req });
                    } else if from_nic {
                        n.sched.on_arrival(now, req);
                        self.kick_nic(now, node);
                    } else {
                        let xfer = ring_to_nic_latency(&self.spec, wire_size);
                        self.events
                            .schedule_at(now + xfer, Ev::RingToNic { node, req });
                    }
                }
                Emit::ToClient {
                    dst,
                    wire_size,
                    token,
                    payload,
                } => {
                    let depart = now + egress_delay(mode, &self.spec, from_nic, wire_size);
                    self.send_response(depart, node, dst, wire_size, token, payload);
                }
            }
        }
    }

    /// Frame a response toward client address `dst` (an actor's reply or an
    /// ingress shed notice), flow-labelled by its token, leaving `node` at
    /// `depart`.
    pub(super) fn send_response(
        &mut self,
        depart: SimTime,
        node: u16,
        dst: Address,
        wire_size: u32,
        token: u64,
        payload: Payload,
    ) {
        let reply = Request {
            actor: dst.actor,
            flow: token,
            wire_size,
            arrived: depart,
            reply_to: None,
            token,
            payload,
        };
        self.send_frame(depart, node, dst.node, PacketKind::Response, reply);
    }
}

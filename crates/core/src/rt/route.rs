//! Actor message routing (§3.1, §3.5): every emitted message — a send to an
//! actor, a reply to a client, an ingress shed notice — is delivered locally
//! (traffic manager or ring), parked as a timer, or framed and put on the
//! wire.

use super::cost::{egress_delay, ring_to_nic_latency};
use super::*;

impl Cluster {
    /// Route one handler run's emits, in emission order, and keep the
    /// emptied outbox for `node`'s next run.
    pub(super) fn route_emits(
        &mut self,
        now: SimTime,
        node: u16,
        mut emits: Vec<Emit>,
        from_nic: bool,
    ) {
        for e in emits.drain(..) {
            self.route_emit(now, node, e, from_nic);
        }
        if emits.capacity() > 0 {
            self.node_mut(node).spare_outboxes.push(emits);
        }
    }

    /// Route one emit leaving `node` at `now`; `from_nic` says which side of
    /// the node emitted it.
    pub(super) fn route_emit(&mut self, now: SimTime, node: u16, mut e: Emit, from_nic: bool) {
        let delay = std::mem::take(&mut e.after);
        if delay > SimTime::ZERO {
            // Timer message: park it until the delay expires, then re-enter
            // routing (port occupancy and faults are evaluated at fire time,
            // not arm time).
            let timer = Ev::DelayedEmit {
                node,
                emit: e,
                from_nic,
            };
            self.queue(node).schedule_after(delay, timer);
            return;
        }
        let Emit {
            dst,
            flow,
            wire_size,
            token,
            payload,
            ..
        } = e;
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
            // A frame to a client's node is a response; to a server's, an
            // internal message.
            let kind = if usize::from(dst.node) >= self.n_servers {
                PacketKind::Response
            } else {
                PacketKind::Internal
            };
            let depart = now + egress_delay(self.mode, &self.spec, from_nic, wire_size);
            self.send_frame(depart, node, dst.node, kind, req);
            return;
        }
        // Local delivery: NIC-side actors go through the traffic manager;
        // host-side through the ring.
        let n = &mut self.nodes[usize::from(node)];
        if n.sched.location(dst.actor) == Some(Loc::Host) {
            let xfer = n.push_to_host_ring(&self.spec, &req);
            self.queue(node)
                .schedule_at(now + xfer, Ev::RingToHost { node, req });
        } else if from_nic {
            n.sched.on_arrival(now, req);
            self.kick_nic(now, node);
        } else {
            let xfer = ring_to_nic_latency(&self.spec, wire_size);
            self.queue(node)
                .schedule_at(now + xfer, Ev::RingToNic { node, req });
        }
    }
}

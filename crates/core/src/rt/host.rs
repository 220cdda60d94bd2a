//! The host side of a server node, behind the PCIe rings (§3.5): the
//! NIC→host ring crossing, per-core flow-steered queues with work stealing
//! (§3.2.6), and host-core actor execution with its cost model.

use super::cost::{
    dmo_translate_cost, host_mem_time, ring_pop_cost, ring_to_host_latency, BOOKKEEP_COST,
    MSG_HANDLE_COST, RING_PUSH_COST,
};
use super::*;
use ipipe_nicsim::spec::HOST_XEON;

/// Chrome-trace lane (`tid`) offset for host cores, so NIC cores and host
/// cores render as separate row groups under one node (`pid`).
const HOST_LANE_OFFSET: u32 = 1000;

impl NodeRt {
    /// Account one NIC→host ring crossing of `req` and return its latency.
    /// Every scheduled `RingToHost` must come through here: the handler
    /// decrements the `rt.ring.depth` gauge unconditionally, so a missed
    /// increment drifts it low (masked by its decrement stopping at zero) —
    /// the audit's `ring.depth` ledger pins the pairing.
    pub(super) fn push_to_host_ring(&mut self, spec: &NicSpec, req: &Request) -> SimTime {
        let xfer = ring_to_host_latency(spec, req.wire_size);
        self.metrics.ring_depth.adjust(1);
        self.metrics.ring_to_host.inc();
        self.metrics.ring_to_host_bytes.add(req.wire_size as u64);
        self.metrics.ring_xfer.record(xfer);
        xfer
    }
}

impl Cluster {
    /// A request crossed the PCIe ring toward the host.
    pub(super) fn handle_ring_to_host(&mut self, now: SimTime, node: u16, req: Request) {
        let depth = &self.node(node).metrics.ring_depth;
        depth.set((depth.get() - 1).max(0));
        self.enqueue_host(now, node, req);
    }

    pub(super) fn enqueue_host(&mut self, now: SimTime, node: u16, req: Request) {
        let n = self.node_mut(node);
        let core =
            u32::try_from(req.flow % n.host_queues.len() as u64).expect("host cores fit u32");
        n.host_queues[core as usize].push_back(req);
        self.start_host_work(now, node, core);
    }

    /// Pull the next request onto host `core` unless it is already busy.
    fn start_host_work(&mut self, now: SimTime, node: u16, core: u32) {
        let (mode, host) = (self.mode, &HOST_XEON);
        let n = self.node_mut(node);
        if n.host_inflight[core as usize].is_some() {
            return;
        }
        let (run, actor, arrived, wire) = loop {
            // Own queue first, then work stealing (ZygOS-style, §3.2.6):
            // scan the other queues.
            let queues = &mut n.host_queues;
            let req = match queues[core as usize].pop_front() {
                Some(req) => req,
                None => match queues.iter_mut().find_map(|q| q.pop_front()) {
                    Some(req) => req,
                    None => return,
                },
            };
            let (actor, arrived, wire) = (req.actor, req.arrived, req.wire_size);
            // A queued request whose actor no longer exists (watchdog kill,
            // deregistration) is dropped *with accounting* by `run_actor`;
            // keep scanning — one dead entry must not stall the queue.
            if let Some(run) = n.run_actor(now, req) {
                break (run, actor, arrived, wire);
            }
        };
        let lookups = run.traffic.lookups;
        let in_cost = match mode {
            RuntimeMode::HostDpdk => host.dpdk_recv(wire),
            RuntimeMode::HostIPipe => {
                // Same epoll/DPDK communication thread as the baseline, plus
                // the framework's message handling, DMO translation and
                // bookkeeping (the Fig 17 overhead sources).
                host.dpdk_recv(wire) + MSG_HANDLE_COST + BOOKKEEP_COST + dmo_translate_cost(lookups)
            }
            RuntimeMode::IPipe => ring_pop_cost(wire) + BOOKKEEP_COST + dmo_translate_cost(lookups),
        };
        #[expect(clippy::cast_possible_truncation, reason = "truncates to whole ns")]
        let handler = SimTime::from_ns(
            ((run.charged + host_mem_time(host, run.traffic)).as_ns() as f64
                / run.slot.host_speedup) as u64,
        );
        let emits = run.emits;
        let out_cost: SimTime = emits
            .iter()
            .map(|e| match mode {
                RuntimeMode::HostDpdk => host.dpdk_send(e.wire_size),
                RuntimeMode::HostIPipe => host.dpdk_send(e.wire_size) + SimTime::from_ns(60),
                RuntimeMode::IPipe => RING_PUSH_COST,
            })
            .sum();
        let busy = in_cost + handler + out_cost;
        n.host_busy_total += busy;
        n.metrics.host_exec.inc();
        n.host_inflight[core as usize] = Some(InFlight {
            actor,
            arrived,
            busy,
            emits,
            forward_only: false,
        });
        self.queue(node)
            .schedule_at(now + busy, Ev::HostFree { node, core });
        self.obs.span(
            "host",
            "exec",
            node,
            HOST_LANE_OFFSET + core,
            now,
            now + busy,
            Some(("actor", actor as i64)),
        );
    }

    pub(super) fn handle_host_free(&mut self, now: SimTime, node: u16, core: u32) {
        let n = self.node_mut(node);
        let inflight = n.host_inflight[core as usize]
            .take()
            .expect("host core was busy");
        // Host completions also update the shared actor statistics so the
        // NIC's pull decisions see host-side behaviour.
        n.sched
            .on_host_complete(inflight.actor, now.saturating_sub(inflight.arrived));
        let via_nic = self.mode == RuntimeMode::IPipe;
        self.route_emits(now, node, inflight.emits, !via_nic);
        self.start_host_work(now, node, core);
    }
}

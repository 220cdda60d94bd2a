//! The NIC side of a server node: ingress admission, FCFS/DRR dispatch onto
//! NIC cores, actor execution with its cost model and watchdog, and
//! completion handling (§3.2, ALG 1/2, §3.4).

use super::cost::{nic_emit_cost, nic_mem_time};
use super::*;
use crate::actor::ActorCtx;
use crate::admission::Decision;
use crate::dmo::{DmoTable, DmoTraffic};
use crate::isolate::{watchdog_fires, WATCHDOG_BUDGET};
use crate::sched::Work;

/// What one `exec` invocation charged and produced, plus the slot and
/// object table it ran against.
pub(super) struct ActorRun<'a> {
    pub(super) charged: SimTime,
    pub(super) emits: Vec<Emit>,
    pub(super) traffic: DmoTraffic,
    pub(super) slot: &'a mut ActorSlot,
    pub(super) dmo: &'a DmoTable,
}

impl NodeRt {
    /// Run `req` through its actor's `exec` handler — the invocation shared
    /// by NIC and host cores. `None` when the actor no longer exists
    /// (watchdog kill, deregistration): the request is unrecoverable, so the
    /// drop is counted to keep the conservation ledger exact instead of
    /// losing it silently.
    pub(super) fn run_actor(&mut self, now: SimTime, req: Request) -> Option<ActorRun<'_>> {
        let Some(slot) = self.actors.get_mut(req.actor) else {
            self.metrics.drop_no_actor.inc();
            return None;
        };
        let mut ctx = ActorCtx::new(now, req.actor, self.id, &mut self.dmo, &mut self.rng);
        slot.logic.exec(&mut ctx, req);
        let (charged, emits) = ctx.finish();
        let traffic = self.dmo.take_traffic();
        slot.execs += 1;
        Some(ActorRun {
            charged,
            emits,
            traffic,
            slot,
            dmo: &self.dmo,
        })
    }
}

impl Cluster {
    /// A request frame reached server `node`'s NIC.
    pub(super) fn handle_ingress(&mut self, now: SimTime, node: u16, mut req: Request) {
        req.arrived = now;
        // Ingress admission: external client requests are judged before any
        // scheduler work is generated (internal server-to-server frames are
        // never shed — refusing mid-protocol messages would wedge Paxos).
        // The decision reads only this node's own bucket state and backlog,
        // so verdicts are identical for every shard count.
        let external_from = req.reply_to.filter(|a| (a.node as usize) >= self.n_servers);
        if let Some(reply_to) = external_from {
            let client_idx = reply_to.node as usize - self.n_servers;
            let class = self.client_class.get(client_idx).copied().unwrap_or(0);
            let n = self.node_mut(node);
            if let Some(admission) = n.admission.as_mut() {
                let verdict = admission.decide(now, class, n.sched.backlog());
                if let Decision::Shed { retry_after } = verdict {
                    let notice = Emit {
                        dst: reply_to,
                        flow: req.token,
                        wire_size: SHED_REPLY_WIRE,
                        token: req.token,
                        payload: Some(Box::new(Shed { retry_after })),
                        after: SimTime::ZERO,
                    };
                    self.route_emit(now, node, notice, true);
                    return;
                }
            }
        }
        match self.mode {
            RuntimeMode::HostDpdk | RuntimeMode::HostIPipe => {
                // Dumb-NIC path: steer by flow straight to a host core.
                // (Fig 17 pins the same communication thread for both the
                // iPipe and non-iPipe host-only variants.)
                self.enqueue_host(now, node, req);
            }
            RuntimeMode::IPipe => {
                self.node_mut(node).sched.on_arrival(now, req);
                self.kick_nic(now, node);
            }
        }
    }

    /// Try to hand work to every idle NIC core.
    pub(super) fn kick_nic(&mut self, now: SimTime, node: u16) {
        for core in 0..self.spec.cores {
            if self.node(node).nic_inflight[core as usize].is_none() {
                self.start_nic_work(now, node, core);
            }
        }
    }

    /// A request crossed the PCIe ring toward the NIC.
    pub(super) fn handle_ring_to_nic(&mut self, now: SimTime, node: u16, req: Request) {
        let n = self.node_mut(node);
        n.metrics.ring_to_nic.inc();
        n.sched.on_arrival(now, req);
        self.kick_nic(now, node);
    }

    fn start_nic_work(&mut self, now: SimTime, node: u16, core: u32) {
        let spec = &self.spec;
        let n = &mut self.nodes[usize::from(node)];
        match n.sched.next_for_core(now, core) {
            None => {}
            Some(Work::Forward(req)) => {
                let push_cost = spec.dma.nb_enqueue;
                let xfer = n.push_to_host_ring(spec, &req);
                n.metrics.nic_forward.inc();
                let work = InFlight {
                    actor: req.actor,
                    arrived: req.arrived,
                    busy: push_cost,
                    emits: Vec::new(),
                    forward_only: true,
                };
                self.obs.span(
                    "nic",
                    "forward",
                    node,
                    core,
                    now,
                    now + push_cost,
                    Some(("actor", req.actor as i64)),
                );
                self.queue(node)
                    .schedule_at(now + xfer, Ev::RingToHost { node, req });
                self.occupy_nic_core(now, node, core, work);
            }
            Some(Work::Exec(req)) => self.exec_on_nic(now, node, core, req),
        }
    }

    fn exec_on_nic(&mut self, now: SimTime, node: u16, core: u32, req: Request) {
        let spec = &self.spec;
        let (actor, arrived, wire) = (req.actor, req.arrived, req.wire_size);
        let n = &mut self.nodes[usize::from(node)];
        // The actor may have vanished between dispatch and execution
        // (watchdog kill); `run_actor` counts the drop.
        let Some(run) = n.run_actor(now, req) else {
            return;
        };
        if run.slot.execs % 4096 == 0 {
            run.slot.state_hot = run.dmo.actor_state_bytes(actor) <= spec.cache.l2_bytes as u64;
        }
        let handler = run.charged + nic_mem_time(spec, run.slot.state_hot, run.traffic);
        let emits = run.emits;
        let dispatch = n.sched.dispatch_overhead();
        let fwd = spec.fwd.cost(wire);
        let send_cost: SimTime = emits.iter().map(|e| nic_emit_cost(spec, e)).sum();
        let busy = dispatch + fwd.max(handler) + send_cost;

        // DoS watchdog (§3.4): a handler that outruns the budget gets its
        // actor deregistered, and the core stalls for the whole budget.
        if watchdog_fires(busy) {
            n.sched.deregister(actor);
            n.actors.remove(actor);
            n.dmo.drop_actor(actor);
            n.metrics.watchdog_kills.inc();
            self.obs.instant(
                "nic",
                "watchdog.kill",
                node,
                core,
                now,
                Some(("actor", actor as i64)),
            );
            let stalled = InFlight {
                actor,
                arrived,
                busy: WATCHDOG_BUDGET,
                emits: Vec::new(),
                forward_only: true,
            };
            self.occupy_nic_core(now, node, core, stalled);
            return;
        }
        n.metrics.nic_exec.inc();
        let work = InFlight {
            actor,
            arrived,
            busy,
            emits,
            forward_only: false,
        };
        self.occupy_nic_core(now, node, core, work);
        self.obs.span(
            "nic",
            "exec",
            node,
            core,
            now,
            now + busy,
            Some(("actor", actor as i64)),
        );
    }

    /// Occupy NIC `core` with `work` and arm its release.
    fn occupy_nic_core(&mut self, now: SimTime, node: u16, core: u32, work: InFlight) {
        let busy = work.busy;
        let n = self.node_mut(node);
        n.nic_inflight[core as usize] = Some(work);
        n.nic_busy_total += busy;
        self.queue(node)
            .schedule_at(now + busy, Ev::NicFree { node, core });
    }

    pub(super) fn handle_nic_free(&mut self, now: SimTime, node: u16, core: u32) {
        let n = self.node_mut(node);
        let inflight = n.nic_inflight[core as usize].take().expect("core was busy");
        if !inflight.forward_only || n.actors.contains_key(inflight.actor) {
            n.sched.on_complete(
                now,
                core,
                inflight.actor,
                now.saturating_sub(inflight.arrived),
                inflight.busy,
            );
        }
        self.route_emits(now, node, inflight.emits, true);
        let mut actions = std::mem::take(&mut self.action_scratch);
        self.node_mut(node).sched.take_actions_into(&mut actions);
        for _ in actions.drain(..) {
            self.arm_migration(node);
        }
        self.action_scratch = actions;
        // Reentrant kicks from route_emits may already have restarted this
        // core; only pull new work if it is still idle.
        if self.node(node).nic_inflight[core as usize].is_none() {
            self.start_nic_work(now, node, core);
        }
    }
}

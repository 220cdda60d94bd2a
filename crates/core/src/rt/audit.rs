//! The conservation audit sweep (DESIGN.md §11): cluster-wide ledgers in
//! [`Cluster::audit`], the pending-event sweep and per-node checks in
//! `audit_nodes`, and the test-only leak hook that proves the checker bites.

use super::*;
use ipipe_sim::audit::CLUSTER_WIDE;

impl Cluster {
    /// Run the conservation audit: every ledger the cluster keeps is checked
    /// against ground truth reconstructed from the pending event queue.
    ///
    /// The pass borrows the cluster: pending events are tallied in place
    /// ([`EventQueue::for_each_pending`]), so a run cannot behave
    /// differently for having been audited mid-flight. Scenario tests call
    /// this at quiesce; [`AuditReport::assert_clean`] turns any violation
    /// into a panic with the full rendered report.
    ///
    /// Invariants checked (see DESIGN.md §11 for the catalog):
    /// * `client.conservation` — issued == completed + abandoned + shed +
    ///   in-flight
    /// * `shed.reconcile` — client-observed sheds ≤ ingress sheds
    /// * `client.retry.timer` — one pending `RetryDue` at the armed instant,
    ///   which is no later than the earliest `due` of an armed request
    /// * `net.frames` — frames sent (`net.packets`) are processed, still
    ///   pending delivery, or dropped with a reason counter
    /// * `ring.depth` — per-node NIC→host ring occupancy equals the pending
    ///   `RingToHost` crossings
    /// * `core.token.{nic,host}` — a busy core holds exactly one pending
    ///   free event; an idle core holds none
    /// * `migrate.*` — for the scheduler's one migration: phase legality,
    ///   exactly one pending step event (none without a migration), its
    ///   actor `Migrating`, and an empty mailbox from phase 2 on
    /// * `admit.conservation` and the scheduler ledgers via
    ///   [`NicScheduler::audit_into`]
    /// * `actor.reserved` — no address is reserved and left without an actor
    pub fn audit(&self) -> AuditReport {
        let mut r = AuditReport::new(self.now());
        let pending_frames = self.audit_nodes(&mut r);
        for addr in &self.reserved {
            let detail = format!("{addr:?} was reserved but never registered");
            r.violation("actor.reserved", addr.node, detail);
        }
        let rx_frames = self.rx_frames;
        let (issued, completed) = (self.issued, self.completed);
        let inflight: usize = self
            .clients
            .iter()
            .flatten()
            .map(|c| c.inflight.len())
            .sum();
        let inflight = u64::try_from(inflight).expect("a count of requests fits u64");
        let f = &self.fault_metrics;
        let (abandoned, shed_remote) = (f.abandoned.get(), f.shed_remote.get());
        let shed = shed_remote + f.shed_source.get();
        let reg = self.obs().registry();
        let loss = reg.counter("fault.drop.loss").get();
        let sent = reg.counter("net.packets").get();
        // Zero when no admission control is installed.
        let ingress_shed: u64 = self
            .nodes
            .iter()
            .flat_map(|n| &n.admission)
            .map(|a| a.shed())
            .sum();

        r.check(
            "client.conservation",
            CLUSTER_WIDE,
            issued == completed + abandoned + shed + inflight,
            || {
                format!(
                    "issued {issued} != completed {completed} + abandoned {abandoned} \
                     + shed {shed} + in-flight {inflight}"
                )
            },
        );

        // Shed ledger: every request a shed reply ended must trace back to
        // an ingress refusal — `≤` because a shed reply can still be on the
        // wire, or ignored as stale after the request completed via another
        // path. Emitted with or without admission, so the check count is
        // scenario-stable.
        r.check_le(
            "shed.reconcile",
            CLUSTER_WIDE,
            ("client-observed sheds", shed_remote),
            ("ingress sheds", ingress_shed),
        );

        // Frame ledger: every frame the network accounted (`net.packets`
        // counts serialized frames, including lossy and corrupted ones, but
        // not link/node-down drops) was either processed at an ingress,
        // is still pending delivery (queued or pooled), or was
        // dropped by the loss fault.
        r.check(
            "net.frames",
            CLUSTER_WIDE,
            rx_frames + pending_frames + loss == sent,
            || {
                format!(
                    "processed {rx_frames} + pending {pending_frames} + lost {loss} \
                     != sent {sent}"
                )
            },
        );

        r.record_to(self.obs());
        r
    }

    /// Test-only leak hook: silently discard one in-flight client request,
    /// bypassing every ledger. The audit must flag the imbalance — the
    /// proptest suite uses this to prove the checker detects real leaks.
    /// Returns false when the client has nothing in flight.
    #[doc(hidden)]
    pub fn debug_drop_inflight(&mut self, client: usize) -> bool {
        let Some(Some(state)) = self.clients.get_mut(client) else {
            return false;
        };
        // Smallest token for determinism across runs.
        let Some(token) = state.inflight.keys().min().copied() else {
            return false;
        };
        state.inflight.remove(&token);
        true
    }

    /// Test-only hook: move the earliest armed request's `due` one
    /// nanosecond before the instant the retry timer is armed for, without
    /// re-arming, so the timer would judge it after its `due`. The audit
    /// must flag it as `client.retry.timer`. Returns false when the client
    /// has no armed request in flight.
    #[doc(hidden)]
    pub fn debug_hasten_retry_due(&mut self, client: usize) -> bool {
        let Some(Some(state)) = self.clients.get_mut(client) else {
            return false;
        };
        let Some(at) = state.retry.as_ref().and_then(|retry| retry.timer.armed) else {
            return false;
        };
        let armed = state.inflight.iter_mut().filter(|(_, out)| out.armed());
        let Some((_, out)) = armed.min_by_key(|(&token, out)| (out.due, token)) else {
            return false;
        };
        out.due = at.saturating_sub(SimTime::from_ns(1));
        true
    }
}

impl Cluster {
    /// Tally every shard's pending events, run the per-client and per-node
    /// checks, and return how many frames are still pending delivery
    /// (queued or pooled).
    fn audit_nodes(&self, r: &mut AuditReport) -> u64 {
        let n_nodes = self.nodes.len();
        let mut ring_to_host = vec![0i64; n_nodes];
        let mut mig_steps = vec![0u64; n_nodes];
        let mut nic_free: Vec<Vec<u64>> = self
            .nodes
            .iter()
            .map(|n| vec![0u64; n.nic_inflight.len()])
            .collect();
        let mut host_free: Vec<Vec<u64>> = self
            .nodes
            .iter()
            .map(|n| vec![0u64; n.host_inflight.len()])
            .collect();
        let mut retry_due: Vec<Vec<SimTime>> = vec![Vec::new(); self.clients.len()];
        let mut pending_frames = 0u64;
        let idx = |node: &u16| usize::from(*node);
        let core_idx = |core: &u32| usize::try_from(*core).expect("core indices fit usize");
        for (s, shard) in self.shards.iter().enumerate() {
            self.queue_of(s).for_each_pending(|at, ev| match ev {
                Ev::RingToHost { node, .. } => ring_to_host[idx(node)] += 1,
                Ev::NicFree { node, core } => nic_free[idx(node)][core_idx(core)] += 1,
                Ev::HostFree { node, core } => host_free[idx(node)][core_idx(core)] += 1,
                Ev::MigStep { node } => mig_steps[idx(node)] += 1,
                Ev::Deliver { .. } | Ev::DeliverCorrupt { .. } => pending_frames += 1,
                Ev::RetryDue { client } => retry_due[usize::from(*client)].push(at),
                _ => {}
            });
            pending_frames += u64::try_from(shard.pool.len()).expect("a count of frames fits u64");
        }
        for (client, state) in self.clients.iter().enumerate() {
            if let Some(state) = state {
                state.audit_retry_timer(r, self.client_node(client), &retry_due[client]);
            }
        }

        for (i, n) in self.nodes.iter().enumerate() {
            let node = n.id;
            let depth = n.metrics.ring_depth.get();
            r.check("ring.depth", node, depth == ring_to_host[i], || {
                format!(
                    "rt.ring.depth {depth} != pending RingToHost {}",
                    ring_to_host[i]
                )
            });
            // A busy core holds exactly one pending free event; an idle one none.
            let cores = [
                ("core.token.nic", "NicFree", &n.nic_inflight, &nic_free[i]),
                (
                    "core.token.host",
                    "HostFree",
                    &n.host_inflight,
                    &host_free[i],
                ),
            ];
            for (invariant, ev, inflight, pending) in cores {
                for (core, slot) in inflight.iter().enumerate() {
                    let busy = slot.is_some();
                    r.check(invariant, node, pending[core] == u64::from(busy), || {
                        format!(
                            "core {core}: busy={busy} but {} pending {ev}",
                            pending[core]
                        )
                    });
                }
            }
            // Exactly one step event per migration in flight, none without.
            let migration = n.sched.migration();
            let want = u64::from(migration.is_some());
            r.check("migrate.step", node, mig_steps[i] == want, || {
                format!("{} pending MigStep events, expected {want}", mig_steps[i])
            });
            if let Some(m) = migration {
                m.audit_into(r, node);
                let loc = n.sched.location(m.actor);
                r.check(
                    "migrate.location",
                    node,
                    loc == Some(Loc::Migrating),
                    || format!("migrating actor {} has scheduler location {loc:?}", m.actor),
                );
                // Phase 2 parked the mailbox, and a `Migrating` actor
                // receives no mail.
                let mail = n.sched.actor(m.actor).map_or(0, |a| a.mailbox_len());
                r.check("migrate.mailbox", node, m.phase < 2 || mail == 0, || {
                    format!(
                        "actor {} in phase {} has {mail} requests in its mailbox",
                        m.actor, m.phase
                    )
                });
            }
            if let Some(a) = &n.admission {
                a.audit_into(r, node);
            }
            n.sched.audit_into(r, node);
        }
        pending_frames
    }
}

impl ClientState {
    /// `client.retry.timer` for this client: while an armed request is in
    /// flight, one pending `RetryDue` sits at `armed`, no later than the
    /// earliest `due` of them, and every other pending `RetryDue` is parked.
    /// Reported only as violations, so a clean audit's check count does not
    /// depend on which clients retry.
    pub(super) fn audit_retry_timer(&self, r: &mut AuditReport, node: u16, pending: &[SimTime]) {
        let Some(retry) = &self.retry else {
            return;
        };
        let t = &retry.timer;
        let at_armed = t
            .armed
            .map_or(0, |a| pending.iter().filter(|&&p| p == a).count());
        let armed = self.inflight.values().filter(|out| out.armed());
        if let Some(earliest) = armed.map(|out| out.due).min() {
            if at_armed != 1 || t.armed.is_none_or(|a| a > earliest) {
                let detail = format!(
                    "earliest due {earliest}, timer armed for {:?} with {at_armed} pending \
                     RetryDue there",
                    t.armed
                );
                r.violation("client.retry.timer", node, detail);
            }
        }
        if pending.len() != usize::from(t.armed.is_some()) + t.parked.len() {
            let detail = format!(
                "{} pending RetryDue, timer armed for {:?} with {} parked",
                pending.len(),
                t.armed,
                t.parked.len()
            );
            r.violation("client.retry.timer", node, detail);
        }
    }
}

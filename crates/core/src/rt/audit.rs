//! The conservation audit sweep (DESIGN.md §11): cluster-wide ledgers in
//! [`Cluster::audit`], the per-shard quiesce sweep and per-node checks in
//! `audit_local`, and the test-only leak hook that proves the checker bites.

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
    /// * `client.conservation` — issued == completed + abandoned + in-flight
    /// * `client.retry.timer` — one deadline per armed request, and one
    ///   pending `RetryDue` at the armed instant, which is no later than the
    ///   earliest live deadline
    /// * `net.frames` — frames the network accounted as sent are processed,
    ///   still pending delivery, or dropped with a reason counter
    /// * `ring.depth` — per-node NIC→host ring occupancy equals the pending
    ///   `RingToHost` crossings
    /// * `core.token.{nic,host}` — a busy core holds exactly one pending
    ///   free event; an idle core holds none
    /// * `migrate.*` — phase legality, exactly one step event per active
    ///   migration, location consistency, buffered-request ownership, and an
    ///   empty dispatcher stash at event boundaries
    /// * scheduler ledgers via [`NicScheduler::audit_into`]
    /// * `actor.reserved` — no address is reserved and left without an actor
    pub fn audit(&self) -> AuditReport {
        let mut r = AuditReport::new(self.now());
        let pending_frames: u64 = self.shards.iter().map(|s| s.audit_local(&mut r)).sum();
        for addr in &self.reserved {
            let detail = format!("{addr:?} was reserved but never registered");
            r.violation("actor.reserved", addr.node, detail);
        }
        let total = |f: fn(&ShardState) -> u64| self.shards.iter().map(f).sum::<u64>();
        let rx_frames = total(|s| s.rx_frames);
        let issued = total(|s| s.completions.issued);
        let completed = total(|s| s.completions.completed);
        let shed = total(|s| s.completions.shed);
        let inflight = total(|s| {
            s.clients
                .iter()
                .flatten()
                .map(|c| c.inflight.len() as u64)
                .sum()
        });
        let abandoned = total(|s| s.fault_metrics.abandoned.get());
        let loss = self.counter_total("fault.drop.loss");
        let sent = total(|s| s.net.packets_sent());
        let bytes_sent = total(|s| s.net.bytes_sent());
        let reg_packets = self.counter_total("net.packets");
        let reg_bytes = self.counter_total("net.bytes");
        let shed_remote = total(|s| s.fault_metrics.shed_remote.get());
        let shed_source = total(|s| s.fault_metrics.shed_source.get());
        let shed_backoff = total(|s| s.fault_metrics.shed_backoff.get());
        // Zero when no admission control is installed.
        let ingress_shed = total(|s| {
            s.nodes
                .iter()
                .flat_map(|n| &n.admission)
                .map(|a| a.shed())
                .sum()
        });

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

        // Shed ledger: the client-side shed total must agree with its two
        // registry counters (remote drops + source suppressions), and every
        // shed the clients observed (remote drops plus parked retry timers)
        // must trace back to an ingress refusal — `≤` because a shed reply
        // can still be on the wire, or ignored as stale after the request
        // completed via another path. Emitted whether or not admission is
        // installed so the audit's check count is scenario-stable.
        r.check(
            "client.shed.counter",
            CLUSTER_WIDE,
            shed == shed_remote + shed_source,
            || {
                format!(
                    "client shed ledger {shed} != remote {shed_remote} \
                     + source {shed_source}"
                )
            },
        );
        r.check_le(
            "shed.reconcile",
            CLUSTER_WIDE,
            ("client-observed sheds", shed_remote + shed_backoff),
            ("ingress sheds", ingress_shed),
        );

        // Measurement consistency: `reset_measurements` stamps every shard
        // with one instant; throughput math assumes they never drift.
        let start0 = self.shards[0].measure_start;
        r.check(
            "measure.start",
            CLUSTER_WIDE,
            self.shards.iter().all(|s| s.measure_start == start0),
            || {
                let starts: Vec<String> = self
                    .shards
                    .iter()
                    .map(|s| s.measure_start.to_string())
                    .collect();
                format!("per-shard measure_start diverged: [{}]", starts.join(", "))
            },
        );

        // Frame ledger: every frame the network accounted (`net.packets`
        // counts serialized frames, including lossy and corrupted ones, but
        // not link/node-down drops) was either processed at an ingress,
        // is still pending delivery (queued, pooled, or outboxed), or was
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

        // Internal-vs-registry cross-check of the link-layer counters,
        // aggregated across shards so the audit emits the same number of
        // checks for every shard count.
        r.check(
            "net.counter.packets",
            CLUSTER_WIDE,
            reg_packets == sent,
            || format!("registry net.packets {reg_packets} != model {sent}"),
        );
        r.check(
            "net.counter.bytes",
            CLUSTER_WIDE,
            reg_bytes == bytes_sent,
            || format!("registry net.bytes {reg_bytes} != model {bytes_sent}"),
        );

        r.record_to(&self.shards[0].obs);
        r
    }

    /// Test-only leak hook: silently discard one in-flight client request,
    /// bypassing every ledger. The audit must flag the imbalance — the
    /// proptest suite uses this to prove the checker detects real leaks.
    /// Returns false when the client has nothing in flight.
    #[doc(hidden)]
    pub fn debug_drop_inflight(&mut self, client: usize) -> bool {
        if client >= self.n_clients {
            return false;
        }
        let node = (self.n_servers + client) as u16;
        let shard = self.shard_for_mut(node);
        let Some(Some(state)) = shard.clients.get_mut(client) else {
            return false;
        };
        // Smallest token for determinism across runs.
        let Some(token) = state.inflight.keys().min().copied() else {
            return false;
        };
        state.inflight.remove(&token);
        true
    }

    /// Test-only hook: silently discard the retry deadline of one in-flight
    /// request, so its retransmission timer can never judge it. The audit
    /// must flag it as `client.retry.timer`. Returns false when the client
    /// has no armed request in flight.
    #[doc(hidden)]
    pub fn debug_drop_retry_deadline(&mut self, client: usize) -> bool {
        if client >= self.n_clients {
            return false;
        }
        let node = (self.n_servers + client) as u16;
        let shard = self.shard_for_mut(node);
        let Some(Some(state)) = shard.clients.get_mut(client) else {
            return false;
        };
        let Some(retry) = state.retry.as_mut() else {
            return false;
        };
        // Smallest token for determinism across runs.
        let armed = state.inflight.iter().filter(|(_, out)| out.armed());
        let Some(token) = armed.map(|(&token, _)| token).min() else {
            return false;
        };
        let d = &mut retry.deadlines;
        d.fifo.retain(|&(_, t)| t != token);
        d.late.retain(|&Reverse((_, t))| t != token);
        true
    }
}

impl ShardState {
    /// Per-shard slice of the conservation audit: tally this shard's
    /// pending events, run the per-node checks, and return how many frames
    /// are still pending delivery here (queued, pooled, or outboxed).
    pub(super) fn audit_local(&self, r: &mut AuditReport) -> u64 {
        let n_nodes = self.nodes.len();
        let mut ring_to_host = vec![0u64; n_nodes];
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
        let base = self.base;
        let idx = |node: &u16| (*node - base) as usize;
        self.events.for_each_pending(|at, ev| match ev {
            Ev::RingToHost { node, .. } => ring_to_host[idx(node)] += 1,
            Ev::NicFree { node, core } => nic_free[idx(node)][*core as usize] += 1,
            Ev::HostFree { node, core } => host_free[idx(node)][*core as usize] += 1,
            Ev::MigStep { node } => mig_steps[idx(node)] += 1,
            Ev::Deliver { .. } | Ev::DeliverCorrupt { .. } => pending_frames += 1,
            Ev::RetryDue { client } => retry_due[*client as usize].push(at),
            _ => {}
        });
        pending_frames += self.pool.len() as u64 + self.outbox.len() as u64;
        for (client, state) in self.clients.iter().enumerate() {
            if let Some(state) = state {
                let node = (self.n_servers + client) as u16;
                audit_retry_timer(r, node, state, &retry_due[client]);
            }
        }

        for (i, n) in self.nodes.iter().enumerate() {
            let node = n.id;
            r.check("ring.depth", node, n.ring_depth == ring_to_host[i], || {
                format!(
                    "ring_depth {} != pending RingToHost {}",
                    n.ring_depth, ring_to_host[i]
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
            // Exactly one step event per active migration, none without one.
            let want = u64::from(n.active_migration.is_some());
            r.check("migrate.step", node, mig_steps[i] == want, || {
                format!("{} pending MigStep events, expected {want}", mig_steps[i])
            });
            if let Some(m) = &n.active_migration {
                m.audit_into(r, node);
                let loc = n.sched.location(m.actor);
                r.check(
                    "migrate.location",
                    node,
                    loc == Some(Loc::Migrating),
                    || format!("migrating actor {} has scheduler location {loc:?}", m.actor),
                );
            }
            r.check("migrate.stash", node, n.pending_buffered.is_empty(), || {
                format!(
                    "{} requests stranded in the dispatcher's migration stash",
                    n.pending_buffered.len()
                )
            });
            if let Some(a) = &n.admission {
                a.audit_into(r, node);
            }
            n.sched.audit_into(r, node);
        }
        pending_frames
    }
}

/// `client.retry.timer` for one client: every armed in-flight request has
/// exactly one deadline, and while any deadline is live one pending
/// `RetryDue` sits at `armed`, no later than the earliest of them. Every
/// other pending `RetryDue` is parked. Reported only as a violation, so a
/// clean audit's check count does not depend on which clients retry.
fn audit_retry_timer(r: &mut AuditReport, node: u16, state: &ClientState, pending: &[SimTime]) {
    let Some(retry) = &state.retry else {
        return;
    };
    let d = &retry.deadlines;
    let entries = || d.fifo.iter().chain(d.late.iter().map(|Reverse(e)| e));
    let mut per_token: IdMap<u64, u32> = IdMap::default();
    for &(_, token) in entries() {
        *per_token.entry(token).or_default() += 1;
    }
    let unmatched = state
        .inflight
        .iter()
        .filter(|(token, out)| out.armed() && per_token.get(token) != Some(&1))
        .map(|(&token, _)| token);
    if let Some(token) = unmatched.min() {
        let n = per_token.get(&token).copied().unwrap_or(0);
        let detail = format!("in-flight token {token} has {n} retry deadlines, not 1");
        r.violation("client.retry.timer", node, detail);
    }
    let live = entries().filter(|(_, token)| state.inflight.contains_key(token));
    let at_armed = d
        .armed
        .map_or(0, |a| pending.iter().filter(|&&p| p == a).count());
    if let Some(earliest) = live.map(|&(at, _)| at).min() {
        if at_armed != 1 || d.armed.is_none_or(|a| a > earliest) {
            let detail = format!(
                "earliest live deadline {earliest}, timer armed for {:?} with {at_armed} \
                 pending RetryDue there",
                d.armed
            );
            r.violation("client.retry.timer", node, detail);
        }
    }
    if pending.len() != usize::from(d.armed.is_some()) + d.parked.len() {
        let detail = format!(
            "{} pending RetryDue, timer armed for {:?} with {} parked",
            pending.len(),
            d.armed,
            d.parked.len()
        );
        r.violation("client.retry.timer", node, detail);
    }
}

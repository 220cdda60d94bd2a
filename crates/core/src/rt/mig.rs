//! The four-phase migration driver (§3.2.5, App. B.3): scheduler push/pull
//! decisions and forced migrations start a [`Migration`], `MigStep` events
//! walk it through its phases, and a crash window aborts it.

use super::*;
use crate::dmo::Side;
use crate::migrate::MigrationDir;
use crate::sched::Action;

/// Trace lane for the migration timeline.
const MIGRATION_LANE: u32 = 999;

impl NodeRt {
    /// Remove and return the stashed requests addressed to `actor` (see
    /// `NodeRt::pending_buffered`).
    fn take_pending_for(&mut self, actor: ActorId) -> Vec<Request> {
        if self.pending_buffered.is_empty() {
            return Vec::new();
        }
        let stash = std::mem::take(&mut self.pending_buffered);
        let (mine, rest) = stash.into_iter().partition(|r| r.actor == actor);
        self.pending_buffered = rest;
        mine
    }

    /// Hand `reqs` back to the dispatcher as fresh arrivals, so a migration
    /// pause does not pollute the scheduler's sojourn statistics.
    fn rearrive(&mut self, now: SimTime, reqs: Vec<Request>) {
        for mut req in reqs {
            req.arrived = now;
            self.sched.on_arrival(now, req);
        }
    }
}

impl ShardState {
    /// Force a push migration of an actor living on this shard.
    pub(super) fn force_migrate_local(&mut self, addr: Address) -> bool {
        let n = self.node(addr.node);
        if n.active_migration.is_some() || n.sched.location(addr.actor) != Some(Loc::Nic) {
            return false;
        }
        self.begin_migration(self.events.now(), addr.node, addr.actor, MigrationDir::Push);
        true
    }

    /// Enter phase 1: mark the actor `Migrating`, fold the requests the
    /// dispatcher already stashed for it into the migration's buffer, and
    /// arm the first step.
    fn begin_migration(&mut self, now: SimTime, node: u16, actor: ActorId, dir: MigrationDir) {
        let n = self.node_mut(node);
        n.sched.set_location(actor, Loc::Migrating);
        let mut mig = Migration::start(actor, dir, now);
        mig.buffered = n.take_pending_for(actor);
        n.active_migration = Some(mig);
        self.events
            .schedule_after(Migration::phase1_duration(), Ev::MigStep { node });
    }

    /// Re-inject stashed requests for `actor` into the dispatcher after its
    /// migration mark was refused or its migration ended.
    fn reinject_pending_buffered(&mut self, now: SimTime, node: u16, actor: ActorId) {
        let n = self.node_mut(node);
        let mine = n.take_pending_for(actor);
        if mine.is_empty() {
            return;
        }
        n.rearrive(now, mine);
        self.kick_nic(now, node);
    }

    pub(super) fn apply_action(&mut self, now: SimTime, node: u16, action: Action) {
        let n = self.node_mut(node);
        match action {
            Action::PushMigrate(actor) => {
                let busy = n.active_migration.is_some() || now < n.mig_cooldown_until;
                if busy || n.actors.get(&actor).map(|s| s.pinned_host).unwrap_or(true) {
                    // Already migrating something (or the actor may never
                    // leave): let it run again. Requests buffered while the
                    // mark was pending go back to the dispatcher — dropping
                    // them here was exactly the silent-loss class the audit
                    // hunts.
                    n.sched.set_location(actor, Loc::Nic);
                    self.reinject_pending_buffered(now, node, actor);
                    return;
                }
                self.begin_migration(now, node, actor, MigrationDir::Push);
            }
            Action::PullMigrate => {
                if n.active_migration.is_some() || now < n.mig_cooldown_until {
                    return;
                }
                // Choose the lightest non-pinned host actor — and only pull
                // it if its estimated load actually fits the NIC's headroom
                // (ALG 1: "if there is sufficient CPU headroom"); otherwise
                // the pull would immediately re-trigger a push.
                let victim = n
                    .actors
                    .iter()
                    .filter(|(id, s)| !s.pinned_host && n.sched.location(**id) == Some(Loc::Host))
                    .min_by(|(a_id, _), (b_id, _)| {
                        let la = n.sched.actor(**a_id).map(|x| x.stats.load()).unwrap_or(0.0);
                        let lb = n.sched.actor(**b_id).map(|x| x.stats.load()).unwrap_or(0.0);
                        // Equal loads tie-break on the id, not on hash order.
                        let by_load = la.partial_cmp(&lb).unwrap_or(std::cmp::Ordering::Equal);
                        by_load.then(a_id.cmp(b_id))
                    })
                    .map(|(&id, _)| id);
                let Some(victim) = victim else { return };
                let victim_load = n.sched.actor(victim).map(|a| a.stats.load()).unwrap_or(0.0);
                if victim_load > 0.3 * self.spec.cores as f64 {
                    return;
                }
                self.begin_migration(now, node, victim, MigrationDir::Pull);
            }
            Action::CoreRebalanced { .. } | Action::Regrouped { .. } => {}
        }
    }

    pub(super) fn handle_mig_step(&mut self, now: SimTime, node: u16) {
        // A node inside a crash window cannot make migration progress (the
        // DMA engines and rings are gone with the card): abort, restore the
        // actor, and retry once the node restarts.
        if self.net.node_down(node, now) {
            self.abort_migration(now, node);
            return;
        }
        let n = self.node_mut(node);
        let Some(m) = n.active_migration.as_mut() else {
            return;
        };
        if m.phase == 4 {
            self.finish_migration(now, node);
            return;
        }
        m.complete_phase(now);
        // How long the phase now starting takes.
        let next = match m.phase {
            2 => {
                // Phase 2: drain the actor's mailbox (requests already
                // dispatched into it get executed before the move). The
                // drain goes through the scheduler so the requests are
                // credited to its `buffered` counter — a raw mailbox
                // drain leaks them from the arrivals ledger.
                let mean = n
                    .sched
                    .actor(m.actor)
                    .map(|a| a.stats.mean())
                    .unwrap_or(SimTime::ZERO);
                let drained = n.sched.drain_mailbox_for_migration(m.actor);
                let queued = drained.len();
                m.buffered.splice(0..0, drained);
                Migration::phase2_duration(queued, mean)
            }
            3 => {
                // Phase 3: move the DMOs.
                let objs = n.dmo.objects_of(m.actor);
                let bytes: u64 = objs.iter().map(|(_, s)| *s).sum();
                Migration::phase3_duration(objs.len(), bytes)
            }
            _ => {
                let to = match m.dir {
                    MigrationDir::Push => Side::Host,
                    MigrationDir::Pull => Side::Nic,
                };
                n.dmo.migrate_actor(m.actor, to);
                // Phase 4: forward the requests buffered so far.
                Migration::phase4_duration(m.buffered.len())
            }
        };
        self.events.schedule_after(next, Ev::MigStep { node });
    }

    /// Tear down an in-progress migration: the actor resumes at its origin
    /// side, buffered requests re-enter the dispatcher, and a retry fires
    /// after the crash window ends.
    fn abort_migration(&mut self, now: SimTime, node: u16) {
        let n = self.node_mut(node);
        let Some(m) = n.active_migration.take() else {
            return;
        };
        let origin = match m.dir {
            MigrationDir::Push => Loc::Nic,
            MigrationDir::Pull => Loc::Host,
        };
        n.sched.set_location(m.actor, origin);
        self.fault_metrics.mig_aborted.inc();
        self.obs.instant(
            "migrate",
            "aborted",
            node,
            MIGRATION_LANE,
            now,
            Some(("actor", m.actor as i64)),
        );
        let actor = m.actor;
        self.node_mut(node).rearrive(now, m.buffered);
        self.reinject_pending_buffered(now, node, actor);
        if let Some(up) = self.net.down_until(node, now) {
            self.events
                .schedule_at(up + SimTime::from_us(1), Ev::MigRetry { node, actor });
        }
        self.kick_nic(now, node);
    }

    fn finish_migration(&mut self, now: SimTime, node: u16) {
        let spec = self.spec;
        let n = self.node_mut(node);
        let Some(mut mig) = n.active_migration.take() else {
            return;
        };
        mig.complete_phase(now);
        let actor = mig.actor;
        let dest = match mig.dir {
            MigrationDir::Push => Loc::Host,
            MigrationDir::Pull => Loc::Nic,
        };
        n.sched.set_location(actor, dest);
        let name = n.actors.get(&actor).map_or("", |s| s.name.as_str());
        let report = mig.report(name, n.dmo.actor_state_bytes(actor));
        n.mig_cooldown_until = now + SimTime::from_ms(1);
        report.record_to(self.obs.registry(), node);
        report.trace_to(&self.obs, node, MIGRATION_LANE, mig.started);
        self.node_mut(node).migration_reports.push(report);
        // Forward buffered requests to wherever the actor now lives. Their
        // arrival stamps are rewritten so the migration pause does not
        // pollute the scheduler's sojourn statistics.
        for (i, mut req) in mig.buffered.into_iter().enumerate() {
            req.arrived = now;
            let delay = crate::migrate::PHASE4_PER_REQUEST * i as u64;
            let (at, ev) = match dest {
                Loc::Host => {
                    let xfer = self.node_mut(node).push_to_host_ring(spec, &req);
                    (delay + xfer, Ev::RingToHost { node, req })
                }
                _ => (delay, Ev::RingToNic { node, req }),
            };
            self.events.schedule_after(at, ev);
        }
        self.reinject_pending_buffered(now, node, actor);
        self.kick_nic(now, node);
    }
}

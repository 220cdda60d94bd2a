//! Four-phase migration (§3.2.5, App. B.3): every migration the
//! scheduler begins is a [`Migration`] it holds, `MigStep` events walk it
//! through its phases, and a crash window aborts it.

use super::*;
use crate::dmo::Side;

/// Trace lane for the migration timeline.
const MIGRATION_LANE: u32 = 999;

impl Cluster {
    /// Force a push migration of the actor at `addr`, at `now`.
    pub(super) fn force_push(&mut self, now: SimTime, addr: Address) -> bool {
        let Address { node, actor } = addr;
        if !self.node_mut(node).sched.force_push(now, actor) {
            return false;
        }
        self.arm_migration(node);
        true
    }

    /// Enter phase 1 of the migration the scheduler began: the actor is
    /// already `Migrating` (a pull victim since the runtime took the
    /// command), its requests parked since the mark. Arm the first step.
    pub(super) fn arm_migration(&mut self, node: u16) {
        self.queue(node)
            .schedule_after(Migration::phase1_duration(), Ev::MigStep { node });
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
        let Some(m) = n.sched.migration_mut() else {
            return;
        };
        if m.phase == 4 {
            self.finish_migration(now, node);
            return;
        }
        m.complete_phase(now);
        let (actor, phase, dest) = (m.actor, m.phase, m.dir.dest());
        // How long the phase now starting takes.
        let next = match phase {
            2 => {
                // Phase 2: drain the actor's mailbox (requests already
                // dispatched into it get executed before the move) into
                // its parked requests.
                let mean = n
                    .sched
                    .actor(actor)
                    .map(|a| a.stats().mean())
                    .unwrap_or(SimTime::ZERO);
                let queued = n.sched.park_mailbox();
                Migration::phase2_duration(queued, mean)
            }
            3 => {
                // Phase 3: move the DMOs.
                let (objects, bytes) = n.dmo.footprint(actor);
                Migration::phase3_duration(objects, bytes)
            }
            _ => {
                n.dmo.migrate_actor(actor, dest);
                // Phase 4: forward the requests parked so far.
                let parked = n.sched.migration().map_or(0, |m| m.parked.len());
                Migration::phase4_duration(parked)
            }
        };
        self.queue(node).schedule_after(next, Ev::MigStep { node });
    }

    /// Tear down an in-progress migration: the actor resumes at its origin
    /// side, parked requests re-enter the dispatcher, and a retry fires
    /// after the crash window ends.
    fn abort_migration(&mut self, now: SimTime, node: u16) {
        let Some(actor) = self.node_mut(node).sched.abort_migration(now) else {
            return;
        };
        self.fault_metrics.mig_aborted.inc();
        self.obs.instant(
            "migrate",
            "aborted",
            node,
            MIGRATION_LANE,
            now,
            Some(("actor", actor as i64)),
        );
        if let Some(up) = self.net.down_until(node, now) {
            self.queue(node)
                .schedule_at(up + SimTime::from_us(1), Ev::MigRetry { node, actor });
        }
        self.kick_nic(now, node);
    }

    fn finish_migration(&mut self, now: SimTime, node: u16) {
        let n = self.node_mut(node);
        let Some(mig) = n.sched.finish_migration(now) else {
            return;
        };
        let forwarded = mig.parked.len() as u64;
        let report = mig.report(n.dmo.actor_state_bytes(mig.actor), forwarded);
        report.record_to(self.obs.registry(), node);
        report.trace_to(&self.obs, node, MIGRATION_LANE, mig.started);
        self.node_mut(node).last_migration = Some(report);
        // Forward parked requests to wherever the actor now lives. Their
        // arrival stamps are rewritten so the migration pause does not
        // pollute the scheduler's sojourn statistics.
        for (i, mut req) in mig.parked.into_iter().enumerate() {
            req.arrived = now;
            let delay = crate::migrate::PHASE4_PER_REQUEST * i as u64;
            let (at, ev) = match mig.dir.dest() {
                Side::Host => {
                    let n = &mut self.nodes[usize::from(node)];
                    let xfer = n.push_to_host_ring(&self.spec, &req);
                    (delay + xfer, Ev::RingToHost { node, req })
                }
                Side::Nic => (delay, Ev::RingToNic { node, req }),
            };
            self.queue(node).schedule_after(at, ev);
        }
        self.kick_nic(now, node);
    }
}

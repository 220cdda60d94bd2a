//! Four-phase actor migration (§3.2.5, Appendix B.3).
//!
//! 1. **Prepare** — the actor removes itself from the dispatcher (and the
//!    DRR runnable queue); the scheduler parks its incoming requests
//!    ([`Migration::parked`]).
//! 2. **Ready** — the actor finishes its in-flight tasks (a DRR actor drains
//!    its mailbox).
//! 3. **Move** — the scheduler moves the actor's distributed objects to the
//!    other side, creating entries in the destination object table; the
//!    source actor is marked *Gone*.
//! 4. **Forward** — parked requests are forwarded with rewritten
//!    destinations; the source actor is marked *Clean*.
//!
//! Fig 18's breakdown shows phase 3 dominating (~68% on average — moving
//! tens of MB of DMOs across PCIe) with phase 4 second (~27%, proportional
//! to the requests buffered while phases 1–3 ran).
//!
//! A completed migration's [`MigrationReport`] goes into the registry and
//! the trace; its node keeps only the last one
//! ([`crate::rt::Cluster::last_migration`], read by Fig 18).

use crate::actor::{ActorId, Request};
use crate::dmo::{migration_transfer_time, Side};
use ipipe_sim::audit::AuditReport;
use ipipe_sim::obs::{Obs, Registry};
use ipipe_sim::SimTime;

/// Direction of a migration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MigrationDir {
    /// NIC → host (push; the NIC is overload-sensitive so only it initiates).
    Push,
    /// Host → NIC (pull, under low load).
    Pull,
}

impl MigrationDir {
    /// The side the actor leaves (and stays on if the move aborts).
    pub fn origin(self) -> Side {
        match self {
            MigrationDir::Push => Side::Nic,
            MigrationDir::Pull => Side::Host,
        }
    }

    /// The side the actor arrives on.
    pub fn dest(self) -> Side {
        match self {
            MigrationDir::Push => Side::Host,
            MigrationDir::Pull => Side::Nic,
        }
    }
}

/// Effective streaming bandwidth for phase-3 state movement: batched
/// non-blocking DMA writes with scatter-gather reach ~0.9 GB/s of useful
/// payload (Fig 18: the 32 MB Memtable object takes ~35.8 ms).
pub const STATE_MOVE_BW: f64 = 0.9e9;

/// Phase-1 fixed cost: runtime locking, dispatcher removal, state flip.
pub const PHASE1_COST: SimTime = SimTime::from_us(400);
/// Phase-2 fixed cost on top of the drain time.
pub const PHASE2_BASE: SimTime = SimTime::from_us(600);
/// Per-object bookkeeping in phase 3 (alloc + table insert on the far
/// side); object descriptors are batched into large DMA messages, so the
/// per-object residue is small.
pub const PHASE3_PER_OBJECT: SimTime = SimTime::from_ns(300);
/// Per-request forwarding cost in phase 4 (ring push + readdressing).
pub const PHASE4_PER_REQUEST: SimTime = SimTime::from_ns(1500);
/// Phase-4 fixed cost (final state flip to Clean).
pub const PHASE4_BASE: SimTime = SimTime::from_us(300);

/// The one migration in progress on a node, held by its scheduler
/// ([`crate::sched::NicScheduler::migration`]).
#[derive(Debug)]
pub struct Migration {
    /// The moving actor.
    pub actor: ActorId,
    /// Push or pull.
    pub dir: MigrationDir,
    /// When phase 1 started.
    pub started: SimTime,
    /// Current phase, 1..=4 (5 = complete).
    pub phase: u8,
    /// Elapsed time of each completed phase.
    pub phase_times: [SimTime; 4],
    /// When the current phase began.
    phase_began: SimTime,
    /// Requests held while the actor is `Migrating`, oldest first: its
    /// mailbox at phase 2, then everything that arrived since the mark.
    pub parked: Vec<Request>,
}

impl Migration {
    /// Start phase 1 for `actor`.
    pub fn start(actor: ActorId, dir: MigrationDir, now: SimTime) -> Migration {
        Migration {
            actor,
            dir,
            started: now,
            phase: 1,
            phase_times: [SimTime::ZERO; 4],
            phase_began: now,
            parked: Vec::new(),
        }
    }

    /// Duration of phase 1.
    pub fn phase1_duration() -> SimTime {
        PHASE1_COST
    }

    /// Duration of phase 2 given the actor's backlog: `queued` pending
    /// requests at `mean_exec` each.
    pub fn phase2_duration(queued: usize, mean_exec: SimTime) -> SimTime {
        PHASE2_BASE + mean_exec * queued as u64
    }

    /// Duration of phase 3: move `n_objects` DMOs totaling `bytes`.
    pub fn phase3_duration(n_objects: usize, bytes: u64) -> SimTime {
        PHASE3_PER_OBJECT * n_objects as u64 + migration_transfer_time(bytes, STATE_MOVE_BW)
    }

    /// Duration of phase 4: forward `parked` requests.
    pub fn phase4_duration(parked: usize) -> SimTime {
        PHASE4_BASE + PHASE4_PER_REQUEST * parked as u64
    }

    /// The current phase ended at `now`: record the time it actually took
    /// (the `phaseN_duration` formulas only schedule the step events — the
    /// report shows what the simulation spent) and advance.
    pub fn complete_phase(&mut self, now: SimTime) {
        assert!((1..=4).contains(&self.phase), "phase out of range");
        self.phase_times[self.phase as usize - 1] = now.saturating_sub(self.phase_began);
        self.phase_began = now;
        self.phase += 1;
    }

    /// Check this migration's self-contained legality: the phase cursor is
    /// within 1..=4 while the migration is in flight. Runtime-coupled
    /// invariants — pending `MigStep` events, the scheduler location flip
    /// and the actor's mailbox — stay with the cluster-level audit, which
    /// owns the event queue and the scheduler.
    pub fn audit_into(&self, r: &mut AuditReport, node: u16) {
        r.check("migrate.phase", node, (1..=4).contains(&self.phase), || {
            format!("actor {} in illegal phase {}", self.actor, self.phase)
        });
    }

    /// Produce the report (call once done), `forwarded` requests having
    /// been parked and forwarded in phase 4.
    pub fn report(&self, state_bytes: u64, forwarded: u64) -> MigrationReport {
        MigrationReport {
            actor: self.actor,
            dir: self.dir,
            state_bytes,
            requests_forwarded: forwarded,
            phase_times: self.phase_times,
        }
    }
}

/// The Fig 18 data point: one migration's per-phase elapsed time.
#[derive(Debug, Clone, PartialEq)]
pub struct MigrationReport {
    /// Migrated actor (its name: [`crate::rt::Cluster::actor_name`]).
    pub actor: ActorId,
    /// Push or pull.
    pub dir: MigrationDir,
    /// DMO bytes moved in phase 3.
    pub state_bytes: u64,
    /// Requests forwarded in phase 4.
    pub requests_forwarded: u64,
    /// Elapsed time of each phase.
    pub phase_times: [SimTime; 4],
}

impl MigrationReport {
    /// Total migration time.
    pub fn total(&self) -> SimTime {
        self.phase_times.iter().copied().sum()
    }

    /// Per-phase metric names, 1-indexed like the phases.
    pub const PHASE_METRICS: [&'static str; 4] = [
        "migrate.phase1.prepare",
        "migrate.phase2.ready",
        "migrate.phase3.move",
        "migrate.phase4.forward",
    ];

    /// Publish this migration into the metrics registry under `node`.
    pub fn record_to(&self, reg: &Registry, node: u16) {
        reg.counter_on("migrate.completed", node).inc();
        let dir = match self.dir {
            MigrationDir::Push => "migrate.completed.push",
            MigrationDir::Pull => "migrate.completed.pull",
        };
        reg.counter_on(dir, node).inc();
        reg.counter_on("migrate.state_bytes", node)
            .add(self.state_bytes);
        reg.counter_on("migrate.requests_forwarded", node)
            .add(self.requests_forwarded);
        reg.hist_on("migrate.total", node).record(self.total());
        for (i, name) in Self::PHASE_METRICS.iter().enumerate() {
            reg.hist_on(name, node).record(self.phase_times[i]);
        }
    }

    /// Emit the migration's timeline into the trace ring: one enclosing
    /// span plus one span per phase, all on a dedicated migration lane.
    pub fn trace_to(&self, obs: &Obs, node: u16, lane: u32, started: SimTime) {
        let end = started + self.total();
        obs.span(
            "migration",
            match self.dir {
                MigrationDir::Push => "migrate.push",
                MigrationDir::Pull => "migrate.pull",
            },
            node,
            lane,
            started,
            end,
            Some(("actor", self.actor as i64)),
        );
        let names = ["phase1", "phase2", "phase3", "phase4"];
        let mut t = started;
        for (i, name) in names.iter().enumerate() {
            let next = t + self.phase_times[i];
            obs.span(
                "migration",
                name,
                node,
                lane,
                t,
                next,
                Some(("actor", self.actor as i64)),
            );
            t = next;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn phase_progression_and_report() {
        let mut now = SimTime::from_ms(1);
        let mut m = Migration::start(5, MigrationDir::Push, now);
        assert_eq!(m.phase, 1);
        for took in [400, 640, 37_313, 3_300].map(SimTime::from_us) {
            now += took;
            m.complete_phase(now);
        }
        assert_eq!(m.phase, 5);
        assert_eq!(m.phase_times[1], SimTime::from_us(640));
        let r = m.report(32 << 20, 7);
        assert_eq!(r.actor, 5);
        assert_eq!(r.requests_forwarded, 7);
        assert!(r.total() > SimTime::from_ms(30));
        // Phase 3 dominates for a large-state actor (Fig 18).
        let [p1, _, p3, _] = r.phase_times;
        assert!(p3 * 2 > r.total(), "phase 3 {p3} of {}", r.total());
        assert!(p1 * 20 < r.total());
    }

    #[test]
    fn large_state_moves_in_tens_of_ms() {
        // The paper's LSM Memtable: ~32MB -> ~35.8ms phase 3.
        let d = Migration::phase3_duration(1, 32 << 20);
        assert!((d.as_ms_f64() - 37.3).abs() < 3.0, "d={d}");
    }

    #[test]
    fn phase4_scales_with_buffered_requests() {
        let few = Migration::phase4_duration(10);
        let many = Migration::phase4_duration(10_000);
        assert!(many > few * 10);
        // 10k requests * 1.5us = 15ms + base.
        assert!((many.as_ms_f64() - 15.3).abs() < 0.5);
    }

    #[test]
    fn small_stateless_actor_migrates_quickly() {
        let total = Migration::phase1_duration()
            + Migration::phase2_duration(0, SimTime::ZERO)
            + Migration::phase3_duration(2, 4096)
            + Migration::phase4_duration(50);
        // Fig 18: lightweight actors (filter, coordinator) land around 1-5ms.
        assert!(total < SimTime::from_ms(5), "total={total}");
    }

    #[test]
    fn audit_flags_illegal_phase() {
        let mut m = Migration::start(3, MigrationDir::Push, SimTime::ZERO);
        let mut r = AuditReport::new(SimTime::ZERO);
        m.audit_into(&mut r, 0);
        assert!(r.is_clean(), "fresh migration must audit clean: {r:?}");

        m.phase = 7;
        let mut r = AuditReport::new(SimTime::ZERO);
        m.audit_into(&mut r, 0);
        let names: Vec<&str> = r.violations().iter().map(|v| v.invariant).collect();
        assert_eq!(names, ["migrate.phase"]);
    }

    #[test]
    #[should_panic(expected = "phase out of range")]
    fn completing_past_phase4_panics() {
        let mut m = Migration::start(1, MigrationDir::Pull, SimTime::ZERO);
        for _ in 0..5 {
            m.complete_phase(SimTime::from_us(1));
        }
    }
}

//! The iPipe actor scheduler (§3.2): a hybrid of FCFS and DRR-based
//! processor sharing, with NIC↔host actor migration.
//!
//! * All cores start in **FCFS** mode, pulling from the traffic manager's
//!   shared queue and running requests to completion (ALG 1 lines 5–12).
//! * When the FCFS group's µ+3σ tail exceeds `tail_thresh`, the actor with
//!   the highest dispersion is **downgraded** into the DRR runnable queue
//!   (ALG 1 lines 13–16); DRR cores scan that queue round-robin, spending
//!   each actor's deficit (ALG 2). When the tail falls below
//!   `(1−α)·tail_thresh`, the lowest-dispersion DRR actor is **upgraded**
//!   back.
//! * When the FCFS group's mean exceeds `mean_thresh`, the management core
//!   **push-migrates** the highest-load actor to the host; when it falls
//!   below `(1−α)·mean_thresh` it **pulls** the lightest host actor back
//!   (ALG 1 lines 17–23). A DRR actor whose mailbox exceeds `Q_thresh` is
//!   also pushed (ALG 2 line 18).
//! * Cores **auto-scale** between the FCFS and DRR groups based on group
//!   utilization (§3.2.4).
//!
//! The scheduler is a state machine: the runtime (or a test) feeds it
//! arrivals and completions. ALG 1/2's decisions are one pure function,
//! [`decide`], over a [`Snapshot`] that borrows the scheduler's tables: each
//! completion updates the statistics, builds the snapshot and applies the
//! [`Decision`], the regroup first. The management core, the only one that
//! runs ALG 1's push and pull, is the first core that executes: core 1
//! under [`OffPathDispatch::IoKernel`], whose core 0 only dispatches.
//!
//! The scheduler owns every migration decision (one at a time, none within
//! [`MIGRATION_COOLDOWN`] of the last one's end) and holds the one
//! [`Migration`] in flight, parked requests included; the runtime carries
//! out each [`Action`], walking the migration through its phases.
#![deny(clippy::cast_possible_truncation)]

use crate::actor::{ActorId, Request};
use crate::bookkeep::{ActorStats, CoreUtil};
use crate::dmo::Side;
use crate::migrate::{Migration, MigrationDir};
use ipipe_nicsim::spec::NicSpec;
use ipipe_nicsim::traffic;
use ipipe_sim::audit::AuditReport;
use ipipe_sim::obs::{Counter, Gauge, HistHandle, Obs};
use ipipe_sim::{DenseMap, SimTime, TailEstimator};
use std::cmp::{Ordering, Reverse};
use std::collections::VecDeque;
use std::ops::ControlFlow;

/// Registry handles for every scheduler-owned metric. Resolved once at
/// construction; updating any of them on the hot path is a plain `Cell`
/// operation (see `sim::obs`). Metric names are listed in DESIGN.md.
struct SchedMetrics {
    arrivals: Counter,
    exec_fcfs: Counter,
    exec_drr: Counter,
    forwarded: Counter,
    buffered: Counter,
    dropped: Counter,
    mailbox_dispatch: Counter,
    regroup_to_drr: Counter,
    regroup_to_fcfs: Counter,
    migrate_push: Counter,
    migrate_pull: Counter,
    core_rebalance: Counter,
    fcfs_depth: Gauge,
    drr_backlog_gauge: Gauge,
    sojourn_fcfs: HistHandle,
    sojourn_drr: HistHandle,
}

impl SchedMetrics {
    fn new(obs: &Obs, node: u16) -> SchedMetrics {
        let r = obs.registry();
        SchedMetrics {
            arrivals: r.counter_on("sched.arrivals", node),
            exec_fcfs: r.counter_on("sched.exec.fcfs", node),
            exec_drr: r.counter_on("sched.exec.drr", node),
            forwarded: r.counter_on("sched.forwarded", node),
            buffered: r.counter_on("sched.buffered", node),
            dropped: r.counter_on("sched.dropped", node),
            mailbox_dispatch: r.counter_on("sched.dispatch.mailbox", node),
            regroup_to_drr: r.counter_on("sched.regroup.to_drr", node),
            regroup_to_fcfs: r.counter_on("sched.regroup.to_fcfs", node),
            migrate_push: r.counter_on("sched.migrate.push", node),
            migrate_pull: r.counter_on("sched.migrate.pull", node),
            core_rebalance: r.counter_on("sched.core.rebalance", node),
            fcfs_depth: r.gauge_on("sched.queue.fcfs", node),
            drr_backlog_gauge: r.gauge_on("sched.queue.drr_backlog", node),
            sojourn_fcfs: r.hist_on("sched.sojourn.fcfs", node),
            sojourn_drr: r.hist_on("sched.sojourn.drr", node),
        }
    }
}

/// How an off-path card (no hardware traffic manager) emulates the shared
/// queue (§3.2.6). On-path cards ignore this — their traffic manager is the
/// shared queue.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OffPathDispatch {
    /// An intermediate single-producer multi-consumer shuffle queue across
    /// the FCFS cores, with ZygOS-style stealing. Every dequeue pays a
    /// software synchronization cost that grows with core count.
    Shuffle,
    /// A dedicated kernel-bypass dispatcher core (the Shenango IOKernel
    /// approach): core 0 only distributes work — cheap dequeues for the
    /// rest, but one core of execution capacity is gone.
    IoKernel,
}

/// Scheduling discipline — `Hybrid` is iPipe; the other two are the Fig 16
/// baselines.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Discipline {
    /// The paper's hybrid FCFS + DRR scheduler.
    Hybrid,
    /// Pure FCFS: no downgrades, every request runs from the shared queue.
    FcfsOnly,
    /// Pure DRR: every actor lives in the runnable queue from the start.
    DrrOnly,
}

/// Scheduler configuration (§3.2.3: thresholds come from the
/// characterization study — the average and P99 latency of MTU-sized
/// forwarding at line rate).
#[derive(Debug, Clone, Copy)]
pub struct SchedConfig {
    /// `tail_thresh` of ALG 1.
    pub tail_thresh: SimTime,
    /// `mean_thresh` of ALG 1.
    pub mean_thresh: SimTime,
    /// Hysteresis factor α.
    pub alpha: f64,
    /// EWMA weight for all bookkeeping.
    pub ewma_alpha: f64,
    /// DRR mailbox-length migration trigger (ALG 2).
    pub q_thresh: usize,
    /// Utilization window for core auto-scaling.
    pub util_window: SimTime,
    /// Discipline selector.
    pub discipline: Discipline,
    /// Master switch for NIC↔host migration (off for Fig 16-style
    /// NIC-only scheduling experiments).
    pub migration: bool,
    /// Fixed fallback DRR quantum when an actor has no size estimate yet.
    pub default_quantum: SimTime,
    /// Override: use this fixed quantum for every actor instead of the
    /// adaptive per-request-size quantum (ablation knob).
    pub fixed_quantum: Option<SimTime>,
    /// Shared-queue emulation strategy for off-path cards (§3.2.6).
    pub offpath: OffPathDispatch,
}

impl SchedConfig {
    /// Thresholds derived from a card's characterization (§3.2.3): the mean
    /// and P99 sojourn of MTU forwarding at the line-rate operating point.
    pub fn for_nic(spec: &NicSpec) -> SchedConfig {
        SchedConfig {
            // §3.2.3: the thresholds are "the average and P99 tail latencies
            // experienced by traffic forwarded through the SmartNIC" at the
            // MTU line-rate operating point. The paper's Fig 5 puts those at
            // roughly 45 µs / 90 µs on the LiquidIOII (queueing-dominated at
            // saturation, so largely card-independent).
            tail_thresh: SimTime::from_us(90),
            mean_thresh: SimTime::from_us(45),
            alpha: 0.2,
            ewma_alpha: 0.05,
            q_thresh: 64,
            util_window: SimTime::from_us(200),
            discipline: Discipline::Hybrid,
            migration: true,
            default_quantum: traffic::compute_headroom(spec, 512).unwrap_or(SimTime::from_us(2)),
            fixed_quantum: None,
            offpath: OffPathDispatch::Shuffle,
        }
    }

    /// Use the IOKernel-style dedicated dispatcher on off-path cards.
    pub fn with_iokernel(mut self) -> SchedConfig {
        self.offpath = OffPathDispatch::IoKernel;
        self
    }

    /// Same thresholds with a different discipline.
    pub fn with_discipline(mut self, d: Discipline) -> SchedConfig {
        self.discipline = d;
        self
    }

    /// Disable migration (NIC-only scheduling experiments).
    pub fn no_migration(mut self) -> SchedConfig {
        self.migration = false;
        self
    }
}

/// Where an actor currently runs, from the NIC scheduler's point of view.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Loc {
    /// On the NIC, schedulable.
    Nic,
    /// Mid-migration: the scheduler parks its requests until the move
    /// finishes ([`NicScheduler::finish_migration`]) or aborts
    /// ([`NicScheduler::abort_migration`]).
    Migrating,
    /// On the host: requests are forwarded over the ring.
    Host,
}

impl From<Side> for Loc {
    fn from(side: Side) -> Loc {
        match side {
            Side::Nic => Loc::Nic,
            Side::Host => Loc::Host,
        }
    }
}

/// Minimum time between regroup decisions for the same actor (hysteresis on
/// top of the α deadband).
pub const REGROUP_COOLDOWN: SimTime = SimTime::from_ms(2);

/// Minimum time from the end of one migration to the next push or pull the
/// scheduler begins. A forced push does not wait for it.
pub const MIGRATION_COOLDOWN: SimTime = SimTime::from_ms(1);

/// Core group membership.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CoreMode {
    /// Pulls from the shared FCFS queue.
    Fcfs,
    /// Serves the DRR runnable queue.
    Drr,
}

/// Per-actor scheduling state.
#[derive(Debug)]
pub struct ActorSched {
    /// The DRR mailbox (§3.1): the actor's dispatched requests, oldest
    /// first. Its length feeds the `Q_thresh` push trigger (ALG 2).
    mailbox: VecDeque<Request>,
    /// Execution statistics (§3.2.3).
    stats: ActorStats,
    /// True when the actor has been downgraded to DRR service.
    is_drr: bool,
    /// Current location.
    loc: Loc,
    /// DRR deficit counter, nanoseconds.
    deficit: f64,
    /// Mean request size hint used for the quantum before stats warm up.
    size_hint: u32,
    /// Last FCFS<->DRR regroup, for hysteresis.
    last_regroup: SimTime,
    /// Never leaves the host (storage-touching actors): ALG 1 never pulls it.
    pinned: bool,
}

impl ActorSched {
    /// Requests waiting in the actor's DRR mailbox.
    pub fn mailbox_len(&self) -> usize {
        self.mailbox.len()
    }

    /// Execution statistics (§3.2.3).
    pub fn stats(&self) -> &ActorStats {
        &self.stats
    }
}

/// What a core should do next.
pub enum Work {
    /// Execute this request on the core.
    Exec(Request),
    /// Forward this request to the host over the ring (actor lives there).
    Forward(Request),
}

/// Migrations the scheduler began, for the runtime to carry out (never refuse).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Action {
    /// Push-migrate this actor to the host (§3.2.5).
    PushMigrate(ActorId),
    /// Pull this actor back from the host.
    PullMigrate(ActorId),
}

/// What ALG 1/2 read when `core` completes `actor`'s request at `now`,
/// borrowed from the scheduler: [`decide`]'s one input.
#[derive(Debug, Clone, Copy)]
pub struct Snapshot<'a> {
    pub now: SimTime,
    pub core: u32,
    pub actor: ActorId,
    /// The core that runs ALG 1's push and pull: the first that executes.
    pub management_core: u32,
    /// Thresholds, α, `Q_thresh`, discipline and the migration switch.
    pub cfg: &'a SchedConfig,
    /// The card's cores: a pulled actor's load must fit 0.3 of them.
    pub cores: u32,
    /// The FCFS group's `T_mean` and `T_tail`; `None` before it completes.
    pub fcfs: Option<(SimTime, SimTime)>,
    /// The FCFS group's last completion: idle for over 1 ms, its tail reads 0.
    pub fcfs_last: SimTime,
    /// A migration is in flight.
    pub in_flight: bool,
    /// No push or pull begins before this instant.
    pub cooldown_until: SimTime,
    /// Every registered actor's scheduling state.
    pub actors: &'a DenseMap<ActorSched>,
    /// The DRR runnable queue, in scan order.
    pub drr_runnable: &'a VecDeque<ActorId>,
}

/// What one completion changes: at most one regroup and one migration.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Decision {
    /// Move this actor to this group (a downgrade or upgrade), first.
    pub regroup: Option<(ActorId, CoreMode)>,
    /// The push or pull to begin.
    pub migrate: Option<Action>,
}

/// The NIC-side scheduler.
pub struct NicScheduler {
    cfg: SchedConfig,
    spec: NicSpec,
    /// Shared incoming queue (the hardware traffic manager's abstraction).
    fcfs_queue: VecDeque<Request>,
    /// DRR runnable queue (actor ids) and scan cursor.
    drr_runnable: VecDeque<ActorId>,
    /// Total queued requests across the runnable actors' mailboxes,
    /// maintained incrementally so the DRR idle check and the core
    /// rebalancer don't rescan every actor on the hot path.
    drr_backlog: usize,
    actors: DenseMap<ActorSched>,
    /// FCFS group sojourn statistics: the `T_mean` and `T_tail` of ALG 1.
    fcfs_group: TailEstimator,
    /// Core modes; core 0 always stays FCFS.
    modes: Vec<CoreMode>,
    util: Vec<CoreUtil>,
    /// Deferred actions for the runtime to drain.
    pending: Vec<Action>,
    /// Last time an FCFS-group operation completed (for idle decay).
    last_fcfs_obs: SimTime,
    /// The one migration in flight, if any.
    migration: Option<Migration>,
    /// No push or pull begins before this instant.
    cooldown_until: SimTime,
    metrics: SchedMetrics,
}

impl NicScheduler {
    /// Build for a card with `cfg`, publishing metrics into a private
    /// registry. Use [`NicScheduler::with_obs`] to share a registry with
    /// the rest of a simulation.
    pub fn new(spec: &NicSpec, cfg: SchedConfig) -> NicScheduler {
        NicScheduler::with_obs(spec, cfg, &Obs::disabled(), 0)
    }

    /// Build for a card with `cfg`, registering this scheduler's metrics
    /// under `node` in the shared observability registry.
    pub fn with_obs(spec: &NicSpec, cfg: SchedConfig, obs: &Obs, node: u16) -> NicScheduler {
        let cores = spec.cores as usize;
        // Pure-DRR baseline: every core serves the runnable queue (DRR cores
        // self-dispatch from the shared queue into mailboxes).
        let modes = if cfg.discipline == Discipline::DrrOnly {
            vec![CoreMode::Drr; cores]
        } else {
            vec![CoreMode::Fcfs; cores]
        };
        NicScheduler {
            cfg,
            spec: *spec,
            fcfs_queue: VecDeque::new(),
            drr_runnable: VecDeque::new(),
            drr_backlog: 0,
            actors: DenseMap::default(),
            fcfs_group: TailEstimator::new(cfg.ewma_alpha),
            modes,
            util: vec![CoreUtil::new(cfg.util_window, cfg.ewma_alpha); cores],
            pending: Vec::new(),
            last_fcfs_obs: SimTime::ZERO,
            migration: None,
            cooldown_until: SimTime::ZERO,
            metrics: SchedMetrics::new(obs, node),
        }
    }

    /// Register an actor for NIC-side scheduling.
    pub fn register(&mut self, actor: ActorId, size_hint: u32, loc: Loc) {
        let is_drr = self.cfg.discipline == Discipline::DrrOnly;
        if is_drr && loc == Loc::Nic {
            self.drr_runnable.push_back(actor);
        }
        self.actors.insert(
            actor,
            ActorSched {
                mailbox: VecDeque::new(),
                stats: ActorStats::new(self.cfg.ewma_alpha),
                is_drr,
                loc,
                deficit: 0.0,
                size_hint,
                last_regroup: SimTime::ZERO,
                pinned: false,
            },
        );
    }

    /// Keep `actor` on the host for good: ALG 1 never pulls it.
    pub fn pin(&mut self, actor: ActorId) {
        self.actors.get_mut(actor).expect("registered").pinned = true;
    }

    /// A host core ran `actor`'s request in `latency`: ALG 1's pull reads it.
    pub fn on_host_complete(&mut self, actor: ActorId, latency: SimTime) {
        if let Some(a) = self.actors.get_mut(actor) {
            a.stats.on_complete(latency);
        }
    }

    /// Deregister (DoS kill or teardown). Every request still queued for
    /// the actor — in its mailbox or in the shared queue — is discarded
    /// work and must be counted as dropped, or the arrivals conservation
    /// ledger ([`NicScheduler::audit_into`]) would report a leak. A moving
    /// actor's parked requests, already counted as buffered, go with it;
    /// its migration runs on empty.
    pub fn deregister(&mut self, actor: ActorId) {
        self.drr_runnable_remove(actor);
        if let Some(a) = self.actors.remove(actor) {
            self.metrics.dropped.add(a.mailbox.len() as u64);
        }
        if let Some(m) = self.migration.as_mut().filter(|m| m.actor == actor) {
            m.parked.clear();
        }
        let before = self.fcfs_queue.len();
        self.fcfs_queue.retain(|r| r.actor != actor);
        let dropped = before - self.fcfs_queue.len();
        self.metrics.dropped.add(dropped as u64);
        self.metrics.fcfs_depth.set(self.fcfs_queue.len() as i64);
    }

    /// Add `actor` to the DRR runnable queue, folding its queued mail into
    /// the backlog counter. The actor must be registered.
    fn drr_runnable_push(&mut self, actor: ActorId) {
        self.drr_backlog += self.actors[actor].mailbox.len();
        self.drr_runnable.push_back(actor);
    }

    /// Remove `actor` from the DRR runnable queue (if present), keeping the
    /// backlog counter in sync.
    fn drr_runnable_remove(&mut self, actor: ActorId) {
        let before = self.drr_runnable.len();
        self.drr_runnable.retain(|&x| x != actor);
        if self.drr_runnable.len() != before {
            self.drr_backlog -= self.actors.get(actor).map_or(0, |a| a.mailbox.len());
        }
    }

    /// Update an actor's location: a migration's mark, end or abort.
    fn set_location(&mut self, actor: ActorId, loc: Loc) {
        let Some(a) = self.actors.get_mut(actor) else {
            return;
        };
        a.loc = loc;
        if loc != Loc::Nic {
            a.is_drr = false;
            self.drr_runnable_remove(actor);
        } else if self.cfg.discipline == Discipline::DrrOnly || !a.mailbox.is_empty() {
            // Leaving the NIC took a DRR actor off DRR service, mail and
            // all, and may have reclaimed the last DRR core. Back before
            // phase 2 parked its mailbox (an early abort), it must be
            // DRR-served again: no other core reads a mailbox.
            a.is_drr = true;
            if !self.drr_runnable.contains(&actor) {
                self.drr_runnable_push(actor);
            }
            self.spawn_drr_core();
        }
    }

    /// Current location of an actor.
    #[inline]
    pub fn location(&self, actor: ActorId) -> Option<Loc> {
        self.actors.get(actor).map(|a| a.loc)
    }

    /// The migration in flight, if any.
    pub fn migration(&self) -> Option<&Migration> {
        self.migration.as_ref()
    }

    /// The migration in flight, for the runtime to advance its phases.
    pub(crate) fn migration_mut(&mut self) -> Option<&mut Migration> {
        self.migration.as_mut()
    }

    /// Begin a forced push of `actor` at `now`: no cooldown, and not
    /// counted. ALG 1's own push begins here once [`decide`] has checked the
    /// cooldown; every other caller skips it (DESIGN.md §7: Fig 18, the
    /// `rkv` scenario's scripted move, the retry after an abort, and the
    /// benchmark's `Rebalancer`). False, with nothing changed, when another
    /// migration is in flight or the actor is not on the NIC.
    pub fn force_push(&mut self, now: SimTime, actor: ActorId) -> bool {
        if self.migration.is_some() || self.location(actor) != Some(Loc::Nic) {
            return false;
        }
        self.migration = Some(Migration::start(actor, MigrationDir::Push, now));
        self.set_location(actor, Loc::Migrating);
        true
    }

    /// The migration in flight finished at `now`: its last phase ends, its
    /// actor lives at the destination and the cooldown starts. It is handed
    /// back with its parked requests, oldest first, for the runtime to
    /// forward to the actor's new side.
    pub fn finish_migration(&mut self, now: SimTime) -> Option<Migration> {
        let mut m = self.migration.take()?;
        m.complete_phase(now);
        self.cooldown_until = now + MIGRATION_COOLDOWN;
        self.set_location(m.actor, m.dir.dest().into());
        Some(m)
    }

    /// The migration in flight is off: its actor stays at the origin, with
    /// no cooldown, and its parked requests arrive again at `now`, oldest
    /// first, so the pause does not feed the sojourn statistics. Returns
    /// the actor.
    pub fn abort_migration(&mut self, now: SimTime) -> Option<ActorId> {
        let m = self.migration.take()?;
        self.set_location(m.actor, m.dir.origin().into());
        for mut req in m.parked {
            req.arrived = now;
            self.on_arrival(now, req);
        }
        Some(m.actor)
    }

    /// Whether the actor is currently DRR-served.
    #[inline]
    pub fn is_drr(&self, actor: ActorId) -> bool {
        self.actors.get(actor).map(|a| a.is_drr).unwrap_or(false)
    }

    /// Shared-queue depth (diagnostics).
    #[inline]
    pub fn fcfs_depth(&self) -> usize {
        self.fcfs_queue.len()
    }

    /// Total NIC-side backlog: the shared FCFS queue plus every DRR
    /// mailbox. The shared queue alone understates pressure — dispatcher
    /// and DRR cores drain it into mailboxes eagerly, so under overload the
    /// queue looks empty while mailboxes balloon. Admission control keys
    /// its pressure shedding on this figure.
    #[inline]
    pub fn backlog(&self) -> usize {
        self.fcfs_queue.len() + self.drr_backlog
    }

    /// A request arrived at the NIC ingress.
    pub fn on_arrival(&mut self, now: SimTime, req: Request) {
        if let Some(a) = self.actors.get_mut(req.actor) {
            a.stats.on_arrival(now, req.wire_size);
        }
        self.fcfs_queue.push_back(req);
        self.metrics.arrivals.inc();
        self.metrics.fcfs_depth.set(self.fcfs_queue.len() as i64);
    }

    /// Number of cores currently in each mode: (fcfs, drr).
    pub fn core_split(&self) -> (u32, u32) {
        let drr = self.modes.iter().filter(|&&m| m == CoreMode::Drr).count();
        let drr = u32::try_from(drr).expect("one mode per core, and `spec.cores` is a u32");
        (self.spec.cores - drr, drr)
    }

    /// DRR quantum for an actor: the maximum tolerated forwarding latency
    /// for the actor's average request size (§3.2.2).
    fn quantum(&self, actor: &ActorSched) -> f64 {
        if let Some(q) = self.cfg.fixed_quantum {
            return q.as_ns() as f64;
        }
        let size = if actor.stats.observed() {
            actor.stats.mean_request_size()
        } else {
            actor.size_hint
        };
        traffic::compute_headroom(&self.spec, size.clamp(64, 1500))
            .unwrap_or(self.cfg.default_quantum)
            .as_ns() as f64
    }

    /// Per-dequeue synchronization overhead for this card under the
    /// configured off-path strategy (§3.2.6). The IOKernel dispatcher makes
    /// dequeues nearly as cheap as a hardware traffic manager at the price
    /// of a dedicated core.
    pub fn dispatch_overhead(&self) -> SimTime {
        use ipipe_nicsim::spec::NicKind;
        match (self.spec.kind, self.cfg.offpath) {
            (NicKind::OnPath, _) => SimTime::from_ns(18),
            (NicKind::OffPath, OffPathDispatch::Shuffle) => {
                traffic::dequeue_sync_cost(&self.spec, self.spec.cores)
            }
            (NicKind::OffPath, OffPathDispatch::IoKernel) => SimTime::from_ns(25),
        }
    }

    /// True when `core` is the IOKernel dispatcher (and so never executes).
    pub fn is_dispatcher(&self, core: u32) -> bool {
        core == 0
            && self.spec.kind == ipipe_nicsim::spec::NicKind::OffPath
            && self.cfg.offpath == OffPathDispatch::IoKernel
    }

    /// Ask for the next work item for `core`. The runtime charges
    /// [`NicScheduler::dispatch_overhead`] per queue operation separately.
    pub fn next_for_core(&mut self, _now: SimTime, core: u32) -> Option<Work> {
        if self.is_dispatcher(core) {
            // The dispatcher distributes DRR-bound requests into mailboxes
            // but never runs actor code itself; FCFS cores drop unknown
            // actors' requests.
            self.dispatch_to_mailboxes(false);
            return None;
        }
        // Parking a request for a migrating actor gives the core no work:
        // dispatch starts over from the top, mailbox dispatch included.
        loop {
            let pass = match self.modes[core as usize] {
                CoreMode::Fcfs => self.next_fcfs(),
                CoreMode::Drr => self.next_drr(),
            };
            if let ControlFlow::Break(work) = pass {
                return work;
            }
        }
    }

    /// Move the shared queue's leading requests for DRR actors on the NIC
    /// into their mailboxes, up to the first request for any other actor. A
    /// request for an unknown (killed) actor also stops the run, unless
    /// `drop_unknown`: then it is dropped and counted, as `next_fcfs` does.
    fn dispatch_to_mailboxes(&mut self, drop_unknown: bool) {
        while let Some(actor) = self.fcfs_queue.front().map(|r| r.actor) {
            match self.actors.get_mut(actor) {
                Some(a) if a.is_drr && a.loc == Loc::Nic => {
                    a.mailbox
                        .push_back(self.fcfs_queue.pop_front().expect("checked front"));
                    self.drr_backlog += 1;
                    self.metrics.mailbox_dispatch.inc();
                }
                None if drop_unknown => {
                    self.fcfs_queue.pop_front();
                    self.metrics.dropped.inc();
                }
                _ => break,
            }
        }
    }

    /// Serve the shared queue. `Continue` means a request was parked for a
    /// migrating actor and dispatch must start over.
    fn next_fcfs(&mut self) -> ControlFlow<Option<Work>> {
        while let Some(req) = self.fcfs_queue.pop_front() {
            let Some(a) = self.actors.get_mut(req.actor) else {
                // Unknown actor (killed): drop the request.
                self.metrics.dropped.inc();
                continue;
            };
            match a.loc {
                Loc::Host => {
                    self.metrics.forwarded.inc();
                    return ControlFlow::Break(Some(Work::Forward(req)));
                }
                Loc::Migrating => {
                    let m = self.migration.as_mut().expect("a Migrating actor moves");
                    m.parked.push(req);
                    self.metrics.buffered.inc();
                    return ControlFlow::Continue(());
                }
                Loc::Nic => {
                    if a.is_drr {
                        a.mailbox.push_back(req);
                        self.drr_backlog += 1;
                        self.metrics.mailbox_dispatch.inc();
                        continue;
                    }
                    self.metrics.exec_fcfs.inc();
                    return ControlFlow::Break(Some(Work::Exec(req)));
                }
            }
        }
        ControlFlow::Break(None)
    }

    fn next_drr(&mut self) -> ControlFlow<Option<Work>> {
        // DRR cores also relieve the shared queue: leading requests bound
        // for DRR actors are dispatched into their mailboxes (the shuffle
        // layer of §3.2.6). Requests for FCFS actors stay for FCFS cores.
        self.dispatch_to_mailboxes(true);
        // A DRR core spins through round-robin sweeps (ALG 2's outer while
        // loop): each sweep adds every runnable actor's quantum; the first
        // actor whose deficit covers its estimated latency is served. With
        // all mailboxes empty (a zero backlog) the core goes idle.
        if self.drr_backlog == 0 {
            // ALG 2 line 16 for everyone: empty mailboxes zero the deficit.
            for &id in &self.drr_runnable {
                if let Some(a) = self.actors.get_mut(id) {
                    a.deficit = 0.0;
                }
            }
            // Work conservation (ZygOS-style stealing, §3.2.6): an idle DRR
            // core serves the shared FCFS queue rather than spinning.
            return self.next_fcfs();
        }
        for _sweep in 0..100_000 {
            if let Some(w) = self.drr_sweep() {
                return ControlFlow::Break(Some(w));
            }
        }
        ControlFlow::Break(None)
    }

    /// One round-robin sweep over the runnable queue.
    fn drr_sweep(&mut self) -> Option<Work> {
        for _ in 0..self.drr_runnable.len() {
            let actor_id = *self.drr_runnable.front().expect("non-empty loop");
            self.drr_runnable.rotate_left(1);
            let a = &self.actors[actor_id];
            let quantum = (!a.mailbox.is_empty()).then(|| self.quantum(a));
            let a = self.actors.get_mut(actor_id).expect("registered");
            match quantum {
                None => {
                    a.deficit = 0.0; // ALG 2 line 16
                }
                Some(q) => {
                    a.deficit += q;
                    // ALG 2 line 6: the gate is the actor's *execution*
                    // latency estimate, not its sojourn.
                    let est = a.stats.exec_latency().as_ns().max(1) as f64;
                    if a.deficit >= est {
                        a.deficit -= est;
                        let req = a.mailbox.pop_front().expect("checked non-empty");
                        self.drr_backlog -= 1;
                        self.metrics.exec_drr.inc();
                        return Some(Work::Exec(req));
                    }
                }
            }
        }
        None
    }

    /// Record a completed execution and evaluate the scheduling conditions.
    /// `core` ran `actor`'s request; `sojourn` includes queueing; `busy` is
    /// the core-occupancy of the execution. Drain
    /// [`Self::take_actions_into`] afterwards.
    pub fn on_complete(
        &mut self,
        now: SimTime,
        core: u32,
        actor: ActorId,
        sojourn: SimTime,
        busy: SimTime,
    ) {
        self.util[core as usize].on_busy(now, busy);
        let was_drr = self.actors.get_mut(actor).is_some_and(|a| {
            a.stats.on_complete_busy(sojourn, busy);
            a.is_drr
        });
        // Group stats track operations served by the FCFS cores.
        if !was_drr {
            self.fcfs_group.observe(sojourn);
            self.last_fcfs_obs = now;
            self.metrics.sojourn_fcfs.record(sojourn);
        } else {
            self.metrics.sojourn_drr.record(sojourn);
        }
        self.metrics.drr_backlog_gauge.set(self.drr_backlog as i64);

        self.apply(now, decide(&self.snapshot(now, core, actor)));
        if self.cfg.discipline == Discipline::Hybrid {
            self.rebalance_cores(now);
        }
    }

    /// What ALG 1/2 read when `core` has just completed `actor`'s request.
    pub fn snapshot(&self, now: SimTime, core: u32, actor: ActorId) -> Snapshot<'_> {
        let g = &self.fcfs_group;
        Snapshot {
            now,
            cfg: &self.cfg,
            cores: self.spec.cores,
            core,
            management_core: u32::from(self.is_dispatcher(0)),
            actor,
            fcfs: g.observed().then(|| (g.mean(), g.tail())),
            fcfs_last: self.last_fcfs_obs,
            in_flight: self.migration.is_some(),
            cooldown_until: self.cooldown_until,
            actors: &self.actors,
            drr_runnable: &self.drr_runnable,
        }
    }

    /// Carry out [`decide`]'s result: the regroup, then the push or pull,
    /// queued for the runtime (a pull victim turns `Migrating` when taken).
    fn apply(&mut self, now: SimTime, d: Decision) {
        if let Some((id, group)) = d.regroup {
            let a = self.actors.get_mut(id).expect("registered");
            a.is_drr = group == CoreMode::Drr;
            a.last_regroup = now;
            if a.is_drr {
                a.deficit = 0.0;
                self.drr_runnable_push(id);
                self.metrics.regroup_to_drr.inc();
            } else {
                self.drr_runnable_remove(id);
                self.metrics.regroup_to_fcfs.inc();
            }
        }
        match d.migrate {
            Some(Action::PushMigrate(actor)) => {
                self.metrics.migrate_push.inc();
                let begun = self.force_push(now, actor);
                debug_assert!(begun, "decide pushes only an actor on the NIC");
            }
            Some(Action::PullMigrate(actor)) => {
                self.metrics.migrate_pull.inc();
                self.migration = Some(Migration::start(actor, MigrationDir::Pull, now));
            }
            None => return,
        }
        self.pending.extend(d.migrate);
    }

    /// Spawn the first DRR core when an actor enters the runnable queue;
    /// true if one was spawned.
    fn spawn_drr_core(&mut self) -> bool {
        let (fcfs_n, drr_n) = self.core_split();
        if self.drr_runnable.is_empty() || drr_n > 0 || fcfs_n <= 1 {
            return false;
        }
        let core = self.modes.len() - 1;
        self.modes[core] = CoreMode::Drr;
        self.metrics.core_rebalance.inc();
        true
    }

    /// §3.2.4 core auto-scaling between the groups.
    fn rebalance_cores(&mut self, now: SimTime) {
        if self.spawn_drr_core() {
            return;
        }
        let needs_drr = !self.drr_runnable.is_empty();
        let (fcfs_n, drr_n) = self.core_split();
        // Reclaim DRR cores once the runnable queue empties.
        if !needs_drr && drr_n > 0 {
            if let Some(core) = self.modes.iter().rposition(|&m| m == CoreMode::Drr) {
                self.modes[core] = CoreMode::Fcfs;
                self.metrics.core_rebalance.inc();
            }
            return;
        }
        if !needs_drr || drr_n == 0 {
            return;
        }

        // Grow DRR when it is saturated and FCFS has headroom. Utilization
        // EWMAs converge slowly, so DRR mailbox backlog acts as an immediate
        // pressure signal.
        let drr_util = self.group_util(now, CoreMode::Drr);
        let fcfs_util = self.group_util(now, CoreMode::Fcfs);
        let drr_pressed = drr_util >= 0.95 || self.drr_backlog > 4 * drr_n as usize;
        if drr_pressed && fcfs_n > 1 && fcfs_util < (fcfs_n as f64 - 1.0) / fcfs_n as f64 {
            if let Some(core) = self.modes.iter().rposition(|&m| m == CoreMode::Fcfs) {
                if core != 0 {
                    self.modes[core] = CoreMode::Drr;
                    self.metrics.core_rebalance.inc();
                }
            }
        } else if fcfs_util >= 0.95 && drr_n > 1 && drr_util < (drr_n as f64 - 1.0) / drr_n as f64 {
            if let Some(core) = self.modes.iter().rposition(|&m| m == CoreMode::Drr) {
                self.modes[core] = CoreMode::Fcfs;
                self.metrics.core_rebalance.inc();
            }
        }
    }

    fn group_util(&mut self, now: SimTime, mode: CoreMode) -> f64 {
        let (mut sum, mut n) = (0.0, 0u32);
        for (&m, u) in self.modes.iter().zip(&mut self.util) {
            if m == mode {
                sum += u.utilization(now);
                n += 1;
            }
        }
        sum / f64::from(n.max(1))
    }

    /// Drain pending actions for the runtime into a caller-owned buffer
    /// (cleared first), so per-completion polling reuses one allocation.
    ///
    /// A pull victim is marked `Migrating` here, not when ALG 1 chose it:
    /// messages the completing handler sends it still reach it on the host.
    pub fn take_actions_into(&mut self, out: &mut Vec<Action>) {
        out.clear();
        out.append(&mut self.pending);
        for &action in out.iter() {
            if let Action::PullMigrate(id) = action {
                self.set_location(id, Loc::Migrating);
            }
        }
    }

    /// Per-actor scheduling state (read-only).
    pub fn actor(&self, id: ActorId) -> Option<&ActorSched> {
        self.actors.get(id)
    }

    /// Migration phase 2: park the moving actor's mailbox ahead of the
    /// requests parked since phase 1, and return how many moved. They are
    /// credited to the `buffered` counter: a raw mailbox drain would make
    /// them vanish from the arrivals ledger without ever being counted as
    /// consumed.
    ///
    /// The actor left the DRR runnable queue when it was marked
    /// `Migrating`, so its mail is no longer part of `drr_backlog`.
    pub fn park_mailbox(&mut self) -> usize {
        let Some(m) = self.migration.as_mut() else {
            return 0;
        };
        let Some(a) = self.actors.get_mut(m.actor) else {
            return 0;
        };
        let moved = a.mailbox.len();
        m.parked.splice(0..0, a.mailbox.drain(..));
        self.metrics.buffered.add(moved as u64);
        moved
    }

    /// Scheduler-sanity invariants, folded into a cluster-wide audit pass.
    ///
    /// * **arrivals ledger** — every request handed to `on_arrival` is
    ///   either still queued (shared queue or a mailbox) or was consumed
    ///   exactly once (executed, forwarded, parked for migration, or
    ///   dropped with the drop counter bumped).
    /// * **DRR backlog** — the incremental `drr_backlog` counter equals the
    ///   sum of runnable mailbox lengths.
    /// * **runnable membership** — `drr_runnable` holds exactly the actors
    ///   with `is_drr` on the NIC, without duplicates.
    /// * **deficit bounds** — DRR deficits are non-negative and bounded by
    ///   a generous multiple of the actor's estimate + quantum (the EWMA
    ///   estimate can shrink after deficit accrued, so the bound is loose).
    /// * **mailbox service** — a non-empty mailbox belongs to a DRR actor on
    ///   the NIC or to a `Migrating` one. Reported only on violation, so a
    ///   clean audit's check count does not move.
    pub fn audit_into(&self, r: &mut AuditReport, node: u16) {
        let m = &self.metrics;
        let queued_fcfs = self.fcfs_queue.len() as u64;
        let queued_mail: u64 = self.actors.values().map(|a| a.mailbox.len() as u64).sum();
        let consumed = m.exec_fcfs.get()
            + m.exec_drr.get()
            + m.forwarded.get()
            + m.buffered.get()
            + m.dropped.get();
        r.check(
            "sched.arrivals",
            node,
            m.arrivals.get() == consumed + queued_fcfs + queued_mail,
            || {
                format!(
                    "arrivals {} != consumed {} + fcfs_queue {} + mailboxes {}",
                    m.arrivals.get(),
                    consumed,
                    queued_fcfs,
                    queued_mail
                )
            },
        );

        let runnable_mail: usize = self
            .drr_runnable
            .iter()
            .map(|&id| self.actors.get(id).map(|a| a.mailbox.len()).unwrap_or(0))
            .sum();
        r.check(
            "sched.drr_backlog",
            node,
            self.drr_backlog == runnable_mail,
            || {
                format!(
                    "drr_backlog {} != sum of runnable mailboxes {}",
                    self.drr_backlog, runnable_mail
                )
            },
        );

        let mut runnable: Vec<ActorId> = self.drr_runnable.iter().copied().collect();
        runnable.sort_unstable();
        for w in runnable.windows(2) {
            if w[0] == w[1] {
                r.violation(
                    "sched.runnable.dup",
                    node,
                    format!("actor {} appears twice in drr_runnable", w[0]),
                );
            }
        }
        for &id in &runnable {
            let ok = self
                .actors
                .get(id)
                .map(|a| a.is_drr && a.loc == Loc::Nic)
                .unwrap_or(false);
            r.check("sched.runnable.membership", node, ok, || {
                format!("runnable actor {id} is not a DRR actor on the NIC")
            });
        }
        let mut ids: Vec<ActorId> = self.actors.iter().map(|(id, _)| id).collect();
        ids.sort_unstable();
        for id in ids {
            let a = &self.actors[id];
            let served = (a.is_drr && a.loc == Loc::Nic) || a.loc == Loc::Migrating;
            if !a.mailbox.is_empty() && !served {
                let detail = format!(
                    "actor {id} ({:?}, drr {}) has {} requests in a mailbox no core reads",
                    a.loc,
                    a.is_drr,
                    a.mailbox.len()
                );
                r.violation("sched.mailbox", node, detail);
            }
            if a.is_drr && a.loc == Loc::Nic {
                r.check(
                    "sched.runnable.membership",
                    node,
                    self.drr_runnable.contains(&id),
                    || format!("DRR actor {id} missing from drr_runnable"),
                );
            }
            if a.is_drr {
                let quantum = self.quantum(a);
                let est = a.stats.exec_latency().as_ns().max(1) as f64;
                r.check(
                    "sched.drr.deficit",
                    node,
                    a.deficit >= 0.0 && a.deficit <= 64.0 * (est + quantum),
                    || {
                        format!(
                            "actor {} deficit {} outside [0, 64*({} + {})]",
                            id, a.deficit, est, quantum
                        )
                    },
                );
            }
        }
    }
}

/// ALG 1/2 at one completion, computed from the state before any of it is
/// applied: no regroup changes what ALG 1 reads, and a DRR actor is
/// upgraded only with an empty mailbox, which the `Q_thresh` test rejects.
pub fn decide(s: &Snapshot) -> Decision {
    let cfg = s.cfg;
    let hybrid = cfg.discipline == Discipline::Hybrid;
    // One migration in flight at a time keeps the mechanism stable and
    // matches the dedicated-management-core design (§3.2.2).
    let open = cfg.migration && !s.in_flight && s.now >= s.cooldown_until;
    let managing = open && s.core == s.management_core;
    let alg1 = managing.then(|| alg1(s)).flatten();
    // ALG 2 line 18: a DRR actor with an overlong mailbox is pushed.
    let overlong = |a: &ActorSched| a.is_drr && a.loc == Loc::Nic && a.mailbox.len() > cfg.q_thresh;
    let q_push = open && s.actors.get(s.actor).is_some_and(overlong);
    Decision {
        regroup: hybrid.then(|| regroup(s)).flatten(),
        migrate: alg1.or(q_push.then_some(Action::PushMigrate(s.actor))),
    }
}

/// ALG 1 lines 13–16 and ALG 2 lines 10–12, on the FCFS group's tail.
fn regroup(s: &Snapshot) -> Option<(ActorId, CoreMode)> {
    let (cfg, (_, tail)) = (s.cfg, s.fcfs?);
    let cooled = |a: &ActorSched| s.now.saturating_sub(a.last_regroup) > REGROUP_COOLDOWN;
    // When the FCFS cores have been idle for a while (everything went
    // DRR), the stale tail estimate must not pin actors in DRR forever:
    // treat the tail as decayed so upgrades can proceed.
    let fcfs_idle = s.now.saturating_sub(s.fcfs_last) > SimTime::from_ms(1);
    let tail = if fcfs_idle { SimTime::ZERO } else { tail };
    // Both branches test the cheap per-actor predicates first and pay
    // for the median scan only once some candidate has passed them: this
    // runs on every completion and almost never finds one.
    if tail > cfg.tail_thresh {
        // Downgrade the FCFS actor with the highest dispersion — but
        // only when that actor genuinely stands out. When every actor
        // looks alike (a homogeneous overload), moving one to DRR cannot
        // reduce the tail and merely fragments the core pool.
        let mut candidates = s
            .actors
            .iter()
            .filter(|(_, a)| {
                a.loc == Loc::Nic
                    && !a.is_drr
                    && a.stats.observed()
                    && a.stats.dispersion() > cfg.mean_thresh
                    && cooled(a)
            })
            .peekable();
        candidates.peek()?;
        let median = median_dispersion(s.actors);
        // Equal dispersions tie-break on the id, not on map order.
        candidates
            .filter(|(_, a)| a.stats.dispersion().as_ns() > 3 * median)
            .max_by_key(|&(id, a)| (a.stats.dispersion(), Reverse(id)))
            .map(|(id, _)| (id, CoreMode::Drr))
    } else if (tail.as_ns() as f64) < (1.0 - cfg.alpha) * cfg.tail_thresh.as_ns() as f64 {
        // Upgrade the DRR actor with the lowest dispersion — but never
        // one that still disperses far beyond its peers (it would drag
        // the FCFS tail right back up), and respect the hysteresis
        // cooldown. Ties go to the first in scan order. With nothing in
        // DRR there is nothing to scan.
        let mut candidates = s
            .drr_runnable
            .iter()
            .copied()
            .filter(|&id| {
                let a = &s.actors[id];
                // The downgrade's `observed()` gate too: a never-executed
                // actor's dispersion is 0, the calmest on noise alone.
                a.stats.observed() && a.mailbox.is_empty() && cooled(a)
            })
            .peekable();
        candidates.peek()?;
        let median = median_dispersion(s.actors);
        candidates
            .filter(|&id| s.actors[id].stats.dispersion().as_ns() <= 3 * median)
            .min_by_key(|&id| s.actors[id].stats.dispersion())
            .map(|id| (id, CoreMode::Fcfs))
    } else {
        None
    }
}

/// Median dispersion (ns, at least 1) over the observed actors on the
/// NIC: what "stands out from its peers" is measured against.
fn median_dispersion(actors: &DenseMap<ActorSched>) -> u64 {
    let mut dispersions: Vec<u64> = actors
        .values()
        .filter(|a| a.loc == Loc::Nic && a.stats.observed())
        .map(|a| a.stats.dispersion().as_ns())
        .collect();
    dispersions.sort_unstable();
    let lower_median = dispersions.get(dispersions.len().saturating_sub(1) / 2);
    lower_median.map_or(1, |&m| m.max(1))
}

/// ALG 1 lines 17–23 on the FCFS group's mean: the management core's push
/// or pull.
fn alg1(s: &Snapshot) -> Option<Action> {
    let (mean, _) = s.fcfs?;
    let loads = |keep: fn(&ActorSched) -> bool| {
        s.actors
            .iter()
            .filter(move |(_, a)| keep(a))
            .map(|(id, a)| (id, a.stats.load()))
    };
    if mean > s.cfg.mean_thresh {
        // Push the actor contributing the most load. Both victim scans
        // break equal loads on the lower id, not on map order.
        let victim =
            loads(|a| a.loc == Loc::Nic && a.stats.observed()).max_by(|(x_id, x), (y_id, y)| {
                let by_load = x.partial_cmp(y).unwrap_or(Ordering::Equal);
                by_load.then(y_id.cmp(x_id))
            });
        victim.map(|(id, _)| Action::PushMigrate(id))
    } else if (mean.as_ns() as f64) < (1.0 - s.cfg.alpha) * s.cfg.mean_thresh.as_ns() as f64 {
        // Pull the lightest unpinned host actor back, and only if its
        // load fits the NIC's headroom (ALG 1: "if there is sufficient
        // CPU headroom"): otherwise the pull would re-trigger a push.
        let victim = loads(|a| a.loc == Loc::Host && !a.pinned).min_by(|(x_id, x), (y_id, y)| {
            let by_load = x.partial_cmp(y).unwrap_or(Ordering::Equal);
            by_load.then(x_id.cmp(y_id))
        });
        victim
            .filter(|&(_, load)| load <= 0.3 * f64::from(s.cores))
            .map(|(id, _)| Action::PullMigrate(id))
    } else {
        None
    }
}

#[cfg(test)]
mod reference;

#[cfg(test)]
mod tests {
    use super::*;
    use ipipe_nicsim::{CN2350, STINGRAY_PS225};

    impl NicScheduler {
        fn take_actions(&mut self) -> Vec<Action> {
            let mut out = Vec::new();
            self.take_actions_into(&mut out);
            out
        }

        /// Decide and apply at `now` as `core`'s completion of `actor`'s
        /// request would, leaving the statistics as they are.
        fn decide_at(&mut self, now: SimTime, core: u32, actor: ActorId) {
            let d = decide(&self.snapshot(now, core, actor));
            self.apply(now, d);
        }

        /// Put `actor`, whose mailbox is empty, in DRR service.
        fn make_drr(&mut self, actor: ActorId) {
            self.actors.get_mut(actor).unwrap().is_drr = true;
            self.drr_runnable.push_back(actor);
        }
    }

    fn req(actor: ActorId, token: u64) -> Request {
        Request {
            actor,
            flow: token,
            wire_size: 512,
            arrived: SimTime::ZERO,
            reply_to: None,
            token,
            payload: None,
        }
    }

    fn cfg() -> SchedConfig {
        SchedConfig {
            tail_thresh: SimTime::from_us(80),
            mean_thresh: SimTime::from_us(50),
            alpha: 0.2,
            ewma_alpha: 0.2,
            q_thresh: 8,
            util_window: SimTime::from_us(100),
            discipline: Discipline::Hybrid,
            migration: true,
            default_quantum: SimTime::from_us(3),
            fixed_quantum: None,
            offpath: OffPathDispatch::Shuffle,
        }
    }

    fn sched() -> NicScheduler {
        let mut s = NicScheduler::new(&CN2350, cfg());
        s.register(1, 512, Loc::Nic);
        s.register(2, 512, Loc::Nic);
        s
    }

    /// The scheduler's audit, as node 0.
    fn audit(s: &NicScheduler) -> AuditReport {
        let mut r = AuditReport::new(SimTime::ZERO);
        s.audit_into(&mut r, 0);
        r
    }

    /// Tokens of the migration's parked requests, in order.
    fn parked_tokens(s: &NicScheduler) -> Vec<u64> {
        let m = s.migration().expect("a migration in flight");
        m.parked.iter().map(|r| r.token).collect()
    }

    #[test]
    fn fcfs_serves_in_arrival_order() {
        let mut s = sched();
        s.on_arrival(SimTime::ZERO, req(1, 10));
        s.on_arrival(SimTime::ZERO, req(2, 11));
        match s.next_for_core(SimTime::ZERO, 0) {
            Some(Work::Exec(r)) => assert_eq!(r.token, 10),
            _ => panic!("expected exec"),
        }
        match s.next_for_core(SimTime::ZERO, 1) {
            Some(Work::Exec(r)) => assert_eq!(r.token, 11),
            _ => panic!("expected exec"),
        }
        assert!(s.next_for_core(SimTime::ZERO, 2).is_none());
    }

    #[test]
    fn host_actor_requests_are_forwarded() {
        let mut s = sched();
        s.set_location(1, Loc::Host);
        s.on_arrival(SimTime::ZERO, req(1, 5));
        match s.next_for_core(SimTime::ZERO, 0) {
            Some(Work::Forward(r)) => assert_eq!(r.token, 5),
            _ => panic!("expected forward"),
        }
    }

    #[test]
    fn migrating_actor_requests_are_buffered() {
        let obs = Obs::disabled();
        let mut s = NicScheduler::with_obs(&CN2350, cfg(), &obs, 0);
        s.register(1, 512, Loc::Nic);
        s.register(2, 512, Loc::Nic);
        assert!(s.force_push(SimTime::ZERO, 2));
        for token in [3, 4, 5] {
            s.on_arrival(SimTime::ZERO, req(2, token));
        }
        s.on_arrival(SimTime::ZERO, req(1, 6));
        // The migrating actor's requests are parked on the way to actor 1's.
        let exec = |w: Option<Work>| match w {
            Some(Work::Exec(r)) => (r.token, r.arrived),
            _ => panic!("expected exec"),
        };
        assert_eq!(exec(s.next_for_core(SimTime::ZERO, 0)).0, 6);
        assert_eq!(parked_tokens(&s), [3, 4, 5]);
        assert_eq!(obs.registry().counter_on("sched.buffered", 0).get(), 3);

        // Giving up the move re-arrives them, oldest first, stamped `now`.
        let now = SimTime::from_us(7);
        assert_eq!(s.abort_migration(now), Some(2));
        assert_eq!(s.location(2), Some(Loc::Nic));
        assert!(s.migration().is_none());
        for token in [3, 4, 5] {
            assert_eq!(exec(s.next_for_core(now, 0)), (token, now));
        }
        audit(&s).assert_clean();
    }

    /// Phase 2 puts the mailbox ahead of the requests parked since the
    /// mark, and the finish hands them over in that order.
    #[test]
    fn parked_requests_keep_mailbox_then_arrival_order() {
        let mut s = sched();
        s.make_drr(2);
        // Core 0 gets no work: each request goes to the mailbox, or is
        // parked once the actor moves.
        let arrive = |s: &mut NicScheduler, tokens: &[u64]| {
            for &token in tokens {
                s.on_arrival(SimTime::ZERO, req(2, token));
                assert!(s.next_for_core(SimTime::ZERO, 0).is_none());
            }
        };
        arrive(&mut s, &[0, 1, 2]);
        assert!(s.force_push(SimTime::ZERO, 2));
        arrive(&mut s, &[3, 4]);
        assert_eq!(parked_tokens(&s), [3, 4]);
        assert_eq!(s.park_mailbox(), 3);
        arrive(&mut s, &[5]);
        assert_eq!(parked_tokens(&s), [0, 1, 2, 3, 4, 5]);
        let m = s.finish_migration(SimTime::from_ms(1)).unwrap();
        let handed: Vec<u64> = m.parked.iter().map(|r| r.token).collect();
        assert_eq!(handed, [0, 1, 2, 3, 4, 5]);
        assert_eq!(s.location(2), Some(Loc::Host));
        audit(&s).assert_clean();
    }

    /// Parking gives the core nothing to run, so dispatch starts over from
    /// the top: a DRR core dispatches the shared queue into mailboxes again
    /// and then serves its runnable queue, as a fresh call would.
    #[test]
    fn a_drr_core_redispatches_after_parking() {
        let mut s = sched();
        s.make_drr(2);
        s.modes[11] = CoreMode::Drr;
        assert!(s.force_push(SimTime::ZERO, 1));
        s.on_arrival(SimTime::ZERO, req(1, 1));
        s.on_arrival(SimTime::ZERO, req(2, 2));
        match s.next_for_core(SimTime::ZERO, 11) {
            Some(Work::Exec(r)) => assert_eq!(r.token, 2),
            _ => panic!("expected actor 2's request from its mailbox"),
        }
        assert_eq!(parked_tokens(&s), [1]);
    }

    #[test]
    fn high_tail_downgrades_highest_dispersion_actor() {
        let mut s = sched();
        // Actor 1: stable 10us. Actor 2: wildly dispersed.
        for i in 0..300 {
            s.on_complete(
                SimTime::from_us(i * 10),
                1,
                1,
                SimTime::from_us(10),
                SimTime::from_us(5),
            );
            let lat = if i % 2 == 0 { 5 } else { 300 };
            s.on_complete(
                SimTime::from_us(i * 10 + 5),
                1,
                2,
                SimTime::from_us(lat),
                SimTime::from_us(5),
            );
        }
        assert!(s.is_drr(2), "dispersed actor should be DRR");
        assert!(!s.is_drr(1), "stable actor should stay FCFS");
        // A DRR core was spawned.
        let (_, drr) = s.core_split();
        assert!(drr >= 1);
    }

    #[test]
    fn drr_requests_flow_through_mailbox() {
        let mut s = sched();
        // Force actor 2 into DRR.
        s.make_drr(2);
        s.modes[11] = CoreMode::Drr;
        s.on_arrival(SimTime::ZERO, req(2, 1));
        s.on_arrival(SimTime::ZERO, req(2, 2));
        // FCFS core dispatches into the mailbox, finds nothing runnable.
        assert!(s.next_for_core(SimTime::ZERO, 0).is_none());
        assert_eq!(s.actor(2).unwrap().mailbox.len(), 2);
        // DRR core accumulates deficit and eventually serves both in order.
        let mut served = Vec::new();
        for _ in 0..100 {
            if let Some(Work::Exec(r)) = s.next_for_core(SimTime::ZERO, 11) {
                served.push(r.token);
                if served.len() == 2 {
                    break;
                }
            }
        }
        assert_eq!(served, vec![1, 2]);
    }

    #[test]
    fn low_tail_upgrades_back() {
        let mut s = sched();
        s.make_drr(2);
        // Feed uniformly low sojourns: tail falls below (1-a)*thresh. The
        // run must outlast the regroup cooldown. Actor 2 executes too (the
        // upgrade path only considers actors with observed stats).
        for i in 0..500 {
            s.on_complete(
                SimTime::from_us(i * 10),
                1,
                1,
                SimTime::from_us(8),
                SimTime::from_us(4),
            );
            s.on_complete(
                SimTime::from_us(i * 10 + 5),
                1,
                2,
                SimTime::from_us(8),
                SimTime::from_us(4),
            );
        }
        assert!(
            !s.is_drr(2),
            "calm system should upgrade actor back to FCFS"
        );
    }

    #[test]
    fn never_observed_actor_is_not_upgraded() {
        // Regression: the upgrade path used to skip the `observed()` gate,
        // so an actor that had never executed (dispersion 0) was always the
        // calmest-looking candidate and got upgraded on noise.
        let mut s = sched();
        s.make_drr(2);
        for i in 0..500 {
            s.on_complete(
                SimTime::from_us(i * 10),
                1,
                1,
                SimTime::from_us(8),
                SimTime::from_us(4),
            );
        }
        assert!(
            s.is_drr(2),
            "an actor with no observed executions must not be upgraded"
        );
    }

    #[test]
    fn management_core_pushes_highest_load_actor() {
        let mut s = sched();
        // Saturate: sojourn means far above mean_thresh; actor 2 is heavy.
        for i in 0..200 {
            s.on_complete(
                SimTime::from_us(i * 30),
                0,
                2,
                SimTime::from_us(200),
                SimTime::from_us(25),
            );
            s.on_complete(
                SimTime::from_us(i * 30 + 10),
                0,
                1,
                SimTime::from_us(60),
                SimTime::from_us(2),
            );
        }
        let actions = s.take_actions();
        assert!(
            actions.iter().any(|a| matches!(a, Action::PushMigrate(2))),
            "expected actor 2 push, got {actions:?}"
        );
        assert_eq!(s.location(2), Some(Loc::Migrating));
    }

    /// Two actors with identical statistics tie in both victim scans. The
    /// lower id must win whichever was registered first and wherever the
    /// table happens to put them (the pairs cover both bucket orders).
    #[test]
    fn tied_victims_are_chosen_by_id_not_by_table_order() {
        for (lo, hi) in [(10, 11), (11, 12), (3, 40), (7, 900), (64, 128), (5, 6)] {
            for tied in [[lo, hi], [hi, lo]] {
                let mut s = NicScheduler::new(&CN2350, cfg());
                // Two calm peers hold the median dispersion down.
                for id in [tied[0], 1, 2, tied[1]] {
                    s.register(id, 512, Loc::Nic);
                }
                for i in 0..50 {
                    let at = SimTime::from_us(i * 10);
                    for id in [1, 2] {
                        let stats = &mut s.actors.get_mut(id).unwrap().stats;
                        stats.on_complete_busy(SimTime::from_us(10), SimTime::from_us(5));
                    }
                    let lat = SimTime::from_us(if i % 2 == 0 { 5 } else { 300 });
                    for id in tied {
                        let stats = &mut s.actors.get_mut(id).unwrap().stats;
                        stats.on_arrival(at, 512);
                        stats.on_complete_busy(lat, SimTime::from_us(25));
                    }
                    s.fcfs_group.observe(SimTime::from_us(300));
                }
                let now = SimTime::from_ms(10);
                s.last_fcfs_obs = now;
                let d = decide(&s.snapshot(now, 0, 1));
                assert_eq!(d.regroup, Some((lo, CoreMode::Drr)), "tied {tied:?}");
                s.apply(now, d);
                assert_eq!(s.take_actions(), [Action::PushMigrate(lo)], "tied {tied:?}");

                // The pull scan: both back on the host, equally light, with
                // the FCFS mean well under the threshold.
                let mut s = NicScheduler::new(&CN2350, cfg());
                for id in tied {
                    s.register(id, 512, Loc::Host);
                }
                s.fcfs_group.observe(SimTime::from_us(5));
                s.decide_at(SimTime::ZERO, 0, lo);
                assert_eq!(s.take_actions(), [Action::PullMigrate(lo)], "tied {tied:?}");
            }
        }
    }

    #[test]
    fn non_management_core_never_migrates() {
        let mut s = sched();
        for i in 0..200 {
            s.on_complete(
                SimTime::from_us(i * 30),
                3, // not core 0
                2,
                SimTime::from_us(500),
                SimTime::from_us(25),
            );
        }
        let actions = s.take_actions();
        assert!(!actions.iter().any(|a| matches!(a, Action::PushMigrate(_))));
    }

    /// Regression: ALG 1 ran only on core 0's completions, and under the
    /// IOKernel dispatcher core 0 never executes, so nothing was pushed.
    /// The same overload drive pushes the heavy actor with either off-path
    /// dispatch.
    #[test]
    fn alg1_pushes_under_either_offpath_dispatch() {
        let shuffle = SchedConfig::for_nic(&STINGRAY_PS225);
        for cfg in [shuffle, shuffle.with_iokernel()] {
            let mut s = NicScheduler::new(&STINGRAY_PS225, cfg);
            s.register(1, 512, Loc::Nic);
            s.register(2, 512, Loc::Nic);
            let mut pushed = Vec::new();
            for i in 0..200 {
                let now = SimTime::from_us(i * 30);
                s.on_arrival(now, req(2, 2 * i));
                s.on_arrival(now, req(1, 2 * i + 1));
                for core in 0..STINGRAY_PS225.cores {
                    if let Some(Work::Exec(r)) = s.next_for_core(now, core) {
                        let sojourn = SimTime::from_us(if r.actor == 2 { 400 } else { 100 });
                        s.on_complete(now, core, r.actor, sojourn, SimTime::from_us(20));
                    }
                }
                pushed.extend(s.take_actions());
            }
            assert_eq!(
                pushed.first(),
                Some(&Action::PushMigrate(2)),
                "{:?}",
                cfg.offpath
            );
        }
    }

    #[test]
    fn idle_system_pulls_host_actor_back() {
        let mut s = sched();
        s.set_location(2, Loc::Host);
        for i in 0..200 {
            s.on_complete(
                SimTime::from_us(i * 50),
                0,
                1,
                SimTime::from_us(5),
                SimTime::from_us(2),
            );
        }
        assert_eq!(s.take_actions(), [Action::PullMigrate(2)]);
        assert_eq!(s.location(2), Some(Loc::Migrating));
    }

    /// ALG 1's gate: the pin, the headroom bound on a pull and the cooldown
    /// after a finished migration.
    #[test]
    fn pulls_respect_pin_and_headroom_and_pushes_wait_out_the_cooldown() {
        let calm = |s: &mut NicScheduler| {
            for _ in 0..50 {
                s.fcfs_group.observe(SimTime::from_us(5));
            }
        };
        // A pinned host actor is never pulled.
        let mut s = sched();
        s.set_location(2, Loc::Host);
        s.pin(2);
        calm(&mut s);
        s.decide_at(SimTime::ZERO, 0, 1);
        assert!(s.take_actions().is_empty());
        assert_eq!(s.location(2), Some(Loc::Host));

        // Nor one heavier than 0.3 × cores: a request every 10 µs that
        // takes 500 µs is 50 cores' worth on a 12-core card.
        let mut s = sched();
        s.set_location(2, Loc::Host);
        let stats = &mut s.actors.get_mut(2).unwrap().stats;
        for i in 0..50 {
            stats.on_arrival(SimTime::from_us(10 * i), 512);
            stats.on_complete_busy(SimTime::from_us(500), SimTime::from_us(500));
        }
        assert!(stats.load() > 0.3 * CN2350.cores as f64);
        calm(&mut s);
        s.decide_at(SimTime::ZERO, 0, 1);
        assert!(s.take_actions().is_empty());

        // No push within the cooldown after a migration finished; then one.
        let mut s = sched();
        assert!(s.force_push(SimTime::ZERO, 1));
        let end = SimTime::from_ms(3);
        assert!(s.finish_migration(end).unwrap().parked.is_empty());
        for _ in 0..50 {
            s.fcfs_group.observe(SimTime::from_us(100));
        }
        let ready = end + MIGRATION_COOLDOWN;
        let (sojourn, busy) = (SimTime::from_us(100), SimTime::from_us(5));
        s.on_complete(
            ready.saturating_sub(SimTime::from_ns(1)),
            0,
            2,
            sojourn,
            busy,
        );
        assert!(s.take_actions().is_empty());
        assert_eq!(s.location(2), Some(Loc::Nic));
        s.on_complete(ready, 0, 2, sojourn, busy);
        assert_eq!(s.take_actions(), [Action::PushMigrate(2)]);
        assert_eq!(s.migration().map(|m| m.actor), Some(2));
    }

    #[test]
    fn drr_mailbox_overflow_triggers_migration() {
        let mut s = sched();
        s.make_drr(2);
        for t in 0..20 {
            s.on_arrival(SimTime::ZERO, req(2, t));
            let _ = s.next_for_core(SimTime::ZERO, 0); // dispatch into mailbox
        }
        assert!(s.actor(2).unwrap().mailbox.len() > 8);
        // Not while another migration is in flight: it stays DRR-served.
        assert!(s.force_push(SimTime::ZERO, 1));
        let (sojourn, busy) = (SimTime::from_us(10), SimTime::from_us(5));
        s.on_complete(SimTime::from_us(10), 1, 2, sojourn, busy);
        assert!(s.take_actions().is_empty() && s.is_drr(2));
        // An abort starts no cooldown.
        assert_eq!(s.abort_migration(SimTime::from_us(15)), Some(1));
        s.on_complete(SimTime::from_us(20), 1, 2, sojourn, busy);
        assert_eq!(s.take_actions(), [Action::PushMigrate(2)]);
    }

    #[test]
    fn fcfs_only_discipline_never_downgrades() {
        let mut s = NicScheduler::new(
            &CN2350,
            cfg().with_discipline(Discipline::FcfsOnly).no_migration(),
        );
        s.register(1, 512, Loc::Nic);
        for i in 0..300 {
            let lat = if i % 2 == 0 { 5 } else { 400 };
            s.on_complete(
                SimTime::from_us(i * 10),
                1,
                1,
                SimTime::from_us(lat),
                SimTime::from_us(5),
            );
        }
        assert!(!s.is_drr(1));
        assert!(s.take_actions().is_empty());
    }

    #[test]
    fn drr_only_discipline_starts_in_drr() {
        let mut s = NicScheduler::new(
            &CN2350,
            cfg().with_discipline(Discipline::DrrOnly).no_migration(),
        );
        s.register(1, 512, Loc::Nic);
        assert!(s.is_drr(1));
    }

    #[test]
    fn deregister_removes_everything() {
        let mut s = sched();
        s.on_arrival(SimTime::ZERO, req(1, 1));
        s.deregister(1);
        assert!(s.next_for_core(SimTime::ZERO, 0).is_none());
        assert_eq!(s.location(1), None);
    }

    #[test]
    fn drr_backlog_counter_tracks_runnable_mailboxes() {
        let mut s = sched();
        s.make_drr(2);
        for t in 0..6 {
            s.on_arrival(SimTime::ZERO, req(2, t));
        }
        let _ = s.next_for_core(SimTime::ZERO, 0); // dispatch into mailbox
        let sum: usize = s
            .drr_runnable
            .iter()
            .map(|&id| s.actors[id].mailbox.len())
            .sum();
        assert_eq!(s.drr_backlog, sum);
        assert_eq!(s.drr_backlog, 6);
        // Serving decrements; leaving the runnable queue zeroes the share.
        s.modes[11] = CoreMode::Drr;
        while !matches!(s.next_for_core(SimTime::ZERO, 11), Some(Work::Exec(_))) {}
        assert_eq!(s.drr_backlog, 5);
        s.set_location(2, Loc::Host);
        assert_eq!(s.drr_backlog, 0);
    }

    #[test]
    fn arrivals_ledger_balances_through_deregister_and_drain() {
        // Regression: `deregister` used to discard queued requests without
        // touching the drop counter, and migration used to drain mailboxes
        // behind the scheduler's back — both leaked from the arrivals
        // ledger that `audit_into` now enforces.
        let obs = Obs::disabled();
        let mut s = NicScheduler::with_obs(&CN2350, cfg(), &obs, 0);
        s.register(1, 512, Loc::Nic);
        s.register(2, 512, Loc::Nic);
        let arrivals = obs.registry().counter_on("sched.arrivals", 0);
        let dropped = obs.registry().counter_on("sched.dropped", 0);
        let buffered = obs.registry().counter_on("sched.buffered", 0);

        // Queue actor 2's (DRR) mail first, then actor 1's FCFS mail.
        s.make_drr(2);
        for t in 0..4 {
            s.on_arrival(SimTime::ZERO, req(2, 100 + t));
        }
        for t in 0..4 {
            s.on_arrival(SimTime::ZERO, req(1, t));
        }
        // One FCFS dequeue dispatches all leading DRR-bound mail into the
        // mailbox and executes actor 1's first request.
        assert!(matches!(
            s.next_for_core(SimTime::ZERO, 0),
            Some(Work::Exec(_))
        ));
        assert_eq!(arrivals.get(), 8);
        assert_eq!(s.actor(2).unwrap().mailbox.len(), 4);

        // Kill actor 1: its three still-queued requests must land in
        // `dropped`.
        s.deregister(1);
        assert_eq!(dropped.get(), 3);

        // Migrate actor 2: parking the mailbox must credit `buffered`.
        assert!(s.force_push(SimTime::ZERO, 2));
        assert_eq!(s.park_mailbox(), 4);
        assert_eq!(parked_tokens(&s), [100, 101, 102, 103]);
        assert_eq!(buffered.get(), 4);
        audit(&s).assert_clean();

        // Killing the moving actor takes its parked requests with it; the
        // migration runs on, empty.
        s.deregister(2);
        assert!(parked_tokens(&s).is_empty());
        audit(&s).assert_clean();
    }

    #[test]
    fn drr_core_counts_a_request_for_an_unknown_actor_as_dropped() {
        // Regression: a DRR core's shuffle loop popped a request for an
        // unregistered (killed) actor and dropped it uncounted, leaving the
        // arrivals ledger one short.
        let obs = Obs::disabled();
        let cfg = cfg().with_discipline(Discipline::DrrOnly).no_migration();
        let mut s = NicScheduler::with_obs(&CN2350, cfg, &obs, 0);
        s.on_arrival(SimTime::ZERO, req(9, 1));
        assert!(s.next_for_core(SimTime::ZERO, 0).is_none());
        assert_eq!(obs.registry().counter_on("sched.dropped", 0).get(), 1);
        audit(&s).assert_clean();
    }

    /// Regression: marking a DRR actor `Migrating` takes it off the runnable
    /// queue with its mail. When the move was aborted before phase 2, the
    /// way back to the NIC used to restore only the location: the actor
    /// came back FCFS-served and its mailbox was stranded.
    #[test]
    fn a_drr_actor_given_back_to_the_nic_keeps_its_mailbox_served() {
        let mut s = sched();
        s.make_drr(2);
        for token in 0..3 {
            s.on_arrival(SimTime::ZERO, req(2, token));
        }
        assert!(
            s.next_for_core(SimTime::ZERO, 0).is_none(),
            "mail dispatched"
        );
        assert!(s.force_push(SimTime::ZERO, 2));
        assert_eq!(s.abort_migration(SimTime::ZERO), Some(2));
        s.modes[11] = CoreMode::Drr;
        let mut served = Vec::new();
        while let Some(Work::Exec(r)) = s.next_for_core(SimTime::ZERO, 11) {
            served.push(r.token);
        }
        assert_eq!(served, [0, 1, 2], "the mailbox was stranded");
        assert!(s.is_drr(2));
        audit(&s).assert_clean();
    }

    #[test]
    fn audit_catches_a_stranded_mailbox() {
        let mut s = sched();
        s.make_drr(2);
        s.on_arrival(SimTime::ZERO, req(2, 1));
        let _ = s.next_for_core(SimTime::ZERO, 0); // mail into mailbox

        // What an early abort used to leave behind.
        s.drr_runnable_remove(2);
        s.actors.get_mut(2).unwrap().is_drr = false;
        let r = audit(&s);
        let names: Vec<&str> = r.violations().iter().map(|v| v.invariant).collect();
        assert_eq!(names, ["sched.mailbox"]);
    }

    #[test]
    fn audit_catches_backlog_drift() {
        let mut s = sched();
        s.make_drr(2);
        s.on_arrival(SimTime::ZERO, req(2, 1));
        let _ = s.next_for_core(SimTime::ZERO, 0); // mail into mailbox
        s.drr_backlog += 1; // inject drift
        let r = audit(&s);
        assert!(r
            .violations()
            .iter()
            .any(|v| v.invariant == "sched.drr_backlog"));
    }

    #[test]
    fn config_for_nic_produces_sane_thresholds() {
        let cfg = SchedConfig::for_nic(&CN2350);
        assert!(cfg.tail_thresh > cfg.mean_thresh);
        assert!(cfg.mean_thresh > SimTime::from_us(10));
        assert!(cfg.tail_thresh < SimTime::from_ms(10));
        assert!(cfg.default_quantum > SimTime::ZERO);
    }
}

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
//! The scheduler is a pure state machine: the runtime (or a test) feeds it
//! arrivals and completions and executes the [`Action`]s it returns.

use crate::actor::{ActorId, Mailbox, Request};
use crate::bookkeep::{ActorStats, CoreUtil, GroupStats};
use ipipe_nicsim::spec::NicSpec;
use ipipe_nicsim::traffic;
use ipipe_sim::audit::AuditReport;
use ipipe_sim::obs::{Counter, Gauge, HistHandle, Obs};
use ipipe_sim::{IdMap, SimTime};
use std::cmp::{Ordering, Reverse};
use std::collections::VecDeque;

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
    /// Mid-migration: requests must be buffered by the runtime.
    Migrating,
    /// On the host: requests are forwarded over the ring.
    Host,
}

/// Minimum time between regroup decisions for the same actor (hysteresis on
/// top of the α deadband).
pub const REGROUP_COOLDOWN: SimTime = SimTime::from_ms(2);

/// Core group membership.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CoreMode {
    /// Pulls from the shared FCFS queue.
    Fcfs,
    /// Serves the DRR runnable queue.
    Drr,
}

/// Per-actor scheduling state.
pub struct ActorSched {
    /// DRR mailbox.
    pub mailbox: Mailbox,
    /// Execution statistics (§3.2.3).
    pub stats: ActorStats,
    /// True when the actor has been downgraded to DRR service.
    pub is_drr: bool,
    /// Current location.
    pub loc: Loc,
    /// DRR deficit counter, nanoseconds.
    pub deficit: f64,
    /// Mean request size hint used for the quantum before stats warm up.
    pub size_hint: u32,
    /// Last FCFS<->DRR regroup, for hysteresis.
    pub last_regroup: SimTime,
}

/// What a core should do next.
pub enum Work {
    /// Execute this request on the core.
    Exec(Request),
    /// Forward this request to the host over the ring (actor lives there).
    Forward(Request),
    /// Hand this request to the runtime's migration buffer.
    Buffer(Request),
}

/// Side effects the runtime must carry out after a completion.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Action {
    /// Begin push-migration of this actor to the host (§3.2.5).
    PushMigrate(ActorId),
    /// Pull the lightest actor back from the host; the runtime chooses the
    /// victim from host-side stats.
    PullMigrate,
    /// A core switched groups (informational; the scheduler already updated
    /// its own mode table).
    CoreRebalanced {
        /// The core that moved.
        core: u32,
        /// Its new mode.
        to: CoreMode,
    },
    /// An actor moved between service groups (informational).
    Regrouped {
        /// The actor.
        actor: ActorId,
        /// True if it is now DRR-served.
        to_drr: bool,
    },
}

/// The NIC-side scheduler.
pub struct NicScheduler {
    cfg: SchedConfig,
    spec: &'static NicSpec,
    /// Shared incoming queue (the hardware traffic manager's abstraction).
    fcfs_queue: VecDeque<Request>,
    /// DRR runnable queue (actor ids) and scan cursor.
    drr_runnable: VecDeque<ActorId>,
    /// Total queued requests across the runnable actors' mailboxes,
    /// maintained incrementally so the DRR idle check and the core
    /// rebalancer don't rescan every actor on the hot path.
    drr_backlog: usize,
    actors: IdMap<ActorId, ActorSched>,
    /// FCFS group latency statistics.
    fcfs_group: GroupStats,
    /// Core modes; core 0 is the management core and always FCFS.
    modes: Vec<CoreMode>,
    util: Vec<CoreUtil>,
    /// Deferred actions for the runtime to drain.
    pending: Vec<Action>,
    migrations_started: u64,
    /// Last time an FCFS-group operation completed (for idle decay).
    last_fcfs_obs: SimTime,
    metrics: SchedMetrics,
}

impl NicScheduler {
    /// Build for a card with `cfg`, publishing metrics into a private
    /// registry. Use [`NicScheduler::with_obs`] to share a registry with
    /// the rest of a simulation.
    pub fn new(spec: &'static NicSpec, cfg: SchedConfig) -> NicScheduler {
        NicScheduler::with_obs(spec, cfg, &Obs::disabled(), 0)
    }

    /// Build for a card with `cfg`, registering this scheduler's metrics
    /// under `node` in the shared observability registry.
    pub fn with_obs(
        spec: &'static NicSpec,
        cfg: SchedConfig,
        obs: &Obs,
        node: u16,
    ) -> NicScheduler {
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
            spec,
            fcfs_queue: VecDeque::new(),
            drr_runnable: VecDeque::new(),
            drr_backlog: 0,
            actors: IdMap::default(),
            fcfs_group: GroupStats::new(cfg.ewma_alpha),
            modes,
            util: vec![CoreUtil::new(cfg.util_window, cfg.ewma_alpha); cores],
            pending: Vec::new(),
            migrations_started: 0,
            last_fcfs_obs: SimTime::ZERO,
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
                mailbox: Mailbox::new(),
                stats: ActorStats::new(self.cfg.ewma_alpha),
                is_drr,
                loc,
                deficit: 0.0,
                size_hint,
                last_regroup: SimTime::ZERO,
            },
        );
    }

    /// Deregister (DoS kill or teardown). Every request still queued for
    /// the actor — in its mailbox or in the shared queue — is discarded
    /// work and must be counted as dropped, or the arrivals conservation
    /// ledger ([`NicScheduler::audit_into`]) would report a leak.
    pub fn deregister(&mut self, actor: ActorId) {
        self.drr_runnable_remove(actor);
        if let Some(a) = self.actors.remove(&actor) {
            self.metrics.dropped.add(a.mailbox.len() as u64);
        }
        let before = self.fcfs_queue.len();
        self.fcfs_queue.retain(|r| r.actor != actor);
        self.metrics
            .dropped
            .add((before - self.fcfs_queue.len()) as u64);
        self.metrics.fcfs_depth.set(self.fcfs_queue.len() as i64);
    }

    /// Add `actor` to the DRR runnable queue, folding its queued mail into
    /// the backlog counter. The actor must be registered.
    fn drr_runnable_push(&mut self, actor: ActorId) {
        self.drr_backlog += self.actors[&actor].mailbox.len();
        self.drr_runnable.push_back(actor);
    }

    /// Remove `actor` from the DRR runnable queue (if present), keeping the
    /// backlog counter in sync.
    fn drr_runnable_remove(&mut self, actor: ActorId) {
        let before = self.drr_runnable.len();
        self.drr_runnable.retain(|&x| x != actor);
        if self.drr_runnable.len() != before {
            let queued = self
                .actors
                .get(&actor)
                .map(|a| a.mailbox.len())
                .unwrap_or(0);
            self.drr_backlog -= queued;
        }
    }

    /// Update an actor's location (migration completion).
    pub fn set_location(&mut self, actor: ActorId, loc: Loc) {
        let Some(a) = self.actors.get_mut(&actor) else {
            return;
        };
        a.loc = loc;
        if loc != Loc::Nic {
            a.is_drr = false;
            self.drr_runnable_remove(actor);
        } else if self.cfg.discipline == Discipline::DrrOnly {
            a.is_drr = true;
            if !self.drr_runnable.contains(&actor) {
                self.drr_runnable_push(actor);
            }
        }
    }

    /// Current location of an actor.
    #[inline]
    pub fn location(&self, actor: ActorId) -> Option<Loc> {
        self.actors.get(&actor).map(|a| a.loc)
    }

    /// Whether the actor is currently DRR-served.
    #[inline]
    pub fn is_drr(&self, actor: ActorId) -> bool {
        self.actors.get(&actor).map(|a| a.is_drr).unwrap_or(false)
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
        if let Some(a) = self.actors.get_mut(&req.actor) {
            a.stats.on_arrival(now, req.wire_size);
        }
        self.fcfs_queue.push_back(req);
        self.metrics.arrivals.inc();
        self.metrics.fcfs_depth.set(self.fcfs_queue.len() as i64);
    }

    /// Number of cores currently in each mode: (fcfs, drr).
    pub fn core_split(&self) -> (u32, u32) {
        let drr = self.modes.iter().filter(|&&m| m == CoreMode::Drr).count() as u32;
        (self.modes.len() as u32 - drr, drr)
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
        traffic::compute_headroom(self.spec, size.clamp(64, 1500))
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
                traffic::dequeue_sync_cost(self.spec, self.spec.cores)
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
        match self.modes[core as usize] {
            CoreMode::Fcfs => self.next_fcfs(),
            CoreMode::Drr => self.next_drr(),
        }
    }

    /// Move the shared queue's leading requests for DRR actors on the NIC
    /// into their mailboxes, up to the first request for any other actor. A
    /// request for an unknown (killed) actor also stops the run, unless
    /// `drop_unknown`: then it is dropped and counted, as `next_fcfs` does.
    fn dispatch_to_mailboxes(&mut self, drop_unknown: bool) {
        while let Some(actor) = self.fcfs_queue.front().map(|r| r.actor) {
            match self.actors.get_mut(&actor) {
                Some(a) if a.is_drr && a.loc == Loc::Nic => {
                    a.mailbox
                        .push(self.fcfs_queue.pop_front().expect("checked front"));
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

    fn next_fcfs(&mut self) -> Option<Work> {
        while let Some(req) = self.fcfs_queue.pop_front() {
            let Some(a) = self.actors.get_mut(&req.actor) else {
                // Unknown actor (killed): drop the request.
                self.metrics.dropped.inc();
                continue;
            };
            match a.loc {
                Loc::Host => {
                    self.metrics.forwarded.inc();
                    return Some(Work::Forward(req));
                }
                Loc::Migrating => {
                    self.metrics.buffered.inc();
                    return Some(Work::Buffer(req));
                }
                Loc::Nic => {
                    if a.is_drr {
                        a.mailbox.push(req);
                        self.drr_backlog += 1;
                        self.metrics.mailbox_dispatch.inc();
                        continue;
                    }
                    self.metrics.exec_fcfs.inc();
                    return Some(Work::Exec(req));
                }
            }
        }
        None
    }

    fn next_drr(&mut self) -> Option<Work> {
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
            for i in 0..self.drr_runnable.len() {
                let id = self.drr_runnable[i];
                if let Some(a) = self.actors.get_mut(&id) {
                    a.deficit = 0.0;
                }
            }
            // Work conservation (ZygOS-style stealing, §3.2.6): an idle DRR
            // core serves the shared FCFS queue rather than spinning.
            return self.next_fcfs();
        }
        for _sweep in 0..100_000 {
            if let Some(w) = self.drr_sweep() {
                return Some(w);
            }
        }
        None
    }

    /// One round-robin sweep over the runnable queue.
    fn drr_sweep(&mut self) -> Option<Work> {
        for _ in 0..self.drr_runnable.len() {
            let actor_id = *self.drr_runnable.front().expect("non-empty loop");
            self.drr_runnable.rotate_left(1);
            let quantum = {
                let a = &self.actors[&actor_id];
                if a.mailbox.is_empty() {
                    None
                } else {
                    Some(self.quantum(a))
                }
            };
            let a = self.actors.get_mut(&actor_id).expect("registered");
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
                        let req = a.mailbox.pop().expect("checked non-empty");
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
    /// the core-occupancy of the execution. Drain [`Self::take_actions`]
    /// afterwards.
    pub fn on_complete(
        &mut self,
        now: SimTime,
        core: u32,
        actor: ActorId,
        sojourn: SimTime,
        busy: SimTime,
    ) {
        self.util[core as usize].on_busy(now, busy);
        let was_drr = self.is_drr(actor);
        if let Some(a) = self.actors.get_mut(&actor) {
            a.stats.on_complete_busy(sojourn, busy);
        }
        // Group stats track operations served by the FCFS cores.
        if !was_drr {
            self.fcfs_group.observe(sojourn);
            self.last_fcfs_obs = now;
            self.metrics.sojourn_fcfs.record(sojourn);
        } else {
            self.metrics.sojourn_drr.record(sojourn);
        }
        self.metrics.drr_backlog_gauge.set(self.drr_backlog as i64);

        if self.cfg.discipline == Discipline::Hybrid {
            self.evaluate_regrouping(now);
        }
        if core == 0 && self.cfg.migration {
            self.evaluate_migration();
        }
        if was_drr {
            self.evaluate_drr_qthresh(actor);
        }
        if self.cfg.discipline == Discipline::Hybrid {
            self.rebalance_cores(now);
        }
    }

    /// ALG 1 lines 13–16 and ALG 2 lines 10–12.
    fn evaluate_regrouping(&mut self, now: SimTime) {
        if !self.fcfs_group.observed() {
            return;
        }
        // When the FCFS cores have been idle for a while (everything went
        // DRR), the stale tail estimate must not pin actors in DRR forever:
        // treat the tail as decayed so upgrades can proceed.
        let fcfs_idle = now.saturating_sub(self.last_fcfs_obs) > SimTime::from_ms(1);
        let tail = if fcfs_idle {
            SimTime::ZERO
        } else {
            self.fcfs_group.tail()
        };
        // Both branches test the cheap per-actor predicates first and pay
        // for the median scan only once some candidate has passed them: this
        // runs on every completion and almost never finds one.
        if tail > self.cfg.tail_thresh {
            // Downgrade the FCFS actor with the highest dispersion — but
            // only when that actor genuinely stands out. When every actor
            // looks alike (a homogeneous overload), moving one to DRR cannot
            // reduce the tail and merely fragments the core pool.
            let mut candidates = self
                .actors
                .iter()
                .filter(|(_, a)| {
                    a.loc == Loc::Nic
                        && !a.is_drr
                        && a.stats.observed()
                        && a.stats.dispersion() > self.cfg.mean_thresh
                        && now.saturating_sub(a.last_regroup) > REGROUP_COOLDOWN
                })
                .peekable();
            if candidates.peek().is_none() {
                return;
            }
            let median = self.median_dispersion();
            // Equal dispersions tie-break on the id, not on map order.
            let victim = candidates
                .filter(|(_, a)| a.stats.dispersion().as_ns() > 3 * median)
                .max_by_key(|(&id, a)| (a.stats.dispersion(), Reverse(id)))
                .map(|(&id, _)| id);
            if let Some(id) = victim {
                let a = self.actors.get_mut(&id).expect("exists");
                a.is_drr = true;
                a.deficit = 0.0;
                a.last_regroup = now;
                self.drr_runnable_push(id);
                self.metrics.regroup_to_drr.inc();
                self.pending.push(Action::Regrouped {
                    actor: id,
                    to_drr: true,
                });
            }
        } else if (tail.as_ns() as f64)
            < (1.0 - self.cfg.alpha) * self.cfg.tail_thresh.as_ns() as f64
        {
            // Upgrade the DRR actor with the lowest dispersion — but never
            // one that still disperses far beyond its peers (it would drag
            // the FCFS tail right back up), and respect the hysteresis
            // cooldown. With nothing in DRR there is nothing to scan.
            let mut candidates = self
                .drr_runnable
                .iter()
                .filter(|id| {
                    let a = &self.actors[id];
                    // Mirror the downgrade filter's `observed()` gate: a
                    // never-executed actor has dispersion 0 and would always
                    // look like the calmest candidate, getting upgraded on
                    // pure noise before a single request has run.
                    a.stats.observed()
                        && a.mailbox.is_empty()
                        && now.saturating_sub(a.last_regroup) > REGROUP_COOLDOWN
                })
                .peekable();
            if candidates.peek().is_none() {
                return;
            }
            let median = self.median_dispersion();
            let victim = candidates
                .filter(|id| self.actors[id].stats.dispersion().as_ns() <= 3 * median)
                .min_by_key(|id| self.actors[id].stats.dispersion())
                .copied();
            if let Some(id) = victim {
                let a = self.actors.get_mut(&id).expect("exists");
                a.is_drr = false;
                a.last_regroup = now;
                self.drr_runnable_remove(id);
                self.metrics.regroup_to_fcfs.inc();
                self.pending.push(Action::Regrouped {
                    actor: id,
                    to_drr: false,
                });
            }
        }
    }

    /// Median dispersion (ns, at least 1) over the observed actors on the
    /// NIC: what "stands out from its peers" is measured against.
    fn median_dispersion(&self) -> u64 {
        let mut dispersions: Vec<u64> = self
            .actors
            .values()
            .filter(|a| a.loc == Loc::Nic && a.stats.observed())
            .map(|a| a.stats.dispersion().as_ns())
            .collect();
        dispersions.sort_unstable();
        dispersions
            .get(dispersions.len().saturating_sub(1) / 2)
            .copied()
            .unwrap_or(0)
            .max(1)
    }

    /// ALG 1 lines 17–23: push/pull migration from the management core.
    fn evaluate_migration(&mut self) {
        if !self.fcfs_group.observed() {
            return;
        }
        // One migration in flight at a time keeps the mechanism stable and
        // matches the dedicated-management-core design (§3.2.2).
        if self.actors.values().any(|a| a.loc == Loc::Migrating) {
            return;
        }
        let mean = self.fcfs_group.mean();
        if mean > self.cfg.mean_thresh {
            // Push the actor contributing the most load.
            let victim = self
                .actors
                .iter()
                .filter(|(_, a)| a.loc == Loc::Nic && a.stats.observed())
                .max_by(|(x_id, x), (y_id, y)| {
                    // Equal loads tie-break on the id, not on map order.
                    let by_load = x.stats.load().partial_cmp(&y.stats.load());
                    by_load.unwrap_or(Ordering::Equal).then(y_id.cmp(x_id))
                })
                .map(|(&id, _)| id);
            if let Some(id) = victim {
                let a = self.actors.get_mut(&id).expect("exists");
                a.loc = Loc::Migrating;
                a.is_drr = false;
                self.drr_runnable_remove(id);
                self.migrations_started += 1;
                self.metrics.migrate_push.inc();
                self.pending.push(Action::PushMigrate(id));
            }
        } else if (mean.as_ns() as f64)
            < (1.0 - self.cfg.alpha) * self.cfg.mean_thresh.as_ns() as f64
        {
            // Pull the lightest host actor back if any exists.
            if self.actors.values().any(|a| a.loc == Loc::Host) {
                self.metrics.migrate_pull.inc();
                self.pending.push(Action::PullMigrate);
            }
        }
    }

    /// ALG 2 line 18: a DRR actor with an overlong mailbox is pushed.
    fn evaluate_drr_qthresh(&mut self, actor: ActorId) {
        if !self.cfg.migration {
            return;
        }
        let Some(a) = self.actors.get_mut(&actor) else {
            return;
        };
        if a.is_drr && a.loc == Loc::Nic && a.mailbox.len() > self.cfg.q_thresh {
            a.loc = Loc::Migrating;
            a.is_drr = false;
            self.drr_runnable_remove(actor);
            self.migrations_started += 1;
            self.metrics.migrate_push.inc();
            self.pending.push(Action::PushMigrate(actor));
        }
    }

    /// §3.2.4 core auto-scaling between the groups.
    fn rebalance_cores(&mut self, now: SimTime) {
        let needs_drr = !self.drr_runnable.is_empty();
        let (fcfs_n, drr_n) = self.core_split();

        // Spawn the first DRR core when an actor enters the runnable queue.
        if needs_drr && drr_n == 0 && fcfs_n > 1 {
            let core = self.modes.len() - 1;
            self.modes[core] = CoreMode::Drr;
            self.metrics.core_rebalance.inc();
            self.pending.push(Action::CoreRebalanced {
                core: core as u32,
                to: CoreMode::Drr,
            });
            return;
        }
        // Reclaim DRR cores once the runnable queue empties.
        if !needs_drr && drr_n > 0 {
            if let Some(core) = self.modes.iter().rposition(|&m| m == CoreMode::Drr) {
                self.modes[core] = CoreMode::Fcfs;
                self.metrics.core_rebalance.inc();
                self.pending.push(Action::CoreRebalanced {
                    core: core as u32,
                    to: CoreMode::Fcfs,
                });
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
                    self.pending.push(Action::CoreRebalanced {
                        core: core as u32,
                        to: CoreMode::Drr,
                    });
                }
            }
        } else if fcfs_util >= 0.95 && drr_n > 1 && drr_util < (drr_n as f64 - 1.0) / drr_n as f64 {
            if let Some(core) = self.modes.iter().rposition(|&m| m == CoreMode::Drr) {
                self.modes[core] = CoreMode::Fcfs;
                self.metrics.core_rebalance.inc();
                self.pending.push(Action::CoreRebalanced {
                    core: core as u32,
                    to: CoreMode::Fcfs,
                });
            }
        }
    }

    fn group_util(&mut self, now: SimTime, mode: CoreMode) -> f64 {
        let mut sum = 0.0;
        let mut n = 0;
        for (i, &m) in self.modes.iter().enumerate() {
            if m == mode {
                sum += self.util[i].utilization(now);
                n += 1;
            }
        }
        if n == 0 {
            0.0
        } else {
            sum / n as f64
        }
    }

    /// Drain pending actions for the runtime.
    pub fn take_actions(&mut self) -> Vec<Action> {
        std::mem::take(&mut self.pending)
    }

    /// Drain pending actions into a caller-owned buffer (cleared first), so
    /// per-completion polling reuses one allocation instead of handing out a
    /// fresh `Vec` each time.
    pub fn take_actions_into(&mut self, out: &mut Vec<Action>) {
        out.clear();
        out.append(&mut self.pending);
    }

    /// FCFS group statistics (read-only view).
    pub fn fcfs_group(&self) -> &GroupStats {
        &self.fcfs_group
    }

    /// Per-actor scheduling state (read-only).
    pub fn actor(&self, id: ActorId) -> Option<&ActorSched> {
        self.actors.get(&id)
    }

    /// Mutable access to an actor's mailbox (migration drains it).
    pub fn actor_mut(&mut self, id: ActorId) -> Option<&mut ActorSched> {
        self.actors.get_mut(&id)
    }

    /// Total push migrations initiated.
    pub fn migrations_started(&self) -> u64 {
        self.migrations_started
    }

    /// Drain a migrating actor's mailbox into the runtime's migration
    /// buffer, crediting the `buffered` counter so the arrivals ledger stays
    /// balanced. The runtime must use this instead of draining the mailbox
    /// directly: a raw drain makes queued requests vanish from the
    /// scheduler's books without ever being counted as consumed.
    ///
    /// The actor has already left the DRR runnable queue by the time a
    /// migration drains it (`set_location` / migration start), so its mail
    /// is no longer part of `drr_backlog`; only the counter needs a credit.
    pub fn drain_mailbox_for_migration(&mut self, actor: ActorId) -> Vec<Request> {
        let Some(a) = self.actors.get_mut(&actor) else {
            return Vec::new();
        };
        let drained = a.mailbox.drain();
        self.metrics.buffered.add(drained.len() as u64);
        drained
    }

    /// Scheduler-sanity invariants, folded into a cluster-wide audit pass.
    ///
    /// * **arrivals ledger** — every request handed to `on_arrival` is
    ///   either still queued (shared queue or a mailbox) or was consumed
    ///   exactly once (executed, forwarded, buffered for migration, or
    ///   dropped with the drop counter bumped).
    /// * **DRR backlog** — the incremental `drr_backlog` counter equals the
    ///   sum of runnable mailbox lengths.
    /// * **runnable membership** — `drr_runnable` holds exactly the actors
    ///   with `is_drr` on the NIC, without duplicates.
    /// * **deficit bounds** — DRR deficits are non-negative and bounded by
    ///   a generous multiple of the actor's estimate + quantum (the EWMA
    ///   estimate can shrink after deficit accrued, so the bound is loose).
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
            .map(|id| self.actors.get(id).map(|a| a.mailbox.len()).unwrap_or(0))
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
                .get(&id)
                .map(|a| a.is_drr && a.loc == Loc::Nic)
                .unwrap_or(false);
            r.check("sched.runnable.membership", node, ok, || {
                format!("runnable actor {id} is not a DRR actor on the NIC")
            });
        }
        let mut ids: Vec<ActorId> = self.actors.keys().copied().collect();
        ids.sort_unstable();
        for id in ids {
            let a = &self.actors[&id];
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

#[cfg(test)]
mod tests {
    use super::*;
    use ipipe_nicsim::CN2350;

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
        let mut s = sched();
        s.set_location(2, Loc::Migrating);
        s.on_arrival(SimTime::ZERO, req(2, 3));
        assert!(matches!(
            s.next_for_core(SimTime::ZERO, 0),
            Some(Work::Buffer(_))
        ));
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
        let actions = s.take_actions();
        assert!(actions.iter().any(|a| matches!(
            a,
            Action::Regrouped {
                actor: 2,
                to_drr: true
            }
        )));
        // A DRR core was spawned.
        let (_, drr) = s.core_split();
        assert!(drr >= 1);
    }

    #[test]
    fn drr_requests_flow_through_mailbox() {
        let mut s = sched();
        // Force actor 2 into DRR.
        s.actor_mut(2).unwrap().is_drr = true;
        s.drr_runnable.push_back(2);
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
        s.actor_mut(2).unwrap().is_drr = true;
        s.drr_runnable.push_back(2);
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
        s.actor_mut(2).unwrap().is_drr = true;
        s.drr_runnable.push_back(2);
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
        assert!(s.migrations_started() >= 1);
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
                        let stats = &mut s.actor_mut(id).unwrap().stats;
                        stats.on_complete_busy(SimTime::from_us(10), SimTime::from_us(5));
                    }
                    let lat = SimTime::from_us(if i % 2 == 0 { 5 } else { 300 });
                    for id in tied {
                        let stats = &mut s.actor_mut(id).unwrap().stats;
                        stats.on_arrival(at, 512);
                        stats.on_complete_busy(lat, SimTime::from_us(25));
                    }
                    s.fcfs_group.observe(SimTime::from_us(300));
                }
                let now = SimTime::from_ms(10);
                s.last_fcfs_obs = now;
                s.evaluate_regrouping(now);
                s.evaluate_migration();
                assert_eq!(
                    s.take_actions(),
                    vec![
                        Action::Regrouped {
                            actor: lo,
                            to_drr: true
                        },
                        Action::PushMigrate(lo)
                    ],
                    "tied {tied:?}"
                );
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
        let actions = s.take_actions();
        assert!(actions.iter().any(|a| matches!(a, Action::PullMigrate)));
    }

    #[test]
    fn drr_mailbox_overflow_triggers_migration() {
        let mut s = sched();
        s.actor_mut(2).unwrap().is_drr = true;
        s.drr_runnable.push_back(2);
        for t in 0..20 {
            s.on_arrival(SimTime::ZERO, req(2, t));
            let _ = s.next_for_core(SimTime::ZERO, 0); // dispatch into mailbox
        }
        assert!(s.actor(2).unwrap().mailbox.len() > 8);
        s.on_complete(
            SimTime::from_us(10),
            1,
            2,
            SimTime::from_us(10),
            SimTime::from_us(5),
        );
        let actions = s.take_actions();
        assert!(actions.iter().any(|a| matches!(a, Action::PushMigrate(2))));
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
        s.actor_mut(2).unwrap().is_drr = true;
        s.drr_runnable.push_back(2);
        for t in 0..6 {
            s.on_arrival(SimTime::ZERO, req(2, t));
        }
        let _ = s.next_for_core(SimTime::ZERO, 0); // dispatch into mailbox
        let sum: usize = s
            .drr_runnable
            .iter()
            .map(|id| s.actors[id].mailbox.len())
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
        s.actor_mut(2).unwrap().is_drr = true;
        s.drr_runnable.push_back(2);
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

        // Migrate actor 2: the mailbox drain must credit `buffered`.
        s.set_location(2, Loc::Migrating);
        let drained = s.drain_mailbox_for_migration(2);
        assert_eq!(drained.len(), 4);
        assert_eq!(buffered.get(), 4);

        let mut r = AuditReport::new(SimTime::ZERO);
        s.audit_into(&mut r, 0);
        r.assert_clean();
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
        let mut r = AuditReport::new(SimTime::ZERO);
        s.audit_into(&mut r, 0);
        r.assert_clean();
    }

    #[test]
    fn audit_catches_backlog_drift() {
        let mut s = sched();
        s.actor_mut(2).unwrap().is_drr = true;
        s.drr_runnable.push_back(2);
        s.on_arrival(SimTime::ZERO, req(2, 1));
        let _ = s.next_for_core(SimTime::ZERO, 0); // mail into mailbox
        s.drr_backlog += 1; // inject drift
        let mut r = AuditReport::new(SimTime::ZERO);
        s.audit_into(&mut r, 0);
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

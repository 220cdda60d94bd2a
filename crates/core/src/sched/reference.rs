//! ALG 1/2 by the book, against [`decide`].
//!
//! [`model`] is written from the paper's pseudo-code (§3.2.3, ALG 1/2) and
//! DESIGN.md §7's readings, not from `decide`: a `BTreeMap` of rows, one
//! O(n) scan per question, no caches and no early exits. A table of
//! hand-written snapshots pins one case per branch, and a differential runs
//! both on random snapshots: 64 cases here, 4,000 in `scripts/check.sh
//! queue-deep`.

use super::*;
use ipipe_nicsim::CN2350;
use proptest::prelude::*;
use std::collections::BTreeMap;

/// One actor as ALG 1/2 read it.
struct Row {
    loc: Loc,
    drr: bool,
    pinned: bool,
    observed: bool,
    load: f64,
    dispersion: SimTime,
    mail: usize,
    last_regroup: SimTime,
    /// Position in the DRR runnable queue, for DRR actors on the NIC.
    runnable_at: Option<usize>,
}

/// The reference: what ALG 1/2 do at the completion `s` describes.
fn model(s: &Snapshot) -> Decision {
    let cfg = s.cfg;
    let rows: BTreeMap<ActorId, Row> = s
        .actors
        .iter()
        .map(|(id, a)| {
            let row = Row {
                loc: a.loc,
                drr: a.is_drr,
                pinned: a.pinned,
                observed: a.stats.observed(),
                load: a.stats.load(),
                dispersion: a.stats.dispersion(),
                mail: a.mailbox.len(),
                last_regroup: a.last_regroup,
                runnable_at: s.drr_runnable.iter().position(|&x| x == id),
            };
            (id, row)
        })
        .collect();
    // Below a threshold's hysteresis band: under (1 − α)·bar.
    let below_band = |x: SimTime, bar: SimTime| {
        let (x, bar) = (x.as_ns() as f64, bar.as_ns() as f64);
        x < (1.0 - cfg.alpha) * bar
    };
    let mut d = Decision::default();

    // Regroup on the FCFS tail, hybrid only (ALG 1 lines 13–16, ALG 2
    // lines 10–12). A group idle for over 1 ms reads a zero tail.
    if let (Discipline::Hybrid, Some((_, tail))) = (cfg.discipline, s.fcfs) {
        let idle = s.now.saturating_sub(s.fcfs_last) > SimTime::from_ms(1);
        let tail = if idle { SimTime::ZERO } else { tail };
        // An outlier stands out from the observed actors on the NIC: more
        // than 3× their lower median, itself at least 1 ns.
        let mut peers: Vec<u64> = rows
            .values()
            .filter(|r| r.loc == Loc::Nic && r.observed)
            .map(|r| r.dispersion.as_ns())
            .collect();
        peers.sort_unstable();
        let median = if peers.is_empty() {
            1
        } else {
            peers[(peers.len() - 1) / 2].max(1)
        };
        let settled = |r: &Row| s.now.saturating_sub(r.last_regroup) > REGROUP_COOLDOWN;
        if tail > cfg.tail_thresh {
            // Downgrade the most dispersed FCFS actor on the NIC, if it
            // stands out and exceeds `mean_thresh`; ties go to the lower id.
            let mut pick: Option<(ActorId, SimTime)> = None;
            for (&id, r) in &rows {
                let outlier = r.dispersion > cfg.mean_thresh && r.dispersion.as_ns() > 3 * median;
                let fits = r.loc == Loc::Nic && !r.drr && r.observed && outlier && settled(r);
                if fits && pick.is_none_or(|(_, best)| r.dispersion > best) {
                    pick = Some((id, r.dispersion));
                }
            }
            d.regroup = pick.map(|(id, _)| (id, CoreMode::Drr));
        } else if below_band(tail, cfg.tail_thresh) {
            // Upgrade the calmest observed DRR actor with an empty mailbox,
            // unless it still stands out; ties go to the one the DRR scan
            // reaches first (DESIGN.md §7.2).
            let mut pick: Option<(ActorId, (SimTime, usize))> = None;
            for (&id, r) in &rows {
                let Some(at) = r.runnable_at else { continue };
                let calm = r.dispersion.as_ns() <= 3 * median;
                let fits = r.observed && r.mail == 0 && settled(r) && calm;
                if fits && pick.is_none_or(|(_, best)| (r.dispersion, at) < best) {
                    pick = Some((id, (r.dispersion, at)));
                }
            }
            d.regroup = pick.map(|(id, _)| (id, CoreMode::Fcfs));
        }
    }

    // Migration: switched on, none in flight and the cooldown over.
    if !cfg.migration || s.in_flight || s.now < s.cooldown_until {
        return d;
    }
    // ALG 1 lines 17–23, from the management core only.
    if let Some((mean, _)) = s.fcfs.filter(|_| s.core == s.management_core) {
        if mean > cfg.mean_thresh {
            // Push the heaviest observed actor on the NIC; ties go to the
            // lower id.
            let mut pick: Option<(ActorId, f64)> = None;
            for (&id, r) in &rows {
                let fits = r.loc == Loc::Nic && r.observed;
                if fits && pick.is_none_or(|(_, best)| r.load > best) {
                    pick = Some((id, r.load));
                }
            }
            d.migrate = pick.map(|(id, _)| Action::PushMigrate(id));
        } else if below_band(mean, cfg.mean_thresh) {
            // Pull the lightest unpinned host actor, ties to the lower id,
            // if its load fits the headroom: 0.3 of the card's cores.
            let mut pick: Option<(ActorId, f64)> = None;
            for (&id, r) in &rows {
                let fits = r.loc == Loc::Host && !r.pinned;
                if fits && pick.is_none_or(|(_, best)| r.load < best) {
                    pick = Some((id, r.load));
                }
            }
            let headroom = 0.3 * f64::from(s.cores);
            d.migrate = pick
                .filter(|&(_, load)| load <= headroom)
                .map(|(id, _)| Action::PullMigrate(id));
        }
    }
    // ALG 2 line 18, when ALG 1 began nothing: the completed actor is DRR
    // on the NIC with more than `Q_thresh` requests in its mailbox.
    let overlong = rows
        .get(&s.actor)
        .is_some_and(|r| r.loc == Loc::Nic && r.drr && r.mail > cfg.q_thresh);
    if d.migrate.is_none() && overlong {
        d.migrate = Some(Action::PushMigrate(s.actor));
    }
    d
}

/// CN2350's thresholds (45 / 90 µs, α 0.2, 12 cores: a 3.6-core headroom)
/// with a `Q_thresh` of 8.
fn cfg() -> SchedConfig {
    SchedConfig {
        q_thresh: 8,
        ..SchedConfig::for_nic(&CN2350)
    }
}

/// The completion instant of every snapshot here.
const NOW: SimTime = SimTime::from_ms(10);

/// Statistics of `runs` requests arriving every `gap_us`, whose sojourns
/// alternate between the two `lat_us`, fed through `ActorStats`' own API.
fn stats(runs: u64, gap_us: u64, lat_us: [u64; 2]) -> ActorStats {
    let mut st = ActorStats::new(cfg().ewma_alpha);
    for i in 0..runs {
        st.on_arrival(SimTime::from_us(gap_us * i), 512);
        st.on_complete(SimTime::from_us(lat_us[usize::from(i % 2 == 1)]));
    }
    st
}

/// An actor table and its DRR runnable queue.
#[derive(Default)]
struct World {
    actors: DenseMap<ActorSched>,
    runnable: VecDeque<ActorId>,
}

impl World {
    /// Add `id` at `loc` with statistics `st` and `mail` queued requests;
    /// a DRR actor joins the runnable queue.
    fn add(mut self, id: ActorId, loc: Loc, drr: bool, st: ActorStats, mail: usize) -> World {
        let request = |token| Request {
            actor: id,
            flow: token,
            wire_size: 512,
            arrived: SimTime::ZERO,
            reply_to: None,
            token,
            payload: None,
        };
        let a = ActorSched {
            mailbox: (0..mail as u64).map(request).collect(),
            stats: st,
            is_drr: drr,
            loc,
            deficit: 0.0,
            size_hint: 512,
            last_regroup: SimTime::ZERO,
            pinned: false,
        };
        if drr {
            self.runnable.push_back(id);
        }
        self.actors.insert(id, a);
        self
    }

    /// Pin `id` to the host.
    fn pin(mut self, id: ActorId) -> World {
        self.actors.get_mut(id).expect("added").pinned = true;
        self
    }

    /// A completion of `actor`'s request on core 0 at [`NOW`], with the
    /// FCFS group at `mean` / `tail` µs, the gate open.
    fn snap<'a>(
        &'a self,
        cfg: &'a SchedConfig,
        actor: ActorId,
        mean: u64,
        tail: u64,
    ) -> Snapshot<'a> {
        Snapshot {
            now: NOW,
            cfg,
            cores: CN2350.cores,
            core: 0,
            management_core: 0,
            actor,
            fcfs: Some((SimTime::from_us(mean), SimTime::from_us(tail))),
            fcfs_last: NOW,
            in_flight: false,
            cooldown_until: SimTime::ZERO,
            actors: &self.actors,
            drr_runnable: &self.runnable,
        }
    }
}

/// One hand-written snapshot per ALG 1/2 branch. The FCFS group sits in
/// both dead bands (mean 40 µs, tail 80 µs) unless a row moves it.
#[test]
fn one_snapshot_per_branch() {
    let cfg = cfg();
    let calm = || stats(30, 50, [10, 10]); // load 0.2, dispersion 10 µs
    let spiky = || stats(30, 20, [5, 300]); // load 6.2, dispersion 569 µs
    let light = || stats(30, 100, [20, 20]); // load 0.2
    let lighter = || stats(30, 200, [10, 10]); // load 0.05
    let heavy = || stats(30, 10, [200, 200]); // load 20, over the headroom
    let fresh = || ActorStats::new(cfg.ewma_alpha); // never ran

    // Actor 3 stands out; 4 and 5 are host actors, 5 pinned and lighter.
    let mixed = World::default()
        .add(1, Loc::Nic, false, calm(), 0)
        .add(2, Loc::Nic, false, calm(), 0)
        .add(3, Loc::Nic, false, spiky(), 0)
        .add(4, Loc::Host, false, light(), 0)
        .add(5, Loc::Host, false, lighter(), 0)
        .add(6, Loc::Host, false, heavy(), 0)
        .pin(5);
    let alike = World::default()
        .add(1, Loc::Nic, false, spiky(), 0)
        .add(2, Loc::Nic, false, spiky(), 0)
        .add(3, Loc::Nic, false, spiky(), 0);
    // Actor 2 is DRR-served and calm; 3 is DRR-served and never ran.
    let drr = World::default()
        .add(1, Loc::Nic, false, calm(), 0)
        .add(3, Loc::Nic, true, fresh(), 0)
        .add(2, Loc::Nic, true, calm(), 0);
    let unobserved =
        World::default()
            .add(1, Loc::Nic, false, calm(), 0)
            .add(3, Loc::Nic, true, fresh(), 0);
    // Equal loads and dispersions, registered high id first, among calm
    // peers.
    let tied = World::default()
        .add(9, Loc::Nic, false, spiky(), 0)
        .add(4, Loc::Nic, false, spiky(), 0)
        .add(1, Loc::Nic, false, calm(), 0)
        .add(2, Loc::Nic, false, calm(), 0)
        .add(3, Loc::Nic, false, calm(), 0)
        .add(8, Loc::Host, false, light(), 0)
        .add(7, Loc::Host, false, light(), 0);
    // A lone host actor on either side of the 3.6-core headroom.
    let host = |st| {
        World::default()
            .add(1, Loc::Nic, false, calm(), 0)
            .add(6, Loc::Host, false, st, 0)
    };
    let (fits, too_heavy) = (host(stats(30, 10, [35, 35])), host(stats(30, 10, [40, 40])));
    // Actor 2 is DRR-served with 9 queued requests, actor 4 with 8.
    let overlong = World::default()
        .add(1, Loc::Nic, false, calm(), 0)
        .add(3, Loc::Nic, false, spiky(), 0)
        .add(2, Loc::Nic, true, calm(), 9)
        .add(4, Loc::Nic, true, calm(), 8);

    let none = Decision::default();
    let push = |id| Decision {
        migrate: Some(Action::PushMigrate(id)),
        ..none
    };
    let pull = |id| Decision {
        migrate: Some(Action::PullMigrate(id)),
        ..none
    };
    let regroup = |r| Decision {
        regroup: Some(r),
        ..none
    };
    let hot = mixed.snap(&cfg, 1, 60, 80);
    let table = [
        ("dead bands", mixed.snap(&cfg, 1, 40, 80), none),
        (
            "downgrade",
            mixed.snap(&cfg, 1, 40, 100),
            regroup((3, CoreMode::Drr)),
        ),
        ("homogeneous overload", alike.snap(&cfg, 1, 40, 100), none),
        (
            "downgrade ties",
            tied.snap(&cfg, 1, 40, 100),
            regroup((4, CoreMode::Drr)),
        ),
        (
            "upgrade",
            drr.snap(&cfg, 1, 40, 50),
            regroup((2, CoreMode::Fcfs)),
        ),
        (
            "idle FCFS tail",
            Snapshot {
                fcfs_last: NOW - SimTime::from_us(1_001),
                ..drr.snap(&cfg, 1, 40, 100)
            },
            regroup((2, CoreMode::Fcfs)),
        ),
        (
            "never-observed actor",
            unobserved.snap(&cfg, 1, 40, 50),
            none,
        ),
        ("push victim", hot, push(3)),
        ("push ties", tied.snap(&cfg, 1, 60, 80), push(4)),
        (
            "pull victim, pinned skipped",
            mixed.snap(&cfg, 1, 20, 80),
            pull(4),
        ),
        ("pull ties", tied.snap(&cfg, 1, 20, 80), pull(7)),
        ("pull at load 3.5", fits.snap(&cfg, 1, 20, 80), pull(6)),
        ("pull at load 4.0", too_heavy.snap(&cfg, 1, 20, 80), none),
        (
            "in flight",
            Snapshot {
                in_flight: true,
                ..hot
            },
            none,
        ),
        (
            "cooling down",
            Snapshot {
                cooldown_until: NOW + SimTime::from_ns(1),
                ..hot
            },
            none,
        ),
        (
            "cooldown over",
            Snapshot {
                cooldown_until: NOW,
                ..hot
            },
            push(3),
        ),
        ("non-management core", Snapshot { core: 3, ..hot }, none),
        (
            "IOKernel management core",
            Snapshot {
                core: 1,
                management_core: 1,
                ..hot
            },
            push(3),
        ),
        (
            "IOKernel dispatcher",
            Snapshot {
                management_core: 1,
                ..hot
            },
            none,
        ),
        ("Q_thresh push", overlong.snap(&cfg, 2, 40, 80), push(2)),
        (
            "Q_thresh not exceeded",
            overlong.snap(&cfg, 4, 40, 80),
            none,
        ),
        (
            "Q_thresh push, off the management core",
            Snapshot {
                core: 5,
                ..overlong.snap(&cfg, 2, 60, 80)
            },
            push(2),
        ),
        ("ALG 1 push first", overlong.snap(&cfg, 2, 60, 80), push(3)),
        (
            "Q_thresh push, in flight",
            Snapshot {
                in_flight: true,
                ..overlong.snap(&cfg, 2, 40, 80)
            },
            none,
        ),
    ];
    for (name, snap, want) in table {
        assert_eq!(decide(&snap), want, "decide: {name}");
        assert_eq!(model(&snap), want, "model: {name}");
    }
}

/// Sojourns, arrival gaps and run counts the random actors draw from: few
/// enough values that loads and dispersions tie, spread enough to cross
/// `mean_thresh`, the 3× median and the pull headroom both ways.
const LAT_US: [u64; 6] = [5, 10, 10, 10, 60, 400];
const GAP_US: [u64; 4] = [5, 20, 50, 1_000];
const RUNS: [u64; 4] = [0, 2, 30, 30];

/// One random completion: discipline, migration switch, FCFS group, idle
/// time, gate, cores and the completed actor (an index into the actors,
/// past the end for an unknown one, with its mailbox around `Q_thresh`).
type Head = (
    (u8, u8, u8),
    (u64, u64, u64),
    (u8, u64),
    (u32, u32),
    (usize, usize),
);

/// One random actor: id, location, flags (DRR, pinned, same statistics as
/// the previous actor), two sojourns, gap and run count, mailbox length and
/// time since its last regroup.
type Draw = (
    ActorId,
    u8,
    u8,
    (usize, usize),
    (usize, usize),
    (usize, u64),
);

fn head() -> impl Strategy<Value = Head> {
    (
        (0u8..8, 0u8..8, 0u8..8),
        (0u64..100, 0u64..100, 0u64..1_400),
        (0u8..4, 0u64..2_000),
        (0u32..2, 0u32..2),
        (0usize..12, 0usize..4),
    )
}

fn draws() -> impl Strategy<Value = Vec<Draw>> {
    let draw = (
        0u32..24,
        0u8..4,
        0u8..8,
        (0usize..6, 0usize..6),
        (0usize..4, 0usize..4),
        (0usize..3, 0u64..3_000),
    );
    prop::collection::vec(draw, 1..12)
}

/// Build the random completion's tables and compare the two deciders.
fn decide_matches_model(head: Head, draws: Vec<Draw>) -> Result<(), TestCaseError> {
    let (
        (disc, switch, observed),
        (mean, spread, idle),
        (flight, cooldown),
        (core, mgmt),
        (done, mail),
    ) = head;
    let discipline = match disc {
        6 => Discipline::FcfsOnly,
        7 => Discipline::DrrOnly,
        _ => Discipline::Hybrid,
    };
    let cfg = SchedConfig {
        discipline,
        migration: switch != 0,
        ..cfg()
    };
    let mut world = World::default();
    let mut profile = (0, 0, 0, 0);
    let mut done_id = ActorId::MAX;
    for (i, &(id, loc, flags, (lat_a, lat_b), (gap, runs), (queued, since))) in
        draws.iter().enumerate()
    {
        if world.actors.contains_key(id) {
            continue;
        }
        if flags & 4 == 0 || i == 0 {
            profile = (lat_a, lat_b, gap, runs);
        }
        let loc = [Loc::Nic, Loc::Nic, Loc::Host, Loc::Migrating][usize::from(loc)];
        // Only an actor on the NIC is DRR-served: all of them under pure
        // DRR, none under pure FCFS.
        let drr = loc == Loc::Nic
            && match discipline {
                Discipline::Hybrid => flags & 1 != 0,
                Discipline::FcfsOnly => false,
                Discipline::DrrOnly => true,
            };
        if i == done {
            done_id = id;
        }
        // A mailbox is read by DRR service on the NIC, or parked by a move.
        let queued = match (drr || loc == Loc::Migrating, i == done) {
            (false, _) => 0,
            (true, true) => cfg.q_thresh - 1 + mail,
            (true, false) => queued,
        };
        let (a, b, gap, runs) = profile;
        let st = stats(RUNS[runs], GAP_US[gap], [LAT_US[a], LAT_US[b]]);
        world = world.add(id, loc, drr, st, queued);
        let row = world.actors.get_mut(id).expect("added");
        row.pinned = flags & 2 != 0;
        row.last_regroup = NOW.saturating_sub(SimTime::from_us(since));
    }
    let cooldown_until = NOW + SimTime::from_us(cooldown) - SimTime::from_us(1_500);
    let snap = Snapshot {
        core,
        management_core: mgmt,
        fcfs: (observed != 0).then(|| (SimTime::from_us(mean), SimTime::from_us(mean + spread))),
        fcfs_last: NOW.saturating_sub(SimTime::from_us(idle)),
        in_flight: flight == 0,
        cooldown_until,
        ..world.snap(&cfg, done_id, 0, 0)
    };
    prop_assert_eq!(decide(&snap), model(&snap), "{:#?}", snap);
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// [`decide_matches_model`] at tier-1 depth.
    #[test]
    fn decide_matches_reference(head in head(), draws in draws()) {
        decide_matches_model(head, draws)?;
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4_000))]

    /// The same differential at 4,000 cases, in release mode:
    /// `scripts/check.sh queue-deep`.
    #[test]
    #[ignore = "deep run: cargo test --release -p ipipe --lib decide_matches_reference -- --ignored"]
    fn decide_matches_reference_deep(head in head(), draws in draws()) {
        decide_matches_model(head, draws)?;
    }
}

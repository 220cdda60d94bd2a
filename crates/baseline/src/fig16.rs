//! The scheduler comparison of §5.4 / Fig 16: P99 tail latency at increasing
//! network load for pure FCFS, pure DRR, and the iPipe hybrid, under the
//! low-dispersion (exponential) and high-dispersion (bimodal-2) request-cost
//! distributions, on the LiquidIOII CN2350 and Stingray PS225.
//!
//! The experiment drives the *real* [`ipipe::sched::NicScheduler`] with an
//! open-loop Poisson arrival process; requests carry their intrinsic service
//! time (drawn from the §5.4 distributions), mimicking the
//! application-derived packet traces of the paper.

use ipipe::actor::Request;
use ipipe::sched::{Discipline, Loc, NicScheduler, SchedConfig, Work};
use ipipe_nicsim::spec::NicSpec;
use ipipe_sim::audit::AuditReport;
use ipipe_sim::obs::{HistHandle, Obs};
use ipipe_sim::{EventQueue, IdMap, SimTime};
use ipipe_workload::service::ServiceTrace;

/// Result of one Fig 16 run.
#[derive(Debug, Clone, Copy)]
pub struct Fig16Point {
    /// Offered load (fraction of aggregate core capacity).
    pub load: f64,
    /// Mean sojourn time.
    pub mean: SimTime,
    /// P99 sojourn time.
    pub p99: SimTime,
    /// Requests measured.
    pub completed: u64,
    /// Simulated time of the last event before quiesce (arrivals + drain)
    /// — lets callers turn `completed` into a committed throughput.
    pub wall: SimTime,
}

enum Ev {
    Arrive,
    Done { core: u32 },
}

struct St {
    sched: NicScheduler,
    trace: ServiceTrace,
    services: IdMap<u64, SimTime>,
    inflight: Vec<Option<(u32, SimTime, SimTime)>>, // by core: (actor, arrived, busy)
    hist: HistHandle,
    obs: Obs,
    remaining: u64,
    warmup: u64,
    next_token: u64,
    done: u64,
    last_event: SimTime,
}

/// Run one (card, distribution, discipline, load) cell of Fig 16.
///
/// `actors` actors share the trace (8 matches the paper's three-application
/// packet mix); heavy bimodal samples are routed to the last actor (the
/// trace's compaction/ranker-like heavyweight); `requests` arrivals are
/// generated, the first quarter as warm-up.
pub fn run_fig16(
    spec: &NicSpec,
    dist: ipipe_sim::rng::ServiceDist,
    discipline: Discipline,
    load: f64,
    actors: u32,
    requests: u64,
    seed: u64,
) -> Fig16Point {
    let cfg = SchedConfig::for_nic(spec)
        .with_discipline(discipline)
        .no_migration();
    let obs = Obs::disabled();
    run_fig16_obs(spec, dist, cfg, load, actors, requests, seed, &obs)
}

/// [`run_fig16`] under an explicit scheduler configuration, sharing an
/// observability handle: the sojourn histogram lives in the registry
/// (`fig16.sojourn` — the returned [`Fig16Point`] is rendered from it),
/// scheduler metrics land under the same registry, and per-execution spans
/// go to the trace ring.
#[allow(clippy::too_many_arguments)]
pub fn run_fig16_obs(
    spec: &NicSpec,
    dist: ipipe_sim::rng::ServiceDist,
    cfg: SchedConfig,
    load: f64,
    actors: u32,
    requests: u64,
    seed: u64,
    obs: &Obs,
) -> Fig16Point {
    let mut sched = NicScheduler::with_obs(spec, cfg, obs, 0);
    for a in 0..actors {
        sched.register(a, 512, Loc::Nic);
    }
    let hist = obs.registry().hist("fig16.sojourn");
    hist.reset(); // a fresh run owns the slot even on a reused registry
    let mut st = St {
        sched,
        trace: ServiceTrace::new_correlated(dist, spec.cores, load, actors, seed),
        services: IdMap::default(),
        inflight: vec![None; spec.cores as usize],
        hist,
        obs: obs.clone(),
        remaining: requests,
        warmup: requests / 4,
        next_token: 0,
        done: 0,
        last_event: SimTime::ZERO,
    };
    let mut q: EventQueue<Ev> = EventQueue::new();
    q.schedule_at(SimTime::ZERO, Ev::Arrive);

    fn kick(q: &mut EventQueue<Ev>, st: &mut St) {
        let now = q.now();
        for (core, slot) in (0u32..).zip(st.inflight.iter_mut()) {
            if slot.is_some() {
                continue;
            }
            if let Some(Work::Exec(req)) = st.sched.next_for_core(now, core) {
                let service = st.services.remove(&req.token).expect("service recorded");
                *slot = Some((req.actor, req.arrived, service));
                q.schedule_after(service, Ev::Done { core });
            }
        }
    }

    q.run_until(&mut st, SimTime::MAX, |q, st, now, ev| {
        st.last_event = now;
        match ev {
            Ev::Arrive => {
                if st.remaining > 0 {
                    st.remaining -= 1;
                    let r = st.trace.next_request();
                    let token = st.next_token;
                    st.next_token += 1;
                    st.services.insert(token, r.service);
                    st.sched.on_arrival(
                        now,
                        Request {
                            actor: r.actor,
                            flow: token,
                            wire_size: 512,
                            arrived: now,
                            reply_to: None,
                            token,
                            payload: None,
                        },
                    );
                    if st.remaining > 0 {
                        q.schedule_after(r.gap, Ev::Arrive);
                    }
                }
            }
            Ev::Done { core } => {
                let (actor, arrived, busy) = st.inflight[core as usize].take().expect("busy");
                let sojourn = now.saturating_sub(arrived);
                st.obs.span(
                    "sched",
                    "exec",
                    0,
                    core,
                    now.saturating_sub(busy),
                    now,
                    Some(("actor", actor as i64)),
                );
                st.sched.on_complete(now, core, actor, sojourn, busy);
                st.done += 1;
                if st.done > st.warmup {
                    st.hist.record(sojourn);
                }
            }
        }
        kick(q, st);
    });

    // Quiesce-time conservation sweep: every generated arrival must be
    // accounted for in the scheduler's ledgers once the event queue drains.
    let mut audit = AuditReport::new(q.now());
    st.sched.audit_into(&mut audit, 0);
    audit.record_to(obs);
    audit.assert_clean();

    Fig16Point {
        load,
        mean: st.hist.mean(),
        p99: st.hist.p99(),
        completed: st.hist.count(),
        wall: st.last_event,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ipipe_nicsim::{CN2350, STINGRAY_PS225};
    use ipipe_workload::service::{fig16_distribution, Dispersion, Fig16Card};

    const N: u64 = 30_000;

    #[test]
    fn latency_grows_with_load_for_all_disciplines() {
        let dist = fig16_distribution(Fig16Card::LiquidIo, Dispersion::Low);
        for d in [
            Discipline::FcfsOnly,
            Discipline::DrrOnly,
            Discipline::Hybrid,
        ] {
            let lo = run_fig16(&CN2350, dist, d, 0.3, 8, N, 1);
            let hi = run_fig16(&CN2350, dist, d, 0.9, 8, N, 1);
            assert!(hi.p99 > lo.p99, "{d:?}: {0} !> {1}", hi.p99, lo.p99);
            assert!(lo.completed > N / 2);
        }
    }

    /// Fig 16 a/c: under low dispersion the hybrid tracks FCFS and beats DRR.
    #[test]
    fn low_dispersion_hybrid_tracks_fcfs_and_beats_drr() {
        let dist = fig16_distribution(Fig16Card::LiquidIo, Dispersion::Low);
        let fcfs = run_fig16(&CN2350, dist, Discipline::FcfsOnly, 0.9, 8, N, 2);
        let drr = run_fig16(&CN2350, dist, Discipline::DrrOnly, 0.9, 8, N, 2);
        let hyb = run_fig16(&CN2350, dist, Discipline::Hybrid, 0.9, 8, N, 2);
        assert!(
            drr.p99 > fcfs.p99,
            "DRR should trail FCFS at low dispersion: drr={} fcfs={}",
            drr.p99,
            fcfs.p99
        );
        // Hybrid within 40% of FCFS and below DRR.
        assert!(hyb.p99 < drr.p99, "hyb={} drr={}", hyb.p99, drr.p99);
        assert!(
            hyb.p99.as_ns() as f64 <= fcfs.p99.as_ns() as f64 * 1.4,
            "hyb={} fcfs={}",
            hyb.p99,
            fcfs.p99
        );
    }

    /// Fig 16 b/d: under high dispersion the hybrid beats plain FCFS.
    #[test]
    fn high_dispersion_hybrid_beats_fcfs() {
        let dist = fig16_distribution(Fig16Card::LiquidIo, Dispersion::High);
        let fcfs = run_fig16(&CN2350, dist, Discipline::FcfsOnly, 0.9, 8, 2 * N, 2);
        let hyb = run_fig16(&CN2350, dist, Discipline::Hybrid, 0.9, 8, 2 * N, 2);
        assert!(
            hyb.p99 < fcfs.p99,
            "hybrid should tame the tail: hyb={} fcfs={}",
            hyb.p99,
            fcfs.p99
        );
    }

    #[test]
    fn stingray_runs_cleanly() {
        let dist = fig16_distribution(Fig16Card::Stingray, Dispersion::High);
        let p = run_fig16(&STINGRAY_PS225, dist, Discipline::Hybrid, 0.7, 8, N / 2, 4);
        assert!(p.completed > N / 5);
        assert!(p.p99 >= p.mean);
    }
}

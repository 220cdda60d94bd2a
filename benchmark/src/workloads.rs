//! The four workloads, each driven from outside through the program's public
//! functions so that every call into it can be timed as a span.
//!
//! | name | stresses | bypasses |
//! |---|---|---|
//! | `rkv-steady` | request path: event queue, client/exec machinery, scheduler, net model, aggregated stream | sharding, cluster build |
//! | `pod-par2` | epoch engine: lookahead barrier, outbox flush, merge pool (per-epoch spawn/join only in its per-layer threaded run) | open-loop client machinery, Paxos |
//! | `tcp-lossy` | TCP codec + state machine, fault plan, long RTO timers | client request machinery, migration |
//! | `dse-grid` | many short simulations: per-cell build + deploy, enumeration, sweep, Pareto | steady-state dispatch |
//!
//! Sizes scale linearly with `Params::scale` (1.0 = ISSUE 11's ~30 s per
//! repetition on the 2-core reference box); the work done is a pure function
//! of `(seed, scale)`, never of how fast the host is.

use crate::spans::Recorder;
use crate::stats::{fnv1a, fnv1a_update, quantile_nearest, FNV_OFFSET};
use ipipe::rt::{ClientReq, Cluster, OpenLoopCfg, Placement, RetryPolicy, RuntimeMode};
use ipipe::tcp::{audit_tcp_into, deploy_tcp_pair, TcpEndpoints};
use ipipe_apps::rkv::actors::RkvMsg;
use ipipe_apps::rkv::multi::{
    audit_multi_rkv_exactly_once, deploy_multi_rkv, MultiRkv, MultiRkvCfg, RebalanceCfg, Rebalancer,
};
use ipipe_bench::dse::{run_dse, DseResult, DseSpec};
use ipipe_bench::scale::ScaleSpec;
use ipipe_bench::sharded::{build_grid, GridSpec};
use ipipe_bench::tcp::TcpOffloadSpec;
use ipipe_netsim::FaultPlan;
use ipipe_nicsim::dse::DesignAxes;
use ipipe_nicsim::CN2350;
use ipipe_sim::audit::{AuditReport, CLUSTER_WIDE};
use ipipe_sim::obs::Snapshot;
use ipipe_sim::{Histogram, Obs, SimTime, TraceLevel};
use ipipe_workload::agg::{aggregate_rate, AggKvStream};
use std::cell::RefCell;
use std::rc::Rc;

pub const NAMES: [&str; 4] = ["rkv-steady", "pod-par2", "tcp-lossy", "dse-grid"];

/// One line per workload: why it is in the set.
pub fn why(name: &str) -> &'static str {
    match name {
        "rkv-steady" => "open-loop Zipf KV over 64 Paxos groups, serial: the request path (event queue, rt, sched, net, agg) does nearly all the work",
        "pod-par2" => "closed-loop 64-node pod split into 2 shards, timed on one thread: the epoch engine (lookahead barrier, outbox flush, merge pool); its 2-thread run is a per-layer figure",
        "tcp-lossy" => "8 bulk TCP streams at 2% seeded loss: nstack codec, tcp state machine, fault plan and long RTO timers; no client machinery",
        "dse-grid" => "hundreds of 5 ms design-space cells on 2 workers: per-cell cluster build, enumeration, sweep and Pareto reduction",
        _ => "",
    }
}

/// What one repetition runs.
#[derive(Debug, Clone, Copy)]
pub struct Params {
    pub seed: u64,
    /// Work relative to ISSUE 11's full sizes.
    pub scale: f64,
    /// `pod-par2` only: how the pod is cut up and run.
    pub pod: PodMode,
    /// `rkv-steady` and `tcp-lossy` only (the two whose cluster the
    /// benchmark builds itself): trace ring at its highest level instead of
    /// the metrics-only default (for `sim.obs.trace_on_ratio`).
    pub trace_ring: bool,
}

/// The three ways `pod-par2` runs the same pod. All three must produce the
/// same canonical export, byte for byte.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PodMode {
    /// Two shards, both run by the calling thread: what the timed
    /// repetitions run. The epoch engine does all its work but spawns no
    /// thread, so the time repeats on a shared two-core box.
    #[default]
    Inline,
    /// One shard, one thread: the reference the other two are held against.
    Serial,
    /// Two shards on two OS threads, spawned and joined every epoch. Its
    /// wall time follows the host's scheduler (1.7 s and 2.2 s twenty minutes
    /// apart, same code), so it is reported per layer, not end to end.
    Threaded,
}

/// Simulated-side result of one repetition. Everything here repeats exactly
/// for a given `(workload, seed, scale)`.
#[derive(Debug, Default)]
pub struct SimOutcome {
    /// Audit clean, drained/closed, every cell produced work.
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    /// FNV-1a of the canonical export.
    pub digest: u64,
    pub export_bytes: u64,
    /// Named values: end-to-end `sim_*` metrics and exact per-layer counts.
    pub values: Vec<(&'static str, f64)>,
}

impl SimOutcome {
    fn put(&mut self, name: &'static str, v: f64) {
        self.values.push((name, v));
    }
}

/// A workload in three phases so the harness can time them apart: `setup`
/// ends when the first simulated event is runnable, `run` covers the first
/// `run_for` to the last (drain included), `finish` audits, reduces and
/// exports.
pub trait Workload {
    type Ready;
    fn setup(&self, rec: &mut Recorder) -> Self::Ready;
    fn run(&self, r: &mut Self::Ready, rec: &mut Recorder);
    fn finish(&self, r: Self::Ready, rec: &mut Recorder) -> SimOutcome;
}

/// A fresh handle per cluster: repeated set-ups must not share a registry.
fn cluster_obs(trace_ring: bool) -> Obs {
    if trace_ring {
        Obs::with_level(TraceLevel::Verbose)
    } else {
        Obs::disabled()
    }
}

fn sim_ms(full_ms: f64, scale: f64, step_ms: u64) -> SimTime {
    let steps = (full_ms * scale / step_ms as f64).round().max(1.0) as u64;
    SimTime::from_ms(steps * step_ms)
}

// ---- snapshot readers -------------------------------------------------

fn counter_sum(snap: &Snapshot, name: &str) -> u64 {
    snap.counters
        .iter()
        .filter(|((n, _), _)| n == name)
        .map(|(_, v)| v)
        .sum()
}

fn counter_prefix_sum(snap: &Snapshot, prefix: &str) -> u64 {
    snap.counters
        .iter()
        .filter(|((n, _), _)| n.starts_with(prefix))
        .map(|(_, v)| v)
        .sum()
}

fn hist_merged(snap: &Snapshot, name: &str) -> Histogram {
    let mut h = Histogram::new();
    for ((n, _), other) in &snap.hists {
        if n == name {
            h.merge(other);
        }
    }
    h
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// Registry record operations behind a snapshot: one per histogram sample
/// plus one per counter increment. Counters that add byte amounts would
/// inflate the estimate, so they are left out (each rides along with a
/// unit-increment sibling that is counted).
fn obs_records(snap: &Snapshot) -> u64 {
    let hist: u64 = snap.hists.values().map(|h| h.count()).sum();
    let ctr: u64 = snap
        .counters
        .iter()
        .filter(|((n, _), _)| !n.contains("bytes"))
        .map(|(_, v)| v)
        .sum();
    hist + ctr
}

fn put_latency(out: &mut SimOutcome, h: &Histogram) {
    out.put("sim_mean_us", h.mean().as_us_f64());
    out.put("sim_p50_us", h.quantile(0.5).as_us_f64());
    out.put("sim_p99_us", h.quantile(0.99).as_us_f64());
    out.put("sim_p999_us", h.quantile(0.999).as_us_f64());
    out.put("sim_latency_samples", h.count() as f64);
}

/// The latency figures of a workload whose unit of work is not a request:
/// one sample per connection or per cell, every figure an observed value.
fn put_latency_of(out: &mut SimOutcome, samples_us: &[f64]) {
    out.put(
        "sim_mean_us",
        samples_us.iter().sum::<f64>() / samples_us.len() as f64,
    );
    out.put("sim_p50_us", quantile_nearest(samples_us, 0.5));
    out.put("sim_p99_us", quantile_nearest(samples_us, 0.99));
    out.put("sim_p999_us", quantile_nearest(samples_us, 0.999));
    out.put("sim_latency_samples", samples_us.len() as f64);
}

/// Counts and waits every cluster workload reads the same way. Hands back
/// the snapshot they were read from.
fn put_cluster_layers(out: &mut SimOutcome, c: &mut Cluster, servers: usize) -> Snapshot {
    let snap = c.snapshot();
    out.put(
        "sim_host_cores",
        (0..servers).map(|n| c.host_cores_used(n)).sum(),
    );
    out.put(
        "sim_nic_cores",
        (0..servers).map(|n| c.nic_cores_used(n)).sum(),
    );
    let epochs = c.epoch_stats();
    out.put(
        "ipipe.rt.events",
        c.shard_events().iter().sum::<u64>() as f64,
    );
    out.put("ipipe.rt.epochs", epochs.epochs as f64);
    out.put("ipipe.rt.critical_path_speedup", epochs.speedup());
    for (metric, counter) in [
        ("ipipe.rt.client_retries", "client.retry.sent"),
        ("ipipe.rt.redirects", "client.redirects"),
        ("ipipe.migrate.completed", "migrate.completed"),
        ("ipipe.migrate.aborted", "migrate.aborted"),
        ("ipipe.sched.arrivals", "sched.arrivals"),
        ("netsim.net.packets", "net.packets"),
        ("netsim.fault.corrupt", "fault.corrupt"),
        ("ipipe.tcp.segs", "tcp.tx.segs"),
        ("ipipe.tcp.acks", "tcp.rx.acks"),
        ("ipipe.tcp.rto_fired", "tcp.rto.fired"),
    ] {
        out.put(metric, counter_sum(&snap, counter) as f64);
    }
    for (metric, hist) in [
        ("ipipe.rt.ring_xfer_p99_us", "rt.ring.xfer"),
        ("ipipe.sched.sojourn_fcfs_p99_us", "sched.sojourn.fcfs"),
        ("ipipe.sched.sojourn_drr_p99_us", "sched.sojourn.drr"),
        ("netsim.net.tx_wait_p99_us", "net.tx_wait"),
        ("nicsim.tm.sojourn_p99_us", "tm.sojourn"),
    ] {
        out.put(metric, hist_merged(&snap, hist).quantile(0.99).as_us_f64());
    }
    out.put(
        "ipipe.rt.ring_crossings",
        (counter_sum(&snap, "rt.ring.to_host") + counter_sum(&snap, "rt.ring.to_nic")) as f64,
    );
    let drr = counter_sum(&snap, "sched.exec.drr");
    out.put(
        "ipipe.sched.drr_share",
        ratio(drr, drr + counter_sum(&snap, "sched.exec.fcfs")),
    );
    out.put(
        "netsim.fault.drops",
        counter_prefix_sum(&snap, "fault.drop.") as f64,
    );
    out.put(
        "ipipe.tcp.retx_ratio",
        ratio(
            counter_sum(&snap, "tcp.retx.segs"),
            counter_sum(&snap, "tcp.tx.segs"),
        ),
    );
    out.put(
        "apps.rkv.dup_commit_ratio",
        ratio(
            counter_prefix_sum(&snap, "rkv.dup.commits"),
            counter_prefix_sum(&snap, "rkv.applies"),
        ),
    );
    out.put("sim.obs.records", obs_records(&snap) as f64);
    out.put("sim.obs.trace_dropped", c.trace_totals().1 as f64);
    snap
}

fn put_export(out: &mut SimOutcome, c: &Cluster, rec: &mut Recorder) {
    let export = rec.span("export_canonical_jsonl", |_| c.export_canonical_jsonl());
    out.digest = fnv1a(export.as_bytes());
    out.export_bytes = export.len() as u64;
}

fn report_dirty(name: &str, report: &AuditReport) {
    if !report.is_clean() {
        eprintln!("{name}: audit found violations\n{}", report.render());
    }
}

// ---- rkv-steady ---------------------------------------------------------

/// `ScaleSpec::planetary` with an 800 ms arrival window at scale 1: 64 Paxos
/// groups, 2^20 modelled users, open-loop Zipf-1.1, 95% reads, rebalancer
/// on, one shard, metrics-only — with patient clients ([`RKV_RETRY`]).
pub struct RkvSteady {
    spec: ScaleSpec,
    trace_ring: bool,
}

pub struct RkvReady {
    c: Cluster,
    dep: MultiRkv,
    ledgers: Vec<Rc<RefCell<Vec<u64>>>>,
}

/// Client retransmission timer of `rkv-steady`. `drive_rkv_scale` uses
/// 500 us doubling to 2 ms, which is shorter than the shortest leader
/// migration (1.3 ms of fixed phase costs): every request parked behind a
/// migration is retransmitted, the copies lengthen the migration's forwarding
/// phase and the backlog the next one has to drain, and on about one seed in
/// 300 (170 is one) a pause outlasts the 64 tries and a tenth of the run is
/// abandoned. No frame is lost in this workload, so a timer longer than any
/// migration pause (10.6 ms at worst over 405 seeds) never fires, the
/// feedback is gone and no request can fail (README, "Patient clients").
const RKV_RETRY: RetryPolicy = RetryPolicy {
    timeout: SimTime::from_ms(50),
    cap: SimTime::from_ms(200),
    max_tries: 64,
};

/// Drain windows granted after the arrival window, `ScaleSpec::drain` each
/// (256 ms of simulated time in all): room for one retransmission. A run
/// stops draining as soon as every request has completed.
const RKV_DRAIN_WINDOWS: usize = 64;

impl RkvSteady {
    pub fn new(p: &Params) -> RkvSteady {
        let mut spec = ScaleSpec::planetary(p.seed, 1);
        spec.run = sim_ms(800.0, p.scale, spec.rebalance_every.as_ns() / 1_000_000);
        RkvSteady {
            spec,
            trace_ring: p.trace_ring,
        }
    }
}

impl Workload for RkvSteady {
    type Ready = RkvReady;

    // Mirrors `ipipe_bench::scale::{run_rkv_scale, drive_rkv_scale}` step by
    // step, but for the retry timer and the drain cap; taken apart here so
    // each call can carry a span.
    fn setup(&self, rec: &mut Recorder) -> RkvReady {
        let spec = &self.spec;
        let mut c = rec.span("ClusterBuilder::build", |_| {
            Cluster::builder(CN2350)
                .servers(spec.servers)
                .clients(spec.clients)
                .mode(RuntimeMode::IPipe)
                .seed(spec.seed)
                .shards(spec.shards)
                .obs(cluster_obs(self.trace_ring))
                .build()
        });
        let dep = rec.span("deploy", |_| {
            deploy_multi_rkv(
                &mut c,
                &MultiRkvCfg {
                    groups: spec.groups,
                    replicas: spec.replicas,
                    server_nodes: spec.servers,
                    buckets: spec.buckets,
                    memtable_flush: 8 << 20,
                    heartbeat: None,
                    seed: spec.seed,
                },
            )
        });
        let ledgers = rec.span("install_clients", |_| {
            let stream = AggKvStream::new(
                spec.seed ^ 0xA66,
                spec.users_per_client,
                spec.keys,
                spec.skew,
                spec.read_ratio,
                spec.value_len,
            );
            let mut ledgers = Vec::new();
            for cl in 0..spec.clients {
                let table = Rc::new(RefCell::new(dep.table.clone()));
                let ledger = Rc::new(RefCell::new(vec![0u64; spec.groups]));
                ledgers.push(ledger.clone());
                let gen_table = table.clone();
                c.set_client_open_loop(
                    cl,
                    Box::new(move |rng, token| {
                        let op = stream.op_for(token);
                        let t = gen_table.borrow();
                        let g = t.group_of(op.key());
                        if !op.is_read() {
                            ledger.borrow_mut()[g as usize] += 1;
                        }
                        ClientReq {
                            dst: t.leader_of(g),
                            wire_size: 42 + op.wire_size(),
                            flow: rng.below(1 << 20),
                            payload: Some(Box::new(RkvMsg::Client(op))),
                        }
                    }),
                    OpenLoopCfg {
                        rate_rps: aggregate_rate(spec.users_per_client, spec.per_user_rps),
                        until: spec.run,
                    },
                );
                c.set_client_retry(
                    cl,
                    RKV_RETRY,
                    Some(Box::new(move |token| {
                        Some(Box::new(RkvMsg::Client(stream.op_for(token))))
                    })),
                );
                c.set_client_route_refresh(
                    cl,
                    Box::new(move |old, new| {
                        table.borrow_mut().refresh(old, new);
                    }),
                );
            }
            ledgers
        });
        RkvReady { c, dep, ledgers }
    }

    fn run(&self, r: &mut RkvReady, rec: &mut Recorder) {
        let spec = &self.spec;
        let mut reb = Rebalancer::new(spec.groups, RebalanceCfg::default());
        let mut elapsed = SimTime::ZERO;
        while elapsed < spec.run {
            let step = spec.rebalance_every.min(spec.run.saturating_sub(elapsed));
            rec.span("run_for", |_| r.c.run_for(step));
            elapsed += step;
            rec.span("Rebalancer::step", |_| reb.step(&mut r.c, &r.dep));
        }
        rec.span("drain", |rec| {
            rec.span("run_for", |_| r.c.run_for(spec.drain));
            for _ in 1..RKV_DRAIN_WINDOWS {
                let s = r.c.completions();
                if s.issued() == s.completed() {
                    break;
                }
                rec.span("run_for", |_| r.c.run_for(spec.drain));
            }
        });
    }

    fn finish(&self, r: RkvReady, rec: &mut Recorder) -> SimOutcome {
        let spec = &self.spec;
        let RkvReady {
            mut c,
            dep,
            ledgers,
        } = r;
        let stats = c.completions();
        let drained = stats.issued() == stats.completed();
        let report = rec.span("audit", |_| {
            let mut report = c.audit();
            report.check("scale.drained", CLUSTER_WIDE, drained, || {
                format!(
                    "issued {} != completed {}",
                    stats.issued(),
                    stats.completed()
                )
            });
            let mut writes = vec![0u64; spec.groups];
            for l in &ledgers {
                for (g, n) in l.borrow().iter().enumerate() {
                    writes[g] += n;
                }
            }
            let mut rkv = AuditReport::new(c.now());
            audit_multi_rkv_exactly_once(c.obs().registry(), &dep, &writes, drained, &mut rkv);
            report.merge(rkv);
            report
        });
        report_dirty("rkv-steady", &report);
        let mut out = SimOutcome {
            correct: report.is_clean() && drained,
            attempted: stats.issued(),
            // Abandoned and shed requests never complete, so the shortfall
            // covers all three failure kinds.
            failed: stats.issued() - stats.completed(),
            ..SimOutcome::default()
        };
        out.put(
            "sim_goodput_rps",
            stats.completed() as f64 / spec.run.as_secs_f64(),
        );
        put_latency(&mut out, &stats.histogram());
        let snap = put_cluster_layers(&mut out, &mut c, spec.servers);
        // One `op_for` per first issue and one per retransmission rebuild.
        let retries = counter_sum(&snap, "client.retry.sent");
        out.put("workload.agg.ops", (stats.issued() + retries) as f64);
        put_export(&mut out, &c, rec);
        out
    }
}

// ---- pod-par2 -----------------------------------------------------------

/// `GridSpec::pod64` closed loop for 7500 ms at scale 1, cut up and run as
/// [`PodMode`] says.
pub struct PodPar2 {
    spec: GridSpec,
    run: SimTime,
}

impl PodPar2 {
    pub fn new(p: &Params) -> PodPar2 {
        let spec = match p.pod {
            PodMode::Inline => GridSpec::pod64(p.seed, 2, false),
            PodMode::Serial => GridSpec::pod64(p.seed, 1, false),
            PodMode::Threaded => GridSpec::pod64(p.seed, 2, true),
        };
        PodPar2 {
            spec,
            run: sim_ms(7500.0, p.scale, 1),
        }
    }
}

impl Workload for PodPar2 {
    type Ready = Cluster;

    fn setup(&self, rec: &mut Recorder) -> Cluster {
        // `build_grid` builds and deploys in one call; from outside the two
        // cannot be told apart, so the whole of it is reported as build.
        rec.span("ClusterBuilder::build", |_| build_grid(&self.spec))
    }

    fn run(&self, c: &mut Cluster, rec: &mut Recorder) {
        rec.span("run_for", |_| c.run_for(self.run));
    }

    fn finish(&self, mut c: Cluster, rec: &mut Recorder) -> SimOutcome {
        let report = rec.span("audit", |_| c.audit());
        report_dirty("pod-par2", &report);
        let stats = c.completions();
        let mut out = SimOutcome {
            correct: report.is_clean(),
            attempted: stats.issued(),
            ..SimOutcome::default()
        };
        out.put(
            "sim_goodput_rps",
            stats.completed() as f64 / self.run.as_secs_f64(),
        );
        put_latency(&mut out, &stats.histogram());
        let snap = put_cluster_layers(&mut out, &mut c, self.spec.servers);
        // Closed loop: the requests still in flight when the window ends are
        // not failures; abandoned and shed ones are.
        out.failed = counter_sum(&snap, "client.retry.abandoned") + stats.shed();
        put_export(&mut out, &c, rec);
        out
    }
}

// ---- tcp-lossy ----------------------------------------------------------

/// `TcpOffloadSpec::custom(seed, 1, 8, 768 MiB, 0.02, Nic)` at scale 1 with
/// the budget raised to 20 s sim: 8 bulk streams, every frame crosses the
/// network, 2% seeded loss.
pub struct TcpLossy {
    spec: TcpOffloadSpec,
    trace_ring: bool,
}

pub struct TcpReady {
    c: Cluster,
    eps: Vec<TcpEndpoints>,
    /// Barrier-grain instant each connection was first seen CLOSED.
    closed_at: Vec<Option<SimTime>>,
}

impl TcpLossy {
    pub fn new(p: &Params) -> TcpLossy {
        let bytes = ((768u64 << 20) as f64 * p.scale) as u64;
        let mut spec = TcpOffloadSpec::custom(p.seed, 1, 8, bytes.max(1), 0.02, Placement::Nic);
        spec.budget = SimTime::from_secs(20);
        TcpLossy {
            spec,
            trace_ring: p.trace_ring,
        }
    }
}

impl Workload for TcpLossy {
    type Ready = TcpReady;

    // Mirrors `ipipe_bench::tcp::{run_tcp_offload, drive_tcp_offload}`.
    fn setup(&self, rec: &mut Recorder) -> TcpReady {
        let spec = &self.spec;
        let mut c = rec.span("ClusterBuilder::build", |_| {
            Cluster::builder(CN2350)
                .servers(spec.servers())
                .clients(1)
                .mode(RuntimeMode::IPipe)
                .seed(spec.seed)
                .shards(spec.shards)
                .obs(cluster_obs(self.trace_ring))
                .build()
        });
        let eps = rec.span("deploy", |_| {
            c.set_fault_plan(FaultPlan::new(spec.seed ^ 0x7C9_F00D).with_loss(spec.loss));
            (0..spec.conns)
                .map(|i| {
                    deploy_tcp_pair(
                        &mut c,
                        spec.conn_cfg(i),
                        i,
                        spec.conns + i,
                        i as u64,
                        spec.placement,
                    )
                })
                .collect::<Vec<_>>()
        });
        let closed_at = vec![None; eps.len()];
        TcpReady { c, eps, closed_at }
    }

    fn run(&self, r: &mut TcpReady, rec: &mut Recorder) {
        let spec = &self.spec;
        let mut elapsed = SimTime::ZERO;
        while elapsed < spec.budget && r.closed_at.iter().any(Option::is_none) {
            rec.span("run_for", |_| r.c.run_for(spec.step));
            elapsed += spec.step;
            for (ep, at) in r.eps.iter().zip(&mut r.closed_at) {
                if at.is_none() && ep.tx.closed.get() == 1 {
                    *at = Some(r.c.now());
                }
            }
        }
        // Let stale RTO timers burn off so quiesce is genuinely quiet.
        let drain = r.eps[0].cfg.rto_max;
        rec.span("drain", |rec| {
            rec.span("run_for", |_| r.c.run_for(drain + drain));
        });
    }

    fn finish(&self, r: TcpReady, rec: &mut Recorder) -> SimOutcome {
        let spec = &self.spec;
        let TcpReady {
            mut c,
            eps,
            closed_at,
        } = r;
        let report = rec.span("audit", |_| {
            let mut report = c.audit();
            for ep in &eps {
                audit_tcp_into(&mut report, ep);
            }
            report
        });
        report_dirty("tcp-lossy", &report);
        let all_closed = closed_at.iter().all(Option::is_some);
        // A connection that never closed is charged the whole budget.
        let fcts_us: Vec<f64> = closed_at
            .iter()
            .map(|at| at.unwrap_or(spec.budget).as_us_f64())
            .collect();
        let fct_s = quantile_nearest(&fcts_us, 1.0) / 1e6;
        let mss = eps[0].cfg.mss as u64;
        let offered = spec.bytes_per_conn * spec.conns as u64;
        let delivered: u64 = eps.iter().map(|ep| ep.rx.delivered_bytes.get()).sum();
        let mut out = SimOutcome {
            correct: report.is_clean() && all_closed,
            attempted: offered.div_ceil(mss),
            failed: offered.saturating_sub(delivered).div_ceil(mss),
            ..SimOutcome::default()
        };
        // The unit a TCP user waits for is the flow: goodput counts delivered
        // MSS-sized segments, latency is the per-connection completion time.
        out.put("sim_goodput_rps", delivered as f64 / mss as f64 / fct_s);
        put_latency_of(&mut out, &fcts_us);
        out.put("sim_goodput_gbps", delivered as f64 * 8.0 / fct_s / 1e9);
        out.put("sim_fct_ms", fct_s * 1e3);
        put_cluster_layers(&mut out, &mut c, spec.servers());
        put_export(&mut out, &c, rec);
        out
    }
}

// ---- dse-grid -----------------------------------------------------------

/// `run_dse(&DseSpec::full(seed + i))` for six seeds at scale 1, 2 workers:
/// 1,728 cells of 5 ms sim each.
pub struct DseGrid {
    specs: Vec<DseSpec>,
    first_cells: DseSpec,
}

pub struct DseReady {
    /// Designs enumerated during set-up (what `run_dse` repeats per grid).
    designs: usize,
    results: Vec<DseResult>,
}

impl DseGrid {
    pub fn new(p: &Params) -> DseGrid {
        // Whole grids while the size buys at least one; below that a single
        // grid over fewer designs, with the full grid's per-cell knobs.
        let grids = 6.0 * p.scale;
        let axes = if grids >= 0.75 {
            DesignAxes::full()
        } else if grids >= 0.3 {
            DesignAxes {
                cores: vec![4, 16],
                ..DesignAxes::full()
            }
        } else if grids >= 0.1 {
            DesignAxes::smoke()
        } else {
            DesignAxes::tiny()
        };
        let specs: Vec<DseSpec> = (0..grids.round().max(1.0) as u64)
            .map(|i| DseSpec {
                axes: axes.clone(),
                workers: 2,
                ..DseSpec::full(p.seed + i)
            })
            .collect();
        let mut first_cells = DseSpec::full(p.seed);
        let a = &mut first_cells.axes;
        a.cores.truncate(1);
        a.freq_ghz.truncate(1);
        a.kinds.truncate(1);
        a.mems.truncate(1);
        a.accels.truncate(1);
        first_cells.workers = 1;
        first_cells.warmup = SimTime::ZERO;
        first_cells.measure = SimTime::ZERO;
        first_cells.fig16_requests = 1;
        DseGrid { specs, first_cells }
    }
}

impl Workload for DseGrid {
    type Ready = DseReady;

    /// Everything a design costs before its first simulated event: the
    /// enumeration `run_dse` repeats per grid, then one design with empty
    /// windows, which builds and deploys all five clusters a design's three
    /// cells need and simulates next to nothing.
    fn setup(&self, rec: &mut Recorder) -> DseReady {
        let designs = rec.span("nicsim::dse::enumerate", |_| {
            self.specs[0].axes.enumerate().len()
        });
        rec.span("first_cells", |_| run_dse(&self.first_cells));
        DseReady {
            designs,
            results: Vec::new(),
        }
    }

    fn run(&self, r: &mut DseReady, rec: &mut Recorder) {
        for spec in &self.specs {
            r.results.push(rec.span("run_dse", |_| run_dse(spec)));
        }
    }

    fn finish(&self, r: DseReady, rec: &mut Recorder) -> SimOutcome {
        let cells: Vec<_> = r.results.iter().flat_map(|g| &g.cells).collect();
        let dead = cells
            .iter()
            .filter(|c| c.completed == 0 || !c.p99_us.is_finite() || !c.throughput_rps.is_finite())
            .count();
        let shaped = r
            .results
            .iter()
            .all(|g| g.designs.len() == r.designs && g.cells.len() == 3 * r.designs);
        let mut out = SimOutcome {
            correct: dead == 0 && shaped,
            attempted: cells.len() as u64,
            failed: dead as u64,
            ..SimOutcome::default()
        };
        // The unit a design-space user waits for is the cell: goodput is the
        // mean cell's committed rate, latency the spread of the cells' p99
        // objective over the design space.
        let p99s: Vec<f64> = cells.iter().map(|c| c.p99_us).collect();
        let thr: f64 = cells.iter().map(|c| c.throughput_rps).sum();
        out.put("sim_goodput_rps", thr / cells.len() as f64);
        put_latency_of(&mut out, &p99s);
        out.put("bench.dse.cells", cells.len() as f64);
        out.put(
            "bench.dse.frontier_cells",
            r.results
                .iter()
                .flat_map(|g| &g.frontiers)
                .map(|(_, f)| f.len())
                .sum::<usize>() as f64,
        );
        // The grid's merged snapshot is only public as its canonical JSONL
        // export, so the per-layer counts are read back from those lines.
        let (digest, bytes, counts) = rec.span("export_canonical_jsonl", |_| {
            let mut digest = FNV_OFFSET;
            let mut bytes = 0u64;
            let mut counts = ExportCounts::default();
            for g in &r.results {
                digest = fnv1a_update(digest, g.export.as_bytes());
                bytes += g.export.len() as u64;
                counts.add(&g.export);
            }
            (digest, bytes, counts)
        });
        out.digest = digest;
        out.export_bytes = bytes;
        out.put("ipipe.sched.arrivals", counts.sched_arrivals as f64);
        out.put("netsim.net.packets", counts.net_packets as f64);
        out.put("sim.obs.records", counts.records as f64);
        out
    }
}

/// Per-layer counts summed over every cell of a DSE export.
#[derive(Debug, Default, PartialEq, Eq)]
pub struct ExportCounts {
    pub sched_arrivals: u64,
    pub net_packets: u64,
    pub records: u64,
}

impl ExportCounts {
    /// Fold in one `DseResult::export`. Metric lines are exactly what
    /// `Snapshot::to_jsonl` writes: `{"type":"counter","name":"…","node":N,
    /// "value":V}` and `{"type":"hist","name":"…","node":N,"count":C,…}`.
    pub fn add(&mut self, export: &str) {
        for line in export.lines() {
            let field = |key: &str| -> Option<u64> {
                let rest = &line[line.find(key)? + key.len()..];
                let end = rest.find([',', '}']).unwrap_or(rest.len());
                rest[..end].parse().ok()
            };
            if line.starts_with("{\"type\":\"counter\"") {
                let Some(v) = field("\"value\":") else {
                    continue;
                };
                if line.contains(".sched.arrivals\"") {
                    self.sched_arrivals += v;
                }
                if line.contains(".net.packets\"") {
                    self.net_packets += v;
                }
                if !line.contains("bytes") {
                    self.records += v;
                }
            } else if line.starts_with("{\"type\":\"hist\"") {
                self.records += field("\"count\":").unwrap_or(0);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn export_counts_read_snapshot_jsonl_lines() {
        let export = "\
== dse grid ==
cell c02 rkv thr_rps=1.0 saved_cores=0.1 nic_cores=2 p99_us=3.00 done=4
{\"type\":\"counter\",\"name\":\"dse.c02.rkv.net.packets\",\"node\":0,\"value\":10}
{\"type\":\"counter\",\"name\":\"dse.c02.rkv.net.bytes\",\"node\":0,\"value\":9000}
{\"type\":\"counter\",\"name\":\"dse.c02.rkv.sched.arrivals\",\"node\":1,\"value\":7}
{\"type\":\"gauge\",\"name\":\"dse.c02.rkv.rt.ring.depth\",\"node\":1,\"value\":5}
{\"type\":\"hist\",\"name\":\"dse.c02.rkv.client.latency\",\"node\":0,\"count\":6,\"min_ns\":1,\"max_ns\":2,\"mean_ns\":1,\"p50_ns\":1,\"p99_ns\":2}
";
        let mut c = ExportCounts::default();
        c.add(export);
        assert_eq!(
            c,
            ExportCounts {
                sched_arrivals: 7,
                net_packets: 10,
                records: 10 + 7 + 6,
            }
        );
    }

    #[test]
    fn sim_lengths_scale_in_whole_steps_and_never_reach_zero() {
        assert_eq!(sim_ms(800.0, 1.0, 2), SimTime::from_ms(800));
        assert_eq!(sim_ms(800.0, 1.0 / 12.0, 2), SimTime::from_ms(66));
        assert_eq!(sim_ms(2500.0, 1.0 / 30.0, 1), SimTime::from_ms(83));
        assert_eq!(sim_ms(800.0, 1e-6, 2), SimTime::from_ms(2));
    }
}

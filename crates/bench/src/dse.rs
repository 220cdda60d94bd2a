//! Cost-aware NIC design-space exploration (ROADMAP item 3, DESIGN.md §15).
//!
//! Generalizes Table 3's "which app goes on which card" into an executable
//! sweep: [`ipipe_nicsim::dse::DesignAxes`] synthesizes a grid of
//! hypothetical SmartNICs, each design is crossed with three workload
//! scenarios (the replicated KV store, the Fig 16 scheduler mix, and an
//! IPSec-style crypto NF), every cell runs as an independent seeded
//! simulation through [`parallel_sweep`], and the results reduce into
//! per-workload Pareto frontiers over
//! {committed throughput, host-cores-saved, NIC-core budget, p99} plus an
//! offload recommendation table naming each workload's best configuration
//! and the axis that bottlenecks it. The full grid at seed 17 is the `dse`
//! entry of [`figure::FIGURES`], so `figures_output.txt` pins both tables.
//!
//! Determinism contract: a cell's result is pure in `(DesignPoint, workload,
//! master seed)` — the per-cell seed is hashed from the design's spec-pure
//! id, never from sweep order — and each cell's metrics are prefixed with the
//! cell identity (so same-named metrics from different cells cannot collapse;
//! see `Snapshot::prefixed`) and rendered as the cell ends, then appended in
//! key order. The whole grid export is therefore byte-identical between
//! serial and parallel sweep execution and across shard counts, which
//! `differential::diff_dse_grid` pins.

use crate::apps_harness::{install_app, measure, App, AppRun};
use crate::figure::{self, num, text, Table};
use crate::pareto::{frontier_indices, Sense};
use ipipe::prelude::*;
use ipipe::rt::{ClientReq, Cluster, RuntimeMode};
use ipipe::sched::{Discipline, SchedConfig};
use ipipe_baseline::fig16::run_fig16_obs;
use ipipe_nicsim::accel;
use ipipe_nicsim::dse::{DesignAxes, DesignPoint};
use ipipe_nicsim::spec::{NicSpec, HOST_XEON};
use ipipe_sim::obs::Obs;
use ipipe_sim::sweep::{default_workers, parallel_sweep};

/// The workload scenarios each design is evaluated on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Replicated key-value store (3 servers + 1 client, Fig 13 style),
    /// run under both iPipe and host-DPDK to measure host cores saved.
    Rkv,
    /// The Fig 16 scheduler mix: 8 actors, high-dispersion service times,
    /// hybrid FCFS/DRR at 0.9 load on the design's own core pool.
    Fig16,
    /// IPSec-style crypto NF (1 server + 1 client, §5.7): the cell where
    /// the accelerator axis bites — designs without engines pay the
    /// software-crypto price on their wimpy cores.
    NfIpsec,
}

impl Workload {
    /// All workloads, in grid order.
    pub const ALL: [Workload; 3] = [Workload::Rkv, Workload::Fig16, Workload::NfIpsec];

    /// Short name used in exports and tables.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Rkv => "rkv",
            Workload::Fig16 => "fig16",
            Workload::NfIpsec => "nf-ipsec",
        }
    }
}

/// The four reduction objectives, in [`CellResult::objectives`] order.
pub const OBJECTIVES: [(&str, Sense); 4] = [
    ("thr_rps", Sense::Maximize),
    ("saved_cores", Sense::Maximize),
    ("nic_cores", Sense::Minimize),
    ("p99_us", Sense::Minimize),
];

/// Sweep configuration: the axes plus the per-cell simulation knobs.
#[derive(Debug, Clone)]
pub struct DseSpec {
    /// Design axes to cross.
    pub axes: DesignAxes,
    /// Master seed; per-cell seeds derive from it and the cell identity.
    pub seed: u64,
    /// Sweep worker threads (1 = serial reference).
    pub workers: usize,
    /// Shard count for the cluster-scenario cells (rkv, nf); sharding is a
    /// pure mechanism, so this must not change a single exported byte.
    pub shards: usize,
    /// Cluster warm-up before measurement.
    pub warmup: SimTime,
    /// Cluster measurement window.
    pub measure: SimTime,
    /// Closed-loop outstanding requests for the rkv client.
    pub outstanding: u32,
    /// Arrivals per Fig 16 cell.
    pub fig16_requests: u64,
}

impl DseSpec {
    /// Differential-oracle size: 4 designs x 3 workloads, debug-friendly.
    pub fn tiny(seed: u64) -> DseSpec {
        DseSpec {
            axes: DesignAxes::tiny(),
            seed,
            workers: default_workers(),
            shards: 1,
            warmup: SimTime::from_us(500),
            measure: SimTime::from_ms(2),
            outstanding: 24,
            fig16_requests: 4_000,
        }
    }

    /// The committed-figure size (`figures dse`): 96 designs x 3 workloads.
    pub fn full(seed: u64) -> DseSpec {
        DseSpec {
            axes: DesignAxes::full(),
            seed,
            workers: default_workers(),
            shards: 1,
            warmup: SimTime::from_ms(1),
            measure: SimTime::from_ms(4),
            outstanding: 32,
            fig16_requests: 10_000,
        }
    }
}

/// One grid cell's reduced measurements.
#[derive(Debug, Clone)]
pub struct CellResult {
    /// Index into [`DseResult::designs`].
    pub design: usize,
    /// The design's spec-pure identity.
    pub id: String,
    /// Workload scenario.
    pub workload: Workload,
    /// Committed requests/s over the measurement window.
    pub throughput_rps: f64,
    /// Host cores freed by offloading (DPDK-baseline host cores minus
    /// iPipe host cores for the cluster cells; modeled NIC-absorbed
    /// host-equivalent cores for the fig16 scheduler cell).
    pub host_cores_saved: f64,
    /// The design's NIC-core budget (the cost axis).
    pub nic_cores: f64,
    /// P99 latency in microseconds.
    pub p99_us: f64,
    /// Completions measured.
    pub completed: u64,
}

impl CellResult {
    /// Objective vector in [`OBJECTIVES`] order.
    pub fn objectives(&self) -> Vec<f64> {
        vec![
            self.throughput_rps,
            self.host_cores_saved,
            self.nic_cores,
            self.p99_us,
        ]
    }

    fn export_line(&self) -> String {
        format!(
            "cell {} {} thr_rps={:.1} saved_cores={:.3} nic_cores={:.0} p99_us={:.2} done={}",
            self.id,
            self.workload.name(),
            self.throughput_rps,
            self.host_cores_saved,
            self.nic_cores,
            self.p99_us,
            self.completed,
        )
    }
}

/// One row of the offload recommendation table (Table 3 generalized).
#[derive(Debug, Clone)]
pub struct Recommendation {
    /// Workload being placed.
    pub workload: Workload,
    /// Index into [`DseResult::cells`] of the chosen configuration.
    pub cell: usize,
    /// The grid axis whose next step buys the most throughput (>2% gain),
    /// or "balanced" when no single-axis upgrade helps.
    pub bottleneck: &'static str,
}

/// Everything a DSE run produces.
#[derive(Debug, Clone)]
pub struct DseResult {
    /// The enumerated designs, in grid order.
    pub designs: Vec<DesignPoint>,
    /// One result per (design, workload) cell, in grid order.
    pub cells: Vec<CellResult>,
    /// Per-workload Pareto frontier as indices into `cells`.
    pub frontiers: Vec<(Workload, Vec<usize>)>,
    /// Per-workload best configuration + bottleneck axis.
    pub recommendations: Vec<Recommendation>,
    /// Canonical, wall-clock-free export: cell lines, reduction tables and
    /// every cell's prefixed metrics, rendered as one snapshot of them all
    /// would render. Byte-identical across worker and shard counts.
    pub export: String,
}

impl DseResult {
    /// The `dse` figure: every workload's Pareto frontier, then the offload
    /// recommendation.
    pub fn tables(&self) -> Vec<Table> {
        let mut frontier_rows = Vec::new();
        for (w, members) in &self.frontiers {
            for &ci in members {
                let c = &self.cells[ci];
                frontier_rows.push(vec![
                    text(w.name()),
                    text(&c.id),
                    num(c.throughput_rps, 0),
                    num(c.host_cores_saved, 2),
                    num(c.nic_cores, 0),
                    num(c.p99_us, 1),
                ]);
            }
        }
        let rec_rows = self.recommendations.iter().map(|r| {
            let c = &self.cells[r.cell];
            vec![
                text(r.workload.name()),
                text(&c.id),
                num(c.throughput_rps, 0),
                num(c.host_cores_saved, 2),
                num(c.p99_us, 1),
                text(r.bottleneck),
            ]
        });
        vec![
            Table::new(
                "DSE Pareto frontier {thr, saved, nic cores, p99}",
                ["workload", "design", "thr_rps", "saved", "nic", "p99_us"],
                frontier_rows,
            ),
            Table::new(
                "Offload recommendation (best config per workload + bottleneck axis)",
                [
                    "workload",
                    "design",
                    "thr_rps",
                    "saved",
                    "p99_us",
                    "bottleneck",
                ],
                rec_rows.collect(),
            ),
        ]
    }
}

/// FNV-1a over the cell identity: per-cell seeds depend on *what* the cell
/// is, never on where the sweep put it.
fn cell_seed(base: u64, id: &str, workload: Workload) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in id.as_bytes().iter().chain(workload.name().as_bytes()) {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    base ^ h
}

/// IPSec-gateway timing model for synthesized designs: with engines it pays
/// the Table 3 AES+SHA1 batch-amortized latency; without, it pays the
/// host-software crypto cost rescaled to the design's clock. `host_speedup`
/// is chosen so that a host execution always costs exactly the host-software
/// time — the accelerator axis then shows up as the gap between the two.
struct DseCryptoActor {
    batch: u32,
    use_engines: bool,
    sw_cost: SimTime,
    glue_ns: u64,
    host_speedup: f64,
}

impl DseCryptoActor {
    fn for_spec(spec: &NicSpec, batch: u32) -> DseCryptoActor {
        // Host software time for AES-256-CTR + HMAC-SHA1 on one packet.
        let host_sw = accel::AES.host_software_latency() + accel::SHA1.host_software_latency();
        // Clock ratio between the host Xeon and this design's wimpy cores
        // (microarchitecture held fixed across the grid, so clock is the
        // scaling knob — same convention as the forwarding-cost synthesis).
        let clock_ratio = HOST_XEON.freq_ghz / spec.freq_ghz;
        let glue_ns = (350.0 * 1.2 / spec.freq_ghz).round() as u64;
        if spec.has_accels {
            DseCryptoActor {
                batch,
                use_engines: true,
                sw_cost: SimTime::ZERO,
                glue_ns,
                // §2.2.3: host AES-NI is ~2x slower than the NIC engines.
                host_speedup: 0.5,
            }
        } else {
            DseCryptoActor {
                batch,
                use_engines: false,
                sw_cost: SimTime::from_ns((host_sw.as_ns() as f64 * clock_ratio).round() as u64),
                glue_ns,
                // charged / host_speedup == host_sw: a host run costs the
                // host-software time regardless of the NIC clock.
                host_speedup: 1.0 / clock_ratio,
            }
        }
    }
}

impl ActorLogic for DseCryptoActor {
    fn exec(&mut self, ctx: &mut ActorCtx<'_>, req: Request) {
        if self.use_engines {
            ctx.invoke_accel(&accel::AES, self.batch);
            ctx.invoke_accel(&accel::SHA1, self.batch);
        } else {
            ctx.charge(self.sw_cost);
        }
        ctx.charge_work(self.glue_ns); // ESP encapsulation glue
        ctx.reply(req, 1024, None);
    }

    fn host_speedup(&self) -> f64 {
        self.host_speedup
    }

    fn state_hint_bytes(&self) -> u64 {
        4 * 1024
    }
}

/// Run one cluster-scenario cell (rkv or nf) in `mode`; returns the
/// measurements and the cluster, for the caller to snapshot if it keeps it.
fn run_cluster_mode(
    d: &DesignPoint,
    workload: Workload,
    spec: &DseSpec,
    seed: u64,
    mode: RuntimeMode,
) -> (AppRun, Cluster) {
    let b = Cluster::builder(d.spec)
        .mode(mode)
        .seed(seed)
        .shards(spec.shards.max(1));
    let mut c = match workload {
        Workload::Rkv => {
            let mut c = b.servers(3).clients(1).build();
            install_app(&mut c, App::Rkv, 512, spec.outstanding, seed);
            c
        }
        Workload::NfIpsec => {
            let mut c = b.servers(1).clients(1).build();
            let gw = c.register_actor(
                0,
                "dse-crypto",
                Box::new(DseCryptoActor::for_spec(&d.spec, 16)),
                Placement::Nic,
            );
            c.set_client(
                0,
                Box::new(move |rng, _| ClientReq {
                    dst: gw,
                    wire_size: 1024,
                    flow: rng.below(1 << 20),
                    payload: None,
                }),
                spec.outstanding * 4,
            );
            c
        }
        Workload::Fig16 => unreachable!("fig16 runs through the scheduler harness"),
    };
    (measure(&mut c, spec.warmup, spec.measure), c)
}

/// Run one grid cell: pure in `(design, workload, spec.seed)`. Returns the
/// reduced measurements plus the JSONL sections
/// ([`ipipe_sim::obs::Snapshot::jsonl_sections`]) of the cell's metric
/// snapshot, prefixed with `dse.<design id>.<workload>` so cells cannot
/// collide.
fn run_cell(
    design_ix: usize,
    d: &DesignPoint,
    workload: Workload,
    spec: &DseSpec,
) -> (CellResult, [String; 3]) {
    let id = d.id();
    let seed = cell_seed(spec.seed, &id, workload);
    let (throughput_rps, p99_us, completed, saved, snap) = match workload {
        Workload::Rkv | Workload::NfIpsec => {
            // The DPDK baseline only prices the host cores iPipe saves, so
            // it runs first and its cluster is dropped unsnapshotted.
            let (dpdk, _) = run_cluster_mode(d, workload, spec, seed, RuntimeMode::HostDpdk);
            let (run, c) = run_cluster_mode(d, workload, spec, seed, RuntimeMode::IPipe);
            (
                run.throughput_rps,
                run.p99.as_us_f64(),
                run.completed,
                (dpdk.host_cores[0] - run.host_cores[0]).max(0.0),
                c.snapshot(),
            )
        }
        Workload::Fig16 => {
            use ipipe_workload::service::{fig16_distribution, Dispersion, Fig16Card};
            let obs = Obs::disabled();
            let cfg = SchedConfig::for_nic(&d.spec)
                .with_discipline(Discipline::Hybrid)
                .no_migration();
            let dist = fig16_distribution(Fig16Card::LiquidIo, Dispersion::High);
            let load = 0.9;
            let pt = run_fig16_obs(&d.spec, dist, cfg, load, 8, spec.fig16_requests, seed, &obs);
            let thr = pt.completed as f64 / (pt.wall.as_ns().max(1) as f64 / 1e9);
            // The scheduler cell has no host baseline; the NIC absorbs the
            // whole mix, so credit the host-equivalent compute it soaked up:
            // utilization x cores x clock ratio.
            let saved = load * d.spec.cores as f64 * d.spec.freq_ghz / HOST_XEON.freq_ghz;
            (
                thr,
                pt.p99.as_us_f64(),
                pt.completed,
                saved,
                obs.registry().snapshot(),
            )
        }
    };
    let cell = CellResult {
        design: design_ix,
        id: id.clone(),
        workload,
        throughput_rps,
        host_cores_saved: saved,
        nic_cores: d.spec.cores as f64,
        p99_us,
        completed,
    };
    let sections = snap
        .prefixed(&format!("dse.{}.{}", id, workload.name()))
        .jsonl_sections();
    (cell, sections)
}

/// Append every cell's metric sections (`sections[i]` is `cells[i]`'s) to
/// `out` as `to_jsonl` renders the merge of all cells' prefixed snapshots:
/// every counter line, then every gauge line, then every histogram line, in
/// key order. Each key of a cell starts with the cell's prefix
/// `dse.{id}.{workload}.`; when no prefix starts another, the merge is a
/// disjoint union and each cell's keys are contiguous in key order, so
/// sorting the cells by prefix orders their lines. Each section is dropped
/// as it is appended.
///
/// # Panics
/// If two cells share a prefix (a repeated axis value): a merge would have
/// summed their metrics.
fn append_metrics(out: &mut String, cells: &[CellResult], sections: Vec<[String; 3]>) {
    let mut sorted: Vec<(String, [String; 3])> = cells
        .iter()
        .map(|c| format!("dse.{}.{}.", c.id, c.workload.name()))
        .zip(sections)
        .collect();
    sorted.sort_unstable_by(|a, b| a.0.cmp(&b.0));
    // Sorted, a prefix that starts any later one starts the next one too.
    for pair in sorted.windows(2) {
        let (a, b) = (&pair[0].0, &pair[1].0);
        assert!(
            !b.starts_with(a.as_str()),
            "two DSE cells share the key prefix {a}"
        );
    }
    out.reserve(sorted.iter().flat_map(|(_, s)| s).map(String::len).sum());
    for k in 0..3 {
        for (_, cell) in &mut sorted {
            out.push_str(&std::mem::take(&mut cell[k]));
        }
    }
}

/// Does `b` differ from `a` along exactly one axis, in the direction that
/// could relieve a bottleneck? Returns that axis.
fn single_axis_upgrade(a: &NicSpec, b: &NicSpec) -> Option<&'static str> {
    let diffs: [(&'static str, bool, bool); 5] = [
        ("cores", b.cores != a.cores, b.cores > a.cores),
        ("freq", b.freq_ghz != a.freq_ghz, b.freq_ghz > a.freq_ghz),
        // Either path flavour may win; a flip is always a candidate.
        ("path", b.kind != a.kind, b.kind != a.kind),
        ("mem", b.mem.dram != a.mem.dram, b.mem.dram < a.mem.dram),
        (
            "accel",
            b.has_accels != a.has_accels,
            b.has_accels && !a.has_accels,
        ),
    ];
    let mut upgrade = None;
    for (axis, differs, better) in diffs {
        if differs {
            if upgrade.is_some() || !better {
                return None; // multi-axis move, or a downgrade
            }
            upgrade = Some(axis);
        }
    }
    upgrade
}

/// The axis whose single-step upgrade buys the chosen cell the most
/// throughput (if >2%), else "balanced".
fn bottleneck_axis(cells: &[CellResult], designs: &[DesignPoint], chosen: usize) -> &'static str {
    let c = &cells[chosen];
    let spec = &designs[c.design].spec;
    let mut best: (&'static str, f64) = ("balanced", 0.02);
    // Fixed axis-order scan with strict improvement keeps the result
    // deterministic under ties.
    for axis in ["cores", "freq", "path", "mem", "accel"] {
        let gain = cells
            .iter()
            .filter(|o| {
                o.workload == c.workload
                    && single_axis_upgrade(spec, &designs[o.design].spec) == Some(axis)
            })
            .map(|o| (o.throughput_rps - c.throughput_rps) / c.throughput_rps.max(1.0))
            .fold(f64::NEG_INFINITY, f64::max);
        if gain > best.1 {
            best = (axis, gain);
        }
    }
    best.0
}

/// Run the whole grid and reduce it.
pub fn run_dse(spec: &DseSpec) -> DseResult {
    let designs = spec.axes.enumerate();
    let inputs: Vec<(usize, &DesignPoint, Workload)> = designs
        .iter()
        .enumerate()
        .flat_map(|(i, d)| Workload::ALL.map(|w| (i, d, w)))
        .collect();
    let results = parallel_sweep(&inputs, spec.workers.max(1), |_, &(i, d, w)| {
        run_cell(i, d, w, spec)
    });

    let (cells, sections): (Vec<CellResult>, Vec<[String; 3]>) = results.into_iter().unzip();

    let senses: Vec<Sense> = OBJECTIVES.iter().map(|&(_, s)| s).collect();
    let mut frontiers = Vec::new();
    for w in Workload::ALL {
        let members: Vec<usize> = (0..cells.len())
            .filter(|&i| cells[i].workload == w)
            .collect();
        let points: Vec<Vec<f64>> = members.iter().map(|&i| cells[i].objectives()).collect();
        let local = frontier_indices(&points, &senses);
        frontiers.push((w, local.into_iter().map(|j| members[j]).collect::<Vec<_>>()));
    }

    let mut recommendations = Vec::new();
    for (w, members) in &frontiers {
        // Cost-aware score: throughput per NIC core, ties broken by lower
        // p99 then lexicographically smaller id — fully deterministic.
        let Some(&chosen) = members.iter().max_by(|&&a, &&b| {
            let (ca, cb) = (&cells[a], &cells[b]);
            let sa = ca.throughput_rps / ca.nic_cores.max(1.0);
            let sb = cb.throughput_rps / cb.nic_cores.max(1.0);
            sa.partial_cmp(&sb)
                .expect("finite scores")
                .then(cb.p99_us.partial_cmp(&ca.p99_us).expect("finite p99"))
                .then(cb.id.cmp(&ca.id))
        }) else {
            continue;
        };
        recommendations.push(Recommendation {
            workload: *w,
            cell: chosen,
            bottleneck: bottleneck_axis(&cells, &designs, chosen),
        });
    }

    let mut export = format!(
        "== dse grid ==\nseed={} designs={} workloads={} cells={}\n",
        spec.seed,
        designs.len(),
        Workload::ALL.len(),
        cells.len()
    );
    for c in &cells {
        export.push_str(&c.export_line());
        export.push('\n');
    }
    let mut result = DseResult {
        designs,
        cells,
        frontiers,
        recommendations,
        export: String::new(),
    };
    export.push_str(&figure::render(&result.tables()));
    append_metrics(&mut export, &result.cells, sections);
    result.export = export;
    result
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tiny_grid_runs_and_reduces() {
        let r = run_dse(&DseSpec::tiny(5));
        assert_eq!(r.designs.len(), 4);
        assert_eq!(r.cells.len(), 12);
        for c in &r.cells {
            assert!(
                c.throughput_rps > 0.0 && c.completed > 50,
                "{} {} produced no work: {c:?}",
                c.id,
                c.workload.name()
            );
            assert!(c.p99_us.is_finite() && c.p99_us > 0.0);
        }
        // Each workload has a non-empty frontier and a recommendation with
        // a named (or explicitly balanced) bottleneck.
        assert_eq!(r.frontiers.len(), 3);
        for (w, f) in &r.frontiers {
            assert!(!f.is_empty(), "{} frontier empty", w.name());
            for &ci in f {
                assert_eq!(r.cells[ci].workload, *w);
            }
        }
        assert_eq!(r.recommendations.len(), 3);

        // Per-cell snapshot tagging: every design's rkv metrics survive the
        // merge under their own prefix (no cross-cell collapse).
        for d in &r.designs {
            let key = format!("\"dse.{}.rkv.", d.id());
            assert!(r.export.contains(&key), "missing {key} in export");
        }
    }

    /// The per-cell rendering against its oracle: merge every cell's
    /// prefixed snapshot and render the merge. The cells record the same
    /// names on the same nodes; their ids differ only in the last field,
    /// and grid order (design, then workload) is not key order.
    #[test]
    fn per_cell_rendering_matches_the_merged_snapshot() {
        let mut cells = Vec::new();
        let mut sections = Vec::new();
        let mut merged = ipipe_sim::obs::Snapshot::default();
        for (design, id) in ["c04-f1200-onp-m115-acc", "c04-f1200-onp-m115-soft"]
            .into_iter()
            .enumerate()
        {
            for workload in Workload::ALL {
                let n = cells.len() as u64 + 1;
                let reg = ipipe_sim::obs::Registry::new();
                for node in 0..2 {
                    reg.counter_on("sched.runs", node)
                        .add(n * 10 + u64::from(node));
                    reg.counter_on("rt.done", node).add(n);
                    reg.gauge_on("sched.queue", node).set(-(n as i64));
                    reg.hist_on("rkv.latency", node)
                        .record(SimTime::from_us(n * 7 + u64::from(node)));
                }
                let snap = reg
                    .snapshot()
                    .prefixed(&format!("dse.{id}.{}", workload.name()));
                merged.merge(&snap);
                sections.push(snap.jsonl_sections());
                cells.push(CellResult {
                    design,
                    id: id.to_string(),
                    workload,
                    throughput_rps: 0.0,
                    host_cores_saved: 0.0,
                    nic_cores: 4.0,
                    p99_us: 0.0,
                    completed: 0,
                });
            }
        }
        let mut out = String::new();
        append_metrics(&mut out, &cells, sections);
        assert_eq!(out, merged.to_jsonl());
    }

    /// A repeated axis value gives two cells one identity; a merge would
    /// have summed their counters without a word.
    #[test]
    #[should_panic(expected = "two DSE cells share the key prefix dse.c04-f1200-onp-m115-acc.")]
    fn a_repeated_axis_value_is_refused() {
        let mut axes = DesignAxes::tiny();
        axes.cores = vec![4, 4];
        axes.kinds = vec![ipipe_nicsim::NicKind::OnPath];
        run_dse(&DseSpec {
            axes,
            warmup: SimTime::from_us(100),
            measure: SimTime::from_us(200),
            fig16_requests: 200,
            ..DseSpec::tiny(3)
        });
    }

    #[test]
    fn frontier_members_are_mutually_nondominated() {
        let senses: Vec<Sense> = OBJECTIVES.iter().map(|&(_, s)| s).collect();
        let r = run_dse(&DseSpec::tiny(11));
        for (_, members) in &r.frontiers {
            for &a in members {
                for &b in members {
                    assert!(!crate::pareto::dominates(
                        &r.cells[a].objectives(),
                        &r.cells[b].objectives(),
                        &senses
                    ));
                }
            }
        }
    }

    #[test]
    fn accelerators_matter_for_the_crypto_nf() {
        // Same design with and without engines: the soft variant must not
        // beat the accelerated one on nf throughput (the axis must bite).
        let mut axes = DesignAxes::tiny();
        axes.accels = vec![true, false];
        axes.cores = vec![8];
        axes.kinds = vec![ipipe_nicsim::NicKind::OnPath];
        let spec = DseSpec {
            axes,
            ..DseSpec::tiny(3)
        };
        let r = run_dse(&spec);
        let nf = |accel: bool| {
            r.cells
                .iter()
                .find(|c| {
                    c.workload == Workload::NfIpsec && r.designs[c.design].spec.has_accels == accel
                })
                .unwrap()
                .throughput_rps
        };
        assert!(
            nf(true) > nf(false),
            "engines {} !> software {}",
            nf(true),
            nf(false)
        );
    }
}

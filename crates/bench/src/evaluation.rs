//! The §5 evaluation experiments: Figs 13–18, the Floem comparison (§5.6)
//! and the network functions (§5.7). Each table is built from a function
//! that runs one of its measurements under the figure's own parameters, so
//! a test can check a claim on the numbers the figure prints.

use crate::apps_harness::{measure, run_app, App, AppRun, FIG13_ROLES};
use crate::figure::{bytes, num, text, Cell, Table};
use ipipe::prelude::*;
use ipipe::rt::{ClientReq, Cluster, RuntimeMode};
use ipipe::sched::Discipline;
use ipipe_apps::nf::actors::{FirewallActor, IpsecActor, NfMsg};
use ipipe_apps::rkv::actors::{client_gen as rkv_client, deploy_rkv, RkvMsg};
use ipipe_apps::rta::actors::{client_gen as rta_client, deploy_rta};
use ipipe_baseline::fig16::{run_fig16, run_fig16_obs, Fig16Point};
use ipipe_baseline::floem::deploy_floem_rta;
use ipipe_nicsim::spec::NicSpec;
use ipipe_nicsim::{CN2350, CN2360, STINGRAY_PS225};
use ipipe_sim::obs::Obs;
use ipipe_sim::rng::ServiceDist;
use ipipe_sim::sweep::{default_workers, parallel_sweep};
use ipipe_workload::kv::KvWorkload;
use ipipe_workload::rta::RtaWorkload;
use ipipe_workload::service::{fig16_distribution, Dispersion, Fig16Card};
use ipipe_workload::ycsb::{YcsbMix, YcsbWorkload};

/// Simulated warm-up/measure windows for the application experiments.
const WARMUP: SimTime = SimTime::from_ms(3);
const MEASURE: SimTime = SimTime::from_ms(12);

fn system(mode: RuntimeMode) -> &'static str {
    if mode == RuntimeMode::IPipe {
        "iPipe"
    } else {
        "DPDK"
    }
}

fn us(t: SimTime, precision: usize) -> Cell {
    num(t.as_us_f64(), precision)
}

/// One Fig 13 measurement: `app` at max throughput (256 outstanding).
pub fn fig13_run(spec: NicSpec, app: App, mode: RuntimeMode, size: u32) -> AppRun {
    run_app(app, spec, mode, size, 256, WARMUP, MEASURE, 7)
}

/// Fig 13: host cores used by DPDK vs iPipe per role and packet size.
pub fn fig13(spec: NicSpec, label: &str) -> Table {
    let mut rows = Vec::new();
    for (role, app, node) in FIG13_ROLES {
        for size in [64u32, 256, 512, 1024] {
            let dpdk = fig13_run(spec, app, RuntimeMode::HostDpdk, size);
            let ipipe = fig13_run(spec, app, RuntimeMode::IPipe, size);
            rows.push(vec![
                text(role),
                bytes(size),
                num(dpdk.host_cores[node], 2),
                num(ipipe.host_cores[node], 2),
                num(dpdk.host_cores[node] - ipipe.host_cores[node], 2),
                num(dpdk.throughput_rps / 1e6, 2),
                num(ipipe.throughput_rps / 1e6, 2),
            ]);
        }
    }
    Table::new(
        format!(
            "Fig 13 ({label}): host cores used at max throughput — {}",
            spec.name
        ),
        [
            "role",
            "size",
            "DPDK",
            "iPipe",
            "saved",
            "DPDK-Mrps",
            "iPipe-Mrps",
        ],
        rows,
    )
}

/// One Fig 14/15 measurement: `app` on 512 B requests at `outstanding`.
pub fn fig1415_run(spec: NicSpec, app: App, mode: RuntimeMode, outstanding: u32) -> AppRun {
    run_app(app, spec, mode, 512, outstanding, WARMUP, MEASURE, 11)
}

/// Figs 14/15: latency vs per-core throughput at 512 B.
pub fn fig1415(spec: NicSpec, label: &str) -> Table {
    let mut rows = Vec::new();
    for app in [App::Rta, App::Dt, App::Rkv] {
        for mode in [RuntimeMode::HostDpdk, RuntimeMode::IPipe] {
            for outstanding in [4u32, 16, 64, 128] {
                let r = fig1415_run(spec, app, mode, outstanding);
                rows.push(vec![
                    text(app.name()),
                    text(system(mode)),
                    num(f64::from(outstanding), 0),
                    num(r.per_core_mops(), 3),
                    us(r.mean, 1),
                    us(r.p99, 1),
                ])
            }
        }
    }
    Table::new(
        format!(
            "Fig 14/15 ({label}): latency vs per-core throughput, 512B — {}",
            spec.name
        ),
        ["app", "system", "outst", "Mop/s/core", "avg(us)", "p99(us)"],
        rows,
    )
}

/// Arrivals per Fig 16 cell; `quick` is the smoke size.
fn fig16_requests(quick: bool) -> u64 {
    if quick {
        20_000
    } else {
        60_000
    }
}

/// Fig 16: the scheduler sweep (both cards, both dispersions, three
/// disciplines). The 72 grid points are independent seeded simulations, so
/// they fan out across cores via [`parallel_sweep`]; results come back in
/// input order, keeping the table identical to a serial run.
pub fn fig16(quick: bool) -> Table {
    let requests = fig16_requests(quick);
    let loads = [0.1, 0.3, 0.5, 0.7, 0.8, 0.9];
    let cells: [(&NicSpec, Fig16Card, Dispersion, &str); 4] = [
        (
            &CN2350,
            Fig16Card::LiquidIo,
            Dispersion::Low,
            "(a) low disp, CN2350",
        ),
        (
            &CN2350,
            Fig16Card::LiquidIo,
            Dispersion::High,
            "(b) high disp, CN2350",
        ),
        (
            &STINGRAY_PS225,
            Fig16Card::Stingray,
            Dispersion::Low,
            "(c) low disp, Stingray",
        ),
        (
            &STINGRAY_PS225,
            Fig16Card::Stingray,
            Dispersion::High,
            "(d) high disp, Stingray",
        ),
    ];
    let mut points = Vec::new();
    for (spec, card, disp, label) in cells {
        let dist = fig16_distribution(card, disp);
        for &load in &loads {
            for d in [
                Discipline::FcfsOnly,
                Discipline::DrrOnly,
                Discipline::Hybrid,
            ] {
                points.push((spec, dist, d, load, label));
            }
        }
    }
    let p99s = parallel_sweep(
        &points,
        default_workers(),
        |_, &(spec, dist, d, load, _)| run_fig16(spec, dist, d, load, 8, requests, 2).p99,
    );
    let mut rows = Vec::new();
    for (chunk, ps) in points.chunks(3).zip(p99s.chunks(3)) {
        let (_, _, _, load, label) = chunk[0];
        let mut cols = vec![text(label), num(load, 1)];
        cols.extend(ps.iter().map(|&p| us(p, 1)));
        rows.push(cols);
    }
    Table::new(
        "Fig 16: P99 tail latency (us) vs load — FCFS / DRR / iPipe hybrid",
        ["subplot", "load", "FCFS", "DRR", "iPipe"],
        rows,
    )
}

/// Fig 17: host CPU usage of host-only RKV with and without the iPipe
/// runtime, at increasing network load.
pub fn fig17() -> Table {
    let mut rows = Vec::new();
    for outstanding in [2u32, 4, 8, 16, 48] {
        let run = |mode| {
            run_app(
                App::Rkv,
                CN2350,
                mode,
                512,
                outstanding,
                WARMUP,
                MEASURE,
                13,
            )
        };
        let (dpdk, with) = (run(RuntimeMode::HostDpdk), run(RuntimeMode::HostIPipe));
        let mut row = vec![text(format!("outst={outstanding}"))];
        for node in [0, 1] {
            let without = dpdk.host_cores[node] * 100.0;
            // Normalize CPU by achieved throughput (the paper holds
            // throughput equal; the closed loop holds offered load equal
            // instead).
            let normalized = with.host_cores[node] * 100.0 / with.throughput_rps.max(1.0)
                * dpdk.throughput_rps.max(1.0);
            row.extend([
                num(without, 0),
                num(normalized, 0),
                num((normalized / without.max(0.001) - 1.0) * 100.0, 1).unit("%"),
            ]);
        }
        rows.push(row);
    }
    Table::new(
        "Fig 17: host CPU (%) of host-only RKV, with vs without iPipe runtime",
        [
            "offered",
            "leader w/o",
            "leader w/",
            "ovh",
            "follower w/o",
            "follower w/",
            "ovh",
        ],
        rows,
    )
}

/// Fig 18: forced-migration elapsed-time breakdown for 8 actors.
pub fn fig18() -> Table {
    // Autonomous migration off: the forced migrations are the experiment.
    let cfg = SchedConfig::for_nic(&CN2350).no_migration();
    let mut c = Cluster::builder(CN2350)
        .servers(3)
        .clients(1)
        .sched(cfg)
        .seed(21)
        .build();
    // Deploy all three applications so all 8 actor kinds exist.
    let rta = deploy_rta(&mut c, &[0, 1, 2]);
    let dt = ipipe_apps::dt::actors::deploy_dt(&mut c, 0, &[1, 2], 1 << 20);
    let rkv = deploy_rkv(&mut c, &[1, 2, 0], 8 << 20);
    // Drive RKV + RTA traffic (the DT actors migrate from warm state too).
    let mut kv = rkv_client(rkv.consensus[0], 512, KvWorkload::paper_default(512, 3));
    let mut tuples = rta_client(vec![rta.filters[0]], 512, RtaWorkload::paper_default(3));
    let mut flip = false;
    c.set_client(
        0,
        Box::new(move |rng, token| {
            flip = !flip;
            if flip {
                kv(rng, token)
            } else {
                tuples(rng, token)
            }
        }),
        64,
    );
    c.run_for(SimTime::from_ms(5)); // warm up (paper: 5s; scaled down)
    let targets = [
        ("Filter", rta.filters[0]),
        ("Count", rta.topo.counter[0]),
        ("Rank", rta.topo.ranker[0]),
        ("Coord.", dt.coordinator),
        ("Parti.", dt.participants[0]),
        ("Consensus", rkv.consensus[0]),
        ("LSMmem.", rkv.memtable[0]),
        ("Aggregator", rta.aggregator),
    ];
    let mut rows = Vec::new();
    for (name, addr) in targets {
        let ok = c.force_migrate(addr);
        c.run_for(SimTime::from_ms(60));
        let reports = c.migration_reports(addr.node as usize);
        let mut row = vec![text(name)];
        match reports.iter().rev().find(|r| r.actor == addr.actor) {
            Some(r) => {
                row.extend(r.phase_times.iter().map(|p| num(p.as_ms_f64(), 2)));
                row.extend([
                    num(r.total().as_ms_f64(), 2),
                    num((r.state_bytes / 1024) as f64, 0).unit("KB"),
                    num(r.requests_forwarded as f64, 0),
                ]);
            }
            None => row.push(text(format!(
                "skipped (ok={ok}, loc={:?})",
                c.actor_location(addr)
            ))),
        }
        rows.push(row);
    }
    Table::new(
        "Fig 18: forced actor migration, per-phase elapsed time (ms)",
        [
            "actor", "phase1", "phase2", "phase3", "phase4", "total", "state", "fwd",
        ],
        rows,
    )
}

/// One §5.6 measurement: the RTA pipeline on one server under Floem's
/// static placement or iPipe's.
pub fn floem_run(packet: u32, floem: bool) -> AppRun {
    let mut c = Cluster::builder(CN2350)
        .servers(1)
        .clients(1)
        .seed(31)
        .build();
    let dep = if floem {
        deploy_floem_rta(&mut c, &[0])
    } else {
        deploy_rta(&mut c, &[0])
    };
    let gen = rta_client(dep.filters, packet, RtaWorkload::paper_default(5));
    c.set_client(0, gen, 96);
    measure(&mut c, WARMUP, MEASURE)
}

/// §5.6's metric, Gbps per host core. Both systems pin one host
/// communication core, so the divisor is floored there.
pub fn gbps_per_host_core(run: &AppRun, packet: u32) -> f64 {
    run.gbps(packet) / run.host_cores[0].max(1.0)
}

/// §5.6: Floem vs iPipe per-core throughput on RTA.
pub fn floem() -> Table {
    let rows = [64u32, 512, 1024]
        .iter()
        .map(|&packet| {
            let per_core = |floem| gbps_per_host_core(&floem_run(packet, floem), packet);
            let (floem, ipipe) = (per_core(true), per_core(false));
            vec![
                bytes(packet),
                num(floem, 2),
                num(ipipe, 2),
                num((ipipe / floem - 1.0) * 100.0, 1).unit("%"),
            ]
        })
        .collect();
    Table::new(
        "§5.6: RTA per-core throughput (Gbps/host-core), Floem vs iPipe",
        ["packet", "Floem", "iPipe", "iPipe gain"],
        rows,
    )
}

/// One §5.7 measurement: `actor` alone on one `spec` NIC, fed 1 KB packets
/// carrying what `payload` draws.
fn nf_run(
    spec: NicSpec,
    seed: u64,
    name: &'static str,
    actor: Box<dyn ActorLogic>,
    mut payload: impl FnMut(&mut ipipe_sim::DetRng) -> NfMsg + 'static,
    outstanding: u32,
) -> AppRun {
    let mut c = Cluster::builder(spec)
        .servers(1)
        .clients(1)
        .seed(seed)
        .build();
    let dst = c.register_actor(0, name, actor, Placement::Nic);
    c.set_client(
        0,
        Box::new(move |rng, _| {
            let msg = payload(rng);
            ClientReq {
                dst,
                wire_size: 1024,
                flow: rng.below(1 << 20),
                payload: Some(Box::new(msg)),
            }
        }),
        outstanding,
    );
    measure(&mut c, SimTime::from_ms(2), SimTime::from_ms(8))
}

/// §5.7 firewall: 8K rules, 1 KB packets, `outstanding` in flight.
pub fn firewall_run(outstanding: u32) -> AppRun {
    let mut traffic = FirewallActor::traffic(8192, 1);
    let actor = Box::new(FirewallActor::new(8192, 1));
    let classify = move |rng: &mut ipipe_sim::DetRng| NfMsg::Classify(traffic(rng));
    nf_run(CN2350, 41, "firewall", actor, classify, outstanding)
}

/// §5.7 IPSec gateway: 1 KB packets on `spec`, 128 in flight.
pub fn ipsec_run(spec: NicSpec) -> AppRun {
    let actor = Box::new(IpsecActor::new(16));
    let encrypt = |_: &mut ipipe_sim::DetRng| NfMsg::Encrypt(vec![0x5A; 960]);
    nf_run(spec, 43, "ipsec", actor, encrypt, 128)
}

/// §5.7: firewall latency under load and IPSec bandwidth.
pub fn nf() -> Table {
    let row = |nf: String, config: String, r: AppRun| {
        vec![
            text(nf),
            text(config),
            us(r.mean, 2).unit("us avg"),
            us(r.p99, 2).unit("us p99"),
            num(r.gbps(1024), 2).unit(" Gbps"),
        ]
    };
    let mut rows = Vec::new();
    for outstanding in [2u32, 16, 64, 192] {
        let config = format!("outst={outstanding}");
        rows.push(row("Firewall-8K".into(), config, firewall_run(outstanding)));
    }
    for (spec, label) in [(CN2350, "10GbE"), (CN2360, "25GbE")] {
        rows.push(row(
            format!("IPSec-{label}"),
            "1KB pkts".into(),
            ipsec_run(spec),
        ));
    }
    Table::new(
        "§5.7: network functions on iPipe",
        ["NF", "config", "avg", "p99", "throughput"],
        rows,
    )
}

/// One YCSB measurement: the 3-replica store under `mix`, 48 outstanding.
pub fn ycsb_run(mix: YcsbMix, mode: RuntimeMode) -> AppRun {
    let mut c = Cluster::builder(CN2350)
        .servers(3)
        .clients(1)
        .mode(mode)
        .seed(0x4C5B)
        .build();
    let leader = deploy_rkv(&mut c, &[0, 1, 2], 8 << 20).consensus[0];
    let mut wl = YcsbWorkload::new(mix, 1_000_000, 128, 1);
    c.set_client(
        0,
        Box::new(move |rng, _| {
            let op = wl.next_op();
            ClientReq {
                dst: leader,
                wire_size: (43 + op.wire_size()).min(512),
                flow: rng.below(1 << 20),
                payload: Some(Box::new(RkvMsg::Client(op.as_kv_op()))),
            }
        }),
        48,
    );
    measure(&mut c, WARMUP, MEASURE)
}

/// Extension: the RKV store under the six YCSB mixes (beyond the paper's
/// single 95/5 point), DPDK vs iPipe.
pub fn ycsb() -> Table {
    let mixes = [
        ("A 50/50", YcsbMix::A),
        ("B 95/5", YcsbMix::B),
        ("C read-only", YcsbMix::C),
        ("D read-latest", YcsbMix::D),
        ("F rmw", YcsbMix::F),
    ];
    let rows = mixes
        .iter()
        .map(|&(name, mix)| {
            let mut row = vec![text(name)];
            for mode in [RuntimeMode::HostDpdk, RuntimeMode::IPipe] {
                let r = ycsb_run(mix, mode);
                row.extend([
                    num(r.throughput_rps / 1e6, 2),
                    us(r.p99, 0),
                    num(r.host_cores[0], 2),
                ]);
            }
            row
        })
        .collect();
    Table::new(
        "Extension: RKV under YCSB mixes (Mrps / p99 us / leader host cores)",
        [
            "mix",
            "DPDK-Mrps",
            "p99",
            "cores",
            "iPipe-Mrps",
            "p99",
            "cores",
        ],
        rows,
    )
}

/// One ablation point: the Fig 16 harness (8 actors, seed 2) under `cfg`.
fn ablation_point(
    spec: &NicSpec,
    dist: ServiceDist,
    cfg: SchedConfig,
    load: f64,
    quick: bool,
) -> Fig16Point {
    let requests = fig16_requests(quick);
    run_fig16_obs(spec, dist, cfg, load, 8, requests, 2, &Obs::disabled())
}

/// Ablation: EWMA weight sensitivity of the Fig 16 hybrid.
pub fn ablate_ewma(quick: bool) -> Table {
    let dist = fig16_distribution(Fig16Card::LiquidIo, Dispersion::High);
    let rows = [0.01, 0.05, 0.2, 0.5]
        .iter()
        .map(|&alpha| {
            let mut cfg = SchedConfig::for_nic(&CN2350).no_migration();
            cfg.ewma_alpha = alpha;
            let p = ablation_point(&CN2350, dist, cfg, 0.9, quick);
            vec![text(format!("{alpha}")), us(p.mean, 1), us(p.p99, 1)]
        })
        .collect();
    Table::new(
        "Ablation: bookkeeping EWMA weight (hybrid, high dispersion, load 0.9)",
        ["alpha", "mean(us)", "p99(us)"],
        rows,
    )
}

/// Ablation: off-path shared-queue emulation (§3.2.6) — software shuffle
/// layer vs an IOKernel-style dedicated dispatcher core, on the Stingray.
pub fn ablate_offpath(quick: bool) -> Table {
    let dist = fig16_distribution(Fig16Card::Stingray, Dispersion::High);
    let rows = [0.5, 0.7, 0.9]
        .iter()
        .map(|&load| {
            let shuffle = SchedConfig::for_nic(&STINGRAY_PS225).no_migration();
            let iok = shuffle.with_iokernel();
            let a = ablation_point(&STINGRAY_PS225, dist, shuffle, load, quick);
            let b = ablation_point(&STINGRAY_PS225, dist, iok, load, quick);
            vec![
                num(load, 1),
                us(a.mean, 1),
                us(a.p99, 1),
                us(b.mean, 1),
                us(b.p99, 1),
            ]
        })
        .collect();
    Table::new(
        "Ablation: off-path dispatch (Stingray, hybrid, high dispersion)",
        [
            "load",
            "shuffle-mean",
            "shuffle-p99",
            "iokernel-mean",
            "iokernel-p99",
        ],
        rows,
    )
}

/// Ablation: DRR quantum choice — adaptive (per-actor size) vs fixed values.
pub fn ablate_quantum(quick: bool) -> Table {
    let dist = fig16_distribution(Fig16Card::LiquidIo, Dispersion::High);
    let quanta = [
        ("adaptive (paper)", None),
        ("fixed 1us", Some(SimTime::from_us(1))),
        ("fixed 10us", Some(SimTime::from_us(10))),
        ("fixed 100us", Some(SimTime::from_us(100))),
    ];
    let rows = quanta
        .iter()
        .map(|&(label, quantum)| {
            let mut cfg = SchedConfig::for_nic(&CN2350)
                .with_discipline(Discipline::DrrOnly)
                .no_migration();
            cfg.fixed_quantum = quantum;
            let p = ablation_point(&CN2350, dist, cfg, 0.9, quick);
            vec![text(label), us(p.mean, 1), us(p.p99, 1)]
        })
        .collect();
    Table::new(
        "Ablation: DRR quantum (pure DRR, high dispersion, load 0.9)",
        ["quantum", "mean(us)", "p99(us)"],
        rows,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Fig 13's claim on its 25GbE RKV rows at 512B: the leader keeps 12
    /// host cores busy under DPDK and under five with iPipe, and the
    /// follower's host goes idle.
    #[test]
    fn ipipe_saves_host_cores_on_rkv() {
        let ipipe = fig13_run(CN2360, App::Rkv, RuntimeMode::IPipe, 512);
        let dpdk = fig13_run(CN2360, App::Rkv, RuntimeMode::HostDpdk, 512);
        for node in [0, 1] {
            let (i, d) = (ipipe.host_cores[node], dpdk.host_cores[node]);
            assert!(i < d, "node {node}: iPipe {i:.2} !< DPDK {d:.2}");
        }
    }

    /// Fig 13a vs 13b on the RTA worker's 1024B rows: the 25GbE card
    /// carries well over 1.5x the 10GbE card's requests.
    #[test]
    fn twenty_five_gbe_outpaces_ten_gbe() {
        let tput = |spec| fig13_run(spec, App::Rta, RuntimeMode::IPipe, 1024).throughput_rps;
        let (t10, t25) = (tput(CN2350), tput(CN2360));
        assert!(t25 > t10 * 1.5, "25GbE {t25:.0} !>> 10GbE {t10:.0}");
    }

    /// §5.6's claim on the table's 512B row: iPipe's dynamic offloading
    /// beats Floem's static placement in Gbps per host core.
    #[test]
    fn ipipe_beats_floem_on_per_core_throughput() {
        let (floem, ipipe) = (floem_run(512, true), floem_run(512, false));
        assert!(floem.completed > 500 && ipipe.completed > 500);
        let (floem, ipipe) = (
            gbps_per_host_core(&floem, 512),
            gbps_per_host_core(&ipipe, 512),
        );
        assert!(
            ipipe > floem,
            "iPipe {ipipe:.2} Gbps/core vs Floem {floem:.2}"
        );
    }
}

//! The §5 evaluation experiments: Figs 13–18, the Floem comparison (§5.6)
//! and the network functions (§5.7).

use crate::apps_harness::{run_app, App, FIG13_ROLES};
use crate::render_table;
use ipipe::prelude::*;
use ipipe::rt::{ClientReq, Cluster, RuntimeMode};
use ipipe::sched::Discipline;
use ipipe_apps::nf::actors::{FirewallActor, IpsecActor, NfMsg};
use ipipe_apps::rkv::actors::{deploy_rkv, RkvMsg};
use ipipe_apps::rta::actors::{deploy_rta, RtaMsg};
use ipipe_baseline::fig16::run_fig16;
use ipipe_baseline::floem::deploy_floem_rta;
use ipipe_nicsim::spec::NicSpec;
use ipipe_nicsim::{CN2350, CN2360, STINGRAY_PS225};
use ipipe_sim::sweep::{default_workers, parallel_sweep};
use ipipe_workload::kv::KvWorkload;
use ipipe_workload::rta::RtaWorkload;
use ipipe_workload::service::{fig16_distribution, Dispersion, Fig16Card};

/// Simulated warm-up/measure windows for the application experiments.
const WARMUP: SimTime = SimTime::from_ms(3);
const MEASURE: SimTime = SimTime::from_ms(12);

/// Fig 13: host cores used by DPDK vs iPipe per role and packet size.
pub fn render_fig13(spec: NicSpec, label: &str) -> String {
    let sizes = [64u32, 256, 512, 1024];
    let mut rows = Vec::new();
    for (role, app, node) in FIG13_ROLES {
        for &size in &sizes {
            let dpdk = run_app(
                app,
                spec,
                RuntimeMode::HostDpdk,
                size,
                256,
                WARMUP,
                MEASURE,
                7,
            );
            let ipipe = run_app(app, spec, RuntimeMode::IPipe, size, 256, WARMUP, MEASURE, 7);
            rows.push(vec![
                role.to_string(),
                format!("{size}B"),
                format!("{:.2}", dpdk.host_cores[node]),
                format!("{:.2}", ipipe.host_cores[node]),
                format!("{:.2}", dpdk.host_cores[node] - ipipe.host_cores[node]),
                format!("{:.2}", dpdk.throughput_rps / 1e6),
                format!("{:.2}", ipipe.throughput_rps / 1e6),
            ]);
        }
    }
    render_table(
        &format!(
            "Fig 13 ({label}): host cores used at max throughput — {}",
            spec.name
        ),
        &[
            "role",
            "size",
            "DPDK",
            "iPipe",
            "saved",
            "DPDK-Mrps",
            "iPipe-Mrps",
        ],
        &rows,
    )
}

/// Figs 14/15: latency vs per-core throughput at 512 B.
pub fn render_fig1415(spec: NicSpec, label: &str) -> String {
    let mut rows = Vec::new();
    for app in [App::Rta, App::Dt, App::Rkv] {
        for mode in [RuntimeMode::HostDpdk, RuntimeMode::IPipe] {
            for outstanding in [4u32, 16, 64, 128] {
                let r = run_app(app, spec, mode, 512, outstanding, WARMUP, MEASURE, 11);
                rows.push(vec![
                    app.name().to_string(),
                    if mode == RuntimeMode::IPipe {
                        "iPipe"
                    } else {
                        "DPDK"
                    }
                    .to_string(),
                    format!("{outstanding}"),
                    format!("{:.3}", r.per_core_mops()),
                    format!("{:.1}", r.mean.as_us_f64()),
                    format!("{:.1}", r.p99.as_us_f64()),
                ])
            }
        }
    }
    render_table(
        &format!(
            "Fig 14/15 ({label}): latency vs per-core throughput, 512B — {}",
            spec.name
        ),
        &["app", "system", "outst", "Mop/s/core", "avg(us)", "p99(us)"],
        &rows,
    )
}

/// Fig 16: the scheduler sweep (both cards, both dispersions, three
/// disciplines). The 72 grid points are independent seeded simulations, so
/// they fan out across cores via [`parallel_sweep`]; results come back in
/// input order, keeping the table identical to a serial run.
pub fn render_fig16(requests: u64) -> String {
    let loads = [0.1, 0.3, 0.5, 0.7, 0.8, 0.9];
    let cells: [(&'static NicSpec, Fig16Card, Dispersion, &str); 4] = [
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
        let mut cols = vec![label.to_string(), format!("{load:.1}")];
        cols.extend(ps.iter().map(|p| format!("{:.1}", p.as_us_f64())));
        rows.push(cols);
    }
    render_table(
        "Fig 16: P99 tail latency (us) vs load — FCFS / DRR / iPipe hybrid",
        &["subplot", "load", "FCFS", "DRR", "iPipe"],
        &rows,
    )
}

/// Fig 17: host CPU usage of host-only RKV with and without the iPipe
/// runtime, at increasing network load.
pub fn render_fig17() -> String {
    let mut rows = Vec::new();
    for outstanding in [2u32, 4, 8, 16, 48] {
        let run = |mode| {
            let mut c = Cluster::builder(CN2350)
                .servers(3)
                .clients(1)
                .mode(mode)
                .seed(13)
                .build();
            let dep = deploy_rkv(&mut c, &[0, 1, 2], 8 << 20);
            let leader = dep.consensus[0];
            let mut wl = KvWorkload::paper_default(512, 13);
            c.set_client(
                0,
                Box::new(move |rng, _| {
                    let op = wl.next_op();
                    ClientReq {
                        dst: leader,
                        wire_size: 512u32.min(43 + op.wire_size()).max(64),
                        flow: rng.below(1 << 20),
                        payload: Some(Box::new(RkvMsg::Client(op))),
                    }
                }),
                outstanding,
            );
            c.run_for(WARMUP);
            c.reset_measurements();
            c.run_for(MEASURE);
            (
                c.throughput_rps(),
                c.host_cores_used(0) * 100.0,
                c.host_cores_used(1) * 100.0,
            )
        };
        let (rps_d, leader_d, follower_d) = run(RuntimeMode::HostDpdk);
        let (rps_i, leader_i, follower_i) = run(RuntimeMode::HostIPipe);
        // Normalize CPU by achieved throughput (the paper holds throughput
        // equal; the closed loop holds offered load equal instead).
        let norm_leader = leader_i / rps_i.max(1.0) * rps_d.max(1.0);
        let norm_follower = follower_i / rps_i.max(1.0) * rps_d.max(1.0);
        rows.push(vec![
            format!("outst={outstanding}"),
            format!("{leader_d:.0}"),
            format!("{norm_leader:.0}"),
            format!("{:.1}%", (norm_leader / leader_d.max(0.001) - 1.0) * 100.0),
            format!("{follower_d:.0}"),
            format!("{norm_follower:.0}"),
            format!(
                "{:.1}%",
                (norm_follower / follower_d.max(0.001) - 1.0) * 100.0
            ),
        ]);
    }
    render_table(
        "Fig 17: host CPU (%) of host-only RKV, with vs without iPipe runtime",
        &[
            "offered",
            "leader w/o",
            "leader w/",
            "ovh",
            "follower w/o",
            "follower w/",
            "ovh",
        ],
        &rows,
    )
}

/// Fig 18: forced-migration elapsed-time breakdown for 8 actors.
pub fn render_fig18() -> String {
    // Autonomous migration off: the forced migrations are the experiment.
    let cfg = ipipe::sched::SchedConfig::for_nic(&CN2350).no_migration();
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
    let leader = rkv.consensus[0];
    let filter = rta.filters[0];
    let mut kv = KvWorkload::paper_default(512, 3);
    let mut tuples = RtaWorkload::paper_default(3);
    let mut flip = false;
    c.set_client(
        0,
        Box::new(move |rng, _| {
            flip = !flip;
            if flip {
                let op = kv.next_op();
                ClientReq {
                    dst: leader,
                    wire_size: 512u32.min(43 + op.wire_size()).max(64),
                    flow: rng.below(1 << 20),
                    payload: Some(Box::new(RkvMsg::Client(op))),
                }
            } else {
                ClientReq {
                    dst: filter,
                    wire_size: 512,
                    flow: rng.below(1 << 20),
                    payload: Some(Box::new(RtaMsg::Batch(tuples.next_request(512)))),
                }
            }
        }),
        64,
    );
    c.run_for(SimTime::from_ms(5)); // warm up (paper: 5s; scaled down)
    let targets: Vec<(String, Address)> = vec![
        ("Filter".into(), rta.filters[0]),
        ("Count".into(), rta.topo.counter[0]),
        ("Rank".into(), rta.topo.ranker[0]),
        ("Coord.".into(), dt.coordinator),
        ("Parti.".into(), dt.participants[0]),
        ("Consensus".into(), rkv.consensus[0]),
        ("LSMmem.".into(), rkv.memtable[0]),
        ("Aggregator".into(), rta.aggregator),
    ];
    let mut rows = Vec::new();
    for (name, addr) in targets {
        let ok = c.force_migrate(addr);
        c.run_for(SimTime::from_ms(60));
        let node = addr.node as usize;
        if let Some(r) = c
            .migration_reports(node)
            .iter()
            .rev()
            .find(|r| r.actor == addr.actor)
        {
            rows.push(vec![
                name,
                format!("{:.2}", r.phase_times[0].as_ms_f64()),
                format!("{:.2}", r.phase_times[1].as_ms_f64()),
                format!("{:.2}", r.phase_times[2].as_ms_f64()),
                format!("{:.2}", r.phase_times[3].as_ms_f64()),
                format!("{:.2}", r.total().as_ms_f64()),
                format!("{}KB", r.state_bytes / 1024),
                format!("{}", r.requests_forwarded),
            ]);
        } else {
            rows.push(vec![
                name,
                format!("skipped (ok={ok}, loc={:?})", c.actor_location(addr)),
            ]);
        }
    }
    render_table(
        "Fig 18: forced actor migration, per-phase elapsed time (ms)",
        &[
            "actor", "phase1", "phase2", "phase3", "phase4", "total", "state", "fwd",
        ],
        &rows,
    )
}

/// §5.6: Floem vs iPipe per-core throughput on RTA.
pub fn render_floem() -> String {
    let mut rows = Vec::new();
    for packet in [64u32, 512, 1024] {
        let drive = |floem: bool| {
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
            let dst = dep.filters[0];
            let mut wl = RtaWorkload::paper_default(5);
            c.set_client(
                0,
                Box::new(move |rng, _| ClientReq {
                    dst,
                    wire_size: packet,
                    flow: rng.below(1 << 20),
                    payload: Some(Box::new(RtaMsg::Batch(wl.next_request(packet)))),
                }),
                96,
            );
            c.run_for(WARMUP);
            c.reset_measurements();
            c.run_for(MEASURE);
            let gbps = c.completions().count() as f64 * packet as f64 * 8.0
                / c.measured_wall().as_secs_f64()
                / 1e9;
            // Both systems pin one host communication core; floor there.
            let cores = c.host_cores_used(0).max(1.0);
            gbps / cores
        };
        let floem = drive(true);
        let ipipe = drive(false);
        rows.push(vec![
            format!("{packet}B"),
            format!("{floem:.2}"),
            format!("{ipipe:.2}"),
            format!("{:.1}%", (ipipe / floem - 1.0) * 100.0),
        ]);
    }
    render_table(
        "§5.6: RTA per-core throughput (Gbps/host-core), Floem vs iPipe",
        &["packet", "Floem", "iPipe", "iPipe gain"],
        &rows,
    )
}

/// §5.7: firewall latency under load and IPSec bandwidth.
pub fn render_nf() -> String {
    let mut rows = Vec::new();
    // Firewall: 8K rules, 1KB packets, increasing load.
    for outstanding in [2u32, 16, 64, 192] {
        let mut c = Cluster::builder(CN2350)
            .servers(1)
            .clients(1)
            .seed(41)
            .build();
        let fw = c.register_actor(
            0,
            "firewall",
            Box::new(FirewallActor::new(8192, 1)),
            Placement::Nic,
        );
        let mut traffic = FirewallActor::traffic(8192, 1);
        c.set_client(
            0,
            Box::new(move |rng, _| {
                let pkt = traffic(rng);
                ClientReq {
                    dst: fw,
                    wire_size: 1024,
                    flow: rng.below(1 << 20),
                    payload: Some(Box::new(NfMsg::Classify(pkt))),
                }
            }),
            outstanding,
        );
        c.run_for(SimTime::from_ms(2));
        c.reset_measurements();
        c.run_for(SimTime::from_ms(8));
        rows.push(vec![
            "Firewall-8K".into(),
            format!("outst={outstanding}"),
            format!("{:.2}us avg", c.completions().mean().as_us_f64()),
            format!("{:.2}us p99", c.completions().p99().as_us_f64()),
            format!("{:.2} Gbps", c.throughput_rps() * 1024.0 * 8.0 / 1e9),
        ]);
    }
    // IPSec: 1KB packets on the 10GbE and 25GbE LiquidIO cards.
    for (spec, label) in [(CN2350, "10GbE"), (CN2360, "25GbE")] {
        let mut c = Cluster::builder(spec)
            .servers(1)
            .clients(1)
            .seed(43)
            .build();
        let gw = c.register_actor(0, "ipsec", Box::new(IpsecActor::new(16)), Placement::Nic);
        c.set_client(
            0,
            Box::new(move |rng, _| ClientReq {
                dst: gw,
                wire_size: 1024,
                flow: rng.below(1 << 20),
                payload: Some(Box::new(NfMsg::Encrypt(vec![0x5A; 960]))),
            }),
            128,
        );
        c.run_for(SimTime::from_ms(2));
        c.reset_measurements();
        c.run_for(SimTime::from_ms(8));
        rows.push(vec![
            format!("IPSec-{label}"),
            "1KB pkts".into(),
            format!("{:.2}us avg", c.completions().mean().as_us_f64()),
            format!("{:.2}us p99", c.completions().p99().as_us_f64()),
            format!("{:.2} Gbps", c.throughput_rps() * 1024.0 * 8.0 / 1e9),
        ]);
    }
    render_table(
        "§5.7: network functions on iPipe",
        &["NF", "config", "avg", "p99", "throughput"],
        &rows,
    )
}

/// Extension: the RKV store under the six YCSB mixes (beyond the paper's
/// single 95/5 point), DPDK vs iPipe.
pub fn render_ycsb() -> String {
    use ipipe_workload::ycsb::{YcsbMix, YcsbWorkload};
    let mut rows = Vec::new();
    for (name, mix) in [
        ("A 50/50", YcsbMix::A),
        ("B 95/5", YcsbMix::B),
        ("C read-only", YcsbMix::C),
        ("D read-latest", YcsbMix::D),
        ("F rmw", YcsbMix::F),
    ] {
        let run = |mode| {
            let mut c = Cluster::builder(CN2350)
                .servers(3)
                .clients(1)
                .mode(mode)
                .seed(0x4C5B)
                .build();
            let dep = deploy_rkv(&mut c, &[0, 1, 2], 8 << 20);
            let leader = dep.consensus[0];
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
            c.run_for(WARMUP);
            c.reset_measurements();
            c.run_for(MEASURE);
            (
                c.throughput_rps() / 1e6,
                c.completions().p99(),
                c.host_cores_used(0),
            )
        };
        let (t_d, p_d, h_d) = run(RuntimeMode::HostDpdk);
        let (t_i, p_i, h_i) = run(RuntimeMode::IPipe);
        rows.push(vec![
            name.to_string(),
            format!("{t_d:.2}"),
            format!("{:.0}", p_d.as_us_f64()),
            format!("{h_d:.2}"),
            format!("{t_i:.2}"),
            format!("{:.0}", p_i.as_us_f64()),
            format!("{h_i:.2}"),
        ]);
    }
    render_table(
        "Extension: RKV under YCSB mixes (Mrps / p99 us / leader host cores)",
        &[
            "mix",
            "DPDK-Mrps",
            "p99",
            "cores",
            "iPipe-Mrps",
            "p99",
            "cores",
        ],
        &rows,
    )
}

/// Ablation: EWMA weight sensitivity of the Fig 16 hybrid.
pub fn render_ablate_ewma(requests: u64) -> String {
    let dist = fig16_distribution(Fig16Card::LiquidIo, Dispersion::High);
    let mut rows = Vec::new();
    for alpha in [0.01, 0.05, 0.2, 0.5] {
        let mut cfg = ipipe::sched::SchedConfig::for_nic(&CN2350).no_migration();
        cfg.ewma_alpha = alpha;
        // run_fig16 builds its own config; inline a small variant here.
        let p = ipipe_baseline::fig16::run_fig16_with(&CN2350, dist, cfg, 0.9, 8, requests, 2);
        rows.push(vec![
            format!("{alpha}"),
            format!("{:.1}", p.mean.as_us_f64()),
            format!("{:.1}", p.p99.as_us_f64()),
        ]);
    }
    render_table(
        "Ablation: bookkeeping EWMA weight (hybrid, high dispersion, load 0.9)",
        &["alpha", "mean(us)", "p99(us)"],
        &rows,
    )
}

/// Ablation: off-path shared-queue emulation (§3.2.6) — software shuffle
/// layer vs an IOKernel-style dedicated dispatcher core, on the Stingray.
pub fn render_ablate_offpath(requests: u64) -> String {
    let dist = fig16_distribution(Fig16Card::Stingray, Dispersion::High);
    let mut rows = Vec::new();
    for load in [0.5, 0.7, 0.9] {
        let shuffle = ipipe::sched::SchedConfig::for_nic(&STINGRAY_PS225).no_migration();
        let iok = ipipe::sched::SchedConfig::for_nic(&STINGRAY_PS225)
            .no_migration()
            .with_iokernel();
        let a = ipipe_baseline::fig16::run_fig16_with(
            &STINGRAY_PS225,
            dist,
            shuffle,
            load,
            8,
            requests,
            2,
        );
        let b =
            ipipe_baseline::fig16::run_fig16_with(&STINGRAY_PS225, dist, iok, load, 8, requests, 2);
        rows.push(vec![
            format!("{load:.1}"),
            format!("{:.1}", a.mean.as_us_f64()),
            format!("{:.1}", a.p99.as_us_f64()),
            format!("{:.1}", b.mean.as_us_f64()),
            format!("{:.1}", b.p99.as_us_f64()),
        ]);
    }
    render_table(
        "Ablation: off-path dispatch (Stingray, hybrid, high dispersion)",
        &[
            "load",
            "shuffle-mean",
            "shuffle-p99",
            "iokernel-mean",
            "iokernel-p99",
        ],
        &rows,
    )
}

/// Ablation: DRR quantum choice — adaptive (per-actor size) vs fixed values.
pub fn render_ablate_quantum(requests: u64) -> String {
    let dist = fig16_distribution(Fig16Card::LiquidIo, Dispersion::High);
    let mut rows = Vec::new();
    for (label, quantum) in [
        ("adaptive (paper)", None),
        ("fixed 1us", Some(SimTime::from_us(1))),
        ("fixed 10us", Some(SimTime::from_us(10))),
        ("fixed 100us", Some(SimTime::from_us(100))),
    ] {
        let mut cfg = ipipe::sched::SchedConfig::for_nic(&CN2350)
            .with_discipline(Discipline::DrrOnly)
            .no_migration();
        if let Some(q) = quantum {
            cfg.fixed_quantum = Some(q);
        }
        let p = ipipe_baseline::fig16::run_fig16_with(&CN2350, dist, cfg, 0.9, 8, requests, 2);
        rows.push(vec![
            label.to_string(),
            format!("{:.1}", p.mean.as_us_f64()),
            format!("{:.1}", p.p99.as_us_f64()),
        ]);
    }
    render_table(
        "Ablation: DRR quantum (pure DRR, high dispersion, load 0.9)",
        &["quantum", "mean(us)", "p99(us)"],
        &rows,
    )
}

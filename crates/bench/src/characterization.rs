//! The §2.2 characterization experiments: Figs 2–10 and Tables 1–3.

use crate::figure::{bytes, num, text, Cell, Table};
use ipipe_apps::micro::{all_workloads, profile_workload};
use ipipe_nicsim::accel::ALL_ACCELERATORS;
use ipipe_nicsim::cpu::CoreModel;
use ipipe_nicsim::dma::{DmaEngine, DmaOp, RdmaModel};
use ipipe_nicsim::mem::pointer_chase;
use ipipe_nicsim::spec::{ALL_NICS, HOST_XEON};
use ipipe_nicsim::{traffic, NicSpec, BLUEFIELD_1M332A, CN2350, STINGRAY_PS225};
use ipipe_sim::SimTime;

/// The packet sizes on Figs 2/3's x-axis.
pub const FIG2_SIZES: [u32; 6] = [64, 128, 256, 512, 1024, 1500];
/// Payload sizes used by the DMA/RDMA/messaging figures.
pub const PAYLOAD_SIZES: [u32; 10] = [4, 8, 16, 32, 64, 128, 256, 512, 1024, 2048];

/// Fig 2 (CN2350) or Fig 3 (Stingray): achieved bandwidth per (packet size,
/// core count); the note is the core count that first reaches line rate,
/// one cell per size in [`FIG2_SIZES`] order.
pub fn fig23(spec: &NicSpec, fig: &str) -> Table {
    let header =
        std::iter::once("size".to_string()).chain((1..=spec.cores).map(|c| format!("{c}c")));
    let rows = FIG2_SIZES
        .iter()
        .map(|&size| {
            let bw = |c| traffic::achievable_gbps(spec, size, c, SimTime::ZERO);
            std::iter::once(bytes(size))
                .chain((1..=spec.cores).map(|c| num(bw(c), 2)))
                .collect()
        })
        .collect();
    let needed = FIG2_SIZES
        .iter()
        .map(|&size| match traffic::cores_for_line_rate(spec, size) {
            Some(c) => Cell {
                text: format!("{size}B:{c}"),
                value: Some(f64::from(c)),
            },
            None => text(format!("{size}B:unreachable")),
        })
        .collect();
    let title = format!("{fig}: bandwidth (Gbps) vs NIC cores — {}", spec.name);
    let mut table = Table::new(title, header, rows);
    table.notes.push(("cores for line rate".into(), needed));
    table
}

/// Fig 4: bandwidth as per-packet processing latency grows (all cores).
pub fn fig4() -> Table {
    let lats_us = [0.0, 0.125, 0.25, 0.5, 1.0, 2.0, 4.0, 8.0, 16.0];
    let configs: [(&NicSpec, u32, &str); 4] = [
        (&CN2350, 256, "256B-10GbE"),
        (&CN2350, 1024, "1024B-10GbE"),
        (&STINGRAY_PS225, 256, "256B-25GbE"),
        (&STINGRAY_PS225, 1024, "1024B-25GbE"),
    ];
    let header = std::iter::once("proc(us)").chain(configs.iter().map(|(_, _, n)| *n));
    let rows = lats_us
        .iter()
        .map(|&l| {
            let bw = |spec: &NicSpec, size| {
                traffic::achievable_gbps(spec, size, spec.cores, SimTime::from_us_f64(l))
            };
            std::iter::once(text(format!("{l}")))
                .chain(
                    configs
                        .iter()
                        .map(|(spec, size, _)| num(bw(spec, *size), 2)),
                )
                .collect()
        })
        .collect();
    let mut table = Table::new(
        "Fig 4: bandwidth (Gbps) vs per-packet processing latency",
        header,
        rows,
    );
    for (spec, size, name) in &configs {
        let tolerated = match traffic::compute_headroom(spec, *size) {
            Some(lat) => num(lat.as_us_f64(), 2).unit("us"),
            None => text("n/a"),
        };
        let label = format!("tolerated latency {name}");
        table.notes.push((label, vec![tolerated]));
    }
    table
}

/// Fig 5: avg/p99 latency at the max-throughput operating point, 6 vs 12
/// cores on the CN2350.
pub fn fig5() -> Table {
    let rows = [64u32, 512, 1024, 1500]
        .iter()
        .map(|&size| {
            let six = traffic::simulate_echo_latency(&CN2350, size, 6, 0.95, 60_000, 0x55);
            let twelve = traffic::simulate_echo_latency(&CN2350, size, 12, 0.95, 60_000, 0x55);
            vec![
                bytes(size),
                num(six.avg.as_us_f64(), 1),
                num(twelve.avg.as_us_f64(), 1),
                num(six.p99.as_us_f64(), 1),
                num(twelve.p99.as_us_f64(), 1),
            ]
        })
        .collect();
    Table::new(
        "Fig 5: echo latency at max throughput, CN2350 (us)",
        ["size", "6c-avg", "12c-avg", "6c-p99", "12c-p99"],
        rows,
    )
}

/// Fig 6: send/recv latency — SmartNIC hardware messaging vs host DPDK/RDMA.
pub fn fig6() -> Table {
    let rows = PAYLOAD_SIZES[..9]
        .iter()
        .map(|&s| {
            vec![
                bytes(s),
                num(CN2350.hw_send(s).as_us_f64(), 2),
                // Fig 6 shows receive slightly above send: send + 60 ns.
                num((CN2350.hw_send(s) + SimTime::from_ns(60)).as_us_f64(), 2),
                num(HOST_XEON.dpdk_send(s).as_us_f64(), 2),
                num(HOST_XEON.dpdk_recv(s).as_us_f64(), 2),
                num(HOST_XEON.rdma_send(s).as_us_f64(), 2),
                num(HOST_XEON.rdma_recv(s).as_us_f64(), 2),
            ]
        })
        .collect();
    Table::new(
        "Fig 6: send/recv latency (us) — SmartNIC vs DPDK vs RDMA",
        [
            "size",
            "NIC-send",
            "NIC-recv",
            "DPDK-send",
            "DPDK-recv",
            "RDMA-send",
            "RDMA-recv",
        ],
        rows,
    )
}

/// Figs 7/8: DMA latency and throughput on the CN2350.
pub fn fig78() -> Table {
    let e = DmaEngine::new(&CN2350);
    let rows = PAYLOAD_SIZES
        .iter()
        .map(|&s| {
            vec![
                bytes(s),
                num(e.blocking_latency(DmaOp::Read, s).as_us_f64(), 2),
                num(e.blocking_latency(DmaOp::Write, s).as_us_f64(), 2),
                num(e.nonblocking_latency().as_us_f64(), 2),
                num(e.blocking_throughput_ops(DmaOp::Read, s) / 1e6, 2),
                num(e.blocking_throughput_ops(DmaOp::Write, s) / 1e6, 2),
                num(e.nonblocking_throughput_ops(DmaOp::Read, s) / 1e6, 2),
                num(e.nonblocking_throughput_ops(DmaOp::Write, s) / 1e6, 2),
            ]
        })
        .collect();
    Table::new(
        "Figs 7+8: DMA latency (us) and throughput (Mops), CN2350",
        [
            "size",
            "blkR-lat",
            "blkW-lat",
            "nb-lat",
            "blkR-Mops",
            "blkW-Mops",
            "nbR-Mops",
            "nbW-Mops",
        ],
        rows,
    )
}

/// Figs 9/10: RDMA one-sided verbs on the BlueField.
pub fn fig910() -> Table {
    let r = RdmaModel::new(&BLUEFIELD_1M332A);
    let rows = PAYLOAD_SIZES
        .iter()
        .map(|&s| {
            vec![
                bytes(s),
                num(r.read_latency(s).as_us_f64(), 2),
                num(r.write_latency(s).as_us_f64(), 2),
                num(r.read_throughput_ops(s) / 1e6, 2),
                num(r.write_throughput_ops(s) / 1e6, 2),
            ]
        })
        .collect();
    Table::new(
        "Figs 9+10: RDMA one-sided read/write, BlueField 1M332A",
        ["size", "rd-lat(us)", "wr-lat(us)", "rd-Mops", "wr-Mops"],
        rows,
    )
}

/// Table 1: card specifications.
pub fn table1() -> Table {
    let rows = ALL_NICS
        .iter()
        .map(|n| {
            vec![
                text(n.name),
                text(n.vendor),
                text(n.processor),
                text(format!("2x{}GbE", n.link_gbps)),
                num(f64::from(n.cache.l1_bytes / 1024), 0).unit("KB"),
                num(f64::from(n.cache.l2_bytes / (1024 * 1024)), 0).unit("MB"),
                num(f64::from(n.dram_gb), 0).unit("GB"),
                text(n.deployed_sw),
                text(n.nstack),
            ]
        })
        .collect();
    Table::new(
        "Table 1: SmartNIC specifications",
        [
            "model",
            "vendor",
            "processor",
            "BW",
            "L1",
            "L2",
            "DRAM",
            "SW",
            "Nstack",
        ],
        rows,
    )
}

/// Table 2: pointer-chasing memory latencies, measured on the cache
/// simulator with L1/L2/DRAM-resident working sets.
pub fn table2() -> Table {
    let chase = |cache, mem, bytes: u64, hops| {
        let r = pointer_chase(cache, mem, bytes, hops, 1);
        num(r.avg_latency.as_ns() as f64, 1)
    };
    let cards: [(&str, &NicSpec); 3] = [
        ("LiquidIOII CNXX", &CN2350),
        ("BlueField 1M332A", &BLUEFIELD_1M332A),
        ("Stingray PS225", &STINGRAY_PS225),
    ];
    let mut rows: Vec<Vec<Cell>> = cards
        .iter()
        .map(|(name, spec)| {
            let l2 = spec.cache.l2_bytes as u64;
            vec![
                text(*name),
                chase(spec.cache, spec.mem, 16 * 1024, 40_000),
                chase(spec.cache, spec.mem, l2 / 2, 40_000),
                text("N/A"),
                chase(spec.cache, spec.mem, 4 * l2, 20_000),
            ]
        })
        .collect();
    // Host: use its three levels (L3 via the l2 slot of the 2-level sim).
    rows.push(vec![
        text("Host Intel server"),
        chase(HOST_XEON.cache, HOST_XEON.mem, 16 * 1024, 40_000),
        num(HOST_XEON.mem.l2.as_ns() as f64, 1),
        num(HOST_XEON.mem.l3.unwrap().as_ns() as f64, 1),
        chase(HOST_XEON.cache, HOST_XEON.mem, 64 << 20, 20_000),
    ]);
    Table::new(
        "Table 2: memory access latency (ns), pointer chasing",
        ["platform", "L1", "L2", "L3", "DRAM"],
        rows,
    )
}

/// Table 3 (left): the eleven offloaded workloads profiled on the CN2350.
pub fn table3_workloads() -> Table {
    let core = CoreModel::for_nic(&CN2350);
    let rows = all_workloads()
        .iter_mut()
        .map(|w| {
            let paper = w.paper_row();
            let prof = profile_workload(w.as_mut(), &CN2350, 1024, 256, 0x7AB1E3);
            let r = prof.evaluate(&core);
            vec![
                text(w.name()),
                num(r.latency.as_us_f64(), 1),
                num(paper.lat_us, 1),
                num(r.ipc, 2),
                num(paper.ipc, 1),
                num(r.mpki, 1),
                num(paper.mpki, 1),
            ]
        })
        .collect();
    Table::new(
        "Table 3 (workloads): measured vs paper on CN2350, 1KB requests",
        [
            "workload", "lat(us)", "paper", "IPC", "paper", "MPKI", "paper",
        ],
        rows,
    )
}

/// Table 3 (right): the accelerator catalogue.
pub fn table3_accels() -> Table {
    let rows = ALL_ACCELERATORS
        .iter()
        .map(|a| {
            let batched = |n| {
                if a.batchable() {
                    num(a.latency(n).as_us_f64(), 1)
                } else {
                    text("N/A")
                }
            };
            vec![
                text(a.name),
                num(a.ipc, 1),
                num(a.mpki, 1),
                num(a.latency(1).as_us_f64(), 1),
                batched(8),
                batched(32),
                num(a.host_speedup, 1).unit("x"),
            ]
        })
        .collect();
    Table::new(
        "Table 3 (accelerators): invocation latency by batch size",
        [
            "engine",
            "IPC",
            "MPKI",
            "bsz=1(us)",
            "bsz=8",
            "bsz=32",
            "vs host",
        ],
        rows,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The note's cells in [`FIG2_SIZES`] order; `None` is "unreachable".
    fn cores_for_line_rate(t: &Table) -> Vec<Option<f64>> {
        let cells = t.note("cores for line rate");
        cells.iter().map(|c| c.value).collect()
    }

    #[test]
    fn fig2_matches_paper_core_counts() {
        let t = fig23(&CN2350, "Fig 2");
        assert_eq!(
            cores_for_line_rate(&t),
            [None, None, Some(10.0), Some(6.0), Some(4.0), Some(3.0)]
        );
        // The count is where the row's bandwidth stops growing.
        let bw = |col| t.cell("256B", col).value.unwrap();
        assert!(bw("9c") < bw("10c") && bw("10c") == bw("12c"));
    }

    #[test]
    fn fig3_matches_paper_core_counts() {
        let t = fig23(&STINGRAY_PS225, "Fig 3");
        assert_eq!(
            cores_for_line_rate(&t),
            [None, None, Some(3.0), Some(2.0), Some(1.0), Some(1.0)]
        );
    }

    #[test]
    fn table2_reproduces_paper_hierarchy() {
        let t = table2();
        let ns = |row, col| t.cell(row, col).value;
        assert_eq!(ns("LiquidIOII CNXX", "L1"), Some(8.0));
        assert_eq!(ns("LiquidIOII CNXX", "L2"), Some(56.0));
        assert_eq!(ns("LiquidIOII CNXX", "L3"), None, "the cards have no L3");
        assert_eq!(ns("Host Intel server", "L3"), Some(22.0));
    }
}

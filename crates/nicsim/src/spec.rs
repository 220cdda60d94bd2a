//! Hardware specifications (paper Table 1) and calibration constants.
//!
//! Each calibrated number carries a comment naming the figure or table of the
//! paper it was fitted against. Nothing here is measured on real hardware —
//! these are the parameters of the simulation substrate (see DESIGN.md §1).

use ipipe_sim::SimTime;

/// How the NIC cores sit relative to the packet path (paper Fig 1b/1c).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum NicKind {
    /// Cores are on the packet path and touch every packet (LiquidIOII).
    /// A hardware traffic manager provides a low-overhead shared queue (I2).
    OnPath,
    /// A NIC switch steers flows to either NIC cores or the host
    /// (BlueField, Stingray). No hardware shared-queue abstraction (§3.2.6).
    OffPath,
}

/// Memory-hierarchy access latencies (paper Table 2, pointer chasing).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MemLatencies {
    /// L1 / scratchpad hit latency.
    pub l1: SimTime,
    /// Shared L2 hit latency.
    pub l2: SimTime,
    /// L3 hit latency; `None` on every SmartNIC in the study.
    pub l3: Option<SimTime>,
    /// Onboard (or host) DRAM latency.
    pub dram: SimTime,
}

/// Per-packet software forwarding cost model for NIC cores.
///
/// `cost(size) = base + per_byte * size`. Fitted so that the
/// cores-needed-for-line-rate counts match Figs 2 and 3 (see each card's
/// constants below).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ForwardCost {
    /// Fixed per-packet cost (work-item pop, header parse, PKO submit).
    pub base: SimTime,
    /// Payload-proportional cost (buffer touch), ns per byte.
    pub per_byte_ns: f64,
}

impl ForwardCost {
    /// Per-packet forwarding cost for a frame of `size` bytes.
    #[expect(clippy::cast_possible_truncation, reason = "rounds to whole ns")]
    pub fn cost(&self, size: u32) -> SimTime {
        self.base + SimTime::from_ns((self.per_byte_ns * size as f64).round() as u64)
    }
}

/// Cache geometry for the on-NIC cache simulator.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheGeom {
    /// Per-core L1 data cache size in bytes.
    pub l1_bytes: u32,
    /// Shared L2 size in bytes.
    pub l2_bytes: u32,
    /// Cache-line size in bytes (128 on the cnMIPS LiquidIOs, 64 elsewhere —
    /// Table 2 caption).
    pub line: u32,
    /// Associativity used for both levels in the simulator.
    pub ways: u32,
}

/// DMA/PCIe model parameters (Figs 7–10). All SmartNICs in the study sit on
/// PCIe Gen3 x8 (§2.2.5: 7.87 GB/s theoretical).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DmaSpec {
    /// Base latency of a blocking DMA read (engine + PCIe round trip +
    /// completion word). Fig 7: small blocking reads land around 1.1 µs.
    pub blk_read_base: SimTime,
    /// Base latency of a blocking DMA write (posted — cheaper than reads).
    pub blk_write_base: SimTime,
    /// Effective per-core transfer bandwidth of blocking reads, bytes/s.
    /// Chosen so 2 KB blocking reads stream ~1.4 GB/s per core (Fig 8).
    pub blk_read_bw: f64,
    /// Effective per-core transfer bandwidth of blocking writes, bytes/s.
    /// Chosen so 2 KB blocking writes stream ~2.1 GB/s per core (Fig 8).
    pub blk_write_bw: f64,
    /// Cost for a core to enqueue a non-blocking DMA command (Fig 7: flat
    /// ~0.5 µs regardless of payload).
    pub nb_enqueue: SimTime,
    /// DMA command-queue drain rate, ops/s (Fig 8: non-blocking ops plateau
    /// near 10–11 Mops for small payloads).
    pub nb_engine_ops: f64,
    /// Non-blocking aggregate PCIe read bandwidth cap, bytes/s.
    pub nb_read_bw: f64,
    /// Non-blocking aggregate PCIe write bandwidth cap, bytes/s.
    pub nb_write_bw: f64,
}

/// Host-communication flavour exposed to software (Table 1 "To/From host").
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HostPath {
    /// Raw DMA engine commands (LiquidIOII firmware).
    NativeDma,
    /// RDMA verbs through the ConnectX/NetXtreme path (BlueField, Stingray).
    Rdma,
}

/// A Multicore SoC SmartNIC model (one row of Table 1 + calibration).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NicSpec {
    /// Marketing name, e.g. "LiquidIOII CN2350".
    pub name: &'static str,
    /// Vendor name.
    pub vendor: &'static str,
    /// Processor description.
    pub processor: &'static str,
    /// Number of general-purpose NIC cores.
    pub cores: u32,
    /// Core frequency in GHz.
    pub freq_ghz: f64,
    /// Link speed per port, Gbit/s.
    pub link_gbps: f64,
    /// Number of ports.
    pub ports: u32,
    /// On-path vs off-path (Fig 1).
    pub kind: NicKind,
    /// Onboard DRAM in GiB.
    pub dram_gb: u32,
    /// Deployed software environment ("Firmware" or "Full OS").
    pub deployed_sw: &'static str,
    /// Networking stack available to NIC software.
    pub nstack: &'static str,
    /// Host communication primitive.
    pub host_path: HostPath,
    /// Memory latencies (Table 2).
    pub mem: MemLatencies,
    /// Cache geometry.
    pub cache: CacheGeom,
    /// Per-packet forwarding cost (fitted to Figs 2/3).
    pub fwd: ForwardCost,
    /// Hardware packet-rate ceiling, packets/s. Models MAC/packet-buffer
    /// indexing limits: Fig 3 shows Stingray failing line rate at 128 B even
    /// though 256 B needs only 3 cores, which only a pps ceiling explains.
    pub hw_pps_limit: f64,
    /// Ideal issue width (cnMIPS OCTEON is 2-way — Table 3 footnote).
    pub ideal_ipc: f64,
    /// DMA/PCIe parameters.
    pub dma: DmaSpec,
    /// Cost for a NIC core to send a packet via hardware-assisted messaging
    /// (PKO) — Fig 6 "SmartNIC-send": ~0.3 µs at 4 B.
    pub hw_send_base: SimTime,
    /// Per-byte component of hardware-assisted send, ns/B.
    pub hw_send_per_byte_ns: f64,
    /// Whether the domain-specific accelerator blocks of Table 3 (crypto,
    /// CRC, ZIP, …) are present. True for every card in the study; the
    /// design-space exploration grid ([`crate::dse`]) toggles it to price
    /// the engines as an axis.
    pub has_accels: bool,
}

impl NicSpec {
    /// Cycles-to-time conversion for this card's cores.
    #[expect(clippy::cast_possible_truncation, reason = "rounds to whole ns")]
    pub fn cycles(&self, n: u64) -> SimTime {
        SimTime::from_ns((n as f64 / self.freq_ghz).round() as u64)
    }

    /// Hardware-assisted send cost for a payload of `size` bytes (Fig 6).
    #[expect(clippy::cast_possible_truncation, reason = "rounds to whole ns")]
    pub fn hw_send(&self, size: u32) -> SimTime {
        self.hw_send_base
            + SimTime::from_ns((self.hw_send_per_byte_ns * size as f64).round() as u64)
    }
}

/// Ethernet on-wire overhead per frame: 7 B preamble + 1 B SFD + 12 B
/// inter-frame gap + 4 B FCS = 24 B. (The 14 B L2 header is already inside
/// the quoted packet sizes, as in the paper's pktgen methodology.)
pub const WIRE_OVERHEAD_BYTES: u32 = 24;

/// Packets/s a link sustains for a given frame size.
pub fn line_rate_pps(link_gbps: f64, frame_bytes: u32) -> f64 {
    link_gbps * 1e9 / (((frame_bytes + WIRE_OVERHEAD_BYTES) * 8) as f64)
}

/// Marvell LiquidIOII CN2350 (Table 1 row 1): cnMIPS 12 x 1.2 GHz, 2x10GbE,
/// 32 KB L1 / 4 MB L2 / 4 GB DRAM, firmware, raw packets, native DMA.
pub const CN2350: NicSpec = NicSpec {
    name: "LiquidIOII CN2350",
    vendor: "Marvell",
    processor: "cnMIPS 12 core, 1.2GHz",
    cores: 12,
    freq_ghz: 1.2,
    link_gbps: 10.0,
    ports: 2,
    kind: NicKind::OnPath,
    dram_gb: 4,
    deployed_sw: "Firmware",
    nstack: "Raw packet",
    host_path: HostPath::NativeDma,
    // Table 2 row 1 (L1 8.3ns / L2 55.8ns / DRAM 115ns, 128 B lines).
    mem: MemLatencies {
        l1: SimTime::from_ns(8),
        l2: SimTime::from_ns(56),
        l3: None,
        dram: SimTime::from_ns(115),
    },
    cache: CacheGeom {
        l1_bytes: 32 * 1024,
        l2_bytes: 4 * 1024 * 1024,
        line: 128,
        ways: 8,
    },
    // Fitted to Fig 2: cores for line rate = 10/6/4/3 at 256/512/1024/1500 B
    // (cost(256B)=2.18us -> ceil(4.53Mpps*2.18us)=10 cores, etc.), and 64/128B
    // unreachable with 12 cores.
    fwd: ForwardCost {
        base: SimTime::from_ns(1900),
        per_byte_ns: 1.08,
    },
    hw_pps_limit: 12.0e6,
    ideal_ipc: 2.0, // 2-way cnMIPS (Table 3 footnote)
    dma: DmaSpec {
        // Figs 7/8 calibration — see DmaSpec field docs.
        blk_read_base: SimTime::from_ns(900),
        blk_write_base: SimTime::from_ns(600),
        blk_read_bw: 3.6e9,
        blk_write_bw: 5.0e9,
        nb_enqueue: SimTime::from_ns(480),
        nb_engine_ops: 10.5e6,
        nb_read_bw: 4.0e9,
        nb_write_bw: 6.0e9,
    },
    // Fig 6: SmartNIC-send ~0.3us at 4B, ~0.55us at 1KB.
    hw_send_base: SimTime::from_ns(300),
    hw_send_per_byte_ns: 0.25,
    has_accels: true,
};

/// Marvell LiquidIOII CN2360 (Table 1 row 2): cnMIPS 16 x 1.5 GHz, 2x25GbE.
/// Forwarding cost scaled from CN2350 by the 1.2/1.5 frequency ratio; Table 2
/// says CN2350/CN2360 memory performance is similar.
pub const CN2360: NicSpec = NicSpec {
    name: "LiquidIOII CN2360",
    vendor: "Marvell",
    processor: "cnMIPS 16 core, 1.5GHz",
    cores: 16,
    freq_ghz: 1.5,
    link_gbps: 25.0,
    ports: 2,
    kind: NicKind::OnPath,
    dram_gb: 4,
    deployed_sw: "Firmware",
    nstack: "Raw packet",
    host_path: HostPath::NativeDma,
    mem: CN2350.mem,
    cache: CN2350.cache,
    fwd: ForwardCost {
        base: SimTime::from_ns(1520), // 1900 * 1.2/1.5
        per_byte_ns: 0.86,            // 1.08 * 1.2/1.5
    },
    hw_pps_limit: 22.0e6,
    ideal_ipc: 2.0,
    dma: DmaSpec {
        blk_read_base: SimTime::from_ns(870),
        blk_write_base: SimTime::from_ns(580),
        blk_read_bw: 3.8e9,
        blk_write_bw: 5.2e9,
        nb_enqueue: SimTime::from_ns(450),
        nb_engine_ops: 11.0e6,
        nb_read_bw: 4.2e9,
        nb_write_bw: 6.2e9,
    },
    hw_send_base: SimTime::from_ns(260),
    hw_send_per_byte_ns: 0.22,
    has_accels: true,
};

/// Mellanox BlueField 1M332A (Table 1 row 3): ARM A72 8 x 0.8 GHz, 2x25GbE,
/// full OS, Linux/DPDK/RDMA stacks, RDMA to host.
pub const BLUEFIELD_1M332A: NicSpec = NicSpec {
    name: "BlueField 1M332A",
    vendor: "Mellanox",
    processor: "ARM A72 8 core, 0.8GHz",
    cores: 8,
    freq_ghz: 0.8,
    link_gbps: 25.0,
    ports: 2,
    kind: NicKind::OffPath,
    dram_gb: 16,
    deployed_sw: "Full OS",
    nstack: "Linux/DPDK/RDMA",
    host_path: HostPath::Rdma,
    // Table 2 row 2: 5.0 / 25.6 / 132.0 ns.
    mem: MemLatencies {
        l1: SimTime::from_ns(5),
        l2: SimTime::from_ns(26),
        l3: None,
        dram: SimTime::from_ns(132),
    },
    cache: CacheGeom {
        l1_bytes: 32 * 1024,
        l2_bytes: 1024 * 1024,
        line: 64,
        ways: 8,
    },
    // Slow 0.8 GHz A72 running a full OS datapath: a bit cheaper per packet
    // than the cnMIPS thanks to a stronger microarchitecture, but far from
    // Stingray's 3.0 GHz parts.
    fwd: ForwardCost {
        base: SimTime::from_ns(900),
        per_byte_ns: 0.45,
    },
    hw_pps_limit: 18.0e6,
    ideal_ipc: 3.0, // 3-wide A72
    dma: DmaSpec {
        // Figs 9/10: RDMA verbs roughly double blocking-DMA latency and cut
        // small-message throughput to a third. These are the underlying
        // native numbers; the RDMA model layers its overhead on top.
        blk_read_base: SimTime::from_ns(900),
        blk_write_base: SimTime::from_ns(620),
        blk_read_bw: 3.6e9,
        blk_write_bw: 4.8e9,
        nb_enqueue: SimTime::from_ns(460),
        nb_engine_ops: 10.0e6,
        nb_read_bw: 4.0e9,
        nb_write_bw: 6.0e9,
    },
    hw_send_base: SimTime::from_ns(420),
    hw_send_per_byte_ns: 0.30,
    has_accels: true,
};

/// Broadcom Stingray PS225 (Table 1 row 4): ARM A72 8 x 3.0 GHz, 2x25GbE,
/// full OS, 16 MB L2, RDMA to host.
pub const STINGRAY_PS225: NicSpec = NicSpec {
    name: "Stingray PS225",
    vendor: "Broadcom",
    processor: "ARM A72 8 core, 3.0GHz",
    cores: 8,
    freq_ghz: 3.0,
    link_gbps: 25.0,
    ports: 2,
    kind: NicKind::OffPath,
    dram_gb: 8,
    deployed_sw: "Full OS",
    nstack: "Linux/DPDK/RDMA",
    host_path: HostPath::Rdma,
    // Table 2 row 3: 1.3 / 25.1 / 85.3 ns.
    mem: MemLatencies {
        l1: SimTime::from_ns(1),
        l2: SimTime::from_ns(25),
        l3: None,
        dram: SimTime::from_ns(85),
    },
    cache: CacheGeom {
        l1_bytes: 32 * 1024,
        l2_bytes: 16 * 1024 * 1024,
        line: 64,
        ways: 8,
    },
    // Fitted to Fig 3: cores for line rate = 3/2/1/1 at 256/512/1024/1500 B.
    fwd: ForwardCost {
        base: SimTime::from_ns(210),
        per_byte_ns: 0.105,
    },
    // Fig 3: 128 B (needs 21.1 Mpps) misses line rate despite cheap cores.
    hw_pps_limit: 18.0e6,
    ideal_ipc: 3.0,
    dma: DmaSpec {
        blk_read_base: SimTime::from_ns(880),
        blk_write_base: SimTime::from_ns(590),
        blk_read_bw: 3.7e9,
        blk_write_bw: 5.0e9,
        nb_enqueue: SimTime::from_ns(430),
        nb_engine_ops: 11.0e6,
        nb_read_bw: 4.2e9,
        nb_write_bw: 6.4e9,
    },
    hw_send_base: SimTime::from_ns(340),
    hw_send_per_byte_ns: 0.26,
    has_accels: true,
};

/// The four cards of the study, in Table 1 order.
pub const ALL_NICS: [&NicSpec; 4] = [&CN2350, &CN2360, &BLUEFIELD_1M332A, &STINGRAY_PS225];

/// Host server model (§2.2.1): 12-core E5-2680 v3 Xeon @ 2.5 GHz.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HostSpec {
    /// Descriptive name.
    pub name: &'static str,
    /// Physical cores available to the application.
    pub cores: u32,
    /// Core frequency, GHz.
    pub freq_ghz: f64,
    /// Memory latencies (Table 2 bottom row).
    pub mem: MemLatencies,
    /// Cache geometry used by the host-side cache simulator.
    pub cache: CacheGeom,
    /// Issue width of the beefy core.
    pub ideal_ipc: f64,
    /// DPDK SEND base cost (Fig 6, ~1.45 µs at 4 B).
    pub dpdk_send_base: SimTime,
    /// DPDK SEND per-byte cost, ns/B (Fig 6, ~2.4 µs at 1 KB).
    pub dpdk_send_per_byte_ns: f64,
    /// Host RDMA SEND base cost (Fig 6).
    pub rdma_send_base: SimTime,
    /// Host RDMA SEND per-byte cost, ns/B.
    pub rdma_send_per_byte_ns: f64,
}

impl HostSpec {
    /// Cycles-to-time conversion.
    #[expect(clippy::cast_possible_truncation, reason = "rounds to whole ns")]
    pub fn cycles(&self, n: u64) -> SimTime {
        SimTime::from_ns((n as f64 / self.freq_ghz).round() as u64)
    }

    /// DPDK send cost for a payload of `size` bytes (Fig 6).
    #[expect(clippy::cast_possible_truncation, reason = "rounds to whole ns")]
    pub fn dpdk_send(&self, size: u32) -> SimTime {
        self.dpdk_send_base
            + SimTime::from_ns((self.dpdk_send_per_byte_ns * size as f64).round() as u64)
    }

    /// DPDK receive cost (slightly above send, as in Fig 6).
    pub fn dpdk_recv(&self, size: u32) -> SimTime {
        self.dpdk_send(size) + SimTime::from_ns(120)
    }

    /// Host RDMA send cost (Fig 6).
    #[expect(clippy::cast_possible_truncation, reason = "rounds to whole ns")]
    pub fn rdma_send(&self, size: u32) -> SimTime {
        self.rdma_send_base
            + SimTime::from_ns((self.rdma_send_per_byte_ns * size as f64).round() as u64)
    }

    /// Host RDMA receive cost.
    pub fn rdma_recv(&self, size: u32) -> SimTime {
        self.rdma_send(size) + SimTime::from_ns(100)
    }
}

/// The Supermicro/Xeon host used in the evaluation (§2.2.1).
pub const HOST_XEON: HostSpec = HostSpec {
    name: "Intel E5-2680 v3 (12 cores, 2.5GHz)",
    cores: 12,
    freq_ghz: 2.5,
    // Table 2 bottom row: 1.2 / 6.0 / 22.4 / 62.2 ns.
    mem: MemLatencies {
        l1: SimTime::from_ns(1),
        l2: SimTime::from_ns(6),
        l3: Some(SimTime::from_ns(22)),
        dram: SimTime::from_ns(62),
    },
    cache: CacheGeom {
        l1_bytes: 32 * 1024,
        l2_bytes: 256 * 1024,
        line: 64,
        ways: 8,
    },
    ideal_ipc: 4.0,
    // Fig 6 calibration: averaged over 4B..1KB the SmartNIC's hardware send
    // is 4.6x cheaper than DPDK and 4.2x cheaper than host RDMA.
    dpdk_send_base: SimTime::from_ns(1450),
    dpdk_send_per_byte_ns: 0.95,
    rdma_send_base: SimTime::from_ns(1330),
    rdma_send_per_byte_ns: 0.85,
};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn line_rate_pps_matches_hand_math() {
        // 10GbE at 256B frames: 10e9 / ((256+24)*8) = 4.464 Mpps.
        let pps = line_rate_pps(10.0, 256);
        assert!((pps - 4_464_285.7).abs() < 1.0, "pps={pps}");
        // 25GbE at 1024B: 25e9 / (1048*8) = 2.98 Mpps.
        let pps = line_rate_pps(25.0, 1024);
        assert!((pps - 2_981_870.2).abs() < 1.0, "pps={pps}");
    }

    #[test]
    fn forward_cost_is_affine() {
        let c = CN2350.fwd;
        assert_eq!(c.cost(0), SimTime::from_ns(1900));
        let c256 = c.cost(256).as_ns();
        assert!((c256 as i64 - 2176).abs() <= 1, "cost(256)={c256}");
    }

    #[test]
    fn table1_rows_are_faithful() {
        assert_eq!(CN2350.cores, 12);
        assert!((CN2350.freq_ghz - 1.2).abs() < 1e-9);
        assert_eq!(CN2360.cores, 16);
        assert_eq!(BLUEFIELD_1M332A.dram_gb, 16);
        assert_eq!(STINGRAY_PS225.cache.l2_bytes, 16 * 1024 * 1024);
        assert_eq!(CN2350.kind, NicKind::OnPath);
        assert_eq!(STINGRAY_PS225.kind, NicKind::OffPath);
        assert_eq!(CN2350.host_path, HostPath::NativeDma);
        assert_eq!(BLUEFIELD_1M332A.host_path, HostPath::Rdma);
    }

    #[test]
    fn table2_latencies_are_faithful() {
        assert_eq!(CN2350.mem.l2, SimTime::from_ns(56));
        assert_eq!(CN2350.mem.dram, SimTime::from_ns(115));
        assert_eq!(STINGRAY_PS225.mem.dram, SimTime::from_ns(85));
        assert_eq!(HOST_XEON.mem.l3, Some(SimTime::from_ns(22)));
        assert!(CN2350.mem.l3.is_none());
    }

    #[test]
    fn cycles_respect_frequency() {
        // 1200 cycles at 1.2GHz = 1us.
        assert_eq!(CN2350.cycles(1200), SimTime::from_us(1));
        // 3000 cycles at 3.0GHz = 1us.
        assert_eq!(STINGRAY_PS225.cycles(3000), SimTime::from_us(1));
        assert_eq!(HOST_XEON.cycles(2500), SimTime::from_us(1));
    }

    #[test]
    fn fig6_send_ratio_calibration() {
        // Average NIC-hw vs DPDK vs RDMA send cost across Fig 6's sizes.
        let sizes = [4u32, 8, 16, 32, 64, 128, 256, 512, 1024];
        let avg = |f: &dyn Fn(u32) -> SimTime| {
            sizes.iter().map(|&s| f(s).as_ns() as f64).sum::<f64>() / sizes.len() as f64
        };
        let nic = avg(&|s| CN2350.hw_send(s));
        let dpdk = avg(&|s| HOST_XEON.dpdk_send(s));
        let rdma = avg(&|s| HOST_XEON.rdma_send(s));
        let r_dpdk = dpdk / nic;
        let r_rdma = rdma / nic;
        // Paper: 4.6x and 4.2x average speedups.
        assert!((r_dpdk - 4.6).abs() < 0.7, "dpdk ratio {r_dpdk}");
        assert!((r_rdma - 4.2).abs() < 0.7, "rdma ratio {r_rdma}");
    }

    /// Every card (and the host) must expose a physically sensible memory
    /// hierarchy: each level at least as slow as the one above it. The DSE
    /// grid extrapolates geometries from these rows, so a transposed Table 2
    /// entry would silently skew every synthesized design.
    #[test]
    fn mem_hierarchy_is_ordered_on_every_card() {
        let mut rows: Vec<(&str, MemLatencies)> =
            ALL_NICS.iter().map(|spec| (spec.name, spec.mem)).collect();
        rows.push((HOST_XEON.name, HOST_XEON.mem));
        for (name, mem) in rows {
            assert!(mem.l1 <= mem.l2, "{name}: l1 > l2");
            let below_l2 = mem.l3.unwrap_or(mem.dram);
            assert!(mem.l2 <= below_l2, "{name}: l2 > next level");
            if let Some(l3) = mem.l3 {
                assert!(l3 <= mem.dram, "{name}: l3 > dram");
            }
            assert!(mem.l2 <= mem.dram, "{name}: l2 > dram");
        }
    }

    /// `ForwardCost::cost` must be monotone non-decreasing in packet size on
    /// every card — the affine model only stays affine if the rounding of the
    /// per-byte term can never make a larger frame cheaper.
    #[test]
    fn forward_cost_monotone_in_packet_size() {
        for spec in ALL_NICS {
            let mut last = SimTime::ZERO;
            for size in 0..=1518u32 {
                let c = spec.fwd.cost(size);
                assert!(
                    c >= last,
                    "{}: cost({size}) = {c:?} < cost({}) = {last:?}",
                    spec.name,
                    size - 1
                );
                last = c;
            }
        }
    }

    /// Cores needed for line rate, derived here by hand from the `fwd`
    /// constants, must match the Fig 2/3 calibration comments on each card
    /// and the traffic model's own search. This pins the numbers the DSE
    /// grid extrapolates from in both places.
    #[test]
    fn cores_for_line_rate_matches_calibration_comments() {
        use crate::traffic::cores_for_line_rate;

        // ceil(pps_needed * cost_ns), the hand-math in the fwd comments, with
        // the traffic model's 0.1% line-rate tolerance and pps ceiling.
        let by_hand = |spec: &NicSpec, frame: u32| -> Option<u32> {
            let need = line_rate_pps(spec.link_gbps, frame) * 0.999;
            if need > spec.hw_pps_limit {
                return None;
            }
            #[expect(clippy::cast_possible_truncation, reason = "a core count, rounded up")]
            let cores = (need * spec.fwd.cost(frame).as_ns() as f64 * 1e-9).ceil() as u32;
            (cores <= spec.cores).then_some(cores.max(1))
        };

        // Fig 2 comment on CN2350: 10/6/4/3 at 256/512/1024/1500 B,
        // 64/128 B unreachable. Fig 3 comment on Stingray: 3/2/1/1, with the
        // hardware pps ceiling killing 64/128 B. CN2360 and BlueField carry
        // no figure of their own; their expectations below are derived from
        // the same hand-math (25GbE needs 11.2 Mpps at 256 B, more than 16
        // slow cnMIPS or 8 slow A72 cores can forward).
        let expected: [(&NicSpec, [Option<u32>; 4]); 4] = [
            (&CN2350, [Some(10), Some(6), Some(4), Some(3)]),
            (&CN2360, [None, Some(12), Some(8), Some(6)]),
            (&BLUEFIELD_1M332A, [None, Some(7), Some(5), Some(4)]),
            (&STINGRAY_PS225, [Some(3), Some(2), Some(1), Some(1)]),
        ];
        for (spec, want) in expected {
            for (frame, want) in [256u32, 512, 1024, 1500].into_iter().zip(want) {
                assert_eq!(
                    by_hand(spec, frame),
                    want,
                    "{} @ {frame}B (hand math)",
                    spec.name
                );
                assert_eq!(
                    cores_for_line_rate(spec, frame),
                    want,
                    "{} @ {frame}B (traffic model)",
                    spec.name
                );
            }
            // Small frames never reach line rate on any card (Figs 2/3).
            for frame in [64u32, 128] {
                assert_eq!(
                    cores_for_line_rate(spec, frame),
                    None,
                    "{} @ {frame}B should miss line rate",
                    spec.name
                );
            }
        }
    }

    #[test]
    fn every_study_card_has_accelerators() {
        // Table 3: all four cards ship crypto/CRC engines; only synthesized
        // DSE designs may turn them off.
        for spec in ALL_NICS {
            assert!(spec.has_accels, "{}", spec.name);
        }
    }

    #[test]
    fn stingray_is_much_cheaper_per_packet_than_liquidio() {
        // 3.0GHz A72 vs 1.2GHz cnMIPS: Fig 2 vs Fig 3 imply roughly an
        // order-of-magnitude gap in per-packet cost.
        let ratio =
            CN2350.fwd.cost(256).as_ns() as f64 / STINGRAY_PS225.fwd.cost(256).as_ns() as f64;
        assert!(ratio > 6.0 && ratio < 12.0, "ratio={ratio}");
    }
}

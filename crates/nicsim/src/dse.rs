//! Design-space grid enumeration for cost-aware NIC exploration
//! (ROADMAP item 3, in the spirit of Kugelblitz).
//!
//! The paper's Table 3 answers "which app should offload to which card" for
//! four concrete products. This module generalizes the question: it
//! synthesizes a family of hypothetical SmartNICs by varying the `NicSpec`
//! axes that actually moved the needle in the characterization study —
//! wimpy-core count, core frequency, on-path vs off-path traffic management,
//! memory-hierarchy geometry (Table 2), and accelerator availability
//! (Table 3) — while holding the microarchitecture class (cnMIPS-like,
//! 2-wide) and the link (25 GbE) fixed so that axes stay independent.
//!
//! Everything here is pure data: synthesizing a [`DesignPoint`] never looks
//! at sweep order, wall clock, or any global, and [`DesignPoint::id`] is a
//! function of the spec fields alone. That purity is what lets the bench
//! layer byte-diff a grid run serially against the same grid run on a
//! parallel sweep (DESIGN.md §15).

use crate::spec::{CacheGeom, ForwardCost, HostPath, MemLatencies, NicKind, NicSpec, CN2350};
use ipipe_sim::SimTime;

/// A named memory-hierarchy geometry preset (latencies + cache shape) used
/// as one grid axis. The name is display-only; exports identify a geometry
/// by its DRAM latency, which is carried in the spec itself.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MemGeom {
    /// Human-readable preset name ("base", "fast").
    pub name: &'static str,
    /// Pointer-chasing latencies (Table 2 rows).
    pub mem: MemLatencies,
    /// Cache geometry paired with those latencies.
    pub cache: CacheGeom,
}

/// cnMIPS-class geometry: Table 2 row 1 (8/56/115 ns, 128 B lines, 4 MB L2).
pub const MEM_BASE: MemGeom = MemGeom {
    name: "base",
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
};

/// Stingray-class geometry: Table 2 row 3 (1/25/85 ns, 64 B lines, 16 MB L2).
pub const MEM_FAST: MemGeom = MemGeom {
    name: "fast",
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
};

/// The axes of the exploration grid. [`DesignAxes::enumerate`] takes the
/// full cross product in a fixed nesting order (cores, then frequency, then
/// path kind, then memory geometry, then accelerators); the order only
/// affects presentation — every cell's identity and result are pure in its
/// own spec.
#[derive(Debug, Clone)]
pub struct DesignAxes {
    /// Wimpy-core counts to sweep.
    pub cores: Vec<u32>,
    /// Core frequencies in GHz.
    pub freq_ghz: Vec<f64>,
    /// On-path vs off-path traffic management (Fig 1b/1c).
    pub kinds: Vec<NicKind>,
    /// Memory-hierarchy geometries.
    pub mems: Vec<MemGeom>,
    /// Accelerator availability (Table 3 engines present or priced out).
    pub accels: Vec<bool>,
}

impl DesignAxes {
    /// The committed-figure grid: 4 core counts x 3 frequencies x both path
    /// kinds x both geometries x engines on/off = 96 designs.
    pub fn full() -> Self {
        DesignAxes {
            cores: vec![2, 4, 8, 16],
            freq_ghz: vec![0.8, 1.5, 3.0],
            kinds: vec![NicKind::OnPath, NicKind::OffPath],
            mems: vec![MEM_BASE, MEM_FAST],
            accels: vec![true, false],
        }
    }

    /// CI-sized grid: 16 designs covering every axis with at least two
    /// values except memory geometry.
    pub fn smoke() -> Self {
        DesignAxes {
            cores: vec![4, 12],
            freq_ghz: vec![1.2, 3.0],
            kinds: vec![NicKind::OnPath, NicKind::OffPath],
            mems: vec![MEM_BASE],
            accels: vec![true, false],
        }
    }

    /// Differential-oracle grid: 4 designs, small enough to re-run several
    /// times in a debug-build test.
    pub fn tiny() -> Self {
        DesignAxes {
            cores: vec![4, 12],
            freq_ghz: vec![1.2],
            kinds: vec![NicKind::OnPath, NicKind::OffPath],
            mems: vec![MEM_BASE],
            accels: vec![true],
        }
    }

    /// Number of designs in the cross product.
    pub fn len(&self) -> usize {
        self.cores.len()
            * self.freq_ghz.len()
            * self.kinds.len()
            * self.mems.len()
            * self.accels.len()
    }

    /// True when any axis is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Enumerate the full cross product. Each design holds its card by
    /// value, so it drives the same cluster and fig16 harnesses as the
    /// Table 1 card constants and is freed with the returned vector.
    pub fn enumerate(&self) -> Vec<DesignPoint> {
        let mut out = Vec::with_capacity(self.len());
        for &cores in &self.cores {
            for &freq in &self.freq_ghz {
                for &kind in &self.kinds {
                    for &mem in &self.mems {
                        for &accels in &self.accels {
                            out.push(DesignPoint {
                                spec: synthesize(cores, freq, kind, mem, accels),
                            });
                        }
                    }
                }
            }
        }
        out
    }
}

/// One synthesized NIC design: its card, held by value, plus an identity
/// that is pure in the spec fields — two enumerations of the same axes (in
/// any order, from any thread) produce the same ids, so exported results
/// carry no sweep-order fingerprint.
#[derive(Debug, Clone, Copy)]
pub struct DesignPoint {
    /// The synthesized card model.
    pub spec: NicSpec,
}

impl DesignPoint {
    /// Stable identity derived from the spec alone:
    /// `c<cores>-f<MHz>-<onp|offp>-m<dram ns>-<acc|soft>`.
    #[expect(
        clippy::cast_possible_truncation,
        reason = "a clock in MHz is a small whole number"
    )]
    pub fn id(&self) -> String {
        let s = &self.spec;
        format!(
            "c{:02}-f{:04}-{}-m{:03}-{}",
            s.cores,
            (s.freq_ghz * 1e3).round() as u32,
            match s.kind {
                NicKind::OnPath => "onp",
                NicKind::OffPath => "offp",
            },
            s.mem.dram.as_ns(),
            if s.has_accels { "acc" } else { "soft" },
        )
    }
}

/// Frequency of the cnMIPS template the forwarding costs are scaled from.
const TEMPLATE_FREQ_GHZ: f64 = 1.2;

/// Synthesize one design. The per-packet software costs are the CN2350's
/// cnMIPS numbers scaled inversely with frequency (the microarchitecture is
/// held fixed; only the clock varies), the hardware pps ceiling grows with
/// the core count (wider MAC/buffer indexing), and the DMA engine block is
/// the CN2350's — PCIe Gen3 x8 for every design, as in the study.
fn synthesize(cores: u32, freq_ghz: f64, kind: NicKind, mem: MemGeom, accels: bool) -> NicSpec {
    let scale = TEMPLATE_FREQ_GHZ / freq_ghz;
    #[expect(clippy::cast_possible_truncation, reason = "rounds to whole ns")]
    let scaled = |ns: f64| SimTime::from_ns((ns * scale).round() as u64);
    NicSpec {
        name: "dse-synth",
        vendor: "ipipe-dse",
        processor: "synthetic cnMIPS-class",
        cores,
        freq_ghz,
        link_gbps: 25.0,
        ports: 2,
        kind,
        dram_gb: 8,
        deployed_sw: "Firmware",
        nstack: "Raw packet",
        host_path: match kind {
            NicKind::OnPath => HostPath::NativeDma,
            NicKind::OffPath => HostPath::Rdma,
        },
        mem: mem.mem,
        cache: mem.cache,
        fwd: ForwardCost {
            base: scaled(CN2350.fwd.base.as_ns() as f64),
            per_byte_ns: CN2350.fwd.per_byte_ns * scale,
        },
        // MAC/packet-buffer indexing widens with the core complex: 1 Mpps
        // per core over a 6 Mpps floor lands the 12-core point at the
        // Stingray's measured 18 Mpps ceiling.
        hw_pps_limit: 1.0e6 * cores as f64 + 6.0e6,
        ideal_ipc: 2.0,
        dma: CN2350.dma,
        hw_send_base: scaled(CN2350.hw_send_base.as_ns() as f64),
        hw_send_per_byte_ns: CN2350.hw_send_per_byte_ns * scale,
        has_accels: accels,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn enumerate_covers_the_cross_product_with_unique_ids() {
        for axes in [DesignAxes::tiny(), DesignAxes::smoke(), DesignAxes::full()] {
            let designs = axes.enumerate();
            assert_eq!(designs.len(), axes.len());
            let mut ids: Vec<String> = designs.iter().map(|d| d.id()).collect();
            ids.sort();
            ids.dedup();
            assert_eq!(ids.len(), designs.len(), "duplicate ids in {axes:?}");
        }
    }

    #[test]
    fn id_is_pure_in_the_spec() {
        // Two independent enumerations (one reversed) give the same identity
        // for the same spec — no sweep-order or allocation fingerprint.
        let a = DesignAxes::smoke().enumerate();
        let mut rev = DesignAxes::smoke();
        rev.cores.reverse();
        rev.freq_ghz.reverse();
        rev.accels.reverse();
        let b = rev.enumerate();
        for da in &a {
            let twin = b
                .iter()
                .find(|db| {
                    db.spec.cores == da.spec.cores
                        && db.spec.freq_ghz == da.spec.freq_ghz
                        && db.spec.kind == da.spec.kind
                        && db.spec.has_accels == da.spec.has_accels
                })
                .expect("same cross product");
            assert_eq!(da.id(), twin.id());
        }
    }

    #[test]
    fn template_point_matches_cn2350_costs() {
        // At the template frequency the synthesized forwarding model must
        // reproduce the CN2350 calibration exactly.
        let spec = synthesize(12, 1.2, NicKind::OnPath, MEM_BASE, true);
        assert_eq!(spec.fwd, CN2350.fwd);
        assert_eq!(spec.hw_send_base, CN2350.hw_send_base);
        assert_eq!(spec.mem, CN2350.mem);
        assert_eq!(spec.cache, CN2350.cache);
        // And the pps ceiling interpolates to the Stingray's measured
        // 18 Mpps at the 12-core / 25 GbE point.
        assert_eq!(
            synthesize(12, 3.0, NicKind::OffPath, MEM_FAST, true).hw_pps_limit,
            crate::spec::STINGRAY_PS225.hw_pps_limit
        );
    }

    #[test]
    fn faster_clocks_forward_cheaper() {
        let slow = synthesize(8, 0.8, NicKind::OnPath, MEM_BASE, true);
        let fast = synthesize(8, 3.0, NicKind::OnPath, MEM_BASE, true);
        for size in [64u32, 256, 1024, 1500] {
            assert!(fast.fwd.cost(size) < slow.fwd.cost(size));
        }
    }

    #[test]
    fn ids_render_the_documented_shape() {
        let d = DesignPoint {
            spec: synthesize(4, 1.2, NicKind::OnPath, MEM_BASE, true),
        };
        assert_eq!(d.id(), "c04-f1200-onp-m115-acc");
        let d = DesignPoint {
            spec: synthesize(16, 3.0, NicKind::OffPath, MEM_FAST, false),
        };
        assert_eq!(d.id(), "c16-f3000-offp-m085-soft");
    }
}

//! Core timing model: converts an execution profile (instructions retired +
//! cache behaviour + accelerator waits) into latency, IPC and MPKI — the
//! three columns of Table 3.

use crate::mem::MemCounters;
use crate::spec::{HostSpec, MemLatencies, NicSpec};
use ipipe_sim::SimTime;

/// The timing-relevant parameters of one core.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CoreModel {
    /// Core frequency in GHz.
    pub freq_ghz: f64,
    /// Ideal issue width (instructions/cycle with no stalls).
    pub ideal_ipc: f64,
    /// Memory latencies for stall accounting.
    pub mem: MemLatencies,
    /// Fraction of each miss latency actually exposed to the pipeline.
    /// In-order wimpy cores hide almost nothing (0.85); the out-of-order
    /// host overlaps a good chunk (0.55).
    pub stall_exposure: f64,
}

impl CoreModel {
    /// Timing model for a SmartNIC core.
    pub fn for_nic(spec: &NicSpec) -> CoreModel {
        CoreModel {
            freq_ghz: spec.freq_ghz,
            ideal_ipc: spec.ideal_ipc,
            mem: spec.mem,
            stall_exposure: 0.85,
        }
    }

    /// Timing model for a host core.
    ///
    /// The two-level cache simulator has no L3, so an "L2-level hit" on the
    /// host stands for the L2/L3 ensemble: we charge the L3 latency for it,
    /// which keeps the host's mid-hierarchy advantage (Table 2) without a
    /// third cache level.
    pub fn for_host(spec: &HostSpec) -> CoreModel {
        let mut mem = spec.mem;
        if let Some(l3) = mem.l3 {
            mem.l2 = l3;
        }
        CoreModel {
            freq_ghz: spec.freq_ghz,
            ideal_ipc: spec.ideal_ipc,
            mem,
            stall_exposure: 0.55,
        }
    }

    fn ns_to_cycles(&self, t: SimTime) -> f64 {
        t.as_ns() as f64 * self.freq_ghz
    }
}

/// An execution profile accumulated while running real workload code against
/// the instrumented memory (`TrackedMem`).
#[derive(Debug, Clone, Copy, Default)]
pub struct ExecProfile {
    /// Instructions retired (ALU/control + one per memory access).
    pub instructions: u64,
    /// Cache behaviour of the profiled section.
    pub mem: MemCounters,
    /// Time spent synchronously waiting on accelerators.
    pub accel_wait: SimTime,
}

/// The derived timing numbers (one Table 3 row, left half).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ExecResult {
    /// End-to-end execution latency.
    pub latency: SimTime,
    /// Achieved instructions per cycle.
    pub ipc: f64,
    /// L2 misses per kilo-instruction (the paper's MPKI).
    pub mpki: f64,
}

impl ExecProfile {
    /// Evaluate the profile on a given core.
    ///
    /// `cycles = instr/ideal_ipc + exposure · (l2_hits·lat_L2 + misses·lat_DRAM)`
    /// — the standard CPI-stack model. L1 hits are assumed pipelined into the
    /// base CPI.
    pub fn evaluate(&self, core: &CoreModel) -> ExecResult {
        let instr = self.instructions.max(1);
        let l2_hits = self.mem.l1_misses - self.mem.l2_misses;
        let base_cycles = instr as f64 / core.ideal_ipc;
        let stall_cycles = core.stall_exposure
            * (l2_hits as f64 * core.ns_to_cycles(core.mem.l2)
                + self.mem.l2_misses as f64 * core.ns_to_cycles(core.mem.dram));
        let cycles = base_cycles + stall_cycles;
        #[expect(clippy::cast_possible_truncation, reason = "rounds to whole ns")]
        let compute = SimTime::from_ns((cycles / core.freq_ghz).round() as u64);
        ExecResult {
            latency: compute + self.accel_wait,
            ipc: instr as f64 / cycles,
            mpki: self.mem.l2_misses as f64 * 1000.0 / instr as f64,
        }
    }

    /// Merge another profile into this one.
    pub fn merge(&mut self, other: &ExecProfile) {
        self.instructions += other.instructions;
        self.mem.accesses += other.mem.accesses;
        self.mem.l1_misses += other.mem.l1_misses;
        self.mem.l2_misses += other.mem.l2_misses;
        self.accel_wait += other.accel_wait;
    }

    /// Scale to a per-request average over `n` requests.
    pub fn per_request(&self, n: u64) -> ExecProfile {
        let n = n.max(1);
        ExecProfile {
            instructions: self.instructions / n,
            mem: MemCounters {
                accesses: self.mem.accesses / n,
                l1_misses: self.mem.l1_misses / n,
                l2_misses: self.mem.l2_misses / n,
            },
            accel_wait: self.accel_wait / n,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{CN2350, HOST_XEON};

    #[test]
    fn pure_compute_hits_ideal_ipc() {
        let p = ExecProfile {
            instructions: 24_000,
            mem: MemCounters::default(),
            accel_wait: SimTime::ZERO,
        };
        let r = p.evaluate(&CoreModel::for_nic(&CN2350));
        assert!((r.ipc - 2.0).abs() < 1e-9);
        assert!((r.mpki - 0.0).abs() < 1e-9);
        // 24000 instr / 2 IPC = 12000 cycles @1.2GHz = 10us.
        assert_eq!(r.latency, SimTime::from_us(10));
    }

    #[test]
    fn memory_bound_profile_has_low_ipc_high_mpki() {
        let p = ExecProfile {
            instructions: 10_000,
            mem: MemCounters {
                accesses: 5_000,
                l1_misses: 600,
                l2_misses: 150,
            },
            accel_wait: SimTime::ZERO,
        };
        let r = p.evaluate(&CoreModel::for_nic(&CN2350));
        assert!(r.ipc < 0.6, "ipc={}", r.ipc);
        assert!((r.mpki - 15.0).abs() < 1e-9);
    }

    #[test]
    fn host_core_is_faster_especially_for_compute() {
        let compute = ExecProfile {
            instructions: 50_000,
            mem: MemCounters::default(),
            accel_wait: SimTime::ZERO,
        };
        let memory = ExecProfile {
            instructions: 10_000,
            mem: MemCounters {
                accesses: 6_000,
                l1_misses: 1_500,
                l2_misses: 400,
            },
            accel_wait: SimTime::ZERO,
        };
        let nic = CoreModel::for_nic(&CN2350);
        let host = CoreModel::for_host(&HOST_XEON);
        let comp_speedup = compute.evaluate(&nic).latency.as_ns() as f64
            / compute.evaluate(&host).latency.as_ns() as f64;
        let mem_speedup = memory.evaluate(&nic).latency.as_ns() as f64
            / memory.evaluate(&host).latency.as_ns() as f64;
        // Implication I3: compute-bound work gains much more from the beefy
        // host core than memory-bound work.
        assert!(comp_speedup > 3.0, "compute speedup {comp_speedup}");
        assert!(
            mem_speedup < comp_speedup,
            "mem {mem_speedup} vs comp {comp_speedup}"
        );
        assert!(mem_speedup > 1.0);
    }

    #[test]
    fn accel_wait_adds_to_latency_not_ipc() {
        let mut p = ExecProfile {
            instructions: 2_400,
            mem: MemCounters::default(),
            accel_wait: SimTime::from_us(5),
        };
        let r = p.evaluate(&CoreModel::for_nic(&CN2350));
        assert_eq!(r.latency, SimTime::from_us(6));
        assert!((r.ipc - 2.0).abs() < 1e-9);
        p.accel_wait = SimTime::ZERO;
        assert_eq!(
            p.evaluate(&CoreModel::for_nic(&CN2350)).latency,
            SimTime::from_us(1)
        );
    }

    #[test]
    fn merge_and_per_request() {
        let mut a = ExecProfile {
            instructions: 100,
            mem: MemCounters {
                accesses: 10,
                l1_misses: 4,
                l2_misses: 2,
            },
            accel_wait: SimTime::from_us(1),
        };
        let b = a;
        a.merge(&b);
        assert_eq!(a.instructions, 200);
        assert_eq!(a.mem.l2_misses, 4);
        let per = a.per_request(2);
        assert_eq!(per.instructions, 100);
        assert_eq!(per.accel_wait, SimTime::from_us(1));
    }
}

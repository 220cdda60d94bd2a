//! Host-side execution model: beefy Xeon cores running DPDK-style poll-mode
//! runtimes, and the host↔NIC relative-speed function the iPipe migration
//! machinery relies on (implication I3).

use crate::cpu::{CoreModel, ExecProfile};
use crate::spec::{HostSpec, NicSpec};
use ipipe_sim::SimTime;

/// How much faster a host core executes a given profile than a NIC core.
///
/// Compute-bound actors (low MPKI) see close to the full frequency ×
/// microarchitecture advantage; memory-bound ones (high MPKI) are limited by
/// DRAM and gain far less — the paper's reason to prefer offloading
/// memory-bound tasks (I3).
pub fn host_speedup(nic: &NicSpec, host: &HostSpec, profile: &ExecProfile) -> f64 {
    let on_nic = profile.evaluate(&CoreModel::for_nic(nic)).latency;
    let on_host = profile.evaluate(&CoreModel::for_host(host)).latency;
    if on_host.as_ns() == 0 {
        return 1.0;
    }
    on_nic.as_ns() as f64 / on_host.as_ns() as f64
}

/// Equivalent number of fully-busy cores a core pool kept over `wall`, given
/// the core time `busy` it was charged: "CPU cores used" (Fig 13), and from
/// it Fig 17's "CPU usage %". Zero over an empty interval.
pub fn cores_used(busy: SimTime, wall: SimTime) -> f64 {
    if wall == SimTime::ZERO {
        return 0.0;
    }
    busy.as_secs_f64() / wall.as_secs_f64()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mem::MemCounters;
    use crate::spec::{CN2350, HOST_XEON};

    #[test]
    fn speedup_depends_on_memory_boundedness() {
        let compute = ExecProfile {
            instructions: 40_000,
            mem: MemCounters::default(),
            accel_wait: SimTime::ZERO,
        };
        let membound = ExecProfile {
            instructions: 8_000,
            mem: MemCounters {
                accesses: 4_000,
                l1_misses: 1_200,
                l2_misses: 400,
            },
            accel_wait: SimTime::ZERO,
        };
        let s_c = host_speedup(&CN2350, &HOST_XEON, &compute);
        let s_m = host_speedup(&CN2350, &HOST_XEON, &membound);
        assert!(s_c > 3.5, "compute speedup {s_c}");
        assert!(s_m < s_c);
        assert!(s_m > 1.0);
    }

    #[test]
    fn cpu_accounting() {
        let busy = SimTime::from_ms(500) + SimTime::from_ms(750);
        assert!((cores_used(busy, SimTime::from_secs(1)) - 1.25).abs() < 1e-9);
    }

    #[test]
    fn empty_accounting_is_zero() {
        assert_eq!(cores_used(SimTime::from_ms(3), SimTime::ZERO), 0.0);
    }
}

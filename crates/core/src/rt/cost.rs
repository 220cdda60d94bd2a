//! Cost formulas of the runtime model: ring crossings, framework overheads,
//! memory time and emit costs (§2.2 characterization, Fig 17 overheads).

use super::RuntimeMode;
use crate::actor::Emit;
use crate::dmo::DmoTraffic;
use ipipe_nicsim::dma::{DmaEngine, DmaOp, RdmaModel};
use ipipe_nicsim::spec::{HostPath, HostSpec, NicSpec};
use ipipe_sim::SimTime;

/// Host-side ring pop cost: poll + copy + checksum verify. The polling
/// thread pays DPDK-like per-message cycles even on the ring path (Fig 17's
/// methodology pins the same communication thread for both systems).
pub(super) fn ring_pop_cost(size: u32) -> SimTime {
    SimTime::from_ns(900 + (size as u64) / 8)
}

/// Host-side ring push cost (the NIC's PKO does the wire work).
pub(super) const RING_PUSH_COST: SimTime = SimTime::from_ns(320);

/// Per-request scheduler/bookkeeping overhead on the host runtime thread.
pub(super) const BOOKKEEP_COST: SimTime = SimTime::from_ns(140);

/// Framework message-handling overhead stacked on the shared communication
/// thread in the Fig 17 host-only comparison.
pub(super) const MSG_HANDLE_COST: SimTime = SimTime::from_ns(150);

/// DMO object-table translation overhead (Fig 17: one of the framework's
/// three overhead sources).
pub(super) fn dmo_translate_cost(lookups: u64) -> SimTime {
    SimTime::from_ns(18 * lookups)
}

/// PCIe ring crossing latency: batched non-blocking DMA of the descriptor +
/// payload, plus the poll gap on the receiving side. Cards whose host path
/// is RDMA verbs (BlueField, Stingray — Table 1) pay the verbs overhead of
/// Fig 9 instead of the native DMA cost.
fn ring_latency(spec: &NicSpec, op: DmaOp, size: u32) -> SimTime {
    let poll = SimTime::from_ns(900);
    let crossing = match (spec.host_path, op) {
        (HostPath::NativeDma, _) => DmaEngine::new(spec).nonblocking_completion(op, size + 16),
        (HostPath::Rdma, DmaOp::Write) => RdmaModel::new(spec).write_latency(size + 16),
        (HostPath::Rdma, DmaOp::Read) => RdmaModel::new(spec).read_latency(size + 16),
    };
    crossing + poll
}

/// NIC→host ring crossing latency (the NIC writes host memory).
pub(super) fn ring_to_host_latency(spec: &NicSpec, size: u32) -> SimTime {
    ring_latency(spec, DmaOp::Write, size)
}

/// Host→NIC ring crossing latency (the NIC reads host memory).
pub(super) fn ring_to_nic_latency(spec: &NicSpec, size: u32) -> SimTime {
    ring_latency(spec, DmaOp::Read, size)
}

/// Delay before an emitted packet reaches the wire. NIC-side emits leave
/// immediately; a host-emitted packet first crosses the ring so the NIC's
/// hardware path can send it (iPipe) or the host's own stack (host-only
/// modes).
pub(super) fn egress_delay(
    mode: RuntimeMode,
    spec: &NicSpec,
    from_nic: bool,
    size: u32,
) -> SimTime {
    if from_nic {
        return SimTime::ZERO;
    }
    match mode {
        RuntimeMode::HostDpdk | RuntimeMode::HostIPipe => SimTime::from_ns(300),
        RuntimeMode::IPipe => ring_to_nic_latency(spec, size),
    }
}

/// NIC-side memory time for an execution's DMO traffic: table lookups hit
/// the L2-resident object table; data touches hit L2 or DRAM depending on
/// whether the actor's working set fits (implication I5).
pub(super) fn nic_mem_time(spec: &NicSpec, state_hot: bool, t: DmoTraffic) -> SimTime {
    let line = spec.cache.line as u64;
    let lines = t.bytes.div_ceil(line);
    let data_lat = if state_hot {
        spec.mem.l2
    } else {
        spec.mem.dram
    };
    spec.mem.l2 * t.lookups + data_lat * lines
}

/// Host-side memory time for the same traffic (faster hierarchy, more MLP).
pub(super) fn host_mem_time(host: &HostSpec, t: DmoTraffic) -> SimTime {
    let line = host.cache.line as u64;
    let lines = t.bytes.div_ceil(line);
    let l3 = host.mem.l3.unwrap_or(host.mem.dram);
    l3 * t.lookups + l3 * lines
}

/// NIC core cost to emit a message: every emit is charged the shim stack's
/// scatter-gather send.
pub(super) fn nic_emit_cost(spec: &NicSpec, e: &Emit) -> SimTime {
    crate::nstack::send_cost(spec, e.wire_size)
}

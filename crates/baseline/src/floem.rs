//! A Floem-flavoured static-offload runtime (§5.6).
//!
//! Floem expresses packet processing as a data-flow graph whose offloaded
//! elements are **stationary**: placement is fixed at configuration time, no
//! matter what the traffic looks like. Its common offloaded elements are
//! simple (hashing/steering/bypass); complex computations run on the host,
//! reached through a NIC-side bypass queue that adds per-packet
//! multiplexing overhead. This module reproduces those semantics on top of
//! the iPipe runtime so §5.6's comparison is placement policy vs placement
//! policy, with everything else held equal:
//!
//! * static placement (migration disabled via wrappers that never move);
//! * the simple element (filter) pinned to the NIC, the complex elements
//!   (counter, ranker) pinned to the host;
//! * a per-packet bypass-queue charge on the NIC element.

use ipipe::actor::{ActorCtx, ActorLogic, Request};
use ipipe::prelude::*;
use ipipe::rt::Cluster;
use ipipe_apps::rta::actors::{deploy_pipeline, RtaDeployment, Stage};

/// Per-packet NIC-side bypass-queue multiplexing overhead (§5.6: "Floem
/// utilizes a NIC-side bypass queue to mitigate the multiplexing overhead" —
/// mitigate, not eliminate).
pub const BYPASS_QUEUE_COST: SimTime = SimTime::from_ns(650);

/// Wrap an element so it is *stationary on the NIC* and pays the bypass
/// multiplexing cost.
pub struct NicElement {
    inner: Box<dyn ActorLogic>,
}

impl NicElement {
    /// Pin `inner` to the NIC.
    pub fn new(inner: Box<dyn ActorLogic>) -> Self {
        NicElement { inner }
    }
}

impl ActorLogic for NicElement {
    fn init(&mut self, ctx: &mut ActorCtx<'_>) {
        self.inner.init(ctx);
    }

    fn exec(&mut self, ctx: &mut ActorCtx<'_>, req: Request) {
        ctx.charge(BYPASS_QUEUE_COST);
        self.inner.exec(ctx, req);
    }

    fn host_speedup(&self) -> f64 {
        self.inner.host_speedup()
    }

    fn state_hint_bytes(&self) -> u64 {
        self.inner.state_hint_bytes()
    }
}

/// Wrap an element so it is *stationary on the host*.
pub struct HostElement {
    inner: Box<dyn ActorLogic>,
}

impl HostElement {
    /// Pin `inner` to the host.
    pub fn new(inner: Box<dyn ActorLogic>) -> Self {
        HostElement { inner }
    }
}

impl ActorLogic for HostElement {
    fn init(&mut self, ctx: &mut ActorCtx<'_>) {
        self.inner.init(ctx);
    }

    fn exec(&mut self, ctx: &mut ActorCtx<'_>, req: Request) {
        self.inner.exec(ctx, req);
    }

    fn host_speedup(&self) -> f64 {
        self.inner.host_speedup()
    }

    fn state_hint_bytes(&self) -> u64 {
        self.inner.state_hint_bytes()
    }

    fn host_pinned(&self) -> bool {
        true
    }
}

/// Deploy the RTA pipeline Floem-style: filters stationary on the NIC,
/// counters/rankers stationary on the host, no migration ever.
pub fn deploy_floem_rta(c: &mut Cluster, worker_nodes: &[usize]) -> RtaDeployment {
    deploy_pipeline(c, worker_nodes, "floem", |stage, logic| match stage {
        Stage::Filter => (Box::new(NicElement::new(logic)), Placement::Nic),
        _ => (Box::new(HostElement::new(logic)), Placement::Host),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use ipipe::rt::ClientReq;
    use ipipe_apps::rta::actors::RtaMsg;
    use ipipe_nicsim::CN2350;
    use ipipe_workload::rta::RtaWorkload;

    fn drive(
        deploy: impl Fn(&mut Cluster, &[usize]) -> RtaDeployment,
        packet: u32,
        dur_ms: u64,
    ) -> (u64, f64, f64) {
        let mut c = Cluster::builder(CN2350)
            .servers(1)
            .clients(1)
            .seed(77)
            .build();
        let dep = deploy(&mut c, &[0]);
        let dst = dep.filters[0];
        let mut wl = RtaWorkload::paper_default(11);
        c.set_client(
            0,
            Box::new(move |rng, _| ClientReq {
                dst,
                wire_size: packet,
                flow: rng.below(1 << 20),
                payload: Some(Box::new(RtaMsg::Batch(wl.next_request(packet)))),
            }),
            32,
        );
        c.run_for(SimTime::from_ms(2));
        c.reset_measurements();
        c.run_for(SimTime::from_ms(dur_ms));
        let done = c.completions().count();
        let host_cores = c.host_cores_used(0);
        let gbps = done as f64 * packet as f64 * 8.0 / c.measured_wall().as_secs_f64() / 1e9;
        (done, host_cores, gbps)
    }

    /// §5.6: iPipe's dynamic offloading beats Floem's static placement in
    /// per-core throughput.
    #[test]
    fn ipipe_beats_floem_on_per_core_throughput() {
        let (done_f, cores_f, gbps_f) = drive(deploy_floem_rta, 512, 8);
        let (done_i, cores_i, gbps_i) = drive(ipipe_apps::rta::actors::deploy_rta, 512, 8);
        assert!(done_f > 500 && done_i > 500);
        let per_core_f = gbps_f / cores_f.max(0.05);
        let per_core_i = gbps_i / cores_i.max(0.05);
        assert!(
            per_core_i > per_core_f,
            "iPipe {per_core_i:.2} Gbps/core vs Floem {per_core_f:.2}"
        );
    }
}

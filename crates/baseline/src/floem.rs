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

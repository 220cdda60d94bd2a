//! The iPipe runtime: actors + scheduler + hardware models, assembled into a
//! deterministic cluster simulation (§3).
//!
//! A [`Cluster`] holds server nodes (each a SmartNIC + host pair), client
//! nodes (pktgen-style load generators) and the ToR network, each once; its
//! event shards are only clocks. Applications register [`ActorLogic`]
//! implementations with an initial [`Placement`]; the runtime then does what
//! the paper's runtime does — schedules actor executions across NIC
//! FCFS/DRR cores and host cores, forwards requests over the message rings,
//! migrates actors in four phases, keeps EWMA bookkeeping, and enforces
//! isolation.
//!
//! Three runtime modes cover the evaluation's systems:
//! * [`RuntimeMode::IPipe`] — the full framework (Figs 13–16, 18);
//! * [`RuntimeMode::HostDpdk`] — the DPDK-based host-only baseline;
//! * [`RuntimeMode::HostIPipe`] — iPipe with every actor host-side, used to
//!   measure framework overhead (Fig 17).
//!
//! ## Runtime module map
//!
//! | File | Mechanism | Paper |
//! |---|---|---|
//! | `mod.rs` | shared types, the `Ev` event enum, re-exports | §3 |
//! | `cluster.rs` | builder, [`Cluster`] API, conservative-lookahead epoch driver | §5.1 testbed |
//! | `shard.rs` | shard clocks: an epoch slice's event loop, ingress merge pools, `send_frame`, event dispatch | — |
//! | `client.rs` | client issue / retry / redirect / shed | §5.1 load generators |
//! | `nic.rs` | NIC ingress + admission, FCFS/DRR dispatch, actor execution, watchdog budget | §3.2, ALG 1/2, §3.4 |
//! | `host.rs` | host queues and execution behind the PCIe rings | §3.2.6, §3.5 |
//! | `mig.rs` | four-phase migration driver; a completed move goes to the registry and the trace, and its node keeps the last report | §3.2.5, App. B.3 |
//! | `route.rs` | `route_emit`: one routing path for every actor message | §3.1, §3.5 |
//! | `cost.rs` | ring, memory and emit cost formulas | §2.2, Fig 17 |
//! | `audit.rs` | conservation audit sweep | DESIGN.md §11 |

#![deny(clippy::cast_possible_truncation)]

mod audit;
mod client;
mod cluster;
mod cost;
mod host;
mod mig;
mod nic;
mod route;
mod shard;
#[cfg(test)]
mod tests;

pub use cluster::ClusterBuilder;

use crate::actor::{ActorId, ActorLogic, Address, Emit, Payload, Request};
use crate::admission::{AdmissionCfg, NodeAdmission};
use crate::dmo::DmoTable;
use crate::migrate::{Migration, MigrationReport};
use crate::sched::{Action, Loc, NicScheduler, SchedConfig};
use ipipe_netsim::{FaultPlan, NetModel, PacketKind};
use ipipe_nicsim::spec::NicSpec;
use ipipe_sim::audit::AuditReport;
use ipipe_sim::obs::{Counter, Gauge, HistHandle, Obs, TraceLevel};
use ipipe_sim::{DenseMap, DetRng, EpochStats, EventQueue, Histogram, IdMap, MergePool, SimTime};
use shard::{ArrivalKind, PoolKey};
use std::collections::VecDeque;

/// Capacity of the DMO region each registered actor gets (§3.3).
const DMO_REGION_BYTES: u64 = 64 << 20;

/// Initial placement of an actor.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Placement {
    /// Start on the SmartNIC (the common case; may be migrated later).
    Nic,
    /// Start on the host (e.g. actors touching persistent storage).
    Host,
}

/// Which runtime flavour a cluster models.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RuntimeMode {
    /// Full iPipe: NIC-side scheduling, rings, migration.
    IPipe,
    /// DPDK host-only baseline: the NIC is dumb; every request is steered to
    /// a host core and pays kernel-bypass messaging costs.
    HostDpdk,
    /// iPipe with all actors host-pinned: isolates the framework's own
    /// overhead (message handling, DMO translation, bookkeeping — Fig 17).
    HostIPipe,
}

/// One generated client request.
pub struct ClientReq {
    /// Destination actor.
    pub dst: Address,
    /// Request packet size.
    pub wire_size: u32,
    /// Flow label.
    pub flow: u64,
    /// Typed payload for the destination actor.
    pub payload: Payload,
}

/// Closed-loop client request generator.
pub type ClientGenFn = Box<dyn FnMut(&mut DetRng, u64) -> ClientReq>;

/// Rebuilds the payload of a request identified by its token, so the client
/// can retransmit it (payloads are `Box<dyn Any>` and not clonable; the
/// application keeps whatever it needs to reconstruct them).
pub type PayloadFn = Box<dyn FnMut(u64) -> Payload>;

/// Callback a client installs to observe routing-table refreshes: invoked
/// with `(old, new)` whenever a [`Redirect`] reply moves the client's view of
/// an address. The application layer (e.g. a sharded KV's versioned routing
/// table) uses it to retarget *future* issues; the runtime itself retargets
/// every outstanding request still aimed at `old`.
pub type RouteRefreshFn = Box<dyn FnMut(Address, Address)>;

/// Open-loop pacing for an aggregated client generator: requests arrive as a
/// seeded Poisson process at `rate_rps` aggregate requests per second —
/// modeling the combined stream of many users behind one source node —
/// independent of completions. Arrivals stop at `until` (simulated time), so
/// scenarios can quiesce and drain the in-flight tail.
#[derive(Debug, Clone, Copy)]
pub struct OpenLoopCfg {
    /// Aggregate arrival rate, requests per second.
    pub rate_rps: f64,
    /// Simulated instant past which no new request is issued.
    pub until: SimTime,
}

/// Installed open-loop pacing state of one client.
struct OpenLoop {
    arrivals: ipipe_sim::PoissonArrivals,
    until: SimTime,
}

/// Reply payload a server sends to bounce a request toward another address
/// (e.g. a non-leader replica shedding writes toward the leader). A client
/// with retransmission enabled resends the request there immediately.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Redirect(pub Address);

/// Reply payload an overloaded ingress sends instead of dispatching the
/// request (see [`crate::admission`]). The reply ends the request, and
/// `retry_after` is the server's hint for when capacity will exist again: a
/// closed-loop client re-offers the freed slot once it has passed; an
/// open-loop client sheds new arrivals at the source until it expires,
/// keeping its ledgers bounded under sustained saturation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Shed {
    /// Server-suggested wait before re-offering load.
    pub retry_after: SimTime,
}

/// Wire size of the shed reply frame (header + hint).
const SHED_REPLY_WIRE: u32 = 64;

/// Client-side retransmission policy: wait `timeout`, resend, double the
/// wait (capped at `cap`) — classic capped exponential backoff. A request is
/// abandoned after `max_tries` transmissions so a dead server cannot wedge
/// the closed loop.
#[derive(Debug, Clone, Copy)]
pub struct RetryPolicy {
    /// Wait before the first retransmission.
    pub timeout: SimTime,
    /// Upper bound on the doubled backoff.
    pub cap: SimTime,
    /// Total transmissions (first send included) before giving up.
    pub max_tries: u32,
}

/// One request a client has issued and not seen the end of: the only
/// per-token record there is. The conservation audit counts these, latency
/// is measured from `issued`, and the retry timer judges each armed one at
/// its `due`.
struct Outstanding {
    /// First transmission; retransmissions do not move it.
    issued: SimTime,
    dst: Address,
    wire_size: u32,
    flow: u64,
    /// Transmissions so far. Zero when the request went out with no retry
    /// policy installed: the retry timer never judges it, so a redirect
    /// reply ends it like any other reply.
    tries: u32,
    backoff: SimTime,
    /// When the client's retry timer judges the request next (armed
    /// requests only): `issued + timeout`, then each resend's
    /// `now + backoff`.
    due: SimTime,
}

impl Outstanding {
    /// True when the client's retry timer judges this request at `due`.
    fn armed(&self) -> bool {
        self.tries > 0
    }
}

/// Retransmission machinery of one client (the per-token state, deadlines
/// included, lives in [`ClientState::inflight`]).
struct ClientRetry {
    policy: RetryPolicy,
    payload_fn: Option<PayloadFn>,
    timer: RetryTimer,
}

/// One client's single retransmission timer: at most one live
/// [`Ev::RetryDue`], armed no later than the earliest `due` of the client's
/// armed requests. An earlier deadline arms a new `RetryDue` and parks the
/// old one, which fires and is ignored.
#[derive(Default)]
struct RetryTimer {
    /// When the live `RetryDue` fires.
    armed: Option<SimTime>,
    /// Instants of pending `RetryDue` events an earlier deadline
    /// superseded. Each fires and is ignored, unless the timer is armed for
    /// its instant again first.
    parked: Vec<SimTime>,
}

/// The clients' completions as [`Cluster::completions`] snapshots them:
/// the lifetime `issued`, `completed` and shed tallies, and a copy of the
/// one `client.latency` histogram (the measurement window's completions).
#[derive(Debug)]
pub struct CompletionStats {
    issued: u64,
    completed: u64,
    shed: u64,
    hist: HistHandle,
}

impl CompletionStats {
    /// Completed requests in the measurement window.
    pub fn count(&self) -> u64 {
        self.hist.count()
    }

    /// Requests issued (including in-flight).
    pub fn issued(&self) -> u64 {
        self.issued
    }

    /// Requests completed since the start of the run, measurement window or
    /// not — the drain check (`issued == completed`) of the open-loop
    /// scenarios.
    pub fn completed(&self) -> u64 {
        self.completed
    }

    /// Mean end-to-end latency.
    pub fn mean(&self) -> SimTime {
        self.hist.mean()
    }

    /// P50 end-to-end latency.
    pub fn p50(&self) -> SimTime {
        self.hist.p50()
    }

    /// P99 end-to-end latency.
    pub fn p99(&self) -> SimTime {
        self.hist.p99()
    }

    /// Requests shed by admission control since the start of the run.
    pub fn shed(&self) -> u64 {
        self.shed
    }

    /// Full latency histogram (owned copy of the registry slot).
    pub fn histogram(&self) -> Histogram {
        self.hist.to_histogram()
    }
}

struct ActorSlot {
    logic: Box<dyn ActorLogic>,
    name: String,
    host_speedup: f64,
    /// Cached "state fits in NIC L2" flag, refreshed periodically.
    state_hot: bool,
    execs: u64,
}

struct InFlight {
    actor: ActorId,
    arrived: SimTime,
    busy: SimTime,
    emits: Vec<Emit>,
    /// True when this is a ring-forward rather than an execution.
    forward_only: bool,
}

/// Per-node runtime metric handles (ring/DMA crossings, executions,
/// watchdog), resolved once from the cluster registry at build time.
struct RtMetrics {
    ring_to_host: Counter,
    ring_to_host_bytes: Counter,
    ring_to_nic: Counter,
    ring_xfer: HistHandle,
    ring_depth: Gauge,
    nic_exec: Counter,
    nic_forward: Counter,
    host_exec: Counter,
    watchdog_kills: Counter,
    /// Requests dropped because their actor no longer exists at dispatch
    /// time (e.g. killed by the watchdog with work still queued). Surfacing
    /// these keeps the conservation ledgers exact.
    drop_no_actor: Counter,
}

impl RtMetrics {
    fn new(obs: &Obs, node: u16) -> RtMetrics {
        let r = obs.registry();
        RtMetrics {
            ring_to_host: r.counter_on("rt.ring.to_host", node),
            ring_to_host_bytes: r.counter_on("rt.ring.to_host_bytes", node),
            ring_to_nic: r.counter_on("rt.ring.to_nic", node),
            ring_xfer: r.hist_on("rt.ring.xfer", node),
            ring_depth: r.gauge_on("rt.ring.depth", node),
            nic_exec: r.counter_on("rt.exec.nic", node),
            nic_forward: r.counter_on("rt.forward.nic", node),
            host_exec: r.counter_on("rt.exec.host", node),
            watchdog_kills: r.counter_on("rt.watchdog.kills", node),
            drop_no_actor: r.counter_on("rt.drop.no_actor", node),
        }
    }
}

struct NodeRt {
    /// Global node id.
    id: u16,
    sched: NicScheduler,
    metrics: RtMetrics,
    nic_inflight: Vec<Option<InFlight>>,
    host_queues: Vec<VecDeque<Request>>,
    host_inflight: Vec<Option<InFlight>>,
    actors: DenseMap<ActorSlot>,
    dmo: DmoTable,
    rng: DetRng,
    /// Host and NIC core time charged since the measurement window opened.
    host_busy_total: SimTime,
    nic_busy_total: SimTime,
    /// The report of the node's most recent completed migration.
    last_migration: Option<MigrationReport>,
    /// Emptied outboxes of this node's routed handler runs, each handed to
    /// the next run so an actor that emits does not allocate its outbox.
    spare_outboxes: Vec<Vec<Emit>>,
    /// Ingress admission control; `None` admits everything (the default).
    admission: Option<NodeAdmission>,
}

/// Simulation events.
enum Ev {
    /// A packet reached `node`'s NIC ingress (or, for client nodes, the
    /// response reached the client).
    Deliver { node: u16, req: Request },
    /// A NIC core finished its current work item.
    NicFree { node: u16, core: u32 },
    /// A host core finished its current work item.
    HostFree { node: u16, core: u32 },
    /// A request crossed the PCIe ring toward the host.
    RingToHost { node: u16, req: Request },
    /// A request crossed the PCIe ring toward the NIC.
    RingToNic { node: u16, req: Request },
    /// Advance `node`'s active migration to its next phase.
    MigStep { node: u16 },
    /// Re-attempt a migration that was aborted because the node was inside
    /// a crash window; fires once the node has restarted.
    MigRetry { node: u16, actor: ActorId },
    /// Client `client` issues its next request: an open-loop arrival, or a
    /// closed-loop slot that a completion or an abandonment freed (at once)
    /// or a [`Shed`] reply freed (at its `retry_after`).
    Issue { client: u16 },
    /// A corrupted frame reached `node`'s NIC ingress: the shim stack
    /// validates and discards it (payload already lost).
    DeliverCorrupt {
        node: u16,
        src: u16,
        wire_size: u32,
        flip: u8,
    },
    /// A client's one retransmission timer fired (see [`RetryTimer`]): a
    /// live one judges every armed request due by now.
    RetryDue { client: u16 },
    /// A delay-sent actor message (`ActorCtx::send_after`) comes due and
    /// enters the normal routing path.
    DelayedEmit {
        node: u16,
        emit: Emit,
        from_nic: bool,
    },
}

struct ClientState {
    gen: ClientGenFn,
    outstanding: u32,
    next_token: u64,
    inflight: IdMap<u64, Outstanding>,
    rng: DetRng,
    retry: Option<ClientRetry>,
    /// Open-loop pacing: when set, issues arrive on a seeded Poisson
    /// schedule regardless of completions and `outstanding` is ignored.
    open: Option<OpenLoop>,
    /// Routing-refresh hook, invoked when a redirect moves an address.
    route_refresh: Option<RouteRefreshFn>,
    /// Open-loop source shedding: while `now` is before this instant,
    /// arrivals are counted as shed instead of being sent. Set from the
    /// backoff hint of [`Shed`] replies, monotonically extended.
    shed_src_until: SimTime,
}

/// Cluster-wide fault/recovery metric handles, resolved once at build time
/// so faulted and fault-free runs register the same metric names.
struct FaultMetrics {
    retries: Counter,
    abandoned: Counter,
    redirects: Counter,
    /// Outstanding requests retargeted in place because a redirect refreshed
    /// the client's view of a moved address (one redirect re-aims the whole
    /// queue instead of each request bouncing individually).
    route_refreshed: Counter,
    corrupt_rejected: Counter,
    /// Corrupt frames refused because their claimed length exceeds the
    /// 16-bit header field — counted separately from checksum rejections so
    /// jumbo-frame damage is not mislabeled as a codec failure.
    oversize_rejected: Counter,
    mig_aborted: Counter,
    /// Requests a client dropped because the server's ingress shed them
    /// (the [`Shed`] reply terminated the request).
    shed_remote: Counter,
    /// Open-loop arrivals suppressed at the source while a backoff hint
    /// was live.
    shed_source: Counter,
}

impl FaultMetrics {
    fn new(obs: &Obs) -> FaultMetrics {
        let r = obs.registry();
        FaultMetrics {
            retries: r.counter("client.retry.sent"),
            abandoned: r.counter("client.retry.abandoned"),
            redirects: r.counter("client.redirects"),
            route_refreshed: r.counter("client.route.refreshed"),
            corrupt_rejected: r.counter("fault.rx.rejected"),
            oversize_rejected: r.counter("fault.rx.oversize"),
            mig_aborted: r.counter("migrate.aborted"),
            shed_remote: r.counter("client.shed.remote"),
            shed_source: r.counter("client.shed.source"),
        }
    }
}

/// One event shard: the clock of a contiguous block of node ids. It holds
/// only what orders its time — its event queue, the merge pool of frames
/// bound for its nodes, and the events it ran since the last epoch sample.
/// Every node's state lives once, on the [`Cluster`], which borrows the
/// queue of the shard whose nodes it serves (`Cluster::serve`).
struct Shard {
    events: EventQueue<Ev>,
    /// In-flight frames addressed to nodes this shard owns.
    pool: MergePool<PoolKey, ArrivalKind>,
    /// Work units executed since the last epoch-stats sample.
    processed: u64,
}

/// The assembled testbed.
///
/// Internally the cluster always runs the sharded engine; the default
/// single shard reproduces the classic serial behaviour, and
/// [`ClusterBuilder::shards`] splits the same simulation across independent
/// event queues with a byte-identical merge.
pub struct Cluster {
    spec: NicSpec,
    mode: RuntimeMode,
    /// Runtime state of every server node, indexed by node id (servers
    /// occupy ids `0..n_servers`).
    nodes: Vec<NodeRt>,
    /// Server count (client node ids start here).
    n_servers: usize,
    net: NetModel,
    /// Client table, indexed by client (node id minus `n_servers`); a slot
    /// is `None` until its generator is installed.
    clients: Vec<Option<ClientState>>,
    /// Client → admission class (class 0 is the default), read at ingress.
    client_class: Vec<u8>,
    /// Requests the clients issued and saw complete, lifetime (never reset
    /// by `reset_measurements`), as the audit's `client.conservation` needs.
    issued: u64,
    completed: u64,
    /// The one `client.latency` histogram: the measurement window's.
    latency: HistHandle,
    fault_metrics: FaultMetrics,
    obs: Obs,
    measure_start: SimTime,
    /// Reusable scheduler-action buffer drained after each NIC completion.
    action_scratch: Vec<Action>,
    /// Reusable `(due, token)` buffer of the requests one live `RetryDue`
    /// judges.
    retry_scratch: Vec<(SimTime, u64)>,
    /// Frames processed off the wire (`Deliver` + `DeliverCorrupt` events
    /// handled). One side of the audit's frame ledger: every frame the
    /// network accounted as delivered must be processed or still pending.
    rx_frames: u64,
    /// Per-source-node monotonic frame sequence numbers: the merge pools'
    /// total-order tiebreak.
    send_seq: Vec<u64>,
    /// The event queue of shard `served`, lent to the cluster: handlers
    /// schedule here, so they may only serve that shard's nodes. The
    /// shard's own slot holds an empty queue meanwhile. `run_slice` lends
    /// the queue of the shard it runs, and an API call that runs handler
    /// code lends its node's (`serve`).
    events: EventQueue<Ev>,
    served: usize,
    shards: Vec<Shard>,
    /// Node id → shard id.
    shard_of: Vec<u16>,
    /// Conservative lookahead: minimum cross-shard frame latency. `None`
    /// when a single shard owns everything (no barrier needed).
    lookahead: Option<SimTime>,
    /// The running epoch's horizon while `run_for` drives the shards
    /// (`None` with one shard, and between runs): no slice reaches it, and
    /// no cross-shard frame is ready before it.
    horizon: Option<SimTime>,
    epoch_stats: EpochStats,
    /// Cumulative events processed per shard (load-balance diagnostics).
    shard_events: Vec<u64>,
    rng: DetRng,
    next_actor: ActorId,
    /// Addresses handed out by `reserve_actor` and not yet registered.
    reserved: Vec<Address>,
}

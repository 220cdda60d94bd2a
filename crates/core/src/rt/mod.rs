//! The iPipe runtime: actors + scheduler + hardware models, assembled into a
//! deterministic cluster simulation (§3).
//!
//! A [`Cluster`] holds server nodes (each a SmartNIC + host pair), client
//! nodes (pktgen-style load generators), and the ToR network. Applications
//! register [`ActorLogic`] implementations with an initial [`Placement`];
//! the runtime then does what the paper's runtime does — schedules actor
//! executions across NIC FCFS/DRR cores and host cores, forwards requests
//! over the message rings, migrates actors in four phases, keeps EWMA
//! bookkeeping, and enforces isolation.
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
//! | `shard.rs` | per-shard event loop, ingress merge pool, `send_frame` | — |
//! | `client.rs` | client issue / retry / redirect / shed | §5.1 load generators |
//! | `nic.rs` | NIC ingress + admission, FCFS/DRR dispatch, actor execution | §3.2, ALG 1/2, §3.4 |
//! | `host.rs` | host queues and execution behind the PCIe rings | §3.2.6, §3.5 |
//! | `mig.rs` | four-phase migration driver | §3.2.5, App. B.3 |
//! | `route.rs` | `route_emits`: actor message routing | §3.1, §3.5 |
//! | `cost.rs` | ring, memory and emit cost formulas | §2.2, Fig 17 |
//! | `audit.rs` | conservation audit sweep | DESIGN.md §11 |

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
use crate::isolate::Watchdog;
use crate::migrate::{Migration, MigrationReport};
use crate::sched::{Action, Loc, NicScheduler, SchedConfig};
use ipipe_netsim::{FaultPlan, NetModel, PacketKind};
use ipipe_nicsim::host::HostCpuAccounting;
use ipipe_nicsim::spec::NicSpec;
use ipipe_sim::audit::AuditReport;
use ipipe_sim::obs::{Counter, Gauge, HistHandle, Obs, TraceLevel};
use ipipe_sim::{DetRng, EpochStats, EventQueue, Histogram, IdMap, MergePool, SimTime};
use shard::{ArrivalKind, PoolKey};
use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};

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
/// request (see [`crate::admission`]). `retry_after` is the server's hint
/// for when capacity will exist again: a closed-loop client with
/// retransmission holds its retry timer for that long; an open-loop client
/// sheds new arrivals at the source until the hint expires, keeping its
/// ledgers bounded under sustained saturation.
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

impl RetryPolicy {
    /// A policy suited to intra-rack RPCs: 300us initial timeout, 5ms cap.
    pub fn lan_default() -> RetryPolicy {
        RetryPolicy {
            timeout: SimTime::from_us(300),
            cap: SimTime::from_ms(5),
            max_tries: 16,
        }
    }
}

/// One request a client has issued and not seen the end of: the only
/// per-token record there is. The conservation audit counts these, latency
/// is measured from `issued`, and the retry timer works on the rest.
struct Outstanding {
    /// First transmission; retransmissions do not move it.
    issued: SimTime,
    dst: Address,
    wire_size: u32,
    flow: u64,
    /// Transmissions so far. Zero when the request went out with no retry
    /// policy installed: it has no deadline in the client's
    /// [`RetryDeadlines`], so redirect and shed replies end it like any
    /// other reply.
    tries: u32,
    backoff: SimTime,
    /// Server-requested hold: a [`Shed`] reply holds the retransmission until
    /// this instant without consuming a try, so shed requests retry after
    /// the hinted backoff instead of hammering a saturated ingress.
    hold_until: SimTime,
}

impl Outstanding {
    /// True when the request holds exactly one deadline in its client's
    /// [`RetryDeadlines`].
    fn armed(&self) -> bool {
        self.tries > 0
    }
}

/// Retransmission machinery of one client (the per-token state lives in
/// [`ClientState::inflight`]).
struct ClientRetry {
    policy: RetryPolicy,
    payload_fn: Option<PayloadFn>,
    deadlines: RetryDeadlines,
}

/// One client's retransmission deadlines, `(deadline, token)`, served by a
/// single timer: at most one live [`Ev::RetryDue`], armed for the earliest
/// deadline still in flight. A completion leaves its entry behind; the
/// timer drops it when it comes due or reaches the head.
#[derive(Default)]
struct RetryDeadlines {
    /// First-transmission deadlines (`issued + timeout`), which arrive in
    /// nondecreasing order.
    fifo: VecDeque<(SimTime, u64)>,
    /// Re-armed deadlines (backoff resends, shed holds) that would have
    /// broken the FIFO's order.
    late: BinaryHeap<Reverse<(SimTime, u64)>>,
    /// When the live `RetryDue` fires.
    armed: Option<SimTime>,
    /// Instants of pending `RetryDue` events an earlier deadline
    /// superseded. Each fires and is ignored, unless the timer is armed for
    /// its instant again first.
    parked: Vec<SimTime>,
}

/// Completion statistics observed at the clients. The latency histogram
/// lives in the cluster's metrics registry (as `client.latency`), so
/// figure harnesses and trace exports read the same numbers.
#[derive(Debug, Default)]
pub struct CompletionStats {
    issued: u64,
    done: u64,
    /// Lifetime completions, never reset by `reset_measurements` (unlike
    /// `done`, which only counts the measurement window). The audit's client
    /// conservation ledger needs the lifetime figure:
    /// `issued == completed + abandoned + shed + in-flight`.
    completed: u64,
    /// Lifetime requests shed by admission control (refused at an ingress,
    /// or suppressed at the source while a backoff hint is live). Like
    /// `completed`, never reset: it is a conservation ledger term.
    shed: u64,
    hist: HistHandle,
}

impl CompletionStats {
    /// Completed requests in the measurement window.
    pub fn count(&self) -> u64 {
        self.done
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

    fn reset(&mut self) {
        self.done = 0;
        self.hist.reset();
    }
}

struct ActorSlot {
    logic: Box<dyn ActorLogic>,
    name: String,
    host_speedup: f64,
    /// Never migrates off the host (storage-touching actors).
    pinned_host: bool,
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
    actors: IdMap<ActorId, ActorSlot>,
    dmo: DmoTable,
    rng: DetRng,
    host_acct: HostCpuAccounting,
    nic_busy_total: SimTime,
    watchdog: Watchdog,
    active_migration: Option<Migration>,
    mig_cooldown_until: SimTime,
    migration_reports: Vec<MigrationReport>,
    ring_depth: u64,
    ring_messages: u64,
    /// Requests the dispatcher asked to buffer for a migration that is not
    /// (yet, or no longer) the active one — e.g. the migration decision is
    /// still in the action queue, or another actor's migration is running
    /// and the mark will be refused. Resolved by `apply_action` within the
    /// same event, so this is always empty at event-loop boundaries (the
    /// audit asserts it).
    pending_buffered: Vec<Request>,
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
    /// A closed-loop client slot issues its next request.
    Issue { client: u16 },
    /// A corrupted frame reached `node`'s NIC ingress: the shim stack
    /// validates and discards it (payload already lost).
    DeliverCorrupt {
        node: u16,
        src: u16,
        wire_size: u32,
        flip: u8,
    },
    /// A client's one retransmission timer fired (see [`RetryDeadlines`]).
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
    /// Retry timers parked by a [`Shed`] backoff hint (closed-loop clients
    /// with retransmission; the request itself stays in flight).
    shed_backoff: Counter,
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
            shed_backoff: r.counter("client.shed.backoff"),
        }
    }
}

/// One event shard: a contiguous block of node ids with its own event
/// queue, network-occupancy view, observability handle and ingress merge
/// pool. All simulation handlers live here; [`Cluster`] routes API calls to
/// the owning shard and drives shards in conservative-lookahead epochs.
struct ShardState {
    shard_id: u16,
    /// First global node id this shard owns (nodes are contiguous).
    base: u16,
    spec: &'static NicSpec,
    mode: RuntimeMode,
    region_bytes: u64,
    /// Runtime state for the *server* nodes this shard owns; index is
    /// `global_id` minus `base` (servers occupy the low ids of every block).
    nodes: Vec<NodeRt>,
    /// Cluster-wide server count (client node ids start here).
    n_servers: usize,
    net: NetModel,
    events: EventQueue<Ev>,
    /// Full-length client table; only slots this shard owns are populated.
    clients: Vec<Option<ClientState>>,
    /// Full-length client → admission-class map, replicated in every shard
    /// (server shards read it at ingress; class 0 is the default).
    client_class: Vec<u8>,
    completions: CompletionStats,
    fault_metrics: FaultMetrics,
    obs: Obs,
    measure_start: SimTime,
    /// Watchdog kills with their firing time, for a cross-shard total order.
    kills: Vec<(SimTime, u16, ActorId)>,
    /// Reusable scheduler-action buffer drained after each NIC completion.
    action_scratch: Vec<Action>,
    /// Frames processed off the wire (`Deliver` + `DeliverCorrupt` events
    /// handled). One side of the audit's frame ledger: every frame the
    /// network accounted as delivered must be processed or still pending.
    rx_frames: u64,
    /// Full-length node-id → shard-id map (same in every shard).
    shard_of: Vec<u16>,
    /// In-flight frames addressed to nodes this shard owns.
    pool: MergePool<PoolKey, ArrivalKind>,
    /// In-flight frames addressed to other shards; drained into their pools
    /// at the next epoch barrier.
    outbox: Vec<(PoolKey, ArrivalKind)>,
    /// Per-source-node monotonic frame sequence numbers (full length; a
    /// node's counter is only ever bumped by its owning shard).
    send_seq: Vec<u64>,
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
    n_servers: usize,
    n_clients: usize,
    shards: Vec<ShardState>,
    /// Full-length node-id → shard-id map.
    shard_of: Vec<u16>,
    /// Conservative lookahead: minimum cross-shard frame latency. `None`
    /// when a single shard owns everything (no barrier needed).
    lookahead: Option<SimTime>,
    /// Execute each epoch's shard slices on scoped OS threads.
    run_parallel: bool,
    epoch_stats: EpochStats,
    /// Cumulative events processed per shard (load-balance diagnostics).
    shard_events: Vec<u64>,
    rng: DetRng,
    next_actor: ActorId,
    /// Addresses handed out by `reserve_actor` and not yet registered.
    reserved: Vec<Address>,
}

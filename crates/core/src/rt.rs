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

use crate::actor::{ActorCtx, ActorId, ActorLogic, Address, Emit, Payload, Request};
use crate::admission::{AdmissionCfg, Decision, NodeAdmission};
use crate::dmo::{DmoTable, Side};
use crate::isolate::Watchdog;
use crate::migrate::{Migration, MigrationDir, MigrationReport};
use crate::sched::{Action, Loc, NicScheduler, SchedConfig, Work};
use ipipe_netsim::{FaultPlan, NetModel, NodeId, Packet, PacketKind, TxPhase};
use ipipe_nicsim::dma::{DmaEngine, DmaOp};
use ipipe_nicsim::host::HostCpuAccounting;
use ipipe_nicsim::spec::{HostSpec, NicSpec, HOST_XEON};
use ipipe_sim::audit::{AuditReport, CLUSTER_WIDE};
use ipipe_sim::obs::export as obs_export;
use ipipe_sim::obs::{Counter, Gauge, HistHandle, Obs, Snapshot, TraceEvent, TraceLevel};
use ipipe_sim::{DetRng, EpochStats, EventQueue, Histogram, MergePool, SimTime};
use std::collections::HashMap;

/// Chrome-trace lane (`tid`) offset for host cores, so NIC cores and host
/// cores render as separate row groups under one node (`pid`).
const HOST_LANE_OFFSET: u32 = 1000;
/// Trace lane for the migration timeline.
const MIGRATION_LANE: u32 = 999;

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
/// every already-queued retry slot still aimed at `old`.
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

/// Per-token retransmission state.
struct RetrySlot {
    dst: Address,
    wire_size: u32,
    flow: u64,
    tries: u32,
    backoff: SimTime,
    /// Server-requested hold: a [`Shed`] reply parks the retry timer until
    /// this instant without consuming a try, so shed requests retry after
    /// the hinted backoff instead of hammering a saturated ingress.
    hold_until: SimTime,
}

/// Retransmission machinery of one client.
struct ClientRetry {
    policy: RetryPolicy,
    payload_fn: Option<PayloadFn>,
    slots: HashMap<u64, RetrySlot>,
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
    #[allow(dead_code)]
    id: u16,
    sched: NicScheduler,
    metrics: RtMetrics,
    nic_inflight: Vec<Option<InFlight>>,
    host_queues: Vec<std::collections::VecDeque<Request>>,
    host_inflight: Vec<Option<InFlight>>,
    actors: HashMap<ActorId, ActorSlot>,
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
    /// A client's retransmission timer fired for `token`.
    RetryCheck { client: u16, token: u64 },
    /// A delay-sent actor message (`ActorCtx::send_after`) comes due and
    /// enters the normal routing path.
    DelayedEmit {
        node: u16,
        emit: Emit,
        from_nic: bool,
    },
}

/// Builder for a [`Cluster`].
pub struct ClusterBuilder {
    spec: &'static NicSpec,
    host: &'static HostSpec,
    servers: usize,
    clients: usize,
    host_cores: u32,
    mode: RuntimeMode,
    sched: Option<SchedConfig>,
    seed: u64,
    region_bytes: u64,
    obs: Option<Obs>,
    shards: usize,
    parallel: bool,
    racks: Option<(usize, SimTime)>,
}

impl ClusterBuilder {
    /// Number of server nodes.
    pub fn servers(mut self, n: usize) -> Self {
        self.servers = n;
        self
    }

    /// Number of client nodes.
    pub fn clients(mut self, n: usize) -> Self {
        self.clients = n;
        self
    }

    /// Host cores available per server.
    pub fn host_cores(mut self, n: u32) -> Self {
        self.host_cores = n;
        self
    }

    /// Runtime mode.
    pub fn mode(mut self, m: RuntimeMode) -> Self {
        self.mode = m;
        self
    }

    /// Scheduler configuration (defaults to [`SchedConfig::for_nic`]).
    pub fn sched(mut self, cfg: SchedConfig) -> Self {
        self.sched = Some(cfg);
        self
    }

    /// RNG seed.
    pub fn seed(mut self, s: u64) -> Self {
        self.seed = s;
        self
    }

    /// Per-actor DMO region capacity.
    pub fn region_bytes(mut self, b: u64) -> Self {
        self.region_bytes = b;
        self
    }

    /// Share an observability handle: all schedulers, the network model and
    /// the completion stats publish into its registry, and runtime spans go
    /// to its trace ring. Defaults to a metrics-only private handle.
    pub fn obs(mut self, obs: Obs) -> Self {
        self.obs = Some(obs);
        self
    }

    /// Partition the cluster's nodes into `n` event shards (defaults to 1).
    /// Each shard owns a contiguous block of node ids with its own event
    /// queue and advances in conservative-lookahead epochs bounded by the
    /// minimum cross-shard link latency; cross-shard frames are buffered
    /// into outboxes and merged at epoch barriers in a deterministic total
    /// order, so results are byte-identical to the single-shard run.
    pub fn shards(mut self, n: usize) -> Self {
        assert!(n >= 1, "at least one shard");
        self.shards = n;
        self
    }

    /// Run shards on OS threads within each epoch (defaults to sequential).
    /// Only meaningful with `shards(n > 1)`. The output is byte-identical
    /// either way; this only changes who executes each shard's epoch slice.
    ///
    /// Safety contract: actor logic must not share interior-mutable state
    /// (`Rc`/`RefCell`) across nodes that land in different shards — shard
    /// state is moved across threads at epoch boundaries.
    pub fn parallel(mut self, on: bool) -> Self {
        self.parallel = on;
        self
    }

    /// Group nodes into racks of `nodes_per_rack` consecutive ids and charge
    /// `cross_rack_extra` propagation for frames that cross racks. Aligning
    /// shard boundaries with rack boundaries widens the conservative
    /// lookahead window (epoch length) by the cross-rack extra.
    pub fn racks(mut self, nodes_per_rack: usize, cross_rack_extra: SimTime) -> Self {
        assert!(nodes_per_rack >= 1, "at least one node per rack");
        self.racks = Some((nodes_per_rack, cross_rack_extra));
        self
    }

    /// Assemble the cluster.
    pub fn build(self) -> Cluster {
        assert!(self.servers >= 1 && self.clients >= 1);
        let total = self.servers + self.clients;
        let n_shards = self.shards.min(total);
        let mut rng = DetRng::new(self.seed);
        let cfg = self
            .sched
            .unwrap_or_else(|| SchedConfig::for_nic(self.spec));
        let user_obs = self.obs.unwrap_or_else(Obs::disabled);

        // Contiguous block partition of all node ids (servers then clients):
        // the first `total % n_shards` shards get one extra node.
        let mut shard_starts: Vec<u16> = Vec::with_capacity(n_shards + 1);
        let (base_sz, extra) = (total / n_shards, total % n_shards);
        let mut at = 0usize;
        for s in 0..n_shards {
            shard_starts.push(at as u16);
            at += base_sz + usize::from(s < extra);
        }
        shard_starts.push(total as u16);
        let mut shard_of: Vec<u16> = vec![0; total];
        for s in 0..n_shards {
            for n in shard_starts[s]..shard_starts[s + 1] {
                shard_of[n as usize] = s as u16;
            }
        }

        let mut net = NetModel::new(total, self.spec.link_gbps);
        if let Some((per_rack, extra_lat)) = self.racks {
            let rack_of: Vec<u16> = (0..total).map(|i| (i / per_rack) as u16).collect();
            net.set_racks(rack_of, extra_lat);
        }
        let lookahead = net.min_cross_latency(&shard_of);

        // Fork every server node's RNG in global node order so the streams
        // are identical for every shard count.
        let mut node_rngs: Vec<DetRng> = (0..self.servers).map(|_| rng.fork()).collect();

        // Shard 0 shares the caller's observability handle (so a 1-shard
        // cluster behaves exactly as before); the others get private
        // same-config handles whose snapshots merge commutatively.
        let shard_obs: Vec<Obs> = (0..n_shards)
            .map(|s| {
                if s == 0 {
                    user_obs.clone()
                } else {
                    Obs::new(user_obs.config())
                }
            })
            .collect();

        let shards: Vec<ShardState> = (0..n_shards)
            .map(|s| {
                let obs = shard_obs[s].clone();
                let base = shard_starts[s];
                let end = shard_starts[s + 1] as usize;
                // Only the server slice of this shard's block gets a NodeRt.
                let server_end = end.min(self.servers);
                let nodes: Vec<NodeRt> = ((base as usize)..server_end.max(base as usize))
                    .map(|i| NodeRt {
                        id: i as u16,
                        sched: NicScheduler::with_obs(self.spec, cfg, &obs, i as u16),
                        metrics: RtMetrics::new(&obs, i as u16),
                        nic_inflight: (0..self.spec.cores).map(|_| None).collect(),
                        host_queues: (0..self.host_cores).map(|_| Default::default()).collect(),
                        host_inflight: (0..self.host_cores).map(|_| None).collect(),
                        actors: HashMap::new(),
                        dmo: DmoTable::new(Side::Nic, self.region_bytes),
                        rng: std::mem::replace(&mut node_rngs[i], DetRng::new(0)),
                        host_acct: HostCpuAccounting::new(),
                        nic_busy_total: SimTime::ZERO,
                        watchdog: Watchdog::new(self.spec.cores, SimTime::from_ms(5)),
                        active_migration: None,
                        mig_cooldown_until: SimTime::ZERO,
                        migration_reports: Vec::new(),
                        ring_depth: 0,
                        ring_messages: 0,
                        pending_buffered: Vec::new(),
                        admission: None,
                    })
                    .collect();
                let mut snet = net.clone();
                snet.attach_obs(obs.registry());
                ShardState {
                    shard_id: s as u16,
                    base,
                    spec: self.spec,
                    host: self.host,
                    mode: self.mode,
                    region_bytes: self.region_bytes,
                    nodes,
                    n_servers: self.servers,
                    net: snet,
                    events: EventQueue::new(),
                    clients: (0..self.clients).map(|_| None).collect(),
                    client_class: vec![0; self.clients],
                    completions: CompletionStats {
                        issued: 0,
                        done: 0,
                        completed: 0,
                        shed: 0,
                        hist: obs.registry().hist("client.latency"),
                    },
                    fault_metrics: FaultMetrics::new(&obs),
                    obs,
                    measure_start: SimTime::ZERO,
                    kills: Vec::new(),
                    ev_batch: Vec::new(),
                    action_scratch: Vec::new(),
                    rx_frames: 0,
                    shard_of: shard_of.clone(),
                    pool: MergePool::new(),
                    outbox: Vec::new(),
                    send_seq: vec![0; total],
                    processed: 0,
                }
            })
            .collect();

        let n_shards = shards.len();
        Cluster {
            n_servers: self.servers,
            n_clients: self.clients,
            shards,
            shard_of,
            lookahead,
            run_parallel: self.parallel,
            epoch_stats: EpochStats::default(),
            shard_events: vec![0; n_shards],
            rng,
            next_actor: 1,
        }
    }
}

struct ClientState {
    gen: ClientGenFn,
    outstanding: u32,
    next_token: u64,
    inflight: HashMap<u64, SimTime>,
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
    /// Queued retry slots retargeted in place because a redirect refreshed
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

/// What a transferred frame becomes once its last bit clears the switch
/// egress port: a deliverable request or a corrupted carcass.
enum ArrivalKind {
    Deliver { req: Request },
    Corrupt { wire_size: u32, flip: u8 },
}

/// A frame parked at the destination's ingress merge pool, waiting for the
/// port to drain. Ordered by `(port_ready, dst, src, seq)` — `seq` is a
/// per-source-node monotonic counter, so the order is total and identical
/// for every shard count. The payload is deliberately excluded from the
/// ordering key (it is `Box<dyn Any>` and not comparable).
struct PoolEntry {
    port_ready: SimTime,
    dst: u16,
    src: u16,
    seq: u64,
    kind: ArrivalKind,
}

impl PoolEntry {
    fn key(&self) -> (SimTime, u16, u16, u64) {
        (self.port_ready, self.dst, self.src, self.seq)
    }
}

impl PartialEq for PoolEntry {
    fn eq(&self, other: &Self) -> bool {
        self.key() == other.key()
    }
}
impl Eq for PoolEntry {}
impl PartialOrd for PoolEntry {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for PoolEntry {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.key().cmp(&other.key())
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
    host: &'static HostSpec,
    mode: RuntimeMode,
    region_bytes: u64,
    /// Runtime state for the *server* nodes this shard owns; index is
    /// `global_id - base` (servers occupy the low ids of every block).
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
    /// Reusable same-timestamp event batch for the dispatch loop.
    ev_batch: Vec<Ev>,
    /// Reusable scheduler-action buffer drained after each NIC completion.
    action_scratch: Vec<Action>,
    /// Frames processed off the wire (`Deliver` + `DeliverCorrupt` events
    /// handled). One side of the audit's frame ledger: every frame the
    /// network accounted as delivered must be processed or still pending.
    rx_frames: u64,
    /// Full-length node-id → shard-id map (same in every shard).
    shard_of: Vec<u16>,
    /// In-flight frames addressed to nodes this shard owns.
    pool: MergePool<PoolEntry>,
    /// In-flight frames addressed to other shards; drained into their pools
    /// at the next epoch barrier.
    outbox: Vec<PoolEntry>,
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
}

/// Raw-pointer envelope that lets disjoint `&mut ShardState`s cross the
/// scoped-thread boundary. Safety: pointers come from `iter_mut()` (so they
/// never alias), the scope joins every thread before returning (so they
/// never dangle), and the documented [`ClusterBuilder::parallel`] contract
/// forbids actors from sharing `Rc` state across shard boundaries.
struct ShardSendPtr(*mut ShardState);
unsafe impl Send for ShardSendPtr {}

impl ShardSendPtr {
    /// Consume the wrapper for its pointer. Being a by-value method, this
    /// forces closures to capture the whole `Send` wrapper rather than the
    /// (non-`Send`) raw-pointer field alone.
    fn get(self) -> *mut ShardState {
        self.0
    }
}

impl Cluster {
    /// Start building a cluster around a SmartNIC model.
    pub fn builder(spec: NicSpec) -> ClusterBuilder {
        // Leak-free: all four cards are 'static consts; match by name.
        let spec: &'static NicSpec = ipipe_nicsim::spec::ALL_NICS
            .iter()
            .copied()
            .find(|s| s.name == spec.name)
            .expect("unknown NIC spec; use one of ipipe_nicsim's card constants");
        Cluster::builder_for(spec)
    }

    /// Start building a cluster around an explicit `'static` spec.
    ///
    /// [`Cluster::builder`] resolves by name against the four Table 1 card
    /// constants; synthesized design-space cards
    /// ([`ipipe_nicsim::dse::DesignPoint`]) all share one name and live in
    /// leaked allocations, so they come through here instead.
    pub fn builder_for(spec: &'static NicSpec) -> ClusterBuilder {
        ClusterBuilder {
            spec,
            host: &HOST_XEON,
            servers: 1,
            clients: 1,
            host_cores: HOST_XEON.cores,
            mode: RuntimeMode::IPipe,
            sched: None,
            seed: 0xA11CE,
            region_bytes: 64 << 20,
            obs: None,
            shards: 1,
            parallel: false,
            racks: None,
        }
    }

    /// The cluster's observability handle (registry + trace ring).
    ///
    /// With one shard (the default) this is exactly the handle passed to
    /// [`ClusterBuilder::obs`]. With more, it is shard 0's partial view —
    /// use [`Cluster::snapshot`] or [`Cluster::export_canonical_jsonl`] for
    /// the merged, shard-count-independent picture.
    pub fn obs(&self) -> &Obs {
        &self.shards[0].obs
    }

    /// Current simulated time. Shards are mutually synchronized at every
    /// public API boundary, so shard 0's clock is the cluster clock.
    pub fn now(&self) -> SimTime {
        self.shards[0].events.now()
    }

    /// The SmartNIC model in use.
    pub fn nic_spec(&self) -> &'static NicSpec {
        self.shards[0].spec
    }

    /// Number of event shards driving the simulation.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Conservative lookahead bounding each epoch: the minimum latency any
    /// frame needs to cross a shard boundary. `None` with a single shard.
    pub fn lookahead(&self) -> Option<SimTime> {
        self.lookahead
    }

    /// Work/span statistics over the epochs run so far. The speedup is the
    /// critical-path bound a perfectly parallel host could reach.
    pub fn epoch_stats(&self) -> EpochStats {
        self.epoch_stats
    }

    /// Events processed by each shard since construction — the raw load
    /// balance behind [`EpochStats::speedup`].
    pub fn shard_events(&self) -> Vec<u64> {
        self.shard_events.clone()
    }

    fn shard_for(&self, node: u16) -> &ShardState {
        &self.shards[self.shard_of[node as usize] as usize]
    }

    fn shard_for_mut(&mut self, node: u16) -> &mut ShardState {
        let s = self.shard_of[node as usize] as usize;
        &mut self.shards[s]
    }

    /// Register an actor on server `node`; returns its cluster address.
    /// The actor's `init` handler runs immediately.
    pub fn register_actor(
        &mut self,
        node: usize,
        name: &str,
        logic: Box<dyn ActorLogic>,
        placement: Placement,
    ) -> Address {
        assert!(node < self.n_servers, "not a server node");
        let id = self.next_actor;
        self.next_actor += 1;
        self.shard_for_mut(node as u16).register_actor_local(
            node as u16,
            id,
            name,
            logic,
            placement,
        )
    }

    /// Install a closed-loop generator on client `client` keeping
    /// `outstanding` requests in flight.
    ///
    /// Replacing a generator mid-run keeps the old requests' ledger: the
    /// in-flight map, the token allocator (new tokens must not collide with
    /// live ones) and any retry state carry over, and the old requests drain
    /// through the normal completion path while the closed loop re-gates on
    /// the new `outstanding`. Only the generator and the target depth change.
    pub fn set_client(&mut self, client: usize, gen: ClientGenFn, outstanding: u32) {
        assert!(client < self.n_clients);
        let rng = self.rng.fork();
        let node = (self.n_servers + client) as u16;
        let shard = self.shard_for_mut(node);
        let (next_token, inflight, retry, route_refresh, shed_src_until) =
            match shard.clients[client].take() {
                Some(old) => (
                    old.next_token,
                    old.inflight,
                    old.retry,
                    old.route_refresh,
                    old.shed_src_until,
                ),
                None => (0, HashMap::new(), None, None, SimTime::ZERO),
            };
        let carried = inflight.len() as u32;
        shard.clients[client] = Some(ClientState {
            gen,
            outstanding,
            next_token,
            inflight,
            rng,
            retry,
            open: None,
            route_refresh,
            shed_src_until,
        });
        for _ in 0..outstanding.saturating_sub(carried) {
            shard.events.schedule_after(
                SimTime::ZERO,
                Ev::Issue {
                    client: client as u16,
                },
            );
        }
    }

    /// Install an *open-loop* generator on client `client`: requests arrive
    /// as a seeded Poisson process at `cfg.rate_rps` regardless of
    /// completions, modeling the aggregate stream of many users behind one
    /// source node (one generator per source node, never one per user).
    /// Arrivals stop at `cfg.until`; in-flight requests then drain through
    /// the normal completion/retry paths, so the conservation ledger
    /// (`issued == completed + abandoned + in-flight`) still closes at
    /// quiesce. Replacement mid-run carries the old ledger exactly like
    /// [`Cluster::set_client`].
    pub fn set_client_open_loop(&mut self, client: usize, gen: ClientGenFn, cfg: OpenLoopCfg) {
        assert!(client < self.n_clients);
        assert!(cfg.rate_rps > 0.0, "open-loop rate must be positive");
        let rng = self.rng.fork();
        let node = (self.n_servers + client) as u16;
        let shard = self.shard_for_mut(node);
        let (next_token, inflight, retry, route_refresh, shed_src_until) =
            match shard.clients[client].take() {
                Some(old) => (
                    old.next_token,
                    old.inflight,
                    old.retry,
                    old.route_refresh,
                    old.shed_src_until,
                ),
                None => (0, HashMap::new(), None, None, SimTime::ZERO),
            };
        shard.clients[client] = Some(ClientState {
            gen,
            outstanding: 0,
            next_token,
            inflight,
            rng,
            retry,
            open: Some(OpenLoop {
                arrivals: ipipe_sim::PoissonArrivals::new(cfg.rate_rps),
                until: cfg.until,
            }),
            route_refresh,
            shed_src_until,
        });
        // One seed arrival; every subsequent one is scheduled by its
        // predecessor inside `handle_issue`.
        shard.events.schedule_after(
            SimTime::ZERO,
            Ev::Issue {
                client: client as u16,
            },
        );
    }

    /// Change the arrival rate of an already-installed open-loop generator
    /// *in place* — the Poisson chain keeps its single pending arrival and
    /// only the gap distribution changes, so the event stream stays one
    /// chain per client (re-installing via [`Cluster::set_client_open_loop`]
    /// would seed a second chain and double the offered load).
    ///
    /// This models traffic spikes: call at a `run_for` boundary to step the
    /// offered load up or down deterministically for any shard count.
    pub fn set_client_open_loop_rate(&mut self, client: usize, rate_rps: f64) {
        assert!(client < self.n_clients);
        assert!(rate_rps > 0.0, "open-loop rate must be positive");
        let node = (self.n_servers + client) as u16;
        let state = self.shard_for_mut(node).clients[client]
            .as_mut()
            .expect("set_client_open_loop before set_client_open_loop_rate");
        let open = state
            .open
            .as_mut()
            .expect("set_client_open_loop before set_client_open_loop_rate");
        open.arrivals = ipipe_sim::PoissonArrivals::new(rate_rps);
    }

    /// Install ingress admission control (see [`crate::admission`]) on
    /// every server node. Buckets start full at the current simulated time.
    /// Requests from a client are judged by that client's class (set via
    /// [`Cluster::set_client_class`]; default class 0); internal
    /// server-to-server messages are never shed.
    pub fn set_admission(&mut self, cfg: AdmissionCfg) {
        let now = self.now();
        for shard in &mut self.shards {
            let base = shard.base;
            let obs = shard.obs.clone();
            for (i, n) in shard.nodes.iter_mut().enumerate() {
                n.admission = Some(NodeAdmission::new(&cfg, &obs, base + i as u16, now));
            }
        }
    }

    /// Assign client `client` to admission class `class` (an index into
    /// [`AdmissionCfg::classes`]). The map is replicated into every shard so
    /// any ingress can judge the client's traffic.
    pub fn set_client_class(&mut self, client: usize, class: u8) {
        assert!(client < self.n_clients);
        for shard in &mut self.shards {
            shard.client_class[client] = class;
        }
    }

    /// Install a routing-refresh observer on client `client` (which must
    /// already have a generator): whenever a [`Redirect`] reply moves an
    /// address, the runtime retargets every queued retry slot still aimed at
    /// the old address and then invokes `cb(old, new)` so the application's
    /// routing table steers *future* issues the same way.
    pub fn set_client_route_refresh(&mut self, client: usize, cb: RouteRefreshFn) {
        let node = (self.n_servers + client) as u16;
        let state = self.shard_for_mut(node).clients[client]
            .as_mut()
            .expect("set_client before set_client_route_refresh");
        state.route_refresh = Some(cb);
    }

    /// Attach a seeded fault schedule to the cluster's network. Call before
    /// running; the plan's own RNG keeps faulted runs seed-deterministic.
    /// The plan is split into per-source-node streams so that fault verdicts
    /// are identical for every shard count (each shard judges only the
    /// frames its own nodes send).
    pub fn set_fault_plan(&mut self, mut plan: FaultPlan) {
        plan.split_per_source(self.shard_of.len());
        for s in &mut self.shards {
            s.net.set_fault_plan(plan.clone());
        }
    }

    /// True when `node` is inside a crash window of the attached fault plan.
    pub fn node_down(&self, node: u16) -> bool {
        self.shards[0].net.node_down(node, self.now())
    }

    /// Enable timeout/retransmission on client `client` (must already have a
    /// generator installed). `payload_fn` rebuilds the payload of a request
    /// from its token on each retransmission; pass `None` for payload-less
    /// workloads. Without a retry policy a lost request simply never
    /// completes — the pre-fault behaviour.
    pub fn set_client_retry(
        &mut self,
        client: usize,
        policy: RetryPolicy,
        payload_fn: Option<PayloadFn>,
    ) {
        assert!(policy.max_tries >= 1 && policy.timeout > SimTime::ZERO);
        let node = (self.n_servers + client) as u16;
        let state = self.shard_for_mut(node).clients[client]
            .as_mut()
            .expect("set_client before set_client_retry");
        state.retry = Some(ClientRetry {
            policy,
            payload_fn,
            slots: HashMap::new(),
        });
    }

    /// Convenience: fixed-size empty-payload closed loop against one actor,
    /// run for `dur`.
    pub fn run_closed_loop(&mut self, dst: Address, outstanding: u32, wire: u32, dur: SimTime) {
        self.set_client(
            0,
            Box::new(move |rng, _| ClientReq {
                dst,
                wire_size: wire,
                flow: rng.below(1 << 30),
                payload: None,
            }),
            outstanding,
        );
        self.run_for(dur);
    }

    /// Run the event loop for `dur` of simulated time.
    ///
    /// The cluster advances in conservative-lookahead epochs: every epoch
    /// starts at the global minimum pending time `gmin` and lets each shard
    /// run its own events up to `gmin + lookahead` with no synchronization
    /// (a frame sent inside the epoch cannot arrive at another shard before
    /// the horizon). Cross-shard frames buffered in outboxes are merged
    /// into the destination pools at the barrier in `(port_ready, dst, src,
    /// seq)` order, so the merged run is byte-identical to the single-shard
    /// one. With one shard the horizon is unbounded and the loop degrades
    /// to the classic serial sweep.
    pub fn run_for(&mut self, dur: SimTime) {
        let end = self.now() + dur;
        // Setup-time sends (actor init emits) may be parked in outboxes.
        self.flush_outboxes();
        while let Some(gmin) = self.shards.iter().filter_map(|s| s.next_time()).min() {
            if gmin > end {
                break;
            }
            let horizon = self.lookahead.map(|l| gmin + l);
            if self.run_parallel && self.shards.len() > 1 {
                let ptrs: Vec<ShardSendPtr> = self
                    .shards
                    .iter_mut()
                    .map(|s| ShardSendPtr(s as *mut ShardState))
                    .collect();
                std::thread::scope(|scope| {
                    for p in ptrs {
                        scope.spawn(move || {
                            let shard = unsafe { &mut *p.get() };
                            shard.run_slice(end, horizon);
                        });
                    }
                });
            } else {
                for s in &mut self.shards {
                    s.run_slice(end, horizon);
                }
            }
            let per_shard: Vec<u64> = self
                .shards
                .iter_mut()
                .map(|s| std::mem::take(&mut s.processed))
                .collect();
            for (total, delta) in self.shard_events.iter_mut().zip(&per_shard) {
                *total += delta;
            }
            self.epoch_stats.note(&per_shard);
            self.flush_outboxes();
            if horizon.is_none() {
                break; // single shard: the slice ran straight to `end`
            }
        }
        for s in &mut self.shards {
            s.events.advance_to(end);
        }
    }

    /// Move cross-shard frames from every outbox into the destination
    /// shard's merge pool. Transfer order is irrelevant — the pool orders
    /// entries by `(port_ready, dst, src, seq)`.
    fn flush_outboxes(&mut self) {
        for s in 0..self.shards.len() {
            if self.shards[s].outbox.is_empty() {
                continue;
            }
            let moved = std::mem::take(&mut self.shards[s].outbox);
            for e in moved {
                let dst = self.shard_of[e.dst as usize] as usize;
                self.shards[dst].pool.push(e);
            }
        }
    }

    /// Clear measurement state (after warmup): completion histogram, host
    /// CPU accounting, NIC busy accounting.
    pub fn reset_measurements(&mut self) {
        let now = self.now();
        for s in &mut self.shards {
            s.completions.reset();
            s.measure_start = now;
            for n in &mut s.nodes {
                n.host_acct = HostCpuAccounting::new();
                n.nic_busy_total = SimTime::ZERO;
            }
        }
    }

    /// Client-side completion statistics, aggregated across shards.
    pub fn completions(&self) -> CompletionStats {
        let mut agg = CompletionStats::default();
        for s in &self.shards {
            agg.issued += s.completions.issued;
            agg.done += s.completions.done;
            agg.completed += s.completions.completed;
            agg.shed += s.completions.shed;
            agg.hist.merge_from(&s.completions.hist.to_histogram());
        }
        agg
    }

    /// Sum a node-0 registry counter across every shard. Shards keep
    /// independent registries ([`Cluster::obs`] only sees shard 0's), so
    /// cluster-wide totals of per-shard counters such as
    /// `client.retry.abandoned` must fold over all of them.
    pub fn counter_total(&self, name: &'static str) -> u64 {
        self.shards
            .iter()
            .map(|s| s.obs.registry().counter(name).get())
            .sum()
    }

    /// Sum a per-node registry counter across every shard. Only the owning
    /// shard ever increments a node's counter, but reading through every
    /// registry keeps the accessor shard-layout-agnostic.
    pub fn counter_on_total(&self, name: &'static str, node: u16) -> u64 {
        self.shards
            .iter()
            .map(|s| s.obs.registry().counter_on(name, node).get())
            .sum()
    }

    /// Merged metrics snapshot across all shards. Snapshot merging is
    /// commutative, so the result is shard-count-independent.
    pub fn snapshot(&self) -> Snapshot {
        let mut snap = self.shards[0].obs.snapshot();
        for s in &self.shards[1..] {
            snap.merge(&s.obs.snapshot());
        }
        snap
    }

    /// Trace records merged across all shards in `(ts, node)` order — the
    /// shard-count-invariant view behind the canonical exports.
    pub fn merged_trace(&self) -> Vec<TraceEvent> {
        let per_shard: Vec<Vec<TraceEvent>> =
            self.shards.iter().map(|s| s.obs.trace_events()).collect();
        obs_export::merge_trace_events(&per_shard)
    }

    /// `(recorded, dropped)` trace-ring totals summed across shards.
    pub fn trace_totals(&self) -> (u64, u64) {
        self.shards.iter().fold((0, 0), |(r, d), s| {
            (r + s.obs.trace_recorded(), d + s.obs.trace_dropped())
        })
    }

    /// Canonical JSONL export: merged snapshot, then trace records merged
    /// across shards in `(ts, node)` order, then one `meta` line. For runs
    /// whose trace rings never overflow, the bytes are identical for every
    /// shard count (including a single shard).
    pub fn export_canonical_jsonl(&self) -> String {
        let mut out = self.snapshot().to_jsonl();
        out.push_str(&obs_export::trace_jsonl(&self.merged_trace()));
        let recorded: u64 = self.shards.iter().map(|s| s.obs.trace_recorded()).sum();
        let dropped: u64 = self.shards.iter().map(|s| s.obs.trace_dropped()).sum();
        out.push_str(&format!(
            "{{\"type\":\"meta\",\"trace_recorded\":{recorded},\"trace_dropped\":{dropped}}}\n"
        ));
        out
    }

    /// Canonical Chrome `trace_event` export, merged across shards.
    pub fn export_canonical_chrome(&self) -> String {
        obs_export::chrome_trace(&self.merged_trace())
    }

    /// Run the conservation audit: every ledger the cluster keeps is checked
    /// against ground truth reconstructed from the pending event queue.
    ///
    /// The pass is semantically invisible — pending events are drained
    /// (without advancing time) for tallying and re-scheduled in firing
    /// order, so a run behaves identically whether or not it was audited
    /// mid-flight. Scenario tests call this at quiesce;
    /// [`AuditReport::assert_clean`] turns any violation into a panic with
    /// the full rendered report.
    ///
    /// Invariants checked (see DESIGN.md §11 for the catalog):
    /// * `client.conservation` — issued == completed + abandoned + in-flight
    /// * `net.frames` — frames the network accounted as sent are processed,
    ///   still pending delivery, or dropped with a reason counter
    /// * `ring.depth` — per-node NIC→host ring occupancy equals the pending
    ///   `RingToHost` crossings
    /// * `core.token.{nic,host}` — a busy core holds exactly one pending
    ///   free event; an idle core holds none
    /// * `migrate.*` — phase legality, exactly one step event per active
    ///   migration, location consistency, buffered-request ownership, and an
    ///   empty dispatcher stash at event boundaries
    /// * scheduler ledgers via [`NicScheduler::audit_into`]
    pub fn audit(&mut self) -> AuditReport {
        let mut r = AuditReport::new(self.now());
        let mut pending_frames = 0u64;
        let mut rx_frames = 0u64;
        let mut issued = 0u64;
        let mut completed = 0u64;
        let mut shed = 0u64;
        let mut inflight = 0u64;
        let mut abandoned = 0u64;
        let mut loss = 0u64;
        let mut sent = 0u64;
        let mut bytes_sent = 0u64;
        let mut reg_packets = 0u64;
        let mut reg_bytes = 0u64;
        let mut shed_remote = 0u64;
        let mut shed_source = 0u64;
        let mut shed_backoff = 0u64;
        let mut ingress_shed = 0u64;
        let mut admission_installed = false;
        for shard in &mut self.shards {
            pending_frames += shard.audit_local(&mut r);
            rx_frames += shard.rx_frames;
            issued += shard.completions.issued;
            completed += shard.completions.completed;
            shed += shard.completions.shed;
            inflight += shard
                .clients
                .iter()
                .flatten()
                .map(|s| s.inflight.len() as u64)
                .sum::<u64>();
            abandoned += shard.fault_metrics.abandoned.get();
            loss += shard.obs.registry().counter("fault.drop.loss").get();
            sent += shard.net.packets_sent();
            bytes_sent += shard.net.bytes_sent();
            reg_packets += shard.obs.registry().counter("net.packets").get();
            reg_bytes += shard.obs.registry().counter("net.bytes").get();
            shed_remote += shard.fault_metrics.shed_remote.get();
            shed_source += shard.fault_metrics.shed_source.get();
            shed_backoff += shard.fault_metrics.shed_backoff.get();
            for n in &shard.nodes {
                if let Some(a) = &n.admission {
                    admission_installed = true;
                    ingress_shed += a.shed();
                }
            }
        }

        r.check(
            "client.conservation",
            CLUSTER_WIDE,
            issued == completed + abandoned + shed + inflight,
            || {
                format!(
                    "issued {issued} != completed {completed} + abandoned {abandoned} \
                     + shed {shed} + in-flight {inflight}"
                )
            },
        );

        // Shed ledger: the client-side shed total must agree with its two
        // registry counters (remote drops + source suppressions), and every
        // shed the clients observed (remote drops plus parked retry timers)
        // must trace back to an ingress refusal — `≤` because a shed reply
        // can still be on the wire, or ignored as stale after the request
        // completed via another path. Emitted whether or not admission is
        // installed so the audit's check count is scenario-stable.
        r.check(
            "client.shed.counter",
            CLUSTER_WIDE,
            shed == shed_remote + shed_source,
            || {
                format!(
                    "client shed ledger {shed} != remote {shed_remote} \
                     + source {shed_source}"
                )
            },
        );
        r.check_le(
            "shed.reconcile",
            CLUSTER_WIDE,
            ("client-observed sheds", shed_remote + shed_backoff),
            (
                "ingress sheds",
                if admission_installed { ingress_shed } else { 0 },
            ),
        );

        // Measurement consistency: `reset_measurements` stamps every shard
        // with one instant; throughput math assumes they never drift.
        let start0 = self.shards[0].measure_start;
        r.check(
            "measure.start",
            CLUSTER_WIDE,
            self.shards.iter().all(|s| s.measure_start == start0),
            || {
                let starts: Vec<String> = self
                    .shards
                    .iter()
                    .map(|s| s.measure_start.to_string())
                    .collect();
                format!("per-shard measure_start diverged: [{}]", starts.join(", "))
            },
        );

        // Frame ledger: every frame the network accounted (`net.packets`
        // counts serialized frames, including lossy and corrupted ones, but
        // not link/node-down drops) was either processed at an ingress,
        // is still pending delivery (queued, pooled, or outboxed), or was
        // dropped by the loss fault.
        r.check(
            "net.frames",
            CLUSTER_WIDE,
            rx_frames + pending_frames + loss == sent,
            || {
                format!(
                    "processed {rx_frames} + pending {pending_frames} + lost {loss} \
                     != sent {sent}"
                )
            },
        );

        // Internal-vs-registry cross-check of the link-layer counters,
        // aggregated across shards so the audit emits the same number of
        // checks for every shard count.
        r.check(
            "net.counter.packets",
            CLUSTER_WIDE,
            reg_packets == sent,
            || format!("registry net.packets {reg_packets} != model {sent}"),
        );
        r.check(
            "net.counter.bytes",
            CLUSTER_WIDE,
            reg_bytes == bytes_sent,
            || format!("registry net.bytes {reg_bytes} != model {bytes_sent}"),
        );

        r.record_to(&self.shards[0].obs);
        r
    }

    /// Test-only leak hook: silently discard one in-flight client request,
    /// bypassing every ledger. The audit must flag the imbalance — the
    /// proptest suite uses this to prove the checker detects real leaks.
    /// Returns false when the client has nothing in flight.
    #[doc(hidden)]
    pub fn debug_drop_inflight(&mut self, client: usize) -> bool {
        if client >= self.n_clients {
            return false;
        }
        let node = (self.n_servers + client) as u16;
        let shard = self.shard_for_mut(node);
        let Some(Some(state)) = shard.clients.get_mut(client) else {
            return false;
        };
        // Smallest token for determinism across runs.
        let Some(token) = state.inflight.keys().min().copied() else {
            return false;
        };
        state.inflight.remove(&token);
        if let Some(retry) = state.retry.as_mut() {
            retry.slots.remove(&token);
        }
        true
    }

    /// Measured wall time since the last reset.
    ///
    /// `reset_measurements` stamps every shard with the same instant and
    /// the audit's `measure.start` check enforces that they stay equal; the
    /// max is taken here so a hypothetical drift shortens (never inflates)
    /// the window, keeping `throughput_rps` conservative.
    pub fn measured_wall(&self) -> SimTime {
        let start = self
            .shards
            .iter()
            .map(|s| s.measure_start)
            .max()
            .unwrap_or(SimTime::ZERO);
        self.now().saturating_sub(start)
    }

    /// Completed requests per second over the measurement window.
    pub fn throughput_rps(&self) -> f64 {
        let wall = self.measured_wall();
        if wall == SimTime::ZERO {
            return 0.0;
        }
        let done: u64 = self.shards.iter().map(|s| s.completions.done).sum();
        done as f64 / wall.as_secs_f64()
    }

    /// Host cores kept busy on server `node` over the measurement window
    /// (Fig 13's y-axis).
    pub fn host_cores_used(&mut self, node: usize) -> f64 {
        let wall = self.measured_wall();
        let shard = self.shard_for_mut(node as u16);
        let idx = node - shard.base as usize;
        let acct = &mut shard.nodes[idx].host_acct;
        acct.set_wall(wall);
        acct.cores_used()
    }

    /// NIC core utilization (0..cores) on server `node`.
    pub fn nic_cores_used(&self, node: usize) -> f64 {
        let wall = self.measured_wall();
        if wall == SimTime::ZERO {
            return 0.0;
        }
        let shard = self.shard_for(node as u16);
        let idx = node - shard.base as usize;
        shard.nodes[idx].nic_busy_total.as_secs_f64() / wall.as_secs_f64()
    }

    /// Where an actor currently lives.
    pub fn actor_location(&self, addr: Address) -> Option<Loc> {
        let shard = self.shard_for(addr.node);
        shard.nodes[(addr.node - shard.base) as usize]
            .sched
            .location(addr.actor)
    }

    /// Force a push migration of an actor (Fig 18 methodology: "we force
    /// the actor migration after the warm up").
    pub fn force_migrate(&mut self, addr: Address) -> bool {
        self.shard_for_mut(addr.node).force_migrate_local(addr)
    }

    /// Migration reports collected on a node (Fig 18).
    pub fn migration_reports(&self, node: usize) -> &[MigrationReport] {
        let shard = self.shard_for(node as u16);
        &shard.nodes[node - shard.base as usize].migration_reports
    }

    /// Actors killed by the isolation watchdog, as (node, actor) pairs in
    /// deterministic (kill time, node, actor) order across shards.
    pub fn watchdog_kills(&self) -> Vec<(u16, ActorId)> {
        let mut all: Vec<(SimTime, u16, ActorId)> = self
            .shards
            .iter()
            .flat_map(|s| s.kills.iter().copied())
            .collect();
        all.sort();
        all.into_iter()
            .map(|(_, node, actor)| (node, actor))
            .collect()
    }

    /// Messages that crossed each node's PCIe rings.
    pub fn ring_messages(&self, node: usize) -> u64 {
        let shard = self.shard_for(node as u16);
        shard.nodes[node - shard.base as usize].ring_messages
    }
}

impl ShardState {
    /// Earliest pending instant in this shard: its own event queue or the
    /// head of the ingress merge pool.
    fn next_time(&self) -> Option<SimTime> {
        let q = self.events.peek_time();
        let p = self.pool.peek().map(|e| e.port_ready);
        match (q, p) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, None) => a,
            (None, b) => b,
        }
    }

    /// Run this shard's events up to `end` (inclusive) and strictly below
    /// `horizon`. At every instant, pooled frame arrivals are resolved
    /// *before* queued handlers run — the rule that makes arrival order
    /// independent of the shard count.
    fn run_slice(&mut self, end: SimTime, horizon: Option<SimTime>) {
        let mut batch = std::mem::take(&mut self.ev_batch);
        while let Some(next) = self.next_time() {
            if next > end {
                break;
            }
            if horizon.is_some_and(|h| next >= h) {
                break;
            }
            if self.pool.peek().is_some_and(|e| e.port_ready == next) {
                self.resolve_arrivals(next);
                continue;
            }
            // Dispatch is batched per distinct timestamp: one traversal of
            // the event queue serves every simultaneous event, and handlers
            // scheduling at the current instant form a follow-up batch with
            // larger sequence numbers.
            let now = self.events.pop_batch(&mut batch).expect("peeked");
            self.processed += batch.len() as u64;
            for ev in batch.drain(..) {
                self.handle(now, ev);
            }
        }
        self.ev_batch = batch;
    }

    /// Pop every pool entry whose egress port drains at instant `t` — in
    /// `(port_ready, dst, src, seq)` order — charge the receive queue, and
    /// schedule the ingress event at the receive completion time.
    fn resolve_arrivals(&mut self, t: SimTime) {
        while self.pool.peek().is_some_and(|e| e.port_ready == t) {
            let e = self.pool.pop().expect("peeked");
            self.processed += 1;
            match e.kind {
                ArrivalKind::Deliver { req } => {
                    let rx_end = self.net.finish_transfer(t, e.dst, req.wire_size);
                    self.events
                        .schedule_at(rx_end, Ev::Deliver { node: e.dst, req });
                }
                ArrivalKind::Corrupt { wire_size, flip } => {
                    let rx_end = self.net.finish_transfer(t, e.dst, wire_size);
                    self.events.schedule_at(
                        rx_end,
                        Ev::DeliverCorrupt {
                            node: e.dst,
                            src: e.src,
                            wire_size,
                            flip,
                        },
                    );
                }
            }
        }
    }

    /// Start a frame's network transfer (TX + fault judgement at send time)
    /// and park the arrival in the destination's merge pool — directly when
    /// this shard owns the destination, via the outbox otherwise.
    fn send_frame(&mut self, now: SimTime, pkt: &Packet, req: Option<Request>) {
        let (src, dst) = (pkt.src.0, pkt.dst.0);
        match self.net.begin_transfer(now, pkt) {
            TxPhase::Sent { port_ready } => {
                let req = req.expect("deliverable frame carries a request");
                let seq = self.next_send_seq(src);
                self.push_arrival(PoolEntry {
                    port_ready,
                    dst,
                    src,
                    seq,
                    kind: ArrivalKind::Deliver { req },
                });
            }
            TxPhase::SentCorrupt { port_ready, flip } => {
                let seq = self.next_send_seq(src);
                self.push_arrival(PoolEntry {
                    port_ready,
                    dst,
                    src,
                    seq,
                    kind: ArrivalKind::Corrupt {
                        wire_size: pkt.size,
                        flip,
                    },
                });
            }
            TxPhase::Dropped { .. } => {}
        }
    }

    fn next_send_seq(&mut self, src: u16) -> u64 {
        let s = &mut self.send_seq[src as usize];
        *s += 1;
        *s
    }

    fn push_arrival(&mut self, entry: PoolEntry) {
        if self.shard_of[entry.dst as usize] == self.shard_id {
            self.pool.push(entry);
        } else {
            self.outbox.push(entry);
        }
    }

    /// Per-shard slice of the conservation audit: quiesce-sweep this
    /// shard's event queue (drain + re-schedule preserves the firing
    /// order), run the per-node checks, and return how many frames are
    /// still pending delivery here (queued, pooled, or outboxed).
    fn audit_local(&mut self, r: &mut AuditReport) -> u64 {
        let n_nodes = self.nodes.len();
        let mut ring_to_host = vec![0u64; n_nodes];
        let mut mig_steps = vec![0u64; n_nodes];
        let mut nic_free: Vec<Vec<u64>> = self
            .nodes
            .iter()
            .map(|n| vec![0u64; n.nic_inflight.len()])
            .collect();
        let mut host_free: Vec<Vec<u64>> = self
            .nodes
            .iter()
            .map(|n| vec![0u64; n.host_inflight.len()])
            .collect();
        let mut pending_frames = 0u64;
        let base = self.base;
        for (at, ev) in self.events.drain_pending() {
            match &ev {
                Ev::RingToHost { node, .. } => ring_to_host[(*node - base) as usize] += 1,
                Ev::NicFree { node, core } => {
                    nic_free[(*node - base) as usize][*core as usize] += 1
                }
                Ev::HostFree { node, core } => {
                    host_free[(*node - base) as usize][*core as usize] += 1
                }
                Ev::MigStep { node } => mig_steps[(*node - base) as usize] += 1,
                Ev::Deliver { .. } | Ev::DeliverCorrupt { .. } => pending_frames += 1,
                _ => {}
            }
            // Fresh sequence numbers preserve the drain's firing order, so
            // the re-scheduled queue pops identically — and because every
            // shard sweeps only its own queue, the order across shard
            // boundaries is untouched for any shard count.
            self.events.schedule_at(at, ev);
        }
        pending_frames += self.pool.len() as u64 + self.outbox.len() as u64;

        for (i, n) in self.nodes.iter().enumerate() {
            let node = base + i as u16;
            r.check("ring.depth", node, n.ring_depth == ring_to_host[i], || {
                format!(
                    "ring_depth {} != pending RingToHost {}",
                    n.ring_depth, ring_to_host[i]
                )
            });
            for (core, slot) in n.nic_inflight.iter().enumerate() {
                let want = u64::from(slot.is_some());
                r.check("core.token.nic", node, nic_free[i][core] == want, || {
                    format!(
                        "core {core}: busy={} but {} pending NicFree",
                        slot.is_some(),
                        nic_free[i][core]
                    )
                });
            }
            for (core, slot) in n.host_inflight.iter().enumerate() {
                let want = u64::from(slot.is_some());
                r.check("core.token.host", node, host_free[i][core] == want, || {
                    format!(
                        "core {core}: busy={} but {} pending HostFree",
                        slot.is_some(),
                        host_free[i][core]
                    )
                });
            }
            match &n.active_migration {
                Some(m) => {
                    m.audit_into(r, node);
                    r.check("migrate.step", node, mig_steps[i] == 1, || {
                        format!(
                            "active migration of actor {} has {} pending MigStep events",
                            m.actor, mig_steps[i]
                        )
                    });
                    r.check(
                        "migrate.location",
                        node,
                        n.sched.location(m.actor) == Some(Loc::Migrating),
                        || {
                            format!(
                                "migrating actor {} has scheduler location {:?}",
                                m.actor,
                                n.sched.location(m.actor)
                            )
                        },
                    );
                }
                None => {
                    r.check("migrate.step", node, mig_steps[i] == 0, || {
                        format!(
                            "{} stale MigStep events with no active migration",
                            mig_steps[i]
                        )
                    });
                }
            }
            r.check("migrate.stash", node, n.pending_buffered.is_empty(), || {
                format!(
                    "{} requests stranded in the dispatcher's migration stash",
                    n.pending_buffered.len()
                )
            });
            if let Some(a) = &n.admission {
                a.audit_into(r, node);
            }
            n.sched.audit_into(r, node);
        }
        pending_frames
    }

    /// Register an actor on server `node` (owned by this shard) with a
    /// pre-allocated cluster-wide actor id.
    fn register_actor_local(
        &mut self,
        node: u16,
        id: ActorId,
        name: &str,
        mut logic: Box<dyn ActorLogic>,
        placement: Placement,
    ) -> Address {
        let pinned = logic.host_pinned();
        let host_only = self.mode != RuntimeMode::IPipe;
        let on_host = host_only || pinned || placement == Placement::Host;
        let n = &mut self.nodes[(node - self.base) as usize];
        n.dmo.register_region(id, self.region_bytes);
        let now = self.events.now();
        let init_emits = {
            let mut ctx = ActorCtx::new(now, id, node, &mut n.dmo, &mut n.rng);
            logic.init(&mut ctx);
            // Init cost is setup-time, not measured; init *messages* are
            // routed below (timers armed in init must fire).
            let (_, emits) = ctx.finish();
            emits
        };
        let speedup = logic.host_speedup().max(0.1);
        let hint = logic.state_hint_bytes();
        n.sched
            .register(id, 512, if on_host { Loc::Host } else { Loc::Nic });
        n.actors.insert(
            id,
            ActorSlot {
                logic,
                name: name.to_string(),
                host_speedup: speedup,
                pinned_host: pinned || host_only,
                state_hot: hint <= self.spec.cache.l2_bytes as u64,
                execs: 0,
            },
        );
        if !init_emits.is_empty() {
            self.route_emits(now, node, init_emits, !on_host);
        }
        Address { node, actor: id }
    }

    /// Force a push migration of an actor living on this shard.
    fn force_migrate_local(&mut self, addr: Address) -> bool {
        let now = self.events.now();
        let node = &mut self.nodes[(addr.node - self.base) as usize];
        if node.active_migration.is_some() || node.sched.location(addr.actor) != Some(Loc::Nic) {
            return false;
        }
        node.sched.set_location(addr.actor, Loc::Migrating);
        node.active_migration = Some(Migration::start(addr.actor, MigrationDir::Push, now));
        self.claim_pending_buffered(addr.node, addr.actor);
        self.events.schedule_after(
            Migration::phase1_duration(),
            Ev::MigStep { node: addr.node },
        );
        true
    }

    // ------------------------------------------------------------------
    // Event handling
    // ------------------------------------------------------------------

    fn handle(&mut self, now: SimTime, ev: Ev) {
        match ev {
            Ev::Issue { client } => self.handle_issue(now, client),
            Ev::Deliver { node, req } => self.handle_deliver(now, node, req),
            Ev::NicFree { node, core } => self.handle_nic_free(now, node, core),
            Ev::HostFree { node, core } => self.handle_host_free(now, node, core),
            Ev::RingToHost { node, req } => {
                let n = &mut self.nodes[(node - self.base) as usize];
                n.ring_depth = n.ring_depth.saturating_sub(1);
                n.metrics.ring_depth.set(n.ring_depth as i64);
                self.enqueue_host(now, node, req);
            }
            Ev::RingToNic { node, req } => {
                let n = &mut self.nodes[(node - self.base) as usize];
                n.metrics.ring_to_nic.inc();
                n.sched.on_arrival(now, req);
                self.kick_nic(now, node);
            }
            Ev::MigStep { node } => self.handle_mig_step(now, node),
            Ev::MigRetry { node, actor } => {
                let _ = self.force_migrate_local(Address { node, actor });
            }
            Ev::DeliverCorrupt {
                node,
                src,
                wire_size,
                flip,
            } => self.handle_deliver_corrupt(node, src, wire_size, flip),
            Ev::RetryCheck { client, token } => self.handle_retry_check(now, client, token),
            Ev::DelayedEmit {
                node,
                emit,
                from_nic,
            } => self.route_emits(now, node, vec![emit], from_nic),
        }
    }

    /// Send a client request frame over the (possibly faulted) network. A
    /// delivered frame becomes a `Deliver` event; a corrupted frame becomes
    /// a `DeliverCorrupt` (payload lost on the wire); a dropped frame
    /// vanishes — only the retransmission timer can recover it.
    #[allow(clippy::too_many_arguments)]
    fn client_send(
        &mut self,
        now: SimTime,
        client_node: u16,
        dst: Address,
        flow: u64,
        wire_size: u32,
        token: u64,
        payload: Payload,
    ) {
        let pkt = Packet::new(
            NodeId(client_node),
            NodeId(dst.node),
            flow,
            wire_size,
            PacketKind::Request,
        )
        .stamped(now);
        let req = Request {
            actor: dst.actor,
            flow,
            wire_size,
            arrived: now,
            reply_to: Some(Address {
                node: client_node,
                actor: 0,
            }),
            token,
            payload,
        };
        self.send_frame(now, &pkt, Some(req));
    }

    /// A damaged frame reached a NIC: run it through the shim stack's real
    /// header codec, which must reject it. The PKI discards rejected frames
    /// before core dispatch, so no scheduler work is generated.
    fn handle_deliver_corrupt(&mut self, node: u16, src: u16, wire_size: u32, flip: u8) {
        self.rx_frames += 1;
        // A frame longer than the codec's payload ceiling (total_len is 16
        // bits and must also cover the 28 IPv4+UDP header bytes) is rejected
        // before the codec runs — silently clamping the length would
        // mislabel jumbo damage as an in-range frame with a bad checksum.
        // The frame is still accounted as processed (`rx_frames`) and as a
        // rejection, with its own reason counter.
        if wire_size as usize > crate::nstack::MAX_UDP_PAYLOAD {
            self.fault_metrics.oversize_rejected.inc();
            self.fault_metrics.corrupt_rejected.inc();
            return;
        }
        let hdr = crate::nstack::build_headers(crate::nstack::WqeHeader {
            src_node: src,
            dst_node: node,
            flow: 0,
            actor: 0,
            payload_len: wire_size as u16,
        })
        .expect("payload_len <= MAX_UDP_PAYLOAD was just checked");
        let mut damaged = hdr;
        damaged[14 + flip as usize] ^= 0xFF;
        debug_assert!(
            crate::nstack::parse_headers(&damaged).is_none(),
            "corrupted header must fail validation"
        );
        if crate::nstack::parse_headers(&damaged).is_none() {
            self.fault_metrics.corrupt_rejected.inc();
        }
    }

    fn handle_retry_check(&mut self, now: SimTime, client: u16, token: u64) {
        let client_node = (self.n_servers + client as usize) as u16;
        let (dst, flow, wire_size, payload, next_wait) = {
            let Some(state) = self.clients[client as usize].as_mut() else {
                return;
            };
            let Some(retry) = state.retry.as_mut() else {
                return;
            };
            if !state.inflight.contains_key(&token) {
                // Completed in the meantime; drop the slot if still present.
                retry.slots.remove(&token);
                return;
            }
            let Some(slot) = retry.slots.get_mut(&token) else {
                return;
            };
            if now < slot.hold_until {
                // A shed reply parked this request: honor the server's
                // backoff hint without consuming a try, then re-check.
                let wait = slot.hold_until.saturating_sub(now);
                self.events
                    .schedule_after(wait, Ev::RetryCheck { client, token });
                return;
            }
            if slot.tries >= retry.policy.max_tries {
                // Give up so the closed loop keeps breathing. Open-loop
                // arrivals are purely time-driven — never re-armed by an
                // abandonment — so a paced client skips the re-issue.
                state.inflight.remove(&token);
                retry.slots.remove(&token);
                self.fault_metrics.abandoned.inc();
                if state.open.is_none() {
                    self.events
                        .schedule_after(SimTime::ZERO, Ev::Issue { client });
                }
                return;
            }
            slot.tries += 1;
            slot.backoff = (slot.backoff * 2).min(retry.policy.cap);
            let payload = retry.payload_fn.as_mut().and_then(|f| f(token));
            (slot.dst, slot.flow, slot.wire_size, payload, slot.backoff)
        };
        self.fault_metrics.retries.inc();
        self.client_send(now, client_node, dst, flow, wire_size, token, payload);
        self.events
            .schedule_after(next_wait, Ev::RetryCheck { client, token });
    }

    fn handle_issue(&mut self, now: SimTime, client: u16) {
        let client_node = (self.n_servers + client as usize) as u16;
        let Some(state) = self.clients[client as usize].as_mut() else {
            return;
        };
        if let Some(open) = state.open.as_ref() {
            // Open loop: arrivals are a seeded Poisson process, independent
            // of completions. Each arrival schedules its successor before
            // issuing, and the stream ends at `until` so the run can drain.
            if now >= open.until {
                return;
            }
            let gap = open.arrivals.next_gap(&mut state.rng);
            self.events.schedule_after(gap, Ev::Issue { client });
            if now < state.shed_src_until {
                // A live backoff hint: shed this arrival at the source.
                // The request is counted (issued + shed) but never built —
                // no token, no in-flight entry, no retry slot — so the
                // ledgers stay bounded under sustained saturation instead
                // of growing with every refused arrival.
                self.completions.issued += 1;
                self.completions.shed += 1;
                self.fault_metrics.shed_source.inc();
                return;
            }
        } else if state.inflight.len() >= state.outstanding as usize {
            return;
        }
        let token = (client as u64) << 40 | state.next_token;
        state.next_token += 1;
        let creq = (state.gen)(&mut state.rng, token);
        state.inflight.insert(token, now);
        self.completions.issued += 1;
        let mut retry_wait = None;
        if let Some(retry) = state.retry.as_mut() {
            retry.slots.insert(
                token,
                RetrySlot {
                    dst: creq.dst,
                    wire_size: creq.wire_size,
                    flow: creq.flow,
                    tries: 1,
                    backoff: retry.policy.timeout,
                    hold_until: SimTime::ZERO,
                },
            );
            retry_wait = Some(retry.policy.timeout);
        }
        self.client_send(
            now,
            client_node,
            creq.dst,
            creq.flow,
            creq.wire_size,
            token,
            creq.payload,
        );
        if let Some(wait) = retry_wait {
            self.events
                .schedule_after(wait, Ev::RetryCheck { client, token });
        }
    }

    fn handle_deliver(&mut self, now: SimTime, node: u16, mut req: Request) {
        self.rx_frames += 1;
        if node as usize >= self.n_servers {
            // Response reached a client.
            let client = node as usize - self.n_servers;
            #[cfg(feature = "rt-trace")]
            eprintln!("[client] t={now} token={} arrive", req.token);
            // A redirect reply bounces the request toward another address
            // instead of completing it (when retransmission is enabled —
            // otherwise it terminates the request like any reply).
            let redirect = req
                .payload
                .as_ref()
                .and_then(|p| p.downcast_ref::<Redirect>())
                .map(|r| r.0);
            if let Some(new_dst) = redirect {
                let resend = {
                    let state = self.clients[client].as_mut();
                    state.and_then(|s| {
                        if !s.inflight.contains_key(&req.token) {
                            return None;
                        }
                        let retry = s.retry.as_mut()?;
                        let old_dst = retry.slots.get(&req.token)?.dst;
                        // Routing refresh: one Redirect means the *address*
                        // moved, not just this request. Retarget every queued
                        // request still aimed at the old address in place —
                        // each pending RetryCheck timer then transmits to the
                        // new home — instead of letting each one bounce off
                        // the old address individually (a redirect storm
                        // after every rebalance). Only this request resends
                        // immediately.
                        let mut refreshed = 0u64;
                        for (t, slot) in retry.slots.iter_mut() {
                            if slot.dst == old_dst {
                                slot.dst = new_dst;
                                if *t != req.token {
                                    refreshed += 1;
                                }
                            }
                        }
                        let payload = retry.payload_fn.as_mut().and_then(|f| f(req.token));
                        let slot = retry.slots.get(&req.token)?;
                        if old_dst != new_dst {
                            // Let the application refresh its routing table
                            // so *future* issues steer to the new home too.
                            if let Some(cb) = s.route_refresh.as_mut() {
                                cb(old_dst, new_dst);
                            }
                        }
                        Some((slot.flow, slot.wire_size, payload, refreshed))
                    })
                };
                if let Some((flow, wire_size, payload, refreshed)) = resend {
                    self.fault_metrics.redirects.inc();
                    if refreshed > 0 {
                        self.fault_metrics.route_refreshed.add(refreshed);
                    }
                    self.client_send(now, node, new_dst, flow, wire_size, req.token, payload);
                    return;
                }
            }
            // A shed reply: the ingress refused the request and suggested a
            // backoff. Closed-loop clients with retransmission keep the
            // request in flight and park its retry timer; everyone else
            // terminates the request as shed (and open-loop clients also
            // suppress new arrivals at the source until the hint expires).
            let shed_hint = req
                .payload
                .as_ref()
                .and_then(|p| p.downcast_ref::<Shed>())
                .map(|s| s.retry_after);
            if let Some(retry_after) = shed_hint {
                if let Some(state) = self.clients[client].as_mut() {
                    if state.inflight.contains_key(&req.token) {
                        if state.open.is_none() {
                            if let Some(retry) = state.retry.as_mut() {
                                if let Some(slot) = retry.slots.get_mut(&req.token) {
                                    slot.hold_until = slot.hold_until.max(now + retry_after);
                                    self.fault_metrics.shed_backoff.inc();
                                    return;
                                }
                            }
                        }
                        state.inflight.remove(&req.token);
                        if let Some(retry) = state.retry.as_mut() {
                            retry.slots.remove(&req.token);
                        }
                        self.completions.shed += 1;
                        self.fault_metrics.shed_remote.inc();
                        if state.open.is_some() {
                            state.shed_src_until = state.shed_src_until.max(now + retry_after);
                        } else {
                            // Retry-less closed loop: the shed frees a slot.
                            self.events.schedule_after(
                                SimTime::ZERO,
                                Ev::Issue {
                                    client: client as u16,
                                },
                            );
                        }
                    }
                }
                return;
            }
            if let Some(state) = self.clients[client].as_mut() {
                if let Some(issued) = state.inflight.remove(&req.token) {
                    self.completions.completed += 1;
                    if let Some(retry) = state.retry.as_mut() {
                        retry.slots.remove(&req.token);
                    }
                    if issued >= self.measure_start {
                        self.completions.done += 1;
                        self.completions.hist.record(now.saturating_sub(issued));
                        // Per-request client RTT spans are verbose-only.
                        if self.obs.traces(TraceLevel::Verbose) {
                            self.obs.span(
                                "client",
                                "rtt",
                                node,
                                client as u32,
                                issued,
                                now,
                                Some(("token", req.token as i64)),
                            );
                        }
                    }
                    // A completion frees a closed-loop slot; open-loop
                    // arrivals are paced by time alone.
                    if state.open.is_none() {
                        self.events.schedule_after(
                            SimTime::ZERO,
                            Ev::Issue {
                                client: client as u16,
                            },
                        );
                    }
                }
            }
            return;
        }
        req.arrived = now;
        // Ingress admission: external client requests are judged before any
        // scheduler work is generated (internal server-to-server frames are
        // never shed — refusing mid-protocol messages would wedge Paxos).
        // The decision reads only this node's own bucket state and backlog,
        // so verdicts are identical for every shard count.
        let external_from = req.reply_to.filter(|a| (a.node as usize) >= self.n_servers);
        if let Some(reply_to) = external_from {
            let idx = (node - self.base) as usize;
            if self.nodes[idx].admission.is_some() {
                let client_idx = reply_to.node as usize - self.n_servers;
                let class = self.client_class.get(client_idx).copied().unwrap_or(0);
                let backlog = self.nodes[idx].sched.backlog();
                let decision = self.nodes[idx]
                    .admission
                    .as_mut()
                    .expect("checked above")
                    .decide(now, class, backlog);
                if let Decision::Shed { retry_after } = decision {
                    let pkt = Packet::new(
                        NodeId(node),
                        NodeId(reply_to.node),
                        req.token,
                        SHED_REPLY_WIRE,
                        PacketKind::Response,
                    )
                    .stamped(now);
                    let reply = Request {
                        actor: reply_to.actor,
                        flow: req.token,
                        wire_size: SHED_REPLY_WIRE,
                        arrived: now,
                        reply_to: None,
                        token: req.token,
                        payload: Some(Box::new(Shed { retry_after })),
                    };
                    self.send_frame(now, &pkt, Some(reply));
                    return;
                }
            }
        }
        match self.mode {
            RuntimeMode::HostDpdk | RuntimeMode::HostIPipe => {
                // Dumb-NIC path: steer by flow straight to a host core.
                // (Fig 17 pins the same communication thread for both the
                // iPipe and non-iPipe host-only variants.)
                self.enqueue_host(now, node, req);
            }
            RuntimeMode::IPipe => {
                self.nodes[(node - self.base) as usize]
                    .sched
                    .on_arrival(now, req);
                self.kick_nic(now, node);
            }
        }
    }

    /// Try to hand work to every idle NIC core.
    fn kick_nic(&mut self, now: SimTime, node: u16) {
        let cores = self.spec.cores;
        for core in 0..cores {
            if self.nodes[(node - self.base) as usize].nic_inflight[core as usize].is_some() {
                continue;
            }
            self.start_nic_work(now, node, core);
        }
    }

    fn start_nic_work(&mut self, now: SimTime, node: u16, core: u32) {
        loop {
            let work = {
                let n = &mut self.nodes[(node - self.base) as usize];
                n.sched.next_for_core(now, core)
            };
            match work {
                None => return,
                Some(Work::Buffer(req)) => {
                    let n = &mut self.nodes[(node - self.base) as usize];
                    match n.active_migration.as_mut() {
                        // Only the migrating actor's own requests belong in
                        // the migration buffer; a request for a *different*
                        // actor marked `Migrating` (its migration decision
                        // is still in the action queue, or will be refused
                        // because this one is active) would otherwise be
                        // forwarded to the wrong destination — or, with no
                        // active migration at all, silently dropped.
                        Some(m) if m.actor == req.actor => m.buffered.push(req),
                        _ => n.pending_buffered.push(req),
                    }
                    // Buffering is nearly free; keep looking for real work.
                    continue;
                }
                Some(Work::Forward(req)) => {
                    let n = &mut self.nodes[(node - self.base) as usize];
                    let push_cost = self.spec.dma.nb_enqueue;
                    let xfer = ring_to_host_latency(self.spec, req.wire_size);
                    n.ring_depth += 1;
                    n.ring_messages += 1;
                    n.metrics.ring_to_host.inc();
                    n.metrics.ring_to_host_bytes.add(req.wire_size as u64);
                    n.metrics.ring_xfer.record(xfer);
                    n.metrics.ring_depth.set(n.ring_depth as i64);
                    n.metrics.nic_forward.inc();
                    let actor = req.actor;
                    let arrived = req.arrived;
                    self.events
                        .schedule_at(now + xfer, Ev::RingToHost { node, req });
                    self.obs.span(
                        "nic",
                        "forward",
                        node,
                        core,
                        now,
                        now + push_cost,
                        Some(("actor", actor as i64)),
                    );
                    let n = &mut self.nodes[(node - self.base) as usize];
                    n.nic_inflight[core as usize] = Some(InFlight {
                        actor,
                        arrived,
                        busy: push_cost,
                        emits: Vec::new(),
                        forward_only: true,
                    });
                    n.nic_busy_total += push_cost;
                    self.events
                        .schedule_at(now + push_cost, Ev::NicFree { node, core });
                    return;
                }
                Some(Work::Exec(req)) => {
                    #[cfg(feature = "rt-trace")]
                    eprintln!("[exec] t={now} token={} core={core}", req.token);
                    self.exec_on_nic(now, node, core, req);
                    return;
                }
            }
        }
    }

    fn exec_on_nic(&mut self, now: SimTime, node: u16, core: u32, mut req: Request) {
        let actor = req.actor;
        let arrived = req.arrived;
        let wire = req.wire_size;
        let n = &mut self.nodes[(node - self.base) as usize];
        let NodeRt {
            actors,
            dmo,
            rng,
            watchdog,
            metrics,
            ..
        } = n;
        let Some(slot) = actors.get_mut(&actor) else {
            // The actor vanished between dispatch and execution (watchdog
            // kill). The request is unrecoverable — count the drop so the
            // conservation ledger stays exact instead of losing it silently.
            metrics.drop_no_actor.inc();
            return;
        };
        watchdog.arm(core, actor, now);
        let mut ctx = ActorCtx::new(now, actor, node, dmo, rng);
        let payload_taken = req.payload.take();
        req.payload = payload_taken;
        slot.logic.exec(&mut ctx, req);
        let (charged, emits) = ctx.finish();
        let traffic_stats = dmo.take_traffic();
        slot.execs += 1;
        if slot.execs % 4096 == 0 {
            slot.state_hot = dmo.actor_state_bytes(actor) <= self.spec.cache.l2_bytes as u64;
        }
        let mem_time = nic_mem_time(self.spec, slot.state_hot, traffic_stats);
        let handler = charged + mem_time;
        let dispatch = n.sched.dispatch_overhead();
        let fwd = self.spec.fwd.cost(wire);
        let send_cost: SimTime = emits.iter().map(|e| nic_emit_cost(self.spec, e)).sum();
        let busy = dispatch + fwd.max(handler) + send_cost;

        // DoS watchdog: a runaway handler gets its actor deregistered.
        if let Some(offender) = n.watchdog.check_execution(core, now + busy) {
            n.sched.deregister(offender);
            n.actors.remove(&offender);
            n.dmo.drop_actor(offender);
            n.metrics.watchdog_kills.inc();
            self.obs.instant(
                "nic",
                "watchdog.kill",
                node,
                core,
                now,
                Some(("actor", offender as i64)),
            );
            self.kills.push((now, node, offender));
            // The core is released after the timeout budget.
            let timeout = n.watchdog.timeout();
            n.nic_inflight[core as usize] = Some(InFlight {
                actor: offender,
                arrived,
                busy: timeout,
                emits: Vec::new(),
                forward_only: true,
            });
            n.nic_busy_total += timeout;
            self.events
                .schedule_at(now + timeout, Ev::NicFree { node, core });
            return;
        }
        n.watchdog.disarm(core);
        n.metrics.nic_exec.inc();
        n.nic_inflight[core as usize] = Some(InFlight {
            actor,
            arrived,
            busy,
            emits,
            forward_only: false,
        });
        n.nic_busy_total += busy;
        self.events
            .schedule_at(now + busy, Ev::NicFree { node, core });
        self.obs.span(
            "nic",
            "exec",
            node,
            core,
            now,
            now + busy,
            Some(("actor", actor as i64)),
        );
    }

    fn handle_nic_free(&mut self, now: SimTime, node: u16, core: u32) {
        let inflight = self.nodes[(node - self.base) as usize].nic_inflight[core as usize]
            .take()
            .expect("core was busy");
        if !inflight.forward_only
            || self.nodes[(node - self.base) as usize]
                .actors
                .contains_key(&inflight.actor)
        {
            let n = &mut self.nodes[(node - self.base) as usize];
            n.sched.on_complete(
                now,
                core,
                inflight.actor,
                now.saturating_sub(inflight.arrived),
                inflight.busy,
            );
        }
        self.route_emits(now, node, inflight.emits, true);
        let mut actions = std::mem::take(&mut self.action_scratch);
        self.nodes[(node - self.base) as usize]
            .sched
            .take_actions_into(&mut actions);
        for a in actions.drain(..) {
            self.apply_action(now, node, a);
        }
        self.action_scratch = actions;
        // Reentrant kicks from route_emits may already have restarted this
        // core; only pull new work if it is still idle.
        if self.nodes[(node - self.base) as usize].nic_inflight[core as usize].is_none() {
            self.start_nic_work(now, node, core);
        }
    }

    /// Fold stashed requests for `actor` into its now-active migration's
    /// buffer (see `NodeRt::pending_buffered`).
    fn claim_pending_buffered(&mut self, node: u16, actor: ActorId) {
        let n = &mut self.nodes[(node - self.base) as usize];
        if n.pending_buffered.is_empty() {
            return;
        }
        let stash = std::mem::take(&mut n.pending_buffered);
        let (mine, rest): (Vec<_>, Vec<_>) = stash.into_iter().partition(|r| r.actor == actor);
        n.pending_buffered = rest;
        if let Some(m) = n.active_migration.as_mut() {
            debug_assert_eq!(m.actor, actor, "claim for the active migration only");
            m.buffered.extend(mine);
        }
    }

    /// Re-inject stashed requests for `actor` into the dispatcher after its
    /// migration mark was refused or its migration ended.
    fn reinject_pending_buffered(&mut self, now: SimTime, node: u16, actor: ActorId) {
        let stash = {
            let n = &mut self.nodes[(node - self.base) as usize];
            if n.pending_buffered.is_empty() {
                return;
            }
            std::mem::take(&mut n.pending_buffered)
        };
        let (mine, rest): (Vec<_>, Vec<_>) = stash.into_iter().partition(|r| r.actor == actor);
        self.nodes[(node - self.base) as usize].pending_buffered = rest;
        if mine.is_empty() {
            return;
        }
        for mut req in mine {
            req.arrived = now;
            self.nodes[(node - self.base) as usize]
                .sched
                .on_arrival(now, req);
        }
        self.kick_nic(now, node);
    }

    fn apply_action(&mut self, now: SimTime, node: u16, action: Action) {
        match action {
            Action::PushMigrate(actor) => {
                let refused = {
                    let n = &mut self.nodes[(node - self.base) as usize];
                    if n.active_migration.is_some() || now < n.mig_cooldown_until {
                        // Already migrating something; let the actor run again.
                        n.sched.set_location(actor, Loc::Nic);
                        true
                    } else if n.actors.get(&actor).map(|s| s.pinned_host).unwrap_or(true) {
                        n.sched.set_location(actor, Loc::Nic);
                        true
                    } else {
                        n.active_migration = Some(Migration::start(actor, MigrationDir::Push, now));
                        false
                    }
                };
                if refused {
                    // Requests buffered while the mark was pending go back
                    // to the dispatcher — dropping them here was exactly the
                    // silent-loss class the audit hunts.
                    self.reinject_pending_buffered(now, node, actor);
                    return;
                }
                self.claim_pending_buffered(node, actor);
                self.events
                    .schedule_after(Migration::phase1_duration(), Ev::MigStep { node });
            }
            Action::PullMigrate => {
                let n = &mut self.nodes[(node - self.base) as usize];
                if n.active_migration.is_some() || now < n.mig_cooldown_until {
                    return;
                }
                // Choose the lightest non-pinned host actor — and only pull
                // it if its estimated load actually fits the NIC's headroom
                // (ALG 1: "if there is sufficient CPU headroom"); otherwise
                // the pull would immediately re-trigger a push.
                let victim = n
                    .actors
                    .iter()
                    .filter(|(id, s)| !s.pinned_host && n.sched.location(**id) == Some(Loc::Host))
                    .min_by(|(a_id, _), (b_id, _)| {
                        let la = n.sched.actor(**a_id).map(|x| x.stats.load()).unwrap_or(0.0);
                        let lb = n.sched.actor(**b_id).map(|x| x.stats.load()).unwrap_or(0.0);
                        la.partial_cmp(&lb).unwrap_or(std::cmp::Ordering::Equal)
                    })
                    .map(|(&id, _)| id);
                let Some(victim) = victim else { return };
                let victim_load = n.sched.actor(victim).map(|a| a.stats.load()).unwrap_or(0.0);
                if victim_load > 0.3 * self.spec.cores as f64 {
                    return;
                }
                n.sched.set_location(victim, Loc::Migrating);
                n.active_migration = Some(Migration::start(victim, MigrationDir::Pull, now));
                self.claim_pending_buffered(node, victim);
                self.events
                    .schedule_after(Migration::phase1_duration(), Ev::MigStep { node });
            }
            Action::CoreRebalanced { .. } | Action::Regrouped { .. } => {}
        }
    }

    fn handle_mig_step(&mut self, now: SimTime, node: u16) {
        // A node inside a crash window cannot make migration progress (the
        // DMA engines and rings are gone with the card): abort, restore the
        // actor, and retry once the node restarts.
        if self.net.node_down(node, now) {
            self.abort_migration(now, node);
            return;
        }
        // Phase transitions; durations computed when the phase starts.
        enum Next {
            Schedule(SimTime),
            Finish,
        }
        let next = {
            let n = &mut self.nodes[(node - self.base) as usize];
            let Some(m) = n.active_migration.as_mut() else {
                return;
            };
            match m.phase {
                1 => {
                    m.complete_phase(Migration::phase1_duration());
                    // Phase 2: drain the actor's mailbox (requests already
                    // dispatched into it get executed before the move). The
                    // drain goes through the scheduler so the requests are
                    // credited to its `buffered` counter — a raw mailbox
                    // drain leaks them from the arrivals ledger.
                    let mean = n
                        .sched
                        .actor(m.actor)
                        .map(|a| a.stats.mean())
                        .unwrap_or(SimTime::ZERO);
                    let drained = n.sched.drain_mailbox_for_migration(m.actor);
                    let queued = drained.len();
                    m.buffered.splice(0..0, drained);
                    Next::Schedule(Migration::phase2_duration(queued, mean))
                }
                2 => {
                    let dur = {
                        let queued = 0usize;
                        let _ = queued;
                        Migration::phase2_duration(0, SimTime::ZERO)
                    };
                    let _ = dur;
                    m.complete_phase(SimTime::ZERO); // duration recorded below
                                                     // Phase 3: move the DMOs.
                    let actor = m.actor;
                    let objs = n.dmo.objects_of(actor);
                    let bytes: u64 = objs.iter().map(|(_, s)| *s).sum();
                    Next::Schedule(Migration::phase3_duration(objs.len(), bytes))
                }
                3 => {
                    let actor = m.actor;
                    let to = match m.dir {
                        MigrationDir::Push => Side::Host,
                        MigrationDir::Pull => Side::Nic,
                    };
                    let moved = n.dmo.migrate_actor(actor, to);
                    let objs = n.dmo.objects_of(actor).len();
                    m.complete_phase(Migration::phase3_duration(objs, moved));
                    // Phase 4: forward buffered requests.
                    Next::Schedule(Migration::phase4_duration(m.buffered.len()))
                }
                4 => Next::Finish,
                _ => Next::Finish,
            }
        };
        match next {
            Next::Schedule(dur) => {
                // Record phase-2 duration properly (it was completed with a
                // placeholder above when transitioning 2 -> 3).
                self.events.schedule_after(dur, Ev::MigStep { node });
                let n = &mut self.nodes[(node - self.base) as usize];
                if let Some(m) = n.active_migration.as_mut() {
                    if m.phase == 3 && m.phase_times[1] == SimTime::ZERO {
                        m.phase_times[1] = Migration::phase2_duration(0, SimTime::ZERO);
                    }
                }
            }
            Next::Finish => self.finish_migration(now, node),
        }
    }

    /// Tear down an in-progress migration: the actor resumes at its origin
    /// side, buffered requests re-enter the dispatcher, and a retry fires
    /// after the crash window ends.
    fn abort_migration(&mut self, now: SimTime, node: u16) {
        let (actor, buffered) = {
            let n = &mut self.nodes[(node - self.base) as usize];
            let Some(mut m) = n.active_migration.take() else {
                return;
            };
            let origin = match m.dir {
                MigrationDir::Push => Loc::Nic,
                MigrationDir::Pull => Loc::Host,
            };
            n.sched.set_location(m.actor, origin);
            (m.actor, std::mem::take(&mut m.buffered))
        };
        self.fault_metrics.mig_aborted.inc();
        self.obs.instant(
            "migrate",
            "aborted",
            node,
            MIGRATION_LANE,
            now,
            Some(("actor", actor as i64)),
        );
        for mut req in buffered {
            req.arrived = now;
            self.nodes[(node - self.base) as usize]
                .sched
                .on_arrival(now, req);
        }
        self.reinject_pending_buffered(now, node, actor);
        if let Some(up) = self.net.down_until(node, now) {
            self.events
                .schedule_at(up + SimTime::from_us(1), Ev::MigRetry { node, actor });
        }
        self.kick_nic(now, node);
    }

    fn finish_migration(&mut self, now: SimTime, node: u16) {
        let (actor, dir, buffered, mut mig) = {
            let n = &mut self.nodes[(node - self.base) as usize];
            let Some(mut m) = n.active_migration.take() else {
                return;
            };
            m.complete_phase(Migration::phase4_duration(m.buffered.len()));
            let buffered = std::mem::take(&mut m.buffered);
            (m.actor, m.dir, buffered, m)
        };
        let dest = match dir {
            MigrationDir::Push => Loc::Host,
            MigrationDir::Pull => Loc::Nic,
        };
        {
            let n = &mut self.nodes[(node - self.base) as usize];
            n.sched.set_location(actor, dest);
            let name = n
                .actors
                .get(&actor)
                .map(|s| s.name.clone())
                .unwrap_or_default();
            let bytes = n.dmo.actor_state_bytes(actor);
            mig.buffered = Vec::new();
            let mut report = mig.report(&name, bytes);
            report.requests_forwarded = buffered.len() as u64;
            report.record_to(self.obs.registry(), node);
            report.trace_to(&self.obs, node, MIGRATION_LANE, mig.started);
            n.migration_reports.push(report);
        }
        self.nodes[(node - self.base) as usize].mig_cooldown_until = now + SimTime::from_ms(1);
        // Forward buffered requests to wherever the actor now lives. Their
        // arrival stamps are rewritten so the migration pause does not
        // pollute the scheduler's sojourn statistics.
        for (i, mut req) in buffered.into_iter().enumerate() {
            req.arrived = now;
            let delay = crate::migrate::PHASE4_PER_REQUEST * i as u64;
            match dest {
                Loc::Host => {
                    let xfer = ring_to_host_latency(self.spec, req.wire_size);
                    let n = &mut self.nodes[(node - self.base) as usize];
                    // Every scheduled RingToHost must increment ring_depth:
                    // the handler decrements unconditionally, so a missed
                    // increment here drifted the occupancy gauge low (masked
                    // by its saturating decrement) — the audit's
                    // `ring.depth` ledger pins this.
                    n.ring_depth += 1;
                    n.ring_messages += 1;
                    n.metrics.ring_to_host.inc();
                    n.metrics.ring_to_host_bytes.add(req.wire_size as u64);
                    n.metrics.ring_xfer.record(xfer);
                    n.metrics.ring_depth.set(n.ring_depth as i64);
                    self.events
                        .schedule_after(delay + xfer, Ev::RingToHost { node, req });
                }
                _ => {
                    self.events
                        .schedule_after(delay, Ev::RingToNic { node, req });
                }
            }
        }
        self.reinject_pending_buffered(now, node, actor);
        self.kick_nic(now, node);
    }

    // ------------------------------------------------------------------
    // Host side
    // ------------------------------------------------------------------

    fn enqueue_host(&mut self, now: SimTime, node: u16, req: Request) {
        let n = &mut self.nodes[(node - self.base) as usize];
        let core = (req.flow % n.host_queues.len() as u64) as usize;
        n.host_queues[core].push_back(req);
        if n.host_inflight[core].is_none() {
            self.start_host_work(now, node, core as u32);
        }
    }

    fn start_host_work(&mut self, now: SimTime, node: u16, core: u32) {
        if self.nodes[(node - self.base) as usize].host_inflight[core as usize].is_some() {
            return;
        }
        let mut req = loop {
            let n = &mut self.nodes[(node - self.base) as usize];
            let mut queue_core = core as usize;
            if n.host_queues[queue_core].is_empty() {
                // Work stealing (ZygOS-style, §3.2.6): scan other queues.
                match (0..n.host_queues.len()).find(|&c| !n.host_queues[c].is_empty()) {
                    Some(c) => queue_core = c,
                    None => return,
                }
            }
            let req = n.host_queues[queue_core].pop_front().expect("checked");
            if n.actors.contains_key(&req.actor) {
                break req;
            }
            // The queued request's actor no longer exists (watchdog kill,
            // deregistration): drop it *with accounting* and keep scanning —
            // one dead entry must not stall the rest of the queue.
            n.metrics.drop_no_actor.inc();
        };
        let actor = req.actor;
        let arrived = req.arrived;
        let wire = req.wire_size;
        let n = &mut self.nodes[(node - self.base) as usize];
        let NodeRt {
            actors,
            dmo,
            rng,
            metrics,
            ..
        } = n;
        let Some(slot) = actors.get_mut(&actor) else {
            // Existence was just checked; unreachable, but keep the ledger
            // exact rather than losing the request silently.
            metrics.drop_no_actor.inc();
            return;
        };
        let mut ctx = ActorCtx::new(now, actor, node, dmo, rng);
        let payload_taken = req.payload.take();
        req.payload = payload_taken;
        slot.logic.exec(&mut ctx, req);
        let (charged, emits) = ctx.finish();
        let traffic_stats = dmo.take_traffic();
        slot.execs += 1;

        let in_cost = match self.mode {
            RuntimeMode::HostDpdk => self.host.dpdk_recv(wire),
            RuntimeMode::HostIPipe => {
                // Same epoll/DPDK communication thread as the baseline, plus
                // the framework's message handling, DMO translation and
                // bookkeeping (the Fig 17 overhead sources).
                self.host.dpdk_recv(wire)
                    + MSG_HANDLE_COST
                    + BOOKKEEP_COST
                    + dmo_translate_cost(traffic_stats.lookups)
            }
            RuntimeMode::IPipe => {
                ring_pop_cost(wire) + BOOKKEEP_COST + dmo_translate_cost(traffic_stats.lookups)
            }
        };
        let handler = SimTime::from_ns(
            ((charged + host_mem_time(self.host, traffic_stats)).as_ns() as f64 / slot.host_speedup)
                as u64,
        );
        let out_cost: SimTime = emits
            .iter()
            .map(|e| match self.mode {
                RuntimeMode::HostDpdk => self.host.dpdk_send(emit_size(e)),
                RuntimeMode::HostIPipe => self.host.dpdk_send(emit_size(e)) + SimTime::from_ns(60),
                RuntimeMode::IPipe => RING_PUSH_COST,
            })
            .sum();
        let busy = in_cost + handler + out_cost;
        n.host_acct.charge(busy);
        n.metrics.host_exec.inc();
        n.host_inflight[core as usize] = Some(InFlight {
            actor,
            arrived,
            busy,
            emits,
            forward_only: false,
        });
        self.events
            .schedule_at(now + busy, Ev::HostFree { node, core });
        self.obs.span(
            "host",
            "exec",
            node,
            HOST_LANE_OFFSET + core,
            now,
            now + busy,
            Some(("actor", actor as i64)),
        );
    }

    fn handle_host_free(&mut self, now: SimTime, node: u16, core: u32) {
        let inflight = self.nodes[(node - self.base) as usize].host_inflight[core as usize]
            .take()
            .expect("host core was busy");
        // Host completions also update the shared actor statistics so the
        // NIC's pull decisions see host-side behaviour.
        {
            let n = &mut self.nodes[(node - self.base) as usize];
            if let Some(a) = n.sched.actor_mut(inflight.actor) {
                a.stats.on_complete(now.saturating_sub(inflight.arrived));
            }
        }
        let via_nic = self.mode == RuntimeMode::IPipe;
        self.route_emits(now, node, inflight.emits, !via_nic);
        if self.nodes[(node - self.base) as usize].host_inflight[core as usize].is_none() {
            self.start_host_work(now, node, core);
        }
    }

    // ------------------------------------------------------------------
    // Message routing
    // ------------------------------------------------------------------

    fn route_emits(&mut self, now: SimTime, node: u16, emits: Vec<Emit>, from_nic: bool) {
        for e in emits {
            match e {
                Emit::ToActor {
                    dst,
                    flow,
                    wire_size,
                    payload,
                    token,
                    after,
                } => {
                    if after > SimTime::ZERO {
                        // Timer message: park it until the delay expires,
                        // then re-enter routing (port occupancy and faults
                        // are evaluated at fire time, not arm time).
                        self.events.schedule_after(
                            after,
                            Ev::DelayedEmit {
                                node,
                                emit: Emit::ToActor {
                                    dst,
                                    flow,
                                    wire_size,
                                    payload,
                                    token,
                                    after: SimTime::ZERO,
                                },
                                from_nic,
                            },
                        );
                        continue;
                    }
                    let req = Request {
                        actor: dst.actor,
                        flow,
                        wire_size,
                        arrived: now,
                        reply_to: None,
                        token,
                        payload,
                    };
                    if dst.node == node {
                        // Local delivery: NIC-side actors go through the
                        // traffic manager; host-side through the ring.
                        let loc = self.nodes[(node - self.base) as usize]
                            .sched
                            .location(dst.actor);
                        match loc {
                            Some(Loc::Host) => {
                                let xfer = ring_to_host_latency(self.spec, wire_size);
                                let n = &mut self.nodes[(node - self.base) as usize];
                                // Pair the handler's unconditional decrement
                                // (see the finish_migration forward path).
                                n.ring_depth += 1;
                                n.ring_messages += 1;
                                n.metrics.ring_to_host.inc();
                                n.metrics.ring_to_host_bytes.add(wire_size as u64);
                                n.metrics.ring_xfer.record(xfer);
                                n.metrics.ring_depth.set(n.ring_depth as i64);
                                self.events
                                    .schedule_at(now + xfer, Ev::RingToHost { node, req });
                            }
                            _ => {
                                if from_nic {
                                    self.nodes[(node - self.base) as usize]
                                        .sched
                                        .on_arrival(now, req);
                                    self.kick_nic(now, node);
                                } else {
                                    let xfer = ring_to_nic_latency(self.spec, wire_size);
                                    self.events
                                        .schedule_at(now + xfer, Ev::RingToNic { node, req });
                                }
                            }
                        }
                    } else {
                        let depart = if from_nic {
                            now
                        } else {
                            now + host_egress_delay(self.mode, self.spec, wire_size)
                        };
                        let pkt = Packet::new(
                            NodeId(node),
                            NodeId(dst.node),
                            flow,
                            wire_size,
                            PacketKind::Internal,
                        )
                        .stamped(depart);
                        self.send_frame(depart, &pkt, Some(req));
                    }
                }
                Emit::ToClient {
                    dst,
                    wire_size,
                    token,
                    payload,
                } => {
                    #[cfg(feature = "rt-trace")]
                    eprintln!("[emit] t={now} token={token} to client node {}", dst.node);
                    let depart = if from_nic {
                        now
                    } else {
                        now + host_egress_delay(self.mode, self.spec, wire_size)
                    };
                    let pkt = Packet::new(
                        NodeId(node),
                        NodeId(dst.node),
                        token,
                        wire_size,
                        PacketKind::Response,
                    )
                    .stamped(depart);
                    let req = Request {
                        actor: dst.actor,
                        flow: token,
                        wire_size,
                        arrived: depart,
                        reply_to: None,
                        token,
                        payload,
                    };
                    self.send_frame(depart, &pkt, Some(req));
                }
            }
        }
    }
}

// ----------------------------------------------------------------------
// Cost-model helpers
// ----------------------------------------------------------------------

/// Host-side ring pop cost: poll + copy + checksum verify. The polling
/// thread pays DPDK-like per-message cycles even on the ring path (Fig 17's
/// methodology pins the same communication thread for both systems).
fn ring_pop_cost(size: u32) -> SimTime {
    SimTime::from_ns(900 + (size as u64) / 8)
}

/// Host-side ring push cost (the NIC's PKO does the wire work).
const RING_PUSH_COST: SimTime = SimTime::from_ns(320);

/// Per-request scheduler/bookkeeping overhead on the host runtime thread.
const BOOKKEEP_COST: SimTime = SimTime::from_ns(140);

/// Framework message-handling overhead stacked on the shared communication
/// thread in the Fig 17 host-only comparison.
const MSG_HANDLE_COST: SimTime = SimTime::from_ns(150);

/// DMO object-table translation overhead (Fig 17: one of the framework's
/// three overhead sources).
fn dmo_translate_cost(lookups: u64) -> SimTime {
    SimTime::from_ns(18 * lookups)
}

/// NIC→host ring crossing latency: batched non-blocking DMA write of the
/// descriptor + payload, plus the host poll gap. Cards whose host path is
/// RDMA verbs (BlueField, Stingray — Table 1) pay the verbs overhead of
/// Fig 9 instead of the native DMA cost.
fn ring_to_host_latency(spec: &NicSpec, size: u32) -> SimTime {
    let poll = SimTime::from_ns(900);
    match spec.host_path {
        ipipe_nicsim::spec::HostPath::NativeDma => {
            DmaEngine::new(spec).nonblocking_completion(DmaOp::Write, size + 16) + poll
        }
        ipipe_nicsim::spec::HostPath::Rdma => {
            ipipe_nicsim::dma::RdmaModel::new(spec).write_latency(size + 16) + poll
        }
    }
}

/// Host→NIC ring crossing latency (same path split as
/// [`ring_to_host_latency`]).
fn ring_to_nic_latency(spec: &NicSpec, size: u32) -> SimTime {
    let poll = SimTime::from_ns(900);
    match spec.host_path {
        ipipe_nicsim::spec::HostPath::NativeDma => {
            DmaEngine::new(spec).nonblocking_completion(DmaOp::Read, size + 16) + poll
        }
        ipipe_nicsim::spec::HostPath::Rdma => {
            ipipe_nicsim::dma::RdmaModel::new(spec).read_latency(size + 16) + poll
        }
    }
}

/// Delay before a host-emitted packet reaches the wire: in iPipe modes the
/// packet crosses the ring and the NIC's hardware path sends it.
fn host_egress_delay(mode: RuntimeMode, spec: &NicSpec, size: u32) -> SimTime {
    match mode {
        RuntimeMode::HostDpdk | RuntimeMode::HostIPipe => SimTime::from_ns(300),
        RuntimeMode::IPipe => ring_to_nic_latency(spec, size),
    }
}

/// NIC-side memory time for an execution's DMO traffic: table lookups hit
/// the L2-resident object table; data touches hit L2 or DRAM depending on
/// whether the actor's working set fits (implication I5).
fn nic_mem_time(spec: &NicSpec, state_hot: bool, t: crate::dmo::DmoTraffic) -> SimTime {
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
fn host_mem_time(host: &HostSpec, t: crate::dmo::DmoTraffic) -> SimTime {
    let line = host.cache.line as u64;
    let lines = t.bytes.div_ceil(line);
    let l3 = host.mem.l3.unwrap_or(host.mem.dram);
    l3 * t.lookups + l3 * lines
}

/// Wire size of an emitted message.
fn emit_size(e: &Emit) -> u32 {
    match e {
        Emit::ToActor { wire_size, .. } | Emit::ToClient { wire_size, .. } => *wire_size,
    }
}

/// NIC core cost to emit a message: remote/client messages use the shim
/// stack's scatter-gather send; local NIC deliveries re-enter the traffic
/// manager; host deliveries are ring pushes.
fn nic_emit_cost(spec: &NicSpec, e: &Emit) -> SimTime {
    match e {
        Emit::ToActor { .. } => crate::nstack::send_cost(spec, emit_size(e), true),
        Emit::ToClient { .. } => crate::nstack::send_cost(spec, emit_size(e), true),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::admission::ClassCfg;
    use ipipe_nicsim::CN2350;

    struct Echo {
        cost: SimTime,
    }
    impl ActorLogic for Echo {
        fn exec(&mut self, ctx: &mut ActorCtx<'_>, req: Request) {
            ctx.charge(self.cost);
            ctx.reply(req, 64, None);
        }
    }

    fn echo_cluster(cost_us: u64) -> (Cluster, Address) {
        let mut c = Cluster::builder(CN2350)
            .servers(1)
            .clients(1)
            .seed(7)
            .build();
        let a = c.register_actor(
            0,
            "echo",
            Box::new(Echo {
                cost: SimTime::from_us(cost_us),
            }),
            Placement::Nic,
        );
        (c, a)
    }

    #[test]
    fn closed_loop_echo_completes_requests() {
        let (mut c, a) = echo_cluster(2);
        c.run_closed_loop(a, 8, 512, SimTime::from_ms(5));
        let done = c.completions().count();
        assert!(done > 1_000, "done={done}");
        // Latency must exceed network base RTT + service.
        assert!(c.completions().mean() > SimTime::from_us(2));
        assert!(c.completions().p99() >= c.completions().p50());
        assert_eq!(c.actor_location(a), Some(Loc::Nic));
    }

    /// Pinned regression (found by `Cluster::audit`): replacing a client
    /// generator mid-run used to reset the in-flight ledger and the token
    /// allocator, leaking every request still on the wire — `issued` ran
    /// ahead of `completed + abandoned + in-flight` by exactly the old
    /// depth. The replacement must carry the ledger over and let the old
    /// requests drain through the normal completion path.
    #[test]
    fn mid_run_generator_swap_conserves_inflight_requests() {
        let (mut c, a) = echo_cluster(2);
        let gen = move || -> ClientGenFn {
            Box::new(move |rng, _| ClientReq {
                dst: a,
                wire_size: 512,
                flow: rng.below(1 << 20),
                payload: None,
            })
        };
        c.set_client(0, gen(), 96);
        c.run_for(SimTime::from_ms(5));
        // Swap to a shallower loop while 96 requests are still in flight.
        c.set_client(0, gen(), 2);
        let at_swap = c.completions().count();
        c.run_for(SimTime::from_ms(5));
        assert!(
            c.completions().count() > at_swap,
            "loop must keep flowing after the swap"
        );
        c.audit().assert_clean();
        // And the deepening direction: 2 -> 64 tops the loop back up.
        c.set_client(0, gen(), 64);
        c.run_for(SimTime::from_ms(5));
        c.audit().assert_clean();
    }

    #[test]
    fn throughput_respects_core_limits() {
        // A 50us handler on a 12-core NIC cannot exceed 12/50us = 240k rps.
        let cfg = SchedConfig::for_nic(&CN2350)
            .with_discipline(crate::sched::Discipline::FcfsOnly)
            .no_migration();
        let mut c = Cluster::builder(CN2350)
            .servers(1)
            .clients(1)
            .sched(cfg)
            .seed(7)
            .build();
        let a = c.register_actor(
            0,
            "echo",
            Box::new(Echo {
                cost: SimTime::from_us(50),
            }),
            Placement::Nic,
        );
        c.set_client(
            0,
            Box::new(move |rng, _| ClientReq {
                dst: a,
                wire_size: 256,
                flow: rng.below(1 << 20),
                payload: None,
            }),
            64,
        );
        c.run_for(SimTime::from_ms(2));
        c.reset_measurements();
        c.run_for(SimTime::from_ms(10));
        let rps = c.throughput_rps();
        assert!(rps < 245_000.0, "rps={rps}");
        assert!(rps > 150_000.0, "rps={rps}");
    }

    #[test]
    fn host_only_dpdk_uses_host_cores() {
        let mut c = Cluster::builder(CN2350)
            .servers(1)
            .clients(1)
            .mode(RuntimeMode::HostDpdk)
            .seed(9)
            .build();
        let a = c.register_actor(
            0,
            "echo",
            Box::new(Echo {
                cost: SimTime::from_us(10),
            }),
            Placement::Host,
        );
        c.run_closed_loop(a, 16, 512, SimTime::from_ms(5));
        assert!(c.completions().count() > 500);
        let cores = c.host_cores_used(0);
        assert!(cores > 0.1, "cores={cores}");
        // NIC did nothing.
        assert!(c.nic_cores_used(0) < 0.01);
    }

    struct PinnedEcho {
        cost: SimTime,
    }
    impl ActorLogic for PinnedEcho {
        fn exec(&mut self, ctx: &mut ActorCtx<'_>, req: Request) {
            ctx.charge(self.cost);
            ctx.reply(req, 64, None);
        }
        fn host_pinned(&self) -> bool {
            true
        }
    }

    #[test]
    fn host_ipipe_mode_routes_through_rings() {
        let mut c = Cluster::builder(CN2350)
            .servers(1)
            .clients(1)
            .mode(RuntimeMode::IPipe)
            .seed(9)
            .build();
        let a = c.register_actor(
            0,
            "echo",
            Box::new(PinnedEcho {
                cost: SimTime::from_us(10),
            }),
            Placement::Host,
        );
        c.run_closed_loop(a, 16, 512, SimTime::from_ms(5));
        assert!(c.completions().count() > 500);
        assert!(c.ring_messages(0) > 500, "requests must cross the ring");
        // The NIC burns cycles forwarding.
        assert!(c.nic_cores_used(0) > 0.01);
    }

    #[test]
    fn fig17_shape_ipipe_host_only_costs_more_cpu_than_dpdk() {
        let run = |mode| {
            let mut c = Cluster::builder(CN2350)
                .servers(1)
                .clients(1)
                .mode(mode)
                .seed(11)
                .build();
            let a = c.register_actor(
                0,
                "kv",
                Box::new(Echo {
                    cost: SimTime::from_us(4),
                }),
                Placement::Host,
            );
            c.run_closed_loop(a, 8, 512, SimTime::from_ms(4));
            let done = c.completions().count();
            let cores = c.host_cores_used(0);
            (done, cores)
        };
        let (done_dpdk, cores_dpdk) = run(RuntimeMode::HostDpdk);
        let (done_ipipe, cores_ipipe) = run(RuntimeMode::HostIPipe);
        // Normalize CPU by throughput: iPipe's runtime should cost ~5-25%
        // more per request (paper: 12.3%/10.8%).
        let per_req_dpdk = cores_dpdk / done_dpdk as f64;
        let per_req_ipipe = cores_ipipe / done_ipipe as f64;
        let overhead = per_req_ipipe / per_req_dpdk - 1.0;
        assert!(overhead > 0.0, "iPipe must cost more: {overhead}");
        assert!(overhead < 0.6, "but not absurdly more: {overhead}");
    }

    struct StatefulEcho {
        cost: SimTime,
    }
    impl ActorLogic for StatefulEcho {
        fn init(&mut self, ctx: &mut ActorCtx<'_>) {
            // 4MB of private state so phase 3 has something to move.
            // A DMO region exhausted by overload must degrade the actor
            // (smaller private state), not panic the runtime: halve the
            // request until it fits, down to a 4KB floor, and run stateless
            // below that.
            let mut want: u64 = 4 << 20;
            while want >= 4096 {
                if ctx.dmo().malloc(want).is_ok() {
                    return;
                }
                want /= 2;
            }
        }
        fn exec(&mut self, ctx: &mut ActorCtx<'_>, req: Request) {
            ctx.charge(self.cost);
            ctx.reply(req, 64, None);
        }
        fn state_hint_bytes(&self) -> u64 {
            4 << 20
        }
    }

    #[test]
    fn forced_migration_moves_actor_and_reports_phases() {
        // Autonomous migration off so the forced push is the only move
        // (otherwise the idle pull path would bring the actor right back).
        let cfg = SchedConfig::for_nic(&CN2350).no_migration();
        let mut c = Cluster::builder(CN2350)
            .servers(1)
            .clients(1)
            .sched(cfg)
            .seed(7)
            .build();
        let a = c.register_actor(
            0,
            "stateful-echo",
            Box::new(StatefulEcho {
                cost: SimTime::from_us(3),
            }),
            Placement::Nic,
        );
        c.run_closed_loop(a, 8, 512, SimTime::from_ms(2));
        assert!(c.force_migrate(a));
        c.run_for(SimTime::from_ms(15));
        assert_eq!(c.actor_location(a), Some(Loc::Host));
        let reports = c.migration_reports(0);
        assert!(!reports.is_empty());
        let r = &reports[0];
        assert_eq!(r.actor, a.actor);
        assert!(r.total() > SimTime::ZERO);
        assert!(r.phase_times[2] > SimTime::ZERO, "phase 3 must take time");
        // Requests keep completing after migration (now served by the host).
        let before = c.completions().count();
        c.run_for(SimTime::from_ms(5));
        assert!(c.completions().count() > before);
    }

    struct Malicious;
    impl ActorLogic for Malicious {
        fn exec(&mut self, ctx: &mut ActorCtx<'_>, _req: Request) {
            // Infinite loop: occupies the core far past the watchdog budget.
            ctx.charge(SimTime::from_secs(10));
        }
    }

    #[test]
    fn watchdog_kills_runaway_actor_and_others_survive() {
        let mut c = Cluster::builder(CN2350)
            .servers(1)
            .clients(1)
            .seed(5)
            .build();
        let good = c.register_actor(
            0,
            "good",
            Box::new(Echo {
                cost: SimTime::from_us(2),
            }),
            Placement::Nic,
        );
        let bad = c.register_actor(0, "bad", Box::new(Malicious), Placement::Nic);
        // One poisoned request, then steady good traffic.
        c.set_client(
            0,
            Box::new(move |rng, token| ClientReq {
                dst: if token == 0 { bad } else { good },
                wire_size: 256,
                flow: rng.below(1 << 20),
                payload: None,
            }),
            4,
        );
        c.run_for(SimTime::from_ms(20));
        assert_eq!(c.watchdog_kills(), &[(0, bad.actor)]);
        assert!(
            c.completions().count() > 100,
            "good actor must keep serving"
        );
        assert_eq!(c.actor_location(bad), None, "bad actor deregistered");
    }

    #[test]
    fn multi_node_actor_messaging() {
        struct Relay {
            next: Address,
        }
        impl ActorLogic for Relay {
            fn exec(&mut self, ctx: &mut ActorCtx<'_>, mut req: Request) {
                ctx.charge(SimTime::from_us(1));
                let client = req.reply_to.take();
                ctx.send(
                    self.next,
                    req.flow,
                    req.wire_size,
                    req.token,
                    Some(Box::new(client)),
                );
            }
        }
        struct Sink;
        impl ActorLogic for Sink {
            fn exec(&mut self, ctx: &mut ActorCtx<'_>, mut req: Request) {
                ctx.charge(SimTime::from_us(1));
                let client = *req.payload_as::<Option<Address>>();
                if let Some(dst) = client {
                    ctx.reply_to(dst, 64, req.token, None);
                }
            }
        }
        let mut c = Cluster::builder(CN2350)
            .servers(2)
            .clients(1)
            .seed(3)
            .build();
        let sink = c.register_actor(1, "sink", Box::new(Sink), Placement::Nic);
        let relay = c.register_actor(0, "relay", Box::new(Relay { next: sink }), Placement::Nic);
        c.run_closed_loop(relay, 8, 512, SimTime::from_ms(5));
        let done = c.completions().count();
        assert!(done > 500, "relayed completions: {done}");
    }

    #[test]
    fn determinism_same_seed_same_result() {
        let run = || {
            let (mut c, a) = echo_cluster(2);
            c.run_closed_loop(a, 8, 512, SimTime::from_ms(3));
            (c.completions().count(), c.completions().mean())
        };
        assert_eq!(run(), run());
    }

    fn echo_client(c: &mut Cluster, a: Address, outstanding: u32) {
        c.set_client(
            0,
            Box::new(move |rng, _| ClientReq {
                dst: a,
                wire_size: 512,
                flow: rng.below(1 << 30),
                payload: None,
            }),
            outstanding,
        );
    }

    #[test]
    fn lossy_link_wedges_a_retryless_closed_loop() {
        // Without retransmission every lost request permanently occupies a
        // closed-loop slot: 8 slots, 100% loss, zero completions — the
        // pre-fault behaviour the retry layer exists to fix.
        let (mut c, a) = echo_cluster(2);
        c.set_fault_plan(FaultPlan::new(3).with_loss(1.0));
        echo_client(&mut c, a, 8);
        c.run_for(SimTime::from_ms(5));
        assert_eq!(c.completions().count(), 0);
        assert_eq!(c.completions().issued(), 8);
    }

    #[test]
    fn retransmission_recovers_lost_requests() {
        let (mut c, a) = echo_cluster(2);
        c.set_fault_plan(FaultPlan::new(3).with_loss(0.1));
        echo_client(&mut c, a, 8);
        c.set_client_retry(0, RetryPolicy::lan_default(), None);
        c.run_for(SimTime::from_ms(20));
        let done = c.completions().count();
        assert!(done > 1_000, "done={done}");
        let retries = c.obs().registry().counter("client.retry.sent").get();
        assert!(retries > 0, "10% loss must trigger retransmissions");
        // The loop never wedges: every issued request completes or is
        // still within its retry budget.
        assert!(c.completions().issued() - done < 8 + 1);
    }

    #[test]
    fn retry_gives_up_after_max_tries_and_frees_the_slot() {
        let (mut c, a) = echo_cluster(2);
        c.set_fault_plan(FaultPlan::new(5).with_loss(1.0));
        echo_client(&mut c, a, 2);
        c.set_client_retry(
            0,
            RetryPolicy {
                timeout: SimTime::from_us(100),
                cap: SimTime::from_us(400),
                max_tries: 3,
            },
            None,
        );
        c.run_for(SimTime::from_ms(10));
        assert_eq!(c.completions().count(), 0);
        let abandoned = c.obs().registry().counter("client.retry.abandoned").get();
        assert!(abandoned > 2, "abandoned={abandoned}");
        // Abandonment re-issues: far more than the initial 2 slots went out.
        assert!(c.completions().issued() > 10);
    }

    #[test]
    fn corrupted_frames_are_rejected_by_the_shim_stack() {
        let (mut c, a) = echo_cluster(2);
        c.set_fault_plan(FaultPlan::new(7).with_corruption(1.0));
        echo_client(&mut c, a, 4);
        c.run_for(SimTime::from_ms(2));
        assert_eq!(c.completions().count(), 0, "every frame was damaged");
        let rejected = c.obs().registry().counter("fault.rx.rejected").get();
        assert_eq!(rejected, 4, "each issued frame rejected exactly once");
    }

    #[test]
    fn node_crash_heals_after_restart_with_retry() {
        let (mut c, a) = echo_cluster(2);
        // Server (node 0) is dark for [1ms, 3ms).
        c.set_fault_plan(FaultPlan::new(11).with_crash(
            0,
            SimTime::from_ms(1),
            SimTime::from_ms(3),
        ));
        echo_client(&mut c, a, 8);
        c.set_client_retry(0, RetryPolicy::lan_default(), None);
        c.run_for(SimTime::from_ms(1));
        let before_crash = c.completions().count();
        assert!(before_crash > 100);
        c.run_for(SimTime::from_ms(2));
        c.reset_measurements();
        c.run_for(SimTime::from_ms(3));
        let after_restart = c.completions().count();
        assert!(after_restart > 100, "traffic resumes: {after_restart}");
    }

    #[test]
    fn migration_aborts_on_crash_and_retries_after_restart() {
        let cfg = SchedConfig::for_nic(&CN2350).no_migration();
        let mut c = Cluster::builder(CN2350)
            .servers(1)
            .clients(1)
            .sched(cfg)
            .seed(13)
            .build();
        let a = c.register_actor(
            0,
            "stateful-echo",
            Box::new(StatefulEcho {
                cost: SimTime::from_us(3),
            }),
            Placement::Nic,
        );
        c.run_closed_loop(a, 4, 512, SimTime::from_ms(2));
        // Crash the node right as migration starts; window covers phase 1.
        c.set_fault_plan(FaultPlan::new(17).with_crash(
            0,
            SimTime::from_ms(2),
            SimTime::from_ms(8),
        ));
        assert!(c.force_migrate(a));
        c.run_for(SimTime::from_ms(20));
        let aborted = c.obs().registry().counter("migrate.aborted").get();
        assert_eq!(aborted, 1, "first attempt aborted");
        // The retry after restart completed the move.
        assert_eq!(c.actor_location(a), Some(Loc::Host));
        assert_eq!(c.migration_reports(0).len(), 1);
    }

    struct Ticker {
        ticks: std::rc::Rc<std::cell::Cell<u32>>,
        period: SimTime,
    }
    impl ActorLogic for Ticker {
        fn init(&mut self, ctx: &mut ActorCtx<'_>) {
            let me = Address {
                node: ctx.node(),
                actor: ctx.actor_id(),
            };
            ctx.send_after(self.period, me, 0, 64, 0, None);
        }
        fn exec(&mut self, ctx: &mut ActorCtx<'_>, _req: Request) {
            self.ticks.set(self.ticks.get() + 1);
            let me = Address {
                node: ctx.node(),
                actor: ctx.actor_id(),
            };
            ctx.send_after(self.period, me, 0, 64, 0, None);
        }
    }

    #[test]
    fn send_after_drives_a_periodic_tick_from_init() {
        let ticks = std::rc::Rc::new(std::cell::Cell::new(0u32));
        let mut c = Cluster::builder(CN2350)
            .servers(1)
            .clients(1)
            .seed(1)
            .build();
        c.register_actor(
            0,
            "ticker",
            Box::new(Ticker {
                ticks: ticks.clone(),
                period: SimTime::from_us(100),
            }),
            Placement::Nic,
        );
        c.run_for(SimTime::from_us(1050));
        let n = ticks.get();
        assert!((9..=11).contains(&n), "ticks={n}");
    }

    struct Bouncer {
        to: Address,
    }
    impl ActorLogic for Bouncer {
        fn exec(&mut self, ctx: &mut ActorCtx<'_>, req: Request) {
            ctx.charge(SimTime::from_us(1));
            let to = self.to;
            ctx.reply(req, 64, Some(Box::new(Redirect(to))));
        }
    }

    #[test]
    fn redirect_reply_bounces_the_request_to_the_new_address() {
        let mut c = Cluster::builder(CN2350)
            .servers(2)
            .clients(1)
            .seed(21)
            .build();
        let echo = c.register_actor(
            1,
            "echo",
            Box::new(Echo {
                cost: SimTime::from_us(2),
            }),
            Placement::Nic,
        );
        let bouncer =
            c.register_actor(0, "bouncer", Box::new(Bouncer { to: echo }), Placement::Nic);
        echo_client(&mut c, bouncer, 4);
        c.set_client_retry(0, RetryPolicy::lan_default(), None);
        c.run_for(SimTime::from_ms(5));
        let done = c.completions().count();
        assert!(done > 500, "done={done}");
        let redirects = c.obs().registry().counter("client.redirects").get();
        assert_eq!(
            redirects,
            c.completions().issued(),
            "every request bounced once"
        );
    }

    #[test]
    fn open_loop_generator_paces_arrivals_independent_of_completions() {
        // Open-loop pacing: arrivals are a seeded Poisson process that
        // ignores completions entirely (outstanding is 0 — a closed loop
        // would never issue), stops at `until`, and drains its tail through
        // the normal completion path so conservation closes at quiesce.
        let run = |seed: u64| {
            let mut c = Cluster::builder(CN2350)
                .servers(1)
                .clients(1)
                .seed(seed)
                .build();
            let a = c.register_actor(
                0,
                "echo",
                Box::new(Echo {
                    cost: SimTime::from_us(2),
                }),
                Placement::Nic,
            );
            c.set_client_open_loop(
                0,
                Box::new(move |rng, _| ClientReq {
                    dst: a,
                    wire_size: 256,
                    flow: rng.below(1 << 20),
                    payload: None,
                }),
                OpenLoopCfg {
                    rate_rps: 100_000.0,
                    until: SimTime::from_ms(10),
                },
            );
            c.run_for(SimTime::from_ms(12));
            c.audit().assert_clean();
            (c.completions().issued(), c.completions().count())
        };
        let (issued, done) = run(11);
        // ~1000 expected arrivals in 10ms at 100k rps; allow wide Poisson
        // noise but reject a closed-loop-shaped count.
        assert!((800..1200).contains(&issued), "issued={issued}");
        // Arrivals stopped at `until`, so the whole stream drained.
        assert_eq!(issued, done);
        // Same seed, same stream; a different seed draws different gaps.
        assert_eq!(run(11), (issued, done));
        assert_ne!(run(12).0, issued);
    }

    /// The departed address answers its first request with a `Redirect`
    /// toward the new home and swallows everything else — a leader whose
    /// range just moved.
    struct MovedOut {
        to: Address,
        redirected: bool,
    }
    impl ActorLogic for MovedOut {
        fn exec(&mut self, ctx: &mut ActorCtx<'_>, req: Request) {
            ctx.charge(SimTime::from_us(1));
            if !self.redirected {
                self.redirected = true;
                let to = self.to;
                ctx.reply(req, 64, Some(Box::new(Redirect(to))));
            }
        }
    }

    #[test]
    fn redirect_refreshes_every_queued_request_for_the_moved_address() {
        // Regression: a Redirect used to steer only the one request it
        // answered. Every other queued request aimed at the departed
        // address kept retrying it until its budget ran out — a retry storm
        // after each rebalance. One Redirect must retarget every queued
        // retry slot still aimed at the old address and let the
        // application's routing table refresh for future issues.
        use std::cell::RefCell;
        use std::rc::Rc;
        let mut c = Cluster::builder(CN2350)
            .servers(2)
            .clients(1)
            .seed(33)
            .build();
        let new_home = c.register_actor(
            1,
            "echo",
            Box::new(Echo {
                cost: SimTime::from_us(2),
            }),
            Placement::Nic,
        );
        let old_home = c.register_actor(
            0,
            "moved-out",
            Box::new(MovedOut {
                to: new_home,
                redirected: false,
            }),
            Placement::Nic,
        );
        let route = Rc::new(RefCell::new(old_home));
        let gen_route = route.clone();
        c.set_client(
            0,
            Box::new(move |rng, _| ClientReq {
                dst: *gen_route.borrow(),
                wire_size: 256,
                flow: rng.below(1 << 20),
                payload: None,
            }),
            8,
        );
        // Tight budget: without the refresh, the seven swallowed requests
        // burn all six tries against the old address and are abandoned.
        c.set_client_retry(
            0,
            RetryPolicy {
                timeout: SimTime::from_us(100),
                cap: SimTime::from_ms(1),
                max_tries: 6,
            },
            None,
        );
        let cb_route = route.clone();
        c.set_client_route_refresh(
            0,
            Box::new(move |old, new| {
                let mut r = cb_route.borrow_mut();
                if *r == old {
                    *r = new;
                }
            }),
        );
        c.run_for(SimTime::from_ms(20));
        c.audit().assert_clean();
        let r = c.obs().registry();
        assert_eq!(
            r.counter("client.retry.abandoned").get(),
            0,
            "no request may die retrying the departed address"
        );
        assert_eq!(
            r.counter("client.redirects").get(),
            1,
            "only the first request bounces"
        );
        assert_eq!(
            r.counter("client.route.refreshed").get(),
            7,
            "the other seven queued slots are retargeted in place"
        );
        assert!(c.completions().count() > 1_000);
    }

    #[test]
    fn audit_stays_clean_across_forced_migration() {
        // Regression: requests buffered during a push migration used to be
        // forwarded to the host at phase 4 without incrementing
        // `ring_depth` (the handler then decremented it with a saturating
        // sub, silently masking the drift), and the phase-1 mailbox drain
        // bypassed the scheduler's buffered counter. Both leaks are caught
        // by `ring.depth` / `sched.arrivals` when auditing around a live
        // migration.
        let cfg = SchedConfig::for_nic(&CN2350).no_migration();
        let mut c = Cluster::builder(CN2350)
            .servers(1)
            .clients(1)
            .sched(cfg)
            .seed(7)
            .build();
        let a = c.register_actor(
            0,
            "stateful-echo",
            Box::new(StatefulEcho {
                cost: SimTime::from_us(3),
            }),
            Placement::Nic,
        );
        echo_client(&mut c, a, 16);
        c.run_for(SimTime::from_ms(1));
        c.audit().assert_clean();
        assert!(c.force_migrate(a));
        // Mid-migration: phase legality, step tokens, and the buffered
        // ledger are all live here.
        c.run_for(SimTime::from_us(40));
        c.audit().assert_clean();
        c.run_for(SimTime::from_ms(30));
        assert_eq!(c.actor_location(a), Some(Loc::Host));
        assert!(c.completions().count() > 0);
        c.audit().assert_clean();
    }

    #[test]
    fn audit_stays_clean_after_watchdog_kill_with_queued_work() {
        // Regression: a watchdog kill with work still queued used to leak
        // from three ledgers at once — `deregister` discarded shared-queue
        // requests without counting them, and the NIC/host dispatch paths
        // silently dropped already-popped requests whose actor had died.
        let mut c = Cluster::builder(CN2350)
            .servers(1)
            .clients(1)
            .seed(5)
            .build();
        let bad = c.register_actor(0, "bad", Box::new(Malicious), Placement::Nic);
        echo_client(&mut c, bad, 8);
        c.run_for(SimTime::from_ms(20));
        assert_eq!(c.watchdog_kills(), &[(0, bad.actor)]);
        c.audit().assert_clean();
        // The kill left queued requests behind; they must appear in a drop
        // counter rather than vanish.
        let r = c.obs().registry();
        let dropped =
            r.counter_on("sched.dropped", 0).get() + r.counter_on("rt.drop.no_actor", 0).get();
        assert!(dropped > 0, "killed actor's queued work must be counted");
    }

    #[test]
    fn audit_detects_injected_client_leak() {
        // The leak hook bypasses every ledger on purpose: the audit must
        // notice, or it could not be trusted to catch a real leak.
        let (mut c, a) = echo_cluster(2);
        echo_client(&mut c, a, 8);
        c.run_for(SimTime::from_us(30));
        assert!(c.debug_drop_inflight(0), "a request must be in flight");
        let report = c.audit();
        assert!(
            report
                .violations()
                .iter()
                .any(|v| v.invariant == "client.conservation"),
            "expected a client.conservation violation, got: {}",
            report.render()
        );
    }

    #[test]
    fn mid_run_audit_does_not_perturb_the_simulation() {
        // The audit drains and re-schedules the pending event queue; the
        // run must be byte-identical with or without it.
        let run = |audit: bool| {
            let (mut c, a) = echo_cluster(2);
            echo_client(&mut c, a, 8);
            c.run_for(SimTime::from_ms(1));
            if audit {
                c.audit().assert_clean();
            }
            c.run_for(SimTime::from_ms(4));
            (
                c.completions().count(),
                c.completions().mean(),
                c.completions().p99(),
                c.obs().registry().counter("net.packets").get(),
            )
        };
        assert_eq!(run(false), run(true));
    }

    // ------------------------------------------------------------------
    // Sharded (parallel DES) engine
    // ------------------------------------------------------------------

    /// A cluster with cross-shard traffic in every direction: six echo
    /// servers, two clients spraying requests over all of them.
    fn sharded_cluster(shards: usize, parallel: bool) -> Cluster {
        let mut c = Cluster::builder(CN2350)
            .servers(6)
            .clients(2)
            .seed(42)
            .shards(shards)
            .parallel(parallel)
            .obs(Obs::new(ipipe_sim::ObsConfig {
                level: TraceLevel::Spans,
                trace_capacity: 1 << 16,
            }))
            .build();
        let actors: Vec<Address> = (0..6)
            .map(|n| {
                c.register_actor(
                    n,
                    "echo",
                    Box::new(Echo {
                        cost: SimTime::from_us(3),
                    }),
                    Placement::Nic,
                )
            })
            .collect();
        for cl in 0..2 {
            let targets = actors.clone();
            c.set_client(
                cl,
                Box::new(move |rng, _| ClientReq {
                    dst: targets[rng.below(targets.len() as u64) as usize],
                    wire_size: 256,
                    flow: rng.below(1 << 20),
                    payload: None,
                }),
                8,
            );
        }
        c
    }

    #[test]
    fn sharded_runs_byte_match_the_serial_canonical_export() {
        let run = |shards: usize| {
            let mut c = sharded_cluster(shards, false);
            c.run_for(SimTime::from_ms(2));
            c.audit().assert_clean();
            c.run_for(SimTime::from_ms(1));
            (c.completions().count(), c.export_canonical_jsonl())
        };
        let (done1, serial) = run(1);
        assert!(done1 > 500, "done={done1}");
        for shards in [2, 3, 4, 8] {
            let (done, export) = run(shards);
            assert_eq!(done, done1, "{shards} shards diverged on completions");
            assert_eq!(
                export, serial,
                "{shards}-shard canonical export must be byte-identical to serial"
            );
        }
    }

    #[test]
    fn parallel_epoch_execution_matches_sequential() {
        // Threads only change who runs each epoch slice, never the result.
        let run = |parallel: bool| {
            let mut c = sharded_cluster(4, parallel);
            c.run_for(SimTime::from_ms(2));
            c.export_canonical_jsonl()
        };
        assert_eq!(run(false), run(true));
    }

    #[test]
    fn sharded_epochs_report_work_and_span() {
        let mut c = sharded_cluster(4, false);
        c.run_for(SimTime::from_ms(2));
        let stats = c.epoch_stats();
        assert!(stats.epochs > 0, "epoch driver must have run");
        assert!(stats.events >= stats.critical_path);
        assert!(stats.speedup() >= 1.0);
        assert!(
            c.lookahead().is_some(),
            "multi-shard clusters have lookahead"
        );
        assert_eq!(c.shard_count(), 4);
    }

    /// Pinned regression for the shard-aware audit sweep: the audit drains
    /// and re-schedules each shard's queue independently, so a mid-run
    /// audit must be invisible for any shard count — including events
    /// drained while their cross-shard replies sit in outboxes/pools.
    #[test]
    fn mid_run_audit_is_invisible_under_sharding() {
        let run = |audit: bool| {
            let mut c = sharded_cluster(4, false);
            c.run_for(SimTime::from_ms(1));
            if audit {
                c.audit().assert_clean();
            }
            c.run_for(SimTime::from_ms(2));
            // The audited run legitimately carries `audit.*` bookkeeping
            // counters; everything else must be byte-identical.
            c.export_canonical_jsonl()
                .lines()
                .filter(|l| !l.contains("\"audit."))
                .collect::<Vec<_>>()
                .join("\n")
        };
        assert_eq!(run(false), run(true));
    }

    // ------------------------------------------------------------------
    // Ingress admission control and overload shedding
    // ------------------------------------------------------------------

    /// Pinned regression: `handle_deliver_corrupt` used to clamp the wire
    /// size to `u16::MAX` when rebuilding the header, mislabeling jumbo
    /// damage as an in-range frame with a bad checksum. Oversize corrupt
    /// frames must be rejected explicitly with their own reason counter —
    /// and still satisfy the frame-conservation ledger.
    #[test]
    fn oversize_corrupt_frames_are_rejected_explicitly() {
        let (mut c, a) = echo_cluster(2);
        c.set_fault_plan(FaultPlan::new(7).with_corruption(1.0));
        // >64 KiB requests: the 16-bit header length field cannot describe
        // them once damaged.
        c.set_client(
            0,
            Box::new(move |rng, _| ClientReq {
                dst: a,
                wire_size: 100_000,
                flow: rng.below(1 << 20),
                payload: None,
            }),
            4,
        );
        c.run_for(SimTime::from_ms(2));
        assert_eq!(c.completions().count(), 0, "every frame was damaged");
        let oversize = c.obs().registry().counter("fault.rx.oversize").get();
        let rejected = c.obs().registry().counter("fault.rx.rejected").get();
        assert_eq!(oversize, 4, "each jumbo frame rejected exactly once");
        assert_eq!(rejected, 4, "oversize rejections count as rejections");
        c.audit().assert_clean();
    }

    /// Pinned regression for the open-loop saturation leak: a generator at
    /// 10x the admitted rate used to grow the in-flight ledger and retry
    /// slot map without bound (arrivals are time-paced, completions are
    /// not). With ingress admission the shed replies push back — the client
    /// sheds at the source while the backoff hint is live — so both maps
    /// stay bounded no matter how long saturation lasts.
    #[test]
    fn open_loop_ledgers_stay_bounded_at_10x_admitted_rate() {
        let (mut c, a) = echo_cluster(2);
        c.set_admission(AdmissionCfg {
            classes: vec![ClassCfg {
                rate_rps: 20_000,
                burst: 16,
                priority: 0,
            }],
            pressure_depth: usize::MAX,
            protect_priority: u8::MAX,
            max_backoff: SimTime::from_ms(1),
        });
        c.set_client_open_loop(
            0,
            Box::new(move |rng, _| ClientReq {
                dst: a,
                wire_size: 256,
                flow: rng.below(1 << 20),
                payload: None,
            }),
            OpenLoopCfg {
                rate_rps: 200_000.0, // 10x the admitted rate
                until: SimTime::from_ms(20),
            },
        );
        c.set_client_retry(0, RetryPolicy::lan_default(), None);
        // Mid-saturation: the ledgers must already be bounded.
        c.run_for(SimTime::from_ms(10));
        let mid = c.completions();
        let abandoned = c.obs().registry().counter("client.retry.abandoned").get();
        let inflight = mid.issued() - mid.completed() - mid.shed() - abandoned;
        assert!(
            inflight < 200,
            "in-flight ledger must stay bounded under saturation: {inflight}"
        );
        c.audit().assert_clean();
        // Drain and close the books: issued splits exactly into completed,
        // shed and abandoned, with the shed share dominating at 10x.
        c.run_for(SimTime::from_ms(20));
        c.audit().assert_clean();
        let end = c.completions();
        let abandoned = c.obs().registry().counter("client.retry.abandoned").get();
        assert_eq!(end.issued(), end.completed() + end.shed() + abandoned);
        assert!(end.shed() > end.completed(), "most arrivals must shed");
        assert!(end.completed() > 100, "admitted traffic still completes");
        let src = c.obs().registry().counter("client.shed.source").get();
        assert!(src > 0, "backoff hints must suppress arrivals at source");
    }

    /// Closed-loop clients with retransmission honor the backoff hint: a
    /// shed reply parks the retry timer (no try consumed) instead of
    /// terminating the request, so the loop is paced down to the admitted
    /// rate rather than wedged or abandoned.
    #[test]
    fn shed_replies_park_closed_loop_retries_at_the_admitted_rate() {
        let (mut c, a) = echo_cluster(2);
        c.set_admission(AdmissionCfg {
            classes: vec![ClassCfg {
                rate_rps: 50_000,
                burst: 4,
                priority: 0,
            }],
            pressure_depth: usize::MAX,
            protect_priority: u8::MAX,
            max_backoff: SimTime::from_us(500),
        });
        echo_client(&mut c, a, 16);
        c.set_client_retry(
            0,
            RetryPolicy {
                timeout: SimTime::from_us(300),
                cap: SimTime::from_ms(5),
                max_tries: 64,
            },
            None,
        );
        c.run_for(SimTime::from_ms(10));
        let parked = c.obs().registry().counter("client.shed.backoff").get();
        assert!(parked > 0, "16 outstanding against 50k rps must shed");
        let done = c.completions().count();
        // The bucket admits at most rate * time + burst = 504 in 10ms; the
        // retry timeout (not the hint) dominates the actual pacing, so the
        // loop lands well below that — but it must keep moving.
        assert!((100..=520).contains(&done), "done={done}");
        c.audit().assert_clean();
    }

    /// Priority-aware pressure shedding: while the NIC backlog exceeds the
    /// configured depth, best-effort classes are refused outright and the
    /// protected class keeps completing.
    #[test]
    fn pressure_shedding_protects_the_premium_class() {
        // Migration off so the slow actor cannot escape to the host: the
        // NIC cores must saturate and the mailbox backlog must build.
        let cfg = SchedConfig::for_nic(&CN2350).no_migration();
        let mut c = Cluster::builder(CN2350)
            .servers(1)
            .clients(2)
            .sched(cfg)
            .seed(17)
            .build();
        // A slow actor so the FCFS backlog actually builds.
        let a = c.register_actor(
            0,
            "slow-echo",
            Box::new(Echo {
                cost: SimTime::from_us(30),
            }),
            Placement::Nic,
        );
        c.set_admission(AdmissionCfg {
            classes: vec![
                ClassCfg {
                    rate_rps: 1_000_000,
                    burst: 64,
                    priority: 0,
                },
                ClassCfg {
                    rate_rps: 1_000_000,
                    burst: 64,
                    priority: 1,
                },
            ],
            pressure_depth: 8,
            protect_priority: 1,
            max_backoff: SimTime::from_us(500),
        });
        c.set_client_class(0, 0);
        c.set_client_class(1, 1);
        for cl in 0..2 {
            c.set_client_open_loop(
                cl,
                Box::new(move |rng, _| ClientReq {
                    dst: a,
                    wire_size: 256,
                    flow: rng.below(1 << 20),
                    payload: None,
                }),
                OpenLoopCfg {
                    rate_rps: 400_000.0,
                    until: SimTime::from_ms(10),
                },
            );
        }
        c.run_for(SimTime::from_ms(30));
        c.audit().assert_clean();
        let shed = c.obs().registry().counter_on("admit.shed", 0).get();
        assert!(shed > 0, "overload must trigger pressure shedding");
        // Remote sheds terminate best-effort requests; the premium class is
        // exempt from pressure shedding and its bucket is far above the
        // offered rate, so the shed ledger is (almost entirely) client 0's
        // traffic and the premium client keeps completing.
        let done = c.completions();
        assert!(done.shed() > 0, "best-effort arrivals must be refused");
        // ~4000 premium arrivals are offered in the window; pressure never
        // sheds them, so a large completed share must survive even while
        // the best-effort class is being refused wholesale.
        assert!(
            done.completed() > 2_000,
            "the protected class must keep completing: {}",
            done.completed()
        );
    }

    /// `measured_wall`/`throughput_rps` must agree between serial and
    /// sharded runs of the same scenario — the audit's `measure.start`
    /// check plus this equality pin the cross-shard reset consistency.
    #[test]
    fn sharded_and_serial_agree_on_measured_throughput() {
        let run = |shards: usize| {
            let mut c = sharded_cluster(shards, false);
            c.run_for(SimTime::from_ms(1));
            c.reset_measurements();
            c.run_for(SimTime::from_ms(2));
            c.audit().assert_clean();
            (c.measured_wall(), c.throughput_rps())
        };
        let (wall1, tput1) = run(1);
        assert!(tput1 > 0.0);
        for shards in [2, 4] {
            let (wall, tput) = run(shards);
            assert_eq!(wall, wall1, "{shards}-shard wall diverged");
            assert_eq!(tput, tput1, "{shards}-shard throughput diverged");
        }
    }

    /// DMO exhaustion degrades instead of panicking: with a region far too
    /// small for the actor's preferred 4MB of private state, init falls
    /// back to a smaller allocation and the actor still serves traffic.
    #[test]
    fn dmo_exhaustion_degrades_allocation_instead_of_panicking() {
        let mut c = Cluster::builder(CN2350)
            .servers(1)
            .clients(1)
            .region_bytes(64 << 10)
            .seed(9)
            .build();
        let a = c.register_actor(
            0,
            "stateful-echo",
            Box::new(StatefulEcho {
                cost: SimTime::from_us(3),
            }),
            Placement::Nic,
        );
        c.run_closed_loop(a, 8, 512, SimTime::from_ms(3));
        let done = c.completions().count();
        assert!(done > 500, "degraded actor must still serve: {done}");
        c.audit().assert_clean();
    }

    /// The overload machinery is exercised identically for every shard
    /// count: same-seed runs with admission, spikes (via the in-place rate
    /// swap) and shed pushback export byte-identical canonical JSONL.
    #[test]
    fn overload_shedding_is_byte_identical_across_shard_counts() {
        let run = |shards: usize| {
            let mut c = Cluster::builder(CN2350)
                .servers(2)
                .clients(2)
                .seed(23)
                .shards(shards)
                .obs(Obs::new(ipipe_sim::ObsConfig {
                    level: TraceLevel::Spans,
                    trace_capacity: 1 << 16,
                }))
                .build();
            let actors: Vec<Address> = (0..2)
                .map(|n| {
                    c.register_actor(
                        n,
                        "echo",
                        Box::new(Echo {
                            cost: SimTime::from_us(2),
                        }),
                        Placement::Nic,
                    )
                })
                .collect();
            c.set_admission(AdmissionCfg {
                classes: vec![
                    ClassCfg {
                        rate_rps: 30_000,
                        burst: 8,
                        priority: 0,
                    },
                    ClassCfg {
                        rate_rps: 30_000,
                        burst: 8,
                        priority: 1,
                    },
                ],
                pressure_depth: 64,
                protect_priority: 1,
                max_backoff: SimTime::from_ms(1),
            });
            for cl in 0..2 {
                c.set_client_class(cl, cl as u8);
                let targets = actors.clone();
                c.set_client_open_loop(
                    cl,
                    Box::new(move |rng, _| ClientReq {
                        dst: targets[rng.below(targets.len() as u64) as usize],
                        wire_size: 256,
                        flow: rng.below(1 << 20),
                        payload: None,
                    }),
                    OpenLoopCfg {
                        rate_rps: 40_000.0,
                        until: SimTime::from_ms(8),
                    },
                );
                c.set_client_retry(0, RetryPolicy::lan_default(), None);
            }
            c.run_for(SimTime::from_ms(2));
            // 10x spike through the in-place rate swap, then recovery.
            for cl in 0..2 {
                c.set_client_open_loop_rate(cl, 400_000.0);
            }
            c.run_for(SimTime::from_ms(2));
            for cl in 0..2 {
                c.set_client_open_loop_rate(cl, 40_000.0);
            }
            c.run_for(SimTime::from_ms(8));
            c.audit().assert_clean();
            let shed = c.completions().shed();
            assert!(shed > 0, "the spike must shed");
            c.export_canonical_jsonl()
        };
        let serial = run(1);
        for shards in [2, 4] {
            assert_eq!(
                run(shards),
                serial,
                "{shards}-shard overload run must be byte-identical"
            );
        }
    }
}

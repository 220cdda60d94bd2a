//! Cluster assembly and the public [`Cluster`] API: the builder, actor
//! registration, the conservative-lookahead epoch driver and the
//! measurement / export accessors. Client installation lives in `client.rs`,
//! the audit in `audit.rs`.

use super::*;
use crate::dmo::Side;
use ipipe_nicsim::spec::HOST_XEON;
use ipipe_sim::obs::export as obs_export;
use ipipe_sim::obs::{Snapshot, TraceEvent};
use ipipe_sim::MergePool;
/// Builder for a [`Cluster`].
pub struct ClusterBuilder {
    spec: &'static NicSpec,
    servers: usize,
    clients: usize,
    mode: RuntimeMode,
    sched: Option<SchedConfig>,
    seed: u64,
    region_bytes: u64,
    obs: Option<Obs>,
    shards: usize,
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
    /// order, so results are byte-identical to the single-shard run. The
    /// calling thread runs every shard's slice of an epoch in turn.
    pub fn shards(mut self, n: usize) -> Self {
        assert!(n >= 1, "at least one shard");
        self.shards = n;
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
        // Node ids are `u16` everywhere below (and in `Address`).
        assert!(
            total <= u16::MAX as usize,
            "{} servers + {} clients do not fit u16 node ids",
            self.servers,
            self.clients
        );
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

        let shards: Vec<ShardState> = (0..n_shards)
            .map(|s| {
                // Shard 0 shares the caller's observability handle (so a
                // 1-shard cluster behaves exactly as before); the others get
                // private same-config handles whose snapshots merge
                // commutatively.
                let obs = match s {
                    0 => user_obs.clone(),
                    _ => Obs::new(user_obs.config()),
                };
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
                        host_queues: (0..HOST_XEON.cores).map(|_| Default::default()).collect(),
                        host_inflight: (0..HOST_XEON.cores).map(|_| None).collect(),
                        actors: IdMap::default(),
                        dmo: DmoTable::new(Side::Nic),
                        rng: std::mem::replace(&mut node_rngs[i], DetRng::new(0)),
                        host_acct: HostCpuAccounting::new(),
                        nic_busy_total: SimTime::ZERO,
                        watchdog: Watchdog::new(self.spec.cores, SimTime::from_ms(5)),
                        migration_reports: Vec::new(),
                        admission: None,
                    })
                    .collect();
                let mut snet = net.clone();
                snet.attach_obs(obs.registry());
                ShardState {
                    shard_id: s as u16,
                    base,
                    spec: self.spec,
                    mode: self.mode,
                    region_bytes: self.region_bytes,
                    nodes,
                    n_servers: self.servers,
                    net: snet,
                    events: EventQueue::new(),
                    clients: (0..self.clients).map(|_| None).collect(),
                    client_class: vec![0; self.clients],
                    completions: CompletionStats {
                        hist: obs.registry().hist("client.latency"),
                        ..CompletionStats::default()
                    },
                    fault_metrics: FaultMetrics::new(&obs),
                    obs,
                    measure_start: SimTime::ZERO,
                    action_scratch: Vec::new(),
                    retry_scratch: Vec::new(),
                    rx_frames: 0,
                    shard_of: shard_of.clone(),
                    pool: MergePool::new(),
                    outbox: Vec::new(),
                    send_seq: vec![0; total],
                    processed: 0,
                }
            })
            .collect();

        Cluster {
            n_servers: self.servers,
            n_clients: self.clients,
            shards,
            shard_of,
            lookahead,
            epoch_stats: EpochStats::default(),
            shard_events: vec![0; n_shards],
            rng,
            next_actor: 1,
            reserved: Vec::new(),
        }
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
            servers: 1,
            clients: 1,
            mode: RuntimeMode::IPipe,
            sched: None,
            seed: 0xA11CE,
            region_bytes: 64 << 20,
            obs: None,
            shards: 1,
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

    /// Number of server nodes (clients are numbered after them).
    pub fn servers(&self) -> usize {
        self.n_servers
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

    pub(super) fn shard_for_mut(&mut self, node: u16) -> &mut ShardState {
        let s = self.shard_of[node as usize] as usize;
        &mut self.shards[s]
    }

    /// Runtime state of server `node`, through its owning shard.
    fn node(&self, node: u16) -> &NodeRt {
        self.shards[self.shard_of[node as usize] as usize].node(node)
    }

    fn node_mut(&mut self, node: u16) -> &mut NodeRt {
        self.shard_for_mut(node).node_mut(node)
    }

    /// Reserve the next actor id on server `node` and return the address the
    /// actor will have, before the actor exists: a deployment reserves the
    /// addresses of a whole group first and then builds each actor around
    /// the few it sends to (its `actor_tbl`, §3.1). Ids are handed out in
    /// call order. Every reservation must be taken up by
    /// [`Cluster::register_reserved`] before the cluster next runs.
    pub fn reserve_actor(&mut self, node: usize) -> Address {
        assert!(node < self.n_servers, "not a server node");
        let addr = Address {
            node: node as u16,
            actor: self.next_actor,
        };
        self.next_actor += 1;
        self.reserved.push(addr);
        addr
    }

    /// Install an actor at an address [`Cluster::reserve_actor`] handed out.
    /// The actor's `init` handler runs immediately. Panics when `addr` is not
    /// an outstanding reservation: never reserved, reserved on another node,
    /// or registered already.
    pub fn register_reserved(
        &mut self,
        addr: Address,
        name: &str,
        logic: Box<dyn ActorLogic>,
        placement: Placement,
    ) {
        let Some(slot) = self.reserved.iter().position(|r| r.actor == addr.actor) else {
            panic!("{addr:?} is not reserved, or is registered already");
        };
        let reserved = self.reserved.swap_remove(slot);
        assert!(reserved == addr, "{addr:?} was reserved as {reserved:?}");
        self.shard_for_mut(addr.node)
            .register_actor_local(addr, name, logic, placement);
    }

    /// Register an actor on server `node`; returns its cluster address.
    /// The actor's `init` handler runs immediately. This is
    /// [`Cluster::reserve_actor`] and [`Cluster::register_reserved`] in
    /// sequence, for actors nobody needs to address before they exist.
    pub fn register_actor(
        &mut self,
        node: usize,
        name: &str,
        logic: Box<dyn ActorLogic>,
        placement: Placement,
    ) -> Address {
        let addr = self.reserve_actor(node);
        self.register_reserved(addr, name, logic, placement);
        addr
    }

    /// Install ingress admission control (see [`crate::admission`]) on
    /// every server node. Buckets start full at the current simulated time.
    /// Requests from a client are judged by that client's class (set via
    /// [`Cluster::set_client_class`]; default class 0); internal
    /// server-to-server messages are never shed.
    pub fn set_admission(&mut self, cfg: AdmissionCfg) {
        let now = self.now();
        for shard in &mut self.shards {
            for n in &mut shard.nodes {
                n.admission = Some(NodeAdmission::new(&cfg, &shard.obs, n.id, now));
            }
        }
    }

    /// Attach a seeded fault schedule to the cluster's network. Call before
    /// running; the plan's own RNG keeps faulted runs seed-deterministic.
    /// Every shard judges the frames its own nodes send against its own
    /// copy, and the plan draws per source node, so fault verdicts are
    /// identical for every shard count.
    pub fn set_fault_plan(&mut self, plan: FaultPlan) {
        for s in &mut self.shards {
            s.net.set_fault_plan(plan.clone());
        }
    }

    /// True when `node` is inside a crash window of the attached fault plan.
    pub fn node_down(&self, node: u16) -> bool {
        self.shards[0].net.node_down(node, self.now())
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
        assert!(
            self.reserved.is_empty(),
            "reserved but never registered: {:?}",
            self.reserved
        );
        let end = self.now() + dur;
        // Setup-time sends (actor init emits) may be parked in outboxes.
        self.flush_outboxes();
        while let Some(gmin) = self.shards.iter().filter_map(|s| s.next_time()).min() {
            if gmin > end {
                break;
            }
            let horizon = self.lookahead.map(|l| gmin + l);
            for s in &mut self.shards {
                s.run_slice(end, horizon);
            }
            let deltas = self.shards.iter_mut().zip(&mut self.shard_events);
            self.epoch_stats.note(deltas.map(|(s, total)| {
                let delta = std::mem::take(&mut s.processed);
                *total += delta;
                delta
            }));
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
    /// entries by `(port_ready, dst, src, seq)`. The emptied buffer goes
    /// back to its shard, so an outbox grows once, not once per epoch.
    fn flush_outboxes(&mut self) {
        for s in 0..self.shards.len() {
            if self.shards[s].outbox.is_empty() {
                continue;
            }
            let mut moved = std::mem::take(&mut self.shards[s].outbox);
            for (key, kind) in moved.drain(..) {
                let dst = self.shard_of[key.1 as usize] as usize;
                self.shards[dst].pool.push(key, kind);
            }
            self.shards[s].outbox = moved;
        }
    }

    /// Clear measurement state (after warmup): completion histogram, host
    /// CPU accounting, NIC busy accounting.
    pub fn reset_measurements(&mut self) {
        let now = self.now();
        for s in &mut self.shards {
            s.completions.hist.reset();
            s.measure_start = now;
            for n in &mut s.nodes {
                n.host_acct = HostCpuAccounting::new();
                n.nic_busy_total = SimTime::ZERO;
            }
        }
    }

    /// Client-side completion statistics, aggregated across shards.
    pub fn completions(&self) -> CompletionStats {
        let mut agg = CompletionStats {
            shed: self.counter_total("client.shed.remote")
                + self.counter_total("client.shed.source"),
            ..CompletionStats::default()
        };
        for s in &self.shards {
            agg.issued += s.completions.issued;
            agg.completed += s.completions.completed;
            agg.hist.merge_from(&s.completions.hist.to_histogram());
        }
        agg
    }

    /// Sum a node-0 registry counter across every shard. Shards keep
    /// independent registries ([`Cluster::obs`] only sees shard 0's), so
    /// cluster-wide totals of per-shard counters such as
    /// `client.retry.abandoned` must fold over all of them.
    pub fn counter_total(&self, name: &'static str) -> u64 {
        self.counter_on_total(name, 0)
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
        let (recorded, dropped) = self.trace_totals();
        out.push_str(&format!(
            "{{\"type\":\"meta\",\"trace_recorded\":{recorded},\"trace_dropped\":{dropped}}}\n"
        ));
        out
    }

    /// Canonical Chrome `trace_event` export, merged across shards.
    pub fn export_canonical_chrome(&self) -> String {
        obs_export::chrome_trace(&self.merged_trace())
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
        let done: u64 = self.shards.iter().map(|s| s.completions.count()).sum();
        done as f64 / wall.as_secs_f64()
    }

    /// Host cores kept busy on server `node` over the measurement window
    /// (Fig 13's y-axis).
    pub fn host_cores_used(&mut self, node: usize) -> f64 {
        let wall = self.measured_wall();
        let acct = &mut self.node_mut(node as u16).host_acct;
        acct.set_wall(wall);
        acct.cores_used()
    }

    /// NIC core utilization (0..cores) on server `node`.
    pub fn nic_cores_used(&self, node: usize) -> f64 {
        let wall = self.measured_wall();
        if wall == SimTime::ZERO {
            return 0.0;
        }
        self.node(node as u16).nic_busy_total.as_secs_f64() / wall.as_secs_f64()
    }

    /// Where an actor currently lives.
    pub fn actor_location(&self, addr: Address) -> Option<Loc> {
        self.node(addr.node).sched.location(addr.actor)
    }

    /// The name an actor was registered under.
    pub fn actor_name(&self, addr: Address) -> Option<&str> {
        let slot = self.node(addr.node).actors.get(&addr.actor)?;
        Some(&slot.name)
    }

    /// Force a push migration of an actor (Fig 18 methodology: "we force
    /// the actor migration after the warm up"), through the scheduler's
    /// gate but not its cooldown ([`crate::sched::NicScheduler::force_push`]).
    pub fn force_migrate(&mut self, addr: Address) -> bool {
        self.shard_for_mut(addr.node).force_migrate_local(addr)
    }

    /// Migration reports collected on a node (Fig 18).
    pub fn migration_reports(&self, node: usize) -> &[MigrationReport] {
        &self.node(node as u16).migration_reports
    }

    /// Messages that crossed `node`'s PCIe ring from the NIC to the host
    /// (`rt.ring.to_host`; host→NIC crossings are not counted here).
    pub fn ring_messages(&self, node: usize) -> u64 {
        self.node(node as u16).metrics.ring_to_host.get()
    }
}

//! Cluster assembly and the public [`Cluster`] API: the builder, actor
//! registration, the conservative-lookahead epoch driver and the
//! measurement / export accessors. Client installation lives in `client.rs`,
//! the audit in `audit.rs`.

use super::*;
use crate::dmo::Side;
use ipipe_nicsim::host::cores_used;
use ipipe_nicsim::spec::HOST_XEON;
use ipipe_sim::obs::Snapshot;
use ipipe_sim::MergePool;

/// A node index as the `u16` node id every address and event carries (and
/// a shard index as its `u16` id: shards never outnumber nodes).
fn node_id(i: usize) -> u16 {
    u16::try_from(i).expect("the builder caps node ids at u16::MAX")
}

/// Builder for a [`Cluster`].
pub struct ClusterBuilder {
    spec: NicSpec,
    servers: usize,
    clients: usize,
    mode: RuntimeMode,
    sched: Option<SchedConfig>,
    seed: u64,
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

    /// Share an observability handle: the cluster's schedulers, network model
    /// and completion stats publish into its registry, and runtime spans go
    /// to its trace ring, so a cluster has one of each at any shard count.
    /// Defaults to a metrics-only private handle.
    pub fn obs(mut self, obs: Obs) -> Self {
        self.obs = Some(obs);
        self
    }

    /// Partition the cluster's nodes into `n` event shards (defaults to 1).
    /// Each shard is the clock of a contiguous block of node ids: its own
    /// event queue and ingress merge pool, advancing in
    /// conservative-lookahead epochs bounded by the minimum cross-shard link
    /// latency. Every frame waits in its destination's pool, served in a
    /// deterministic total order, so results are byte-identical to the
    /// single-shard run. The calling thread runs every shard's slice of an
    /// epoch in turn.
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
            total <= usize::from(u16::MAX),
            "{} servers + {} clients do not fit u16 node ids",
            self.servers,
            self.clients
        );
        let n_shards = self.shards.min(total);
        let mut rng = DetRng::new(self.seed);
        let cfg = self
            .sched
            .unwrap_or_else(|| SchedConfig::for_nic(&self.spec));
        let obs = self.obs.unwrap_or_else(Obs::disabled);

        // Contiguous block partition of all node ids (servers then clients):
        // the first `total % n_shards` shards get one extra node.
        let (base_sz, extra) = (total / n_shards, total % n_shards);
        let shard_of: Vec<u16> = (0..n_shards)
            .flat_map(|s| std::iter::repeat_n(node_id(s), base_sz + usize::from(s < extra)))
            .collect();

        let mut net = NetModel::new(total, self.spec.link_gbps);
        if let Some((per_rack, extra_lat)) = self.racks {
            let rack_of: Vec<u16> = (0..total).map(|i| node_id(i / per_rack)).collect();
            net.set_racks(rack_of, extra_lat);
        }
        let lookahead = net.min_cross_latency(&shard_of);

        let nodes: Vec<NodeRt> = (0..self.servers)
            .map(|i| NodeRt {
                id: node_id(i),
                sched: NicScheduler::with_obs(&self.spec, cfg, &obs, node_id(i)),
                metrics: RtMetrics::new(&obs, node_id(i)),
                nic_inflight: (0..self.spec.cores).map(|_| None).collect(),
                host_queues: (0..HOST_XEON.cores).map(|_| Default::default()).collect(),
                host_inflight: (0..HOST_XEON.cores).map(|_| None).collect(),
                actors: DenseMap::default(),
                dmo: DmoTable::new(Side::Nic),
                rng: rng.fork(),
                host_busy_total: SimTime::ZERO,
                nic_busy_total: SimTime::ZERO,
                last_migration: None,
                spare_outboxes: Vec::new(),
                admission: None,
            })
            .collect();
        net.attach_obs(obs.registry());
        let shards = (0..n_shards)
            .map(|_| Shard {
                events: EventQueue::new(),
                pool: MergePool::new(),
                processed: 0,
            })
            .collect();

        Cluster {
            spec: self.spec,
            mode: self.mode,
            nodes,
            n_servers: self.servers,
            net,
            clients: (0..self.clients).map(|_| None).collect(),
            client_class: vec![0; self.clients],
            issued: 0,
            completed: 0,
            latency: obs.registry().hist("client.latency"),
            fault_metrics: FaultMetrics::new(&obs),
            obs,
            measure_start: SimTime::ZERO,
            action_scratch: Vec::new(),
            retry_scratch: Vec::new(),
            rx_frames: 0,
            send_seq: vec![0; total],
            events: EventQueue::new(),
            served: 0,
            shards,
            shard_of,
            lookahead,
            horizon: None,
            epoch_stats: EpochStats::default(),
            shard_events: vec![0; n_shards],
            rng,
            next_actor: 1,
            reserved: Vec::new(),
        }
    }
}

impl Cluster {
    /// Start building a cluster around a SmartNIC model. The card is a
    /// value: one of `ipipe_nicsim`'s Table 1 constants, a modified copy of
    /// one, or a synthesized design-space card, held as given.
    pub fn builder(spec: NicSpec) -> ClusterBuilder {
        ClusterBuilder {
            spec,
            servers: 1,
            clients: 1,
            mode: RuntimeMode::IPipe,
            sched: None,
            seed: 0xA11CE,
            obs: None,
            shards: 1,
            racks: None,
        }
    }

    /// The cluster's observability handle (registry + trace ring): the
    /// handle passed to [`ClusterBuilder::obs`] (or the builder's
    /// metrics-only default), which the whole cluster records into.
    pub fn obs(&self) -> &Obs {
        &self.obs
    }

    /// Current simulated time. Shards are mutually synchronized at every
    /// public API boundary, so shard 0's clock is the cluster clock.
    pub fn now(&self) -> SimTime {
        self.events.now()
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

    /// Reserve the next actor id on server `node` and return the address the
    /// actor will have, before the actor exists: a deployment reserves the
    /// addresses of a whole group first and then builds each actor around
    /// the few it sends to (its `actor_tbl`, §3.1). Ids are handed out in
    /// call order. Every reservation must be taken up by
    /// [`Cluster::register_reserved`] before the cluster next runs.
    pub fn reserve_actor(&mut self, node: usize) -> Address {
        assert!(node < self.n_servers, "not a server node");
        let addr = Address {
            node: node_id(node),
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
        self.install_actor(addr, name, logic, placement);
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
        for n in &mut self.nodes {
            n.admission = Some(NodeAdmission::new(&cfg, &self.obs, n.id, now));
        }
    }

    /// Attach a seeded fault schedule to the cluster's network. Call before
    /// running; the plan's own RNG keeps faulted runs seed-deterministic.
    /// The plan draws per source node, so fault verdicts are identical for
    /// every shard count.
    pub fn set_fault_plan(&mut self, plan: FaultPlan) {
        self.net.set_fault_plan(plan);
    }

    /// True when `node` is inside a crash window of the attached fault plan.
    pub fn node_down(&self, node: u16) -> bool {
        self.net.node_down(node, self.now())
    }

    /// Run the event loop for `dur` of simulated time.
    ///
    /// The cluster advances in conservative-lookahead epochs: every epoch
    /// starts at the global minimum pending time `gmin` and lets each shard
    /// run its own events up to `gmin + lookahead` with no synchronization
    /// (a frame sent inside the epoch cannot arrive at another shard before
    /// the horizon). Every frame goes straight into its destination shard's
    /// merge pool, which serves it in `(port_ready, dst, src, seq)` order
    /// whatever shard sent it and when, so the merged run is byte-identical
    /// to the single-shard one. With one shard the horizon is unbounded and
    /// the loop degrades to the classic serial sweep.
    pub fn run_for(&mut self, dur: SimTime) {
        assert!(
            self.reserved.is_empty(),
            "reserved but never registered: {:?}",
            self.reserved
        );
        let end = self.now() + dur;
        while let Some(gmin) = (0..self.shards.len())
            .filter_map(|s| self.next_time(s))
            .min()
        {
            if gmin > end {
                break;
            }
            self.horizon = self.lookahead.map(|l| gmin + l);
            for s in 0..self.shards.len() {
                self.run_slice(s, end);
            }
            let deltas = self.shards.iter_mut().zip(&mut self.shard_events);
            self.epoch_stats.note(deltas.map(|(s, total)| {
                let delta = std::mem::take(&mut s.processed);
                *total += delta;
                delta
            }));
            if self.horizon.is_none() {
                break; // single shard: the slice ran straight to `end`
            }
        }
        self.horizon = None;
        self.events.advance_to(end);
        for s in &mut self.shards {
            s.events.advance_to(end);
        }
    }

    /// Clear measurement state (after warmup): completion histogram, host
    /// CPU accounting, NIC busy accounting.
    pub fn reset_measurements(&mut self) {
        self.latency.reset();
        self.measure_start = self.now();
        for n in &mut self.nodes {
            n.host_busy_total = SimTime::ZERO;
            n.nic_busy_total = SimTime::ZERO;
        }
    }

    /// Client-side completion statistics, with a copy of the one
    /// `client.latency` histogram.
    pub fn completions(&self) -> CompletionStats {
        let f = &self.fault_metrics;
        CompletionStats {
            issued: self.issued,
            completed: self.completed,
            shed: f.shed_remote.get() + f.shed_source.get(),
            hist: HistHandle::from(self.latency.to_histogram()),
        }
    }

    /// Metrics snapshot of the cluster's registry.
    pub fn snapshot(&self) -> Snapshot {
        self.obs().snapshot()
    }

    /// `(recorded, dropped)` totals of the cluster's trace ring.
    pub fn trace_totals(&self) -> (u64, u64) {
        (self.obs().trace_recorded(), self.obs().trace_dropped())
    }

    /// Canonical JSONL export: [`Obs::export_jsonl`] of the cluster's
    /// handle. For runs whose trace ring never overflows, the bytes are
    /// identical for every shard count.
    pub fn export_canonical_jsonl(&self) -> String {
        self.obs().export_jsonl()
    }

    /// Measured wall time since the last reset.
    pub fn measured_wall(&self) -> SimTime {
        self.now().saturating_sub(self.measure_start)
    }

    /// Completed requests per second over the measurement window.
    pub fn throughput_rps(&self) -> f64 {
        let wall = self.measured_wall();
        if wall == SimTime::ZERO {
            return 0.0;
        }
        self.latency.count() as f64 / wall.as_secs_f64()
    }

    /// Host cores kept busy on server `node` over the measurement window
    /// (Fig 13's y-axis).
    pub fn host_cores_used(&self, node: usize) -> f64 {
        cores_used(self.nodes[node].host_busy_total, self.measured_wall())
    }

    /// NIC core utilization (0..cores) on server `node`.
    pub fn nic_cores_used(&self, node: usize) -> f64 {
        cores_used(self.nodes[node].nic_busy_total, self.measured_wall())
    }

    /// Where an actor currently lives.
    pub fn actor_location(&self, addr: Address) -> Option<Loc> {
        self.nodes[usize::from(addr.node)]
            .sched
            .location(addr.actor)
    }

    /// The name an actor was registered under.
    pub fn actor_name(&self, addr: Address) -> Option<&str> {
        let slot = self.nodes[usize::from(addr.node)].actors.get(addr.actor)?;
        Some(&slot.name)
    }

    /// Force a push migration of an actor (Fig 18 methodology: "we force
    /// the actor migration after the warm up"; also the `rkv` scenario's
    /// scripted memtable move), through the scheduler's gate but not its
    /// cooldown ([`crate::sched::NicScheduler::force_push`]).
    pub fn force_migrate(&mut self, addr: Address) -> bool {
        self.serve(self.shard(addr.node));
        let now = self.now();
        self.force_push(now, addr)
    }

    /// The report of the last migration completed on a node (Fig 18); the
    /// registry's `migrate.*` and the trace hold every one.
    pub fn last_migration(&self, node: usize) -> Option<&MigrationReport> {
        self.nodes[node].last_migration.as_ref()
    }

    /// Messages that crossed `node`'s PCIe ring from the NIC to the host
    /// (`rt.ring.to_host`; host→NIC crossings are not counted here).
    pub fn ring_messages(&self, node: usize) -> u64 {
        self.nodes[node].metrics.ring_to_host.get()
    }
}

//! The multi-group RKV layer: many independent Paxos groups spread over
//! many NIC+host nodes, a shared versioned [`RoutingTable`], per-group obs
//! counters feeding a hotspot-driven [`Rebalancer`], and an exactly-once
//! audit that holds across shard moves.
//!
//! One group is exactly the PR-3 single-group deployment (consensus +
//! memtable on the NIC, SSTable read + compaction host-pinned); this module
//! only *places* many of them. Group `g`'s replica `r` lands on server node
//! `(g * replicas + r) % server_nodes`, so groups interleave over the fleet
//! and every node carries a balanced mix of leaders and followers.
//!
//! **Rebalancing = core moves, not key moves.** A hot group's data never
//! leaves its Paxos log; the [`Rebalancer`] reads the per-group
//! `rkv.ops.gNNN` counters between observation windows and migrates the
//! hottest groups' leader-side actors from NIC to host cores through the
//! existing four-phase migration (the paper's mechanism). The routing table
//! is untouched by such a move — the actor keeps its address — so no
//! request, token, or key range can be orphaned mid-move; the
//! [`audit_multi_rkv_exactly_once`] reconciliation and the cluster-wide
//! conservation audit both hold across it.

use super::actors::{deploy_group, HeartbeatCfg, RkvDeployment};
use super::placement::RoutingTable;
use ipipe::prelude::*;
use ipipe::rt::Cluster;
use ipipe::sched::Loc;
use ipipe_sim::audit::{AuditReport, CLUSTER_WIDE};
use ipipe_sim::obs::Registry;

/// Topology of a multi-group deployment.
#[derive(Debug, Clone, Copy)]
pub struct MultiRkvCfg {
    /// Number of independent Paxos groups.
    pub groups: usize,
    /// Replicas per group.
    pub replicas: usize,
    /// Server nodes the replicas interleave over.
    pub server_nodes: usize,
    /// Hash buckets in the routing table.
    pub buckets: usize,
    /// Memtable flush threshold (bytes).
    pub memtable_flush: u64,
    /// Heartbeat failure detector; `None` keeps fault-free runs on the
    /// historical byte-identical event stream.
    pub heartbeat: Option<HeartbeatCfg>,
    /// Seed for the bucket→group placement shuffle.
    pub seed: u64,
}

/// Handles to a deployed multi-group RKV.
pub struct MultiRkv {
    /// Per-group actor handles (index = group id).
    pub groups: Vec<RkvDeployment>,
    /// The canonical boot-time routing table. Clients clone it and refresh
    /// their copies from `Redirect` replies.
    pub table: RoutingTable,
    /// Server nodes hosting each group's replicas.
    pub group_nodes: Vec<Vec<u16>>,
}

impl MultiRkv {
    /// Total client operations that entered group `g` — its `rkv.ops.gNNN`
    /// hotspot signal, summed over its replicas (ops land on whichever
    /// replica the client addressed).
    pub fn group_ops(&self, reg: &Registry, g: usize) -> u64 {
        self.group_nodes[g]
            .iter()
            .map(|&n| reg.counter_in("rkv.ops", Some(g as u16), n).get())
            .sum()
    }
}

/// Deploy `cfg.groups` independent RKV groups interleaved over
/// `cfg.server_nodes` nodes, each with per-group metric streams
/// (`rkv.{ops,applies,dup.commits,buffered_writes}.gNNN`), and build the
/// canonical routing table pointing at each group's boot-time leader
/// (replica 0).
pub fn deploy_multi_rkv(c: &mut Cluster, cfg: &MultiRkvCfg) -> MultiRkv {
    assert!(cfg.groups > 0 && cfg.replicas > 0);
    assert!(
        cfg.server_nodes >= cfg.replicas,
        "a group's replicas must land on distinct nodes"
    );
    assert!(
        cfg.groups <= usize::from(u16::MAX) + 1,
        "{} groups do not fit the u16 group id of a metric key",
        cfg.groups
    );
    let mut groups = Vec::with_capacity(cfg.groups);
    let mut group_nodes = Vec::with_capacity(cfg.groups);
    for g in 0..cfg.groups {
        let nodes: Vec<usize> = (0..cfg.replicas)
            .map(|r| (g * cfg.replicas + r) % cfg.server_nodes)
            .collect();
        groups.push(deploy_group(
            c,
            &nodes,
            cfg.memtable_flush,
            cfg.heartbeat,
            Some(g as u16),
        ));
        group_nodes.push(nodes.into_iter().map(|n| n as u16).collect());
    }
    let leaders: Vec<Address> = groups.iter().map(|d| d.consensus[0]).collect();
    let table = RoutingTable::build(cfg.seed, cfg.buckets, leaders);
    MultiRkv {
        groups,
        table,
        group_nodes,
    }
}

/// Hotspot-rebalancing policy.
#[derive(Debug, Clone, Copy)]
pub struct RebalanceCfg {
    /// A group is hot when its ops delta over the observation window
    /// exceeds `hot_factor ×` the mean group delta.
    pub hot_factor: f64,
    /// Shard moves started per observation step (migration is one per node
    /// at a time; a small cap keeps steps cheap and deterministic).
    pub max_moves: usize,
}

impl Default for RebalanceCfg {
    fn default() -> RebalanceCfg {
        RebalanceCfg {
            hot_factor: 2.0,
            max_moves: 2,
        }
    }
}

/// Hotspot-driven rebalancer: between calls it accumulates per-group op
/// deltas from the `rkv.ops.gNNN` counters; each [`Rebalancer::step`]
/// migrates the hottest groups' leader-side actors from NIC to host cores
/// via the four-phase migration. Fully deterministic: counters are summed
/// in group order, hot groups sort by `(delta desc, group asc)`, and no
/// random draw is consumed.
pub struct Rebalancer {
    cfg: RebalanceCfg,
    last: Vec<u64>,
    /// Successful shard moves started so far.
    pub moves: u64,
}

impl Rebalancer {
    /// A rebalancer for `groups` groups, baselined at zero ops.
    pub fn new(groups: usize, cfg: RebalanceCfg) -> Rebalancer {
        Rebalancer {
            cfg,
            last: vec![0; groups],
            moves: 0,
        }
    }

    /// Observe one window and start migrations for the hot groups. Returns
    /// the number of moves started this step.
    pub fn step(&mut self, c: &mut Cluster, dep: &MultiRkv) -> usize {
        let reg = c.obs().registry();
        let deltas: Vec<u64> = (0..dep.groups.len())
            .map(|g| {
                let total = dep.group_ops(reg, g);
                let d = total - self.last[g];
                self.last[g] = total;
                d
            })
            .collect();
        let total: u64 = deltas.iter().sum();
        if total == 0 {
            return 0;
        }
        let mean = total as f64 / deltas.len() as f64;
        let mut hot: Vec<(u64, usize)> = deltas
            .iter()
            .enumerate()
            .filter(|&(_, &d)| d as f64 > self.cfg.hot_factor * mean)
            .map(|(g, &d)| (d, g))
            .collect();
        hot.sort_by(|a, b| b.0.cmp(&a.0).then(a.1.cmp(&b.1)));
        let mut started = 0;
        for &(_, g) in hot.iter() {
            if started >= self.cfg.max_moves {
                break;
            }
            // The leader's memtable serves the reads (the bulk of a 95/5
            // mix); move it first, fall back to the consensus actor.
            let leader_idx = 0;
            for addr in [
                dep.groups[g].memtable[leader_idx],
                dep.groups[g].consensus[leader_idx],
            ] {
                if c.actor_location(addr) == Some(Loc::Nic) && c.force_migrate(addr) {
                    started += 1;
                    break;
                }
            }
        }
        self.moves += started as u64;
        started
    }
}

/// Exactly-once reconciliation across every group, mid-move included: per
/// replica, group-`g` applies may never exceed the writes the clients
/// issued into group `g` (a duplicate escaped the token filter otherwise);
/// and once the run has fully drained, the most caught-up replica of each
/// group must have applied every one of them (a lost range or orphaned
/// token otherwise). `writes_issued[g]` is the clients' own per-group write
/// ledger, counted once per token at generation time so retransmissions
/// don't inflate it.
pub fn audit_multi_rkv_exactly_once(
    reg: &Registry,
    dep: &MultiRkv,
    writes_issued: &[u64],
    drained: bool,
    r: &mut AuditReport,
) {
    assert_eq!(writes_issued.len(), dep.groups.len());
    for (g, nodes) in dep.group_nodes.iter().enumerate() {
        let issued = writes_issued[g];
        let mut max_applies = 0u64;
        for &node in nodes {
            let applies = reg.counter_in("rkv.applies", Some(g as u16), node).get();
            max_applies = max_applies.max(applies);
            r.check_le(
                "rkv.exactly.once",
                node,
                (&format!("group {g} applies"), applies),
                ("issued writes", issued),
            );
        }
        if drained {
            r.check_ge(
                "rkv.apply.coverage",
                CLUSTER_WIDE,
                (&format!("group {g} best applies"), max_applies),
                ("issued writes", issued),
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ipipe::rt::ClientReq;
    use ipipe_nicsim::CN2350;
    use ipipe_workload::agg::AggKvStream;
    use std::cell::RefCell;
    use std::rc::Rc;

    fn small_cfg(groups: usize) -> MultiRkvCfg {
        MultiRkvCfg {
            groups,
            replicas: 3,
            server_nodes: 6,
            buckets: 256,
            memtable_flush: 8 << 20,
            heartbeat: None,
            seed: 0x5CA1E,
        }
    }

    #[test]
    fn multi_group_deployment_is_interleaved_and_routable() {
        let mut c = Cluster::builder(CN2350)
            .servers(6)
            .clients(1)
            .seed(1)
            .build();
        let dep = deploy_multi_rkv(&mut c, &small_cfg(4));
        assert_eq!(dep.groups.len(), 4);
        assert_eq!(dep.table.groups(), 4);
        // Replicas of one group land on distinct nodes.
        for nodes in &dep.group_nodes {
            let set: std::collections::BTreeSet<_> = nodes.iter().collect();
            assert_eq!(set.len(), nodes.len());
        }
        // The table routes every key to some group's leader.
        let t = &dep.table;
        for id in 0..64u64 {
            let key = ipipe_workload::kv::encode_key(id);
            let leader = t.route(&key);
            assert!(dep.groups.iter().any(|d| d.consensus[0] == leader));
        }
    }

    #[test]
    fn one_group_keyspace_registers_what_the_single_group_deployment_does() {
        use super::super::actors::deploy_rkv_with;
        let build = || {
            Cluster::builder(CN2350)
                .servers(3)
                .clients(1)
                .seed(5)
                .build()
        };
        let (mut single, mut multi) = (build(), build());
        let one = deploy_rkv_with(&mut single, &[0, 1, 2], 8 << 20, None);
        let cfg = MultiRkvCfg {
            server_nodes: 3,
            ..small_cfg(1)
        };
        let many = deploy_multi_rkv(&mut multi, &cfg);
        assert_eq!(many.group_nodes, [[0, 1, 2]]);
        // The same ids on the same nodes, role by role...
        let w = &many.groups[0].wiring;
        assert_eq!(&one.wiring, w);
        let roles = [&w.consensus, &w.memtable, &w.sst_read, &w.compaction];
        for &addr in roles.into_iter().flatten() {
            // ...placed alike, and named alike but for the group label.
            assert!(single.actor_location(addr).is_some());
            assert_eq!(single.actor_location(addr), multi.actor_location(addr));
            let name = multi.actor_name(addr).expect("registered");
            assert!(name.starts_with("rkv-g000-"), "{name}");
            assert_eq!(single.actor_name(addr), Some(&*name.replace("g000-", "")));
        }
    }

    #[test]
    fn writes_spread_over_groups_and_audit_exactly_once() {
        let mut c = Cluster::builder(CN2350)
            .servers(6)
            .clients(1)
            .seed(0xE2E)
            .build();
        let dep = deploy_multi_rkv(&mut c, &small_cfg(4));
        let table = dep.table.clone();
        let stream = AggKvStream::new(7, 1 << 16, 100_000, 1.0, 0.0, 24);
        let ledger = Rc::new(RefCell::new(vec![0u64; 4]));
        let gen_ledger = ledger.clone();
        let mk_gen = move || {
            let table = table.clone();
            let gen_ledger = gen_ledger.clone();
            Box::new(move |rng: &mut ipipe_sim::DetRng, token: u64| {
                let op = stream.op_for(token);
                let g = table.group_of(op.key());
                gen_ledger.borrow_mut()[g as usize] += 1;
                let dst = table.leader_of(g);
                ClientReq {
                    dst,
                    wire_size: 42 + op.wire_size(),
                    flow: rng.below(1 << 20),
                    payload: Some(Box::new(super::super::actors::RkvMsg::Client(op))),
                }
            }) as ipipe::rt::ClientGenFn
        };
        c.set_client(0, mk_gen(), 16);
        c.run_for(SimTime::from_ms(8));
        // Stop issuing (outstanding 0 carries the in-flight tail) and drain.
        c.set_client(0, mk_gen(), 0);
        c.run_for(SimTime::from_ms(5));
        let stats = c.completions();
        assert_eq!(stats.issued(), stats.completed(), "tail must drain");
        c.audit().assert_clean();
        let issued_per_group = ledger.borrow().clone();
        assert!(
            issued_per_group.iter().all(|&n| n > 0),
            "uniform keys must hit every group: {issued_per_group:?}"
        );
        let mut r = AuditReport::new(c.now());
        audit_multi_rkv_exactly_once(c.obs().registry(), &dep, &issued_per_group, true, &mut r);
        assert!(r.checks() >= 16, "3 per-replica + 1 coverage per group");
        r.assert_clean();
        // And the audit has teeth: shrink one group's ledger and it trips.
        let mut broken = issued_per_group.clone();
        broken[0] = 0;
        let mut r = AuditReport::new(c.now());
        audit_multi_rkv_exactly_once(c.obs().registry(), &dep, &broken, true, &mut r);
        assert!(!r.is_clean());
    }

    #[test]
    fn rebalancer_moves_only_hot_groups() {
        let mut c = Cluster::builder(CN2350)
            .servers(6)
            .clients(1)
            .seed(3)
            .build();
        let dep = deploy_multi_rkv(&mut c, &small_cfg(4));
        let mut reb = Rebalancer::new(4, RebalanceCfg::default());
        // Nothing observed yet: no moves.
        assert_eq!(reb.step(&mut c, &dep), 0);
        // Synthesize a skewed window: group 2 is 10x hotter than the rest.
        let reg = c.obs().registry();
        for g in 0..4usize {
            let n = dep.group_nodes[g][0];
            reg.counter_in("rkv.ops", Some(g as u16), n)
                .add(if g == 2 { 10_000 } else { 1_000 });
        }
        assert_eq!(reb.step(&mut c, &dep), 1);
        assert_eq!(reb.moves, 1);
        let hot_memtable = dep.groups[2].memtable[0];
        assert_ne!(c.actor_location(hot_memtable), Some(Loc::Nic));
        // Let the four-phase migration finish; the audit must stay clean
        // across the move.
        c.run_for(SimTime::from_ms(30));
        assert_eq!(c.actor_location(hot_memtable), Some(Loc::Host));
        c.audit().assert_clean();
        // The window reset: no further moves without new traffic.
        assert_eq!(reb.step(&mut c, &dep), 0);
    }
}

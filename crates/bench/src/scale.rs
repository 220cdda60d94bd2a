//! The planetary-scale scenario (`traceview --scenario rkv-scale`): a
//! ≥64-group multi-Paxos keyspace serving the aggregated open-loop traffic of a
//! million-plus modeled users, with hotspot-driven rebalancing.
//!
//! Everything the multi-group layer claims is checked here end to end:
//!
//! * one open-loop generator per source node carries the Poisson
//!   superposition of its whole user population (no per-user actors),
//! * every client routes through its own copy of the versioned
//!   [`RoutingTable`] and keeps a per-group write ledger,
//! * the [`Rebalancer`] reads the per-group ops counters at fixed
//!   observation boundaries and migrates hot groups' leader actors from
//!   NIC to host cores mid-run,
//! * after the arrival window closes the in-flight tail fully drains, and
//!   the cluster-wide conservation audit plus the per-group
//!   [`audit_multi_rkv_exactly_once`] reconciliation must come back clean —
//!   shard moves included,
//! * and the whole run is byte-identical at any `--shards` count: the
//!   scenario runs metrics-only (its full-size trace would overflow the
//!   ring, and an overflowing ring can keep different records at the
//!   retention boundary when sharded), all workload draws are token-pure,
//!   and rebalance decisions read shard-invariant counters at epoch
//!   barriers.
//!
//! [`RoutingTable`]: ipipe_apps::rkv::placement::RoutingTable
//! [`Rebalancer`]: ipipe_apps::rkv::multi::Rebalancer
//! [`audit_multi_rkv_exactly_once`]: ipipe_apps::rkv::multi::audit_multi_rkv_exactly_once

use ipipe::rt::{ClientReq, Cluster, CompletionStats, OpenLoopCfg, RetryPolicy, RuntimeMode};
use ipipe_apps::rkv::actors::RkvMsg;
use ipipe_apps::rkv::multi::{
    audit_multi_rkv_exactly_once, deploy_multi_rkv, MultiRkv, MultiRkvCfg, RebalanceCfg, Rebalancer,
};
use ipipe_nicsim::CN2350;
use ipipe_sim::audit::AuditReport;
use ipipe_sim::obs::Obs;
use ipipe_sim::SimTime;
use ipipe_workload::agg::{aggregate_rate, AggKvStream};
use std::cell::RefCell;
use std::rc::Rc;

use crate::scenario::{Headline, Scenario, Size};

/// Full parameterization of one scale run.
#[derive(Debug, Clone, Copy)]
pub struct ScaleSpec {
    /// Paxos groups the keyspace is sharded over.
    pub groups: usize,
    /// Replicas per group.
    pub replicas: usize,
    /// Server nodes.
    pub servers: usize,
    /// Source (client) nodes; each aggregates `users_per_client` users.
    pub clients: usize,
    /// Modeled users behind each source node.
    pub users_per_client: u64,
    /// Poisson rate per user (requests/second).
    pub per_user_rps: f64,
    /// Key population.
    pub keys: u64,
    /// Zipf skew of key popularity (hotspot pressure).
    pub skew: f64,
    /// Read fraction of the mix.
    pub read_ratio: f64,
    /// Write value size in bytes.
    pub value_len: usize,
    /// Routing-table hash buckets.
    pub buckets: usize,
    /// Open-loop arrival window.
    pub run: SimTime,
    /// Extra window for the in-flight tail to drain.
    pub drain: SimTime,
    /// Rebalancer observation period.
    pub rebalance_every: SimTime,
    /// Master seed.
    pub seed: u64,
    /// Event shards (1 = serial reference; must not change one byte).
    pub shards: usize,
}

impl ScaleSpec {
    /// Scale a spec from the two headline knobs. Servers track half the
    /// group count (each node carries a handful of replica sets), clients
    /// split the user population into per-source aggregates.
    pub fn custom(seed: u64, shards: usize, groups: usize, users: u64) -> ScaleSpec {
        let replicas = 3;
        let servers = (groups / 2).max(replicas);
        let clients = if users >= 1 << 20 { 8 } else { 4 };
        ScaleSpec {
            groups,
            replicas,
            servers,
            clients,
            users_per_client: users / clients as u64,
            per_user_rps: 2.5,
            keys: 1_000_000,
            skew: 1.1,
            read_ratio: 0.95,
            value_len: 32,
            buckets: (groups * 64).max(1024),
            run: SimTime::from_ms(8),
            drain: SimTime::from_ms(4),
            rebalance_every: SimTime::from_ms(2),
            seed,
            shards,
        }
    }

    /// The headline deliverable: 64 groups over 32 NIC+host nodes serving
    /// 2^20 (1,048,576) modeled users from 8 source nodes — ~2.6M aggregate
    /// requests/second of Zipf-1.1 traffic.
    pub fn planetary(seed: u64, shards: usize) -> ScaleSpec {
        ScaleSpec::custom(seed, shards, 64, 1 << 20)
    }

    /// The CI size: 16 groups, 10^5 modeled users.
    pub fn smoke(seed: u64, shards: usize) -> ScaleSpec {
        ScaleSpec::custom(seed, shards, 16, 100_000)
    }

    /// Total modeled users.
    pub fn users(&self) -> u64 {
        self.users_per_client * self.clients as u64
    }
}

/// Headline numbers from one scale run.
#[derive(Debug, Clone, Copy)]
pub struct ScaleStats {
    /// Paxos groups deployed.
    pub groups: usize,
    /// Modeled users.
    pub users: u64,
    /// Requests issued by the open-loop generators.
    pub issued: u64,
    /// Requests completed (equals `issued` after the drain).
    pub done: u64,
    /// Committed throughput over the arrival window (requests/second).
    pub throughput_rps: f64,
    /// Median end-to-end latency (µs).
    pub p50_us: f64,
    /// Tail end-to-end latency (µs).
    pub p99_us: f64,
    /// Hot-shard migrations the rebalancer started.
    pub migrations: u64,
    /// Events processed across all shards (the DES work metric).
    pub events: u64,
}

/// Build the spec's cluster: the keyspace scenarios run metrics-only (their
/// full-size trace would overflow the ring, whose retained records can
/// differ at the boundary under sharding).
pub fn build_keyspace_cluster(spec: &ScaleSpec) -> Cluster {
    Cluster::builder(CN2350)
        .servers(spec.servers)
        .clients(spec.clients)
        .mode(RuntimeMode::IPipe)
        .seed(spec.seed)
        .shards(spec.shards)
        .build()
}

/// Deploy the spec's Paxos groups over its server nodes.
pub fn deploy_keyspace(c: &mut Cluster, spec: &ScaleSpec) -> MultiRkv {
    deploy_multi_rkv(
        c,
        &MultiRkvCfg {
            groups: spec.groups,
            replicas: spec.replicas,
            server_nodes: spec.servers,
            buckets: spec.buckets,
            memtable_flush: 8 << 20,
            heartbeat: None,
            seed: spec.seed,
        },
    )
}

/// Per-group count of the writes one source node issued.
pub(crate) type WriteLedger = Rc<RefCell<Vec<u64>>>;

/// Install one aggregated open-loop generator per source node at the spec's
/// base rate, each routing through its own copy of the routing table
/// (refreshed from Redirects) and keeping a per-group write ledger (summed
/// for the exactly-once audit).
pub(crate) fn install_agg_clients(
    c: &mut Cluster,
    spec: &ScaleSpec,
    dep: &MultiRkv,
) -> Vec<WriteLedger> {
    let stream = AggKvStream::new(
        spec.seed ^ 0xA66,
        spec.users_per_client,
        spec.keys,
        spec.skew,
        spec.read_ratio,
        spec.value_len,
    );
    let mut ledgers = Vec::new();
    for cl in 0..spec.clients {
        let table = Rc::new(RefCell::new(dep.table.clone()));
        let ledger = Rc::new(RefCell::new(vec![0u64; spec.groups]));
        ledgers.push(ledger.clone());
        let gen_table = table.clone();
        c.set_client_open_loop(
            cl,
            Box::new(move |rng, token| {
                let op = stream.op_for(token);
                let t = gen_table.borrow();
                let g = t.group_of(op.key());
                if !op.is_read() {
                    ledger.borrow_mut()[g as usize] += 1;
                }
                ClientReq {
                    dst: t.leader_of(g),
                    wire_size: 42 + op.wire_size(),
                    flow: rng.below(1 << 20),
                    payload: Some(Box::new(RkvMsg::Client(op))),
                }
            }),
            OpenLoopCfg {
                rate_rps: aggregate_rate(spec.users_per_client, spec.per_user_rps),
                until: spec.run,
            },
        );
        // Token-pure retransmission: the payload rebuilds from the stream,
        // the destination comes from the (possibly refreshed) retry slot.
        c.set_client_retry(
            cl,
            RetryPolicy {
                timeout: SimTime::from_us(500),
                cap: SimTime::from_ms(2),
                max_tries: 64,
            },
            Some(Box::new(move |token| {
                Some(Box::new(RkvMsg::Client(stream.op_for(token))))
            })),
        );
        c.set_client_route_refresh(
            cl,
            Box::new(move |old, new| {
                table.borrow_mut().refresh(old, new);
            }),
        );
    }
    ledgers
}

/// Drain the in-flight tail, then run the quiesce-time checks: the
/// cluster-wide conservation audit, a balanced completion ledger, and the
/// per-group apply reconciliation.
///
/// With `sheds == false` every issued request must complete and every
/// issued write must apply exactly once. With `sheds == true` a request
/// may also end shed or abandoned, and only at-most-once is asserted:
/// remote-shed writes bump the client ledgers but never apply, so
/// `applies <= issued writes` is the exact post-shedding invariant.
pub(crate) fn drain_and_audit(
    c: &mut Cluster,
    spec: &ScaleSpec,
    dep: &MultiRkv,
    ledgers: &[WriteLedger],
    sheds: bool,
) -> CompletionStats {
    // (issued, settled): the ledger balances when the two are equal.
    let ledger = |c: &Cluster| {
        let s = c.completions();
        let settled = if sheds {
            let abandoned = c.obs().registry().counter("client.retry.abandoned");
            s.completed() + s.shed() + abandoned.get()
        } else {
            s.completed()
        };
        (s.issued(), settled)
    };
    // A straggler can sit behind several capped retry backoffs, so grant
    // extra windows until the ledger balances — the loop condition reads
    // shard-invariant counts at `run_for` barriers, so the total duration
    // (and with it the event stream) is identical at any shard count.
    c.run_for(spec.drain);
    for _ in 0..16 {
        let (issued, settled) = ledger(c);
        if issued == settled {
            break;
        }
        c.run_for(spec.drain);
    }
    let mut report = c.audit();
    let (issued, settled) = ledger(c);
    let drained = issued == settled;
    report.check(
        "keyspace.drained",
        ipipe_sim::audit::CLUSTER_WIDE,
        drained,
        || format!("issued {issued} != settled {settled}: the tail must drain"),
    );
    let mut writes = vec![0u64; spec.groups];
    for l in ledgers {
        for (g, n) in l.borrow().iter().enumerate() {
            writes[g] += n;
        }
    }
    let mut rkv_report = AuditReport::new(c.now());
    let full_coverage = !sheds && drained;
    audit_multi_rkv_exactly_once(
        c.obs().registry(),
        dep,
        &writes,
        full_coverage,
        &mut rkv_report,
    );
    report.merge(rkv_report);
    report.assert_clean();
    c.completions()
}

/// Run the scale scenario described by `spec`, its shards one after the
/// other: deploy the groups, install the aggregated open-loop clients,
/// rebalance on a fixed cadence, drain, and audit. Hands back the cluster so
/// callers can pull its canonical exports.
pub fn run_rkv_scale(spec: &ScaleSpec) -> (ScaleStats, Cluster) {
    let mut c = build_keyspace_cluster(spec);
    let dep = deploy_keyspace(&mut c, spec);
    let ledgers = install_agg_clients(&mut c, spec, &dep);
    // Arrival window, with rebalance observations on a fixed cadence. The
    // ops counters are shard-invariant at run_for boundaries, so the move
    // decisions — and therefore the whole event stream — replay identically
    // at any shard count.
    let mut reb = Rebalancer::new(spec.groups, RebalanceCfg::default());
    let mut elapsed = SimTime::ZERO;
    while elapsed < spec.run {
        let step = spec.rebalance_every.min(spec.run.saturating_sub(elapsed));
        c.run_for(step);
        elapsed += step;
        reb.step(&mut c, &dep);
    }
    let stats = drain_and_audit(&mut c, spec, &dep, &ledgers, false);
    let wall = c.now().as_secs_f64();
    let stats = ScaleStats {
        groups: spec.groups,
        users: spec.users(),
        issued: stats.issued(),
        done: stats.count(),
        throughput_rps: stats.count() as f64 / wall,
        p50_us: stats.p50().as_us_f64(),
        p99_us: stats.p99().as_us_f64(),
        migrations: reb.moves,
        events: c.shard_events().iter().sum(),
    };
    (stats, c)
}

/// Registry entry for this scenario.
pub struct RkvScale;

impl Scenario for RkvScale {
    fn name(&self) -> &'static str {
        "rkv-scale"
    }

    fn figure_seed(&self) -> u64 {
        64
    }

    fn shard_counts(&self) -> &'static [usize] {
        &[1, 2, 4, 8]
    }

    fn must_be_nonzero(&self) -> &'static [&'static str] {
        &["migrations"]
    }

    fn run(&self, size: Size, seed: u64, shards: usize, _: &Obs) -> (Headline, Cluster) {
        let spec = match size {
            Size::Smoke => ScaleSpec::smoke(seed, shards),
            Size::Full => ScaleSpec::planetary(seed, shards),
        };
        let (s, c) = run_rkv_scale(&spec);
        let headline = vec![
            ("groups", s.groups.to_string()),
            ("users", s.users.to_string()),
            ("issued", s.issued.to_string()),
            ("done", s.done.to_string()),
            ("migrations", s.migrations.to_string()),
            ("throughput_rps", format!("{:.0}", s.throughput_rps)),
            ("p50_us", format!("{:.1}", s.p50_us)),
            ("p99_us", format!("{:.1}", s.p99_us)),
            ("events", s.events.to_string()),
        ];
        (headline, c)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_run_is_audit_clean_and_fully_drained() {
        let (stats, _c) = run_rkv_scale(&ScaleSpec::smoke(7, 1));
        assert_eq!(stats.groups, 16);
        assert_eq!(stats.users, 100_000);
        assert_eq!(stats.issued, stats.done, "drain must complete");
        assert!(stats.issued > 500, "issued={}", stats.issued);
        assert!(stats.p99_us >= stats.p50_us);
        assert!(stats.events > 10_000);
    }

    #[test]
    fn hotspots_trigger_rebalancing_migrations() {
        // Zipf 1.1 concentrates enough traffic on the hottest groups that
        // the rebalancer must start at least one shard move.
        let (stats, _c) = run_rkv_scale(&ScaleSpec::smoke(7, 1));
        assert!(stats.migrations > 0, "no hot shard moved");
    }
}

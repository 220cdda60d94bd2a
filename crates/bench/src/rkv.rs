//! The plain replicated-KV scenario (`traceview --scenario rkv`): the
//! cluster of `examples/replicated_kv.rs` — one 3-replica Paxos group, one
//! closed-loop client on the paper's default mix — traced, with a forced
//! memtable migration mid-run so the migration spans show up. It has one
//! size; [`fault`](crate::fault) builds on the same cluster.

use ipipe::rt::{Cluster, RuntimeMode};
use ipipe_apps::rkv::actors::{client_gen, deploy_rkv};
use ipipe_nicsim::CN2350;
use ipipe_sim::obs::Obs;
use ipipe_sim::SimTime;
use ipipe_workload::kv::KvWorkload;

use crate::scenario::{Headline, Scenario, Size};

/// Three servers and one client on CN2350 cards, publishing into `obs`.
pub(crate) fn build_rkv_cluster(seed: u64, shards: usize, threaded: bool, obs: &Obs) -> Cluster {
    Cluster::builder(CN2350)
        .servers(3)
        .clients(1)
        .mode(RuntimeMode::IPipe)
        .seed(seed)
        .obs(obs.clone())
        .shards(shards)
        .parallel(threaded)
        .build()
}

/// Registry entry for this scenario.
pub struct Rkv;

impl Scenario for Rkv {
    fn name(&self) -> &'static str {
        "rkv"
    }

    fn figure_seed(&self) -> u64 {
        2
    }

    fn shard_counts(&self) -> &'static [usize] {
        &[1, 2, 4]
    }

    fn run(
        &self,
        _: Size,
        seed: u64,
        shards: usize,
        threaded: bool,
        obs: &Obs,
    ) -> (Headline, Cluster) {
        let mut c = build_rkv_cluster(seed, shards, threaded, obs);
        let dep = deploy_rkv(&mut c, &[0, 1, 2], 8 << 20);
        let wl = KvWorkload::paper_default(512, 1);
        c.set_client(0, client_gen(dep.consensus[0], 512, wl), 64);
        c.run_for(SimTime::from_ms(2));
        // Exercise the migration machinery so its spans show up in the trace.
        c.force_migrate(dep.memtable[0]);
        c.run_for(SimTime::from_ms(4));
        let stats = c.completions();
        let headline = vec![
            ("issued", stats.issued().to_string()),
            ("done", stats.count().to_string()),
            ("p99_us", format!("{:.1}", stats.p99().as_us_f64())),
            ("events", c.shard_events().iter().sum::<u64>().to_string()),
        ];
        (headline, c)
    }
}

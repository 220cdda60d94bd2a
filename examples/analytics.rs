//! The real-time analytics pipeline (§4): filter → counter → ranker over a
//! synthetic Twitter-like tuple stream, with one worker chain per server and
//! a forced ranker migration half-way through (the paper's response to high
//! network load).
//!
//! ```text
//! cargo run --release --example analytics
//! ```

use ipipe_repro::apps::rta::actors::{client_gen, deploy_rta};
use ipipe_repro::ipipe::prelude::*;
use ipipe_repro::ipipe::rt::Cluster;
use ipipe_repro::nicsim::CN2350;
use ipipe_repro::workload::rta::RtaWorkload;

fn main() {
    // Autonomous migration off so the forced migration below is the story
    // (with it on, the idle-pull path would bring the ranker back).
    let cfg = ipipe_repro::ipipe::sched::SchedConfig::for_nic(&CN2350).no_migration();
    let mut c = Cluster::builder(CN2350)
        .servers(3)
        .clients(1)
        .sched(cfg)
        .seed(8)
        .build();
    let dep = deploy_rta(&mut c, &[0, 1, 2]);
    let ranker0 = dep.topo.ranker[0];

    let wl = RtaWorkload::paper_default(4);
    c.set_client(0, client_gen(dep.filters, 512, wl), 48);

    c.run_for(SimTime::from_ms(5));
    c.reset_measurements();
    c.run_for(SimTime::from_ms(8));
    println!("phase 1 (ranker on NIC):");
    println!("  tuples/s batches : {:.0} req/s", c.throughput_rps());
    println!("  p99 latency      : {}", c.completions().p99());
    println!("  ranker location  : {:?}", c.actor_location(ranker0));

    // High load arrives: push the heavyweight quicksort ranker to the host,
    // exactly what the iPipe scheduler does on its own under pressure (§4).
    assert!(c.force_migrate(ranker0));
    c.run_for(SimTime::from_ms(4));
    c.reset_measurements();
    c.run_for(SimTime::from_ms(8));
    println!("phase 2 (ranker migrated to host):");
    println!("  tuples/s batches : {:.0} req/s", c.throughput_rps());
    println!("  p99 latency      : {}", c.completions().p99());
    println!("  ranker location  : {:?}", c.actor_location(ranker0));
    let report = &c.migration_reports(0)[0];
    println!(
        "  migration phases : p1={} p2={} p3={} p4={} (total {})",
        report.phase_times[0],
        report.phase_times[1],
        report.phase_times[2],
        report.phase_times[3],
        report.total()
    );
}

//! The real-time analytics pipeline (§4): filter → counter → ranker over a
//! synthetic Twitter-like tuple stream, with one worker chain per server and
//! a forced push of node 0's ranker to the host half-way through.
//!
//! The filter acks the client itself, so the ranker is downstream of every
//! completion and a move cannot show in throughput or latency. What it
//! changes is where node 0 spends its cores: each phase prints node 0's NIC
//! and host cores and the messages that crossed its PCIe ring.
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
    phase(&mut c, "phase 1 (ranker on NIC)");
    println!("  ranker location  : {:?}", c.actor_location(ranker0));

    // Push the heavyweight quicksort ranker to the host, then give the
    // move time to finish before the next window opens.
    assert!(c.force_migrate(ranker0));
    c.run_for(SimTime::from_ms(4));
    phase(&mut c, "phase 2 (ranker on host)");
    println!("  ranker location  : {:?}", c.actor_location(ranker0));
    let report = c.last_migration(0).unwrap();
    println!("  migrated actor   : {}", c.actor_name(ranker0).unwrap());
    println!(
        "  migration phases : p1={} p2={} p3={} p4={} (total {})",
        report.phase_times[0],
        report.phase_times[1],
        report.phase_times[2],
        report.phase_times[3],
        report.total()
    );
}

/// Run one 8 ms measurement window and print where node 0's work ran.
fn phase(c: &mut Cluster, title: &str) {
    c.reset_measurements();
    let crossed = c.ring_messages(0);
    c.run_for(SimTime::from_ms(8));
    println!("{title}:");
    println!("  NIC cores used   : {:.3}", c.nic_cores_used(0));
    println!("  host cores used  : {:.3}", c.host_cores_used(0));
    println!("  ring crossings   : {}", c.ring_messages(0) - crossed);
}

//! The replicated key-value store (§4) on a 3-replica SmartNIC testbed:
//! Multi-Paxos consensus + LSM tree, 95/5 read/write Zipf workload.
//!
//! ```text
//! cargo run --release --example replicated_kv
//! ```

use ipipe_repro::apps::rkv::actors::{client_gen, deploy_rkv};
use ipipe_repro::ipipe::prelude::*;
use ipipe_repro::ipipe::rt::{Cluster, RuntimeMode};
use ipipe_repro::nicsim::CN2350;
use ipipe_repro::workload::kv::KvWorkload;

fn drive(mode: RuntimeMode, label: &str) {
    let mut c = Cluster::builder(CN2350)
        .servers(3)
        .clients(1)
        .mode(mode)
        .seed(99)
        .build();
    let dep = deploy_rkv(&mut c, &[0, 1, 2], 8 << 20);
    let wl = KvWorkload::paper_default(512, 1);
    c.set_client(0, client_gen(dep.consensus[0], 512, wl), 64);
    c.run_for(SimTime::from_ms(4)); // warm up
    c.reset_measurements();
    c.run_for(SimTime::from_ms(15));

    println!("--- {label} ---");
    println!("throughput      : {:.0} req/s", c.throughput_rps());
    println!(
        "mean / p99      : {} / {}",
        c.completions().mean(),
        c.completions().p99()
    );
    for n in 0..3 {
        println!(
            "node {n}: host cores {:.2}, NIC cores {:.2}",
            c.host_cores_used(n),
            c.nic_cores_used(n)
        );
    }
    println!();
}

fn main() {
    // The Fig 13/14 comparison in miniature: host-only DPDK vs iPipe.
    drive(RuntimeMode::HostDpdk, "DPDK host-only baseline");
    drive(RuntimeMode::IPipe, "iPipe (NIC offload)");
}

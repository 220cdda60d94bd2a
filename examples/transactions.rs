//! Distributed transactions (§4): OCC + two-phase commit with a coordinator
//! on one SmartNIC and participants on two others, including the host-pinned
//! logging actor and coordinator-log checkpointing.
//!
//! ```text
//! cargo run --release --example transactions
//! ```

use ipipe_repro::apps::dt::actors::{client_gen, deploy_dt};
use ipipe_repro::ipipe::prelude::*;
use ipipe_repro::ipipe::rt::Cluster;
use ipipe_repro::nicsim::CN2350;
use ipipe_repro::workload::txn::TxnWorkload;

fn main() {
    let mut c = Cluster::builder(CN2350)
        .servers(3)
        .clients(1)
        .seed(5)
        .build();
    // Small log limit so checkpoints to the host logger are visible.
    let dep = deploy_dt(&mut c, 0, &[1, 2], 64 * 1024);

    let wl = TxnWorkload::paper_default(512, 2);
    c.set_client(0, client_gen(dep.coordinator, 512, wl), 32);

    c.run_for(SimTime::from_ms(3));
    c.reset_measurements();
    c.run_for(SimTime::from_ms(15));

    println!("transactions completed : {}", c.completions().count());
    println!("throughput             : {:.0} txn/s", c.throughput_rps());
    println!(
        "latency mean/p50/p99   : {} / {} / {}",
        c.completions().mean(),
        c.completions().p50(),
        c.completions().p99()
    );
    println!(
        "coordinator node: host cores {:.2} (logging actor), NIC cores {:.2}",
        c.host_cores_used(0),
        c.nic_cores_used(0)
    );
    println!(
        "participants   : host {:.2}/{:.2}, NIC {:.2}/{:.2}",
        c.host_cores_used(1),
        c.host_cores_used(2),
        c.nic_cores_used(1),
        c.nic_cores_used(2)
    );
    println!(
        "PCIe ring messages on coordinator node: {}",
        c.ring_messages(0)
    );
}

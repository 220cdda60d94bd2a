//! The fault-recovery scenario behind `traceview --scenario rkv-fault`, the
//! `fault_recovery` acceptance test and the CI determinism diff: a 3-replica
//! RKV group under a seeded 1% packet loss plus one forced leader crash.
//!
//! The run must demonstrate the whole recovery stack end to end:
//!
//! * client timeout/retransmission rides out the lossy links,
//! * the heartbeat failure detector, the only thing that starts an
//!   election, elects a replacement leader,
//! * the deposed leader steps down when it rejoins and its writes are shed
//!   toward the new leader via `Redirect`,
//! * apply-time token dedup keeps every client write exactly-once,
//! * and — because every random draw flows through seeded [`DetRng`]
//!   streams — two same-seed runs export byte-identical metrics and traces.
//!
//! [`DetRng`]: ipipe_sim::DetRng

use ipipe::rt::{ClientReq, Cluster, RetryPolicy};
use ipipe_apps::rkv::actors::{audit_rkv_exactly_once, deploy_rkv_with, HeartbeatCfg, RkvMsg};
use ipipe_apps::rkv::lsm::KEY_LEN;
use ipipe_netsim::FaultPlan;
use ipipe_sim::audit::AuditReport;
use ipipe_sim::obs::Obs;
use ipipe_sim::SimTime;
use ipipe_workload::kv::KvOp;

use crate::rkv::build_rkv_cluster;
use crate::scenario::{Headline, Scenario, Size};

/// Requests the closed-loop client keeps in flight.
pub const OUTSTANDING: u32 = 32;

/// When the initial leader's node goes dark.
pub const CRASH_AT_MS: u64 = 4;

/// When it comes back (as a stale leader that must step down).
pub const RESTART_AT_MS: u64 = 10;

/// Total simulated duration.
pub const RUN_MS: u64 = 30;

/// Headline numbers from one fault-recovery run.
#[derive(Debug, Clone, Copy)]
pub struct FaultRunStats {
    /// Unique client writes completed before the leader crash.
    pub before_crash: u64,
    /// Unique client writes completed by the end of the run.
    pub done: u64,
    /// Writes issued (each with a distinct token/key).
    pub issued: u64,
    /// Per replica (node 0, 1, 2), the writes its consensus actor applied
    /// ([`RkvDeployment::applied`]); not part of the headline.
    ///
    /// [`RkvDeployment::applied`]: ipipe_apps::rkv::actors::RkvDeployment::applied
    pub applied: [u64; 3],
}

/// Deterministic write for a token: the client generator and the retry
/// machinery's `payload_fn` must rebuild identical commands.
fn put_for(token: u64) -> KvOp {
    let mut key = [0u8; KEY_LEN];
    key[..8].copy_from_slice(&token.to_le_bytes());
    KvOp::Put {
        key,
        value: vec![0xAB; 32],
    }
}

/// Run the scenario across `shards` event shards (clamped to the 4-node
/// topology), one after the other: deploy the 3-replica RKV group, wire the
/// retrying client, inject the fault plan, run through crash and recovery,
/// and audit at quiesce. Every shard's metrics and traces accumulate into
/// `obs`, the cluster's one handle.
pub fn run_rkv_fault(seed: u64, shards: usize, obs: &Obs) -> (FaultRunStats, Cluster) {
    let mut c = build_rkv_cluster(seed, shards, obs);
    let dep = deploy_rkv_with(
        &mut c,
        &[0, 1, 2],
        8 << 20,
        Some(HeartbeatCfg::lan_default()),
    );
    // The client only ever targets the boot-time leader; after the crash it
    // must be steered to the replacement by Redirect replies alone.
    let leader = dep.consensus[0];
    c.set_client(
        0,
        Box::new(move |rng, token| {
            let op = put_for(token);
            ClientReq {
                dst: leader,
                wire_size: 42 + op.wire_size(),
                flow: rng.below(1 << 20),
                payload: Some(Box::new(RkvMsg::Client(op))),
            }
        }),
        OUTSTANDING,
    );
    // Generous retry budget: with ~17 transmissions reachable inside the
    // run, max_tries 64 means a write is never abandoned — "all client
    // writes commit" is checkable as issued - done <= OUTSTANDING.
    c.set_client_retry(
        0,
        RetryPolicy {
            timeout: SimTime::from_us(200),
            cap: SimTime::from_ms(2),
            max_tries: 64,
        },
        Some(Box::new(|token| {
            Some(Box::new(RkvMsg::Client(put_for(token))))
        })),
    );
    // Seeded faults: 1% loss on every link, and the leader's node dark for
    // [CRASH_AT_MS, RESTART_AT_MS).
    c.set_fault_plan(FaultPlan::new(seed ^ 0xFA17).with_loss(0.01).with_crash(
        0,
        SimTime::from_ms(CRASH_AT_MS),
        SimTime::from_ms(RESTART_AT_MS),
    ));
    c.run_for(SimTime::from_ms(CRASH_AT_MS));
    let before_crash = c.completions().count();
    c.run_for(SimTime::from_ms(RUN_MS - CRASH_AT_MS));
    // Quiesce-time conservation sweep: a crash, a restart and thousands of
    // retransmissions must still leave every ledger balanced.
    c.audit().assert_clean();
    let stats = FaultRunStats {
        before_crash,
        done: c.completions().count(),
        issued: c.completions().issued(),
        applied: std::array::from_fn(|r| dep.applied[r].get()),
    };
    // Exactly-once on all three replicas, the restarted one included (its
    // token filter survives the crash). The deployment registered the apply
    // counters in `c.obs()` at any shard count. The report stays out of
    // `obs`, so the exports do not carry it.
    let mut r = AuditReport::new(c.now());
    let reg = c.obs().registry();
    audit_rkv_exactly_once(reg, &dep, stats.issued, stats.done, &mut r);
    r.assert_clean();
    (stats, c)
}

/// Registry entry for this scenario; it has one size.
pub struct RkvFault;

impl Scenario for RkvFault {
    fn name(&self) -> &'static str {
        "rkv-fault"
    }

    fn figure_seed(&self) -> u64 {
        7
    }

    fn shard_counts(&self) -> &'static [usize] {
        &[1, 2, 4, 8]
    }

    fn must_be_nonzero(&self) -> &'static [&'static str] {
        &["before_crash"]
    }

    fn run(&self, _: Size, seed: u64, shards: usize, obs: &Obs) -> (Headline, Cluster) {
        let (stats, c) = run_rkv_fault(seed, shards, obs);
        let headline = vec![
            ("issued", stats.issued.to_string()),
            ("done", stats.done.to_string()),
            ("before_crash", stats.before_crash.to_string()),
            ("events", c.shard_events().iter().sum::<u64>().to_string()),
        ];
        (headline, c)
    }
}

//! PR acceptance: with a seeded fault plan (1% loss + one forced leader
//! crash) the RKV cluster elects a new leader through the heartbeat failure
//! detector alone, commits every client write exactly once, and two
//! same-seed runs export byte-identical metrics and traces.

use ipipe_bench::fault::{run_rkv_fault, FaultRunStats, OUTSTANDING};
use ipipe_sim::obs::{Obs, TraceLevel};

fn faulted_run(seed: u64) -> (FaultRunStats, String, String) {
    let obs = Obs::with_level(TraceLevel::Spans);
    let (stats, _) = run_rkv_fault(seed, 1, &obs);
    (stats, obs.export_jsonl(), obs.export_chrome())
}

#[test]
fn rkv_recovers_from_leader_crash_without_operator_signal() {
    let obs = Obs::with_level(TraceLevel::Spans);
    let (stats, _) = run_rkv_fault(7, 1, &obs);
    assert!(
        stats.before_crash > 500,
        "pre-crash throughput with 1% loss: {}",
        stats.before_crash
    );
    // The crash window plus failover costs throughput, but the group must
    // come back and serve far more than it had at the crash — without any
    // operator StartElection message anywhere in the scenario.
    assert!(
        stats.done > stats.before_crash + 1_000,
        "writes must flow through the auto-elected leader: {} -> {}",
        stats.before_crash,
        stats.done
    );
    // All client writes commit: a write is never abandoned (budget is
    // larger than the run allows tries), so the only incomplete tokens are
    // the closed-loop tail still in flight at the cutoff.
    let reg = obs.registry();
    assert_eq!(
        reg.counter("client.retry.abandoned").get(),
        0,
        "no write may exhaust its retry budget"
    );
    assert!(
        stats.issued - stats.done <= OUTSTANDING as u64,
        "every issued write completed except the in-flight tail: issued={} done={}",
        stats.issued,
        stats.done
    );
    // The recovery machinery actually engaged.
    assert!(
        reg.counter("client.retry.sent").get() > 0,
        "loss must trigger retransmissions"
    );
    assert!(
        reg.counter("client.redirects").get() > 0,
        "the deposed leader must shed writes toward its successor"
    );
    assert!(
        reg.counter_on("fault.drop.node", 0).get() > 0,
        "the crash window must have eaten traffic"
    );
    // Exactly-once: the final leader (replica 1, node 1) applied every
    // completed write, and no replica applied more than the unique tokens
    // issued. A broken dedup path would re-apply each lost-reply
    // retransmission and blow well past the slack.
    let applies_new_leader = reg.counter_on("rkv.applies", 1).get();
    assert!(
        applies_new_leader >= stats.done,
        "a write completed without being applied at the leader: applies={} done={}",
        applies_new_leader,
        stats.done
    );
    assert!(
        applies_new_leader <= stats.done + 2 * OUTSTANDING as u64,
        "duplicate applies slipped through dedup: applies={} done={}",
        applies_new_leader,
        stats.done
    );
    for node in 0..3u16 {
        let applies = reg.counter_on("rkv.applies", node).get();
        assert!(
            applies <= stats.issued,
            "node {node} applied more commands than unique tokens: {applies}"
        );
    }
}

#[test]
fn faulted_runs_replay_byte_for_byte() {
    let (stats_a, jsonl_a, chrome_a) = faulted_run(7);
    let (stats_b, jsonl_b, chrome_b) = faulted_run(7);
    assert_eq!(stats_a.done, stats_b.done);
    assert_eq!(stats_a.issued, stats_b.issued);
    assert_eq!(jsonl_a, jsonl_b, "faulted JSONL export diverged");
    assert_eq!(chrome_a, chrome_b, "faulted Chrome export diverged");
    // The export carries the fault-layer instrumentation.
    assert!(
        jsonl_a.contains("\"fault.drop.loss\""),
        "loss metrics missing"
    );
    assert!(
        jsonl_a.contains("\"fault.drop.node\""),
        "crash metrics missing"
    );
    assert!(
        jsonl_a.contains("\"rkv.applies\""),
        "exactly-once ledger missing"
    );
    // And the seed actually reaches the faulted run.
    let (_, jsonl_c, _) = faulted_run(8);
    assert_ne!(jsonl_a, jsonl_c, "seed is not reaching the faulted run");
}

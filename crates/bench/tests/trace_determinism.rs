//! Same-seed runs must produce byte-identical observability exports — both
//! the JSONL (metrics + trace records) and the Chrome `trace_event` JSON.
//! This is the trace-layer companion of the figures ledger: that pins
//! simulation *results*, this pins the *exports* the results are rendered
//! from. Any wall-clock read, unordered-map iteration, or
//! float-formatting drift in the obs layer shows up here as a byte diff.

use ipipe::sched::Discipline;
use ipipe_baseline::fig16::run_fig16_obs;
use ipipe_bench::rkv::Rkv;
use ipipe_bench::scenario::{Scenario, Size};
use ipipe_nicsim::CN2350;
use ipipe_sim::obs::{Obs, TraceLevel};
use ipipe_workload::service::{fig16_distribution, Dispersion, Fig16Card};

/// One Fig 16 cell, traced: scheduler metrics + per-execution spans.
fn fig16_exports(seed: u64) -> (String, String) {
    let obs = Obs::with_level(TraceLevel::Spans);
    let dist = fig16_distribution(Fig16Card::LiquidIo, Dispersion::High);
    let cfg = ipipe::sched::SchedConfig::for_nic(&CN2350)
        .with_discipline(Discipline::Hybrid)
        .no_migration();
    run_fig16_obs(&CN2350, dist, cfg, 0.6, 8, 4000, seed, &obs);
    (obs.export_jsonl(), obs.export_chrome())
}

/// The replicated-KV scenario (rt + net + migration spans), traced.
fn rkv_exports(seed: u64) -> (String, String) {
    let obs = Obs::with_level(TraceLevel::Spans);
    Rkv.run(Size::Full, seed, 1, &obs);
    (obs.export_jsonl(), obs.export_chrome())
}

#[test]
fn fig16_trace_exports_replay_byte_for_byte() {
    let (jsonl_a, chrome_a) = fig16_exports(2);
    let (jsonl_b, chrome_b) = fig16_exports(2);
    assert_eq!(jsonl_a, jsonl_b, "fig16 JSONL export diverged across runs");
    assert_eq!(
        chrome_a, chrome_b,
        "fig16 Chrome export diverged across runs"
    );
    // The export actually contains the instrumentation, not just headers.
    assert!(
        jsonl_a.contains("\"sched.arrivals\""),
        "missing sched metrics"
    );
    assert!(chrome_a.contains("\"exec\""), "missing exec spans");
    // A different seed must change the bytes — the equality above is not
    // trivially comparing empty or constant output.
    let (jsonl_c, _) = fig16_exports(3);
    assert_ne!(jsonl_a, jsonl_c, "seed is not reaching the traced run");
}

#[test]
fn rkv_cluster_trace_exports_replay_byte_for_byte() {
    let (jsonl_a, chrome_a) = rkv_exports(99);
    let (jsonl_b, chrome_b) = rkv_exports(99);
    assert_eq!(jsonl_a, jsonl_b, "rkv JSONL export diverged across runs");
    assert_eq!(chrome_a, chrome_b, "rkv Chrome export diverged across runs");
    assert!(
        jsonl_a.contains("\"rt.exec.nic\""),
        "missing runtime metrics"
    );
    assert!(jsonl_a.contains("\"net.packets\""), "missing link metrics");
    assert!(
        jsonl_a.contains("\"migrate.completed\""),
        "forced migration not recorded"
    );
    assert!(
        chrome_a.contains("\"phase3\""),
        "migration phase spans missing from Chrome export"
    );
}

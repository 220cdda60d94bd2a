//! Run a traced scenario and summarize its observability output.
//!
//! ```text
//! cargo run --release --bin traceview -- [--scenario NAME] [--seed N] \
//!     [--shards N] [--smoke] [--verbose] [--out DIR]
//! ```
//!
//! `NAME` is any scenario of [`ipipe_bench::scenario::REGISTRY`]
//! (`--help` lists them; default: the first, `rkv`) or `fig16`, a cluster-free
//! scheduler cell. Scenarios run at their full size — the one
//! `figures scenarios` reports — unless `--smoke` asks for the CI size.
//!
//! With `--out DIR` the run's metrics (`metrics.jsonl`) and Chrome trace
//! (`chrome.json`, openable in Perfetto / `chrome://tracing`) are written
//! there. Both files are byte-identical across same-seed runs —
//! `scripts/scenario_smoke.sh` runs this binary twice and diffs the
//! directories.
//!
//! `--shards N` partitions a scenario's cluster across N event shards, whose
//! epochs run on OS threads when N > 1.
//! Scenarios summarize and export through the cluster's canonical merged
//! view ((ts, node)-ordered trace), whatever the shard count. Metrics are
//! byte-identical to the serial run always; trace records are too unless
//! the ring overflows (capacity is per shard, so sharded runs of
//! overflowing scenarios retain more records). Most scenarios run
//! metrics-only for that reason — `--verbose` does not apply to them and
//! their trace table is empty by construction. `fig16` only accepts the
//! default `--shards 1`.

use ipipe::sched::Discipline;
use ipipe_baseline::fig16::run_fig16_obs;
use ipipe_bench::render_table;
use ipipe_bench::scenario::{self, Size};
use ipipe_nicsim::CN2350;
use ipipe_sim::obs::{Obs, TraceKind, TraceLevel};
use ipipe_sim::SimTime;
use ipipe_workload::service::{fig16_distribution, Dispersion, Fig16Card};
use std::collections::BTreeMap;

struct Opts {
    scenario: String,
    seed: u64,
    shards: usize,
    size: Size,
    verbose: bool,
    out: Option<String>,
}

fn parse_opts() -> Opts {
    let mut opts = Opts {
        scenario: scenario::REGISTRY[0].name().into(),
        seed: 2,
        shards: 1,
        size: Size::Full,
        verbose: false,
        out: None,
    };
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--scenario" => opts.scenario = args.next().expect("--scenario needs a value"),
            "--seed" => {
                opts.seed = args
                    .next()
                    .and_then(|s| s.parse().ok())
                    .expect("--seed needs an integer")
            }
            "--shards" => {
                opts.shards = args
                    .next()
                    .and_then(|s| s.parse().ok())
                    .expect("--shards needs an integer >= 1")
            }
            "--smoke" => opts.size = Size::Smoke,
            "--verbose" => opts.verbose = true,
            "--out" => opts.out = Some(args.next().expect("--out needs a directory")),
            "--help" | "-h" => {
                eprintln!(
                    "usage: traceview [--scenario NAME] [--seed N] [--shards N] [--smoke] \
                     [--verbose] [--out DIR]\nscenarios: {}, fig16",
                    scenario::names()
                );
                std::process::exit(0);
            }
            other => panic!("unknown argument {other:?}"),
        }
    }
    assert!(opts.shards >= 1, "--shards needs an integer >= 1");
    opts
}

/// One Fig 16 hybrid cell at load 0.6 (the determinism-test scenario).
fn run_fig16_cell(seed: u64, obs: &Obs) {
    let dist = fig16_distribution(Fig16Card::LiquidIo, Dispersion::High);
    let cfg = ipipe::sched::SchedConfig::for_nic(&CN2350)
        .with_discipline(Discipline::Hybrid)
        .no_migration();
    run_fig16_obs(&CN2350, dist, cfg, 0.6, 8, 4000, seed, obs);
}

fn main() {
    let opts = parse_opts();
    let level = if opts.verbose {
        TraceLevel::Verbose
    } else {
        TraceLevel::Spans
    };
    let obs = Obs::with_level(level);
    let cluster = if opts.scenario == "fig16" {
        assert!(
            opts.shards == 1,
            "fig16 is cluster-free; --shards applies to the cluster scenarios"
        );
        run_fig16_cell(opts.seed, &obs);
        None
    } else {
        let s = scenario::find(&opts.scenario).unwrap_or_else(|| {
            panic!(
                "unknown scenario {:?} (want one of {}, or fig16)",
                opts.scenario,
                scenario::names()
            )
        });
        let threaded = opts.shards > 1;
        let (headline, c) = s.run(opts.size, opts.seed, opts.shards, threaded, &obs);
        println!("{}: {}", s.name(), scenario::render_headline(&headline));
        Some(c)
    };
    // Cluster scenarios always summarize and export through the cluster's
    // canonical merged view ((ts, node)-ordered trace): under `--shards N`
    // the user Obs handle only sees shard 0, and the canonical ordering is
    // the one that is invariant across shard counts. fig16 (no cluster)
    // keeps the raw Obs exports.
    let sharded = cluster.as_ref();

    // --- metric summary -------------------------------------------------
    let snap = match sharded {
        Some(c) => c.snapshot(),
        None => obs.snapshot(),
    };
    let rows: Vec<Vec<String>> = snap
        .counters
        .iter()
        .map(|((name, node), v)| vec![name.clone(), node.to_string(), v.to_string()])
        .collect();
    print!(
        "{}",
        render_table(
            &format!("counters — {} seed {}", opts.scenario, opts.seed),
            &["name", "node", "value"],
            &rows,
        )
    );
    let rows: Vec<Vec<String>> = snap
        .hists
        .iter()
        .filter(|(_, h)| h.count() > 0)
        .map(|((name, node), h)| {
            vec![
                name.clone(),
                node.to_string(),
                h.count().to_string(),
                format!("{:.1}", h.mean().as_us_f64()),
                format!("{:.1}", h.p99().as_us_f64()),
            ]
        })
        .collect();
    print!(
        "{}",
        render_table(
            "histograms",
            &["name", "node", "count", "mean(us)", "p99(us)"],
            &rows
        )
    );

    // --- trace summary --------------------------------------------------
    let (events, trace_dropped) = match sharded {
        Some(c) => (c.merged_trace(), c.trace_totals().1),
        None => (obs.trace_events(), obs.trace_dropped()),
    };
    let mut by_name: BTreeMap<(&str, &str), (u64, SimTime)> = BTreeMap::new();
    for ev in &events {
        let slot = by_name.entry((ev.cat, ev.name)).or_default();
        slot.0 += 1;
        if let TraceKind::Span { dur } = ev.kind {
            slot.1 += dur;
        }
    }
    let rows: Vec<Vec<String>> = by_name
        .iter()
        .map(|((cat, name), (n, total))| {
            vec![
                format!("{cat}/{name}"),
                n.to_string(),
                format!("{:.1}", total.as_us_f64()),
            ]
        })
        .collect();
    print!(
        "{}",
        render_table(
            &format!(
                "trace — {} recorded, {} dropped",
                events.len(),
                trace_dropped
            ),
            &["cat/name", "events", "span-total(us)"],
            &rows,
        )
    );

    // --- exports --------------------------------------------------------
    if let Some(dir) = opts.out {
        std::fs::create_dir_all(&dir).expect("create --out dir");
        let metrics = format!("{dir}/metrics.jsonl");
        let chrome = format!("{dir}/chrome.json");
        let (jsonl, chrome_json) = match sharded {
            Some(c) => (c.export_canonical_jsonl(), c.export_canonical_chrome()),
            None => (obs.export_jsonl(), obs.export_chrome()),
        };
        std::fs::write(&metrics, jsonl).expect("write metrics");
        std::fs::write(&chrome, chrome_json).expect("write chrome trace");
        // stderr, so stdout summaries of two same-seed runs with different
        // --out dirs stay byte-identical (the CI determinism job diffs them).
        eprintln!("wrote {metrics} and {chrome} (open the latter in Perfetto)");
    }
}

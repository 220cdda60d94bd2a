//! Run a traced scenario and summarize its observability output.
//!
//! ```text
//! cargo run --release --bin traceview -- [--scenario NAME] [--seed N] \
//!     [--shards N] [--smoke] [--verbose] [--grep SUBSTR] [--out DIR]
//! ```
//!
//! `NAME` is any scenario of [`ipipe_bench::scenario::REGISTRY`]
//! (`--help` lists them; default: the first, `rkv`) or `fig16`, a cluster-free
//! scheduler cell. Scenarios run at their full size — the one
//! `figures scenarios` reports — unless `--smoke` asks for the CI size.
//!
//! The counter table lists each counter per node, then its cluster-wide
//! total as node `all`. `--grep SUBSTR` keeps only the counters (and their
//! totals) and histograms whose names contain `SUBSTR`; it filters what is
//! printed, never what `--out` writes.
//!
//! With `--out DIR` the run's metrics (`metrics.jsonl`) and Chrome trace
//! (`chrome.json`, openable in Perfetto / `chrome://tracing`) are written
//! there. Both files are byte-identical across same-seed runs —
//! `scripts/scenario_smoke.sh` runs this binary twice and diffs the
//! directories.
//!
//! `--shards N` partitions a scenario's cluster across N event shards. Every
//! shard records into the cluster's one `Obs`, whose exports order trace
//! records by `(ts, node)`, so metrics and the `meta` line are
//! byte-identical to the serial run always; trace records are too unless
//! the ring overflows. Then the ring keeps the newest records in the order
//! the shards pushed them, which can differ from the serial run at the
//! retention boundary. Most scenarios run metrics-only — `--verbose` does
//! not apply to them and their trace table is empty by construction.
//! `fig16` only accepts the default `--shards 1`.

use ipipe::rt::Cluster;
use ipipe::sched::Discipline;
use ipipe_baseline::fig16::run_fig16_obs;
use ipipe_bench::figure::{num, text, Table};
use ipipe_bench::scenario::{self, Size};
use ipipe_nicsim::CN2350;
use ipipe_sim::obs::{Obs, Snapshot, TraceKind, TraceLevel};
use ipipe_sim::SimTime;
use ipipe_workload::service::{fig16_distribution, Dispersion, Fig16Card};
use std::collections::BTreeMap;

struct Opts {
    scenario: String,
    seed: u64,
    shards: usize,
    size: Size,
    verbose: bool,
    grep: String,
    out: Option<String>,
}

fn parse_opts() -> Opts {
    let mut opts = Opts {
        scenario: scenario::REGISTRY[0].name().into(),
        seed: 2,
        shards: 1,
        size: Size::Full,
        verbose: false,
        grep: String::new(),
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
            "--grep" => opts.grep = args.next().expect("--grep needs a substring"),
            "--out" => opts.out = Some(args.next().expect("--out needs a directory")),
            "--help" | "-h" => {
                eprintln!(
                    "usage: traceview [--scenario NAME] [--seed N] [--shards N] [--smoke] \
                     [--verbose] [--grep SUBSTR] [--out DIR]\nscenarios: {}, fig16\n\
                     --grep SUBSTR prints only the counters and histograms whose names \
                     contain SUBSTR",
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

/// The counter table — each counter's per-node rows, then its cluster-wide
/// total (node `all`) — and the table of histograms with samples, both kept
/// to names that contain `grep`.
fn metric_tables(snap: &Snapshot, title: String, grep: &str) -> [Table; 2] {
    let mut rows = Vec::new();
    let mut total = 0;
    let counters = snap
        .counters
        .iter()
        .filter(|((name, _), _)| name.contains(grep));
    let mut counters = counters.peekable();
    while let Some(((name, node), v)) = counters.next() {
        rows.push(vec![
            text(name),
            num(f64::from(*node), 0),
            num(*v as f64, 0),
        ]);
        total += v;
        if counters.peek().is_none_or(|((next, _), _)| next != name) {
            rows.push(vec![text(name), text("all"), num(total as f64, 0)]);
            total = 0;
        }
    }
    let counters = Table::new(title, ["name", "node", "value"], rows);
    let rows = snap.hists.iter();
    let rows = rows.filter(|((name, _), h)| name.contains(grep) && h.count() > 0);
    let rows = rows.map(|((name, node), h)| {
        vec![
            text(name),
            num(f64::from(*node), 0),
            num(h.count() as f64, 0),
            num(h.mean().as_us_f64(), 1),
            num(h.p99().as_us_f64(), 1),
        ]
    });
    let hists = Table::new(
        "histograms",
        ["name", "node", "count", "mean(us)", "p99(us)"],
        rows.collect(),
    );
    [counters, hists]
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
        let (headline, c) = s.run(opts.size, opts.seed, opts.shards, &obs);
        println!("{}: {}", s.name(), scenario::render_headline(&headline));
        Some(c)
    };
    // A scenario's cluster may record into an `Obs` of its own (the
    // metrics-only ones do); fig16 records into `obs`.
    let obs = cluster.as_ref().map_or(&obs, Cluster::obs);

    // --- metric summary -------------------------------------------------
    let snap = obs.snapshot();
    let title = format!("counters — {} seed {}", opts.scenario, opts.seed);
    let [counters, hists] = metric_tables(&snap, title, &opts.grep);

    // --- trace summary --------------------------------------------------
    let (events, trace_dropped) = (obs.trace_events(), obs.trace_dropped());
    let mut by_name: BTreeMap<(&str, &str), (u64, SimTime)> = BTreeMap::new();
    for ev in &events {
        let slot = by_name.entry((ev.cat, ev.name)).or_default();
        slot.0 += 1;
        if let TraceKind::Span { dur } = ev.kind {
            slot.1 += dur;
        }
    }
    let rows = by_name.iter().map(|((cat, name), (n, total))| {
        vec![
            text(format!("{cat}/{name}")),
            num(*n as f64, 0),
            num(total.as_us_f64(), 1),
        ]
    });
    let trace = Table::new(
        format!("trace — {} recorded, {trace_dropped} dropped", events.len()),
        ["cat/name", "events", "span-total(us)"],
        rows.collect(),
    );
    // No blank line between the three summaries, unlike `figures`.
    for table in [counters, hists, trace] {
        print!("{}", table.render());
    }

    // --- exports --------------------------------------------------------
    if let Some(dir) = opts.out {
        std::fs::create_dir_all(&dir).expect("create --out dir");
        let metrics = format!("{dir}/metrics.jsonl");
        let chrome = format!("{dir}/chrome.json");
        std::fs::write(&metrics, obs.export_jsonl()).expect("write metrics");
        std::fs::write(&chrome, obs.export_chrome()).expect("write chrome trace");
        // stderr, so stdout summaries of two same-seed runs with different
        // --out dirs stay byte-identical (the CI determinism job diffs them).
        eprintln!("wrote {metrics} and {chrome} (open the latter in Perfetto)");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grep_keeps_only_matching_counters_totals_and_histograms() {
        let mut snap = Snapshot::default();
        for (name, node, v) in [
            ("sched.arrivals", 0, 9),
            ("sched.migrate.pull", 0, 1),
            ("sched.migrate.push", 0, 2),
            ("sched.migrate.push", 1, 3),
            ("sched.migrated", 0, 4),
            ("zz.sched.migrate", 0, 5),
        ] {
            snap.counters.insert((name.into(), node), v);
        }
        for name in ["sched.migrate.wait", "sched.sojourn.fcfs"] {
            let mut h = ipipe_sim::Histogram::new();
            h.record(SimTime::from_us(3));
            snap.hists.insert((name.into(), 0), h);
        }
        let [counters, hists] = metric_tables(&snap, "c".into(), "sched.migrate.");
        let rows = |t: &Table| -> Vec<String> {
            let cells = t.rows.iter().map(|r| r.iter().map(|c| c.text.as_str()));
            cells.map(|r| r.collect::<Vec<_>>().join(" ")).collect()
        };
        let want = [
            "sched.migrate.pull 0 1",
            "sched.migrate.pull all 1",
            "sched.migrate.push 0 2",
            "sched.migrate.push 1 3",
            "sched.migrate.push all 5",
        ];
        assert_eq!(rows(&counters), want);
        assert_eq!(rows(&hists), ["sched.migrate.wait 0 1 3.0 3.0"]);
        // No filter: every counter, each with its total.
        let [counters, hists] = metric_tables(&snap, "c".into(), "");
        assert_eq!(counters.rows.len(), 11);
        assert_eq!(hists.rows.len(), 2);
    }
}

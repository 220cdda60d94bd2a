//! The parent side: spawns one child process per repetition (never two at
//! once), checks that outputs are correct and repeat, reduces samples to
//! the catalogue's metrics, and prints them.

use crate::calib;
use crate::catalog::{Better, Metric, END_TO_END, PER_LAYER};
use crate::stats::{json_num, json_str, median, min_max, quantile_nearest};
use crate::workloads::{why, PodMode, NAMES};
use std::collections::BTreeMap;
use std::process::{Command, Stdio};

/// Timed repetitions per workload. The reference box slows down in bursts
/// of 5-10 s, several a minute: many short repetitions reduced by a low
/// order statistic repeat within a few percent where three long ones
/// reduced by their median do not (README, "Noise study").
pub const REPS: usize = 8;

/// Host seconds one repetition takes at ISSUE 11's full sizes on the
/// 2-core reference box.
const FULL_REP_SECONDS: f64 = 30.0;

#[derive(Debug, Clone)]
pub struct Cfg {
    pub seed: u64,
    /// Host seconds one workload's timed repetitions should take together
    /// on the reference box; sets the size of the work, deterministically.
    pub seconds: f64,
    /// Where traces go (inside the benchmark's own directory).
    pub out_dir: String,
}

impl Cfg {
    fn scale(&self) -> f64 {
        self.seconds / (REPS as f64 * FULL_REP_SECONDS)
    }

    /// Operations per probe batch: 1e6 for a measurement (ISSUE 11's
    /// floor), fewer only when the whole run is a smoke test.
    fn probe_ops(&self) -> u64 {
        ((self.seconds * 5e4) as u64).clamp(100_000, 1_000_000)
    }
}

/// The `name value` lines one child printed.
#[derive(Debug, Default)]
pub struct Rep(BTreeMap<String, String>);

impl Rep {
    fn parse(stdout: &str) -> Rep {
        Rep(stdout
            .lines()
            .filter_map(|l| l.split_once(' '))
            .map(|(k, v)| (k.to_string(), v.trim().to_string()))
            .collect())
    }

    fn s(&self, key: &str) -> &str {
        self.0.get(key).map_or("", String::as_str)
    }

    /// Numeric value; 0 when the child did not report `key` (the metric
    /// does not apply to its workload).
    fn f(&self, key: &str) -> f64 {
        self.s(key).parse().unwrap_or(0.0)
    }

    fn list(&self, key: &str) -> Vec<f64> {
        self.s(key)
            .split(',')
            .filter_map(|v| v.parse().ok())
            .collect()
    }
}

/// Run this executable again as a child and wait for it. Its stderr passes
/// through; a non-zero exit (a panic inside the program, say) is an error.
fn child(args: &[String]) -> Result<Rep, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let out = Command::new(exe)
        .args(args)
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("spawning child: {e}"))?;
    if !out.status.success() {
        return Err(format!("child {args:?} ended with {}", out.status));
    }
    Ok(Rep::parse(&String::from_utf8_lossy(&out.stdout)))
}

#[derive(Debug, Clone, Copy, Default)]
struct Variant {
    pod: PodMode,
    trace_ring: bool,
    quarter: bool,
    traced: bool,
}

fn repetition(workload: &str, cfg: &Cfg, v: Variant) -> Result<Rep, String> {
    let scale = if v.quarter {
        cfg.scale() / 4.0
    } else {
        cfg.scale()
    };
    let mut args: Vec<String> = ["--child", "rep", "--workload", workload]
        .map(String::from)
        .to_vec();
    args.extend(["--seed".into(), cfg.seed.to_string()]);
    args.extend(["--scale".into(), scale.to_string()]);
    match v.pod {
        PodMode::Inline => {}
        PodMode::Serial => args.push("--serial".into()),
        PodMode::Threaded => args.push("--threaded".into()),
    }
    if v.trace_ring {
        args.push("--trace-ring".into());
    }
    if v.traced {
        args.extend(["--trace-out".into(), cfg.out_dir.clone()]);
    }
    child(&args)
}

/// One workload's timed repetitions, plus, for `pod-par2`, the same pod run
/// serially (the reference its export must byte-match) and on two threads.
#[derive(Debug, Default)]
pub struct Timed {
    reps: Vec<Rep>,
    serial: Option<Rep>,
    threaded: Option<Rep>,
}

/// Timed repetitions of `workloads`, round-robin (A B C D A B C D …) so a
/// slow phase of the shared box hits every workload equally.
pub fn run_timed(
    workloads: &[&'static str],
    cfg: &Cfg,
) -> Result<BTreeMap<&'static str, Timed>, String> {
    let mut sets: BTreeMap<&'static str, Timed> = BTreeMap::new();
    for _ in 0..REPS {
        for &w in workloads {
            let rep = repetition(w, cfg, Variant::default())?;
            sets.entry(w).or_default().reps.push(rep);
        }
    }
    if let Some(pod) = sets.get_mut("pod-par2") {
        (pod.serial, pod.threaded) = pod_references(cfg)?;
    }
    Ok(sets)
}

/// Every way `t` fails the correctness gate; empty when it passes.
fn verify(workload: &str, t: &Timed) -> Vec<String> {
    let mut errs = Vec::new();
    let first = &t.reps[0];
    for (i, r) in t.reps.iter().enumerate() {
        if r.s("correct") != "true" {
            errs.push(format!(
                "{workload} rep {i}: audit, drain/close or cell check failed"
            ));
        }
        if r.s("digest") != first.s("digest") {
            errs.push(format!(
                "{workload} rep {i}: export digest {} != rep 0's {}",
                r.s("digest"),
                first.s("digest")
            ));
        }
        for (k, v) in &first.0 {
            if k.starts_with("sim_") && r.s(k) != v {
                errs.push(format!(
                    "{workload} rep {i}: {k} = {} but rep 0 had {v}",
                    r.s(k)
                ));
            }
        }
    }
    for (mode, r) in [("serial", &t.serial), ("threaded", &t.threaded)] {
        let Some(r) = r else { continue };
        if r.s("correct") != "true" {
            errs.push(format!("{workload} {mode} run: audit failed"));
        }
        for k in ["digest", "sim.obs.export_bytes"] {
            if r.s(k) != first.s(k) {
                errs.push(format!(
                    "{workload}: export {k} {} != {mode} run's {}",
                    first.s(k),
                    r.s(k)
                ));
            }
        }
    }
    errs
}

/// One figure for an end-to-end metric from its samples. Interference on a
/// shared box only ever adds to a run's wall time, so a fast repetition is
/// the best estimate of what the code costs — but not the fastest: now and
/// then one repetition lands well below the rest (`pod-par2` on two threads
/// did, by a third).
/// `run_host_s` is the second fastest repetition. `setup_s` is the lowest
/// decile of every set-up of the run: a set-up is allocation, its samples
/// sit on plateaus that depend on how the heap and the box happen to be
/// (`rkv-steady`: 2.9 to 4.8 ms by the median, 2.75 to 3.08 ms by the lowest
/// decile, README "Noise study"), and with 320 samples the decile still has
/// 32 below it. `peak_rss_mib` is a median.
fn reduce(m: &Metric, samples: &[f64]) -> f64 {
    match m.name {
        "run_host_s" => second_fastest(samples),
        "setup_s" => quantile_nearest(samples, 0.1),
        _ => median(samples),
    }
}

const RUN_HOST_S: Metric = END_TO_END[1];

fn second_fastest(samples: &[f64]) -> f64 {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    v[1.min(v.len() - 1)]
}

/// What turns this set's wall seconds into seconds at reference speed: the
/// calibration kernel's reference time over its time here, the latter
/// reduced like `run_host_s` (fastest sample of each repetition, second
/// fastest of those).
fn speed_factor(t: &Timed) -> f64 {
    let per_rep: Vec<f64> = t
        .reps
        .iter()
        .map(|r| min_max(&r.list("calib_samples_s")).0)
        .collect();
    calib::REF_S / second_fastest(&per_rep)
}

/// The figure reported for an end-to-end metric. The two host times are
/// reported at reference speed: the box drifts by a third within an hour
/// (README, "Noise study"), and wall seconds taken an hour apart could not
/// be compared at all.
fn e2e_value(m: &Metric, t: &Timed) -> f64 {
    let v = reduce(m, &e2e_samples(m, t));
    if matches!(m.name, "setup_s" | "run_host_s") {
        v * speed_factor(t)
    } else {
        v
    }
}

/// Samples of one end-to-end metric over a timed set. Host metrics have one
/// sample per repetition (`setup_s`: several); simulated ones repeat
/// exactly, so repetition 0 speaks for all.
fn e2e_samples(m: &Metric, t: &Timed) -> Vec<f64> {
    match m.name {
        "setup_s" => t
            .reps
            .iter()
            .flat_map(|r| r.list("setup_samples_s"))
            .collect(),
        "run_host_s" | "peak_rss_mib" => t.reps.iter().map(|r| r.f(m.name)).collect(),
        _ => vec![t.reps[0].f(m.name)],
    }
}

fn fail_ratio(r: &Rep) -> f64 {
    r.f("failed") / r.f("attempted").max(1.0)
}

/// What the traced pass adds to the timed one.
pub struct TracedInputs<'a> {
    /// Untraced `run_host_s` of the same workload, seed and size.
    pub untraced_run_s: f64,
    pub probes: &'a Rep,
    pub serial: Option<&'a Rep>,
    pub threaded: Option<&'a Rep>,
}

/// The traced repetition of `workload`, reduced to every per-layer metric.
pub fn run_traced(
    workload: &str,
    cfg: &Cfg,
    inp: &TracedInputs,
) -> Result<(Rep, Vec<(Metric, f64)>), String> {
    let traced = repetition(
        workload,
        cfg,
        Variant {
            traced: true,
            ..Variant::default()
        },
    )?;
    // Quarter-length pair, trace ring off then at its highest level, for the
    // workloads whose cluster the benchmark builds itself; `build_grid` and
    // `run_dse` take no observability handle.
    let ring = if matches!(workload, "pod-par2" | "dse-grid") {
        None
    } else {
        let quarter = Variant {
            quarter: true,
            ..Variant::default()
        };
        let off = repetition(workload, cfg, quarter)?;
        let on = repetition(
            workload,
            cfg,
            Variant {
                trace_ring: true,
                ..quarter
            },
        )?;
        Some((off, on))
    };
    let p = inp.probes;
    let run_for_s = traced.f("ipipe.rt.run_for_s") + traced.f("bench.dse.run_dse_s");
    let events = traced.f("ipipe.rt.events");
    let threads = if workload == "dse-grid" { 2.0 } else { 1.0 };
    // Host seconds of `count` calls at `ns` each, as a share of the CPU
    // time the run had (wall x threads).
    let share = |count: f64, ns: f64| count * ns * 1e-9 / (run_for_s * threads);
    let nstack = share(
        traced.f("ipipe.tcp.segs") + traced.f("ipipe.tcp.acks"),
        p.f("ipipe.nstack.tcp_ns_per_frame"),
    ) + share(
        traced.f("netsim.fault.corrupt"),
        p.f("ipipe.nstack.ns_per_frame"),
    );
    let shares = [
        ("share.sim.event", share(events, p.f("sim.event.ns_per_op"))),
        (
            "share.ipipe.sched",
            share(
                traced.f("ipipe.sched.arrivals"),
                p.f("ipipe.sched.ns_per_req"),
            ),
        ),
        ("share.ipipe.nstack", nstack),
        (
            "share.netsim.net",
            share(
                traced.f("netsim.net.packets"),
                p.f("netsim.net.ns_per_transfer"),
            ),
        ),
        (
            "share.sim.obs",
            share(traced.f("sim.obs.records"), p.f("sim.obs.ns_per_record")),
        ),
        (
            "share.workload.agg",
            share(traced.f("workload.agg.ops"), p.f("workload.agg.ns_per_op")),
        ),
    ];
    let attributed: f64 = shares.iter().map(|(_, s)| s).sum();
    let serial_s = inp.serial.map_or(0.0, |s| s.f("run_host_s"));
    let threaded_s = inp.threaded.map_or(0.0, |s| s.f("run_host_s"));
    let per_event = |x: f64| if events > 0.0 { x / events } else { 0.0 };

    let value = |name: &str| -> f64 {
        if let Some((_, s)) = shares.iter().find(|(n, _)| *n == name) {
            return *s;
        }
        match name {
            "sim_fail_ratio" => fail_ratio(&traced),
            "bench.calib_s" => min_max(&traced.list("calib_samples_s")).0,
            "bench.run_wall_s" => traced.f("run_host_s"),
            "bench.setup_wall_s" => quantile_nearest(&traced.list("setup_samples_s"), 0.1),
            // The simulated path models ring crossings as events and never
            // calls `RingBuffer`; this is what a byte-accurate ring would
            // add, and it is left out of `share.unattributed`.
            "share.ipipe.ring" => share(
                traced.f("ipipe.rt.ring_crossings"),
                p.f("ipipe.ring.ns_per_msg"),
            ),
            "share.unattributed" => 1.0 - attributed,
            "trace_overhead_ratio" => traced.f("run_host_s") / inp.untraced_run_s,
            "sim.obs.trace_on_ratio" => ring
                .as_ref()
                .map_or(0.0, |(off, on)| off.f("run_host_s") / on.f("run_host_s")),
            "sim.obs.trace_dropped" => ring
                .as_ref()
                .map_or(0.0, |(_, on)| on.f("sim.obs.trace_dropped")),
            "ipipe.rt.events_per_req" => events / traced.f("attempted").max(1.0),
            "ipipe.rt.events_per_host_s" if run_for_s > 0.0 => events / run_for_s,
            "ipipe.rt.allocs_per_event" => per_event(traced.f("allocs")),
            "ipipe.rt.alloc_bytes_per_event" => per_event(traced.f("alloc_bytes")),
            "ipipe.rt.serial_host_s" => serial_s,
            "ipipe.rt.threaded_host_s" => threaded_s,
            "ipipe.rt.shard_overhead_ratio" if serial_s > 0.0 => inp.untraced_run_s / serial_s,
            "ipipe.rt.par_speedup" if serial_s > 0.0 => serial_s / threaded_s,
            "ipipe.rt.epoch_overhead_us" if serial_s > 0.0 => {
                (threaded_s - serial_s / traced.f("ipipe.rt.critical_path_speedup")) * 1e6
                    / traced.f("ipipe.rt.epochs")
            }
            "bench.dse.cells_per_host_s" if traced.f("bench.dse.run_dse_s") > 0.0 => {
                traced.f("bench.dse.cells") / traced.f("bench.dse.run_dse_s")
            }
            n if p.0.contains_key(n) => p.f(n),
            n => traced.f(n),
        }
    };
    let layers = PER_LAYER.iter().map(|m| (*m, value(m.name))).collect();
    Ok((traced, layers))
}

/// `pod-par2` once serially and once on two threads.
fn pod_references(cfg: &Cfg) -> Result<(Option<Rep>, Option<Rep>), String> {
    let run = |pod| {
        let v = Variant {
            pod,
            ..Variant::default()
        };
        repetition("pod-par2", cfg, v).map(Some)
    };
    Ok((run(PodMode::Serial)?, run(PodMode::Threaded)?))
}

/// What the traced pass needs when no timed set ran: one untraced
/// repetition, and `pod-par2`'s two other runs.
fn baseline(workload: &str, cfg: &Cfg) -> Result<Timed, String> {
    let (serial, threaded) = if workload == "pod-par2" {
        pod_references(cfg)?
    } else {
        (None, None)
    };
    Ok(Timed {
        reps: vec![repetition(workload, cfg, Variant::default())?],
        serial,
        threaded,
    })
}

pub fn run_probes(cfg: &Cfg) -> Result<Rep, String> {
    child(&[
        "--child".into(),
        "probes".into(),
        "--ops".into(),
        cfg.probe_ops().to_string(),
    ])
}

// ---- the driver's contract: one workload, one JSON line ----------------

/// The contract's object. A failed check counts as a failed operation, so
/// `failed` is never 0 beside `"correct": false`.
fn result_line(errs: usize, r: &Rep, metrics: &[(Metric, f64)]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(m, v)| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_str(m.name),
                json_num(*v),
                json_str(m.unit)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        errs == 0,
        r.f("attempted") as u64,
        r.f("failed") as u64 + errs as u64,
        body.join(", ")
    )
}

/// `--workload W --seed N --seconds S --trace 0|1`: the last line printed is
/// the contract's JSON object. Returns whether the outputs were correct.
pub fn driver(workload: &'static str, cfg: &Cfg, trace: bool) -> Result<bool, String> {
    let (set, metrics) = if trace {
        // One untraced repetition alongside: the base of the overhead
        // ratio, and a second opinion on the digest. The probes go first:
        // the first busy process after the box sat idle runs 15% slow.
        let probes = run_probes(cfg)?;
        let mut base = baseline(workload, cfg)?;
        let inp = TracedInputs {
            untraced_run_s: reduce(&RUN_HOST_S, &e2e_samples(&RUN_HOST_S, &base)),
            probes: &probes,
            serial: base.serial.as_ref(),
            threaded: base.threaded.as_ref(),
        };
        let (traced, layers) = run_traced(workload, cfg, &inp)?;
        base.reps.push(traced);
        (base, layers)
    } else {
        let t = run_timed(&[workload], cfg)?
            .remove(workload)
            .expect("a set for the workload asked for");
        let metrics = END_TO_END.iter().map(|m| (*m, e2e_value(m, &t))).collect();
        (t, metrics)
    };
    let errs = verify(workload, &set);
    for e in &errs {
        eprintln!("FAIL {e}");
    }
    // The last repetition is the traced one when there is one.
    let last = set.reps.last().expect("at least one repetition");
    println!("{}", result_line(errs.len(), last, &metrics));
    Ok(errs.is_empty())
}

// ---- the whole suite, for people ----------------------------------------

/// ISSUE 11's end-to-end names that `BENCHMARK.json` files under per-layer;
/// printed in the end-to-end table of the workloads they apply to.
const EXTRA_E2E: [(&str, &[&str]); 9] = [
    ("sim_mean_us", &NAMES),
    ("sim_p50_us", &NAMES),
    ("sim_p99_us", &NAMES),
    ("sim_p999_us", &NAMES),
    ("sim_host_cores", &["rkv-steady", "pod-par2", "tcp-lossy"]),
    ("sim_nic_cores", &["rkv-steady", "pod-par2", "tcp-lossy"]),
    ("sim_goodput_gbps", &["tcp-lossy"]),
    ("sim_fct_ms", &["tcp-lossy"]),
    ("sim_fail_ratio", &NAMES),
];

fn layer_metric(name: &str) -> Metric {
    *PER_LAYER
        .iter()
        .find(|m| m.name == name)
        .expect("name is in the catalogue")
}

fn print_e2e(sets: &BTreeMap<&'static str, Timed>) {
    for (w, t) in NAMES.iter().filter_map(|w| Some((*w, sets.get(w)?))) {
        println!("\n== {w}: end to end ==   ({})", why(w));
        println!(
            "{:<18} {:>8} {:>16} {:>14} {:>14} {:>14} {:>3}  {:<6} {:>5}",
            "metric",
            "unit",
            "reported",
            "raw median",
            "raw min",
            "raw max",
            "n",
            "better",
            "bound"
        );
        for m in &END_TO_END {
            let xs = e2e_samples(m, t);
            let (lo, hi) = min_max(&xs);
            println!(
                "{:<18} {:>8} {:>16.6} {:>14.6} {:>14.6} {:>14.6} {:>3}  {:<6} {:>4.0}%",
                m.name,
                m.unit,
                e2e_value(m, t),
                median(&xs),
                lo,
                hi,
                xs.len(),
                m.better.as_str(),
                m.bound * 100.0
            );
        }
        let r = &t.reps[0];
        for (name, applies) in EXTRA_E2E {
            if applies.contains(&w) {
                let m = layer_metric(name);
                let v = if name == "sim_fail_ratio" {
                    fail_ratio(r)
                } else {
                    r.f(name)
                };
                println!(
                    "{:<18} {:>8} {:>16.6} {:>14} {:>14} {:>14} {:>3}  {:<6} exact",
                    m.name,
                    m.unit,
                    v,
                    "-",
                    "-",
                    "-",
                    1,
                    m.better.as_str()
                );
            }
        }
        println!(
            "host times at reference speed: wall x {:.3} (calibration kernel {:.1} ms here, {:.1} ms reference)",
            speed_factor(t),
            calib::REF_S / speed_factor(t) * 1e3,
            calib::REF_S * 1e3
        );
        println!(
            "latency samples {}   attempted {}   failed {}   export digest {}",
            r.f("sim_latency_samples"),
            r.f("attempted"),
            r.f("failed"),
            r.s("digest")
        );
    }
}

fn print_layers(per_workload: &[(&str, Vec<(Metric, f64)>)]) {
    println!("\n== per layer (traced repetition + probes; 0 = does not apply) ==");
    print!("{:<34} {:>7}", "metric", "unit");
    for (w, _) in per_workload {
        print!(" {w:>16}");
    }
    println!();
    for (i, m) in PER_LAYER.iter().enumerate() {
        print!("{:<34} {:>7}", m.name, m.unit);
        for (_, layers) in per_workload {
            print!(" {:>16.6}", layers[i].1);
        }
        println!();
    }
    println!(
        "share.* = exact op count x cache-hot probe unit cost / (run_for_s x threads): an estimate, \
         not a profile. share.ipipe.ring is not part of share.unattributed."
    );
}

/// Relative change of `b` against `a` in the direction that is worse.
fn worsening(m: &Metric, a: f64, b: f64) -> f64 {
    match m.better {
        Better::Lower => (b - a) / a,
        Better::Higher => (a - b) / a,
    }
}

/// `--check-repeat`: both timed sets side by side. Simulated metrics and
/// digests must agree exactly; host metrics within their bound, unless
/// `enforce_bounds` is off (a smoke run is too short to time).
fn check_repeat(
    a: &BTreeMap<&'static str, Timed>,
    b: &BTreeMap<&'static str, Timed>,
    enforce_bounds: bool,
) -> Vec<String> {
    let mut errs = Vec::new();
    println!("\n== check-repeat: two timed sets of the same code ==");
    println!(
        "{:<12} {:<18} {:>16} {:>16} {:>9} {:>7}",
        "workload", "metric", "set 1", "set 2", "worse by", "bound"
    );
    for (w, ta) in NAMES.iter().filter_map(|w| Some((*w, a.get(w)?))) {
        let tb = &b[w];
        for m in &END_TO_END {
            let (ma, mb) = (e2e_value(m, ta), e2e_value(m, tb));
            let simulated = m.name.starts_with("sim_");
            // Either order of the two sets may be the slow one.
            let d = worsening(m, ma, mb).max(worsening(m, mb, ma));
            let ok = if simulated {
                ma == mb
            } else {
                // ISSUE 11: a set-up too short to time gets 5 ms of slack.
                d <= m.bound || (m.name == "setup_s" && (ma - mb).abs() <= 0.005)
            };
            println!(
                "{:<12} {:<18} {:>16.6} {:>16.6} {:>8.2}% {:>7}  {}",
                w,
                m.name,
                ma,
                mb,
                d * 100.0,
                if simulated {
                    "exact".to_string()
                } else {
                    format!("{:.0}%", m.bound * 100.0)
                },
                if ok { "ok" } else { "EXCEEDED" }
            );
            if !ok && (simulated || enforce_bounds) {
                errs.push(format!(
                    "{w} {}: {ma} vs {mb} differ beyond the bound",
                    m.name
                ));
            }
        }
        let (da, db) = (ta.reps[0].s("digest"), tb.reps[0].s("digest"));
        if da != db {
            errs.push(format!("{w}: export digest {da} vs {db} between sets"));
        }
        for (name, _) in EXTRA_E2E {
            if ta.reps[0].s(name) != tb.reps[0].s(name) {
                errs.push(format!("{w} {name}: differs between sets"));
            }
        }
    }
    errs
}

#[derive(Debug, Clone, Copy)]
pub struct SuiteOpts {
    /// Only the traced pass.
    pub traced_only: bool,
    pub check_repeat: bool,
    /// Bounds are printed but not enforced.
    pub smoke: bool,
}

/// Everything, for all four workloads. Returns whether every check passed.
pub fn suite(cfg: &Cfg, opts: SuiteOpts) -> Result<bool, String> {
    println!(
        "ipipe benchmark: seed {}, --seconds {} (scale {:.4} of ISSUE 11's full sizes), {} timed \
         repetitions per workload, one child process at a time, at most 2 threads each, \
         host parallelism {}",
        cfg.seed,
        cfg.seconds,
        cfg.scale(),
        REPS,
        std::thread::available_parallelism().map_or(0, |n| n.get())
    );
    println!(
        "load is generated in-process by the simulator's own seeded generators: open-loop \
         lateness is zero by construction. The model is shape-validated against the paper \
         (EXPERIMENTS.md), so no error figure is given."
    );
    let mut errs = Vec::new();
    let mut sets = BTreeMap::new();
    if !opts.traced_only {
        sets = run_timed(&NAMES, cfg)?;
        for (w, t) in &sets {
            errs.extend(verify(w, t));
        }
        print_e2e(&sets);
        if opts.check_repeat {
            let second = run_timed(&NAMES, cfg)?;
            for (w, t) in &second {
                errs.extend(verify(w, t));
            }
            errs.extend(check_repeat(&sets, &second, !opts.smoke));
            if opts.smoke {
                println!("(smoke run: bounds printed, not enforced)");
            }
        }
    }
    let probes = run_probes(cfg)?;
    let mut per_workload = Vec::new();
    for w in NAMES {
        // `--traced` alone has no timed set to lean on.
        let lone;
        let t = match sets.get(w) {
            Some(t) => t,
            None => {
                lone = baseline(w, cfg)?;
                &lone
            }
        };
        let inp = TracedInputs {
            untraced_run_s: reduce(&RUN_HOST_S, &e2e_samples(&RUN_HOST_S, t)),
            probes: &probes,
            serial: t.serial.as_ref(),
            threaded: t.threaded.as_ref(),
        };
        let (traced, layers) = run_traced(w, cfg, &inp)?;
        if traced.s("digest") != t.reps[0].s("digest") || traced.s("correct") != "true" {
            errs.push(format!(
                "{w}: traced repetition diverged from the timed ones"
            ));
        }
        per_workload.push((w, layers));
    }
    print_layers(&per_workload);
    println!("traces: {}/trace-<workload>.jsonl", cfg.out_dir);
    for e in &errs {
        println!("FAIL {e}");
    }
    println!(
        "\n{}",
        if errs.is_empty() {
            "all checks passed"
        } else {
            "CHECKS FAILED"
        }
    );
    Ok(errs.is_empty())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn child_lines_parse_into_numbers_lists_and_strings() {
        let r = Rep::parse("run_host_s 1.5\nsetup_samples_s 0.1,0.3,0.2\ndigest 00ff\nnoise\n");
        assert_eq!(r.f("run_host_s"), 1.5);
        assert_eq!(r.list("setup_samples_s"), vec![0.1, 0.3, 0.2]);
        assert_eq!(r.s("digest"), "00ff");
        assert_eq!(r.f("absent"), 0.0);
    }

    #[test]
    fn result_line_is_the_contract_shape() {
        let r = Rep::parse("attempted 10\nfailed 0\n");
        let line = result_line(0, &r, &[(END_TO_END[0], 0.5)]);
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 10, \"failed\": 0, \"metrics\": \
             {\"setup_s\": {\"value\": 0.5, \"unit\": \"s\"}}}"
        );
        assert!(result_line(2, &r, &[])
            .starts_with("{\"correct\": false, \"attempted\": 10, \"failed\": 2,"));
    }

    #[test]
    fn run_host_s_is_the_second_fastest_repetition() {
        let run = RUN_HOST_S;
        assert_eq!(run.name, "run_host_s");
        assert_eq!(reduce(&run, &[2.5, 1.4, 2.1, 2.0, 2.2]), 2.0);
        assert_eq!(reduce(&run, &[3.0]), 3.0);
        assert_eq!(reduce(&END_TO_END[2], &[2.5, 1.4, 2.1]), 2.1);
        let setups: Vec<f64> = (1..=40).rev().map(f64::from).collect();
        assert_eq!(reduce(&END_TO_END[0], &setups), 4.0);
    }

    #[test]
    fn host_times_are_reported_at_reference_speed() {
        // Kernel at twice its reference time: the box runs at half speed.
        let slow = format!("{0},{1}", calib::REF_S * 2.0, calib::REF_S * 3.0);
        let rep = |run: f64| {
            Rep::parse(&format!(
                "run_host_s {run}\nsetup_samples_s 0.25,0.5,0.75\ncalib_samples_s {slow}\npeak_rss_mib 10\n"
            ))
        };
        let t = Timed {
            reps: vec![rep(4.0), rep(2.0), rep(3.0)],
            ..Timed::default()
        };
        assert!((speed_factor(&t) - 0.5).abs() < 1e-12);
        assert!((e2e_value(&RUN_HOST_S, &t) - 1.5).abs() < 1e-12);
        // Lowest decile of the nine pooled set-ups: the smallest, 0.25.
        assert!((e2e_value(&END_TO_END[0], &t) - 0.125).abs() < 1e-12);
        assert_eq!(e2e_value(&END_TO_END[2], &t), 10.0);
        assert_eq!(END_TO_END[2].name, "peak_rss_mib");
    }

    #[test]
    fn worsening_follows_the_metric_sense() {
        let lower = END_TO_END[1];
        let higher = END_TO_END[3];
        assert!((worsening(&lower, 10.0, 11.0) - 0.1).abs() < 1e-12);
        assert!((worsening(&higher, 10.0, 9.0) - 0.1).abs() < 1e-12);
        assert!(worsening(&lower, 10.0, 9.0) < 0.0);
    }

    #[test]
    fn verify_flags_digest_and_sim_drift_between_repetitions() {
        let a = "correct true\ndigest aa\nsim_p99_us 5\n";
        let ok = Timed {
            reps: vec![Rep::parse(a), Rep::parse(a)],
            serial: Some(Rep::parse(a)),
            threaded: Some(Rep::parse(a)),
        };
        assert!(verify("w", &ok).is_empty());
        let bad = Timed {
            reps: vec![
                Rep::parse(a),
                Rep::parse("correct true\ndigest ab\nsim_p99_us 6\n"),
            ],
            serial: Some(Rep::parse("correct false\ndigest aa\n")),
            threaded: Some(Rep::parse("correct true\ndigest ac\n")),
        };
        assert_eq!(verify("w", &bad).len(), 4);
    }
}

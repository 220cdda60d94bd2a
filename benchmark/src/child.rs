//! What runs inside a repetition's child process: set up several times,
//! run once, audit, export, and print `name value` lines for the parent.
//! One fresh process per repetition keeps `VmHWM`, the heap layout and the
//! leaked design-space specs of one repetition out of the next.

use crate::alloc;
use crate::calib;
use crate::probes;
use crate::spans::Recorder;
use crate::workloads::{DseGrid, Params, PodPar2, RkvSteady, TcpLossy, Workload};
use std::time::Instant;

/// One repetition of `workload`. With `trace_out` set this is the traced
/// repetition: spans recorded, allocator counting on, trace written there.
pub fn repetition(workload: &str, p: &Params, trace_out: Option<&str>) -> Result<(), String> {
    let traced = trace_out.is_some();
    let mut rec = Recorder::new(traced);
    let root: &'static str = crate::workloads::NAMES
        .iter()
        .find(|n| **n == workload)
        .ok_or_else(|| format!("unknown workload {workload}"))?;
    rec.span(root, |rec| match root {
        "rkv-steady" => execute(&RkvSteady::new(p), rec),
        "pod-par2" => execute(&PodPar2::new(p), rec),
        "tcp-lossy" => execute(&TcpLossy::new(p), rec),
        _ => execute(&DseGrid::new(p), rec),
    });
    if let Some(dir) = trace_out {
        let path = format!("{dir}/trace-{workload}.jsonl");
        std::fs::create_dir_all(dir)
            .and_then(|()| std::fs::write(&path, rec.to_jsonl()))
            .map_err(|e| format!("writing {path}: {e}"))?;
        for (metric, span) in [
            ("ipipe.rt.build_s", "ClusterBuilder::build"),
            ("ipipe.rt.deploy_s", "deploy"),
            ("ipipe.rt.run_for_s", "run_for"),
            ("ipipe.rt.rebalance_s", "Rebalancer::step"),
            ("ipipe.rt.audit_s", "audit"),
            ("sim.obs.export_s", "export_canonical_jsonl"),
            ("nicsim.dse.enumerate_s", "nicsim::dse::enumerate"),
            ("bench.dse.run_dse_s", "run_dse"),
        ] {
            println!("{metric} {}", rec.total_s(span));
        }
    }
    Ok(())
}

/// Set-ups timed per repetition; the last one runs. A set-up is mostly
/// allocation, and in a fresh process the first ones pay for its page faults
/// and the next ten to forty for a heap that has not settled (`rkv-steady`:
/// 20, 8, 8, 7, ... 3.2 ms): enough of them that a good share of the samples
/// is taken on a settled heap.
const SETUPS: usize = 40;

fn execute<W: Workload>(w: &W, rec: &mut Recorder) {
    // The calibration kernel runs right before and right after the work it
    // calibrates, so that a slow phase of the box hits both.
    let mut calib = vec![calib::sample_s(), calib::sample_s()];

    // Only the set-up that runs is traced, so span totals describe one.
    let traced = rec.enabled;
    let mut samples = Vec::with_capacity(SETUPS);
    let mut ready = None;
    for i in 0..SETUPS {
        rec.enabled = traced && i + 1 == SETUPS;
        drop(ready.take());
        let t = Instant::now();
        ready = Some(rec.span("setup", |rec| w.setup(rec)));
        samples.push(t.elapsed().as_secs_f64());
    }
    let mut ready = ready.expect("SETUPS is at least one");

    alloc::set_counting(traced);
    let t = Instant::now();
    rec.span("run", |rec| w.run(&mut ready, rec));
    let run_host_s = t.elapsed().as_secs_f64();
    alloc::set_counting(false);
    let (allocs, alloc_bytes) = alloc::counts();
    // Before the export: like `run_host_s`, peak memory excludes it.
    let peak_rss_mib = vm_hwm_mib();
    calib.extend([calib::sample_s(), calib::sample_s()]);

    let out = rec.span("finish", |rec| w.finish(ready, rec));

    let join = |xs: &[f64]| {
        let strs: Vec<String> = xs.iter().map(|x| x.to_string()).collect();
        strs.join(",")
    };
    println!("setup_samples_s {}", join(&samples));
    println!("calib_samples_s {}", join(&calib));
    println!("run_host_s {run_host_s}");
    println!("peak_rss_mib {peak_rss_mib}");
    println!("allocs {allocs}");
    println!("alloc_bytes {alloc_bytes}");
    println!("correct {}", out.correct);
    println!("attempted {}", out.attempted);
    println!("failed {}", out.failed);
    println!("digest {:016x}", out.digest);
    println!("sim.obs.export_bytes {}", out.export_bytes);
    for (name, v) in &out.values {
        println!("{name} {v}");
    }
}

/// Peak resident set of this process so far, from `/proc/self/status`.
fn vm_hwm_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The micro-probes, one `name value` line each.
pub fn run_probes(ops: u64) {
    for (name, ns) in probes::run_all(ops) {
        println!("{name} {ns}");
    }
}

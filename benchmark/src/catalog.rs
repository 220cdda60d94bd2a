//! The metric catalogue: every name the benchmark prints, with its unit and
//! sense. `BENCHMARK.json` at the repo root lists the same names; a unit
//! test keeps the two in step.

/// Which direction is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

#[derive(Debug, Clone, Copy)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// End-to-end only: the share of the parent's median by which the
    /// metric may worsen before a change counts as a regression.
    pub bound: f64,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound,
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound: 0.0,
    }
}

use Better::{Higher, Lower};

/// Metrics a user of the system sees. Every workload reports every one and
/// none is ever zero. `setup_s`, `run_host_s` (both at reference speed, see
/// `calib`) and `peak_rss_mib` are host measurements; the `sim_*` ones are
/// simulated and repeat exactly for a
/// given seed and size, so their bound only has to cover the seed-to-seed
/// spread (README, "Bounds").
pub const END_TO_END: [Metric; 4] = [
    e2e("setup_s", "s", Lower, 0.25),
    e2e("run_host_s", "s", Lower, 0.25),
    e2e("peak_rss_mib", "MiB", Lower, 0.15),
    e2e("sim_goodput_rps", "1/s", Higher, 0.20),
];

/// Single-layer metrics from the traced repetition and the probes. A metric
/// that does not apply to a workload reads 0 there.
pub const PER_LAYER: [Metric; 71] = [
    // ISSUE 11's remaining end-to-end metrics. The driver's contract wants
    // an end-to-end metric on every workload, never zero, and within its
    // bound across seeds; these are zero or constant on some workloads, or
    // (every latency figure) move by a fifth to a quarter with the seed on
    // one workload or another. They are listed here, and `--check-repeat`
    // holds them to exact equality.
    layer("sim_mean_us", "us", Lower),
    layer("sim_p50_us", "us", Lower),
    layer("sim_p99_us", "us", Lower),
    layer("sim_p999_us", "us", Lower),
    layer("sim_host_cores", "cores", Lower),
    layer("sim_nic_cores", "cores", Lower),
    layer("sim_fail_ratio", "ratio", Lower),
    layer("sim_goodput_gbps", "Gbit/s", Higher),
    layer("sim_fct_ms", "ms", Lower),
    // Host unit costs (micro-probes).
    layer("sim.event.ns_per_op", "ns", Lower),
    layer("sim.obs.ns_per_record", "ns", Lower),
    layer("netsim.net.ns_per_transfer", "ns", Lower),
    layer("ipipe.ring.ns_per_msg", "ns", Lower),
    layer("ipipe.sched.ns_per_req", "ns", Lower),
    layer("ipipe.nstack.ns_per_frame", "ns", Lower),
    layer("ipipe.nstack.tcp_ns_per_frame", "ns", Lower),
    layer("workload.agg.ns_per_op", "ns", Lower),
    // sim.obs
    layer("sim.obs.export_s", "s", Lower),
    layer("sim.obs.export_bytes", "B", Lower),
    layer("sim.obs.trace_dropped", "count", Lower),
    layer("sim.obs.trace_on_ratio", "ratio", Higher),
    // netsim, nicsim
    layer("netsim.net.packets", "count", Lower),
    layer("netsim.net.tx_wait_p99_us", "us", Lower),
    layer("netsim.fault.drops", "count", Lower),
    layer("nicsim.tm.sojourn_p99_us", "us", Lower),
    layer("nicsim.dse.enumerate_s", "s", Lower),
    // ipipe.rt: spans of the traced run
    layer("ipipe.rt.build_s", "s", Lower),
    layer("ipipe.rt.deploy_s", "s", Lower),
    layer("ipipe.rt.run_for_s", "s", Lower),
    layer("ipipe.rt.rebalance_s", "s", Lower),
    layer("ipipe.rt.audit_s", "s", Lower),
    // ipipe.rt: work done and what it costs the host
    layer("ipipe.rt.events", "count", Lower),
    layer("ipipe.rt.events_per_req", "count", Lower),
    layer("ipipe.rt.events_per_host_s", "1/s", Higher),
    layer("ipipe.rt.allocs_per_event", "count", Lower),
    layer("ipipe.rt.alloc_bytes_per_event", "B", Lower),
    // ipipe.rt: the epoch engine
    layer("ipipe.rt.epochs", "count", Lower),
    layer("ipipe.rt.critical_path_speedup", "ratio", Higher),
    layer("ipipe.rt.serial_host_s", "s", Lower),
    layer("ipipe.rt.shard_overhead_ratio", "ratio", Lower),
    layer("ipipe.rt.threaded_host_s", "s", Lower),
    layer("ipipe.rt.par_speedup", "ratio", Higher),
    layer("ipipe.rt.epoch_overhead_us", "us", Lower),
    // ipipe.rt / migrate: what drives the tail
    layer("ipipe.rt.client_retries", "count", Lower),
    layer("ipipe.rt.redirects", "count", Lower),
    layer("ipipe.migrate.completed", "count", Lower),
    layer("ipipe.migrate.aborted", "count", Lower),
    // rings
    layer("ipipe.rt.ring_crossings", "count", Lower),
    layer("ipipe.rt.ring_xfer_p99_us", "us", Lower),
    // scheduler
    layer("ipipe.sched.arrivals", "count", Lower),
    layer("ipipe.sched.drr_share", "ratio", Lower),
    layer("ipipe.sched.sojourn_fcfs_p99_us", "us", Lower),
    layer("ipipe.sched.sojourn_drr_p99_us", "us", Lower),
    // tcp
    layer("ipipe.tcp.segs", "count", Lower),
    layer("ipipe.tcp.retx_ratio", "ratio", Lower),
    layer("ipipe.tcp.rto_fired", "count", Lower),
    // apps, bench
    layer("apps.rkv.dup_commit_ratio", "ratio", Lower),
    layer("bench.dse.cells", "count", Higher),
    layer("bench.dse.cells_per_host_s", "1/s", Higher),
    // The outside-in cost map (an estimate: op count x probe unit cost).
    layer("share.sim.event", "ratio", Lower),
    layer("share.ipipe.sched", "ratio", Lower),
    layer("share.ipipe.ring", "ratio", Lower),
    layer("share.ipipe.nstack", "ratio", Lower),
    layer("share.netsim.net", "ratio", Lower),
    layer("share.sim.obs", "ratio", Lower),
    layer("share.workload.agg", "ratio", Lower),
    layer("share.unattributed", "ratio", Lower),
    layer("trace_overhead_ratio", "ratio", Lower),
    // Raw wall clock of the traced repetition, and the calibration kernel
    // that relates it to the end-to-end host times.
    layer("bench.calib_s", "s", Lower),
    layer("bench.run_wall_s", "s", Lower),
    layer("bench.setup_wall_s", "s", Lower),
];

#[cfg(test)]
mod tests {
    use super::*;

    /// `"name": "<name>"` objects of one top-level array of BENCHMARK.json,
    /// as `(name, rest of the object)`.
    fn objects<'a>(json: &'a str, array: &str) -> Vec<(&'a str, &'a str)> {
        let start = json.find(&format!("\"{array}\"")).expect("array present");
        let body = &json[start..];
        let body = &body[..body.find(']').expect("array closes")];
        body.split('{')
            .skip(1)
            .map(|obj| {
                let obj = &obj[..obj.find('}').expect("object closes")];
                let name = obj.split("\"name\":").nth(1).expect("has a name");
                let name = name.trim().trim_start_matches('"');
                (&name[..name.find('"').expect("name closes")], obj)
            })
            .collect()
    }

    #[test]
    fn benchmark_json_lists_exactly_the_catalogue() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        for (array, metrics) in [
            ("end_to_end", &END_TO_END[..]),
            ("per_layer", &PER_LAYER[..]),
        ] {
            let listed = objects(&json, array);
            let names: Vec<_> = listed.iter().map(|(n, _)| *n).collect();
            let ours: Vec<_> = metrics.iter().map(|m| m.name).collect();
            assert_eq!(names, ours, "{array} names differ");
            for (m, (_, obj)) in metrics.iter().zip(&listed) {
                assert!(
                    obj.contains(&format!("\"unit\": \"{}\"", m.unit)),
                    "{}: unit",
                    m.name
                );
                assert!(
                    obj.contains(&format!("\"better\": \"{}\"", m.better.as_str())),
                    "{}: sense",
                    m.name
                );
                if array == "end_to_end" {
                    assert!(
                        obj.contains(&format!("\"bound\": {}", m.bound)),
                        "{}: bound",
                        m.name
                    );
                }
            }
        }
        let workloads: Vec<_> = objects(&json, "workloads")
            .iter()
            .map(|(n, _)| *n)
            .collect();
        assert_eq!(workloads, crate::workloads::NAMES);
    }

    #[test]
    fn names_are_unique_and_within_the_contract_limits() {
        let mut seen = std::collections::BTreeSet::new();
        for m in END_TO_END.iter().chain(&PER_LAYER) {
            assert!(seen.insert(m.name), "{} listed twice", m.name);
            assert!(m.name.len() <= 64 && m.unit.len() <= 16);
            assert!(m
                .name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
            assert!(m
                .unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)));
        }
        assert!(END_TO_END.iter().all(|m| m.bound > 0.0 && m.bound <= 0.25));
    }
}

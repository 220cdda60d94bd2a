//! The SLO-aware overload scenario (`traceview --scenario rkv-overload`):
//! the multi-group RKV keyspace under a 10x open-loop traffic spike while
//! an LSM-compaction storm competes for the wimpy cores, survived by the
//! NIC-ingress admission controller.
//!
//! What the run demonstrates end to end:
//!
//! * every server node runs the per-class token-bucket admission layer
//!   ([`AdmissionCfg`]) in front of FCFS/DRR dispatch — best-effort
//!   (priority 0) and premium (priority 1) clients alternate, and pressure
//!   shedding protects the premium class when the NIC backlog grows,
//! * a [`CompactionStorm`] actor on every server node charges LSM-merge
//!   work on the NIC cores and erupts 10x inside the spike window,
//! * mid-run the open-loop generators jump to `spike_factor` times their
//!   base rate ([`Cluster::set_client_open_loop_rate`] at a `run_for`
//!   barrier) and fall back after the window closes,
//! * shed replies push back: closed-loop retries park for the backoff
//!   hint, open-loop generators shed at the source, and the cluster audit
//!   reconciles `issued == completed + abandoned + shed + in-flight`
//!   (the shed-conservation invariant) plus the per-ingress
//!   `admit.conservation` ledgers,
//! * the committed p99 stays within the declared SLO through the spike and
//!   the unshed goodput stays flat rather than collapsing,
//! * and the whole run is byte-identical at any `--shards` count: bucket
//!   state is ingress-local, spikes and storms are clock-driven, and every
//!   knob is turned at a shard barrier.
//!
//! [`AdmissionCfg`]: ipipe::admission::AdmissionCfg
//! [`CompactionStorm`]: ipipe_apps::rkv::storm::CompactionStorm
//! [`Cluster::set_client_open_loop_rate`]: ipipe::rt::Cluster::set_client_open_loop_rate

use ipipe::admission::{AdmissionCfg, ClassCfg};
use ipipe::rt::{Cluster, Placement};
use ipipe_apps::rkv::storm::{CompactionStorm, StormCfg};
use ipipe_sim::obs::Obs;
use ipipe_sim::SimTime;
use ipipe_workload::agg::aggregate_rate;

use crate::scale::{
    build_keyspace_cluster, deploy_keyspace, drain_and_audit, install_agg_clients, ScaleSpec,
};
use crate::scenario::{Headline, Scenario, Size};

/// Full parameterization of one overload run: the base keyspace/workload
/// shape plus the spike window, admission envelope and declared SLO.
#[derive(Debug, Clone)]
pub struct OverloadSpec {
    /// Keyspace, workload and drain shape (the spike multiplies
    /// `base.per_user_rps`; `base.run` is the full arrival window).
    pub base: ScaleSpec,
    /// Spike window start (must land on a multiple of the step cadence).
    pub spike_at: SimTime,
    /// Spike window end (exclusive).
    pub spike_until: SimTime,
    /// Open-loop rate multiplier inside the window.
    pub spike_factor: f64,
    /// Sustained per-class admit rate at each ingress node.
    pub admit_rps: u64,
    /// Token-bucket burst depth per class.
    pub admit_burst: u32,
    /// NIC backlog depth past which best-effort traffic is pressure-shed.
    pub pressure_depth: usize,
    /// Cap on the backoff hint carried by shed replies.
    pub max_backoff: SimTime,
    /// Declared end-to-end p99 SLO the run must hold through the spike.
    pub slo_p99: SimTime,
}

impl OverloadSpec {
    /// Scale a spec from the two headline knobs, mirroring
    /// [`ScaleSpec::custom`]: a third of the arrival window each for
    /// pre-spike, spike, and recovery.
    pub fn custom(seed: u64, shards: usize, groups: usize, users: u64) -> OverloadSpec {
        let mut base = ScaleSpec::custom(seed, shards, groups, users);
        base.run = SimTime::from_ms(6);
        base.drain = SimTime::from_ms(4);
        OverloadSpec {
            base,
            spike_at: SimTime::from_ms(2),
            spike_until: SimTime::from_ms(4),
            spike_factor: 10.0,
            admit_rps: 60_000,
            admit_burst: 64,
            pressure_depth: 64,
            max_backoff: SimTime::from_us(500),
            slo_p99: SimTime::from_ms(1),
        }
    }

    /// The committed figure size: 32 groups over 16 server nodes, 2^19
    /// modeled users spiking 10x.
    pub fn full(seed: u64, shards: usize) -> OverloadSpec {
        OverloadSpec::custom(seed, shards, 32, 1 << 19)
    }

    /// The CI size: 16 groups, 10^5 modeled users.
    pub fn smoke(seed: u64, shards: usize) -> OverloadSpec {
        OverloadSpec::custom(seed, shards, 16, 100_000)
    }

    /// The admission configuration installed on every server node:
    /// clients alternate best-effort (class 0, priority 0) and premium
    /// (class 1, priority 1); pressure shedding protects premium.
    pub fn admission(&self) -> AdmissionCfg {
        let class = |priority: u8| ClassCfg {
            rate_rps: self.admit_rps,
            burst: self.admit_burst,
            priority,
        };
        AdmissionCfg {
            classes: vec![class(0), class(1)],
            pressure_depth: self.pressure_depth,
            protect_priority: 1,
            max_backoff: self.max_backoff,
        }
    }
}

/// Headline numbers from one overload run.
#[derive(Debug, Clone, Copy)]
pub struct OverloadStats {
    /// Paxos groups deployed.
    pub groups: usize,
    /// Modeled users behind the generators.
    pub users: u64,
    /// Requests issued by the open-loop generators (source sheds included).
    pub issued: u64,
    /// Requests completed.
    pub done: u64,
    /// Requests shed (at the source or by a shed reply).
    pub shed: u64,
    /// Shed verdicts at the server ingresses (`admit.shed` total).
    pub ingress_shed: u64,
    /// Requests abandoned after exhausting their retry budget.
    pub abandoned: u64,
    /// Committed goodput before the spike (requests/second).
    pub pre_goodput_rps: f64,
    /// Committed goodput through the spike window (requests/second).
    pub spike_goodput_rps: f64,
    /// Median end-to-end latency (µs), whole run.
    pub p50_us: f64,
    /// Tail end-to-end latency (µs), whole run — spike included.
    pub p99_us: f64,
    /// The declared SLO the tail is held against (µs).
    pub slo_us: f64,
    /// Events processed across all shards (the DES work metric).
    pub events: u64,
}

impl OverloadStats {
    /// Did the tail hold the declared SLO through the spike?
    pub fn slo_met(&self) -> bool {
        self.p99_us <= self.slo_us
    }
}

/// Run the overload scenario described by `spec`: deploy the groups,
/// install admission and the compaction storms, run pre-spike / spike /
/// recovery windows, drain, and audit — shed conservation included — its
/// shards one after the other. Hands back the cluster so callers can pull
/// canonical merged exports.
pub fn run_rkv_overload(spec: &OverloadSpec) -> (OverloadStats, Cluster) {
    run_with(spec, false)
}

fn run_with(spec: &OverloadSpec, threaded: bool) -> (OverloadStats, Cluster) {
    let mut c = build_keyspace_cluster(&spec.base, threaded);
    let dep = deploy_keyspace(&mut c, &spec.base);
    c.set_admission(spec.admission());
    // One compaction storm per server node, NIC-placed so its merge work
    // competes with request serving; it erupts 10x inside the spike window.
    for node in 0..spec.base.servers {
        c.register_actor(
            node,
            "storm",
            Box::new(CompactionStorm::new(StormCfg::erupting(
                spec.spike_at,
                spec.spike_until,
            ))),
            Placement::Nic,
        );
    }
    let ledgers = install_agg_clients(&mut c, &spec.base, &dep);
    // Alternate best-effort / premium so pressure shedding has both a
    // victim and a protected class on every ingress.
    for cl in 0..spec.base.clients {
        c.set_client_class(cl, (cl % 2) as u8);
    }
    let base_rate = aggregate_rate(spec.base.users_per_client, spec.base.per_user_rps);
    // Pre-spike window at the base rate.
    c.run_for(spec.spike_at);
    let pre = c.completions().completed();
    let pre_goodput = pre as f64 / spec.spike_at.as_secs_f64();
    // The spike: every generator jumps to spike_factor x its base rate at
    // this barrier; the storms erupt on their own clocks.
    for cl in 0..spec.base.clients {
        c.set_client_open_loop_rate(cl, base_rate * spec.spike_factor);
    }
    let spike_len = spec.spike_until.saturating_sub(spec.spike_at);
    c.run_for(spike_len);
    let spike_done = c.completions().completed() - pre;
    let spike_goodput = spike_done as f64 / spike_len.as_secs_f64();
    // Recovery: back to the base rate for the rest of the arrival window.
    for cl in 0..spec.base.clients {
        c.set_client_open_loop_rate(cl, base_rate);
    }
    c.run_for(spec.base.run.saturating_sub(spec.spike_until));
    // The cluster audit inside covers shed conservation and the
    // per-ingress admit ledgers.
    let stats = drain_and_audit(&mut c, &spec.base, &dep, &ledgers, true);
    let ingress_shed: u64 = (0..spec.base.servers as u16)
        .map(|n| c.counter_on_total("admit.shed", n))
        .sum();
    let stats = OverloadStats {
        groups: spec.base.groups,
        users: spec.base.users(),
        issued: stats.issued(),
        done: stats.count(),
        shed: stats.shed(),
        ingress_shed,
        abandoned: c.counter_total("client.retry.abandoned"),
        pre_goodput_rps: pre_goodput,
        spike_goodput_rps: spike_goodput,
        p50_us: stats.p50().as_us_f64(),
        p99_us: stats.p99().as_us_f64(),
        slo_us: spec.slo_p99.as_us_f64(),
        events: c.shard_events().iter().sum(),
    };
    (stats, c)
}

/// Registry entry for this scenario.
pub struct RkvOverload;

impl Scenario for RkvOverload {
    fn name(&self) -> &'static str {
        "rkv-overload"
    }

    fn figure_seed(&self) -> u64 {
        88
    }

    fn shard_counts(&self) -> &'static [usize] {
        &[1, 2, 4, 8]
    }

    fn must_be_nonzero(&self) -> &'static [&'static str] {
        &["shed", "ingress_shed"]
    }

    fn run(
        &self,
        size: Size,
        seed: u64,
        shards: usize,
        threaded: bool,
        _: &Obs,
    ) -> (Headline, Cluster) {
        let spec = match size {
            Size::Smoke => OverloadSpec::smoke(seed, shards),
            Size::Full => OverloadSpec::full(seed, shards),
        };
        let (s, c) = run_with(&spec, threaded);
        let headline = vec![
            ("groups", s.groups.to_string()),
            ("users", s.users.to_string()),
            ("issued", s.issued.to_string()),
            ("done", s.done.to_string()),
            ("shed", s.shed.to_string()),
            ("ingress_shed", s.ingress_shed.to_string()),
            ("abandoned", s.abandoned.to_string()),
            ("pre_goodput_rps", format!("{:.0}", s.pre_goodput_rps)),
            ("spike_goodput_rps", format!("{:.0}", s.spike_goodput_rps)),
            ("p50_us", format!("{:.1}", s.p50_us)),
            ("p99_us", format!("{:.1}", s.p99_us)),
            ("slo_us", format!("{:.0}", s.slo_us)),
            ("slo", if s.slo_met() { "met" } else { "BLOWN" }.to_string()),
            ("events", s.events.to_string()),
        ];
        (headline, c)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_run_sheds_and_holds_the_slo() {
        let (stats, _c) = run_rkv_overload(&OverloadSpec::smoke(11, 1));
        assert_eq!(stats.groups, 16);
        assert_eq!(
            stats.issued,
            stats.done + stats.shed + stats.abandoned,
            "drain must balance the shed-conservation ledger"
        );
        assert!(stats.shed > 0, "a 10x spike must shed");
        assert!(stats.ingress_shed > 0, "ingress buckets must refuse work");
        assert!(stats.done > 500, "done={}", stats.done);
        assert!(
            stats.slo_met(),
            "p99 {}us blew the {}us SLO",
            stats.p99_us,
            stats.slo_us
        );
        // Unshed goodput must hold flat through the spike, not collapse.
        assert!(
            stats.spike_goodput_rps >= 0.7 * stats.pre_goodput_rps,
            "goodput collapsed: pre {:.0} rps vs spike {:.0} rps",
            stats.pre_goodput_rps,
            stats.spike_goodput_rps
        );
    }
}

//! The `tcp-offload` scenario (ROADMAP item 4a): transparent TCP-stack
//! offload measured as host-cores-freed vs NIC-cores-burned.
//!
//! `conns` independent connections stream `bytes_per_conn` each through the
//! [`ipipe::tcp`] state machine under a seeded `FaultPlan` loss rate.
//! Sender `i` lives on node `i`, receiver `i` on node `conns + i` — always
//! distinct nodes, so every segment and ACK crosses the simulated network
//! and is exposed to loss. The single knob that matters is
//! [`TcpOffloadSpec::placement`]: `Placement::Host` runs the protocol work
//! on big host cores (the status quo the paper argues against),
//! `Placement::Nic` moves it onto the wimpy NIC cores.
//! [`placement_loss`] sweeps both against two loss rates and reports
//! the host-cores-freed vs NIC-cores-burned tradeoff (`figures scenarios`).
//!
//! Like every scenario, the run is byte-identical for any shard count: the
//! drive loop reads only shard-invariant counters at `run_for` barriers,
//! and the shard-axis differential pins serial vs sharded canonical exports.
//! Quiesce merges the cluster-wide conservation audit with the per-
//! connection TCP slice (`bytes_sent == bytes_acked + bytes_in_flight +
//! bytes_dropped_pending_rto`, exactly-once in-order delivery).

use ipipe::rt::{Cluster, Placement, RuntimeMode};
use ipipe::tcp::{audit_tcp_into, deploy_tcp_pair, TcpCfg, TcpEndpoints};
use ipipe_netsim::FaultPlan;
use ipipe_nicsim::CN2350;
use ipipe_sim::obs::Obs;
use ipipe_sim::SimTime;

use crate::figure::{Cell, Table};
use crate::scenario::{Headline, Scenario, Size};

/// Parameters of one TCP-offload run.
#[derive(Debug, Clone, Copy)]
pub struct TcpOffloadSpec {
    /// Master seed: fault draws and payload streams derive from it.
    pub seed: u64,
    /// Event shards to run under (byte-identical across counts).
    pub shards: usize,
    /// Concurrent connections (2 server nodes each).
    pub conns: usize,
    /// Stream length per connection.
    pub bytes_per_conn: u64,
    /// Uniform frame loss probability fed to the `FaultPlan`.
    pub loss: f64,
    /// Where the endpoints execute — the offload axis.
    pub placement: Placement,
    /// Simulated-time budget; the run stops early once every connection
    /// closes.
    pub budget: SimTime,
    /// Barrier granularity of the drive loop.
    pub step: SimTime,
}

impl TcpOffloadSpec {
    /// Fully parameterized constructor.
    pub fn custom(
        seed: u64,
        shards: usize,
        conns: usize,
        bytes_per_conn: u64,
        loss: f64,
        placement: Placement,
    ) -> TcpOffloadSpec {
        TcpOffloadSpec {
            seed,
            shards,
            conns,
            bytes_per_conn,
            loss,
            placement,
            budget: SimTime::from_ms(400),
            step: SimTime::from_us(500),
        }
    }

    /// CI-speed profile: 4 connections x 192 KiB at 2% loss, NIC-placed.
    pub fn smoke(seed: u64, shards: usize) -> TcpOffloadSpec {
        TcpOffloadSpec::custom(seed, shards, 4, 192 << 10, 0.02, Placement::Nic)
    }

    /// Figure profile: 8 connections x 1 MiB at 2% loss, NIC-placed.
    pub fn full(seed: u64, shards: usize) -> TcpOffloadSpec {
        TcpOffloadSpec::custom(seed, shards, 8, 1 << 20, 0.02, Placement::Nic)
    }

    /// Server nodes the topology needs (sender + receiver per connection).
    pub fn servers(&self) -> usize {
        2 * self.conns
    }

    /// Per-connection configuration; the stream seed is derived from the
    /// master seed and the connection index.
    pub fn conn_cfg(&self, conn: usize) -> TcpCfg {
        TcpCfg::lan(
            self.bytes_per_conn,
            self.seed.wrapping_add(conn as u64).wrapping_mul(0x9E37),
        )
    }
}

/// Headline numbers from one TCP-offload run.
#[derive(Debug, Clone, Copy)]
pub struct TcpOffloadStats {
    /// Connections driven (all must close).
    pub conns: usize,
    /// Stream bytes per connection.
    pub bytes_per_conn: u64,
    /// Configured loss rate.
    pub loss: f64,
    /// `"host"` or `"nic"` — where the endpoints ran.
    pub placement: &'static str,
    /// Stream bytes delivered in order across all connections.
    pub delivered: u64,
    /// Retransmitted segments across all connections.
    pub retx_segs: u64,
    /// Retransmission timeouts fired.
    pub rto_fired: u64,
    /// Flow completion time: barrier-grain instant when the last
    /// connection closed, ms.
    pub fct_ms: f64,
    /// Aggregate goodput over the completion window, Gbit/s.
    pub goodput_gbps: f64,
    /// Host cores kept busy, summed over all server nodes.
    pub host_cores: f64,
    /// NIC cores kept busy, summed over all server nodes.
    pub nic_cores: f64,
    /// Events processed across all shards (the DES work metric).
    pub events: u64,
}

impl TcpOffloadStats {
    fn headline(&self) -> Headline {
        vec![
            ("conns", self.conns.to_string()),
            ("bytes_per_conn", self.bytes_per_conn.to_string()),
            ("placement", self.placement.to_string()),
            ("loss", self.loss.to_string()),
            ("delivered", self.delivered.to_string()),
            ("fct_ms", format!("{:.3}", self.fct_ms)),
            ("goodput_gbps", format!("{:.3}", self.goodput_gbps)),
            ("retx_segs", self.retx_segs.to_string()),
            ("rto_fired", self.rto_fired.to_string()),
            ("host_cores", format!("{:.4}", self.host_cores)),
            ("nic_cores", format!("{:.4}", self.nic_cores)),
            ("events", self.events.to_string()),
        ]
    }
}

/// Run the scenario: install the loss plan, deploy the connection pairs,
/// run to completion (or budget), and audit — the TCP conservation slice
/// included — its shards one after the other. Hands back the cluster for
/// canonical exports.
pub fn run_tcp_offload(spec: &TcpOffloadSpec) -> (TcpOffloadStats, Cluster) {
    let mut c = Cluster::builder(CN2350)
        .servers(spec.servers())
        .clients(1)
        .mode(RuntimeMode::IPipe)
        .seed(spec.seed)
        .shards(spec.shards)
        .build();
    if spec.loss > 0.0 {
        c.set_fault_plan(FaultPlan::new(spec.seed ^ 0x7C9_F00D).with_loss(spec.loss));
    }
    let eps: Vec<TcpEndpoints> = (0..spec.conns)
        .map(|i| {
            deploy_tcp_pair(
                &mut c,
                spec.conn_cfg(i),
                i,
                spec.conns + i,
                i as u64,
                spec.placement,
            )
        })
        .collect();
    // Drive to completion. Closed-counter reads happen at run_for barriers
    // only, and the counters are shard-invariant, so the loop takes the
    // same number of steps at any shard count.
    let mut elapsed = SimTime::ZERO;
    let all_closed = |eps: &[TcpEndpoints]| eps.iter().all(|ep| ep.tx.closed.get() == 1);
    while elapsed < spec.budget && !all_closed(&eps) {
        c.run_for(spec.step);
        elapsed += spec.step;
    }
    let fct = c.now();
    // Let each closed sender's last RTO timer fire so quiesce is quiet.
    let drain = eps
        .first()
        .map(|ep| ep.cfg.rto_max)
        .unwrap_or(SimTime::from_ms(2));
    c.run_for(drain + drain);
    let mut report = c.audit();
    for ep in &eps {
        audit_tcp_into(&mut report, ep);
    }
    report.assert_clean();
    let delivered: u64 = eps.iter().map(|ep| ep.rx.delivered_bytes.get()).sum();
    let goodput_gbps = if fct > SimTime::ZERO {
        delivered as f64 * 8.0 / fct.as_secs_f64() / 1e9
    } else {
        0.0
    };
    let host_cores: f64 = (0..spec.servers()).map(|n| c.host_cores_used(n)).sum();
    let nic_cores: f64 = (0..spec.servers()).map(|n| c.nic_cores_used(n)).sum();
    let stats = TcpOffloadStats {
        conns: spec.conns,
        bytes_per_conn: spec.bytes_per_conn,
        loss: spec.loss,
        placement: match spec.placement {
            Placement::Host => "host",
            Placement::Nic => "nic",
        },
        delivered,
        retx_segs: eps.iter().map(|ep| ep.tx.retx_segs.get()).sum(),
        rto_fired: eps.iter().map(|ep| ep.tx.rto_fired.get()).sum(),
        fct_ms: fct.as_us_f64() / 1000.0,
        goodput_gbps,
        host_cores,
        nic_cores,
        events: c.shard_events().iter().sum(),
    };
    (stats, c)
}

/// Registry entry for this scenario.
pub struct TcpOffload;

impl Scenario for TcpOffload {
    fn name(&self) -> &'static str {
        "tcp-offload"
    }

    fn figure_seed(&self) -> u64 {
        77
    }

    fn shard_counts(&self) -> &'static [usize] {
        &[1, 2, 4]
    }

    fn must_be_nonzero(&self) -> &'static [&'static str] {
        &["retx_segs"]
    }

    fn run(&self, size: Size, seed: u64, shards: usize, _: &Obs) -> (Headline, Cluster) {
        let spec = match size {
            Size::Smoke => TcpOffloadSpec::smoke(seed, shards),
            Size::Full => TcpOffloadSpec::full(seed, shards),
        };
        let (stats, c) = run_tcp_offload(&spec);
        (stats.headline(), c)
    }
}

/// The placement × loss grid at full size under the figure seed —
/// host-cores-freed vs NIC-cores-burned for the same delivered streams at
/// 1% and 5% loss — one row per cell, host before NIC within each loss
/// rate. Every cell must deliver in full.
pub fn placement_loss() -> Table {
    let mut cells = Vec::new();
    for loss in [0.01, 0.05] {
        for placement in [Placement::Host, Placement::Nic] {
            let mut spec = TcpOffloadSpec::full(TcpOffload.figure_seed(), 1);
            spec.loss = loss;
            spec.placement = placement;
            let (stats, _) = run_tcp_offload(&spec);
            assert_eq!(
                stats.delivered,
                stats.conns as u64 * stats.bytes_per_conn,
                "every cell must deliver its full streams"
            );
            cells.push(stats.headline());
        }
    }
    let header: Vec<&str> = cells[0].iter().map(|(k, _)| *k).collect();
    let cell = |v: &String| Cell {
        text: v.clone(),
        value: v.parse().ok(),
    };
    let rows = cells
        .iter()
        .map(|h| h.iter().map(|(_, v)| cell(v)).collect())
        .collect();
    Table::new("tcp offload — placement x loss, full size", header, rows)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_run_closes_and_audits_clean() {
        let (stats, _c) = run_tcp_offload(&TcpOffloadSpec::smoke(7, 1));
        assert_eq!(stats.delivered, 4 * (192 << 10));
        assert!(stats.retx_segs > 0, "2% loss must force retransmissions");
        assert!(stats.goodput_gbps > 0.0);
        assert!(stats.events > 0);
    }

    #[test]
    fn offload_frees_host_cores_and_burns_nic_cores() {
        let mut host_spec = TcpOffloadSpec::smoke(21, 1);
        host_spec.placement = Placement::Host;
        let (host, _) = run_tcp_offload(&host_spec);
        let (nic, _) = run_tcp_offload(&TcpOffloadSpec::smoke(21, 1));
        assert_eq!(host.delivered, nic.delivered);
        // The paper's tradeoff, in one assert each way: moving the
        // endpoints to the NIC frees host cores and burns NIC cores.
        assert!(
            host.host_cores > nic.host_cores,
            "host-placed protocol work must show up on host cores: {} vs {}",
            host.host_cores,
            nic.host_cores
        );
        assert!(
            nic.nic_cores > host.nic_cores,
            "NIC-placed protocol work must show up on NIC cores: {} vs {}",
            nic.nic_cores,
            host.nic_cores
        );
    }

    #[test]
    fn lossless_run_never_retransmits() {
        let mut spec = TcpOffloadSpec::smoke(5, 1);
        spec.loss = 0.0;
        let (stats, _) = run_tcp_offload(&spec);
        assert_eq!(stats.retx_segs, 0);
        assert_eq!(stats.rto_fired, 0);
        assert_eq!(stats.delivered, 4 * (192 << 10));
    }
}

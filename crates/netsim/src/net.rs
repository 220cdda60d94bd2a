//! The link/switch timing oracle.

use crate::fault::{DropReason, FaultPlan, Verdict};
#[cfg(test)]
use crate::packet::NodeId;
use crate::packet::Packet;
use ipipe_nicsim::spec::WIRE_OVERHEAD_BYTES;
use ipipe_sim::obs::{Counter, HistHandle, Registry};
use ipipe_sim::SimTime;

/// A star topology: every node hangs off one ToR switch (Arista DCS-7050S /
/// Cavium XP70 in the paper's testbed) with a full-duplex link of
/// `link_gbps`. An optional rack layer adds a fixed inter-rack hop to
/// frames crossing rack boundaries (see [`NetModel::set_racks`]).
#[derive(Debug, Clone)]
pub struct NetModel {
    link_gbps: f64,
    /// Switch forwarding latency. The ToR is modelled as cut-through: this
    /// fixed latency is paid once per frame, independent of frame size
    /// (a store-and-forward switch would pay another full serialization
    /// here instead).
    switch_latency: SimTime,
    /// Cable propagation (short intra-rack runs).
    propagation: SimTime,
    /// Per-node egress port busy-until.
    tx_free: Vec<SimTime>,
    /// Per-node ingress port busy-until.
    rx_free: Vec<SimTime>,
    /// Rack id per node; empty = single flat rack (no extra hop anywhere).
    rack_of: Vec<u16>,
    /// Extra one-way latency for frames whose endpoints sit in different
    /// racks (aggregation-switch hop). Zero without racks.
    cross_rack_extra: SimTime,
    /// Optional fault schedule consulted by [`NetModel::begin_transfer`].
    fault: Option<FaultPlan>,
    /// Optional registry handles (see [`NetModel::attach_obs`]).
    obs: Option<NetMetrics>,
}

/// Outcome of the egress half of a transfer
/// (see [`NetModel::begin_transfer`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TxPhase {
    /// Frame left the sender; its first byte reaches the destination's
    /// ingress port at `port_ready` (ingress contention not yet resolved —
    /// call [`NetModel::finish_transfer`] at that instant).
    Sent {
        /// When the frame is at the destination ingress port.
        port_ready: SimTime,
    },
    /// As `Sent`, but the frame was corrupted on the wire: it still burns
    /// the ingress port before the receiver's header validation rejects it.
    SentCorrupt {
        /// When the frame is at the destination ingress port.
        port_ready: SimTime,
        /// Damaged byte offset within the IPv4 header (0..20).
        flip: u8,
    },
    /// Frame never reaches the destination port.
    Dropped {
        /// Why it was lost.
        reason: DropReason,
    },
}

/// Registry handles published when an observability registry is attached.
#[derive(Debug, Clone)]
struct NetMetrics {
    packets: Counter,
    bytes: Counter,
    tx_wait: HistHandle,
    drop_loss: Counter,
    drop_link: Counter,
    drop_node: Counter,
    corrupt: Counter,
}

impl NetModel {
    /// Build a star of `nodes` nodes with the given link speed.
    pub fn new(nodes: usize, link_gbps: f64) -> NetModel {
        assert!(nodes >= 2, "need at least two nodes");
        assert!(link_gbps > 0.0);
        NetModel {
            link_gbps,
            switch_latency: SimTime::from_ns(450),
            propagation: SimTime::from_ns(50),
            tx_free: vec![SimTime::ZERO; nodes],
            rx_free: vec![SimTime::ZERO; nodes],
            rack_of: Vec::new(),
            cross_rack_extra: SimTime::ZERO,
            fault: None,
            obs: None,
        }
    }

    /// Publish link metrics into `reg`: `net.packets`, `net.bytes`, the
    /// `net.tx_wait` histogram of egress head-of-line blocking time, and the
    /// `fault.*` counters fed by [`NetModel::begin_transfer`].
    pub fn attach_obs(&mut self, reg: &Registry) {
        self.obs = Some(NetMetrics {
            packets: reg.counter("net.packets"),
            bytes: reg.counter("net.bytes"),
            tx_wait: reg.hist("net.tx_wait"),
            drop_loss: reg.counter("fault.drop.loss"),
            drop_link: reg.counter("fault.drop.link"),
            drop_node: reg.counter("fault.drop.node"),
            corrupt: reg.counter("fault.corrupt"),
        });
    }

    /// Attach a seeded fault schedule; subsequent
    /// [`NetModel::begin_transfer`] calls consult it.
    pub fn set_fault_plan(&mut self, plan: FaultPlan) {
        self.fault = Some(plan);
    }

    /// True when `node` is inside a crash window of the attached plan.
    pub fn node_down(&self, node: u16, at: SimTime) -> bool {
        self.fault.as_ref().is_some_and(|f| f.node_down(node, at))
    }

    /// When `node`, crashed at `at`, restarts (None if it is up).
    pub fn down_until(&self, node: u16, at: SimTime) -> Option<SimTime> {
        self.fault.as_ref().and_then(|f| f.down_until(node, at))
    }

    /// Assign every node to a rack and charge `cross_rack_extra` extra
    /// one-way latency on frames whose endpoints sit in different racks
    /// (the aggregation-switch hop of a two-tier fabric). `rack_of.len()`
    /// must equal the node count. Rack-aligned event shards profit twice:
    /// the extra hop raises the cross-shard lookahead, widening epochs.
    pub fn set_racks(&mut self, rack_of: Vec<u16>, cross_rack_extra: SimTime) {
        assert_eq!(rack_of.len(), self.nodes(), "one rack id per node");
        self.rack_of = rack_of;
        self.cross_rack_extra = cross_rack_extra;
    }

    /// Extra one-way latency between `src` and `dst` from the rack layer.
    #[inline]
    fn path_extra(&self, src: usize, dst: usize) -> SimTime {
        if self.rack_of.is_empty() || self.rack_of[src] == self.rack_of[dst] {
            SimTime::ZERO
        } else {
            self.cross_rack_extra
        }
    }

    /// Number of attached nodes.
    pub fn nodes(&self) -> usize {
        self.tx_free.len()
    }

    /// On-wire serialization time of a frame (payload + Ethernet overhead).
    pub fn wire_time(&self, size: u32) -> SimTime {
        // Widen before multiplying: (size + overhead) * 8 overflows u32 for
        // sizes above ~512 MiB (jumbo DMA transfers in the migration path).
        let bits = ((size as u64 + WIRE_OVERHEAD_BYTES as u64) * 8) as f64;
        SimTime::from_secs_f64(bits / (self.link_gbps * 1e9))
    }

    /// Charge `pkt`'s serialization to its sender's egress port from `now`
    /// and account the frame; returns when its last bit leaves the sender.
    fn charge_egress(&mut self, now: SimTime, pkt: &Packet) -> SimTime {
        let s = pkt.src.0 as usize;
        let tx_start = now.max(self.tx_free[s]);
        let tx_end = tx_start + self.wire_time(pkt.size);
        self.tx_free[s] = tx_end;
        if let Some(m) = &self.obs {
            m.packets.inc();
            m.bytes.add((pkt.size + WIRE_OVERHEAD_BYTES) as u64);
            m.tx_wait.record(tx_start.saturating_sub(now));
        }
        tx_end
    }

    /// Egress half of a transfer: judge faults, charge the sender's egress
    /// port and byte accounting, and report when the frame is at the
    /// destination's ingress port (`port_ready`). Ingress contention is
    /// *not* resolved here — the caller must invoke
    /// [`NetModel::finish_transfer`] once simulation time reaches
    /// `port_ready`, resolving arrivals at each port in timestamp order.
    ///
    /// Serialization happens on the egress link and the cut-through switch
    /// adds its fixed forwarding latency; the destination's ingress link is
    /// then occupied for another serialization period, so concurrent senders
    /// to one receiver serialize there (egress-port head-of-line blocking at
    /// the ToR, charged at the receiving link). Splitting the transfer makes
    /// that ingress resolution independent of the *call* order of sends: the
    /// sharded cluster runtime buffers `TxPhase` results in per-destination
    /// pools ordered by `(port_ready, src, seq)` and drains them at each
    /// instant, so any shard count resolves contention identically.
    ///
    /// Occupancy policy under faults: a lost frame was still serialized by
    /// the sender, so it occupies the egress port (and counts toward
    /// `net.bytes`) but never touches the receiver. A corrupted frame takes
    /// the full path — the receiver's shim stack burns the ingress occupancy
    /// before its header validation rejects it. Link-down and node-down
    /// frames never reach the wire: no occupancy, no byte accounting.
    /// Without a plan no random draw is made.
    pub fn begin_transfer(&mut self, now: SimTime, pkt: &Packet) -> TxPhase {
        let (s, d) = (pkt.src.0 as usize, pkt.dst.0 as usize);
        assert!(s < self.nodes() && d < self.nodes(), "unknown node");
        assert_ne!(s, d, "loopback packets never reach the wire");
        let verdict = match &mut self.fault {
            None => Verdict::Deliver,
            Some(plan) => plan.judge(now, pkt),
        };
        if let Verdict::Drop(reason) = verdict {
            if reason == DropReason::Loss {
                self.charge_egress(now, pkt);
            }
            if let Some(m) = &self.obs {
                match reason {
                    DropReason::Loss => m.drop_loss.inc(),
                    DropReason::LinkDown => m.drop_link.inc(),
                    DropReason::NodeDown => m.drop_node.inc(),
                }
            }
            return TxPhase::Dropped { reason };
        }
        let tx_end = self.charge_egress(now, pkt);
        let port_ready = tx_end + self.switch_latency + self.propagation + self.path_extra(s, d);
        match verdict {
            Verdict::Corrupt { flip } => {
                if let Some(m) = &self.obs {
                    m.corrupt.inc();
                }
                TxPhase::SentCorrupt { port_ready, flip }
            }
            _ => TxPhase::Sent { port_ready },
        }
    }

    /// Ingress half of a transfer: the frame is at `dst`'s port at
    /// `port_ready`; resolve ingress-port contention and return when its
    /// last byte lands. Call in `(port_ready, …)` order per destination.
    pub fn finish_transfer(&mut self, port_ready: SimTime, dst: u16, size: u32) -> SimTime {
        let d = dst as usize;
        assert!(d < self.nodes(), "unknown node");
        let rx_start = port_ready.max(self.rx_free[d]);
        let rx_end = rx_start + self.wire_time(size);
        self.rx_free[d] = rx_end;
        rx_end
    }

    /// Lower bound on `port_ready - now` for any frame between any pair of
    /// nodes: minimum serialization (empty payload still carries Ethernet
    /// overhead) plus the fixed switch + propagation delay. Strictly
    /// positive.
    pub fn min_latency(&self) -> SimTime {
        self.wire_time(0) + self.switch_latency + self.propagation
    }

    /// Conservative-lookahead bound for a sharded run: the minimum
    /// `port_ready - now` over all *cross-shard* node pairs under the
    /// shard assignment `shard_of` (one entry per node). `None` when no
    /// pair crosses a shard boundary (single shard). With a rack layer,
    /// shard assignments aligned to racks earn the extra inter-rack hop as
    /// additional lookahead.
    pub fn min_cross_latency(&self, shard_of: &[u16]) -> Option<SimTime> {
        assert_eq!(shard_of.len(), self.nodes(), "one shard id per node");
        // The pair scan is quadratic; one shard has no pair to find.
        if shard_of.iter().all(|&s| s == shard_of[0]) {
            return None;
        }
        let base = self.min_latency();
        let mut best: Option<SimTime> = None;
        for s in 0..self.nodes() {
            for d in 0..self.nodes() {
                if s == d || shard_of[s] == shard_of[d] {
                    continue;
                }
                let l = base + self.path_extra(s, d);
                best = Some(match best {
                    Some(b) if b <= l => b,
                    _ => l,
                });
            }
        }
        best
    }

    /// Unloaded one-way latency for a frame of `size` bytes.
    pub fn base_latency(&self, size: u32) -> SimTime {
        self.wire_time(size) * 2 + self.switch_latency + self.propagation
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::PacketKind;

    fn pkt(src: u16, dst: u16, size: u32) -> Packet {
        Packet::new(NodeId(src), NodeId(dst), 1, size, PacketKind::Request)
    }

    /// Both halves of a transfer back to back: send at `now` and resolve the
    /// arrival at once — in order as long as a test sends its frames to one
    /// destination in `port_ready` order. Returns when the last byte lands.
    fn deliver(n: &mut NetModel, now: SimTime, p: &Packet) -> SimTime {
        match n.begin_transfer(now, p) {
            TxPhase::Sent { port_ready } | TxPhase::SentCorrupt { port_ready, .. } => {
                n.finish_transfer(port_ready, p.dst.0, p.size)
            }
            TxPhase::Dropped { reason } => panic!("frame dropped: {reason:?}"),
        }
    }

    #[test]
    fn wire_time_matches_line_rate_math() {
        let n = NetModel::new(2, 10.0);
        // (1500+24)*8 bits at 10Gbps = 1219.2ns.
        let t = n.wire_time(1500).as_ns();
        assert!((t as i64 - 1219).abs() <= 1, "t={t}");
        // 25GbE is 2.5x faster.
        let n25 = NetModel::new(2, 25.0);
        assert!(n25.wire_time(1500) < n.wire_time(1500));
    }

    #[test]
    fn unloaded_transfer_hits_base_latency() {
        let mut n = NetModel::new(2, 10.0);
        let arrival = deliver(&mut n, SimTime::from_us(10), &pkt(0, 1, 512));
        assert_eq!(arrival, SimTime::from_us(10) + n.base_latency(512),);
    }

    #[test]
    fn egress_serialization_backs_up() {
        let mut n = NetModel::new(2, 10.0);
        let a1 = deliver(&mut n, SimTime::ZERO, &pkt(0, 1, 1500));
        let a2 = deliver(&mut n, SimTime::ZERO, &pkt(0, 1, 1500));
        let a3 = deliver(&mut n, SimTime::ZERO, &pkt(0, 1, 1500));
        let w = n.wire_time(1500);
        assert_eq!(a2, a1 + w);
        assert_eq!(a3, a2 + w);
    }

    #[test]
    fn ingress_contention_from_two_senders() {
        let mut n = NetModel::new(3, 10.0);
        let a1 = deliver(&mut n, SimTime::ZERO, &pkt(0, 2, 1500));
        let a2 = deliver(&mut n, SimTime::ZERO, &pkt(1, 2, 1500));
        // Both serialize in parallel on their own egress links but collide on
        // node 2's ingress port.
        assert_eq!(a2, a1 + n.wire_time(1500));
    }

    #[test]
    fn distinct_destinations_do_not_contend() {
        let mut n = NetModel::new(3, 10.0);
        let a1 = deliver(&mut n, SimTime::ZERO, &pkt(0, 1, 1500));
        let mut n2 = NetModel::new(3, 10.0);
        let a1_alone = deliver(&mut n2, SimTime::ZERO, &pkt(0, 1, 1500));
        assert_eq!(a1, a1_alone);
    }

    #[test]
    fn accounting() {
        let reg = Registry::new();
        let mut n = NetModel::new(2, 10.0);
        n.attach_obs(&reg);
        deliver(&mut n, SimTime::ZERO, &pkt(0, 1, 1000));
        deliver(&mut n, SimTime::ZERO, &pkt(0, 1, 1000));
        assert_eq!(reg.counter("net.packets").get(), 2);
        assert_eq!(reg.counter("net.bytes").get(), 2 * 1024);
    }

    #[test]
    #[should_panic(expected = "loopback")]
    fn loopback_rejected() {
        let mut n = NetModel::new(2, 10.0);
        n.begin_transfer(SimTime::ZERO, &pkt(0, 0, 64));
    }

    #[test]
    fn wire_time_survives_huge_frames() {
        // Regression: (size + overhead) * 8 used to be computed in u32 and
        // wrapped for sizes near u32::MAX, yielding a near-zero wire time.
        let n = NetModel::new(2, 10.0);
        let huge = n.wire_time(u32::MAX - WIRE_OVERHEAD_BYTES);
        // 2^32 * 8 bits at 10 Gbps is ~3.44 s.
        assert!(huge > SimTime::from_ms(3000), "huge={huge:?}");
        // Monotone in size across the old wrap point.
        assert!(n.wire_time(u32::MAX - WIRE_OVERHEAD_BYTES) > n.wire_time(1 << 29));
        assert!(n.wire_time(1 << 29) > n.wire_time(1500));
    }

    #[test]
    fn three_senders_serialize_on_one_ingress_port() {
        let mut n = NetModel::new(4, 10.0);
        let w = n.wire_time(1500);
        let a1 = deliver(&mut n, SimTime::ZERO, &pkt(0, 3, 1500));
        let a2 = deliver(&mut n, SimTime::ZERO, &pkt(1, 3, 1500));
        let a3 = deliver(&mut n, SimTime::ZERO, &pkt(2, 3, 1500));
        // Egress links are independent, so all three frames reach the switch
        // together; node 3's ingress port then drains them back to back.
        assert_eq!(a2, a1 + w);
        assert_eq!(a3, a2 + w);
        // A later-injected frame to a different receiver is unaffected.
        let mut fresh = NetModel::new(4, 10.0);
        assert_eq!(
            deliver(&mut n, SimTime::ZERO, &pkt(0, 2, 64)),
            deliver(&mut fresh, SimTime::ZERO, &pkt(0, 2, 64)) + w
        );
    }

    #[test]
    fn ingress_resolution_follows_port_ready_not_call_order() {
        // A short frame sent second reaches the port first. Resolved in
        // `port_ready` order neither waits for the other; in call order the
        // short one would have queued behind the long one's reception.
        let mut n = NetModel::new(3, 10.0);
        let (long, short) = (pkt(0, 2, 1500), pkt(1, 2, 64));
        let TxPhase::Sent { port_ready: late } = n.begin_transfer(SimTime::ZERO, &long) else {
            panic!("no plan attached");
        };
        let TxPhase::Sent { port_ready: early } = n.begin_transfer(SimTime::ZERO, &short) else {
            panic!("no plan attached");
        };
        assert!(early < late);
        let first = n.finish_transfer(early, 2, short.size);
        assert_eq!(first, n.base_latency(short.size));
        assert!(first < late);
        assert_eq!(
            n.finish_transfer(late, 2, long.size),
            n.base_latency(long.size)
        );
    }

    #[test]
    fn lost_frames_occupy_egress_but_not_ingress() {
        let mut n = NetModel::new(3, 10.0);
        n.set_fault_plan(FaultPlan::new(1).with_link_loss(0, 2, 1.0));
        let w = n.wire_time(1500);
        assert_eq!(
            n.begin_transfer(SimTime::ZERO, &pkt(0, 2, 1500)),
            TxPhase::Dropped {
                reason: DropReason::Loss
            }
        );
        // Sender 0's next frame queues behind the lost one on egress...
        let next = deliver(&mut n, SimTime::ZERO, &pkt(0, 1, 1500));
        let mut clean = NetModel::new(3, 10.0);
        let unqueued = deliver(&mut clean, SimTime::ZERO, &pkt(0, 1, 1500));
        assert_eq!(next, unqueued + w);
        // ...but receiver 2's ingress port never saw the lost frame.
        let from_other = deliver(&mut n, SimTime::ZERO, &pkt(1, 2, 1500));
        let mut clean2 = NetModel::new(3, 10.0);
        let direct = deliver(&mut clean2, SimTime::ZERO, &pkt(1, 2, 1500));
        assert_eq!(from_other, direct);
    }

    #[test]
    fn node_down_frames_leave_no_trace() {
        let reg = Registry::new();
        let mut n = NetModel::new(2, 10.0);
        n.attach_obs(&reg);
        n.set_fault_plan(FaultPlan::new(2).with_crash(1, SimTime::ZERO, SimTime::from_ms(1)));
        assert!(n.node_down(1, SimTime::ZERO));
        assert_eq!(n.down_until(1, SimTime::ZERO), Some(SimTime::from_ms(1)));
        assert_eq!(
            n.begin_transfer(SimTime::from_us(3), &pkt(0, 1, 1500)),
            TxPhase::Dropped {
                reason: DropReason::NodeDown
            }
        );
        assert_eq!(reg.counter("net.packets").get(), 0);
        assert_eq!(reg.counter("net.bytes").get(), 0);
        // After restart, traffic flows again.
        let after = n.begin_transfer(SimTime::from_ms(1), &pkt(0, 1, 1500));
        assert!(matches!(after, TxPhase::Sent { .. }));
    }

    #[test]
    fn faulted_runs_replay_byte_identically() {
        let run = || {
            let mut n = NetModel::new(3, 10.0);
            n.set_fault_plan(
                FaultPlan::new(9)
                    .with_loss(0.2)
                    .with_corruption(0.1)
                    .with_link_down(2, SimTime::from_us(10), SimTime::from_us(30)),
            );
            (0..500u16)
                .map(|i| {
                    n.begin_transfer(SimTime::from_ns(40 * u64::from(i)), &pkt(0, 1 + i % 2, 800))
                })
                .collect::<Vec<_>>()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn registry_counts_fault_outcomes() {
        let reg = Registry::new();
        let mut n = NetModel::new(2, 10.0);
        n.attach_obs(&reg);
        n.set_fault_plan(FaultPlan::new(4).with_corruption(1.0));
        let d = n.begin_transfer(SimTime::ZERO, &pkt(0, 1, 256));
        assert!(matches!(d, TxPhase::SentCorrupt { .. }));
        assert_eq!(reg.counter("fault.corrupt").get(), 1);
        assert_eq!(reg.counter("net.packets").get(), 1, "corrupt frames fly");
        n.set_fault_plan(FaultPlan::new(4).with_loss(1.0));
        n.begin_transfer(SimTime::ZERO, &pkt(0, 1, 256));
        assert_eq!(reg.counter("fault.drop.loss").get(), 1);
    }

    #[test]
    fn attached_registry_sees_link_traffic() {
        let reg = Registry::new();
        let mut n = NetModel::new(2, 10.0);
        n.attach_obs(&reg);
        deliver(&mut n, SimTime::ZERO, &pkt(0, 1, 1000));
        deliver(&mut n, SimTime::ZERO, &pkt(0, 1, 1000)); // backs up on egress
        assert_eq!(reg.counter("net.packets").get(), 2);
        assert_eq!(reg.counter("net.bytes").get(), 2 * 1024);
        let wait = reg.hist("net.tx_wait");
        assert_eq!(wait.count(), 2);
        assert!(wait.max() >= n.wire_time(1000), "second frame waited");
    }

    #[test]
    fn cross_shard_lookahead_reflects_racks() {
        let mut n = NetModel::new(4, 10.0);
        // Two shards, flat topology: lookahead = min_latency.
        let flat = n.min_cross_latency(&[0, 0, 1, 1]).unwrap();
        assert_eq!(flat, n.min_latency());
        assert!(flat > SimTime::ZERO);
        // Single shard: no cross pairs.
        assert_eq!(n.min_cross_latency(&[0, 0, 0, 0]), None);
        // Rack-aligned shards earn the inter-rack hop as extra lookahead.
        n.set_racks(vec![0, 0, 1, 1], SimTime::from_us(1));
        assert_eq!(
            n.min_cross_latency(&[0, 0, 1, 1]).unwrap(),
            n.min_latency() + SimTime::from_us(1)
        );
        // A shard split that straddles a rack loses the bonus.
        assert_eq!(n.min_cross_latency(&[0, 1, 0, 1]).unwrap(), n.min_latency());
    }
}

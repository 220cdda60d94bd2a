//! Deterministic fault injection for the network substrate.
//!
//! A [`FaultPlan`] layers failures over [`crate::NetModel::begin_transfer`]:
//! seeded per-link packet loss, frame corruption (the receiver's shim stack
//! must reject the frame through its real header codec), link-down windows,
//! and node crash/restart intervals. All randomness comes from the plan's
//! seed, one [`DetRng`] stream per sending node, so a cluster built with the
//! same seed and the same plan replays every drop, flip and outage
//! byte-for-byte — the determinism guarantee the traceview CI gate pins —
//! however its nodes are spread over event shards.
//!
//! The fault model is a *connectivity* model: a crashed node loses every
//! frame to and from it for the window but keeps its local state, i.e. the
//! fail-recover behaviour of a machine that drops off the ToR switch and
//! comes back (§4's leaderless-window discussion). Loss and corruption occur
//! on the wire after egress serialization — a lost frame still occupies the
//! sender's egress port, a corrupted frame additionally occupies the
//! receiver's ingress port before the shim stack discards it.

use crate::packet::Packet;
use ipipe_sim::{DetRng, SimTime};

/// Why a frame never reached its receiver's shim stack.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DropReason {
    /// Random on-the-wire loss.
    Loss,
    /// The access link of one endpoint was administratively down.
    LinkDown,
    /// One endpoint was inside a crash window.
    NodeDown,
}

/// A window during which a node's access link is down (both directions).
#[derive(Debug, Clone, Copy)]
struct LinkWindow {
    node: u16,
    from: SimTime,
    until: SimTime,
}

/// A crash/restart interval for a node.
#[derive(Debug, Clone, Copy)]
struct CrashWindow {
    node: u16,
    at: SimTime,
    restart: SimTime,
}

/// The verdict the plan renders for one frame (internal to the net model).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Verdict {
    Deliver,
    Corrupt { flip: u8 },
    Drop(DropReason),
}

/// A seeded schedule of network faults.
///
/// Built once, attached to a `NetModel` via `set_fault_plan`, consulted on
/// every `begin_transfer`. Probabilistic faults (loss, corruption) draw from
/// the sending node's stream, so a node's verdicts are a function of its
/// own send sequence alone, however sends from different nodes interleave
/// — which is what keeps them identical across shard counts, whatever order
/// the shards' slices send in. Scheduled faults (link-down,
/// crash) are pure time-window lookups.
#[derive(Debug, Clone)]
pub struct FaultPlan {
    /// The seed stream; only ever forked, one stream per node.
    rng: DetRng,
    /// Per-source-node streams, forked off `rng` in node-index order the
    /// first time a node that far up sends.
    streams: Vec<DetRng>,
    /// Default per-frame loss probability on every link.
    loss: f64,
    /// Per-frame header-corruption probability.
    corrupt: f64,
    /// Directed (src, dst) loss overrides, checked before the default.
    link_loss: Vec<(u16, u16, f64)>,
    link_down: Vec<LinkWindow>,
    crashes: Vec<CrashWindow>,
}

impl FaultPlan {
    /// A fault-free plan seeded for later probabilistic draws.
    pub fn new(seed: u64) -> FaultPlan {
        FaultPlan {
            rng: DetRng::new(seed),
            streams: Vec::new(),
            loss: 0.0,
            corrupt: 0.0,
            link_loss: Vec::new(),
            link_down: Vec::new(),
            crashes: Vec::new(),
        }
    }

    /// Set the default per-frame loss probability.
    pub fn with_loss(mut self, p: f64) -> FaultPlan {
        assert!((0.0..=1.0).contains(&p), "loss probability out of range");
        self.loss = p;
        self
    }

    /// Set the per-frame header-corruption probability.
    pub fn with_corruption(mut self, p: f64) -> FaultPlan {
        assert!(
            (0.0..=1.0).contains(&p),
            "corruption probability out of range"
        );
        self.corrupt = p;
        self
    }

    /// Override the loss probability of the directed link `src -> dst`.
    pub fn with_link_loss(mut self, src: u16, dst: u16, p: f64) -> FaultPlan {
        assert!((0.0..=1.0).contains(&p), "loss probability out of range");
        self.link_loss.push((src, dst, p));
        self
    }

    /// Take `node`'s access link down for `[from, until)` (both directions).
    pub fn with_link_down(mut self, node: u16, from: SimTime, until: SimTime) -> FaultPlan {
        assert!(from < until, "empty link-down window");
        self.link_down.push(LinkWindow { node, from, until });
        self
    }

    /// Crash `node` at `at`; it restarts (state intact, connectivity
    /// restored) at `restart`.
    pub fn with_crash(mut self, node: u16, at: SimTime, restart: SimTime) -> FaultPlan {
        assert!(at < restart, "empty crash window");
        self.crashes.push(CrashWindow { node, at, restart });
        self
    }

    /// True when `node` is inside a crash window at `at`.
    pub fn node_down(&self, node: u16, at: SimTime) -> bool {
        self.crashes
            .iter()
            .any(|c| c.node == node && at >= c.at && at < c.restart)
    }

    /// When `node`, currently crashed at `at`, will restart.
    pub fn down_until(&self, node: u16, at: SimTime) -> Option<SimTime> {
        self.crashes
            .iter()
            .filter(|c| c.node == node && at >= c.at && at < c.restart)
            .map(|c| c.restart)
            .max()
    }

    /// True when `node`'s access link is down at `at`.
    pub fn link_is_down(&self, node: u16, at: SimTime) -> bool {
        self.link_down
            .iter()
            .any(|w| w.node == node && at >= w.from && at < w.until)
    }

    fn loss_for(&self, src: u16, dst: u16) -> f64 {
        self.link_loss
            .iter()
            .find(|(s, d, _)| *s == src && *d == dst)
            .map(|(_, _, p)| *p)
            .unwrap_or(self.loss)
    }

    /// Judge one frame handed to the source NIC at `now`.
    ///
    /// Scheduled faults are checked first (no RNG draw); then exactly one
    /// loss draw and, when loss is survived, one corruption draw — keeping
    /// the stream consumption per frame fixed so adding a crash window never
    /// shifts the draws of later frames.
    pub(crate) fn judge(&mut self, now: SimTime, pkt: &Packet) -> Verdict {
        let (s, d) = (pkt.src.0, pkt.dst.0);
        if self.node_down(s, now) || self.node_down(d, now) {
            return Verdict::Drop(DropReason::NodeDown);
        }
        if self.link_is_down(s, now) || self.link_is_down(d, now) {
            return Verdict::Drop(DropReason::LinkDown);
        }
        let loss_p = self.loss_for(s, d);
        while self.streams.len() <= s as usize {
            self.streams.push(self.rng.fork());
        }
        let rng = &mut self.streams[s as usize];
        if rng.chance(loss_p) {
            return Verdict::Drop(DropReason::Loss);
        }
        if rng.chance(self.corrupt) {
            // Any single damaged byte inside the IPv4 header breaks the RFC
            // 1071 checksum (a one-byte xor can never shift a 16-bit word by
            // a multiple of 0xFFFF), so `parse_headers` is guaranteed to
            // reject the frame at the receiver.
            let flip = u8::try_from(rng.index(20)).expect("an index below 20 fits a byte");
            return Verdict::Corrupt { flip };
        }
        Verdict::Deliver
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::{NodeId, PacketKind};

    fn pkt(src: u16, dst: u16) -> Packet {
        Packet::new(NodeId(src), NodeId(dst), 1, 512, PacketKind::Request)
    }

    #[test]
    fn fault_free_plan_delivers_everything() {
        let mut p = FaultPlan::new(1);
        for _ in 0..1000 {
            assert_eq!(p.judge(SimTime::ZERO, &pkt(0, 1)), Verdict::Deliver);
        }
    }

    #[test]
    fn loss_rate_is_roughly_honoured_and_deterministic() {
        let run = || {
            let mut p = FaultPlan::new(7).with_loss(0.1);
            (0..10_000)
                .map(|_| p.judge(SimTime::ZERO, &pkt(0, 1)))
                .collect::<Vec<_>>()
        };
        let a = run();
        assert_eq!(a, run(), "same seed must replay the same verdicts");
        let lost = a
            .iter()
            .filter(|v| **v == Verdict::Drop(DropReason::Loss))
            .count();
        assert!((800..1200).contains(&lost), "lost={lost}");
    }

    #[test]
    fn crash_window_bounds_and_restart() {
        let p = FaultPlan::new(0).with_crash(2, SimTime::from_us(10), SimTime::from_us(20));
        assert!(!p.node_down(2, SimTime::from_us(9)));
        assert!(p.node_down(2, SimTime::from_us(10)));
        assert!(p.node_down(2, SimTime::from_us(19)));
        assert!(!p.node_down(2, SimTime::from_us(20)));
        assert!(!p.node_down(1, SimTime::from_us(15)));
        assert_eq!(
            p.down_until(2, SimTime::from_us(15)),
            Some(SimTime::from_us(20))
        );
        assert_eq!(p.down_until(2, SimTime::from_us(25)), None);
    }

    #[test]
    fn crashed_endpoint_drops_without_consuming_randomness() {
        // Scheduled faults must not shift the RNG stream: identical plans,
        // one judging a crashed-node frame in between, agree afterwards.
        let mut a =
            FaultPlan::new(3)
                .with_loss(0.5)
                .with_crash(9, SimTime::ZERO, SimTime::from_ms(1));
        let mut b =
            FaultPlan::new(3)
                .with_loss(0.5)
                .with_crash(9, SimTime::ZERO, SimTime::from_ms(1));
        assert_eq!(
            a.judge(SimTime::ZERO, &pkt(0, 9)),
            Verdict::Drop(DropReason::NodeDown)
        );
        for _ in 0..64 {
            assert_eq!(
                a.judge(SimTime::ZERO, &pkt(0, 1)),
                b.judge(SimTime::ZERO, &pkt(0, 1))
            );
        }
    }

    #[test]
    fn per_link_override_beats_default() {
        let mut p = FaultPlan::new(11).with_loss(0.0).with_link_loss(0, 1, 1.0);
        assert_eq!(
            p.judge(SimTime::ZERO, &pkt(0, 1)),
            Verdict::Drop(DropReason::Loss)
        );
        assert_eq!(p.judge(SimTime::ZERO, &pkt(1, 0)), Verdict::Deliver);
    }

    #[test]
    fn corruption_flips_a_header_byte() {
        let mut p = FaultPlan::new(5).with_corruption(1.0);
        for _ in 0..100 {
            match p.judge(SimTime::ZERO, &pkt(0, 1)) {
                Verdict::Corrupt { flip } => assert!(flip < 20),
                v => panic!("expected corruption, got {v:?}"),
            }
        }
    }

    #[test]
    fn per_source_streams_are_interleaving_invariant() {
        // A node's verdicts depend only on its own send sequence, not on how
        // sends from different nodes interleave or on which node sent first
        // — the property the sharded cluster runtime builds on.
        let mk = || FaultPlan::new(42).with_loss(0.3).with_corruption(0.1);
        let (mut a, mut b) = (mk(), mk());
        // a: node 0 sends 32 frames back to back, then node 1 sends 32.
        let a0: Vec<_> = (0..32)
            .map(|_| a.judge(SimTime::ZERO, &pkt(0, 2)))
            .collect();
        let a1: Vec<_> = (0..32)
            .map(|_| a.judge(SimTime::ZERO, &pkt(1, 2)))
            .collect();
        // b: the same sends, interleaved frame by frame, node 1 first.
        let mut b0 = Vec::new();
        let mut b1 = Vec::new();
        for _ in 0..32 {
            b1.push(b.judge(SimTime::ZERO, &pkt(1, 2)));
            b0.push(b.judge(SimTime::ZERO, &pkt(0, 2)));
        }
        assert_eq!(a0, b0);
        assert_eq!(a1, b1);
        assert_ne!(a0, a1, "each node draws from a stream of its own");
    }

    #[test]
    fn link_down_window_drops_both_directions() {
        let mut p = FaultPlan::new(0).with_link_down(1, SimTime::from_us(5), SimTime::from_us(6));
        let at = SimTime::from_us(5);
        assert_eq!(p.judge(at, &pkt(0, 1)), Verdict::Drop(DropReason::LinkDown));
        assert_eq!(p.judge(at, &pkt(1, 0)), Verdict::Drop(DropReason::LinkDown));
        assert_eq!(p.judge(SimTime::from_us(6), &pkt(0, 1)), Verdict::Deliver);
    }
}

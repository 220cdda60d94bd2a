//! Transparent TCP-stack offload over the shim nstack (PnO-TCP-style).
//!
//! The shim stack ([`crate::nstack`]) stops at UDP encapsulation; this
//! module grows it into a real, stateful transport built from two actors —
//! a [`TcpSender`] and a [`TcpReceiver`] — that speak the 54-byte
//! Ethernet + IPv4 + TCP codec over the ordinary actor messaging fabric:
//!
//! * **three-way handshake** — SYN / SYN-ACK, with the final ACK piggybacked
//!   on the first data segment (both ends tolerate every handshake frame
//!   being lost: the sender's RTO re-fires the SYN, a duplicate SYN re-fires
//!   the SYN-ACK);
//! * **sequence/ack tracking** — SYN occupies sequence 0, data byte `i`
//!   occupies `1 + i`, FIN occupies `1 + total`; the receiver acknowledges
//!   cumulatively;
//! * **congestion control** — slow start below `ssthresh` (cwnd += MSS per
//!   new ACK), AIMD above it (cwnd += MSS·MSS/cwnd), multiplicative
//!   decrease to one MSS on timeout ([`cwnd_on_ack`] / [`cwnd_on_timeout`]
//!   are pure and unit-tested);
//! * **RTO-driven retransmission** — Tahoe-style go-back-N: a timeout
//!   rewinds `snd_nxt` to `snd_una` and the window resends from there in
//!   sequence order, with exponential backoff clamped to `[rto_min,
//!   rto_max]`. Loss
//!   comes from the existing seeded `FaultPlan` (a corrupted frame is
//!   rejected by the codec's checksums, so corruption degenerates to loss);
//! * **in-order exactly-once delivery** — the receiver reassembles
//!   out-of-order segments in a BTreeMap and advances `rcv_nxt` over
//!   contiguous bytes exactly once, verifying each delivered byte against
//!   the seeded reference stream ([`stream_word`]), eight bytes per compare
//!   ([`stream_mismatches`]).
//!
//! Both endpoints are plain [`ActorLogic`] implementations, so the same
//! connection runs on host cores or NIC cores by flipping
//! [`crate::rt::Placement`] — which is the whole point: the
//! `tcp-offload` bench scenario measures host-cores-freed vs
//! NIC-cores-burned under configurable loss.
//!
//! The sender keeps one retransmission timer: a deadline (the arming
//! execution's instant plus `rto`) and one live delayed self-send (the actor
//! timer facility), tagged with `epoch`. Re-arming on a new ACK only moves
//! the deadline. The live self-send, firing before it, re-sends itself for
//! the remainder; firing at or after it, it runs the RTO. A new self-send
//! goes out only when none is live or the deadline moved earlier (the `rto`
//! reset after a backoff), and bumps `epoch`, so the superseded one fails
//! its epoch check and dies. The conservation invariant audited at quiesce
//! is
//! `bytes_sent == bytes_acked + bytes_in_flight + bytes_dropped_pending_rto`
//! ([`audit_tcp_into`]). It holds by construction, since the sender's
//! sequence state is three stream offsets `snd_una <= snd_nxt <= snd_max`:
//! sent is `snd_max`, acked `snd_una`, in flight `snd_nxt - snd_una` and
//! lost `snd_max - snd_nxt`.

#![deny(clippy::cast_possible_truncation)]

use std::collections::BTreeMap;

use ipipe_sim::audit::AuditReport;
use ipipe_sim::obs::{Counter, Gauge, Registry};
use ipipe_sim::SimTime;

use crate::actor::{ActorCtx, ActorLogic, Address, Request};
use crate::nstack::{
    build_tcp_headers, parse_tcp_headers, TcpHeader, MAX_TCP_PAYLOAD, TCP_ACK, TCP_FIN,
    TCP_HEADER_BYTES, TCP_SYN,
};
use crate::rt::{Cluster, Placement};

/// Connection configuration shared by both endpoints.
#[derive(Debug, Clone, Copy)]
pub struct TcpCfg {
    /// Maximum segment size, bytes of payload per segment.
    pub mss: u32,
    /// Initial congestion window, in segments (RFC 6928 uses 10; we default
    /// lower so slow start is visible in short transfers).
    pub init_cwnd_segs: u32,
    /// Hard cap on the congestion window, in segments (stands in for the
    /// receiver's advertised window).
    pub cwnd_cap_segs: u32,
    /// Initial retransmission timeout.
    pub rto_init: SimTime,
    /// Lower clamp on the backoff.
    pub rto_min: SimTime,
    /// Upper clamp on the backoff.
    pub rto_max: SimTime,
    /// Total stream bytes the sender pushes before FIN.
    pub total_bytes: u64,
    /// Seed of the deterministic payload stream ([`stream_word`]).
    pub stream_seed: u64,
    /// Modeled protocol-processing cost per segment, ns on a nominal core.
    pub work_per_seg_ns: u64,
}

impl TcpCfg {
    /// A LAN-profile connection: 1460-byte MSS, 4-segment initial window,
    /// RTOs sized for microsecond-scale fabric RTTs.
    pub fn lan(total_bytes: u64, stream_seed: u64) -> TcpCfg {
        TcpCfg {
            mss: 1460,
            init_cwnd_segs: 4,
            cwnd_cap_segs: 32,
            rto_init: SimTime::from_us(100),
            rto_min: SimTime::from_us(50),
            rto_max: SimTime::from_ms(2),
            total_bytes,
            stream_seed,
            work_per_seg_ns: 300,
        }
    }

    fn validate(&self) {
        assert!(self.mss > 0, "mss must be nonzero");
        // The header's `payload_len` and `window` fields are 16 bits.
        assert!(
            self.mss as usize <= MAX_TCP_PAYLOAD,
            "mss {} exceeds the codec's largest TCP payload ({MAX_TCP_PAYLOAD})",
            self.mss
        );
        assert!(self.init_cwnd_segs > 0 && self.cwnd_cap_segs >= self.init_cwnd_segs);
        assert!(
            self.cwnd_cap_segs <= u16::MAX as u32,
            "cwnd_cap_segs {} does not fit the 16-bit window field",
            self.cwnd_cap_segs
        );
        // Sequence numbers are 32-bit and must cover SYN + data + FIN
        // without wrapping.
        assert!(
            self.total_bytes + 2 <= u32::MAX as u64,
            "transfer too large for the unwrapped 32-bit sequence space"
        );
    }

    /// The advertised window, in segments: the window cap.
    fn window(&self) -> u16 {
        u16::try_from(self.cwnd_cap_segs)
            .expect("TcpCfg::validate bounds the window cap to 16 bits")
    }
}

/// The sequence number of stream offset `off`: SYN is 0, byte `i` is `1 + i`,
/// FIN `1 + total`.
fn seq(off: u64) -> u32 {
    u32::try_from(1 + off).expect("TcpCfg::validate keeps SYN + stream + FIN within 32 bits")
}

/// The TCP port of an endpoint: its actor id.
fn port(actor: u32) -> u16 {
    u16::try_from(actor).expect("deploy_tcp_pair asserts actor ids fit the 16-bit TCP port")
}

/// Bytes on the wire of a segment carrying `payload` bytes.
fn wire_bytes(payload: usize) -> u32 {
    u32::try_from(TCP_HEADER_BYTES + payload).expect("TcpCfg::validate bounds the MSS")
}

/// Deterministic payload stream, defined a word at a time: stream bytes
/// `8w .. 8w + 8` of the connection seeded with `seed` are this word's bytes,
/// little-endian. One round of a SplitMix-style finaliser over `w ^ seed` — a
/// multiply by the 64-bit golden ratio, the high half folded onto the low —
/// which is a bijection of `w`, so no two words of a stream are equal. Both
/// ends derive the stream from the seed, so the receiver verifies in-order
/// delivery without a reference copy shipped out-of-band.
pub fn stream_word(seed: u64, w: u64) -> u64 {
    let x = (w ^ seed).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    x ^ (x >> 32)
}

/// Stream byte at offset `off`: the per-byte specification of
/// [`stream_chunk`] and [`stream_mismatches`], which tests compare them
/// against. Nothing on the data path calls it.
pub fn stream_byte(seed: u64, off: u64) -> u8 {
    stream_word(seed, off >> 3).to_le_bytes()[(off & 7) as usize]
}

/// Bytes of a `len`-byte range starting at stream offset `off` that come
/// before the first word boundary (all of them, if the range ends first).
fn head_len(off: u64, len: usize) -> usize {
    (off.wrapping_neg() & 7).min(len as u64) as usize
}

/// Materialize `len` stream bytes starting at `off`: the end of a word, whole
/// words, the start of a word — one mix per eight bytes.
pub fn stream_chunk(seed: u64, off: u64, len: usize) -> Vec<u8> {
    let mut out = vec![0u8; len];
    let mut w = off >> 3;
    let (head, rest) = out.split_at_mut(head_len(off, len));
    if !head.is_empty() {
        let word = stream_word(seed, w).to_le_bytes();
        head.copy_from_slice(&word[(off & 7) as usize..][..head.len()]);
        w += 1;
    }
    let mut words = rest.chunks_exact_mut(8);
    for dst in &mut words {
        dst.copy_from_slice(&stream_word(seed, w).to_le_bytes());
        w += 1;
    }
    let tail = words.into_remainder();
    tail.copy_from_slice(&stream_word(seed, w).to_le_bytes()[..tail.len()]);
    out
}

/// How many bytes of `got` disagree with the stream bytes at `off ..
/// off + got.len()`. Whole words are XORed against [`stream_word`]; bytes are
/// counted only inside a word that differs, so a clean payload costs one mix
/// and one compare per eight bytes.
pub fn stream_mismatches(seed: u64, off: u64, got: &[u8]) -> u64 {
    fn differing(got: &[u8], want: &[u8]) -> u64 {
        got.iter().zip(want).filter(|(g, w)| g != w).count() as u64
    }
    let mut bad = 0;
    let mut w = off >> 3;
    let (head, rest) = got.split_at(head_len(off, got.len()));
    if !head.is_empty() {
        let word = stream_word(seed, w).to_le_bytes();
        bad += differing(head, &word[(off & 7) as usize..]);
        w += 1;
    }
    let mut words = rest.chunks_exact(8);
    for src in &mut words {
        let want = stream_word(seed, w);
        let have = u64::from_le_bytes(src.try_into().expect("chunks_exact(8) yields 8 bytes"));
        if have != want {
            bad += differing(src, &want.to_le_bytes());
        }
        w += 1;
    }
    bad + differing(words.remainder(), &stream_word(seed, w).to_le_bytes())
}

/// Slow-start / AIMD window growth on a new cumulative ACK, pure for
/// testing: below `ssthresh` grow by one MSS per ACK (exponential per
/// RTT), above it grow by MSS·MSS/cwnd (one MSS per RTT), clamped to
/// `cap`.
pub fn cwnd_on_ack(cwnd: u64, ssthresh: u64, mss: u64, cap: u64) -> u64 {
    let grown = if cwnd < ssthresh {
        cwnd + mss
    } else {
        cwnd + (mss * mss / cwnd).max(1)
    };
    grown.min(cap)
}

/// Multiplicative decrease on RTO: ssthresh collapses to half the bytes
/// that were in flight (floored at two MSS), cwnd restarts at one MSS.
/// Returns `(cwnd, ssthresh)`.
pub fn cwnd_on_timeout(inflight: u64, mss: u64) -> (u64, u64) {
    (mss, (inflight / 2).max(2 * mss))
}

/// Messages exchanged between the endpoints. Every wire frame carries the
/// real 54-byte header block built by the nstack codec; `Rto` is the
/// sender's epoch-tagged timer self-send, which never touches the network.
#[derive(Debug)]
pub enum TcpMsg {
    /// One TCP segment: header bytes + payload bytes.
    Seg {
        /// Encoded header block ([`build_tcp_headers`]).
        hdr: [u8; TCP_HEADER_BYTES],
        /// Payload bytes (empty for pure ACK/SYN/FIN frames).
        payload: Vec<u8>,
    },
    /// Retransmission-timer fire; superseded if `epoch` lags the sender's.
    Rto {
        /// Timer generation at send time.
        epoch: u64,
    },
}

/// Sender-side metrics, registered per node. `Clone` hands the same
/// underlying cells to the deployer for audit reads at quiesce.
#[derive(Debug, Clone)]
pub struct TcpSenderMetrics {
    /// Unique stream bytes transmitted for the first time (`tcp.tx.bytes`).
    pub tx_bytes: Counter,
    /// First-transmission segments (`tcp.tx.segs`).
    pub tx_segs: Counter,
    /// Retransmitted segments (`tcp.retx.segs`).
    pub retx_segs: Counter,
    /// Retransmitted bytes (`tcp.retx.bytes`).
    pub retx_bytes: Counter,
    /// Cumulatively acknowledged stream bytes (`tcp.tx.acked_bytes`).
    pub acked_bytes: Counter,
    /// Retransmission timeouts fired (`tcp.rto.fired`).
    pub rto_fired: Counter,
    /// Duplicate cumulative ACKs seen (`tcp.dup_acks`).
    pub dup_acks: Counter,
    /// Connections that completed the handshake (`tcp.conn.established`).
    pub established: Counter,
    /// Connections that closed via acked FIN (`tcp.conn.closed`).
    pub closed: Counter,
    /// Bytes in flight awaiting ACK (`tcp.tx.inflight_bytes`).
    pub inflight_bytes: Gauge,
    /// Bytes marked lost, pending retransmission (`tcp.tx.lost_bytes`).
    pub lost_bytes: Gauge,
    /// Current congestion window, bytes (`tcp.cwnd_bytes`).
    pub cwnd_bytes: Gauge,
}

impl TcpSenderMetrics {
    /// Register the sender metric family for `node`.
    pub fn register(reg: &Registry, node: u16) -> TcpSenderMetrics {
        TcpSenderMetrics {
            tx_bytes: reg.counter_on("tcp.tx.bytes", node),
            tx_segs: reg.counter_on("tcp.tx.segs", node),
            retx_segs: reg.counter_on("tcp.retx.segs", node),
            retx_bytes: reg.counter_on("tcp.retx.bytes", node),
            acked_bytes: reg.counter_on("tcp.tx.acked_bytes", node),
            rto_fired: reg.counter_on("tcp.rto.fired", node),
            dup_acks: reg.counter_on("tcp.dup_acks", node),
            established: reg.counter_on("tcp.conn.established", node),
            closed: reg.counter_on("tcp.conn.closed", node),
            inflight_bytes: reg.gauge_on("tcp.tx.inflight_bytes", node),
            lost_bytes: reg.gauge_on("tcp.tx.lost_bytes", node),
            cwnd_bytes: reg.gauge_on("tcp.cwnd_bytes", node),
        }
    }
}

/// Receiver-side metrics, registered per node.
#[derive(Debug, Clone)]
pub struct TcpReceiverMetrics {
    /// Segments received and parsed (`tcp.rx.segs`).
    pub rx_segs: Counter,
    /// Stream bytes delivered in order, exactly once (`tcp.rx.delivered_bytes`).
    pub delivered_bytes: Counter,
    /// Fully duplicate segments (already delivered) (`tcp.rx.dup_segs`).
    pub dup_segs: Counter,
    /// Segments buffered out of order (`tcp.rx.ooo_segs`).
    pub ooo_segs: Counter,
    /// Delivered bytes disagreeing with the reference stream
    /// (`tcp.rx.mismatched_bytes`) — any nonzero value is an audit failure.
    pub mismatched_bytes: Counter,
    /// ACK frames emitted (`tcp.rx.acks`).
    pub acks_tx: Counter,
    /// Frames whose header block failed codec validation (`tcp.rx.bad_frames`).
    pub bad_frames: Counter,
}

impl TcpReceiverMetrics {
    /// Register the receiver metric family for `node`.
    pub fn register(reg: &Registry, node: u16) -> TcpReceiverMetrics {
        TcpReceiverMetrics {
            rx_segs: reg.counter_on("tcp.rx.segs", node),
            delivered_bytes: reg.counter_on("tcp.rx.delivered_bytes", node),
            dup_segs: reg.counter_on("tcp.rx.dup_segs", node),
            ooo_segs: reg.counter_on("tcp.rx.ooo_segs", node),
            mismatched_bytes: reg.counter_on("tcp.rx.mismatched_bytes", node),
            acks_tx: reg.counter_on("tcp.rx.acks", node),
            bad_frames: reg.counter_on("tcp.rx.bad_frames", node),
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum SendState {
    SynSent,
    Established,
    FinWait,
    Closed,
}

/// The sending endpoint: owns the congestion window, the stream offsets and
/// the RTO timer. Pushes `cfg.total_bytes` of the deterministic stream, then
/// FIN, then reports closed.
///
/// Segments are cut at multiples of the MSS and a timeout rewinds the whole
/// flight, so three offsets hold the sequence state: bytes in `[snd_una,
/// snd_nxt)` are in flight, bytes in `[snd_nxt, snd_max)` are lost and wait
/// for retransmission, and `snd_max` is the first byte never sent.
pub struct TcpSender {
    cfg: TcpCfg,
    peer: Address,
    flow: u64,
    state: SendState,
    /// Highest contiguously acked stream offset.
    snd_una: u64,
    /// Next stream offset to transmit: a retransmission below `snd_max`,
    /// fresh bytes at it.
    snd_nxt: u64,
    /// One past the highest stream offset ever transmitted.
    snd_max: u64,
    cwnd: u64,
    ssthresh: u64,
    rto: SimTime,
    /// When the retransmission timeout expires (meaningless once closed).
    deadline: SimTime,
    /// The deadline the live timer self-send was sent for, if one is live.
    timer: Option<SimTime>,
    /// Generation of the live timer self-send; bumped by each new one.
    epoch: u64,
    m: TcpSenderMetrics,
}

impl TcpSender {
    /// Build a sender that will stream to `peer` under flow label `flow`.
    pub fn new(cfg: TcpCfg, peer: Address, flow: u64, m: TcpSenderMetrics) -> TcpSender {
        cfg.validate();
        let mss = cfg.mss as u64;
        TcpSender {
            cfg,
            peer,
            flow,
            state: SendState::SynSent,
            snd_una: 0,
            snd_nxt: 0,
            snd_max: 0,
            cwnd: cfg.init_cwnd_segs as u64 * mss,
            ssthresh: cfg.cwnd_cap_segs as u64 * mss,
            rto: cfg.rto_init,
            deadline: SimTime::ZERO,
            timer: None,
            epoch: 0,
            m,
        }
    }

    fn me(ctx: &ActorCtx<'_>) -> Address {
        Address {
            node: ctx.node(),
            actor: ctx.actor_id(),
        }
    }

    fn header(&self, ctx: &ActorCtx<'_>, seq: u32, flags: u8, payload_len: u16) -> TcpHeader {
        TcpHeader {
            src_node: ctx.node(),
            dst_node: self.peer.node,
            src_port: port(ctx.actor_id()),
            dst_port: port(self.peer.actor),
            seq,
            ack: 0,
            flags,
            window: self.cfg.window(),
            payload_len,
        }
    }

    fn emit_seg(&self, ctx: &mut ActorCtx<'_>, hdr: TcpHeader, payload: Vec<u8>) {
        let wire = wire_bytes(payload.len());
        let hdr = build_tcp_headers(hdr).expect("segment payload bounded by MSS");
        ctx.send(
            self.peer,
            self.flow,
            wire,
            hdr[38] as u64, // diagnostic token: top seq byte
            Some(Box::new(TcpMsg::Seg { hdr, payload })),
        );
    }

    /// Move the retransmission deadline to `rto` from now. The live timer
    /// stays unless it would fire late: a new one is sent only when none is
    /// live or the deadline moved earlier.
    fn arm(&mut self, ctx: &mut ActorCtx<'_>) {
        let at = ctx.now() + self.rto;
        self.deadline = at;
        if self.timer.is_none_or(|live| at < live) {
            self.send_timer(ctx, at);
        }
    }

    /// Send the timer self-send for `at` under a fresh epoch, superseding
    /// any live one.
    fn send_timer(&mut self, ctx: &mut ActorCtx<'_>, at: SimTime) {
        self.epoch += 1;
        self.timer = Some(at);
        let me = Self::me(ctx);
        ctx.send_after(
            at - ctx.now(),
            me,
            self.flow,
            1,
            0,
            Some(Box::new(TcpMsg::Rto { epoch: self.epoch })),
        );
    }

    fn send_syn(&mut self, ctx: &mut ActorCtx<'_>) {
        let h = self.header(ctx, 0, TCP_SYN, 0);
        self.emit_seg(ctx, h, Vec::new());
        self.arm(ctx);
    }

    fn send_fin(&mut self, ctx: &mut ActorCtx<'_>) {
        let h = self.header(ctx, seq(self.cfg.total_bytes), TCP_FIN | TCP_ACK, 0);
        self.emit_seg(ctx, h, Vec::new());
        self.arm(ctx);
    }

    /// One data segment: `len` stream bytes from offset `off`.
    fn send_data(&self, ctx: &mut ActorCtx<'_>, off: u64, len: u64) {
        let payload_len = u16::try_from(len).expect("TcpCfg::validate bounds the MSS");
        let h = self.header(ctx, seq(off), TCP_ACK, payload_len);
        let body = stream_chunk(self.cfg.stream_seed, off, usize::from(payload_len));
        ctx.charge_work(self.cfg.work_per_seg_ns + len / 8);
        self.emit_seg(ctx, h, body);
    }

    /// Transmit from `snd_nxt` as far as the window allows: lost bytes
    /// first, in sequence order, then fresh stream bytes.
    fn pump(&mut self, ctx: &mut ActorCtx<'_>) {
        let total = self.cfg.total_bytes;
        while self.snd_nxt - self.snd_una < self.cwnd && self.snd_nxt < total {
            let off = self.snd_nxt;
            let len = (total - off).min(self.cfg.mss as u64);
            if off < self.snd_max {
                self.m.retx_segs.inc();
                self.m.retx_bytes.add(len);
            } else {
                self.snd_max += len;
                self.m.tx_segs.inc();
                self.m.tx_bytes.add(len);
            }
            self.snd_nxt += len;
            self.send_data(ctx, off, len);
        }
        self.sync_gauges();
    }

    fn sync_gauges(&self) {
        self.m
            .inflight_bytes
            .set((self.snd_nxt - self.snd_una) as i64);
        self.m.lost_bytes.set((self.snd_max - self.snd_nxt) as i64);
        self.m.cwnd_bytes.set(self.cwnd as i64);
    }

    fn on_rto(&mut self, ctx: &mut ActorCtx<'_>) {
        self.m.rto_fired.inc();
        self.rto = SimTime::from_ns(
            (self.rto.as_ns() * 2).clamp(self.cfg.rto_min.as_ns(), self.cfg.rto_max.as_ns()),
        );
        match self.state {
            SendState::SynSent => self.send_syn(ctx),
            // FIN leaves only once every stream byte is acked, so nothing
            // is in flight: re-send FIN.
            SendState::FinWait => self.send_fin(ctx),
            SendState::Established => {
                // Tahoe: collapse the window and rewind over the whole flight.
                let (cwnd, ssthresh) =
                    cwnd_on_timeout(self.snd_nxt - self.snd_una, self.cfg.mss as u64);
                self.cwnd = cwnd;
                self.ssthresh = ssthresh;
                self.snd_nxt = self.snd_una;
                self.pump(ctx);
                self.arm(ctx);
            }
            SendState::Closed => unreachable!("a closed sender's timer runs no timeout"),
        }
    }

    fn on_ack(&mut self, ctx: &mut ActorCtx<'_>, hdr: TcpHeader) {
        let total = self.cfg.total_bytes;
        if self.state == SendState::SynSent {
            if hdr.flags & (TCP_SYN | TCP_ACK) == TCP_SYN | TCP_ACK && hdr.ack == 1 {
                self.state = SendState::Established;
                self.m.established.inc();
                self.rto = self.cfg.rto_init;
                if total == 0 {
                    self.state = SendState::FinWait;
                    self.send_fin(ctx);
                } else {
                    self.pump(ctx);
                    self.arm(ctx);
                }
            }
            return;
        }
        if hdr.flags & TCP_ACK == 0 || self.state == SendState::Closed {
            return;
        }
        // FIN acked: the whole stream plus both flags is accounted for.
        if self.state == SendState::FinWait && hdr.ack as u64 == total + 2 {
            self.state = SendState::Closed;
            self.m.closed.inc();
            // The live timer fires into `Closed` and does nothing.
            self.sync_gauges();
            return;
        }
        let acked_to = (hdr.ack as u64).saturating_sub(1).min(total);
        if acked_to > self.snd_una {
            let newly = acked_to - self.snd_una;
            self.snd_una = acked_to;
            // An ACK for bytes sent before a timeout rewound `snd_nxt`.
            self.snd_nxt = self.snd_nxt.max(acked_to);
            self.m.acked_bytes.add(newly);
            self.cwnd = cwnd_on_ack(
                self.cwnd,
                self.ssthresh,
                self.cfg.mss as u64,
                self.cfg.cwnd_cap_segs as u64 * self.cfg.mss as u64,
            );
            self.rto = self.cfg.rto_init;
            if self.snd_una == total && self.state == SendState::Established {
                self.state = SendState::FinWait;
                self.send_fin(ctx);
            } else {
                self.pump(ctx);
                self.arm(ctx);
            }
        } else {
            self.m.dup_acks.inc();
            self.sync_gauges();
        }
    }
}

impl ActorLogic for TcpSender {
    fn init(&mut self, ctx: &mut ActorCtx<'_>) {
        ctx.charge_work(self.cfg.work_per_seg_ns);
        self.sync_gauges();
        self.send_syn(ctx);
    }

    fn exec(&mut self, ctx: &mut ActorCtx<'_>, mut req: Request) {
        match *req.payload_as::<TcpMsg>() {
            TcpMsg::Rto { epoch } => {
                if epoch != self.epoch {
                    ctx.charge_work(20); // superseded: wheel maintenance only
                    return;
                }
                self.timer = None;
                if self.state == SendState::Closed {
                    ctx.charge_work(20);
                } else if ctx.now() >= self.deadline {
                    ctx.charge_work(self.cfg.work_per_seg_ns);
                    self.on_rto(ctx);
                } else {
                    // The deadline moved on since this timer was sent:
                    // re-arm for the rest of it.
                    ctx.charge_work(20);
                    self.send_timer(ctx, self.deadline);
                }
            }
            TcpMsg::Seg { hdr, .. } => {
                ctx.charge_work(self.cfg.work_per_seg_ns);
                let Some(hdr) = parse_tcp_headers(&hdr) else {
                    return;
                };
                self.on_ack(ctx, hdr);
            }
        }
    }
}

/// The receiving endpoint: reassembles out-of-order segments, delivers
/// contiguous bytes exactly once (verifying them against the reference
/// stream), and acknowledges cumulatively. Learns the peer's address from
/// the TCP ports, so it needs no out-of-band peer configuration.
pub struct TcpReceiver {
    cfg: TcpCfg,
    flow: u64,
    /// A SYN arrived: the handshake completes with the first non-SYN frame.
    syn_seen: bool,
    peer: Option<Address>,
    /// Next in-order stream offset expected.
    rcv_nxt: u64,
    /// Out-of-order reassembly buffer: offset -> payload.
    ooo: BTreeMap<u64, Vec<u8>>,
    fin_seen: bool,
    m: TcpReceiverMetrics,
}

impl TcpReceiver {
    /// Build a passive receiver for one connection.
    pub fn new(cfg: TcpCfg, flow: u64, m: TcpReceiverMetrics) -> TcpReceiver {
        cfg.validate();
        TcpReceiver {
            cfg,
            flow,
            syn_seen: false,
            peer: None,
            rcv_nxt: 0,
            ooo: BTreeMap::new(),
            fin_seen: false,
            m,
        }
    }

    fn ack_value(&self) -> u32 {
        if self.fin_seen && self.rcv_nxt == self.cfg.total_bytes {
            seq(self.cfg.total_bytes + 1)
        } else {
            seq(self.rcv_nxt)
        }
    }

    fn send_ack(&mut self, ctx: &mut ActorCtx<'_>, flags: u8) {
        let Some(peer) = self.peer else { return };
        let hdr = TcpHeader {
            src_node: ctx.node(),
            dst_node: peer.node,
            src_port: port(ctx.actor_id()),
            dst_port: port(peer.actor),
            seq: 0,
            ack: self.ack_value(),
            flags,
            window: self.cfg.window(),
            payload_len: 0,
        };
        let hdr = build_tcp_headers(hdr).expect("pure ACK always encodes");
        self.m.acks_tx.inc();
        ctx.send(
            peer,
            self.flow,
            wire_bytes(0),
            hdr[42] as u64,
            Some(Box::new(TcpMsg::Seg {
                hdr,
                payload: Vec::new(),
            })),
        );
    }

    /// Verify and deliver `payload` at contiguous offset `rcv_nxt`.
    fn deliver(&mut self, payload: &[u8]) {
        let bad = stream_mismatches(self.cfg.stream_seed, self.rcv_nxt, payload);
        if bad > 0 {
            self.m.mismatched_bytes.add(bad);
        }
        self.m.delivered_bytes.add(payload.len() as u64);
        self.rcv_nxt += payload.len() as u64;
    }

    fn on_data(&mut self, ctx: &mut ActorCtx<'_>, hdr: TcpHeader, payload: Vec<u8>) {
        let off = (hdr.seq as u64).saturating_sub(1);
        let len = payload.len() as u64;
        ctx.charge_work(self.cfg.work_per_seg_ns + len / 8);
        if off + len <= self.rcv_nxt {
            // FIN leaves only once every stream byte is acked, so the first
            // FIN lands here too: a FIN-only segment is a duplicate only
            // after an earlier FIN.
            if len > 0 || self.fin_seen {
                self.m.dup_segs.inc();
            }
        } else if off == self.rcv_nxt {
            self.deliver(&payload);
            // Drain the reassembly buffer over the newly contiguous range.
            while let Some((&o, _)) = self.ooo.first_key_value() {
                if o > self.rcv_nxt {
                    break;
                }
                let seg = self.ooo.remove(&o).expect("first key exists");
                if o + seg.len() as u64 <= self.rcv_nxt {
                    continue; // fully duplicate buffered copy
                }
                let skip = usize::try_from(self.rcv_nxt - o)
                    .expect("the skip is shorter than the buffered segment");
                self.deliver(&seg[skip..]);
            }
        } else {
            // Out of order: buffer at most one copy per offset.
            if self.ooo.contains_key(&off) {
                self.m.dup_segs.inc();
            } else {
                self.m.ooo_segs.inc();
                self.ooo.insert(off, payload);
            }
        }
        if hdr.flags & TCP_FIN != 0 && off >= self.cfg.total_bytes {
            self.fin_seen = true;
        }
        self.send_ack(ctx, TCP_ACK);
    }
}

impl ActorLogic for TcpReceiver {
    fn exec(&mut self, ctx: &mut ActorCtx<'_>, mut req: Request) {
        let TcpMsg::Seg { hdr, payload } = *req.payload_as::<TcpMsg>() else {
            return; // receivers arm no timers
        };
        self.m.rx_segs.inc();
        let Some(hdr) = parse_tcp_headers(&hdr) else {
            self.m.bad_frames.inc();
            ctx.charge_work(self.cfg.work_per_seg_ns);
            return;
        };
        // Demultiplex the reply path from the ports: src_port is the
        // sender's actor id on src_node.
        self.peer = Some(Address {
            node: hdr.src_node,
            actor: hdr.src_port as u32,
        });
        if hdr.flags & TCP_SYN != 0 {
            ctx.charge_work(self.cfg.work_per_seg_ns);
            self.syn_seen = true;
            // SYN or duplicate SYN: (re-)offer the SYN-ACK.
            self.send_ack(ctx, TCP_SYN | TCP_ACK);
            return;
        }
        if !self.syn_seen {
            // Data before any SYN — a stale frame from a previous
            // incarnation; ignore.
            ctx.charge_work(20);
            return;
        }
        if hdr.payload_len == 0 && hdr.flags & TCP_FIN == 0 {
            // A pure ACK carries nothing for the receiver.
            ctx.charge_work(20);
            return;
        }
        self.on_data(ctx, hdr, payload);
    }
}

/// Handles returned by [`deploy_tcp_pair`]: the endpoint addresses plus
/// cloned metric handles for audit reads at quiesce.
#[derive(Debug, Clone)]
pub struct TcpEndpoints {
    /// Sender actor address.
    pub sender: Address,
    /// Receiver actor address.
    pub receiver: Address,
    /// Sender metric handles (same cells the actor updates).
    pub tx: TcpSenderMetrics,
    /// Receiver metric handles.
    pub rx: TcpReceiverMetrics,
    /// Connection configuration.
    pub cfg: TcpCfg,
}

/// Deploy one connection: a [`TcpReceiver`] on `receiver_node` and a
/// [`TcpSender`] on `sender_node`, both under `placement` (host cores or
/// NIC cores — the offload axis). The sender's `init` fires the SYN
/// immediately. The two nodes must differ for the `FaultPlan` loss model
/// to apply (same-node delivery bypasses the network).
pub fn deploy_tcp_pair(
    c: &mut Cluster,
    cfg: TcpCfg,
    sender_node: usize,
    receiver_node: usize,
    flow: u64,
    placement: Placement,
) -> TcpEndpoints {
    cfg.validate();
    let node_id =
        |i: usize| u16::try_from(i).expect("the cluster builder caps node ids at u16::MAX");
    let (rx, tx) = {
        let reg = c.obs().registry();
        (
            TcpReceiverMetrics::register(reg, node_id(receiver_node)),
            TcpSenderMetrics::register(reg, node_id(sender_node)),
        )
    };
    let receiver = c.register_actor(
        receiver_node,
        "tcp.receiver",
        Box::new(TcpReceiver::new(cfg, flow, rx.clone())),
        placement,
    );
    assert!(
        receiver.actor <= u16::MAX as u32,
        "actor id must fit the 16-bit TCP port"
    );
    let sender = c.register_actor(
        sender_node,
        "tcp.sender",
        Box::new(TcpSender::new(cfg, receiver, flow, tx.clone())),
        placement,
    );
    assert!(sender.actor <= u16::MAX as u32);
    TcpEndpoints {
        sender,
        receiver,
        tx,
        rx,
        cfg,
    }
}

/// Check the per-connection conservation and delivery invariants at
/// quiesce, merging violations into `r`:
///
/// * `tcp.conservation` — `bytes_sent == bytes_acked + bytes_in_flight +
///   bytes_dropped_pending_rto` (the tentpole audit slice);
/// * `tcp.closed` — the connection reached `Closed` on both ends;
/// * `tcp.exactly_once` — delivered bytes equal the configured stream
///   length (nothing dropped, nothing delivered twice);
/// * `tcp.in_order` — every delivered byte matched the reference stream;
/// * `tcp.bounded` — first-transmissions never exceed the stream length.
pub fn audit_tcp_into(r: &mut AuditReport, ep: &TcpEndpoints) {
    let node = ep.sender.node;
    let sent = ep.tx.tx_bytes.get();
    let acked = ep.tx.acked_bytes.get();
    let inflight = ep.tx.inflight_bytes.get();
    let lost = ep.tx.lost_bytes.get();
    r.check(
        "tcp.conservation",
        node,
        sent as i64 == acked as i64 + inflight + lost,
        || format!("sent {sent} != acked {acked} + inflight {inflight} + lost-pending-rto {lost}"),
    );
    r.check("tcp.bounded", node, sent <= ep.cfg.total_bytes, || {
        format!(
            "{sent} unique bytes transmitted for a {}-byte stream",
            ep.cfg.total_bytes
        )
    });
    r.check(
        "tcp.closed",
        node,
        ep.tx.closed.get() == 1 && ep.tx.established.get() == 1,
        || {
            format!(
                "connection not cleanly closed: established={} closed={}",
                ep.tx.established.get(),
                ep.tx.closed.get()
            )
        },
    );
    let delivered = ep.rx.delivered_bytes.get();
    r.check(
        "tcp.exactly_once",
        ep.receiver.node,
        delivered == ep.cfg.total_bytes,
        || {
            format!(
                "receiver delivered {delivered} of {} stream bytes",
                ep.cfg.total_bytes
            )
        },
    );
    r.check(
        "tcp.in_order",
        ep.receiver.node,
        ep.rx.mismatched_bytes.get() == 0,
        || {
            format!(
                "{} delivered bytes disagreed with the reference stream",
                ep.rx.mismatched_bytes.get()
            )
        },
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use ipipe_netsim::FaultPlan;
    use ipipe_nicsim::CN2350;

    #[test]
    fn cwnd_slow_start_doubles_per_rtt_then_aimd() {
        let mss = 1460u64;
        let cap = 64 * mss;
        let mut cwnd = 4 * mss;
        let ssthresh = 16 * mss;
        // Slow start: one MSS per ACK.
        cwnd = cwnd_on_ack(cwnd, ssthresh, mss, cap);
        assert_eq!(cwnd, 5 * mss);
        // Above ssthresh: additive, about one MSS per window of ACKs.
        let mut c = ssthresh;
        for _ in 0..16 {
            c = cwnd_on_ack(c, ssthresh, mss, cap);
        }
        // Integer division makes each step undershoot slightly; accept
        // within 10% of one MSS per window.
        assert!(c >= ssthresh + mss * 9 / 10 && c < ssthresh + 2 * mss);
        // Cap clamps.
        assert_eq!(cwnd_on_ack(cap, ssthresh, mss, cap), cap);
        // Timeout collapses.
        let (cw, ss) = cwnd_on_timeout(20 * mss, mss);
        assert_eq!(cw, mss);
        assert_eq!(ss, 10 * mss);
        let (_, ss_floor) = cwnd_on_timeout(0, mss);
        assert_eq!(ss_floor, 2 * mss);
    }

    #[test]
    fn stream_bytes_are_deterministic_and_seed_sensitive() {
        assert_eq!(stream_byte(7, 42), stream_byte(7, 42));
        let a = stream_chunk(7, 0, 64);
        let b = stream_chunk(8, 0, 64);
        assert_ne!(a, b);
        assert_eq!(a, stream_chunk(7, 0, 64));
        // Chunks are offset-consistent: chunk(off)=bytes at off..off+len.
        assert_eq!(stream_chunk(7, 10, 6)[0], stream_byte(7, 10));
    }

    #[test]
    fn chunk_and_mismatches_match_the_byte_spec_at_every_alignment() {
        let mss = TcpCfg::lan(0, 0).mss as u64;
        for seed in [0, 7, u64::MAX] {
            for off in 0..24u64 {
                for len in 0..40usize {
                    let chunk = stream_chunk(seed, off, len);
                    let spec: Vec<u8> = (0..len as u64)
                        .map(|i| stream_byte(seed, off + i))
                        .collect();
                    assert_eq!(chunk, spec, "seed {seed} off {off} len {len}");
                    assert_eq!(stream_mismatches(seed, off, &chunk), 0);
                    for i in 0..len {
                        let mut flipped = chunk.clone();
                        flipped[i] ^= 0x40;
                        assert_eq!(
                            stream_mismatches(seed, off, &flipped),
                            1,
                            "seed {seed} off {off} len {len} byte {i}"
                        );
                    }
                    // The right bytes at the wrong offset: a lane shift, a
                    // word shift, a segment shift.
                    if len >= 16 {
                        for shift in [1, 8, mss] {
                            assert!(
                                stream_mismatches(seed, off + shift, &chunk) > 0,
                                "seed {seed} off {off} len {len} shift {shift}"
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn every_byte_lane_of_the_stream_varies_and_depends_on_the_seed() {
        use std::collections::BTreeSet;
        let mut seen: [BTreeSet<u8>; 8] = Default::default();
        let mut differs = [false; 8];
        for w in 0..4096u64 {
            let a = stream_word(7, w).to_le_bytes();
            let b = stream_word(8, w).to_le_bytes();
            for lane in 0..8 {
                seen[lane].insert(a[lane]);
                differs[lane] |= a[lane] != b[lane];
            }
        }
        for lane in 0..8 {
            assert!(
                seen[lane].len() >= 200,
                "lane {lane} takes only {} values",
                seen[lane].len()
            );
            assert!(differs[lane], "lane {lane} ignores the seed");
        }
    }

    #[test]
    #[should_panic(expected = "mss 65496 exceeds")]
    fn validate_rejects_an_mss_the_header_cannot_declare() {
        TcpCfg {
            mss: u32::try_from(MAX_TCP_PAYLOAD).unwrap(),
            ..TcpCfg::lan(1, 1)
        }
        .validate();
        TcpCfg {
            mss: u32::try_from(MAX_TCP_PAYLOAD).unwrap() + 1,
            ..TcpCfg::lan(1, 1)
        }
        .validate();
    }

    #[test]
    #[should_panic(expected = "cwnd_cap_segs 65536 does not fit")]
    fn validate_rejects_a_window_cap_the_header_cannot_declare() {
        TcpCfg {
            cwnd_cap_segs: 65_535,
            ..TcpCfg::lan(1, 1)
        }
        .validate();
        TcpCfg {
            cwnd_cap_segs: 65_536,
            ..TcpCfg::lan(1, 1)
        }
        .validate();
    }

    fn run_one(
        loss: f64,
        total: u64,
        placement: Placement,
        seed: u64,
    ) -> (TcpEndpoints, AuditReport) {
        let plan = (loss > 0.0).then(|| FaultPlan::new(seed ^ 0x7C9).with_loss(loss));
        run_under(plan, total, placement, seed)
    }

    fn run_under(
        plan: Option<FaultPlan>,
        total: u64,
        placement: Placement,
        seed: u64,
    ) -> (TcpEndpoints, AuditReport) {
        let mut c = Cluster::builder(CN2350)
            .servers(2)
            .clients(1)
            .seed(seed)
            .build();
        if let Some(plan) = plan {
            c.set_fault_plan(plan);
        }
        let ep = deploy_tcp_pair(&mut c, TcpCfg::lan(total, seed), 0, 1, 1, placement);
        for _ in 0..200 {
            c.run_for(SimTime::from_ms(1));
            if ep.tx.closed.get() == 1 {
                break;
            }
        }
        // Let the closed sender's last timer fire so the audit sees quiesce.
        c.run_for(SimTime::from_ms(4));
        let mut r = c.audit();
        audit_tcp_into(&mut r, &ep);
        (ep, r)
    }

    #[test]
    fn lossless_transfer_delivers_exactly_once() {
        let (ep, r) = run_one(0.0, 100_000, Placement::Nic, 11);
        r.assert_clean();
        assert_eq!(ep.rx.delivered_bytes.get(), 100_000);
        assert_eq!(ep.tx.retx_segs.get(), 0, "no loss, no retransmissions");
        assert_eq!(ep.rx.dup_segs.get(), 0, "no retransmission, no duplicate");
        assert_eq!(ep.rx.mismatched_bytes.get(), 0);
    }

    /// One armed timer: re-arming on every ACK moves the deadline and sends
    /// nothing, so the sender's timer executions grow with the flow's
    /// duration in RTOs, not with its ACKs.
    #[test]
    fn lossless_sender_runs_about_one_timer_per_rto() {
        let mut c = Cluster::builder(CN2350)
            .servers(2)
            .clients(1)
            .seed(23)
            .build();
        let ep = deploy_tcp_pair(&mut c, TcpCfg::lan(1 << 20, 23), 0, 1, 1, Placement::Nic);
        while ep.tx.closed.get() == 0 && c.now() < SimTime::from_ms(50) {
            c.run_for(SimTime::from_us(10));
        }
        let fct = c.now();
        c.run_for(SimTime::from_ms(1));
        let arrivals = c.obs().registry().counter_on("sched.arrivals", 0).get();
        let acks = ep.rx.acks_tx.get();
        let timers = arrivals - acks;
        let bound = fct.as_ns() / ep.cfg.rto_init.as_ns() + 2;
        assert_eq!(ep.tx.closed.get(), 1);
        assert!(
            timers <= bound,
            "{timers} timer executions for {acks} ACKs over {fct}: more than {bound}"
        );
    }

    #[test]
    fn wrong_stream_is_delivered_acked_and_flagged_in_order_only() {
        // Endpoints that disagree on the seed: every delivered byte is
        // checked against the wrong stream, and nothing else goes wrong.
        let total = 100_000;
        let mut c = Cluster::builder(CN2350)
            .servers(2)
            .clients(1)
            .seed(11)
            .build();
        let (rx, tx) = {
            let reg = c.obs().registry();
            (
                TcpReceiverMetrics::register(reg, 1),
                TcpSenderMetrics::register(reg, 0),
            )
        };
        let cfg = TcpCfg::lan(total, 11);
        let rx_cfg = TcpCfg {
            stream_seed: 12,
            ..cfg
        };
        let receiver = c.register_actor(
            1,
            "tcp.receiver",
            Box::new(TcpReceiver::new(rx_cfg, 1, rx.clone())),
            Placement::Nic,
        );
        let sender = c.register_actor(
            0,
            "tcp.sender",
            Box::new(TcpSender::new(cfg, receiver, 1, tx.clone())),
            Placement::Nic,
        );
        let ep = TcpEndpoints {
            sender,
            receiver,
            tx,
            rx,
            cfg,
        };
        c.run_for(SimTime::from_ms(20));
        assert_eq!(ep.tx.closed.get(), 1);
        assert_eq!(ep.tx.acked_bytes.get(), total);
        assert_eq!(ep.rx.delivered_bytes.get(), total);
        assert_eq!(ep.tx.retx_segs.get(), 0);
        // Two unrelated streams agree on one byte in 256.
        let bad = ep.rx.mismatched_bytes.get();
        let expect = total * 255 / 256;
        assert!(
            bad.abs_diff(expect) < total / 200,
            "{bad} mismatched bytes, expected about {expect}"
        );
        let mut r = c.audit();
        audit_tcp_into(&mut r, &ep);
        let flagged: Vec<&str> = r.violations().iter().map(|v| v.invariant).collect();
        assert_eq!(flagged, ["tcp.in_order"]);
    }

    #[test]
    fn lossy_transfer_recovers_via_rto() {
        let (ep, r) = run_one(0.05, 100_000, Placement::Nic, 13);
        r.assert_clean();
        assert!(
            ep.tx.retx_segs.get() > 0,
            "5% loss must force retransmissions"
        );
        assert!(ep.tx.rto_fired.get() > 0);
    }

    /// Only ACKs are lost, so timeouts rewind `snd_nxt` over bytes the
    /// receiver already holds, and a later cumulative ACK acknowledges past
    /// it (seeds 1, 2, 3 and 6 each take that path). The sender must resume
    /// from the ACK, not resend what it covers.
    #[test]
    fn acks_past_a_rewound_snd_nxt_resume_from_the_ack() {
        let total = 200_000;
        for seed in [1, 2, 3, 6] {
            let plan = FaultPlan::new(seed ^ 0x7C9).with_link_loss(1, 0, 0.5);
            let (ep, r) = run_under(Some(plan), total, Placement::Nic, seed);
            r.assert_clean();
            assert_eq!(ep.tx.closed.get(), 1, "seed {seed}");
            assert_eq!(ep.rx.delivered_bytes.get(), total, "seed {seed}");
            let mss = u64::from(ep.cfg.mss);
            assert_eq!(ep.tx.tx_segs.get(), total.div_ceil(mss), "seed {seed}");
            assert!(ep.tx.rto_fired.get() > 0, "seed {seed}");
        }
    }

    #[test]
    fn host_placement_closes_too() {
        let (ep, r) = run_one(0.03, 50_000, Placement::Host, 17);
        r.assert_clean();
        assert_eq!(ep.rx.delivered_bytes.get(), 50_000);
    }

    #[test]
    fn empty_stream_closes_with_fin_only() {
        let (ep, r) = run_one(0.0, 0, Placement::Nic, 19);
        r.assert_clean();
        assert_eq!(ep.rx.delivered_bytes.get(), 0);
        assert_eq!(ep.tx.tx_segs.get(), 0);
        assert_eq!(ep.tx.closed.get(), 1);
    }

    #[test]
    fn audit_flags_unclosed_connection() {
        // Stop the run long before the transfer can finish.
        let mut c = Cluster::builder(CN2350)
            .servers(2)
            .clients(1)
            .seed(3)
            .build();
        let ep = deploy_tcp_pair(&mut c, TcpCfg::lan(10_000_000, 3), 0, 1, 1, Placement::Nic);
        c.run_for(SimTime::from_us(200));
        let mut r = AuditReport::new(SimTime::from_us(200));
        audit_tcp_into(&mut r, &ep);
        assert!(!r.is_clean(), "mid-flight connection must not audit clean");
        assert!(r
            .violations()
            .iter()
            .any(|v| v.invariant == "tcp.closed" || v.invariant == "tcp.exactly_once"));
        // But conservation holds even mid-flight.
        assert!(!r
            .violations()
            .iter()
            .any(|v| v.invariant == "tcp.conservation"));
    }
}

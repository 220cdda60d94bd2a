//! The shim networking stack (Appendix B.1).
//!
//! iPipe builds a thin customized stack over the packet-processing
//! accelerators: L2/L3 encapsulation/decapsulation and checksum handling.
//! The header codec here produces real bytes — Ethernet II + IPv4 + UDP, and
//! Ethernet II + IPv4 + TCP for the [`crate::tcp`] state machine — so tests
//! can round-trip them. Both encapsulations share one writer and one
//! validator for the 34-byte Ethernet + IPv4 prefix. The timing comes from
//! the card's hardware-assisted send model (Fig 6).
#![deny(clippy::cast_possible_truncation)]

use ipipe_nicsim::spec::NicSpec;
use ipipe_sim::SimTime;

/// Ethernet(14) + IPv4(20) + UDP(8) bytes prepended to every payload.
pub const HEADER_BYTES: usize = 42;

/// Ethernet(14) + IPv4(20) + TCP(20, no options) bytes prepended to every
/// TCP segment payload.
pub const TCP_HEADER_BYTES: usize = 54;

/// Largest UDP payload the codec can encapsulate: the IPv4 `total_len`
/// field is 16 bits and must also cover the IPv4(20) + UDP(8) headers.
pub const MAX_UDP_PAYLOAD: usize = u16::MAX as usize - 28;

/// Largest TCP payload: `total_len` must cover IPv4(20) + TCP(20).
pub const MAX_TCP_PAYLOAD: usize = u16::MAX as usize - 40;

/// Ethernet(14) + IPv4(20): the prefix both encapsulations share.
const L3_BYTES: usize = 34;

/// IPv4 protocol numbers.
const PROTO_TCP: u8 = 6;
const PROTO_UDP: u8 = 17;

/// Typed failure from the header builders. The codec refuses to emit a
/// header whose on-wire length fields cannot represent the payload — the
/// alternative is a checksum-valid frame whose declared length silently
/// wrapped mod 2^16.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CodecError {
    /// Payload exceeds what the IPv4 `total_len` field can declare.
    PayloadTooLarge {
        /// The offending payload length.
        payload_len: usize,
        /// The largest payload this encapsulation admits.
        max: usize,
    },
}

impl std::fmt::Display for CodecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CodecError::PayloadTooLarge { payload_len, max } => write!(
                f,
                "payload of {payload_len} bytes exceeds the {max}-byte limit \
                 of the 16-bit IPv4 total_len field"
            ),
        }
    }
}

impl std::error::Error for CodecError {}

/// Write the Ethernet II + IPv4 prefix into `b[..34]`, for a frame whose
/// headers take `b.len()` bytes in all: MACs 02:00:00:00:nn:nn, ethertype
/// 0x0800, `total_len` covering IPv4 + L4 headers + payload, TTL 64,
/// `proto`, 10.0.x.x addresses and the header checksum. Rejects payloads
/// that `total_len` cannot declare: adding the headers would wrap the 16-bit
/// field, producing a checksum-valid header that declares a tiny payload
/// for a huge frame.
fn write_l3(
    b: &mut [u8],
    src: u16,
    dst: u16,
    proto: u8,
    payload_len: u16,
) -> Result<(), CodecError> {
    let l3_l4 = b.len() - 14;
    let max = usize::from(u16::MAX) - l3_l4;
    let total_len = u16::try_from(l3_l4 + usize::from(payload_len)).map_err(|_| {
        CodecError::PayloadTooLarge {
            payload_len: payload_len.into(),
            max,
        }
    })?;
    b[0] = 0x02;
    b[4..6].copy_from_slice(&dst.to_be_bytes());
    b[6] = 0x02;
    b[10..12].copy_from_slice(&src.to_be_bytes());
    b[12..14].copy_from_slice(&0x0800u16.to_be_bytes());
    b[14] = 0x45;
    b[16..18].copy_from_slice(&total_len.to_be_bytes());
    b[22] = 64;
    b[23] = proto;
    b[26] = 10;
    b[28..30].copy_from_slice(&src.to_be_bytes());
    b[30] = 10;
    b[32..34].copy_from_slice(&dst.to_be_bytes());
    let csum = ipv4_checksum(&b[14..L3_BYTES]);
    b[24..26].copy_from_slice(&never_zero(csum).to_be_bytes());
    Ok(())
}

/// Validate the Ethernet II + IPv4 prefix of a `hdr_bytes`-byte header
/// block carrying `proto`: length, ethertype, protocol and IPv4 checksum.
/// Returns `(src_node, dst_node, payload_len)`, the payload being
/// `total_len` minus the IPv4 and L4 headers — `None` when `total_len` is
/// smaller than those headers, which would otherwise wrap into a ~64 KiB
/// phantom payload.
fn parse_l3(b: &[u8], proto: u8, hdr_bytes: usize) -> Option<(u16, u16, u16)> {
    if b.len() < hdr_bytes || be16(b, 12) != 0x0800 || b[23] != proto {
        return None;
    }
    if ipv4_checksum(&b[14..L3_BYTES]) != 0 {
        return None;
    }
    let payload_len = be16(b, 16).checked_sub(u16::try_from(hdr_bytes - 14).ok()?)?;
    Some((be16(b, 28), be16(b, 32), payload_len))
}

fn be16(b: &[u8], at: usize) -> u16 {
    u16::from_be_bytes([b[at], b[at + 1]])
}

/// One's complement has two zeros; when a computed checksum comes out as
/// +0 (0x0000) emit -0 (0xFFFF) instead, the RFC 768/1071 convention, so
/// the field is never ambiguous with "checksum not computed". Verification
/// folds both to 0.
fn never_zero(csum: u16) -> u16 {
    if csum == 0 {
        0xFFFF
    } else {
        csum
    }
}

/// Parsed form of the shim headers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WqeHeader {
    /// Source node (packed into the MAC/IP addresses).
    pub src_node: u16,
    /// Destination node.
    pub dst_node: u16,
    /// UDP source port carries the flow hash.
    pub flow: u16,
    /// UDP destination port carries the target actor id.
    pub actor: u16,
    /// Payload length.
    pub payload_len: u16,
}

/// Build the 42-byte header block for a work-queue entry
/// (`nstack_hdr_cap`). Rejects payloads above [`MAX_UDP_PAYLOAD`].
pub fn build_headers(h: WqeHeader) -> Result<[u8; HEADER_BYTES], CodecError> {
    let mut b = [0u8; HEADER_BYTES];
    write_l3(&mut b, h.src_node, h.dst_node, PROTO_UDP, h.payload_len)?;
    // UDP: src port = flow, dst port = actor, length (fits: the IPv4
    // total_len above holds it plus 20).
    b[34..36].copy_from_slice(&h.flow.to_be_bytes());
    b[36..38].copy_from_slice(&h.actor.to_be_bytes());
    b[38..40].copy_from_slice(&(8 + h.payload_len).to_be_bytes());
    Ok(b)
}

/// Parse and validate a header block (`nstack_get_wqe` path). Returns `None`
/// if the IPv4 checksum fails or the frame is not our UDP encapsulation.
pub fn parse_headers(b: &[u8]) -> Option<WqeHeader> {
    let (src_node, dst_node, payload_len) = parse_l3(b, PROTO_UDP, HEADER_BYTES)?;
    Some(WqeHeader {
        src_node,
        dst_node,
        flow: be16(b, 34),
        actor: be16(b, 36),
        payload_len,
    })
}

/// Parsed form of the shim TCP headers ([`crate::tcp`] wire format).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TcpHeader {
    /// Source node (packed into the MAC/IP addresses).
    pub src_node: u16,
    /// Destination node.
    pub dst_node: u16,
    /// TCP source port — the sending endpoint's actor id, so the peer can
    /// demultiplex replies without out-of-band address exchange.
    pub src_port: u16,
    /// TCP destination port — the receiving endpoint's actor id.
    pub dst_port: u16,
    /// Sequence number.
    pub seq: u32,
    /// Acknowledgment number (meaningful when [`TCP_ACK`] is set).
    pub ack: u32,
    /// Flag bits ([`TCP_FIN`] | [`TCP_SYN`] | [`TCP_ACK`]).
    pub flags: u8,
    /// Advertised receive window, in MSS-sized segments.
    pub window: u16,
    /// Payload length (derived from IPv4 `total_len` on parse).
    pub payload_len: u16,
}

/// TCP FIN flag bit.
pub const TCP_FIN: u8 = 0x01;
/// TCP SYN flag bit.
pub const TCP_SYN: u8 = 0x02;
/// TCP ACK flag bit.
pub const TCP_ACK: u8 = 0x10;

/// Build the 54-byte Ethernet + IPv4 + TCP header block. Rejects payloads
/// above [`MAX_TCP_PAYLOAD`].
pub fn build_tcp_headers(h: TcpHeader) -> Result<[u8; TCP_HEADER_BYTES], CodecError> {
    let mut b = [0u8; TCP_HEADER_BYTES];
    write_l3(&mut b, h.src_node, h.dst_node, PROTO_TCP, h.payload_len)?;
    // TCP: ports, seq/ack, data offset 5 (no options), flags, window.
    b[34..36].copy_from_slice(&h.src_port.to_be_bytes());
    b[36..38].copy_from_slice(&h.dst_port.to_be_bytes());
    b[38..42].copy_from_slice(&h.seq.to_be_bytes());
    b[42..46].copy_from_slice(&h.ack.to_be_bytes());
    b[46] = 5 << 4;
    b[47] = h.flags;
    b[48..50].copy_from_slice(&h.window.to_be_bytes());
    // TCP checksum over the pseudo-header + TCP header. The shim stack
    // leaves the payload to the frame CRC the MAC already computes (the
    // fault injector only damages IPv4 header bytes), so header-only
    // coverage is what the corruption model needs.
    let csum = tcp_checksum(&b);
    b[50..52].copy_from_slice(&never_zero(csum).to_be_bytes());
    Ok(b)
}

/// Parse and validate a TCP header block. Returns `None` if the frame is
/// not our TCP encapsulation or either checksum fails.
pub fn parse_tcp_headers(b: &[u8]) -> Option<TcpHeader> {
    let (src_node, dst_node, payload_len) = parse_l3(b, PROTO_TCP, TCP_HEADER_BYTES)?;
    if tcp_checksum(b) != 0 {
        return None;
    }
    Some(TcpHeader {
        src_node,
        dst_node,
        src_port: be16(b, 34),
        dst_port: be16(b, 36),
        seq: u32::from_be_bytes([b[38], b[39], b[40], b[41]]),
        ack: u32::from_be_bytes([b[42], b[43], b[44], b[45]]),
        flags: b[47],
        window: be16(b, 48),
        payload_len,
    })
}

/// RFC 793 TCP checksum over the pseudo-header (src IP, dst IP, zero,
/// proto, TCP length) and the 20 TCP header bytes. Over a header with its
/// checksum field filled in, the result folds to 0.
fn tcp_checksum(b: &[u8]) -> u16 {
    let mut sum = 0u32;
    // Pseudo-header: src addr, dst addr words.
    for off in [26usize, 28, 30, 32] {
        sum += u32::from(be16(b, off));
    }
    // zero + proto, then TCP length (header + payload).
    sum += u32::from(PROTO_TCP);
    sum += u32::from(be16(b, 16).saturating_sub(20));
    for pair in b[L3_BYTES..TCP_HEADER_BYTES].chunks(2) {
        sum += u32::from(u16::from_be_bytes([pair[0], pair[1]]));
    }
    fold(sum)
}

/// RFC 1071 Internet checksum. Over a header with its checksum field filled
/// in, the result is 0.
fn ipv4_checksum(header: &[u8]) -> u16 {
    let mut sum = 0u32;
    for pair in header.chunks(2) {
        sum += u32::from(u16::from_be_bytes([
            pair[0],
            pair.get(1).copied().unwrap_or(0),
        ]));
    }
    fold(sum)
}

/// Fold the carries of a one's-complement sum into 16 bits and complement.
// The loop leaves `sum <= 0xFFFF`, so the cast keeps every bit.
#[allow(clippy::cast_possible_truncation)]
fn fold(mut sum: u32) -> u16 {
    while sum >> 16 != 0 {
        sum = (sum & 0xFFFF) + (sum >> 16);
    }
    !(sum as u16)
}

/// Cost for a NIC core to emit a packet through the shim stack: header and
/// payload go out as one scatter-gather DMA even when built separately (I6),
/// so the send pays the hardware send of the whole frame plus one extra
/// descriptor.
// HEADER_BYTES is 42, so the cast keeps every bit.
#[allow(clippy::cast_possible_truncation)]
pub fn send_cost(spec: &NicSpec, payload: u32) -> SimTime {
    spec.hw_send(payload + HEADER_BYTES as u32) + SimTime::from_ns(40)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ipipe_sim::DetRng;

    #[test]
    fn header_roundtrip() {
        let h = WqeHeader {
            src_node: 3,
            dst_node: 1,
            flow: 0xBEEF,
            actor: 42,
            payload_len: 470,
        };
        let bytes = build_headers(h).unwrap();
        assert_eq!(parse_headers(&bytes), Some(h));
    }

    /// Pinned regression: payload_len near u16::MAX used to wrap `total_len
    /// = 20 + 8 + payload_len` mod 2^16, emitting a checksum-valid header
    /// that declared a tiny payload for a huge frame. The codec must refuse,
    /// with a typed error, exactly above the last representable payload.
    #[test]
    fn oversized_payload_rejected_at_wrap_boundary() {
        let hdr = |payload_len| WqeHeader {
            src_node: 1,
            dst_node: 2,
            flow: 3,
            actor: 4,
            payload_len,
        };
        // 65507 + 28 == 65535: the last payload total_len can declare.
        let max = u16::try_from(MAX_UDP_PAYLOAD).unwrap();
        let bytes = build_headers(hdr(max)).unwrap();
        let parsed = parse_headers(&bytes).unwrap();
        assert_eq!(parsed.payload_len, max, "boundary payload round-trips");

        // One past the boundary used to wrap to total_len == 0.
        for p in [max + 1, u16::MAX] {
            assert_eq!(
                build_headers(hdr(p)),
                Err(CodecError::PayloadTooLarge {
                    payload_len: p as usize,
                    max: MAX_UDP_PAYLOAD,
                }),
                "payload {p} must be rejected, not wrapped"
            );
        }
        let msg = CodecError::PayloadTooLarge {
            payload_len: 65508,
            max: MAX_UDP_PAYLOAD,
        }
        .to_string();
        assert!(msg.contains("65508") && msg.contains("65507"));
    }

    #[test]
    fn checksum_validates_and_detects_corruption() {
        let h = WqeHeader {
            src_node: 1,
            dst_node: 2,
            flow: 7,
            actor: 9,
            payload_len: 100,
        };
        let mut bytes = build_headers(h).unwrap();
        assert_eq!(ipv4_checksum(&bytes[14..34]), 0);
        bytes[30] ^= 0x40; // corrupt dst IP
        assert_eq!(parse_headers(&bytes), None);
    }

    #[test]
    fn non_ip_frames_rejected() {
        let mut bytes = build_headers(WqeHeader {
            src_node: 0,
            dst_node: 1,
            flow: 0,
            actor: 0,
            payload_len: 0,
        })
        .unwrap();
        bytes[12] = 0x86; // not IPv4 ethertype
        assert_eq!(parse_headers(&bytes), None);
        assert_eq!(parse_headers(&bytes[..10]), None);
    }

    #[test]
    fn negative_zero_checksum_is_emitted_as_all_ones() {
        // Solve for a dst_node that makes the pre-checksum header words sum
        // to 0xFFFF, so the computed checksum is +0. The fixed words are
        // 0x4500 + 0x4011 + 2*0x0A00 = 0x9911, plus total_len (28 for an
        // empty payload) and src_node.
        let src = 1u16;
        let dst = u16::try_from(0xFFFFu32 - 0x9911 - 28 - u32::from(src)).unwrap();
        let h = WqeHeader {
            src_node: src,
            dst_node: dst,
            flow: 7,
            actor: 3,
            payload_len: 0,
        };
        let bytes = build_headers(h).unwrap();
        assert_eq!(
            u16::from_be_bytes([bytes[24], bytes[25]]),
            0xFFFF,
            "+0 must be emitted as -0"
        );
        // -0 still verifies and round-trips.
        assert_eq!(ipv4_checksum(&bytes[14..34]), 0);
        assert_eq!(parse_headers(&bytes), Some(h));
    }

    #[test]
    fn every_single_byte_header_flip_is_rejected() {
        // The fault injector's corruption guarantee: any one damaged byte in
        // the IPv4 header makes parse_headers reject the frame (a one-byte
        // xor can never change a 16-bit word by a multiple of 0xFFFF).
        let good = build_headers(WqeHeader {
            src_node: 2,
            dst_node: 5,
            flow: 0x1234,
            actor: 8,
            payload_len: 300,
        })
        .unwrap();
        for off in 14..34 {
            for bit in 0..8u8 {
                let mut b = good;
                b[off] ^= 1 << bit;
                assert_eq!(parse_headers(&b), None, "flip at byte {off} bit {bit}");
            }
        }
    }

    #[test]
    fn truncated_and_undersized_frames_rejected() {
        let good = build_headers(WqeHeader {
            src_node: 0,
            dst_node: 1,
            flow: 1,
            actor: 1,
            payload_len: 64,
        })
        .unwrap();
        for cut in [0, 1, 13, 14, 33, 41] {
            assert_eq!(parse_headers(&good[..cut]), None, "cut={cut}");
        }
        // A checksum-valid header claiming total_len < 28 must not wrap
        // payload_len: rewrite total_len and refresh the checksum.
        let mut b = good;
        b[16..18].copy_from_slice(&5u16.to_be_bytes());
        b[24] = 0;
        b[25] = 0;
        let csum = ipv4_checksum(&b[14..34]);
        b[24..26].copy_from_slice(&csum.to_be_bytes());
        assert_eq!(ipv4_checksum(&b[14..34]), 0, "checksum repaired");
        assert_eq!(parse_headers(&b), None, "undersized total_len rejected");
    }

    #[test]
    fn rfc1071_known_vector() {
        // Classic example from RFC 1071 materials.
        let data = [0x00u8, 0x01, 0xf2, 0x03, 0xf4, 0xf5, 0xf6, 0xf7];
        assert_eq!(ipv4_checksum(&data), !0xddf2);
    }

    #[test]
    fn tcp_header_roundtrip() {
        let h = TcpHeader {
            src_node: 3,
            dst_node: 7,
            src_port: 11,
            dst_port: 22,
            seq: 0xDEAD_BEEF,
            ack: 0x0102_0304,
            flags: TCP_ACK,
            window: 32,
            payload_len: 1460,
        };
        let bytes = build_tcp_headers(h).unwrap();
        assert_eq!(parse_tcp_headers(&bytes), Some(h));
        // A UDP parse must not accept a TCP frame and vice versa.
        assert_eq!(parse_headers(&bytes), None);
    }

    #[test]
    fn tcp_header_flags_roundtrip() {
        for flags in [TCP_SYN, TCP_SYN | TCP_ACK, TCP_ACK, TCP_FIN | TCP_ACK] {
            let h = TcpHeader {
                src_node: 1,
                dst_node: 2,
                src_port: 5,
                dst_port: 6,
                seq: 9,
                ack: 10,
                flags,
                window: 4,
                payload_len: 0,
            };
            let bytes = build_tcp_headers(h).unwrap();
            assert_eq!(parse_tcp_headers(&bytes).unwrap().flags, flags);
        }
    }

    #[test]
    fn tcp_oversized_payload_rejected_at_wrap_boundary() {
        let hdr = |payload_len| TcpHeader {
            src_node: 1,
            dst_node: 2,
            src_port: 3,
            dst_port: 4,
            seq: 0,
            ack: 0,
            flags: TCP_ACK,
            window: 1,
            payload_len,
        };
        let max = u16::try_from(MAX_TCP_PAYLOAD).unwrap();
        let ok = build_tcp_headers(hdr(max)).unwrap();
        assert_eq!(parse_tcp_headers(&ok).unwrap().payload_len, max);
        assert_eq!(
            build_tcp_headers(hdr(max + 1)),
            Err(CodecError::PayloadTooLarge {
                payload_len: max as usize + 1,
                max: MAX_TCP_PAYLOAD,
            })
        );
    }

    #[test]
    fn tcp_single_byte_header_flips_rejected() {
        let good = build_tcp_headers(TcpHeader {
            src_node: 2,
            dst_node: 5,
            src_port: 9,
            dst_port: 4,
            seq: 77,
            ack: 33,
            flags: TCP_ACK,
            window: 8,
            payload_len: 512,
        })
        .unwrap();
        // IPv4 header flips break the IPv4 checksum; TCP header flips break
        // the TCP checksum.
        for off in 14..54 {
            for bit in 0..8u8 {
                let mut b = good;
                b[off] ^= 1 << bit;
                assert_eq!(
                    parse_tcp_headers(&b),
                    None,
                    "flip at byte {off} bit {bit} must be rejected"
                );
            }
        }
        for cut in [0, 13, 41, 53] {
            assert_eq!(parse_tcp_headers(&good[..cut]), None, "cut={cut}");
        }
    }

    /// A 0–96-byte buffer for the parsers. Half are random bytes; the
    /// other half start from a valid `tcp` or UDP header block, get up to
    /// three random bytes overwritten, half the time a `total_len` below 96
    /// (below the headers' own length included) and then, half the time,
    /// both checksums repaired, so the parsers also meet checksum-valid
    /// headers whose length fields no builder writes.
    fn arbitrary_frame(rng: &mut DetRng, tcp: bool) -> Vec<u8> {
        let mut buf = vec![0u8; rng.index(97)];
        rng.fill_bytes(&mut buf);
        if rng.chance(0.5) {
            return buf;
        }
        let word = |rng: &mut DetRng| u16::try_from(rng.below(1 << 16)).unwrap();
        let (src_node, dst_node) = (word(rng), word(rng));
        let header = if tcp {
            build_tcp_headers(TcpHeader {
                src_node,
                dst_node,
                src_port: word(rng),
                dst_port: word(rng),
                seq: u32::from(word(rng)) << 16 | u32::from(word(rng)),
                ack: u32::from(word(rng)) << 16 | u32::from(word(rng)),
                flags: u8::try_from(rng.below(256)).unwrap(),
                window: word(rng),
                payload_len: word(rng) % (u16::try_from(MAX_TCP_PAYLOAD).unwrap() + 1),
            })
            .unwrap()
            .to_vec()
        } else {
            build_headers(WqeHeader {
                src_node,
                dst_node,
                flow: word(rng),
                actor: word(rng),
                payload_len: word(rng) % (u16::try_from(MAX_UDP_PAYLOAD).unwrap() + 1),
            })
            .unwrap()
            .to_vec()
        };
        let n = header.len().min(buf.len());
        buf[..n].copy_from_slice(&header[..n]);
        for _ in 0..rng.below(4) {
            if !buf.is_empty() {
                let at = rng.index(buf.len());
                buf[at] = u8::try_from(rng.below(256)).unwrap();
            }
        }
        if rng.chance(0.5) && buf.len() >= 18 {
            buf[16] = 0;
            buf[17] = u8::try_from(rng.below(96)).unwrap();
        }
        if rng.chance(0.5) && buf.len() >= L3_BYTES {
            buf[24..26].fill(0);
            let csum = ipv4_checksum(&buf[14..L3_BYTES]);
            buf[24..26].copy_from_slice(&csum.to_be_bytes());
            if buf.len() >= TCP_HEADER_BYTES {
                buf[50..52].fill(0);
                let csum = tcp_checksum(&buf);
                buf[50..52].copy_from_slice(&csum.to_be_bytes());
            }
        }
        buf
    }

    /// Arbitrary bytes never make either parser panic, and whatever one
    /// accepts survives a rebuild: building the parsed header and parsing
    /// it again returns the same header.
    #[test]
    fn arbitrary_bytes_never_panic_and_accepted_headers_rebuild() {
        let mut rng = DetRng::new(0x5EED_F022);
        let (mut udp, mut tcp) = (0, 0);
        for case in 0..100_000 {
            if let Some(h) = parse_headers(&arbitrary_frame(&mut rng, false)) {
                udp += 1;
                let again = build_headers(h).expect("a parsed payload_len fits");
                assert_eq!(parse_headers(&again), Some(h), "udp case {case}");
            }
            if let Some(h) = parse_tcp_headers(&arbitrary_frame(&mut rng, true)) {
                tcp += 1;
                let again = build_tcp_headers(h).expect("a parsed payload_len fits");
                assert_eq!(parse_tcp_headers(&again), Some(h), "tcp case {case}");
            }
        }
        // The accepting branch is exercised, not just the rejections.
        assert!(udp > 1_000 && tcp > 1_000, "accepted udp {udp}, tcp {tcp}");
    }
}

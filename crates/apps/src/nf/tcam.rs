//! A software TCAM: priority-ordered wildcard rules over the 5-tuple
//! (§5.7: "for the firewall, we use a software-based TCAM implementation
//! matching wildcard rules. Under 8K rules...").
//!
//! Each rule is a (value, mask) pair per field; a packet matches when
//! `field & mask == value & mask` for every field. Rules are organized in
//! priority order with first-match-wins semantics, and the lookup mimics a
//! TCAM bank scan over 64-rule blocks.

/// A packet's 5-tuple.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct FiveTuple {
    /// Source IPv4 address.
    pub src_ip: u32,
    /// Destination IPv4 address.
    pub dst_ip: u32,
    /// Source port.
    pub src_port: u16,
    /// Destination port.
    pub dst_port: u16,
    /// IP protocol.
    pub proto: u8,
}

/// One wildcard rule.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TcamRule {
    /// Value to match (pre-masked or not — matching masks both sides).
    pub value: FiveTuple,
    /// Mask: 1-bits are significant.
    pub mask: FiveTuple,
    /// Action: true = permit, false = deny.
    pub permit: bool,
}

impl TcamRule {
    /// Does `pkt` match this rule?
    pub fn matches(&self, pkt: &FiveTuple) -> bool {
        (pkt.src_ip & self.mask.src_ip) == (self.value.src_ip & self.mask.src_ip)
            && (pkt.dst_ip & self.mask.dst_ip) == (self.value.dst_ip & self.mask.dst_ip)
            && (pkt.src_port & self.mask.src_port) == (self.value.src_port & self.mask.src_port)
            && (pkt.dst_port & self.mask.dst_port) == (self.value.dst_port & self.mask.dst_port)
            && (pkt.proto & self.mask.proto) == (self.value.proto & self.mask.proto)
    }
}

/// The rule table.
#[derive(Debug, Default)]
pub struct Tcam {
    rules: Vec<TcamRule>,
}

/// TCAM bank width: the software scan touches one cache-resident block of
/// rules at a time.
pub const BANK_RULES: usize = 64;

impl Tcam {
    /// Empty table.
    pub fn new() -> Tcam {
        Tcam::default()
    }

    /// Append a rule (lowest index = highest priority).
    pub fn add_rule(&mut self, rule: TcamRule) {
        self.rules.push(rule);
    }

    /// Number of rules installed.
    pub fn len(&self) -> usize {
        self.rules.len()
    }

    /// True when no rules are installed.
    pub fn is_empty(&self) -> bool {
        self.rules.is_empty()
    }

    /// First-match lookup; returns (action, banks scanned). `None` action
    /// means no rule matched (default deny). The bank count is the
    /// cost-model input for the firewall actor.
    pub fn lookup(&self, pkt: &FiveTuple) -> (Option<bool>, usize) {
        for (i, r) in self.rules.iter().enumerate() {
            if r.matches(pkt) {
                return (Some(r.permit), i / BANK_RULES + 1);
            }
        }
        (None, self.rules.len().div_ceil(BANK_RULES))
    }

    /// Craft a packet that matches rule `idx` (filling wildcarded fields
    /// randomly) — evaluation traffic is correlated with the installed rules,
    /// as real traffic is; fully random 5-tuples would match nothing and
    /// degenerate every lookup into a full-table scan.
    pub fn matching_packet(&self, idx: usize, rng: &mut ipipe_sim::DetRng) -> FiveTuple {
        let r = &self.rules[idx % self.rules.len().max(1)];
        let fill = |v: u32, m: u32, rnd: u32| (v & m) | (rnd & !m);
        FiveTuple {
            src_ip: fill(r.value.src_ip, r.mask.src_ip, rng.below(1 << 32) as u32),
            dst_ip: fill(r.value.dst_ip, r.mask.dst_ip, rng.below(1 << 32) as u32),
            src_port: (r.value.src_port & r.mask.src_port)
                | (rng.below(65536) as u16 & !r.mask.src_port),
            dst_port: (r.value.dst_port & r.mask.dst_port)
                | (rng.below(65536) as u16 & !r.mask.dst_port),
            proto: (r.value.proto & r.mask.proto) | (rng.below(256) as u8 & !r.mask.proto),
        }
    }

    /// Evaluation traffic: 97% rule-correlated (Zipf-popular rules, so most
    /// packets match in the first banks), 3% scans the whole table.
    pub fn traffic_packet(&self, rng: &mut ipipe_sim::DetRng) -> FiveTuple {
        if rng.chance(0.97) && !self.rules.is_empty() {
            let idx = rng.zipf(self.rules.len() as u64, 1.3) as usize;
            self.matching_packet(idx, rng)
        } else {
            FiveTuple {
                src_ip: rng.below(1 << 32) as u32,
                dst_ip: u32::MAX,
                src_port: rng.below(65536) as u16,
                dst_port: rng.below(65536) as u16,
                proto: 99,
            }
        }
    }

    /// Build the §5.7 evaluation table: `n` wildcard rules (subnet matches
    /// on source, exact/wildcard ports) with a deny-by-default tail.
    pub fn synthetic(n: usize, seed: u64) -> Tcam {
        let mut rng = ipipe_sim::DetRng::new(seed);
        let mut t = Tcam::new();
        for i in 0..n {
            let prefix_len = 8 + rng.below(17) as u32; // /8../24
            let mask_ip = if prefix_len == 32 {
                u32::MAX
            } else {
                !((1u32 << (32 - prefix_len)) - 1)
            };
            let wildcard_port = rng.chance(0.5);
            t.add_rule(TcamRule {
                value: FiveTuple {
                    src_ip: rng.below(1 << 32) as u32,
                    dst_ip: 0,
                    src_port: 0,
                    dst_port: rng.below(65536) as u16,
                    proto: if rng.chance(0.5) { 6 } else { 17 },
                },
                mask: FiveTuple {
                    src_ip: mask_ip,
                    dst_ip: 0,
                    src_port: 0,
                    dst_port: if wildcard_port { 0 } else { u16::MAX },
                    proto: u8::MAX,
                },
                permit: i % 3 != 0,
            });
        }
        t
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pkt(src_ip: u32, dst_port: u16, proto: u8) -> FiveTuple {
        FiveTuple {
            src_ip,
            dst_ip: 0x0A00_0001,
            src_port: 12345,
            dst_port,
            proto,
        }
    }

    /// A rule matching everything: an all-zero mask.
    fn match_all(permit: bool) -> TcamRule {
        let zero = FiveTuple {
            src_ip: 0,
            dst_ip: 0,
            src_port: 0,
            dst_port: 0,
            proto: 0,
        };
        TcamRule {
            value: zero,
            mask: zero,
            permit,
        }
    }

    #[test]
    fn exact_rule_matches() {
        let mut t = Tcam::new();
        t.add_rule(TcamRule {
            value: pkt(0xC0A8_0001, 443, 6),
            mask: FiveTuple {
                src_ip: u32::MAX,
                dst_ip: 0,
                src_port: 0,
                dst_port: u16::MAX,
                proto: u8::MAX,
            },
            permit: true,
        });
        assert_eq!(t.lookup(&pkt(0xC0A8_0001, 443, 6)).0, Some(true));
        assert_eq!(t.lookup(&pkt(0xC0A8_0002, 443, 6)).0, None);
        assert_eq!(t.lookup(&pkt(0xC0A8_0001, 80, 6)).0, None);
    }

    #[test]
    fn subnet_wildcard_matches() {
        let mut t = Tcam::new();
        // Deny 192.168.0.0/16, any port/proto.
        t.add_rule(TcamRule {
            value: pkt(0xC0A8_0000, 0, 0),
            mask: FiveTuple {
                src_ip: 0xFFFF_0000,
                dst_ip: 0,
                src_port: 0,
                dst_port: 0,
                proto: 0,
            },
            permit: false,
        });
        t.add_rule(match_all(true));
        assert_eq!(t.lookup(&pkt(0xC0A8_1234, 80, 17)).0, Some(false));
        assert_eq!(t.lookup(&pkt(0x0808_0808, 80, 17)).0, Some(true));
    }

    #[test]
    fn priority_first_match_wins() {
        let mut t = Tcam::new();
        t.add_rule(match_all(false));
        t.add_rule(match_all(true));
        assert_eq!(t.lookup(&pkt(1, 2, 3)).0, Some(false));
    }

    #[test]
    fn bank_scan_cost_grows_with_match_depth() {
        let t = Tcam::synthetic(8192, 1);
        assert_eq!(t.len(), 8192);
        // A miss scans the entire table: 8192/64 = 128 banks.
        let impossible = FiveTuple {
            src_ip: 0,
            dst_ip: u32::MAX,
            src_port: 0,
            dst_port: 0,
            proto: 99,
        };
        let (action, banks) = t.lookup(&impossible);
        assert_eq!(action, None);
        assert_eq!(banks, 128);
        // Random traffic usually matches earlier.
        let mut rng = ipipe_sim::DetRng::new(2);
        let mut total_banks = 0;
        for _ in 0..200 {
            let p = FiveTuple {
                src_ip: rng.below(1 << 32) as u32,
                dst_ip: 0,
                src_port: 0,
                dst_port: rng.below(65536) as u16,
                proto: if rng.chance(0.5) { 6 } else { 17 },
            };
            total_banks += t.lookup(&p).1;
        }
        assert!(total_banks / 200 < 128, "avg={}", total_banks / 200);
    }
}

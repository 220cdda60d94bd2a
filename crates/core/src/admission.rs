//! SLO-aware admission control at the NIC ingress.
//!
//! iPipe's scheduler keeps wimpy cores responsive *given* the work it
//! accepts; under sustained overload the only lever left is refusing work
//! early, before it burns a core slot. This module is that lever: a
//! deterministic token-bucket limiter per client class, evaluated at frame
//! delivery (before the FCFS/DRR dispatch in `rt.rs`), with priority-aware
//! shedding under backlog pressure. A shed request is answered with a tiny
//! reply carrying a backoff hint — the client-side retry machinery honors
//! the hint, and open-loop generators shed at the source for its duration
//! so their ledgers stay bounded.
//!
//! Everything is integer nanosecond arithmetic on `SimTime`: no floats on
//! the admit path, so verdicts are bit-identical for every shard count (the
//! bucket state lives on the ingress node and is only touched by that
//! node's own `Deliver` events).

use ipipe_sim::audit::AuditReport;
use ipipe_sim::obs::{Counter, Obs};
use ipipe_sim::SimTime;

/// Rate/priority configuration of one client class.
#[derive(Debug, Clone, Copy)]
pub struct ClassCfg {
    /// Sustained admit rate, requests per second (per ingress node).
    pub rate_rps: u64,
    /// Bucket depth: how many requests may be admitted back-to-back after
    /// an idle period.
    pub burst: u32,
    /// Shedding priority: higher survives longer. Classes below
    /// [`AdmissionCfg::protect_priority`] are shed outright while the NIC
    /// backlog exceeds `pressure_depth`.
    pub priority: u8,
}

/// Ingress admission configuration, shared by every server node.
#[derive(Debug, Clone)]
pub struct AdmissionCfg {
    /// Per-class token buckets; a request's class indexes this table
    /// (out-of-range classes clamp to the last entry).
    pub classes: Vec<ClassCfg>,
    /// FCFS backlog depth past which low-priority classes are shed without
    /// consulting their bucket (work-conserving pressure relief).
    pub pressure_depth: usize,
    /// Classes with `priority >= protect_priority` are exempt from
    /// pressure shedding (they still pay tokens).
    pub protect_priority: u8,
    /// Upper bound on the backoff hint carried by shed replies.
    pub max_backoff: SimTime,
}

/// Outcome of one ingress admission decision.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Decision {
    /// Dispatch the request into the scheduler.
    Admit,
    /// Refuse the request; the reply carries `retry_after` as a hint for
    /// when the bucket will next have a token.
    Shed { retry_after: SimTime },
}

/// Deterministic token bucket in integer nanoseconds.
///
/// One token costs `ns_per_token` nanoseconds of accumulated credit;
/// credit refills linearly with simulated time and caps at
/// `burst * ns_per_token`. Admitting deducts one token's worth; a shed
/// verdict reports the exact credit shortfall as the retry hint.
#[derive(Debug, Clone)]
pub struct TokenBucket {
    ns_per_token: u64,
    cap_ns: u64,
    avail_ns: u64,
    last: SimTime,
}

impl TokenBucket {
    /// A bucket admitting `rate_rps` sustained with `burst` depth,
    /// starting full at time `now`.
    pub fn new(rate_rps: u64, burst: u32, now: SimTime) -> TokenBucket {
        assert!(rate_rps > 0, "admission rate must be positive");
        let ns_per_token = (1_000_000_000 / rate_rps).max(1);
        let cap_ns = ns_per_token.saturating_mul(burst.max(1) as u64);
        TokenBucket {
            ns_per_token,
            cap_ns,
            avail_ns: cap_ns,
            last: now,
        }
    }

    /// Nanoseconds of credit one admit costs.
    pub fn ns_per_token(&self) -> u64 {
        self.ns_per_token
    }

    /// Refill credit for elapsed time, then try to admit one request.
    pub fn admit(&mut self, now: SimTime) -> Decision {
        let dt = now.saturating_sub(self.last).as_ns();
        self.last = self.last.max(now);
        self.avail_ns = self.avail_ns.saturating_add(dt).min(self.cap_ns);
        if self.avail_ns >= self.ns_per_token {
            self.avail_ns -= self.ns_per_token;
            Decision::Admit
        } else {
            Decision::Shed {
                retry_after: SimTime::from_ns(self.ns_per_token - self.avail_ns),
            }
        }
    }
}

/// Per-node ingress admission state: one bucket per class plus the
/// `admit.ok` / `admit.shed` counters the conservation audit reconciles
/// against the client side.
pub struct NodeAdmission {
    buckets: Vec<TokenBucket>,
    priorities: Vec<u8>,
    pressure_depth: usize,
    protect_priority: u8,
    max_backoff: SimTime,
    /// External requests that reached this ingress while admission was
    /// installed. Every one is exactly admitted or shed.
    seen: u64,
    ok_ctr: Counter,
    shed_ctr: Counter,
}

impl NodeAdmission {
    /// Install `cfg` on node `node`, buckets full at `now`.
    pub fn new(cfg: &AdmissionCfg, obs: &Obs, node: u16, now: SimTime) -> NodeAdmission {
        assert!(!cfg.classes.is_empty(), "at least one client class");
        NodeAdmission {
            buckets: cfg
                .classes
                .iter()
                .map(|c| TokenBucket::new(c.rate_rps, c.burst, now))
                .collect(),
            priorities: cfg.classes.iter().map(|c| c.priority).collect(),
            pressure_depth: cfg.pressure_depth,
            protect_priority: cfg.protect_priority,
            max_backoff: cfg.max_backoff,
            seen: 0,
            ok_ctr: obs.registry().counter_on("admit.ok", node),
            shed_ctr: obs.registry().counter_on("admit.shed", node),
        }
    }

    /// Decide one external request of `class` with the scheduler's current
    /// FCFS backlog at `backlog`.
    pub fn decide(&mut self, now: SimTime, class: u8, backlog: usize) -> Decision {
        self.seen += 1;
        let idx = (class as usize).min(self.buckets.len() - 1);
        // Pressure shedding: when the NIC backlog is past the configured
        // depth, unprotected classes are refused outright — tokens they
        // hold are worthless if the cores can't drain the queue.
        if backlog > self.pressure_depth && self.priorities[idx] < self.protect_priority {
            self.shed_ctr.inc();
            return Decision::Shed {
                retry_after: self.max_backoff,
            };
        }
        match self.buckets[idx].admit(now) {
            Decision::Admit => {
                self.ok_ctr.inc();
                Decision::Admit
            }
            Decision::Shed { retry_after } => {
                self.shed_ctr.inc();
                Decision::Shed {
                    retry_after: retry_after.min(self.max_backoff),
                }
            }
        }
    }

    /// Requests shed at this ingress (`admit.shed`).
    pub fn shed(&self) -> u64 {
        self.shed_ctr.get()
    }

    /// Requests admitted at this ingress (`admit.ok`).
    pub fn admitted(&self) -> u64 {
        self.ok_ctr.get()
    }

    /// Requests seen at this ingress.
    pub fn seen(&self) -> u64 {
        self.seen
    }

    /// Per-node slice of the shed-conservation audit: every request seen is
    /// exactly one of admitted / shed.
    pub fn audit_into(&self, r: &mut AuditReport, node: u16) {
        let (admitted, shed) = (self.admitted(), self.shed());
        r.check(
            "admit.conservation",
            node,
            self.seen == admitted + shed,
            || format!("seen {} != admitted {admitted} + shed {shed}", self.seen),
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_admits_burst_then_paces_at_rate() {
        // 1000 rps -> 1ms per token, burst 4.
        let mut b = TokenBucket::new(1_000, 4, SimTime::ZERO);
        for _ in 0..4 {
            assert_eq!(b.admit(SimTime::ZERO), Decision::Admit);
        }
        match b.admit(SimTime::ZERO) {
            Decision::Shed { retry_after } => assert_eq!(retry_after, SimTime::from_ms(1)),
            d => panic!("expected shed, got {d:?}"),
        }
        // After exactly one token interval a single admit fits again.
        assert_eq!(b.admit(SimTime::from_ms(1)), Decision::Admit);
        assert!(matches!(
            b.admit(SimTime::from_ms(1)),
            Decision::Shed { .. }
        ));
    }

    #[test]
    fn bucket_credit_caps_at_burst() {
        let mut b = TokenBucket::new(1_000, 2, SimTime::ZERO);
        // A long idle period must not bank more than `burst` tokens.
        let late = SimTime::from_secs(10);
        assert_eq!(b.admit(late), Decision::Admit);
        assert_eq!(b.admit(late), Decision::Admit);
        assert!(matches!(b.admit(late), Decision::Shed { .. }));
    }

    #[test]
    fn shed_hint_is_exact_credit_shortfall() {
        let mut b = TokenBucket::new(1_000_000, 1, SimTime::ZERO); // 1us/token
        assert_eq!(b.admit(SimTime::ZERO), Decision::Admit);
        // 400ns later the bucket holds 400ns of credit; 600ns short.
        match b.admit(SimTime::from_ns(400)) {
            Decision::Shed { retry_after } => assert_eq!(retry_after.as_ns(), 600),
            d => panic!("expected shed, got {d:?}"),
        }
    }

    #[test]
    fn pressure_sheds_unprotected_classes_only() {
        let cfg = AdmissionCfg {
            classes: vec![
                ClassCfg {
                    rate_rps: 1_000_000,
                    burst: 64,
                    priority: 0,
                },
                ClassCfg {
                    rate_rps: 1_000_000,
                    burst: 64,
                    priority: 1,
                },
            ],
            pressure_depth: 8,
            protect_priority: 1,
            max_backoff: SimTime::from_us(500),
        };
        let obs = Obs::disabled();
        let mut a = NodeAdmission::new(&cfg, &obs, 0, SimTime::ZERO);
        // Backlog above the pressure depth: class 0 is shed with the max
        // hint, class 1 still admits on tokens.
        match a.decide(SimTime::ZERO, 0, 9) {
            Decision::Shed { retry_after } => assert_eq!(retry_after, SimTime::from_us(500)),
            d => panic!("expected pressure shed, got {d:?}"),
        }
        assert_eq!(a.decide(SimTime::ZERO, 1, 9), Decision::Admit);
        // Backlog at the depth: both admit.
        assert_eq!(a.decide(SimTime::ZERO, 0, 8), Decision::Admit);
        assert_eq!(a.seen(), 3);
        assert_eq!(a.admitted() + a.shed(), 3);
        let mut r = AuditReport::new(SimTime::ZERO);
        a.audit_into(&mut r, 0);
        r.assert_clean();
    }

    /// One best-effort class at `rate_rps` with the given burst; no
    /// pressure shedding.
    fn single_class(rate_rps: u64, burst: u32) -> AdmissionCfg {
        AdmissionCfg {
            classes: vec![ClassCfg {
                rate_rps,
                burst,
                priority: 0,
            }],
            pressure_depth: usize::MAX,
            protect_priority: u8::MAX,
            max_backoff: SimTime::from_ms(1),
        }
    }

    #[test]
    fn out_of_range_class_clamps_to_last() {
        let cfg = single_class(1_000, 1);
        let obs = Obs::disabled();
        let mut a = NodeAdmission::new(&cfg, &obs, 3, SimTime::ZERO);
        assert_eq!(a.decide(SimTime::ZERO, 200, 0), Decision::Admit);
        assert!(matches!(
            a.decide(SimTime::ZERO, 200, 0),
            Decision::Shed { .. }
        ));
    }

    #[test]
    fn decisions_are_deterministic() {
        let run = || {
            let cfg = single_class(10_000, 4);
            let obs = Obs::disabled();
            let mut a = NodeAdmission::new(&cfg, &obs, 0, SimTime::ZERO);
            (0..64)
                .map(|i| {
                    let t = SimTime::from_ns(i as u64 * 37_000);
                    matches!(a.decide(t, 0, 0), Decision::Admit)
                })
                .collect::<Vec<_>>()
        };
        assert_eq!(run(), run());
    }
}

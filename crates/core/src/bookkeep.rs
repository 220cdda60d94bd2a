//! Execution-statistics bookkeeping (§3.2.3).
//!
//! The runtime tracks, all via EWMA:
//! 1. the request-latency distribution of the FCFS core group (µ, σ, µ+3σ
//!    as an approximate P99): a [`TailEstimator`] the scheduler holds,
//! 2. per-actor execution cost and dispersion (µᵢ + 3σᵢ), request sizes and
//!    request frequency,
//! 3. per-core and per-group CPU utilization.
//!
//! These live in the SmartNIC's scratchpad in the real system (§3.3); here
//! they are plain structs owned by the runtime.
#![deny(clippy::cast_possible_truncation)]

use ipipe_sim::{Ewma, SimTime, TailEstimator};

/// Per-actor execution statistics.
#[derive(Debug, Clone)]
pub struct ActorStats {
    /// EWMA of execution latency (queueing included) and its deviation.
    tail: TailEstimator,
    /// EWMA of request wire sizes.
    req_size: Ewma,
    /// EWMA of pure execution (busy) time — ALG 2's `exe_lat`.
    exec: Ewma,
    /// EWMA of inter-arrival gaps (for frequency estimation), ns.
    gap: Ewma,
    /// Last arrival, for gap computation.
    last_arrival: Option<SimTime>,
    /// Requests executed.
    pub executed: u64,
}

impl ActorStats {
    /// Fresh statistics with EWMA weight `alpha`.
    pub fn new(alpha: f64) -> ActorStats {
        ActorStats {
            tail: TailEstimator::new(alpha),
            req_size: Ewma::new(alpha),
            exec: Ewma::new(alpha),
            gap: Ewma::new(alpha),
            last_arrival: None,
            executed: 0,
        }
    }

    /// Record a request arrival (frequency/size tracking).
    pub fn on_arrival(&mut self, now: SimTime, wire_size: u32) {
        if let Some(last) = self.last_arrival {
            self.gap.observe(now.saturating_sub(last).as_ns() as f64);
        }
        self.last_arrival = Some(now);
        self.req_size.observe(wire_size as f64);
    }

    /// Record a completed execution: total sojourn `latency` (queueing
    /// included) and the pure core-occupancy `busy`.
    pub fn on_complete(&mut self, latency: SimTime) {
        self.on_complete_busy(latency, latency);
    }

    /// Like [`ActorStats::on_complete`] with an explicit busy time.
    pub fn on_complete_busy(&mut self, latency: SimTime, busy: SimTime) {
        self.tail.observe(latency);
        self.exec.observe(busy.as_ns() as f64);
        self.executed += 1;
    }

    /// EWMA mean execution latency µᵢ.
    pub fn mean(&self) -> SimTime {
        self.tail.mean()
    }

    /// Dispersion measure µᵢ + 3σᵢ (§3.2.3).
    pub fn dispersion(&self) -> SimTime {
        self.tail.tail()
    }

    /// EWMA of pure execution latency — ALG 2's `actor.exe_lat`.
    // Saturating is the meaning: `as` drops the fraction of an average of
    // u64 nanosecond counts, which cannot exceed u64::MAX.
    #[allow(clippy::cast_possible_truncation)]
    pub fn exec_latency(&self) -> SimTime {
        SimTime::from_ns(self.exec.get_or(0.0).max(0.0) as u64)
    }

    /// Estimated request frequency, requests/s.
    pub fn frequency(&self) -> f64 {
        match self.gap.get() {
            Some(g) if g > 0.0 => 1e9 / g,
            _ => 0.0,
        }
    }

    /// Estimated load the actor imposes: mean execution latency × frequency
    /// (dimensionless core share) — the migration victim-selection metric
    /// (§3.2.5: "average execution latency scaled by frequency of
    /// invocation").
    pub fn load(&self) -> f64 {
        self.mean().as_secs_f64() * self.frequency()
    }

    /// EWMA mean request size, bytes.
    // Saturating is the meaning: `as` drops the fraction of an average of
    // u32 wire sizes, which cannot exceed u32::MAX.
    #[allow(clippy::cast_possible_truncation)]
    pub fn mean_request_size(&self) -> u32 {
        self.req_size.get_or(64.0).max(1.0) as u32
    }

    /// True once at least one execution completed.
    pub fn observed(&self) -> bool {
        self.executed > 0
    }
}

/// Windowed per-core utilization tracking, smoothed with EWMA (§3.2.3 item 3).
#[derive(Debug, Clone)]
pub struct CoreUtil {
    window: SimTime,
    window_start: SimTime,
    busy_in_window: SimTime,
    util: Ewma,
}

impl CoreUtil {
    /// Track utilization over fixed windows of `window` length.
    pub fn new(window: SimTime, alpha: f64) -> CoreUtil {
        CoreUtil {
            window,
            window_start: SimTime::ZERO,
            busy_in_window: SimTime::ZERO,
            util: Ewma::new(alpha),
        }
    }

    /// Record that the core was busy for `busy` ending at `now`.
    pub fn on_busy(&mut self, now: SimTime, busy: SimTime) {
        self.roll(now);
        self.busy_in_window += busy;
    }

    /// Advance the window if `now` passed its end, folding the finished
    /// window's utilization into the EWMA.
    fn roll(&mut self, now: SimTime) {
        while now >= self.window_start + self.window {
            let u = self.busy_in_window.as_ns() as f64 / self.window.as_ns() as f64;
            self.util.observe(u.min(1.0));
            self.busy_in_window = SimTime::ZERO;
            self.window_start += self.window;
        }
    }

    /// Current utilization estimate in [0, 1].
    pub fn utilization(&mut self, now: SimTime) -> f64 {
        self.roll(now);
        self.util.get_or(0.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn actor_stats_mean_and_dispersion() {
        let mut s = ActorStats::new(0.2);
        assert!(!s.observed());
        for _ in 0..200 {
            s.on_complete(SimTime::from_us(10));
        }
        assert!(s.observed());
        assert!((s.mean().as_us_f64() - 10.0).abs() < 0.5);
        // Constant latencies: dispersion collapses to the mean.
        assert!(s.dispersion().as_us_f64() < 11.0);

        let mut varied = ActorStats::new(0.2);
        for i in 0..400 {
            varied.on_complete(SimTime::from_us(if i % 2 == 0 { 5 } else { 50 }));
        }
        assert!(varied.dispersion() > varied.mean() * 2);
    }

    #[test]
    fn frequency_tracks_arrival_rate() {
        let mut s = ActorStats::new(0.1);
        // Arrivals every 10us -> 100k req/s.
        for i in 1..=500u64 {
            s.on_arrival(SimTime::from_us(10 * i), 512);
        }
        let f = s.frequency();
        assert!((f - 100_000.0).abs() / 100_000.0 < 0.05, "f={f}");
        assert_eq!(s.mean_request_size(), 512);
    }

    #[test]
    fn load_is_latency_times_frequency() {
        let mut s = ActorStats::new(0.1);
        for i in 1..=500u64 {
            s.on_arrival(SimTime::from_us(10 * i), 256);
            s.on_complete(SimTime::from_us(5));
        }
        // 5us of work per 10us gap = 0.5 cores.
        assert!((s.load() - 0.5).abs() < 0.1, "load={}", s.load());
    }

    #[test]
    fn core_util_converges() {
        let mut u = CoreUtil::new(SimTime::from_us(100), 0.3);
        // 60% busy in each window.
        for w in 0..50u64 {
            let now = SimTime::from_us(100 * w + 60);
            u.on_busy(now, SimTime::from_us(60));
        }
        let util = u.utilization(SimTime::from_us(5000));
        assert!((util - 0.6).abs() < 0.1, "util={util}");
    }

    #[test]
    fn core_util_idle_decays() {
        let mut u = CoreUtil::new(SimTime::from_us(100), 0.5);
        u.on_busy(SimTime::from_us(50), SimTime::from_us(90));
        // Long idle stretch: utilization falls toward zero.
        let util = u.utilization(SimTime::from_ms(10));
        assert!(util < 0.05, "util={util}");
    }
}

//! Traffic-control model (§2.2.2): how many NIC cores the forwarding tax
//! consumes, how much compute headroom remains, and the latency behaviour of
//! the hardware traffic manager's shared queue (Figs 2–5).

use crate::spec::{line_rate_pps, NicKind, NicSpec};
use ipipe_sim::obs::{Counter, Gauge, HistHandle, Obs};
use ipipe_sim::{DetRng, EventQueue, SimTime};

/// Per-packet core occupancy when forwarding a frame of `frame` bytes while
/// also running `extra_proc` of application processing.
///
/// The hardware PKI/PKO units overlap buffer movement with computation, so
/// the core is busy for whichever is longer — this is what makes Fig 4's
/// tolerated-latency limit come out to exactly `cores / line_rate_pps`
/// (validated against the paper's 2.5/9.8 µs and 0.7/2.6 µs numbers).
pub fn packet_occupancy(spec: &NicSpec, frame: u32, extra_proc: SimTime) -> SimTime {
    spec.fwd.cost(frame).max(extra_proc)
}

/// Packets/s achievable with `cores` cores at frame size `frame` and
/// per-packet extra processing `extra_proc`, before the link caps it.
pub fn core_limited_pps(spec: &NicSpec, frame: u32, cores: u32, extra_proc: SimTime) -> f64 {
    let occ = packet_occupancy(spec, frame, extra_proc).as_ns().max(1);
    let core_pps = cores as f64 / (occ as f64 * 1e-9);
    core_pps.min(spec.hw_pps_limit)
}

/// Achieved packets/s including the line-rate cap (the full Fig 2/3/4 model).
pub fn achievable_pps(spec: &NicSpec, frame: u32, cores: u32, extra_proc: SimTime) -> f64 {
    core_limited_pps(spec, frame, cores, extra_proc).min(line_rate_pps(spec.link_gbps, frame))
}

/// Application-visible bandwidth in Gbit/s (frame bits, as plotted on the
/// paper's y-axes).
pub fn achievable_gbps(spec: &NicSpec, frame: u32, cores: u32, extra_proc: SimTime) -> f64 {
    achievable_pps(spec, frame, cores, extra_proc) * frame as f64 * 8.0 / 1e9
}

/// Minimum number of cores that sustains line rate at `frame` bytes, or
/// `None` if even all cores cannot (Fig 2: 64/128 B on both cards).
pub fn cores_for_line_rate(spec: &NicSpec, frame: u32) -> Option<u32> {
    let need = line_rate_pps(spec.link_gbps, frame);
    (1..=spec.cores).find(|&c| core_limited_pps(spec, frame, c, SimTime::ZERO) >= need * 0.999)
}

/// Maximum per-packet application processing latency that still sustains
/// line rate with all cores (Fig 4's "computing headroom"). `None` when line
/// rate is unreachable even with zero extra processing.
pub fn compute_headroom(spec: &NicSpec, frame: u32) -> Option<SimTime> {
    let need = line_rate_pps(spec.link_gbps, frame);
    if achievable_pps(spec, frame, spec.cores, SimTime::ZERO) < need * 0.999 {
        return None;
    }
    // occupancy may grow to cores/need before the core pool saturates.
    let limit_ns = spec.cores as f64 / need * 1e9;
    #[expect(
        clippy::cast_possible_truncation,
        reason = "floors to whole ns, so the headroom never exceeds the limit"
    )]
    Some(SimTime::from_ns(limit_ns as u64))
}

/// Synchronization overhead a core pays per dequeue from the ingress queue.
///
/// On-path cards have a hardware traffic manager that hands out work items
/// with negligible contention (implication I2); off-path cards emulate the
/// shared queue in software (§3.2.6) and pay more, growing with core count.
///
/// Calibration (do not retune without re-deriving from the paper):
/// * **on-path, 18 ns** — the paper's §2.2.1 message-rate study attributes
///   near-zero dispatch cost to the hardware traffic manager; 18 ns is one
///   L2-hit pop on the Cavium cores, the floor that keeps Fig 2's measured
///   per-packet budgets reachable.
/// * **off-path, `90 + 14·(cores−1)` ns** — §2.2.2's ECHO experiment shows
///   the LiquidIO's software shuffle queue costing ~90 ns uncontended
///   (single consumer), with lock/coherence contention adding ~14 ns per
///   additional polling core so that the Fig 5 latency gap between on- and
///   off-path cards (~250 ns of extra dispatch at all 12 cores busy) is
///   reproduced at the line-rate operating point.
pub fn dequeue_sync_cost(spec: &NicSpec, cores: u32) -> SimTime {
    match spec.kind {
        NicKind::OnPath => SimTime::from_ns(18),
        NicKind::OffPath => SimTime::from_ns(90 + 14 * cores.saturating_sub(1) as u64),
    }
}

/// Outcome of the echo-server latency simulation (Fig 5).
#[derive(Debug, Clone, Copy)]
pub struct EchoLatency {
    /// Mean request sojourn time.
    pub avg: SimTime,
    /// 99th-percentile sojourn time.
    pub p99: SimTime,
    /// Offered load as a fraction of the achievable maximum.
    pub utilization: f64,
}

/// Simulate the ECHO server of §2.2.2 at `util` of the maximum sustainable
/// throughput for `cores` cores and measure sojourn times (Fig 5 runs this at
/// the maximum operating point, util ≈ 0.95).
///
/// The model is an M/D/c queue fed through the traffic manager: Poisson
/// arrivals, one shared queue, `cores` servers, deterministic service equal
/// to the per-packet forwarding cost plus the dequeue synchronization cost.
pub fn simulate_echo_latency(
    spec: &NicSpec,
    frame: u32,
    cores: u32,
    util: f64,
    packets: u64,
    seed: u64,
) -> EchoLatency {
    simulate_echo_latency_obs(spec, frame, cores, util, packets, seed, &Obs::disabled())
}

/// [`simulate_echo_latency`] publishing traffic-manager metrics into `obs`:
/// the `tm.sojourn` histogram (the figure is rendered from this registry
/// slot), the `tm.packets` counter, the `tm.queue.peak` gauge (deepest
/// shared-queue backlog seen), and — at verbose trace level — `tm.depth`
/// counter-track samples for Perfetto.
#[allow(clippy::too_many_arguments)]
pub fn simulate_echo_latency_obs(
    spec: &NicSpec,
    frame: u32,
    cores: u32,
    util: f64,
    packets: u64,
    seed: u64,
    obs: &Obs,
) -> EchoLatency {
    #[derive(Debug)]
    enum Ev {
        Arrive,
        Done,
    }

    struct St {
        queue: std::collections::VecDeque<SimTime>, // arrival stamps
        busy: u32,
        cores: u32,
        service: SimTime,
        hist: HistHandle,
        packets_served: Counter,
        queue_peak: Gauge,
        obs: Obs,
        remaining: u64,
        rng: DetRng,
        gap_mean: SimTime,
        done_after_pop: Vec<SimTime>, // arrival stamps currently in service
    }

    let service = spec.fwd.cost(frame) + dequeue_sync_cost(spec, cores);
    let max_pps = achievable_pps(spec, frame, cores, SimTime::ZERO);
    let rate = max_pps * util.clamp(0.01, 0.999);
    let mut st = St {
        queue: std::collections::VecDeque::new(),
        busy: 0,
        cores,
        service,
        hist: obs.registry().hist("tm.sojourn"),
        packets_served: obs.registry().counter("tm.packets"),
        queue_peak: obs.registry().gauge("tm.queue.peak"),
        obs: obs.clone(),
        remaining: packets,
        rng: DetRng::new(seed),
        gap_mean: SimTime::from_secs_f64(1.0 / rate),
        done_after_pop: Vec::new(),
    };

    let mut q: EventQueue<Ev> = EventQueue::new();
    q.schedule_at(SimTime::ZERO, Ev::Arrive);
    q.run_until(&mut st, SimTime::MAX, |q, st, now, ev| {
        match ev {
            Ev::Arrive => {
                if st.remaining > 0 {
                    st.remaining -= 1;
                    st.queue.push_back(now);
                    if st.queue.len() as i64 > st.queue_peak.get() {
                        st.queue_peak.set(st.queue.len() as i64);
                    }
                    st.obs
                        .sample("tm", "tm.depth", 0, now, st.queue.len() as i64);
                    let gap = st.rng.exp(st.gap_mean);
                    if st.remaining > 0 {
                        q.schedule_after(gap, Ev::Arrive);
                    }
                }
            }
            Ev::Done => {
                st.busy -= 1;
                let arr = st.done_after_pop.remove(0);
                st.hist.record(now.saturating_sub(arr));
                st.packets_served.inc();
            }
        }
        // Start service on any idle core.
        while st.busy < st.cores {
            let Some(arr) = st.queue.pop_front() else {
                break;
            };
            st.busy += 1;
            st.done_after_pop.push(arr);
            q.schedule_after(st.service, Ev::Done);
        }
    });

    EchoLatency {
        avg: st.hist.mean(),
        p99: st.hist.p99(),
        utilization: util,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{CN2350, STINGRAY_PS225};

    /// Pins the dequeue cost model so a refactor cannot silently change it:
    /// the scheduler thresholds and every Fig 5/Fig 16 number depend on
    /// these exact constants (see the calibration note on
    /// [`dequeue_sync_cost`]).
    #[test]
    fn dequeue_sync_cost_matches_calibration() {
        // On-path: flat 18 ns regardless of core count.
        assert_eq!(dequeue_sync_cost(&CN2350, 1), SimTime::from_ns(18));
        assert_eq!(
            dequeue_sync_cost(&CN2350, CN2350.cores),
            SimTime::from_ns(18)
        );
        // Off-path: 90 ns uncontended + 14 ns per extra consumer.
        assert_eq!(dequeue_sync_cost(&STINGRAY_PS225, 1), SimTime::from_ns(90));
        assert_eq!(dequeue_sync_cost(&STINGRAY_PS225, 2), SimTime::from_ns(104));
        let all = dequeue_sync_cost(&STINGRAY_PS225, STINGRAY_PS225.cores);
        assert_eq!(
            all,
            SimTime::from_ns(90 + 14 * (STINGRAY_PS225.cores as u64 - 1))
        );
        // Bounds: dispatch stays well under a microsecond for any plausible
        // core count, and `cores = 0` must not underflow.
        assert_eq!(dequeue_sync_cost(&STINGRAY_PS225, 0), SimTime::from_ns(90));
        assert!(dequeue_sync_cost(&STINGRAY_PS225, 64) < SimTime::from_us(1));
    }

    /// Fig 2: LiquidIOII CN2350 needs 10/6/4/3 cores for line rate at
    /// 256/512/1024/1500 B and cannot reach it at 64/128 B.
    #[test]
    fn fig2_cores_for_line_rate_cn2350() {
        assert_eq!(cores_for_line_rate(&CN2350, 64), None);
        assert_eq!(cores_for_line_rate(&CN2350, 128), None);
        assert_eq!(cores_for_line_rate(&CN2350, 256), Some(10));
        assert_eq!(cores_for_line_rate(&CN2350, 512), Some(6));
        assert_eq!(cores_for_line_rate(&CN2350, 1024), Some(4));
        assert_eq!(cores_for_line_rate(&CN2350, 1500), Some(3));
    }

    /// Fig 3: Stingray PS225 needs 3/2/1/1 cores and misses line rate at
    /// 64/128 B (hardware pps ceiling).
    #[test]
    fn fig3_cores_for_line_rate_stingray() {
        assert_eq!(cores_for_line_rate(&STINGRAY_PS225, 64), None);
        assert_eq!(cores_for_line_rate(&STINGRAY_PS225, 128), None);
        assert_eq!(cores_for_line_rate(&STINGRAY_PS225, 256), Some(3));
        assert_eq!(cores_for_line_rate(&STINGRAY_PS225, 512), Some(2));
        assert_eq!(cores_for_line_rate(&STINGRAY_PS225, 1024), Some(1));
        assert_eq!(cores_for_line_rate(&STINGRAY_PS225, 1500), Some(1));
    }

    /// Fig 4: tolerated per-packet processing is ~2.5/9.8 µs on the 10GbE
    /// CN2350 and ~0.7/2.6 µs on the 25GbE Stingray for 256/1024 B.
    #[test]
    fn fig4_compute_headroom() {
        let h = compute_headroom(&CN2350, 256).unwrap().as_us_f64();
        assert!((h - 2.65).abs() < 0.4, "256B 10GbE headroom {h}");
        let h = compute_headroom(&CN2350, 1024).unwrap().as_us_f64();
        assert!((h - 9.8).abs() < 1.5, "1024B 10GbE headroom {h}");
        let h = compute_headroom(&STINGRAY_PS225, 256).unwrap().as_us_f64();
        assert!((h - 0.7).abs() < 0.15, "256B 25GbE headroom {h}");
        let h = compute_headroom(&STINGRAY_PS225, 1024).unwrap().as_us_f64();
        assert!((h - 2.6).abs() < 0.3, "1024B 25GbE headroom {h}");
    }

    #[test]
    fn bandwidth_monotonic_in_cores_and_capped() {
        let mut last = 0.0;
        for c in 1..=12 {
            let g = achievable_gbps(&CN2350, 1024, c, SimTime::ZERO);
            assert!(g >= last);
            last = g;
        }
        // Cap is the app-visible share of 10GbE.
        assert!(last <= 10.0);
        assert!(last > 9.5);
    }

    #[test]
    fn extra_processing_degrades_bandwidth() {
        let g0 = achievable_gbps(&CN2350, 256, 12, SimTime::ZERO);
        let g4 = achievable_gbps(&CN2350, 256, 12, SimTime::from_us(4));
        let g16 = achievable_gbps(&CN2350, 256, 12, SimTime::from_us(16));
        assert!(g0 > g4 && g4 > g16);
        // At 16us per packet: 12 cores / 16us = 0.75Mpps = 1.5Gbps.
        assert!((g16 - 1.5).abs() < 0.1, "g16={g16}");
    }

    #[test]
    fn small_extra_processing_is_free() {
        // Below the headroom the link stays saturated (Fig 4's flat region).
        let g = achievable_gbps(&CN2350, 1024, 12, SimTime::from_us(8));
        let line = achievable_gbps(&CN2350, 1024, 12, SimTime::ZERO);
        assert!((g - line).abs() < 1e-9);
    }

    #[test]
    fn off_path_sync_cost_grows_with_cores() {
        assert_eq!(
            dequeue_sync_cost(&CN2350, 4),
            dequeue_sync_cost(&CN2350, 12)
        );
        assert!(dequeue_sync_cost(&STINGRAY_PS225, 8) > dequeue_sync_cost(&STINGRAY_PS225, 2));
    }

    /// Fig 5: with the shared-queue traffic manager, doubling the core count
    /// at the same relative load barely moves average or tail latency.
    #[test]
    fn fig5_latency_insensitive_to_core_count() {
        let frame = 512;
        let six = simulate_echo_latency(&CN2350, frame, 6, 0.80, 40_000, 11);
        let twelve = simulate_echo_latency(&CN2350, frame, 12, 0.80, 40_000, 11);
        let avg_delta = (twelve.avg.as_us_f64() - six.avg.as_us_f64()).abs() / six.avg.as_us_f64();
        // Paper: 12-core adds only ~4% average latency over 6-core.
        assert!(avg_delta < 0.25, "delta={avg_delta}");
        assert!(six.p99 >= six.avg);
    }

    #[test]
    fn echo_latency_grows_with_load() {
        let lo = simulate_echo_latency(&CN2350, 512, 6, 0.30, 30_000, 5);
        let hi = simulate_echo_latency(&CN2350, 512, 6, 0.95, 30_000, 5);
        assert!(hi.avg > lo.avg);
        assert!(hi.p99 > lo.p99);
    }
}

//! Deterministic observability: metrics registry + structured trace ring.
//!
//! One [`Obs`] handle bundles a [`Registry`] of named counters / gauges /
//! latency histograms with a bounded [`TraceRing`] of sim-time-stamped
//! spans and events. Handles are cheap to clone (`Rc`) and are threaded
//! through the scheduler, runtime, NIC and network models; figures render
//! from registry snapshots and traces export to JSON-lines or Chrome
//! `trace_event` JSON (openable in Perfetto).
//!
//! Determinism rules (see DESIGN.md):
//! - **sim-time only** — no wall-clock reads anywhere in this module;
//! - metric iteration order is fixed by `BTreeMap` over `(name, node)`;
//! - trace records are pushed in simulation order and exported with
//!   integer-only timestamp formatting, so identical seeds produce
//!   byte-identical exports.
//!
//! ```
//! use ipipe_sim::obs::Obs;
//! use ipipe_sim::SimTime;
//!
//! let obs = Obs::with_level(ipipe_sim::obs::TraceLevel::Spans);
//! let served = obs.registry().counter("sched.exec.fcfs");
//! served.inc();
//! obs.span("nic", "exec", 0, 3, SimTime::from_us(10), SimTime::from_us(12), None);
//! assert!(obs.export_chrome().contains("\"exec\""));
//! assert!(obs.export_jsonl().contains("sched.exec.fcfs"));
//! ```

pub mod export;
pub mod registry;
pub mod trace;

pub use registry::{Counter, Gauge, HistHandle, MetricKey, Registry, Snapshot};
pub use trace::{TraceEvent, TraceKind, TraceRing};

use crate::time::SimTime;
use std::cell::RefCell;
use std::rc::Rc;

/// How much tracing to record. Metrics are always on; only the trace ring
/// is gated.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum TraceLevel {
    /// Record nothing in the trace ring.
    Off,
    /// Record spans and structural events (migrations, regroups, drops).
    Spans,
    /// Additionally record per-request instants and queue samples.
    Verbose,
}

/// Observability configuration.
#[derive(Debug, Clone, Copy)]
pub struct ObsConfig {
    /// Trace verbosity.
    pub level: TraceLevel,
    /// Trace ring capacity in records (0 disables the ring).
    pub trace_capacity: usize,
}

impl Default for ObsConfig {
    fn default() -> Self {
        ObsConfig {
            level: TraceLevel::Spans,
            trace_capacity: 1 << 16,
        }
    }
}

#[derive(Debug)]
struct Inner {
    registry: Registry,
    trace: RefCell<TraceRing>,
    level: TraceLevel,
}

/// Cheap-clone observability handle: clone one per subsystem, they all feed
/// the same registry and trace ring.
#[derive(Debug, Clone)]
pub struct Obs {
    inner: Rc<Inner>,
}

impl Default for Obs {
    fn default() -> Self {
        Obs::new(ObsConfig::default())
    }
}

impl Obs {
    /// Build with an explicit configuration.
    pub fn new(cfg: ObsConfig) -> Obs {
        Obs {
            inner: Rc::new(Inner {
                registry: Registry::new(),
                trace: RefCell::new(TraceRing::new(if cfg.level == TraceLevel::Off {
                    0
                } else {
                    cfg.trace_capacity
                })),
                level: cfg.level,
            }),
        }
    }

    /// Default capacity at the given trace level.
    pub fn with_level(level: TraceLevel) -> Obs {
        Obs::new(ObsConfig {
            level,
            ..ObsConfig::default()
        })
    }

    /// Metrics-only handle: counters/gauges/histograms work, the trace ring
    /// is disabled. Used by constructors that predate the obs layer.
    pub fn disabled() -> Obs {
        Obs::new(ObsConfig {
            level: TraceLevel::Off,
            trace_capacity: 0,
        })
    }

    /// The metrics registry.
    pub fn registry(&self) -> &Registry {
        &self.inner.registry
    }

    /// Active trace level.
    pub fn level(&self) -> TraceLevel {
        self.inner.level
    }

    /// True when `level` records are being kept.
    #[inline]
    pub fn traces(&self, level: TraceLevel) -> bool {
        self.inner.level >= level
    }

    /// Record a complete span `[start, end)` (no-op below `Spans`).
    #[inline]
    #[allow(clippy::too_many_arguments)]
    pub fn span(
        &self,
        cat: &'static str,
        name: &'static str,
        node: u16,
        lane: u32,
        start: SimTime,
        end: SimTime,
        arg: Option<(&'static str, i64)>,
    ) {
        if self.traces(TraceLevel::Spans) {
            self.inner.trace.borrow_mut().push(TraceEvent {
                ts: start,
                name,
                cat,
                node,
                lane,
                kind: TraceKind::Span {
                    dur: end.saturating_sub(start),
                },
                arg,
            });
        }
    }

    /// Record a point event (no-op below `Spans`).
    #[inline]
    pub fn instant(
        &self,
        cat: &'static str,
        name: &'static str,
        node: u16,
        lane: u32,
        ts: SimTime,
        arg: Option<(&'static str, i64)>,
    ) {
        if self.traces(TraceLevel::Spans) {
            self.inner.trace.borrow_mut().push(TraceEvent {
                ts,
                name,
                cat,
                node,
                lane,
                kind: TraceKind::Instant,
                arg,
            });
        }
    }

    /// Record a counter sample track point (no-op below `Verbose` — these
    /// are high-frequency).
    #[inline]
    pub fn sample(
        &self,
        cat: &'static str,
        name: &'static str,
        node: u16,
        ts: SimTime,
        value: i64,
    ) {
        if self.traces(TraceLevel::Verbose) {
            self.inner.trace.borrow_mut().push(TraceEvent {
                ts,
                name,
                cat,
                node,
                lane: 0,
                kind: TraceKind::Sample { value },
                arg: None,
            });
        }
    }

    /// Records currently held in the ring.
    pub fn trace_len(&self) -> usize {
        self.inner.trace.borrow().len()
    }

    /// Records dropped because the ring was full or disabled.
    pub fn trace_dropped(&self) -> u64 {
        self.inner.trace.borrow().dropped()
    }

    /// Records ever pushed into the ring (held + evicted).
    pub fn trace_recorded(&self) -> u64 {
        self.inner.trace.borrow().recorded()
    }

    /// Copy the trace records out in canonical order: by `(ts, node)`,
    /// push order breaking ties. Every node's records are pushed in
    /// simulation order, so this order is the same however a cluster's
    /// shards interleave their pushes.
    pub fn trace_events(&self) -> Vec<TraceEvent> {
        let mut events = self.inner.trace.borrow().to_vec();
        events.sort_by_key(|ev| (ev.ts, ev.node));
        events
    }

    /// Freeze the registry into a mergeable [`Snapshot`].
    pub fn snapshot(&self) -> Snapshot {
        self.inner.registry.snapshot()
    }

    /// Export metrics + trace as JSON lines: metric lines first (sorted by
    /// `(name, node)`), then trace records in [`Obs::trace_events`] order,
    /// then one `meta` line with ring statistics. Byte-identical for
    /// identical runs, and for a cluster at any shard count while its ring
    /// does not overflow.
    pub fn export_jsonl(&self) -> String {
        let mut out = self.snapshot().to_jsonl();
        out.push_str(&export::trace_jsonl(&self.trace_events()));
        out.push_str(&format!(
            "{{\"type\":\"meta\",\"trace_recorded\":{},\"trace_dropped\":{}}}\n",
            self.trace_recorded(),
            self.trace_dropped()
        ));
        out
    }

    /// Export the trace ring as Chrome `trace_event` JSON for Perfetto, in
    /// [`Obs::trace_events`] order.
    pub fn export_chrome(&self) -> String {
        export::chrome_trace(&self.trace_events())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn level_gates_trace_but_not_metrics() {
        let obs = Obs::disabled();
        obs.registry().counter("c").inc();
        obs.span(
            "t",
            "s",
            0,
            0,
            SimTime::from_ns(1),
            SimTime::from_ns(2),
            None,
        );
        obs.instant("t", "i", 0, 0, SimTime::from_ns(3), None);
        assert_eq!(obs.trace_len(), 0);
        assert_eq!(obs.snapshot().counter("c", 0), 1);

        let obs = Obs::with_level(TraceLevel::Spans);
        obs.span(
            "t",
            "s",
            0,
            0,
            SimTime::from_ns(1),
            SimTime::from_ns(2),
            None,
        );
        obs.sample("t", "q", 0, SimTime::from_ns(2), 5); // verbose-only
        assert_eq!(obs.trace_len(), 1);

        let obs = Obs::with_level(TraceLevel::Verbose);
        obs.sample("t", "q", 0, SimTime::from_ns(2), 5);
        assert_eq!(obs.trace_len(), 1);
    }

    #[test]
    fn clones_share_state() {
        let obs = Obs::with_level(TraceLevel::Spans);
        let clone = obs.clone();
        clone.registry().counter("shared").add(4);
        clone.instant("t", "i", 1, 2, SimTime::from_us(1), None);
        assert_eq!(obs.snapshot().counter("shared", 0), 4);
        assert_eq!(obs.trace_len(), 1);
    }

    #[test]
    fn exports_are_reproducible() {
        let run = || {
            let obs = Obs::with_level(TraceLevel::Verbose);
            obs.registry().counter_on("c", 1).add(2);
            obs.registry().hist("h").record(SimTime::from_us(42));
            obs.span(
                "nic",
                "exec",
                0,
                1,
                SimTime::from_us(1),
                SimTime::from_us(3),
                Some(("actor", 9)),
            );
            obs.sample("nic", "depth", 0, SimTime::from_us(2), 3);
            (obs.export_jsonl(), obs.export_chrome())
        };
        assert_eq!(run(), run());
        let (jsonl, chrome) = run();
        assert!(jsonl.contains("\"trace_recorded\":2"));
        assert!(chrome.contains("\"ph\":\"C\""));
    }
}

//! The metrics registry: counters, gauges and latency histograms keyed by
//! `&'static str` names plus a node tag and an optional group id.
//!
//! Handles ([`Counter`], [`Gauge`], [`HistHandle`]) are `Rc`-backed cells:
//! registering a metric allocates once, after which every update on the hot
//! path is a plain `Cell`/`RefCell` operation — no allocation, no hashing,
//! no locks. The same handle can be cloned into any number of subsystems
//! (scheduler, runtime, network model) and they all feed one slot.
//!
//! [`Registry::snapshot`] freezes everything into a [`Snapshot`] — plain
//! owned data ordered by `(name, node)` — which can cross threads, be merged
//! with other snapshots (order-independently; the parallel sweep runner
//! relies on this) and be exported as JSON lines.

use crate::stats::Histogram;
use crate::time::SimTime;
use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::rc::Rc;

/// Identity of a metric: a static name, optionally one of many numbered
/// groups publishing under it, plus the node (server) it belongs to.
/// Single-node harnesses use node 0 throughout.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct MetricKey {
    /// Dotted metric name, e.g. `"sched.exec.fcfs"`.
    pub name: &'static str,
    /// Group the metric is split by: a [`Snapshot`] names group 7 of
    /// `rkv.ops` `rkv.ops.g007`. Names are `&'static str`, so a stream per
    /// run-time group cannot be told apart by name without leaking one.
    pub group: Option<u16>,
    /// Owning server node (0 when there is only one).
    pub node: u16,
}

impl MetricKey {
    /// The name a [`Snapshot`] files this metric under.
    fn rendered(&self) -> String {
        match self.group {
            Some(g) => format!("{}.g{g:03}", self.name),
            None => self.name.to_string(),
        }
    }
}

/// Monotonic event counter. Saturates at `u64::MAX` instead of wrapping, so
/// merged totals never travel backwards.
#[derive(Debug, Clone, Default)]
pub struct Counter(Rc<Cell<u64>>);

impl Counter {
    /// Add one.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Add `n` (saturating).
    #[inline]
    pub fn add(&self, n: u64) {
        self.0.set(self.0.get().saturating_add(n));
    }

    /// Current value.
    #[inline]
    pub fn get(&self) -> u64 {
        self.0.get()
    }

    /// Reset to zero (measurement-window resets).
    pub fn reset(&self) {
        self.0.set(0);
    }
}

/// Instantaneous level (queue depth, backlog, cores in a mode).
#[derive(Debug, Clone, Default)]
pub struct Gauge(Rc<Cell<i64>>);

impl Gauge {
    /// Set the level.
    #[inline]
    pub fn set(&self, v: i64) {
        self.0.set(v);
    }

    /// Adjust the level by `d` (saturating).
    #[inline]
    pub fn adjust(&self, d: i64) {
        self.0.set(self.0.get().saturating_add(d));
    }

    /// Current level.
    #[inline]
    pub fn get(&self) -> i64 {
        self.0.get()
    }

    /// Reset to zero.
    pub fn reset(&self) {
        self.0.set(0);
    }
}

/// Shared handle to a log-bucketed latency histogram
/// ([`crate::stats::Histogram`]: ~3% relative resolution, constant memory).
#[derive(Debug, Clone)]
pub struct HistHandle(Rc<RefCell<Histogram>>);

impl Default for HistHandle {
    fn default() -> Self {
        HistHandle(Rc::new(RefCell::new(Histogram::new())))
    }
}

impl HistHandle {
    /// Record one latency sample.
    #[inline]
    pub fn record(&self, t: SimTime) {
        self.0.borrow_mut().record(t);
    }

    /// Number of samples.
    pub fn count(&self) -> u64 {
        self.0.borrow().count()
    }

    /// Mean sample.
    pub fn mean(&self) -> SimTime {
        self.0.borrow().mean()
    }

    /// Quantile `q` in `[0,1]` (upper bucket bound).
    pub fn quantile(&self, q: f64) -> SimTime {
        self.0.borrow().quantile(q)
    }

    /// Median.
    pub fn p50(&self) -> SimTime {
        self.0.borrow().p50()
    }

    /// 99th percentile.
    pub fn p99(&self) -> SimTime {
        self.0.borrow().p99()
    }

    /// Exact maximum sample.
    pub fn max(&self) -> SimTime {
        self.0.borrow().max()
    }

    /// Exact minimum sample.
    pub fn min(&self) -> SimTime {
        self.0.borrow().min()
    }

    /// Clear all samples.
    pub fn reset(&self) {
        self.0.borrow_mut().reset();
    }

    /// Owned copy of the underlying histogram.
    pub fn to_histogram(&self) -> Histogram {
        self.0.borrow().clone()
    }

    /// Fold another histogram's buckets into this handle (order-independent;
    /// used to aggregate per-shard histograms into a cluster view).
    pub fn merge_from(&self, other: &Histogram) {
        self.0.borrow_mut().merge(other);
    }
}

/// The registry proper. Interior-mutable so subsystems can register metrics
/// through a shared `&Registry` (typically inside an
/// [`Obs`](crate::obs::Obs) handle).
#[derive(Debug, Default)]
pub struct Registry {
    counters: RefCell<BTreeMap<MetricKey, Counter>>,
    gauges: RefCell<BTreeMap<MetricKey, Gauge>>,
    hists: RefCell<BTreeMap<MetricKey, HistHandle>>,
}

impl Registry {
    /// Fresh, empty registry.
    pub fn new() -> Registry {
        Registry::default()
    }

    /// Counter `name` on node 0.
    pub fn counter(&self, name: &'static str) -> Counter {
        self.counter_on(name, 0)
    }

    /// Counter `name` on `node`, registering it on first use.
    pub fn counter_on(&self, name: &'static str, node: u16) -> Counter {
        self.counter_in(name, None, node)
    }

    /// Counter `name` of `group` (see [`MetricKey::group`]) on `node`.
    pub fn counter_in(&self, name: &'static str, group: Option<u16>, node: u16) -> Counter {
        let key = MetricKey { name, group, node };
        self.counters.borrow_mut().entry(key).or_default().clone()
    }

    /// Gauge `name` on node 0.
    pub fn gauge(&self, name: &'static str) -> Gauge {
        self.gauge_on(name, 0)
    }

    /// Gauge `name` on `node`, registering it on first use.
    pub fn gauge_on(&self, name: &'static str, node: u16) -> Gauge {
        self.gauge_in(name, None, node)
    }

    /// Gauge `name` of `group` (see [`MetricKey::group`]) on `node`.
    pub fn gauge_in(&self, name: &'static str, group: Option<u16>, node: u16) -> Gauge {
        let key = MetricKey { name, group, node };
        self.gauges.borrow_mut().entry(key).or_default().clone()
    }

    /// Histogram `name` on node 0.
    pub fn hist(&self, name: &'static str) -> HistHandle {
        self.hist_on(name, 0)
    }

    /// Histogram `name` on `node`, registering it on first use.
    pub fn hist_on(&self, name: &'static str, node: u16) -> HistHandle {
        self.hists
            .borrow_mut()
            .entry(MetricKey {
                name,
                group: None,
                node,
            })
            .or_default()
            .clone()
    }

    /// Freeze current values into an owned, mergeable [`Snapshot`].
    pub fn snapshot(&self) -> Snapshot {
        Snapshot {
            counters: self
                .counters
                .borrow()
                .iter()
                .map(|(k, v)| ((k.rendered(), k.node), v.get()))
                .collect(),
            gauges: self
                .gauges
                .borrow()
                .iter()
                .map(|(k, v)| ((k.rendered(), k.node), v.get()))
                .collect(),
            hists: self
                .hists
                .borrow()
                .iter()
                .map(|(k, v)| ((k.rendered(), k.node), v.to_histogram()))
                .collect(),
        }
    }
}

/// Frozen registry contents: owned, `Send`, ordered by `(name, node)`.
///
/// Snapshots merge commutatively and associatively — counters and gauges
/// add (saturating), histograms merge bucket-wise — so folding per-worker
/// snapshots from a [`crate::sweep::parallel_sweep`] gives the same result
/// in any order. A property test pins this.
#[derive(Debug, Clone, Default)]
pub struct Snapshot {
    /// Counter values.
    pub counters: BTreeMap<(String, u16), u64>,
    /// Gauge levels.
    pub gauges: BTreeMap<(String, u16), i64>,
    /// Histogram copies.
    pub hists: BTreeMap<(String, u16), Histogram>,
}

impl Snapshot {
    /// Fold `other` into `self`.
    pub fn merge(&mut self, other: &Snapshot) {
        for (k, v) in &other.counters {
            let slot = self.counters.entry(k.clone()).or_insert(0);
            *slot = slot.saturating_add(*v);
        }
        for (k, v) in &other.gauges {
            let slot = self.gauges.entry(k.clone()).or_insert(0);
            *slot = slot.saturating_add(*v);
        }
        for (k, v) in &other.hists {
            match self.hists.get_mut(k) {
                Some(h) => h.merge(v),
                None => {
                    self.hists.insert(k.clone(), v.clone());
                }
            }
        }
    }

    /// Re-key every metric as `<prefix>.<name>` (same node), returning a new
    /// snapshot. Sweep-style reducers use this to tag each cell's metrics
    /// with its own identity before folding cells together: `merge` SUMS
    /// same-key slots, so two cells that both record `sched.runs` would
    /// otherwise collapse into one indistinguishable number. A prefixed
    /// merge keeps them separable — see the pinned regression test
    /// `prefixed_cells_stay_separable_after_merge`.
    pub fn prefixed(&self, prefix: &str) -> Snapshot {
        let rekey = |name: &String| format!("{prefix}.{name}");
        Snapshot {
            counters: self
                .counters
                .iter()
                .map(|((n, node), v)| ((rekey(n), *node), *v))
                .collect(),
            gauges: self
                .gauges
                .iter()
                .map(|((n, node), v)| ((rekey(n), *node), *v))
                .collect(),
            hists: self
                .hists
                .iter()
                .map(|((n, node), h)| ((rekey(n), *node), h.clone()))
                .collect(),
        }
    }

    /// Counter value (0 when absent).
    pub fn counter(&self, name: &str, node: u16) -> u64 {
        self.counters
            .get(&(name.to_string(), node))
            .copied()
            .unwrap_or(0)
    }

    /// Gauge level (0 when absent).
    pub fn gauge(&self, name: &str, node: u16) -> i64 {
        self.gauges
            .get(&(name.to_string(), node))
            .copied()
            .unwrap_or(0)
    }

    /// Histogram (if recorded).
    pub fn hist(&self, name: &str, node: u16) -> Option<&Histogram> {
        self.hists.get(&(name.to_string(), node))
    }

    /// Render as JSON lines, one metric per line, in `(name, node)` order.
    /// Deterministic: identical registry state produces identical bytes.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for ((name, node), v) in &self.counters {
            out.push_str(&format!(
                "{{\"type\":\"counter\",\"name\":{},\"node\":{node},\"value\":{v}}}\n",
                super::export::json_str(name)
            ));
        }
        for ((name, node), v) in &self.gauges {
            out.push_str(&format!(
                "{{\"type\":\"gauge\",\"name\":{},\"node\":{node},\"value\":{v}}}\n",
                super::export::json_str(name)
            ));
        }
        for ((name, node), h) in &self.hists {
            out.push_str(&format!(
                "{{\"type\":\"hist\",\"name\":{},\"node\":{node},\"count\":{},\
                 \"min_ns\":{},\"max_ns\":{},\"mean_ns\":{},\"p50_ns\":{},\"p99_ns\":{}}}\n",
                super::export::json_str(name),
                h.count(),
                h.min().as_ns(),
                h.max().as_ns(),
                h.mean().as_ns(),
                h.p50().as_ns(),
                h.p99().as_ns(),
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_handles_share_one_slot() {
        let reg = Registry::new();
        let a = reg.counter("x");
        let b = reg.counter("x");
        a.inc();
        b.add(2);
        assert_eq!(reg.counter("x").get(), 3);
        // Different node, different slot.
        assert_eq!(reg.counter_on("x", 1).get(), 0);
    }

    /// Pinned regression for per-cell tagging (ISSUE 9 satellite): two
    /// distinct design-space cells record the same metric names; a naive
    /// merge SUMS them into an indistinguishable blob, while prefixing each
    /// cell with its `DesignPoint` id first keeps every cell separable.
    #[test]
    fn prefixed_cells_stay_separable_after_merge() {
        let cell = |runs: u64, p99_us: u64| {
            let reg = Registry::new();
            reg.counter("sched.runs").add(runs);
            reg.hist("rkv.latency").record(SimTime::from_us(p99_us));
            reg.snapshot()
        };
        let a = cell(10, 7);
        let b = cell(32, 90);

        // The hazard: unprefixed merge sums same-name slots.
        let mut blob = a.clone();
        blob.merge(&b);
        assert_eq!(blob.counter("sched.runs", 0), 42);

        // The fix: prefix by cell identity before folding.
        let mut merged = a.prefixed("dse.c04-f1200-onp-m115-acc.rkv");
        merged.merge(&b.prefixed("dse.c12-f1200-onp-m115-acc.rkv"));
        assert_eq!(
            merged.counter("dse.c04-f1200-onp-m115-acc.rkv.sched.runs", 0),
            10
        );
        assert_eq!(
            merged.counter("dse.c12-f1200-onp-m115-acc.rkv.sched.runs", 0),
            32
        );
        let h = merged
            .hist("dse.c12-f1200-onp-m115-acc.rkv.rkv.latency", 0)
            .unwrap();
        assert_eq!(h.count(), 1);
        // Merge order does not matter for the prefixed fold either.
        let mut rev = b.prefixed("dse.c12-f1200-onp-m115-acc.rkv");
        rev.merge(&a.prefixed("dse.c04-f1200-onp-m115-acc.rkv"));
        assert_eq!(rev.to_jsonl(), merged.to_jsonl());
    }

    #[test]
    fn grouped_metrics_render_as_dot_g_names() {
        let reg = Registry::new();
        reg.counter_in("rkv.ops", Some(7), 2).add(5);
        reg.counter_in("rkv.ops", Some(1000), 2).inc();
        reg.counter_on("rkv.ops.flushed", 2).inc();
        reg.gauge_in("rkv.buffered_writes", Some(0), 1).set(-2);
        // One slot per (name, group, node); the plain name is the `None` group.
        assert_eq!(reg.counter_in("rkv.ops", Some(7), 2).get(), 5);
        assert_eq!(reg.counter_in("rkv.ops", Some(8), 2).get(), 0);
        assert_eq!(reg.counter_on("rkv.ops", 2).get(), 0);
        let snap = reg.snapshot();
        assert_eq!(snap.counter("rkv.ops.g007", 2), 5);
        assert_eq!(snap.gauge("rkv.buffered_writes.g000", 1), -2);
        // Exported in the order of the rendered strings, not of the keys.
        let names: Vec<&str> = snap.counters.keys().map(|(n, _)| n.as_str()).collect();
        let want = [
            "rkv.ops",
            "rkv.ops.flushed",
            "rkv.ops.g007",
            "rkv.ops.g008",
            "rkv.ops.g1000",
        ];
        assert_eq!(names, want);
    }

    #[test]
    fn counter_saturates_instead_of_wrapping() {
        let reg = Registry::new();
        let c = reg.counter("sat");
        c.add(u64::MAX - 1);
        c.add(5);
        assert_eq!(c.get(), u64::MAX);
        c.inc();
        assert_eq!(c.get(), u64::MAX);
    }

    #[test]
    fn gauge_tracks_levels() {
        let reg = Registry::new();
        let g = reg.gauge_on("depth", 2);
        g.set(10);
        g.adjust(-3);
        assert_eq!(g.get(), 7);
        g.reset();
        assert_eq!(reg.gauge_on("depth", 2).get(), 0);
    }

    #[test]
    fn hist_bucket_boundaries_never_underreport() {
        let reg = Registry::new();
        let h = reg.hist("lat");
        // Samples at and around power-of-two bucket edges: the reported
        // quantile is an upper bucket bound, so it must dominate the exact
        // sample, within the documented ~3.2% relative resolution.
        for ns in [1u64, 31, 32, 33, 63, 64, 65, 1023, 1024, 1025, 1 << 20] {
            h.reset();
            h.record(SimTime::from_ns(ns));
            let q = h.quantile(1.0).as_ns();
            assert!(q >= ns || q == h.max().as_ns(), "q={q} ns={ns}");
            assert!((q as f64) <= ns as f64 * 1.033 + 1.0, "q={q} ns={ns}");
        }
    }

    #[test]
    fn snapshot_reads_and_merges() {
        let reg = Registry::new();
        reg.counter("c").add(2);
        reg.gauge("g").set(-4);
        reg.hist("h").record(SimTime::from_us(10));
        let mut a = reg.snapshot();
        let reg2 = Registry::new();
        reg2.counter("c").add(3);
        reg2.hist("h").record(SimTime::from_us(30));
        reg2.hist_on("h2", 1).record(SimTime::from_us(1));
        let b = reg2.snapshot();
        a.merge(&b);
        assert_eq!(a.counter("c", 0), 5);
        assert_eq!(a.gauge("g", 0), -4);
        assert_eq!(a.hist("h", 0).unwrap().count(), 2);
        assert_eq!(a.hist("h2", 1).unwrap().count(), 1);
        assert_eq!(a.counter("missing", 0), 0);
    }

    #[test]
    fn jsonl_is_sorted_and_stable() {
        let reg = Registry::new();
        reg.counter("z.last").inc();
        reg.counter("a.first").inc();
        reg.hist("m.h").record(SimTime::from_us(5));
        let s = reg.snapshot();
        let a = s.to_jsonl();
        let b = reg.snapshot().to_jsonl();
        assert_eq!(a, b);
        let first = a.lines().next().unwrap();
        assert!(first.contains("a.first"), "{first}");
        assert!(a.lines().all(|l| l.starts_with('{') && l.ends_with('}')));
    }
}

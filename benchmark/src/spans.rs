//! In-memory span recorder for the traced repetition.
//!
//! The benchmark wraps every call it makes into the program in a span
//! (`name, start_ns, end_ns, parent`); spans nest by call structure, one
//! root per workload. Nothing is written until the run ends. A disabled
//! recorder runs the closure and records nothing, so the timed repetitions
//! share the workload code without paying for the trace.

use crate::stats::json_str;
use std::time::Instant;

/// One recorded interval. `parent` indexes [`Recorder::spans`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
}

/// Span store plus the stack of currently open spans.
pub struct Recorder {
    pub enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Recorder {
    pub fn new(enabled: bool) -> Recorder {
        Recorder {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Run `f` inside a span named `name`, child of the innermost open span.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Recorder) -> T) -> T {
        if !self.enabled {
            return f(self);
        }
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: self.origin.elapsed().as_nanos() as u64,
            end_ns: 0,
            parent: self.open.last().copied(),
        });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        self.spans[id].end_ns = self.origin.elapsed().as_nanos() as u64;
        out
    }

    #[cfg(test)]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Total duration, in seconds, of every span called `name`.
    pub fn total_s(&self, name: &str) -> f64 {
        let ns: u64 = self
            .spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.end_ns - s.start_ns)
            .sum();
        ns as f64 / 1e9
    }

    /// One JSON object per span, in start order, self time included.
    pub fn to_jsonl(&self) -> String {
        let selfs = self_times_ns(&self.spans);
        let mut out = String::new();
        for (id, (s, self_ns)) in self.spans.iter().zip(selfs).enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            out.push_str(&format!(
                "{{\"id\":{id},\"parent\":{parent},\"name\":{},\"start_ns\":{},\"end_ns\":{},\"self_ns\":{self_ns}}}\n",
                json_str(s.name),
                s.start_ns,
                s.end_ns,
            ));
        }
        out
    }
}

/// Self time of every span: its duration minus the part of that interval
/// its direct children cover. Children of one parent never overlap here
/// (they are sequential calls on one thread), so the covered part is the
/// sum of the child durations clipped to the parent.
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut selfs: Vec<u64> = spans.iter().map(|s| s.end_ns - s.start_ns).collect();
    for s in spans {
        if let Some(p) = s.parent {
            let lo = s.start_ns.max(spans[p].start_ns);
            let hi = s.end_ns.min(spans[p].end_ns);
            selfs[p] = selfs[p].saturating_sub(hi.saturating_sub(lo));
        }
    }
    selfs
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
        }
    }

    #[test]
    fn self_time_is_duration_minus_direct_children() {
        // root 0..100
        //   setup 10..30
        //     build 12..20
        //   run 40..90
        //     run_for 40..60
        //     run_for 65..85
        let tree = vec![
            span("root", 0, 100, None),
            span("setup", 10, 30, Some(0)),
            span("build", 12, 20, Some(1)),
            span("run", 40, 90, Some(0)),
            span("run_for", 40, 60, Some(3)),
            span("run_for", 65, 85, Some(3)),
        ];
        assert_eq!(self_times_ns(&tree), vec![30, 12, 8, 10, 20, 20]);
        // Self times partition the root: nothing counted twice or lost.
        assert_eq!(self_times_ns(&tree).iter().sum::<u64>(), 100);
    }

    #[test]
    fn a_child_overhanging_its_parent_is_clipped() {
        let tree = vec![span("p", 10, 20, None), span("c", 15, 30, Some(0))];
        assert_eq!(self_times_ns(&tree), vec![5, 15]);
    }

    #[test]
    fn recorder_nests_by_call_structure_and_sums_by_name() {
        let mut r = Recorder::new(true);
        let v = r.span("root", |r| {
            r.span("step", |_| ());
            r.span("step", |r| r.span("inner", |_| 7))
        });
        assert_eq!(v, 7);
        let names: Vec<_> = r.spans().iter().map(|s| (s.name, s.parent)).collect();
        assert_eq!(
            names,
            vec![
                ("root", None),
                ("step", Some(0)),
                ("step", Some(0)),
                ("inner", Some(2))
            ]
        );
        for s in r.spans() {
            assert!(s.end_ns >= s.start_ns);
        }
        assert!(r.total_s("step") <= r.total_s("root"));
        assert_eq!(r.to_jsonl().lines().count(), 4);
        assert!(r
            .to_jsonl()
            .starts_with("{\"id\":0,\"parent\":null,\"name\":\"root\""));
    }

    #[test]
    fn a_disabled_recorder_records_nothing() {
        let mut r = Recorder::new(false);
        assert_eq!(r.span("x", |_| 3), 3);
        assert!(r.spans().is_empty());
        assert_eq!(r.total_s("x"), 0.0);
    }
}

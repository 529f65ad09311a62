//! In-memory span recorder for the traced run.
//!
//! Spans are recorded around the benchmark's own calls into each crate's
//! public functions; nothing inside the program is instrumented. Spans are
//! kept in memory and written out once, when the run ends.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One timed call: `[start_ns, end_ns)` from the recorder's origin.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    pub request: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Handle to an open span; close it with [`Tracer::end`].
#[must_use]
pub struct Open(usize);

/// Records nested spans; the parent of a new span is the innermost open one.
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }
}

impl Tracer {
    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    pub fn begin(&mut self, name: &'static str, request: u64) -> Open {
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            request,
        });
        self.open.push(self.spans.len() - 1);
        Open(self.spans.len() - 1)
    }

    /// Closes `span`, which must be the innermost open span; returns its
    /// duration in nanoseconds.
    pub fn end(&mut self, span: Open) -> u64 {
        assert_eq!(self.open.pop(), Some(span.0), "spans close innermost first");
        let end_ns = self.now_ns();
        let s = &mut self.spans[span.0];
        s.end_ns = end_ns;
        s.duration_ns()
    }

    /// Times `f` as one span.
    pub fn time<R>(&mut self, name: &'static str, request: u64, f: impl FnOnce() -> R) -> R {
        let s = self.begin(name, request);
        let r = f();
        self.end(s);
        r
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// The spans as JSON lines `{name, start_ns, end_ns, parent, request}`.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for s in &self.spans {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{},\"request\":{}}}",
                s.name, s.start_ns, s.end_ns, parent, s.request
            );
        }
        out
    }
}

/// Self time of every span: its duration minus the part of its interval
/// that its children cover (children are clipped to the parent and their
/// overlaps merged, so nothing is subtracted twice).
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let parent = &spans[p];
            let (a, b) = (s.start_ns.max(parent.start_ns), s.end_ns.min(parent.end_ns));
            if a < b {
                children[p].push((a, b));
            }
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0;
            let mut cursor = 0;
            for &(a, b) in kids.iter() {
                let a = a.max(cursor);
                if b > a {
                    covered += b - a;
                    cursor = b;
                }
            }
            s.duration_ns().saturating_sub(covered)
        })
        .collect()
}

/// Total self time per span name, over the spans whose root span is named
/// `root`.
pub fn self_time_by_name(spans: &[Span], root: &str) -> BTreeMap<&'static str, u64> {
    let selfs = self_times_ns(spans);
    let mut by_name: BTreeMap<&'static str, u64> = BTreeMap::new();
    for (i, s) in spans.iter().enumerate() {
        let mut r = i;
        while let Some(p) = spans[r].parent {
            r = p;
        }
        if spans[r].name == root {
            *by_name.entry(s.name).or_default() += selfs[i];
        }
    }
    by_name
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns: start,
            end_ns: end,
            parent,
            request: 0,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        // request [0,100) ⊃ compile [10,80) ⊃ run [20,70); verify [80,95).
        let spans = vec![
            span("request", 0, 100, None),
            span("compile", 10, 80, Some(0)),
            span("run", 20, 70, Some(1)),
            span("verify", 80, 95, Some(0)),
        ];
        assert_eq!(self_times_ns(&spans), vec![15, 20, 50, 15]);
        // Self times of one tree sum to the root's duration.
        assert_eq!(self_times_ns(&spans).iter().sum::<u64>(), 100);
    }

    #[test]
    fn overlapping_and_overhanging_children_are_not_counted_twice() {
        let spans = vec![
            span("root", 0, 100, None),
            span("a", 10, 50, Some(0)),
            span("b", 40, 60, Some(0)),  // overlaps a by 10
            span("c", 90, 120, Some(0)), // overhangs the parent by 20
        ];
        assert_eq!(self_times_ns(&spans)[0], 100 - 50 - 10);
    }

    #[test]
    fn recorder_nests_and_groups_by_root() {
        let mut t = Tracer::default();
        let root = t.begin("request", 1);
        t.time("core.session_run", 1, || std::hint::black_box(3 + 4));
        t.end(root);
        t.time("setup", 2, || ());
        let spans = t.spans();
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, None);
        let by = self_time_by_name(spans, "request");
        assert_eq!(
            by.keys().copied().collect::<Vec<_>>(),
            ["core.session_run", "request"]
        );
        assert!(t.to_jsonl().lines().count() == 3);
    }
}

//! In-memory span recorder for the traced run.
//!
//! Spans are recorded from the benchmark's side of each layer boundary
//! (around calls into `Session`, `Server`/`Client` and `stq-soundness`),
//! kept in memory, and written out once the run ends. A disabled tracer
//! records nothing, so an untraced run pays one branch per call.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One recorded interval.
#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    /// The operation this span belongs to; spans of one op share it.
    pub op: u64,
    /// Index of the enclosing span in the same tracer.
    pub parent: Option<usize>,
    /// Nanoseconds since the tracer's origin.
    pub start: u64,
    pub end: u64,
}

impl Span {
    pub fn dur_ms(&self) -> f64 {
        (self.end - self.start) as f64 / 1e6
    }
}

/// Records nested spans for one thread.
#[derive(Debug)]
pub struct Tracer {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new(on: bool, origin: Instant) -> Tracer {
        Tracer {
            on,
            origin,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    pub fn is_on(&self) -> bool {
        self.on
    }

    fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span named `name`, nested under the innermost span still
    /// open; close it with [`Tracer::exit`].
    pub fn enter(&mut self, name: &'static str, op: u64) {
        if !self.on {
            return;
        }
        let start = self.now();
        self.open.push(self.spans.len());
        self.spans.push(Span {
            name,
            op,
            parent: self.open.iter().rev().nth(1).copied(),
            start,
            end: start,
        });
    }

    /// Closes the innermost open span.
    pub fn exit(&mut self) {
        if let Some(idx) = self.open.pop() {
            self.spans[idx].end = self.now();
        }
    }

    /// Runs `f` inside a span (see [`Tracer::enter`]).
    pub fn span<T>(&mut self, name: &'static str, op: u64, f: impl FnOnce() -> T) -> T {
        self.enter(name, op);
        let out = f();
        self.exit();
        out
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Moves another thread's spans into this tracer (re-basing parent
    /// indices).
    pub fn absorb(&mut self, other: Tracer) {
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }

    /// Self time of every span, in ms: its duration minus the part of
    /// its interval covered by its direct children.
    pub fn self_times(&self) -> Vec<f64> {
        let mut children: Vec<Vec<usize>> = vec![Vec::new(); self.spans.len()];
        for (i, s) in self.spans.iter().enumerate() {
            if let Some(p) = s.parent {
                children[p].push(i);
            }
        }
        self.spans
            .iter()
            .zip(&children)
            .map(|(s, kids)| {
                let mut iv: Vec<(u64, u64)> = kids
                    .iter()
                    .map(|&k| (self.spans[k].start, self.spans[k].end))
                    .collect();
                iv.sort_unstable();
                let mut covered = 0u64;
                let mut reach = s.start;
                for (a, b) in iv {
                    let a = a.max(reach);
                    let b = b.min(s.end);
                    if b > a {
                        covered += b - a;
                        reach = b;
                    }
                }
                (s.end - s.start - covered) as f64 / 1e6
            })
            .collect()
    }

    /// Sum of self times per span name, in ms.
    pub fn self_time_by_name(&self) -> BTreeMap<&'static str, f64> {
        let mut out = BTreeMap::new();
        for (s, t) in self.spans.iter().zip(self.self_times()) {
            *out.entry(s.name).or_insert(0.0) += t;
        }
        out
    }

    /// The spans as JSON lines (name, op, parent, start_ns, end_ns).
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"op\":{},\"parent\":{parent},\"start_ns\":{},\"end_ns\":{}}}",
                s.name, s.op, s.start, s.end
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, parent: Option<usize>, start: u64, end: u64) -> Span {
        Span {
            name,
            op: 0,
            parent,
            start,
            end,
        }
    }

    #[test]
    fn self_times_add_up_to_the_root() {
        let mut t = Tracer::new(true, Instant::now());
        t.spans = vec![
            span("op", None, 0, 10_000_000),
            span("a", Some(0), 1_000_000, 3_000_000),
            span("b", Some(0), 4_000_000, 6_000_000),
            span("c", Some(2), 4_000_000, 5_000_000),
        ];
        let st = t.self_times();
        assert_eq!(st, vec![6.0, 2.0, 1.0, 1.0]);
        assert_eq!(st.iter().sum::<f64>(), t.spans[0].dur_ms());
    }

    #[test]
    fn overlapping_children_are_covered_once() {
        let mut t = Tracer::new(true, Instant::now());
        t.spans = vec![
            span("op", None, 0, 10_000_000),
            span("a", Some(0), 1_000_000, 4_000_000),
            span("b", Some(0), 3_000_000, 6_000_000),
        ];
        assert_eq!(t.self_times()[0], 5.0);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false, Instant::now());
        assert_eq!(t.span("x", 1, || 7), 7);
        t.enter("y", 1);
        t.exit();
        assert!(t.spans().is_empty());
    }

    #[test]
    fn nested_spans_link_to_their_parent() {
        let mut t = Tracer::new(true, Instant::now());
        t.enter("op", 3);
        t.span("leaf", 3, || ());
        t.exit();
        let mut u = Tracer::new(true, Instant::now());
        u.enter("op", 4);
        u.span("leaf", 4, || ());
        u.exit();
        t.absorb(u);
        let parents: Vec<Option<usize>> = t.spans().iter().map(|s| s.parent).collect();
        assert_eq!(parents, vec![None, Some(0), None, Some(2)]);
        assert!(t.to_jsonl().lines().count() == 4);
    }
}

//! In-memory spans recorded by the harness around its calls into each
//! layer (the program under test is not instrumented).
//!
//! A span has a name, a start and an end (ns since the tracer was
//! made), the span that caused it, and the id of the workload operation
//! it belongs to. Spans are kept in a `Vec` and written out once, at
//! the end of the run. With tracing off, `begin` hands out a dummy
//! handle and nothing is stored, so the untraced run pays one branch.

use crate::json;
use std::time::Instant;

/// Handle to an open span (an index into the tracer's span list).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanId(usize);

/// Parent of a root span.
pub const NO_PARENT: SpanId = SpanId(usize::MAX);

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the causing span, `usize::MAX` for a root.
    pub parent: usize,
    /// Spans of one workload operation share this id.
    pub op: u64,
}

pub struct Tracer {
    on: bool,
    epoch: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new(on: bool) -> Self {
        Self {
            on,
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }

    /// Turns recording on or off (per cycle: a traced run keeps one
    /// cycle unrecorded as the base its overhead is measured against).
    pub fn set_on(&mut self, on: bool) {
        self.on = on;
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span; close it with [`Tracer::end`].
    pub fn begin(&mut self, name: &'static str, parent: SpanId, op: u64) -> SpanId {
        if !self.on {
            return NO_PARENT;
        }
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: parent.0,
            op,
        });
        SpanId(self.spans.len() - 1)
    }

    pub fn end(&mut self, id: SpanId) {
        if !self.on {
            return;
        }
        let now = self.now_ns();
        if let Some(span) = self.spans.get_mut(id.0) {
            span.end_ns = now;
        }
    }

    /// Records a span whose interval was measured by the caller (used
    /// for intervals found by polling, such as repair detection).
    pub fn record(
        &mut self,
        name: &'static str,
        parent: SpanId,
        op: u64,
        start_ns: u64,
        end_ns: u64,
    ) {
        if self.on {
            self.spans.push(Span {
                name,
                start_ns,
                end_ns,
                parent: parent.0,
                op,
            });
        }
    }

    /// Start of span `id`, for callers that place a child by offset.
    pub fn start_of(&self, id: SpanId) -> u64 {
        self.spans.get(id.0).map_or(0, |s| s.start_ns)
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Total self time per span name, in seconds, largest first.
    pub fn self_time_by_name(&self) -> Vec<(&'static str, f64, u64)> {
        let own = self_times(&self.spans);
        let mut by_name: Vec<(&'static str, f64, u64)> = Vec::new();
        for (span, ns) in self.spans.iter().zip(own) {
            match by_name.iter_mut().find(|(n, _, _)| *n == span.name) {
                Some(row) => {
                    row.1 += ns as f64 / 1e9;
                    row.2 += 1;
                }
                None => by_name.push((span.name, ns as f64 / 1e9, 1)),
            }
        }
        by_name.sort_by(|a, b| b.1.total_cmp(&a.1));
        by_name
    }

    /// The trace as one JSON document.
    pub fn to_json(&self, workload: &str) -> String {
        let own = self_times(&self.spans);
        let spans: Vec<json::Value> = self
            .spans
            .iter()
            .zip(own)
            .enumerate()
            .map(|(id, (s, self_ns))| {
                json::object(vec![
                    ("id", json::Value::Num(id as f64)),
                    ("name", json::Value::Str(s.name.to_owned())),
                    ("start_ns", json::Value::Num(s.start_ns as f64)),
                    ("end_ns", json::Value::Num(s.end_ns as f64)),
                    ("self_ns", json::Value::Num(self_ns as f64)),
                    (
                        "parent",
                        if s.parent == usize::MAX {
                            json::Value::Null
                        } else {
                            json::Value::Num(s.parent as f64)
                        },
                    ),
                    ("op", json::Value::Num(s.op as f64)),
                ])
            })
            .collect();
        json::object(vec![
            ("workload", json::Value::Str(workload.to_owned())),
            ("spans", json::Value::Arr(spans)),
        ])
        .to_string()
    }
}

/// Self time of every span: its duration minus the part of its interval
/// that its direct children cover. Children are clipped to the parent
/// and overlapping children (parallel work) are counted once.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(list) = children.get_mut(s.parent) {
            list.push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut cursor = s.start_ns;
            for &(start, end) in kids.iter() {
                let start = start.clamp(cursor, s.end_ns);
                let end = end.clamp(start, s.end_ns);
                covered += end - start;
                cursor = cursor.max(end);
            }
            (s.end_ns - s.start_ns).saturating_sub(covered)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(start_ns: u64, end_ns: u64, parent: usize) -> Span {
        Span {
            name: "s",
            start_ns,
            end_ns,
            parent,
            op: 0,
        }
    }

    #[test]
    fn self_time_is_duration_minus_child_cover() {
        let spans = vec![
            span(0, 100, usize::MAX), // root
            span(10, 30, 0),          // child
            span(40, 90, 0),          // child
            span(50, 60, 2),          // grandchild
        ];
        assert_eq!(self_times(&spans), vec![30, 20, 40, 10]);
    }

    #[test]
    fn overlapping_and_overhanging_children_count_once() {
        let spans = vec![
            span(100, 200, usize::MAX),
            span(110, 150, 0),
            span(140, 180, 0), // overlaps the previous child by 10
            span(190, 250, 0), // overhangs the parent's end by 50
            span(50, 100, 0),  // ends where the parent starts
        ];
        // covered: [110,150) + [150,180) + [190,200) = 80
        assert_eq!(self_times(&spans)[0], 20);
    }

    #[test]
    fn a_disabled_tracer_stores_nothing() {
        let mut t = Tracer::new(false);
        let id = t.begin("op", NO_PARENT, 1);
        t.end(id);
        t.record("x", id, 1, 0, 5);
        assert!(t.spans().is_empty());
    }

    #[test]
    fn spans_share_an_op_id_and_point_at_their_parent() {
        let mut t = Tracer::new(true);
        let root = t.begin("put", NO_PARENT, 7);
        let child = t.begin("encode", root, 7);
        t.end(child);
        t.end(root);
        assert_eq!(t.spans()[1].parent, 0);
        assert_eq!(t.spans()[0].parent, usize::MAX);
        assert!(t.spans().iter().all(|s| s.op == 7));
        let doc = json::parse(&t.to_json("w")).expect("trace is valid JSON");
        assert_eq!(
            doc.get("spans")
                .and_then(json::Value::as_array)
                .map(<[_]>::len),
            Some(2)
        );
    }
}

//! In-memory spans recorded around the calls into each layer.
//!
//! A span is `(name, start, end, parent, id)`: `parent` is the index of
//! the span that caused it, `id` groups the spans of one round (or one
//! virtual second). Spans are kept in memory and written out once, when
//! the workload ends.

use crate::json::{obj, s, to_pretty};
use serde::Value;
use std::collections::BTreeMap;
use std::path::Path;
use std::time::Instant;

/// One recorded span. Times are ns since the tracer was created.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub id: u64,
}

/// Span recorder for one traced repetition.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }
}

impl Tracer {
    /// Nanoseconds since the tracer was created.
    pub fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Record a finished span; returns its index (usable as a parent).
    pub fn record(
        &mut self,
        name: &'static str,
        start_ns: u64,
        end_ns: u64,
        parent: Option<usize>,
        id: u64,
    ) -> usize {
        self.spans.push(Span {
            name,
            start_ns,
            end_ns,
            parent,
            id,
        });
        self.spans.len() - 1
    }

    /// Open a span whose end is filled in by [`Tracer::close`].
    pub fn open(&mut self, name: &'static str, parent: Option<usize>, id: u64) -> usize {
        let t = self.now();
        self.record(name, t, t, parent, id)
    }

    /// Close a span opened with [`Tracer::open`].
    pub fn close(&mut self, span: usize) {
        self.spans[span].end_ns = self.now();
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time per span name: each span's duration minus the part of
    /// its interval that its direct children cover.
    pub fn self_time_ns(&self) -> BTreeMap<&'static str, u64> {
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        for sp in &self.spans {
            if let Some(p) = sp.parent {
                children[p].push((sp.start_ns, sp.end_ns));
            }
        }
        let mut out = BTreeMap::new();
        for (sp, kids) in self.spans.iter().zip(&mut children) {
            let own =
                (sp.end_ns - sp.start_ns).saturating_sub(covered(kids, sp.start_ns, sp.end_ns));
            *out.entry(sp.name).or_insert(0) += own;
        }
        out
    }

    /// Total duration per span name.
    pub fn busy_ns(&self, name: &str) -> u64 {
        self.spans
            .iter()
            .filter(|sp| sp.name == name)
            .map(|sp| sp.end_ns - sp.start_ns)
            .sum()
    }

    /// Durations of every span called `name`, in recording order.
    pub fn durations_ns(&self, name: &str) -> Vec<u64> {
        self.spans
            .iter()
            .filter(|sp| sp.name == name)
            .map(|sp| sp.end_ns - sp.start_ns)
            .collect()
    }

    /// Write every span as JSON.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        let spans = self
            .spans
            .iter()
            .map(|sp| {
                obj([
                    ("name", s(sp.name)),
                    ("start_ns", Value::U64(sp.start_ns)),
                    ("end_ns", Value::U64(sp.end_ns)),
                    (
                        "parent",
                        sp.parent.map_or(Value::Null, |p| Value::U64(p as u64)),
                    ),
                    ("id", Value::U64(sp.id)),
                ])
            })
            .collect();
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, to_pretty(&obj([("spans", Value::Array(spans))])))
    }
}

/// Length of the union of `intervals`, clipped to `[lo, hi]`.
fn covered(intervals: &mut [(u64, u64)], lo: u64, hi: u64) -> u64 {
    intervals.sort_unstable();
    let (mut total, mut edge) = (0, lo);
    for &(a, b) in intervals.iter() {
        let (a, b) = (a.max(edge), b.min(hi));
        if b > a {
            total += b - a;
            edge = b;
        }
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_is_duration_minus_child_cover() {
        let mut t = Tracer::default();
        let round = t.record("round", 0, 100, None, 1);
        t.record("ingest", 10, 30, Some(round), 1);
        // Overlapping children are covered once, and a child running past
        // its parent only covers the part inside it.
        t.record("serve", 20, 50, Some(round), 1);
        t.record("serve", 90, 120, Some(round), 1);
        let own = t.self_time_ns();
        assert_eq!(own["round"], 100 - (40 + 10));
        assert_eq!(own["ingest"], 20);
        assert_eq!(own["serve"], 30 + 30);
        assert_eq!(t.busy_ns("serve"), 60);
        assert_eq!(t.durations_ns("ingest"), vec![20]);
    }

    #[test]
    fn spans_are_written_out_as_json() {
        let mut t = Tracer::default();
        let r = t.open("round", None, 7);
        t.close(r);
        let path = std::env::temp_dir().join(format!("intbench_trace_{}.json", std::process::id()));
        t.write(&path).unwrap();
        let v = crate::json::parse(&std::fs::read_to_string(&path).unwrap()).unwrap();
        let _ = std::fs::remove_file(&path);
        let Some(Value::Array(spans)) = v.get("spans") else {
            panic!("no spans: {v:?}")
        };
        assert_eq!(spans.len(), 1);
        assert_eq!(spans[0].get("id"), Some(&Value::U64(7)));
        assert_eq!(spans[0].get("parent"), Some(&Value::Null));
    }
}

//! In-memory spans around the benchmark's calls into each layer.
//!
//! A span records `{op_id, parent, name, start_ns, end_ns}`; spans of one
//! probe iteration share an `op_id`. A span's self time is its duration
//! minus the part of its interval covered by its child spans. Per-layer
//! metrics are the median over iterations of the summed self time of every
//! span carrying the metric's name. Counts (bytes, ratios) are recorded at
//! the same boundaries. Nothing is written until the run ends.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

use crate::json::quote;
use crate::stats::median;

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub id: usize,
    pub parent: Option<usize>,
    pub op_id: usize,
    pub name: String,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Calls the span times back to back; the metric is per call.
    pub reps: u32,
}

pub struct Tracer {
    epoch: Instant,
    op_id: usize,
    spans: Vec<Span>,
    open: Vec<usize>,
    counts: BTreeMap<String, Vec<f64>>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            epoch: Instant::now(),
            op_id: 0,
            spans: Vec::new(),
            open: Vec::new(),
            counts: BTreeMap::new(),
        }
    }
}

impl Tracer {
    /// Start the next probe iteration; later spans carry its id.
    pub fn next_op(&mut self) {
        self.op_id += 1;
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Open a span; spans opened before it closes become its children.
    pub fn enter(&mut self, name: &str) {
        let span = Span {
            id: self.spans.len(),
            parent: self.open.last().copied(),
            op_id: self.op_id,
            name: name.to_string(),
            start_ns: self.now_ns(),
            end_ns: 0,
            reps: 1,
        };
        self.open.push(span.id);
        self.spans.push(span);
    }

    /// Close the innermost open span.
    pub fn exit(&mut self) {
        let id = self.open.pop().expect("exit matches an enter");
        self.spans[id].end_ns = self.now_ns();
    }

    /// Time `f` as one span.
    pub fn span<T>(&mut self, name: &str, f: impl FnOnce() -> T) -> T {
        self.reps(name, 1, f)
    }

    /// [`Tracer::span`], also returning the span's duration in seconds.
    pub fn timed<T>(&mut self, name: &str, f: impl FnOnce() -> T) -> (T, f64) {
        let id = self.spans.len();
        let out = self.span(name, f);
        let s = &self.spans[id];
        (out, (s.end_ns - s.start_ns) as f64 / 1e9)
    }

    /// Time `f`, which makes `reps` identical calls, as one span whose
    /// metric is the time per call (for calls too short to time alone).
    pub fn reps<T>(&mut self, name: &str, reps: u32, f: impl FnOnce() -> T) -> T {
        let id = self.spans.len();
        self.enter(name);
        let out = f();
        self.exit();
        self.spans[id].reps = reps.max(1);
        out
    }

    /// Record a count measured in this iteration.
    pub fn count(&mut self, name: &str, value: f64) {
        self.counts.entry(name.to_string()).or_default().push(value);
    }

    /// Per-layer metrics: for each span name, the median over iterations of
    /// its summed per-call self time in ms; for each count, its median.
    pub fn metrics(&self) -> BTreeMap<String, f64> {
        let mut per_op: BTreeMap<(&str, usize), f64> = BTreeMap::new();
        for span in &self.spans {
            let ms = self_time_ns(span, &self.spans) as f64 / 1e6 / f64::from(span.reps);
            *per_op.entry((span.name.as_str(), span.op_id)).or_default() += ms;
        }
        let mut by_name: BTreeMap<String, Vec<f64>> = BTreeMap::new();
        for ((name, _), ms) in per_op {
            by_name.entry(name.to_string()).or_default().push(ms);
        }
        by_name
            .into_iter()
            .chain(self.counts.clone())
            .map(|(name, values)| (name, median(&values)))
            .collect()
    }

    /// The trace as a JSON document.
    pub fn to_json(&self, workload: &str, seed: u64) -> String {
        let mut out = format!(
            "{{\"workload\": {}, \"seed\": {seed}, \"spans\": [",
            quote(workload)
        );
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = write!(
                out,
                "{}\n  {{\"id\": {}, \"parent\": {parent}, \"op_id\": {}, \"workload\": {}, \
                 \"name\": {}, \"start_ns\": {}, \"end_ns\": {}, \"reps\": {}, \"self_ns\": {}}}",
                if i == 0 { "" } else { "," },
                s.id,
                s.op_id,
                quote(workload),
                quote(&s.name),
                s.start_ns,
                s.end_ns,
                s.reps,
                self_time_ns(s, &self.spans),
            );
        }
        out.push_str("\n], \"counts\": {");
        for (i, (name, values)) in self.counts.iter().enumerate() {
            let list: Vec<String> = values.iter().map(f64::to_string).collect();
            let _ = write!(
                out,
                "{}{}: [{}]",
                if i == 0 { "" } else { ", " },
                quote(name),
                list.join(", ")
            );
        }
        out.push_str("}}\n");
        out
    }
}

/// `span`'s duration minus the union of its children's intervals (clipped
/// to the span), so overlapping or escaping children are not double
/// counted.
pub fn self_time_ns(span: &Span, all: &[Span]) -> u64 {
    let mut children: Vec<(u64, u64)> = all
        .iter()
        .filter(|c| c.parent == Some(span.id))
        .map(|c| (c.start_ns.max(span.start_ns), c.end_ns.min(span.end_ns)))
        .filter(|(s, e)| e > s)
        .collect();
    children.sort_unstable();
    let mut covered = 0u64;
    let mut reach = span.start_ns;
    for (s, e) in children {
        let s = s.max(reach);
        if e > s {
            covered += e - s;
            reach = e;
        }
    }
    span.end_ns.saturating_sub(span.start_ns) - covered
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: usize, parent: Option<usize>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            op_id: 1,
            name: format!("s{id}"),
            start_ns,
            end_ns,
            reps: 1,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = vec![
            span(0, None, 0, 100),
            span(1, Some(0), 10, 30),
            // Overlaps its sibling: 20..40 adds only 30..40.
            span(2, Some(0), 20, 40),
            span(3, Some(0), 60, 70),
            // A grandchild is already inside its parent's interval.
            span(4, Some(3), 62, 65),
            // Escapes the parent: only 90..100 counts.
            span(5, Some(0), 90, 130),
        ];
        assert_eq!(self_time_ns(&spans[0], &spans), 100 - (30 + 10 + 10));
        assert_eq!(self_time_ns(&spans[3], &spans), 10 - 3);
        assert_eq!(
            self_time_ns(&spans[1], &spans),
            20,
            "a leaf keeps its duration"
        );
    }

    #[test]
    fn metrics_are_medians_of_per_iteration_sums() {
        let mut tr = Tracer::default();
        for op in 0..3u64 {
            tr.next_op();
            tr.enter("group");
            // Two same-named spans per iteration are summed.
            tr.span("leaf", || {
                std::thread::sleep(std::time::Duration::from_millis(1))
            });
            tr.span("leaf", || ());
            tr.reps("tiny", 4, || ());
            tr.exit();
            tr.count("bytes", 10.0 * op as f64);
        }
        let m = tr.metrics();
        assert!(m["leaf"] >= 1.0, "one sleep of 1 ms per iteration");
        assert!(
            m["group"] < m["leaf"],
            "the group's self time excludes its children"
        );
        assert_eq!(m["bytes"], 10.0);
        assert!(m.contains_key("tiny"));
        let doc = crate::json::Json::parse(&tr.to_json("w", 7)).expect("trace is JSON");
        let spans = doc
            .get("spans")
            .and_then(crate::json::Json::as_array)
            .expect("spans");
        assert_eq!(spans.len(), 12);
        assert_eq!(
            spans[1].get("parent").and_then(crate::json::Json::as_f64),
            Some(0.0)
        );
    }
}

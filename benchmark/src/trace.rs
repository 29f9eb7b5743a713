//! The traced pass's recorder: spans kept in memory (name, start, end,
//! parent) and written out once at exit, plus the per-layer counts and
//! times each repetition produced.

use crate::json::Json;
use std::collections::BTreeMap;
use std::time::Instant;

#[derive(Debug, Clone)]
struct Span {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: Option<usize>,
    /// Which traced repetition the span belongs to — the identifier
    /// spans of one request share.
    rep: u32,
}

/// Handle of an open span.
#[derive(Debug, Clone, Copy)]
pub struct SpanId(usize);

#[derive(Debug)]
pub struct Trace {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    rep: u32,
    /// Exact counts of the current repetition (must repeat).
    counts: BTreeMap<&'static str, u64>,
    /// Measured values of the current repetition (medianed over reps).
    values: BTreeMap<&'static str, f64>,
    /// Seconds of the current repetition that correspond to the
    /// untraced call, when that is not the whole repetition.
    comparable_s: Option<f64>,
}

impl Default for Trace {
    fn default() -> Self {
        Trace {
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            rep: 0,
            counts: BTreeMap::new(),
            values: BTreeMap::new(),
            comparable_s: None,
        }
    }
}

impl Trace {
    fn ns(&self, t: Instant) -> u64 {
        u64::try_from(t.duration_since(self.epoch).as_nanos()).unwrap_or(u64::MAX)
    }

    /// Opens a span under the innermost open one.
    pub fn open(&mut self, name: &'static str) -> SpanId {
        let now = self.ns(Instant::now());
        self.spans.push(Span {
            name,
            start_ns: now,
            end_ns: now,
            parent: self.open.last().copied(),
            rep: self.rep,
        });
        self.open.push(self.spans.len() - 1);
        SpanId(self.spans.len() - 1)
    }

    /// Closes `id` (and anything left open beneath it); returns its
    /// duration in seconds.
    pub fn close(&mut self, id: SpanId) -> f64 {
        let now = self.ns(Instant::now());
        while let Some(top) = self.open.pop() {
            self.spans[top].end_ns = now;
            if top == id.0 {
                break;
            }
        }
        (now - self.spans[id.0].start_ns) as f64 * 1e-9
    }

    /// Runs `f` inside a span; returns its result and the span's
    /// duration in seconds.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Trace) -> R) -> (R, f64) {
        let id = self.open(name);
        let r = f(self);
        (r, self.close(id))
    }

    /// [`Trace::span`] that also adds the duration to the metric
    /// `metric`.
    pub fn timed<R>(
        &mut self,
        name: &'static str,
        metric: &'static str,
        f: impl FnOnce(&mut Trace) -> R,
    ) -> (R, f64) {
        let (r, secs) = self.span(name, f);
        self.value(metric, secs);
        (r, secs)
    }

    /// Records an already-finished interval (e.g. a simulator round the
    /// sink clocked) as a child of the innermost open span.
    pub fn closed_span(&mut self, name: &'static str, start: Instant, end: Instant) {
        self.spans.push(Span {
            name,
            start_ns: self.ns(start),
            end_ns: self.ns(end),
            parent: self.open.last().copied(),
            rep: self.rep,
        });
    }

    /// Share of `id`'s duration its direct children cover.
    pub fn coverage(&self, id: SpanId) -> f64 {
        let root = &self.spans[id.0];
        let covered: u64 = self
            .spans
            .iter()
            .filter(|s| s.parent == Some(id.0))
            .map(|s| s.end_ns - s.start_ns)
            .sum();
        covered as f64 / (root.end_ns - root.start_ns).max(1) as f64
    }

    pub fn count(&mut self, name: &'static str, n: u64) {
        *self.counts.entry(name).or_default() += n;
    }

    pub fn value(&mut self, name: &'static str, x: f64) {
        *self.values.entry(name).or_default() += x;
    }

    /// Marks `secs` of this repetition as the part the untraced call
    /// corresponds to (a traced repetition that runs the work several
    /// ways is otherwise not comparable to one untraced call).
    pub fn comparable(&mut self, secs: f64) {
        self.comparable_s = Some(secs);
    }

    /// Ends the current repetition: hands back its counts, values and
    /// comparable seconds, and starts the next one.
    #[allow(clippy::type_complexity)]
    pub fn finish_rep(
        &mut self,
    ) -> (
        BTreeMap<&'static str, u64>,
        BTreeMap<&'static str, f64>,
        Option<f64>,
    ) {
        self.rep += 1;
        (
            std::mem::take(&mut self.counts),
            std::mem::take(&mut self.values),
            self.comparable_s.take(),
        )
    }

    /// The span file: a names table and one
    /// `[name, start_us, end_us, parent, rep]` row per span (`parent` is
    /// a row index, -1 for a root).
    pub fn to_json(&self, workload: &str, seed: u64) -> Json {
        let mut names: Vec<&'static str> = self.spans.iter().map(|s| s.name).collect();
        names.sort_unstable();
        names.dedup();
        let rows = self
            .spans
            .iter()
            .map(|s| {
                Json::Arr(vec![
                    Json::Num(names.binary_search(&s.name).unwrap_or(0) as f64),
                    Json::Num((s.start_ns / 1_000) as f64),
                    Json::Num((s.end_ns / 1_000) as f64),
                    Json::Num(s.parent.map_or(-1.0, |p| p as f64)),
                    Json::Num(f64::from(s.rep)),
                ])
            })
            .collect();
        Json::obj([
            ("schema", Json::str("rbcast-benchmark-trace/v1")),
            ("workload", Json::str(workload)),
            ("seed", Json::Num(seed as f64)),
            (
                "columns",
                Json::Arr(
                    ["name", "start_us", "end_us", "parent", "rep"]
                        .map(Json::str)
                        .to_vec(),
                ),
            ),
            (
                "names",
                Json::Arr(names.iter().map(|n| Json::str(*n)).collect()),
            ),
            ("spans", Json::Arr(rows)),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_cover() {
        let mut t = Trace::default();
        let root = t.open("rep");
        t.span("a", |t| {
            t.span("a.inner", |_| ());
        });
        let now = Instant::now();
        t.closed_span("b", now, now);
        t.close(root);
        let doc = t.to_json("w", 1);
        let spans = doc.get("spans").and_then(Json::as_arr).expect("spans");
        assert_eq!(spans.len(), 4);
        // a.inner's parent is a (row 1), a's and b's parent is rep (row 0).
        let parent = |row: usize| spans[row].as_arr().expect("row")[3].as_f64();
        assert_eq!(parent(0), Some(-1.0));
        assert_eq!(parent(1), Some(0.0));
        assert_eq!(parent(2), Some(1.0));
        assert_eq!(parent(3), Some(0.0));
        assert!(t.coverage(root) <= 1.0);
    }
}

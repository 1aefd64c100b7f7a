//! In-memory span recorder for the traced replay.
//!
//! The harness records one span around each call into a layer's public
//! function: name, start, end, and the span that caused it. Spans stay
//! in memory until the replay ends; `trace_<workload>.json` is written
//! afterwards. Nothing inside `crates/` or `src/` is instrumented.

use std::time::Instant;

/// One recorded interval, nanoseconds since the recorder's epoch.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Handle threads use to time spans against the recorder's epoch
/// without touching the recorder itself.
#[derive(Debug, Clone, Copy)]
pub struct Clock(Instant);

impl Clock {
    pub fn now_ns(&self) -> u64 {
        self.0.elapsed().as_nanos() as u64
    }
}

#[derive(Debug)]
pub struct Recorder {
    clock: Clock,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Recorder {
    pub fn new() -> Recorder {
        Recorder { clock: Clock(Instant::now()), spans: Vec::new(), open: Vec::new() }
    }

    pub fn clock(&self) -> Clock {
        self.clock
    }

    /// Id of the innermost open span.
    pub fn current(&self) -> Option<usize> {
        self.open.last().copied()
    }

    /// Run `f` inside a span named `name`, child of the innermost open
    /// span.
    pub fn scope<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Recorder) -> T) -> T {
        let id = self.spans.len();
        let start_ns = self.clock.now_ns();
        self.spans.push(Span { name, start_ns, end_ns: start_ns, parent: self.current() });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        self.spans[id].end_ns = self.clock.now_ns();
        out
    }

    /// Add a span timed elsewhere (a worker thread, or a tight loop that
    /// reads the clock itself) under `parent`.
    pub fn add(&mut self, name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) {
        self.spans.push(Span { name, start_ns, end_ns, parent });
    }

    /// Add spans collected on another thread against [`Recorder::clock`]:
    /// their parent indices are local to `spans`, and the roots among
    /// them become children of `parent`.
    pub fn adopt(&mut self, spans: Vec<Span>, parent: Option<usize>) {
        let base = self.spans.len();
        self.spans.extend(
            spans.into_iter().map(|s| Span { parent: s.parent.map_or(parent, |p| Some(base + p)), ..s }),
        );
    }

    pub fn into_spans(self) -> Vec<Span> {
        assert!(self.open.is_empty(), "span still open at the end of the replay");
        self.spans
    }
}

/// Self time of every span: its duration minus the part of its interval
/// that its child spans cover. Children running on parallel threads may
/// overlap each other, so coverage is the union of their intervals
/// clipped to the parent.
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let (lo, hi) = (s.start_ns.max(spans[p].start_ns), s.end_ns.min(spans[p].end_ns));
            if lo < hi {
                children[p].push((lo, hi));
            }
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut reach = s.start_ns;
            for &(lo, hi) in kids.iter() {
                if hi > reach {
                    covered += hi - lo.max(reach);
                    reach = hi;
                }
            }
            s.duration_ns() - covered
        })
        .collect()
}

/// Sum of durations of the spans named `name`, in seconds.
pub fn total_s(spans: &[Span], name: &str) -> f64 {
    spans.iter().filter(|s| s.name == name).map(|s| s.duration_ns()).sum::<u64>() as f64 * 1e-9
}

/// Sum of self times of the spans named `name`, in seconds.
pub fn self_total_s(spans: &[Span], self_ns: &[u64], name: &str) -> f64 {
    spans.iter().zip(self_ns).filter(|(s, _)| s.name == name).map(|(_, &t)| t).sum::<u64>() as f64 * 1e-9
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span { name, start_ns, end_ns, parent }
    }

    #[test]
    fn self_time_subtracts_nested_and_sibling_children() {
        let spans = vec![
            span("root", 0, 100, None),
            span("a", 10, 30, Some(0)),
            span("b", 40, 70, Some(0)),
            span("a.inner", 12, 20, Some(1)),
        ];
        assert_eq!(self_times_ns(&spans), vec![50, 12, 30, 8]);
    }

    #[test]
    fn overlapping_children_count_once_and_are_clipped_to_the_parent() {
        let spans = vec![
            span("root", 100, 200, None),
            // Two threads under one parent, overlapping in [130, 150).
            span("t0", 110, 150, Some(0)),
            span("t1", 130, 180, Some(0)),
            // Starts before the parent: only [100, 105) counts.
            span("early", 90, 105, Some(0)),
        ];
        assert_eq!(self_times_ns(&spans)[0], 100 - 70 - 5);
    }

    #[test]
    fn recorder_nests_scopes_and_totals_by_name() {
        let mut rec = Recorder::new();
        rec.scope("outer", |rec| {
            rec.scope("inner", |_| ());
            rec.scope("inner", |_| ());
        });
        let clock = rec.clock();
        let t = clock.now_ns();
        rec.add("extern", t, t + 5, Some(0));
        rec.adopt(
            vec![span("thread.root", t, t + 9, None), span("thread.leaf", t + 1, t + 2, Some(0))],
            Some(0),
        );
        let spans = rec.into_spans();
        assert_eq!(spans.len(), 6);
        assert_eq!((spans[4].parent, spans[5].parent), (Some(0), Some(4)));
        assert_eq!(spans[0].parent, None);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, Some(0));
        assert!(spans[0].start_ns <= spans[1].start_ns && spans[2].end_ns <= spans[0].end_ns);
        let self_ns = self_times_ns(&spans);
        let inner = total_s(&spans, "inner");
        assert!((self_total_s(&spans, &self_ns, "inner") - inner).abs() < 1e-12);
        assert_eq!(total_s(&spans, "extern"), 5e-9);
    }
}

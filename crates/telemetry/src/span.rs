//! Hierarchical span timers and the [`RunContext`] that records them.
//!
//! A [`Span`] measures one named phase: wall-clock time plus the
//! *calling thread's* CPU time (utime + stime). Spans nest — a stage
//! that opens sub-phases produces children under its own node. Work
//! fanned out to other threads (worker ranks, per-cluster assembly
//! threads) is not visible in a span's `cpu_seconds`; that is what the
//! per-rank channels in [`crate::RankReport`] are for.

use crate::cpu::thread_cpu_seconds;
use crate::json::{Json, JsonError};
use std::collections::BTreeMap;
use std::time::Instant;

/// One completed, named timing interval with nested children.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Phase name, e.g. `"cluster"` or `"gst_build"`.
    pub name: String,
    /// Elapsed wall-clock seconds.
    pub wall_seconds: f64,
    /// CPU seconds consumed by the thread that ran the span.
    pub cpu_seconds: f64,
    /// Sub-phases, in execution order.
    pub children: Vec<Span>,
}

impl Span {
    /// Depth-first lookup by `/`-separated path, e.g.
    /// `"pipeline/cluster"` finds the child `cluster` of this span if
    /// this span is named `pipeline`.
    pub fn find(&self, path: &str) -> Option<&Span> {
        let (head, rest) = match path.split_once('/') {
            Some((h, r)) => (h, Some(r)),
            None => (path, None),
        };
        if self.name != head {
            return None;
        }
        match rest {
            None => Some(self),
            Some(rest) => self.children.iter().find_map(|c| c.find(rest)),
        }
    }

    /// Sum of the direct children's wall-clock seconds.
    pub fn child_wall_seconds(&self) -> f64 {
        self.children.iter().map(|c| c.wall_seconds).sum()
    }

    /// JSON encoding.
    pub fn to_json(&self) -> Json {
        Json::obj(vec![
            ("name", Json::Str(self.name.clone())),
            ("wall_seconds", Json::Num(self.wall_seconds)),
            ("cpu_seconds", Json::Num(self.cpu_seconds)),
            ("children", Json::Arr(self.children.iter().map(Span::to_json).collect())),
        ])
    }

    /// Decode from JSON produced by [`Span::to_json`].
    pub fn from_json(v: &Json) -> Result<Span, JsonError> {
        let field = |key: &str| v.get(key).ok_or(JsonError { msg: format!("span missing '{key}'"), at: 0 });
        Ok(Span {
            name: field("name")?.as_str().unwrap_or_default().to_string(),
            wall_seconds: field("wall_seconds")?.as_f64().unwrap_or(0.0),
            cpu_seconds: field("cpu_seconds")?.as_f64().unwrap_or(0.0),
            children: field("children")?
                .as_arr()
                .unwrap_or_default()
                .iter()
                .map(Span::from_json)
                .collect::<Result<_, _>>()?,
        })
    }
}

struct Frame {
    name: String,
    wall_start: Instant,
    cpu_start: f64,
    children: Vec<Span>,
}

/// Mutable recording surface threaded through a run: an open-span
/// stack, named counters, and per-rank channels. Finalize with
/// [`RunContext::finish`] to obtain the immutable [`crate::RunReport`].
pub struct RunContext {
    label: String,
    stack: Vec<Frame>,
    roots: Vec<Span>,
    counters: BTreeMap<String, u64>,
    ranks: Vec<crate::RankReport>,
    traces: Vec<crate::RankTrace>,
    series: Vec<crate::RankSeries>,
}

impl RunContext {
    /// Fresh context for a run labelled `label` (e.g. the command or
    /// experiment id).
    pub fn new(label: &str) -> Self {
        RunContext {
            label: label.to_string(),
            stack: Vec::new(),
            roots: Vec::new(),
            counters: BTreeMap::new(),
            ranks: Vec::new(),
            traces: Vec::new(),
            series: Vec::new(),
        }
    }

    /// Time `f` under a span named `name`, nested below whatever span
    /// is currently open. The closure's return value passes through.
    pub fn scope<T>(&mut self, name: &str, f: impl FnOnce(&mut RunContext) -> T) -> T {
        self.push(name);
        let out = f(self);
        self.pop();
        out
    }

    /// Open a span manually (for phases that cannot be expressed as a
    /// closure). Must be balanced by [`RunContext::pop`].
    pub fn push(&mut self, name: &str) {
        self.stack.push(Frame {
            name: name.to_string(),
            wall_start: Instant::now(),
            cpu_start: thread_cpu_seconds(),
            children: Vec::new(),
        });
    }

    /// Close the innermost open span, returning its (wall, cpu)
    /// seconds. Panics if no span is open.
    pub fn pop(&mut self) -> (f64, f64) {
        let frame = self.stack.pop().expect("RunContext::pop with no open span");
        let wall = frame.wall_start.elapsed().as_secs_f64();
        let cpu = (thread_cpu_seconds() - frame.cpu_start).max(0.0);
        let span = Span { name: frame.name, wall_seconds: wall, cpu_seconds: cpu, children: frame.children };
        match self.stack.last_mut() {
            Some(parent) => parent.children.push(span),
            None => self.roots.push(span),
        }
        (wall, cpu)
    }

    /// Record a completed span measured externally (e.g. a phase whose
    /// duration was computed from rank-local clocks).
    pub fn record_span(&mut self, span: Span) {
        match self.stack.last_mut() {
            Some(parent) => parent.children.push(span),
            None => self.roots.push(span),
        }
    }

    /// Add `v` to counter `name` (creating it at zero).
    pub fn add(&mut self, name: &str, v: u64) {
        *self.counters.entry(name.to_string()).or_insert(0) += v;
    }

    /// Overwrite counter `name`.
    pub fn set(&mut self, name: &str, v: u64) {
        self.counters.insert(name.to_string(), v);
    }

    /// Current value of counter `name` (zero if never touched).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Install the per-rank channel reports for this run (replacing any
    /// previous set — a run has one parallel section's rank layout).
    pub fn set_ranks(&mut self, ranks: Vec<crate::RankReport>) {
        self.ranks = ranks;
    }

    /// Merge a second parallel section's rank channels into the ones
    /// already installed, matching entries by rank id: CPU and idle
    /// seconds add up, counters sum on name collision, and per-tag comm
    /// rows append (phases label their tags distinctly, so rows stay
    /// attributable). A rank id with no existing entry is appended —
    /// the run keeps one channel per rank regardless of how many
    /// phases used that rank.
    pub fn merge_ranks(&mut self, more: Vec<crate::RankReport>) {
        for extra in more {
            match self.ranks.iter_mut().find(|r| r.rank == extra.rank) {
                Some(rank) => {
                    rank.cpu_seconds += extra.cpu_seconds;
                    rank.idle_seconds += extra.idle_seconds;
                    for (name, v) in extra.counters {
                        *rank.counters.entry(name).or_insert(0) += v;
                    }
                    rank.comm.extend(extra.comm);
                }
                None => self.ranks.push(extra),
            }
        }
    }

    /// Install the finished per-rank event traces for this run
    /// (replacing any previous set).
    pub fn set_traces(&mut self, traces: Vec<crate::RankTrace>) {
        self.traces = traces;
    }

    /// Append one finished track (e.g. the pipeline's own thread).
    pub fn add_trace(&mut self, trace: crate::RankTrace) {
        self.traces.push(trace);
    }

    /// Traces recorded so far.
    pub fn traces(&self) -> &[crate::RankTrace] {
        &self.traces
    }

    /// Append finished per-rank gauge series (series from different
    /// phases live on different rank/track ids, so appends never
    /// collide). Empty series are skipped.
    pub fn add_series(&mut self, series: impl IntoIterator<Item = crate::RankSeries>) {
        self.series.extend(series.into_iter().filter(|s| !s.is_empty()));
    }

    /// Gauge series recorded so far.
    pub fn series(&self) -> &[crate::RankSeries] {
        &self.series
    }

    /// Total gauge samples dropped on buffer overflow, across ranks.
    pub fn series_dropped_samples(&self) -> u64 {
        self.series.iter().map(|s| s.dropped_samples()).sum()
    }

    /// Total sampler self-time across ranks, nanoseconds.
    pub fn series_overhead_ns(&self) -> u64 {
        self.series.iter().map(|s| s.overhead_ns).sum()
    }

    /// Assemble the recorded tracks into an exportable [`crate::Trace`]
    /// document (tracks sorted by rank, gauge series attached as
    /// counter tracks).
    pub fn trace_document(&self) -> crate::Trace {
        crate::Trace::with_series(self.traces.clone(), self.series.clone())
    }

    /// Number of open spans (0 when balanced).
    pub fn open_spans(&self) -> usize {
        self.stack.len()
    }

    /// Finalize into an immutable report. Panics if spans are still
    /// open — an unbalanced push/pop is a caller bug worth failing
    /// loudly on.
    ///
    /// When traces were recorded, each rank channel gains its
    /// [`crate::IdleGapHistogram`] (from the matching track's blocked
    /// spans) and the report gains a [`crate::TraceSummary`] with the
    /// master track's occupancy over ~20 time windows.
    pub fn finish(self) -> crate::RunReport {
        assert!(self.stack.is_empty(), "RunContext::finish with {} span(s) still open", self.stack.len());
        let mut ranks = self.ranks;
        let trace = if self.traces.is_empty() {
            None
        } else {
            for rank in &mut ranks {
                if let Some(track) = self.traces.iter().find(|t| t.rank == rank.rank) {
                    rank.idle_gaps = Some(crate::IdleGapHistogram::from_events(&track.events));
                }
            }
            let (window_seconds, master_occupancy) = self
                .traces
                .iter()
                .find(|t| t.label == "master")
                .map(|t| crate::trace::occupancy_windows(&t.events, 20))
                .unwrap_or((0.0, Vec::new()));
            let dropped_events = self.traces.iter().map(|t| t.dropped_events).sum();
            Some(crate::TraceSummary { window_seconds, master_occupancy, dropped_events })
        };
        let mut series = self.series;
        series.sort_by_key(|s| s.rank);
        // The v4 faults section is derived from the canonical fault
        // counters, so any run that tallied them reports the digest
        // without extra plumbing; a clean run omits the section.
        let c = |name: &str| self.counters.get(name).copied().unwrap_or(0);
        let faults = crate::FaultSummary {
            kills_injected: c(crate::names::FAULT_KILLS),
            dead_ranks: c(crate::names::DEAD_RANKS),
            recovered_tasks: c(crate::names::RECOVERED_TASKS),
            msgs_dropped: c(crate::names::FAULT_MSGS_DROPPED),
            msgs_delayed: c(crate::names::FAULT_MSGS_DELAYED),
            ckpt_bytes: c(crate::names::CKPT_BYTES),
        };
        crate::RunReport {
            schema_version: crate::SCHEMA_VERSION,
            label: self.label,
            spans: self.roots,
            counters: self.counters,
            ranks,
            trace,
            series,
            faults: if faults.is_empty() { None } else { Some(faults) },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nesting_matches_call_structure() {
        let mut ctx = RunContext::new("t");
        ctx.scope("outer", |ctx| {
            ctx.scope("a", |_| {});
            ctx.scope("b", |ctx| {
                ctx.scope("b1", |_| {});
            });
        });
        let report = ctx.finish();
        assert_eq!(report.spans.len(), 1);
        let outer = &report.spans[0];
        assert_eq!(outer.name, "outer");
        let names: Vec<&str> = outer.children.iter().map(|c| c.name.as_str()).collect();
        assert_eq!(names, vec!["a", "b"]);
        assert_eq!(outer.children[1].children[0].name, "b1");
        assert!(outer.find("outer/b/b1").is_some());
        assert!(outer.find("outer/b/zzz").is_none());
    }

    #[test]
    fn parent_wall_covers_children() {
        let mut ctx = RunContext::new("t");
        ctx.scope("outer", |ctx| {
            ctx.scope("child", |_| {
                std::thread::sleep(std::time::Duration::from_millis(5));
            });
        });
        let report = ctx.finish();
        let outer = &report.spans[0];
        assert!(outer.wall_seconds >= outer.children[0].wall_seconds);
        assert!(outer.children[0].wall_seconds >= 0.004);
    }

    #[test]
    fn counters_accumulate() {
        let mut ctx = RunContext::new("t");
        ctx.add("pairs", 3);
        ctx.add("pairs", 4);
        ctx.set("ranks", 8);
        assert_eq!(ctx.counter("pairs"), 7);
        assert_eq!(ctx.counter("ranks"), 8);
        assert_eq!(ctx.counter("missing"), 0);
    }

    #[test]
    #[should_panic(expected = "still open")]
    fn finish_rejects_unbalanced_stack() {
        let mut ctx = RunContext::new("t");
        ctx.push("dangling");
        let _ = ctx.finish();
    }

    #[test]
    fn span_json_round_trip() {
        let span = Span {
            name: "outer".into(),
            wall_seconds: 1.5,
            cpu_seconds: 0.25,
            children: vec![Span {
                name: "inner".into(),
                wall_seconds: 0.5,
                cpu_seconds: 0.125,
                children: vec![],
            }],
        };
        let back = Span::from_json(&span.to_json()).unwrap();
        assert_eq!(back, span);
    }
}

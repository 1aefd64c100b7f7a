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

    /// Merge one parallel section's rank channels into the run's,
    /// matching entries by rank id: CPU and idle seconds add up,
    /// counters sum on name collision, and per-tag comm rows append in
    /// stage order (stages label their tags distinctly, so rows stay
    /// attributable). A rank id with no entry yet is appended — the run
    /// keeps one channel per rank however many stages used that rank.
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

    /// Merge finished event tracks into the run's, by rank id: a rank
    /// has one track per run, so a later stage's events append to the
    /// track the rank already has (stages run one after the other under
    /// one epoch, so timestamps stay monotonic) and dropped counts add.
    pub fn merge_traces(&mut self, more: Vec<crate::RankTrace>) {
        for extra in more {
            match self.traces.iter_mut().find(|t| t.rank == extra.rank) {
                Some(track) => {
                    track.events.extend(extra.events);
                    track.dropped_events += extra.dropped_events;
                }
                None => self.traces.push(extra),
            }
        }
    }

    /// Assemble the recorded tracks into an exportable [`crate::Trace`]
    /// document (tracks sorted by rank).
    pub fn trace_document(&self) -> crate::Trace {
        crate::Trace::new(self.traces.clone())
    }

    /// Finalize into an immutable report. Panics if spans are still
    /// open — an unbalanced push/pop is a caller bug worth failing
    /// loudly on. A traced run's report carries the
    /// `trace_events_dropped` counter, so a lossy trace shows in the
    /// metrics too.
    pub fn finish(mut self) -> crate::RunReport {
        assert!(self.stack.is_empty(), "RunContext::finish with {} span(s) still open", self.stack.len());
        if !self.traces.is_empty() {
            let dropped = self.traces.iter().map(|t| t.dropped_events).sum();
            self.set(crate::names::TRACE_EVENTS_DROPPED, dropped);
        }
        // The faults section is derived from the canonical fault
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
            ranks: self.ranks,
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
    fn a_rank_keeps_one_track_across_stages() {
        use crate::trace::{TraceCategory, TraceEvent, TraceKind};
        let track = |rank, ts_ns, dropped_events| crate::RankTrace {
            rank,
            label: "worker".into(),
            events: vec![TraceEvent {
                ts_ns,
                kind: TraceKind::Instant,
                cat: TraceCategory::Worker,
                name: crate::names::EV_PARK,
                args: [("", 0); 3],
            }],
            dropped_events,
        };
        let mut ctx = RunContext::new("t");
        ctx.merge_traces(vec![track(2, 11, 0), track(1, 10, 1)]);
        ctx.merge_traces(vec![track(1, 20, 2)]);
        let doc = ctx.trace_document();
        let shape: Vec<(usize, Vec<u64>, u64)> = doc
            .tracks
            .iter()
            .map(|t| (t.rank, t.events.iter().map(|e| e.ts_ns).collect(), t.dropped_events))
            .collect();
        assert_eq!(shape, [(1, vec![10, 20], 3), (2, vec![11], 0)]);
        assert_eq!(ctx.finish().counter(crate::names::TRACE_EVENTS_DROPPED), 3);
        // An untraced run has nothing to have dropped.
        assert!(RunContext::new("t").finish().counters.is_empty());
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

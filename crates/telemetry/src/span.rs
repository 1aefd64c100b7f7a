//! The run's recorder, [`RunContext`], and the [`Span`] trees of its
//! report.
//!
//! A run records its phases as begin/end events on one track, the
//! pipeline's: a [`Tracer`] that is always on, in a small fixed ring, on
//! the clock of the run's [`TraceSpec`], each event carrying a CPU
//! reading: the calling thread's, plus what the helper threads of its
//! fanned-out work ([`crate::cpu::fan_out`]) have reported so far. The
//! report's spans are a fold of that track, so report and trace cannot
//! disagree. Ranks are not helpers: the per-rank channels in
//! [`crate::RankReport`] carry their CPU.

use crate::cpu::thread_cpu_seconds;
use crate::json::{Json, JsonError};
use crate::trace::{RankTrace, Trace, TraceCategory, TraceEvent, TraceKind, TraceSpec, Tracer};
use std::collections::BTreeMap;

/// Ring capacity of the run's track. A pipeline run records a few dozen
/// events; a run past the capacity loses span ends and fails `finish`.
const TRACK_CAPACITY: usize = 256;

/// The arg of a span event holding the thread-CPU reading.
const CPU_NS: &str = "cpu_ns";

fn secs(ns: u64) -> f64 {
    ns as f64 / 1e9
}

fn nanos(secs: f64) -> u64 {
    (secs * 1e9).round() as u64
}

/// One completed, named timing interval with nested children.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Phase name, e.g. `"cluster"` or `"gst_build"`.
    pub name: String,
    /// Elapsed wall-clock seconds.
    pub wall_seconds: f64,
    /// CPU seconds consumed by the thread that ran the span and by the
    /// helper threads it fanned work out to.
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

/// Fold a track's begin/end pairs into the span trees they bracket: a
/// span's wall is the distance between its two events, its CPU the
/// difference of their `cpu_ns` readings. Panics on a span left open.
fn fold(events: &[TraceEvent]) -> Vec<Span> {
    let (mut roots, mut open) = (Vec::new(), Vec::<(&TraceEvent, Vec<Span>)>::new());
    let cpu = |e: &TraceEvent| e.arg(CPU_NS).unwrap_or(0);
    for e in events {
        match e.kind {
            TraceKind::Begin => open.push((e, Vec::new())),
            TraceKind::End => {
                let (b, children) = open.pop().expect("a span closed that was never opened");
                let (wall, cpu) = (e.ts_ns - b.ts_ns, cpu(e).saturating_sub(cpu(b)));
                let span =
                    Span { name: b.name.into(), wall_seconds: secs(wall), cpu_seconds: secs(cpu), children };
                open.last_mut().map_or(&mut roots, |(_, siblings)| siblings).push(span);
            }
            TraceKind::Instant | TraceKind::Counter => {}
        }
    }
    assert!(open.is_empty(), "RunContext::finish with {} span(s) still open", open.len());
    roots
}

/// Mutable recording surface threaded through a run: the run's track,
/// named counters, per-rank channels and rank tracks. Finalize with
/// [`RunContext::finish`] to obtain the immutable [`crate::RunReport`].
pub struct RunContext {
    label: String,
    /// The run's one span recorder, exported only from a traced run.
    track: Tracer,
    /// The settings the run's ranks trace under, on the track's clock.
    spec: TraceSpec,
    /// Name of each open span, innermost last.
    open: Vec<&'static str>,
    /// CPU the helper threads of fanned-out work reported, added to
    /// every reading after it.
    helper_cpu_ns: u64,
    counters: BTreeMap<String, u64>,
    ranks: Vec<crate::RankReport>,
    traces: Vec<RankTrace>,
}

fn run_track(spec: &TraceSpec) -> Tracer {
    TraceSpec { enabled: true, capacity: TRACK_CAPACITY, epoch: spec.epoch }.tracer(0, "pipeline")
}

impl RunContext {
    /// Fresh context for a run labelled `label` (e.g. the command),
    /// recording on its own clock until [`RunContext::bind_track`].
    pub fn new(label: &str) -> Self {
        let spec = TraceSpec::off();
        RunContext {
            label: label.to_string(),
            track: run_track(&spec),
            spec,
            open: Vec::new(),
            helper_cpu_ns: 0,
            counters: BTreeMap::new(),
            ranks: Vec::new(),
            traces: Vec::new(),
        }
    }

    /// Record on `spec`'s clock, the one its rank tracks share, and
    /// export the track when `spec` is on. A context that has already
    /// recorded keeps its clock, and its ranks trace on that clock too.
    pub fn bind_track(&mut self, spec: &TraceSpec) {
        if self.track.events().is_empty() {
            self.track = run_track(spec);
            self.spec.epoch = spec.epoch;
        }
        self.spec = TraceSpec { epoch: self.spec.epoch, ..*spec };
    }

    /// What [`RunContext::bind_track`] bound (off until then).
    pub fn trace_spec(&self) -> TraceSpec {
        self.spec
    }

    /// Time `f` under a span named `name`, nested below whatever span
    /// is currently open. The closure's return value passes through.
    pub fn scope<T>(&mut self, name: &'static str, f: impl FnOnce(&mut RunContext) -> T) -> T {
        self.push(name);
        let out = f(self);
        self.pop();
        out
    }

    /// A span boundary on the track, with a CPU reading.
    fn mark(&mut self, ts_ns: u64, kind: TraceKind, name: &'static str, cpu_ns: u64) {
        self.track.push_at(ts_ns, kind, TraceCategory::Stage, name, &[(CPU_NS, cpu_ns)]);
    }

    /// The CPU reading of a span boundary: the calling thread's clock
    /// plus every helper's CPU reported so far.
    fn cpu_now_ns(&self) -> u64 {
        nanos(thread_cpu_seconds()) + self.helper_cpu_ns
    }

    /// Count `seconds` of CPU spent by helper threads (the second value of
    /// [`crate::cpu::fan_out`]) in every span open now.
    pub fn add_helper_cpu(&mut self, seconds: f64) {
        self.helper_cpu_ns += nanos(seconds);
    }

    /// Open a span manually (for phases that cannot be expressed as a
    /// closure). Must be balanced by [`RunContext::pop`].
    pub fn push(&mut self, name: &'static str) {
        let ts = self.track.now_ns();
        self.mark(ts, TraceKind::Begin, name, self.cpu_now_ns());
        self.open.push(name);
    }

    /// Close the innermost open span; its wall and CPU seconds are read
    /// from the finished report's span. Panics if no span is open.
    pub fn pop(&mut self) {
        let name = self.open.pop().expect("RunContext::pop with no open span");
        let ts = self.track.now_ns();
        self.mark(ts, TraceKind::End, name, self.cpu_now_ns());
    }

    /// Sample gauge `name` on the track (rate-limited like every gauge).
    pub fn gauge(&mut self, name: &'static str, value: u64) {
        self.track.counter(TraceCategory::Stage, name, value);
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

    /// Fold a stage run on other clocks (a distributed stage's ranks) into
    /// the run: its phases as completed `(name, wall, cpu)` spans in the
    /// open one, end to end up to now and never before the track's last
    /// event; its ranks' fault counters summed into the run's; its rank
    /// channels and, when traced, tracks merged by rank id — a rank is one
    /// channel and one track for the whole run: seconds, counters and
    /// drops add, comm rows (each stage on tags of its own) and events
    /// (stages run one after the other) append.
    pub fn merge_stage(
        &mut self,
        phases: &[(&'static str, f64, f64)],
        ranks: Vec<crate::RankReport>,
        traces: Vec<RankTrace>,
    ) {
        let now = self.track.now_ns();
        let floor = self.track.events().last().map_or(0, |e| e.ts_ns);
        let mut at = now.saturating_sub(phases.iter().map(|p| nanos(p.1)).sum()).max(floor);
        for &(name, wall, cpu) in phases {
            let end = (at + nanos(wall)).min(now);
            self.mark(at, TraceKind::Begin, name, 0);
            self.mark(end, TraceKind::End, name, nanos(cpu));
            at = end;
        }
        for extra in ranks {
            // A rank channel carries a fault counter only when nonzero.
            for name in crate::names::FAULT_COUNTERS.into_iter().filter(|n| extra.counters.contains_key(*n)) {
                self.add(name, extra.counters[name]);
            }
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
        let traces = if self.spec.enabled { traces } else { Vec::new() };
        for extra in traces {
            match self.traces.iter_mut().find(|t| t.rank == extra.rank) {
                Some(track) => {
                    track.events.extend(extra.events);
                    track.dropped_events += extra.dropped_events;
                }
                None => self.traces.push(extra),
            }
        }
    }

    /// Assemble the recorded tracks, the run's own when traced, into an
    /// exportable [`Trace`] document (tracks sorted by rank; the run's
    /// one id past the ranks', so the two never collide).
    pub fn trace_document(&self) -> Trace {
        let own = self.spec.enabled.then(|| RankTrace {
            rank: self.traces.iter().map(|t| t.rank + 1).max().unwrap_or(0),
            label: "pipeline".to_string(),
            events: self.track.events().to_vec(),
            dropped_events: self.track.dropped_events(),
        });
        Trace::new(self.traces.iter().cloned().chain(own).collect())
    }

    /// Finalize into an immutable report whose spans are the fold of
    /// the track. Panics if spans are still open — an unbalanced
    /// push/pop is a caller bug worth failing loudly on. A traced run's
    /// report carries the `trace_events_dropped` counter, so a lossy
    /// trace shows in the metrics too.
    pub fn finish(mut self) -> crate::RunReport {
        let spans = fold(self.track.events());
        let own = self.spec.enabled.then(|| self.track.dropped_events());
        if own.is_some() || !self.traces.is_empty() {
            let dropped = self.traces.iter().map(|t| t.dropped_events).sum::<u64>() + own.unwrap_or(0);
            self.set(crate::names::TRACE_EVENTS_DROPPED, dropped);
        }
        crate::RunReport {
            schema_version: crate::SCHEMA_VERSION,
            label: self.label,
            spans,
            counters: self.counters,
            ranks: self.ranks,
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
        // An untraced run keeps no track.
        ctx.merge_stage(&[], Vec::new(), vec![track(1, 5, 0)]);
        assert!(ctx.trace_document().tracks.is_empty());
        ctx.bind_track(&TraceSpec::on());
        ctx.merge_stage(&[], Vec::new(), vec![track(2, 11, 0), track(1, 10, 1)]);
        ctx.merge_stage(&[], Vec::new(), vec![track(1, 20, 2)]);
        let doc = ctx.trace_document();
        let shape: Vec<(usize, Vec<u64>, u64)> = doc
            .tracks
            .iter()
            .filter(|t| t.label == "worker")
            .map(|t| (t.rank, t.events.iter().map(|e| e.ts_ns).collect(), t.dropped_events))
            .collect();
        assert_eq!(shape, [(1, vec![10, 20], 3), (2, vec![11], 0)]);
        assert_eq!(ctx.finish().counter(crate::names::TRACE_EVENTS_DROPPED), 3);
        // An untraced run has nothing to have dropped.
        assert!(RunContext::new("t").finish().counters.is_empty());
    }

    /// A span event at `ts_ns` carrying the CPU reading `cpu_ns`.
    fn ev(ts_ns: u64, kind: TraceKind, name: &'static str, cpu_ns: u64) -> TraceEvent {
        TraceEvent {
            ts_ns,
            kind,
            cat: TraceCategory::Stage,
            name,
            args: [(CPU_NS, cpu_ns), ("", 0), ("", 0)],
        }
    }

    #[test]
    fn fold_nests_spans_and_takes_cpu_from_the_readings() {
        use TraceKind::{Begin, Counter, End, Instant};
        let gauge =
            TraceEvent { args: [("value", 7), ("", 0), ("", 0)], ..ev(1_200, Counter, "cache_bytes", 0) };
        let events = [
            ev(1_000, Begin, "cluster", 40_000),
            ev(1_100, Begin, "gst_build", 40_050),
            gauge,
            ev(1_400, End, "gst_build", 40_300),
            ev(1_500, Instant, "mark", 99),
            ev(3_000, End, "cluster", 41_000),
            ev(3_000, Begin, "assemble", 41_000),
            ev(7_000, End, "assemble", 41_500),
        ];
        let leaf = |name: &str, wall_ns, cpu_ns| Span {
            name: name.into(),
            wall_seconds: secs(wall_ns),
            cpu_seconds: secs(cpu_ns),
            children: vec![],
        };
        let cluster = Span { children: vec![leaf("gst_build", 300, 250)], ..leaf("cluster", 2_000, 1_000) };
        assert_eq!(fold(&events), [cluster, leaf("assemble", 4_000, 500)]);
    }

    #[test]
    fn completed_phases_lie_end_to_end_inside_the_open_span() {
        let mut ctx = RunContext::new("t");
        ctx.push("cluster");
        std::thread::sleep(std::time::Duration::from_millis(5));
        ctx.merge_stage(&[("gst_build", 0.001, 0.5), ("master_worker", 0.002, 0.25)], Vec::new(), Vec::new());
        ctx.pop();
        // A phase longer than the span it is put in is clipped to it.
        ctx.scope("assemble", |ctx| ctx.merge_stage(&[("dist_assemble", 60.0, 1.0)], Vec::new(), Vec::new()));
        let report = ctx.finish();
        let cluster = report.span("cluster").unwrap();
        let phases: Vec<(&str, f64, f64)> =
            cluster.children.iter().map(|c| (c.name.as_str(), c.wall_seconds, c.cpu_seconds)).collect();
        assert_eq!(phases, [("gst_build", 0.001, 0.5), ("master_worker", 0.002, 0.25)]);
        let assemble = report.span("assemble").unwrap();
        assert!(assemble.children[0].wall_seconds <= assemble.wall_seconds);
        assert_eq!(assemble.children[0].cpu_seconds, 1.0);
    }

    #[test]
    fn helper_cpu_counts_in_every_span_open_when_it_is_added() {
        let mut ctx = RunContext::new("t");
        ctx.push("assemble");
        ctx.scope("before", |_| {});
        ctx.scope("fan_out", |ctx| ctx.add_helper_cpu(2.0));
        ctx.scope("after", |_| {});
        ctx.pop();
        let report = ctx.finish();
        let cpu = |path: &str| report.span(path).unwrap().cpu_seconds;
        assert!((2.0..2.5).contains(&cpu("assemble")), "{}", cpu("assemble"));
        assert!((2.0..2.5).contains(&cpu("assemble/fan_out")), "{}", cpu("assemble/fan_out"));
        assert!(cpu("assemble/before") < 0.5 && cpu("assemble/after") < 0.5);
    }

    #[test]
    fn the_track_is_exported_only_from_a_traced_run() {
        for (spec, tracks) in [(TraceSpec::off(), 0), (TraceSpec::on(), 1)] {
            let mut ctx = RunContext::new("t");
            ctx.bind_track(&spec);
            ctx.scope("preprocess", |ctx| {
                ctx.push("cache");
                ctx.pop()
            });
            let doc = ctx.trace_document();
            assert_eq!(doc.tracks.len(), tracks);
            let report = ctx.finish();
            let cache = report.span("preprocess/cache").unwrap().wall_seconds;
            assert!(cache <= report.span("preprocess").unwrap().wall_seconds);
            assert_eq!(report.counters.contains_key(crate::names::TRACE_EVENTS_DROPPED), tracks == 1);
        }
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

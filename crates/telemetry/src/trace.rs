//! Time-resolved per-rank event tracing.
//!
//! A [`Tracer`] is a per-rank sink of timestamped events — begin/end
//! spans, instant marks and counter samples (gauges) — recorded against
//! a **monotonic clock shared by every rank of a run** (the
//! [`TraceSpec`] epoch), so the exported timelines align. Buffers are
//! **bounded**: the event ring never grows after construction; once
//! full it counts overflow in `dropped_events`. The "off" path of every
//! recording call is one branch and nothing else (see the
//! `disabled_tracer_off_path_is_cheap` test, which measures it).
//!
//! Finished per-rank buffers ([`RankTrace`]) assemble into a [`Trace`]
//! document that exports Chrome trace-event JSON — one track per rank —
//! loadable in Perfetto (`ui.perfetto.dev`) or `chrome://tracing`.
//! Everything derived from the events (blocked intervals, attribution,
//! the critical path) is [`crate::analyze`]'s business.

use crate::json::Json;
use std::time::Instant;

/// Default per-rank event capacity (events, not bytes).
pub const DEFAULT_EVENT_CAPACITY: usize = 1 << 16;

/// Schema version stamped into exported trace JSON documents.
pub const TRACE_SCHEMA_VERSION: u32 = 2;

/// What subsystem an event belongs to; becomes the Chrome `cat` field.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum TraceCategory {
    /// Pipeline stage boundaries (preprocess / cluster / assemble).
    Stage,
    /// Master-side protocol handling (drain, dispatch, park/unpark).
    Master,
    /// Worker-side compute outside alignment (pair generation, parks).
    Worker,
    /// Communication substrate (send/recv/wait/barrier/flush).
    Comm,
    /// Distributed GST construction phases.
    Gst,
    /// Alignment batches.
    Align,
    /// Per-cluster assembly work in the distributed assemble stage.
    Assemble,
    /// Fault injection and recovery (kills, death notices, lease
    /// re-queues, checkpoints).
    Fault,
}

impl TraceCategory {
    /// Stable lowercase label used in exported JSON.
    pub fn label(self) -> &'static str {
        match self {
            TraceCategory::Stage => "stage",
            TraceCategory::Master => "master",
            TraceCategory::Worker => "worker",
            TraceCategory::Comm => "comm",
            TraceCategory::Gst => "gst",
            TraceCategory::Align => "align",
            TraceCategory::Assemble => "assemble",
            TraceCategory::Fault => "fault",
        }
    }
}

/// Event shape: a span boundary, an instant mark or a counter sample.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceKind {
    /// Span opens (`ph: "B"`).
    Begin,
    /// Span closes (`ph: "E"`).
    End,
    /// Point event (`ph: "i"`).
    Instant,
    /// Gauge sample (`ph: "C"`): the event's name is the gauge, its one
    /// arg `value` the reading.
    Counter,
}

/// One recorded event. `args` carries up to three named numeric
/// annotations (tag, bytes, peer rank, …); an empty key means unused.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TraceEvent {
    /// Nanoseconds since the run's trace epoch (monotonic per rank).
    pub ts_ns: u64,
    /// Span boundary or instant.
    pub kind: TraceKind,
    /// Subsystem category.
    pub cat: TraceCategory,
    /// Event name (static so the hot path never allocates).
    pub name: &'static str,
    /// Named numeric annotations; key `""` = slot unused.
    pub args: [(&'static str, u64); 3],
}

impl TraceEvent {
    /// Value of the named annotation, if present.
    pub fn arg(&self, key: &str) -> Option<u64> {
        self.args.iter().find(|(k, _)| *k == key).map(|&(_, v)| v)
    }
}

/// Run-wide tracing settings: the on/off switch, the per-rank buffer
/// capacity, and the shared epoch all rank clocks are measured from.
/// `Copy`, so rank closures can capture it by value.
#[derive(Debug, Clone, Copy)]
pub struct TraceSpec {
    /// Master switch; when off, [`TraceSpec::tracer`] hands out
    /// disabled tracers whose every call is a branch plus nothing.
    pub enabled: bool,
    /// Ring capacity, in events, of each rank's buffer.
    pub capacity: usize,
    epoch: Instant,
}

impl TraceSpec {
    /// Tracing off. Tracers built from this spec record nothing.
    pub fn off() -> TraceSpec {
        TraceSpec { enabled: false, capacity: 0, epoch: Instant::now() }
    }

    /// Tracing on with the default per-rank capacity.
    pub fn on() -> TraceSpec {
        TraceSpec::with_capacity(DEFAULT_EVENT_CAPACITY)
    }

    /// Tracing on with an explicit per-rank event capacity.
    pub fn with_capacity(capacity: usize) -> TraceSpec {
        TraceSpec { enabled: true, capacity, epoch: Instant::now() }
    }

    /// Build the tracer for one rank/track. All tracers from the same
    /// spec share the epoch, so their timelines align in the export.
    pub fn tracer(&self, rank: usize, label: &str) -> Tracer {
        Tracer {
            enabled: self.enabled,
            epoch: self.epoch,
            rank,
            label: label.to_string(),
            cap: if self.enabled { self.capacity } else { 0 },
            events: Vec::with_capacity(if self.enabled { self.capacity } else { 0 }),
            dropped: 0,
            counters_due: Vec::new(),
        }
    }
}

/// Per-rank event sink: a fixed-capacity buffer plus an overflow
/// counter. All recording methods take `&mut self` — a rank is
/// single-threaded, exactly like its `Comm`.
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    rank: usize,
    label: String,
    cap: usize,
    events: Vec<TraceEvent>,
    dropped: u64,
    /// Per gauge name, the earliest time its next sample is recorded.
    counters_due: Vec<(&'static str, u64)>,
}

/// Minimum spacing between recorded samples of one gauge, so hot loops
/// can call [`Tracer::counter`] every iteration without flooding the
/// ring.
const COUNTER_INTERVAL_NS: u64 = 1_000_000;

const NO_ARGS: [(&str, u64); 3] = [("", 0), ("", 0), ("", 0)];

impl Tracer {
    /// A permanently cheap no-op tracer (the default inside `Comm`).
    pub fn disabled() -> Tracer {
        TraceSpec::off().tracer(0, "")
    }

    /// Is this tracer recording?
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Open a span.
    #[inline]
    pub fn begin(&mut self, cat: TraceCategory, name: &'static str) {
        if !self.enabled {
            return;
        }
        self.push(TraceKind::Begin, cat, name, NO_ARGS);
    }

    /// Open a span with one named numeric annotation.
    #[inline]
    pub fn begin_arg(&mut self, cat: TraceCategory, name: &'static str, key: &'static str, v: u64) {
        if !self.enabled {
            return;
        }
        self.push(TraceKind::Begin, cat, name, [(key, v), ("", 0), ("", 0)]);
    }

    /// Close the matching span.
    #[inline]
    pub fn end(&mut self, cat: TraceCategory, name: &'static str) {
        if !self.enabled {
            return;
        }
        self.push(TraceKind::End, cat, name, NO_ARGS);
    }

    /// Record a point event.
    #[inline]
    pub fn instant(&mut self, cat: TraceCategory, name: &'static str) {
        if !self.enabled {
            return;
        }
        self.push(TraceKind::Instant, cat, name, NO_ARGS);
    }

    /// Record a point event with one annotation.
    #[inline]
    pub fn instant_arg(&mut self, cat: TraceCategory, name: &'static str, key: &'static str, v: u64) {
        if !self.enabled {
            return;
        }
        self.push(TraceKind::Instant, cat, name, [(key, v), ("", 0), ("", 0)]);
    }

    /// Record a point event with two annotations.
    #[inline]
    pub fn instant_args(
        &mut self,
        cat: TraceCategory,
        name: &'static str,
        a: (&'static str, u64),
        b: (&'static str, u64),
    ) {
        if !self.enabled {
            return;
        }
        self.push(TraceKind::Instant, cat, name, [a, b, ("", 0)]);
    }

    /// Record a point event with three annotations (e.g. tag, bytes,
    /// and the peer rank of a send/recv — the happens-before edge data
    /// the analyzer pairs on).
    #[inline]
    pub fn instant_args3(
        &mut self,
        cat: TraceCategory,
        name: &'static str,
        a: (&'static str, u64),
        b: (&'static str, u64),
        c: (&'static str, u64),
    ) {
        if !self.enabled {
            return;
        }
        self.push(TraceKind::Instant, cat, name, [a, b, c]);
    }

    /// Record a sample of gauge `name`, unless one was recorded less
    /// than 1 ms ago (a skip, not a drop).
    #[inline]
    pub fn counter(&mut self, cat: TraceCategory, name: &'static str, value: u64) {
        if !self.enabled {
            return;
        }
        let now = self.epoch.elapsed().as_nanos() as u64;
        let i = self.counters_due.iter().position(|(n, _)| *n == name).unwrap_or_else(|| {
            self.counters_due.push((name, 0));
            self.counters_due.len() - 1
        });
        if now < self.counters_due[i].1 {
            return;
        }
        self.counters_due[i].1 = now + COUNTER_INTERVAL_NS;
        self.push_at(now, TraceKind::Counter, cat, name, [("value", value), ("", 0), ("", 0)]);
    }

    fn push(
        &mut self,
        kind: TraceKind,
        cat: TraceCategory,
        name: &'static str,
        args: [(&'static str, u64); 3],
    ) {
        self.push_at(self.epoch.elapsed().as_nanos() as u64, kind, cat, name, args);
    }

    fn push_at(
        &mut self,
        ts_ns: u64,
        kind: TraceKind,
        cat: TraceCategory,
        name: &'static str,
        args: [(&'static str, u64); 3],
    ) {
        if self.events.len() >= self.cap {
            self.dropped += 1;
            return;
        }
        self.events.push(TraceEvent { ts_ns, kind, cat, name, args });
    }

    /// Events recorded so far.
    pub fn events(&self) -> &[TraceEvent] {
        &self.events
    }

    /// Events that overflowed the buffer and were discarded.
    pub fn dropped_events(&self) -> u64 {
        self.dropped
    }

    /// Finish recording, yielding the immutable per-rank track.
    pub fn finish(self) -> RankTrace {
        RankTrace { rank: self.rank, label: self.label, events: self.events, dropped_events: self.dropped }
    }
}

/// One rank's finished event track.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct RankTrace {
    /// Rank id (track id in the export). The pipeline's main thread
    /// uses the first id past the parallel section's ranks.
    pub rank: usize,
    /// Track label (`"master"`, `"worker"`, `"pipeline"`, …).
    pub label: String,
    /// Events in record order (timestamps non-decreasing).
    pub events: Vec<TraceEvent>,
    /// Events discarded on buffer overflow.
    pub dropped_events: u64,
}

/// A complete trace document: one track per rank (plus the pipeline's
/// main-thread track), exportable as Chrome trace-event JSON.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Trace {
    /// Per-rank tracks, in rank order.
    pub tracks: Vec<RankTrace>,
}

impl Trace {
    /// Assemble a document from finished tracks.
    pub fn new(mut tracks: Vec<RankTrace>) -> Trace {
        tracks.sort_by_key(|t| t.rank);
        Trace { tracks }
    }

    /// Distinct category labels present across all tracks.
    pub fn categories(&self) -> Vec<&'static str> {
        let mut cats: Vec<&'static str> =
            self.tracks.iter().flat_map(|t| t.events.iter().map(|e| e.cat.label())).collect();
        cats.sort_unstable();
        cats.dedup();
        cats
    }

    /// Total events dropped across tracks.
    pub fn dropped_events(&self) -> u64 {
        self.tracks.iter().map(|t| t.dropped_events).sum()
    }

    /// Chrome trace-event JSON (object form). One `tid` per rank under
    /// `pid` 0, with `thread_name` metadata naming each track;
    /// timestamps are microseconds as the format requires. Loads in
    /// Perfetto and `chrome://tracing`.
    pub fn to_chrome_json(&self) -> Json {
        let mut events: Vec<Json> = Vec::new();
        for track in &self.tracks {
            events.push(Json::obj(vec![
                ("ph", Json::Str("M".into())),
                ("pid", Json::Num(0.0)),
                ("tid", Json::Num(track.rank as f64)),
                ("name", Json::Str("thread_name".into())),
                (
                    "args",
                    Json::obj(vec![
                        ("name", Json::Str(format!("rank {} · {}", track.rank, track.label))),
                        // Per-track overflow count, so `trace_check
                        // --max-dropped` can blame the exact track.
                        ("dropped_events", Json::Num(track.dropped_events as f64)),
                    ]),
                ),
            ]));
            for e in &track.events {
                let mut fields: Vec<(&str, Json)> = vec![
                    (
                        "ph",
                        Json::Str(
                            match e.kind {
                                TraceKind::Begin => "B",
                                TraceKind::End => "E",
                                TraceKind::Instant => "i",
                                TraceKind::Counter => "C",
                            }
                            .into(),
                        ),
                    ),
                    ("pid", Json::Num(0.0)),
                    ("tid", Json::Num(track.rank as f64)),
                    ("ts", Json::Num(e.ts_ns as f64 / 1e3)),
                    ("cat", Json::Str(e.cat.label().into())),
                    // Chrome counters are keyed by name within a
                    // process, not by tid: the rank goes in the name.
                    (
                        "name",
                        Json::Str(match e.kind {
                            TraceKind::Counter => format!("rank{}/{}", track.rank, e.name),
                            _ => e.name.into(),
                        }),
                    ),
                ];
                if matches!(e.kind, TraceKind::Instant) {
                    fields.push(("s", Json::Str("t".into())));
                }
                let args: Vec<(String, Json)> = e
                    .args
                    .iter()
                    .filter(|(k, _)| !k.is_empty())
                    .map(|&(k, v)| (k.to_string(), Json::Num(v as f64)))
                    .collect();
                if !args.is_empty() {
                    fields.push(("args", Json::Obj(args)));
                }
                events.push(Json::obj(fields));
            }
        }
        Json::obj(vec![
            ("schema_version", Json::Num(TRACE_SCHEMA_VERSION as f64)),
            ("displayTimeUnit", Json::Str("ms".into())),
            ("otherData", Json::obj(vec![("dropped_events", Json::Num(self.dropped_events() as f64))])),
            ("traceEvents", Json::Arr(events)),
        ])
    }

    /// Write the Chrome trace-event document to `path`.
    pub fn write_chrome_json(&self, path: &std::path::Path) -> std::io::Result<()> {
        std::fs::write(path, self.to_chrome_json().pretty())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::names;

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::disabled();
        t.begin(TraceCategory::Comm, names::EV_WAIT);
        t.instant(TraceCategory::Comm, names::EV_SEND);
        t.end(TraceCategory::Comm, names::EV_WAIT);
        t.counter(TraceCategory::Master, names::GAUGE_PENDING_TASKS, 5);
        assert!(t.events().is_empty());
        assert_eq!(t.dropped_events(), 0);
    }

    #[test]
    fn overflow_counts_drops_without_reallocating() {
        let spec = TraceSpec::with_capacity(4);
        let mut t = spec.tracer(0, "test");
        let cap_before = t.events.capacity();
        for _ in 0..10 {
            t.instant(TraceCategory::Comm, names::EV_SEND);
        }
        assert_eq!(t.events().len(), 4, "buffer is bounded");
        assert_eq!(t.dropped_events(), 6, "overflow is counted");
        assert_eq!(t.events.capacity(), cap_before, "no reallocation on overflow");
    }

    #[test]
    fn timestamps_are_monotonic_and_epoch_shared() {
        let spec = TraceSpec::with_capacity(64);
        let mut a = spec.tracer(0, "a");
        let mut b = spec.tracer(1, "b");
        for _ in 0..20 {
            a.instant(TraceCategory::Master, names::EV_DISPATCH);
            b.instant(TraceCategory::Worker, names::EV_GENERATE);
        }
        for t in [&a, &b] {
            assert!(t.events().windows(2).all(|w| w[0].ts_ns <= w[1].ts_ns), "per-track monotonic");
        }
        let rt = a.finish();
        assert_eq!(rt.rank, 0);
        assert_eq!(rt.label, "a");
    }

    /// The tentpole's overhead budget: the disabled path must be a
    /// branch plus nothing — measured here, not assumed. 10 M calls in
    /// well under a second means ≪ 100 ns per call; a smoke clustering
    /// run records ~10⁴–10⁵ would-be events over ≳ 100 ms of wall time,
    /// so a disabled tracer costs far below 1% of such a run.
    #[test]
    fn disabled_tracer_off_path_is_cheap() {
        let mut t = Tracer::disabled();
        let start = Instant::now();
        for i in 0..10_000_000u64 {
            t.instant_args(TraceCategory::Comm, names::EV_SEND, ("tag", i), ("bytes", i));
            t.counter(TraceCategory::Master, names::GAUGE_PENDING_TASKS, i);
        }
        let per_call_ns = start.elapsed().as_nanos() as f64 / 2e7;
        assert!(t.events().is_empty());
        assert!(per_call_ns < 100.0, "disabled trace call costs {per_call_ns:.1} ns");
    }

    #[test]
    fn chrome_export_is_valid_and_ordered() {
        let spec = TraceSpec::with_capacity(64);
        let mut t = spec.tracer(2, "worker");
        t.begin(TraceCategory::Align, names::EV_ALIGN_BATCH);
        t.instant_args(TraceCategory::Comm, names::EV_SEND, ("tag", 3), ("bytes", 128));
        t.end(TraceCategory::Align, names::EV_ALIGN_BATCH);
        let doc = Trace::new(vec![t.finish()]);
        let json = doc.to_chrome_json();
        // Round-trips through the parser.
        let parsed = Json::parse(&json.pretty()).unwrap();
        let events = parsed.get("traceEvents").and_then(Json::as_arr).unwrap();
        // Metadata + 3 events.
        assert_eq!(events.len(), 4);
        assert_eq!(events[0].get("ph").and_then(Json::as_str), Some("M"));
        assert_eq!(events[1].get("ph").and_then(Json::as_str), Some("B"));
        assert_eq!(events[2].get("ph").and_then(Json::as_str), Some("i"));
        assert_eq!(events[2].get("args").unwrap().get("bytes").and_then(Json::as_u64), Some(128));
        assert_eq!(events[3].get("ph").and_then(Json::as_str), Some("E"));
        // Timestamps non-decreasing within the track.
        let ts: Vec<f64> = events[1..].iter().map(|e| e.get("ts").and_then(Json::as_f64).unwrap()).collect();
        assert!(ts.windows(2).all(|w| w[0] <= w[1]));
        assert_eq!(parsed.get("schema_version").and_then(Json::as_u64), Some(TRACE_SCHEMA_VERSION as u64));
        assert_eq!(doc.categories(), vec!["align", "comm"]);
    }

    #[test]
    fn counters_share_the_ring_its_clock_and_its_drop_count() {
        let spec = TraceSpec::with_capacity(3);
        let mut t = spec.tracer(1, "worker");
        t.instant(TraceCategory::Comm, names::EV_SEND);
        // Distinct gauges are rate-limited apart, so each first sample
        // lands — until the ring is full, and then it is a counted drop.
        t.counter(TraceCategory::Master, names::GAUGE_PENDING_TASKS, 7);
        t.counter(TraceCategory::Master, names::GAUGE_WORKERS_PARKED, 2);
        t.counter(TraceCategory::Align, names::GAUGE_ALIGN_SCRATCH_BYTES, 4096);
        assert_eq!(t.events().len(), 3);
        assert_eq!(t.dropped_events(), 1);
        let e = t.events()[1];
        assert_eq!(
            (e.kind, e.name, e.arg("value")),
            (TraceKind::Counter, names::GAUGE_PENDING_TASKS, Some(7))
        );
        assert!(t.events().windows(2).all(|w| w[0].ts_ns <= w[1].ts_ns), "one clock, one order");
    }

    #[test]
    fn counter_rate_limit_thins_hot_loop_samples() {
        let spec = TraceSpec::with_capacity(4096);
        let mut t = spec.tracer(0, "master");
        let start = Instant::now();
        for i in 0..1000 {
            t.counter(TraceCategory::Master, names::GAUGE_PENDING_TASKS, i);
        }
        let most = 1 + start.elapsed().as_nanos() as u64 / COUNTER_INTERVAL_NS;
        let n = t.events().len() as u64;
        assert!((1..=most).contains(&n), "{n} samples, at most one per interval ({most})");
        assert_eq!(t.events()[0].arg("value"), Some(0), "the first sample is never skipped");
        assert_eq!(t.dropped_events(), 0, "rate-limited calls are skips, not drops");
    }

    #[test]
    fn chrome_export_carries_counters_on_their_ranks_tid() {
        let spec = TraceSpec::with_capacity(8);
        let mut t = spec.tracer(1, "worker");
        t.instant(TraceCategory::Comm, names::EV_SEND);
        t.counter(TraceCategory::Align, names::GAUGE_ALIGN_SCRATCH_BYTES, 4096);
        let doc = Trace::new(vec![t.finish()]);
        let parsed = Json::parse(&doc.to_chrome_json().pretty()).unwrap();
        let events = parsed.get("traceEvents").and_then(Json::as_arr).unwrap();
        // Track metadata, the instant, the counter sample.
        assert_eq!(events.len(), 3);
        let c = &events[2];
        assert_eq!(c.get("ph").and_then(Json::as_str), Some("C"));
        assert_eq!(c.get("tid").and_then(Json::as_u64), Some(1));
        assert_eq!(c.get("name").and_then(Json::as_str), Some("rank1/align_scratch_bytes"));
        assert_eq!(c.get("args").unwrap().get("value").and_then(Json::as_u64), Some(4096));
    }

    #[test]
    fn three_arg_instants_round_trip_and_lookup() {
        let spec = TraceSpec::with_capacity(8);
        let mut t = spec.tracer(0, "x");
        t.instant_args3(TraceCategory::Comm, names::EV_SEND, ("tag", 3), ("bytes", 128), ("to", 2));
        let e = t.events()[0];
        assert_eq!(e.arg("tag"), Some(3));
        assert_eq!(e.arg("to"), Some(2));
        assert_eq!(e.arg("missing"), None);
        let doc = Trace::new(vec![t.finish()]);
        let parsed = Json::parse(&doc.to_chrome_json().pretty()).unwrap();
        let events = parsed.get("traceEvents").and_then(Json::as_arr).unwrap();
        assert_eq!(events[1].get("args").unwrap().get("to").and_then(Json::as_u64), Some(2));
    }
}

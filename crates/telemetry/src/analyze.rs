//! Post-run critical-path and wall-time-attribution analysis.
//!
//! Consumes the Chrome trace-event JSON a traced run writes
//! (`--trace-json`) and nothing else — a message's tag names its kind
//! for the whole run ([`names::tag_label`]) — and answers the scaling
//! question the raw Perfetto dump leaves to the reader's eye: *which
//! rank, phase, and message class is the run actually waiting on?*
//!
//! Three derived products:
//!
//! - **Happens-before edges**: every `send` instant (args `tag`,
//!   `bytes`, `to`) is paired with the matching `recv` instant (args
//!   `tag`, `from`) by per-`(src, dst, tag)` FIFO order — exact,
//!   because the simulated transport preserves per-sender FIFO and a
//!   rank's track id is its comm rank in every stage of the run.
//! - **Wall-time attribution** per rank and per stage: `{compute,
//!   wait_blocked, barrier}`, one routine over a time window (the
//!   rank's traced span, or a stage's window on the pipeline track), so
//!   the stage rows sum to the rank rows (a stage no rank records in is
//!   the pipeline track's row instead). Per rank the residual is
//!   `idle_unattributed` and the categories sum to the measured wall
//!   time (the CI gate asserts they cover it within tolerance — a sum
//!   drifting past it means mis-paired spans, i.e. a tracing bug, not
//!   noise).
//! - **The critical path**: a backward walk from the globally last
//!   event; compute segments run until the rank was last blocked (time
//!   outside every span is an `idle` segment, as the rank row counts
//!   it), a `wait` hops along the matched send edge to the sending
//!   rank, a `barrier` hops to the last rank entering that barrier
//!   instance.
//!
//! Everything here is pure data analysis over parsed events — no
//! clocks, no I/O — so it unit-tests on synthetic traces.

use crate::json::Json;
use crate::names;
use crate::trace::TraceKind;
use std::collections::BTreeMap;

/// Event shape in analyzer form (names/categories owned, since they
/// come back out of JSON).
#[derive(Debug, Clone, PartialEq)]
pub struct AEvent {
    /// Nanoseconds since the run epoch.
    pub ts_ns: u64,
    /// Begin / End / Instant / Counter.
    pub kind: TraceKind,
    /// Category label (`"comm"`, `"master"`, …).
    pub cat: String,
    /// Event name (`"wait"`, `"send"`, …).
    pub name: String,
    /// Named numeric args (`tag`, `bytes`, `to`, `from`, …).
    pub args: BTreeMap<String, u64>,
}

impl AEvent {
    fn arg(&self, key: &str) -> Option<u64> {
        self.args.get(key).copied()
    }
}

/// One rank's event track in analyzer form.
#[derive(Debug, Clone, PartialEq)]
pub struct ATrack {
    /// Track id (the rank id of the export).
    pub rank: u64,
    /// Track label from the `thread_name` metadata.
    pub label: String,
    /// Events in timestamp order.
    pub events: Vec<AEvent>,
}

impl ATrack {
    fn first_ts(&self) -> u64 {
        self.events.first().map(|e| e.ts_ns).unwrap_or(0)
    }

    fn last_ts(&self) -> u64 {
        self.events.last().map(|e| e.ts_ns).unwrap_or(0)
    }
}

/// Parse a Chrome trace-event document (as written by
/// [`crate::Trace::to_chrome_json`]) back into analyzer tracks.
/// `thread_name` metadata becomes the track label; span, instant and
/// counter events become [`AEvent`]s (a counter's `value` is an arg).
///
/// This is the trace's one validator: an event with no `ts`, `cat` or
/// `name`, a timestamp lower than the previous one on its track, an `E`
/// that closes no open `B` of its `(cat, name)` on its track, and a `C`
/// without a numeric `args.value` are errors naming the event's index.
/// A `B` left open at the end of a track is legal: a killed rank never
/// closes the span it died in, and a full ring keeps a prefix.
pub fn parse_chrome_trace(doc: &Json) -> Result<Vec<ATrack>, String> {
    let events = doc.get("traceEvents").and_then(Json::as_arr).ok_or("missing traceEvents array")?;
    let mut tracks: BTreeMap<u64, ATrack> = BTreeMap::new();
    // Open `B`s per (track, cat, name).
    let mut open: BTreeMap<(u64, &str, &str), u32> = BTreeMap::new();
    for (n, e) in events.iter().enumerate() {
        let ph = e.get("ph").and_then(Json::as_str).ok_or(format!("event {n}: missing ph"))?;
        let tid = e.get("tid").and_then(Json::as_u64).ok_or(format!("event {n}: missing tid"))?;
        let track = tracks.entry(tid).or_insert_with(|| ATrack {
            rank: tid,
            label: String::new(),
            events: Vec::new(),
        });
        if ph == "M" {
            if let Some(name) = e.get("args").and_then(|a| a.get("name")).and_then(Json::as_str) {
                // "rank N · label" — keep the label part.
                track.label = name.rsplit(" · ").next().unwrap_or(name).to_string();
            }
            continue;
        }
        let kind = match ph {
            "B" => TraceKind::Begin,
            "E" => TraceKind::End,
            "i" => TraceKind::Instant,
            "C" => TraceKind::Counter,
            other => return Err(format!("event {n}: unknown ph '{other}'")),
        };
        let ts_us = e.get("ts").and_then(Json::as_f64).ok_or(format!("event {n}: missing ts"))?;
        let cat = e.get("cat").and_then(Json::as_str).ok_or(format!("event {n}: missing cat"))?;
        let name = e.get("name").and_then(Json::as_str).ok_or(format!("event {n}: missing name"))?;
        let ts_ns = (ts_us * 1e3).round() as u64;
        if ts_us < 0.0 || track.events.last().is_some_and(|prev| prev.ts_ns > ts_ns) {
            return Err(format!("event {n}: ts {ts_us} µs goes back in time on track {tid}"));
        }
        match kind {
            TraceKind::Begin => *open.entry((tid, cat, name)).or_default() += 1,
            TraceKind::End => match open.get_mut(&(tid, cat, name)) {
                Some(depth) if *depth > 0 => *depth -= 1,
                _ => return Err(format!("event {n}: E '{name}' ({cat}) on track {tid} closes no open B")),
            },
            TraceKind::Counter
                if e.get("args").and_then(|a| a.get("value")).and_then(Json::as_f64).is_none() =>
            {
                return Err(format!("event {n}: counter '{name}' has no numeric args.value"));
            }
            TraceKind::Instant | TraceKind::Counter => {}
        }
        let args = e
            .get("args")
            .and_then(Json::as_obj)
            .map(|obj| obj.iter().filter_map(|(k, v)| Some((k.clone(), v.as_u64()?))).collect())
            .unwrap_or_default();
        track.events.push(AEvent { ts_ns, kind, cat: cat.to_string(), name: name.to_string(), args });
    }
    Ok(tracks.into_values().filter(|t| !t.events.is_empty()).collect())
}

/// One reconstructed happens-before edge: a message observed leaving
/// `src` and arriving at `dst`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HbEdge {
    /// Sending rank.
    pub src: u64,
    /// Receiving rank.
    pub dst: u64,
    /// Message tag.
    pub tag: u64,
    /// Send timestamp on the source rank.
    pub send_ts_ns: u64,
    /// Receive timestamp on the destination rank.
    pub recv_ts_ns: u64,
}

/// Pair `send` and `recv` instants across tracks into happens-before
/// edges, FIFO per `(src, dst, tag)`. Returns the edges plus the count
/// of unpaired endpoints (sends whose recv was never traced or vice
/// versa — nonzero under ring-buffer overflow or a truncated run).
pub fn pair_edges(tracks: &[ATrack]) -> (Vec<HbEdge>, u64) {
    let mut queues: BTreeMap<(u64, u64, u64), Vec<(u64, u64)>> = BTreeMap::new(); // (send_ts, used=0/1)
    let mut sends = 0u64;
    for t in tracks {
        for e in &t.events {
            if e.kind == TraceKind::Instant && e.name == names::EV_SEND {
                if let (Some(tag), Some(to)) = (e.arg("tag"), e.arg("to")) {
                    queues.entry((t.rank, to, tag)).or_default().push((e.ts_ns, 0));
                    sends += 1;
                }
            }
        }
    }
    let mut edges = Vec::new();
    let mut unpaired_recvs = 0u64;
    let mut cursors: BTreeMap<(u64, u64, u64), usize> = BTreeMap::new();
    for t in tracks {
        for e in &t.events {
            if e.kind == TraceKind::Instant && e.name == names::EV_RECV {
                if let (Some(tag), Some(from)) = (e.arg("tag"), e.arg("from")) {
                    let key = (from, t.rank, tag);
                    let cursor = cursors.entry(key).or_insert(0);
                    match queues.get_mut(&key).and_then(|q| q.get_mut(*cursor)) {
                        Some(slot) => {
                            slot.1 = 1;
                            edges.push(HbEdge {
                                src: from,
                                dst: t.rank,
                                tag,
                                send_ts_ns: slot.0,
                                recv_ts_ns: e.ts_ns,
                            });
                            *cursor += 1;
                        }
                        None => unpaired_recvs += 1,
                    }
                }
            }
        }
    }
    let paired = edges.len() as u64;
    let unpaired = sends.saturating_sub(paired) + unpaired_recvs;
    edges.sort_by_key(|e| (e.recv_ts_ns, e.dst));
    (edges, unpaired)
}

/// Merge possibly-overlapping `(start, end)` intervals.
fn merge_intervals(mut iv: Vec<(u64, u64)>) -> Vec<(u64, u64)> {
    iv.sort_unstable();
    let mut out: Vec<(u64, u64)> = Vec::with_capacity(iv.len());
    for (s, e) in iv {
        match out.last_mut() {
            Some(last) if s <= last.1 => last.1 = last.1.max(e),
            _ => out.push((s, e)),
        }
    }
    out
}

/// Length of `a − b` where both are merged interval lists.
fn subtract_len(a: &[(u64, u64)], b: &[(u64, u64)]) -> u64 {
    let mut total = 0u64;
    let mut bi = 0;
    for &(s, e) in a {
        let mut at = s;
        while bi < b.len() && b[bi].1 <= at {
            bi += 1;
        }
        let mut bj = bi;
        while at < e {
            match b.get(bj) {
                Some(&(bs, be)) if bs < e => {
                    if bs > at {
                        total += bs - at;
                    }
                    at = at.max(be);
                    bj += 1;
                }
                _ => {
                    total += e - at;
                    at = e;
                }
            }
        }
    }
    total
}

/// A blocked interval with its kind and, for waits, the tag awaited.
#[derive(Debug, Clone, PartialEq)]
struct Blocked {
    start_ns: u64,
    end_ns: u64,
    barrier: bool,
    /// Index of this barrier among the track's barriers (barrier only).
    barrier_index: usize,
    /// Tag of the first recv at/after the wait's end (wait only).
    awaited_tag: Option<u64>,
}

/// Extract wait/barrier blocked intervals from one track, annotating
/// waits with the tag of the recv that ended them.
fn blocked_spans(track: &ATrack) -> Vec<Blocked> {
    let mut out = Vec::new();
    let mut open_wait: Option<u64> = None;
    let mut open_barrier: Option<u64> = None;
    let mut barriers = 0usize;
    for (i, e) in track.events.iter().enumerate() {
        if e.cat != "comm" {
            continue;
        }
        match (e.name.as_str(), e.kind) {
            (names::EV_WAIT, TraceKind::Begin) => open_wait = Some(e.ts_ns),
            (names::EV_WAIT, TraceKind::End) => {
                if let Some(start) = open_wait.take() {
                    // The message that ended the wait is delivered (and
                    // its recv instant recorded) right after the span
                    // closes.
                    let awaited_tag = track.events[i..]
                        .iter()
                        .find(|n| n.kind == TraceKind::Instant && n.name == names::EV_RECV)
                        .and_then(|n| n.arg("tag"));
                    out.push(Blocked {
                        start_ns: start,
                        end_ns: e.ts_ns,
                        barrier: false,
                        barrier_index: 0,
                        awaited_tag,
                    });
                }
            }
            (names::EV_BARRIER, TraceKind::Begin) => open_barrier = Some(e.ts_ns),
            (names::EV_BARRIER, TraceKind::End) => {
                if let Some(start) = open_barrier.take() {
                    out.push(Blocked {
                        start_ns: start,
                        end_ns: e.ts_ns,
                        barrier: true,
                        barrier_index: barriers,
                        awaited_tag: None,
                    });
                    barriers += 1;
                }
            }
            _ => {}
        }
    }
    out
}

/// Wall-time attribution for one rank, all in nanoseconds. The four
/// categories partition the rank's traced wall time; `coverage` is
/// their sum over the wall (≈ 1.0 unless span pairing broke).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct RankAttribution {
    /// Rank / track id.
    pub rank: u64,
    /// Track label.
    pub label: String,
    /// Traced wall time: last event − first event.
    pub wall_ns: u64,
    /// Inside non-comm work spans and not blocked.
    pub compute_ns: u64,
    /// Blocked in `recv` waits.
    pub wait_blocked_ns: u64,
    /// Blocked in barriers.
    pub barrier_ns: u64,
    /// Residual wall time no category claims.
    pub idle_unattributed_ns: u64,
}

impl RankAttribution {
    /// Sum of the four categories over the wall time (1.0 = perfect).
    pub fn coverage(&self) -> f64 {
        if self.wall_ns == 0 {
            return 1.0;
        }
        (self.compute_ns + self.wait_blocked_ns + self.barrier_ns + self.idle_unattributed_ns) as f64
            / self.wall_ns as f64
    }

    fn to_json(&self) -> Json {
        Json::obj(vec![
            ("rank", Json::Num(self.rank as f64)),
            ("label", Json::Str(self.label.clone())),
            ("wall_ns", Json::Num(self.wall_ns as f64)),
            ("compute_ns", Json::Num(self.compute_ns as f64)),
            ("wait_blocked_ns", Json::Num(self.wait_blocked_ns as f64)),
            ("barrier_ns", Json::Num(self.barrier_ns as f64)),
            ("idle_unattributed_ns", Json::Num(self.idle_unattributed_ns as f64)),
            ("coverage", Json::Num(self.coverage())),
        ])
    }
}

/// One segment of the reconstructed critical path, in run order.
#[derive(Debug, Clone, PartialEq)]
pub struct PathSegment {
    /// Rank the segment runs on.
    pub rank: u64,
    /// `"compute"`, `"idle"` (unblocked, outside every span: the rank
    /// row's `idle_unattributed`), `"comm"` (a send→recv hop), or
    /// `"barrier"`.
    pub kind: String,
    /// Segment start, nanoseconds since epoch.
    pub start_ns: u64,
    /// Segment end.
    pub end_ns: u64,
    /// Deepest enclosing span name (compute), `unattributed` (idle), or
    /// the tag/label blamed (comm/barrier).
    pub label: String,
}

impl PathSegment {
    fn to_json(&self) -> Json {
        Json::obj(vec![
            ("rank", Json::Num(self.rank as f64)),
            ("kind", Json::Str(self.kind.clone())),
            ("start_ns", Json::Num(self.start_ns as f64)),
            ("end_ns", Json::Num(self.end_ns as f64)),
            ("label", Json::Str(self.label.clone())),
        ])
    }
}

/// One ranked idle gap with the thing the rank was waiting for.
#[derive(Debug, Clone, PartialEq)]
pub struct IdleGap {
    /// Rank that sat idle.
    pub rank: u64,
    /// Gap start, nanoseconds since epoch.
    pub start_ns: u64,
    /// Gap length.
    pub dur_ns: u64,
    /// `"barrier"` or the awaited message tag's label.
    pub blame: String,
}

impl IdleGap {
    fn to_json(&self) -> Json {
        Json::obj(vec![
            ("rank", Json::Num(self.rank as f64)),
            ("start_ns", Json::Num(self.start_ns as f64)),
            ("dur_ns", Json::Num(self.dur_ns as f64)),
            ("blame", Json::Str(self.blame.clone())),
        ])
    }
}

/// Per-stage attribution: the rank rows' routine over a stage's window
/// of the pipeline track, summed over the ranks — or, when none records
/// in it (a serial stage), over the pipeline track itself.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct StageAttribution {
    /// Stage name (`"preprocess"`, `"cluster"`, `"assemble"`).
    pub stage: String,
    /// Stage window on the pipeline track, nanoseconds.
    pub wall_ns: u64,
    /// Inside non-comm work spans and not blocked, within the window,
    /// summed over ranks.
    pub compute_ns: u64,
    /// Blocked in waits within the window, summed over ranks.
    pub wait_blocked_ns: u64,
    /// Blocked in barriers within the window, summed over ranks.
    pub barrier_ns: u64,
}

impl StageAttribution {
    fn to_json(&self) -> Json {
        Json::obj(vec![
            ("stage", Json::Str(self.stage.clone())),
            ("wall_ns", Json::Num(self.wall_ns as f64)),
            ("compute_ns", Json::Num(self.compute_ns as f64)),
            ("wait_blocked_ns", Json::Num(self.wait_blocked_ns as f64)),
            ("barrier_ns", Json::Num(self.barrier_ns as f64)),
        ])
    }
}

/// The complete analysis: attribution, critical path, ranked gaps.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Analysis {
    /// Per-rank wall-time attribution, ascending by rank.
    pub ranks: Vec<RankAttribution>,
    /// Per-stage attribution (present when a pipeline track with stage
    /// spans was traced).
    pub stages: Vec<StageAttribution>,
    /// The critical path, in run order.
    pub critical_path: Vec<PathSegment>,
    /// Top idle gaps across ranks, longest first.
    pub top_gaps: Vec<IdleGap>,
    /// Happens-before edges successfully paired.
    pub edges_paired: u64,
    /// Send/recv endpoints with no partner.
    pub edges_unpaired: u64,
}

/// The pipeline track's top-level spans as `(name, start, end)`, in time
/// order: the stages, which run one after the other. What nests inside a
/// stage is not a stage.
fn stage_windows(tracks: &[ATrack]) -> Vec<(&str, u64, u64)> {
    let mut windows = Vec::new();
    let mut open: Vec<(&str, u64)> = Vec::new();
    let pipeline = tracks.iter().find(|t| t.label == "pipeline");
    for e in pipeline.iter().flat_map(|t| &t.events) {
        match e.kind {
            TraceKind::Begin => open.push((&e.name, e.ts_ns)),
            TraceKind::End => {
                if let (Some((name, start)), true) = (open.pop(), open.is_empty()) {
                    windows.push((name, start, e.ts_ns));
                }
            }
            TraceKind::Instant | TraceKind::Counter => {}
        }
    }
    windows
}

/// A track's work: the union of its non-comm spans. A span left open (a
/// killed rank's) runs to the track's last event.
fn work_spans(track: &ATrack) -> Vec<(u64, u64)> {
    let (mut depth, mut open_at) = (0i64, 0u64);
    let mut work = Vec::new();
    for e in track.events.iter().filter(|e| e.cat != "comm") {
        match e.kind {
            TraceKind::Begin => {
                if depth == 0 {
                    open_at = e.ts_ns;
                }
                depth += 1;
            }
            TraceKind::End => {
                depth -= 1;
                if depth == 0 {
                    work.push((open_at, e.ts_ns));
                }
            }
            TraceKind::Instant | TraceKind::Counter => {}
        }
    }
    if depth > 0 {
        work.push((open_at, track.last_ts()));
    }
    merge_intervals(work)
}

/// A track's time inside `[lo, hi]` as `[compute, wait, barrier]`:
/// compute is its work minus its blocked time. The one attribution of
/// both the rank rows (the track's own span) and the stage rows (a
/// stage's window), so the stage rows sum to the rank rows.
fn attribute(work: &[(u64, u64)], blocked: &[Blocked], lo: u64, hi: u64) -> [u64; 3] {
    let clip = |s: u64, e: u64| (s.max(lo), e.min(hi).max(s.max(lo)));
    let work: Vec<(u64, u64)> = work.iter().map(|&(s, e)| clip(s, e)).collect();
    let held: Vec<(u64, u64)> = blocked.iter().map(|b| clip(b.start_ns, b.end_ns)).collect();
    let [wait, barrier] = [false, true].map(|barrier| {
        held.iter().zip(blocked).filter(|(_, b)| b.barrier == barrier).map(|(h, _)| h.1 - h.0).sum()
    });
    [subtract_len(&work, &merge_intervals(held)), wait, barrier]
}

/// Run the analysis over parsed tracks. `top_k` bounds the ranked
/// idle-gap list.
pub fn analyze(tracks: &[ATrack], top_k: usize) -> Analysis {
    let (edges, edges_unpaired) = pair_edges(tracks);
    let blocked: BTreeMap<u64, Vec<Blocked>> = tracks.iter().map(|t| (t.rank, blocked_spans(t))).collect();
    let work: Vec<Vec<(u64, u64)>> = tracks.iter().map(work_spans).collect();

    let mut ranks: Vec<RankAttribution> = tracks
        .iter()
        .zip(&work)
        .map(|(t, work)| {
            let (lo, hi) = (t.first_ts(), t.last_ts());
            let [compute_ns, wait_blocked_ns, barrier_ns] = attribute(work, &blocked[&t.rank], lo, hi);
            RankAttribution {
                rank: t.rank,
                label: t.label.clone(),
                wall_ns: hi - lo,
                compute_ns,
                wait_blocked_ns,
                barrier_ns,
                idle_unattributed_ns: (hi - lo).saturating_sub(compute_ns + wait_blocked_ns + barrier_ns),
            }
        })
        .collect();
    ranks.sort_by_key(|r| r.rank);

    let stages = stage_windows(tracks)
        .into_iter()
        .map(|(name, start, end)| {
            let mut st =
                StageAttribution { stage: name.to_string(), wall_ns: end - start, ..Default::default() };
            let inside = |t: &ATrack| t.events.iter().any(|e| (start..=end).contains(&e.ts_ns));
            let on_ranks = tracks.iter().any(|t| t.label != "pipeline" && inside(t));
            for (t, work) in tracks.iter().zip(&work).filter(|(t, _)| (t.label == "pipeline") != on_ranks) {
                let [compute, wait, barrier] = attribute(work, &blocked[&t.rank], start, end);
                st.compute_ns += compute;
                st.wait_blocked_ns += wait;
                st.barrier_ns += barrier;
            }
            st
        })
        .collect();

    let critical_path = critical_path(tracks, &blocked, &edges);

    let mut top_gaps: Vec<IdleGap> = blocked
        .iter()
        .flat_map(|(&rank, list)| {
            list.iter().map(move |b| IdleGap {
                rank,
                start_ns: b.start_ns,
                dur_ns: b.end_ns - b.start_ns,
                blame: match (b.barrier, b.awaited_tag) {
                    (true, _) => "barrier".to_string(),
                    (false, Some(tag)) => names::tag_label(tag),
                    (false, None) => "unknown".to_string(),
                },
            })
        })
        .collect();
    top_gaps.sort_by_key(|g| std::cmp::Reverse(g.dur_ns));
    top_gaps.truncate(top_k);

    Analysis { ranks, stages, critical_path, top_gaps, edges_paired: edges.len() as u64, edges_unpaired }
}

/// The unblocked interval `[from, to]` of a track, split wherever a
/// non-comm span begins or ends inside it; each piece is labelled with
/// its deepest enclosing span, and adjacent pieces with one label are
/// one. A segment that crosses several phases names each of them, not
/// whichever covers its midpoint. A piece outside every span is `None`:
/// the time the rank row counts as `idle_unattributed`, not compute.
fn compute_pieces(track: &ATrack, from: u64, to: u64) -> Vec<(u64, u64, Option<String>)> {
    let mut stack: Vec<&str> = Vec::new();
    let mut pieces: Vec<(u64, u64, Option<String>)> = Vec::new();
    let mut push = |start: u64, end: u64, stack: &[&str]| {
        let label = stack.last().copied();
        match pieces.last_mut() {
            _ if end <= start => {}
            Some(last) if last.2.as_deref() == label => last.1 = end,
            _ => pieces.push((start, end, label.map(str::to_string))),
        }
    };
    let mut start = from;
    let spans = track
        .events
        .iter()
        .filter(|e| e.cat != "comm" && matches!(e.kind, TraceKind::Begin | TraceKind::End));
    for e in spans.take_while(|e| e.ts_ns < to) {
        if e.ts_ns > from {
            push(start, e.ts_ns, &stack);
            start = e.ts_ns;
        }
        if e.kind == TraceKind::Begin {
            stack.push(&e.name);
        } else {
            stack.pop();
        }
    }
    push(start, to, &stack);
    pieces
}

fn critical_path(
    tracks: &[ATrack],
    blocked: &BTreeMap<u64, Vec<Blocked>>,
    edges: &[HbEdge],
) -> Vec<PathSegment> {
    // Barrier matching: every rank passes the same barriers in the same
    // order, so the k-th barrier of a track pairs with the k-th barrier
    // of every other track (the pipeline track holds none).
    // The path terminates on the latest-ending *protocol participant* —
    // a track with comm events or blocked intervals. An umbrella track
    // (the pipeline's, which wraps every stage and never blocks) would
    // otherwise absorb the whole path into one uninformative compute
    // segment. Fall back to the global latest when nothing qualifies.
    let participates = |t: &ATrack| {
        blocked.get(&t.rank).is_some_and(|b| !b.is_empty()) || t.events.iter().any(|e| e.cat == "comm")
    };
    let Some(end_track) = tracks
        .iter()
        .filter(|t| participates(t))
        .max_by_key(|t| t.last_ts())
        .or_else(|| tracks.iter().max_by_key(|t| t.last_ts()))
    else {
        return Vec::new();
    };
    let mut segments = Vec::new();
    let mut rank = end_track.rank;
    let mut cursor = end_track.last_ts();
    // Bounded by total blocked intervals; the strict-decrease guard
    // breaks cycles, this caps pathological traces.
    let max_hops = 2 + blocked.values().map(|b| b.len()).sum::<usize>();
    for _ in 0..max_hops {
        let Some(track) = tracks.iter().find(|t| t.rank == rank) else { break };
        // Compute back from the cursor to the latest blocked interval on
        // this rank ending at or before it (or to the track's start).
        let prev = blocked[&rank].iter().filter(|b| b.end_ns <= cursor).max_by_key(|b| b.end_ns);
        let from = prev.map_or(track.first_ts(), |b| b.end_ns);
        if cursor > from {
            for (start_ns, end_ns, label) in compute_pieces(track, from, cursor).into_iter().rev() {
                let (kind, label) = match label {
                    Some(span) => ("compute", span),
                    None => ("idle", "unattributed".to_string()),
                };
                segments.push(PathSegment { rank, kind: kind.into(), start_ns, end_ns, label });
            }
        }
        let Some(b) = prev else { break };
        // The blocked interval becomes a segment from where the path
        // continues: the rank that entered this barrier instance last,
        // or the send of the message that ended the wait (the first recv
        // at/after its end) — else the interval itself, on this rank.
        let (next_rank, next_ts, kind, label) = if b.barrier {
            let last_in = tracks
                .iter()
                .filter(|t| t.rank != rank)
                .filter_map(|t| {
                    blocked[&t.rank]
                        .iter()
                        .filter(|x| x.barrier && x.barrier_index == b.barrier_index)
                        .map(|x| (t.rank, x.start_ns))
                        .next()
                })
                .max_by_key(|&(_, start)| start);
            let (r, start) = last_in.filter(|&(_, start)| start < b.end_ns).unwrap_or((rank, b.start_ns));
            (r, start, "barrier", "barrier".to_string())
        } else {
            let edge = track
                .events
                .iter()
                .find(|e| e.ts_ns >= b.end_ns && e.kind == TraceKind::Instant && e.name == names::EV_RECV)
                .and_then(|recv| edges.iter().find(|ed| ed.dst == rank && ed.recv_ts_ns == recv.ts_ns));
            match edge {
                Some(ed) if ed.send_ts_ns < cursor => {
                    (ed.src, ed.send_ts_ns, "comm", names::tag_label(ed.tag))
                }
                _ => {
                    (rank, b.start_ns, "comm", b.awaited_tag.map_or_else(|| "wait".into(), names::tag_label))
                }
            }
        };
        segments.push(PathSegment { rank, kind: kind.into(), start_ns: next_ts, end_ns: b.end_ns, label });
        if next_ts >= cursor {
            break; // strict decrease or stop — no cycles
        }
        rank = next_rank;
        cursor = next_ts;
        if cursor == 0 {
            break;
        }
    }
    segments.reverse();
    // A hop landing exactly on a track's first event leaves a
    // zero-length compute stub at the boundary — drop it unless it is
    // all the path has.
    if segments.iter().any(|s| s.end_ns > s.start_ns) {
        segments.retain(|s| s.end_ns > s.start_ns);
    }
    segments
}

impl Analysis {
    /// Worst per-rank attribution error: `max |coverage − 1|`.
    pub fn max_coverage_error(&self) -> f64 {
        self.ranks.iter().map(|r| (r.coverage() - 1.0).abs()).fold(0.0, f64::max)
    }

    /// Machine JSON document (`pgasm.analysis` format).
    pub fn to_json(&self) -> Json {
        Json::obj(vec![
            ("format", Json::Str("pgasm.analysis".into())),
            ("schema_version", Json::Num(3.0)),
            ("ranks", Json::Arr(self.ranks.iter().map(RankAttribution::to_json).collect())),
            ("stages", Json::Arr(self.stages.iter().map(StageAttribution::to_json).collect())),
            ("critical_path", Json::Arr(self.critical_path.iter().map(PathSegment::to_json).collect())),
            ("top_gaps", Json::Arr(self.top_gaps.iter().map(IdleGap::to_json).collect())),
            ("edges_paired", Json::Num(self.edges_paired as f64)),
            ("edges_unpaired", Json::Num(self.edges_unpaired as f64)),
            ("max_coverage_error", Json::Num(self.max_coverage_error())),
        ])
    }

    /// Human-readable report: attribution table, critical path, top
    /// gaps. Idle path pieces shorter than 1% of the path or than 1 µs —
    /// clock reads between two adjacent spans — are left out of the path's
    /// rows and counted on one line after them; the JSON keeps every
    /// piece.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let ms = |ns: u64| ns as f64 / 1e6;
        out.push_str("per-rank wall-time attribution (ms):\n");
        out.push_str(&format!(
            "  {:<4} {:<12} {:>9} {:>9} {:>9} {:>9} {:>9}  {:>5}\n",
            "rank", "role", "wall", "compute", "wait", "barrier", "idle", "cover"
        ));
        for r in &self.ranks {
            out.push_str(&format!(
                "  {:<4} {:<12} {:>9.2} {:>9.2} {:>9.2} {:>9.2} {:>9.2}  {:>4.0}%\n",
                r.rank,
                r.label,
                ms(r.wall_ns),
                ms(r.compute_ns),
                ms(r.wait_blocked_ns),
                ms(r.barrier_ns),
                ms(r.idle_unattributed_ns),
                r.coverage() * 100.0
            ));
        }
        if !self.stages.is_empty() {
            out.push_str("per-stage attribution (ms, summed over ranks):\n");
            for s in &self.stages {
                out.push_str(&format!(
                    "  {:<12} wall {:>9.2}  compute {:>9.2}  wait {:>9.2}  barrier {:>9.2}\n",
                    s.stage,
                    ms(s.wall_ns),
                    ms(s.compute_ns),
                    ms(s.wait_blocked_ns),
                    ms(s.barrier_ns)
                ));
            }
        }
        out.push_str(&format!("critical path ({} segment(s)):\n", self.critical_path.len()));
        // Pieces of any kind shorter than 1% of the path, or than 1 µs,
        // fold into one count line; the JSON keeps every piece.
        let (mut folded, mut folded_ns) = (BTreeMap::<&str, usize>::new(), 0u64);
        let path = self.critical_path.first().zip(self.critical_path.last());
        let path_ns = path.map_or(0, |(first, last)| last.end_ns - first.start_ns);
        let fold_below_ns = (path_ns / 100).max(1_000);
        for seg in &self.critical_path {
            let dur_ns = seg.end_ns - seg.start_ns;
            if dur_ns < fold_below_ns {
                *folded.entry(seg.kind.as_str()).or_default() += 1;
                folded_ns += dur_ns;
                continue;
            }
            out.push_str(&format!(
                "  rank {:<3} {:<8} {:>9.2} ms  [{:.2}..{:.2}]  {}\n",
                seg.rank,
                seg.kind,
                ms(seg.end_ns - seg.start_ns),
                ms(seg.start_ns),
                ms(seg.end_ns),
                seg.label
            ));
        }
        if !folded.is_empty() {
            let kinds: Vec<String> = folded.iter().map(|(kind, n)| format!("{kind} {n}")).collect();
            out.push_str(&format!(
                "  + {} piece(s) under {:.2} us, {:.3} us in all: {}\n",
                folded.values().sum::<usize>(),
                fold_below_ns as f64 / 1e3,
                folded_ns as f64 / 1e3,
                kinds.join(", ")
            ));
        }
        out.push_str(&format!("top idle gaps (of {} edges paired):\n", self.edges_paired));
        for g in &self.top_gaps {
            out.push_str(&format!(
                "  rank {:<3} {:>9.2} ms at {:>9.2} ms  awaiting {}\n",
                g.rank,
                ms(g.dur_ns),
                ms(g.start_ns),
                g.blame
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::names;
    use crate::trace::{TraceCategory, TraceSpec};

    fn ev(ts_ns: u64, kind: TraceKind, cat: &str, name: &str, args: &[(&str, u64)]) -> AEvent {
        let args = args.iter().map(|&(k, v)| (k.to_string(), v)).collect();
        AEvent { ts_ns, kind, cat: cat.into(), name: name.into(), args }
    }

    /// Build a synthetic two-rank track pair: rank 0 computes then
    /// sends to rank 1, which waited for it.
    fn synthetic_tracks() -> Vec<ATrack> {
        let t0 = ATrack {
            rank: 0,
            label: "master".into(),
            events: vec![
                ev(0, TraceKind::Begin, "master", "dispatch", &[]),
                ev(900, TraceKind::Instant, "comm", "send", &[("tag", 4), ("bytes", 64), ("to", 1)]),
                ev(1_000, TraceKind::End, "master", "dispatch", &[]),
            ],
        };
        let t1 = ATrack {
            rank: 1,
            label: "worker".into(),
            events: vec![
                ev(0, TraceKind::Begin, "comm", "wait", &[]),
                ev(950, TraceKind::End, "comm", "wait", &[]),
                ev(960, TraceKind::Instant, "comm", "recv", &[("tag", 4), ("bytes", 64), ("from", 0)]),
                ev(1_000, TraceKind::Begin, "align", "align_batch", &[]),
                ev(2_000, TraceKind::End, "align", "align_batch", &[]),
            ],
        };
        vec![t0, t1]
    }

    #[test]
    fn sends_pair_with_recvs_fifo_per_src_dst_tag() {
        let (edges, unpaired) = pair_edges(&synthetic_tracks());
        assert_eq!(unpaired, 0);
        assert_eq!(edges, vec![HbEdge { src: 0, dst: 1, tag: 4, send_ts_ns: 900, recv_ts_ns: 960 }]);
    }

    #[test]
    fn fifo_pairing_keeps_order_and_counts_orphans() {
        let ev = |ts, name: &str, args: &[(&str, u64)]| AEvent {
            ts_ns: ts,
            kind: TraceKind::Instant,
            cat: "comm".into(),
            name: name.into(),
            args: args.iter().map(|&(k, v)| (k.to_string(), v)).collect(),
        };
        // Two sends same (src,dst,tag); only one recv traced (overflow
        // ate the other) plus one recv with no send at all.
        let t0 = ATrack {
            rank: 0,
            label: "a".into(),
            events: vec![ev(10, "send", &[("tag", 7), ("to", 1)]), ev(20, "send", &[("tag", 7), ("to", 1)])],
        };
        let t1 = ATrack {
            rank: 1,
            label: "b".into(),
            events: vec![
                ev(30, "recv", &[("tag", 7), ("from", 0)]),
                ev(40, "recv", &[("tag", 9), ("from", 5)]),
            ],
        };
        let (edges, unpaired) = pair_edges(&[t0, t1]);
        assert_eq!(edges.len(), 1);
        assert_eq!(edges[0].send_ts_ns, 10, "FIFO: first send pairs first");
        assert_eq!(unpaired, 2, "one orphan send + one orphan recv");
    }

    #[test]
    fn attribution_partitions_wall_time() {
        let a = analyze(&synthetic_tracks(), 5);
        let r1 = &a.ranks[1];
        assert_eq!(r1.wall_ns, 2_000);
        assert_eq!(r1.wait_blocked_ns, 950);
        assert_eq!(r1.compute_ns, 1_000);
        assert_eq!(r1.barrier_ns, 0);
        assert_eq!(r1.idle_unattributed_ns, 50); // 950..1000 between wait end and batch
        assert!((r1.coverage() - 1.0).abs() < 1e-9);
        assert!(a.max_coverage_error() < 1e-9);
    }

    #[test]
    fn critical_path_crosses_the_send_edge() {
        let a = analyze(&synthetic_tracks(), 5);
        assert!(!a.critical_path.is_empty());
        // Path: compute on rank 0 (until the send), the comm hop, then
        // rank 1 to the end: 50 ns outside any span (idle), then the
        // batch.
        let kinds: Vec<(&str, u64)> = a.critical_path.iter().map(|s| (s.kind.as_str(), s.rank)).collect();
        assert_eq!(kinds, vec![("compute", 0), ("comm", 1), ("idle", 1), ("compute", 1)]);
        assert_eq!(a.critical_path[0].start_ns, 0);
        assert_eq!(a.critical_path[0].end_ns, 900);
        assert_eq!(a.critical_path[1].label, "asm_m2w_grant", "tag 4 names itself");
        assert_eq!((a.critical_path[2].end_ns, a.critical_path[2].label.as_str()), (1_000, "unattributed"));
        assert_eq!(a.critical_path[3].end_ns, 2_000);
        assert_eq!(a.critical_path[3].label, "align_batch");
    }

    #[test]
    fn gaps_are_blamed_on_the_awaited_tag() {
        let a = analyze(&synthetic_tracks(), 5);
        assert_eq!(a.top_gaps.len(), 1);
        assert_eq!(a.top_gaps[0].rank, 1);
        assert_eq!(a.top_gaps[0].dur_ns, 950);
        assert_eq!(a.top_gaps[0].blame, "asm_m2w_grant");
    }

    /// Two ranks passing one token back and forth, twice in a `cluster`
    /// stage window on that stage's report tag (1) and once in an
    /// `assemble` one on its own (3).
    fn ping_pong() -> Vec<ATrack> {
        use TraceKind::{Begin, End, Instant};
        let work = |from, to| {
            [ev(from, Begin, "align", "align_batch", &[]), ev(to, End, "align", "align_batch", &[])]
        };
        let wait = |from, to| [ev(from, Begin, "comm", "wait", &[]), ev(to, End, "comm", "wait", &[])];
        let send = |ts, tag, to| ev(ts, Instant, "comm", "send", &[("tag", tag), ("to", to)]);
        let recv = |ts, tag, from| ev(ts, Instant, "comm", "recv", &[("tag", tag), ("from", from)]);
        let r0: [&[AEvent]; 6] = [
            &work(0, 100),
            &[send(100, 1, 1)],
            &wait(100, 210),
            &[recv(210, 1, 1)],
            &work(220, 350),
            &[send(350, 3, 1)],
        ];
        let r1: [&[AEvent]; 7] = [
            &wait(0, 110),
            &[recv(110, 1, 0)],
            &work(110, 200),
            &[send(200, 1, 0)],
            &wait(220, 360),
            &[recv(360, 3, 0)],
            &work(360, 450),
        ];
        // A span nested in a stage (the run's cache traffic, a phase
        // measured on rank clocks) is no stage window of its own.
        let stages = [
            ev(0, Begin, "stage", "cluster", &[]),
            ev(5, Begin, "stage", "gst_build", &[]),
            ev(90, End, "stage", "gst_build", &[]),
            ev(215, End, "stage", "cluster", &[]),
            ev(215, Begin, "stage", "assemble", &[]),
            ev(460, End, "stage", "assemble", &[]),
        ];
        vec![
            ATrack { rank: 0, label: "master".into(), events: r0.concat() },
            ATrack { rank: 1, label: "worker".into(), events: r1.concat() },
            ATrack { rank: 2, label: "pipeline".into(), events: stages.to_vec() },
        ]
    }

    #[test]
    fn a_stage_no_rank_records_in_is_the_pipeline_tracks_row() {
        use TraceKind::{Begin, End};
        let stage = |name, from, to| [ev(from, Begin, "stage", name, &[]), ev(to, End, "stage", name, &[])];
        let gst = stage("gst_build", 110, 250);
        let cluster = [&stage("cluster", 100, 400)[..1], &gst, &stage("cluster", 100, 400)[1..]].concat();
        let pipeline = |rank, events: Vec<AEvent>| ATrack { rank, label: "pipeline".into(), events };
        let rows = |tracks: &[ATrack]| -> Vec<(String, u64, u64, u64, u64)> {
            let a = analyze(tracks, 0);
            a.stages
                .into_iter()
                .map(|s| (s.stage, s.wall_ns, s.compute_ns, s.wait_blocked_ns, s.barrier_ns))
                .collect()
        };
        // A serial run: the pipeline track is the only track, and each
        // stage's compute is its whole window (the thread never blocks).
        let serial = [&stage("preprocess", 0, 100)[..], &cluster, &stage("assemble", 400, 700)].concat();
        assert_eq!(
            rows(&[pipeline(0, serial)]),
            [
                ("preprocess".to_string(), 100, 100, 0, 0),
                ("cluster".to_string(), 300, 300, 0, 0),
                ("assemble".to_string(), 300, 300, 0, 0),
            ]
        );
        // On ranks, preprocessing still runs before any rank starts; the
        // cluster window is the rank's alone.
        let work = [ev(500, Begin, "align", "align_batch", &[]), ev(600, End, "align", "align_batch", &[])];
        let ranks = [
            ATrack { rank: 0, label: "master".into(), events: work.to_vec() },
            pipeline(1, [&stage("preprocess", 0, 400)[..], &stage("cluster", 400, 700)].concat()),
        ];
        assert_eq!(
            rows(&ranks),
            [("preprocess".to_string(), 400, 400, 0, 0), ("cluster".to_string(), 300, 100, 0, 0)]
        );
    }

    #[test]
    fn ping_pong_path_alternates_ranks_and_blames_each_stages_own_label() {
        let a = analyze(&ping_pong(), 5);
        assert_eq!((a.edges_paired, a.edges_unpaired), (3, 0));
        let windows: Vec<(&str, u64)> = a.stages.iter().map(|s| (s.stage.as_str(), s.wall_ns)).collect();
        assert_eq!(windows, [("cluster", 215), ("assemble", 245)]);
        // Each rank's work and waits, in the window they fell in.
        let rows: Vec<(u64, u64)> = a.stages.iter().map(|s| (s.compute_ns, s.wait_blocked_ns)).collect();
        assert_eq!(rows, [(100 + 90, 110 + 110), (130 + 90, 140)]);
        let path: Vec<(&str, u64, u64, &str)> =
            a.critical_path.iter().map(|s| (s.kind.as_str(), s.rank, s.end_ns, s.label.as_str())).collect();
        // Every message moves the path to the rank that sent it, and it
        // ends on the rank that computed last.
        let expected = [
            ("compute", 0, 100, "align_batch"),
            ("comm", 1, 110, "w2m_report"),
            ("compute", 1, 200, "align_batch"),
            ("comm", 0, 210, "w2m_report"),
            ("idle", 0, 220, "unattributed"),
            ("compute", 0, 350, "align_batch"),
            ("comm", 1, 360, "asm_w2m_report"),
            ("compute", 1, 450, "align_batch"),
        ];
        assert_eq!(path, expected);
        // The same wait, ranked as a gap, carries the same blame.
        let blame = |start| a.top_gaps.iter().find(|g| g.start_ns == start).map(|g| g.blame.as_str());
        assert_eq!((blame(100), blame(220)), (Some("w2m_report"), Some("asm_w2m_report")));
    }

    #[test]
    fn barrier_hops_to_the_last_arriving_rank() {
        let ev = |ts, kind, cat: &str, name: &str| AEvent {
            ts_ns: ts,
            kind,
            cat: cat.into(),
            name: name.into(),
            args: BTreeMap::new(),
        };
        // Rank 0 enters its barrier at 100 and leaves at 1000; rank 1
        // computes until 990, enters, both leave ~1000. The path must
        // blame rank 1's compute, not rank 0's wait.
        let t0 = ATrack {
            rank: 0,
            label: "master".into(),
            events: vec![
                ev(0, TraceKind::Begin, "gst", "gst_build"),
                ev(100, TraceKind::End, "gst", "gst_build"),
                ev(100, TraceKind::Begin, "comm", "barrier"),
                ev(1_000, TraceKind::End, "comm", "barrier"),
                ev(1_000, TraceKind::Begin, "master", "dispatch"),
                ev(1_500, TraceKind::End, "master", "dispatch"),
            ],
        };
        let t1 = ATrack {
            rank: 1,
            label: "worker".into(),
            events: vec![
                ev(0, TraceKind::Begin, "gst", "gst_build"),
                ev(990, TraceKind::End, "gst", "gst_build"),
                ev(990, TraceKind::Begin, "comm", "barrier"),
                ev(1_000, TraceKind::End, "comm", "barrier"),
            ],
        };
        let a = analyze(&[t0, t1], 5);
        let kinds: Vec<(&str, u64)> = a.critical_path.iter().map(|s| (s.kind.as_str(), s.rank)).collect();
        assert_eq!(kinds, vec![("compute", 1), ("barrier", 0), ("compute", 0)]);
        assert_eq!(a.critical_path[0].end_ns, 990, "compute on the straggler until it arrives");
        assert_eq!(a.critical_path[0].label, "gst_build");
    }

    #[test]
    fn a_compute_segment_across_phases_names_each_phase() {
        use TraceKind::{Begin, End};
        const US: u64 = 1_000;
        // Rank 2 runs four GST phases with no wait between them, then
        // enters the barrier last; rank 1 waits there and dispatches
        // after it. Rank 2's one compute segment [0, 1 560 µs] splits at
        // every phase edge and around the sort nested in the
        // redistribution; the 200 ns and the 10 µs outside every span
        // are idle pieces of their own.
        let span = |from, to, name: &str| [ev(from, Begin, "gst", name, &[]), ev(to, End, "gst", name, &[])];
        let barrier =
            |from, to| [ev(from, Begin, "comm", "barrier", &[]), ev(to, End, "comm", "barrier", &[])];
        let redistribute = [
            ev(780 * US + 200, Begin, "gst", "gst_redistribute", &[]),
            ev(900 * US, Begin, "gst", "sort", &[]),
            ev(1_000 * US, End, "gst", "sort", &[]),
            ev(1_090 * US, End, "gst", "gst_redistribute", &[]),
        ];
        let r2: [&[AEvent]; 5] = [
            &span(0, 780 * US, "gst_count"),
            &redistribute,
            &span(1_100 * US, 1_460 * US, "gst_fetch"),
            &span(1_460 * US, 1_560 * US, "gst_build"),
            &barrier(1_560 * US, 1_600 * US),
        ];
        let r1: [&[AEvent]; 3] = [
            &span(0, 300 * US, "gst_count"),
            &barrier(300 * US, 1_600 * US),
            &span(1_600 * US, 1_700 * US, "dispatch"),
        ];
        let tracks = [
            ATrack { rank: 1, label: "worker".into(), events: r1.concat() },
            ATrack { rank: 2, label: "worker".into(), events: r2.concat() },
        ];
        let a = analyze(&tracks, 5);
        let path: Vec<(&str, u64, u64, u64, &str)> = a
            .critical_path
            .iter()
            .map(|s| (s.kind.as_str(), s.rank, s.start_ns / US, s.end_ns.div_ceil(US), s.label.as_str()))
            .collect();
        let expected = [
            ("compute", 2, 0, 780, "gst_count"),
            ("idle", 2, 780, 781, "unattributed"),
            ("compute", 2, 780, 900, "gst_redistribute"),
            ("compute", 2, 900, 1_000, "sort"),
            ("compute", 2, 1_000, 1_090, "gst_redistribute"),
            ("idle", 2, 1_090, 1_100, "unattributed"),
            ("compute", 2, 1_100, 1_460, "gst_fetch"),
            ("compute", 2, 1_460, 1_560, "gst_build"),
            ("barrier", 1, 1_560, 1_600, "barrier"),
            ("compute", 1, 1_600, 1_700, "dispatch"),
        ];
        assert_eq!(path, expected);
        assert_eq!((a.critical_path[1].start_ns, a.critical_path[1].end_ns), (780 * US, 780 * US + 200));
    }

    #[test]
    fn time_outside_every_span_is_idle_on_the_path_and_in_the_rank_row() {
        use TraceKind::{Begin, End};
        // Spans [0, 10] and [14, 20] with nothing over [10, 14] — the
        // shape of a worker between the cluster and assemble stages.
        let events = vec![
            ev(0, Begin, "align", "align_batch", &[]),
            ev(10, End, "align", "align_batch", &[]),
            ev(14, Begin, "assemble", "assemble_cluster", &[]),
            ev(20, End, "assemble", "assemble_cluster", &[]),
        ];
        let a = analyze(&[ATrack { rank: 1, label: "worker".into(), events }], 5);
        let path: Vec<(&str, u64, u64)> =
            a.critical_path.iter().map(|s| (s.kind.as_str(), s.start_ns, s.end_ns)).collect();
        assert_eq!(path, [("compute", 0, 10), ("idle", 10, 14), ("compute", 14, 20)]);
        let idle: u64 =
            a.critical_path.iter().filter(|s| s.kind == "idle").map(|s| s.end_ns - s.start_ns).sum();
        assert_eq!((idle, a.ranks[0].idle_unattributed_ns), (4, 4));
        assert_eq!(a.ranks[0].compute_ns, 16);
    }

    #[test]
    fn chrome_round_trip_preserves_analysis() {
        // Record with real tracers, export to Chrome JSON, parse back,
        // and check the analyzer sees the same edge.
        let spec = TraceSpec::with_capacity(64);
        let mut a = spec.tracer(0, "master");
        let mut b = spec.tracer(1, "worker");
        a.begin(TraceCategory::Master, names::EV_DISPATCH, &[]);
        a.counter(TraceCategory::Master, names::GAUGE_PENDING_TASKS, 9);
        a.instant(TraceCategory::Comm, names::EV_SEND, &[("tag", 2), ("bytes", 32), ("to", 1)]);
        a.end(TraceCategory::Master, names::EV_DISPATCH);
        b.begin(TraceCategory::Comm, names::EV_WAIT, &[]);
        b.end(TraceCategory::Comm, names::EV_WAIT);
        b.instant(TraceCategory::Comm, names::EV_RECV, &[("tag", 2), ("bytes", 32), ("from", 0)]);
        let doc = crate::trace::Trace::new(vec![a.finish(), b.finish()]);
        let parsed = Json::parse(&doc.to_chrome_json().pretty()).unwrap();
        let tracks = parse_chrome_trace(&parsed).unwrap();
        assert_eq!(tracks.len(), 2);
        assert_eq!(tracks[0].label, "master");
        // The gauge sample sits on its rank's track, inside the span it
        // was taken in, and takes no part in span pairing.
        let gauge = &tracks[0].events[1];
        assert_eq!((gauge.kind, gauge.arg("value")), (TraceKind::Counter, Some(9)));
        assert_eq!(
            compute_pieces(&tracks[0], gauge.ts_ns, gauge.ts_ns + 1)[0].2.as_deref(),
            Some("dispatch")
        );
        assert!(analyze(&tracks, 5).max_coverage_error() < 1e-9);
        let (edges, unpaired) = pair_edges(&tracks);
        assert_eq!(edges.len(), 1);
        assert_eq!(unpaired, 0);
        assert_eq!((edges[0].src, edges[0].dst, edges[0].tag), (0, 1, 2));
    }

    /// A document of one `thread_name` record followed by `events`.
    fn doc(events: &[&str]) -> Json {
        let meta = r#"{"ph": "M", "tid": 0, "name": "thread_name", "args": {"name": "rank 0 · master"}}"#;
        Json::parse(&format!(r#"{{"traceEvents": [{meta}, {}]}}"#, events.join(", "))).unwrap()
    }

    const B_WAIT: &str = r#"{"ph": "B", "tid": 0, "ts": 10, "cat": "comm", "name": "wait"}"#;
    const E_WAIT: &str = r#"{"ph": "E", "tid": 0, "ts": 20, "cat": "comm", "name": "wait"}"#;

    #[test]
    fn malformed_events_are_errors_naming_the_event() {
        let rows: [(&[&str], &str); 9] = [
            (&[r#"{"ph": "i", "tid": 0, "cat": "comm", "name": "send"}"#], "event 1: missing ts"),
            (&[r#"{"ph": "E", "tid": 0, "ts": 20, "name": "wait"}"#], "event 1: missing cat"),
            (&[r#"{"ph": "E", "tid": 0, "ts": 20, "cat": "comm"}"#], "event 1: missing name"),
            (
                &[B_WAIT, r#"{"ph": "E", "tid": 0, "ts": 5, "cat": "comm", "name": "wait"}"#],
                "event 2: ts 5 µs goes back in time on track 0",
            ),
            // An `E` must close a `B` of its own (cat, name), on its own
            // track, at most once.
            (
                &[B_WAIT, r#"{"ph": "E", "tid": 0, "ts": 20, "cat": "master", "name": "dispatch"}"#],
                "event 2: E 'dispatch' (master) on track 0 closes no open B",
            ),
            (
                &[B_WAIT, r#"{"ph": "E", "tid": 1, "ts": 20, "cat": "comm", "name": "wait"}"#],
                "event 2: E 'wait' (comm) on track 1 closes no open B",
            ),
            (&[B_WAIT, E_WAIT, E_WAIT], "event 3: E 'wait' (comm) on track 0 closes no open B"),
            (
                &[r#"{"ph": "C", "tid": 0, "ts": 1, "cat": "master", "name": "g"}"#],
                "event 1: counter 'g' has no numeric args.value",
            ),
            (
                &[r#"{"ph": "C", "tid": 0, "ts": 1, "cat": "master", "name": "g", "args": {"value": "9"}}"#],
                "event 1: counter 'g' has no numeric args.value",
            ),
        ];
        for (events, want) in rows {
            let err = parse_chrome_trace(&doc(events)).expect_err(want);
            assert!(err.starts_with(want), "{events:?}: {err}");
        }
    }

    #[test]
    fn an_unclosed_begin_parses_and_analyzes() {
        // A master killed inside a dispatch never closes it.
        let dispatch = r#"{"ph": "B", "tid": 0, "ts": 0, "cat": "master", "name": "dispatch"}"#;
        let tracks = parse_chrome_trace(&doc(&[dispatch, B_WAIT, E_WAIT])).unwrap();
        let a = analyze(&tracks, 5);
        // The open span is work until the track's last event.
        let r = &a.ranks[0];
        assert_eq!((r.wall_ns, r.wait_blocked_ns, r.compute_ns), (20_000, 10_000, 10_000));
        let path: Vec<(&str, &str)> =
            a.critical_path.iter().map(|s| (s.kind.as_str(), s.label.as_str())).collect();
        assert_eq!(path, [("compute", "dispatch"), ("comm", "wait")]);
    }

    #[test]
    fn analysis_json_has_the_gated_shape() {
        let a = analyze(&synthetic_tracks(), 3);
        let doc = Json::parse(&a.to_json().pretty()).unwrap();
        assert_eq!(doc.get("format").and_then(Json::as_str), Some("pgasm.analysis"));
        assert_eq!(doc.get("schema_version").and_then(Json::as_u64), Some(3));
        assert_eq!(doc.get("edges_paired").and_then(Json::as_u64), Some(1));
        assert!(doc.get("ranks").and_then(Json::as_arr).is_some_and(|r| r.len() == 2));
        assert!(doc.get("critical_path").and_then(Json::as_arr).is_some_and(|p| !p.is_empty()));
        let rendered = a.render();
        assert!(rendered.contains("critical path"));
        assert!(rendered.contains("attribution"));
    }

    #[test]
    fn render_folds_sub_microsecond_idle_path_pieces_into_one_line() {
        let seg = |kind: &str, start_ns: u64, end_ns: u64, label: &str| PathSegment {
            rank: 1,
            kind: kind.into(),
            start_ns,
            end_ns,
            label: label.into(),
        };
        let a = Analysis {
            critical_path: vec![
                seg("compute", 0, 2_000_000, "align"),
                seg("idle", 2_000_000, 2_000_400, "unattributed"),
                seg("compute", 2_000_400, 3_000_000, "align"),
                seg("idle", 3_000_000, 3_000_600, "unattributed"),
                seg("idle", 3_000_600, 3_050_600, "unattributed"),
                // Short pieces of every kind fold, not only idle ones.
                seg("comm", 3_050_600, 3_060_000, "asm_m2w_grant"),
                seg("compute", 3_060_000, 3_062_000, "dispatch"),
                // Over a microsecond, under 1% of the 3.067 ms path.
                seg("idle", 3_062_000, 3_067_000, "unattributed"),
            ],
            ..Analysis::default()
        };
        let rendered = a.render();
        let path: Vec<&str> = rendered
            .lines()
            .skip_while(|l| !l.starts_with("critical path"))
            .take_while(|l| !l.starts_with("top idle gaps"))
            .collect();
        assert_eq!(
            path,
            [
                "critical path (8 segment(s)):",
                "  rank 1   compute       2.00 ms  [0.00..2.00]  align",
                "  rank 1   compute       1.00 ms  [2.00..3.00]  align",
                "  rank 1   idle          0.05 ms  [3.00..3.05]  unattributed",
                "  + 5 piece(s) under 30.67 us, 17.400 us in all: comm 1, compute 1, idle 3",
            ]
        );
        // The JSON keeps every piece.
        let doc = Json::parse(&a.to_json().pretty()).unwrap();
        assert_eq!(doc.get("critical_path").and_then(Json::as_arr).map(|p| p.len()), Some(8));
        // On a short path the microsecond floor decides alone.
        let short = Analysis {
            critical_path: vec![
                seg("compute", 0, 20_000, "align"),
                seg("idle", 20_000, 20_150, "unattributed"),
            ],
            ..Analysis::default()
        };
        assert!(short.render().contains("  + 1 piece(s) under 1.00 us, 0.150 us in all: idle 1"));
    }
}

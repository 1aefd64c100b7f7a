//! Post-run critical-path and wall-time-attribution analysis.
//!
//! Consumes the artifacts a traced run already writes — the Chrome
//! trace-event JSON (`--trace-json`) and optionally the structured run
//! report (`--metrics-json`) — and answers the scaling question the
//! raw Perfetto dump leaves to the reader's eye: *which rank, phase,
//! and message class is the run actually waiting on?*
//!
//! Three derived products:
//!
//! - **Happens-before edges**: every `send` instant (args `tag`,
//!   `bytes`, `to`) is paired with the matching `recv` instant (args
//!   `tag`, `from`) by per-`(src, dst, tag)` FIFO order — exact,
//!   because the simulated transport preserves per-sender FIFO and a
//!   rank's track id is its comm rank in every stage of the run.
//! - **Wall-time attribution** per rank: `{compute, wait_blocked,
//!   barrier, comm_modelled, idle_unattributed}`, built from span
//!   interval unions so the categories sum to the rank's measured wall
//!   time (the CI gate asserts the residual stays within tolerance —
//!   a sum drifting past it means mis-paired spans, i.e. a tracing
//!   bug, not noise).
//! - **The critical path**: a backward walk from the globally last
//!   event; compute segments run until the rank was last blocked, a
//!   `wait` hops along the matched send edge to the sending rank, a
//!   `barrier` hops to the last rank entering that barrier instance.
//!
//! Everything here is pure data analysis over parsed events — no
//! clocks, no I/O — so it unit-tests on synthetic traces.

use crate::json::Json;
use crate::report::RunReport;
use crate::trace::{RankTrace, TraceKind};
use std::collections::{BTreeMap, BTreeSet};

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
    /// Convert an in-memory [`RankTrace`] (for in-process analysis and
    /// tests; file-based callers use [`parse_chrome_trace`]).
    pub fn from_rank_trace(t: &RankTrace) -> ATrack {
        ATrack {
            rank: t.rank as u64,
            label: t.label.clone(),
            events: t
                .events
                .iter()
                .map(|e| AEvent {
                    ts_ns: e.ts_ns,
                    kind: e.kind,
                    cat: e.cat.label().to_string(),
                    name: e.name.to_string(),
                    args: e
                        .args
                        .iter()
                        .filter(|(k, _)| !k.is_empty())
                        .map(|&(k, v)| (k.to_string(), v))
                        .collect(),
                })
                .collect(),
        }
    }

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
pub fn parse_chrome_trace(doc: &Json) -> Result<Vec<ATrack>, String> {
    let events = doc.get("traceEvents").and_then(Json::as_arr).ok_or("missing traceEvents array")?;
    let mut tracks: BTreeMap<u64, ATrack> = BTreeMap::new();
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
        let args = e
            .get("args")
            .and_then(Json::as_obj)
            .map(|obj| obj.iter().filter_map(|(k, v)| Some((k.clone(), v.as_u64()?))).collect())
            .unwrap_or_default();
        track.events.push(AEvent {
            ts_ns: (ts_us * 1e3).round() as u64,
            kind,
            cat: e.get("cat").and_then(Json::as_str).unwrap_or_default().to_string(),
            name: e.get("name").and_then(Json::as_str).unwrap_or_default().to_string(),
            args,
        });
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
            if e.kind == TraceKind::Instant && e.name == crate::names::EV_SEND {
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
            if e.kind == TraceKind::Instant && e.name == crate::names::EV_RECV {
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
            (crate::names::EV_WAIT, TraceKind::Begin) => open_wait = Some(e.ts_ns),
            (crate::names::EV_WAIT, TraceKind::End) => {
                if let Some(start) = open_wait.take() {
                    // The message that ended the wait is delivered (and
                    // its recv instant recorded) right after the span
                    // closes.
                    let awaited_tag = track.events[i..]
                        .iter()
                        .find(|n| n.kind == TraceKind::Instant && n.name == crate::names::EV_RECV)
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
            (crate::names::EV_BARRIER, TraceKind::Begin) => open_barrier = Some(e.ts_ns),
            (crate::names::EV_BARRIER, TraceKind::End) => {
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

/// Wall-time attribution for one rank, all in nanoseconds. The five
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
    /// α–β modelled transfer cost from the metrics report (capped at
    /// the otherwise-unattributed residual; zero without metrics).
    pub comm_modelled_ns: u64,
    /// Residual wall time no category claims.
    pub idle_unattributed_ns: u64,
}

impl RankAttribution {
    /// Sum of the five categories over the wall time (1.0 = perfect).
    pub fn coverage(&self) -> f64 {
        if self.wall_ns == 0 {
            return 1.0;
        }
        (self.compute_ns
            + self.wait_blocked_ns
            + self.barrier_ns
            + self.comm_modelled_ns
            + self.idle_unattributed_ns) as f64
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
            ("comm_modelled_ns", Json::Num(self.comm_modelled_ns as f64)),
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
    /// `"compute"`, `"comm"` (a send→recv hop), or `"barrier"`.
    pub kind: String,
    /// Segment start, nanoseconds since epoch.
    pub start_ns: u64,
    /// Segment end.
    pub end_ns: u64,
    /// Deepest enclosing span name (compute) or the tag/label blamed
    /// (comm/barrier).
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

/// Per-stage attribution rollup (summed over the ranks active inside
/// each stage window of the pipeline track).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct StageAttribution {
    /// Stage name (`"preprocess"`, `"cluster"`, `"assemble"`).
    pub stage: String,
    /// Stage window on the pipeline track, nanoseconds.
    pub wall_ns: u64,
    /// Summed over ranks, clipped to the stage window.
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
    /// Per-stage rollup (present when a pipeline track with stage
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

/// The pipeline track's `stage` spans as `(name, start, end)`, in time
/// order (stages run one after the other).
fn stage_windows(tracks: &[ATrack]) -> Vec<(&str, u64, u64)> {
    let mut windows = Vec::new();
    let mut open: BTreeMap<&str, u64> = BTreeMap::new();
    let pipeline = tracks.iter().find(|t| t.label == "pipeline");
    for e in pipeline.iter().flat_map(|t| &t.events).filter(|e| e.cat == "stage") {
        match e.kind {
            TraceKind::Begin => {
                open.insert(&e.name, e.ts_ns);
            }
            TraceKind::End => {
                if let Some(start) = open.remove(e.name.as_str()) {
                    windows.push((e.name.as_str(), start, e.ts_ns));
                }
            }
            TraceKind::Instant | TraceKind::Counter => {}
        }
    }
    windows
}

/// Numeric tag → the label the metrics report gave it, per stage. Both
/// engine stages use tags 1 and 2 and a rank's comm rows append in
/// stage order, so the k-th label a tag carries in the report belongs
/// to the k-th stage window the tag was seen in. Without a metrics
/// report every label is `tag N`; without a pipeline track the whole
/// trace is one window.
struct TagLabels {
    /// Per tag: `(window start, label)` of each stage it was used in.
    by_tag: BTreeMap<u64, Vec<(u64, String)>>,
}

impl TagLabels {
    fn new(edges: &[HbEdge], windows: &[(&str, u64, u64)], metrics: Option<&RunReport>) -> TagLabels {
        let mut labels: BTreeMap<u64, Vec<&str>> = BTreeMap::new();
        for row in metrics.iter().flat_map(|m| &m.ranks).flat_map(|r| &r.comm) {
            let known = labels.entry(row.tag as u64).or_default();
            if !known.contains(&row.label.as_str()) {
                known.push(&row.label);
            }
        }
        let mut seen: BTreeMap<u64, BTreeSet<u64>> = BTreeMap::new();
        for ed in edges {
            let window = windows.iter().find(|w| (w.1..=w.2).contains(&ed.send_ts_ns));
            seen.entry(ed.tag).or_default().insert(window.map_or(0, |w| w.1));
        }
        let by_tag = seen
            .into_iter()
            .filter_map(|(tag, starts)| {
                let named = starts.into_iter().zip(labels.get(&tag)?).map(|(s, l)| (s, l.to_string()));
                Some((tag, named.collect()))
            })
            .collect();
        TagLabels { by_tag }
    }

    /// Label of `tag` for an interval starting at `ts`.
    fn label(&self, tag: u64, ts: u64) -> String {
        let stages = self.by_tag.get(&tag).map(Vec::as_slice).unwrap_or_default();
        let stage = stages.iter().rev().find(|(start, _)| *start <= ts).or(stages.first());
        stage.map_or_else(|| format!("tag {tag}"), |(_, label)| label.clone())
    }
}

/// Run the analysis over parsed tracks plus the optional metrics
/// report (for α–β modelled comm attribution and tag labels).
/// `top_k` bounds the ranked idle-gap list.
pub fn analyze(tracks: &[ATrack], metrics: Option<&RunReport>, top_k: usize) -> Analysis {
    let (edges, edges_unpaired) = pair_edges(tracks);
    let blocked: BTreeMap<u64, Vec<Blocked>> = tracks.iter().map(|t| (t.rank, blocked_spans(t))).collect();

    // ---- per-rank attribution ---------------------------------------
    let mut ranks = Vec::new();
    for t in tracks {
        let wall_ns = t.last_ts().saturating_sub(t.first_ts());
        let b = &blocked[&t.rank];
        let wait_blocked_ns: u64 = b.iter().filter(|x| !x.barrier).map(|x| x.end_ns - x.start_ns).sum();
        let barrier_ns: u64 = b.iter().filter(|x| x.barrier).map(|x| x.end_ns - x.start_ns).sum();
        // Union of non-comm span intervals = "inside traced work".
        let mut depth = 0i64;
        let mut open_at = 0u64;
        let mut work: Vec<(u64, u64)> = Vec::new();
        for e in &t.events {
            if e.cat == "comm" {
                continue;
            }
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
        let work = merge_intervals(work);
        let blocked_iv = merge_intervals(b.iter().map(|x| (x.start_ns, x.end_ns)).collect());
        let compute_ns = subtract_len(&work, &blocked_iv);
        let attributed = compute_ns + wait_blocked_ns + barrier_ns;
        let residual = wall_ns.saturating_sub(attributed);
        // The α–β model prices this rank's sends; the transfer time is
        // real non-idle time the event stream cannot see (the simulator
        // doesn't sleep for it), so it claims residual first.
        let comm_modelled_ns = metrics
            .and_then(|m| m.ranks.iter().find(|r| r.rank as u64 == t.rank))
            .map(|r| (r.modelled_comm_seconds() * 1e9) as u64)
            .unwrap_or(0)
            .min(residual);
        ranks.push(RankAttribution {
            rank: t.rank,
            label: t.label.clone(),
            wall_ns,
            compute_ns,
            wait_blocked_ns,
            barrier_ns,
            comm_modelled_ns,
            idle_unattributed_ns: residual - comm_modelled_ns,
        });
    }
    ranks.sort_by_key(|r| r.rank);

    // ---- per-stage rollup -------------------------------------------
    let windows = stage_windows(tracks);
    let mut stages = Vec::new();
    for &(name, start, end) in &windows {
        let clip = |s: u64, t: u64| t.min(end).saturating_sub(s.max(start));
        let mut st = StageAttribution { stage: name.to_string(), wall_ns: end - start, ..Default::default() };
        for t in tracks.iter().filter(|t| t.label != "pipeline") {
            let mut blocked_in = 0;
            for b in &blocked[&t.rank] {
                let len = clip(b.start_ns, b.end_ns);
                blocked_in += len;
                if b.barrier {
                    st.barrier_ns += len;
                } else {
                    st.wait_blocked_ns += len;
                }
            }
            // Approximate per-stage compute by clipping the rank's
            // active range to the window, minus its blocked time there.
            st.compute_ns += clip(t.first_ts(), t.last_ts()).saturating_sub(blocked_in);
        }
        stages.push(st);
    }

    // ---- critical path ----------------------------------------------
    let labels = &TagLabels::new(&edges, &windows, metrics);
    let critical_path = critical_path(tracks, &blocked, &edges, labels);

    // ---- ranked idle gaps -------------------------------------------
    let mut top_gaps: Vec<IdleGap> = blocked
        .iter()
        .flat_map(|(&rank, list)| {
            list.iter().map(move |b| IdleGap {
                rank,
                start_ns: b.start_ns,
                dur_ns: b.end_ns - b.start_ns,
                blame: if b.barrier {
                    "barrier".to_string()
                } else {
                    match b.awaited_tag {
                        Some(tag) => labels.label(tag, b.start_ns),
                        None => "unknown".to_string(),
                    }
                },
            })
        })
        .collect();
    top_gaps.sort_by_key(|g| std::cmp::Reverse(g.dur_ns));
    top_gaps.truncate(top_k);

    Analysis { ranks, stages, critical_path, top_gaps, edges_paired: edges.len() as u64, edges_unpaired }
}

/// Deepest non-comm span enclosing `ts` on the track (for labelling
/// compute segments).
fn enclosing_span(track: &ATrack, ts: u64) -> Option<String> {
    let mut stack: Vec<&str> = Vec::new();
    for e in &track.events {
        if e.ts_ns > ts {
            break;
        }
        if e.cat == "comm" {
            continue;
        }
        match e.kind {
            TraceKind::Begin => stack.push(&e.name),
            TraceKind::End => {
                stack.pop();
            }
            TraceKind::Instant | TraceKind::Counter => {}
        }
    }
    stack.last().map(|s| s.to_string())
}

fn critical_path(
    tracks: &[ATrack],
    blocked: &BTreeMap<u64, Vec<Blocked>>,
    edges: &[HbEdge],
    labels: &TagLabels,
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
        let track = match tracks.iter().find(|t| t.rank == rank) {
            Some(t) => t,
            None => break,
        };
        let first = track.first_ts();
        // Latest blocked interval on this rank ending at or before the
        // cursor.
        let prev = blocked[&rank].iter().filter(|b| b.end_ns <= cursor).max_by_key(|b| b.end_ns);
        let Some(b) = prev else {
            if cursor > first {
                segments.push(PathSegment {
                    rank,
                    kind: "compute".into(),
                    start_ns: first,
                    end_ns: cursor,
                    label: enclosing_span(track, first.midpoint(cursor)).unwrap_or_else(|| "run".into()),
                });
            }
            break;
        };
        if cursor > b.end_ns {
            segments.push(PathSegment {
                rank,
                kind: "compute".into(),
                start_ns: b.end_ns,
                end_ns: cursor,
                label: enclosing_span(track, b.end_ns.midpoint(cursor)).unwrap_or_else(|| "run".into()),
            });
        }
        let (next_rank, next_ts, seg) = if b.barrier {
            // Jump to the last rank entering this barrier instance.
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
            match last_in {
                Some((r, start)) if start < b.end_ns => (
                    r,
                    start,
                    PathSegment {
                        rank,
                        kind: "barrier".into(),
                        start_ns: start,
                        end_ns: b.end_ns,
                        label: "barrier".into(),
                    },
                ),
                _ => (
                    rank,
                    b.start_ns,
                    PathSegment {
                        rank,
                        kind: "barrier".into(),
                        start_ns: b.start_ns,
                        end_ns: b.end_ns,
                        label: "barrier".into(),
                    },
                ),
            }
        } else {
            // Jump along the message that ended the wait: the first
            // recv at/after the wait's end, followed to its sender.
            let edge = track
                .events
                .iter()
                .find(|e| {
                    e.ts_ns >= b.end_ns && e.kind == TraceKind::Instant && e.name == crate::names::EV_RECV
                })
                .and_then(|recv| edges.iter().find(|ed| ed.dst == rank && ed.recv_ts_ns == recv.ts_ns));
            match edge {
                Some(ed) if ed.send_ts_ns < cursor => (
                    ed.src,
                    ed.send_ts_ns,
                    PathSegment {
                        rank,
                        kind: "comm".into(),
                        start_ns: ed.send_ts_ns,
                        end_ns: b.end_ns,
                        label: labels.label(ed.tag, b.start_ns),
                    },
                ),
                _ => (
                    rank,
                    b.start_ns,
                    PathSegment {
                        rank,
                        kind: "comm".into(),
                        start_ns: b.start_ns,
                        end_ns: b.end_ns,
                        label: match b.awaited_tag {
                            Some(t) => labels.label(t, b.start_ns),
                            None => "wait".into(),
                        },
                    },
                ),
            }
        };
        segments.push(seg);
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
            ("schema_version", Json::Num(1.0)),
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
    /// gaps.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let ms = |ns: u64| ns as f64 / 1e6;
        out.push_str("per-rank wall-time attribution (ms):\n");
        out.push_str(&format!(
            "  {:<4} {:<12} {:>9} {:>9} {:>9} {:>9} {:>9} {:>9}  {:>5}\n",
            "rank", "role", "wall", "compute", "wait", "barrier", "comm", "idle", "cover"
        ));
        for r in &self.ranks {
            out.push_str(&format!(
                "  {:<4} {:<12} {:>9.2} {:>9.2} {:>9.2} {:>9.2} {:>9.2} {:>9.2}  {:>4.0}%\n",
                r.rank,
                r.label,
                ms(r.wall_ns),
                ms(r.compute_ns),
                ms(r.wait_blocked_ns),
                ms(r.barrier_ns),
                ms(r.comm_modelled_ns),
                ms(r.idle_unattributed_ns),
                r.coverage() * 100.0
            ));
        }
        if !self.stages.is_empty() {
            out.push_str("per-stage rollup (ms, summed over ranks):\n");
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
        for seg in &self.critical_path {
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
        let a = analyze(&synthetic_tracks(), None, 5);
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
        let a = analyze(&synthetic_tracks(), None, 5);
        assert!(!a.critical_path.is_empty());
        // Path: compute on rank 0 (until the send), the comm hop, then
        // compute on rank 1 to the end.
        let kinds: Vec<(&str, u64)> = a.critical_path.iter().map(|s| (s.kind.as_str(), s.rank)).collect();
        assert_eq!(kinds, vec![("compute", 0), ("comm", 1), ("compute", 1)]);
        assert_eq!(a.critical_path[0].start_ns, 0);
        assert_eq!(a.critical_path[0].end_ns, 900);
        assert_eq!(a.critical_path[1].label, "tag 4");
        assert_eq!(a.critical_path[2].end_ns, 2_000);
        assert_eq!(a.critical_path[2].label, "align_batch");
    }

    #[test]
    fn gaps_are_blamed_on_the_awaited_tag() {
        let a = analyze(&synthetic_tracks(), None, 5);
        assert_eq!(a.top_gaps.len(), 1);
        assert_eq!(a.top_gaps[0].rank, 1);
        assert_eq!(a.top_gaps[0].dur_ns, 950);
        assert_eq!(a.top_gaps[0].blame, "tag 4");
    }

    /// Two ranks passing one token back and forth, twice in a `cluster`
    /// stage window and once in an `assemble` one, both stages using
    /// tag 1 under their own label.
    fn ping_pong() -> (Vec<ATrack>, RunReport) {
        use TraceKind::{Begin, End, Instant};
        let work = |from, to| {
            [ev(from, Begin, "align", "align_batch", &[]), ev(to, End, "align", "align_batch", &[])]
        };
        let wait = |from, to| [ev(from, Begin, "comm", "wait", &[]), ev(to, End, "comm", "wait", &[])];
        let send = |ts, to| ev(ts, Instant, "comm", "send", &[("tag", 1), ("to", to)]);
        let recv = |ts, from| ev(ts, Instant, "comm", "recv", &[("tag", 1), ("from", from)]);
        let r0: [&[AEvent]; 6] = [
            &work(0, 100),
            &[send(100, 1)],
            &wait(100, 210),
            &[recv(210, 1)],
            &work(220, 350),
            &[send(350, 1)],
        ];
        let r1: [&[AEvent]; 7] = [
            &wait(0, 110),
            &[recv(110, 0)],
            &work(110, 200),
            &[send(200, 0)],
            &wait(220, 360),
            &[recv(360, 0)],
            &work(360, 450),
        ];
        let stages = [
            ev(0, Begin, "stage", "cluster", &[]),
            ev(215, End, "stage", "cluster", &[]),
            ev(215, Begin, "stage", "assemble", &[]),
            ev(460, End, "stage", "assemble", &[]),
        ];
        let tracks = vec![
            ATrack { rank: 0, label: "master".into(), events: r0.concat() },
            ATrack { rank: 1, label: "worker".into(), events: r1.concat() },
            ATrack { rank: 2, label: "pipeline".into(), events: stages.to_vec() },
        ];
        let row = |label: &str| crate::TagStat {
            tag: 1,
            label: label.into(),
            msgs_sent: 1,
            bytes_sent: 0,
            msgs_recv: 1,
            bytes_recv: 0,
            modelled_seconds: 0.0,
        };
        let rank =
            crate::RankReport { comm: vec![row("w2m_report"), row("asm_w2m_report")], ..Default::default() };
        let metrics = RunReport {
            schema_version: crate::SCHEMA_VERSION,
            label: "ping-pong".into(),
            spans: Vec::new(),
            counters: BTreeMap::new(),
            ranks: vec![rank],
            faults: None,
        };
        (tracks, metrics)
    }

    #[test]
    fn ping_pong_path_alternates_ranks_and_blames_each_stages_own_label() {
        let (tracks, metrics) = ping_pong();
        let a = analyze(&tracks, Some(&metrics), 5);
        assert_eq!((a.edges_paired, a.edges_unpaired), (3, 0));
        let path: Vec<(&str, u64, u64, &str)> =
            a.critical_path.iter().map(|s| (s.kind.as_str(), s.rank, s.end_ns, s.label.as_str())).collect();
        // Every message moves the path to the rank that sent it, and it
        // ends on the rank that computed last.
        let expected = [
            ("compute", 0, 100, "align_batch"),
            ("comm", 1, 110, "w2m_report"),
            ("compute", 1, 200, "align_batch"),
            ("comm", 0, 210, "w2m_report"),
            ("compute", 0, 350, "align_batch"),
            ("comm", 1, 360, "asm_w2m_report"),
            ("compute", 1, 450, "align_batch"),
        ];
        assert_eq!(path, expected);
        // The same wait, ranked as a gap, carries the same blame.
        let blame = |start| a.top_gaps.iter().find(|g| g.start_ns == start).map(|g| g.blame.as_str());
        assert_eq!((blame(100), blame(220)), (Some("w2m_report"), Some("asm_w2m_report")));
        // Without the metrics report a tag has no name in any stage.
        let bare = analyze(&tracks, None, 5);
        assert!(bare.critical_path.iter().filter(|s| s.kind == "comm").all(|s| s.label == "tag 1"));
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
        let a = analyze(&[t0, t1], None, 5);
        let kinds: Vec<(&str, u64)> = a.critical_path.iter().map(|s| (s.kind.as_str(), s.rank)).collect();
        assert_eq!(kinds, vec![("compute", 1), ("barrier", 0), ("compute", 0)]);
        assert_eq!(a.critical_path[0].end_ns, 990, "compute on the straggler until it arrives");
        assert_eq!(a.critical_path[0].label, "gst_build");
    }

    #[test]
    fn chrome_round_trip_preserves_analysis() {
        // Record with real tracers, export to Chrome JSON, parse back,
        // and check the analyzer sees the same edge.
        let spec = TraceSpec::with_capacity(64);
        let mut a = spec.tracer(0, "master");
        let mut b = spec.tracer(1, "worker");
        a.begin(TraceCategory::Master, names::EV_DISPATCH);
        a.counter(TraceCategory::Master, names::GAUGE_PENDING_TASKS, 9);
        a.instant_args3(TraceCategory::Comm, names::EV_SEND, ("tag", 2), ("bytes", 32), ("to", 1));
        a.end(TraceCategory::Master, names::EV_DISPATCH);
        b.begin(TraceCategory::Comm, names::EV_WAIT);
        b.end(TraceCategory::Comm, names::EV_WAIT);
        b.instant_args3(TraceCategory::Comm, names::EV_RECV, ("tag", 2), ("bytes", 32), ("from", 0));
        let doc = crate::trace::Trace::new(vec![a.finish(), b.finish()]);
        let parsed = Json::parse(&doc.to_chrome_json().pretty()).unwrap();
        let tracks = parse_chrome_trace(&parsed).unwrap();
        assert_eq!(tracks.len(), 2);
        assert_eq!(tracks[0].label, "master");
        // The gauge sample sits on its rank's track, inside the span it
        // was taken in, and takes no part in span pairing.
        let gauge = &tracks[0].events[1];
        assert_eq!((gauge.kind, gauge.arg("value")), (TraceKind::Counter, Some(9)));
        assert_eq!(enclosing_span(&tracks[0], gauge.ts_ns).as_deref(), Some("dispatch"));
        assert!(analyze(&tracks, None, 5).max_coverage_error() < 1e-9);
        let (edges, unpaired) = pair_edges(&tracks);
        assert_eq!(edges.len(), 1);
        assert_eq!(unpaired, 0);
        assert_eq!((edges[0].src, edges[0].dst, edges[0].tag), (0, 1, 2));
    }

    #[test]
    fn analysis_json_has_the_gated_shape() {
        let a = analyze(&synthetic_tracks(), None, 3);
        let doc = Json::parse(&a.to_json().pretty()).unwrap();
        assert_eq!(doc.get("format").and_then(Json::as_str), Some("pgasm.analysis"));
        assert_eq!(doc.get("edges_paired").and_then(Json::as_u64), Some(1));
        assert!(doc.get("ranks").and_then(Json::as_arr).is_some_and(|r| r.len() == 2));
        assert!(doc.get("critical_path").and_then(Json::as_arr).is_some_and(|p| !p.is_empty()));
        let rendered = a.render();
        assert!(rendered.contains("critical path"));
        assert!(rendered.contains("attribution"));
    }
}

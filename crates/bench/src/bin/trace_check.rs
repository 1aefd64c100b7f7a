//! `trace_check` — structural validator for `pgasm --trace-json`
//! output, run by `ci.sh` after the traced smoke run.
//!
//! ```text
//! trace_check <trace.json> [--min-categories <n>] [--min-tracks <n>]
//!             [--max-dropped <n>] [--require <category>]...
//! ```
//!
//! Asserts the Chrome trace-event document is well-formed:
//!
//! - it parses, declares `schema_version`, and carries a `traceEvents`
//!   array of `B`/`E`/`i`/`C`/`M` events;
//! - timestamps are non-negative and non-decreasing per track (`tid`);
//! - every `B` has a matching `E` on the same track, category, and
//!   name — no dangling or crossing spans per (tid, cat, name);
//! - `C` counter samples carry an `args.value`;
//! - at least `--min-categories` distinct categories and
//!   `--min-tracks` distinct tracks appear (defaults 4 and 1);
//! - every `--require`d category (repeatable) appears at least once —
//!   `ci.sh` uses this to pin down phase coverage (e.g. the distributed
//!   assembly phase must emit `assemble` events);
//! - with `--max-dropped <n>`, no track's `dropped_events` metadata
//!   (event-ring overflow) exceeds `n` — `ci.sh`
//!   passes `--max-dropped 0` so a lossy trace fails loudly instead of
//!   silently skewing the critical-path analysis downstream.

use pgasm_telemetry::Json;
use std::collections::BTreeMap;
use std::process::ExitCode;

fn run() -> Result<String, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut path = None;
    let mut min_categories = 4usize;
    let mut min_tracks = 1usize;
    let mut max_dropped: Option<u64> = None;
    let mut required: Vec<String> = Vec::new();
    let mut i = 0;
    while i < argv.len() {
        match argv[i].as_str() {
            "--require" => {
                let value = argv.get(i + 1).ok_or_else(|| format!("{} needs a value", argv[i]))?;
                required.push(value.clone());
                i += 2;
            }
            "--min-categories" | "--min-tracks" => {
                let value = argv.get(i + 1).ok_or_else(|| format!("{} needs a value", argv[i]))?;
                let n: usize = value.parse().map_err(|_| format!("bad {} '{value}'", argv[i]))?;
                if argv[i] == "--min-categories" {
                    min_categories = n;
                } else {
                    min_tracks = n;
                }
                i += 2;
            }
            "--max-dropped" => {
                let value = argv.get(i + 1).ok_or_else(|| format!("{} needs a value", argv[i]))?;
                max_dropped = Some(value.parse().map_err(|_| format!("bad {} '{value}'", argv[i]))?);
                i += 2;
            }
            other if !other.starts_with("--") && path.is_none() => {
                path = Some(other.to_string());
                i += 1;
            }
            other => return Err(format!("unexpected argument '{other}'")),
        }
    }
    let path = path.ok_or(
        "usage: trace_check <trace.json> [--min-categories n] [--min-tracks n] [--max-dropped n] [--require cat]...",
    )?;
    let text = std::fs::read_to_string(&path).map_err(|e| format!("read {path}: {e}"))?;
    let doc = Json::parse(&text).map_err(|e| format!("parse {path}: {}", e.msg))?;

    doc.get("schema_version").and_then(Json::as_u64).ok_or("missing schema_version")?;
    let events = doc.get("traceEvents").and_then(Json::as_arr).ok_or("missing traceEvents array")?;

    // Per-track timestamp order and per-(tid, cat, name) span pairing.
    let mut last_ts: BTreeMap<u64, f64> = BTreeMap::new();
    let mut open: BTreeMap<(u64, String, String), u64> = BTreeMap::new();
    let mut categories: BTreeMap<String, u64> = BTreeMap::new();
    let mut tracks: BTreeMap<u64, u64> = BTreeMap::new();
    let mut timed = 0usize;
    let mut total_dropped = 0u64;
    for (n, e) in events.iter().enumerate() {
        let ph = e.get("ph").and_then(Json::as_str).ok_or(format!("event {n}: missing ph"))?;
        let tid = e.get("tid").and_then(Json::as_u64).ok_or(format!("event {n}: missing tid"))?;
        if ph == "M" {
            // thread_name metadata carries no timestamp, but does carry
            // the per-track overflow count that --max-dropped gates on.
            let dropped =
                e.get("args").and_then(|a| a.get("dropped_events")).and_then(Json::as_u64).unwrap_or(0);
            total_dropped += dropped;
            if let Some(cap) = max_dropped {
                if dropped > cap {
                    let label =
                        e.get("args").and_then(|a| a.get("name")).and_then(Json::as_str).unwrap_or("?");
                    return Err(format!(
                        "track {tid} ('{label}') dropped {dropped} event(s), max allowed {cap}"
                    ));
                }
            }
            continue;
        }
        let ts = e.get("ts").and_then(Json::as_f64).ok_or(format!("event {n}: missing ts"))?;
        let cat = e.get("cat").and_then(Json::as_str).ok_or(format!("event {n}: missing cat"))?;
        let name = e.get("name").and_then(Json::as_str).ok_or(format!("event {n}: missing name"))?;
        if ts < 0.0 {
            return Err(format!("event {n}: negative ts {ts}"));
        }
        if let Some(&prev) = last_ts.get(&tid) {
            if ts < prev {
                return Err(format!("event {n}: ts {ts} < {prev} on track {tid} (not monotonic)"));
            }
        }
        last_ts.insert(tid, ts);
        *categories.entry(cat.to_string()).or_default() += 1;
        *tracks.entry(tid).or_default() += 1;
        timed += 1;
        let key = (tid, cat.to_string(), name.to_string());
        match ph {
            "B" => *open.entry(key).or_default() += 1,
            "E" => {
                let depth = open
                    .get_mut(&key)
                    .ok_or(format!("event {n}: E '{name}' ({cat}) on track {tid} without a matching B"))?;
                *depth -= 1;
                if *depth == 0 {
                    open.remove(&key);
                }
            }
            "i" => {
                if e.get("s").and_then(Json::as_str) != Some("t") {
                    return Err(format!("event {n}: instant '{name}' missing thread scope s=t"));
                }
            }
            "C" => {
                if e.get("args").and_then(|a| a.get("value")).and_then(Json::as_f64).is_none() {
                    return Err(format!("event {n}: counter '{name}' missing args.value"));
                }
            }
            other => return Err(format!("event {n}: unknown ph '{other}'")),
        }
    }
    if let Some(((tid, cat, name), depth)) = open.iter().next() {
        return Err(format!("unclosed span '{name}' ({cat}) on track {tid}, depth {depth}"));
    }
    if categories.len() < min_categories {
        return Err(format!(
            "only {} categories ({:?}), need >= {min_categories}",
            categories.len(),
            categories.keys().collect::<Vec<_>>()
        ));
    }
    if tracks.len() < min_tracks {
        return Err(format!("only {} tracks, need >= {min_tracks}", tracks.len()));
    }
    for cat in &required {
        if !categories.contains_key(cat) {
            return Err(format!(
                "required category '{cat}' absent (saw {:?})",
                categories.keys().collect::<Vec<_>>()
            ));
        }
    }
    Ok(format!(
        "{path}: {timed} events on {} track(s), {} categories ({}), all spans paired, timestamps monotonic, {total_dropped} dropped",
        tracks.len(),
        categories.len(),
        categories.keys().cloned().collect::<Vec<_>>().join(", ")
    ))
}

fn main() -> ExitCode {
    match run() {
        Ok(summary) => {
            println!("trace_check: {summary}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("trace_check: FAIL: {e}");
            ExitCode::FAILURE
        }
    }
}

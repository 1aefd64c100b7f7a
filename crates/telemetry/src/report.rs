//! The immutable run report: spans + counters + per-rank channels,
//! with a stable JSON encoding (emit *and* parse, so reports can be
//! archived, diffed, and re-read by tooling).

use crate::json::{Json, JsonError};
use crate::span::Span;
use std::collections::BTreeMap;

/// Version of the `pgasm.run_report` JSON schema this crate writes and
/// reads. The optional `faults` section is omitted when a run has
/// nothing to put in it and parses back as absent; fields a parser does
/// not know are ignored. A document that does not declare a
/// `schema_version` is not a run report.
pub const SCHEMA_VERSION: u32 = 5;

/// Traffic and modelled cost for one message tag on one rank.
///
/// Collectives and the master–worker protocol each use distinct tags,
/// so per-tag rows double as a per-primitive communication breakdown.
#[derive(Debug, Clone, PartialEq)]
pub struct TagStat {
    /// The raw tag value.
    pub tag: u32,
    /// Human-readable tag name (`"bcast"`, `"w2m"`, …).
    pub label: String,
    /// Messages sent under this tag.
    pub msgs_sent: u64,
    /// Payload bytes sent under this tag.
    pub bytes_sent: u64,
    /// Messages received under this tag.
    pub msgs_recv: u64,
    /// Payload bytes received under this tag.
    pub bytes_recv: u64,
    /// α–β modelled seconds for this tag's traffic on this rank.
    pub modelled_seconds: f64,
}

impl TagStat {
    fn to_json(&self) -> Json {
        Json::obj(vec![
            ("tag", Json::Num(self.tag as f64)),
            ("label", Json::Str(self.label.clone())),
            ("msgs_sent", Json::Num(self.msgs_sent as f64)),
            ("bytes_sent", Json::Num(self.bytes_sent as f64)),
            ("msgs_recv", Json::Num(self.msgs_recv as f64)),
            ("bytes_recv", Json::Num(self.bytes_recv as f64)),
            ("modelled_seconds", Json::Num(self.modelled_seconds)),
        ])
    }

    fn from_json(v: &Json) -> Result<TagStat, JsonError> {
        Ok(TagStat {
            tag: v.get("tag").and_then(Json::as_u64).unwrap_or(0) as u32,
            label: v.get("label").and_then(Json::as_str).unwrap_or_default().to_string(),
            msgs_sent: v.get("msgs_sent").and_then(Json::as_u64).unwrap_or(0),
            bytes_sent: v.get("bytes_sent").and_then(Json::as_u64).unwrap_or(0),
            msgs_recv: v.get("msgs_recv").and_then(Json::as_u64).unwrap_or(0),
            bytes_recv: v.get("bytes_recv").and_then(Json::as_u64).unwrap_or(0),
            modelled_seconds: v.get("modelled_seconds").and_then(Json::as_f64).unwrap_or(0.0),
        })
    }
}

/// One rank's channel in the report: compute, idleness, its own
/// counters, and its per-tag communication rows.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct RankReport {
    /// Rank id within the parallel section.
    pub rank: usize,
    /// Role label (`"master"`, `"worker"`, `"gst"`, …).
    pub role: String,
    /// Thread CPU seconds this rank consumed.
    pub cpu_seconds: f64,
    /// Seconds blocked waiting (recv wait + barriers).
    pub idle_seconds: f64,
    /// Rank-local counters (pairs generated/aligned/accepted, batch
    /// round-trips, peak queue depth, …).
    pub counters: BTreeMap<String, u64>,
    /// Per-tag traffic rows, ascending by tag within each stage the
    /// rank took part in, stages in run order.
    pub comm: Vec<TagStat>,
}

impl RankReport {
    /// Counter lookup, zero when absent.
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Total modelled communication seconds across tags.
    pub fn modelled_comm_seconds(&self) -> f64 {
        self.comm.iter().map(|t| t.modelled_seconds).sum()
    }

    fn to_json(&self) -> Json {
        Json::obj(vec![
            ("rank", Json::Num(self.rank as f64)),
            ("role", Json::Str(self.role.clone())),
            ("cpu_seconds", Json::Num(self.cpu_seconds)),
            ("idle_seconds", Json::Num(self.idle_seconds)),
            ("counters", counters_to_json(&self.counters)),
            ("comm", Json::Arr(self.comm.iter().map(TagStat::to_json).collect())),
        ])
    }

    fn from_json(v: &Json) -> Result<RankReport, JsonError> {
        Ok(RankReport {
            rank: v.get("rank").and_then(Json::as_u64).unwrap_or(0) as usize,
            role: v.get("role").and_then(Json::as_str).unwrap_or_default().to_string(),
            cpu_seconds: v.get("cpu_seconds").and_then(Json::as_f64).unwrap_or(0.0),
            idle_seconds: v.get("idle_seconds").and_then(Json::as_f64).unwrap_or(0.0),
            counters: counters_from_json(v.get("counters"))?,
            comm: v
                .get("comm")
                .and_then(Json::as_arr)
                .unwrap_or_default()
                .iter()
                .map(TagStat::from_json)
                .collect::<Result<_, _>>()?,
        })
    }
}

/// Fault-injection and recovery digest for one run. Present only when
/// the run injected faults, recovered leases, or wrote checkpoints — a
/// clean run omits the section entirely.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct FaultSummary {
    /// Ranks the fault plan killed.
    pub kills_injected: u64,
    /// Worker ranks the master marked dead (notice or liveness).
    pub dead_ranks: u64,
    /// Tasks re-queued from dead workers' leases and re-executed.
    pub recovered_tasks: u64,
    /// Messages the fault plan discarded at the sender.
    pub msgs_dropped: u64,
    /// Messages the fault plan held back and delivered late.
    pub msgs_delayed: u64,
    /// Bytes of master checkpoint snapshots written.
    pub ckpt_bytes: u64,
}

impl FaultSummary {
    /// True when nothing fault-related happened — the report omits the
    /// section.
    pub fn is_empty(&self) -> bool {
        *self == FaultSummary::default()
    }

    fn to_json(&self) -> Json {
        Json::obj(vec![
            ("kills_injected", Json::Num(self.kills_injected as f64)),
            ("dead_ranks", Json::Num(self.dead_ranks as f64)),
            ("recovered_tasks", Json::Num(self.recovered_tasks as f64)),
            ("msgs_dropped", Json::Num(self.msgs_dropped as f64)),
            ("msgs_delayed", Json::Num(self.msgs_delayed as f64)),
            ("ckpt_bytes", Json::Num(self.ckpt_bytes as f64)),
        ])
    }

    fn from_json(v: &Json) -> FaultSummary {
        let n = |k: &str| v.get(k).and_then(Json::as_u64).unwrap_or(0);
        FaultSummary {
            kills_injected: n("kills_injected"),
            dead_ranks: n("dead_ranks"),
            recovered_tasks: n("recovered_tasks"),
            msgs_dropped: n("msgs_dropped"),
            msgs_delayed: n("msgs_delayed"),
            ckpt_bytes: n("ckpt_bytes"),
        }
    }
}

fn counters_to_json(counters: &BTreeMap<String, u64>) -> Json {
    Json::Obj(counters.iter().map(|(k, v)| (k.clone(), Json::Num(*v as f64))).collect())
}

fn counters_from_json(v: Option<&Json>) -> Result<BTreeMap<String, u64>, JsonError> {
    let mut out = BTreeMap::new();
    if let Some(obj) = v.and_then(Json::as_obj) {
        for (k, val) in obj {
            out.insert(
                k.clone(),
                val.as_u64().ok_or(JsonError {
                    msg: format!("counter '{k}' is not a non-negative integer"),
                    at: 0,
                })?,
            );
        }
    }
    Ok(out)
}

/// The complete, immutable record of one run.
#[derive(Debug, Clone, PartialEq)]
pub struct RunReport {
    /// JSON schema version this report was written with (see
    /// [`SCHEMA_VERSION`]).
    pub schema_version: u32,
    /// Run label (command line, experiment id, …).
    pub label: String,
    /// Top-level span trees, in execution order.
    pub spans: Vec<Span>,
    /// Run-global counters.
    pub counters: BTreeMap<String, u64>,
    /// Per-rank channels from the run's parallel section.
    pub ranks: Vec<RankReport>,
    /// Fault-injection / recovery digest; absent for clean runs.
    pub faults: Option<FaultSummary>,
}

impl RunReport {
    /// Span lookup by `/`-separated path from a root span, e.g.
    /// `"pipeline/cluster"`.
    pub fn span(&self, path: &str) -> Option<&Span> {
        self.spans.iter().find_map(|s| s.find(path))
    }

    /// Wall seconds of a span path, zero when absent (convenient for
    /// table rows).
    pub fn wall(&self, path: &str) -> f64 {
        self.span(path).map(|s| s.wall_seconds).unwrap_or(0.0)
    }

    /// Counter lookup, zero when absent.
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Largest idle share among worker ranks: idle / (cpu + idle).
    pub fn max_idle_fraction(&self) -> f64 {
        self.ranks
            .iter()
            .map(|r| {
                let busy = r.cpu_seconds + r.idle_seconds;
                if busy > 0.0 {
                    r.idle_seconds / busy
                } else {
                    0.0
                }
            })
            .fold(0.0, f64::max)
    }

    /// Structured JSON value.
    pub fn to_json(&self) -> Json {
        let mut fields = vec![
            ("format", Json::Str("pgasm.run_report".into())),
            ("schema_version", Json::Num(self.schema_version as f64)),
            ("label", Json::Str(self.label.clone())),
            ("spans", Json::Arr(self.spans.iter().map(Span::to_json).collect())),
            ("counters", counters_to_json(&self.counters)),
            ("ranks", Json::Arr(self.ranks.iter().map(RankReport::to_json).collect())),
        ];
        if let Some(f) = &self.faults {
            fields.push(("faults", f.to_json()));
        }
        Json::obj(fields)
    }

    /// Pretty-printed JSON document.
    pub fn to_json_string(&self) -> String {
        self.to_json().pretty()
    }

    /// Decode a report from its JSON value.
    pub fn from_json(v: &Json) -> Result<RunReport, JsonError> {
        if v.get("format").and_then(Json::as_str) != Some("pgasm.run_report") {
            return Err(JsonError { msg: "not a pgasm.run_report document".into(), at: 0 });
        }
        // Unknown fields are ignored, so documents from *newer* writers
        // still parse.
        let schema_version = v
            .get("schema_version")
            .and_then(Json::as_u64)
            .ok_or_else(|| JsonError { msg: "run report declares no schema_version".into(), at: 0 })?
            as u32;
        Ok(RunReport {
            schema_version,
            label: v.get("label").and_then(Json::as_str).unwrap_or_default().to_string(),
            spans: v
                .get("spans")
                .and_then(Json::as_arr)
                .unwrap_or_default()
                .iter()
                .map(Span::from_json)
                .collect::<Result<_, _>>()?,
            counters: counters_from_json(v.get("counters"))?,
            ranks: v
                .get("ranks")
                .and_then(Json::as_arr)
                .unwrap_or_default()
                .iter()
                .map(RankReport::from_json)
                .collect::<Result<_, _>>()?,
            faults: v.get("faults").map(FaultSummary::from_json),
        })
    }

    /// Parse a JSON document string into a report.
    pub fn from_json_str(s: &str) -> Result<RunReport, JsonError> {
        RunReport::from_json(&Json::parse(s)?)
    }

    /// Write the pretty JSON document to `path`.
    pub fn write_json(&self, path: &std::path::Path) -> std::io::Result<()> {
        std::fs::write(path, self.to_json_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> RunReport {
        RunReport {
            schema_version: SCHEMA_VERSION,
            label: "unit".into(),
            spans: vec![Span {
                name: "pipeline".into(),
                wall_seconds: 2.0,
                cpu_seconds: 1.5,
                children: vec![
                    Span { name: "preprocess".into(), wall_seconds: 0.5, cpu_seconds: 0.5, children: vec![] },
                    Span { name: "cluster".into(), wall_seconds: 1.5, cpu_seconds: 1.0, children: vec![] },
                ],
            }],
            counters: BTreeMap::from([
                ("pairs_generated".to_string(), 120u64),
                ("pairs_aligned".to_string(), 80),
                ("pairs_accepted".to_string(), 33),
            ]),
            ranks: vec![RankReport {
                rank: 1,
                role: "worker".into(),
                cpu_seconds: 0.75,
                idle_seconds: 0.25,
                counters: BTreeMap::from([("batches".to_string(), 9u64)]),
                comm: vec![TagStat {
                    tag: 1,
                    label: "w2m".into(),
                    msgs_sent: 9,
                    bytes_sent: 1800,
                    msgs_recv: 10,
                    bytes_recv: 2000,
                    modelled_seconds: 1e-4,
                }],
            }],
            faults: Some(FaultSummary {
                kills_injected: 1,
                dead_ranks: 1,
                recovered_tasks: 12,
                msgs_dropped: 2,
                msgs_delayed: 1,
                ckpt_bytes: 4096,
            }),
        }
    }

    #[test]
    fn json_round_trip_is_lossless() {
        let report = sample();
        let text = report.to_json_string();
        let back = RunReport::from_json_str(&text).unwrap();
        assert_eq!(back, report);
    }

    #[test]
    fn span_path_and_counter_lookups() {
        let report = sample();
        assert_eq!(report.wall("pipeline/cluster"), 1.5);
        assert_eq!(report.wall("pipeline/missing"), 0.0);
        assert_eq!(report.counter("pairs_accepted"), 33);
        assert_eq!(report.ranks[0].counter("batches"), 9);
        assert!((report.ranks[0].modelled_comm_seconds() - 1e-4).abs() < 1e-12);
        assert!((report.max_idle_fraction() - 0.25).abs() < 1e-12);
    }

    #[test]
    fn rejects_foreign_documents() {
        assert!(RunReport::from_json_str("{\"format\": \"other\"}").is_err());
        assert!(RunReport::from_json_str("[1,2]").is_err());
    }

    #[test]
    fn current_schema_round_trips_and_a_document_without_schema_version_is_an_error() {
        let report = sample();
        let text = report.to_json_string();
        assert!(!text.contains("\"version\""), "the legacy alias is no longer written");
        let back = RunReport::from_json_str(&text).unwrap();
        assert_eq!(back.schema_version, SCHEMA_VERSION);
        assert_eq!(back.faults, report.faults);
        // A run with nothing to put in the optional section writes no
        // key for it, and parses back without it.
        let mut bare = sample();
        bare.faults = None;
        let text = bare.to_json_string();
        assert!(!text.contains("\"faults\""));
        assert_eq!(RunReport::from_json_str(&text).unwrap(), bare);
        // The number under the old alias alone does not make a report.
        let legacy = "{\"format\": \"pgasm.run_report\", \"version\": 1, \"label\": \"old\"}";
        let err = RunReport::from_json_str(legacy).unwrap_err();
        assert!(err.msg.contains("schema_version"), "{}", err.msg);
    }

    #[test]
    fn forward_compat_ignores_unknown_fields() {
        // A hypothetical later writer added fields we don't know about;
        // parsing must still succeed and keep everything we do know.
        let future = concat!(
            "{\"format\": \"pgasm.run_report\", \"schema_version\": 6, ",
            "\"label\": \"future\", \"counters\": {\"merges\": 7}, ",
            "\"new_top_level_blob\": {\"x\": [1, 2, 3]}, ",
            "\"ranks\": [{\"rank\": 0, \"role\": \"master\", \"novel_rank_field\": 42}]}"
        );
        let report = RunReport::from_json_str(future).unwrap();
        assert_eq!(report.schema_version, 6);
        assert_eq!(report.counter("merges"), 7);
        assert_eq!(report.ranks[0].role, "master");
    }
}

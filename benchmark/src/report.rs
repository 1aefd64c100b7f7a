//! `results.json` (writer and reader), the driver's one-line result,
//! and `compare`, which applies the regression bounds to two result
//! files.

use crate::metrics::{Better, END_TO_END};
use crate::run::{Metric, Outcome};
use crate::stats;
use pgasm::telemetry::Json;

pub const FORMAT: &str = "pgasm.benchmark.results";

/// Facts about the host and the invocation, recorded with the numbers.
#[derive(Debug, Clone, PartialEq)]
pub struct Host {
    pub nproc: usize,
    pub loadavg_1m: f64,
    pub rustc: String,
    pub git_commit: String,
    pub seed: u64,
    pub seconds: f64,
    pub scale: f64,
}

#[derive(Debug, Clone, PartialEq)]
pub struct WorkloadResult {
    pub name: String,
    pub why: String,
    pub end_to_end: Outcome,
    pub per_layer: Outcome,
}

#[derive(Debug, Clone, PartialEq)]
pub struct Results {
    pub host: Host,
    pub build_s: f64,
    pub workloads: Vec<WorkloadResult>,
}

fn num(v: f64) -> Json {
    Json::Num(v)
}

fn text(s: &str) -> Json {
    Json::Str(s.to_string())
}

fn metric_json(m: &Metric) -> Json {
    let mut fields = vec![("value", num(m.value)), ("unit", text(&m.unit))];
    if !m.samples.is_empty() {
        let s = stats::summarize(&m.samples);
        fields.extend([
            ("n", num(s.n as f64)),
            ("min", num(s.min)),
            ("q1", num(s.q1)),
            ("median", num(s.median)),
            ("q3", num(s.q3)),
            ("max", num(s.max)),
            ("samples", Json::Arr(m.samples.iter().map(|&v| num(v)).collect())),
        ]);
    }
    Json::obj(fields)
}

fn outcome_json(o: &Outcome) -> Json {
    Json::obj(vec![
        ("correct", Json::Bool(o.correct())),
        ("attempted", num(o.attempted as f64)),
        ("failed", num(o.failed as f64)),
        ("failures", Json::Arr(o.failures.iter().map(|f| text(f)).collect())),
        ("metrics", Json::Obj(o.metrics.iter().map(|m| (m.name.clone(), metric_json(m))).collect())),
    ])
}

/// The last line of standard output the acceptance driver reads.
pub fn driver_line(o: &Outcome) -> String {
    Json::obj(vec![
        ("correct", Json::Bool(o.correct())),
        ("attempted", num(o.attempted as f64)),
        ("failed", num(o.failed as f64)),
        (
            "metrics",
            Json::Obj(
                o.metrics
                    .iter()
                    .map(|m| {
                        (m.name.clone(), Json::obj(vec![("value", num(m.value)), ("unit", text(&m.unit))]))
                    })
                    .collect(),
            ),
        ),
    ])
    .emit()
}

impl Results {
    pub fn to_json(&self) -> Json {
        let h = &self.host;
        Json::obj(vec![
            ("format", text(FORMAT)),
            (
                "host",
                Json::obj(vec![
                    ("nproc", num(h.nproc as f64)),
                    ("loadavg_1m", num(h.loadavg_1m)),
                    ("rustc", text(&h.rustc)),
                    ("git_commit", text(&h.git_commit)),
                    ("seed", num(h.seed as f64)),
                    ("seconds", num(h.seconds)),
                    ("scale", num(h.scale)),
                ]),
            ),
            ("build_s", num(self.build_s)),
            (
                "workloads",
                Json::Arr(
                    self.workloads
                        .iter()
                        .map(|w| {
                            Json::obj(vec![
                                ("name", text(&w.name)),
                                ("why", text(&w.why)),
                                ("end_to_end", outcome_json(&w.end_to_end)),
                                ("per_layer", outcome_json(&w.per_layer)),
                            ])
                        })
                        .collect(),
                ),
            ),
        ])
    }

    pub fn from_json_str(input: &str) -> Result<Results, String> {
        let doc = Json::parse(input).map_err(|e| e.to_string())?;
        if doc.get("format").and_then(Json::as_str) != Some(FORMAT) {
            return Err(format!("not a {FORMAT} document"));
        }
        let host = field(&doc, "host")?;
        Ok(Results {
            host: Host {
                nproc: f64_of(host, "nproc")? as usize,
                loadavg_1m: f64_of(host, "loadavg_1m")?,
                rustc: str_of(host, "rustc")?,
                git_commit: str_of(host, "git_commit")?,
                seed: f64_of(host, "seed")? as u64,
                seconds: f64_of(host, "seconds")?,
                scale: f64_of(host, "scale")?,
            },
            build_s: f64_of(&doc, "build_s")?,
            workloads: arr_of(&doc, "workloads")?
                .iter()
                .map(|w| {
                    Ok(WorkloadResult {
                        name: str_of(w, "name")?,
                        why: str_of(w, "why")?,
                        end_to_end: outcome_from(field(w, "end_to_end")?)?,
                        per_layer: outcome_from(field(w, "per_layer")?)?,
                    })
                })
                .collect::<Result<_, String>>()?,
        })
    }
}

fn field<'a>(j: &'a Json, key: &str) -> Result<&'a Json, String> {
    j.get(key).ok_or_else(|| format!("missing \"{key}\""))
}

fn f64_of(j: &Json, key: &str) -> Result<f64, String> {
    field(j, key)?.as_f64().ok_or_else(|| format!("\"{key}\" is not a number"))
}

fn str_of(j: &Json, key: &str) -> Result<String, String> {
    Ok(field(j, key)?.as_str().ok_or_else(|| format!("\"{key}\" is not a string"))?.to_string())
}

fn arr_of<'a>(j: &'a Json, key: &str) -> Result<&'a [Json], String> {
    field(j, key)?.as_arr().ok_or_else(|| format!("\"{key}\" is not an array"))
}

fn outcome_from(j: &Json) -> Result<Outcome, String> {
    let metrics = field(j, "metrics")?.as_obj().ok_or("\"metrics\" is not an object")?;
    Ok(Outcome {
        attempted: f64_of(j, "attempted")? as u64,
        failed: f64_of(j, "failed")? as u64,
        failures: arr_of(j, "failures")?
            .iter()
            .map(|f| f.as_str().map(str::to_string).ok_or("a failure is not a string".to_string()))
            .collect::<Result<_, String>>()?,
        metrics: metrics
            .iter()
            .map(|(name, m)| {
                let samples = match m.get("samples") {
                    Some(_) => arr_of(m, "samples")?
                        .iter()
                        .map(|v| v.as_f64().ok_or("a sample is not a number".to_string()))
                        .collect::<Result<_, String>>()?,
                    None => Vec::new(),
                };
                Ok(Metric {
                    name: name.clone(),
                    unit: str_of(m, "unit")?,
                    value: f64_of(m, "value")?,
                    samples,
                })
            })
            .collect::<Result<_, String>>()?,
    })
}

#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Verdict {
    Better,
    WithinBound,
    Worse,
    /// The run-to-run spread is wider than the bound, so the two medians
    /// cannot be told apart at the bound.
    Unresolved,
}

impl Verdict {
    pub fn as_str(self) -> &'static str {
        match self {
            Verdict::Better => "better",
            Verdict::WithinBound => "within-bound",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Hold candidate `b` against baseline `a` for one metric.
pub fn verdict(a: &Metric, b: &Metric, better: Better, bound: f64) -> Verdict {
    let sign = if better == Better::Lower { 1.0 } else { -1.0 };
    // Positive = b is worse, as a share of a.
    let worse_by = if a.value == 0.0 { 0.0 } else { sign * (b.value - a.value) / a.value.abs() };
    let spread_of = |m: &Metric| if m.samples.len() < 2 { 0.0 } else { stats::spread(&m.samples) };
    let spread = spread_of(a).max(spread_of(b));
    if spread > bound {
        let every_b_beats_every_a = !a.samples.is_empty()
            && !b.samples.is_empty()
            && a.samples.iter().all(|&x| b.samples.iter().all(|&y| sign * (y - x) < 0.0));
        return if every_b_beats_every_a { Verdict::Better } else { Verdict::Unresolved };
    }
    if worse_by > bound {
        Verdict::Worse
    } else if -worse_by > spread && worse_by < 0.0 {
        Verdict::Better
    } else {
        Verdict::WithinBound
    }
}

/// One row per workload x end-to-end metric; `Err` when a row is worse
/// or a result is missing or incorrect.
pub fn compare(a: &Results, b: &Results) -> Result<String, String> {
    let mut table = format!(
        "{:<18} {:<22} {:>12} {:>12} {:>8} {:>6}  {}\n",
        "workload", "metric", "A", "B", "change", "bound", "verdict"
    );
    let mut bad = Vec::new();
    for wa in &a.workloads {
        let Some(wb) = b.workloads.iter().find(|w| w.name == wa.name) else {
            bad.push(format!("{}: missing from B", wa.name));
            continue;
        };
        for (side, w) in [("A", wa), ("B", wb)] {
            if !w.end_to_end.correct() || !w.per_layer.correct() {
                bad.push(format!("{}: {side} failed its output checks", w.name));
            }
        }
        for spec in END_TO_END {
            let find = |o: &Outcome| o.metrics.iter().find(|m| m.name == spec.name).cloned();
            let (Some(ma), Some(mb)) = (find(&wa.end_to_end), find(&wb.end_to_end)) else {
                bad.push(format!("{} {}: missing", wa.name, spec.name));
                continue;
            };
            let v = verdict(&ma, &mb, spec.better, spec.bound);
            if v == Verdict::Worse {
                bad.push(format!("{} {}: worse", wa.name, spec.name));
            }
            let change = if ma.value == 0.0 { 0.0 } else { (mb.value - ma.value) / ma.value.abs() };
            table.push_str(&format!(
                "{:<18} {:<22} {:>12.4} {:>12.4} {:>+7.1}% {:>5.0}%  {}\n",
                wa.name,
                spec.name,
                ma.value,
                mb.value,
                change * 100.0,
                spec.bound * 100.0,
                v.as_str()
            ));
        }
    }
    if bad.is_empty() {
        Ok(table)
    } else {
        Err(format!("{table}\n{}", bad.join("\n")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn metric(name: &str, value: f64, samples: &[f64]) -> Metric {
        Metric { name: name.to_string(), unit: "s".to_string(), value, samples: samples.to_vec() }
    }

    fn results(wall: &[f64]) -> Results {
        let mut end_to_end = Outcome { attempted: wall.len() as u64, ..Outcome::default() };
        for spec in END_TO_END {
            end_to_end.metrics.push(if spec.name == "wall_s" {
                metric("wall_s", stats::median(wall), wall)
            } else {
                Metric {
                    name: spec.name.to_string(),
                    unit: spec.unit.to_string(),
                    value: 1.5,
                    samples: vec![],
                }
            });
        }
        Results {
            host: Host {
                nproc: 2,
                loadavg_1m: 0.25,
                rustc: "rustc 1.95.0".to_string(),
                git_commit: "unknown".to_string(),
                seed: 3,
                seconds: 12.0,
                scale: 1.0,
            },
            build_s: 0.5,
            workloads: vec![WorkloadResult {
                name: "wgs_deep".to_string(),
                why: "a \"quoted\" reason".to_string(),
                end_to_end,
                per_layer: Outcome {
                    metrics: vec![metric("gst.build_s", 0.125, &[0.125, 0.25, 0.0625])],
                    ..Outcome::default()
                },
            }],
        }
    }

    #[test]
    fn results_round_trip_through_json() {
        let mut r = results(&[2.0, 2.5, 1.75]);
        r.workloads[0].per_layer.failures.push("replay: line one\nline two".to_string());
        r.workloads[0].per_layer.failed = 1;
        let back = Results::from_json_str(&r.to_json().pretty()).expect("parse");
        assert_eq!(back, r);
        assert!(Results::from_json_str("{\"format\": \"other\"}").is_err());
    }

    #[test]
    fn driver_line_has_exactly_the_contract_keys() {
        let o = Outcome {
            attempted: 4,
            failed: 0,
            metrics: vec![metric("wall_s", 2.25, &[2.0, 2.5])],
            failures: vec![],
        };
        assert_eq!(
            driver_line(&o),
            "{\"correct\":true,\"attempted\":4,\"failed\":0,\"metrics\":{\"wall_s\":{\"value\":2.25,\"unit\":\"s\"}}}"
        );
    }

    #[test]
    fn verdicts() {
        let tight = |v: f64| metric("wall_s", v, &[v * 0.99, v, v * 1.01]);
        assert_eq!(verdict(&tight(2.0), &tight(2.1), Better::Lower, 0.15), Verdict::WithinBound);
        assert_eq!(verdict(&tight(2.0), &tight(2.4), Better::Lower, 0.15), Verdict::Worse);
        assert_eq!(verdict(&tight(2.0), &tight(1.5), Better::Lower, 0.15), Verdict::Better);
        assert_eq!(verdict(&tight(2.0), &tight(1.5), Better::Higher, 0.15), Verdict::Worse);
        // Spread wider than the bound: unresolved, unless every B beats every A.
        let wide = metric("wall_s", 2.0, &[1.0, 2.0, 3.0]);
        assert_eq!(verdict(&wide, &tight(2.1), Better::Lower, 0.15), Verdict::Unresolved);
        assert_eq!(verdict(&wide, &tight(0.5), Better::Lower, 0.15), Verdict::Better);
        // Exact counts have no samples and no spread.
        let exact = |v: f64| metric("disk_mb", v, &[]);
        assert_eq!(verdict(&exact(100.0), &exact(100.0), Better::Lower, 0.1), Verdict::WithinBound);
        assert_eq!(verdict(&exact(100.0), &exact(120.0), Better::Lower, 0.1), Verdict::Worse);
    }

    #[test]
    fn compare_flags_a_regression() {
        let a = results(&[2.0, 2.01, 1.99]);
        assert!(compare(&a, &a).is_ok());
        let b = results(&[3.0, 3.01, 2.99]);
        let err = compare(&a, &b).unwrap_err();
        assert!(err.contains("wgs_deep wall_s: worse"), "{err}");
    }
}

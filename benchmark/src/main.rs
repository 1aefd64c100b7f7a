//! The pgasm benchmark harness. See `README.md`.
//!
//! ```text
//! harness --workload <name> --seed <n> --seconds <s> --trace <0|1>   one run, one JSON line (BENCHMARK.json)
//! harness all [--seed <n>] [--seconds <s>] [--quick]                 every workload, results.json (run.sh)
//! harness compare <A.json> <B.json>                                  apply the bounds (compare.sh)
//! harness spec                                                       print BENCHMARK.json from the tables
//! ```
//!
//! Run from the root of a checkout; everything is read and written
//! inside it (`benchmark/out/`, and cargo's target directory).

mod child;
mod metrics;
mod pace;
mod quality;
mod replay;
mod report;
mod run;
mod span;
mod stats;
mod workloads;

use pgasm::telemetry::Json;
use report::{Host, Results, WorkloadResult};
use run::{Env, Outcome};
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};
use std::time::Instant;
use workloads::Workload;

const DEFAULT_SEED: u64 = 3;
/// `run_seconds` of `BENCHMARK.json`.
const DEFAULT_SECONDS: f64 = 30.0;
/// `--quick`: inputs at a quarter of the size, one repetition.
const QUICK_SCALE: f64 = 0.25;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("all") => all(&args[1..]),
        Some("compare") => compare(&args[1..]),
        Some("spec") => {
            print!("{}", spec().pretty());
            Ok(true)
        }
        _ => single(&args),
    };
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::from(2)
        }
    }
}

/// `BENCHMARK.json`, from the workload and metric tables.
fn spec() -> Json {
    let text = |s: &str| Json::Str(s.to_string());
    Json::obj(vec![
        (
            "command",
            Json::Arr(
                [
                    "cargo",
                    "run",
                    "--release",
                    "--offline",
                    "--quiet",
                    "--manifest-path",
                    "benchmark/Cargo.toml",
                    "--",
                ]
                .map(text)
                .to_vec(),
            ),
        ),
        ("paths", Json::Arr(vec![text("benchmark")])),
        ("run_seconds", Json::Num(DEFAULT_SECONDS)),
        (
            "workloads",
            Json::Arr(
                workloads::WORKLOADS
                    .iter()
                    .map(|w| Json::obj(vec![("name", text(w.name)), ("why", text(w.why))]))
                    .collect(),
            ),
        ),
        (
            "end_to_end",
            Json::Arr(
                metrics::END_TO_END
                    .iter()
                    .map(|m| {
                        Json::obj(vec![
                            ("name", text(m.name)),
                            ("unit", text(m.unit)),
                            ("better", text(m.better.as_str())),
                            ("bound", Json::Num(m.bound)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "per_layer",
            Json::Arr(
                metrics::PER_LAYER
                    .iter()
                    .map(|(name, unit, better)| {
                        Json::obj(vec![
                            ("name", text(name)),
                            ("unit", text(unit)),
                            ("better", text(better.as_str())),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

/// `--name value` pairs (and the bare `--quick`) into a lookup.
struct Flags(Vec<(String, String)>);

impl Flags {
    fn parse(args: &[String], allowed: &[&str]) -> Result<Flags, String> {
        let mut out = Vec::new();
        let mut it = args.iter();
        while let Some(a) = it.next() {
            let name =
                a.strip_prefix("--").filter(|n| allowed.contains(n)).ok_or(format!("unexpected '{a}'"))?;
            let value = if name == "quick" {
                String::new()
            } else {
                it.next().ok_or(format!("{a} needs a value"))?.clone()
            };
            out.push((name.to_string(), value));
        }
        Ok(Flags(out))
    }

    fn get(&self, name: &str) -> Option<&str> {
        self.0.iter().find(|(n, _)| n == name).map(|(_, v)| v.as_str())
    }

    fn parsed<T: std::str::FromStr>(&self, name: &str) -> Result<Option<T>, String> {
        self.get(name).map(|v| v.parse().map_err(|_| format!("--{name}: cannot parse '{v}'"))).transpose()
    }
}

/// The checkout root (the working directory), checked to hold the
/// program's sources: the benchmark builds `pgasm` from them.
fn checkout_root() -> Result<PathBuf, String> {
    let root = std::env::current_dir().map_err(|e| e.to_string())?;
    for needed in ["Cargo.toml", "src/bin/pgasm.rs", "benchmark/Cargo.toml"] {
        if !root.join(needed).is_file() {
            return Err(format!(
                "{} not found: run from the root of a pgasm checkout",
                root.join(needed).display()
            ));
        }
    }
    Ok(root)
}

/// Build the release `pgasm` binary from the checkout into the target
/// directory this harness was built into. Returns its path and the
/// build time (near zero once built).
fn build_pgasm(root: &Path) -> Result<(PathBuf, f64), String> {
    let target = match std::env::var_os("CARGO_TARGET_DIR") {
        Some(dir) => root.join(dir),
        None => root.join("benchmark/target"),
    };
    let start = Instant::now();
    let status = Command::new("cargo")
        .args(["build", "--release", "--offline", "--quiet", "--bin", "pgasm", "--manifest-path"])
        .arg(root.join("Cargo.toml"))
        .arg("--target-dir")
        .arg(&target)
        .status()
        .map_err(|e| format!("cargo: {e}"))?;
    if !status.success() {
        return Err("building pgasm failed".to_string());
    }
    Ok((target.join("release/pgasm"), start.elapsed().as_secs_f64()))
}

fn run_one(
    root: &Path,
    pgasm: &Path,
    workload: &Workload,
    seed: u64,
    seconds: f64,
    scale: f64,
    trace: bool,
) -> Result<Outcome, String> {
    let out = root.join("benchmark/out");
    let dir = out.join(format!("run-{}-{}-{}", workload.name, seed, std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let env = Env { pgasm: pgasm.to_path_buf(), dir: dir.clone(), out };
    let outcome = if trace {
        run::per_layer(&env, workload, seed, seconds, scale)
    } else {
        run::end_to_end(&env, workload, seed, seconds, scale)
    };
    let mut outcome = outcome.map_err(|e| format!("{}: {e}", workload.name))?;
    // Two checks can miss on one run; a run fails once.
    outcome.failed = outcome.failed.min(outcome.attempted);
    for f in &mut outcome.failures {
        *f = format!("{}: {f}", workload.name);
    }
    // Keep the scratch directory (child log, inputs) when something failed.
    if outcome.correct() {
        let _ = std::fs::remove_dir_all(&dir);
    }
    Ok(outcome)
}

/// The contract of `BENCHMARK.json`: one run, the result as the last
/// line of standard output.
fn single(args: &[String]) -> Result<bool, String> {
    let flags = Flags::parse(args, &["workload", "seed", "seconds", "trace"])?;
    let name = flags.get("workload").ok_or("--workload is required")?;
    let workload = workloads::find(name).ok_or(format!("unknown workload '{name}'"))?;
    let seed = flags.parsed("seed")?.unwrap_or(DEFAULT_SEED);
    let seconds = flags.parsed("seconds")?.unwrap_or(DEFAULT_SECONDS);
    let trace = match flags.get("trace").unwrap_or("0") {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace: '{other}' is not 0 or 1")),
    };
    let root = checkout_root()?;
    let (pgasm, _) = build_pgasm(&root)?;
    let outcome = run_one(&root, &pgasm, workload, seed, seconds, 1.0, trace)?;
    for f in &outcome.failures {
        eprintln!("FAILED {f}");
    }
    let expected = if trace { metrics::PER_LAYER.len() } else { metrics::END_TO_END.len() };
    if outcome.metrics.len() != expected || outcome.metrics.iter().any(|m| !m.value.is_finite()) {
        return Err(format!("{name}: no complete result (every run failed?)"));
    }
    println!("{}", report::driver_line(&outcome));
    Ok(outcome.correct())
}

fn print_outcome(title: &str, o: &Outcome) {
    println!("  {title}: {} run(s) attempted, {} failed", o.attempted, o.failed);
    for m in &o.metrics {
        let n = if m.samples.len() < 2 { String::new() } else { format!("  (n = {})", m.samples.len()) };
        println!("    {:<36} {:>16.6} {}{n}", m.name, m.value, m.unit);
    }
    for f in &o.failures {
        println!("    FAILED {f}");
    }
}

fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".to_string())
}

/// Every workload, untraced then traced; prints every metric and writes
/// `benchmark/out/results.json`.
fn all(args: &[String]) -> Result<bool, String> {
    let flags = Flags::parse(args, &["seed", "seconds", "quick"])?;
    let quick = flags.get("quick").is_some();
    let seed = flags.parsed("seed")?.unwrap_or(DEFAULT_SEED);
    let seconds = flags.parsed("seconds")?.unwrap_or(if quick { 0.0 } else { DEFAULT_SECONDS });
    let scale = if quick { QUICK_SCALE } else { 1.0 };
    let root = checkout_root()?;
    let host = Host {
        nproc: std::thread::available_parallelism().map_or(0, |n| n.get()),
        loadavg_1m: std::fs::read_to_string("/proc/loadavg")
            .ok()
            .and_then(|s| s.split_whitespace().next().and_then(|v| v.parse().ok()))
            .unwrap_or(0.0),
        rustc: command_line("rustc", &["--version"]),
        git_commit: command_line("git", &["rev-parse", "HEAD"]),
        seed,
        seconds,
        scale,
    };
    let (pgasm, build_s) = build_pgasm(&root)?;
    println!(
        "host: {} core(s), load {:.2}, {}, commit {}",
        host.nproc, host.loadavg_1m, host.rustc, host.git_commit
    );
    println!("seed {seed}, {seconds} s per run, input scale {scale}; pgasm built in {build_s:.1} s");
    let mut results = Results { host, build_s, workloads: Vec::new() };
    for workload in &workloads::WORKLOADS {
        println!("\n{} — {}", workload.name, workload.why);
        let end_to_end = run_one(&root, &pgasm, workload, seed, seconds, scale, false)?;
        print_outcome("end to end (untraced child runs)", &end_to_end);
        let per_layer = run_one(&root, &pgasm, workload, seed, seconds, scale, true)?;
        print_outcome("per layer (traced in-process replay)", &per_layer);
        results.workloads.push(WorkloadResult {
            name: workload.name.to_string(),
            why: workload.why.to_string(),
            end_to_end,
            per_layer,
        });
    }
    let path = root.join("benchmark/out/results.json");
    std::fs::write(&path, results.to_json().pretty()).map_err(|e| format!("{}: {e}", path.display()))?;
    println!("\nwrote {}", path.display());
    let ok = results.workloads.iter().all(|w| w.end_to_end.correct() && w.per_layer.correct());
    if !ok {
        println!("FAILED: at least one run or output check failed (see above)");
    }
    Ok(ok)
}

fn compare(args: &[String]) -> Result<bool, String> {
    let [a, b] = args else {
        return Err("usage: harness compare <A.json> <B.json>".to_string());
    };
    let load = |p: &String| {
        let text = std::fs::read_to_string(p).map_err(|e| format!("{p}: {e}"))?;
        Results::from_json_str(&text).map_err(|e| format!("{p}: {e}"))
    };
    match report::compare(&load(a)?, &load(b)?) {
        Ok(table) => {
            print!("{table}");
            Ok(true)
        }
        Err(table) => {
            println!("{table}");
            Ok(false)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn benchmark_json_matches_the_tables() {
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let file = Json::parse(&std::fs::read_to_string(&path).expect("BENCHMARK.json at the repo root"))
            .expect("valid JSON");
        assert_eq!(file, spec(), "regenerate with: harness spec > BENCHMARK.json");
    }

    #[test]
    fn spec_stays_inside_the_contract_limits() {
        let name_ok = |n: &str| {
            !n.is_empty()
                && n.len() <= 64
                && n.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
                && n.chars().all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
        };
        let unit_ok = |u: &str| {
            !u.is_empty()
                && u.len() <= 16
                && u.chars().all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
        };
        let mut names: Vec<&str> = workloads::WORKLOADS.iter().map(|w| w.name).collect();
        for w in &workloads::WORKLOADS {
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}: why is {} chars", w.name, w.why.len());
        }
        for m in &metrics::END_TO_END {
            assert!(unit_ok(m.unit) && m.bound > 0.0 && m.bound <= 0.25, "{}", m.name);
            names.push(m.name);
        }
        for (name, unit, _) in &metrics::PER_LAYER {
            assert!(unit_ok(unit), "{name}");
            names.push(name);
        }
        assert!(names.iter().all(|n| name_ok(n)));
        let unique: std::collections::HashSet<&&str> = names.iter().collect();
        assert_eq!(unique.len(), names.len(), "a name is used twice");
        assert!(metrics::END_TO_END
            .iter()
            .any(|m| m.name == "setup_s" && m.unit == "s" && m.better == metrics::Better::Lower));
        assert!(spec().emit().len() < 64 * 1024);
    }
}

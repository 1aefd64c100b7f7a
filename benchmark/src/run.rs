//! One benchmark run of one workload: set-up, the timed untraced child
//! runs (end-to-end metrics) or the traced replay (per-layer metrics),
//! and every output check.

use crate::child::{self, ChildRun};
use crate::metrics;
use crate::pace;
use crate::quality;
use crate::replay;
use crate::span::{self, Span};
use crate::stats;
use crate::workloads::{self, Workload};
use pgasm::seq::fasta::read_fasta;
use pgasm::seq::DnaSeq;
use std::collections::BTreeMap;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// `--assembly-threads` of the serial workloads (the host has 2 cores).
const ASSEMBLY_THREADS: usize = 2;

/// Where the run happens.
pub struct Env {
    /// The release `pgasm` binary under test.
    pub pgasm: PathBuf,
    /// Scratch directory of this run (created fresh, removed at the end).
    pub dir: PathBuf,
    /// Where `trace_<workload>.json` goes.
    pub out: PathBuf,
}

#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: String,
    pub unit: String,
    pub value: f64,
    /// The repetitions `value` was taken from (see [`metrics::reported`]):
    /// one for an exact count, none for a metric the workload does not
    /// have.
    pub samples: Vec<f64>,
}

#[derive(Debug, Clone, PartialEq, Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
    /// One line per failed run or output check.
    pub failures: Vec<String>,
}

impl Outcome {
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.failures.is_empty()
    }

    /// Record a run that exited badly or failed an output check.
    fn fail_run(&mut self, why: String) {
        self.failed += 1;
        self.failures.push(why);
    }

    /// Emit every metric of `table` (name, unit): what
    /// [`metrics::reported`] makes of its samples in `values`, or 0 where
    /// the workload has none (the distributed layers of a workload that
    /// runs serially).
    fn emit<'t>(
        &mut self,
        table: impl Iterator<Item = (&'t str, &'t str)>,
        values: &BTreeMap<&'static str, Vec<f64>>,
    ) {
        for (name, unit) in table {
            let samples = values.get(name).cloned().unwrap_or_default();
            let value = if samples.is_empty() { 0.0 } else { metrics::reported(unit, &samples) };
            self.metrics.push(Metric { name: name.to_string(), unit: unit.to_string(), value, samples });
        }
    }
}

/// The CPU pace of each repetition: the mean of the measurement before
/// it and the one after it, which is the next repetition's before.
struct Pacer {
    last: f64,
    laps: Vec<f64>,
}

impl Pacer {
    fn start() -> Pacer {
        Pacer { last: pace::measure(), laps: Vec::new() }
    }

    /// A repetition has just ended: its pace.
    fn lap(&mut self) -> f64 {
        let before = self.last;
        self.last = pace::measure();
        self.laps.push((before + self.last) / 2.0);
        (before + self.last) / 2.0
    }

    /// Say how the host ran, for whoever reads the numbers.
    fn note(&self, workload: &Workload) {
        if !self.laps.is_empty() {
            let mean = self.laps.iter().sum::<f64>() / self.laps.len() as f64;
            eprintln!(
                "note: {}: CPU pace {mean:.2} over {} repetitions (calibration loop {:.1} ms, reference {:.1} ms)",
                workload.name,
                self.laps.len(),
                mean * pace::REFERENCE_S * 1e3,
                pace::REFERENCE_S * 1e3
            );
        }
    }
}

struct Prepared {
    fastq: PathBuf,
    reference: Vec<DnaSeq>,
    read_bases: usize,
    /// What the set-up took, as measured.
    setup_s: f64,
}

/// One set-up: the input generated from the seed and serialised in
/// memory, and how long that took.
fn set_up(workload: &Workload, seed: u64, scale: f64) -> (workloads::Dataset, (Vec<u8>, Vec<u8>), f64) {
    let t = Instant::now();
    let dataset = workloads::generate(workload, seed, scale);
    let files = workloads::serialize(&dataset);
    let seconds = t.elapsed().as_secs_f64();
    (dataset, files, seconds)
}

/// Set up once and write the input out. The two small file writes are
/// left out of the timing: on this host they cost 0.1 ms or 15 ms
/// depending on what the disk was doing for the previous run, which
/// would drown the set-up work `setup_s` is there to show.
fn prepare(workload: &Workload, seed: u64, scale: f64, dir: &Path) -> io::Result<Prepared> {
    let (dataset, (fastq_bytes, reference_bytes), seconds) = set_up(workload, seed, scale);
    let fastq = dir.join("reads.fastq");
    fs::write(&fastq, fastq_bytes)?;
    fs::write(dir.join("reference.fasta"), reference_bytes)?;
    Ok(Prepared {
        fastq,
        read_bases: dataset.reads.total_bases(),
        reference: dataset.genomes,
        setup_s: seconds,
    })
}

fn watchdog(workload: &Workload) -> Duration {
    Duration::from_secs_f64(workload.expected_wall_s * 5.0)
}

/// `pgasm assemble` arguments for `workload`, output under `rep_dir`.
fn assemble_args(workload: &Workload, fastq: &Path, rep_dir: &Path, out: &str) -> Vec<String> {
    let path = |p: &Path| p.to_string_lossy().into_owned();
    let mut args =
        vec!["assemble".into(), "--reads".into(), path(fastq), "--out".into(), path(&rep_dir.join(out))];
    args.extend(workload.args.iter().map(|a| a.to_string()));
    if workload.cache {
        args.extend(["--cache-dir".into(), path(&rep_dir.join("cache"))]);
    }
    args
}

/// (file name, length, mtime) of every entry of `dir`, sorted.
fn listing(dir: &Path) -> io::Result<Vec<(String, u64, std::time::SystemTime)>> {
    let mut out = Vec::new();
    for entry in fs::read_dir(dir)? {
        let entry = entry?;
        let meta = entry.metadata()?;
        out.push((entry.file_name().to_string_lossy().into_owned(), meta.len(), meta.modified()?));
    }
    out.sort();
    Ok(out)
}

fn dir_bytes(dir: &Path) -> io::Result<u64> {
    let mut total = 0;
    for entry in fs::read_dir(dir)? {
        let entry = entry?;
        let meta = entry.metadata()?;
        total += if meta.is_dir() { dir_bytes(&entry.path())? } else { meta.len() };
    }
    Ok(total)
}

/// Warm runs after each cold run of a cache workload: a warm run is a
/// sixth of a cold one, so two of them buy twice the samples for little.
const WARM_RUNS: usize = 2;

/// One cycle of a workload: a run into the fresh `rep_dir`, and with a
/// cache `warm_runs` warm runs over what the first left behind.
struct Cycle {
    cold: ChildRun,
    warm: Vec<ChildRun>,
    contigs: Vec<u8>,
    disk_bytes: u64,
}

fn run_cycle(
    env: &Env,
    workload: &Workload,
    fastq: &Path,
    rep_dir: &Path,
    extra: &[&str],
    warm_runs: usize,
    outcome: &mut Outcome,
) -> io::Result<Option<Cycle>> {
    fs::create_dir_all(rep_dir)?;
    let log = env.dir.join("pgasm.log");
    let note = |outcome: &mut Outcome, run: &ChildRun, what: &str| {
        outcome.attempted += 1;
        if let Some(why) = &run.failure {
            outcome.fail_run(format!("{what} run: {why} (see {})", log.display()));
        }
        run.failure.is_none()
    };
    let mut args = assemble_args(workload, fastq, rep_dir, "contigs.fasta");
    args.extend(extra.iter().map(|a| a.to_string()));
    let cold = child::run(&env.pgasm, &args, &log, watchdog(workload))?;
    if !note(outcome, &cold, "cold") {
        return Ok(None);
    }
    let contigs = fs::read(rep_dir.join("contigs.fasta"))?;
    let disk_bytes = dir_bytes(rep_dir)?;
    let mut warm = Vec::new();
    if workload.cache {
        let cache_dir = rep_dir.join("cache");
        let before = listing(&cache_dir)?;
        if before.len() != 3 {
            outcome.fail_run(format!("cache holds {} entries after the cold run, expected 3", before.len()));
        }
        let args = assemble_args(workload, fastq, rep_dir, "contigs_warm.fasta");
        for _ in 0..warm_runs {
            let run = child::run(&env.pgasm, &args, &log, watchdog(workload))?;
            if !note(outcome, &run, "warm") {
                return Ok(None);
            }
            if listing(&cache_dir)? != before {
                outcome.fail_run("a warm run changed the cache directory".to_string());
            }
            if fs::read(rep_dir.join("contigs_warm.fasta"))? != contigs {
                outcome.fail_run("warm contigs differ from the cold run's".to_string());
            }
            warm.push(run);
        }
    }
    // A GST artifact is ~100x the reads: do not let cycles pile up.
    fs::remove_dir_all(rep_dir)?;
    Ok(Some(Cycle { cold, warm, contigs, disk_bytes }))
}

/// The clock of one run's timed part: repetitions are started until the
/// next one, if it took as long as the longest so far, would end after
/// `seconds`. The first always runs.
struct Budget {
    start: Instant,
    seconds: f64,
    longest_s: f64,
}

impl Budget {
    fn new(seconds: f64) -> Budget {
        Budget { start: Instant::now(), seconds, longest_s: 0.0 }
    }

    /// Note a repetition that started at `began`; whether another fits.
    fn another_fits(&mut self, began: Instant) -> bool {
        self.longest_s = self.longest_s.max(began.elapsed().as_secs_f64());
        self.start.elapsed().as_secs_f64() + self.longest_s <= self.seconds
    }
}

/// The untraced run: closed loop, one child at a time, for `seconds`.
pub fn end_to_end(
    env: &Env,
    workload: &Workload,
    seed: u64,
    seconds: f64,
    scale: f64,
) -> io::Result<Outcome> {
    let mut outcome = Outcome::default();
    let mut pacer = Pacer::start();
    let prepared = prepare(workload, seed, scale, &env.dir)?;
    // Every repetition with its pace; all its timings are divided by it.
    let mut cycles: Vec<(f64, Cycle)> = Vec::new();
    let mut setup_samples = Vec::new();
    let mut budget = Budget::new(seconds);
    for rep in 0.. {
        let began = Instant::now();
        // The set-up again before every repetition but the first, which
        // `prepare` set up for: `setup_s` samples the whole run's length,
        // as the children's walls do.
        let setup_s = if rep == 0 { prepared.setup_s } else { set_up(workload, seed, scale).2 };
        let rep_dir = env.dir.join(format!("rep{rep}"));
        let cycle = run_cycle(env, workload, &prepared.fastq, &rep_dir, &[], WARM_RUNS, &mut outcome)?;
        let pace = pacer.lap();
        setup_samples.push(setup_s / pace);
        if let Some(cycle) = cycle {
            if cycles.first().is_some_and(|(_, first)| first.contigs != cycle.contigs) {
                outcome.fail_run(format!("contigs of repetition {rep} differ from the first"));
            }
            cycles.push((pace, cycle));
        }
        if !budget.another_fits(began) {
            break;
        }
    }
    pacer.note(workload);
    if cycles.is_empty() {
        return Ok(outcome);
    }

    let walls: Vec<f64> = cycles.iter().map(|(pace, c)| c.cold.wall_s / pace).collect();
    // Without a cache a re-run is just a run: warm_wall_s repeats wall_s.
    let warm_walls: Vec<f64> = if workload.cache {
        cycles.iter().flat_map(|(pace, c)| c.warm.iter().map(move |w| w.wall_s / pace)).collect()
    } else {
        walls.clone()
    };
    let rss: Vec<f64> = cycles
        .iter()
        .map(|(_, c)| c.warm.iter().fold(c.cold.peak_rss_mb, |peak, w| peak.max(w.peak_rss_mb)))
        .collect();
    let kbases = prepared.read_bases as f64 / 1e3;
    let throughput: Vec<f64> = walls.iter().map(|w| kbases / w).collect();
    let contigs: Vec<DnaSeq> = read_fasta(&cycles[0].1.contigs[..])?.into_iter().map(|r| r.seq).collect();
    if contigs.is_empty() {
        outcome.failures.push("no contigs assembled".to_string());
    }
    let (precision, recall) = quality::kmer_precision_recall(&contigs, &prepared.reference, quality::K);
    let lengths: Vec<usize> = contigs.iter().map(|c| c.len()).collect();

    let values = BTreeMap::from([
        ("setup_s", setup_samples),
        ("wall_s", walls),
        ("warm_wall_s", warm_walls),
        ("kbases_per_s", throughput),
        ("peak_rss_mb", rss),
        ("disk_mb", vec![cycles[0].1.disk_bytes as f64 / 1e6]),
        ("contig_kmer_precision", vec![precision]),
        ("genome_kmer_recall", vec![recall]),
        ("contig_n50", vec![quality::n50(&lengths) as f64]),
    ]);
    outcome.emit(metrics::END_TO_END.iter().map(|m| (m.name, m.unit)), &values);
    Ok(outcome)
}

/// The traced run: an untraced child, a child with the program's own
/// tracing on, then one in-process replay, over and over (at least once)
/// until `seconds` have passed. The three take turns so that the two
/// ratios between them — `harness.layer_coverage` and
/// `telemetry.trace_overhead_ratio` — compare neighbours in time, not one
/// stretch of the host with another. Children and replays are paced like
/// the untraced run's repetitions.
pub fn per_layer(env: &Env, workload: &Workload, seed: u64, seconds: f64, scale: f64) -> io::Result<Outcome> {
    let mut outcome = Outcome::default();
    let prepared = prepare(workload, seed, scale, &env.dir)?;
    let mut budget = Budget::new(seconds);
    let mut pacer = Pacer::start();
    let path = |name: &str| env.dir.join(name).to_string_lossy().into_owned();
    let (trace_json, metrics_json) = (path("pgasm.trace.json"), path("pgasm.metrics.json"));
    let traced_flags = ["--trace-json", trace_json.as_str(), "--metrics-json", metrics_json.as_str()];

    // A workload that runs distributed is replayed single-threaded: the
    // replay is its plain serial baseline.
    let threads = if workload.ranks.is_some() { 1 } else { ASSEMBLY_THREADS };
    let unit_of: BTreeMap<&str, &str> =
        metrics::PER_LAYER.iter().map(|(name, unit, _)| (*name, *unit)).collect();
    let mut by_name: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    let mut last_spans: Vec<Span> = Vec::new();
    for rep in 0.. {
        let began = Instant::now();
        // Cold runs only (the warm ones are the untraced run's business).
        let mut child = |name: &str, flags: &[&str]| -> io::Result<Option<(f64, Vec<u8>)>> {
            let cycle =
                run_cycle(env, workload, &prepared.fastq, &env.dir.join(name), flags, 0, &mut outcome)?;
            let pace = pacer.lap();
            Ok(cycle.map(|c| (c.cold.wall_s / pace, c.contigs)))
        };
        // Which of the two goes first alternates, so that neither always
        // runs in the wake of the replay.
        let (reference, traced) = if rep % 2 == 0 {
            let reference = child("ref", &[])?;
            (reference, child("traced", &traced_flags)?)
        } else {
            let traced = child("traced", &traced_flags)?;
            (child("ref", &[])?, traced)
        };
        let (Some((reference_wall_s, reference_contigs)), Some((traced_wall_s, traced_contigs))) =
            (reference, traced)
        else {
            return Ok(outcome);
        };
        if traced_contigs != reference_contigs {
            outcome.fail_run("contigs change when pgasm traces itself".to_string());
        }

        let cache_dir = env.dir.join(format!("replay{rep}"));
        let r = replay::replay(workload, &prepared.fastq, &cache_dir, threads)?;
        let pace = pacer.lap();
        fs::remove_dir_all(&cache_dir)?;
        for why in &r.failures {
            outcome.failures.push(format!("replay: {why}"));
        }
        // The serial replay equals the CLI run whatever its flags: this
        // is the check that cold, warm, uncached, distributed and serial
        // runs of one input all write the same contigs.
        if r.contigs_fasta != reference_contigs {
            outcome.failures.push("the replay's contigs differ from the CLI's".to_string());
        }
        for (name, value) in r.metrics {
            let paced = if unit_of.get(name).is_some_and(|unit| metrics::is_time(unit)) {
                value / pace
            } else {
                value
            };
            by_name.entry(name).or_default().push(paced);
        }
        let covered_s = (r.pipeline_s + if workload.cache { r.cache_cold_extra_s } else { 0.0 }) / pace;
        by_name.entry("harness.layer_coverage").or_default().push(covered_s / reference_wall_s);
        by_name.entry("telemetry.trace_overhead_ratio").or_default().push(traced_wall_s / reference_wall_s);
        last_spans = r.spans;
        if !budget.another_fits(began) {
            break;
        }
    }
    pacer.note(workload);
    // Reported, not gated: on a host like this one a ratio of two
    // half-second timings says "look", not "fail".
    let coverage = stats::median(&by_name["harness.layer_coverage"]);
    if !(0.85..=1.15).contains(&coverage) {
        eprintln!("note: {}: harness.layer_coverage {coverage:.3} is outside 0.85..1.15", workload.name);
    }
    outcome.emit(metrics::PER_LAYER.iter().map(|(name, unit, _)| (*name, *unit)), &by_name);
    write_trace(&env.out.join(format!("trace_{}.json", workload.name)), workload, seed, &last_spans)?;
    Ok(outcome)
}

/// `trace_<workload>.json`: the last replay's spans with their self
/// times.
fn write_trace(path: &Path, workload: &Workload, seed: u64, spans: &[Span]) -> io::Result<()> {
    use pgasm::telemetry::Json;
    let self_ns = span::self_times_ns(spans);
    let rows = spans
        .iter()
        .zip(&self_ns)
        .enumerate()
        .map(|(id, (s, &self_ns))| {
            Json::obj(vec![
                ("id", Json::Num(id as f64)),
                ("name", Json::Str(s.name.to_string())),
                ("start_ns", Json::Num(s.start_ns as f64)),
                ("end_ns", Json::Num(s.end_ns as f64)),
                ("parent", s.parent.map_or(Json::Null, |p| Json::Num(p as f64))),
                ("self_ns", Json::Num(self_ns as f64)),
            ])
        })
        .collect();
    let doc = Json::obj(vec![
        ("format", Json::Str("pgasm.benchmark.trace".to_string())),
        ("workload", Json::Str(workload.name.to_string())),
        ("seed", Json::Num(seed as f64)),
        ("spans", Json::Arr(rows)),
    ]);
    fs::write(path, doc.emit())
}

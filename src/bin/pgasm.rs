//! `pgasm` — command-line interface to the cluster-then-assemble
//! pipeline.
//!
//! ```text
//! pgasm generate --kind maize --out reads.fastq [--genome-out g.fasta]
//! pgasm cluster  --reads reads.fastq [--ranks 4] [--out clusters.txt]
//! pgasm assemble --reads reads.fastq --out contigs.fasta
//! ```
//!
//! Reads are FASTQ (quality drives Lucy-style trimming); `generate`
//! produces synthetic projects with the maize/drosophila/sargasso
//! presets so the whole pipeline can be driven without external data.

use pgasm::cluster::{ClusterParams, Exec, Pipeline, PipelineConfig};
use pgasm::preprocess::PreprocessConfig;
use pgasm::seq::fasta::{write_fasta, write_fastq, FastaRecord, FastqRecord};
use pgasm::seq::DnaSeq;
use pgasm::simgen::vector::VECTOR_SEQ;
use pgasm::simgen::{presets, ReadSet};
use std::collections::HashMap;
use std::fs::File;
use std::io::{BufReader, BufWriter};
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(cmd) = args.first() else {
        eprintln!("{USAGE}");
        return ExitCode::FAILURE;
    };
    // Each subcommand with the options it reads: anything else on its
    // command line is an error, never silently ignored.
    type Subcommand = fn(&Opts) -> Result<(), String>;
    let (known, run): (&[&[&str]], Subcommand) = match cmd.as_str() {
        "generate" => (&[GENERATE_OPTIONS], generate),
        "cluster" => (&[CLUSTER_OPTIONS], cluster),
        "assemble" => (&[CLUSTER_OPTIONS, &["assembly-threads"]], assemble),
        "analyze" => (&[ANALYZE_OPTIONS], analyze),
        "help" | "--help" | "-h" => {
            println!("{USAGE}");
            return ExitCode::SUCCESS;
        }
        other => {
            eprintln!("error: unknown command '{other}'");
            return ExitCode::FAILURE;
        }
    };
    let result = match Opts::parse(&args[1..], &known.concat()) {
        Ok(opts) => run(&opts),
        Err(e) => Err(format!("{e}\n\n{USAGE}")),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

const GENERATE_OPTIONS: &[&str] = &["kind", "out", "genome-out", "scale", "seed"];
/// `assemble` reads these and `--assembly-threads`.
const CLUSTER_OPTIONS: &[&str] = &[
    "reads",
    "out",
    "ranks",
    "psi",
    "min-identity",
    "min-overlap",
    "band",
    "no-preprocess",
    "metrics-json",
    "trace-json",
    "cache-dir",
    "fault-plan",
    "checkpoint-every",
    "checkpoint",
    "resume",
];
const ANALYZE_OPTIONS: &[&str] = &["trace-json", "out", "top", "coverage-tol"];

const USAGE: &str = "pgasm — parallel cluster-then-assemble genome assembly

USAGE:
  pgasm generate --kind <maize|drosophila|sargasso> --out <reads.fastq>
                 [--genome-out <genome.fasta>] [--scale <f64>] [--seed <u64>]
  pgasm cluster  --reads <reads.fastq> [--out <clusters.txt>] [--ranks <p>]
                 [--psi <n>] [--min-identity <f>] [--min-overlap <n>]
                 [--band <n>] [--no-preprocess] [--metrics-json <report.json>]
                 [--trace-json <out.trace.json>]
                 [--cache-dir <dir>]
                 [--fault-plan <spec>]
                 [--checkpoint-every <n> --checkpoint <base>]
                 [--resume <base>]
  pgasm assemble --reads <reads.fastq> --out <contigs.fasta>
                 [--assembly-threads <n>] [same options]
  pgasm analyze  --trace-json <run.trace.json> [--out <analysis.json>]
                 [--top <k>] [--coverage-tol <f>]

generate writes a synthetic sequencing project (reads as FASTQ; optionally
the reference genome(s) as FASTA). cluster runs preprocessing + clustering,
stops there, and writes one cluster per line. assemble additionally runs the
per-cluster serial assembler and writes contigs as FASTA. With --ranks <p> (p >= 2) the
clustering AND assembly phases both run distributed on p simulated ranks:
assembly schedules whole clusters largest-first onto worker ranks and ships
contigs back, so per-rank idle time and per-tag traffic cover both phases;
--assembly-threads <n> (default 4) sizes the in-process run on OS threads —
the GST admission of the cluster stage and the per-cluster assembly loop —
which replaces --ranks (not both); cluster runs its admission at the
default of 4, and outputs are the same at every n. --metrics-json writes the structured run report
(per-stage wall/CPU spans, Table-1 counters, and — with --ranks — per-rank
idle time and per-tag communication) as JSON. --trace-json records per-rank
timestamped events (stage, master, worker, comm, gst, align, assemble
categories; spans, instants and gauge counters) and writes Chrome
trace-event JSON — open it at ui.perfetto.dev, one track per rank for
the whole run plus the pipeline's own. --cache-dir <dir> enables the
content-addressed artifact cache: a repeated run over the same reads and
parameters reloads the preprocess output, the partition and the contigs
from <dir> instead of recomputing them, whatever --ranks either run
used — the cache_hit / cache_miss /
cache_bytes_* counters in --metrics-json show what happened; any change
to inputs or parameters recomputes, and a corrupted cache file safely
degrades to a cold run.
--fault-plan <spec> arms deterministic failure injection on the simulated
machine (needs --ranks): a semicolon-separated list of clauses, e.g.
'kill:lease=3; drop:lease=5,dir=report; delay:lease=2,dir=grant'.
Every batch of tasks the master hands out is a lease, numbered from 1
within a stage, and every clause names one: kill:lease=<K> kills the
worker that is granted lease K, on receipt, before it computes or reports
(which worker that is depends on the schedule and does not matter);
kill:master,lease=<K> kills the master in place of issuing it;
drop:lease=<K>,dir=grant|report loses the master's grant of K, or the
worker's report that retires K, on the wire; delay:lease=<K>,dir=... holds
that message back until its sender next blocks. A lease the stage never
issues arms nothing. Clauses take stage=cluster|assemble|any (default
cluster); a clause with an unknown key, a value out of range, or a second
clause at the same point of the same lease is an error. The engine
detects the death, re-queues the dead worker's leases, and a survivor
finishes the work — the final
clustering and contigs are byte-identical to a fault-free run; the
faults: line lists every nonzero fault or recovery counter as name=value,
and each is a metrics-json counter (fault_kills, dead_ranks,
recovered_tasks, fault_msgs_dropped, ...), summed over the rank channels. A lost message needs no timeout: the
simulator sees every rank blocked with nothing in flight, and the master
then recovers exactly the workers still holding work.
--checkpoint-every <n> --checkpoint <base> makes the master snapshot its
task state every n completions to <base>.cluster.pgck /
<base>.assemble.pgck (atomic tmp+rename). If a fault plan kills the
master mid-stage, pgasm exits nonzero and tells you to rerun with
--resume <base>, which reloads the snapshot and finishes only the
remaining work — output identical to an uninterrupted run.
--band <n> sets the half-width of the alignment band around the seed
diagonal. Every aligned pair costs its in-band cells (dp_cells) and the
acceptance criteria decide on the finished alignment.

analyze reads the trace a traced run wrote (--trace-json) and nothing else:
every message kind has its own tag for the whole run (clustering report 1,
grant 2; assembly report 3, grant 4), so a tag names itself. It prints
wall-time attribution {compute, wait-blocked, barrier} per rank (plus the
idle-unattributed residual) and per stage, one routine over two windows,
so the stage rows sum to the rank rows; the reconstructed critical path
through master/worker/comm events (send->recv edges paired per
source/destination/tag; time outside every span is an idle segment, as
the rank row counts it); and the top-k idle gaps with the awaited
message's label. --out writes the same analysis as machine JSON
(pgasm.analysis format). A trace with an event missing ts/cat/name, a
timestamp going back on its track, an E closing no open B of its name, or
a counter without a numeric value is an error naming the event (a B left
open, as a killed rank leaves it, is fine). --coverage-tol <f> exits
nonzero when any rank's attribution categories sum outside wall*(1 +- f)
or the critical path comes back empty — the CI consistency gate.";

#[derive(Default)]
struct Opts {
    flags: HashMap<String, String>,
}

impl Opts {
    fn parse(args: &[String], known: &[&str]) -> Result<Opts, String> {
        let mut flags = HashMap::new();
        let mut i = 0;
        while i < args.len() {
            let a = &args[i];
            if let Some(name) = a.strip_prefix("--") {
                if !known.contains(&name) {
                    return Err(format!("unknown option --{name}"));
                }
                if name == "no-preprocess" {
                    flags.insert(name.to_string(), "true".to_string());
                    i += 1;
                } else {
                    let value = args.get(i + 1).ok_or_else(|| format!("--{name} needs a value"))?;
                    flags.insert(name.to_string(), value.clone());
                    i += 2;
                }
            } else {
                return Err(format!("unexpected argument '{a}'"));
            }
        }
        Ok(Opts { flags })
    }

    fn get(&self, name: &str) -> Option<&str> {
        self.flags.get(name).map(|s| s.as_str())
    }

    fn require(&self, name: &str) -> Result<&str, String> {
        self.get(name).ok_or_else(|| format!("--{name} is required"))
    }

    fn parse_or<T: std::str::FromStr>(&self, name: &str, default: T) -> Result<T, String> {
        match self.get(name) {
            Some(v) => v.parse().map_err(|_| format!("--{name}: cannot parse '{v}'")),
            None => Ok(default),
        }
    }
}

fn generate(opts: &Opts) -> Result<(), String> {
    let kind = opts.require("kind")?;
    let out = opts.require("out")?.to_string();
    let scale: f64 = opts.parse_or("scale", 1.0)?;
    if !(scale.is_finite() && scale > 0.0) {
        return Err(format!("--scale must be finite and > 0, not {scale}"));
    }
    let seed: u64 = opts.parse_or("seed", 42)?;
    let dataset = match kind {
        "maize" => presets::maize_like((200_000.0 * scale) as usize, (400.0 * scale) as usize, seed),
        "drosophila" => presets::drosophila_like((100_000.0 * scale) as usize, 8.8, seed),
        "sargasso" => {
            presets::sargasso_like(((16.0 * scale) as usize).max(2), (1_500.0 * scale) as usize, seed)
        }
        other => return Err(format!("unknown --kind '{other}' (maize|drosophila|sargasso)")),
    };
    let records: Vec<FastqRecord> = dataset
        .reads
        .seqs
        .iter()
        .zip(&dataset.reads.quals)
        .zip(&dataset.reads.provenance)
        .enumerate()
        .map(|(i, ((seq, qual), prov))| FastqRecord {
            header: format!(
                "read{} kind={} genome={} span={}..{}{}",
                i,
                prov.kind.label(),
                prov.genome,
                prov.start,
                prov.end,
                if prov.reverse { " strand=-" } else { " strand=+" }
            ),
            seq: seq.clone(),
            qual: qual.clone(),
        })
        .collect();
    let f = File::create(&out).map_err(|e| format!("create {out}: {e}"))?;
    write_fastq(BufWriter::new(f), &records).map_err(|e| format!("write {out}: {e}"))?;
    println!("{}: wrote {} reads ({} bp) to {out}", dataset.name, records.len(), dataset.total_bases());
    if let Some(gpath) = opts.get("genome-out") {
        let grecords: Vec<FastaRecord> = dataset
            .genomes
            .iter()
            .enumerate()
            .map(|(i, g)| FastaRecord { header: format!("genome{} len={}", i, g.len()), seq: g.seq.clone() })
            .collect();
        let f = File::create(gpath).map_err(|e| format!("create {gpath}: {e}"))?;
        write_fasta(BufWriter::new(f), &grecords, 80).map_err(|e| format!("write {gpath}: {e}"))?;
        println!("wrote {} genome(s) to {gpath}", grecords.len());
    }
    Ok(())
}

fn read_reads(path: &str) -> Result<ReadSet, String> {
    let f = File::open(path).map_err(|e| format!("open {path}: {e}"))?;
    let records =
        pgasm::seq::fasta::read_fastq(BufReader::new(f)).map_err(|e| format!("parse {path}: {e}"))?;
    let mut reads = ReadSet::default();
    for r in records {
        reads.provenance.push(pgasm::simgen::Provenance {
            genome: 0,
            start: 0,
            end: r.seq.len() as u32,
            reverse: false,
            kind: pgasm::simgen::ReadKind::Wgs,
        });
        reads.seqs.push(r.seq);
        reads.quals.push(r.qual);
    }
    if reads.is_empty() {
        return Err(format!("{path}: no reads"));
    }
    Ok(reads)
}

fn pipeline_config(opts: &Opts) -> Result<PipelineConfig, String> {
    let mut cluster = ClusterParams::default();
    cluster.gst.psi = opts.parse_or("psi", cluster.gst.psi)?;
    if cluster.gst.psi == 0 {
        return Err("--psi must be >= 1".to_string());
    }
    cluster.criteria.min_identity = opts.parse_or("min-identity", cluster.criteria.min_identity)?;
    if !(0.0..=1.0).contains(&cluster.criteria.min_identity) {
        return Err(format!("--min-identity must be in [0, 1], not {}", cluster.criteria.min_identity));
    }
    cluster.criteria.min_overlap = opts.parse_or("min-overlap", cluster.criteria.min_overlap)?;
    cluster.band = opts.parse_or("band", cluster.band)?;
    if cluster.band == 0 {
        return Err("--band must be >= 1".to_string());
    }
    // Serial is the absence of --ranks, not a rank count.
    let ranks: usize = opts.parse_or("ranks", 0)?;
    if opts.get("ranks").is_some() && ranks < 2 {
        return Err(format!("--ranks {ranks}: a distributed run needs p >= 2 (omit --ranks to run serial)"));
    }
    let preprocess =
        if opts.get("no-preprocess").is_some() { None } else { Some(PreprocessConfig::default()) };
    let cache_dir = opts.get("cache-dir").map(std::path::PathBuf::from);
    let mut recovery = pgasm::cluster::StageRecovery::default();
    if let Some(spec) = opts.get("fault-plan") {
        recovery.faults = pgasm::mpisim::FaultPlan::parse(spec).map_err(|e| format!("--fault-plan: {e}"))?;
    }
    if let Some(n) = opts.get("checkpoint-every") {
        let n: u64 = n.parse().map_err(|_| format!("--checkpoint-every: cannot parse '{n}'"))?;
        if n == 0 {
            return Err("--checkpoint-every must be >= 1: a cadence of 0 writes no snapshot".to_string());
        }
        recovery.checkpoint_every = Some(n);
        let base = opts.require("checkpoint")?;
        recovery.checkpoint_path = Some(std::path::PathBuf::from(base));
    } else if opts.get("checkpoint").is_some() {
        return Err(
            "--checkpoint needs --checkpoint-every <n>: without a cadence no snapshot is written".to_string()
        );
    }
    if let Some(base) = opts.get("resume") {
        recovery.resume_from = Some(std::path::PathBuf::from(base));
    }
    let recovers =
        !recovery.faults.is_empty() || recovery.checkpoint_every.is_some() || recovery.resume_from.is_some();
    let exec = match (ranks, opts.parse_or("assembly-threads", 4)?) {
        (_, 0) => return Err("--assembly-threads must be >= 1".to_string()),
        (0, _) if recovers => {
            return Err("--fault-plan / --checkpoint-every / --resume need --ranks <p> (p >= 2): \
                        fault tolerance lives in the distributed engine"
                .to_string())
        }
        (0, threads) => Exec::Threads(threads),
        (_, _) if opts.get("assembly-threads").is_some() => {
            return Err("--assembly-threads and --ranks: assembly runs on the ranks or on threads".to_string())
        }
        (p, _) => Exec::Ranks { p, engine: Default::default(), recovery },
    };
    Ok(PipelineConfig {
        preprocess,
        cluster,
        exec,
        cache_dir,
        trace: if opts.get("trace-json").is_some() {
            pgasm::telemetry::trace::TraceSpec::on()
        } else {
            pgasm::telemetry::trace::TraceSpec::off()
        },
        ..Default::default()
    })
}

/// Run the pipeline over `--reads`, through the assemble stage or (for
/// `pgasm cluster`) only through clustering.
fn run_pipeline(opts: &Opts, label: &str, assemble: bool) -> Result<pgasm::cluster::PipelineReport, String> {
    let config = pipeline_config(opts)?;
    let reads = read_reads(opts.require("reads")?)?;
    let caching = config.cache_dir.is_some();
    let pipeline = Pipeline::new(config);
    let mut ctx = pgasm::telemetry::RunContext::new(label);
    let vectors = [DnaSeq::from(VECTOR_SEQ)];
    let report = if assemble {
        pipeline.run(&reads, &vectors, &[], &mut ctx)
    } else {
        pipeline.cluster(&reads, &vectors, &[], &mut ctx)
    };
    if caching {
        use pgasm::telemetry::names;
        println!(
            "cache: {} hit(s), {} miss(es), {} bytes written, {} bytes read",
            ctx.counter(names::CACHE_HIT),
            ctx.counter(names::CACHE_MISS),
            ctx.counter(names::CACHE_BYTES_WRITTEN),
            ctx.counter(names::CACHE_BYTES_READ)
        );
    }
    // Every nonzero fault or recovery counter, or no line at all.
    let faults: Vec<String> = pgasm::telemetry::names::FAULT_COUNTERS
        .iter()
        .map(|&name| (name, ctx.counter(name)))
        .filter(|&(_, value)| value > 0)
        .map(|(name, value)| format!("{name}={value}"))
        .collect();
    if !faults.is_empty() {
        println!("faults: {}", faults.join(", "));
    }
    if let Some(path) = opts.get("trace-json") {
        let doc = ctx.trace_document();
        doc.write_chrome_json(std::path::Path::new(path)).map_err(|e| format!("write {path}: {e}"))?;
        println!(
            "wrote {} trace track(s), {} categories to {path} (open at ui.perfetto.dev)",
            doc.tracks.len(),
            doc.categories().len()
        );
        println!("telemetry: {} trace event(s) dropped", doc.dropped_events());
    }
    if let Some(path) = opts.get("metrics-json") {
        if let Some(kb) = peak_rss_kb() {
            ctx.set(pgasm::telemetry::names::PEAK_RSS_KB, kb);
        }
        let run_report = ctx.finish();
        run_report.write_json(std::path::Path::new(path)).map_err(|e| format!("write {path}: {e}"))?;
        println!("wrote run report to {path}");
    }
    if let Some(stage) = &report.interrupted {
        return Err(format!(
            "stage '{stage}' was interrupted by a master kill before it completed; \
             rerun with --resume <base> (the base passed to --checkpoint) to finish \
             from the last checkpoint"
        ));
    }
    Ok(report)
}

/// The process's peak resident set in KiB: `VmHWM` of
/// `/proc/self/status`, or `None` on a host without that file.
fn peak_rss_kb() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    status.lines().find_map(|l| l.strip_prefix("VmHWM:"))?.trim().strip_suffix("kB")?.trim().parse().ok()
}

fn analyze(opts: &Opts) -> Result<(), String> {
    use pgasm::telemetry::{analyze, Json};
    let trace_path = opts.require("trace-json")?;
    let tol = opts.get("coverage-tol").map(|_| opts.parse_or("coverage-tol", 0.0f64)).transpose()?;
    if let Some(tol) = tol.filter(|t| !(t.is_finite() && *t >= 0.0)) {
        return Err(format!("--coverage-tol must be finite and >= 0, not {tol}"));
    }
    let text = std::fs::read_to_string(trace_path).map_err(|e| format!("read {trace_path}: {e}"))?;
    let doc = Json::parse(&text).map_err(|e| format!("{trace_path}: {e}"))?;
    let tracks = analyze::parse_chrome_trace(&doc).map_err(|e| format!("{trace_path}: {e}"))?;
    let top: usize = opts.parse_or("top", 5)?;
    let analysis = analyze::analyze(&tracks, top);
    print!("{}", analysis.render());
    if let Some(out) = opts.get("out") {
        std::fs::write(out, analysis.to_json().pretty()).map_err(|e| format!("write {out}: {e}"))?;
        println!("wrote analysis to {out}");
    }
    if let Some(tol) = tol {
        let err = analysis.max_coverage_error();
        if err > tol {
            return Err(format!(
                "attribution coverage off by {:.1}% (> {:.1}% tolerance) on some rank",
                err * 100.0,
                tol * 100.0
            ));
        }
        if analysis.critical_path.is_empty() {
            return Err("critical path is empty".to_string());
        }
        println!(
            "coverage check ok: max attribution error {:.2}% (tolerance {:.1}%), {} critical-path segment(s)",
            err * 100.0,
            tol * 100.0,
            analysis.critical_path.len()
        );
    }
    Ok(())
}

fn cluster(opts: &Opts) -> Result<(), String> {
    let report = run_pipeline(opts, "pgasm cluster", false)?;
    let s = report.cluster_stats;
    println!(
        "clustered {} fragments: {} clusters, {} singletons (largest {:.1}%)",
        report.origin.len(),
        report.clustering.num_non_singletons(),
        report.clustering.num_singletons(),
        report.clustering.max_cluster_fraction() * 100.0
    );
    println!(
        "pairs: {} generated, {} aligned ({:.0}% savings), {} accepted",
        s.generated,
        s.aligned,
        s.savings() * 100.0,
        s.accepted
    );
    println!("alignment: {} DP cells", s.dp_cells);
    if let Some(out) = opts.get("out") {
        use std::io::Write;
        let mut f = BufWriter::new(File::create(out).map_err(|e| format!("create {out}: {e}"))?);
        for cluster in &report.clustering.clusters {
            let reads: Vec<String> =
                cluster.iter().map(|&frag| format!("read{}", report.origin[frag as usize])).collect();
            writeln!(f, "{}", reads.join("\t")).map_err(|e| format!("write {out}: {e}"))?;
        }
        println!("wrote cluster membership to {out}");
    }
    Ok(())
}

fn assemble(opts: &Opts) -> Result<(), String> {
    let out = opts.require("out")?.to_string();
    let report = run_pipeline(opts, "pgasm assemble", true)?;
    let mut records = Vec::new();
    for (ci, assembly) in report.assemblies.iter().enumerate() {
        for (j, contig) in assembly.contigs.iter().enumerate() {
            records.push(FastaRecord {
                header: format!("contig_{ci}_{j} len={} reads={}", contig.seq.len(), contig.placements.len()),
                seq: contig.seq.clone(),
            });
        }
    }
    let f = File::create(&out).map_err(|e| format!("create {out}: {e}"))?;
    write_fasta(BufWriter::new(f), &records, 80).map_err(|e| format!("write {out}: {e}"))?;
    println!(
        "assembled {} clusters into {} contigs ({} bp total, {:.2} contigs/cluster); wrote {out}",
        report.assemblies.len(),
        records.len(),
        records.iter().map(|r| r.seq.len()).sum::<usize>(),
        report.contigs_per_cluster()
    );
    Ok(())
}

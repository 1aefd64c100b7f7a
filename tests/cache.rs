//! Artifact-cache integration: cold runs populate the cache, warm runs
//! reload the preprocess output and GST with byte-identical contigs,
//! parameter changes invalidate exactly the affected entries, and
//! corrupted cache files degrade to a cold run instead of wrong output.

use pgasm::align::AcceptCriteria;
use pgasm::cluster::{ClusterParams, Pipeline, PipelineConfig, PipelineReport};
use pgasm::gst::GstConfig;
use pgasm::preprocess::PreprocessConfig;
use pgasm::seq::DnaSeq;
use pgasm::simgen::genome::{Genome, GenomeSpec};
use pgasm::simgen::sampler::{Sampler, SamplerConfig};
use pgasm::simgen::vector::VECTOR_SEQ;
use pgasm::simgen::{ReadKind, ReadSet};
use pgasm::telemetry::{names, RunContext, RunReport};
use std::path::{Path, PathBuf};

/// Per-test scratch cache directory, removed on drop.
struct CacheDir(PathBuf);

impl CacheDir {
    fn new(tag: &str) -> CacheDir {
        let dir = std::env::temp_dir().join(format!("pgasm-test-cache-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        CacheDir(dir)
    }
}

impl Drop for CacheDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn fixture_reads(seed: u64) -> (ReadSet, Genome) {
    let genome = Genome::generate(
        &GenomeSpec {
            length: 16_000,
            repeat_fraction: 0.2,
            repeat_families: 2,
            repeat_len: (120, 300),
            repeat_identity: 0.99,
            islands: 3,
            island_len: (1_200, 2_000),
        },
        seed,
    );
    let mut cfg = SamplerConfig::default_scaled();
    cfg.island_bias = 1.0;
    let mut sampler = Sampler::new(&genome, cfg, seed + 1);
    (sampler.enriched(120, ReadKind::Hc), genome)
}

fn cached_config(dir: &Path) -> PipelineConfig {
    PipelineConfig {
        preprocess: Some(PreprocessConfig { stat_repeats: None, min_unmasked_run: 40, ..Default::default() }),
        cluster: ClusterParams {
            gst: GstConfig { psi: 18 },
            criteria: AcceptCriteria { min_identity: 0.9, min_overlap: 35 },
            ..Default::default()
        },
        parallel_ranks: None,
        assembly_threads: 2,
        cache_dir: Some(dir.to_path_buf()),
        ..Default::default()
    }
}

fn run(config: PipelineConfig, reads: &ReadSet, genome: &Genome) -> (PipelineReport, RunReport) {
    let mut ctx = RunContext::new("cache-test");
    let report = Pipeline::new(config).run_with_context(
        reads,
        &[DnaSeq::from(VECTOR_SEQ)],
        &genome.repeat_library,
        &mut ctx,
    );
    (report, ctx.finish())
}

/// Every contig of every assembly, as raw ASCII — byte-level equality.
fn contig_bytes(report: &PipelineReport) -> Vec<Vec<u8>> {
    report.assemblies.iter().flat_map(|a| a.contigs.iter().map(|c| c.seq.to_ascii())).collect()
}

#[test]
fn warm_run_hits_cache_with_byte_identical_contigs() {
    let dir = CacheDir::new("warm");
    let (reads, genome) = fixture_reads(7);

    let (cold, cold_run) = run(cached_config(&dir.0), &reads, &genome);
    // Cold: all three artifacts miss, then persist.
    assert_eq!(cold_run.counter(names::CACHE_HIT), 0);
    assert_eq!(cold_run.counter(names::CACHE_MISS), 3);
    assert!(cold_run.counter(names::CACHE_BYTES_WRITTEN) > 0);
    // Cold cache-enabled serial runs expose the GST build as a span.
    assert!(cold_run.span("cluster").unwrap().find("cluster/gst_build").is_some());

    let (warm, warm_run) = run(cached_config(&dir.0), &reads, &genome);
    // Warm: preprocess + GST + contigs all load; nothing is recomputed
    // or rewritten — the assemble stage is skipped outright.
    assert_eq!(warm_run.counter(names::CACHE_HIT), 3);
    assert_eq!(warm_run.counter(names::CACHE_MISS), 0);
    assert_eq!(warm_run.counter(names::CACHE_BYTES_WRITTEN), 0);
    assert!(warm_run.counter(names::CACHE_BYTES_READ) > 0);
    assert!(
        warm_run.span("cluster").unwrap().find("cluster/gst_build").is_none(),
        "warm run must not rebuild the GST"
    );

    assert_eq!(warm.clustering, cold.clustering);
    assert_eq!(warm.preprocess, cold.preprocess);
    assert_eq!(contig_bytes(&warm), contig_bytes(&cold));
    assert!(!contig_bytes(&cold).is_empty(), "fixture must assemble something");
}

#[test]
fn unrelated_flag_change_still_hits() {
    let dir = CacheDir::new("unrelated");
    let (reads, genome) = fixture_reads(8);
    let (cold, _) = run(cached_config(&dir.0), &reads, &genome);

    // assembly_threads affects no artifact key — not even the contigs
    // (the thread count never changes the output bytes).
    let mut config = cached_config(&dir.0);
    config.assembly_threads = 7;
    let (warm, warm_run) = run(config, &reads, &genome);
    assert_eq!(warm_run.counter(names::CACHE_HIT), 3);
    assert_eq!(warm_run.counter(names::CACHE_MISS), 0);
    assert_eq!(contig_bytes(&warm), contig_bytes(&cold));
}

#[test]
fn params_change_recomputes_affected_stage() {
    let dir = CacheDir::new("params");
    let (reads, genome) = fixture_reads(9);
    let (_, cold_run) = run(cached_config(&dir.0), &reads, &genome);
    assert_eq!(cold_run.counter(names::CACHE_MISS), 3);

    // A GST parameter change invalidates the GST entry only: the
    // preprocess artifact still hits.
    let mut config = cached_config(&dir.0);
    config.cluster.gst.psi = 22;
    let (_, run1) = run(config, &reads, &genome);
    assert_eq!(run1.counter(names::CACHE_HIT), 1, "preprocess should still hit");
    // The psi change cascades past the GST: the clustering it yields
    // differs, so the contigs entry (keyed on the clustering) misses
    // along with the tree.
    assert_eq!(run1.counter(names::CACHE_MISS), 2, "gst and contigs must recompute");

    // A preprocess parameter change always invalidates the preprocess
    // entry. The GST entry is content-addressed on the preprocess
    // *output*, not its parameters: this tweak (min run 40 → 60)
    // rejects no additional fragments, so the fragment set — and the
    // GST key — is unchanged and the tree still reloads.
    let mut config = cached_config(&dir.0);
    config.preprocess =
        Some(PreprocessConfig { stat_repeats: None, min_unmasked_run: 60, ..Default::default() });
    let (rep2, run2) = run(config, &reads, &genome);
    assert_eq!(run2.counter(names::CACHE_MISS), 1, "preprocess must recompute");
    assert_eq!(run2.counter(names::CACHE_HIT), 2, "unchanged output keeps the GST and contigs warm");

    // A preprocess change that *does* alter the surviving set cascades:
    // the GST keys off a different fragment digest and recomputes too.
    let mut config = cached_config(&dir.0);
    config.preprocess =
        Some(PreprocessConfig { stat_repeats: None, min_unmasked_run: 100_000, ..Default::default() });
    let (rep3, run3) = run(config, &reads, &genome);
    assert!(
        rep3.origin.len() < rep2.origin.len(),
        "fixture must actually lose fragments ({} vs {})",
        rep3.origin.len(),
        rep2.origin.len()
    );
    assert_eq!(run3.counter(names::CACHE_HIT), 0);
    assert_eq!(run3.counter(names::CACHE_MISS), 3);
}

#[test]
fn truncated_cache_files_degrade_to_cold_run() {
    let dir = CacheDir::new("truncate");
    let (reads, genome) = fixture_reads(10);
    let (cold, _) = run(cached_config(&dir.0), &reads, &genome);

    // Truncate every cache entry to half its size.
    let mut entries = 0;
    for entry in std::fs::read_dir(&dir.0).unwrap() {
        let path = entry.unwrap().path();
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..bytes.len() / 2]).unwrap();
        entries += 1;
    }
    assert_eq!(entries, 3, "expected preprocess, gst, and contigs entries");

    // The run must neither panic nor trust the damaged entries — full
    // recompute, identical results, and repaired cache files.
    let (recovered, rec_run) = run(cached_config(&dir.0), &reads, &genome);
    assert_eq!(rec_run.counter(names::CACHE_HIT), 0);
    assert_eq!(rec_run.counter(names::CACHE_MISS), 3);
    assert!(rec_run.counter(names::CACHE_BYTES_WRITTEN) > 0, "entries must be rewritten");
    assert_eq!(contig_bytes(&recovered), contig_bytes(&cold));

    // And the rewrite healed the cache: the next run is warm again.
    let (_, healed_run) = run(cached_config(&dir.0), &reads, &genome);
    assert_eq!(healed_run.counter(names::CACHE_HIT), 3);
    assert_eq!(healed_run.counter(names::CACHE_MISS), 0);
}

#[test]
fn uncached_and_cached_results_agree() {
    let dir = CacheDir::new("parity");
    let (reads, genome) = fixture_reads(11);
    let mut uncached = cached_config(&dir.0);
    uncached.cache_dir = None;
    let (plain, plain_run) = run(uncached, &reads, &genome);
    assert_eq!(plain_run.counter(names::CACHE_HIT) + plain_run.counter(names::CACHE_MISS), 0);

    let (cold, _) = run(cached_config(&dir.0), &reads, &genome);
    let (warm, _) = run(cached_config(&dir.0), &reads, &genome);
    assert_eq!(contig_bytes(&plain), contig_bytes(&cold));
    assert_eq!(contig_bytes(&plain), contig_bytes(&warm));
    assert_eq!(plain.clustering, warm.clustering);
}

#[test]
fn assembler_revision_is_part_of_the_contigs_key() {
    use pgasm::assemble::{AssemblyConfig, ASSEMBLER_REVISION};
    use pgasm::cluster::cache::{contigs_key, contigs_key_at_revision};
    use pgasm::cluster::Clustering;

    let (reads, _) = fixture_reads(12);
    let store = reads.to_store();
    let clustering = Clustering { clusters: vec![vec![0, 2], vec![1]] };
    let config = AssemblyConfig::default();
    let key = |revision| contigs_key_at_revision(&store, Some(&reads.quals), &clustering, &config, revision);
    // Same reads, qualities, partition and parameters: contigs another
    // revision of the assembler cached are never a warm hit.
    assert_eq!(contigs_key(&store, Some(&reads.quals), &clustering, &config), key(ASSEMBLER_REVISION));
    assert_ne!(key(ASSEMBLER_REVISION), key(ASSEMBLER_REVISION - 1));
    assert_ne!(key(ASSEMBLER_REVISION), key(ASSEMBLER_REVISION + 1));
}

#[test]
fn gst_entries_key_on_psi_and_on_the_codec_schema() {
    use pgasm::cluster::cache::{gst_key, ArtifactCache};
    use pgasm::gst::GST_CODEC_SCHEMA;

    let dir = CacheDir::new("gst-schema");
    let (reads, genome) = fixture_reads(13);
    // Same reads, ψ 16 vs 20: a different forest, a different key.
    let ds = reads.to_store().with_reverse_complements();
    assert_ne!(gst_key(&ds, &GstConfig { psi: 16 }), gst_key(&ds, &GstConfig { psi: 20 }));

    // An entry under this run's own key but written by the previous
    // codec schema (every suffix indexed, `w` in the header) is ignored,
    // not trusted: the tree is rebuilt and the entry replaced.
    let (cold, _) = run(cached_config(&dir.0), &reads, &genome);
    let entry = std::fs::read_dir(&dir.0)
        .unwrap()
        .map(|e| e.unwrap().file_name().into_string().unwrap())
        .find(|name| name.starts_with("gst-"))
        .expect("the cold run stored a gst entry");
    let key = u64::from_str_radix(&entry["gst-".len()..entry.len() - ".pgac".len()], 16).unwrap();
    let cache = ArtifactCache::open(&dir.0).unwrap();
    let payload = cache.load("gst", GST_CODEC_SCHEMA, key).expect("current entry loads");
    cache.store("gst", GST_CODEC_SCHEMA - 1, key, &payload).unwrap();
    assert!(cache.load("gst", GST_CODEC_SCHEMA, key).is_none());

    let (again, again_run) = run(cached_config(&dir.0), &reads, &genome);
    assert_eq!(again_run.counter(names::CACHE_HIT), 2, "preprocess and contigs still hit");
    assert_eq!(again_run.counter(names::CACHE_MISS), 1, "the stale gst entry must miss");
    assert!(again_run.span("cluster").unwrap().find("cluster/gst_build").is_some());
    assert_eq!(again.clustering, cold.clustering);
    assert_eq!(cache.load("gst", GST_CODEC_SCHEMA, key), Some(payload));
}

/// Names a reader of `--metrics-json` / `--trace-json` can see: span
/// paths (pre-order), run-counter names, per-rank counter names, and
/// trace tracks.
#[derive(Debug, PartialEq)]
struct Skeleton {
    spans: Vec<String>,
    counters: Vec<String>,
    rank_counters: Vec<Vec<String>>,
    tracks: Vec<(usize, String)>,
}

fn skeleton(config: PipelineConfig, reads: &ReadSet, genome: &Genome) -> Skeleton {
    fn paths(prefix: &str, spans: &[pgasm::telemetry::Span], out: &mut Vec<String>) {
        for s in spans {
            out.push(format!("{prefix}{}", s.name));
            paths(&format!("{prefix}{}/", s.name), &s.children, out);
        }
    }
    let mut ctx = RunContext::new("skeleton");
    Pipeline::new(config).run_with_context(
        reads,
        &[DnaSeq::from(VECTOR_SEQ)],
        &genome.repeat_library,
        &mut ctx,
    );
    let tracks = ctx.trace_document().tracks.iter().map(|t| (t.rank, t.label.clone())).collect();
    let run = ctx.finish();
    let mut spans = Vec::new();
    paths("", &run.spans, &mut spans);
    Skeleton {
        spans,
        counters: run.counters.keys().cloned().collect(),
        rank_counters: run.ranks.iter().map(|r| r.counters.keys().cloned().collect()).collect(),
        tracks,
    }
}

/// The whole skeleton of the run report, four ways on one input. A
/// refactor of the pipeline must leave every list here alone.
#[test]
fn run_report_skeleton_is_pinned() {
    fn strs(names: &[&str]) -> Vec<String> {
        names.iter().map(|s| s.to_string()).collect()
    }
    // Counters every run sets (sorted, as the report's map iterates).
    const BASE: [&str; 18] = [
        "assembled_clusters",
        "clusters",
        "contigs",
        "dp_cells",
        "fragments",
        "gst_nodes",
        "gst_suffixes_enumerated",
        "gst_suffixes_indexed",
        "merges",
        "non_singleton_clusters",
        "pairs_accepted",
        "pairs_aligned",
        "pairs_generated",
        "preprocess_masked_bases",
        "preprocess_rejected_by_mask",
        "preprocess_rejected_by_trim",
        "reads_in",
        "simd_lanes",
    ];
    let with = |extra: &[&str]| {
        let mut all = strs(&BASE);
        all.extend(strs(extra));
        all.sort();
        all
    };
    let serial = |spans: &[&str], extra: &[&str]| Skeleton {
        spans: strs(spans),
        counters: with(extra),
        rank_counters: Vec::new(),
        tracks: Vec::new(),
    };

    let dir = CacheDir::new("skeleton");
    let (reads, genome) = fixture_reads(7);
    let uncached = PipelineConfig { cache_dir: None, ..cached_config(&dir.0) };
    assert_eq!(
        skeleton(uncached.clone(), &reads, &genome),
        serial(&["preprocess", "cluster", "cluster/gst_build", "assemble"], &[])
    );
    assert_eq!(
        skeleton(cached_config(&dir.0), &reads, &genome),
        serial(
            &[
                "preprocess",
                "preprocess/cache",
                "preprocess/cache",
                "cluster",
                "cluster/cache",
                "cluster/gst_build",
                "cluster/cache",
                "assemble",
                "assemble/cache",
                "assemble/cache",
            ],
            &["cache_bytes_written", "cache_miss"]
        ),
        "cold"
    );
    assert_eq!(
        skeleton(cached_config(&dir.0), &reads, &genome),
        serial(
            &["preprocess", "preprocess/cache", "cluster", "cluster/cache", "assemble", "assemble/cache"],
            &["cache_bytes_read", "cache_hit"]
        ),
        "warm"
    );

    let parallel = PipelineConfig {
        parallel_ranks: Some(3),
        trace: pgasm::telemetry::trace::TraceSpec::on(),
        ..uncached
    };
    let worker = strs(&[
        "align_scratch_bytes_peak",
        "align_scratch_grows",
        "asm_batch_round_trips",
        "asm_clusters_assembled",
        "asm_contig_bases",
        "asm_cost_units",
        "asm_reads_assembled",
        "barrier_ns_total",
        "batch_round_trips",
        "dp_cells",
        "pairs_accepted",
        "pairs_aligned",
        "pairs_generated",
        "simd_lanes",
        "wait_ns_total",
    ]);
    let master = strs(&[
        "asm_batches_dispatched",
        "asm_peak_queue_depth",
        "barrier_ns_total",
        "batches_dispatched",
        "dp_cells",
        "inbox_drain_depth_max",
        "pairs_accepted",
        "pairs_aligned",
        "pairs_generated",
        "pairs_selected",
        "peak_queue_depth",
        "wait_ns_total",
    ]);
    assert_eq!(
        skeleton(parallel, &reads, &genome),
        Skeleton {
            spans: strs(&[
                "preprocess",
                "cluster",
                "cluster/gst_build",
                "cluster/master_worker",
                "assemble",
                "assemble/dist_assemble",
            ]),
            counters: with(&["trace_events_dropped"]),
            rank_counters: vec![master, worker.clone(), worker],
            tracks: [(0, "master"), (1, "worker"), (2, "worker"), (3, "pipeline")]
                .map(|(r, l)| (r, l.to_string()))
                .to_vec(),
        }
    );
}

//! Artifact-cache integration: cold runs populate the cache, warm runs
//! reload the preprocess output, the partition and the contigs with
//! byte-identical results — whatever the rank count of either run —
//! parameter changes invalidate exactly the affected entries, and
//! corrupted cache files degrade to a cold run instead of wrong output.

use pgasm::align::AcceptCriteria;
use pgasm::cluster::{ClusterParams, Exec, Pipeline, PipelineConfig, PipelineReport};
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

fn ranks(p: usize) -> Exec {
    Exec::Ranks { p, engine: Default::default(), recovery: Default::default() }
}

fn cached_config(dir: &Path) -> PipelineConfig {
    PipelineConfig {
        preprocess: Some(PreprocessConfig { stat_repeats: None, min_unmasked_run: 40, ..Default::default() }),
        cluster: ClusterParams {
            gst: GstConfig { psi: 18 },
            criteria: AcceptCriteria { min_identity: 0.9, min_overlap: 35 },
            ..Default::default()
        },
        exec: Exec::Threads(2),
        cache_dir: Some(dir.to_path_buf()),
        ..Default::default()
    }
}

fn run(config: PipelineConfig, reads: &ReadSet, genome: &Genome) -> (PipelineReport, RunReport) {
    let mut ctx = RunContext::new("cache-test");
    let report =
        Pipeline::new(config).run(reads, &[DnaSeq::from(VECTOR_SEQ)], &genome.repeat_library, &mut ctx);
    (report, ctx.finish())
}

/// The run's counters, less the cache's own traffic.
fn work_counters(run: &RunReport) -> Vec<(String, u64)> {
    run.counters
        .iter()
        .filter(|(name, _)| !name.starts_with("cache_"))
        .map(|(n, &v)| (n.clone(), v))
        .collect()
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
    // Warm: preprocess + partition + contigs all load; nothing is
    // recomputed or rewritten — the cluster and assemble stages are
    // skipped outright.
    assert_eq!(warm_run.counter(names::CACHE_HIT), 3);
    assert_eq!(warm_run.counter(names::CACHE_MISS), 0);
    assert_eq!(warm_run.counter(names::CACHE_BYTES_WRITTEN), 0);
    assert!(warm_run.counter(names::CACHE_BYTES_READ) > 0);
    assert!(
        warm_run.span("cluster").unwrap().find("cluster/gst_build").is_none(),
        "warm run must not rebuild the GST"
    );
    // The artifacts carry their stages' tallies: the warm report counts
    // the work the cold run did.
    assert_eq!(work_counters(&warm_run), work_counters(&cold_run));

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

    // The assembly thread count affects no artifact key — not even the contigs
    // (the thread count never changes the output bytes).
    let mut config = cached_config(&dir.0);
    config.exec = Exec::Threads(7);
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

    // A clustering parameter change invalidates the partition entry
    // only: the preprocess artifact still hits.
    let mut config = cached_config(&dir.0);
    config.cluster.gst.psi = 22;
    let (_, run1) = run(config, &reads, &genome);
    assert_eq!(run1.counter(names::CACHE_HIT), 1, "preprocess should still hit");
    // The psi change cascades past the partition: the clustering it
    // yields differs, so the contigs entry (keyed on the clustering)
    // misses along with it.
    assert_eq!(run1.counter(names::CACHE_MISS), 2, "partition and contigs must recompute");

    // A preprocess parameter change always invalidates the preprocess
    // entry. The partition entry is content-addressed on the preprocess
    // *output*, not its parameters: this tweak (min run 40 → 60)
    // rejects no additional fragments, so the fragment set — and the
    // partition key — is unchanged and the partition still reloads.
    let mut config = cached_config(&dir.0);
    config.preprocess =
        Some(PreprocessConfig { stat_repeats: None, min_unmasked_run: 60, ..Default::default() });
    let (rep2, run2) = run(config, &reads, &genome);
    assert_eq!(run2.counter(names::CACHE_MISS), 1, "preprocess must recompute");
    assert_eq!(run2.counter(names::CACHE_HIT), 2, "unchanged output keeps the partition and contigs warm");

    // A preprocess change that *does* alter the surviving set cascades:
    // the partition keys off a different fragment digest and recomputes
    // too.
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
    let mut kinds = Vec::new();
    for entry in std::fs::read_dir(&dir.0).unwrap() {
        let path = entry.unwrap().path();
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..bytes.len() / 2]).unwrap();
        kinds.push(path.file_name().unwrap().to_string_lossy().split('-').next().unwrap().to_string());
    }
    kinds.sort();
    assert_eq!(
        kinds,
        ["contigs", "partition", "preprocess"],
        "expected preprocess, partition, and contigs entries"
    );

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
    use pgasm::cluster::cache::{contigs_key, contigs_key_from};
    use pgasm::cluster::Clustering;
    use pgasm::seq::{quals_digest, store_digest};

    let (reads, _) = fixture_reads(12);
    let store = reads.to_store();
    let clustering = Clustering { clusters: vec![vec![0, 2], vec![1]] };
    let config = AssemblyConfig::default();
    let digests = (store_digest(&store), Some(quals_digest(&reads.quals)));
    let key = |revision| contigs_key_from(digests.0, digests.1, &clustering, &config, revision);
    // Same reads, qualities, partition and parameters: contigs another
    // revision of the assembler cached are never a warm hit.
    assert_eq!(contigs_key(&store, Some(&reads.quals), &clustering, &config), key(ASSEMBLER_REVISION));
    assert_ne!(key(ASSEMBLER_REVISION), key(ASSEMBLER_REVISION - 1));
    assert_ne!(key(ASSEMBLER_REVISION), key(ASSEMBLER_REVISION + 1));
}

#[test]
fn partition_entries_key_on_the_cluster_params_and_on_the_codec_schema() {
    use pgasm::cluster::cache::{partition_key_from, ArtifactCache};
    use pgasm::cluster::pipeline::PARTITION_CODEC_SCHEMA;
    use pgasm::cluster::CLUSTERING_REVISION;
    use pgasm::gst::GenMode;
    use pgasm::seq::store_digest;

    let dir = CacheDir::new("partition-schema");
    let (reads, genome) = fixture_reads(13);
    // Same fragments: ψ, the acceptance criteria, the band, the pair
    // generation mode and the algorithm's revision each change the key.
    let store = store_digest(&reads.to_store());
    let params = cached_config(&dir.0).cluster;
    let key = partition_key_from(store, &params, CLUSTERING_REVISION);
    for other in [
        ClusterParams { gst: GstConfig { psi: params.gst.psi + 2 }, ..params },
        ClusterParams {
            criteria: AcceptCriteria { min_overlap: params.criteria.min_overlap + 5, ..params.criteria },
            ..params
        },
        ClusterParams { band: params.band + 1, ..params },
        ClusterParams { mode: GenMode::AllMatches, ..params },
    ] {
        assert_ne!(partition_key_from(store, &other, CLUSTERING_REVISION), key, "{other:?}");
    }
    assert_ne!(partition_key_from(store, &params, CLUSTERING_REVISION + 1), key);

    // An entry under this run's own key but written by the previous
    // codec schema is ignored, not trusted: the stage reruns and the
    // entry is replaced.
    let (cold, _) = run(cached_config(&dir.0), &reads, &genome);
    let entry = std::fs::read_dir(&dir.0)
        .unwrap()
        .map(|e| e.unwrap().file_name().into_string().unwrap())
        .find(|name| name.starts_with("partition-"))
        .expect("the cold run stored a partition entry");
    let key = u64::from_str_radix(&entry["partition-".len()..entry.len() - ".pgac".len()], 16).unwrap();
    let cache = ArtifactCache::open(&dir.0).unwrap();
    let payload = cache.load("partition", PARTITION_CODEC_SCHEMA, key).expect("current entry loads");
    cache.store("partition", PARTITION_CODEC_SCHEMA - 1, key, &payload).unwrap();
    assert!(cache.load("partition", PARTITION_CODEC_SCHEMA, key).is_none());

    let (again, again_run) = run(cached_config(&dir.0), &reads, &genome);
    assert_eq!(again_run.counter(names::CACHE_HIT), 2, "preprocess and contigs still hit");
    assert_eq!(again_run.counter(names::CACHE_MISS), 1, "the stale partition entry must miss");
    assert!(again_run.span("cluster").unwrap().find("cluster/gst_build").is_some());
    assert_eq!(again.clustering, cold.clustering);
    assert_eq!(cache.load("partition", PARTITION_CODEC_SCHEMA, key), Some(payload));
}

/// A partition does not depend on the rank count, so one run's entries
/// serve the other: serial cold then `--ranks 3` warm, and the reverse.
#[test]
fn serial_and_distributed_runs_share_the_cache() {
    let (reads, genome) = fixture_reads(14);
    for (tag, cold_exec, warm_exec) in
        [("serial-first", Exec::Threads(2), ranks(3)), ("ranks-first", ranks(3), Exec::Threads(2))]
    {
        let dir = CacheDir::new(tag);
        let (cold, _) = run(PipelineConfig { exec: cold_exec, ..cached_config(&dir.0) }, &reads, &genome);
        let (warm, warm_run) =
            run(PipelineConfig { exec: warm_exec, ..cached_config(&dir.0) }, &reads, &genome);
        assert_eq!(warm_run.counter(names::CACHE_HIT), 3, "{tag}");
        assert_eq!(warm_run.counter(names::CACHE_MISS), 0, "{tag}");
        assert_eq!(warm.clustering, cold.clustering, "{tag}");
        assert_eq!(contig_bytes(&warm), contig_bytes(&cold), "{tag}");
        assert!(!contig_bytes(&cold).is_empty(), "fixture must assemble something");
    }
}

/// A master the fault plan kills leaves a partial clustering: the stage
/// stores nothing, and the next run clusters afresh.
#[test]
fn a_killed_masters_partition_is_never_cached() {
    use pgasm::cluster::StageRecovery;
    use pgasm::mpisim::FaultPlan;

    let dir = CacheDir::new("killed");
    let (reads, genome) = fixture_reads(15);
    let (clean, _) = run(PipelineConfig { cache_dir: None, ..cached_config(&dir.0) }, &reads, &genome);
    let recovery = StageRecovery {
        faults: FaultPlan::parse("kill:master,lease=1,stage=cluster").expect("grammar"),
        ..StageRecovery::default()
    };
    let killed = PipelineConfig {
        exec: Exec::Ranks { p: 3, engine: Default::default(), recovery },
        ..cached_config(&dir.0)
    };
    let (partial, _) = run(killed, &reads, &genome);
    assert_eq!(partial.interrupted.as_deref(), Some("cluster"));
    let entries: Vec<String> =
        std::fs::read_dir(&dir.0).unwrap().map(|e| e.unwrap().file_name().into_string().unwrap()).collect();
    assert!(entries.iter().all(|name| name.starts_with("preprocess-")), "{entries:?}");

    let (again, again_run) = run(cached_config(&dir.0), &reads, &genome);
    assert_eq!(again_run.counter(names::CACHE_HIT), 1, "only the preprocess output was stored");
    assert_eq!(again.clustering, clean.clustering);
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
    Pipeline::new(config).run(reads, &[DnaSeq::from(VECTOR_SEQ)], &genome.repeat_library, &mut ctx);
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
    const BASE: [&str; 17] = [
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
        serial(
            &[
                "preprocess",
                "cluster",
                "cluster/gst_build",
                "cluster/gst_build/admit",
                "cluster/gst_build/tree",
                "assemble"
            ],
            &[]
        )
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
                "cluster/gst_build/admit",
                "cluster/gst_build/tree",
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

    let parallel =
        PipelineConfig { exec: ranks(3), trace: pgasm::telemetry::trace::TraceSpec::on(), ..uncached };
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
        "gst_compute_ns",
        "gst_fragments_fetched",
        "gst_nodes",
        "gst_suffixes_enumerated",
        "gst_suffixes_indexed",
        "gst_suffixes_shipped",
        "pairs_accepted",
        "pairs_aligned",
        "pairs_generated",
        "wait_ns_total",
    ]);
    let master = strs(&[
        "asm_batches_dispatched",
        "asm_peak_queue_depth",
        "barrier_ns_total",
        "batches_dispatched",
        "dp_cells",
        "gst_compute_ns",
        "gst_fragments_fetched",
        "gst_nodes",
        "gst_suffixes_enumerated",
        "gst_suffixes_indexed",
        "gst_suffixes_shipped",
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

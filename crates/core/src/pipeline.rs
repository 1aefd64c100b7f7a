//! End-to-end cluster-then-assemble pipeline (paper Fig. 1): three
//! calls in a line — `preprocess` → `cluster` → `assemble` — whose
//! arguments and return values are the hand-offs. Each records its
//! telemetry — spans, counters, per-rank channels — into one
//! [`RunContext`] — the caller's, for the structured run report — and
//! reaches the artifact cache through one load and one store helper.

use crate::assemble_dist::{assemble_parallel_with, decode_assembly, encode_assembly, AssignPolicy};
use crate::cache::{self, ArtifactCache};
use crate::checkpoint::StageRecovery;
use crate::clustering::{cluster_serial_with_gst, ClusterParams, ClusterStats, Clustering};
use crate::engine::RunOpts;
use crate::master_worker::{cluster_parallel_with, MasterWorkerConfig};
use pgasm_assemble::{assemble_with_quality, Assembly, AssemblyConfig};
use pgasm_gst::{Gst, GstStats, GST_CODEC_SCHEMA};
use pgasm_mpisim::FaultStage;
use pgasm_preprocess::pipeline::PreprocessOutput;
use pgasm_preprocess::{PreprocessConfig, PreprocessStats, Preprocessor, PREPROCESS_CODEC_SCHEMA};
use pgasm_seq::wire::{checked_len, Reader, Writer};
use pgasm_seq::{DnaSeq, FragmentStore, QualityTrack, SeqId};
use pgasm_simgen::ReadSet;
use pgasm_telemetry::trace::{RankTrace, TraceCategory, TraceSpec, Tracer};
use pgasm_telemetry::{names, RankReport, RunContext, Span};

/// Pipeline configuration.
#[derive(Debug, Clone)]
pub struct PipelineConfig {
    /// Preprocessing settings; `None` runs clustering on the raw reads.
    pub preprocess: Option<PreprocessConfig>,
    /// Clustering parameters — the one place they are defined; the
    /// master–worker runtime borrows these at run time.
    pub cluster: ClusterParams,
    /// Run the clustering phase on this many simulated ranks
    /// (master–worker); `None` = serial engine.
    pub parallel_ranks: Option<usize>,
    /// Master–worker protocol knobs (batch size, buffer capacity).
    pub master_worker: MasterWorkerConfig,
    /// Per-cluster assembler settings.
    pub assembly: AssemblyConfig,
    /// Threads for the trivially parallel assembly phase.
    pub assembly_threads: usize,
    /// Per-rank event tracing ([`TraceSpec::off`] by default). When on,
    /// the [`RunContext`] collects one track per rank plus the pipeline's
    /// own, for Chrome-trace export and `pgasm analyze`.
    pub trace: TraceSpec,
    /// Directory for the content-addressed artifact cache; `None`
    /// disables caching. Repeated runs over identical inputs and
    /// parameters reload the preprocess output, (serial runs) the GST,
    /// and the assembled contigs from here instead of recomputing them.
    pub cache_dir: Option<std::path::PathBuf>,
    /// Fault tolerance of the distributed stages: failures to inject,
    /// checkpoint cadence, the snapshot to resume from. Its two paths
    /// are a *base* each stage derives its own file from
    /// (`<base>.cluster.pgck`, `<base>.assemble.pgck`), so one
    /// `--checkpoint` flag covers both. Passive by default.
    pub recovery: StageRecovery,
}

impl Default for PipelineConfig {
    fn default() -> Self {
        PipelineConfig {
            preprocess: Some(PreprocessConfig::default()),
            cluster: ClusterParams::default(),
            parallel_ranks: None,
            master_worker: MasterWorkerConfig::default(),
            assembly: AssemblyConfig::default(),
            assembly_threads: 4,
            trace: TraceSpec::off(),
            cache_dir: None,
            recovery: StageRecovery::default(),
        }
    }
}

/// The run options of one distributed stage: the run's tracing, the
/// fault plan narrowed to that stage, checkpoint/resume paths pointed
/// at the stage's own snapshot file.
fn stage_opts(config: &PipelineConfig, stage: FaultStage, name: &str) -> RunOpts {
    let derive = |p: &std::path::Path| {
        let mut s = p.as_os_str().to_os_string();
        s.push(format!(".{name}.pgck"));
        std::path::PathBuf::from(s)
    };
    let mut recovery = config.recovery.for_stage(stage);
    recovery.checkpoint_path = recovery.checkpoint_path.as_deref().map(derive);
    recovery.resume_from = recovery.resume_from.as_deref().map(derive);
    RunOpts { trace: config.trace, recovery }
}

/// Summary of a pipeline run (the §8 statistics).
#[derive(Debug, Clone)]
pub struct PipelineReport {
    /// Preprocessing accounting (when the phase ran).
    pub preprocess: Option<PreprocessStats>,
    /// The clustering over the *preprocessed* fragments.
    pub clustering: Clustering,
    /// Clustering work statistics.
    pub cluster_stats: ClusterStats,
    /// For each surviving fragment, the index of its original read.
    pub origin: Vec<usize>,
    /// Per-non-singleton-cluster assemblies (index-parallel with
    /// `clustering.non_singletons()`).
    pub assemblies: Vec<Assembly>,
    /// Seconds in preprocessing.
    pub preprocess_seconds: f64,
    /// Seconds in clustering.
    pub cluster_seconds: f64,
    /// Seconds in the assembly phase.
    pub assembly_seconds: f64,
    /// Name of the stage whose master the fault plan killed, if any.
    /// The run stopped there, this report's artifacts are partial, and
    /// `--resume` finishes it from the last checkpoint.
    pub interrupted: Option<String>,
}

impl PipelineReport {
    /// Total contigs across all clusters.
    pub fn total_contigs(&self) -> usize {
        self.assemblies.iter().map(|a| a.num_contigs()).sum()
    }

    /// Mean contigs per non-singleton cluster — the paper's §8 quality
    /// indicator (≈ 1.1 means clusters almost always hold exactly one
    /// assembly island).
    pub fn contigs_per_cluster(&self) -> f64 {
        if self.assemblies.is_empty() {
            return 0.0;
        }
        // A cluster can assemble into contigs plus leftover singleton
        // reads; count at least one unit per cluster.
        let units = self.assemblies.iter().map(|a| (a.num_contigs() + a.singletons.len()).max(1));
        units.sum::<usize>() as f64 / self.assemblies.len() as f64
    }
}

/// Artifact codec schema of the `contigs` cache kind; bump on any
/// layout change so stale entries read as misses. 2: assemblies in the
/// wire's `u32` form ([`encode_assembly`]).
pub const CONTIGS_CODEC_SCHEMA: u32 = 2;

/// Serialize the assemble stage's output for the artifact cache: a
/// count, then each assembly in its one serial form.
fn encode_contigs(assemblies: &[Assembly]) -> Vec<u8> {
    let mut w = Writer::with_capacity(64 * assemblies.len() + 16);
    w.put_u32(checked_len(assemblies.len()));
    for a in assemblies {
        encode_assembly(&mut w, a);
    }
    w.finish()
}

/// Inverse of [`encode_contigs`]; `None` — never a panic — on any
/// truncated or malformed payload, so a damaged entry is just a miss.
fn decode_contigs(payload: &[u8]) -> Option<Vec<Assembly>> {
    let mut r = Reader::new(payload);
    let out = (0..r.get_u32().ok()?).map(|_| decode_assembly(&mut r)).collect::<Result<_, _>>().ok()?;
    r.expect_end().ok()?;
    Some(out)
}

/// A span measured on rank-local clocks rather than by the context.
fn measured_span(name: &str, wall_seconds: f64, cpu_seconds: f64) -> Span {
    Span { name: name.to_string(), wall_seconds, cpu_seconds, children: Vec::new() }
}

/// What preprocessing hands on: a [`PreprocessOutput`] whose parts a
/// pass-through run (no [`PreprocessConfig`]) lacks are optional.
struct Fragments {
    /// Masked fragments driving clustering.
    store: FragmentStore,
    /// Soft-masked (original-base) fragments feeding the assembler;
    /// `None` = the raw reads in `store` serve both.
    store_unmasked: Option<FragmentStore>,
    quals: Vec<QualityTrack>,
    origin: Vec<usize>,
    stats: Option<PreprocessStats>,
}

/// One run in flight: what every phase reads (the configuration, the
/// artifact cache — `None` when off or unopenable) and what it records
/// into (the caller's context, the pipeline's own trace track).
struct Run<'a> {
    config: &'a PipelineConfig,
    cache: Option<ArtifactCache>,
    ctx: &'a mut RunContext,
    tracer: Tracer,
    /// The fault plan killed a stage's master: the run ends with that stage.
    killed: bool,
}

impl Run<'_> {
    /// Run one phase under the span, and the pipeline-track interval,
    /// named after it; returns its value and its wall seconds.
    fn stage<T>(&mut self, name: &'static str, body: impl FnOnce(&mut Self) -> T) -> (T, f64) {
        self.tracer.begin(TraceCategory::Stage, name);
        self.ctx.push(name);
        let out = body(self);
        let (wall, _cpu) = self.ctx.pop();
        self.tracer.end(TraceCategory::Stage, name);
        // Cache traffic accrues per stage, so its gauge is fed here.
        let bytes = self.ctx.counter(names::CACHE_BYTES_READ) + self.ctx.counter(names::CACHE_BYTES_WRITTEN);
        self.tracer.counter(TraceCategory::Stage, names::GAUGE_CACHE_BYTES, bytes);
        (out, wall)
    }

    /// The cached artifact `(kind, key)`, if `decode` accepts it; `key`
    /// is `None` when the run is uncached. Any failure — absent entry,
    /// corrupt frame, a payload `decode` finds malformed or not *for*
    /// this run — is a miss, never an error. With [`Run::store`], the
    /// only code that touches the cache.
    fn load<T>(
        &mut self,
        kind: &str,
        schema: u32,
        key: Option<u64>,
        decode: impl FnOnce(&[u8]) -> Option<T>,
    ) -> Option<T> {
        let (cache, key) = (self.cache.as_ref()?, key?);
        self.ctx.push("cache");
        let loaded = cache.load(kind, schema, key).and_then(|payload| {
            let out = decode(&payload)?;
            self.ctx.add(names::CACHE_BYTES_READ, payload.len() as u64);
            Some(out)
        });
        self.ctx.add(if loaded.is_some() { names::CACHE_HIT } else { names::CACHE_MISS }, 1);
        self.ctx.pop();
        loaded
    }

    /// Persist an artifact for the next run; a failed write is not an
    /// error (that run misses).
    fn store(&mut self, kind: &str, schema: u32, key: Option<u64>, encode: impl FnOnce() -> Vec<u8>) {
        let (Some(cache), Some(key)) = (&self.cache, key) else { return };
        self.ctx.push("cache");
        if let Ok(n) = cache.store(kind, schema, key, &encode()) {
            self.ctx.add(names::CACHE_BYTES_WRITTEN, n);
        }
        self.ctx.pop();
    }

    /// Fold one distributed stage's report into the run: its phase
    /// span, its fault/recovery tallies (summed over the rank counters
    /// `run_stage` wrote; nonzero only, so a clean run's report has no
    /// `faults` section), whether its master was killed, and its rank
    /// channels and trace tracks. Both stages run on the same ranks, so
    /// those merge by rank id: counters sum, comm rows append under each
    /// stage's tag labels, events append in time order.
    fn fold(&mut self, span: Span, ranks: Vec<RankReport>, traces: Vec<RankTrace>, killed: bool) {
        self.killed = killed;
        for name in [
            names::RECOVERED_TASKS,
            names::DEAD_RANKS,
            names::FAULT_KILLS,
            names::FAULT_MSGS_DROPPED,
            names::FAULT_MSGS_DELAYED,
            names::CKPT_WRITES,
            names::CKPT_BYTES,
        ] {
            let value: u64 = ranks.iter().map(|r| r.counter(name)).sum();
            if value > 0 {
                self.ctx.add(name, value);
            }
        }
        self.ctx.record_span(span);
        self.ctx.merge_ranks(ranks);
        if self.config.trace.enabled {
            self.ctx.merge_traces(traces);
        }
    }

    /// Trim/screen the reads into the masked clustering store and the
    /// soft-masked assembly store, or reload that output from the cache.
    /// With no [`PreprocessConfig`] the raw reads pass through.
    fn preprocess(&mut self, reads: &ReadSet, vectors: &[DnaSeq], known_repeats: &[DnaSeq]) -> Fragments {
        self.ctx.set(names::READS_IN, reads.len() as u64);
        let fragments = match &self.config.preprocess {
            Some(cfg) => {
                let key =
                    self.cache.as_ref().map(|_| cache::preprocess_key(reads, vectors, known_repeats, cfg));
                let cached = self.load("preprocess", PREPROCESS_CODEC_SCHEMA, key, |payload| {
                    PreprocessOutput::decode(payload).ok()
                });
                let out = cached.unwrap_or_else(|| {
                    let out = Preprocessor::new(cfg.clone(), vectors, known_repeats).run(reads);
                    self.store("preprocess", PREPROCESS_CODEC_SCHEMA, key, || out.encode());
                    out
                });
                // Also on a cache hit: the stats travel in the artifact.
                self.ctx.set(names::PREPROCESS_REJECTED_BY_TRIM, out.stats.rejected_by_trim as u64);
                self.ctx.set(names::PREPROCESS_REJECTED_BY_MASK, out.stats.rejected_by_mask as u64);
                self.ctx.set(names::PREPROCESS_MASKED_BASES, out.stats.masked_bases as u64);
                Fragments {
                    store: out.store,
                    store_unmasked: Some(out.store_unmasked),
                    quals: out.quals,
                    origin: out.origin,
                    stats: Some(out.stats),
                }
            }
            None => Fragments {
                store: reads.to_store(),
                store_unmasked: None,
                quals: reads.quals.clone(),
                origin: (0..reads.len()).collect(),
                stats: None,
            },
        };
        self.ctx.set(names::FRAGMENTS, fragments.store.num_fragments() as u64);
        fragments
    }

    /// Cluster the masked fragments: the serial engine, or the
    /// master–worker runtime on `parallel_ranks` (per-rank channels,
    /// phase sub-spans measured on rank-local clocks).
    fn cluster(&mut self, store: &FragmentStore) -> (Clustering, ClusterStats) {
        let params = &self.config.cluster;
        let (clustering, stats, gst) = match self.config.parallel_ranks {
            Some(p) => {
                let opts = stage_opts(self.config, FaultStage::Cluster, "cluster");
                let r = cluster_parallel_with(store, p, params, &self.config.master_worker, &opts);
                self.ctx.record_span(measured_span("gst_build", r.gst_seconds, r.gst_seconds));
                let phase = measured_span("master_worker", r.cluster_seconds, r.cpu_seconds.iter().sum());
                self.fold(phase, r.ranks, r.traces, r.killed);
                let mut gst = GstStats::default();
                for rank in &r.gst_reports {
                    gst.enumerated += rank.gst.enumerated;
                    gst.suffixes += rank.gst.suffixes;
                    gst.nodes += rank.gst.nodes;
                }
                (r.clustering, r.stats, gst)
            }
            None => {
                let gst = self.serial_gst(store);
                let gst_stats = gst.stats();
                let (clustering, stats) = cluster_serial_with_gst(store, params, Some(gst));
                (clustering, stats, gst_stats)
            }
        };
        for (name, value) in stats.counters().into_iter().chain([
            // How much of the input reached the tree.
            (names::GST_SUFFIXES_ENUMERATED, gst.enumerated as u64),
            (names::GST_SUFFIXES_INDEXED, gst.suffixes as u64),
            (names::GST_NODES, gst.nodes as u64),
            (names::MERGES, stats.merges),
            (names::SIMD_LANES, pgasm_align::simd::effective_lanes()),
            (names::CLUSTERS, clustering.clusters.len() as u64),
            (names::NON_SINGLETON_CLUSTERS, clustering.num_non_singletons() as u64),
        ]) {
            self.ctx.set(name, value);
        }
        (clustering, stats)
    }

    /// The GST of a serial run, built under a `gst_build` span — or,
    /// from a cached run's valid entry for this exact fragment set and
    /// GST parameters, loaded (no `gst_build` span: the report tells
    /// warm from cold); a tree that had to be built is stored.
    fn serial_gst(&mut self, store: &FragmentStore) -> Gst {
        let config = self.config.cluster.gst;
        let ds = store.with_reverse_complements();
        let key = self.cache.as_ref().map(|_| cache::gst_key(&ds, &config));
        // Decode checks internal consistency; the entry must also be
        // *for* this store and parameters (the key already encodes both
        // — this guards hash collisions and hand-edited files).
        let cached = self.load("gst", GST_CODEC_SCHEMA, key, |payload| {
            Gst::decode(payload).ok().filter(|g| g.config() == config && g.num_seqs() == ds.num_seqs())
        });
        cached.unwrap_or_else(|| {
            let gst = self.ctx.scope("gst_build", |_| Gst::build(&ds, config));
            self.store("gst", GST_CODEC_SCHEMA, key, || gst.encode());
            gst
        })
    }

    /// Assemble every non-singleton cluster over the soft-masked
    /// (original-base) fragments: as a distributed engine stage (clusters
    /// scheduled largest-first onto worker ranks, contigs shipped back)
    /// on `parallel_ranks`, on OS threads otherwise — byte-identical
    /// contigs either way.
    fn assemble(&mut self, fragments: &Fragments, clustering: &Clustering) -> Vec<Assembly> {
        let store = fragments.store_unmasked.as_ref().unwrap_or(&fragments.store);
        let (config, quals) = (&self.config.assembly, Some(&fragments.quals[..]));
        // A warm cache skips the whole stage: the contigs are a function
        // of store, qualities, clustering and parameters — the key.
        let key = self.cache.as_ref().map(|_| cache::contigs_key(store, quals, clustering, config));
        let cached = self.load("contigs", CONTIGS_CODEC_SCHEMA, key, decode_contigs);
        let assemblies = cached.unwrap_or_else(|| {
            let assemblies = match self.config.parallel_ranks {
                Some(p) => {
                    let opts = stage_opts(self.config, FaultStage::Assemble, "assemble");
                    let r =
                        assemble_parallel_with(store, quals, clustering, config, p, AssignPolicy::Lpt, &opts);
                    let phase =
                        measured_span("dist_assemble", r.assemble_seconds, r.cpu_seconds.iter().sum());
                    self.fold(phase, r.ranks, r.traces, r.killed);
                    r.assemblies
                }
                None => assemble_clusters_q(store, quals, clustering, config, self.config.assembly_threads),
            };
            // A killed assembly master leaves placeholder slots — never
            // cache those as the real contigs.
            if !self.killed {
                self.store("contigs", CONTIGS_CODEC_SCHEMA, key, || encode_contigs(&assemblies));
            }
            assemblies
        });
        self.ctx.set(names::ASSEMBLED_CLUSTERS, assemblies.len() as u64);
        self.ctx.set(names::CONTIGS, assemblies.iter().map(|a| a.num_contigs() as u64).sum());
        assemblies
    }
}

/// The pipeline runner: three phases in a fixed line over one [`RunContext`].
pub struct Pipeline {
    config: PipelineConfig,
}

impl Pipeline {
    /// New pipeline with the given configuration.
    pub fn new(config: PipelineConfig) -> Pipeline {
        Pipeline { config }
    }

    /// Run preprocessing (optional; fed `vectors` and `known_repeats`) +
    /// clustering + per-cluster assembly over a read set.
    pub fn run(&self, reads: &ReadSet, vectors: &[DnaSeq], known_repeats: &[DnaSeq]) -> PipelineReport {
        self.run_with_context(reads, vectors, known_repeats, &mut RunContext::new("pipeline"))
    }

    /// As [`Pipeline::run`], recording spans, counters, and per-rank
    /// channels into the caller's [`RunContext`] — fold it with
    /// [`RunContext::finish`] for the structured
    /// [`pgasm_telemetry::RunReport`].
    pub fn run_with_context(
        &self,
        reads: &ReadSet,
        vectors: &[DnaSeq],
        known_repeats: &[DnaSeq],
        ctx: &mut RunContext,
    ) -> PipelineReport {
        self.run_stages(reads, vectors, known_repeats, ctx, true)
    }

    /// As [`Pipeline::run_with_context`], stopping after the cluster
    /// stage: the report's `assemblies` stay empty and the run records no
    /// `assemble` span.
    pub fn cluster_with_context(
        &self,
        reads: &ReadSet,
        vectors: &[DnaSeq],
        known_repeats: &[DnaSeq],
        ctx: &mut RunContext,
    ) -> PipelineReport {
        self.run_stages(reads, vectors, known_repeats, ctx, false)
    }

    fn run_stages(
        &self,
        reads: &ReadSet,
        vectors: &[DnaSeq],
        known_repeats: &[DnaSeq],
        ctx: &mut RunContext,
        assemble: bool,
    ) -> PipelineReport {
        let config = &self.config;
        // An unopenable cache directory degrades to an uncached run and
        // says so: silently it would pass for a cache that never hits.
        let cache = config.cache_dir.as_deref().and_then(|dir| {
            let warn = |e: &_| eprintln!("warning: cache directory {}: {e}; running uncached", dir.display());
            ArtifactCache::open(dir).inspect_err(warn).ok()
        });
        // The pipeline's own trace track, for stage boundaries: its id
        // is past the parallel section's ranks, so tracks never collide.
        let tracer = config.trace.tracer(config.parallel_ranks.unwrap_or(0), "pipeline");
        let mut run = Run { config, cache, ctx, tracer, killed: false };
        let (fragments, preprocess_seconds) =
            run.stage("preprocess", |run| run.preprocess(reads, vectors, known_repeats));
        let ((clustering, cluster_stats), cluster_seconds) =
            run.stage("cluster", |run| run.cluster(&fragments.store));
        // A killed master ends the run: partial artifacts are never fed
        // forward, and the caller resumes from the stage's checkpoint.
        let mut interrupted = run.killed.then(|| "cluster".to_string());
        let (mut assemblies, mut assembly_seconds) = (Vec::new(), 0.0);
        if assemble && !run.killed {
            (assemblies, assembly_seconds) =
                run.stage("assemble", |run| run.assemble(&fragments, &clustering));
            interrupted = run.killed.then(|| "assemble".to_string());
        }
        if config.trace.enabled {
            run.ctx.merge_traces(vec![run.tracer.finish()]);
        }
        PipelineReport {
            preprocess: fragments.stats,
            clustering,
            cluster_stats,
            origin: fragments.origin,
            assemblies,
            preprocess_seconds,
            cluster_seconds,
            assembly_seconds,
            interrupted,
        }
    }
}

/// Assemble every non-singleton cluster, distributing clusters across
/// `threads` OS threads ("the subsequent assembly tasks are trivially
/// parallelized by distributing the clusters across multiple
/// processors", §3). Optional per-fragment qualities (index-parallel
/// with the store) enable quality-weighted overlap acceptance.
pub fn assemble_clusters_q(
    store: &FragmentStore,
    quals: Option<&[QualityTrack]>,
    clustering: &Clustering,
    config: &AssemblyConfig,
    threads: usize,
) -> Vec<Assembly> {
    let clusters: Vec<&Vec<u32>> = clustering.non_singletons().collect();
    if clusters.is_empty() {
        // Legal (every fragment rejected or unrelated), and chunking by
        // zero below would panic.
        return Vec::new();
    }
    let threads = threads.clamp(1, clusters.len());
    let mut results: Vec<Option<Assembly>> = vec![None; clusters.len()];
    let chunk = clusters.len().div_ceil(threads);
    std::thread::scope(|scope| {
        let handles: Vec<_> = results
            .chunks_mut(chunk)
            .zip(clusters.chunks(chunk))
            .map(|(slot_chunk, cluster_chunk)| {
                scope.spawn(move || {
                    for (slot, members) in slot_chunk.iter_mut().zip(cluster_chunk) {
                        let reads: Vec<DnaSeq> = members.iter().map(|&f| store.get_seq(SeqId(f))).collect();
                        let cluster_quals: Option<Vec<QualityTrack>> =
                            quals.map(|qs| members.iter().map(|&f| qs[f as usize].clone()).collect());
                        *slot = Some(assemble_with_quality(&reads, cluster_quals.as_deref(), config));
                    }
                })
            })
            .collect();
        // Join explicitly and re-throw the worker's own payload: the
        // scope's automatic join would replace it with a generic "scoped
        // thread panicked" (or the "every cluster assembled" below).
        for handle in handles {
            if let Err(payload) = handle.join() {
                std::panic::resume_unwind(payload);
            }
        }
    });
    results.into_iter().map(|r| r.expect("every cluster assembled")).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clustering::cluster_serial;
    use pgasm_simgen::genome::{Genome, GenomeSpec};
    use pgasm_simgen::sampler::{Sampler, SamplerConfig};
    use pgasm_simgen::vector::VECTOR_SEQ;

    fn island_genome(seed: u64) -> Genome {
        Genome::generate(
            &GenomeSpec {
                length: 20_000,
                repeat_fraction: 0.0,
                repeat_families: 0,
                repeat_len: (50, 60),
                repeat_identity: 1.0,
                islands: 4,
                island_len: (1_500, 2_500),
            },
            seed,
        )
    }

    fn fast_config(parallel: Option<usize>) -> PipelineConfig {
        use pgasm_align::AcceptCriteria;
        use pgasm_gst::GstConfig;
        let cluster = ClusterParams {
            gst: GstConfig { psi: 20 },
            criteria: AcceptCriteria { min_identity: 0.9, min_overlap: 40 },
            ..Default::default()
        };
        PipelineConfig {
            preprocess: None,
            cluster,
            parallel_ranks: parallel,
            master_worker: MasterWorkerConfig { batch: 16, pending_cap: 512 },
            assembly: AssemblyConfig::default(),
            assembly_threads: 2,
            trace: TraceSpec::off(),
            cache_dir: None,
            recovery: StageRecovery::default(),
        }
    }

    fn island_reads(seed: u64) -> ReadSet {
        let genome = island_genome(seed);
        // Dense island coverage only: gene-enriched reads with full bias.
        let mut cfg = SamplerConfig::clean();
        cfg.island_bias = 1.0;
        let mut sampler = Sampler::new(&genome, cfg, seed + 1);
        sampler.enriched(160, pgasm_simgen::ReadKind::Mf)
    }

    #[test]
    fn pipeline_clusters_and_assembles_islands() {
        let reads = island_reads(10);
        let report = Pipeline::new(fast_config(None)).run(&reads, &[], &[]);
        // Island-only sampling: a handful of clusters, assembled into
        // about one contig each.
        let nc = report.clustering.num_non_singletons();
        assert!((2..=12).contains(&nc), "clusters {nc}");
        assert!(!report.assemblies.is_empty());
        let cpc = report.contigs_per_cluster();
        assert!((1.0..2.0).contains(&cpc), "contigs/cluster {cpc}");
        assert_eq!(report.origin.len(), reads.len());
    }

    #[test]
    fn parallel_pipeline_matches_serial() {
        let reads = island_reads(20);
        let serial = Pipeline::new(fast_config(None)).run(&reads, &[], &[]);
        let parallel = Pipeline::new(fast_config(Some(3))).run(&reads, &[], &[]);
        assert_eq!(serial.clustering, parallel.clustering);
        assert_eq!(serial.total_contigs(), parallel.total_contigs());
    }

    #[test]
    fn preprocessing_phase_integrates() {
        let genome = island_genome(30);
        let mut cfg = SamplerConfig::default_scaled();
        cfg.island_bias = 1.0;
        let mut sampler = Sampler::new(&genome, cfg, 31);
        let reads = sampler.enriched(120, pgasm_simgen::ReadKind::Hc);
        let mut config = fast_config(None);
        config.preprocess =
            Some(pgasm_preprocess::PreprocessConfig { stat_repeats: None, ..Default::default() });
        let report = Pipeline::new(config).run(&reads, &[DnaSeq::from(VECTOR_SEQ)], &genome.repeat_library);
        let pp = report.preprocess.expect("preprocessing ran");
        let before: usize = pp.before.values().map(|v| v.0).sum();
        let after: usize = pp.after.values().map(|v| v.0).sum();
        assert_eq!(before, 120);
        assert!(after > 60, "too many reads lost: {after}");
        assert!(report.clustering.num_non_singletons() >= 1);
    }

    #[test]
    fn run_with_context_records_stage_graph() {
        let reads = island_reads(10);
        let mut ctx = pgasm_telemetry::RunContext::new("test-run");
        let pipeline = Pipeline::new(fast_config(Some(3)));
        let report = pipeline.run_with_context(&reads, &[], &[], &mut ctx);
        let run = ctx.finish();
        // One root span per stage, in graph order.
        let names: Vec<&str> = run.spans.iter().map(|s| s.name.as_str()).collect();
        assert_eq!(names, vec!["preprocess", "cluster", "assemble"]);
        // Parallel clustering leaves rank-local phase sub-spans and
        // per-rank channels.
        let cluster = run.span("cluster").unwrap();
        assert!(cluster.find("cluster/gst_build").is_some());
        assert!(cluster.find("cluster/master_worker").is_some());
        assert_eq!(run.ranks.len(), 3);
        // Table-1 counters agree with the report.
        assert_eq!(run.counter("reads_in"), reads.len() as u64);
        assert_eq!(run.counter("pairs_generated"), report.cluster_stats.generated);
        assert_eq!(run.counter("pairs_aligned"), report.cluster_stats.aligned);
        assert_eq!(run.counter("contigs"), report.total_contigs() as u64);
        assert_eq!(run.counter("clusters"), report.clustering.clusters.len() as u64);
        // The report's stage timings come from the same spans.
        assert_eq!(report.cluster_seconds, cluster.wall_seconds);
    }

    #[test]
    fn assembly_panic_propagates_original_payload() {
        // An empty quality slice makes the per-cluster worker index out
        // of bounds inside its spawned thread. The original payload must
        // surface — not the scope's generic "a scoped thread panicked",
        // and not the downstream "every cluster assembled" expect on the
        // slot the dead thread left empty.
        let reads = island_reads(10);
        let store = reads.to_store();
        let (clustering, _) = cluster_serial(&store, &fast_config(None).cluster);
        assert!(clustering.num_non_singletons() >= 1);
        let no_quals: Vec<QualityTrack> = Vec::new();
        let payload = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            assemble_clusters_q(&store, Some(&no_quals), &clustering, &AssemblyConfig::default(), 2)
        }))
        .expect_err("the assembler thread must panic");
        let msg = payload
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()))
            .unwrap_or_default();
        assert!(msg.contains("index out of bounds"), "panic payload was masked: {msg:?}");
    }

    #[test]
    fn distributed_assembly_merges_rank_channels() {
        let reads = island_reads(20);
        let mut ctx = pgasm_telemetry::RunContext::new("test-run");
        let pipeline = Pipeline::new(fast_config(Some(3)));
        let report = pipeline.run_with_context(&reads, &[], &[], &mut ctx);
        let run = ctx.finish();
        // One channel per rank, covering both phases: clustering
        // counters and assemble counters live side by side, and the
        // assemble phase's relabelled protocol rows join the comm table.
        assert_eq!(run.ranks.len(), 3);
        let clusters: u64 = run.ranks[1..].iter().map(|r| r.counter(names::ASM_CLUSTERS_ASSEMBLED)).sum();
        assert_eq!(clusters as usize, report.clustering.num_non_singletons());
        assert!(run.ranks[0].counter(names::PEAK_QUEUE_DEPTH) > 0);
        assert!(run.ranks[0].counter(names::ASM_PEAK_QUEUE_DEPTH) > 0);
        assert!(run.ranks[0].comm.iter().any(|t| t.label == names::TAG_W2M_REPORT));
        assert!(run.ranks[0].comm.iter().any(|t| t.label == names::TAG_ASM_W2M_REPORT));
        // The assemble stage records its phase sub-span.
        let assemble = run.span("assemble").unwrap();
        assert!(assemble.find("assemble/dist_assemble").is_some());
    }

    #[test]
    fn assembly_threads_do_not_change_results() {
        let reads = island_reads(40);
        let mut one = fast_config(None);
        one.assembly_threads = 1;
        let mut many = fast_config(None);
        many.assembly_threads = 8;
        let a = Pipeline::new(one).run(&reads, &[], &[]);
        let b = Pipeline::new(many).run(&reads, &[], &[]);
        assert_eq!(a.total_contigs(), b.total_contigs());
        let lens_a: Vec<usize> =
            a.assemblies.iter().flat_map(|x| x.contigs.iter().map(|c| c.seq.len())).collect();
        let lens_b: Vec<usize> =
            b.assemblies.iter().flat_map(|x| x.contigs.iter().map(|c| c.seq.len())).collect();
        assert_eq!(lens_a, lens_b);
    }
}

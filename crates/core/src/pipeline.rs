//! End-to-end cluster-then-assemble pipeline (paper Fig. 1), built as a
//! stage graph: each phase (preprocess → cluster → assemble) is a
//! [`Stage`] that transforms the shared [`StageState`] and records its
//! telemetry — spans, counters, per-rank channels — into one
//! [`RunContext`]. Callers that want the structured run report use
//! [`Pipeline::run_with_context`]; [`Pipeline::run`] wraps it with a
//! private context for the common case.

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
use pgasm_seq::QualityTrack;
use pgasm_seq::{DnaSeq, FragmentStore, SeqId};
use pgasm_simgen::ReadSet;
use pgasm_telemetry::trace::{TraceCategory, TraceSpec};
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
    /// Per-rank event tracing for the run ([`TraceSpec::off`] by
    /// default). When on, the run's traces are collected into the
    /// [`RunContext`] — one track per rank plus the pipeline's own — for
    /// Chrome-trace export and `pgasm analyze`.
    pub trace: TraceSpec,
    /// Directory for the content-addressed artifact cache; `None`
    /// disables caching. Repeated runs over identical inputs and
    /// parameters reload the preprocess output, (serial runs) the GST,
    /// and the assembled contigs from here instead of recomputing them.
    pub cache_dir: Option<std::path::PathBuf>,
    /// Fault-tolerance settings for the distributed stages: failures
    /// to inject, checkpoint cadence, and the snapshot to resume from.
    /// The `checkpoint_path` / `resume_from` paths are treated as a
    /// *base*: each stage derives its own file (`<base>.cluster.pgck`,
    /// `<base>.assemble.pgck`), so one `--checkpoint` flag covers both
    /// engine clients. Passive by default.
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

/// Fold one distributed stage's fault/recovery tallies into the run's
/// counter map (nonzero only, so clean runs keep byte-identical
/// reports and the schema-v4 `faults` section stays absent).
fn fold_fault_counters(ctx: &mut RunContext, ranks: &[RankReport], recovered: u64, dead: u64) {
    let sum = |name: &str| ranks.iter().map(|r| r.counter(name)).sum::<u64>();
    for (name, value) in [
        (names::RECOVERED_TASKS, recovered),
        (names::DEAD_RANKS, dead),
        (names::FAULT_KILLS, sum(names::FAULT_KILLS)),
        (names::FAULT_MSGS_DROPPED, sum(names::FAULT_MSGS_DROPPED)),
        (names::FAULT_MSGS_DELAYED, sum(names::FAULT_MSGS_DELAYED)),
        (names::CKPT_WRITES, sum(names::CKPT_WRITES)),
        (names::CKPT_BYTES, sum(names::CKPT_BYTES)),
    ] {
        if value > 0 {
            ctx.add(name, value);
        }
    }
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
    /// Name of the stage whose master the fault plan killed, when one
    /// was. The run stopped there — later stages did not execute and
    /// this report's artifacts are partial; restart with `--resume` to
    /// finish from the last checkpoint.
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
        let n = self.assemblies.len();
        if n == 0 {
            0.0
        } else {
            // A cluster can assemble into contigs plus leftover
            // singleton reads; count at least one unit per cluster.
            self.assemblies.iter().map(|a| (a.num_contigs() + a.singletons.len()).max(1)).sum::<usize>()
                as f64
                / n as f64
        }
    }
}

/// Mutable state flowing through the stage graph. Each [`Stage`] reads
/// the artifacts of its predecessors and installs its own.
pub struct StageState<'r> {
    /// Input reads (set before the first stage).
    pub reads: &'r ReadSet,
    /// Vector sequences for the preprocessor.
    pub vectors: &'r [DnaSeq],
    /// Known repeat library for the preprocessor.
    pub known_repeats: &'r [DnaSeq],
    /// Masked fragments driving clustering (preprocess output).
    pub store: Option<FragmentStore>,
    /// Soft-masked (original-base) fragments feeding the assembler.
    pub store_unmasked: Option<FragmentStore>,
    /// Per-fragment quality tracks.
    pub quals: Vec<QualityTrack>,
    /// For each surviving fragment, the index of its original read.
    pub origin: Vec<usize>,
    /// Preprocessing accounting (when that stage ran a config).
    pub preprocess: Option<PreprocessStats>,
    /// Clustering result (cluster stage output).
    pub clustering: Option<Clustering>,
    /// Clustering work statistics.
    pub cluster_stats: ClusterStats,
    /// Per-cluster assemblies (assemble stage output).
    pub assemblies: Vec<Assembly>,
    /// Per-stage wall-clock seconds, by stage name.
    pub stage_seconds: Vec<(&'static str, f64)>,
    /// Artifact cache for the run (`None` = caching disabled, or the
    /// cache directory could not be created — degrade to a cold run).
    pub cache: Option<ArtifactCache>,
    /// Set by a stage whose master the fault plan killed: the pipeline
    /// stops after that stage instead of feeding partial artifacts
    /// forward.
    pub interrupted: Option<String>,
}

impl<'r> StageState<'r> {
    fn new(reads: &'r ReadSet, vectors: &'r [DnaSeq], known_repeats: &'r [DnaSeq]) -> Self {
        StageState {
            reads,
            vectors,
            known_repeats,
            store: None,
            store_unmasked: None,
            quals: Vec::new(),
            origin: Vec::new(),
            preprocess: None,
            clustering: None,
            cluster_stats: ClusterStats::default(),
            assemblies: Vec::new(),
            stage_seconds: Vec::new(),
            cache: None,
            interrupted: None,
        }
    }

    fn wall(&self, stage: &str) -> f64 {
        self.stage_seconds.iter().find(|(n, _)| *n == stage).map(|(_, s)| *s).unwrap_or(0.0)
    }
}

/// One phase of the pipeline. Implementations transform [`StageState`]
/// and record telemetry into the shared [`RunContext`]; the engine wraps
/// each stage in a span named after it.
pub trait Stage {
    /// Span name for this stage (e.g. `"cluster"`).
    fn name(&self) -> &'static str;
    /// Execute the stage.
    fn run(&self, state: &mut StageState<'_>, ctx: &mut RunContext);
}

/// Preprocess stage: trims/screens reads into the masked clustering
/// store and the soft-masked assembly store. With no [`PreprocessConfig`]
/// it passes raw reads through (still populating the state).
struct PreprocessStage<'c> {
    config: &'c PipelineConfig,
}

impl Stage for PreprocessStage<'_> {
    fn name(&self) -> &'static str {
        "preprocess"
    }

    fn run(&self, state: &mut StageState<'_>, ctx: &mut RunContext) {
        ctx.set(names::READS_IN, state.reads.len() as u64);
        match &self.config.preprocess {
            Some(cfg) => {
                let key = state
                    .cache
                    .as_ref()
                    .map(|_| cache::preprocess_key(state.reads, state.vectors, state.known_repeats, cfg));
                let out = match self.load_cached(state, ctx, key) {
                    Some(out) => out,
                    None => {
                        let pp = Preprocessor::new(cfg.clone(), state.vectors, state.known_repeats);
                        let out = pp.run(state.reads);
                        if let (Some(cache), Some(key)) = (&state.cache, key) {
                            ctx.push("cache");
                            if let Ok(n) =
                                cache.store("preprocess", PREPROCESS_CODEC_SCHEMA, key, &out.encode())
                            {
                                ctx.add(names::CACHE_BYTES_WRITTEN, n);
                            }
                            ctx.pop();
                        }
                        out
                    }
                };
                state.store = Some(out.store);
                state.store_unmasked = Some(out.store_unmasked);
                state.quals = out.quals;
                state.origin = out.origin;
                // Also on a cache hit: the stats travel in the artifact.
                ctx.set(names::PREPROCESS_REJECTED_BY_TRIM, out.stats.rejected_by_trim as u64);
                ctx.set(names::PREPROCESS_REJECTED_BY_MASK, out.stats.rejected_by_mask as u64);
                ctx.set(names::PREPROCESS_MASKED_BASES, out.stats.masked_bases as u64);
                state.preprocess = Some(out.stats);
            }
            None => {
                state.store = Some(state.reads.to_store());
                state.origin = (0..state.reads.len()).collect();
                state.quals = state.reads.quals.clone();
            }
        }
        ctx.set(names::FRAGMENTS, state.store.as_ref().map_or(0, |s| s.num_fragments()) as u64);
    }
}

impl PreprocessStage<'_> {
    /// Try the artifact cache for the preprocess output. Any failure —
    /// absent entry, corrupt frame, invariant violation — is a miss.
    fn load_cached(
        &self,
        state: &StageState<'_>,
        ctx: &mut RunContext,
        key: Option<u64>,
    ) -> Option<PreprocessOutput> {
        let (cache, key) = (state.cache.as_ref()?, key?);
        ctx.push("cache");
        let out = cache
            .load("preprocess", PREPROCESS_CODEC_SCHEMA, key)
            .and_then(|payload| PreprocessOutput::decode(&payload).ok().map(|out| (payload.len(), out)));
        match &out {
            Some((bytes, _)) => {
                ctx.add(names::CACHE_HIT, 1);
                ctx.add(names::CACHE_BYTES_READ, *bytes as u64);
            }
            None => ctx.add(names::CACHE_MISS, 1),
        }
        ctx.pop();
        out.map(|(_, o)| o)
    }
}

/// Cluster stage: serial engine or the master–worker runtime, depending
/// on `parallel_ranks`. Parallel runs install per-rank telemetry
/// channels and phase sub-spans measured from rank-local clocks.
struct ClusterStage<'c> {
    config: &'c PipelineConfig,
}

impl Stage for ClusterStage<'_> {
    fn name(&self) -> &'static str {
        "cluster"
    }

    fn run(&self, state: &mut StageState<'_>, ctx: &mut RunContext) {
        let store = state.store.as_ref().expect("preprocess stage ran");
        let (clustering, stats, gst) = match self.config.parallel_ranks {
            Some(p) => {
                let opts = stage_opts(self.config, FaultStage::Cluster, "cluster");
                let report =
                    cluster_parallel_with(store, p, &self.config.cluster, &self.config.master_worker, &opts);
                fold_fault_counters(ctx, &report.ranks, report.recovered_tasks, report.dead_ranks);
                if report.killed {
                    state.interrupted = Some(self.name().to_string());
                }
                ctx.record_span(Span {
                    name: "gst_build".to_string(),
                    wall_seconds: report.gst_seconds,
                    cpu_seconds: report.gst_seconds,
                    children: Vec::new(),
                });
                ctx.record_span(Span {
                    name: "master_worker".to_string(),
                    wall_seconds: report.cluster_seconds,
                    cpu_seconds: report.cpu_seconds.iter().sum(),
                    children: Vec::new(),
                });
                ctx.merge_ranks(report.ranks);
                if self.config.trace.enabled {
                    ctx.merge_traces(report.traces);
                }
                let mut gst = GstStats::default();
                for rank in &report.gst_reports {
                    gst.enumerated += rank.gst.enumerated;
                    gst.suffixes += rank.gst.suffixes;
                    gst.nodes += rank.gst.nodes;
                }
                (report.clustering, report.stats, gst)
            }
            None => {
                let gst = self.serial_gst(state, ctx, store);
                let gst_stats = gst.stats();
                let (clustering, stats) = cluster_serial_with_gst(store, &self.config.cluster, Some(gst));
                (clustering, stats, gst_stats)
            }
        };
        // How much of the input reached the tree.
        ctx.set(names::GST_SUFFIXES_ENUMERATED, gst.enumerated as u64);
        ctx.set(names::GST_SUFFIXES_INDEXED, gst.suffixes as u64);
        ctx.set(names::GST_NODES, gst.nodes as u64);
        ctx.set(names::PAIRS_GENERATED, stats.generated);
        ctx.set(names::PAIRS_ALIGNED, stats.aligned);
        ctx.set(names::PAIRS_ACCEPTED, stats.accepted);
        ctx.set(names::MERGES, stats.merges);
        ctx.set(names::DP_CELLS, stats.dp_cells);
        ctx.set(names::ALIGN_EARLY_EXIT, stats.early_exits);
        ctx.set(names::ALIGN_TRACEBACK_SKIPPED, stats.tracebacks_skipped);
        ctx.set(names::ALIGN_CELLS_SAVED_ADAPTIVE, stats.cells_saved_adaptive);
        ctx.set(names::ALIGN_BAND_ROWS_SHRUNK, stats.band_rows_shrunk);
        ctx.set(names::SIMD_LANES, pgasm_align::simd::effective_lanes());
        ctx.set(names::CLUSTERS, clustering.clusters.len() as u64);
        ctx.set(names::NON_SINGLETON_CLUSTERS, clustering.num_non_singletons() as u64);
        state.clustering = Some(clustering);
        state.cluster_stats = stats;
    }
}

impl ClusterStage<'_> {
    /// The GST of a serial run, built under a `gst_build` span. With the
    /// artifact cache on it is loaded instead when a valid entry for this
    /// exact fragment set and GST parameters exists (no `gst_build` span,
    /// so warm and cold runs are distinguishable in the report), and
    /// stored for the next run when it had to be built.
    fn serial_gst(&self, state: &StageState<'_>, ctx: &mut RunContext, store: &FragmentStore) -> Gst {
        let gst_config = self.config.cluster.gst;
        let ds = store.with_reverse_complements();
        let key = state.cache.as_ref().map(|cache| (cache, cache::gst_key(&ds, &gst_config)));
        if let Some((cache, key)) = key {
            ctx.push("cache");
            // Decode checks internal consistency; the entry must also
            // be *for* this store and parameters (the key already
            // encodes both — this guards hash collisions and
            // hand-edited files).
            let loaded = cache.load("gst", GST_CODEC_SCHEMA, key).and_then(|payload| {
                let g = Gst::decode(&payload).ok()?;
                (g.config() == gst_config && g.num_seqs() == ds.num_seqs()).then_some((payload.len(), g))
            });
            match &loaded {
                Some((bytes, _)) => {
                    ctx.add(names::CACHE_HIT, 1);
                    ctx.add(names::CACHE_BYTES_READ, *bytes as u64);
                }
                None => ctx.add(names::CACHE_MISS, 1),
            }
            ctx.pop();
            if let Some((_, g)) = loaded {
                return g;
            }
        }
        ctx.push("gst_build");
        let g = Gst::build(&ds, gst_config);
        ctx.pop();
        if let Some((cache, key)) = key {
            ctx.push("cache");
            if let Ok(n) = cache.store("gst", GST_CODEC_SCHEMA, key, &g.encode()) {
                ctx.add(names::CACHE_BYTES_WRITTEN, n);
            }
            ctx.pop();
        }
        g
    }
}

/// Assembly stage: trivially parallel per-cluster assembly over the
/// soft-masked (original-base) fragments. Runs as a distributed engine
/// stage (clusters scheduled largest-first onto worker ranks, contigs
/// shipped back over the simulated wire) whenever `parallel_ranks` is
/// set, and as the OS-thread loop otherwise — the contigs are
/// byte-identical either way.
struct AssembleStage<'c> {
    config: &'c PipelineConfig,
}

impl Stage for AssembleStage<'_> {
    fn name(&self) -> &'static str {
        "assemble"
    }

    fn run(&self, state: &mut StageState<'_>, ctx: &mut RunContext) {
        let clustering = state.clustering.as_ref().expect("cluster stage ran");
        let masked = state.store.as_ref().expect("preprocess stage ran");
        let assembly_store = state.store_unmasked.as_ref().unwrap_or(masked);
        // A fully warm cache skips the whole stage: the contigs are a
        // pure function of the assembly store, qualities, clustering,
        // and assembler parameters — all folded into the key.
        let key = state.cache.as_ref().map(|_| {
            cache::contigs_key(assembly_store, Some(&state.quals), clustering, &self.config.assembly)
        });
        if let Some(assemblies) = self.load_cached(state, ctx, key) {
            state.assemblies = assemblies;
            ctx.set(names::ASSEMBLED_CLUSTERS, state.assemblies.len() as u64);
            ctx.set(names::CONTIGS, state.assemblies.iter().map(|a| a.num_contigs() as u64).sum());
            return;
        }
        state.assemblies = match self.config.parallel_ranks {
            Some(p) => {
                let report = assemble_parallel_with(
                    assembly_store,
                    Some(&state.quals),
                    clustering,
                    &self.config.assembly,
                    p,
                    AssignPolicy::Lpt,
                    &stage_opts(self.config, FaultStage::Assemble, "assemble"),
                );
                fold_fault_counters(ctx, &report.ranks, report.recovered_tasks, report.dead_ranks);
                if report.killed {
                    state.interrupted = Some(self.name().to_string());
                }
                ctx.record_span(Span {
                    name: "dist_assemble".to_string(),
                    wall_seconds: report.assemble_seconds,
                    cpu_seconds: report.cpu_seconds.iter().sum(),
                    children: Vec::new(),
                });
                // The assemble stage ran on the same ranks as
                // clustering: fold its channels and tracks into the
                // ones those ranks already have (counters sum, comm
                // rows append under this stage's tag labels, events
                // append in time order).
                ctx.merge_ranks(report.ranks);
                if self.config.trace.enabled {
                    ctx.merge_traces(report.traces);
                }
                report.assemblies
            }
            None => assemble_clusters_q(
                assembly_store,
                Some(&state.quals),
                clustering,
                &self.config.assembly,
                self.config.assembly_threads,
            ),
        };
        // A killed assembly master leaves placeholder slots — never
        // cache those as the real contigs.
        if state.interrupted.is_none() {
            if let (Some(cache), Some(key)) = (&state.cache, key) {
                ctx.push("cache");
                if let Ok(n) =
                    cache.store("contigs", CONTIGS_CODEC_SCHEMA, key, &encode_contigs(&state.assemblies))
                {
                    ctx.add(names::CACHE_BYTES_WRITTEN, n);
                }
                ctx.pop();
            }
        }
        ctx.set(names::ASSEMBLED_CLUSTERS, state.assemblies.len() as u64);
        ctx.set(names::CONTIGS, state.assemblies.iter().map(|a| a.num_contigs() as u64).sum());
    }
}

impl AssembleStage<'_> {
    /// Try the artifact cache for the stage's whole output. Any failure
    /// — absent entry, corrupt frame, malformed payload — is a miss.
    fn load_cached(
        &self,
        state: &StageState<'_>,
        ctx: &mut RunContext,
        key: Option<u64>,
    ) -> Option<Vec<Assembly>> {
        let (cache, key) = (state.cache.as_ref()?, key?);
        ctx.push("cache");
        let out = cache
            .load("contigs", CONTIGS_CODEC_SCHEMA, key)
            .and_then(|payload| decode_contigs(&payload).map(|a| (payload.len(), a)));
        match &out {
            Some((bytes, _)) => {
                ctx.add(names::CACHE_HIT, 1);
                ctx.add(names::CACHE_BYTES_READ, *bytes as u64);
            }
            None => ctx.add(names::CACHE_MISS, 1),
        }
        ctx.pop();
        out.map(|(_, a)| a)
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

/// The pipeline runner: a fixed stage graph executed over one
/// [`RunContext`].
pub struct Pipeline {
    config: PipelineConfig,
}

impl Pipeline {
    /// New pipeline with the given configuration.
    pub fn new(config: PipelineConfig) -> Pipeline {
        Pipeline { config }
    }

    /// Run preprocessing (optional) + clustering + per-cluster assembly
    /// over a read set. `vectors` and `known_repeats` feed the
    /// preprocessor.
    pub fn run(&self, reads: &ReadSet, vectors: &[DnaSeq], known_repeats: &[DnaSeq]) -> PipelineReport {
        let mut ctx = RunContext::new("pipeline");
        self.run_with_context(reads, vectors, known_repeats, &mut ctx)
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
        let mut state = StageState::new(reads, vectors, known_repeats);
        // An unopenable cache directory degrades to a cold, uncached
        // run — caching is an optimisation, never a failure mode.
        state.cache = self.config.cache_dir.as_deref().and_then(|d| ArtifactCache::open(d).ok());
        let stages: [&dyn Stage; 3] = [
            &PreprocessStage { config: &self.config },
            &ClusterStage { config: &self.config },
            &AssembleStage { config: &self.config },
        ];
        // The pipeline's main thread gets its own trace track for stage
        // boundaries, on a rank id past the parallel section's ranks so
        // the tracks never collide.
        let mut tracer = self.config.trace.tracer(self.config.parallel_ranks.unwrap_or(0), "pipeline");
        for stage in &stages[..if assemble { 3 } else { 2 }] {
            tracer.begin(TraceCategory::Stage, stage.name());
            ctx.push(stage.name());
            stage.run(&mut state, ctx);
            let (wall, _cpu) = ctx.pop();
            tracer.end(TraceCategory::Stage, stage.name());
            // Cache traffic accrues at stage granularity, so its gauge
            // is fed at stage boundaries.
            tracer.counter(
                TraceCategory::Stage,
                names::GAUGE_CACHE_BYTES,
                ctx.counter(names::CACHE_BYTES_READ) + ctx.counter(names::CACHE_BYTES_WRITTEN),
            );
            state.stage_seconds.push((stage.name(), wall));
            if state.interrupted.is_some() {
                // The fault plan killed this stage's master: stop here
                // rather than feed partial artifacts forward. The
                // caller resumes from the stage's last checkpoint.
                break;
            }
        }
        if self.config.trace.enabled {
            ctx.merge_traces(vec![tracer.finish()]);
        }

        let (preprocess_seconds, cluster_seconds, assembly_seconds) =
            (state.wall("preprocess"), state.wall("cluster"), state.wall("assemble"));
        PipelineReport {
            preprocess: state.preprocess,
            clustering: state.clustering.expect("cluster stage ran"),
            cluster_stats: state.cluster_stats,
            origin: state.origin,
            assemblies: state.assemblies,
            preprocess_seconds,
            cluster_seconds,
            assembly_seconds,
            interrupted: state.interrupted,
        }
    }
}

/// Assemble every non-singleton cluster, distributing clusters across
/// `threads` OS threads ("the subsequent assembly tasks are trivially
/// parallelized by distributing the clusters across multiple
/// processors", §3).
pub fn assemble_clusters(
    store: &FragmentStore,
    clustering: &Clustering,
    config: &AssemblyConfig,
    threads: usize,
) -> Vec<Assembly> {
    assemble_clusters_q(store, None, clustering, config, threads)
}

/// As [`assemble_clusters`], with optional per-fragment qualities
/// (index-parallel with the store) enabling quality-weighted overlap
/// acceptance.
pub fn assemble_clusters_q(
    store: &FragmentStore,
    quals: Option<&[QualityTrack]>,
    clustering: &Clustering,
    config: &AssemblyConfig,
    threads: usize,
) -> Vec<Assembly> {
    let clusters: Vec<&Vec<u32>> = clustering.non_singletons().collect();
    if clusters.is_empty() {
        // All-singleton clusterings are legal (e.g. every fragment
        // rejected or unrelated); chunking by zero below would panic.
        return Vec::new();
    }
    let threads = threads.clamp(1, clusters.len().max(1));
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
        // scope's automatic join would replace it with a generic
        // "scoped thread panicked", and the empty result slot would
        // then surface as the unrelated "every cluster assembled"
        // expect below.
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

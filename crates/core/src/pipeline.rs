//! End-to-end cluster-then-assemble pipeline (paper Fig. 1): three
//! calls in a line — `preprocess` → [`cluster`](crate::cluster) →
//! [`assemble`](crate::assemble) — whose arguments and return values are
//! the hand-offs. Each records its telemetry — spans, counters, per-rank
//! channels — into one [`RunContext`] — the caller's, for the structured
//! run report — and reaches the artifact cache through one load and one
//! store helper.

use crate::assemble_dist::{decode_assembly, encode_assembly};
use crate::cache::{self, ArtifactCache};
use crate::clustering::CLUSTERING_REVISION;
use crate::clustering::{ClusterParams, ClusterStats, Clustering};
use crate::stages::{self, record_contigs, record_partition, Exec, GstCounts, Partition};
use pgasm_assemble::{Assembly, AssemblyConfig, ASSEMBLER_REVISION};
use pgasm_preprocess::pipeline::PreprocessOutput;
use pgasm_preprocess::{
    PreprocessBulk, PreprocessConfig, PreprocessDigests, PreprocessStats, PreprocessSummary, Preprocessor,
    PREPROCESS_CODEC_SCHEMA,
};
use pgasm_seq::wire::{checked_len, Reader, Writer};
use pgasm_seq::{DnaSeq, FragmentStore, QualityTrack};
use pgasm_simgen::ReadSet;
use pgasm_telemetry::trace::TraceSpec;
use pgasm_telemetry::{names, RunContext};

/// Pipeline configuration.
#[derive(Debug, Clone)]
pub struct PipelineConfig {
    /// Preprocessing settings; `None` runs clustering on the raw reads.
    pub preprocess: Option<PreprocessConfig>,
    /// Clustering parameters — the one place they are defined; the
    /// master–worker runtime borrows these at run time.
    pub cluster: ClusterParams,
    /// Per-cluster assembler settings.
    pub assembly: AssemblyConfig,
    /// Where both stages run: in process on threads, or on simulated
    /// ranks with the run's fault plan and checkpoints.
    pub exec: Exec,
    /// Per-rank event tracing ([`TraceSpec::off`] by default): the clock
    /// the [`RunContext`]'s track and the ranks' share. When on, the
    /// context exports one track per rank plus its own, for Chrome-trace
    /// export and `pgasm analyze`.
    pub trace: TraceSpec,
    /// Directory for the content-addressed artifact cache; `None`
    /// disables caching. Repeated runs over identical inputs and
    /// parameters reload the preprocess output, the partition, and the
    /// assembled contigs from here instead of recomputing them.
    pub cache_dir: Option<std::path::PathBuf>,
}

impl Default for PipelineConfig {
    fn default() -> Self {
        PipelineConfig {
            preprocess: Some(PreprocessConfig::default()),
            cluster: ClusterParams::default(),
            assembly: AssemblyConfig::default(),
            exec: Exec::Threads(4),
            trace: TraceSpec::off(),
            cache_dir: None,
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

/// Artifact codec schema of the `partition` cache kind; bump on any
/// layout change so stale entries read as misses.
pub const PARTITION_CODEC_SCHEMA: u32 = 1;

/// Serialize the cluster stage's output for the artifact cache: the
/// five [`ClusterStats`] tallies and the three [`GstCounts`], then the
/// clusters as member lists.
fn encode_partition(part: &Partition) -> Vec<u8> {
    let Partition { clustering, stats, gst } = part;
    let members: usize = clustering.clusters.iter().map(Vec::len).sum();
    let mut w = Writer::with_capacity(4 * (members + clustering.clusters.len()) + 72);
    for v in [stats.generated, stats.aligned, stats.accepted, stats.merges, stats.dp_cells] {
        w.put_u64(v);
    }
    for v in [gst.enumerated, gst.suffixes, gst.nodes] {
        w.put_u64(v as u64);
    }
    w.put_u32(checked_len(clustering.clusters.len()));
    for cluster in &clustering.clusters {
        w.put_u32_slice(cluster);
    }
    w.finish()
}

/// Inverse of [`encode_partition`] for a store of `n` fragments. `None`
/// — a miss, never a panic — unless the payload is a partition of
/// exactly those fragments in the engine's own order: every id below
/// `n` in exactly one cluster, members ascending, clusters ordered by
/// their smallest member.
fn decode_partition(payload: &[u8], n: usize) -> Option<Partition> {
    let mut r = Reader::new(payload);
    let mut tallies = [0u64; 8];
    for v in &mut tallies {
        *v = r.get_u64().ok()?;
    }
    let [generated, aligned, accepted, merges, dp_cells, enumerated, suffixes, nodes] = tallies;
    let stats = ClusterStats { generated, aligned, accepted, merges, dp_cells };
    let gst =
        GstCounts { enumerated: enumerated as usize, suffixes: suffixes as usize, nodes: nodes as usize };
    let mut seen = vec![false; n];
    let mut clusters: Vec<Vec<u32>> = Vec::new();
    for _ in 0..r.get_u32().ok()? {
        let members = r.get_u32_slice().ok()?;
        let smallest = *members.first()?;
        if !members.windows(2).all(|m| m[0] < m[1]) || clusters.last().is_some_and(|c| c[0] >= smallest) {
            return None;
        }
        for &m in &members {
            if std::mem::replace(seen.get_mut(m as usize)?, true) {
                return None;
            }
        }
        clusters.push(members);
    }
    r.expect_end().ok()?;
    seen.iter().all(|&s| s).then_some(Partition { clustering: Clustering { clusters }, stats, gst })
}

/// What preprocessing hands on. A preprocess cache hit decodes only the
/// artifact's summary: the stores and quality tracks stay encoded until a
/// stage misses and needs them ([`Run::decode`]).
struct Fragments {
    /// For each fragment, the index of its original read.
    origin: Vec<usize>,
    stats: Option<PreprocessStats>,
    /// What the partition and contigs keys fold: the artifact's, or the
    /// stored output's; computed at first use on a run that stored none.
    digests: Option<PreprocessDigests>,
    bulk: Bulk,
}

enum Bulk {
    Decoded(Stores),
    /// A loaded artifact's payload, whose bulk of `n` fragments starts
    /// at byte `at`.
    Encoded {
        payload: Vec<u8>,
        at: usize,
        n: usize,
    },
}

struct Stores {
    /// Masked fragments driving clustering.
    store: FragmentStore,
    /// Soft-masked (original-base) fragments feeding the assembler;
    /// `None` = the raw reads in `store` serve both.
    store_unmasked: Option<FragmentStore>,
    quals: Vec<QualityTrack>,
}

impl Fragments {
    fn from_output(out: PreprocessOutput, digests: Option<PreprocessDigests>) -> Fragments {
        let PreprocessOutput { store, store_unmasked, quals, origin, stats } = out;
        let stores = Stores { store, store_unmasked: Some(store_unmasked), quals };
        Fragments { origin, stats: Some(stats), digests, bulk: Bulk::Decoded(stores) }
    }

    fn digests(&mut self) -> PreprocessDigests {
        let Bulk::Decoded(s) = &self.bulk else {
            return self.digests.expect("an artifact carries its digests");
        };
        *self.digests.get_or_insert_with(|| {
            PreprocessDigests::of(&s.store, s.store_unmasked.as_ref().unwrap_or(&s.store), &s.quals)
        })
    }

    /// The stores, once [`Run::decode`] has run.
    fn stores(&self) -> &Stores {
        match &self.bulk {
            Bulk::Decoded(stores) => stores,
            Bulk::Encoded { .. } => unreachable!("a stage reads the stores after Run::decode"),
        }
    }
}

/// One run in flight: what every phase reads (the inputs, the
/// configuration, the artifact cache — `None` when off or unopenable)
/// and what it records into (the caller's context, whose track holds the
/// run's spans).
struct Run<'a> {
    config: &'a PipelineConfig,
    reads: &'a ReadSet,
    vectors: &'a [DnaSeq],
    known_repeats: &'a [DnaSeq],
    cache: Option<ArtifactCache>,
    ctx: &'a mut RunContext,
}

impl<'a> Run<'a> {
    /// Bind the caller's context to the run's trace settings and open the
    /// cache. An unopenable cache directory degrades to an uncached run
    /// and says so: silently it would pass for a cache that never hits.
    fn start(
        config: &'a PipelineConfig,
        (reads, vectors, known_repeats): (&'a ReadSet, &'a [DnaSeq], &'a [DnaSeq]),
        ctx: &'a mut RunContext,
    ) -> Run<'a> {
        ctx.bind_track(&config.trace);
        let cache = config.cache_dir.as_deref().and_then(|dir| {
            let warn = |e: &_| eprintln!("warning: cache directory {}: {e}; running uncached", dir.display());
            ArtifactCache::open(dir).inspect_err(warn).ok()
        });
        Run { config, reads, vectors, known_repeats, cache, ctx }
    }

    /// Run one phase under the span named after it; its wall and CPU
    /// time are that span's.
    fn stage<T>(&mut self, name: &'static str, body: impl FnOnce(&mut Self) -> T) -> T {
        self.ctx.push(name);
        let out = body(self);
        self.ctx.pop();
        // Cache traffic accrues per stage, so its gauge is fed here.
        let bytes = self.ctx.counter(names::CACHE_BYTES_READ) + self.ctx.counter(names::CACHE_BYTES_WRITTEN);
        self.ctx.gauge(names::GAUGE_CACHE_BYTES, bytes);
        out
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
        decode: impl FnOnce(Vec<u8>) -> Option<T>,
    ) -> Option<T> {
        let (cache, key) = (self.cache.as_ref()?, key?);
        self.ctx.push("cache");
        let loaded = cache.load(kind, schema, key).and_then(|payload| {
            let bytes = payload.len() as u64;
            let out = decode(payload)?;
            self.ctx.add(names::CACHE_BYTES_READ, bytes);
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

    /// Trim/screen the reads into the masked clustering store and the
    /// soft-masked assembly store, or reload that output's summary from
    /// the cache. With no [`PreprocessConfig`] the raw reads pass through.
    fn preprocess(&mut self) -> Fragments {
        let reads = self.reads;
        self.ctx.set(names::READS_IN, reads.len() as u64);
        let fragments = match &self.config.preprocess {
            Some(cfg) => {
                let key = self.preprocess_key(cfg);
                let cached = self.load("preprocess", PREPROCESS_CODEC_SCHEMA, key, |payload| {
                    let (summary, at) = PreprocessSummary::decode(&payload).ok()?;
                    Some((summary, payload, at))
                });
                match cached {
                    Some((PreprocessSummary { origin, stats, digests }, payload, at)) => {
                        let bulk = Bulk::Encoded { payload, at, n: origin.len() };
                        Fragments { origin, stats: Some(stats), digests: Some(digests), bulk }
                    }
                    None => self.run_preprocessor(cfg, key),
                }
            }
            None => {
                let stores =
                    Stores { store: reads.to_store(), store_unmasked: None, quals: reads.quals.clone() };
                let origin = (0..reads.len()).collect();
                Fragments { origin, stats: None, digests: None, bulk: Bulk::Decoded(stores) }
            }
        };
        self.record_preprocess(&fragments);
        fragments
    }

    fn preprocess_key(&self, cfg: &PreprocessConfig) -> Option<u64> {
        let key = || cache::preprocess_key(self.reads, self.vectors, self.known_repeats, cfg);
        self.cache.is_some().then(key)
    }

    /// Run the preprocessor and store its output under `key`.
    fn run_preprocessor(&mut self, cfg: &PreprocessConfig, key: Option<u64>) -> Fragments {
        let out = Preprocessor::new(cfg.clone(), self.vectors, self.known_repeats).run(self.reads);
        let digests = key.map(|key| {
            let digests = out.digests();
            self.store("preprocess", PREPROCESS_CODEC_SCHEMA, Some(key), || out.encode_with(&digests));
            digests
        });
        Fragments::from_output(out, digests)
    }

    fn record_preprocess(&mut self, fragments: &Fragments) {
        // Also on a cache hit: the stats travel in the artifact.
        if let Some(stats) = &fragments.stats {
            self.ctx.set(names::PREPROCESS_REJECTED_BY_TRIM, stats.rejected_by_trim as u64);
            self.ctx.set(names::PREPROCESS_REJECTED_BY_MASK, stats.rejected_by_mask as u64);
            self.ctx.set(names::PREPROCESS_MASKED_BASES, stats.masked_bases as u64);
        }
        self.ctx.set(names::FRAGMENTS, fragments.origin.len() as u64);
    }

    /// Decode the stores a preprocess cache hit left encoded. A bulk that
    /// passed its checksum but does not decode was written wrong:
    /// preprocessing runs again and rewrites the entry.
    fn decode(&mut self, fragments: &mut Fragments) {
        let Bulk::Encoded { payload, at, n } = &fragments.bulk else { return };
        let digests = fragments.digests.expect("an artifact carries its digests");
        match PreprocessBulk::decode(&payload[*at..], *n, &digests) {
            Ok(PreprocessBulk { store, store_unmasked, quals }) => {
                let store_unmasked = Some(store_unmasked);
                fragments.bulk = Bulk::Decoded(Stores { store, store_unmasked, quals });
            }
            Err(_) => {
                let cfg = self.config.preprocess.as_ref().expect("only a preprocess artifact loads encoded");
                *fragments = self.run_preprocessor(cfg, self.preprocess_key(cfg));
                self.record_preprocess(fragments);
            }
        }
    }

    /// Cluster the masked fragments on the configured [`Exec`]. A warm
    /// cache skips the stage: the partition is a function of the
    /// fragments and the parameters — the key — and not of where it ran.
    fn cluster(&mut self, fragments: &mut Fragments) -> (Partition, bool) {
        let (config, n) = (self.config, fragments.origin.len());
        let key = |run: &Self, f: &mut Fragments| {
            let key = || cache::partition_key_from(f.digests().store, &config.cluster, CLUSTERING_REVISION);
            run.cache.is_some().then(key)
        };
        let cached = key(self, fragments);
        if let Some(part) =
            self.load("partition", PARTITION_CODEC_SCHEMA, cached, |p| decode_partition(&p, n))
        {
            record_partition(self.ctx, &part);
            return (part, false);
        }
        // Keyed anew: the fragments may come from a rerun preprocessing.
        self.decode(fragments);
        let key = key(self, fragments);
        let (part, killed) =
            stages::cluster(&fragments.stores().store, &config.cluster, &config.exec, self.ctx);
        // A killed master's partition is partial — never cache it.
        if !killed {
            self.store("partition", PARTITION_CODEC_SCHEMA, key, || encode_partition(&part));
        }
        (part, killed)
    }

    /// Assemble every non-singleton cluster over the soft-masked
    /// (original-base) fragments on the configured [`Exec`]. A warm cache
    /// skips the stage: the contigs are a function of the key's parts.
    fn assemble(&mut self, fragments: &mut Fragments, clustering: &Clustering) -> (Vec<Assembly>, bool) {
        let config = self.config;
        let key = |run: &Self, f: &mut Fragments| {
            let key = || {
                let PreprocessDigests { store_unmasked, quals, .. } = f.digests();
                cache::contigs_key_from(
                    store_unmasked,
                    Some(quals),
                    clustering,
                    &config.assembly,
                    ASSEMBLER_REVISION,
                )
            };
            run.cache.is_some().then(key)
        };
        let cached = key(self, fragments);
        if let Some(assemblies) = self.load("contigs", CONTIGS_CODEC_SCHEMA, cached, |p| decode_contigs(&p)) {
            record_contigs(self.ctx, &assemblies);
            return (assemblies, false);
        }
        self.decode(fragments);
        let key = key(self, fragments);
        let Stores { store, store_unmasked, quals } = fragments.stores();
        let store = store_unmasked.as_ref().unwrap_or(store);
        let (assemblies, killed) =
            stages::assemble(store, Some(quals), clustering, &config.assembly, &config.exec, self.ctx);
        // A killed assembly master leaves placeholder slots — never
        // cache those as the real contigs.
        if !killed {
            self.store("contigs", CONTIGS_CODEC_SCHEMA, key, || encode_contigs(&assemblies));
        }
        (assemblies, killed)
    }

    /// Preprocess, then cluster: the report and the fragments to go on.
    fn front(&mut self) -> (PipelineReport, Fragments) {
        let mut fragments = self.stage("preprocess", |run| run.preprocess());
        let (partition, killed) = self.stage("cluster", |run| run.cluster(&mut fragments));
        let report = PipelineReport {
            preprocess: fragments.stats.take(),
            clustering: partition.clustering,
            cluster_stats: partition.stats,
            origin: std::mem::take(&mut fragments.origin),
            assemblies: Vec::new(),
            interrupted: killed.then(|| "cluster".to_string()),
        };
        (report, fragments)
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
    /// clustering + per-cluster assembly over a read set, recording
    /// spans, counters, and per-rank channels into the caller's
    /// [`RunContext`] — fold it with [`RunContext::finish`] for the
    /// structured [`pgasm_telemetry::RunReport`]. A master the fault plan
    /// kills ends the run with its stage (see
    /// [`PipelineReport::interrupted`]).
    pub fn run(
        &self,
        reads: &ReadSet,
        vectors: &[DnaSeq],
        known_repeats: &[DnaSeq],
        ctx: &mut RunContext,
    ) -> PipelineReport {
        let mut run = Run::start(&self.config, (reads, vectors, known_repeats), ctx);
        let (mut report, mut fragments) = run.front();
        if report.interrupted.is_none() {
            let (assemblies, killed) =
                run.stage("assemble", |run| run.assemble(&mut fragments, &report.clustering));
            report.assemblies = assemblies;
            report.interrupted = killed.then(|| "assemble".to_string());
        }
        report
    }

    /// As [`Pipeline::run`], stopping after the cluster stage: the
    /// report's `assemblies` stay empty and the run records no
    /// `assemble` span.
    pub fn cluster(
        &self,
        reads: &ReadSet,
        vectors: &[DnaSeq],
        known_repeats: &[DnaSeq],
        ctx: &mut RunContext,
    ) -> PipelineReport {
        Run::start(&self.config, (reads, vectors, known_repeats), ctx).front().0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::EngineConfig;
    use crate::stages::in_process;
    use pgasm_simgen::genome::{Genome, GenomeSpec};
    use pgasm_simgen::sampler::{Sampler, SamplerConfig};
    use pgasm_simgen::vector::VECTOR_SEQ;
    use pgasm_telemetry::RunReport;

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

    fn ranks(p: usize) -> Exec {
        let engine = EngineConfig { batch: 16, pending_cap: 512 };
        Exec::Ranks { p, engine, recovery: Default::default() }
    }

    fn fast_config(exec: Exec) -> PipelineConfig {
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
            assembly: AssemblyConfig::default(),
            exec,
            trace: TraceSpec::off(),
            cache_dir: None,
        }
    }

    fn run(config: PipelineConfig, reads: &ReadSet) -> PipelineReport {
        Pipeline::new(config).run(reads, &[], &[], &mut RunContext::new("test"))
    }

    /// The clustering and the assemblies of one read set in process on
    /// one and on two threads, and on three ranks.
    fn on_every_exec(reads: &ReadSet) -> Vec<(Clustering, Vec<Assembly>)> {
        [Exec::Threads(1), Exec::Threads(2), ranks(3)]
            .map(|exec| run(fast_config(exec), reads))
            .into_iter()
            .map(|r| (r.clustering, r.assemblies))
            .collect()
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
        let report = run(fast_config(Exec::Threads(2)), &reads);
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
        let outputs = on_every_exec(&island_reads(20));
        assert!(outputs[0].1.iter().map(Assembly::num_contigs).sum::<usize>() > 0);
        assert_eq!(outputs[1], outputs[0], "two threads");
        assert_eq!(outputs[2], outputs[0], "three ranks");
    }

    #[test]
    fn preprocessing_phase_integrates() {
        let genome = island_genome(30);
        let mut cfg = SamplerConfig::default_scaled();
        cfg.island_bias = 1.0;
        let mut sampler = Sampler::new(&genome, cfg, 31);
        let reads = sampler.enriched(120, pgasm_simgen::ReadKind::Hc);
        let mut config = fast_config(Exec::Threads(2));
        config.preprocess =
            Some(pgasm_preprocess::PreprocessConfig { stat_repeats: None, ..Default::default() });
        let report = Pipeline::new(config).run(
            &reads,
            &[DnaSeq::from(VECTOR_SEQ)],
            &genome.repeat_library,
            &mut RunContext::new("test"),
        );
        let pp = report.preprocess.expect("preprocessing ran");
        let before: usize = pp.before.values().map(|v| v.0).sum();
        let after: usize = pp.after.values().map(|v| v.0).sum();
        assert_eq!(before, 120);
        assert!(after > 60, "too many reads lost: {after}");
        assert!(report.clustering.num_non_singletons() >= 1);
    }

    #[test]
    fn run_records_stage_graph() {
        let reads = island_reads(10);
        let mut ctx = RunContext::new("test-run");
        let report = Pipeline::new(fast_config(ranks(3))).run(&reads, &[], &[], &mut ctx);
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
    }

    #[test]
    fn assembly_panic_propagates_original_payload() {
        // An empty quality slice makes the per-cluster worker index out
        // of bounds inside its thread. The original payload must
        // surface — not the scope's generic "a scoped thread panicked",
        // and not the downstream "every cluster assembled" expect on the
        // slot the dead thread left empty.
        let reads = island_reads(10);
        let store = reads.to_store();
        let (clustering, _) = in_process(&store, &fast_config(Exec::Threads(2)).cluster);
        assert!(clustering.num_non_singletons() >= 1);
        let no_quals: Vec<QualityTrack> = Vec::new();
        let payload = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let (config, exec) = (AssemblyConfig::default(), Exec::Threads(2));
            stages::assemble(
                &store,
                Some(&no_quals),
                &clustering,
                &config,
                &exec,
                &mut RunContext::new("test"),
            )
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
        let mut ctx = RunContext::new("test-run");
        let report = Pipeline::new(fast_config(ranks(3))).run(&reads, &[], &[], &mut ctx);
        let run = ctx.finish();
        // One channel per rank, covering both phases: clustering
        // counters and assemble counters live side by side, and the
        // The assemble phase's protocol rows, on its own tags, join the
        // comm table.
        assert_eq!(run.ranks.len(), 3);
        let clusters: u64 = run.ranks[1..].iter().map(|r| r.counter(names::ASM_CLUSTERS_ASSEMBLED)).sum();
        assert_eq!(clusters as usize, report.clustering.num_non_singletons());
        assert!(run.ranks[0].counter(names::PEAK_QUEUE_DEPTH) > 0);
        assert!(run.ranks[0].counter(names::ASM_PEAK_QUEUE_DEPTH) > 0);
        assert!(run.ranks[0].comm.iter().any(|t| t.tag == names::TAG_W2M_REPORT));
        assert!(run.ranks[0].comm.iter().any(|t| t.tag == names::TAG_ASM_W2M_REPORT));
        // The assemble stage records its phase sub-span.
        let assemble = run.span("assemble").unwrap();
        assert!(assemble.find("assemble/dist_assemble").is_some());
    }

    #[test]
    fn partition_payloads_decode_only_as_a_partition_of_the_store() {
        let clustering = Clustering { clusters: vec![vec![0, 2, 3], vec![1], vec![4, 5]] };
        let stats = ClusterStats { generated: 9, aligned: 5, accepted: 3, merges: 3, dp_cells: 1234 };
        let gst = GstCounts { enumerated: 600, suffixes: 40, nodes: 70 };
        let part = Partition { clustering, stats, gst };
        let payload = encode_partition(&part);
        assert_eq!(decode_partition(&payload, 6), Some(part.clone()), "round trip");
        // The partition of another store's fragments.
        assert!(decode_partition(&payload, 5).is_none(), "an id of at least n");
        assert!(decode_partition(&payload, 7).is_none(), "a fragment in no cluster");
        let misses = |clusters: Vec<Vec<u32>>| {
            decode_partition(
                &encode_partition(&Partition { clustering: Clustering { clusters }, stats, gst }),
                6,
            )
            .is_none()
        };
        assert!(misses(vec![vec![0, 2, 3], vec![1, 4], vec![4, 5]]), "an id in two clusters");
        assert!(misses(vec![vec![0, 3, 2], vec![1], vec![4, 5]]), "members out of order");
        assert!(misses(vec![vec![0, 2, 3], vec![4, 5], vec![1]]), "clusters out of order");
        assert!(misses(vec![vec![0, 1, 2, 3], vec![], vec![4, 5]]), "an empty cluster");
        for cut in 0..payload.len() {
            assert!(decode_partition(&payload[..cut], 6).is_none(), "cut at {cut}");
        }
        let mut long = payload;
        long.push(0);
        assert!(decode_partition(&long, 6).is_none(), "a trailing byte");
    }

    /// One input, one `Partition`: in process, on ranks, and back from
    /// the cache's codec. Each read overlaps one other only, so no
    /// schedule aligns a pair the serial engine skips (the tallies of a
    /// redundant input depend on the schedule).
    #[test]
    fn every_path_yields_one_partition() {
        let genome = island_genome(50).seq;
        let store = FragmentStore::from_seqs((0..24).flat_map(|i| {
            let at = 700 * i;
            [genome.slice(at, at + 250), genome.slice(at + 150, at + 400)]
        }));
        let params = fast_config(Exec::Threads(1)).cluster;
        let on = |exec| stages::cluster(&store, &params, &exec, &mut RunContext::new("test")).0;
        let serial = on(Exec::Threads(1));
        assert_eq!(serial.clustering.num_non_singletons(), 24);
        assert_eq!(on(ranks(3)), serial);
        let payload = encode_partition(&serial);
        assert_eq!(decode_partition(&payload, store.num_fragments()), Some(serial));
    }

    #[test]
    fn assembly_threads_do_not_change_results() {
        let reads = island_reads(40);
        let outputs = on_every_exec(&reads);
        assert!(outputs[0].1.iter().map(Assembly::num_contigs).sum::<usize>() > 0);
        assert_eq!(outputs[1], outputs[0], "two threads");
        assert_eq!(outputs[2], outputs[0], "three ranks");
        // More threads than clusters: every cluster still on one thread.
        let many = run(fast_config(Exec::Threads(8)), &reads);
        assert_eq!((many.clustering, many.assemblies), outputs[0]);
    }

    /// A scratch cache directory, removed on drop.
    struct CacheDir(std::path::PathBuf);

    impl CacheDir {
        fn new(tag: &str) -> CacheDir {
            let dir = std::env::temp_dir().join(format!("pgasm-pipeline-{tag}-{}", std::process::id()));
            let _ = std::fs::remove_dir_all(&dir);
            CacheDir(dir)
        }

        /// Preprocessing on, cached here.
        fn config(&self, psi: usize) -> PipelineConfig {
            let mut config = fast_config(Exec::Threads(1));
            config.cluster.gst.psi = psi;
            config.preprocess = Some(PreprocessConfig { stat_repeats: None, ..Default::default() });
            config.cache_dir = Some(self.0.clone());
            config
        }
    }

    impl Drop for CacheDir {
        fn drop(&mut self) {
            let _ = std::fs::remove_dir_all(&self.0);
        }
    }

    /// Run all three stages over `reads`: the report, the run's counters,
    /// and whether the fragments' stores were still encoded at the end.
    fn run_cached(config: &PipelineConfig, reads: &ReadSet) -> (PipelineReport, RunReport, bool) {
        let mut ctx = RunContext::new("test");
        let mut run = Run::start(config, (reads, &[], &[]), &mut ctx);
        let (mut report, mut fragments) = run.front();
        report.assemblies = run.stage("assemble", |run| run.assemble(&mut fragments, &report.clustering)).0;
        let encoded = matches!(fragments.bulk, Bulk::Encoded { .. });
        (report, ctx.finish(), encoded)
    }

    fn hits_and_misses(run: &RunReport) -> (u64, u64) {
        (run.counter(names::CACHE_HIT), run.counter(names::CACHE_MISS))
    }

    #[test]
    fn a_warm_run_decodes_no_fragment_store() {
        let (dir, reads) = (CacheDir::new("warm"), island_reads(10));
        let (cold, cold_run, _) = run_cached(&dir.config(20), &reads);
        assert_eq!(hits_and_misses(&cold_run), (0, 3));
        let (warm, warm_run, encoded) = run_cached(&dir.config(20), &reads);
        assert_eq!(hits_and_misses(&warm_run), (3, 0));
        assert!(encoded, "a run that hit all three entries decoded the fragment stores");
        assert_eq!((warm.clustering, warm.assemblies), (cold.clustering, cold.assemblies));
    }

    /// A summary hit and a partition miss (ψ 20 → 22) decode the stores
    /// the preprocess entry holds and assemble exactly what an uncached
    /// run does. (This input clusters alike at both ψ, so the contigs
    /// entry goes too, and the assembler runs on the decoded stores.)
    #[test]
    fn a_partition_miss_assembles_the_uncached_contigs() {
        let (dir, reads) = (CacheDir::new("psi"), island_reads(20));
        run_cached(&dir.config(20), &reads);
        for entry in std::fs::read_dir(&dir.0).unwrap() {
            let path = entry.unwrap().path();
            if path.file_name().unwrap().to_string_lossy().starts_with("contigs-") {
                std::fs::remove_file(path).unwrap();
            }
        }
        let (cached, run, encoded) = run_cached(&dir.config(22), &reads);
        assert_eq!(hits_and_misses(&run), (1, 2));
        assert!(!encoded);
        let plain = Pipeline::new(PipelineConfig { cache_dir: None, ..dir.config(22) });
        let plain = plain.run(&reads, &[], &[], &mut RunContext::new("test"));
        assert!(plain.total_contigs() > 0);
        assert_eq!((cached.clustering, cached.assemblies), (plain.clustering, plain.assemblies));
    }

    /// An entry that passes its checksum but whose bulk does not decode
    /// — a masked run past its fragment's end, a quality track one value
    /// short — reruns preprocessing, which rewrites the entry.
    #[test]
    fn a_checksum_valid_entry_whose_bulk_does_not_decode_is_recomputed() {
        use pgasm_seq::wire::Reader;
        let reads = island_reads(30);
        let probe = CacheDir::new("probe");
        let cfg = probe.config(20).preprocess.unwrap();
        let out = Preprocessor::new(cfg.clone(), &[], &[]).run(&reads);
        let bytes = out.encode();
        // Fragment 0's (empty) runs, spliced to one past its end.
        let (_, at) = PreprocessSummary::decode(&bytes).unwrap();
        let mut r = Reader::new(&bytes[at..]);
        FragmentStore::decode_from(&mut r).unwrap();
        let runs = bytes.len() - r.remaining();
        assert_eq!(r.get_u32_slice().unwrap(), Vec::<u32>::new());
        let mut past_end = Writer::new();
        past_end.put_u32_slice(&[0, out.store.len_of(pgasm_seq::SeqId(0)) as u32 + 1]);
        let past_end = [&bytes[..runs], &past_end.finish(), &bytes[runs + 4..]].concat();
        let mut short = out.clone();
        let last = short.quals.pop().unwrap();
        short.quals.push(QualityTrack::from_values(last.values()[1..].to_vec()));
        let short = short.encode_with(&out.digests());

        let plain = Pipeline::new(PipelineConfig { cache_dir: None, ..probe.config(20) });
        let plain = plain.run(&reads, &[], &[], &mut RunContext::new("test"));
        for (tag, payload) in [("past-end", past_end), ("short", short)] {
            let dir = CacheDir::new(tag);
            let cache = ArtifactCache::open(&dir.0).unwrap();
            let key = cache::preprocess_key(&reads, &[], &[], &cfg);
            cache.store("preprocess", PREPROCESS_CODEC_SCHEMA, key, &payload).unwrap();
            let (report, run, _) = run_cached(&dir.config(20), &reads);
            assert_eq!(hits_and_misses(&run), (1, 2), "{tag}: the summary hits, the stages miss");
            assert_eq!(
                (&report.clustering, &report.assemblies),
                (&plain.clustering, &plain.assemblies),
                "{tag}"
            );
            let rewritten = cache.load("preprocess", PREPROCESS_CODEC_SCHEMA, key).unwrap();
            assert_eq!(
                PreprocessOutput::decode(&rewritten),
                Ok(out.clone()),
                "{tag}: the entry was rewritten"
            );
            let (_, healed, encoded) = run_cached(&dir.config(20), &reads);
            assert_eq!(hits_and_misses(&healed), (3, 0), "{tag}");
            assert!(encoded, "{tag}");
        }
    }
}

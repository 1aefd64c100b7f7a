//! The traced run: replay `pgasm assemble` in-process, one span around
//! each call into a layer's public function, and derive the per-layer
//! metrics from the spans and the counts taken at the same boundaries.
//!
//! The replay is the CLI's pipeline — default `PreprocessConfig`,
//! `VECTOR_SEQ`, no known repeats, default `ClusterParams` and
//! `AssemblyConfig`, the unmasked store plus quality tracks into
//! assembly — and proves it by producing the CLI's contigs byte for
//! byte (checked by the caller).

use crate::span::{self, Clock, Recorder, Span};
use crate::workloads::Workload;
use pgasm::assemble::{consensus, layout, overlap, Assembly, AssemblyConfig};
use pgasm::cluster::cache::{self, ArtifactCache};
use pgasm::cluster::clustering::{canonical_skip, same_fragment_skip, PairDecider};
use pgasm::cluster::{
    assemble_parallel, cluster_parallel, cluster_serial_with_gst, AssignPolicy, ClusterParams, ClusterStats,
    Clustering, MasterWorkerConfig, UnionFind,
};
use pgasm::gst::{Gst, PairGenerator, PromisingPair, GST_CODEC_SCHEMA};
use pgasm::preprocess::pipeline::PreprocessOutput;
use pgasm::preprocess::{PreprocessConfig, Preprocessor, PREPROCESS_CODEC_SCHEMA};
use pgasm::seq::fasta::{read_fastq, write_fasta, FastaRecord};
use pgasm::seq::{DnaSeq, FragmentStore, QualityTrack, SeqId};
use pgasm::simgen::sampler::ReadSet;
use pgasm::simgen::vector::VECTOR_SEQ;
use pgasm::simgen::{Provenance, ReadKind};
use pgasm::telemetry::RankReport;
use std::fs::File;
use std::io::BufReader;
use std::path::Path;

/// One replay's result.
pub struct Replay {
    pub spans: Vec<Span>,
    /// (name, value) of every per-layer metric the replay itself can
    /// derive (names as in `metrics::PER_LAYER`); the caller adds the ones
    /// that need the child runs.
    pub metrics: Vec<(&'static str, f64)>,
    /// The contigs exactly as `pgasm assemble --out` would write them.
    pub contigs_fasta: Vec<u8>,
    /// Sum of the spans that make up an uncached serial (or, with
    /// `--ranks`, distributed) CLI run, for `harness.layer_coverage`.
    pub pipeline_s: f64,
    /// What a `--cache-dir` cold run does on top of `pipeline_s`.
    pub cache_cold_extra_s: f64,
    /// Failed internal checks (empty when the replay is sound).
    pub failures: Vec<String>,
}

/// The FASTQ → `ReadSet` conversion of `pgasm`'s `read_reads`, including
/// its placeholder provenance (which the preprocess cache key hashes).
fn read_reads(fastq: &Path) -> std::io::Result<ReadSet> {
    let mut reads = ReadSet::default();
    for r in read_fastq(BufReader::new(File::open(fastq)?))? {
        reads.provenance.push(Provenance {
            genome: 0,
            start: 0,
            end: r.seq.len() as u32,
            reverse: false,
            kind: ReadKind::Wgs,
        });
        reads.seqs.push(r.seq);
        reads.quals.push(r.qual);
    }
    Ok(reads)
}

/// The FASTA `pgasm assemble` writes for `assemblies`.
pub fn contigs_fasta(assemblies: &[Assembly]) -> Vec<u8> {
    let mut records = Vec::new();
    for (ci, assembly) in assemblies.iter().enumerate() {
        for (j, contig) in assembly.contigs.iter().enumerate() {
            records.push(FastaRecord {
                header: format!("contig_{ci}_{j} len={} reads={}", contig.seq.len(), contig.placements.len()),
                seq: contig.seq.clone(),
            });
        }
    }
    let mut out = Vec::new();
    write_fasta(&mut out, &records, 80).expect("write to memory");
    out
}

/// `assemble_with_quality` for one cluster with a span around each of
/// its three stages. Returns the assembly and the accepted edge count.
fn assemble_cluster(
    reads: &[DnaSeq],
    quals: &[QualityTrack],
    config: &AssemblyConfig,
    clock: Clock,
    spans: &mut Vec<Span>,
) -> (Assembly, usize) {
    let cluster = spans.len();
    let start_ns = clock.now_ns();
    spans.push(Span { name: "assemble.cluster", start_ns, end_ns: start_ns, parent: None });
    let timed = |name: &'static str, spans: &mut Vec<Span>, start_ns: u64| {
        spans.push(Span { name, start_ns, end_ns: clock.now_ns(), parent: Some(cluster) });
    };
    let t = clock.now_ns();
    let edges = overlap::find_overlaps(reads, Some(quals), config);
    timed("assemble.overlap", spans, t);
    let t = clock.now_ns();
    let (layouts, inconsistent_edges) = layout::layout(reads, &edges, config);
    timed("assemble.layout", spans, t);
    let t = clock.now_ns();
    let mut contigs = Vec::new();
    let mut singletons = Vec::new();
    for l in layouts {
        if l.placements.len() == 1 {
            singletons.push(l.placements[0].read);
        } else {
            contigs.push(consensus::consensus(reads, &l.placements));
        }
    }
    contigs.sort_by_key(|c| std::cmp::Reverse(c.seq.len()));
    timed("assemble.consensus", spans, t);
    spans[cluster].end_ns = clock.now_ns();
    (Assembly { contigs, singletons, inconsistent_edges }, edges.len())
}

/// The CLI's threaded assembly loop (`assemble_clusters_q`: contiguous
/// chunks of the non-singleton clusters, one OS thread each) with the
/// per-cluster spans collected per thread and adopted under `parent`.
fn assemble_clusters(
    store: &FragmentStore,
    quals: &[QualityTrack],
    clustering: &Clustering,
    config: &AssemblyConfig,
    threads: usize,
    rec: &mut Recorder,
) -> (Vec<Assembly>, usize) {
    let clusters: Vec<&Vec<u32>> = clustering.non_singletons().collect();
    if clusters.is_empty() {
        return (Vec::new(), 0);
    }
    let chunk = clusters.len().div_ceil(threads.clamp(1, clusters.len()));
    let clock = rec.clock();
    let parent = rec.current();
    let per_thread: Vec<(Vec<Assembly>, usize, Vec<Span>)> = std::thread::scope(|scope| {
        let handles: Vec<_> = clusters
            .chunks(chunk)
            .map(|cluster_chunk| {
                scope.spawn(move || {
                    let (mut assemblies, mut edges, mut spans) = (Vec::new(), 0, Vec::new());
                    for members in cluster_chunk {
                        let reads: Vec<DnaSeq> = members.iter().map(|&f| store.get_seq(SeqId(f))).collect();
                        let cluster_quals: Vec<QualityTrack> =
                            members.iter().map(|&f| quals[f as usize].clone()).collect();
                        let (assembly, accepted) =
                            assemble_cluster(&reads, &cluster_quals, config, clock, &mut spans);
                        assemblies.push(assembly);
                        edges += accepted;
                    }
                    (assemblies, edges, spans)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("assembly thread panicked")).collect()
    });
    let (mut assemblies, mut edges) = (Vec::new(), 0);
    for (chunk_assemblies, chunk_edges, spans) in per_thread {
        assemblies.extend(chunk_assemblies);
        edges += chunk_edges;
        rec.adopt(spans, parent);
    }
    (assemblies, edges)
}

/// `cluster_serial`'s promising-pair stream over `gst`.
fn promising_pairs(gst: Gst, params: &ClusterParams) -> impl Iterator<Item = PromisingPair> {
    let canonical = params.canonical_strands;
    PairGenerator::new(gst, params.mode, move |a, b| {
        same_fragment_skip(a, b) || (canonical && canonical_skip(a, b))
    })
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Replay the pipeline over `fastq`. `cache_dir` must be a fresh
/// directory; `threads` sizes the assembly loop as `--assembly-threads`
/// does.
pub fn replay(
    workload: &Workload,
    fastq: &Path,
    cache_dir: &Path,
    threads: usize,
) -> std::io::Result<Replay> {
    let mut rec = Recorder::new();
    let mut failures = Vec::new();
    let mut m: Vec<(&'static str, f64)> = Vec::new();
    let params = ClusterParams::default();
    let assembly_config = AssemblyConfig::default();
    let preprocess_config = PreprocessConfig::default();
    let vectors = [DnaSeq::from(VECTOR_SEQ)];

    // seq + preprocess.
    let reads = rec.scope("seq.fastq_parse", |_| read_reads(fastq))?;
    let pre = rec
        .scope("preprocess.run", |_| Preprocessor::new(preprocess_config.clone(), &vectors, &[]).run(&reads));
    let store = &pre.store;
    m.push(("preprocess.fragments_out", store.num_fragments() as f64));
    m.push(("preprocess.bases_out", store.total_len() as f64));

    // gst: build.
    let ds = rec.scope("seq.revcomp", |_| store.with_reverse_complements());
    let gst = rec.scope("gst.build", |_| Gst::build(&ds, params.gst));
    let indexed_bases = ds.total_len() as f64;
    let (gst_nodes, gst_memory) = (gst.stats().nodes as f64, gst.memory_bytes() as f64);

    // core.cache: what a --cache-dir run adds, on this run's artifacts.
    let artifacts = ArtifactCache::open(cache_dir)?;
    let (pre_key, gst_key) = rec.scope("cache.key", |_| {
        (cache::preprocess_key(&reads, &vectors, &[], &preprocess_config), cache::gst_key(&ds, &params.gst))
    });
    let pre_ok = rec.scope("cache.preprocess_roundtrip", |_| {
        artifacts.store("preprocess", PREPROCESS_CODEC_SCHEMA, pre_key, &pre.encode())?;
        let back = artifacts
            .load("preprocess", PREPROCESS_CODEC_SCHEMA, pre_key)
            .and_then(|p| PreprocessOutput::decode(&p).ok());
        Ok::<bool, std::io::Error>(back.is_some_and(|b| b.store.total_len() == store.total_len()))
    })?;
    if !pre_ok {
        failures.push("preprocess artifact did not round-trip through the cache".to_string());
    }
    let encoded = rec.scope("cache.gst_encode", |_| gst.encode());
    let gst_bytes =
        rec.scope("cache.gst_store", |_| artifacts.store("gst", GST_CODEC_SCHEMA, gst_key, &encoded))?;
    drop(encoded);
    let payload = rec.scope("cache.gst_load", |_| artifacts.load("gst", GST_CODEC_SCHEMA, gst_key));
    let Some(payload) = payload else {
        return Err(std::io::Error::other("GST artifact just stored did not load back"));
    };
    let decode = |rec: &mut Recorder| {
        rec.scope("cache.gst_decode", |_| Gst::decode(&payload))
            .map_err(|e| std::io::Error::other(format!("GST artifact does not decode: {e:?}")))
    };
    let (decoded, decoded_again) = (decode(&mut rec)?, decode(&mut rec)?);
    drop(payload);

    // gst: pair generation alone, on the decoded tree.
    let drained: Vec<PromisingPair> =
        rec.scope("gst.pairgen", |_| promising_pairs(decoded, &params).collect());

    // core.clustering: cluster_serial's Union-Find loop over the built
    // tree, each alignment timed.
    let n = store.num_fragments();
    let decider = PairDecider { store: &ds, params };
    let mut scratch = decider.new_scratch();
    let mut stats = ClusterStats::default();
    let mut uf = UnionFind::new(n);
    let mut stream_mismatches = 0usize;
    let clock = rec.clock();
    let clustering = rec.scope("core.cluster_loop", |rec| {
        let loop_span = rec.current();
        for pair in promising_pairs(gst, &params) {
            if drained.get(stats.generated as usize) != Some(&pair) {
                stream_mismatches += 1;
            }
            stats.generated += 1;
            let (fa, fb) = decider.fragments_of(&pair);
            if uf.same(fa.0, fb.0) {
                continue;
            }
            stats.aligned += 1;
            let t = clock.now_ns();
            let r = decider.align_full(&pair, &mut scratch);
            rec.add("align.align_full", t, clock.now_ns(), loop_span);
            stats.record_align(&r);
            if params.criteria.accepts(r.identity, r.overlap_len) {
                stats.accepted += 1;
                if uf.union(fa.0, fb.0) {
                    stats.merges += 1;
                }
            }
        }
        Clustering::from_unionfind(&mut uf)
    });
    if stream_mismatches > 0 || drained.len() as u64 != stats.generated {
        failures.push(format!(
            "decoded GST generated {} pairs, the built tree {} ({} differ)",
            drained.len(),
            stats.generated,
            stream_mismatches
        ));
    }
    drop(drained);
    let (reference, reference_stats) =
        rec.scope("check.cluster_serial", |_| cluster_serial_with_gst(store, &params, Some(decoded_again)));
    if reference != clustering || reference_stats != stats {
        failures.push("replayed partition or counters differ from cluster_serial's".to_string());
    }

    // assemble.
    rec.scope("cache.key", |_| {
        std::hint::black_box(cache::contigs_key(
            &pre.store_unmasked,
            Some(&pre.quals),
            &clustering,
            &assembly_config,
        ))
    });
    let (assemblies, edges_accepted) = rec.scope("assemble", |rec| {
        assemble_clusters(&pre.store_unmasked, &pre.quals, &clustering, &assembly_config, threads, rec)
    });
    let cache_entries = std::fs::read_dir(cache_dir)?.count();

    // The distributed path on the same fragments.
    let dist = workload.ranks.map(|p| {
        let cluster = rec.scope("dist.cluster_parallel", |_| {
            cluster_parallel(store, p, &params, &MasterWorkerConfig::default())
        });
        let assemble = rec.scope("dist.assemble_parallel", |_| {
            assemble_parallel(
                &pre.store_unmasked,
                Some(&pre.quals),
                &cluster.clustering,
                &assembly_config,
                p,
                AssignPolicy::Lpt,
            )
        });
        (cluster, assemble)
    });
    if let Some((cluster, assemble)) = &dist {
        if cluster.clustering != clustering {
            failures.push("cluster_parallel's partition differs from the serial replay's".to_string());
        }
        if assemble.assemblies != assemblies {
            failures.push("assemble_parallel's contigs differ from the serial replay's".to_string());
        }
    }

    let spans = rec.into_spans();
    let self_ns = span::self_times_ns(&spans);
    let total = |name: &str| span::total_s(&spans, name);

    m.push(("seq.fastq_parse_s", total("seq.fastq_parse")));
    m.push(("seq.revcomp_s", total("seq.revcomp")));
    m.push(("preprocess.run_s", total("preprocess.run")));

    let build_s = total("gst.build");
    let pairgen_s = total("gst.pairgen");
    m.push(("gst.build_s", build_s));
    m.push(("gst.indexed_bases", indexed_bases));
    m.push(("gst.build_ns_per_base", ratio(build_s * 1e9, indexed_bases)));
    m.push(("gst.nodes", gst_nodes));
    m.push(("gst.memory_bytes_per_base", ratio(gst_memory, indexed_bases)));
    m.push(("gst.pairgen_s", pairgen_s));
    m.push(("gst.pairs_generated", stats.generated as f64));
    m.push(("gst.pairgen_us_per_pair", ratio(pairgen_s * 1e6, stats.generated as f64)));

    let align_s = total("align.align_full");
    m.push(("align.align_s", align_s));
    m.push(("align.pairs_aligned", stats.aligned as f64));
    m.push(("align.pairs_accepted", stats.accepted as f64));
    m.push(("align.accept_ratio", ratio(stats.accepted as f64, stats.aligned as f64)));
    m.push(("align.dp_cells", stats.dp_cells as f64));
    m.push(("align.ns_per_cell", ratio(align_s * 1e9, stats.dp_cells as f64)));

    let loop_s = total("core.cluster_loop");
    m.push(("core.cluster_loop_s", loop_s));
    // The loop's self time is what its align children leave; pair
    // generation runs inside it too and was timed alone above.
    let loop_self_s = span::self_total_s(&spans, &self_ns, "core.cluster_loop");
    m.push(("core.uf_self_s", (loop_self_s - pairgen_s).max(0.0)));
    m.push(("core.align_skip_ratio", stats.savings()));
    m.push(("core.clusters_nonsingleton", clustering.num_non_singletons() as f64));
    m.push(("core.largest_cluster_reads", clustering.max_cluster_size() as f64));

    // assemble: the cluster spans arrive in non_singletons() order per
    // thread chunk, i.e. in that order overall.
    let cluster_spans: Vec<&Span> = spans.iter().filter(|s| s.name == "assemble.cluster").collect();
    let cluster_total_s = total("assemble.cluster");
    let cost_units: f64 = clustering
        .non_singletons()
        .map(|c| {
            let k = c.len() as f64;
            k * (k - 1.0) / 2.0
        })
        .sum();
    let largest_cluster_s = clustering
        .non_singletons()
        .zip(&cluster_spans)
        .max_by_key(|(c, s)| (c.len(), s.duration_ns()))
        .map_or(0.0, |(_, s)| s.duration_ns() as f64 * 1e-9);
    let overlap_s = total("assemble.overlap");
    let n_contigs: usize = assemblies.iter().map(|a| a.num_contigs()).sum();
    m.push(("assemble.overlap_s", overlap_s));
    m.push(("assemble.layout_s", total("assemble.layout")));
    m.push(("assemble.consensus_s", total("assemble.consensus")));
    m.push(("assemble.edges_accepted", edges_accepted as f64));
    m.push(("assemble.cost_units", cost_units));
    m.push(("assemble.overlap_us_per_cost_unit", ratio(overlap_s * 1e6, cost_units)));
    m.push(("assemble.largest_cluster_s", largest_cluster_s));
    m.push(("assemble.largest_cluster_share", ratio(largest_cluster_s, cluster_total_s)));
    m.push(("assemble.contigs", n_contigs as f64));
    m.push(("assemble.contigs_per_cluster", ratio(n_contigs as f64, assemblies.len() as f64)));

    m.push(("cache.key_s", total("cache.key")));
    m.push(("cache.gst_encode_s", total("cache.gst_encode")));
    m.push(("cache.gst_store_s", total("cache.gst_store")));
    m.push(("cache.gst_load_s", total("cache.gst_load")));
    m.push(("cache.gst_decode_s", total("cache.gst_decode") / 2.0));
    m.push(("cache.gst_bytes", gst_bytes as f64));
    m.push(("cache.gst_bytes_per_base", ratio(gst_bytes as f64, indexed_bases)));
    m.push(("cache.preprocess_roundtrip_s", total("cache.preprocess_roundtrip")));
    m.push(("cache.entries_written", cache_entries as f64));

    let serial_cluster_s = total("seq.revcomp") + build_s + loop_s;
    let serial_assemble_s = total("assemble");
    let mut pipeline_s = total("seq.fastq_parse") + total("preprocess.run");
    match &dist {
        Some((c, a)) => {
            pipeline_s += total("dist.cluster_parallel") + total("dist.assemble_parallel");
            let workers = |cpu: &[f64]| {
                let w = &cpu[1..];
                ratio(w.iter().cloned().fold(0.0, f64::max), w.iter().sum::<f64>() / w.len() as f64)
            };
            let max = |v: &[f64]| v.iter().cloned().fold(0.0, f64::max);
            let tags = |ranks: &[RankReport], f: fn(&pgasm::telemetry::TagStat) -> u64| -> f64 {
                ranks.iter().flat_map(|r| &r.comm).map(f).sum::<u64>() as f64
            };
            let all_ranks = || c.ranks.iter().chain(&a.ranks);
            m.push(("parallel_gst.build_s", c.gst_seconds));
            m.push(("master_worker.cluster_s", c.cluster_seconds));
            m.push(("master_worker.worker_idle_max", max(&c.worker_idle_fraction)));
            m.push(("master_worker.master_availability", c.master_availability));
            m.push(("assemble_dist.assemble_s", a.assemble_seconds));
            m.push(("assemble_dist.worker_idle_max", max(&a.worker_idle_fraction)));
            m.push(("assemble_dist.cpu_max_over_mean", workers(&a.cpu_seconds)));
            m.push(("mpisim.msgs", tags(&c.ranks, |t| t.msgs_sent) + tags(&a.ranks, |t| t.msgs_sent)));
            m.push(("mpisim.bytes", tags(&c.ranks, |t| t.bytes_sent) + tags(&a.ranks, |t| t.bytes_sent)));
            m.push(("mpisim.blocked_s", all_ranks().map(|r| r.idle_seconds).sum()));
            m.push(("mpisim.modelled_comm_s", all_ranks().map(|r| r.modelled_comm_seconds()).sum()));
            m.push(("dist.cluster_speedup", ratio(serial_cluster_s, c.gst_seconds + c.cluster_seconds)));
            m.push(("dist.assemble_speedup", ratio(serial_assemble_s, a.assemble_seconds)));
        }
        None => pipeline_s += serial_cluster_s + total("assemble"),
    }
    let cache_cold_extra_s = total("cache.key")
        + total("cache.preprocess_roundtrip")
        + total("cache.gst_encode")
        + total("cache.gst_store");

    Ok(Replay {
        contigs_fasta: contigs_fasta(&assemblies),
        spans,
        metrics: m,
        pipeline_s,
        cache_cold_extra_s,
        failures,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{metrics, workloads};

    /// The replay on the `--quick` input of the distributed workload: it
    /// must pass its own checks and emit exactly the per-layer names the
    /// table declares (bar the two the caller adds from the child runs).
    #[test]
    fn replay_is_sound_and_names_match_the_table() {
        let workload = workloads::find("maize_p3").expect("workload");
        let dir = std::env::temp_dir().join(format!("pgasm-benchmark-replay-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("temp dir");
        let (fastq, _) = workloads::serialize(&workloads::generate(workload, 7, 0.25));
        std::fs::write(dir.join("reads.fastq"), fastq).expect("write reads");
        let r = replay(workload, &dir.join("reads.fastq"), &dir.join("cache"), 1).expect("replay");
        let _ = std::fs::remove_dir_all(&dir);
        assert_eq!(r.failures, Vec::<String>::new());
        assert!(r.contigs_fasta.starts_with(b">contig_0_0 "));
        let mut emitted: Vec<&str> = r.metrics.iter().map(|(name, _)| *name).collect();
        let mut declared: Vec<&str> = metrics::PER_LAYER
            .iter()
            .map(|(name, _, _)| *name)
            .filter(|n| !["telemetry.trace_overhead_ratio", "harness.layer_coverage"].contains(n))
            .collect();
        emitted.sort_unstable();
        declared.sort_unstable();
        assert_eq!(emitted, declared);
        assert!(r.metrics.iter().all(|(_, v)| v.is_finite()));
        assert!(r.pipeline_s > 0.0 && r.cache_cold_extra_s > 0.0);
    }
}

//! The two stage calls, [`cluster`] and [`assemble`], and [`Exec`], where
//! they run (§8: assembly is "trivially parallelized by distributing the
//! clusters"). A call records into the caller's [`RunContext`], whose
//! bound trace settings the ranks trace under.

use crate::assemble_dist::{assemble_on_ranks, AssembleStage, AssignPolicy};
use crate::checkpoint::StageRecovery;
use crate::clustering::{cluster_over_gst, ClusterParams, ClusterStats, Clustering};
use crate::engine::EngineConfig;
use crate::master_worker::cluster_on_ranks;
use pgasm_assemble::{assemble_with_quality, Assembly, AssemblyConfig};
use pgasm_gst::{admitted_suffixes, Gst, GstStats};
use pgasm_mpisim::FaultStage;
use pgasm_seq::{DnaSeq, FragmentStore, QualityTrack, SeqId};
use pgasm_telemetry::{fan_out, names, RunContext};

/// Where a stage runs.
#[derive(Debug, Clone)]
pub enum Exec {
    /// In process: the GST admission and the assembly on `n ≥ 1` OS
    /// threads, the calling thread one of them; the rest of the
    /// clustering engine serial.
    Threads(usize),
    /// On `p ≥ 2` simulated ranks: the §7 protocol with knobs `engine`
    /// (assembly grants one cluster at a time, largest first); a stage arms
    /// the run-wide `recovery`'s clauses for it, checkpointing to
    /// `<base>.<stage>.pgck`.
    Ranks { p: usize, engine: EngineConfig, recovery: StageRecovery },
}

/// What the cluster stage hands on: the clusters, the work that found
/// them, and how much input reached the tree (summed over builders) —
/// equal on every [`Exec`], and after a trip through the cache.
#[derive(Debug, Clone, PartialEq)]
pub struct Partition {
    pub clustering: Clustering,
    pub stats: ClusterStats,
    pub gst: GstCounts,
}

/// The GST build's run-level counts, the ones every [`Exec`] reports:
/// the run's `gst_suffixes_enumerated`, `gst_suffixes_indexed` and
/// `gst_nodes` counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GstCounts {
    pub enumerated: usize,
    pub suffixes: usize,
    pub nodes: usize,
}

/// Cluster the single-stranded fragments of `store` on `exec`, recording
/// `gst_build` (in process with children `admit`, on the `n` threads, and
/// `tree`; on ranks
/// also `master_worker`, both on rank clocks, and every rank's `gst_*`
/// build counters in its channel).
/// Returns the partition and whether the fault plan killed the master,
/// which leaves it partial. Panics on `Threads(0)`, `p < 2` or a
/// double-stranded `store`.
pub fn cluster(
    store: &FragmentStore,
    params: &ClusterParams,
    exec: &Exec,
    ctx: &mut RunContext,
) -> (Partition, bool) {
    let (partition, killed) = match exec {
        Exec::Threads(n) => {
            assert!(*n >= 1, "Exec::Threads needs at least one thread");
            assert!(!store.is_double_stranded(), "pass the original single-stranded fragments");
            let ds = store.with_reverse_complements();
            // `Gst::build`, in two spans: the admission on the stage's
            // threads, then the tree over what it admitted.
            let gst = ctx.scope("gst_build", |ctx| {
                let bucket_len = params.gst.bucket_len();
                let (admitted, enumerated) = ctx.scope("admit", |ctx| {
                    let (admitted, enumerated, helper_cpu) = admitted_suffixes(&ds, bucket_len, *n, |_| true);
                    ctx.add_helper_cpu(helper_cpu);
                    (admitted, enumerated)
                });
                ctx.scope("tree", |_| Gst::build_from_sorted(&ds, &admitted, params.gst, enumerated))
            });
            let GstStats { enumerated, suffixes, nodes, .. } = gst.stats();
            let (clustering, stats) = cluster_over_gst(&ds, gst, params);
            (Partition { clustering, stats, gst: GstCounts { enumerated, suffixes, nodes } }, false)
        }
        Exec::Ranks { p, engine, recovery } => {
            let recovery = recovery.for_stage(FaultStage::Cluster);
            let r = cluster_on_ranks(store, *p, params, engine, ctx.trace_spec(), &recovery);
            // The GST build's facts are its ranks' counters, summed.
            let sum = |name| r.ranks.iter().map(|rank| rank.counter(name)).sum::<u64>();
            let gst = GstCounts {
                enumerated: sum(names::GST_SUFFIXES_ENUMERATED) as usize,
                suffixes: sum(names::GST_SUFFIXES_INDEXED) as usize,
                nodes: sum(names::GST_NODES) as usize,
            };
            let gst_cpu = sum(names::GST_COMPUTE_NS) as f64 * 1e-9;
            let cpu = r.ranks.iter().map(|rank| rank.cpu_seconds).sum();
            let phases = [("gst_build", r.gst_seconds, gst_cpu), ("master_worker", r.cluster_seconds, cpu)];
            ctx.merge_stage(&phases, r.ranks, r.traces);
            (Partition { clustering: r.clustering, stats: r.stats, gst }, r.killed)
        }
    };
    record_partition(ctx, &partition);
    (partition, killed)
}

/// Assemble every non-singleton cluster on `exec` (on ranks recording
/// `dist_assemble`), index-parallel with `clustering.non_singletons()`
/// and byte-identical on every `exec`; and whether the fault plan killed
/// the master, which leaves unassembled slots empty.
pub fn assemble(
    store: &FragmentStore,
    quals: Option<&[QualityTrack]>,
    clustering: &Clustering,
    config: &AssemblyConfig,
    exec: &Exec,
    ctx: &mut RunContext,
) -> (Vec<Assembly>, bool) {
    let (assemblies, killed) = match exec {
        Exec::Threads(n) => {
            let (assemblies, helper_cpu) = assemble_on_threads(store, quals, clustering, config, *n);
            ctx.add_helper_cpu(helper_cpu);
            (assemblies, false)
        }
        Exec::Ranks { p, recovery, .. } => {
            let recovery = recovery.for_stage(FaultStage::Assemble);
            let (tasks, batch) = AssignPolicy::Lpt.plan(clustering, p.saturating_sub(1));
            let job = AssembleStage { store, quals, config, tasks, batch };
            let r = assemble_on_ranks(job, *p, ctx.trace_spec(), &recovery);
            let phase = ("dist_assemble", r.assemble_seconds, r.cpu_seconds.iter().sum());
            ctx.merge_stage(&[phase], r.ranks, r.traces);
            (r.assemblies, r.killed)
        }
    };
    record_contigs(ctx, &assemblies);
    (assemblies, killed)
}

/// The partition's counters (also a cached partition's).
pub(crate) fn record_partition(ctx: &mut RunContext, part: &Partition) {
    let Partition { clustering, stats, gst } = part;
    for (name, value) in stats.counters().into_iter().chain([
        (names::GST_SUFFIXES_ENUMERATED, gst.enumerated as u64),
        (names::GST_SUFFIXES_INDEXED, gst.suffixes as u64),
        (names::GST_NODES, gst.nodes as u64),
        (names::MERGES, stats.merges),
        (names::CLUSTERS, clustering.clusters.len() as u64),
        (names::NON_SINGLETON_CLUSTERS, clustering.num_non_singletons() as u64),
    ]) {
        ctx.set(name, value);
    }
}

/// The assemblies' counters (also cached contigs').
pub(crate) fn record_contigs(ctx: &mut RunContext, assemblies: &[Assembly]) {
    ctx.set(names::ASSEMBLED_CLUSTERS, assemblies.len() as u64);
    ctx.set(names::CONTIGS, assemblies.iter().map(|a| a.num_contigs() as u64).sum());
}

/// Assemble every non-singleton cluster on `threads` OS threads, one
/// contiguous chunk each: the calling thread takes the first, so one
/// thread spawns none. Also returns the CPU seconds the spawned threads
/// spent.
fn assemble_on_threads(
    store: &FragmentStore,
    quals: Option<&[QualityTrack]>,
    clustering: &Clustering,
    config: &AssemblyConfig,
    threads: usize,
) -> (Vec<Assembly>, f64) {
    assert!(threads >= 1, "Exec::Threads needs at least one thread");
    let clusters: Vec<&Vec<u32>> = clustering.non_singletons().collect();
    let chunk = clusters.len().div_ceil(threads).max(1); // no cluster: no chunk
    let chunks: Vec<&[&Vec<u32>]> = clusters.chunks(chunk).collect();
    let assemble_chunk = |i: usize| -> Vec<Assembly> {
        let Some(chunk) = chunks.get(i) else { return Vec::new() };
        chunk
            .iter()
            .map(|members| {
                let reads: Vec<DnaSeq> = members.iter().map(|&f| store.get_seq(SeqId(f))).collect();
                let quals: Option<Vec<QualityTrack>> =
                    quals.map(|qs| members.iter().map(|&f| qs[f as usize].clone()).collect());
                assemble_with_quality(&reads, quals.as_deref(), config)
            })
            .collect()
    };
    let (parts, helper_cpu) = fan_out(chunks.len().max(1), assemble_chunk);
    (parts.into_iter().flatten().collect(), helper_cpu)
}

#[cfg(test)]
/// The in-process cluster stage's clustering and tallies, for tests.
pub(crate) fn in_process(store: &FragmentStore, params: &ClusterParams) -> (Clustering, ClusterStats) {
    let (part, _) = cluster(store, params, &Exec::Threads(1), &mut RunContext::new("test"));
    (part.clustering, part.stats)
}

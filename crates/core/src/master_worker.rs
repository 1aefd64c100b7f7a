//! The single-master / multiple-worker parallel clustering runtime
//! (paper §7, Figs. 6–8) — an
//! [`engine::run_stage`](crate::engine::run_stage) client.
//!
//! The protocol (the event-driven master pump, the report and grant
//! message shapes, `compute_r` flow control, park/unpark, termination) and the
//! per-rank shell around it (comm set-up, the timed pre-phase window,
//! checkpoint resume and cadence, timing, tag relabelling, counter
//! folding, [`RankReport`] collection) live in [`crate::engine`]; this
//! module supplies what makes the stage *clustering*:
//!
//! - the pre-phase: the distributed GST build over the worker ranks;
//! - rank 0's `ClusterSource`: the Union–Find cluster store, merges
//!   applied per drained report, the cluster-check pair selection that
//!   discards generated pairs whose fragments already co-cluster, and
//!   the snapshot layout of that state;
//! - ranks 1..p's `ClusterSink`: the per-rank GST pair generator
//!   (decreasing maximal-match order, which "roughly approximates the
//!   global sorted order in practice", §7), the banded alignment
//!   kernel with its reusable zero-allocation scratch, and the result
//!   wire format (per-pair verdicts plus the round's DP cells);
//! - the report shape ([`ParallelClusterReport`]).
//!
//! Substitution note (see DESIGN.md): workers read fragment sequences
//! for alignment from the shared read-only store; protocol traffic
//! (pair batches, results, flow control) is what is being modelled and
//! measured here, and fragment-byte movement is accounted once in the
//! GST construction phase.

use crate::checkpoint::STAGE_CLUSTER;
use crate::clustering::{
    canonical_skip, same_fragment_skip, ClusterParams, ClusterStats, Clustering, PairDecider,
};
use crate::engine::{
    run_stage, Counters, EngineConfig, MasterReport, RunOpts, Snapshot, StageClient, StageSpec, Task,
    TaskSink, TaskSource, WorkerReport,
};
use crate::parallel_gst::{bucket_owner, compute_owners, rank_build_gst, RankGstReport};
use crate::unionfind::UnionFind;
use pgasm_align::AlignScratch;
use pgasm_gst::{enumerate_suffixes, sort_by_bucket, Gst, PairGenerator, PromisingPair};
use pgasm_mpisim::{Comm, CommStats};
use pgasm_seq::wire::{checked_len, Reader, WireError, Writer};
use pgasm_seq::{FragmentStore, SeqId};
use pgasm_telemetry::trace::{RankTrace, TraceCategory, Tracer};
use pgasm_telemetry::{names, RankReport};
use std::collections::VecDeque;

/// Master–worker *runtime* configuration: the engine's protocol knobs
/// (pairs per grant, pending-buffer capacity) and nothing else. What to
/// cluster and how (GST window, scoring, acceptance, mode) lives in
/// [`ClusterParams`], passed alongside — the one place those parameters
/// are defined.
pub type MasterWorkerConfig = EngineConfig;

/// Outcome of a parallel clustering run.
#[derive(Debug, Clone)]
pub struct ParallelClusterReport {
    /// The final clustering (identical to the serial result).
    pub clustering: Clustering,
    /// Aggregated work statistics.
    pub stats: ClusterStats,
    /// Per-rank GST construction reports.
    pub gst_reports: Vec<RankGstReport>,
    /// Wall-clock seconds of the GST phase (max over ranks).
    pub gst_seconds: f64,
    /// Wall-clock seconds of the clustering phase (max over ranks).
    pub cluster_seconds: f64,
    /// Per-worker idle fraction during clustering (blocked time /
    /// phase time) — the §7.2 idle-percentage metric.
    pub worker_idle_fraction: Vec<f64>,
    /// Fraction of the clustering phase the master spent available
    /// (blocked waiting for requests) — §7.2 reports 90% → 70%.
    pub master_availability: f64,
    /// Per-rank traffic during the clustering phase.
    pub comm: Vec<CommStats>,
    /// Per-rank thread-CPU seconds spent in the clustering phase
    /// (rank 0 = master). Immune to core oversubscription, so modelled
    /// scaling curves remain meaningful on small hosts.
    pub cpu_seconds: Vec<f64>,
    /// Per-rank telemetry channels: role, CPU/idle seconds, rank-local
    /// counters (pairs generated/aligned/accepted, batch round-trips,
    /// peak queue depth), and per-tag traffic with modelled α–β time.
    pub ranks: Vec<RankReport>,
    /// Per-rank event traces covering the whole stage (GST +
    /// clustering; spans, instants and the queue-depth / occupancy /
    /// align-scratch gauges); empty tracks when tracing was off.
    pub traces: Vec<RankTrace>,
    /// Tasks re-queued from dead workers' leases (0 in fault-free runs).
    pub recovered_tasks: u64,
    /// Worker ranks the master marked dead during the run.
    pub dead_ranks: u64,
    /// The fault plan killed the master: the clustering above is
    /// partial and the run should resume from the last checkpoint.
    pub killed: bool,
}

/// A promising pair travels as five `u32`s (the engine's default
/// 20-byte size hint is exact).
impl Task for PromisingPair {
    fn encode(&self, w: &mut Writer) {
        w.put_u32(self.a.0).put_u32(self.b.0).put_u32(self.a_pos).put_u32(self.b_pos).put_u32(self.match_len);
    }

    fn decode(r: &mut Reader<'_>) -> Result<PromisingPair, WireError> {
        Ok(PromisingPair {
            a: SeqId(r.get_u32()?),
            b: SeqId(r.get_u32()?),
            a_pos: r.get_u32()?,
            b_pos: r.get_u32()?,
            match_len: r.get_u32()?,
        })
    }
}

/// [`cluster_parallel_with`] under the default [`RunOpts`]: no tracing,
/// no fault injection, no checkpoints.
pub fn cluster_parallel(
    store: &FragmentStore,
    p: usize,
    params: &ClusterParams,
    config: &MasterWorkerConfig,
) -> ParallelClusterReport {
    cluster_parallel_with(store, p, params, config, &RunOpts::default())
}

/// Run the master–worker clustering on `p ≥ 2` ranks. `params` says
/// what to cluster and how; `config` tunes the runtime protocol; `opts`
/// carries the per-run tracing and recovery settings.
pub fn cluster_parallel_with(
    store: &FragmentStore,
    p: usize,
    params: &ClusterParams,
    config: &MasterWorkerConfig,
    opts: &RunOpts,
) -> ParallelClusterReport {
    assert!(p >= 2, "master–worker needs at least 2 ranks");
    assert!(!store.is_double_stranded(), "pass the original single-stranded fragments");
    let ds = store.with_reverse_complements();
    let owner = compute_owners(&ds, p, 1);
    let client = ClusterStage { ds: &ds, owner: &owner, n: store.num_fragments(), params: *params };
    let spec = StageSpec {
        name: STAGE_CLUSTER,
        tag_labels: [names::TAG_W2M_REPORT, names::TAG_M2W_GRANT],
        engine: *config,
    };
    let run = run_stage(p, &spec, opts, &client);

    let mut gst_reports = Vec::with_capacity(p);
    let mut result = None;
    for ((mut gst_report, rank_result), gst_wall) in run.outputs.into_iter().zip(run.pre_seconds) {
        // Thread-CPU compute can overshoot the wall window by a clock
        // tick; the window is the bound.
        gst_report.compute_seconds = gst_report.compute_seconds.min(gst_wall);
        gst_reports.push(gst_report);
        result = result.or(rank_result);
    }
    let (clustering, stats) = result.expect("master produced the clustering");
    ParallelClusterReport {
        clustering,
        stats,
        gst_seconds: gst_reports.iter().map(|r| r.compute_seconds).fold(0.0, f64::max),
        gst_reports,
        cluster_seconds: run.seconds,
        worker_idle_fraction: run.worker_idle_fraction,
        master_availability: run.master_availability,
        comm: run.comm,
        cpu_seconds: run.cpu_seconds,
        ranks: run.ranks,
        traces: run.traces,
        recovered_tasks: run.recovered_tasks,
        dead_ranks: run.dead_ranks,
        killed: run.killed,
    }
}

/// Which generated pairs a worker never announces: the two strands of
/// one fragment, and — under canonical strands — the mirror image of a
/// pair the run sees anyway. A plain `fn` so a rank's own generator and
/// the ones it rebuilds for adopted scopes are one nameable type.
type PairSkip = fn(SeqId, SeqId) -> bool;

fn pair_skip(canonical: bool) -> PairSkip {
    if canonical {
        |a, b| same_fragment_skip(a, b) || canonical_skip(a, b)
    } else {
        same_fragment_skip
    }
}

/// The stage's work, as [`run_stage`] sees it. Every rank hands back
/// its GST construction report; rank 0 adds the clustering.
struct ClusterStage<'a> {
    /// The double-stranded store.
    ds: &'a FragmentStore,
    owner: &'a [u32],
    /// Fragments (single-stranded count): the Union–Find's universe.
    n: usize,
    params: ClusterParams,
}

impl<'a> StageClient for ClusterStage<'a> {
    type Task = PromisingPair;
    type Source = ClusterSource<'a>;
    type Sink = ClusterSink<'a>;
    type Pre = (Gst, RankGstReport);
    type Output = (RankGstReport, Option<(Clustering, ClusterStats)>);

    /// Distributed GST over the worker ranks, closed by a barrier.
    fn pre_phase(&self, comm: &mut Comm) -> Self::Pre {
        let (gst, _text, report) = rank_build_gst(comm, self.ds, self.owner, self.params.gst, 1);
        comm.barrier();
        (gst, report)
    }

    fn source(&self, (_gst, gst_report): Self::Pre) -> ClusterSource<'a> {
        ClusterSource {
            ds: self.ds,
            clusters: UnionFind::new(self.n),
            stats: ClusterStats::default(),
            gst_report,
        }
    }

    fn seed(&self, _source: &ClusterSource<'a>) -> Vec<PromisingPair> {
        Vec::new()
    }

    fn master_output(&self, source: ClusterSource<'a>, em: &MasterReport) -> (Self::Output, Counters) {
        let ClusterSource { mut clusters, mut stats, gst_report, .. } = source;
        // The engine counts announced tasks; for clustering that *is*
        // the generated-pairs total (every generated pair is announced
        // exactly once). A resumed run adds to the snapshot's tally.
        stats.generated += em.tasks_announced;
        let mut counters = stats.counters().to_vec();
        counters.extend([
            (names::PAIRS_SELECTED, em.tasks_selected),
            (names::PEAK_QUEUE_DEPTH, em.peak_queue_depth),
            (names::BATCHES_DISPATCHED, em.batches_dispatched),
            (names::INBOX_DRAIN_DEPTH_MAX, em.inbox_drain_depth_max),
        ]);
        ((gst_report, Some((Clustering::from_unionfind(&mut clusters), stats))), counters)
    }

    fn sink(&self, comm: &Comm, (gst, gst_report): Self::Pre) -> ClusterSink<'a> {
        let params = self.params;
        let decider = PairDecider { store: self.ds, params };
        ClusterSink {
            gen: PairGenerator::new(gst, params.mode, pair_skip(params.canonical_strands)),
            // One scratch per worker, pre-sized for the longest sequence
            // in the store: reused across every granted batch, so the
            // alignment hot loop performs no per-pair heap allocation
            // (grow_events stays 0).
            scratch: decider.new_scratch(),
            decider,
            world: comm.size(),
            adopted: VecDeque::new(),
            results: Vec::new(),
            dp_cells: 0,
            pairs_aligned: 0,
            pairs_accepted: 0,
            gst_report,
        }
    }

    fn worker_output(&self, sink: ClusterSink<'a>, ew: &WorkerReport) -> (Self::Output, Counters) {
        let counters = vec![
            (names::PAIRS_GENERATED, ew.tasks_generated),
            (names::PAIRS_ALIGNED, sink.pairs_aligned),
            (names::PAIRS_ACCEPTED, sink.pairs_accepted),
            (names::BATCH_ROUND_TRIPS, ew.round_trips),
            (names::DP_CELLS, sink.dp_cells),
            (names::SIMD_LANES, pgasm_align::simd::effective_lanes()),
            (names::ALIGN_SCRATCH_BYTES_PEAK, sink.scratch.high_water_bytes()),
            (names::ALIGN_SCRATCH_GROWS, sink.scratch.grow_events()),
        ];
        ((sink.gst_report, None), counters)
    }
}

/// Master-side clustering client: owns the cluster store and the work
/// statistics, applies Union–Find merges the moment reports drain, and
/// selects only announced pairs whose fragments are in different
/// clusters *right now* — the two halves of Fig. 7 the engine delegates.
struct ClusterSource<'a> {
    ds: &'a FragmentStore,
    clusters: UnionFind,
    stats: ClusterStats,
    /// Rank 0's share of the GST pre-phase, carried to the report.
    gst_report: RankGstReport,
}

impl TaskSource<PromisingPair> for ClusterSource<'_> {
    fn absorb_results(&mut self, _src: usize, r: &mut Reader<'_>) -> Result<(), WireError> {
        // Alignment results: merge clusters for accepted overlaps.
        for _ in 0..r.get_u32()? {
            let a = SeqId(r.get_u32()?);
            let bq = SeqId(r.get_u32()?);
            let accepted = r.get_u32()? == 1;
            if a.0.max(bq.0) as usize >= self.ds.num_seqs() {
                return Err(WireError::Malformed("aligned pair names a sequence outside the store"));
            }
            self.stats.aligned += 1;
            if accepted {
                self.stats.accepted += 1;
                let (fa, fb) = (self.ds.seq_to_fragment(a).0, self.ds.seq_to_fragment(bq).0);
                self.stats.merges += u64::from(self.clusters.union(fa.0, fb.0));
            }
        }
        // Trailing work accounting: the round's DP cells.
        self.stats.dp_cells += r.get_u64()?;
        Ok(())
    }

    fn select(&mut self, pair: &PromisingPair) -> bool {
        let fa = self.ds.seq_to_fragment(pair.a).0 .0;
        let fb = self.ds.seq_to_fragment(pair.b).0 .0;
        !self.clusters.same(fa, fb)
    }
}

/// The master's durable state: the work statistics and the Union–Find
/// roots. Workers hold nothing durable — on resume they regenerate
/// their pairs and the restored cluster-check discards what is already
/// merged — so this is the complete resume state of the clustering
/// stage. Layout: four engine counters (forensics only), the five
/// [`ClusterStats`] tallies, the fragment count and one root per
/// fragment.
impl Snapshot for ClusterSource<'_> {
    fn snapshot(&mut self, rep: &MasterReport) -> Vec<u8> {
        let mut w = Writer::new();
        let st = &self.stats;
        for v in [
            rep.tasks_announced,
            rep.tasks_selected,
            rep.recovered_tasks,
            rep.results_absorbed,
            st.generated,
            st.aligned,
            st.accepted,
            st.merges,
            st.dp_cells,
        ] {
            w.put_u64(v);
        }
        let n = self.clusters.len();
        w.put_u32(checked_len(n));
        for i in 0..n as u32 {
            w.put_u32(self.clusters.find(i));
        }
        w.finish()
    }

    fn restore(&mut self, payload: &[u8]) -> Result<(), WireError> {
        let mut r = Reader::new(payload);
        // Engine counters are diagnostic only; the resumed run tallies
        // its own protocol work.
        for _ in 0..4 {
            r.get_u64()?;
        }
        let stats = ClusterStats {
            generated: r.get_u64()?,
            aligned: r.get_u64()?,
            accepted: r.get_u64()?,
            merges: r.get_u64()?,
            dp_cells: r.get_u64()?,
        };
        // The snapshot must be of this run's store; another input's is
        // not ours.
        let n = r.get_u32()? as usize;
        if n != self.clusters.len() {
            return Err(WireError::Malformed("snapshot of a different store"));
        }
        let mut clusters = UnionFind::new(n);
        for i in 0..n as u32 {
            let root = r.get_u32()?;
            if root as usize >= n {
                return Err(WireError::Malformed("Union–Find root out of range"));
            }
            clusters.union(i, root);
        }
        r.expect_end()?;
        (self.stats, self.clusters) = (stats, clusters);
        Ok(())
    }
}

/// Worker-side clustering client: computes allocated alignment batches
/// with the banded kernel (reusing one pre-sized scratch — the
/// alignment hot loop performs no per-pair heap allocation) and
/// generates pairs from the rank-local GST on request.
struct ClusterSink<'a> {
    gen: PairGenerator<PairSkip>,
    decider: PairDecider<'a>,
    scratch: AlignScratch,
    // Adoption state: the world size (with the decider's store and
    // parameters, enough of the run's shape to rebuild a dead peer's
    // GST portion on demand) and the chain of generators rebuilt so
    // far (drained FIFO after `gen`).
    world: usize,
    adopted: VecDeque<PairGenerator<PairSkip>>,
    results: Vec<(PromisingPair, bool)>,
    // Whole-run totals for the rank counters.
    dp_cells: u64,
    pairs_aligned: u64,
    pairs_accepted: u64,
    /// This rank's share of the GST pre-phase, carried to the report.
    gst_report: RankGstReport,
}

impl TaskSink<PromisingPair> for ClusterSink<'_> {
    fn run_batch(&mut self, tracer: &mut Tracer, batch: &mut Vec<PromisingPair>, w: &mut Writer) {
        // Compute the alignments allocated last round.
        let had_batch = !batch.is_empty();
        if had_batch {
            tracer.begin_arg(TraceCategory::Align, names::EV_ALIGN_BATCH, "pairs", batch.len() as u64);
        }
        let mut cells = 0u64;
        for pair in batch.drain(..) {
            let r = self.decider.align_full(&pair, &mut self.scratch);
            cells += r.cells;
            let accepted = self.decider.params.criteria.accepts(r.identity, r.overlap_len);
            self.pairs_aligned += 1;
            self.pairs_accepted += accepted as u64;
            self.results.push((pair, accepted));
        }
        if had_batch {
            tracer.end(TraceCategory::Align, names::EV_ALIGN_BATCH);
            tracer.instant_arg(TraceCategory::Align, names::EV_ALIGN_CELLS, "cells", cells);
        }
        tracer.counter(
            TraceCategory::Align,
            names::GAUGE_ALIGN_SCRATCH_BYTES,
            self.scratch.high_water_bytes(),
        );
        // The result body: per-pair verdicts, then the round's DP cells.
        w.put_u32(checked_len(self.results.len()));
        for (pair, accepted) in self.results.drain(..) {
            w.put_u32(pair.a.0).put_u32(pair.b.0).put_u32(accepted as u32);
        }
        w.put_u64(cells);
        self.dp_cells += cells;
    }

    fn generate(&mut self, tracer: &mut Tracer, r: usize, out: &mut Vec<PromisingPair>) -> bool {
        tracer.begin_arg(TraceCategory::Worker, names::EV_GENERATE, "requested", r as u64);
        self.gen.next_batch(r, out);
        // Top up from adopted scopes once the rank's own generator runs
        // dry for this request.
        while out.len() < r {
            let Some(front) = self.adopted.front_mut() else { break };
            front.next_batch(r - out.len(), out);
            if front.is_exhausted() {
                self.adopted.pop_front();
            } else {
                break;
            }
        }
        tracer.end(TraceCategory::Worker, names::EV_GENERATE);
        !self.gen.is_exhausted() || !self.adopted.is_empty()
    }

    fn adopt_scope(&mut self, tracer: &mut Tracer, dead_rank: usize) {
        tracer.begin_arg(TraceCategory::Fault, names::EV_ADOPT_REBUILD, "dead", dead_rank as u64);
        // Bucket ownership is a pure hash of the bucket key, so this
        // rank can recompute exactly which buckets the dead rank owned
        // and rebuild its GST portion from the shared fragment store,
        // keeping only that rank's suffixes while enumerating.
        // In-bucket suffix order may differ from the redistributed
        // build's, which permutes pair order within the scope — the
        // master's cluster-check absorbs reordering and duplicates, so
        // the final partition is unchanged.
        let builders = self.world - 1;
        let (store, params) = (self.decider.store, self.decider.params);
        let seqs = (0..store.num_seqs() as u32).map(SeqId);
        let mut suffixes: Vec<_> = enumerate_suffixes(store, seqs, params.gst.bucket_len())
            .filter(|(key, _)| bucket_owner(*key, builders, 1) == dead_rank)
            .collect();
        sort_by_bucket(&mut suffixes);
        let gst = Gst::build_from_sorted(store, &suffixes, params.gst);
        self.adopted.push_back(PairGenerator::new(gst, params.mode, pair_skip(params.canonical_strands)));
        tracer.end(TraceCategory::Fault, names::EV_ADOPT_REBUILD);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clustering::cluster_serial;
    use crate::engine::compute_r;
    use pgasm_align::AcceptCriteria;
    use pgasm_gst::GstConfig;
    use pgasm_seq::DnaSeq;

    fn genome(seed: u64, len: usize) -> String {
        let mut x = seed.wrapping_mul(0x9E3779B97F4A7C15) | 1;
        (0..len)
            .map(|_| {
                x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                ['A', 'C', 'G', 'T'][(x >> 33) as usize % 4]
            })
            .collect()
    }

    fn tile(g: &str, read: usize, step: usize) -> Vec<DnaSeq> {
        let b = g.as_bytes();
        let mut out = Vec::new();
        let mut at = 0;
        while at + read <= b.len() {
            out.push(DnaSeq::from_ascii(&b[at..at + read]));
            at += step;
        }
        out
    }

    fn test_store() -> FragmentStore {
        let mut reads = tile(&genome(1, 1500), 200, 90);
        reads.extend(tile(&genome(2, 1200), 200, 90));
        reads.extend(tile(&genome(3, 900), 200, 90));
        // A couple of orphans.
        reads.push(DnaSeq::from(genome(50, 220).as_str()));
        reads.push(DnaSeq::from(genome(51, 220).as_str()));
        FragmentStore::from_seqs(reads)
    }

    fn params() -> ClusterParams {
        ClusterParams {
            gst: GstConfig { psi: 16 },
            criteria: AcceptCriteria { min_identity: 0.9, min_overlap: 30 },
            ..Default::default()
        }
    }

    fn config() -> MasterWorkerConfig {
        MasterWorkerConfig { batch: 8, pending_cap: 256 }
    }

    #[test]
    fn parallel_matches_serial_partition() {
        let store = test_store();
        let (serial, _) = cluster_serial(&store, &params());
        for p in [2usize, 3, 5] {
            let report = cluster_parallel(&store, p, &params(), &config());
            assert_eq!(report.clustering, serial, "p = {p}");
        }
    }

    #[test]
    fn stats_are_consistent() {
        let store = test_store();
        let report = cluster_parallel(&store, 3, &params(), &config());
        let s = report.stats;
        assert!(s.generated > 0);
        assert!(s.aligned <= s.generated);
        assert!(s.accepted <= s.aligned);
        assert!(s.merges <= s.accepted);
        assert!((s.merges as usize) < store.num_fragments());
        // Every fragment appears in exactly one cluster.
        let total: usize = report.clustering.clusters.iter().map(|c| c.len()).sum();
        assert_eq!(total, store.num_fragments());
    }

    #[test]
    fn heuristic_saves_alignments_in_parallel_too() {
        let store = test_store();
        let report = cluster_parallel(&store, 3, &params(), &config());
        assert!(
            report.stats.aligned < report.stats.generated,
            "cluster-check must skip some alignments: {:?}",
            report.stats
        );
    }

    #[test]
    fn report_fields_populated() {
        let store = test_store();
        let report = cluster_parallel(&store, 4, &params(), &config());
        assert_eq!(report.worker_idle_fraction.len(), 3);
        assert_eq!(report.comm.len(), 4);
        assert_eq!(report.gst_reports.len(), 4);
        assert!(report.cluster_seconds > 0.0);
        assert!(report.master_availability >= 0.0 && report.master_availability <= 1.0);
        // Clustering-phase traffic exists in both directions at the master.
        assert!(report.comm[0].msgs_recv > 0);
        assert!(report.comm[0].msgs_sent > 0);
    }

    #[test]
    fn rank_reports_carry_counters_and_comm() {
        let store = test_store();
        let report = cluster_parallel(&store, 3, &params(), &config());
        assert_eq!(report.ranks.len(), 3);
        assert_eq!(report.ranks[0].role, "master");
        assert!(report.ranks[1..].iter().all(|r| r.role == "worker"));
        // The master's selection counters match aggregate stats; workers'
        // per-rank tallies sum to the same totals.
        assert_eq!(report.ranks[0].counter("pairs_generated"), report.stats.generated);
        assert_eq!(report.ranks[0].counter("pairs_aligned"), report.stats.aligned);
        let worker_aligned: u64 = report.ranks[1..].iter().map(|r| r.counter("pairs_aligned")).sum();
        let worker_generated: u64 = report.ranks[1..].iter().map(|r| r.counter("pairs_generated")).sum();
        let worker_accepted: u64 = report.ranks[1..].iter().map(|r| r.counter("pairs_accepted")).sum();
        assert_eq!(worker_aligned, report.stats.aligned);
        assert_eq!(worker_generated, report.stats.generated);
        assert_eq!(worker_accepted, report.stats.accepted);
        // Per-tag comm channels include the relabelled protocol tags
        // and carry modelled time.
        let master = &report.ranks[0];
        assert!(master.comm.iter().any(|t| t.label == "w2m_report" && t.msgs_recv > 0));
        assert!(master.comm.iter().any(|t| t.label == "m2w_grant" && t.msgs_sent > 0));
        for r in &report.ranks[1..] {
            assert!(r.comm.iter().any(|t| t.label == "w2m_report" && t.msgs_sent > 0));
            assert!(r.comm.iter().any(|t| t.label == "m2w_grant" && t.msgs_recv > 0));
        }
        for r in &report.ranks {
            assert!(r.modelled_comm_seconds() > 0.0);
        }
        // Workers report at least one batch round-trip.
        assert!(report.ranks[1..].iter().all(|r| r.counter("batch_round_trips") >= 1));
    }

    #[test]
    fn worker_align_counters_are_consistent_and_allocation_free() {
        let store = test_store();
        let report = cluster_parallel(&store, 3, &params(), &config());
        let s = report.stats;
        assert!(s.dp_cells > 0);
        let cells: u64 = report.ranks[1..].iter().map(|r| r.counter("dp_cells")).sum();
        assert_eq!(cells, s.dp_cells);
        assert_eq!(report.ranks[0].counter("dp_cells"), s.dp_cells);
        for r in &report.ranks[1..] {
            // The zero-allocation invariant: the pre-sized scratch never
            // grew, and its high-water mark is a real (non-zero) figure.
            assert!(r.counter("align_scratch_bytes_peak") > 0);
            assert_eq!(r.counter("align_scratch_grows"), 0, "worker hot loop reallocated: {:?}", r.counters);
        }
    }

    #[test]
    fn backpressure_with_tiny_pending_buffer_terminates() {
        // pending_cap < batch: by_capacity bottoms out at 0 as soon as
        // a couple of pairs queue up. Before the r ≥ 1 clamp the master
        // would grant r = 0 to still-active workers, which then spin in
        // empty report/grant round-trips forever — this config
        // livelocked.
        let store = test_store();
        let (serial, _) = cluster_serial(&store, &params());
        let cfg = MasterWorkerConfig { batch: 8, pending_cap: 2 };
        for p in [2usize, 4] {
            let report = cluster_parallel(&store, p, &params(), &cfg);
            assert_eq!(report.clustering, serial, "p = {p}");
        }
    }

    #[test]
    fn compute_r_is_positive_at_full_buffer() {
        // Buffer at capacity, three active workers: by_capacity = 0,
        // but the grant must still let generators make progress.
        let active = [false, true, true, true];
        assert_eq!(compute_r(8, 2, 2, &active, 1000, 500), 1);
        // And the clamp doesn't disturb the normal regime.
        assert!(compute_r(8, 4096, 0, &active, 1000, 500) > 8);
    }

    #[test]
    fn master_records_inbox_drain_depth() {
        let store = test_store();
        let report = cluster_parallel(&store, 4, &params(), &config());
        // The counter exists; with several workers reporting it is
        // ordinarily ≥ 1 (at least one message handled per wake-up).
        assert!(report.ranks[0].counter("inbox_drain_depth_max") >= 1);
    }

    #[test]
    fn single_fragment_terminates() {
        let store = FragmentStore::from_seqs(vec![DnaSeq::from(genome(9, 300).as_str())]);
        let report = cluster_parallel(&store, 2, &params(), &config());
        assert_eq!(report.clustering.clusters.len(), 1);
        assert_eq!(report.stats.generated, 0);
    }

    #[test]
    #[should_panic(expected = "at least 2")]
    fn requires_two_ranks() {
        let store = FragmentStore::from_seqs(vec![DnaSeq::from("ACGT")]);
        cluster_parallel(&store, 1, &params(), &config());
    }

    use crate::assemble_dist::{assemble_parallel_with, AssignPolicy};
    use crate::checkpoint::StageRecovery;
    use pgasm_mpisim::FaultPlan;
    use pgasm_telemetry::trace::TraceSpec;

    fn run_with(store: &FragmentStore, p: usize, recovery: StageRecovery) -> ParallelClusterReport {
        cluster_parallel_with(store, p, &params(), &config(), &RunOpts { recovery, ..RunOpts::default() })
    }

    #[test]
    fn both_stages_report_the_pinned_names_roles_labels_and_tracks() {
        // `run_stage` folds both stages' rank reports; what each carries
        // is pinned here (fault-free, so no fault, recovery or
        // checkpoint counter may appear at all).
        const COMM: [&str; 2] = ["barrier_ns_total", "wait_ns_total"];
        const ALIGN: [&str; 3] = ["dp_cells", "pairs_accepted", "pairs_aligned"];
        let names = |lists: &[&[&str]]| -> Vec<String> {
            let mut v: Vec<String> = lists.iter().flat_map(|l| l.iter().map(|s| s.to_string())).collect();
            v.sort();
            v
        };
        let cluster_master = names(&[
            &COMM,
            &ALIGN,
            &[
                "batches_dispatched",
                "inbox_drain_depth_max",
                "pairs_generated",
                "pairs_selected",
                "peak_queue_depth",
            ],
        ]);
        let cluster_worker = names(&[
            &COMM,
            &ALIGN,
            &[
                "align_scratch_bytes_peak",
                "align_scratch_grows",
                "batch_round_trips",
                "pairs_generated",
                "simd_lanes",
            ],
        ]);
        let asm_master = names(&[&COMM, &["asm_batches_dispatched", "asm_peak_queue_depth"]]);
        let asm_worker = names(&[
            &COMM,
            &[
                "asm_batch_round_trips",
                "asm_clusters_assembled",
                "asm_contig_bases",
                "asm_cost_units",
                "asm_reads_assembled",
            ],
        ]);

        let (store, p) = (test_store(), 3);
        let opts = RunOpts { trace: TraceSpec::on(), ..RunOpts::default() };
        let c = cluster_parallel_with(&store, p, &params(), &config(), &opts);
        let a = assemble_parallel_with(
            &store,
            None,
            &c.clustering,
            &Default::default(),
            p,
            AssignPolicy::Lpt,
            &opts,
        );
        type Pinned<'a> = (&'a [RankReport], &'a [RankTrace], [&'a Vec<String>; 2], [&'a str; 2]);
        let stages: [Pinned<'_>; 2] = [
            (&c.ranks, &c.traces, [&cluster_master, &cluster_worker], ["w2m_report", "m2w_grant"]),
            (&a.ranks, &a.traces, [&asm_master, &asm_worker], ["asm_w2m_report", "asm_m2w_grant"]),
        ];
        for (ranks, traces, counters, labels) in stages {
            assert_eq!(ranks.len(), p);
            let mut seen = std::collections::BTreeMap::new();
            for (rank, (r, t)) in ranks.iter().zip(traces).enumerate() {
                let role = usize::from(rank != 0);
                // A rank is the same rank, role and track in every stage.
                assert_eq!((r.rank, r.role.as_str()), (rank, ["master", "worker"][role]));
                assert_eq!((t.rank, t.label.as_str()), (rank, ["master", "worker"][role]));
                assert_eq!(&r.counters.keys().cloned().collect::<Vec<_>>(), counters[role], "{}", r.role);
                seen.extend(r.comm.iter().filter(|t| t.tag <= 2).map(|t| (t.tag, t.label.clone())));
            }
            assert_eq!(seen.into_values().collect::<Vec<_>>(), labels);
        }
    }

    #[test]
    fn a_round_is_one_report_up_and_one_grant_down_in_both_stages() {
        // Fault-free at p = 4: a worker sends exactly one message per
        // round, and the master sends one grant per report, one per
        // worker it revives from parking, and one termination each.
        let (store, p) = (test_store(), 4);
        let opts = RunOpts { trace: TraceSpec::on(), ..RunOpts::default() };
        let c = cluster_parallel_with(&store, p, &params(), &config(), &opts);
        let a = assemble_parallel_with(
            &store,
            None,
            &c.clustering,
            &Default::default(),
            p,
            AssignPolicy::Lpt,
            &opts,
        );
        // (sent, received) under a tag label.
        let row = |r: &RankReport, label: &str| {
            r.comm.iter().find(|t| t.label == label).map_or((0, 0), |t| (t.msgs_sent, t.msgs_recv))
        };
        for (ranks, traces, report, grant, round_trips) in [
            (&c.ranks, &c.traces, names::TAG_W2M_REPORT, names::TAG_M2W_GRANT, names::BATCH_ROUND_TRIPS),
            (
                &a.ranks,
                &a.traces,
                names::TAG_ASM_W2M_REPORT,
                names::TAG_ASM_M2W_GRANT,
                names::ASM_BATCH_ROUND_TRIPS,
            ),
        ] {
            let mut reports = 0;
            for w in &ranks[1..] {
                assert!(w.counter(round_trips) >= 1);
                assert_eq!(row(w, report).0, w.counter(round_trips), "{report}: rank {}", w.rank);
                reports += w.counter(round_trips);
            }
            let unparks = traces[0].events.iter().filter(|e| e.name == names::EV_UNPARK).count() as u64;
            assert_eq!(row(&ranks[0], grant).0, reports + unparks + (p as u64 - 1), "{grant}");
            assert_eq!(row(&ranks[0], grant).0, ranks[1..].iter().map(|w| row(w, grant).1).sum::<u64>());
            assert_eq!(row(&ranks[0], report).1, reports, "every report was delivered");
            // Nothing else travels: the only other rows are the GST
            // pre-phase's collectives, and the counter lists pinned
            // above have no wire-level tally in them.
            for r in ranks.iter() {
                let known = [report, grant, "alltoall", "alltoall_p2p"];
                assert!(
                    r.comm.iter().all(|t| known.contains(&t.label.as_str())),
                    "rank {}: {:?}",
                    r.rank,
                    r.comm
                );
            }
        }
    }

    /// The run under `plan`, armed as written (the pipeline's per-stage
    /// narrowing is not in play here).
    fn run_faulty(store: &FragmentStore, p: usize, plan: &str) -> ParallelClusterReport {
        let faults = FaultPlan::parse(plan).unwrap();
        run_with(store, p, StageRecovery { faults, ..StageRecovery::default() })
    }

    #[test]
    fn killed_worker_yields_identical_partition() {
        // Whichever worker is granted lease K dies holding it. Every
        // merge needs its own aligned pair and a lease holds at most
        // `batch` of them, so ⌈merges / batch⌉ leases are issued under
        // any schedule: kill at the first, a middle and the last of
        // those, and require the exact serial partition, one dead rank
        // and that lease's recovery.
        let store = test_store();
        let (serial, serial_stats) = cluster_serial(&store, &params());
        let issued = serial_stats.merges.div_ceil(config().batch as u64);
        assert!(issued >= 3, "the fixture must issue a first, a middle and a last lease");
        // No worker's generator is spent by its opening report, so the
        // victim of lease 1 dies generating and a survivor adopts it.
        let clean = cluster_parallel(&store, 4, &params(), &config());
        assert!(clean.ranks[1..].iter().all(|r| r.counter(names::PAIRS_GENERATED) > config().batch as u64));
        for lease in [1, issued / 2 + 1, issued] {
            let run = run_faulty(&store, 4, &format!("kill:lease={lease}"));
            assert_eq!(run.clustering, serial, "lease {lease}");
            assert_eq!(run.dead_ranks, 1, "lease {lease}");
            assert!(run.recovered_tasks >= 1, "lease {lease}: its holder died before reporting");
            assert!(!run.killed);
            assert_eq!(run.ranks[0].counter(names::DEAD_RANKS), 1);
            let kills: u64 = run.ranks.iter().map(|r| r.counter(names::FAULT_KILLS)).sum();
            assert_eq!(kills, 1, "lease {lease}");
            let adopted: u64 = run.ranks[1..].iter().map(|r| r.counter(names::SCOPES_ADOPTED)).sum();
            assert!(adopted <= 1, "lease {lease}: a dead generator's scope is adopted once");
            if lease == 1 {
                assert_eq!(adopted, 1, "the victim of lease 1 was still generating");
            }
        }
    }

    #[test]
    fn a_kill_past_the_last_lease_is_a_clean_run() {
        let store = test_store();
        let (serial, _) = cluster_serial(&store, &params());
        let run = run_faulty(&store, 4, "kill:lease=1000000; kill:master,lease=1000000");
        assert_eq!(run.clustering, serial);
        assert_eq!((run.dead_ranks, run.recovered_tasks, run.killed), (0, 0, false));
        assert!(run.ranks.iter().all(|r| r.counter(names::FAULT_KILLS) == 0));
    }

    #[test]
    fn master_kill_checkpoint_resume_reproduces_partition() {
        let store = test_store();
        let (serial, serial_stats) = cluster_serial(&store, &params());
        let p = 3;
        assert!(serial_stats.merges.div_ceil(config().batch as u64) >= p as u64, "lease p is always issued");
        let dir = std::env::temp_dir().join(format!("pgasm-mw-ckpt-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("cluster.pgck");
        // The master dies in place of issuing lease p. Every lease
        // answers an absorbed report and the cadence is one, so a
        // snapshot is on disk by then.
        let faulty = StageRecovery {
            faults: FaultPlan::parse(&format!("kill:master,lease={p}")).unwrap(),
            checkpoint_every: Some(1),
            checkpoint_path: Some(path.clone()),
            ..StageRecovery::default()
        };
        let r1 = run_with(&store, p, faulty);
        assert!(r1.killed, "the plan kills the master mid-protocol");
        assert!(path.exists(), "a checkpoint landed before the kill");
        assert!(r1.ranks[0].counter(names::CKPT_WRITES) > 0);
        // Resume from the snapshot, fault-free: identical partition.
        let resume = StageRecovery { resume_from: Some(path.clone()), ..StageRecovery::default() };
        let r2 = run_with(&store, p, resume);
        assert_eq!(r2.clustering, serial);
        assert!(!r2.killed);
        let _ = std::fs::remove_dir_all(&dir);
    }
}

//! The single-master / multiple-worker parallel clustering runtime
//! (paper §7, Figs. 6–8) — the first client of the generic
//! [`crate::engine`] distributed task engine.
//!
//! The protocol itself (the event-driven master pump, AR/NP/R/AW
//! message shapes, `compute_r` flow control, park/unpark, coalescing
//! interaction, termination) lives in [`crate::engine`]; this module
//! supplies what makes it *clustering*:
//!
//! - rank 0's [`ClusterSource`]: the Union–Find cluster store (or the
//!   §10 geometry-aware variant), Union–Find merges applied per drained
//!   `AR` report, and the cluster-check pair selection that discards
//!   generated pairs whose fragments already co-cluster;
//! - ranks 1..p's [`ClusterSink`]: the per-rank GST pair generator
//!   (decreasing maximal-match order, which "roughly approximates the
//!   global sorted order in practice", §7), the banded alignment
//!   kernel with its reusable zero-allocation scratch, and the AR wire
//!   format (per-pair verdicts plus the DP-cell / early-exit / skipped-
//!   traceback work accounting);
//! - the phase orchestration around the engine: distributed GST build,
//!   protocol-message coalescing, per-rank timing/blocked-time capture,
//!   tag relabelling, and the [`RankReport`] channels.
//!
//! The wire format, protocol tags, counters, and trace events are
//! exactly those of the pre-extraction runtime — the re-hosting is
//! behaviour-preserving bit-for-bit.
//!
//! Substitution note (see DESIGN.md): workers read fragment sequences
//! for alignment from the shared read-only store; protocol traffic
//! (pair batches, results, flow control) is what is being modelled and
//! measured here, and fragment-byte movement is accounted once in the
//! GST construction phase.

use crate::checkpoint::{self as ckpt, StageRecovery};
use crate::clustering::{
    canonical_skip, same_fragment_skip, ClusterParams, ClusterStats, Clustering, PairDecider,
};
use crate::engine::{
    run_master, run_master_ckpt, run_worker, CheckpointHook, EngineConfig, MasterReport, Task, TaskSink,
    TaskSource, TAG_M2W_AW, TAG_M2W_R, TAG_W2M_AR, TAG_W2M_NP,
};
use crate::parallel_gst::{bucket_owner, compute_owners, rank_build_gst, RankGstReport};
use crate::unionfind::UnionFind;
use pgasm_align::AlignScratch;
use pgasm_gst::{enumerate_suffixes, sort_by_bucket, GenMode, Gst, GstConfig, PairGenerator, PromisingPair};
use pgasm_mpisim::codec::{checked_len, Decoder, Encoder};
use pgasm_mpisim::{thread_cpu_seconds, CoalescePolicy, Comm, CommStats, CostModel};
use pgasm_seq::{FragmentStore, SeqId};
use pgasm_telemetry::trace::{RankTrace, TraceCategory, TraceSpec, Tracer};
use pgasm_telemetry::{names, GaugeSampler, RankReport, RankSeries};
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, VecDeque};
use std::time::Instant;

/// Master–worker *runtime* configuration: protocol knobs only. What to
/// cluster and how (GST window, scoring, acceptance, mode) lives in
/// [`ClusterParams`], passed alongside — the one place those parameters
/// are defined.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct MasterWorkerConfig {
    /// Alignment batch size `b` (pairs per AW message).
    pub batch: usize,
    /// Capacity of the master's pending-work buffer (flow-control
    /// target; the buffer itself degrades gracefully if exceeded).
    pub pending_cap: usize,
    /// Sender-side small-message coalescing for the protocol traffic:
    /// each rank's per-destination message burst (AR+NP, R+AW) ships as
    /// one framed envelope. `None` puts every logical message on the
    /// wire individually (the ablation baseline).
    pub coalesce: Option<CoalescePolicy>,
}

impl Default for MasterWorkerConfig {
    fn default() -> Self {
        MasterWorkerConfig { batch: 64, pending_cap: 4096, coalesce: Some(CoalescePolicy::default()) }
    }
}

impl MasterWorkerConfig {
    /// The engine-facing subset (coalescing stays with this module,
    /// which owns the `Comm` setup; the stall timeout arrives with the
    /// per-run [`StageRecovery`], not this serialisable config).
    fn engine(&self, stall_timeout: Option<u64>) -> EngineConfig {
        EngineConfig { batch: self.batch, pending_cap: self.pending_cap, stall_timeout }
    }
}

/// Outcome of a parallel clustering run.
#[derive(Debug, Clone, Serialize, Deserialize)]
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
    /// Per-rank event traces covering the whole run (GST + clustering);
    /// empty tracks when tracing was off.
    pub traces: Vec<RankTrace>,
    /// Per-rank gauge time series (queue depths, worker occupancy,
    /// coalesce staging, align scratch); empty when tracing was off.
    pub series: Vec<RankSeries>,
    /// Tasks re-queued from dead workers' leases (0 in fault-free runs).
    #[serde(default)]
    pub recovered_tasks: u64,
    /// Worker ranks the master marked dead during the run.
    #[serde(default)]
    pub dead_ranks: u64,
    /// The fault plan killed the master: the clustering above is
    /// partial and the run should resume from the last checkpoint.
    #[serde(default)]
    pub killed: bool,
}

struct RankOutcome {
    clustering: Option<Clustering>,
    stats: Option<ClusterStats>,
    gst_report: RankGstReport,
    cluster_seconds: f64,
    idle_fraction: f64,
    comm: CommStats,
    cpu_seconds: f64,
    counters: BTreeMap<String, u64>,
    rank_report: RankReport,
    trace: RankTrace,
    series: RankSeries,
    recovered_tasks: u64,
    dead_ranks: u64,
    killed: bool,
}

/// A promising pair travels as five `u32`s (the engine's default
/// 20-byte size hint is exact).
impl Task for PromisingPair {
    fn encode(&self, e: &mut Encoder) {
        e.put_u32(self.a.0);
        e.put_u32(self.b.0);
        e.put_u32(self.a_pos);
        e.put_u32(self.b_pos);
        e.put_u32(self.match_len);
    }

    fn decode(d: &mut Decoder) -> PromisingPair {
        PromisingPair {
            a: SeqId(d.get_u32()),
            b: SeqId(d.get_u32()),
            a_pos: d.get_u32(),
            b_pos: d.get_u32(),
            match_len: d.get_u32(),
        }
    }
}

/// Run the master–worker clustering on `p ≥ 2` ranks. `params` says
/// what to cluster and how; `config` tunes the runtime protocol.
pub fn cluster_parallel(
    store: &FragmentStore,
    p: usize,
    params: &ClusterParams,
    config: &MasterWorkerConfig,
) -> ParallelClusterReport {
    cluster_parallel_traced(store, p, params, config, TraceSpec::off())
}

/// [`cluster_parallel`] with per-rank event tracing. The [`TraceSpec`]
/// is a separate argument (not a `MasterWorkerConfig` field) because it
/// carries the run's shared clock epoch, which has no serial form.
pub fn cluster_parallel_traced(
    store: &FragmentStore,
    p: usize,
    params: &ClusterParams,
    config: &MasterWorkerConfig,
    trace: TraceSpec,
) -> ParallelClusterReport {
    cluster_parallel_ft(store, p, params, config, trace, &StageRecovery::default())
}

/// [`cluster_parallel_traced`] under a [`StageRecovery`]: scripted
/// fault injection, master liveness timeout, and checkpoint/resume.
/// The default recovery makes this byte-identical to the plain run —
/// the comm layer is not even armed.
pub fn cluster_parallel_ft(
    store: &FragmentStore,
    p: usize,
    params: &ClusterParams,
    config: &MasterWorkerConfig,
    trace: TraceSpec,
    recovery: &StageRecovery,
) -> ParallelClusterReport {
    assert!(p >= 2, "master–worker needs at least 2 ranks");
    assert!(!store.is_double_stranded(), "pass the original single-stranded fragments");
    let n = store.num_fragments();
    let ds = store.with_reverse_complements();
    let owner = compute_owners(&ds, p, 1);
    let (ds, owner, params, config) = (&ds, &owner, *params, *config);

    let outcomes: Vec<RankOutcome> = pgasm_mpisim::run(p, move |comm| {
        // Tracing covers the whole rank body — GST collectives and the
        // clustering protocol land on one per-rank track.
        let role = if comm.rank() == 0 { "master" } else { "worker" };
        comm.set_tracer(trace.tracer(comm.rank(), role));
        comm.set_sampler(trace.sampler(comm.rank(), role));
        // Arm scripted failures before any traffic. Kills only trip in
        // the engine's fault-aware ops, so the GST collectives below
        // stay plain and a scripted kill lands inside the protocol
        // phase — after the last barrier any rank will ever pass.
        if !recovery.faults.is_empty() {
            comm.set_fault_plan(&recovery.faults);
        }
        // Phase 1: distributed GST over worker ranks.
        let gst_t0 = Instant::now();
        let (gst, _text, gst_report) = rank_build_gst(comm, ds, owner, params.gst, 1);
        comm.barrier();
        let gst_wall = gst_t0.elapsed().as_secs_f64();
        let mut gst_report = gst_report;
        gst_report.compute_seconds = gst_report.compute_seconds.min(gst_wall);

        // Phase 2: clustering, with protocol-message coalescing on
        // every rank (the GST collectives above bypass the queues).
        comm.set_coalesce(config.coalesce);
        let before = comm.stats();
        let cpu0 = thread_cpu_seconds();
        let t0 = Instant::now();
        let mut outcome = if comm.rank() == 0 {
            drop(gst);
            master_loop(comm, ds, n, &params, &config, recovery)
        } else {
            worker_loop(comm, ds, gst, &params, &config, recovery)
        };
        let wall = t0.elapsed().as_secs_f64();
        let cpu = thread_cpu_seconds() - cpu0;
        let after = comm.stats();
        let blocked =
            ((after.wait_ns + after.barrier_ns) - (before.wait_ns + before.barrier_ns)) as f64 * 1e-9;
        outcome.gst_report = gst_report;
        outcome.cluster_seconds = wall;
        outcome.cpu_seconds = cpu;
        outcome.idle_fraction = if wall > 0.0 { (blocked / wall).min(1.0) } else { 0.0 };
        outcome.comm = CommStats {
            msgs_sent: after.msgs_sent - before.msgs_sent,
            bytes_sent: after.bytes_sent - before.bytes_sent,
            msgs_recv: after.msgs_recv - before.msgs_recv,
            bytes_recv: after.bytes_recv - before.bytes_recv,
            wait_ns: after.wait_ns - before.wait_ns,
            barrier_ns: after.barrier_ns - before.barrier_ns,
        };
        // Fold this rank's channel for the RunReport: per-tag traffic
        // (the whole run, GST collectives included) with protocol tags
        // relabelled, plus the loop's own counters. Coalesced protocol
        // envelopes appear under the `"coalesced"` row.
        let mut comm_rows = comm.tag_stats(&CostModel::BLUEGENE_L);
        for row in &mut comm_rows {
            row.label = match row.tag {
                TAG_W2M_AR => names::TAG_W2M_AR.to_string(),
                TAG_W2M_NP => names::TAG_W2M_NP.to_string(),
                TAG_M2W_R => names::TAG_M2W_R.to_string(),
                TAG_M2W_AW => names::TAG_M2W_AW.to_string(),
                _ => std::mem::take(&mut row.label),
            };
        }
        // Coalescing-layer counters join the loop's own tallies, plus
        // the whole-run blocked-time totals (GST phase included) that
        // the trace-derived idle-gap histograms are checked against.
        let cs = comm.coalesce_stats();
        for (name, value) in [
            (names::MSGS_COALESCED, cs.msgs_coalesced),
            (names::ENVELOPES_SENT, cs.envelopes_sent),
            (names::FLUSH_BY_BYTES, cs.flush_bytes),
            (names::FLUSH_BY_MSGS, cs.flush_msgs),
            (names::FLUSH_ON_BLOCK, cs.flush_block),
            (names::FLUSH_EXPLICIT, cs.flush_explicit),
            (names::WAIT_NS_TOTAL, after.wait_ns),
            (names::BARRIER_NS_TOTAL, after.barrier_ns),
        ] {
            outcome.counters.insert(name.to_string(), value);
        }
        // Injected-fault tallies: only under an armed plan, and only the
        // nonzero ones — fault-free runs keep byte-identical reports.
        if comm.has_fault_plan() {
            let fs = comm.fault_stats();
            for (name, value) in [
                (names::FAULT_KILLS, fs.kills),
                (names::FAULT_MSGS_DROPPED, fs.msgs_dropped),
                (names::FAULT_MSGS_DELAYED, fs.msgs_delayed),
                (names::FAULT_DEATH_NOTICES, fs.death_notices),
                (names::FAULT_MSGS_LOST, fs.msgs_lost),
                (names::FAULT_EVENTS, fs.events),
            ] {
                if value > 0 {
                    outcome.counters.insert(name.to_string(), value);
                }
            }
        }
        outcome.rank_report = RankReport {
            rank: comm.rank(),
            role: role.to_string(),
            cpu_seconds: cpu,
            idle_seconds: blocked,
            counters: std::mem::take(&mut outcome.counters),
            comm: comm_rows,
            idle_gaps: None,
        };
        outcome.trace = comm.take_trace();
        outcome.series = comm.take_series();
        outcome
    });

    let master = &outcomes[0];
    ParallelClusterReport {
        clustering: master.clustering.clone().expect("master produced the clustering"),
        stats: master.stats.expect("master aggregated stats"),
        gst_seconds: outcomes.iter().map(|o| o.gst_report.compute_seconds).fold(0.0, f64::max),
        cluster_seconds: outcomes.iter().map(|o| o.cluster_seconds).fold(0.0, f64::max),
        worker_idle_fraction: outcomes[1..].iter().map(|o| o.idle_fraction).collect(),
        master_availability: master.idle_fraction,
        comm: outcomes.iter().map(|o| o.comm).collect(),
        cpu_seconds: outcomes.iter().map(|o| o.cpu_seconds).collect(),
        ranks: outcomes.iter().map(|o| o.rank_report.clone()).collect(),
        traces: outcomes.iter().map(|o| o.trace.clone()).collect(),
        series: outcomes.iter().map(|o| o.series.clone()).collect(),
        recovered_tasks: master.recovered_tasks,
        dead_ranks: master.dead_ranks,
        killed: master.killed,
        gst_reports: outcomes.into_iter().map(|o| o.gst_report).collect(),
    }
}

/// Master-side clustering client: owns the cluster store and the work
/// statistics, applies Union–Find merges (AR) the moment reports drain,
/// and selects only pairs whose fragments are in different clusters
/// *right now* (NP) — the two halves of Fig. 7 the engine delegates.
struct ClusterSource<'a> {
    ds: &'a FragmentStore,
    clusters: MasterClusters,
    stats: ClusterStats,
}

impl TaskSource<PromisingPair> for ClusterSource<'_> {
    fn absorb_results(&mut self, _src: usize, d: &mut Decoder) {
        // Alignment results: merge clusters for accepted overlaps.
        let ar_count = d.get_u32();
        for _ in 0..ar_count {
            let a = SeqId(d.get_u32());
            let bq = SeqId(d.get_u32());
            let accepted = d.get_u32() == 1;
            let a_start = d.get_u32();
            let b_start = d.get_u32();
            let overlap_len = d.get_u32();
            self.stats.aligned += 1;
            if accepted {
                self.stats.accepted += 1;
                self.clusters.record_accept(self.ds, a, bq, a_start, b_start, overlap_len, &mut self.stats);
            }
        }
        // Trailing work accounting: DP cells plus the early-exit /
        // skipped-traceback / adaptive-band tallies.
        self.stats.dp_cells += d.get_u64();
        self.stats.early_exits += d.get_u64();
        self.stats.tracebacks_skipped += d.get_u64();
        self.stats.cells_saved_adaptive += d.get_u64();
        self.stats.band_rows_shrunk += d.get_u64();
    }

    fn select(&mut self, pair: &PromisingPair) -> bool {
        let fa = self.ds.seq_to_fragment(pair.a).0 .0;
        let fb = self.ds.seq_to_fragment(pair.b).0 .0;
        !self.clusters.skip_pair(fa, fb)
    }
}

impl ClusterSource<'_> {
    /// Serialize the master's durable state: the work statistics and
    /// the cluster store (Union–Find roots, or the buffered geometric
    /// edges). Engine counters ride along for forensics. Workers hold
    /// nothing durable — on resume they regenerate their pairs and the
    /// restored cluster-check discards what is already merged — so this
    /// is the complete resume state of the clustering stage.
    fn snapshot(&mut self, rep: &MasterReport) -> Vec<u8> {
        let mut e = Encoder::new();
        e.put_u64(rep.tasks_announced)
            .put_u64(rep.tasks_selected)
            .put_u64(rep.recovered_tasks)
            .put_u64(rep.results_absorbed);
        for v in [
            self.stats.generated,
            self.stats.aligned,
            self.stats.accepted,
            self.stats.merges,
            self.stats.dp_cells,
            self.stats.early_exits,
            self.stats.tracebacks_skipped,
            self.stats.inconsistent,
            self.stats.cells_saved_adaptive,
            self.stats.band_rows_shrunk,
        ] {
            e.put_u64(v);
        }
        match &mut self.clusters {
            MasterClusters::Plain(uf) => {
                let n = uf.len();
                e.put_u32(0).put_u32(checked_len(n));
                for i in 0..n as u32 {
                    e.put_u32(uf.find(i));
                }
            }
            MasterClusters::Geometric { n, edges, tol } => {
                e.put_u32(1).put_u32(checked_len(*n)).put_u64(*tol as u64);
                e.put_u32(checked_len(edges.len()));
                for (fa, fb, map, overlap_len) in edges.iter() {
                    e.put_u32(*fa).put_u32(*fb);
                    e.put_u64(map.s as i64 as u64).put_u64(map.t as u64);
                    e.put_u32(*overlap_len);
                }
            }
        }
        e.finish().to_vec()
    }

    /// Restore the state [`Self::snapshot`] captured. The checkpoint's
    /// stage tag and checksum were already verified by the loader.
    fn restore(&mut self, payload: &[u8]) {
        let mut d = Decoder::new(payload.to_vec().into());
        // Engine counters are diagnostic only; the resumed run tallies
        // its own protocol work.
        for _ in 0..4 {
            d.get_u64();
        }
        self.stats.generated = d.get_u64();
        self.stats.aligned = d.get_u64();
        self.stats.accepted = d.get_u64();
        self.stats.merges = d.get_u64();
        self.stats.dp_cells = d.get_u64();
        self.stats.early_exits = d.get_u64();
        self.stats.tracebacks_skipped = d.get_u64();
        self.stats.inconsistent = d.get_u64();
        self.stats.cells_saved_adaptive = d.get_u64();
        self.stats.band_rows_shrunk = d.get_u64();
        match d.get_u32() {
            0 => {
                let n = d.get_u32() as usize;
                let mut uf = UnionFind::new(n);
                for i in 0..n as u32 {
                    uf.union(i, d.get_u32());
                }
                self.clusters = MasterClusters::Plain(uf);
            }
            _ => {
                let n = d.get_u32() as usize;
                let tol = d.get_u64() as i64;
                let count = d.get_u32();
                let mut edges = Vec::with_capacity(count as usize);
                for _ in 0..count {
                    let (fa, fb) = (d.get_u32(), d.get_u32());
                    let s = d.get_u64() as i64 as i8;
                    let t = d.get_u64() as i64;
                    let overlap_len = d.get_u32();
                    edges.push((fa, fb, crate::geometry::AffineMap { s, t }, overlap_len));
                }
                self.clusters = MasterClusters::Geometric { n, edges, tol };
            }
        }
    }
}

/// The master's side of the run: host the engine's event loop with a
/// [`ClusterSource`], then fold protocol tallies and cluster statistics
/// into the rank counters.
fn master_loop(
    comm: &mut Comm,
    ds: &FragmentStore,
    n: usize,
    params: &ClusterParams,
    config: &MasterWorkerConfig,
    recovery: &StageRecovery,
) -> RankOutcome {
    let mut source =
        ClusterSource { ds, clusters: MasterClusters::new(n, params), stats: ClusterStats::default() };
    let resumed = match &recovery.resume_from {
        Some(path) => match ckpt::read_checkpoint(path, ckpt::STAGE_CLUSTER) {
            Some(payload) => {
                source.restore(&payload);
                true
            }
            None => false,
        },
        None => false,
    };
    let engine_cfg = config.engine(recovery.stall_timeout);
    let em = match recovery.ckpt_spec() {
        Some((path, every)) => {
            let mut write = |src: &mut ClusterSource, rep: &MasterReport| {
                let payload = src.snapshot(rep);
                ckpt::write_checkpoint(path, ckpt::STAGE_CLUSTER, &payload).unwrap_or(0)
            };
            run_master_ckpt(
                comm,
                &engine_cfg,
                &mut source,
                Vec::new(),
                Some(CheckpointHook { write: &mut write, every }),
            )
        }
        None => run_master(comm, &engine_cfg, &mut source, Vec::new()),
    };
    let ClusterSource { clusters, mut stats, .. } = source;
    // The engine counts announced tasks; for clustering that *is* the
    // generated-pairs total (every NP pair is announced exactly once).
    // A resumed run keeps the snapshot's tally and adds its own.
    if resumed {
        stats.generated += em.tasks_announced;
    } else {
        stats.generated = em.tasks_announced;
    }
    let counters = BTreeMap::from([
        (names::PAIRS_GENERATED.to_string(), stats.generated),
        (names::PAIRS_ALIGNED.to_string(), stats.aligned),
        (names::PAIRS_ACCEPTED.to_string(), stats.accepted),
        (names::PAIRS_SELECTED.to_string(), em.tasks_selected),
        (names::PEAK_QUEUE_DEPTH.to_string(), em.peak_queue_depth),
        (names::BATCHES_DISPATCHED.to_string(), em.batches_dispatched),
        (names::INBOX_DRAIN_DEPTH_MAX.to_string(), em.inbox_drain_depth_max),
        (names::DP_CELLS.to_string(), stats.dp_cells),
        (names::ALIGN_EARLY_EXIT.to_string(), stats.early_exits),
        (names::ALIGN_TRACEBACK_SKIPPED.to_string(), stats.tracebacks_skipped),
        (names::ALIGN_CELLS_SAVED_ADAPTIVE.to_string(), stats.cells_saved_adaptive),
        (names::ALIGN_BAND_ROWS_SHRUNK.to_string(), stats.band_rows_shrunk),
    ]);
    let mut counters = counters;
    // Recovery tallies: only when something actually happened, so the
    // fault-free counter set stays byte-identical.
    for (name, value) in [
        (names::RECOVERED_TASKS, em.recovered_tasks),
        (names::DEAD_RANKS, em.dead_ranks),
        (names::CKPT_WRITES, em.ckpt_writes),
        (names::CKPT_BYTES, em.ckpt_bytes),
    ] {
        if value > 0 {
            counters.insert(name.to_string(), value);
        }
    }
    RankOutcome {
        clustering: Some(clusters.finish(&mut stats)),
        stats: Some(stats),
        gst_report: RankGstReport::default(),
        cluster_seconds: 0.0,
        idle_fraction: 0.0,
        comm: CommStats::default(),
        cpu_seconds: 0.0,
        counters,
        rank_report: RankReport::default(),
        trace: RankTrace::default(),
        series: RankSeries::default(),
        recovered_tasks: em.recovered_tasks,
        dead_ranks: em.dead_ranks,
        killed: em.killed,
    }
}

/// A pair generator rebuilt for an adopted scope — the dedup closure
/// has to be boxed because each rebuilt generator captures its own.
type AdoptedGenerator = PairGenerator<Box<dyn FnMut(SeqId, SeqId) -> bool>>;

/// Worker-side clustering client: computes allocated alignment batches
/// with the banded kernel (reusing one pre-sized scratch — the
/// alignment hot loop performs no per-pair heap allocation) and
/// generates pairs from the rank-local GST on request.
struct ClusterSink<'a, F: FnMut(SeqId, SeqId) -> bool> {
    gen: PairGenerator<F>,
    decider: PairDecider<'a>,
    scratch: AlignScratch,
    // Adoption state: the double-stranded store and enough of the run's
    // shape to rebuild a dead peer's GST portion on demand, plus the
    // chain of generators rebuilt so far (drained FIFO after `gen`).
    store: &'a FragmentStore,
    world: usize,
    gst_config: GstConfig,
    mode: GenMode,
    canonical: bool,
    adopted: VecDeque<AdoptedGenerator>,
    results: Vec<(PromisingPair, bool, u32, u32, u32)>,
    // Per-round work-accounting deltas (reset after each AR report)...
    cells_delta: u64,
    early_delta: u64,
    skip_delta: u64,
    saved_delta: u64,
    shrunk_delta: u64,
    // ...and whole-run totals for the rank counters.
    dp_cells: u64,
    early_exits: u64,
    tracebacks_skipped: u64,
    cells_saved: u64,
    rows_shrunk: u64,
    pairs_aligned: u64,
    pairs_accepted: u64,
}

impl<F: FnMut(SeqId, SeqId) -> bool> TaskSink<PromisingPair> for ClusterSink<'_, F> {
    fn run_batch(&mut self, tracer: &mut Tracer, batch: &mut Vec<PromisingPair>, e: &mut Encoder) {
        // Compute the alignments allocated last round.
        let had_aw = !batch.is_empty();
        if had_aw {
            tracer.begin_arg(TraceCategory::Align, names::EV_ALIGN_BATCH, "pairs", batch.len() as u64);
        }
        for pair in batch.drain(..) {
            let r = self.decider.align_full(&pair, &mut self.scratch);
            self.cells_delta += r.cells;
            self.early_delta += r.early_exited as u64;
            self.skip_delta += r.traceback_skipped as u64;
            self.saved_delta += r.cells_saved_adaptive;
            self.shrunk_delta += r.band_rows_shrunk;
            let accepted = self.decider.params.criteria.accepts(r.identity, r.overlap_len);
            self.pairs_aligned += 1;
            self.pairs_accepted += accepted as u64;
            self.results.push((pair, accepted, r.a_range.0 as u32, r.b_range.0 as u32, r.overlap_len as u32));
        }
        if had_aw {
            tracer.end(TraceCategory::Align, names::EV_ALIGN_BATCH);
            tracer.instant_args(
                TraceCategory::Align,
                names::EV_ALIGN_CELLS,
                ("cells", self.cells_delta),
                ("saved", self.saved_delta),
            );
        }
        // The AR report: per-pair verdicts, then the round's DP-cell /
        // early-exit / skipped-traceback deltas.
        e.put_u32(checked_len(self.results.len()));
        for (pair, accepted, a_start, b_start, overlap_len) in self.results.drain(..) {
            e.put_u32(pair.a.0);
            e.put_u32(pair.b.0);
            e.put_u32(accepted as u32);
            e.put_u32(a_start);
            e.put_u32(b_start);
            e.put_u32(overlap_len);
        }
        e.put_u64(self.cells_delta);
        e.put_u64(self.early_delta);
        e.put_u64(self.skip_delta);
        e.put_u64(self.saved_delta);
        e.put_u64(self.shrunk_delta);
        self.dp_cells += self.cells_delta;
        self.early_exits += self.early_delta;
        self.tracebacks_skipped += self.skip_delta;
        self.cells_saved += self.saved_delta;
        self.rows_shrunk += self.shrunk_delta;
        (self.cells_delta, self.early_delta, self.skip_delta) = (0, 0, 0);
        (self.saved_delta, self.shrunk_delta) = (0, 0);
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
        let seqs = (0..self.store.num_seqs() as u32).map(SeqId);
        let mut suffixes: Vec<_> = enumerate_suffixes(self.store, seqs, self.gst_config.bucket_len())
            .filter(|(key, _)| bucket_owner(*key, builders, 1) == dead_rank)
            .collect();
        sort_by_bucket(&mut suffixes);
        let gst = Gst::build_from_sorted(self.store, &suffixes, self.gst_config);
        let canonical = self.canonical;
        let skip: Box<dyn FnMut(SeqId, SeqId) -> bool> =
            Box::new(move |a, b| same_fragment_skip(a, b) || (canonical && canonical_skip(a, b)));
        self.adopted.push_back(PairGenerator::new(gst, self.mode, skip));
        tracer.end(TraceCategory::Fault, names::EV_ADOPT_REBUILD);
    }

    fn sample_gauges(&mut self, sampler: &mut GaugeSampler) {
        if sampler.is_enabled() {
            let id = sampler.register(names::GAUGE_ALIGN_SCRATCH_BYTES);
            sampler.sample(id, self.scratch.high_water_bytes());
        }
    }
}

/// A worker's side of the run: host the engine's event loop with a
/// [`ClusterSink`] over the rank-local GST.
fn worker_loop(
    comm: &mut Comm,
    ds: &FragmentStore,
    gst: pgasm_gst::Gst,
    params: &ClusterParams,
    config: &MasterWorkerConfig,
    recovery: &StageRecovery,
) -> RankOutcome {
    let params = *params;
    let canonical = params.canonical_strands;
    let gen = PairGenerator::new(gst, params.mode, move |a, b| {
        same_fragment_skip(a, b) || (canonical && canonical_skip(a, b))
    });
    let decider = PairDecider { store: ds, params };
    // One scratch per worker, pre-sized for the longest sequence in the
    // store: reused across every AW batch, so the alignment hot loop
    // performs no per-pair heap allocation (grow_events stays 0).
    let scratch = decider.new_scratch();
    let mut sink = ClusterSink {
        gen,
        decider,
        scratch,
        store: ds,
        world: comm.size(),
        gst_config: params.gst,
        mode: params.mode,
        canonical,
        adopted: VecDeque::new(),
        results: Vec::new(),
        cells_delta: 0,
        early_delta: 0,
        skip_delta: 0,
        saved_delta: 0,
        shrunk_delta: 0,
        dp_cells: 0,
        early_exits: 0,
        tracebacks_skipped: 0,
        cells_saved: 0,
        rows_shrunk: 0,
        pairs_aligned: 0,
        pairs_accepted: 0,
    };
    let ew = run_worker(comm, &config.engine(recovery.stall_timeout), &mut sink);
    let mut counters = BTreeMap::from([
        (names::PAIRS_GENERATED.to_string(), ew.tasks_generated),
        (names::PAIRS_ALIGNED.to_string(), sink.pairs_aligned),
        (names::PAIRS_ACCEPTED.to_string(), sink.pairs_accepted),
        (names::BATCH_ROUND_TRIPS.to_string(), ew.round_trips),
        (names::DP_CELLS.to_string(), sink.dp_cells),
        (names::ALIGN_EARLY_EXIT.to_string(), sink.early_exits),
        (names::ALIGN_TRACEBACK_SKIPPED.to_string(), sink.tracebacks_skipped),
        (names::ALIGN_CELLS_SAVED_ADAPTIVE.to_string(), sink.cells_saved),
        (names::ALIGN_BAND_ROWS_SHRUNK.to_string(), sink.rows_shrunk),
        (names::SIMD_LANES.to_string(), pgasm_align::simd::effective_lanes()),
        (names::ALIGN_SCRATCH_BYTES_PEAK.to_string(), sink.scratch.high_water_bytes()),
        (names::ALIGN_SCRATCH_GROWS.to_string(), sink.scratch.grow_events()),
    ]);
    if ew.scopes_adopted > 0 {
        counters.insert(names::SCOPES_ADOPTED.to_string(), ew.scopes_adopted);
    }
    let mut outcome = worker_outcome(counters);
    outcome.killed = ew.killed;
    outcome
}

/// The master's cluster store: plain Union–Find, or the §10
/// geometry-aware variant when `resolve_inconsistent` is on. In
/// geometric mode every generated pair is selected for alignment (the
/// cluster-check shortcut would hide the same-cluster conflicts the
/// mode exists to catch), accepted edges are buffered, and the
/// deterministic decreasing-overlap-length resolution runs at the end —
/// so the parallel result still equals the serial one.
enum MasterClusters {
    Plain(UnionFind),
    Geometric { n: usize, edges: Vec<(u32, u32, crate::geometry::AffineMap, u32)>, tol: i64 },
}

impl MasterClusters {
    fn new(n: usize, params: &ClusterParams) -> MasterClusters {
        if params.resolve_inconsistent {
            MasterClusters::Geometric { n, edges: Vec::new(), tol: params.geometry_tolerance }
        } else {
            MasterClusters::Plain(UnionFind::new(n))
        }
    }

    /// Should a generated pair be skipped (already co-clustered)?
    fn skip_pair(&mut self, a: u32, b: u32) -> bool {
        match self {
            MasterClusters::Plain(uf) => uf.same(a, b),
            // Geometric mode aligns everything.
            MasterClusters::Geometric { .. } => false,
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn record_accept(
        &mut self,
        ds: &FragmentStore,
        a: SeqId,
        b: SeqId,
        a_start: u32,
        b_start: u32,
        overlap_len: u32,
        stats: &mut ClusterStats,
    ) {
        let fa = ds.seq_to_fragment(a).0 .0;
        let fb = ds.seq_to_fragment(b).0 .0;
        match self {
            MasterClusters::Plain(uf) => {
                if uf.union(fa, fb) {
                    stats.merges += 1;
                }
            }
            MasterClusters::Geometric { edges, .. } => {
                let edge = crate::geometry::overlap_edge(
                    matches!(ds.seq_to_fragment(a).1, pgasm_seq::Strand::Reverse),
                    matches!(ds.seq_to_fragment(b).1, pgasm_seq::Strand::Reverse),
                    ds.len_of(a),
                    ds.len_of(b),
                    a_start as usize,
                    b_start as usize,
                );
                edges.push((fa, fb, edge, overlap_len));
            }
        }
    }

    fn finish(self, stats: &mut ClusterStats) -> Clustering {
        match self {
            MasterClusters::Plain(mut uf) => Clustering::from_unionfind(&mut uf),
            MasterClusters::Geometric { n, edges, tol } => {
                crate::clustering::apply_geometric_edges(n, edges, tol, stats)
            }
        }
    }
}

fn worker_outcome(counters: BTreeMap<String, u64>) -> RankOutcome {
    RankOutcome {
        clustering: None,
        stats: None,
        gst_report: RankGstReport::default(),
        cluster_seconds: 0.0,
        idle_fraction: 0.0,
        comm: CommStats::default(),
        cpu_seconds: 0.0,
        counters,
        rank_report: RankReport::default(),
        trace: RankTrace::default(),
        series: RankSeries::default(),
        recovered_tasks: 0,
        dead_ranks: 0,
        killed: false,
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
        MasterWorkerConfig { batch: 8, pending_cap: 256, coalesce: Some(CoalescePolicy::default()) }
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
        // and carry modelled time. With coalescing on, protocol
        // messages travel *inside* envelopes, so senders show a
        // "coalesced" row while receivers still see the split
        // constituents.
        let master = &report.ranks[0];
        assert!(master.comm.iter().any(|t| t.label == "w2m_ar" && t.msgs_recv > 0));
        assert!(master.comm.iter().any(|t| t.label == "w2m_np" && t.msgs_recv > 0));
        for r in &report.ranks[1..] {
            assert!(r.comm.iter().any(|t| t.label == "m2w_r" && t.msgs_recv > 0));
            assert!(r.comm.iter().any(|t| t.label == "m2w_aw" && t.msgs_recv > 0));
            assert!(r.comm.iter().any(|t| t.label == "coalesced" && t.msgs_sent > 0));
            assert!(r.counter("msgs_coalesced") > 0);
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
        let skips: u64 = report.ranks[1..].iter().map(|r| r.counter("align_traceback_skipped")).sum();
        assert_eq!(cells, s.dp_cells);
        assert_eq!(skips, s.tracebacks_skipped);
        let saved: u64 = report.ranks[1..].iter().map(|r| r.counter("align_cells_saved_adaptive")).sum();
        let shrunk: u64 = report.ranks[1..].iter().map(|r| r.counter("align_band_rows_shrunk")).sum();
        assert_eq!(saved, s.cells_saved_adaptive);
        assert_eq!(shrunk, s.band_rows_shrunk);
        assert_eq!(report.ranks[0].counter("dp_cells"), s.dp_cells);
        for r in &report.ranks[1..] {
            // The zero-allocation invariant: the pre-sized scratch never
            // grew, and its high-water mark is a real (non-zero) figure.
            assert!(r.counter("align_scratch_bytes_peak") > 0);
            assert_eq!(r.counter("align_scratch_grows"), 0, "worker hot loop reallocated: {:?}", r.counters);
        }
    }

    #[test]
    fn coalescing_off_matches_on() {
        let store = test_store();
        let plain = MasterWorkerConfig { coalesce: None, ..config() };
        for p in [2usize, 3, 5] {
            let on = cluster_parallel(&store, p, &params(), &config());
            let off = cluster_parallel(&store, p, &params(), &plain);
            assert_eq!(on.clustering, off.clustering, "p = {p}");
            assert_eq!(on.stats.accepted, off.stats.accepted, "p = {p}");
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
        let cfg = MasterWorkerConfig { batch: 8, pending_cap: 2, ..config() };
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
    fn geometric_mode_parallel_matches_serial() {
        let store = test_store();
        let params = ClusterParams { resolve_inconsistent: true, ..params() };
        let (serial, serial_stats) = cluster_serial(&store, &params);
        for p in [2usize, 4] {
            let report = cluster_parallel(&store, p, &params, &config());
            assert_eq!(report.clustering, serial, "p = {p}");
            assert_eq!(report.stats.aligned, serial_stats.aligned, "geometric mode aligns everything");
            assert_eq!(report.stats.inconsistent, serial_stats.inconsistent);
        }
    }

    #[test]
    #[should_panic(expected = "at least 2")]
    fn requires_two_ranks() {
        let store = FragmentStore::from_seqs(vec![DnaSeq::from("ACGT")]);
        cluster_parallel(&store, 1, &params(), &config());
    }

    use pgasm_mpisim::{FaultPlan, FaultStage, KillTarget};

    /// Measure each rank's fault-clock depth with an armed plan that
    /// never fires, so kill events can be aimed mid-protocol instead of
    /// guessed. (Arrival order varies run to run, but the midpoint of a
    /// measured depth is comfortably inside every run.)
    fn probe_events(store: &FragmentStore, p: usize) -> Vec<u64> {
        let armed = StageRecovery {
            faults: FaultPlan::default().with_kill(KillTarget::Rank(0), u64::MAX, FaultStage::Any),
            ..StageRecovery::default()
        };
        let report = cluster_parallel_ft(store, p, &params(), &config(), TraceSpec::off(), &armed);
        report.ranks.iter().map(|r| r.counter(names::FAULT_EVENTS)).collect()
    }

    /// The worker round is four fault-aware calls (send AR, send NP,
    /// recv R, recv AW); events ≡ 1 (mod 4) land at the entry of an AR
    /// send, when the rank holds an unacknowledged lease.
    fn ar_send_event_near(mid: u64) -> u64 {
        (mid.saturating_sub(mid % 4) + 1).max(5)
    }

    #[test]
    fn default_recovery_matches_plain_run() {
        // The fault-tolerance entry point under a passive recovery must
        // not perturb the run: same partition, no fault bookkeeping
        // anywhere in the report. (Counter *values* are timing-dependent
        // run to run, so the zero-drift claim is about which counters
        // exist, checked here, plus the deterministic partition.)
        let store = test_store();
        let plain = cluster_parallel(&store, 3, &params(), &config());
        let ft =
            cluster_parallel_ft(&store, 3, &params(), &config(), TraceSpec::off(), &StageRecovery::default());
        assert_eq!(ft.clustering, plain.clustering);
        assert_eq!(ft.recovered_tasks, 0);
        assert_eq!(ft.dead_ranks, 0);
        assert!(!ft.killed);
        for r in &ft.ranks {
            let stray: Vec<_> = r
                .counters
                .keys()
                .filter(|k| {
                    k.starts_with("fault_")
                        || k.as_str() == names::RECOVERED_TASKS
                        || k.as_str() == names::DEAD_RANKS
                        || k.as_str() == names::SCOPES_ADOPTED
                        || k.as_str() == names::CKPT_WRITES
                        || k.as_str() == names::CKPT_BYTES
                })
                .collect();
            assert!(stray.is_empty(), "rank {}: fault counters in a fault-free run: {stray:?}", r.rank);
        }
    }

    #[test]
    fn killed_worker_yields_identical_partition() {
        // Kill each worker in turn mid-protocol while it holds a lease
        // and require the exact serial partition plus a lease recovery
        // and a scope adoption.
        let store = test_store();
        let (serial, _) = cluster_serial(&store, &params());
        let depths = probe_events(&store, 4);
        for (victim, &depth) in depths.iter().enumerate().skip(1) {
            let at = ar_send_event_near(depth / 2);
            let recovery = StageRecovery {
                faults: FaultPlan::default().with_kill(KillTarget::Rank(victim), at, FaultStage::Any),
                ..StageRecovery::default()
            };
            let report = cluster_parallel_ft(&store, 4, &params(), &config(), TraceSpec::off(), &recovery);
            assert_eq!(report.clustering, serial, "victim {victim} (killed at event {at})");
            assert_eq!(report.dead_ranks, 1, "victim {victim} (killed at event {at})");
            assert!(report.recovered_tasks > 0, "victim {victim} died holding a lease (event {at})");
            assert!(!report.killed);
            assert_eq!(report.ranks[0].counter(names::DEAD_RANKS), 1);
        }
    }

    #[test]
    fn early_kill_makes_a_survivor_adopt_the_generator_scope() {
        // Event 5 is the victim's second AR send: it has announced one
        // round of pairs but its generator is nowhere near exhausted, so
        // the master must hand its GST scope to exactly one survivor —
        // and the partition must still match the serial one.
        let store = test_store();
        let (serial, _) = cluster_serial(&store, &params());
        let recovery = StageRecovery {
            faults: FaultPlan::default().with_kill(KillTarget::Rank(1), 5, FaultStage::Any),
            ..StageRecovery::default()
        };
        let report = cluster_parallel_ft(&store, 4, &params(), &config(), TraceSpec::off(), &recovery);
        assert_eq!(report.clustering, serial);
        assert_eq!(report.dead_ranks, 1);
        let adopters: u64 = report.ranks[1..].iter().map(|r| r.counter(names::SCOPES_ADOPTED)).sum();
        assert_eq!(adopters, 1, "exactly one survivor adopts the dead generator's scope");
    }

    #[test]
    fn master_kill_checkpoint_resume_reproduces_partition() {
        let store = test_store();
        let (serial, _) = cluster_serial(&store, &params());
        let depths = probe_events(&store, 3);
        let dir = std::env::temp_dir().join(format!("pgasm-mw-ckpt-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("cluster.pgck");
        let faulty = StageRecovery {
            faults: FaultPlan::default().with_kill(
                KillTarget::Rank(0),
                (depths[0] / 2).max(8),
                FaultStage::Any,
            ),
            checkpoint_every: Some(1),
            checkpoint_path: Some(path.clone()),
            ..StageRecovery::default()
        };
        let r1 = cluster_parallel_ft(&store, 3, &params(), &config(), TraceSpec::off(), &faulty);
        assert!(r1.killed, "the plan kills the master mid-protocol");
        assert!(path.exists(), "a checkpoint landed before the kill");
        assert!(r1.ranks[0].counter(names::CKPT_WRITES) > 0);
        // Resume from the snapshot, fault-free: identical partition.
        let resume = StageRecovery { resume_from: Some(path.clone()), ..StageRecovery::default() };
        let r2 = cluster_parallel_ft(&store, 3, &params(), &config(), TraceSpec::off(), &resume);
        assert_eq!(r2.clustering, serial);
        assert!(!r2.killed);
        let _ = std::fs::remove_dir_all(&dir);
    }
}

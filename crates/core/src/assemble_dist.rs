//! Distributed per-cluster assembly (paper §8) — the second client of
//! the generic [`crate::engine`].
//!
//! "The subsequent assembly tasks are trivially parallel": once the
//! clustering partition is known, each non-singleton cluster can be
//! assembled independently. This module makes that phase a first-class
//! distributed stage on the mpisim rank model rather than a static
//! OS-thread loop: rank 0 (the master) owns the full task list and
//! schedules whole clusters onto worker ranks; workers assemble their
//! allocated clusters and ship the contigs back over the simulated
//! wire, so flow control, parking, coalescing, per-tag traffic
//! accounting, blocked-time attribution, and event tracing all apply
//! exactly as they do to clustering.
//!
//! Unlike clustering, assembly's task list is fully known up-front and
//! workers generate nothing: the master seeds the engine's pending
//! buffer and every worker's generator reports *passive* immediately —
//! a degenerate but fully legal instance of the protocol in which the
//! park/unpark service becomes the work-stealing mechanism.
//!
//! Scheduling: cluster sizes are heavy-tailed on real datasets (one
//! dominant island plus many small ones), so assignment order matters.
//! [`AssignPolicy::Lpt`] sorts clusters by decreasing candidate-pair
//! cost (longest-processing-time-first) and dispatches one cluster per
//! grant, which keeps the dominant cluster from landing *on top of* an
//! already-loaded rank; [`AssignPolicy::Static`] reproduces the old
//! contiguous chunking (natural order, one ⌈n/(p−1)⌉-cluster block per
//! worker) and exists as the ablation baseline.

use crate::checkpoint::{self as ckpt, StageRecovery};
use crate::clustering::Clustering;
use crate::engine::{
    run_master, run_master_ckpt, run_worker, CheckpointHook, EngineConfig, MasterReport, Task, TaskSink,
    TaskSource, TAG_M2W_AW, TAG_M2W_R, TAG_W2M_AR, TAG_W2M_NP,
};
use pgasm_assemble::{assemble_with_quality, Assembly, AssemblyConfig, Contig, Placement};
use pgasm_mpisim::codec::{checked_len, Decoder, Encoder};
use pgasm_mpisim::{thread_cpu_seconds, CoalescePolicy, CostModel};
use pgasm_seq::{DnaSeq, FragmentStore, QualityTrack, SeqId};
use pgasm_telemetry::trace::{RankTrace, TraceCategory, TraceSpec, Tracer};
use pgasm_telemetry::{names, RankReport, RankSeries};
use std::collections::BTreeMap;
use std::time::Instant;

/// How the master orders clusters for dispatch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AssignPolicy {
    /// Longest-processing-time-first: sort clusters by decreasing
    /// candidate-pair cost and grant one cluster at a time, so large
    /// clusters are pinned early and the tail back-fills the gaps.
    Lpt,
    /// Contiguous chunking in natural order, one ⌈n/(p−1)⌉-cluster
    /// block per worker — the behaviour of the OS-thread loop this
    /// stage replaces, kept as the load-balance ablation baseline.
    Static,
}

/// Outcome of a distributed assembly run.
#[derive(Debug, Clone)]
pub struct DistAssembleReport {
    /// Per-non-singleton-cluster assemblies, index-parallel with
    /// `clustering.non_singletons()` — byte-identical to the threaded
    /// path's output.
    pub assemblies: Vec<Assembly>,
    /// Wall-clock seconds of the assemble phase (max over ranks).
    pub assemble_seconds: f64,
    /// Per-rank thread-CPU seconds (rank 0 = master).
    pub cpu_seconds: Vec<f64>,
    /// Per-worker idle fraction (blocked time / phase time).
    pub worker_idle_fraction: Vec<f64>,
    /// Fraction of the phase the master spent blocked awaiting reports.
    pub master_availability: f64,
    /// Per-rank telemetry channels (rank ids 0..p, mergeable with the
    /// clustering phase's channels via `RunContext::merge_ranks`).
    pub ranks: Vec<RankReport>,
    /// Per-rank event traces on offset track ids (`p+1..=2p`) so they
    /// never collide with the clustering ranks or the pipeline track.
    pub traces: Vec<RankTrace>,
    /// Per-rank gauge time series on the same offset ids; empty when
    /// tracing was off.
    pub series: Vec<RankSeries>,
    /// Clusters re-queued from dead workers' leases (0 fault-free).
    pub recovered_tasks: u64,
    /// Worker ranks the master marked dead during the phase.
    pub dead_ranks: u64,
    /// The fault plan killed the master: unassembled slots hold empty
    /// placeholder assemblies and the run should resume from the last
    /// checkpoint.
    pub killed: bool,
}

/// One whole cluster: its slot in the `non_singletons()` order plus its
/// member fragment ids.
#[derive(Debug, Clone)]
struct AssembleTask {
    slot: u32,
    members: Vec<u32>,
}

impl AssembleTask {
    /// Deterministic work proxy: the candidate overlap-pair count
    /// k·(k−1)/2 — quadratic in cluster size, like the assembler's
    /// all-pairs overlap stage, and independent of host scheduling.
    fn cost_units(&self) -> u64 {
        let k = self.members.len() as u64;
        k * (k - 1) / 2
    }
}

impl Task for AssembleTask {
    fn encode(&self, e: &mut Encoder) {
        e.put_u32(self.slot);
        e.put_u32_slice(&self.members);
    }

    fn decode(d: &mut Decoder) -> AssembleTask {
        AssembleTask { slot: d.get_u32(), members: d.get_u32_slice() }
    }

    fn encoded_size_hint(&self) -> usize {
        8 + 4 * self.members.len()
    }
}

fn encode_assembly(e: &mut Encoder, a: &Assembly) {
    e.put_u32(checked_len(a.contigs.len()));
    for c in &a.contigs {
        e.put_bytes(&c.seq.to_ascii());
        e.put_u32(checked_len(c.placements.len()));
        for pl in &c.placements {
            e.put_u32(pl.read as u32);
            e.put_u32(pl.offset as u32);
            e.put_u32(pl.flipped as u32);
        }
    }
    let singletons: Vec<u32> = a.singletons.iter().map(|&s| s as u32).collect();
    e.put_u32_slice(&singletons);
    e.put_u32(a.inconsistent_edges as u32);
}

fn decode_assembly(d: &mut Decoder) -> Assembly {
    let n_contigs = d.get_u32();
    let contigs = (0..n_contigs)
        .map(|_| {
            let seq = DnaSeq::from_ascii(&d.get_bytes());
            let n_placements = d.get_u32();
            let placements = (0..n_placements)
                .map(|_| Placement {
                    read: d.get_u32() as usize,
                    offset: d.get_u32() as usize,
                    flipped: d.get_u32() == 1,
                })
                .collect();
            Contig { seq, placements }
        })
        .collect();
    let singletons = d.get_u32_slice().into_iter().map(|s| s as usize).collect();
    Assembly { contigs, singletons, inconsistent_edges: d.get_u32() as usize }
}

/// Master-side client: collects shipped assemblies into their slots.
/// Workers never announce tasks, so `select` is vestigial here.
struct AssembleSource {
    results: Vec<Option<Assembly>>,
}

impl TaskSource<AssembleTask> for AssembleSource {
    fn absorb_results(&mut self, _src: usize, d: &mut Decoder) {
        let count = d.get_u32();
        for _ in 0..count {
            let slot = d.get_u32() as usize;
            self.results[slot] = Some(decode_assembly(d));
        }
    }

    fn select(&mut self, _task: &AssembleTask) -> bool {
        true
    }
}

impl AssembleSource {
    /// Serialize the completed slots — the only durable master state of
    /// this stage (the task list is recomputed from the clustering).
    fn snapshot(&self, rep: &MasterReport) -> Vec<u8> {
        let mut e = Encoder::new();
        e.put_u64(rep.results_absorbed);
        e.put_u32(checked_len(self.results.len()));
        let done = self.results.iter().filter(|r| r.is_some()).count();
        e.put_u32(checked_len(done));
        for (slot, result) in self.results.iter().enumerate() {
            if let Some(a) = result {
                e.put_u32(slot as u32);
                encode_assembly(&mut e, a);
            }
        }
        e.finish().to_vec()
    }

    /// Restore completed slots from a snapshot. Returns `false` (no
    /// state restored) when the snapshot was taken over a different
    /// slot count — a different clustering — rather than mis-filling.
    fn restore(&mut self, payload: &[u8]) -> bool {
        let mut d = Decoder::new(payload.to_vec().into());
        d.get_u64();
        if d.get_u32() as usize != self.results.len() {
            return false;
        }
        let done = d.get_u32();
        for _ in 0..done {
            let slot = d.get_u32() as usize;
            self.results[slot] = Some(decode_assembly(&mut d));
        }
        true
    }
}

/// Worker-side client: assembles each allocated cluster and encodes the
/// contigs for shipment. The generator is empty from the start — all
/// tasks come seeded from the master.
struct AssembleSink<'a> {
    store: &'a FragmentStore,
    quals: Option<&'a [QualityTrack]>,
    config: &'a AssemblyConfig,
    clusters_assembled: u64,
    reads_assembled: u64,
    cost_units: u64,
    contig_bases: u64,
}

impl TaskSink<AssembleTask> for AssembleSink<'_> {
    fn run_batch(&mut self, tracer: &mut Tracer, batch: &mut Vec<AssembleTask>, e: &mut Encoder) {
        e.put_u32(checked_len(batch.len()));
        for task in batch.drain(..) {
            tracer.begin_arg(
                TraceCategory::Assemble,
                names::EV_ASSEMBLE_CLUSTER,
                "reads",
                task.members.len() as u64,
            );
            let reads: Vec<DnaSeq> = task.members.iter().map(|&f| self.store.get_seq(SeqId(f))).collect();
            let cluster_quals: Option<Vec<QualityTrack>> =
                self.quals.map(|qs| task.members.iter().map(|&f| qs[f as usize].clone()).collect());
            let assembly = assemble_with_quality(&reads, cluster_quals.as_deref(), self.config);
            tracer.end(TraceCategory::Assemble, names::EV_ASSEMBLE_CLUSTER);
            self.clusters_assembled += 1;
            self.reads_assembled += task.members.len() as u64;
            self.cost_units += task.cost_units();
            self.contig_bases += assembly.contigs.iter().map(|c| c.seq.len() as u64).sum::<u64>();
            let before = e.len();
            e.put_u32(task.slot);
            encode_assembly(e, &assembly);
            tracer.instant_arg(
                TraceCategory::Assemble,
                names::EV_ASSEMBLE_SHIP,
                "bytes",
                (e.len() - before) as u64,
            );
        }
    }

    fn generate(&mut self, _tracer: &mut Tracer, _r: usize, _out: &mut Vec<AssembleTask>) -> bool {
        false
    }
}

/// [`assemble_parallel_traced`] without event tracing.
pub fn assemble_parallel(
    store: &FragmentStore,
    quals: Option<&[QualityTrack]>,
    clustering: &Clustering,
    config: &AssemblyConfig,
    p: usize,
    policy: AssignPolicy,
) -> DistAssembleReport {
    assemble_parallel_traced(store, quals, clustering, config, p, policy, TraceSpec::off())
}

/// Assemble every non-singleton cluster on `p ≥ 2` simulated ranks:
/// the master seeds the engine with whole-cluster tasks (ordered per
/// `policy`), workers assemble and ship contigs back. The result vector
/// is index-parallel with `clustering.non_singletons()` and
/// byte-identical to the threaded `assemble_clusters_q` path.
pub fn assemble_parallel_traced(
    store: &FragmentStore,
    quals: Option<&[QualityTrack]>,
    clustering: &Clustering,
    config: &AssemblyConfig,
    p: usize,
    policy: AssignPolicy,
    trace: TraceSpec,
) -> DistAssembleReport {
    assemble_parallel_ft(store, quals, clustering, config, p, policy, trace, &StageRecovery::default())
}

/// [`assemble_parallel_traced`] under a [`StageRecovery`]: scripted
/// fault injection, master liveness timeout, and checkpoint/resume.
/// The default recovery makes this byte-identical to the plain run.
#[allow(clippy::too_many_arguments)]
pub fn assemble_parallel_ft(
    store: &FragmentStore,
    quals: Option<&[QualityTrack]>,
    clustering: &Clustering,
    config: &AssemblyConfig,
    p: usize,
    policy: AssignPolicy,
    trace: TraceSpec,
    recovery: &StageRecovery,
) -> DistAssembleReport {
    assert!(p >= 2, "distributed assembly needs at least 2 ranks");
    let mut tasks: Vec<AssembleTask> = clustering
        .non_singletons()
        .enumerate()
        .map(|(slot, members)| AssembleTask { slot: slot as u32, members: members.clone() })
        .collect();
    let n = tasks.len();
    let batch = match policy {
        // One cluster per grant: the master re-decides after every
        // completion, which is what lets LPT back-fill.
        AssignPolicy::Lpt => {
            tasks.sort_by_key(|t| (std::cmp::Reverse(t.cost_units()), t.slot));
            1
        }
        // The old thread-loop behaviour: contiguous blocks in natural
        // order, one block per worker.
        AssignPolicy::Static => n.div_ceil(p - 1).max(1),
    };
    let engine_cfg = EngineConfig { batch, pending_cap: n.max(1), stall_timeout: recovery.stall_timeout };
    let (tasks, engine_cfg) = (&tasks, &engine_cfg);

    struct RankOutcome {
        assemblies: Option<Vec<Assembly>>,
        wall: f64,
        cpu: f64,
        idle_fraction: f64,
        rank_report: RankReport,
        trace: RankTrace,
        series: RankSeries,
        recovered_tasks: u64,
        dead_ranks: u64,
        killed: bool,
    }

    let outcomes: Vec<RankOutcome> = pgasm_mpisim::run(p, move |comm| {
        // Track ids are offset past the clustering ranks (0..p-1) and
        // the pipeline's own track (p), so one traced run exports
        // cluster, pipeline, and assemble tracks side by side.
        let role = if comm.rank() == 0 { "asm_master" } else { "asm_worker" };
        comm.set_tracer(trace.tracer(p + 1 + comm.rank(), role));
        comm.set_sampler(trace.sampler(p + 1 + comm.rank(), role));
        if !recovery.faults.is_empty() {
            comm.set_fault_plan(&recovery.faults);
        }
        comm.set_coalesce(Some(CoalescePolicy::default()));
        let cpu0 = thread_cpu_seconds();
        let t0 = Instant::now();
        let mut em_summary = (0u64, 0u64, false);
        let (assemblies, mut counters) = if comm.rank() == 0 {
            let mut source = AssembleSource { results: vec![None; n] };
            if let Some(path) = &recovery.resume_from {
                if let Some(payload) = ckpt::read_checkpoint(path, ckpt::STAGE_ASSEMBLE) {
                    source.restore(&payload);
                }
            }
            // Already-completed slots (a resumed run) are not re-seeded;
            // the workers never see them again.
            let seed: Vec<AssembleTask> =
                tasks.iter().filter(|t| source.results[t.slot as usize].is_none()).cloned().collect();
            let em = match recovery.ckpt_spec() {
                Some((path, every)) => {
                    let mut write = |src: &mut AssembleSource, rep: &MasterReport| {
                        let payload = src.snapshot(rep);
                        ckpt::write_checkpoint(path, ckpt::STAGE_ASSEMBLE, &payload).unwrap_or(0)
                    };
                    run_master_ckpt(
                        comm,
                        engine_cfg,
                        &mut source,
                        seed,
                        Some(CheckpointHook { write: &mut write, every }),
                    )
                }
                None => run_master(comm, engine_cfg, &mut source, seed),
            };
            // A killed master leaves holes; placeholders keep the slot
            // indexing intact and `killed` tells the caller to resume.
            let assemblies = source
                .results
                .into_iter()
                .map(|r| {
                    if em.killed {
                        r.unwrap_or(Assembly {
                            contigs: Vec::new(),
                            singletons: Vec::new(),
                            inconsistent_edges: 0,
                        })
                    } else {
                        r.expect("every cluster assembled")
                    }
                })
                .collect::<Vec<_>>();
            let mut counters = BTreeMap::from([
                (names::ASM_PEAK_QUEUE_DEPTH.to_string(), em.peak_queue_depth),
                (names::ASM_BATCHES_DISPATCHED.to_string(), em.batches_dispatched),
            ]);
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
            em_summary = (em.recovered_tasks, em.dead_ranks, em.killed);
            (Some(assemblies), counters)
        } else {
            let mut sink = AssembleSink {
                store,
                quals,
                config,
                clusters_assembled: 0,
                reads_assembled: 0,
                cost_units: 0,
                contig_bases: 0,
            };
            let ew = run_worker(comm, engine_cfg, &mut sink);
            let counters = BTreeMap::from([
                (names::ASM_CLUSTERS_ASSEMBLED.to_string(), sink.clusters_assembled),
                (names::ASM_READS_ASSEMBLED.to_string(), sink.reads_assembled),
                (names::ASM_COST_UNITS.to_string(), sink.cost_units),
                (names::ASM_CONTIG_BASES.to_string(), sink.contig_bases),
                (names::ASM_BATCH_ROUND_TRIPS.to_string(), ew.round_trips),
            ]);
            (None, counters)
        };
        let wall = t0.elapsed().as_secs_f64();
        let cpu = thread_cpu_seconds() - cpu0;
        let stats = comm.stats();
        let blocked = (stats.wait_ns + stats.barrier_ns) as f64 * 1e-9;
        // Per-tag traffic with this phase's tags relabelled — the rows
        // merge into the run's per-rank channels next to the clustering
        // rows, staying attributable by label.
        let mut comm_rows = comm.tag_stats(&CostModel::BLUEGENE_L);
        for row in &mut comm_rows {
            row.label = match row.tag {
                TAG_W2M_AR => names::TAG_ASM_W2M_RES.to_string(),
                TAG_W2M_NP => names::TAG_ASM_W2M_RDY.to_string(),
                TAG_M2W_R => names::TAG_ASM_M2W_GRANT.to_string(),
                TAG_M2W_AW => names::TAG_ASM_M2W_TASK.to_string(),
                _ => std::mem::take(&mut row.label),
            };
        }
        let cs = comm.coalesce_stats();
        counters.insert(names::MSGS_COALESCED.to_string(), cs.msgs_coalesced);
        counters.insert(names::ENVELOPES_SENT.to_string(), cs.envelopes_sent);
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
                    counters.insert(name.to_string(), value);
                }
            }
        }
        RankOutcome {
            assemblies,
            wall,
            cpu,
            idle_fraction: if wall > 0.0 { (blocked / wall).min(1.0) } else { 0.0 },
            rank_report: RankReport {
                rank: comm.rank(),
                role: role.to_string(),
                cpu_seconds: cpu,
                idle_seconds: blocked,
                counters,
                comm: comm_rows,
                idle_gaps: None,
            },
            trace: comm.take_trace(),
            series: comm.take_series(),
            recovered_tasks: em_summary.0,
            dead_ranks: em_summary.1,
            killed: em_summary.2,
        }
    });

    DistAssembleReport {
        assemblies: outcomes[0].assemblies.clone().expect("master collected the assemblies"),
        assemble_seconds: outcomes.iter().map(|o| o.wall).fold(0.0, f64::max),
        cpu_seconds: outcomes.iter().map(|o| o.cpu).collect(),
        worker_idle_fraction: outcomes[1..].iter().map(|o| o.idle_fraction).collect(),
        master_availability: outcomes[0].idle_fraction,
        ranks: outcomes.iter().map(|o| o.rank_report.clone()).collect(),
        series: outcomes.iter().map(|o| o.series.clone()).collect(),
        recovered_tasks: outcomes[0].recovered_tasks,
        dead_ranks: outcomes[0].dead_ranks,
        killed: outcomes[0].killed,
        traces: outcomes.into_iter().map(|o| o.trace).collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clustering::{cluster_serial, ClusterParams};
    use crate::pipeline::assemble_clusters_q;
    use pgasm_align::AcceptCriteria;
    use pgasm_gst::GstConfig;

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

    /// One dominant island plus several small ones — the heavy-tailed
    /// cluster-size shape real datasets produce.
    fn heavy_tailed_store() -> FragmentStore {
        let mut reads = tile(&genome(7, 4000), 200, 60);
        for seed in 20..26 {
            reads.extend(tile(&genome(seed, 600), 200, 90));
        }
        FragmentStore::from_seqs(reads)
    }

    fn params() -> ClusterParams {
        ClusterParams {
            gst: GstConfig { psi: 16 },
            criteria: AcceptCriteria { min_identity: 0.9, min_overlap: 30 },
            ..Default::default()
        }
    }

    #[test]
    fn distributed_matches_threaded_at_several_rank_counts() {
        let store = heavy_tailed_store();
        let (clustering, _) = cluster_serial(&store, &params());
        assert!(clustering.num_non_singletons() >= 3, "fixture produces several clusters");
        let cfg = AssemblyConfig::default();
        let threaded = assemble_clusters_q(&store, None, &clustering, &cfg, 4);
        for p in [2usize, 4, 8] {
            for policy in [AssignPolicy::Lpt, AssignPolicy::Static] {
                let dist = assemble_parallel(&store, None, &clustering, &cfg, p, policy);
                assert_eq!(dist.assemblies, threaded, "p = {p}, policy = {policy:?}");
            }
        }
    }

    #[test]
    fn rank_reports_cover_the_phase() {
        let store = heavy_tailed_store();
        let (clustering, _) = cluster_serial(&store, &params());
        let cfg = AssemblyConfig::default();
        let dist = assemble_parallel(&store, None, &clustering, &cfg, 4, AssignPolicy::Lpt);
        assert_eq!(dist.ranks.len(), 4);
        assert_eq!(dist.ranks[0].role, "asm_master");
        assert!(dist.ranks[1..].iter().all(|r| r.role == "asm_worker"));
        // Every cluster is assembled exactly once, across the workers.
        let clusters: u64 = dist.ranks[1..].iter().map(|r| r.counter(names::ASM_CLUSTERS_ASSEMBLED)).sum();
        assert_eq!(clusters as usize, clustering.num_non_singletons());
        let cost: u64 = dist.ranks[1..].iter().map(|r| r.counter(names::ASM_COST_UNITS)).sum();
        let expected: u64 =
            clustering.non_singletons().map(|m| (m.len() as u64) * (m.len() as u64 - 1) / 2).sum();
        assert_eq!(cost, expected);
        // The protocol rows are present and relabelled for this phase.
        let master = &dist.ranks[0];
        assert!(master.comm.iter().any(|t| t.label == names::TAG_ASM_W2M_RES && t.msgs_recv > 0));
        assert_eq!(master.counter(names::ASM_BATCHES_DISPATCHED) as usize, {
            // LPT grants one cluster per batch.
            clustering.num_non_singletons()
        });
        for r in &dist.ranks[1..] {
            assert!(r.counter(names::ASM_BATCH_ROUND_TRIPS) >= 1);
            assert!(r.comm.iter().any(|t| t.label == names::TAG_ASM_M2W_GRANT && t.msgs_recv > 0));
        }
        assert!(dist.assemble_seconds > 0.0);
        assert_eq!(dist.worker_idle_fraction.len(), 3);
    }

    #[test]
    fn lpt_beats_static_chunking_on_the_dominant_cluster() {
        // The deterministic cost proxy: with one dominant cluster at the
        // *end* of a contiguous chunk layout... actually anywhere — LPT
        // spreads the small clusters away from whichever rank holds the
        // giant, while static chunking gives some rank the giant plus
        // its whole neighbouring block.
        let store = heavy_tailed_store();
        let (clustering, _) = cluster_serial(&store, &params());
        let cfg = AssemblyConfig::default();
        let ratio = |policy: AssignPolicy| {
            let dist = assemble_parallel(&store, None, &clustering, &cfg, 8, policy);
            let loads: Vec<u64> = dist.ranks[1..].iter().map(|r| r.counter(names::ASM_COST_UNITS)).collect();
            let max = *loads.iter().max().unwrap() as f64;
            let mean = loads.iter().sum::<u64>() as f64 / loads.len() as f64;
            max / mean.max(1.0)
        };
        let lpt = ratio(AssignPolicy::Lpt);
        let stat = ratio(AssignPolicy::Static);
        assert!(
            lpt <= stat,
            "LPT must not load-balance worse than contiguous chunking: lpt {lpt:.3} vs static {stat:.3}"
        );
    }

    #[test]
    fn assembly_round_trips_through_the_wire_codec() {
        let a = Assembly {
            contigs: vec![Contig {
                seq: DnaSeq::from("ACGTACGT"),
                placements: vec![
                    Placement { read: 0, offset: 0, flipped: false },
                    Placement { read: 3, offset: 4, flipped: true },
                ],
            }],
            singletons: vec![1, 2],
            inconsistent_edges: 5,
        };
        let mut e = Encoder::new();
        encode_assembly(&mut e, &a);
        let mut d = Decoder::new(e.finish());
        assert_eq!(decode_assembly(&mut d), a);
        assert!(d.is_empty());
    }

    #[test]
    fn empty_clustering_terminates() {
        let store = FragmentStore::from_seqs(vec![DnaSeq::from(genome(9, 300).as_str())]);
        let (clustering, _) = cluster_serial(&store, &params());
        let dist =
            assemble_parallel(&store, None, &clustering, &AssemblyConfig::default(), 3, AssignPolicy::Lpt);
        assert!(dist.assemblies.is_empty());
    }

    use crate::checkpoint::StageRecovery;
    use pgasm_mpisim::{FaultPlan, FaultStage, KillTarget};

    #[test]
    fn killed_worker_still_assembles_every_cluster() {
        // Kill each worker in turn early in the protocol; the master
        // must re-queue the lost clusters onto survivors and the final
        // assemblies must byte-match the fault-free run.
        let store = heavy_tailed_store();
        let (clustering, _) = cluster_serial(&store, &params());
        let cfg = AssemblyConfig::default();
        let expected = assemble_parallel(&store, None, &clustering, &cfg, 4, AssignPolicy::Lpt).assemblies;
        let mut recovered_any = false;
        for victim in 1..4usize {
            let recovery = StageRecovery {
                faults: FaultPlan::default().with_kill(KillTarget::Rank(victim), 5, FaultStage::Any),
                ..StageRecovery::default()
            };
            let dist = assemble_parallel_ft(
                &store,
                None,
                &clustering,
                &cfg,
                4,
                AssignPolicy::Lpt,
                TraceSpec::off(),
                &recovery,
            );
            assert_eq!(dist.assemblies, expected, "victim {victim}");
            assert_eq!(dist.dead_ranks, 1, "victim {victim}");
            assert!(!dist.killed);
            recovered_any |= dist.recovered_tasks > 0;
        }
        assert!(recovered_any, "at least one victim died holding a leased cluster");
    }

    #[test]
    fn master_kill_checkpoint_resume_reproduces_assemblies() {
        let store = heavy_tailed_store();
        let (clustering, _) = cluster_serial(&store, &params());
        let cfg = AssemblyConfig::default();
        let expected = assemble_parallel(&store, None, &clustering, &cfg, 4, AssignPolicy::Lpt).assemblies;
        let dir = std::env::temp_dir().join(format!("pgasm-asm-ckpt-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("assemble.pgck");
        let faulty = StageRecovery {
            faults: FaultPlan::default().with_kill(KillTarget::Rank(0), 40, FaultStage::Any),
            checkpoint_every: Some(1),
            checkpoint_path: Some(path.clone()),
            ..StageRecovery::default()
        };
        let r1 = assemble_parallel_ft(
            &store,
            None,
            &clustering,
            &cfg,
            4,
            AssignPolicy::Lpt,
            TraceSpec::off(),
            &faulty,
        );
        assert!(r1.killed, "the plan kills the master mid-protocol");
        let resume = StageRecovery { resume_from: Some(path.clone()), ..StageRecovery::default() };
        let r2 = assemble_parallel_ft(
            &store,
            None,
            &clustering,
            &cfg,
            4,
            AssignPolicy::Lpt,
            TraceSpec::off(),
            &resume,
        );
        assert_eq!(r2.assemblies, expected);
        assert!(!r2.killed);
        let _ = std::fs::remove_dir_all(&dir);
    }
}

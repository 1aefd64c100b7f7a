//! Distributed per-cluster assembly (paper §8) — an
//! [`engine::run_stage`](crate::engine::run_stage) client.
//!
//! "The subsequent assembly tasks are trivially parallel": once the
//! clustering partition is known, each non-singleton cluster can be
//! assembled independently. Rank 0 (the master) owns the full task list
//! and schedules whole clusters onto worker ranks; workers assemble
//! their allocated clusters and ship the contigs back over the
//! simulated wire, so flow control, parking, per-tag
//! traffic accounting, blocked-time attribution, event tracing and
//! fault recovery all apply exactly as they do to clustering. This
//! module holds only what makes the stage *assembly*: the whole-cluster
//! task, the master's slot table (`AssembleSource`) and its snapshot
//! layout, the worker's assembler call (`AssembleSink`), the one
//! [`Assembly`] wire form, and the report shape.
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
//! already-loaded rank; [`AssignPolicy::Static`] reproduces the
//! thread loop's contiguous chunking (natural order, one
//! ⌈n/(p−1)⌉-cluster block per worker) and exists as the ablation
//! baseline.

use crate::checkpoint::STAGE_ASSEMBLE;
use crate::clustering::Clustering;
use crate::engine::{
    run_stage, Counters, EngineConfig, MasterReport, RunOpts, Snapshot, StageClient, StageSpec, Task,
    TaskSink, TaskSource, WorkerReport,
};
use pgasm_assemble::{assemble_with_quality, Assembly, AssemblyConfig, Contig, Placement};
use pgasm_mpisim::Comm;
use pgasm_seq::wire::{checked_len, Reader, WireError, Writer};
use pgasm_seq::{DnaSeq, FragmentStore, QualityTrack, SeqId};
use pgasm_telemetry::trace::{RankTrace, TraceCategory, Tracer};
use pgasm_telemetry::{names, RankReport};

/// How the master orders clusters for dispatch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AssignPolicy {
    /// Longest-processing-time-first: sort clusters by decreasing
    /// candidate-pair cost and grant one cluster at a time, so large
    /// clusters are pinned early and the tail back-fills the gaps.
    Lpt,
    /// Contiguous chunking in natural order, one ⌈n/(p−1)⌉-cluster
    /// block per worker — what the serial pipeline's OS-thread loop
    /// (`pipeline::assemble_clusters_q`) does with its threads, kept as
    /// the load-balance ablation baseline.
    Static,
}

impl AssignPolicy {
    /// The policy as the master carries it out: one whole-cluster task
    /// per non-singleton cluster, in dispatch order, and how many of
    /// them travel in each grant to one of `workers` workers.
    pub fn plan(self, clustering: &Clustering, workers: usize) -> (Vec<AssembleTask>, usize) {
        let mut tasks: Vec<AssembleTask> = clustering
            .non_singletons()
            .enumerate()
            .map(|(slot, members)| AssembleTask { slot: slot as u32, members: members.clone() })
            .collect();
        let batch = match self {
            // One cluster per grant: the master re-decides after every
            // completion, which is what lets LPT back-fill.
            AssignPolicy::Lpt => {
                tasks.sort_by_key(|t| (std::cmp::Reverse(t.cost_units()), t.slot));
                1
            }
            // The thread loop's behaviour: contiguous blocks in
            // natural order, one block per worker.
            AssignPolicy::Static => tasks.len().div_ceil(workers).max(1),
        };
        (tasks, batch)
    }
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
    /// Per-rank thread-CPU seconds of the phase (rank 0 = master): each
    /// rank channel's `cpu_seconds`.
    pub cpu_seconds: Vec<f64>,
    /// Per-worker idle fraction (blocked time / phase time).
    pub worker_idle_fraction: Vec<f64>,
    /// Fraction of the phase the master spent blocked awaiting reports.
    pub master_availability: f64,
    /// Per-rank telemetry channels (rank ids 0..p, merged with the
    /// clustering stage's by `RunContext::merge_ranks`).
    pub ranks: Vec<RankReport>,
    /// Per-rank event traces on track ids 0..p — the clustering
    /// stage's, so `RunContext::merge_traces` appends them to the
    /// tracks those ranks already have; empty when tracing was off.
    pub traces: Vec<RankTrace>,
    /// The fault plan killed the master: unassembled slots hold empty
    /// placeholder assemblies and the run should resume from the last
    /// checkpoint.
    pub killed: bool,
}

/// One whole cluster: its slot in the `non_singletons()` order plus its
/// member fragment ids.
#[derive(Debug, Clone)]
pub struct AssembleTask {
    slot: u32,
    members: Vec<u32>,
}

impl AssembleTask {
    /// Deterministic work proxy: the candidate overlap-pair count
    /// k·(k−1)/2 — quadratic in cluster size, like the assembler's
    /// all-pairs overlap stage, and independent of host scheduling.
    pub fn cost_units(&self) -> u64 {
        let k = self.members.len() as u64;
        k * (k - 1) / 2
    }
}

impl Task for AssembleTask {
    fn encode(&self, w: &mut Writer) {
        w.put_u32(self.slot);
        w.put_u32_slice(&self.members);
    }

    fn decode(r: &mut Reader<'_>) -> Result<AssembleTask, WireError> {
        Ok(AssembleTask { slot: r.get_u32()?, members: r.get_u32_slice()? })
    }

    fn encoded_size_hint(&self) -> usize {
        8 + 4 * self.members.len()
    }
}

/// The one serial form of an [`Assembly`] — the report's result body, the
/// assemble snapshot and the `contigs` cache artifact all frame this.
/// Every count and index travels as a `u32`.
pub fn encode_assembly(w: &mut Writer, a: &Assembly) {
    w.put_u32(checked_len(a.contigs.len()));
    for c in &a.contigs {
        w.put_bytes(&c.seq.to_ascii());
        w.put_u32(checked_len(c.placements.len()));
        for pl in &c.placements {
            w.put_u32(checked_len(pl.read)).put_u32(checked_len(pl.offset)).put_u32(pl.flipped as u32);
        }
    }
    let singletons: Vec<u32> = a.singletons.iter().map(|&s| checked_len(s)).collect();
    w.put_u32_slice(&singletons);
    w.put_u32(checked_len(a.inconsistent_edges));
}

/// Inverse of [`encode_assembly`]; an `Err` — never a panic — on any
/// truncated or malformed input.
pub fn decode_assembly(r: &mut Reader<'_>) -> Result<Assembly, WireError> {
    let mut contigs = Vec::new();
    for _ in 0..r.get_u32()? {
        let seq = DnaSeq::from_ascii(r.get_bytes()?);
        let mut placements = Vec::new();
        for _ in 0..r.get_u32()? {
            placements.push(Placement {
                read: r.get_u32()? as usize,
                offset: r.get_u32()? as usize,
                flipped: r.get_u32()? == 1,
            });
        }
        contigs.push(Contig { seq, placements });
    }
    let singletons = r.get_u32_slice()?.into_iter().map(|s| s as usize).collect();
    Ok(Assembly { contigs, singletons, inconsistent_edges: r.get_u32()? as usize })
}

/// `count`, then that many `(slot, assembly)` records: the report's
/// result body and the tail of the snapshot. A slot outside the table is malformed.
fn decode_slots(r: &mut Reader<'_>, results: &mut [Option<Assembly>]) -> Result<(), WireError> {
    for _ in 0..r.get_u32()? {
        let slot = r.get_u32()? as usize;
        *results.get_mut(slot).ok_or(WireError::Malformed("assembly slot out of range"))? =
            Some(decode_assembly(r)?);
    }
    Ok(())
}

/// Master-side client: collects shipped assemblies into their slots.
/// Workers never announce tasks, so `select` is vestigial here.
struct AssembleSource {
    results: Vec<Option<Assembly>>,
}

impl TaskSource<AssembleTask> for AssembleSource {
    fn absorb_results(&mut self, _src: usize, r: &mut Reader<'_>) -> Result<(), WireError> {
        decode_slots(r, &mut self.results)
    }

    fn select(&mut self, _task: &AssembleTask) -> bool {
        true
    }
}

/// The completed slots are the only durable master state of this stage
/// (the task list is recomputed from the clustering). Layout:
/// `results_absorbed: u64`, slot count, then the completed
/// `(slot, assembly)` records.
impl Snapshot for AssembleSource {
    fn snapshot(&mut self, rep: &MasterReport) -> Vec<u8> {
        let mut w = Writer::new();
        w.put_u64(rep.results_absorbed);
        w.put_u32(checked_len(self.results.len()));
        w.put_u32(checked_len(self.results.iter().flatten().count()));
        for (slot, result) in self.results.iter().enumerate() {
            if let Some(a) = result {
                w.put_u32(slot as u32);
                encode_assembly(&mut w, a);
            }
        }
        w.finish()
    }

    fn restore(&mut self, payload: &[u8]) -> Result<(), WireError> {
        let mut r = Reader::new(payload);
        r.get_u64()?;
        if r.get_u32()? as usize != self.results.len() {
            return Err(WireError::Malformed("snapshot of a different clustering"));
        }
        let mut results = vec![None; self.results.len()];
        decode_slots(&mut r, &mut results)?;
        r.expect_end()?;
        self.results = results;
        Ok(())
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
    fn run_batch(&mut self, tracer: &mut Tracer, batch: &mut Vec<AssembleTask>, w: &mut Writer) {
        w.put_u32(checked_len(batch.len()));
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
            let before = w.len();
            w.put_u32(task.slot);
            encode_assembly(w, &assembly);
            tracer.instant_arg(
                TraceCategory::Assemble,
                names::EV_ASSEMBLE_SHIP,
                "bytes",
                (w.len() - before) as u64,
            );
        }
    }

    fn generate(&mut self, _tracer: &mut Tracer, _r: usize, _out: &mut Vec<AssembleTask>) -> bool {
        false
    }
}

/// The stage's work, as [`run_stage`] sees it. A rank's output is the
/// master's slot table (`None` on workers).
struct AssembleStage<'a> {
    store: &'a FragmentStore,
    quals: Option<&'a [QualityTrack]>,
    config: &'a AssemblyConfig,
    /// Every task, in dispatch order.
    tasks: Vec<AssembleTask>,
}

impl<'a> StageClient for AssembleStage<'a> {
    type Task = AssembleTask;
    type Source = AssembleSource;
    type Sink = AssembleSink<'a>;
    type Pre = ();
    type Output = Option<Vec<Option<Assembly>>>;

    fn pre_phase(&self, _comm: &mut Comm) {}

    fn source(&self, _pre: ()) -> AssembleSource {
        AssembleSource { results: vec![None; self.tasks.len()] }
    }

    /// Already-completed slots (a resumed run) are not re-seeded; the
    /// workers never see them again.
    fn seed(&self, source: &AssembleSource) -> Vec<AssembleTask> {
        self.tasks.iter().filter(|t| source.results[t.slot as usize].is_none()).cloned().collect()
    }

    fn master_output(&self, source: AssembleSource, em: &MasterReport) -> (Self::Output, Counters) {
        let counters = vec![
            (names::ASM_PEAK_QUEUE_DEPTH, em.peak_queue_depth),
            (names::ASM_BATCHES_DISPATCHED, em.batches_dispatched),
        ];
        (Some(source.results), counters)
    }

    fn sink(&self, _comm: &Comm, _pre: ()) -> AssembleSink<'a> {
        AssembleSink {
            store: self.store,
            quals: self.quals,
            config: self.config,
            clusters_assembled: 0,
            reads_assembled: 0,
            cost_units: 0,
            contig_bases: 0,
        }
    }

    fn worker_output(&self, sink: AssembleSink<'a>, ew: &WorkerReport) -> (Self::Output, Counters) {
        let counters = vec![
            (names::ASM_CLUSTERS_ASSEMBLED, sink.clusters_assembled),
            (names::ASM_READS_ASSEMBLED, sink.reads_assembled),
            (names::ASM_COST_UNITS, sink.cost_units),
            (names::ASM_CONTIG_BASES, sink.contig_bases),
            (names::ASM_BATCH_ROUND_TRIPS, ew.round_trips),
        ];
        (None, counters)
    }
}

/// [`assemble_parallel_with`] under the default [`RunOpts`]: no
/// tracing, no fault injection, no checkpoints.
pub fn assemble_parallel(
    store: &FragmentStore,
    quals: Option<&[QualityTrack]>,
    clustering: &Clustering,
    config: &AssemblyConfig,
    p: usize,
    policy: AssignPolicy,
) -> DistAssembleReport {
    assemble_parallel_with(store, quals, clustering, config, p, policy, &RunOpts::default())
}

/// Assemble every non-singleton cluster on `p ≥ 2` simulated ranks:
/// the master seeds the engine with whole-cluster tasks (ordered per
/// `policy`), workers assemble and ship contigs back. The result vector
/// is index-parallel with `clustering.non_singletons()` and
/// byte-identical to the threaded `assemble_clusters_q` path.
pub fn assemble_parallel_with(
    store: &FragmentStore,
    quals: Option<&[QualityTrack]>,
    clustering: &Clustering,
    config: &AssemblyConfig,
    p: usize,
    policy: AssignPolicy,
    opts: &RunOpts,
) -> DistAssembleReport {
    assert!(p >= 2, "distributed assembly needs at least 2 ranks");
    let (tasks, batch) = policy.plan(clustering, p - 1);
    let n = tasks.len();
    let spec = StageSpec {
        name: STAGE_ASSEMBLE,
        tag_labels: [names::TAG_ASM_W2M_REPORT, names::TAG_ASM_M2W_GRANT],
        engine: EngineConfig { batch, pending_cap: n.max(1) },
    };
    let mut run = run_stage(p, &spec, opts, &AssembleStage { store, quals, config, tasks });
    // A killed master leaves holes; placeholders keep the slot indexing
    // intact and `killed` tells the caller to resume.
    let killed = run.killed;
    let assemblies =
        run.outputs.swap_remove(0).expect("master collected the assemblies").into_iter().map(|r| {
            if killed {
                r.unwrap_or(Assembly { contigs: Vec::new(), singletons: Vec::new(), inconsistent_edges: 0 })
            } else {
                r.expect("every cluster assembled")
            }
        });
    DistAssembleReport {
        assemblies: assemblies.collect(),
        assemble_seconds: run.seconds,
        cpu_seconds: run.ranks.iter().map(|r| r.cpu_seconds).collect(),
        worker_idle_fraction: run.worker_idle_fraction,
        master_availability: run.master_availability,
        ranks: run.ranks,
        traces: run.traces,
        killed,
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
        // 400-bp reads: the giant outlasts the dispatch of the tail.
        let mut reads = tile(&genome(7, 4180), 400, 60);
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
        assert_eq!(dist.ranks[0].role, "master");
        assert!(dist.ranks[1..].iter().all(|r| r.role == "worker"));
        // Every cluster is assembled exactly once, across the workers.
        let clusters: u64 = dist.ranks[1..].iter().map(|r| r.counter(names::ASM_CLUSTERS_ASSEMBLED)).sum();
        assert_eq!(clusters as usize, clustering.num_non_singletons());
        let cost: u64 = dist.ranks[1..].iter().map(|r| r.counter(names::ASM_COST_UNITS)).sum();
        let expected: u64 =
            clustering.non_singletons().map(|m| (m.len() as u64) * (m.len() as u64 - 1) / 2).sum();
        assert_eq!(cost, expected);
        // The protocol rows are present and relabelled for this phase.
        let master = &dist.ranks[0];
        assert!(master.comm.iter().any(|t| t.label == names::TAG_ASM_W2M_REPORT && t.msgs_recv > 0));
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
    fn assembly_codec_round_trips_and_rejects_every_strict_prefix() {
        let a = Assembly {
            contigs: vec![
                Contig {
                    seq: DnaSeq::from("ACGTACGT"),
                    placements: vec![
                        Placement { read: 0, offset: 0, flipped: false },
                        Placement { read: 3, offset: 4, flipped: true },
                    ],
                },
                Contig { seq: DnaSeq::from("TTGA"), placements: Vec::new() },
            ],
            singletons: vec![1, 2],
            inconsistent_edges: 5,
        };
        let mut w = Writer::new();
        encode_assembly(&mut w, &a);
        let bytes = w.finish();
        let mut r = Reader::new(&bytes);
        assert_eq!(decode_assembly(&mut r), Ok(a));
        assert!(r.expect_end().is_ok(), "the decoder consumes exactly what the encoder wrote");
        for cut in 0..bytes.len() {
            let got = decode_assembly(&mut Reader::new(&bytes[..cut]));
            assert!(
                matches!(got, Err(WireError::Truncated { .. })),
                "prefix of {cut} bytes decoded: {got:?}"
            );
        }
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
    use pgasm_mpisim::FaultPlan;

    /// The stage at p = 4 under LPT — one cluster per lease, so
    /// fault-free exactly one lease per non-singleton cluster.
    fn run_with(
        store: &FragmentStore,
        clustering: &Clustering,
        recovery: StageRecovery,
    ) -> DistAssembleReport {
        let opts = RunOpts { recovery, ..RunOpts::default() };
        assemble_parallel_with(
            store,
            None,
            clustering,
            &AssemblyConfig::default(),
            4,
            AssignPolicy::Lpt,
            &opts,
        )
    }

    fn faults(plan: &str) -> StageRecovery {
        StageRecovery { faults: FaultPlan::parse(plan).unwrap(), ..StageRecovery::default() }
    }

    #[test]
    fn killed_worker_still_assembles_every_cluster() {
        // Whichever worker is granted lease K dies holding that
        // cluster; the master must re-queue it onto a survivor and the
        // final assemblies must byte-match the fault-free run — also
        // when K is the last cluster of the stage, granted when the
        // other workers are already parked.
        let store = heavy_tailed_store();
        let (clustering, _) = cluster_serial(&store, &params());
        let expected = run_with(&store, &clustering, StageRecovery::default()).assemblies;
        let last = clustering.num_non_singletons();
        for lease in [1, last / 2, last] {
            let dist = run_with(&store, &clustering, faults(&format!("kill:lease={lease}")));
            assert_eq!(dist.assemblies, expected, "lease {lease}");
            assert_eq!(dist.ranks[0].counter(names::DEAD_RANKS), 1, "lease {lease}");
            assert_eq!(
                dist.ranks[0].counter(names::RECOVERED_TASKS),
                1,
                "lease {lease}: its holder died before assembling it"
            );
            assert!(!dist.killed);
            let kills: u64 = dist.ranks.iter().map(|r| r.counter(names::FAULT_KILLS)).sum();
            assert_eq!(kills, 1, "lease {lease}");
        }
        // One past the last: never issued, so nobody dies.
        let plan = format!("kill:lease={0}; kill:master,lease={0}", last + 1);
        let dist = run_with(&store, &clustering, faults(&plan));
        assert_eq!(dist.assemblies, expected);
        let master = &dist.ranks[0];
        assert_eq!(
            (master.counter(names::DEAD_RANKS), master.counter(names::RECOVERED_TASKS), dist.killed),
            (0, 0, false)
        );
        assert!(dist.ranks.iter().all(|r| r.counter(names::FAULT_KILLS) == 0));
    }

    #[test]
    fn master_kill_checkpoint_resume_reproduces_assemblies() {
        let store = heavy_tailed_store();
        let (clustering, _) = cluster_serial(&store, &params());
        assert!(clustering.num_non_singletons() >= 4, "lease p = 4 is always issued");
        let expected = run_with(&store, &clustering, StageRecovery::default()).assemblies;
        let dir = std::env::temp_dir().join(format!("pgasm-asm-ckpt-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("assemble.pgck");
        // The master dies in place of issuing lease p: by then some
        // worker has reported a cluster, and the cadence is one.
        let faulty = StageRecovery {
            checkpoint_every: Some(1),
            checkpoint_path: Some(path.clone()),
            ..faults("kill:master,lease=4")
        };
        let r1 = run_with(&store, &clustering, faulty);
        assert!(r1.killed, "the plan kills the master mid-protocol");
        assert!(path.exists(), "a checkpoint landed before the kill");
        let resume = StageRecovery { resume_from: Some(path.clone()), ..StageRecovery::default() };
        let r2 = run_with(&store, &clustering, resume);
        assert_eq!(r2.assemblies, expected);
        assert!(!r2.killed);
        let _ = std::fs::remove_dir_all(&dir);
    }
}

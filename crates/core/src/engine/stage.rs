//! The per-rank shell both engine stages run inside.
//!
//! [`run_stage`] owns what running *any* stage on the simulated machine
//! takes — launching the ranks, tracer / fault-plan set-up,
//! the optional collective pre-phase with its own
//! timed window, checkpoint resume and cadence around [`run_master`],
//! wall / CPU / blocked accounting, and the folding of traffic, fault
//! and recovery tallies into one [`RankReport`] per rank. What differs
//! between stages reaches it as data ([`StageSpec`]) and as the work
//! itself ([`StageClient`]); it never asks which stage is calling.

use super::{
    run_master, run_worker, CheckpointHook, EngineConfig, MasterReport, Task, TaskSink, TaskSource,
    WorkerReport, PROTOCOL_TAGS,
};
use crate::checkpoint::{read_checkpoint, write_checkpoint, StageRecovery};
use pgasm_mpisim::{thread_cpu_seconds, Comm, CommError, CommStats, CostModel};
use pgasm_seq::wire::WireError;
use pgasm_telemetry::trace::{RankTrace, TraceSpec};
use pgasm_telemetry::{names, RankReport};
use std::collections::BTreeMap;
use std::time::Instant;

/// Per-run options of a distributed stage. A separate argument (not a
/// field of the stages' serialisable configs) because the [`TraceSpec`]
/// carries the run's shared clock epoch, which has no serial form. The
/// default — tracing off, passive recovery — does not even arm the comm
/// layer's fault plan.
#[derive(Debug, Clone)]
pub struct RunOpts {
    /// Per-rank event tracing (spans, instants and gauges).
    pub trace: TraceSpec,
    /// Scripted fault injection and checkpoint/resume.
    pub recovery: StageRecovery,
}

impl Default for RunOpts {
    fn default() -> Self {
        RunOpts { trace: TraceSpec::off(), recovery: StageRecovery::default() }
    }
}

/// Everything that distinguishes one stage's run from another's, apart
/// from the work: pure data. A rank is the same rank in every stage —
/// rank 0 the `"master"`, the rest `"worker"`s, its trace track id its
/// rank — so the stages of one run merge into one channel and one
/// timeline per rank.
#[derive(Debug, Clone)]
pub struct StageSpec {
    /// Stage name: the checkpoint's stage tag, and the stage named when
    /// a rank fails.
    pub name: &'static str,
    /// Report labels of the two protocol tags, in [`PROTOCOL_TAGS`]
    /// order.
    pub tag_labels: [&'static str; 2],
    /// Protocol shape.
    pub engine: EngineConfig,
}

/// Master-side state a checkpoint can carry across a restart. Workers
/// hold nothing durable: on resume they redo their part from the shared
/// input and the restored source discards what it already has.
pub trait Snapshot {
    /// Serialize the durable state (`report` rides along for
    /// forensics). Takes `self` mutably so snapshotting may normalise
    /// internal state without an extra copy.
    fn snapshot(&mut self, report: &MasterReport) -> Vec<u8>;
    /// Restore what [`Snapshot::snapshot`] wrote. All or nothing: on
    /// `Err` — a payload of another layout, or of another input — the
    /// state is untouched and the stage starts cold.
    fn restore(&mut self, payload: &[u8]) -> Result<(), WireError>;
}

/// Rank-local counters a client reports, by `names::*` counter name.
pub type Counters = Vec<(&'static str, u64)>;

/// The work of one stage: what its ranks do before the protocol starts,
/// the master's source, the workers' sink, and what each rank hands
/// back.
pub trait StageClient: Sync {
    /// The unit of work.
    type Task: Task;
    /// Rank 0's side of the protocol.
    type Source: TaskSource<Self::Task> + Snapshot;
    /// The side of ranks `1..p`.
    type Sink: TaskSink<Self::Task>;
    /// What the pre-phase leaves a rank with.
    type Pre;
    /// What a rank hands back to the stage's caller.
    type Output: Send;

    /// Collective work every rank does before the protocol (timed as
    /// its own window; a phase that communicates ends in a barrier).
    fn pre_phase(&self, comm: &mut Comm) -> Self::Pre;
    /// Rank 0's fresh source.
    fn source(&self, pre: Self::Pre) -> Self::Source;
    /// The tasks the master starts with, given its (possibly restored)
    /// source.
    fn seed(&self, source: &Self::Source) -> Vec<Self::Task>;
    /// Rank 0's product and counters once the protocol has ended.
    fn master_output(&self, source: Self::Source, report: &MasterReport) -> (Self::Output, Counters);
    /// A worker's fresh sink.
    fn sink(&self, comm: &Comm, pre: Self::Pre) -> Self::Sink;
    /// A worker's product and counters once the protocol has ended.
    fn worker_output(&self, sink: Self::Sink, report: &WorkerReport) -> (Self::Output, Counters);
}

/// What [`run_stage`] hands back: per-rank vectors in rank order, plus
/// the master's recovery summary.
#[derive(Debug)]
pub struct StageRun<O> {
    /// Each rank's client product.
    pub outputs: Vec<O>,
    /// Wall-clock seconds each rank spent in the pre-phase.
    pub pre_seconds: Vec<f64>,
    /// Wall-clock seconds of the protocol phase (max over ranks).
    pub seconds: f64,
    /// Per-rank thread-CPU seconds of the protocol phase.
    pub cpu_seconds: Vec<f64>,
    /// Per-worker idle fraction (blocked time / phase time).
    pub worker_idle_fraction: Vec<f64>,
    /// Fraction of the phase the master spent blocked awaiting reports.
    pub master_availability: f64,
    /// Per-rank traffic of the protocol phase.
    pub comm: Vec<CommStats>,
    /// Per-rank telemetry channels.
    pub ranks: Vec<RankReport>,
    /// Per-rank event traces (empty tracks when tracing was off).
    pub traces: Vec<RankTrace>,
    /// Tasks re-queued from dead workers' leases.
    pub recovered_tasks: u64,
    /// Worker ranks the master marked dead.
    pub dead_ranks: u64,
    /// The fault plan killed the master: rank 0's output is partial and
    /// the run should resume from the last checkpoint.
    pub killed: bool,
}

/// One rank's share of a [`StageRun`].
struct RankRun<O> {
    output: O,
    pre_seconds: f64,
    wall: f64,
    cpu: f64,
    idle_fraction: f64,
    comm: CommStats,
    report: RankReport,
    trace: RankTrace,
    master: MasterReport,
}

/// Run one engine stage on `p ≥ 2` simulated ranks.
///
/// # Panics
/// A rank that fails with anything but a scripted kill — a malformed
/// message, a vanished world — takes the stage down: the panic names
/// the stage, the rank, and (through the [`CommError`]) the peer and
/// tag. This is the one place such an error becomes a panic.
pub fn run_stage<C: StageClient>(
    p: usize,
    spec: &StageSpec,
    opts: &RunOpts,
    client: &C,
) -> StageRun<C::Output> {
    let (trace, recovery) = (opts.trace, &opts.recovery);
    let ranks = pgasm_mpisim::run(p, move |comm| -> Result<RankRun<C::Output>, CommError> {
        let rank = comm.rank();
        let role = if rank == 0 { "master" } else { "worker" };
        comm.set_tracer(trace.tracer(rank, role));
        // Arm scripted failures before any traffic. Drops and delays
        // apply to point-to-point sends only and a kill names a lease,
        // so a pre-phase made of collectives runs untouched and a kill
        // lands inside the protocol — after the last barrier any rank
        // will ever pass.
        if !recovery.faults.is_empty() {
            comm.set_fault_plan(&recovery.faults);
        }
        let pre_t0 = Instant::now();
        let pre = client.pre_phase(comm);
        let pre_seconds = pre_t0.elapsed().as_secs_f64();

        let before = comm.stats();
        let cpu0 = thread_cpu_seconds();
        let t0 = Instant::now();
        let (mut master, mut scopes_adopted) = (MasterReport::default(), 0);
        let (output, client_counters) = if rank == 0 {
            let mut source = client.source(pre);
            if let Some(payload) =
                recovery.resume_from.as_deref().and_then(|path| read_checkpoint(path, spec.name))
            {
                // All or nothing: a snapshot the source rejects leaves
                // it fresh, and the stage starts cold.
                let _ = source.restore(&payload);
            }
            let seed = client.seed(&source);
            let hook = recovery.ckpt_spec().map(|(path, every)| CheckpointHook {
                write: Box::new(move |source: &mut C::Source, report: &MasterReport| {
                    write_checkpoint(path, spec.name, &source.snapshot(report)).unwrap_or(0)
                }),
                every,
            });
            master = run_master(comm, &spec.engine, &mut source, seed, hook)?;
            client.master_output(source, &master)
        } else {
            let mut sink = client.sink(comm, pre);
            let worker = run_worker(comm, &spec.engine, &mut sink)?;
            scopes_adopted = worker.scopes_adopted;
            client.worker_output(sink, &worker)
        };
        let wall = t0.elapsed().as_secs_f64();
        let cpu = thread_cpu_seconds() - cpu0;
        let after = comm.stats();
        let phase = after.since(before);
        let blocked = phase.blocked_seconds();

        // Per-tag traffic of the whole rank body (pre-phase collectives
        // included) with the protocol tags under this stage's labels.
        let mut comm_rows = comm.tag_stats(&CostModel::BLUEGENE_L);
        for row in &mut comm_rows {
            if let Some(i) = PROTOCOL_TAGS.iter().position(|&t| t == row.tag) {
                row.label = spec.tag_labels[i].to_string();
            }
        }
        let mut counters: BTreeMap<String, u64> =
            client_counters.into_iter().map(|(name, value)| (name.to_string(), value)).collect();
        // Blocked totals cover the whole rank body: the traced `wait`
        // and `barrier` spans are checked against them.
        counters.insert(names::WAIT_NS_TOTAL.to_string(), after.wait_ns);
        counters.insert(names::BARRIER_NS_TOTAL.to_string(), after.barrier_ns);
        // Recovery and injected-fault tallies: only the nonzero ones,
        // so fault-free runs keep byte-identical reports.
        let fs = comm.fault_stats();
        for (name, value) in [
            (names::RECOVERED_TASKS, master.recovered_tasks),
            (names::DEAD_RANKS, master.dead_ranks),
            (names::CKPT_WRITES, master.ckpt_writes),
            (names::CKPT_BYTES, master.ckpt_bytes),
            (names::SCOPES_ADOPTED, scopes_adopted),
            (names::FAULT_KILLS, fs.kills),
            (names::FAULT_MSGS_DROPPED, fs.msgs_dropped),
            (names::FAULT_MSGS_DELAYED, fs.msgs_delayed),
            (names::FAULT_DEATH_NOTICES, fs.death_notices),
            (names::FAULT_MSGS_LOST, fs.msgs_lost),
        ] {
            if value > 0 {
                counters.insert(name.to_string(), value);
            }
        }
        Ok(RankRun {
            output,
            pre_seconds,
            wall,
            cpu,
            idle_fraction: if wall > 0.0 { (blocked / wall).min(1.0) } else { 0.0 },
            comm: phase,
            report: RankReport {
                rank,
                role: role.to_string(),
                cpu_seconds: cpu,
                idle_seconds: blocked,
                counters,
                comm: comm_rows,
            },
            trace: comm.take_trace(),
            master,
        })
    });

    let mut run = StageRun {
        outputs: Vec::with_capacity(p),
        pre_seconds: Vec::with_capacity(p),
        seconds: 0.0,
        cpu_seconds: Vec::with_capacity(p),
        worker_idle_fraction: Vec::with_capacity(p - 1),
        master_availability: 0.0,
        comm: Vec::with_capacity(p),
        ranks: Vec::with_capacity(p),
        traces: Vec::with_capacity(p),
        recovered_tasks: 0,
        dead_ranks: 0,
        killed: false,
    };
    for (rank, outcome) in ranks.into_iter().enumerate() {
        let r = outcome.unwrap_or_else(|e| panic!("{} stage, rank {rank}: {e}", spec.name));
        if rank == 0 {
            run.master_availability = r.idle_fraction;
            (run.recovered_tasks, run.dead_ranks, run.killed) =
                (r.master.recovered_tasks, r.master.dead_ranks, r.master.killed);
        } else {
            run.worker_idle_fraction.push(r.idle_fraction);
        }
        run.outputs.push(r.output);
        run.pre_seconds.push(r.pre_seconds);
        run.seconds = run.seconds.max(r.wall);
        run.cpu_seconds.push(r.cpu);
        run.comm.push(r.comm);
        run.ranks.push(r.report);
        run.traces.push(r.trace);
    }
    run
}

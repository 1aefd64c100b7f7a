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
    WorkerReport,
};
use crate::checkpoint::{read_checkpoint, write_checkpoint, StageRecovery};
use pgasm_mpisim::{thread_cpu_seconds, Comm, CommError};
use pgasm_seq::wire::WireError;
use pgasm_telemetry::trace::{RankTrace, TraceSpec};
use pgasm_telemetry::{names, RankReport};
use std::collections::BTreeMap;
use std::time::Instant;

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
    /// The stage's own two tags (`names::TAG_*`), no other stage's:
    /// `[report, grant]`. A report goes worker → master once per round:
    /// `lease: u64` of the batch just computed (`0` when the last grant
    /// carried none — the opening report included), the client's result
    /// body, `active: u32` (the generator can still yield), `n: u32` and
    /// `n` newly generated tasks; it doubles as the request for the next
    /// allocation. A grant goes master → worker, one per report (or
    /// unsolicited, to a parked worker): `terminate: u32`, and unless
    /// that is `1`, the next request size `r: u32`, the `u32` slice of
    /// dead generator scopes to adopt, the `lease: u64` of the batch (`0`
    /// when it is empty), `n: u32` and `n` tasks.
    pub tags: [u32; 2],
    /// Protocol shape.
    pub engine: EngineConfig,
}

/// Master-side state a checkpoint can carry across a restart. Workers
/// hold nothing durable: on resume they redo their part from the shared
/// input and the restored source discards what it already has.
pub trait Snapshot {
    /// Serialize the durable state and nothing else. Takes `self`
    /// mutably so snapshotting may normalise internal state without an
    /// extra copy.
    fn snapshot(&mut self) -> Vec<u8>;
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
/// whether the master was killed. Every fault and recovery tally is a
/// counter of [`names::FAULT_COUNTERS`] in the rank channels.
#[derive(Debug)]
pub struct StageRun<O> {
    /// Each rank's client product.
    pub outputs: Vec<O>,
    /// Wall-clock seconds of the pre-phase (max over ranks).
    pub pre_seconds: f64,
    /// Wall-clock seconds of the protocol phase (max over ranks).
    pub seconds: f64,
    /// Per-worker idle fraction: its channel's `idle_seconds` over its
    /// protocol-phase wall time.
    pub worker_idle_fraction: Vec<f64>,
    /// Fraction of the phase the master spent blocked awaiting reports.
    pub master_availability: f64,
    /// Per-rank telemetry channels: `cpu_seconds` and `idle_seconds`
    /// cover the protocol phase; the `comm` rows and the
    /// `wait_ns_total` / `barrier_ns_total` counters the whole rank body.
    pub ranks: Vec<RankReport>,
    /// Per-rank event traces (empty tracks when tracing was off).
    pub traces: Vec<RankTrace>,
    /// The fault plan killed the master: rank 0's output is partial and
    /// the run should resume from the last checkpoint.
    pub killed: bool,
}

/// One rank's share of a [`StageRun`].
struct RankRun<O> {
    output: O,
    pre_seconds: f64,
    wall: f64,
    report: RankReport,
    trace: RankTrace,
    master: MasterReport,
}

/// Run one engine stage on `p ≥ 2` simulated ranks, tracing under
/// `trace` and recovering per `recovery`.
///
/// # Panics
/// A rank that fails with anything but a scripted kill — a malformed
/// message, a vanished world — takes the stage down: the panic names
/// the stage, the rank, and (through the [`CommError`]) the peer and
/// tag. This is the one place such an error becomes a panic.
pub fn run_stage<C: StageClient>(
    p: usize,
    spec: &StageSpec,
    trace: TraceSpec,
    recovery: &StageRecovery,
    client: &C,
) -> StageRun<C::Output> {
    let ranks = pgasm_mpisim::run(p, move |comm| -> Result<RankRun<C::Output>, CommError> {
        let rank = comm.rank();
        let role = if rank == 0 { "master" } else { "worker" };
        comm.set_tracer(trace.tracer(rank, role));
        // Arm scripted failures before any traffic. Every clause names
        // a lease, so a pre-phase made of collectives runs untouched and
        // a fault lands inside the protocol — after the last barrier any
        // rank will ever pass.
        if !recovery.faults.is_empty() {
            comm.set_fault_plan(&recovery.faults);
        }
        let pre_t0 = Instant::now();
        let pre = client.pre_phase(comm);
        let pre_seconds = pre_t0.elapsed().as_secs_f64();

        let blocked0 = comm.wait_ns() + comm.barrier_ns();
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
                write: Box::new(move |source: &mut C::Source| {
                    write_checkpoint(path, spec.name, &source.snapshot()).unwrap_or(0)
                }),
                every,
            });
            master = run_master(comm, &spec.engine, spec.tags, &mut source, seed, hook)?;
            client.master_output(source, &master)
        } else {
            let mut sink = client.sink(comm, pre);
            let worker = run_worker(comm, &spec.engine, spec.tags, &mut sink)?;
            scopes_adopted = worker.scopes_adopted;
            client.worker_output(sink, &worker)
        };
        let wall = t0.elapsed().as_secs_f64();
        let cpu = thread_cpu_seconds() - cpu0;
        let (wait_ns, barrier_ns) = (comm.wait_ns(), comm.barrier_ns());
        let blocked = (wait_ns + barrier_ns - blocked0) as f64 * 1e-9;

        let mut counters: BTreeMap<String, u64> =
            client_counters.into_iter().map(|(name, value)| (name.to_string(), value)).collect();
        // Blocked totals cover the whole rank body: the traced `wait`
        // and `barrier` spans are checked against them.
        counters.insert(names::WAIT_NS_TOTAL.to_string(), wait_ns);
        counters.insert(names::BARRIER_NS_TOTAL.to_string(), barrier_ns);
        // Recovery and injected-fault tallies, one per name of
        // `names::FAULT_COUNTERS`: only the nonzero ones, so fault-free
        // runs keep byte-identical reports.
        let fs = comm.fault_stats();
        let tallies = [
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
        ];
        debug_assert!(tallies.iter().map(|t| t.0).eq(names::FAULT_COUNTERS));
        for (name, value) in tallies {
            if value > 0 {
                counters.insert(name.to_string(), value);
            }
        }
        Ok(RankRun {
            output,
            pre_seconds,
            wall,
            report: RankReport {
                rank,
                role: role.to_string(),
                cpu_seconds: cpu,
                idle_seconds: blocked,
                counters,
                // Per-tag traffic of the whole rank body, pre-phase
                // collectives included.
                comm: comm.tag_stats(),
            },
            trace: comm.take_trace(),
            master,
        })
    });

    let mut run = StageRun {
        outputs: Vec::with_capacity(p),
        pre_seconds: 0.0,
        seconds: 0.0,
        worker_idle_fraction: Vec::with_capacity(p - 1),
        master_availability: 0.0,
        ranks: Vec::with_capacity(p),
        traces: Vec::with_capacity(p),
        killed: false,
    };
    for (rank, outcome) in ranks.into_iter().enumerate() {
        let r = outcome.unwrap_or_else(|e| panic!("{} stage, rank {rank}: {e}", spec.name));
        let idle_fraction = if r.wall > 0.0 { (r.report.idle_seconds / r.wall).min(1.0) } else { 0.0 };
        if rank == 0 {
            run.master_availability = idle_fraction;
            run.killed = r.master.killed;
        } else {
            run.worker_idle_fraction.push(idle_fraction);
        }
        run.outputs.push(r.output);
        run.pre_seconds = run.pre_seconds.max(r.pre_seconds);
        run.seconds = run.seconds.max(r.wall);
        run.ranks.push(r.report);
        run.traces.push(r.trace);
    }
    run
}

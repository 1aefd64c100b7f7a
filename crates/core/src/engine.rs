//! Generic distributed task engine — the event-driven master–worker
//! protocol of §7, which both distributed stages ride.
//!
//! The engine owns everything the paper's Figs. 6–8 describe about
//! *work distribution* and nothing about the work itself:
//!
//! - the two-message round — a worker reports its computed results,
//!   its generator status and its newly generated tasks in one
//!   [`TAG_REPORT`]; the master answers with one [`TAG_GRANT`] carrying
//!   termination or the next request size, the adoption list and the
//!   leased task batch;
//! - the master's event pump ([`run_master`]): drain **all** queued
//!   reports through `try_recv` before dispatching, block in the one
//!   `recv` only on a truly empty inbox;
//! - the pending-task buffer, the [`compute_r`] flow-control rule, the
//!   park/unpark service for passive workers, and clean termination
//!   (every worker passive + parked, nothing pending or in flight);
//! - protocol trace instrumentation (dispatch spans, handle/park/unpark
//!   instants) and the protocol counters (peak queue depth, batches
//!   dispatched, inbox drain depth, round-trips);
//! - the per-rank shell every stage runs inside ([`run_stage`]): comm
//!   set-up, checkpoint resume and cadence, timing, and the folding of
//!   traffic, fault and recovery tallies into one
//!   [`pgasm_telemetry::RankReport`] per rank.
//!
//! What a *task* is, how it travels on the wire, how results are
//! encoded, and which of the announced tasks are worth dispatching are
//! the client's business, expressed through three small traits:
//! [`Task`] (wire form), [`TaskSource`] (master-side absorption and
//! selection), and [`TaskSink`] (worker-side compute and generation).
//! Clustering (`crate::master_worker`) generates its tasks on the
//! workers; distributed per-cluster assembly (`crate::assemble_dist`)
//! seeds the master's queue up-front with workers that never generate —
//! a degenerate but fully legal instance of the same protocol.
//!
//! # Bytes
//!
//! Every body is written with [`pgasm_seq::wire::Writer`] and read
//! with the checked [`Reader`]: a body that is short, long or
//! structurally wrong — a client's sink and source disagreeing about a
//! layout, say — becomes [`CommError::Malformed`] naming the sender and
//! the tag, never an index panic inside a decoder. The rank that finds
//! one tells its peers it is leaving ([`Comm::abort`]) and returns the
//! error; [`run_stage`] turns it into the stage's one diagnostic panic.
//!
//! # Fault tolerance
//!
//! Every allocation is a *lease*: the master journals each non-empty
//! batch it dispatches under a fresh lease id (carried on the grant
//! and echoed back on the report that answers it), and retires the
//! lease when the report arrives. A report whose lease is no longer
//! journaled — a late or duplicate replay after recovery — is
//! discarded whole, so every batch's results are absorbed **at most
//! once**. A round is one message each way, so it is atomic on the
//! wire: the master never sees results without the round that carried
//! them, a worker never a grant without its batch. When a worker's
//! death notice arrives, the master marks the rank dead, re-queues its
//! outstanding leases to survivors, and — if the dead worker's task
//! generator was still active — assigns its generator *scope* to the
//! lowest live worker, which rebuilds it from scratch through
//! [`TaskSink::adopt_scope`]. A *lost* message (a
//! dropped report or grant) is detected from protocol state, never
//! from a clock: the run comes to rest with the master unfinished, the
//! simulator reports [`Event::Quiescent`], and the master recovers
//! exactly the live workers that still hold a lease or an open round —
//! at rest those can never be retired — the same way. With no fault
//! plan armed, or nobody to blame, quiescence is an engine bug and the
//! master panics with a dump of the outstanding leases; a worker that
//! is told instead (the master left without a word) treats the master
//! as lost. Regenerated duplicates are the client's
//! problem by contract (idempotent absorption / selection dedup); the
//! paper's clustering client gets this for free from its union–find
//! and cluster-check skip. The run terminates cleanly at any survivor
//! count ≥ 1; a killed master surfaces as
//! [`MasterReport::killed`] / [`WorkerReport::master_died`] instead of
//! a hang.
//!
//! A *scripted* kill (`pgasm_mpisim::faults`) names a lease, so it is
//! carried out here, where leases are numbered, and by no counter: the
//! master asks the armed plan about the id it is about to issue
//! ([`Comm::kills_at`], then [`Comm::kill`] in place of the grant), a
//! worker about the id on the grant it has just taken — it dies before
//! computing or reporting, so provably holding that lease
//! unacknowledged.
//!
//! The engine works over the `mpisim` rank model, so per-tag traffic
//! accounting and blocked-time attribution apply to any client
//! unchanged.

mod stage;

pub use stage::{run_stage, Counters, RunOpts, Snapshot, StageClient, StageRun, StageSpec};

use pgasm_mpisim::{Comm, CommError, Event, Msg};
use pgasm_seq::wire::{checked_len, Reader, WireError, Writer};
use pgasm_telemetry::names;
use pgasm_telemetry::trace::{TraceCategory, Tracer};
use std::collections::{BTreeMap, VecDeque};
use std::fmt::Write as _;

/// Worker → master, once per round: `lease: u64` of the batch just
/// computed (`0` when the last grant carried none — the opening report
/// included), the client's result body ([`TaskSink::run_batch`] writes
/// it, [`TaskSource::absorb_results`] reads it), `active: u32` (the
/// generator can still yield), `n: u32` and `n` newly generated tasks.
/// It doubles as the request for the next allocation.
pub const TAG_REPORT: u32 = 1;
/// Master → worker, one per report (or unsolicited, to a parked
/// worker): `terminate: u32`, and unless that is `1`, the next request
/// size `r: u32`, the `u32` slice of dead generator scopes to adopt,
/// the `lease: u64` of the batch (`0` when it is empty), `n: u32` and
/// `n` tasks.
pub const TAG_GRANT: u32 = 2;
/// The two protocol tags, in the order [`StageSpec::tag_labels`] names
/// them.
pub const PROTOCOL_TAGS: [u32; 2] = [TAG_REPORT, TAG_GRANT];

/// Engine runtime knobs: the shape of the protocol.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EngineConfig {
    /// Task batch size `b` (tasks per grant).
    pub batch: usize,
    /// Capacity of the master's pending-task buffer (flow-control
    /// target; the buffer itself degrades gracefully if exceeded).
    pub pending_cap: usize,
}

/// The clustering stage's shape (§7: 64 pairs per grant); the assembly
/// stage derives its own from the task list.
impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig { batch: 64, pending_cap: 4096 }
    }
}

/// A unit of work that can cross the simulated wire. `Clone` because
/// the master journals every dispatched batch until its result report
/// retires the lease (the copy is what recovery re-queues).
pub trait Task: Sized + Clone {
    /// Append this task's wire form to `w`.
    fn encode(&self, w: &mut Writer);
    /// Decode one task (must consume exactly what [`Task::encode`]
    /// wrote).
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError>;
    /// Writer pre-allocation hint, bytes per task.
    fn encoded_size_hint(&self) -> usize {
        20
    }
}

/// Master-side client logic: absorb worker results the moment they are
/// drained, and decide which announced tasks still need doing.
pub trait TaskSource<T: Task> {
    /// Consume one worker's result body (what this client's
    /// [`TaskSink::run_batch`] encoded). Called per report as the
    /// inbox drains, so client state is maximally fresh when batches
    /// are cut. Never called twice for the same lease: late/duplicate
    /// replays are dropped by the engine before they reach here. Must
    /// consume exactly what `run_batch` wrote — the report goes on
    /// behind it; an `Err` ends the stage.
    fn absorb_results(&mut self, src: usize, r: &mut Reader<'_>) -> Result<(), WireError>;
    /// A worker announced `task`; return `true` to queue it for
    /// dispatch. Called once per announced task, in arrival order.
    /// After a generator-scope adoption the same task may be announced
    /// again by the adopter — selection must treat re-announcement as
    /// already-done (the clustering client's cluster-check does).
    fn select(&mut self, task: &T) -> bool;
}

/// Worker-side client logic: compute allocated batches and generate new
/// tasks on request.
pub trait TaskSink<T: Task> {
    /// Compute the batch allocated last round (possibly empty — the
    /// opening report) and append the result-report body to `w`. The
    /// body must always be well-formed: the matching
    /// [`TaskSource::absorb_results`] decodes every report, including
    /// the empty opening one.
    fn run_batch(&mut self, tracer: &mut Tracer, batch: &mut Vec<T>, w: &mut Writer);
    /// Generate up to `r` new tasks into `out`; return whether the
    /// generator can still yield more (*active*). A sink with nothing
    /// to generate returns `false` immediately and the engine parks the
    /// worker until the master finds it other ranks' work.
    fn generate(&mut self, tracer: &mut Tracer, r: usize, out: &mut Vec<T>) -> bool;
    /// A worker died with its task generator still active and the
    /// master chose this rank as the adopter: take over generating
    /// `dead_rank`'s scope **from scratch**. The engine cannot know
    /// how far the dead generator got, so regenerated duplicates must
    /// be harmless to the client (idempotent absorption or selection
    /// dedup). Sinks that never generate have nothing to adopt — the
    /// default no-op.
    fn adopt_scope(&mut self, _tracer: &mut Tracer, _dead_rank: usize) {}
}

/// Protocol-level tallies from one master run; the client folds these
/// into its own counters.
#[derive(Debug, Clone, Copy, Default)]
pub struct MasterReport {
    /// Tasks workers announced in their reports (the client's
    /// "generated").
    pub tasks_announced: u64,
    /// Announced tasks the source selected into the pending buffer.
    pub tasks_selected: u64,
    /// Peak depth of the pending-task buffer.
    pub peak_queue_depth: u64,
    /// Non-empty task batches dispatched.
    pub batches_dispatched: u64,
    /// Deepest single drain of the inbox.
    pub inbox_drain_depth_max: u64,
    /// Tasks recovered from dead workers' journaled leases and
    /// re-queued to survivors.
    pub recovered_tasks: u64,
    /// Workers marked dead (death notice, or stuck at quiescence).
    pub dead_ranks: u64,
    /// Result reports absorbed (the checkpoint cadence clock).
    pub results_absorbed: u64,
    /// Snapshots written by the checkpoint hook, and their total bytes.
    pub ckpt_writes: u64,
    /// Total bytes persisted by the checkpoint hook.
    pub ckpt_bytes: u64,
    /// The fault plan killed the master itself; the run is incomplete
    /// and the caller should recover from the last checkpoint.
    pub killed: bool,
}

/// Protocol-level tallies from one worker run.
#[derive(Debug, Clone, Copy, Default)]
pub struct WorkerReport {
    /// Tasks this worker's generator produced.
    pub tasks_generated: u64,
    /// Report/grant round-trips completed.
    pub round_trips: u64,
    /// Generator scopes this worker adopted from dead peers.
    pub scopes_adopted: u64,
    /// The fault plan killed this worker mid-run.
    pub killed: bool,
    /// The master died; this worker exited without termination.
    pub master_died: bool,
}

/// One journaled allocation: which worker holds it and the tasks to
/// re-queue if that worker dies before its report arrives.
struct Lease<T> {
    worker: usize,
    tasks: Vec<T>,
}

/// Where a worker stands in its report/grant round: exactly one of
/// these at any time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Round {
    /// An allocation is in flight to this worker (a report will come).
    Outstanding,
    /// Worker reported its round and awaits the grant that answers it.
    AwaitsGrant,
    /// Worker is passive with no allocation in flight: blocked in a
    /// receive, revivable with an unsolicited grant (Idle_Workers).
    Parked,
    /// Worker is dead (death notice, or stuck at quiescence): excluded
    /// from dispatch, its messages discarded.
    Dead,
}

/// The master's mutable protocol state, separated from the event loop
/// so message handling (absorption, selection) and dispatch (batch
/// cutting, flow control) read as the two halves of Fig. 7 they are.
struct Master<'s, T, S> {
    source: &'s mut S,
    b: usize,
    pending_cap: usize,
    pending: VecDeque<T>,
    /// Worker's generator still has tasks to yield.
    worker_active: Vec<bool>,
    /// Each worker's place in its round, by rank (entry 0, the master's
    /// own, is never read).
    round: Vec<Round>,
    /// Dispatched-but-unacknowledged batches, keyed by lease id.
    journal: BTreeMap<u64, Lease<T>>,
    next_lease: u64,
    /// Dead generator scopes assigned to a worker but not yet carried
    /// on a grant.
    pending_adoptions: Vec<Vec<usize>>,
    /// Dead generator scopes a worker has been granted — reassigned
    /// (rebuilt from scratch) if the adopter dies too.
    adopted_scopes: Vec<Vec<usize>>,
    report: MasterReport,
}

impl<T: Task, S: TaskSource<T>> Master<'_, T, S> {
    /// Apply one worker report the moment it is drained — result
    /// absorption and task selection interleave with message progress
    /// instead of waiting for a dispatch turn. A report from a
    /// dead-declared rank, or one whose lease is no longer journaled,
    /// is discarded whole: that is the replay dedup. A body that does
    /// not decode is the sender's [`CommError::Malformed`].
    fn on_msg(&mut self, comm: &mut Comm, msg: &Msg) -> Result<(), CommError> {
        comm.tracer_mut().instant_arg(TraceCategory::Master, names::EV_HANDLE_REPORT, "src", msg.src as u64);
        self.handle(comm.tracer_mut(), msg).map_err(|_| CommError::Malformed { src: msg.src, tag: msg.tag })
    }

    /// The one decoder of a [`TAG_REPORT`] body.
    fn handle(&mut self, tracer: &mut Tracer, msg: &Msg) -> Result<(), WireError> {
        let i = msg.src;
        if self.round[i] == Round::Dead {
            tracer.instant_args(
                TraceCategory::Fault,
                names::EV_STALE_MSG,
                ("src", i as u64),
                ("tag", msg.tag as u64),
            );
            return Ok(());
        }
        if msg.tag != TAG_REPORT {
            return Err(WireError::Malformed("tag is not a worker report"));
        }
        let mut r = Reader::new(&msg.data);
        let lease = r.get_u64()?;
        if lease != 0 && self.journal.remove(&lease).is_none() {
            // Late or duplicate replay of an already-recovered batch:
            // absorbing it twice would double-count, and the round it
            // closes was closed by its first copy.
            tracer.instant_args(
                TraceCategory::Fault,
                names::EV_STALE_MSG,
                ("src", i as u64),
                ("lease", lease),
            );
            return Ok(());
        }
        self.source.absorb_results(i, &mut r)?;
        self.report.results_absorbed += 1;
        // Newly announced tasks: keep only those the source still wants
        // *right now*.
        let active = r.get_u32()? == 1;
        // A worker that exhausted its own generator stays active while
        // an adoption grant is queued for it.
        self.worker_active[i] = active || !self.pending_adoptions[i].is_empty();
        for _ in 0..r.get_u32()? {
            let task = T::decode(&mut r)?;
            self.report.tasks_announced += 1;
            if self.source.select(&task) {
                self.pending.push_back(task);
                self.report.tasks_selected += 1;
            }
        }
        self.report.peak_queue_depth = self.report.peak_queue_depth.max(self.pending.len() as u64);
        // The report closes the worker's round: it now awaits a grant.
        self.round[i] = Round::AwaitsGrant;
        r.expect_end()
    }

    /// Answer every worker whose round completed and feed parked
    /// workers from the pending buffer (Fig. 7's Idle_Workers service).
    fn dispatch(&mut self, comm: &mut Comm) -> Result<(), CommError> {
        let p = self.worker_active.len();
        for i in 1..p {
            if self.round[i] != Round::AwaitsGrant {
                continue;
            }
            let batch = drain_batch(&mut self.pending, self.b);
            let r = self.flow_control();
            if batch.is_empty() && !self.worker_active[i] {
                // Nothing to do and nothing left to generate: park it
                // (the empty batch tells the worker to block).
                self.round[i] = Round::Parked;
                comm.tracer_mut().instant_arg(TraceCategory::Master, names::EV_PARK, "worker", i as u64);
            } else {
                self.round[i] = Round::Outstanding;
            }
            self.grant(comm, i, r, batch)?;
        }
        for j in 1..p {
            if self.round[j] != Round::Parked {
                continue;
            }
            if self.pending.is_empty() && self.pending_adoptions[j].is_empty() {
                continue;
            }
            let batch = drain_batch(&mut self.pending, self.b);
            let r = self.flow_control();
            self.round[j] = Round::Outstanding;
            comm.tracer_mut().instant_arg(TraceCategory::Master, names::EV_UNPARK, "worker", j as u64);
            self.grant(comm, j, r, batch)?;
        }
        Ok(())
    }

    /// Send one live allocation: journal the batch under a fresh lease
    /// and attach any adoption scopes queued for this worker. A kill
    /// the plan scripts for the master at that lease happens here, in
    /// place of issuing it.
    fn grant(&mut self, comm: &mut Comm, dest: usize, r: usize, batch: Vec<T>) -> Result<(), CommError> {
        let lease = if batch.is_empty() {
            0
        } else {
            let id = self.next_lease;
            if comm.kills_at(true, id) {
                return Err(comm.kill(id));
            }
            self.report.batches_dispatched += 1;
            self.next_lease += 1;
            self.journal.insert(id, Lease { worker: dest, tasks: batch.clone() });
            id
        };
        let adopt = std::mem::take(&mut self.pending_adoptions[dest]);
        if !adopt.is_empty() {
            for &scope in &adopt {
                comm.tracer_mut().instant_args(
                    TraceCategory::Fault,
                    names::EV_ADOPT_SCOPE,
                    ("dead", scope as u64),
                    ("adopter", dest as u64),
                );
            }
            self.adopted_scopes[dest].extend(adopt.iter().copied());
            // The adoption grant re-activates the worker's generator.
            self.worker_active[dest] = true;
        }
        send_grant(comm, dest, r, lease, &batch, &adopt, false)
    }

    fn flow_control(&self) -> usize {
        compute_r(
            self.b,
            self.pending_cap,
            self.pending.len(),
            &self.worker_active,
            self.report.tasks_announced,
            self.report.tasks_selected,
        )
    }

    /// Every live worker passive and parked, nothing pending, no lease
    /// unacknowledged, no adoption undelivered. The journal term is
    /// what turns a dropped report into detectable quiescence instead
    /// of silent task loss.
    fn finished(&self) -> bool {
        let p = self.worker_active.len();
        (1..p).all(|i| match self.round[i] {
            Round::Dead => true,
            Round::Parked => !self.worker_active[i],
            Round::Outstanding | Round::AwaitsGrant => false,
        }) && self.pending.is_empty()
            && self.journal.is_empty()
            && self.pending_adoptions.iter().all(Vec::is_empty)
    }

    /// Mark a worker dead and recover everything it held: re-queue its
    /// journaled leases to the pending buffer and hand its generator
    /// scope (own + previously adopted) to the lowest live worker.
    fn on_death(&mut self, comm: &mut Comm, i: usize) {
        if i == 0 || self.round[i] == Round::Dead {
            return;
        }
        self.round[i] = Round::Dead;
        self.report.dead_ranks += 1;
        // Re-queue every batch the dead worker never acknowledged.
        let ids: Vec<u64> = self.journal.iter().filter(|(_, l)| l.worker == i).map(|(&id, _)| id).collect();
        let mut recovered = 0u64;
        for id in ids {
            let lease = self.journal.remove(&id).expect("id collected above");
            recovered += lease.tasks.len() as u64;
            self.pending.extend(lease.tasks);
        }
        if recovered > 0 {
            self.report.recovered_tasks += recovered;
            self.report.peak_queue_depth = self.report.peak_queue_depth.max(self.pending.len() as u64);
            comm.tracer_mut().instant_args(
                TraceCategory::Fault,
                names::EV_RECOVER_LEASES,
                ("worker", i as u64),
                ("tasks", recovered),
            );
        }
        // Generator scope: the dead worker's own (if still active) plus
        // every scope it had adopted, all rebuilt from scratch by the
        // new adopter.
        let mut scopes = std::mem::take(&mut self.pending_adoptions[i]);
        scopes.extend(std::mem::take(&mut self.adopted_scopes[i]));
        if self.worker_active[i] {
            scopes.push(i);
        }
        self.worker_active[i] = false;
        let p = self.worker_active.len();
        if !scopes.is_empty() {
            let adopter = (1..p).find(|&j| self.round[j] != Round::Dead).unwrap_or_else(|| {
                panic!("rank {i} died with generator scope outstanding and no survivor to adopt it")
            });
            self.pending_adoptions[adopter].extend(scopes);
            self.worker_active[adopter] = true;
        }
        if (1..p).all(|j| self.round[j] == Round::Dead)
            && !(self.pending.is_empty() && self.journal.is_empty())
        {
            panic!(
                "every worker is dead with {} task(s) still pending — the fault plan left no survivors",
                self.pending.len()
            );
        }
    }

    /// The run came to rest unfinished: no report is on its way, so a
    /// live worker that holds a lease or an open round can never retire
    /// it (its report or its grant was lost on the wire, or it left
    /// without a death notice). With a fault plan armed, recover exactly
    /// those workers; without one — or with nobody to blame — this is
    /// an engine bug and the diagnostic dump is worth more than a hang.
    fn on_quiescent(&mut self, comm: &mut Comm) {
        let p = self.worker_active.len();
        let stuck: Vec<usize> = (1..p)
            .filter(|&i| match self.round[i] {
                Round::Dead => false,
                Round::Outstanding => true,
                Round::AwaitsGrant | Round::Parked => self.journal.values().any(|l| l.worker == i),
            })
            .collect();
        if stuck.is_empty() || !comm.has_fault_plan() {
            panic!("{}", self.stall_dump());
        }
        for i in stuck {
            comm.tracer_mut().instant_arg(
                TraceCategory::Fault,
                names::EV_LIVENESS_DECLARE,
                "worker",
                i as u64,
            );
            self.on_death(comm, i);
        }
    }

    /// Human-readable snapshot of the stalled protocol state.
    fn stall_dump(&self) -> String {
        let p = self.worker_active.len();
        let mut s = String::from("engine stalled: every rank is blocked and no message is in flight\n");
        let _ = writeln!(s, "  pending tasks: {}", self.pending.len());
        for (id, lease) in &self.journal {
            let _ = writeln!(
                s,
                "  lease {id}: worker {} holds {} task(s) unacknowledged",
                lease.worker,
                lease.tasks.len()
            );
        }
        for i in 1..p {
            let _ = writeln!(
                s,
                "  worker {i}: active={} round={:?} adoptions_pending={}",
                self.worker_active[i],
                self.round[i],
                self.pending_adoptions[i].len(),
            );
        }
        s
    }
}

/// What a [`CheckpointHook`] calls. Takes the source mutably so
/// snapshotting may normalise internal state (e.g. Union–Find path
/// compression) without an extra copy.
pub type SnapshotWriter<'a, S> = dyn FnMut(&mut S, &MasterReport) -> u64 + 'a;

/// Periodic master checkpointing: the engine invokes `write` with the
/// client source and the running protocol report after every `every`
/// absorbed result reports; the callback owns serialization and
/// persistence and returns the bytes written (for the `ckpt_bytes`
/// counter and the checkpoint trace instant).
pub struct CheckpointHook<'a, S> {
    /// Persist one snapshot; returns bytes written.
    pub write: Box<SnapshotWriter<'a, S>>,
    /// Snapshot after every this many absorbed result reports.
    pub every: u64,
}

/// Run the master's event loop (paper Fig. 7) on rank 0. `seed_tasks`
/// pre-loads the pending buffer for workloads where the master owns the
/// whole task list (distributed assembly); task-generating workloads
/// (clustering) pass an empty seed. `checkpoint`, when given, is
/// invoked on the absorbed-results clock. Returns when every worker has
/// been sent its termination grant — or, under an armed fault plan,
/// when the plan kills the master ([`MasterReport::killed`]). Any other
/// failure is announced to the workers ([`Comm::abort`]) and returned.
pub fn run_master<T: Task, S: TaskSource<T>>(
    comm: &mut Comm,
    config: &EngineConfig,
    source: &mut S,
    seed_tasks: Vec<T>,
    checkpoint: Option<CheckpointHook<'_, S>>,
) -> Result<MasterReport, CommError> {
    let p = comm.size();
    let seeded = seed_tasks.len() as u64;
    let mut m = Master {
        source,
        b: config.batch,
        pending_cap: config.pending_cap,
        pending: {
            let mut q = VecDeque::with_capacity(config.pending_cap.max(seed_tasks.len()));
            q.extend(seed_tasks);
            q
        },
        worker_active: vec![true; p],
        // Workers open with an unsolicited first report.
        round: vec![Round::Outstanding; p],
        journal: BTreeMap::new(),
        next_lease: 1,
        pending_adoptions: vec![Vec::new(); p],
        adopted_scopes: vec![Vec::new(); p],
        report: MasterReport { peak_queue_depth: seeded, ..MasterReport::default() },
    };
    match master_pump(comm, &mut m, checkpoint) {
        Ok(()) => {}
        // The fault plan killed this rank; workers observe the death
        // notice and exit. The partial report lets the caller recover.
        Err(CommError::Killed { .. }) => m.report.killed = true,
        Err(e) => {
            comm.abort();
            return Err(e);
        }
    }
    Ok(m.report)
}

/// The master's event pump.
fn master_pump<T: Task, S: TaskSource<T>>(
    comm: &mut Comm,
    m: &mut Master<'_, T, S>,
    mut checkpoint: Option<CheckpointHook<'_, S>>,
) -> Result<(), CommError> {
    let p = comm.size();
    let mut ckpt_marker: u64 = 0;

    loop {
        // Checkpoint on the absorbed-results clock, at a point where
        // the inbox is drained and no decode is partial, so the snapshot
        // is a consistent cut of the client's master-side state.
        if let Some(hook) = checkpoint.as_mut() {
            if hook.every > 0 && m.report.results_absorbed >= ckpt_marker + hook.every {
                ckpt_marker = m.report.results_absorbed;
                let bytes = (hook.write)(&mut *m.source, &m.report);
                m.report.ckpt_writes += 1;
                m.report.ckpt_bytes += bytes;
                comm.tracer_mut().instant_args(
                    TraceCategory::Fault,
                    names::EV_CHECKPOINT,
                    ("bytes", bytes),
                    ("absorbed", m.report.results_absorbed),
                );
            }
        }

        // Inbox empty: answer completed rounds, revive parked workers.
        comm.tracer_mut().begin(TraceCategory::Master, names::EV_DISPATCH);
        m.dispatch(comm)?;
        comm.tracer_mut().end(TraceCategory::Master, names::EV_DISPATCH);
        // Protocol gauges, rate-limited by the tracer as the pump turns:
        // queue pressure and worker occupancy over time, not only their
        // peaks. The occupancy counts are O(p), so only when tracing.
        let tracer = comm.tracer_mut();
        if tracer.is_enabled() {
            let count = |round| m.round[1..].iter().filter(|&&r| r == round).count() as u64;
            let (out, parked) = (count(Round::Outstanding), count(Round::Parked));
            tracer.counter(TraceCategory::Master, names::GAUGE_WORKERS_OUTSTANDING, out);
            tracer.counter(TraceCategory::Master, names::GAUGE_WORKERS_PARKED, parked);
            tracer.counter(TraceCategory::Master, names::GAUGE_PENDING_TASKS, m.pending.len() as u64);
        }

        if m.finished() {
            // Every rank gets a termination grant, the dead-declared
            // included: a notice-dead peer's grant is a counted
            // blackhole, while a worker declared dead at quiescence is
            // alive and needs it to stop blocking and exit.
            for i in 1..p {
                send_grant::<T>(comm, i, 0, 0, &[], &[], true)?;
            }
            return Ok(());
        }

        // Nothing left to do until a worker reports — or the simulator
        // reports that none ever will: block. Then consume everything
        // else already queued before the next dispatch decision, so
        // results from fast workers land before batches are cut for
        // slow ones.
        let mut next = Some(comm.recv(None, None)?);
        let mut drain_depth: u64 = 0;
        while let Some(event) = next {
            match event {
                Event::Msg(msg) => {
                    drain_depth += 1;
                    m.on_msg(comm, &msg)?;
                    let tracer = comm.tracer_mut();
                    tracer.counter(TraceCategory::Master, names::GAUGE_PENDING_TASKS, m.pending.len() as u64);
                    tracer.counter(TraceCategory::Master, names::GAUGE_INBOX_DEPTH, drain_depth);
                }
                Event::Death(i) => m.on_death(comm, i),
                Event::Quiescent => m.on_quiescent(comm),
            }
            next = comm.try_recv(None, None)?;
        }
        m.report.inbox_drain_depth_max = m.report.inbox_drain_depth_max.max(drain_depth);
    }
}

fn drain_batch<T>(pending: &mut VecDeque<T>, b: usize) -> Vec<T> {
    let take = b.min(pending.len());
    pending.drain(..take).collect()
}

/// The one encoder of a [`TAG_GRANT`] body. *Every* master
/// transmission — round reply, unsolicited grant to a parked worker,
/// termination — goes through here, and the worker reads them all
/// through [`decode_grant`].
fn send_grant<T: Task>(
    comm: &mut Comm,
    dest: usize,
    r: usize,
    lease: u64,
    batch: &[T],
    adopt: &[usize],
    terminate: bool,
) -> Result<(), CommError> {
    let mut w = Writer::with_capacity(
        24 + 4 * adopt.len() + batch.iter().map(Task::encoded_size_hint).sum::<usize>(),
    );
    w.put_u32(terminate as u32);
    if !terminate {
        w.put_u32(r as u32);
        w.put_u32(checked_len(adopt.len()));
        for &scope in adopt {
            w.put_u32(scope as u32);
        }
        w.put_u64(lease);
        w.put_u32(checked_len(batch.len()));
        for task in batch {
            task.encode(&mut w);
        }
    }
    comm.send(dest, TAG_GRANT, w.finish())
}

/// What a live grant carries.
struct Grant<T> {
    /// How many tasks to generate for the next report.
    r: usize,
    /// Dead generator scopes to take over.
    adopt: Vec<u32>,
    /// Lease id of `batch` (`0` when it is empty).
    lease: u64,
    batch: Vec<T>,
}

/// The one decoder of a [`TAG_GRANT`] body; `None` terminates the run.
fn decode_grant<T: Task>(body: &[u8]) -> Result<Option<Grant<T>>, WireError> {
    let mut r = Reader::new(body);
    let grant = if r.get_u32()? == 1 {
        None
    } else {
        Some(Grant {
            r: r.get_u32()? as usize,
            adopt: r.get_u32_slice()?,
            lease: r.get_u64()?,
            batch: (0..r.get_u32()?).map(|_| T::decode(&mut r)).collect::<Result<_, _>>()?,
        })
    };
    r.expect_end()?;
    Ok(grant)
}

/// The paper's flow-control rule (§7): request enough tasks that about
/// `b` of them will be selected for dispatch, without overflowing the
/// pending buffer. Never zero: under backpressure (pending buffer at
/// capacity) an active worker must still drain its generator one task
/// at a time, otherwise it spins in empty report/grant round-trips and
/// the run stops progressing toward generator exhaustion.
pub fn compute_r(
    b: usize,
    cap: usize,
    pending: usize,
    active: &[bool],
    generated: u64,
    selected: u64,
) -> usize {
    let p_active = active[1..].iter().filter(|&&a| a).count().max(1);
    let ratio = if generated < 64 { 0.5 } else { (selected as f64 / generated as f64).max(0.02) };
    let by_ratio = (b as f64 / ratio).ceil() as usize;
    let by_capacity = cap.saturating_sub(pending) / p_active;
    by_ratio.min(by_capacity).min(8 * b).max(1)
}

/// Run a worker's event loop (paper Fig. 8) on ranks 1..p: compute the
/// previously allocated batch, generate the `r` tasks the master asked
/// for, report both, receive the next allocation — parking when passive
/// and idle until the master finds work or terminates the run. Under an
/// armed fault plan the loop also ends when the plan kills this rank
/// ([`WorkerReport::killed`]); it ends, too, when the master's death
/// notice arrives or the run comes to rest without the master
/// ([`WorkerReport::master_died`]). Any other failure is announced to
/// the peers ([`Comm::abort`]) and returned.
pub fn run_worker<T: Task, S: TaskSink<T>>(
    comm: &mut Comm,
    config: &EngineConfig,
    sink: &mut S,
) -> Result<WorkerReport, CommError> {
    let mut report = WorkerReport::default();
    match worker_pump(comm, config, sink, &mut report) {
        Ok(master_died) => report.master_died = master_died,
        Err(CommError::Killed { .. }) => report.killed = true,
        Err(e) => {
            comm.abort();
            return Err(e);
        }
    }
    Ok(report)
}

/// Next grant from the master; `None` when the master died — or left
/// without a word, which a worker learns as quiescence. Peer-worker
/// deaths are the master's business, not a worker's — their notices are
/// skipped.
fn recv_grant(comm: &mut Comm) -> Result<Option<Msg>, CommError> {
    loop {
        match comm.recv(Some(0), Some(TAG_GRANT))? {
            Event::Death(0) | Event::Quiescent => return Ok(None),
            Event::Death(_) => continue,
            Event::Msg(m) => return Ok(Some(m)),
        }
    }
}

/// The worker's round loop; `Ok(true)` means the master died mid-run.
fn worker_pump<T: Task, S: TaskSink<T>>(
    comm: &mut Comm,
    config: &EngineConfig,
    sink: &mut S,
    report: &mut WorkerReport,
) -> Result<bool, CommError> {
    let mut r = config.batch;
    let mut batch: Vec<T> = Vec::new();
    let mut announced: Vec<T> = Vec::new();
    // Lease id of `batch`, echoed on the report so the master can
    // retire the journal entry (0 = nothing was leased).
    let mut lease: u64 = 0;
    loop {
        // Compute the tasks allocated last round; the client encodes
        // its results behind the engine's lease prefix.
        let mut w = Writer::new();
        w.put_u64(lease);
        sink.run_batch(comm.tracer_mut(), &mut batch, &mut w);
        batch.clear();
        // Generate the requested number of new tasks.
        announced.clear();
        let mut active = sink.generate(comm.tracer_mut(), r, &mut announced);
        report.tasks_generated += announced.len() as u64;
        // The one encoder of a `TAG_REPORT` body.
        w.put_u32(active as u32);
        w.put_u32(checked_len(announced.len()));
        for task in &announced {
            task.encode(&mut w);
        }
        comm.send(0, TAG_REPORT, w.finish())?;
        report.round_trips += 1;
        // Receive the next grant (possibly parking idle first).
        loop {
            let Some(msg) = recv_grant(comm)? else { return Ok(true) };
            let grant =
                decode_grant(&msg.data).map_err(|_| CommError::Malformed { src: 0, tag: TAG_GRANT })?;
            let Some(grant) = grant else { return Ok(false) };
            if comm.kills_at(false, grant.lease) {
                return Err(comm.kill(grant.lease));
            }
            for dead_rank in grant.adopt {
                comm.tracer_mut().instant_arg(
                    TraceCategory::Fault,
                    names::EV_ADOPT_SCOPE,
                    "dead",
                    dead_rank as u64,
                );
                sink.adopt_scope(comm.tracer_mut(), dead_rank as usize);
                report.scopes_adopted += 1;
                // The adopted scope makes this generator live again.
                active = true;
            }
            (r, lease, batch) = (grant.r, grant.lease, grant.batch);
            if batch.is_empty() && !active {
                // Passive with no work: park and wait for an
                // unsolicited allocation or termination.
                comm.tracer_mut().instant(TraceCategory::Worker, names::EV_PARK);
                continue;
            }
            break;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pgasm_mpisim::FaultPlan;
    use std::collections::HashSet;

    /// Toy client: tasks are plain integers, workers square them.
    /// Exercises the protocol shell with no domain logic at all.
    impl Task for u32 {
        fn encode(&self, w: &mut Writer) {
            w.put_u32(*self);
        }
        fn decode(r: &mut Reader<'_>) -> Result<u32, WireError> {
            r.get_u32()
        }
        fn encoded_size_hint(&self) -> usize {
            4
        }
    }

    struct SumSource {
        sum: u64,
        results: u64,
        seen: Vec<u32>,
        /// Selection dedup (the cluster-check analog): with faults and
        /// scope adoption, the same task may be announced twice.
        selected: HashSet<u32>,
    }

    impl SumSource {
        fn new() -> Self {
            SumSource { sum: 0, results: 0, seen: Vec::new(), selected: HashSet::new() }
        }
    }

    impl TaskSource<u32> for SumSource {
        fn absorb_results(&mut self, _src: usize, r: &mut Reader<'_>) -> Result<(), WireError> {
            for _ in 0..r.get_u32()? {
                self.sum += r.get_u64()?;
                self.results += 1;
            }
            Ok(())
        }
        fn select(&mut self, task: &u32) -> bool {
            self.seen.push(*task);
            // Odd numbers are "already done" — mimics the cluster-check
            // skip so selection is exercised.
            task.is_multiple_of(2) && self.selected.insert(*task)
        }
    }

    #[derive(Default)]
    struct RangeSink {
        next: u32,
        stop: u32,
        computed: u64,
        /// Scope table for adoption: worker rank → (start, stop).
        per_worker: u32,
        /// Ranges adopted from dead peers, drained after our own.
        adopted: std::collections::VecDeque<(u32, u32)>,
        /// Results each report claims beyond those it carries (a sink
        /// and a source that disagree about the result layout).
        overcount: u32,
    }

    impl TaskSink<u32> for RangeSink {
        fn run_batch(&mut self, _tracer: &mut Tracer, batch: &mut Vec<u32>, w: &mut Writer) {
            w.put_u32(checked_len(batch.len()) + self.overcount);
            for t in batch.drain(..) {
                self.computed += 1;
                w.put_u64(t as u64 * t as u64);
            }
        }
        fn generate(&mut self, _tracer: &mut Tracer, r: usize, out: &mut Vec<u32>) -> bool {
            for _ in 0..r {
                if self.next >= self.stop {
                    match self.adopted.pop_front() {
                        Some((next, stop)) => (self.next, self.stop) = (next, stop),
                        None => break,
                    }
                    continue;
                }
                out.push(self.next);
                self.next += 1;
            }
            self.next < self.stop || !self.adopted.is_empty()
        }
        fn adopt_scope(&mut self, _tracer: &mut Tracer, dead_rank: usize) {
            // Rebuild the dead worker's scope from scratch — *behind*
            // our own remaining range, not in place of it. The master's
            // selection dedup swallows anything it already generated.
            let base = (dead_rank as u32 - 1) * self.per_worker;
            self.adopted.push_back((base, base + self.per_worker));
        }
    }

    fn toy_sink(rank: usize, per_worker: u32) -> RangeSink {
        let base = (rank as u32 - 1) * per_worker;
        RangeSink { next: base, stop: base + per_worker, per_worker, ..RangeSink::default() }
    }

    fn expected_sum(workers: u32, per_worker: u32) -> u64 {
        let n = workers * per_worker;
        (0..n).filter(|t| t % 2 == 0).map(|t| t as u64 * t as u64).sum()
    }

    fn run_toy(p: usize, per_worker: u32, batch: usize, cap: usize) -> (u64, u64, MasterReport) {
        let outcomes = pgasm_mpisim::run(p, move |comm| {
            let cfg = EngineConfig { batch, pending_cap: cap };
            if comm.rank() == 0 {
                let mut source = SumSource::new();
                let report = run_master(comm, &cfg, &mut source, Vec::new(), None).unwrap();
                assert_eq!(report.tasks_announced as usize, source.seen.len());
                Some((source.sum, source.results, report))
            } else {
                let mut sink = toy_sink(comm.rank(), per_worker);
                run_worker(comm, &cfg, &mut sink).unwrap();
                None
            }
        });
        outcomes.into_iter().flatten().next().expect("master outcome")
    }

    #[test]
    fn toy_client_computes_every_selected_task_once() {
        for p in [2usize, 3, 5] {
            let per_worker = 40;
            let (sum, results, report) = run_toy(p, per_worker, 4, 64);
            let n = (p as u32 - 1) * per_worker;
            let expected = expected_sum(p as u32 - 1, per_worker);
            assert_eq!(sum, expected, "p = {p}");
            assert_eq!(results as u32, n.div_ceil(2), "p = {p}");
            assert_eq!(report.tasks_announced, n as u64);
            assert_eq!(report.tasks_selected as u32, n.div_ceil(2));
            assert!(report.batches_dispatched >= 1);
            assert_eq!(report.dead_ranks, 0);
            assert_eq!(report.recovered_tasks, 0);
            assert!(!report.killed);
        }
    }

    #[test]
    fn seeded_master_drives_passive_workers() {
        // Workers generate nothing; the master's seed is the whole task
        // list — the distributed-assembly usage pattern.
        let seed: Vec<u32> = (0..30).map(|i| i * 2).collect();
        let expected: u64 = seed.iter().map(|&t| t as u64 * t as u64).sum();
        let (sum, computed) = pgasm_mpisim::run(4, move |comm| {
            let cfg = EngineConfig { batch: 1, pending_cap: 64 };
            if comm.rank() == 0 {
                let mut source = SumSource::new();
                let report = run_master(comm, &cfg, &mut source, seed.clone(), None).unwrap();
                assert_eq!(report.tasks_announced, 0, "passive workers announce nothing");
                assert_eq!(report.peak_queue_depth, seed.len() as u64);
                assert_eq!(source.results, seed.len() as u64);
                (source.sum, 0)
            } else {
                let mut sink = RangeSink::default();
                run_worker(comm, &cfg, &mut sink).unwrap();
                (0, sink.computed)
            }
        })
        .into_iter()
        .fold((0, 0), |(s, c), (s2, c2)| (s + s2, c + c2));
        assert_eq!(sum, expected);
        assert_eq!(computed, 30);
    }

    #[test]
    fn master_records_protocol_gauges_on_its_track_when_traced() {
        use pgasm_telemetry::trace::{TraceKind, TraceSpec};
        let spec = TraceSpec::with_capacity(4096);
        // A seeded queue: the first sample of every gauge is recorded
        // whatever the rate limit, and `pending_tasks` opens at the seed.
        let seed: Vec<u32> = (0..30).map(|i| i * 2).collect();
        let traces = pgasm_mpisim::run(3, move |comm| {
            let cfg = EngineConfig { batch: 4, pending_cap: 64 };
            comm.set_tracer(spec.tracer(comm.rank(), if comm.rank() == 0 { "master" } else { "worker" }));
            if comm.rank() == 0 {
                run_master(comm, &cfg, &mut SumSource::new(), seed.clone(), None).unwrap();
            } else {
                run_worker(comm, &cfg, &mut RangeSink::default()).unwrap();
            }
            comm.take_trace()
        });
        let gauge = |track: &pgasm_telemetry::RankTrace, name: &str| -> Vec<u64> {
            let samples = track.events.iter().filter(|e| e.kind == TraceKind::Counter && e.name == name);
            samples.map(|e| e.arg("value").expect("a counter carries its value")).collect()
        };
        for name in [
            names::GAUGE_PENDING_TASKS,
            names::GAUGE_INBOX_DEPTH,
            names::GAUGE_WORKERS_OUTSTANDING,
            names::GAUGE_WORKERS_PARKED,
        ] {
            assert!(!gauge(&traces[0], name).is_empty(), "{name} never sampled");
            assert!(traces[1..].iter().all(|t| gauge(t, name).is_empty()), "{name} is the master's");
        }
        assert_eq!(gauge(&traces[0], names::GAUGE_PENDING_TASKS)[0], 30);
    }

    #[test]
    fn tiny_pending_buffer_still_terminates() {
        // Backpressure regression for the generic shell: cap < batch
        // once livelocked the clustering client (the r >= 1 clamp).
        let (sum, _, _) = run_toy(3, 25, 8, 2);
        let expected = expected_sum(2, 25);
        assert_eq!(sum, expected);
    }

    /// Run the toy workload with a fault plan armed on every rank;
    /// returns (master sum, master report, per-rank worker reports).
    fn run_toy_faulty(
        p: usize,
        per_worker: u32,
        batch: usize,
        plan: FaultPlan,
    ) -> (u64, MasterReport, Vec<WorkerReport>) {
        let outcomes = pgasm_mpisim::run(p, move |comm| {
            comm.set_fault_plan(&plan);
            let cfg = EngineConfig { batch, pending_cap: 64 };
            if comm.rank() == 0 {
                let mut source = SumSource::new();
                let report = run_master(comm, &cfg, &mut source, Vec::new(), None).unwrap();
                (Some((source.sum, report)), None)
            } else {
                let mut sink = toy_sink(comm.rank(), per_worker);
                (None, Some(run_worker(comm, &cfg, &mut sink).unwrap()))
            }
        });
        let mut master = None;
        let mut workers = Vec::new();
        for (m, w) in outcomes {
            if let Some(m) = m {
                master = Some(m);
            }
            if let Some(w) = w {
                workers.push(w);
            }
        }
        let (sum, report) = master.expect("master outcome");
        (sum, report, workers)
    }

    #[test]
    fn killed_worker_recovers_to_exact_sum() {
        // Whichever worker is granted lease K dies holding it: at one
        // task per batch the master must recover exactly that task, and
        // the run must finish with the exact fault-free sum. Every
        // report of a live generator announces a fresh even task, so
        // the victim — fewer than K grants into a 40-task range — dies
        // with its generator live and exactly one survivor adopts it.
        for lease in [1, 2, 7] {
            let plan = FaultPlan::parse(&format!("kill:lease={lease}")).unwrap();
            let (sum, report, workers) = run_toy_faulty(4, 40, 1, plan);
            assert_eq!(sum, expected_sum(3, 40), "lease {lease}");
            assert_eq!(report.dead_ranks, 1, "lease {lease}");
            assert_eq!(report.recovered_tasks, 1, "lease {lease}: the victim died holding it");
            assert!(!report.killed);
            assert_eq!(workers.iter().filter(|w| w.killed).count(), 1);
            let adopted: u64 = workers.iter().map(|w| w.scopes_adopted).sum();
            assert_eq!(adopted, 1, "lease {lease}: the dead generator was adopted once");
        }
    }

    /// The distributed-assembly shape — a master-seeded queue of 60
    /// tasks, passive workers, two tasks per grant: fault-free, exactly
    /// leases 1..=30 are issued.
    fn run_seeded_faulty(plan: &str) -> (u64, u64, MasterReport) {
        let seed: Vec<u32> = (0..60).map(|i| i * 2).collect();
        let expected: u64 = seed.iter().map(|&t| t as u64 * t as u64).sum();
        let plan = FaultPlan::parse(plan).unwrap();
        let (sum, report) = pgasm_mpisim::run(4, move |comm| {
            comm.set_fault_plan(&plan);
            let cfg = EngineConfig { batch: 2, pending_cap: 64 };
            if comm.rank() == 0 {
                let mut source = SumSource::new();
                let report = run_master(comm, &cfg, &mut source, seed.clone(), None).unwrap();
                Some((source.sum, report))
            } else {
                assert!(!run_worker(comm, &cfg, &mut RangeSink::default()).unwrap().master_died);
                None
            }
        })
        .into_iter()
        .flatten()
        .next()
        .expect("master outcome");
        (sum, expected, report)
    }

    #[test]
    fn killed_passive_worker_in_seeded_run_recovers() {
        // A worker death re-queues its leased slots — also on the very
        // last lease the stage issues, when every other worker is
        // already parked and must be revived for the recovered batch.
        for lease in [1, 15, 30] {
            let (sum, expected, report) = run_seeded_faulty(&format!("kill:lease={lease}"));
            assert_eq!(sum, expected, "lease {lease}");
            assert_eq!(report.dead_ranks, 1, "lease {lease}");
            assert_eq!(report.recovered_tasks, 2, "lease {lease}");
            assert_eq!(report.batches_dispatched, 31, "lease {lease}: the recovered batch is a new lease");
        }
    }

    #[test]
    fn a_kill_at_a_lease_the_stage_never_issues_is_a_clean_run() {
        let (sum, expected, report) = run_seeded_faulty("kill:lease=31; kill:master,lease=31");
        assert_eq!(sum, expected);
        assert_eq!((report.dead_ranks, report.recovered_tasks, report.killed), (0, 0, false));
        assert_eq!(report.batches_dispatched, 30);
    }

    #[test]
    fn a_dropped_report_or_grant_trips_liveness_and_recovers() {
        // Worker 1's second report, or the grant that answers it,
        // vanishes on the wire. Either way worker 1 waits for a grant
        // that never comes, holding a lease the master still journals;
        // the run comes to rest with the master unfinished, which
        // declares exactly that worker dead, re-queues its batch and
        // hands its generator scope to the survivor — and the run still
        // produces the exact sum. Nobody was killed: the declared
        // worker is alive and leaves by the termination grant.
        for (src, dst, tag) in [(1, 0, TAG_REPORT), (0, 1, TAG_GRANT)] {
            let plan = FaultPlan::parse(&format!("drop:src={src},dst={dst},tag={tag},nth=2")).unwrap();
            let (sum, report, workers) = run_toy_faulty(3, 30, 4, plan);
            assert_eq!(sum, expected_sum(2, 30), "tag {tag}");
            assert_eq!(report.dead_ranks, 1, "tag {tag}: quiescence declared the stuck worker dead");
            assert!(report.recovered_tasks > 0, "tag {tag}");
            assert_eq!(workers[1].scopes_adopted, 1, "tag {tag}: worker 1's generator was adopted");
            assert!(
                workers.iter().all(|w| !w.killed && !w.master_died),
                "tag {tag}: everybody was terminated"
            );
        }
    }

    #[test]
    fn delayed_report_is_absorbed_late_not_twice() {
        // Worker 1's second report is held back until the worker blocks
        // on the grant that answers it; the lease journal still retires
        // it exactly once and the sum stays exact.
        let plan = FaultPlan::parse("delay:src=1,dst=0,tag=1,nth=2").unwrap();
        let (sum, report, _) = run_toy_faulty(3, 30, 4, plan);
        assert_eq!(sum, expected_sum(2, 30));
        assert_eq!(report.dead_ranks, 0);
    }

    #[test]
    fn killed_master_surfaces_cleanly_on_every_rank() {
        let plan = FaultPlan::parse("kill:master,lease=2").unwrap();
        let outcomes = pgasm_mpisim::run(3, move |comm| {
            comm.set_fault_plan(&plan);
            let cfg = EngineConfig { batch: 4, pending_cap: 64 };
            if comm.rank() == 0 {
                let mut source = SumSource::new();
                let report = run_master(comm, &cfg, &mut source, Vec::new(), None).unwrap();
                (report.killed, false)
            } else {
                let mut sink = toy_sink(comm.rank(), 40);
                let report = run_worker(comm, &cfg, &mut sink).unwrap();
                (false, report.master_died)
            }
        });
        assert!(outcomes[0].0, "master reports its own kill");
        assert!(outcomes[1..].iter().all(|&(_, md)| md), "every worker observes the master's death");
    }

    #[test]
    fn short_result_report_is_the_senders_malformed_error() {
        // Worker 2's sink claims one more result than each report
        // carries, so the master's source runs off the end of the body.
        // That must reach the master's caller as an error naming the
        // sender and the tag — no index panic inside a decoder — and,
        // because the master announces that it is leaving, no worker is
        // left waiting on it: each sees the master die. The watchdog
        // turns a hang (or a rank's panic) into a failure.
        let (done, finished) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            let outcomes = pgasm_mpisim::run(3, |comm| {
                let cfg = EngineConfig { batch: 4, pending_cap: 64 };
                if comm.rank() == 0 {
                    run_master(comm, &cfg, &mut SumSource::new(), Vec::<u32>::new(), None).err()
                } else {
                    let overcount = u32::from(comm.rank() == 2);
                    let mut sink = RangeSink { overcount, ..toy_sink(comm.rank(), 40) };
                    let report =
                        run_worker(comm, &cfg, &mut sink).expect("a worker only sees the master leave");
                    assert!(report.master_died);
                    None
                }
            });
            let _ = done.send(outcomes);
        });
        let outcomes = finished
            .recv_timeout(std::time::Duration::from_secs(60))
            .expect("a rank hung or panicked after the malformed report");
        assert_eq!(outcomes[0], Some(CommError::Malformed { src: 2, tag: TAG_REPORT }));
    }

    #[test]
    fn short_grant_is_the_masters_malformed_error_at_the_worker() {
        // Every strict prefix of a live grant fails to decode, and a
        // grant with bytes behind it does too.
        let body = |adopt: &[u32], batch: &[u32]| {
            let mut w = Writer::new();
            w.put_u32(0).put_u32(8).put_u32_slice(adopt).put_u64(3).put_u32_slice(batch);
            w.finish()
        };
        let full = body(&[2], &[10, 12]);
        let grant = decode_grant::<u32>(&full).unwrap().expect("a live grant");
        assert_eq!((grant.r, grant.adopt, grant.lease, grant.batch), (8, vec![2], 3, vec![10, 12]));
        for cut in 0..full.len() {
            assert!(decode_grant::<u32>(&full[..cut]).is_err(), "prefix of {cut} bytes decoded");
        }
        assert!(decode_grant::<u32>(&[&full[..], &[0]].concat()).is_err(), "trailing byte accepted");
        // On the wire: a master that answers the opening report with a
        // grant cut short. The worker names the master and the tag,
        // tells its peers it is leaving, and returns the error.
        let outcomes = pgasm_mpisim::run(2, move |comm| {
            if comm.rank() == 0 {
                assert!(matches!(comm.recv(Some(1), Some(TAG_REPORT)), Ok(Event::Msg(_))));
                let short = body(&[], &[10, 12]);
                comm.send(1, TAG_GRANT, short[..short.len() - 1].to_vec()).unwrap();
                assert!(matches!(comm.recv(None, None), Ok(Event::Death(1))));
                None
            } else {
                let cfg = EngineConfig { batch: 4, pending_cap: 64 };
                run_worker(comm, &cfg, &mut toy_sink(1, 40)).err()
            }
        });
        assert_eq!(outcomes[1], Some(CommError::Malformed { src: 0, tag: TAG_GRANT }));
    }

    #[test]
    fn stale_report_with_unknown_lease_is_discarded() {
        // Unit-level dedup check: a report whose lease is no longer
        // journaled must not reach the source, nor re-open a round its
        // first copy closed.
        let mut source = SumSource::new();
        let mut m = Master {
            source: &mut source,
            b: 4,
            pending_cap: 64,
            pending: VecDeque::new(),
            worker_active: vec![true; 3],
            round: vec![Round::Outstanding; 3],
            journal: BTreeMap::new(),
            next_lease: 1,
            pending_adoptions: vec![Vec::new(); 3],
            adopted_scopes: vec![Vec::new(); 3],
            report: MasterReport::default(),
        };
        m.journal.insert(7, Lease { worker: 1, tasks: vec![2u32, 4] });
        let ar = |lease: u64, value: u64| {
            let mut w = Writer::new();
            // One result, a passive generator, one announced task.
            w.put_u64(lease).put_u32(1).put_u64(value).put_u32(0).put_u32(1).put_u32(6);
            Msg { src: 1, tag: TAG_REPORT, data: w.finish() }
        };
        let mut tracer = Tracer::disabled();
        // Live lease: absorbed, journal retired.
        m.handle(&mut tracer, &ar(7, 10)).unwrap();
        assert_eq!(m.source.sum, 10);
        assert!(m.journal.is_empty());
        assert!(m.round[1] == Round::AwaitsGrant && !m.worker_active[1], "the report closed the round");
        assert_eq!(m.report.tasks_announced, 1);
        // Replay of the same lease: dropped whole.
        m.round[1] = Round::Parked;
        m.handle(&mut tracer, &ar(7, 10)).unwrap();
        assert_eq!(m.source.sum, 10, "duplicate replay absorbed twice");
        assert_eq!(m.round[1], Round::Parked, "a replay must not ask for a second grant");
        assert_eq!(m.report.tasks_announced, 1, "nor announce its tasks again");
        // Unknown lease: dropped. Lease 0 (opening report): absorbed.
        m.handle(&mut tracer, &ar(99, 5)).unwrap();
        assert_eq!(m.source.sum, 10);
        m.handle(&mut tracer, &ar(0, 3)).unwrap();
        assert_eq!(m.source.sum, 13);
        // Messages from a dead-declared rank are dropped before decode.
        m.round[1] = Round::Dead;
        m.handle(&mut tracer, &ar(0, 100)).unwrap();
        assert_eq!(m.source.sum, 13);
    }

    #[test]
    fn stall_dump_names_the_outstanding_lease() {
        let mut source = SumSource::new();
        let mut m = Master {
            source: &mut source,
            b: 4,
            pending_cap: 64,
            pending: VecDeque::new(),
            worker_active: vec![false; 3],
            round: vec![Round::Parked; 3],
            journal: BTreeMap::new(),
            next_lease: 2,
            pending_adoptions: vec![Vec::new(); 3],
            adopted_scopes: vec![Vec::new(); 3],
            report: MasterReport::default(),
        };
        m.journal.insert(1, Lease { worker: 2, tasks: vec![6u32, 8, 10] });
        assert!(!m.finished(), "an unacknowledged lease blocks termination");
        let dump = m.stall_dump();
        assert!(dump.contains("lease 1: worker 2 holds 3 task(s)"), "{dump}");
        assert!(dump.contains("worker 2:"), "{dump}");
    }
}

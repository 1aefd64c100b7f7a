//! Ranks, point-to-point messaging and collectives.

use crate::faults::{CommError, FaultPlan, FaultRuntime, FaultStats, Verdict};
use crate::model::{CommStats, CostModel};
use pgasm_telemetry::trace::{RankTrace, TraceCategory, Tracer};
use pgasm_telemetry::{names, TagStat};
use std::collections::{BTreeMap, VecDeque};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::time::Instant;

/// Tags at or above this value are reserved for collectives.
pub const RESERVED_TAG_BASE: u32 = 0xFFFF_0000;

const TAG_ALLTOALL: u32 = RESERVED_TAG_BASE + 2;
const TAG_ALLTOALL_P2P: u32 = RESERVED_TAG_BASE + 3;
/// Death notice a dying rank broadcasts to every peer (empty payload).
/// Surfaced as [`Event::Death`], never as a message.
const TAG_DEATH: u32 = RESERVED_TAG_BASE + 6;
/// The simulator's notice that the world is quiescent (empty payload;
/// `src` is the rank that saw it). Wakes the lowest live rank, surfaces
/// as [`Event::Quiescent`], and is no part of the modelled traffic.
const TAG_QUIESCENT: u32 = RESERVED_TAG_BASE + 7;

/// Human-readable name for a tag: collectives get their primitive's
/// name, application tags render as `"tag<N>"` (callers owning an
/// application protocol can relabel rows in their reports).
pub fn tag_label(tag: u32) -> String {
    match tag {
        TAG_ALLTOALL => "alltoall".to_string(),
        TAG_ALLTOALL_P2P => "alltoall_p2p".to_string(),
        TAG_DEATH => names::TAG_DEATH.to_string(),
        t => format!("tag{t}"),
    }
}

/// Per-tag traffic counters (histogram row).
#[derive(Debug, Clone, Copy, Default)]
struct TagTraffic {
    msgs_sent: u64,
    bytes_sent: u64,
    msgs_recv: u64,
    bytes_recv: u64,
}

/// One received message.
#[derive(Debug, Clone)]
pub struct Msg {
    /// Sending rank.
    pub src: usize,
    /// Application tag.
    pub tag: u32,
    /// Payload.
    pub data: Vec<u8>,
}

/// What a receive delivered: an application message, or something the
/// simulator observed. Observations are surfaced regardless of the
/// receive's src/tag filter — a failure is never something a caller
/// can opt out of seeing.
#[derive(Debug, Clone)]
pub enum Event {
    /// An application message matching the receive's filter.
    Msg(Msg),
    /// The given peer rank broadcast its death notice.
    Death(usize),
    /// Every live rank is blocked in a receive, its inbox holding
    /// nothing it wants, so no message can ever arrive: something was
    /// lost, a peer left without a word, or the protocol deadlocked.
    /// Raised at the lowest live rank only, and again each time the
    /// world comes to rest — the receiver must send, leave or panic.
    Quiescent,
}

/// The machine as a whole, the wire included, behind the one lock every
/// rank's [`Comm`] shares: "all blocked" is a fact when observed, not a
/// guess from a clock.
struct World {
    /// Rank has not dropped its `Comm` yet.
    live: Vec<bool>,
    /// Rank is parked in a blocking receive that found nothing it wants
    /// in its inbox; a put into that inbox clears it.
    blocked: Vec<bool>,
    /// What was sent to each rank and no receive of its has delivered
    /// yet, in arrival order (so per-sender FIFO).
    inboxes: Vec<VecDeque<Msg>>,
    /// Rank is waiting in the barrier; the last to arrive clears all.
    arrived: Vec<bool>,
    /// The first rank to leave by panic: the root cause [`run`] re-raises.
    panicked: Option<usize>,
}

impl World {
    /// The lowest live rank, when every live rank is blocked.
    fn quiescent(&self) -> Option<usize> {
        let at_rest = self.live.iter().zip(&self.blocked).all(|(&live, &blocked)| blocked || !live);
        self.live.iter().position(|&live| live).filter(|_| at_rest)
    }
}

/// All that ranks share: the world, and per rank the condition variable
/// it parks on — in a receive or in the barrier, never both.
struct Shared {
    world: Mutex<World>,
    wake: Vec<Condvar>,
}

/// A rank's communicator handle. All methods take `&mut self`: a rank is
/// single-threaded, exactly like an MPI process.
pub struct Comm {
    rank: usize,
    size: usize,
    shared: Arc<Shared>,
    stats: CommStats,
    tag_traffic: BTreeMap<u32, TagTraffic>,
    tracer: Tracer,
    /// Armed fault plan for this rank (`None` = fault-free run: nothing
    /// is injected).
    faults: Option<FaultRuntime>,
    /// Peers whose death notice a receive of this rank has surfaced.
    dead_peers: Vec<bool>,
}

impl Comm {
    /// This rank's id in `0..size`.
    #[inline]
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// Number of ranks.
    #[inline]
    pub fn size(&self) -> usize {
        self.size
    }

    /// Snapshot of this rank's traffic statistics.
    pub fn stats(&self) -> CommStats {
        self.stats
    }

    /// Per-tag traffic histogram with α–β modelled seconds per row,
    /// ascending by tag. Collectives use distinct reserved tags, so
    /// this doubles as a per-collective communication breakdown.
    ///
    /// Each message is priced exactly once, on its *sending* rank —
    /// summing `modelled_seconds` over all ranks therefore reproduces
    /// the α–β total for the run instead of double-counting every
    /// transfer on both endpoints. Receive-side rows still carry their
    /// message/byte counts for protocol visibility; their modelled time
    /// is zero.
    pub fn tag_stats(&self, model: &CostModel) -> Vec<TagStat> {
        self.tag_traffic
            .iter()
            .map(|(&tag, t)| TagStat {
                tag,
                label: tag_label(tag),
                msgs_sent: t.msgs_sent,
                bytes_sent: t.bytes_sent,
                msgs_recv: t.msgs_recv,
                bytes_recv: t.bytes_recv,
                modelled_seconds: t.msgs_sent as f64 * model.latency_s
                    + t.bytes_sent as f64 / model.bandwidth_bytes_per_s,
            })
            .collect()
    }

    /// Install an event tracer for this rank. The default tracer is
    /// disabled, costing one branch per would-be event.
    pub fn set_tracer(&mut self, tracer: Tracer) {
        self.tracer = tracer;
    }

    /// The rank's tracer, for layers above the comm substrate (the
    /// master–worker protocol, GST phases) to record their own events
    /// and gauges onto the same track.
    pub fn tracer_mut(&mut self) -> &mut Tracer {
        &mut self.tracer
    }

    /// Take the rank's finished trace out, leaving a disabled tracer
    /// behind. Call at the end of the rank body.
    pub fn take_trace(&mut self) -> RankTrace {
        std::mem::replace(&mut self.tracer, Tracer::disabled()).finish()
    }

    /// Arm `plan` on this rank. Every rank of the world must arm the
    /// same (stage-filtered) plan for consistent semantics: its drop
    /// and delay clauses apply to this rank's `send`s (collectives are
    /// untouched), its kill clauses are there for the task engine to
    /// read ([`Comm::kills_at`]), and a vanished peer becomes a counted
    /// loss instead of a panic.
    pub fn set_fault_plan(&mut self, plan: &FaultPlan) {
        self.faults = Some(FaultRuntime::new(plan, self.rank));
    }

    /// Whether a fault plan is armed on this rank.
    pub fn has_fault_plan(&self) -> bool {
        self.faults.is_some()
    }

    /// Snapshot of this rank's fault-layer counters (all zero when no
    /// plan is armed).
    pub fn fault_stats(&self) -> FaultStats {
        self.faults.as_ref().map(|f| f.stats).unwrap_or_default()
    }

    /// Peers whose death notice this rank has observed.
    pub fn dead_peers(&self) -> &[bool] {
        &self.dead_peers
    }

    /// A rank the plan has killed fails every point-to-point call.
    fn check_alive(&self) -> Result<(), CommError> {
        match self.faults.as_ref().and_then(|f| f.killed_at) {
            Some(lease) => Err(CommError::Killed { rank: self.rank, lease }),
            None => Ok(()),
        }
    }

    /// Put the messages the fault plan made this rank hold back on the
    /// wire, in hold order: the rank is about to block.
    fn release_held(&mut self) {
        let Some(f) = &mut self.faults else { return };
        for (dest, tag, data) in std::mem::take(&mut f.delayed) {
            if self.dead_peers[dest] {
                if let Some(f) = &mut self.faults {
                    f.stats.msgs_lost += 1;
                }
            } else {
                self.send_raw(dest, tag, data);
            }
        }
    }

    /// Whether the armed plan scripts a kill at `lease` — of the master
    /// in place of issuing it (`master`), or else of the worker that is
    /// granted it. Leases are the task engine's, so the engine asks,
    /// where it issues and where it takes one, and carries the kill out
    /// with [`Comm::kill`].
    pub fn kills_at(&self, master: bool, lease: u64) -> bool {
        self.faults.as_ref().is_some_and(|f| f.kills.iter().any(|k| k.master == master && k.lease == lease))
    }

    /// Carry out a scripted kill of this rank at `lease`: record it,
    /// tell every peer ([`Comm::abort`]) and fail every later
    /// point-to-point call with the error returned here.
    ///
    /// # Panics
    /// Panics when no fault plan is armed: nothing scripted this.
    pub fn kill(&mut self, lease: u64) -> CommError {
        let f = self.faults.as_mut().expect("a kill is scripted by an armed fault plan");
        f.killed_at = Some(lease);
        f.stats.kills += 1;
        self.tracer.instant_arg(TraceCategory::Fault, names::EV_FAULT_KILL, "lease", lease);
        self.abort();
        CommError::Killed { rank: self.rank, lease }
    }

    /// Leave the world without finishing: every peer gets a death
    /// notice so survivors observe an [`Event::Death`] instead of
    /// hanging. A scripted kill ends here ([`Comm::kill`]); a rank that
    /// hits an unrecoverable [`CommError`] calls this before returning
    /// it.
    pub fn abort(&mut self) {
        for peer in (0..self.size).filter(|&peer| peer != self.rank) {
            self.stats.msgs_sent += 1;
            self.tag_traffic.entry(TAG_DEATH).or_default().msgs_sent += 1;
            self.put(&mut self.world(), peer, TAG_DEATH, Vec::new());
            if let Some(f) = &mut self.faults {
                f.stats.death_notices += 1;
            }
        }
    }

    /// Asynchronous send (like `MPI_Isend` with unbounded buffering):
    /// the message is in the destination's inbox — or the fault plan's
    /// hands — when the call returns.
    ///
    /// Under an armed plan the message may be dropped or held back, and
    /// a rank the plan has killed gets `Err(CommError::Killed)`. A send
    /// to a peer whose death notice has arrived is a loss, not a
    /// delivery.
    ///
    /// # Panics
    /// Panics on a reserved tag or an out-of-range destination.
    pub fn send(&mut self, dest: usize, tag: u32, data: Vec<u8>) -> Result<(), CommError> {
        assert!(tag < RESERVED_TAG_BASE, "tag {tag:#x} is reserved for collectives");
        assert!(dest < self.size, "destination {dest} out of range");
        self.check_alive()?;
        match self.faults.as_mut().map(|f| f.filter(dest, tag)) {
            Some(Verdict::Drop) => {
                self.tracer.instant_args(
                    TraceCategory::Fault,
                    names::EV_FAULT_DROP,
                    ("dst", dest as u64),
                    ("tag", tag as u64),
                );
                return Ok(());
            }
            Some(Verdict::Delay) => {
                self.tracer.instant_args(
                    TraceCategory::Fault,
                    names::EV_FAULT_DELAY,
                    ("dst", dest as u64),
                    ("tag", tag as u64),
                );
                self.faults.as_mut().expect("armed").delayed.push((dest, tag, data));
                return Ok(());
            }
            _ => {}
        }
        if self.dead_peers[dest] {
            if let Some(f) = &mut self.faults {
                f.stats.msgs_lost += 1;
            }
            return Ok(());
        }
        self.send_raw(dest, tag, data);
        Ok(())
    }

    /// Blocking receive matching the given source and/or tag (`None` is
    /// a wildcard). Non-matching messages stay in the inbox for later
    /// receives, preserving per-sender FIFO order. A peer's death
    /// notice is delivered as [`Event::Death`] regardless of the
    /// filter, as is [`Event::Quiescent`] when no message can ever
    /// arrive (every other rank having exited is one such world); a
    /// rank the plan has killed gets `Err(CommError::Killed)`.
    ///
    /// `wait_ns` is charged only while the rank is parked — passing
    /// over already-delivered non-matching messages is bookkeeping, not
    /// blocked time.
    pub fn recv(&mut self, src: Option<usize>, tag: Option<u32>) -> Result<Event, CommError> {
        self.check_alive()?;
        Ok(self.receive(src, tag, true).expect("a blocking receive yields an event"))
    }

    /// Non-blocking [`Comm::recv`]; `Ok(None)` when nothing matching
    /// (and no death notice) is queued.
    pub fn try_recv(&mut self, src: Option<usize>, tag: Option<u32>) -> Result<Option<Event>, CommError> {
        self.check_alive()?;
        Ok(self.receive(src, tag, false))
    }

    /// The one receive loop, under the point-to-point calls and the
    /// collectives alike: pop, or park until a peer puts another in.
    fn receive(&mut self, src: Option<usize>, tag: Option<u32>, block: bool) -> Option<Event> {
        // Inbox prefix already known to hold nothing for this receive.
        let mut scanned = 0;
        // About to wait on the network: release anything the fault plan
        // made this rank hold back first — the message we are waiting
        // for may well be a reply to it.
        let mut release = block;
        loop {
            let mut w = self.world();
            let inbox = &mut w.inboxes[self.rank];
            if let Some(i) = (scanned..inbox.len()).find(|&i| takes(&inbox[i], src, tag)) {
                scanned = i;
                let m = inbox.remove(i).expect("index valid");
                drop(w);
                match m.tag {
                    TAG_QUIESCENT => return Some(Event::Quiescent),
                    TAG_DEATH if self.note_death(m.src) => return Some(Event::Death(m.src)),
                    TAG_DEATH => continue,
                    _ => {
                        self.note_recv(&m);
                        return Some(Event::Msg(m));
                    }
                }
            }
            scanned = inbox.len();
            if !block {
                return None;
            }
            if std::mem::take(&mut release) {
                drop(w);
                self.release_held();
                continue;
            }
            // Blocking is what can bring the world to rest, so the rank
            // that completes the condition raises the quiescence notice
            // — at the lowest live rank, which may be itself.
            w.blocked[self.rank] = true;
            self.notify_if_quiescent(&mut w);
            drop(w);
            self.wait();
        }
    }

    /// Park until a peer has put something into this rank's inbox.
    fn wait(&mut self) {
        // The traced `wait` span brackets exactly the region `wait_ns`
        // measures, so the two accountings agree.
        self.tracer.begin(TraceCategory::Comm, names::EV_WAIT);
        let start = Instant::now();
        let mut w = self.world();
        while w.blocked[self.rank] {
            w = self.park(w);
        }
        drop(w);
        self.stats.wait_ns += start.elapsed().as_nanos() as u64;
        self.tracer.end(TraceCategory::Comm, names::EV_WAIT);
    }

    /// No critical section panics and every update leaves the state
    /// valid on its own, so a poisoned lock is still good state.
    fn world(&self) -> MutexGuard<'_, World> {
        self.shared.world.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Give the lock up until a peer wakes this rank.
    fn park<'a>(&self, w: MutexGuard<'a, World>) -> MutexGuard<'a, World> {
        self.shared.wake[self.rank].wait(w).unwrap_or_else(PoisonError::into_inner)
    }

    /// Called by the rank that just blocked or left: if that brought
    /// the world to rest, wake the lowest live rank with the notice.
    fn notify_if_quiescent(&self, w: &mut World) {
        if let Some(r) = w.quiescent() {
            self.put(w, r, TAG_QUIESCENT, Vec::new());
        }
    }

    /// Put one wire message into `dest`'s inbox and wake `dest` to look
    /// at it — the one place an inbox is written. `false` when `dest`
    /// has left the world.
    fn put(&self, w: &mut World, dest: usize, tag: u32, data: Vec<u8>) -> bool {
        if w.live[dest] {
            w.inboxes[dest].push_back(Msg { src: self.rank, tag, data });
            w.blocked[dest] = false;
            self.shared.wake[dest].notify_one();
        }
        w.live[dest]
    }

    /// A collective's receive from one peer. Collectives are not
    /// fault-tolerant: a peer lost mid-collective is a panic here, as
    /// it is a hang on a real machine.
    fn recv_collective(&mut self, src: usize, tag: u32) -> Vec<u8> {
        match self.receive(Some(src), Some(tag), true).expect("a blocking receive yields an event") {
            Event::Msg(m) => m.data,
            Event::Death(peer) => panic!("rank {peer} died inside a collective"),
            Event::Quiescent => panic!("deadlock: rank {src} never sent its part of the collective"),
        }
    }

    /// Put one message on the wire, past the fault plan: what
    /// [`Comm::send`] ends in, and what the collectives call directly.
    /// The `send` instant pairs with exactly one receive-side `recv`
    /// instant.
    fn send_raw(&mut self, dest: usize, tag: u32, data: Vec<u8>) {
        assert!(dest < self.size, "destination {dest} out of range");
        self.tracer.instant_args3(
            TraceCategory::Comm,
            names::EV_SEND,
            ("tag", tag as u64),
            ("bytes", data.len() as u64),
            ("to", dest as u64),
        );
        self.stats.msgs_sent += 1;
        self.stats.bytes_sent += data.len() as u64;
        let row = self.tag_traffic.entry(tag).or_default();
        row.msgs_sent += 1;
        row.bytes_sent += data.len() as u64;
        let mut w = self.world();
        if self.put(&mut w, dest, tag, data) {
            return;
        }
        // The peer has left the world. One that left through `abort`
        // sent its death notice first — a receive has surfaced it, or
        // will: the message is lost. With a plan armed any vanished peer
        // is a counted loss; otherwise it is a bug worth failing on.
        let announced =
            self.dead_peers[dest] || w.inboxes[self.rank].iter().any(|m| m.tag == TAG_DEATH && m.src == dest);
        drop(w);
        match &mut self.faults {
            Some(f) => f.stats.msgs_lost += 1,
            None if announced => {}
            None => panic!("receiving rank exited before communication completed"),
        }
    }

    /// Count a peer's death notice; `true` for its first, the one to report.
    fn note_death(&mut self, peer: usize) -> bool {
        self.stats.msgs_recv += 1;
        self.tag_traffic.entry(TAG_DEATH).or_default().msgs_recv += 1;
        let first = !std::mem::replace(&mut self.dead_peers[peer], true);
        if first {
            self.tracer.instant_arg(TraceCategory::Fault, names::EV_RANK_DEAD, "peer", peer as u64);
        }
        first
    }

    fn note_recv(&mut self, m: &Msg) {
        self.tracer.instant_args3(
            TraceCategory::Comm,
            names::EV_RECV,
            ("tag", m.tag as u64),
            ("bytes", m.data.len() as u64),
            ("from", m.src as u64),
        );
        self.stats.msgs_recv += 1;
        self.stats.bytes_recv += m.data.len() as u64;
        let row = self.tag_traffic.entry(m.tag).or_default();
        row.msgs_recv += 1;
        row.bytes_recv += m.data.len() as u64;
    }

    /// Synchronise all ranks (releasing held-back sends first). Panics
    /// when a rank has left the world without arriving: it never will.
    pub fn barrier(&mut self) {
        self.release_held();
        self.tracer.begin(TraceCategory::Comm, names::EV_BARRIER);
        let start = Instant::now();
        let mut w = self.world();
        w.arrived[self.rank] = true;
        if w.arrived.iter().all(|&arrived| arrived) {
            w.arrived.fill(false);
            self.shared.wake.iter().for_each(Condvar::notify_one);
        }
        while w.arrived[self.rank] {
            if let Some(r) = (0..self.size).find(|&r| !w.live[r] && !w.arrived[r]) {
                drop(w);
                panic!("rank {r} left before the barrier");
            }
            w = self.park(w);
        }
        drop(w);
        self.stats.barrier_ns += start.elapsed().as_nanos() as u64;
        self.tracer.end(TraceCategory::Comm, names::EV_BARRIER);
    }

    /// The paper's customised `Alltoallv` (§6): `p − 1` explicit
    /// point-to-point rounds, rank `r` exchanging with `r ± round`, which
    /// bounds the space committed to send buffers to one destination at
    /// a time. Traffic totals match [`Comm::all_to_allv`]; only the
    /// schedule differs.
    pub fn all_to_allv_p2p(&mut self, mut bufs: Vec<Vec<u8>>) -> Vec<Vec<u8>> {
        assert_eq!(bufs.len(), self.size);
        let mut out: Vec<Option<Vec<u8>>> = vec![None; self.size];
        out[self.rank] = Some(std::mem::take(&mut bufs[self.rank]));
        for round in 1..self.size {
            let to = (self.rank + round) % self.size;
            let from = (self.rank + self.size - round) % self.size;
            self.send_raw(to, TAG_ALLTOALL_P2P, std::mem::take(&mut bufs[to]));
            out[from] = Some(self.recv_collective(from, TAG_ALLTOALL_P2P));
        }
        out.into_iter().map(|b| b.expect("complete exchange")).collect()
    }

    /// Collective all-to-all with per-destination payloads; returns the
    /// payloads received, indexed by source.
    pub fn all_to_allv(&mut self, mut bufs: Vec<Vec<u8>>) -> Vec<Vec<u8>> {
        assert_eq!(bufs.len(), self.size, "one payload per destination required");
        let mut out: Vec<Option<Vec<u8>>> = vec![None; self.size];
        out[self.rank] = Some(std::mem::take(&mut bufs[self.rank]));
        for (dest, buf) in bufs.iter_mut().enumerate() {
            if dest != self.rank {
                self.send_raw(dest, TAG_ALLTOALL, std::mem::take(buf));
            }
        }
        // Receive per explicit source: per-sender FIFO then keeps two
        // back-to-back collectives on the same tag from interleaving
        // (a wildcard receive could consume a fast rank's *next*-round
        // payload as this round's).
        for (src, slot) in out.iter_mut().enumerate() {
            if src != self.rank {
                *slot = Some(self.recv_collective(src, TAG_ALLTOALL));
            }
        }
        out.into_iter().map(|b| b.expect("complete exchange")).collect()
    }
}

impl Drop for Comm {
    /// Leave the world, by return or by panic. What still sits in this
    /// inbox will never be taken out, and this may be the rank the
    /// others wait to hear from, or wait for in the barrier.
    fn drop(&mut self) {
        let mut w = self.world();
        w.live[self.rank] = false;
        w.panicked = w.panicked.or(std::thread::panicking().then_some(self.rank));
        w.inboxes[self.rank].clear();
        self.notify_if_quiescent(&mut w);
        self.shared.wake.iter().for_each(Condvar::notify_one);
    }
}

/// Whether a receive with this filter takes `m` out of the inbox: the
/// simulator's own notices pass every filter.
fn takes(m: &Msg, src: Option<usize>, tag: Option<u32>) -> bool {
    matches!(m.tag, TAG_DEATH | TAG_QUIESCENT)
        || (src.is_none_or(|s| s == m.src) && tag.is_none_or(|t| t == m.tag))
}

/// Launch `p` ranks, run `f` on each, and return the per-rank results in
/// rank order. A panic propagates: that of the rank that panicked first.
pub fn run<T, F>(p: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(&mut Comm) -> T + Send + Sync,
{
    assert!(p > 0, "at least one rank required");
    let world = World {
        live: vec![true; p],
        blocked: vec![false; p],
        inboxes: vec![VecDeque::new(); p],
        arrived: vec![false; p],
        panicked: None,
    };
    let shared =
        Arc::new(Shared { world: Mutex::new(world), wake: (0..p).map(|_| Condvar::new()).collect() });
    let f = &f;
    let comms: Vec<Comm> = (0..p)
        .map(|rank| Comm {
            rank,
            size: p,
            shared: shared.clone(),
            stats: CommStats::default(),
            tag_traffic: BTreeMap::new(),
            tracer: Tracer::disabled(),
            faults: None,
            dead_peers: vec![false; p],
        })
        .collect();
    std::thread::scope(|scope| {
        let handles: Vec<_> = comms.into_iter().map(|mut comm| scope.spawn(move || f(&mut comm))).collect();
        let mut outcomes: Vec<_> = handles.into_iter().map(|h| h.join()).collect();
        // Re-raise the root cause, payload intact: the rank that panicked
        // first. What its peers then panic with is their report of the
        // world it left behind.
        if let Some(first) = shared.world.lock().unwrap_or_else(PoisonError::into_inner).panicked {
            outcomes.swap(0, first);
        }
        outcomes.into_iter().map(|o| o.unwrap_or_else(|e| std::panic::resume_unwind(e))).collect()
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Blocking receive in a world where nobody dies.
    fn msg(c: &mut Comm, src: Option<usize>, tag: Option<u32>) -> Msg {
        match c.recv(src, tag).unwrap() {
            Event::Msg(m) => m,
            e => panic!("expected a message, got {e:?}"),
        }
    }

    #[test]
    fn single_rank_runs() {
        let out = run(1, |c| c.rank() + c.size());
        assert_eq!(out, vec![1]);
    }

    #[test]
    fn ring_pass() {
        let out = run(4, |c| {
            let next = (c.rank() + 1) % c.size();
            let prev = (c.rank() + c.size() - 1) % c.size();
            c.send(next, 7, vec![c.rank() as u8]).unwrap();
            let m = msg(c, Some(prev), Some(7));
            m.data[0] as usize
        });
        assert_eq!(out, vec![3, 0, 1, 2]);
    }

    #[test]
    fn tag_matching_out_of_order() {
        let out = run(2, |c| {
            if c.rank() == 0 {
                c.send(1, 1, b"first".to_vec()).unwrap();
                c.send(1, 2, b"second".to_vec()).unwrap();
                0
            } else {
                // Receive tag 2 before tag 1; the tag-1 message must be
                // buffered and still be deliverable.
                let b = msg(c, Some(0), Some(2));
                let a = msg(c, Some(0), Some(1));
                assert_eq!(&b.data[..], b"second");
                assert_eq!(&a.data[..], b"first");
                1
            }
        });
        assert_eq!(out, vec![0, 1]);
    }

    #[test]
    fn try_recv_nonblocking() {
        let out = run(2, |c| {
            if c.rank() == 0 {
                c.barrier();
                c.send(1, 5, b"x".to_vec()).unwrap();
                c.barrier();
                true
            } else {
                assert!(c.try_recv(None, None).unwrap().is_none());
                c.barrier();
                c.barrier();
                // Message must be in flight or queued now.
                let mut got = None;
                for _ in 0..1000 {
                    got = c.try_recv(Some(0), Some(5)).unwrap();
                    if got.is_some() {
                        break;
                    }
                    std::thread::yield_now();
                }
                got.is_some()
            }
        });
        assert!(out[1]);
    }

    #[test]
    fn alltoallv_exchanges_payloads() {
        let p = 4;
        let out = run(p, |c| {
            let bufs: Vec<Vec<u8>> = (0..c.size()).map(|d| vec![(c.rank() * 10 + d) as u8]).collect();
            let got = c.all_to_allv(bufs);
            got.iter().map(|b| b[0]).collect::<Vec<u8>>()
        });
        for (rank, row) in out.iter().enumerate() {
            let expect: Vec<u8> = (0..p).map(|src| (src * 10 + rank) as u8).collect();
            assert_eq!(row, &expect, "rank {rank}");
        }
    }

    #[test]
    fn p2p_alltoallv_matches_collective() {
        let p = 5;
        let direct = run(p, |c| {
            let bufs: Vec<Vec<u8>> =
                (0..c.size()).map(|d| vec![(c.rank() * c.size() + d) as u8; 3]).collect();
            c.all_to_allv(bufs).iter().map(|b| b.to_vec()).collect::<Vec<_>>()
        });
        let rounds = run(p, |c| {
            let bufs: Vec<Vec<u8>> =
                (0..c.size()).map(|d| vec![(c.rank() * c.size() + d) as u8; 3]).collect();
            c.all_to_allv_p2p(bufs).iter().map(|b| b.to_vec()).collect::<Vec<_>>()
        });
        assert_eq!(direct, rounds);
    }

    #[test]
    fn tag_histogram_separates_collectives_and_app_tags() {
        let rows = run(3, |c| {
            c.all_to_allv(vec![b"abcd".to_vec(); 3]);
            c.all_to_allv_p2p(vec![Vec::new(); 3]);
            if c.rank() == 0 {
                c.send(1, 7, b"xy".to_vec()).unwrap();
            } else if c.rank() == 1 {
                msg(c, Some(0), Some(7));
            }
            (c.tag_stats(&CostModel::BLUEGENE_L), c.stats())
        });
        let (rows, aggregates): (Vec<_>, Vec<_>) = rows.into_iter().unzip();
        // Rank 0: alltoall sends to 2 ranks, p2p-round traffic, app tag
        // 7 send.
        let r0 = &rows[0];
        let alltoall = r0.iter().find(|t| t.label == "alltoall").expect("alltoall row");
        assert_eq!(alltoall.msgs_sent, 2);
        assert_eq!(alltoall.bytes_sent, 8);
        let app = r0.iter().find(|t| t.label == "tag7").expect("app row");
        assert_eq!(app.msgs_sent, 1);
        assert_eq!(app.bytes_sent, 2);
        assert!(r0.iter().any(|t| t.label == "alltoall_p2p"));
        // Rows are ascending by tag and modelled time is positive where
        // traffic flowed.
        assert!(r0.windows(2).all(|w| w[0].tag < w[1].tag));
        assert!(r0.iter().all(|t| t.modelled_seconds > 0.0));
        // Rank 1 saw the app message on the recv side.
        let app1 = rows[1].iter().find(|t| t.label == "tag7").expect("app row on 1");
        assert_eq!(app1.msgs_recv, 1);
        assert_eq!(app1.bytes_recv, 2);
        // On every rank the per-tag rows sum exactly to the aggregates.
        for (row, agg) in rows.iter().zip(&aggregates) {
            assert_eq!(row.iter().map(|t| t.msgs_sent).sum::<u64>(), agg.msgs_sent);
            assert_eq!(row.iter().map(|t| t.bytes_sent).sum::<u64>(), agg.bytes_sent);
            assert_eq!(row.iter().map(|t| t.msgs_recv).sum::<u64>(), agg.msgs_recv);
            assert_eq!(row.iter().map(|t| t.bytes_recv).sum::<u64>(), agg.bytes_recv);
        }
    }

    #[test]
    fn stats_count_traffic() {
        let stats = run(2, |c| {
            if c.rank() == 0 {
                c.send(1, 3, b"12345".to_vec()).unwrap();
            } else {
                msg(c, Some(0), Some(3));
            }
            c.stats()
        });
        assert_eq!(stats[0].msgs_sent, 1);
        assert_eq!(stats[0].bytes_sent, 5);
        assert_eq!(stats[1].msgs_recv, 1);
        assert_eq!(stats[1].bytes_recv, 5);
    }

    #[test]
    #[should_panic(expected = "reserved")]
    fn reserved_tags_rejected() {
        run(2, |c| {
            if c.rank() == 0 {
                // Panics in `send` before anything is transmitted; rank 1
                // exits immediately so the panic propagates cleanly.
                c.send(1, RESERVED_TAG_BASE, Vec::new()).unwrap();
            }
        });
    }

    #[test]
    fn self_send_is_received() {
        let out = run(2, |c| {
            let me = c.rank();
            c.send(me, 9, vec![me as u8]).unwrap();
            msg(c, Some(me), Some(9)).data[0]
        });
        assert_eq!(out, vec![0, 1]);
    }

    #[test]
    fn blocked_recv_fails_when_peer_panics() {
        for (p, culprit) in [(4, 0), (3, 2)] {
            let caught = std::panic::catch_unwind(|| {
                run(p, |c| {
                    if c.rank() == culprit {
                        panic!("rank {culprit} died");
                    }
                    // Must not hang, though the others keep each other's
                    // inboxes open: each in turn becomes the lowest live
                    // rank of a world at rest.
                    assert!(matches!(c.recv(Some(culprit), None), Ok(Event::Quiescent)));
                    // What an engine master does with that, no plan
                    // armed: the consequence must not mask the cause.
                    assert_ne!(c.rank(), 0, "stalled");
                })
            });
            let payload = caught.expect_err("the culprit's panic propagates");
            assert_eq!(payload.downcast_ref::<String>(), Some(&format!("rank {culprit} died")), "p = {p}");
        }
    }

    /// Spin until `ready` holds of the shared world state: the tests'
    /// way of placing a rank *after* its peers have blocked.
    fn await_world(c: &Comm, ready: impl Fn(&World) -> bool) {
        while !ready(&c.world()) {
            std::thread::yield_now();
        }
    }

    #[test]
    fn one_lost_message_is_one_quiescent_event_at_the_lowest_rank() {
        // Rank 1's request to rank 2 is dropped, and each waits for the
        // other; rank 0 waits on both. Rank 0 alone is told, once, and
        // its sends then wake the other two with plain messages.
        let plan = FaultPlan::parse("drop:src=1,dst=2,tag=5,nth=1").unwrap();
        let seen = run(3, move |c| {
            c.set_fault_plan(&plan);
            let mut quiescent = 0;
            match c.rank() {
                0 => loop {
                    match c.recv(None, None).unwrap() {
                        Event::Quiescent => {
                            quiescent += 1;
                            c.send(1, 6, Vec::new()).unwrap();
                            c.send(2, 6, Vec::new()).unwrap();
                        }
                        Event::Msg(m) if m.src == 2 => break,
                        e => assert!(matches!(e, Event::Msg(_)), "{e:?}"),
                    }
                },
                1 => {
                    c.send(2, 5, b"request".to_vec()).unwrap();
                    assert_eq!(msg(c, None, None).tag, 6);
                    c.send(0, 7, Vec::new()).unwrap();
                }
                _ => {
                    assert_eq!(msg(c, None, None).tag, 6, "the request never arrives");
                    c.send(0, 7, Vec::new()).unwrap();
                }
            }
            quiescent
        });
        assert_eq!(seen, vec![1, 0, 0]);
    }

    #[test]
    fn a_computing_or_barrier_waiting_rank_keeps_the_world_awake() {
        // Rank 2 blocks on rank 0, rank 1 waits in the barrier, rank 0
        // computes: two of three ranks are idle, yet a message is still
        // coming, so nobody may be told otherwise.
        run(3, |c| {
            match c.rank() {
                0 => {
                    await_world(c, |w| w.blocked[2]);
                    assert_eq!(c.world().quiescent(), None);
                    c.send(2, 3, Vec::new()).unwrap();
                }
                1 => {}
                _ => assert_eq!(msg(c, Some(0), None).tag, 3),
            }
            c.barrier();
            assert!(c.try_recv(None, None).unwrap().is_none(), "no stray notice");
        });
    }

    #[test]
    fn a_blocking_sender_releases_its_held_delay() {
        // The sender blocks on the answer to the message it holds:
        // blocking is what releases it.
        let plan = FaultPlan::parse("delay:src=0,dst=1,tag=6,nth=1").unwrap();
        run(2, move |c| {
            c.set_fault_plan(&plan);
            if c.rank() == 0 {
                c.send(1, 6, b"held".to_vec()).unwrap();
                assert_eq!(c.stats().msgs_sent, 0, "held back, not sent");
                assert_eq!(&msg(c, Some(1), Some(7)).data[..], b"answer");
            } else {
                assert_eq!(&msg(c, Some(0), Some(6)).data[..], b"held");
                c.send(0, 7, b"answer".to_vec()).unwrap();
            }
        });
    }

    #[test]
    #[should_panic(expected = "deadlock: rank 1 never sent its part of the collective")]
    fn quiescence_inside_a_collective_is_a_named_deadlock() {
        run(2, |c| {
            if c.rank() == 0 {
                c.all_to_allv(vec![Vec::new(); 2]);
            } else {
                // Waits for an application message instead of joining.
                let _ = c.recv(Some(0), Some(1));
            }
        });
    }

    #[test]
    fn draining_backlogged_messages_is_not_wait_time() {
        run(2, |c| {
            if c.rank() == 0 {
                for _ in 0..100 {
                    c.send(1, 1, b"noise".to_vec()).unwrap();
                }
                c.send(1, 2, b"signal".to_vec()).unwrap();
                c.barrier();
            } else {
                c.barrier();
                // Everything is already in the channel (sends happened
                // before the barrier): receiving the tag-2 message must
                // drain 100 non-matching messages without charging any
                // blocked time to this receive.
                let m = msg(c, Some(0), Some(2));
                assert_eq!(&m.data[..], b"signal");
                assert_eq!(c.stats().wait_ns, 0, "drain/backlog time billed as waiting");
            }
        });
    }

    #[test]
    fn sender_side_pricing_counts_each_message_once() {
        let rows = run(2, |c| {
            if c.rank() == 0 {
                c.send(1, 3, b"12345678".to_vec()).unwrap();
            } else {
                msg(c, Some(0), Some(3));
            }
            c.tag_stats(&CostModel::BLUEGENE_L)
        });
        let model = CostModel::BLUEGENE_L;
        let expect = model.latency_s + 8.0 / model.bandwidth_bytes_per_s;
        let sender = rows[0].iter().find(|t| t.tag == 3).expect("send row");
        let receiver = rows[1].iter().find(|t| t.tag == 3).expect("recv row");
        assert!((sender.modelled_seconds - expect).abs() < 1e-15);
        assert_eq!(receiver.modelled_seconds, 0.0, "receive side is not priced again");
        assert_eq!(receiver.msgs_recv, 1);
        let total: f64 = rows.iter().flatten().map(|t| t.modelled_seconds).sum();
        assert!((total - expect).abs() < 1e-15, "cross-rank sum prices the message once");
    }

    #[test]
    fn aborted_peer_is_a_death_event_and_a_late_send_to_it_is_lost() {
        // No plan armed anywhere. Rank 1 aborts and exits; rank 0 sends
        // into its closed inbox before having looked at its own — a
        // loss, not the vanished-peer panic, because the death notice
        // got there first — and then observes the death.
        run(2, |c| {
            if c.rank() == 1 {
                c.abort();
                return;
            }
            await_world(c, |w| !w.live[1]);
            c.send(1, 4, b"late".to_vec()).unwrap();
            assert!(matches!(c.recv(None, None), Ok(Event::Death(1))));
            assert!(c.dead_peers()[1]);
            assert!(!c.has_fault_plan());
            assert_eq!(c.fault_stats(), FaultStats::default(), "no plan, no fault bookkeeping");
        });
    }

    #[test]
    fn scripted_kill_surfaces_error_and_death_notices() {
        let plan = FaultPlan::parse("kill:lease=2").unwrap();
        let out = run(3, move |c| {
            c.set_fault_plan(&plan);
            // The clause is there for whoever numbers leases to read.
            assert!(c.kills_at(false, 2));
            assert!(!c.kills_at(true, 2) && !c.kills_at(false, 1));
            match c.rank() {
                1 => {
                    // What the engine does on taking lease 2.
                    c.send(0, 5, b"one".to_vec()).unwrap();
                    let killed = CommError::Killed { rank: 1, lease: 2 };
                    assert_eq!(c.kill(2), killed);
                    // Every later op fails, and nothing reaches the wire.
                    assert_eq!(c.send(0, 5, b"two".to_vec()), Err(killed));
                    assert_eq!(c.recv(None, None).unwrap_err(), killed);
                    assert_eq!(c.try_recv(None, None).unwrap_err(), killed);
                    assert_eq!(c.fault_stats().kills, 1);
                    assert_eq!(c.fault_stats().death_notices, 2);
                    "killed"
                }
                0 => {
                    // The message sent before death arrives; the death is
                    // observed as an event.
                    let mut got_msg = false;
                    let mut got_death = false;
                    while !(got_msg && got_death) {
                        match c.recv(None, None).unwrap() {
                            Event::Msg(m) => {
                                assert_eq!(&m.data[..], b"one");
                                got_msg = true;
                            }
                            Event::Death(peer) => {
                                assert_eq!(peer, 1);
                                got_death = true;
                            }
                            Event::Quiescent => panic!("both events are on their way"),
                        }
                    }
                    assert!(c.dead_peers()[1]);
                    // Sends to the dead peer blackhole instead of panic.
                    c.send(1, 9, b"into the void".to_vec()).unwrap();
                    assert_eq!(c.fault_stats().msgs_lost, 1);
                    "survivor"
                }
                _ => match c.recv(None, None).unwrap() {
                    Event::Death(1) => "observed",
                    e => panic!("expected death of rank 1, got {e:?}"),
                },
            }
        });
        assert_eq!(out, vec!["survivor", "killed", "observed"]);
    }

    #[test]
    fn scripted_drop_discards_exactly_the_nth_match() {
        let plan = FaultPlan::parse("drop:src=0,dst=1,tag=4,nth=2").unwrap();
        run(2, move |c| {
            c.set_fault_plan(&plan);
            if c.rank() == 0 {
                c.send(1, 4, b"a".to_vec()).unwrap();
                c.send(1, 4, b"b".to_vec()).unwrap(); // dropped
                c.send(1, 4, b"c".to_vec()).unwrap();
                assert_eq!(c.fault_stats().msgs_dropped, 1);
            } else {
                let first = match c.recv(Some(0), Some(4)).unwrap() {
                    Event::Msg(m) => m.data,
                    e => panic!("{e:?}"),
                };
                let second = match c.recv(Some(0), Some(4)).unwrap() {
                    Event::Msg(m) => m.data,
                    e => panic!("{e:?}"),
                };
                assert_eq!(&first[..], b"a");
                assert_eq!(&second[..], b"c", "the 'b' message was dropped on the wire");
            }
        });
    }

    #[test]
    fn scripted_delay_reorders_past_later_traffic() {
        // The first tag-6 message is held until its sender reaches the
        // barrier: the second overtakes it.
        let plan = FaultPlan::parse("delay:src=0,dst=1,tag=6,nth=1").unwrap();
        run(2, move |c| {
            c.set_fault_plan(&plan);
            if c.rank() == 0 {
                c.send(1, 6, b"early".to_vec()).unwrap(); // held
                c.send(1, 6, b"later".to_vec()).unwrap();
                assert_eq!(c.stats().msgs_sent, 1, "one on the wire, one held");
                c.barrier();
                assert_eq!(c.fault_stats().msgs_delayed, 1);
            } else {
                let order: Vec<Vec<u8>> = (0..2)
                    .map(|_| match c.recv(Some(0), Some(6)).unwrap() {
                        Event::Msg(m) => m.data,
                        e => panic!("{e:?}"),
                    })
                    .collect();
                assert_eq!(&order[0][..], b"later", "delayed message arrives out of order");
                assert_eq!(&order[1][..], b"early");
                c.barrier();
            }
        });
    }

    #[test]
    fn barrier_synchronises() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let counter = AtomicUsize::new(0);
        run(4, |c| {
            counter.fetch_add(1, Ordering::SeqCst);
            c.barrier();
            // After the barrier every rank must observe all increments.
            assert_eq!(counter.load(Ordering::SeqCst), 4);
        });
    }

    #[test]
    fn a_rank_that_leaves_before_the_barrier_is_a_panic_not_a_hang() {
        // By panic: the peers' report of it must not mask the cause.
        let caught = std::panic::catch_unwind(|| {
            run(3, |c| {
                if c.rank() == 0 {
                    panic!("rank 0 died");
                }
                c.barrier();
            })
        });
        let payload = caught.expect_err("the culprit's panic propagates");
        assert_eq!(payload.downcast_ref::<&str>(), Some(&"rank 0 died"));
        // By return: the peer left waiting is the one to say so.
        let caught = std::panic::catch_unwind(|| {
            run(2, |c| {
                if c.rank() == 1 {
                    c.barrier();
                }
            })
        });
        let payload = caught.expect_err("a barrier nobody can complete");
        assert_eq!(
            payload.downcast_ref::<String>().map(String::as_str),
            Some("rank 0 left before the barrier")
        );
    }

    #[test]
    fn selective_receives_keep_each_senders_order_under_concurrent_senders() {
        // Three ranks fill rank 0's inbox at once, alternating tags;
        // rank 0 takes it apart by (src, tag), last sender first, so
        // every receive passes over the others' messages.
        const N: u8 = 50;
        run(4, |c| {
            if c.rank() > 0 {
                for seq in 0..N {
                    c.send(0, 1 + u32::from(seq % 2), vec![seq]).unwrap();
                }
                return;
            }
            for src in (1..c.size()).rev() {
                for tag in [2, 1] {
                    let seqs: Vec<u8> = (0..N / 2).map(|_| msg(c, Some(src), Some(tag)).data[0]).collect();
                    let expect: Vec<u8> = (0..N).filter(|seq| 1 + u32::from(seq % 2) == tag).collect();
                    assert_eq!(seqs, expect, "src {src} tag {tag}");
                }
            }
            assert!(c.try_recv(None, None).unwrap().is_none(), "nothing left over");
        });
    }

    #[test]
    fn a_self_send_with_every_peer_blocked_is_not_quiescence() {
        // Rank 1 is blocked on rank 0, whose only traffic is to itself:
        // its own inbox is part of the world, so the blocking receive
        // finds the message and nobody is told the world is at rest.
        run(2, |c| {
            if c.rank() == 0 {
                await_world(c, |w| w.blocked[1]);
                c.send(0, 9, b"me".to_vec()).unwrap();
                assert_eq!(&msg(c, Some(0), Some(9)).data[..], b"me");
                c.send(1, 3, Vec::new()).unwrap();
            } else {
                assert_eq!(msg(c, None, None).tag, 3);
            }
        });
    }

    #[test]
    fn a_rank_leaving_a_full_inbox_behind_is_one_quiescent_event_at_the_lowest_live_rank() {
        // Rank 0 returns without reading what ranks 1 and 2 sent it,
        // and both wait on. What died with rank 0's inbox is not
        // traffic still to come: rank 1, now the lowest live rank, is
        // told, once, and its send then frees rank 2.
        let seen = run(3, |c| {
            if c.rank() == 0 {
                await_world(c, |w| w.inboxes[0].len() == 2);
                return 0;
            }
            c.send(0, 5, b"unread".to_vec()).unwrap();
            match c.recv(None, None).unwrap() {
                Event::Quiescent => {
                    assert_eq!(c.rank(), 1);
                    c.send(2, 6, Vec::new()).unwrap();
                    1
                }
                Event::Msg(m) => {
                    assert_eq!((c.rank(), m.src, m.tag), (2, 1, 6));
                    assert!(c.try_recv(None, None).unwrap().is_none(), "no second notice");
                    0
                }
                e => panic!("nobody died: {e:?}"),
            }
        });
        assert_eq!(seen, vec![0, 1, 0]);
    }
}

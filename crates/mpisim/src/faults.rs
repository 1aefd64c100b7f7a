//! Deterministic, seeded fault injection for the simulated machine.
//!
//! A [`FaultPlan`] scripts failures against rank-local *event counts*,
//! never wall-clock time. A rank's clock ticks once per `send` and once
//! per receive that returns an event — an empty `try_recv` is not an
//! event — so its reading is a function of the messages the rank
//! exchanged, not of how often it polled. The plan can
//!
//! - **kill** a rank once its event counter reaches a scripted value
//!   (`kill:rank=2,event=500` — or `kill:any,event=500`, where the
//!   victim worker is drawn from the plan's seed, not the clock);
//! - **drop** the *n*-th message matching a `(src,dst,tag)` triple at
//!   the sender (`drop:src=1,dst=0,tag=1,nth=2` — under the task
//!   engine tag 1 is a worker's report, tag 2 the master's grant);
//! - **delay** such a message by a scripted number of sender events
//!   (`delay:src=0,dst=1,tag=2,nth=2,by=40`), re-ordering it past
//!   later traffic the way a congested link would. A sender about to
//!   block releases what it still holds: a delay reorders, it never
//!   strands a message behind a sender that went idle.
//!
//! Failures surface to callers as recoverable [`CommError`]s (a killed
//! rank's next point-to-point call returns `Err(CommError::Killed)`), and
//! a dying rank broadcasts a *death notice* to every peer so survivors
//! observe the failure as an event instead of a hang. A *lost* message
//! needs no timer either: the simulator sees every rank blocked with
//! nothing undelivered and raises `Event::Quiescent`. Every injected
//! fault is recorded on the `fault` trace category and in the
//! [`FaultStats`] counters.
//!
//! Plans are scoped per pipeline stage (`stage=cluster|assemble`, or
//! any): [`FaultPlan::for_stage`] extracts the clauses a stage should
//! arm before handing the plan to its ranks.

use bytes::Bytes;

/// A communication failure surfaced by `Comm::{send, recv, try_recv}`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CommError {
    /// The fault plan killed *this* rank at the given rank-local event
    /// count. The rank has already broadcast its death notice; the
    /// caller must unwind without further communication.
    Killed {
        /// The rank that died (the caller's own).
        rank: usize,
        /// The rank-local event count the kill tripped at.
        event: u64,
    },
    /// A message from `src` did not decode under the protocol its `tag`
    /// belongs to. Raised by the layer that owns that protocol (the
    /// comm layer treats payloads as opaque bytes).
    Malformed {
        /// The sending rank.
        src: usize,
        /// The tag the payload arrived under.
        tag: u32,
    },
}

impl std::fmt::Display for CommError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CommError::Killed { rank, event } => {
                write!(f, "rank {rank} killed by fault plan at event {event}")
            }
            CommError::Malformed { src, tag } => {
                write!(f, "malformed message from rank {src} under tag {tag}")
            }
        }
    }
}

/// Which pipeline stage a fault clause is armed in. A stage installs
/// only the clauses scoped to it (or to [`FaultStage::Any`]), so one
/// plan string can script both engine phases without a kill firing
/// twice.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum FaultStage {
    /// Armed in every stage that installs the plan.
    Any,
    /// The clustering master–worker phase (the default scope).
    #[default]
    Cluster,
    /// The distributed assemble phase.
    Assemble,
}

/// Which rank a kill clause targets.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KillTarget {
    /// A specific rank (0 = the master).
    Rank(usize),
    /// A worker rank drawn deterministically from the plan's seed.
    AnyWorker,
}

/// Kill one rank when its event counter reaches `at_event`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KillSpec {
    /// The victim.
    pub target: KillTarget,
    /// Rank-local event count the kill trips at (checked at the entry
    /// of each `send` and blocking `recv`, *before* any transmission,
    /// so a worker dies with its current round's report undelivered).
    pub at_event: u64,
    /// Stage scope.
    pub stage: FaultStage,
}

/// Drop or delay the `nth` message matching `(src, dst, tag)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MsgFaultSpec {
    /// Sending rank the clause is armed on.
    pub src: usize,
    /// Destination rank to match.
    pub dst: usize,
    /// Application tag to match.
    pub tag: u32,
    /// 1-based index among matching messages (1 = the first match).
    pub nth: u64,
    /// `None` = drop the message; `Some(k)` = hold it back and deliver
    /// it once the sender's event counter has advanced `k` further or
    /// the sender is about to block, whichever comes first — after
    /// whatever the sender did in between, a *late* message.
    pub delay_by: Option<u64>,
    /// Stage scope.
    pub stage: FaultStage,
}

/// A deterministic failure script for one run. See the module docs for
/// the grammar; [`FaultPlan::parse`] builds one from the CLI string.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FaultPlan {
    /// Seed for every randomised choice the plan makes (`kill:any`
    /// victim selection). Wall-clock time is never consulted.
    pub seed: u64,
    /// Scripted kills.
    pub kills: Vec<KillSpec>,
    /// Scripted message drops and delays.
    pub msg_faults: Vec<MsgFaultSpec>,
}

impl FaultPlan {
    /// True when the plan scripts nothing.
    pub fn is_empty(&self) -> bool {
        self.kills.is_empty() && self.msg_faults.is_empty()
    }

    /// The sub-plan a given stage should arm: clauses scoped to
    /// `stage` or to [`FaultStage::Any`].
    pub fn for_stage(&self, stage: FaultStage) -> FaultPlan {
        FaultPlan {
            seed: self.seed,
            kills: self
                .kills
                .iter()
                .copied()
                .filter(|k| k.stage == stage || k.stage == FaultStage::Any)
                .collect(),
            msg_faults: self
                .msg_faults
                .iter()
                .copied()
                .filter(|m| m.stage == stage || m.stage == FaultStage::Any)
                .collect(),
        }
    }

    /// Builder: add a kill clause (tests and benches).
    pub fn with_kill(mut self, target: KillTarget, at_event: u64, stage: FaultStage) -> Self {
        self.kills.push(KillSpec { target, at_event, stage });
        self
    }

    /// Builder: add a drop clause (tests and benches).
    pub fn with_drop(mut self, src: usize, dst: usize, tag: u32, nth: u64, stage: FaultStage) -> Self {
        self.msg_faults.push(MsgFaultSpec { src, dst, tag, nth, delay_by: None, stage });
        self
    }

    /// Builder: add a delay clause (tests and benches).
    pub fn with_delay(
        mut self,
        src: usize,
        dst: usize,
        tag: u32,
        nth: u64,
        by: u64,
        stage: FaultStage,
    ) -> Self {
        self.msg_faults.push(MsgFaultSpec { src, dst, tag, nth, delay_by: Some(by), stage });
        self
    }

    /// Parse a plan string: `;`-separated clauses, each
    /// `kind:key=value,...`.
    ///
    /// ```text
    /// seed:42
    /// kill:rank=2,event=500[,stage=cluster|assemble|any]
    /// kill:any,event=500                 (victim drawn from the seed)
    /// drop:src=1,dst=0,tag=1,nth=2[,stage=...]
    /// delay:src=0,dst=1,tag=2,nth=2,by=40[,stage=...]
    /// ```
    ///
    /// Unscoped clauses default to `stage=cluster`.
    pub fn parse(s: &str) -> Result<FaultPlan, String> {
        let mut plan = FaultPlan::default();
        for clause in s.split(';').map(str::trim).filter(|c| !c.is_empty()) {
            let (kind, body) =
                clause.split_once(':').ok_or_else(|| format!("fault clause '{clause}' missing ':'"))?;
            match kind.trim() {
                "seed" => {
                    plan.seed = body.trim().parse().map_err(|_| format!("seed '{body}' is not a u64"))?;
                }
                "kill" => {
                    let kv = parse_kv(body)?;
                    let target = match get(&kv, "rank") {
                        Some("any") => KillTarget::AnyWorker,
                        Some(v) => KillTarget::Rank(
                            v.parse().map_err(|_| format!("kill rank '{v}' is not a rank id"))?,
                        ),
                        None if kv.iter().any(|(k, _)| k == "any") => KillTarget::AnyWorker,
                        None => return Err(format!("kill clause '{clause}' needs rank=<id>|any")),
                    };
                    let at_event = req_u64(&kv, "event", clause)?;
                    plan.kills.push(KillSpec { target, at_event, stage: parse_stage(&kv)? });
                }
                "drop" | "delay" => {
                    let kv = parse_kv(body)?;
                    let delay_by =
                        if kind.trim() == "delay" { Some(req_u64(&kv, "by", clause)?) } else { None };
                    plan.msg_faults.push(MsgFaultSpec {
                        src: req_u64(&kv, "src", clause)? as usize,
                        dst: req_u64(&kv, "dst", clause)? as usize,
                        tag: req_u64(&kv, "tag", clause)? as u32,
                        nth: req_u64(&kv, "nth", clause)?,
                        delay_by,
                        stage: parse_stage(&kv)?,
                    });
                }
                k => return Err(format!("unknown fault clause kind '{k}'")),
            }
        }
        Ok(plan)
    }
}

fn parse_kv(body: &str) -> Result<Vec<(String, String)>, String> {
    body.split(',')
        .map(str::trim)
        .filter(|p| !p.is_empty())
        .map(|p| match p.split_once('=') {
            Some((k, v)) => Ok((k.trim().to_string(), v.trim().to_string())),
            // A bare word ("any") is a flag with an empty value.
            None => Ok((p.to_string(), String::new())),
        })
        .collect()
}

fn get<'a>(kv: &'a [(String, String)], key: &str) -> Option<&'a str> {
    kv.iter().find(|(k, _)| k == key).map(|(_, v)| v.as_str())
}

fn req_u64(kv: &[(String, String)], key: &str, clause: &str) -> Result<u64, String> {
    get(kv, key)
        .ok_or_else(|| format!("clause '{clause}' missing {key}=<n>"))?
        .parse()
        .map_err(|_| format!("clause '{clause}': {key} is not a u64"))
}

fn parse_stage(kv: &[(String, String)]) -> Result<FaultStage, String> {
    match get(kv, "stage") {
        None => Ok(FaultStage::Cluster),
        Some("cluster") => Ok(FaultStage::Cluster),
        Some("assemble") => Ok(FaultStage::Assemble),
        Some("any") => Ok(FaultStage::Any),
        Some(s) => Err(format!("unknown stage '{s}' (cluster|assemble|any)")),
    }
}

/// Counters for the fault layer on one rank.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultStats {
    /// 1 when the plan killed this rank.
    pub kills: u64,
    /// Messages the plan discarded at this sender.
    pub msgs_dropped: u64,
    /// Messages the plan held back at this sender.
    pub msgs_delayed: u64,
    /// Death notices this rank broadcast while dying.
    pub death_notices: u64,
    /// Sends blackholed because the destination was already dead.
    pub msgs_lost: u64,
    /// This rank's event-clock reading (sends, plus receives that
    /// returned an event) — the coordinate `kill:…,event=` and
    /// `delay:…,by=` clauses are written in. Exposed so plans can be
    /// aimed from an observed run.
    pub events: u64,
}

/// splitmix64 — the repo's stable seeded mixer (same constants as the
/// GST bucket partitioner), used for every randomised plan choice.
fn splitmix64(seed: u64) -> u64 {
    let mut z = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The deterministic victim of a `kill:any` clause: a worker rank in
/// `1..size` drawn from the seed (exposed so tests and tools can
/// predict it).
pub fn any_worker_victim(seed: u64, size: usize) -> usize {
    assert!(size > 1, "kill:any needs at least one worker rank");
    1 + (splitmix64(seed) % (size as u64 - 1)) as usize
}

/// One armed message-fault clause with its match progress.
#[derive(Debug, Clone, Copy)]
struct MsgFaultState {
    spec: MsgFaultSpec,
    seen: u64,
    fired: bool,
}

/// What the fault filter decided for one outgoing message.
pub(crate) enum Verdict {
    Pass,
    Drop,
    Delay(u64),
}

/// Per-rank armed fault state, owned by the rank's `Comm`.
#[derive(Debug)]
pub(crate) struct FaultRuntime {
    rank: usize,
    /// Event count at which this rank dies, if scripted.
    kill_at: Option<u64>,
    /// Rank-local event counter (sends, and receives that returned an
    /// event).
    events: u64,
    /// This rank has tripped its kill.
    pub(crate) dead: bool,
    /// Armed drop/delay clauses whose `src` is this rank.
    msg_faults: Vec<MsgFaultState>,
    /// Held-back messages: (release_event, dest, tag, payload).
    delayed: Vec<(u64, usize, u32, Bytes)>,
    pub(crate) stats: FaultStats,
}

impl FaultRuntime {
    pub(crate) fn new(plan: &FaultPlan, rank: usize, size: usize) -> FaultRuntime {
        let kill_at = plan
            .kills
            .iter()
            .filter(|k| match k.target {
                KillTarget::Rank(r) => r == rank,
                KillTarget::AnyWorker => any_worker_victim(plan.seed, size) == rank,
            })
            .map(|k| k.at_event)
            .min();
        let msg_faults = plan
            .msg_faults
            .iter()
            .filter(|m| m.src == rank)
            .map(|&spec| MsgFaultState { spec, seen: 0, fired: false })
            .collect();
        FaultRuntime {
            rank,
            kill_at,
            events: 0,
            dead: false,
            msg_faults,
            delayed: Vec::new(),
            stats: FaultStats::default(),
        }
    }

    /// Advance the event counter; report whether the kill trips at this
    /// event.
    pub(crate) fn tick(&mut self) -> bool {
        self.events += 1;
        self.stats.events = self.events;
        let killed = !self.dead && self.kill_at.is_some_and(|at| self.events >= at);
        if killed {
            self.dead = true;
            self.stats.kills += 1;
        }
        killed
    }

    /// Take the held messages that have come due, in hold order — or
    /// `all` of them, when the rank is about to block.
    pub(crate) fn release(&mut self, all: bool) -> Vec<(usize, u32, Bytes)> {
        let due = if all { u64::MAX } else { self.events };
        let (out, held): (Vec<_>, _) =
            std::mem::take(&mut self.delayed).into_iter().partition(|h| h.0 <= due);
        self.delayed = held;
        out.into_iter().map(|(_, dest, tag, data)| (dest, tag, data)).collect()
    }

    /// Decide the fate of one outgoing message.
    pub(crate) fn filter(&mut self, dest: usize, tag: u32) -> Verdict {
        for f in &mut self.msg_faults {
            if f.fired || f.spec.dst != dest || f.spec.tag != tag {
                continue;
            }
            f.seen += 1;
            if f.seen == f.spec.nth {
                f.fired = true;
                return match f.spec.delay_by {
                    None => {
                        self.stats.msgs_dropped += 1;
                        Verdict::Drop
                    }
                    Some(by) => {
                        self.stats.msgs_delayed += 1;
                        Verdict::Delay(self.events + by)
                    }
                };
            }
        }
        Verdict::Pass
    }

    /// Stash a delayed message until its release event.
    pub(crate) fn hold(&mut self, release_at: u64, dest: usize, tag: u32, data: Bytes) {
        self.delayed.push((release_at, dest, tag, data));
    }

    pub(crate) fn killed_error(&self) -> CommError {
        CommError::Killed { rank: self.rank, event: self.events }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_round_trips_every_clause_kind() {
        let plan = FaultPlan::parse(
            "seed:7; kill:rank=2,event=500; kill:any,event=9,stage=assemble; \
             drop:src=1,dst=0,tag=3,nth=2; delay:src=4,dst=0,tag=1,nth=1,by=40,stage=any",
        )
        .unwrap();
        assert_eq!(plan.seed, 7);
        assert_eq!(
            plan.kills,
            vec![
                KillSpec { target: KillTarget::Rank(2), at_event: 500, stage: FaultStage::Cluster },
                KillSpec { target: KillTarget::AnyWorker, at_event: 9, stage: FaultStage::Assemble },
            ]
        );
        assert_eq!(plan.msg_faults.len(), 2);
        assert_eq!(plan.msg_faults[0].delay_by, None);
        assert_eq!(plan.msg_faults[1].delay_by, Some(40));
        assert_eq!(plan.msg_faults[1].stage, FaultStage::Any);
    }

    #[test]
    fn parse_rejects_malformed_clauses() {
        assert!(FaultPlan::parse("explode:now").is_err());
        assert!(FaultPlan::parse("kill:event=5").is_err(), "kill without target");
        assert!(FaultPlan::parse("kill:rank=1").is_err(), "kill without event");
        assert!(FaultPlan::parse("drop:src=1,dst=0,tag=1").is_err(), "drop without nth");
        assert!(FaultPlan::parse("delay:src=1,dst=0,tag=1,nth=1").is_err(), "delay without by");
        assert!(FaultPlan::parse("kill:rank=1,event=2,stage=warp").is_err(), "unknown stage");
        assert!(FaultPlan::parse("seed:minus-one").is_err());
    }

    #[test]
    fn stage_scoping_extracts_the_right_clauses() {
        let plan = FaultPlan::parse(
            "kill:rank=1,event=5,stage=cluster; kill:rank=2,event=6,stage=assemble; \
             drop:src=1,dst=0,tag=1,nth=1,stage=any",
        )
        .unwrap();
        let cluster = plan.for_stage(FaultStage::Cluster);
        assert_eq!(cluster.kills.len(), 1);
        assert_eq!(cluster.kills[0].target, KillTarget::Rank(1));
        assert_eq!(cluster.msg_faults.len(), 1, "stage=any rides along");
        let assemble = plan.for_stage(FaultStage::Assemble);
        assert_eq!(assemble.kills.len(), 1);
        assert_eq!(assemble.kills[0].target, KillTarget::Rank(2));
        assert_eq!(assemble.msg_faults.len(), 1);
    }

    #[test]
    fn any_worker_victim_is_seed_deterministic_and_never_the_master() {
        for seed in 0..64u64 {
            for size in [2usize, 4, 8, 33] {
                let v = any_worker_victim(seed, size);
                assert!(v >= 1 && v < size, "victim {v} out of worker range at p={size}");
                assert_eq!(v, any_worker_victim(seed, size), "same seed, same victim");
            }
        }
        // Different seeds do reach different victims.
        let hits: std::collections::BTreeSet<usize> = (0..64).map(|s| any_worker_victim(s, 8)).collect();
        assert!(hits.len() > 1, "victim selection must actually vary with the seed");
    }

    #[test]
    fn runtime_kill_trips_exactly_once_at_the_scripted_event() {
        let plan = FaultPlan::default().with_kill(KillTarget::Rank(3), 4, FaultStage::Any);
        let mut rt = FaultRuntime::new(&plan, 3, 8);
        for _ in 0..3 {
            assert!(!rt.tick());
        }
        assert!(rt.tick(), "kill trips at event 4");
        assert_eq!(rt.stats.kills, 1);
        // A rank the plan does not target never dies.
        let mut other = FaultRuntime::new(&plan, 2, 8);
        for _ in 0..100 {
            assert!(!other.tick());
        }
    }

    #[test]
    fn runtime_drop_and_delay_match_the_nth_message_only() {
        let plan = FaultPlan::default().with_drop(1, 0, 7, 2, FaultStage::Any).with_delay(
            1,
            0,
            9,
            1,
            3,
            FaultStage::Any,
        );
        let mut rt = FaultRuntime::new(&plan, 1, 4);
        assert!(matches!(rt.filter(0, 7), Verdict::Pass), "first match passes");
        assert!(matches!(rt.filter(0, 7), Verdict::Drop), "second match drops");
        assert!(matches!(rt.filter(0, 7), Verdict::Pass), "clause fires once");
        assert!(matches!(rt.filter(2, 9), Verdict::Pass), "wrong dst passes");
        let v = rt.filter(0, 9);
        assert!(matches!(v, Verdict::Delay(_)));
        rt.hold(rt.events + 3, 0, 9, Bytes::from_static(b"late"));
        // Not due yet, due after 3 ticks.
        for _ in 0..2 {
            rt.tick();
            assert!(rt.release(false).is_empty());
        }
        rt.tick();
        let released = rt.release(false);
        assert_eq!(released.len(), 1);
        assert_eq!(released[0].1, 9);
        // A rank about to block releases what is not yet due.
        rt.hold(rt.events + 100, 2, 9, Bytes::from_static(b"held"));
        assert!(rt.release(false).is_empty());
        assert_eq!(rt.release(true).len(), 1);
        assert_eq!(rt.stats.msgs_dropped, 1);
        assert_eq!(rt.stats.msgs_delayed, 1);
    }
}

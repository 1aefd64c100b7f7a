//! Deterministic fault injection for the simulated machine.
//!
//! A [`FaultPlan`] scripts failures in the protocol's own coordinates,
//! never in wall-clock time or message counts of a rank's lifetime:
//!
//! - **kill** names a *lease* — the id the task engine stamps on every
//!   non-empty batch it grants, sequential from 1 within a stage and
//!   carried on the grant. `kill:lease=3` kills the worker that is
//!   granted lease 3, on receipt, before it computes or reports;
//!   `kill:master,lease=3` kills the master in place of issuing it.
//!   Which worker receives a lease varies with the thread schedule and
//!   does not matter: workers are symmetric in the protocol. The clause
//!   is evaluated by the layer that knows leases (`pgasm_core::engine`,
//!   through [`Comm::kills_at`](crate::Comm::kills_at) and
//!   [`Comm::kill`](crate::Comm::kill)); this crate keeps no counter.
//! - **drop** names a *message*: the *n*-th one matching a
//!   `(src,dst,tag)` triple is discarded at the sender
//!   (`drop:src=1,dst=0,tag=1,nth=2` — under the task engine tag 1 is a
//!   worker's report, tag 2 the master's grant);
//! - **delay** names one the same way
//!   (`delay:src=1,dst=0,tag=1,nth=2`) and holds it until its sender
//!   next blocks in a receive or reaches a barrier, re-ordering it past
//!   whatever the sender sent in between, the way a congested link would.
//!
//! Failures surface to callers as recoverable [`CommError`]s (a killed
//! rank's every later point-to-point call returns
//! `Err(CommError::Killed)`), and a dying rank broadcasts a *death
//! notice* to every peer so survivors observe the failure as an event
//! instead of a hang. A *lost* message needs no timer either: the
//! simulator sees every rank blocked with nothing left to look at and raises
//! `Event::Quiescent`. Every injected fault is recorded on the `fault`
//! trace category and in the [`FaultStats`] counters.
//!
//! Plans are scoped per pipeline stage (`stage=cluster|assemble`, or
//! any): [`FaultPlan::for_stage`] extracts the clauses a stage should
//! arm before handing the plan to its ranks.

use std::num::NonZeroU64;
use std::str::FromStr;

/// A communication failure surfaced by `Comm::{send, recv, try_recv}`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CommError {
    /// The fault plan killed *this* rank at the given lease. The rank
    /// has already broadcast its death notice; the caller must unwind
    /// without further communication.
    Killed {
        /// The rank that died (the caller's own).
        rank: usize,
        /// The lease the kill clause named.
        lease: u64,
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
            CommError::Killed { rank, lease } => {
                write!(f, "rank {rank} killed by fault plan at lease {lease}")
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

/// Kill one rank at a lease of the stage's task engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KillSpec {
    /// The victim is the master, which dies in place of issuing the
    /// lease; otherwise it is whichever worker is granted the lease,
    /// which dies on receipt, holding it unacknowledged.
    pub master: bool,
    /// The lease id (≥ 1; the engine numbers a stage's non-empty
    /// batches sequentially from 1).
    pub lease: u64,
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
    /// `false` = drop the message; `true` = hold it back until the
    /// sender next blocks in a receive or reaches a barrier — after
    /// whatever the sender did in between, a *late* message.
    pub delay: bool,
    /// Stage scope.
    pub stage: FaultStage,
}

/// A deterministic failure script for one run. See the module docs for
/// the grammar; [`FaultPlan::parse`] builds one from the CLI string.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FaultPlan {
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
        let armed = |s: FaultStage| s == stage || s == FaultStage::Any;
        FaultPlan {
            kills: self.kills.iter().copied().filter(|k| armed(k.stage)).collect(),
            msg_faults: self.msg_faults.iter().copied().filter(|m| armed(m.stage)).collect(),
        }
    }

    /// Parse a plan string: `;`-separated clauses, each
    /// `kind:key=value,...`.
    ///
    /// ```text
    /// kill:lease=3[,stage=cluster|assemble|any]
    /// kill:master,lease=3[,stage=...]
    /// drop:src=1,dst=0,tag=1,nth=2[,stage=...]
    /// delay:src=0,dst=1,tag=2,nth=2[,stage=...]
    /// ```
    ///
    /// Unscoped clauses default to `stage=cluster`. A plan is outside
    /// input: a clause with an unknown or repeated key, a missing one,
    /// or a value its field cannot hold is an error, never a clause
    /// that silently arms something else or nothing.
    pub fn parse(s: &str) -> Result<FaultPlan, String> {
        let mut plan = FaultPlan::default();
        for clause in s.split(';').map(str::trim).filter(|c| !c.is_empty()) {
            let (kind, body) =
                clause.split_once(':').ok_or_else(|| format!("fault clause '{clause}' missing ':'"))?;
            let kind = kind.trim();
            match kind {
                "kill" => {
                    let kv = parse_kv(clause, body, &["master", "lease", "stage"])?;
                    let master = match get(&kv, "master") {
                        None => false,
                        Some("") => true,
                        Some(_) => return Err(format!("clause '{clause}': master takes no value")),
                    };
                    let lease = req::<NonZeroU64>(&kv, "lease", clause)?.get();
                    plan.kills.push(KillSpec { master, lease, stage: parse_stage(&kv)? });
                }
                "drop" | "delay" => {
                    let kv = parse_kv(clause, body, &["src", "dst", "tag", "nth", "stage"])?;
                    plan.msg_faults.push(MsgFaultSpec {
                        src: req(&kv, "src", clause)?,
                        dst: req(&kv, "dst", clause)?,
                        tag: req(&kv, "tag", clause)?,
                        nth: req::<NonZeroU64>(&kv, "nth", clause)?.get(),
                        delay: kind == "delay",
                        stage: parse_stage(&kv)?,
                    });
                }
                k => return Err(format!("unknown fault clause kind '{k}' (kill, drop, delay)")),
            }
        }
        Ok(plan)
    }
}

/// Split a clause body into `key=value` parts: each of `keys` at most
/// once, nothing else. A bare word (`master`) is a key with an empty
/// value.
fn parse_kv<'a>(clause: &str, body: &'a str, keys: &[&str]) -> Result<Vec<(&'a str, &'a str)>, String> {
    let mut kv: Vec<(&str, &str)> = Vec::new();
    for part in body.split(',').map(str::trim).filter(|p| !p.is_empty()) {
        let (key, value) = part.split_once('=').map_or((part, ""), |(k, v)| (k.trim(), v.trim()));
        if !keys.contains(&key) {
            return Err(format!("clause '{clause}': unknown key '{key}' (one of: {})", keys.join(", ")));
        }
        if get(&kv, key).is_some() {
            return Err(format!("clause '{clause}': {key} given twice"));
        }
        kv.push((key, value));
    }
    Ok(kv)
}

fn get<'a>(kv: &[(&str, &'a str)], key: &str) -> Option<&'a str> {
    kv.iter().find(|(k, _)| *k == key).map(|&(_, v)| v)
}

/// A required value, parsed into the type of the field it fills — so a
/// value the field cannot hold is rejected here, not truncated later.
fn req<T: FromStr>(kv: &[(&str, &str)], key: &str, clause: &str) -> Result<T, String> {
    let value = get(kv, key).ok_or_else(|| format!("clause '{clause}' missing {key}=<n>"))?;
    value.parse().map_err(|_| format!("clause '{clause}': {key}={value} is out of range"))
}

fn parse_stage(kv: &[(&str, &str)]) -> Result<FaultStage, String> {
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
    Delay,
}

/// Per-rank armed fault state, owned by the rank's `Comm`.
#[derive(Debug)]
pub(crate) struct FaultRuntime {
    /// The armed kill clauses (every rank holds them all: which worker
    /// a lease goes to is not known in advance).
    pub(crate) kills: Vec<KillSpec>,
    /// The lease this rank was killed at.
    pub(crate) killed_at: Option<u64>,
    /// Armed drop/delay clauses whose `src` is this rank.
    msg_faults: Vec<MsgFaultState>,
    /// Held-back messages, in hold order: (dest, tag, payload).
    pub(crate) delayed: Vec<(usize, u32, Vec<u8>)>,
    pub(crate) stats: FaultStats,
}

impl FaultRuntime {
    pub(crate) fn new(plan: &FaultPlan, rank: usize) -> FaultRuntime {
        let msg_faults = plan
            .msg_faults
            .iter()
            .filter(|m| m.src == rank)
            .map(|&spec| MsgFaultState { spec, seen: 0, fired: false })
            .collect();
        FaultRuntime {
            kills: plan.kills.clone(),
            killed_at: None,
            msg_faults,
            delayed: Vec::new(),
            stats: FaultStats::default(),
        }
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
                return if f.spec.delay {
                    self.stats.msgs_delayed += 1;
                    Verdict::Delay
                } else {
                    self.stats.msgs_dropped += 1;
                    Verdict::Drop
                };
            }
        }
        Verdict::Pass
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_round_trips_every_clause_kind() {
        let plan = FaultPlan::parse(
            "kill:lease=500; kill:master,lease=9,stage=assemble; \
             drop:src=1,dst=0,tag=3,nth=2; delay:src=4,dst=0,tag=1,nth=1,stage=any",
        )
        .unwrap();
        assert_eq!(
            plan.kills,
            vec![
                KillSpec { master: false, lease: 500, stage: FaultStage::Cluster },
                KillSpec { master: true, lease: 9, stage: FaultStage::Assemble },
            ]
        );
        assert_eq!(
            plan.msg_faults,
            vec![
                MsgFaultSpec { src: 1, dst: 0, tag: 3, nth: 2, delay: false, stage: FaultStage::Cluster },
                MsgFaultSpec { src: 4, dst: 0, tag: 1, nth: 1, delay: true, stage: FaultStage::Any },
            ]
        );
        assert!(FaultPlan::parse(" ; ").unwrap().is_empty());
    }

    #[test]
    fn parse_rejects_clauses_that_cannot_mean_anything() {
        for (plan, why) in [
            ("explode:now", "unknown kind"),
            ("kill", "no body"),
            ("kill:master", "kill without a lease"),
            ("kill:lease=0", "leases start at 1"),
            ("kill:lease=-1", "negative lease"),
            ("kill:lease", "lease without a value"),
            ("kill:lease=2,lease=3", "repeated key"),
            ("kill:master=yes,lease=2", "master is a bare word"),
            ("kill:lease=2,stage=warp", "unknown stage"),
            ("kill:lease=2,src=1", "a key of another clause kind"),
            ("drop:src=1,dst=0,tag=1", "drop without nth"),
            ("drop:src=1,dst=0,tag=1,nth=0", "nth is 1-based"),
            ("drop:src=1,dst=0,tag=1,nth=2,stge=assemble", "misspelt key must not arm in cluster"),
            ("drop:src=1,dst=0,tag=4294967297,nth=1", "tag must not truncate to 1"),
            ("drop:src=1,src=2,dst=0,tag=1,nth=1", "repeated key"),
            ("delay:src=x,dst=0,tag=1,nth=1", "src is not a rank"),
            ("kill:rank=2,event=500", "a kill names no rank and no event"),
            ("kill:event=500", "a kill names a lease"),
            ("kill:any,lease=3", "no wildcard victim"),
            ("kill:rank=0,lease=3", "the master is the bare word"),
            ("seed:42", "no choice a plan makes is random"),
            ("delay:src=0,dst=1,tag=2,nth=2,by=40", "a delay has no duration"),
        ] {
            assert!(FaultPlan::parse(plan).is_err(), "{plan}: {why}");
        }
    }

    #[test]
    fn stage_scoping_extracts_the_right_clauses() {
        let plan = FaultPlan::parse(
            "kill:lease=5,stage=cluster; kill:lease=6,stage=assemble; \
             drop:src=1,dst=0,tag=1,nth=1,stage=any",
        )
        .unwrap();
        let cluster = plan.for_stage(FaultStage::Cluster);
        assert_eq!(cluster.kills.len(), 1);
        assert_eq!(cluster.kills[0].lease, 5);
        assert_eq!(cluster.msg_faults.len(), 1, "stage=any rides along");
        let assemble = plan.for_stage(FaultStage::Assemble);
        assert_eq!(assemble.kills.len(), 1);
        assert_eq!(assemble.kills[0].lease, 6);
        assert_eq!(assemble.msg_faults.len(), 1);
    }

    #[test]
    fn runtime_drop_and_delay_match_the_nth_message_only() {
        let plan =
            FaultPlan::parse("drop:src=1,dst=0,tag=7,nth=2; delay:src=1,dst=0,tag=9,nth=1; kill:lease=4")
                .unwrap();
        let mut rt = FaultRuntime::new(&plan, 1);
        assert!(matches!(rt.filter(0, 7), Verdict::Pass), "first match passes");
        assert!(matches!(rt.filter(0, 7), Verdict::Drop), "second match drops");
        assert!(matches!(rt.filter(0, 7), Verdict::Pass), "clause fires once");
        assert!(matches!(rt.filter(2, 9), Verdict::Pass), "wrong dst passes");
        assert!(matches!(rt.filter(0, 9), Verdict::Delay));
        assert!(matches!(rt.filter(0, 9), Verdict::Pass), "clause fires once");
        assert_eq!((rt.stats.msgs_dropped, rt.stats.msgs_delayed), (1, 1));
        // Message clauses arm on their sender only; every rank holds
        // the kill clauses.
        let other = FaultRuntime::new(&plan, 2);
        assert!(other.msg_faults.is_empty());
        assert_eq!(other.kills, plan.kills);
    }
}

//! Deterministic fault injection for the simulated machine.
//!
//! A [`FaultPlan`] scripts failures in the protocol's own coordinates,
//! never in wall-clock time or message counts: every clause names a
//! *lease* — the id the task engine stamps on every non-empty batch it
//! grants, sequential from 1 within a stage, carried on the grant and
//! echoed on the report that retires it — and a point in that lease's
//! round:
//!
//! - `kill:lease=K` kills the worker that is granted lease K, on
//!   receipt, before it computes or reports; `kill:master,lease=K`
//!   kills the master in place of issuing it;
//! - `drop:lease=K,dir=grant|report` loses grant K, or the report that
//!   retires K, on the wire;
//! - `delay:lease=K,dir=grant|report` holds that message back until its
//!   sender next blocks in a receive or reaches a barrier, re-ordering
//!   it past whatever the sender sent in between, the way a congested
//!   link would.
//!
//! Which worker holds a lease varies with the thread schedule and does
//! not matter: workers are symmetric in the protocol. A grant or report
//! a clause names always carries a batch, so every drop leaves a lease
//! to recover. The clauses are evaluated by the layer that numbers
//! leases (`pgasm_core::engine`, through
//! [`Comm::fault_at`](crate::Comm::fault_at)), which carries them out
//! with [`Comm::kill`](crate::Comm::kill),
//! [`Comm::lose`](crate::Comm::lose) and
//! [`Comm::hold`](crate::Comm::hold); this crate keeps no counter.
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

impl FaultStage {
    /// Whether a clause scoped to `self` is armed in a stage `other`
    /// arms.
    fn overlaps(self, other: FaultStage) -> bool {
        self == other || self == FaultStage::Any || other == FaultStage::Any
    }
}

/// What a clause does at its point of the lease's round.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultAction {
    /// Kill the rank at the point: the master in place of issuing the
    /// lease, or the worker that takes it, which dies holding it
    /// unacknowledged.
    Kill,
    /// Lose the message on the wire: counted, never sent.
    Drop,
    /// Hold the message back until its sender next blocks in a receive
    /// or reaches a barrier — a *late* message.
    Delay,
}

/// Where in a lease's round a clause fires. The task engine asks at
/// each ([`Comm::fault_at`](crate::Comm::fault_at)).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultPoint {
    /// The master issues the lease: its grant (`dir=grant`), or the
    /// master itself (`kill:master`).
    Grant,
    /// A worker takes the lease's grant (`kill`).
    Receipt,
    /// A worker sends the report that retires the lease (`dir=report`).
    Report,
}

/// One scripted fault: `action` at `point` of `lease`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultClause {
    /// What happens.
    pub action: FaultAction,
    /// Where in the lease's round it happens.
    pub point: FaultPoint,
    /// The lease id (≥ 1; the engine numbers a stage's non-empty
    /// batches sequentially from 1).
    pub lease: u64,
    /// Stage scope.
    pub stage: FaultStage,
}

/// A deterministic failure script for one run. See the module docs for
/// the grammar; [`FaultPlan::parse`] builds one from the CLI string.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FaultPlan {
    /// The scripted faults, in plan order.
    pub clauses: Vec<FaultClause>,
}

impl FaultPlan {
    /// True when the plan scripts nothing.
    pub fn is_empty(&self) -> bool {
        self.clauses.is_empty()
    }

    /// The sub-plan a given stage should arm: clauses scoped to
    /// `stage` or to [`FaultStage::Any`].
    pub fn for_stage(&self, stage: FaultStage) -> FaultPlan {
        FaultPlan { clauses: self.clauses.iter().filter(|c| c.stage.overlaps(stage)).copied().collect() }
    }

    /// Parse a plan string: `;`-separated clauses, each
    /// `kind:key=value,...`.
    ///
    /// ```text
    /// kill:lease=3[,stage=cluster|assemble|any]
    /// kill:master,lease=3[,stage=...]
    /// drop:lease=3,dir=grant|report[,stage=...]
    /// delay:lease=3,dir=grant|report[,stage=...]
    /// ```
    ///
    /// Unscoped clauses default to `stage=cluster`. A plan is outside
    /// input: a clause with an unknown or repeated key, a missing one,
    /// or a value its field cannot hold is an error, and so is a second
    /// clause at the point and lease of an earlier one in an overlapping
    /// stage — never a clause that silently arms something else or
    /// nothing.
    pub fn parse(s: &str) -> Result<FaultPlan, String> {
        let mut plan = FaultPlan::default();
        for clause in s.split(';').map(str::trim).filter(|c| !c.is_empty()) {
            let (kind, body) =
                clause.split_once(':').ok_or_else(|| format!("fault clause '{clause}' missing ':'"))?;
            let (action, keys): (_, &[&str]) = match kind.trim() {
                "kill" => (FaultAction::Kill, &["master", "lease", "stage"]),
                "drop" => (FaultAction::Drop, &["lease", "dir", "stage"]),
                "delay" => (FaultAction::Delay, &["lease", "dir", "stage"]),
                k => return Err(format!("unknown fault clause kind '{k}' (kill, drop, delay)")),
            };
            let kv = parse_kv(clause, body, keys)?;
            let point = match (action, get(&kv, "master"), get(&kv, "dir")) {
                (FaultAction::Kill, None, _) => FaultPoint::Receipt,
                (FaultAction::Kill, Some(""), _) => FaultPoint::Grant,
                (FaultAction::Kill, Some(_), _) => {
                    return Err(format!("clause '{clause}': master takes no value"))
                }
                (_, _, Some("grant")) => FaultPoint::Grant,
                (_, _, Some("report")) => FaultPoint::Report,
                (_, _, None) => return Err(format!("clause '{clause}' missing dir=grant|report")),
                (_, _, Some(d)) => {
                    return Err(format!("clause '{clause}': unknown dir '{d}' (grant|report)"))
                }
            };
            let lease = get(&kv, "lease").ok_or_else(|| format!("clause '{clause}' missing lease=<K>"))?;
            let lease = lease
                .parse::<NonZeroU64>()
                .map_err(|_| format!("clause '{clause}': lease={lease} is out of range (leases start at 1)"))?
                .get();
            let stage = parse_stage(&kv)?;
            if plan.clauses.iter().any(|c| c.point == point && c.lease == lease && c.stage.overlaps(stage)) {
                return Err(format!(
                    "clause '{clause}': an earlier clause already acts there on lease {lease}"
                ));
            }
            plan.clauses.push(FaultClause { action, point, lease, stage });
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
    /// Messages the plan lost at this sender.
    pub msgs_dropped: u64,
    /// Messages the plan held back at this sender.
    pub msgs_delayed: u64,
    /// Death notices this rank broadcast while dying.
    pub death_notices: u64,
    /// Sends blackholed because the destination was already dead.
    pub msgs_lost: u64,
}

/// Per-rank armed fault state, owned by the rank's `Comm`.
#[derive(Debug, Default)]
pub(crate) struct FaultRuntime {
    /// The armed clauses (every rank holds them all: which worker a
    /// lease goes to is not known in advance).
    pub(crate) clauses: Vec<FaultClause>,
    /// The lease this rank was killed at.
    pub(crate) killed_at: Option<u64>,
    /// Held-back messages, in hold order: (dest, tag, payload).
    pub(crate) held: Vec<(usize, u32, Vec<u8>)>,
    pub(crate) stats: FaultStats,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn clause(action: FaultAction, point: FaultPoint, lease: u64, stage: FaultStage) -> FaultClause {
        FaultClause { action, point, lease, stage }
    }

    #[test]
    fn parse_round_trips_every_clause_kind() {
        use FaultAction::*;
        use FaultPoint::*;
        let plan = FaultPlan::parse(
            "kill:lease=500; kill:master,lease=9,stage=assemble; \
             drop:lease=2,dir=report; delay:dir=grant,lease=3,stage=any",
        )
        .unwrap();
        assert_eq!(
            plan.clauses,
            vec![
                clause(Kill, Receipt, 500, FaultStage::Cluster),
                clause(Kill, Grant, 9, FaultStage::Assemble),
                clause(Drop, Report, 2, FaultStage::Cluster),
                clause(Delay, Grant, 3, FaultStage::Any),
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
            ("kill:lease=2,dir=grant", "dir is not a kill key"),
            ("drop:lease=2", "drop without dir"),
            ("drop:lease=0,dir=grant", "leases start at 1"),
            ("drop:lease=18446744073709551616,dir=grant", "lease must not wrap"),
            ("delay:lease=2,dir=sideways", "unknown dir"),
            ("drop:dir=report", "drop without a lease"),
            ("drop:lease=2,dir=report,stge=assemble", "misspelt key must not arm in cluster"),
            ("drop:lease=2,dir=grant,dir=report", "repeated key"),
            ("drop:master,lease=2,dir=grant", "master is a kill word"),
            ("drop:src=1,dst=0,tag=1,nth=2", "a message is named by its lease"),
            ("delay:lease=2,dir=grant,nth=1", "no message count"),
            ("kill:rank=2,event=500", "a kill names no rank and no event"),
            ("kill:any,lease=3", "no wildcard victim"),
            ("seed:42", "no choice a plan makes is random"),
            ("delay:lease=2,dir=grant,by=40", "a delay has no duration"),
            ("drop:lease=2,dir=grant; delay:lease=2,dir=grant", "two clauses on one message"),
            (
                "kill:master,lease=4,stage=any; drop:lease=4,dir=grant,stage=assemble",
                "the master never issues it",
            ),
        ] {
            assert!(FaultPlan::parse(plan).is_err(), "{plan}: {why}");
        }
        // The old message grammar names the keys that replace it.
        let err = FaultPlan::parse("drop:src=1,dst=0,tag=1,nth=2").unwrap_err();
        assert!(err.contains("unknown key 'src' (one of: lease, dir, stage)"), "{err}");
        // One point of one lease, once per stage: these arm two faults.
        assert_eq!(
            FaultPlan::parse("drop:lease=2,dir=grant; drop:lease=2,dir=report").unwrap().clauses.len(),
            2
        );
        let staged = "drop:lease=2,dir=grant; drop:lease=2,dir=grant,stage=assemble";
        assert_eq!(FaultPlan::parse(staged).unwrap().clauses.len(), 2);
    }

    #[test]
    fn stage_scoping_extracts_the_right_clauses() {
        let plan = FaultPlan::parse(
            "kill:lease=5,stage=cluster; kill:lease=6,stage=assemble; drop:lease=1,dir=report,stage=any",
        )
        .unwrap();
        let leases = |stage| plan.for_stage(stage).clauses.iter().map(|c| c.lease).collect::<Vec<_>>();
        assert_eq!(leases(FaultStage::Cluster), vec![5, 1], "stage=any rides along");
        assert_eq!(leases(FaultStage::Assemble), vec![6, 1]);
    }
}

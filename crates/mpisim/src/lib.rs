//! # pgasm-mpisim — distributed-memory message-passing substrate
//!
//! The paper runs on a 1024-node IBM BlueGene/L over MPI. This crate
//! simulates that environment on one machine: each *rank* is an OS
//! thread whose data is private by ownership, and all inter-rank sharing
//! flows through explicit byte messages — so the programming model (and
//! the traffic) is exactly that of a distributed-memory code.
//!
//! Provided:
//!
//! - [`comm`] — one fallible point-to-point API, `send` / `recv` /
//!   `try_recv` with source/tag matching (a receive yields an
//!   [`Event`]: a message, the death of a peer, or the simulator's
//!   observation that the world is quiescent — every live rank blocked
//!   in a receive, nothing in its inbox left to look at — raised at the
//!   lowest live rank), barriers, and the collective §6 uses: the
//!   *custom* `alltoallv`, `p − 1` point-to-point rounds that bound
//!   send-buffer space to one destination at a time. A `send`
//!   reaches the wire before it returns; nothing is staged.
//! - [`model`] — the α–β (latency × bandwidth) communication cost
//!   model with BlueGene/L parameters, so experiments can report
//!   *modelled* network time next to measured compute time, reproducing
//!   the communication/computation breakdown of the paper's Fig. 5.
//!   A rank's one record of its traffic is its per-tag rows
//!   ([`Comm::tag_stats`]); its blocked time is two nanosecond tallies
//!   ([`Comm::wait_ns`], [`Comm::barrier_ns`]).
//! - [`faults`] — deterministic failure injection: a [`FaultPlan`] is
//!   a list of clauses, each a kill, drop or delay at one point of one
//!   lease of the task engine, which asks the plan where it handles a
//!   lease ([`Comm::fault_at`]) and carries the clause out
//!   ([`Comm::kill`], [`Comm::lose`], [`Comm::hold`]); failures surface
//!   to callers as recoverable [`CommError`]s and [`Event`]s from the
//!   point-to-point calls instead of hangs.
//!
//! Payloads are opaque `Vec<u8>`; their layout belongs to the
//! caller (`pgasm_seq::wire` is the workspace's one codec).

pub mod comm;
pub mod faults;
pub mod model;

pub use comm::{run, Comm, Event, Msg};
pub use faults::{CommError, FaultAction, FaultClause, FaultPlan, FaultPoint, FaultStage, FaultStats};
pub use model::{thread_cpu_seconds, CostModel};

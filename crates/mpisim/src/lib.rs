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
//!   lowest live rank), barriers, and the two collectives §6 uses:
//!   `alltoallv` and the *custom* `alltoallv` built from `p − 1`
//!   point-to-point rounds that bounds send-buffer space. A `send`
//!   reaches the wire — or the fault plan — before it returns; nothing
//!   is staged.
//! - [`model`] — per-rank traffic statistics and an α–β (latency ×
//!   bandwidth) communication cost model with BlueGene/L parameters, so
//!   experiments can report *modelled* network time next to measured
//!   compute time, reproducing the communication/computation breakdown
//!   of the paper's Fig. 5.
//! - [`faults`] — deterministic failure injection: a [`FaultPlan`]
//!   drops or delays specific messages, and carries the kill clauses
//!   the task engine evaluates at the lease they name
//!   ([`Comm::kills_at`], [`Comm::kill`]); failures surface to callers
//!   as recoverable [`CommError`]s and [`Event`]s from the
//!   point-to-point calls instead of hangs.
//!
//! Payloads are opaque `Vec<u8>`; their layout belongs to the
//! caller (`pgasm_seq::wire` is the workspace's one codec).

pub mod comm;
pub mod faults;
pub mod model;

pub use comm::{run, tag_label, Comm, Event, Msg};
pub use faults::{CommError, FaultPlan, FaultStage, FaultStats};
pub use model::{thread_cpu_seconds, CommStats, CostModel};

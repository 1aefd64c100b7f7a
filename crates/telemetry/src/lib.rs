//! Structured run telemetry for the pgasm workspace.
//!
//! One run — a pipeline invocation, a benchmark, a CLI command —
//! threads a [`RunContext`] through its stages. The context records:
//!
//! - **spans**: begin/end events on the run's own track, one pair per
//!   stage or sub-phase, folded into nested wall + thread-CPU [`Span`]s;
//! - **counters**: named `u64` totals (pairs generated / aligned /
//!   accepted, DP cells, …);
//! - **rank channels**: per-rank compute/idle time, rank-local
//!   counters, and per-tag communication rows ([`RankReport`],
//!   [`TagStat`]);
//! - **traces**: one time-resolved event track per rank ([`Tracer`] →
//!   [`RankTrace`]: spans, instants, gauge counters), exported with the
//!   run's own track for Perfetto ([`Trace`]) and read back by
//!   [`analyze`] — the one place anything is derived from a trace.
//!
//! [`RunContext::finish`] folds everything into a [`RunReport`], which
//! serializes to a stable JSON document (and parses back — reports are
//! artifacts, not just log lines). The JSON layer is in-tree
//! ([`json::Json`]) because the build environment has no registry
//! access; see `crates/compat/README.md`.

#![warn(missing_docs)]

pub mod analyze;
pub mod cpu;
pub mod json;
pub mod names;
pub mod report;
pub mod span;
pub mod trace;

pub use cpu::{fan_out, thread_cpu_seconds};
pub use json::{Json, JsonError};
pub use report::{RankReport, RunReport, TagStat, SCHEMA_VERSION};
pub use span::{RunContext, Span};
pub use trace::{RankTrace, Trace, TraceCategory, TraceEvent, TraceKind, TraceSpec, Tracer};

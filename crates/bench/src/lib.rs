//! # pgasm-bench — experiment harness
//!
//! One module per table/figure of the paper's evaluation, each exposing
//! a `run(scale)` entry point that generates the workload, executes the
//! experiment, and prints the same rows/series the paper reports. The
//! binaries under `src/bin/` are thin wrappers; `all_experiments` runs
//! the full suite (the data source for `EXPERIMENTS.md`), the four
//! design [`ablations`] included — they have no binary of their own.
//! Four binaries serve `ci.sh` rather than a table: `trace_check`,
//! `bench_diff` (the `baselines/` gate) and the two smoke benches whose
//! reports it diffs, `ablation_fault_recovery` and `run_analyze`.
//! Kernel-level rates are the benchmark harness's per-layer metrics
//! (`benchmark/`), not a `cargo bench` here.
//!
//! Scale: workloads default to laptop-size inputs (see DESIGN.md's
//! scale note). Set `PGASM_SCALE` (e.g. `0.5` or `4.0`) to shrink or
//! grow every experiment proportionally.

pub mod ablations;
pub mod datasets;
pub mod fault_recovery;
pub mod fig5;
pub mod fig9;
pub mod sec8;
pub mod table1;
pub mod table2;
pub mod table3;
pub mod util;
pub mod validation_exp;

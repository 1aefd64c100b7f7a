//! # pgasm-core — the cluster-then-assemble framework
//!
//! The paper's primary contribution (§3, §4, §7): partition a sequencing
//! project's fragments into clusters such that fragments of one contig
//! are never split apart, then assemble each cluster independently with
//! a conventional serial assembler.
//!
//! - [`unionfind`] — the master's cluster store: Union–Find with path
//!   compression and union by rank ("an array of n integers", §7.1).
//! - [`clustering`] — the greedy transitive clustering algorithm over
//!   the on-demand promising-pair stream: align a pair only if its
//!   fragments are currently in different clusters; merge on success
//!   (paper Fig. 3). Serial engine + shared statistics.
//! - [`parallel_gst`] — distributed GST construction (§6) on the
//!   cluster stage's ranks, `1..p` building beside the master: bucket
//!   suffixes by ψ-prefix, redistribute, fetch the fragments each
//!   rank's buckets need through two collective steps, build local
//!   subtree forests. Each rank files its computation, fetches and tree
//!   sizes as `gst_*` counters of its channel, which Fig. 5 reads.
//! - [`engine`] — the generic distributed task engine: the §7
//!   event-driven master–worker protocol (AR/NP/R/AW messages, flow
//!   control, park/unpark, termination, leases, protocol tracing)
//!   behind the `Task`/`TaskSource`/`TaskSink` traits, and
//!   `engine::run_stage`, the one per-rank shell (comm set-up,
//!   checkpoints, timing, rank reports) both distributed stages run in.
//! - [`master_worker`] — the single-master / many-workers clustering
//!   stage (§7, Figs. 6–8): workers generate promising pairs from their
//!   local GST portions and compute alignments; the master owns the
//!   Union–Find and the cluster-check selection.
//! - [`assemble_dist`] — the §8 "trivially parallel" assembly stage:
//!   the master schedules whole clusters largest-first (LPT) onto
//!   worker ranks, workers assemble and ship contigs back, with the
//!   same telemetry surface as clustering.
//! - [`stages`] — the one way to run a stage: [`cluster`] and
//!   [`assemble`], in process or on simulated ranks ([`Exec`]).
//! - [`pipeline`] — preprocess → cluster → assemble in a line around
//!   the artifact cache, with the summary statistics §8 reports.
//! - [`cache`] — content-addressed per-stage artifact cache: repeated
//!   runs over identical inputs and parameters reload the preprocess
//!   output, the partition and the contigs from disk instead of
//!   recomputing them.
//! - [`checkpoint`] — fault tolerance: per-stage recovery knobs
//!   ([`checkpoint::StageRecovery`]) and atomic master checkpoint
//!   snapshots so `pgasm --resume` can restart a killed run from the
//!   last consistent master state.
//! - [`validation`] — ground-truth validation against `simgen`
//!   provenance (the §9.1 "clusters mapping to a single benchmark
//!   region" statistic, made exact).

pub mod assemble_dist;
pub mod cache;
pub mod checkpoint;
pub mod clustering;
pub mod engine;
pub mod master_worker;
pub mod parallel_gst;
pub mod pipeline;
pub mod stages;
pub mod unionfind;
pub mod validation;

pub use stages::{assemble, cluster, Exec, GstCounts, Partition};

pub use assemble_dist::{assemble_parallel, AssignPolicy};
pub use checkpoint::StageRecovery;
pub use clustering::{cluster_serial_with_gst, ClusterParams, ClusterStats, Clustering, CLUSTERING_REVISION};
pub use engine::EngineConfig;
pub use master_worker::{cluster_parallel, MasterWorkerConfig};
pub use pipeline::{Pipeline, PipelineConfig, PipelineReport};
pub use unionfind::UnionFind;

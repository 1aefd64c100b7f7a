//! # pgasm — parallel cluster-then-assemble genome assembly
//!
//! A Rust reproduction of Kalyanaraman, Emrich, Schnable & Aluru,
//! *Assembling genomes on large-scale parallel computers* (IPPS 2006;
//! extended in J. Parallel Distrib. Comput. 67, 2007).
//!
//! This facade crate re-exports the workspace's public API:
//!
//! - [`seq`] — DNA sequences, fragment storage, k-mers, FASTA I/O.
//! - [`align`] — alignment kernels and candidate-pair filters.
//! - [`gst`] — generalized suffix tree and on-demand promising-pair
//!   generation in decreasing maximal-match order.
//! - [`mpisim`] — the message-passing substrate (ranks-as-threads, p2p
//!   and collective operations, traffic accounting, BlueGene/L cost
//!   model).
//! - [`simgen`] — synthetic genomes, sampling strategies (WGS, MF, HC,
//!   BAC, environmental), error and vector models with ground truth.
//! - [`preprocess`] — Lucy-style trimming, vector screening, repeat
//!   masking.
//! - [`cluster`] — the paper's contribution: serial and master–worker
//!   parallel clustering, and the end-to-end pipeline.
//! - [`assemble`] — the per-cluster serial OLC assembler (CAP3 stand-in).
//! - [`telemetry`] — the run-report layer: spans folded from the run's
//!   event track, counters, per-rank channels, and their JSON encoding.
//!
//! See `README.md` for a quickstart and `DESIGN.md` for the system
//! inventory and experiment index.

pub use pgasm_align as align;
pub use pgasm_assemble as assemble;
pub use pgasm_core as cluster;
pub use pgasm_gst as gst;
pub use pgasm_mpisim as mpisim;
pub use pgasm_preprocess as preprocess;
pub use pgasm_seq as seq;
pub use pgasm_simgen as simgen;
pub use pgasm_telemetry as telemetry;

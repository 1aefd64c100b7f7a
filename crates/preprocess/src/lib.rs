//! # pgasm-preprocess — fragment preprocessing (§8)
//!
//! "As with any assembler, the first step in our framework is to
//! preprocess the input fragments": remove cloning-vector contamination
//! and low-quality ends (the job of Lucy, reimplemented in [`lucy`]),
//! and mask repeats against a database of known and statistically
//! defined repeats ([`repeats`]). "An efficient masking procedure is
//! important because unmasked repeats cause spurious overlaps that
//! cannot be resolved" — the masking ablation experiment quantifies
//! exactly that.
//!
//! [`pipeline`] ties both into a single [`pipeline::Preprocessor`] that
//! produces the Table-2 style per-strategy accounting.

pub mod artifact;
pub mod lucy;
pub mod pipeline;
pub mod repeats;

pub use artifact::{PreprocessBulk, PreprocessDigests, PreprocessSummary, PREPROCESS_CODEC_SCHEMA};
pub use lucy::{LucyConfig, TrimOutcome};
pub use pipeline::{PreprocessConfig, PreprocessStats, Preprocessor};
pub use repeats::{RepeatLibrary, StatRepeatConfig};

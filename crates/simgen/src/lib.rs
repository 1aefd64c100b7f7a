//! # pgasm-simgen — synthetic sequencing workloads with ground truth
//!
//! The paper evaluates on three datasets we cannot redistribute: the
//! maize pilot-project fragments (MF/HC gene-enriched + BAC + WGS), the
//! *Drosophila pseudoobscura* WGS traces, and the Sargasso Sea
//! environmental sample. This crate generates synthetic equivalents that
//! reproduce the *structural* properties those datasets exercise:
//!
//! - [`genome`] — reference genomes with planted high-identity repeat
//!   families (maize: repeats span 65–80% of the genome) and annotated
//!   gene islands (genes occupy 10–15%, mostly outside repeats).
//! - [`errors`] — a Sanger-style sequencing error model (1–2%
//!   substitutions/indels) with end-decaying quality values.
//! - [`sampler`] — fragment sampling strategies: uniform whole-genome
//!   shotgun (WGS), methyl-filtration (MF) and High-C₀t (HC)
//!   gene-enriched sampling (biased to islands), and BAC-derived
//!   sampling (dense coverage of long clones).
//! - [`vector`] — cloning-vector contamination planted at read ends,
//!   for the Lucy-style trimmer to remove.
//! - [`community`] — multi-species environmental samples with power-law
//!   abundances (Sargasso: >1800 species).
//! - [`presets`] — ready-made maize-like, drosophila-like and
//!   sargasso-like dataset builders used by the benchmark harness.
//!
//! Every read carries [`Provenance`] — its true genome coordinates —
//! enabling stronger validation than the paper's BLAST mapping (§9.1's
//! "98.7% of clusters map to a single benchmark sequence" becomes an
//! exact ground-truth check).

pub mod community;
pub mod errors;
pub mod genome;
pub mod presets;
pub mod sampler;
pub mod vector;

/// The sequencing strategy a fragment came from.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ReadKind {
    /// Whole-genome shotgun.
    Wgs,
    /// Methyl-filtration gene-enriched.
    Mf,
    /// High-C₀t gene-enriched.
    Hc,
    /// BAC-derived (clone ends and internal reads).
    Bac,
}

impl ReadKind {
    /// Display label matching the paper's tables.
    pub fn label(&self) -> &'static str {
        match self {
            ReadKind::Wgs => "WGS",
            ReadKind::Mf => "MF",
            ReadKind::Hc => "HC",
            ReadKind::Bac => "BAC",
        }
    }
}

/// Ground truth for one read.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Provenance {
    /// Source genome (0 for single-genome projects; species index for
    /// environmental samples).
    pub genome: u32,
    /// True start on the genome's forward strand.
    pub start: u32,
    /// True end (exclusive) on the forward strand.
    pub end: u32,
    /// Whether the read was sequenced from the reverse strand.
    pub reverse: bool,
    /// Sampling strategy.
    pub kind: ReadKind,
}

pub use community::{Community, CommunitySpec};
pub use genome::{Genome, GenomeSpec};
pub use sampler::{ReadSet, SamplerConfig};

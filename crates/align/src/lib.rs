//! # pgasm-align — pairwise alignment substrate
//!
//! The dynamic-programming alignment kernel used throughout the
//! framework, and the filter it is measured against:
//!
//! - [`overlap`] — semi-global *suffix–prefix* alignment, the operation
//!   the clustering phase performs on every selected promising pair
//!   (§4: "a high quality alignment between a suffix of one and a prefix
//!   of the other"), plus a banded variant anchored at the maximal match
//!   that triggered the pair.
//! - [`wmer`] — the classical fixed-length w-mer lookup-table filter
//!   (Pearson–Lipman style), implemented as the *baseline* the paper
//!   argues against: a single maximal match of length ℓ shows up as
//!   ℓ − w + 1 separate w-matches here.
//!
//! All kernels operate on the coded alphabet of `pgasm-seq`; masked bases
//! ([`pgasm_seq::MASK`]) never match anything, including each other.

pub mod overlap;
pub mod scoring;
pub mod simd;
pub mod wmer;

pub use overlap::{
    banded_overlap_align, overlap_align, overlap_align_quality, overlap_align_quality_with,
    overlap_align_simd, AlignScratch, OverlapResult,
};
pub use scoring::{AcceptCriteria, Scoring};

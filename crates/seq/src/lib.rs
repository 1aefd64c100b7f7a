//! # pgasm-seq — sequence substrate
//!
//! Foundational sequence types for the `pgasm` parallel genome assembly
//! framework: the DNA alphabet and its encodings, owned DNA sequences,
//! a space-efficient [`FragmentStore`] holding millions of genomic
//! fragments in a single flat allocation (the paper's linear-space
//! requirement starts here), k-mer packing used by the suffix-tree
//! bucketing step, per-base quality tracks, a small FASTA/FASTQ
//! reader/writer used by the examples, and the stable content digests
//! ([`digest`]) the artifact cache keys on.
//!
//! The paper (Kalyanaraman et al., JPDC 2007, §4) represents fragments as
//! strings over Σ = {A, C, G, T}; preprocessing (§8) additionally *masks*
//! repetitive regions with special symbols which must never participate in
//! exact matches. We encode that as a fifth code, [`alphabet::MASK`].

pub mod alphabet;
pub mod digest;
pub mod dna;
pub mod fasta;
pub mod fragment;
pub mod kmer;
pub mod quality;
pub mod wire;

pub use alphabet::{code_to_ascii, complement_code, is_base_code, Base, MASK};
pub use digest::{quals_digest, store_digest, StableHasher};
pub use dna::DnaSeq;
pub use fragment::{FragId, FragmentStore, SeqId, Strand};
pub use kmer::{mix_word, pack_kmer, sort_words, KmerIter, StrandKmerIter, WordMap, WordSet};
pub use quality::QualityTrack;
pub use wire::{Reader, WireError, Writer};

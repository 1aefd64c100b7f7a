//! The preprocessor's output is pinned to the byte: the artifact that
//! `pgasm` caches for the preprocess stage (`PreprocessOutput::encode`)
//! hashes to a pinned value for the three simgen presets of
//! `tests/assembly_digest.rs`, each at `--scale 1 --seed 3`, where the
//! statistical repeat pass masks drosophila and sargasso reads. Vector
//! screening, quality trimming, the statistical repeat count and its
//! threshold, and masking all feed these bytes, so a change to any word
//! table shows here first.

use pgasm::cluster::cache::fnv1a;
use pgasm::preprocess::pipeline::PreprocessOutput;
use pgasm::preprocess::{PreprocessConfig, Preprocessor};
use pgasm::seq::DnaSeq;
use pgasm::simgen::presets::{self, Dataset};
use pgasm::simgen::vector::VECTOR_SEQ;

/// What the pipeline's preprocess stage produces for `dataset`: default
/// configuration, the vector library, no known repeats.
fn preprocess(dataset: &Dataset) -> PreprocessOutput {
    Preprocessor::new(PreprocessConfig::default(), &[DnaSeq::from(VECTOR_SEQ)], &[]).run(&dataset.reads)
}

fn maize() -> Dataset {
    // `pgasm generate --kind maize --scale 1 --seed 3`.
    presets::maize_like(200_000, 400, 3)
}

fn sargasso() -> Dataset {
    // `pgasm generate --kind sargasso --scale 1 --seed 3`.
    presets::sargasso_like(16, 1_500, 3)
}

fn drosophila() -> Dataset {
    // `pgasm generate --kind drosophila --scale 1 --seed 3`.
    presets::drosophila_like(100_000, 8.8, 3)
}

/// Preprocess `dataset`, check the artifact's digest, hand back the output.
fn assert_pinned(dataset: &Dataset, digest: u64) -> PreprocessOutput {
    let out = preprocess(dataset);
    assert_eq!(fnv1a(&out.encode()), digest);
    out
}

#[test]
fn maize_preset_preprocess_matches_the_pinned_digest() {
    assert_pinned(&maize(), 0x60ac_1f79_7f82_1119);
}

#[test]
fn sargasso_preset_preprocess_matches_the_pinned_digest() {
    assert_pinned(&sargasso(), 0x0fb3_46fd_42b9_304f);
}

#[test]
fn drosophila_preset_preprocess_matches_the_pinned_digest() {
    // Only the statistical pass masks here (no known repeats), so masked
    // bases make its count and threshold part of the pinned bytes.
    let out = assert_pinned(&drosophila(), 0x41e9_2df3_3a28_4966);
    assert!(out.stats.masked_bases > 0, "the fixture masks nothing: the pin misses the repeat statistics");
}

//! Repeat masking: known-library and statistically-defined repeats.
//!
//! §8: "we designed a database of known and statistically defined
//! repeats and screened all fragments against it. The matching portions
//! are masked with special symbols." §9.1 describes how the statistical
//! part is built for a new genome: "Repeats can be identified through
//! their statistical over-representation in a random sample. Because WGS
//! fragments themselves comprise a random sample, we used … randomly
//! chosen fragments (0.1× coverage) to predict high-copy sequences."

use pgasm_seq::{DnaSeq, KmerIter};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use std::collections::{HashMap, HashSet};

/// Parameters for statistical repeat discovery.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StatRepeatConfig {
    /// k-mer length for frequency counting.
    pub k: usize,
    /// Fraction of reads sampled for counting (paper: 0.1× coverage).
    pub sample_fraction: f64,
    /// A k-mer is called repetitive when its count exceeds
    /// `threshold_factor ×` the mean count of observed k-mers.
    pub threshold_factor: f64,
    /// Seed for the read subsample.
    pub seed: u64,
}

impl Default for StatRepeatConfig {
    fn default() -> Self {
        // A larger sample separates the count distributions: unique
        // k-mers stay near the mean while high-copy k-mers scale with
        // their genome frequency, so a modest multiple of the mean
        // singles them out without touching unique sequence.
        StatRepeatConfig { k: 16, sample_fraction: 0.25, threshold_factor: 4.0, seed: 0xC0FFEE }
    }
}

/// An indexed repeat database: the set of k-mers to mask.
#[derive(Debug, Clone, Default)]
pub struct RepeatLibrary {
    k: usize,
    kmers: HashSet<u64>,
}

impl RepeatLibrary {
    /// Empty library with the given k.
    pub fn empty(k: usize) -> RepeatLibrary {
        RepeatLibrary { k, kmers: HashSet::new() }
    }

    /// Build from known repeat consensus sequences (both strands are
    /// indexed: repeats are found in either orientation).
    pub fn from_known(k: usize, repeats: &[DnaSeq]) -> RepeatLibrary {
        let mut lib = RepeatLibrary::empty(k);
        for r in repeats {
            lib.add_sequence(r);
            lib.add_sequence(&r.reverse_complement());
        }
        lib
    }

    /// Discover statistically over-represented k-mers in a random
    /// subsample of `reads` and build the library from them.
    pub fn from_statistics(reads: &[DnaSeq], config: &StatRepeatConfig) -> RepeatLibrary {
        let mut rng = StdRng::seed_from_u64(config.seed);
        let mut idx: Vec<usize> = (0..reads.len()).collect();
        idx.shuffle(&mut rng);
        let take = ((reads.len() as f64 * config.sample_fraction).ceil() as usize).clamp(1, reads.len());
        let mut counts: HashMap<u64, u32> = HashMap::new();
        for &i in idx.iter().take(take) {
            for (_, kmer) in KmerIter::new(reads[i].codes(), config.k) {
                *counts.entry(kmer).or_default() += 1;
            }
        }
        if counts.is_empty() {
            return RepeatLibrary::empty(config.k);
        }
        let mean = counts.values().map(|&c| c as f64).sum::<f64>() / counts.len() as f64;
        let threshold = (mean * config.threshold_factor).max(2.0);
        let kmers: HashSet<u64> =
            counts.into_iter().filter(|&(_, c)| c as f64 > threshold).map(|(k, _)| k).collect();
        RepeatLibrary { k: config.k, kmers }
    }

    /// Add every k-mer of a sequence.
    pub fn add_sequence(&mut self, seq: &DnaSeq) {
        for (_, kmer) in KmerIter::new(seq.codes(), self.k) {
            self.kmers.insert(kmer);
        }
    }

    /// Merge another library (same k) into this one.
    pub fn merge(&mut self, other: &RepeatLibrary) {
        assert_eq!(self.k, other.k, "library k mismatch");
        self.kmers.extend(&other.kmers);
    }

    /// Number of indexed repetitive k-mers.
    pub fn len(&self) -> usize {
        self.kmers.len()
    }

    /// True when no repeats are indexed.
    pub fn is_empty(&self) -> bool {
        self.kmers.is_empty()
    }

    /// k-mer length.
    pub fn k(&self) -> usize {
        self.k
    }

    /// Mask every position of `seq` covered by a library k-mer; returns
    /// the number of bases masked.
    pub fn mask(&self, seq: &mut DnaSeq) -> usize {
        if self.kmers.is_empty() || seq.len() < self.k {
            return 0;
        }
        let hits: Vec<usize> = KmerIter::new(seq.codes(), self.k)
            .filter(|(_, kmer)| self.kmers.contains(kmer))
            .map(|(pos, _)| pos)
            .collect();
        let mut masked = 0usize;
        let codes = seq.codes_mut();
        for pos in hits {
            for c in codes.iter_mut().skip(pos).take(self.k) {
                if pgasm_seq::is_base_code(*c) {
                    *c = pgasm_seq::MASK;
                    masked += 1;
                }
            }
        }
        masked
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::Rng;

    fn random_seq(rng: &mut impl Rng, len: usize) -> DnaSeq {
        DnaSeq::from_codes((0..len).map(|_| rng.gen_range(0..4u8)).collect())
    }

    #[test]
    fn known_library_masks_copies() {
        let repeat = DnaSeq::from("ACGTTGCAAGGCTTACGGATCGAT");
        let lib = RepeatLibrary::from_known(8, std::slice::from_ref(&repeat));
        let mut read = DnaSeq::from("TTTTTTTT");
        read.extend_from(&repeat);
        read.extend_from(&DnaSeq::from("GGGGGGGG"));
        let masked = lib.mask(&mut read);
        assert_eq!(masked, repeat.len());
        assert_eq!(read.slice(0, 8).to_ascii(), b"TTTTTTTT");
        assert!(read.slice(8, 8 + repeat.len()).codes().iter().all(|&c| c == pgasm_seq::MASK));
    }

    #[test]
    fn reverse_complement_copies_also_masked() {
        let repeat = DnaSeq::from("ACGTTGCAAGGCTTACGGATCGAT");
        let lib = RepeatLibrary::from_known(8, std::slice::from_ref(&repeat));
        let mut read = repeat.reverse_complement();
        let masked = lib.mask(&mut read);
        assert_eq!(masked, repeat.len());
    }

    #[test]
    fn statistical_discovery_finds_high_copy() {
        let mut rng = StdRng::seed_from_u64(42);
        let repeat = random_seq(&mut rng, 60);
        // 60 reads carrying the repeat + 40 unique reads.
        let mut reads = Vec::new();
        for _ in 0..60 {
            let mut r = random_seq(&mut rng, 40);
            r.extend_from(&repeat);
            r.extend_from(&random_seq(&mut rng, 40));
            reads.push(r);
        }
        for _ in 0..40 {
            reads.push(random_seq(&mut rng, 140));
        }
        let cfg = StatRepeatConfig { k: 12, sample_fraction: 0.5, threshold_factor: 4.0, seed: 7 };
        let lib = RepeatLibrary::from_statistics(&reads, &cfg);
        assert!(!lib.is_empty(), "no repeats discovered");
        // The repeat is masked in a fresh carrier read.
        let mut probe = random_seq(&mut rng, 30);
        probe.extend_from(&repeat);
        probe.extend_from(&random_seq(&mut rng, 30));
        let masked = lib.mask(&mut probe);
        assert!(masked >= 40, "only {masked} bases masked");
        // Unique sequence is not masked.
        let mut unique = random_seq(&mut rng, 150);
        let masked_unique = lib.mask(&mut unique);
        assert!(masked_unique < 24, "unique read over-masked: {masked_unique}");
    }

    #[test]
    fn empty_library_masks_nothing() {
        let lib = RepeatLibrary::empty(10);
        let mut read = DnaSeq::from("ACGTACGTACGTACGT");
        assert_eq!(lib.mask(&mut read), 0);
        assert_eq!(read.unmasked_len(), 16);
    }

    #[test]
    fn merge_unions_kmers() {
        let a = RepeatLibrary::from_known(8, &[DnaSeq::from("ACGTTGCAAGGCTTAC")]);
        let b = RepeatLibrary::from_known(8, &[DnaSeq::from("TTGGCCAATTGGCCAA")]);
        let mut m = a.clone();
        m.merge(&b);
        assert!(m.len() >= a.len().max(b.len()));
    }

    #[test]
    fn short_reads_unaffected() {
        let lib = RepeatLibrary::from_known(10, &[DnaSeq::from("ACGTTGCAAGGC")]);
        let mut read = DnaSeq::from("ACGTT");
        assert_eq!(lib.mask(&mut read), 0);
    }
}

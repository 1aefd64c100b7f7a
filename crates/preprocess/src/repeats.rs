//! Repeat masking: known-library and statistically-defined repeats.
//!
//! §8: "we designed a database of known and statistically defined
//! repeats and screened all fragments against it. The matching portions
//! are masked with special symbols." §9.1 describes how the statistical
//! part is built for a new genome: "Repeats can be identified through
//! their statistical over-representation in a random sample. Because WGS
//! fragments themselves comprise a random sample, we used … randomly
//! chosen fragments (0.1× coverage) to predict high-copy sequences."

use pgasm_seq::{sort_words, DnaSeq, KmerIter, WordSet};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use std::borrow::Borrow;

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
    kmers: WordSet,
}

impl RepeatLibrary {
    /// Empty library with the given k.
    pub fn empty(k: usize) -> RepeatLibrary {
        RepeatLibrary { k, kmers: WordSet::default() }
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
    /// subsample of `reads` (owned or borrowed) and build the library
    /// from them. The sample's words are radix-sorted and counted as runs
    /// of equal words; the mean is words per distinct word.
    pub fn from_statistics<S: Borrow<DnaSeq>>(reads: &[S], config: &StatRepeatConfig) -> RepeatLibrary {
        let mut rng = StdRng::seed_from_u64(config.seed);
        let mut idx: Vec<usize> = (0..reads.len()).collect();
        idx.shuffle(&mut rng);
        // At least one read, unless there are none (every read trimmed away).
        let take = ((reads.len() as f64 * config.sample_fraction).ceil() as usize).max(1).min(reads.len());
        let sample = &idx[..take];
        let windows = sample.iter().map(|&i| (reads[i].borrow().len() + 1).saturating_sub(config.k)).sum();
        let mut words = Vec::with_capacity(windows);
        for &i in sample {
            words.extend(KmerIter::new(reads[i].borrow().codes(), config.k).map(|(_, kmer)| kmer));
        }
        sort_words(&mut words, 0..2 * config.k as u32);
        let runs = words.chunk_by(|a, b| a == b);
        let distinct = runs.clone().count();
        if distinct == 0 {
            return RepeatLibrary::empty(config.k);
        }
        let mean = words.len() as f64 / distinct as f64;
        let threshold = (mean * config.threshold_factor).max(2.0);
        let kmers = runs.filter(|run| run.len() as f64 > threshold).map(|run| run[0]).collect();
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
        self.kmers.extend(other.kmers.iter());
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
        // Hits ascend, and every base of a hit window is a real base, so
        // masking from the last window's end on touches each base once.
        let mut masked_to = 0;
        let codes = seq.codes_mut();
        let mut masked = 0;
        for pos in hits {
            let from = masked_to.max(pos);
            masked_to = pos + self.k;
            codes[from..masked_to].fill(pgasm_seq::MASK);
            masked += masked_to - from;
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

    /// The statistical library as a hash-map count builds it: the
    /// reference `from_statistics`'s sorted count must equal.
    fn from_statistics_by_hash_map(reads: &[DnaSeq], config: &StatRepeatConfig) -> Vec<u64> {
        let mut rng = StdRng::seed_from_u64(config.seed);
        let mut idx: Vec<usize> = (0..reads.len()).collect();
        idx.shuffle(&mut rng);
        let take = ((reads.len() as f64 * config.sample_fraction).ceil() as usize).max(1).min(reads.len());
        let mut counts: pgasm_seq::WordMap<u32> = pgasm_seq::WordMap::default();
        for &i in idx.iter().take(take) {
            for (_, kmer) in KmerIter::new(reads[i].codes(), config.k) {
                *counts.entry(kmer).or_default() += 1;
            }
        }
        if counts.is_empty() {
            return Vec::new();
        }
        let mean = counts.values().map(|&c| c as f64).sum::<f64>() / counts.len() as f64;
        let threshold = (mean * config.threshold_factor).max(2.0);
        let mut kept: Vec<u64> =
            counts.into_iter().filter(|&(_, c)| c as f64 > threshold).map(|(k, _)| k).collect();
        kept.sort_unstable();
        kept
    }

    fn library_words(lib: &RepeatLibrary) -> Vec<u64> {
        let mut words: Vec<u64> = lib.kmers.iter().collect();
        words.sort_unstable();
        words
    }

    #[test]
    fn sorted_count_equals_the_hash_map_count() {
        let mut rng = StdRng::seed_from_u64(31);
        let mut nonempty = 0;
        for round in 0..4u64 {
            // Reads around planted repeats of a few copy numbers, some
            // with masked bases and some shorter than k.
            let repeats: Vec<DnaSeq> = (0..3).map(|r| random_seq(&mut rng, 40 + 30 * r)).collect();
            let mut reads = Vec::new();
            for i in 0..80 {
                let len = rng.gen_range(0..120);
                let mut r = random_seq(&mut rng, len);
                for (j, repeat) in repeats.iter().enumerate() {
                    if i % (2 + 3 * j) == 0 {
                        let gap = rng.gen_range(0..30);
                        r.extend_from(repeat);
                        r.extend_from(&random_seq(&mut rng, gap));
                    }
                }
                if i % 7 == round as usize && r.len() > 10 {
                    r.mask_range(5, 6);
                }
                reads.push(r);
            }
            for k in [12, 16, 31] {
                for sample_fraction in [0.1, 0.25, 1.0] {
                    for threshold_factor in [1.5, 4.0] {
                        let cfg = StatRepeatConfig { k, sample_fraction, threshold_factor, seed: round };
                        let got = library_words(&RepeatLibrary::from_statistics(&reads, &cfg));
                        assert_eq!(got, from_statistics_by_hash_map(&reads, &cfg), "{cfg:?}");
                        nonempty += !got.is_empty() as usize;
                    }
                }
            }
        }
        assert!(nonempty > 20, "only {nonempty} configurations found repeats");
        // Every read trimmed away, or every read shorter than k: no words.
        let cfg = StatRepeatConfig::default();
        assert!(RepeatLibrary::from_statistics::<DnaSeq>(&[], &cfg).is_empty());
        let short: Vec<DnaSeq> = (0..5).map(|_| random_seq(&mut rng, cfg.k - 1)).collect();
        assert!(RepeatLibrary::from_statistics(&short, &cfg).is_empty());
        assert!(from_statistics_by_hash_map(&short, &cfg).is_empty());
    }

    #[test]
    fn no_reads_discover_no_repeats() {
        let lib = RepeatLibrary::from_statistics::<DnaSeq>(&[], &StatRepeatConfig::default());
        assert!(lib.is_empty());
    }

    #[test]
    fn overlapping_hits_mask_their_union_once() {
        let mut rng = StdRng::seed_from_u64(9);
        let repeat = random_seq(&mut rng, 30);
        let lib = RepeatLibrary::from_known(8, std::slice::from_ref(&repeat));
        // Copies that overlap, abut and sit apart, around a masked base.
        let mut read = random_seq(&mut rng, 5);
        for gap in [0, 3, 20] {
            read.extend_from(&repeat.slice(0, 20));
            read.extend_from(&repeat.slice(10, 30));
            read.extend_from(&random_seq(&mut rng, gap));
        }
        read.mask_range(40, 41);
        let mut covered = vec![false; read.len()];
        for (pos, _) in KmerIter::new(read.codes(), 8).filter(|(_, w)| lib.kmers.contains(w)) {
            covered[pos..pos + 8].fill(true);
        }
        let mut masked = read.clone();
        assert_eq!(lib.mask(&mut masked), covered.iter().filter(|&&c| c).count());
        for (i, (&c, &m)) in read.codes().iter().zip(masked.codes()).enumerate() {
            assert_eq!(m, if covered[i] { pgasm_seq::MASK } else { c }, "base {i}");
        }
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

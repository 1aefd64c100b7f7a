//! Lucy-style quality trimming and vector screening.
//!
//! Lucy (Chou & Holmes 2001) finds the high-quality, vector-free insert
//! region of a raw Sanger read. Our reimplementation does the same in
//! two passes: (1) find the runs of read positions covered by exact
//! k-mers of the vector library, (2) find the longest quality-clean
//! window that avoids them, and reject reads whose surviving insert is
//! too short.

use pgasm_seq::{DnaSeq, KmerIter, QualityTrack, WordSet};
use std::ops::Range;

/// Trimmer configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct LucyConfig {
    /// k-mer length for vector matching.
    pub vector_k: usize,
    /// Sliding-window length for quality assessment.
    pub quality_window: usize,
    /// Minimum mean quality a window must reach.
    pub min_quality: f64,
    /// Minimum surviving insert length; shorter reads are rejected.
    pub min_len: usize,
}

impl Default for LucyConfig {
    fn default() -> Self {
        LucyConfig { vector_k: 12, quality_window: 20, min_quality: 15.0, min_len: 100 }
    }
}

/// Result of trimming one read.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TrimOutcome {
    /// Keep the half-open range of the original read.
    Keep {
        /// Insert start.
        start: usize,
        /// Insert end (exclusive).
        end: usize,
    },
    /// The read has no usable insert.
    Reject,
}

/// The trimmer, holding the indexed vector library.
pub struct Lucy {
    config: LucyConfig,
    vector_kmers: WordSet,
}

impl Lucy {
    /// Build a trimmer from the vector sequences to screen against.
    pub fn new(config: LucyConfig, vectors: &[DnaSeq]) -> Lucy {
        let vector_kmers =
            vectors.iter().flat_map(|v| KmerIter::new(v.codes(), config.vector_k).map(|(_, k)| k)).collect();
        Lucy { config, vector_kmers }
    }

    /// Trim one read.
    pub fn trim(&self, seq: &DnaSeq, qual: &QualityTrack) -> TrimOutcome {
        assert_eq!(seq.len(), qual.len(), "sequence/quality length mismatch");
        let k = self.config.vector_k;
        // Pass 1: vector hits, as ascending maximal runs of vector bases
        // (overlapping and abutting hit windows merge).
        let mut hits: Vec<Range<usize>> = Vec::new();
        for (pos, kmer) in KmerIter::new(seq.codes(), k) {
            if self.vector_kmers.contains(&kmer) {
                match hits.last_mut() {
                    Some(run) if pos <= run.end => run.end = pos + k,
                    _ => hits.push(pos..pos + k),
                }
            }
        }
        // Pass 2: quality window, with vector positions forced to quality
        // 0 so the search avoids them; a read without hits is searched in
        // place.
        let (window, min_quality) = (self.config.quality_window, self.config.min_quality);
        let best = if hits.is_empty() {
            qual.best_window(window, min_quality)
        } else {
            let mut q = qual.values().to_vec();
            hits.iter().for_each(|run| q[run.clone()].fill(0));
            QualityTrack::from_values(q).best_window(window, min_quality)
        };
        match best {
            Some((mut start, mut end)) => {
                // Shave any vector bases straddling the window boundary.
                if let Some(run) = hits.iter().find(|run| run.contains(&start)) {
                    start = run.end.min(end);
                }
                if let Some(run) = hits.iter().find(|run| end > start && run.contains(&(end - 1))) {
                    end = run.start.max(start);
                }
                if end - start >= self.config.min_len {
                    TrimOutcome::Keep { start, end }
                } else {
                    TrimOutcome::Reject
                }
            }
            None => TrimOutcome::Reject,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> LucyConfig {
        LucyConfig { vector_k: 8, quality_window: 10, min_quality: 15.0, min_len: 20 }
    }

    fn vector() -> DnaSeq {
        DnaSeq::from("GCTAGCCTGCAGGTCGACTCTAGAGGATCCCCGGGTACCGAGCTC")
    }

    #[test]
    fn clean_read_kept_whole() {
        let lucy = Lucy::new(cfg(), &[vector()]);
        let read = DnaSeq::from("ACGTACGTACGTACGTACGTACGTACGTACGTACGTACGT");
        let qual = QualityTrack::uniform(read.len(), 40);
        match lucy.trim(&read, &qual) {
            TrimOutcome::Keep { start, end } => {
                assert_eq!((start, end), (0, read.len()));
            }
            TrimOutcome::Reject => panic!("clean read rejected"),
        }
    }

    #[test]
    fn vector_prefix_removed() {
        let lucy = Lucy::new(cfg(), &[vector()]);
        let v = vector();
        let mut read = v.slice(0, 20);
        let insert = DnaSeq::from("ACGTTGCAACGTTGCAACGTTGCAACGTTGCAACGTTGCA");
        read.extend_from(&insert);
        let qual = QualityTrack::uniform(read.len(), 40);
        match lucy.trim(&read, &qual) {
            TrimOutcome::Keep { start, end } => {
                assert!(start >= 13, "vector prefix not removed (start {start})");
                assert_eq!(end, read.len());
                assert!(end - start >= 20);
            }
            TrimOutcome::Reject => panic!("read with good insert rejected"),
        }
    }

    #[test]
    fn low_quality_read_rejected() {
        let lucy = Lucy::new(cfg(), &[vector()]);
        let read = DnaSeq::from("ACGTACGTACGTACGTACGTACGTACGTACGT");
        let qual = QualityTrack::uniform(read.len(), 5);
        assert_eq!(lucy.trim(&read, &qual), TrimOutcome::Reject);
    }

    #[test]
    fn short_insert_rejected() {
        let lucy = Lucy::new(cfg(), &[vector()]);
        let read = DnaSeq::from("ACGTACGTACGTAC"); // 14 < min_len 20
        let qual = QualityTrack::uniform(read.len(), 40);
        assert_eq!(lucy.trim(&read, &qual), TrimOutcome::Reject);
    }

    #[test]
    fn low_quality_ends_trimmed() {
        let lucy = Lucy::new(cfg(), &[vector()]);
        let read = DnaSeq::from_codes(vec![0; 60]);
        let mut q = vec![40u8; 60];
        for v in q.iter_mut().take(10) {
            *v = 3;
        }
        for v in q.iter_mut().skip(50) {
            *v = 3;
        }
        match lucy.trim(&read, &QualityTrack::from_values(q)) {
            TrimOutcome::Keep { start, end } => {
                // A passing window can include a few low bases at its
                // boundary, so the cut lands just inside the bad flanks.
                assert!(start >= 3 && end <= 57, "ends not trimmed: ({start},{end})");
                assert!(end - start >= 40);
            }
            TrimOutcome::Reject => panic!("rejected"),
        }
    }

    /// `trim` with a per-base vector mask and a copied quality track for
    /// every read: the reference the run-based trim must equal.
    fn trim_per_base(lucy: &Lucy, seq: &DnaSeq, qual: &QualityTrack) -> TrimOutcome {
        let k = lucy.config.vector_k;
        let mut is_vector = vec![false; seq.len()];
        let mut q = qual.values().to_vec();
        for (pos, kmer) in KmerIter::new(seq.codes(), k) {
            if lucy.vector_kmers.contains(&kmer) {
                is_vector[pos..pos + k].fill(true);
                q[pos..pos + k].fill(0);
            }
        }
        match QualityTrack::from_values(q).best_window(lucy.config.quality_window, lucy.config.min_quality) {
            Some((mut start, mut end)) => {
                while start < end && is_vector[start] {
                    start += 1;
                }
                while end > start && is_vector[end - 1] {
                    end -= 1;
                }
                if end - start >= lucy.config.min_len {
                    TrimOutcome::Keep { start, end }
                } else {
                    TrimOutcome::Reject
                }
            }
            None => TrimOutcome::Reject,
        }
    }

    #[test]
    fn run_based_trim_equals_the_per_base_trim() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(17);
        let v = vector();
        let mut kept = 0;
        for config in [cfg(), LucyConfig { quality_window: 5, min_len: 8, ..cfg() }] {
            let lucy = Lucy::new(config, std::slice::from_ref(&v));
            for _ in 0..300 {
                // Insert pieces and vector pieces of random lengths, some
                // abutting, with random quality dips.
                let mut read = DnaSeq::from_codes(Vec::new());
                for _ in 0..rng.gen_range(1..6) {
                    let len = rng.gen_range(0..40);
                    if rng.gen_bool(0.5) {
                        let from = rng.gen_range(0..v.len() - len.min(v.len()) + 1);
                        read.extend_from(&v.slice(from, (from + len).min(v.len())));
                    } else {
                        read.extend_from(&DnaSeq::from_codes(
                            (0..len).map(|_| rng.gen_range(0..4u8)).collect(),
                        ));
                    }
                }
                let qual = QualityTrack::from_values(
                    (0..read.len())
                        .map(|_| if rng.gen_bool(0.1) { rng.gen_range(0..10) } else { 40 })
                        .collect(),
                );
                let outcome = lucy.trim(&read, &qual);
                assert_eq!(outcome, trim_per_base(&lucy, &read, &qual));
                kept += matches!(outcome, TrimOutcome::Keep { .. }) as usize;
            }
        }
        assert!(kept > 100, "only {kept} of 600 reads kept");
    }

    #[test]
    fn entirely_vector_read_rejected() {
        let lucy = Lucy::new(cfg(), &[vector()]);
        let v = vector();
        let qual = QualityTrack::uniform(v.len(), 40);
        assert_eq!(lucy.trim(&v, &qual), TrimOutcome::Reject);
    }
}

//! Lucy-style quality trimming and vector screening.
//!
//! Lucy (Chou & Holmes 2001) finds the high-quality, vector-free insert
//! region of a raw Sanger read. Our reimplementation does the same in
//! two passes: (1) mark read positions covered by exact k-mers of the
//! vector library, (2) find the longest quality-clean window that avoids
//! them, and reject reads whose surviving insert is too short.

use pgasm_seq::{DnaSeq, KmerIter, QualityTrack};
use std::collections::HashSet;

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
    vector_kmers: HashSet<u64>,
}

impl Lucy {
    /// Build a trimmer from the vector sequences to screen against.
    pub fn new(config: LucyConfig, vectors: &[DnaSeq]) -> Lucy {
        let mut vector_kmers = HashSet::new();
        for v in vectors {
            for (_, k) in KmerIter::new(v.codes(), config.vector_k) {
                vector_kmers.insert(k);
            }
        }
        Lucy { config, vector_kmers }
    }

    /// Trim one read.
    pub fn trim(&self, seq: &DnaSeq, qual: &QualityTrack) -> TrimOutcome {
        assert_eq!(seq.len(), qual.len(), "sequence/quality length mismatch");
        let k = self.config.vector_k;
        // Pass 1: vector mask.
        let mut is_vector = vec![false; seq.len()];
        if seq.len() >= k {
            for (pos, kmer) in KmerIter::new(seq.codes(), k) {
                if self.vector_kmers.contains(&kmer) {
                    for v in is_vector.iter_mut().skip(pos).take(k) {
                        *v = true;
                    }
                }
            }
        }
        // Pass 2: quality window, with vector positions forced to
        // quality 0 so the window search avoids them.
        let mut q = qual.values().to_vec();
        for (i, &v) in is_vector.iter().enumerate() {
            if v {
                q[i] = 0;
            }
        }
        let track = QualityTrack::from_values(q);
        match track.best_window(self.config.quality_window, self.config.min_quality) {
            Some((mut start, mut end)) => {
                // Shave any vector bases straddling the window boundary.
                while start < end && is_vector[start] {
                    start += 1;
                }
                while end > start && is_vector[end - 1] {
                    end -= 1;
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

    #[test]
    fn entirely_vector_read_rejected() {
        let lucy = Lucy::new(cfg(), &[vector()]);
        let v = vector();
        let qual = QualityTrack::uniform(v.len(), 40);
        assert_eq!(lucy.trim(&v, &qual), TrimOutcome::Reject);
    }
}

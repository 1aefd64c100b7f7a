//! Cloning-vector contamination.
//!
//! Raw Sanger reads start inside the cloning vector before entering the
//! genomic insert; the paper removes such contamination with Lucy (§8).
//! This model prepends a stretch of a fixed vector sequence (and
//! occasionally appends one at the 3' end), with matching quality
//! values, so the preprocessor has something real to find.

use pgasm_seq::{DnaSeq, QualityTrack};
use rand::Rng;

/// The synthetic "cloning vector" sequence all contamination is drawn
/// from. Fixed and public so the screener can hold the same library.
pub const VECTOR_SEQ: &str = "GCTAGCCTGCAGGTCGACTCTAGAGGATCCCCGGGTACCGAGCTCGAATTCACTGGCCGTCGTTTTACAACGTCGTGACTGGGAAAACCCTGGCGTTACCCAACTTAATCGCCTTGCAGCACATCCCCCTTTCGCCAGCTGGCGTAATAGCGAAGAGGCCCGCACCGATCGCCCTTCCCAACAGTTGCGCAGCCTGAATGGCGAATGG";

/// Vector contamination parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct VectorModel {
    /// Probability a read carries 5' vector sequence.
    pub p5_prob: f64,
    /// Length range of 5' contamination.
    pub p5_len: (usize, usize),
    /// Probability a read carries 3' vector sequence.
    pub p3_prob: f64,
    /// Length range of 3' contamination.
    pub p3_len: (usize, usize),
    /// Quality assigned to vector bases.
    pub vector_quality: u8,
}

impl Default for VectorModel {
    fn default() -> Self {
        VectorModel { p5_prob: 0.7, p5_len: (20, 80), p3_prob: 0.15, p3_len: (10, 40), vector_quality: 30 }
    }
}

impl VectorModel {
    /// Contaminate a read: returns the possibly-extended read and its
    /// quality track.
    pub fn contaminate(
        &self,
        read: DnaSeq,
        qual: QualityTrack,
        rng: &mut impl Rng,
    ) -> (DnaSeq, QualityTrack) {
        let vector = DnaSeq::from(VECTOR_SEQ);
        let mut seq = DnaSeq::with_capacity(read.len() + 120);
        let mut q: Vec<u8> = Vec::with_capacity(read.len() + 120);
        if rng.gen_bool(self.p5_prob) {
            let len = rng.gen_range(self.p5_len.0..=self.p5_len.1).min(vector.len());
            // 5' contamination is the *end* of the vector (the read runs
            // off the vector into the insert).
            let start = vector.len() - len;
            seq.extend_from(&vector.slice(start, vector.len()));
            q.extend(std::iter::repeat_n(self.vector_quality, len));
        }
        seq.extend_from(&read);
        q.extend_from_slice(qual.values());
        if rng.gen_bool(self.p3_prob) {
            let len = rng.gen_range(self.p3_len.0..=self.p3_len.1).min(vector.len());
            seq.extend_from(&vector.slice(0, len));
            q.extend(std::iter::repeat_n(self.vector_quality, len));
        }
        (seq, QualityTrack::from_values(q))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn always_contaminates_when_probability_one() {
        let model = VectorModel { p5_prob: 1.0, p3_prob: 1.0, ..VectorModel::default() };
        let mut rng = StdRng::seed_from_u64(1);
        let read = DnaSeq::from("ACGTACGTACGTACGTACGT");
        let qual = QualityTrack::uniform(20, 40);
        let (seq, q) = model.contaminate(read.clone(), qual, &mut rng);
        assert!(seq.len() > read.len() + 20);
        assert_eq!(seq.len(), q.len());
        // The inserted prefix is a suffix of the vector.
        let prefix_len = seq.len() - read.len() - {
            // find how much 3' was added by locating read at its offset
            let mut three = 0;
            for off in 0..=seq.len() - read.len() {
                if &seq.codes()[off..off + read.len()] == read.codes() {
                    three = seq.len() - off - read.len();
                    break;
                }
            }
            three
        };
        let vector = DnaSeq::from(VECTOR_SEQ);
        assert_eq!(&seq.codes()[..prefix_len], &vector.codes()[vector.len() - prefix_len..]);
    }

    #[test]
    fn never_contaminates_when_probability_zero() {
        let model = VectorModel { p5_prob: 0.0, p3_prob: 0.0, ..VectorModel::default() };
        let mut rng = StdRng::seed_from_u64(2);
        let read = DnaSeq::from("ACGTACGT");
        let (seq, q) = model.contaminate(read.clone(), QualityTrack::uniform(8, 40), &mut rng);
        assert_eq!(seq, read);
        assert_eq!(q.len(), 8);
    }

    #[test]
    fn quality_track_stays_parallel() {
        let model = VectorModel::default();
        let mut rng = StdRng::seed_from_u64(3);
        for _ in 0..50 {
            let read = DnaSeq::from("ACGTACGTACGTACGT");
            let (seq, q) = model.contaminate(read, QualityTrack::uniform(16, 40), &mut rng);
            assert_eq!(seq.len(), q.len());
        }
    }
}

//! Sanger-style sequencing error and quality model.
//!
//! §2: "Given the low rate (≈1–2%) of errors, sequencing artifacts and
//! other variations, any good alignment is expected to contain long
//! exactly matching regions." The model plants exactly those error
//! rates, plus phred-style quality values that are high in the middle of
//! a read and decay toward both ends (what Lucy-style trimming relies
//! on).

use pgasm_seq::{DnaSeq, QualityTrack};
use rand::Rng;

/// Error-model parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ErrorModel {
    /// Per-base substitution probability.
    pub sub_rate: f64,
    /// Per-base insertion probability.
    pub ins_rate: f64,
    /// Per-base deletion probability.
    pub del_rate: f64,
    /// Peak quality in the read interior.
    pub peak_quality: u8,
    /// Quality at the very ends of the read.
    pub end_quality: u8,
    /// Number of bases over which quality ramps between end and peak.
    pub ramp: usize,
}

impl ErrorModel {
    /// The paper's regime (≈ 1–2% errors in cleaned fragments): phred
    /// ramps from noisy ends (q7 ≈ 20% error, trimmed by Lucy) to a q30
    /// interior (0.1%); over a whole read the realised rate lands in the
    /// paper's band. The flat `*_rate` fields remain for the
    /// quality-blind [`ErrorModel::corrupt`] path.
    pub const SANGER: ErrorModel = ErrorModel {
        sub_rate: 0.010,
        ins_rate: 0.0025,
        del_rate: 0.0025,
        peak_quality: 30,
        end_quality: 7,
        ramp: 50,
    };

    /// An error-free model (for assembler exactness tests).
    pub const PERFECT: ErrorModel = ErrorModel {
        sub_rate: 0.0,
        ins_rate: 0.0,
        del_rate: 0.0,
        peak_quality: 40,
        end_quality: 40,
        ramp: 1,
    };

    /// Apply sequencing errors to `template`, returning the erroneous
    /// read. Masked template positions pass through unchanged.
    pub fn corrupt(&self, template: &DnaSeq, rng: &mut impl Rng) -> DnaSeq {
        let mut out = DnaSeq::with_capacity(template.len() + 8);
        for &c in template.codes() {
            if rng.gen_bool(self.del_rate) {
                continue;
            }
            if rng.gen_bool(self.ins_rate) {
                out.push_code(rng.gen_range(0..4u8));
            }
            if pgasm_seq::is_base_code(c) && rng.gen_bool(self.sub_rate) {
                let mut n = rng.gen_range(0..3u8);
                if n >= c {
                    n += 1;
                }
                out.push_code(n);
            } else {
                out.push_code(c);
            }
        }
        out
    }

    /// Corrupt a template with *quality-linked* errors: each base's
    /// substitution probability is its phred error probability
    /// 10^(−q/10) (that is what a phred score means), with indels at a
    /// fraction of that. Returns the read and its quality track, kept
    /// aligned through indels (an inserted base gets a degraded copy of
    /// the local quality). This is the model the samplers use — errors
    /// concentrate at the low-quality read ends, as in real traces.
    pub fn corrupt_quality_linked(
        &self,
        template: &DnaSeq,
        qual: &QualityTrack,
        rng: &mut impl Rng,
    ) -> (DnaSeq, QualityTrack) {
        assert_eq!(template.len(), qual.len());
        if self.sub_rate == 0.0 && self.ins_rate == 0.0 && self.del_rate == 0.0 {
            // An explicitly error-free model stays error-free even
            // though finite phred values imply a residual rate.
            return (template.clone(), qual.clone());
        }
        let mut seq = DnaSeq::with_capacity(template.len() + 8);
        let mut out_q: Vec<u8> = Vec::with_capacity(template.len() + 8);
        for (i, &c) in template.codes().iter().enumerate() {
            let q = qual.values()[i];
            let p_err = 10f64.powf(-(q as f64) / 10.0).min(0.3);
            let p_indel = p_err * 0.2;
            if rng.gen_bool(p_indel) {
                continue; // deletion
            }
            if rng.gen_bool(p_indel) {
                seq.push_code(rng.gen_range(0..4u8));
                out_q.push(q.saturating_sub(5).max(2));
            }
            if pgasm_seq::is_base_code(c) && rng.gen_bool(p_err) {
                let mut n = rng.gen_range(0..3u8);
                if n >= c {
                    n += 1;
                }
                seq.push_code(n);
            } else {
                seq.push_code(c);
            }
            out_q.push(q);
        }
        (seq, QualityTrack::from_values(out_q))
    }

    /// Quality track for a read of the given length: ramps from
    /// `end_quality` to `peak_quality` over `ramp` bases at both ends,
    /// with small jitter.
    pub fn qualities(&self, len: usize, rng: &mut impl Rng) -> QualityTrack {
        let mut values = Vec::with_capacity(len);
        let ramp = self.ramp.max(1);
        for i in 0..len {
            let d = i.min(len - 1 - i).min(ramp);
            let frac = d as f64 / ramp as f64;
            let q = self.end_quality as f64 + frac * (self.peak_quality as f64 - self.end_quality as f64);
            let jitter: i32 = rng.gen_range(-2..=2);
            values.push((q as i32 + jitter).clamp(0, 60) as u8);
        }
        QualityTrack::from_values(values)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn perfect_model_is_identity() {
        let mut rng = StdRng::seed_from_u64(1);
        let t = crate::genome::random_dna(&mut rng, 500);
        let read = ErrorModel::PERFECT.corrupt(&t, &mut rng);
        assert_eq!(read, t);
    }

    #[test]
    fn substitution_rate_matches_model() {
        let mut rng = StdRng::seed_from_u64(2);
        let t = crate::genome::random_dna(&mut rng, 50_000);
        let subs_only = ErrorModel { ins_rate: 0.0, del_rate: 0.0, ..ErrorModel::SANGER };
        let read = subs_only.corrupt(&t, &mut rng);
        assert_eq!(read.len(), t.len());
        let diff = read.codes().iter().zip(t.codes()).filter(|(a, b)| a != b).count();
        let rate = diff as f64 / t.len() as f64;
        assert!((rate - 0.01).abs() < 0.004, "substitution rate {rate}");
    }

    #[test]
    fn indel_rates_shift_length_as_expected() {
        let mut rng = StdRng::seed_from_u64(5);
        let t = crate::genome::random_dna(&mut rng, 50_000);
        let dels_only = ErrorModel { sub_rate: 0.0, ins_rate: 0.0, del_rate: 0.02, ..ErrorModel::SANGER };
        let read = dels_only.corrupt(&t, &mut rng);
        let lost = t.len() - read.len();
        assert!((lost as f64 / t.len() as f64 - 0.02).abs() < 0.006, "deletion rate {lost}");
        let ins_only = ErrorModel { sub_rate: 0.0, ins_rate: 0.02, del_rate: 0.0, ..ErrorModel::SANGER };
        let read = ins_only.corrupt(&t, &mut rng);
        let gained = read.len() - t.len();
        assert!((gained as f64 / t.len() as f64 - 0.02).abs() < 0.006, "insertion rate {gained}");
    }

    #[test]
    fn quality_linked_errors_follow_phred() {
        let mut rng = StdRng::seed_from_u64(9);
        let t = crate::genome::random_dna(&mut rng, 60_000);
        // Uniform q10 → 10% substitutions (+ some indels).
        let q10 = QualityTrack::uniform(t.len(), 10);
        let (read, _) = ErrorModel::SANGER.corrupt_quality_linked(&t, &q10, &mut rng);
        let diff = read.codes().iter().zip(t.codes()).filter(|(a, b)| a != b).count() as f64;
        // Indels shift frames, so compare only loosely: well above 5%.
        assert!(diff / t.len() as f64 > 0.05, "q10 rate too low");
        // Uniform q40 → ~1e-4: essentially clean. A rare indel would
        // desynchronise a positional comparison, so bound the length
        // drift and count substitutions only up to the first frame
        // shift.
        let q40 = QualityTrack::uniform(t.len(), 40);
        let (read, outq) = ErrorModel::SANGER.corrupt_quality_linked(&t, &q40, &mut rng);
        assert!(read.len().abs_diff(t.len()) <= 5, "len drift {}", read.len().abs_diff(t.len()));
        assert_eq!(read.len(), outq.len(), "quality stays aligned");
        let mut subs = 0usize;
        let mut run = 0usize;
        for (a, b) in read.codes().iter().zip(t.codes()) {
            if a != b {
                subs += 1;
                run += 1;
                if run > 3 {
                    break; // frame shift from an indel — stop counting
                }
            } else {
                run = 0;
            }
        }
        assert!(subs < 60, "q40 should be nearly error-free before any frame shift, got {subs}");
    }

    #[test]
    fn quality_ramps_at_ends() {
        let mut rng = StdRng::seed_from_u64(3);
        let q = ErrorModel::SANGER.qualities(500, &mut rng);
        assert_eq!(q.len(), 500);
        assert!(q.values()[0] < 12, "end quality should be low");
        assert!(q.values()[250] > 25, "interior quality should be high");
        assert!(q.values()[499] < 12, "other end low too");
    }

    #[test]
    fn quality_handles_short_reads() {
        let mut rng = StdRng::seed_from_u64(4);
        let q = ErrorModel::SANGER.qualities(3, &mut rng);
        assert_eq!(q.len(), 3);
        let q0 = ErrorModel::SANGER.qualities(0, &mut rng);
        assert!(q0.is_empty());
    }
}

//! Scoring schemes and acceptance criteria.

use pgasm_seq::alphabet::is_base_code;

/// Substitution / gap scores shared by all kernels. Scores are additive;
/// matches positive, mismatches and gaps negative. Gap costs are linear.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Scoring {
    /// Score for an identical base pair.
    pub match_score: i32,
    /// Score for a substitution (also applied when either base is masked).
    pub mismatch: i32,
    /// Cost of each gapped column.
    pub gap_extend: i32,
}

impl Scoring {
    /// The defaults used by the clustering pipeline: +1 match, −2
    /// mismatch, −1 per gapped column — mirrors common assembler
    /// settings (e.g. CAP3's relative weighting).
    pub const DEFAULT: Scoring = Scoring { match_score: 1, mismatch: -2, gap_extend: -1 };

    /// Substitution score for two codes; masked bases never match.
    #[inline]
    pub fn subst(&self, a: u8, b: u8) -> i32 {
        if a == b && is_base_code(a) {
            self.match_score
        } else {
            self.mismatch
        }
    }
}

impl Default for Scoring {
    fn default() -> Self {
        Scoring::DEFAULT
    }
}

/// When is a computed suffix–prefix alignment *accepted* as a true
/// overlap? The paper runs clustering with a *less stringent* criterion
/// than final assembly (§3 "Correctness") so that fragments of one contig
/// are never split across clusters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AcceptCriteria {
    /// Minimum fraction of identical columns among aligned columns.
    pub min_identity: f64,
    /// Minimum number of aligned columns (overlap length).
    pub min_overlap: usize,
}

impl AcceptCriteria {
    /// Clustering-phase criterion (lenient): 94% identity over ≥ 40 bp.
    pub const CLUSTERING: AcceptCriteria = AcceptCriteria { min_identity: 0.94, min_overlap: 40 };

    /// Assembly-phase criterion (stringent, CAP3-like): 95% over ≥ 40 bp.
    /// Two reads carrying independent ~1.5% sequencing error rates share
    /// ≈ 97% identity in a true overlap, so 95% accepts genuine overlaps
    /// while staying stricter than the clustering criterion.
    pub const ASSEMBLY: AcceptCriteria = AcceptCriteria { min_identity: 0.95, min_overlap: 40 };

    /// Does an alignment with the given identity and overlap length pass?
    #[inline]
    pub fn accepts(&self, identity: f64, overlap_len: usize) -> bool {
        identity + 1e-12 >= self.min_identity && overlap_len >= self.min_overlap
    }
}

impl Default for AcceptCriteria {
    fn default() -> Self {
        AcceptCriteria::CLUSTERING
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pgasm_seq::MASK;

    #[test]
    fn subst_scores() {
        let s = Scoring::DEFAULT;
        assert_eq!(s.subst(0, 0), 1);
        assert_eq!(s.subst(0, 1), -2);
        assert_eq!(s.subst(MASK, MASK), -2, "masked bases never match");
    }

    #[test]
    fn accept_boundaries() {
        let c = AcceptCriteria { min_identity: 0.9, min_overlap: 10 };
        assert!(c.accepts(0.9, 10));
        assert!(c.accepts(1.0, 100));
        assert!(!c.accepts(0.89, 100));
        assert!(!c.accepts(1.0, 9));
    }

    #[test]
    fn clustering_less_stringent_than_assembly() {
        const { assert!(AcceptCriteria::CLUSTERING.min_identity < AcceptCriteria::ASSEMBLY.min_identity) }
    }
}

//! Property tests for the full-matrix and banded overlap aligners.

use pgasm::align::overlap::{overlap_align_quality, OverlapKind};
use pgasm::align::{banded_overlap_align, overlap_align, Scoring};
use pgasm::seq::DnaSeq;
use proptest::prelude::*;

fn dna(len: std::ops::Range<usize>) -> impl Strategy<Value = DnaSeq> {
    proptest::collection::vec(0u8..4, len).prop_map(DnaSeq::from_codes)
}

/// A pair of sequences sharing a planted suffix–prefix overlap.
fn overlapping_pair() -> impl Strategy<Value = (DnaSeq, DnaSeq, usize)> {
    (dna(30..80), dna(20..60), dna(30..80)).prop_map(|(left, shared, right)| {
        let mut a = left;
        a.extend_from(&shared);
        let mut b = shared.clone();
        b.extend_from(&right);
        (a, b, shared.len())
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Identity is always a fraction; ranges lie within the sequences;
    /// the overlap length bounds both spans.
    #[test]
    fn overlap_result_wellformed((a, b, _) in overlapping_pair()) {
        let r = overlap_align(a.codes(), b.codes(), &Scoring::DEFAULT);
        prop_assert!((0.0..=1.0).contains(&r.identity));
        prop_assert!(r.a_range.0 <= r.a_range.1 && r.a_range.1 <= a.len());
        prop_assert!(r.b_range.0 <= r.b_range.1 && r.b_range.1 <= b.len());
        prop_assert!(r.a_range.1 - r.a_range.0 <= r.overlap_len);
        prop_assert!(r.b_range.1 - r.b_range.0 <= r.overlap_len);
    }

    /// A planted overlap is found with identity 1.0 and at least the
    /// shared length.
    #[test]
    fn planted_overlap_found((a, b, shared) in overlapping_pair()) {
        let r = overlap_align(a.codes(), b.codes(), &Scoring::DEFAULT);
        prop_assert!(r.overlap_len >= shared, "found {} < planted {shared}", r.overlap_len);
        prop_assert!(r.identity > 0.99);
        prop_assert!(matches!(r.kind, OverlapKind::SuffixPrefix | OverlapKind::AContained | OverlapKind::BContained));
    }

    /// A band wider than both sequences makes the banded DP equal the
    /// full DP, for any seed diagonal near the true one.
    #[test]
    fn wide_band_equals_full((a, b, shared) in overlapping_pair(), wobble in -3i64..=3) {
        let s = Scoring::DEFAULT;
        let full = overlap_align(a.codes(), b.codes(), &s);
        let diag = (a.len() - shared) as i64 + wobble;
        let band = a.len() + b.len();
        let banded = banded_overlap_align(a.codes(), b.codes(), diag, band, &s);
        prop_assert_eq!(full.score, banded.score);
        prop_assert_eq!(full.overlap_len, banded.overlap_len);
        prop_assert_eq!(full.a_range, banded.a_range);
        prop_assert_eq!(full.b_range, banded.b_range);
    }

    /// Swapping the inputs mirrors the geometry: suffix–prefix becomes
    /// prefix–suffix and the ranges swap.
    #[test]
    fn swap_symmetry((a, b, _) in overlapping_pair()) {
        let s = Scoring::DEFAULT;
        let ab = overlap_align(a.codes(), b.codes(), &s);
        let ba = overlap_align(b.codes(), a.codes(), &s);
        prop_assert_eq!(ab.score, ba.score);
        prop_assert_eq!(ab.overlap_len, ba.overlap_len);
        prop_assert_eq!(ab.a_range, ba.b_range);
        prop_assert_eq!(ab.b_range, ba.a_range);
    }

    /// Uniform qualities leave identity exactly where the unweighted
    /// computation puts it (weights cancel).
    #[test]
    fn uniform_quality_is_neutral((a, b, _) in overlapping_pair(), q in 5u8..50) {
        let s = Scoring::DEFAULT;
        let plain = overlap_align(a.codes(), b.codes(), &s);
        let qa = vec![q; a.len()];
        let qb = vec![q; b.len()];
        let weighted = overlap_align_quality(a.codes(), b.codes(), Some((&qa, &qb)), &s);
        prop_assert!((plain.identity - weighted.identity).abs() < 1e-9);
        prop_assert_eq!(plain.overlap_len, weighted.overlap_len);
    }
}

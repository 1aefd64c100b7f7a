//! Property tests for the one-pass banded overlap kernel: its lane
//! passes, its scalar instantiation and the independent banded oracle
//! ([`banded_overlap_align`]) must agree on every field but the work
//! counters — score, ranges, overlap length, the identity's bits, kind
//! and the traceback's diagonal span — on every pair the kernel fully
//! evaluates; its early exit and its adaptive X-drop shrink must never
//! drop a pair the acceptance criteria would accept; and lanes vs
//! scalar must be the same *struct*, counters included, on arbitrary
//! bytes.

use pgasm::align::overlap::overlap_align_quality_with;
use pgasm::align::{
    banded_overlap_align, overlap_align_quality, overlap_align_simd, AcceptCriteria, AlignScratch,
    OverlapResult, Scoring, SimdOpts,
};
use pgasm::seq::DnaSeq;
use proptest::prelude::*;

fn dna(len: std::ops::Range<usize>) -> impl Strategy<Value = DnaSeq> {
    proptest::collection::vec(0u8..4, len).prop_map(DnaSeq::from_codes)
}

/// Like `dna` but with masked positions (code 4 never matches anything,
/// itself included).
fn masked_dna(len: std::ops::Range<usize>) -> impl Strategy<Value = DnaSeq> {
    proptest::collection::vec(0u8..5, len).prop_map(DnaSeq::from_codes)
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

/// No gate, the clustering criterion, the assembly criterion.
const GATES: [Option<AcceptCriteria>; 3] =
    [None, Some(AcceptCriteria::CLUSTERING), Some(AcceptCriteria::ASSEMBLY)];

/// Lanes and forced scalar, adaptive on and off.
const ARMS: [SimdOpts; 4] = [
    SimdOpts { force_scalar: false, adaptive: true },
    SimdOpts { force_scalar: false, adaptive: false },
    SimdOpts { force_scalar: true, adaptive: true },
    SimdOpts { force_scalar: true, adaptive: false },
];

/// A quality track that ramps 5, 6, …, 44, 5, … from `phase`.
fn ramped(len: usize, phase: usize) -> Vec<u8> {
    (0..len).map(|i| 5 + ((i + phase) % 40) as u8).collect()
}

/// Every field but the work counters (and, with `identity` off, the
/// identity — the banded oracle does not weight by quality).
fn assert_same_alignment(got: &OverlapResult, oracle: &OverlapResult, identity: bool) {
    assert_eq!(got.score, oracle.score, "got {got:?} oracle {oracle:?}");
    assert_eq!(got.a_range, oracle.a_range, "got {got:?} oracle {oracle:?}");
    assert_eq!(got.b_range, oracle.b_range);
    assert_eq!(got.overlap_len, oracle.overlap_len);
    assert_eq!(got.kind, oracle.kind);
    assert_eq!(got.path_diags, oracle.path_diags);
    if identity {
        assert_eq!(got.identity.to_bits(), oracle.identity.to_bits(), "got {got:?} oracle {oracle:?}");
    }
}

/// Every arm under every gate against the banded oracle: equal to it
/// where it passes the gate (or there is none), rejected where it does
/// not. One scratch serves all calls, as in production.
fn assert_arms_match_banded(a: &[u8], b: &[u8], diag: i64, band: usize, s: &Scoring) -> OverlapResult {
    let oracle = banded_overlap_align(a, b, diag, band, s);
    let mut scratch = AlignScratch::new();
    for gate in &GATES {
        let acceptable = gate.as_ref().is_none_or(|c| c.accepts(oracle.identity, oracle.overlap_len));
        for opts in ARMS {
            let r = overlap_align_simd(a, b, diag, band, s, gate.as_ref(), None, &mut scratch, opts);
            if acceptable {
                assert!(!r.early_exited, "early exit fired on an acceptable pair ({opts:?})");
                assert!(!r.traceback_skipped, "traceback skipped on an acceptable pair ({opts:?})");
                assert_same_alignment(&r, &oracle, true);
            } else {
                // The gate may only ever reject — and it must reject
                // with a result the criteria also reject.
                let c = gate.as_ref().expect("only a gate makes a pair unacceptable");
                assert!(!c.accepts(r.identity, r.overlap_len), "{opts:?}: {r:?}");
            }
            if gate.is_none() || !opts.adaptive {
                assert!(r.cells <= oracle.cells);
                assert_eq!(r.cells_saved_adaptive, 0, "no floor or no shrinking: nothing saved");
            }
            if gate.is_none() {
                assert_eq!(r.cells, oracle.cells, "ungated, one pass visits exactly the oracle's cells");
            }
        }
    }
    oracle
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// On planted overlaps the one-pass kernel is the banded oracle:
    /// every field, every arm, every gate the oracle's result passes —
    /// and ungated it visits exactly the oracle's cell set.
    #[test]
    fn ungated_one_pass_matches_the_banded_oracle(
        (a, b, shared) in overlapping_pair(),
        wobble in -3i64..=3,
        band in 8usize..64,
    ) {
        let diag = (a.len() - shared) as i64 + wobble;
        assert_arms_match_banded(a.codes(), b.codes(), diag, band, &Scoring::DEFAULT);
    }

    /// Masked bases (which never match) change the scores but not the
    /// equivalence of kernel and oracle.
    #[test]
    fn masked_bases_keep_kernels_equivalent(
        a in masked_dna(20..120),
        b in masked_dna(20..120),
        diag in -20i64..=20,
    ) {
        assert_arms_match_banded(a.codes(), b.codes(), diag, 16, &Scoring::DEFAULT);
    }

    /// With an acceptance gate on, any pair the oracle's result would
    /// pass is returned bit-identically: the early exit never fires on
    /// an acceptable pair and its traceback is never skipped — and
    /// kernel and oracle agree on the accept/reject decision.
    #[test]
    fn gate_never_drops_an_acceptable_pair(
        (a, b, shared) in overlapping_pair(),
        wobble in -3i64..=3,
    ) {
        let s = Scoring::DEFAULT;
        let diag = (a.len() - shared) as i64 + wobble;
        let oracle = assert_arms_match_banded(a.codes(), b.codes(), diag, 24, &s);
        let mut scratch = AlignScratch::new();
        for criteria in [AcceptCriteria::CLUSTERING, AcceptCriteria::ASSEMBLY] {
            let r = overlap_align_simd(
                a.codes(), b.codes(), diag, 24, &s, Some(&criteria), None, &mut scratch, SimdOpts::default(),
            );
            prop_assert_eq!(
                criteria.accepts(oracle.identity, oracle.overlap_len),
                criteria.accepts(r.identity, r.overlap_len)
            );
        }
    }

    /// The quality-weighted path: the full-matrix oracle through a
    /// reused scratch equals its plain entry point; with ramped quality
    /// tracks every arm of the banded kernel walks the banded oracle's
    /// path (a gate is ignored — weighted identity is not monotone in
    /// score); and a band wider than both sequences reproduces the
    /// full quality DP, weighted identity included.
    #[test]
    fn quality_path_matches(
        (a, b, shared) in overlapping_pair(),
        phase_a in 0usize..40,
        phase_b in 0usize..40,
        band in 8usize..40,
    ) {
        let s = Scoring::DEFAULT;
        let (qa, qb) = (ramped(a.len(), phase_a), ramped(b.len(), phase_b));
        let quals = Some((&qa[..], &qb[..]));
        let fresh = overlap_align_quality(a.codes(), b.codes(), quals, &s);
        let mut scratch = AlignScratch::new();
        // Warm the scratch on an unrelated pair first: reuse must not
        // leak state between alignments.
        let _ = overlap_align_quality_with(b.codes(), a.codes(), None, &s, &mut scratch);
        let reused = overlap_align_quality_with(a.codes(), b.codes(), quals, &s, &mut scratch);
        prop_assert_eq!(fresh, reused);

        let diag = (a.len() - shared) as i64;
        let banded = banded_overlap_align(a.codes(), b.codes(), diag, band, &s);
        let wide = a.len() + b.len();
        for opts in ARMS {
            let gate = AcceptCriteria::ASSEMBLY;
            let r = overlap_align_simd(
                a.codes(), b.codes(), diag, band, &s, Some(&gate), quals, &mut scratch, opts,
            );
            assert_same_alignment(&r, &banded, false);
            prop_assert_eq!(r.cells, banded.cells);
            let full = overlap_align_simd(a.codes(), b.codes(), diag, wide, &s, None, quals, &mut scratch, opts);
            assert_same_alignment(&full, &fresh, true);
        }
    }

    /// Empty sequences are a no-op for every kernel.
    #[test]
    fn empty_sequences_yield_empty_results(a in dna(0..40), diag in -5i64..=5) {
        let s = Scoring::DEFAULT;
        let empty: &[u8] = &[];
        let mut scratch = AlignScratch::new();
        for (x, y) in [(a.codes(), empty), (empty, a.codes()), (empty, empty)] {
            let oracle = banded_overlap_align(x, y, diag, 8, &s);
            prop_assert_eq!((oracle.score, oracle.overlap_len, oracle.cells), (0, 0, 0));
            for opts in ARMS {
                let r = overlap_align_simd(x, y, diag, 8, &s, None, None, &mut scratch, opts);
                prop_assert_eq!(r, oracle);
            }
        }
    }

    /// The kernel's scalar instantiation is bit-identical to its lane
    /// passes — the *whole result struct*, counters included — on
    /// sequences drawn from the full u8 code space (bases, masked
    /// codes, and garbage bytes alike), at every length down to 0 and 1,
    /// with bands far wider than both sequences, under every gate, with
    /// and without quality tracks.
    #[test]
    fn simd_scalar_fallback_bit_identical_on_arbitrary_bytes(
        a in proptest::collection::vec(any::<u8>(), 0..90),
        b in proptest::collection::vec(any::<u8>(), 0..90),
        diag in -30i64..=30,
        band in 1usize..200,
        gate in 0usize..3,
        adaptive in any::<bool>(),
        with_quals in any::<bool>(),
    ) {
        let s = Scoring::DEFAULT;
        let (qa, qb) = (ramped(a.len(), 3), ramped(b.len(), 17));
        let quals = with_quals.then_some((&qa[..], &qb[..]));
        let mut scratch = AlignScratch::new();
        let mut run = |force_scalar| {
            overlap_align_simd(
                &a, &b, diag, band, &s, GATES[gate].as_ref(), quals, &mut scratch,
                SimdOpts { force_scalar, adaptive },
            )
        };
        let (vec_r, sc_r) = (run(false), run(true));
        prop_assert_eq!(vec_r, sc_r);
    }

    /// Bands that clip the rectangle on either side — or miss it — with
    /// masked bases: seed diagonals out to ±(length + band), so the band
    /// enters late, leaves early, or holds no cell at all.
    #[test]
    fn bands_clipping_the_rectangle_match_the_banded_oracle(
        a in masked_dna(1..100),
        b in masked_dna(1..100),
        diag in -150i64..=150,
        band in 4usize..48,
    ) {
        assert_arms_match_banded(a.codes(), b.codes(), diag, band, &Scoring::DEFAULT);
    }

    /// The adaptive X-drop shrink never drops a pair the fixed band
    /// accepts — and accepted pairs come back bit-identical, under the
    /// default scoring and under the harsh verification scoring whose
    /// steep off-diagonal decay makes the shrink actually engage.
    #[test]
    fn adaptive_band_never_drops_an_accepted_pair(
        (a, b, shared) in overlapping_pair(),
        wobble in -3i64..=3,
        band in 8usize..40,
        harsh in any::<bool>(),
    ) {
        let s = if harsh {
            Scoring { match_score: 1, mismatch: -7, gap_extend: -5 }
        } else {
            Scoring::DEFAULT
        };
        let criteria = AcceptCriteria::CLUSTERING;
        let diag = (a.len() - shared) as i64 + wobble;
        assert_arms_match_banded(a.codes(), b.codes(), diag, band, &s);
        let mut scratch = AlignScratch::new();
        let mut run = |adaptive| {
            overlap_align_simd(
                a.codes(), b.codes(), diag, band, &s, Some(&criteria), None, &mut scratch,
                SimdOpts { force_scalar: false, adaptive },
            )
        };
        let (fixed, adapt) = (run(false), run(true));
        if criteria.accepts(fixed.identity, fixed.overlap_len) {
            assert_same_alignment(&adapt, &fixed, true);
        } else {
            prop_assert!(!criteria.accepts(adapt.identity, adapt.overlap_len));
        }
        // Savings accounting stays consistent either way: what the
        // adaptive run computed plus what it skipped never exceeds the
        // fixed band's work.
        prop_assert!(adapt.cells + adapt.cells_saved_adaptive <= fixed.cells);
    }
}

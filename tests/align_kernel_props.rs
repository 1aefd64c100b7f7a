//! Property tests for the one-pass banded overlap kernel: its lane
//! passes (as dispatched and at the build baseline), its scalar
//! instantiation and the independent banded oracle
//! ([`banded_overlap_align`]) must return the same *struct* — score,
//! ranges, overlap length, the identity's bits, kind, the traceback's
//! diagonal span and the cell count — on planted overlaps, masked bases,
//! clipped bands, unrelated pairs and diverged repeat copies, so the
//! acceptance criteria give the oracle's verdict on every input; and
//! lanes vs scalar must agree on arbitrary bytes.

use pgasm::align::overlap::{overlap_align_baseline, overlap_align_quality_with, overlap_align_scalar};
use pgasm::align::{
    banded_overlap_align, overlap_align_quality, overlap_align_simd, AcceptCriteria, AlignScratch,
    OverlapResult, Scoring,
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

/// Two reads that end, resp. begin, in copies of one repeat, the second
/// copy diverged by substitutions, insertions and deletions at 6–15 % of
/// its positions (85–94 % identity), with the seed diagonal of the
/// copies' first base — what a maximal match inside a repeat family
/// hands the clustering aligner.
fn repeat_copies() -> impl Strategy<Value = (Vec<u8>, Vec<u8>, i64)> {
    let edits = proptest::collection::vec((0u32..100, 0u8..3, 0u8..4), 400);
    (dna(0..120), dna(150..400), dna(0..120), (6u32..=15, edits)).prop_map(|(la, copy, rb, (rate, edits))| {
        let mut diverged = Vec::with_capacity(copy.len() + 40);
        for (&base, &(roll, kind, other)) in copy.codes().iter().zip(&edits) {
            match (roll < rate, kind) {
                (false, _) => diverged.push(base),
                (true, 0) => diverged.push((base + 1 + other % 3) % 4),
                (true, 1) => diverged.extend([other, base]),
                (true, _) => {}
            }
        }
        let a = [la.codes(), copy.codes()].concat();
        let b = [&diverged[..], rb.codes()].concat();
        (a, b, la.len() as i64)
    })
}

/// The harsh verification scoring: steep decay off the winning ridge.
const HARSH: Scoring = Scoring { match_score: 1, mismatch: -7, gap_extend: -5 };

/// A quality track that ramps 5, 6, …, 44, 5, … from `phase`.
fn ramped(len: usize, phase: usize) -> Vec<u8> {
    (0..len).map(|i| 5 + ((i + phase) % 40) as u8).collect()
}

type Kernel =
    fn(&[u8], &[u8], i64, usize, &Scoring, Option<(&[u8], &[u8])>, &mut AlignScratch) -> OverlapResult;

/// The lane passes as dispatched (AVX2 where the host has it), the lane
/// passes at the build baseline, and the scalar instantiation of the same
/// body.
const KERNELS: [Kernel; 3] = [overlap_align_simd, overlap_align_baseline, overlap_align_scalar];

/// Both kernels against the banded oracle, every field and `cells`: one
/// pass visits exactly the oracle's cells. One scratch serves all calls,
/// as in production.
fn assert_matches_banded(a: &[u8], b: &[u8], diag: i64, band: usize, s: &Scoring) -> OverlapResult {
    let oracle = banded_overlap_align(a, b, diag, band, s);
    let mut scratch = AlignScratch::new();
    for kernel in KERNELS {
        assert_eq!(kernel(a, b, diag, band, s, None, &mut scratch), oracle);
    }
    oracle
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// On planted overlaps the one-pass kernel is the banded oracle,
    /// under the default scoring and the harsh one. (There is no gate;
    /// the name is pinned.)
    #[test]
    fn ungated_one_pass_matches_the_banded_oracle(
        (a, b, shared) in overlapping_pair(),
        wobble in -3i64..=3,
        band in 8usize..64,
        harsh in any::<bool>(),
    ) {
        let diag = (a.len() - shared) as i64 + wobble;
        let s = if harsh { HARSH } else { Scoring::DEFAULT };
        assert_matches_banded(a.codes(), b.codes(), diag, band, &s);
    }

    /// Masked bases (which never match) change the scores but not the
    /// equivalence of kernel and oracle.
    #[test]
    fn masked_bases_keep_kernels_equivalent(
        a in masked_dna(20..120),
        b in masked_dna(20..120),
        diag in -20i64..=20,
    ) {
        assert_matches_banded(a.codes(), b.codes(), diag, 16, &Scoring::DEFAULT);
    }

    /// The pairs almost every alignment of a repeat-bearing or
    /// unpreprocessed input is made of — unrelated reads and diverged
    /// repeat copies, at clustering's band — are aligned in full like any
    /// other: the kernel is the banded oracle on them, so the criteria
    /// give the oracle's verdict, and no criterion passes an unrelated
    /// pair.
    #[test]
    fn criteria_decide_on_unrelated_pairs_and_diverged_repeat_copies(
        (ra, rb, rdiag) in repeat_copies(),
        ua in dna(100..400),
        ub in dna(100..400),
        udiag in -300i64..=300,
    ) {
        let s = Scoring::DEFAULT;
        let mut scratch = AlignScratch::new();
        for (a, b, diag, unrelated) in [(&ra[..], &rb[..], rdiag, false), (ua.codes(), ub.codes(), udiag, true)] {
            let oracle = assert_matches_banded(a, b, diag, 24, &s);
            let r = overlap_align_simd(a, b, diag, 24, &s, None, &mut scratch);
            for criteria in [AcceptCriteria::CLUSTERING, AcceptCriteria::ASSEMBLY] {
                let verdict = criteria.accepts(oracle.identity, oracle.overlap_len);
                prop_assert_eq!(criteria.accepts(r.identity, r.overlap_len), verdict);
                prop_assert!(!(unrelated && verdict), "an unrelated pair passed: {:?}", oracle);
            }
        }
    }

    /// The quality-weighted path: the full-matrix oracle through a
    /// reused scratch equals its plain entry point; with ramped quality
    /// tracks both kernels walk the banded oracle's path (which does not
    /// weight identity); and a band wider than both sequences reproduces
    /// the full quality DP, weighted identity included.
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
        for kernel in KERNELS {
            let r = kernel(a.codes(), b.codes(), diag, band, &s, quals, &mut scratch);
            prop_assert_eq!(OverlapResult { identity: banded.identity, ..r }, banded);
            let full = kernel(a.codes(), b.codes(), diag, wide, &s, quals, &mut scratch);
            prop_assert_eq!(full, fresh);
        }
    }

    /// Empty sequences are a no-op for every kernel.
    #[test]
    fn empty_sequences_yield_empty_results(a in dna(0..40), diag in -5i64..=5) {
        let s = Scoring::DEFAULT;
        let empty: &[u8] = &[];
        for (x, y) in [(a.codes(), empty), (empty, a.codes()), (empty, empty)] {
            let oracle = assert_matches_banded(x, y, diag, 8, &s);
            prop_assert_eq!((oracle.score, oracle.overlap_len, oracle.cells), (0, 0, 0));
        }
    }

    /// The kernel's scalar instantiation is bit-identical to its lane
    /// passes — the *whole result struct*, `cells` included — on
    /// sequences drawn from the full u8 code space (bases, masked
    /// codes, and garbage bytes alike), at every length down to 0 and 1,
    /// with bands far wider than both sequences, with and without
    /// quality tracks.
    #[test]
    fn simd_scalar_fallback_bit_identical_on_arbitrary_bytes(
        a in proptest::collection::vec(any::<u8>(), 0..90),
        b in proptest::collection::vec(any::<u8>(), 0..90),
        diag in -30i64..=30,
        band in 1usize..200,
        with_quals in any::<bool>(),
    ) {
        let s = Scoring::DEFAULT;
        let (qa, qb) = (ramped(a.len(), 3), ramped(b.len(), 17));
        let quals = with_quals.then_some((&qa[..], &qb[..]));
        let mut scratch = AlignScratch::new();
        let [vec_r, base_r, sc_r] = KERNELS.map(|kernel| kernel(&a, &b, diag, band, &s, quals, &mut scratch));
        prop_assert_eq!(vec_r, base_r);
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
        assert_matches_banded(a.codes(), b.codes(), diag, band, &Scoring::DEFAULT);
    }

    /// Every row width modulo the lane count and every way the band meets the
    /// rectangle: bands 0..=40, seed diagonals from −n − 8 to m + 8 (the
    /// band enters late, leaves early or misses every cell), masked and
    /// non-base codes in both sequences with at least one masked query
    /// row, with and without quality tracks. Every kernel is the banded
    /// oracle field for field, `cells` included; with quality tracks the
    /// identity is weighted, so it is held equal across the kernels and
    /// every other field to the oracle.
    #[test]
    fn every_row_width_and_band_edge_matches_the_banded_oracle(
        mut a in proptest::collection::vec(0u8..6, 1..90),
        b in proptest::collection::vec(0u8..6, 1..90),
        masked_row in any::<proptest::sample::Index>(),
        diag_pick in any::<proptest::sample::Index>(),
        band in 0usize..=40,
        harsh in any::<bool>(),
        with_quals in any::<bool>(),
    ) {
        let (m, n) = (a.len() as i64, b.len() as i64);
        let row = masked_row.index(a.len());
        a[row] = pgasm::seq::MASK;
        let diag = -n - 8 + diag_pick.index((m + n + 17) as usize) as i64;
        let s = if harsh { HARSH } else { Scoring::DEFAULT };
        let (qa, qb) = (ramped(a.len(), 11), ramped(b.len(), 29));
        let quals = with_quals.then_some((&qa[..], &qb[..]));
        let oracle = banded_overlap_align(&a, &b, diag, band, &s);
        let mut scratch = AlignScratch::new();
        let [first, rest @ ..] = KERNELS.map(|kernel| kernel(&a, &b, diag, band, &s, quals, &mut scratch));
        for r in rest {
            prop_assert_eq!(r, first);
        }
        let identity = if with_quals { oracle.identity } else { first.identity };
        prop_assert_eq!(OverlapResult { identity, ..first }, oracle);
    }
}

//! Property-based verification of the promising-pair generator against
//! the exhaustive maximal-match oracle, over random fragment sets with
//! planted overlaps and masked regions.

use pgasm_gst::brute;
use pgasm_gst::{GenMode, Gst, GstConfig, PairGenerator, PromisingPair};
use pgasm_seq::{DnaSeq, FragmentStore};
use proptest::prelude::*;
use std::collections::{HashMap, HashSet};

/// A random DNA string over a deliberately small alphabet region so that
/// shared substrings (and thus maximal matches) actually occur.
fn dna(len: std::ops::Range<usize>) -> impl Strategy<Value = DnaSeq> {
    proptest::collection::vec(0u8..4, len).prop_map(DnaSeq::from_codes)
}

/// A fragment set in which later fragments may copy a window of earlier
/// ones (planting genuine overlaps), with optional masking.
fn fragment_set() -> impl Strategy<Value = FragmentStore> {
    (
        proptest::collection::vec(dna(12..40), 2..7),
        proptest::collection::vec(
            (any::<prop::sample::Index>(), any::<prop::sample::Index>(), 0usize..20),
            0..4,
        ),
        proptest::collection::vec((any::<prop::sample::Index>(), 0usize..30, 1usize..6), 0..3),
    )
        .prop_map(|(mut seqs, copies, masks)| {
            // Plant copies: append a window of one sequence onto another.
            for (src, dst, off) in copies {
                let si = src.index(seqs.len());
                let di = dst.index(seqs.len());
                if si == di {
                    continue;
                }
                let window: Vec<u8> = {
                    let s = &seqs[si];
                    let start = off.min(s.len().saturating_sub(1));
                    s.codes()[start..(start + 15).min(s.len())].to_vec()
                };
                for c in window {
                    seqs[di].push_code(c);
                }
            }
            // Mask random ranges.
            for (idx, start, len) in masks {
                let i = idx.index(seqs.len());
                let l = seqs[i].len();
                if l == 0 {
                    continue;
                }
                let s = start.min(l - 1);
                seqs[i].mask_range(s, (s + len).min(l));
            }
            FragmentStore::from_seqs(seqs)
        })
}

fn generate(st: &FragmentStore, psi: usize, mode: GenMode) -> Vec<PromisingPair> {
    let gst = Gst::build(st, GstConfig { psi });
    PairGenerator::new(gst, mode, |_, _| false).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// AllMatches mode emits exactly the set of maximal-match
    /// occurrences found by brute force — no more, no fewer.
    #[test]
    fn all_matches_equals_oracle(st in fragment_set(), psi in 4usize..8) {
        let pairs = generate(&st, psi, GenMode::AllMatches);
        let got: HashSet<(u32, u32, u32, u32, u32)> =
            pairs.iter().map(|p| (p.a.0, p.b.0, p.a_pos, p.b_pos, p.match_len)).collect();
        prop_assert_eq!(got.len(), pairs.len(), "duplicate emissions");
        let expected: HashSet<(u32, u32, u32, u32, u32)> =
            brute::all_maximal_matches(&st, psi).iter()
                .map(|m| (m.a, m.b, m.a_pos, m.b_pos, m.len)).collect();
        prop_assert_eq!(got, expected);
    }

    /// DupElim mode covers every distinct overlapping pair at least once
    /// and never exceeds the pair's distinct-maximal-match count.
    #[test]
    fn dup_elim_complete_and_bounded(st in fragment_set(), psi in 4usize..8) {
        let pairs = generate(&st, psi, GenMode::DupElim);
        let matches = brute::all_maximal_matches(&st, psi);
        let expected: HashSet<(u32, u32)> = brute::distinct_pairs(&matches).into_iter().collect();
        let got: HashSet<(u32, u32)> = pairs.iter().map(|p| (p.a.0, p.b.0)).collect();
        prop_assert_eq!(&got, &expected);
        let mut match_count: HashMap<(u32, u32), usize> = HashMap::new();
        for m in &matches {
            *match_count.entry((m.a, m.b)).or_default() += 1;
        }
        let mut gen_count: HashMap<(u32, u32), usize> = HashMap::new();
        for p in &pairs {
            *gen_count.entry((p.a.0, p.b.0)).or_default() += 1;
        }
        for (pair, g) in gen_count {
            prop_assert!(g <= match_count[&pair], "pair {:?} overgenerated", pair);
        }
    }

    /// Both modes emit pairs in non-increasing maximal-match length, and
    /// every seed is a genuine exact match of the claimed length.
    #[test]
    fn ordering_and_seed_validity(st in fragment_set(), psi in 4usize..8) {
        for mode in [GenMode::AllMatches, GenMode::DupElim] {
            let pairs = generate(&st, psi, mode);
            for win in pairs.windows(2) {
                prop_assert!(win[0].match_len >= win[1].match_len);
            }
            for p in &pairs {
                let a = st.get(p.a);
                let b = st.get(p.b);
                let len = p.match_len as usize;
                prop_assert!(p.a_pos as usize + len <= a.len());
                prop_assert!(p.b_pos as usize + len <= b.len());
                let sa = &a[p.a_pos as usize..p.a_pos as usize + len];
                let sb = &b[p.b_pos as usize..p.b_pos as usize + len];
                prop_assert_eq!(sa, sb);
                prop_assert!(sa.iter().all(|&c| pgasm_seq::is_base_code(c)), "seed crosses a mask");
            }
        }
    }

    /// The batch interface yields exactly the same stream as plain
    /// iteration (resumability property the master–worker design needs).
    #[test]
    fn batching_is_transparent(st in fragment_set(), batch in 1usize..7) {
        let whole = generate(&st, 5, GenMode::DupElim);
        let gst = Gst::build(&st, GstConfig { psi: 5 });
        let mut g = PairGenerator::new(gst, GenMode::DupElim, |_, _| false);
        let mut batched = Vec::new();
        while g.next_batch(batch, &mut batched) > 0 {}
        prop_assert_eq!(batched, whole);
    }
}

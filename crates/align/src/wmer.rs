//! Fixed-length w-mer lookup-table filter — the classical baseline.
//!
//! §2 of the paper: "The most frequently used filter is to generate pairs
//! that have one or more exact matches of a specified length, say w. Such
//! pairs are easily identified using a lookup table… A downside to this
//! approach is that a long exact match of length l reveals itself as
//! (l − w + 1) matches of length w." This module implements that filter
//! so the ablation benches can quantify exactly that redundancy against
//! the maximal-match generator in `pgasm-gst`.

use pgasm_seq::{FragmentStore, KmerIter, SeqId, WordMap};
use std::collections::HashMap;

/// Statistics from running the w-mer filter.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WmerFilterStats {
    /// Total (redundant) pair generations — one per shared w-mer
    /// occurrence pair, the quantity that grows as l − w + 1 per long
    /// match.
    pub pair_generations: u64,
    /// Distinct unordered sequence pairs generated at least once.
    pub distinct_pairs: u64,
    /// Number of w-mer buckets whose occurrence list was ≥ 2 long.
    pub shared_words: u64,
}

/// A candidate pair from the filter: two sequences and the seed positions
/// of one shared w-mer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WmerPair {
    /// First sequence (lower id).
    pub a: SeqId,
    /// Second sequence.
    pub b: SeqId,
    /// Seed start in `a`.
    pub a_pos: u32,
    /// Seed start in `b`.
    pub b_pos: u32,
}

/// The lookup table: packed w-mer → list of (sequence, position)
/// occurrences.
pub struct WmerTable {
    w: usize,
    table: WordMap<Vec<(SeqId, u32)>>,
}

impl WmerTable {
    /// Index every w-mer of every sequence in the store.
    pub fn build(store: &FragmentStore, w: usize) -> Self {
        let mut table: WordMap<Vec<(SeqId, u32)>> = WordMap::default();
        for (id, codes) in store.iter() {
            for (pos, packed) in KmerIter::new(codes, w) {
                table.entry(packed).or_default().push((id, pos as u32));
            }
        }
        WmerTable { w, table }
    }

    /// Word length.
    pub fn w(&self) -> usize {
        self.w
    }

    /// Enumerate every candidate pair (including the redundant
    /// regenerations the paper criticises), invoking `f` per generation.
    /// Pairs between a sequence and itself are skipped; `skip` lets the
    /// caller exclude e.g. pairs of the two strands of one fragment.
    pub fn for_each_pair(
        &self,
        mut skip: impl FnMut(SeqId, SeqId) -> bool,
        mut f: impl FnMut(WmerPair),
    ) -> WmerFilterStats {
        let mut stats = WmerFilterStats::default();
        let mut seen: HashMap<(u32, u32), ()> = HashMap::new();
        for occs in self.table.values() {
            if occs.len() < 2 {
                continue;
            }
            stats.shared_words += 1;
            for (i, &(sa, pa)) in occs.iter().enumerate() {
                for &(sb, pb) in &occs[i + 1..] {
                    if sa == sb || skip(sa, sb) {
                        continue;
                    }
                    let (a, b, a_pos, b_pos) = if sa.0 <= sb.0 { (sa, sb, pa, pb) } else { (sb, sa, pb, pa) };
                    stats.pair_generations += 1;
                    seen.entry((a.0, b.0)).or_insert(());
                    f(WmerPair { a, b, a_pos, b_pos });
                }
            }
        }
        stats.distinct_pairs = seen.len() as u64;
        stats
    }

    /// Convenience: just count generations without a callback.
    pub fn count_pairs(&self, skip: impl FnMut(SeqId, SeqId) -> bool) -> WmerFilterStats {
        self.for_each_pair(skip, |_| {})
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pgasm_seq::DnaSeq;

    fn store(seqs: &[&str]) -> FragmentStore {
        FragmentStore::from_seqs(seqs.iter().map(|s| DnaSeq::from(*s)))
    }

    #[test]
    fn shared_word_produces_pair() {
        let st = store(&["AAACGTTT", "GGACGTCC"]);
        let t = WmerTable::build(&st, 4);
        let mut pairs = Vec::new();
        let stats = t.for_each_pair(|_, _| false, |p| pairs.push(p));
        assert_eq!(stats.distinct_pairs, 1);
        assert_eq!(pairs.len(), 1);
        assert_eq!(pairs[0].a, SeqId(0));
        assert_eq!(pairs[0].b, SeqId(1));
        assert_eq!(pairs[0].a_pos, 2);
        assert_eq!(pairs[0].b_pos, 2);
    }

    #[test]
    fn long_match_generates_l_minus_w_plus_1_pairs() {
        // Shared exact region of length 10 with no internal word
        // repeats, w = 4 → 7 generations.
        let st = store(&["ACGTTGCAAT", "ACGTTGCAAT"]);
        let t = WmerTable::build(&st, 4);
        let stats = t.count_pairs(|_, _| false);
        assert_eq!(stats.pair_generations, 10 - 4 + 1);
        assert_eq!(stats.distinct_pairs, 1);
    }

    #[test]
    fn no_shared_words_no_pairs() {
        let st = store(&["AAAAAAA", "CCCCCCC"]);
        let t = WmerTable::build(&st, 4);
        let stats = t.count_pairs(|_, _| false);
        assert_eq!(stats.pair_generations, 0);
        assert_eq!(stats.distinct_pairs, 0);
    }

    #[test]
    fn skip_callback_filters() {
        let st = store(&["ACGTACGT", "ACGTACGT"]);
        let t = WmerTable::build(&st, 4);
        let stats = t.count_pairs(|_, _| true);
        assert_eq!(stats.pair_generations, 0);
    }

    #[test]
    fn self_pairs_excluded() {
        // A repeated word within one sequence must not pair it with itself.
        let st = store(&["ACGTAACGTA"]);
        let t = WmerTable::build(&st, 4);
        let stats = t.count_pairs(|_, _| false);
        assert_eq!(stats.pair_generations, 0);
    }

    #[test]
    fn masked_regions_not_indexed() {
        let mut a = DnaSeq::from("ACGTACGT");
        a.mask_range(0, 8);
        let st = FragmentStore::from_seqs(vec![a, DnaSeq::from("ACGTACGT")]);
        let t = WmerTable::build(&st, 4);
        assert_eq!(t.count_pairs(|_, _| false).pair_generations, 0);
    }
}

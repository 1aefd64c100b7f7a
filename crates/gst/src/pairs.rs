//! On-demand promising-pair generation (paper §5, steps S1–S4).
//!
//! The generator walks the GST's eligible nodes in decreasing
//! string-depth order and, at each node, emits fragment pairs by
//! cross-producting `lsets` — at a leaf, across different preceding-char
//! classes of its own suffixes (S3); at an internal node, across
//! different children and compatible classes (S4). Afterwards the
//! children's lsets are concatenated into the node in O(1) per class, so
//! total space stays linear and each pair costs O(1) amortised
//! (Lemma 2).
//!
//! Class-pair compatibility encodes left-maximality (condition C4):
//! two suffixes both preceded by the same real base can be extended left,
//! so only differing classes pair up — except λ (no left extension
//! possible), which pairs with everything including λ itself.
//!
//! Implemented as a resumable [`Iterator`]: the explicit cursor
//! (node → child pair → class pair → list positions) is what lets a
//! worker processor yield exactly the `r` pairs the master requested and
//! resume later (§7's flow control).

use crate::tree::{Gst, LAMBDA, NONE, NUM_CLASSES};
use pgasm_seq::SeqId;

/// Class pairs for *leaf* nodes: unordered over one suffix set —
/// `c < c'`, plus (λ, λ) for pairs within the λ list.
const LEAF_CLASS_PAIRS: [(usize, usize); 11] =
    [(0, 1), (0, 2), (0, 3), (0, 4), (1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4), (LAMBDA, LAMBDA)];

/// Class pairs for *internal* nodes: ordered across two different
/// children — all `c ≠ c'`, plus (λ, λ). Both orders are needed because
/// the two sides draw from different children.
const INTERNAL_CLASS_PAIRS: [(usize, usize); 21] = [
    (0, 1),
    (0, 2),
    (0, 3),
    (0, 4),
    (1, 0),
    (1, 2),
    (1, 3),
    (1, 4),
    (2, 0),
    (2, 1),
    (2, 3),
    (2, 4),
    (3, 0),
    (3, 1),
    (3, 2),
    (3, 4),
    (4, 0),
    (4, 1),
    (4, 2),
    (4, 3),
    (LAMBDA, LAMBDA),
];

/// Pair generation mode.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GenMode {
    /// Generate every maximal-match occurrence (needed when alignments
    /// are anchored to the maximal matches).
    AllMatches,
    /// The paper's duplicate-elimination refinement: before generating
    /// at a node, retain only one arbitrary suffix occurrence per
    /// sequence across the children's lsets, so a pair is generated at
    /// most once per node (and at most once per *distinct* maximal
    /// match overall).
    DupElim,
}

/// A promising pair: two sequences sharing a maximal match of length
/// ≥ ψ, with the seed coordinates of that match.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PromisingPair {
    /// Lower sequence id.
    pub a: SeqId,
    /// Higher sequence id.
    pub b: SeqId,
    /// Seed (maximal match) start in `a`.
    pub a_pos: u32,
    /// Seed start in `b`.
    pub b_pos: u32,
    /// Length of the maximal match at the generating node (its string
    /// depth). In [`GenMode::DupElim`] the retained occurrence may sit
    /// inside a longer match; the value is still a valid lower bound and
    /// the generation order key.
    pub match_len: u32,
}

struct NodeCursor {
    node: u32,
    is_leaf: bool,
    /// The two children whose lsets are being crossed, `cb` a later
    /// sibling of `ca` (leaf: both the node itself). The sibling links
    /// are walked in place; generation never changes them.
    ca: u32,
    cb: u32,
    /// Class-pair index; `usize::MAX` = before the first combo.
    cp: usize,
    /// Current elements in the two lists.
    pa: u32,
    pb: u32,
}

/// The resumable promising-pair generator. Consumes the [`Gst`]
/// (generation dissolves the lsets upward through the tree).
pub struct PairGenerator<F: FnMut(SeqId, SeqId) -> bool> {
    gst: Gst,
    mode: GenMode,
    /// Returns true to *drop* a candidate pair (e.g. the two strands of
    /// one fragment, or a non-canonical strand combination).
    skip: F,
    order_idx: usize,
    cursor: Option<NodeCursor>,
    seen: Vec<bool>,
    touched: Vec<u32>,
    /// Pairs emitted so far (after skip filtering).
    pub emitted: u64,
    /// Candidate pairs enumerated before skip filtering.
    pub enumerated: u64,
}

impl<F: FnMut(SeqId, SeqId) -> bool> PairGenerator<F> {
    /// Create a generator over `gst`. `skip(a, b)` (with `a < b`) drops
    /// unwanted pairs; same-sequence pairs are always dropped.
    pub fn new(gst: Gst, mode: GenMode, skip: F) -> Self {
        let num_seqs = gst.num_seqs;
        PairGenerator {
            gst,
            mode,
            skip,
            order_idx: 0,
            cursor: None,
            seen: vec![false; num_seqs],
            touched: Vec::new(),
            emitted: 0,
            enumerated: 0,
        }
    }

    /// Collect up to `n` further pairs into `out`; returns how many were
    /// produced (fewer only at exhaustion). This is the worker-side batch
    /// interface of the master–worker protocol.
    pub fn next_batch(&mut self, n: usize, out: &mut Vec<PromisingPair>) -> usize {
        let before = out.len();
        for _ in 0..n {
            match self.next() {
                Some(p) => out.push(p),
                None => break,
            }
        }
        out.len() - before
    }

    /// True once every eligible node has been fully enumerated.
    pub fn is_exhausted(&self) -> bool {
        self.cursor.is_none() && self.order_idx >= self.gst.order.len()
    }

    /// Set up the cursor for the next node in processing order.
    fn open_next_node(&mut self) -> bool {
        let Some(&node) = self.gst.order.get(self.order_idx) else {
            return false;
        };
        self.order_idx += 1;
        let first = self.gst.nodes[node as usize].first_child;
        let is_leaf = first == NONE;
        if self.mode == GenMode::DupElim {
            self.dedup_children(node);
        }
        let (ca, cb) =
            if is_leaf { (node, node) } else { (first, self.gst.nodes[first as usize].next_sibling) };
        let mut cur = NodeCursor { node, is_leaf, ca, cb, cp: usize::MAX, pa: NONE, pb: NONE };
        if cb != NONE && self.next_combo(&mut cur) {
            self.cursor = Some(cur);
        } else {
            // No pairs at this node: still merge lsets upward.
            self.finalize_node(node);
        }
        true
    }

    /// Retain one arbitrary occurrence per sequence across all lsets of
    /// all children of `node` — of `node` itself when it is a leaf
    /// (paper's boolean-array scheme, §5).
    fn dedup_children(&mut self, node: u32) {
        let mut child = self.gst.nodes[node as usize].first_child;
        if child == NONE {
            self.dedup_lsets(node);
        }
        while child != NONE {
            self.dedup_lsets(child);
            child = self.gst.nodes[child as usize].next_sibling;
        }
        for &s in &self.touched {
            self.seen[s as usize] = false;
        }
        self.touched.clear();
    }

    /// Splice out of `child`'s lsets every suffix of a sequence already
    /// seen at the current node.
    fn dedup_lsets(&mut self, child: u32) {
        let slot = self.gst.nodes[child as usize].lset;
        debug_assert_ne!(slot, NONE, "eligible node's child must have an lset slot");
        for class in 0..NUM_CLASSES {
            let mut head = self.gst.lset_head[slot as usize][class];
            let mut prev = NONE;
            let mut e = head;
            let mut tail = NONE;
            while e != NONE {
                let next = self.gst.suf_next[e as usize];
                let seq = self.gst.suf_seq[e as usize] as usize;
                if self.seen[seq] {
                    // Splice out.
                    if prev == NONE {
                        head = next;
                    } else {
                        self.gst.suf_next[prev as usize] = next;
                    }
                } else {
                    self.seen[seq] = true;
                    self.touched.push(seq as u32);
                    prev = e;
                    tail = e;
                }
                e = next;
            }
            self.gst.lset_head[slot as usize][class] = head;
            self.gst.lset_tail[slot as usize][class] = tail;
        }
    }

    /// Advance `(ca, cb, cp)` to the next combo with a non-empty element
    /// pair and position `(pa, pb)` at its first pair. Returns false when
    /// the node is exhausted.
    fn next_combo(&mut self, cur: &mut NodeCursor) -> bool {
        let class_pairs: &[(usize, usize)] =
            if cur.is_leaf { &LEAF_CLASS_PAIRS } else { &INTERNAL_CLASS_PAIRS };
        loop {
            // Advance cp (usize::MAX → 0).
            cur.cp = cur.cp.wrapping_add(1);
            if cur.cp >= class_pairs.len() {
                cur.cp = 0;
                if cur.is_leaf {
                    return false; // single pseudo-child pair only
                }
                cur.cb = self.gst.nodes[cur.cb as usize].next_sibling;
                if cur.cb == NONE {
                    cur.ca = self.gst.nodes[cur.ca as usize].next_sibling;
                    cur.cb = self.gst.nodes[cur.ca as usize].next_sibling;
                    if cur.cb == NONE {
                        return false;
                    }
                }
                // Re-enter with cp = 0 (wrapping_add above already set it).
            }
            let (c, cprime) = class_pairs[cur.cp];
            let slot_a = self.gst.nodes[cur.ca as usize].lset as usize;
            let slot_b = self.gst.nodes[cur.cb as usize].lset as usize;
            let head_a = self.gst.lset_head[slot_a][c];
            if head_a == NONE {
                continue;
            }
            if cur.is_leaf && c == LAMBDA && cprime == LAMBDA {
                // Unordered pairs within one list: need ≥ 2 elements.
                let second = self.gst.suf_next[head_a as usize];
                if second == NONE {
                    continue;
                }
                cur.pa = head_a;
                cur.pb = second;
                return true;
            }
            let head_b = self.gst.lset_head[slot_b][cprime];
            if head_b == NONE {
                continue;
            }
            cur.pa = head_a;
            cur.pb = head_b;
            return true;
        }
    }

    /// Advance `(pa, pb)` within the current combo; false when the combo
    /// is exhausted.
    fn step_elements(&mut self, cur: &mut NodeCursor) -> bool {
        let class_pairs: &[(usize, usize)] =
            if cur.is_leaf { &LEAF_CLASS_PAIRS } else { &INTERNAL_CLASS_PAIRS };
        let (c, cprime) = class_pairs[cur.cp];
        let same_list = cur.is_leaf && c == LAMBDA && cprime == LAMBDA;
        let next_b = self.gst.suf_next[cur.pb as usize];
        if next_b != NONE {
            cur.pb = next_b;
            return true;
        }
        let next_a = self.gst.suf_next[cur.pa as usize];
        if next_a == NONE {
            return false;
        }
        cur.pa = next_a;
        cur.pb = if same_list {
            self.gst.suf_next[cur.pa as usize]
        } else {
            let slot_b = self.gst.nodes[cur.cb as usize].lset as usize;
            self.gst.lset_head[slot_b][cprime]
        };
        cur.pb != NONE
    }

    /// After all pairs at a node: concatenate children lsets into the
    /// node (internal nodes only; a leaf's lsets already live on it).
    fn finalize_node(&mut self, node: u32) {
        let slot = self.gst.nodes[node as usize].lset;
        debug_assert_ne!(slot, NONE);
        let mut child = self.gst.nodes[node as usize].first_child;
        while child != NONE {
            let cslot = self.gst.nodes[child as usize].lset;
            for class in 0..NUM_CLASSES {
                self.gst.lset_concat(slot, cslot, class);
            }
            child = self.gst.nodes[child as usize].next_sibling;
        }
    }
}

impl<F: FnMut(SeqId, SeqId) -> bool> Iterator for PairGenerator<F> {
    type Item = PromisingPair;

    fn next(&mut self) -> Option<PromisingPair> {
        loop {
            if self.cursor.is_none() && !self.open_next_node() {
                return None;
            }
            let Some(mut cur) = self.cursor.take() else {
                continue; // node had no pairs; try the next one
            };
            let (pa, pb) = (cur.pa, cur.pb);
            let depth = self.gst.nodes[cur.node as usize].depth;
            let node = cur.node;
            // Advance before emitting so the cursor is always "next".
            let more = self.step_elements(&mut cur) || self.next_combo(&mut cur);
            if more {
                self.cursor = Some(cur);
            } else {
                self.finalize_node(node);
            }
            // Materialise and filter the candidate.
            let (sa, pa_pos) = (self.gst.suf_seq[pa as usize], self.gst.suf_pos[pa as usize]);
            let (sb, pb_pos) = (self.gst.suf_seq[pb as usize], self.gst.suf_pos[pb as usize]);
            self.enumerated += 1;
            if sa == sb {
                continue;
            }
            let (a, b, a_pos, b_pos) =
                if sa < sb { (sa, sb, pa_pos, pb_pos) } else { (sb, sa, pb_pos, pa_pos) };
            if (self.skip)(SeqId(a), SeqId(b)) {
                continue;
            }
            self.emitted += 1;
            return Some(PromisingPair { a: SeqId(a), b: SeqId(b), a_pos, b_pos, match_len: depth });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::brute;
    use crate::tree::{Gst, GstConfig};
    use pgasm_seq::{DnaSeq, FragmentStore};
    use std::collections::{HashMap, HashSet};

    fn store(seqs: &[&str]) -> FragmentStore {
        FragmentStore::from_seqs(seqs.iter().map(|s| DnaSeq::from(*s)))
    }

    fn generate_all(st: &FragmentStore, psi: usize, mode: GenMode) -> Vec<PromisingPair> {
        let gst = Gst::build(st, GstConfig { psi });
        PairGenerator::new(gst, mode, |_, _| false).collect()
    }

    #[test]
    fn simple_overlap_pair_found() {
        let st = store(&["TTTTACGTACGT", "ACGTACGTGGGG"]);
        let pairs = generate_all(&st, 8, GenMode::DupElim);
        assert!(!pairs.is_empty());
        assert!(pairs.iter().any(|p| p.a == SeqId(0) && p.b == SeqId(1) && p.match_len >= 8));
    }

    #[test]
    fn all_matches_mode_equals_brute_force() {
        let st = store(&["AAACGTACGTTTCCGG", "CCACGTACGTAAGGCC", "GGGGTTTTACGTACGT", "TTACGTACTTACGTAC"]);
        let psi = 5;
        let pairs = generate_all(&st, psi, GenMode::AllMatches);
        let got: HashSet<(u32, u32, u32, u32, u32)> =
            pairs.iter().map(|p| (p.a.0, p.b.0, p.a_pos, p.b_pos, p.match_len)).collect();
        assert_eq!(got.len(), pairs.len(), "AllMatches must not emit duplicates");
        let expected: HashSet<(u32, u32, u32, u32, u32)> = brute::all_maximal_matches(&st, psi)
            .iter()
            .map(|m| (m.a, m.b, m.a_pos, m.b_pos, m.len))
            .collect();
        assert_eq!(got, expected);
    }

    #[test]
    fn dup_elim_covers_all_distinct_pairs() {
        let st = store(&["AAACGTACGTTTCCGGAACCGGTT", "CCACGTACGTAAGGCCAACCGGTT", "GGGGTTTTACGTACGTAACCGGTT"]);
        let psi = 5;
        let pairs = generate_all(&st, psi, GenMode::DupElim);
        let got_pairs: HashSet<(u32, u32)> = pairs.iter().map(|p| (p.a.0, p.b.0)).collect();
        let matches = brute::all_maximal_matches(&st, psi);
        let expected: HashSet<(u32, u32)> = brute::distinct_pairs(&matches).into_iter().collect();
        assert_eq!(got_pairs, expected);
        // Generation count per pair is bounded by its distinct maximal
        // match count.
        let mut match_count: HashMap<(u32, u32), usize> = HashMap::new();
        for m in &matches {
            *match_count.entry((m.a, m.b)).or_default() += 1;
        }
        let mut gen_count: HashMap<(u32, u32), usize> = HashMap::new();
        for p in &pairs {
            *gen_count.entry((p.a.0, p.b.0)).or_default() += 1;
        }
        for (pair, &g) in &gen_count {
            assert!(g <= match_count[pair], "pair {pair:?} generated {g} > {} matches", match_count[pair]);
        }
    }

    #[test]
    fn emission_order_is_nonincreasing_match_len() {
        let st = store(&[
            "AAACGTACGTTTCCGGAACCGGTT",
            "CCACGTACGTAAGGCCAACCGGTT",
            "GGGGTTTTACGTACGTAACCGGTT",
            "ACGTACGTACGTACGTAACCGGTT",
        ]);
        for mode in [GenMode::AllMatches, GenMode::DupElim] {
            let pairs = generate_all(&st, 4, mode);
            for w in pairs.windows(2) {
                assert!(w[0].match_len >= w[1].match_len, "order violated in {mode:?}: {w:?}");
            }
        }
    }

    #[test]
    fn seed_positions_are_real_matches() {
        let st = store(&["AAACGTACGTTTCCGG", "CCACGTACGTAAGGCC"]);
        let pairs = generate_all(&st, 5, GenMode::AllMatches);
        for p in &pairs {
            let a = st.get(p.a);
            let b = st.get(p.b);
            let len = p.match_len as usize;
            assert_eq!(
                &a[p.a_pos as usize..p.a_pos as usize + len],
                &b[p.b_pos as usize..p.b_pos as usize + len],
                "seed is not an exact match: {p:?}"
            );
        }
    }

    #[test]
    fn skip_filter_applied() {
        let st = store(&["TTTTACGTACGT", "ACGTACGTGGGG"]);
        let gst = Gst::build(&st, GstConfig { psi: 8 });
        let pairs: Vec<_> = PairGenerator::new(gst, GenMode::DupElim, |_, _| true).collect();
        assert!(pairs.is_empty());
    }

    #[test]
    fn same_sequence_pairs_never_emitted() {
        // Repeated region within one sequence.
        let st = store(&["ACGTACGTAAACGTACGT", "ACGTACGTCCACGTACGT"]);
        let pairs = generate_all(&st, 6, GenMode::AllMatches);
        for p in &pairs {
            assert_ne!(p.a, p.b);
        }
    }

    #[test]
    fn batch_interface_resumes_correctly() {
        let st = store(&["AAACGTACGTTTCCGGAACCGGTT", "CCACGTACGTAAGGCCAACCGGTT", "GGGGTTTTACGTACGTAACCGGTT"]);
        let gst = Gst::build(&st, GstConfig { psi: 4 });
        let all: Vec<_> = PairGenerator::new(gst, GenMode::AllMatches, |_, _| false).collect();
        let gst2 = Gst::build(&st, GstConfig { psi: 4 });
        let mut g = PairGenerator::new(gst2, GenMode::AllMatches, |_, _| false);
        let mut batched = Vec::new();
        loop {
            let got = g.next_batch(3, &mut batched);
            if got == 0 {
                break;
            }
        }
        assert!(g.is_exhausted());
        assert_eq!(batched, all);
    }

    #[test]
    fn masked_store_generates_nothing() {
        let mut a = DnaSeq::from("ACGTACGTACGT");
        a.mask_range(0, 12);
        let st = FragmentStore::from_seqs(vec![a, DnaSeq::from("ACGTACGTACGT")]);
        let pairs = generate_all(&st, 4, GenMode::AllMatches);
        assert!(pairs.is_empty());
    }

    #[test]
    fn double_stranded_store_mirror_pairs() {
        // Fragment 1 overlaps the reverse complement of fragment 0.
        let f0 = DnaSeq::from("TTTTACGTTGCAGCAT");
        let f1 = f0.reverse_complement(); // identical overlap on opposite strand
        let st = FragmentStore::from_seqs(vec![f0, f1]).with_reverse_complements();
        let pairs = generate_all(&st, 10, GenMode::DupElim);
        // seq 0 (f0 fwd) matches seq 3 (f1 rev) fully; mirrored as (1, 2).
        assert!(pairs.iter().any(|p| (p.a.0, p.b.0) == (0, 3)), "{pairs:?}");
        assert!(pairs.iter().any(|p| (p.a.0, p.b.0) == (1, 2)), "{pairs:?}");
    }
}

//! Suffix enumeration, ψ-prefix bucketing and bucket admission.
//!
//! §6: "The first step is to sort all suffixes based on their w-length
//! prefixes … each processor partitions the suffixes of its fragments
//! into |Σ|^w buckets based on their first w characters." The paper
//! needs a small `w` because its bucket *table* is the unit of
//! distribution; here a bucket is a run of one flat `Vec<(key, Suffix)>`
//! sorted by key, so the prefix can be as long as a key holds. It is
//! `min(ψ, 31)` bases ([`GstConfig::bucket_len`](crate::GstConfig)): no
//! node shallower than ψ emits a pair, and a suffix with fewer unmasked
//! characters left in its run cannot seed a match of length ≥ ψ, so
//! shorter suffixes are dropped at enumeration time.
//!
//! A bucket is *admitted* to the tree only if it can emit a pair
//! ([`LeftClasses::can_pair`]): it holds two suffixes, and they do not
//! all follow the same real base. A bucket root has no parent, so the
//! suffixes of a rejected bucket would never meet any others; every
//! match inside it extends to the left and is generated from the bucket
//! where that extension ends.

use crate::tree::{LAMBDA, NUM_CLASSES};
use pgasm_seq::{complement_code, is_base_code, FragmentStore, SeqId, StrandKmerIter};

/// One suffix of one stored sequence, bounded by its unmasked run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Suffix {
    /// The sequence the suffix belongs to.
    pub seq: u32,
    /// Start position within the sequence.
    pub pos: u32,
    /// Remaining length: distance from `pos` to the end of the unmasked
    /// run containing it (matches cannot cross masked bases).
    pub rem: u32,
    /// lset class: the code of the preceding base, or λ
    /// ([`LAMBDA`]) at position 0 or after a masked base — no left
    /// extension is possible in either case, which is what
    /// left-maximality needs.
    pub left: u8,
}

/// The left classes seen in a set of suffixes, as far as pairing needs
/// them: none; one suffix, of class `c` (state `1 + c`); several, all
/// after the real base `c` (state `6 + c`); or enough to pair. Eleven
/// states fit four bits, so one byte holds a word's two strands.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LeftClasses(u8);

impl LeftClasses {
    const PAIR: u8 = 10;

    /// The next state per state and class: every step not listed is PAIR.
    const NEXT: [[u8; NUM_CLASSES]; 11] = {
        let mut next = [[Self::PAIR; NUM_CLASSES]; 11];
        let mut c = 0;
        while c < NUM_CLASSES {
            next[0][c] = 1 + c as u8;
            if c < LAMBDA {
                next[1 + c][c] = 6 + c as u8;
                next[6 + c][c] = 6 + c as u8;
            }
            c += 1;
        }
        next
    };

    /// Add a suffix of class `left` to the set.
    #[inline]
    pub fn add(&mut self, left: u8) {
        self.0 = Self::NEXT[self.0 as usize][left as usize];
    }

    /// Can a node over (a subset of) these suffixes emit a pair? Pairs
    /// form across two different classes or within λ (condition C4), so
    /// a single suffix, or any number that all follow the same real
    /// base, never can — in either [`GenMode`](crate::GenMode).
    #[inline]
    pub fn can_pair(self) -> bool {
        self.0 == Self::PAIR
    }
}

/// Two [`LeftClasses`] in one byte, one per half.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct TwinClasses(u8);

impl TwinClasses {
    /// The classes of half `half` (0 or 1).
    #[inline]
    pub fn get(self, half: usize) -> LeftClasses {
        LeftClasses(self.0 >> (4 * half) & 15)
    }

    /// Add a suffix of class `left` to half `half`.
    #[inline]
    pub fn add(&mut self, half: usize, left: u8) {
        let mut classes = self.get(half);
        classes.add(left);
        self.0 = self.0 & !(15 << (4 * half)) | classes.0 << (4 * half);
    }
}

/// The buckets of a key-sorted suffix array that are admitted to the
/// tree: runs of equal key that [can pair](LeftClasses::can_pair).
pub fn admitted_runs(sorted: &[(u64, Suffix)]) -> impl Iterator<Item = &[(u64, Suffix)]> + Clone {
    sorted.chunk_by(|a, b| a.0 == b.0).filter(|run| {
        let mut seen = LeftClasses::default();
        run.iter().for_each(|(_, s)| seen.add(s.left));
        seen.can_pair()
    })
}

/// Enumerate `(bucket_key, suffix)` for the given sequences of `store`:
/// every suffix position whose next `bucket_len` bases are unmasked,
/// keyed by the packed `bucket_len`-mer starting there.
pub fn enumerate_suffixes<'a>(
    store: &'a FragmentStore,
    seqs: impl IntoIterator<Item = SeqId> + 'a,
    bucket_len: usize,
) -> impl Iterator<Item = (u64, Suffix)> + 'a {
    seqs.into_iter()
        .flat_map(move |sid| Windows::new(store.get(sid), sid, None, bucket_len).map(|w| w.suffix()))
}

/// Call `f` on every window of the forward strands of `store` that
/// `keep` selects (by forward sequence id: `2i` in a double-stranded
/// store): together, their suffixes and twins are every suffix
/// [`enumerate_suffixes`] yields for those fragments, in `(seq, pos)`
/// order on the forward strand and descending position on the reverse
/// one ([`sort_walk_by_bucket`] sorts them as a fresh enumeration).
pub fn for_each_window(
    store: &FragmentStore,
    bucket_len: usize,
    mut keep: impl FnMut(SeqId) -> bool,
    mut f: impl FnMut(&Window<'_>),
) {
    let stride = if store.is_double_stranded() { 2 } else { 1 };
    for sid in (0..store.num_seqs() as u32).step_by(stride).map(SeqId).filter(|&s| keep(s)) {
        let codes = store.get(sid);
        let twin = (stride == 2).then_some(SeqId(sid.0 + 1));
        debug_assert!(twin.is_none_or(|t| store.len_of(t) == codes.len()), "strands differ in length");
        Windows::new(codes, sid, twin, bucket_len).for_each(|w| f(&w));
    }
}

/// Group the suffixes of a window walk into buckets, each in `(seq,
/// pos)` order: what [`sort_by_bucket`] makes of a fresh enumeration.
pub fn sort_walk_by_bucket(suffixes: &mut [(u64, Suffix)]) {
    suffixes.sort_unstable_by_key(|&(key, s)| (key, s.seq, s.pos));
}

/// One window of `bucket_len` unmasked bases of a stored sequence: the
/// suffix starting there and, in a double-stranded store, its *twin* —
/// the suffix of the other strand (`2i + 1` for `2i`) over the same
/// bases, at `len − pos − bucket_len`, keyed by the reverse complement.
pub struct Window<'a> {
    codes: &'a [u8],
    seq: SeqId,
    twin: Option<SeqId>,
    k: usize,
    pos: usize,
    run: (usize, usize),
    /// The suffix's bucket key: the packed word at the window.
    pub key: u64,
    twin_key: u64,
}

impl Window<'_> {
    /// The twin's bucket key, if the store has a twin.
    #[inline]
    pub fn twin_key(&self) -> Option<u64> {
        self.twin.map(|_| self.twin_key)
    }

    /// The suffix's left class: the base before the window.
    #[inline]
    pub fn left(&self) -> u8 {
        match self.codes[..self.pos].last() {
            Some(&c) if is_base_code(c) => c,
            _ => LAMBDA as u8,
        }
    }

    /// The twin's left class: the complement of the base after the
    /// window.
    #[inline]
    pub fn twin_left(&self) -> u8 {
        match self.codes.get(self.pos + self.k) {
            Some(&c) if is_base_code(c) => complement_code(c),
            _ => LAMBDA as u8,
        }
    }

    /// The suffix, bounded by the end of its run.
    #[inline]
    pub fn suffix(&self) -> (u64, Suffix) {
        let rem = (self.run.1 - self.pos) as u32;
        (self.key, Suffix { seq: self.seq.0, pos: self.pos as u32, rem, left: self.left() })
    }

    /// The twin, if any: it ends where the run starts.
    #[inline]
    pub fn twin_suffix(&self) -> Option<(u64, Suffix)> {
        let end = self.pos + self.k;
        let (pos, rem) = ((self.codes.len() - end) as u32, (end - self.run.0) as u32);
        self.twin.map(|t| (self.twin_key, Suffix { seq: t.0, pos, rem, left: self.twin_left() }))
    }
}

/// Iterator over the windows of one sequence.
struct Windows<'a> {
    codes: &'a [u8],
    seq: SeqId,
    twin: Option<SeqId>,
    k: usize,
    kmers: StrandKmerIter<'a>,
    // The unmasked run holding the last window: found when the walk
    // enters it, at the run's first window.
    run: (usize, usize),
}

impl<'a> Windows<'a> {
    fn new(codes: &'a [u8], seq: SeqId, twin: Option<SeqId>, bucket_len: usize) -> Self {
        let kmers = StrandKmerIter::new(codes, bucket_len);
        Windows { codes, seq, twin, k: bucket_len, kmers, run: (0, 0) }
    }
}

impl<'a> Iterator for Windows<'a> {
    type Item = Window<'a>;

    #[inline]
    fn next(&mut self) -> Option<Window<'a>> {
        let (pos, key, twin_key) = self.kmers.next()?;
        if pos >= self.run.1 {
            let len =
                self.codes[pos..].iter().position(|&c| !is_base_code(c)).unwrap_or(self.codes.len() - pos);
            self.run = (pos, pos + len);
        }
        let (codes, seq, twin, k, run) = (self.codes, self.seq, self.twin, self.k, self.run);
        Some(Window { codes, seq, twin, k, pos, run, key, twin_key })
    }
}

/// Group enumerated suffixes into buckets: a *stable* sort by key, so
/// the runs of equal key come out in ascending key order and each run
/// keeps its input order — `(seq, pos)` for a fresh enumeration,
/// source-rank order for suffixes received in the §6 redistribution.
/// That in-bucket order is what breaks ties between identical suffixes
/// in [`crate::Gst::build_from_sorted`].
pub fn sort_by_bucket(suffixes: &mut [(u64, Suffix)]) {
    suffixes.sort_by_key(|&(key, _)| key);
}

#[cfg(test)]
mod tests {
    use super::*;
    use pgasm_seq::DnaSeq;

    fn store(seqs: &[&str]) -> FragmentStore {
        FragmentStore::from_seqs(seqs.iter().map(|s| DnaSeq::from(*s)))
    }

    #[test]
    fn enumerates_all_long_enough_suffixes() {
        let st = store(&["ACGTACG"]);
        let sufs: Vec<_> = enumerate_suffixes(&st, [SeqId(0)], 3).collect();
        // Positions 0..=4 have ≥3 bases remaining.
        assert_eq!(sufs.len(), 5);
        assert_eq!(sufs[0].1, Suffix { seq: 0, pos: 0, rem: 7, left: LAMBDA as u8 });
        assert_eq!(sufs[4].1, Suffix { seq: 0, pos: 4, rem: 3, left: 3 });
    }

    #[test]
    fn masked_runs_bound_rem_and_reset_the_left_class() {
        let mut s = DnaSeq::from("ACGTXACGT");
        s.mask_range(4, 5);
        let st = FragmentStore::from_seqs(vec![s]);
        let sufs: Vec<_> = enumerate_suffixes(&st, [SeqId(0)], 3).collect();
        // First run [0,4): positions 0,1 (rem 4,3); second run [5,9): 5,6.
        // Position 5 follows the masked base: λ, like position 0.
        let seen: Vec<(u32, u32, u8)> = sufs.iter().map(|(_, s)| (s.pos, s.rem, s.left)).collect();
        let lambda = LAMBDA as u8;
        assert_eq!(seen, vec![(0, 4, lambda), (1, 3, 0), (5, 4, lambda), (6, 3, 0)]);
    }

    #[test]
    fn a_bucket_pairs_only_with_two_suffixes_and_two_classes_or_lambda() {
        let can_pair = |lefts: &[u8]| {
            let mut seen = LeftClasses::default();
            lefts.iter().for_each(|&l| seen.add(l));
            seen.can_pair()
        };
        let lambda = LAMBDA as u8;
        assert!(!can_pair(&[]));
        assert!(!can_pair(&[1]) && !can_pair(&[lambda]), "a single suffix pairs with nothing");
        assert!(!can_pair(&[1, 1]) && !can_pair(&[3, 3, 3, 3]), "all after the same real base");
        assert!(can_pair(&[1, 2]) && can_pair(&[1, 1, 1, 0]), "two real classes");
        assert!(can_pair(&[1, lambda]) && can_pair(&[lambda, lambda]), "λ pairs with everything");
    }

    #[test]
    fn the_four_bit_states_decide_as_the_set_of_classes_does() {
        // Every sequence of up to four classes: two suffixes or more, and
        // λ among them or two distinct real classes.
        let sequences = (0..=4u32).flat_map(|len| {
            (0..NUM_CLASSES.pow(len)).map(move |code| {
                (0..len).map(|i| (code / NUM_CLASSES.pow(i) % NUM_CLASSES) as u8).collect::<Vec<u8>>()
            })
        });
        for lefts in sequences {
            let mut state = LeftClasses::default();
            let mut twin = TwinClasses::default();
            for &l in &lefts {
                state.add(l);
                twin.add(1, l);
                assert!(state.0 < 16);
            }
            let real: std::collections::BTreeSet<u8> =
                lefts.iter().copied().filter(|&l| l < LAMBDA as u8).collect();
            let expected = lefts.len() >= 2 && (lefts.contains(&(LAMBDA as u8)) || real.len() >= 2);
            assert_eq!(state.can_pair(), expected, "{lefts:?}");
            assert_eq!(
                (twin.get(0), twin.get(1)),
                (LeftClasses::default(), state),
                "{lefts:?}: halves are apart"
            );
        }
    }

    #[test]
    fn a_window_walk_of_one_strand_yields_every_suffix_of_both() {
        // Masks, a read end inside a window's right neighbour, a read
        // shorter than the window and a reverse palindrome (ACGT).
        let mut reads = ["ACGTTGCAAGGCTTACG", "CCACGTGG", "ACG", "TTGCAAGGCAACGTTA"].map(DnaSeq::from);
        reads[0].mask_range(6, 7);
        reads[3].mask_range(0, 1);
        let ds = FragmentStore::from_seqs(reads.to_vec()).with_reverse_complements();
        for k in [1, 4, 5] {
            let mut walked = Vec::new();
            for_each_window(
                &ds,
                k,
                |_| true,
                |w| {
                    walked.push(w.suffix());
                    walked.extend(w.twin_suffix());
                    assert!(w.twin_key().is_some());
                },
            );
            sort_walk_by_bucket(&mut walked);
            let mut all: Vec<_> = enumerate_suffixes(&ds, (0..ds.num_seqs() as u32).map(SeqId), k).collect();
            sort_by_bucket(&mut all);
            assert_eq!(walked, all, "k = {k}");
        }
        // A single-stranded store's windows have no twin.
        let ss = FragmentStore::from_seqs(reads.to_vec());
        let mut walked = Vec::new();
        for_each_window(
            &ss,
            4,
            |_| true,
            |w| {
                assert_eq!((w.twin_key(), w.twin_suffix()), (None, None));
                walked.push(w.suffix());
            },
        );
        assert_eq!(walked, enumerate_suffixes(&ss, (0..4).map(SeqId), 4).collect::<Vec<_>>());
    }

    #[test]
    fn admitted_runs_are_the_runs_that_can_pair() {
        let key = |s: &str| pgasm_seq::pack_kmer(DnaSeq::from(s).codes()).unwrap();
        let admitted = |seqs: Vec<DnaSeq>| -> Vec<(u64, usize)> {
            let st = FragmentStore::from_seqs(seqs);
            let mut sufs: Vec<_> = enumerate_suffixes(&st, (0..3).map(SeqId), 4).collect();
            sort_by_bucket(&mut sufs);
            admitted_runs(&sufs).map(|run| (run[0].0, run.len())).collect()
        };
        // ACGT occurs after A, after C and at a read start; CGTT three
        // times after A; AACG, CACG and GTTA once each.
        let reads = || ["AACGTT", "CACGTT", "ACGTTA"].map(DnaSeq::from).to_vec();
        assert_eq!(admitted(reads()), vec![(key("ACGT"), 3)]);
        // Masking the A before read 1's CGTT makes that suffix λ (and
        // removes read 1's ACGT): the same three CGTT suffixes now pair.
        let mut masked = reads();
        masked[1].mask_range(1, 2);
        assert_eq!(admitted(masked), vec![(key("ACGT"), 2), (key("CGTT"), 3)]);
    }

    #[test]
    fn sort_groups_by_key_and_keeps_input_order_within_a_bucket() {
        let st = store(&["ACGTAAA", "ACGTTTT", "AAAACGT"]);
        let mut sufs: Vec<_> = enumerate_suffixes(&st, (0..3).map(SeqId), 4).collect();
        sufs.reverse(); // any input order, not just (seq, pos)
        let input = sufs.clone();
        sort_by_bucket(&mut sufs);
        assert!(sufs.windows(2).all(|p| p[0].0 <= p[1].0), "keys ascending");
        let acgt = pgasm_seq::pack_kmer(DnaSeq::from("ACGT").codes()).unwrap();
        let bucket = |v: &[(u64, Suffix)]| -> Vec<Suffix> {
            v.iter().filter(|(k, _)| *k == acgt).map(|&(_, s)| s).collect()
        };
        assert_eq!(bucket(&sufs).len(), 3);
        assert_eq!(bucket(&sufs), bucket(&input), "stable within the bucket");
    }
}

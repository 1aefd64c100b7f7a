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
//!
//! Most buckets of a sparse sample are rejected, so suffixes are judged
//! before they are sorted, and only a few more than [`admitted_runs`]
//! keeps are sorted into buckets and judged exactly. The serial build and
//! scope adoption ([`admitted_suffixes`]) judge through an
//! [`AdmissionTable`], open-addressed over the words themselves, in which
//! two buckets meet only when their 8-bit fingerprints match too. They
//! walk the store twice: the first walk folds every window into the
//! table and notes, in a small [`WordSet`], each word whose slot could
//! pair after one of its windows; the second asks the table again only
//! about the windows of those words, and passes every other window after
//! a bitmap test. A rank of the distributed build counts its own windows
//! in a [`CountRun`] instead, a sorted run of `(hash, classes)` sized by
//! what the rank holds; the builders [merge](merge_counts) the ranks'
//! runs hash by hash, and each rank keeps the hashes that can pair
//! ([`paired_hashes`]) for its second walk ([`admitted_by_verdict`]).

use crate::tree::{LAMBDA, NUM_CLASSES};
use pgasm_seq::{
    complement_code, is_base_code, mix_word, FragmentStore, SeqId, StrandKmerIter, WordMap, WordSet,
};
use std::ops::Range;

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
///
/// The state is a function of the multiset of classes alone, and the
/// states of two multisets [merge](LeftClasses::merge) into that of
/// their union: a table can be folded in parts — one per rank — and the
/// parts reduced.
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

    /// The union of two states: the first state with a multiset of the
    /// second folded in — none for empty, one `c`, two `c` for "several
    /// after `c`", two λ for PAIR. Empty is the unit and PAIR absorbs.
    const MERGE: [[u8; 11]; 11] = {
        let mut merge = [[0; 11]; 11];
        let mut a = 0;
        while a < 11 {
            let mut b = 0;
            while b < 11 {
                let (class, times) = match b {
                    0 => (0, 0),
                    1..=5 => (b - 1, 1),
                    6..=9 => (b - 6, 2),
                    _ => (LAMBDA, 2),
                };
                let mut state = a as u8;
                let mut i = 0;
                while i < times {
                    state = Self::NEXT[state as usize][class];
                    i += 1;
                }
                merge[a][b] = state;
                b += 1;
            }
            a += 1;
        }
        merge
    };

    /// Add a suffix of class `left` to the set.
    #[inline]
    pub fn add(&mut self, left: u8) {
        self.0 = Self::NEXT[self.0 as usize][left as usize];
    }

    /// The classes of the union of the two sets.
    #[inline]
    pub fn merge(self, other: LeftClasses) -> LeftClasses {
        LeftClasses(Self::MERGE[self.0 as usize][other.0 as usize])
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

/// Two [`LeftClasses`] in one byte, one per half: the state of one
/// [`AdmissionTable`] slot or [`CountRun`] entry.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TwinClasses(u8);

impl TwinClasses {
    /// The classes of half `half` (0 or 1).
    #[inline]
    pub fn get(self, half: usize) -> LeftClasses {
        LeftClasses(self.0 >> (4 * half) & 15)
    }

    /// Add a suffix of class `left` to half `half`: one load from a table
    /// of [`LeftClasses::add`] for every byte and half, since the
    /// admission's first walk folds every window.
    #[inline]
    pub fn add(&mut self, half: usize, left: u8) {
        self.0 = TWIN_ADD[self.0 as usize][half][left as usize];
    }

    /// The two halves' unions.
    #[inline]
    pub fn merge(self, other: TwinClasses) -> TwinClasses {
        TwinClasses(self.get(0).merge(other.get(0)).0 | self.get(1).merge(other.get(1)).0 << 4)
    }

    /// Bit `h` set: half `h` [can pair](LeftClasses::can_pair).
    #[inline]
    pub fn verdict(self) -> u8 {
        self.get(0).can_pair() as u8 | (self.get(1).can_pair() as u8) << 1
    }

    /// The byte this state is stored and sent as.
    #[inline]
    pub fn to_byte(self) -> u8 {
        self.0
    }

    /// The state stored as `byte`, if both of its halves are states.
    #[inline]
    pub fn from_byte(byte: u8) -> Option<TwinClasses> {
        (byte & 15 <= LeftClasses::PAIR && byte >> 4 <= LeftClasses::PAIR).then_some(TwinClasses(byte))
    }
}

/// [`TwinClasses::add`] by state byte, half and class: the byte with that
/// half stepped by [`LeftClasses::add`]. A byte whose half is not a state
/// is never stored; its entries leave it as it is.
static TWIN_ADD: [[[u8; NUM_CLASSES]; 2]; 256] = {
    let mut table = [[[0; NUM_CLASSES]; 2]; 256];
    let mut byte = 0;
    while byte < 256 {
        let mut half = 0;
        while half < 2 {
            let state = byte >> (4 * half) & 15;
            let mut c = 0;
            while c < NUM_CLASSES {
                let next = if state <= LeftClasses::PAIR as usize {
                    LeftClasses::NEXT[state][c] as usize
                } else {
                    state
                };
                table[byte][half][c] = (byte & !(15 << (4 * half)) | next << (4 * half)) as u8;
                c += 1;
            }
            half += 1;
        }
        byte += 1;
    }
    table
};

/// The window's canonical word — the smaller of its word and its twin's
/// (its own in a single-stranded store) — and the halves of that word's
/// [`TwinClasses`] its suffix and its twin take: the larger word's bucket
/// in the high half, a reverse palindrome's one bucket in the low.
#[inline]
fn canonical(w: &Window<'_>) -> (u64, usize, usize) {
    let (key, twin) = (w.key, w.twin_key().unwrap_or(w.key));
    (key.min(twin), (key > twin) as usize, (twin > key) as usize)
}

/// Bits of the hash that keys a canonical word in a [`CountRun`]. Two
/// words of one store rarely share a hash, and when they do their
/// classes merge: PAIR absorbs, so a shared hash may let a stray suffix
/// through but never holds an indexed one back. A wider hash costs wire
/// bytes, since a builder's records travel as gaps between hashes.
pub const COUNT_HASH_BITS: u32 = 40;

/// The count hash of the window's canonical word, and the halves of its
/// [`TwinClasses`] the window's suffix and its twin take.
#[inline]
fn count_hash(w: &Window<'_>) -> (u64, usize, usize) {
    let (word, half, twin_half) = canonical(w);
    (mix_word(word) >> (64 - COUNT_HASH_BITS), half, twin_half)
}

/// A rank's count in the distributed build: one entry per
/// [count hash](COUNT_HASH_BITS) of the canonical words of the rank's own
/// windows, ascending, holding the [`TwinClasses`] of every such window
/// and its twin. It costs 8 bytes per own forward window while it is
/// built and sorted in place, whatever the size of the store. The runs of
/// all ranks [merge](merge_counts) into what one run over every window
/// would hold.
pub struct CountRun {
    /// `hash << 8 | classes`, one per hash.
    entries: Vec<u64>,
    enumerated: usize,
}

impl CountRun {
    /// The run of the forward windows of `store` that `keep` selects, as
    /// [`for_each_window`] walks them.
    pub fn new(store: &FragmentStore, bucket_len: usize, keep: impl FnMut(SeqId) -> bool) -> CountRun {
        let (mut entries, mut enumerated) = (Vec::new(), 0);
        for_each_window(store, bucket_len, keep, |w| {
            let (hash, half, twin_half) = count_hash(w);
            let mut classes = TwinClasses::default();
            enumerated += fold_window(&mut classes, w, half, twin_half);
            entries.push(hash << 8 | classes.0 as u64);
        });
        entries.sort_unstable();
        entries.dedup_by(|next, kept| {
            let same = *next >> 8 == *kept >> 8;
            if same {
                *kept = *kept & !0xff | TwinClasses(*kept as u8).merge(TwinClasses(*next as u8)).0 as u64;
            }
            same
        });
        CountRun { entries, enumerated }
    }

    /// Suffixes folded into the run: the selected windows' and their
    /// twins'.
    pub fn enumerated(&self) -> usize {
        self.enumerated
    }

    /// The entries whose hash lies in `hashes`, ascending.
    pub fn entries(&self, hashes: Range<u64>) -> impl ExactSizeIterator<Item = (u64, TwinClasses)> + '_ {
        let at = |hash: u64| self.entries.partition_point(|&entry| entry >> 8 < hash);
        self.entries[at(hashes.start)..at(hashes.end)]
            .iter()
            .map(|&entry| (entry >> 8, TwinClasses(entry as u8)))
    }
}

/// A builder's merge of count parts — each ascending by hash, as
/// [`CountRun::entries`] yields them — and its answer to each part: for
/// each of the part's entries, in order, the two-bit
/// [verdict](TwinClasses::verdict) of the union of every part's classes
/// at that hash, four to a byte, low bits first. One cursor per part, so
/// no part is copied.
pub fn merge_counts<I>(parts: impl IntoIterator<Item = I>) -> Vec<Vec<u8>>
where
    I: Iterator<Item = (u64, TwinClasses)>,
{
    let mut parts: Vec<I> = parts.into_iter().collect();
    let mut heads: Vec<Option<(u64, TwinClasses)>> = parts.iter_mut().map(Iterator::next).collect();
    let mut answers: Vec<(Vec<u8>, usize)> = vec![(Vec::new(), 0); parts.len()];
    while let Some(hash) = heads.iter().flatten().map(|head| head.0).min() {
        let at_hash = heads.iter().flatten().filter(|head| head.0 == hash);
        let verdict = at_hash.fold(TwinClasses::default(), |merged, head| merged.merge(head.1)).verdict();
        for ((part, head), (bits, n)) in parts.iter_mut().zip(&mut heads).zip(&mut answers) {
            if head.is_some_and(|head| head.0 == hash) {
                if *n % 4 == 0 {
                    bits.push(0);
                }
                *bits.last_mut().expect("pushed above") |= verdict << (2 * (*n % 4));
                *n += 1;
                *head = part.next();
            }
        }
    }
    answers.into_iter().map(|(bits, _)| bits).collect()
}

/// The hashes of a part's `entries` whose verdict in `answer`, the
/// builder's answer to that part ([`merge_counts`]), is nonzero, with
/// that verdict.
pub fn paired_hashes<'a>(
    entries: impl Iterator<Item = (u64, TwinClasses)> + 'a,
    answer: &'a [u8],
) -> impl Iterator<Item = (u64, u8)> + 'a {
    let verdicts = answer.iter().flat_map(|&byte| (0..4).map(move |n| byte >> (2 * n) & 3));
    entries.zip(verdicts).filter(|&(_, verdict)| verdict != 0).map(|((hash, _), verdict)| (hash, verdict))
}

/// The window's suffix and its twin, each if its half's bit is set in the
/// verdict `paired` holds for the window's count hash (none if it holds
/// none): the distributed build's second walk.
#[inline]
pub fn admitted_by_verdict(w: &Window<'_>, paired: &WordMap<u8>) -> impl Iterator<Item = (u64, Suffix)> {
    let (hash, half, twin_half) = count_hash(w);
    admit_window(paired.get(&hash).copied().unwrap_or(0), w, half, twin_half)
}

/// The serial admission table: open-addressed over words, one `u16` per
/// slot — an 8-bit fingerprint of the word's [`mix_word`] hash above the
/// [`TwinClasses`] byte of its buckets, a zero byte marking the slot
/// empty. A word probes linearly from the slot named by its hash's top
/// bits until it meets its own fingerprint, or an empty slot, which it
/// claims. Nothing is ever removed and a fingerprint never changes, so a
/// word always resolves to the same slot; two distinct words share one
/// only when their fingerprints match, and the slot then holds the union
/// of their buckets. PAIR absorbs, so the filter is one-sided: no suffix
/// of a bucket that can pair is dropped.
///
/// A table has ≥ 2 slots per forward window of its store, so it is at
/// most half full and every probe ends. [`admitted_suffixes`] — the
/// serial build's and scope adoption's admission — folds every forward
/// window into it ([`add`](Self::add): a suffix and its twin share the
/// slot of their canonical word) and then takes the
/// [`admitted`](Self::admitted) suffixes of the windows whose word `add`
/// said could pair.
pub struct AdmissionTable {
    slots: Vec<u16>,
    /// 64 − log2(home slots): a hash shifted by it is its word's home.
    shift: u32,
}

impl AdmissionTable {
    /// An empty table for the windows of `store`: ≥ 2 slots per forward
    /// window.
    pub fn for_windows(store: &FragmentStore) -> AdmissionTable {
        AdmissionTable::with_words(forward_len(store))
    }

    /// An empty table for at most `words` distinct words.
    fn with_words(words: usize) -> AdmissionTable {
        let bits = (2 * words).next_power_of_two().trailing_zeros().max(1);
        AdmissionTable { slots: vec![0; 1 << bits], shift: 64 - bits }
    }

    /// The slot `word` resolves to — its own, or the empty slot that
    /// ends its probe — and its fingerprint, shifted into place.
    #[inline]
    fn probe(&self, word: u64) -> (usize, u16) {
        let hash = mix_word(word);
        let fingerprint = (hash as u16) << 8;
        let mask = self.slots.len() - 1;
        let mut i = (hash >> self.shift) as usize;
        while self.slots[i] as u8 != 0 && self.slots[i] & 0xff00 != fingerprint {
            i = (i + 1) & mask;
        }
        (i, fingerprint)
    }

    /// Fold the window's suffix and its twin into their word's slot, and
    /// say whether either half of the slot can pair after the fold. PAIR
    /// absorbs, so a word whose bucket can pair gets `true` at least at
    /// its last window, even if the slot was PAIR already — through
    /// another word with its fingerprint — and no fold turned it.
    #[inline]
    pub fn add(&mut self, w: &Window<'_>) -> bool {
        let (word, half, twin_half) = canonical(w);
        let (i, fingerprint) = self.probe(word);
        let mut classes = TwinClasses(self.slots[i] as u8);
        fold_window(&mut classes, w, half, twin_half);
        self.slots[i] = fingerprint | classes.0 as u16;
        classes.verdict() != 0
    }

    /// The window's suffix and its twin, each if its half of their word's
    /// slot can pair.
    #[inline]
    pub fn admitted(&self, w: &Window<'_>) -> impl Iterator<Item = (u64, Suffix)> {
        let (word, half, twin_half) = canonical(w);
        let classes = TwinClasses(self.slots[self.probe(word).0] as u8);
        admit_window(classes.verdict(), w, half, twin_half)
    }
}

/// The local admission of the buckets `keep` selects by key, in two
/// walks over the forward windows of `store`. The first folds every
/// window into an [`AdmissionTable`] and notes the canonical word of each
/// window after whose fold its slot can pair. The second collects,
/// grouped by [`sort_walk_by_bucket`], the selected suffixes of the noted
/// words' windows whose half of their word's slot can pair — few more
/// than are indexed — and passes every other window after a bitmap test.
/// A word whose bucket can pair is always noted ([`AdmissionTable::add`]),
/// so the filter stays one-sided; a window passed over belongs to a
/// bucket that cannot pair. Also returns how many suffixes the selected
/// buckets hold.
pub fn admitted_suffixes(
    store: &FragmentStore,
    bucket_len: usize,
    keep: impl Fn(u64) -> bool,
) -> (Vec<(u64, Suffix)>, usize) {
    let mut table = AdmissionTable::for_windows(store);
    let (mut admitted, enumerated, _) = admit_through(&mut table, store, bucket_len, keep);
    drop(table);
    sort_walk_by_bucket(&mut admitted);
    (admitted, enumerated)
}

/// The two walks of [`admitted_suffixes`] through `table`, an empty one:
/// the selected suffixes it lets through, in walk order; how many the
/// selected buckets hold; and how many words the first walk noted.
pub(crate) fn admit_through(
    table: &mut AdmissionTable,
    store: &FragmentStore,
    bucket_len: usize,
    keep: impl Fn(u64) -> bool,
) -> (Vec<(u64, Suffix)>, usize, usize) {
    let mut paired = WordSet::default();
    for_each_window(
        store,
        bucket_len,
        |_| true,
        |w| {
            if table.add(w) {
                paired.insert(canonical(w).0);
            }
        },
    );
    let (mut admitted, mut enumerated) = (Vec::new(), 0);
    for_each_window(
        store,
        bucket_len,
        |_| true,
        |w| {
            enumerated += [Some(w.key), w.twin_key()].into_iter().flatten().filter(|&key| keep(key)).count();
            if paired.contains(&canonical(w).0) {
                admitted.extend(table.admitted(w).filter(|&(key, _)| keep(key)));
            }
        },
    );
    (admitted, enumerated, paired.len())
}

/// Forward bases of `store`: a bound on its distinct canonical words.
fn forward_len(store: &FragmentStore) -> usize {
    store.total_len() >> store.is_double_stranded() as u32
}

/// Fold the window's suffix into half `half` of `classes` and its twin,
/// if any, into half `twin_half`; the number of suffixes folded.
#[inline]
fn fold_window(classes: &mut TwinClasses, w: &Window<'_>, half: usize, twin_half: usize) -> usize {
    classes.add(half, w.left());
    if w.twin_key().is_some() {
        classes.add(twin_half, w.twin_left());
        return 2;
    }
    1
}

/// The window's suffix and its twin, each if its half's bit of
/// `verdict` ([`TwinClasses::verdict`]) is set.
#[inline]
fn admit_window(
    verdict: u8,
    w: &Window<'_>,
    half: usize,
    twin_half: usize,
) -> impl Iterator<Item = (u64, Suffix)> {
    let suffix = (verdict >> half & 1 == 1).then(|| w.suffix());
    let twin = if verdict >> twin_half & 1 == 1 { w.twin_suffix() } else { None };
    suffix.into_iter().chain(twin)
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

    /// Every state, by a multiset that folds to it.
    fn every_state() -> Vec<LeftClasses> {
        let states: Vec<LeftClasses> = (0..11).map(LeftClasses).collect();
        let lambda = LAMBDA as u8;
        let fold = |lefts: &[u8]| {
            let mut state = LeftClasses::default();
            lefts.iter().for_each(|&l| state.add(l));
            state
        };
        let mut folded = vec![fold(&[])];
        folded.extend((0..=lambda).map(|c| fold(&[c])));
        folded.extend((0..lambda).map(|c| fold(&[c, c])));
        folded.push(fold(&[0, 1]));
        assert_eq!(folded, states, "state numbering");
        states
    }

    #[test]
    fn merge_is_commutative_and_associative_with_empty_its_unit_and_pair_absorbing() {
        let states = every_state();
        let (empty, pair) = (LeftClasses::default(), LeftClasses(LeftClasses::PAIR));
        for &a in &states {
            assert_eq!((a.merge(empty), empty.merge(a)), (a, a), "{a:?}: empty is the unit");
            assert_eq!((a.merge(pair), pair.merge(a)), (pair, pair), "{a:?}: PAIR absorbs");
            for &b in &states {
                assert_eq!(a.merge(b), b.merge(a), "{a:?} {b:?}");
                for &c in &states {
                    assert_eq!(a.merge(b).merge(c), a.merge(b.merge(c)), "{a:?} {b:?} {c:?}");
                }
            }
        }
        // Not an OR: one λ meets one λ in PAIR, one after A meets one
        // after A in "several after A".
        assert_eq!(LeftClasses(5).merge(LeftClasses(5)), pair);
        assert_eq!(LeftClasses(1).merge(LeftClasses(1)), LeftClasses(6));
    }

    #[test]
    fn a_verdict_is_the_halves_can_pair_bits_and_survives_the_byte() {
        for byte in 0..=255u8 {
            let Some(classes) = TwinClasses::from_byte(byte) else {
                assert!(byte & 15 > 10 || byte >> 4 > 10, "{byte:#x} rejected");
                continue;
            };
            assert_eq!(classes.to_byte(), byte);
            let verdict = classes.verdict();
            assert_eq!(verdict, classes.get(0).can_pair() as u8 | (classes.get(1).can_pair() as u8) << 1);
            // Adding to one half steps it as a lone state would, and only it.
            for (half, left) in (0..2).flat_map(|half| (0..=LAMBDA as u8).map(move |left| (half, left))) {
                let (mut twin, mut stepped) = (classes, classes.get(half));
                twin.add(half, left);
                stepped.add(left);
                assert_eq!(
                    (twin.get(half), twin.get(1 - half)),
                    (stepped, classes.get(1 - half)),
                    "{byte:#x}"
                );
            }
        }
    }

    proptest::proptest! {
        /// Folding two multisets apart and merging the states is folding
        /// their union, for one set of classes and for a slot's two.
        #[test]
        fn merging_two_folds_is_folding_the_union(
            a in proptest::collection::vec((0..2usize, 0..=LAMBDA as u8), 0..8),
            b in proptest::collection::vec((0..2usize, 0..=LAMBDA as u8), 0..8),
        ) {
            let fold = |sets: &[&[(usize, u8)]]| {
                let (mut one, mut two) = (LeftClasses::default(), TwinClasses::default());
                for &(half, left) in sets.iter().copied().flatten() {
                    one.add(left);
                    two.add(half, left);
                }
                (one, two)
            };
            let ((one_a, two_a), (one_b, two_b)) = (fold(&[&a]), fold(&[&b]));
            let (one_ab, two_ab) = fold(&[&a, &b]);
            proptest::prop_assert_eq!(one_a.merge(one_b), one_ab);
            proptest::prop_assert_eq!(two_a.merge(two_b), two_ab);
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

    /// A pseudo-random base code per step of a 64-bit LCG.
    fn random_codes(state: &mut u64, len: usize) -> Vec<u8> {
        (0..len)
            .map(|_| {
                *state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                (*state >> 33) as u8 % 4
            })
            .collect()
    }

    /// The admitted buckets of `suffixes`, grouped by the stable sort.
    fn admitted(mut suffixes: Vec<(u64, Suffix)>) -> Vec<Vec<(u64, Suffix)>> {
        sort_by_bucket(&mut suffixes);
        admitted_runs(&suffixes).map(<[_]>::to_vec).collect()
    }

    impl AdmissionTable {
        /// A table crowded on purpose: every word's home among the first
        /// `2^home_bits` slots (at most all of them). Probe chains run
        /// long, and once 256 words have claimed a fingerprint each, a
        /// word's chain meets its fingerprint before an empty slot: every
        /// further word merges with another.
        fn crowded(words: usize, home_bits: u32) -> AdmissionTable {
            let table = AdmissionTable::with_words(words);
            AdmissionTable { shift: table.shift.max(64 - home_bits), ..table }
        }

        /// Slots holding a word.
        fn occupied(&self) -> usize {
            self.slots.iter().filter(|&&slot| slot as u8 != 0).count()
        }
    }

    /// The tables a test folds into: the real one, and crowded ones that
    /// force long probe chains and fingerprint merges.
    fn tables(words: usize) -> Vec<AdmissionTable> {
        vec![
            AdmissionTable::with_words(words),
            AdmissionTable::crowded(words, 1),
            AdmissionTable::crowded(words, 4),
        ]
    }

    /// The admitted runs of what the two walks of [`admitted_suffixes`]
    /// let through `table`, sorted as the build sorts them; how many
    /// suffixes the selected buckets hold; and how many words were noted.
    fn admitted_through(
        table: &mut AdmissionTable,
        store: &FragmentStore,
        k: usize,
        keep: impl Fn(u64) -> bool,
    ) -> (Vec<Vec<(u64, Suffix)>>, usize, usize) {
        let (mut walked, enumerated, noted) = admit_through(table, store, k, keep);
        sort_walk_by_bucket(&mut walked);
        (admitted_runs(&walked).map(<[_]>::to_vec).collect(), enumerated, noted)
    }

    /// Reads with planted copies and masked bases, both strands.
    fn planted_store(
        state: &mut u64,
        lens: &[usize],
        copies: Vec<(proptest::sample::Index, usize, usize)>,
        masks: Vec<(proptest::sample::Index, usize, usize)>,
    ) -> FragmentStore {
        let mut reads: Vec<Vec<u8>> = lens.iter().map(|&len| random_codes(state, len)).collect();
        for (src, at, len) in copies {
            let src = &reads[src.index(reads.len())];
            let at = at.min(src.len() - 1);
            let copy = src[at..(at + len).min(src.len())].to_vec();
            reads.push(copy);
        }
        let mut seqs: Vec<DnaSeq> = reads.into_iter().map(DnaSeq::from_codes).collect();
        for (i, at, len) in masks {
            let seq = &mut seqs[i.index(lens.len())];
            let at = at.min(seq.len() - 1);
            seq.mask_range(at, (at + len).min(seq.len()));
        }
        FragmentStore::from_seqs(seqs).with_reverse_complements()
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(128))]

        /// The admission table drops no suffix of an admitted bucket,
        /// however crowded it is. Through the two walks of the serial
        /// admission over reads with planted copies and masked bases, what
        /// it admits, sorted as a walk, has the admitted runs of every
        /// suffix of both strands, member for member and in order — of the
        /// buckets a key predicate selects, if it is given one. Counted in
        /// 1–4 runs, one per part of the forward sequences, and merged as
        /// a builder merges them, the halves with a set verdict hold
        /// exactly the suffixes of those admitted runs.
        #[test]
        fn the_admission_table_keeps_every_admitted_bucket_in_order(
            seed in proptest::any::<u64>(),
            lens in proptest::collection::vec(1usize..80, 1..12),
            copies in proptest::collection::vec(
                (proptest::any::<proptest::sample::Index>(), 0usize..80, 3usize..40), 0..6),
            masks in proptest::collection::vec(
                (proptest::any::<proptest::sample::Index>(), 0usize..80, 1usize..4), 0..4),
            k in 2usize..=10,
            parts in 1usize..=4,
        ) {
            let mut state = seed | 1;
            let store = planted_store(&mut state, &lens, copies, masks);
            let all: Vec<_> = enumerate_suffixes(&store, (0..store.num_seqs() as u32).map(SeqId), k).collect();
            let expected = admitted(all.clone());
            let even = |key: u64| key.is_multiple_of(2);
            let selected = admitted(all.iter().copied().filter(|&(key, _)| even(key)).collect());
            for mut table in tables(forward_len(&store)) {
                let (runs, enumerated, _) = admitted_through(&mut table, &store, k, |_| true);
                proptest::prop_assert_eq!(&runs, &expected, "window mode");
                proptest::prop_assert_eq!(enumerated, all.len());
            }
            for mut table in tables(forward_len(&store)) {
                let (runs, enumerated, _) = admitted_through(&mut table, &store, k, even);
                proptest::prop_assert_eq!(&runs, &selected, "selected buckets");
                proptest::prop_assert_eq!(enumerated, all.iter().filter(|&&(key, _)| even(key)).count());
            }
            let (walked, enumerated) = admitted_suffixes(&store, k, |_| true);
            let runs: Vec<Vec<_>> = admitted_runs(&walked).map(<[_]>::to_vec).collect();
            proptest::prop_assert_eq!(&runs, &expected, "the serial admission");
            proptest::prop_assert_eq!(enumerated, all.len());
            let part_of = |s: SeqId| (s.0 / 2) as usize % parts;
            let runs: Vec<CountRun> =
                (0..parts).map(|part| CountRun::new(&store, k, |s| part_of(s) == part)).collect();
            let every_hash = 0..1 << COUNT_HASH_BITS;
            let answers = merge_counts(runs.iter().map(|run| run.entries(every_hash.clone())));
            let mut by_verdict = Vec::new();
            for (part, (run, answer)) in runs.iter().zip(&answers).enumerate() {
                let paired: WordMap<u8> = paired_hashes(run.entries(every_hash.clone()), answer).collect();
                let admit = |w: &Window<'_>| by_verdict.extend(admitted_by_verdict(w, &paired));
                for_each_window(&store, k, |s| part_of(s) == part, admit);
            }
            sort_walk_by_bucket(&mut by_verdict);
            proptest::prop_assert_eq!(by_verdict, expected.concat(), "count runs");
            proptest::prop_assert_eq!(runs.iter().map(CountRun::enumerated).sum::<usize>(), all.len());
        }
    }

    #[test]
    fn crowded_tables_merge_words_yet_keep_every_admitted_suffix() {
        // 40 random reads of 60 bases, each stored twice: ≈ 2 000
        // canonical words, whose buckets pair only at a read start. In a
        // crowded table every word's home is among the first 2 or 16
        // slots, so chains run long, and once the chain holds all 256
        // fingerprints each further word merges with another. Merged or
        // not, no suffix of a bucket that can pair is dropped.
        let mut state = 3;
        let reads: Vec<DnaSeq> = (0..40).map(|_| DnaSeq::from_codes(random_codes(&mut state, 60))).collect();
        let store = FragmentStore::from_seqs(reads.iter().chain(&reads).cloned()).with_reverse_complements();
        let k = 8;
        let all: Vec<_> = enumerate_suffixes(&store, (0..store.num_seqs() as u32).map(SeqId), k).collect();
        let expected = admitted(all.clone());
        let words = {
            let mut words: Vec<u64> = Vec::new();
            for_each_window(&store, k, |_| true, |w| words.push(w.key.min(w.twin_key().unwrap())));
            words.sort_unstable();
            words.dedup();
            words.len()
        };
        for (i, mut table) in tables(forward_len(&store)).into_iter().enumerate() {
            let (runs, _, _) = admitted_through(&mut table, &store, k, |_| true);
            let occupied = table.occupied();
            assert!(i == 0 || 2 * occupied < words, "crowded table {i}: {occupied} slots hold {words} words");
            assert_eq!(runs, expected, "table {i}");
        }
    }

    #[test]
    fn a_word_that_meets_a_paired_slot_is_noted_though_its_fold_turns_nothing() {
        // Words A and B share a home and a fingerprint, so in both crowded
        // tables they meet in one slot. B's two windows, after C and after
        // G, make both halves of the slot PAIR; A's bucket can pair only
        // from its second window on, whose fold finds both halves PAIR
        // already. A recorder that noted a word only when its fold turned
        // a half to PAIR would skip A's windows, and A's bucket with them.
        let k = 8;
        let packed = |seq: &DnaSeq| pgasm_seq::pack_kmer(seq.codes()).unwrap();
        let mark = |word: u64| {
            let hash = mix_word(word);
            (hash >> 60, hash as u8)
        };
        let mut state = 5;
        let mut seen: Vec<DnaSeq> = Vec::new();
        let (a, b) = loop {
            let word = DnaSeq::from_codes(random_codes(&mut state, k));
            if packed(&word) >= packed(&word.reverse_complement()) {
                continue; // the forward word is the canonical one: half 0
            }
            if let Some(b) = seen.iter().find(|b| mark(packed(b)) == mark(packed(&word)) && **b != word) {
                break (word, b.clone());
            }
            seen.push(word);
        };
        let read = |left: &str, word: &DnaSeq| {
            let mut codes = DnaSeq::from(left).codes().to_vec();
            codes.extend_from_slice(word.codes());
            DnaSeq::from_codes(codes)
        };
        let reads = vec![read("C", &b), read("G", &b), read("C", &a), read("G", &a)];
        let store = FragmentStore::from_seqs(reads).with_reverse_complements();
        let all: Vec<_> = enumerate_suffixes(&store, (0..store.num_seqs() as u32).map(SeqId), k).collect();
        let expected = admitted(all);
        let bucket_a: Vec<_> = expected.iter().filter(|run| run[0].0 == packed(&a)).collect();
        assert_eq!(bucket_a.iter().map(|run| run.len()).collect::<Vec<_>>(), [2], "A's bucket can pair");
        for (i, mut table) in tables(forward_len(&store)).into_iter().enumerate() {
            let (runs, _, _) = admitted_through(&mut table, &store, k, |_| true);
            let shared = table.probe(packed(&a)).0 == table.probe(packed(&b)).0;
            assert!(i == 0 || shared, "crowded table {i}: A and B in one slot");
            assert_eq!(runs, expected, "table {i}");
        }
    }

    #[test]
    fn the_admission_table_keeps_few_more_than_the_indexed_suffixes() {
        // A sparse sample: 300 reads of 400 bp, 6 from each of 50 random
        // 3 kb genomes, some reverse-complemented. Reads of one genome
        // overlap now and then; nearly every other suffix is alone in its
        // bucket. The admission table lets through only those whose word
        // meets another word's fingerprint on its probe.
        let mut state = 7;
        let mut reads = Vec::new();
        for _ in 0..50 {
            let genome = random_codes(&mut state, 3_000);
            for _ in 0..6 {
                let at = random_codes(&mut state, 2).iter().fold(0, |a, &c| a * 4 + c as usize) * 160;
                let read = DnaSeq::from_codes(genome[at..at + 400].to_vec());
                reads.push(if at % 320 == 0 { read.reverse_complement() } else { read });
            }
        }
        let store = FragmentStore::from_seqs(reads).with_reverse_complements();
        let k = 20;
        let (survivors, _, noted) =
            admit_through(&mut AdmissionTable::for_windows(&store), &store, k, |_| true);
        let admitted_count = survivors.len();
        let indexed: usize = admitted(survivors).iter().map(Vec::len).sum();
        assert!(indexed > 0, "the fixture must overlap somewhere");
        assert!(
            admitted_count <= 4 * indexed,
            "the admission table passes {admitted_count} for {indexed} indexed"
        );
        // The second walk asks the table only about the noted words: few,
        // so it stays cheap and the set small.
        let mut words = Vec::new();
        for_each_window(&store, k, |_| true, |w| words.push(canonical(w).0));
        words.sort_unstable();
        words.dedup();
        assert!(50 * noted <= words.len(), "{noted} of {} words noted", words.len());
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

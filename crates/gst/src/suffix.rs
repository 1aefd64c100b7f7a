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
//! before they are sorted. The serial build and scope adoption
//! ([`admitted_suffixes`]) count by *minimizer bins* (§6's bucketing by a
//! short prefix, here by the least canonical 12-mer of a window, so that
//! every bin is independent work). One walk cuts each unmasked run of
//! each forward sequence into *super-k-mers* — maximal runs of
//! consecutive windows that select one minimizer occurrence — and files
//! each as a 12-byte record under the minimizer's bin. A word and its
//! reverse complement have one multiset of canonical m-mers, so every
//! window of a canonical word, on either strand, lands in one bin. A bin
//! of one record holds two windows of one word only as mirror images
//! across a reverse palindrome: two windows that select one m-mer
//! occurrence and hold one word in the same orientation are the same
//! window. The walk flags a record holding a palindrome's centre — a
//! window that is its own reverse complement, or that of the window
//! before, found by its middle m-mer, which then is its own reverse
//! complement too — so a bin of one unflagged record cannot pair and is
//! skipped without reading its bases again; every other bin is counted
//! exactly. The walk and the count run on the stage's threads.
//!
//! A rank of the distributed build counts its own windows in a
//! [`CountRun`] instead, a sorted run of `(hash, classes)` sized by what
//! the rank holds; the builders [merge](merge_counts) the ranks' runs hash
//! by hash, and each rank keeps the hashes that can pair
//! ([`paired_hashes`]) for its second walk ([`admitted_by_verdict`]).

use crate::tree::{LAMBDA, NUM_CLASSES};
use pgasm_seq::{complement_code, is_base_code, mix_word, FragmentStore, SeqId, StrandKmerIter, WordMap};
use pgasm_telemetry::fan_out;
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
/// canonical word in the admission's count or a [`CountRun`] entry.
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

/// The window's canonical word and halves ([`canonical_of`]).
#[inline]
fn canonical(w: &Window<'_>) -> (u64, usize, usize) {
    canonical_of(w.key, w.twin_key().unwrap_or(w.key))
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

/// Length of a minimizer: a window's bin is its least canonical m-mer,
/// `m = min(MINIMIZER_LEN, k)`.
const MINIMIZER_LEN: usize = 12;

/// The odd multiplier that orders canonical m-mers, by the top 59 bits of
/// the product (the low five carry a window offset while the walk looks
/// for the leftmost least). The order need only be a function of the
/// canonical m-mer: a word and its reverse complement hold one multiset
/// of canonical m-mers, so they select one least order, hence one bin.
const MINIMIZER_ORDER: u64 = 0x9E37_79B9_7F4A_7C15;

/// Bits of a bin: the top bits of its minimizer's order.
const BIN_BITS: u32 = 24;

/// One super-k-mer: `len ≤ 20` consecutive windows of one unmasked run of
/// forward sequence `seq`, the first at `pos`, that select one minimizer
/// occurrence. Twelve bytes: `head` holds the bin above a flag bit above
/// `len − 1`. The flag marks a record that may hold two windows of one
/// canonical word.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Record {
    head: u32,
    seq: u32,
    pos: u32,
}

impl Record {
    const FLAG: u32 = 1 << 7;

    #[inline]
    fn bin(self) -> u32 {
        self.head >> 8
    }

    #[inline]
    fn flagged(self) -> bool {
        self.head & Record::FLAG != 0
    }

    #[inline]
    fn windows(self) -> usize {
        (self.head & 0x7f) as usize + 1
    }
}

/// One thread's walk: its records grouped by partition, where each
/// partition's group ends, the unmasked runs of its sequences that hold a
/// masked base as `(seq, start, end)`, and how many selected suffixes its
/// windows hold.
struct Walk {
    records: Vec<Record>,
    ends: Vec<usize>,
    runs: Vec<(u32, u32, u32)>,
    enumerated: usize,
}

impl Walk {
    /// The records of partition `part`.
    fn part(&self, part: usize) -> &[Record] {
        &self.records[part.checked_sub(1).map_or(0, |p| self.ends[p])..self.ends[part]]
    }
}

/// The geometry of the minimizer bins over one store.
#[derive(Clone, Copy)]
struct Bins {
    k: usize,
    m: usize,
    double: bool,
    /// Bits of the partition number: the low bits of a record's bin. A
    /// minimizer is the least of its window's orders, so the top bits of
    /// a bin lean towards zero; bits far below them do not.
    part_bits: u32,
}

impl Bins {
    /// The bins for windows of `k` bases over `store`: about 2 048
    /// forward bases per partition, so that a partition's tables stay in
    /// cache.
    fn new(store: &FragmentStore, k: usize) -> Bins {
        let double = store.is_double_stranded();
        let forward = store.total_len() >> double as u32;
        let part_bits = (forward / 2048).max(1).next_power_of_two().trailing_zeros().min(14);
        Bins { k, m: k.min(MINIMIZER_LEN), double, part_bits }
    }

    #[inline]
    fn partition(self, r: Record) -> usize {
        (r.bin() & ((1 << self.part_bits) - 1)) as usize
    }

    /// Records of the forward sequences `seqs` (indices among the
    /// forward strands), grouped by partition in place.
    fn walk(self, store: &FragmentStore, seqs: Range<usize>, keep: &impl Fn(u64) -> bool) -> Walk {
        let stride = 1 + self.double as usize;
        // A record holds (w + 1) / 2 windows on random sequence: room for
        // a tenth more than that up front, one allocation.
        let bases: usize = seqs.clone().map(|i| store.len_of(SeqId((i * stride) as u32))).sum();
        let records = Vec::with_capacity(bases * 11 / (5 * (self.k - self.m + 2)));
        let mut walk = Walk { records, ends: Vec::new(), runs: Vec::new(), enumerated: 0 };
        for seq in seqs.map(|i| (i * stride) as u32) {
            let codes = store.get(SeqId(seq));
            let mut at = 0;
            while at < codes.len() {
                let start =
                    at + codes[at..].iter().position(|&c| is_base_code(c)).unwrap_or(codes.len() - at);
                let end = start
                    + codes[start..].iter().position(|&c| !is_base_code(c)).unwrap_or(codes.len() - start);
                if end - start >= self.k {
                    if end - start < codes.len() {
                        walk.runs.push((seq, start as u32, end as u32));
                    }
                    self.walk_run(&codes[start..end], seq, start, keep, &mut walk);
                }
                at = end;
            }
        }
        walk.ends = group_in_place(&mut walk.records, 1 << self.part_bits, |r| self.partition(r));
        walk
    }

    /// Cut the windows of one unmasked run of forward sequence `seq`,
    /// `bases`, starting at `offset`, into records. A window's minimizer is
    /// the leftmost of its least m-mers by [`MINIMIZER_ORDER`], kept as a
    /// sliding minimum over a ring of the last 32 m-mers' orders, and a
    /// record ends where that occurrence changes. It is flagged if the
    /// m-mer `⌊(w − 1)/2⌋` into one of its windows is its own reverse
    /// complement: the centre of every window that is its own reverse
    /// complement, and of every window pair each the other's, is such an
    /// m-mer (m is even wherever w > 1).
    fn walk_run(self, bases: &[u8], seq: u32, offset: usize, keep: &impl Fn(u64) -> bool, walk: &mut Walk) {
        let Bins { k, m, double, .. } = self;
        let (kmask, mmask, w) = ((1u64 << (2 * k)) - 1, (1u64 << (2 * m)) - 1, k - m + 1);
        let (mut key, mut twin, mut fwd, mut rev) = (0u64, 0u64, 0u64, 0u64);
        // The orders of the last 32 m-mers, and which of them are their own
        // reverse complement.
        let (mut orders, mut palindromes) = ([0u64; 32], 0u32);
        let mut roll = |c: u8| {
            let c = c as u64;
            key = (key << 2 | c) & kmask;
            twin = twin >> 2 | (3 - c) << (2 * k - 2);
            fwd = (fwd << 2 | c) & mmask;
            rev = rev >> 2 | (3 - c) << (2 * m - 2);
            (key, twin, fwd.min(rev).wrapping_mul(MINIMIZER_ORDER) & !31, fwd == rev)
        };
        let note =
            |orders: &mut [u64; 32], palindromes: &mut u32, q: usize, (order, palindrome): (u64, bool)| {
                orders[q % 32] = order;
                *palindromes = *palindromes & !(1 << (q % 32)) | (palindrome as u32) << (q % 32);
            };
        for (i, &c) in bases[..k - 1].iter().enumerate() {
            let (_, _, order, palindrome) = roll(c);
            if i + 1 >= m {
                note(&mut orders, &mut palindromes, i + 1 - m, (order, palindrome));
            }
        }
        let (mut least, mut at_least) = (u64::MAX, 0);
        // The open record and the minimizer occurrence its windows select.
        let (mut open, mut open_at) = (Record { head: 0, seq, pos: 0 }, usize::MAX);
        let mut enumerated = 0;
        for (t, &c) in bases[k - 1..].iter().enumerate() {
            let (key, twin, order, palindrome) = roll(c);
            let q = t + w - 1;
            note(&mut orders, &mut palindromes, q, (order, palindrome));
            if t == 0 || at_least < t {
                let best = (t..=q).map(|p| orders[p % 32] | (p - t) as u64).min().unwrap_or(u64::MAX);
                (least, at_least) = (best & !31, t + (best & 31) as usize);
            } else if order < least {
                (least, at_least) = (order, q);
            }
            enumerated += keep(key) as usize + (double && keep(twin)) as usize;
            let centre = palindromes >> ((t + (w - 1) / 2) % 32) & 1;
            let flag = if double && centre == 1 { Record::FLAG } else { 0 };
            if at_least == open_at {
                open.head = (open.head + 1) | flag;
            } else {
                if open_at != usize::MAX {
                    walk.records.push(open);
                }
                let bin = (least >> (64 - BIN_BITS)) as u32;
                (open, open_at) = (Record { head: bin << 8 | flag, seq, pos: (offset + t) as u32 }, at_least);
            }
        }
        walk.records.push(open);
        walk.enumerated += enumerated;
    }

    /// The admitted suffixes of the partitions `parts`, over the records
    /// of every walk.
    fn count(
        self,
        store: &FragmentStore,
        walks: &[Walk],
        runs: &[(u32, u32, u32)],
        parts: Range<usize>,
        keep: &impl Fn(u64) -> bool,
    ) -> Vec<(u64, Suffix)> {
        let (mut tables, mut admitted) = (Tables::new(), Vec::new());
        for part in parts {
            let records = || walks.iter().flat_map(move |walk| walk.part(part));
            tables.count(self, store, records, runs, keep, &mut admitted);
        }
        admitted
    }
}

/// An open-addressed table probed linearly from the top bits of a key's
/// hash, reset for each partition. Keys and values lie apart, so a probe
/// reads keys only.
struct Table<K, V> {
    keys: Vec<K>,
    values: Vec<V>,
    bits: u32,
    empty: K,
}

impl<K: Copy + Eq, V: Copy + Default> Table<K, V> {
    fn new(empty: K) -> Self {
        Table { keys: Vec::new(), values: Vec::new(), bits: 1, empty }
    }

    /// Empty the table, with room for `n` keys at half load at least.
    fn reset(&mut self, n: usize) {
        let size = (2 * n).next_power_of_two().max(2);
        self.keys.clear();
        self.keys.resize(size, self.empty);
        self.values.clear();
        self.values.resize(size, V::default());
        self.bits = size.trailing_zeros();
    }

    /// The slot of `key`, claimed if the key is new.
    #[inline]
    fn slot(&mut self, key: K, hash: u64) -> usize {
        let mask = (1 << self.bits) - 1;
        let mut i = (hash >> (64 - self.bits)) as usize;
        while self.keys[i] != key && self.keys[i] != self.empty {
            i = (i + 1) & mask;
        }
        self.keys[i] = key;
        i
    }
}

/// A window of a counted bin, read again: its words, where it lies, the
/// left classes of its suffix and its twin, and its canonical word's slot.
#[derive(Clone, Copy)]
struct Met {
    key: u64,
    twin: u64,
    seq: u32,
    pos: u32,
    slot: u32,
    left: u8,
    twin_left: u8,
}

/// A count thread's scratch, reset for each partition: its bins with a
/// mark each, the windows of the bins it counts, and their canonical
/// words with their [`TwinClasses`].
struct Tables {
    bins: Table<u32, u8>,
    /// The partition's records' bin slots, in record order.
    slots: Vec<u32>,
    met: Vec<Met>,
    words: Table<u64, TwinClasses>,
}

/// A bin mark: one record, unflagged — skipped.
const LONE: u8 = 1;
/// A bin mark: counted.
const COUNT: u8 = 2;

impl Tables {
    fn new() -> Tables {
        Tables { bins: Table::new(u32::MAX), slots: Vec::new(), met: Vec::new(), words: Table::new(u64::MAX) }
    }

    /// Admit the selected suffixes of one partition's records that can
    /// pair. A bin of one unflagged record is skipped without reading
    /// its bases again; the windows of every other bin are read once
    /// more and counted exactly by canonical word.
    fn count<'a, I: Iterator<Item = &'a Record>>(
        &mut self,
        bins: Bins,
        store: &FragmentStore,
        records: impl Fn() -> I,
        runs: &[(u32, u32, u32)],
        keep: &impl Fn(u64) -> bool,
        admitted: &mut Vec<(u64, Suffix)>,
    ) {
        let Tables { bins: marks, slots, met, words } = self;
        marks.reset(records().count());
        slots.clear();
        for r in records() {
            let slot = marks.slot(r.bin(), mix_word(r.bin() as u64));
            let mark = &mut marks.values[slot];
            *mark = if r.flagged() { COUNT } else { (*mark + LONE).min(COUNT) };
            slots.push(slot as u32);
        }
        let Bins { k, double, .. } = bins;
        met.clear();
        for (r, &slot) in records().zip(slots.iter()) {
            if marks.values[slot as usize] == COUNT {
                read_windows(store.get(SeqId(r.seq)), *r, k, met);
            }
        }
        words.reset(met.len());
        for w in met.iter_mut() {
            let (word, half, twin_half) = canonical_of(w.key, if double { w.twin } else { w.key });
            let slot = words.slot(word, mix_word(word));
            let classes = &mut words.values[slot];
            classes.add(half, w.left);
            if double {
                classes.add(twin_half, w.twin_left);
            }
            w.slot = slot as u32;
        }
        let mut run = (u32::MAX, 0, 0);
        for w in met.iter() {
            let verdict = words.values[w.slot as usize].verdict();
            if verdict == 0 {
                continue;
            }
            let (_, half, twin_half) = canonical_of(w.key, if double { w.twin } else { w.key });
            let len = store.len_of(SeqId(w.seq));
            if run.0 != w.seq || !(run.1..run.2).contains(&(w.pos as usize)) {
                let (start, end) = run_of(runs, w.seq, w.pos, len);
                run = (w.seq, start, end);
            }
            let pos = w.pos as usize;
            if verdict >> half & 1 == 1 && keep(w.key) {
                let suffix = Suffix { seq: w.seq, pos: w.pos, rem: (run.2 - pos) as u32, left: w.left };
                admitted.push((w.key, suffix));
            }
            if double && verdict >> twin_half & 1 == 1 && keep(w.twin) {
                let (twin_pos, rem) = ((len - pos - k) as u32, (pos + k - run.1) as u32);
                admitted.push((w.twin, Suffix { seq: w.seq + 1, pos: twin_pos, rem, left: w.twin_left }));
            }
        }
    }
}

/// Read the windows of record `r` of the forward sequence `codes` into
/// `met`: the first word packed whole and its twin reverse-complemented,
/// every later one rolled.
#[inline]
fn read_windows(codes: &[u8], r: Record, k: usize, met: &mut Vec<Met>) {
    let (start, n, kmask) = (r.pos as usize, r.windows(), (1u64 << (2 * k)) - 1);
    let bases = &codes[start..start + k - 1 + n];
    let mut key = bases[..k].iter().fold(0, |word, &c| word << 2 | c as u64);
    let mut twin = reverse_complement(key, k);
    for j in 0..n {
        if j > 0 {
            let c = bases[k - 1 + j] as u64;
            key = (key << 2 | c) & kmask;
            twin = twin >> 2 | (3 - c) << (2 * k - 2);
        }
        // Inside the record the classes are its own bases; only the first
        // window's left and the last window's right may be λ.
        let left = if j == 0 { left_class(codes, start) } else { bases[j - 1] };
        let twin_left = if j + 1 == n { twin_left_class(codes, start + j + k) } else { 3 - bases[j + k] };
        met.push(Met { key, twin, seq: r.seq, pos: (start + j) as u32, slot: 0, left, twin_left });
    }
}

/// The reverse complement of the packed `k`-mer `word`: complement every
/// base, then reverse the 2-bit groups.
#[inline]
fn reverse_complement(word: u64, k: usize) -> u64 {
    let x = !word;
    let x = (x >> 2 & 0x3333_3333_3333_3333) | (x & 0x3333_3333_3333_3333) << 2;
    let x = (x >> 4 & 0x0F0F_0F0F_0F0F_0F0F) | (x & 0x0F0F_0F0F_0F0F_0F0F) << 4;
    x.swap_bytes() >> (64 - 2 * k)
}

/// The canonical word of a window with words `key` and `twin` (`key`
/// again without a twin) — the smaller of the two — and the halves of its
/// [`TwinClasses`] the window's suffix and its twin take: the larger
/// word's bucket in the high half, a reverse palindrome's one bucket in
/// the low.
#[inline]
fn canonical_of(key: u64, twin: u64) -> (u64, usize, usize) {
    (key.min(twin), (key > twin) as usize, (twin > key) as usize)
}

/// Group `records` by `part` (below `parts`) in place, in one counting
/// pass and one pass of swaps; returns where each group ends.
fn group_in_place(records: &mut [Record], parts: usize, part: impl Fn(Record) -> usize) -> Vec<usize> {
    let mut ends = vec![0; parts];
    records.iter().for_each(|&r| ends[part(r)] += 1);
    let mut next = Vec::with_capacity(parts);
    let mut at = 0;
    for end in ends.iter_mut() {
        next.push(at);
        at += *end;
        *end = at;
    }
    for p in 0..parts {
        while next[p] < ends[p] {
            let q = part(records[next[p]]);
            if q != p {
                records.swap(next[p], next[q]);
            }
            next[q] += 1;
        }
    }
    ends
}

/// The unmasked run of forward sequence `seq` (of `len` bases) that holds
/// the window at `pos`: from the walks' `runs` if the sequence has a
/// masked base, else all of it.
fn run_of(runs: &[(u32, u32, u32)], seq: u32, pos: u32, len: usize) -> (usize, usize) {
    let at = runs.partition_point(|&(s, start, _)| (s, start) <= (seq, pos));
    match at.checked_sub(1).map(|i| runs[i]) {
        Some((s, start, end)) if s == seq => (start as usize, end as usize),
        _ => (0, len),
    }
}

/// The forward sequences of `store` cut into `n` ranges (indices among
/// the forward strands) of about equal bases.
fn split_by_bases(store: &FragmentStore, n: usize) -> Vec<Range<usize>> {
    let stride = if store.is_double_stranded() { 2 } else { 1 };
    let forward = store.num_seqs() / stride;
    let len = |i: usize| store.len_of(SeqId((i * stride) as u32));
    let total: usize = (0..forward).map(len).sum();
    let (mut bounds, mut bases) = (vec![0], 0);
    for i in 0..forward {
        while bounds.len() < n && bases * n >= total * bounds.len() {
            bounds.push(i);
        }
        bases += len(i);
    }
    bounds.resize(n + 1, forward);
    bounds.windows(2).map(|b| b[0]..b[1]).collect()
}

/// The local admission of the buckets `keep` selects by key, on
/// `threads` threads (the caller's one of them): exactly the suffixes of
/// the selected buckets that can pair, sorted by `(key, seq, pos)` — what
/// [`admitted_runs`] keeps of a [`sort_by_bucket`] of every suffix —; how
/// many suffixes the selected buckets hold; and the CPU seconds the
/// helper threads spent. The walk gives each thread a range of the
/// forward sequences of about equal bases, and the count a range of the
/// minimizer bins (see the module header for why a bin of one unflagged
/// record is skipped unread); one thread runs the same code and spawns
/// none.
pub fn admitted_suffixes(
    store: &FragmentStore,
    bucket_len: usize,
    threads: usize,
    keep: impl Fn(u64) -> bool + Sync,
) -> (Vec<(u64, Suffix)>, usize, f64) {
    assert!(threads >= 1, "the admission needs at least one thread");
    let bins = Bins::new(store, bucket_len);
    let seqs = split_by_bases(store, threads);
    let (mut walks, walk_cpu) = fan_out(threads, |i| bins.walk(store, seqs[i].clone(), &keep));
    let runs: Vec<_> = walks.iter_mut().flat_map(|walk| std::mem::take(&mut walk.runs)).collect();
    let share = |i: usize| (i << bins.part_bits) / threads;
    let (parts, count_cpu) =
        fan_out(threads, |i| bins.count(store, &walks, &runs, share(i)..share(i + 1), &keep));
    let enumerated = walks.iter().map(|walk| walk.enumerated).sum();
    drop(walks);
    let mut admitted = Vec::with_capacity(parts.iter().map(Vec::len).sum());
    parts.into_iter().for_each(|part| admitted.extend(part));
    sort_walk_by_bucket(&mut admitted);
    (admitted, enumerated, walk_cpu + count_cpu)
}

/// The left class of the suffix at `pos`: the base before it, or λ.
#[inline]
fn left_class(codes: &[u8], pos: usize) -> u8 {
    match pos.checked_sub(1).map(|p| codes[p]) {
        Some(c) if is_base_code(c) => c,
        _ => LAMBDA as u8,
    }
}

/// The left class of the twin of a window that ends before `end`: the
/// complement of the base at `end`, or λ.
#[inline]
fn twin_left_class(codes: &[u8], end: usize) -> u8 {
    match codes.get(end) {
        Some(&c) if is_base_code(c) => complement_code(c),
        _ => LAMBDA as u8,
    }
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
        left_class(self.codes, self.pos)
    }

    /// The twin's left class: the complement of the base after the
    /// window.
    #[inline]
    pub fn twin_left(&self) -> u8 {
        twin_left_class(self.codes, self.pos + self.k)
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

    /// The exact admission, with no bins and no skipping: every forward
    /// window's suffix and twin folded into a map by canonical word, then
    /// the selected suffixes whose half can pair, sorted as the admission
    /// sorts them; and how many suffixes the selected buckets hold.
    fn reference(store: &FragmentStore, k: usize, keep: impl Fn(u64) -> bool) -> (Vec<(u64, Suffix)>, usize) {
        let mut counts = std::collections::HashMap::<u64, TwinClasses>::new();
        for_each_window(
            store,
            k,
            |_| true,
            |w| {
                let (word, half, twin_half) = canonical(w);
                fold_window(counts.entry(word).or_default(), w, half, twin_half);
            },
        );
        let (mut admitted, mut enumerated) = (Vec::new(), 0);
        for_each_window(
            store,
            k,
            |_| true,
            |w| {
                let (word, half, twin_half) = canonical(w);
                enumerated +=
                    [Some(w.key), w.twin_key()].into_iter().flatten().filter(|&key| keep(key)).count();
                let verdict = counts[&word].verdict();
                admitted.extend(admit_window(verdict, w, half, twin_half).filter(|&(key, _)| keep(key)));
            },
        );
        sort_walk_by_bucket(&mut admitted);
        (admitted, enumerated)
    }

    /// Every record of a one-thread walk of `store`, in walk order.
    fn records(store: &FragmentStore, k: usize) -> Vec<Record> {
        let bins = Bins::new(store, k);
        let mut all: Vec<Record> = bins.walk(store, 0..store.num_fragments(), &|_| true).records;
        all.sort_by_key(|r| (r.seq, r.pos));
        all
    }

    /// The record holding the window at `pos` of forward sequence `seq`.
    fn record_at(records: &[Record], seq: u32, pos: u32) -> Record {
        *records
            .iter()
            .find(|r| r.seq == seq && (r.pos..r.pos + r.windows() as u32).contains(&pos))
            .expect("every window lies in a record")
    }

    /// The bin of `r` holds no other record of `all`.
    fn alone(all: &[Record], r: Record) -> bool {
        all.iter().filter(|o| o.bin() == r.bin()).count() == 1
    }

    /// Reads with planted copies, tandem repeats, reverse palindromes and
    /// masked bases, both strands.
    fn planted_store(
        state: &mut u64,
        lens: &[usize],
        copies: Vec<(proptest::sample::Index, usize, usize)>,
        plants: Vec<(usize, usize, usize)>,
        masks: Vec<(proptest::sample::Index, usize, usize)>,
    ) -> FragmentStore {
        let mut reads: Vec<Vec<u8>> = lens.iter().map(|&len| random_codes(state, len)).collect();
        for (src, at, len) in copies {
            let src = &reads[src.index(reads.len())];
            let at = at.min(src.len() - 1);
            let copy = src[at..(at + len).min(src.len())].to_vec();
            reads.push(copy);
        }
        // A tandem repeat of a short unit ties the minimum in the windows
        // over it; `x rc(x)` is a reverse palindrome of even length, whose
        // centre window is its own reverse complement (k even) or that of
        // its neighbour (k odd).
        for (kind, unit, times) in plants {
            let unit = random_codes(state, unit);
            let mut read = random_codes(state, 3);
            if kind == 0 {
                (0..times).for_each(|_| read.extend_from_slice(&unit));
            } else {
                read.extend_from_slice(&unit);
                read.extend(unit.iter().rev().map(|&c| 3 - c));
            }
            read.extend(random_codes(state, 3));
            reads.push(read);
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

        /// The admission is exact: on 1–3 threads, what it admits is what
        /// a map over every canonical window admits, suffix for suffix and
        /// in order — the admitted runs of every suffix of both strands, of
        /// the buckets a key predicate selects if it is given one — over
        /// reads with planted copies, tandem repeats, reverse palindromes
        /// and masked bases, at k below, at and above the minimizer length
        /// and at the 31 bases a key holds (every ψ > 31). Counted in 1–4
        /// runs, one per part of the forward sequences, and merged as a
        /// builder merges them, the halves with a set verdict hold exactly
        /// the suffixes of those admitted runs.
        #[test]
        fn the_admission_is_exact_on_every_thread_count(
            seed in proptest::any::<u64>(),
            lens in proptest::collection::vec(1usize..80, 1..12),
            copies in proptest::collection::vec(
                (proptest::any::<proptest::sample::Index>(), 0usize..80, 3usize..40), 0..6),
            plants in proptest::collection::vec((0usize..2, 1usize..18, 2usize..12), 0..4),
            masks in proptest::collection::vec(
                (proptest::any::<proptest::sample::Index>(), 0usize..80, 1usize..4), 0..4),
            psi in 1usize..=36,
            parts in 1usize..=4,
        ) {
            let k = crate::GstConfig { psi }.bucket_len();
            let mut state = seed | 1;
            let store = planted_store(&mut state, &lens, copies, plants, masks);
            let all: Vec<_> = enumerate_suffixes(&store, (0..store.num_seqs() as u32).map(SeqId), k).collect();
            let expected = admitted(all.clone());
            let even = |key: u64| key.is_multiple_of(2);
            let (exact, enumerated) = reference(&store, k, |_| true);
            proptest::prop_assert_eq!(&exact, &expected.concat(), "the reference");
            proptest::prop_assert_eq!(enumerated, all.len());
            let (exact_even, enumerated_even) = reference(&store, k, even);
            for threads in 1..=3 {
                let (admitted, enumerated, _) = admitted_suffixes(&store, k, threads, |_| true);
                proptest::prop_assert_eq!(&admitted, &exact, "{} threads", threads);
                proptest::prop_assert_eq!(enumerated, all.len());
                let (admitted, enumerated, _) = admitted_suffixes(&store, k, threads, even);
                proptest::prop_assert_eq!(&admitted, &exact_even, "{} threads, selected buckets", threads);
                proptest::prop_assert_eq!(enumerated, enumerated_even);
            }
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

        /// A single-stranded store's admission is exact too: its windows
        /// have no twins, and a word and its reverse complement are two
        /// unrelated buckets.
        #[test]
        fn a_single_stranded_admission_is_exact(
            seed in proptest::any::<u64>(),
            lens in proptest::collection::vec(1usize..60, 1..8),
            copies in proptest::collection::vec(
                (proptest::any::<proptest::sample::Index>(), 0usize..60, 3usize..40), 0..6),
            k in 1usize..=20,
        ) {
            let mut state = seed | 1;
            let mut reads: Vec<Vec<u8>> = lens.iter().map(|&len| random_codes(&mut state, len)).collect();
            for (src, at, len) in copies {
                let src = &reads[src.index(reads.len())];
                let copy = src[at.min(src.len() - 1)..].iter().take(len).copied().collect();
                reads.push(copy);
            }
            let store = FragmentStore::from_seqs(reads.into_iter().map(DnaSeq::from_codes));
            let all: Vec<_> = enumerate_suffixes(&store, (0..store.num_seqs() as u32).map(SeqId), k).collect();
            let (walked, enumerated, _) = admitted_suffixes(&store, k, 2, |_| true);
            proptest::prop_assert_eq!(walked, admitted(all.clone()).concat());
            proptest::prop_assert_eq!(enumerated, all.len());
        }
    }

    /// A read that is `flank` random bases, then a reverse palindrome
    /// `x rc(x)` of `2 half` bases, then `flank` more, as a double-stranded
    /// store; and the palindrome's start.
    fn palindrome_read(state: &mut u64, half: usize, flank: usize) -> (FragmentStore, usize) {
        let x = random_codes(state, half);
        let mut read = random_codes(state, flank);
        read.extend_from_slice(&x);
        read.extend(x.iter().rev().map(|&c| 3 - c));
        read.extend(random_codes(state, flank));
        (FragmentStore::from_seqs([DnaSeq::from_codes(read)]).with_reverse_complements(), flank)
    }

    /// The sequences of the suffixes `admitted` holds in the bucket of the
    /// `k` bases at `at` of forward sequence 0.
    fn bucket_of(admitted: &[(u64, Suffix)], store: &FragmentStore, at: usize, k: usize) -> Vec<(u32, u32)> {
        let word = pgasm_seq::pack_kmer(&store.get(SeqId(0))[at..at + k]).unwrap();
        admitted.iter().filter(|(key, _)| *key == word).map(|(_, s)| (s.seq, s.pos)).collect()
    }

    #[test]
    fn a_window_that_is_its_own_reverse_complement_flags_its_record() {
        // k = 20 over a 20-base reverse palindrome: the window is its own
        // twin, so its bucket holds two suffixes — after the base before
        // it and after the complement of the base behind it — and can
        // pair. Its record is alone in its bin: skipped unflagged, the
        // bucket would be lost.
        let k = 20;
        let mut state = 11;
        for _ in 0..100 {
            let (store, at) = palindrome_read(&mut state, k / 2, 30);
            let codes = store.get(SeqId(0));
            let all = records(&store, k);
            let r = record_at(&all, 0, at as u32);
            if codes[at - 1] == 3 - codes[at + k] || !alone(&all, r) {
                continue; // one left class, or a bin counted anyway
            }
            assert!(r.flagged(), "{r:?}");
            let (admitted, ..) = admitted_suffixes(&store, k, 1, |_| true);
            let twin_pos = (codes.len() - at - k) as u32;
            assert_eq!(bucket_of(&admitted, &store, at, k), [(0, at as u32), (1, twin_pos)]);
            assert_eq!(admitted, reference(&store, k, |_| true).0);
            return;
        }
        panic!("no fixture put the palindrome's record alone in its bin");
    }

    #[test]
    fn a_window_that_is_its_neighbours_reverse_complement_flags_its_record() {
        // k = 19 over a 20-base reverse palindrome: its two windows are
        // each other's reverse complement, so the first window's bucket
        // holds its suffix and the second window's twin, and can pair.
        // Both windows lie in one record, alone in its bin: skipped
        // unflagged, that bucket would be lost.
        let k: usize = 19;
        let mut state = 13;
        for _ in 0..100 {
            let (store, at) = palindrome_read(&mut state, k.div_ceil(2), 30);
            let codes = store.get(SeqId(0));
            let all = records(&store, k);
            let (first, second) = (record_at(&all, 0, at as u32), record_at(&all, 0, at as u32 + 1));
            if codes[at - 1] == 3 - codes[at + k + 1] || first != second || !alone(&all, first) {
                continue;
            }
            assert!(first.flagged(), "{first:?}");
            let (admitted, ..) = admitted_suffixes(&store, k, 1, |_| true);
            let twin_pos = (codes.len() - at - 1 - k) as u32;
            assert_eq!(bucket_of(&admitted, &store, at, k), [(0, at as u32), (1, twin_pos)]);
            assert_eq!(admitted, reference(&store, k, |_| true).0);
            return;
        }
        panic!("no fixture put both windows in one record alone in its bin");
    }

    #[test]
    fn a_repeat_one_minimizer_span_apart_lands_in_two_records_of_one_bin() {
        // A unit of w = k − m + 1 bases repeated: every window holds each
        // m-mer position modulo w once, so no window ties its minimum and
        // every window selects the same minimizer word, while windows w
        // apart are one word. A record holds one minimizer occurrence, so
        // those two windows fall in two records of one bin, which is
        // counted. A record cut only where the minimizer word changes
        // would hold both alone, unflagged, and lose their bucket.
        let (k, m) = (20, MINIMIZER_LEN);
        let w = k - m + 1;
        let mut state = 17;
        let read = loop {
            let unit = random_codes(&mut state, w);
            let read: Vec<u8> = unit.iter().cycle().take(k + w).copied().collect();
            let order = |p: usize| {
                let word = pgasm_seq::pack_kmer(&read[p..p + m]).unwrap();
                let rc = DnaSeq::from_codes(read[p..p + m].to_vec()).reverse_complement();
                word.min(pgasm_seq::pack_kmer(rc.codes()).unwrap()).wrapping_mul(MINIMIZER_ORDER) & !31
            };
            let mut orders: Vec<u64> = (0..w).map(order).collect();
            orders.sort_unstable();
            if orders.windows(2).all(|pair| pair[0] < pair[1]) {
                break read; // w distinct orders: no window ties
            }
        };
        let store = FragmentStore::from_seqs([DnaSeq::from_codes(read)]).with_reverse_complements();
        let all = records(&store, k);
        let (first, last) = (record_at(&all, 0, 0), record_at(&all, 0, w as u32));
        assert_ne!(first, last, "two occurrences, two records");
        assert_eq!(first.bin(), last.bin(), "one minimizer word, one bin");
        assert!(!first.flagged() && !last.flagged());
        let (admitted, ..) = admitted_suffixes(&store, k, 1, |_| true);
        assert_eq!(bucket_of(&admitted, &store, 0, k), [(0, 0), (0, w as u32)], "the read start (λ) pairs");
        assert_eq!(admitted, reference(&store, k, |_| true).0);
    }

    #[test]
    fn a_sparse_sample_skips_most_records_unread_and_admits_only_what_is_indexed() {
        // 300 reads of 400 bp, 6 from each of 50 random 3 kb genomes, some
        // reverse-complemented, at 160-base steps: reads of one genome
        // often overlap, yet two records in five are alone in their bin
        // and never read again.
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
        let all = records(&store, k);
        let lone = all.iter().filter(|&&r| alone(&all, r) && !r.flagged()).count();
        assert!(5 * lone > 2 * all.len(), "{lone} of {} records skipped", all.len());
        let (admitted, ..) = admitted_suffixes(&store, k, 2, |_| true);
        assert!(!admitted.is_empty(), "the fixture must overlap somewhere");
        let indexed: usize = admitted_runs(&admitted).map(<[_]>::len).sum();
        assert_eq!(indexed, admitted.len(), "every admitted suffix is indexed");
    }

    #[test]
    fn the_forward_sequences_split_into_ranges_of_about_equal_bases() {
        let lens = [100, 5, 5, 90, 100, 3, 97];
        let store = FragmentStore::from_seqs(lens.iter().map(|&n| DnaSeq::from_codes(vec![0; n])))
            .with_reverse_complements();
        assert_eq!(split_by_bases(&store, 1), vec![0..7]);
        let parts = split_by_bases(&store, 3);
        assert_eq!(parts.len(), 3);
        assert!(parts.windows(2).all(|pair| pair[0].end == pair[1].start), "{parts:?}");
        for part in &parts {
            let bases: usize = lens[part.clone()].iter().sum();
            assert!((90..=200).contains(&bases), "{parts:?}");
        }
        // More threads than sequences: some ranges are empty.
        let many = split_by_bases(&store, 9);
        assert_eq!((many.len(), many.iter().map(|p| p.len()).sum::<usize>()), (9, 7));
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

//! Packed k-mer encoding, rolling enumeration, the word hasher and the
//! two word-table primitives built on them.
//!
//! The parallel GST construction (§6) buckets suffixes by their w-length
//! prefixes; the repeat-masking preprocessor counts k-mer frequencies on a
//! random sample. Both want a dense integer code for short words: 2 bits
//! per base packed into a `u64`, supporting k ≤ 31. A window containing a
//! masked base has no code.
//!
//! Words are counted by sorting, not hashing: [`sort_words`] radix-orders
//! packed keys on any bit range, and a count is a run of equal words (the
//! preprocessor's repeat statistics; the assembler's seed table orders its
//! `word << 32 | position` keys the same way). Every table keyed by a
//! packed word hashes it with one function, [`mix_word`]: the
//! preprocessor's vector and repeat sets through [`WordSet`], which
//! answers most misses from a bitmap before it probes its hash set, the
//! w-mer filter's table through [`WordMap`], and the GST's admission
//! slots directly.

use crate::alphabet::is_base_code;
use std::collections::hash_map::RandomState;
use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasher, Hasher};
use std::ops::Range;

/// Hash of a packed word: one 64 × 64 → 128-bit multiply by the golden
/// ratio, high and low halves folded, so every output bit depends on
/// every input bit (a table may take its index from either end).
#[inline]
pub fn mix_word(word: u64) -> u64 {
    let p = word as u128 * 0x9E37_79B9_7F4A_7C15;
    (p >> 64) as u64 ^ p as u64
}

/// Bitmap bits per word of a [`WordSet`], at least: a miss finds its bit
/// clear with probability about `1 - 1/16`.
const FILTER_BITS_PER_WORD: usize = 16;

/// A set of packed words hashed by [`mix_word`], screened by a bitmap.
///
/// Beside the hash set sits one bit per slot of a power-of-two bitmap,
/// set at the top bits of each member's hash and rebuilt as the set
/// grows, so that it keeps at least [`FILTER_BITS_PER_WORD`] bits per
/// member. [`WordSet::contains`] reads that bit first and probes the hash
/// set only when it is set: the preprocessor's screens ask about every
/// word of every read, and nearly all of them miss.
#[derive(Debug, Clone, Default)]
pub struct WordSet {
    words: HashSet<u64, WordHashBuilder>,
    filter: Vec<u64>,
    /// `64 - log2(filter bits)`: a hash's filter bit is `hash >> shift`.
    shift: u32,
}

impl WordSet {
    /// True when `word` is a member.
    #[inline]
    pub fn contains(&self, word: &u64) -> bool {
        !self.filter.is_empty() && self.filter_hit(*word) && self.words.contains(word)
    }

    /// Add `word`; false if it was already a member.
    pub fn insert(&mut self, word: u64) -> bool {
        if !self.words.insert(word) {
            return false;
        }
        if self.words.len() * FILTER_BITS_PER_WORD > self.filter.len() * 64 {
            self.rebuild_filter();
        } else {
            let (at, bit) = self.filter_slot(word);
            self.filter[at] |= bit;
        }
        true
    }

    /// Number of members.
    pub fn len(&self) -> usize {
        self.words.len()
    }

    /// True when there are no members.
    pub fn is_empty(&self) -> bool {
        self.words.is_empty()
    }

    /// The members, in no particular order.
    pub fn iter(&self) -> impl Iterator<Item = u64> + '_ {
        self.words.iter().copied()
    }

    /// The filter word and bit of `word`: the top bits of its hash.
    #[inline]
    fn filter_slot(&self, word: u64) -> (usize, u64) {
        let bit = self.words.hasher().hash_one(word) >> self.shift;
        ((bit >> 6) as usize, 1 << (bit & 63))
    }

    #[inline]
    fn filter_hit(&self, word: u64) -> bool {
        let (at, bit) = self.filter_slot(word);
        self.filter[at] & bit != 0
    }

    /// Resize the bitmap to the next power of two at or above
    /// [`FILTER_BITS_PER_WORD`] bits per member (at least one `u64`) and
    /// set every member's bit again.
    fn rebuild_filter(&mut self) {
        let bits = (self.words.len() * FILTER_BITS_PER_WORD).next_power_of_two().max(64);
        self.shift = 64 - bits.trailing_zeros();
        self.filter = vec![0; bits / 64];
        for &word in &self.words {
            let (at, bit) = self.filter_slot(word);
            self.filter[at] |= bit;
        }
    }
}

impl Extend<u64> for WordSet {
    fn extend<I: IntoIterator<Item = u64>>(&mut self, words: I) {
        words.into_iter().for_each(|word| {
            self.insert(word);
        });
    }
}

impl FromIterator<u64> for WordSet {
    fn from_iter<I: IntoIterator<Item = u64>>(words: I) -> WordSet {
        let mut set = WordSet::default();
        set.extend(words);
        set
    }
}

/// A map from packed words hashed by [`mix_word`].
pub type WordMap<V> = HashMap<u64, V, WordHashBuilder>;

/// Builds the [`WordHasher`]s of one [`WordSet`] / [`WordMap`]. Each
/// table draws its own random seed: the words come from input files, and
/// a fixed function would let a crafted input collide every key.
#[derive(Debug, Clone)]
pub struct WordHashBuilder {
    seed: u64,
}

impl Default for WordHashBuilder {
    fn default() -> Self {
        WordHashBuilder { seed: RandomState::new().hash_one(0u64) }
    }
}

impl BuildHasher for WordHashBuilder {
    type Hasher = WordHasher;

    fn build_hasher(&self) -> WordHasher {
        WordHasher(self.seed)
    }
}

/// [`mix_word`] of the seed xor the word: one multiply per probe.
#[derive(Debug, Clone, Copy)]
pub struct WordHasher(u64);

impl Hasher for WordHasher {
    fn write(&mut self, bytes: &[u8]) {
        bytes.iter().for_each(|&b| self.write_u64(b as u64));
    }

    #[inline]
    fn write_u64(&mut self, word: u64) {
        self.0 = mix_word(self.0 ^ word);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }
}

/// Sort `keys` ascending by the bits `bits` of each key, stably: keys
/// that agree on those bits keep their order. An LSD radix sort, one byte
/// of the range per pass; the byte histograms are counted in one read
/// first, and a pass whose byte is the same in every key is skipped.
pub fn sort_words(keys: &mut Vec<u64>, bits: Range<u32>) {
    assert!(bits.start <= bits.end && bits.end <= 64, "bit range {bits:?} is not within a u64");
    if keys.len() < 2 || bits.is_empty() {
        return;
    }
    // Pass p sorts on the byte at `bits.start + 8p`, the last cut at `bits.end`.
    let digits: Vec<(u32, u64)> =
        bits.clone().step_by(8).map(|shift| (shift, (1 << (bits.end - shift).min(8)) - 1)).collect();
    let digit = |key: u64, (shift, mask): (u32, u64)| (key >> shift & mask) as u8 as usize;
    let mut counts = vec![[0usize; 256]; digits.len()];
    for &key in keys.iter() {
        for (count, &d) in counts.iter_mut().zip(&digits) {
            count[digit(key, d)] += 1;
        }
    }
    let mut scratch = Vec::new();
    for (count, &d) in counts.iter().zip(&digits) {
        if count[digit(keys[0], d)] == keys.len() {
            continue;
        }
        let mut next = [0usize; 256];
        let mut at = 0;
        for (slot, &c) in next.iter_mut().zip(count) {
            *slot = at;
            at += c;
        }
        scratch.resize(keys.len(), 0);
        for &key in keys.iter() {
            let slot = &mut next[digit(key, d)];
            scratch[*slot] = key;
            *slot += 1;
        }
        std::mem::swap(keys, &mut scratch);
    }
}

/// Pack codes (`len ≤ 31`, all real bases) into a 2-bit-per-base integer,
/// first base in the most significant position so numeric order equals
/// lexicographic order. Returns `None` if any position is masked.
#[inline]
pub fn pack_kmer(codes: &[u8]) -> Option<u64> {
    debug_assert!(codes.len() <= 31);
    let mut v: u64 = 0;
    for &c in codes {
        if !is_base_code(c) {
            return None;
        }
        v = (v << 2) | c as u64;
    }
    Some(v)
}

/// Rolling iterator over all k-mers of a code sequence, yielding
/// `(start_position, packed)` and skipping windows containing masked
/// bases in O(1) amortised per position: [`StrandKmerIter`] without the
/// reverse strand.
pub struct KmerIter<'a>(StrandKmerIter<'a>);

impl<'a> KmerIter<'a> {
    /// New iterator over `codes` with word length `k` (1 ≤ k ≤ 31).
    pub fn new(codes: &'a [u8], k: usize) -> Self {
        KmerIter(StrandKmerIter::new(codes, k))
    }
}

impl Iterator for KmerIter<'_> {
    type Item = (usize, u64);

    #[inline]
    fn next(&mut self) -> Option<(usize, u64)> {
        self.0.next().map(|(pos, word, _)| (pos, word))
    }
}

/// Rolling iterator over all k-mers of a code sequence on both strands,
/// yielding `(start_position, packed, twin)` and skipping windows
/// containing masked bases: `twin` is the packed reverse complement of
/// the same window, the word the reverse strand holds at
/// `len - start - k`.
pub struct StrandKmerIter<'a> {
    codes: &'a [u8],
    k: usize,
    pos: usize,
    current: u64,
    twin: u64,
    valid: usize,
    mask: u64,
}

impl<'a> StrandKmerIter<'a> {
    /// New iterator over `codes` with word length `k` (1 ≤ k ≤ 31).
    pub fn new(codes: &'a [u8], k: usize) -> Self {
        assert!((1..=31).contains(&k), "k must be in 1..=31");
        StrandKmerIter { codes, k, pos: 0, current: 0, twin: 0, valid: 0, mask: (1u64 << (2 * k)) - 1 }
    }
}

impl Iterator for StrandKmerIter<'_> {
    type Item = (usize, u64, u64);

    #[inline]
    fn next(&mut self) -> Option<(usize, u64, u64)> {
        while self.pos < self.codes.len() {
            let c = self.codes[self.pos];
            self.pos += 1;
            if is_base_code(c) {
                self.current = ((self.current << 2) | c as u64) & self.mask;
                // The complement enters at the twin's first base.
                self.twin = (self.twin >> 2) | (3 - c as u64) << (2 * self.k - 2);
                self.valid += 1;
                if self.valid >= self.k {
                    return Some((self.pos - self.k, self.current, self.twin));
                }
            } else {
                self.valid = 0;
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dna::DnaSeq;

    #[test]
    fn pack_is_two_bits_per_base_first_base_high() {
        let s = DnaSeq::from("ACGTGCA");
        assert_eq!(pack_kmer(s.codes()), Some(0b00_01_10_11_10_01_00));
    }

    #[test]
    fn pack_order_is_lexicographic() {
        let a = pack_kmer(DnaSeq::from("AAC").codes()).unwrap();
        let b = pack_kmer(DnaSeq::from("AAG").codes()).unwrap();
        let c = pack_kmer(DnaSeq::from("ACA").codes()).unwrap();
        assert!(a < b && b < c);
    }

    #[test]
    fn pack_rejects_masked() {
        let s = DnaSeq::from("ACNGT");
        assert_eq!(pack_kmer(s.codes()), None);
    }

    #[test]
    fn rolling_matches_naive() {
        let s = DnaSeq::from("ACGTACGTTGCA");
        let k = 4;
        let rolled: Vec<_> = KmerIter::new(s.codes(), k).collect();
        let naive: Vec<_> =
            (0..=s.len() - k).filter_map(|i| pack_kmer(&s.codes()[i..i + k]).map(|p| (i, p))).collect();
        assert_eq!(rolled, naive);
    }

    #[test]
    fn rolling_skips_masked_windows() {
        let s = DnaSeq::from("ACGNACGT");
        let k = 3;
        let rolled: Vec<_> = KmerIter::new(s.codes(), k).collect();
        // Windows overlapping the N at index 3 are skipped.
        let naive: Vec<_> =
            (0..=s.len() - k).filter_map(|i| pack_kmer(&s.codes()[i..i + k]).map(|p| (i, p))).collect();
        assert_eq!(rolled, naive);
        assert_eq!(rolled.len(), 3); // ACG, ACG, CGT
    }

    #[test]
    fn short_input_yields_nothing() {
        let s = DnaSeq::from("AC");
        assert_eq!(KmerIter::new(s.codes(), 3).count(), 0);
        assert_eq!(StrandKmerIter::new(s.codes(), 3).count(), 0);
    }

    #[test]
    fn two_strand_words_are_the_reverse_strands_words() {
        let mut s = DnaSeq::from("ACGTTGCAAGGCNTTACGGATCGATAAGT");
        s.mask_range(20, 21);
        for k in [1, 4, 7, 12] {
            let rc = s.reverse_complement();
            let len = s.len();
            let forward: Vec<(usize, u64)> = KmerIter::new(s.codes(), k).collect();
            let mut reverse: Vec<(usize, u64)> =
                KmerIter::new(rc.codes(), k).map(|(pos, w)| (len - pos - k, w)).collect();
            reverse.reverse();
            let both: Vec<(usize, u64, u64)> = StrandKmerIter::new(s.codes(), k).collect();
            assert_eq!(both.iter().map(|&(p, w, _)| (p, w)).collect::<Vec<_>>(), forward, "k = {k}");
            assert_eq!(both.iter().map(|&(p, _, t)| (p, t)).collect::<Vec<_>>(), reverse, "k = {k}");
        }
    }

    /// splitmix64: test keys without a random-number crate.
    fn next_key(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    #[test]
    fn sort_words_is_a_stable_sort_on_the_selected_bits() {
        let mut state = 7;
        for bits in [0..64, 32..56, 8..16, 0..8, 61..64, 20..20] {
            let field =
                |k: u64| if bits.is_empty() { 0 } else { k >> bits.start & (u64::MAX >> (64 - bits.len())) };
            for len in [0, 1, 2, 3, 100, 2_000] {
                // Half the keys hold one of five field values, so equal
                // fields with different keys test the stability.
                let keys: Vec<u64> = (0..len)
                    .map(|i| {
                        let key = next_key(&mut state);
                        if i % 2 == 0 || bits.is_empty() {
                            key
                        } else {
                            key & !(field(u64::MAX) << bits.start) | (key % 5) << bits.start
                        }
                    })
                    .collect();
                let mut want = keys.clone();
                want.sort_by_key(|&k| field(k));
                let mut got = keys;
                sort_words(&mut got, bits.clone());
                assert_eq!(got, want, "bits {bits:?}, {len} keys");
            }
        }
        // One byte shared by every key: that pass is skipped.
        let mut keys: Vec<u64> = (0..50).map(|i| 0xAB00 | (49 - i)).collect();
        let want: Vec<u64> = keys.iter().rev().copied().collect();
        sort_words(&mut keys, 0..16);
        assert_eq!(keys, want);
    }

    #[test]
    fn word_set_never_misses_a_member() {
        let mut state = 11;
        let mut set = WordSet::default();
        assert!(!set.contains(&0));
        let mut members = Vec::new();
        // One at a time across several rebuilds, checking every member
        // after each insert, then in bulk.
        for _ in 0..600 {
            let word = next_key(&mut state) >> 2;
            assert_eq!(set.insert(word), !members.contains(&word));
            members.push(word);
            assert!(members.iter().all(|w| set.contains(w)), "{} members", set.len());
        }
        assert!(!set.insert(members[0]), "a member is no new word");
        let more: Vec<u64> = (0..20_000).map(|_| next_key(&mut state) & ((1 << 32) - 1)).collect();
        set.extend(more.iter().copied());
        members.extend(&more);
        assert!(members.iter().all(|w| set.contains(w)));
        let from_iter: WordSet = members.iter().copied().collect();
        assert!(members.iter().all(|w| from_iter.contains(w)));
        assert_eq!(from_iter.len(), set.len());
        assert_eq!(set.iter().count(), set.len());
        // The bitmap answers most misses by itself.
        assert!(set.filter.len() * 64 >= set.len() * FILTER_BITS_PER_WORD);
        let screened = (0..10_000).filter(|_| !set.filter_hit(next_key(&mut state) | 1 << 40)).count();
        assert!(screened > 8_000, "the bitmap screened only {screened} of 10000 misses");
    }

    #[test]
    fn word_tables_find_what_they_hold() {
        let words: Vec<u64> =
            KmerIter::new(DnaSeq::from("ACGTTGCAAGGCTTACGGATCGAT").codes(), 5).map(|(_, w)| w).collect();
        let set: WordSet = words.iter().copied().collect();
        let mut counts: WordMap<u32> = WordMap::default();
        words.iter().for_each(|&w| *counts.entry(w).or_default() += 1);
        assert!(words.iter().all(|w| set.contains(w) && counts[w] >= 1));
        assert_eq!(counts.values().sum::<u32>() as usize, words.len());
        assert!(!set.contains(&(1 << 10)), "a 6-mer code is no 5-mer");
        // Two tables seed independently; the mix itself is a function.
        assert_eq!(mix_word(12345), mix_word(12345));
        assert_ne!(mix_word(0b01), mix_word(0b10));
    }
}

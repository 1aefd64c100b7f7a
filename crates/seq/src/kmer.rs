//! Packed k-mer encoding, rolling enumeration and the word hasher.
//!
//! The parallel GST construction (§6) buckets suffixes by their w-length
//! prefixes; the repeat-masking preprocessor counts k-mer frequencies on a
//! random sample. Both want a dense integer code for short words: 2 bits
//! per base packed into a `u64`, supporting k ≤ 31. A window containing a
//! masked base has no code.
//!
//! Every table keyed by a packed word hashes it with one function,
//! [`mix_word`]: the preprocessor's vector and repeat sets, its k-mer
//! counts and the w-mer filter's table through [`WordSet`] /
//! [`WordMap`], and the GST's admission slots directly.

use crate::alphabet::is_base_code;
use std::collections::hash_map::RandomState;
use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasher, Hasher};

/// Hash of a packed word: one 64 × 64 → 128-bit multiply by the golden
/// ratio, high and low halves folded, so every output bit depends on
/// every input bit (a table may take its index from either end).
#[inline]
pub fn mix_word(word: u64) -> u64 {
    let p = word as u128 * 0x9E37_79B9_7F4A_7C15;
    (p >> 64) as u64 ^ p as u64
}

/// A set of packed words hashed by [`mix_word`].
pub type WordSet = HashSet<u64, WordHashBuilder>;

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

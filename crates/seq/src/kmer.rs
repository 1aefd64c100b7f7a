//! Packed k-mer encoding and rolling enumeration.
//!
//! The parallel GST construction (§6) buckets suffixes by their w-length
//! prefixes; the repeat-masking preprocessor counts k-mer frequencies on a
//! random sample. Both want a dense integer code for short words: 2 bits
//! per base packed into a `u64`, supporting k ≤ 31. A window containing a
//! masked base has no code.

use crate::alphabet::is_base_code;

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
/// bases in O(1) amortised per position.
pub struct KmerIter<'a> {
    codes: &'a [u8],
    k: usize,
    pos: usize,
    current: u64,
    valid: usize,
    mask: u64,
}

impl<'a> KmerIter<'a> {
    /// New iterator over `codes` with word length `k` (1 ≤ k ≤ 31).
    pub fn new(codes: &'a [u8], k: usize) -> Self {
        assert!((1..=31).contains(&k), "k must be in 1..=31");
        let mask = if k == 32 { u64::MAX } else { (1u64 << (2 * k)) - 1 };
        KmerIter { codes, k, pos: 0, current: 0, valid: 0, mask }
    }
}

impl Iterator for KmerIter<'_> {
    type Item = (usize, u64);

    fn next(&mut self) -> Option<(usize, u64)> {
        while self.pos < self.codes.len() {
            let c = self.codes[self.pos];
            self.pos += 1;
            if is_base_code(c) {
                self.current = ((self.current << 2) | c as u64) & self.mask;
                self.valid += 1;
                if self.valid >= self.k {
                    return Some((self.pos - self.k, self.current));
                }
            } else {
                self.valid = 0;
                self.current = 0;
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
    }
}

//! Owned DNA sequences over the coded alphabet.

use crate::alphabet::{ascii_to_code, code_to_ascii, complement_code, is_base_code, Base, MASK};
use std::fmt;

/// An owned DNA sequence stored as one byte code per base
/// (see [`crate::alphabet`]). Positions are 0-based internally; the
/// paper's notation `s(i)` with 1-based positions maps to `&seq[i-1..]`.
#[derive(Clone, Default, PartialEq, Eq, Hash)]
pub struct DnaSeq {
    codes: Vec<u8>,
}

impl DnaSeq {
    /// New empty sequence.
    pub fn new() -> Self {
        DnaSeq { codes: Vec::new() }
    }

    /// New empty sequence with reserved capacity.
    pub fn with_capacity(cap: usize) -> Self {
        DnaSeq { codes: Vec::with_capacity(cap) }
    }

    /// Build from raw codes. Any code above [`MASK`] is clamped to `MASK`.
    pub fn from_codes(codes: Vec<u8>) -> Self {
        let mut codes = codes;
        for c in &mut codes {
            if *c > MASK {
                *c = MASK;
            }
        }
        DnaSeq { codes }
    }

    /// Parse from ASCII (`ACGTacgt`; everything else becomes masked).
    pub fn from_ascii(ascii: &[u8]) -> Self {
        DnaSeq { codes: ascii.iter().map(|&b| ascii_to_code(b)).collect() }
    }

    /// Render to ASCII (`ACGT`, masked → `X`).
    pub fn to_ascii(&self) -> Vec<u8> {
        self.codes.iter().map(|&c| code_to_ascii(c)).collect()
    }

    /// Length in bases.
    #[inline]
    pub fn len(&self) -> usize {
        self.codes.len()
    }

    /// True if the sequence has no bases.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.codes.is_empty()
    }

    /// Raw code slice.
    #[inline]
    pub fn codes(&self) -> &[u8] {
        &self.codes
    }

    /// Mutable raw code slice.
    #[inline]
    pub fn codes_mut(&mut self) -> &mut [u8] {
        &mut self.codes
    }

    /// Append one base.
    #[inline]
    pub fn push(&mut self, base: Base) {
        self.codes.push(base.code());
    }

    /// Append one raw code (clamped to `MASK` if invalid).
    #[inline]
    pub fn push_code(&mut self, code: u8) {
        self.codes.push(code.min(MASK));
    }

    /// Append another sequence.
    pub fn extend_from(&mut self, other: &DnaSeq) {
        self.codes.extend_from_slice(&other.codes);
    }

    /// Sub-sequence `[start, end)`.
    pub fn slice(&self, start: usize, end: usize) -> DnaSeq {
        DnaSeq { codes: self.codes[start..end].to_vec() }
    }

    /// The reverse complement: reverse the sequence and complement each
    /// base (A↔T, C↔G); masked positions stay masked. DNA is
    /// double-stranded, and fragments may have been sequenced from either
    /// strand, so the assembly pipeline indexes both orientations (§5).
    pub fn reverse_complement(&self) -> DnaSeq {
        DnaSeq { codes: self.codes.iter().rev().map(|&c| complement_code(c)).collect() }
    }

    /// Mask positions `[start, end)`.
    pub fn mask_range(&mut self, start: usize, end: usize) {
        let end = end.min(self.codes.len());
        for c in &mut self.codes[start..end] {
            *c = MASK;
        }
    }

    /// Number of unmasked (real) bases.
    pub fn unmasked_len(&self) -> usize {
        self.codes.iter().filter(|&&c| is_base_code(c)).count()
    }

    /// Fraction of bases that are masked (0.0 for an empty sequence).
    pub fn masked_fraction(&self) -> f64 {
        if self.codes.is_empty() {
            return 0.0;
        }
        1.0 - self.unmasked_len() as f64 / self.codes.len() as f64
    }

    /// Longest run of consecutive unmasked bases.
    pub fn longest_unmasked_run(&self) -> usize {
        let mut best = 0usize;
        let mut run = 0usize;
        for &c in &self.codes {
            if is_base_code(c) {
                run += 1;
                best = best.max(run);
            } else {
                run = 0;
            }
        }
        best
    }

    /// Iterator over maximal unmasked runs as `(start, end)` half-open
    /// ranges. Exact matches may never cross a masked base, so the suffix
    /// tree enumerates suffixes per-run (see `pgasm-gst`).
    pub fn unmasked_runs(&self) -> impl Iterator<Item = (usize, usize)> + '_ {
        UnmaskedRuns { codes: &self.codes, pos: 0 }
    }
}

struct UnmaskedRuns<'a> {
    codes: &'a [u8],
    pos: usize,
}

impl Iterator for UnmaskedRuns<'_> {
    type Item = (usize, usize);

    fn next(&mut self) -> Option<(usize, usize)> {
        while self.pos < self.codes.len() && !is_base_code(self.codes[self.pos]) {
            self.pos += 1;
        }
        if self.pos >= self.codes.len() {
            return None;
        }
        let start = self.pos;
        while self.pos < self.codes.len() && is_base_code(self.codes[self.pos]) {
            self.pos += 1;
        }
        Some((start, self.pos))
    }
}

impl fmt::Debug for DnaSeq {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let ascii = self.to_ascii();
        let shown = if ascii.len() > 60 { &ascii[..60] } else { &ascii[..] };
        write!(
            f,
            "DnaSeq(len={}, {}{})",
            self.len(),
            String::from_utf8_lossy(shown),
            if ascii.len() > 60 { "…" } else { "" }
        )
    }
}

impl fmt::Display for DnaSeq {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", String::from_utf8_lossy(&self.to_ascii()))
    }
}

impl std::ops::Index<usize> for DnaSeq {
    type Output = u8;

    #[inline]
    fn index(&self, i: usize) -> &u8 {
        &self.codes[i]
    }
}

impl FromIterator<Base> for DnaSeq {
    fn from_iter<I: IntoIterator<Item = Base>>(iter: I) -> Self {
        DnaSeq { codes: iter.into_iter().map(|b| b.code()).collect() }
    }
}

impl From<&str> for DnaSeq {
    fn from(s: &str) -> Self {
        DnaSeq::from_ascii(s.as_bytes())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ascii_roundtrip() {
        let s = DnaSeq::from("ACGTACGT");
        assert_eq!(s.len(), 8);
        assert_eq!(s.to_ascii(), b"ACGTACGT");
    }

    #[test]
    fn revcomp_known() {
        let s = DnaSeq::from("AACGT");
        assert_eq!(s.reverse_complement().to_ascii(), b"ACGTT");
    }

    #[test]
    fn revcomp_involution() {
        let s = DnaSeq::from("ACGTTGCATTGACGATCG");
        assert_eq!(s.reverse_complement().reverse_complement(), s);
    }

    #[test]
    fn revcomp_preserves_mask() {
        let mut s = DnaSeq::from("ACGTA");
        s.mask_range(1, 3);
        let rc = s.reverse_complement();
        // A C G T A with positions 1..3 masked is A X X T A; its
        // reverse complement is T A X X T.
        assert_eq!(rc.to_ascii(), b"TAXXT");
    }

    #[test]
    fn masking_statistics() {
        let mut s = DnaSeq::from("ACGTACGTAC");
        s.mask_range(2, 5);
        assert_eq!(s.unmasked_len(), 7);
        assert!((s.masked_fraction() - 0.3).abs() < 1e-12);
        assert_eq!(s.longest_unmasked_run(), 5);
    }

    #[test]
    fn unmasked_runs_iteration() {
        let mut s = DnaSeq::from("ACGTACGTAC");
        s.mask_range(2, 4);
        s.mask_range(7, 8);
        let runs: Vec<_> = s.unmasked_runs().collect();
        assert_eq!(runs, vec![(0, 2), (4, 7), (8, 10)]);
    }

    #[test]
    fn unmasked_runs_edge_cases() {
        assert_eq!(DnaSeq::new().unmasked_runs().count(), 0);
        let mut all_masked = DnaSeq::from("ACG");
        all_masked.mask_range(0, 3);
        assert_eq!(all_masked.unmasked_runs().count(), 0);
        let clean = DnaSeq::from("ACGT");
        assert_eq!(clean.unmasked_runs().collect::<Vec<_>>(), vec![(0, 4)]);
    }

    #[test]
    fn n_becomes_masked() {
        let s = DnaSeq::from("ACNNGT");
        assert_eq!(s.unmasked_len(), 4);
        assert_eq!(s.to_ascii(), b"ACXXGT");
    }

    #[test]
    fn slice_and_extend() {
        let s = DnaSeq::from("ACGTAC");
        assert_eq!(s.slice(1, 4).to_ascii(), b"CGT");
        let mut t = s.slice(0, 2);
        t.extend_from(&s.slice(4, 6));
        assert_eq!(t.to_ascii(), b"ACAC");
    }

    #[test]
    fn from_codes_clamps() {
        let s = DnaSeq::from_codes(vec![0, 1, 9, 3]);
        assert_eq!(s.codes(), &[0, 1, MASK, 3]);
    }
}

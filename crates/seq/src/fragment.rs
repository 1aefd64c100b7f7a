//! Space-efficient storage for large fragment sets.
//!
//! A sequencing project holds millions of fragments totalling billions of
//! bases; per-fragment allocations would waste both memory and locality.
//! [`FragmentStore`] keeps every fragment concatenated in one flat code
//! buffer with an offset table — O(N) space with a small constant, which
//! is the substrate the paper's linear-space guarantee builds on.

use crate::alphabet::{complement_code, MASK};
use crate::dna::DnaSeq;
use crate::wire::{Reader, WireError, Writer};

/// Identifier of an *original* input fragment (strand-agnostic).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct FragId(pub u32);

/// Identifier of a stored sequence: a (fragment, strand) pair in a
/// double-stranded store, or just a fragment in a single-stranded one.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SeqId(pub u32);

/// Which strand of the original fragment a stored sequence represents.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Strand {
    /// The fragment as sequenced.
    Forward,
    /// Its reverse complement.
    Reverse,
}

/// Flat, append-only storage for a set of DNA fragments.
///
/// In *single-stranded* form, sequence `i` is input fragment `i`. Calling
/// [`FragmentStore::with_reverse_complements`] produces a *double-stranded*
/// store in which sequence `2i` is fragment `i` forward and sequence
/// `2i + 1` is its reverse complement — the input the generalized suffix
/// tree is built over (§5: "the GST built on all input fragments and their
/// reverse complementary counterparts").
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FragmentStore {
    text: Vec<u8>,
    offsets: Vec<u64>,
    double_stranded: bool,
}

impl FragmentStore {
    /// New empty single-stranded store.
    pub fn new() -> Self {
        FragmentStore { text: Vec::new(), offsets: vec![0], double_stranded: false }
    }

    /// New empty store with reserved capacity for `total_bases` bases
    /// across `num_frags` fragments.
    pub fn with_capacity(num_frags: usize, total_bases: usize) -> Self {
        let mut offsets = Vec::with_capacity(num_frags + 1);
        offsets.push(0);
        FragmentStore { text: Vec::with_capacity(total_bases), offsets, double_stranded: false }
    }

    /// Build a store from owned sequences.
    pub fn from_seqs<I: IntoIterator<Item = DnaSeq>>(seqs: I) -> Self {
        let mut store = FragmentStore::new();
        for s in seqs {
            store.push(&s);
        }
        store
    }

    /// Append a fragment; returns its [`SeqId`].
    ///
    /// # Panics
    /// Panics if called on a double-stranded store (its layout pairs
    /// forward/reverse sequences and cannot be extended piecemeal).
    pub fn push(&mut self, seq: &DnaSeq) -> SeqId {
        assert!(!self.double_stranded, "cannot push into a double-stranded store");
        self.push_codes(seq.codes())
    }

    /// Append raw codes; returns the new [`SeqId`].
    pub fn push_codes(&mut self, codes: &[u8]) -> SeqId {
        let id = SeqId((self.offsets.len() - 1) as u32);
        self.text.extend_from_slice(codes);
        self.offsets.push(self.text.len() as u64);
        id
    }

    /// Number of stored sequences (2× the fragment count when
    /// double-stranded).
    #[inline]
    pub fn num_seqs(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Number of original fragments.
    #[inline]
    pub fn num_fragments(&self) -> usize {
        if self.double_stranded {
            self.num_seqs() / 2
        } else {
            self.num_seqs()
        }
    }

    /// Total stored bases N (counts both strands when double-stranded).
    #[inline]
    pub fn total_len(&self) -> usize {
        self.text.len()
    }

    /// True if this store holds forward/reverse pairs.
    #[inline]
    pub fn is_double_stranded(&self) -> bool {
        self.double_stranded
    }

    /// Code slice of sequence `id`.
    #[inline]
    pub fn get(&self, id: SeqId) -> &[u8] {
        let i = id.0 as usize;
        &self.text[self.offsets[i] as usize..self.offsets[i + 1] as usize]
    }

    /// Length of sequence `id`.
    #[inline]
    pub fn len_of(&self, id: SeqId) -> usize {
        let i = id.0 as usize;
        (self.offsets[i + 1] - self.offsets[i]) as usize
    }

    /// Owned copy of sequence `id`.
    pub fn get_seq(&self, id: SeqId) -> DnaSeq {
        DnaSeq::from_codes(self.get(id).to_vec())
    }

    /// Map a stored sequence to its original fragment and strand.
    #[inline]
    pub fn seq_to_fragment(&self, id: SeqId) -> (FragId, Strand) {
        if self.double_stranded {
            let frag = FragId(id.0 / 2);
            let strand = if id.0.is_multiple_of(2) { Strand::Forward } else { Strand::Reverse };
            (frag, strand)
        } else {
            (FragId(id.0), Strand::Forward)
        }
    }

    /// Iterate `(SeqId, codes)` over all stored sequences.
    pub fn iter(&self) -> impl Iterator<Item = (SeqId, &[u8])> {
        (0..self.num_seqs()).map(move |i| (SeqId(i as u32), self.get(SeqId(i as u32))))
    }

    /// Produce the double-stranded companion store: for each fragment `i`,
    /// sequence `2i` is the fragment and `2i + 1` its reverse complement.
    ///
    /// # Panics
    /// Panics if the store is already double-stranded.
    pub fn with_reverse_complements(&self) -> FragmentStore {
        assert!(!self.double_stranded, "store is already double-stranded");
        let mut out = FragmentStore {
            text: Vec::with_capacity(self.text.len() * 2),
            offsets: Vec::with_capacity(self.num_seqs() * 2 + 1),
            double_stranded: true,
        };
        out.offsets.push(0);
        for (_, codes) in self.iter() {
            out.text.extend_from_slice(codes);
            out.offsets.push(out.text.len() as u64);
            out.text.extend(codes.iter().rev().map(|&c| complement_code(c)));
            out.offsets.push(out.text.len() as u64);
        }
        out
    }

    /// Retain only the fragments for which `keep` returns true, returning
    /// the new store and the surviving original [`FragId`]s in order.
    /// Only valid on single-stranded stores.
    pub fn filter(&self, mut keep: impl FnMut(FragId, &[u8]) -> bool) -> (FragmentStore, Vec<FragId>) {
        assert!(!self.double_stranded, "filter operates on single-stranded stores");
        let mut out = FragmentStore::new();
        let mut kept = Vec::new();
        for (id, codes) in self.iter() {
            let frag = FragId(id.0);
            if keep(frag, codes) {
                out.push_codes(codes);
                kept.push(frag);
            }
        }
        (out, kept)
    }

    /// Serialize into `w` (checked length-prefixed framing; see
    /// [`crate::wire`]). The inverse is [`FragmentStore::decode_from`].
    pub fn encode_into(&self, w: &mut Writer) {
        w.put_u8(self.double_stranded as u8);
        w.put_bytes(&self.text);
        w.put_u64_slice(&self.offsets);
    }

    /// Decode a store previously written by
    /// [`FragmentStore::encode_into`]. Every structural invariant is
    /// re-checked so a corrupt frame errors instead of producing a store
    /// that panics later.
    pub fn decode_from(r: &mut Reader<'_>) -> Result<FragmentStore, WireError> {
        let double_stranded = match r.get_u8()? {
            0 => false,
            1 => true,
            _ => return Err(WireError::Malformed("strandedness flag out of range")),
        };
        let text = r.get_bytes()?.to_vec();
        let offsets = r.get_u64_slice()?;
        if offsets.first() != Some(&0) {
            return Err(WireError::Malformed("offset table must start at 0"));
        }
        if offsets.last() != Some(&(text.len() as u64)) {
            return Err(WireError::Malformed("offset table must end at text length"));
        }
        if offsets.windows(2).any(|w| w[0] > w[1]) {
            return Err(WireError::Malformed("offset table not monotonic"));
        }
        if double_stranded && (offsets.len() - 1) % 2 != 0 {
            return Err(WireError::Malformed("double-stranded store with odd sequence count"));
        }
        if text.iter().any(|&c| c > MASK) {
            return Err(WireError::Malformed("base code out of range"));
        }
        Ok(FragmentStore { text, offsets, double_stranded })
    }

    /// Split fragments round-robin across `p` parts such that each part
    /// holds roughly `N / p` bases (the paper's initial distribution for
    /// parallel GST construction). Returns per-part fragment id lists.
    pub fn partition_by_bases(&self, p: usize) -> Vec<Vec<SeqId>> {
        assert!(p > 0);
        let target = (self.total_len() as f64 / p as f64).ceil();
        let mut parts: Vec<Vec<SeqId>> = vec![Vec::new(); p];
        let mut part = 0usize;
        let mut load = 0usize;
        for (id, codes) in self.iter() {
            // Move on when adding this fragment would overshoot the
            // target by more than half the fragment (keeps parts within
            // about half a fragment of each other).
            if part + 1 < p && load as f64 + codes.len() as f64 / 2.0 > target {
                part += 1;
                load = 0;
            }
            parts[part].push(id);
            load += codes.len();
        }
        parts
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn store3() -> FragmentStore {
        FragmentStore::from_seqs(vec![DnaSeq::from("ACGT"), DnaSeq::from("GGGTTT"), DnaSeq::from("A")])
    }

    #[test]
    fn basic_accessors() {
        let s = store3();
        assert_eq!(s.num_seqs(), 3);
        assert_eq!(s.num_fragments(), 3);
        assert_eq!(s.total_len(), 11);
        assert_eq!(s.get(SeqId(0)), DnaSeq::from("ACGT").codes());
        assert_eq!(s.len_of(SeqId(1)), 6);
        assert_eq!(s.get_seq(SeqId(2)).to_ascii(), b"A");
    }

    #[test]
    fn double_stranded_layout() {
        let ds = store3().with_reverse_complements();
        assert!(ds.is_double_stranded());
        assert_eq!(ds.num_seqs(), 6);
        assert_eq!(ds.num_fragments(), 3);
        assert_eq!(ds.get_seq(SeqId(0)).to_ascii(), b"ACGT");
        assert_eq!(ds.get_seq(SeqId(1)).to_ascii(), b"ACGT"); // ACGT is its own revcomp
        assert_eq!(ds.get_seq(SeqId(2)).to_ascii(), b"GGGTTT");
        assert_eq!(ds.get_seq(SeqId(3)).to_ascii(), b"AAACCC");
    }

    #[test]
    fn seq_fragment_mapping() {
        let ds = store3().with_reverse_complements();
        assert_eq!(ds.seq_to_fragment(SeqId(0)), (FragId(0), Strand::Forward));
        assert_eq!(ds.seq_to_fragment(SeqId(3)), (FragId(1), Strand::Reverse));
    }

    #[test]
    fn filter_keeps_subset() {
        let s = store3();
        let (f, kept) = s.filter(|_, codes| codes.len() >= 4);
        assert_eq!(f.num_seqs(), 2);
        assert_eq!(kept, vec![FragId(0), FragId(1)]);
        assert_eq!(f.get_seq(SeqId(1)).to_ascii(), b"GGGTTT");
    }

    #[test]
    fn partition_balances_bases() {
        let mut s = FragmentStore::new();
        for _ in 0..100 {
            s.push(&DnaSeq::from("ACGTACGTAC"));
        }
        let parts = s.partition_by_bases(4);
        assert_eq!(parts.len(), 4);
        assert_eq!(parts.iter().map(|p| p.len()).sum::<usize>(), 100);
        for p in &parts {
            assert!(p.len() >= 20, "unbalanced partition: {}", p.len());
        }
    }

    #[test]
    fn partition_more_parts_than_fragments() {
        let s = FragmentStore::from_seqs(vec![DnaSeq::from("ACGT")]);
        let parts = s.partition_by_bases(3);
        assert_eq!(parts.iter().map(|p| p.len()).sum::<usize>(), 1);
    }

    #[test]
    #[should_panic(expected = "double-stranded")]
    fn push_into_double_stranded_panics() {
        let mut ds = store3().with_reverse_complements();
        ds.push(&DnaSeq::from("AC"));
    }

    #[test]
    fn codec_round_trip() {
        for store in [store3(), store3().with_reverse_complements(), FragmentStore::new()] {
            let mut w = Writer::new();
            store.encode_into(&mut w);
            let buf = w.finish();
            let mut r = Reader::new(&buf);
            let back = FragmentStore::decode_from(&mut r).unwrap();
            r.expect_end().unwrap();
            assert_eq!(back, store);
        }
    }

    #[test]
    fn codec_rejects_corruption() {
        let mut w = Writer::new();
        store3().with_reverse_complements().encode_into(&mut w);
        let buf = w.finish();
        // Truncation at every prefix either errors or is never silently
        // accepted as the full store.
        for cut in 0..buf.len() {
            let mut r = Reader::new(&buf[..cut]);
            assert!(FragmentStore::decode_from(&mut r).is_err(), "cut at {cut} decoded");
        }
        // Flip the strandedness flag: sequence count parity check trips
        // only for odd counts, so corrupt an offset instead.
        let mut bad = buf.clone();
        let n = bad.len();
        bad[n - 1] ^= 0xFF; // final offset no longer equals text length
        let mut r = Reader::new(&bad);
        assert!(FragmentStore::decode_from(&mut r).is_err());
    }
}

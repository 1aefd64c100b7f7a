//! Assembly quality against the known reference: exact counts on
//! deterministic output, so they repeat exactly for a given seed.

use pgasm::seq::DnaSeq;
use std::collections::HashSet;

/// k of the k-mer precision/recall metrics.
pub const K: usize = 24;

/// Distinct canonical k-mers (the smaller of a k-mer and its reverse
/// complement, 2 bits per base) of `seqs`; windows holding a masked or
/// ambiguous base are skipped.
pub fn canonical_kmers<'a>(seqs: impl IntoIterator<Item = &'a DnaSeq>, k: usize) -> HashSet<u64> {
    assert!((1..=32).contains(&k), "k-mer must fit in 64 bits");
    let mask = if k == 32 { u64::MAX } else { (1u64 << (2 * k)) - 1 };
    let mut out = HashSet::new();
    for seq in seqs {
        let (mut fwd, mut rev, mut valid) = (0u64, 0u64, 0usize);
        for &code in seq.codes() {
            if code > 3 {
                valid = 0;
                continue;
            }
            fwd = ((fwd << 2) | code as u64) & mask;
            rev = (rev >> 2) | ((3 - code as u64) << (2 * (k - 1)));
            valid += 1;
            if valid >= k {
                out.insert(fwd.min(rev));
            }
        }
    }
    out
}

/// (share of contig k-mers present in the reference, share of reference
/// k-mers present in the contigs). An empty side scores 0.
pub fn kmer_precision_recall(contigs: &[DnaSeq], reference: &[DnaSeq], k: usize) -> (f64, f64) {
    let c = canonical_kmers(contigs, k);
    let r = canonical_kmers(reference, k);
    let shared = c.intersection(&r).count() as f64;
    let share = |of: usize| if of == 0 { 0.0 } else { shared / of as f64 };
    (share(c.len()), share(r.len()))
}

/// N50: the length of the contig at which the running total of lengths,
/// longest first, reaches half of all contig bases. 0 for no contigs.
pub fn n50(lengths: &[usize]) -> usize {
    let mut lens = lengths.to_vec();
    lens.sort_unstable_by(|a, b| b.cmp(a));
    let total: usize = lens.iter().sum();
    let mut acc = 0;
    for l in lens {
        acc += l;
        if acc * 2 >= total {
            return l;
        }
    }
    0
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dna(s: &str) -> DnaSeq {
        DnaSeq::from_ascii(s.as_bytes())
    }

    #[test]
    fn kmers_are_strand_neutral_and_skip_ambiguous_bases() {
        let fwd = canonical_kmers(&[dna("ACGTTGCA")], 4);
        let rev = canonical_kmers(&[dna("ACGTTGCA").reverse_complement()], 4);
        assert_eq!(fwd, rev);
        // ACGT, CGTT, GTTG, TTGC, TGCA: ACGT and TGCA are their own
        // reverse complements, CGTT/AACG, GTTG/CAAC, TTGC/GCAA are distinct.
        assert_eq!(fwd.len(), 5);
        // The N breaks every window that would span it.
        assert_eq!(canonical_kmers(&[dna("ACGNACG")], 4).len(), 0);
        assert_eq!(canonical_kmers(&[dna("ACGTNACGT")], 4).len(), 1);
    }

    #[test]
    fn precision_and_recall_on_hand_made_sequences() {
        let reference = [dna("AACAGGTCAT")]; // 7 distinct canonical 4-mers
        assert_eq!(canonical_kmers(&reference, 4).len(), 7);
        // A perfect sub-contig: all of its 4-mers are in the reference,
        // covering 3 of 7.
        let (p, r) = kmer_precision_recall(&[dna("AACAGG")], &reference, 4);
        assert_eq!((p, r), (1.0, 3.0 / 7.0));
        // The reverse strand scores the same.
        let (p, r) = kmer_precision_recall(&[dna("AACAGG").reverse_complement()], &reference, 4);
        assert_eq!((p, r), (1.0, 3.0 / 7.0));
        // One wrong base at the end: AACAGA has AACA, ACAG (in) and CAGA (out).
        let (p, r) = kmer_precision_recall(&[dna("AACAGA")], &reference, 4);
        assert_eq!((p, r), (2.0 / 3.0, 2.0 / 7.0));
        assert_eq!(kmer_precision_recall(&[], &reference, 4), (0.0, 0.0));
    }

    #[test]
    fn n50_known_answers() {
        assert_eq!(n50(&[]), 0);
        assert_eq!(n50(&[7]), 7);
        // total 100: 40 < 50, 40 + 30 >= 50.
        assert_eq!(n50(&[10, 40, 20, 30]), 30);
        // Exactly half is reached by the first contig.
        assert_eq!(n50(&[50, 25, 25]), 50);
    }
}

//! Suffix enumeration and w-prefix bucketing.
//!
//! §6: "The first step is to sort all suffixes based on their w-length
//! prefixes … each processor partitions the suffixes of its fragments
//! into |Σ|^w buckets based on their first w characters." A bucket key is
//! the 2-bit-packed w-mer; only suffixes with at least `w` unmasked
//! characters remaining in their run can seed a maximal match of length
//! ≥ ψ ≥ w, so shorter suffixes are dropped at enumeration time. Buckets
//! are never materialised one by one: suffixes live in one flat
//! `Vec<(key, Suffix)>` sorted by key, and a bucket is a run of it.

use pgasm_seq::{FragmentStore, KmerIter, SeqId};
use serde::{Deserialize, Serialize};

/// One suffix of one stored sequence, bounded by its unmasked run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Suffix {
    /// The sequence the suffix belongs to.
    pub seq: u32,
    /// Start position within the sequence.
    pub pos: u32,
    /// Remaining length: distance from `pos` to the end of the unmasked
    /// run containing it (matches cannot cross masked bases).
    pub rem: u32,
}

/// Enumerate `(bucket_key, suffix)` for the given sequences of `store`:
/// every suffix position whose next `w` bases are unmasked, keyed by the
/// packed w-mer starting there.
pub fn enumerate_suffixes<'a>(
    store: &'a FragmentStore,
    seqs: impl IntoIterator<Item = SeqId> + 'a,
    w: usize,
) -> impl Iterator<Item = (u64, Suffix)> + 'a {
    seqs.into_iter().flat_map(move |sid| {
        let codes = store.get(sid);
        // Precompute run end for each position by scanning runs.
        RunSuffixes::new(codes, w)
            .map(move |(pos, rem, key)| (key, Suffix { seq: sid.0, pos: pos as u32, rem: rem as u32 }))
    })
}

/// Iterator over (pos, run_remaining, packed w-mer) for one sequence.
struct RunSuffixes<'a> {
    codes: &'a [u8],
    kmers: KmerIter<'a>,
    // Cache of run ends: computed lazily as we pass positions.
    run_end: usize,
}

impl<'a> RunSuffixes<'a> {
    fn new(codes: &'a [u8], w: usize) -> Self {
        RunSuffixes { codes, kmers: KmerIter::new(codes, w), run_end: 0 }
    }
}

impl Iterator for RunSuffixes<'_> {
    type Item = (usize, usize, u64);

    fn next(&mut self) -> Option<(usize, usize, u64)> {
        let (pos, key) = self.kmers.next()?;
        if pos >= self.run_end {
            // Find the end of the unmasked run containing `pos`.
            let mut e = pos;
            while e < self.codes.len() && pgasm_seq::is_base_code(self.codes[e]) {
                e += 1;
            }
            self.run_end = e;
        }
        Some((pos, self.run_end - pos, key))
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
        assert_eq!(sufs[0].1, Suffix { seq: 0, pos: 0, rem: 7 });
        assert_eq!(sufs[4].1, Suffix { seq: 0, pos: 4, rem: 3 });
    }

    #[test]
    fn masked_runs_bound_rem() {
        let mut s = DnaSeq::from("ACGTXACGT");
        s.mask_range(4, 5);
        let st = FragmentStore::from_seqs(vec![s]);
        let sufs: Vec<_> = enumerate_suffixes(&st, [SeqId(0)], 3).collect();
        // First run [0,4): positions 0,1 (rem 4,3); second run [5,9): 5,6.
        let rems: Vec<(u32, u32)> = sufs.iter().map(|(_, s)| (s.pos, s.rem)).collect();
        assert_eq!(rems, vec![(0, 4), (1, 3), (5, 4), (6, 3)]);
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

//! The unfiltered recursive character-partitioning builder, kept as a
//! test oracle: §6 read literally — suffixes bucketed on a short
//! `w`-prefix, *every* bucket of two or more built, one fresh `Vec` per
//! character class per level. The production forest holds only the
//! buckets that can emit a pair, so the two are not equal node for node;
//! the property tests hold their *pair streams* equal, pair for pair and
//! in order, in both generation modes.

use super::*;
use crate::pairs::{GenMode, PairGenerator, PromisingPair};
use crate::suffix::{enumerate_suffixes, sort_by_bucket};
use pgasm_seq::{DnaSeq, SeqId};
use proptest::prelude::*;

impl Gst {
    /// The forest over every run of two or more suffixes of `sorted`,
    /// keyed on their `w`-prefix, by recursive partitioning.
    fn build_reference<T: TextSource>(text: &T, sorted: &[(u64, Suffix)], config: GstConfig, w: u32) -> Gst {
        let runs = sorted.chunk_by(|a, b| a.0 == b.0).filter(|run| run.len() >= 2);
        Gst::build_buckets(text.num_seqs(), sorted.len(), runs, config, |gst, run| {
            gst.build_rec(text, run.iter().map(|&(_, s)| s).collect(), w);
        })
    }

    /// Recursively build the subtree for `sufs`, which all share their
    /// first `depth` characters. Returns the subtree root node id.
    fn build_rec<T: TextSource>(&mut self, text: &T, mut sufs: Vec<Suffix>, mut depth: u32) -> u32 {
        loop {
            if sufs.len() == 1 {
                return self.new_leaf(sufs[0].rem, sufs.iter().copied());
            }
            // Partition by the character at `depth` (or exhaustion).
            let mut groups: [Vec<Suffix>; SIGMA] = [Vec::new(), Vec::new(), Vec::new(), Vec::new()];
            let mut exhausted: Vec<Suffix> = Vec::new();
            for &s in &sufs {
                if s.rem == depth {
                    exhausted.push(s);
                } else {
                    let c = text.seq_codes(s.seq)[(s.pos + depth) as usize];
                    assert!(pgasm_seq::is_base_code(c), "suffix runs past its unmasked run");
                    groups[c as usize].push(s);
                }
            }
            let nonempty = groups.iter().filter(|g| !g.is_empty()).count();
            if exhausted.is_empty() && nonempty == 1 {
                // Path compression: single outgoing edge, extend depth.
                sufs = groups.into_iter().find(|g| !g.is_empty()).expect("nonempty == 1");
                depth += 1;
                continue;
            }
            if nonempty == 0 {
                // All suffixes identical and exhausted: one leaf.
                return self.new_leaf(depth, exhausted.iter().copied());
            }
            // Branching point (or exhaustion alongside continuation):
            // create an internal node at `depth`.
            let node = self.new_internal(depth);
            let mut last_child = NONE;
            if !exhausted.is_empty() {
                let leaf = self.new_leaf(depth, exhausted.iter().copied());
                self.attach_child(node, leaf, &mut last_child);
            }
            for g in groups {
                if !g.is_empty() {
                    let child = self.build_rec(text, g, depth + 1);
                    self.attach_child(node, child, &mut last_child);
                }
            }
            return node;
        }
    }
}

/// The whole pair stream of `gst`, in generation order.
fn stream(gst: Gst, mode: GenMode) -> Vec<PromisingPair> {
    PairGenerator::new(gst, mode, |_, _| false).collect()
}

fn all_suffixes(store: &FragmentStore, bucket_len: usize) -> Vec<(u64, Suffix)> {
    enumerate_suffixes(store, (0..store.num_seqs() as u32).map(SeqId), bucket_len).collect()
}

/// The oracle recurses once per character of a low-complexity read, so
/// the comparisons run on a thread with room for that.
fn on_a_deep_stack(body: impl FnOnce() + Send + 'static) {
    let worker = std::thread::Builder::new().stack_size(256 << 20).spawn(body).expect("spawn");
    if let Err(panic) = worker.join() {
        std::panic::resume_unwind(panic);
    }
}

fn dna(len: std::ops::Range<usize>) -> impl Strategy<Value = DnaSeq> {
    proptest::collection::vec(0u8..4, len).prop_map(DnaSeq::from_codes)
}

/// `prop_pairs.rs`'s fragment set — random reads over a small alphabet
/// region with planted copies and masked ranges — extended with what
/// the builders must agree on at the edges: duplicated reads, a fully
/// masked read, reads shorter than ψ, and (one case in four) a poly-A
/// or dinucleotide-repeat read of ≥ 2 kb.
fn fragment_set() -> impl Strategy<Value = FragmentStore> {
    let planted = (
        proptest::collection::vec(dna(12..40), 2..7),
        proptest::collection::vec(
            (any::<prop::sample::Index>(), any::<prop::sample::Index>(), 0usize..20),
            0..4,
        ),
        proptest::collection::vec((any::<prop::sample::Index>(), 0usize..30, 1usize..6), 0..3),
    );
    let edges = (
        proptest::collection::vec(any::<prop::sample::Index>(), 0..3),
        proptest::collection::vec(any::<prop::sample::Index>(), 0..2),
        proptest::collection::vec(dna(0..4), 0..3),
        (0usize..8, 2_000usize..2_200),
    );
    (planted, edges).prop_map(|((mut seqs, copies, masks), (dups, masked, short, (repeat, repeat_len)))| {
        for (src, dst, off) in copies {
            let (si, di) = (src.index(seqs.len()), dst.index(seqs.len()));
            if si == di {
                continue;
            }
            let s = &seqs[si];
            let start = off.min(s.len().saturating_sub(1));
            let window = s.codes()[start..(start + 15).min(s.len())].to_vec();
            for c in window {
                seqs[di].push_code(c);
            }
        }
        for (idx, start, len) in masks {
            let i = idx.index(seqs.len());
            let l = seqs[i].len();
            let s = start.min(l - 1);
            seqs[i].mask_range(s, (s + len).min(l));
        }
        for idx in dups {
            seqs.push(seqs[idx.index(seqs.len())].clone());
        }
        for idx in masked {
            let i = idx.index(seqs.len());
            let l = seqs[i].len();
            seqs[i].mask_range(0, l);
        }
        seqs.extend(short);
        match repeat {
            0 => seqs.push(DnaSeq::from_codes(vec![0; repeat_len])),
            1 => seqs.push(DnaSeq::from_codes((0..repeat_len).map(|i| [0, 1][i % 2]).collect())),
            _ => {}
        }
        FragmentStore::from_seqs(seqs)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Admission drops no pair and reorders none: the production build
    /// (ψ-prefix buckets, hash pre-filter, admitted runs only) generates
    /// the stream of the oracle that builds every w-prefix bucket.
    #[test]
    fn production_stream_equals_the_unfiltered_reference(st in fragment_set(), w in 1usize..=4, extra in 0usize..=8) {
        let psi = (w + extra).min(9);
        let config = GstConfig { psi };
        on_a_deep_stack(move || {
            let mut sorted = all_suffixes(&st, w);
            sort_by_bucket(&mut sorted);
            for mode in [GenMode::AllMatches, GenMode::DupElim] {
                let reference = Gst::build_reference(&st, &sorted, config, w as u32);
                assert_eq!(stream(Gst::build(&st, config), mode), stream(reference, mode), "{mode:?}");
            }
        });
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Both strands through one slot: on a double-stranded store the
    /// production build, which walks the forward strand only, makes byte
    /// for byte the forest the shared builder makes of every suffix of
    /// both strands, and generates the oracle's stream.
    #[test]
    fn two_strand_build_is_the_build_of_every_suffix(st in fragment_set(), psi in 1usize..=9) {
        let ds = st.with_reverse_complements();
        let config = GstConfig { psi };
        on_a_deep_stack(move || {
            let mut sorted = all_suffixes(&ds, psi);
            sort_by_bucket(&mut sorted);
            let built = Gst::build(&ds, config);
            assert!(built.encode() == Gst::build_from_sorted(&ds, &sorted, config).encode());
            let reference = Gst::build_reference(&ds, &sorted, config, psi as u32);
            assert_eq!(stream(built, GenMode::DupElim), stream(reference, GenMode::DupElim));
        });
    }

    /// The per-rank path at p ∈ {2, 3}: each rank builds the buckets it
    /// owns from suffixes that arrive grouped by source rank, not in
    /// `(seq, pos)` order. Given that same in-bucket order the rank's
    /// stream is the oracle's, and the ranks' admitted buckets are the
    /// serial build's.
    #[test]
    fn per_rank_input_order_generates_the_reference_stream(st in fragment_set(), psi in 1usize..=9) {
        let config = GstConfig { psi };
        on_a_deep_stack(move || {
            let serial = Gst::build(&st, config);
            for p in [2u64, 3] {
                let mut buckets = 0;
                for rank in 0..p {
                    let mut received = Vec::new();
                    for source in 0..p {
                        let owned = (0..st.num_seqs() as u32).filter(|s| (*s as u64 * 7 + 3) % 5 % p == source);
                        received.extend(
                            enumerate_suffixes(&st, owned.map(SeqId), psi).filter(|(key, _)| key % p == rank),
                        );
                    }
                    sort_by_bucket(&mut received);
                    for mode in [GenMode::AllMatches, GenMode::DupElim] {
                        let forest = Gst::build_from_sorted(&st, &received, config);
                        let reference = Gst::build_reference(&st, &received, config, psi as u32);
                        assert_eq!(stream(forest, mode), stream(reference, mode), "rank {rank} of {p}, {mode:?}");
                    }
                    buckets += Gst::build_from_sorted(&st, &received, config).stats.buckets;
                }
                assert_eq!(buckets, serial.stats.buckets, "p = {p}");
            }
        });
    }
}

/// A 20 kb poly-A read is one bucket (its first suffix is λ, the rest
/// follow an A) whose tree is a 20 000-deep chain:
/// the recursive builder re-partitioned the whole bucket per level, and
/// a builder that rescans a range for its minimum LCP would too. The
/// sort sees reversed input and the two passes touch each suffix a
/// constant number of times.
#[test]
fn poly_a_builds_in_linear_steps() {
    let st = FragmentStore::from_seqs(vec![DnaSeq::from_codes(vec![0; 20_000])]);
    let config = GstConfig::default();
    let mut sorted = all_suffixes(&st, config.bucket_len());
    sort_by_bucket(&mut sorted);
    let mut scratch = BucketScratch::default();
    let gst = Gst::build_buckets(1, sorted.len(), admitted_runs(&sorted), config, |gst, run| {
        scratch.build_bucket(gst, &st, run)
    });
    let steps = scratch.steps;
    let n = sorted.len() as u64;
    assert_eq!(n, 20_000 - config.bucket_len() as u64 + 1);
    assert_eq!(gst.stats.nodes as u64, 2 * n - 1, "a chain: one exhausted leaf per internal node");
    assert_eq!(gst.stats.max_depth, 20_000);
    assert!(steps <= 64 * n, "{steps} steps for {n} suffixes");
}

//! Distributed GST construction (paper §6), on the ranks of the cluster
//! stage: ranks `1..p` own the fragments and build, and rank 0, the
//! §7 master, owns none and only takes part in the collectives. Each
//! rank reports what it did as counters of its rank channel.
//!
//! Phases, per rank:
//!
//! 1. **Count**: fold the windows of the rank's own fragments into a
//!    [`CountRun`]: one `u64` per window — a hash of its canonical word
//!    above the classes its suffix and its twin fold to — sorted in
//!    place, equal hashes folded. Its size follows the rank's own
//!    windows, not the store. One walk of each forward strand serves the
//!    reverse strand too, so a fragment's two strands share an owner
//!    ([`compute_owners`]).
//! 2. **Reduce**: the hash space is cut into one contiguous range per
//!    builder (`hash_range`). Each rank sends every other builder the
//!    entries of its range as `(gap, state)` records; the builder merges
//!    the parts k-way straight from the payloads, and its own entries
//!    straight from its run ([`merge_counts`]), and answers each part
//!    with a 2-bit verdict per record. Now every rank knows, for each of
//!    its own windows, what one run over every window of the store says:
//!    whether its suffix's bucket can pair. It keeps the hashes that can,
//!    and drops its run. ERA's counting scan before building, and
//!    HipMer's "keep singletons off the wire".
//! 3. **Redistribute**: each rank walks its windows again and keeps the
//!    suffixes whose half of their hash's verdict is set. A bucket's
//!    builder is a static hash of its key ([`bucket_owner`]), so no
//!    assignment is negotiated; the suffixes travel to their builder with
//!    their left class, one `(key, count, suffixes)` record per run, via
//!    the paper's customised all-to-all built from p − 1 point-to-point
//!    rounds (bounding send-buffer space). The receiver concatenates the
//!    records in source-rank order and sorts them by key (stably:
//!    in-bucket order is source-rank order). Each of its buckets is now
//!    whole and is admitted or dropped exactly ([`admitted_runs`]) from
//!    the records alone — no text is needed. The count is exact per
//!    word, so what arrives is what is indexed, save the rare suffix of a
//!    word whose hash another word shares.
//! 4. **Fetch fragments**: each builder requests the fragment sequences
//!    its *admitted* suffixes refer to "through two collective
//!    communication steps — the first to request the processors that
//!    have the required fragments, and the second to service the
//!    request".
//! 5. **Build**: each admitted bucket becomes a compacted-trie subtree
//!    of the conceptual global GST, by the same sort + LCP builder as
//!    the serial path ([`Gst::build_from_sorted`]).
//!
//! The merged count is the whole store's, so the suffixes shipped over
//! all ranks do not depend on p, nor do the buckets admitted from them
//! (exactly the serial build's), the forests, pairs and partitions.
//!
//! Ownership discipline: a rank reads only its *own* fragments from the
//! shared store; every foreign byte it uses arrives through a message,
//! so the traffic counters are exact.

use crate::engine::Counters;
use pgasm_gst::{
    admitted_by_verdict, admitted_runs, for_each_window, merge_counts, paired_hashes, sort_by_bucket,
    sort_walk_by_bucket, CountRun, Gst, GstConfig, Suffix, TextSource, TwinClasses, COUNT_HASH_BITS,
};
use pgasm_mpisim::{thread_cpu_seconds, Comm};
use pgasm_seq::wire::{checked_len, Reader, WireError, Writer};
use pgasm_seq::{FragmentStore, SeqId, WordMap};
use pgasm_telemetry::names;
use pgasm_telemetry::trace::TraceCategory;
use std::collections::HashMap;
use std::ops::Range;

/// Per-rank text access: own fragments come from the shared store,
/// foreign fragments from the fetched copies.
struct LocalText<'s> {
    store: &'s FragmentStore,
    owner: &'s [u32],
    rank: usize,
    fetched: HashMap<u32, Vec<u8>>,
}

impl TextSource for LocalText<'_> {
    fn seq_codes(&self, seq: u32) -> &[u8] {
        if self.owner[seq as usize] as usize == self.rank {
            self.store.get(SeqId(seq))
        } else {
            self.fetched.get(&seq).map(|v| v.as_slice()).expect("fragment was not fetched for a local suffix")
        }
    }

    fn num_seqs(&self) -> usize {
        self.store.num_seqs()
    }
}

/// Run inside a rank of `p ≥ 2`: build this rank's portion of the
/// distributed GST, ranks `1..p` building and rank 0 (the master) only
/// taking part in the collectives.
///
/// `owner[seq]` gives the rank owning each stored sequence
/// ([`compute_owners`]); sequences owned by this rank are counted and
/// filtered here. Returns the local forest (suffixes carry *global*
/// sequence ids) and the rank's counters: the forest's
/// `gst_suffixes_enumerated` (suffixes of the rank's own fragments; over
/// all ranks, every suffix of the store once), `gst_suffixes_shipped`
/// (the suffixes it sent in phase 3; over all ranks, the indexed ones
/// and the rare hash stray), `gst_suffixes_indexed` and `gst_nodes`, the
/// foreign fragments it fetched, and `gst_compute_ns`, its pure
/// computation in *thread CPU time* — the count and filter passes, the
/// merge of the hashes it owns, the sort of the suffixes it received, and
/// trie building; ranks may timeshare cores, and wall intervals would
/// then overstate it.
pub fn rank_build_gst(
    comm: &mut Comm,
    store: &FragmentStore,
    owner: &[u32],
    config: GstConfig,
) -> (Gst, Counters) {
    let rank = comm.rank();
    let p = comm.size();
    let mut compute = 0.0f64;
    let (mut mine, enumerated, shipped) = ship_survivors(comm, store, owner, config, &mut compute);

    // Phase 4: fetch the foreign fragments of admitted buckets (two
    // collective steps). The stable sort keeps the arrival (source-rank)
    // order within a bucket.
    comm.tracer_mut().begin(TraceCategory::Gst, names::EV_GST_FETCH, &[]);
    let t = thread_cpu_seconds();
    sort_by_bucket(&mut mine);
    let mut needed: Vec<u32> = admitted_runs(&mine)
        .flatten()
        .map(|(_, s)| s.seq)
        .filter(|&s| owner[s as usize] as usize != rank)
        .collect();
    needed.sort_unstable();
    needed.dedup();
    compute += thread_cpu_seconds() - t;
    let mut requests: Vec<Writer> = (0..p).map(|_| Writer::new()).collect();
    for &s in &needed {
        requests[owner[s as usize] as usize].put_u32(s);
    }
    let incoming_requests = comm.all_to_allv(requests.into_iter().map(|w| w.finish()).collect());
    let mut responses: Vec<Writer> = (0..p).map(|_| Writer::new()).collect();
    for (src, payload) in incoming_requests.into_iter().enumerate() {
        read_records(&payload, "fragment requests", |r| {
            let s = r.get_u32()?;
            debug_assert_eq!(owner[s as usize] as usize, rank, "request sent to wrong owner");
            responses[src].put_u32(s).put_bytes(store.get(SeqId(s)));
            Ok(())
        });
    }
    let incoming_frags = comm.all_to_allv(responses.into_iter().map(|w| w.finish()).collect());
    let mut fetched: HashMap<u32, Vec<u8>> = HashMap::new();
    for payload in incoming_frags {
        read_records(&payload, "fetched fragments", |r| {
            fetched.insert(r.get_u32()?, r.get_bytes()?.to_vec());
            Ok(())
        });
    }
    let fragments_fetched = fetched.len();
    let text = LocalText { store, owner, rank, fetched };
    comm.tracer_mut().end(TraceCategory::Gst, names::EV_GST_FETCH);

    // Phase 5: build the local forest.
    comm.tracer_mut().begin(TraceCategory::Gst, names::EV_GST_BUILD, &[]);
    let t = thread_cpu_seconds();
    let gst = Gst::build_from_sorted(&text, &mine, config, enumerated);
    drop(mine);
    compute += thread_cpu_seconds() - t;
    comm.tracer_mut().end(TraceCategory::Gst, names::EV_GST_BUILD);

    let stats = gst.stats();
    let counters = vec![
        (names::GST_SUFFIXES_ENUMERATED, stats.enumerated as u64),
        (names::GST_SUFFIXES_SHIPPED, shipped as u64),
        (names::GST_SUFFIXES_INDEXED, stats.suffixes as u64),
        (names::GST_NODES, stats.nodes as u64),
        (names::GST_FRAGMENTS_FETCHED, fragments_fetched as u64),
        (names::GST_COMPUTE_NS, (compute * 1e9).round() as u64),
    ];
    (gst, counters)
}

/// Phases 1–3: count, reduce and redistribute. Returns the suffixes
/// of the buckets this rank builds, as received (source-rank order), the
/// number of suffixes of its own fragments and the number of its own
/// suffixes it sent. Computation is added to `compute` in thread-CPU
/// seconds.
fn ship_survivors(
    comm: &mut Comm,
    store: &FragmentStore,
    owner: &[u32],
    config: GstConfig,
    compute: &mut f64,
) -> (Vec<(u64, Suffix)>, usize, usize) {
    let rank = comm.rank();
    let p = comm.size();
    assert!(p >= 2, "need a master and at least one builder rank");
    let k = config.bucket_len();
    let own = |s: SeqId| owner[s.0 as usize] as usize == rank;

    // Phase 1: count own windows.
    comm.tracer_mut().begin(TraceCategory::Gst, names::EV_GST_COUNT, &[]);
    let t = thread_cpu_seconds();
    let run = CountRun::new(store, k, own);
    *compute += thread_cpu_seconds() - t;
    comm.tracer_mut().end(TraceCategory::Gst, names::EV_GST_COUNT);

    // Phase 2: reduce.
    comm.tracer_mut().begin(TraceCategory::Gst, names::EV_GST_REDUCE, &[]);
    let paired = judge_counts(comm, &run, compute);
    let enumerated = run.enumerated();
    drop(run);
    comm.tracer_mut().end(TraceCategory::Gst, names::EV_GST_REDUCE);

    // Phase 3: filter own windows and redistribute what is kept
    // (customised all-to-all, §6). The bucket → builder assignment is
    // *static* (a hash of the bucket key), relying on the paper's
    // observation that for diverse sequence data the buckets are close
    // to uniformly occupied ("a value between 10 and 12 for w can be
    // expected to generate millions of buckets sufficient to be
    // distributed in a load balanced manner"; ψ-mer keys only spread
    // finer). No communication is needed to agree on owners.
    comm.tracer_mut().begin(TraceCategory::Gst, names::EV_GST_REDISTRIBUTE, &[]);
    let t = thread_cpu_seconds();
    let mut local: Vec<(u64, Suffix)> = Vec::new();
    for_each_window(store, k, own, |w| local.extend(admitted_by_verdict(w, &paired)));
    let shipped = local.len();
    drop(paired);
    sort_walk_by_bucket(&mut local);
    *compute += thread_cpu_seconds() - t;
    let mut per_dest: Vec<Writer> = (0..p).map(|_| Writer::new()).collect();
    for run in local.chunk_by(|a, b| a.0 == b.0) {
        let key = run[0].0;
        let w = &mut per_dest[bucket_owner(key, p)];
        w.put_u64(key);
        w.put_u32(checked_len(run.len()));
        for (_, s) in run {
            w.put_u32(s.seq).put_u32(s.pos).put_u32(s.rem).put_u8(s.left);
        }
    }
    drop(local);
    let received = comm.all_to_allv(per_dest.into_iter().map(|w| w.finish()).collect());
    let mut mine: Vec<(u64, Suffix)> = Vec::new();
    for payload in received {
        read_records(&payload, "redistributed suffixes", |r| {
            let key = r.get_u64()?;
            for _ in 0..r.get_u32()? {
                mine.push((
                    key,
                    Suffix { seq: r.get_u32()?, pos: r.get_u32()?, rem: r.get_u32()?, left: r.get_u8()? },
                ));
            }
            Ok(())
        });
    }
    comm.tracer_mut().end(TraceCategory::Gst, names::EV_GST_REDISTRIBUTE);
    (mine, enumerated, shipped)
}

/// Phase 2: the hashes of `run`, this rank's count, whose merged
/// classes can pair in either half, with their verdicts. Every rank sends
/// each other builder the entries of its [`hash_range`] as `(gap, state)`
/// records, and the builder merges the parts straight from the payloads
/// — its own entries straight from its run — answering each part with
/// one 2-bit verdict per record, four to a byte, in the order sent. Rank
/// 0 owns no range and no window: its parts and answers are empty.
fn judge_counts(comm: &mut Comm, run: &CountRun, compute: &mut f64) -> WordMap<u8> {
    let (rank, p) = (comm.rank(), comm.size());
    let t = thread_cpu_seconds();
    let parts = (0..p)
        .map(|dest| {
            let range = if dest == rank { 0..0 } else { hash_range(dest, p) };
            let (mut part, mut next) = (Writer::new(), range.start);
            for (hash, classes) in run.entries(range) {
                put_gap(&mut part, hash - next);
                part.put_u8(classes.to_byte());
                next = hash + 1;
            }
            part.finish()
        })
        .collect();
    *compute += thread_cpu_seconds() - t;
    let parts = comm.all_to_allv(parts);

    let t = thread_cpu_seconds();
    let mine = hash_range(rank, p);
    let answers = merge_counts(parts.iter().enumerate().map(
        |(src, part)| -> Box<dyn Iterator<Item = (u64, TwinClasses)> + '_> {
            if src == rank {
                Box::new(run.entries(mine.clone()))
            } else {
                Box::new(count_records(part, mine.clone()))
            }
        },
    ));
    drop(parts);
    *compute += thread_cpu_seconds() - t;
    let answers = comm.all_to_allv(answers);

    let t = thread_cpu_seconds();
    let mut paired = WordMap::default();
    for (dest, answer) in answers.iter().enumerate() {
        let sent = run.entries(hash_range(dest, p));
        assert_eq!(answer.len(), sent.len().div_ceil(4), "verdicts from rank {dest}: one per record sent");
        paired.extend(paired_hashes(sent, answer));
    }
    *compute += thread_cpu_seconds() - t;
    paired
}

/// The count hashes builder `rank` of `p` merges: the `(rank − 1)`-th of
/// `p − 1` contiguous ranges of the hash space, and none for rank 0.
fn hash_range(rank: usize, p: usize) -> Range<u64> {
    let Some(b) = (rank as u64).checked_sub(1) else { return 0..0 };
    let (space, builders) = (1u64 << COUNT_HASH_BITS, p as u64 - 1);
    space * b / builders..space * (b + 1) / builders
}

/// Append a hash's distance from the one after the previous hash sent
/// (or from its range's start): seven bits a byte, low first, the high
/// bit set on every byte but the last.
fn put_gap(w: &mut Writer, mut gap: u64) {
    while gap >= 0x80 {
        w.put_u8(gap as u8 | 0x80);
        gap >>= 7;
    }
    w.put_u8(gap as u8);
}

/// Decode a count part — `(gap, state)` records of hashes in `range` —
/// lazily, one `(hash, classes)` at a time.
///
/// # Panics
/// As [`read_records`] does, naming the payload: on a gap that
/// overflows, a byte that is not a state or a hash outside `range`.
fn count_records(payload: &[u8], range: Range<u64>) -> impl Iterator<Item = (u64, TwinClasses)> + '_ {
    let (mut rest, mut next) = (payload, range.start);
    std::iter::from_fn(move || {
        (!rest.is_empty()).then(|| {
            let record = read_count(&mut rest, next, &range).unwrap_or_else(|e| panic!("count parts: {e}"));
            next = record.0 + 1;
            record
        })
    })
}

/// The record at the front of `rest`, which it then drops; `next` is the
/// hash its gap counts from. This decode is most of a builder's merge, so
/// the gap's end is found first and its bytes folded after, which
/// measured 3.5× faster than reading them one at a time off a [`Reader`].
fn read_count(rest: &mut &[u8], next: u64, range: &Range<u64>) -> Result<(u64, TwinClasses), WireError> {
    // Ten bytes hold 64 bits; a gap that needs more overflows.
    let Some(last) = rest.iter().take(10).position(|&byte| byte < 0x80) else {
        return Err(match rest.len() {
            have @ 0..10 => WireError::Truncated { needed: have + 1, have },
            _ => WireError::Malformed("count gap overflows"),
        });
    };
    let gap = rest[..=last].iter().rev().fold(0u64, |gap, &byte| gap << 7 | (byte & 0x7f) as u64);
    let byte = *rest.get(last + 1).ok_or(WireError::Truncated { needed: last + 2, have: rest.len() })?;
    let classes = TwinClasses::from_byte(byte).ok_or(WireError::Malformed("count state"))?;
    let hash = next.saturating_add(gap);
    if !range.contains(&hash) {
        return Err(WireError::Malformed("count outside the receiver's range"));
    }
    *rest = &rest[last + 2..];
    Ok((hash, classes))
}

/// Decode a collective's payload: `record` is applied until the payload
/// is used up.
///
/// # Panics
/// The collectives are not fault-tolerant and their payloads were
/// framed a few lines away by this module, so one that does not decode
/// is a bug here, not an input: it panics naming `what`.
fn read_records(
    payload: &[u8],
    what: &str,
    mut record: impl FnMut(&mut Reader<'_>) -> Result<(), WireError>,
) {
    let mut r = Reader::new(payload);
    while !r.is_empty() {
        record(&mut r).unwrap_or_else(|e| panic!("{what}: {e}"));
    }
}

/// Static owner of a bucket: a mixed hash of its key spread over the
/// builder ranks `1..p`.
#[inline]
pub fn bucket_owner(key: u64, p: usize) -> usize {
    // splitmix64 finaliser — decorrelates adjacent w-mer codes.
    let mut z = key.wrapping_add(0x9E3779B97F4A7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
    z ^= z >> 31;
    1 + (z % (p - 1) as u64) as usize
}

/// Assign each stored sequence an owner rank in `1..p`, balancing total
/// bases (the paper's initial N/p distribution over the builders).
/// Forward/reverse pairs stay together: a reverse strand goes where its
/// forward strand does, since the owner walks the forward one for both.
pub fn compute_owners(store: &FragmentStore, p: usize) -> Vec<u32> {
    assert!(p >= 2, "need a master and at least one builder rank");
    let parts = store.partition_by_bases(p - 1);
    let mut owner = vec![0u32; store.num_seqs()];
    for (part, seqs) in parts.iter().enumerate() {
        for &s in seqs {
            owner[s.0 as usize] = (part + 1) as u32;
        }
    }
    if store.is_double_stranded() {
        for fwd in (0..owner.len()).step_by(2) {
            owner[fwd + 1] = owner[fwd];
        }
    }
    owner
}

#[cfg(test)]
mod tests {
    use super::*;
    use pgasm_gst::{enumerate_suffixes, GenMode, PairGenerator};
    use pgasm_seq::DnaSeq;

    fn genome(seed: u64, len: usize) -> String {
        let mut x = seed.wrapping_mul(0x9E3779B97F4A7C15) | 1;
        (0..len)
            .map(|_| {
                x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                ['A', 'C', 'G', 'T'][(x >> 33) as usize % 4]
            })
            .collect()
    }

    fn read_seqs() -> Vec<DnaSeq> {
        let g = genome(1, 2000);
        let b = g.as_bytes();
        let mut seqs = Vec::new();
        let mut at = 0;
        while at + 200 <= b.len() {
            seqs.push(DnaSeq::from_ascii(&b[at..at + 200]));
            at += 90;
        }
        seqs
    }

    fn reads() -> FragmentStore {
        FragmentStore::from_seqs(read_seqs())
    }

    /// `reads()` followed by words that meet their first copies on
    /// another rank: two whole copies (λ meets λ at the read start), one
    /// with a masked base (λ mid-read) and a prefix of a fourth read.
    fn reads_and_copies() -> FragmentStore {
        let mut seqs = read_seqs();
        let mut masked = seqs[2].clone();
        masked.mask_range(60, 61);
        let prefix = DnaSeq::from_codes(seqs[3].codes()[..120].to_vec());
        seqs.extend([seqs[0].clone(), seqs[1].clone(), masked, prefix]);
        FragmentStore::from_seqs(seqs)
    }

    fn all_pairs_sorted(pairs: Vec<pgasm_gst::PromisingPair>) -> Vec<(u32, u32, u32, u32, u32)> {
        let mut v: Vec<_> = pairs.iter().map(|p| (p.a.0, p.b.0, p.a_pos, p.b_pos, p.match_len)).collect();
        v.sort_unstable();
        v
    }

    #[test]
    fn distributed_equals_serial_pairs() {
        // The union of pairs generated from the per-rank forests must
        // equal the serial GST's pairs (AllMatches mode = exact set), on
        // one to four builders beside the master.
        let store = reads().with_reverse_complements();
        let config = GstConfig { psi: 16 };
        let serial = {
            let gst = Gst::build(&store, config);
            all_pairs_sorted(PairGenerator::new(gst, GenMode::AllMatches, |_, _| false).collect())
        };
        for p in [2usize, 3, 4, 5] {
            let owner = compute_owners(&store, p);
            let owner = &owner;
            let store_ref = &store;
            let per_rank = pgasm_mpisim::run(p, move |comm| {
                let (gst, _) = rank_build_gst(comm, store_ref, owner, config);
                PairGenerator::new(gst, GenMode::AllMatches, |_, _| false).collect::<Vec<_>>()
            });
            let mut combined: Vec<_> = per_rank.into_iter().flatten().collect();
            let combined = all_pairs_sorted(std::mem::take(&mut combined));
            assert_eq!(combined, serial, "p = {p}");
        }
    }

    #[test]
    fn rank_forest_is_the_direct_build_of_its_buckets() {
        // What a rank builds through count / reduce / redistribute /
        // fetch is byte for byte what the shared builder makes of *every*
        // suffix of its buckets in the same in-bucket (source-rank)
        // order, read straight from the store — the filter drops no
        // suffix of an admitted bucket. Its `enumerated` is the number of
        // suffixes of the rank's own fragments; the master owns and
        // builds nothing.
        let store = reads().with_reverse_complements();
        let config = GstConfig { psi: 16 };
        for p in [3usize, 4] {
            let owner = compute_owners(&store, p);
            let (owner, store_ref) = (&owner, &store);
            let per_rank = pgasm_mpisim::run(p, move |comm| rank_build_gst(comm, store_ref, owner, config).0);
            let owned_by = |rank: usize| {
                (0..store.num_seqs() as u32).filter(move |&s| owner[s as usize] as usize == rank).map(SeqId)
            };
            assert_eq!(owned_by(0).count(), 0, "p = {p}: the master owns a fragment");
            for (rank, built) in per_rank.iter().enumerate() {
                let mut arrived = Vec::new();
                for source in 1..p {
                    arrived.extend(
                        enumerate_suffixes(&store, owned_by(source), config.bucket_len())
                            .filter(|(key, _)| bucket_owner(*key, p) == rank),
                    );
                }
                sort_by_bucket(&mut arrived);
                let own = enumerate_suffixes(&store, owned_by(rank), config.bucket_len()).count();
                let direct = Gst::build_from_sorted(&store, &arrived, config, own);
                assert_eq!(direct.stats().eligible_nodes > 0, rank > 0, "rank {rank} of {p}");
                assert!(*built == direct, "rank {rank} of {p}");
            }
        }
    }

    #[test]
    fn the_ranks_ship_exactly_the_indexed_suffixes() {
        // The merged count is exact per word: over all ranks, exactly the
        // suffixes of admitted buckets are sent, each to the builder of
        // its bucket, and every suffix of the store is counted once.
        let store = reads_and_copies().with_reverse_complements();
        let config = GstConfig { psi: 16 };
        let k = config.bucket_len();
        let mut all: Vec<_> =
            enumerate_suffixes(&store, (0..store.num_seqs() as u32).map(SeqId), k).collect();
        sort_by_bucket(&mut all);
        let indexed = admitted_runs(&all).collect::<Vec<_>>().concat();
        assert!(
            !indexed.is_empty() && indexed.len() < all.len() / 2,
            "{} of {} indexed",
            indexed.len(),
            all.len()
        );
        for p in [2usize, 3, 4, 5] {
            let owner = compute_owners(&store, p);
            let (owner, store_ref) = (&owner, &store);
            let per_rank = pgasm_mpisim::run(p, move |comm| {
                let mut compute = 0.0;
                ship_survivors(comm, store_ref, owner, config, &mut compute)
            });
            let mut shipped = Vec::new();
            for (rank, (received, _, _)) in per_rank.iter().enumerate() {
                assert!(
                    received.iter().all(|(key, _)| bucket_owner(*key, p) == rank),
                    "p = {p}: rank {rank} received a foreign bucket"
                );
                shipped.extend_from_slice(received);
            }
            sort_walk_by_bucket(&mut shipped);
            assert_eq!(shipped, indexed, "p = {p}");
            let enumerated: usize = per_rank.iter().map(|(_, n, _)| n).sum();
            assert_eq!(enumerated, all.len(), "p = {p}: every suffix counted once");
            let counted: usize = per_rank.iter().map(|(_, _, shipped)| shipped).sum();
            assert_eq!(counted, indexed.len(), "p = {p}: the shipped count is the indexed one");
        }
    }

    #[test]
    #[should_panic(expected = "count parts: malformed frame: count gap overflows")]
    fn a_malformed_count_part_is_a_panic_naming_it() {
        // One good record, then a gap of ten continuation bytes: more
        // than 64 bits.
        let mut part = vec![0x05, 0x11];
        part.extend([0xff; 10]);
        part.extend([0x01, 0x11]);
        let decoded: Vec<_> = count_records(&part, hash_range(1, 2)).collect();
        unreachable!("decoded {decoded:?}");
    }

    #[test]
    fn every_rank_counts_its_build_and_the_builders_move_bytes() {
        let store = reads().with_reverse_complements();
        let config = GstConfig { psi: 16 };
        let owner = compute_owners(&store, 4);
        let (owner, store_ref) = (&owner, &store);
        let per_rank = pgasm_mpisim::run(4, move |comm| {
            let (gst, counters) = rank_build_gst(comm, store_ref, owner, config);
            (gst.stats(), counters, comm.tag_stats())
        });
        let total_sent: u64 = per_rank.iter().flat_map(|(_, _, comm)| comm).map(|t| t.bytes_sent).sum();
        assert!(total_sent > 0, "distribution must move bytes");
        let names: Vec<&str> = per_rank[0].1.iter().map(|c| c.0).collect();
        for (rank, (stats, counters, _)) in per_rank.iter().enumerate() {
            assert_eq!(counters.iter().map(|c| c.0).collect::<Vec<_>>(), names, "rank {rank}");
            let value = |name| counters.iter().find(|c| c.0 == name).unwrap().1;
            assert_eq!(value(names::GST_SUFFIXES_INDEXED), stats.suffixes as u64, "rank {rank}");
            assert_eq!(value(names::GST_NODES), stats.nodes as u64, "rank {rank}");
        }
        assert!(names.contains(&names::GST_COMPUTE_NS));
        // Every builder fetched some foreign fragment (suffixes are
        // spread by content, ownership by position); the master none.
        let fetched =
            |rank: usize| per_rank[rank].1.iter().find(|c| c.0 == names::GST_FRAGMENTS_FETCHED).unwrap().1;
        assert_eq!(fetched(0), 0);
        assert!((1..4).all(|rank| fetched(rank) > 0));
    }

    #[test]
    fn owners_keep_a_fragments_two_strands_together() {
        let store = reads().with_reverse_complements();
        for p in 2..=8 {
            let owner = compute_owners(&store, p);
            assert!(owner.chunks(2).all(|pair| pair[0] == pair[1]), "p = {p}: {owner:?}");
            assert!(owner.iter().all(|&o| (1..p).contains(&(o as usize))));
        }
    }

    #[test]
    fn owners_balance_bases() {
        let store = reads();
        let owner = compute_owners(&store, 5);
        let mut loads = [0usize; 5];
        for (i, &o) in owner.iter().enumerate() {
            loads[o as usize] += store.len_of(SeqId(i as u32));
        }
        assert_eq!(loads[0], 0, "the master owns nothing");
        let max = *loads[1..].iter().max().unwrap();
        let min = *loads[1..].iter().min().unwrap();
        assert!(max - min <= 400, "imbalanced: {loads:?}");
    }
}

//! Distributed GST construction (paper §6).
//!
//! Phases, per rank:
//!
//! 1. **Count**: fold the windows of the rank's own fragments into a
//!    [`SlotTable`], a bare hash of each window's word into a slot space
//!    sized from the whole store, so a slot means the same on every rank
//!    whichever words the rank saw. One walk of each forward strand
//!    serves the reverse strand too, so a fragment's two strands share
//!    an owner ([`compute_owners`]).
//! 2. **Reduce**: the slots are split into one contiguous range per
//!    builder ([`slot_range`]). Each rank sends the non-empty slots of
//!    every other builder's range, sparsely, to that builder, which
//!    [merges](pgasm_gst::TwinClasses::merge) them into its own and
//!    answers each sender with a 2-bit verdict per slot it sent. Now
//!    every rank's table says, for each of its own windows, what one
//!    table folding every window of the store would say: which suffixes
//!    may sit in an admitted bucket.
//!    ERA's counting scan before building, and HipMer's "keep
//!    singletons off the wire".
//! 3. **Redistribute**: each rank walks its windows again and keeps the
//!    survivors only. A bucket's builder is a static hash of its key
//!    ([`bucket_owner`]), so no assignment is negotiated; survivors
//!    travel to their builder with their left class, one `(key, count,
//!    suffixes)` record per run, via the paper's customised all-to-all
//!    built from p − 1 point-to-point rounds (bounding send-buffer
//!    space). The receiver concatenates the records in source-rank
//!    order, folds them by bucket key into an [`AdmissionTable`] sized
//!    for what it received and keeps the suffixes whose key can pair
//!    (every survivor of a key is here; `retain` keeps their order),
//!    then sorts the rest by key again (stably: in-bucket order is
//!    source-rank order). Now whole, each bucket is admitted or dropped
//!    exactly ([`admitted_runs`]) from the records alone — no text is
//!    needed.
//! 4. **Fetch fragments**: each builder requests the fragment sequences
//!    its *admitted* suffixes refer to "through two collective
//!    communication steps — the first to request the processors that
//!    have the required fragments, and the second to service the
//!    request".
//! 5. **Build**: each admitted bucket becomes a compacted-trie subtree
//!    of the conceptual global GST, by the same sort + LCP builder as
//!    the serial path ([`Gst::build_from_sorted`]).
//!
//! The merged table is the whole store's, so the survivors shipped over
//! all ranks do not depend on p, nor do the buckets admitted from them
//! (exactly the serial build's), the forests, pairs and partitions.
//!
//! Ownership discipline: a rank reads only its *own* fragments from the
//! shared store; every foreign byte it uses arrives through a message,
//! so the traffic counters are exact.

use pgasm_gst::{
    admitted_runs, for_each_window, sort_by_bucket, sort_walk_by_bucket, AdmissionTable, Gst, GstConfig,
    GstStats, SlotTable, Suffix, TextSource, TwinClasses,
};
use pgasm_mpisim::{thread_cpu_seconds, Comm, CostModel};
use pgasm_seq::wire::{checked_len, Reader, WireError, Writer};
use pgasm_seq::{FragmentStore, SeqId};
use pgasm_telemetry::trace::TraceCategory;
use pgasm_telemetry::{names, TagStat};
use std::collections::HashMap;
use std::ops::Range;

/// Per-rank text access: own fragments come from the shared store,
/// foreign fragments from the fetched copies.
pub struct LocalText<'s> {
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

/// Timing and size report of one rank's construction. Its traffic is
/// the rank's own record, `Comm::tag_stats`.
#[derive(Debug, Clone, Copy, Default)]
pub struct RankGstReport {
    /// Seconds of pure computation: the count and filter passes, the
    /// merge of the slots this rank owns, the admission and sort of the
    /// suffixes it received, and trie building.
    pub compute_seconds: f64,
    /// The local forest's statistics: suffixes of this rank's own
    /// fragments (`enumerated`; over all ranks, every suffix of the store
    /// once), suffixes it admitted and nodes it built.
    pub gst: GstStats,
    /// Foreign fragments fetched.
    pub fragments_fetched: usize,
}

/// Aggregated report over all ranks (the Fig. 5 data).
#[derive(Debug, Clone, Default)]
pub struct DistributedGstReport {
    /// Per-rank breakdowns.
    pub per_rank: Vec<RankGstReport>,
    /// Per-rank traffic rows of the build, read off each rank's `Comm`
    /// once it is done.
    pub comm: Vec<Vec<TagStat>>,
}

impl DistributedGstReport {
    /// Maximum per-rank computation time (the parallel step completes
    /// when the slowest rank does).
    pub fn max_compute_seconds(&self) -> f64 {
        self.per_rank.iter().map(|r| r.compute_seconds).fold(0.0, f64::max)
    }

    /// Maximum per-rank modelled communication time: a rank's
    /// occupancy, its messages and bytes sent and received counted over
    /// its rows first, then priced once with the BlueGene/L model (a
    /// rank pays latency on both ends in co-processor mode). Summed
    /// over ranks this would count every transfer twice; the rows'
    /// `modelled_seconds` price each message once, on its sender.
    pub fn max_modelled_comm_seconds(&self) -> f64 {
        let model = CostModel::BLUEGENE_L;
        let occupancy = |rows: &Vec<TagStat>| {
            let msgs: u64 = rows.iter().map(|t| t.msgs_sent + t.msgs_recv).sum();
            let bytes: u64 = rows.iter().map(|t| t.bytes_sent + t.bytes_recv).sum();
            msgs as f64 * model.latency_s + bytes as f64 / model.bandwidth_bytes_per_s
        };
        self.comm.iter().map(occupancy).fold(0.0, f64::max)
    }
}

/// Run inside a rank: build this rank's portion of the distributed GST.
///
/// `owner[seq]` gives the rank owning each stored sequence; sequences
/// owned by this rank are counted and filtered here. Buckets and slot
/// ranges are assigned to ranks `first_builder..size` (the master–worker
/// runtime excludes rank 0). Returns the local forest (suffixes carry
/// *global* sequence ids), the local text, and the report.
pub fn rank_build_gst<'s>(
    comm: &mut Comm,
    store: &'s FragmentStore,
    owner: &'s [u32],
    config: GstConfig,
    first_builder: usize,
) -> (Gst, LocalText<'s>, RankGstReport) {
    let rank = comm.rank();
    let p = comm.size();
    let mut compute = 0.0f64;
    let (mut mine, enumerated) = ship_survivors(comm, store, owner, config, first_builder, &mut compute);

    // Phase 4: fetch the foreign fragments of admitted buckets (two
    // collective steps). Every survivor of a key is here, so the table
    // drops only suffixes of buckets that cannot pair; `retain` keeps the
    // arrival (source-rank) order, and so does the stable sort.
    comm.tracer_mut().begin(TraceCategory::Gst, names::EV_GST_FETCH);
    let t = thread_cpu_seconds();
    let mut table = AdmissionTable::with_words(mine.len());
    mine.iter().for_each(|&(key, s)| table.add_key(key, s.left));
    mine.retain(|&(key, _)| table.can_pair(key));
    drop(table);
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
    comm.tracer_mut().begin(TraceCategory::Gst, names::EV_GST_BUILD);
    let t = thread_cpu_seconds();
    let gst = Gst::build_from_sorted(&text, &mine, config, enumerated);
    drop(mine);
    compute += thread_cpu_seconds() - t;
    comm.tracer_mut().end(TraceCategory::Gst, names::EV_GST_BUILD);

    let report = RankGstReport { compute_seconds: compute, gst: gst.stats(), fragments_fetched };
    (gst, text, report)
}

/// Phases 1–3: count, reduce and redistribute. Returns the survivors
/// of the buckets this rank builds, as received (source-rank order), and
/// the number of suffixes of its own fragments. Computation is added to
/// `compute` in *thread CPU time*: ranks may timeshare cores, and wall
/// intervals would then overstate it (see `thread_cpu_seconds`).
fn ship_survivors(
    comm: &mut Comm,
    store: &FragmentStore,
    owner: &[u32],
    config: GstConfig,
    first_builder: usize,
    compute: &mut f64,
) -> (Vec<(u64, Suffix)>, usize) {
    let rank = comm.rank();
    let p = comm.size();
    let builders = p - first_builder;
    assert!(builders >= 1, "need at least one builder rank");
    let k = config.bucket_len();
    let own = |s: SeqId| owner[s.0 as usize] as usize == rank;

    // Phase 1: count own windows.
    comm.tracer_mut().begin(TraceCategory::Gst, names::EV_GST_COUNT);
    let t = thread_cpu_seconds();
    let mut table = SlotTable::new(store);
    for_each_window(store, k, own, |w| table.add(w));
    *compute += thread_cpu_seconds() - t;
    comm.tracer_mut().end(TraceCategory::Gst, names::EV_GST_COUNT);

    // Phase 2: reduce.
    comm.tracer_mut().begin(TraceCategory::Gst, names::EV_GST_REDUCE);
    reduce(comm, &mut table, first_builder, compute);
    comm.tracer_mut().end(TraceCategory::Gst, names::EV_GST_REDUCE);

    // Phase 3: filter own windows and redistribute the survivors
    // (customised all-to-all, §6). The bucket → builder assignment is
    // *static* (a hash of the bucket key), relying on the paper's
    // observation that for diverse sequence data the buckets are close
    // to uniformly occupied ("a value between 10 and 12 for w can be
    // expected to generate millions of buckets sufficient to be
    // distributed in a load balanced manner"; ψ-mer keys only spread
    // finer). No communication is needed to agree on owners.
    comm.tracer_mut().begin(TraceCategory::Gst, names::EV_GST_REDISTRIBUTE);
    let t = thread_cpu_seconds();
    let mut local: Vec<(u64, Suffix)> = Vec::new();
    for_each_window(store, k, own, |w| table.admit(w, &mut local));
    let enumerated = table.enumerated();
    drop(table);
    sort_walk_by_bucket(&mut local);
    *compute += thread_cpu_seconds() - t;
    let mut per_dest: Vec<Writer> = (0..p).map(|_| Writer::new()).collect();
    for run in local.chunk_by(|a, b| a.0 == b.0) {
        let key = run[0].0;
        let w = &mut per_dest[bucket_owner(key, builders, first_builder)];
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
    (mine, enumerated)
}

/// Phase 2: turn `table`, this rank's part, into what the merged table
/// says of every slot the rank holds a suffix in. The slots are cut into
/// one range per builder ([`slot_range`]); a rank sends its non-empty
/// slots of each other builder's range to that builder, which merges
/// them into its own and answers with one 2-bit verdict per slot sent,
/// four to a byte, in the order sent. A rank with no windows sends
/// nothing and never reads its (untouched) table.
fn reduce(comm: &mut Comm, table: &mut SlotTable, first_builder: usize, compute: &mut f64) {
    let (rank, p) = (comm.rank(), comm.size());
    let ranges: Vec<Range<usize>> =
        (0..p).map(|r| slot_range(table.num_slots(), r, p - first_builder, first_builder)).collect();
    let sender = table.enumerated() > 0;
    let sent_to = |dest: usize| sender && dest != rank;
    let mut parts: Vec<Writer> = (0..p).map(|_| Writer::new()).collect();
    for (dest, part) in parts.iter_mut().enumerate().filter(|(dest, _)| sent_to(*dest)) {
        let mut next = ranges[dest].start;
        for (slot, classes) in table.occupied(ranges[dest].clone()) {
            put_gap(part, slot - next);
            part.put_u8(classes.to_byte());
            next = slot + 1;
        }
    }
    let parts = comm.all_to_allv(parts.into_iter().map(Writer::finish).collect());

    let t = thread_cpu_seconds();
    let mine = &ranges[rank];
    for part in &parts {
        read_slots(part, mine, |slot, classes| table.set(slot, table.get(slot).merge(classes)));
    }
    let verdicts = parts
        .iter()
        .map(|part| {
            let mut each = Vec::new();
            read_slots(part, mine, |slot, _| each.push(table.get(slot).verdict()));
            each.chunks(4).map(|four| four.iter().rev().fold(0, |byte, v| byte << 2 | v)).collect()
        })
        .collect();
    *compute += thread_cpu_seconds() - t;
    let verdicts = comm.all_to_allv(verdicts);

    let t = thread_cpu_seconds();
    for (dest, bits) in verdicts.iter().enumerate().filter(|(dest, _)| sent_to(*dest)) {
        let sent: Vec<usize> = table.occupied(ranges[dest].clone()).map(|(slot, _)| slot).collect();
        assert_eq!(bits.len(), sent.len().div_ceil(4), "verdicts from rank {dest}: one per slot sent");
        for (n, slot) in sent.into_iter().enumerate() {
            table.set(slot, TwinClasses::from_verdict(bits[n / 4] >> (2 * (n % 4))));
        }
    }
    *compute += thread_cpu_seconds() - t;
}

/// The slots whose parts builder `rank` merges: the `(rank −
/// first_builder)`-th of `builders` contiguous ranges of `slots`, and
/// none for a rank below `first_builder`.
fn slot_range(slots: usize, rank: usize, builders: usize, first_builder: usize) -> Range<usize> {
    let Some(b) = rank.checked_sub(first_builder) else { return 0..0 };
    slots * b / builders..slots * (b + 1) / builders
}

/// Append a slot's distance from the one after the previous slot sent
/// (or from its range's start): seven bits a byte, low first, the high
/// bit set on every byte but the last. Slots are dense, so most gaps
/// take one byte.
fn put_gap(w: &mut Writer, mut gap: usize) {
    while gap >= 0x80 {
        w.put_u8(gap as u8 | 0x80);
        gap >>= 7;
    }
    w.put_u8(gap as u8);
}

/// Decode a reduce payload — `(gap, state)` records for slots of
/// `range` — calling `slot` on each in order.
fn read_slots(payload: &[u8], range: &Range<usize>, mut slot: impl FnMut(usize, TwinClasses)) {
    let mut next = range.start;
    read_records(payload, "slot parts", |r| {
        let (mut gap, mut shift) = (0usize, 0);
        loop {
            let byte = r.get_u8()?;
            gap |= ((byte & 0x7f) as usize) << shift;
            if byte < 0x80 {
                break;
            }
            shift += 7;
            if shift >= usize::BITS {
                return Err(WireError::Malformed("slot gap overflows"));
            }
        }
        let at = next.saturating_add(gap);
        let classes = TwinClasses::from_byte(r.get_u8()?).ok_or(WireError::Malformed("slot state"))?;
        if !range.contains(&at) {
            return Err(WireError::Malformed("slot outside the receiver's range"));
        }
        slot(at, classes);
        next = at + 1;
        Ok(())
    });
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

/// Driver: build the distributed GST over all sequences of `store`
/// (already double-stranded if desired) on `p` ranks and report the
/// construction breakdown. The forests themselves are discarded — this
/// entry point exists for the Fig. 5 experiment; the clustering runtime
/// calls [`rank_build_gst`] directly.
pub fn build_distributed_gst(store: &FragmentStore, p: usize, config: GstConfig) -> DistributedGstReport {
    let owner = compute_owners(store, p, 0);
    let owner = &owner;
    let store = &store;
    let ranks = pgasm_mpisim::run(p, move |comm| {
        let (_gst, _text, report) = rank_build_gst(comm, store, owner, config, 0);
        (report, comm.tag_stats())
    });
    let (per_rank, comm) = ranks.into_iter().unzip();
    DistributedGstReport { per_rank, comm }
}

/// Static owner of a bucket: a mixed hash of its key spread over the
/// builder ranks `first_builder..first_builder + builders`.
#[inline]
pub fn bucket_owner(key: u64, builders: usize, first_builder: usize) -> usize {
    // splitmix64 finaliser — decorrelates adjacent w-mer codes.
    let mut z = key.wrapping_add(0x9E3779B97F4A7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
    z ^= z >> 31;
    first_builder + (z % builders as u64) as usize
}

/// Assign each stored sequence an owner rank in `first..p`, balancing
/// total bases (the paper's initial N/p distribution). Forward/reverse
/// pairs stay together: a reverse strand goes where its forward strand
/// does, since the owner walks the forward one for both.
pub fn compute_owners(store: &FragmentStore, p: usize, first: usize) -> Vec<u32> {
    assert!(first < p);
    let parts = store.partition_by_bases(p - first);
    let mut owner = vec![0u32; store.num_seqs()];
    for (part, seqs) in parts.iter().enumerate() {
        for &s in seqs {
            owner[s.0 as usize] = (part + first) as u32;
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
        // equal the serial GST's pairs (AllMatches mode = exact set).
        let store = reads().with_reverse_complements();
        let config = GstConfig { psi: 16 };
        let serial = {
            let gst = Gst::build(&store, config);
            all_pairs_sorted(PairGenerator::new(gst, GenMode::AllMatches, |_, _| false).collect())
        };
        for p in [1usize, 2, 3, 4] {
            let owner = compute_owners(&store, p, 0);
            let owner = &owner;
            let store_ref = &store;
            let per_rank = pgasm_mpisim::run(p, move |comm| {
                let (gst, _text, _rep) = rank_build_gst(comm, store_ref, owner, config, 0);
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
        // suffixes of the rank's own fragments.
        let store = reads().with_reverse_complements();
        let config = GstConfig { psi: 16 };
        for p in [2usize, 3] {
            let owner = compute_owners(&store, p, 0);
            let (owner, store_ref) = (&owner, &store);
            let per_rank =
                pgasm_mpisim::run(p, move |comm| rank_build_gst(comm, store_ref, owner, config, 0).0);
            let owned_by = |rank: usize| {
                (0..store.num_seqs() as u32).filter(move |&s| owner[s as usize] as usize == rank).map(SeqId)
            };
            for (rank, built) in per_rank.iter().enumerate() {
                let mut arrived = Vec::new();
                for source in 0..p {
                    arrived.extend(
                        enumerate_suffixes(&store, owned_by(source), config.bucket_len())
                            .filter(|(key, _)| bucket_owner(*key, p, 0) == rank),
                    );
                }
                sort_by_bucket(&mut arrived);
                let own = enumerate_suffixes(&store, owned_by(rank), config.bucket_len()).count();
                let direct = Gst::build_from_sorted(&store, &arrived, config, own);
                assert!(direct.stats().eligible_nodes > 0, "rank {rank} of {p} built nothing");
                assert!(*built == direct, "rank {rank} of {p}");
            }
        }
    }

    #[test]
    fn the_suffixes_shipped_are_the_whole_store_tables_survivors() {
        // The reduced table is the one a single rank folding every window
        // would hold: over all ranks, exactly that table's survivors are
        // sent, each to the builder of its bucket.
        let store = reads_and_copies().with_reverse_complements();
        let config = GstConfig { psi: 16 };
        let k = config.bucket_len();
        let mut table = SlotTable::new(&store);
        for_each_window(&store, k, |_| true, |w| table.add(w));
        let mut whole = Vec::new();
        for_each_window(&store, k, |_| true, |w| table.admit(w, &mut whole));
        sort_walk_by_bucket(&mut whole);
        let all = enumerate_suffixes(&store, (0..store.num_seqs() as u32).map(SeqId), k).count();
        assert!(whole.len() < all / 2, "the filter must drop suffixes: {} of {all}", whole.len());
        for (p, first_builder) in [(2usize, 0), (3, 0), (4, 0), (3, 1), (4, 1)] {
            let owner = compute_owners(&store, p, first_builder);
            let (owner, store_ref) = (&owner, &store);
            let per_rank = pgasm_mpisim::run(p, move |comm| {
                let mut compute = 0.0;
                ship_survivors(comm, store_ref, owner, config, first_builder, &mut compute)
            });
            let builders = p - first_builder;
            let mut shipped = Vec::new();
            for (rank, (received, _)) in per_rank.iter().enumerate() {
                assert!(
                    received.iter().all(|(key, _)| bucket_owner(*key, builders, first_builder) == rank),
                    "p = {p}: rank {rank} received a foreign bucket"
                );
                shipped.extend_from_slice(received);
            }
            sort_walk_by_bucket(&mut shipped);
            assert_eq!(shipped, whole, "p = {p}, first builder {first_builder}");
            let enumerated: usize = per_rank.iter().map(|(_, n)| n).sum();
            assert_eq!(enumerated, all, "p = {p}: every suffix counted once");
        }
    }

    #[test]
    fn first_builder_excludes_master() {
        let store = reads().with_reverse_complements();
        let config = GstConfig { psi: 16 };
        let owner = compute_owners(&store, 3, 1);
        // Rank 0 owns nothing.
        assert!(owner.iter().all(|&o| o >= 1));
        let owner = &owner;
        let store_ref = &store;
        let reports = pgasm_mpisim::run(3, move |comm| {
            let (gst, _t, rep) = rank_build_gst(comm, store_ref, owner, config, 1);
            (gst.stats().suffixes, rep)
        });
        assert_eq!(reports[0].0, 0, "master must build no suffixes");
        assert!(reports[1].0 + reports[2].0 > 0);
    }

    #[test]
    fn traffic_is_accounted() {
        let store = reads().with_reverse_complements();
        let report = build_distributed_gst(&store, 4, GstConfig { psi: 16 });
        assert_eq!((report.per_rank.len(), report.comm.len()), (4, 4));
        let total_sent: u64 = report.comm.iter().flatten().map(|t| t.bytes_sent).sum();
        assert!(total_sent > 0, "distribution must move bytes");
        // Every rank fetched at least some foreign fragment (suffixes are
        // spread by content, ownership by position).
        let fetched: usize = report.per_rank.iter().map(|r| r.fragments_fetched).sum();
        assert!(fetched > 0);
        // Thread CPU time moves at scheduler ticks (a few ms), so tiny
        // builds may legitimately report zero compute.
        assert!(report.max_compute_seconds() >= 0.0);
        assert!(report.max_modelled_comm_seconds() > 0.0);
    }

    #[test]
    fn owners_keep_a_fragments_two_strands_together() {
        let store = reads().with_reverse_complements();
        for p in 2..=8 {
            for first in 0..2 {
                let owner = compute_owners(&store, p, first);
                assert!(
                    owner.chunks(2).all(|pair| pair[0] == pair[1]),
                    "p = {p}, first = {first}: {owner:?}"
                );
                assert!(owner.iter().all(|&o| (first..p).contains(&(o as usize))));
            }
        }
    }

    #[test]
    fn owners_balance_bases() {
        let store = reads();
        let owner = compute_owners(&store, 4, 0);
        let mut loads = [0usize; 4];
        for (i, &o) in owner.iter().enumerate() {
            loads[o as usize] += store.len_of(SeqId(i as u32));
        }
        let max = *loads.iter().max().unwrap();
        let min = *loads.iter().min().unwrap();
        assert!(max - min <= 400, "imbalanced: {loads:?}");
    }
}

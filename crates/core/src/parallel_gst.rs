//! Distributed GST construction (paper §6).
//!
//! Phases, per rank:
//!
//! 1. **Bucket**: enumerate the suffixes of the rank's own fragments
//!    into one flat array and sort it by ψ-mer key; a bucket is a run.
//!    A rank sees only its share of a bucket, so it cannot judge here
//!    whether the bucket can emit a pair.
//! 2. **Redistribute**: each bucket's builder is a static hash of its
//!    key ([`bucket_owner`]), so no assignment is negotiated; suffixes
//!    travel to their builder with their left class, one `(key, count,
//!    suffixes)` record per run, via the paper's customised all-to-all
//!    built from p − 1 point-to-point rounds (bounding send-buffer
//!    space). The receiver concatenates the records in source-rank
//!    order and sorts them by key again (stably: in-bucket order is
//!    source-rank order). Now whole, each bucket is admitted or dropped
//!    ([`admitted_runs`]) from the records alone — no text is needed.
//! 3. **Fetch fragments**: each builder requests the fragment sequences
//!    its *admitted* suffixes refer to "through two collective
//!    communication steps — the first to request the processors that
//!    have the required fragments, and the second to service the
//!    request".
//! 4. **Build**: each admitted bucket becomes a compacted-trie subtree
//!    of the conceptual global GST, by the same sort + LCP builder as
//!    the serial path ([`Gst::build_from_sorted`]).
//!
//! Ownership discipline: a rank reads only its *own* fragments from the
//! shared store; every foreign byte it uses arrives through a message,
//! so the traffic counters are exact.

use pgasm_gst::{
    admitted_runs, enumerate_suffixes, sort_by_bucket, Gst, GstConfig, GstStats, Suffix, TextSource,
};
use pgasm_mpisim::{thread_cpu_seconds, Comm, CommStats, CostModel};
use pgasm_seq::wire::{checked_len, Reader, WireError, Writer};
use pgasm_seq::{FragmentStore, SeqId};
use pgasm_telemetry::names;
use pgasm_telemetry::trace::TraceCategory;
use std::collections::HashMap;

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

/// Timing/traffic report of one rank's construction.
#[derive(Debug, Clone, Copy, Default)]
pub struct RankGstReport {
    /// Rank id.
    pub rank: usize,
    /// Seconds of pure computation (bucketing + trie building).
    pub compute_seconds: f64,
    /// Traffic during construction.
    pub comm: CommStats,
    /// The local forest's statistics: suffixes this rank received
    /// (`enumerated`; over all ranks, every suffix of the store once),
    /// suffixes it admitted and nodes it built.
    pub gst: GstStats,
    /// Foreign fragments fetched.
    pub fragments_fetched: usize,
    /// Estimated resident bytes of the local forest.
    pub memory_bytes: usize,
}

impl RankGstReport {
    /// Modelled communication seconds under `model`.
    pub fn modelled_comm_seconds(&self, model: &CostModel) -> f64 {
        model.comm_time(&self.comm)
    }
}

/// Aggregated report over all ranks (the Fig. 5 data).
#[derive(Debug, Clone, Default)]
pub struct DistributedGstReport {
    /// Per-rank breakdowns.
    pub per_rank: Vec<RankGstReport>,
}

impl DistributedGstReport {
    /// Maximum per-rank computation time (the parallel step completes
    /// when the slowest rank does).
    pub fn max_compute_seconds(&self) -> f64 {
        self.per_rank.iter().map(|r| r.compute_seconds).fold(0.0, f64::max)
    }

    /// Maximum per-rank modelled communication time.
    pub fn max_modelled_comm_seconds(&self, model: &CostModel) -> f64 {
        self.per_rank.iter().map(|r| r.modelled_comm_seconds(model)).fold(0.0, f64::max)
    }
}

/// Run inside a rank: build this rank's portion of the distributed GST.
///
/// `owner[seq]` gives the rank owning each stored sequence; sequences
/// owned by this rank are bucketed here. Buckets are assigned to ranks
/// `first_builder..size` (the master–worker runtime excludes rank 0).
/// Returns the local forest (suffixes carry *global* sequence ids), the
/// local text, and the report.
pub fn rank_build_gst<'s>(
    comm: &mut Comm,
    store: &'s FragmentStore,
    owner: &'s [u32],
    config: GstConfig,
    first_builder: usize,
) -> (Gst, LocalText<'s>, RankGstReport) {
    let rank = comm.rank();
    let p = comm.size();
    let builders = p - first_builder;
    assert!(builders >= 1, "need at least one builder rank");
    let stats_before = comm.stats();
    let mut compute = 0.0f64;

    // Phase 1: bucket own suffixes. Compute is accounted in *thread CPU
    // time*: ranks may timeshare cores, and wall intervals would then
    // overstate computation (see `thread_cpu_seconds`).
    comm.tracer_mut().begin(TraceCategory::Gst, names::EV_GST_BUCKET);
    let t = thread_cpu_seconds();
    let my_seqs = (0..store.num_seqs() as u32).filter(|&s| owner[s as usize] as usize == rank).map(SeqId);
    let mut local: Vec<(u64, Suffix)> = enumerate_suffixes(store, my_seqs, config.bucket_len()).collect();
    sort_by_bucket(&mut local);
    compute += thread_cpu_seconds() - t;
    comm.tracer_mut().end(TraceCategory::Gst, names::EV_GST_BUCKET);

    // Phase 2: redistribute suffixes (customised all-to-all, §6). The
    // bucket → builder assignment is *static* (a hash of the bucket
    // key), relying on the paper's observation that for diverse sequence
    // data the buckets are close to uniformly occupied ("a value
    // between 10 and 12 for w can be expected to generate millions of
    // buckets sufficient to be distributed in a load balanced manner";
    // ψ-mer keys only spread finer). No communication is needed to
    // agree on owners.
    comm.tracer_mut().begin(TraceCategory::Gst, names::EV_GST_REDISTRIBUTE);
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
    let received = comm.all_to_allv_p2p(per_dest.into_iter().map(|w| w.finish()).collect());
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

    // Phase 3: fetch the foreign fragments of admitted buckets (two
    // collective steps). The stable sort keeps each bucket in arrival
    // (source-rank) order.
    comm.tracer_mut().begin(TraceCategory::Gst, names::EV_GST_FETCH);
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

    // Phase 4: build the local forest.
    comm.tracer_mut().begin(TraceCategory::Gst, names::EV_GST_BUILD);
    let t = thread_cpu_seconds();
    let gst = Gst::build_from_sorted(&text, &mine, config);
    drop(mine);
    compute += thread_cpu_seconds() - t;
    comm.tracer_mut().end(TraceCategory::Gst, names::EV_GST_BUILD);

    let comm_delta = comm.stats().since(stats_before);
    let (stats, memory_bytes) = (gst.stats(), gst.memory_bytes());
    (
        gst,
        text,
        RankGstReport {
            rank,
            compute_seconds: compute,
            comm: comm_delta,
            gst: stats,
            fragments_fetched,
            memory_bytes,
        },
    )
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
    let reports = pgasm_mpisim::run(p, move |comm| {
        let (_gst, _text, report) = rank_build_gst(comm, store, owner, config, 0);
        report
    });
    DistributedGstReport { per_rank: reports }
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
/// pairs stay together.
pub fn compute_owners(store: &FragmentStore, p: usize, first: usize) -> Vec<u32> {
    assert!(first < p);
    let parts = store.partition_by_bases(p - first);
    let mut owner = vec![0u32; store.num_seqs()];
    for (part, seqs) in parts.iter().enumerate() {
        for &s in seqs {
            owner[s.0 as usize] = (part + first) as u32;
        }
    }
    owner
}

#[cfg(test)]
mod tests {
    use super::*;
    use pgasm_gst::{GenMode, PairGenerator};
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

    fn reads() -> FragmentStore {
        let g = genome(1, 2000);
        let b = g.as_bytes();
        let mut seqs = Vec::new();
        let mut at = 0;
        while at + 200 <= b.len() {
            seqs.push(DnaSeq::from_ascii(&b[at..at + 200]));
            at += 90;
        }
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
        // What a rank builds through bucket / redistribute / fetch is
        // byte for byte what the shared builder makes of the same
        // suffixes in the same in-bucket (source-rank) order, read
        // straight from the store.
        let store = reads().with_reverse_complements();
        let config = GstConfig { psi: 16 };
        for p in [2usize, 3] {
            let owner = compute_owners(&store, p, 0);
            let (owner, store_ref) = (&owner, &store);
            let per_rank = pgasm_mpisim::run(p, move |comm| {
                rank_build_gst(comm, store_ref, owner, config, 0).0.encode()
            });
            for (rank, encoded) in per_rank.iter().enumerate() {
                let mut arrived = Vec::new();
                for source in 0..p {
                    let owned =
                        (0..store.num_seqs() as u32).filter(|&s| owner[s as usize] as usize == source);
                    arrived.extend(
                        enumerate_suffixes(&store, owned.map(SeqId), config.bucket_len())
                            .filter(|(key, _)| bucket_owner(*key, p, 0) == rank),
                    );
                }
                sort_by_bucket(&mut arrived);
                let direct = Gst::build_from_sorted(&store, &arrived, config);
                assert!(direct.stats().eligible_nodes > 0, "rank {rank} of {p} built nothing");
                assert!(*encoded == direct.encode(), "rank {rank} of {p}");
            }
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
        assert_eq!(report.per_rank.len(), 4);
        let total_sent: u64 = report.per_rank.iter().map(|r| r.comm.bytes_sent).sum();
        assert!(total_sent > 0, "distribution must move bytes");
        // Every rank fetched at least some foreign fragment (suffixes are
        // spread by content, ownership by position).
        let fetched: usize = report.per_rank.iter().map(|r| r.fragments_fetched).sum();
        assert!(fetched > 0);
        // Thread CPU time moves at scheduler ticks (a few ms), so tiny
        // builds may legitimately report zero compute.
        assert!(report.max_compute_seconds() >= 0.0);
        assert!(report.max_modelled_comm_seconds(&CostModel::BLUEGENE_L) > 0.0);
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

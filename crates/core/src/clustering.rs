//! The greedy transitive clustering algorithm (paper §4, Fig. 3).
//!
//! Fragments belong to the same cluster iff connected by a chain of
//! accepted suffix–prefix overlaps. The engine consumes promising pairs
//! in decreasing maximal-match order and *aligns a pair only when its
//! fragments are currently in different clusters*; because transitive
//! closure is order-independent, the ordering only reduces work, never
//! changes the result (property-tested in `tests/`).

use crate::unionfind::UnionFind;
use pgasm_align::{overlap_align_simd, AcceptCriteria, AlignScratch, OverlapResult, Scoring};
use pgasm_gst::{GenMode, Gst, GstConfig, PairGenerator, PromisingPair};
use pgasm_seq::{FragId, FragmentStore, SeqId};
use pgasm_telemetry::names;

/// Clustering parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ClusterParams {
    /// GST construction (w, ψ).
    pub gst: GstConfig,
    /// Overlap acceptance (the *lenient* clustering criterion).
    pub criteria: AcceptCriteria,
    /// Band half-width for the seed-anchored banded alignment.
    pub band: usize,
    /// Pair generation mode.
    pub mode: GenMode,
    /// Keep only one strand-combination per fragment pair (the mirrored
    /// combination carries no extra information for clustering).
    pub canonical_strands: bool,
}

impl Default for ClusterParams {
    fn default() -> Self {
        ClusterParams {
            gst: GstConfig::default(),
            criteria: AcceptCriteria::CLUSTERING,
            band: 24,
            mode: GenMode::DupElim,
            canonical_strands: true,
        }
    }
}

/// Work/result counters — the quantities of the paper's Tables 1 and 3.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ClusterStats {
    /// Promising pairs generated.
    pub generated: u64,
    /// Pairs actually aligned (fragments were in different clusters).
    pub aligned: u64,
    /// Alignments passing the acceptance criteria.
    pub accepted: u64,
    /// Accepted alignments that merged two clusters (≤ n − 1).
    pub merges: u64,
    /// DP cells evaluated (alignment workload): the in-band cells of
    /// the aligned pairs.
    pub dp_cells: u64,
}

impl ClusterStats {
    /// Fraction of generated pairs whose alignment was skipped — the
    /// paper's "savings" row in Table 1.
    pub fn savings(&self) -> f64 {
        if self.generated == 0 {
            return 0.0;
        }
        1.0 - self.aligned as f64 / self.generated as f64
    }

    /// The tallies under their run-report counter names — the run's
    /// counter map and the master's rank channel list the same four
    /// (`merges` is the run's alone).
    pub fn counters(&self) -> [(&'static str, u64); 4] {
        [
            (names::PAIRS_GENERATED, self.generated),
            (names::PAIRS_ALIGNED, self.aligned),
            (names::PAIRS_ACCEPTED, self.accepted),
            (names::DP_CELLS, self.dp_cells),
        ]
    }

    /// Fold one alignment's work accounting into the counters.
    pub fn record_align(&mut self, r: &OverlapResult) {
        self.dp_cells += r.cells;
    }
}

/// A finished clustering of `n` fragments.
#[derive(Debug, Clone, PartialEq)]
pub struct Clustering {
    /// Member lists (fragment ids) of every cluster, singletons
    /// included, ordered by smallest member.
    pub clusters: Vec<Vec<u32>>,
}

impl Clustering {
    /// Build from a union-find.
    pub fn from_unionfind(uf: &mut UnionFind) -> Clustering {
        Clustering { clusters: uf.sets() }
    }

    /// Clusters with ≥ 2 fragments.
    pub fn non_singletons(&self) -> impl Iterator<Item = &Vec<u32>> {
        self.clusters.iter().filter(|c| c.len() >= 2)
    }

    /// Number of singleton clusters.
    pub fn num_singletons(&self) -> usize {
        self.clusters.iter().filter(|c| c.len() == 1).count()
    }

    /// Number of non-singleton clusters.
    pub fn num_non_singletons(&self) -> usize {
        self.clusters.iter().filter(|c| c.len() >= 2).count()
    }

    /// Mean fragments per non-singleton cluster (0 when none).
    pub fn mean_cluster_size(&self) -> f64 {
        let (mut n, mut total) = (0usize, 0usize);
        for c in self.non_singletons() {
            n += 1;
            total += c.len();
        }
        if n == 0 {
            0.0
        } else {
            total as f64 / n as f64
        }
    }

    /// Size of the largest cluster.
    pub fn max_cluster_size(&self) -> usize {
        self.clusters.iter().map(|c| c.len()).max().unwrap_or(0)
    }

    /// Largest cluster as a fraction of all fragments.
    pub fn max_cluster_fraction(&self) -> f64 {
        let total: usize = self.clusters.iter().map(|c| c.len()).sum();
        if total == 0 {
            0.0
        } else {
            self.max_cluster_size() as f64 / total as f64
        }
    }
}

/// The strand-canonicalisation skip: every fragment-pair overlap appears
/// twice in the double-stranded GST (once per mirrored strand
/// combination); keeping only pairs whose lower sequence id is a forward
/// strand selects exactly one representative.
#[inline]
pub fn canonical_skip(a: SeqId, b: SeqId) -> bool {
    debug_assert!(a < b);
    a.0 % 2 == 1
}

/// Same-fragment skip for a double-stranded store: sequences `2i` and
/// `2i + 1` are the two strands of fragment `i`.
#[inline]
pub fn same_fragment_skip(a: SeqId, b: SeqId) -> bool {
    a.0 / 2 == b.0 / 2
}

/// Decide one promising pair against the current clustering: align if
/// the fragments are apart, merge on acceptance. Shared by the serial
/// engine and the master–worker runtime (where the *decision* runs on
/// the master and the *alignment* on a worker).
pub struct PairDecider<'s> {
    /// The double-stranded store pairs reference.
    pub store: &'s FragmentStore,
    /// Parameters.
    pub params: ClusterParams,
}

impl<'s> PairDecider<'s> {
    /// Map a stored-sequence pair to fragment ids.
    pub fn fragments_of(&self, p: &PromisingPair) -> (FragId, FragId) {
        (self.store.seq_to_fragment(p.a).0, self.store.seq_to_fragment(p.b).0)
    }

    /// A scratch pre-sized for every sequence in this decider's store at
    /// the configured band, so the alignment loop never reallocates.
    pub fn new_scratch(&self) -> AlignScratch {
        let max_len = self.store.iter().map(|(_, s)| s.len()).max().unwrap_or(0);
        AlignScratch::for_sequences(max_len, self.params.band)
    }

    /// Compute the banded suffix–prefix alignment for a pair, seeded at
    /// its maximal match's diagonal; `params.criteria` decide on the
    /// result.
    pub fn align_full(&self, p: &PromisingPair, scratch: &mut AlignScratch) -> OverlapResult {
        let a = self.store.get(p.a);
        let b = self.store.get(p.b);
        let diag = p.a_pos as i64 - p.b_pos as i64;
        overlap_align_simd(a, b, diag, self.params.band, &Scoring::DEFAULT, None, scratch)
    }
}

/// Revision of the clustering algorithm, part of the partition cache
/// key ([`crate::cache::partition_key_from`]): bump it whenever a change
/// makes the same fragments and [`ClusterParams`] cluster differently,
/// so partitions an older build cached miss instead of standing in.
pub const CLUSTERING_REVISION: u32 = 1;

/// The serial clustering of `store`, optionally over a GST built over
/// its double-stranded view: what the benchmark harness links until
/// ROADMAP item 11 retires it; call [`crate::cluster`]. A prebuilt tree
/// of other parameters or another store would cluster wrong: it panics.
#[doc(hidden)]
pub fn cluster_serial_with_gst(
    store: &FragmentStore,
    params: &ClusterParams,
    prebuilt: Option<Gst>,
) -> (Clustering, ClusterStats) {
    assert!(!store.is_double_stranded(), "pass the original single-stranded fragments");
    let ds = store.with_reverse_complements();
    let gst = match prebuilt {
        Some(g) => {
            assert_eq!(g.config(), params.gst, "prebuilt GST was built with different parameters");
            assert_eq!(g.num_seqs(), ds.num_seqs(), "prebuilt GST indexes a different fragment set");
            g
        }
        None => Gst::build(&ds, params.gst),
    };
    cluster_over_gst(&ds, gst, params)
}

/// The serial engine proper: cluster the fragments of the
/// double-stranded store `ds` from the pairs of `gst`, built over it.
pub(crate) fn cluster_over_gst(
    ds: &FragmentStore,
    gst: Gst,
    params: &ClusterParams,
) -> (Clustering, ClusterStats) {
    let canonical = params.canonical_strands;
    let generator = PairGenerator::new(gst, params.mode, move |a, b| {
        same_fragment_skip(a, b) || (canonical && canonical_skip(a, b))
    });
    let decider = PairDecider { store: ds, params: *params };
    let mut scratch = decider.new_scratch();
    let mut stats = ClusterStats::default();
    let mut uf = UnionFind::new(ds.num_fragments());
    for pair in generator {
        stats.generated += 1;
        let (fa, fb) = decider.fragments_of(&pair);
        if uf.same(fa.0, fb.0) {
            continue;
        }
        stats.aligned += 1;
        let r = decider.align_full(&pair, &mut scratch);
        stats.record_align(&r);
        if decider.params.criteria.accepts(r.identity, r.overlap_len) {
            stats.accepted += 1;
            if uf.union(fa.0, fb.0) {
                stats.merges += 1;
            }
        }
    }
    (Clustering::from_unionfind(&mut uf), stats)
}

/// Reference clustering that aligns *every* generated pair (no
/// cluster-check shortcut): the tests' oracle.
#[doc(hidden)]
pub fn cluster_exhaustive(store: &FragmentStore, params: &ClusterParams) -> (Clustering, ClusterStats) {
    assert!(!store.is_double_stranded());
    let n = store.num_fragments();
    let ds = store.with_reverse_complements();
    let gst = Gst::build(&ds, params.gst);
    let canonical = params.canonical_strands;
    let generator = PairGenerator::new(gst, params.mode, move |a, b| {
        same_fragment_skip(a, b) || (canonical && canonical_skip(a, b))
    });
    let mut uf = UnionFind::new(n);
    let mut stats = ClusterStats::default();
    let decider = PairDecider { store: &ds, params: *params };
    let mut scratch = decider.new_scratch();
    for pair in generator {
        stats.generated += 1;
        stats.aligned += 1;
        let r = decider.align_full(&pair, &mut scratch);
        stats.record_align(&r);
        if decider.params.criteria.accepts(r.identity, r.overlap_len) {
            stats.accepted += 1;
            let (fa, fb) = decider.fragments_of(&pair);
            if uf.union(fa.0, fb.0) {
                stats.merges += 1;
            }
        }
    }
    (Clustering::from_unionfind(&mut uf), stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stages::in_process;
    use pgasm_seq::DnaSeq;

    fn params() -> ClusterParams {
        ClusterParams {
            gst: GstConfig { psi: 16 },
            criteria: AcceptCriteria { min_identity: 0.9, min_overlap: 30 },
            ..Default::default()
        }
    }

    /// Deterministic pseudo-random genome (no rand dep in this crate).
    fn genome(seed: u64, len: usize) -> String {
        let mut x = seed.wrapping_mul(0x9E3779B97F4A7C15) | 1;
        (0..len)
            .map(|_| {
                x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                ['A', 'C', 'G', 'T'][(x >> 33) as usize % 4]
            })
            .collect()
    }

    fn tile(g: &str, read: usize, step: usize) -> Vec<DnaSeq> {
        let b = g.as_bytes();
        let mut out = Vec::new();
        let mut at = 0;
        while at + read <= b.len() {
            out.push(DnaSeq::from_ascii(&b[at..at + read]));
            at += step;
        }
        out
    }

    #[test]
    fn two_islands_two_clusters() {
        let g1 = genome(1, 800);
        let g2 = genome(2, 800);
        let mut reads = tile(&g1, 200, 100);
        reads.extend(tile(&g2, 200, 100));
        let n1 = tile(&g1, 200, 100).len();
        let store = FragmentStore::from_seqs(reads);
        let (clustering, stats) = in_process(&store, &params());
        assert_eq!(clustering.num_non_singletons(), 2, "{clustering:?}");
        assert_eq!(clustering.num_singletons(), 0);
        // First island's reads together, second island's together.
        let c0: Vec<u32> = (0..n1 as u32).collect();
        assert!(clustering.clusters.contains(&c0), "{:?}", clustering.clusters);
        assert!(stats.merges >= (store.num_fragments() - 2) as u64);
    }

    #[test]
    fn reverse_strand_reads_cluster_too() {
        let g = genome(3, 900);
        let mut reads = tile(&g, 220, 110);
        for (i, r) in reads.iter_mut().enumerate() {
            if i % 2 == 0 {
                *r = r.reverse_complement();
            }
        }
        let store = FragmentStore::from_seqs(reads);
        let (clustering, _) = in_process(&store, &params());
        assert_eq!(clustering.num_non_singletons(), 1);
        assert_eq!(clustering.num_singletons(), 0);
    }

    #[test]
    fn unrelated_reads_stay_singletons() {
        let reads: Vec<DnaSeq> = (0..6).map(|i| DnaSeq::from(genome(100 + i, 250).as_str())).collect();
        let store = FragmentStore::from_seqs(reads);
        let (clustering, stats) = in_process(&store, &params());
        assert_eq!(clustering.num_singletons(), 6);
        assert_eq!(stats.accepted, 0);
    }

    #[test]
    fn heuristic_matches_exhaustive_partition() {
        // The cluster-check shortcut must not change the partition.
        let g1 = genome(4, 1000);
        let g2 = genome(5, 600);
        let mut reads = tile(&g1, 200, 80);
        reads.extend(tile(&g2, 200, 80));
        let store = FragmentStore::from_seqs(reads);
        let p = params();
        let (heur, hstats) = in_process(&store, &p);
        let (exh, estats) = cluster_exhaustive(&store, &p);
        assert_eq!(heur, exh);
        assert!(hstats.aligned <= estats.aligned, "heuristic must not align more");
        assert!(hstats.aligned < estats.aligned, "on overlapping data the shortcut should save work");
    }

    #[test]
    fn savings_metric() {
        let s = ClusterStats { generated: 100, aligned: 44, ..Default::default() };
        assert!((s.savings() - 0.56).abs() < 1e-12);
        assert_eq!(ClusterStats::default().savings(), 0.0);
    }

    #[test]
    fn clustering_summary_stats() {
        let c = Clustering { clusters: vec![vec![0, 1, 2], vec![3], vec![4, 5]] };
        assert_eq!(c.num_non_singletons(), 2);
        assert_eq!(c.num_singletons(), 1);
        assert!((c.mean_cluster_size() - 2.5).abs() < 1e-12);
        assert_eq!(c.max_cluster_size(), 3);
        assert!((c.max_cluster_fraction() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn masked_fragments_do_not_merge() {
        // Two reads overlapping only within a masked region must stay
        // apart — the mechanism that keeps repeats from chaining
        // clusters together.
        let g = genome(6, 600);
        let mut reads = tile(&g, 300, 150); // 3 reads, overlaps of 150
        for r in reads.iter_mut() {
            let l = r.len();
            r.mask_range(0, l / 2); // mask the first half of each read
        }
        // Read i's unmasked second half overlaps read i+1's *masked*
        // first half only.
        let store = FragmentStore::from_seqs(reads);
        let (clustering, stats) = in_process(&store, &params());
        assert_eq!(clustering.num_singletons(), 3, "{clustering:?}");
        assert_eq!(stats.generated, 0, "masked overlaps should not even generate pairs");
    }
}

//! Cross-crate property tests of the clustering invariants:
//!
//! 1. the final clustering equals the connected components of the
//!    accepted-overlap graph computed by brute force (all pairs, full
//!    alignment) — i.e. the heuristics change *work*, never *results*;
//! 2. the heuristic engine never aligns more pairs than the exhaustive
//!    engine;
//! 3. parallel master–worker clustering equals serial clustering.

use pgasm::align::{overlap_align, AcceptCriteria, Scoring};
use pgasm::cluster::clustering::cluster_exhaustive;
use pgasm::cluster::{cluster_parallel, cluster_serial, ClusterParams, MasterWorkerConfig, UnionFind};
use pgasm::gst::GstConfig;
use pgasm::seq::{DnaSeq, FragmentStore};
use proptest::prelude::*;

fn params() -> ClusterParams {
    ClusterParams {
        gst: GstConfig { psi: 12 },
        criteria: AcceptCriteria { min_identity: 0.9, min_overlap: 20 },
        // Band wider than any test sequence: the engine's banded DP then
        // computes exactly the full-matrix alignment the reference uses.
        band: 4096,
        ..Default::default()
    }
}

/// Random fragment sets with planted chains of overlaps.
fn fragment_set() -> impl Strategy<Value = FragmentStore> {
    (
        proptest::collection::vec(proptest::collection::vec(0u8..4, 60..120), 3..9),
        proptest::collection::vec((any::<prop::sample::Index>(), any::<prop::sample::Index>()), 0..6),
        any::<bool>(),
    )
        .prop_map(|(seqs, chains, flip)| {
            let mut seqs: Vec<DnaSeq> = seqs.into_iter().map(DnaSeq::from_codes).collect();
            // Plant overlaps: make dst start with the last 40 bases of src.
            for (src, dst) in chains {
                let si = src.index(seqs.len());
                let di = dst.index(seqs.len());
                if si == di {
                    continue;
                }
                let tail: Vec<u8> = {
                    let s = &seqs[si];
                    s.codes()[s.len().saturating_sub(40)..].to_vec()
                };
                let mut joined = DnaSeq::from_codes(tail);
                joined.extend_from(&seqs[di]);
                seqs[di] = if flip { joined.reverse_complement() } else { joined };
            }
            FragmentStore::from_seqs(seqs)
        })
}

/// Brute-force reference: connected components over *all* fragment
/// pairs whose best overlap alignment (any strand combination) passes
/// the acceptance criteria, restricted to pairs that share a maximal
/// match ≥ ψ (the promising-pair definition).
fn reference_components(store: &FragmentStore, p: &ClusterParams) -> Vec<Vec<u32>> {
    let n = store.num_fragments();
    let scoring = Scoring::DEFAULT;
    let mut uf = UnionFind::new(n);
    for i in 0..n as u32 {
        for j in i + 1..n as u32 {
            let a = store.get(pgasm::seq::SeqId(i));
            let b = store.get(pgasm::seq::SeqId(j));
            let b_rc = DnaSeq::from_codes(b.to_vec()).reverse_complement();
            // Promising = shares a maximal match of length ≥ ψ on either
            // strand combination.
            let fwd_matches = pgasm::gst::brute::maximal_matches(a, b, p.gst.psi);
            let rc_matches = pgasm::gst::brute::maximal_matches(a, b_rc.codes(), p.gst.psi);
            let mut accepted = false;
            if !fwd_matches.is_empty() {
                let r = overlap_align(a, b, &scoring);
                accepted |= p.criteria.accepts(r.identity, r.overlap_len);
            }
            if !accepted && !rc_matches.is_empty() {
                let r = overlap_align(a, b_rc.codes(), &scoring);
                accepted |= p.criteria.accepts(r.identity, r.overlap_len);
            }
            if accepted {
                uf.union(i, j);
            }
        }
    }
    uf.sets()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn serial_clustering_matches_reference_components(store in fragment_set()) {
        let p = params();
        let (clustering, stats) = cluster_serial(&store, &p);
        let reference = reference_components(&store, &p);
        prop_assert_eq!(&clustering.clusters, &reference);
        prop_assert!(stats.aligned <= stats.generated);
        prop_assert!(stats.accepted <= stats.aligned);
    }

    #[test]
    fn heuristic_never_does_more_work(store in fragment_set()) {
        let p = params();
        let (heur, hs) = cluster_serial(&store, &p);
        let (exh, es) = cluster_exhaustive(&store, &p);
        prop_assert_eq!(heur, exh);
        prop_assert!(hs.aligned <= es.aligned);
        prop_assert_eq!(hs.generated, es.generated);
    }

    #[test]
    fn parallel_equals_serial(store in fragment_set()) {
        let p = params();
        let (serial, _) = cluster_serial(&store, &p);
        let cfg = MasterWorkerConfig { batch: 4, pending_cap: 64 };
        let report = cluster_parallel(&store, 3, &p, &cfg);
        prop_assert_eq!(report.clustering.clusters, serial.clusters);
    }
}

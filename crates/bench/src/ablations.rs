//! Ablations of the design decisions DESIGN.md calls out.

use crate::datasets;
use crate::util::*;
use pgasm_align::wmer::WmerTable;
use pgasm_core::clustering::{canonical_skip, same_fragment_skip, PairDecider};
use pgasm_core::UnionFind;
use pgasm_gst::{GenMode, Gst, PairGenerator, PromisingPair};
use rand::seq::SliceRandom;
use rand::SeedableRng;

/// SEC91a — repeat masking on/off (paper §9.1).
///
/// Paper: without masking, Drosophila clustering took 24 h instead of
/// 3.1 h (pairwise alignments forced by repeats) and "almost 50% of the
/// fragments were combined into one large cluster"; with masking the
/// largest cluster holds 6.76%.
pub fn masking(scale: f64) -> [(bool, f64, u64, u64, f64); 2] {
    let params = datasets::default_params();
    let mut out = [(false, 0.0, 0, 0, 0.0); 2];
    for (slot, mask) in [true, false].into_iter().enumerate() {
        let prepared = datasets::drosophila((80_000.0 * scale) as usize, 6.0, 21, mask);
        let (part, secs) = timed(|| cluster_in_process(&prepared.store, &params));
        out[slot] =
            (mask, part.clustering.max_cluster_fraction(), part.stats.generated, part.stats.aligned, secs);
    }
    let rows: Vec<Vec<String>> = out
        .iter()
        .map(|(mask, frac, generated, aligned, secs)| {
            vec![
                if *mask { "masked" } else { "unmasked" }.into(),
                fmt_pct(*frac),
                fmt_count(*generated),
                fmt_count(*aligned),
                fmt_secs(*secs),
            ]
        })
        .collect();
    print_table(
        "SEC91a: repeat-masking ablation (drosophila-like)",
        &["repeats", "largest cluster", "pairs generated", "pairs aligned", "time"],
        &rows,
    );
    println!("note: paper: largest cluster 6.76% masked vs ~50% unmasked; runtime 3.1 h vs 24 h");
    out
}

/// ABL1 — pair-ordering heuristic (paper §4).
///
/// The decreasing-maximal-match order front-loads likely merges, so
/// later pairs are skipped by the cluster check. Aligning the same pair
/// stream in reverse or shuffled order must give the *same clustering*
/// while computing more alignments.
pub fn ordering(scale: f64) -> [(String, u64); 3] {
    // Deep uniform coverage maximises pair redundancy per island, which
    // is where processing order matters most.
    let prepared = datasets::drosophila((60_000.0 * scale) as usize, 8.8, 55, true);
    let params = datasets::default_params();
    let ds = prepared.store.with_reverse_complements();
    let n = prepared.store.num_fragments();
    // Materialise the full pair stream once (sorted order).
    let gst = Gst::build(&ds, params.gst);
    let pairs: Vec<PromisingPair> =
        PairGenerator::new(gst, params.mode, |a, b| same_fragment_skip(a, b) || canonical_skip(a, b))
            .collect();
    let decider = PairDecider { store: &ds, params };
    let run_order = |pairs: &[PromisingPair]| -> (u64, Vec<Vec<u32>>) {
        let mut uf = UnionFind::new(n);
        let mut scratch = decider.new_scratch();
        let mut aligned = 0u64;
        for p in pairs {
            let (fa, fb) = decider.fragments_of(p);
            if uf.same(fa.0, fb.0) {
                continue;
            }
            aligned += 1;
            let r = decider.align_full(p, &mut scratch);
            if params.criteria.accepts(r.identity, r.overlap_len) {
                uf.union(fa.0, fb.0);
            }
        }
        (aligned, uf.sets())
    };
    let (sorted_aligned, sorted_sets) = run_order(&pairs);
    let mut reversed: Vec<PromisingPair> = pairs.iter().rev().copied().collect();
    let (reversed_aligned, reversed_sets) = run_order(&reversed);
    let mut rng = rand::rngs::StdRng::seed_from_u64(99);
    reversed.shuffle(&mut rng);
    let (shuffled_aligned, shuffled_sets) = run_order(&reversed);
    assert_eq!(sorted_sets, reversed_sets, "ordering must not change the clustering");
    assert_eq!(sorted_sets, shuffled_sets, "ordering must not change the clustering");
    let out = [
        ("decreasing match length (paper)".to_string(), sorted_aligned),
        ("reversed".to_string(), reversed_aligned),
        ("shuffled".to_string(), shuffled_aligned),
    ];
    let rows: Vec<Vec<String>> = out
        .iter()
        .map(|(name, aligned)| {
            vec![
                name.clone(),
                fmt_count(*aligned),
                fmt_count(pairs.len() as u64),
                fmt_pct(1.0 - *aligned as f64 / pairs.len().max(1) as f64),
            ]
        })
        .collect();
    print_table(
        "ABL1: pair-ordering heuristic (identical final clustering in all orders)",
        &["order", "aligned", "generated", "savings"],
        &rows,
    );
    out
}

/// ABL2 — duplicate elimination (paper §5).
///
/// Without duplicate elimination every maximal-match occurrence of a
/// pair is generated; with it, a pair is generated at most once per
/// node.
pub fn dup_elim(scale: f64) -> [(GenMode, u64); 2] {
    // Duplicate elimination pays off when one fragment holds several
    // *identical* copies of a region shared with another fragment (the
    // cross-product at that GST node then multiplies occurrences).
    // Build exactly that workload: an unmasked genome with exact
    // (identity 1.0) high-copy repeats, error-free reads.
    use pgasm_simgen::genome::{Genome, GenomeSpec};
    use pgasm_simgen::sampler::{Sampler, SamplerConfig};
    let genome = Genome::generate(
        &GenomeSpec {
            length: (40_000.0 * scale) as usize,
            repeat_fraction: 0.5,
            repeat_families: 2,
            repeat_len: (60, 120),
            repeat_identity: 1.0,
            islands: 0,
            island_len: (1, 2),
        },
        56,
    );
    let mut sampler = Sampler::new(&genome, SamplerConfig::clean(), 57);
    let store = sampler.wgs((genome.len() as f64 * 4.0 / 450.0) as usize).to_store();
    let params = datasets::default_params();
    let ds = store.with_reverse_complements();
    let out = [GenMode::AllMatches, GenMode::DupElim].map(|mode| {
        let gst = Gst::build(&ds, params.gst);
        let pairs = PairGenerator::new(gst, mode, |a, b| same_fragment_skip(a, b) || canonical_skip(a, b));
        (mode, pairs.count() as u64)
    });
    let rows: Vec<Vec<String>> =
        out.iter().map(|(mode, count)| vec![format!("{mode:?}"), fmt_count(*count)]).collect();
    print_table("ABL2: duplicate elimination in pair generation", &["mode", "pairs generated"], &rows);
    out
}

/// ABL3 — maximal-match filter vs the fixed-w lookup-table baseline
/// (paper §2 vs §4).
///
/// A long exact match of length l appears as l − w + 1 separate w-mer
/// hits in the classical filter; the maximal-match generator emits it
/// once per distinct maximal match.
pub fn filter(scale: f64) -> (u64, u64, u64) {
    let prepared = datasets::maize((150_000.0 * scale) as usize, 57);
    let params = datasets::default_params();
    let ds = prepared.store.with_reverse_complements();
    // Baseline: w-mer lookup table over the same double-stranded store,
    // at the paper's w = 11 (the GST itself has no such knob).
    const W: usize = 11;
    let table = WmerTable::build(&ds, W);
    let skip = |a: pgasm_seq::SeqId, b: pgasm_seq::SeqId| {
        let (lo, hi) = if a < b { (a, b) } else { (b, a) };
        same_fragment_skip(lo, hi) || canonical_skip(lo, hi)
    };
    let wstats = table.count_pairs(skip);
    let gst = Gst::build(&ds, params.gst);
    let pairs =
        PairGenerator::new(gst, GenMode::DupElim, |a, b| same_fragment_skip(a, b) || canonical_skip(a, b));
    let ours = pairs.count() as u64;
    print_table(
        "ABL3: candidate-pair filters",
        &["filter", "pair generations", "distinct pairs"],
        &[
            vec![
                format!("w-mer lookup table (w={W})"),
                fmt_count(wstats.pair_generations),
                fmt_count(wstats.distinct_pairs),
            ],
            vec![format!("maximal matches (psi={})", params.gst.psi), fmt_count(ours), "—".into()],
        ],
    );
    println!("note: the lookup table regenerates a length-l match l-w+1 times; psi additionally prunes short matches");
    (wstats.pair_generations, wstats.distinct_pairs, ours)
}

//! Prepared (generated + preprocessed) datasets shared by experiments.

use pgasm_core::ClusterParams;
use pgasm_gst::{GenMode, GstConfig};
use pgasm_preprocess::{PreprocessConfig, PreprocessStats, Preprocessor, StatRepeatConfig};
use pgasm_seq::{DnaSeq, FragmentStore};
use pgasm_simgen::presets;
use pgasm_simgen::vector::VECTOR_SEQ;
use pgasm_simgen::{Genome, ReadSet};

/// A dataset after generation and preprocessing, ready for clustering.
pub struct Prepared {
    /// Human-readable name.
    pub name: String,
    /// Raw reads (pre-trim), for Table-2 style accounting.
    pub reads: ReadSet,
    /// Preprocessed (trimmed + masked) surviving fragments.
    pub store: FragmentStore,
    /// Fragment → original read index.
    pub origin: Vec<usize>,
    /// Source genomes (ground truth).
    pub genomes: Vec<Genome>,
    /// Preprocessing accounting.
    pub pp_stats: Option<PreprocessStats>,
}

impl Prepared {
    /// Total preprocessed bases.
    pub fn total_bp(&self) -> usize {
        self.store.total_len()
    }
}

/// The clustering parameters every experiment uses unless it is
/// explicitly ablating one of them: the paper's w = 11 bucketing, a
/// ψ = 20 promising-pair cutoff, duplicate elimination on, lenient
/// clustering acceptance.
pub fn default_params() -> ClusterParams {
    ClusterParams { gst: GstConfig { psi: 20 }, mode: GenMode::DupElim, ..ClusterParams::default() }
}

fn preprocess(name: &str, reads: ReadSet, genomes: Vec<Genome>, stat: bool) -> Prepared {
    let known: Vec<DnaSeq> = genomes.iter().flat_map(|g| g.repeat_library.iter().cloned()).collect();
    let config = PreprocessConfig {
        stat_repeats: if stat { Some(StatRepeatConfig::default()) } else { None },
        ..PreprocessConfig::default()
    };
    let pp = Preprocessor::new(config, &[DnaSeq::from(VECTOR_SEQ)], &known);
    let out = pp.run(&reads);
    Prepared {
        name: name.to_string(),
        reads,
        store: out.store,
        origin: out.origin,
        genomes,
        pp_stats: Some(out.stats),
    }
}

/// Maize-like dataset scaled so raw reads total about `read_bp` bases.
///
/// Masking emulates the paper's §7.2 situation: the curated database
/// covers the *long* repeat families, while "numerous medium-sized
/// (≈100 bp) repeat elements … survived initial screening" — those leak
/// through, generate promising pairs, and are rejected at alignment
/// time (they sit mid-read, so the suffix–prefix alignment must cross
/// non-homologous flanks).
pub fn maize(read_bp: usize, seed: u64) -> Prepared {
    // Average raw read ≈ 500 bp (450 insert + vector); genome sized for
    // ≈ 1× overall coverage so gene enrichment concentrates islands.
    let n_reads = (read_bp / 500).max(20);
    let genome_len = read_bp.max(10_000);
    let d = presets::maize_like(genome_len, n_reads, seed);
    let known: Vec<DnaSeq> = d.genomes[0].repeat_library.iter().filter(|r| r.len() >= 300).cloned().collect();
    let config = PreprocessConfig {
        stat_repeats: None,
        // Reads whose longest clean stretch cannot seed a real overlap
        // are invalidated — the paper loses ~60-65% of shotgun reads here.
        min_unmasked_run: 100,
        ..PreprocessConfig::default()
    };
    let pp = Preprocessor::new(config, &[DnaSeq::from(VECTOR_SEQ)], &known);
    let out = pp.run(&d.reads);
    Prepared {
        name: format!("maize-like {} raw bp", read_bp),
        reads: d.reads,
        store: out.store,
        origin: out.origin,
        genomes: d.genomes,
        pp_stats: Some(out.stats),
    }
}

/// Drosophila-like WGS dataset; `mask_repeats = false` reproduces the
/// §9.1 no-masking ablation.
pub fn drosophila(genome_len: usize, coverage: f64, seed: u64, mask_repeats: bool) -> Prepared {
    let d = presets::drosophila_like(genome_len, coverage, seed);
    if mask_repeats {
        preprocess("drosophila-like", d.reads, d.genomes, true)
    } else {
        // Trim vectors/quality but skip all repeat masking.
        let config = PreprocessConfig { stat_repeats: None, ..PreprocessConfig::default() };
        let pp = Preprocessor::new(config, &[DnaSeq::from(VECTOR_SEQ)], &[]);
        let out = pp.run(&d.reads);
        Prepared {
            name: "drosophila-like (unmasked)".to_string(),
            reads: d.reads,
            store: out.store,
            origin: out.origin,
            genomes: d.genomes,
            pp_stats: Some(out.stats),
        }
    }
}

/// Sargasso-like environmental dataset.
pub fn sargasso(species: usize, n_reads: usize, seed: u64) -> Prepared {
    let d = presets::sargasso_like(species, n_reads, seed);
    preprocess("sargasso-like", d.reads, d.genomes, true)
}

/// Splitmix-style generator for the synthetic stores below (no external
/// RNG crates in the workspace).
fn next_u64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn random_codes(state: &mut u64, len: usize) -> Vec<u8> {
    (0..len).map(|_| (next_u64(state) & 3) as u8).collect()
}

/// Repeat-trap store for the alignment-kernel ablation: a workload
/// dominated by promising pairs that *fail* verification.
///
/// Every trap read is `short unique left flank (30–50 bp) + one exact
/// shared 60 bp repeat + long unique right flank (900–1400 bp)`. The
/// shared repeat seeds a promising pair between every two trap reads,
/// but the suffix–prefix alignment must then cross the long random
/// flanks, so the pair is always rejected — after the repeat the score
/// decays steeply and a score-bounded kernel can stop early, while a
/// full banded pass grinds through the entire right flank. A small
/// exactly-tiled backbone (reads sharing genuine 100 bp overlaps) rides
/// along so the run also exercises accepted pairs and produces a
/// non-trivial clustering to compare across kernels.
pub fn repeat_trap_store(n_trap: usize, seed: u64) -> FragmentStore {
    let mut rng = seed;
    let repeat = random_codes(&mut rng, 60);
    let mut store = FragmentStore::new();
    // Backbone: one 800 bp genome tiled by 200 bp reads at stride 100.
    let genome = random_codes(&mut rng, 800);
    for start in (0..=600).step_by(100) {
        store.push_codes(&genome[start..start + 200]);
    }
    // Trap reads.
    for _ in 0..n_trap {
        let left = 30 + (next_u64(&mut rng) % 21) as usize;
        let right = 900 + (next_u64(&mut rng) % 501) as usize;
        let mut codes = random_codes(&mut rng, left);
        codes.extend_from_slice(&repeat);
        codes.extend(random_codes(&mut rng, right));
        store.push_codes(&codes);
    }
    store
}

/// Accepted-pair-heavy store for the SIMD/X-drop ablation: 200 bp reads
/// tiling one genome at stride 140, so every adjacent pair shares a
/// genuine 60 bp dovetail and passes verification. This is the opposite
/// regime from [`repeat_trap_store`]: the early-exit bound almost never
/// fires (the pairs are real), so the win available to the kernel is
/// *per-row band shrinking* — under harsh scoring the completion
/// potential decays steeply off the true diagonal and the adaptive
/// X-drop band excludes most of the fixed band's width while still
/// computing every cell of the accepted alignment exactly.
pub fn overlap_heavy_store(n_reads: usize, seed: u64) -> FragmentStore {
    let mut rng = seed;
    let n_reads = n_reads.max(2);
    let genome = random_codes(&mut rng, 140 * (n_reads - 1) + 200);
    let mut store = FragmentStore::new();
    for r in 0..n_reads {
        let start = 140 * r;
        store.push_codes(&genome[start..start + 200]);
    }
    store
}

/// Heavy-tailed assembly workload for the load-balance ablation: one
/// dominant island tiled densely (the cluster that dominates §8's
/// per-processor assembly time) plus many small islands. Reads tile
/// each island exactly, so clustering recovers one cluster per island
/// and the per-cluster assembly cost profile is a textbook heavy tail —
/// the regime where largest-first (LPT) scheduling beats contiguous
/// chunking.
pub fn heavy_tailed_store(scale: f64, seed: u64) -> FragmentStore {
    let mut rng = seed;
    let mut store = FragmentStore::new();
    // Dominant island: ~4 kbp at scale 1, 200 bp reads every 60 bp.
    let giant_len = ((4000.0 * scale) as usize).max(1500);
    let giant = random_codes(&mut rng, giant_len);
    let mut at = 0;
    while at + 200 <= giant.len() {
        store.push_codes(&giant[at..at + 200]);
        at += 60;
    }
    // Small islands: 600 bp each, sparser tiling — a handful of reads
    // per cluster. At least 8 so p = 8 has work for every worker.
    let islands = ((8.0 * scale) as usize).max(8);
    for _ in 0..islands {
        let g = random_codes(&mut rng, 600);
        let mut at = 0;
        while at + 200 <= g.len() {
            store.push_codes(&g[at..at + 200]);
            at += 90;
        }
    }
    store
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn maize_prepared_has_survivors() {
        let p = maize(40_000, 1);
        assert!(p.store.num_seqs() > 10, "{}", p.store.num_seqs());
        assert_eq!(p.origin.len(), p.store.num_seqs());
        assert!(p.pp_stats.is_some());
    }

    #[test]
    fn drosophila_masking_toggle() {
        let masked = drosophila(30_000, 4.0, 2, true);
        let unmasked = drosophila(30_000, 4.0, 2, false);
        // Without masking more bases survive (nothing is X-ed out or
        // invalidated by repeat content).
        assert!(unmasked.total_bp() >= masked.total_bp());
    }

    #[test]
    fn repeat_trap_store_shape() {
        let s = repeat_trap_store(12, 7);
        // 7 backbone reads + 12 traps.
        assert_eq!(s.num_seqs(), 19);
        // Trap reads carry the 60 bp repeat plus both flanks.
        assert!((7..19).all(|i| s.len_of(pgasm_seq::SeqId(i)) >= 60 + 30 + 900));
        // Deterministic for a fixed seed.
        let t = repeat_trap_store(12, 7);
        assert_eq!(s.get(pgasm_seq::SeqId(8)), t.get(pgasm_seq::SeqId(8)));
    }

    #[test]
    fn overlap_heavy_store_shape() {
        let s = overlap_heavy_store(10, 5);
        assert_eq!(s.num_seqs(), 10);
        // Adjacent reads share exactly 60 bp: read r covers
        // [140r, 140r + 200), read r+1 starts at 140(r+1).
        let a = s.get(pgasm_seq::SeqId(0));
        let b = s.get(pgasm_seq::SeqId(1));
        assert_eq!(&a[140..200], &b[..60]);
        let t = overlap_heavy_store(10, 5);
        assert_eq!(s.get(pgasm_seq::SeqId(4)), t.get(pgasm_seq::SeqId(4)));
    }

    #[test]
    fn heavy_tailed_store_shape() {
        let s = heavy_tailed_store(1.0, 11);
        // ~64 giant-island reads + 8 islands x 5 reads.
        assert!(s.num_seqs() > 60, "{}", s.num_seqs());
        // Deterministic for a fixed seed.
        let t = heavy_tailed_store(1.0, 11);
        assert_eq!(s.get(pgasm_seq::SeqId(3)), t.get(pgasm_seq::SeqId(3)));
    }

    #[test]
    fn default_params_match_paper_scale() {
        let p = default_params();
        assert_eq!(p.gst.psi, 20);
    }
}

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
    fn default_params_match_paper_scale() {
        let p = default_params();
        assert_eq!(p.gst.psi, 20);
    }
}

//! The combined preprocessing pipeline and its Table-2 accounting.

use crate::lucy::{Lucy, LucyConfig, TrimOutcome};
use crate::repeats::{RepeatLibrary, StatRepeatConfig};
use pgasm_seq::{DnaSeq, FragmentStore, QualityTrack};
use pgasm_simgen::{ReadKind, ReadSet};
use std::collections::HashMap;

/// Pipeline configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct PreprocessConfig {
    /// Trimmer settings.
    pub lucy: LucyConfig,
    /// Statistical repeat discovery settings (None = known library only).
    pub stat_repeats: Option<StatRepeatConfig>,
    /// Masking k (must match any known library merged in).
    pub mask_k: usize,
    /// A fragment is invalidated when its longest unmasked run after
    /// masking falls below this (it can never form a ψ-length match).
    pub min_unmasked_run: usize,
}

impl Default for PreprocessConfig {
    fn default() -> Self {
        PreprocessConfig {
            lucy: LucyConfig::default(),
            stat_repeats: Some(StatRepeatConfig::default()),
            mask_k: 16,
            min_unmasked_run: 50,
        }
    }
}

/// Per-strategy before/after accounting (the paper's Table 2).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct PreprocessStats {
    /// (fragments, bases) before preprocessing, by strategy label.
    pub before: HashMap<String, (usize, usize)>,
    /// (fragments, bases) surviving preprocessing, by strategy label.
    pub after: HashMap<String, (usize, usize)>,
    /// Fragments rejected by trimming.
    pub rejected_by_trim: usize,
    /// Fragments invalidated by repeat masking.
    pub rejected_by_mask: usize,
    /// Total bases masked in surviving fragments.
    pub masked_bases: usize,
}

impl PreprocessStats {
    /// Formatted rows `(label, n_before, bp_before, n_after, bp_after)`
    /// in the paper's MF/HC/BAC/WGS order, then any other labels.
    pub fn table_rows(&self) -> Vec<(String, usize, usize, usize, usize)> {
        let mut labels: Vec<&String> = self.before.keys().collect();
        let order = ["MF", "HC", "BAC", "WGS"];
        labels.sort_by_key(|l| order.iter().position(|o| o == l).unwrap_or(order.len()));
        labels
            .into_iter()
            .map(|l| {
                let (nb, bb) = self.before.get(l).copied().unwrap_or((0, 0));
                let (na, ba) = self.after.get(l).copied().unwrap_or((0, 0));
                (l.clone(), nb, bb, na, ba)
            })
            .collect()
    }
}

/// Output of preprocessing: the surviving masked fragments and the
/// mapping back to original read indices.
#[derive(Debug, Clone, PartialEq)]
pub struct PreprocessOutput {
    /// Trimmed, masked, surviving fragments — the *clustering* view
    /// (masked repeats cannot seed or extend matches).
    pub store: FragmentStore,
    /// The same fragments trimmed but *unmasked* — the *assembly* view
    /// (soft-masking: repeats steer clustering, but the assembler
    /// aligns the real bases, as CAP3 does with lowercase masking).
    pub store_unmasked: FragmentStore,
    /// Trimmed per-fragment quality tracks (index-parallel with the
    /// stores), for quality-aware assembly.
    pub quals: Vec<QualityTrack>,
    /// For each surviving fragment, the index of its original read.
    pub origin: Vec<usize>,
    /// Accounting.
    pub stats: PreprocessStats,
}

/// The preprocessing pipeline.
pub struct Preprocessor {
    config: PreprocessConfig,
    lucy: Lucy,
    known_repeats: RepeatLibrary,
}

impl Preprocessor {
    /// Build a preprocessor screening against `vectors` and masking
    /// `known_repeats` (e.g. a curated repeat database).
    pub fn new(config: PreprocessConfig, vectors: &[DnaSeq], known_repeats: &[DnaSeq]) -> Preprocessor {
        let lucy = Lucy::new(config.lucy.clone(), vectors);
        let known = RepeatLibrary::from_known(config.mask_k, known_repeats);
        Preprocessor { config, lucy, known_repeats: known }
    }

    /// Run the full pipeline over a read set.
    pub fn run(&self, reads: &ReadSet) -> PreprocessOutput {
        let mut stats = PreprocessStats::default();
        for (seq, prov) in reads.seqs.iter().zip(&reads.provenance) {
            let e = stats.before.entry(prov.kind.label().to_string()).or_default();
            e.0 += 1;
            e.1 += seq.len();
        }

        // Phase 1: trim.
        let mut trimmed: Vec<(usize, DnaSeq, QualityTrack, ReadKind)> = Vec::new();
        for (i, (seq, qual)) in reads.seqs.iter().zip(&reads.quals).enumerate() {
            match self.lucy.trim(seq, qual) {
                TrimOutcome::Keep { start, end } => {
                    trimmed.push((
                        i,
                        seq.slice(start, end),
                        qual.slice(start, end),
                        reads.provenance[i].kind,
                    ));
                }
                TrimOutcome::Reject => stats.rejected_by_trim += 1,
            }
        }

        // Phase 2: repeat library = known ∪ statistically discovered.
        let mut library = self.known_repeats.clone();
        if let Some(cfg) = &self.config.stat_repeats {
            let mut cfg = *cfg;
            cfg.k = self.config.mask_k;
            let seqs: Vec<&DnaSeq> = trimmed.iter().map(|(_, s, _, _)| s).collect();
            let stat = RepeatLibrary::from_statistics(&seqs, &cfg);
            library.merge(&stat);
        }

        // Phase 3: mask and invalidate.
        let mut store = FragmentStore::new();
        let mut store_unmasked = FragmentStore::new();
        let mut quals = Vec::new();
        let mut origin = Vec::new();
        for (i, seq, qual, kind) in trimmed {
            let mut masked = seq.clone();
            stats.masked_bases += library.mask(&mut masked);
            if masked.longest_unmasked_run() < self.config.min_unmasked_run {
                stats.rejected_by_mask += 1;
                continue;
            }
            let e = stats.after.entry(kind.label().to_string()).or_default();
            e.0 += 1;
            e.1 += masked.len();
            store.push(&masked);
            store_unmasked.push(&seq);
            quals.push(qual);
            origin.push(i);
        }
        PreprocessOutput { store, store_unmasked, quals, origin, stats }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pgasm_seq::QualityTrack;
    use pgasm_simgen::genome::{Genome, GenomeSpec};
    use pgasm_simgen::sampler::{Sampler, SamplerConfig};
    use pgasm_simgen::vector::VECTOR_SEQ;
    use pgasm_simgen::Provenance;

    fn tiny_readset(seqs: Vec<DnaSeq>, kind: ReadKind) -> ReadSet {
        let quals = seqs.iter().map(|s| QualityTrack::uniform(s.len(), 40)).collect();
        let provenance =
            seqs.iter().map(|_| Provenance { genome: 0, start: 0, end: 0, reverse: false, kind }).collect();
        ReadSet { seqs, quals, provenance }
    }

    #[test]
    fn passthrough_for_clean_unique_reads() {
        let mut rng = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(1);
        let seqs: Vec<DnaSeq> = (0..20).map(|_| pgasm_simgen::genome::random_dna(&mut rng, 300)).collect();
        let reads = tiny_readset(seqs, ReadKind::Wgs);
        let cfg = PreprocessConfig { stat_repeats: None, ..PreprocessConfig::default() };
        let pp = Preprocessor::new(cfg, &[DnaSeq::from(VECTOR_SEQ)], &[]);
        let out = pp.run(&reads);
        assert_eq!(out.store.num_seqs(), 20);
        assert_eq!(out.stats.rejected_by_trim, 0);
        assert_eq!(out.stats.rejected_by_mask, 0);
    }

    #[test]
    fn repeat_saturated_reads_invalidated() {
        let mut rng = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(2);
        let repeat = pgasm_simgen::genome::random_dna(&mut rng, 400);
        // Reads that are pure repeat + a few unique reads.
        let mut seqs: Vec<DnaSeq> = (0..30).map(|_| repeat.clone()).collect();
        for _ in 0..5 {
            seqs.push(pgasm_simgen::genome::random_dna(&mut rng, 400));
        }
        let reads = tiny_readset(seqs, ReadKind::Wgs);
        let cfg = PreprocessConfig { stat_repeats: None, ..PreprocessConfig::default() };
        let pp = Preprocessor::new(cfg, &[], std::slice::from_ref(&repeat));
        let out = pp.run(&reads);
        assert_eq!(out.stats.rejected_by_mask, 30, "pure-repeat reads must die");
        assert_eq!(out.store.num_seqs(), 5);
    }

    #[test]
    fn table_rows_order_and_counts() {
        let mut reads = tiny_readset(
            vec![DnaSeq::from_codes(vec![0; 300]), DnaSeq::from_codes(vec![1; 300])],
            ReadKind::Mf,
        );
        let more = tiny_readset(vec![DnaSeq::from_codes(vec![2; 300])], ReadKind::Wgs);
        reads.extend(more);
        let cfg = PreprocessConfig { stat_repeats: None, ..PreprocessConfig::default() };
        let pp = Preprocessor::new(cfg, &[], &[]);
        let out = pp.run(&reads);
        let rows = out.stats.table_rows();
        assert_eq!(rows[0].0, "MF");
        assert_eq!(rows[0].1, 2);
        assert_eq!(rows.last().unwrap().0, "WGS");
    }

    #[test]
    fn end_to_end_with_simulated_artifacts() {
        // Full realism: genome + repeats + vector + quality decay.
        let genome = Genome::generate(&GenomeSpec::small(), 3);
        let mut sampler = Sampler::new(&genome, SamplerConfig::default_scaled(), 4);
        let reads = sampler.wgs(120);
        let pp = Preprocessor::new(
            PreprocessConfig::default(),
            &[DnaSeq::from(VECTOR_SEQ)],
            &genome.repeat_library,
        );
        let out = pp.run(&reads);
        // Most reads survive, some repeat-heavy ones die, and bases were
        // actually masked (the genome is 30% repeat).
        assert!(out.store.num_seqs() > 30, "too few survivors: {}", out.store.num_seqs());
        assert!(out.store.num_seqs() < 120, "nothing was filtered");
        assert!(out.stats.masked_bases > 0);
        assert_eq!(out.origin.len(), out.store.num_seqs());
        // Origins index into the original read set.
        for &o in &out.origin {
            assert!(o < reads.len());
        }
    }

    #[test]
    fn statistical_masking_reduces_pair_workload() {
        // Without any known library, the statistical pass alone should
        // mask a heavily repeated element.
        let mut rng = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(5);
        let repeat = pgasm_simgen::genome::random_dna(&mut rng, 200);
        let mut seqs = Vec::new();
        for _ in 0..60 {
            let mut r = pgasm_simgen::genome::random_dna(&mut rng, 150);
            r.extend_from(&repeat);
            r.extend_from(&pgasm_simgen::genome::random_dna(&mut rng, 150));
            seqs.push(r);
        }
        let reads = tiny_readset(seqs, ReadKind::Wgs);
        let cfg = PreprocessConfig {
            stat_repeats: Some(StatRepeatConfig {
                sample_fraction: 0.3,
                threshold_factor: 4.0,
                ..Default::default()
            }),
            ..PreprocessConfig::default()
        };
        let pp = Preprocessor::new(cfg, &[], &[]);
        let out = pp.run(&reads);
        assert!(out.stats.masked_bases > 60 * 100, "masked only {} bases", out.stats.masked_bases);
    }
}

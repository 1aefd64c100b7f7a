//! Fragment sampling strategies.
//!
//! WGS samples uniformly at random; MF/HC bias sampling toward gene
//! islands (the paper: these strategies "bias fragment sampling towards
//! gene-rich regions", producing the non-uniform coverage that breaks
//! the Θ(n) assumptions of conventional assemblers); BAC sampling picks
//! long clones and covers them densely.

use crate::errors::ErrorModel;
use crate::genome::Genome;
use crate::vector::VectorModel;
use crate::{Provenance, ReadKind};
use pgasm_seq::{DnaSeq, FragmentStore, QualityTrack};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Configuration for one sampling run.
#[derive(Debug, Clone, PartialEq)]
pub struct SamplerConfig {
    /// Read length range (uniform draw).
    pub read_len: (usize, usize),
    /// Error model applied to each read.
    pub errors: ErrorModel,
    /// Vector / quality-artefact model (None = clean reads).
    pub vector: Option<VectorModel>,
    /// Probability a read is taken from the reverse strand.
    pub reverse_prob: f64,
    /// For MF/HC: probability a read is drawn from inside a gene island
    /// (the rest are uniform background — enrichment is imperfect).
    pub island_bias: f64,
    /// For BAC: clone length range.
    pub bac_clone_len: (usize, usize),
}

impl SamplerConfig {
    /// Sensible defaults at reduced scale: 300–600 bp reads, Sanger
    /// errors, 90% island bias for enriched strategies, 10–30 kb clones.
    pub fn default_scaled() -> SamplerConfig {
        SamplerConfig {
            read_len: (300, 600),
            errors: ErrorModel::SANGER,
            vector: Some(VectorModel::default()),
            reverse_prob: 0.5,
            island_bias: 0.9,
            bac_clone_len: (10_000, 30_000),
        }
    }

    /// Error-free, artefact-free reads (for exactness tests).
    pub fn clean() -> SamplerConfig {
        SamplerConfig {
            read_len: (300, 600),
            errors: ErrorModel::PERFECT,
            vector: None,
            reverse_prob: 0.5,
            island_bias: 0.9,
            bac_clone_len: (10_000, 30_000),
        }
    }
}

/// A sampled read set: sequences, qualities, and ground truth, parallel
/// by index.
#[derive(Debug, Clone, Default)]
pub struct ReadSet {
    /// The reads.
    pub seqs: Vec<DnaSeq>,
    /// Per-read quality tracks.
    pub quals: Vec<QualityTrack>,
    /// Per-read ground truth.
    pub provenance: Vec<Provenance>,
}

impl ReadSet {
    /// Number of reads.
    pub fn len(&self) -> usize {
        self.seqs.len()
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.seqs.is_empty()
    }

    /// Total bases.
    pub fn total_bases(&self) -> usize {
        self.seqs.iter().map(|s| s.len()).sum()
    }

    /// Append all reads of `other`.
    pub fn extend(&mut self, other: ReadSet) {
        self.seqs.extend(other.seqs);
        self.quals.extend(other.quals);
        self.provenance.extend(other.provenance);
    }

    /// Pack the sequences into a [`FragmentStore`] (provenance stays
    /// index-parallel).
    pub fn to_store(&self) -> FragmentStore {
        FragmentStore::from_seqs(self.seqs.iter().cloned())
    }
}

/// The sampler over one genome.
pub struct Sampler<'g> {
    genome: &'g Genome,
    config: SamplerConfig,
    rng: StdRng,
    genome_id: u32,
}

impl<'g> Sampler<'g> {
    /// New sampler with a deterministic seed.
    pub fn new(genome: &'g Genome, config: SamplerConfig, seed: u64) -> Self {
        Sampler { genome, config, rng: StdRng::seed_from_u64(seed), genome_id: 0 }
    }

    /// Tag emitted provenance with a genome/species id (environmental
    /// samples).
    pub fn with_genome_id(mut self, id: u32) -> Self {
        self.genome_id = id;
        self
    }

    /// Sample `n` uniform WGS reads.
    pub fn wgs(&mut self, n: usize) -> ReadSet {
        let mut out = ReadSet::default();
        for _ in 0..n {
            let (start, len) = self.draw_uniform_window();
            self.emit(&mut out, start, len, ReadKind::Wgs);
        }
        out
    }

    /// Sample `n` gene-enriched reads (`kind` = MF or HC): with
    /// probability `island_bias` the read start falls inside a gene
    /// island.
    pub fn enriched(&mut self, n: usize, kind: ReadKind) -> ReadSet {
        assert!(matches!(kind, ReadKind::Mf | ReadKind::Hc));
        let mut out = ReadSet::default();
        for _ in 0..n {
            let (start, len) =
                if !self.genome.islands.is_empty() && self.rng.gen_bool(self.config.island_bias) {
                    self.draw_island_window()
                } else {
                    self.draw_uniform_window()
                };
            self.emit(&mut out, start, len, kind);
        }
        out
    }

    /// Sample `clones` BAC clones, each covered by `reads_per_clone`
    /// reads (ends are always sampled, mimicking end-sequencing).
    pub fn bac(&mut self, clones: usize, reads_per_clone: usize) -> ReadSet {
        let mut out = ReadSet::default();
        let glen = self.genome.len();
        for _ in 0..clones {
            let clen = self
                .rng
                .gen_range(self.config.bac_clone_len.0..=self.config.bac_clone_len.1)
                .min(glen.saturating_sub(1));
            if clen == 0 {
                continue;
            }
            let cstart = self.rng.gen_range(0..glen - clen);
            for r in 0..reads_per_clone {
                let rl = self.draw_read_len().min(clen);
                let start = match r {
                    0 => cstart,             // 5' clone end
                    1 => cstart + clen - rl, // 3' clone end
                    _ => cstart + self.rng.gen_range(0..=clen - rl),
                };
                self.emit(&mut out, start, rl, ReadKind::Bac);
            }
        }
        out
    }

    fn draw_read_len(&mut self) -> usize {
        self.rng.gen_range(self.config.read_len.0..=self.config.read_len.1)
    }

    fn draw_uniform_window(&mut self) -> (usize, usize) {
        let len = self.draw_read_len().min(self.genome.len());
        let start = if self.genome.len() > len { self.rng.gen_range(0..self.genome.len() - len) } else { 0 };
        (start, len)
    }

    fn draw_island_window(&mut self) -> (usize, usize) {
        let &(s, e) = &self.genome.islands[self.rng.gen_range(0..self.genome.islands.len())];
        let len = self.draw_read_len();
        // Start anywhere such that the read intersects the island.
        let lo = s.saturating_sub(len / 4);
        let hi =
            (e.saturating_sub(len / 2)).max(lo + 1).min(self.genome.len().saturating_sub(len).max(lo + 1));
        let start = self.rng.gen_range(lo..hi);
        let len = len.min(self.genome.len() - start);
        (start, len)
    }

    fn emit(&mut self, out: &mut ReadSet, start: usize, len: usize, kind: ReadKind) {
        let reverse = self.rng.gen_bool(self.config.reverse_prob);
        let end = (start + len).min(self.genome.len());
        let template = self.genome.seq.slice(start, end);
        let template = if reverse { template.reverse_complement() } else { template };
        // Quality-linked errors: draw the phred profile first, then
        // corrupt each base at its phred error probability.
        let profile = self.config.errors.qualities(template.len(), &mut self.rng);
        let (mut read, mut qual) =
            self.config.errors.corrupt_quality_linked(&template, &profile, &mut self.rng);
        if let Some(v) = &self.config.vector {
            let (r, q) = v.contaminate(read, qual, &mut self.rng);
            read = r;
            qual = q;
        }
        out.seqs.push(read);
        out.quals.push(qual);
        out.provenance.push(Provenance {
            genome: self.genome_id,
            start: start as u32,
            end: end as u32,
            reverse,
            kind,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::genome::GenomeSpec;

    fn small_genome(seed: u64) -> Genome {
        Genome::generate(&GenomeSpec::small(), seed)
    }

    #[test]
    fn wgs_counts_and_lengths() {
        let g = small_genome(1);
        let mut s = Sampler::new(&g, SamplerConfig::clean(), 9);
        let reads = s.wgs(50);
        assert_eq!(reads.len(), 50);
        for (r, p) in reads.seqs.iter().zip(&reads.provenance) {
            assert!(r.len() >= 290 && r.len() <= 620, "read len {}", r.len());
            assert_eq!(p.kind, ReadKind::Wgs);
            assert!((p.end as usize) <= g.len());
        }
    }

    #[test]
    fn clean_reads_match_genome_exactly() {
        let g = small_genome(2);
        let mut s = Sampler::new(&g, SamplerConfig::clean(), 10);
        let reads = s.wgs(20);
        for (r, p) in reads.seqs.iter().zip(&reads.provenance) {
            let region = g.seq.slice(p.start as usize, p.end as usize);
            let expect = if p.reverse { region.reverse_complement() } else { region };
            assert_eq!(r, &expect);
        }
    }

    #[test]
    fn enrichment_biases_island_coverage() {
        let g = small_genome(3);
        let mut cfg = SamplerConfig::clean();
        cfg.island_bias = 0.95;
        let mut s = Sampler::new(&g, cfg, 11);
        let reads = s.enriched(400, ReadKind::Mf);
        let in_island =
            reads.provenance.iter().filter(|p| g.in_island(((p.start + p.end) / 2) as usize)).count();
        // Islands cover ~30–40% of the 50 kb genome; with bias 0.95 the
        // majority of reads must hit them.
        assert!(in_island * 2 > reads.len(), "{in_island}/{}", reads.len());
    }

    #[test]
    fn bac_reads_cluster_in_clones() {
        let g = small_genome(4);
        let mut s = Sampler::new(&g, SamplerConfig::clean(), 12);
        let reads = s.bac(2, 10);
        assert_eq!(reads.len(), 20);
        // Reads of one clone span at most the clone length.
        let spans: Vec<(u32, u32)> = reads.provenance.iter().map(|p| (p.start, p.end)).collect();
        let clone1 = &spans[..10];
        let min = clone1.iter().map(|s| s.0).min().unwrap();
        let max = clone1.iter().map(|s| s.1).max().unwrap();
        assert!((max - min) as usize <= 30_000 + 600);
    }

    #[test]
    fn deterministic_sampling() {
        let g = small_genome(5);
        let a = Sampler::new(&g, SamplerConfig::default_scaled(), 77).wgs(10);
        let b = Sampler::new(&g, SamplerConfig::default_scaled(), 77).wgs(10);
        assert_eq!(a.seqs, b.seqs);
        assert_eq!(a.provenance, b.provenance);
    }

    #[test]
    fn readset_extend_and_store() {
        let g = small_genome(6);
        let mut s = Sampler::new(&g, SamplerConfig::clean(), 13);
        let mut a = s.wgs(5);
        let b = s.enriched(5, ReadKind::Hc);
        a.extend(b);
        assert_eq!(a.len(), 10);
        let store = a.to_store();
        assert_eq!(store.num_seqs(), 10);
        assert_eq!(store.total_len(), a.total_bases());
    }
}

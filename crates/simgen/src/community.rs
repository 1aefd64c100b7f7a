//! Environmental (metagenomic) communities.
//!
//! §9.2: the Sargasso Sea sample mixes WGS fragments from >1800 bacterial
//! species with highly skewed abundances. A [`Community`] holds many
//! small genomes; sampling draws reads per-species proportionally to a
//! power-law abundance distribution, so a few species dominate coverage
//! while a long tail appears only as singletons — exactly the regime in
//! which the cluster count explodes.

use crate::genome::{Genome, GenomeSpec};
use crate::sampler::{ReadSet, Sampler, SamplerConfig};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Parameters of a synthetic community.
#[derive(Debug, Clone, PartialEq)]
pub struct CommunitySpec {
    /// Number of species.
    pub species: usize,
    /// Genome length range per species.
    pub genome_len: (usize, usize),
    /// Power-law exponent of the abundance distribution (rank^-alpha).
    pub abundance_alpha: f64,
    /// Repeat fraction within each genome (bacteria: low).
    pub repeat_fraction: f64,
}

impl CommunitySpec {
    /// A small test-scale community.
    pub fn small() -> CommunitySpec {
        CommunitySpec {
            species: 12,
            genome_len: (8_000, 20_000),
            abundance_alpha: 1.0,
            repeat_fraction: 0.05,
        }
    }
}

/// A set of species genomes with relative abundances.
pub struct Community {
    /// The genomes, indexed by species id.
    pub genomes: Vec<Genome>,
    /// Normalised abundances (sum to 1).
    pub abundances: Vec<f64>,
}

impl Community {
    /// Generate a community deterministically.
    pub fn generate(spec: &CommunitySpec, seed: u64) -> Community {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut genomes = Vec::with_capacity(spec.species);
        for i in 0..spec.species {
            let len = rng.gen_range(spec.genome_len.0..=spec.genome_len.1);
            let gspec = GenomeSpec {
                length: len,
                repeat_fraction: spec.repeat_fraction,
                repeat_families: 2,
                repeat_len: (50, 300),
                repeat_identity: 0.98,
                islands: 0,
                island_len: (1, 2),
            };
            genomes.push(Genome::generate(&gspec, seed.wrapping_add(1 + i as u64)));
        }
        let raw: Vec<f64> = (1..=spec.species).map(|r| (r as f64).powf(-spec.abundance_alpha)).collect();
        let total: f64 = raw.iter().sum();
        let abundances = raw.into_iter().map(|a| a / total).collect();
        Community { genomes, abundances }
    }

    /// Sample `n` WGS reads across species, proportional to abundance.
    /// Provenance `genome` fields carry the species id.
    pub fn sample_wgs(&self, n: usize, config: &SamplerConfig, seed: u64) -> ReadSet {
        let mut rng = StdRng::seed_from_u64(seed);
        // Multinomial draw of per-species read counts.
        let mut counts = vec![0usize; self.genomes.len()];
        for _ in 0..n {
            let x: f64 = rng.gen();
            let mut acc = 0.0;
            let mut chosen = self.genomes.len() - 1;
            for (i, &a) in self.abundances.iter().enumerate() {
                acc += a;
                if x < acc {
                    chosen = i;
                    break;
                }
            }
            counts[chosen] += 1;
        }
        let mut out = ReadSet::default();
        for (i, &c) in counts.iter().enumerate() {
            if c == 0 {
                continue;
            }
            let mut s = Sampler::new(&self.genomes[i], config.clone(), seed.wrapping_add(1000 + i as u64))
                .with_genome_id(i as u32);
            out.extend(s.wgs(c));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn community_shape() {
        let c = Community::generate(&CommunitySpec::small(), 1);
        assert_eq!(c.genomes.len(), 12);
        let sum: f64 = c.abundances.iter().sum();
        assert!((sum - 1.0).abs() < 1e-9);
        // Power law: first species strictly more abundant than last.
        assert!(c.abundances[0] > c.abundances[11] * 2.0);
    }

    #[test]
    fn sampling_respects_abundance() {
        let c = Community::generate(&CommunitySpec::small(), 2);
        let reads = c.sample_wgs(600, &SamplerConfig::clean(), 3);
        assert_eq!(reads.len(), 600);
        let mut per_species = vec![0usize; c.genomes.len()];
        for p in &reads.provenance {
            per_species[p.genome as usize] += 1;
        }
        assert!(per_species[0] > per_species[c.genomes.len() - 1], "{per_species:?}");
    }

    #[test]
    fn deterministic() {
        let c = Community::generate(&CommunitySpec::small(), 5);
        let a = c.sample_wgs(50, &SamplerConfig::clean(), 7);
        let b = c.sample_wgs(50, &SamplerConfig::clean(), 7);
        assert_eq!(a.seqs, b.seqs);
    }

    #[test]
    fn species_ids_in_provenance() {
        let c = Community::generate(&CommunitySpec::small(), 6);
        let reads = c.sample_wgs(200, &SamplerConfig::clean(), 8);
        let species: std::collections::HashSet<u32> = reads.provenance.iter().map(|p| p.genome).collect();
        assert!(species.len() > 3, "expected reads from several species, got {species:?}");
    }
}

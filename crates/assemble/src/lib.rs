//! # pgasm-assemble — serial overlap–layout–consensus assembler
//!
//! The cluster-then-assemble framework runs a conventional serial
//! assembler on each cluster (the paper uses CAP3, "performed with a
//! higher stringency" than clustering). This crate is that stand-in: a
//! greedy OLC assembler small enough to audit yet faithful in behaviour:
//!
//! - [`overlap`] — all candidate pairwise overlaps within a cluster:
//!   shared 12-mers (both orientations) give each candidate its seed
//!   diagonals, the clustering phase's banded kernel aligns around them,
//!   and the stringent criteria decide.
//! - [`layout`] — a transitive layout: reads are placed on contig
//!   coordinates by walking consistent overlap edges; inconsistent
//!   edges (repeat-induced) are rejected, which is exactly what lets the
//!   downstream assembler "detect such discrepancies" the clustering
//!   deferred (§4).
//! - [`consensus`] — per-column majority vote over the placed reads.
//!
//! The paper's quality yardstick (§8: ≈ 1.1 contigs per cluster under
//! stringent assembly) is reproduced by the SEC8 experiment.

pub mod consensus;
pub mod layout;
pub mod overlap;

use pgasm_align::AcceptCriteria;
use pgasm_seq::{DnaSeq, QualityTrack};

/// Revision of the assembler's *algorithm*. Anything that stores contigs
/// keyed by the assembler's inputs (the artifact cache) folds this in, so
/// output written by another revision is never served as current. Bump it
/// whenever a change could alter a contig for some input.
///
/// 2: seed-anchored banded overlap verification (1 was the full-matrix
/// quality DP per candidate).
pub const ASSEMBLER_REVISION: u32 = 2;

/// Assembler configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AssemblyConfig {
    /// Overlap acceptance (defaults to the stringent assembly criteria).
    pub criteria: AcceptCriteria,
    /// Maximum disagreement (bases) between two placements of one read
    /// before the edge is called inconsistent.
    pub offset_tolerance: usize,
    /// Acceptance criteria when per-base qualities are available
    /// (quality-weighted identity separates noisy true overlaps, which
    /// score ≈ 0.99 weighted, from clean repeat-copy overlaps, which
    /// score at their true divergence).
    pub quality_criteria: AcceptCriteria,
    /// Merging two groups that *both* exceed
    /// [`AssemblyConfig::evidence_exempt_size`] reads requires this many
    /// agreeing overlap edges — a lone edge between two established
    /// contigs is repeat-suspect (the folding signature).
    pub min_group_evidence: usize,
    /// Groups at or below this size merge on a single edge.
    pub evidence_exempt_size: usize,
}

impl Default for AssemblyConfig {
    fn default() -> Self {
        AssemblyConfig {
            criteria: AcceptCriteria::ASSEMBLY,
            quality_criteria: AcceptCriteria { min_identity: 0.985, min_overlap: 40 },
            offset_tolerance: 40,
            min_group_evidence: 2,
            evidence_exempt_size: 2,
        }
    }
}

/// One read placed on a contig.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Placement {
    /// Index of the read within the assembled cluster.
    pub read: usize,
    /// Offset of the read's first (oriented) base on the contig.
    pub offset: usize,
    /// Whether the read is placed reverse-complemented.
    pub flipped: bool,
}

/// An assembled contig.
#[derive(Debug, Clone, PartialEq)]
pub struct Contig {
    /// Consensus sequence.
    pub seq: DnaSeq,
    /// The reads it was built from.
    pub placements: Vec<Placement>,
}

/// The result of assembling one cluster.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Assembly {
    /// Contigs with ≥ 2 reads, longest first.
    pub contigs: Vec<Contig>,
    /// Reads that assembled with nothing.
    pub singletons: Vec<usize>,
    /// Overlap edges rejected as geometrically inconsistent.
    pub inconsistent_edges: usize,
}

impl Assembly {
    /// Number of multi-read contigs.
    pub fn num_contigs(&self) -> usize {
        self.contigs.len()
    }

    /// N50 of the contig lengths (0 when there are none).
    pub fn n50(&self) -> usize {
        if self.contigs.is_empty() {
            return 0;
        }
        let mut lens: Vec<usize> = self.contigs.iter().map(|c| c.seq.len()).collect();
        lens.sort_unstable_by(|a, b| b.cmp(a));
        let total: usize = lens.iter().sum();
        let mut acc = 0usize;
        for l in lens {
            acc += l;
            if acc * 2 >= total {
                return l;
            }
        }
        0
    }

    /// Total consensus bases.
    pub fn total_bases(&self) -> usize {
        self.contigs.iter().map(|c| c.seq.len()).sum()
    }
}

/// Assemble one cluster of reads.
pub fn assemble(reads: &[DnaSeq], config: &AssemblyConfig) -> Assembly {
    assemble_with_quality(reads, None, config)
}

/// As [`assemble`], using per-read quality tracks for quality-weighted
/// overlap acceptance when available.
pub fn assemble_with_quality(
    reads: &[DnaSeq],
    quals: Option<&[QualityTrack]>,
    config: &AssemblyConfig,
) -> Assembly {
    if let Some(q) = quals {
        assert_eq!(q.len(), reads.len(), "one quality track per read");
    }
    if reads.is_empty() {
        return Assembly::default();
    }
    if reads.len() == 1 {
        return Assembly { contigs: Vec::new(), singletons: vec![0], inconsistent_edges: 0 };
    }
    let edges = overlap::find_overlaps(reads, quals, config);
    let (layouts, inconsistent) = layout::layout(reads, &edges, config);
    let mut contigs = Vec::new();
    let mut singletons = Vec::new();
    for l in layouts {
        if l.placements.len() == 1 {
            singletons.push(l.placements[0].read);
        } else {
            contigs.push(consensus::consensus(reads, &l.placements));
        }
    }
    contigs.sort_by_key(|c| std::cmp::Reverse(c.seq.len()));
    Assembly { contigs, singletons, inconsistent_edges: inconsistent }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Split a genome string into overlapping error-free reads tiling it.
    fn tile(genome: &str, read_len: usize, step: usize) -> Vec<DnaSeq> {
        let g = genome.as_bytes();
        let mut out = Vec::new();
        let mut at = 0;
        while at + read_len <= g.len() {
            out.push(DnaSeq::from_ascii(&g[at..at + read_len]));
            at += step;
        }
        if at < g.len() {
            out.push(DnaSeq::from_ascii(&g[g.len().saturating_sub(read_len)..]));
        }
        out
    }

    fn random_genome(seed: u64, len: usize) -> String {
        // Small deterministic LCG so the test needs no rand dependency.
        let mut x = seed.wrapping_mul(6364136223846793005).wrapping_add(1);
        let mut s = String::with_capacity(len);
        for _ in 0..len {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            s.push(['A', 'C', 'G', 'T'][(x >> 33) as usize % 4]);
        }
        s
    }

    #[test]
    fn perfect_tiling_reconstructs_genome() {
        let genome = random_genome(7, 1200);
        let reads = tile(&genome, 300, 150);
        let asm = assemble(&reads, &AssemblyConfig::default());
        assert_eq!(asm.num_contigs(), 1, "expected a single contig, got {:?}", asm.contigs.len());
        assert!(asm.singletons.is_empty());
        let contig = String::from_utf8(asm.contigs[0].seq.to_ascii()).unwrap();
        assert_eq!(contig, genome, "consensus must equal the genome exactly");
    }

    #[test]
    fn two_islands_two_contigs() {
        let g1 = random_genome(1, 900);
        let g2 = random_genome(2, 900);
        let mut reads = tile(&g1, 300, 150);
        reads.extend(tile(&g2, 300, 150));
        let asm = assemble(&reads, &AssemblyConfig::default());
        assert_eq!(asm.num_contigs(), 2);
        let seqs: Vec<String> =
            asm.contigs.iter().map(|c| String::from_utf8(c.seq.to_ascii()).unwrap()).collect();
        assert!(seqs.contains(&g1));
        assert!(seqs.contains(&g2));
    }

    #[test]
    fn reverse_complement_reads_are_placed() {
        let genome = random_genome(3, 1200);
        let mut reads = tile(&genome, 300, 150);
        // Flip half the reads.
        for (i, r) in reads.iter_mut().enumerate() {
            if i % 2 == 1 {
                *r = r.reverse_complement();
            }
        }
        let asm = assemble(&reads, &AssemblyConfig::default());
        assert_eq!(asm.num_contigs(), 1, "strand mixing broke assembly");
        let contig = String::from_utf8(asm.contigs[0].seq.to_ascii()).unwrap();
        let rc = String::from_utf8(DnaSeq::from(genome.as_str()).reverse_complement().to_ascii()).unwrap();
        assert!(contig == genome || contig == rc);
    }

    #[test]
    fn disjoint_reads_stay_singletons() {
        let reads = vec![
            DnaSeq::from(random_genome(4, 300).as_str()),
            DnaSeq::from(random_genome(5, 300).as_str()),
            DnaSeq::from(random_genome(6, 300).as_str()),
        ];
        let asm = assemble(&reads, &AssemblyConfig::default());
        assert_eq!(asm.num_contigs(), 0);
        assert_eq!(asm.singletons.len(), 3);
    }

    #[test]
    fn empty_and_single_input() {
        assert_eq!(assemble(&[], &AssemblyConfig::default()).num_contigs(), 0);
        let one = assemble(&[DnaSeq::from("ACGTACGT")], &AssemblyConfig::default());
        assert_eq!(one.singletons, vec![0]);
    }

    #[test]
    fn n50_computation() {
        let genome = random_genome(8, 1200);
        let reads = tile(&genome, 300, 150);
        let asm = assemble(&reads, &AssemblyConfig::default());
        assert_eq!(asm.n50(), 1200);
        assert_eq!(asm.total_bases(), 1200);
        assert_eq!(Assembly::default().n50(), 0);
    }
}

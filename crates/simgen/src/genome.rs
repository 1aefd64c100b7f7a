//! Synthetic reference genomes with planted repeats and gene islands.

use pgasm_seq::{Base, DnaSeq};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Parameters of a synthetic genome.
#[derive(Debug, Clone, PartialEq)]
pub struct GenomeSpec {
    /// Genome length in bases.
    pub length: usize,
    /// Fraction of the genome covered by repeat-family copies
    /// (maize ≈ 0.65–0.80; drosophila ≈ 0.1).
    pub repeat_fraction: f64,
    /// Number of distinct repeat families.
    pub repeat_families: usize,
    /// Length range of a repeat element.
    pub repeat_len: (usize, usize),
    /// Per-base identity of a repeat copy to its family consensus
    /// (maize repeats have "very high sequence identity" — 0.97–0.999).
    pub repeat_identity: f64,
    /// Number of gene islands.
    pub islands: usize,
    /// Length range of a gene island.
    pub island_len: (usize, usize),
}

impl GenomeSpec {
    /// A small default suitable for tests: 50 kb, 30% repeats, 10 islands.
    pub fn small() -> GenomeSpec {
        GenomeSpec {
            length: 50_000,
            repeat_fraction: 0.3,
            repeat_families: 5,
            repeat_len: (100, 800),
            repeat_identity: 0.99,
            islands: 10,
            island_len: (1_000, 3_000),
        }
    }
}

/// A half-open annotated interval on the genome.
pub type Interval = (usize, usize);

/// A synthetic genome with annotations.
#[derive(Debug, Clone)]
pub struct Genome {
    /// The forward-strand sequence.
    pub seq: DnaSeq,
    /// Intervals covered by planted repeat copies, sorted, may abut.
    pub repeats: Vec<Interval>,
    /// Gene-island intervals, sorted, non-overlapping.
    pub islands: Vec<Interval>,
    /// Consensus sequences of the repeat families (the "known repeat
    /// library" a masking database would hold).
    pub repeat_library: Vec<DnaSeq>,
}

impl Genome {
    /// Generate a genome from `spec`, deterministically from `seed`.
    pub fn generate(spec: &GenomeSpec, seed: u64) -> Genome {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut seq = random_dna(&mut rng, spec.length);

        // Repeat families: draw consensus elements, then paste
        // mutated copies at random positions until the target fraction
        // of the genome is covered.
        let mut library = Vec::with_capacity(spec.repeat_families);
        for _ in 0..spec.repeat_families {
            let len = rng.gen_range(spec.repeat_len.0..=spec.repeat_len.1);
            library.push(random_dna(&mut rng, len));
        }
        let mut repeats = Vec::new();
        let target = (spec.length as f64 * spec.repeat_fraction) as usize;
        let mut covered = 0usize;
        while covered < target && !library.is_empty() {
            let fam = &library[rng.gen_range(0..library.len())];
            if fam.len() >= spec.length {
                break;
            }
            let at = rng.gen_range(0..spec.length - fam.len());
            for (i, &c) in fam.codes().iter().enumerate() {
                let c = if rng.gen_bool(spec.repeat_identity) { c } else { random_other_base(&mut rng, c) };
                seq.codes_mut()[at + i] = c;
            }
            repeats.push((at, at + fam.len()));
            covered += fam.len();
        }
        repeats.sort_unstable();

        // Gene islands: non-overlapping intervals preferentially placed
        // outside repeats (genes sit "mostly outside the repeat
        // content", §1).
        let mut islands: Vec<Interval> = Vec::new();
        let mut attempts = 0;
        while islands.len() < spec.islands && attempts < spec.islands * 50 {
            attempts += 1;
            let len = rng.gen_range(spec.island_len.0..=spec.island_len.1.max(spec.island_len.0));
            if len >= spec.length {
                break;
            }
            let at = rng.gen_range(0..spec.length - len);
            let candidate = (at, at + len);
            if islands.iter().any(|&(s, e)| overlaps(candidate, (s, e))) {
                continue;
            }
            // Reject island placements that are mostly repeat.
            let rep_overlap: usize = repeats.iter().map(|&(s, e)| overlap_len(candidate, (s, e))).sum();
            if rep_overlap * 2 > len {
                continue;
            }
            islands.push(candidate);
        }
        islands.sort_unstable();

        Genome { seq, repeats, islands, repeat_library: library }
    }

    /// Genome length.
    pub fn len(&self) -> usize {
        self.seq.len()
    }

    /// True for a zero-length genome.
    pub fn is_empty(&self) -> bool {
        self.seq.is_empty()
    }

    /// Fraction of positions covered by at least one repeat interval.
    pub fn repeat_coverage(&self) -> f64 {
        if self.seq.is_empty() {
            return 0.0;
        }
        let mut covered = vec![false; self.seq.len()];
        for &(s, e) in &self.repeats {
            for c in covered.iter_mut().take(e.min(self.seq.len())).skip(s) {
                *c = true;
            }
        }
        covered.iter().filter(|&&c| c).count() as f64 / self.seq.len() as f64
    }

    /// Does position `pos` fall inside a gene island?
    pub fn in_island(&self, pos: usize) -> bool {
        self.islands.iter().any(|&(s, e)| pos >= s && pos < e)
    }
}

fn overlaps(a: Interval, b: Interval) -> bool {
    a.0 < b.1 && b.0 < a.1
}

fn overlap_len(a: Interval, b: Interval) -> usize {
    let s = a.0.max(b.0);
    let e = a.1.min(b.1);
    e.saturating_sub(s)
}

/// Uniform random DNA of the given length.
pub fn random_dna(rng: &mut impl Rng, len: usize) -> DnaSeq {
    (0..len).map(|_| Base::ALL[rng.gen_range(0..4)]).collect()
}

/// A uniformly random base different from `c`.
fn random_other_base(rng: &mut impl Rng, c: u8) -> u8 {
    let mut n = rng.gen_range(0..3u8);
    if n >= c {
        n += 1;
    }
    n
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_for_seed() {
        let spec = GenomeSpec::small();
        let a = Genome::generate(&spec, 42);
        let b = Genome::generate(&spec, 42);
        assert_eq!(a.seq, b.seq);
        assert_eq!(a.repeats, b.repeats);
        let c = Genome::generate(&spec, 43);
        assert_ne!(a.seq, c.seq);
    }

    #[test]
    fn length_respected() {
        let mut spec = GenomeSpec::small();
        spec.length = 10_000;
        let g = Genome::generate(&spec, 1);
        assert_eq!(g.len(), 10_000);
    }

    #[test]
    fn repeat_coverage_near_target() {
        let mut spec = GenomeSpec::small();
        spec.length = 100_000;
        spec.repeat_fraction = 0.5;
        let g = Genome::generate(&spec, 7);
        let cov = g.repeat_coverage();
        // Pastes may overlap, so realised coverage is at most the target
        // plus one element, and should not be far below it.
        assert!(cov > 0.3 && cov < 0.65, "coverage {cov}");
    }

    #[test]
    fn zero_repeats_supported() {
        let mut spec = GenomeSpec::small();
        spec.repeat_fraction = 0.0;
        let g = Genome::generate(&spec, 3);
        assert!(g.repeats.is_empty());
        assert!(g.repeat_coverage() < 1e-9);
    }

    #[test]
    fn islands_disjoint_and_in_bounds() {
        let g = Genome::generate(&GenomeSpec::small(), 11);
        for w in g.islands.windows(2) {
            assert!(w[0].1 <= w[1].0, "islands overlap: {w:?}");
        }
        for &(s, e) in &g.islands {
            assert!(s < e && e <= g.len());
        }
    }

    #[test]
    fn repeat_copies_resemble_library() {
        let mut spec = GenomeSpec::small();
        spec.repeat_families = 1;
        spec.repeat_identity = 1.0;
        spec.repeat_fraction = 0.2;
        let g = Genome::generate(&spec, 5);
        let fam = &g.repeat_library[0];
        let (s, e) = g.repeats[0];
        assert_eq!(&g.seq.codes()[s..e], fam.codes());
    }

    #[test]
    fn in_island_query() {
        let g = Genome::generate(&GenomeSpec::small(), 13);
        if let Some(&(s, e)) = g.islands.first() {
            assert!(g.in_island(s));
            assert!(g.in_island(e - 1));
            assert!(!g.in_island(g.len())); // out of range is false
        }
    }
}

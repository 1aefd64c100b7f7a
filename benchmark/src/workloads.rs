//! The benchmark's workloads and their seeded inputs.
//!
//! Inputs are built from `simgen` with the `--seed` argument and written
//! as FASTQ + reference FASTA during set-up; `pgasm` only ever sees the
//! files. Each input is a union of many independent pieces whose *shape*
//! (genome lengths, reads per genome, where each read lies) is fixed by
//! the workload, while every base, strand, quality and sequencing error
//! comes from the seed: the clusters and the layer shares stay put from
//! seed to seed, so a metric moves because the code moved, not because
//! the dice did.

use pgasm::seq::fasta::{write_fasta, write_fastq, FastaRecord, FastqRecord};
use pgasm::seq::DnaSeq;
use pgasm::simgen::errors::ErrorModel;
use pgasm::simgen::genome::{Genome, GenomeSpec};
use pgasm::simgen::sampler::{ReadSet, Sampler, SamplerConfig};

/// Where on its genome a read lies (drawn from [`LAYOUT`], not from the
/// seed).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Placement {
    /// As `Sampler::wgs` does: length and start uniformly at random, so
    /// coverage clumps and gaps as a Poisson process does. Right for
    /// sparse samples, where the clumps *are* the clusters.
    Random,
    /// Read `i` of `n` starts at an offset inside the `i`-th of `n` equal
    /// slots, and read lengths run through the sampler's range in a fixed
    /// order: even depth, so one genome is one cluster.
    Stratified,
}

/// `genomes` independent genomes of `genome_len` bases, each sampled by
/// WGS with exactly `reads_per_genome` reads.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Islands {
    pub genomes: usize,
    pub genome_len: usize,
    pub reads_per_genome: usize,
    /// Share of each genome covered by planted repeat copies.
    pub repeat_fraction: f64,
    pub placement: Placement,
}

#[derive(Debug, Clone, Copy)]
pub enum Input {
    /// Equal genomes, equally deep: as many like clusters.
    Uniform(Islands),
    /// One deeply sampled genome plus a tail of shallow ones: one
    /// dominant cluster and many small ones.
    HeavyTail { giant: Islands, tail: Islands },
    /// An environmental sample: `species` genomes whose read counts fall
    /// off as rank^-`abundance_alpha` (the Sargasso preset's shape, with
    /// the multinomial draw replaced by its expectation).
    PowerLaw { species: usize, genome_len: (usize, usize), abundance_alpha: f64, reads: usize },
}

#[derive(Debug, Clone, Copy)]
pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
    pub input: Input,
    /// Arguments after `pgasm assemble --reads <fastq> --out <fasta>`.
    pub args: &'static [&'static str],
    /// Run with `--cache-dir`: each cycle is a cold run into a fresh
    /// directory followed by a warm run over it.
    pub cache: bool,
    /// Ranks of the distributed replay (`--ranks` in `args`).
    pub ranks: Option<usize>,
    /// An upper estimate of one child run's wall (2-3x what it takes on
    /// the 2-core reference host); the watchdog kills a child at 5x this.
    pub expected_wall_s: f64,
}

const META_SPARSE: Input =
    Input::PowerLaw { species: 35, genome_len: (15_000, 60_000), abundance_alpha: 0.3, reads: 560 };

pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "wgs_deep",
        why: "Deep WGS of unique sequence, 2 like clusters on 2 threads: full-matrix overlap DP in assembly is \
              ~2/3 of the run, the GST ~1/3; a GST or cache change must show little here.",
        input: Input::Uniform(Islands {
            genomes: 2,
            genome_len: 1_500,
            reads_per_genome: 30,
            repeat_fraction: 0.0,
            placement: Placement::Stratified,
        }),
        args: &["--assembly-threads", "2"],
        cache: false,
        ranks: None,
        expected_wall_s: 2.0,
    },
    Workload {
        name: "meta_sparse",
        why: "Sparse environmental sample, ~90 tiny clusters: GST build + pair generation are ~3/4 of wall and \
              all of peak RSS; an assembly change must show little here.",
        input: META_SPARSE,
        args: &["--assembly-threads", "2"],
        cache: false,
        ranks: None,
        expected_wall_s: 2.0,
    },
    Workload {
        name: "maize_p3",
        why: "One 39-read cluster plus 6 small ones on 3 simulated ranks: per-rank GST, engine protocol, LPT \
              whole-cluster tasks; one cluster pins one worker, so imbalance and comm changes show here.",
        input: Input::HeavyTail {
            giant: Islands {
                genomes: 1,
                genome_len: 2_000,
                reads_per_genome: 39,
                repeat_fraction: 0.0,
                placement: Placement::Stratified,
            },
            tail: Islands {
                genomes: 6,
                genome_len: 1_500,
                reads_per_genome: 10,
                repeat_fraction: 0.0,
                placement: Placement::Stratified,
            },
        },
        args: &["--ranks", "3"],
        cache: false,
        ranks: Some(3),
        expected_wall_s: 2.0,
    },
    Workload {
        name: "meta_sparse_cache",
        why: "The meta_sparse input with --cache-dir, cold into a fresh directory then warm: store/encode cost \
              shows in wall_s, load/decode in warm_wall_s, artifact bytes in disk_mb.",
        input: META_SPARSE,
        args: &["--assembly-threads", "2"],
        cache: true,
        ranks: None,
        expected_wall_s: 3.0,
    },
];

pub fn find(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// A generated input: the reads `pgasm` will see and the genomes they
/// were sampled from.
pub struct Dataset {
    pub reads: ReadSet,
    pub genomes: Vec<DnaSeq>,
}

/// simgen's scaled sampler (300-600 bp reads, either strand, 70% with
/// 5' vector) with the Sanger phred ramp raised from q7..q30 to
/// q20..q40. At q7 read ends the column-vote consensus garbles a third
/// to a half of every contig, and *which* third differs so much from
/// seed to seed (k-mer precision 0.49-0.72 on `wgs_deep`) that no bound
/// could gate the quality metrics; at q20..q40 they hold within 3%.
fn read_model() -> SamplerConfig {
    SamplerConfig {
        errors: ErrorModel { end_quality: 20, peak_quality: 40, ..ErrorModel::SANGER },
        ..SamplerConfig::default_scaled()
    }
}

/// Length of the words no stratified genome may repeat (the assembler
/// seeds overlap candidates with 12-mers).
const UNIQUE_WORD: usize = 12;

/// Whether some `UNIQUE_WORD`-mer occurs twice in `seq`, on either
/// strand, or is its own reverse complement. A few-kb random genome
/// repeats one by chance about every other seed; each such pair of sites
/// makes every read over one a candidate for every read over the other —
/// +15% full-matrix alignments in a 60-read cluster — which is dice, not
/// workload. A palindromic word (one 1.5 kb genome in three holds one) is
/// worse: every pair of reads over it is a candidate in *both*
/// orientations, 91 more alignments for 14 reads (+37% on a 30-read
/// cluster). Genomes of the stratified inputs are redrawn until they hold
/// neither.
fn repeats_a_word(seq: &DnaSeq) -> bool {
    let positions = seq.len() + 1 - UNIQUE_WORD;
    crate::quality::canonical_kmers([seq], UNIQUE_WORD).len() < positions
        || (0..positions).any(|at| {
            let word = seq.slice(at, at + UNIQUE_WORD);
            word.reverse_complement() == word
        })
}

/// SplitMix64: one well-mixed word per (seed, index) without an RNG
/// crate.
fn splitmix(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn scaled(n: usize, scale: f64) -> usize {
    ((n as f64 * scale).round() as usize).max(1)
}

/// The genome groups of `input` at `scale` (`--quick` uses 0.25):
/// fewer genomes, and a shorter dominant genome at the same depth.
pub fn shape(input: Input, scale: f64) -> Vec<Islands> {
    match input {
        Input::Uniform(g) => vec![Islands { genomes: scaled(g.genomes, scale), ..g }],
        Input::HeavyTail { giant, tail } => vec![
            Islands {
                genome_len: scaled(giant.genome_len, scale),
                reads_per_genome: scaled(giant.reads_per_genome, scale),
                ..giant
            },
            Islands { genomes: scaled(tail.genomes, scale), ..tail },
        ],
        Input::PowerLaw { species, genome_len, abundance_alpha, reads } => {
            let (species, reads) = (scaled(species, scale), scaled(reads, scale));
            let weight = |rank: usize| (rank as f64).powf(-abundance_alpha);
            let total: f64 = (1..=species).map(weight).sum();
            (1..=species)
                .map(|rank| Islands {
                    genomes: 1,
                    // Lengths spread over the range by a fixed stride,
                    // the same for every seed.
                    genome_len: genome_len.0 + (rank * 7_919) % (genome_len.1 - genome_len.0 + 1),
                    reads_per_genome: (reads as f64 * weight(rank) / total).round() as usize,
                    repeat_fraction: 0.03,
                    placement: Placement::Random,
                })
                .collect()
        }
    }
}

/// The stream every read position and length is drawn from: a constant
/// of the benchmark, not of the run. Where the reads lie on their
/// genomes — and with it which reads overlap, how the clusters fall and
/// how much work each layer gets — is the workload's *shape* and the same
/// for every `--seed`; the seed writes the genomes' bases and every
/// read's strand, sequencing errors, qualities and vector contamination.
const LAYOUT: u64 = 0x00C0_FFEE_1A70;

/// A number in [0, 1) for draw `k` of read `i` on genome `id`, from
/// [`LAYOUT`].
fn layout_unit(id: u64, i: usize, k: u64) -> f64 {
    let h = splitmix(splitmix(LAYOUT ^ splitmix(id)) ^ (4 * i as u64 + k));
    (h >> 11) as f64 / (1u64 << 53) as f64
}

/// (start, length) of read `i` of `n` on genome `id` of `glen` bases,
/// with lengths in `read_len`.
fn window(
    placement: Placement,
    id: u64,
    i: usize,
    n: usize,
    glen: usize,
    read_len: (usize, usize),
) -> (usize, usize) {
    let (lo, hi) = read_len;
    let span = (hi - lo + 1) as f64;
    match placement {
        Placement::Random => {
            let len = (lo + (layout_unit(id, i, 0) * span) as usize).min(glen);
            (((glen - len) as f64 * layout_unit(id, i, 1)) as usize, len)
        }
        Placement::Stratified => {
            // Lengths fill the range along the golden-ratio sequence.
            let phase = ((i + 7 * id as usize) as f64 * 0.618_033_988_749_895).fract();
            let len = (lo + (phase * span) as usize).min(glen);
            let start = ((i as f64 + layout_unit(id, i, 1)) * glen as f64 / n as f64) as usize;
            (start.min(glen - len), len)
        }
    }
}

/// Build the input of `workload` from `seed`.
pub fn generate(workload: &Workload, seed: u64, scale: f64) -> Dataset {
    let mut reads = ReadSet::default();
    let mut genomes = Vec::new();
    let config = read_model();
    for group in shape(workload.input, scale) {
        for _ in 0..group.genomes {
            let id = genomes.len() as u64;
            let spec = GenomeSpec {
                length: group.genome_len,
                repeat_fraction: group.repeat_fraction,
                repeat_families: 2,
                repeat_len: (50, 300),
                repeat_identity: 0.98,
                islands: 0,
                island_len: (1, 2),
            };
            let stream = splitmix(seed ^ splitmix(id));
            let genome = (0..)
                .map(|attempt| Genome::generate(&spec, stream.wrapping_add(attempt)))
                .find(|g| group.placement == Placement::Random || !repeats_a_word(&g.seq))
                .expect("unbounded search");
            let n = group.reads_per_genome;
            for i in 0..n {
                let (start, len) = window(group.placement, id, i, n, genome.len(), config.read_len);
                // The whole of a one-read window through the sampler:
                // strand, errors, qualities and vector contamination are
                // simgen's own read model, drawn from the seed.
                let one_read = Genome {
                    seq: genome.seq.slice(start, start + len),
                    repeats: Vec::new(),
                    islands: Vec::new(),
                    repeat_library: Vec::new(),
                };
                let exactly = SamplerConfig { read_len: (len, len), ..config.clone() };
                let content = splitmix(stream ^ splitmix(i as u64 + 1));
                reads.extend(Sampler::new(&one_read, exactly, content).with_genome_id(id as u32).wgs(1));
            }
            genomes.push(genome.seq);
        }
    }
    Dataset { reads, genomes }
}

/// The reads as FASTQ and the genomes as FASTA, in memory.
pub fn serialize(dataset: &Dataset) -> (Vec<u8>, Vec<u8>) {
    let records: Vec<FastqRecord> = dataset
        .reads
        .seqs
        .iter()
        .zip(&dataset.reads.quals)
        .enumerate()
        .map(|(i, (seq, qual))| FastqRecord {
            header: format!("read{i}"),
            seq: seq.clone(),
            qual: qual.clone(),
        })
        .collect();
    let mut fastq = Vec::new();
    write_fastq(&mut fastq, &records).expect("write to memory");
    let genomes: Vec<FastaRecord> = dataset
        .genomes
        .iter()
        .enumerate()
        .map(|(i, g)| FastaRecord { header: format!("genome{i} len={}", g.len()), seq: g.clone() })
        .collect();
    let mut reference = Vec::new();
    write_fasta(&mut reference, &genomes, 80).expect("write to memory");
    (fastq, reference)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn repeated_and_palindromic_words_are_found() {
        let dna = |s: &str| DnaSeq::from_ascii(s.as_bytes());
        assert!(!repeats_a_word(&dna("AACCGGTTACGATCAGGA")));
        // The same 12-mer twice, and once on each strand.
        assert!(repeats_a_word(&dna("AACCGGTTACGAGAACCGGTTACGA")));
        assert!(repeats_a_word(&dna("AACCGGTTACGAGTCGTAACCGGTT")));
        // ACGTACGTACGT reads the same on both strands.
        assert!(repeats_a_word(&dna("GGACGTACGTACGTCA")));
    }

    #[test]
    fn the_same_seed_gives_the_same_input_and_another_seed_another() {
        let w = find("maize_p3").expect("workload");
        let bytes = |seed| serialize(&generate(w, seed, 0.25));
        assert_eq!(bytes(5), bytes(5));
        assert_ne!(bytes(5), bytes(6));
    }
}

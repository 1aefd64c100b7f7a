//! Micro-benchmarks of the framework's kernels: alignment, GST
//! construction, pair generation, Union–Find, the message substrate,
//! serial clustering, and the assembler. These quantify the constants
//! behind the experiment binaries (run those via
//! `cargo run --release -p pgasm-bench --bin …`).
//!
//! Self-contained harness (`harness = false`): each kernel runs a
//! fixed iteration count under a telemetry span and reports mean wall
//! and thread-CPU time per iteration; the full run is also written to
//! `BENCH_kernels.json` as a `RunReport`. Run with
//! `cargo bench -p pgasm-bench`.

use pgasm_align::{banded_overlap_align, overlap_align, overlap_align_simd, AlignScratch, Scoring, SimdOpts};
use pgasm_core::UnionFind;
use pgasm_gst::{GenMode, Gst, GstConfig, PairGenerator};
use pgasm_seq::{DnaSeq, FragmentStore};
use pgasm_simgen::genome::{random_dna, Genome, GenomeSpec};
use pgasm_simgen::sampler::{Sampler, SamplerConfig};
use pgasm_telemetry::{RunContext, RunReport};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn overlapping_reads(n: usize, seed: u64) -> FragmentStore {
    let genome = Genome::generate(
        &GenomeSpec {
            length: n * 120,
            repeat_fraction: 0.1,
            repeat_families: 3,
            repeat_len: (80, 200),
            repeat_identity: 0.99,
            islands: 0,
            island_len: (1, 2),
        },
        seed,
    );
    let mut sampler = Sampler::new(&genome, SamplerConfig::clean(), seed + 1);
    sampler.wgs(n).to_store()
}

struct Harness {
    ctx: RunContext,
    rows: Vec<(String, u64, f64, f64)>,
}

impl Harness {
    fn new() -> Self {
        Harness { ctx: RunContext::new("kernels"), rows: Vec::new() }
    }

    /// Run `f` once to warm up, then `iters` times under one span;
    /// record mean per-iteration wall and CPU seconds.
    fn bench<T>(&mut self, name: &str, iters: u64, mut f: impl FnMut() -> T) {
        std::hint::black_box(f());
        self.ctx.push(name);
        for _ in 0..iters {
            std::hint::black_box(f());
        }
        let (wall, cpu) = self.ctx.pop();
        self.ctx.add(&format!("{name}_iters"), iters);
        self.rows.push((name.to_string(), iters, wall / iters as f64, cpu / iters as f64));
    }

    fn finish(self) -> RunReport {
        println!("{:<32} {:>6} {:>14} {:>14}", "kernel", "iters", "wall/iter", "cpu/iter");
        for (name, iters, wall, cpu) in &self.rows {
            println!("{name:<32} {iters:>6} {:>12.3}µs {:>12.3}µs", wall * 1e6, cpu * 1e6);
        }
        self.ctx.finish()
    }
}

fn main() {
    let mut h = Harness::new();

    // Alignment: the two oracles and the production kernel (ungated, as
    // the assembler calls it) over a planted 200 bp overlap.
    let mut rng = StdRng::seed_from_u64(1);
    let shared = random_dna(&mut rng, 200);
    let mut a = random_dna(&mut rng, 300);
    a.extend_from(&shared);
    let mut b = shared.clone();
    b.extend_from(&random_dna(&mut rng, 300));
    let s = Scoring::DEFAULT;
    h.bench("alignment/overlap_full_500bp", 20, || overlap_align(a.codes(), b.codes(), &s));
    h.bench("alignment/overlap_banded_500bp", 20, || banded_overlap_align(a.codes(), b.codes(), 300, 24, &s));
    let mut scratch = AlignScratch::for_sequences(500, 24);
    h.bench("alignment/overlap_simd_500bp", 200, || {
        overlap_align_simd(a.codes(), b.codes(), 300, 24, &s, None, None, &mut scratch, SimdOpts::default())
    });

    // GST construction at two scales (recorded numbers predate PR 12's
    // sort-based builder and PR 15's bucket admission).
    for n in [100usize, 400] {
        let store = overlapping_reads(n, 7).with_reverse_complements();
        h.bench(&format!("gst_build/{n}_reads"), 10, || Gst::build(&store, GstConfig { psi: 20 }));
    }

    // Pair generation, both modes.
    let store = overlapping_reads(400, 9).with_reverse_complements();
    for mode in [GenMode::AllMatches, GenMode::DupElim] {
        h.bench(&format!("pair_generation/{mode:?}"), 10, || {
            let gst = Gst::build(&store, GstConfig { psi: 20 });
            PairGenerator::new(gst, mode, |_, _| false).count()
        });
    }

    // Union–Find chain unions.
    h.bench("unionfind/100k_unions", 10, || {
        let mut uf = UnionFind::new(100_000);
        for i in 0..99_999u32 {
            uf.union(i, i + 1);
        }
        uf.num_sets()
    });

    // Message substrate: all-to-all over 4 simulated ranks.
    h.bench("mpisim/alltoallv_4ranks_64KiB", 10, || {
        pgasm_mpisim::run(4, |comm| {
            let bufs = (0..comm.size()).map(|_| vec![0u8; 16 * 1024]).collect();
            comm.all_to_allv(bufs).len()
        })
    });
    h.bench("mpisim/alltoallv_p2p_4ranks_64KiB", 10, || {
        pgasm_mpisim::run(4, |comm| {
            let bufs = (0..comm.size()).map(|_| vec![0u8; 16 * 1024]).collect();
            comm.all_to_allv_p2p(bufs).len()
        })
    });

    // Serial clustering end to end on a small instance.
    let store = overlapping_reads(300, 13);
    let params = pgasm_core::ClusterParams::default();
    h.bench("clustering/serial_300_reads", 10, || pgasm_core::cluster_serial(&store, &params));

    // Assembler on one mid-sized cluster.
    let mut rng = StdRng::seed_from_u64(21);
    let genome: Vec<u8> = random_dna(&mut rng, 3_000).to_ascii();
    let mut reads = Vec::new();
    let mut at = 0;
    while at + 400 <= genome.len() {
        reads.push(DnaSeq::from_ascii(&genome[at..at + 400]));
        at += 200;
    }
    let cfg = pgasm_assemble::AssemblyConfig::default();
    h.bench("assembler/cluster_of_14_reads", 20, || pgasm_assemble::assemble(&reads, &cfg));

    let report = h.finish();
    let path = std::path::Path::new("BENCH_kernels.json");
    match report.write_json(path) {
        Ok(()) => println!("\nwrote {}", path.display()),
        Err(e) => eprintln!("\ncould not write {}: {e}", path.display()),
    }
}

//! Quickstart: cluster-then-assemble on a tiny synthetic dataset.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```
//!
//! Generates a small genome with a few gene islands, samples error-free
//! reads from the islands, runs the full pipeline (clustering + per-
//! cluster assembly), and shows that each cluster reassembles into a
//! contig that matches the genome exactly.

use pgasm::cluster::{ClusterParams, Pipeline, PipelineConfig};
use pgasm::gst::GstConfig;
use pgasm::simgen::genome::{Genome, GenomeSpec};
use pgasm::simgen::sampler::{Sampler, SamplerConfig};
use pgasm::simgen::ReadKind;

fn main() {
    // 1. A 30 kb genome with four gene islands and no repeats.
    let genome = Genome::generate(
        &GenomeSpec {
            length: 30_000,
            repeat_fraction: 0.0,
            repeat_families: 0,
            repeat_len: (50, 60),
            repeat_identity: 1.0,
            islands: 4,
            island_len: (2_000, 3_000),
        },
        7,
    );
    println!("genome: {} bp, {} islands", genome.len(), genome.islands.len());

    // 2. Sample 240 clean reads concentrated on the islands
    //    (gene-enriched sequencing, like the paper's MF/HC data).
    let mut config = SamplerConfig::clean();
    config.island_bias = 1.0;
    let mut sampler = Sampler::new(&genome, config, 8);
    let reads = sampler.enriched(240, ReadKind::Mf);
    println!("reads:  {} ({} bp total)", reads.len(), reads.total_bases());

    // 3. Cluster-then-assemble. No preprocessing needed — the reads are
    //    clean — so run clustering directly.
    let cluster = ClusterParams { gst: GstConfig { psi: 20 }, ..Default::default() };
    let pipeline = Pipeline::new(PipelineConfig {
        preprocess: None,
        cluster,
        parallel_ranks: None,
        assembly_threads: 2,
        ..Default::default()
    });
    let report = pipeline.run(&reads, &[], &[]);

    println!(
        "clusters: {} non-singleton, {} singletons, largest holds {:.1}% of reads",
        report.clustering.num_non_singletons(),
        report.clustering.num_singletons(),
        report.clustering.max_cluster_fraction() * 100.0
    );

    // 4. Each cluster assembles (stringently) into contigs; check them
    //    against the genome.
    let genome_fwd = String::from_utf8(genome.seq.to_ascii()).unwrap();
    let genome_rc = String::from_utf8(genome.seq.reverse_complement().to_ascii()).unwrap();
    let mut exact = 0usize;
    let mut total = 0usize;
    for assembly in &report.assemblies {
        for contig in &assembly.contigs {
            total += 1;
            let s = String::from_utf8(contig.seq.to_ascii()).unwrap();
            if genome_fwd.contains(&s) || genome_rc.contains(&s) {
                exact += 1;
            }
        }
    }
    println!("contigs:  {total} assembled, {exact} are exact substrings of the genome");
    println!("contigs per cluster: {:.2} (paper achieves ~1.1 on maize)", report.contigs_per_cluster());
    assert_eq!(exact, total, "with error-free reads every contig must be exact");
    println!("quickstart OK");
}

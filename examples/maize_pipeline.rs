//! The paper's headline workload at reduced scale: a highly repetitive
//! maize-like genome sampled by four sequencing strategies (MF, HC,
//! BAC, WGS), pushed through the full pipeline — vector/quality
//! trimming, repeat masking, clustering, per-cluster assembly — with
//! the §8-style summary at the end.
//!
//! ```text
//! cargo run --release --example maize_pipeline
//! ```

use pgasm::cluster::validation::validate_clusters;
use pgasm::cluster::{ClusterParams, Pipeline, PipelineConfig};
use pgasm::gst::GstConfig;
use pgasm::preprocess::PreprocessConfig;
use pgasm::seq::DnaSeq;
use pgasm::simgen::presets;
use pgasm::simgen::vector::VECTOR_SEQ;

fn main() {
    // Maize-like data: 70% repeat genome, gene islands, strategy mix.
    let dataset = presets::maize_like(150_000, 350, 2024);
    println!("{}", dataset.name);
    println!("raw reads: {} ({} bp)", dataset.reads.len(), dataset.total_bases());

    let pipeline = Pipeline::new(PipelineConfig {
        preprocess: Some(PreprocessConfig::default()),
        cluster: ClusterParams { gst: GstConfig { psi: 20 }, ..Default::default() },
        parallel_ranks: None,
        assembly_threads: 2,
        ..Default::default()
    });
    let report =
        pipeline.run(&dataset.reads, &[DnaSeq::from(VECTOR_SEQ)], &dataset.genomes[0].repeat_library);

    // Preprocessing accounting (the paper's Table 2).
    if let Some(pp) = &report.preprocess {
        println!("\npreprocessing (fragments kept by strategy):");
        for (label, nb, _, na, _) in pp.table_rows() {
            println!("  {label:>4}: {na:>4} of {nb:>4} ({:.0}%)", 100.0 * na as f64 / nb.max(1) as f64);
        }
        println!(
            "  rejected by trimming: {}, invalidated by masking: {}",
            pp.rejected_by_trim, pp.rejected_by_mask
        );
    }

    // Clustering summary (§8).
    let c = &report.clustering;
    println!("\nclustering:");
    println!("  non-singleton clusters: {}", c.num_non_singletons());
    println!("  singletons:             {}", c.num_singletons());
    println!("  mean fragments/cluster: {:.2}", c.mean_cluster_size());
    println!("  largest cluster:        {:.1}% of input", c.max_cluster_fraction() * 100.0);
    let s = report.cluster_stats;
    println!(
        "  pairs: {} generated, {} aligned ({:.0}% savings), {} accepted",
        s.generated,
        s.aligned,
        s.savings() * 100.0,
        s.accepted
    );

    // Assembly + ground-truth validation.
    println!("\nassembly:");
    println!("  contigs per cluster: {:.2} (paper: ~1.1)", report.contigs_per_cluster());
    let v = validate_clusters(&report.clustering, &report.origin, &dataset.reads.provenance, 2_000);
    println!(
        "  cluster specificity: {:.1}% map to a single genomic region (paper: 98.7% on drosophila)",
        v.specificity() * 100.0
    );
    println!(
        "\ntimings: preprocess {:.2}s, cluster {:.2}s, assemble {:.2}s",
        report.preprocess_seconds, report.cluster_seconds, report.assembly_seconds
    );
}

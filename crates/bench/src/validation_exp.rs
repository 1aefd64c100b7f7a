//! SEC91b — clustering validation against the benchmark genome
//! (paper §9.1).
//!
//! The paper BLAST-maps clusters to the published *D. pseudoobscura*
//! assembly: "27,830 out of 28,185 clusters post-masking (98.7%) map to
//! a single benchmark sequence". Here provenance is exact, so we check
//! directly that each cluster's reads merge into one genomic region.

use crate::datasets;
use crate::util::*;
use pgasm_core::validation::{validate_clusters, ValidationReport};

/// Run the experiment.
pub fn run(scale: f64) -> ValidationReport {
    let prepared = datasets::drosophila((120_000.0 * scale) as usize, 8.8, 33, true);
    let params = datasets::default_params();
    let clustering = cluster_in_process(&prepared.store, &params).clustering;
    let report = validate_clusters(&clustering, &prepared.origin, &prepared.reads.provenance, 2_000);
    print_table(
        "SEC91b: cluster-to-genome validation (drosophila-like WGS)",
        &["metric", "value", "paper"],
        &[
            vec!["clusters checked".into(), fmt_count(report.clusters as u64), "28,185".into()],
            vec!["single-region clusters".into(), fmt_count(report.single_region as u64), "27,830".into()],
            vec!["specificity".into(), fmt_pct(report.specificity()), "98.7%".into()],
            vec!["cross-genome clusters".into(), fmt_count(report.cross_genome as u64), "—".into()],
        ],
    );
    report
}

//! SEC8 — the maize assembly statistics quoted in §8 of the paper.
//!
//! Paper, for 1,607,364 preprocessed fragments: 149,548 non-singleton
//! clusters, 244,727 singletons, mean 9.00 fragments per cluster,
//! largest cluster 86,369 fragments (5.37% of input), and — after
//! running CAP3 per cluster at higher stringency — an average of 1.1
//! contigs per cluster (high clustering specificity).

use crate::datasets;
use crate::util::*;
use pgasm_assemble::AssemblyConfig;
use pgasm_core::validation::validate_clusters;
use pgasm_core::{assemble, Exec};
use pgasm_telemetry::RunContext;

/// Experiment outcome.
#[derive(Debug, Clone, Copy)]
pub struct Outcome {
    /// Fragments clustered.
    pub fragments: usize,
    /// Non-singleton clusters.
    pub clusters: usize,
    /// Singletons.
    pub singletons: usize,
    /// Mean fragments per non-singleton cluster.
    pub mean_size: f64,
    /// Largest cluster fraction of input.
    pub max_fraction: f64,
    /// Mean contigs per assembled cluster.
    pub contigs_per_cluster: f64,
    /// Ground-truth single-region specificity.
    pub specificity: f64,
}

/// Run the experiment.
pub fn run(scale: f64) -> Outcome {
    let prepared = datasets::maize((500_000.0 * scale) as usize, 88);
    let params = datasets::default_params();
    let clustering = cluster_in_process(&prepared.store, &params).clustering;
    let (config, exec) = (AssemblyConfig::default(), Exec::Threads(2));
    let (assemblies, _) =
        assemble(&prepared.store, None, &clustering, &config, &exec, &mut RunContext::new("sec8"));
    let contigs_per_cluster = if assemblies.is_empty() {
        0.0
    } else {
        assemblies.iter().map(|a| (a.num_contigs() + a.singletons.len()).max(1)).sum::<usize>() as f64
            / assemblies.len() as f64
    };
    let validation = validate_clusters(&clustering, &prepared.origin, &prepared.reads.provenance, 2_000);
    let outcome = Outcome {
        fragments: prepared.store.num_fragments(),
        clusters: clustering.num_non_singletons(),
        singletons: clustering.num_singletons(),
        mean_size: clustering.mean_cluster_size(),
        max_fraction: clustering.max_cluster_fraction(),
        contigs_per_cluster,
        specificity: validation.specificity(),
    };
    print_table(
        "SEC8: maize-like cluster-then-assemble summary",
        &["metric", "value", "paper"],
        &[
            vec!["fragments clustered".into(), fmt_count(outcome.fragments as u64), "1,607,364".into()],
            vec!["non-singleton clusters".into(), fmt_count(outcome.clusters as u64), "149,548".into()],
            vec!["singletons".into(), fmt_count(outcome.singletons as u64), "244,727".into()],
            vec!["mean fragments/cluster".into(), format!("{:.2}", outcome.mean_size), "9.00".into()],
            vec!["largest cluster (% input)".into(), fmt_pct(outcome.max_fraction), "5.37%".into()],
            vec!["contigs per cluster".into(), format!("{:.2}", outcome.contigs_per_cluster), "1.1".into()],
            vec!["single-region specificity".into(), fmt_pct(outcome.specificity), "—".into()],
        ],
    );
    outcome
}

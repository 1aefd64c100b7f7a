//! Environmental-sample clustering (the paper's §9.2 Sargasso Sea
//! experiment at reduced scale): WGS reads from dozens of bacterial
//! species with power-law abundances. Clustering decomposes the mixed
//! sample so that each cluster is (almost always) species-pure — the
//! deconvolution property the paper argues makes any downstream
//! environmental assembler's job tractable.
//!
//! ```text
//! cargo run --release --example metagenome
//! ```

use pgasm::cluster::{cluster_serial, ClusterParams};
use pgasm::gst::GstConfig;
use pgasm::preprocess::{PreprocessConfig, Preprocessor};
use pgasm::seq::DnaSeq;
use pgasm::simgen::presets;
use pgasm::simgen::vector::VECTOR_SEQ;
use std::collections::HashMap;

fn main() {
    let dataset = presets::sargasso_like(20, 1_500, 99);
    println!("{}", dataset.name);

    // Screen cloning vectors and trim quality first — raw environmental
    // reads share vector sequence, which would otherwise link everything
    // to everything ("ubiquitous sequences" removed in §9.2).
    let pp = Preprocessor::new(PreprocessConfig::default(), &[DnaSeq::from(VECTOR_SEQ)], &[]);
    let out = pp.run(&dataset.reads);
    let store = out.store;
    println!("fragments after preprocessing: {}", store.num_fragments());

    let params = ClusterParams { gst: GstConfig { psi: 20 }, ..Default::default() };
    let (clustering, stats) = cluster_serial(&store, &params);

    println!(
        "clusters: {} non-singleton, {} singletons",
        clustering.num_non_singletons(),
        clustering.num_singletons()
    );
    println!(
        "pairs: {} generated, {} aligned ({:.0}% savings)",
        stats.generated,
        stats.aligned,
        stats.savings() * 100.0
    );

    // Species purity: how many clusters mix reads from two species?
    let mut pure = 0usize;
    let mut mixed = 0usize;
    let mut clusters_per_species: HashMap<u32, usize> = HashMap::new();
    for cluster in clustering.non_singletons() {
        let species: std::collections::HashSet<u32> =
            cluster.iter().map(|&f| dataset.reads.provenance[out.origin[f as usize]].genome).collect();
        if species.len() == 1 {
            pure += 1;
            *clusters_per_species.entry(*species.iter().next().unwrap()).or_default() += 1;
        } else {
            mixed += 1;
        }
    }
    println!("species-pure clusters: {pure}, mixed: {mixed}");

    // Cluster counts vary with abundance: the deepest-covered species
    // coalesce into a few large clusters, mid-abundance species split
    // into many coverage islands, and the long tail shows up mostly as
    // singletons.
    let mut by_species: Vec<(u32, usize)> = clusters_per_species.into_iter().collect();
    by_species.sort_unstable();
    println!("clusters per species (species are abundance-ranked):");
    for (sp, n) in by_species.iter().take(10) {
        println!("  species {sp:>2}: {n} clusters");
    }
    assert!(pure > 0, "expected at least one species-pure cluster");
}

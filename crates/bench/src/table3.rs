//! TAB3 — whole-genome shotgun (Drosophila-like) and environmental
//! (Sargasso-like) clustering performance (paper Table 3).
//!
//! Paper: Drosophila (2.07M fragments, 1.37 Gbp) clusters in 3.1 h on
//! 1024 nodes — 13 min of GST construction — generating 320M promising
//! pairs of which 65% are never aligned; Sargasso (1.66M fragments)
//! generates 188M pairs with 57% savings. The savings asymmetry (WGS
//! saves more than environmental) is the shape to reproduce.

use crate::datasets;
use crate::util::*;
use pgasm_core::clustering::cluster_over_gst;
use pgasm_core::{ClusterStats, Clustering};
use pgasm_gst::Gst;

/// One dataset row.
pub struct Row {
    /// Dataset label.
    pub name: String,
    /// Fragments clustered.
    pub fragments: usize,
    /// Total preprocessed bp.
    pub input_bp: usize,
    /// GST construction seconds (serial, measured).
    pub gst_seconds: f64,
    /// Total clustering seconds (serial, measured).
    pub total_seconds: f64,
    /// Work statistics.
    pub stats: ClusterStats,
    /// Resulting clustering.
    pub clustering: Clustering,
}

/// Run the experiment.
pub fn run(scale: f64) -> Vec<Row> {
    let params = datasets::default_params();
    // Drosophila-like WGS: genome at scale, paper's 8.8x coverage
    // trimmed to ~6.6x surviving (the paper's 1.37 of 1.81 Gbp).
    let dro = datasets::drosophila((150_000.0 * scale) as usize, 8.8, 11, true);
    // Sargasso-like: many species, power-law abundances.
    let sar = datasets::sargasso(((24.0 * scale) as usize).max(4), (2_500.0 * scale) as usize, 12);
    let mut rows = Vec::new();
    for prepared in [dro, sar] {
        // One double-stranded copy and one build over it, timed on
        // their own, then handed to the serial engine: the total counts
        // the copy and the tree once.
        let ((ds, gst), gst_seconds) = timed(|| {
            let ds = prepared.store.with_reverse_complements();
            let gst = Gst::build(&ds, params.gst);
            (ds, gst)
        });
        let ((clustering, stats), cluster_seconds) = timed(|| cluster_over_gst(&ds, gst, &params));
        rows.push(Row {
            name: prepared.name.clone(),
            fragments: prepared.store.num_fragments(),
            input_bp: prepared.total_bp(),
            gst_seconds,
            total_seconds: gst_seconds + cluster_seconds,
            stats,
            clustering,
        });
    }
    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.name.clone(),
                fmt_count(r.fragments as u64),
                fmt_mbp(r.input_bp),
                fmt_secs(r.gst_seconds),
                fmt_secs(r.total_seconds),
                fmt_count(r.stats.generated),
                fmt_count(r.stats.accepted),
                fmt_count(r.stats.aligned - r.stats.accepted),
                fmt_pct(r.stats.savings()),
                fmt_count(r.clustering.num_non_singletons() as u64),
                fmt_count(r.clustering.num_singletons() as u64),
            ]
        })
        .collect();
    print_table(
        "TABLE3: WGS and environmental clustering",
        &[
            "dataset",
            "fragments",
            "bp",
            "GST time",
            "total time",
            "pairs generated",
            "accepted",
            "rejected",
            "savings",
            "clusters",
            "singletons",
        ],
        &table,
    );
    println!(
        "note: paper savings: 65% (Drosophila WGS) vs 57% (Sargasso); Sargasso yields far more clusters"
    );
    rows
}

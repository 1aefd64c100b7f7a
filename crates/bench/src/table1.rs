//! TAB1 — promising pairs generated / aligned / accepted vs input size
//! (paper Table 1).
//!
//! The paper's maize inputs of 250/500/1000/1252 Mbp generate
//! 4.2/10.0/33.0/48.0 M promising pairs, align 2.0/4.6/14.8/21.6 M
//! (≈ 52–56% of generated pairs are *not* aligned thanks to the
//! decreasing-match-length heuristic) and accept a small fraction of
//! those (< 4% of aligned pairs cause merges — repeat-induced pairs
//! fail the overlap test). We run the same 250:500:1000:1252 size
//! ratio and report the same counters.

use crate::datasets;
use crate::util::*;
use pgasm_core::ClusterStats;

/// One row of the table.
#[derive(Debug, Clone, Copy)]
pub struct Row {
    /// Raw read bases generated.
    pub raw_bp: usize,
    /// Preprocessed fragments.
    pub fragments: usize,
    /// Preprocessed bp.
    pub input_bp: usize,
    /// Clustering statistics.
    pub stats: ClusterStats,
}

/// Run the experiment.
pub fn run(scale: f64) -> Vec<Row> {
    let sizes: Vec<usize> =
        [250_000.0, 500_000.0, 1_000_000.0, 1_252_000.0].iter().map(|s| (s * scale) as usize).collect();
    let params = datasets::default_params();
    let mut rows = Vec::new();
    for (i, &raw_bp) in sizes.iter().enumerate() {
        let prepared = datasets::maize(raw_bp, 7 + i as u64);
        let stats = cluster_in_process(&prepared.store, &params).stats;
        rows.push(Row {
            raw_bp,
            fragments: prepared.store.num_fragments(),
            input_bp: prepared.total_bp(),
            stats,
        });
    }
    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            let ClusterStats { generated, aligned, accepted, merges, .. } = r.stats;
            vec![
                fmt_mbp(r.input_bp),
                fmt_count(r.fragments as u64),
                fmt_count(generated),
                fmt_count(aligned),
                fmt_count(accepted),
                fmt_pct(if generated == 0 { 0.0 } else { 1.0 - aligned as f64 / generated as f64 }),
                fmt_pct(if aligned == 0 { 0.0 } else { merges as f64 / aligned as f64 }),
            ]
        })
        .collect();
    print_table(
        "TABLE1: promising pairs generated / aligned / accepted vs input size (maize-like)",
        &["input (post-pp)", "fragments", "generated", "aligned", "accepted", "savings", "merges/aligned"],
        &table,
    );
    println!("note: paper (1252 Mbp): 48.0 M generated, 21.6 M aligned (56% savings), <4% of aligned merge clusters");
    rows
}

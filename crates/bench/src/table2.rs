//! TAB2 — fragment counts by sequencing strategy, before and after
//! preprocessing (paper Table 2).
//!
//! The paper's maize mix (MF 411k, HC 441k, BAC 1.13M, WGS 1.14M
//! fragments) loses ≈ 60–65% of the shotgun-derived fragments (BAC,
//! WGS) to repeat masking while the gene-enriched strategies (MF, HC)
//! are mostly preserved — gene space is repeat-poor. We generate the
//! same strategy mix over a 65%-repeat genome and run the same
//! preprocessing.

use crate::datasets;
use crate::util::*;

/// One strategy row: (label, frags before, bp before, frags after, bp after).
pub type Row = (String, usize, usize, usize, usize);

/// Run the experiment.
pub fn run(scale: f64) -> Vec<Row> {
    let prepared = datasets::maize((600_000.0 * scale) as usize, 77);
    let rows = prepared.pp_stats.as_ref().expect("preprocessing ran").table_rows();
    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|(label, nb, bb, na, ba)| {
            vec![
                label.clone(),
                fmt_count(*nb as u64),
                fmt_mbp(*bb),
                fmt_count(*na as u64),
                fmt_mbp(*ba),
                fmt_pct(if *nb == 0 { 0.0 } else { *na as f64 / *nb as f64 }),
            ]
        })
        .collect();
    print_table(
        "TABLE2: fragments by strategy before/after preprocessing (maize-like)",
        &["type", "frags before", "bp before", "frags after", "bp after", "kept"],
        &table,
    );
    println!("note: paper keeps ~90% of MF, ~95% of HC, ~40% of BAC, ~32% of WGS fragments");
    rows
}

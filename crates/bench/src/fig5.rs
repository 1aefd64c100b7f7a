//! FIG5 — parallel GST construction run-times (paper Fig. 5).
//!
//! The paper builds the GST for 250M/500M bp maize inputs on 256–1024
//! BlueGene/L processors and plots the communication/computation
//! breakdown, both scaling roughly linearly with input size and
//! inversely with processor count. We run two inputs in the same 1:2
//! ratio on 1–8 simulated ranks, measure per-rank compute in thread-CPU
//! time, and model communication with the BlueGene/L α–β model.

use crate::datasets;
use crate::util::*;
use pgasm_core::parallel_gst::build_distributed_gst;
use pgasm_gst::GstConfig;
use pgasm_mpisim::CostModel;

/// One measured point of the figure.
#[derive(Debug, Clone, Copy)]
pub struct Point {
    /// Input size label (preprocessed bp).
    pub input_bp: usize,
    /// Ranks.
    pub p: usize,
    /// Max per-rank compute seconds (thread CPU).
    pub compute: f64,
    /// Max per-rank modelled communication seconds (BG/L model).
    pub comm: f64,
}

/// Run the experiment; returns the measured series.
pub fn run(scale: f64) -> Vec<Point> {
    let model = CostModel::BLUEGENE_L;
    let config = GstConfig { psi: 20 };
    let sizes = [(250_000.0 * scale) as usize, (500_000.0 * scale) as usize];
    let ps = [1usize, 2, 4, 8];
    let mut points = Vec::new();
    for (i, &raw_bp) in sizes.iter().enumerate() {
        let prepared = datasets::maize(raw_bp, 42 + i as u64);
        let ds = prepared.store.with_reverse_complements();
        let input_bp = prepared.total_bp();
        for &p in &ps {
            // Both components come from rank-local clocks (thread CPU +
            // modelled α–β traffic), not from host wall time.
            let report = build_distributed_gst(&ds, p, config);
            let (compute, comm) = (report.max_compute_seconds(), report.max_modelled_comm_seconds(&model));
            points.push(Point { input_bp, p, compute, comm });
        }
    }
    let rows: Vec<Vec<String>> = points
        .iter()
        .map(|pt| {
            vec![
                fmt_mbp(pt.input_bp),
                pt.p.to_string(),
                fmt_secs(pt.compute),
                fmt_secs(pt.comm),
                fmt_secs(pt.compute + pt.comm),
            ]
        })
        .collect();
    print_table(
        "FIG5: parallel GST construction (measured compute + modelled BG/L communication)",
        &["input", "ranks", "computation", "communication", "total"],
        &rows,
    );
    // The figure's headline property: time shrinks with p for a fixed
    // input and grows with input size for fixed p.
    println!("note: paper shows linear scaling with both processor and input size (Fig. 5a/5b)");
    points
}

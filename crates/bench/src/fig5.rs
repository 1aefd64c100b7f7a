//! FIG5 — parallel GST construction run-times (paper Fig. 5).
//!
//! The paper builds the GST for 250M/500M bp maize inputs on 256–1024
//! BlueGene/L processors and plots the communication/computation
//! breakdown, both scaling roughly linearly with input size and
//! inversely with processor count. We run the cluster stage on two
//! inputs in the same 1:2 ratio with 1–8 GST builders beside the master,
//! the layout every `cluster --ranks` run uses, and read the build off
//! its rank channels: per-rank compute in thread-CPU time, and
//! communication modelled with the BlueGene/L α–β model.

use crate::datasets;
use crate::util::*;
use pgasm_core::{cluster, Exec};
use pgasm_mpisim::CostModel;
use pgasm_telemetry::{names, RankReport, RunContext};

/// One measured point of the figure.
#[derive(Debug, Clone, Copy)]
pub struct Point {
    /// Input size label (preprocessed bp).
    pub input_bp: usize,
    /// GST builders (ranks − 1).
    pub builders: usize,
    /// Max per-rank compute seconds (thread CPU).
    pub compute: f64,
    /// Max per-rank modelled communication seconds (BG/L model).
    pub comm: f64,
}

/// A rank's modelled occupancy in the build's collectives: the messages
/// and bytes it sent and received under the all-to-all tag, counted
/// first and priced once with the BlueGene/L model (a rank pays latency
/// on both ends in co-processor mode). Summed over ranks this would
/// count every transfer twice; the rows' `modelled_seconds` price each
/// message once, on its sender.
fn gst_occupancy(rank: &RankReport) -> f64 {
    let model = CostModel::BLUEGENE_L;
    let rows = rank.comm.iter().filter(|t| t.tag == names::TAG_ALLTOALL);
    let (msgs, bytes) =
        rows.fold((0, 0), |(m, b), t| (m + t.msgs_sent + t.msgs_recv, b + t.bytes_sent + t.bytes_recv));
    msgs as f64 * model.latency_s + bytes as f64 / model.bandwidth_bytes_per_s
}

/// Run the experiment; returns the measured series.
pub fn run(scale: f64) -> Vec<Point> {
    let params = datasets::default_params();
    let sizes = [(250_000.0 * scale) as usize, (500_000.0 * scale) as usize];
    let mut points = Vec::new();
    for (i, &raw_bp) in sizes.iter().enumerate() {
        let prepared = datasets::maize(raw_bp, 42 + i as u64);
        let input_bp = prepared.total_bp();
        for builders in [1usize, 2, 4, 8] {
            let exec =
                Exec::Ranks { p: builders + 1, engine: Default::default(), recovery: Default::default() };
            let mut ctx = RunContext::new("fig5");
            cluster(&prepared.store, &params, &exec, &mut ctx);
            // Both components come from rank-local clocks (thread CPU +
            // modelled α–β traffic), not from host wall time.
            let ranks = ctx.finish().ranks;
            let compute =
                ranks.iter().map(|r| r.counter(names::GST_COMPUTE_NS)).max().unwrap_or(0) as f64 * 1e-9;
            let comm = ranks.iter().map(gst_occupancy).fold(0.0, f64::max);
            points.push(Point { input_bp, builders, compute, comm });
        }
    }
    let rows: Vec<Vec<String>> = points
        .iter()
        .map(|pt| {
            vec![
                fmt_mbp(pt.input_bp),
                pt.builders.to_string(),
                fmt_secs(pt.compute),
                fmt_secs(pt.comm),
                fmt_secs(pt.compute + pt.comm),
            ]
        })
        .collect();
    print_table(
        "FIG5: parallel GST construction (measured compute + modelled BG/L communication)",
        &["input", "builders", "computation", "communication", "total"],
        &rows,
    );
    // The figure's headline property: time shrinks with p for a fixed
    // input and grows with input size for fixed p.
    println!("note: paper shows linear scaling with both processor and input size (Fig. 5a/5b)");
    points
}

//! FIG9 — total clustering run-time vs processors (paper Fig. 9).
//!
//! The paper reports the master–worker clustering phase (excluding GST
//! construction) for the 250M and 500M bp inputs on 256–1024
//! processors, with relative speedups of 2.6× / 3.1× when quadrupling
//! processors and idle time growing from 9–16% to 16–26%.
//!
//! We run the real protocol on 1, 2, 4 and 8 workers and report the
//! *modelled* parallel time per configuration:
//! `T(p) = max over ranks of (thread-CPU seconds + modelled comm)`,
//! which is immune to host-core oversubscription (the ranks are threads
//! that may timeshare one core). Worker idle is reported as
//! `1 − cpu_w / T(p)` averaged over workers.

use crate::datasets;
use crate::util::*;
use pgasm_core::{cluster_parallel, MasterWorkerConfig};

/// One measured point.
#[derive(Debug, Clone, Copy)]
pub struct Point {
    /// Preprocessed input bp.
    pub input_bp: usize,
    /// Worker count (ranks − 1).
    pub workers: usize,
    /// Modelled clustering time (excl. GST construction).
    pub t_model: f64,
    /// Mean worker idle fraction under the model.
    pub idle: f64,
    /// Master availability estimate (1 − master cpu / T).
    pub master_avail: f64,
}

/// Run the experiment.
pub fn run(scale: f64) -> Vec<Point> {
    let sizes = [(250_000.0 * scale) as usize, (500_000.0 * scale) as usize];
    let worker_counts = [1usize, 2, 4, 8];
    let (points, _run_report) = with_run_report("fig9", |ctx| {
        let mut points = Vec::new();
        let mut last_ranks = Vec::new();
        for (i, &raw_bp) in sizes.iter().enumerate() {
            let prepared = datasets::maize(raw_bp, 142 + i as u64);
            let input_bp = prepared.total_bp();
            for &w in &worker_counts {
                let params = datasets::default_params();
                let cfg = MasterWorkerConfig { batch: 64, pending_cap: 4096 };
                let report = cluster_parallel(&prepared.store, w + 1, &params, &cfg);
                // Modelled time: slowest rank's CPU + its modelled
                // traffic, both read off the per-rank telemetry
                // channels. Only the protocol tags count — the
                // collective tags belong to GST construction, which
                // this figure excludes.
                let proto_comm = |r: &pgasm_telemetry::RankReport| {
                    r.comm
                        .iter()
                        .filter(|t| t.label.starts_with("w2m") || t.label.starts_with("m2w"))
                        .map(|t| t.modelled_seconds)
                        .sum::<f64>()
                };
                let t_model =
                    report.ranks.iter().map(|r| r.cpu_seconds + proto_comm(r)).fold(0.0, f64::max).max(1e-6);
                let idle = if w > 0 {
                    report.ranks[1..].iter().map(|r| (1.0 - r.cpu_seconds / t_model).max(0.0)).sum::<f64>()
                        / w as f64
                } else {
                    0.0
                };
                let master_avail = (1.0 - report.ranks[0].cpu_seconds / t_model).max(0.0);
                ctx.record_span(pgasm_telemetry::Span {
                    name: format!("{input_bp}bp_w{w}"),
                    wall_seconds: t_model,
                    cpu_seconds: report.ranks.iter().map(|r| r.cpu_seconds).sum(),
                    children: Vec::new(),
                });
                last_ranks = report.ranks;
                points.push(Point { input_bp, workers: w, t_model, idle, master_avail });
            }
        }
        // The last (largest) configuration's rank channels are the
        // report's parallel section.
        ctx.merge_ranks(last_ranks);
        points
    });
    let mut rows = Vec::new();
    for pt in &points {
        let base = points
            .iter()
            .find(|q| q.input_bp == pt.input_bp && q.workers == 1)
            .expect("baseline point exists");
        rows.push(vec![
            fmt_mbp(pt.input_bp),
            pt.workers.to_string(),
            fmt_secs(pt.t_model),
            format!("{:.2}x", base.t_model / pt.t_model),
            fmt_pct(pt.idle),
            fmt_pct(pt.master_avail),
        ]);
    }
    print_table(
        "FIG9: clustering time vs workers (modelled: thread-CPU + BG/L comm; excludes GST build)",
        &["input", "workers", "T(p)", "speedup", "worker idle", "master avail"],
        &rows,
    );
    println!(
        "note: paper reports 2.6x/3.1x speedups at 4x processors, idle 16%->26% (250M) and 9%->16% (500M),"
    );
    println!("      and master availability decreasing from ~90% to ~70% as workers grow");
    points
}

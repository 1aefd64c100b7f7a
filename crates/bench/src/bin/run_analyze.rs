//! `run_analyze` — CI bench for the critical-path analyzer.
//!
//! Runs a small traced clustering (p = 4), exports the
//! Chrome trace document exactly as `pgasm --trace-json` would, feeds
//! it back through [`pgasm_telemetry::analyze`], and writes
//! `BENCH_run_analyze.json` so `bench_diff` gates the analyzer's
//! structural outputs against `baselines/`:
//!
//! - `analyze_edges_unpaired_plus1` — baseline 1 (zero unpaired
//!   send→recv edges, offset so the only-increase gate engages); any
//!   mis-paired edge at least doubles it and fails the diff;
//! - `analyze_coverage_err_pct_plus1` — baseline 1 (zero percent
//!   attribution error, same offset trick); double-counted spans fail;
//! - `analyze_edges_paired` / `analyze_tracks` / `analyze_counter_tracks`
//!   (tracks carrying at least one gauge sample) — coverage counters,
//!   gated against silent shrinkage of the traced surface... by the
//!   hard assertions below, since `bench_diff` only gates increases.
//!
//! The bin also asserts the analyzer's own invariants directly (a
//! non-empty critical path, ≤ 5% attribution error, zero unpaired
//! edges, zero dropped trace events), so a lossy or mis-paired trace
//! fails the bench before the diff ever runs.

use pgasm_bench::datasets;
use pgasm_bench::util::{env_scale, print_table, with_run_report};
use pgasm_core::{cluster_parallel_with, MasterWorkerConfig, RunOpts};
use pgasm_telemetry::analyze;
use pgasm_telemetry::trace::{Trace, TraceKind, TraceSpec};

fn main() {
    let scale = env_scale();
    let prepared = datasets::maize((200_000.0 * scale) as usize, 23);
    let params = datasets::default_params();
    let config = MasterWorkerConfig { batch: 64, pending_cap: 4096 };
    let p = 4;

    let (analysis, _report) = with_run_report("run_analyze", |ctx| {
        let report = ctx.scope("traced_cluster", |_| {
            let opts = RunOpts { trace: TraceSpec::with_capacity(1 << 17), ..RunOpts::default() };
            cluster_parallel_with(&prepared.store, p, &params, &config, &opts)
        });
        let trace = Trace::new(report.traces);
        assert_eq!(trace.dropped_events(), 0, "trace buffers must not overflow (raise the capacity)");
        let doc = trace.to_chrome_json();
        let (tracks, analysis) = ctx.scope("analyze", |_| {
            let tracks = analyze::parse_chrome_trace(&doc).expect("exported trace parses");
            let analysis = analyze::analyze(&tracks, None, 5);
            (tracks, analysis)
        });

        assert!(!analysis.critical_path.is_empty(), "critical path must be non-empty");
        assert!(
            analysis.max_coverage_error() <= 0.05,
            "attribution must cover wall time within 5% per rank (err {:.3})",
            analysis.max_coverage_error()
        );
        assert_eq!(analysis.edges_unpaired, 0, "every send must pair with a recv");

        ctx.set("analyze_tracks", analysis.ranks.len() as u64);
        ctx.set("analyze_edges_paired", analysis.edges_paired);
        ctx.set("analyze_edges_unpaired_plus1", analysis.edges_unpaired + 1);
        ctx.set("analyze_coverage_err_pct_plus1", (analysis.max_coverage_error() * 100.0).round() as u64 + 1);
        ctx.set("analyze_critical_path_nonempty", u64::from(!analysis.critical_path.is_empty()));
        let with_counters = tracks.iter().filter(|t| t.events.iter().any(|e| e.kind == TraceKind::Counter));
        assert_eq!(
            with_counters.clone().count(),
            p,
            "the master's and every worker's gauges are on their tracks"
        );
        ctx.set("analyze_counter_tracks", with_counters.count() as u64);
        analysis
    });

    let rows: Vec<Vec<String>> = analysis
        .ranks
        .iter()
        .map(|r| {
            vec![
                format!("{} ({})", r.rank, r.label),
                format!("{:.1}", r.wall_ns as f64 / 1e6),
                format!("{:.1}", r.compute_ns as f64 / 1e6),
                format!("{:.1}", r.wait_blocked_ns as f64 / 1e6),
                format!("{:.1}", r.barrier_ns as f64 / 1e6),
                format!("{:.1}", r.idle_unattributed_ns as f64 / 1e6),
            ]
        })
        .collect();
    print_table(
        "run_analyze: per-rank wall-time attribution (ms)",
        &["rank", "wall", "compute", "wait", "barrier", "unattrib"],
        &rows,
    );
    println!(
        "critical path: {} segment(s); {} edge(s) paired, {} unpaired; max coverage error {:.2}%",
        analysis.critical_path.len(),
        analysis.edges_paired,
        analysis.edges_unpaired,
        analysis.max_coverage_error() * 100.0
    );
}

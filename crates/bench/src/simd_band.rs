//! ABL8 — SIMD/X-drop ablation of the banded overlap kernel: its scalar
//! instantiation vs its lane passes, with adaptive banding on and off.
//!
//! Two workloads bracket the kernel's regimes:
//!
//! - [`datasets::repeat_trap_store`] — rejection-heavy; the win is the
//!   lane passes themselves (the early exit already bounds the cell
//!   count, so all arms compute similar cells and the ns/cell ratio is
//!   the honest speedup).
//! - [`datasets::overlap_heavy_store`] — accepted-pair-heavy; the early
//!   exit almost never fires, and the adaptive X-drop shrink is what
//!   saves work: under harsh scoring the completion potential decays
//!   steeply off the true diagonal, so most of the fixed band prices
//!   below the acceptance floor and is never computed.
//!
//! Hard acceptance bars, checked on every run:
//!
//! - all three arms produce *identical clusterings* at every rank count
//!   (and match the serial run) — vectorisation is bit-exact and the
//!   adaptive shrink only skips provably-dead cells;
//! - the adaptive arm reports nonzero `cells_saved_adaptive` on the
//!   accepted-heavy store, and its computed + saved cells never exceed
//!   the fixed-band arm's computed cells;
//! - the lane arms beat the scalar instantiation by ≥ 1.5× in ns per
//!   cell (interleaved best-of-N micro-probe; skipped in `force-scalar`
//!   builds where the lane width is 1).

use crate::datasets;
use crate::util::*;
use pgasm_align::{overlap_align_simd, AcceptCriteria, AlignScratch, Scoring, SimdOpts};
use pgasm_core::{
    cluster_parallel, cluster_serial, ClusterParams, ClusterStats, Clustering, MasterWorkerConfig,
};
use pgasm_seq::{FragmentStore, SeqId};

/// One measured clustering arm.
#[derive(Debug, Clone)]
pub struct Point {
    /// Workload name (`trap` or `overlap`).
    pub store: &'static str,
    /// Total ranks (1 = the serial engine).
    pub p: usize,
    /// Arm name (`simd-scalar`, `simd-fixed`, `simd`).
    pub arm: &'static str,
    /// Pairs actually aligned.
    pub aligned: u64,
    /// DP cells computed.
    pub cells: u64,
    /// Cells the adaptive shrink skipped.
    pub saved: u64,
    /// Rows whose live interior was narrower than the fixed band.
    pub rows_shrunk: u64,
}

/// (name, force_scalar, adaptive)
const ARMS: [(&str, bool, bool); 3] =
    [("simd-scalar", true, true), ("simd-fixed", false, false), ("simd", false, true)];

fn arm_params(base: &ClusterParams, arm: &(&str, bool, bool)) -> ClusterParams {
    ClusterParams { simd_force_scalar: arm.1, adaptive_band: arm.2, ..*base }
}

fn point(store: &'static str, p: usize, arm: &'static str, s: &ClusterStats) -> Point {
    Point {
        store,
        p,
        arm,
        aligned: s.aligned,
        cells: s.dp_cells,
        saved: s.cells_saved_adaptive,
        rows_shrunk: s.band_rows_shrunk,
    }
}

/// Pull every promising-pair-shaped (a, b, diag) out of a store for the
/// throughput probe: all pairs of trap reads anchored at their shared
/// repeat, the same population the clustering arms verify.
fn probe_pairs(store: &FragmentStore) -> Vec<(Vec<u8>, Vec<u8>, i64)> {
    let mut pairs = Vec::new();
    let n = store.num_seqs();
    // Trap reads start after the 7 backbone reads (see repeat_trap_store).
    for i in 7..n.min(27) {
        for j in (i + 1)..n.min(27) {
            let a = store.get(SeqId(i as u32)).to_vec();
            let b = store.get(SeqId(j as u32)).to_vec();
            pairs.push((a, b, 0));
        }
    }
    pairs
}

/// Interleaved best-of-N ns/cell per arm, in ARMS order. The scalar arm
/// runs adaptive like the production lanes arm, so arms 0 and 2 compute
/// the same cells.
fn throughput_probe(
    pairs: &[(Vec<u8>, Vec<u8>, i64)],
    band: usize,
    scoring: &Scoring,
    criteria: &AcceptCriteria,
) -> [(f64, u64); 3] {
    let max_len = pairs.iter().map(|(a, b, _)| a.len().max(b.len())).max().unwrap_or(0);
    let mut scratch = AlignScratch::for_sequences(max_len, band);
    let mut best = [f64::MAX; 3];
    let mut cells = [0u64; 3];
    // Interleave the arms inside each rep so slow machine phases hit
    // all of them alike; best-of-N then discards contended reps.
    for _rep in 0..8 {
        for (arm, (b, c)) in best.iter_mut().zip(cells.iter_mut()).enumerate() {
            let t = std::time::Instant::now();
            let mut total = 0u64;
            let (_, force_scalar, adaptive) = ARMS[arm];
            for (a, bq, d) in pairs {
                let r = overlap_align_simd(
                    a,
                    bq,
                    *d,
                    band,
                    scoring,
                    Some(criteria),
                    None,
                    &mut scratch,
                    SimdOpts { force_scalar, adaptive },
                );
                total += r.cells;
            }
            let dt = t.elapsed().as_secs_f64();
            if dt < *b {
                *b = dt;
            }
            *c = total;
        }
    }
    [0, 1, 2].map(|i| (best[i] * 1e9 / cells[i].max(1) as f64, cells[i]))
}

/// Run the ablation; see the module docs for the acceptance bars.
pub fn run(scale: f64) -> Vec<Point> {
    let n_trap = ((40.0 * scale.sqrt()).round() as usize).max(12);
    let trap = datasets::repeat_trap_store(n_trap, 977);
    let n_overlap = ((60.0 * scale) as usize).max(16);
    let overlap = datasets::overlap_heavy_store(n_overlap, 1311);
    let mut base = datasets::default_params();
    // Harsh verification scoring: the acceptance floor drops to ≈ 21
    // but off-homology scores decay at 5–7 per column, so
    // both the early exit and the X-drop shrink have bite.
    base.scoring = Scoring { match_score: 1, mismatch: -7, gap_extend: -5 };

    let (points, _run_report) = with_run_report("ablation_simd_band", |ctx| {
        let mut points = Vec::new();
        for (store_name, store) in [("trap", &trap), ("overlap", &overlap)] {
            let mut serial_clustering: Option<Clustering> = None;
            for &p in &[1usize, 4, 8] {
                let mut clusterings: Vec<Clustering> = Vec::new();
                for arm in &ARMS {
                    let params = arm_params(&base, arm);
                    let label = format!("{store_name}_p{p}_{}", arm.0);
                    let (clustering, stats) = if p == 1 {
                        ctx.scope(&label, |_| cluster_serial(store, &params))
                    } else {
                        let cfg = MasterWorkerConfig::default();
                        let report = ctx.scope(&label, |_| cluster_parallel(store, p, &params, &cfg));
                        (report.clustering, report.stats)
                    };
                    let pt = point(store_name, p, arm.0, &stats);
                    ctx.set(&format!("{label}_aligned"), pt.aligned);
                    ctx.set(&format!("{label}_dp_cells"), pt.cells);
                    ctx.set(&format!("{label}_cells_saved"), pt.saved);
                    ctx.set(&format!("{label}_rows_shrunk"), pt.rows_shrunk);
                    points.push(pt);
                    clusterings.push(clustering);
                }
                for (arm, c) in ARMS.iter().zip(&clusterings).skip(1) {
                    assert_eq!(
                        &clusterings[0], c,
                        "{store_name}: arm {} must produce the scalar arm's clustering (p = {p})",
                        arm.0
                    );
                }
                match &serial_clustering {
                    None => serial_clustering = Some(clusterings.pop().unwrap()),
                    Some(serial) => assert_eq!(
                        serial, &clusterings[2],
                        "{store_name}: parallel clustering must match serial (p = {p})"
                    ),
                }
            }
        }
        points
    });

    let rows: Vec<Vec<String>> = points
        .iter()
        .map(|pt| {
            vec![
                pt.store.into(),
                pt.p.to_string(),
                pt.arm.into(),
                fmt_count(pt.aligned),
                fmt_count(pt.cells),
                fmt_count(pt.saved),
                fmt_count(pt.rows_shrunk),
            ]
        })
        .collect();
    print_table(
        "ABL8: SIMD + adaptive X-drop band (clustering identical across all arms)",
        &["store", "p", "arm", "aligned", "dp cells", "cells saved", "rows shrunk"],
        &rows,
    );

    // Deterministic acceptance bars on the counter side.
    for &p in &[1usize, 4, 8] {
        for store in ["trap", "overlap"] {
            let by =
                |arm: &str| points.iter().find(|q| q.store == store && q.p == p && q.arm == arm).unwrap();
            let (fixed, adapt, forced) = (by("simd-fixed"), by("simd"), by("simd-scalar"));
            assert_eq!(fixed.saved, 0, "{store}: fixed-band arm never reports saved cells (p = {p})");
            assert_eq!(
                (forced.cells, forced.saved),
                (adapt.cells, adapt.saved),
                "{store}: force-scalar arm is bit-identical to the lanes arm (p = {p})"
            );
            assert!(
                adapt.cells + adapt.saved <= fixed.cells,
                "{store}: adaptive computed + saved must not exceed the fixed band (p = {p}): {} + {} > {}",
                adapt.cells,
                adapt.saved,
                fixed.cells
            );
        }
        let adapt = points.iter().find(|q| q.store == "overlap" && q.p == p && q.arm == "simd").unwrap();
        assert!(
            adapt.saved > 0 && adapt.rows_shrunk > 0,
            "overlap store: the X-drop shrink must engage on accepted-heavy work (p = {p}): {adapt:?}"
        );
    }

    // Throughput probe: ns/cell, lane arms vs the scalar instantiation,
    // on the trap pair population.
    let pairs = probe_pairs(&trap);
    let band = base.band;
    let criteria = base.criteria;
    let probe = throughput_probe(&pairs, band, &base.scoring, &criteria);
    let lanes = pgasm_align::simd::effective_lanes();
    let speedup = |i: usize| probe[0].0 / probe[i].0;
    let probe_rows: Vec<Vec<String>> = ARMS
        .iter()
        .enumerate()
        .map(|(i, &(name, _, _))| {
            vec![
                name.into(),
                format!("{:.2} ns", probe[i].0),
                fmt_count(probe[i].1),
                format!("{:.2}x", speedup(i)),
            ]
        })
        .collect();
    print_table(
        &format!("ABL8 probe: kernel throughput ({lanes} lanes, best of 8 interleaved reps)"),
        &["arm", "ns/cell", "cells", "speedup"],
        &probe_rows,
    );
    if lanes > 1 {
        for (name, i) in [("simd-fixed", 1), ("simd", 2)] {
            assert!(
                speedup(i) >= 1.5,
                "{name} must beat the scalar instantiation by >= 1.5x ns/cell: {:.2}x",
                speedup(i)
            );
        }
    } else {
        println!("note: force-scalar build (1 lane) — speedup bar skipped");
    }
    points
}

//! ABL6 — LPT vs contiguous chunking for the distributed assembly
//! phase.
//!
//! §8 observes that per-cluster assembly times are heavy-tailed: one
//! dominant cluster sets the critical path, so how the master hands
//! clusters to workers decides the phase's balance. This ablation runs
//! the engine-hosted assembly phase under both policies at several rank
//! counts on a heavy-tailed workload:
//!
//! - *LPT* (largest processing time first): the master sorts clusters
//!   by the `k·(k−1)/2` pair-cost proxy and grants them one at a time,
//!   so the dominant cluster starts immediately and small clusters
//!   back-fill idle workers.
//! - *static*: clusters are dispatched in natural order in contiguous
//!   chunks of `⌈n/(p−1)⌉` — the "preassign everything" strawman, which
//!   strands the dominant cluster in a chunk with other work.
//!
//! Balance is measured with the per-worker `asm_cost_units` counter
//! (busy-seconds are scheduler noise at bench scale). Which worker
//! back-fills the tail still depends on which thread woke first, so the
//! LPT-vs-static acceptance bar is checked on the *schedule* instead:
//! each policy's per-worker cost when workers ask for work in a fixed
//! order ([`scheduled_costs`]). The assemblies themselves must be
//! byte-identical across every arm and to the threaded in-process path.

use crate::datasets;
use crate::util::*;
use pgasm_assemble::AssemblyConfig;
use pgasm_core::assemble_dist::AssembleTask;
use pgasm_core::pipeline::assemble_clusters_q;
use pgasm_core::{assemble_parallel, cluster_serial, AssignPolicy, Clustering};
use pgasm_telemetry::names;

/// One measured arm.
#[derive(Debug, Clone, Copy)]
pub struct Point {
    /// Total ranks (master + workers).
    pub p: usize,
    /// Cluster-dispatch policy.
    pub policy: AssignPolicy,
    /// Largest per-worker cost-unit total.
    pub max_cost: u64,
    /// Mean per-worker cost-unit total.
    pub mean_cost: f64,
    /// max / mean — 1.0 is a perfect balance.
    pub imbalance: f64,
    /// Wall seconds of the distributed phase.
    pub wall: f64,
}

fn policy_key(policy: AssignPolicy) -> &'static str {
    match policy {
        AssignPolicy::Lpt => "lpt",
        AssignPolicy::Static => "static",
    }
}

/// Per-worker cost units of `policy`'s dispatch plan — the engine's
/// own — under a fixed arrival order: a cost unit is a unit of time,
/// every grant goes to the worker that has been free longest, ties to
/// the lowest rank. A function of the cluster sizes alone — what a run
/// measures is this schedule plus thread-wake-up noise.
fn scheduled_costs(clustering: &Clustering, workers: usize, policy: AssignPolicy) -> Vec<u64> {
    let (tasks, grant) = policy.plan(clustering, workers);
    let mut loads = vec![0u64; workers];
    for batch in tasks.chunks(grant) {
        let free = (0..workers).min_by_key(|&w| loads[w]).expect("at least one worker");
        loads[free] += batch.iter().map(AssembleTask::cost_units).sum::<u64>();
    }
    loads
}

/// Run the ablation. Asserts byte-identical assemblies in every arm
/// and, at p = 8, that LPT's schedule balances cost units no worse than
/// static chunking's.
pub fn run(scale: f64) -> Vec<Point> {
    let store = datasets::heavy_tailed_store(scale, 11);
    let params = datasets::default_params();
    let (clustering, _) = cluster_serial(&store, &params);
    let cfg = AssemblyConfig::default();
    let reference = assemble_clusters_q(&store, None, &clustering, &cfg, 4);
    let (points, _run_report) = with_run_report("ablation_assembly_balance", |ctx| {
        let mut points = Vec::new();
        for &p in &[2usize, 4, 8] {
            for policy in [AssignPolicy::Static, AssignPolicy::Lpt] {
                let arm = format!("p{p}_{}", policy_key(policy));
                let report =
                    ctx.scope(&arm, |_| assemble_parallel(&store, None, &clustering, &cfg, p, policy));
                assert_eq!(
                    report.assemblies, reference,
                    "distributed assembly must match the threaded path (p = {p}, {policy:?})"
                );
                let worker_costs: Vec<u64> =
                    report.ranks[1..].iter().map(|r| r.counter(names::ASM_COST_UNITS)).collect();
                let max_cost = worker_costs.iter().copied().max().unwrap_or(0);
                let mean_cost = worker_costs.iter().sum::<u64>() as f64 / worker_costs.len().max(1) as f64;
                let imbalance = max_cost as f64 / mean_cost.max(1e-9);
                ctx.set(&format!("{arm}_max_cost_units"), max_cost);
                ctx.set(&format!("{arm}_imbalance_milli"), (imbalance * 1000.0) as u64);
                ctx.set(
                    &format!("{arm}_batches_dispatched"),
                    report.ranks[0].counter(names::ASM_BATCHES_DISPATCHED),
                );
                points.push(Point {
                    p,
                    policy,
                    max_cost,
                    mean_cost,
                    imbalance,
                    wall: report.assemble_seconds,
                });
            }
        }
        points
    });
    let rows: Vec<Vec<String>> = points
        .iter()
        .map(|pt| {
            vec![
                pt.p.to_string(),
                policy_key(pt.policy).into(),
                fmt_count(pt.max_cost),
                format!("{:.1}", pt.mean_cost),
                format!("{:.2}x", pt.imbalance),
                fmt_secs(pt.wall),
            ]
        })
        .collect();
    print_table(
        "ABL6: assembly load balance, LPT vs static chunking (cost units = cluster pair bound k(k-1)/2)",
        &["p", "policy", "max cost/worker", "mean cost/worker", "max/mean", "wall"],
        &rows,
    );
    println!("note: the dominant cluster bounds both policies from below; static chunking stacks");
    println!("      extra clusters on top of it while LPT leaves the tail to back-fill idle workers");

    // Acceptance bar at p = 8 (at p = 2 a single worker takes all the
    // work, so both policies are trivially identical), on the schedule:
    // same total, same worker count, so the larger maximum is the worse
    // balance.
    let max8 = |policy| scheduled_costs(&clustering, 7, policy).into_iter().max();
    let (lpt8, stat8) = (max8(AssignPolicy::Lpt), max8(AssignPolicy::Static));
    assert!(
        lpt8 <= stat8,
        "LPT must not balance worse than static chunking at p = 8: {lpt8:?} vs {stat8:?} cost units"
    );
    points
}

//! ABL9 — leased-task fault recovery: deterministic kills, drops, and
//! delays against a clean clustering run at p = 8.
//!
//! Four arms over the same maize-like store:
//!
//! - *clean*: no fault plan — the reference partition.
//! - *kill*: the worker that is granted the middle one of the leases
//!   the run is certain to issue is removed on receiving it, so it dies
//!   holding an unacknowledged lease the master must recover.
//! - *drop*: worker 1's second report vanishes on the wire; the run
//!   comes to rest with that lease unretired, the simulator reports
//!   quiescence, the master declares the worker that holds it dead and
//!   the lease is re-executed by a survivor.
//! - *delay*: worker 1's second report is held back until the worker
//!   blocks on its answer; the lease journal absorbs it exactly once.
//!
//! Every faulty arm must reproduce the clean partition bit-for-bit —
//! that equality, not a speedup, is the artifact under test. The
//! committed-baseline counters are scheduling-invariant facts (kills
//! injected, dead ranks, leases recovered at all, arms identical);
//! recovered-task counts vary with thread interleaving and are printed
//! but not gated.

use crate::datasets;
use crate::util::*;
use pgasm_core::{cluster_parallel_with, MasterWorkerConfig, RunOpts, StageRecovery};
use pgasm_mpisim::FaultPlan;
use pgasm_telemetry::names;

/// One measured arm.
#[derive(Debug, Clone)]
pub struct Point {
    /// Arm label (clean / kill / drop / delay).
    pub arm: &'static str,
    /// Ranks the fault plan actually removed.
    pub kills: u64,
    /// Workers the master marked dead (notice or quiescence).
    pub dead_ranks: u64,
    /// Leases re-queued and re-executed by survivors.
    pub recovered_tasks: u64,
    /// Partition identical to the clean arm?
    pub identical: bool,
    /// Clustering-phase wall seconds (max over ranks).
    pub seconds: f64,
}

/// Run the ablation at p = 8. Asserts every faulty arm reproduces the
/// clean partition and that the kill and drop arms each cost exactly
/// one dead rank with recovered leases.
pub fn run(scale: f64) -> Vec<Point> {
    let prepared = datasets::maize((300_000.0 * scale) as usize, 163);
    let params = datasets::default_params();
    let config = MasterWorkerConfig { batch: 64, pending_cap: 4096 };
    let p = 8;
    let run_with = |plan: &str| {
        let faults = FaultPlan::parse(plan).expect("grammar");
        let opts =
            RunOpts { recovery: StageRecovery { faults, ..StageRecovery::default() }, ..RunOpts::default() };
        cluster_parallel_with(&prepared.store, p, &params, &config, &opts)
    };
    let (points, _run_report) = with_run_report("ablation_fault_recovery", |ctx| {
        let clean = ctx.scope("p8_clean", |_| run_with(""));
        // Every merge needs its own aligned pair and a lease holds at
        // most a batch of them, so ⌈merges / batch⌉ leases are issued
        // under any schedule: aim at the middle one.
        let issued = clean.stats.merges.div_ceil(config.batch as u64);
        assert!(issued >= 1, "the input must cluster at all");
        let kill = format!("kill:lease={}", issued.div_ceil(2));

        let arms = [
            ("kill", kill.as_str()),
            ("drop", "drop:src=1,dst=0,tag=1,nth=2"),
            ("delay", "delay:src=1,dst=0,tag=1,nth=2"),
        ];

        let mut points = vec![Point {
            arm: "clean",
            kills: 0,
            dead_ranks: 0,
            recovered_tasks: 0,
            identical: true,
            seconds: clean.cluster_seconds,
        }];
        for (arm, plan) in arms {
            let report = ctx.scope(&format!("p8_{arm}"), |_| run_with(plan));
            assert!(!report.killed, "a worker fault must never take the master down ({arm})");
            let kills = report.ranks.iter().map(|r| r.counter(names::FAULT_KILLS)).sum();
            let identical = report.clustering == clean.clustering;
            assert!(identical, "{arm} arm changed the partition");
            points.push(Point {
                arm,
                kills,
                dead_ranks: report.dead_ranks,
                recovered_tasks: report.recovered_tasks,
                identical,
                seconds: report.cluster_seconds,
            });
        }

        // Baseline counters: scheduling-invariant facts only. Recovered
        // lease counts depend on how many batches were in flight at the
        // fault, so they are reported above but kept out of the gate.
        let by_arm = |arm: &str| points.iter().find(|q| q.arm == arm).unwrap();
        ctx.set("p8_kill_kills", by_arm("kill").kills);
        ctx.set("p8_kill_dead_ranks", by_arm("kill").dead_ranks);
        ctx.set("p8_kill_recovered_nonzero", u64::from(by_arm("kill").recovered_tasks > 0));
        ctx.set("p8_drop_dead_ranks", by_arm("drop").dead_ranks);
        ctx.set("p8_drop_recovered_nonzero", u64::from(by_arm("drop").recovered_tasks > 0));
        ctx.set("p8_delay_dead_ranks", by_arm("delay").dead_ranks);
        ctx.set("arms_identical", points.iter().filter(|q| q.identical).count() as u64);
        points
    });

    let rows: Vec<Vec<String>> = points
        .iter()
        .map(|pt| {
            vec![
                pt.arm.to_string(),
                pt.kills.to_string(),
                pt.dead_ranks.to_string(),
                fmt_count(pt.recovered_tasks),
                if pt.identical { "yes" } else { "NO" }.into(),
                fmt_secs(pt.seconds),
            ]
        })
        .collect();
    print_table(
        "ABL9: leased-task fault recovery at p = 8 (partition identical in every arm)",
        &["arm", "kills", "dead ranks", "recovered leases", "identical", "cluster wall"],
        &rows,
    );
    println!("note: recovery is free of coordination with the dead rank — the lease journal");
    println!("      re-queues its outstanding batches and survivors absorb regenerated duplicates");

    let kill = points.iter().find(|q| q.arm == "kill").unwrap();
    assert_eq!(kill.kills, 1, "the kill arm must remove exactly one worker");
    assert_eq!(kill.dead_ranks, 1);
    assert!(kill.recovered_tasks > 0, "the victim died holding a lease; someone must redo it");
    let drop = points.iter().find(|q| q.arm == "drop").unwrap();
    assert_eq!(drop.kills, 0, "drop arm: nobody is actually killed");
    assert_eq!(drop.dead_ranks, 1, "drop arm: quiescence must declare the stuck worker dead");
    assert!(drop.recovered_tasks > 0);
    let delay = points.iter().find(|q| q.arm == "delay").unwrap();
    assert_eq!(delay.dead_ranks, 0, "delay arm: a late report is not a death");
    points
}

//! Fault-tolerance integration matrix: killing a worker at any lease of
//! clustering or assembly leaves the final contigs byte-identical to a
//! fault-free run, dropped/late reports are deduplicated by the
//! lease journal, and a master kill under checkpointing resumes to the
//! exact same output.
//!
//! Every plan is written in the CLI grammar. A kill names a lease, and
//! which leases a stage is certain to issue is read off the fault-free
//! baseline's *output*: assembly issues one per non-singleton cluster;
//! clustering at least ⌈merges / batch⌉, since every merge needs its
//! own aligned pair and a lease holds at most a batch of them.

use pgasm::align::AcceptCriteria;
use pgasm::cluster::checkpoint::{read_checkpoint, write_checkpoint};
use pgasm::cluster::{
    ClusterParams, MasterWorkerConfig, Pipeline, PipelineConfig, PipelineReport, StageRecovery,
};
use pgasm::gst::GstConfig;
use pgasm::mpisim::FaultPlan;
use pgasm::preprocess::PreprocessConfig;
use pgasm::seq::DnaSeq;
use pgasm::simgen::genome::{Genome, GenomeSpec};
use pgasm::simgen::sampler::{Sampler, SamplerConfig};
use pgasm::simgen::vector::VECTOR_SEQ;
use pgasm::simgen::{ReadKind, ReadSet};
use pgasm::telemetry::analyze::parse_chrome_trace;
use pgasm::telemetry::{names, RunContext, RunReport, Trace, TraceKind, TraceSpec};
use std::path::PathBuf;
use std::sync::mpsc::{self, RecvTimeoutError};
use std::time::Duration;

/// Longest any one scenario below may run (each takes under a second in
/// release and under 25 s in dev on a 2-core host); the two full kill
/// matrices, 8 pipeline runs each, get [`MATRIX_LIMIT`].
const SCENARIO_LIMIT: Duration = Duration::from_secs(120);
const MATRIX_LIMIT: Duration = Duration::from_secs(900);

/// Run a multi-rank test `body` on its own thread and fail the test, by
/// `name`, if it has not finished within `limit`: a deadlocked rank must
/// be a red test, not a `cargo test` that never returns. The stuck
/// threads are left behind; the test process exits without them.
fn with_watchdog(name: &str, limit: Duration, body: impl FnOnce() + Send + 'static) {
    let (done, finished) = mpsc::channel();
    let runner = std::thread::Builder::new()
        .name(name.to_string())
        .spawn(move || {
            body();
            let _ = done.send(());
        })
        .expect("spawn the test body");
    match finished.recv_timeout(limit) {
        Ok(()) => runner.join().expect("the body already finished"),
        Err(RecvTimeoutError::Timeout) => panic!("{name}: still running after {limit:?}; a rank is hung"),
        // The body panicked before sending: re-raise its own message.
        Err(RecvTimeoutError::Disconnected) => match runner.join() {
            Err(panic) => std::panic::resume_unwind(panic),
            Ok(()) => unreachable!("the sender is dropped only by a panic"),
        },
    }
}

fn fixture_reads(seed: u64) -> (ReadSet, Genome) {
    let genome = Genome::generate(
        &GenomeSpec {
            length: 10_000,
            repeat_fraction: 0.2,
            repeat_families: 2,
            repeat_len: (120, 300),
            repeat_identity: 0.99,
            islands: 6,
            island_len: (900, 1_500),
        },
        seed,
    );
    let mut cfg = SamplerConfig::default_scaled();
    cfg.island_bias = 1.0;
    let mut sampler = Sampler::new(&genome, cfg, seed + 1);
    (sampler.enriched(96, ReadKind::Hc), genome)
}

/// Pairs per clustering lease.
const BATCH: usize = 4;

fn faults(plan: &str) -> StageRecovery {
    StageRecovery { faults: FaultPlan::parse(plan).expect("grammar"), ..StageRecovery::default() }
}

fn config(p: usize, recovery: StageRecovery) -> PipelineConfig {
    PipelineConfig {
        preprocess: Some(PreprocessConfig { stat_repeats: None, min_unmasked_run: 40, ..Default::default() }),
        cluster: ClusterParams {
            gst: GstConfig { psi: 18 },
            criteria: AcceptCriteria { min_identity: 0.9, min_overlap: 35 },
            ..Default::default()
        },
        parallel_ranks: Some(p),
        // Small batches: the clustering stage is then certain to issue
        // many leases (see the module docs), not two.
        master_worker: MasterWorkerConfig { batch: BATCH, ..Default::default() },
        assembly_threads: 2,
        recovery,
        ..Default::default()
    }
}

fn run(config: PipelineConfig, reads: &ReadSet, genome: &Genome) -> (PipelineReport, RunReport) {
    let (report, run_report, _) = run_traced(config, reads, genome);
    (report, run_report)
}

/// [`run`], also returning the trace document (empty unless
/// `config.trace` is on).
fn run_traced(
    config: PipelineConfig,
    reads: &ReadSet,
    genome: &Genome,
) -> (PipelineReport, RunReport, Trace) {
    let mut ctx = RunContext::new("fault-tolerance-test");
    let report = Pipeline::new(config).run_with_context(
        reads,
        &[DnaSeq::from(VECTOR_SEQ)],
        &genome.repeat_library,
        &mut ctx,
    );
    let trace = ctx.trace_document();
    (report, ctx.finish(), trace)
}

/// Every contig of every assembly, as raw ASCII — byte-level equality.
fn contig_bytes(report: &PipelineReport) -> Vec<Vec<u8>> {
    report.assemblies.iter().flat_map(|a| a.contigs.iter().map(|c| c.seq.to_ascii())).collect()
}

/// The highest lease `stage` is certain to issue, from a fault-free
/// run's output.
fn leases_issued(stage: &str, baseline: &PipelineReport) -> u64 {
    match stage {
        "cluster" => baseline.cluster_stats.merges.div_ceil(BATCH as u64),
        _ => baseline.clustering.num_non_singletons() as u64,
    }
}

/// Kill the worker granted `lease` of `stage` and require what every
/// worker kill must show: byte-identical contigs, exactly one kill, one
/// dead rank, and the lease it died holding recovered. Returns the
/// number of generator scopes survivors adopted from the victim.
fn kill_and_check(
    p: usize,
    stage: &str,
    lease: u64,
    reads: &ReadSet,
    genome: &Genome,
    expected: &[Vec<u8>],
) -> u64 {
    let plan = format!("kill:lease={lease},stage={stage}");
    let (report, run_report) = run(config(p, faults(&plan)), reads, genome);
    assert!(report.interrupted.is_none(), "{plan}, p={p}: a worker kill must not interrupt the run");
    assert_eq!(contig_bytes(&report), expected, "{plan}, p={p}: contigs changed");
    let faults = run_report.faults.expect("armed run must report a faults section");
    assert_eq!(faults.kills_injected, 1, "{plan}, p={p}");
    assert_eq!(faults.dead_ranks, 1, "{plan}, p={p}");
    assert!(faults.recovered_tasks >= 1, "{plan}, p={p}: the victim died holding that lease");
    run_report.ranks.iter().map(|r| r.counter(names::SCOPES_ADOPTED)).sum()
}

/// Kill at the first, a middle and the last lease `stage` is certain to
/// issue, at p = 4 and p = 8.
fn kill_matrix(stage: &str, seed: u64) {
    let (reads, genome) = fixture_reads(seed);
    for p in [4usize, 8] {
        let (baseline, base_run) = run(config(p, StageRecovery::default()), &reads, &genome);
        assert!(base_run.faults.is_none(), "fault-free run must omit the faults section");
        let expected = contig_bytes(&baseline);
        assert!(!expected.is_empty(), "fixture must assemble something");
        let last = leases_issued(stage, &baseline);
        assert!(last >= 3, "{stage} must issue an early, a middle and a last lease, not {last}");
        for lease in [1, last / 2 + 1, last] {
            kill_and_check(p, stage, lease, &reads, &genome, &expected);
        }
    }
}

// The two full lease × rank-count matrices; `ci.sh` runs them in
// release (`--include-ignored`), several times over, where each takes
// seconds instead of minutes.
#[test]
#[ignore = "full kill matrix is heavy under the dev profile; ci.sh runs it in release"]
fn killing_any_worker_during_clustering_preserves_the_contigs() {
    with_watchdog("killing_any_worker_during_clustering_preserves_the_contigs", MATRIX_LIMIT, || {
        kill_matrix("cluster", 7);
    });
}

#[test]
#[ignore = "full kill matrix is heavy under the dev profile; ci.sh runs it in release"]
fn killing_any_worker_during_assembly_preserves_the_contigs() {
    with_watchdog("killing_any_worker_during_assembly_preserves_the_contigs", MATRIX_LIMIT, || {
        kill_matrix("assemble", 9);
    });
}

/// Always-on slice of the kill matrix: the last lease of each stage at
/// p = 4 (the assembly one is granted when every other worker is
/// already parked) and the first of clustering, which must make a
/// survivor adopt the victim's scope, cheap enough for the dev-profile
/// workspace run — and a kill past the last lease of either stage, which
/// must leave a clean run.
#[test]
fn killing_a_worker_in_each_stage_preserves_the_contigs() {
    with_watchdog("killing_a_worker_in_each_stage_preserves_the_contigs", SCENARIO_LIMIT, || {
        let (reads, genome) = fixture_reads(21);
        let p = 4;
        let (baseline, _) = run(config(p, StageRecovery::default()), &reads, &genome);
        let expected = contig_bytes(&baseline);
        assert!(!expected.is_empty(), "fixture must assemble something");
        for stage in ["cluster", "assemble"] {
            kill_and_check(p, stage, leases_issued(stage, &baseline), &reads, &genome, &expected);
        }
        // A survivor rebuilds a dead generator's scope only if the victim
        // was still generating. The victim of the first lease always is
        // (no worker's generator is spent by its opening report), so a
        // kill there makes the adoption path certain to run.
        let adopted = kill_and_check(p, "cluster", 1, &reads, &genome, &expected);
        assert!(adopted >= 1, "no cluster kill made a survivor adopt the victim's scope");

        let never = "kill:lease=1000000,stage=any; kill:master,lease=1000000,stage=any";
        let (report, run_report) = run(config(p, faults(never)), &reads, &genome);
        assert!(report.interrupted.is_none());
        assert_eq!(contig_bytes(&report), expected, "a kill that never fires changed the contigs");
        assert!(run_report.faults.is_none(), "nobody was killed, nothing recovered: {:?}", run_report.faults);
    });
}

#[test]
fn dropped_result_report_trips_liveness_and_recovers() {
    with_watchdog("dropped_result_report_trips_liveness_and_recovers", SCENARIO_LIMIT, || {
        let (reads, genome) = fixture_reads(11);
        for p in [4usize, 8] {
            let (baseline, _) = run(config(p, StageRecovery::default()), &reads, &genome);

            // Worker 1's second report (tag 1), or the grant that answers
            // it (tag 2), vanishes on the wire. Either way the worker's
            // lease can never be retired, so the stage comes to rest
            // unfinished; the simulator reports it, the master declares
            // the worker holding that lease dead and a survivor redoes the
            // batch. The plans go through the CLI grammar on purpose.
            for clause in ["drop:src=1,dst=0,tag=1,nth=2", "drop:src=0,dst=1,tag=2,nth=2"] {
                let (report, run_report) = run(config(p, faults(clause)), &reads, &genome);
                assert!(report.interrupted.is_none(), "{clause}, p={p}: a lost message took the master down");
                assert_eq!(contig_bytes(&report), contig_bytes(&baseline), "{clause}, p={p}");
                let faults = run_report.faults.expect("faults section");
                assert_eq!(faults.msgs_dropped, 1, "{clause}, p={p}");
                assert_eq!(faults.kills_injected, 0, "{clause}, p={p}: nobody was actually killed");
                assert_eq!(
                    faults.dead_ranks, 1,
                    "{clause}, p={p}: quiescence must declare the stuck worker dead"
                );
                assert!(faults.recovered_tasks > 0, "{clause}, p={p}");
            }
        }
    });
}

#[test]
fn delayed_result_report_is_absorbed_once_not_twice() {
    with_watchdog("delayed_result_report_is_absorbed_once_not_twice", SCENARIO_LIMIT, || {
        let (reads, genome) = fixture_reads(13);
        for p in [4usize, 8] {
            let (baseline, _) = run(config(p, StageRecovery::default()), &reads, &genome);

            // Worker 1's second report is held back until the worker
            // blocks on its answer; the lease journal retires it exactly
            // once.
            let (report, run_report) =
                run(config(p, faults("delay:src=1,dst=0,tag=1,nth=2")), &reads, &genome);
            assert!(report.interrupted.is_none(), "p={p}: a late report took the master down");
            assert_eq!(contig_bytes(&report), contig_bytes(&baseline), "p={p}");
            let faults = run_report.faults.expect("faults section");
            assert_eq!(faults.msgs_delayed, 1, "p={p}");
            assert_eq!(faults.dead_ranks, 0, "p={p}: a late report is not a death");
        }
    });
}

/// Scratch directory for checkpoint files, removed on drop.
struct CkptDir(PathBuf);

impl CkptDir {
    fn new(tag: &str) -> CkptDir {
        let dir = std::env::temp_dir().join(format!("pgasm-test-ft-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        CkptDir(dir)
    }
}

impl Drop for CkptDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Kill the master in place of issuing lease p of `stage_name` with
/// checkpointing armed — some worker then holds its second lease, so a
/// report was absorbed and, at a cadence of one, snapshotted — then
/// resume from the snapshot base and require byte-identical contigs:
/// from the snapshot as written, and from the same snapshot re-framed
/// to a layout this build does not restore.
fn checkpoint_resume(stage_name: &str, seed: u64, tag: &str) {
    let (reads, genome) = fixture_reads(seed);
    let p = 4;
    let dir = CkptDir::new(tag);
    let base = dir.0.join("run");

    let (baseline, _) = run(config(p, StageRecovery::default()), &reads, &genome);
    assert!(leases_issued(stage_name, &baseline) >= p as u64, "{stage_name} must issue lease {p}");

    let interrupted = StageRecovery {
        checkpoint_every: Some(1),
        checkpoint_path: Some(base.clone()),
        ..faults(&format!("kill:master,lease={p},stage={stage_name}"))
    };
    let traced = PipelineConfig { trace: TraceSpec::on(), ..config(p, interrupted) };
    let (r1, run1, trace) = run_traced(traced, &reads, &genome);
    assert_eq!(
        r1.interrupted.as_deref(),
        Some(stage_name),
        "a master kill at lease {p} must interrupt the {stage_name} stage"
    );
    // The master died inside the dispatch it was granting from, so its
    // track ends on an open `B`: the exported document still parses.
    let tracks = parse_chrome_trace(&trace.to_chrome_json()).expect("a killed run's trace parses");
    let dispatch = |kind| tracks[0].events.iter().filter(|e| e.kind == kind && e.name == "dispatch").count();
    assert_eq!(
        dispatch(TraceKind::Begin),
        dispatch(TraceKind::End) + 1,
        "{stage_name}: one dispatch left open"
    );
    let snapshot: PathBuf = {
        let mut s = base.as_os_str().to_os_string();
        s.push(format!(".{stage_name}.pgck"));
        PathBuf::from(s)
    };
    assert!(snapshot.exists(), "master must have snapshotted before dying");
    assert!(run1.faults.expect("faults section").ckpt_bytes > 0);

    // Resume, fault-free: stages before the snapshot recompute
    // deterministically, the interrupted stage reloads the journal and
    // finishes only the remaining work.
    let resume = StageRecovery { resume_from: Some(base), ..StageRecovery::default() };
    let (r2, run2) = run(config(p, resume.clone()), &reads, &genome);
    assert!(r2.interrupted.is_none());
    assert_eq!(contig_bytes(&r2), contig_bytes(&baseline), "resumed contigs differ from a clean run");
    assert!(run2.faults.is_none(), "the resumed run itself is fault-free");

    // A snapshot another build wrote: the container verifies (stage,
    // version, length, checksum all recomputed) but the payload is 16
    // bytes shorter or longer than the layout restored here. It must
    // read as "no checkpoint" — the stage starts cold and lands on the
    // baseline — never as shifted fields or a decoder panic.
    let payload = read_checkpoint(&snapshot, stage_name).expect("the killed run's snapshot verifies");
    for skewed in [payload[..payload.len() - 16].to_vec(), [&payload[..], &[0u8; 16]].concat()] {
        write_checkpoint(&snapshot, stage_name, &skewed).unwrap();
        let (r3, _) = run(config(p, resume.clone()), &reads, &genome);
        assert!(r3.interrupted.is_none());
        assert_eq!(
            contig_bytes(&r3),
            contig_bytes(&baseline),
            "resume from a {}-byte re-framing of a {}-byte {stage_name} snapshot",
            skewed.len(),
            payload.len()
        );
    }
}

#[test]
fn master_kill_during_clustering_resumes_to_identical_contigs() {
    with_watchdog("master_kill_during_clustering_resumes_to_identical_contigs", SCENARIO_LIMIT, || {
        checkpoint_resume("cluster", 17, "ck-cluster");
    });
}

#[test]
fn master_kill_during_assembly_resumes_to_identical_contigs() {
    with_watchdog("master_kill_during_assembly_resumes_to_identical_contigs", SCENARIO_LIMIT, || {
        checkpoint_resume("assemble", 19, "ck-assemble");
    });
}

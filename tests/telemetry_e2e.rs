//! End-to-end telemetry: the pipeline's run report is serialisable and
//! self-consistent, and the schedule-free Table-1 work counters are
//! engine-independent — a serial run and a master–worker run on the
//! same seed tally the same pairs generated and merges made.

use pgasm::cluster::{
    cluster_parallel, cluster_serial, ClusterParams, MasterWorkerConfig, Pipeline, PipelineConfig,
};
use pgasm::gst::{GenMode, GstConfig};
use pgasm::simgen::genome::{Genome, GenomeSpec};
use pgasm::simgen::sampler::{Sampler, SamplerConfig};
use pgasm::telemetry::{names, RunContext, RunReport};

fn test_store(seed: u64, n: usize) -> pgasm::seq::FragmentStore {
    let genome = Genome::generate(
        &GenomeSpec {
            length: 9_000,
            repeat_fraction: 0.1,
            repeat_families: 2,
            repeat_len: (80, 160),
            repeat_identity: 0.99,
            islands: 0,
            island_len: (1, 2),
        },
        seed,
    );
    let mut cfg = SamplerConfig::clean();
    cfg.read_len = (130, 210);
    let mut sampler = Sampler::new(&genome, cfg, seed + 1);
    sampler.wgs(n).to_store()
}

/// §7's protocol reorders alignment work across workers, so *aligned*
/// and *accepted* legitimately drift between engines (the cluster-check
/// skip depends on merge timing). What the schedule cannot touch must
/// match the serial run exactly: every maximal match is generated once
/// whoever owns its bucket, and a partition of n fragments into c
/// clusters took n − c merges — per rank-summed telemetry too.
#[test]
fn work_counters_identical_between_serial_and_parallel() {
    let store = test_store(11, 60);
    let params =
        ClusterParams { gst: GstConfig { psi: 14 }, mode: GenMode::AllMatches, ..Default::default() };
    let (serial_clustering, serial_stats) = cluster_serial(&store, &params);
    let config = MasterWorkerConfig { batch: 8, pending_cap: 128 };
    let report = cluster_parallel(&store, 3, &params, &config);

    assert_eq!(report.clustering, serial_clustering);
    assert_eq!(report.stats.generated, serial_stats.generated);
    assert_eq!(report.stats.merges, serial_stats.merges);
    assert!(report.stats.accepted >= report.stats.merges && report.stats.aligned >= report.stats.accepted);

    // The master's totals fall out of the per-rank telemetry channels.
    let worker_sum = |key: &str| -> u64 { report.ranks[1..].iter().map(|r| r.counter(key)).sum() };
    assert_eq!(worker_sum(names::PAIRS_GENERATED), serial_stats.generated);
    assert_eq!(worker_sum(names::PAIRS_ALIGNED), report.stats.aligned);
    assert_eq!(worker_sum(names::PAIRS_ACCEPTED), report.stats.accepted);
}

/// Per-tag `modelled_seconds` is priced on the *sender* only, so the
/// cross-rank sum reproduces the α–β cost of the run's total sent
/// traffic exactly once — the receiving rank's row for the same tag
/// contributes nothing. (Before this, both ends priced every message
/// and cross-rank sums double-counted network time.)
#[test]
fn modelled_seconds_sum_prices_each_message_once() {
    use pgasm::mpisim::CostModel;
    let store = test_store(31, 50);
    let params = ClusterParams { gst: GstConfig { psi: 14 }, ..Default::default() };
    let config = MasterWorkerConfig { batch: 8, pending_cap: 128 };
    let report = cluster_parallel(&store, 4, &params, &config);

    let model = CostModel::BLUEGENE_L;
    let mut from_rows = 0.0;
    let mut alpha_beta = 0.0;
    for rank in &report.ranks {
        for t in &rank.comm {
            from_rows += t.modelled_seconds;
            alpha_beta +=
                t.msgs_sent as f64 * model.latency_s + t.bytes_sent as f64 / model.bandwidth_bytes_per_s;
            if t.msgs_sent == 0 {
                assert_eq!(t.modelled_seconds, 0.0, "receive-only row '{}' must not be priced", t.label);
            }
        }
    }
    assert!(alpha_beta > 0.0);
    assert!((from_rows - alpha_beta).abs() < 1e-12, "{from_rows} vs {alpha_beta}");
}

#[test]
fn pipeline_run_report_survives_json_round_trip() {
    let genome = Genome::generate(
        &GenomeSpec {
            length: 9_000,
            repeat_fraction: 0.1,
            repeat_families: 2,
            repeat_len: (80, 160),
            repeat_identity: 0.99,
            islands: 0,
            island_len: (1, 2),
        },
        22,
    );
    let mut cfg = SamplerConfig::clean();
    cfg.read_len = (130, 210);
    let mut sampler = Sampler::new(&genome, cfg, 23);
    let reads = sampler.wgs(50);
    let config = PipelineConfig {
        cluster: ClusterParams { gst: GstConfig { psi: 18 }, ..Default::default() },
        parallel_ranks: Some(3),
        master_worker: MasterWorkerConfig { batch: 8, pending_cap: 128 },
        assembly_threads: 2,
        ..Default::default()
    };
    let mut ctx = RunContext::new("e2e");
    let report = Pipeline::new(config).run_with_context(&reads, &[], &genome.repeat_library, &mut ctx);
    let run = ctx.finish();

    // Stage graph shape and counter consistency.
    let names: Vec<&str> = run.spans.iter().map(|s| s.name.as_str()).collect();
    assert_eq!(names, vec!["preprocess", "cluster", "assemble"]);
    assert_eq!(run.counter(names::PAIRS_GENERATED), report.cluster_stats.generated);
    // "Did repeat masking fire" is a question the report answers.
    let masked = report.preprocess.as_ref().expect("preprocessing ran").masked_bases;
    assert!(masked > 0 && run.counter(names::PREPROCESS_MASKED_BASES) == masked as u64, "{masked}");
    assert_eq!(run.ranks.len(), 3);
    assert!(run.ranks.iter().all(|r| !r.comm.is_empty()));

    // Lossless JSON round trip of the full document.
    let text = run.to_json_string();
    let back = RunReport::from_json_str(&text).unwrap();
    assert_eq!(back, run);
    // Spot-check a span and a rank counter survive re-parsing.
    assert_eq!(back.wall("cluster"), run.wall("cluster"));
    assert_eq!(
        back.ranks[1].counter(names::BATCH_ROUND_TRIPS),
        run.ranks[1].counter(names::BATCH_ROUND_TRIPS)
    );
}

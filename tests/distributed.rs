//! Distributed-substrate integration: the per-rank GST forests jointly
//! generate the serial pair stream, the master–worker protocol scales
//! worker counts without changing results, and the traffic accounting
//! stays consistent — all on simgen data with sequencing errors.

use pgasm::cluster::parallel_gst::{build_distributed_gst, compute_owners, rank_build_gst};
use pgasm::cluster::{cluster_parallel, cluster_serial, ClusterParams, MasterWorkerConfig};
use pgasm::gst::{GenMode, Gst, GstConfig, PairGenerator};
use pgasm::simgen::genome::{Genome, GenomeSpec};
use pgasm::simgen::sampler::{Sampler, SamplerConfig};

fn test_reads(seed: u64, n: usize) -> pgasm::seq::FragmentStore {
    let genome = Genome::generate(
        &GenomeSpec {
            length: 8_000,
            repeat_fraction: 0.1,
            repeat_families: 2,
            repeat_len: (80, 200),
            repeat_identity: 0.99,
            islands: 0,
            island_len: (1, 2),
        },
        seed,
    );
    let mut cfg = SamplerConfig::clean();
    cfg.read_len = (120, 200);
    let mut sampler = Sampler::new(&genome, cfg, seed + 1);
    sampler.wgs(n).to_store()
}

#[test]
fn distributed_gst_pairs_equal_serial_on_simulated_reads() {
    let config = GstConfig { psi: 14 };
    let ds = test_reads(1, 40).with_reverse_complements();
    let serial: Vec<_> = {
        let gst = Gst::build(&ds, config);
        let mut v: Vec<_> = PairGenerator::new(gst, GenMode::AllMatches, |_, _| false)
            .map(|p| (p.a.0, p.b.0, p.a_pos, p.b_pos, p.match_len))
            .collect();
        v.sort_unstable();
        v
    };
    for p in [2usize, 4] {
        let owner = compute_owners(&ds, p, 0);
        let (owner, ds_ref) = (&owner, &ds);
        let per_rank = pgasm::mpisim::run(p, move |comm| {
            let (gst, _text, _rep) = rank_build_gst(comm, ds_ref, owner, config, 0);
            PairGenerator::new(gst, GenMode::AllMatches, |_, _| false)
                .map(|pr| (pr.a.0, pr.b.0, pr.a_pos, pr.b_pos, pr.match_len))
                .collect::<Vec<_>>()
        });
        let mut combined: Vec<_> = per_rank.into_iter().flatten().collect();
        combined.sort_unstable();
        assert_eq!(combined, serial, "p = {p}");
    }
}

#[test]
fn gst_traffic_shrinks_per_rank_as_ranks_grow() {
    let ds = test_reads(2, 60).with_reverse_complements();
    let config = GstConfig { psi: 14 };
    let r2 = build_distributed_gst(&ds, 2, config);
    let r8 = build_distributed_gst(&ds, 8, config);
    let received = |rows: &Vec<pgasm::telemetry::TagStat>| rows.iter().map(|t| t.bytes_recv).sum::<u64>();
    let max_bytes_2 = r2.comm.iter().map(received).max().unwrap();
    let max_bytes_8 = r8.comm.iter().map(received).max().unwrap();
    // With 4x the ranks, the heaviest rank receives less data.
    assert!(
        max_bytes_8 < max_bytes_2,
        "per-rank traffic should drop: p=2 max {max_bytes_2}, p=8 max {max_bytes_8}"
    );
}

#[test]
fn master_worker_scales_worker_count_without_changing_result() {
    let store = test_reads(3, 50);
    let params = ClusterParams { gst: GstConfig { psi: 14 }, ..Default::default() };
    let (serial, serial_stats) = cluster_serial(&store, &params);
    for workers in [1usize, 3, 6] {
        let cfg = MasterWorkerConfig { batch: 8, pending_cap: 128 };
        let report = cluster_parallel(&store, workers + 1, &params, &cfg);
        assert_eq!(report.clustering, serial, "workers = {workers}");
        // Work totals agree with the serial run where order-independent.
        assert_eq!(report.stats.generated, serial_stats.generated, "workers = {workers}");
        assert_eq!(report.stats.accepted as usize + count_rejected(&report), report.stats.aligned as usize);
    }
}

fn count_rejected(report: &pgasm::cluster::ParallelClusterReport) -> usize {
    (report.stats.aligned - report.stats.accepted) as usize
}

#[test]
fn modelled_comm_time_is_finite_and_positive() {
    let store = test_reads(4, 30);
    let params = ClusterParams { gst: GstConfig { psi: 14 }, ..Default::default() };
    let cfg = MasterWorkerConfig { batch: 8, pending_cap: 128 };
    let report = cluster_parallel(&store, 3, &params, &cfg);
    for r in &report.ranks {
        let t = r.modelled_comm_seconds();
        assert!(t.is_finite() && t >= 0.0);
    }
    // The master heard at least one report from each worker.
    let master = &report.ranks[0].comm;
    assert!(master.iter().filter(|t| t.label == "w2m_report").map(|t| t.msgs_recv).sum::<u64>() >= 2);
}

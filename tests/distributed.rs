//! Distributed-substrate integration: the per-rank GST forests jointly
//! generate the serial pair stream and report through their rank
//! channels, the master–worker protocol scales worker counts without
//! changing results, and the traffic accounting stays consistent — all
//! on simgen data with sequencing errors.

use pgasm::cluster::parallel_gst::{compute_owners, rank_build_gst};
use pgasm::cluster::{cluster, ClusterParams, Exec, MasterWorkerConfig, Partition};
use pgasm::gst::{GenMode, Gst, GstConfig, PairGenerator};
use pgasm::simgen::genome::{Genome, GenomeSpec};
use pgasm::simgen::sampler::{Sampler, SamplerConfig};
use pgasm::telemetry::{names, RunContext, RunReport};

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

/// The cluster stage on `exec`: its partition and its run report.
fn cluster_on(
    store: &pgasm::seq::FragmentStore,
    params: &ClusterParams,
    exec: Exec,
) -> (Partition, RunReport) {
    let mut ctx = RunContext::new("distributed");
    let (part, _) = cluster(store, params, &exec, &mut ctx);
    (part, ctx.finish())
}

fn ranks(p: usize, engine: MasterWorkerConfig) -> Exec {
    Exec::Ranks { p, engine, recovery: Default::default() }
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
    // Two and four builders beside the master.
    for p in [3usize, 5] {
        let owner = compute_owners(&ds, p);
        let (owner, ds_ref) = (&owner, &ds);
        let per_rank = pgasm::mpisim::run(p, move |comm| {
            let (gst, _) = rank_build_gst(comm, ds_ref, owner, config);
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
    let store = test_reads(2, 60);
    let params = ClusterParams { gst: GstConfig { psi: 14 }, ..Default::default() };
    // The heaviest rank's bytes received in the GST build's collectives
    // on `builders` builders beside the master.
    let max_received = |builders: usize| {
        let (_, report) = cluster_on(&store, &params, ranks(builders + 1, MasterWorkerConfig::default()));
        let gst_rows = |r: &pgasm::telemetry::RankReport| {
            r.comm.iter().filter(|t| t.tag == names::TAG_ALLTOALL).map(|t| t.bytes_recv).sum::<u64>()
        };
        report.ranks.iter().map(gst_rows).max().unwrap()
    };
    let (max_bytes_2, max_bytes_8) = (max_received(2), max_received(8));
    // With 4x the builders, the heaviest rank receives less data.
    assert!(
        max_bytes_8 < max_bytes_2,
        "per-rank traffic should drop: p=2 max {max_bytes_2}, p=8 max {max_bytes_8}"
    );
}

#[test]
fn master_worker_scales_worker_count_without_changing_result() {
    let store = test_reads(3, 50);
    let params = ClusterParams { gst: GstConfig { psi: 14 }, ..Default::default() };
    let Partition { clustering: serial, stats: serial_stats, .. } =
        cluster_on(&store, &params, Exec::Threads(1)).0;
    for workers in [1usize, 3, 6] {
        let cfg = MasterWorkerConfig { batch: 8, pending_cap: 128 };
        let (report, _) = cluster_on(&store, &params, ranks(workers + 1, cfg));
        assert_eq!(report.clustering, serial, "workers = {workers}");
        // Work totals agree with the serial run where order-independent.
        assert_eq!(report.stats.generated, serial_stats.generated, "workers = {workers}");
        assert_eq!(report.stats.accepted as usize + count_rejected(&report), report.stats.aligned as usize);
    }
}

fn count_rejected(report: &Partition) -> usize {
    (report.stats.aligned - report.stats.accepted) as usize
}

#[test]
fn modelled_comm_time_is_finite_and_positive() {
    let store = test_reads(4, 30);
    let params = ClusterParams { gst: GstConfig { psi: 14 }, ..Default::default() };
    let cfg = MasterWorkerConfig { batch: 8, pending_cap: 128 };
    let (_, report) = cluster_on(&store, &params, ranks(3, cfg));
    for r in &report.ranks {
        let t = r.modelled_comm_seconds();
        assert!(t.is_finite() && t >= 0.0);
    }
    // The master heard at least one report from each worker.
    let master = &report.ranks[0].comm;
    assert!(master.iter().filter(|t| t.label == "w2m_report").map(|t| t.msgs_recv).sum::<u64>() >= 2);
}

#[test]
fn every_rank_reports_its_gst_build_and_the_ranks_sum_to_the_run_and_to_serial() {
    // The distributed build reports through the rank channels only: every
    // rank of the stage carries the five `gst_*` counters, and over the
    // ranks the tree sizes are the run's counters and the serial build's,
    // while their computation is the `gst_build` span's CPU.
    let store = test_reads(5, 50);
    let params = ClusterParams { gst: GstConfig { psi: 14 }, ..Default::default() };
    let (serial, _) = cluster_on(&store, &params, Exec::Threads(1));
    const GST: [&str; 5] = [
        names::GST_SUFFIXES_ENUMERATED,
        names::GST_SUFFIXES_INDEXED,
        names::GST_NODES,
        names::GST_COMPUTE_NS,
        names::GST_FRAGMENTS_FETCHED,
    ];
    for p in [2usize, 3, 5] {
        let (_, report) = cluster_on(&store, &params, ranks(p, MasterWorkerConfig::default()));
        assert_eq!(report.ranks.len(), p);
        for rank in &report.ranks {
            for name in GST {
                assert!(rank.counters.contains_key(name), "p = {p}, rank {}: no {name}", rank.rank);
            }
        }
        let sum = |name| report.ranks.iter().map(|r| r.counter(name)).sum::<u64>();
        for (name, serial) in [
            (names::GST_SUFFIXES_ENUMERATED, serial.gst.enumerated),
            (names::GST_SUFFIXES_INDEXED, serial.gst.suffixes),
            (names::GST_NODES, serial.gst.nodes),
        ] {
            assert_eq!(sum(name), report.counter(name), "p = {p}: {name}");
            assert_eq!(sum(name), serial as u64, "p = {p}: {name}");
        }
        let cpu = report.span("gst_build").expect("a gst_build span").cpu_seconds;
        let ranks_cpu = sum(names::GST_COMPUTE_NS) as f64 * 1e-9;
        assert!((cpu - ranks_cpu).abs() <= 1e-6, "p = {p}: span {cpu} s, ranks {ranks_cpu} s");
    }
}

//! Distributed-assembly integration: the engine-hosted assembly phase
//! produces byte-identical contigs to the threaded in-process path at
//! several rank counts, and largest-first (LPT) dispatch strictly beats
//! contiguous chunking on a heavy-tailed workload where the dominant
//! cluster sets the critical path — which the trace analyzer must find
//! on the worker that drew it, whichever rank's track ends last.

use pgasm::align::AcceptCriteria;
use pgasm::assemble::AssemblyConfig;
use pgasm::cluster::pipeline::assemble_clusters_q;
use pgasm::cluster::{
    assemble_parallel, assemble_parallel_with, cluster_serial, AssignPolicy, ClusterParams, Clustering,
    DistAssembleReport, RunOpts,
};
use pgasm::gst::GstConfig;
use pgasm::seq::{DnaSeq, FragmentStore};
use pgasm::telemetry::analyze::{analyze, ATrack, Analysis};
use pgasm::telemetry::{names, TraceKind, TraceSpec};
use std::sync::{Mutex, MutexGuard, PoisonError};

/// These tests read schedules — which worker drew what, what the run
/// waited on — and the one thing that changes a schedule here is sharing
/// two cores with another test's ranks: they run one at a time.
static ONE_AT_A_TIME: Mutex<()> = Mutex::new(());

fn alone() -> MutexGuard<'static, ()> {
    ONE_AT_A_TIME.lock().unwrap_or_else(PoisonError::into_inner)
}

fn genome(seed: u64, len: usize) -> String {
    let mut x = seed.wrapping_mul(0x9E3779B97F4A7C15) | 1;
    (0..len)
        .map(|_| {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            ['A', 'C', 'G', 'T'][(x >> 33) as usize % 4]
        })
        .collect()
}

fn tile(g: &str, read: usize, step: usize) -> Vec<DnaSeq> {
    let b = g.as_bytes();
    let mut out = Vec::new();
    let mut at = 0;
    while at + read <= b.len() {
        out.push(DnaSeq::from_ascii(&b[at..at + read]));
        at += step;
    }
    out
}

/// One dominant island (64 reads, cost proxy 2016) plus 14 small ones
/// (5 reads, cost proxy 10 each): 15 non-singleton clusters, so at
/// p = 8 static chunking packs ⌈15/7⌉ = 3 clusters per grant and the
/// dominant cluster's chunk always carries extra work, while LPT hands
/// the dominant cluster out alone first. The island's reads are 400 bp
/// so that assembling it outlasts the dispatch of the whole tail with a
/// wide margin: a worker that finishes the island while small clusters
/// are still queued draws one of them.
fn fixture() -> (FragmentStore, Clustering) {
    let mut reads = tile(&genome(7, 4180), 400, 60);
    for seed in 100..114 {
        reads.extend(tile(&genome(seed, 600), 200, 90));
    }
    let store = FragmentStore::from_seqs(reads);
    let params = ClusterParams {
        gst: GstConfig { psi: 16 },
        criteria: AcceptCriteria { min_identity: 0.9, min_overlap: 30 },
        ..Default::default()
    };
    let (clustering, _) = cluster_serial(&store, &params);
    assert_eq!(clustering.num_non_singletons(), 15, "fixture yields 1 giant + 14 small clusters");
    (store, clustering)
}

#[test]
fn distributed_assembly_is_byte_identical_to_threaded() {
    let _alone = alone();
    let (store, clustering) = fixture();
    let cfg = AssemblyConfig::default();
    let threaded = assemble_clusters_q(&store, None, &clustering, &cfg, 4);
    assert!(!threaded.is_empty());
    for p in [2usize, 4, 8] {
        for policy in [AssignPolicy::Lpt, AssignPolicy::Static] {
            let dist = assemble_parallel(&store, None, &clustering, &cfg, p, policy);
            assert_eq!(dist.assemblies, threaded, "p = {p}, policy = {policy:?}");
        }
    }
}

/// max / mean of the deterministic per-worker cost-unit counter.
fn imbalance(report: &DistAssembleReport) -> f64 {
    let costs: Vec<u64> = report.ranks[1..].iter().map(|r| r.counter(names::ASM_COST_UNITS)).collect();
    let max = costs.iter().copied().max().unwrap_or(0) as f64;
    let mean = costs.iter().sum::<u64>() as f64 / costs.len().max(1) as f64;
    max / mean.max(1e-9)
}

#[test]
fn lpt_strictly_beats_static_chunking_at_p8() {
    let _alone = alone();
    let (store, clustering) = fixture();
    let cfg = AssemblyConfig::default();
    let lpt = assemble_parallel(&store, None, &clustering, &cfg, 8, AssignPolicy::Lpt);
    let stat = assemble_parallel(&store, None, &clustering, &cfg, 8, AssignPolicy::Static);
    // Same total work either way, so comparing max/mean compares the
    // worst-loaded worker directly.
    let (lpt_ratio, stat_ratio) = (imbalance(&lpt), imbalance(&stat));
    assert!(
        lpt_ratio < stat_ratio,
        "LPT must strictly beat static chunking here: max/mean {lpt_ratio:.3} vs {stat_ratio:.3}"
    );
    // LPT's critical path is exactly the dominant cluster: the worker
    // that drew it gets nothing else while the tail back-fills.
    let lpt_max: u64 = lpt.ranks[1..].iter().map(|r| r.counter(names::ASM_COST_UNITS)).max().unwrap_or(0);
    let giant: u64 =
        clustering.non_singletons().map(|m| (m.len() as u64) * (m.len() as u64 - 1) / 2).max().unwrap_or(0);
    assert_eq!(lpt_max, giant, "the dominant cluster rides alone under LPT");
}

#[test]
fn critical_path_runs_through_the_dominant_clusters_worker() {
    let _alone = alone();
    let (store, clustering) = fixture();
    let cfg = AssemblyConfig::default();
    let opts = RunOpts { trace: TraceSpec::on(), ..RunOpts::default() };
    let dist = assemble_parallel_with(&store, None, &clustering, &cfg, 4, AssignPolicy::Lpt, &opts);
    let giant =
        dist.ranks[1..].iter().max_by_key(|r| r.counter(names::ASM_COST_UNITS)).expect("three workers").rank;
    let mut tracks: Vec<ATrack> = dist.traces.iter().map(ATrack::from_rank_trace).collect();

    // The dominant cluster's `assemble_cluster` span on that worker's
    // track. The known answer needs it to dominate the run: half a second
    // against the others' milliseconds in a dev build. Optimised it is a
    // few ms — within what a scheduler can add to any rank on a busy
    // two-core host — and whoever the master then hears from last is
    // rightly where the path goes.
    let spans = || tracks[giant].events.iter().filter(|e| e.name == names::EV_ASSEMBLE_CLUSTER);
    let begin =
        spans().filter(|e| e.kind == TraceKind::Begin).max_by_key(|e| e.args["reads"]).expect("a span");
    let (begin, end) = (begin.ts_ns, spans().find(|e| e.ts_ns > begin.ts_ns).expect("its end").ts_ns);
    let dominates = end - begin > 100_000_000;
    // The path's longest segment is the compute segment covering it.
    let dominant = |a: &Analysis| {
        let longest = a.critical_path.iter().max_by_key(|s| s.end_ns - s.start_ns).expect("a path");
        if dominates {
            assert_eq!((longest.kind.as_str(), longest.label.as_str()), ("compute", "assemble_cluster"));
            assert!(longest.rank as usize == giant && longest.start_ns <= begin && end <= longest.end_ns);
        }
    };

    let whole = analyze(&tracks, None, 0);
    assert_eq!(whole.edges_unpaired, 0, "a rank's track id is its comm rank");
    dominant(&whole);

    // Whichever track ends last: cut that worker's track off at its last
    // report — what the master was waiting for before it terminated the
    // run — so the path starts from another rank's final wait, and must
    // cross the master to reach the same segment.
    let events = &mut tracks[giant].events;
    let last_report = events.iter().rposition(|e| e.name == names::EV_SEND).expect("a report");
    events.truncate(last_report + 1);
    let cut = analyze(&tracks, None, 0);
    assert_ne!(cut.critical_path.last().expect("a path").rank as usize, giant);
    dominant(&cut);
}

//! End-to-end tracing: a traced pipeline run yields a well-formed
//! Chrome trace document (one track per rank over both distributed
//! stages, ≥ 4 categories, ordered timestamps) that the analyzer reads
//! back, alone, without an unpaired message and with the distributed
//! stages' rows summing to its rank rows, and the event-derived blocked
//! time agrees with the simulator's own `wait_ns`/`barrier_ns`
//! accounting.

use pgasm::cluster::{cluster, ClusterParams, Exec, MasterWorkerConfig, Pipeline, PipelineConfig};
use pgasm::gst::GstConfig;
use pgasm::seq::FragmentStore;
use pgasm::simgen::genome::{Genome, GenomeSpec};
use pgasm::simgen::sampler::{Sampler, SamplerConfig};
use pgasm::telemetry::analyze::{self, ATrack};
use pgasm::telemetry::{names, Json, RankTrace, RunContext, RunReport, Trace, TraceKind, TraceSpec};

fn test_reads(seed: u64, n: usize) -> pgasm::simgen::ReadSet {
    let genome = Genome::generate(
        &GenomeSpec {
            length: 12_000,
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
    sampler.wgs(n)
}

fn on_ranks(p: usize) -> Exec {
    Exec::Ranks { p, engine: MasterWorkerConfig { batch: 8, pending_cap: 128 }, recovery: Default::default() }
}

/// The cluster stage on `p` ranks under `trace`: the ranks' tracks and
/// the run report.
fn cluster_traced(store: &FragmentStore, p: usize, trace: TraceSpec) -> (Vec<RankTrace>, RunReport) {
    let params = ClusterParams { gst: GstConfig { psi: 18 }, ..Default::default() };
    let mut ctx = RunContext::new("traced");
    ctx.bind_track(&trace);
    cluster(store, &params, &on_ranks(p), &mut ctx);
    let tracks = ctx.trace_document().tracks.into_iter().filter(|t| t.label != "pipeline").collect();
    (tracks, ctx.finish())
}

/// The whole pipeline on `ranks` ranks, traced: the trace document and
/// the run report, as `--trace-json` and `--metrics-json` write them.
fn pipeline_traced(reads: &pgasm::simgen::ReadSet, ranks: usize) -> (Trace, RunReport) {
    let config = PipelineConfig {
        preprocess: None,
        cluster: ClusterParams { gst: GstConfig { psi: 18 }, ..Default::default() },
        exec: on_ranks(ranks),
        trace: TraceSpec::on(),
        ..Default::default()
    };
    let mut ctx = RunContext::new("traced");
    Pipeline::new(config).run(reads, &[], &[], &mut ctx);
    (ctx.trace_document(), ctx.finish())
}

/// The trace as the analyzer reads it: through the exporter and the one
/// validating reader the CLI uses.
fn tracks_of(doc: &Trace) -> Vec<ATrack> {
    analyze::parse_chrome_trace(&doc.to_chrome_json()).expect("a valid trace")
}

#[test]
fn traced_pipeline_exports_valid_chrome_trace() {
    let ranks = 4;
    let (doc, run) = pipeline_traced(&test_reads(7, 80), ranks);

    // One track per rank, carrying both distributed stages, and the
    // pipeline's own.
    let ids: Vec<(usize, &str)> = doc.tracks.iter().map(|t| (t.rank, t.label.as_str())).collect();
    assert_eq!(ids, [(0, "master"), (1, "worker"), (2, "worker"), (3, "worker"), (4, "pipeline")]);
    assert_eq!(doc.dropped_events(), 0, "default capacity overran");
    assert_eq!(run.counter(names::TRACE_EVENTS_DROPPED), 0);
    assert!(run.counters.contains_key(names::TRACE_EVENTS_DROPPED), "a traced run says what it dropped");

    // The acceptance bar: at least four distinct event categories.
    let cats = doc.categories();
    assert!(cats.len() >= 4, "only {cats:?}");
    for want in ["comm", "master", "stage", "worker", "assemble"] {
        assert!(cats.contains(&want), "missing category '{want}' in {cats:?}");
    }

    // The exported JSON reads back through the analyzer's parser, which
    // rejects an out-of-order or mis-paired event — across the stage
    // boundary too, both stages being on the one track.
    let json = doc.to_chrome_json().pretty();
    let parsed = Json::parse(&json).unwrap();
    assert!(parsed.get("schema_version").and_then(Json::as_u64).is_some());
    let tracks = analyze::parse_chrome_trace(&parsed).unwrap();
    assert_eq!(tracks.len(), ranks + 1, "a track without events");
    // Gauges are counter events on their owner's track.
    let events = parsed.get("traceEvents").and_then(Json::as_arr).unwrap();
    let gauge_tids = |gauge: &str| -> Vec<u64> {
        let mut tids: Vec<u64> = events
            .iter()
            .filter(|e| e.get("ph").and_then(Json::as_str) == Some("C"))
            .filter(|e| e.get("name").and_then(Json::as_str).is_some_and(|n| n.ends_with(gauge)))
            .map(|e| e.get("tid").and_then(Json::as_u64).unwrap())
            .collect();
        tids.dedup();
        tids
    };
    assert_eq!(gauge_tids(names::GAUGE_PENDING_TASKS), [0]);
    assert_eq!(gauge_tids(names::GAUGE_WORKERS_PARKED), [0]);
    assert_eq!(gauge_tids(names::GAUGE_ALIGN_SCRATCH_BYTES), [1, 2, 3]);
    assert_eq!(gauge_tids(names::GAUGE_CACHE_BYTES), [4]);

    // The report's spans are a fold of the pipeline track, not a second
    // clock: each stage's wall is its window on that track, exactly.
    let windows: Vec<(String, f64)> =
        analyze::analyze(&tracks, 0).stages.into_iter().map(|s| (s.stage, s.wall_ns as f64 / 1e9)).collect();
    let spans: Vec<(String, f64)> = run.spans.iter().map(|s| (s.name.clone(), s.wall_seconds)).collect();
    assert_eq!(spans, windows);

    // The analyzer reads that document and nothing else: every message
    // of both stages pairs, attribution covers each rank's wall, the
    // critical path exists, and a wait is blamed on the label its tag
    // has in the stage it happened in — in every stage, its own.
    let analysis = analyze::analyze(&tracks, usize::MAX);
    assert_eq!(analysis.edges_unpaired, 0);
    assert!(analysis.edges_paired > 0);
    assert!(analysis.max_coverage_error() <= 0.05, "{}", analysis.max_coverage_error());
    assert!(!analysis.critical_path.is_empty());
    let stage = |name: &str| analysis.stages.iter().find(|s| s.stage == name).expect("stage window");
    let pipeline = tracks.iter().find(|t| t.label == "pipeline").unwrap();
    let assemble_from = pipeline.events.iter().find(|e| e.name == "assemble").unwrap().ts_ns;
    assert!(stage("assemble").wait_blocked_ns > 0);
    let mut blames = [Vec::new(), Vec::new()];
    for gap in &analysis.top_gaps {
        blames[usize::from(gap.start_ns >= assemble_from)].push(gap.blame.as_str());
    }
    let [cluster, assemble] = blames;
    assert!(assemble.contains(&"asm_m2w_grant"), "{assemble:?}");
    assert!(assemble.iter().all(|b| b.starts_with("asm_")), "{assemble:?}");
    assert!(cluster.contains(&"m2w_grant"), "{cluster:?}");
    assert!(cluster.iter().all(|b| !b.starts_with("asm_")), "{cluster:?}");

    // Rank rows and stage rows are one attribution over two kinds of
    // window, and every rank's traced time falls inside a distributed
    // stage: for compute, wait and barrier those stages' rows sum to the
    // rank rows (the pipeline track, which holds the windows, excepted).
    // Preprocessing runs before any rank starts, on the pipeline's
    // thread: its row is the pipeline track's, all compute.
    let pre = stage("preprocess");
    assert_eq!((pre.compute_ns, pre.wait_blocked_ns, pre.barrier_ns), (pre.wall_ns, 0, 0));
    let sum = |rows: Vec<[u64; 3]>| rows.iter().fold([0; 3], |t, r| [t[0] + r[0], t[1] + r[1], t[2] + r[2]]);
    let ranks = analysis.ranks.iter().filter(|r| r.label != "pipeline");
    let by_rank = sum(ranks.map(|r| [r.compute_ns, r.wait_blocked_ns, r.barrier_ns]).collect());
    let distributed = analysis.stages.iter().filter(|s| s.stage != "preprocess");
    let by_stage = sum(distributed.map(|s| [s.compute_ns, s.wait_blocked_ns, s.barrier_ns]).collect());
    assert!(by_rank.iter().all(|&ns| ns > 0), "{by_rank:?}");
    assert_eq!(by_stage, by_rank, "[compute, wait, barrier]");
}

/// The `wait`/`barrier` trace spans bracket exactly the regions the
/// simulator charges to `wait_ns`/`barrier_ns`, so the two independent
/// accountings of blocked time — the analyzer's, from the events, and
/// the comm layer's, in both stages' rank counters — must agree within
/// 5% (the spans strictly contain the timed region, so event-derived
/// time can only be the slightly larger one).
#[test]
fn event_blocked_time_matches_wait_ns_accounting() {
    let (doc, run) = pipeline_traced(&test_reads(19, 120), 4);
    let analysis = analyze::analyze(&tracks_of(&doc), 0);
    assert_eq!(analysis.ranks.len(), 5);
    let event_blocked: u64 = analysis.ranks.iter().map(|r| r.wait_blocked_ns + r.barrier_ns).sum();
    let counter_blocked: u64 =
        run.ranks.iter().map(|r| r.counter(names::WAIT_NS_TOTAL) + r.counter(names::BARRIER_NS_TOTAL)).sum();
    assert!(counter_blocked > 0, "a master-worker run must block somewhere");
    assert!(
        event_blocked >= counter_blocked,
        "trace spans contain the timed region: {event_blocked} < {counter_blocked}"
    );
    let ratio = event_blocked as f64 / counter_blocked as f64;
    assert!(ratio < 1.05, "event-derived blocked time off by {:.2}% (> 5%)", (ratio - 1.0) * 100.0);
    assert_eq!(doc.dropped_events(), 0, "default capacity overran");
}

/// The GST phase's reported wall bounds what the ranks traced of it:
/// each rank's window from its `gst_count` begin to its `gst_build` end
/// lies inside its pre-phase, and the stage's `gst_build` span, the
/// longest rank's pre-phase, is at least the longest of those.
#[test]
fn gst_seconds_is_wall_time_covering_every_ranks_gst_window() {
    let store = test_reads(31, 160).to_store();
    let (traces, run) = cluster_traced(&store, 3, TraceSpec::on());
    let gst_seconds = run.span("gst_build").expect("the GST phase's span").wall_seconds;
    for track in &traces {
        let at = |kind, name| {
            track.events.iter().find(|e| e.kind == kind && e.name == name).map(|e| e.ts_ns).unwrap()
        };
        let window = at(TraceKind::End, names::EV_GST_BUILD) - at(TraceKind::Begin, names::EV_GST_COUNT);
        assert!(
            gst_seconds * 1e9 >= window as f64,
            "rank {}: gst_seconds {:.6} s < traced GST window {window} ns",
            track.rank,
            gst_seconds
        );
    }
}

/// The disabled tracer must cost < 1% of a smoke clustering run's wall
/// time. A direct traced/untraced A/B is scheduler noise, so bound it
/// deterministically: (events a traced run records) × (measured
/// per-call cost of a disabled tracer) against the untraced wall time.
#[test]
fn disabled_tracer_overhead_is_under_one_percent_of_smoke_run() {
    let store = test_reads(29, 150).to_store();

    // How many trace-call sites does this workload actually execute?
    let (traced, _) = cluster_traced(&store, 4, TraceSpec::on());
    let call_sites: u64 = traced.iter().map(|t| t.events.len() as u64 + t.dropped_events).sum::<u64>();
    assert!(call_sites > 0);

    // Measured cost of one disabled call in this build profile.
    let mut off = TraceSpec::off().tracer(0, "probe");
    let reps: u32 = 1_000_000;
    let start = std::time::Instant::now();
    for _ in 0..reps {
        off.instant(pgasm::telemetry::TraceCategory::Comm, "probe", &[]);
    }
    let per_call = start.elapsed().as_secs_f64() / reps as f64;
    assert!(off.finish().events.is_empty());

    // Wall time of the same workload with tracing off.
    let start = std::time::Instant::now();
    cluster_traced(&store, 4, TraceSpec::off());
    let wall = start.elapsed().as_secs_f64();

    let overhead = call_sites as f64 * per_call;
    assert!(
        overhead < 0.01 * wall,
        "disabled tracing would cost {overhead:.6}s over {call_sites} call sites \
         on a {wall:.3}s run (>= 1%)"
    );
}

/// Tracing off is the default and must leave no trace artifacts at all
/// — no track, no events, no drops, no drop counter. (The context drops
/// an untraced stage's tracks; that its ranks recorded nothing in them
/// is `master_worker`'s unit test
/// `untraced_ranks_record_no_event_and_drop_none_in_either_stage`.)
#[test]
fn untraced_run_carries_no_trace_artifacts() {
    let store = test_reads(23, 60).to_store();
    let (traces, run) = cluster_traced(&store, 3, TraceSpec::off());
    assert!(traces.iter().all(|t| t.events.is_empty() && t.dropped_events == 0));
    assert!(traces.is_empty(), "an untraced run exports no track");
    assert!(!run.counters.contains_key(names::TRACE_EVENTS_DROPPED));
    assert_eq!(run.ranks.len(), 3);
}

//! The master–worker runtime in action: the same fragments clustered
//! serially and on 2/4/8 simulated distributed-memory ranks, showing
//! that the partition is identical while the work spreads across
//! workers, plus the protocol's traffic profile.
//!
//! ```text
//! cargo run --release --example parallel_cluster
//! ```

use pgasm::cluster::{cluster, ClusterParams, Exec, MasterWorkerConfig};
use pgasm::gst::GstConfig;
use pgasm::preprocess::{PreprocessConfig, Preprocessor};
use pgasm::seq::DnaSeq;
use pgasm::simgen::presets;
use pgasm::simgen::vector::VECTOR_SEQ;
use pgasm::telemetry::{RunContext, TagStat};

fn main() {
    let dataset = presets::drosophila_like(60_000, 6.0, 31);
    println!("{}", dataset.name);
    // Trim vector/quality artefacts and mask repeats before clustering.
    let known: Vec<DnaSeq> = dataset.genomes[0].repeat_library.clone();
    let pp = Preprocessor::new(PreprocessConfig::default(), &[DnaSeq::from(VECTOR_SEQ)], &known);
    let store = pp.run(&dataset.reads).store;
    println!("fragments after preprocessing: {}", store.num_fragments());

    let params = ClusterParams { gst: GstConfig { psi: 20 }, ..Default::default() };
    let (part, _) = cluster(&store, &params, &Exec::Threads(1), &mut RunContext::new("serial"));
    let (serial, serial_stats) = (part.clustering, part.stats);
    println!(
        "serial: {} clusters / {} singletons, {} aligned of {} generated",
        serial.num_non_singletons(),
        serial.num_singletons(),
        serial_stats.aligned,
        serial_stats.generated
    );

    // A rank's traffic over the whole stage, GST build included.
    let total = |rows: &[TagStat], count: fn(&TagStat) -> u64| rows.iter().map(count).sum::<u64>();
    for p in [2usize, 4, 8] {
        let engine = MasterWorkerConfig { batch: 64, pending_cap: 4096 };
        let mut ctx = RunContext::new("ranks");
        let (part, _) =
            cluster(&store, &params, &Exec::Ranks { p, engine, recovery: Default::default() }, &mut ctx);
        assert_eq!(part.clustering, serial, "parallel clustering must equal serial");
        let report = ctx.finish();
        let master = &report.ranks[0].comm;
        let worker_bytes: u64 = report.ranks[1..].iter().map(|r| total(&r.comm, |t| t.bytes_sent)).sum();
        println!(
            "p={p}: identical clustering; master handled {} msgs ({} KiB in, {} KiB out), \
             workers sent {} KiB, modelled comm {:.2} ms/rank max",
            total(master, |t| t.msgs_recv),
            total(master, |t| t.bytes_recv) / 1024,
            total(master, |t| t.bytes_sent) / 1024,
            worker_bytes / 1024,
            report.ranks.iter().map(|r| r.modelled_comm_seconds()).fold(0.0, f64::max) * 1e3,
        );
    }
    println!("parallel == serial for every p: OK");
}

//! End-to-end integration: simgen → preprocess → cluster → assemble →
//! validate, across crates, with realistic artefacts (errors, vector,
//! repeats) at test scale.

use pgasm::align::AcceptCriteria;
use pgasm::cluster::validation::validate_clusters;
use pgasm::cluster::{ClusterParams, Pipeline, PipelineConfig};
use pgasm::gst::GstConfig;
use pgasm::preprocess::PreprocessConfig;
use pgasm::seq::DnaSeq;
use pgasm::simgen::genome::{Genome, GenomeSpec};
use pgasm::simgen::sampler::{Sampler, SamplerConfig};
use pgasm::simgen::vector::VECTOR_SEQ;
use pgasm::simgen::ReadKind;

fn test_params() -> ClusterParams {
    ClusterParams {
        gst: GstConfig { psi: 18 },
        criteria: AcceptCriteria { min_identity: 0.9, min_overlap: 35 },
        ..Default::default()
    }
}

fn island_genome(seed: u64, repeats: bool) -> Genome {
    Genome::generate(
        &GenomeSpec {
            length: 16_000,
            repeat_fraction: if repeats { 0.25 } else { 0.0 },
            repeat_families: 2,
            repeat_len: (120, 400),
            repeat_identity: 0.99,
            islands: 3,
            island_len: (1_200, 2_000),
        },
        seed,
    )
}

#[test]
fn clean_island_pipeline_reconstructs_regions() {
    let genome = island_genome(1, false);
    let mut cfg = SamplerConfig::clean();
    cfg.island_bias = 1.0;
    cfg.read_len = (150, 250);
    let mut sampler = Sampler::new(&genome, cfg, 2);
    let reads = sampler.enriched(90, ReadKind::Mf);
    let pipeline = Pipeline::new(PipelineConfig {
        preprocess: None,
        cluster: test_params(),
        parallel_ranks: None,
        assembly_threads: 2,
        ..Default::default()
    });
    let report = pipeline.run(&reads, &[], &[]);
    assert!(report.clustering.num_non_singletons() >= 2);
    // Every contig from clean reads is a genome substring.
    let fwd = String::from_utf8(genome.seq.to_ascii()).unwrap();
    let rc = String::from_utf8(genome.seq.reverse_complement().to_ascii()).unwrap();
    let mut checked = 0;
    for a in &report.assemblies {
        for contig in &a.contigs {
            let s = String::from_utf8(contig.seq.to_ascii()).unwrap();
            assert!(fwd.contains(&s) || rc.contains(&s), "contig is not a genome substring");
            checked += 1;
        }
    }
    assert!(checked >= 2, "expected at least two contigs, got {checked}");
    // Ground truth: every cluster maps to one region.
    let v = validate_clusters(&report.clustering, &report.origin, &reads.provenance, 1_000);
    assert!(v.specificity() > 0.99, "specificity {}", v.specificity());
}

#[test]
fn noisy_reads_with_vector_still_cluster() {
    let genome = island_genome(3, true);
    let mut cfg = SamplerConfig::default_scaled();
    cfg.island_bias = 1.0;
    cfg.read_len = (150, 250);
    let mut sampler = Sampler::new(&genome, cfg, 4);
    let reads = sampler.enriched(80, ReadKind::Hc);
    let pipeline = Pipeline::new(PipelineConfig {
        preprocess: Some(PreprocessConfig { stat_repeats: None, min_unmasked_run: 40, ..Default::default() }),
        cluster: test_params(),
        parallel_ranks: None,
        assembly_threads: 2,
        ..Default::default()
    });
    let report = pipeline.run(&reads, &[DnaSeq::from(VECTOR_SEQ)], &genome.repeat_library);
    let pp = report.preprocess.as_ref().expect("preprocessing ran");
    let survivors: usize = pp.after.values().map(|v| v.0).sum();
    assert!(survivors >= 40, "too few survivors: {survivors}");
    assert!(report.clustering.num_non_singletons() >= 1);
    // Clusters must still be single-region despite errors and masking.
    let v = validate_clusters(&report.clustering, &report.origin, &reads.provenance, 1_500);
    assert!(v.specificity() >= 0.8, "specificity {}", v.specificity());
}

#[test]
fn parallel_pipeline_equals_serial_with_artifacts() {
    let genome = island_genome(5, true);
    let mut cfg = SamplerConfig::default_scaled();
    cfg.island_bias = 1.0;
    cfg.read_len = (150, 250);
    let mut sampler = Sampler::new(&genome, cfg, 6);
    let reads = sampler.enriched(60, ReadKind::Mf);
    let make = |ranks: Option<usize>| {
        Pipeline::new(PipelineConfig {
            preprocess: Some(PreprocessConfig {
                stat_repeats: None,
                min_unmasked_run: 40,
                ..Default::default()
            }),
            cluster: test_params(),
            parallel_ranks: ranks,
            assembly_threads: 1,
            ..Default::default()
        })
        .run(&reads, &[DnaSeq::from(VECTOR_SEQ)], &genome.repeat_library)
    };
    let serial = make(None);
    let parallel = make(Some(3));
    assert_eq!(serial.clustering, parallel.clustering);
    assert_eq!(serial.total_contigs(), parallel.total_contigs());
}

#[test]
fn repeat_masking_prevents_chaining() {
    // Reads from two distinct islands joined only by a shared repeat
    // must end up in different clusters when masking is on.
    let mut genome_seq = pgasm::seq::DnaSeq::new();
    let g1 = Genome::generate(
        &GenomeSpec {
            length: 3_000,
            repeat_fraction: 0.0,
            repeat_families: 0,
            repeat_len: (10, 20),
            repeat_identity: 1.0,
            islands: 0,
            island_len: (1, 2),
        },
        10,
    );
    let repeat = Genome::generate(
        &GenomeSpec {
            length: 400,
            repeat_fraction: 0.0,
            repeat_families: 0,
            repeat_len: (10, 20),
            repeat_identity: 1.0,
            islands: 0,
            island_len: (1, 2),
        },
        11,
    );
    let g2 = Genome::generate(
        &GenomeSpec {
            length: 3_000,
            repeat_fraction: 0.0,
            repeat_families: 0,
            repeat_len: (10, 20),
            repeat_identity: 1.0,
            islands: 0,
            island_len: (1, 2),
        },
        12,
    );
    // Layout: [island1][repeat]....gap....[repeat][island2]
    genome_seq.extend_from(&g1.seq);
    genome_seq.extend_from(&repeat.seq);
    genome_seq.extend_from(&g2.seq);
    genome_seq.extend_from(&repeat.seq);
    genome_seq.extend_from(&g1.seq.reverse_complement());
    let genome = Genome {
        seq: genome_seq,
        repeats: vec![],
        islands: vec![],
        repeat_library: vec![repeat.seq.clone()],
    };
    let mut cfg = SamplerConfig::clean();
    cfg.read_len = (150, 250);
    // ~6x coverage: enough that reads land inside both repeat copies
    // and chain the islands whenever masking is off.
    let mut sampler = Sampler::new(&genome, cfg, 13);
    let reads = sampler.wgs(300);
    let run = |known: &[DnaSeq]| {
        Pipeline::new(PipelineConfig {
            preprocess: Some(PreprocessConfig {
                stat_repeats: None,
                min_unmasked_run: 40,
                ..Default::default()
            }),
            cluster: test_params(),
            parallel_ranks: None,
            assembly_threads: 1,
            ..Default::default()
        })
        .run(&reads, &[], known)
    };
    let masked = run(std::slice::from_ref(&repeat.seq));
    let unmasked = run(&[]);
    assert!(
        masked.clustering.max_cluster_fraction() < unmasked.clustering.max_cluster_fraction(),
        "masking should shrink the largest cluster: {} vs {}",
        masked.clustering.max_cluster_fraction(),
        unmasked.clustering.max_cluster_fraction()
    );
}

#[test]
fn cli_rejects_options_a_subcommand_never_reads() {
    // A deleted flag, another subcommand's flag and a typo all used to
    // be kept and ignored (`--rank 4` silently ran serial; `cluster`
    // never assembles, so it has no assembly threads to size).
    for (cmd, option) in [
        ("assemble", "--kernel"),
        ("assemble", "--rank"),
        ("assemble", "--no-cache"),
        ("cluster", "--no-adaptive-band"),
        ("cluster", "--w"),
        ("cluster", "--assembly-threads"),
        ("generate", "--reads"),
        ("analyze", "--ranks"),
    ] {
        let out = std::process::Command::new(env!("CARGO_BIN_EXE_pgasm"))
            .args([cmd, option, "5"])
            .output()
            .expect("pgasm runs");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(!out.status.success(), "pgasm {cmd} {option} 5 was accepted");
        assert!(stderr.contains(&format!("unknown option {option}")), "pgasm {cmd} {option}: {stderr}");
    }
}

#[test]
fn cli_rejects_spellings_it_used_to_ignore() {
    // `--checkpoint` without a cadence wrote no snapshot and said
    // nothing; `--ranks 1` ran serial although USAGE says p >= 2;
    // `--assembly-threads 0` ran one thread; a `--min-identity` outside
    // [0, 1] (or NaN) clustered nothing or accepted every pair. All are
    // errors before any read is loaded.
    for (args, names) in [
        (&["cluster", "--min-identity", "nan"][..], "--min-identity must be in [0, 1], not NaN"),
        (&["cluster", "--min-identity", "1.5"][..], "--min-identity must be in [0, 1], not 1.5"),
        (&["cluster", "--min-identity", "inf"][..], "--min-identity must be in [0, 1], not inf"),
        (
            &["assemble", "--out", "/nonexistent.fasta", "--min-identity", "-1"][..],
            "--min-identity must be in [0, 1], not -1",
        ),
        (&["cluster", "--checkpoint", "x"][..], "--checkpoint needs --checkpoint-every"),
        (&["assemble", "--out", "/nonexistent.fasta", "--ranks", "1"][..], "--ranks 1"),
        (&["cluster", "--ranks", "0"][..], "--ranks 0"),
        (
            &["assemble", "--out", "/nonexistent.fasta", "--assembly-threads", "0"][..],
            "--assembly-threads must be >= 1",
        ),
    ] {
        let out = std::process::Command::new(env!("CARGO_BIN_EXE_pgasm"))
            .args(args)
            .args(["--reads", "/nonexistent.fastq"])
            .output()
            .expect("pgasm runs");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(!out.status.success(), "pgasm {args:?} was accepted");
        assert!(stderr.contains(names), "pgasm {args:?}: {stderr}");
    }
}

#[test]
fn cli_warns_when_the_cache_directory_cannot_be_opened() {
    use std::process::Command;
    // A directory cannot be created below a regular file: the run goes
    // on uncached and says so, once.
    let fastq = std::env::temp_dir().join(format!("pgasm-e2e-nocache-{}.fastq", std::process::id()));
    let (fastq, pgasm) = (fastq.to_str().unwrap(), env!("CARGO_BIN_EXE_pgasm"));
    let generated = Command::new(pgasm)
        .args(["generate", "--kind", "maize", "--out", fastq, "--scale", "0.05", "--seed", "5"])
        .output()
        .expect("pgasm runs");
    assert!(generated.status.success());
    let out = Command::new(pgasm)
        .args(["cluster", "--reads", fastq, "--cache-dir", &format!("{fastq}/cache")])
        .output()
        .expect("pgasm runs");
    let _ = std::fs::remove_file(fastq);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "an unopenable cache must not fail the run: {stderr}");
    assert_eq!(stderr.matches("warning: cache directory").count(), 1, "{stderr}");
}

#[test]
fn cli_runs_an_input_whose_every_read_trims_away() {
    // Reads shorter than the trimmer's minimum insert all fail trimming,
    // which leaves the repeat sampler nothing to sample: an empty
    // clustering and no contigs, not a panic.
    let dir = std::env::temp_dir().join(format!("pgasm-e2e-trimmed-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = |name: &str| dir.join(name).to_str().unwrap().to_string();
    let reads = ["ACGTACGTACGTAGCTAGCTAGGATCGATCGA", "TTGACGATCGATCGTAGCTAGCTAGCTAGCAT"];
    let fastq: String =
        reads.iter().enumerate().map(|(i, r)| format!("@r{i}\n{r}\n+\n{}\n", "I".repeat(r.len()))).collect();
    std::fs::write(path("short.fastq"), fastq).unwrap();
    for (command, said) in [("cluster", "clustered 0 fragments"), ("assemble", "into 0 contigs")] {
        let out = std::process::Command::new(env!("CARGO_BIN_EXE_pgasm"))
            .args([command, "--reads", &path("short.fastq"), "--out", &path("out")])
            .output()
            .expect("pgasm runs");
        let (stdout, stderr) = (String::from_utf8_lossy(&out.stdout), String::from_utf8_lossy(&out.stderr));
        assert!(out.status.success() && stdout.contains(said), "pgasm {command}: {stdout}{stderr}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn cli_analyze_rejects_a_malformed_trace() {
    // A wait that ends before it begins and an `E` with no `B`: a trace
    // the analyzer must refuse by event, not subtract its way through.
    let path = std::env::temp_dir().join(format!("pgasm-e2e-trace-{}.json", std::process::id()));
    let events = [
        r#"{"ph": "M", "pid": 0, "tid": 0, "name": "thread_name", "args": {"name": "rank 0 · master"}}"#,
        r#"{"ph": "B", "pid": 0, "tid": 0, "ts": 10, "cat": "comm", "name": "wait"}"#,
        r#"{"ph": "E", "pid": 0, "tid": 0, "ts": 5, "cat": "comm", "name": "wait"}"#,
        r#"{"ph": "E", "pid": 0, "tid": 0, "ts": 20, "cat": "master", "name": "dispatch"}"#,
    ];
    std::fs::write(&path, format!(r#"{{"traceEvents": [{}]}}"#, events.join(",\n"))).unwrap();
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_pgasm"))
        .args(["analyze", "--trace-json", path.to_str().unwrap()])
        .output()
        .expect("pgasm runs");
    let _ = std::fs::remove_file(&path);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(!out.status.success(), "analyzed: {}", String::from_utf8_lossy(&out.stdout));
    assert!(stderr.contains("event 2:") && !stderr.contains("panicked"), "{stderr}");
}

#[test]
fn cli_rejects_a_fault_plan_that_would_arm_nothing() {
    // A plan is outside input: the old grammars, a misspelt key, a
    // lease that cannot exist and a message named by no direction are
    // errors before any read is loaded (the reads file does not exist).
    for (plan, names) in [
        ("kill:rank=3,event=3", "unknown key 'rank' (one of: master, lease, stage)"),
        ("drop:lease=2,dir=report,stge=assemble", "unknown key 'stge'"),
        ("drop:src=1,dst=0,tag=1,nth=2", "unknown key 'src' (one of: lease, dir, stage)"),
        ("drop:lease=0,dir=grant", "lease=0 is out of range"),
        ("delay:lease=2,dir=sideways", "unknown dir 'sideways'"),
        ("drop:lease=2", "missing dir=grant|report"),
        ("kill:lease=2,dir=grant", "unknown key 'dir' (one of: master, lease, stage)"),
    ] {
        let out = std::process::Command::new(env!("CARGO_BIN_EXE_pgasm"))
            .args(["cluster", "--reads", "/nonexistent.fastq", "--ranks", "4", "--fault-plan", plan])
            .output()
            .expect("pgasm runs");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(!out.status.success(), "--fault-plan '{plan}' was accepted");
        assert!(stderr.contains("--fault-plan") && stderr.contains(names), "--fault-plan '{plan}': {stderr}");
    }
}

#[test]
fn cli_cluster_stops_after_the_cluster_stage() {
    use pgasm::simgen::{Provenance, ReadSet};
    use pgasm::telemetry::{names, RunReport};
    use std::process::Command;

    let dir = std::env::temp_dir().join(format!("pgasm-e2e-cluster-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let path = |name: &str| dir.join(name).to_str().unwrap().to_string();
    let pgasm = |args: &[&str]| {
        let out = Command::new(env!("CARGO_BIN_EXE_pgasm")).args(args).output().expect("pgasm runs");
        assert!(out.status.success(), "pgasm {args:?}: {}", String::from_utf8_lossy(&out.stderr));
    };
    let (fastq, clusters, metrics) = (path("reads.fastq"), path("clusters.txt"), path("metrics.json"));
    pgasm(&["generate", "--kind", "maize", "--out", &fastq, "--scale", "0.1", "--seed", "5"]);
    pgasm(&["cluster", "--reads", &fastq, "--out", &clusters, "--metrics-json", &metrics]);

    // The run report: preprocess and cluster (with its GST build and
    // how much of the input reached the tree), no assemble stage.
    let report = RunReport::from_json_str(&std::fs::read_to_string(&metrics).unwrap()).unwrap();
    assert!(report.span("assemble").is_none(), "pgasm cluster must not assemble");
    assert!(report.span("cluster").unwrap().find("cluster/gst_build").is_some());
    let (enumerated, indexed) =
        (report.counter(names::GST_SUFFIXES_ENUMERATED), report.counter(names::GST_SUFFIXES_INDEXED));
    assert!(0 < indexed && indexed < enumerated / 10, "{indexed} of {enumerated} suffixes indexed");
    assert!(report.counter(names::GST_NODES) > 0 && report.counter(names::CONTIGS) == 0);

    // `--out` is the partition the full pipeline assembles from.
    let records =
        pgasm::seq::fasta::read_fastq(std::io::BufReader::new(std::fs::File::open(&fastq).unwrap()));
    let mut reads = ReadSet::default();
    for r in records.unwrap() {
        let end = r.seq.len() as u32;
        reads.provenance.push(Provenance { genome: 0, start: 0, end, reverse: false, kind: ReadKind::Wgs });
        reads.seqs.push(r.seq);
        reads.quals.push(r.qual);
    }
    let full = Pipeline::new(PipelineConfig { assembly_threads: 2, ..Default::default() }).run(
        &reads,
        &[DnaSeq::from(VECTOR_SEQ)],
        &[],
    );
    assert!(full.total_contigs() > 0, "fixture must assemble something");
    let expected: String = full
        .clustering
        .clusters
        .iter()
        .map(|c| {
            c.iter().map(|&f| format!("read{}", full.origin[f as usize])).collect::<Vec<_>>().join("\t")
                + "\n"
        })
        .collect();
    assert_eq!(std::fs::read_to_string(&clusters).unwrap(), expected);
    let _ = std::fs::remove_dir_all(&dir);
}

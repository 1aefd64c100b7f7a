//! Scaffolding with clone mates (the paper's §2 "order and orientation
//! of the contigs along the chromosomes is later determined using a
//! process called scaffolding").
//!
//! A genome with unclonable gaps is sequenced as mate pairs; reads
//! falling into the gaps are lost, so assembly yields one contig per
//! clonable segment. Mate pairs whose sub-clones *span* a gap then
//! stitch the contigs back into one scaffold in true genome order,
//! with estimated gap sizes.
//!
//! ```text
//! cargo run --release --example scaffolding
//! ```

use pgasm::assemble::scaffold::{scaffold, MateLink, ReadPlacement, ScaffoldConfig};
use pgasm::cluster::{ClusterParams, Pipeline, PipelineConfig};
use pgasm::gst::GstConfig;
use pgasm::simgen::genome::{Genome, GenomeSpec};
use pgasm::simgen::sampler::{Sampler, SamplerConfig};
use pgasm::simgen::ReadSet;
use std::collections::HashMap;

fn main() {
    // A clean 30 kb genome with three unclonable gaps.
    let genome = Genome::generate(
        &GenomeSpec {
            length: 30_000,
            repeat_fraction: 0.0,
            repeat_families: 0,
            repeat_len: (50, 60),
            repeat_identity: 1.0,
            islands: 0,
            island_len: (1, 2),
        },
        404,
    );
    let gaps: Vec<(u32, u32)> = vec![(7_000, 7_500), (14_500, 15_000), (22_000, 22_500)];

    // Mate-pair sequencing: ~14x coverage, 4–6 kb inserts.
    let mut cfg = SamplerConfig::clean();
    cfg.read_len = (300, 500);
    let mut sampler = Sampler::new(&genome, cfg, 405);
    let (reads, raw_links) = sampler.mate_pairs(600, (4_000, 6_000));
    println!("sampled {} reads in {} mate pairs", reads.len(), raw_links.len());

    // Reads inside a gap are unclonable and vanish; renumber survivors.
    let mut keep_map: HashMap<usize, usize> = HashMap::new();
    let mut surviving = ReadSet::default();
    for i in 0..reads.len() {
        let p = reads.provenance[i];
        let hits_gap = gaps.iter().any(|&(s, e)| p.start < e && s < p.end);
        if !hits_gap {
            keep_map.insert(i, surviving.len());
            surviving.seqs.push(reads.seqs[i].clone());
            surviving.quals.push(reads.quals[i].clone());
            surviving.provenance.push(p);
        }
    }
    let links: Vec<MateLink> = raw_links
        .iter()
        .filter_map(|&(r1, r2, insert)| {
            Some(MateLink { read1: *keep_map.get(&r1)?, read2: *keep_map.get(&r2)?, insert })
        })
        .collect();
    println!("{} reads survive the gaps; {} usable mate links", surviving.len(), links.len());

    // Cluster + assemble.
    let pipeline = Pipeline::new(PipelineConfig {
        preprocess: None,
        cluster: ClusterParams { gst: GstConfig { psi: 20 }, ..Default::default() },
        parallel_ranks: None,
        assembly_threads: 2,
        ..Default::default()
    });
    let report = pipeline.run(&surviving, &[], &[]);
    println!(
        "assembly: {} clusters -> {} contigs",
        report.clustering.num_non_singletons(),
        report.total_contigs()
    );

    // Collect global contigs and read placements (pipeline fragment ids
    // are read ids here because preprocessing was skipped).
    let mut contig_lens: Vec<usize> = Vec::new();
    let mut placements: HashMap<usize, ReadPlacement> = HashMap::new();
    let mut contig_truth: Vec<u32> = Vec::new(); // true genome start per contig
    let clusters: Vec<&Vec<u32>> = report.clustering.non_singletons().collect();
    for (assembly, members) in report.assemblies.iter().zip(&clusters) {
        for contig in &assembly.contigs {
            let id = contig_lens.len();
            contig_lens.push(contig.seq.len());
            let mut true_start = u32::MAX;
            for p in &contig.placements {
                let read = report.origin[members[p.read] as usize];
                placements.insert(
                    read,
                    ReadPlacement {
                        contig: id,
                        offset: p.offset,
                        flipped: p.flipped,
                        len: surviving.seqs[read].len(),
                    },
                );
                true_start = true_start.min(surviving.provenance[read].start);
            }
            contig_truth.push(true_start);
        }
    }
    println!("contigs: {:?} (lengths)", contig_lens);

    // Scaffold.
    let scaffolds = scaffold(&contig_lens, &placements, &links, &ScaffoldConfig::default());
    let multi: Vec<_> = scaffolds.iter().filter(|s| s.len() > 1).collect();
    println!("scaffolds: {} total, {} multi-contig", scaffolds.len(), multi.len());
    for s in &multi {
        print!("  scaffold:");
        for part in &s.parts {
            if part.gap_before != 0 {
                print!(" --[gap {:>4}]--", part.gap_before);
            }
            print!(" contig{}{}", part.contig, if part.flipped { "(-)" } else { "(+)" });
        }
        println!("  (span {} bp)", s.span(&contig_lens));
        // Verify the scaffold order matches true genome coordinates.
        let truth: Vec<u32> = s.parts.iter().map(|p| contig_truth[p.contig]).collect();
        let sorted = {
            let mut t = truth.clone();
            t.sort_unstable();
            t
        };
        let reversed: Vec<u32> = sorted.iter().rev().copied().collect();
        assert!(truth == sorted || truth == reversed, "scaffold order {truth:?} does not match genome order");
    }
    let largest = multi.iter().map(|s| s.len()).max().unwrap_or(1);
    println!("largest scaffold chains {largest} contigs; order matches the genome: OK");
}

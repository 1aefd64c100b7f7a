//! The assembler's output is pinned to the byte: the contigs FASTA that
//! `pgasm assemble` writes for three fixed-seed simgen presets hashes to
//! a pinned value. Maize and sargasso hold the value the full-matrix
//! overlap stage produced before the seed-anchored banded stage replaced
//! it; drosophila holds the value of the per-read seed join the one-sort
//! seed table replaced. Candidate set, seed diagonals, alignment ranges,
//! edge order, layout and consensus all feed these bytes, so any drift in
//! `find_overlaps` shows here first.

use pgasm::cluster::cache::fnv1a;
use pgasm::cluster::{Pipeline, PipelineConfig};
use pgasm::seq::fasta::{write_fasta, FastaRecord};
use pgasm::seq::DnaSeq;
use pgasm::simgen::presets::{self, Dataset};
use pgasm::simgen::vector::VECTOR_SEQ;

/// The bytes `pgasm assemble --reads <dataset> --out -` would write:
/// default pipeline, the vector library, no known repeats. At least
/// `min_contigs` contigs, so that an empty fixture cannot pass.
fn contigs_fasta(dataset: &Dataset, min_contigs: usize) -> Vec<u8> {
    let report =
        Pipeline::new(PipelineConfig::default()).run(&dataset.reads, &[DnaSeq::from(VECTOR_SEQ)], &[]);
    let mut records = Vec::new();
    for (ci, assembly) in report.assemblies.iter().enumerate() {
        for (j, contig) in assembly.contigs.iter().enumerate() {
            records.push(FastaRecord {
                header: format!("contig_{ci}_{j} len={} reads={}", contig.seq.len(), contig.placements.len()),
                seq: contig.seq.clone(),
            });
        }
    }
    assert!(records.len() >= min_contigs, "fixture too small: {} contigs", records.len());
    let mut out = Vec::new();
    write_fasta(&mut out, &records, 80).expect("write to memory");
    out
}

#[test]
fn maize_preset_contigs_match_the_pinned_digest() {
    // `pgasm generate --kind maize --scale 0.3 --seed 3`.
    let dataset = presets::maize_like(60_000, 120, 3);
    assert_eq!(fnv1a(&contigs_fasta(&dataset, 10)), 0xc758_9294_633a_0b2a);
}

#[test]
fn sargasso_preset_contigs_match_the_pinned_digest() {
    // `pgasm generate --kind sargasso --scale 0.3 --seed 11`.
    let dataset = presets::sargasso_like(4, 450, 11);
    assert_eq!(fnv1a(&contigs_fasta(&dataset, 10)), 0x72b2_a056_6ef9_5850);
}

#[test]
fn drosophila_preset_contigs_match_the_pinned_digest() {
    // `pgasm generate --kind drosophila --scale 0.1 --seed 3`: one
    // 196-read island with planted repeats, which assembles into one
    // contig.
    let dataset = presets::drosophila_like(10_000, 8.8, 3);
    assert_eq!(fnv1a(&contigs_fasta(&dataset, 1)), 0x78ea_5187_23d1_6529);
}

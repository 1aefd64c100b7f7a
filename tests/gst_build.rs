//! The GST builder's output is pinned to the byte: `Gst::encode()` of a
//! fixed-seed simgen store at the paper's `w = 11, ψ = 20` hashes to the
//! value the recursive character-partitioning builder produced before
//! the sort + LCP builder replaced it (PR 12). Node ids, lset slots,
//! suffix-entry ids, processing order and stats all feed the encoding,
//! so any drift in construction order shows here first.

use pgasm::cluster::cache::fnv1a;
use pgasm::gst::{Gst, GstConfig};
use pgasm::simgen::genome::{Genome, GenomeSpec};
use pgasm::simgen::sampler::{Sampler, SamplerConfig};

#[test]
fn encoded_gst_matches_the_pinned_digest() {
    let genome = Genome::generate(
        &GenomeSpec {
            length: 6_000,
            repeat_fraction: 0.1,
            repeat_families: 2,
            repeat_len: (80, 200),
            repeat_identity: 0.99,
            islands: 0,
            island_len: (1, 2),
        },
        12,
    );
    let mut cfg = SamplerConfig::clean();
    cfg.read_len = (150, 300);
    let store = Sampler::new(&genome, cfg, 13).wgs(120).to_store().with_reverse_complements();
    let gst = Gst::build(&store, GstConfig { w: 11, psi: 20 });
    let stats = gst.stats();
    assert!(stats.eligible_nodes > 1_000 && stats.leaves > stats.buckets, "fixture too small: {stats:?}");
    assert_eq!(fnv1a(&gst.encode()), 0x4d6f_f888_3c6b_c430, "{stats:?}");
}

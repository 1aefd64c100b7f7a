//! The promising-pair stream is pinned, not the tree: FNV-1a over the
//! `(a, b, a_pos, b_pos, match_len)` stream of fixed-seed simgen stores
//! at ψ = 20, in both generation modes, hashes to what the builder that
//! indexed every suffix sharing an 11-mer (`w = 11`, before PR 15)
//! generated. The forest's bytes are free to change — buckets that
//! cannot emit a pair are no longer built — but which pairs come out,
//! with which seed coordinates and in which order, is what clustering
//! and every contig downstream depend on. The hand-built cases below
//! hold the admission rule itself: which buckets reach the tree, that
//! none of them is needed for a match the brute-force oracle finds, and
//! how small the forest is against its input.

use pgasm::cluster::cache::fnv1a;
use pgasm::gst::{brute, GenMode, Gst, GstConfig, PairGenerator};
use pgasm::seq::{DnaSeq, FragmentStore};
use pgasm::simgen::genome::{Genome, GenomeSpec};
use pgasm::simgen::sampler::{Sampler, SamplerConfig};

/// 120 clean reads of 150–300 bp over a 6 kb genome, both strands.
fn fixture(repeat_fraction: f64, repeat_families: usize, repeat_len: (usize, usize)) -> FragmentStore {
    let genome = Genome::generate(
        &GenomeSpec {
            length: 6_000,
            repeat_fraction,
            repeat_families,
            repeat_len,
            repeat_identity: 0.99,
            islands: 0,
            island_len: (1, 2),
        },
        12,
    );
    let mut cfg = SamplerConfig::clean();
    cfg.read_len = (150, 300);
    Sampler::new(&genome, cfg, 13).wgs(120).to_store().with_reverse_complements()
}

fn stream_digest(store: &FragmentStore, mode: GenMode) -> (usize, u64) {
    let gst = Gst::build(store, GstConfig { psi: 20 });
    let mut bytes = Vec::new();
    for p in PairGenerator::new(gst, mode, |_, _| false) {
        for v in [p.a.0, p.b.0, p.a_pos, p.b_pos, p.match_len] {
            bytes.extend_from_slice(&v.to_le_bytes());
        }
    }
    (bytes.len() / 20, fnv1a(&bytes))
}

#[test]
fn pair_stream_matches_the_pinned_digests() {
    // Mostly unique sequence: no read holds a match twice, so the two
    // modes generate the same stream.
    let unique = fixture(0.1, 2, (80, 200));
    assert_eq!(stream_digest(&unique, GenMode::AllMatches), (1_428, 0x040e_bfcc_38b8_ebc5));
    assert_eq!(stream_digest(&unique, GenMode::DupElim), (1_428, 0x040e_bfcc_38b8_ebc5));
    // One short repeat family over a third of the genome: reads span
    // several copies, and duplicate elimination drops a fifth of the
    // occurrences.
    let repeats = fixture(0.3, 1, (30, 60));
    assert_eq!(stream_digest(&repeats, GenMode::AllMatches), (17_990, 0x5427_d35f_3740_388e));
    assert_eq!(stream_digest(&repeats, GenMode::DupElim), (14_752, 0x1b93_a834_76d3_7026));
}

/// `len` pseudo-random bases (an LCG stream per `seed`): long enough
/// words never repeat by chance at these sizes.
fn unique_codes(seed: u64, len: usize) -> Vec<u8> {
    let mut x = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
    (0..len)
        .map(|_| {
            x = x.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1_442_695_040_888_963_407);
            (x >> 33) as u8 % 4
        })
        .collect()
}

fn store_of(reads: Vec<Vec<u8>>) -> FragmentStore {
    FragmentStore::from_seqs(reads.into_iter().map(DnaSeq::from_codes))
}

/// Every pair of the store, as the brute-force oracle reports matches.
fn all_matches(store: &FragmentStore, psi: usize) -> Vec<brute::MaxMatch> {
    let gst = Gst::build(store, GstConfig { psi });
    let mut got: Vec<_> = PairGenerator::new(gst, GenMode::AllMatches, |_, _| false)
        .map(|p| brute::MaxMatch { a: p.a.0, b: p.b.0, a_pos: p.a_pos, b_pos: p.b_pos, len: p.match_len })
        .collect();
    got.sort_unstable();
    got
}

#[test]
fn an_overlap_is_indexed_once_where_a_read_starts() {
    // Read 0 ends with the 60 bases read 1 starts with. All 41 shared
    // 20-mers pair the two reads, but 40 of them follow the same base in
    // both; only the one at read 1's start (λ) is left-maximal.
    let g = unique_codes(1, 260);
    let store = store_of(vec![g[..160].to_vec(), g[100..].to_vec()]);
    let gst = Gst::build(&store, GstConfig { psi: 20 });
    let stats = gst.stats();
    assert_eq!((stats.buckets, stats.suffixes), (1, 2), "{stats:?}");
    assert_eq!(stats.enumerated, 2 * (160 - 19));
    let pairs: Vec<_> = PairGenerator::new(gst, GenMode::DupElim, |_, _| false).collect();
    assert_eq!(pairs.len(), 1);
    assert_eq!((pairs[0].a_pos, pairs[0].b_pos, pairs[0].match_len), (100, 0, 60));
}

#[test]
fn a_uniform_bucket_is_dropped_unless_a_mask_or_an_error_breaks_it() {
    // Three reads hold the same 30 bases after a C, inside otherwise
    // unrelated sequence (the flanks differ in their nearest base, so
    // no match extends by chance); ψ = 30 puts the three suffixes in
    // one bucket.
    let shared = unique_codes(2, 30);
    let reads = |lefts: [u8; 3]| -> Vec<Vec<u8>> {
        (0..3u8)
            .map(|i| {
                let mut r = unique_codes(10 + i as u64, 39);
                r.extend([i, lefts[i as usize]]);
                r.extend(&shared);
                r.push(i);
                r.extend(unique_codes(20 + i as u64, 39));
                r
            })
            .collect()
    };
    let psi = 30;
    // All after C: the match extends left, so it is the bucket of
    // C + shared[..29] — λ-free but fed by three different bases — that
    // is built, not the uniform one.
    let uniform = store_of(reads([1, 1, 1]));
    let stats = Gst::build(&uniform, GstConfig { psi }).stats();
    assert_eq!((stats.buckets, stats.suffixes), (1, 3), "{stats:?}");
    assert_eq!(all_matches(&uniform, psi), brute::all_maximal_matches(&uniform, psi));
    assert!(all_matches(&uniform, psi).iter().all(|m| m.len == 31));
    // One sequencing error before the shared bases makes its bucket
    // diverse: it is kept and pairs the erroneous read with the others.
    let error = store_of(reads([1, 1, 2]));
    assert_eq!(Gst::build(&error, GstConfig { psi }).stats().buckets, 2);
    assert_eq!(all_matches(&error, psi), brute::all_maximal_matches(&error, psi));
    // The same suffixes with one preceding base masked (λ) are kept too.
    let mut seqs: Vec<DnaSeq> = reads([1, 1, 1]).into_iter().map(DnaSeq::from_codes).collect();
    seqs[2].mask_range(40, 41);
    let masked = FragmentStore::from_seqs(seqs);
    assert_eq!(Gst::build(&masked, GstConfig { psi }).stats().buckets, 2);
    let matches = all_matches(&masked, psi);
    assert_eq!(matches, brute::all_maximal_matches(&masked, psi));
    assert_eq!(matches.iter().filter(|m| m.len == 30).count(), 2, "{matches:?}");
}

#[test]
fn psi_beyond_the_key_width_still_finds_every_match() {
    // ψ = 40 > 31: buckets share 31 bases and nodes between depth 31
    // and 40 carry no lsets. Tiles at half-read steps overlap by 50;
    // read 5 shares only 35 bases with read 0 and must not pair.
    let g = unique_codes(3, 400);
    let mut reads: Vec<Vec<u8>> = (0..5).map(|i| g[i * 50..i * 50 + 100].to_vec()).collect();
    let mut probe = g[20..55].to_vec();
    probe.extend(unique_codes(4, 30));
    reads.push(probe);
    let store = store_of(reads).with_reverse_complements();
    let matches = all_matches(&store, 40);
    assert_eq!(matches, brute::all_maximal_matches(&store, 40));
    assert!(!matches.is_empty() && matches.iter().all(|m| m.len >= 40));
    assert_eq!(all_matches(&store, 35), brute::all_maximal_matches(&store, 35));
}

#[test]
fn the_forest_is_a_small_fraction_of_the_input() {
    // Deep: 9× tiling of unique sequence, both strands. Every 20-mer is
    // shared by ≈ 9 reads, yet only the buckets where a read starts are
    // diverse.
    let g = unique_codes(5, 5_000);
    let tiling = store_of((0..=91).map(|i| g[i * 50..i * 50 + 450].to_vec()).collect());
    let tiling = tiling.with_reverse_complements();
    let stats = Gst::build(&tiling, GstConfig { psi: 20 }).stats();
    assert!(stats.nodes > 0 && stats.nodes <= tiling.total_len() / 10, "{stats:?}");
    // Sparse: 0.2× coverage, almost every 20-mer occurs once.
    let g = unique_codes(6, 100_000);
    let starts = unique_codes(7, 45 * 8);
    let sample = store_of(
        starts
            .chunks(8)
            .map(|c| {
                let at = c.iter().fold(0usize, |v, &d| v * 4 + d as usize) % (g.len() - 450);
                g[at..at + 450].to_vec()
            })
            .collect(),
    );
    let sample = sample.with_reverse_complements();
    let stats = Gst::build(&sample, GstConfig { psi: 20 }).stats();
    assert_eq!(stats.enumerated, sample.total_len() - 19 * sample.num_seqs());
    assert!(stats.suffixes > 0 && stats.suffixes <= stats.enumerated / 20, "{stats:?}");
}

//! Pairwise overlap detection within one cluster: seed → group → verify.
//!
//! - **Seed.** One key-sorted `(word, read, position)` array holds the
//!   first occurrence of every distinct forward w-mer of every read.
//!   Each read's forward and reverse-complement words (again first
//!   occurrence only) are joined against it; a word shared with a
//!   lower-numbered read `i` is a *hit* `(i, orientation, diagonal)`,
//!   the diagonal `pos_i − pos_j` being in the frame "`i` forward, `j`
//!   oriented". Two reads are a candidate in an orientation exactly when
//!   they share a w-mer in it, and a candidate has at most as many hits
//!   as the shorter read has distinct words, so low-complexity clusters
//!   stay linear in hits per pair.
//! - **Group.** A candidate's sorted hit diagonals split into maximal
//!   runs whose gaps are at most `2 · BAND_SLACK`: one run per place the
//!   two reads might overlap (one for a plain overlap or an overlap
//!   carrying a short indel, two for a repeat copy beside a true
//!   overlap).
//! - **Verify.** Each run is aligned once with the banded kernel the
//!   clustering phase uses ([`overlap_align_simd`]), seeded at the run's
//!   midpoint with a band of the run's half-width plus `BAND_SLACK`. The
//!   best-scoring run is the candidate's alignment (equal scores go to
//!   the end cell a full-matrix end scan meets first). A band is widened,
//!   not trusted: while the winning traceback touches an outermost
//!   in-band diagonal that is not also the matrix's own edge, that run is
//!   re-aligned with the band doubled, so the worst case costs what a
//!   full-matrix alignment costs.
//!
//! **Why the band loses nothing.** An alignment that passes 95 % identity
//! over ≥ 40 columns has an exact 12-mer on its path, so every acceptable
//! overlap has a seed, and its run's band contains that diagonal. When
//! the full-matrix optimum lies inside a run's band, the banded kernel
//! returns it field for field — same end cell (both scan the last row,
//! then column `n`, first maximum wins), same traceback (every cell on
//! the optimal path holds its full-matrix value, so each direction test
//! resolves the same way). What the band cannot see is an equally good
//! path on diagonals that carry no seed: in low-complexity sequence
//! (poly-A against poly-A) a full-matrix alignment may report another of
//! the equal-scoring placements. The unit tests hold `find_overlaps` to
//! the full-matrix reference, edge for edge and bit for bit, on simulated
//! and hand-built clusters.

use crate::AssemblyConfig;
use pgasm_align::{overlap_align_simd, AlignScratch, OverlapResult};
use pgasm_seq::{DnaSeq, KmerIter, QualityTrack};

/// Diagonals added on each side of a seed run's span, and half the
/// largest gap that still joins two hits into one run — the clustering
/// phase's default band.
const BAND_SLACK: usize = 24;

/// One accepted overlap edge between two reads of a cluster.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OverlapEdge {
    /// First read (lower index).
    pub i: usize,
    /// Second read.
    pub j: usize,
    /// Whether the overlap is between `i` forward and `j`
    /// reverse-complemented.
    pub rc: bool,
    /// The alignment of `i` (forward) against `j` in the `rc`
    /// orientation.
    pub result: OverlapResult,
}

/// Find all accepted overlaps among `reads`: candidates are seeded by
/// shared w-mers (either orientation), then verified by banded
/// suffix–prefix alignment around the shared words' diagonals. With
/// quality tracks, the quality-weighted identity is tested against
/// [`AssemblyConfig::quality_criteria`]; without them, the plain identity
/// against [`AssemblyConfig::criteria`]. Edges come best score first,
/// ties by `(i, j, rc)` — a function of the input alone.
pub fn find_overlaps(
    reads: &[DnaSeq],
    quals: Option<&[QualityTrack]>,
    config: &AssemblyConfig,
) -> Vec<OverlapEdge> {
    sweep(reads, quals, config, BAND_SLACK).0
}

/// Work done by one [`sweep`], for the tests that bound it.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
struct SweepWork {
    /// Shared-word hits joined out of the index.
    hits: u64,
    /// `(i, j, orientation)` triples sharing at least one word.
    candidates: u64,
    /// Seed runs aligned (first alignment of each).
    runs: u64,
    /// Re-alignments with a doubled band.
    widenings: u64,
    /// DP cells evaluated over all alignments.
    cells: u64,
}

/// The first occurrence of each distinct w-mer of `codes`, by word.
fn distinct_words(codes: &[u8], w: usize, out: &mut Vec<(u64, u32)>) {
    out.clear();
    out.extend(KmerIter::new(codes, w).map(|(pos, word)| (word, pos as u32)));
    out.sort_unstable();
    out.dedup_by_key(|&mut (word, _)| word);
}

/// A w-mer of read `j` shared with a lower-numbered read:
/// `(i, reverse-complemented j, diagonal pos_i − pos_j)`.
type Hit = (u32, bool, i64);

/// One read in one orientation, as the kernel takes it.
#[derive(Clone, Copy)]
struct Oriented<'a> {
    codes: &'a [u8],
    quals: Option<&'a [u8]>,
}

/// Aligns one candidate's seed runs and keeps the best.
struct Verifier<'a> {
    config: &'a AssemblyConfig,
    slack: usize,
    scratch: AlignScratch,
    work: SweepWork,
}

impl Verifier<'_> {
    fn align(&mut self, a: Oriented, b: Oriented, seed_diag: i64, band: usize) -> OverlapResult {
        let quals = a.quals.zip(b.quals);
        let r = overlap_align_simd(
            a.codes,
            b.codes,
            seed_diag,
            band,
            &self.config.scoring,
            quals,
            &mut self.scratch,
        );
        self.work.cells += r.cells;
        r
    }

    /// The alignment of `a` against `b` over the seed runs of one
    /// candidate's hit diagonals (sorted, non-empty).
    fn verify(&mut self, a: Oriented, b: Oriented, hits: &[Hit]) -> OverlapResult {
        let (m, n) = (a.codes.len(), b.codes.len());
        // Where the full-matrix kernel's end scan meets this end cell:
        // the last row by ascending column, then column `n` by ascending
        // row. On equal scores the earlier end is the one it reports.
        let scan_rank =
            |r: &OverlapResult| if r.a_range.1 == m { (0, r.b_range.1) } else { (1, r.a_range.1) };
        let max_gap = 2 * self.slack as i64;
        let mut best: Option<(OverlapResult, i64, usize)> = None;
        let mut start = 0;
        for end in 1..=hits.len() {
            if end < hits.len() && hits[end].2 - hits[end - 1].2 <= max_gap {
                continue;
            }
            let (lo, hi) = (hits[start].2, hits[end - 1].2);
            let mid = lo + (hi - lo) / 2;
            let band = (hi - mid) as usize + self.slack;
            let r = self.align(a, b, mid, band);
            self.work.runs += 1;
            let wins = best.as_ref().is_none_or(|(held, _, _)| {
                r.score > held.score || (r.score == held.score && scan_rank(&r) < scan_rank(held))
            });
            if wins {
                best = Some((r, mid, band));
            }
            start = end;
        }
        let (mut r, mid, mut band) = best.expect("a candidate has at least one hit");
        // An edge diagonal constrains the path only if the matrix has
        // diagonals beyond it; once neither does, the band is the matrix.
        let constrained = |r: &OverlapResult, band: usize| {
            let (lo, hi) = (mid - band as i64, mid + band as i64);
            (lo > -(n as i64) && r.path_diags.0 <= lo) || (hi < m as i64 && r.path_diags.1 >= hi)
        };
        while constrained(&r, band) {
            band *= 2;
            r = self.align(a, b, mid, band);
            self.work.widenings += 1;
        }
        r
    }
}

/// [`find_overlaps`] with the band slack as a parameter, plus the work it
/// took.
fn sweep(
    reads: &[DnaSeq],
    quals: Option<&[QualityTrack]>,
    config: &AssemblyConfig,
    slack: usize,
) -> (Vec<OverlapEdge>, SweepWork) {
    assert!(
        reads.len() <= u32::MAX as usize && reads.iter().all(|r| r.len() <= i32::MAX as usize),
        "cluster too large for 32-bit read indices and positions"
    );
    // Both orientations of every read and quality track, built once.
    let rc_reads: Vec<DnaSeq> = reads.iter().map(DnaSeq::reverse_complement).collect();
    let rc_quals: Option<Vec<Vec<u8>>> =
        quals.map(|qs| qs.iter().map(|q| q.values().iter().rev().copied().collect()).collect());
    let forward = |r: usize| Oriented { codes: reads[r].codes(), quals: quals.map(|qs| qs[r].values()) };
    let reverse =
        |r: usize| Oriented { codes: rc_reads[r].codes(), quals: rc_quals.as_ref().map(|qs| &qs[r][..]) };

    // Seed index: (word, read, first position), sorted.
    let mut words: Vec<(u64, u32)> = Vec::new();
    let mut index: Vec<(u64, u32, u32)> = Vec::new();
    for (r, read) in reads.iter().enumerate() {
        distinct_words(read.codes(), config.wmer, &mut words);
        index.extend(words.iter().map(|&(word, pos)| (word, r as u32, pos)));
    }
    index.sort_unstable();

    let criteria = if quals.is_some() { config.quality_criteria } else { config.criteria };
    // Sized for the longest read at the band of a seed run that sits on
    // one diagonal; a run with spread, or a doubled band, grows it.
    let max_len = reads.iter().map(DnaSeq::len).max().unwrap_or(0);
    let scratch = AlignScratch::for_sequences(max_len, slack);
    let mut verifier = Verifier { config, slack, scratch, work: SweepWork::default() };
    let mut edges = Vec::new();
    let mut hits: Vec<Hit> = Vec::new();
    for j in 1..reads.len() {
        hits.clear();
        for rc in [false, true] {
            let oriented = if rc { reverse(j) } else { forward(j) };
            distinct_words(oriented.codes, config.wmer, &mut words);
            // Both sides ascend by word, so the lower bound only advances.
            let mut at = 0;
            for &(word, pos_j) in &words {
                at += index[at..].partition_point(|e| e.0 < word);
                let shared = index[at..].iter().take_while(|e| e.0 == word && (e.1 as usize) < j);
                hits.extend(shared.map(|&(_, i, pos_i)| (i, rc, pos_i as i64 - pos_j as i64)));
            }
        }
        hits.sort_unstable();
        verifier.work.hits += hits.len() as u64;
        for candidate in hits.chunk_by(|x, y| (x.0, x.1) == (y.0, y.1)) {
            let (i, rc) = (candidate[0].0 as usize, candidate[0].1);
            verifier.work.candidates += 1;
            let result = verifier.verify(forward(i), if rc { reverse(j) } else { forward(j) }, candidate);
            if criteria.accepts(result.identity, result.overlap_len) {
                edges.push(OverlapEdge { i, j, rc, result });
            }
        }
    }
    // Best score first (greedy layout quality); (i, j, rc) is unique per
    // edge, so the order is total.
    edges.sort_by(|a, b| b.result.score.cmp(&a.result.score).then((a.i, a.j, a.rc).cmp(&(b.i, b.j, b.rc))));
    (edges, verifier.work)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pgasm_align::overlap::overlap_align_quality_with;
    use pgasm_simgen::genome::{Genome, GenomeSpec};
    use pgasm_simgen::presets;
    use pgasm_simgen::sampler::{ReadSet, Sampler, SamplerConfig};
    use std::collections::{HashMap, HashSet};

    fn cfg() -> AssemblyConfig {
        AssemblyConfig::default()
    }

    #[test]
    fn detects_forward_overlap() {
        // 60-base overlap between the two reads.
        let genome = "ATCGGATCGTAGGCTAAGTCATCGGATCGTAGGCTAAGTCATCGGTTCGTAGGCTAAGTCGGATTTGCAGCATTACGGATCAGGCATCAGGCATTACGAT";
        let a = DnaSeq::from(&genome[..80]);
        let b = DnaSeq::from(&genome[20..]);
        let edges = find_overlaps(&[a, b], None, &cfg());
        assert_eq!(edges.len(), 1);
        assert!(!edges[0].rc);
        assert_eq!(edges[0].result.overlap_len, 60);
    }

    #[test]
    fn detects_reverse_overlap() {
        let genome = "ATCGGATCGTAGGCTAAGTCATCGGATCGTAGGCTAAGTCATCGGTTCGTAGGCTAAGTCGGATTTGCAGCATTACGGATCAGGCATCAGGCATTACGAT";
        let a = DnaSeq::from(&genome[..80]);
        let b = DnaSeq::from(&genome[20..]).reverse_complement();
        let edges = find_overlaps(&[a, b], None, &cfg());
        assert_eq!(edges.len(), 1);
        assert!(edges[0].rc);
    }

    #[test]
    fn short_or_bad_overlaps_rejected() {
        // 20-base overlap < min_overlap 40.
        let a = DnaSeq::from("ATCGGATCGTAGGCTAAGTCATCGGATCGTAGGCTAAGTC");
        let b = DnaSeq::from("ATCGGATCGTAGGCTAAGTCGGATTTGCAGCATTACGGAT");
        let edges = find_overlaps(&[a, b], None, &cfg());
        assert!(edges.is_empty(), "{edges:?}");
    }

    #[test]
    fn edges_sorted_by_score() {
        let genome = "ATCGGATCGTAGGCTAAGTCATCGGATCGTAGGCTAAGTCATCGGTTCGTAGGCTAAGTCGGATTTGCAGCATTACGGATCAGGCATCAGGCATTACGATATCGGATCGTAGGCTAAGTCATCGGATCGTAGGCTATGTCATCGGTTCGTAGGCTAAGTC";
        let reads = vec![
            DnaSeq::from(&genome[..100]),
            DnaSeq::from(&genome[20..120]),
            DnaSeq::from(&genome[55..155]),
        ];
        let edges = find_overlaps(&reads, None, &cfg());
        assert!(edges.len() >= 2);
        for w in edges.windows(2) {
            assert!(w[0].result.score >= w[1].result.score);
        }
    }

    /// The candidate filter this module had before the seed index:
    /// every `(i < j, orientation)` sharing any w-mer, via hash tables.
    fn reference_candidates(reads: &[DnaSeq], wmer: usize) -> Vec<(usize, usize, bool)> {
        let distinct = |s: &DnaSeq| KmerIter::new(s.codes(), wmer).map(|(_, k)| k).collect::<HashSet<u64>>();
        let mut table: HashMap<u64, Vec<usize>> = HashMap::new();
        for (i, r) in reads.iter().enumerate() {
            for k in distinct(r) {
                table.entry(k).or_default().push(i);
            }
        }
        let mut candidates: HashSet<(usize, usize, bool)> = HashSet::new();
        for (i, r) in reads.iter().enumerate() {
            for (rc, words) in [(false, distinct(r)), (true, distinct(&r.reverse_complement()))] {
                for j in words.iter().filter_map(|k| table.get(k)).flatten().copied() {
                    if j != i && (rc || j > i) {
                        candidates.insert((i.min(j), i.max(j), rc));
                    }
                }
            }
        }
        let mut sorted: Vec<_> = candidates.into_iter().collect();
        sorted.sort_unstable();
        sorted
    }

    /// The oracle: that filter, then the full-matrix quality DP on every
    /// candidate, in [`find_overlaps`]' output order.
    fn reference_overlaps(
        reads: &[DnaSeq],
        quals: Option<&[QualityTrack]>,
        config: &AssemblyConfig,
    ) -> Vec<OverlapEdge> {
        let criteria = if quals.is_some() { config.quality_criteria } else { config.criteria };
        let mut scratch = AlignScratch::new();
        let mut edges = Vec::new();
        for (i, j, rc) in reference_candidates(reads, config.wmer) {
            let b = if rc { reads[j].reverse_complement() } else { reads[j].clone() };
            let qb: Option<Vec<u8>> = quals.map(|qs| {
                let v = qs[j].values();
                if rc {
                    v.iter().rev().copied().collect()
                } else {
                    v.to_vec()
                }
            });
            let q = quals.map(|qs| (qs[i].values(), qb.as_deref().expect("built with quals")));
            let result =
                overlap_align_quality_with(reads[i].codes(), b.codes(), q, &config.scoring, &mut scratch);
            if criteria.accepts(result.identity, result.overlap_len) {
                edges.push(OverlapEdge { i, j, rc, result });
            }
        }
        edges.sort_by(|a, b| {
            b.result.score.cmp(&a.result.score).then((a.i, a.j, a.rc).cmp(&(b.i, b.j, b.rc)))
        });
        edges
    }

    /// What two edge lists must agree on, in order: pair, orientation,
    /// score, ranges, overlap length and the identity's bits.
    type EdgeFields = ((usize, usize, bool), i32, [(usize, usize); 2], usize, u64);

    fn fields(edges: &[OverlapEdge]) -> Vec<EdgeFields> {
        edges
            .iter()
            .map(|e| {
                let r = &e.result;
                ((e.i, e.j, e.rc), r.score, [r.a_range, r.b_range], r.overlap_len, r.identity.to_bits())
            })
            .collect()
    }

    /// `sweep` at `slack` against the oracle, with and without `quals`;
    /// returns the quality-free sweep's edges and work.
    fn assert_matches_reference_at(
        reads: &[DnaSeq],
        quals: &[QualityTrack],
        slack: usize,
        what: &str,
    ) -> (Vec<OverlapEdge>, SweepWork) {
        let config = cfg();
        let expected_candidates = reference_candidates(reads, config.wmer).len() as u64;
        let check = |q: Option<&[QualityTrack]>| {
            let (got, work) = sweep(reads, q, &config, slack);
            let want = reference_overlaps(reads, q, &config);
            assert_eq!(fields(&got), fields(&want), "{what} (quals: {})", q.is_some());
            assert_eq!(work.candidates, expected_candidates, "{what}: candidate set changed");
            (got, work)
        };
        check(Some(quals));
        check(None)
    }

    fn assert_matches_reference(reads: &[DnaSeq], what: &str) -> (Vec<OverlapEdge>, SweepWork) {
        let quals: Vec<QualityTrack> = reads.iter().map(|r| QualityTrack::uniform(r.len(), 30)).collect();
        assert_matches_reference_at(reads, &quals, BAND_SLACK, what)
    }

    /// Reads of `set` in genome order, cut into clusters of `size`.
    fn clusters_of(set: &ReadSet, size: usize) -> Vec<(Vec<DnaSeq>, Vec<QualityTrack>)> {
        let mut order: Vec<usize> = (0..set.len()).collect();
        order.sort_by_key(|&r| (set.provenance[r].genome, set.provenance[r].start, r));
        order
            .chunks(size)
            .map(|c| {
                (
                    c.iter().map(|&r| set.seqs[r].clone()).collect(),
                    c.iter().map(|&r| set.quals[r].clone()).collect(),
                )
            })
            .collect()
    }

    /// 30 reads of 300–600 bp tiling a 1.5 kb repeat-free genome at 9×,
    /// each through simgen's read model (strand, errors, qualities).
    fn deep_tiling(seed: u64) -> ReadSet {
        let genome = random_seq(seed, 1_500);
        let mut config = SamplerConfig::default_scaled();
        config.vector = None;
        let mut reads = ReadSet::default();
        for i in 0..30 {
            let len = 300 + (i * 97) % 301;
            let start = i * (genome.len() - len) / 29;
            let window = Genome {
                seq: genome.slice(start, start + len),
                repeats: Vec::new(),
                islands: Vec::new(),
                repeat_library: Vec::new(),
            };
            let exactly = SamplerConfig { read_len: (len, len), ..config.clone() };
            reads.extend(Sampler::new(&window, exactly, seed + 1 + i as u64).wgs(1));
        }
        reads
    }

    #[test]
    fn matches_the_full_matrix_oracle_on_simulated_clusters() {
        // Repeat-rich (70 % planted repeats at 98.5 % copy identity),
        // vector-contaminated q7–q30 reads: many repeat-induced and
        // spurious candidates beside the true overlaps.
        let maize = presets::maize_like(30_000, 60, 5);
        // Environmental: several species, sparse true overlaps.
        let sargasso = presets::sargasso_like(3, 90, 7);
        let mut edges = 0;
        for (name, set, size) in [("maize", &maize.reads, 20), ("sargasso", &sargasso.reads, 30)] {
            for (c, (reads, quals)) in clusters_of(set, size).iter().enumerate() {
                let (got, _) =
                    assert_matches_reference_at(reads, quals, BAND_SLACK, &format!("{name} cluster {c}"));
                edges += got.len();
            }
        }
        assert!(edges >= 30, "fixtures too sparse to mean anything: {edges} edges");
    }

    #[test]
    fn deep_tiling_matches_the_oracle_in_an_eighth_of_the_cells() {
        let set = deep_tiling(3);
        let config = cfg();
        let (edges, work) = assert_matches_reference_at(&set.seqs, &set.quals, BAND_SLACK, "9x tiling");
        assert!(edges.len() >= 200, "a 9x tiling overlaps heavily: {} edges", edges.len());
        let full_matrix: u64 = reference_candidates(&set.seqs, config.wmer)
            .iter()
            .map(|&(i, j, _)| (set.seqs[i].len() * set.seqs[j].len()) as u64)
            .sum();
        assert!(
            work.cells * 8 <= full_matrix,
            "banded cells {} exceed an eighth of the full-matrix {full_matrix}: {work:?}",
            work.cells
        );
    }

    /// `len` random bases from `seed`, redrawn until no 12-mer occurs twice
    /// on either strand — a chance repeat or reverse-palindromic word
    /// would add seed runs and candidates the hand-built cases count.
    fn random_seq(seed: u64, len: usize) -> DnaSeq {
        let spec = GenomeSpec {
            length: len,
            repeat_fraction: 0.0,
            repeat_families: 0,
            repeat_len: (1, 1),
            repeat_identity: 1.0,
            islands: 0,
            island_len: (1, 2),
        };
        let repeats_a_word = |g: &DnaSeq| {
            let mut seen = HashSet::new();
            let rc = g.reverse_complement();
            let words = KmerIter::new(g.codes(), 12).chain(KmerIter::new(rc.codes(), 12));
            words.into_iter().any(|(_, word)| !seen.insert(word))
        };
        (0..)
            .map(|attempt| Genome::generate(&spec, seed + 1_000 * attempt).seq)
            .find(|g| !repeats_a_word(g))
            .unwrap()
    }

    fn concat(parts: &[&DnaSeq]) -> DnaSeq {
        let mut out = DnaSeq::new();
        for p in parts {
            out.extend_from(p);
        }
        out
    }

    #[test]
    fn hand_built_geometries_match_the_oracle() {
        let g = random_seq(1, 900);
        // Containment, and a dovetail on the opposite strand.
        let (edges, _) = assert_matches_reference(&[g.slice(0, 500), g.slice(100, 300)], "containment");
        assert_eq!(edges.len(), 1);
        let (edges, _) = assert_matches_reference(
            &[g.slice(0, 400), g.slice(250, 700).reverse_complement()],
            "rc dovetail",
        );
        assert!(edges.len() == 1 && edges[0].rc, "{edges:?}");

        // A 30-base deletion in the middle of a 1 kb overlap: seeds on two
        // diagonals 30 apart merge into one run, aligned once.
        let long = random_seq(2, 1_300);
        let deleted = concat(&[&long.slice(100, 700), &long.slice(730, 1_300)]);
        let (edges, work) = assert_matches_reference(&[long.slice(0, 1_200), deleted], "30-base indel");
        assert_eq!(edges.len(), 1);
        assert_eq!((work.candidates, work.runs), (1, 1), "{work:?}");

        // A 150-base element with two copies in the genome, one in each
        // read, beside a true 200-base overlap: one seed run per place,
        // and the true overlap outscores the repeat copy.
        let (element, unique) = (random_seq(3, 150), random_seq(4, 700));
        let genome = concat(&[
            &unique.slice(0, 200),
            &element,
            &unique.slice(200, 500),
            &element,
            &unique.slice(500, 700),
        ]);
        let (edges, work) =
            assert_matches_reference(&[genome.slice(0, 600), genome.slice(400, 1_000)], "two-copy repeat");
        assert_eq!((work.candidates, work.runs), (1, 2), "{work:?}");
        assert_eq!(
            (edges.len(), edges[0].result.a_range, edges[0].result.b_range),
            (1, (400, 600), (0, 200))
        );

        // Reads with no word at all: shorter than w, and fully masked.
        let mut masked = g.slice(0, 300);
        masked.mask_range(0, 300);
        let (edges, work) = assert_matches_reference(
            &[g.slice(0, 300), g.slice(0, 11), masked, g.slice(150, 450)],
            "wordless reads",
        );
        assert_eq!((edges.len(), work.candidates), (1, 1));
        assert_eq!((edges[0].i, edges[0].j), (0, 3));
    }

    #[test]
    fn a_band_the_path_touches_is_widened_until_it_does_not() {
        // A 6-base deletion inside a 500-base overlap, at slack 2: the
        // seeds before and after it are 6 > 2·2 diagonals apart, so each
        // side is its own run with a band too narrow to cross the gap.
        let g = random_seq(11, 900);
        let b = concat(&[&g.slice(300, 550), &g.slice(556, 900)]);
        let reads = [g.slice(0, 800), b];
        let quals: Vec<QualityTrack> = reads.iter().map(|r| QualityTrack::uniform(r.len(), 30)).collect();
        let (edges, narrow) = assert_matches_reference_at(&reads, &quals, 2, "6-base indel at slack 2");
        assert_eq!(edges.len(), 1);
        assert!(narrow.runs == 2 && narrow.widenings >= 1, "{narrow:?}");
        // At the production slack one run covers both sides untouched.
        let (_, wide) = assert_matches_reference_at(&reads, &quals, BAND_SLACK, "6-base indel");
        assert_eq!((wide.runs, wide.widenings), (1, 0), "{wide:?}");
    }

    #[test]
    fn low_complexity_reads_stay_linear_in_hits_per_pair() {
        // Five poly-A reads (one distinct word) and five (AC)n reads (two).
        let reads: Vec<DnaSeq> = (0..10)
            .map(|r| {
                DnaSeq::from_codes(
                    (0..2_000 + 10 * r).map(|p| if r < 5 { 0 } else { (p % 2) as u8 }).collect(),
                )
            })
            .collect();
        let (edges, work) = sweep(&reads, None, &cfg(), BAND_SLACK);
        assert_eq!(edges.len(), 20, "every like pair overlaps perfectly");
        assert_eq!(work.candidates, 20);
        assert!(work.hits <= 10 * 10 * 2, "{work:?}");
    }

    #[test]
    fn edge_order_is_a_function_of_the_input() {
        // A 60-base reverse-palindromic read (x · rc(x)) is the prefix of
        // the other read on one strand and its suffix on the other, at
        // the same score: two edges between one pair.
        let x = random_seq(13, 30);
        let palindrome = concat(&[&x, &x.reverse_complement()]);
        assert_eq!(palindrome, palindrome.reverse_complement());
        let reads = [palindrome.clone(), concat(&[&palindrome, &random_seq(14, 40)]), random_seq(15, 100)];
        let first = find_overlaps(&reads, None, &cfg());
        let both: Vec<_> = first.iter().map(|e| (e.i, e.j, e.rc, e.result.score)).collect();
        assert_eq!(both, [(0, 1, false, 60), (0, 1, true, 60)]);
        for _ in 0..20 {
            assert_eq!(find_overlaps(&reads, None, &cfg()), first);
        }
    }
}

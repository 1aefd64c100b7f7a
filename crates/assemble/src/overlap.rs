//! Pairwise overlap detection within one cluster: seed → group → verify.
//!
//! - **Seed.** Every [`SEED_WORD`]-mer of every read in both orientations
//!   goes into one table, once, keyed `word << 32 | global position`
//!   (the oriented reads laid end to end), and the table is radix-ordered
//!   on the word bits (`sort_words`: keys go in by ascending position, so
//!   the stable order is the order of the whole keys). A word's *group*
//!   is its run of that table; the first occurrence of the word in each
//!   oriented read gets the group's id, and the group keeps only its
//!   forward first occurrences, by read.
//!   Read `j` then walks its forward and reverse-complement positions in
//!   order, and at each first occurrence reads off the lower-numbered
//!   reads `i` whose forward first occurrence shares the word: a *hit*
//!   `(i, orientation, diagonal)`, the diagonal `pos_i − pos_j` being in
//!   the frame "`i` forward, `j` oriented" (`pos_j` in rc(`j`)
//!   coordinates on the reverse strand). Consecutive hits of one `(i,
//!   orientation)` on one diagonal are kept once, so the per-`j` sort
//!   sees each candidate's distinct diagonals, a handful, not one copy
//!   per shared word. Two reads are a candidate in an orientation
//!   exactly when they share a word in it, and a candidate has at most
//!   as many hits as the shorter read has distinct words, so
//!   low-complexity clusters stay linear in hits per pair. The table
//!   costs 12 bytes per oriented position: the 8-byte key, reused for
//!   the groups, and a 4-byte group id; the sort borrows another 8 bytes
//!   per position while it runs.
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
//! over ≥ 40 columns has an exact 12-mer ([`SEED_WORD`]) on its path, so
//! every acceptable overlap has a seed, and its run's band contains that
//! diagonal. When the full-matrix optimum lies inside a run's band, the
//! banded kernel returns it field for field — same end cell (both scan
//! the last row, then column `n`, first maximum wins), same traceback
//! (every cell on the optimal path holds its full-matrix value, so each
//! direction test resolves the same way). What the band cannot see is an
//! equally good path on diagonals that carry no seed: in low-complexity
//! sequence (poly-A against poly-A) a full-matrix alignment may report
//! another of the equal-scoring placements. The unit tests hold
//! `find_overlaps` to the full-matrix reference, edge for edge and bit
//! for bit, on simulated and hand-built clusters, and every candidate's
//! seed diagonals to a hash-map reference of first occurrences.

use crate::AssemblyConfig;
use pgasm_align::{overlap_align_simd, AlignScratch, OverlapResult, Scoring};
use pgasm_seq::{sort_words, DnaSeq, KmerIter, QualityTrack};

/// Length of the words that seed overlap candidates: the exact match
/// every acceptable overlap carries (see "why the band loses nothing").
/// A word is packed above a 32-bit position, so `2 · SEED_WORD ≤ 32`.
pub const SEED_WORD: usize = 12;
const _: () = assert!(2 * SEED_WORD <= 32);

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
/// shared 12-mers (either orientation), then verified by banded
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
    /// Shared first-occurrence word pairs read off the seed table.
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

/// A word of read `j` shared with a lower-numbered read:
/// `(i, reverse-complemented j, diagonal pos_i − pos_j)`.
type Hit = (u32, bool, i64);

/// A position that is not the first occurrence of a word in its oriented
/// read (or starts no word): it seeds nothing.
const NO_GROUP: u32 = u32::MAX;
/// Flags the last forward first occurrence of a group.
const GROUP_END: u64 = 1 << 63;
/// A group with no forward first occurrence: one entry whose read no `j`
/// is above.
const EMPTY_GROUP: u64 = GROUP_END | (u32::MAX as u64 >> 1) << 32;

/// The seed table of one cluster (see the module header), with the
/// scratch of its walk.
struct SeedTable {
    /// Where oriented read `s = 2 · read + rc` starts among the global
    /// positions; `starts[s + 1]` is where it ends.
    starts: Vec<usize>,
    /// Per global position: the id of the word's group if the position is
    /// the word's first occurrence in its oriented read, else
    /// [`NO_GROUP`].
    group: Vec<u32>,
    /// From each group id on: the group's forward first occurrences,
    /// `read << 32 | position`, ascending by read, the last flagged
    /// [`GROUP_END`].
    firsts: Vec<u64>,
    /// Per read `i`: the oriented read of `j` and the diagonal of the
    /// last hit kept for it.
    last: Vec<(u32, i64)>,
    /// Read `j`'s hits, sorted and distinct.
    hits: Vec<Hit>,
}

impl SeedTable {
    fn new(reads: &[DnaSeq], rc_reads: &[DnaSeq]) -> SeedTable {
        let oriented = |s: usize| [reads, rc_reads][s % 2][s / 2].codes();
        let mut starts = vec![0];
        for s in 0..2 * reads.len() {
            starts.push(starts[s] + oriented(s).len());
        }
        let total = starts[2 * reads.len()];
        assert!(
            total < NO_GROUP as usize && 2 * reads.len() < NO_GROUP as usize,
            "cluster too large for the seed table: total oriented positions (2 × bases) must be < 2^32"
        );
        // One key per word; until the groups are known, `group` holds the
        // oriented read of each keyed position.
        let mut group = vec![NO_GROUP; total];
        let mut table = Vec::with_capacity(total);
        for s in 0..2 * reads.len() {
            for (pos, word) in KmerIter::new(oriented(s), SEED_WORD) {
                group[starts[s] + pos] = s as u32;
                table.push(word << 32 | (starts[s] + pos) as u64);
            }
        }
        // Keys are pushed by ascending position, so the stable radix
        // order on the word alone is the order of the whole keys.
        sort_words(&mut table, 32..32 + 2 * SEED_WORD as u32);
        // A group ascends by global position, so an oriented read's first
        // occurrence leads its entries. The forward ones are written back
        // over the group's own keys, which are read before they are
        // overwritten.
        let mut kept = 0;
        let mut at = 0;
        while at < table.len() {
            let (word, id) = (table[at] >> 32, kept);
            let mut previous = NO_GROUP;
            while at < table.len() && table[at] >> 32 == word {
                let g = table[at] as u32 as usize;
                let s = group[g];
                if s == previous {
                    group[g] = NO_GROUP;
                } else {
                    previous = s;
                    group[g] = id as u32;
                    if s % 2 == 0 {
                        table[kept] = (s as u64 / 2) << 32 | (g - starts[s as usize]) as u64;
                        kept += 1;
                    }
                }
                at += 1;
            }
            if kept == id {
                table[kept] = EMPTY_GROUP;
                kept += 1;
            } else {
                table[kept - 1] |= GROUP_END;
            }
        }
        table.truncate(kept);
        SeedTable { starts, group, firsts: table, last: vec![(u32::MAX, 0); reads.len()], hits: Vec::new() }
    }

    /// Calls `visit(i, j, rc, hits)` for every candidate, by `j` then
    /// `(i, rc)`, with its hits sorted and distinct; returns the shared
    /// first-occurrence word pairs behind them.
    fn for_each_candidate(&mut self, mut visit: impl FnMut(usize, usize, bool, &[Hit])) -> u64 {
        let mut pairs = 0;
        for j in 1..self.last.len() {
            self.hits.clear();
            for s in [2 * j, 2 * j + 1] {
                let rc = s % 2 == 1;
                for (pos_j, &g) in self.group[self.starts[s]..self.starts[s + 1]].iter().enumerate() {
                    if g == NO_GROUP {
                        continue;
                    }
                    for &e in &self.firsts[g as usize..] {
                        let i = (e >> 32) as u32 & !(1 << 31);
                        if i as usize >= j {
                            break;
                        }
                        pairs += 1;
                        let diag = e as u32 as i64 - pos_j as i64;
                        let held = &mut self.last[i as usize];
                        if *held != (s as u32, diag) {
                            *held = (s as u32, diag);
                            self.hits.push((i, rc, diag));
                        }
                        if e & GROUP_END != 0 {
                            break;
                        }
                    }
                }
            }
            self.hits.sort_unstable();
            self.hits.dedup();
            for candidate in self.hits.chunk_by(|x, y| (x.0, x.1) == (y.0, y.1)) {
                visit(candidate[0].0 as usize, j, candidate[0].1, candidate);
            }
        }
        pairs
    }
}

/// One read in one orientation, as the kernel takes it.
#[derive(Clone, Copy)]
struct Oriented<'a> {
    codes: &'a [u8],
    quals: Option<&'a [u8]>,
}

/// Aligns one candidate's seed runs and keeps the best.
struct Verifier {
    slack: usize,
    scratch: AlignScratch,
    work: SweepWork,
}

impl Verifier {
    fn align(&mut self, a: Oriented, b: Oriented, seed_diag: i64, band: usize) -> OverlapResult {
        let quals = a.quals.zip(b.quals);
        let r = overlap_align_simd(
            a.codes,
            b.codes,
            seed_diag,
            band,
            &Scoring::DEFAULT,
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
    // Both orientations of every read and quality track, built once.
    let rc_reads: Vec<DnaSeq> = reads.iter().map(DnaSeq::reverse_complement).collect();
    let rc_quals: Option<Vec<Vec<u8>>> =
        quals.map(|qs| qs.iter().map(|q| q.values().iter().rev().copied().collect()).collect());
    let forward = |r: usize| Oriented { codes: reads[r].codes(), quals: quals.map(|qs| qs[r].values()) };
    let reverse =
        |r: usize| Oriented { codes: rc_reads[r].codes(), quals: rc_quals.as_ref().map(|qs| &qs[r][..]) };

    let criteria = if quals.is_some() { config.quality_criteria } else { config.criteria };
    // Sized for the longest read at the band of a seed run that sits on
    // one diagonal; a run with spread, or a doubled band, grows it.
    let max_len = reads.iter().map(DnaSeq::len).max().unwrap_or(0);
    let scratch = AlignScratch::for_sequences(max_len, slack);
    let mut verifier = Verifier { slack, scratch, work: SweepWork::default() };
    let mut edges = Vec::new();
    verifier.work.hits = SeedTable::new(reads, &rc_reads).for_each_candidate(|i, j, rc, hits| {
        verifier.work.candidates += 1;
        let result = verifier.verify(forward(i), if rc { reverse(j) } else { forward(j) }, hits);
        if criteria.accepts(result.identity, result.overlap_len) {
            edges.push(OverlapEdge { i, j, rc, result });
        }
    });
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
    use proptest::prelude::*;
    use std::collections::{BTreeMap, HashMap, HashSet};

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

    /// Every candidate `(i < j, rc)` with its sorted distinct diagonals,
    /// ascending by candidate.
    type Seeds = Vec<((usize, usize, bool), Vec<i64>)>;

    /// The seeds by definition, from hash maps of first occurrences: a
    /// word shared by `i` forward and `j` in orientation `rc` is the
    /// diagonal `first_i − first_j`, the reverse-complement side's first
    /// occurrence taken in rc(`j`) coordinates. Also returns the shared
    /// word pairs, duplicates included.
    fn reference_seeds(reads: &[DnaSeq]) -> (Seeds, u64) {
        let firsts = |s: &DnaSeq| {
            let mut first: HashMap<u64, i64> = HashMap::new();
            for (pos, word) in KmerIter::new(s.codes(), SEED_WORD) {
                first.entry(word).or_insert(pos as i64);
            }
            first
        };
        let forward: Vec<_> = reads.iter().map(firsts).collect();
        let mut seeds: BTreeMap<(usize, usize, bool), Vec<i64>> = BTreeMap::new();
        let mut pairs = 0;
        for (j, read) in reads.iter().enumerate() {
            for (rc, words) in [(false, forward[j].clone()), (true, firsts(&read.reverse_complement()))] {
                for (word, pos_j) in words {
                    for (i, first_i) in forward[..j].iter().enumerate() {
                        if let Some(pos_i) = first_i.get(&word) {
                            seeds.entry((i, j, rc)).or_default().push(pos_i - pos_j);
                            pairs += 1;
                        }
                    }
                }
            }
        }
        for diagonals in seeds.values_mut() {
            diagonals.sort_unstable();
            diagonals.dedup();
        }
        (seeds.into_iter().collect(), pairs)
    }

    /// What `sweep` hands its verifier: each candidate with its hit
    /// diagonals, and the pairs behind them.
    fn sweep_seeds(reads: &[DnaSeq]) -> (Seeds, u64) {
        let rc_reads: Vec<DnaSeq> = reads.iter().map(DnaSeq::reverse_complement).collect();
        let mut seeds = Vec::new();
        let pairs = SeedTable::new(reads, &rc_reads).for_each_candidate(|i, j, rc, hits| {
            seeds.push(((i, j, rc), hits.iter().map(|h| h.2).collect()));
        });
        seeds.sort_unstable();
        (seeds, pairs)
    }

    fn assert_seeds_match_reference(reads: &[DnaSeq], what: &str) -> Seeds {
        let want = reference_seeds(reads);
        assert_eq!(sweep_seeds(reads), want, "{what}");
        want.0
    }

    /// The oracle: every candidate, aligned by the full-matrix quality
    /// DP, in [`find_overlaps`]' output order.
    fn reference_overlaps(
        reads: &[DnaSeq],
        quals: Option<&[QualityTrack]>,
        config: &AssemblyConfig,
    ) -> Vec<OverlapEdge> {
        let criteria = if quals.is_some() { config.quality_criteria } else { config.criteria };
        let mut scratch = AlignScratch::new();
        let mut edges = Vec::new();
        for ((i, j, rc), _) in reference_seeds(reads).0 {
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
                overlap_align_quality_with(reads[i].codes(), b.codes(), q, &Scoring::DEFAULT, &mut scratch);
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

    /// `sweep` at `slack` against the oracle, with and without `quals`,
    /// and its seeds against the reference; returns the quality-free
    /// sweep's edges and work.
    fn assert_matches_reference_at(
        reads: &[DnaSeq],
        quals: &[QualityTrack],
        slack: usize,
        what: &str,
    ) -> (Vec<OverlapEdge>, SweepWork) {
        let config = cfg();
        let expected_candidates = assert_seeds_match_reference(reads, what).len() as u64;
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
        let (edges, work) = assert_matches_reference_at(&set.seqs, &set.quals, BAND_SLACK, "9x tiling");
        assert!(edges.len() >= 200, "a 9x tiling overlaps heavily: {} edges", edges.len());
        let full_matrix: u64 = reference_seeds(&set.seqs)
            .0
            .iter()
            .map(|&((i, j, _), _)| (set.seqs[i].len() * set.seqs[j].len()) as u64)
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
    fn seeds_are_first_occurrences_on_both_strands() {
        let g = random_seq(21, 400);
        let piece = |k: usize| g.slice(20 * k, 20 * k + 20);

        // A word twice in `i`, twice in `j` and twice in rc(`j`): one
        // seed per orientation, from the first copy on each side. (The
        // pieces are picked so that no two copies share a flanking base,
        // which would make the words across the junction shared too.)
        let (w, tail) = (g.slice(380, 392), g.slice(200, 225));
        let rc_w = w.reverse_complement();
        let i = concat(&[&piece(0), &w, &piece(1), &w, &piece(2)]);
        let j = concat(&[&piece(4), &w, &piece(5), &w, &piece(6), &rc_w, &piece(9), &rc_w, &tail]);
        let seeds = assert_seeds_match_reference(&[i, j], "repeated word");
        // rc(j) begins with rc(tail), 25 bases, then w.
        assert_eq!(seeds, [((0, 1, false), vec![0]), ((0, 1, true), vec![20 - 25])]);

        // A reverse-palindromic word is shared on both strands.
        let x = g.slice(200, 206);
        let p = concat(&[&x, &x.reverse_complement()]);
        let reads = [concat(&[&piece(0), &p, &piece(1)]), concat(&[&piece(2), &p, &piece(3), &p])];
        let seeds = assert_seeds_match_reference(&reads, "reverse-palindromic word");
        assert_eq!(seeds, [((0, 1, false), vec![0]), ((0, 1, true), vec![20])]);

        // Reads without a word, and one-word and two-word reads on both
        // strands.
        let mut masked = g.slice(0, 100);
        masked.mask_range(0, 100);
        let poly_a = |n| DnaSeq::from_codes(vec![0; n]);
        let ac = |n| DnaSeq::from_codes((0..n).map(|p| (p % 2) as u8).collect());
        let reads = [
            poly_a(50),
            g.slice(0, 11),
            masked,
            ac(40),
            poly_a(30),
            ac(41),
            poly_a(50).reverse_complement(),
            ac(57).reverse_complement(),
        ];
        let candidates: Vec<_> =
            assert_seeds_match_reference(&reads, "low complexity").into_iter().map(|(c, _)| c).collect();
        assert_eq!(
            candidates,
            [(0, 4, false), (0, 6, true), (3, 5, false), (3, 7, true), (4, 6, true), (5, 7, true)]
        );
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// Two-letter reads, near-periodic with one base in eight drawn
        /// freely: words recur densely within and across reads, on one
        /// strand (A/C) or on both (A/T).
        #[test]
        fn seeds_match_the_reference_on_two_letter_reads(
            (letters, period) in (0usize..2, 1usize..=16),
            motif in prop::collection::vec(any::<bool>(), 16),
            reads in prop::collection::vec(prop::collection::vec(0u8..16, 20..=200), 2..8),
        ) {
            let pair = [[0, 1], [0, 3]][letters];
            let reads: Vec<DnaSeq> = reads
                .iter()
                .map(|r| {
                    let bit = |p: usize, x: u8| if x < 2 { x as usize } else { motif[p % period] as usize };
                    DnaSeq::from_codes(r.iter().enumerate().map(|(p, &x)| pair[bit(p, x)]).collect())
                })
                .collect();
            assert_seeds_match_reference(&reads, "two-letter reads");
        }
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

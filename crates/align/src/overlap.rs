//! Semi-global suffix–prefix ("overlap") alignment.
//!
//! This is the alignment the clustering phase computes for every selected
//! promising pair (§4): leading and trailing gaps are free, so the optimal
//! alignment covers a suffix of one fragment and a prefix of the other
//! (or a containment). Identity over the aligned columns and the overlap
//! length feed the [`crate::scoring::AcceptCriteria`] decision.
//!
//! Three kernels are provided:
//!
//! - [`overlap_align_simd`] — the production kernel of both phases
//!   (clustering's promising pairs, assembly's overlap candidates): one
//!   lane-chunked banded pass (see [`crate::simd`]) that records a
//!   traceback direction per cell as it goes and walks it once, on a
//!   reusable [`AlignScratch`]. It aligns; the caller's
//!   [`crate::scoring::AcceptCriteria`] decide. See DESIGN.md §5.
//! - [`banded_overlap_align`] — single-pass scalar banded DP with its own
//!   score and direction matrices, no lanes. **Test oracle only** — the
//!   independent banded reference the production kernel is checked
//!   against.
//! - [`overlap_align_quality`] — full O(mn) DP with optional
//!   quality-weighted identity. **Test oracle only**: the unbanded
//!   reference for the banded kernels and for the assembler's
//!   seed-anchored overlap stage.
//!
//! Gap costs are linear (`gap_extend` per column). At the 1–2% error
//! rates of Sanger-style fragments the accept/reject decision is
//! insensitive to an affine-gap refinement, so none is implemented.

use crate::scoring::Scoring;
use crate::simd::{I32x8, LANES};

const NEG: i32 = i32::MIN / 4;

/// Rolling-row length that lets the lane-chunked passes load a full lane
/// starting at any cell slot (including the staggered `prev[slot + 1]`
/// up-neighbour loads) without bounds branches: the row width plus one is
/// rounded up to a lane multiple, plus one extra lane of NEG padding past
/// the last slot.
#[inline]
fn lane_padded(w: usize) -> usize {
    (w + 1).div_ceil(LANES) * LANES + LANES
}

/// Geometric relationship of the two fragments implied by an overlap
/// alignment.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OverlapKind {
    /// A suffix of `a` aligns to a prefix of `b` (`a` extends left of `b`).
    SuffixPrefix,
    /// A suffix of `b` aligns to a prefix of `a` (`b` extends left of `a`).
    PrefixSuffix,
    /// `a` is contained within `b`.
    AContained,
    /// `b` is contained within `a`.
    BContained,
}

/// Result of a suffix–prefix alignment.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OverlapResult {
    /// Alignment score.
    pub score: i32,
    /// Identical columns / aligned columns (0.0 when nothing aligned).
    pub identity: f64,
    /// Number of aligned columns.
    pub overlap_len: usize,
    /// Half-open range of `a` covered.
    pub a_range: (usize, usize),
    /// Half-open range of `b` covered.
    pub b_range: (usize, usize),
    /// Geometry of the overlap.
    pub kind: OverlapKind,
    /// Lowest and highest diagonal (`i − j`) the traceback path visits,
    /// end cell included; `(0, 0)` when no traceback ran. A banded caller
    /// compares this with its band's outermost diagonals to tell whether
    /// the band constrained the path.
    pub path_diags: (i64, i64),
    /// DP cells evaluated (work accounting for the parallel runtime): a
    /// cell is counted once, when its recurrence is evaluated; boundary
    /// cells (free leading gaps) and traceback walking are never counted.
    pub cells: u64,
}

impl OverlapResult {
    fn empty(cells: u64) -> OverlapResult {
        OverlapResult {
            score: 0,
            identity: 0.0,
            overlap_len: 0,
            a_range: (0, 0),
            b_range: (0, 0),
            kind: OverlapKind::SuffixPrefix,
            path_diags: (0, 0),
            cells,
        }
    }

    fn classify(a_len: usize, b_len: usize, a_range: (usize, usize), b_range: (usize, usize)) -> OverlapKind {
        if a_range.0 == 0 && a_range.1 == a_len {
            OverlapKind::AContained
        } else if b_range.0 == 0 && b_range.1 == b_len {
            OverlapKind::BContained
        } else if b_range.0 == 0 {
            OverlapKind::SuffixPrefix
        } else {
            OverlapKind::PrefixSuffix
        }
    }
}

/// Reusable scratch buffers for the alignment kernels.
///
/// Lifecycle: create one per worker (or engine), pre-size it with
/// [`AlignScratch::for_sequences`], and pass it to every alignment call.
/// Buffers only ever grow, so after the first adequately-sized pair the
/// hot loop performs no heap allocation; [`AlignScratch::grow_events`]
/// and [`AlignScratch::high_water_bytes`] let callers assert exactly
/// that.
#[derive(Debug, Default)]
pub struct AlignScratch {
    /// Rolling score rows, lane-padded so the chunked passes can load
    /// full lanes from any cell slot.
    prev: Vec<i32>,
    curr: Vec<i32>,
    /// Traceback directions (0 diagonal, 1 up, 2 left), one byte per
    /// cell: `(m + 1) × w` band-shaped for [`overlap_align_simd`],
    /// `(m + 1) × (n + 1)` for the full-matrix oracle. Never cleared: a
    /// traceback only visits cells whose byte the same call wrote.
    dirs: Vec<u8>,
    grows: u64,
}

impl AlignScratch {
    pub fn new() -> AlignScratch {
        AlignScratch::default()
    }

    /// Pre-size for banded alignments of sequences up to `max_len` bases
    /// at band half-width `band`, so the hot loop never reallocates.
    /// Row buffers are sized to the *lane-padded* width so the SIMD
    /// kernel's chunked loads fit without growth.
    pub fn for_sequences(max_len: usize, band: usize) -> AlignScratch {
        let mut s = AlignScratch::new();
        let width = (2 * band + 1).min(2 * max_len + 1);
        s.ensure_rows(lane_padded(width + 2));
        s.ensure_dirs((max_len + 1) * (width + 2));
        s.grows = 0;
        s
    }

    fn ensure_rows(&mut self, w: usize) {
        if self.prev.len() < w {
            self.grows += 1;
            self.prev.resize(w, NEG);
            self.curr.resize(w, NEG);
        }
    }

    fn ensure_dirs(&mut self, len: usize) {
        if self.dirs.len() < len {
            self.grows += 1;
            self.dirs.resize(len, 3);
        }
    }

    /// High-water scratch footprint in bytes. Buffers never shrink, so
    /// this is monotone; a flat reading across batches means the hot
    /// loop allocated nothing.
    pub fn high_water_bytes(&self) -> u64 {
        (4 * (self.prev.capacity() + self.curr.capacity()) + self.dirs.capacity()) as u64
    }

    /// Number of times any buffer grew since construction / pre-sizing.
    pub fn grow_events(&self) -> u64 {
        self.grows
    }
}

/// Band geometry shared by the banded kernels: diagonals
/// `seed_diag ± band`, *clamped* to `[-n, m]` — diagonals outside that
/// range contain no valid DP cell, so clamping shrinks the row width for
/// short pairs without changing the in-band cell set. `w` includes one
/// NEG padding slot on each side so the up/left neighbours of edge cells
/// read NEG instead of branching.
struct Band {
    d_lo: i64,
    d_hi: i64,
    w: usize,
}

impl Band {
    fn new(m: usize, n: usize, seed_diag: i64, band: usize) -> Option<Band> {
        let band = band as i64;
        let d_lo = (seed_diag - band).max(-(n as i64));
        let d_hi = (seed_diag + band).min(m as i64);
        if d_lo > d_hi {
            return None;
        }
        Some(Band { d_lo, d_hi, w: (d_hi - d_lo + 1) as usize + 2 })
    }

    /// Inclusive in-band column range of row `i`, clamped to `[0, n]`.
    /// May be empty (`lo > hi`) when the band has not yet entered — or
    /// has already left — the valid rectangle.
    #[inline]
    fn row_range(&self, i: usize, n: usize) -> (i64, i64) {
        ((i as i64 - self.d_hi).max(0), (i as i64 - self.d_lo).min(n as i64))
    }

    /// Window slot of column `j` in row `i`; slots 0 and `w - 1` are the
    /// NEG padding. Key identity: the slot of `(i-1, j-1)` equals the
    /// slot of `(i, j)`, so `diag = prev[slot]`, `up = prev[slot + 1]`,
    /// `left = curr[slot - 1]`.
    #[inline]
    fn slot(&self, i: usize, j: i64) -> usize {
        (j - (i as i64 - self.d_hi) + 1) as usize
    }
}

/// What [`walk_traceback`] recovers from a traceback matrix.
struct Walk {
    a_range: (usize, usize),
    b_range: (usize, usize),
    cols: usize,
    identity: f64,
    path_diags: (i64, i64),
}

/// Walk a traceback matrix from `end` back to the alignment start; with
/// `quals` the identity is quality-weighted exactly as in
/// [`overlap_align_quality`].
fn walk_traceback(
    a: &[u8],
    b: &[u8],
    quals: Option<(&[u8], &[u8])>,
    tb: &[u8],
    idx: impl Fn(usize, usize) -> usize,
    end: (usize, usize),
) -> Walk {
    let (mut i, mut j) = end;
    let mut cols = 0usize;
    let end_diag = i as i64 - j as i64;
    let (mut d_min, mut d_max) = (end_diag, end_diag);
    // Quality-weighted tallies; without quality every weight is 1.0 and
    // the ratio reduces to plain matches / columns.
    let (mut w_match, mut w_total) = (0.0f64, 0.0f64);
    let weight = |qi: Option<usize>, qj: Option<usize>| -> f64 {
        match quals {
            None => 1.0,
            Some((qa, qb)) => {
                let wa = qi.map(|x| qa[x] as f64);
                let wb = qj.map(|x| qb[x] as f64);
                match (wa, wb) {
                    (Some(x), Some(y)) => x.min(y).max(1.0),
                    (Some(x), None) | (None, Some(x)) => x.max(1.0),
                    (None, None) => 1.0,
                }
            }
        }
    };
    while i > 0 && j > 0 {
        match tb[idx(i, j)] {
            0 => {
                cols += 1;
                let wgt = weight(Some(i - 1), Some(j - 1));
                w_total += wgt;
                if a[i - 1] == b[j - 1] && pgasm_seq::is_base_code(a[i - 1]) {
                    w_match += wgt;
                }
                i -= 1;
                j -= 1;
            }
            1 => {
                cols += 1;
                w_total += weight(Some(i - 1), None);
                i -= 1;
                d_min = d_min.min(i as i64 - j as i64);
            }
            2 => {
                cols += 1;
                w_total += weight(None, Some(j - 1));
                j -= 1;
                d_max = d_max.max(i as i64 - j as i64);
            }
            _ => break,
        }
    }
    Walk {
        a_range: (i, end.0),
        b_range: (j, end.1),
        cols,
        identity: if w_total == 0.0 { 0.0 } else { w_match / w_total },
        path_diags: (d_min, d_max),
    }
}

/// Full O(mn) suffix–prefix alignment of `a` vs `b`.
pub fn overlap_align(a: &[u8], b: &[u8], s: &Scoring) -> OverlapResult {
    overlap_align_quality(a, b, None, s)
}

/// As [`overlap_align`], with optional *quality-weighted identity*:
/// every aligned column contributes the minimum phred quality of its
/// bases (an indel contributes the quality of the consumed base), so
/// disagreements at low-quality positions — sequencing errors — barely
/// count, while disagreements at high-quality positions — real
/// divergence, e.g. between repeat copies — count fully. This is the
/// quality-aware overlap acceptance that lets CAP3-class assemblers
/// separate noisy true overlaps (weighted identity ≈ 0.99) from clean
/// repeat-induced overlaps (≈ copy divergence).
pub fn overlap_align_quality(
    a: &[u8],
    b: &[u8],
    quals: Option<(&[u8], &[u8])>,
    s: &Scoring,
) -> OverlapResult {
    overlap_align_quality_with(a, b, quals, s, &mut AlignScratch::new())
}

/// As [`overlap_align_quality`], but running on a caller-provided
/// [`AlignScratch`] so a test sweeping many pairs through the oracle pays
/// for the O(mn) matrices once instead of per pair.
pub fn overlap_align_quality_with(
    a: &[u8],
    b: &[u8],
    quals: Option<(&[u8], &[u8])>,
    s: &Scoring,
    scratch: &mut AlignScratch,
) -> OverlapResult {
    let (m, n) = (a.len(), b.len());
    if m == 0 || n == 0 {
        return OverlapResult::empty(0);
    }
    if let Some((qa, qb)) = quals {
        assert_eq!(qa.len(), m, "quality track must match sequence length");
        assert_eq!(qb.len(), n, "quality track must match sequence length");
    }
    let w = n + 1;
    scratch.ensure_rows(w);
    scratch.ensure_dirs((m + 1) * w);
    let mut prev: &mut [i32] = &mut scratch.prev[..w];
    let mut curr: &mut [i32] = &mut scratch.curr[..w];
    let tb = &mut scratch.dirs[..(m + 1) * w];
    // Row 0 and column 0 are the free leading gaps. Boundary directions
    // are never read (the walk stops at i == 0 or j == 0) and every
    // interior one is written below before the walk reads it.
    prev.fill(0);
    // Running best over column n: the first row attaining the maximum,
    // as an ascending strict-`>` scan of the column finds it.
    let (mut coln_best, mut coln_i) = (0, 0usize);
    for i in 1..=m {
        curr[0] = 0;
        for j in 1..=n {
            let diag = prev[j - 1] + s.subst(a[i - 1], b[j - 1]);
            let up = prev[j] + s.gap_extend;
            let left = curr[j - 1] + s.gap_extend;
            let (best, dir) = if diag >= up && diag >= left {
                (diag, 0u8)
            } else if up >= left {
                (up, 1)
            } else {
                (left, 2)
            };
            curr[j] = best;
            tb[i * w + j] = dir;
        }
        if curr[n] > coln_best {
            (coln_best, coln_i) = (curr[n], i);
        }
        std::mem::swap(&mut prev, &mut curr);
    }
    // Best end cell (free trailing gaps): the last row by ascending
    // column, then column n by ascending row; the first maximum wins.
    let mut best_score = NEG;
    let mut end = (0usize, 0usize);
    for (j, &v) in prev.iter().enumerate() {
        if v > best_score {
            best_score = v;
            end = (m, j);
        }
    }
    if coln_best > best_score {
        best_score = coln_best;
        end = (coln_i, n);
    }
    let Walk { a_range, b_range, cols, identity, path_diags } =
        walk_traceback(a, b, quals, tb, |i, j| i * w + j, end);
    OverlapResult {
        score: best_score,
        identity,
        overlap_len: cols,
        a_range,
        b_range,
        kind: OverlapResult::classify(m, n, a_range, b_range),
        path_diags,
        cells: (m * n) as u64,
    }
}

/// Banded suffix–prefix alignment restricted to diagonals
/// `seed_diag ± band`, where `seed_diag = a_pos − b_pos` of the maximal
/// match that generated the pair. Runs in O((m + n) · band) time, with
/// the window clamped to the valid diagonal range `[-n, m]` so short
/// pairs with `band ≫ min(m, n)` stop paying the full `2·band + 1` row
/// width.
///
/// With a sufficiently wide band this equals [`overlap_align`]. It
/// allocates its own score and direction matrices per call and always
/// walks the traceback: the independent banded oracle that
/// [`overlap_align_simd`] is checked against, on no production path.
pub fn banded_overlap_align(a: &[u8], b: &[u8], seed_diag: i64, band: usize, s: &Scoring) -> OverlapResult {
    let (m, n) = (a.len(), b.len());
    if m == 0 || n == 0 {
        return OverlapResult::empty(0);
    }
    let Some(bw) = Band::new(m, n, seed_diag, band) else {
        return OverlapResult::empty(0);
    };
    let w = bw.w;
    let mut dp = vec![NEG; (m + 1) * w];
    let mut tb = vec![3u8; (m + 1) * w];
    let mut cells = 0u64;
    // Row 0: free leading gap in a — dp(0, j) = 0 for in-band j.
    {
        let (lo, hi) = bw.row_range(0, n);
        for j in lo..=hi {
            dp[bw.slot(0, j)] = 0;
        }
    }
    for i in 1..=m {
        let (lo, hi) = bw.row_range(i, n);
        let base = i * w;
        let pbase = (i - 1) * w;
        for j in lo..=hi {
            let sl = bw.slot(i, j);
            if j == 0 {
                // Free leading gap in b.
                dp[base + sl] = 0;
                continue;
            }
            cells += 1;
            let ju = j as usize;
            let diag = dp[pbase + sl] + s.subst(a[i - 1], b[ju - 1]);
            let up = dp[pbase + sl + 1] + s.gap_extend;
            let left = dp[base + sl - 1] + s.gap_extend;
            let (best, dir) = if diag >= up && diag >= left {
                (diag, 0u8)
            } else if up >= left {
                (up, 1)
            } else {
                (left, 2)
            };
            dp[base + sl] = best;
            tb[base + sl] = dir;
        }
    }
    // Scan for the best end on the last row and on column n.
    let mut best_score = NEG;
    let mut end: Option<(usize, usize)> = None;
    {
        let (lo, hi) = bw.row_range(m, n);
        for j in lo..=hi {
            if dp[m * w + bw.slot(m, j)] > best_score {
                best_score = dp[m * w + bw.slot(m, j)];
                end = Some((m, j as usize));
            }
        }
    }
    for i in 0..=m {
        let (lo, hi) = bw.row_range(i, n);
        if (lo..=hi).contains(&(n as i64)) && dp[i * w + bw.slot(i, n as i64)] > best_score {
            best_score = dp[i * w + bw.slot(i, n as i64)];
            end = Some((i, n));
        }
    }
    let Some(end) = end else {
        return OverlapResult::empty(cells);
    };
    if best_score <= NEG / 2 {
        return OverlapResult::empty(cells);
    }
    let Walk { a_range, b_range, cols, identity, path_diags } =
        walk_traceback(a, b, None, &tb, |i, j| i * w + bw.slot(i, j as i64), end);
    OverlapResult {
        score: best_score,
        identity,
        overlap_len: cols,
        a_range,
        b_range,
        kind: OverlapResult::classify(m, n, a_range, b_range),
        path_diags,
        cells,
    }
}

/// One-pass lane-chunked banded suffix–prefix alignment — the production
/// kernel.
///
/// **Band.** Diagonals `seed_diag ± band` clamped to `[-n, m]` ([`Band`]);
/// row `i` lives in slot coordinates where `(i − 1, j − 1)` and `(i, j)`
/// share a slot, over two rolling NEG-padded rows from `scratch`, so
/// `diag = prev[slot]`, `up = prev[slot + 1]`, `left = curr[slot − 1]` and
/// chunk loads need no bounds branches.
///
/// **Lanes.** Each row is evaluated in [`LANES`]-wide chunks, in one
/// loop: a vertical step computes `max(diag + subst, up + gap)` per lane
/// (the two `prev`-row inputs have no intra-row dependency), then the
/// `left + gap` dependency is folded in as an exact max-plus prefix scan
/// carried from chunk to chunk — by induction the single-pass scalar
/// recurrence, cell for cell.
///
/// **Direction window.** While a chunk is still in registers each cell's
/// traceback direction goes into a band-shaped `(m + 1) × w` byte window
/// in `scratch`: `2` where the scan raised the cell (left strictly won),
/// else `diag ≥ up ? 0 : 1`. Since the value is the maximum of the
/// three, that is the scalar kernels' `diag ≥ up ≥ left` tie order. The
/// end cell is the best of the last row (ascending column), then of
/// column `n` (ascending row), first maximum winning —
/// [`banded_overlap_align`]'s selection — and the traceback is walked on
/// the window from there: no cell is evaluated twice. With `quals` the
/// walk weights identity as [`overlap_align_quality`] does.
///
/// **Why one pass is exact.** The result equals [`banded_overlap_align`]
/// on every field, `cells` included (every in-band interior cell is
/// evaluated exactly once), because:
/// 1. a cell's value and its three inputs depend only on cells with
///    smaller `(i, j)`, so nothing computed after the end cell's row or
///    right of its column can change a byte the walk reads;
/// 2. the walk starts at the end cell and steps only to the cell that
///    attained a real (non-NEG) maximum, which this call computed, so
///    bytes an earlier, larger pair left in the window are never read and
///    the window is never cleared.
///
/// The default rustc target baseline on x86-64 is SSE2, which has no
/// packed 32-bit max — the autovectorised lane loops end up mostly
/// scalar. To get real vector code without per-build `target-cpu`
/// flags, the body is instantiated twice: once at the build baseline
/// and once under `#[target_feature(enable = "avx2")]`, selected by
/// one runtime CPUID check per call. Both instantiations execute the
/// same integer arithmetic, so results are bit-identical across
/// dispatch decisions. The `force-scalar` cargo feature routes every
/// call to [`overlap_align_scalar`] instead.
pub fn overlap_align_simd(
    a: &[u8],
    b: &[u8],
    seed_diag: i64,
    band: usize,
    s: &Scoring,
    quals: Option<(&[u8], &[u8])>,
    scratch: &mut AlignScratch,
) -> OverlapResult {
    if cfg!(feature = "force-scalar") {
        return overlap_align_scalar(a, b, seed_diag, band, s, quals, scratch);
    }
    #[cfg(target_arch = "x86_64")]
    {
        if std::arch::is_x86_feature_detected!("avx2") {
            // SAFETY: the avx2 feature was just detected on this CPU.
            return unsafe { simd_body_avx2(a, b, seed_diag, band, s, quals, scratch) };
        }
    }
    simd_body::<false>(a, b, seed_diag, band, s, quals, scratch)
}

/// [`overlap_align_simd`] with every row run through the scalar tail loop
/// instead of the lane chunks — bit-identical by construction, and held
/// to it by the lanes ≡ scalar property test, its only caller besides the
/// `force-scalar` feature.
#[doc(hidden)]
pub fn overlap_align_scalar(
    a: &[u8],
    b: &[u8],
    seed_diag: i64,
    band: usize,
    s: &Scoring,
    quals: Option<(&[u8], &[u8])>,
    scratch: &mut AlignScratch,
) -> OverlapResult {
    simd_body::<true>(a, b, seed_diag, band, s, quals, scratch)
}

/// [`simd_body`] compiled with AVX2 codegen enabled (the
/// `#[inline(always)]` body inherits the caller's target features).
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn simd_body_avx2(
    a: &[u8],
    b: &[u8],
    seed_diag: i64,
    band: usize,
    s: &Scoring,
    quals: Option<(&[u8], &[u8])>,
    scratch: &mut AlignScratch,
) -> OverlapResult {
    simd_body::<false>(a, b, seed_diag, band, s, quals, scratch)
}

#[inline(always)]
fn simd_body<const SCALAR: bool>(
    a: &[u8],
    b: &[u8],
    seed_diag: i64,
    band: usize,
    s: &Scoring,
    quals: Option<(&[u8], &[u8])>,
    scratch: &mut AlignScratch,
) -> OverlapResult {
    let (m, n) = (a.len(), b.len());
    if m == 0 || n == 0 {
        return OverlapResult::empty(0);
    }
    if let Some((qa, qb)) = quals {
        assert_eq!(qa.len(), m, "quality track must match sequence length");
        assert_eq!(qb.len(), n, "quality track must match sequence length");
    }
    let Some(bw) = Band::new(m, n, seed_diag, band) else {
        return OverlapResult::empty(0);
    };
    let w = bw.w;
    let padded = lane_padded(w);
    scratch.ensure_rows(padded);
    scratch.ensure_dirs((m + 1) * w);
    let dirs: &mut [u8] = &mut scratch.dirs[..(m + 1) * w];
    let mut prev: &mut [i32] = &mut scratch.prev[..padded];
    let mut curr: &mut [i32] = &mut scratch.curr[..padded];
    let mut cells = 0u64;
    // Running best over column n: the first row attaining the maximum.
    let (mut coln_best, mut coln_i) = (NEG, 0usize);
    let (lo0, hi0) = bw.row_range(0, n);
    prev.fill(NEG);
    for j in lo0..=hi0 {
        prev[bw.slot(0, j)] = 0;
    }
    if (lo0..=hi0).contains(&(n as i64)) {
        coln_best = 0;
    }
    for i in 1..=m {
        let (lo, hi) = bw.row_range(i, n);
        curr.fill(NEG);
        if lo == 0 && hi >= 0 {
            // Free leading gap in b.
            curr[bw.slot(i, 0)] = 0;
        }
        let jstart = lo.max(1);
        if jstart <= hi {
            let sl0 = bw.slot(i, jstart);
            let len = (hi - jstart + 1) as usize;
            cells += len as u64;
            let drow = &mut dirs[i * w + sl0..i * w + sl0 + len];
            let ai = a[i - 1];
            let ai_is_base = pgasm_seq::is_base_code(ai);
            let boff = (jstart - 1) as usize;
            let g = s.gap_extend;
            let mut leftv = curr[sl0 - 1];
            let mut k = 0usize;
            if !SCALAR {
                let mvec = I32x8::splat(s.match_score);
                let xvec = I32x8::splat(s.mismatch);
                let kvec = I32x8::splat(ai as i32);
                let gv1 = I32x8::splat(g);
                let gv2 = I32x8::splat(g.wrapping_mul(2));
                let gv4 = I32x8::splat(g.wrapping_mul(4));
                let mut ramp = [0i32; LANES];
                for (l, r) in ramp.iter_mut().enumerate() {
                    *r = g.wrapping_mul(l as i32 + 1);
                }
                let ramp = I32x8(ramp);
                while k + LANES <= len {
                    // Vertical step: diag/up have no intra-row
                    // dependency.
                    let p0 = I32x8::load(&prev[sl0 + k..]);
                    let p1 = I32x8::load(&prev[sl0 + k + 1..]);
                    let sub = if ai_is_base {
                        I32x8::load_u8(&b[boff + k..]).eq_select(kvec, mvec, xvec)
                    } else {
                        xvec
                    };
                    let (d, u) = (p0.add(sub), p1.add(gv1));
                    let c = d.max(u);
                    // Left-gap dependency: the sequential fold
                    // out[k] = max(c[k], out[k−1] + g) expands to
                    // out[k] = max over t ≤ k of c[t] + (k−t)·g — a
                    // log-step max-plus prefix scan within the chunk
                    // (shift by 1/2/4, each adding the matching
                    // multiple of g) plus one carried splat from the
                    // previous chunk: the same integer sums in a
                    // different association, bit-identical to the
                    // scalar recurrence below.
                    let mut v = c.max(c.shift_up::<1>(NEG).add(gv1));
                    v = v.max(v.shift_up::<2>(NEG).add(gv2));
                    v = v.max(v.shift_up::<4>(NEG).add(gv4));
                    v = v.max(I32x8::splat(leftv).add(ramp));
                    v.store(&mut curr[sl0 + k..]);
                    // v is the max of the three: where the scan
                    // raised it, left strictly won; else diag ≥ up.
                    I32x8::store_directions(d, u, c, v, &mut drow[k..]);
                    leftv = v.0[LANES - 1];
                    k += LANES;
                }
            }
            // Scalar tail — and the whole row when `SCALAR`.
            while k < len {
                let sub = if ai_is_base && b[boff + k] == ai { s.match_score } else { s.mismatch };
                let diag = prev[sl0 + k] + sub;
                let up = prev[sl0 + k + 1] + g;
                let left = leftv + g;
                (leftv, drow[k]) = if diag >= up && diag >= left {
                    (diag, 0)
                } else if up >= left {
                    (up, 1)
                } else {
                    (left, 2)
                };
                curr[sl0 + k] = leftv;
                k += 1;
            }
            if hi == n as i64 && leftv > coln_best {
                (coln_best, coln_i) = (leftv, i);
            }
        }
        std::mem::swap(&mut prev, &mut curr);
    }
    // Best end cell (free trailing gaps): the last row by ascending
    // column, then column n by ascending row; the first maximum wins.
    let (mut best_score, mut end) = (NEG, (m, 0usize));
    let (lo, hi) = bw.row_range(m, n);
    for j in lo..=hi {
        let v = prev[bw.slot(m, j)];
        if v > best_score {
            (best_score, end) = (v, (m, j as usize));
        }
    }
    if coln_best > best_score {
        (best_score, end) = (coln_best, (coln_i, n));
    }
    // No in-band end cell, or none a real path reaches.
    if best_score <= NEG / 2 {
        return OverlapResult::empty(cells);
    }
    let Walk { a_range, b_range, cols, identity, path_diags } =
        walk_traceback(a, b, quals, dirs, |i, j| i * w + bw.slot(i, j as i64), end);
    OverlapResult {
        score: best_score,
        identity,
        overlap_len: cols,
        a_range,
        b_range,
        kind: OverlapResult::classify(m, n, a_range, b_range),
        path_diags,
        cells,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scoring::AcceptCriteria;
    use pgasm_seq::DnaSeq;

    fn s() -> Scoring {
        Scoring::DEFAULT
    }

    #[test]
    fn perfect_dovetail() {
        // a: XXXXCCCC, b: CCCCYYYY — suffix of a == prefix of b.
        let a = DnaSeq::from("ATGAGGTACCCTTGCA");
        let b = DnaSeq::from("CCTTGCAGGATCGATT");
        let r = overlap_align(a.codes(), b.codes(), &s());
        assert_eq!(r.kind, OverlapKind::SuffixPrefix);
        assert_eq!(r.overlap_len, 7);
        assert!((r.identity - 1.0).abs() < 1e-12);
        assert_eq!(r.a_range, (9, 16));
        assert_eq!(r.b_range, (0, 7));
    }

    #[test]
    fn reverse_dovetail() {
        let a = DnaSeq::from("CCTTGCAGGATCGATT");
        let b = DnaSeq::from("ATGAGGTACCCTTGCA");
        let r = overlap_align(a.codes(), b.codes(), &s());
        assert_eq!(r.kind, OverlapKind::PrefixSuffix);
        assert_eq!(r.overlap_len, 7);
    }

    #[test]
    fn containment() {
        let a = DnaSeq::from("GGTACCCT");
        let b = DnaSeq::from("ATGAGGTACCCTTGCA");
        let r = overlap_align(a.codes(), b.codes(), &s());
        assert_eq!(r.kind, OverlapKind::AContained);
        assert_eq!(r.overlap_len, 8);
        assert!((r.identity - 1.0).abs() < 1e-12);
    }

    #[test]
    fn overlap_with_one_error_identity() {
        // 20-base overlap with a single substitution in the middle.
        let left = "ATCGGATCGTAGGCTAAGTC";
        let mut overlap: Vec<u8> = left.bytes().collect();
        overlap[10] = b'C'; // introduce mismatch vs b's copy (original is 'A')
        let a_str = format!("TTTTTTTT{}", String::from_utf8(overlap).unwrap());
        let b_str = format!("{}GGGGGGGG", left);
        let a = DnaSeq::from(a_str.as_str());
        let b = DnaSeq::from(b_str.as_str());
        let r = overlap_align(a.codes(), b.codes(), &s());
        assert_eq!(r.overlap_len, 20);
        assert!((r.identity - 0.95).abs() < 1e-9, "identity {}", r.identity);
    }

    #[test]
    fn no_overlap_low_identity() {
        let a = DnaSeq::from("AAAAAAAAAAAAAAA");
        let b = DnaSeq::from("CCCCCCCCCCCCCCC");
        let r = overlap_align(a.codes(), b.codes(), &s());
        assert!(r.overlap_len <= 1, "spurious overlap {:?}", r);
    }

    #[test]
    fn masked_bases_do_not_match() {
        let mut a = DnaSeq::from("TTTTACGTACGT");
        let mut b = DnaSeq::from("ACGTACGTGGGG");
        // Perfect 8-base dovetail before masking.
        let clean = overlap_align(a.codes(), b.codes(), &s());
        assert_eq!(clean.overlap_len, 8);
        a.mask_range(4, 12);
        b.mask_range(0, 8);
        let masked = overlap_align(a.codes(), b.codes(), &s());
        assert!(masked.identity < 0.5, "masked overlap should not score: {masked:?}");
    }

    #[test]
    fn banded_matches_full_when_band_large() {
        let a = DnaSeq::from("ATGAGGTACCCTTGCAAGT");
        let b = DnaSeq::from("CCTTGCAAGTGGATCGATT");
        let full = overlap_align(a.codes(), b.codes(), &s());
        // Seed: "CCTTGCAAGT" begins at a[9], b[0] → diag 9.
        let banded = banded_overlap_align(a.codes(), b.codes(), 9, 64, &s());
        assert_eq!(banded.score, full.score);
        assert_eq!(banded.overlap_len, full.overlap_len);
        assert_eq!(banded.a_range, full.a_range);
        assert_eq!(banded.b_range, full.b_range);
    }

    #[test]
    fn banded_handles_indels_within_band() {
        // Overlap with one deletion: suffix of a = prefix of b minus one base.
        let a = DnaSeq::from("TTTTTTATCGGATCGAGGCTAAGTC");
        let b = DnaSeq::from("ATCGGATCGTAGGCTAAGTCAAAAA");
        let full = overlap_align(a.codes(), b.codes(), &s());
        let banded = banded_overlap_align(a.codes(), b.codes(), 6, 8, &s());
        assert_eq!(banded.score, full.score, "full {full:?} banded {banded:?}");
    }

    #[test]
    fn banded_cheaper_than_full() {
        let a = DnaSeq::from("ATGAGGTACCCTTGCAAGTATGAGGTACCCTTGCAAGT");
        let b = DnaSeq::from("CCTTGCAAGTGGATCGATTCCTTGCAAGTGGATCGATT");
        let full = overlap_align(a.codes(), b.codes(), &s());
        let banded = banded_overlap_align(a.codes(), b.codes(), 0, 4, &s());
        assert!(banded.cells < full.cells);
    }

    #[test]
    fn band_clamp_keeps_results_on_short_pairs() {
        // band ≫ both lengths: the clamped window must still reproduce
        // the full-matrix result (every valid diagonal is in band).
        let a = DnaSeq::from("ATGAGGTACCCTTGCA");
        let b = DnaSeq::from("CCTTGCAGGATCGATT");
        let full = overlap_align(a.codes(), b.codes(), &s());
        let banded = banded_overlap_align(a.codes(), b.codes(), 3, 10_000, &s());
        assert_eq!(banded.score, full.score);
        assert_eq!(banded.overlap_len, full.overlap_len);
        assert_eq!(banded.a_range, full.a_range);
        assert_eq!(banded.b_range, full.b_range);
        assert_eq!(banded.cells, (a.len() * b.len()) as u64, "clamped band covers exactly the full matrix");
    }

    #[test]
    fn quality_weighting_discounts_low_quality_mismatches() {
        // 20-base dovetail with one mismatch planted at overlap column 10.
        let a = DnaSeq::from("TTTTTTTTATCGGATCGTAGGCTAAGTC");
        let mut b = DnaSeq::from("ATCGGATCGTAGGCTAAGTCGGGGGGGG");
        let orig = b.codes()[10];
        b.codes_mut()[10] = if orig == 1 { 2 } else { 1 };
        let s = Scoring::DEFAULT;
        let plain = overlap_align(a.codes(), b.codes(), &s);
        assert!(plain.identity < 1.0 && plain.identity > 0.9);
        // Low quality at the mismatch in both reads: weighted identity
        // rises close to 1.
        let mut qa = vec![40u8; a.len()];
        let mut qb = vec![40u8; b.len()];
        qa[8 + 10] = 2;
        qb[10] = 2;
        let weighted = overlap_align_quality(a.codes(), b.codes(), Some((&qa, &qb)), &s);
        assert!(weighted.identity > 0.99, "weighted {}", weighted.identity);
        // High quality everywhere: weighted equals plain.
        let qa_hi = vec![40u8; a.len()];
        let qb_hi = vec![40u8; b.len()];
        let hi = overlap_align_quality(a.codes(), b.codes(), Some((&qa_hi, &qb_hi)), &s);
        assert!((hi.identity - plain.identity).abs() < 1e-9);
    }

    #[test]
    fn quality_none_matches_plain() {
        let a = DnaSeq::from("ATGAGGTACCCTTGCA");
        let b = DnaSeq::from("CCTTGCAGGATCGATT");
        let s = Scoring::DEFAULT;
        let plain = overlap_align(a.codes(), b.codes(), &s);
        let q = overlap_align_quality(a.codes(), b.codes(), None, &s);
        assert_eq!(plain, q);
    }

    #[test]
    fn quality_scratch_reuse_matches_fresh() {
        let a = DnaSeq::from("TTTTTTTTATCGGATCGTAGGCTAAGTC");
        let b = DnaSeq::from("ATCGGATCGTAGGCTAAGTCGGGGGGGG");
        let s = Scoring::DEFAULT;
        let mut scratch = AlignScratch::new();
        // Dirty the scratch with an unrelated (larger) alignment first.
        let big = DnaSeq::from("ACGTACGTACGTACGTACGTACGTACGTACGTACGTACGT");
        let _ = overlap_align_quality_with(big.codes(), big.codes(), None, &s, &mut scratch);
        let fresh = overlap_align_quality(a.codes(), b.codes(), None, &s);
        let reused = overlap_align_quality_with(a.codes(), b.codes(), None, &s, &mut scratch);
        assert_eq!(fresh, reused);
    }

    #[test]
    fn empty_inputs() {
        assert_eq!(overlap_align(&[], &[], &s()).overlap_len, 0);
        assert_eq!(banded_overlap_align(&[], DnaSeq::from("ACG").codes(), 0, 4, &s()).overlap_len, 0);
        let r =
            overlap_align_simd(&[], DnaSeq::from("ACG").codes(), 0, 4, &s(), None, &mut AlignScratch::new());
        assert_eq!(r.overlap_len, 0);
        assert_eq!(r.cells, 0);
    }

    /// Lanes and scalar, on one reused scratch, against the banded
    /// oracle: every field, `cells` included.
    fn assert_matches_banded(a: &[u8], b: &[u8], diag: i64, band: usize, s: &Scoring) -> OverlapResult {
        let oracle = banded_overlap_align(a, b, diag, band, s);
        let mut scratch = AlignScratch::new();
        assert_eq!(overlap_align_simd(a, b, diag, band, s, None, &mut scratch), oracle, "lanes");
        assert_eq!(overlap_align_scalar(a, b, diag, band, s, None, &mut scratch), oracle, "scalar");
        oracle
    }

    fn xorshift(mut state: u64) -> impl FnMut() -> u64 {
        move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        }
    }

    fn random_codes(next: &mut impl FnMut() -> u64, len: usize) -> Vec<u8> {
        (0..len).map(|_| (next() % 4) as u8).collect()
    }

    #[test]
    fn one_pass_matches_banded() {
        // Dovetails with and without an indel, a pure-mismatch pair, a
        // containment, and a clean 60-base dovetail that passes
        // AcceptCriteria::CLUSTERING.
        let shared = "ATCGGATCGTAGGCTAAGTC".repeat(3);
        let cases: Vec<(DnaSeq, DnaSeq, i64, usize)> = vec![
            (DnaSeq::from("ATGAGGTACCCTTGCAAGT"), DnaSeq::from("CCTTGCAAGTGGATCGATT"), 9, 64),
            (DnaSeq::from("TTTTTTATCGGATCGAGGCTAAGTC"), DnaSeq::from("ATCGGATCGTAGGCTAAGTCAAAAA"), 6, 8),
            (DnaSeq::from("AAAAAAAAAAAAAAA"), DnaSeq::from("CCCCCCCCCCCCCCC"), 0, 6),
            (DnaSeq::from("A".repeat(400).as_str()), DnaSeq::from("C".repeat(400).as_str()), 0, 24),
            (DnaSeq::from("GGTACCCT"), DnaSeq::from("ATGAGGTACCCTTGCA"), -4, 24),
            (
                DnaSeq::from(format!("TTGCATTGCA{shared}").as_str()),
                DnaSeq::from(format!("{shared}GGATCGGATC").as_str()),
                10,
                24,
            ),
        ];
        for (a, b, diag, band) in &cases {
            assert_matches_banded(a.codes(), b.codes(), *diag, *band, &s());
        }
        let (a, b, diag, band) = cases.last().unwrap();
        let clean = banded_overlap_align(a.codes(), b.codes(), *diag, *band, &s());
        assert!(AcceptCriteria::CLUSTERING.accepts(clean.identity, clean.overlap_len));
    }

    #[test]
    fn scalar_fallback_bit_identical() {
        // Deterministically varied sequences over the full code range
        // (masked and non-base codes included), lanes and scalar both
        // field-for-field against the oracle.
        let mut next = xorshift(0x9e3779b97f4a7c15);
        for _ in 0..40 {
            let la = (next() % 120) as usize;
            let lb = (next() % 120) as usize;
            let a: Vec<u8> = (0..la).map(|_| (next() % 6) as u8).collect();
            let b: Vec<u8> = (0..lb).map(|_| (next() % 6) as u8).collect();
            let diag = (next() % 41) as i64 - 20;
            let band = 1 + (next() % 24) as usize;
            assert_matches_banded(&a, &b, diag, band, &s());
        }
    }

    #[test]
    fn stale_scratch_bytes_are_never_read() {
        // A 1500 × 1500 pair at band 200 leaves directions all over a
        // large window; a 300 × 350 pair at band 24 on the same scratch
        // lays a narrower window over those bytes and must not see them.
        let mut next = xorshift(0x2545f4914f6cdd1d);
        let big_a = random_codes(&mut next, 1_500);
        let mut big_b = big_a.clone();
        for _ in 0..60 {
            let at = (next() % 1_490) as usize;
            match next() % 3 {
                0 => big_b[at] = (big_b[at] + 1) % 4,
                1 => drop(big_b.remove(at)),
                _ => big_b.insert(at, (next() % 4) as u8),
            }
        }
        big_b.resize(1_500, 0);
        let shared = random_codes(&mut next, 180);
        let a = [random_codes(&mut next, 120), shared.clone()].concat();
        let mut b = [shared, random_codes(&mut next, 170)].concat();
        b[60] = (b[60] + 1) % 4;
        b.remove(100);
        b.push(0);
        assert_eq!((a.len(), b.len()), (300, 350));
        for kernel in [overlap_align_simd, overlap_align_scalar] {
            let mut reused = AlignScratch::new();
            let big = kernel(&big_a, &big_b, 0, 200, &s(), None, &mut reused);
            assert!(big.overlap_len > 1_000, "the first pair must fill its window: {big:?}");
            let got = kernel(&a, &b, 120, 24, &s(), None, &mut reused);
            assert!(got.overlap_len >= 170, "the second pair must walk a traceback: {got:?}");
            assert_eq!(got, banded_overlap_align(&a, &b, 120, 24, &s()));
        }
    }

    #[test]
    fn three_way_tie_takes_the_diagonal() {
        // One substitution between two matching halves: at that cell the
        // mismatch (−2) ties with gap-then-gap through either neighbour
        // (−1 −1), and the path runs through it.
        let mut next = xorshift(0x853c49e6748fea9b);
        let (p, q) = (random_codes(&mut next, 40), random_codes(&mut next, 40));
        let a = [p.clone(), vec![0], q.clone()].concat();
        let b = [p, vec![1], q].concat();
        let sc = s();
        // The plain recurrence, to show the tie is really there.
        let n = b.len();
        let mut h = vec![vec![0i32; n + 1]; a.len() + 1];
        for i in 1..=a.len() {
            for j in 1..=n {
                h[i][j] = (h[i - 1][j - 1] + sc.subst(a[i - 1], b[j - 1]))
                    .max(h[i - 1][j] + sc.gap_extend)
                    .max(h[i][j - 1] + sc.gap_extend);
            }
        }
        let t = 41;
        assert_eq!(h[t - 1][t - 1] + sc.mismatch, h[t - 1][t] + sc.gap_extend);
        assert_eq!(h[t - 1][t - 1] + sc.mismatch, h[t][t - 1] + sc.gap_extend);
        let oracle = assert_matches_banded(&a, &b, 0, 12, &sc);
        // Diagonal through the tie: 81 columns, one of them a mismatch.
        assert_eq!((oracle.overlap_len, oracle.path_diags), (81, (0, 0)));
        assert_eq!(oracle.identity, 80.0 / 81.0);
    }

    #[test]
    fn band_entering_the_rectangle_late_is_exact() {
        // Seed diagonal m − 60: rows 1..m−84 have no in-band column, and
        // the free-leading-gap cells (i, 0) of rows m−84..=m−36 are the
        // band's only way in.
        let mut next = xorshift(0xda942042e4dd58b5);
        let shared = random_codes(&mut next, 60);
        let a = [random_codes(&mut next, 240), shared.clone()].concat();
        let b = [shared, random_codes(&mut next, 140)].concat();
        let diag = a.len() as i64 - 60;
        let oracle = assert_matches_banded(&a, &b, diag, 24, &s());
        assert_eq!((oracle.a_range, oracle.b_range), ((240, 300), (0, 60)));
        assert!(AcceptCriteria::CLUSTERING.accepts(oracle.identity, oracle.overlap_len));
    }

    #[test]
    fn scratch_never_grows_after_presize() {
        let max_len = 64usize;
        let band = 8usize;
        let mut scratch = AlignScratch::for_sequences(max_len, band);
        assert_eq!(scratch.grow_events(), 0);
        let hw = scratch.high_water_bytes();
        let a = DnaSeq::from("ATGAGGTACCCTTGCAAGTATGAGGTACCCTTGCAAGTATGAGGTACCCTTGCAAGT");
        let b = DnaSeq::from("CCTTGCAAGTGGATCGATTCCTTGCAAGTGGATCGATTCCTTGCAAGTGGATCGATT");
        for diag in -8..8 {
            let _ = overlap_align_simd(a.codes(), b.codes(), diag, band, &s(), None, &mut scratch);
        }
        assert_eq!(scratch.grow_events(), 0, "hot loop must not reallocate");
        assert_eq!(scratch.high_water_bytes(), hw, "high-water must stay flat");
    }
}

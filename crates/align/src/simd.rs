//! Minimal portable SIMD layer for the alignment kernel.
//!
//! No target intrinsics and no external crates: the lane struct wraps a
//! fixed-size array and exposes the handful of lanewise operations the
//! banded kernel's row pass needs (add, max, compare-select, lane shift,
//! code widening, compare-to-bytes for the traceback directions).
//! Loads and stores are plain array copies: the kernel hands every chunk
//! over as `&[i32; LANES]` / `&[u8; LANES]` views of exact-length slices
//! (`as_chunks`), so a chunk load is one vector move with no bounds
//! check, and [`I32x8::widen`] turns the eight subject codes into one
//! zero-extending load.
//!
//! How the row pass of [`crate::overlap::overlap_align_simd`] drives
//! them: only rows that hold an in-band cell run; a row's cells go in
//! chunks of [`LANES`], whose diagonal and vertical operands are the two
//! chunks of the row above that start at the chunk's slot and one slot
//! later; the left-gap carry is the previous chunk's last lane, splat
//! and added to the ramp `(l + 1)·g`, folded in by one max after the
//! in-chunk prefix scan; the fewer than [`LANES`] cells past the last
//! whole chunk take the scalar recurrence.
//!
//! Every method is a plain `for l in 0..LANES` loop over the array, which
//! LLVM reliably autovectorises at `opt-level=3` into SSE2/AVX2 code —
//! the arrays are fixed-width, the loops have no early exits, and there
//! is no memory aliasing the optimiser has to prove away. The payoff is
//! that the *scalar semantics are the specification*: a build that does
//! not vectorise (debug builds, exotic targets) and the kernel's scalar
//! reference body compute bit-identical values, because there is only
//! one definition of the arithmetic.
//!
//! The one lane type, [`I32x8`], holds the overlap kernel's DP scores.
//! Scores need i32 headroom: under the harsh verification scoring the
//! tests use (mismatch −7, gap −5) a 1.5 kbp read pair can legitimately
//! reach |score| ≈ 10⁴, and the −∞ band sentinel needs to stay an order
//! of magnitude below *that* so sentinel-derived paths can never win a
//! lanewise max. i16 would put real scores and the sentinel within a few
//! thousand of each other on exactly the workloads that matter.

/// Lane count of the kernel's working type ([`I32x8`]).
pub const LANES: usize = 8;

/// Eight `i32` lanes — the kernel's DP-score working type.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct I32x8(pub [i32; LANES]);

// The indexed `for l in 0..LANES` loops are the specification (module
// docs): fixed-trip, branch-free, the shape LLVM vectorises.
#[allow(clippy::needless_range_loop, clippy::manual_memcpy)]
impl I32x8 {
    /// All lanes set to `v`.
    #[inline(always)]
    pub fn splat(v: i32) -> I32x8 {
        I32x8([v; LANES])
    }

    /// Lanewise `self + o`. Plain (wrapping-in-release) addition:
    /// kernel values are bounded far away from the type limits by
    /// the band sentinel convention, see the module docs.
    ///
    /// An inherent method (not `std::ops::Add`) on purpose: every
    /// lane op is a plain `fn` so the whole kernel body can be
    /// re-instantiated under `#[target_feature]` without trait
    /// dispatch in the way.
    #[allow(clippy::should_implement_trait)]
    #[inline(always)]
    pub fn add(self, o: I32x8) -> I32x8 {
        let mut out = self.0;
        for l in 0..LANES {
            out[l] = out[l].wrapping_add(o.0[l]);
        }
        I32x8(out)
    }

    /// Lanewise maximum.
    #[inline(always)]
    pub fn max(self, o: I32x8) -> I32x8 {
        let mut out = self.0;
        for l in 0..LANES {
            if o.0[l] > out[l] {
                out[l] = o.0[l];
            }
        }
        I32x8(out)
    }

    /// Lanewise select: where `self == key` take `t`, else `f`.
    /// This is the substitution-score lookup: `self` holds the
    /// subject codes widened to lanes, `key` the broadcast query
    /// code, `t`/`f` the match/mismatch scores.
    #[inline(always)]
    pub fn eq_select(self, key: I32x8, t: I32x8, f: I32x8) -> I32x8 {
        let mut out = [0; LANES];
        for l in 0..LANES {
            out[l] = if self.0[l] == key.0[l] { t.0[l] } else { f.0[l] };
        }
        I32x8(out)
    }

    /// Lanes shifted toward higher indices by `S`; the vacated
    /// low lanes take `fill` (`out[l] = self[l − S]` for
    /// `l ≥ S`). Compiles to a single shuffle; used by the
    /// log-step max-plus prefix scan that resolves the DP row's
    /// left-gap dependency without a serial per-cell chain.
    #[inline(always)]
    pub fn shift_up<const S: usize>(self, fill: i32) -> I32x8 {
        let mut out = [fill; LANES];
        for l in S..LANES {
            out[l] = self.0[l - S];
        }
        I32x8(out)
    }

    /// Eight `u8` codes widened to i32 lanes (the subject-sequence codes
    /// of the current chunk): one zero-extending load.
    #[inline(always)]
    pub fn widen(src: &[u8; LANES]) -> I32x8 {
        let mut out = [0i32; LANES];
        for l in 0..LANES {
            out[l] = src[l] as i32;
        }
        I32x8(out)
    }

    /// Traceback directions of eight cells with diagonal candidates `d`,
    /// vertical candidates `u`, `c = max(d, u)` and final values
    /// `v = max(c, left)`: `2` (left) where `v != c`, else `1` (up) where
    /// `d < u`, else `0` (diagonal) — the `diag ≥ up ≥ left` tie order.
    #[inline(always)]
    pub fn store_directions(d: I32x8, u: I32x8, c: I32x8, v: I32x8, dst: &mut [u8; LANES]) {
        for (l, dir) in dst.iter_mut().enumerate() {
            *dir = if v.0[l] != c.0[l] { 2 } else { (d.0[l] < u.0[l]) as u8 };
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splat_add_max() {
        assert_eq!(I32x8::splat(7).0, [7; 8]);
        let a = I32x8([1, -2, 3, -4, 5, -6, 7, -8]);
        let b = I32x8::splat(10);
        assert_eq!(a.add(b).0, [11, 8, 13, 6, 15, 4, 17, 2]);
        assert_eq!(a.max(I32x8::splat(0)).0, [1, 0, 3, 0, 5, 0, 7, 0]);
    }

    #[test]
    fn eq_select_is_the_subst_lookup() {
        let codes = I32x8([0, 1, 2, 3, 0, 1, 2, 3]);
        let s = codes.eq_select(I32x8::splat(2), I32x8::splat(1), I32x8::splat(-2));
        assert_eq!(s.0, [-2, -2, 1, -2, -2, -2, 1, -2]);
    }

    #[test]
    fn widen_zero_extends() {
        let src = [0u8, 3, 255, 4, 1, 2, 0, 9];
        assert_eq!(I32x8::widen(&src).0, [0, 3, 255, 4, 1, 2, 0, 9]);
    }

    #[test]
    fn directions_follow_the_tie_order() {
        let d = I32x8([5, 1, 3, 3, -9, 0, 7, 2]);
        let u = I32x8([4, 2, 3, 4, -8, 0, 6, 3]);
        let c = d.max(u);
        let mut v = c;
        v.0[2] += 1;
        v.0[7] += 4;
        let mut dirs = [9u8; 8];
        I32x8::store_directions(d, u, c, v, &mut dirs);
        assert_eq!(dirs, [0, 1, 2, 1, 1, 0, 0, 2]);
    }
}

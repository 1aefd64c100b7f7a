//! Minimal portable SIMD layer for the alignment kernels.
//!
//! No target intrinsics and no external crates: each lane struct wraps a
//! fixed-size array and exposes the handful of lanewise operations the
//! banded kernel's row pass needs (add, max, compare-select, lane shift,
//! compare-to-bytes for the traceback directions).
//! Every method is a plain `for l in 0..LANES` loop over the array, which
//! LLVM reliably autovectorises at `opt-level=3` into SSE2/AVX2 code —
//! the arrays are fixed-width, the loops have no early exits, and there
//! is no memory aliasing the optimiser has to prove away. The payoff is
//! that the *scalar semantics are the specification*: a build that does
//! not vectorise (debug builds, exotic targets, the `force-scalar`
//! feature) computes bit-identical values, because there is only one
//! definition of the arithmetic.
//!
//! Three widths are provided:
//!
//! - [`I32x8`] — what the overlap kernel uses for DP scores. Scores need
//!   i32 headroom: under the harsh verification scoring the benches use
//!   (mismatch −7, gap −5) a 1.5 kbp read pair can legitimately reach
//!   |score| ≈ 10⁴, and the −∞ band sentinel needs to stay an order of
//!   magnitude below *that* so sentinel-derived paths can never win a
//!   lanewise max. i16 would put real scores and the sentinel within a
//!   few thousand of each other on exactly the workloads that matter.
//! - [`I16x8`] / [`I16x16`] — narrow lanes for consumers whose values
//!   provably fit (e.g. quality tracks, short-read kernels); kept here
//!   with the same operation set so a future i16 specialisation of the
//!   kernel is a type swap, not a rewrite.

/// Lane count of the kernel's working type ([`I32x8`]).
pub const LANES: usize = 8;

/// Effective lane width of the kernel's row passes in this build: `LANES`
/// normally, 1 when the `force-scalar` feature pins the kernel to its
/// scalar fallback. Surfaced as the `simd_lanes` capability note in run
/// reports so traces from different builds are comparable.
pub fn effective_lanes() -> u64 {
    if cfg!(feature = "force-scalar") {
        1
    } else {
        LANES as u64
    }
}

macro_rules! lane_type {
    ($name:ident, $elem:ty, $n:expr, $doc:expr) => {
        #[doc = $doc]
        #[derive(Debug, Clone, Copy, PartialEq, Eq)]
        pub struct $name(pub [$elem; $n]);

        impl $name {
            /// Number of lanes.
            pub const LANES: usize = $n;

            /// All lanes set to `v`.
            #[inline(always)]
            pub fn splat(v: $elem) -> $name {
                $name([v; $n])
            }

            /// Load the first `LANES` elements of `src`.
            #[inline(always)]
            pub fn load(src: &[$elem]) -> $name {
                let mut out = [0; $n];
                out.copy_from_slice(&src[..$n]);
                $name(out)
            }

            /// Store all lanes into the first `LANES` elements of `dst`.
            #[inline(always)]
            pub fn store(self, dst: &mut [$elem]) {
                dst[..$n].copy_from_slice(&self.0);
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
            pub fn add(self, o: $name) -> $name {
                let mut out = self.0;
                for l in 0..$n {
                    out[l] = out[l].wrapping_add(o.0[l]);
                }
                $name(out)
            }

            /// Lanewise maximum.
            #[inline(always)]
            pub fn max(self, o: $name) -> $name {
                let mut out = self.0;
                for l in 0..$n {
                    if o.0[l] > out[l] {
                        out[l] = o.0[l];
                    }
                }
                $name(out)
            }

            /// Lanewise select: where `self == key` take `t`, else `f`.
            /// This is the substitution-score lookup: `self` holds the
            /// subject codes widened to lanes, `key` the broadcast query
            /// code, `t`/`f` the match/mismatch scores.
            #[inline(always)]
            pub fn eq_select(self, key: $name, t: $name, f: $name) -> $name {
                let mut out = [0; $n];
                for l in 0..$n {
                    out[l] = if self.0[l] == key.0[l] { t.0[l] } else { f.0[l] };
                }
                $name(out)
            }

            /// Lanes shifted toward higher indices by `S`; the vacated
            /// low lanes take `fill` (`out[l] = self[l − S]` for
            /// `l ≥ S`). Compiles to a single shuffle; used by the
            /// log-step max-plus prefix scan that resolves the DP row's
            /// left-gap dependency without a serial per-cell chain.
            #[inline(always)]
            pub fn shift_up<const S: usize>(self, fill: $elem) -> $name {
                let mut out = [fill; $n];
                for l in S..$n {
                    out[l] = self.0[l - S];
                }
                $name(out)
            }
        }
    };
}

lane_type!(I32x8, i32, 8, "Eight `i32` lanes — the kernel's DP-score working type.");
lane_type!(I16x8, i16, 8, "Eight `i16` lanes.");
lane_type!(I16x16, i16, 16, "Sixteen `i16` lanes.");

impl I32x8 {
    /// Load eight `u8` codes widened to i32 lanes (the subject-sequence
    /// slice of the current chunk).
    #[inline(always)]
    pub fn load_u8(src: &[u8]) -> I32x8 {
        let mut out = [0i32; 8];
        for l in 0..8 {
            out[l] = src[l] as i32;
        }
        I32x8(out)
    }

    /// Traceback directions of eight cells with diagonal candidates `d`,
    /// vertical candidates `u`, `c = max(d, u)` and final values
    /// `v = max(c, left)`: `2` (left) where `v != c`, else `1` (up) where
    /// `d < u`, else `0` (diagonal) — the `diag ≥ up ≥ left` tie order.
    #[inline(always)]
    pub fn store_directions(d: I32x8, u: I32x8, c: I32x8, v: I32x8, dst: &mut [u8]) {
        for (l, dir) in dst[..8].iter_mut().enumerate() {
            *dir = if v.0[l] != c.0[l] { 2 } else { (d.0[l] < u.0[l]) as u8 };
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splat_load_store_roundtrip() {
        let v = I32x8::splat(7);
        assert_eq!(v.0, [7; 8]);
        let src = [1, 2, 3, 4, 5, 6, 7, 8, 9];
        let v = I32x8::load(&src);
        let mut dst = [0i32; 10];
        v.store(&mut dst);
        assert_eq!(&dst[..8], &src[..8]);
        assert_eq!(dst[8], 0, "store writes exactly LANES elements");
    }

    #[test]
    fn add_max() {
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
    fn load_u8_widens() {
        let src = [0u8, 3, 255, 4, 1, 2, 0, 9];
        assert_eq!(I32x8::load_u8(&src).0, [0, 3, 255, 4, 1, 2, 0, 9]);
    }

    #[test]
    fn directions_follow_the_tie_order() {
        let d = I32x8([5, 1, 3, 3, -9, 0, 7, 2]);
        let u = I32x8([4, 2, 3, 4, -8, 0, 6, 3]);
        let c = d.max(u);
        let mut v = c;
        v.0[2] += 1;
        v.0[7] += 4;
        let mut dirs = [9u8; 9];
        I32x8::store_directions(d, u, c, v, &mut dirs);
        assert_eq!(dirs, [0, 1, 2, 1, 1, 0, 0, 2, 9], "writes exactly LANES bytes");
    }

    #[test]
    fn i16_lanes_share_the_operation_set() {
        let a = I16x16([3; 16]);
        let b = I16x16::splat(-1);
        assert_eq!(a.add(b).0, [2; 16]);
        assert_eq!(a.max(b).0, [3; 16]);
        let c = I16x8([0, 1, 2, 3, 4, 5, 6, 7]);
        assert_eq!(c.eq_select(I16x8::splat(5), I16x8::splat(9), I16x8::splat(0)).0[5], 9);
    }

    #[test]
    fn effective_lanes_matches_build() {
        let l = effective_lanes();
        assert!(l == 1 || l == LANES as u64);
    }
}

//! Geometry-aware clustering: Union–Find with per-fragment poses.
//!
//! §10 of the paper: "The effectiveness of our clustering approach can
//! be further enhanced by resolving inconsistent overlaps during
//! cluster formation. By reducing the largest cluster size, this will
//! increase available parallelism during the assembly phase."
//!
//! This module implements that extension. Each fragment in a cluster
//! carries a *pose* — an affine map `x ↦ s·x + t` (`s = ±1` for
//! orientation) from its forward coordinates into its cluster's frame.
//! An accepted overlap between two fragments implies a relative pose;
//! if both fragments already share a cluster and the implied pose
//! disagrees with the recorded one beyond a tolerance, the overlap is
//! *inconsistent* (the repeat-chaining signature) and the merge is
//! refused instead of being deferred to the assembler.

/// An affine map over sequence coordinates: `x ↦ s·x + t`, `s ∈ {−1, +1}`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AffineMap {
    /// Orientation: +1 keeps direction, −1 reverses.
    pub s: i8,
    /// Translation.
    pub t: i64,
}

impl AffineMap {
    /// The identity map.
    pub const IDENTITY: AffineMap = AffineMap { s: 1, t: 0 };

    /// Apply to a coordinate.
    #[inline]
    pub fn apply(&self, x: i64) -> i64 {
        self.s as i64 * x + self.t
    }

    /// Composition `self ∘ other` (apply `other` first).
    #[inline]
    pub fn compose(&self, other: &AffineMap) -> AffineMap {
        AffineMap { s: self.s * other.s, t: self.s as i64 * other.t + self.t }
    }

    /// The inverse map.
    #[inline]
    pub fn inverse(&self) -> AffineMap {
        // x = s·y + t  ⇒  y = s·x − s·t  (s² = 1).
        AffineMap { s: self.s, t: -(self.s as i64) * self.t }
    }

    /// Do two maps agree within `tol` translation (and exactly in
    /// orientation)?
    #[inline]
    pub fn agrees(&self, other: &AffineMap, tol: i64) -> bool {
        self.s == other.s && (self.t - other.t).abs() <= tol
    }
}

/// Outcome of a geometry-checked union.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GeomUnion {
    /// The two elements were in different clusters; now merged.
    Merged,
    /// Already clustered and the implied pose agrees.
    Consistent,
    /// Already clustered but the implied pose disagrees — the overlap
    /// is repeat-induced; the clusters are left intact.
    Inconsistent,
}

/// Union–Find where every element carries a pose relative to its
/// parent; `find` composes poses with path compression, so each element
/// always knows its map into the component root's frame.
#[derive(Debug, Clone)]
pub struct GeomUnionFind {
    parent: Vec<u32>,
    rank: Vec<u8>,
    pose: Vec<AffineMap>,
    sets: usize,
}

impl GeomUnionFind {
    /// `n` singleton clusters, each in its own frame.
    pub fn new(n: usize) -> GeomUnionFind {
        GeomUnionFind {
            parent: (0..n as u32).collect(),
            rank: vec![0; n],
            pose: vec![AffineMap::IDENTITY; n],
            sets: n,
        }
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.parent.len()
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.parent.is_empty()
    }

    /// Current number of clusters.
    pub fn num_sets(&self) -> usize {
        self.sets
    }

    /// Root of `x` and the pose mapping `x`'s coordinates into the
    /// root's frame. Performs full path compression.
    pub fn find(&mut self, x: u32) -> (u32, AffineMap) {
        if self.parent[x as usize] == x {
            return (x, self.pose[x as usize]);
        }
        let (root, parent_pose) = self.find(self.parent[x as usize]);
        let composed = parent_pose.compose(&self.pose[x as usize]);
        self.parent[x as usize] = root;
        self.pose[x as usize] = composed;
        (root, composed)
    }

    /// Are two elements in the same cluster?
    pub fn same(&mut self, a: u32, b: u32) -> bool {
        self.find(a).0 == self.find(b).0
    }

    /// Record the constraint `x_b = edge(x_a)` (an overlap-implied
    /// relative pose between elements `a` and `b`).
    pub fn union_with(&mut self, a: u32, b: u32, edge: &AffineMap, tol: i64) -> GeomUnion {
        let (ra, pose_a) = self.find(a);
        let (rb, pose_b) = self.find(b);
        if ra == rb {
            // Consistency: pose_b ∘ edge must equal pose_a.
            let implied = pose_b.compose(edge);
            return if implied.agrees(&pose_a, tol) {
                GeomUnion::Consistent
            } else {
                GeomUnion::Inconsistent
            };
        }
        // Link rb's frame into ra's: L = pose_a ∘ edge⁻¹ ∘ pose_b⁻¹.
        let link = pose_a.compose(&edge.inverse()).compose(&pose_b.inverse());
        if self.rank[ra as usize] >= self.rank[rb as usize] {
            self.parent[rb as usize] = ra;
            self.pose[rb as usize] = link;
            if self.rank[ra as usize] == self.rank[rb as usize] {
                self.rank[ra as usize] += 1;
            }
        } else {
            self.parent[ra as usize] = rb;
            self.pose[ra as usize] = link.inverse();
        }
        self.sets -= 1;
        GeomUnion::Merged
    }

    /// Materialise clusters as member lists ordered by smallest member.
    pub fn sets(&mut self) -> Vec<Vec<u32>> {
        let n = self.parent.len();
        let mut by_root: std::collections::HashMap<u32, Vec<u32>> = std::collections::HashMap::new();
        for i in 0..n as u32 {
            let (r, _) = self.find(i);
            by_root.entry(r).or_default().push(i);
        }
        let mut out: Vec<Vec<u32>> = by_root.into_values().collect();
        out.sort_by_key(|v| v[0]);
        out
    }
}

/// Build the overlap-implied edge map `x_a → x_b` between the *forward*
/// coordinates of two fragments, given the strands the pair was found
/// on, the fragments' lengths, and the aligned start positions in the
/// oriented sequences (`d = a_start − b_start` on the oriented axes).
pub fn overlap_edge(
    a_reverse: bool,
    b_reverse: bool,
    len_a: usize,
    len_b: usize,
    a_start: usize,
    b_start: usize,
) -> AffineMap {
    // Oriented coordinate u of fragment forward coordinate x:
    // u = S·x + C with S = −1, C = len − 1 on the reverse strand.
    let (sa, ca) = strand_map(a_reverse, len_a);
    let (sb, cb) = strand_map(b_reverse, len_b);
    let d = a_start as i64 - b_start as i64;
    // u_b = u_a − d  ⇒  x_b = S_b·(S_a·x_a + C_a − d − C_b).
    AffineMap { s: (sb * sa) as i8, t: sb * (ca - d - cb) }
}

fn strand_map(reverse: bool, len: usize) -> (i64, i64) {
    if reverse {
        (-1, len as i64 - 1)
    } else {
        (1, 0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn affine_algebra() {
        let f = AffineMap { s: -1, t: 10 };
        let g = AffineMap { s: 1, t: 3 };
        assert_eq!(f.apply(4), 6);
        assert_eq!(f.compose(&g).apply(4), f.apply(g.apply(4)));
        assert_eq!(f.compose(&f.inverse()), AffineMap::IDENTITY);
        assert_eq!(f.inverse().compose(&f), AffineMap::IDENTITY);
    }

    #[test]
    fn consistent_chain_merges() {
        // Three fragments tiling a region: 0 at 0, 1 at 50, 2 at 100.
        let mut uf = GeomUnionFind::new(3);
        let e01 = AffineMap { s: 1, t: -50 }; // x_1 = x_0 − 50
        let e12 = AffineMap { s: 1, t: -50 };
        assert_eq!(uf.union_with(0, 1, &e01, 5), GeomUnion::Merged);
        assert_eq!(uf.union_with(1, 2, &e12, 5), GeomUnion::Merged);
        // The transitive constraint 0→2 is x_2 = x_0 − 100.
        let e02 = AffineMap { s: 1, t: -100 };
        assert_eq!(uf.union_with(0, 2, &e02, 5), GeomUnion::Consistent);
        assert_eq!(uf.num_sets(), 1);
    }

    #[test]
    fn inconsistent_overlap_rejected() {
        let mut uf = GeomUnionFind::new(3);
        uf.union_with(0, 1, &AffineMap { s: 1, t: -50 }, 5);
        uf.union_with(1, 2, &AffineMap { s: 1, t: -50 }, 5);
        // A repeat-induced overlap claiming 0 and 2 are only 10 apart.
        let bogus = AffineMap { s: 1, t: -10 };
        assert_eq!(uf.union_with(0, 2, &bogus, 5), GeomUnion::Inconsistent);
        assert_eq!(uf.num_sets(), 1, "rejection must not split the cluster");
    }

    #[test]
    fn orientation_conflicts_detected() {
        let mut uf = GeomUnionFind::new(2);
        uf.union_with(0, 1, &AffineMap { s: 1, t: -50 }, 5);
        // Same pair claimed again but flipped.
        let flipped = AffineMap { s: -1, t: 999 };
        assert_eq!(uf.union_with(0, 1, &flipped, 1000), GeomUnion::Inconsistent);
    }

    #[test]
    fn tolerance_absorbs_indel_jitter() {
        let mut uf = GeomUnionFind::new(3);
        uf.union_with(0, 1, &AffineMap { s: 1, t: -50 }, 5);
        uf.union_with(1, 2, &AffineMap { s: 1, t: -50 }, 5);
        // Off by 3 from the transitive −100: within tolerance.
        assert_eq!(uf.union_with(0, 2, &AffineMap { s: 1, t: -103 }, 5), GeomUnion::Consistent);
        assert_eq!(uf.union_with(0, 2, &AffineMap { s: 1, t: -110 }, 5), GeomUnion::Inconsistent);
    }

    #[test]
    fn overlap_edge_forward_forward() {
        // Suffix of a (starting at 30) matches prefix of b: d = 30.
        let e = overlap_edge(false, false, 100, 100, 30, 0);
        // x_b = x_a − 30.
        assert_eq!(e, AffineMap { s: 1, t: -30 });
        assert_eq!(e.apply(30), 0);
    }

    #[test]
    fn overlap_edge_forward_reverse() {
        // b participates reverse-complemented. len_b = 100, overlap at
        // oriented positions a_start = 60, b_start = 0.
        let e = overlap_edge(false, true, 100, 100, 60, 0);
        // Oriented b coordinate u_b = x_a − 60; forward x_b = 99 − u_b.
        assert_eq!(e.s, -1);
        assert_eq!(e.apply(60), 99);
        assert_eq!(e.apply(70), 89);
    }

    #[test]
    fn mirrored_strand_pairs_give_equivalent_constraints() {
        // The same physical overlap seen as (a fwd, b rev) and as
        // (a rev, b fwd) must induce equal constraints up to inversion.
        let e1 = overlap_edge(false, true, 120, 80, 40, 0);
        // Mirror: swap roles and strands; a_start/b_start swap to the
        // mirrored oriented coordinates.
        let e2 = overlap_edge(true, false, 120, 80, 120 - 1 - (40 + 39), 80 - 1 - 39);
        // e2 describes the same geometry: applying both to a sample
        // coordinate must agree.
        assert_eq!(e1.s, e2.s);
        assert!((e1.t - e2.t).abs() <= 1, "{e1:?} vs {e2:?}");
    }

    #[test]
    fn sets_materialise_with_posed_members() {
        let mut uf = GeomUnionFind::new(4);
        uf.union_with(0, 2, &AffineMap { s: 1, t: -10 }, 2);
        uf.union_with(1, 3, &AffineMap { s: -1, t: 5 }, 2);
        let sets = uf.sets();
        assert_eq!(sets, vec![vec![0, 2], vec![1, 3]]);
    }
}

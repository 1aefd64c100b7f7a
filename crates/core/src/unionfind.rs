//! Union–Find (disjoint sets) for cluster management.
//!
//! §4: "Operations on the set of clusters are performed using the
//! Union–Find data structure", giving find/merge in amortised
//! inverse-Ackermann time; §7.1: "implemented as an array of n
//! integers", which is what keeps the master's memory at O(n).

/// Disjoint-set forest with union by rank and path halving.
#[derive(Debug, Clone)]
pub struct UnionFind {
    /// parent[i], with parent[i] == i for roots.
    parent: Vec<u32>,
    /// Rank upper bound per root.
    rank: Vec<u8>,
}

impl UnionFind {
    /// `n` singleton sets.
    pub fn new(n: usize) -> UnionFind {
        UnionFind { parent: (0..n as u32).collect(), rank: vec![0; n] }
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.parent.len()
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.parent.is_empty()
    }

    /// Root of `x` (path halving).
    pub fn find(&mut self, x: u32) -> u32 {
        let mut x = x;
        while self.parent[x as usize] != x {
            let grand = self.parent[self.parent[x as usize] as usize];
            self.parent[x as usize] = grand;
            x = grand;
        }
        x
    }

    /// Are `a` and `b` in the same set?
    pub fn same(&mut self, a: u32, b: u32) -> bool {
        self.find(a) == self.find(b)
    }

    /// Merge the sets of `a` and `b`; returns true if a merge happened.
    pub fn union(&mut self, a: u32, b: u32) -> bool {
        let (ra, rb) = (self.find(a), self.find(b));
        if ra == rb {
            return false;
        }
        let (hi, lo) = if self.rank[ra as usize] >= self.rank[rb as usize] { (ra, rb) } else { (rb, ra) };
        self.parent[lo as usize] = hi;
        if self.rank[hi as usize] == self.rank[lo as usize] {
            self.rank[hi as usize] += 1;
        }
        true
    }

    /// Materialise the sets as member lists (singletons included),
    /// ordered by smallest member.
    pub fn sets(&mut self) -> Vec<Vec<u32>> {
        let n = self.parent.len();
        let mut by_root: std::collections::HashMap<u32, Vec<u32>> = std::collections::HashMap::new();
        for i in 0..n as u32 {
            let r = self.find(i);
            by_root.entry(r).or_default().push(i);
        }
        let mut out: Vec<Vec<u32>> = by_root.into_values().collect();
        out.sort_by_key(|v| v[0]);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn starts_as_singletons() {
        let mut uf = UnionFind::new(5);
        for i in 0..5 {
            assert_eq!(uf.find(i), i);
        }
    }

    #[test]
    fn union_merges_and_counts() {
        let mut uf = UnionFind::new(4);
        assert!(uf.union(0, 1));
        assert!(!uf.union(0, 1), "second union is a no-op");
        assert!(uf.union(2, 3));
        assert_eq!(uf.sets().len(), 2);
        assert!(uf.same(0, 1));
        assert!(!uf.same(1, 2));
        assert!(uf.union(1, 3));
        assert_eq!(uf.sets().len(), 1);
        assert!(uf.same(0, 2));
    }

    #[test]
    fn transitivity_via_chain() {
        let mut uf = UnionFind::new(100);
        for i in 0..99 {
            uf.union(i, i + 1);
        }
        assert_eq!(uf.sets().len(), 1);
        assert!(uf.same(0, 99));
    }

    #[test]
    fn sets_materialisation() {
        let mut uf = UnionFind::new(6);
        uf.union(0, 2);
        uf.union(2, 4);
        uf.union(1, 5);
        let sets = uf.sets();
        assert_eq!(sets.len(), 3);
        assert_eq!(sets[0], vec![0, 2, 4]);
        assert_eq!(sets[1], vec![1, 5]);
        assert_eq!(sets[2], vec![3]);
    }

    #[test]
    fn result_independent_of_union_order() {
        // The same edge set applied in any order yields the same
        // partition — the property that makes the paper's heuristic
        // ordering a pure optimisation (§4).
        let edges = [(0u32, 1u32), (2, 3), (1, 2), (5, 6), (7, 8), (6, 7)];
        let mut forward = UnionFind::new(10);
        for &(a, b) in &edges {
            forward.union(a, b);
        }
        let mut backward = UnionFind::new(10);
        for &(a, b) in edges.iter().rev() {
            backward.union(a, b);
        }
        assert_eq!(forward.sets(), backward.sets());
    }

    #[test]
    fn empty_unionfind() {
        let mut uf = UnionFind::new(0);
        assert!(uf.is_empty());
        assert!(uf.sets().is_empty());
    }
}

//! Scaffolding: ordering and orienting contigs with clone-mate links.
//!
//! §2 of the paper: "The order and orientation of the contigs along the
//! chromosomes is later determined using a process called scaffolding."
//! Clone mates (read pairs from the two ends of a sub-clone of known
//! approximate length) constrain the relative placement of the contigs
//! the two reads landed in; bundling several agreeing links yields a
//! scaffold edge with an estimated gap, and a greedy end-joining pass
//! chains contigs into scaffolds.

use std::collections::HashMap;

/// A clone-mate link between two reads: `read1` runs forward from the
/// sub-clone's 5' end, `read2` is the reverse complement of its 3' end,
/// and the sub-clone is about `insert` bases long.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MateLink {
    /// First read id (caller-chosen id space).
    pub read1: usize,
    /// Second read id.
    pub read2: usize,
    /// Approximate sub-clone length.
    pub insert: u32,
}

/// Where a read ended up after assembly.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReadPlacement {
    /// Contig index.
    pub contig: usize,
    /// Offset of the read's first placed base on the contig.
    pub offset: usize,
    /// Whether the read was placed reverse-complemented.
    pub flipped: bool,
    /// Read length.
    pub len: usize,
}

/// Scaffolder parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ScaffoldConfig {
    /// Minimum agreeing mate links to create a scaffold edge
    /// (single links are repeat-suspect).
    pub min_links: usize,
    /// Two links agree when their implied gaps differ by at most this.
    pub gap_tolerance: i64,
}

impl Default for ScaffoldConfig {
    fn default() -> Self {
        ScaffoldConfig { min_links: 2, gap_tolerance: 400 }
    }
}

/// One oriented contig within a scaffold.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ScaffoldPart {
    /// Contig index.
    pub contig: usize,
    /// Orientation within the scaffold.
    pub flipped: bool,
    /// Estimated gap to the previous part (0 for the first part; may be
    /// negative for slight overlaps the assembler missed).
    pub gap_before: i64,
}

/// An ordered, oriented chain of contigs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Scaffold {
    /// The parts, left to right.
    pub parts: Vec<ScaffoldPart>,
}

impl Scaffold {
    /// Number of contigs chained.
    pub fn len(&self) -> usize {
        self.parts.len()
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.parts.is_empty()
    }

    /// Total spanned length given contig lengths (gaps included,
    /// clamped at 0).
    pub fn span(&self, contig_lens: &[usize]) -> usize {
        let mut total = 0i64;
        for p in &self.parts {
            total += p.gap_before.max(0) + contig_lens[p.contig] as i64;
        }
        total.max(0) as usize
    }
}

/// A bundled inter-contig constraint.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Edge {
    /// Left contig (laid forward).
    a: usize,
    /// Left contig orientation in the edge frame.
    a_flip: bool,
    /// Right contig.
    b: usize,
    /// Right contig orientation.
    b_flip: bool,
    /// Estimated gap between them.
    gap: i64,
    /// Supporting link count.
    links: usize,
}

/// Derive the raw (unbundled) edge a single mate link implies, or
/// `None` when both reads landed in the same contig (an internal link —
/// useful for validation but not for scaffolding).
fn link_edge(
    placements: &HashMap<usize, ReadPlacement>,
    contig_lens: &[usize],
    link: &MateLink,
) -> Option<Edge> {
    let p1 = placements.get(&link.read1)?;
    let p2 = placements.get(&link.read2)?;
    if p1.contig == p2.contig {
        return None;
    }
    // Work in the frame where read1's contig is oriented so that read1
    // faces right (genome-forward). read1's stored sequence is the
    // genome-forward strand, so contig A needs flipping iff read1 was
    // placed flipped.
    let (len_a, len_b) = (contig_lens[p1.contig], contig_lens[p2.contig]);
    let a_flip = p1.flipped;
    let o1 = if a_flip { len_a - p1.offset - p1.len } else { p1.offset };
    // The frame direction equals the genome-forward direction whichever
    // way A was assembled (read1 is genome-forward by construction).
    // read2's stored sequence is the genome-*reverse* strand, so contig
    // B is genome-forward iff read2 sits flipped in it — and therefore
    // needs flipping in the frame iff read2 sits *unflipped*.
    let b_flip = !p2.flipped;
    let o2 = if b_flip { len_b - p2.offset - p2.len } else { p2.offset };
    // Genome: read2's segment ends `insert` bases after read1's start:
    //   gB + o2 + len2 = o1 + insert  ⇒  gB = o1 + insert − len2 − o2.
    let g_b = o1 as i64 + link.insert as i64 - p2.len as i64 - o2 as i64;
    let gap = g_b - len_a as i64;
    let edge = Edge { a: p1.contig, a_flip, b: p2.contig, b_flip, gap, links: 1 };
    Some(canonicalise(edge))
}

/// Canonical edge direction: lower contig index first. Reversing an
/// edge mirrors the pair: the right part becomes the left part flipped.
fn canonicalise(e: Edge) -> Edge {
    if e.a <= e.b {
        e
    } else {
        Edge { a: e.b, a_flip: !e.b_flip, b: e.a, b_flip: !e.a_flip, gap: e.gap, links: e.links }
    }
}

/// Build scaffolds from contig lengths, read placements, and mate
/// links. Contigs that acquire no edges come back as single-part
/// scaffolds.
pub fn scaffold(
    contig_lens: &[usize],
    placements: &HashMap<usize, ReadPlacement>,
    links: &[MateLink],
    config: &ScaffoldConfig,
) -> Vec<Scaffold> {
    // Bundle agreeing links.
    let mut bundles: HashMap<(usize, bool, usize, bool), Vec<i64>> = HashMap::new();
    for link in links {
        if let Some(e) = link_edge(placements, contig_lens, link) {
            bundles.entry((e.a, e.a_flip, e.b, e.b_flip)).or_default().push(e.gap);
        }
    }
    let mut edges: Vec<Edge> = Vec::new();
    for ((a, a_flip, b, b_flip), mut gaps) in bundles {
        gaps.sort_unstable();
        let median = gaps[gaps.len() / 2];
        // Count only links agreeing with the median gap.
        let agreeing = gaps.iter().filter(|&&g| (g - median).abs() <= config.gap_tolerance).count();
        if agreeing >= config.min_links {
            edges.push(Edge { a, a_flip, b, b_flip, gap: median, links: agreeing });
        }
    }
    edges.sort_by(|x, y| y.links.cmp(&x.links).then(x.a.cmp(&y.a)).then(x.b.cmp(&y.b)));

    // Greedy end-joining.
    let n = contig_lens.len();
    let mut chains: Vec<Option<Chain>> =
        (0..n).map(|c| Some(Chain { parts: vec![(c, false)], gaps: vec![] })).collect();
    let mut where_is: Vec<usize> = (0..n).collect();
    for e in edges {
        let (ca, cb) = (where_is[e.a], where_is[e.b]);
        if ca == cb {
            continue;
        }
        let (left, right) = (chains[ca].take(), chains[cb].take());
        let (Some(mut left), Some(mut right)) = (left, right) else {
            unreachable!("chains are always present for live indices")
        };
        // Orient the left chain so contig `a` is at its right end with
        // orientation a_flip, and the right chain so `b` is leftmost
        // with orientation b_flip.
        let ok_left = left.orient_as_right_end(e.a, e.a_flip);
        let ok_right = right.orient_as_left_end(e.b, e.b_flip);
        if !ok_left || !ok_right {
            // Interior contig: edge conflicts with an already-built
            // chain; skip (repeat-suspect link bundle).
            chains[ca] = Some(left);
            chains[cb] = Some(right);
            continue;
        }
        for &(c, _) in &right.parts {
            where_is[c] = ca;
        }
        left.gaps.push(e.gap);
        left.gaps.extend(right.gaps);
        left.parts.extend(right.parts);
        chains[ca] = Some(left);
        chains[cb] = None;
    }

    let mut out = Vec::new();
    for chain in chains.into_iter().flatten() {
        let mut parts = Vec::with_capacity(chain.parts.len());
        for (i, &(contig, flipped)) in chain.parts.iter().enumerate() {
            let gap_before = if i == 0 { 0 } else { chain.gaps[i - 1] };
            parts.push(ScaffoldPart { contig, flipped, gap_before });
        }
        out.push(Scaffold { parts });
    }
    out.sort_by_key(|s| s.parts[0].contig);
    out
}

struct Chain {
    parts: Vec<(usize, bool)>,
    gaps: Vec<i64>,
}

impl Chain {
    fn reverse(&mut self) {
        self.parts.reverse();
        for p in &mut self.parts {
            p.1 = !p.1;
        }
        self.gaps.reverse();
    }

    /// Ensure `contig` sits at the right end with the given orientation;
    /// false when it is interior or the orientation cannot match.
    fn orient_as_right_end(&mut self, contig: usize, flip: bool) -> bool {
        if let Some(&(c, f)) = self.parts.last() {
            if c == contig {
                if f == flip {
                    return true;
                }
                if self.parts.len() == 1 {
                    self.parts[0].1 = flip;
                    return true;
                }
            }
        }
        if let Some(&(c, f)) = self.parts.first() {
            if c == contig && (f != flip || self.parts.len() == 1) {
                self.reverse();
                if self.parts.last().expect("non-empty").1 == flip {
                    return true;
                }
                self.reverse();
            }
        }
        false
    }

    /// Ensure `contig` sits at the left end with the given orientation.
    fn orient_as_left_end(&mut self, contig: usize, flip: bool) -> bool {
        self.reverse();
        let ok = self.orient_as_right_end(contig, !flip);
        self.reverse();
        if ok {
            debug_assert_eq!(self.parts.first().map(|p| (p.0, p.1)), Some((contig, flip)));
        }
        ok
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn place(contig: usize, offset: usize, flipped: bool, len: usize) -> ReadPlacement {
        ReadPlacement { contig, offset, flipped, len }
    }

    /// Two contigs A (len 1000) and B (len 800) separated by a 200-gap,
    /// with mates: read1 near A's end (fwd), read2 in B (flipped),
    /// insert 700.
    fn simple_case() -> (Vec<usize>, HashMap<usize, ReadPlacement>, Vec<MateLink>) {
        let lens = vec![1000, 800];
        let mut placements = HashMap::new();
        // Genome: A at 0, gap 200, B at 1200.
        // Clone k: read1 at A offset 800 (fwd), read2 covers genome
        // [1400, 1500) = B offset 200..300, stored rc → placed flipped.
        placements.insert(0, place(0, 800, false, 100));
        placements.insert(1, place(1, 200, true, 100));
        placements.insert(2, place(0, 850, false, 100));
        placements.insert(3, place(1, 250, true, 100));
        let links =
            vec![MateLink { read1: 0, read2: 1, insert: 700 }, MateLink { read1: 2, read2: 3, insert: 700 }];
        (lens, placements, links)
    }

    #[test]
    fn two_contigs_bridge_into_one_scaffold() {
        let (lens, placements, links) = simple_case();
        let scaffolds = scaffold(&lens, &placements, &links, &ScaffoldConfig::default());
        assert_eq!(scaffolds.len(), 1, "{scaffolds:?}");
        let s = &scaffolds[0];
        assert_eq!(s.parts.len(), 2);
        assert_eq!(s.parts[0].contig, 0);
        assert!(!s.parts[0].flipped);
        assert_eq!(s.parts[1].contig, 1);
        assert!(!s.parts[1].flipped);
        // gap = o1 + insert − len2 − o2 − lenA = 800 + 700 − 100 − 200 − 1000 = 200.
        assert_eq!(s.parts[1].gap_before, 200);
        assert_eq!(s.span(&lens), 2000);
    }

    #[test]
    fn single_link_is_not_enough() {
        let (lens, placements, mut links) = simple_case();
        links.truncate(1);
        let scaffolds = scaffold(&lens, &placements, &links, &ScaffoldConfig::default());
        assert_eq!(scaffolds.len(), 2, "min_links=2 must reject a lone link");
    }

    #[test]
    fn disagreeing_links_do_not_bundle() {
        let (lens, mut placements, links) = simple_case();
        // Move the second pair's read2 far away: implied gaps now differ
        // by ≫ tolerance.
        placements.insert(3, place(1, 700, true, 100));
        let scaffolds = scaffold(&lens, &placements, &links, &ScaffoldConfig::default());
        assert_eq!(scaffolds.len(), 2);
    }

    #[test]
    fn flipped_contig_is_oriented() {
        let (lens, mut placements, links) = simple_case();
        // Contig B was assembled reverse-complemented: read2 appears
        // *unflipped* in it, at mirrored offsets.
        placements.insert(1, place(1, 800 - 200 - 100, false, 100));
        placements.insert(3, place(1, 800 - 250 - 100, false, 100));
        let scaffolds = scaffold(&lens, &placements, &links, &ScaffoldConfig::default());
        assert_eq!(scaffolds.len(), 1, "{scaffolds:?}");
        let s = &scaffolds[0];
        assert_eq!(s.parts[1].contig, 1);
        assert!(s.parts[1].flipped, "B must be flipped into genome orientation");
        assert_eq!(s.parts[1].gap_before, 200);
    }

    #[test]
    fn three_contig_chain() {
        // A —200— B —300— C, two links per junction.
        let lens = vec![1000, 800, 600];
        let mut placements = HashMap::new();
        placements.insert(0, place(0, 800, false, 100));
        placements.insert(1, place(1, 200, true, 100));
        placements.insert(2, place(0, 850, false, 100));
        placements.insert(3, place(1, 250, true, 100));
        // B→C: genome B at 1200..2000, C at 2300. read at B 600 fwd,
        // mate at C offset 100..200 genome 2400..2500, insert = 2500 − 1800 = 700.
        placements.insert(4, place(1, 600, false, 100));
        placements.insert(5, place(2, 100, true, 100));
        placements.insert(6, place(1, 650, false, 100));
        placements.insert(7, place(2, 150, true, 100));
        let links = vec![
            MateLink { read1: 0, read2: 1, insert: 700 },
            MateLink { read1: 2, read2: 3, insert: 700 },
            MateLink { read1: 4, read2: 5, insert: 700 },
            MateLink { read1: 6, read2: 7, insert: 700 },
        ];
        let scaffolds = scaffold(&lens, &placements, &links, &ScaffoldConfig::default());
        assert_eq!(scaffolds.len(), 1, "{scaffolds:?}");
        let order: Vec<usize> = scaffolds[0].parts.iter().map(|p| p.contig).collect();
        assert_eq!(order, vec![0, 1, 2]);
        assert_eq!(scaffolds[0].parts[2].gap_before, 300);
    }

    #[test]
    fn read1_in_reversed_contig() {
        // Contig A was assembled genome-reversed: read1 (genome-forward)
        // appears flipped in it at mirrored offsets. Genome geometry is
        // the same as `simple_case`, so the resulting scaffold must be
        // A(-) then B(+) with the same 200 gap.
        let lens = vec![1000, 800];
        let mut placements = HashMap::new();
        placements.insert(0, place(0, 1000 - 800 - 100, true, 100));
        placements.insert(1, place(1, 200, true, 100));
        placements.insert(2, place(0, 1000 - 850 - 100, true, 100));
        placements.insert(3, place(1, 250, true, 100));
        let links =
            vec![MateLink { read1: 0, read2: 1, insert: 700 }, MateLink { read1: 2, read2: 3, insert: 700 }];
        let scaffolds = scaffold(&lens, &placements, &links, &ScaffoldConfig::default());
        assert_eq!(scaffolds.len(), 1, "{scaffolds:?}");
        let s = &scaffolds[0];
        assert_eq!(s.parts.len(), 2);
        let (first, second) = (&s.parts[0], &s.parts[1]);
        assert_eq!((first.contig, second.contig), (0, 1));
        assert!(first.flipped, "A must be flipped into genome orientation");
        assert!(!second.flipped);
        assert_eq!(second.gap_before, 200);
    }

    #[test]
    fn same_contig_links_ignored() {
        let lens = vec![1000];
        let mut placements = HashMap::new();
        placements.insert(0, place(0, 100, false, 100));
        placements.insert(1, place(0, 700, true, 100));
        let links = vec![MateLink { read1: 0, read2: 1, insert: 700 }];
        let scaffolds = scaffold(&lens, &placements, &links, &ScaffoldConfig::default());
        assert_eq!(scaffolds.len(), 1);
        assert_eq!(scaffolds[0].parts.len(), 1);
    }

    #[test]
    fn unplaced_reads_skipped() {
        let (lens, mut placements, links) = simple_case();
        placements.remove(&3);
        let scaffolds = scaffold(&lens, &placements, &links, &ScaffoldConfig::default());
        assert_eq!(scaffolds.len(), 2, "one remaining link is below min_links");
    }
}

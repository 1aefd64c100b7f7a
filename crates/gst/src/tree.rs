//! The generalized suffix tree, stored as an arena forest.
//!
//! One compacted trie per *admitted* ψ-prefix bucket: a run of the flat
//! key-sorted suffix array that can emit a pair (two suffixes or more,
//! not all after the same real base — see [`crate::suffix`]). Singleton
//! and uniform-left buckets never reach the tree, the artifact or the
//! pair generator. §6 builds a bucket by partitioning its suffixes on
//! their next character, recursively, "until all suffixes are separated
//! or their lengths exhausted"; the same tree falls out of *sorting* the
//! bucket and reading the branching structure off adjacent LCPs, which
//! is how it is built here: sort the run on the text beyond the bucket
//! prefix, find every LCP-interval
//! (= internal node) by its left end in one stack pass over the adjacent
//! LCPs, then emit the arena nodes in pre-order in a second — an internal
//! node at each interval's minimum LCP, its exhausted-suffix leaf first,
//! then its children in A/C/G/T order. Suffixes that exhaust at the same
//! point form a *leaf* holding several suffixes — the arena equivalent
//! of the classic per-string `$` terminator leaves.
//!
//! Every node at string-depth ≥ ψ — every node, unless ψ > 31 and the
//! bucket prefix stops short of it — carries `lsets`: per preceding
//! character class (A, C, G, T, or λ for "no left extension possible"),
//! an index-linked list of the suffixes in its subtree. Lists support
//! O(1) concatenation, which the pair generator relies on for its O(1)
//! amortised per-pair bound (paper Lemma 2).

use crate::suffix::{admitted_runs, enumerate_suffixes, sort_by_bucket, LeftClasses, Suffix};
use pgasm_seq::alphabet::SIGMA;
use pgasm_seq::{FragmentStore, SeqId};

/// Sentinel for "no node / no suffix / no slot".
pub const NONE: u32 = u32::MAX;

/// Number of lset character classes: the four bases plus λ.
pub const NUM_CLASSES: usize = SIGMA + 1;

/// Index of the λ class (suffix starts at position 0 or follows a masked
/// base, so it cannot be extended to the left).
pub const LAMBDA: usize = SIGMA;

/// Configuration of GST construction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GstConfig {
    /// Minimum maximal-match length ψ ≥ 1 for a pair to be *promising*.
    pub psi: usize,
}

impl GstConfig {
    /// Prefix length used for bucketing: ψ, capped at the 31 bases a
    /// packed key holds.
    pub fn bucket_len(self) -> usize {
        self.psi.min(31)
    }
}

impl Default for GstConfig {
    fn default() -> Self {
        // ψ = 20 is a typical promising-pair cutoff at fragment scale.
        GstConfig { psi: 20 }
    }
}

/// Anything that can hand out the code slice of a sequence. Implemented
/// by [`FragmentStore`] and by the per-rank local text of the parallel
/// driver.
pub trait TextSource {
    /// Code slice of sequence `seq`.
    fn seq_codes(&self, seq: u32) -> &[u8];
    /// Number of sequences addressable (bounds the duplicate-elimination
    /// marker array).
    fn num_seqs(&self) -> usize;
}

impl TextSource for FragmentStore {
    fn seq_codes(&self, seq: u32) -> &[u8] {
        self.get(pgasm_seq::SeqId(seq))
    }

    fn num_seqs(&self) -> usize {
        FragmentStore::num_seqs(self)
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Node {
    /// String depth (path-label length) of this node.
    pub depth: u32,
    /// First child, or NONE for a leaf.
    pub first_child: u32,
    /// Next sibling in the parent's child list.
    pub next_sibling: u32,
    /// lset slot index, or NONE when depth < ψ.
    pub lset: u32,
}

/// Construction and traversal statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct GstStats {
    /// Buckets (subtrees) built.
    pub buckets: usize,
    /// Total nodes in the forest.
    pub nodes: usize,
    /// Total leaves.
    pub leaves: usize,
    /// Suffixes seen before bucket admission (in the distributed path
    /// those the building rank received: summed over ranks, every suffix
    /// of the store once).
    pub enumerated: usize,
    /// Suffix entries indexed: those in admitted buckets.
    pub suffixes: usize,
    /// Maximum string depth observed.
    pub max_depth: usize,
    /// Nodes eligible for pair generation (depth ≥ ψ).
    pub eligible_nodes: usize,
}

/// The generalized suffix tree forest over a set of sequences.
pub struct Gst {
    pub(crate) config: GstConfig,
    pub(crate) nodes: Vec<Node>,
    /// Per suffix entry: owning sequence.
    pub(crate) suf_seq: Vec<u32>,
    /// Per suffix entry: start position.
    pub(crate) suf_pos: Vec<u32>,
    /// Per suffix entry: linked-list next pointer within its lset.
    pub(crate) suf_next: Vec<u32>,
    /// lset list heads per slot, per class.
    pub(crate) lset_head: Vec<[u32; NUM_CLASSES]>,
    /// lset list tails per slot, per class.
    pub(crate) lset_tail: Vec<[u32; NUM_CLASSES]>,
    /// Node ids with depth ≥ ψ in processing order: decreasing depth,
    /// ties broken by decreasing creation index so children precede
    /// parents (an exhausted-suffix leaf shares its parent's depth).
    pub(crate) order: Vec<u32>,
    pub(crate) num_seqs: usize,
    pub(crate) stats: GstStats,
}

impl Gst {
    /// Build the GST over every sequence of `store` (serial path). Most
    /// suffixes of a sparse sample are alone in their bucket, so only
    /// those that may be admitted are collected and sorted: a first pass
    /// folds every suffix's left class into the slot its key hashes to,
    /// and a slot — the union of its buckets — that cannot pair holds no
    /// bucket that can. [`Gst::build_from_sorted`] then judges each
    /// bucket exactly.
    pub fn build(store: &FragmentStore, config: GstConfig) -> Gst {
        let suffixes =
            || enumerate_suffixes(store, (0..store.num_seqs() as u32).map(SeqId), config.bucket_len());
        // Sized from the input, one byte per slot: at most half full.
        let bits = (2 * store.total_len()).next_power_of_two().trailing_zeros().max(1);
        let slot = |key: u64| (key.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> (64 - bits)) as usize;
        let mut slots = vec![LeftClasses::default(); 1 << bits];
        let mut enumerated = 0;
        for (key, s) in suffixes() {
            slots[slot(key)].add(s.left);
            enumerated += 1;
        }
        let mut survivors: Vec<_> = suffixes().filter(|&(key, _)| slots[slot(key)].can_pair()).collect();
        drop(slots);
        sort_by_bucket(&mut survivors);
        let mut gst = Gst::build_from_sorted(store, &survivors, config);
        gst.stats.enumerated = enumerated;
        gst
    }

    /// Build from suffixes grouped into buckets by [`sort_by_bucket`]:
    /// every admitted run of equal keys ([`admitted_runs`]) becomes one
    /// subtree. Identical suffixes keep their order within the run.
    /// Shared by the serial path, the per-rank parallel path and scope
    /// adoption.
    pub fn build_from_sorted<T: TextSource>(text: &T, sorted: &[(u64, Suffix)], config: GstConfig) -> Gst {
        let mut scratch = BucketScratch::default();
        let build = |gst: &mut Gst, run: &[(u64, Suffix)]| scratch.build_bucket(gst, text, run);
        Gst::build_buckets(text.num_seqs(), sorted.len(), admitted_runs(sorted), config, build)
    }

    /// The forest whose subtrees `build_bucket` appends, one per run,
    /// with its statistics and processing order.
    fn build_buckets<'r>(
        num_seqs: usize,
        enumerated: usize,
        runs: impl Iterator<Item = &'r [(u64, Suffix)]> + Clone,
        config: GstConfig,
        mut build_bucket: impl FnMut(&mut Gst, &[(u64, Suffix)]),
    ) -> Gst {
        let suffixes: usize = runs.clone().map(<[_]>::len).sum();
        let mut gst = Gst {
            config,
            nodes: Vec::with_capacity(suffixes * 2),
            suf_seq: Vec::with_capacity(suffixes),
            suf_pos: Vec::with_capacity(suffixes),
            suf_next: Vec::with_capacity(suffixes),
            lset_head: Vec::new(),
            lset_tail: Vec::new(),
            order: Vec::new(),
            num_seqs,
            stats: GstStats { enumerated, ..GstStats::default() },
        };
        for run in runs {
            gst.stats.buckets += 1;
            build_bucket(&mut gst, run);
        }
        gst.stats.nodes = gst.nodes.len();
        gst.stats.suffixes = gst.suf_seq.len();
        gst.stats.leaves = gst.nodes.iter().filter(|n| n.first_child == NONE).count();
        gst.stats.max_depth = gst.nodes.iter().map(|n| n.depth as usize).max().unwrap_or(0);
        gst.finish_order();
        gst
    }

    /// Construction/size statistics.
    pub fn stats(&self) -> GstStats {
        self.stats
    }

    /// The configuration the tree was built with.
    pub fn config(&self) -> GstConfig {
        self.config
    }

    /// Number of sequences the tree was built over (bounds the
    /// duplicate-elimination marker array in the pair generator).
    pub fn num_seqs(&self) -> usize {
        self.num_seqs
    }

    /// Estimated resident bytes of the forest: 16 per node, 12 per
    /// indexed suffix, 40 per lset slot, 4 per eligible node. Only
    /// admitted buckets are built, so this measures 0.14 (sparse sample)
    /// to 2.7 (9× coverage) bytes per input character on the benchmark
    /// inputs (paper §7.1 reports ~80 for a tree over every suffix).
    pub fn memory_bytes(&self) -> usize {
        self.nodes.len() * std::mem::size_of::<Node>()
            + self.suf_seq.len() * 12
            + self.lset_head.len() * std::mem::size_of::<[u32; NUM_CLASSES]>() * 2
            + self.order.len() * 4
    }

    fn attach_child(&mut self, parent: u32, child: u32, last_child: &mut u32) {
        if *last_child == NONE {
            self.nodes[parent as usize].first_child = child;
        } else {
            self.nodes[*last_child as usize].next_sibling = child;
        }
        *last_child = child;
    }

    fn new_internal(&mut self, depth: u32) -> u32 {
        let lset = self.alloc_lset(depth);
        let id = self.nodes.len() as u32;
        self.nodes.push(Node { depth, first_child: NONE, next_sibling: NONE, lset });
        id
    }

    /// Create a leaf at string-depth `depth` holding `sufs` (all with
    /// `rem == depth`-equivalent content). The leaf's lsets are built
    /// immediately from the suffixes' left classes (paper S3).
    fn new_leaf(&mut self, depth: u32, sufs: impl Iterator<Item = Suffix>) -> u32 {
        let lset = self.alloc_lset(depth);
        let id = self.nodes.len() as u32;
        self.nodes.push(Node { depth, first_child: NONE, next_sibling: NONE, lset });
        if lset != NONE {
            for s in sufs {
                let entry = self.suf_seq.len() as u32;
                self.suf_seq.push(s.seq);
                self.suf_pos.push(s.pos);
                self.suf_next.push(NONE);
                self.lset_push(lset, s.left as usize, entry);
            }
        }
        id
    }

    fn alloc_lset(&mut self, depth: u32) -> u32 {
        if (depth as usize) < self.config.psi {
            return NONE;
        }
        let slot = self.lset_head.len() as u32;
        self.lset_head.push([NONE; NUM_CLASSES]);
        self.lset_tail.push([NONE; NUM_CLASSES]);
        slot
    }

    pub(crate) fn lset_push(&mut self, slot: u32, class: usize, entry: u32) {
        let s = slot as usize;
        let tail = self.lset_tail[s][class];
        if tail == NONE {
            self.lset_head[s][class] = entry;
        } else {
            self.suf_next[tail as usize] = entry;
        }
        self.lset_tail[s][class] = entry;
        self.suf_next[entry as usize] = NONE;
    }

    /// O(1) concatenation of child list (slot `from`, class) onto slot
    /// `to` — paper: "the lsets at each node are maintained as linked
    /// lists to allow constant time union operations".
    pub(crate) fn lset_concat(&mut self, to: u32, from: u32, class: usize) {
        let (t, f) = (to as usize, from as usize);
        let fh = self.lset_head[f][class];
        if fh == NONE {
            return;
        }
        let tt = self.lset_tail[t][class];
        if tt == NONE {
            self.lset_head[t][class] = fh;
        } else {
            self.suf_next[tt as usize] = fh;
        }
        self.lset_tail[t][class] = self.lset_tail[f][class];
        self.lset_head[f][class] = NONE;
        self.lset_tail[f][class] = NONE;
    }

    /// Children of a node, in attachment order.
    #[cfg(test)]
    pub(crate) fn children(&self, node: u32) -> Vec<u32> {
        let mut out = Vec::new();
        let mut c = self.nodes[node as usize].first_child;
        while c != NONE {
            out.push(c);
            c = self.nodes[c as usize].next_sibling;
        }
        out
    }

    /// Counting sort of eligible nodes by decreasing depth, ties by
    /// decreasing creation index (children were created after parents).
    fn finish_order(&mut self) {
        let psi = self.config.psi;
        let eligible = |n: &Node| (n.depth as usize).checked_sub(psi);
        // next[d - ψ]: where the next node of depth d goes — first the
        // count of nodes at that depth, then the count of deeper ones.
        let mut next = vec![0u32; (self.stats.max_depth + 1).saturating_sub(psi)];
        for d in self.nodes.iter().filter_map(eligible) {
            next[d] += 1;
        }
        let mut deeper = 0;
        for slot in next.iter_mut().rev() {
            deeper += std::mem::replace(slot, deeper);
        }
        self.order = vec![NONE; deeper as usize];
        for (id, n) in self.nodes.iter().enumerate().rev() {
            if let Some(d) = eligible(n) {
                self.order[next[d] as usize] = id as u32;
                next[d] += 1;
            }
        }
        self.stats.eligible_nodes = self.order.len();
    }

    /// Iterate the eligible nodes in processing order (for tests).
    pub fn processing_order(&self) -> impl Iterator<Item = (u32, u32)> + '_ {
        self.order.iter().map(move |&id| (id, self.nodes[id as usize].depth))
    }
}

/// LCP marker: this sorted suffix is identical to the one before it and
/// joins its leaf.
const SAME_LEAF: u32 = u32::MAX;

/// Scratch of the per-bucket builder, reused across the buckets of one
/// build: it grows to the largest bucket and nothing is allocated per
/// level, per node or per bucket.
#[derive(Default)]
struct BucketScratch<'t> {
    /// Per suffix of the bucket: its text beyond the bucket prefix
    /// (bounded by `rem`) and its index in the input run; sorted, ties in
    /// input order.
    tails: Vec<(&'t [u8], u32)>,
    /// Per sorted position: string depth shared with the previous
    /// position (0 at the first), or [`SAME_LEAF`].
    lcp: Vec<u32>,
    /// Per sorted position that starts a leaf: how many internal nodes
    /// have it as their leftmost leaf.
    opens: Vec<u32>,
    /// Depths of those internal nodes, filled right to left (deepest
    /// first per position), drained left to right from the back.
    open_depths: Vec<u32>,
    /// Right-to-left pass: LCP values whose interval is still open,
    /// strictly increasing towards the top.
    lcp_stack: Vec<u32>,
    /// Left-to-right pass: (internal node, its last attached child) from
    /// the bucket root down to the current leaf's parent.
    path: Vec<(u32, u32)>,
    /// Sort comparisons plus loop iterations of the two passes (bytes
    /// read inside one comparison are not counted): what the linear-work
    /// test bounds.
    steps: u64,
}

impl<'t> BucketScratch<'t> {
    /// Build the subtree of one bucket: `run` holds ≥ 2 suffixes sharing
    /// their first `w` = [`GstConfig::bucket_len`] characters.
    fn build_bucket<T: TextSource>(&mut self, gst: &mut Gst, text: &'t T, run: &[(u64, Suffix)]) {
        let w = gst.config.bucket_len();
        let n = run.len();
        self.tails.clear();
        self.tails.extend(run.iter().enumerate().map(|(i, (_, s))| {
            (&text.seq_codes(s.seq)[s.pos as usize + w..(s.pos + s.rem) as usize], i as u32)
        }));
        let steps = &mut self.steps;
        self.tails.sort_unstable_by(|a, b| {
            *steps += 1;
            a.cmp(b)
        });

        // Right to left: adjacent LCPs, and from them the LCP-intervals
        // (internal nodes) by their left end. An interval's depth sits on
        // the stack until a smaller LCP closes it on the left.
        self.lcp.clear();
        self.lcp.resize(n, 0);
        self.opens.clear();
        self.opens.resize(n, 0);
        self.open_depths.clear();
        self.lcp_stack.clear();
        for i in (0..n).rev() {
            self.steps += 1;
            let here = self.tails[i].0;
            let lcp = match i.checked_sub(1).map(|prev| self.tails[prev].0) {
                None => 0,
                Some(prev) => match common_prefix(prev, here) {
                    l if l == prev.len() && l == here.len() => SAME_LEAF,
                    l => (w + l) as u32,
                },
            };
            self.lcp[i] = lcp;
            if lcp == SAME_LEAF {
                continue;
            }
            while let Some(&open) = self.lcp_stack.last().filter(|&&open| open >= lcp) {
                self.steps += 1;
                self.lcp_stack.pop();
                if open > lcp {
                    self.open_depths.push(open);
                    self.opens[i] += 1;
                }
            }
            self.lcp_stack.push(lcp);
        }

        // Left to right: emit in pre-order. Before each leaf, close the
        // internal nodes deeper than its LCP with the previous leaf, then
        // open the ones it is the leftmost leaf of, shallowest first. A
        // suffix that is a proper prefix of its successors has LCP = its
        // own length with them, so it becomes the first child ("exhausted"
        // leaf) of the node opened at that depth.
        self.path.clear();
        let mut i = 0;
        while i < n {
            self.steps += 1;
            while self.path.last().is_some_and(|&(node, _)| gst.nodes[node as usize].depth > self.lcp[i]) {
                self.steps += 1;
                self.path.pop();
            }
            for _ in 0..self.opens[i] {
                self.steps += 1;
                let depth = self.open_depths.pop().expect("one depth per counted interval");
                let node = gst.new_internal(depth);
                if let Some((parent, last_child)) = self.path.last_mut() {
                    gst.attach_child(*parent, node, last_child);
                }
                self.path.push((node, NONE));
            }
            let end = (i + 1..n).find(|&j| self.lcp[j] != SAME_LEAF).unwrap_or(n);
            self.steps += (end - i) as u64;
            let members = self.tails[i..end].iter().map(|&(_, k)| run[k as usize].1);
            let leaf = gst.new_leaf(run[self.tails[i].1 as usize].1.rem, members);
            if let Some((parent, last_child)) = self.path.last_mut() {
                gst.attach_child(*parent, leaf, last_child);
            }
            i = end;
        }
    }
}

/// Length of the longest common prefix of two code slices, eight bytes
/// at a time.
fn common_prefix(a: &[u8], b: &[u8]) -> usize {
    let mut at = 0;
    for (x, y) in a.chunks_exact(8).zip(b.chunks_exact(8)) {
        let x = u64::from_le_bytes(x.try_into().expect("chunk of 8"));
        let y = u64::from_le_bytes(y.try_into().expect("chunk of 8"));
        if x != y {
            return at + ((x ^ y).trailing_zeros() / 8) as usize;
        }
        at += 8;
    }
    at + a[at..].iter().zip(&b[at..]).take_while(|(x, y)| x == y).count()
}

#[cfg(test)]
mod reference;

#[cfg(test)]
mod tests {
    use super::*;
    use pgasm_seq::DnaSeq;

    fn store(seqs: &[&str]) -> FragmentStore {
        FragmentStore::from_seqs(seqs.iter().map(|s| DnaSeq::from(*s)))
    }

    #[test]
    fn empty_store_builds_empty_forest() {
        let st = store(&[]);
        let g = Gst::build(&st, GstConfig { psi: 3 });
        assert_eq!(g.stats().nodes, 0);
        assert_eq!(g.processing_order().count(), 0);
    }

    #[test]
    fn shared_prefix_creates_branching_node() {
        let st = store(&["ACGTAAA", "ACGTTTT"]);
        let g = Gst::build(&st, GstConfig { psi: 3 });
        let s = g.stats();
        assert!(s.nodes > 0);
        assert!(s.max_depth >= 4, "ACGT shared: depth ≥ 4, got {}", s.max_depth);
        // There must be an internal node at depth exactly 4 (ACGT) with
        // two children (A… and T…).
        let found = (0..g.nodes.len() as u32).any(|i| {
            let n = &g.nodes[i as usize];
            n.depth == 4 && n.first_child != NONE && g.children(i).len() == 2
        });
        assert!(found, "expected a binary branching node at depth 4");
    }

    #[test]
    fn order_is_decreasing_depth_children_first() {
        let st = store(&["ACGTACGTAA", "ACGTACGTTT", "CGTACGTAAG"]);
        let g = Gst::build(&st, GstConfig { psi: 3 });
        let order: Vec<(u32, u32)> = g.processing_order().collect();
        assert!(!order.is_empty());
        for win in order.windows(2) {
            assert!(win[0].1 >= win[1].1, "depth order violated: {win:?}");
        }
        // Every child must appear before its parent.
        let position: std::collections::HashMap<u32, usize> =
            order.iter().enumerate().map(|(i, &(id, _))| (id, i)).collect();
        for (&id, &pos) in &position {
            for c in g.children(id) {
                if let Some(&cpos) = position.get(&c) {
                    assert!(cpos < pos, "child {c} after parent {id}");
                }
            }
        }
    }

    #[test]
    fn lsets_partition_by_preceding_char() {
        // "AACGT" and "CACGT" and "ACGT": suffix ACGT preceded by A, C, λ.
        let st = store(&["AACGT", "CACGT", "ACGT"]);
        let g = Gst::build(&st, GstConfig { psi: 4 });
        // Find the node whose subtree holds all three ACGT suffixes: the
        // bucket of ACGT. It has depth 4 and three suffixes exhausted.
        let mut found = false;
        for (id, _) in g.processing_order() {
            let n = &g.nodes[id as usize];
            if n.lset == NONE {
                continue;
            }
            let slot = n.lset as usize;
            let count_class = |class: usize| {
                let mut c = 0;
                let mut e = g.lset_head[slot][class];
                while e != NONE {
                    c += 1;
                    e = g.suf_next[e as usize];
                }
                c
            };
            if n.depth == 4
                && n.first_child == NONE
                && count_class(0) + count_class(1) + count_class(LAMBDA) == 3
            {
                assert_eq!(count_class(0), 1, "one suffix preceded by A");
                assert_eq!(count_class(1), 1, "one suffix preceded by C");
                assert_eq!(count_class(LAMBDA), 1, "one suffix at position 0");
                found = true;
            }
        }
        assert!(found, "expected the ACGT leaf with 3 partitioned suffixes");
    }

    #[test]
    fn psi_limits_eligible_nodes() {
        let st = store(&["ACGTACGTAA", "ACGTACGTTT"]);
        let low = Gst::build(&st, GstConfig { psi: 3 });
        let high = Gst::build(&st, GstConfig { psi: 8 });
        assert!(high.stats().eligible_nodes < low.stats().eligible_nodes);
    }

    #[test]
    fn memory_estimate_nonzero() {
        let st = store(&["ACGTACGTAA", "ACGTACGTTT"]);
        let g = Gst::build(&st, GstConfig { psi: 3 });
        assert!(g.memory_bytes() > 0);
    }
}

//! # pgasm-gst — generalized suffix tree and promising-pair generation
//!
//! Implements §5–§6 of the paper:
//!
//! - [`suffix`] — suffix enumeration into one flat `(ψ-mer key, suffix)`
//!   array, each suffix carrying its left class, and its stable sort by
//!   key; a bucket is a run of that array, *admitted* to the tree only
//!   if it can emit a pair (two suffixes or more, not all after the same
//!   real base). Shared by the serial builder, the per-rank parallel
//!   build and scope adoption in `pgasm-core`, which all walk the forward
//!   strand of a double-stranded store only: each window yields its
//!   suffix and the reverse strand's twin over the same bases. Before
//!   any bucket sort, suffixes go through an [`AdmissionTable`], one
//!   open-addressed, fingerprinted table of words: the serial build and
//!   scope adoption fold every window into it, a rank's builder the
//!   suffixes it received, so the sort sees about what is indexed. The
//!   distributed count and reduce alone fold into a [`SlotTable`], whose
//!   whole-store slot space lets the ranks' parts
//!   [merge](TwinClasses::merge) slot by slot.
//! - [`tree`] — the generalized suffix tree (GST) over a fragment set
//!   (typically fragments *and* their reverse complements), stored as a
//!   forest of compacted tries, one per admitted bucket. Each bucket is
//!   sorted on its text beyond the bucket prefix and its nodes are
//!   emitted in pre-order from (sorted order, adjacent LCPs) — one
//!   builder, with per-build scratch and no allocation per level, node
//!   or bucket. The portion of the GST above string-depth ψ is never
//!   materialised ("the top portion of the GST is not needed for pair
//!   generation").
//! - [`pairs`] — the on-demand *promising pair* generator: fragment
//!   pairs sharing a maximal match of length ≥ ψ, produced in
//!   non-increasing order of maximal-match length, O(1) time per pair,
//!   linear space, via `lsets` (partitions of subtree suffixes by
//!   preceding character) processed bottom-up in decreasing string-depth
//!   order. Supports the paper's *duplicate elimination* refinement that
//!   generates each fragment pair at most once per node.
//! - [`brute`] — an exhaustive O(L²) maximal-match oracle used by tests
//!   and benches to verify generator completeness.
//!
//! Masked bases (repeats, vector) never match; exact matches therefore
//! never cross a masked position, which is modelled by enumerating
//! suffixes per *unmasked run* and bounding each suffix at its run end.

pub mod artifact;
pub mod brute;
pub mod pairs;
pub mod suffix;
pub mod tree;

pub use artifact::GST_CODEC_SCHEMA;
pub use pairs::{GenMode, PairGenerator, PromisingPair};
pub use suffix::{
    admitted_runs, enumerate_suffixes, for_each_window, sort_by_bucket, sort_walk_by_bucket, AdmissionTable,
    LeftClasses, SlotTable, Suffix, TwinClasses, Window,
};
pub use tree::{Gst, GstConfig, GstStats, TextSource};

//! On-disk serialization of a built [`Gst`] — the expensive index the
//! artifact cache persists (ERA treats suffix-tree construction the same
//! way: an index worth building once and reloading).
//!
//! The encoding is the checked length-prefixed framing of
//! [`pgasm_seq::wire`]: flat little-endian arrays mirroring the arena
//! layout, no pointers to fix up. Decoding re-checks every structural
//! invariant the pair generator relies on — array lengths agree,
//! node/suffix/lset indices in range, child/sibling/list links point
//! forward (so every walk terminates), every node in the processing
//! order and each of its children owns an lset slot — so a corrupt frame
//! errors instead of producing a tree that panics or hangs
//! mid-generation.

use crate::tree::{Gst, GstConfig, GstStats, Node, NONE, NUM_CLASSES};
use pgasm_seq::wire::{Reader, WireError, Writer};

/// Bump when the encoding below changes shape, or when the same
/// parameters start to mean a different forest — a cache entry written
/// by a different schema is rejected and rebuilt, never misparsed.
/// 2: only admitted buckets are built; the header has no `w`, the stats
/// gain `enumerated`.
pub const GST_CODEC_SCHEMA: u32 = 2;

impl Gst {
    /// Serialize the forest into `w`. Inverse of [`Gst::decode_from`].
    pub fn encode_into(&self, w: &mut Writer) {
        w.put_u32(self.config.psi as u32);
        w.put_u64(self.num_seqs as u64);
        w.put_u32(pgasm_seq::wire::checked_len(self.nodes.len()));
        for n in &self.nodes {
            w.put_u32(n.depth).put_u32(n.first_child).put_u32(n.next_sibling).put_u32(n.lset);
        }
        w.put_u32_slice(&self.suf_seq);
        w.put_u32_slice(&self.suf_pos);
        w.put_u32_slice(&self.suf_next);
        w.put_u32(pgasm_seq::wire::checked_len(self.lset_head.len()));
        for slot in 0..self.lset_head.len() {
            for c in 0..NUM_CLASSES {
                w.put_u32(self.lset_head[slot][c]);
            }
            for c in 0..NUM_CLASSES {
                w.put_u32(self.lset_tail[slot][c]);
            }
        }
        w.put_u32_slice(&self.order);
        let s = self.stats;
        for v in [s.buckets, s.nodes, s.leaves, s.enumerated, s.suffixes, s.max_depth, s.eligible_nodes] {
            w.put_u64(v as u64);
        }
    }

    /// Decode a forest previously written by [`Gst::encode_into`].
    pub fn decode_from(r: &mut Reader<'_>) -> Result<Gst, WireError> {
        let psi = r.get_u32()? as usize;
        if psi == 0 {
            return Err(WireError::Malformed("GST config out of range"));
        }
        let config = GstConfig { psi };
        let num_seqs = r.get_u64()? as usize;
        let num_nodes = r.get_u32()? as usize;
        let mut nodes = Vec::new();
        nodes.try_reserve_exact(num_nodes).map_err(|_| WireError::Malformed("node count implausible"))?;
        for _ in 0..num_nodes {
            nodes.push(Node {
                depth: r.get_u32()?,
                first_child: r.get_u32()?,
                next_sibling: r.get_u32()?,
                lset: r.get_u32()?,
            });
        }
        let suf_seq = r.get_u32_slice()?;
        let suf_pos = r.get_u32_slice()?;
        let suf_next = r.get_u32_slice()?;
        let num_slots = r.get_u32()? as usize;
        let mut lset_head = Vec::new();
        let mut lset_tail = Vec::new();
        lset_head.try_reserve_exact(num_slots).map_err(|_| WireError::Malformed("slot count implausible"))?;
        lset_tail.try_reserve_exact(num_slots).map_err(|_| WireError::Malformed("slot count implausible"))?;
        for _ in 0..num_slots {
            let mut head = [NONE; NUM_CLASSES];
            let mut tail = [NONE; NUM_CLASSES];
            for h in head.iter_mut() {
                *h = r.get_u32()?;
            }
            for t in tail.iter_mut() {
                *t = r.get_u32()?;
            }
            lset_head.push(head);
            lset_tail.push(tail);
        }
        let order = r.get_u32_slice()?;
        let mut stats_fields = [0usize; 7];
        for f in stats_fields.iter_mut() {
            *f = r.get_u64()? as usize;
        }
        let [buckets, nodes_built, leaves, enumerated, suffixes, max_depth, eligible_nodes] = stats_fields;
        let stats =
            GstStats { buckets, nodes: nodes_built, leaves, enumerated, suffixes, max_depth, eligible_nodes };

        // Structural validation: every cross-array index must be NONE or
        // in range, or traversal would index out of bounds later.
        let ns = suf_seq.len();
        if suf_pos.len() != ns || suf_next.len() != ns {
            return Err(WireError::Malformed("suffix arrays disagree on length"));
        }
        // Nodes are numbered in pre-order and a leaf's suffix entries in
        // insertion order, so a link is NONE or points forward, in range.
        let forward =
            |from: usize, to: u32, len: usize| to == NONE || (from < to as usize && (to as usize) < len);
        let suf_ok = |i: u32| i == NONE || (i as usize) < ns;
        for (id, n) in nodes.iter().enumerate() {
            if !forward(id, n.first_child, nodes.len()) || !forward(id, n.next_sibling, nodes.len()) {
                return Err(WireError::Malformed("node child/sibling link out of range or not forward"));
            }
            if n.lset != NONE && n.lset as usize >= lset_head.len() {
                return Err(WireError::Malformed("node lset slot out of range"));
            }
        }
        for (entry, (&seq, &next)) in suf_seq.iter().zip(&suf_next).enumerate() {
            if seq as usize >= num_seqs {
                return Err(WireError::Malformed("suffix sequence id out of range"));
            }
            if !forward(entry, next, ns) {
                return Err(WireError::Malformed("suffix list link out of range or not forward"));
            }
        }
        for slot in 0..lset_head.len() {
            for c in 0..NUM_CLASSES {
                if !suf_ok(lset_head[slot][c]) || !suf_ok(lset_tail[slot][c]) {
                    return Err(WireError::Malformed("lset head/tail out of range"));
                }
            }
        }
        // The generator reads the lset of every node in the order and of
        // each of its children. has_lsets[c]: c and its later siblings
        // all own a slot (sibling links point forward, so one reverse
        // sweep settles every chain). The order is by depth, so it is
        // only used to mark nodes; the sweep reads them in sequence.
        let mut listed = vec![false; nodes.len()];
        for &id in &order {
            *listed
                .get_mut(id as usize)
                .ok_or(WireError::Malformed("processing order references unknown node"))? = true;
        }
        let mut has_lsets = vec![false; nodes.len()];
        for (id, n) in nodes.iter().enumerate().rev() {
            has_lsets[id] = n.lset != NONE && (n.next_sibling == NONE || has_lsets[n.next_sibling as usize]);
            if listed[id] && (n.lset == NONE || (n.first_child != NONE && !has_lsets[n.first_child as usize]))
            {
                return Err(WireError::Malformed("processing order lists a node or child without lsets"));
            }
        }

        Ok(Gst { config, nodes, suf_seq, suf_pos, suf_next, lset_head, lset_tail, order, num_seqs, stats })
    }

    /// Convenience: encode into a fresh buffer.
    pub fn encode(&self) -> Vec<u8> {
        let mut w = Writer::with_capacity(self.memory_bytes() + 64);
        self.encode_into(&mut w);
        w.finish()
    }

    /// Convenience: decode a full buffer, requiring exact consumption.
    pub fn decode(buf: &[u8]) -> Result<Gst, WireError> {
        let mut r = Reader::new(buf);
        let gst = Gst::decode_from(&mut r)?;
        r.expect_end()?;
        Ok(gst)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pairs::{GenMode, PairGenerator, PromisingPair};
    use pgasm_seq::{DnaSeq, FragmentStore};

    fn sample_store() -> FragmentStore {
        // Overlapping tiles of a deterministic pseudo-random text so the
        // tree has internal structure, lsets, and duplicate suffixes.
        let mut x = 0x9E3779B97F4A7C15u64;
        let g: String = (0..400)
            .map(|_| {
                x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                ['A', 'C', 'G', 'T'][(x >> 33) as usize % 4]
            })
            .collect();
        let b = g.as_bytes();
        FragmentStore::from_seqs((0..=300 / 50).map(|i| DnaSeq::from_ascii(&b[i * 50..i * 50 + 100])))
    }

    fn pairs_of(gst: Gst) -> Vec<PromisingPair> {
        PairGenerator::new(gst, GenMode::DupElim, |_, _| false).collect()
    }

    #[test]
    fn decoded_gst_generates_identical_pairs() {
        let store = sample_store().with_reverse_complements();
        let config = GstConfig { psi: 16 };
        let original = Gst::build(&store, config);
        let stats = original.stats();
        let bytes = original.encode();
        let decoded = Gst::decode(&bytes).expect("round trip");
        assert!(decoded == original, "the encoding carries every field");
        assert_eq!(decoded.stats(), stats);
        assert_eq!(decoded.config(), config);
        assert_eq!(decoded.num_seqs(), store.num_seqs());
        let expect = pairs_of(Gst::build(&store, config));
        assert_eq!(pairs_of(decoded), expect);
        assert!(!expect.is_empty(), "fixture must exercise pair generation");
    }

    #[test]
    fn empty_gst_round_trips() {
        let store = FragmentStore::new();
        let gst = Gst::build(&store, GstConfig { psi: 4 });
        let decoded = Gst::decode(&gst.encode()).unwrap();
        assert_eq!(decoded.stats(), gst.stats());
    }

    #[test]
    fn truncation_never_panics() {
        let store = sample_store().with_reverse_complements();
        let bytes = Gst::build(&store, GstConfig { psi: 16 }).encode();
        for cut in (0..bytes.len()).step_by(7) {
            assert!(Gst::decode(&bytes[..cut]).is_err(), "cut at {cut} decoded");
        }
    }

    /// Byte offset of field `field` (depth, first_child, next_sibling,
    /// lset) of node `id`: psi(4) num_seqs(8) node_count(4) nodes….
    fn node_field(id: usize, field: usize) -> usize {
        4 + 8 + 4 + 16 * id + 4 * field
    }

    fn patched(bytes: &[u8], at: usize, value: u32) -> Vec<u8> {
        let mut out = bytes.to_vec();
        out[at..at + 4].copy_from_slice(&value.to_le_bytes());
        out
    }

    fn malformed(bytes: &[u8]) -> bool {
        matches!(Gst::decode(bytes), Err(WireError::Malformed(_)))
    }

    #[test]
    fn links_that_do_not_point_forward_are_rejected() {
        let store = sample_store().with_reverse_complements();
        let gst = Gst::build(&store, GstConfig { psi: 16 });
        let bytes = gst.encode();
        assert!(Gst::decode(&bytes).is_ok());
        // A sibling cycle (the root's first child names itself as its
        // next sibling) or a child link back to the parent would have
        // the generator walk forever.
        let inner = gst.nodes.iter().position(|n| n.first_child != NONE).expect("an internal node");
        let child = gst.nodes[inner].first_child;
        assert!(malformed(&patched(&bytes, node_field(child as usize, 2), child)), "sibling self-loop");
        assert!(malformed(&patched(&bytes, node_field(child as usize, 1), inner as u32)), "child → parent");
        assert!(malformed(&patched(&bytes, node_field(inner, 1), inner as u32)), "node its own child");
    }

    #[test]
    fn suffix_lists_that_loop_are_rejected() {
        // Three copies of one read: only the bucket of the read starts
        // is admitted, a single leaf listing all three in class λ, so
        // there are two list links to bend.
        let read = DnaSeq::from("ACGTTGCAAGCT");
        let store = FragmentStore::from_seqs(vec![read.clone(), read.clone(), read]);
        let gst = Gst::build(&store, GstConfig { psi: 4 });
        let bytes = gst.encode();
        assert!(Gst::decode(&bytes).is_ok());
        let entry = gst.suf_next.iter().rposition(|&n| n != NONE).expect("a two-suffix list");
        assert!(entry > 0);
        let suf_next_at = node_field(gst.nodes.len(), 0) + 2 * (4 + 4 * gst.suf_seq.len()) + 4;
        let at = suf_next_at + 4 * entry;
        assert_eq!(bytes[at..at + 4], gst.suf_next[entry].to_le_bytes(), "offset arithmetic");
        assert!(malformed(&patched(&bytes, at, entry as u32)), "entry its own successor");
        assert!(malformed(&patched(&bytes, at, entry as u32 - 1)), "link backwards");
    }

    #[test]
    fn order_entries_without_lsets_are_rejected() {
        let store = sample_store().with_reverse_complements();
        let gst = Gst::build(&store, GstConfig { psi: 16 });
        let bytes = gst.encode();
        // The generator indexes lset_head by the lset of every node in
        // the order and of each of its children; NONE there is an
        // out-of-bounds panic.
        let listed = gst.order[0] as usize;
        assert!(malformed(&patched(&bytes, node_field(listed, 3), NONE)), "listed node without lsets");
        let parent =
            *gst.order.iter().find(|&&id| gst.nodes[id as usize].first_child != NONE).expect("internal");
        let first = gst.nodes[parent as usize].first_child as usize;
        let last = gst.children(parent).pop().expect("children") as usize;
        assert!(malformed(&patched(&bytes, node_field(first, 3), NONE)), "first child without lsets");
        assert!(malformed(&patched(&bytes, node_field(last, 3), NONE)), "last child without lsets");
        // A shallow node (ψ > 31: the bucket prefix stops short of ψ)
        // may lack lsets as long as the order skips it. A read start
        // that shares 35 bases with the inside of another read branches
        // at depth 35 < 40.
        let tiles = sample_store();
        let mut reads: Vec<DnaSeq> = (0..tiles.num_seqs() as u32)
            .map(|i| DnaSeq::from_codes(tiles.get(pgasm_seq::SeqId(i)).to_vec()))
            .collect();
        let mut probe = reads[0].codes()[20..55].to_vec();
        probe.extend((0..10).map(|i| 3 - reads[0].codes()[55 + i]));
        reads.push(DnaSeq::from_codes(probe));
        let shallow = Gst::build(&FragmentStore::from_seqs(reads), GstConfig { psi: 40 });
        assert!(shallow.nodes.iter().any(|n| n.lset == NONE && n.depth == 35));
        assert!(shallow.stats().eligible_nodes > 0);
        assert!(Gst::decode(&shallow.encode()).is_ok());
    }

    #[test]
    fn corrupt_index_rejected() {
        let store = sample_store().with_reverse_complements();
        let gst = Gst::build(&store, GstConfig { psi: 16 });
        let mut bad = gst.encode();
        // Overwrite the first node's first_child with a huge index.
        // Layout: psi(4) num_seqs(8) node_count(4) depth(4) first_child…
        let off = node_field(0, 1);
        bad[off..off + 4].copy_from_slice(&0x7FFF_FFF0u32.to_le_bytes());
        assert!(Gst::decode(&bad).is_err());
    }
}

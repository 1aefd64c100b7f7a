//! On-disk serialization of a [`PreprocessOutput`] — the artifact the
//! cache persists so a repeated run skips trimming, repeat discovery,
//! and masking entirely.
//!
//! The payload leads with what every warm run reads and ends with what
//! only a stage that misses needs:
//!
//! 1. **Summary** ([`PreprocessSummary`]): the fragment count, the
//!    origin map, the Table-2 stats, and the [`PreprocessDigests`] of
//!    the masked store, the unmasked store and the quality tracks —
//!    from which the partition and contigs cache keys derive.
//! 2. **Bulk**: every base once — the unmasked store, then each
//!    fragment's masked runs (`[start, end)` pairs, in fragment
//!    coordinates, where the masked store hides a base the unmasked one
//!    holds) — then each fragment's quality track ([`PreprocessBulk`]).
//!
//! It uses the checked length-prefixed framing of [`pgasm_seq::wire`].
//! Decoding validates every cross-array invariant (runs inside their
//! fragment, tracks as long as their fragments, stores matching the
//! summary's digests), so a corrupt or truncated frame reports an error
//! — the pipeline treats that as a miss and recomputes — instead of
//! handing it an inconsistent output.

use crate::pipeline::{PreprocessOutput, PreprocessStats};
use pgasm_seq::wire::{checked_len, Reader, WireError, Writer};
use pgasm_seq::{quals_digest, store_digest, FragmentStore, QualityTrack, MASK};
use std::collections::HashMap;

/// Bump when the encoding below changes shape — a cache entry written
/// by a different schema is rejected and rebuilt, never misparsed.
/// 2: the summary leads, with the stores' digests; bases stored once.
pub const PREPROCESS_CODEC_SCHEMA: u32 = 2;

/// Content digests ([`store_digest`], [`quals_digest`]) of an output's
/// three bulk arrays: what the later stages' cache keys fold.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PreprocessDigests {
    /// Of the masked store (the clustering view).
    pub store: u64,
    /// Of the unmasked store (the assembly view).
    pub store_unmasked: u64,
    /// Of the quality tracks.
    pub quals: u64,
}

/// The head of a preprocess artifact: everything but the bases and the
/// qualities.
#[derive(Debug, Clone, PartialEq)]
pub struct PreprocessSummary {
    /// For each surviving fragment, the index of its original read; its
    /// length is the fragment count.
    pub origin: Vec<usize>,
    /// Accounting.
    pub stats: PreprocessStats,
    /// The digests of the bulk that follows.
    pub digests: PreprocessDigests,
}

/// The decoded bulk of a preprocess artifact: the three arrays of
/// [`PreprocessOutput`] the summary leaves out.
#[derive(Debug, Clone, PartialEq)]
pub struct PreprocessBulk {
    /// The masked store, rebuilt from the unmasked one and the runs.
    pub store: FragmentStore,
    /// The unmasked store.
    pub store_unmasked: FragmentStore,
    /// The quality tracks.
    pub quals: Vec<QualityTrack>,
}

impl PreprocessDigests {
    /// The digests of these arrays.
    pub fn of(store: &FragmentStore, store_unmasked: &FragmentStore, quals: &[QualityTrack]) -> Self {
        PreprocessDigests {
            store: store_digest(store),
            store_unmasked: store_digest(store_unmasked),
            quals: quals_digest(quals),
        }
    }
}

fn put_label_map(w: &mut Writer, map: &HashMap<String, (usize, usize)>) {
    // HashMap iteration order is unstable; sort so equal outputs encode
    // to identical bytes (the cache digests payloads).
    let mut entries: Vec<(&String, &(usize, usize))> = map.iter().collect();
    entries.sort();
    w.put_u32(checked_len(entries.len()));
    for (label, &(n, bases)) in entries {
        w.put_str(label);
        w.put_u64(n as u64);
        w.put_u64(bases as u64);
    }
}

fn get_label_map(r: &mut Reader<'_>) -> Result<HashMap<String, (usize, usize)>, WireError> {
    let n = r.get_u32()? as usize;
    let mut map = HashMap::with_capacity(n.min(1024));
    for _ in 0..n {
        let label = r.get_str()?.to_string();
        let count = r.get_u64()? as usize;
        let bases = r.get_u64()? as usize;
        if map.insert(label, (count, bases)).is_some() {
            return Err(WireError::Malformed("duplicate strategy label"));
        }
    }
    Ok(map)
}

/// Append to `runs` the `[start, end)` pairs of the positions where
/// `masked` hides a base of `unmasked`.
///
/// # Panics
/// If the two differ in length or anywhere but by a mask: the masked
/// store is the unmasked one with repeats masked, by construction.
fn masked_runs(masked: &[u8], unmasked: &[u8], runs: &mut Vec<u32>) {
    assert_eq!(masked.len(), unmasked.len(), "masked and unmasked fragments differ in length");
    let mut open = None;
    for (at, (&m, &u)) in masked.iter().zip(unmasked).enumerate() {
        assert!(m == u || m == MASK, "the masked store differs from the unmasked one by more than masks");
        match (m != u, open) {
            (true, None) => open = Some(at),
            (false, Some(start)) => {
                runs.extend([checked_len(start), checked_len(at)]);
                open = None;
            }
            _ => {}
        }
    }
    if let Some(start) = open {
        runs.extend([checked_len(start), checked_len(masked.len())]);
    }
}

/// Mask `runs` — validated pairs of [`masked_runs`] — in `codes`.
fn apply_runs(codes: &mut [u8], runs: &[u32]) -> Result<(), WireError> {
    if !runs.len().is_multiple_of(2) {
        return Err(WireError::Malformed("masked run without an end"));
    }
    let mut next = 0;
    for pair in runs.chunks_exact(2) {
        let (start, end) = (pair[0] as usize, pair[1] as usize);
        if start < next || start >= end {
            return Err(WireError::Malformed("masked runs empty, overlapping or out of order"));
        }
        codes
            .get_mut(start..end)
            .ok_or(WireError::Malformed("masked run past its fragment's end"))?
            .fill(MASK);
        next = end + 1;
    }
    Ok(())
}

impl PreprocessOutput {
    /// The digests of this output's bulk arrays.
    pub fn digests(&self) -> PreprocessDigests {
        PreprocessDigests::of(&self.store, &self.store_unmasked, &self.quals)
    }

    /// Encode into a fresh buffer. Inverse of [`PreprocessOutput::decode`].
    pub fn encode(&self) -> Vec<u8> {
        self.encode_with(&self.digests())
    }

    /// [`PreprocessOutput::encode`] with this output's
    /// [digests](PreprocessOutput::digests), computed once by the caller.
    ///
    /// # Panics
    /// If the masked store is not the unmasked one with runs masked.
    pub fn encode_with(&self, digests: &PreprocessDigests) -> Vec<u8> {
        let bases = self.store_unmasked.total_len();
        let mut w = Writer::with_capacity(2 * bases + 32 * self.origin.len() + 256);
        w.put_u32(checked_len(self.origin.len()));
        for &o in &self.origin {
            w.put_u64(o as u64);
        }
        put_label_map(&mut w, &self.stats.before);
        put_label_map(&mut w, &self.stats.after);
        w.put_u64(self.stats.rejected_by_trim as u64);
        w.put_u64(self.stats.rejected_by_mask as u64);
        w.put_u64(self.stats.masked_bases as u64);
        w.put_u64(digests.store).put_u64(digests.store_unmasked).put_u64(digests.quals);

        assert_eq!(self.store.num_seqs(), self.store_unmasked.num_seqs(), "masked/unmasked store sizes");
        self.store_unmasked.encode_into(&mut w);
        let mut runs = Vec::new();
        for ((_, masked), (_, unmasked)) in self.store.iter().zip(self.store_unmasked.iter()) {
            runs.clear();
            if masked != unmasked {
                masked_runs(masked, unmasked, &mut runs);
            }
            w.put_u32_slice(&runs);
        }
        for q in &self.quals {
            w.put_bytes(q.values());
        }
        w.finish()
    }

    /// Decode a whole artifact: its summary, then its bulk.
    pub fn decode(buf: &[u8]) -> Result<PreprocessOutput, WireError> {
        let (PreprocessSummary { origin, stats, digests }, at) = PreprocessSummary::decode(buf)?;
        let PreprocessBulk { store, store_unmasked, quals } =
            PreprocessBulk::decode(&buf[at..], origin.len(), &digests)?;
        Ok(PreprocessOutput { store, store_unmasked, quals, origin, stats })
    }
}

impl PreprocessSummary {
    /// Decode the summary at the head of an artifact; returns it and the
    /// offset of the bulk in `buf`.
    pub fn decode(buf: &[u8]) -> Result<(PreprocessSummary, usize), WireError> {
        let mut r = Reader::new(buf);
        let n = r.get_u32()? as usize;
        let origin = r.get_raw(n * 8)?.chunks_exact(8);
        let origin =
            origin.map(|o| u64::from_le_bytes(o.try_into().expect("8-byte chunks")) as usize).collect();
        let stats = PreprocessStats {
            before: get_label_map(&mut r)?,
            after: get_label_map(&mut r)?,
            rejected_by_trim: r.get_u64()? as usize,
            rejected_by_mask: r.get_u64()? as usize,
            masked_bases: r.get_u64()? as usize,
        };
        let digests =
            PreprocessDigests { store: r.get_u64()?, store_unmasked: r.get_u64()?, quals: r.get_u64()? };
        Ok((PreprocessSummary { origin, stats, digests }, buf.len() - r.remaining()))
    }
}

impl PreprocessBulk {
    /// Decode the bulk of an artifact (the payload after its summary)
    /// whose summary reads `n` fragments with `digests`: an error unless
    /// it holds exactly `n` fragments and matches the digests.
    pub fn decode(bulk: &[u8], n: usize, digests: &PreprocessDigests) -> Result<PreprocessBulk, WireError> {
        let mut r = Reader::new(bulk);
        let store_unmasked = FragmentStore::decode_from(&mut r)?;
        if store_unmasked.is_double_stranded() || store_unmasked.num_seqs() != n {
            return Err(WireError::Malformed("unmasked store does not hold the summary's fragments"));
        }
        let mut store = FragmentStore::with_capacity(n, store_unmasked.total_len());
        let mut codes = Vec::new();
        for (_, unmasked) in store_unmasked.iter() {
            let runs = r.get_u32_slice()?;
            if runs.is_empty() {
                store.push_codes(unmasked);
                continue;
            }
            codes.clear();
            codes.extend_from_slice(unmasked);
            apply_runs(&mut codes, &runs)?;
            store.push_codes(&codes);
        }
        let mut quals = Vec::with_capacity(n);
        for (_, unmasked) in store_unmasked.iter() {
            let values = r.get_bytes()?;
            if values.len() != unmasked.len() {
                return Err(WireError::Malformed("quality track and fragment lengths differ"));
            }
            quals.push(QualityTrack::from_values(values.to_vec()));
        }
        r.expect_end()?;
        if PreprocessDigests::of(&store, &store_unmasked, &quals) != *digests {
            return Err(WireError::Malformed("bulk does not match the summary's digests"));
        }
        Ok(PreprocessBulk { store, store_unmasked, quals })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::{PreprocessConfig, Preprocessor};
    use pgasm_seq::DnaSeq;
    use pgasm_simgen::genome::{Genome, GenomeSpec};
    use pgasm_simgen::sampler::{Sampler, SamplerConfig};
    use pgasm_simgen::vector::VECTOR_SEQ;

    /// Reads over a repeat-rich genome, masked against its library, with
    /// an `N` base in every fifth read.
    fn sample_output() -> PreprocessOutput {
        let genome = Genome::generate(&GenomeSpec::small(), 11);
        let mut sampler = Sampler::new(&genome, SamplerConfig::default_scaled(), 12);
        let mut reads = sampler.wgs(60);
        for seq in reads.seqs.iter_mut().step_by(5) {
            let mid = seq.len() / 2;
            seq.codes_mut()[mid] = MASK;
        }
        let pp = Preprocessor::new(
            PreprocessConfig::default(),
            &[DnaSeq::from(VECTOR_SEQ)],
            &genome.repeat_library,
        );
        pp.run(&reads)
    }

    /// Offsets of fragment `i`'s masked runs and of the last quality
    /// track in an encoded `out`.
    fn sections(out: &PreprocessOutput, bytes: &[u8], i: usize) -> (usize, usize) {
        let (_, at) = PreprocessSummary::decode(bytes).unwrap();
        let mut r = Reader::new(&bytes[at..]);
        FragmentStore::decode_from(&mut r).unwrap();
        for _ in 0..i {
            r.get_u32_slice().unwrap();
        }
        let last = out.quals.last().unwrap().len();
        (bytes.len() - r.remaining(), bytes.len() - 4 - last)
    }

    #[test]
    fn round_trip_is_exact_with_masked_runs_and_n_bases() {
        let out = sample_output();
        assert!(out.store.num_seqs() > 0, "fixture must produce survivors");
        assert!(out.stats.masked_bases > 0, "the fixture masks nothing");
        let n_bases = out.store_unmasked.iter().flat_map(|(_, codes)| codes).filter(|&&c| c == MASK).count();
        assert!(n_bases > 0, "no N base survived trimming");
        let bytes = out.encode();
        let back = PreprocessOutput::decode(&bytes).expect("round trip");
        assert_eq!(back.store, out.store, "the runs rebuild the masked store byte for byte");
        assert_eq!(back, out);
        // Every base is stored once: the payload is about one byte of
        // bases and one of quality per base.
        assert!(
            bytes.len() < 2 * out.store.total_len() + 40 * out.origin.len() + 256,
            "{} bytes",
            bytes.len()
        );
        let (summary, _) = PreprocessSummary::decode(&bytes).unwrap();
        assert_eq!(summary.digests, out.digests());
        assert_eq!((summary.origin, summary.stats), (out.origin, out.stats));
    }

    #[test]
    fn truncation_never_panics() {
        let bytes = sample_output().encode();
        for cut in (0..bytes.len()).step_by(13) {
            assert!(PreprocessOutput::decode(&bytes[..cut]).is_err(), "cut at {cut} decoded");
        }
    }

    #[test]
    fn a_bulk_that_breaks_an_invariant_is_an_error() {
        let out = sample_output();
        let bytes = out.encode();
        let bad = |what: &str, bytes: Vec<u8>| {
            let (summary, at) = PreprocessSummary::decode(&bytes).expect("the summary is intact");
            let n = summary.origin.len();
            assert!(PreprocessBulk::decode(&bytes[at..], n, &summary.digests).is_err(), "{what}");
            assert!(PreprocessOutput::decode(&bytes).is_err(), "{what}");
        };
        let splice = |from: usize, to: usize, with: &[u8]| [&bytes[..from], with, &bytes[to..]].concat();
        let u32s = |v: &[u32]| {
            let mut w = Writer::new();
            w.put_u32_slice(v);
            w.finish()
        };
        // Fragment 0's runs, replaced by one that ends past the fragment,
        // by an unclosed one, and by two out of order.
        let len = out.store.len_of(pgasm_seq::SeqId(0)) as u32;
        let (runs, last_qual) = sections(&out, &bytes, 0);
        let (next, _) = sections(&out, &bytes, 1);
        bad("a run past the end", splice(runs, next, &u32s(&[0, len + 1])));
        bad("a run without an end", splice(runs, next, &u32s(&[3])));
        bad("runs out of order", splice(runs, next, &u32s(&[5, 8, 1, 2])));
        bad("runs not maximal", splice(runs, next, &u32s(&[1, 2, 2, 3])));
        // A run that is valid but not the output's: the digest catches it.
        bad("a run the digest does not know", splice(runs, next, &u32s(&[0, 1])));
        // The last quality track one value short.
        let track = out.quals.last().unwrap().values();
        let mut short = Writer::new();
        short.put_bytes(&track[..track.len() - 1]);
        bad("a short quality track", splice(last_qual, bytes.len(), &short.finish()));
        // One quality value changed: the digest catches it.
        let mut changed = bytes.clone();
        *changed.last_mut().unwrap() ^= 1;
        bad("a changed quality value", changed);
    }
}

//! Content-addressed artifact cache for the pipeline's stage outputs.
//!
//! A cache *key* is a stable 64-bit [`StableHasher`] digest of
//! everything a stage's output depends on — input fragments, qualities,
//! provenance, vector and repeat libraries, and the stage's parameters.
//! The pipeline keeps three kinds: the preprocess output
//! ([`preprocess_key`]), the cluster stage's partition
//! ([`partition_key`]) and the assembled contigs ([`contigs_key`]).
//! Identical inputs re-running under the same parameters find their
//! artifact on disk and skip the stage; any change to an input or
//! parameter changes the key and the stage recomputes (a wrong *hit*
//! would silently corrupt results, so every ambiguity resolves toward a
//! miss).
//!
//! Entries are self-describing files: a versioned header (magic,
//! container schema, artifact codec schema, kind, key, payload length,
//! payload digest) followed by the artifact payload in its own
//! [`pgasm_seq::wire`] framing — one container ([`write_entry`] /
//! [`read_entry`]) that master checkpoints share, at a path of the
//! caller's choosing. Loading re-verifies all of it, so a
//! truncated, corrupted, foreign, or stale file degrades to a cold run
//! — never a panic, never a wrong artifact. Writes go to a
//! process-unique temp file first and are published with an atomic
//! rename, so a crashed or concurrent run can leave at worst a stale
//! temp file, not a half-written entry.

use crate::clustering::{ClusterParams, CLUSTERING_REVISION};
use pgasm_gst::GstConfig;
use pgasm_preprocess::PreprocessConfig;
use pgasm_seq::wire::{Reader, Writer};
use pgasm_seq::{DnaSeq, FragmentStore};
use pgasm_simgen::ReadSet;
use std::fs;
use std::io::Write as _;
use std::path::{Path, PathBuf};

/// File magic of the container (cache entries and checkpoints).
pub const CACHE_MAGIC: [u8; 4] = *b"PGAC";

/// Container-format version; bump when the header layout changes.
/// Entries written by any other container version are rejected.
/// 2: the payload checksum is a [`StableHasher`] digest, not FNV-1a.
pub const CACHE_CONTAINER_SCHEMA: u32 = 2;

/// A stable, dependency-free 64-bit hash whose value is identical
/// across runs, platforms, and compiler versions (unlike
/// `std::collections::hash_map::DefaultHasher`, which is randomly
/// seeded per process and would make every run a miss).
///
/// It folds the input a little-endian 8-byte word at a time into a
/// 128-bit state, one Feistel round per word:
/// `(a, b) ← (b ^ fold(a ^ word), a ^ word)`, `fold` being a
/// 64×64→128-bit multiply by an odd constant with its halves XORed.
/// Each round is a bijection of the state, so no word can erase earlier
/// input, and a one-bit change leaves it as a dense difference (DESIGN.md
/// §7 says why one `(state.rotl(r) ^ word) * K` per word is not enough).
/// A partial last word is buffered, so how the bytes are split across
/// [`StableHasher::update`] calls never changes the digest; `finish`
/// runs one round on the zero-padded tail and one on the byte length.
#[derive(Debug, Clone, Copy)]
pub struct StableHasher {
    a: u64,
    b: u64,
    /// Bytes folded in so far, the buffered tail included.
    len: u64,
    /// The partial word awaiting its remaining bytes; zero past
    /// `tail_len`.
    tail: [u8; 8],
    tail_len: usize,
}

impl Default for StableHasher {
    fn default() -> Self {
        StableHasher::new()
    }
}

impl StableHasher {
    const K: u64 = 0x9e37_79b9_7f4a_7c15;

    /// Fresh hasher.
    pub fn new() -> Self {
        StableHasher { a: 0x243f_6a88_85a3_08d3, b: 0x1319_8a2e_0370_7344, len: 0, tail: [0; 8], tail_len: 0 }
    }

    /// One Feistel round keyed by `word`.
    #[inline]
    fn round(&mut self, word: u64) {
        let a = self.a ^ word;
        let wide = a as u128 * Self::K as u128;
        (self.a, self.b) = (self.b ^ wide as u64 ^ (wide >> 64) as u64, a);
    }

    /// Fold raw bytes into the state.
    pub fn update(&mut self, mut bytes: &[u8]) -> &mut Self {
        self.len += bytes.len() as u64;
        if self.tail_len > 0 {
            let take = bytes.len().min(8 - self.tail_len);
            self.tail[self.tail_len..self.tail_len + take].copy_from_slice(&bytes[..take]);
            self.tail_len += take;
            bytes = &bytes[take..];
            if self.tail_len < 8 {
                return self;
            }
            self.round(u64::from_le_bytes(self.tail));
            (self.tail, self.tail_len) = ([0; 8], 0);
        }
        let mut words = bytes.chunks_exact(8);
        for word in &mut words {
            self.round(u64::from_le_bytes(word.try_into().expect("chunks_exact(8) yields 8-byte words")));
        }
        let rest = words.remainder();
        self.tail[..rest.len()].copy_from_slice(rest);
        self.tail_len = rest.len();
        self
    }

    /// Fold a `u64` (little-endian) into the state.
    pub fn update_u64(&mut self, v: u64) -> &mut Self {
        self.update(&v.to_le_bytes())
    }

    /// Fold a length-prefixed byte slice into the state. The prefix
    /// keeps adjacent variable-length fields unambiguous — without it,
    /// `("ab", "c")` and `("a", "bc")` would collide by construction.
    pub fn update_slice(&mut self, bytes: &[u8]) -> &mut Self {
        self.update_u64(bytes.len() as u64).update(bytes)
    }

    /// Fold a length-prefixed string into the state.
    pub fn update_str(&mut self, s: &str) -> &mut Self {
        self.update_slice(s.as_bytes())
    }

    /// The digest of everything folded in so far.
    pub fn finish(&self) -> u64 {
        let mut h = *self;
        h.round(u64::from_le_bytes(h.tail));
        h.round(h.len);
        h.a
    }
}

/// One-shot FNV-1a 64-bit digest of a byte slice, one byte at a time.
/// The pinned output digests of the test suite are values of this
/// function; the cache itself hashes with [`StableHasher`].
pub fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3))
}

/// Publish `chunks`, concatenated, at `path` atomically: the bytes are
/// written to a process-unique sibling temp file, fsynced, and renamed
/// into place, so readers only ever observe the old file, no file, or
/// the complete new file — never a torn write. Returns total bytes.
/// Shared by cache entries and master checkpoint snapshots.
pub fn atomic_write(path: &Path, chunks: &[&[u8]]) -> std::io::Result<u64> {
    let dir = path.parent().unwrap_or_else(|| Path::new("."));
    let name = path.file_name().map(|n| n.to_string_lossy().into_owned()).unwrap_or_default();
    let tmp = dir.join(format!(".{name}.tmp.{}", std::process::id()));
    let total: u64 = chunks.iter().map(|c| c.len() as u64).sum();
    let result = (|| {
        let mut f = fs::File::create(&tmp)?;
        for chunk in chunks {
            f.write_all(chunk)?;
        }
        f.sync_all()?;
        drop(f);
        fs::rename(&tmp, path)
    })();
    if result.is_err() {
        let _ = fs::remove_file(&tmp);
    }
    result.map(|()| total)
}

fn update_seqs(h: &mut StableHasher, seqs: &[DnaSeq]) {
    h.update_u64(seqs.len() as u64);
    for s in seqs {
        h.update_slice(s.codes());
    }
}

fn update_store(h: &mut StableHasher, store: &FragmentStore) {
    h.update_u64(store.is_double_stranded() as u64);
    h.update_u64(store.num_seqs() as u64);
    for (_, codes) in store.iter() {
        h.update_slice(codes);
    }
}

/// Cache key of the preprocess stage: every input the
/// [`pgasm_preprocess::Preprocessor`] reads, plus its parameters.
/// The parameters enter through their `Debug` rendering — it covers
/// every field, so a new or changed knob can only change the key
/// (recompute), never silently alias an old entry.
pub fn preprocess_key(
    reads: &ReadSet,
    vectors: &[DnaSeq],
    known_repeats: &[DnaSeq],
    config: &PreprocessConfig,
) -> u64 {
    let mut h = StableHasher::new();
    h.update_str("preprocess");
    h.update_u64(reads.len() as u64);
    for ((seq, qual), prov) in reads.seqs.iter().zip(&reads.quals).zip(&reads.provenance) {
        h.update_slice(seq.codes());
        h.update_slice(qual.values());
        h.update_str(&format!("{prov:?}"));
    }
    update_seqs(&mut h, vectors);
    update_seqs(&mut h, known_repeats);
    h.update_str(&format!("{config:?}"));
    h.finish()
}

/// Cache key of a GST built over `store` (the double-stranded view the
/// serial clustering engine constructs) with `config`. The pipeline
/// caches the partition instead ([`partition_key`]).
pub fn gst_key(store: &FragmentStore, config: &GstConfig) -> u64 {
    let mut h = StableHasher::new();
    h.update_str("gst");
    update_store(&mut h, store);
    h.update_str(&format!("{config:?}"));
    h.finish()
}

/// Cache key of the cluster stage's output: the masked single-stranded
/// `store` it clusters, the clustering parameters (via `Debug`, so any
/// new knob changes the key) and [`CLUSTERING_REVISION`]. The rank count
/// is not in it: serial and distributed runs write the same partition.
pub fn partition_key(store: &FragmentStore, params: &ClusterParams) -> u64 {
    partition_key_at_revision(store, params, CLUSTERING_REVISION)
}

/// [`partition_key`] for the clustering at `revision`: a partition
/// cached by one revision of the algorithm must miss under every other.
pub fn partition_key_at_revision(store: &FragmentStore, params: &ClusterParams, revision: u32) -> u64 {
    let mut h = StableHasher::new();
    h.update_str("partition");
    h.update_u64(revision as u64);
    update_store(&mut h, store);
    h.update_str(&format!("{params:?}"));
    h.finish()
}

/// Cache key of the assembly stage's output: every input the
/// per-cluster assembler reads — the (soft-masked) fragments, their
/// quality tracks, the clustering partition — plus the assembler
/// parameters (via `Debug`, so any new knob changes the key) and the
/// assembler's own [`pgasm_assemble::ASSEMBLER_REVISION`].
pub fn contigs_key(
    store: &FragmentStore,
    quals: Option<&[pgasm_seq::QualityTrack]>,
    clustering: &crate::clustering::Clustering,
    config: &pgasm_assemble::AssemblyConfig,
) -> u64 {
    contigs_key_at_revision(store, quals, clustering, config, pgasm_assemble::ASSEMBLER_REVISION)
}

/// [`contigs_key`] for the assembler at `revision`: contigs cached by
/// one revision of the algorithm must miss under every other.
pub fn contigs_key_at_revision(
    store: &FragmentStore,
    quals: Option<&[pgasm_seq::QualityTrack]>,
    clustering: &crate::clustering::Clustering,
    config: &pgasm_assemble::AssemblyConfig,
    revision: u32,
) -> u64 {
    let mut h = StableHasher::new();
    h.update_str("contigs");
    h.update_u64(revision as u64);
    update_store(&mut h, store);
    match quals {
        Some(qs) => {
            h.update_u64(1 + qs.len() as u64);
            for q in qs {
                h.update_slice(q.values());
            }
        }
        None => {
            h.update_u64(0);
        }
    }
    h.update_u64(clustering.clusters.len() as u64);
    for members in &clustering.clusters {
        h.update_u64(members.len() as u64);
        for &m in members {
            h.update_u64(m as u64);
        }
    }
    h.update_str(&format!("{config:?}"));
    h.finish()
}

/// A directory of cache entries, one file per `(kind, key)`.
#[derive(Debug)]
pub struct ArtifactCache {
    dir: PathBuf,
}

impl ArtifactCache {
    /// Open (creating if needed) a cache rooted at `dir`.
    pub fn open(dir: &Path) -> std::io::Result<ArtifactCache> {
        fs::create_dir_all(dir)?;
        Ok(ArtifactCache { dir: dir.to_path_buf() })
    }

    /// Path of the entry for `(kind, key)`.
    pub fn entry_path(&self, kind: &str, key: u64) -> PathBuf {
        self.dir.join(format!("{kind}-{key:016x}.pgac"))
    }

    /// Load the payload stored for `(kind, key)` under artifact codec
    /// version `schema`. Returns `None` — a cache miss, never an error
    /// — when the entry is absent, truncated, corrupted, written by a
    /// different schema, or otherwise not *exactly* what was asked for.
    pub fn load(&self, kind: &str, schema: u32, key: u64) -> Option<Vec<u8>> {
        read_entry(&self.entry_path(kind, key), kind, schema, key)
    }

    /// Persist `payload` for `(kind, key)` atomically: the full entry is
    /// written to a process-unique temp file, flushed, and renamed into
    /// place, so readers only ever observe absent or complete entries.
    /// Returns the total bytes written.
    pub fn store(&self, kind: &str, schema: u32, key: u64, payload: &[u8]) -> std::io::Result<u64> {
        write_entry(&self.entry_path(kind, key), kind, schema, key, payload)
    }
}

/// Digest of a whole payload, the container's checksum.
fn checksum(payload: &[u8]) -> u64 {
    StableHasher::new().update(payload).finish()
}

/// Publish `payload` at `path` as one container entry — header (magic,
/// container schema, `schema`, `kind`, `key`, payload length, payload
/// `checksum`), then the payload — through [`atomic_write`].
/// Returns the total bytes written. Cache entries and master
/// checkpoints are both exactly this.
pub fn write_entry(path: &Path, kind: &str, schema: u32, key: u64, payload: &[u8]) -> std::io::Result<u64> {
    let mut w = Writer::with_capacity(64);
    for m in CACHE_MAGIC {
        w.put_u8(m);
    }
    w.put_u32(CACHE_CONTAINER_SCHEMA).put_u32(schema);
    w.put_str(kind);
    w.put_u64(key);
    w.put_u64(payload.len() as u64);
    w.put_u64(checksum(payload));
    atomic_write(path, &[&w.finish(), payload])
}

/// Read the container entry at `path` and verify every header field
/// against what the caller expects, the payload length, and the
/// checksum. `None` on any mismatch or I/O failure.
pub fn read_entry(path: &Path, kind: &str, schema: u32, key: u64) -> Option<Vec<u8>> {
    let bytes = fs::read(path).ok()?;
    let mut r = Reader::new(&bytes);
    if r.get_raw(4).ok()? != CACHE_MAGIC
        || r.get_u32().ok()? != CACHE_CONTAINER_SCHEMA
        || r.get_u32().ok()? != schema
        || r.get_str().ok()? != kind
        || r.get_u64().ok()? != key
    {
        return None;
    }
    let payload_len = r.get_u64().ok()? as usize;
    let stored = r.get_u64().ok()?;
    if r.remaining() != payload_len {
        return None;
    }
    let payload = r.get_raw(payload_len).ok()?.to_vec();
    (checksum(&payload) == stored).then_some(payload)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    struct TempDir(PathBuf);

    impl TempDir {
        fn new(tag: &str) -> TempDir {
            let dir = std::env::temp_dir().join(format!("pgasm-cache-{tag}-{}", std::process::id()));
            let _ = fs::remove_dir_all(&dir);
            TempDir(dir)
        }
    }

    impl Drop for TempDir {
        fn drop(&mut self) {
            let _ = fs::remove_dir_all(&self.0);
        }
    }

    #[test]
    fn store_then_load_round_trips() {
        let tmp = TempDir::new("roundtrip");
        let cache = ArtifactCache::open(&tmp.0).unwrap();
        let payload = b"artifact bytes".to_vec();
        let written = cache.store("gst", 1, 42, &payload).unwrap();
        assert!(written > payload.len() as u64, "header must be accounted");
        assert_eq!(cache.load("gst", 1, 42), Some(payload));
        // No temp files left behind.
        let stray: Vec<_> = fs::read_dir(&tmp.0)
            .unwrap()
            .filter(|e| e.as_ref().unwrap().file_name().to_string_lossy().contains(".tmp"))
            .collect();
        assert!(stray.is_empty(), "temp file leaked: {stray:?}");
    }

    #[test]
    fn mismatched_lookup_misses() {
        let tmp = TempDir::new("mismatch");
        let cache = ArtifactCache::open(&tmp.0).unwrap();
        cache.store("gst", 1, 42, b"payload").unwrap();
        assert!(cache.load("gst", 1, 43).is_none(), "different key");
        assert!(cache.load("preprocess", 1, 42).is_none(), "different kind");
        assert!(cache.load("gst", 2, 42).is_none(), "different schema");
    }

    #[test]
    fn kind_in_header_rejects_renamed_entry() {
        // A file renamed to another kind's path must still miss: the
        // header records what it actually is.
        let tmp = TempDir::new("rename");
        let cache = ArtifactCache::open(&tmp.0).unwrap();
        cache.store("gst", 1, 7, b"gst payload").unwrap();
        fs::rename(cache.entry_path("gst", 7), cache.entry_path("preprocess", 7)).unwrap();
        assert!(cache.load("preprocess", 1, 7).is_none());
    }

    #[test]
    fn truncated_and_garbage_entries_miss() {
        let tmp = TempDir::new("corrupt");
        let cache = ArtifactCache::open(&tmp.0).unwrap();
        cache.store("pp", 3, 9, b"some serialized artifact").unwrap();
        let path = cache.entry_path("pp", 9);
        let full = fs::read(&path).unwrap();
        // Every truncation point misses, never panics.
        for cut in 0..full.len() {
            fs::write(&path, &full[..cut]).unwrap();
            assert!(cache.load("pp", 3, 9).is_none(), "cut at {cut} hit");
        }
        // A flipped payload byte fails the checksum.
        let mut flipped = full.clone();
        let last = flipped.len() - 1;
        flipped[last] ^= 0xFF;
        fs::write(&path, &flipped).unwrap();
        assert!(cache.load("pp", 3, 9).is_none());
        // Pure garbage misses too.
        fs::write(&path, b"not a cache entry at all").unwrap();
        assert!(cache.load("pp", 3, 9).is_none());
    }

    #[test]
    fn overwrite_replaces_entry() {
        let tmp = TempDir::new("overwrite");
        let cache = ArtifactCache::open(&tmp.0).unwrap();
        cache.store("gst", 1, 5, b"old").unwrap();
        cache.store("gst", 1, 5, b"new payload").unwrap();
        assert_eq!(cache.load("gst", 1, 5), Some(b"new payload".to_vec()));
    }

    #[test]
    fn stable_hasher_is_deterministic_and_prefix_safe() {
        let mut a = StableHasher::new();
        a.update_str("ab").update_str("c");
        let mut b = StableHasher::new();
        b.update_str("a").update_str("bc");
        assert_ne!(a.finish(), b.finish(), "length prefixes must disambiguate");
        // Known answer: the digest of the empty input.
        assert_eq!(StableHasher::new().finish(), 0xa9da_a8eb_9869_23f4);
        assert_eq!(fnv1a(b"a"), 0xaf63dc4c8601ec8c);
    }

    #[test]
    fn stable_hasher_known_answers() {
        let word: Vec<u8> = (1..=8).collect();
        assert_eq!(checksum(b""), 0xa9da_a8eb_9869_23f4);
        assert_eq!(checksum(&word), 0x0a34_100a_5dcc_e3e7);
        // A lone tail of 1–7 bytes: no whole word at all.
        let tails = [
            0x867a_2727_f134_8760,
            0x6680_3c43_2d2f_be6b,
            0xacd1_3f9c_c33d_f19d,
            0xad61_8b0a_a9a0_a81b,
            0x4933_eb67_baf8_045a,
            0xe850_de46_9b58_bb17,
            0xab3f_f334_37bf_6827,
        ];
        for (k, &want) in tails.iter().enumerate() {
            assert_eq!(checksum(&word[..k + 1]), want, "tail of {} bytes", k + 1);
        }
        let mb: Vec<u8> = (0..1u32 << 20).map(|i| (i.wrapping_mul(2_654_435_761) >> 24) as u8).collect();
        assert_eq!(checksum(&mb), 0x091f_e6c7_2524_9474);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The tail buffer makes `update` calls a stream: however the
        /// same bytes are cut up, the digest is the one-shot digest.
        #[test]
        fn any_split_of_the_input_gives_the_same_checksum(
            bytes in prop::collection::vec(any::<u8>(), 0..80),
            cuts in prop::collection::vec(any::<prop::sample::Index>(), 0..6),
        ) {
            let mut cuts: Vec<usize> = cuts.iter().map(|c| c.index(bytes.len() + 1)).collect();
            cuts.sort_unstable();
            let mut h = StableHasher::new();
            let mut from = 0;
            for cut in cuts.into_iter().chain([bytes.len()]) {
                h.update(&bytes[from..cut]);
                from = cut;
            }
            prop_assert_eq!(h.finish(), checksum(&bytes));
        }
    }

    /// No two of these inputs share a digest: every ten-mer over the
    /// four code bytes, and every one-bit flip of a 4 KB buffer.
    #[test]
    fn ten_mers_and_one_bit_flips_do_not_collide() {
        fn distinct(mut digests: Vec<u64>) {
            let n = digests.len();
            digests.sort_unstable();
            digests.dedup();
            assert_eq!(digests.len(), n, "{} collisions", n - digests.len());
        }
        distinct(
            (0..1u32 << 20)
                .map(|m| checksum(&std::array::from_fn::<u8, 10, _>(|i| (m >> (2 * i) & 3) as u8)))
                .collect(),
        );
        let buffer: Vec<u8> = (0..4096u32).map(|i| (i.wrapping_mul(40_503) >> 7) as u8).collect();
        let mut digests = vec![checksum(&buffer)];
        let mut flipped = buffer.clone();
        for bit in 0..buffer.len() * 8 {
            flipped[bit / 8] ^= 1 << (bit % 8);
            digests.push(checksum(&flipped));
            flipped[bit / 8] ^= 1 << (bit % 8);
        }
        distinct(digests);
    }

    #[test]
    fn entries_written_under_container_schema_1_miss() {
        // The previous container: the same header, an FNV-1a checksum.
        let tmp = TempDir::new("schema1");
        let cache = ArtifactCache::open(&tmp.0).unwrap();
        let payload = b"an artifact from an older build";
        let mut w = Writer::new();
        for m in CACHE_MAGIC {
            w.put_u8(m);
        }
        w.put_u32(1).put_u32(4).put_str("partition").put_u64(11);
        w.put_u64(payload.len() as u64).put_u64(fnv1a(payload));
        atomic_write(&cache.entry_path("partition", 11), &[&w.finish(), payload]).unwrap();
        assert!(cache.load("partition", 4, 11).is_none());
        // The same entry rewritten by this build loads.
        cache.store("partition", 4, 11, payload).unwrap();
        assert_eq!(cache.load("partition", 4, 11), Some(payload.to_vec()));
    }

    #[test]
    fn keys_change_with_params_and_inputs() {
        use pgasm_seq::QualityTrack;
        use pgasm_simgen::{Provenance, ReadKind};
        let seqs = vec![DnaSeq::from("ACGTACGTACGT")];
        let reads = ReadSet {
            quals: seqs.iter().map(|s| QualityTrack::uniform(s.len(), 40)).collect(),
            provenance: seqs
                .iter()
                .map(|_| Provenance { genome: 0, start: 0, end: 0, reverse: false, kind: ReadKind::Wgs })
                .collect(),
            seqs,
        };
        let cfg = PreprocessConfig::default();
        let base = preprocess_key(&reads, &[], &[], &cfg);
        assert_eq!(base, preprocess_key(&reads, &[], &[], &cfg), "key must be reproducible");
        let other_cfg = PreprocessConfig { mask_k: cfg.mask_k + 1, ..cfg.clone() };
        assert_ne!(base, preprocess_key(&reads, &[], &[], &other_cfg));
        assert_ne!(base, preprocess_key(&reads, &[DnaSeq::from("AC")], &[], &cfg));
        let mut more = reads.clone();
        more.seqs[0] = DnaSeq::from("TTTTTTTTTTTT");
        assert_ne!(base, preprocess_key(&more, &[], &[], &cfg));

        let store = FragmentStore::from_seqs(vec![DnaSeq::from("ACGTACGT")]).with_reverse_complements();
        let g1 = gst_key(&store, &GstConfig { psi: 16 });
        let g2 = gst_key(&store, &GstConfig { psi: 20 });
        assert_ne!(g1, g2, "psi is part of the key");
    }
}

//! Content-addressed artifact cache for expensive pipeline stages.
//!
//! A cache *key* is a stable 64-bit digest of everything a stage's
//! output depends on — input fragments, qualities, provenance, vector
//! and repeat libraries, and the stage's parameters. Identical inputs
//! re-running under the same parameters find their artifact on disk and
//! skip the stage; any change to an input or parameter changes the key
//! and the stage recomputes (a wrong *hit* would silently corrupt
//! results, so every ambiguity resolves toward a miss).
//!
//! Entries are self-describing files: a versioned header (magic,
//! container schema, artifact codec schema, kind, key, payload length,
//! payload checksum) followed by the artifact payload in its own
//! [`pgasm_seq::wire`] framing — one container ([`write_entry`] /
//! [`read_entry`]) that master checkpoints share, at a path of the
//! caller's choosing. Loading re-verifies all of it, so a
//! truncated, corrupted, foreign, or stale file degrades to a cold run
//! — never a panic, never a wrong artifact. Writes go to a
//! process-unique temp file first and are published with an atomic
//! rename, so a crashed or concurrent run can leave at worst a stale
//! temp file, not a half-written entry.

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
pub const CACHE_CONTAINER_SCHEMA: u32 = 1;

/// FNV-1a 64-bit — a stable, dependency-free hash whose value is
/// identical across runs, platforms, and compiler versions (unlike
/// `std::collections::hash_map::DefaultHasher`, which is randomly
/// seeded per process and would make every run a miss).
#[derive(Debug, Clone, Copy)]
pub struct StableHasher {
    state: u64,
}

impl Default for StableHasher {
    fn default() -> Self {
        StableHasher::new()
    }
}

impl StableHasher {
    const OFFSET_BASIS: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;

    /// Fresh hasher at the FNV offset basis.
    pub fn new() -> Self {
        StableHasher { state: Self::OFFSET_BASIS }
    }

    /// Fold raw bytes into the state.
    pub fn update(&mut self, bytes: &[u8]) -> &mut Self {
        for &b in bytes {
            self.state ^= b as u64;
            self.state = self.state.wrapping_mul(Self::PRIME);
        }
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

    /// The digest so far.
    pub fn finish(&self) -> u64 {
        self.state
    }
}

/// One-shot FNV-1a digest of a byte slice (payload checksums).
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = StableHasher::new();
    h.update(bytes);
    h.finish()
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
/// serial clustering engine constructs) with `config`.
pub fn gst_key(store: &FragmentStore, config: &GstConfig) -> u64 {
    let mut h = StableHasher::new();
    h.update_str("gst");
    update_store(&mut h, store);
    h.update_str(&format!("{config:?}"));
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

/// Publish `payload` at `path` as one container entry — header (magic,
/// container schema, `schema`, `kind`, `key`, payload length, FNV-1a
/// payload checksum), then the payload — through [`atomic_write`].
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
    w.put_u64(fnv1a(payload));
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
    let checksum = r.get_u64().ok()?;
    if r.remaining() != payload_len {
        return None;
    }
    let payload = r.get_raw(payload_len).ok()?.to_vec();
    (fnv1a(&payload) == checksum).then_some(payload)
}

#[cfg(test)]
mod tests {
    use super::*;

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
        // Known FNV-1a vector: empty input hashes to the offset basis.
        assert_eq!(StableHasher::new().finish(), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63dc4c8601ec8c);
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

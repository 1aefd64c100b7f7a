//! Content-addressed artifact cache for the pipeline's stage outputs.
//!
//! A cache *key* is a stable 64-bit [`StableHasher`] digest of
//! everything a stage's output depends on — input fragments, qualities,
//! provenance, vector and repeat libraries, and the stage's parameters.
//! The later stages' keys fold the content digests of their stores
//! ([`store_digest`], [`quals_digest`]), which the preprocess artifact
//! carries, so a warm run keys them without decoding a store.
//! The pipeline keeps three kinds: the preprocess output
//! ([`preprocess_key`]), the cluster stage's partition
//! ([`partition_key_from`]) and the assembled contigs ([`contigs_key`]).
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

use crate::clustering::{ClusterParams, Clustering};
use pgasm_assemble::{AssemblyConfig, ASSEMBLER_REVISION};
use pgasm_gst::GstConfig;
use pgasm_preprocess::PreprocessConfig;
use pgasm_seq::wire::{Reader, Writer};
use pgasm_seq::{quals_digest, store_digest, DnaSeq, FragmentStore, QualityTrack};
use pgasm_simgen::{Provenance, ReadSet};
use std::fs;
use std::io::{Read as _, Write as _};
use std::path::{Path, PathBuf};

pub use pgasm_seq::StableHasher;

/// File magic of the container (cache entries and checkpoints).
pub const CACHE_MAGIC: [u8; 4] = *b"PGAC";

/// Container-format version; bump when the header layout changes.
/// Entries written by any other container version are rejected.
/// 2: the payload checksum is a [`StableHasher`] digest, not FNV-1a.
pub const CACHE_CONTAINER_SCHEMA: u32 = 2;

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

/// Cache key of the preprocess stage: every input the
/// [`pgasm_preprocess::Preprocessor`] reads, plus its parameters.
/// A read's provenance enters field by field (a new field fails to
/// compile here until it is hashed); the parameters enter through their
/// `Debug` rendering — it covers every field, so a new or changed knob
/// can only change the key (recompute), never silently alias an old
/// entry.
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
        let Provenance { genome, start, end, reverse, kind } = *prov;
        h.update_u64(genome as u64).update_u64(start as u64).update_u64(end as u64);
        h.update_u64(reverse as u64).update_str(kind.label());
    }
    update_seqs(&mut h, vectors);
    update_seqs(&mut h, known_repeats);
    h.update_str(&format!("{config:?}"));
    h.finish()
}

/// Cache key of a GST built over `store` (the double-stranded view the
/// serial clustering engine constructs) with `config`. The pipeline
/// caches the partition instead ([`partition_key_from`]).
pub fn gst_key(store: &FragmentStore, config: &GstConfig) -> u64 {
    let mut h = StableHasher::new();
    h.update_str("gst");
    h.update_u64(store_digest(store));
    h.update_str(&format!("{config:?}"));
    h.finish()
}

/// Cache key of the cluster stage's output: the [digest](store_digest)
/// `store` of the masked single-stranded store it clusters — what a warm
/// run folds, straight from the preprocess artifact's summary — the
/// clustering parameters (via `Debug`, so any new knob changes the key)
/// and the clustering's `revision` (the pipeline's is
/// [`CLUSTERING_REVISION`](crate::clustering::CLUSTERING_REVISION)): a partition cached by one revision of the
/// algorithm must miss under every other. The rank count is not in it:
/// serial and distributed runs write the same partition.
pub fn partition_key_from(store: u64, params: &ClusterParams, revision: u32) -> u64 {
    let mut h = StableHasher::new();
    h.update_str("partition");
    h.update_u64(revision as u64);
    h.update_u64(store);
    h.update_str(&format!("{params:?}"));
    h.finish()
}

/// Cache key of the assembly stage's output: every input the
/// per-cluster assembler reads — the (soft-masked) fragments, their
/// quality tracks, the clustering partition — plus the assembler
/// parameters (via `Debug`, so any new knob changes the key) and the
/// assembler's own [`pgasm_assemble::ASSEMBLER_REVISION`].
/// The digests first, then [`contigs_key_from`].
pub fn contigs_key(
    store: &FragmentStore,
    quals: Option<&[QualityTrack]>,
    clustering: &Clustering,
    config: &AssemblyConfig,
) -> u64 {
    contigs_key_from(store_digest(store), quals.map(quals_digest), clustering, config, ASSEMBLER_REVISION)
}

/// [`contigs_key`] of a store and quality tracks whose [`store_digest`]
/// and [`quals_digest`] are `store` and `quals`, for the assembler at
/// `revision`: contigs cached by one revision of the algorithm must miss
/// under every other.
pub fn contigs_key_from(
    store: u64,
    quals: Option<u64>,
    clustering: &Clustering,
    config: &AssemblyConfig,
    revision: u32,
) -> u64 {
    let mut h = StableHasher::new();
    h.update_str("contigs");
    h.update_u64(revision as u64);
    h.update_u64(store);
    match quals {
        Some(digest) => h.update_u64(1).update_u64(digest),
        None => h.update_u64(0),
    };
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
/// checksum. `None` on any mismatch or I/O failure. The header is read
/// on its own, so the payload lands in the returned buffer directly.
pub fn read_entry(path: &Path, kind: &str, schema: u32, key: u64) -> Option<Vec<u8>> {
    let mut file = fs::File::open(path).ok()?;
    // Magic, both schemas, the kind string, key, length and checksum.
    let mut header = vec![0u8; 4 + 4 + 4 + (4 + kind.len()) + 8 + 8 + 8];
    file.read_exact(&mut header).ok()?;
    let mut r = Reader::new(&header);
    if r.get_raw(4).ok()? != CACHE_MAGIC
        || r.get_u32().ok()? != CACHE_CONTAINER_SCHEMA
        || r.get_u32().ok()? != schema
        || r.get_str().ok()? != kind
        || r.get_u64().ok()? != key
    {
        return None;
    }
    let payload_len = r.get_u64().ok()?;
    let stored = r.get_u64().ok()?;
    // Sized from the file, not the header, before anything is allocated.
    if file.metadata().ok()?.len() != header.len() as u64 + payload_len {
        return None;
    }
    let mut payload = Vec::with_capacity(payload_len as usize);
    file.read_to_end(&mut payload).ok()?;
    (payload.len() as u64 == payload_len && checksum(&payload) == stored).then_some(payload)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clustering::CLUSTERING_REVISION;

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
    fn fnv1a_known_answer() {
        assert_eq!(fnv1a(b"a"), 0xaf63dc4c8601ec8c);
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
        use pgasm_simgen::ReadKind;
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

        let prov = reads.provenance[0];
        for other in [
            Provenance { genome: 1, ..prov },
            Provenance { start: 1, ..prov },
            Provenance { end: 1, ..prov },
            Provenance { reverse: true, ..prov },
            Provenance { kind: ReadKind::Mf, ..prov },
        ] {
            let mut moved = reads.clone();
            moved.provenance[0] = other;
            assert_ne!(base, preprocess_key(&moved, &[], &[], &cfg), "{other:?}");
        }

        // One masked base moves the partition key; one quality value the
        // contigs key. Both are their digests' keys.
        let frags = FragmentStore::from_seqs(reads.seqs.clone());
        let mut masked = reads.seqs[0].clone();
        masked.mask_range(5, 6);
        let params = ClusterParams::default();
        let key = partition_key_from(store_digest(&frags), &params, CLUSTERING_REVISION);
        let masked = store_digest(&FragmentStore::from_seqs([masked]));
        assert_ne!(key, partition_key_from(masked, &params, CLUSTERING_REVISION));
        let (clustering, config) = (Clustering { clusters: vec![vec![0]] }, AssemblyConfig::default());
        let key = contigs_key(&frags, Some(&reads.quals), &clustering, &config);
        let (store, quals) = (store_digest(&frags), Some(quals_digest(&reads.quals)));
        assert_eq!(key, contigs_key_from(store, quals, &clustering, &config, ASSEMBLER_REVISION));
        let mut requal = reads.quals.clone();
        let mut values = requal[0].values().to_vec();
        values[7] -= 1;
        requal[0] = QualityTrack::from_values(values);
        assert_ne!(key, contigs_key(&frags, Some(&requal), &clustering, &config));
        assert_ne!(key, contigs_key(&frags, None, &clustering, &config));

        let store = FragmentStore::from_seqs(vec![DnaSeq::from("ACGTACGT")]).with_reverse_complements();
        let g1 = gst_key(&store, &GstConfig { psi: 16 });
        let g2 = gst_key(&store, &GstConfig { psi: 20 });
        assert_ne!(g1, g2, "psi is part of the key");
    }
}

//! Master checkpoint snapshots and per-stage recovery settings.
//!
//! The engine's master periodically persists its client's state (the
//! Union–Find partition for clustering, the completed-assembly table
//! for assembly) so a run killed mid-stage can restart from the last
//! snapshot with `pgasm --resume` instead of from scratch. Workers hold
//! no durable state: on resume they regenerate their tasks from the
//! shared input and the restored master's selection dedup discards
//! whatever the snapshot already absorbed, which keeps the final
//! output byte-identical to a fault-free run.
//!
//! A checkpoint file is an artifact-cache container entry at an
//! explicit path ([`crate::cache::write_entry`]): `kind` is the stage
//! tag, `schema` the snapshot layout version, and it is published with
//! the same tmp + fsync + rename machinery, so a crash during a
//! snapshot leaves the previous snapshot intact. Loading re-verifies
//! everything; any mismatch — and any payload the stage's
//! [`crate::engine::Snapshot::restore`] rejects — reads as "no
//! checkpoint" rather than a wrong restore.

use crate::cache::{read_entry, write_entry};
use pgasm_mpisim::{FaultPlan, FaultStage};
use std::path::{Path, PathBuf};

/// Snapshot layout version, shared by both stages' payloads: bump it
/// whenever either layout changes (workers regenerate, so an old
/// snapshot is never required). 4: the cluster snapshot carries five
/// work tallies, not nine.
pub const CKPT_VERSION: u32 = 4;

/// Persist one snapshot of `stage`'s master state at `path`, atomically.
/// Returns total bytes written.
pub fn write_checkpoint(path: &Path, stage: &str, payload: &[u8]) -> std::io::Result<u64> {
    write_entry(path, stage, CKPT_VERSION, 0, payload)
}

/// Load the payload of a checkpoint written for `stage`. Returns `None`
/// — never an error — when the file is absent, truncated, corrupted,
/// from another container or snapshot version, or snapshots a different
/// stage.
pub fn read_checkpoint(path: &Path, stage: &str) -> Option<Vec<u8>> {
    read_entry(path, stage, CKPT_VERSION, 0)
}

/// Which stage a checkpoint file snapshots (its `stage` tag).
pub const STAGE_CLUSTER: &str = "cluster";
/// See [`STAGE_CLUSTER`].
pub const STAGE_ASSEMBLE: &str = "assemble";

/// Fault-tolerance settings for one distributed stage run: what
/// failures to inject and where snapshots go. (Detection needs no
/// setting: a death is announced, a lost message leaves the run at rest
/// and the simulator says so.) `Default` is a fully passive
/// configuration — no injection, no checkpointing — under which the
/// engine byte-matches its pre-fault-tolerance behaviour.
#[derive(Debug, Clone, Default)]
pub struct StageRecovery {
    /// Failures to inject (empty plan = none; the comm layer is not
    /// even armed, so fault-free runs pay nothing).
    pub faults: FaultPlan,
    /// Snapshot the master after every this many absorbed result
    /// reports; requires `checkpoint_path`.
    pub checkpoint_every: Option<u64>,
    /// Where snapshots are written (one file, overwritten atomically).
    pub checkpoint_path: Option<PathBuf>,
    /// Restore master state from this snapshot before starting.
    pub resume_from: Option<PathBuf>,
}

impl StageRecovery {
    /// This stage's checkpoint cadence and target, when both are set.
    pub fn ckpt_spec(&self) -> Option<(&Path, u64)> {
        match (&self.checkpoint_path, self.checkpoint_every) {
            (Some(path), Some(every)) if every > 0 => Some((path.as_path(), every)),
            _ => None,
        }
    }

    /// Narrow the fault plan to `stage`, keeping the other settings.
    pub fn for_stage(&self, stage: FaultStage) -> StageRecovery {
        StageRecovery { faults: self.faults.for_stage(stage), ..self.clone() }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::fs;

    struct TempDir(PathBuf);

    impl TempDir {
        fn new(tag: &str) -> TempDir {
            let dir = std::env::temp_dir().join(format!("pgasm-ckpt-{tag}-{}", std::process::id()));
            let _ = fs::remove_dir_all(&dir);
            fs::create_dir_all(&dir).unwrap();
            TempDir(dir)
        }
    }

    impl Drop for TempDir {
        fn drop(&mut self) {
            let _ = fs::remove_dir_all(&self.0);
        }
    }

    #[test]
    fn checkpoint_round_trips_and_verifies_stage() {
        let tmp = TempDir::new("roundtrip");
        let path = tmp.0.join("run.pgck");
        let payload = b"master snapshot bytes".to_vec();
        let written = write_checkpoint(&path, STAGE_CLUSTER, &payload).unwrap();
        assert!(written > payload.len() as u64, "header must be accounted");
        assert_eq!(read_checkpoint(&path, STAGE_CLUSTER), Some(payload));
        assert!(read_checkpoint(&path, STAGE_ASSEMBLE).is_none(), "stage tag must match");
        // No temp files left behind.
        let stray: Vec<_> = fs::read_dir(&tmp.0)
            .unwrap()
            .filter(|e| e.as_ref().unwrap().file_name().to_string_lossy().contains(".tmp"))
            .collect();
        assert!(stray.is_empty(), "temp file leaked: {stray:?}");
    }

    #[test]
    fn overwrite_keeps_latest_snapshot() {
        let tmp = TempDir::new("overwrite");
        let path = tmp.0.join("run.pgck");
        write_checkpoint(&path, STAGE_ASSEMBLE, b"old").unwrap();
        write_checkpoint(&path, STAGE_ASSEMBLE, b"newer state").unwrap();
        assert_eq!(read_checkpoint(&path, STAGE_ASSEMBLE), Some(b"newer state".to_vec()));
    }

    #[test]
    fn damaged_checkpoints_read_as_absent() {
        let tmp = TempDir::new("damage");
        let path = tmp.0.join("run.pgck");
        write_checkpoint(&path, STAGE_CLUSTER, b"some serialized master state").unwrap();
        let full = fs::read(&path).unwrap();
        for cut in 0..full.len() {
            fs::write(&path, &full[..cut]).unwrap();
            assert!(read_checkpoint(&path, STAGE_CLUSTER).is_none(), "cut at {cut} loaded");
        }
        let mut flipped = full.clone();
        let last = flipped.len() - 1;
        flipped[last] ^= 0xFF;
        fs::write(&path, &flipped).unwrap();
        assert!(read_checkpoint(&path, STAGE_CLUSTER).is_none(), "checksum must catch flips");
        assert!(read_checkpoint(&tmp.0.join("missing.pgck"), STAGE_CLUSTER).is_none());
        // A snapshot in the previous layout (version 3: nine work
        // tallies) is not ours to restore.
        write_entry(&path, STAGE_CLUSTER, 3, 0, b"some serialized master state").unwrap();
        assert!(read_checkpoint(&path, STAGE_CLUSTER).is_none(), "a v3 file must read as no checkpoint");
    }

    #[test]
    fn recovery_defaults_are_passive_and_stage_filter_narrows() {
        let r = StageRecovery::default();
        assert!(r.faults.is_empty());
        assert!(r.ckpt_spec().is_none());
        // Cadence without a path (or vice versa) stays off.
        let half = StageRecovery { checkpoint_every: Some(8), ..StageRecovery::default() };
        assert!(half.ckpt_spec().is_none());

        let plan = FaultPlan::parse("kill:lease=100,stage=cluster; kill:lease=50,stage=assemble").unwrap();
        let r = StageRecovery { faults: plan, checkpoint_every: Some(10), ..StageRecovery::default() };
        let cluster = r.for_stage(FaultStage::Cluster);
        assert_eq!(cluster.faults.kills.len(), 1);
        assert_eq!(cluster.checkpoint_every, Some(10), "other settings survive the narrowing");
    }
}

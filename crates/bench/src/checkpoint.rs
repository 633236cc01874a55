//! Content-addressed on-disk checkpoint store.
//!
//! A [`dda_vm::Checkpoint`] is addressed by its
//! [`CheckpointKey`] — `(program fingerprint, instruction index, config
//! fingerprint)` — so sweep workers and the sampling driver can resume a
//! workload mid-run without re-fast-forwarding: the first run of a sweep
//! populates the store, every later run (same program, same position,
//! same warm-state-relevant configuration) restores in one file read.
//!
//! Fingerprints are FNV-1a digests of *stable* renderings (the assembly
//! text of the program, the `Debug` form of the configuration), never of
//! a `Hasher` whose output may change across releases — file names are a
//! format commitment, pinned by `tests/store_keys.rs`. Each rendering is
//! streamed into an [`Fnv1a64`] as it is written, so the text itself is
//! never built.

use std::fmt::Write as _;
use std::io;
use std::path::{Path, PathBuf};

use dda_core::MachineConfig;
use dda_program::Program;
use dda_stats::Fnv1a64;
use dda_vm::{Checkpoint, CheckpointKey};

use crate::store::{invalid_data, RecordDir};

/// Stable content fingerprint of a program: the FNV-1a of its
/// [`Program::to_asm`] text, streamed from [`Program::write_asm`].
pub fn program_fingerprint(p: &Program) -> u64 {
    let mut h = Fnv1a64::new();
    let _ = p.write_asm(&mut h); // hashing never fails
    h.finish()
}

/// Stable fingerprint of the configuration state a checkpoint's warm
/// cache tags depend on — the hierarchy geometry alone, since the
/// architectural part of a checkpoint is configuration-independent.
pub fn config_fingerprint(cfg: &MachineConfig) -> u64 {
    let mut h = Fnv1a64::new();
    let _ = write!(h, "{:?}", cfg.hierarchy);
    h.finish()
}

/// A directory of serialized checkpoints, one file per key.
#[derive(Clone, Debug)]
pub struct CheckpointStore {
    files: RecordDir,
}

impl CheckpointStore {
    /// Opens (creating if needed) a store rooted at `dir`.
    ///
    /// # Errors
    ///
    /// An [`io::Error`] when the directory cannot be created.
    pub fn open(dir: impl Into<PathBuf>) -> io::Result<CheckpointStore> {
        Ok(CheckpointStore {
            files: RecordDir::open(dir.into(), "ckpt_")?,
        })
    }

    /// The store's root directory.
    pub fn dir(&self) -> &Path {
        self.files.dir()
    }

    /// The file a key maps to (exists or not).
    pub fn path_for(&self, key: &CheckpointKey) -> PathBuf {
        self.files.path(format_args!(
            "{:016x}_{:012}_{:016x}",
            key.program_hash, key.inst_index, key.config_hash
        ))
    }

    /// Serializes `ck` under its key. Overwrites silently — content
    /// addressing makes a collision a re-save of identical state.
    ///
    /// # Errors
    ///
    /// An [`io::Error`] when the file cannot be written.
    pub fn save(&self, ck: &Checkpoint) -> io::Result<PathBuf> {
        let path = self.path_for(&ck.key);
        std::fs::write(&path, ck.to_bytes())?;
        Ok(path)
    }

    /// Loads the checkpoint for `key`; `Ok(None)` when absent.
    ///
    /// # Errors
    ///
    /// An [`io::Error`] on a read failure, or one of kind
    /// [`io::ErrorKind::InvalidData`] when the file exists but fails to
    /// decode (truncated or corrupt) or carries a different key.
    pub fn load(&self, key: &CheckpointKey) -> io::Result<Option<Checkpoint>> {
        let path = self.path_for(key);
        match RecordDir::read(&path, Checkpoint::from_bytes)? {
            Some(ck) if ck.key != *key => Err(invalid_data(format!(
                "checkpoint at {} carries a different key",
                path.display()
            ))),
            ck => Ok(ck),
        }
    }

    /// Number of checkpoint files currently in the store.
    ///
    /// # Errors
    ///
    /// An [`io::Error`] when the directory cannot be read.
    pub fn len(&self) -> io::Result<usize> {
        self.files.count()
    }

    /// Whether the store holds no checkpoints.
    ///
    /// # Errors
    ///
    /// As for [`CheckpointStore::len`].
    pub fn is_empty(&self) -> io::Result<bool> {
        Ok(self.len()? == 0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dda_vm::Vm;
    use dda_workloads::Benchmark;
    use std::sync::Arc;

    fn temp_dir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("dda-ckpt-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
        d
    }

    #[test]
    fn save_load_round_trip_restores_bit_identically() {
        let dir = temp_dir("roundtrip");
        let store = CheckpointStore::open(&dir).unwrap();
        let program = Arc::new(Benchmark::Compress.program(u32::MAX / 2));
        let phash = program_fingerprint(&program);

        let mut vm = Vm::new(Arc::clone(&program));
        vm.fast_forward(10_000).unwrap();
        let ck = vm.checkpoint(phash, 0);
        let path = store.save(&ck).unwrap();
        assert!(path
            .file_name()
            .unwrap()
            .to_string_lossy()
            .contains("000000010000"));

        let loaded = store.load(&ck.key).unwrap().expect("present");
        let restored = Vm::restore(Arc::clone(&program), &loaded).unwrap();
        assert_eq!(restored.instructions_executed(), 10_000);
        assert_eq!(restored.pc(), vm.pc());

        // Both continue identically.
        let mut a = vm.clone();
        let mut b = restored;
        a.fast_forward(5_000).unwrap();
        b.fast_forward(5_000).unwrap();
        assert_eq!(a.pc(), b.pc());
        assert_eq!(a.sp_version(), b.sp_version());

        // Missing key is None, not an error.
        let missing = CheckpointKey {
            inst_index: 999,
            ..ck.key
        };
        assert!(store.load(&missing).unwrap().is_none());
        assert_eq!(store.len().unwrap(), 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_files_are_invalid_data_not_garbage() {
        let dir = temp_dir("corrupt");
        let store = CheckpointStore::open(&dir).unwrap();
        let key = CheckpointKey {
            program_hash: 1,
            inst_index: 2,
            config_hash: 3,
        };
        std::fs::write(store.path_for(&key), b"not a checkpoint").unwrap();
        let err = store.load(&key).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn fingerprints_are_stable_and_distinguish_content() {
        let a = Benchmark::Compress.program(u32::MAX / 2);
        let b = Benchmark::Li.program(u32::MAX / 2);
        assert_eq!(program_fingerprint(&a), program_fingerprint(&a));
        assert_ne!(program_fingerprint(&a), program_fingerprint(&b));
        let base = MachineConfig::iscapaper_base();
        let dec = MachineConfig::n_plus_m(4, 2);
        assert_ne!(config_fingerprint(&base), config_fingerprint(&dec));
        // Non-hierarchy knobs don't invalidate warm-state checkpoints.
        let mut audited = base.clone();
        audited.audit = true;
        assert_eq!(config_fingerprint(&base), config_fingerprint(&audited));
    }
}

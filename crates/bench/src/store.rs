//! The file body shared by the two content-addressed stores,
//! [`crate::ResultStore`] and [`crate::CheckpointStore`]: one directory,
//! one `<prefix><key>.bin` file per record, absent files read as `None`
//! and undecodable ones as [`io::ErrorKind::InvalidData`].

use std::io;
use std::path::{Path, PathBuf};

use dda_stats::DecodeError;

/// A directory of record files whose names start with one prefix.
#[derive(Clone, Debug)]
pub(crate) struct RecordDir {
    dir: PathBuf,
    prefix: &'static str,
}

impl RecordDir {
    /// Opens (creating if needed) the directory `dir`.
    pub(crate) fn open(dir: PathBuf, prefix: &'static str) -> io::Result<RecordDir> {
        std::fs::create_dir_all(&dir)?;
        Ok(RecordDir { dir, prefix })
    }

    /// The directory itself.
    pub(crate) fn dir(&self) -> &Path {
        &self.dir
    }

    /// The file of the record whose name is `key` after the prefix.
    pub(crate) fn path(&self, key: std::fmt::Arguments) -> PathBuf {
        self.dir.join(format!("{}{key}.bin", self.prefix))
    }

    /// Reads and decodes the record at `path`: `Ok(None)` when absent,
    /// [`io::ErrorKind::InvalidData`] when it fails to decode.
    pub(crate) fn read<T>(
        path: &Path,
        decode: impl FnOnce(&[u8]) -> Result<T, DecodeError>,
    ) -> io::Result<Option<T>> {
        let bytes = match std::fs::read(path) {
            Ok(b) => b,
            Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(None),
            Err(e) => return Err(e),
        };
        decode(&bytes)
            .map(Some)
            .map_err(|e| invalid_data(format!("{}: {e}", path.display())))
    }

    /// Number of record files in the directory.
    pub(crate) fn count(&self) -> io::Result<usize> {
        let mut n = 0;
        for entry in std::fs::read_dir(&self.dir)? {
            let name = entry?.file_name();
            let name = name.to_string_lossy();
            if name.starts_with(self.prefix) && name.ends_with(".bin") {
                n += 1;
            }
        }
        Ok(n)
    }
}

/// An [`io::ErrorKind::InvalidData`] error carrying `msg`.
pub(crate) fn invalid_data(msg: String) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg)
}

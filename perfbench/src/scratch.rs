//! The per-run scratch directory. Journals and every other file a run
//! writes live here, under `.perfbench-tmp/` in a base directory, and
//! are removed when the run ends.
//!
//! A benchmark run uses its working directory (the checkout it runs
//! from) as the base: it must read and write only inside that checkout,
//! and a disk-backed directory gives the journal's fsync a real cost.
//! `.perfbench-tmp/` is git-ignored. Unit tests use the system temp
//! directory.

use std::path::{Path, PathBuf};

/// A directory removed (with its contents) on drop.
pub struct ScratchDir {
    path: PathBuf,
}

impl ScratchDir {
    /// Creates `<base>/.perfbench-tmp/<pid>-<nanos>`.
    pub fn create(base: &Path) -> std::io::Result<ScratchDir> {
        let nanos = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map_or(0, |d| d.as_nanos());
        let path = base
            .join(".perfbench-tmp")
            .join(format!("{}-{nanos}", std::process::id()));
        std::fs::create_dir_all(&path)?;
        Ok(ScratchDir { path })
    }

    /// The directory's path.
    pub fn path(&self) -> &Path {
        &self.path
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.path);
        // Removes the shared parent only once no other run uses it.
        if let Some(parent) = self.path.parent() {
            let _ = std::fs::remove_dir(parent);
        }
    }
}

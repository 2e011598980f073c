//! Scratch directories inside the working directory, removed when the
//! run ends, on success and on failure alike.

use std::path::{Path, PathBuf};

/// Parent of every run's scratch directory, relative to the directory
/// the benchmark runs in.
pub const WORK_ROOT: &str = ".bench_work";

/// A run's private scratch directory; dropping it removes the tree.
pub struct Scratch {
    dir: PathBuf,
    next: usize,
}

impl Scratch {
    /// Create a fresh scratch directory under `parent`.
    pub fn new(parent: &Path) -> std::io::Result<Scratch> {
        let nanos = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map_or(0, |d| d.subsec_nanos());
        let dir = parent.join(format!("run-{}-{nanos}", std::process::id()));
        std::fs::create_dir_all(&dir)?;
        Ok(Scratch { dir, next: 0 })
    }

    /// A new empty subdirectory whose name starts with `label`.
    pub fn fresh(&mut self, label: &str) -> std::io::Result<PathBuf> {
        self.next += 1;
        let d = self.dir.join(format!("{label}-{}", self.next));
        std::fs::create_dir_all(&d)?;
        Ok(d)
    }

    /// Remove a subdirectory that is no longer needed, keeping the disk
    /// footprint of a long run small.
    pub fn release(&self, sub: &Path) {
        let _ = std::fs::remove_dir_all(sub);
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.dir);
        // Also remove the shared parent once no other run is using it.
        if let Some(parent) = self.dir.parent() {
            let _ = std::fs::remove_dir(parent);
        }
    }
}

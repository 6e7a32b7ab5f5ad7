//! Per-run scratch space for replica storage and span files. It lives
//! beside the benchmark executable — inside the build directory, hence
//! inside the checkout — because a benchmark run may not write anywhere
//! else. Storage directories are removed when the guard drops, which
//! covers every return path of a run.

use std::path::{Path, PathBuf};

/// Directory beside the executable that holds everything runs write.
pub fn root() -> Result<PathBuf, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locate executable: {e}"))?;
    let dir = exe
        .parent()
        .ok_or("executable has no parent directory")?
        .join("bench-run");
    std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    Ok(dir)
}

/// A unique storage directory, removed on drop.
pub struct ScratchDir {
    path: PathBuf,
}

impl ScratchDir {
    pub fn create(tag: &str, seed: u64) -> Result<Self, String> {
        let nanos = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map_or(0, |d| d.subsec_nanos());
        let path = root()?.join(format!(
            "storage-{tag}-{seed}-{}-{nanos}",
            std::process::id()
        ));
        std::fs::create_dir_all(&path).map_err(|e| format!("create {}: {e}", path.display()))?;
        Ok(ScratchDir { path })
    }

    pub fn path(&self) -> &Path {
        &self.path
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.path);
    }
}

//! Where the benchmark keeps files: everything lives under
//! `<target dir>/rrr-perf/`, temp files in a per-process subdirectory that
//! is removed when the run ends, on success and on failure.

use std::path::{Path, PathBuf};

/// `<target dir>/rrr-perf`, relative to the working directory. Honors
/// `CARGO_TARGET_DIR`, so outputs stay inside whatever checkout runs us.
pub fn root() -> PathBuf {
    let target = std::env::var_os("CARGO_TARGET_DIR").unwrap_or_else(|| "target".into());
    PathBuf::from(target).join("rrr-perf")
}

/// A directory that is deleted, with everything in it, when dropped.
pub struct Scratch {
    dir: PathBuf,
}

impl Scratch {
    /// Creates `<root>/<name>`, emptying it first if a crashed run left
    /// one behind.
    pub fn create(root: &Path, name: &str) -> Result<Scratch, String> {
        let dir = root.join(name);
        if dir.exists() {
            std::fs::remove_dir_all(&dir)
                .map_err(|e| format!("clear stale scratch dir {}: {e}", dir.display()))?;
        }
        std::fs::create_dir_all(&dir)
            .map_err(|e| format!("create scratch dir {}: {e}", dir.display()))?;
        Ok(Scratch { dir })
    }

    pub fn path(&self) -> &Path {
        &self.dir
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        // Nothing useful can be done with a failure here.
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

/// A scratch directory for one unit test, under the workspace's target
/// directory (tests run with the crate as working directory).
#[cfg(test)]
pub fn for_test(name: &str) -> Scratch {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../target/rrr-perf");
    Scratch::create(&root, &format!("test-{}-{name}", std::process::id())).expect("scratch dir")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scratch_dir_is_removed_on_drop() {
        let s = for_test("drop");
        let path = s.path().to_path_buf();
        std::fs::write(path.join("f"), b"x").expect("write");
        assert!(path.join("f").exists());
        drop(s);
        assert!(!path.exists());
    }
}

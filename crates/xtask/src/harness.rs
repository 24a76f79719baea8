//! Helpers shared by the `chaos` and `soak` harnesses.

use std::fs;
use std::path::{Path, PathBuf};
use std::process::Command;

/// Builds binary `bin` of `package` once, in release mode (the
/// harnesses run it many times), and returns its path.
pub fn build_release_bin(root: &Path, package: &str, bin: &str) -> Result<PathBuf, String> {
    eprintln!("xtask: building {bin} (release)");
    let status = Command::new(env!("CARGO"))
        .args([
            "build",
            "--release",
            "--offline",
            "-p",
            package,
            "--bin",
            bin,
        ])
        .current_dir(root)
        .status()
        .map_err(|e| format!("could not start cargo build: {e}"))?;
    if !status.success() {
        return Err(format!("{bin} build failed with {status}"));
    }
    Ok(root
        .join("target")
        .join("release")
        .join(format!("{bin}{}", std::env::consts::EXE_SUFFIX)))
}

/// Deletes `dir` if it exists and re-creates it empty, so a failed
/// run cannot pass on old bytes.
pub fn reset_dir(dir: &Path) -> Result<(), String> {
    match fs::remove_dir_all(dir) {
        Ok(()) => {}
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => {}
        Err(e) => return Err(format!("remove {}: {e}", dir.display())),
    }
    fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))
}

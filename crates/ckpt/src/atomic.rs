//! Durable atomic file writes and the content hash used to verify
//! them.
//!
//! The write protocol is the classic crash-safe sequence:
//!
//! 1. write the full payload to `.NAME.tmp` in the *same directory*
//!    as the target (rename is only atomic within a filesystem),
//! 2. `fsync` the temp file so the bytes are durable,
//! 3. tick the kill-point hook ([`thermal_faults::durable_write_tick`])
//!    — in a chaos run the process may abort *here*, which models a
//!    power cut before the commit,
//! 4. `rename` the temp file onto the target (the atomic commit),
//! 5. `fsync` the parent directory so the rename itself is durable.
//!
//! A reader therefore sees either the old file or the new file in its
//! entirety, never a torn mixture; an aborted write leaves only a
//! `.NAME.tmp` stray that [`crate::CheckpointStore::open`] sweeps up.
//!
//! Hashing uses 64-bit FNV-1a — not cryptographic, but this guards
//! against truncation and bit rot, not adversaries, and it is
//! dependency-free and byte-order independent.

use std::fs;
use std::io::Write as _;
use std::path::{Component, Path};

use crate::error::CkptError;

/// FNV-1a 64-bit offset basis.
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
/// FNV-1a 64-bit prime.
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// Streaming FNV-1a 64-bit hasher for content verification.
#[derive(Debug, Clone)]
pub struct Fnv64 {
    state: u64,
}

impl Default for Fnv64 {
    fn default() -> Self {
        Self::new()
    }
}

impl Fnv64 {
    /// A fresh hasher at the FNV offset basis.
    #[inline]
    pub fn new() -> Self {
        Self { state: FNV_OFFSET }
    }

    /// Absorbs `bytes` into the running hash.
    #[inline]
    pub fn update(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.state ^= u64::from(b);
            self.state = self.state.wrapping_mul(FNV_PRIME);
        }
    }

    /// The current hash value.
    #[inline]
    pub fn finish(&self) -> u64 {
        self.state
    }
}

/// FNV-1a 64-bit hash of `bytes` in one call.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h = Fnv64::new();
    h.update(bytes);
    h.finish()
}

/// Writes `bytes` to `path` durably and atomically (temp file +
/// fsync + rename + parent fsync), ticking the kill-point hook just
/// before the commit rename.
///
/// The target's parent directory must already exist. On success the
/// file at `path` contains exactly `bytes`; on failure (or a chaos
/// abort) the previous contents of `path`, if any, are untouched.
pub fn write_atomic(path: &Path, bytes: &[u8]) -> Result<(), CkptError> {
    let parent = match path.parent() {
        Some(p) if p.components().next().is_some() => p.to_path_buf(),
        _ => Path::new(".").to_path_buf(),
    };
    let file_name =
        path.file_name()
            .and_then(|n| n.to_str())
            .ok_or_else(|| CkptError::InvalidName {
                name: path.display().to_string(),
            })?;
    let tmp = parent.join(format!(".{file_name}.tmp"));

    let mut f = fs::File::create(&tmp).map_err(|e| CkptError::io("create temp", &tmp, e))?;
    f.write_all(bytes)
        .map_err(|e| CkptError::io("write temp", &tmp, e))?;
    f.sync_all()
        .map_err(|e| CkptError::io("fsync temp", &tmp, e))?;
    drop(f);

    // Chaos kill point: aborting here leaves only the temp file, the
    // published artifact is never torn.
    thermal_faults::durable_write_tick();

    fs::rename(&tmp, path).map_err(|e| CkptError::io("rename temp", path, e))?;
    sync_dir(&parent);
    Ok(())
}

/// Best-effort fsync of a directory so a just-committed rename
/// survives power loss. Failures are ignored: some filesystems and
/// platforms reject directory fsync, and the rename itself already
/// happened.
fn sync_dir(dir: &Path) {
    if let Ok(d) = fs::File::open(dir) {
        let _ = d.sync_all();
    }
}

/// True when `name` is a safe checkpoint/artifact file name:
/// `[A-Za-z0-9._-]+`, no leading dot (reserved for temp files), no
/// path separators or traversal.
pub fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && !name.starts_with('.')
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '.' | '_' | '-'))
        && Path::new(name).components().count() == 1
        && matches!(
            Path::new(name).components().next(),
            Some(Component::Normal(_))
        )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scratch(tag: &str) -> std::path::PathBuf {
        let dir =
            std::env::temp_dir().join(format!("thermal-ckpt-atomic-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn fnv_matches_reference_vectors() {
        // Published FNV-1a 64 test vectors.
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a64(b"foobar"), 0x85944171f73967e8);
    }

    #[test]
    fn streaming_equals_oneshot() {
        let mut h = Fnv64::new();
        h.update(b"hello ");
        h.update(b"world");
        assert_eq!(h.finish(), fnv1a64(b"hello world"));
    }

    #[test]
    fn write_then_read_roundtrips_and_cleans_temp() {
        let dir = scratch("roundtrip");
        let path = dir.join("artifact.txt");
        write_atomic(&path, b"payload-1").unwrap();
        assert_eq!(fs::read(&path).unwrap(), b"payload-1");
        // Overwrite is atomic too.
        write_atomic(&path, b"payload-2").unwrap();
        assert_eq!(fs::read(&path).unwrap(), b"payload-2");
        // No temp stray left behind.
        let strays: Vec<_> = fs::read_dir(&dir)
            .into_iter()
            .flatten()
            .flatten()
            .filter(|e| e.file_name().to_string_lossy().ends_with(".tmp"))
            .collect();
        assert!(strays.is_empty());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn name_validation() {
        for good in ["a", "stage-1.ck", "fig5_cell_2_3", "A.b-c_d"] {
            assert!(valid_name(good), "{good:?} should be valid");
        }
        for bad in ["", ".hidden", "a/b", "..", "a b", "α", "a\\b"] {
            assert!(!valid_name(bad), "{bad:?} should be invalid");
        }
    }
}

//! Small process helpers: peak memory, a scratch directory inside the
//! working directory, and a content digest.

use std::path::{Path, PathBuf};
use std::time::Instant;

use crate::stats::median;

/// Peak resident set size of this process (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// A scratch directory under `./.perfbench_tmp`, removed on drop.
pub struct TempDir {
    path: PathBuf,
}

impl TempDir {
    /// Creates a fresh directory named after `tag` and this process.
    pub fn new(tag: &str) -> Result<TempDir, String> {
        let path = Path::new(".perfbench_tmp").join(format!("{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&path);
        std::fs::create_dir_all(&path).map_err(|e| format!("creating {}: {e}", path.display()))?;
        Ok(TempDir { path })
    }

    /// A path inside the directory.
    pub fn join(&self, name: &str) -> PathBuf {
        self.path.join(name)
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.path);
        // Remove the parent too once no other run uses it.
        if let Some(parent) = self.path.parent() {
            let _ = std::fs::remove_dir(parent);
        }
    }
}

/// FNV-1a 64 over a sequence of byte strings, each length-prefixed so
/// that boundaries count.
pub fn digest<'a>(parts: impl IntoIterator<Item = &'a [u8]>) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut feed = |bytes: &[u8]| {
        for &b in bytes {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    for part in parts {
        feed(&(part.len() as u64).to_le_bytes());
        feed(part);
    }
    h
}

/// Runs `f` `reps` times (at least once) and returns the median
/// seconds together with the last result. Earlier results are dropped
/// outside the timed region.
pub fn median_time<T>(reps: usize, mut f: impl FnMut(usize) -> T) -> (f64, T) {
    let mut secs = Vec::with_capacity(reps.max(1));
    let mut last = None;
    for i in 0..reps.max(1) {
        drop(last.take());
        let t = Instant::now();
        let value = f(i);
        secs.push(t.elapsed().as_secs_f64());
        last = Some(value);
    }
    (median(&secs), last.expect("at least one repetition"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn digest_separates_boundaries() {
        let a = digest([b"ab".as_slice(), b"c".as_slice()]);
        let b = digest([b"a".as_slice(), b"bc".as_slice()]);
        assert_ne!(a, b);
        assert_eq!(a, digest([b"ab".as_slice(), b"c".as_slice()]));
    }

    #[test]
    fn peak_rss_is_positive() {
        assert!(peak_rss_mb() > 0.0);
    }

    #[test]
    fn median_time_keeps_last_result() {
        let (secs, last) = median_time(3, |i| i * 2);
        assert_eq!(last, 4);
        assert!(secs >= 0.0);
    }
}

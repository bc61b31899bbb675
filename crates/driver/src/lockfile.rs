//! The cross-process lock around cache persists.
//!
//! The synthesis cache file can be written by several *processes* at once
//! (a long-lived `rake-served` instance plus ad-hoc `rakec` runs pointed
//! at the same `--cache` directory). The in-process `persist_lock` mutex
//! cannot see those writers, so [`SynthCache::persist`] additionally holds
//! an exclusive advisory lock on a file next to the cache ([`File::lock`]:
//! `flock` on Unix) while it appends to the segment log or compacts it.
//!
//! The kernel drops the lock when the holder's file handle closes, which
//! includes the holder crashing, so a dead holder never wedges the cache.
//! The lock file is created on first use and never removed: whether it
//! exists, and what it holds, means nothing.
//!
//! [`SynthCache::persist`]: crate::cache::SynthCache::persist

use std::fs::{File, OpenOptions, TryLockError};
use std::io;
use std::path::Path;
use std::time::{Duration, Instant};

/// Lock the file at `path` (creating it if needed) exclusively, waiting up
/// to `timeout` for another holder to let go. The lock is released when
/// the returned handle is dropped. Every call opens its own handle, so two
/// acquisitions exclude each other within one process too.
///
/// # Errors
///
/// Returns `ErrorKind::TimedOut` if another holder keeps the lock past the
/// deadline, or any I/O error opening or locking the file.
pub fn acquire(path: &Path, timeout: Duration) -> io::Result<File> {
    let file = OpenOptions::new().create(true).truncate(false).write(true).open(path)?;
    let deadline = Instant::now() + timeout;
    let mut backoff = Duration::from_millis(2);
    loop {
        match file.try_lock() {
            Ok(()) => return Ok(file),
            Err(TryLockError::WouldBlock) => {}
            Err(TryLockError::Error(e)) => return Err(e),
        }
        let now = Instant::now();
        if now >= deadline {
            return Err(io::Error::new(
                io::ErrorKind::TimedOut,
                format!("lock {} held by another holder", path.display()),
            ));
        }
        std::thread::sleep(backoff.min(deadline - now));
        backoff = (backoff * 2).min(Duration::from_millis(50));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::fs;
    use std::path::PathBuf;
    use std::sync::atomic::{AtomicBool, AtomicI32, Ordering};

    fn tmp(name: &str) -> PathBuf {
        let p = std::env::temp_dir().join(format!("rake-lockfile-{name}-{}", std::process::id()));
        let _ = fs::remove_file(&p);
        p
    }

    #[test]
    fn acquire_release_reacquire() {
        let path = tmp("basic");
        let lock = acquire(&path, Duration::from_secs(1)).unwrap();
        let other = File::open(&path).unwrap();
        assert!(matches!(other.try_lock(), Err(TryLockError::WouldBlock)), "the lock is held");
        drop(lock);
        other.try_lock().expect("drop must release the lock");
        drop(other);
        let lock = acquire(&path, Duration::from_secs(1)).unwrap();
        drop(lock);
        let _ = fs::remove_file(&path);
    }

    #[test]
    fn live_holder_times_out_second_acquirer() {
        let path = tmp("contended");
        let _held = acquire(&path, Duration::from_secs(1)).unwrap();
        let start = Instant::now();
        let err = acquire(&path, Duration::from_millis(80)).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::TimedOut);
        assert!(start.elapsed() >= Duration::from_millis(80));
        let _ = fs::remove_file(&path);
    }

    /// A lock file a crashed holder left behind, here a pidfile naming a
    /// process that cannot exist, is no obstacle: only a live handle's
    /// lock excludes.
    #[test]
    fn stale_lock_from_dead_pid_is_broken() {
        let path = tmp("stale");
        fs::write(&path, "4194999999\ntstale-crashed-holder").unwrap();
        drop(acquire(&path, Duration::from_millis(200)).unwrap());
        let _ = fs::remove_file(&path);
    }

    /// Four threads take the lock 40 times each, every acquisition on a
    /// handle of its own; at no point may two hold it at once.
    #[test]
    fn concurrent_acquirers_preserve_mutual_exclusion() {
        let path = tmp("mutex-stress");
        let holders = AtomicI32::new(0);
        let violated = AtomicBool::new(false);
        std::thread::scope(|scope| {
            for _ in 0..4 {
                scope.spawn(|| {
                    for _ in 0..40 {
                        let lock =
                            acquire(&path, Duration::from_secs(10)).expect("acquire under stress");
                        if holders.fetch_add(1, Ordering::SeqCst) != 0 {
                            violated.store(true, Ordering::SeqCst);
                        }
                        std::thread::yield_now();
                        holders.fetch_sub(1, Ordering::SeqCst);
                        drop(lock);
                    }
                });
            }
        });
        assert!(!violated.load(Ordering::SeqCst), "two handles held the lock at once");
        let _ = fs::remove_file(&path);
    }
}

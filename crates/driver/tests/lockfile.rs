//! Cross-process cache persistence stress test.
//!
//! Two real OS processes hammer `SynthCache::persist` against the same
//! directory. With the advisory file lock and read-merge-write cycle, the
//! final file must hold the union of everything both processes stored —
//! without the lock, last-writer-wins would silently drop entries.
//!
//! The child processes are this same test binary re-executed with an
//! environment-variable gate (the `cargo test` harness makes spawning a
//! helper binary awkward, re-exec does not). Their output is captured, not
//! inherited: two concurrent children writing `test lock_stress_child ... `
//! into the parent's stdout interleave into lines no harness can parse.

use std::path::Path;
use std::process::{Command, Stdio};
use std::time::Duration;

use rake::CompileError;
use rake_driver::cache::{CacheEntry, SynthCache};
use rake_driver::lockfile;

const DIR_VAR: &str = "RAKE_LOCK_STRESS_DIR";
const TAG_VAR: &str = "RAKE_LOCK_STRESS_TAG";
const KEYS_PER_CHILD: usize = 32;

/// Hidden child body: when the env gate is set, store `KEYS_PER_CHILD`
/// distinct keys into the shared cache dir, persisting after every store so
/// the two children interleave read-merge-write cycles as much as possible.
/// Without the gate (a normal `cargo test` run) this is a no-op.
#[test]
fn lock_stress_child() {
    let Ok(dir) = std::env::var(DIR_VAR) else { return };
    let tag = std::env::var(TAG_VAR).expect("child needs a tag");
    let cache = SynthCache::persistent(Path::new(&dir));
    for i in 0..KEYS_PER_CHILD {
        cache.store(&format!("{tag}-{i}"), CacheEntry::Failed(CompileError::LiftFailed));
        cache.persist().unwrap_or_else(|e| panic!("child {tag} persist {i}: {e}"));
    }
}

#[test]
fn two_process_persist_stress_unions_entries() {
    let dir = std::env::temp_dir().join(format!("rake-driver-lock-stress-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();

    // Plant the lock file a "crashed" pidfile holder would leave behind (a
    // pid above the kernel's pid ceiling is never alive). It must block
    // no one: only a live handle's lock excludes.
    let lock_path = dir.join("synthcache.json.lock");
    std::fs::write(&lock_path, "4194999999\ntstale-crashed-holder").unwrap();

    let exe = std::env::current_exe().unwrap();
    let children: Vec<_> = ["alpha", "beta"]
        .iter()
        .map(|tag| {
            let child = Command::new(&exe)
                .args(["lock_stress_child", "--exact", "--test-threads", "1"])
                .env(DIR_VAR, &dir)
                .env(TAG_VAR, tag)
                .stdout(Stdio::piped())
                .stderr(Stdio::piped())
                .spawn()
                .expect("spawn child test process");
            (*tag, child)
        })
        .collect();
    for (tag, child) in children {
        let out = child.wait_with_output().expect("wait for child");
        assert!(
            out.status.success(),
            "child {tag} failed: {}\n--- stdout ---\n{}--- stderr ---\n{}",
            out.status,
            String::from_utf8_lossy(&out.stdout),
            String::from_utf8_lossy(&out.stderr)
        );
    }

    let warm = SynthCache::persistent(&dir);
    assert_eq!(warm.len(), 2 * KEYS_PER_CHILD, "persisted file must union both processes' entries");
    for tag in ["alpha", "beta"] {
        for i in 0..KEYS_PER_CHILD {
            assert!(
                matches!(
                    warm.lookup(&format!("{tag}-{i}")),
                    Some(CacheEntry::Failed(CompileError::LiftFailed))
                ),
                "missing entry {tag}-{i}"
            );
        }
    }
    // Both children exited, so their locks went with their handles: the
    // lock is free at once. The file itself stays; it is never removed.
    drop(lockfile::acquire(&lock_path, Duration::from_millis(100)).unwrap());

    let _ = std::fs::remove_dir_all(&dir);
}

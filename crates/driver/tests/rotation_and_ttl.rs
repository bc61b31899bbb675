//! Lifecycle edges that only show under concurrency or at exact instants:
//! journal rotation racing a stampede of relaxed appenders, and
//! quarantine-TTL expiry precisely at the deadline (clock injected — no
//! test here ever sleeps).

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use rake_driver::cache::{CacheEntry, SynthCache};
use rake_driver::event::{DriverEvent, Journal, OutcomeKind};
use rake_driver::json::{self, Json};

fn completed(key: String) -> DriverEvent {
    DriverEvent::JobCompleted {
        key,
        outcome: OutcomeKind::Compiled,
        detail: None,
        fault_injected: false,
        replayed: false,
        run_time: Duration::from_millis(1),
    }
}

/// Many threads hammering `append_relaxed` while the size trigger forces
/// repeated inline rotations: the folded snapshot plus the post-rotation
/// tail must still contain a `job_completed` record for every key, and
/// every line of the final file must be well-formed JSON (no torn or
/// interleaved writes).
#[test]
fn rotation_races_concurrent_relaxed_appenders_without_losing_records() {
    let dir = std::env::temp_dir().join(format!("rake-journal-race-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("events.jsonl");

    const THREADS: usize = 8;
    const PER_THREAD: usize = 50;
    // Small enough that rotation fires dozens of times mid-stampede.
    let journal = Arc::new(Journal::open(&path, Some(2 * 1024)).unwrap());
    let handles: Vec<_> = (0..THREADS)
        .map(|t| {
            let journal = Arc::clone(&journal);
            std::thread::spawn(move || {
                for i in 0..PER_THREAD {
                    let key = format!("key_{t}_{i}");
                    if i % 10 == 0 {
                        // A sprinkling of durable appends keeps the fsync
                        // path in the race too.
                        journal.append(&completed(key));
                    } else {
                        journal.append_relaxed(&completed(key));
                    }
                }
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }

    assert!(journal.rotations() >= 1, "rotation never fired: {} bytes", journal.bytes());

    let text = std::fs::read_to_string(&path).unwrap();
    let mut seen = std::collections::HashSet::new();
    for line in text.lines().filter(|l| !l.trim().is_empty()) {
        let doc = json::parse(line).unwrap_or_else(|e| panic!("torn journal line {line:?}: {e}"));
        if doc.get("event").and_then(Json::as_str) == Some("job_completed") {
            if let Some(key) = doc.get("key").and_then(Json::as_str) {
                seen.insert(key.to_owned());
            }
        }
    }
    for t in 0..THREADS {
        for i in 0..PER_THREAD {
            let key = format!("key_{t}_{i}");
            assert!(seen.contains(&key), "rotation lost the record for {key}");
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// The injected quarantine clock, advanced by hand.
static NOW: AtomicU64 = AtomicU64::new(0);
fn test_clock() -> u64 {
    NOW.load(Ordering::SeqCst)
}

/// A quarantine verdict must hold strictly *before* its deadline and
/// lapse exactly *at* it — `now == expires` already reads as expired, on
/// every read path (lookup, reason peek, floor check, census).
#[test]
fn quarantine_ttl_expires_exactly_at_the_boundary() {
    let cache = SynthCache::in_memory().with_clock(test_clock);
    NOW.store(1_000, Ordering::SeqCst);
    cache.quarantine("pill", "worker killed by signal 9", Some(Duration::from_secs(30)));

    // One second before the deadline: quarantined on every read path.
    NOW.store(1_029, Ordering::SeqCst);
    assert!(matches!(cache.lookup("pill"), Some(CacheEntry::Quarantined(_))));
    assert_eq!(cache.quarantine_reason("pill").as_deref(), Some("worker killed by signal 9"));
    assert!(cache.contains("pill"));
    assert_eq!(cache.quarantined_count(), 1);

    // Exactly at the deadline: expired, dropped, and the key is free.
    NOW.store(1_030, Ordering::SeqCst);
    assert_eq!(cache.quarantined_count(), 0, "now == deadline must already read expired");
    assert!(!cache.contains("pill"));
    assert!(cache.quarantine_reason("pill").is_none(), "expired verdict must not be served");
    assert!(cache.lookup("pill").is_none(), "expired verdict must read as a miss");
    assert_eq!(cache.len(), 0, "expiry drops the resident entry");

    // A zero TTL is clamped to one second, not instant expiry.
    NOW.store(2_000, Ordering::SeqCst);
    cache.quarantine("pill2", "boom", Some(Duration::ZERO));
    assert!(matches!(cache.lookup("pill2"), Some(CacheEntry::Quarantined(_))));
    NOW.store(2_001, Ordering::SeqCst);
    assert!(cache.lookup("pill2").is_none());

    // `None` quarantines forever, whatever the clock says.
    cache.quarantine("pill3", "forever", None);
    NOW.store(u64::MAX, Ordering::SeqCst);
    assert!(matches!(cache.lookup("pill3"), Some(CacheEntry::Quarantined(_))));
}

//! Lifecycle edges that only show under concurrency or at exact instants:
//! journal roll-over racing a stampede of appenders, and quarantine-TTL
//! expiry precisely at the deadline (clock injected — no test here ever
//! sleeps).

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Barrier};
use std::time::Duration;

use rake_driver::cache::{CacheEntry, SynthCache};
use rake_driver::event::{DriverEvent, JobRecord, Journal, OutcomeKind};
use rake_driver::json::{self, Json};

fn finished(key: String) -> DriverEvent {
    DriverEvent::JobFinished(JobRecord {
        index: 0,
        name: None,
        key,
        cache_hit: false,
        queue_wait: Duration::from_micros(20),
        run_time: Duration::from_millis(1),
        outcome: OutcomeKind::Compiled,
        detail: None,
        instructions: Some(4),
        stats: Default::default(),
        fault_injected: false,
    })
}

/// Threads racing distinct-key appends through one journal while the size
/// trigger rolls it over dozens of times: both files end within the bound
/// plus the one line that crossed it, and every line is whole JSON (no
/// torn or interleaved writes). A journal that kept one record per key
/// ever seen would hold every key here, about half a megabyte.
#[test]
fn rollover_bounds_both_files_under_concurrent_appenders() {
    let dir = std::env::temp_dir().join(format!("rake-journal-race-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("journal.jsonl");
    let rolled = dir.join("journal.jsonl.1");

    const THREADS: usize = 4;
    const PER_THREAD: usize = 1000;
    const BOUND: u64 = 32 * 1024;
    let journal = Arc::new(Journal::open(&path, Some(BOUND)).unwrap());
    let start = Arc::new(Barrier::new(THREADS));
    let handles: Vec<_> = (0..THREADS)
        .map(|t| {
            let (journal, start) = (Arc::clone(&journal), Arc::clone(&start));
            std::thread::spawn(move || {
                start.wait();
                for i in 0..PER_THREAD {
                    journal.append(&finished(format!("key_{t}_{i}")));
                }
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }
    assert!(journal.rotations() >= 10, "only {} roll-overs", journal.rotations());

    for file in [&path, &rolled] {
        let text = std::fs::read_to_string(file).unwrap();
        let last_line = text.lines().last().map_or(0, |l| l.len() + 1) as u64;
        assert!(
            text.len() as u64 - last_line <= BOUND,
            "{} holds {} bytes, past the bound before its last line",
            file.display(),
            text.len()
        );
        for line in text.lines() {
            let doc =
                json::parse(line).unwrap_or_else(|e| panic!("torn journal line {line:?}: {e}"));
            assert_eq!(doc.get("event").and_then(Json::as_str), Some("job_finished"));
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

//! The content-addressed synthesis cache.
//!
//! Keys are canonical-form S-expressions (see [`crate::canon`]) combined
//! with a fingerprint of the target geometry and search options — two
//! batches compiled for different machines or under different ablations
//! never share entries. Values are either the synthesized artifacts (in
//! canonical buffer names, renamed on the way out) or a *negative* entry
//! recording a deterministic failure, so known-unliftable tiles are not
//! re-searched. Timeouts and panics are never negative-cached: they do not
//! prove anything about the tile.
//!
//! # Lifecycle
//!
//! The in-memory layer is bounded by [`CacheLimits`]: when an entry or
//! byte cap is exceeded, entries are evicted cost-aware-LRU — compiled
//! artifacts go first, negative and quarantine verdicts last,
//! least-recently-used within each class.
//!
//! The persistent layer is a segment pair inside the cache directory:
//! a `synthcache.json` snapshot plus a `synthcache.log` of per-entry
//! JSONL appends. [`SynthCache::persist`] appends only the entries stored
//! since the last flush (O(new work), not O(cache)) under the existing
//! cross-process advisory lock; once the log outgrows
//! [`CacheLimits::log_compact_bytes`] it is folded into a fresh snapshot
//! (tmp + rename) and removed. Loading replays snapshot then log, later
//! lines winning. A corrupted or unreadable file is reported to stderr and
//! treated as a cold start — it never aborts compilation — and the next
//! compaction rewrites it.

use std::collections::{BTreeMap, HashMap};
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;

use rake::CompileError;
use synth::{LiftRule, LiftStep, LiftTrace};

use crate::json::{self, Json};

/// File name of the persistent snapshot inside the cache directory.
pub const CACHE_FILE: &str = "synthcache.json";

/// File name of the append-only segment log next to the snapshot.
pub const LOG_FILE: &str = "synthcache.log";

/// Bounds on the cache lifecycle. The defaults are unbounded in memory
/// (the historical behavior) with a 4 MiB log-compaction threshold.
#[derive(Debug, Clone, Copy)]
pub struct CacheLimits {
    /// Maximum in-memory entries; eviction keeps the count at or under
    /// this. `None` is unbounded.
    pub max_entries: Option<usize>,
    /// Maximum in-memory bytes (serialized-entry accounting, i.e. the
    /// entry's cost on disk). Eviction keeps the total at or under this,
    /// but always retains at least one entry. `None` is unbounded.
    pub max_bytes: Option<usize>,
    /// Segment-log size that triggers folding the log into the snapshot
    /// during [`SynthCache::persist`].
    pub log_compact_bytes: u64,
}

impl CacheLimits {
    /// No in-memory bounds; compaction at the default threshold.
    pub fn unbounded() -> CacheLimits {
        CacheLimits { max_entries: None, max_bytes: None, log_compact_bytes: 4 * 1024 * 1024 }
    }
}

impl Default for CacheLimits {
    fn default() -> CacheLimits {
        CacheLimits::unbounded()
    }
}

/// Synthesized artifacts stored under a canonical key. Buffer names inside
/// are canonical (`b0, b1, …`); [`crate::canon::rename_uber`] /
/// [`crate::canon::rename_hvx`] map them back per requesting tile.
#[derive(Debug, Clone)]
pub struct CachedArtifacts {
    /// The lifted Uber-IR expression.
    pub uber: uber_ir::UberExpr,
    /// The synthesized HVX expression.
    pub hvx: hvx::HvxExpr,
    /// The lifting trace (rendered with canonical buffer names).
    pub trace: LiftTrace,
}

/// The crash verdict stored for a poison-pill key: a key whose jobs
/// repeatedly killed isolated workers is negative-cached with the crash
/// forensics so later requests answer instantly instead of re-burning
/// synthesis budget (and more workers).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QuarantineInfo {
    /// Human-readable crash summary ("worker killed by signal 6 …").
    pub reason: String,
    /// Absolute Unix-seconds expiry; `None` quarantines forever. Expired
    /// entries are dropped lazily on the next lookup, so the key gets a
    /// fresh chance after its TTL.
    pub expires_unix: Option<u64>,
}

impl QuarantineInfo {
    /// Whether this verdict has outlived its TTL.
    pub fn expired(&self) -> bool {
        self.expired_at(unix_now())
    }

    /// Whether this verdict has outlived its TTL as of `now` (Unix
    /// seconds). A verdict expires exactly at its deadline: `now ==
    /// expires_unix` already reads as expired.
    pub fn expired_at(&self, now: u64) -> bool {
        match self.expires_unix {
            Some(deadline) => now >= deadline,
            None => false,
        }
    }
}

/// Seconds since the Unix epoch (0 if the clock is before it).
fn unix_now() -> u64 {
    std::time::SystemTime::now()
        .duration_since(std::time::SystemTime::UNIX_EPOCH)
        .map_or(0, |d| d.as_secs())
}

/// One cache entry.
#[derive(Debug, Clone)]
pub enum CacheEntry {
    /// A successful compilation.
    Compiled(CachedArtifacts),
    /// A deterministic failure (e.g. no verified lifting exists).
    Failed(CompileError),
    /// A poison-pill verdict: this key crashed isolated workers past the
    /// configured threshold and is served as `quarantined` until expiry.
    Quarantined(QuarantineInfo),
}

/// Running cache-effectiveness counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups that found a usable entry.
    pub hits: u64,
    /// Lookups that found nothing usable.
    pub misses: u64,
    /// Entries loaded from the persistent layer at startup.
    pub loaded: u64,
    /// Entries (or whole files) dropped as corrupted at startup.
    pub corrupted: u64,
    /// Entries evicted to satisfy [`CacheLimits`].
    pub evicted: u64,
    /// Entry lines appended to the segment log by [`SynthCache::persist`].
    pub appended: u64,
    /// Times the segment log was folded into the snapshot.
    pub compactions: u64,
}

/// One resident entry plus its bookkeeping: the pre-serialized JSON line
/// (reused for log appends, snapshot writes, byte accounting, and
/// idempotent-store detection), its eviction class, and its LRU sequence.
#[derive(Debug)]
struct Slot {
    entry: CacheEntry,
    line: String,
    class: u8,
    seq: u64,
}

/// Everything guarded by the in-memory mutex: the entry map, the eviction
/// order index, byte totals, and the lines stored since the last flush.
#[derive(Debug, Default)]
struct MemState {
    map: HashMap<String, Slot>,
    /// `(class, seq) -> key`, ascending = next to evict. Sequences are
    /// unique (a monotone clock), so no two entries share an index key.
    order: BTreeMap<(u8, u64), String>,
    total_bytes: usize,
    clock: u64,
    /// Serialized entry lines stored since the last successful flush —
    /// exactly what the next [`SynthCache::persist`] appends to the log.
    pending: Vec<String>,
}

impl MemState {
    fn insert(&mut self, key: String, entry: CacheEntry, line: String) {
        self.clock += 1;
        let class = evict_class(&entry);
        let slot = Slot { entry, line, class, seq: self.clock };
        self.total_bytes += slot.line.len();
        self.order.insert((class, self.clock), key.clone());
        if let Some(old) = self.map.insert(key, slot) {
            self.order.remove(&(old.class, old.seq));
            self.total_bytes -= old.line.len();
        }
    }

    /// Drop a key outright (expired quarantine verdicts).
    fn remove(&mut self, key: &str) {
        if let Some(slot) = self.map.remove(key) {
            self.order.remove(&(slot.class, slot.seq));
            self.total_bytes -= slot.line.len();
        }
    }

    /// Refresh a key's LRU recency (on hits and idempotent re-stores).
    fn touch(&mut self, key: &str) {
        let Some(slot) = self.map.get_mut(key) else { return };
        self.clock += 1;
        self.order.remove(&(slot.class, slot.seq));
        slot.seq = self.clock;
        self.order.insert((slot.class, slot.seq), key.to_owned());
    }

    /// Evict until within `limits`; returns how many entries were dropped.
    /// The byte bound always retains at least one entry so a single
    /// oversized artifact cannot render the cache useless.
    fn enforce(&mut self, limits: &CacheLimits) -> u64 {
        let mut evicted = 0;
        while self.over(limits) {
            let Some((_, key)) = self.order.pop_first() else { break };
            let slot = self.map.remove(&key).expect("eviction order tracks the map");
            self.total_bytes -= slot.line.len();
            evicted += 1;
        }
        evicted
    }

    fn over(&self, limits: &CacheLimits) -> bool {
        limits.max_entries.is_some_and(|m| self.map.len() > m)
            || (limits.max_bytes.is_some_and(|m| self.total_bytes > m) && self.map.len() > 1)
    }
}

/// Eviction class: lower is evicted first. Compiled artifacts go first;
/// a negative verdict is a whole search's work in a handful of bytes, and
/// a quarantine verdict cost (at least) `crash_threshold` dead workers to
/// earn — forgetting it early invites more crashes — so both go last.
fn evict_class(entry: &CacheEntry) -> u8 {
    match entry {
        CacheEntry::Compiled(_) => 0,
        CacheEntry::Failed(_) | CacheEntry::Quarantined(_) => 1,
    }
}

/// The two-layer synthesis cache. All methods take `&self`; the cache is
/// shared across worker threads behind an `Arc`.
#[derive(Debug)]
pub struct SynthCache {
    mem: Mutex<MemState>,
    path: Option<PathBuf>,
    log_path: Option<PathBuf>,
    limits: CacheLimits,
    stats: Mutex<CacheStats>,
    /// Serializes concurrent [`SynthCache::persist`] calls (workers
    /// persist after every completed job) so two threads never interleave
    /// their log appends or race a compaction.
    persist_lock: Mutex<()>,
    /// Set when loading found a corrupted snapshot or log: the next flush
    /// compacts unconditionally, rewriting the damaged file.
    force_compact: AtomicBool,
    /// Unix-seconds clock used for quarantine TTLs. Injected by tests
    /// (see [`SynthCache::with_clock`]) so expiry-at-the-boundary is
    /// checkable without sleeping; everything else uses the wall clock.
    clock: fn() -> u64,
}

impl SynthCache {
    /// A purely in-memory cache, unbounded.
    pub fn in_memory() -> SynthCache {
        SynthCache::in_memory_bounded(CacheLimits::unbounded())
    }

    /// A purely in-memory cache under the given limits.
    pub fn in_memory_bounded(limits: CacheLimits) -> SynthCache {
        SynthCache {
            mem: Mutex::default(),
            path: None,
            log_path: None,
            limits,
            stats: Mutex::default(),
            persist_lock: Mutex::new(()),
            force_compact: AtomicBool::new(false),
            clock: unix_now,
        }
    }

    /// Replace the quarantine-TTL clock (a plain `fn` returning Unix
    /// seconds). Tests inject a controlled clock to pin expiry exactly
    /// at the deadline without sleeping through a real TTL.
    pub fn with_clock(mut self, clock: fn() -> u64) -> SynthCache {
        self.clock = clock;
        self
    }

    /// A cache backed by `dir/synthcache.json` (+ segment log), loaded now
    /// if present, with no in-memory bounds.
    pub fn persistent(dir: &Path) -> SynthCache {
        SynthCache::bounded(dir, CacheLimits::unbounded())
    }

    /// A cache backed by `dir/synthcache.json` plus the `synthcache.log`
    /// segment log, loaded now if present (snapshot first, then log lines
    /// — later wins), bounded by `limits`. A corrupted file warns, starts
    /// cold, and schedules a repairing compaction; it never panics.
    pub fn bounded(dir: &Path, limits: CacheLimits) -> SynthCache {
        let path = dir.join(CACHE_FILE);
        let log_path = dir.join(LOG_FILE);
        let mut stats = CacheStats::default();
        let mut force_compact = false;
        let mut state = MemState::default();

        match std::fs::read_to_string(&path) {
            Ok(text) => match load_entries(&text, &mut stats) {
                Ok(map) => {
                    // Sorted insertion gives deterministic LRU order (and
                    // thus deterministic trimming) for snapshot entries.
                    let mut keys: Vec<String> = map.keys().cloned().collect();
                    keys.sort();
                    let mut map = map;
                    for key in keys {
                        let entry = map.remove(&key).expect("key came from the map");
                        let line = entry_json(&key, &entry).to_string();
                        state.insert(key, entry, line);
                    }
                }
                Err(err) => {
                    eprintln!(
                        "warning: synthesis cache {} is corrupted ({err}); starting cold",
                        path.display()
                    );
                    stats.corrupted += 1;
                    force_compact = true;
                }
            },
            Err(err) if err.kind() == std::io::ErrorKind::NotFound => {}
            Err(err) => {
                eprintln!(
                    "warning: synthesis cache {} is unreadable ({err}); starting cold",
                    path.display()
                );
                stats.corrupted += 1;
                // Bytes that are not UTF-8 are damage: rewrite the file.
                force_compact |= err.kind() == std::io::ErrorKind::InvalidData;
            }
        }

        match std::fs::read_to_string(&log_path) {
            Ok(text) => {
                let lines: Vec<&str> = text.lines().collect();
                for (i, line) in lines.iter().enumerate() {
                    if line.trim().is_empty() {
                        continue;
                    }
                    match json::parse(line).ok().as_ref().and_then(load_entry) {
                        Some((key, entry)) => {
                            stats.loaded += 1;
                            state.insert(key, entry, (*line).to_owned());
                        }
                        // A torn final line is the expected artifact of a
                        // crash mid-append, not corruption. The next append
                        // would be glued onto it and lost with it, so the
                        // next flush compacts the log away instead.
                        None if i + 1 == lines.len() => force_compact = true,
                        None => {
                            stats.corrupted += 1;
                            force_compact = true;
                            eprintln!(
                                "warning: skipping malformed synthesis cache log line in {}",
                                log_path.display()
                            );
                        }
                    }
                }
            }
            Err(err) if err.kind() == std::io::ErrorKind::NotFound => {}
            Err(err) => {
                eprintln!(
                    "warning: synthesis cache log {} is unreadable ({err}); ignoring it",
                    log_path.display()
                );
                stats.corrupted += 1;
                force_compact |= err.kind() == std::io::ErrorKind::InvalidData;
            }
        }

        stats.evicted += state.enforce(&limits);
        SynthCache {
            mem: Mutex::new(state),
            path: Some(path),
            log_path: Some(log_path),
            limits,
            stats: Mutex::new(stats),
            persist_lock: Mutex::new(()),
            force_compact: AtomicBool::new(force_compact),
            clock: unix_now,
        }
    }

    /// The lifecycle bounds this cache runs under.
    pub fn limits(&self) -> CacheLimits {
        self.limits
    }

    /// Look up a key, counting the hit or miss. An expired quarantine
    /// verdict reads as a miss.
    pub fn lookup(&self, key: &str) -> Option<CacheEntry> {
        let mut state = self.mem.lock().unwrap();
        let found = match state.map.get(key).map(|s| s.entry.clone()) {
            Some(CacheEntry::Quarantined(q)) if q.expired_at((self.clock)()) => {
                // The TTL elapsed: the key earns a fresh attempt. Dropping
                // the resident entry is enough — the next store overwrites
                // the persisted verdict via normal last-wins replay.
                state.remove(key);
                None
            }
            other => other,
        };
        if found.is_some() {
            state.touch(key);
        }
        drop(state);
        let mut stats = self.stats.lock().unwrap();
        if found.is_some() {
            stats.hits += 1;
        } else {
            stats.misses += 1;
        }
        found
    }

    /// Whether [`SynthCache::lookup`] would answer a key, without counting
    /// a hit or miss — for admission decisions that precede the real
    /// (counted) lookup. An expired quarantine verdict is absent.
    pub fn contains(&self, key: &str) -> bool {
        match self.mem.lock().unwrap().map.get(key).map(|s| &s.entry) {
            Some(CacheEntry::Quarantined(q)) => !q.expired_at((self.clock)()),
            Some(_) => true,
            None => false,
        }
    }

    /// Quarantine a key as a poison pill: its jobs crashed isolated
    /// workers past the configured threshold. `ttl = None` is forever.
    pub fn quarantine(&self, key: &str, reason: &str, ttl: Option<std::time::Duration>) {
        self.store(
            key,
            CacheEntry::Quarantined(QuarantineInfo {
                reason: reason.to_owned(),
                expires_unix: ttl.map(|t| (self.clock)().saturating_add(t.as_secs().max(1))),
            }),
        );
    }

    /// The active quarantine verdict for a key, if any — a non-counting
    /// peek (no hit/miss accounting) for pre-dispatch poison checks.
    /// An expired verdict reads as `None` (and is dropped).
    pub fn quarantine_reason(&self, key: &str) -> Option<String> {
        let mut state = self.mem.lock().unwrap();
        match state.map.get(key).map(|s| &s.entry) {
            Some(CacheEntry::Quarantined(q)) if q.expired_at((self.clock)()) => {
                state.remove(key);
                None
            }
            Some(CacheEntry::Quarantined(q)) => Some(q.reason.clone()),
            _ => None,
        }
    }

    /// Number of active (unexpired) quarantine verdicts currently held.
    pub fn quarantined_count(&self) -> usize {
        self.mem
            .lock()
            .unwrap()
            .map
            .values()
            .filter(
                |s| matches!(&s.entry, CacheEntry::Quarantined(q) if !q.expired_at((self.clock)())),
            )
            .count()
    }

    /// Insert an entry. Deadline failures are rejected (they are not
    /// deterministic verdicts) — the call is a no-op for them. Re-storing
    /// a byte-identical entry only refreshes its recency: nothing is
    /// queued for the log, so warm replays never grow the file.
    pub fn store(&self, key: &str, entry: CacheEntry) {
        if matches!(entry, CacheEntry::Failed(CompileError::DeadlineExceeded)) {
            return;
        }
        let line = entry_json(key, &entry).to_string();
        let mut state = self.mem.lock().unwrap();
        if let Some(slot) = state.map.get(key) {
            if slot.line == line {
                state.touch(key);
                return;
            }
        }
        state.insert(key.to_owned(), entry, line.clone());
        state.pending.push(line);
        let evicted = state.enforce(&self.limits);
        drop(state);
        if evicted > 0 {
            self.stats.lock().unwrap().evicted += evicted;
        }
    }

    /// Number of entries currently held.
    pub fn len(&self) -> usize {
        self.mem.lock().unwrap().map.len()
    }

    /// Whether the cache holds no entries.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Approximate in-memory footprint: the summed serialized size of the
    /// resident entries (the same accounting [`CacheLimits::max_bytes`]
    /// bounds).
    pub fn total_bytes(&self) -> usize {
        self.mem.lock().unwrap().total_bytes
    }

    /// On-disk `(snapshot, log)` sizes in bytes; zeros for an in-memory
    /// cache or missing files. Metadata reads, cheap enough for metrics.
    pub fn disk_bytes(&self) -> (u64, u64) {
        let size = |p: &Option<PathBuf>| {
            p.as_ref().and_then(|p| std::fs::metadata(p).ok()).map_or(0, |m| m.len())
        };
        (size(&self.path), size(&self.log_path))
    }

    /// Current cache counters.
    pub fn stats(&self) -> CacheStats {
        *self.stats.lock().unwrap()
    }

    /// Flush the entries stored since the last flush (if a persistent
    /// layer is configured): take the cross-process advisory lock, append
    /// their serialized lines to the segment log, and fsync — O(new work),
    /// not O(cache). When the log outgrows
    /// [`CacheLimits::log_compact_bytes`] (or loading found corruption),
    /// fold snapshot + log + memory into a fresh bounded snapshot via
    /// tmp + rename and remove the log. With nothing pending this returns
    /// before the persist lock, so all-cache-hit batches (the serving
    /// layer's warm path) neither touch the disk nor wait behind another
    /// batch's flush. A caller whose lines another thread's flush took
    /// returns before they are synced; a crash in that window loses the
    /// entry, and rerunning the batch against the directory recompiles it.
    ///
    /// # Errors
    ///
    /// Propagates I/O failures, including a timeout waiting on another
    /// live process's lock (the caller decides whether they are fatal).
    /// The un-flushed lines are re-queued, so a later persist retries.
    pub fn persist(&self) -> std::io::Result<()> {
        let (Some(path), Some(log_path)) = (&self.path, &self.log_path) else { return Ok(()) };
        if self.mem.lock().unwrap().pending.is_empty() {
            return Ok(());
        }
        let _serialized = self.persist_lock.lock().unwrap();
        let lines: Vec<String> = std::mem::take(&mut self.mem.lock().unwrap().pending);
        if lines.is_empty() {
            return Ok(());
        }
        let result = self.flush(path, log_path, &lines);
        if result.is_err() {
            // Re-queue at the front: entries stored while we were flushing
            // must stay *after* these lines so last-wins replay holds.
            // (Lines that did reach the log before the error will be
            // appended again on retry — harmless, replay is idempotent.)
            let mut state = self.mem.lock().unwrap();
            let tail = std::mem::replace(&mut state.pending, lines);
            state.pending.extend(tail);
        }
        result
    }

    fn flush(&self, path: &Path, log_path: &Path, lines: &[String]) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let _cross_process = crate::lockfile::acquire(
            &path.with_extension("json.lock"),
            std::time::Duration::from_secs(10),
        )?;
        let mut payload = String::with_capacity(lines.iter().map(|l| l.len() + 1).sum());
        for line in lines {
            payload.push_str(line);
            payload.push('\n');
        }
        let log_len = {
            let mut f = std::fs::OpenOptions::new().create(true).append(true).open(log_path)?;
            f.write_all(payload.as_bytes())?;
            f.sync_all()?;
            f.metadata()?.len()
        };
        self.stats.lock().unwrap().appended += lines.len() as u64;
        // The first persist into a fresh directory compacts immediately so
        // a snapshot always exists once anything has been persisted;
        // subsequent persists are cheap appends until the log outgrows its
        // threshold (or a corrupt snapshot demands a rewrite).
        if log_len > self.limits.log_compact_bytes
            || self.force_compact.load(Ordering::Acquire)
            || !path.exists()
        {
            self.compact(path, log_path)?;
            self.force_compact.store(false, Ordering::Release);
            self.stats.lock().unwrap().compactions += 1;
        }
        Ok(())
    }

    /// Fold snapshot + log + memory into a fresh snapshot. Runs under both
    /// the persist mutex and the cross-process advisory lock. Disk-state
    /// reads make this a union with other processes writing the same
    /// directory; in-memory entries win key collisions (ours are at least
    /// as fresh — every local store is already in the log by now).
    /// In-memory entries are always kept; disk-only entries fill whatever
    /// entry/byte budget the limits leave, in key order.
    fn compact(&self, path: &Path, log_path: &Path) -> std::io::Result<()> {
        let mut merged: HashMap<String, String> = HashMap::new();
        if let Ok(text) = std::fs::read_to_string(path) {
            let mut ignored = CacheStats::default();
            if let Ok(map) = load_entries(&text, &mut ignored) {
                for (key, entry) in map {
                    let line = entry_json(&key, &entry).to_string();
                    merged.insert(key, line);
                }
            }
        }
        if let Ok(text) = std::fs::read_to_string(log_path) {
            for line in text.lines() {
                if let Some((key, _)) = json::parse(line).ok().as_ref().and_then(load_entry) {
                    merged.insert(key, line.to_owned());
                }
            }
        }
        let mut keep: Vec<(String, String)> = {
            let state = self.mem.lock().unwrap();
            state.map.iter().map(|(k, slot)| (k.clone(), slot.line.clone())).collect()
        };
        for (key, _) in &keep {
            merged.remove(key);
        }
        let mut entries_left = self.limits.max_entries.map(|m| m.saturating_sub(keep.len()));
        let mut bytes_left = self
            .limits
            .max_bytes
            .map(|m| m.saturating_sub(keep.iter().map(|(_, l)| l.len()).sum()));
        let mut disk_only: Vec<(String, String)> = merged.into_iter().collect();
        disk_only.sort();
        for (key, line) in disk_only {
            let fits =
                entries_left.is_none_or(|n| n > 0) && bytes_left.is_none_or(|b| line.len() <= b);
            if !fits {
                continue;
            }
            if let Some(n) = &mut entries_left {
                *n -= 1;
            }
            if let Some(b) = &mut bytes_left {
                *b -= line.len();
            }
            keep.push((key, line));
        }
        keep.sort();

        // Each kept line is already a serialized entry object; the
        // snapshot document is just the version-1 envelope around them.
        let mut doc = String::from("{\"version\":1,\"entries\":[");
        for (i, (_, line)) in keep.iter().enumerate() {
            if i > 0 {
                doc.push(',');
            }
            doc.push_str(line);
        }
        doc.push_str("]}");

        let tmp = path.with_extension(format!("json.tmp.{}", std::process::id()));
        {
            let mut f = std::fs::File::create(&tmp)?;
            f.write_all(doc.as_bytes())?;
            f.sync_all()?;
        }
        std::fs::rename(&tmp, path)?;
        // The log is now redundant: every line is superseded by the
        // snapshot, so a crash before this unlink only replays no-ops.
        match std::fs::remove_file(log_path) {
            Ok(()) => Ok(()),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(()),
            Err(e) => Err(e),
        }
    }
}

fn rule_name(rule: LiftRule) -> &'static str {
    match rule {
        LiftRule::Update => "update",
        LiftRule::Replace => "replace",
        LiftRule::Extend => "extend",
    }
}

fn rule_from(name: &str) -> Option<LiftRule> {
    match name {
        "update" => Some(LiftRule::Update),
        "replace" => Some(LiftRule::Replace),
        "extend" => Some(LiftRule::Extend),
        _ => None,
    }
}

/// Stable wire name of a [`CompileError`] (cache entries, worker replies).
pub fn error_name(err: &CompileError) -> &'static str {
    match err {
        CompileError::NotQualifying => "not_qualifying",
        CompileError::LiftFailed => "lift_failed",
        CompileError::LowerFailed => "lower_failed",
        CompileError::FinalCheckFailed => "final_check_failed",
        CompileError::DeadlineExceeded => "deadline_exceeded",
    }
}

/// Inverse of [`error_name`]. `deadline_exceeded` has no reverse mapping:
/// deadline verdicts are never round-tripped through the cache.
pub fn error_from(name: &str) -> Option<CompileError> {
    match name {
        "not_qualifying" => Some(CompileError::NotQualifying),
        "lift_failed" => Some(CompileError::LiftFailed),
        "lower_failed" => Some(CompileError::LowerFailed),
        "final_check_failed" => Some(CompileError::FinalCheckFailed),
        _ => None,
    }
}

/// One entry as its self-describing JSON object — the shape shared by the
/// snapshot's `entries` array and the segment log's lines.
fn entry_json(key: &str, entry: &CacheEntry) -> Json {
    let mut obj = vec![("key".to_owned(), Json::Str(key.to_owned()))];
    match entry {
        CacheEntry::Compiled(a) => {
            obj.push(("kind".to_owned(), "compiled".into()));
            obj.push(("uber".to_owned(), uber_ir::sexpr::to_sexpr(&a.uber).into()));
            obj.push(("hvx".to_owned(), hvx::sexpr::to_sexpr(&a.hvx).into()));
            let steps = a
                .trace
                .steps
                .iter()
                .map(|s| {
                    Json::obj([
                        ("rule", rule_name(s.rule).into()),
                        ("halide", s.halide.as_str().into()),
                        ("lifted", s.lifted.as_str().into()),
                    ])
                })
                .collect();
            obj.push(("trace".to_owned(), Json::Arr(steps)));
        }
        CacheEntry::Failed(err) => {
            obj.push(("kind".to_owned(), "failed".into()));
            obj.push(("error".to_owned(), error_name(err).into()));
        }
        CacheEntry::Quarantined(q) => {
            obj.push(("kind".to_owned(), "quarantined".into()));
            obj.push(("reason".to_owned(), q.reason.as_str().into()));
            if let Some(deadline) = q.expires_unix {
                obj.push(("expires_unix".to_owned(), deadline.into()));
            }
        }
    }
    Json::Obj(obj)
}

fn load_entries(text: &str, stats: &mut CacheStats) -> Result<HashMap<String, CacheEntry>, String> {
    let doc = json::parse(text).map_err(|e| e.to_string())?;
    if doc.get("version").and_then(Json::as_i64) != Some(1) {
        return Err("unsupported cache version".to_owned());
    }
    let entries = doc
        .get("entries")
        .and_then(Json::as_arr)
        .ok_or_else(|| "missing `entries` array".to_owned())?;
    let mut map = HashMap::new();
    for entry in entries {
        match load_entry(entry) {
            Some((key, value)) => {
                stats.loaded += 1;
                map.insert(key, value);
            }
            None => {
                stats.corrupted += 1;
                eprintln!("warning: skipping malformed synthesis cache entry");
            }
        }
    }
    Ok(map)
}

fn load_entry(entry: &Json) -> Option<(String, CacheEntry)> {
    let key = entry.get("key")?.as_str()?.to_owned();
    let value = match entry.get("kind")?.as_str()? {
        "compiled" => {
            let uber = uber_ir::sexpr::parse(entry.get("uber")?.as_str()?).ok()?;
            let hvx = hvx::sexpr::parse(entry.get("hvx")?.as_str()?).ok()?;
            let mut trace = LiftTrace::default();
            for step in entry.get("trace")?.as_arr()? {
                trace.steps.push(LiftStep {
                    rule: rule_from(step.get("rule")?.as_str()?)?,
                    halide: step.get("halide")?.as_str()?.to_owned(),
                    lifted: step.get("lifted")?.as_str()?.to_owned(),
                });
            }
            // A `tier` field written by older builds is ignored.
            CacheEntry::Compiled(CachedArtifacts { uber, hvx, trace })
        }
        "failed" => CacheEntry::Failed(error_from(entry.get("error")?.as_str()?)?),
        "quarantined" => CacheEntry::Quarantined(QuarantineInfo {
            reason: entry.get("reason")?.as_str()?.to_owned(),
            expires_unix: entry.get("expires_unix").and_then(Json::as_i64).map(|s| s.max(0) as u64),
        }),
        _ => return None,
    };
    Some((key, value))
}

#[cfg(test)]
mod tests {
    use super::*;
    use lanes::ElemType::{U16, U8};

    fn artifacts() -> CachedArtifacts {
        let hvx = hvx::HvxExpr::op(
            hvx::Op::Vtmpy { elem: U8, w0: 1, w1: 2 },
            vec![hvx::HvxExpr::vmem("b0", U8, -1, 0), hvx::HvxExpr::vmem("b0", U8, 7, 0)],
        );
        let uber = uber_ir::UberExpr::conv("b0", U8, -1, 0, &[1, 2, 1], U16);
        let mut trace = LiftTrace::default();
        trace.steps.push(LiftStep {
            rule: LiftRule::Update,
            halide: "u16(b0(x-1, y))".to_owned(),
            lifted: "(vs-mpy-add ...)".to_owned(),
        });
        CachedArtifacts { uber, hvx, trace }
    }

    #[test]
    fn json_roundtrip_preserves_entries() {
        let dir = std::env::temp_dir().join("rake-driver-cache-roundtrip");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();

        let cache = SynthCache::persistent(&dir);
        cache.store("k1|hvx128", CacheEntry::Compiled(artifacts()));
        cache.store("k2|hvx128", CacheEntry::Failed(CompileError::LiftFailed));
        // Deadline failures must not be persisted.
        cache.store("k3|hvx128", CacheEntry::Failed(CompileError::DeadlineExceeded));
        cache.persist().unwrap();

        let warm = SynthCache::persistent(&dir);
        assert_eq!(warm.len(), 2);
        assert_eq!(warm.stats().loaded, 2);
        let Some(CacheEntry::Compiled(a)) = warm.lookup("k1|hvx128") else {
            panic!("expected compiled entry");
        };
        let orig = artifacts();
        assert_eq!(a.uber, orig.uber);
        assert_eq!(a.hvx, orig.hvx);
        assert_eq!(a.trace.steps.len(), 1);
        assert_eq!(a.trace.steps[0].rule, LiftRule::Update);
        let Some(CacheEntry::Failed(err)) = warm.lookup("k2|hvx128") else {
            panic!("expected failed entry");
        };
        assert_eq!(err, CompileError::LiftFailed);
        assert!(warm.lookup("k3|hvx128").is_none());

        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupted_file_warns_and_starts_cold() {
        let dir = std::env::temp_dir().join("rake-driver-cache-corrupt");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join(CACHE_FILE), "{not json at all").unwrap();

        let cache = SynthCache::persistent(&dir);
        assert!(cache.is_empty());
        assert_eq!(cache.stats().corrupted, 1);
        // Still fully usable, and persist() repairs the file (the load
        // schedules a compaction that rewrites the damaged snapshot).
        cache.store("k", CacheEntry::Failed(CompileError::LowerFailed));
        cache.persist().unwrap();
        assert_eq!(cache.stats().compactions, 1, "corruption must force a repairing compaction");
        let warm = SynthCache::persistent(&dir);
        assert_eq!(warm.len(), 1);
        assert_eq!(warm.stats().corrupted, 0, "the snapshot must be healed");

        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn non_utf8_files_are_rewritten_on_the_next_persist() {
        let dir = std::env::temp_dir().join("rake-driver-cache-non-utf8");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join(CACHE_FILE), b"{\"version\":1,\xff\xfe").unwrap();
        std::fs::write(dir.join(LOG_FILE), b"\xff\n").unwrap();

        let cache = SynthCache::persistent(&dir);
        assert!(cache.is_empty());
        assert_eq!(cache.stats().corrupted, 2);
        cache.store("k", CacheEntry::Failed(CompileError::LowerFailed));
        cache.persist().unwrap();
        assert_eq!(cache.stats().compactions, 1, "damaged files must force a compaction");
        let warm = SynthCache::persistent(&dir);
        assert_eq!(warm.len(), 1);
        assert_eq!(warm.stats().corrupted, 0, "both files must be healed");

        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn malformed_entries_are_skipped_not_fatal() {
        let dir = std::env::temp_dir().join("rake-driver-cache-badentry");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let text = r#"{"version":1,"entries":[
            {"key":"good","kind":"failed","error":"lift_failed"},
            {"key":"bad","kind":"compiled","uber":"(not valid","hvx":"(nope","trace":[]},
            {"key":"worse","kind":"unknown"}
        ]}"#;
        std::fs::write(dir.join(CACHE_FILE), text).unwrap();

        let cache = SynthCache::persistent(&dir);
        assert_eq!(cache.len(), 1);
        assert_eq!(cache.stats().loaded, 1);
        assert_eq!(cache.stats().corrupted, 2);
        assert!(matches!(cache.lookup("good"), Some(CacheEntry::Failed(CompileError::LiftFailed))));

        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn persist_with_nothing_pending_does_not_wait_for_a_flush() {
        let dir = std::env::temp_dir().join("rake-driver-cache-nowait");
        let _ = std::fs::remove_dir_all(&dir);
        let cache = SynthCache::persistent(&dir);
        // Another batch is mid-flush: it holds the persist lock.
        let flushing = cache.persist_lock.lock().unwrap();
        let (tx, rx) = std::sync::mpsc::channel();
        std::thread::scope(|s| {
            s.spawn(|| tx.send(cache.persist().is_ok()).unwrap());
            let returned = rx.recv_timeout(std::time::Duration::from_secs(5));
            drop(flushing);
            assert_eq!(returned, Ok(true), "a nothing-pending persist waited on the lock");
        });
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn persist_appends_to_log_without_rewriting_snapshot() {
        let dir = std::env::temp_dir().join("rake-driver-cache-appendlog");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();

        let cache = SynthCache::persistent(&dir);
        cache.store("k1", CacheEntry::Failed(CompileError::LiftFailed));
        cache.persist().unwrap();
        // The first persist bootstraps the snapshot (and empties the log).
        let snapshot_after_one = std::fs::read_to_string(dir.join(CACHE_FILE)).unwrap();
        assert!(!dir.join(LOG_FILE).exists(), "bootstrap compaction folds the log away");

        cache.store("k2", CacheEntry::Failed(CompileError::LowerFailed));
        cache.persist().unwrap();
        let log_after_two = std::fs::metadata(dir.join(LOG_FILE)).unwrap().len();
        assert!(log_after_two > 0, "later persists append to the log");
        assert_eq!(
            std::fs::read_to_string(dir.join(CACHE_FILE)).unwrap(),
            snapshot_after_one,
            "an append-sized persist must not rewrite the snapshot"
        );
        assert_eq!(cache.stats().appended, 2);

        // Idempotent re-store + persist: nothing new to flush.
        cache.store("k1", CacheEntry::Failed(CompileError::LiftFailed));
        cache.persist().unwrap();
        assert_eq!(
            std::fs::metadata(dir.join(LOG_FILE)).unwrap().len(),
            log_after_two,
            "re-storing an identical entry must not grow the log"
        );

        let warm = SynthCache::persistent(&dir);
        assert_eq!(warm.len(), 2);

        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn oversized_log_is_compacted_into_snapshot() {
        let dir = std::env::temp_dir().join("rake-driver-cache-compact");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();

        let limits = CacheLimits { log_compact_bytes: 64, ..CacheLimits::unbounded() };
        let cache = SynthCache::bounded(&dir, limits);
        for i in 0..4 {
            cache.store(&format!("key-{i}"), CacheEntry::Failed(CompileError::LiftFailed));
            cache.persist().unwrap();
        }
        assert!(cache.stats().compactions >= 1, "a 64-byte threshold must trigger compaction");
        assert!(dir.join(CACHE_FILE).exists(), "compaction writes the snapshot");
        let (snapshot_bytes, log_bytes) = cache.disk_bytes();
        assert!(snapshot_bytes > 0);
        assert!(log_bytes <= 64, "the log shrinks back under the threshold after compaction");

        let warm = SynthCache::persistent(&dir);
        assert_eq!(warm.len(), 4, "compaction must not lose entries");
        assert_eq!(warm.stats().corrupted, 0);

        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn eviction_prefers_compiled_entries_then_lru() {
        let limits = CacheLimits { max_entries: Some(3), ..CacheLimits::unbounded() };
        let cache = SynthCache::in_memory_bounded(limits);
        cache.store("negative", CacheEntry::Failed(CompileError::LiftFailed));
        cache.store("compiled-old", CacheEntry::Compiled(artifacts()));
        cache.store("compiled-new", CacheEntry::Compiled(artifacts()));
        // Refresh compiled-old: among compiled entries, compiled-new is
        // now the least recently used.
        assert!(cache.lookup("compiled-old").is_some());

        cache.quarantine("poison", "worker killed by signal 6", None);
        assert_eq!(cache.len(), 3);
        assert_eq!(cache.stats().evicted, 1);
        assert!(cache.contains("negative"), "the oldest entry, a verdict, outlives artifacts");
        assert!(cache.contains("poison"), "quarantine verdicts are evicted last");
        assert!(cache.contains("compiled-old"), "LRU within the class: the touched entry survives");
        assert!(!cache.contains("compiled-new"), "the cold compiled entry goes first");
    }

    #[test]
    fn byte_bound_evicts_but_keeps_at_least_one_entry() {
        let limits = CacheLimits { max_bytes: Some(1), ..CacheLimits::unbounded() };
        let cache = SynthCache::in_memory_bounded(limits);
        cache.store("a", CacheEntry::Failed(CompileError::LiftFailed));
        assert_eq!(cache.len(), 1, "a single oversized entry is retained");
        cache.store("b", CacheEntry::Failed(CompileError::LowerFailed));
        assert_eq!(cache.len(), 1, "the byte bound holds the cache at one entry");
        assert_eq!(cache.stats().evicted, 1);
        assert!(cache.total_bytes() > 0);
    }

    #[test]
    fn bounded_load_trims_disk_state() {
        let dir = std::env::temp_dir().join("rake-driver-cache-boundload");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();

        let writer = SynthCache::persistent(&dir);
        for i in 0..8 {
            writer.store(&format!("key-{i}"), CacheEntry::Failed(CompileError::LiftFailed));
        }
        writer.persist().unwrap();

        let limits = CacheLimits { max_entries: Some(3), ..CacheLimits::unbounded() };
        let bounded = SynthCache::bounded(&dir, limits);
        assert_eq!(bounded.len(), 3, "load must respect the entry bound");
        assert_eq!(bounded.stats().evicted, 5);

        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn compaction_respects_bounds_on_disk() {
        let dir = std::env::temp_dir().join("rake-driver-cache-boundcompact");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();

        let limits = CacheLimits { max_entries: Some(2), max_bytes: None, log_compact_bytes: 1 };
        let cache = SynthCache::bounded(&dir, limits);
        for i in 0..6 {
            cache.store(&format!("key-{i}"), CacheEntry::Failed(CompileError::LiftFailed));
            cache.persist().unwrap();
        }
        // Every persist compacted (1-byte threshold); the snapshot must
        // carry at most max_entries entries, so the file size plateaus.
        let warm = SynthCache::persistent(&dir);
        assert!(warm.len() <= 2, "snapshot must be bounded, found {} entries", warm.len());

        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn quarantine_roundtrips_and_answers_lookups() {
        let dir = std::env::temp_dir().join("rake-driver-cache-quarantine");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();

        let cache = SynthCache::persistent(&dir);
        cache.quarantine("poison", "worker killed by signal 6", None);
        assert_eq!(cache.quarantine_reason("poison").as_deref(), Some("worker killed by signal 6"));
        assert_eq!(cache.quarantined_count(), 1);
        // A live verdict answers lookups: re-running the key would just
        // crash another worker.
        assert!(cache.contains("poison"));
        assert!(matches!(cache.lookup("poison"), Some(CacheEntry::Quarantined(_))));
        cache.persist().unwrap();

        // The verdict survives a restart via the normal snapshot/log path.
        let warm = SynthCache::persistent(&dir);
        let Some(CacheEntry::Quarantined(q)) = warm.lookup("poison") else {
            panic!("quarantine verdict must survive persistence");
        };
        assert_eq!(q.reason, "worker killed by signal 6");
        assert_eq!(q.expires_unix, None);

        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn quarantine_expires_after_ttl() {
        let cache = SynthCache::in_memory();
        // An already-expired verdict (expiry in the past) reads as absent
        // everywhere and is dropped on first contact.
        cache.store(
            "stale",
            CacheEntry::Quarantined(QuarantineInfo {
                reason: "old crash".to_owned(),
                expires_unix: Some(1),
            }),
        );
        assert!(cache.quarantine_reason("stale").is_none());
        assert!(!cache.contains("stale"));
        assert!(cache.lookup("stale").is_none());
        assert_eq!(cache.len(), 0, "expired verdicts are dropped, not served");

        // A fresh TTL keeps the verdict live.
        cache.quarantine("live", "recent crash", Some(std::time::Duration::from_secs(3600)));
        assert!(cache.quarantine_reason("live").is_some());
        assert_eq!(cache.quarantined_count(), 1);

        // Recompiling a previously-quarantined key overwrites the verdict.
        cache.store("live", CacheEntry::Compiled(artifacts()));
        assert!(cache.quarantine_reason("live").is_none());
        assert!(matches!(cache.lookup("live"), Some(CacheEntry::Compiled(_))));
    }
}

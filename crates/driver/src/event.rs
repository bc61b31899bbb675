//! Structured driver events, the write-ahead [`Journal`], and the batch
//! summary table.
//!
//! Every batch produces a stream of [`DriverEvent`]s: one `batch_started`,
//! one `job_completed` per *unique* job in completion order (appended and
//! flushed as each worker finishes — the write-ahead journal records that
//! [`crate::Driver::resume`] replays), one `job_finished` per input
//! expression in input order (with stage timings, cache outcome and queue
//! wait), and one `batch_finished`. The stream serializes to JSON Lines —
//! one self-describing object per line, keyed by an `"event"`
//! discriminator — so logs can be tailed, grepped, and post-processed
//! without this crate.
//!
//! The [`Journal`] is the on-disk form of that stream and doubles as the
//! write-ahead log. To keep restart cost bounded it *rotates* at a
//! configurable size: the file is folded into one compact `job_completed`
//! snapshot record per key (exactly the information replay consumes,
//! marked `"snapshot":true` and preceded by a `journal_rotated` marker)
//! written via tmp + rename, and subsequent events append as the tail.
//! Replay of snapshot + tail is byte-identical to replaying the unrotated
//! stream, because rotation preserves the latest record per key and
//! replay is last-record-wins. Rotation assumes a single writing process
//! per journal path (the serving layer shares one [`Journal`] across its
//! per-request drivers for exactly this reason).

use std::collections::{BTreeMap, HashMap};
use std::io::{self, Write as _};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use synth::SynthStats;

use crate::json::{self, Json};

/// How one job concluded.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OutcomeKind {
    /// A verified HVX program was produced (fresh or from cache).
    Compiled,
    /// Synthesis returned a deterministic failure.
    Failed,
    /// The per-job wall-clock budget expired.
    TimedOut,
    /// The selector panicked; the job was isolated and the batch continued.
    Panicked,
    /// The batch's cancellation flag was raised before the job finished;
    /// not a verdict — resume recompiles these.
    Cancelled,
    /// The key is a known poison pill (it crashed isolated workers past
    /// the configured threshold) and was answered from its cached crash
    /// verdict without running synthesis.
    Quarantined,
}

impl OutcomeKind {
    /// Stable string used in JSONL and the summary table.
    pub fn name(self) -> &'static str {
        match self {
            OutcomeKind::Compiled => "compiled",
            OutcomeKind::Failed => "failed",
            OutcomeKind::TimedOut => "timed_out",
            OutcomeKind::Panicked => "panicked",
            OutcomeKind::Cancelled => "cancelled",
            OutcomeKind::Quarantined => "quarantined",
        }
    }

    /// Inverse of [`OutcomeKind::name`] (journal replay).
    pub fn from_name(name: &str) -> Option<OutcomeKind> {
        match name {
            "compiled" => Some(OutcomeKind::Compiled),
            "failed" => Some(OutcomeKind::Failed),
            "timed_out" => Some(OutcomeKind::TimedOut),
            "panicked" => Some(OutcomeKind::Panicked),
            "cancelled" => Some(OutcomeKind::Cancelled),
            "quarantined" => Some(OutcomeKind::Quarantined),
            _ => None,
        }
    }
}

/// Per-job record carried by [`DriverEvent::JobFinished`].
#[derive(Debug, Clone)]
pub struct JobRecord {
    /// Position of the expression in the input batch.
    pub index: usize,
    /// Caller-supplied label (workload name), if any.
    pub name: Option<String>,
    /// The content-addressed cache key.
    pub key: String,
    /// Whether the result came from the cache (memory or disk layer).
    pub cache_hit: bool,
    /// Time between batch submission and a worker picking the job up.
    pub queue_wait: Duration,
    /// Time the worker spent on the job (synthesis or cache rebuild).
    pub run_time: Duration,
    /// How the job concluded.
    pub outcome: OutcomeKind,
    /// Error or panic description for non-compiled outcomes.
    pub detail: Option<String>,
    /// Instruction count of the selected program, when compiled.
    pub instructions: Option<usize>,
    /// Synthesis statistics for the job (zero-query on cache hits).
    pub stats: SynthStats,
    /// Whether the chaos plane injected a fault into this job.
    pub fault_injected: bool,
    /// Whether the outcome was replayed from a prior run's journal.
    pub replayed: bool,
}

/// One entry of the driver's event stream.
#[derive(Debug, Clone)]
pub enum DriverEvent {
    /// A batch was submitted.
    BatchStarted {
        /// Number of input expressions.
        jobs: usize,
        /// Number of unique canonical keys (the deduplicated job count).
        unique: usize,
        /// Worker threads serving the batch.
        workers: usize,
        /// Cache entries available at submission time.
        cache_entries: usize,
    },
    /// One *unique* (deduplicated) job concluded — the write-ahead journal
    /// record, appended and flushed the moment a worker finishes, in
    /// completion (not input) order. [`crate::Driver::resume`] replays a
    /// batch from these.
    JobCompleted {
        /// The content-addressed cache key of the unique job.
        key: String,
        /// How the job concluded.
        outcome: OutcomeKind,
        /// Stable error name (`lift_failed`, ...) for failures, the panic
        /// description for panics.
        detail: Option<String>,
        /// Whether the chaos plane injected a fault.
        fault_injected: bool,
        /// Whether this outcome was itself replayed from an earlier
        /// journal.
        replayed: bool,
        /// Worker time spent on the job.
        run_time: Duration,
    },
    /// One job concluded.
    JobFinished(JobRecord),
    /// A compiled job was differentially validated against the Halide IR
    /// interpreter (emitted only when the driver runs with validation on).
    JobValidated {
        /// Position of the expression in the input batch.
        job: usize,
        /// Caller-supplied label, if any.
        name: Option<String>,
        /// The content-addressed cache key.
        key: String,
        /// Number of (environment, origin) points compared.
        checks: usize,
        /// Points where the program disagreed — non-zero is a miscompile.
        mismatches: usize,
    },
    /// The whole batch concluded.
    BatchFinished {
        /// Jobs per [`OutcomeKind`]: compiled, failed, timed out, panicked.
        compiled: usize,
        /// Jobs that failed deterministically.
        failed: usize,
        /// Jobs cut off by their deadline.
        timed_out: usize,
        /// Jobs whose worker panicked.
        panicked: usize,
        /// Jobs cancelled before they finished.
        cancelled: usize,
        /// Jobs answered from a cached poison-pill verdict.
        quarantined: usize,
        /// Jobs served from the cache.
        cache_hits: usize,
        /// End-to-end batch wall-clock time.
        wall: Duration,
    },
    /// Crash forensics from the supervision layer: an isolated worker
    /// subprocess died while (or shortly after) running a job. Emitted by
    /// the serving layer's supervisor, not by the in-process driver;
    /// journal replay ignores it (it is not a `job_completed` verdict).
    WorkerCrashed {
        /// The cache key of the job the worker was running, if any.
        key: Option<String>,
        /// What killed the worker: `signal`, `exit`, `wallclock`, `rss`,
        /// or `spawn` (the respawn itself failed).
        cause: String,
        /// The fatal signal number, when the worker died to one.
        signal: Option<i32>,
        /// Crashes this key has now caused (drives quarantine decisions).
        crashes_for_key: u32,
        /// The tail of the dead worker's stderr, for post-mortems.
        stderr_tail: String,
    },
}

fn ms(d: Duration) -> Json {
    // Round to microsecond granularity so logs stay compact.
    Json::Num((d.as_secs_f64() * 1e3 * 1e3).round() / 1e3)
}

impl DriverEvent {
    /// The JSON object form used for JSONL logging. Every record carries a
    /// `t_rel_us` field: microseconds on the process-wide monotonic trace
    /// clock at serialization time, so interleaved streams can be ordered
    /// without trusting the wall clock. Replay ignores it.
    pub fn to_json(&self) -> Json {
        let mut v = self.to_json_inner();
        if let Json::Obj(obj) = &mut v {
            // When the serializing thread sits inside a trace (the
            // serving layer's per-request tracing), stamp the trace ID so
            // journal lines join up with the exported span tree.
            if let Some(ctx) = trace::current() {
                obj.push(("trace".to_owned(), Json::Str(trace::fmt_id(ctx.trace_id))));
            }
            obj.push(("t_rel_us".to_owned(), trace::now_us().into()));
        }
        v
    }

    fn to_json_inner(&self) -> Json {
        match self {
            DriverEvent::BatchStarted { jobs, unique, workers, cache_entries } => Json::obj([
                ("event", "batch_started".into()),
                ("jobs", (*jobs).into()),
                ("unique", (*unique).into()),
                ("workers", (*workers).into()),
                ("cache_entries", (*cache_entries).into()),
            ]),
            DriverEvent::JobCompleted {
                key,
                outcome,
                detail,
                fault_injected,
                replayed,
                run_time,
            } => {
                let mut obj = vec![
                    ("event".to_owned(), "job_completed".into()),
                    ("key".to_owned(), key.as_str().into()),
                    ("outcome".to_owned(), outcome.name().into()),
                ];
                if let Some(detail) = detail {
                    obj.push(("detail".to_owned(), detail.as_str().into()));
                }
                obj.push(("fault_injected".to_owned(), (*fault_injected).into()));
                if *replayed {
                    obj.push(("replayed".to_owned(), true.into()));
                }
                obj.push(("run_ms".to_owned(), ms(*run_time)));
                Json::Obj(obj)
            }
            DriverEvent::JobFinished(r) => {
                let mut obj = vec![
                    ("event".to_owned(), "job_finished".into()),
                    ("job".to_owned(), r.index.into()),
                ];
                if let Some(name) = &r.name {
                    obj.push(("name".to_owned(), name.as_str().into()));
                }
                obj.push(("key".to_owned(), r.key.as_str().into()));
                obj.push(("outcome".to_owned(), r.outcome.name().into()));
                if let Some(detail) = &r.detail {
                    obj.push(("detail".to_owned(), detail.as_str().into()));
                }
                obj.push(("fault_injected".to_owned(), r.fault_injected.into()));
                if r.replayed {
                    obj.push(("replayed".to_owned(), true.into()));
                }
                obj.push(("cache_hit".to_owned(), r.cache_hit.into()));
                obj.push(("queue_wait_ms".to_owned(), ms(r.queue_wait)));
                obj.push(("run_ms".to_owned(), ms(r.run_time)));
                if let Some(n) = r.instructions {
                    obj.push(("instructions".to_owned(), n.into()));
                }
                obj.push(("lifting_queries".to_owned(), r.stats.lifting_queries.into()));
                obj.push(("sketching_queries".to_owned(), r.stats.sketching_queries.into()));
                obj.push(("swizzling_queries".to_owned(), r.stats.swizzling_queries.into()));
                obj.push(("lifting_ms".to_owned(), ms(r.stats.lifting_time)));
                obj.push(("sketching_ms".to_owned(), ms(r.stats.sketching_time)));
                obj.push(("swizzling_ms".to_owned(), ms(r.stats.swizzling_time)));
                Json::Obj(obj)
            }
            DriverEvent::JobValidated { job, name, key, checks, mismatches } => {
                let mut obj = vec![
                    ("event".to_owned(), "job_validated".into()),
                    ("job".to_owned(), (*job).into()),
                ];
                if let Some(name) = name {
                    obj.push(("name".to_owned(), name.as_str().into()));
                }
                obj.push(("key".to_owned(), key.as_str().into()));
                obj.push(("checks".to_owned(), (*checks).into()));
                obj.push(("mismatches".to_owned(), (*mismatches).into()));
                Json::Obj(obj)
            }
            DriverEvent::BatchFinished {
                compiled,
                failed,
                timed_out,
                panicked,
                cancelled,
                quarantined,
                cache_hits,
                wall,
            } => Json::obj([
                ("event", "batch_finished".into()),
                ("compiled", (*compiled).into()),
                ("failed", (*failed).into()),
                ("timed_out", (*timed_out).into()),
                ("panicked", (*panicked).into()),
                ("cancelled", (*cancelled).into()),
                ("quarantined", (*quarantined).into()),
                ("cache_hits", (*cache_hits).into()),
                ("wall_ms", ms(*wall)),
            ]),
            DriverEvent::WorkerCrashed { key, cause, signal, crashes_for_key, stderr_tail } => {
                let mut obj = vec![("event".to_owned(), "worker_crashed".into())];
                if let Some(key) = key {
                    obj.push(("key".to_owned(), key.as_str().into()));
                }
                obj.push(("cause".to_owned(), cause.as_str().into()));
                if let Some(signal) = signal {
                    obj.push(("signal".to_owned(), f64::from(*signal).into()));
                }
                obj.push(("crashes_for_key".to_owned(), u64::from(*crashes_for_key).into()));
                if !stderr_tail.is_empty() {
                    obj.push(("stderr_tail".to_owned(), stderr_tail.as_str().into()));
                }
                Json::Obj(obj)
            }
        }
    }

    /// One JSONL line (no trailing newline).
    pub fn to_jsonl(&self) -> String {
        self.to_json().to_string()
    }
}

/// A journal record replayed by [`crate::Driver::resume`].
#[derive(Debug, Clone)]
pub(crate) struct ReplayRecord {
    pub(crate) outcome: OutcomeKind,
    pub(crate) detail: Option<String>,
}

/// Parse the write-ahead journal at `path` into the latest
/// `job_completed` record per key. Torn or malformed lines — the final
/// append of a crashed run, a corrupted span — are skipped, never fatal.
/// Returns `None` when the file does not exist.
pub(crate) fn parse_journal(path: &Path) -> Option<HashMap<String, ReplayRecord>> {
    let bytes = std::fs::read(path).ok()?;
    Some(replay_records(&String::from_utf8_lossy(&bytes)))
}

/// The replay map of a journal text: last `job_completed` record per key,
/// unknown events (including rotation markers) and torn lines skipped.
/// Fields replay does not read, such as the `tier` and `retries` that
/// older builds wrote, are ignored.
fn replay_records(text: &str) -> HashMap<String, ReplayRecord> {
    let mut map = HashMap::new();
    for line in text.lines() {
        let Ok(v) = json::parse(line) else { continue };
        if v.get("event").and_then(Json::as_str) != Some("job_completed") {
            continue;
        }
        let Some(key) = v.get("key").and_then(Json::as_str) else { continue };
        let Some(outcome) =
            v.get("outcome").and_then(Json::as_str).and_then(OutcomeKind::from_name)
        else {
            continue;
        };
        let detail = v.get("detail").and_then(Json::as_str).map(str::to_owned);
        map.insert(key.to_owned(), ReplayRecord { outcome, detail });
    }
    map
}

/// The streaming JSONL journal: one line per event, with write-ahead
/// durability for the records that gate recovery and size-triggered
/// rotation keeping replay cost bounded (see the module docs).
#[derive(Debug)]
pub struct Journal {
    inner: Mutex<JournalInner>,
    path: PathBuf,
    /// Rotate once the file exceeds this many bytes; `None` never rotates.
    rotate_bytes: Option<u64>,
    rotations: AtomicU64,
}

#[derive(Debug)]
struct JournalInner {
    /// Shared so a durable append can sync after releasing the lock.
    file: Arc<std::fs::File>,
    bytes: u64,
}

impl Journal {
    /// Open (appending) or create the journal at `path`, rotating at
    /// `rotate_bytes` if given.
    ///
    /// # Errors
    ///
    /// Propagates failures creating the parent directory or opening the
    /// file.
    pub fn open(path: &Path, rotate_bytes: Option<u64>) -> io::Result<Journal> {
        if let Some(dir) = path.parent() {
            if !dir.as_os_str().is_empty() {
                std::fs::create_dir_all(dir)?;
            }
        }
        let file = std::fs::OpenOptions::new().create(true).append(true).open(path)?;
        let bytes = file.metadata()?.len();
        Ok(Journal {
            inner: Mutex::new(JournalInner { file: Arc::new(file), bytes }),
            path: path.to_owned(),
            rotate_bytes,
            rotations: AtomicU64::new(0),
        })
    }

    /// The journal file's path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Current size of the journal file in bytes.
    pub fn bytes(&self) -> u64 {
        self.inner.lock().unwrap().bytes
    }

    /// Rotations performed since this handle was opened.
    pub fn rotations(&self) -> u64 {
        self.rotations.load(Ordering::Relaxed)
    }

    /// Append one record and fsync it (write-ahead semantics: a record
    /// is only promised once it survives a crash). Reserve this for
    /// records that gate recovery — `job_completed` for fresh work.
    pub fn append(&self, event: &DriverEvent) {
        self.write(event, true);
    }

    /// Append one record without forcing it to disk. For informational
    /// records (batch markers, per-input stats, cache-hit completions):
    /// losing them to a crash costs nothing on resume, and skipping the
    /// fsync keeps all-cache-hit batches off the disk's commit path.
    pub fn append_relaxed(&self, event: &DriverEvent) {
        self.write(event, false);
    }

    /// Records are written in order under the writer lock; a durable
    /// record's fsync runs after the lock is released, on a shared handle
    /// to the file it was written to, so a relaxed append never waits
    /// behind another writer's sync. The caller still returns only once
    /// its record is synced (or folded into a synced rotation).
    fn write(&self, event: &DriverEvent, durable: bool) {
        let mut line = event.to_jsonl();
        line.push('\n');
        let file = {
            let mut inner = self.inner.lock().unwrap();
            if let Err(err) = (&*inner.file).write_all(line.as_bytes()) {
                eprintln!("warning: failed to append event journal {}: {err}", self.path.display());
                return;
            }
            inner.bytes += line.len() as u64;
            let file = durable.then(|| Arc::clone(&inner.file));
            if self.rotate_bytes.is_some_and(|limit| inner.bytes > limit) {
                if let Err(err) = self.rotate(&mut inner) {
                    eprintln!(
                        "warning: failed to rotate event journal {}: {err}",
                        self.path.display()
                    );
                }
            }
            file
        };
        if let Some(Err(err)) = file.map(|f| f.sync_data()) {
            eprintln!("warning: failed to sync event journal {}: {err}", self.path.display());
        }
    }

    /// Fold the journal into its replay snapshot: one `job_completed`
    /// record per key (sorted, marked `"snapshot":true`) behind a
    /// `journal_rotated` marker, written tmp + fsync + rename. Replaying
    /// the rotated file yields exactly the same map as the original —
    /// informational events are dropped, which is the point (bounded
    /// restart cost). Called with the writer lock held.
    fn rotate(&self, inner: &mut JournalInner) -> io::Result<()> {
        let text = std::fs::read_to_string(&self.path)?;
        let records: BTreeMap<String, ReplayRecord> = replay_records(&text).into_iter().collect();
        let mut doc =
            Json::obj([("event", "journal_rotated".into()), ("records", records.len().into())])
                .to_string();
        doc.push('\n');
        for (key, rec) in records {
            let mut obj = vec![
                ("event".to_owned(), "job_completed".into()),
                ("key".to_owned(), Json::Str(key)),
                ("outcome".to_owned(), rec.outcome.name().into()),
            ];
            if let Some(detail) = rec.detail {
                obj.push(("detail".to_owned(), Json::Str(detail)));
            }
            obj.push(("snapshot".to_owned(), true.into()));
            doc.push_str(&Json::Obj(obj).to_string());
            doc.push('\n');
        }
        let tmp = self.path.with_extension(format!("rotate.tmp.{}", std::process::id()));
        {
            let mut f = std::fs::File::create(&tmp)?;
            f.write_all(doc.as_bytes())?;
            f.sync_all()?;
        }
        std::fs::rename(&tmp, &self.path)?;
        inner.file =
            Arc::new(std::fs::OpenOptions::new().create(true).append(true).open(&self.path)?);
        inner.bytes = inner.file.metadata()?.len();
        self.rotations.fetch_add(1, Ordering::Relaxed);
        Ok(())
    }
}

/// Render the event stream as a human-readable summary table: one row per
/// job plus a totals line. Intended for end-of-batch console output.
pub fn summary_table(events: &[DriverEvent]) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "{:<4} {:<18} {:<9} {:>5} {:>8} {:>9} {:>7} {:>6}\n",
        "job", "name", "outcome", "cache", "wait_ms", "run_ms", "queries", "insns"
    ));
    let mut total_queries = 0u64;
    for event in events {
        let DriverEvent::JobFinished(r) = event else { continue };
        let queries =
            r.stats.lifting_queries + r.stats.sketching_queries + r.stats.swizzling_queries;
        total_queries += queries;
        out.push_str(&format!(
            "{:<4} {:<18} {:<9} {:>5} {:>8.1} {:>9.1} {:>7} {:>6}\n",
            r.index,
            r.name.as_deref().unwrap_or("-"),
            r.outcome.name(),
            if r.cache_hit { "hit" } else { "miss" },
            r.queue_wait.as_secs_f64() * 1e3,
            r.run_time.as_secs_f64() * 1e3,
            queries,
            r.instructions.map_or_else(|| "-".to_owned(), |n| n.to_string()),
        ));
    }
    for event in events {
        let DriverEvent::BatchFinished {
            compiled,
            failed,
            timed_out,
            panicked,
            cancelled,
            quarantined,
            cache_hits,
            wall,
        } = event
        else {
            continue;
        };
        out.push_str(&format!(
            "total: {compiled} compiled, {failed} failed, \
             {timed_out} timed out, {panicked} panicked, {cancelled} cancelled, \
             {quarantined} quarantined; {cache_hits} cache hits, {total_queries} queries, \
             {:.1} ms wall\n",
            wall.as_secs_f64() * 1e3
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json;

    fn record() -> JobRecord {
        JobRecord {
            index: 3,
            name: Some("sobel".to_owned()),
            key: "(vadd ...)|hvx:64x64|bt:1".to_owned(),
            cache_hit: true,
            queue_wait: Duration::from_micros(1500),
            run_time: Duration::from_millis(12),
            outcome: OutcomeKind::Compiled,
            detail: None,
            instructions: Some(7),
            stats: SynthStats::default(),
            fault_injected: false,
            replayed: false,
        }
    }

    #[test]
    fn jsonl_lines_parse_back() {
        let events = vec![
            DriverEvent::BatchStarted { jobs: 4, unique: 3, workers: 2, cache_entries: 0 },
            DriverEvent::JobFinished(record()),
            DriverEvent::BatchFinished {
                compiled: 3,
                failed: 1,
                timed_out: 0,
                panicked: 0,
                cancelled: 0,
                quarantined: 0,
                cache_hits: 1,
                wall: Duration::from_millis(40),
            },
        ];
        for event in &events {
            let line = event.to_jsonl();
            assert!(!line.contains('\n'));
            let v = json::parse(&line).unwrap();
            assert!(v.get("event").is_some());
        }
        let job = json::parse(&events[1].to_jsonl()).unwrap();
        assert_eq!(job.get("outcome").unwrap().as_str(), Some("compiled"));
        assert_eq!(job.get("cache_hit").unwrap().as_bool(), Some(true));
        assert_eq!(job.get("queue_wait_ms").unwrap(), &Json::Num(1.5));
        assert_eq!(job.get("instructions").unwrap().as_i64(), Some(7));
        assert_eq!(job.get("fault_injected").unwrap().as_bool(), Some(false));
    }

    #[test]
    fn job_completed_journal_record_round_trips() {
        let ev = DriverEvent::JobCompleted {
            key: "(vadd ...)|l8v8".to_owned(),
            outcome: OutcomeKind::TimedOut,
            detail: None,
            fault_injected: true,
            replayed: false,
            run_time: Duration::from_millis(5),
        };
        let v = json::parse(&ev.to_jsonl()).unwrap();
        assert_eq!(v.get("event").unwrap().as_str(), Some("job_completed"));
        assert_eq!(v.get("key").unwrap().as_str(), Some("(vadd ...)|l8v8"));
        assert_eq!(v.get("outcome").unwrap().as_str(), Some("timed_out"));
        assert_eq!(v.get("fault_injected").unwrap().as_bool(), Some(true));
        assert!(v.get("replayed").is_none(), "replayed is emitted only when true");
    }

    #[test]
    fn records_carry_monotonic_t_rel_us_and_replay_ignores_it() {
        let ev = DriverEvent::JobCompleted {
            key: "k".to_owned(),
            outcome: OutcomeKind::Compiled,
            detail: None,
            fault_injected: false,
            replayed: false,
            run_time: Duration::from_millis(1),
        };
        let a = json::parse(&ev.to_jsonl()).unwrap().get("t_rel_us").unwrap().as_i64().unwrap();
        let b = json::parse(&ev.to_jsonl()).unwrap().get("t_rel_us").unwrap().as_i64().unwrap();
        assert!(a >= 0 && b >= a, "t_rel_us is monotone non-decreasing: {a} then {b}");
        let replay = replay_records(&ev.to_jsonl());
        assert_eq!(replay.get("k").unwrap().outcome, OutcomeKind::Compiled);
    }

    #[test]
    fn worker_crash_forensics_serialize_and_are_replay_invisible() {
        let ev = DriverEvent::WorkerCrashed {
            key: Some("(vadd ...)|l8v8".to_owned()),
            cause: "signal".to_owned(),
            signal: Some(9),
            crashes_for_key: 2,
            stderr_tail: "thread panicked".to_owned(),
        };
        let v = json::parse(&ev.to_jsonl()).unwrap();
        assert_eq!(v.get("event").unwrap().as_str(), Some("worker_crashed"));
        assert_eq!(v.get("signal").unwrap().as_i64(), Some(9));
        assert_eq!(v.get("crashes_for_key").unwrap().as_i64(), Some(2));
        assert_eq!(v.get("stderr_tail").unwrap().as_str(), Some("thread panicked"));
        // Forensics never pollute the replay map: only `job_completed`
        // records carry verdicts.
        let replay = replay_records(&ev.to_jsonl());
        assert!(replay.is_empty());
    }

    #[test]
    fn rotation_folds_the_journal_and_preserves_replay() {
        let dir = std::env::temp_dir().join("rake-driver-journal-rotate");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("events.jsonl");

        let completed = |key: &str, outcome: OutcomeKind| DriverEvent::JobCompleted {
            key: key.to_owned(),
            outcome,
            detail: (outcome == OutcomeKind::Failed).then(|| "lower_failed".to_owned()),
            fault_injected: false,
            replayed: false,
            run_time: Duration::from_millis(1),
        };
        let journal = Journal::open(&path, Some(512)).unwrap();
        for i in 0..12 {
            // Informational noise interleaved with recovery records: the
            // noise must be dropped by rotation, the records kept.
            journal.append_relaxed(&DriverEvent::BatchStarted {
                jobs: i,
                unique: i,
                workers: 1,
                cache_entries: 0,
            });
            let outcome = if i % 3 == 0 { OutcomeKind::Failed } else { OutcomeKind::Compiled };
            journal.append(&completed(&format!("key-{i:02}"), outcome));
        }
        // Re-complete one key: last record wins through rotation too.
        journal.append(&completed("key-00", OutcomeKind::Compiled));
        assert!(journal.rotations() >= 1, "512-byte threshold must have rotated");
        assert!(journal.bytes() < 4096, "rotated journal stays bounded");

        let text = std::fs::read_to_string(&path).unwrap();
        assert!(text.contains("\"event\":\"journal_rotated\""));
        assert!(text.contains("\"snapshot\":true"));
        assert!(!text.contains("batch_started"), "informational events are folded away");

        let replay = parse_journal(&path).unwrap();
        assert_eq!(replay.len(), 12);
        for i in 0..12 {
            let rec = replay.get(&format!("key-{i:02}")).unwrap();
            let expect =
                if i == 0 || i % 3 != 0 { OutcomeKind::Compiled } else { OutcomeKind::Failed };
            assert_eq!(rec.outcome, expect, "key-{i:02}");
            if rec.outcome == OutcomeKind::Failed {
                assert_eq!(rec.detail.as_deref(), Some("lower_failed"));
            }
        }

        // Appends continue cleanly on the reopened handle.
        journal.append(&completed("key-99", OutcomeKind::Compiled));
        assert!(parse_journal(&path).unwrap().contains_key("key-99"));

        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn summary_table_has_job_rows_and_totals() {
        let events = vec![
            DriverEvent::JobFinished(record()),
            DriverEvent::BatchFinished {
                compiled: 1,
                failed: 0,
                timed_out: 0,
                panicked: 0,
                cancelled: 0,
                quarantined: 0,
                cache_hits: 1,
                wall: Duration::from_millis(12),
            },
        ];
        let table = summary_table(&events);
        assert!(table.contains("sobel"));
        assert!(table.contains("hit"));
        assert!(table.starts_with("job"));
        assert!(table.contains("total: 1 compiled"));
    }
}

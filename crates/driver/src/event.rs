//! Structured driver events, the JSONL [`Journal`], and the batch summary
//! table.
//!
//! Every batch produces a stream of [`DriverEvent`]s: one `batch_started`,
//! one `job_finished` per input expression in input order (with stage
//! timings, cache outcome and queue wait), and one `batch_finished`. The
//! stream serializes to JSON Lines — one self-describing object per line,
//! keyed by an `"event"` discriminator — so logs can be tailed, grepped,
//! and post-processed without this crate.
//!
//! The [`Journal`] appends that stream to a file. It is telemetry only:
//! nothing reads it back. Crash recovery is a rerun against the same
//! synthesis-cache directory, which persists every fresh verdict as its
//! job finishes. To stay bounded the journal *rolls over* at a
//! configurable size: the full file is renamed to `<path>.1`, replacing
//! the previous one, and a new file is started, so the log on disk stays
//! within about twice the bound and a roll-over costs one rename. The
//! rename pulls the file out from under any other open handle, so a
//! journal path has one writing process (the serving layer shares one
//! [`Journal`] across its per-request drivers for exactly this reason).

use std::io::{self, Write as _};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Duration;

use synth::SynthStats;

use crate::json::Json;

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
    /// not a verdict, so it is never cached and a rerun recompiles it.
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
    /// the serving layer's supervisor, not by the in-process driver.
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
    /// without trusting the wall clock.
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

/// The JSONL event log: one line per event, written whole under a lock so
/// concurrent appenders never tear a line, rolled over at a size bound
/// (see the module docs).
#[derive(Debug)]
pub struct Journal {
    inner: Mutex<JournalInner>,
    path: PathBuf,
    /// Where a roll-over moves the full file: `<path>.1`.
    rolled: PathBuf,
    /// Roll over once the file exceeds this many bytes; `None` never does.
    rotate_bytes: Option<u64>,
    rotations: AtomicU64,
}

#[derive(Debug)]
struct JournalInner {
    file: std::fs::File,
    bytes: u64,
}

impl Journal {
    /// Open (appending) or create the journal at `path`, rolling over at
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
        let mut rolled = path.as_os_str().to_owned();
        rolled.push(".1");
        Ok(Journal {
            inner: Mutex::new(JournalInner { file, bytes }),
            path: path.to_owned(),
            rolled: rolled.into(),
            rotate_bytes,
            rotations: AtomicU64::new(0),
        })
    }

    /// Current size of the live journal file in bytes (the rolled-over
    /// `<path>.1` not counted).
    pub fn bytes(&self) -> u64 {
        self.inner.lock().expect("no appender panics holding the journal").bytes
    }

    /// Roll-overs performed since this handle was opened.
    pub fn rotations(&self) -> u64 {
        self.rotations.load(Ordering::Relaxed)
    }

    /// Append one record. It is not synced: the journal is telemetry, and
    /// a crash that loses its tail loses nothing a rerun needs. A write
    /// error is reported to stderr, never to the batch.
    pub fn append(&self, event: &DriverEvent) {
        let mut line = event.to_jsonl();
        line.push('\n');
        let mut inner = self.inner.lock().expect("no appender panics holding the journal");
        if let Err(err) = inner.file.write_all(line.as_bytes()) {
            eprintln!("warning: failed to append event journal {}: {err}", self.path.display());
            return;
        }
        inner.bytes += line.len() as u64;
        if self.rotate_bytes.is_some_and(|limit| inner.bytes > limit) {
            if let Err(err) = self.roll_over(&mut inner) {
                eprintln!(
                    "warning: failed to roll over event journal {}: {err}",
                    self.path.display()
                );
            }
        }
    }

    /// Move the full file to `<path>.1`, replacing the previous one, and
    /// start a new file. Called with the writer lock held, so no append
    /// lands between the rename and the reopen.
    fn roll_over(&self, inner: &mut JournalInner) -> io::Result<()> {
        std::fs::rename(&self.path, &self.rolled)?;
        inner.file = std::fs::OpenOptions::new().create(true).append(true).open(&self.path)?;
        inner.bytes = 0;
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
    fn records_carry_monotonic_t_rel_us() {
        let ev = DriverEvent::BatchStarted { jobs: 1, unique: 1, workers: 1, cache_entries: 0 };
        let a = json::parse(&ev.to_jsonl()).unwrap().get("t_rel_us").unwrap().as_i64().unwrap();
        let b = json::parse(&ev.to_jsonl()).unwrap().get("t_rel_us").unwrap().as_i64().unwrap();
        assert!(a >= 0 && b >= a, "t_rel_us is monotone non-decreasing: {a} then {b}");
    }

    #[test]
    fn worker_crash_forensics_serialize() {
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
    }

    /// A roll-over moves the whole file to `<path>.1` (replacing the last
    /// one) and starts an empty file; a reopened journal counts the bytes
    /// already on disk toward its bound.
    #[test]
    fn rotation_rolls_the_full_log_over_to_dot_one() {
        let dir = std::env::temp_dir().join(format!("rake-journal-roll-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let path = dir.join("events.jsonl");
        let rolled = dir.join("events.jsonl.1");
        let started =
            |jobs| DriverEvent::BatchStarted { jobs, unique: 1, workers: 1, cache_entries: 0 };
        let jobs_in = |path: &Path| -> Vec<i64> {
            std::fs::read_to_string(path)
                .unwrap()
                .lines()
                .map(|l| json::parse(l).unwrap().get("jobs").unwrap().as_i64().unwrap())
                .collect()
        };

        let journal = Journal::open(&path, Some(512)).unwrap();
        let mut next = 0;
        while journal.rotations() < 2 {
            journal.append(&started(next));
            next += 1;
        }
        // The second roll-over replaced the first `.1`: it holds the
        // records from just after the first roll-over up to the one that
        // crossed the bound again, and the live file starts empty.
        assert_eq!(journal.bytes(), 0);
        assert_eq!(std::fs::metadata(&path).unwrap().len(), 0);
        let held = jobs_in(&rolled);
        assert!(held[0] > 0, "the first roll-over's file was replaced: {held:?}");
        assert_eq!(held.last(), Some(&(next as i64 - 1)));
        assert!(held.windows(2).all(|w| w[1] == w[0] + 1), "records stay in order: {held:?}");
        let rolled_bytes = std::fs::metadata(&rolled).unwrap().len();
        assert!(rolled_bytes > 512);
        let last_line = std::fs::read_to_string(&rolled).unwrap().lines().last().unwrap().len();
        assert!(rolled_bytes - (last_line as u64 + 1) <= 512, "only the crossing line overshoots");

        journal.append(&started(next));
        assert_eq!(jobs_in(&path), [next as i64]);
        drop(journal);
        let reopened = Journal::open(&path, Some(512)).unwrap();
        assert_eq!(reopened.bytes(), std::fs::metadata(&path).unwrap().len());
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

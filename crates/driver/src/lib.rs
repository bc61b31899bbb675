//! # rake-driver — a batch compilation service over the Rake selector
//!
//! Synthesis-based instruction selection is expensive (seconds per
//! expression) but highly redundant across a compilation session: image
//! pipelines reuse the same handful of tile shapes under different buffer
//! names, and repeated builds re-synthesize identical tiles from scratch.
//! This crate wraps [`rake::Rake`] in a service layer that exploits that
//! redundancy and treats partial failure as the normal case:
//!
//! * **Content-addressed caching** ([`cache`]): expressions are
//!   canonicalized ([`canon`]) — commutative operands sorted, buffers
//!   alpha-renamed — so structurally equivalent tiles share one cache
//!   entry regardless of buffer naming. Keys also fingerprint the target
//!   geometry and search options. An optional JSON file layer gives warm
//!   starts across processes.
//! * **Parallel execution**: up to [`DriverConfig::workers`] workers drain
//!   a deduplicated job list, the calling thread being one of them, so a
//!   one-job batch (a warm cache hit, say) spawns no thread; results are
//!   reported in input order.
//! * **One search per job, baseline on failure**: each cache miss runs
//!   the configured selector once, under the job's whole wall-clock
//!   budget and panic isolation. A deterministic failure is
//!   negative-cached; a deadline or a panic is not, and every job that
//!   did not compile carries the baseline selector's program.
//! * **Crash recovery is a rerun**: each fresh compiled or failed verdict
//!   is persisted to the cache directory as its job finishes, so a killed
//!   batch rerun against the same [`DriverConfig::cache_dir`] serves those
//!   from the cache and recompiles only what timed out, panicked, was
//!   cancelled or never finished.
//! * **Fault injection** (feature `chaos`, [`chaos`]): a seeded,
//!   deterministic fault plan for panics, forced deadline exhaustion,
//!   latency, and cache corruption — the harness that proves the
//!   guarantees above hold under fire.
//! * **Observability** ([`event`]): a structured JSONL event stream with
//!   per-job timings, cache outcomes and query counts, plus a summary
//!   table printer.
//!
//! ```
//! use rake_driver::{Driver, DriverConfig};
//! use rake::{Rake, Target};
//! use halide_ir::sexpr::parse;
//!
//! let rake = Rake::new(Target::hvx_small(4));
//! let driver =
//!     Driver::new(rake).with_config(DriverConfig { workers: 2, ..DriverConfig::default() });
//! let a = parse("(add (cast u16 (load in u8 0 0)) (cast u16 (load in u8 1 0)))").unwrap();
//! let b = parse("(add (cast u16 (load img u8 0 0)) (cast u16 (load img u8 1 0)))").unwrap();
//! let report = driver.compile_batch(&[a, b]);
//! // `b` is alpha-equivalent to `a`: one synthesis, one cache hit.
//! assert_eq!(report.stats.cache_hits, 1);
//! ```

pub mod cache;
pub mod canon;
#[cfg(feature = "chaos")]
pub mod chaos;
pub mod event;
pub mod json;
pub mod lockfile;

use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::{Arc, Mutex, OnceLock};
use std::time::{Duration, Instant};

use halide_ir::Expr;
use hvx::Program;
use rake::{CompileError, Compiled, Rake};
use synth::{LoweringOptions, SynthStats};

pub use cache::CacheLimits;
use cache::{CacheEntry, CacheStats, CachedArtifacts, SynthCache};
pub use event::Journal;
use event::{DriverEvent, JobRecord, OutcomeKind};

/// Service-layer configuration.
#[derive(Debug, Clone)]
pub struct DriverConfig {
    /// Worker threads in the pool. Clamped to at least 1.
    pub workers: usize,
    /// Per-job wall-clock budget for the job's one synthesis attempt;
    /// when it runs out the job ends [`JobOutcome::TimedOut`] with the
    /// baseline program. `None` disables deadlines.
    pub job_timeout: Option<Duration>,
    /// Directory for the persistent cache layer (`synthcache.json` plus
    /// the `synthcache.log` segment log). `None` keeps the cache in
    /// memory only.
    pub cache_dir: Option<PathBuf>,
    /// Lifecycle bounds for the synthesis cache built by
    /// [`Driver::with_config`]: in-memory entry/byte caps (cost-aware LRU
    /// eviction) and the segment-log compaction threshold. The default is
    /// unbounded, the historical behavior.
    pub cache_limits: CacheLimits,
    /// File to append the JSONL event stream to (telemetry; nothing reads
    /// it back). `None` disables logging to disk (events are still
    /// collected on the [`BatchReport`]). A journal that should roll over
    /// at a size bound is opened once and installed with
    /// [`Driver::with_shared_journal`].
    pub log_path: Option<PathBuf>,
    /// Run every compiled program through the differential oracle after
    /// synthesis: execute it on adversarial inputs and compare against the
    /// Halide IR interpreter. Mismatch counts land on
    /// [`JobResult::validation`] and a `job_validated` event per job.
    pub validate: bool,
    /// Cooperative cancellation flag for the whole batch (see
    /// [`synth::cancel`]). When raised mid-batch, queued jobs conclude
    /// [`JobOutcome::Cancelled`] without running, and in-flight synthesis
    /// stops at its next deadline-check point. The serving layer raises it
    /// when a client disconnects. The flag must stay readable until the
    /// batch returns; release it to the pool only afterwards.
    pub cancel: Option<synth::CancelFlag>,
}

/// The machine's core count, read once per process: on Linux
/// `available_parallelism` reads cgroup files, and a server builds a
/// [`DriverConfig::default`] for every request.
fn cores() -> usize {
    static CORES: OnceLock<usize> = OnceLock::new();
    *CORES.get_or_init(|| std::thread::available_parallelism().map_or(1, |n| n.get()))
}

impl Default for DriverConfig {
    fn default() -> DriverConfig {
        DriverConfig {
            workers: cores().min(8),
            job_timeout: None,
            cache_dir: None,
            cache_limits: CacheLimits::default(),
            log_path: None,
            validate: false,
            cancel: None,
        }
    }
}

/// The compile function a worker runs per cache miss. Receives the
/// *original* (non-canonical) expression, the job's deadline, and the
/// batch's cancellation flag (if any) to forward into the cooperative
/// deadline plumbing.
pub type CompileFn = Arc<
    dyn Fn(&Expr, Option<Instant>, Option<synth::CancelFlag>) -> Result<Compiled, CompileError>
        + Send
        + Sync,
>;

/// How one input expression concluded.
#[derive(Debug, Clone)]
pub enum JobOutcome {
    /// A verified HVX program (fresh, from cache, or deduplicated within
    /// the batch).
    Compiled(Box<Compiled>),
    /// Synthesis failed deterministically.
    Failed(CompileError),
    /// The per-job wall-clock budget expired. Proves nothing about the
    /// tile: never cached.
    TimedOut,
    /// The selector panicked on this job; the batch continued.
    Panicked(String),
    /// The batch's cancellation flag was raised before the job finished
    /// (e.g. the requesting client disconnected). Proves nothing about the
    /// tile: never cached, so a rerun recompiles it.
    Cancelled,
    /// The key is a known poison pill: its jobs crashed isolated workers
    /// past the serving layer's threshold and a cached crash verdict
    /// answered instead of running synthesis. Carries the crash summary.
    Quarantined(String),
}

impl JobOutcome {
    fn kind(&self) -> OutcomeKind {
        match self {
            JobOutcome::Compiled(_) => OutcomeKind::Compiled,
            JobOutcome::Failed(_) => OutcomeKind::Failed,
            JobOutcome::TimedOut => OutcomeKind::TimedOut,
            JobOutcome::Panicked(_) => OutcomeKind::Panicked,
            JobOutcome::Cancelled => OutcomeKind::Cancelled,
            JobOutcome::Quarantined(_) => OutcomeKind::Quarantined,
        }
    }
}

/// Outcome of one input expression, in input order.
#[derive(Debug, Clone)]
pub struct JobResult {
    /// Position in the input batch.
    pub index: usize,
    /// Caller-supplied label, if any.
    pub name: Option<String>,
    /// The content-addressed cache key of this expression.
    pub key: String,
    /// Whether the result was served without a fresh synthesis (persistent
    /// cache, in-memory cache, or an earlier duplicate in this batch).
    pub cache_hit: bool,
    /// How the job concluded.
    pub outcome: JobOutcome,
    /// Whether the chaos plane injected a fault into this job (always
    /// `false` without the `chaos` feature).
    pub fault_injected: bool,
    /// Baseline-selector program for non-compiled outcomes, so callers
    /// always have *something* to emit. `None` when the job compiled (use
    /// the synthesized program) or when the baseline also has no rule.
    pub fallback: Option<Program>,
    /// Time the underlying unique job waited in the queue.
    pub queue_wait: Duration,
    /// Time a worker spent on the underlying unique job.
    pub run_time: Duration,
    /// Differential-oracle result, when [`DriverConfig::validate`] is on
    /// and the job produced a program to validate.
    pub validation: Option<ValidationOutcome>,
}

/// Outcome of differentially validating one compiled program.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ValidationOutcome {
    /// Number of (environment, origin) points executed and compared.
    pub checks: usize,
    /// Points where the program disagreed with the interpreter. Anything
    /// non-zero is a miscompile.
    pub mismatches: usize,
}

impl JobResult {
    /// The program to emit: the synthesized one, or the baseline fallback.
    pub fn program(&self) -> Option<&Program> {
        match &self.outcome {
            JobOutcome::Compiled(c) => Some(&c.program),
            _ => self.fallback.as_ref(),
        }
    }
}

/// Everything a batch produced.
#[derive(Debug, Clone)]
pub struct BatchReport {
    /// Per-input outcomes, in input order.
    pub results: Vec<JobResult>,
    /// The full event stream (also written to `log_path` if configured).
    pub events: Vec<DriverEvent>,
    /// Merged synthesis statistics (fresh queries + cache hits).
    pub stats: SynthStats,
    /// Cache-layer counters at the end of the batch.
    pub cache_stats: CacheStats,
    /// End-to-end wall-clock time.
    pub wall: Duration,
}

impl BatchReport {
    /// Number of inputs that produced a verified program.
    pub fn compiled(&self) -> usize {
        self.results.iter().filter(|r| matches!(r.outcome, JobOutcome::Compiled(_))).count()
    }

    /// Render the human-readable per-job summary table.
    pub fn summary_table(&self) -> String {
        event::summary_table(&self.events)
    }

    /// Total differential-validation mismatches across the batch. Zero
    /// when validation was off or every program matched the interpreter.
    pub fn validation_mismatches(&self) -> usize {
        self.results.iter().filter_map(|r| r.validation).map(|v| v.mismatches).sum()
    }
}

/// Observer invoked on every [`DriverEvent`] as it is produced (streamed
/// events the moment a worker finishes, tail events at batch end). The
/// serving layer uses this to feed its metrics registry without parsing
/// the JSONL journal back.
pub type EventSink = Arc<dyn Fn(&DriverEvent) + Send + Sync>;

/// The batch compilation service. Construct with [`Driver::new`], then
/// submit work with [`Driver::compile_batch`] /
/// [`Driver::compile_batch_named`].
pub struct Driver {
    rake: Rake,
    cache: Arc<SynthCache>,
    config: DriverConfig,
    compile_fn: CompileFn,
    sink: Option<EventSink>,
    /// A pre-opened journal shared across drivers (the serving layer's
    /// single writer); `None` opens one per batch from `log_path`.
    journal: Option<Arc<Journal>>,
    #[cfg(feature = "chaos")]
    chaos: Option<chaos::FaultPlan>,
}

impl Driver {
    /// A driver over the given selector, with a default config (in-memory
    /// cache, no deadlines, auto-sized pool).
    pub fn new(rake: Rake) -> Driver {
        let compile_fn = default_compile_fn(&rake);
        Driver {
            rake,
            cache: Arc::new(SynthCache::in_memory()),
            config: DriverConfig::default(),
            compile_fn,
            sink: None,
            journal: None,
            #[cfg(feature = "chaos")]
            chaos: None,
        }
    }

    /// Replace the configuration. Setting `cache_dir` switches to (and
    /// loads) the persistent cache layer, bounded by
    /// [`DriverConfig::cache_limits`].
    pub fn with_config(mut self, config: DriverConfig) -> Driver {
        self.cache = Arc::new(match &config.cache_dir {
            Some(dir) => SynthCache::bounded(dir, config.cache_limits),
            None => SynthCache::in_memory_bounded(config.cache_limits),
        });
        self.config = config;
        self
    }

    /// Share a pre-built cache across drivers: the serving layer builds
    /// one [`SynthCache`] at startup and hands the same handle to every
    /// per-request driver, so all connections warm one content-addressed
    /// store. Call *after* [`Driver::with_config`] (which installs its own
    /// cache from `cache_dir`).
    pub fn with_shared_cache(mut self, cache: Arc<SynthCache>) -> Driver {
        self.cache = cache;
        self
    }

    /// Share a pre-opened [`Journal`] across drivers. A journal roll-over
    /// renames the file out from under any other open handle, so a server
    /// running many per-request drivers against one log path must open the
    /// journal once at startup and hand the same handle to every driver —
    /// this installs it. Takes precedence over [`DriverConfig::log_path`].
    pub fn with_shared_journal(mut self, journal: Arc<Journal>) -> Driver {
        self.journal = Some(journal);
        self
    }

    /// Install an event observer called on every [`DriverEvent`] the
    /// moment it is produced, alongside (and independent of) the JSONL
    /// journal.
    pub fn with_event_sink(mut self, sink: EventSink) -> Driver {
        self.sink = Some(sink);
        self
    }

    /// Arm (or disarm) cooperative cancellation on an already-configured
    /// driver. Unlike [`Driver::with_config`], this touches nothing else —
    /// the serving layer decides per request whether a compile is worth a
    /// cancel slot only after it knows the cache can't answer outright.
    pub fn set_cancel(&mut self, cancel: Option<synth::CancelFlag>) {
        self.config.cancel = cancel;
    }

    /// Replace the per-job compile function. Intended for tests (fault
    /// injection, synthesis counting) and the serving layer's isolated
    /// workers; other callers should rely on the default, which runs
    /// [`Rake::compile`] with the job's deadline and cancellation flag.
    pub fn with_compile_fn(
        mut self,
        f: impl Fn(&Expr, Option<Instant>, Option<synth::CancelFlag>) -> Result<Compiled, CompileError>
            + Send
            + Sync
            + 'static,
    ) -> Driver {
        self.compile_fn = Arc::new(f);
        self
    }

    /// Arm the deterministic fault-injection plane: every subsequent batch
    /// runs under the plan's seeded fault schedule. Test/benchmark
    /// machinery — compiled in only with the `chaos` feature.
    #[cfg(feature = "chaos")]
    pub fn with_chaos(mut self, plan: chaos::FaultPlan) -> Driver {
        self.chaos = Some(plan);
        self
    }

    /// The synthesis cache (shared across batches of this driver).
    pub fn cache(&self) -> &SynthCache {
        &self.cache
    }

    /// The cache key of an expression under this driver's target and
    /// options: canonical S-expression plus a geometry/options fingerprint.
    pub fn cache_key(&self, e: &Expr) -> String {
        cache_key(&self.rake, e)
    }

    /// Canonicalize an input once: its cache key (the string
    /// [`Driver::cache_key`] returns) and canonical form, to inspect with
    /// [`Prepared::key`] and then compile with [`Driver::compile_prepared`]
    /// without canonicalizing it again.
    pub fn prepare(&self, expr: Expr) -> Prepared {
        let canonical = canon::canonicalize(&expr);
        let key = key_of(&self.rake, &canonical.expr);
        Prepared { expr, canonical, key }
    }

    /// Compile a batch of prepared expressions. Results come back in input
    /// order.
    pub fn compile_prepared(&self, jobs: Vec<Prepared>) -> BatchReport {
        self.run(jobs.into_iter().map(|p| (None, p)).collect())
    }

    /// Compile a batch of expressions. Results come back in input order.
    pub fn compile_batch(&self, exprs: &[Expr]) -> BatchReport {
        self.compile_prepared(exprs.iter().map(|e| self.prepare(e.clone())).collect())
    }

    /// Compile a batch of labeled expressions (labels show up in events
    /// and the summary table). Results come back in input order.
    pub fn compile_batch_named(&self, jobs: Vec<(String, Expr)>) -> BatchReport {
        self.run(jobs.into_iter().map(|(name, e)| (Some(name), self.prepare(e))).collect())
    }

    fn run(&self, inputs: Vec<(Option<String>, Prepared)>) -> BatchReport {
        let batch_start = Instant::now();

        // Deduplicate by cache key. The first occurrence of each key
        // becomes the unique job that actually runs.
        let mut unique: Vec<&Prepared> = Vec::new();
        let mut by_key: HashMap<&str, usize> = HashMap::new();
        let mut unique_of: Vec<(usize, bool)> = Vec::with_capacity(inputs.len());
        for (_, input) in &inputs {
            let next = unique.len();
            let u = *by_key.entry(&input.key).or_insert(next);
            if u == next {
                unique.push(input);
            }
            unique_of.push((u, u == next));
        }

        // The batch header is logged now, the per-input records at the end.
        let journal: Option<Arc<Journal>> = match &self.journal {
            Some(journal) => Some(Arc::clone(journal)),
            None => {
                self.config.log_path.as_ref().and_then(|path| match Journal::open(path, None) {
                    Ok(j) => Some(Arc::new(j)),
                    Err(err) => {
                        eprintln!("warning: cannot open event journal {}: {err}", path.display());
                        None
                    }
                })
            }
        };
        let journal = journal.as_deref();
        let mut batch_span = trace::span("driver.batch", "driver");
        if batch_span.is_active() {
            batch_span.arg("jobs", inputs.len());
            batch_span.arg("unique", unique.len());
            batch_span.arg("workers", self.config.workers.max(1));
        }
        let started = DriverEvent::BatchStarted {
            jobs: inputs.len(),
            unique: unique.len(),
            workers: self.config.workers.max(1),
            cache_entries: self.cache.len(),
        };
        if let Some(journal) = &journal {
            journal.append(&started);
        }
        if let Some(sink) = &self.sink {
            sink(&started);
        }
        let mut events = vec![started];
        let unique_results = self.drain_queue(&unique, batch_start);

        // Assemble per-input results in input order, renaming the
        // canonical artifacts back to each input's own buffer names.
        let mut results = Vec::with_capacity(inputs.len());
        let mut stats = SynthStats::default();
        let target = self.rake.target();
        for (index, ((name, input), (unique_index, primary))) in
            inputs.into_iter().zip(unique_of).enumerate()
        {
            let ur = &unique_results[unique_index];
            let cache_hit = ur.cache_hit || !primary;
            let (outcome, job_stats) = match &ur.outcome {
                UniqueOutcome::Compiled { artifacts, stats: fresh } => {
                    let hvx = canon::rename_hvx(&artifacts.hvx, &input.canonical.to_original);
                    let program = hvx.to_program();
                    let job_stats = if cache_hit {
                        SynthStats { cache_hits: 1, ..SynthStats::default() }
                    } else {
                        *fresh
                    };
                    let compiled = Compiled {
                        uber: canon::rename_uber(&artifacts.uber, &input.canonical.to_original),
                        hvx,
                        program,
                        trace: artifacts.trace.clone(),
                        stats: job_stats,
                    };
                    (JobOutcome::Compiled(Box::new(compiled)), job_stats)
                }
                UniqueOutcome::Failed(err) => {
                    let job_stats = if cache_hit {
                        SynthStats { cache_hits: 1, ..SynthStats::default() }
                    } else {
                        SynthStats::default()
                    };
                    (JobOutcome::Failed(err.clone()), job_stats)
                }
                UniqueOutcome::TimedOut => (JobOutcome::TimedOut, SynthStats::default()),
                UniqueOutcome::Panicked(msg) => {
                    (JobOutcome::Panicked(msg.clone()), SynthStats::default())
                }
                UniqueOutcome::Cancelled => (JobOutcome::Cancelled, SynthStats::default()),
                UniqueOutcome::Quarantined(reason) => {
                    // Quarantine verdicts come straight from the cache;
                    // count them as cache-served like any negative entry.
                    let job_stats = SynthStats { cache_hits: 1, ..SynthStats::default() };
                    (JobOutcome::Quarantined(reason.clone()), job_stats)
                }
            };
            stats.merge(&job_stats);
            let fallback = match &outcome {
                // Cancelled jobs get no baseline fallback either: the
                // requester is gone, so the work would be wasted.
                JobOutcome::Compiled(_) | JobOutcome::Cancelled => None,
                _ => baseline_fallback(&input.expr, target),
            };
            let validation = if self.config.validate {
                self.validate_outcome(&input.expr, &outcome)
            } else {
                None
            };
            if let Some(v) = &validation {
                events.push(DriverEvent::JobValidated {
                    job: index,
                    name: name.clone(),
                    key: input.key.clone(),
                    checks: v.checks,
                    mismatches: v.mismatches,
                });
            }
            let (instructions, detail) = match &outcome {
                JobOutcome::Compiled(c) => (Some(c.program.len()), None),
                JobOutcome::Failed(err) => (None, Some(err.to_string())),
                JobOutcome::TimedOut | JobOutcome::Cancelled => (None, None),
                JobOutcome::Panicked(msg) => (None, Some(msg.clone())),
                JobOutcome::Quarantined(reason) => (None, Some(reason.clone())),
            };
            events.push(DriverEvent::JobFinished(JobRecord {
                index,
                name: name.clone(),
                key: input.key.clone(),
                cache_hit,
                queue_wait: ur.queue_wait,
                run_time: ur.run_time,
                outcome: outcome.kind(),
                detail,
                instructions,
                stats: job_stats,
                fault_injected: ur.fault_injected,
            }));
            results.push(JobResult {
                index,
                name,
                key: input.key,
                cache_hit,
                outcome,
                fault_injected: ur.fault_injected,
                fallback,
                queue_wait: ur.queue_wait,
                run_time: ur.run_time,
                validation,
            });
        }

        let wall = batch_start.elapsed();
        let count = |k: OutcomeKind| results.iter().filter(|r| r.outcome.kind() == k).count();
        events.push(DriverEvent::BatchFinished {
            compiled: count(OutcomeKind::Compiled),
            failed: count(OutcomeKind::Failed),
            timed_out: count(OutcomeKind::TimedOut),
            panicked: count(OutcomeKind::Panicked),
            cancelled: count(OutcomeKind::Cancelled),
            quarantined: count(OutcomeKind::Quarantined),
            cache_hits: results.iter().filter(|r| r.cache_hit).count(),
            wall,
        });

        if let Err(err) = self.cache.persist() {
            eprintln!("warning: failed to persist synthesis cache: {err}");
        }
        for event in &events[1..] {
            if let Some(journal) = &journal {
                journal.append(event);
            }
            if let Some(sink) = &self.sink {
                sink(event);
            }
        }

        BatchReport { results, events, stats, cache_stats: self.cache.stats(), wall }
    }

    /// Differentially validate a compiled job: execute its program on
    /// adversarial inputs and compare with the interpreter, lane by lane.
    fn validate_outcome(&self, e: &Expr, outcome: &JobOutcome) -> Option<ValidationOutcome> {
        let JobOutcome::Compiled(c) = outcome else {
            return None;
        };
        let target = self.rake.target();
        let checker = oracle::Oracle {
            lanes: target.lanes,
            width: target.lanes + 24,
            ..oracle::Oracle::default()
        };
        let ty = e.ty();
        let program = &c.program;
        let report = checker.check(e, &|env, x0, y0, lanes| {
            program.run(env, x0, y0, lanes).ok().map(|v| v.typed_lanes(ty))
        });
        Some(ValidationOutcome { checks: report.checks, mismatches: report.failures.len() })
    }

    /// Run the unique jobs; results indexed like `jobs`. The calling thread
    /// works the queue beside `min(workers, jobs) - 1` spawned threads, so
    /// a one-job batch spawns none. A job's fresh verdict is persisted
    /// before its worker picks up the next job: the cache directory is the
    /// only crash-recovery record, so a crash loses at most the jobs in
    /// flight.
    fn drain_queue(&self, jobs: &[&Prepared], batch_start: Instant) -> Vec<UniqueResult> {
        let queue: Mutex<std::collections::VecDeque<usize>> = Mutex::new((0..jobs.len()).collect());
        let slots: Mutex<Vec<Option<UniqueResult>>> = Mutex::new(vec![None; jobs.len()]);
        let workers = self.config.workers.max(1).min(jobs.len().max(1));
        let work = || loop {
            let Some(job_index) =
                queue.lock().expect("no worker panics holding the queue").pop_front()
            else {
                break;
            };
            let result = self.run_unique(jobs[job_index], batch_start);
            if !result.cache_hit
                && matches!(
                    result.outcome,
                    UniqueOutcome::Compiled { .. } | UniqueOutcome::Failed(_)
                )
            {
                if let Err(err) = self.cache.persist() {
                    eprintln!("warning: failed to persist synthesis cache: {err}");
                }
            }
            slots.lock().expect("no worker panics holding the slots")[job_index] = Some(result);
        };
        // Spawned workers inherit the batch's span context explicitly:
        // thread-local span stacks do not cross thread::scope. The calling
        // thread's spans nest under the batch span as they are.
        let span_ctx = trace::current();
        std::thread::scope(|scope| {
            for _ in 1..workers {
                scope.spawn(|| {
                    let _adopted = span_ctx.map(trace::adopt);
                    work();
                });
            }
            work();
        });
        slots
            .into_inner()
            .unwrap()
            .into_iter()
            .map(|r| r.expect("the workers drained the whole queue"))
            .collect()
    }

    /// Execute one unique job: cache lookup, then one compile under the
    /// job's whole deadline with panic isolation, storing the
    /// (canonicalized) result.
    fn run_unique(&self, job: &Prepared, batch_start: Instant) -> UniqueResult {
        let mut sp = trace::span("driver.job", "driver");
        let result = self.run_unique_inner(job, batch_start);
        if sp.is_active() {
            sp.arg("key", job.key.clone());
            sp.arg("outcome", result.kind().name());
            sp.arg("cache_hit", result.cache_hit);
        }
        result
    }

    fn run_unique_inner(&self, job: &Prepared, batch_start: Instant) -> UniqueResult {
        let picked = Instant::now();
        let queue_wait = picked.duration_since(batch_start);
        let finish = |outcome, cache_hit, fault_injected| UniqueResult {
            queue_wait,
            run_time: picked.elapsed(),
            cache_hit,
            fault_injected,
            outcome,
        };

        // A raised cancellation flag concludes queued jobs outright:
        // nothing about the tile is learned, nothing is cached, and a
        // rerun recompiles them.
        if synth::cancel::cancelled(self.config.cancel) {
            return finish(UniqueOutcome::Cancelled, false, false);
        }

        match self.cache.lookup(&job.key) {
            Some(CacheEntry::Compiled(artifacts)) => {
                let outcome = UniqueOutcome::Compiled {
                    artifacts: Box::new(artifacts),
                    stats: SynthStats::default(),
                };
                return finish(outcome, true, false);
            }
            Some(CacheEntry::Failed(err)) => {
                return finish(UniqueOutcome::Failed(err), true, false);
            }
            Some(CacheEntry::Quarantined(q)) => {
                // A poison pill answers from its cached crash verdict:
                // re-running it would only kill another worker.
                return finish(UniqueOutcome::Quarantined(q.reason), true, false);
            }
            None => {}
        }

        let deadline = self.config.job_timeout.map(|budget| picked + budget);
        let mut fault_injected = false;
        let outcome = match self.compile_attempt(job, deadline, &mut fault_injected) {
            Ok(Ok(c)) => {
                let artifacts = CachedArtifacts {
                    uber: canon::rename_uber(&c.uber, &job.canonical.to_canonical),
                    hvx: canon::rename_hvx(&c.hvx, &job.canonical.to_canonical),
                    trace: c.trace,
                };
                self.cache.store(&job.key, CacheEntry::Compiled(artifacts.clone()));
                UniqueOutcome::Compiled { artifacts: Box::new(artifacts), stats: c.stats }
            }
            // Cancellation surfaces through the deadline plumbing: with the
            // flag raised, the "timeout" was a cancelled search.
            Ok(Err(CompileError::DeadlineExceeded))
                if synth::cancel::cancelled(self.config.cancel) =>
            {
                UniqueOutcome::Cancelled
            }
            Ok(Err(CompileError::DeadlineExceeded)) => UniqueOutcome::TimedOut,
            Ok(Err(err)) => {
                // A deterministic verdict on the tile: negative-cache it.
                self.cache.store(&job.key, CacheEntry::Failed(err.clone()));
                UniqueOutcome::Failed(err)
            }
            Err(msg) => UniqueOutcome::Panicked(msg),
        };
        finish(outcome, false, fault_injected)
    }

    /// One compile attempt under panic isolation, with the chaos plane's
    /// scheduled fault (if armed) injected first. `Err(msg)` is a captured
    /// panic.
    fn compile_attempt(
        &self,
        job: &Prepared,
        deadline: Option<Instant>,
        fault_injected: &mut bool,
    ) -> Result<Result<Compiled, CompileError>, String> {
        #[cfg(feature = "chaos")]
        if let Some(plan) = &self.chaos {
            if let Some(fault) = plan.fault_for(&job.key) {
                *fault_injected = true;
                match fault {
                    chaos::Fault::ForcedDeadline => return Ok(Err(CompileError::DeadlineExceeded)),
                    chaos::Fault::PanicStr => {
                        let payload = catch_unwind(|| panic!("chaos: injected worker panic"))
                            .expect_err("the injected panic panics");
                        return Err(panic_message(payload.as_ref()));
                    }
                    chaos::Fault::PanicNonStr => {
                        let payload = catch_unwind(|| std::panic::panic_any(42i32))
                            .expect_err("the injected panic panics");
                        return Err(panic_message(payload.as_ref()));
                    }
                    chaos::Fault::Latency(delay) => std::thread::sleep(delay),
                    // Lethal faults take down the whole process: only ever
                    // scheduled inside an isolated worker, where the
                    // supervisor contains the blast radius.
                    lethal @ (chaos::Fault::Abort | chaos::Fault::Oom) => {
                        chaos::execute_lethal(lethal)
                    }
                }
            }
        }
        let _ = fault_injected;
        let cancel = self.config.cancel;
        match catch_unwind(AssertUnwindSafe(|| (self.compile_fn)(&job.expr, deadline, cancel))) {
            Ok(result) => Ok(result),
            Err(payload) => Err(panic_message(payload.as_ref())),
        }
    }
}

/// An input expression with its canonical form and cache key, computed
/// once by [`Driver::prepare`].
#[derive(Debug, Clone)]
pub struct Prepared {
    expr: Expr,
    canonical: canon::Canonical,
    key: String,
}

impl Prepared {
    /// The content-addressed cache key: what [`Driver::cache_key`] returns
    /// for the same expression.
    pub fn key(&self) -> &str {
        &self.key
    }
}

#[derive(Clone)]
enum UniqueOutcome {
    Compiled { artifacts: Box<CachedArtifacts>, stats: SynthStats },
    Failed(CompileError),
    TimedOut,
    Panicked(String),
    Cancelled,
    Quarantined(String),
}

#[derive(Clone)]
struct UniqueResult {
    queue_wait: Duration,
    run_time: Duration,
    cache_hit: bool,
    fault_injected: bool,
    outcome: UniqueOutcome,
}

impl UniqueResult {
    fn kind(&self) -> OutcomeKind {
        match &self.outcome {
            UniqueOutcome::Compiled { .. } => OutcomeKind::Compiled,
            UniqueOutcome::Failed(_) => OutcomeKind::Failed,
            UniqueOutcome::TimedOut => OutcomeKind::TimedOut,
            UniqueOutcome::Panicked(_) => OutcomeKind::Panicked,
            UniqueOutcome::Cancelled => OutcomeKind::Cancelled,
            UniqueOutcome::Quarantined(_) => OutcomeKind::Quarantined,
        }
    }
}

/// The compile function a [`Driver`] runs unless
/// [`Driver::with_compile_fn`] replaces it: [`Rake::compile`] with the
/// job's deadline and cancellation flag.
pub fn default_compile_fn(rake: &Rake) -> CompileFn {
    let rake = rake.clone();
    Arc::new(move |e: &Expr, deadline: Option<Instant>, cancel: Option<synth::CancelFlag>| {
        let opts = LoweringOptions { deadline, cancel, ..rake.options() };
        rake.clone().with_options(opts).compile(e)
    })
}

/// Geometry + search-option fingerprint mixed into every cache key. The
/// deadline is deliberately excluded: it changes how long we search, not
/// what a verified answer means.
fn fingerprint(target: rake::Target, opts: &LoweringOptions) -> String {
    format!(
        "l{}v{}|bt{}ly{}al{}ld{}",
        target.lanes,
        target.vec_bytes,
        u8::from(opts.backtrack),
        u8::from(opts.layouts),
        u8::from(opts.aligned_loads),
        opts.max_lift_depth.map_or_else(|| "-".to_owned(), |d| d.to_string()),
    )
}

/// The cache key of an expression under a selector's target and options —
/// identical to [`Driver::cache_key`] but usable without a `Driver` (the
/// serving layer's worker-pool dispatch computes keys inside a closure
/// that outlives its per-request driver).
pub fn cache_key(rake: &Rake, e: &Expr) -> String {
    key_of(rake, &canon::canonicalize(e).expr)
}

fn key_of(rake: &Rake, canonical: &Expr) -> String {
    format!(
        "{}|{}",
        halide_ir::sexpr::to_sexpr(canonical),
        fingerprint(rake.target(), &rake.options())
    )
}

fn baseline_fallback(e: &Expr, target: rake::Target) -> Option<Program> {
    let opts = halide_opt::BaselineOptions { lanes: target.lanes, vec_bytes: target.vec_bytes };
    halide_opt::select(e, opts).ok().map(|hvx| hvx.to_program())
}

/// Render a panic payload. String payloads are passed through; common
/// non-string payloads (`panic_any(42)` and friends) get a typed
/// placeholder instead of being silently dropped. Public so the serving
/// layer can render payloads it re-raises through `resume_unwind`.
pub fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        return (*s).to_owned();
    }
    if let Some(s) = payload.downcast_ref::<String>() {
        return s.clone();
    }
    macro_rules! typed {
        ($($ty:ty),*) => {
            $(if let Some(v) = payload.downcast_ref::<$ty>() {
                return format!(
                    "panic with non-string payload: {}({v})",
                    stringify!($ty)
                );
            })*
        };
    }
    typed!(i32, i64, u32, u64, usize, isize, f64, bool, char);
    "panic with non-string payload (unknown type)".to_owned()
}

#[cfg(test)]
mod unit_tests {
    use super::*;

    #[test]
    fn panic_payloads_render_with_type_information() {
        let capture = |f: Box<dyn Fn() + std::panic::UnwindSafe>| {
            let payload = catch_unwind(f).expect_err("must panic");
            panic_message(payload.as_ref())
        };
        assert_eq!(capture(Box::new(|| panic!("plain str"))), "plain str");
        assert_eq!(capture(Box::new(|| panic!("formatted {}", 7))), "formatted 7");
        assert_eq!(
            capture(Box::new(|| std::panic::panic_any(42i32))),
            "panic with non-string payload: i32(42)"
        );
        assert_eq!(
            capture(Box::new(|| std::panic::panic_any(7usize))),
            "panic with non-string payload: usize(7)"
        );
        let unknown = capture(Box::new(|| std::panic::panic_any(vec![1u8])));
        assert_eq!(unknown, "panic with non-string payload (unknown type)");
    }
}

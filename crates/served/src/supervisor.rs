//! The worker-pool supervisor behind `rake-served --isolate`.
//!
//! Owns a fixed number of worker slots, each holding (when healthy) a
//! pre-forked subprocess speaking the [`crate::worker`] frame protocol.
//! The pool's job is *containment*: any worker death — abort, SIGSEGV,
//! SIGKILL, OOM, stack overflow, injected chaos — is converted into a
//! structured [`DispatchOutcome::Crashed`] for the jobs on that worker
//! and affects nothing else.
//!
//! ## Supervision loop
//!
//! A monitor thread wakes every ~150 ms and
//!
//! * **reaps** exited workers (`try_wait`) and schedules replacements
//!   with exponential backoff per slot (reset after a successful job);
//! * **enforces the RSS limit**: `/proc/<pid>/statm` resident pages ×
//!   page size past the cap → `SIGKILL`, cause `rss`, and the global
//!   high-water gauge updated;
//! * **heartbeats** idle workers (a `ping` frame roughly every 10 s); a
//!   worker that cannot accept the write is dead pipe-wise and reaped;
//! * **trips the restart-storm breaker**: more than `storm_limit`
//!   respawns inside `storm_window` opens the breaker for
//!   `storm_cooldown` — cold dispatches fail fast ([`DispatchOutcome::
//!   Unavailable`] → 503) instead of fork-bombing a crashing binary.
//!
//! Wall-clock enforcement lives in [`WorkerPool::dispatch`] itself: a
//! worker that blows `deadline + grace` is killed and reported with
//! cause `wallclock` (the in-worker deadline is cooperative; this one is
//! not).
//!
//! Per-key crash counts feed the serving layer's poison-pill quarantine:
//! the pool only *counts*; the caller decides when the count crosses the
//! threshold and writes the quarantine verdict into the synthesis cache.

use std::collections::{HashMap, VecDeque};
use std::io::{BufRead, BufReader, Read};
use std::process::{Child, ChildStdin, Command, Stdio};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{Receiver, RecvTimeoutError, Sender};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use driver::json::{self, Json, ParseLimits};

use crate::worker::{read_frame, write_frame, MAX_FRAME_BYTES};

/// `kill(2)` — the only libc entry point the supervisor needs, declared
/// raw like the signal hooks in the `rake-served` binary (std exposes
/// no way to send SIGKILL to a non-child-handle pid).
mod sys {
    extern "C" {
        fn kill(pid: i32, sig: i32) -> i32;
    }
    pub const SIGKILL: i32 = 9;

    pub fn kill_pid(pid: u32, sig: i32) {
        // Best-effort: the worker may already be gone.
        unsafe {
            let _ = kill(pid as i32, sig);
        }
    }
}

/// Pool configuration.
#[derive(Debug, Clone)]
pub struct PoolConfig {
    /// Worker subprocesses to keep alive.
    pub workers: usize,
    /// Program + arguments to exec per worker. The server passes its own
    /// binary with the single argument `worker`.
    pub worker_cmd: Vec<String>,
    /// Per-worker resident-set cap; past it the monitor kills the worker
    /// (cause `rss`). `None` disables the check.
    pub rss_limit_bytes: Option<u64>,
    /// Grace beyond a job's deadline before the supervisor kills the
    /// worker (cause `wallclock`). The in-worker deadline is cooperative
    /// and can be ignored by a wedged solver; this one cannot.
    pub job_grace: Duration,
    /// Absolute wall-clock cap for jobs dispatched without a deadline.
    pub max_job_wall: Duration,
    /// Exponential respawn backoff: base delay, doubling per consecutive
    /// failure on a slot, capped at `backoff_max`.
    pub backoff_base: Duration,
    /// Cap on the per-slot respawn delay.
    pub backoff_max: Duration,
    /// Restart-storm window (see module docs).
    pub storm_window: Duration,
    /// Respawns tolerated inside the window before the breaker opens.
    pub storm_limit: u32,
    /// How long the breaker stays open once tripped.
    pub storm_cooldown: Duration,
    /// Idle heartbeat interval.
    pub heartbeat: Duration,
}

impl Default for PoolConfig {
    fn default() -> PoolConfig {
        PoolConfig {
            workers: 2,
            worker_cmd: Vec::new(),
            rss_limit_bytes: Some(4 * 1024 * 1024 * 1024),
            job_grace: Duration::from_secs(5),
            max_job_wall: Duration::from_secs(660),
            backoff_base: Duration::from_millis(50),
            backoff_max: Duration::from_secs(5),
            storm_window: Duration::from_secs(10),
            storm_limit: 8,
            storm_cooldown: Duration::from_secs(5),
            heartbeat: Duration::from_secs(10),
        }
    }
}

/// One job for an isolated worker.
#[derive(Debug, Clone)]
pub struct WorkerJob {
    /// The synthesis cache key (crash accounting + forensics).
    pub key: String,
    /// The Halide expression, as an S-expression.
    pub expr: String,
    /// Lane count of the target geometry.
    pub lanes: usize,
    /// Cooperative in-worker budget from dispatch time.
    pub deadline: Option<Instant>,
    /// Chaos fault to inject in the worker (`abort` / `oom` /
    /// `sleep:<ms>`), when the server runs with the chaos plane enabled.
    pub fault: Option<String>,
}

/// What happened to a dispatched job.
#[derive(Debug)]
pub enum DispatchOutcome {
    /// The worker compiled it; S-expressions + stats, ready for the
    /// caller to parse back into a [`rake::Compiled`].
    Compiled(Box<WorkerArtifacts>),
    /// A deterministic [`rake::CompileError`], by cache name.
    Error(String),
    /// The worker caught a panic in-process (ordinary, non-lethal).
    Panicked(String),
    /// The worker *died* under this job. The report carries forensics
    /// and this key's running crash count.
    Crashed(CrashReport),
    /// No worker could take the job (restart-storm breaker open, or the
    /// pool never managed to spawn one). Callers answer 503.
    Unavailable(String),
    /// The dispatch was abandoned because the request's cancel flag rose
    /// (client gone). The worker was killed to reclaim its budget; the
    /// crash is not charged to the key.
    Cancelled,
}

/// A compiled reply, pre-parse.
#[derive(Debug)]
pub struct WorkerArtifacts {
    /// Lifted Uber-IR S-expression.
    pub uber: String,
    /// Synthesized HVX S-expression.
    pub hvx: String,
    /// Worker-side stats subset.
    pub stats: synth::SynthStats,
}

/// Why a worker died, for forensics and metrics labels.
#[derive(Debug, Clone)]
pub struct CrashReport {
    /// `signal`, `exit`, `wallclock`, `rss`, or `spawn`.
    pub cause: &'static str,
    /// Terminating signal, when the OS reported one.
    pub signal: Option<i32>,
    /// Exit code, for non-signal deaths.
    pub exit_code: Option<i32>,
    /// Last stderr lines the worker wrote before dying.
    pub stderr_tail: String,
    /// Crashes recorded against this job's key, this one included.
    pub crashes_for_key: u32,
}

impl CrashReport {
    /// One-line human summary (`signal 9`, `exit code 2`, ...).
    pub fn summary(&self) -> String {
        match (self.cause, self.signal, self.exit_code) {
            ("wallclock", ..) => "exceeded the wall-clock limit".to_owned(),
            ("rss", ..) => "exceeded the RSS limit".to_owned(),
            (_, Some(sig), _) => format!("killed by signal {sig}"),
            (_, None, Some(code)) => format!("exited with code {code}"),
            _ => "died".to_owned(),
        }
    }

    /// The metrics label for this crash (`signal_9`, `exit_2`, `rss`,
    /// `wallclock`, `spawn`).
    pub fn metric_cause(&self) -> String {
        match (self.cause, self.signal, self.exit_code) {
            ("rss" | "wallclock" | "spawn", ..) => self.cause.to_owned(),
            (_, Some(sig), _) => format!("signal_{sig}"),
            (_, None, Some(code)) => format!("exit_{code}"),
            _ => "unknown".to_owned(),
        }
    }
}

/// A live worker subprocess plus its reader plumbing.
struct WorkerProc {
    child: Child,
    pid: u32,
    stdin: ChildStdin,
    /// Replies parsed off the worker's stdout by its reader thread. A
    /// disconnect means the pipe closed — the worker is dead or dying.
    rx: Receiver<Json>,
    /// Ring of the worker's last stderr lines.
    stderr_tail: Arc<Mutex<VecDeque<String>>>,
    next_id: u64,
    last_used: Instant,
}

impl WorkerProc {
    fn forensics(&self) -> String {
        let tail = self.stderr_tail.lock().unwrap();
        tail.iter().cloned().collect::<Vec<_>>().join("\n")
    }
}

/// Slot lifecycle. `Busy` parks the process handle with the dispatching
/// thread; the slot records the pid + deadline so the monitor can still
/// police it.
enum Slot {
    Idle(Box<WorkerProc>),
    Busy {
        pid: u32,
        /// Kill past this instant (deadline + grace), cause `wallclock`.
        kill_at: Instant,
        /// Set by the monitor when *it* killed the worker, so the
        /// dispatcher reports the right cause.
        killed: Option<&'static str>,
    },
    /// No live process; respawn not before `retry_at`.
    Dead {
        retry_at: Instant,
        failures: u32,
    },
}

struct PoolState {
    slots: Vec<Slot>,
    /// Breaker-open horizon; `None` when closed.
    storm_open_until: Option<Instant>,
    /// Recent respawn instants, pruned to the storm window.
    respawns: VecDeque<Instant>,
    /// Per-key crash counts (the quarantine input).
    key_crashes: HashMap<String, u32>,
    shutting_down: bool,
}

/// Counters the pool exports (rendered by [`crate::metrics`]).
#[derive(Debug, Default)]
pub struct PoolCounters {
    /// Workers (re)started after the initial pre-fork.
    pub restarts: AtomicU64,
    /// Crashes by metric cause label.
    pub crashes: Mutex<HashMap<String, u64>>,
    /// Highest resident-set size observed on any worker, in bytes.
    pub rss_high_water: AtomicU64,
    /// Live worker processes right now.
    pub alive: AtomicU64,
}

/// The pool. One per server; shared behind `Arc`.
pub struct WorkerPool {
    config: PoolConfig,
    state: Mutex<PoolState>,
    cv: Condvar,
    counters: PoolCounters,
    monitor: Mutex<Option<std::thread::JoinHandle<()>>>,
}

impl WorkerPool {
    /// Pre-fork `config.workers` subprocesses and start the monitor.
    /// Spawn failures leave slots `Dead` (the monitor keeps retrying);
    /// the pool itself always constructs.
    pub fn start(config: PoolConfig) -> Arc<WorkerPool> {
        let workers = config.workers.max(1);
        let now = Instant::now();
        let mut slots = Vec::with_capacity(workers);
        for _ in 0..workers {
            slots.push(Slot::Dead { retry_at: now, failures: 0 });
        }
        let pool = Arc::new(WorkerPool {
            config,
            state: Mutex::new(PoolState {
                slots,
                storm_open_until: None,
                respawns: VecDeque::new(),
                key_crashes: HashMap::new(),
                shutting_down: false,
            }),
            cv: Condvar::new(),
            counters: PoolCounters::default(),
            monitor: Mutex::new(None),
        });
        // Bring the initial fleet up synchronously so the first request
        // does not race the monitor (initial spawns are not "restarts").
        {
            let mut st = pool.state.lock().unwrap();
            for i in 0..workers {
                match spawn_worker(&pool.config) {
                    Ok(proc_) => {
                        pool.counters.alive.fetch_add(1, Ordering::Relaxed);
                        st.slots[i] = Slot::Idle(Box::new(proc_));
                    }
                    Err(e) => {
                        eprintln!("rake-served: worker spawn failed: {e}");
                        st.slots[i] = Slot::Dead {
                            retry_at: Instant::now() + pool.config.backoff_base,
                            failures: 1,
                        };
                    }
                }
            }
        }
        let monitor_pool = Arc::clone(&pool);
        let handle = std::thread::Builder::new()
            .name("rake-served-supervisor".to_owned())
            .spawn(move || monitor_loop(&monitor_pool))
            .expect("spawn supervisor thread");
        *pool.monitor.lock().unwrap() = Some(handle);
        pool
    }

    /// Whether the restart-storm breaker is open right now.
    pub fn breaker_open(&self) -> bool {
        let st = self.state.lock().unwrap();
        st.storm_open_until.is_some_and(|until| Instant::now() < until)
    }

    /// The pool's exported counters.
    pub fn counters(&self) -> &PoolCounters {
        &self.counters
    }

    /// Snapshot the counters for `/metrics`.
    pub fn metrics_snapshot(&self) -> crate::metrics::WorkerSnapshot {
        let mut crashes: Vec<(String, u64)> = {
            let map = self.counters.crashes.lock().unwrap();
            map.iter().map(|(k, n)| (k.clone(), *n)).collect()
        };
        crashes.sort();
        crate::metrics::WorkerSnapshot {
            restarts: self.counters.restarts.load(Ordering::Relaxed),
            alive: self.counters.alive.load(Ordering::Relaxed),
            rss_high_water: self.counters.rss_high_water.load(Ordering::Relaxed),
            crashes,
        }
    }

    /// Live worker pids (tests kill these to prove containment).
    pub fn worker_pids(&self) -> Vec<u32> {
        let st = self.state.lock().unwrap();
        st.slots
            .iter()
            .filter_map(|s| match s {
                Slot::Idle(p) => Some(p.pid),
                Slot::Busy { pid, .. } => Some(*pid),
                Slot::Dead { .. } => None,
            })
            .collect()
    }

    /// Pids of workers currently executing a job. Tests poll this to
    /// know a dispatch has actually landed in a subprocess (instead of
    /// sleeping a guessed interval and hoping).
    pub fn busy_workers(&self) -> Vec<u32> {
        let st = self.state.lock().unwrap();
        st.slots
            .iter()
            .filter_map(|s| match s {
                Slot::Busy { pid, .. } => Some(*pid),
                Slot::Idle(_) | Slot::Dead { .. } => None,
            })
            .collect()
    }

    /// Crashes recorded against `key` so far.
    pub fn crashes_for(&self, key: &str) -> u32 {
        let st = self.state.lock().unwrap();
        st.key_crashes.get(key).copied().unwrap_or(0)
    }

    /// Run one job on an isolated worker, blocking until it concludes
    /// one way or another (see [`DispatchOutcome`] — this never panics
    /// and never blocks past the job's wall-clock cap + scheduling).
    pub fn dispatch(&self, job: &WorkerJob, cancel: Option<synth::CancelFlag>) -> DispatchOutcome {
        let kill_at = job.deadline.unwrap_or_else(|| Instant::now() + self.config.max_job_wall)
            + self.config.job_grace;
        let (slot_idx, mut proc_) = match self.claim_worker(kill_at, cancel) {
            Ok(claimed) => claimed,
            Err(outcome) => return outcome,
        };

        proc_.next_id += 1;
        let id = proc_.next_id;
        let mut fields = vec![
            ("id".to_owned(), id.into()),
            ("op".to_owned(), "compile".into()),
            ("expr".to_owned(), job.expr.as_str().into()),
            ("lanes".to_owned(), job.lanes.into()),
            (
                "deadline_ms".to_owned(),
                job.deadline
                    .map_or(0u64, |d| {
                        d.saturating_duration_since(Instant::now()).as_millis() as u64
                    })
                    .into(),
            ),
            (
                "fault".to_owned(),
                match &job.fault {
                    Some(f) => Json::Str(f.clone()),
                    None => Json::Null,
                },
            ),
        ];
        // Span propagation across the process boundary: ship the current
        // span's identity plus our monotonic clock reading; the worker
        // aligns its clock to ours and parents its spans under this one,
        // so the request's trace stitches into a single tree.
        if trace::enabled() {
            if let Some(ctx) = trace::current() {
                fields.push(("trace".to_owned(), Json::Str(trace::fmt_id(ctx.trace_id))));
                fields.push(("parent_span".to_owned(), Json::Str(trace::fmt_id(ctx.span_id))));
                fields.push(("t_now_us".to_owned(), trace::now_us().into()));
            }
        }
        let frame = Json::Obj(fields);
        if write_frame(&mut proc_.stdin, &frame.to_string()).is_err() {
            // The pipe is already gone: the worker died between jobs.
            return self.conclude_crash(slot_idx, *proc_, job, "exit");
        }

        // Wait for the tagged reply, polling so cancellation and the
        // wall-clock cap stay responsive.
        loop {
            if synth::cancel::cancelled(cancel) {
                sys::kill_pid(proc_.pid, sys::SIGKILL);
                self.reap_cancelled(slot_idx, *proc_);
                return DispatchOutcome::Cancelled;
            }
            let now = Instant::now();
            if now >= kill_at {
                sys::kill_pid(proc_.pid, sys::SIGKILL);
                return self.conclude_crash(slot_idx, *proc_, job, "wallclock");
            }
            let wait = (kill_at - now).min(Duration::from_millis(100));
            match proc_.rx.recv_timeout(wait) {
                Ok(reply) => {
                    if reply.get("id").and_then(Json::as_i64) != Some(id as i64) {
                        continue; // stale pong or leftover from a prior job
                    }
                    ingest_reply_spans(&reply);
                    let outcome = parse_reply(&reply);
                    self.return_worker(slot_idx, proc_);
                    return outcome;
                }
                Err(RecvTimeoutError::Timeout) => {
                    // Did the monitor kill it under us (rss)?
                    let killed = {
                        let st = self.state.lock().unwrap();
                        match &st.slots[slot_idx] {
                            Slot::Busy { killed, .. } => *killed,
                            _ => None,
                        }
                    };
                    if let Some(cause) = killed {
                        return self.conclude_crash(slot_idx, *proc_, job, cause);
                    }
                }
                Err(RecvTimeoutError::Disconnected) => {
                    // Reader thread saw EOF: the worker is dead.
                    let killed = {
                        let st = self.state.lock().unwrap();
                        match &st.slots[slot_idx] {
                            Slot::Busy { killed, .. } => *killed,
                            _ => None,
                        }
                    };
                    return self.conclude_crash(slot_idx, *proc_, job, killed.unwrap_or("signal"));
                }
            }
        }
    }

    /// Graceful stop: close every worker's stdin (clean exit), join the
    /// monitor.
    pub fn shutdown(&self) {
        {
            let mut st = self.state.lock().unwrap();
            st.shutting_down = true;
            for slot in &mut st.slots {
                if let Slot::Idle(p) = slot {
                    sys::kill_pid(p.pid, sys::SIGKILL);
                }
                *slot = Slot::Dead { retry_at: Instant::now(), failures: 0 };
            }
        }
        self.cv.notify_all();
        if let Some(handle) = self.monitor.lock().unwrap().take() {
            let _ = handle.join();
        }
        self.counters.alive.store(0, Ordering::Relaxed);
    }

    /// Block until an idle worker is available, claim it, and mark the
    /// slot `Busy`. Fails fast with `Unavailable` when the breaker is
    /// open and no worker is already idle.
    fn claim_worker(
        &self,
        kill_at: Instant,
        cancel: Option<synth::CancelFlag>,
    ) -> Result<(usize, Box<WorkerProc>), DispatchOutcome> {
        let mut st = self.state.lock().unwrap();
        loop {
            if st.shutting_down {
                return Err(DispatchOutcome::Unavailable("shutting down".to_owned()));
            }
            if let Some(idx) = st.slots.iter().position(|s| matches!(s, Slot::Idle(_))) {
                let slot = std::mem::replace(
                    &mut st.slots[idx],
                    Slot::Busy { pid: 0, kill_at, killed: None },
                );
                let Slot::Idle(proc_) = slot else { unreachable!() };
                st.slots[idx] = Slot::Busy { pid: proc_.pid, kill_at, killed: None };
                return Ok((idx, proc_));
            }
            let storm_open = st.storm_open_until.is_some_and(|until| Instant::now() < until);
            let all_dead = st.slots.iter().all(|s| matches!(s, Slot::Dead { .. }));
            if storm_open && all_dead {
                return Err(DispatchOutcome::Unavailable(
                    "worker pool in restart-storm cooldown".to_owned(),
                ));
            }
            if synth::cancel::cancelled(cancel) {
                return Err(DispatchOutcome::Cancelled);
            }
            if Instant::now() >= kill_at {
                return Err(DispatchOutcome::Unavailable(
                    "no worker became available within the job budget".to_owned(),
                ));
            }
            let (guard, _) = self.cv.wait_timeout(st, Duration::from_millis(50)).unwrap();
            st = guard;
        }
    }

    /// Put a healthy worker back in its slot.
    fn return_worker(&self, idx: usize, mut proc_: Box<WorkerProc>) {
        proc_.last_used = Instant::now();
        let mut st = self.state.lock().unwrap();
        st.slots[idx] = Slot::Idle(proc_);
        drop(st);
        self.cv.notify_one();
    }

    /// A worker died under `job`: reap it, record forensics, charge the
    /// key, schedule the slot's respawn, and build the outcome.
    fn conclude_crash(
        &self,
        idx: usize,
        mut proc_: WorkerProc,
        job: &WorkerJob,
        cause_hint: &'static str,
    ) -> DispatchOutcome {
        // Give a just-killed process a beat to be reapable, then collect
        // its status for the signal/exit-code forensics.
        let status = wait_reap(&mut proc_.child, Duration::from_secs(2));
        let (signal, exit_code) = match status {
            Some(status) => {
                #[cfg(unix)]
                {
                    use std::os::unix::process::ExitStatusExt;
                    (status.signal(), status.code())
                }
                #[cfg(not(unix))]
                (None, status.code())
            }
            None => (None, None),
        };
        let stderr_tail = proc_.forensics();
        self.counters.alive.fetch_sub(1, Ordering::Relaxed);

        let mut st = self.state.lock().unwrap();
        let crashes_for_key = {
            let n = st.key_crashes.entry(job.key.clone()).or_insert(0);
            *n += 1;
            *n
        };
        let failures = match &st.slots[idx] {
            Slot::Dead { failures, .. } => *failures + 1,
            _ => 1,
        };
        let delay = backoff_delay(self.config.backoff_base, self.config.backoff_max, failures);
        st.slots[idx] = Slot::Dead { retry_at: Instant::now() + delay, failures };
        drop(st);
        self.cv.notify_all();

        let cause = match (cause_hint, signal) {
            ("wallclock" | "rss" | "spawn", _) => cause_hint,
            (_, Some(_)) => "signal",
            _ => "exit",
        };
        let report = CrashReport { cause, signal, exit_code, stderr_tail, crashes_for_key };
        let mut crashes = self.counters.crashes.lock().unwrap();
        *crashes.entry(report.metric_cause()).or_insert(0) += 1;
        drop(crashes);
        DispatchOutcome::Crashed(report)
    }

    /// A dispatch abandoned by cancellation killed its worker; recycle
    /// the slot without charging anyone.
    fn reap_cancelled(&self, idx: usize, mut proc_: WorkerProc) {
        let _ = wait_reap(&mut proc_.child, Duration::from_secs(2));
        self.counters.alive.fetch_sub(1, Ordering::Relaxed);
        let mut st = self.state.lock().unwrap();
        st.slots[idx] = Slot::Dead { retry_at: Instant::now(), failures: 0 };
        drop(st);
        self.cv.notify_all();
    }
}

/// Exponential backoff with a cap: `base * 2^(failures-1)`, saturating.
fn backoff_delay(base: Duration, max: Duration, failures: u32) -> Duration {
    let shift = failures.saturating_sub(1).min(16);
    base.saturating_mul(1u32 << shift).min(max)
}

/// `try_wait` with a bounded grace for the exit status to land.
fn wait_reap(child: &mut Child, grace: Duration) -> Option<std::process::ExitStatus> {
    let deadline = Instant::now() + grace;
    loop {
        match child.try_wait() {
            Ok(Some(status)) => return Some(status),
            Ok(None) if Instant::now() < deadline => {
                std::thread::sleep(Duration::from_millis(10));
            }
            _ => return None,
        }
    }
}

/// Spawn one worker subprocess and its stdout/stderr reader threads.
fn spawn_worker(config: &PoolConfig) -> std::io::Result<WorkerProc> {
    let (program, args) = match config.worker_cmd.split_first() {
        Some((p, rest)) => (p.clone(), rest.to_vec()),
        None => {
            let exe = std::env::current_exe()?;
            (exe.to_string_lossy().into_owned(), vec!["worker".to_owned()])
        }
    };
    let mut child = Command::new(&program)
        .args(&args)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()?;
    let pid = child.id();
    let stdin = child.stdin.take().expect("piped stdin");
    let stdout = child.stdout.take().expect("piped stdout");
    let stderr = child.stderr.take().expect("piped stderr");

    let (tx, rx): (Sender<Json>, Receiver<Json>) = std::sync::mpsc::channel();
    std::thread::Builder::new()
        .name(format!("rake-served-worker-{pid}-out"))
        .spawn(move || read_replies(stdout, &tx))
        .expect("spawn worker reader");

    let stderr_tail: Arc<Mutex<VecDeque<String>>> = Arc::new(Mutex::new(VecDeque::new()));
    let tail = Arc::clone(&stderr_tail);
    std::thread::Builder::new()
        .name(format!("rake-served-worker-{pid}-err"))
        .spawn(move || {
            let reader = BufReader::new(stderr);
            for line in reader.lines() {
                let Ok(line) = line else { break };
                let mut tail = tail.lock().unwrap();
                if tail.len() >= 20 {
                    tail.pop_front();
                }
                tail.push_back(line);
            }
        })
        .expect("spawn worker stderr reader");

    Ok(WorkerProc { child, pid, stdin, rx, stderr_tail, next_id: 0, last_used: Instant::now() })
}

/// Worker stdout → parsed reply frames, until EOF. Dropping the sender
/// on exit is the death signal dispatchers listen for.
fn read_replies(stdout: impl Read, tx: &Sender<Json>) {
    let mut reader = BufReader::new(stdout);
    let limits = ParseLimits { max_depth: 64, max_bytes: MAX_FRAME_BYTES };
    while let Ok(Some(payload)) = read_frame(&mut reader) {
        let Ok(text) = String::from_utf8(payload) else { break };
        let Ok(reply) = json::parse_with_limits(&text, limits) else { break };
        if tx.send(reply).is_err() {
            break;
        }
    }
}

/// Re-publish the worker-side spans a reply carries into this process's
/// trace ring, so the request's export sees one stitched tree. Worker
/// span IDs are pid-seeded and cannot collide with ours; timestamps were
/// already aligned to our clock worker-side. Names arrive as strings and
/// are interned (a bounded leak: the span vocabulary is finite).
fn ingest_reply_spans(reply: &Json) {
    if !trace::enabled() {
        return;
    }
    let Some(spans) = reply.get("spans").and_then(Json::as_arr) else { return };
    for s in spans {
        let id = |k: &str| s.get(k).and_then(Json::as_str).and_then(trace::parse_id);
        let num = |k: &str| s.get(k).and_then(Json::as_i64).map_or(0, |n| n.max(0) as u64);
        let (Some(trace_id), Some(span_id)) = (id("trace"), id("span")) else { continue };
        let mut args = Vec::new();
        if let Some(Json::Obj(fields)) = s.get("args") {
            for (k, v) in fields {
                let key = trace::intern(k);
                match v {
                    Json::Str(t) => args.push((key, trace::ArgValue::Str(t.clone()))),
                    Json::Bool(b) => args.push((key, trace::ArgValue::Bool(*b))),
                    Json::Num(_) => {
                        if let Some(n) = v.as_i64() {
                            args.push((key, trace::ArgValue::I64(n)));
                        }
                    }
                    _ => {}
                }
            }
        }
        trace::submit(trace::SpanRecord {
            seq: num("seq"),
            trace_id,
            span_id,
            parent_id: id("parent").unwrap_or(0),
            name: trace::intern(s.get("name").and_then(Json::as_str).unwrap_or("worker.span")),
            cat: trace::intern(s.get("cat").and_then(Json::as_str).unwrap_or("worker")),
            start_us: num("start_us"),
            dur_us: num("dur_us"),
            pid: num("pid") as u32,
            args,
        });
    }
}

fn parse_reply(reply: &Json) -> DispatchOutcome {
    match reply.get("status").and_then(Json::as_str) {
        Some("compiled") => {
            let uber = reply.get("uber").and_then(Json::as_str).unwrap_or("").to_owned();
            let hvx = reply.get("hvx").and_then(Json::as_str).unwrap_or("").to_owned();
            let stats = reply.get("stats");
            let count = |name: &str| {
                stats
                    .and_then(|s| s.get(name))
                    .and_then(Json::as_i64)
                    .map_or(0, |n| n.max(0) as u64)
            };
            DispatchOutcome::Compiled(Box::new(WorkerArtifacts {
                uber,
                hvx,
                stats: synth::SynthStats {
                    lifting_queries: count("lifting_queries"),
                    sketching_queries: count("sketching_queries"),
                    swizzling_queries: count("swizzling_queries"),
                    smt_queries: count("smt_queries"),
                    proof_cache_hits: count("proof_cache_hits"),
                    env_cache_hits: count("env_cache_hits"),
                    deadline_exceeded: stats
                        .and_then(|s| s.get("deadline_exceeded"))
                        .and_then(Json::as_bool)
                        .unwrap_or(false),
                    ..synth::SynthStats::default()
                },
            }))
        }
        Some("error") => DispatchOutcome::Error(
            reply.get("error").and_then(Json::as_str).unwrap_or("lower_failed").to_owned(),
        ),
        Some("panicked") => DispatchOutcome::Panicked(
            reply.get("detail").and_then(Json::as_str).unwrap_or("worker panic").to_owned(),
        ),
        other => DispatchOutcome::Panicked(format!("unintelligible worker reply ({other:?})")),
    }
}

/// Resident-set size of a pid in bytes, from `/proc/<pid>/statm`
/// (resident pages × 4096). `None` off-Linux or once the pid is gone.
fn rss_bytes(pid: u32) -> Option<u64> {
    let statm = std::fs::read_to_string(format!("/proc/{pid}/statm")).ok()?;
    let resident_pages: u64 = statm.split_whitespace().nth(1)?.parse().ok()?;
    Some(resident_pages * 4096)
}

/// The supervision loop: reap, respawn (with storm accounting), police
/// RSS, heartbeat idle workers. Exits when the pool shuts down.
fn monitor_loop(pool: &Arc<WorkerPool>) {
    loop {
        std::thread::sleep(Duration::from_millis(150));
        let mut st = pool.state.lock().unwrap();
        if st.shutting_down {
            return;
        }
        let now = Instant::now();

        // Storm accounting first: prune the window, maybe close the
        // breaker again.
        while st.respawns.front().is_some_and(|t| now - *t > pool.config.storm_window) {
            st.respawns.pop_front();
        }
        if st.storm_open_until.is_some_and(|until| now >= until) {
            st.storm_open_until = None;
            st.respawns.clear();
        }
        let breaker_open = st.storm_open_until.is_some();

        for idx in 0..st.slots.len() {
            // Idle: reap between-jobs deaths, police RSS, heartbeat.
            // (Scoped borrow of the slot; the Dead reassignment happens
            // after it ends.)
            let mut idle_died = false;
            if let Slot::Idle(proc_) = &mut st.slots[idx] {
                if proc_.child.try_wait().ok().flatten().is_some() {
                    idle_died = true;
                } else {
                    if let (Some(limit), Some(rss)) =
                        (pool.config.rss_limit_bytes, rss_bytes(proc_.pid))
                    {
                        pool.counters.rss_high_water.fetch_max(rss, Ordering::Relaxed);
                        if rss > limit {
                            sys::kill_pid(proc_.pid, sys::SIGKILL);
                            // Reaped as an idle death on the next tick.
                            continue;
                        }
                    }
                    // Heartbeat: an idle worker whose pipe rejects a ping
                    // is dead pipe-wise; the reaper collects it next tick.
                    if now.duration_since(proc_.last_used) >= pool.config.heartbeat {
                        proc_.last_used = now;
                        proc_.next_id += 1;
                        let ping = Json::obj([("id", proc_.next_id.into()), ("op", "ping".into())]);
                        let _ = write_frame(&mut proc_.stdin, &ping.to_string());
                    }
                    continue;
                }
            }
            if idle_died {
                pool.counters.alive.fetch_sub(1, Ordering::Relaxed);
                let mut crashes = pool.counters.crashes.lock().unwrap();
                *crashes.entry("idle_exit".to_owned()).or_insert(0) += 1;
                drop(crashes);
                st.slots[idx] =
                    Slot::Dead { retry_at: now + pool.config.backoff_base, failures: 1 };
                continue;
            }

            if let Slot::Busy { pid, kill_at, killed } = &mut st.slots[idx] {
                let pid = *pid;
                if now >= *kill_at && killed.is_none() {
                    *killed = Some("wallclock");
                    sys::kill_pid(pid, sys::SIGKILL);
                } else if let (Some(limit), Some(rss)) =
                    (pool.config.rss_limit_bytes, rss_bytes(pid))
                {
                    pool.counters.rss_high_water.fetch_max(rss, Ordering::Relaxed);
                    if rss > limit && killed.is_none() {
                        *killed = Some("rss");
                        sys::kill_pid(pid, sys::SIGKILL);
                    }
                }
                continue;
            }

            let (retry_at, failures) = match &st.slots[idx] {
                Slot::Dead { retry_at, failures } => (*retry_at, *failures),
                _ => continue,
            };
            if breaker_open || now < retry_at {
                continue;
            }
            if st.respawns.len() as u32 >= pool.config.storm_limit {
                st.storm_open_until = Some(now + pool.config.storm_cooldown);
                eprintln!(
                    "rake-served: worker restart storm ({} respawns in {:?}); breaker open for {:?}",
                    st.respawns.len(),
                    pool.config.storm_window,
                    pool.config.storm_cooldown,
                );
                continue;
            }
            match spawn_worker(&pool.config) {
                Ok(proc_) => {
                    st.respawns.push_back(now);
                    pool.counters.restarts.fetch_add(1, Ordering::Relaxed);
                    pool.counters.alive.fetch_add(1, Ordering::Relaxed);
                    st.slots[idx] = Slot::Idle(Box::new(proc_));
                    pool.cv.notify_one();
                }
                Err(e) => {
                    eprintln!("rake-served: worker respawn failed: {e}");
                    let mut crashes = pool.counters.crashes.lock().unwrap();
                    *crashes.entry("spawn".to_owned()).or_insert(0) += 1;
                    drop(crashes);
                    let failures = failures + 1;
                    st.slots[idx] = Slot::Dead {
                        retry_at: now
                            + backoff_delay(
                                pool.config.backoff_base,
                                pool.config.backoff_max,
                                failures,
                            ),
                        failures,
                    };
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_doubles_and_caps() {
        let base = Duration::from_millis(50);
        let max = Duration::from_secs(5);
        assert_eq!(backoff_delay(base, max, 1), Duration::from_millis(50));
        assert_eq!(backoff_delay(base, max, 2), Duration::from_millis(100));
        assert_eq!(backoff_delay(base, max, 4), Duration::from_millis(400));
        assert_eq!(backoff_delay(base, max, 30), max, "cap holds for huge failure counts");
    }

    #[test]
    fn crash_report_labels_and_summaries() {
        let sig = CrashReport {
            cause: "signal",
            signal: Some(9),
            exit_code: None,
            stderr_tail: String::new(),
            crashes_for_key: 1,
        };
        assert_eq!(sig.metric_cause(), "signal_9");
        assert_eq!(sig.summary(), "killed by signal 9");
        let rss = CrashReport { cause: "rss", ..sig.clone() };
        assert_eq!(rss.metric_cause(), "rss");
        assert_eq!(rss.summary(), "exceeded the RSS limit");
        let exit = CrashReport { cause: "exit", signal: None, exit_code: Some(2), ..sig.clone() };
        assert_eq!(exit.metric_cause(), "exit_2");
        assert_eq!(exit.summary(), "exited with code 2");
    }

    #[test]
    fn reply_parsing_covers_all_statuses() {
        let compiled = json::parse(
            r#"{"id":1,"status":"compiled","uber":"(u)","hvx":"(h)","stats":{"smt_queries":3}}"#,
        )
        .unwrap();
        let DispatchOutcome::Compiled(art) = parse_reply(&compiled) else {
            panic!("compiled reply must parse as Compiled")
        };
        assert_eq!(art.uber, "(u)");
        assert_eq!(art.hvx, "(h)");
        assert_eq!(art.stats.smt_queries, 3);

        let err = json::parse(r#"{"id":2,"status":"error","error":"not_qualifying"}"#).unwrap();
        assert!(matches!(parse_reply(&err), DispatchOutcome::Error(e) if e == "not_qualifying"));
        let pan = json::parse(r#"{"id":3,"status":"panicked","detail":"boom"}"#).unwrap();
        assert!(matches!(parse_reply(&pan), DispatchOutcome::Panicked(d) if d == "boom"));
        let junk = json::parse(r#"{"id":4}"#).unwrap();
        assert!(matches!(parse_reply(&junk), DispatchOutcome::Panicked(_)));
    }

    #[test]
    fn dead_pool_without_breaker_reports_unavailable_on_deadline() {
        // A pool whose worker command cannot spawn: every slot stays
        // Dead; a dispatch with an immediate deadline fails fast as
        // Unavailable rather than hanging.
        let pool = WorkerPool::start(PoolConfig {
            workers: 1,
            worker_cmd: vec!["/nonexistent/rake-worker-binary".to_owned()],
            backoff_base: Duration::from_millis(10),
            ..PoolConfig::default()
        });
        let job = WorkerJob {
            key: "k".to_owned(),
            expr: "(x)".to_owned(),
            lanes: 8,
            deadline: Some(Instant::now() + Duration::from_millis(200)),
            fault: None,
        };
        let outcome = pool.dispatch(&job, None);
        assert!(
            matches!(outcome, DispatchOutcome::Unavailable(_)),
            "got {outcome:?} from a pool that cannot spawn workers"
        );
        pool.shutdown();
    }
}

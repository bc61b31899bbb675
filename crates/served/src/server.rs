//! The compilation server: accept loop, admission control, request
//! routing, and the `/compile` pipeline over [`driver::Driver`].
//!
//! ## Architecture
//!
//! One thread per connection (requests are seconds-long synthesis runs;
//! connection counts are small), with three shared structures behind
//! `Arc`: the content-addressed [`SynthCache`], the [`Metrics`] registry,
//! and the admission [`Gate`]. Each `/compile` request builds a
//! short-lived [`driver::Driver`] around a fresh [`rake::Rake`] for its
//! lane width and hands it the shared cache plus an event sink into the
//! registry. Every compilation verifies against a cold memo of its own,
//! so no synthesis state outlives a request except the synthesis cache
//! and the verifier's process-global SMT proof cache.
//!
//! ## Admission
//!
//! A fixed number of compile permits bounds concurrent synthesis; a
//! bounded wait queue sits in front of the permits, and everything past
//! it is answered `429 Too Many Requests` with `Retry-After`. Synthesis
//! is serial within a job, so a request runs at most four jobs at once
//! (its driver's workers, the connection's own thread among them), and the
//! permits bound how many requests run at once. A one-expression request
//! spawns no thread.
//!
//! ## Cancellation
//!
//! While a cold compile runs, a monitor thread `peek`s the connection
//! every 15 ms (`DISCONNECT_POLL`); when the client vanishes, it raises the
//! request's [`synth::cancel`] flag and the synthesis stops at its next
//! deadline-check point, freeing the permit for the next request. Between
//! peeks the monitor waits on a channel the handler closes the moment the
//! batch returns, so joining it costs microseconds, not the rest of a poll
//! interval. Its peeks are non-blocking, and the socket's clones share one
//! open file description, so the monitor restores blocking mode before it
//! returns and the handler writes the response only after the join.
//!
//! ## Shutdown
//!
//! The accept thread blocks in `accept`. [`ServerHandle::shutdown`] sets
//! the draining flag and wakes it with a loopback connection; any
//! connection accepted once draining is set is dropped unanswered. A
//! connection idling between requests waits for the next one in
//! `IDLE_POLL` slices and closes at the first slice after draining starts,
//! so an idle keep-alive client does not hold shutdown for its
//! `drain_timeout`.

use std::collections::HashSet;
use std::io::{self, BufReader, ErrorKind};
use std::net::{Ipv4Addr, Ipv6Addr, SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::mpsc::{self, RecvTimeoutError};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use driver::cache::SynthCache;
use driver::event::DriverEvent;
use driver::json::{self, Json, ParseLimits};
use driver::{CacheLimits, Driver, DriverConfig, JobOutcome, Journal, Prepared};
use halide_ir::Expr;
use hvx::SlotBudget;
use rake::{CompileError, Compiled, Rake, Target};

use crate::http::{read_request_deadline, ReadError, Request, Response};
use crate::metrics::{CacheSnapshot, Endpoint, Metrics};
use crate::supervisor::{DispatchOutcome, PoolConfig, WorkerJob, WorkerPool};

/// Hard cap on expressions per `/compile` request.
pub const MAX_EXPRS_PER_REQUEST: usize = 64;

/// How often the disconnect monitor peeks a cold request's connection: a
/// client that vanishes mid-compile has its synthesis cancelled within one
/// interval.
const DISCONNECT_POLL: Duration = Duration::from_millis(15);

/// How often a connection idling between requests checks for shutdown:
/// `shutdown` waits for open connections, so an idle keep-alive client is
/// let go within one interval instead of at the end of `drain_timeout`.
const IDLE_POLL: Duration = Duration::from_millis(50);

/// Server configuration.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Bind address; port 0 picks an ephemeral port (see
    /// [`ServerHandle::addr`]).
    pub addr: String,
    /// Concurrent compile permits (requests synthesizing at once).
    pub permits: usize,
    /// Admission queue slots in front of the permits; a request arriving
    /// with the queue full is answered 429 immediately.
    pub queue_slots: usize,
    /// How long a queued request waits for a permit before giving up
    /// with 429.
    pub queue_wait: Duration,
    /// `Content-Length` cap; larger requests are answered 413.
    pub max_body_bytes: usize,
    /// Default per-job synthesis budget when the request does not send
    /// `timeout_ms`.
    pub default_timeout: Option<Duration>,
    /// Hard ceiling on the per-request `timeout_ms` knob.
    pub max_timeout: Duration,
    /// Directory for the persistent synthesis cache (also the warm-start
    /// source after a restart). `None` keeps the cache in memory.
    pub cache_dir: Option<PathBuf>,
    /// In-memory synthesis-cache entry cap (cost-aware LRU eviction past
    /// it). `None` is unbounded.
    pub cache_max_entries: Option<usize>,
    /// In-memory synthesis-cache byte cap, measured over serialized entry
    /// sizes. `None` is unbounded.
    pub cache_max_bytes: Option<usize>,
    /// Size threshold on the cache's append-only segment log; a persist
    /// that leaves the log above it folds log + snapshot into a fresh
    /// snapshot.
    pub cache_log_compact_bytes: u64,
    /// JSONL event journal: telemetry only, since a restart recovers from
    /// `cache_dir`. `None` disables journaling. One [`driver::Journal`]
    /// handle is shared by every request, so a roll-over never renames
    /// the file out from under another writer.
    pub log_path: Option<PathBuf>,
    /// Roll the shared journal over to `<log_path>.1`, replacing the
    /// previous one, once it exceeds this many bytes. `None` never rolls
    /// over.
    pub journal_rotate_bytes: Option<u64>,
    /// Per-connection idle read timeout.
    pub idle_timeout: Duration,
    /// Slow-loris guard: once a request's first byte arrives, the whole
    /// request (line + headers + body) must land within this window or
    /// the connection is answered 408. `None` disables the deadline
    /// (the idle timeout still bounds fully-silent peers).
    pub read_timeout: Option<Duration>,
    /// How long [`ServerHandle::shutdown`] waits for in-flight work.
    pub drain_timeout: Duration,
    /// Run synthesis in isolated worker subprocesses ([`WorkerPool`])
    /// instead of in-process. Worker deaths then fail only their own
    /// jobs.
    pub isolate: bool,
    /// Worker subprocesses to pre-fork under `isolate`; zero means "as
    /// many as `permits`".
    pub pool_workers: usize,
    /// Program + args to exec per worker; `None` re-execs the server's
    /// own binary in hidden `worker` mode. (Tests override this because
    /// `current_exe` is the test harness there.)
    pub worker_cmd: Option<Vec<String>>,
    /// Per-worker resident-set cap, enforced by the supervisor with
    /// SIGKILL. `None` disables the check.
    pub worker_rss_limit: Option<u64>,
    /// Grace past a job's deadline before the supervisor kills its
    /// worker.
    pub worker_grace: Duration,
    /// Worker crashes a single key may cause before it is quarantined as
    /// a poison pill.
    pub crash_threshold: u32,
    /// How long a quarantined key stays poisoned; `None` is forever.
    pub quarantine_ttl: Option<Duration>,
    /// Accept the per-request `chaos` field (fault injection inside
    /// workers; `sleep:<ms>` also applies without `--isolate`).
    /// Test/benchmark plumbing; off by default.
    pub chaos: bool,
    /// Directory for per-request Chrome trace-event exports
    /// (`trace-<id>.json`, schema `rake-trace-v1`). Setting it turns the
    /// tracer on; every `/compile` response then echoes its `trace_id`.
    pub trace_out: Option<PathBuf>,
    /// Slow-span threshold in milliseconds: spans at or over it are
    /// logged to stderr after each request. Setting it turns the tracer
    /// on even without `trace_out`.
    pub trace_slow_ms: Option<u64>,
}

impl Default for ServerConfig {
    fn default() -> ServerConfig {
        let cores = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(2);
        ServerConfig {
            addr: "127.0.0.1:8347".to_owned(),
            permits: cores.clamp(1, 4),
            queue_slots: 16,
            queue_wait: Duration::from_secs(5),
            max_body_bytes: 256 * 1024,
            default_timeout: Some(Duration::from_secs(30)),
            max_timeout: Duration::from_secs(600),
            cache_dir: None,
            cache_max_entries: None,
            cache_max_bytes: None,
            cache_log_compact_bytes: CacheLimits::default().log_compact_bytes,
            log_path: None,
            journal_rotate_bytes: Some(8 * 1024 * 1024),
            idle_timeout: Duration::from_secs(60),
            read_timeout: Some(Duration::from_secs(10)),
            drain_timeout: Duration::from_secs(30),
            isolate: false,
            pool_workers: 0,
            worker_cmd: None,
            worker_rss_limit: Some(4 * 1024 * 1024 * 1024),
            worker_grace: Duration::from_secs(5),
            crash_threshold: 2,
            quarantine_ttl: Some(Duration::from_secs(3600)),
            chaos: false,
            trace_out: None,
            trace_slow_ms: None,
        }
    }
}

/// Admission outcome.
enum Admission {
    /// A permit, released on drop.
    Granted(Permit),
    /// Queue full or permit wait timed out.
    Busy,
}

/// Compile-permit gate: `permits` concurrent holders, at most
/// `queue_slots` waiters.
struct Gate {
    state: Mutex<GateState>,
    cv: Condvar,
    permits: usize,
    queue_slots: usize,
    queue_wait: Duration,
}

struct GateState {
    active: usize,
    waiting: usize,
}

impl Gate {
    fn new(permits: usize, queue_slots: usize, queue_wait: Duration) -> Gate {
        Gate {
            state: Mutex::new(GateState { active: 0, waiting: 0 }),
            cv: Condvar::new(),
            permits: permits.max(1),
            queue_slots,
            queue_wait,
        }
    }

    fn acquire(self: &Arc<Gate>, metrics: &Metrics) -> Admission {
        let mut st = self.state.lock().unwrap();
        if st.active < self.permits {
            st.active += 1;
            return Admission::Granted(Permit { gate: Arc::clone(self) });
        }
        if st.waiting >= self.queue_slots {
            return Admission::Busy;
        }
        st.waiting += 1;
        metrics.queue_changed(1);
        let deadline = Instant::now() + self.queue_wait;
        loop {
            let now = Instant::now();
            if st.active < self.permits {
                st.waiting -= 1;
                metrics.queue_changed(-1);
                st.active += 1;
                return Admission::Granted(Permit { gate: Arc::clone(self) });
            }
            if now >= deadline {
                st.waiting -= 1;
                metrics.queue_changed(-1);
                return Admission::Busy;
            }
            let (guard, _) = self.cv.wait_timeout(st, deadline - now).unwrap();
            st = guard;
        }
    }
}

/// RAII compile permit.
struct Permit {
    gate: Arc<Gate>,
}

impl Drop for Permit {
    fn drop(&mut self) {
        let mut st = self.gate.state.lock().unwrap();
        st.active -= 1;
        drop(st);
        self.gate.cv.notify_one();
    }
}

/// Cross-request single-flight registry: at most one request compiles a
/// given cache key at a time; later arrivals wait, then hit the cache.
#[derive(Default)]
struct InFlight {
    keys: Mutex<HashSet<String>>,
    cv: Condvar,
}

impl InFlight {
    /// Block until none of `keys` is being compiled elsewhere, then claim
    /// them. Callers MUST hold a compile permit (so a claim-holder always
    /// makes progress) and must call [`InFlight::release`] afterwards.
    fn claim(&self, keys: &[String]) {
        let mut held = self.keys.lock().unwrap();
        loop {
            if keys.iter().all(|k| !held.contains(k)) {
                for k in keys {
                    held.insert(k.clone());
                }
                return;
            }
            held = self.cv.wait(held).unwrap();
        }
    }

    fn release(&self, keys: &[String]) {
        let mut held = self.keys.lock().unwrap();
        for k in keys {
            held.remove(k);
        }
        drop(held);
        self.cv.notify_all();
    }
}

/// State shared by every connection thread.
struct Shared {
    config: ServerConfig,
    cache: Arc<SynthCache>,
    /// The one journal handle every request appends through (a roll-over
    /// assumes a single writer). `None` when journaling is disabled.
    journal: Option<Arc<Journal>>,
    metrics: Arc<Metrics>,
    gate: Arc<Gate>,
    inflight: InFlight,
    /// The isolated worker pool; `Some` only under `--isolate`.
    pool: Option<Arc<WorkerPool>>,
    draining: AtomicBool,
    connections: AtomicUsize,
    started: Instant,
}

/// The selector for a request's lane width, with the register width in
/// bytes tracking the lane count between 8 and 128. The isolated workers
/// build theirs the same way, and responses report costs at its
/// geometry.
pub(crate) fn base_rake(lanes: usize) -> Rake {
    let vec_bytes = 128.min(lanes.max(8));
    Rake::new(Target { lanes, vec_bytes })
}

impl Shared {
    fn cache_snapshot(&self) -> CacheSnapshot {
        let stats = self.cache.stats();
        let (snapshot_bytes, log_bytes) = self.cache.disk_bytes();
        CacheSnapshot {
            hits: stats.hits,
            misses: stats.misses,
            entries: self.cache.len(),
            mem_bytes: self.cache.total_bytes(),
            loaded: stats.loaded,
            evicted: stats.evicted,
            appended: stats.appended,
            compactions: stats.compactions,
            snapshot_bytes,
            log_bytes,
            journal_bytes: self.journal.as_ref().map_or(0, |j| j.bytes()),
            journal_rotations: self.journal.as_ref().map_or(0, |j| j.rotations()),
            quarantined: self.cache.quarantined_count(),
        }
    }
}

/// A running server. Dropping the handle does NOT stop the server; call
/// [`ServerHandle::shutdown`].
pub struct ServerHandle {
    addr: SocketAddr,
    shared: Arc<Shared>,
    accept_join: Option<JoinHandle<()>>,
}

impl ServerHandle {
    /// The bound address (resolves port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The metrics registry (shared with every connection).
    pub fn metrics(&self) -> Arc<Metrics> {
        Arc::clone(&self.shared.metrics)
    }

    /// The shared synthesis cache.
    pub fn cache(&self) -> Arc<SynthCache> {
        Arc::clone(&self.shared.cache)
    }

    /// Live worker pids under `--isolate` (tests kill these to prove
    /// containment); empty in-process.
    pub fn worker_pids(&self) -> Vec<u32> {
        self.shared.pool.as_ref().map(|p| p.worker_pids()).unwrap_or_default()
    }

    /// Pids of workers currently executing a job; empty in-process.
    /// Lets tests wait for a dispatch to land instead of sleeping.
    pub fn busy_workers(&self) -> Vec<u32> {
        self.shared.pool.as_ref().map(|p| p.busy_workers()).unwrap_or_default()
    }

    /// Graceful drain: stop accepting, let in-flight requests finish (up
    /// to [`ServerConfig::drain_timeout`]), persist the cache, return.
    pub fn shutdown(mut self) {
        self.shared.draining.store(true, Ordering::SeqCst);
        if let Some(join) = self.accept_join.take() {
            // The accept thread is blocked in `accept`: one loopback
            // connection wakes it to see `draining`. Should that connect
            // fail, the thread is left blocked rather than joined forever.
            let mut wake = self.addr;
            if wake.ip().is_unspecified() {
                wake.set_ip(if wake.is_ipv4() {
                    Ipv4Addr::LOCALHOST.into()
                } else {
                    Ipv6Addr::LOCALHOST.into()
                });
            }
            match TcpStream::connect_timeout(&wake, Duration::from_secs(1)) {
                Ok(_) => {
                    let _ = join.join();
                }
                Err(err) => eprintln!("rake-served: cannot wake the accept thread: {err}"),
            }
        }
        let deadline = Instant::now() + self.shared.config.drain_timeout;
        while self.shared.connections.load(Ordering::SeqCst) > 0 && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(10));
        }
        if let Some(pool) = &self.shared.pool {
            pool.shutdown();
        }
        if let Err(err) = self.shared.cache.persist() {
            eprintln!("rake-served: cache persist on shutdown failed: {err}");
        }
    }
}

/// Bind and start serving on background threads; returns immediately.
///
/// # Errors
///
/// Propagates bind/listen failures.
pub fn serve(config: ServerConfig) -> io::Result<ServerHandle> {
    let listener = TcpListener::bind(&config.addr)?;
    let addr = listener.local_addr()?;

    if config.trace_out.is_some() || config.trace_slow_ms.is_some() {
        trace::enable();
        if let Some(ms) = config.trace_slow_ms {
            trace::set_slow_threshold_us(ms.saturating_mul(1000));
        }
        if let Some(dir) = &config.trace_out {
            std::fs::create_dir_all(dir)?;
        }
    }
    let limits = CacheLimits {
        max_entries: config.cache_max_entries,
        max_bytes: config.cache_max_bytes,
        log_compact_bytes: config.cache_log_compact_bytes,
    };
    let cache = Arc::new(match &config.cache_dir {
        Some(dir) => SynthCache::bounded(dir, limits),
        None => SynthCache::in_memory_bounded(limits),
    });
    let journal = match &config.log_path {
        Some(path) => Some(Arc::new(Journal::open(path, config.journal_rotate_bytes)?)),
        None => None,
    };
    let gate = Arc::new(Gate::new(config.permits, config.queue_slots, config.queue_wait));
    let pool = config.isolate.then(|| {
        let workers = if config.pool_workers == 0 { config.permits } else { config.pool_workers };
        WorkerPool::start(PoolConfig {
            workers: workers.max(1),
            worker_cmd: config.worker_cmd.clone().unwrap_or_default(),
            rss_limit_bytes: config.worker_rss_limit,
            job_grace: config.worker_grace,
            // Give jobs without a deadline the max budget plus slack.
            max_job_wall: config.max_timeout + Duration::from_secs(60),
            ..PoolConfig::default()
        })
    });
    let shared = Arc::new(Shared {
        config,
        cache,
        journal,
        metrics: Metrics::new(),
        gate,
        inflight: InFlight::default(),
        pool,
        draining: AtomicBool::new(false),
        connections: AtomicUsize::new(0),
        started: Instant::now(),
    });

    let accept_shared = Arc::clone(&shared);
    let accept_join = std::thread::Builder::new()
        .name("rake-served-accept".to_owned())
        .spawn(move || accept_loop(&listener, &accept_shared))
        .expect("spawn accept thread");

    Ok(ServerHandle { addr, shared, accept_join: Some(accept_join) })
}

fn accept_loop(listener: &TcpListener, shared: &Arc<Shared>) {
    loop {
        let accepted = listener.accept();
        // Once draining, whatever was accepted (the shutdown's wake-up or
        // a late client) is dropped unanswered.
        if shared.draining.load(Ordering::SeqCst) {
            return;
        }
        match accepted {
            Ok((stream, _peer)) => {
                // Responses are latency-sensitive and written whole;
                // never let Nagle hold them for a delayed ACK.
                stream.set_nodelay(true).ok();
                let shared = Arc::clone(shared);
                shared.connections.fetch_add(1, Ordering::SeqCst);
                let result = std::thread::Builder::new().name("rake-served-conn".to_owned()).spawn(
                    move || {
                        handle_connection(&shared, stream);
                        shared.connections.fetch_sub(1, Ordering::SeqCst);
                    },
                );
                if result.is_err() {
                    eprintln!("rake-served: failed to spawn connection thread");
                }
            }
            Err(e) => {
                eprintln!("rake-served: accept failed: {e}");
                std::thread::sleep(Duration::from_millis(100));
            }
        }
    }
}

fn handle_connection(shared: &Arc<Shared>, stream: TcpStream) {
    use std::io::BufRead;
    let Ok(read_half) = stream.try_clone() else { return };
    let mut reader = BufReader::new(read_half);
    let mut write_half = stream;
    loop {
        if shared.draining.load(Ordering::SeqCst) {
            return;
        }
        // Await the request's first byte under the idle timeout, in
        // `IDLE_POLL` slices so that an idle keep-alive peer does not hold
        // up `shutdown` (the slow-loris deadline below shortens the socket
        // timeout, so restore it each loop), then arm that deadline:
        // a peer may idle *between* requests, but once it starts one it
        // must deliver line + headers + body within `read_timeout` or
        // the connection is answered 408.
        let idle_deadline = Instant::now() + shared.config.idle_timeout;
        let _ = write_half.set_read_timeout(Some(IDLE_POLL.min(shared.config.idle_timeout)));
        loop {
            match reader.fill_buf() {
                Ok([]) => return, // EOF between requests
                Ok(_) => break,
                // An idle poll interval passed.
                Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {}
                Err(_) => return, // reset
            }
            if shared.draining.load(Ordering::SeqCst) || Instant::now() >= idle_deadline {
                return;
            }
        }
        // Per-read socket timeout of the deadline's order, so a peer that
        // goes fully silent mid-request cannot pin the thread past the
        // deadline (read_request_deadline maps the stall to 408). With no
        // deadline, the idle timeout bounds each read instead of the poll
        // slice.
        let per_read = shared.config.read_timeout.unwrap_or(shared.config.idle_timeout);
        let _ = write_half.set_read_timeout(Some(per_read));
        let deadline = shared.config.read_timeout.map(|t| Instant::now() + t);
        let req = match read_request_deadline(&mut reader, shared.config.max_body_bytes, deadline) {
            Ok(req) => req,
            Err(ReadError::Closed) => return,
            Err(ReadError::Io(_)) => return,
            Err(ReadError::TimedOut) => {
                let resp =
                    Response::text(408, "request did not complete within the read timeout\n");
                shared.metrics.response(resp.status);
                let _ = resp.write_to(&mut write_half, true);
                return;
            }
            Err(ReadError::Malformed(why)) => {
                let resp = Response::text(400, format!("{why}\n"));
                shared.metrics.response(resp.status);
                let _ = resp.write_to(&mut write_half, true);
                return;
            }
            Err(ReadError::BodyTooLarge { declared, limit }) => {
                let resp = Response::text(
                    413,
                    format!("request body {declared} bytes exceeds the {limit}-byte limit\n"),
                );
                shared.metrics.response(resp.status);
                let _ = resp.write_to(&mut write_half, true);
                return;
            }
        };
        let close = req.wants_close() || shared.draining.load(Ordering::SeqCst);
        // One disconnect count per connection, whichever side sees it
        // first: the compile path's monitor (a small response to a
        // vanished peer can be written "successfully") or the response
        // write below (EPIPE mid-response, no monitor running).
        let disconnected = AtomicBool::new(false);
        let resp = route(shared, &req, &write_half, &disconnected);
        shared.metrics.response(resp.status);
        if resp.write_to(&mut write_half, close).is_err() {
            // Rust ignores SIGPIPE before main, so a vanished peer
            // surfaces here as plain EPIPE/ECONNRESET — count it and
            // move on; nothing to log per-connection.
            if !disconnected.swap(true, Ordering::SeqCst) {
                shared.metrics.client_disconnected();
            }
            return;
        }
        if close {
            return;
        }
    }
}

fn route(
    shared: &Arc<Shared>,
    req: &Request,
    stream: &TcpStream,
    disconnected: &AtomicBool,
) -> Response {
    match (req.method.as_str(), req.path.as_str()) {
        ("GET", "/healthz") => {
            shared.metrics.request(Endpoint::Healthz);
            if shared.draining.load(Ordering::SeqCst) {
                Response::text(503, "draining\n")
            } else {
                Response::text(200, "ok\n")
            }
        }
        ("GET", "/metrics") => {
            shared.metrics.request(Endpoint::Metrics);
            let workers = shared.pool.as_ref().map(|p| p.metrics_snapshot());
            let text =
                shared.metrics.render(shared.started, shared.cache_snapshot(), workers.as_ref());
            Response {
                status: 200,
                headers: Vec::new(),
                content_type: "text/plain; version=0.0.4; charset=utf-8",
                body: text.into_bytes(),
            }
        }
        ("POST", "/compile") => {
            shared.metrics.request(Endpoint::Compile);
            handle_compile(shared, req, stream, disconnected)
        }
        (_, "/compile") | (_, "/healthz") | (_, "/metrics") => {
            shared.metrics.request(Endpoint::Other);
            Response::text(405, "method not allowed\n")
        }
        _ => {
            shared.metrics.request(Endpoint::Other);
            Response::text(404, "unknown path\n")
        }
    }
}

/// Per-request knobs decoded from the `/compile` body.
struct CompileRequest {
    exprs: Vec<Expr>,
    lanes: usize,
    timeout: Option<Duration>,
    validate: bool,
    /// Chaos fault to inject worker-side (`abort` / `oom` /
    /// `sleep:<ms>`; only the sleep applies in-process); only accepted
    /// when the server runs `--chaos`.
    fault: Option<String>,
}

fn bad(msg: impl Into<String>) -> Response {
    let msg = msg.into();
    Response::json(400, &Json::obj([("error", msg.into())]))
}

fn parse_compile_request(shared: &Shared, body: &[u8]) -> Result<CompileRequest, Response> {
    let text = std::str::from_utf8(body).map_err(|_| bad("body is not UTF-8"))?;
    let limits = ParseLimits { max_depth: 64, max_bytes: shared.config.max_body_bytes };
    let doc = json::parse_with_limits(text, limits).map_err(|e| bad(format!("bad JSON: {e}")))?;

    let mut raw: Vec<String> = Vec::new();
    match (doc.get("expr"), doc.get("exprs")) {
        (Some(_), Some(_)) => return Err(bad("send either `expr` or `exprs`, not both")),
        (Some(e), None) => {
            raw.push(e.as_str().ok_or_else(|| bad("`expr` must be a string"))?.to_owned());
        }
        (None, Some(list)) => {
            let items = list.as_arr().ok_or_else(|| bad("`exprs` must be an array"))?;
            for item in items {
                raw.push(
                    item.as_str().ok_or_else(|| bad("`exprs` items must be strings"))?.to_owned(),
                );
            }
        }
        (None, None) => return Err(bad("missing `expr` (string) or `exprs` (array)")),
    }
    if raw.is_empty() {
        return Err(bad("`exprs` is empty"));
    }
    if raw.len() > MAX_EXPRS_PER_REQUEST {
        return Err(bad(format!(
            "{} expressions exceeds the per-request cap of {MAX_EXPRS_PER_REQUEST}",
            raw.len()
        )));
    }

    let mut exprs = Vec::with_capacity(raw.len());
    for (i, s) in raw.iter().enumerate() {
        let expr =
            halide_ir::sexpr::parse(s.trim()).map_err(|e| bad(format!("expression {i}: {e}")))?;
        exprs.push(expr);
    }

    let lanes = match doc.get("lanes") {
        None => 128,
        Some(v) => {
            let n = v.as_i64().ok_or_else(|| bad("`lanes` must be an integer"))?;
            if !(8..=1024).contains(&n) {
                return Err(bad("`lanes` must be between 8 and 1024"));
            }
            n as usize
        }
    };

    let timeout = match doc.get("timeout_ms") {
        None => shared.config.default_timeout,
        Some(v) => {
            let ms = v.as_i64().ok_or_else(|| bad("`timeout_ms` must be an integer"))?;
            if ms <= 0 {
                return Err(bad("`timeout_ms` must be positive"));
            }
            Some(Duration::from_millis(ms as u64).min(shared.config.max_timeout))
        }
    };

    let validate = match doc.get("validate") {
        None => false,
        Some(v) => v.as_bool().ok_or_else(|| bad("`validate` must be a boolean"))?,
    };

    let fault = match doc.get("chaos") {
        None => None,
        Some(_) if !shared.config.chaos => {
            return Err(bad("`chaos` requires the server to run with --chaos"));
        }
        Some(v) => {
            let f = v.as_str().ok_or_else(|| bad("`chaos` must be a string"))?;
            let valid = f == "abort" || f == "oom" || sleep_fault_ms(f).is_some();
            if !valid {
                return Err(bad("`chaos` must be `abort`, `oom`, or `sleep:<ms>`"));
            }
            Some(f.to_owned())
        }
    };

    Ok(CompileRequest { exprs, lanes, timeout, validate, fault })
}

fn handle_compile(
    shared: &Arc<Shared>,
    req: &Request,
    stream: &TcpStream,
    disconnected: &AtomicBool,
) -> Response {
    if !trace::enabled() {
        return handle_compile_inner(shared, req, stream, disconnected, None);
    }
    // One trace per request: the root span covers parse, admission, the
    // driver batch, and response assembly. Worker-subprocess spans join
    // the same trace through the frame protocol.
    let trace_id = trace::new_trace_id();
    let resp = {
        let mut root = trace::span_root("http.request", "served", trace_id);
        let resp = handle_compile_inner(shared, req, stream, disconnected, Some(trace_id));
        root.arg("status", u64::from(resp.status));
        root.arg("body_bytes", req.body.len());
        resp
    };
    export_trace(shared, trace_id);
    resp
}

/// Export one completed request trace: Chrome trace-event JSON into the
/// configured directory, slow spans to stderr. Drains only this trace's
/// records; concurrent requests keep theirs.
fn export_trace(shared: &Shared, trace_id: u64) {
    let records = trace::drain_trace(trace_id);
    if let Some(dir) = &shared.config.trace_out {
        if !records.is_empty() {
            let path = dir.join(format!("trace-{}.json", trace::fmt_id(trace_id)));
            if let Err(err) = std::fs::write(&path, trace::chrome_trace_json(&records)) {
                eprintln!("rake-served: failed to write {}: {err}", path.display());
            }
        }
    }
    if shared.config.trace_slow_ms.is_some() {
        let slow = trace::drain_slow();
        if !slow.is_empty() {
            eprint!("{}", trace::slow_log_lines(&slow));
        }
    }
}

fn handle_compile_inner(
    shared: &Arc<Shared>,
    req: &Request,
    stream: &TcpStream,
    disconnected: &AtomicBool,
    trace_id: Option<u64>,
) -> Response {
    // The reported wall time covers the whole handler: parsing, keys and
    // admission are the server's work too.
    let started = Instant::now();
    if shared.draining.load(Ordering::SeqCst) {
        return Response::text(503, "draining\n");
    }
    let parsed = match parse_compile_request(shared, &req.body) {
        Ok(p) => p,
        Err(resp) => return resp,
    };

    let base = base_rake(parsed.lanes);
    let sleep_ms = parsed.fault.as_deref().and_then(sleep_fault_ms);
    let mut driver = Driver::new(base.clone())
        .with_config(DriverConfig {
            workers: parsed.exprs.len().clamp(1, 4),
            job_timeout: parsed.timeout,
            cache_dir: None,
            log_path: None,
            validate: parsed.validate,
            cancel: None,
            ..DriverConfig::default()
        })
        .with_shared_cache(Arc::clone(&shared.cache))
        .with_event_sink(shared.metrics.sink());
    if let Some(journal) = &shared.journal {
        driver = driver.with_shared_journal(Arc::clone(journal));
    }
    if let Some(pool) = &shared.pool {
        driver = driver.with_compile_fn(isolated_compile_fn(shared, pool, &parsed));
    } else if let Some(ms) = sleep_ms {
        driver = driver.with_compile_fn(sleeping_compile_fn(&base, ms));
    }

    // Each expression is canonicalized once, here: its key serves the
    // warm check and single-flight, and the prepared form goes to the
    // driver as it is.
    let prepared: Vec<Prepared> = parsed.exprs.into_iter().map(|e| driver.prepare(e)).collect();
    let mut keys: Vec<String> = prepared.iter().map(|p| p.key().to_owned()).collect();
    keys.sort();
    keys.dedup();

    // Warm fast path: when every key already has a verdict in the cache,
    // the request costs milliseconds and holds no synthesis threads — so
    // it skips admission control entirely. Permits, queue slots, the
    // cancel slot, and the disconnect monitor all exist to bound and
    // shed *synthesis* work; spending them on cache reads would let slow
    // cold requests queue-block the warm traffic they protect.
    let warm = keys.iter().all(|k| shared.cache.contains(k));
    if !warm {
        // Cold work needs live workers; while the restart-storm breaker
        // is open, fail fast instead of queueing behind a pool that will
        // refuse the dispatch anyway. Warm requests still serve.
        if let Some(pool) = &shared.pool {
            if pool.breaker_open() {
                return Response::json(
                    503,
                    &Json::obj([(
                        "error",
                        "worker pool in restart-storm cooldown; retry later".into(),
                    )]),
                )
                .with_header("retry-after", "2");
            }
        }
    }
    let permit = if warm {
        shared.metrics.warm_path();
        None
    } else {
        match shared.gate.acquire(&shared.metrics) {
            Admission::Granted(p) => Some(p),
            Admission::Busy => {
                shared.metrics.rejected_busy();
                return Response::json(
                    429,
                    &Json::obj([("error", "server at capacity; retry later".into())]),
                )
                .with_header("retry-after", "1");
            }
        }
    };

    shared.metrics.compile_started();
    shared.metrics.exprs_submitted(prepared.len());

    let cancel = if warm {
        None
    } else {
        let cancel = synth::cancel::acquire();
        driver.set_cancel(Some(cancel));
        // Single-flight: claim this request's cache keys so concurrent
        // requests for the same expression run one synthesis, not N.
        shared.inflight.claim(&keys);
        Some(cancel)
    };

    // Watch the connection while we compile; a vanished client raises
    // the cancel flag and the synthesis stops cooperatively.
    let monitor = cancel.and_then(|cancel| DisconnectMonitor::start(stream, cancel));

    let report = driver.compile_prepared(prepared);

    // The monitor is authoritative for mid-compile disconnects: a
    // small response written to a half-closed socket can still
    // "succeed", so the connection loop's EPIPE check alone would
    // undercount. The shared once-flag keeps the two sites from
    // ever counting the same connection twice.
    if monitor.is_some_and(DisconnectMonitor::finish) && !disconnected.swap(true, Ordering::SeqCst)
    {
        shared.metrics.client_disconnected();
    }
    drop(driver);
    if let Some(cancel) = cancel {
        shared.inflight.release(&keys);
        // Contract of `synth::cancel`: the flag outlives every reader;
        // all batch workers have joined once `compile_batch` returns.
        synth::cancel::release(cancel);
    }

    let results: Vec<Json> = report.results.iter().map(|r| render_result(r, &base)).collect();

    let latency = started.elapsed();
    shared.metrics.compile_finished(latency);
    drop(permit);

    // The counters the body prints, and no more: the full snapshot behind
    // `/metrics` also stats two files and scans every entry under the lock
    // that all connections share.
    let stats = shared.cache.stats();
    let mut body: Vec<(String, Json)> = Vec::new();
    if let Some(tid) = trace_id {
        body.push(("trace_id".to_owned(), Json::Str(trace::fmt_id(tid))));
    }
    body.push(("results".to_owned(), Json::Arr(results)));
    body.push(("wall_ms".to_owned(), ((latency.as_secs_f64() * 1e5).round() / 1e2).into()));
    body.push((
        "cache".to_owned(),
        Json::obj([
            ("hits", stats.hits.into()),
            ("misses", stats.misses.into()),
            ("entries", shared.cache.len().into()),
        ]),
    ));
    body.push((
        "memo".to_owned(),
        Json::obj([
            ("lifting_queries", report.stats.lifting_queries.into()),
            ("sketching_queries", report.stats.sketching_queries.into()),
        ]),
    ));
    Response::json(200, &Json::Obj(body))
}

/// The per-job compile function under `--isolate`: ship the expression
/// to a pooled worker subprocess and translate its fate back into the
/// driver's vocabulary.
///
/// Worker *deaths* (and pool unavailability) surface via
/// [`std::panic::resume_unwind`] with a string payload: the driver's
/// existing `catch_unwind` turns that into a structured `panicked`
/// outcome for this job only, without tripping the process panic hook
/// (no log spam) and without widening [`rake::CompileError`]. A key
/// whose crash count crosses the threshold is quarantined in the shared
/// synthesis cache as a poison pill — later requests get a structured
/// `quarantined` outcome straight from the cache, burning no budget.
fn isolated_compile_fn(
    shared: &Arc<Shared>,
    pool: &Arc<WorkerPool>,
    parsed: &CompileRequest,
) -> impl Fn(&Expr, Option<Instant>, Option<synth::CancelFlag>) -> Result<Compiled, CompileError>
       + Send
       + Sync
       + 'static {
    let pool = Arc::clone(pool);
    let cache = Arc::clone(&shared.cache);
    let journal = shared.journal.clone();
    let metrics = Arc::clone(&shared.metrics);
    let key_rake = base_rake(parsed.lanes);
    let lanes = parsed.lanes;
    let fault = parsed.fault.clone();
    let crash_threshold = shared.config.crash_threshold.max(1);
    let quarantine_ttl = shared.config.quarantine_ttl;
    move |e, deadline, cancel| {
        let key = driver::cache_key(&key_rake, e);
        // A key a concurrent request quarantined seconds ago must not be
        // redispatched.
        if let Some(reason) = cache.quarantine_reason(&key) {
            std::panic::resume_unwind(Box::new(format!("poison pill: {reason}")));
        }
        let job = WorkerJob {
            key: key.clone(),
            expr: halide_ir::sexpr::to_sexpr(e),
            lanes,
            deadline,
            fault: fault.clone(),
        };
        match pool.dispatch(&job, cancel) {
            DispatchOutcome::Compiled(art) => {
                match (uber_ir::sexpr::parse(&art.uber), hvx::sexpr::parse(&art.hvx)) {
                    (Ok(uber), Ok(hvx)) => {
                        let program = hvx.to_program();
                        Ok(Compiled {
                            uber,
                            hvx,
                            program,
                            trace: Default::default(),
                            stats: art.stats,
                        })
                    }
                    _ => std::panic::resume_unwind(Box::new(
                        "worker returned unparseable artifacts".to_owned(),
                    )),
                }
            }
            DispatchOutcome::Error(name) => {
                Err(driver::cache::error_from(&name).unwrap_or(CompileError::LowerFailed))
            }
            DispatchOutcome::Panicked(detail) => std::panic::resume_unwind(Box::new(detail)),
            DispatchOutcome::Crashed(report) => {
                if let Some(journal) = &journal {
                    journal.append(&DriverEvent::WorkerCrashed {
                        key: Some(key.clone()),
                        cause: report.cause.to_owned(),
                        signal: report.signal,
                        crashes_for_key: report.crashes_for_key,
                        stderr_tail: report.stderr_tail.clone(),
                    });
                }
                if report.crashes_for_key >= crash_threshold {
                    cache.quarantine(
                        &key,
                        &format!(
                            "worker {} ({} crashes)",
                            report.summary(),
                            report.crashes_for_key
                        ),
                        quarantine_ttl,
                    );
                    metrics.key_quarantined();
                }
                std::panic::resume_unwind(Box::new(format!("worker crashed: {}", report.summary())))
            }
            DispatchOutcome::Unavailable(why) => {
                std::panic::resume_unwind(Box::new(format!("worker pool unavailable: {why}")))
            }
            DispatchOutcome::Cancelled => Err(CompileError::DeadlineExceeded),
        }
    }
}

/// The milliseconds of a `sleep:<ms>` chaos fault.
pub(crate) fn sleep_fault_ms(fault: &str) -> Option<u64> {
    fault.strip_prefix("sleep:").and_then(|ms| ms.parse().ok())
}

/// The in-process path's `sleep:<ms>` chaos fault: each job sleeps before
/// compiling, as an isolated worker does, so a test can hold a permit for
/// a known time. The sleep ends early when the request is cancelled.
fn sleeping_compile_fn(
    rake: &Rake,
    ms: u64,
) -> impl Fn(&Expr, Option<Instant>, Option<synth::CancelFlag>) -> Result<Compiled, CompileError>
       + Send
       + Sync
       + 'static {
    let compile = driver::default_compile_fn(rake);
    move |e, deadline, cancel| {
        let until = Instant::now() + Duration::from_millis(ms);
        while let Some(left) = until.checked_duration_since(Instant::now()) {
            if synth::cancel::cancelled(cancel) {
                return Err(CompileError::DeadlineExceeded);
            }
            std::thread::sleep(left.min(Duration::from_millis(10)));
        }
        compile(e, deadline, cancel)
    }
}

/// Render one per-expression job result as the `/compile` response JSON,
/// with costs at the geometry of the selector that compiled it.
fn render_result(r: &driver::JobResult, rake: &Rake) -> Json {
    let Target { lanes, vec_bytes } = rake.target();
    let mut obj = vec![
        ("outcome".to_owned(), Json::Str(outcome_name(&r.outcome).to_owned())),
        ("cache_hit".to_owned(), r.cache_hit.into()),
        ("key".to_owned(), r.key.as_str().into()),
    ];
    match &r.outcome {
        JobOutcome::Compiled(c) => {
            obj.push(("program".to_owned(), c.program.to_string().into()));
            obj.push(("hvx".to_owned(), hvx::sexpr::to_sexpr(&c.hvx).into()));
            obj.push(("uber".to_owned(), uber_ir::sexpr::to_sexpr(&c.uber).into()));
            let schedule = c.program.schedule(lanes, vec_bytes, SlotBudget::hvx());
            obj.push((
                "cost".to_owned(),
                Json::obj([
                    ("latency_sum", c.program.latency_sum(lanes, vec_bytes).into()),
                    ("load_units", c.program.load_units(lanes, vec_bytes).into()),
                    ("cycles", schedule.cycles.into()),
                ]),
            ));
        }
        JobOutcome::Failed(e) => {
            obj.push(("detail".to_owned(), e.to_string().into()));
        }
        JobOutcome::Panicked(msg) => {
            obj.push(("detail".to_owned(), msg.as_str().into()));
        }
        JobOutcome::Quarantined(reason) => {
            obj.push(("detail".to_owned(), reason.as_str().into()));
        }
        JobOutcome::TimedOut | JobOutcome::Cancelled => {}
    }
    if let Some(p) = &r.fallback {
        obj.push(("fallback".to_owned(), p.to_string().into()));
    }
    if let Some(v) = &r.validation {
        obj.push((
            "validation".to_owned(),
            Json::obj([("checks", v.checks.into()), ("mismatches", v.mismatches.into())]),
        ));
    }
    Json::Obj(obj)
}

fn outcome_name(outcome: &JobOutcome) -> &'static str {
    match outcome {
        JobOutcome::Compiled(_) => "compiled",
        JobOutcome::Failed(_) => "failed",
        JobOutcome::TimedOut => "timed_out",
        JobOutcome::Panicked(_) => "panicked",
        JobOutcome::Cancelled => "cancelled",
        JobOutcome::Quarantined(_) => "quarantined",
    }
}

/// The thread watching a cold request's connection while its batch
/// compiles.
struct DisconnectMonitor {
    /// Dropped by [`DisconnectMonitor::finish`], which ends the monitor's
    /// wait between peeks at once.
    done: mpsc::Sender<()>,
    thread: JoinHandle<bool>,
}

impl DisconnectMonitor {
    /// Start watching `stream`; `None` if the socket cannot be cloned.
    fn start(stream: &TcpStream, cancel: synth::CancelFlag) -> Option<DisconnectMonitor> {
        let peer = stream.try_clone().ok()?;
        let (done, finished) = mpsc::channel();
        let thread = std::thread::Builder::new()
            .name("rake-served-monitor".to_owned())
            .spawn(move || monitor_disconnect(&peer, cancel, &finished))
            .expect("spawn disconnect monitor");
        Some(DisconnectMonitor { done, thread })
    }

    /// Wake the monitor and join it; returns whether the peer vanished
    /// (its cancel flag is then raised). The socket is back in blocking
    /// mode once this returns.
    fn finish(self) -> bool {
        drop(self.done);
        self.thread.join().unwrap_or(false)
    }
}

/// Peek the connection every [`DISCONNECT_POLL`] until `finished` closes
/// or the peer vanishes; returns whether a disconnect was detected (and
/// the flag raised). `peer` shares its open file description with the
/// connection's reader and writer, so the non-blocking mode the peeks
/// need is theirs too: it is restored before returning.
fn monitor_disconnect(
    peer: &TcpStream,
    cancel: synth::CancelFlag,
    finished: &mpsc::Receiver<()>,
) -> bool {
    if peer.set_nonblocking(true).is_err() {
        return false;
    }
    let mut buf = [0u8; 1];
    let gone = loop {
        match peer.peek(&mut buf) {
            // EOF: the client closed its end.
            Ok(0) => break true,
            // Pipelined bytes waiting — still connected; don't consume.
            Ok(_) => {}
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {}
            // Reset / broken pipe / anything else: treat as gone.
            Err(_) => break true,
        }
        if !matches!(finished.recv_timeout(DISCONNECT_POLL), Err(RecvTimeoutError::Timeout)) {
            break false;
        }
    };
    if gone {
        cancel.store(true, Ordering::Relaxed);
    }
    let _ = peer.set_nonblocking(false);
    gone
}

/// Make sure the accept loop cannot outlive a panicking connection
/// thread silently: connection handlers run plain functions, and a panic
/// unwinds that one thread only. (Compile-path panics are already caught
/// inside the driver.)
#[allow(dead_code)]
fn _assert_send_sync() {
    fn check<T: Send + Sync>() {}
    check::<Shared>();
    check::<Metrics>();
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gate_grants_up_to_permits_then_queues_then_rejects() {
        let metrics = Metrics::new();
        let gate = Arc::new(Gate::new(2, 0, Duration::from_millis(10)));
        let a = gate.acquire(&metrics);
        let b = gate.acquire(&metrics);
        assert!(matches!(&a, Admission::Granted(_)));
        assert!(matches!(&b, Admission::Granted(_)));
        // No queue slots: immediate rejection.
        assert!(matches!(gate.acquire(&metrics), Admission::Busy));
        drop(a);
        assert!(matches!(gate.acquire(&metrics), Admission::Granted(_)));
    }

    #[test]
    fn gate_queue_wait_times_out() {
        let metrics = Metrics::new();
        let gate = Arc::new(Gate::new(1, 4, Duration::from_millis(50)));
        let held = gate.acquire(&metrics);
        assert!(matches!(&held, Admission::Granted(_)));
        let start = Instant::now();
        assert!(matches!(gate.acquire(&metrics), Admission::Busy));
        assert!(start.elapsed() >= Duration::from_millis(50));
    }

    #[test]
    fn queued_waiter_gets_released_permit() {
        let metrics = Metrics::new();
        let gate = Arc::new(Gate::new(1, 4, Duration::from_secs(5)));
        let held = gate.acquire(&metrics);
        let gate2 = Arc::clone(&gate);
        let metrics2 = Arc::clone(&metrics);
        let waiter = std::thread::spawn(move || gate2.acquire(&metrics2));
        std::thread::sleep(Duration::from_millis(50));
        drop(held);
        assert!(matches!(waiter.join().unwrap(), Admission::Granted(_)));
    }

    #[test]
    fn inflight_serializes_same_key() {
        let inflight = Arc::new(InFlight::default());
        let keys = vec!["k".to_owned()];
        inflight.claim(&keys);
        let inflight2 = Arc::clone(&inflight);
        let keys2 = keys.clone();
        let t = std::thread::spawn(move || {
            inflight2.claim(&keys2);
            inflight2.release(&keys2);
        });
        std::thread::sleep(Duration::from_millis(30));
        assert!(!t.is_finished(), "second claim must block while the first holds the key");
        inflight.release(&keys);
        t.join().unwrap();
    }

    /// Both ends of a live loopback connection: (client, server side).
    fn loopback_pair() -> (TcpStream, TcpStream) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (conn, _) = listener.accept().unwrap();
        (client, conn)
    }

    #[test]
    fn disconnect_monitor_joins_as_soon_as_the_compile_ends() {
        let (_client, conn) = loopback_pair();
        let mut fastest = Duration::MAX;
        for _ in 0..5 {
            let cancel = synth::cancel::acquire();
            let monitor = DisconnectMonitor::start(&conn, cancel).unwrap();
            // Let the monitor reach its wait between peeks, the state a
            // finishing compile finds it in; a monitor not yet started
            // would return at once and show nothing.
            std::thread::sleep(Duration::from_millis(2));
            let joined = Instant::now();
            assert!(!monitor.finish(), "a live peer is not a disconnect");
            fastest = fastest.min(joined.elapsed());
            assert!(!cancel.load(Ordering::SeqCst), "a live peer must not be cancelled");
            synth::cancel::release(cancel);
        }
        assert!(
            fastest < Duration::from_millis(5),
            "the join must not wait out a {DISCONNECT_POLL:?} poll: fastest took {fastest:?}"
        );
        // Blocking mode is back: a timed read waits out its timeout
        // instead of failing at once as a non-blocking read would.
        conn.set_read_timeout(Some(Duration::from_millis(40))).unwrap();
        let read = Instant::now();
        assert!(io::Read::read(&mut &conn, &mut [0u8; 1]).is_err());
        assert!(read.elapsed() >= Duration::from_millis(30), "socket left non-blocking");
    }

    #[test]
    fn disconnect_monitor_cancels_when_the_peer_closes() {
        let (client, conn) = loopback_pair();
        let cancel = synth::cancel::acquire();
        let monitor = DisconnectMonitor::start(&conn, cancel).unwrap();
        drop(client);
        // The flag rises while the "compile" still runs, within a poll
        // interval or so; the bound here only guards against a hang.
        let deadline = Instant::now() + Duration::from_secs(10);
        while !cancel.load(Ordering::SeqCst) && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(1));
        }
        assert!(cancel.load(Ordering::SeqCst), "a vanished peer must raise the cancel flag");
        assert!(monitor.finish(), "a vanished peer is a disconnect");
        synth::cancel::release(cancel);
    }
}

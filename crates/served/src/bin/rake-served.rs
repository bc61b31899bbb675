//! `rake-served` — the compilation server daemon.
//!
//! ```sh
//! rake-served --addr 127.0.0.1:8347 --cache /var/cache/rake --log rake.jsonl
//! ```
//!
//! Options:
//!   --addr HOST:PORT   bind address (default 127.0.0.1:8347; port 0 = ephemeral)
//!   --port-file FILE   write the bound `host:port` to FILE after listening
//!                      (how scripts discover an ephemeral port)
//!   --permits N        concurrent compile permits (default: cores, max 4)
//!   --queue N          admission queue slots (default 16)
//!   --cache DIR        persistent synthesis cache directory
//!   --cache-max-entries N  in-memory cache entry cap; cost-aware LRU
//!                      eviction past it (default unbounded; 0 = unbounded)
//!   --cache-max-bytes N    in-memory cache byte cap over serialized entry
//!                      sizes (default unbounded; 0 = unbounded)
//!   --cache-log-max-bytes N  segment-log size that triggers compaction
//!                      into the snapshot (default 4 MiB)
//!   --log FILE         JSONL event journal (telemetry; a restart recovers
//!                      from --cache)
//!   --journal-rotate-bytes N  journal size past which FILE rolls over to
//!                      FILE.1, replacing the previous one (default 8 MiB;
//!                      0 = never roll over)
//!   --timeout SEC      default per-job synthesis budget (default 30)
//!   --read-timeout-ms N  slow-loris guard: a started request must arrive
//!                      whole within N ms or the connection is answered
//!                      408 (default 10000; 0 disables)
//!   --isolate          run synthesis in supervised worker subprocesses;
//!                      worker deaths fail only their own jobs
//!   --workers N        worker subprocesses under --isolate (default:
//!                      same as --permits)
//!   --worker-rss-mb N  per-worker resident-set cap in MiB; past it the
//!                      supervisor kills the worker (default 4096; 0 off)
//!   --worker-grace-ms N  grace past a job's deadline before the
//!                      supervisor kills its worker (default 5000)
//!   --crash-threshold N  worker crashes a single key may cause before it
//!                      is quarantined as a poison pill (default 2)
//!   --quarantine-ttl-s N  how long a quarantined key stays poisoned
//!                      (default 3600; 0 = forever)
//!   --chaos            accept the per-request `chaos` fault-injection
//!                      field (test/benchmark plumbing)
//!   --trace-out DIR    enable structured tracing and write one Chrome
//!                      trace-event JSON per request into DIR
//!   --trace-slow-ms N  enable tracing and log spans slower than N ms
//!                      to stderr (independent of --trace-out)
//!
//! The hidden first argument `worker` switches the binary into the
//! frame-protocol worker the supervisor pre-forks under `--isolate`.
//!
//! SIGTERM/SIGINT drain gracefully: in-flight requests finish, the cache
//! is persisted, then the process exits 0.

use std::process::ExitCode;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Duration;

use served::{serve, ServerConfig};

static SHUTDOWN: AtomicBool = AtomicBool::new(false);

/// Raw libc signal hookup — std links libc on every supported platform,
/// so declaring the one symbol we need keeps the workspace free of
/// external crates. The handler only flips an atomic (async-signal-safe).
#[cfg(unix)]
mod sig {
    use super::SHUTDOWN;
    use std::sync::atomic::Ordering;

    extern "C" {
        fn signal(signum: i32, handler: usize) -> usize;
    }

    extern "C" fn on_signal(_signum: i32) {
        SHUTDOWN.store(true, Ordering::SeqCst);
    }

    pub fn install() {
        const SIGINT: i32 = 2;
        const SIGTERM: i32 = 15;
        let handler = on_signal as extern "C" fn(i32) as usize;
        unsafe {
            signal(SIGINT, handler);
            signal(SIGTERM, handler);
        }
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    // Hidden worker mode: the supervisor re-execs this binary with the
    // single argument `worker` (dispatched before flag parsing so the
    // worker surface cannot drift from the server's).
    if args.first().map(String::as_str) == Some("worker") {
        served::worker::worker_main();
    }
    let mut config = ServerConfig::default();
    let mut port_file: Option<std::path::PathBuf> = None;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--addr" => match it.next() {
                Some(v) => config.addr = v.clone(),
                None => return usage("--addr needs HOST:PORT"),
            },
            "--port-file" => match it.next() {
                Some(v) => port_file = Some(v.into()),
                None => return usage("--port-file needs a path"),
            },
            "--permits" => match it.next().and_then(|v| v.parse().ok()) {
                Some(v) => config.permits = v,
                None => return usage("--permits needs an integer"),
            },
            "--queue" => match it.next().and_then(|v| v.parse().ok()) {
                Some(v) => config.queue_slots = v,
                None => return usage("--queue needs an integer"),
            },
            "--cache" => match it.next() {
                Some(v) => config.cache_dir = Some(v.into()),
                None => return usage("--cache needs a directory"),
            },
            "--cache-max-entries" => match it.next().and_then(|v| v.parse::<usize>().ok()) {
                Some(v) => config.cache_max_entries = (v > 0).then_some(v),
                None => return usage("--cache-max-entries needs an integer"),
            },
            "--cache-max-bytes" => match it.next().and_then(|v| v.parse::<usize>().ok()) {
                Some(v) => config.cache_max_bytes = (v > 0).then_some(v),
                None => return usage("--cache-max-bytes needs an integer"),
            },
            "--cache-log-max-bytes" => match it.next().and_then(|v| v.parse().ok()) {
                Some(v) => config.cache_log_compact_bytes = v,
                None => return usage("--cache-log-max-bytes needs an integer"),
            },
            "--log" => match it.next() {
                Some(v) => config.log_path = Some(v.into()),
                None => return usage("--log needs a file"),
            },
            "--journal-rotate-bytes" => match it.next().and_then(|v| v.parse::<u64>().ok()) {
                Some(v) => config.journal_rotate_bytes = (v > 0).then_some(v),
                None => return usage("--journal-rotate-bytes needs an integer"),
            },
            "--timeout" => match it.next().and_then(|v| v.parse::<f64>().ok()) {
                Some(secs) => config.default_timeout = Some(Duration::from_secs_f64(secs)),
                None => return usage("--timeout needs seconds"),
            },
            "--read-timeout-ms" => match it.next().and_then(|v| v.parse::<u64>().ok()) {
                Some(v) => config.read_timeout = (v > 0).then(|| Duration::from_millis(v)),
                None => return usage("--read-timeout-ms needs an integer"),
            },
            "--isolate" => config.isolate = true,
            "--workers" => match it.next().and_then(|v| v.parse().ok()) {
                Some(v) => config.pool_workers = v,
                None => return usage("--workers needs an integer"),
            },
            "--worker-rss-mb" => match it.next().and_then(|v| v.parse::<u64>().ok()) {
                Some(v) => config.worker_rss_limit = (v > 0).then_some(v * 1024 * 1024),
                None => return usage("--worker-rss-mb needs an integer"),
            },
            "--worker-grace-ms" => match it.next().and_then(|v| v.parse::<u64>().ok()) {
                Some(v) => config.worker_grace = Duration::from_millis(v),
                None => return usage("--worker-grace-ms needs an integer"),
            },
            "--crash-threshold" => match it.next().and_then(|v| v.parse().ok()) {
                Some(v) => config.crash_threshold = v,
                None => return usage("--crash-threshold needs an integer"),
            },
            "--quarantine-ttl-s" => match it.next().and_then(|v| v.parse::<u64>().ok()) {
                Some(v) => config.quarantine_ttl = (v > 0).then(|| Duration::from_secs(v)),
                None => return usage("--quarantine-ttl-s needs an integer"),
            },
            "--chaos" => config.chaos = true,
            "--trace-out" => match it.next() {
                Some(v) => config.trace_out = Some(v.into()),
                None => return usage("--trace-out needs a directory"),
            },
            "--trace-slow-ms" => match it.next().and_then(|v| v.parse::<u64>().ok()) {
                Some(v) => config.trace_slow_ms = Some(v),
                None => return usage("--trace-slow-ms needs an integer"),
            },
            "--help" | "-h" => return usage(""),
            other => return usage(&format!("unknown option `{other}`")),
        }
    }

    #[cfg(unix)]
    sig::install();

    let handle = match serve(config) {
        Ok(h) => h,
        Err(e) => {
            eprintln!("rake-served: cannot listen: {e}");
            return ExitCode::FAILURE;
        }
    };
    eprintln!("rake-served: listening on {}", handle.addr());
    if let Some(path) = &port_file {
        // Write via a temp file + rename so a watcher never reads a
        // half-written address.
        let tmp = path.with_extension("tmp");
        let write = std::fs::write(&tmp, handle.addr().to_string())
            .and_then(|()| std::fs::rename(&tmp, path));
        if let Err(e) = write {
            eprintln!("rake-served: cannot write port file {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
    }

    while !SHUTDOWN.load(Ordering::SeqCst) {
        std::thread::sleep(Duration::from_millis(50));
    }
    eprintln!("rake-served: draining");
    handle.shutdown();
    eprintln!("rake-served: bye");
    ExitCode::SUCCESS
}

fn usage(err: &str) -> ExitCode {
    if !err.is_empty() {
        eprintln!("rake-served: {err}");
    }
    eprintln!(
        "usage: rake-served [--addr HOST:PORT] [--port-file FILE] [--permits N] [--queue N] \
         [--cache DIR] [--cache-max-entries N] [--cache-max-bytes N] \
         [--cache-log-max-bytes N] [--log FILE] [--journal-rotate-bytes N] [--timeout SEC] \
         [--read-timeout-ms N] \
         [--isolate] [--workers N] [--worker-rss-mb N] [--worker-grace-ms N] \
         [--crash-threshold N] [--quarantine-ttl-s N] [--chaos] [--trace-out DIR] \
         [--trace-slow-ms N]"
    );
    if err.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

//! Crash-containment proof for `--isolate`: worker deaths (chaos aborts,
//! raw `kill -9`) fail only their own jobs; the server keeps serving,
//! crashing keys are quarantined as poison pills, quarantine survives a
//! restart and expires after its TTL. Also covers the slow-loris 408
//! guard, which shares the connection-handling changes.
//!
//! The worker command is pinned to the real `rake-served` binary:
//! `current_exe` inside a test is the test harness, which would loop
//! forever spawning itself.

use std::io::{Read as _, Write as _};
use std::net::TcpStream;
use std::time::{Duration, Instant};

use driver::json::{self, Json};
use served::http::roundtrip;
use served::{serve, ServerConfig, ServerHandle};

mod common;
use common::{start_with_retry, wait_until};

/// A tile that lifts and lowers in milliseconds.
const TRIVIAL: &str = "(add (load a u8 0 0) (load b u8 0 0))";
/// A second trivial tile with a distinct cache key.
const TRIVIAL2: &str = "(add (load a u8 1 0) (load b u8 1 0))";

fn worker_cmd() -> Vec<String> {
    vec![env!("CARGO_BIN_EXE_rake-served").to_owned(), "worker".to_owned()]
}

fn start_isolated(mut tweak: impl FnMut(&mut ServerConfig)) -> ServerHandle {
    start_with_retry(|| {
        let mut config = ServerConfig {
            addr: "127.0.0.1:0".to_owned(),
            isolate: true,
            pool_workers: 2,
            worker_cmd: Some(worker_cmd()),
            chaos: true,
            ..ServerConfig::default()
        };
        tweak(&mut config);
        config
    })
}

fn connect(handle: &ServerHandle) -> TcpStream {
    let stream = TcpStream::connect(handle.addr()).expect("connect");
    stream.set_read_timeout(Some(Duration::from_secs(120))).unwrap();
    stream
}

fn post_compile(handle: &ServerHandle, body: &Json) -> (u16, Json) {
    let mut stream = connect(handle);
    let bytes = body.to_string().into_bytes();
    let (status, reply) =
        roundtrip(&mut stream, "POST", "/compile", Some(&bytes)).expect("roundtrip");
    let doc = json::parse(&String::from_utf8_lossy(&reply)).unwrap_or(Json::Null);
    (status, doc)
}

fn result0(doc: &Json) -> &Json {
    doc.get("results").and_then(Json::as_arr).and_then(|r| r.first()).expect("one result")
}

fn outcome0(doc: &Json) -> &str {
    result0(doc).get("outcome").and_then(Json::as_str).unwrap_or("?")
}

fn body(expr: &str, extra: &[(&'static str, Json)]) -> Json {
    let mut obj = vec![("expr".to_owned(), Json::Str(expr.to_owned()))];
    for (k, v) in extra {
        obj.push(((*k).to_owned(), v.clone()));
    }
    Json::Obj(obj)
}

fn metrics_text(handle: &ServerHandle) -> String {
    let mut stream = connect(handle);
    let (status, reply) = roundtrip(&mut stream, "GET", "/metrics", None).unwrap();
    assert_eq!(status, 200);
    String::from_utf8(reply).unwrap()
}

fn healthz_ok(handle: &ServerHandle) {
    let mut stream = connect(handle);
    let (status, reply) = roundtrip(&mut stream, "GET", "/healthz", None).unwrap();
    assert_eq!((status, reply.as_slice()), (200, b"ok\n".as_slice()));
}

#[test]
fn compiles_run_inside_workers_and_crashes_are_contained() {
    let handle = start_isolated(|c| c.crash_threshold = 1);

    // A normal compile succeeds end-to-end through a worker subprocess.
    let (status, doc) = post_compile(&handle, &body(TRIVIAL, &[]));
    assert_eq!(status, 200);
    assert_eq!(outcome0(&doc), "compiled", "{doc}");
    assert!(result0(&doc).get("program").and_then(Json::as_str).is_some());
    assert!(!handle.worker_pids().is_empty(), "pool must be live");

    // Chaos-abort a different key: the worker dies, the job fails as a
    // structured panic, the server stays healthy.
    let (status, doc) = post_compile(&handle, &body(TRIVIAL2, &[("chaos", "abort".into())]));
    assert_eq!(status, 200, "a worker death must not kill the request: {doc}");
    let outcome = outcome0(&doc);
    assert_eq!(outcome, "panicked", "{doc}");
    let detail = result0(&doc).get("detail").and_then(Json::as_str).unwrap_or("");
    assert!(
        detail.contains("worker") || detail.contains("poison pill"),
        "crash detail should name the worker: {detail}"
    );
    healthz_ok(&handle);

    // Threshold 1: the key is now a poison pill. A plain request for it
    // is answered from the cache as `quarantined` — no worker dispatch,
    // no budget burned.
    let (status, doc) = post_compile(&handle, &body(TRIVIAL2, &[]));
    assert_eq!(status, 200);
    assert_eq!(outcome0(&doc), "quarantined", "{doc}");

    // Other keys still compile (the first one is warm; a third is fresh).
    let (status, doc) = post_compile(&handle, &body(TRIVIAL, &[]));
    assert_eq!(status, 200);
    assert_eq!(outcome0(&doc), "compiled");
    let fresh = "(add (load a u8 2 0) (load b u8 2 0))";
    let (status, doc) = post_compile(&handle, &body(fresh, &[]));
    assert_eq!(status, 200);
    assert_eq!(outcome0(&doc), "compiled", "{doc}");

    // The supervisor replaced the dead worker and the books agree.
    assert!(
        wait_until(Duration::from_secs(10), || handle.worker_pids().len() == 2),
        "dead worker must be replaced: {:?}",
        handle.worker_pids()
    );
    let text = metrics_text(&handle);
    let counter = |name: &str| -> f64 {
        text.lines()
            .find_map(|l| l.strip_prefix(name))
            .and_then(|rest| rest.trim().parse().ok())
            .unwrap_or(-1.0)
    };
    assert!(counter("rake_served_worker_restarts_total ") >= 1.0, "{text}");
    assert!(counter("rake_served_quarantined_keys ") >= 1.0, "{text}");
    assert!(counter("rake_served_quarantine_added_total ") >= 1.0, "{text}");
    assert!(counter("rake_served_workers_alive ") >= 1.0, "{text}");
    assert!(text.contains("rake_served_worker_crashes_total{cause="), "{text}");
    handle.shutdown();
}

#[test]
fn kill_dash_nine_of_a_busy_worker_fails_only_that_job() {
    // Threshold 1: the SIGKILL quarantines the key at once, so nothing
    // can re-run the 30 s chaos sleep.
    let handle = start_isolated(|c| c.crash_threshold = 1);

    // Park a job in a worker (chaos sleep), then SIGKILL every worker
    // from outside — the harshest death the supervisor must absorb.
    let addr = handle.addr();
    let sleeper = std::thread::spawn(move || {
        let mut stream = TcpStream::connect(addr).unwrap();
        stream.set_read_timeout(Some(Duration::from_secs(120))).unwrap();
        let body = Json::obj([
            ("expr", Json::Str(TRIVIAL.to_owned())),
            ("chaos", "sleep:30000".into()),
            ("timeout_ms", 60_000u64.into()),
        ])
        .to_string()
        .into_bytes();
        let (status, reply) = roundtrip(&mut stream, "POST", "/compile", Some(&body)).unwrap();
        (status, String::from_utf8_lossy(&reply).into_owned())
    });
    let metrics = handle.metrics();
    assert!(
        wait_until(Duration::from_secs(30), || metrics.in_flight() > 0),
        "sleeper request never started"
    );
    // Wait for the dispatch to actually land in a worker subprocess —
    // the previous fixed 300 ms sleep raced the handoff under load.
    assert!(
        wait_until(Duration::from_secs(30), || !handle.busy_workers().is_empty()),
        "dispatch never reached a worker"
    );
    let pids = handle.worker_pids();
    assert!(!pids.is_empty(), "no workers to kill");
    for pid in &pids {
        let _ = std::process::Command::new("kill").args(["-9", &pid.to_string()]).status();
    }

    // The parked request concludes promptly with a structured failure —
    // not a hang, not a dead server.
    let (status, reply) = sleeper.join().unwrap();
    assert_eq!(status, 200, "{reply}");
    let doc = json::parse(&reply).unwrap();
    assert_eq!(outcome0(&doc), "panicked", "{doc}");
    healthz_ok(&handle);

    // And after the supervisor respawns, fresh work compiles. Wait for
    // every slot to hold a NEW pid: a killed-but-unreaped slot still
    // looks idle for a monitor tick, and a job dispatched to it would
    // be charged a crash of its own.
    assert!(
        wait_until(Duration::from_secs(15), || {
            let now = handle.worker_pids();
            now.len() == pids.len() && now.iter().all(|p| !pids.contains(p))
        }),
        "pool never repopulated: {:?}",
        handle.worker_pids()
    );
    let (status, doc) = post_compile(&handle, &body(TRIVIAL2, &[]));
    assert_eq!(status, 200);
    assert_eq!(outcome0(&doc), "compiled", "{doc}");
    let text = metrics_text(&handle);
    assert!(text.contains("rake_served_worker_crashes_total{cause=\"signal_9\"}"), "{text}");
    handle.shutdown();
}

#[test]
fn quarantine_survives_restart_and_expires_after_ttl() {
    let dir = std::env::temp_dir().join(format!("rake-served-quar-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let cache_dir = dir.join("cache");

    // Server 1: crash the key once (threshold 1) → quarantined forever.
    let first = start_isolated(|c| {
        c.crash_threshold = 1;
        c.quarantine_ttl = None;
        c.cache_dir = Some(cache_dir.clone());
    });
    let (status, doc) = post_compile(&first, &body(TRIVIAL, &[("chaos", "abort".into())]));
    assert_eq!(status, 200);
    assert_eq!(outcome0(&doc), "panicked", "{doc}");
    let (status, doc) = post_compile(&first, &body(TRIVIAL, &[]));
    assert_eq!(status, 200);
    assert_eq!(outcome0(&doc), "quarantined", "{doc}");
    first.shutdown();

    // Server 2, same cache dir: the poison pill was persisted with the
    // rest of the cache and still answers `quarantined` — no worker is
    // ever risked on it again.
    let second = start_isolated(|c| {
        c.cache_dir = Some(cache_dir.clone());
    });
    let (status, doc) = post_compile(&second, &body(TRIVIAL, &[]));
    assert_eq!(status, 200);
    assert_eq!(outcome0(&doc), "quarantined", "a restart must not forget poison pills: {doc}");
    assert_eq!(second.metrics().synth_fresh(), 0);
    second.shutdown();
    let _ = std::fs::remove_dir_all(&dir);

    // TTL: a short-lived quarantine lapses and the key may try again.
    // Generous enough that a loaded test machine still observes the
    // `quarantined` answer before the pill expires; expiry itself is
    // polled with a deadline rather than slept for (a fixed sleep both
    // wasted the common case and flaked the slow one).
    let ttl = start_isolated(|c| {
        c.crash_threshold = 1;
        c.quarantine_ttl = Some(Duration::from_secs(3));
    });
    let (status, doc) = post_compile(&ttl, &body(TRIVIAL2, &[("chaos", "abort".into())]));
    assert_eq!(status, 200);
    assert_eq!(outcome0(&doc), "panicked", "{doc}");
    let (status, doc) = post_compile(&ttl, &body(TRIVIAL2, &[]));
    assert_eq!(status, 200);
    assert_eq!(outcome0(&doc), "quarantined", "{doc}");
    assert!(
        wait_until(Duration::from_secs(30), || {
            std::thread::sleep(Duration::from_millis(200));
            let (status, doc) = post_compile(&ttl, &body(TRIVIAL2, &[]));
            status == 200 && outcome0(&doc) == "compiled"
        }),
        "an expired quarantine must retry"
    );
    ttl.shutdown();
}

#[test]
fn chaos_field_is_rejected_without_the_chaos_plane() {
    let mut config = ServerConfig { addr: "127.0.0.1:0".to_owned(), ..ServerConfig::default() };
    config.chaos = false;
    let handle = serve(config).expect("bind");
    let (status, doc) = post_compile(&handle, &body(TRIVIAL, &[("chaos", "abort".into())]));
    assert_eq!(status, 400, "{doc}");
    handle.shutdown();
}

#[test]
fn slow_loris_request_is_answered_408() {
    let mut config = ServerConfig { addr: "127.0.0.1:0".to_owned(), ..ServerConfig::default() };
    config.read_timeout = Some(Duration::from_millis(300));
    let handle = serve(config).expect("bind");

    // Start a request and then drip nothing: the headers never finish.
    let mut stream = connect(&handle);
    stream.write_all(b"POST /compile HTTP/1.1\r\nhost: t\r\n").unwrap();
    let mut reply = String::new();
    let t0 = Instant::now();
    stream.read_to_string(&mut reply).unwrap();
    assert!(
        reply.starts_with("HTTP/1.1 408"),
        "a stalled request must be answered 408, got: {reply:?}"
    );
    assert!(
        t0.elapsed() < Duration::from_secs(5),
        "the 408 must arrive at the read deadline, not the idle timeout"
    );

    // A well-formed request right after still works: the guard only
    // bites stalls, and idle keep-alive connections are untouched.
    let (status, doc) = post_compile(&handle, &body(TRIVIAL, &[]));
    assert_eq!(status, 200);
    assert_eq!(outcome0(&doc), "compiled", "{doc}");
    handle.shutdown();
}

#[test]
fn a_crash_storm_is_contained_and_every_poison_key_quarantined() {
    const REQUESTS: usize = 24;
    const CLIENTS: usize = 4;
    let handle = start_isolated(|c| c.crash_threshold = 1);
    // Every third request aborts its worker on one of three poison keys;
    // the rest spread over eight healthy keys. Load offsets keep the keys
    // distinct, and `y` keeps poison apart from healthy.
    let poison = |k: usize| format!("(add (load a u8 {k} 1) (load b u8 {k} 1))");
    let healthy = |k: usize| format!("(add (load a u8 {k} 0) (load b u8 {k} 0))");
    std::thread::scope(|scope| {
        for client in 0..CLIENTS {
            let (handle, poison, healthy) = (&handle, &poison, &healthy);
            scope.spawn(move || {
                for i in (client..REQUESTS).step_by(CLIENTS) {
                    let request = if i % 3 == 0 {
                        body(&poison(i / 3 % 3), &[("chaos", "abort".into())])
                    } else {
                        body(&healthy(i % 8), &[])
                    };
                    // `post_compile` panics on a transport error.
                    let (status, doc) = post_compile(handle, &request);
                    assert!(
                        status == 200 || status == 503,
                        "request {i} answered {status}, not 200 or the breaker's 503: {doc}"
                    );
                }
            });
        }
    });

    // Afterwards every poison key is answered from the quarantine and
    // every healthy key compiles; a breaker opened by the storm may need
    // its cooldown to pass first.
    for k in 0..3 {
        let (status, doc) = post_compile(&handle, &body(&poison(k), &[]));
        assert_eq!(status, 200, "poison key {k}: {doc}");
        assert_eq!(outcome0(&doc), "quarantined", "poison key {k}: {doc}");
    }
    for k in 0..8 {
        assert!(
            wait_until(Duration::from_secs(30), || {
                let (status, doc) = post_compile(&handle, &body(&healthy(k), &[]));
                let compiled = status == 200 && outcome0(&doc) == "compiled";
                if !compiled {
                    std::thread::sleep(Duration::from_millis(200));
                }
                compiled
            }),
            "healthy key {k} never compiled"
        );
    }
    assert!(
        wait_until(Duration::from_secs(10), || {
            let text = metrics_text(&handle);
            text.lines()
                .find_map(|l| l.strip_prefix("rake_served_worker_restarts_total "))
                .and_then(|v| v.trim().parse::<f64>().ok())
                .is_some_and(|n| n >= 1.0)
        }),
        "the supervisor never recorded a restart"
    );
    healthz_ok(&handle);
    handle.shutdown();
}

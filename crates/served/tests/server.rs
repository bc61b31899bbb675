//! End-to-end tests of the compilation server over real sockets on an
//! ephemeral port: routing and limits, the warm path, cross-request
//! single-flight, disconnect cancellation, and graceful drain.

use std::io::{Read as _, Write as _};
use std::net::TcpStream;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use driver::json::{self, Json};
use served::http::roundtrip;
use served::{ServerConfig, ServerHandle};

mod common;
use common::{start_with_retry, wait_until};

/// A tile that lifts and lowers in milliseconds.
const TRIVIAL: &str = "(add (load a u8 0 0) (load b u8 0 0))";

fn start(mut tweak: impl FnMut(&mut ServerConfig)) -> ServerHandle {
    start_with_retry(|| {
        let mut config = ServerConfig { addr: "127.0.0.1:0".to_owned(), ..ServerConfig::default() };
        tweak(&mut config);
        config
    })
}

fn connect(handle: &ServerHandle) -> TcpStream {
    let stream = TcpStream::connect(handle.addr()).expect("connect");
    stream.set_read_timeout(Some(Duration::from_secs(120))).unwrap();
    stream
}

fn compile_body(exprs: &[&str], extra: &[(&'static str, Json)]) -> Vec<u8> {
    let mut obj = if exprs.len() == 1 {
        vec![("expr".to_owned(), Json::Str(exprs[0].to_owned()))]
    } else {
        vec![(
            "exprs".to_owned(),
            Json::Arr(exprs.iter().map(|s| Json::Str((*s).to_owned())).collect()),
        )]
    };
    for (k, v) in extra {
        obj.push(((*k).to_owned(), v.clone()));
    }
    Json::Obj(obj).to_string().into_bytes()
}

fn post_compile(stream: &mut TcpStream, body: &[u8]) -> (u16, Json) {
    let (status, reply) = roundtrip(stream, "POST", "/compile", Some(body)).expect("roundtrip");
    let text = String::from_utf8_lossy(&reply);
    let doc = json::parse(&text).unwrap_or(Json::Null);
    (status, doc)
}

fn outcome_of(doc: &Json, i: usize) -> &str {
    doc.get("results")
        .and_then(Json::as_arr)
        .and_then(|r| r.get(i))
        .and_then(|r| r.get("outcome"))
        .and_then(Json::as_str)
        .unwrap_or("?")
}

/// The heaviest seed workload, as (lanes, S-expression strings). It
/// compiles in milliseconds, so a test that must act while it is in
/// flight also sends a [`hold`].
fn heavy_workload() -> (usize, Vec<String>) {
    let w =
        workloads::all().into_iter().max_by_key(|w| w.exprs.len()).expect("seed workloads exist");
    let exprs = w.exprs.iter().take(4).map(halide_ir::sexpr::to_sexpr).collect();
    (w.lanes, exprs)
}

/// The `sleep:<ms>` chaos fault: every job of the request sleeps this
/// long before compiling, holding the request's permit; a cancelled
/// request stops sleeping.
fn hold(ms: u64) -> (&'static str, Json) {
    ("chaos", format!("sleep:{ms}").into())
}

#[test]
fn routing_health_metrics_and_errors() {
    let handle = start(|_| {});
    let mut stream = connect(&handle);

    let (status, body) = roundtrip(&mut stream, "GET", "/healthz", None).unwrap();
    assert_eq!((status, body.as_slice()), (200, b"ok\n".as_slice()));

    let (status, body) = roundtrip(&mut stream, "GET", "/metrics", None).unwrap();
    assert_eq!(status, 200);
    let text = String::from_utf8(body).unwrap();
    assert!(text.contains("rake_served_requests_total{endpoint=\"healthz\"} 1"), "{text}");
    assert!(text.contains("# TYPE rake_served_compile_latency_seconds histogram"), "{text}");

    let (status, _) = roundtrip(&mut stream, "GET", "/nope", None).unwrap();
    assert_eq!(status, 404);
    let (status, _) = roundtrip(&mut stream, "GET", "/compile", None).unwrap();
    assert_eq!(status, 405);
    handle.shutdown();
}

#[test]
fn malformed_and_oversized_requests_are_4xx() {
    let handle = start(|c| c.max_body_bytes = 4 * 1024);
    // Bad JSON.
    let mut s = connect(&handle);
    let (status, doc) = post_compile(&mut s, b"{not json");
    assert_eq!(status, 400);
    assert!(doc.get("error").is_some());
    // Valid JSON, missing fields.
    let mut s = connect(&handle);
    let (status, _) = post_compile(&mut s, b"{}");
    assert_eq!(status, 400);
    // Valid JSON, bad S-expression.
    let mut s = connect(&handle);
    let (status, doc) = post_compile(&mut s, &compile_body(&["(add (oops"], &[]));
    assert_eq!(status, 400);
    let err = doc.get("error").and_then(Json::as_str).unwrap_or("");
    assert!(err.contains("expression 0"), "{err}");
    // Integer atoms outside their field's type are rejected, not wrapped.
    let mut s = connect(&handle);
    let wrapped = "(add (load a u8 4294967296 0) (load b u8 0 0))";
    let (status, doc) = post_compile(&mut s, &compile_body(&[wrapped], &[]));
    assert_eq!(status, 400);
    let err = doc.get("error").and_then(Json::as_str).unwrap_or("");
    assert!(err.contains("byte 16"), "{err}");
    // Pathological S-expression nesting: unbalanced, and well-formed one
    // level past halide_ir::sexpr::MAX_DEPTH (small enough for the body cap).
    let unbalanced = format!("{}x{}", "(".repeat(1000), ")".repeat(1000));
    let too_deep = format!("{}(load a u8 0 0){}", "(cast u8 ".repeat(256), ")".repeat(256));
    for deep in [unbalanced, too_deep] {
        let mut s = connect(&handle);
        let (status, _) = post_compile(&mut s, &compile_body(&[&deep], &[]));
        assert_eq!(status, 400);
    }
    // Bad knobs.
    let mut s = connect(&handle);
    let (status, _) = post_compile(&mut s, &compile_body(&[TRIVIAL], &[("lanes", 4usize.into())]));
    assert_eq!(status, 400);
    // Oversized body → 413 before any parsing.
    let huge = format!("{{\"expr\":\"{}\"}}", "x".repeat(8 * 1024));
    let mut s = connect(&handle);
    let (status, reply) = roundtrip(&mut s, "POST", "/compile", Some(huge.as_bytes())).unwrap();
    assert_eq!(status, 413);
    assert!(String::from_utf8_lossy(&reply).contains("exceeds"), "{reply:?}");
    handle.shutdown();
}

#[test]
fn compile_roundtrip_then_warm_cache_hit() {
    let handle = start(|_| {});
    let mut stream = connect(&handle);

    let (status, doc) = post_compile(&mut stream, &compile_body(&[TRIVIAL], &[]));
    assert_eq!(status, 200);
    assert_eq!(outcome_of(&doc, 0), "compiled", "{doc}");
    let result = &doc.get("results").unwrap().as_arr().unwrap()[0];
    assert!(result.get("program").and_then(Json::as_str).is_some());
    assert!(result.get("cost").and_then(|c| c.get("cycles")).is_some());
    assert_eq!(result.get("cache_hit").and_then(Json::as_bool), Some(false));

    // Same expression again on the same connection: served warm.
    let (status, doc) = post_compile(&mut stream, &compile_body(&[TRIVIAL], &[]));
    assert_eq!(status, 200);
    let result = &doc.get("results").unwrap().as_arr().unwrap()[0];
    assert_eq!(result.get("cache_hit").and_then(Json::as_bool), Some(true));

    // Intra-request dedup: the same expr thrice is one unique job.
    let (status, doc) = post_compile(&mut stream, &compile_body(&[TRIVIAL; 3], &[]));
    assert_eq!(status, 200);
    for i in 0..3 {
        assert_eq!(outcome_of(&doc, i), "compiled");
    }
    assert_eq!(handle.metrics().synth_fresh(), 1, "exactly one fresh synthesis in total");
    handle.shutdown();
}

#[test]
fn concurrent_same_expr_is_one_synthesis() {
    let handle = start(|c| {
        c.permits = 4;
    });
    let compiled = Arc::new(AtomicUsize::new(0));
    let threads: Vec<_> = (0..4)
        .map(|_| {
            let addr = handle.addr();
            let compiled = Arc::clone(&compiled);
            std::thread::spawn(move || {
                let mut stream = TcpStream::connect(addr).unwrap();
                stream.set_read_timeout(Some(Duration::from_secs(120))).unwrap();
                let (status, doc) = {
                    let body = compile_body(&[TRIVIAL], &[]);
                    let (status, reply) =
                        roundtrip(&mut stream, "POST", "/compile", Some(&body)).unwrap();
                    (status, json::parse(&String::from_utf8_lossy(&reply)).unwrap())
                };
                assert_eq!(status, 200);
                if outcome_of(&doc, 0) == "compiled" {
                    compiled.fetch_add(1, Ordering::SeqCst);
                }
            })
        })
        .collect();
    for t in threads {
        t.join().unwrap();
    }
    assert_eq!(compiled.load(Ordering::SeqCst), 4, "every client gets a program");
    // The single-flight registry collapses the stampede to one synthesis.
    assert_eq!(handle.metrics().synth_fresh(), 1);

    // /metrics agrees.
    let mut stream = connect(&handle);
    let (_, body) = roundtrip(&mut stream, "GET", "/metrics", None).unwrap();
    let text = String::from_utf8(body).unwrap();
    assert!(text.contains("rake_served_synth_fresh_total 1"), "{text}");
    assert!(text.contains("rake_served_jobs_total{outcome=\"compiled\"} 4"), "{text}");
    handle.shutdown();
}

#[test]
fn busy_server_answers_429_with_retry_after() {
    let handle = start(|c| {
        c.permits = 1;
        c.queue_slots = 0;
        c.default_timeout = Some(Duration::from_secs(20));
        c.chaos = true;
    });
    let (lanes, heavy) = heavy_workload();
    let refs: Vec<&str> = heavy.iter().map(String::as_str).collect();
    let body = compile_body(&refs, &[("lanes", lanes.into()), hold(5_000)]);
    let addr = handle.addr();
    let holder = std::thread::spawn(move || {
        let mut stream = TcpStream::connect(addr).unwrap();
        stream.set_read_timeout(Some(Duration::from_secs(120))).unwrap();
        let (status, _) = roundtrip(&mut stream, "POST", "/compile", Some(&body)).unwrap();
        status
    });
    // Wait until the heavy request holds the permit.
    let metrics = handle.metrics();
    assert!(
        wait_until(Duration::from_secs(30), || metrics.in_flight() == 1),
        "heavy request never started"
    );

    let mut stream = connect(&handle);
    let body = compile_body(&[TRIVIAL], &[]);
    let (status, reply) = roundtrip(&mut stream, "POST", "/compile", Some(&body)).unwrap();
    assert_eq!(status, 429, "{}", String::from_utf8_lossy(&reply));
    assert_eq!(holder.join().unwrap(), 200);
    handle.shutdown();
}

#[test]
fn client_disconnect_cancels_and_frees_the_worker() {
    let handle = start(|c| {
        c.permits = 1;
        c.default_timeout = Some(Duration::from_secs(60));
        c.chaos = true;
    });
    let (lanes, heavy) = heavy_workload();
    let refs: Vec<&str> = heavy.iter().map(String::as_str).collect();
    // Held for the whole 60-second budget unless cancellation works.
    let body = compile_body(&refs, &[("lanes", lanes.into()), hold(60_000)]);

    // Send the heavy request, then vanish without reading the response.
    let metrics = handle.metrics();
    {
        let mut stream = connect(&handle);
        let head =
            format!("POST /compile HTTP/1.1\r\nhost: t\r\ncontent-length: {}\r\n\r\n", body.len());
        stream.write_all(head.as_bytes()).unwrap();
        stream.write_all(&body).unwrap();
        assert!(
            wait_until(Duration::from_secs(30), || metrics.in_flight() == 1),
            "heavy request never started"
        );
        // Dropping the stream closes the socket → RST/EOF at the server.
    }

    // The disconnect monitor must cancel the batch and free the permit
    // long before the 60-second synthesis budget.
    assert!(
        wait_until(Duration::from_secs(30), || metrics.in_flight() == 0),
        "cancellation did not free the worker"
    );

    // And the next client is served normally.
    let mut stream = connect(&handle);
    let (status, doc) = post_compile(&mut stream, &compile_body(&[TRIVIAL], &[]));
    assert_eq!(status, 200);
    assert_eq!(outcome_of(&doc, 0), "compiled");

    let (_, body) = roundtrip(&mut stream, "GET", "/metrics", None).unwrap();
    let text = String::from_utf8(body).unwrap();
    assert!(text.contains("rake_served_client_disconnects_total 1"), "{text}");
    handle.shutdown();
}

#[test]
fn graceful_drain_finishes_inflight_work() {
    let handle = start(|_| {});
    let addr = handle.addr();

    // A request in flight while we shut down must still be answered.
    let inflight = std::thread::spawn(move || {
        let mut stream = TcpStream::connect(addr).unwrap();
        stream.set_read_timeout(Some(Duration::from_secs(120))).unwrap();
        let body = compile_body(&[TRIVIAL], &[]);
        let (status, _) = roundtrip(&mut stream, "POST", "/compile", Some(&body)).unwrap();
        status
    });
    // Shut down only once the request has demonstrably reached the
    // compile path (in flight, or already through a fresh synthesis) —
    // a fixed pre-shutdown sleep raced the connection on slow machines.
    let metrics = handle.metrics();
    assert!(
        wait_until(Duration::from_secs(30), || {
            metrics.in_flight() > 0 || metrics.synth_fresh() > 0
        }),
        "request never reached the server"
    );
    handle.shutdown();
    assert_eq!(inflight.join().unwrap(), 200, "in-flight request must complete during drain");

    // After drain, the port no longer serves: either the connection is
    // refused or the request gets no response.
    let after = TcpStream::connect(addr).and_then(|mut s| {
        s.set_read_timeout(Some(Duration::from_millis(500)))?;
        roundtrip(&mut s, "GET", "/healthz", None)
    });
    assert!(after.is_err(), "drained server must not serve new requests");
}

#[test]
fn shutdown_does_not_wait_for_an_idle_keep_alive_client() {
    let handle = start(|_| {});
    // One request, then the connection stays open and idle.
    let mut stream = connect(&handle);
    let (status, _) = roundtrip(&mut stream, "GET", "/healthz", None).unwrap();
    assert_eq!(status, 200);
    let t0 = Instant::now();
    handle.shutdown();
    let took = t0.elapsed();
    assert!(took < Duration::from_secs(2), "shutdown waited {took:?} behind an idle client");
    drop(stream);
}

#[test]
fn without_a_read_deadline_a_request_may_pause_midway() {
    // No slow-loris deadline (`--read-timeout-ms 0`): a pause inside a
    // request longer than the idle poll slice must not drop it.
    let handle = start(|c| c.read_timeout = None);
    let mut stream = connect(&handle);
    stream.write_all(b"GET /healthz HTTP/1.1\r\n").unwrap();
    std::thread::sleep(Duration::from_millis(200));
    stream.write_all(b"host: t\r\nconnection: close\r\n\r\n").unwrap();
    let mut reply = String::new();
    stream.read_to_string(&mut reply).unwrap();
    assert!(reply.starts_with("HTTP/1.1 200"), "{reply:?}");
    handle.shutdown();
}

#[test]
fn bounded_cache_evicts_and_reports_in_metrics() {
    let handle = start(|c| {
        c.cache_max_entries = Some(2);
    });
    let mut stream = connect(&handle);
    // Three distinct expressions (offsets survive canonicalization) into
    // two cache slots: at least one eviction.
    for dx in 0..3 {
        let expr = format!("(add (load a u8 {dx} 0) (load b u8 {dx} 0))");
        let (status, doc) = post_compile(&mut stream, &compile_body(&[&expr], &[]));
        assert_eq!(status, 200);
        assert_eq!(outcome_of(&doc, 0), "compiled", "{doc}");
    }
    assert!(handle.cache().len() <= 2, "entry cap violated: {}", handle.cache().len());

    let (_, body) = roundtrip(&mut stream, "GET", "/metrics", None).unwrap();
    let text = String::from_utf8(body).unwrap();
    let gauge = |name: &str| -> f64 {
        text.lines()
            .find_map(|l| l.strip_prefix(name))
            .and_then(|rest| rest.trim().parse().ok())
            .unwrap_or(-1.0)
    };
    assert!(gauge("rake_served_cache_entries ") <= 2.0, "{text}");
    assert!(gauge("rake_served_cache_evicted_total ") >= 1.0, "{text}");
    assert!(gauge("rake_served_cache_bytes ") > 0.0, "{text}");
    handle.shutdown();
}

#[test]
fn warm_restart_resumes_from_persisted_state() {
    let dir = std::env::temp_dir().join(format!("rake-served-warm-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let cache_dir = dir.join("cache");
    let journal = dir.join("events.jsonl");

    let cold = start(|c| {
        c.cache_dir = Some(cache_dir.clone());
        c.log_path = Some(journal.clone());
    });
    let mut stream = connect(&cold);
    let (status, doc) = post_compile(&mut stream, &compile_body(&[TRIVIAL], &[]));
    assert_eq!(status, 200);
    assert_eq!(outcome_of(&doc, 0), "compiled");
    assert_eq!(cold.metrics().synth_fresh(), 1);
    drop(stream);
    cold.shutdown();
    assert!(journal.exists(), "journal must be written");

    // A restarted server loads the persisted cache and serves the same
    // expression without any fresh synthesis.
    let warm = start(|c| {
        c.cache_dir = Some(cache_dir.clone());
        c.log_path = Some(journal.clone());
    });
    let mut stream = connect(&warm);
    let (status, doc) = post_compile(&mut stream, &compile_body(&[TRIVIAL], &[]));
    assert_eq!(status, 200);
    assert_eq!(outcome_of(&doc, 0), "compiled");
    let result = &doc.get("results").unwrap().as_arr().unwrap()[0];
    assert_eq!(result.get("cache_hit").and_then(Json::as_bool), Some(true));
    assert_eq!(warm.metrics().synth_fresh(), 0, "warm restart must not re-synthesize");

    let (_, body) = roundtrip(&mut stream, "GET", "/metrics", None).unwrap();
    let text = String::from_utf8(body).unwrap();
    assert!(text.contains("rake_served_cache_loaded_total 1"), "{text}");
    warm.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn metrics_agree_with_what_the_client_sent() {
    let handle = start(|_| {});
    let mut stream = connect(&handle);
    // Cold and warm requests, with one expression and with several.
    let other = "(max (load a u8 0 0) (load b u8 0 0))";
    let requests: [&[&str]; 4] =
        [&[TRIVIAL], &[TRIVIAL], &[TRIVIAL, other], &[other, TRIVIAL, TRIVIAL]];
    let mut client_seconds = 0.0;
    for exprs in requests {
        let t0 = Instant::now();
        let (status, doc) = post_compile(&mut stream, &compile_body(exprs, &[]));
        client_seconds += t0.elapsed().as_secs_f64();
        assert_eq!(status, 200, "{doc}");
    }
    let sent = requests.len() as f64;
    let exprs_sent = requests.iter().map(|r| r.len()).sum::<usize>() as f64;

    let (_, body) = roundtrip(&mut stream, "GET", "/metrics", None).unwrap();
    let text = String::from_utf8(body).unwrap();
    let sample = |name: &str| -> f64 {
        text.lines()
            .find_map(|l| l.strip_prefix(name)?.strip_prefix(' '))
            .and_then(|v| v.parse().ok())
            .unwrap_or_else(|| panic!("no sample {name}:\n{text}"))
    };
    assert_eq!(sample("rake_served_requests_total{endpoint=\"compile\"}"), sent, "{text}");
    assert_eq!(sample("rake_served_responses_total{code=\"200\"}"), sent, "{text}");
    assert_eq!(sample("rake_served_compile_latency_seconds_count"), sent, "{text}");
    assert_eq!(sample("rake_served_compile_latency_seconds_bucket{le=\"+Inf\"}"), sent, "{text}");
    // The server's latency nests inside each round trip the client timed.
    let server_seconds = sample("rake_served_compile_latency_seconds_sum");
    assert!(server_seconds <= client_seconds, "{server_seconds} s > {client_seconds} s: {text}");
    let buckets: Vec<f64> = text
        .lines()
        .filter_map(|l| l.strip_prefix("rake_served_compile_latency_seconds_bucket{"))
        .map(|l| l.rsplit(' ').next().unwrap().parse().unwrap())
        .collect();
    assert!(buckets.len() > 1, "{text}");
    assert!(buckets.windows(2).all(|w| w[0] <= w[1]), "buckets decrease: {buckets:?}");
    let jobs: f64 = text
        .lines()
        .filter_map(|l| l.strip_prefix("rake_served_jobs_total{"))
        .map(|l| l.rsplit(' ').next().unwrap().parse::<f64>().unwrap())
        .sum();
    assert_eq!(jobs, exprs_sent, "{text}");
    handle.shutdown();
}

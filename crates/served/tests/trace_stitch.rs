//! End-to-end trace stitching across the `--isolate` process boundary:
//! one `/compile` request against an isolated server must produce a
//! single Chrome trace whose worker-subprocess spans (including the
//! individual SMT queries) are parented under the server-side job span.
//! A worker crash mid-job must still yield a well-formed (if partial)
//! trace — the server-side spans close normally; the dead worker's spans
//! are simply absent.

use std::collections::{HashMap, HashSet};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::time::Duration;

use driver::json::{self, Json};
use served::http::roundtrip;
use served::{ServerConfig, ServerHandle};

#[allow(dead_code)]
mod common;
use common::start_with_retry;

/// A tile that lifts and lowers in milliseconds but still reaches the
/// solver: its lift verification issues an `smt.prove_unsat` query (one
/// that normalization decides while the query is built).
const SMT_TILE: &str = "(absd (load a u8 0 0) (load b u8 0 0))";
/// A distinct key for the crash half of the test.
const CRASH_TILE: &str = "(add (load a u8 3 0) (load b u8 3 0))";

fn worker_cmd() -> Vec<String> {
    vec![env!("CARGO_BIN_EXE_rake-served").to_owned(), "worker".to_owned()]
}

fn post_compile(handle: &ServerHandle, body: &Json) -> (u16, Json) {
    let mut stream = TcpStream::connect(handle.addr()).expect("connect");
    stream.set_read_timeout(Some(Duration::from_secs(120))).unwrap();
    let bytes = body.to_string().into_bytes();
    let (status, reply) =
        roundtrip(&mut stream, "POST", "/compile", Some(&bytes)).expect("roundtrip");
    let doc = json::parse(&String::from_utf8_lossy(&reply)).unwrap_or(Json::Null);
    (status, doc)
}

/// One exported span, decoded from the trace-event JSON.
struct Span {
    name: String,
    cat: String,
    span: u64,
    parent: u64,
    pid: u64,
    /// Duration in microseconds.
    dur: i64,
}

/// Load and strictly decode a `rake-trace-v1` file; panics on any
/// malformed event (this is the well-formedness assertion).
fn load_trace(path: &Path) -> Vec<Span> {
    let text = std::fs::read_to_string(path).expect("read trace file");
    let doc = json::parse(&text).expect("trace file parses as JSON");
    assert_eq!(doc.get("schema").and_then(Json::as_str), Some("rake-trace-v1"), "schema tag");
    let events = doc.get("traceEvents").and_then(Json::as_arr).expect("traceEvents array");
    assert!(!events.is_empty(), "trace must not be empty");
    events
        .iter()
        .map(|ev| {
            assert_eq!(ev.get("ph").and_then(Json::as_str), Some("X"), "{ev}");
            let args = ev.get("args").expect("args");
            let id = |k: &str| -> u64 {
                let hex = args.get(k).and_then(Json::as_str).expect("hex id");
                u64::from_str_radix(hex, 16).expect("id parses")
            };
            for k in ["ts", "dur"] {
                assert!(
                    ev.get(k).and_then(Json::as_i64).is_some_and(|n| n >= 0),
                    "{k} must be a non-negative number: {ev}"
                );
            }
            Span {
                name: ev.get("name").and_then(Json::as_str).expect("name").to_owned(),
                cat: ev.get("cat").and_then(Json::as_str).expect("cat").to_owned(),
                span: id("span"),
                parent: id("parent"),
                pid: ev.get("pid").and_then(Json::as_i64).expect("pid") as u64,
                dur: ev.get("dur").and_then(Json::as_i64).expect("dur"),
            }
        })
        .collect()
}

/// Walk the parent chain of `s` and report whether it passes through
/// `ancestor` before reaching a root.
fn has_ancestor(spans: &HashMap<u64, &Span>, s: &Span, ancestor: u64) -> bool {
    let mut cursor = s.parent;
    for _ in 0..64 {
        if cursor == ancestor {
            return true;
        }
        match spans.get(&cursor) {
            Some(p) => cursor = p.parent,
            None => return false,
        }
    }
    false
}

fn trace_file(dir: &Path, doc: &Json) -> PathBuf {
    let id = doc.get("trace_id").and_then(Json::as_str).expect("response echoes trace_id");
    let path = dir.join(format!("trace-{id}.json"));
    assert!(path.exists(), "trace file {} must exist", path.display());
    path
}

#[test]
fn isolated_compile_stitches_worker_smt_spans_under_the_job() {
    let dir = std::env::temp_dir().join(format!("rake-trace-stitch-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let handle = start_with_retry(|| ServerConfig {
        addr: "127.0.0.1:0".to_owned(),
        isolate: true,
        pool_workers: 1,
        worker_cmd: Some(worker_cmd()),
        chaos: true,
        trace_out: Some(dir.clone()),
        ..ServerConfig::default()
    });

    let (status, doc) = post_compile(&handle, &Json::obj([("expr", SMT_TILE.into())]));
    assert_eq!(status, 200, "{doc}");
    let spans = load_trace(&trace_file(&dir, &doc));
    let by_id: HashMap<u64, &Span> = spans.iter().map(|s| (s.span, s)).collect();

    let root = spans
        .iter()
        .find(|s| s.name == "http.request")
        .expect("server-side http.request root span");
    assert_eq!(root.parent, 0, "http.request must be the root");
    let job = spans.iter().find(|s| s.name == "driver.job").expect("driver.job span");
    assert!(has_ancestor(&by_id, job, root.span), "driver.job must sit under http.request");
    // A one-expression batch runs its job on the connection thread itself,
    // whose span stack already holds the batch span.
    let batch = spans.iter().find(|s| s.name == "driver.batch").expect("driver.batch span");
    assert_eq!(job.parent, batch.span, "driver.job must nest under driver.batch");

    // The worker subprocess contributed its spans into the same tree:
    // `worker.compile` is parented (transitively) under the server-side
    // job span, and carries a different pid than the server.
    let server_pid = u64::from(std::process::id());
    let worker = spans
        .iter()
        .find(|s| s.name == "worker.compile")
        .expect("worker-side compile span shipped back over the frame protocol");
    assert_ne!(worker.pid, server_pid, "worker.compile must come from the subprocess");
    assert!(
        has_ancestor(&by_id, worker, job.span),
        "worker.compile must stitch under the server-side driver.job"
    );

    // Individual SMT queries from inside the worker, parented under its
    // compile span.
    let worker_smt: Vec<&Span> =
        spans.iter().filter(|s| s.cat == "smt" && s.pid == worker.pid).collect();
    assert!(
        !worker_smt.is_empty(),
        "worker-side SMT spans must appear in the stitched trace; spans: {:?}",
        spans.iter().map(|s| (&s.name, s.pid)).collect::<Vec<_>>()
    );
    for s in &worker_smt {
        assert!(
            has_ancestor(&by_id, s, worker.span),
            "SMT span {} must sit under worker.compile",
            s.name
        );
    }
    assert!(
        worker_smt.iter().any(|s| s.name == "smt.prove_unsat"),
        "an absd lift must run at least one real solver query in the worker"
    );

    // Crash mid-job: the worker dies before shipping spans, so the trace
    // holds only server-side spans — but stays well-formed, with the job
    // span closed.
    let (status, doc) =
        post_compile(&handle, &Json::obj([("expr", CRASH_TILE.into()), ("chaos", "abort".into())]));
    assert_eq!(status, 200, "{doc}");
    let outcome = doc
        .get("results")
        .and_then(Json::as_arr)
        .and_then(|r| r.first())
        .and_then(|r| r.get("outcome"))
        .and_then(Json::as_str)
        .unwrap_or("?");
    assert_eq!(outcome, "panicked", "{doc}");
    let crash_spans = load_trace(&trace_file(&dir, &doc));
    let crash_ids: HashSet<u64> = crash_spans.iter().map(|s| s.span).collect();
    assert!(crash_spans.iter().any(|s| s.name == "http.request"), "crash trace keeps its root");
    assert!(
        crash_spans.iter().any(|s| s.name == "driver.job"),
        "crash trace keeps the server-side job span"
    );
    assert!(
        crash_spans.iter().all(|s| s.pid == server_pid),
        "the dead worker cannot have shipped spans"
    );
    // Well-formed partial tree: every parent reference is either present
    // in the file or an explicit root marker (0) — the crashed worker's
    // absence must not leave dangling internal edges on the server side.
    for s in &crash_spans {
        assert!(
            s.parent == 0 || crash_ids.contains(&s.parent),
            "span {} has a dangling parent {:016x}",
            s.name,
            s.parent
        );
    }

    handle.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

/// A request's `wall_ms` covers the whole handler, parse and canonical
/// keys included: on a warm request whose expressions are large, those are
/// most of the work, and the reported time must match the request's own
/// `http.request` span.
#[test]
fn warm_wall_ms_covers_parsing_and_keys() {
    let dir = std::env::temp_dir().join(format!("rake-trace-wall-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let handle = start_with_retry(|| ServerConfig {
        addr: "127.0.0.1:0".to_owned(),
        trace_out: Some(dir.clone()),
        max_body_bytes: 1 << 20,
        ..ServerConfig::default()
    });
    // A balanced 64-tap widening sum, repeated up to the per-request cap:
    // one synthesis, then many parses.
    let mut sums: Vec<String> =
        (0..64).map(|i| format!("(cast u16 (load in u8 {} {}))", i % 8, i / 8)).collect();
    while sums.len() > 1 {
        sums = sums.chunks(2).map(|p| format!("(add {} {})", p[0], p[1])).collect();
    }
    let body = Json::obj([("exprs", Json::Arr(vec![Json::Str(sums.remove(0)); 64]))]);
    let (status, doc) = post_compile(&handle, &body);
    assert_eq!(status, 200, "{doc}");
    // The best of three warm requests, so a stall outside the handler's
    // timed work cannot fail the check. Reading the time only after parse
    // and keys puts wall_ms near 40% of the span here; from handler entry
    // it is 75-90%, the rest being the response's serialization.
    let best = (0..3)
        .map(|_| {
            let (status, doc) = post_compile(&handle, &body);
            assert_eq!(status, 200, "{doc}");
            let Some(&Json::Num(wall_ms)) = doc.get("wall_ms") else { panic!("no wall_ms") };
            let spans = load_trace(&trace_file(&dir, &doc));
            let root = spans.iter().find(|s| s.name == "http.request").expect("request span");
            wall_ms / (root.dur as f64 / 1e3)
        })
        .fold(0.0, f64::max);
    assert!(best >= 0.65, "wall_ms covers only {:.0}% of the request span", best * 100.0);
    handle.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

//! The isolated synthesis worker: the hidden `worker` mode of the
//! `rake-served` binary.
//!
//! Under `--isolate`, compilation jobs never run inside the server
//! process. The supervisor ([`crate::supervisor`]) pre-forks a pool of
//! subprocesses — the server's own binary re-executed with the single
//! argument `worker` — and speaks a length-prefixed JSON protocol with
//! each over its stdin/stdout pipes. A worker that aborts, segfaults, is
//! OOM-killed, overflows its stack, or is `kill -9`'d takes down only
//! the jobs it was running; the server's warm cache, admission gate and
//! every other connection survive untouched.
//!
//! ## Wire protocol
//!
//! Each frame is a decimal byte-length line followed by exactly that
//! many payload bytes (`"17\n{\"op\":\"ping\",...}"`). Jobs flow parent →
//! worker on stdin; replies flow worker → parent on stdout, tagged with
//! the job's `id`. stderr is free-form and ends up in the supervisor's
//! crash forensics (last lines only).
//!
//! Job (`op:"compile"`): `id`, `expr` (Halide S-expression), `lanes`,
//! optional `deadline_ms` (budget from now),
//! optional `fault` (`"abort"`, `"oom"`, `"sleep:<ms>"` — the chaos
//! plane, honored before/around the real compile). `op:"ping"` is the
//! supervisor's heartbeat; the reply is `status:"pong"`.
//!
//! Reply statuses: `compiled` (with `uber`/`hvx` S-expressions and a
//! stats block), `error` (a [`rake::CompileError`] by its cache name),
//! `panicked` (a caught unwind, with the payload message), `pong`.
//!
//! Each job builds its selector afresh, as the in-process path does, so
//! the only state a worker carries from job to job is the verifier's
//! process-global SMT proof cache. The synthesis cache belongs to the
//! parent; workers only ever see cache misses.

use std::io::{self, BufRead, Write};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};

use driver::json::{self, Json, ParseLimits};
use synth::LoweringOptions;

/// Upper bound on one frame's payload. A compile job is an S-expression
/// plus knobs; a reply is a program plus stats. Nothing legitimate comes
/// close to this, and a corrupted length prefix must not trigger an
/// unbounded allocation.
pub const MAX_FRAME_BYTES: usize = 4 * 1024 * 1024;

/// Write one length-prefixed frame.
///
/// # Errors
///
/// Propagates pipe failures (the peer is gone).
pub fn write_frame(w: &mut impl Write, payload: &str) -> io::Result<()> {
    // One write: a frame torn between length and payload by a crash is
    // detected by the reader, but no point inviting it.
    let mut wire = format!("{}\n", payload.len()).into_bytes();
    wire.extend_from_slice(payload.as_bytes());
    w.write_all(&wire)?;
    w.flush()
}

/// Read one length-prefixed frame. `Ok(None)` is clean EOF (the peer
/// closed the pipe — for a worker, the signal to exit).
///
/// # Errors
///
/// A malformed length line, an over-limit length, or a payload cut short
/// mid-frame is `InvalidData`; socket/pipe failures pass through.
pub fn read_frame(r: &mut impl BufRead) -> io::Result<Option<Vec<u8>>> {
    let mut line = String::new();
    if r.read_line(&mut line)? == 0 {
        return Ok(None);
    }
    let len: usize = line.trim().parse().map_err(|_| {
        io::Error::new(io::ErrorKind::InvalidData, format!("bad frame length {line:?}"))
    })?;
    if len > MAX_FRAME_BYTES {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("frame of {len} bytes exceeds the {MAX_FRAME_BYTES}-byte cap"),
        ));
    }
    let mut payload = vec![0u8; len];
    r.read_exact(&mut payload)?;
    Ok(Some(payload))
}

/// Run the worker loop over stdin/stdout until the parent closes the
/// pipe, then exit. Never returns.
pub fn worker_main() -> ! {
    let stdin = io::stdin();
    let stdout = io::stdout();
    let mut reader = io::BufReader::new(stdin.lock());
    let mut writer = io::BufWriter::new(stdout.lock());

    loop {
        let payload = match read_frame(&mut reader) {
            Ok(Some(p)) => p,
            // Parent closed our stdin: clean retirement.
            Ok(None) => std::process::exit(0),
            Err(e) => {
                eprintln!("rake-served worker: bad frame: {e}");
                std::process::exit(2);
            }
        };
        let reply = match std::str::from_utf8(&payload).ok().and_then(|text| parse_job(text).ok()) {
            Some(job) => handle_job(&job),
            None => Json::obj([
                ("id", 0u64.into()),
                ("status", "error".into()),
                ("error", "malformed job frame".into()),
            ]),
        };
        if write_frame(&mut writer, &reply.to_string()).is_err() {
            // Parent gone mid-reply; nothing left to serve.
            std::process::exit(0);
        }
    }
}

/// A decoded job frame.
struct Job {
    id: u64,
    op: String,
    expr: String,
    lanes: usize,
    deadline: Option<Duration>,
    fault: Option<String>,
    /// Parent span context: (trace id, parent span id, parent's
    /// monotonic clock in µs at dispatch). Present when the server
    /// traces; the worker's spans join that trace.
    trace: Option<(u64, u64, u64)>,
}

fn parse_job(text: &str) -> Result<Job, ()> {
    let limits = ParseLimits { max_depth: 64, max_bytes: MAX_FRAME_BYTES };
    let doc = json::parse_with_limits(text, limits).map_err(|_| ())?;
    let id = doc.get("id").and_then(Json::as_i64).unwrap_or(0).max(0) as u64;
    let op = doc.get("op").and_then(Json::as_str).unwrap_or("compile").to_owned();
    let trace = doc
        .get("trace")
        .and_then(Json::as_str)
        .and_then(trace::parse_id)
        .zip(doc.get("parent_span").and_then(Json::as_str).and_then(trace::parse_id))
        .map(|(t, p)| {
            (t, p, doc.get("t_now_us").and_then(Json::as_i64).unwrap_or(0).max(0) as u64)
        });
    Ok(Job {
        id,
        op,
        expr: doc.get("expr").and_then(Json::as_str).unwrap_or("").to_owned(),
        lanes: doc.get("lanes").and_then(Json::as_i64).unwrap_or(128).clamp(8, 1024) as usize,
        deadline: doc
            .get("deadline_ms")
            .and_then(Json::as_i64)
            .filter(|&ms| ms > 0)
            .map(|ms| Duration::from_millis(ms as u64)),
        fault: doc.get("fault").and_then(Json::as_str).map(str::to_owned),
        trace,
    })
}

/// Cap on spans shipped back per reply, keeping the frame well under
/// [`MAX_FRAME_BYTES`] even for pathological synthesis runs.
const MAX_REPLY_SPANS: usize = 8192;

fn handle_job(job: &Job) -> Json {
    if job.op == "ping" {
        return Json::obj([("id", job.id.into()), ("status", "pong".into())]);
    }
    let Some((trace_id, parent_span, t_now_us)) = job.trace else {
        return compile_reply(job);
    };
    // The parent traces this job: align our monotonic clock to the
    // parent's (offset applied as records publish), parent our spans
    // under the dispatching span, and ship everything recorded back in
    // the reply so the server can stitch one tree. A worker killed
    // mid-job simply never ships — the server's side of the trace stays
    // well-formed without ours.
    trace::enable();
    trace::set_clock_offset_us(t_now_us as i64 - trace::now_us() as i64);
    let mut reply = {
        let _adopted = trace::adopt(trace::TraceContext { trace_id, span_id: parent_span });
        let mut sp = trace::span("worker.compile", "worker");
        if sp.is_active() {
            sp.arg("lanes", job.lanes);
        }
        let reply = compile_reply(job);
        if sp.is_active() {
            sp.arg("status", reply.get("status").and_then(Json::as_str).unwrap_or("?"));
        }
        reply
    };
    let mut records = trace::drain_trace(trace_id);
    records.truncate(MAX_REPLY_SPANS);
    if let Json::Obj(fields) = &mut reply {
        fields.push(("spans".to_owned(), spans_json(&records)));
    }
    reply
}

/// Serialize completed spans for the reply frame (IDs in hex, times
/// already on the parent's clock).
fn spans_json(records: &[trace::SpanRecord]) -> Json {
    Json::Arr(
        records
            .iter()
            .map(|r| {
                let mut obj = vec![
                    ("seq".to_owned(), r.seq.into()),
                    ("trace".to_owned(), Json::Str(trace::fmt_id(r.trace_id))),
                    ("span".to_owned(), Json::Str(trace::fmt_id(r.span_id))),
                    ("parent".to_owned(), Json::Str(trace::fmt_id(r.parent_id))),
                    ("name".to_owned(), r.name.into()),
                    ("cat".to_owned(), r.cat.into()),
                    ("start_us".to_owned(), r.start_us.into()),
                    ("dur_us".to_owned(), r.dur_us.into()),
                    ("pid".to_owned(), u64::from(r.pid).into()),
                ];
                if !r.args.is_empty() {
                    let args = r
                        .args
                        .iter()
                        .map(|(k, v)| {
                            let value = match v {
                                trace::ArgValue::U64(n) => (*n).into(),
                                trace::ArgValue::I64(n) => Json::Num(*n as f64),
                                trace::ArgValue::Str(s) => s.as_str().into(),
                                trace::ArgValue::Bool(b) => (*b).into(),
                            };
                            ((*k).to_owned(), value)
                        })
                        .collect();
                    obj.push(("args".to_owned(), Json::Obj(args)));
                }
                Json::Obj(obj)
            })
            .collect(),
    )
}

fn compile_reply(job: &Job) -> Json {
    // The chaos plane: lethal faults die *here*, inside the sacrificial
    // process, which is the whole point of isolation.
    match job.fault.as_deref() {
        Some("abort") => {
            eprintln!("rake-served worker: chaos abort injected");
            std::process::abort();
        }
        Some("oom") => {
            eprintln!("rake-served worker: chaos oom injected");
            oom_hog();
        }
        Some(f) => {
            if let Some(ms) = crate::server::sleep_fault_ms(f) {
                std::thread::sleep(Duration::from_millis(ms));
            }
        }
        None => {}
    }

    let expr = match halide_ir::sexpr::parse(job.expr.trim()) {
        Ok(e) => e,
        Err(e) => {
            return Json::obj([
                ("id", job.id.into()),
                ("status", "error".into()),
                ("error", "lift_failed".into()),
                ("detail", format!("unparseable expr: {e}").into()),
            ]);
        }
    };

    let rake = crate::server::base_rake(job.lanes);
    let deadline = job.deadline.map(|d| Instant::now() + d);
    let opts = LoweringOptions { deadline, cancel: None, ..rake.options() };
    let selector = rake.with_options(opts);

    match catch_unwind(AssertUnwindSafe(|| selector.compile(&expr))) {
        Ok(Ok(c)) => Json::obj([
            ("id", job.id.into()),
            ("status", "compiled".into()),
            ("uber", uber_ir::sexpr::to_sexpr(&c.uber).into()),
            ("hvx", hvx::sexpr::to_sexpr(&c.hvx).into()),
            (
                "stats",
                Json::obj([
                    ("lifting_queries", c.stats.lifting_queries.into()),
                    ("sketching_queries", c.stats.sketching_queries.into()),
                    ("swizzling_queries", c.stats.swizzling_queries.into()),
                    ("smt_queries", c.stats.smt_queries.into()),
                    ("proof_cache_hits", c.stats.proof_cache_hits.into()),
                    ("env_cache_hits", c.stats.env_cache_hits.into()),
                    ("deadline_exceeded", c.stats.deadline_exceeded.into()),
                ]),
            ),
        ]),
        Ok(Err(e)) => Json::obj([
            ("id", job.id.into()),
            ("status", "error".into()),
            ("error", driver::cache::error_name(&e).into()),
        ]),
        Err(payload) => Json::obj([
            ("id", job.id.into()),
            ("status", "panicked".into()),
            ("detail", driver::panic_message(payload.as_ref()).into()),
        ]),
    }
}

/// Allocate and touch heap until something kills the process: the
/// supervisor's RSS limit in an isolated run, the kernel otherwise.
/// Bounded at 8 GiB so a limitless misconfiguration still terminates.
fn oom_hog() -> ! {
    let mut hog: Vec<Vec<u8>> = Vec::new();
    for _ in 0..(8 * 1024) {
        let mut chunk = vec![0u8; 1024 * 1024];
        for page in chunk.chunks_mut(4096) {
            page[0] = 1;
        }
        hog.push(chunk);
        std::thread::sleep(Duration::from_micros(200));
    }
    std::process::abort();
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frames_roundtrip() {
        let mut wire = Vec::new();
        write_frame(&mut wire, "hello").unwrap();
        write_frame(&mut wire, "").unwrap();
        write_frame(&mut wire, "{\"id\":7}").unwrap();
        let mut r = io::BufReader::new(wire.as_slice());
        assert_eq!(read_frame(&mut r).unwrap(), Some(b"hello".to_vec()));
        assert_eq!(read_frame(&mut r).unwrap(), Some(Vec::new()));
        assert_eq!(read_frame(&mut r).unwrap(), Some(b"{\"id\":7}".to_vec()));
        assert_eq!(read_frame(&mut r).unwrap(), None, "clean EOF");
    }

    #[test]
    fn frames_reject_garbage_and_giant_lengths() {
        let mut r = io::BufReader::new(&b"not-a-number\nxx"[..]);
        assert!(read_frame(&mut r).is_err());
        let huge = format!("{}\n", MAX_FRAME_BYTES + 1);
        let mut r = io::BufReader::new(huge.as_bytes());
        assert!(read_frame(&mut r).is_err());
        // Torn payload: length promises more bytes than arrive.
        let mut r = io::BufReader::new(&b"10\nshort"[..]);
        assert!(read_frame(&mut r).is_err());
    }

    #[test]
    fn jobs_compile_error_and_pong_in_process() {
        let ping = parse_job(r#"{"op":"ping","id":3}"#).unwrap();
        let reply = handle_job(&ping);
        assert_eq!(reply.get("status").and_then(Json::as_str), Some("pong"));
        assert_eq!(reply.get("id").and_then(Json::as_i64), Some(3));

        let job = parse_job(r#"{"id":4,"expr":"(add (load a u8 0 0) (load b u8 0 0))","lanes":8}"#)
            .unwrap();
        let reply = handle_job(&job);
        assert_eq!(reply.get("status").and_then(Json::as_str), Some("compiled"), "{reply}");
        assert!(reply.get("hvx").and_then(Json::as_str).is_some());
        assert!(reply.get("uber").and_then(Json::as_str).is_some());

        let bad = parse_job(r#"{"id":5,"expr":"(((","lanes":8}"#).unwrap();
        let reply = handle_job(&bad);
        assert_eq!(reply.get("status").and_then(Json::as_str), Some("error"), "{reply}");
        assert_eq!(reply.get("id").and_then(Json::as_i64), Some(5));
    }
}

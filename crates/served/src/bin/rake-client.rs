//! `rake-client` — command-line client for `rake-served`.
//!
//! ```sh
//! echo '(add (load a u8 0 0) (load b u8 0 0))' | rake-client --addr 127.0.0.1:8347
//! rake-client --addr 127.0.0.1:8347 --metrics
//! ```
//!
//! Options:
//!   --addr HOST:PORT   server address (required)
//!   --lanes N          vectorization width knob (default 128)
//!   --timeout-ms N     per-job synthesis budget
//!   --validate         differentially validate the compiled program
//!   --retries N        retry transient failures (connection errors, 429,
//!                      503) up to N times with capped exponential backoff
//!                      and full jitter (default 0)
//!   --retry-max-ms N   cap on a single retry delay (default 2000)
//!   --chaos FAULT      ask the server to inject FAULT (`abort`, `oom`,
//!                      `sleep:<ms>`) worker-side; needs a --chaos server
//!   --json             print the raw response JSON instead of the program
//!   --metrics          GET /metrics and print it
//!   --healthz          GET /healthz and print it
//!   [file.sexp]        expression file (default: stdin)
//!
//! Exit codes mirror `rakec` where they overlap:
//!   0 compiled, 1 usage/connection error, 2 synthesis failed,
//!   3 timed out, 4 validation mismatch, 5 panicked, 6 server busy (429),
//!   7 quarantined (the expression keeps crashing isolated workers)

use std::io::Read as _;
use std::net::TcpStream;
use std::process::ExitCode;
use std::time::Duration;

use driver::json::{self, Json};
use served::http::{backoff_delay, roundtrip, roundtrip_headers};

const EXIT_FAILED: u8 = 2;
const EXIT_TIMED_OUT: u8 = 3;
const EXIT_MISCOMPILE: u8 = 4;
const EXIT_PANICKED: u8 = 5;
const EXIT_BUSY: u8 = 6;
const EXIT_QUARANTINED: u8 = 7;

/// Base delay for the first retry, doubled per attempt up to the cap.
const RETRY_BASE_MS: u64 = 100;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut addr: Option<String> = None;
    let mut lanes: Option<u64> = None;
    let mut timeout_ms: Option<u64> = None;
    let mut validate = false;
    let mut retries: u32 = 0;
    let mut retry_max_ms: u64 = 2000;
    let mut chaos: Option<String> = None;
    let mut raw_json = false;
    let mut do_metrics = false;
    let mut do_healthz = false;
    let mut path: Option<String> = None;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--addr" => match it.next() {
                Some(v) => addr = Some(v.clone()),
                None => return usage("--addr needs HOST:PORT"),
            },
            "--lanes" => match it.next().and_then(|v| v.parse().ok()) {
                Some(v) => lanes = Some(v),
                None => return usage("--lanes needs an integer"),
            },
            "--timeout-ms" => match it.next().and_then(|v| v.parse().ok()) {
                Some(v) => timeout_ms = Some(v),
                None => return usage("--timeout-ms needs an integer"),
            },
            "--validate" => validate = true,
            "--retries" => match it.next().and_then(|v| v.parse().ok()) {
                Some(v) => retries = v,
                None => return usage("--retries needs an integer"),
            },
            "--retry-max-ms" => match it.next().and_then(|v| v.parse().ok()) {
                Some(v) => retry_max_ms = v,
                None => return usage("--retry-max-ms needs an integer"),
            },
            "--chaos" => match it.next() {
                Some(v) => chaos = Some(v.clone()),
                None => return usage("--chaos needs a fault name"),
            },
            "--json" => raw_json = true,
            "--metrics" => do_metrics = true,
            "--healthz" => do_healthz = true,
            "--help" | "-h" => return usage(""),
            other if !other.starts_with('-') => path = Some(other.to_owned()),
            other => return usage(&format!("unknown option `{other}`")),
        }
    }
    let Some(addr) = addr else {
        return usage("--addr is required");
    };

    if do_metrics || do_healthz {
        let mut stream = match TcpStream::connect(&addr) {
            Ok(s) => s,
            Err(e) => {
                eprintln!("rake-client: cannot connect to {addr}: {e}");
                return ExitCode::FAILURE;
            }
        };
        let _ = stream.set_read_timeout(Some(Duration::from_secs(900)));
        let path = if do_metrics { "/metrics" } else { "/healthz" };
        return match roundtrip(&mut stream, "GET", path, None) {
            Ok((status, body)) => {
                print!("{}", String::from_utf8_lossy(&body));
                if status == 200 {
                    ExitCode::SUCCESS
                } else {
                    eprintln!("rake-client: server answered {status}");
                    ExitCode::FAILURE
                }
            }
            Err(e) => {
                eprintln!("rake-client: {e}");
                ExitCode::FAILURE
            }
        };
    }

    let input = match path {
        Some(p) => match std::fs::read_to_string(&p) {
            Ok(s) => s,
            Err(e) => {
                eprintln!("rake-client: cannot read {p}: {e}");
                return ExitCode::FAILURE;
            }
        },
        None => {
            let mut s = String::new();
            if std::io::stdin().read_to_string(&mut s).is_err() {
                eprintln!("rake-client: cannot read stdin");
                return ExitCode::FAILURE;
            }
            s
        }
    };

    let mut req = vec![("expr".to_owned(), Json::Str(input.trim().to_owned()))];
    if let Some(n) = lanes {
        req.push(("lanes".to_owned(), n.into()));
    }
    if let Some(ms) = timeout_ms {
        req.push(("timeout_ms".to_owned(), ms.into()));
    }
    if validate {
        req.push(("validate".to_owned(), true.into()));
    }
    if let Some(fault) = chaos {
        req.push(("chaos".to_owned(), fault.into()));
    }
    let body = Json::Obj(req).to_string();

    // Each attempt uses a fresh connection (the server may close after a
    // 429/503, and a refused connect has no stream at all). Transient
    // failures — transport errors, 429, 503 — retry with capped
    // exponential backoff and full jitter; a 429/503 carrying
    // `Retry-After` has its hint honored instead (still capped).
    let salt = std::process::id() as u64;
    let mut attempt: u32 = 0;
    let (status, body) = loop {
        let result = TcpStream::connect(&addr)
            .map_err(|e| format!("cannot connect to {addr}: {e}"))
            .and_then(|mut stream| {
                let _ = stream.set_read_timeout(Some(Duration::from_secs(900)));
                roundtrip_headers(&mut stream, "POST", "/compile", Some(body.as_bytes()))
                    .map_err(|e| e.to_string())
            });
        match result {
            Ok((status, headers, resp_body))
                if matches!(status, 429 | 503) && attempt < retries =>
            {
                let hinted = headers
                    .iter()
                    .find(|(name, _)| name == "retry-after")
                    .and_then(|(_, v)| v.trim().parse::<u64>().ok())
                    .map(Duration::from_secs);
                let delay = hinted
                    .unwrap_or_else(|| backoff_delay(RETRY_BASE_MS, retry_max_ms, attempt, salt))
                    .min(Duration::from_millis(retry_max_ms.max(1)));
                eprintln!(
                    "rake-client: server answered {status}; retrying in {}ms ({} of {} retries)",
                    delay.as_millis(),
                    attempt + 1,
                    retries,
                );
                std::thread::sleep(delay);
                attempt += 1;
                drop(resp_body);
            }
            Ok((status, _, resp_body)) => break (status, resp_body),
            Err(e) if attempt < retries => {
                let delay = backoff_delay(RETRY_BASE_MS, retry_max_ms, attempt, salt);
                eprintln!(
                    "rake-client: {e}; retrying in {}ms ({} of {} retries)",
                    delay.as_millis(),
                    attempt + 1,
                    retries,
                );
                std::thread::sleep(delay);
                attempt += 1;
            }
            Err(e) => {
                eprintln!("rake-client: {e}");
                return ExitCode::FAILURE;
            }
        }
    };
    let text = String::from_utf8_lossy(&body);
    if status == 429 {
        eprintln!("rake-client: server busy (429); retry later");
        return ExitCode::from(EXIT_BUSY);
    }
    if status != 200 {
        eprintln!("rake-client: server answered {status}: {}", text.trim_end());
        return ExitCode::FAILURE;
    }
    if raw_json {
        println!("{text}");
        return ExitCode::SUCCESS;
    }

    let Ok(doc) = json::parse(&text) else {
        eprintln!("rake-client: unparseable response: {text}");
        return ExitCode::FAILURE;
    };
    let Some(result) = doc.get("results").and_then(Json::as_arr).and_then(|r| r.first()) else {
        eprintln!("rake-client: response has no results: {text}");
        return ExitCode::FAILURE;
    };
    let outcome = result.get("outcome").and_then(Json::as_str).unwrap_or("?");
    let cache_hit = result.get("cache_hit").and_then(Json::as_bool).unwrap_or(false);
    match outcome {
        "compiled" => {
            println!("; compiled{}", if cache_hit { " (cache hit)" } else { "" });
            if let Some(cost) = result.get("cost") {
                println!(
                    "; cost: latency {} loads {} cycles {}",
                    cost.get("latency_sum").and_then(Json::as_i64).unwrap_or(0),
                    cost.get("load_units").and_then(Json::as_i64).unwrap_or(0),
                    cost.get("cycles").and_then(Json::as_i64).unwrap_or(0),
                );
            }
            if let Some(program) = result.get("program").and_then(Json::as_str) {
                print!("{program}");
            }
            if let Some(v) = result.get("validation") {
                let mismatches = v.get("mismatches").and_then(Json::as_i64).unwrap_or(0);
                let checks = v.get("checks").and_then(Json::as_i64).unwrap_or(0);
                println!("; differential validation: {checks} points, {mismatches} mismatches");
                if mismatches > 0 {
                    eprintln!("rake-client: MISCOMPILE reported by the server oracle");
                    return ExitCode::from(EXIT_MISCOMPILE);
                }
            }
            ExitCode::SUCCESS
        }
        "failed" => {
            let detail = result.get("detail").and_then(Json::as_str).unwrap_or("unknown");
            eprintln!("rake-client: synthesis failed: {detail}");
            ExitCode::from(EXIT_FAILED)
        }
        "timed_out" | "cancelled" => {
            eprintln!("rake-client: synthesis {outcome}");
            ExitCode::from(EXIT_TIMED_OUT)
        }
        "panicked" => {
            let detail = result.get("detail").and_then(Json::as_str).unwrap_or("unknown");
            eprintln!("rake-client: selector panicked: {detail}");
            ExitCode::from(EXIT_PANICKED)
        }
        "quarantined" => {
            let detail = result.get("detail").and_then(Json::as_str).unwrap_or("unknown");
            eprintln!("rake-client: expression is quarantined: {detail}");
            ExitCode::from(EXIT_QUARANTINED)
        }
        other => {
            eprintln!("rake-client: unknown outcome `{other}`");
            ExitCode::FAILURE
        }
    }
}

fn usage(err: &str) -> ExitCode {
    if !err.is_empty() {
        eprintln!("rake-client: {err}");
    }
    eprintln!(
        "usage: rake-client --addr HOST:PORT [--lanes N] [--timeout-ms N] [--validate] \
         [--retries N] [--retry-max-ms N] [--chaos FAULT] \
         [--json] [file.sexp]\n\
         \x20      rake-client --addr HOST:PORT --metrics | --healthz\n\
         exit codes: 0 compiled, 1 usage/connection, 2 failed, 3 timed out/cancelled, \
         4 miscompile, 5 panicked, 6 busy, 7 quarantined"
    );
    if err.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

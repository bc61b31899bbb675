//! The synthesis performance harness: runs the benchmark workloads with
//! fixed seeds, records per-stage timings (lift / lower / swizzle / SMT),
//! cache hit rates and wall-clock, and writes a `BENCH_4.json` snapshot
//! (schema `rake-perf-v1`, documented in README.md).
//!
//!   --workloads N   run only the first N workloads (CI smoke uses 3)
//!   --full          full-width configuration (default: quick widths)
//!   --no-memo       disable env/value/SMT-proof memoization
//!   --jobs N        worker threads
//!   --out PATH      output path (default: BENCH_4.json)
//!   --check PATH    validate an existing snapshot's structure and exit
//!   --trace-out PATH  record structured spans and write a Chrome
//!                   trace-event JSON for the whole run
//!   --trace-slow-ms N  log spans slower than N ms to stderr
//!
//! ```sh
//! cargo run --release -p rake-bench --bin perf -- --out BENCH_4.json
//! cargo run --release -p rake-bench --bin perf -- --check BENCH_4.json
//! ```
//!
//! Comparing a default run against `--no-memo` (same machine, same flags
//! otherwise) isolates the memoization speedup; the programs synthesized
//! are identical either way.

use std::process::ExitCode;
use std::time::{Duration, Instant};

use driver::json::{self, Json};
use rake_bench::{run_workload_with, RunConfig, ServiceOptions};

struct Args {
    workloads: Option<usize>,
    full: bool,
    memo: bool,
    jobs: Option<usize>,
    out: String,
    check: Option<String>,
    trace_out: Option<String>,
    trace_slow_ms: Option<u64>,
}

fn parse_args() -> Args {
    let mut args = Args {
        workloads: None,
        full: false,
        memo: true,
        jobs: None,
        out: "BENCH_4.json".to_owned(),
        check: None,
        trace_out: None,
        trace_slow_ms: None,
    };
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut it = argv.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--workloads" => args.workloads = it.next().and_then(|v| v.parse().ok()),
            "--full" => args.full = true,
            "--no-memo" => args.memo = false,
            "--jobs" => args.jobs = it.next().and_then(|v| v.parse().ok()),
            "--out" => {
                if let Some(v) = it.next() {
                    args.out = v.clone();
                }
            }
            "--check" => args.check = it.next().cloned(),
            "--trace-out" => args.trace_out = it.next().cloned(),
            "--trace-slow-ms" => args.trace_slow_ms = it.next().and_then(|v| v.parse().ok()),
            other => {
                eprintln!("unknown argument: {other}");
                std::process::exit(2);
            }
        }
    }
    args
}

fn secs(d: Duration) -> Json {
    // Round to microseconds so snapshots stay readable.
    Json::Num((d.as_secs_f64() * 1e6).round() / 1e6)
}

fn main() -> ExitCode {
    let args = parse_args();
    if let Some(path) = &args.check {
        return check_snapshot(path);
    }

    if args.trace_out.is_some() || args.trace_slow_ms.is_some() {
        trace::enable();
        if let Some(ms) = args.trace_slow_ms {
            trace::set_slow_threshold_us(ms.saturating_mul(1000));
        }
    }

    let svc = ServiceOptions { workers: args.jobs, ..ServiceOptions::default() };
    let all = workloads::all();
    let count = args.workloads.unwrap_or(all.len()).min(all.len());
    let mut run_span = trace::span_root("perf.run", "cli", trace::new_trace_id());
    if run_span.is_active() {
        run_span.arg("workloads", count);
        run_span.arg("quick", !args.full);
    }

    let mut per_workload = Vec::new();
    let mut totals = synth::SynthStats::default();
    let mut total_wall = Duration::ZERO;
    let mut all_verified = true;
    let run_start = Instant::now();
    for w in all.into_iter().take(count) {
        let cfg = if args.full { RunConfig::full(&w) } else { RunConfig::quick(&w) };
        let cfg = RunConfig { memoize: args.memo, ..cfg };
        let t0 = Instant::now();
        let run = {
            let mut sp = trace::span("perf.workload", "cli");
            if sp.is_active() {
                sp.arg("name", w.name);
            }
            run_workload_with(&w, cfg, &svc)
        };
        let wall = t0.elapsed();
        let ok = run.all_verified();
        all_verified &= ok;
        eprintln!(
            "{:<16} {:>7.2?}  lift {:>6.2}s  smt {:>5}q/{:>6.2}s  {:>4} proof hits  {}",
            run.name,
            wall,
            run.stats.lifting_time.as_secs_f64(),
            run.stats.smt_queries,
            run.stats.smt_time.as_secs_f64(),
            run.stats.proof_cache_hits,
            if ok { "verified" } else { "MISMATCH" },
        );
        let s = &run.stats;
        per_workload.push(Json::obj([
            ("name", run.name.into()),
            ("wall_s", secs(wall)),
            ("lift_s", secs(s.lifting_time)),
            ("sketch_s", secs(s.sketching_time)),
            ("swizzle_s", secs(s.swizzling_time)),
            ("smt_s", secs(s.smt_time)),
            ("lifting_queries", s.lifting_queries.into()),
            ("sketching_queries", s.sketching_queries.into()),
            ("swizzling_queries", s.swizzling_queries.into()),
            ("smt_queries", s.smt_queries.into()),
            ("proof_cache_hits", s.proof_cache_hits.into()),
            ("env_cache_hits", s.env_cache_hits.into()),
            ("cache_hits", s.cache_hits.into()),
            ("exprs", run.exprs.len().into()),
            ("optimized", run.optimized().into()),
            ("speedup", Json::Num((run.speedup() * 1000.0).round() / 1000.0)),
            ("verified", ok.into()),
        ]));
        totals.merge(&run.stats);
        total_wall += wall;
    }
    drop(run_span);
    if let Some(out) = &args.trace_out {
        let records = trace::drain();
        if let Err(e) = std::fs::write(out, trace::chrome_trace_json(&records)) {
            eprintln!("perf: cannot write trace {out}: {e}");
        }
    }
    if args.trace_slow_ms.is_some() {
        eprint!("{}", trace::slow_log_lines(&trace::drain_slow()));
    }

    let proofs_asked = totals.smt_queries + totals.proof_cache_hits;
    let proof_rate = if proofs_asked > 0 {
        totals.proof_cache_hits as f64 / proofs_asked as f64
    } else {
        0.0
    };
    let doc = Json::obj([
        ("schema", "rake-perf-v1".into()),
        (
            "config",
            Json::obj([
                ("quick", (!args.full).into()),
                ("memoize", args.memo.into()),
                ("jobs", args.jobs.map_or(Json::Null, Json::from)),
                ("workloads", count.into()),
                ("nproc", std::thread::available_parallelism().map_or(1, |n| n.get()).into()),
                ("profile", if cfg!(debug_assertions) { "debug" } else { "release" }.into()),
                ("git_rev", git_rev().into()),
            ]),
        ),
        (
            "totals",
            Json::obj([
                ("wall_s", secs(total_wall)),
                ("harness_wall_s", secs(run_start.elapsed())),
                ("lift_s", secs(totals.lifting_time)),
                ("sketch_s", secs(totals.sketching_time)),
                ("swizzle_s", secs(totals.swizzling_time)),
                ("smt_s", secs(totals.smt_time)),
                ("lifting_queries", totals.lifting_queries.into()),
                ("sketching_queries", totals.sketching_queries.into()),
                ("swizzling_queries", totals.swizzling_queries.into()),
                ("smt_queries", totals.smt_queries.into()),
                ("proof_cache_hits", totals.proof_cache_hits.into()),
                ("env_cache_hits", totals.env_cache_hits.into()),
                ("cache_hits", totals.cache_hits.into()),
                ("proof_hit_rate", Json::Num((proof_rate * 1e4).round() / 1e4)),
                ("verified", all_verified.into()),
            ]),
        ),
        ("workloads", Json::Arr(per_workload)),
    ]);
    std::fs::write(&args.out, format!("{doc}\n")).expect("write snapshot");
    eprintln!(
        "total {:.2}s (lift {:.2}s, smt {:.2}s, {} proof-cache hits, {:.1}% hit rate) -> {}",
        total_wall.as_secs_f64(),
        totals.lifting_time.as_secs_f64(),
        totals.smt_time.as_secs_f64(),
        totals.proof_cache_hits,
        proof_rate * 100.0,
        args.out,
    );
    if all_verified {
        ExitCode::SUCCESS
    } else {
        eprintln!("error: at least one workload output mismatched the interpreter");
        ExitCode::FAILURE
    }
}

/// The checked-out commit, abbreviated, or `unknown` outside a git tree.
fn git_rev() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "--short=12", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map_or_else(
            || "unknown".to_owned(),
            |o| String::from_utf8_lossy(&o.stdout).trim().to_owned(),
        )
}

/// Structural validation of a snapshot (the CI perf-smoke gate): the
/// schema tag, the run's provenance, the totals keys, and a consistent
/// workloads array. No timing thresholds — machine speed must not fail
/// CI.
fn check_snapshot(path: &str) -> ExitCode {
    let fail = |msg: &str| -> ExitCode {
        eprintln!("{path}: {msg}");
        ExitCode::FAILURE
    };
    let Ok(text) = std::fs::read_to_string(path) else {
        return fail("cannot read snapshot");
    };
    let doc = match json::parse(&text) {
        Ok(doc) => doc,
        Err(err) => return fail(&format!("invalid JSON: {err:?}")),
    };
    if doc.get("schema").and_then(Json::as_str) != Some("rake-perf-v1") {
        return fail("missing or unknown schema tag (want rake-perf-v1)");
    }
    for key in ["nproc", "profile", "git_rev"] {
        if doc.get("config").and_then(|c| c.get(key)).is_none() {
            return fail(&format!("config.{key} is missing"));
        }
    }
    let Some(totals) = doc.get("totals") else {
        return fail("missing totals object");
    };
    for key in [
        "wall_s",
        "lift_s",
        "sketch_s",
        "swizzle_s",
        "smt_s",
        "lifting_queries",
        "smt_queries",
        "proof_cache_hits",
        "env_cache_hits",
    ] {
        if !matches!(totals.get(key), Some(Json::Num(_))) {
            return fail(&format!("totals.{key} missing or not a number"));
        }
    }
    if totals.get("verified").and_then(Json::as_bool) != Some(true) {
        return fail("totals.verified is not true");
    }
    let Some(runs) = doc.get("workloads").and_then(Json::as_arr) else {
        return fail("missing workloads array");
    };
    if runs.is_empty() {
        return fail("workloads array is empty");
    }
    let declared = doc.get("config").and_then(|c| c.get("workloads")).and_then(Json::as_i64);
    if declared != Some(runs.len() as i64) {
        return fail("config.workloads disagrees with the workloads array length");
    }
    for (i, run) in runs.iter().enumerate() {
        if run.get("name").and_then(Json::as_str).is_none() {
            return fail(&format!("workloads[{i}].name missing"));
        }
        if !matches!(run.get("wall_s"), Some(Json::Num(_))) {
            return fail(&format!("workloads[{i}].wall_s missing"));
        }
        if run.get("verified").and_then(Json::as_bool) != Some(true) {
            return fail(&format!("workloads[{i}] is not verified"));
        }
    }
    println!("{path}: ok ({} workloads)", runs.len());
    ExitCode::SUCCESS
}

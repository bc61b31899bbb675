//! `chaos` — the driver resilience harness (requires `--features chaos`).
//!
//! Runs the full 21-workload benchmark suite through the driver service
//! layer under seeded, deterministic fault schedules — injected worker
//! panics (string and non-string payloads), forced solver deadline
//! exhaustion, artificial latency — plus cache-file corruption between
//! runs, and asserts the resilience invariants:
//!
//! 1. every batch terminates, with one result per input, in input order;
//! 2. every compiled program passes the differential oracle — injected
//!    faults may cost performance, never correctness;
//! 3. every job handed a forced deadline ends `timed_out` with the
//!    baseline program after its one attempt, and the run fails if no job
//!    was handed one;
//! 4. a corrupted persistent cache is detected, never trusted, and is
//!    healed by the next batch.
//!
//! ```sh
//! cargo run --release -p rake-bench --features chaos --bin chaos
//! cargo run --release -p rake-bench --features chaos --bin chaos -- \
//!     --seeds 1 --limit 6   # the quick CI smoke
//! ```
//!
//! Options:
//!   --seeds N   number of seeded fault schedules to run (default 5)
//!   --base B    base seed; schedule i uses seed B+i (default 3212869637)
//!   --limit N   only the first N workloads (default: all 21)
//!
//! Exits non-zero (with a diagnostic) on the first violated invariant.

use std::process::ExitCode;
use std::time::{Duration, Instant};

use driver::chaos::{corrupt_cache_file, CacheCorruption, Fault, FaultPlan};
use driver::JobOutcome;
use rake::{Rake, Target};
use rake_bench::{bench_verifier, RunConfig, ServiceOptions};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut seeds = 5u64;
    let mut base = 0xBF84_C405u64;
    let mut limit = usize::MAX;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--seeds" => seeds = it.next().and_then(|v| v.parse().ok()).unwrap_or(seeds),
            "--base" => base = it.next().and_then(|v| v.parse().ok()).unwrap_or(base),
            "--limit" => limit = it.next().and_then(|v| v.parse().ok()).unwrap_or(limit),
            other => {
                eprintln!("chaos: unknown option `{other}`");
                eprintln!("usage: chaos [--seeds N] [--base B] [--limit N]");
                return ExitCode::FAILURE;
            }
        }
    }

    // Injected panics are part of the experiment; keep stderr readable.
    std::panic::set_hook(Box::new(|_| {}));

    let workloads: Vec<_> = workloads::all().into_iter().take(limit).collect();
    let started = Instant::now();
    let mut violations = 0usize;
    let mut total_jobs = 0usize;
    let mut total_faulted = 0usize;
    let mut total_forced_deadlines = 0usize;

    for i in 0..seeds {
        let seed = base + i;
        let plan = FaultPlan::seeded(seed);
        let dir = std::env::temp_dir().join(format!("rake-chaos-{}-{seed}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        println!("== schedule seed {seed} ({} workloads) ==", workloads.len());

        for (wi, w) in workloads.iter().enumerate() {
            let cfg = RunConfig::quick(w);
            let rake = Rake::new(Target { lanes: cfg.lanes, vec_bytes: cfg.vec_bytes })
                .with_verifier(bench_verifier(cfg));
            let driver = ServiceOptions {
                cache_dir: Some(dir.clone()),
                workers: Some(4),
                job_timeout: Some(Duration::from_secs(20)),
                validate: true,
                ..ServiceOptions::default()
            }
            .driver(rake)
            .with_chaos(plan.clone());

            // Invariant 4 setup: periodically corrupt the persistent cache
            // between batches; the next batch must detect and heal it.
            if wi > 0 && wi % 7 == 0 {
                let path = dir.join(driver::cache::CACHE_FILE);
                if path.exists() {
                    let corruption = match wi / 7 % 3 {
                        0 => CacheCorruption::TruncatedTail,
                        1 => CacheCorruption::GarbageBytes,
                        _ => CacheCorruption::VersionMismatch,
                    };
                    corrupt_cache_file(&path, corruption, seed).ok();
                }
            }

            let jobs: Vec<_> = w
                .exprs
                .iter()
                .enumerate()
                .map(|(j, e)| (format!("{}[{j}]", w.name), e.clone()))
                .collect();
            let n = jobs.len();
            let report = driver.compile_batch_named(jobs);

            // Invariant 1: the batch terminated, complete and in order.
            if report.results.len() != n
                || report.results.iter().enumerate().any(|(j, r)| r.index != j)
            {
                eprintln!(
                    "VIOLATION [{}, seed {seed}]: results incomplete or out of order",
                    w.name
                );
                violations += 1;
            }
            // Invariant 2: no injected fault may corrupt a compiled program.
            if report.validation_mismatches() > 0 {
                eprintln!(
                    "VIOLATION [{}, seed {seed}]: {} oracle mismatches under fault injection",
                    w.name,
                    report.validation_mismatches()
                );
                violations += 1;
            }
            total_jobs += n;
            total_faulted += report.results.iter().filter(|r| r.fault_injected).count();
            // Invariant 3: a forced deadline ends its job at once, on the
            // baseline program; nothing retries it.
            for r in report.results.iter().filter(|r| {
                r.fault_injected && plan.fault_for(&r.key) == Some(Fault::ForcedDeadline)
            }) {
                total_forced_deadlines += 1;
                if !matches!(r.outcome, JobOutcome::TimedOut) || r.fallback.is_none() {
                    eprintln!(
                        "VIOLATION [{}[{}], seed {seed}]: a forced deadline ended {:?}, \
                         baseline fallback {}",
                        w.name,
                        r.index,
                        r.outcome,
                        if r.fallback.is_some() { "present" } else { "missing" }
                    );
                    violations += 1;
                }
            }
        }

        // Invariant 4 check: after a full schedule (which corrupted the
        // cache several times), a fresh load must be clean and warm.
        let healed = driver::cache::SynthCache::persistent(&dir);
        if healed.stats().corrupted != 0 {
            eprintln!("VIOLATION [seed {seed}]: cache did not self-heal");
            violations += 1;
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    println!(
        "\nchaos: {seeds} schedules x {} workloads, {total_jobs} jobs, \
         {total_faulted} fault-injected, {total_forced_deadlines} forced deadlines, \
         {:.1}s wall",
        workloads.len(),
        started.elapsed().as_secs_f64()
    );
    if total_forced_deadlines == 0 {
        eprintln!("VIOLATION: no job was handed a forced deadline — invariant 3 went unexercised");
        violations += 1;
    }
    if violations > 0 {
        eprintln!("chaos: {violations} invariant violations");
        return ExitCode::FAILURE;
    }
    println!("chaos: all invariants held");
    ExitCode::SUCCESS
}

//! End-to-end tests of the driver service layer: cache keying, warm
//! starts, the worker pool's dedup guarantee, and fault isolation.

use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use halide_ir::builder::*;
use halide_ir::Expr;
use lanes::ElemType::{U16, U8};
use rake::{Rake, Target};
use rake_driver::cache::{CacheEntry, SynthCache, CACHE_FILE, LOG_FILE};
use rake_driver::event::DriverEvent;
use rake_driver::{canon, json, Driver, DriverConfig, JobOutcome};
use synth::Verifier;

fn rake8() -> Rake {
    Rake::new(Target::hvx_small(8)).with_verifier(Verifier::fast())
}

fn tile(buffer: &str, dx: i32) -> Expr {
    widen(load(buffer, U8, dx, 0))
}

/// `u16(b(x)) + u16(b(x+1))` — small enough to synthesize in milliseconds.
fn pair_sum(buffer: &str) -> Expr {
    add(tile(buffer, 0), tile(buffer, 1))
}

fn tmp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("rake-driver-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

#[test]
fn alpha_equivalent_exprs_share_a_key() {
    let driver = Driver::new(rake8());
    // Renamed buffers and commuted operands map to the same key.
    let a = add(tile("in", 0), tile("other", 1));
    let b = add(tile("img", 0), tile("aux", 1));
    let c = add(tile("other", 1), tile("in", 0));
    assert_eq!(driver.cache_key(&a), driver.cache_key(&b));
    assert_eq!(driver.cache_key(&a), driver.cache_key(&c));
    // Different offsets are different computations.
    let shifted = add(tile("in", 0), tile("other", 2));
    assert_ne!(driver.cache_key(&a), driver.cache_key(&shifted));
}

#[test]
fn target_and_options_are_part_of_the_key() {
    let e = pair_sum("in");
    let base = Driver::new(rake8());
    let wider = Driver::new(Rake::new(Target::hvx_small(16)).with_verifier(Verifier::fast()));
    assert_ne!(base.cache_key(&e), wider.cache_key(&e));

    let opts = synth::LoweringOptions { aligned_loads: true, ..rake8().options() };
    let ablated = Driver::new(rake8().with_options(opts));
    assert_ne!(base.cache_key(&e), ablated.cache_key(&e));

    // The deadline is excluded: it bounds the search, not the answer.
    let opts = synth::LoweringOptions {
        deadline: Some(std::time::Instant::now() + Duration::from_secs(3600)),
        ..rake8().options()
    };
    let deadlined = Driver::new(rake8().with_options(opts));
    assert_eq!(base.cache_key(&e), deadlined.cache_key(&e));
}

#[test]
fn warm_persistent_cache_runs_zero_queries() {
    let dir = tmp_dir("warm");
    let config =
        || DriverConfig { workers: 2, cache_dir: Some(dir.clone()), ..DriverConfig::default() };
    let jobs = || {
        vec![
            ("pair".to_owned(), pair_sum("in")),
            ("absd".to_owned(), absd(load("a", U8, 0, 0), load("b", U8, 0, 0))),
        ]
    };

    let cold = Driver::new(rake8()).with_config(config());
    let cold_report = cold.compile_batch_named(jobs());
    assert_eq!(cold_report.compiled(), 2);
    assert!(cold_report.stats.lifting_queries > 0);
    assert!(cold_report.stats.sketching_queries > 0);
    assert_eq!(cold_report.stats.cache_hits, 0);

    // A brand-new driver process against the same cache directory must
    // answer entirely from the persistent layer: zero synthesis queries.
    let warm = Driver::new(rake8()).with_config(config());
    let warm_report = warm.compile_batch_named(jobs());
    assert_eq!(warm_report.compiled(), 2);
    assert_eq!(warm_report.stats.lifting_queries, 0);
    assert_eq!(warm_report.stats.sketching_queries, 0);
    assert_eq!(warm_report.stats.swizzling_queries, 0);
    assert_eq!(warm_report.stats.cache_hits, 2);
    for event in &warm_report.events {
        if let DriverEvent::JobFinished(r) = event {
            assert!(r.cache_hit, "job {} missed the warm cache", r.index);
        }
    }
    // Warm results match the cold ones exactly (renaming round-trips).
    for (c, w) in cold_report.results.iter().zip(&warm_report.results) {
        let (JobOutcome::Compiled(c), JobOutcome::Compiled(w)) = (&c.outcome, &w.outcome) else {
            panic!("both runs must compile");
        };
        assert_eq!(c.hvx, w.hvx);
        assert_eq!(c.program.len(), w.program.len());
    }

    // An alpha-renamed variant also hits the warm cache, renamed back to
    // its own buffer names.
    let variant = Driver::new(rake8()).with_config(config());
    let report = variant.compile_batch(&[pair_sum("renamed")]);
    assert_eq!(report.stats.lifting_queries, 0);
    let JobOutcome::Compiled(compiled) = &report.results[0].outcome else {
        panic!("variant must compile from cache");
    };
    assert!(compiled.hvx.to_string().contains("renamed"));

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn stress_one_synthesis_per_unique_key_and_stable_order() {
    let uniques: Vec<Expr> = vec![
        pair_sum("in"),
        absd(load("a", U8, 0, 0), load("b", U8, 0, 0)),
        add(tile("in", 0), mul(tile("in", 1), bcast(3, U16))),
        add(load("x", U8, 0, 0), load("x", U8, 1, 0)),
    ];
    // 8 duplicates of each unique expression, alpha-renamed half the time,
    // interleaved so every worker sees a mix.
    let mut batch = Vec::new();
    for round in 0..8 {
        for e in &uniques {
            let e = if round % 2 == 0 {
                e.clone()
            } else {
                // Alpha-rename every buffer: `in` -> `alias_in`, etc.
                let map: HashMap<String, String> = canon::canonicalize(e)
                    .to_original
                    .values()
                    .map(|orig| (orig.clone(), format!("alias_{orig}")))
                    .collect();
                canon::rename_expr(e, &map)
            };
            batch.push(e);
        }
    }
    assert_eq!(batch.len(), 32);

    let run = || {
        let syntheses: Arc<Mutex<HashMap<String, usize>>> = Arc::new(Mutex::new(HashMap::new()));
        let total = Arc::new(AtomicUsize::new(0));
        let rake = rake8();
        let counted = {
            let syntheses = Arc::clone(&syntheses);
            let total = Arc::clone(&total);
            let rake = rake.clone();
            move |e: &Expr, _deadline: Option<Instant>, _cancel: Option<synth::CancelFlag>| {
                let key = halide_ir::sexpr::to_sexpr(&canon::canonicalize(e).expr);
                *syntheses.lock().unwrap().entry(key).or_insert(0) += 1;
                total.fetch_add(1, Ordering::SeqCst);
                rake.compile(e)
            }
        };
        let driver = Driver::new(rake)
            .with_config(DriverConfig { workers: 8, ..DriverConfig::default() })
            .with_compile_fn(counted);
        let report = driver.compile_batch(&batch);
        (report, syntheses, total)
    };

    let (report, syntheses, total) = run();
    // Exactly one synthesis per unique canonical key, despite 8 workers
    // racing over 32 jobs.
    assert_eq!(total.load(Ordering::SeqCst), uniques.len());
    assert!(syntheses.lock().unwrap().values().all(|&n| n == 1));
    assert_eq!(report.results.len(), batch.len());
    assert_eq!(report.compiled(), batch.len());
    assert_eq!(report.stats.cache_hits as usize, batch.len() - uniques.len());
    // Results are in input order with per-input keys.
    for (i, r) in report.results.iter().enumerate() {
        assert_eq!(r.index, i);
    }
    // Duplicates of a key all selected the same instruction sequence.
    let mut programs: HashMap<&str, String> = HashMap::new();
    for r in &report.results {
        let JobOutcome::Compiled(c) = &r.outcome else { panic!("all must compile") };
        let text = canon::rename_hvx(&c.hvx, &canon::canonicalize(&batch[r.index]).to_canonical)
            .to_string();
        assert_eq!(programs.entry(r.key.as_str()).or_insert_with(|| text.clone()), &text);
    }

    // A second identical run is deterministic: same key sequence, same
    // outcome kinds, in the same order.
    let (again, _, _) = run();
    let keys = |rep: &rake_driver::BatchReport| {
        rep.results.iter().map(|r| r.key.clone()).collect::<Vec<_>>()
    };
    assert_eq!(keys(&report), keys(&again));
}

#[test]
fn one_job_batch_runs_on_the_calling_thread() {
    let rake = rake8();
    let inner = rake.clone();
    let ran_on = Arc::new(Mutex::new(Vec::new()));
    let seen = Arc::clone(&ran_on);
    let driver = Driver::new(rake)
        .with_config(DriverConfig { workers: 4, ..DriverConfig::default() })
        .with_compile_fn(move |e: &Expr, _, _| {
            seen.lock().unwrap().push(std::thread::current().id());
            inner.compile(e)
        });
    let report = driver.compile_batch(&[pair_sum("in")]);
    assert_eq!(report.compiled(), 1);
    assert_eq!(*ran_on.lock().unwrap(), vec![std::thread::current().id()]);
}

#[test]
fn two_jobs_on_two_workers_run_at_once() {
    // Each compile waits, up to a bound, until both have started: run one
    // after the other, the first one's wait times out.
    let started = Arc::new((Mutex::new(0usize), Condvar::new()));
    let overlapped = Arc::new(AtomicUsize::new(0));
    let rake = rake8();
    let inner = rake.clone();
    let compile = {
        let overlapped = Arc::clone(&overlapped);
        move |e: &Expr, _, _| {
            let (count, cv) = &*started;
            let mut n = count.lock().unwrap();
            *n += 1;
            cv.notify_all();
            let (n, wait) = cv.wait_timeout_while(n, Duration::from_secs(5), |n| *n < 2).unwrap();
            drop(n);
            if !wait.timed_out() {
                overlapped.fetch_add(1, Ordering::SeqCst);
            }
            inner.compile(e)
        }
    };
    let driver = Driver::new(rake)
        .with_config(DriverConfig { workers: 2, ..DriverConfig::default() })
        .with_compile_fn(compile);
    let report =
        driver.compile_batch(&[pair_sum("in"), absd(load("a", U8, 0, 0), load("b", U8, 0, 0))]);
    assert_eq!(report.compiled(), 2);
    assert_eq!(overlapped.load(Ordering::SeqCst), 2, "the two jobs ran one after the other");
}

#[test]
fn prepared_inputs_compile_like_a_batch() {
    let exprs = [pair_sum("in"), pair_sum("img"), absd(load("a", U8, 0, 0), load("b", U8, 0, 0))];
    let driver = Driver::new(rake8());
    let prepared: Vec<_> = exprs.iter().map(|e| driver.prepare(e.clone())).collect();
    for (p, e) in prepared.iter().zip(&exprs) {
        assert_eq!(p.key(), driver.cache_key(e));
    }
    let fresh = Driver::new(rake8()).compile_batch(&exprs);
    let report = driver.compile_prepared(prepared);
    let summary = |r: &rake_driver::BatchReport| {
        r.results
            .iter()
            .map(|j| (j.key.clone(), j.cache_hit, j.program().map(ToString::to_string)))
            .collect::<Vec<_>>()
    };
    assert_eq!(summary(&report), summary(&fresh));
}

#[test]
fn panicking_job_is_isolated_with_baseline_fallback() {
    let rake = rake8();
    let inner = rake.clone();
    let booms = Arc::new(AtomicUsize::new(0));
    let seen = Arc::clone(&booms);
    let driver = Driver::new(rake)
        .with_config(DriverConfig { workers: 2, ..DriverConfig::default() })
        .with_compile_fn(move |e: &Expr, _, _| {
            if halide_ir::sexpr::to_sexpr(e).contains("boom") {
                seen.fetch_add(1, Ordering::SeqCst);
                panic!("injected selector bug");
            }
            inner.compile(e)
        });
    // The middle job must be structurally distinct from the others, or
    // dedup would serve it from their result before the pool runs it.
    let batch = vec![
        pair_sum("in"),
        mul(tile("boom", 0), tile("boom", 1)),
        absd(load("a", U8, 0, 0), load("b", U8, 0, 0)),
    ];
    let report = driver.compile_batch(&batch);
    assert_eq!(report.results.len(), 3);
    assert!(matches!(report.results[0].outcome, JobOutcome::Compiled(_)));
    assert!(matches!(report.results[2].outcome, JobOutcome::Compiled(_)));
    let JobOutcome::Panicked(msg) = &report.results[1].outcome else {
        panic!("injected panic must surface as Panicked");
    };
    assert!(msg.contains("injected selector bug"));
    assert_eq!(booms.load(Ordering::SeqCst), 1, "a panicked search is not retried");
    // The batch degrades, it does not abort: the baseline selector still
    // provides a program for the poisoned job.
    assert!(report.results[1].fallback.is_some());
    assert!(report.results[1].program().is_some());
    // Panics are not negative-cached: a retry synthesizes fresh.
    assert!(driver.cache().lookup(&report.results[1].key).is_none());
}

#[test]
fn expired_deadline_times_out_job_without_aborting_batch() {
    let driver = Driver::new(rake8()).with_config(DriverConfig {
        workers: 2,
        job_timeout: Some(Duration::ZERO),
        ..DriverConfig::default()
    });
    let batch = vec![pair_sum("in"), absd(load("a", U8, 0, 0), load("b", U8, 0, 0))];
    let report = driver.compile_batch(&batch);
    assert_eq!(report.results.len(), 2);
    for r in &report.results {
        assert!(matches!(r.outcome, JobOutcome::TimedOut), "got {:?}", r.outcome);
        assert!(r.fallback.is_some(), "timed-out job must fall back to baseline");
        // Timeouts are not verdicts; nothing may be negative-cached.
        assert!(driver.cache().lookup(&r.key).is_none());
    }

    // The same driver with the budget lifted compiles everything — the
    // earlier timeouts left no poison behind.
    let retry =
        Driver::new(rake8()).with_config(DriverConfig { workers: 2, ..DriverConfig::default() });
    assert_eq!(retry.compile_batch(&batch).compiled(), 2);
}

#[test]
fn corrupted_persistent_cache_recovers_and_self_heals() {
    let dir = tmp_dir("corrupt-recover");
    std::fs::write(dir.join(CACHE_FILE), "{\"version\":1,\"entries\":[{{{garbage").unwrap();

    let config =
        || DriverConfig { workers: 1, cache_dir: Some(dir.clone()), ..DriverConfig::default() };
    let driver = Driver::new(rake8()).with_config(config());
    assert_eq!(driver.cache().stats().corrupted, 1);
    let report = driver.compile_batch(&[pair_sum("in")]);
    assert_eq!(report.compiled(), 1);

    // The batch rewrote a valid cache file: a fresh load sees the entry.
    let healed = SynthCache::persistent(&dir);
    assert_eq!(healed.len(), 1);
    assert_eq!(healed.stats().corrupted, 0);
    assert!(matches!(healed.lookup(&report.results[0].key), Some(CacheEntry::Compiled(_))));

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn jsonl_event_log_is_written_and_parseable() {
    let dir = tmp_dir("jsonl");
    let log = dir.join("events.jsonl");
    let driver = Driver::new(rake8()).with_config(DriverConfig {
        workers: 2,
        log_path: Some(log.clone()),
        ..DriverConfig::default()
    });
    let report = driver.compile_batch_named(vec![("pair".to_owned(), pair_sum("in"))]);
    assert_eq!(report.compiled(), 1);

    let text = std::fs::read_to_string(&log).unwrap();
    let lines: Vec<&str> = text.lines().collect();
    let kinds: Vec<String> = lines
        .iter()
        .map(|l| json::parse(l).unwrap().get("event").unwrap().as_str().unwrap().to_owned())
        .collect();
    assert_eq!(kinds, ["batch_started", "job_finished", "batch_finished"]);
    let job = json::parse(lines[1]).unwrap();
    assert_eq!(job.get("name").unwrap().as_str(), Some("pair"));
    assert_eq!(job.get("outcome").unwrap().as_str(), Some("compiled"));
    assert_eq!(job.get("cache_hit").unwrap().as_bool(), Some(false));
    assert_eq!(job.get("fault_injected").unwrap().as_bool(), Some(false));
    assert!(job.get("lifting_queries").unwrap().as_i64().unwrap() > 0);

    // The summary table covers the same jobs.
    let table = report.summary_table();
    assert!(table.contains("pair"));
    assert!(table.contains("total: 1 compiled"));

    let _ = std::fs::remove_dir_all(&dir);
}

/// A search that honours its deadline and needs 200 ms under a 300 ms
/// job budget gets the whole budget: it reaches its verdict on the one
/// call, and the verdict is negative-cached.
#[test]
fn one_search_gets_the_whole_deadline() {
    let calls = Arc::new(AtomicUsize::new(0));
    let seen = Arc::clone(&calls);
    let driver = Driver::new(rake8())
        .with_config(DriverConfig {
            workers: 1,
            job_timeout: Some(Duration::from_millis(300)),
            ..DriverConfig::default()
        })
        .with_compile_fn(move |_: &Expr, deadline: Option<Instant>, _| {
            seen.fetch_add(1, Ordering::SeqCst);
            let verdict_at = Instant::now() + Duration::from_millis(200);
            let deadline = deadline.expect("the job has a budget");
            std::thread::sleep(verdict_at.min(deadline).saturating_duration_since(Instant::now()));
            if deadline < verdict_at {
                return Err(rake::CompileError::DeadlineExceeded);
            }
            Err(rake::CompileError::LowerFailed)
        });
    let report = driver.compile_batch(&[pair_sum("in")]);
    let r = &report.results[0];
    assert!(
        matches!(r.outcome, JobOutcome::Failed(rake::CompileError::LowerFailed)),
        "got {:?}",
        r.outcome
    );
    assert_eq!(calls.load(Ordering::SeqCst), 1, "one search per job");
    assert!(r.fallback.is_some());
    assert!(matches!(
        driver.cache().lookup(&r.key),
        Some(CacheEntry::Failed(rake::CompileError::LowerFailed))
    ));
}

#[test]
fn early_deadline_is_not_retried() {
    let calls = Arc::new(AtomicUsize::new(0));
    let seen = Arc::clone(&calls);
    let driver = Driver::new(rake8())
        .with_config(DriverConfig {
            workers: 1,
            job_timeout: Some(Duration::from_secs(60)),
            ..DriverConfig::default()
        })
        .with_compile_fn(move |_: &Expr, _, _| {
            seen.fetch_add(1, Ordering::SeqCst);
            // A starved solver: gives up long before the job's budget.
            Err(rake::CompileError::DeadlineExceeded)
        });
    let report = driver.compile_batch(&[pair_sum("in")]);
    let r = &report.results[0];
    assert!(matches!(r.outcome, JobOutcome::TimedOut), "got {:?}", r.outcome);
    assert_eq!(calls.load(Ordering::SeqCst), 1, "a deadline ends the job at once");
    assert!(r.fallback.is_some(), "a timed-out job carries the baseline program");
    assert!(driver.cache().is_empty(), "a timeout is not a verdict: nothing is cached");
}

/// Crash recovery is a rerun against the same cache directory: compiled
/// and failed jobs come back from the cache, a timed-out job compiles,
/// and the results equal a clean run's. The "crash" leaves a torn final
/// line in the segment log, as a process killed mid-append would.
#[test]
fn rerun_after_a_crash_serves_verdicts_from_the_cache() {
    let dir = tmp_dir("rerun");
    let pair = pair_sum("in");
    let fail = absd(load("a", U8, 0, 0), load("b", U8, 0, 0));
    let slow = add(tile("in", 0), mul(tile("in", 1), bcast(3, U16)));
    let jobs = || {
        vec![
            ("pair".to_owned(), pair.clone()),
            ("fail".to_owned(), fail.clone()),
            ("slow".to_owned(), slow.clone()),
        ]
    };
    // Each run logs the expressions it compiled. `fail` fails
    // deterministically; `slow` times out unless a second of budget is left.
    let run = |dir: &PathBuf, budget: Duration| {
        let calls = Arc::new(Mutex::new(Vec::new()));
        let rake = rake8();
        let inner = rake.clone();
        let (log, fail, slow) = (Arc::clone(&calls), fail.clone(), slow.clone());
        let report = Driver::new(rake)
            .with_config(DriverConfig {
                workers: 1,
                job_timeout: Some(budget),
                cache_dir: Some(dir.clone()),
                ..DriverConfig::default()
            })
            .with_compile_fn(move |e: &Expr, deadline: Option<Instant>, _| {
                log.lock().unwrap().push(halide_ir::sexpr::to_sexpr(e));
                if *e == fail {
                    return Err(rake::CompileError::LowerFailed);
                }
                let budget_left = deadline.map(|d| d.saturating_duration_since(Instant::now()));
                if *e == slow && budget_left.is_some_and(|left| left < Duration::from_secs(1)) {
                    return Err(rake::CompileError::DeadlineExceeded);
                }
                inner.compile(e)
            })
            .compile_batch_named(jobs());
        let calls = calls.lock().unwrap().clone();
        (report, calls)
    };

    let (first, _) = run(&dir, Duration::from_millis(10));
    assert!(matches!(first.results[0].outcome, JobOutcome::Compiled(_)));
    assert!(matches!(first.results[1].outcome, JobOutcome::Failed(_)));
    assert!(matches!(first.results[2].outcome, JobOutcome::TimedOut));
    let log = dir.join(LOG_FILE);
    let mut text = std::fs::read_to_string(&log).expect("the failure was appended to the log");
    text.push_str("{\"key\":\"(add (cast u16"); // torn
    std::fs::write(&log, text).unwrap();

    let (rerun, calls) = run(&dir, Duration::from_secs(60));
    assert_eq!(calls, [halide_ir::sexpr::to_sexpr(&slow)], "only the timed-out job compiles");
    assert!(rerun.results[0].cache_hit && rerun.results[1].cache_hit);
    assert!(!rerun.results[2].cache_hit);
    assert_eq!(rerun.compiled(), 2);

    let clean_dir = tmp_dir("rerun-clean");
    let (clean, _) = run(&clean_dir, Duration::from_secs(60));
    let fingerprint = |rep: &rake_driver::BatchReport| {
        rep.results
            .iter()
            .map(|r| {
                let program = match &r.outcome {
                    JobOutcome::Compiled(c) => c.hvx.to_string(),
                    other => format!("{other:?}"),
                };
                format!("{}|{}|{}|{program}\n", r.index, r.name.as_deref().unwrap_or(""), r.key)
            })
            .collect::<String>()
    };
    assert_eq!(fingerprint(&rerun), fingerprint(&clean));

    // The rerun's own verdict survived the torn tail it appended after:
    // a third run compiles nothing.
    let (third, calls) = run(&dir, Duration::from_secs(60));
    assert!(calls.is_empty(), "third run compiled {calls:?}");
    assert_eq!(fingerprint(&third), fingerprint(&clean));

    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_dir_all(&clean_dir);
}

/// Per-job durability, the whole crash-safety guarantee: by the time job
/// `k` starts compiling, the verdicts of jobs `0..k` (compiled and
/// failed alike) are already in the cache files.
#[test]
fn each_verdict_is_on_disk_before_the_next_job_starts() {
    let dir = tmp_dir("per-job-durable");
    let exprs = vec![
        pair_sum("in"),
        absd(load("a", U8, 0, 0), load("b", U8, 0, 0)),
        add(tile("in", 0), mul(tile("in", 1), bcast(3, U16))),
        sub(tile("in", 0), tile("in", 1)),
    ];
    let keys: Vec<String> = exprs.iter().map(|e| Driver::new(rake8()).cache_key(e)).collect();
    // One line per compile call: the job and which batch keys were on disk.
    let seen: Arc<Mutex<Vec<String>>> = Arc::default();
    let rake = rake8();
    let inner = rake.clone();
    let (record, probe_dir, probe_exprs) = (Arc::clone(&seen), dir.clone(), exprs.clone());
    let driver = Driver::new(rake)
        .with_config(DriverConfig {
            workers: 1,
            cache_dir: Some(dir.clone()),
            ..DriverConfig::default()
        })
        .with_compile_fn(move |e: &Expr, _, _| {
            let job = probe_exprs.iter().position(|x| x == e).expect("a batch expression");
            let on_disk = SynthCache::persistent(&probe_dir);
            let found: Vec<bool> = keys.iter().map(|k| on_disk.contains(k)).collect();
            record.lock().unwrap().push(format!("job {job} found {found:?}"));
            if job == 1 {
                return Err(rake::CompileError::LowerFailed);
            }
            inner.compile(e)
        });
    let report = driver.compile_batch(&exprs);
    assert!(matches!(report.results[1].outcome, JobOutcome::Failed(_)));
    let expect: Vec<String> = (0..exprs.len())
        .map(|job| {
            format!("job {job} found {:?}", (0..exprs.len()).map(|k| k < job).collect::<Vec<_>>())
        })
        .collect();
    assert_eq!(*seen.lock().unwrap(), expect);

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn torn_tail_cache_file_rebuilds_and_repersists() {
    let dir = tmp_dir("torn-tail");
    let config =
        || DriverConfig { workers: 1, cache_dir: Some(dir.clone()), ..DriverConfig::default() };
    let seeded = Driver::new(rake8()).with_config(config());
    assert_eq!(seeded.compile_batch(&[pair_sum("in")]).compiled(), 1);

    // Tear the tail off the cache file, as a crash mid-write would.
    let path = dir.join(CACHE_FILE);
    let bytes = std::fs::read(&path).unwrap();
    std::fs::write(&path, &bytes[..bytes.len() / 2]).unwrap();

    let driver = Driver::new(rake8()).with_config(config());
    assert_eq!(driver.cache().stats().corrupted, 1, "torn file must not be silently reused");
    assert_eq!(driver.cache().len(), 0);
    let report = driver.compile_batch(&[pair_sum("in")]);
    assert_eq!(report.compiled(), 1);
    assert_eq!(report.stats.cache_hits, 0, "a torn cache cannot serve stale hits");

    let healed = SynthCache::persistent(&dir);
    assert_eq!(healed.stats().corrupted, 0);
    assert_eq!(healed.len(), 1);

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn version_mismatch_cache_file_cold_starts_and_repersists() {
    let dir = tmp_dir("version-mismatch");
    let config =
        || DriverConfig { workers: 1, cache_dir: Some(dir.clone()), ..DriverConfig::default() };
    let seeded = Driver::new(rake8()).with_config(config());
    assert_eq!(seeded.compile_batch(&[pair_sum("in")]).compiled(), 1);

    // A future (or mangled) schema version must cold-start, never be
    // misread as current-format entries.
    let path = dir.join(CACHE_FILE);
    let text = std::fs::read_to_string(&path).unwrap().replace("\"version\":1", "\"version\":999");
    std::fs::write(&path, text).unwrap();

    let driver = Driver::new(rake8()).with_config(config());
    assert_eq!(driver.cache().stats().corrupted, 1);
    assert_eq!(driver.cache().len(), 0);
    let report = driver.compile_batch(&[pair_sum("in")]);
    assert_eq!(report.compiled(), 1);
    assert_eq!(report.stats.cache_hits, 0);

    let healed = SynthCache::persistent(&dir);
    assert_eq!(healed.stats().corrupted, 0);
    assert_eq!(healed.len(), 1);

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn validation_passes_honest_programs() {
    let driver = Driver::new(rake8()).with_config(DriverConfig {
        workers: 2,
        validate: true,
        ..DriverConfig::default()
    });
    let batch = vec![pair_sum("in"), absd(load("a", U8, 0, 0), load("b", U8, 0, 0))];
    let report = driver.compile_batch(&batch);
    assert_eq!(report.compiled(), 2);
    assert_eq!(report.validation_mismatches(), 0);
    for r in &report.results {
        let v = r.validation.expect("validate:true must attach an outcome to compiled jobs");
        assert!(v.checks > 0);
        assert_eq!(v.mismatches, 0);
    }
    let validated = report
        .events
        .iter()
        .filter(|e| matches!(e, DriverEvent::JobValidated { mismatches: 0, .. }))
        .count();
    assert_eq!(validated, 2);
}

#[test]
fn validation_flags_a_miscompiled_program() {
    // Inject a selector bug: answer `add` jobs with the program compiled
    // for the corresponding `sub` — structurally plausible, semantically
    // wrong. The differential oracle must flag it.
    let rake = rake8();
    let inner = rake.clone();
    let driver = Driver::new(rake)
        .with_config(DriverConfig { workers: 1, validate: true, ..DriverConfig::default() })
        .with_compile_fn(move |e: &Expr, _, _| {
            let wrong = match e {
                Expr::Binary(b) if b.op == halide_ir::BinOp::Add => {
                    Expr::Binary(halide_ir::Binary {
                        op: halide_ir::BinOp::Sub,
                        lhs: b.lhs.clone(),
                        rhs: b.rhs.clone(),
                    })
                }
                other => other.clone(),
            };
            inner.compile(&wrong)
        });
    let report = driver.compile_batch(&[pair_sum("in")]);
    assert_eq!(report.compiled(), 1);
    let v = report.results[0].validation.expect("compiled job must be validated");
    assert!(v.mismatches > 0, "miscompile must be caught: {v:?}");
    assert_eq!(report.validation_mismatches(), v.mismatches);
    assert!(report
        .events
        .iter()
        .any(|e| matches!(e, DriverEvent::JobValidated { mismatches, .. } if *mismatches > 0)));
}

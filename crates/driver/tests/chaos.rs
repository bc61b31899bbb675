//! Fault-injection tests of the driver (feature `chaos`): the seeded
//! chaos plane drives deadline and panic handling, panic capture, and
//! cache self-healing end to end.
#![cfg(feature = "chaos")]

use std::sync::Once;
use std::time::Duration;

use halide_ir::builder::*;
use halide_ir::Expr;
use lanes::ElemType::{U16, U8};
use rake::{Rake, Target};
use rake_driver::chaos::{corrupt_cache_file, CacheCorruption, Fault, FaultPlan};
use rake_driver::{Driver, DriverConfig, JobOutcome};
use synth::Verifier;

fn rake8() -> Rake {
    Rake::new(Target::hvx_small(8)).with_verifier(Verifier::fast())
}

fn tile(buffer: &str, dx: i32) -> Expr {
    widen(load(buffer, U8, dx, 0))
}

/// Injected panics are expected here; keep the test output readable.
fn quiet_panics() {
    static ONCE: Once = Once::new();
    ONCE.call_once(|| {
        std::panic::set_hook(Box::new(|_| {}));
    });
}

fn batch() -> Vec<(String, Expr)> {
    vec![
        ("pair".to_owned(), add(tile("in", 0), tile("in", 1))),
        ("absd".to_owned(), absd(load("a", U8, 0, 0), load("b", U8, 0, 0))),
        ("madd".to_owned(), add(tile("in", 0), mul(tile("in", 1), bcast(3, U16)))),
        ("wide".to_owned(), mul(tile("x", 0), tile("y", 0))),
        ("shift".to_owned(), add(load("s", U8, 0, 0), load("s", U8, 2, 0))),
    ]
}

/// Scan for a seed whose schedule satisfies `want` — the plan is a pure
/// function of (seed, key), so this costs microseconds and keeps
/// the test deterministic without hand-picked magic constants.
fn find_seed(want: impl Fn(&FaultPlan) -> bool) -> FaultPlan {
    (0..10_000)
        .map(FaultPlan::seeded)
        .find(want)
        .expect("a satisfying seed exists in the first 10k")
}

#[test]
fn chaos_batches_terminate_in_order_with_honest_results() {
    quiet_panics();
    for seed in [1, 7, 42] {
        let driver = Driver::new(rake8())
            .with_config(DriverConfig {
                workers: 4,
                job_timeout: Some(Duration::from_secs(30)),
                validate: true,
                ..DriverConfig::default()
            })
            .with_chaos(FaultPlan::seeded(seed));
        let report = driver.compile_batch_named(batch());
        // The batch terminates with every input answered, in input order.
        assert_eq!(report.results.len(), batch().len());
        for (i, r) in report.results.iter().enumerate() {
            assert_eq!(r.index, i);
        }
        // Whatever the faults did, no compiled program may be dishonest.
        assert_eq!(report.validation_mismatches(), 0, "seed {seed} leaked a miscompile");
    }
}

/// A batch under a seed whose schedule hands some job `fault`: the driver
/// and that job's result.
fn faulted_job(fault: Fault) -> (Driver, rake_driver::JobResult) {
    let probe = Driver::new(rake8());
    let jobs = batch();
    let keys: Vec<String> = jobs.iter().map(|(_, e)| probe.cache_key(e)).collect();
    let plan = find_seed(|p| keys.iter().any(|k| p.fault_for(k) == Some(fault)));
    let driver = Driver::new(rake8())
        .with_config(DriverConfig {
            workers: 2,
            job_timeout: Some(Duration::from_secs(60)),
            ..DriverConfig::default()
        })
        .with_chaos(plan.clone());
    let report = driver.compile_batch_named(jobs);
    let r = report
        .results
        .into_iter()
        .find(|r| plan.fault_for(&r.key) == Some(fault))
        .expect("the probed job is in the batch");
    (driver, r)
}

#[test]
fn forced_deadline_times_out_with_the_baseline_program() {
    quiet_panics();
    let (driver, r) = faulted_job(Fault::ForcedDeadline);
    assert!(r.fault_injected, "the injected fault must be flagged on the result");
    assert!(matches!(r.outcome, JobOutcome::TimedOut), "got {:?}", r.outcome);
    assert!(r.fallback.is_some(), "a timed-out job carries the baseline program");
    // A timeout is not a verdict: nothing negative-cached.
    assert!(driver.cache().lookup(&r.key).is_none());
}

#[test]
fn non_string_panic_payload_is_captured_with_type_info() {
    quiet_panics();
    let (driver, r) = faulted_job(Fault::PanicNonStr);
    assert!(r.fault_injected);
    let JobOutcome::Panicked(msg) = &r.outcome else {
        panic!("expected a panic outcome, got {:?}", r.outcome);
    };
    assert!(
        msg.contains("i32(42)"),
        "non-string payloads must be captured with type info, got: {msg}"
    );
    assert!(r.fallback.is_some(), "a panicked job carries the baseline program");
    // A panic is not a verdict: nothing negative-cached.
    assert!(driver.cache().lookup(&r.key).is_none());
}

#[test]
fn cache_self_heals_under_every_corruption() {
    quiet_panics();
    let dir = std::env::temp_dir().join(format!("rake-chaos-heal-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let config =
        || DriverConfig { workers: 2, cache_dir: Some(dir.clone()), ..DriverConfig::default() };
    let path = dir.join(rake_driver::cache::CACHE_FILE);

    let seeded = Driver::new(rake8()).with_config(config());
    let reference = seeded.compile_batch_named(batch());
    assert_eq!(reference.compiled(), batch().len());

    for (round, corruption) in [
        CacheCorruption::TruncatedTail,
        CacheCorruption::GarbageBytes,
        CacheCorruption::VersionMismatch,
    ]
    .into_iter()
    .enumerate()
    {
        corrupt_cache_file(&path, corruption, round as u64).unwrap();
        let driver = Driver::new(rake8()).with_config(config());
        let report = driver.compile_batch_named(batch());
        // The damaged file never panics the driver and never serves stale
        // bits; the batch recompiles what was lost and repersists.
        assert_eq!(report.compiled(), batch().len(), "{corruption:?} broke the batch");
        let healed = rake_driver::cache::SynthCache::persistent(&dir);
        assert_eq!(healed.stats().corrupted, 0, "{corruption:?} was not healed");
        assert!(healed.len() >= batch().len());
    }

    let _ = std::fs::remove_dir_all(&dir);
}

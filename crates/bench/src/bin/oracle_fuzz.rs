//! `oracle_fuzz` — end-to-end differential fuzzing of the Rake selector.
//!
//! Two sweeps, both judged by the Halide IR interpreter as ground truth:
//!
//! 1. **Workloads**: every expression of all 21 benchmark workloads is
//!    compiled through the driver service layer with differential
//!    validation on, at quick-scaled lane widths.
//! 2. **Generated expressions**: `--cases` seeded random well-typed
//!    expressions from `oracle::gen`, compiled and executed over
//!    boundary-biased adversarial buffers.
//!
//! Any mismatch is shrunk by the delta-debugging minimizer and emitted as
//! a self-contained Rust test + S-expression artifact under
//! `results/repros/`. Exit code is non-zero iff a mismatch was found.
//!
//! ```sh
//! cargo run --release -p rake-bench --bin oracle_fuzz -- --seed 0xRAKE --cases 500
//! # Demo the detect → minimize → repro pipeline against a seeded broken op:
//! cargo run --release -p rake-bench --features broken-op --bin oracle_fuzz -- --broken
//! ```
//!
//! Options:
//!   --seed S       RNG seed: hex with 0x prefix, else decimal, else the
//!                  FNV-1a hash of the literal string (so `0xRAKE` works)
//!   --cases N      generated expressions to fuzz (default 500)
//!   --max-nodes N  AST size cap for generated expressions (default 24)
//!   --lanes N      vector width for the generated sweep (default 8)
//!   --budget SEC   wall-clock cap for the run (workloads get at most half)
//!   --out DIR      repro artifact directory (default results/repros)
//!   --skip-workloads  fuzz generated expressions only
//!   --broken       run the seeded broken-op demo (needs --features broken-op)

use std::cell::RefCell;
use std::collections::HashMap;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use driver::{Driver, DriverConfig};
use halide_ir::{Env, Expr};
use lanes::rng::Rng;
use lanes::Vector;
use oracle::{gen_expr, minimize, GenConfig, Oracle};
use rake::{Rake, Target};
use synth::Verifier;

struct Opts {
    seed: u64,
    cases: usize,
    max_nodes: usize,
    lanes: usize,
    budget: Option<Duration>,
    out: std::path::PathBuf,
    skip_workloads: bool,
    broken: bool,
}

/// `0x`-prefixed hex, else decimal, else FNV-1a of the raw string — the
/// last arm makes mnemonic seeds like `0xRAKE` (not valid hex) usable.
fn parse_seed(s: &str) -> u64 {
    if let Some(h) = s.strip_prefix("0x").or_else(|| s.strip_prefix("0X")) {
        if let Ok(v) = u64::from_str_radix(h, 16) {
            return v;
        }
    }
    if let Ok(v) = s.parse::<u64>() {
        return v;
    }
    oracle::fnv1a(s.as_bytes())
}

fn main() -> ExitCode {
    let mut opts = Opts {
        seed: parse_seed("0xRAKE"),
        cases: 500,
        max_nodes: 24,
        lanes: 8,
        budget: None,
        out: "results/repros".into(),
        skip_workloads: false,
        broken: false,
    };
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--seed" => match it.next() {
                Some(v) => opts.seed = parse_seed(v),
                None => return usage("--seed needs a value"),
            },
            "--cases" => match it.next().and_then(|v| v.parse().ok()) {
                Some(v) => opts.cases = v,
                None => return usage("--cases needs an integer"),
            },
            "--max-nodes" => match it.next().and_then(|v| v.parse().ok()) {
                Some(v) => opts.max_nodes = v,
                None => return usage("--max-nodes needs an integer"),
            },
            "--lanes" => match it.next().and_then(|v| v.parse().ok()) {
                Some(v) => opts.lanes = v,
                None => return usage("--lanes needs an integer"),
            },
            "--budget" => match it.next().and_then(|v| v.parse::<f64>().ok()) {
                Some(secs) => opts.budget = Some(Duration::from_secs_f64(secs)),
                None => return usage("--budget needs seconds"),
            },
            "--out" => match it.next() {
                Some(dir) => opts.out = dir.into(),
                None => return usage("--out needs a directory"),
            },
            "--skip-workloads" => opts.skip_workloads = true,
            "--broken" => opts.broken = true,
            "--help" | "-h" => return usage(""),
            other => return usage(&format!("unknown option `{other}`")),
        }
    }

    if opts.broken {
        return broken_demo(&opts);
    }

    let t0 = Instant::now();
    let mut mismatches = 0usize;
    if !opts.skip_workloads {
        mismatches += fuzz_workloads(&opts, t0);
    }
    mismatches += fuzz_generated(&opts, t0);

    if mismatches == 0 {
        println!("oracle_fuzz: zero mismatches in {:.1?} (seed {:#x})", t0.elapsed(), opts.seed);
        ExitCode::SUCCESS
    } else {
        eprintln!(
            "oracle_fuzz: {mismatches} mismatching case(s); repros under {}",
            opts.out.display()
        );
        ExitCode::FAILURE
    }
}

/// A minimizer subject that compiles each candidate expression through the
/// full Rake pipeline, memoized by S-expression (the minimizer re-invokes
/// the subject per shrink candidate).
struct CompilingSubject {
    rake: Rake,
    programs: RefCell<HashMap<String, Option<hvx::Program>>>,
}

impl CompilingSubject {
    fn new(rake: Rake) -> CompilingSubject {
        CompilingSubject { rake, programs: RefCell::new(HashMap::new()) }
    }

    fn run(&self, e: &Expr, env: &Env, x0: i64, y0: i64, lanes: usize) -> Option<Vector> {
        let key = halide_ir::sexpr::to_sexpr(e);
        let mut programs = self.programs.borrow_mut();
        let program = programs
            .entry(key)
            .or_insert_with(|| compile_isolated(&self.rake, e).ok().map(|c| c.program))
            .as_ref()?;
        program.run(env, x0, y0, lanes).ok().map(|v| v.typed_lanes(e.ty()))
    }
}

/// Compile with panic isolation: a selector panic on a fuzzed expression
/// must not kill the fuzzing run.
fn compile_isolated(rake: &Rake, e: &Expr) -> Result<rake::Compiled, String> {
    match std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| rake.compile(e))) {
        Ok(Ok(c)) => Ok(c),
        Ok(Err(err)) => Err(err.to_string()),
        Err(_) => Err("PANIC in selector".to_owned()),
    }
}

/// Shrink one failing point and write its artifacts; returns the paths.
fn shrink_and_emit(
    tag: &str,
    e: &Expr,
    f: &oracle::Failure,
    lanes: usize,
    subject: oracle::Subject,
    out: &std::path::Path,
) -> std::io::Result<oracle::ReproPaths> {
    let repro = minimize(e, &f.env, f.x0, f.y0, lanes, subject);
    println!(
        "  minimized to {} nodes in {} steps: {}",
        halide_ir::analysis::node_count(&repro.expr),
        repro.steps,
        halide_ir::sexpr::to_sexpr(&repro.expr)
    );
    oracle::emit(out, tag, &repro)
}

/// Phase 1: compile all 21 workloads through the validating driver at
/// quick-scaled widths. Returns the number of mismatching expressions.
///
/// Under `--budget`, this phase stops once half the budget is spent so the
/// generated sweep always gets wall-clock too; skips are reported, never
/// silent.
fn fuzz_workloads(opts: &Opts, t0: Instant) -> usize {
    let suite = workloads::all();
    println!("phase 1: {} workloads through the validating driver", suite.len());
    let mut mismatched = 0usize;
    for (wi, w) in suite.iter().enumerate() {
        if let Some(budget) = opts.budget {
            if t0.elapsed() > budget / 2 {
                println!(
                    "  budget half-spent; skipping {} of {} workloads",
                    suite.len() - wi,
                    suite.len()
                );
                break;
            }
        }
        let lanes = (16 * w.lanes / 128).max(4);
        let rake = Rake::new(Target::hvx_small(lanes)).with_verifier(Verifier {
            lanes,
            vec_bytes: lanes,
            ..Verifier::fast()
        });
        let driver = Driver::new(rake.clone()).with_config(DriverConfig {
            workers: 4,
            job_timeout: Some(Duration::from_secs(30)),
            validate: true,
            ..DriverConfig::default()
        });
        let report = driver.compile_batch_named(
            w.exprs
                .iter()
                .enumerate()
                .map(|(i, e)| (format!("{}[{i}]", w.name), e.clone()))
                .collect(),
        );
        let bad = report.validation_mismatches();
        println!(
            "  {:<16} {:>2}/{:<2} compiled  {:>4} mismatches",
            w.name,
            report.compiled(),
            report.results.len(),
            bad
        );
        if bad == 0 {
            continue;
        }
        // Re-derive each failing point with the same oracle geometry the
        // driver used, then shrink it.
        for r in &report.results {
            if r.validation.map_or(true, |v| v.mismatches == 0) {
                continue;
            }
            mismatched += 1;
            let e = &w.exprs[r.index];
            let subject = CompilingSubject::new(rake.clone());
            let run =
                |e: &Expr, env: &Env, x0: i64, y0: i64, l: usize| subject.run(e, env, x0, y0, l);
            let checker = Oracle { lanes, width: lanes + 24, ..Oracle::default() };
            let ty = e.ty();
            let Some(program) = r.program() else { continue };
            let check = checker.check(e, &|env, x0, y0, l| {
                program.run(env, x0, y0, l).ok().map(|v| v.typed_lanes(ty))
            });
            let Some(f) = check.failures.first() else { continue };
            println!(
                "  MISMATCH {}[{}]: lane {} want {} got {}",
                w.name, r.index, f.lane, f.want, f.got
            );
            match shrink_and_emit(w.name, e, f, lanes, &run, &opts.out) {
                Ok(paths) => println!("  repro: {}", paths.test.display()),
                Err(err) => eprintln!("  failed to write repro: {err}"),
            }
        }
    }
    mismatched
}

/// Phase 2: seeded random expressions, compiled directly and compared over
/// adversarial buffers. Returns the number of mismatching cases.
fn fuzz_generated(opts: &Opts, t0: Instant) -> usize {
    let cfg = GenConfig { max_nodes: opts.max_nodes, ..GenConfig::default() };
    let lanes = opts.lanes;
    let rake = Rake::new(Target::hvx_small(lanes)).with_verifier(Verifier::fast());
    let checker = Oracle { lanes, width: lanes + 24, seed: opts.seed, ..Oracle::default() };
    let subject = CompilingSubject::new(rake.clone());
    let run = |e: &Expr, env: &Env, x0: i64, y0: i64, l: usize| subject.run(e, env, x0, y0, l);

    println!(
        "phase 2: {} generated expressions (seed {:#x}, max {} nodes, {} lanes)",
        opts.cases, opts.seed, opts.max_nodes, lanes
    );
    let mut rng = Rng::seed_from_u64(opts.seed);
    let mut mismatched = 0usize;
    let mut compiled = 0usize;
    let mut declined = 0usize;
    let mut decline_reasons: HashMap<String, usize> = HashMap::new();
    for case in 0..opts.cases {
        if let Some(budget) = opts.budget {
            if t0.elapsed() > budget {
                println!("  budget exhausted after {case} cases");
                break;
            }
        }
        let e = gen_expr(&mut rng, &cfg);
        let c = match compile_isolated(&rake, &e) {
            Ok(c) => c,
            Err(reason) => {
                if reason.contains("PANIC") {
                    // A panic is a selector bug even when the output would
                    // have been correct; surface the trigger.
                    eprintln!("  PANIC case {case}: {}", halide_ir::sexpr::to_sexpr(&e));
                }
                *decline_reasons.entry(reason).or_insert(0) += 1;
                declined += 1;
                continue;
            }
        };
        compiled += 1;
        let ty = e.ty();
        let check = checker.check(&e, &|env, x0, y0, l| {
            c.program.run(env, x0, y0, l).ok().map(|v| v.typed_lanes(ty))
        });
        if let Some(f) = check.failures.first() {
            mismatched += 1;
            println!(
                "  MISMATCH case {case}: lane {} want {} got {}\n    {}",
                f.lane,
                f.want,
                f.got,
                halide_ir::sexpr::to_sexpr(&e)
            );
            match shrink_and_emit("fuzz", &e, f, lanes, &run, &opts.out) {
                Ok(paths) => println!("  repro: {}", paths.test.display()),
                Err(err) => eprintln!("  failed to write repro: {err}"),
            }
        }
        if (case + 1) % 100 == 0 {
            println!(
                "  {}/{} cases ({compiled} compiled, {declined} declined) in {:.1?}",
                case + 1,
                opts.cases,
                t0.elapsed()
            );
        }
    }
    println!("  done: {compiled} compiled, {declined} declined, {mismatched} mismatching");
    let mut reasons: Vec<(&String, &usize)> = decline_reasons.iter().collect();
    reasons.sort_by_key(|(_, n)| std::cmp::Reverse(**n));
    for (reason, n) in reasons.into_iter().take(5) {
        println!("    {n:>4} declined: {reason}");
    }
    mismatched
}

/// `--broken`: run the seeded broken-op fixture through the oracle to
/// demonstrate the detect → minimize → repro pipeline end to end.
#[cfg(feature = "broken-op")]
fn broken_demo(opts: &Opts) -> ExitCode {
    use oracle::fixtures::{broken_avg_demo, broken_vavg_subject};
    println!("broken-op demo: selector models vavg with a wrapped (carry-dropping) sum");
    let (e, env) = broken_avg_demo();
    let lanes = opts.lanes;
    // Check at the demo env's own origin rather than sampled ones: the
    // fixture environment is constructed so the carry bit matters.
    let ctx = halide_ir::EvalCtx { env: &env, x0: 0, y0: 0, lanes };
    let want = halide_ir::eval(&e, &ctx).expect("demo expression evaluates");
    let got = broken_vavg_subject(&e, &env, 0, 0, lanes).expect("broken subject executes");
    let Some(lane) = oracle::first_mismatch(&want, &got) else {
        eprintln!("oracle_fuzz: broken op was NOT caught — oracle bug");
        return ExitCode::FAILURE;
    };
    println!(
        "MISMATCH: lane {lane} want {} got {} (seed {:#x})",
        want.get(lane),
        got.get(lane),
        opts.seed
    );
    let f = oracle::Failure { env, x0: 0, y0: 0, lane, want: want.get(lane), got: got.get(lane) };
    match shrink_and_emit("broken_avg", &e, &f, lanes, &broken_vavg_subject, &opts.out) {
        Ok(paths) => {
            println!("repro artifacts:\n  {}\n  {}", paths.sexpr.display(), paths.test.display());
            ExitCode::FAILURE
        }
        Err(err) => {
            eprintln!("oracle_fuzz: failed to write repro: {err}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(not(feature = "broken-op"))]
fn broken_demo(_opts: &Opts) -> ExitCode {
    eprintln!(
        "oracle_fuzz: --broken needs the fixture models; rebuild with\n  \
         cargo run -p rake-bench --features broken-op --bin oracle_fuzz -- --broken"
    );
    ExitCode::FAILURE
}

fn usage(err: &str) -> ExitCode {
    if !err.is_empty() {
        eprintln!("oracle_fuzz: {err}");
    }
    eprintln!(
        "usage: oracle_fuzz [--seed S] [--cases N] [--max-nodes N] [--lanes N] \
         [--budget SEC] [--out DIR] [--skip-workloads] [--broken]"
    );
    if err.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

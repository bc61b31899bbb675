//! `rakec` — compile a Halide IR S-expression to HVX with Rake.
//!
//! Input is the canonical S-expression form of `halide_ir::sexpr` (what
//! the paper's Halide plugin emits for the synthesizer), read from a file
//! argument or stdin.
//!
//! ```sh
//! echo '(add (cast u16 (load in u8 -1 0))
//!            (add (mul (cast u16 (load in u8 0 0)) (bcast 2 u16))
//!                 (cast u16 (load in u8 1 0))))' \
//!   | cargo run --release -p rake-bench --bin rakec -- --trace
//! ```
//!
//! Options:
//!   --lanes N      vectorization width (default 128)
//!   --baseline     also print the pattern-matching baseline's code
//!   --trace        print the lifting trace (Figure 9 style)
//!   --uber         print the lifted Uber-Instruction IR
//!   --cache DIR    persistent synthesis cache (via the rake-driver layer)
//!   --log FILE     append the JSONL event stream
//!   --timeout SEC  wall-clock synthesis budget; past it the baseline
//!                  program is printed instead
//!   --validate     differentially validate the compiled program against
//!                  the Halide IR interpreter on adversarial inputs
//!   --trace-out FILE  record structured spans for the whole compile and
//!                  write a Chrome trace-event JSON (chrome://tracing)
//!   --trace-slow-ms N  log spans slower than N ms to stderr
//!
//! Exit codes distinguish how the compile concluded:
//!   0  compiled
//!   1  usage or input error
//!   2  synthesis failed deterministically
//!   3  synthesis budget exhausted (the baseline program is printed)
//!   4  compiled but the differential oracle found a mismatch (miscompile)
//!   5  the selector panicked
//!   7  the expression is quarantined as a poison pill (it repeatedly
//!      crashed isolated synthesis workers; see rake-served --isolate)

use std::io::Read as _;
use std::process::ExitCode;
use std::time::Duration;

use driver::{Driver, DriverConfig, JobOutcome};
use hvx::SlotBudget;
use rake::{Rake, Target};

const EXIT_FAILED: u8 = 2;
const EXIT_TIMED_OUT: u8 = 3;
const EXIT_MISCOMPILE: u8 = 4;
const EXIT_PANICKED: u8 = 5;
const EXIT_QUARANTINED: u8 = 7;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut lanes = 128usize;
    let mut baseline = false;
    let mut trace = false;
    let mut uber = false;
    let mut validate = false;
    let mut cache_dir: Option<std::path::PathBuf> = None;
    let mut log_path: Option<std::path::PathBuf> = None;
    let mut timeout: Option<Duration> = None;
    let mut trace_out: Option<std::path::PathBuf> = None;
    let mut trace_slow_ms: Option<u64> = None;
    let mut path: Option<String> = None;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--lanes" => match it.next().and_then(|v| v.parse().ok()) {
                Some(v) => lanes = v,
                None => return usage("--lanes needs an integer"),
            },
            "--baseline" => baseline = true,
            "--trace" => trace = true,
            "--uber" => uber = true,
            "--validate" => validate = true,
            "--cache" => match it.next() {
                Some(dir) => cache_dir = Some(dir.into()),
                None => return usage("--cache needs a directory"),
            },
            "--log" => match it.next() {
                Some(file) => log_path = Some(file.into()),
                None => return usage("--log needs a file"),
            },
            "--timeout" => match it.next().and_then(|v| v.parse::<f64>().ok()) {
                Some(secs) => timeout = Some(Duration::from_secs_f64(secs)),
                None => return usage("--timeout needs seconds"),
            },
            "--trace-out" => match it.next() {
                Some(file) => trace_out = Some(file.into()),
                None => return usage("--trace-out needs a file"),
            },
            "--trace-slow-ms" => match it.next().and_then(|v| v.parse::<u64>().ok()) {
                Some(v) => trace_slow_ms = Some(v),
                None => return usage("--trace-slow-ms needs an integer"),
            },
            "--help" | "-h" => return usage(""),
            other if !other.starts_with('-') => path = Some(other.to_owned()),
            other => return usage(&format!("unknown option `{other}`")),
        }
    }
    let input = match path {
        Some(p) => match std::fs::read_to_string(&p) {
            Ok(s) => s,
            Err(e) => {
                eprintln!("rakec: cannot read {p}: {e}");
                return ExitCode::FAILURE;
            }
        },
        None => {
            let mut s = String::new();
            if std::io::stdin().read_to_string(&mut s).is_err() {
                eprintln!("rakec: cannot read stdin");
                return ExitCode::FAILURE;
            }
            s
        }
    };

    let expr = match halide_ir::sexpr::parse(input.trim()) {
        Ok(e) => e,
        Err(e) => {
            eprintln!("rakec: {e}");
            return ExitCode::FAILURE;
        }
    };
    println!("; input: {expr}");

    let vec_bytes = 128.min(lanes.max(8));
    let target = Target { lanes, vec_bytes };
    let driver = Driver::new(Rake::new(target)).with_config(DriverConfig {
        workers: 1,
        job_timeout: timeout,
        cache_dir,
        log_path,
        validate,
        ..DriverConfig::default()
    });
    if trace_out.is_some() || trace_slow_ms.is_some() {
        trace::enable();
        if let Some(ms) = trace_slow_ms {
            trace::set_slow_threshold_us(ms.saturating_mul(1000));
        }
    }
    let report = {
        let mut root = trace::span_root("rakec.compile", "cli", trace::new_trace_id());
        if root.is_active() {
            root.arg("lanes", lanes);
        }
        driver.compile_batch(std::slice::from_ref(&expr))
    };
    if let Some(out) = &trace_out {
        let records = trace::drain();
        if let Err(e) = std::fs::write(out, trace::chrome_trace_json(&records)) {
            eprintln!("rakec: cannot write trace {}: {e}", out.display());
        }
    }
    if trace_slow_ms.is_some() {
        eprint!("{}", trace::slow_log_lines(&trace::drain_slow()));
    }
    let result = &report.results[0];
    if result.cache_hit {
        println!("; served from synthesis cache ({})", result.key);
    }
    match &result.outcome {
        JobOutcome::Compiled(c) => {
            if trace {
                println!("\n; lifting trace");
                for (i, s) in c.trace.steps.iter().enumerate() {
                    println!(";  step {:>2} [{:?}] {}", i + 1, s.rule, s.halide);
                }
            }
            if uber {
                println!("\n; uber-instruction IR\n{}", c.uber);
                println!("; canonical: {}", uber_ir::sexpr::to_sexpr(&c.uber));
            }
            println!(
                "\n; rake codegen (cost: latency {}, loads {})",
                c.program.latency_sum(lanes, vec_bytes),
                c.program.load_units(lanes, vec_bytes)
            );
            print!("{}", c.program);
            println!(
                "; cycles/tile: {}",
                c.program.schedule(lanes, vec_bytes, SlotBudget::hvx()).cycles
            );
            if let Some(v) = &result.validation {
                println!(
                    "; differential validation: {} points, {} mismatches",
                    v.checks, v.mismatches
                );
                if v.mismatches > 0 {
                    eprintln!("rakec: MISCOMPILE — program disagrees with the interpreter");
                    return ExitCode::from(EXIT_MISCOMPILE);
                }
            }
            if baseline {
                match halide_opt::select(&expr, halide_opt::BaselineOptions { lanes, vec_bytes }) {
                    Ok(b) => {
                        let p = b.to_program();
                        println!("\n; baseline codegen");
                        print!("{p}");
                        println!(
                            "; cycles/tile: {}",
                            p.schedule(lanes, vec_bytes, SlotBudget::hvx()).cycles
                        );
                    }
                    Err(e) => println!("\n; baseline: {e}"),
                }
            }
            ExitCode::SUCCESS
        }
        JobOutcome::Failed(e) => {
            eprintln!("rakec: {e}");
            ExitCode::from(EXIT_FAILED)
        }
        JobOutcome::TimedOut => {
            eprintln!("rakec: synthesis budget exhausted; rerun with a larger --timeout");
            print_fallback(result, lanes, vec_bytes);
            ExitCode::from(EXIT_TIMED_OUT)
        }
        JobOutcome::Panicked(msg) => {
            eprintln!("rakec: selector panicked ({msg}); falling back to baseline");
            print_fallback(result, lanes, vec_bytes);
            ExitCode::from(EXIT_PANICKED)
        }
        // rakec never arms a cancellation flag; report it like a timeout
        // if a future caller does.
        JobOutcome::Cancelled => {
            eprintln!("rakec: compilation cancelled");
            ExitCode::from(EXIT_TIMED_OUT)
        }
        JobOutcome::Quarantined(reason) => {
            eprintln!("rakec: expression is quarantined ({reason}); falling back to baseline");
            print_fallback(result, lanes, vec_bytes);
            ExitCode::from(EXIT_QUARANTINED)
        }
    }
}

/// For outcomes without a synthesized program, print the baseline program
/// the driver fell back to (when the baseline covers the expression).
fn print_fallback(result: &driver::JobResult, lanes: usize, vec_bytes: usize) {
    if let Some(p) = &result.fallback {
        println!("\n; baseline fallback codegen");
        print!("{p}");
        println!("; cycles/tile: {}", p.schedule(lanes, vec_bytes, SlotBudget::hvx()).cycles);
    }
}

fn usage(err: &str) -> ExitCode {
    if !err.is_empty() {
        eprintln!("rakec: {err}");
    }
    eprintln!(
        "usage: rakec [--lanes N] [--baseline] [--trace] [--uber] [--validate] \
         [--cache DIR] [--log FILE] [--timeout SEC] \
         [--trace-out FILE] [--trace-slow-ms N] [file.sexp]\n\
         exit codes: 0 compiled, 1 usage/input error, 2 synthesis failed, \
         3 timed out, 4 validation mismatch, 5 selector panicked, \
         7 quarantined poison pill"
    );
    if err.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

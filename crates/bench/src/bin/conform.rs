//! `conform` — metamorphic + differential conformance sweep.
//!
//! Applies the `rake-conform` relation catalog (operand commutation,
//! buffer alpha-renames, offset shifts, strength-reduction round-trips,
//! widen/narrow identities, distribute/factor, constant unfolding, ...)
//! to the 21 paper workloads plus oracle-generated and coverage-seeded
//! expressions. Both sides of every pair compile through the driver
//! service layer (or a running `rake-served`, with `--via-server`) and
//! must produce lane-for-lane identical HVX output on adversarial
//! environments, with the variant's cost inside the relation's declared
//! envelope. Violations are delta-debugged into self-contained repros
//! under `results/repros/conform/`.
//!
//! A coverage layer (the `coverage` feature of `rake-synth`, always on
//! for this binary) counts lifting-rule firings and emitted HVX opcodes;
//! `--coverage-out` writes the `rake-conform-coverage-v1` JSON report.
//!
//! ```sh
//! cargo run --release -p rake-bench --bin conform -- --seed 0xRAKE --check
//! cargo run --release -p rake-bench --bin conform -- --via-server 127.0.0.1:8077
//! ```
//!
//! Options:
//!   --seed S           RNG seed: hex with 0x prefix, else decimal, else
//!                      the FNV-1a hash of the literal string
//!   --relations A,B    run only these relations (default: whole catalog)
//!   --budget SEC       wall-clock cap; exceeding it truncates (and fails
//!                      --check)
//!   --via-server ADDR  compile over HTTP via a running rake-served
//!   --coverage-out F   write the coverage JSON report to this file
//!   --out DIR          repro directory (default results/repros/conform)
//!   --generated N      oracle-generated expressions to sweep (default 12)
//!   --lanes N          width for the generated/seeded sweep (default 8)
//!   --workloads N      sweep only the first N workloads (smokes; default all)
//!   --check            enforce the conformance gate: zero violations,
//!                      zero unsound relations, >= 8 relations applied,
//!                      untruncated sweep
//!   --trace-out FILE   record structured spans for the sweep and write a
//!                      Chrome trace-event JSON
//!   --trace-slow-ms N  log spans slower than N ms to stderr

use std::process::ExitCode;
use std::time::Duration;

use conform::{coverage_report, HarnessConfig};

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

fn usage(err: &str) -> ExitCode {
    if !err.is_empty() {
        eprintln!("conform: {err}");
    }
    eprintln!(
        "usage: conform [--seed S] [--relations A,B] [--budget SEC] [--via-server ADDR]\n\
         \x20              [--coverage-out FILE] [--out DIR] [--generated N] [--lanes N]\n\
         \x20              [--workloads N] [--check] [--trace-out FILE] [--trace-slow-ms N]"
    );
    if err.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(2)
    }
}

fn main() -> ExitCode {
    let mut cfg = HarnessConfig { seed: parse_seed("0xRAKE"), ..HarnessConfig::default() };
    let mut coverage_out: Option<std::path::PathBuf> = None;
    let mut check = false;
    let mut trace_out: Option<std::path::PathBuf> = None;
    let mut trace_slow_ms: Option<u64> = None;

    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--seed" => match it.next() {
                Some(v) => cfg.seed = parse_seed(v),
                None => return usage("--seed needs a value"),
            },
            "--relations" => match it.next() {
                Some(v) => {
                    cfg.relations = Some(v.split(',').map(|s| s.trim().to_owned()).collect());
                }
                None => return usage("--relations needs a comma-separated list"),
            },
            "--budget" => match it.next().and_then(|v| v.parse::<f64>().ok()) {
                Some(secs) => cfg.budget = Some(Duration::from_secs_f64(secs)),
                None => return usage("--budget needs seconds"),
            },
            "--via-server" => match it.next() {
                Some(addr) => cfg.server = Some(addr.clone()),
                None => return usage("--via-server needs host:port"),
            },
            "--coverage-out" => match it.next() {
                Some(f) => coverage_out = Some(f.into()),
                None => return usage("--coverage-out needs a file"),
            },
            "--out" => match it.next() {
                Some(dir) => cfg.out = dir.into(),
                None => return usage("--out needs a directory"),
            },
            "--generated" => match it.next().and_then(|v| v.parse().ok()) {
                Some(v) => cfg.generated = v,
                None => return usage("--generated needs an integer"),
            },
            "--lanes" => match it.next().and_then(|v| v.parse().ok()) {
                Some(v) => cfg.gen_lanes = v,
                None => return usage("--lanes needs an integer"),
            },
            "--workloads" => match it.next().and_then(|v| v.parse().ok()) {
                Some(v) => cfg.workloads = Some(v),
                None => return usage("--workloads needs an integer"),
            },
            "--check" => check = true,
            "--trace-out" => match it.next() {
                Some(f) => trace_out = Some(f.into()),
                None => return usage("--trace-out needs a file"),
            },
            "--trace-slow-ms" => match it.next().and_then(|v| v.parse::<u64>().ok()) {
                Some(v) => trace_slow_ms = Some(v),
                None => return usage("--trace-slow-ms needs an integer"),
            },
            "--help" | "-h" => return usage(""),
            other => return usage(&format!("unknown option `{other}`")),
        }
    }

    if trace_out.is_some() || trace_slow_ms.is_some() {
        trace::enable();
        if let Some(ms) = trace_slow_ms {
            trace::set_slow_threshold_us(ms.saturating_mul(1000));
        }
    }

    let t0 = std::time::Instant::now();
    let summary = {
        let mut root = trace::span_root("conform.run", "cli", trace::new_trace_id());
        if root.is_active() {
            root.arg("seed", cfg.seed);
        }
        match conform::run(&cfg) {
            Ok(s) => s,
            Err(err) => {
                eprintln!("conform: harness failed: {err}");
                return ExitCode::FAILURE;
            }
        }
    };
    if let Some(out) = &trace_out {
        let records = trace::drain();
        if let Err(e) = std::fs::write(out, trace::chrome_trace_json(&records)) {
            eprintln!("conform: cannot write trace {}: {e}", out.display());
        }
    }
    if trace_slow_ms.is_some() {
        eprint!("{}", trace::slow_log_lines(&trace::drain_slow()));
    }

    println!(
        "conform: {} exprs, {} pairs, {} points in {:.1?} (seed {:#x})",
        summary.exprs,
        summary.pairs,
        summary.points,
        t0.elapsed(),
        cfg.seed
    );
    for (name, s) in &summary.per_relation {
        println!(
            "  {name:<16} applied {:>4}  skipped {:>4}  violations {}  cost {}",
            s.applied, s.skipped, s.violations, s.cost_violations
        );
    }
    if summary.truncated {
        println!("  (truncated by --budget; counts above are partial)");
    }

    let report = coverage_report(cfg.seed, &summary);
    let uncovered_rules: Vec<String> = report
        .get("uncovered_rules")
        .and_then(|u| u.as_arr())
        .map(|arr| arr.iter().filter_map(|j| j.as_str().map(str::to_owned)).collect())
        .unwrap_or_default();
    let waived = report.get("waived").and_then(|w| w.as_arr()).map_or(0, |w| w.len());
    println!(
        "coverage: {} rules hit / {} catalogued, {} uncovered ({} waived gaps)",
        synth::coverage::rule_counts().iter().filter(|(_, n)| *n > 0).count(),
        synth::coverage::RULES.len(),
        uncovered_rules.len(),
        waived,
    );
    if !uncovered_rules.is_empty() {
        println!("  uncovered rules: {}", uncovered_rules.join(", "));
    }
    if let Some(path) = &coverage_out {
        if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
            if let Err(err) = std::fs::create_dir_all(dir) {
                eprintln!("conform: cannot create {}: {err}", dir.display());
                return ExitCode::FAILURE;
            }
        }
        if let Err(err) = std::fs::write(path, format!("{report}\n")) {
            eprintln!("conform: cannot write {}: {err}", path.display());
            return ExitCode::FAILURE;
        }
        println!("coverage report: {}", path.display());
    }

    if !summary.clean() {
        eprintln!(
            "conform: {} violation(s), {} cost violation(s), {} unsound relation(s); \
             repros under {}",
            summary.violations,
            summary.cost_violations,
            summary.unsound,
            cfg.out.display()
        );
        return ExitCode::FAILURE;
    }
    if check {
        let applied_relations = summary.per_relation.values().filter(|s| s.applied > 0).count();
        if applied_relations < 8 {
            eprintln!("conform --check: only {applied_relations} relations applied (need >= 8)");
            return ExitCode::FAILURE;
        }
        if summary.truncated {
            eprintln!("conform --check: sweep truncated by budget; gate not satisfied");
            return ExitCode::FAILURE;
        }
    }
    println!("conform: clean");
    ExitCode::SUCCESS
}

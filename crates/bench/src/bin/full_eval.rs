//! The full evaluation driver: runs every benchmark once at full width and
//! writes both the Figure 11 speedup table (with its bar chart, geomean
//! and the paper's reference line) and the Table 1 compilation statistics
//! (with cache hits and suite totals): the data EXPERIMENTS.md records.
//! Prints progress per benchmark; pass `--quick` for the scaled-down
//! configuration, which prints both tables and writes no file (the
//! committed tables are full width).
//!
//! Compilations go through the `rake-driver` service layer:
//!
//!   --cache DIR    persistent synthesis cache (second runs start warm)
//!   --log FILE     append the JSONL driver event stream to FILE
//!   --jobs N       worker threads per workload batch (default: auto)
//!   --timeout SEC  per-expression synthesis budget
//!
//! ```sh
//! cargo run --release -p rake-bench --bin full_eval -- --cache .rake-cache
//! ```

use std::fmt::Write as _;
use std::time::{Duration, Instant};

use rake_bench::{run_workload_with, RunConfig, ServiceOptions};
use synth::SynthStats;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let mut svc = ServiceOptions::default();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--cache" => svc.cache_dir = it.next().map(Into::into),
            "--log" => svc.log_path = it.next().map(Into::into),
            "--jobs" => svc.workers = it.next().and_then(|v| v.parse().ok()),
            "--timeout" => {
                svc.job_timeout =
                    it.next().and_then(|v| v.parse().ok()).map(Duration::from_secs_f64);
            }
            _ => {}
        }
    }
    let mut fig11 = String::new();
    let mut table1 = String::new();
    let _ = writeln!(
        fig11,
        "{:<16} {:>6} {:>6} {:>10} {:>10} {:>8}  bar",
        "benchmark", "exprs", "opt", "baseline", "rake", "speedup"
    );
    let _ = writeln!(
        table1,
        "{:<16} {:>5} {:>8} {:>8} {:>8} {:>5} {:>9} {:>9} {:>9} {:>9}",
        "benchmark",
        "opt",
        "lift-q",
        "sketch-q",
        "swizl-q",
        "hits",
        "lift-s",
        "sketch-s",
        "swizl-s",
        "total-s"
    );
    let mut speedups = Vec::new();
    let mut suite = SynthStats::default();
    let mut optimized = 0;
    for w in workloads::all() {
        let cfg = if quick { RunConfig::quick(&w) } else { RunConfig::full(&w) };
        let t0 = Instant::now();
        let run = run_workload_with(&w, cfg, &svc);
        let ok = run.all_verified();
        eprintln!(
            "{:<16} speedup {:>5.2}x  {}  ({:.1?}, {} cache hits)",
            run.name,
            run.speedup(),
            if ok { "verified" } else { "MISMATCH" },
            t0.elapsed(),
            run.stats.cache_hits
        );
        assert!(ok, "{}: output mismatch against the reference interpreter", run.name);
        let speedup = run.speedup();
        speedups.push(speedup);
        let _ = writeln!(
            fig11,
            "{:<16} {:>6} {:>6} {:>10} {:>10} {:>7.2}x  {}",
            run.name,
            run.exprs.len(),
            run.optimized(),
            run.baseline_cycles,
            run.rake_cycles,
            speedup,
            "#".repeat((speedup * 20.0).round() as usize)
        );
        let s = &run.stats;
        suite.merge(s);
        optimized += run.optimized();
        let _ = writeln!(
            table1,
            "{:<16} {:>5} {:>8} {:>8} {:>8} {:>5} {:>9.2} {:>9.2} {:>9.2} {:>9.2}",
            run.name,
            run.optimized(),
            s.lifting_queries,
            s.sketching_queries,
            s.swizzling_queries,
            s.cache_hits,
            s.lifting_time.as_secs_f64(),
            s.sketching_time.as_secs_f64(),
            s.swizzling_time.as_secs_f64(),
            s.total_time().as_secs_f64()
        );
    }
    let geomean = (speedups.iter().map(|s| s.ln()).sum::<f64>() / speedups.len() as f64).exp();
    let _ = writeln!(
        fig11,
        "\ngeomean speedup: {geomean:.3}x   max: {:.2}x   min: {:.2}x",
        speedups.iter().cloned().fold(f64::MIN, f64::max),
        speedups.iter().cloned().fold(f64::MAX, f64::min)
    );
    let _ = writeln!(
        fig11,
        "paper reports:   avg +18%, max 2.1x (gaussian3x3), min 0.93x (depthwise_conv)"
    );
    let _ = writeln!(
        table1,
        "\nsuite: {optimized} expressions optimized; {} lifting, {} sketching, {} swizzling queries; {} cache hits; {:.2}s total synthesis",
        suite.lifting_queries,
        suite.sketching_queries,
        suite.swizzling_queries,
        suite.cache_hits,
        suite.total_time().as_secs_f64()
    );
    let _ = writeln!(
        table1,
        "paper scale: 450 expressions, ~62 min mean compile time per benchmark (Rosette/Z3)."
    );
    println!("== Figure 11 ==\n{fig11}");
    println!("== Table 1 ==\n{table1}");
    if !quick {
        std::fs::create_dir_all("results").expect("create results dir");
        std::fs::write("results/fig11.txt", &fig11).expect("write fig11");
        std::fs::write("results/table1.txt", &table1).expect("write table1");
        println!("written to results/fig11.txt and results/table1.txt");
    }
}

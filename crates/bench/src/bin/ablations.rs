//! Ablations of the design choices DESIGN.md calls out: backtracking with
//! a tightening cost bound (Algorithm 2), deinterleaved intermediate
//! layouts (§5.1), and aligned-load swizzle synthesis.
//!
//! ```sh
//! cargo run --release -p rake-bench --bin ablations [--quick]
//! ```

use hvx::SlotBudget;
use rake::{Rake, Target};
use rake_bench::{bench_verifier, RunConfig};
use synth::LoweringOptions;

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let names = ["sobel", "gaussian3x3", "conv3x3a16", "mul"];
    println!("Ablation study — cycles/tile per configuration\n");
    println!(
        "{:<14} {:>9} {:>12} {:>11} {:>13}",
        "benchmark", "full", "no-backtrk", "no-layouts", "aligned-loads"
    );
    for name in names {
        let w = workloads::by_name(name).expect("registered");
        let cfg = if quick { RunConfig::quick(&w) } else { RunConfig::full(&w) };
        let base = LoweringOptions {
            lanes: cfg.lanes,
            vec_bytes: cfg.vec_bytes,
            ..LoweringOptions::default()
        };
        let variants = [
            ("full", base),
            ("no-backtrack", LoweringOptions { backtrack: false, ..base }),
            ("no-layouts", LoweringOptions { layouts: false, ..base }),
            ("aligned-loads", LoweringOptions { aligned_loads: true, ..base }),
        ];
        let mut cells = Vec::new();
        for (_, opts) in variants {
            let rake = Rake::new(Target { lanes: cfg.lanes, vec_bytes: cfg.vec_bytes })
                .with_verifier(bench_verifier(cfg))
                .with_options(opts);
            let cycles: u64 = w
                .exprs
                .iter()
                .map(|e| match rake.compile(e) {
                    Ok(c) => c.program.schedule(cfg.lanes, cfg.vec_bytes, SlotBudget::hvx()).cycles,
                    Err(_) => u64::MAX, // lowering failed under this ablation
                })
                .sum();
            cells.push(cycles);
        }
        println!(
            "{:<14} {:>9} {:>12} {:>11} {:>13}",
            name,
            fmt(cells[0]),
            fmt(cells[1]),
            fmt(cells[2]),
            fmt(cells[3])
        );
    }
    println!("\n(no-backtrack = first verified sketch; no-layouts = natural order only;");
    println!(" aligned-loads = unaligned windows synthesized as aligned vmem + valign)");
}

fn fmt(v: u64) -> String {
    if v == u64::MAX {
        "fail".to_owned()
    } else {
        v.to_string()
    }
}

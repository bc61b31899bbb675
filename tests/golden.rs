//! Golden snapshots of the programs Rake synthesizes for all 21 paper
//! workloads at the quick geometry (fixed harness seed).
//!
//! The snapshot for each workload lives in `tests/golden/<name>.txt`.
//! Under each program it records the cycles the VLIW scheduler gives the
//! Rake program and the baseline's, so a codegen change shows its cycle
//! change in the diff.
//! Regenerate after an intended codegen change with:
//!
//! ```sh
//! UPDATE_GOLDEN=1 cargo test --release -p rake-bench --test golden
//! ```
//!
//! The suite runs twice — once with memoization on (the default) and once
//! with it off — and requires byte-identical output under both: the memo
//! tables must be a pure speedup, never a behavioral change.

use std::fmt::Write as _;
use std::path::PathBuf;

use hvx::{Program, SlotBudget};
use rake_bench::{run_workload, RunConfig};

fn golden_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../tests/golden")
}

fn snapshot(w: &workloads::Workload, memoize: bool) -> String {
    let cfg = RunConfig { memoize, ..RunConfig::quick(w) };
    let run = run_workload(w, cfg);
    assert!(run.all_verified(), "{}: output mismatch against the interpreter", w.name);
    let cycles = |p: &Program| p.schedule(cfg.lanes, cfg.vec_bytes, SlotBudget::hvx()).cycles;
    let mut out = String::new();
    let _ = writeln!(out, "# {} (quick geometry)", w.name);
    for (i, e) in run.exprs.iter().enumerate() {
        let _ = writeln!(out, "\n[{i}] {}", e.halide);
        match &e.rake_program {
            Some(p) => {
                let _ = writeln!(out, "{p}");
                let _ = writeln!(
                    out,
                    "cycles: rake {}, baseline {}",
                    cycles(p),
                    cycles(&e.baseline_program)
                );
            }
            None => {
                let _ = writeln!(out, "(baseline: not optimized)");
                let _ = writeln!(out, "cycles: baseline {}", cycles(&e.baseline_program));
            }
        }
    }
    out
}

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "synthesizes all 21 workloads twice; run with: cargo test --release"
)]
fn golden_snapshots_hold_under_both_hot_path_configs() {
    let dir = golden_dir();
    let update = std::env::var("UPDATE_GOLDEN").is_ok();
    if update {
        std::fs::create_dir_all(&dir).expect("create golden dir");
    }
    for memo in [true, false] {
        for w in workloads::all() {
            let got = snapshot(&w, memo);
            let path = dir.join(format!("{}.txt", w.name));
            if update && memo {
                std::fs::write(&path, &got).expect("write golden");
                continue;
            }
            let want = std::fs::read_to_string(&path).unwrap_or_else(|_| {
                panic!("missing {}; regenerate with UPDATE_GOLDEN=1", path.display())
            });
            assert_eq!(
                got, want,
                "{} diverged from its golden snapshot under memo={memo}; \
                 if the change is intended, regenerate with UPDATE_GOLDEN=1",
                w.name
            );
        }
    }
}

//! Integration: full compile-and-execute runs of representative paper
//! benchmarks at scaled width, asserting correctness and the paper's
//! qualitative outcomes (who wins and why).

use rake_bench::{run_workload, RunConfig};
use workloads::by_name;

fn quick(name: &str) -> rake_bench::WorkloadRun {
    let w = by_name(name).unwrap_or_else(|| panic!("{name} registered"));
    run_workload(&w, RunConfig::quick(&w))
}

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "heavy synthesis; run with: cargo test --release -- --ignored"
)]
fn sobel_wins_with_vtmpy() {
    let run = quick("sobel");
    assert!(run.all_verified(), "sobel output mismatch");
    assert_eq!(run.optimized(), run.exprs.len());
    assert!(run.speedup() > 1.05, "sobel should beat the baseline, got {:.3}x", run.speedup());
    let rake_listing = run.exprs[0].rake_program.as_ref().expect("optimized").to_string();
    assert!(rake_listing.contains("vtmpy"), "sobel rake code:\n{rake_listing}");
}

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "heavy synthesis; run with: cargo test --release -- --ignored"
)]
fn gaussian3x3_is_the_biggest_win() {
    let run = quick("gaussian3x3");
    assert!(run.all_verified());
    assert!(run.speedup() > 1.3, "gaussian3x3 should be a large win, got {:.3}x", run.speedup());
    let listing = run.exprs[0].rake_program.as_ref().expect("optimized").to_string();
    assert!(listing.contains("vasr-narrow:rnd:sat"), "gaussian rake code:\n{listing}");
}

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "heavy synthesis; run with: cargo test --release -- --ignored"
)]
fn camera_pipe_drops_redundant_max() {
    let run = quick("camera_pipe");
    assert!(run.all_verified());
    let listing = run.exprs[0].rake_program.as_ref().expect("optimized").to_string();
    let base = run.exprs[0].baseline_program.to_string();
    assert!(!listing.contains("vmax"), "rake should drop the max:\n{listing}");
    assert!(base.contains("vmax"), "baseline keeps the max:\n{base}");
}

#[test]
fn add_uses_widening_multiply_accumulate() {
    let run = quick("add");
    assert!(run.all_verified());
    let listing = run.exprs[0].rake_program.as_ref().expect("optimized").to_string();
    assert!(listing.contains("vmpy-acc"), "add rake code:\n{listing}");
    assert!(run.speedup() >= 1.0);
}

#[test]
fn average_pool_accumulation_fuses() {
    let run = quick("average_pool");
    assert!(run.all_verified());
    // The rounding shift fuses into the narrow: one vasr-narrow:rnd, no
    // separate bias add or shift.
    let listing = run.exprs[1].rake_program.as_ref().expect("optimized").to_string();
    assert_eq!(listing.matches("vasr-narrow:rnd").count(), 1, "average_pool[1]:\n{listing}");
    assert!(!listing.contains("vadd") && !listing.contains("vasr."), "{listing}");
    // Neither expression schedules slower than the baseline's program.
    for (i, e) in run.exprs.iter().enumerate() {
        assert!(
            e.rake_cycles <= e.baseline_cycles,
            "average_pool[{i}]: rake {} cycles, baseline {}",
            e.rake_cycles,
            e.baseline_cycles
        );
    }
}

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "heavy synthesis; run with: cargo test --release -- --ignored"
)]
fn l2norm_semantic_reasoning() {
    let run = quick("l2norm");
    assert!(run.all_verified());
    let listing = run.exprs[0].rake_program.as_ref().expect("optimized").to_string();
    assert!(listing.contains("vmpyie"), "l2norm rake code:\n{listing}");
    let base = run.exprs[0].baseline_program.to_string();
    assert!(!base.contains("vmpyie"), "baseline must not use vmpyie:\n{base}");
    assert!(base.contains("vmpyio"), "baseline uses the vmpyio dance:\n{base}");
}

#[test]
fn elementwise_benchmarks_tie() {
    for name in ["dilate", "max_pool", "median"] {
        let run = quick(name);
        assert!(run.all_verified(), "{name} mismatch");
        let s = run.speedup();
        assert!(
            (0.9..=1.35).contains(&s),
            "{name}: element-wise benchmark should be near parity, got {s:.3}x"
        );
    }
}

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "heavy synthesis; run with: cargo test --release -- --ignored"
)]
fn depthwise_conv_loses_from_layout_isolation() {
    let run = quick("depthwise_conv");
    assert!(run.all_verified());
    assert!(
        run.speedup() < 1.0,
        "depthwise_conv reproduces the paper's regression, got {:.3}x",
        run.speedup()
    );
}

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "heavy synthesis; run with: cargo test --release -- --ignored"
)]
fn matmul_and_fully_connected_verify() {
    for name in ["matmul", "fully_connected", "conv_nn"] {
        let run = quick(name);
        assert!(run.all_verified(), "{name} mismatch");
        assert!(run.optimized() >= 1, "{name}: rake should optimize something");
        assert!(run.speedup() >= 0.95, "{name}: {:.3}x", run.speedup());
    }
}

/// `full_eval --quick` prints both tables and writes nothing: the tables
/// under `results/` are the full-width ones, and a quick run must not
/// overwrite them with quick-geometry rows.
#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "compiles the whole quick suite; run with: cargo test --release"
)]
fn full_eval_quick_prints_its_tables_and_writes_no_file() {
    let dir = std::env::temp_dir().join(format!("rake-full-eval-quick-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_full_eval"))
        .arg("--quick")
        .current_dir(&dir)
        .output()
        .expect("run full_eval");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "full_eval --quick failed:\n{stdout}");
    assert!(stdout.contains("== Figure 11 ==") && stdout.contains("== Table 1 =="), "{stdout}");
    let written: Vec<_> = std::fs::read_dir(&dir).unwrap().map(|e| e.unwrap().path()).collect();
    assert!(written.is_empty(), "full_eval --quick wrote {written:?}");
    let _ = std::fs::remove_dir_all(&dir);
}

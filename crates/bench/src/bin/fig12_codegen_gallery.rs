//! Figure 12: five representative optimizations Rake discovers that the
//! baseline rule set misses — missing patterns (average_pool, camera_pipe,
//! add) and semantic reasoning (l2norm, gaussian3x3). Each listing is
//! annotated with its latency sum and the cycles the VLIW scheduler gives
//! it.
//!
//! ```sh
//! cargo run --release -p rake-bench --bin fig12_codegen_gallery
//! ```

use halide_ir::Expr;
use hvx::{Program, SlotBudget};
use rake::{Rake, Target};

fn show(group: &str, bench: &str, e: &Expr, lanes: usize) {
    println!("== Figure 12 [{group}] {bench} ==");
    println!("Halide IR:  {e}\n");
    let bo = halide_opt::BaselineOptions { lanes, vec_bytes: 128 };
    let baseline = halide_opt::select(e, bo).expect("baseline covers").to_program();
    let rake =
        Rake::new(Target { lanes, vec_bytes: 128 }).compile(e).expect("rake compiles").program;
    let cost = |p: &Program| {
        let cycles = p.schedule(lanes, 128, SlotBudget::hvx()).cycles;
        format!("/* Latency: {}, cycles: {cycles} */", p.latency_sum(lanes, 128))
    };
    println!("-- Halide-style codegen  {}", cost(&baseline));
    print!("{baseline}");
    println!("-- Rake codegen          {}", cost(&rake));
    print!("{rake}");
    println!();
}

fn main() {
    let pick = |name: &str, idx: usize| {
        let w = workloads::by_name(name).unwrap_or_else(|| panic!("{name} registered"));
        (w.exprs[idx].clone(), w.lanes)
    };

    let (e, lanes) = pick("average_pool", 1);
    show("missing pattern", "average_pool: rounding shift fused into vasr-narrow:rnd", &e, lanes);

    let (e, lanes) = pick("camera_pipe", 0);
    show("missing pattern", "camera_pipe: saturating pack subsumes the max", &e, lanes);

    let (e, lanes) = pick("add", 0);
    show("missing pattern", "add: shift folded into widening multiply-add", &e, lanes);

    let (e, lanes) = pick("l2norm", 0);
    show("semantic reasoning", "l2norm: vmpyie licensed by a non-negativity proof", &e, lanes);

    let (e, lanes) = pick("gaussian3x3", 0);
    show("semantic reasoning", "gaussian3x3: fused vasr-rnd-sat licensed by range", &e, lanes);
}

//! Figure 4: the three Sobel-filter code-generation deltas between the
//! baseline pattern matcher and Rake — the 3-point `vtmpy` fusion (a), the
//! `vmpa.acc` accumulator fusion (b), and the saturate fusion (c) — with
//! latency and load counts from the bundled cost model.
//!
//! ```sh
//! cargo run --release -p rake-bench --bin fig4_sobel_codegen
//! ```

use halide_ir::builder::*;
use halide_ir::Expr;
use hvx::Program;
use lanes::ElemType::{U16, U8};
use rake::{Rake, Target};

const LANES: usize = 128;

fn show(label: &str, e: &Expr) {
    println!("== Figure 4 ({label}) ==");
    println!("Halide IR:  {e}\n");
    let baseline = halide_opt::select(e, halide_opt::BaselineOptions::hvx())
        .expect("baseline covers sobel")
        .to_program();
    let rake = Rake::new(Target::hvx()).compile(e).expect("rake compiles sobel").program;
    let stat = |p: &Program| {
        format!("Latency: {}, Loads: {}", p.latency_sum(LANES, 128), p.load_units(LANES, 128))
    };
    println!("-- Halide-style codegen  /* {} */", stat(&baseline));
    print!("{baseline}");
    println!("-- Rake codegen          /* {} */", stat(&rake));
    print!("{rake}");
    println!();
}

fn main() {
    // (a) The 3-point horizontal convolution: vtmpy vs vmpa + vadd + vzxt.
    let t = |dx| widen(load("input", U8, dx, 1));
    let row = add(add(t(-1), mul(t(0), bcast(2, U16))), t(1));
    show("a: sliding-window reduction", &row);

    // (b) The vertical column sum: vmpa.acc vs vmpa + vadd.
    let c = |dy| widen(load("input", U8, -1, dy));
    let col = add(add(c(-1), mul(c(0), bcast(2, U16))), c(1));
    show("b: accumulator fusion", &col);

    // (c) The saturating narrow on the gradient magnitude.
    let sobel = workloads::by_name("sobel").expect("registered");
    show("c: saturate fusion (full Sobel output)", &sobel.exprs[0]);
}

//! Rake's synthesis engine (§3–§5 of the paper).
//!
//! Instruction selection is decomposed into three synthesis stages, each a
//! search over candidates discharged by an equivalence oracle:
//!
//! 1. **Lifting** ([`lift`]) — Algorithm 1: bottom-up enumerative synthesis
//!    from Halide IR into the Uber-Instruction IR via `update` / `replace` /
//!    `extend` candidate rules, greedily folding each Halide operation into
//!    the existing uber-expression.
//! 2. **Swizzle-free sketch synthesis** ([`lower`]) — Algorithm 2: for each
//!    uber-instruction, enumerate concrete HVX compute templates in
//!    increasing cost under a tightening upper bound β, abstracting data
//!    movement (`??load` / `??swizzle`).
//! 3. **Swizzle synthesis** ([`swizzle`]) — concretize the data-movement
//!    holes with real loads and permutes (`vmem`, `valign`, `vcombine`,
//!    `vshuffvdd`, ...) under the remaining cost budget, including the
//!    interleaved/deinterleaved intermediate-layout choice of §5.1.
//!
//! The equivalence oracle ([`verify`]) combines differential testing over
//! adversarial + randomized environments at two vector widths (the paper's
//! §4.1 incremental pruning), node-incremental over a per-compilation memo
//! of every evaluated subexpression's values, and — for lifting queries —
//! bit-vector SMT proofs over a symbolic tile window (the reproduction's
//! stand-in for Rosette/Z3; see DESIGN.md).

pub mod cancel;
pub mod coverage;
pub mod encode;
pub mod envs;
pub mod lift;
pub mod lower;
#[cfg(test)]
mod lower_proptests;
pub mod range;
pub mod stats;
pub mod swizzle;
pub mod swizzle_search;
pub mod symexec;
pub mod verify;

pub use cancel::CancelFlag;
pub use lift::{lift_expr, lift_expr_cancellable, LiftRule, LiftStep, LiftTrace};
pub use lower::{lower_expr, Layout, Lowered, LoweringOptions};
pub use stats::SynthStats;
pub use verify::{MemoHandle, MemoSnapshot, Verifier};

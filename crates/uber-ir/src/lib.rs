//! The Uber-Instruction IR (§3 of the Rake paper).
//!
//! An *uber-instruction* implements the high-level compute pattern shared
//! by a family of concrete HVX intrinsics. Rake lifts Halide IR expressions
//! into sequences of uber-instructions first (clustering operations that a
//! single hardware instruction family can implement), then lowers each
//! uber-instruction to concrete intrinsics. The families modeled here are
//! the ones the paper names (Figures 5–6):
//!
//! * [`UberExpr::VsMpyAdd`] — vector–scalar multiply-add with a weight
//!   kernel: unifies `vadd`, `vmpy`, `vmpa`, `vtmpy`, `vdmpy`, `vrmpy` and
//!   their accumulating variants.
//! * [`UberExpr::VvMpyAdd`] — vector–vector multiply-add (dot products).
//! * [`UberExpr::Narrow`] — fused downcast with optional shift, rounding
//!   and saturation: unifies `vpack`, `vsat`, `vshuffe`, `vasr`-narrow,
//!   `vround`.
//! * [`UberExpr::Widen`] — zero/sign extension (`vzxt`, `vsxt`).
//! * [`UberExpr::AbsDiff`], [`UberExpr::Min`], [`UberExpr::Max`],
//!   [`UberExpr::Average`], [`UberExpr::Shl`] — the remaining lane-wise
//!   families (`vabsdiff`, `vmin`/`vmax`, `vavg`/`vnavg`, `vasl`).
//! * [`UberExpr::Data`] / [`UberExpr::Bcast`] — abstract data sources
//!   (`load-data` in Figure 5; broadcasts).
//!
//! The IR is *layout-free*: uber-expressions denote natural-order typed
//! vectors, and all interleave/deinterleave reasoning happens during
//! lowering (§5.1).
//!
//! # Example
//!
//! ```
//! use uber_ir::{eval_uber, UberExpr};
//! use halide_ir::{Buffer2D, Env, EvalCtx};
//! use lanes::ElemType;
//!
//! // (vs-mpy-add (load-data) [kernel: 1 2 1]) — a 3-tap filter row,
//! // Figure 9 step 7.
//! let e = UberExpr::conv("in", ElemType::U8, -1, 0, &[1, 2, 1], ElemType::U16);
//! let mut env = Env::new();
//! env.insert(Buffer2D::from_fn("in", ElemType::U8, 16, 1, |x, _| x as i64));
//! let out = eval_uber(&e, &EvalCtx { env: &env, x0: 1, y0: 0, lanes: 4 })?;
//! assert_eq!(out.get(0), 0 + 2 * 1 + 2); // in(0) + 2*in(1) + in(2)
//! # Ok::<(), halide_ir::EvalError>(())
//! ```

mod expr;
mod interp;
mod print;
pub mod sexpr;

pub use expr::{UberExpr, VsMpyAdd, VvMpyAdd};
pub use interp::{eval_uber, eval_uber_with};

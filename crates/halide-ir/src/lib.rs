//! A Halide-style vector-expression IR.
//!
//! Rake (ASPLOS 2022) consumes Halide programs *after* lowering and
//! scheduling: what reaches instruction selection is a set of
//! target-independent vector expressions over 2-D input buffers, one per
//! innermost loop body (Figure 3 of the paper). This crate reproduces
//! exactly that interface:
//!
//! * [`Expr`] — the vector-expression AST (loads, broadcasts, casts,
//!   lane-wise arithmetic, shifts),
//! * [`builder`] — ergonomic smart constructors with type checking,
//! * [`Buffer2D`] / [`Env`] / [`eval`] — a reference interpreter that gives
//!   the IR its semantics (clamp-to-edge boundary handling, like a scheduled
//!   Halide pipeline's boundary condition),
//! * [`analysis`] — traversals, the qualifying-expression filter Rake uses
//!   to pick which expressions to optimize, and an interval range analysis
//!   that powers the paper's "semantic reasoning" optimizations (§7.1.2).
//!
//! # Example
//!
//! ```
//! use halide_ir::builder::*;
//! use halide_ir::{eval, Buffer2D, Env, EvalCtx};
//! use lanes::ElemType;
//!
//! // uint16(input(x-1, y)) + uint16(input(x, y)) * 2  — a 2-tap filter row.
//! let e = add(
//!     widen(load("input", ElemType::U8, -1, 0)),
//!     mul(widen(load("input", ElemType::U8, 0, 0)), bcast(2, ElemType::U16)),
//! );
//!
//! let mut env = Env::new();
//! env.insert(Buffer2D::from_fn("input", ElemType::U8, 8, 1, |x, _| x as i64));
//! let out = eval(&e, &EvalCtx { env: &env, x0: 1, y0: 0, lanes: 4 })?;
//! assert_eq!(out.as_slice(), &[0 + 2, 1 + 4, 2 + 6, 3 + 8]);
//! # Ok::<(), halide_ir::EvalError>(())
//! ```

pub mod analysis;
pub mod builder;
mod buffer;
mod expr;
mod interp;
pub mod pipeline;
mod print;
pub mod sexpr;

pub use buffer::{Buffer2D, Env};
pub use expr::{
    BinOp, Binary, Broadcast, BroadcastLoad, Cast, Expr, Load, ScalarOperand, Shift, ShiftDir,
    TypeError,
};
pub use interp::{eval, eval_with, EvalCtx, EvalError};

//! A byte-accurate functional model of an HVX-style vector ISA, plus a
//! cycle-approximate VLIW simulator.
//!
//! This crate is the reproduction's substitute for the Hexagon HVX target
//! and Qualcomm's Hexagon Simulator (see DESIGN.md). It models the parts of
//! HVX that the Rake paper's instruction-selection problem is about:
//!
//! * **1024-bit vector registers and register pairs** holding raw bytes;
//!   instructions interpret the bytes by element type, so layout phenomena
//!   are real: widening instructions ([`Op::Vmpy`], [`Op::Vzxt`], ...)
//!   produce *deinterleaved* pairs (even lanes in the low register), and
//!   narrowing instructions ([`Op::VasrNarrow`], [`Op::Vpack`], ...)
//!   re-interleave — exactly the implicit data movement §5.1 of the paper
//!   revolves around.
//! * **The instruction families the paper names**: widening multiply-adds
//!   (`vmpy`, `vmpa`, `vmpa.acc`), sliding-window reductions (`vtmpy`,
//!   `vdmpy`, `vrmpy`), saturating packs (`vpack`, `vsat`), fused
//!   round-shift-saturate narrows (`vasr-rnd-sat`), permutes (`vshuff`,
//!   `vdeal`, `valign`, `vror`, `vcombine`) and the scalar-broadcast forms.
//! * **A per-resource cost model** (§6 of the paper: count instructions per
//!   hardware resource — multiply / shift / permute / ALU / load — and take
//!   the maximum), and
//! * **a VLIW packet scheduler** that issues the flattened instruction DAG
//!   under per-packet resource slots to produce cycle counts, our stand-in
//!   for the Hexagon simulator's reported cycles.
//!
//! Registers have no fixed global width here: a [`VecReg`] holds any number
//! of bytes, so the same ISA model runs at full 128-byte width for
//! benchmarks and at narrow widths for fast synthesis-time verification.
//!
//! # Example
//!
//! ```
//! use rake_hvx::{Op, HvxExpr};
//! use halide_ir::{Buffer2D, Env};
//! use lanes::ElemType;
//!
//! // vtmpy: 3-tap sliding window [1, 2, 1] over u8, widening to u16.
//! let e = HvxExpr::op(
//!     Op::Vtmpy { elem: ElemType::U8, w0: 1, w1: 2 },
//!     vec![
//!         HvxExpr::vmem("in", ElemType::U8, -1, 0),
//!         HvxExpr::vmem("in", ElemType::U8, -1 + 16, 0), // next vector
//!     ],
//! );
//! let mut env = Env::new();
//! env.insert(Buffer2D::from_fn("in", ElemType::U8, 64, 1, |x, _| x as i64));
//! let out = e.eval(&env, 8, 0, 16)?; // 16-lane vectors for the example
//! // Natural-order lane 0 of the deinterleaved pair is lo lane 0:
//! // in(7) + 2*in(8) + in(9) = 7 + 16 + 9 = 32.
//! let lanes = out.typed_lanes(lanes::ElemType::U16);
//! assert_eq!(lanes.get(0), 32);
//! # Ok::<(), rake_hvx::ExecError>(())
//! ```

mod cost;
mod exec;
#[cfg(test)]
mod exec_tests;
mod expr;
mod ops;
mod program;
pub mod sexpr;
#[cfg(test)]
mod schedule_tests;
#[cfg(test)]
mod proptests;
mod reg;

pub use cost::{CostModel, ResourceCounts};
pub use exec::{eval_op, ExecCtx, ExecError};
pub use expr::HvxExpr;
pub use ops::{Op, Resource};
pub use program::{Instr, Program, Schedule, SlotBudget};
pub use reg::{Value, VecReg};

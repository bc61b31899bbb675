//! HVX expression trees — the form Rake grafts back into the pipeline.

use std::collections::hash_map::Entry;
use std::fmt;

use halide_ir::{Env, ScalarOperand};
use lanes::{ElemType, FxHashMap};

use crate::exec::{eval_op, ExecCtx, ExecError};
use crate::ops::Op;
use crate::program::{Instr, Program};
use crate::reg::Value;

/// An expression over HVX operations. Leaves are arity-0 ops (loads and
/// broadcasts).
///
/// # Example
///
/// ```
/// use rake_hvx::{HvxExpr, Op};
/// use lanes::ElemType;
///
/// let a = HvxExpr::vmem("in", ElemType::U8, 0, 0);
/// let b = HvxExpr::vsplat_imm(1, ElemType::U8);
/// let sum = HvxExpr::op(Op::Vadd { elem: ElemType::U8, sat: true }, vec![a, b]);
/// assert_eq!(sum.node_count(), 3);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct HvxExpr {
    op: Op,
    args: Vec<HvxExpr>,
}

impl HvxExpr {
    /// Build a node, validating arity.
    ///
    /// # Panics
    ///
    /// Panics if `args.len() != op.arity()` — malformed trees are
    /// construction bugs.
    pub fn op(op: Op, args: Vec<HvxExpr>) -> HvxExpr {
        assert_eq!(args.len(), op.arity(), "`{op}` expects {} arguments", op.arity());
        HvxExpr { op, args }
    }

    /// A vector load leaf.
    pub fn vmem(buffer: &str, elem: ElemType, dx: i32, dy: i32) -> HvxExpr {
        HvxExpr { op: Op::Vmem { buffer: buffer.to_owned(), dx, dy, elem }, args: Vec::new() }
    }

    /// An immediate-broadcast leaf.
    pub fn vsplat_imm(value: i64, elem: ElemType) -> HvxExpr {
        HvxExpr { op: Op::Vsplat { value: ScalarOperand::Imm(value), elem }, args: Vec::new() }
    }

    /// A runtime-scalar-broadcast leaf (`buffer[x, y0+dy]` splat).
    pub fn vsplat_load(buffer: &str, x: i32, dy: i32, elem: ElemType) -> HvxExpr {
        HvxExpr {
            op: Op::Vsplat {
                value: ScalarOperand::Load { buffer: buffer.to_owned(), x, dy },
                elem,
            },
            args: Vec::new(),
        }
    }

    /// The root operation.
    pub fn root(&self) -> &Op {
        &self.op
    }

    /// The child expressions.
    pub fn args(&self) -> &[HvxExpr] {
        &self.args
    }

    /// Total number of nodes.
    pub fn node_count(&self) -> usize {
        1 + self.args.iter().map(HvxExpr::node_count).sum::<usize>()
    }

    /// Evaluate the expression. `lanes` is the Halide-level vectorization
    /// width; the machine register width defaults to `lanes` bytes.
    ///
    /// # Errors
    ///
    /// Propagates [`ExecError`] from any operation.
    pub fn eval(&self, env: &Env, x0: i64, y0: i64, lanes: usize) -> Result<Value, ExecError> {
        self.eval_ctx(&ExecCtx { env, x0, y0, lanes, vec_bytes: lanes })
    }

    /// Evaluate with an explicit context (register width, origin).
    ///
    /// # Errors
    ///
    /// Propagates [`ExecError`] from any operation.
    pub fn eval_ctx(&self, ctx: &ExecCtx<'_>) -> Result<Value, ExecError> {
        let args = self
            .args
            .iter()
            .map(|a| a.eval_ctx(ctx))
            .collect::<Result<Vec<Value>, ExecError>>()?;
        eval_op(&self.op, &args, ctx)
    }

    /// Flatten the tree into an SSA program with common-subexpression
    /// elimination (identical subtrees evaluate once). One post-order pass:
    /// a node is identified by its operation and its arguments'
    /// instruction ids, so no subtree is hashed or cloned whole.
    pub fn to_program(&self) -> Program {
        fn go<'a>(
            e: &'a HvxExpr,
            memo: &mut FxHashMap<(&'a Op, Vec<usize>), usize>,
            instrs: &mut Vec<Instr>,
        ) -> usize {
            let args: Vec<usize> = e.args.iter().map(|a| go(a, memo, instrs)).collect();
            match memo.entry((&e.op, args)) {
                Entry::Occupied(seen) => *seen.get(),
                Entry::Vacant(slot) => {
                    let id = instrs.len();
                    instrs.push(Instr { op: e.op.clone(), args: slot.key().1.clone() });
                    slot.insert(id);
                    id
                }
            }
        }
        let mut memo = FxHashMap::default();
        let mut instrs = Vec::new();
        let output = go(self, &mut memo, &mut instrs);
        Program::new(instrs, output)
    }
}

impl fmt::Display for HvxExpr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fn go(e: &HvxExpr, indent: usize, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            let pad = "  ".repeat(indent);
            if e.args.is_empty() {
                writeln!(f, "{pad}{}", e.op)
            } else {
                writeln!(f, "{pad}{}(", e.op)?;
                for a in &e.args {
                    go(a, indent + 1, f)?;
                }
                writeln!(f, "{pad})")
            }
        }
        go(self, 0, f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use halide_ir::Buffer2D;

    fn env() -> Env {
        let mut env = Env::new();
        env.insert(Buffer2D::from_fn("in", ElemType::U8, 64, 4, |x, y| (x + y) as i64));
        env
    }

    #[test]
    fn eval_simple_add() {
        let e = HvxExpr::op(
            Op::Vadd { elem: ElemType::U8, sat: false },
            vec![
                HvxExpr::vmem("in", ElemType::U8, 0, 0),
                HvxExpr::vmem("in", ElemType::U8, 1, 0),
            ],
        );
        let out = e.eval(&env(), 4, 1, 8).unwrap();
        let lanes = out.typed_lanes(ElemType::U8);
        // lane i: in(4+i,1) + in(5+i,1) = (5+i) + (6+i)
        assert_eq!(lanes.get(0), 11);
        assert_eq!(lanes.get(7), 25);
    }

    #[test]
    fn cse_in_program() {
        let load = HvxExpr::vmem("in", ElemType::U8, 0, 0);
        let e = HvxExpr::op(
            Op::Vadd { elem: ElemType::U8, sat: false },
            vec![load.clone(), load],
        );
        let p = e.to_program();
        assert_eq!(p.len(), 2, "shared load should be CSE'd");
    }

    #[test]
    fn vtmpy_matches_manual_convolution() {
        let e = HvxExpr::op(
            Op::Vtmpy { elem: ElemType::U8, w0: 1, w1: 2 },
            vec![
                HvxExpr::vmem("in", ElemType::U8, -1, 0),
                HvxExpr::vmem("in", ElemType::U8, 7, 0), // next 8-lane vector
            ],
        );
        let out = e.eval(&env(), 4, 0, 8).unwrap();
        // Deinterleaved pair; natural lane i lives at lo[i/2] or hi[i/2].
        let (lo, hi) = out.as_pair().expect("vtmpy produces a pair");
        let llo = lo.typed_lanes(ElemType::U16);
        let lhi = hi.typed_lanes(ElemType::U16);
        for i in 0..8usize {
            let x = |d: i64| 4 + i as i64 + d; // in(x,0) = x
            let expect = x(-1) + 2 * x(0) + x(1);
            let got = if i % 2 == 0 { llo.get(i / 2) } else { lhi.get(i / 2) };
            assert_eq!(got, expect, "lane {i}");
        }
    }

    #[test]
    fn display_nests() {
        let e = HvxExpr::op(
            Op::Vmax { elem: ElemType::U8 },
            vec![
                HvxExpr::vmem("in", ElemType::U8, 0, 0),
                HvxExpr::vsplat_imm(9, ElemType::U8),
            ],
        );
        let s = e.to_string();
        assert!(s.contains("vmax.u8("));
        assert!(s.contains("vsplat.u8(9)"));
    }

    #[test]
    #[should_panic(expected = "expects 2 arguments")]
    fn arity_validated() {
        let _ = HvxExpr::op(Op::Vadd { elem: ElemType::U8, sat: false }, vec![]);
    }
}

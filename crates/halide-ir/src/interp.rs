//! The reference interpreter: the semantics of the IR.

use std::fmt;

use lanes::{ElemType, Vector};

use crate::buffer::Env;
use crate::expr::{BinOp, Expr, ScalarOperand, ShiftDir};

/// Where and how wide to evaluate an expression: the loop origin `(x0, y0)`
/// and the vectorization width in lanes.
#[derive(Debug, Clone, Copy)]
pub struct EvalCtx<'a> {
    /// Input buffers.
    pub env: &'a Env,
    /// Loop `x` coordinate of lane 0.
    pub x0: i64,
    /// Loop `y` coordinate.
    pub y0: i64,
    /// Vector width in lanes.
    pub lanes: usize,
}

/// Evaluation failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EvalError {
    /// A load referenced a buffer name absent from the environment.
    UnknownBuffer(String),
    /// A load's element type disagrees with the buffer's element type.
    BufferTypeMismatch {
        /// Buffer name.
        buffer: String,
        /// Type the load expected.
        expected: ElemType,
        /// Type the buffer actually has.
        actual: ElemType,
    },
}

impl fmt::Display for EvalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EvalError::UnknownBuffer(name) => write!(f, "unknown buffer `{name}`"),
            EvalError::BufferTypeMismatch { buffer, expected, actual } => write!(
                f,
                "buffer `{buffer}` has element type {actual} but the load expects {expected}"
            ),
        }
    }
}

impl std::error::Error for EvalError {}

impl ScalarOperand {
    /// The operand's value in `env` on loop row `y0`.
    ///
    /// # Errors
    ///
    /// Returns [`EvalError::UnknownBuffer`] if a runtime scalar's buffer
    /// is missing.
    pub fn value(&self, env: &Env, y0: i64) -> Result<i64, EvalError> {
        match self {
            ScalarOperand::Imm(v) => Ok(*v),
            ScalarOperand::Load { buffer, x, dy } => {
                let buf =
                    env.get(buffer).ok_or_else(|| EvalError::UnknownBuffer(buffer.clone()))?;
                Ok(buf.get(i64::from(*x), y0 + i64::from(*dy)))
            }
        }
    }
}

/// Evaluate `expr` at `ctx`, producing one typed vector.
///
/// Loads read `ctx.lanes` consecutive elements starting at
/// `(x0 + dx, y0 + dy)` with clamp-to-edge boundary handling. All lane
/// arithmetic follows the canonical fixed-point semantics of the [`lanes`]
/// crate.
///
/// # Errors
///
/// Returns an error if a load references a missing buffer or disagrees with
/// its element type.
///
/// # Example
///
/// ```
/// use halide_ir::builder::*;
/// use halide_ir::{eval, Buffer2D, Env, EvalCtx};
/// use lanes::ElemType;
///
/// let e = absd(load("a", ElemType::U8, 0, 0), load("b", ElemType::U8, 0, 0));
/// let mut env = Env::new();
/// env.insert(Buffer2D::filled("a", ElemType::U8, 4, 1, 10));
/// env.insert(Buffer2D::filled("b", ElemType::U8, 4, 1, 14));
/// let out = eval(&e, &EvalCtx { env: &env, x0: 0, y0: 0, lanes: 4 })?;
/// assert_eq!(out.as_slice(), &[4, 4, 4, 4]);
/// # Ok::<(), halide_ir::EvalError>(())
/// ```
pub fn eval(expr: &Expr, ctx: &EvalCtx<'_>) -> Result<Vector, EvalError> {
    eval_with(expr, ctx, |c| eval(c, ctx))
}

/// Evaluate the root node of `expr` at `ctx`, taking each child's value
/// from `kid` — one step of [`eval`], which is the recursion through it.
/// A caller that already holds the children's values (the verifier's
/// value memo) evaluates a node without revisiting its subtrees.
///
/// # Errors
///
/// Returns an error if the root is a load that references a missing
/// buffer or disagrees with its element type, or if `kid` fails.
pub fn eval_with(
    expr: &Expr,
    ctx: &EvalCtx<'_>,
    mut kid: impl FnMut(&Expr) -> Result<Vector, EvalError>,
) -> Result<Vector, EvalError> {
    match expr {
        Expr::Load(l) => {
            let buf = ctx
                .env
                .get(&l.buffer)
                .ok_or_else(|| EvalError::UnknownBuffer(l.buffer.clone()))?;
            if buf.elem() != l.ty {
                return Err(EvalError::BufferTypeMismatch {
                    buffer: l.buffer.clone(),
                    expected: l.ty,
                    actual: buf.elem(),
                });
            }
            Ok(Vector::from_fn(l.ty, ctx.lanes, |i| {
                buf.get(ctx.x0 + i64::from(l.dx) + i as i64, ctx.y0 + i64::from(l.dy))
            }))
        }
        Expr::Broadcast(b) => Ok(Vector::splat(b.ty, b.value, ctx.lanes)),
        Expr::BroadcastLoad(b) => {
            let buf = ctx
                .env
                .get(&b.buffer)
                .ok_or_else(|| EvalError::UnknownBuffer(b.buffer.clone()))?;
            if buf.elem() != b.ty {
                return Err(EvalError::BufferTypeMismatch {
                    buffer: b.buffer.clone(),
                    expected: b.ty,
                    actual: buf.elem(),
                });
            }
            let v = buf.get(i64::from(b.x), ctx.y0 + i64::from(b.dy));
            Ok(Vector::splat(b.ty, v, ctx.lanes))
        }
        Expr::Cast(c) => Ok(kid(&c.arg)?.cast(c.to, c.saturating)),
        Expr::Binary(b) => {
            let lhs = kid(&b.lhs)?;
            let rhs = kid(&b.rhs)?;
            let ty = lhs.ty();
            Ok(match b.op {
                BinOp::Add => lhs.zip(&rhs, |a, b| lanes::add_wrap(ty, a, b)),
                BinOp::Sub => lhs.zip(&rhs, |a, b| lanes::sub_wrap(ty, a, b)),
                BinOp::Mul => lhs.zip(&rhs, |a, b| lanes::mul_wrap(ty, a, b)),
                BinOp::Min => lhs.zip(&rhs, |a, b| lanes::min(ty, a, b)),
                BinOp::Max => lhs.zip(&rhs, |a, b| lanes::max(ty, a, b)),
                BinOp::Absd => lhs.zip(&rhs, |a, b| lanes::absd(ty, a, b)),
            })
        }
        Expr::Shift(s) => {
            let v = kid(&s.arg)?;
            let ty = v.ty();
            Ok(match s.dir {
                ShiftDir::Left => v.map(|a| lanes::shl(ty, a, s.amount)),
                ShiftDir::Right => v.map(|a| lanes::asr(ty, a, s.amount)),
            })
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::buffer::Buffer2D;
    use crate::builder::*;

    fn ramp_env() -> Env {
        let mut env = Env::new();
        env.insert(Buffer2D::from_fn("in", ElemType::U8, 16, 4, |x, y| (x + 16 * y) as i64));
        env
    }

    fn ctx(env: &Env) -> EvalCtx<'_> {
        EvalCtx { env, x0: 2, y0: 1, lanes: 4 }
    }

    #[test]
    fn load_reads_window() {
        let env = ramp_env();
        let v = eval(&load("in", ElemType::U8, -1, 1), &ctx(&env)).unwrap();
        // (x0-1 .. x0+2, y0+1) = (1..5, 2) = 33, 34, 35, 36
        assert_eq!(v.as_slice(), &[33, 34, 35, 36]);
    }

    #[test]
    fn unknown_buffer_is_an_error() {
        let env = Env::new();
        let err = eval(&load("nope", ElemType::U8, 0, 0), &ctx(&env)).unwrap_err();
        assert_eq!(err, EvalError::UnknownBuffer("nope".into()));
    }

    #[test]
    fn type_mismatch_is_an_error() {
        let env = ramp_env();
        let err = eval(&load("in", ElemType::U16, 0, 0), &ctx(&env)).unwrap_err();
        assert!(matches!(err, EvalError::BufferTypeMismatch { .. }));
    }

    #[test]
    fn widening_mul_add() {
        let env = ramp_env();
        // u16(in(x,y)) * 2 + u16(in(x+1,y))
        let e = add(
            mul(widen(load("in", ElemType::U8, 0, 0)), bcast(2, ElemType::U16)),
            widen(load("in", ElemType::U8, 1, 0)),
        );
        let v = eval(&e, &ctx(&env)).unwrap();
        // lane i: in(2+i,1)*2 + in(3+i,1) = (18+i)*2 + (19+i)
        assert_eq!(v.as_slice(), &[36 + 19, 38 + 20, 40 + 21, 42 + 22]);
    }

    #[test]
    fn saturating_cast_on_eval() {
        let env = ramp_env();
        let e = sat_cast(ElemType::U8, sub(bcast(0, ElemType::I16), bcast(5, ElemType::I16)));
        let v = eval(&e, &ctx(&env)).unwrap();
        assert_eq!(v.as_slice(), &[0, 0, 0, 0]);
    }

    #[test]
    fn shifts_respect_signedness() {
        let env = ramp_env();
        let e = shr(bcast(-8, ElemType::I16), 2);
        assert_eq!(eval(&e, &ctx(&env)).unwrap().get(0), -2);
        let e = shr(bcast(65535, ElemType::U16), 8);
        assert_eq!(eval(&e, &ctx(&env)).unwrap().get(0), 255);
    }

    #[test]
    fn clamp_edges_at_boundaries() {
        let env = ramp_env();
        let e = load("in", ElemType::U8, -10, 0);
        let v = eval(&e, &EvalCtx { env: &env, x0: 0, y0: 0, lanes: 3 }).unwrap();
        assert_eq!(v.as_slice(), &[0, 0, 0]);
    }
}

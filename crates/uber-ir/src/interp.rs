//! Reference interpreter for the Uber-Instruction IR.
//!
//! Uber-expressions denote natural-order typed vectors; this interpreter
//! is the semantic anchor the lifting stage verifies against (Halide IR ≡
//! Uber IR) and the lowering stage verifies from (Uber IR ≡ HVX).

use halide_ir::{EvalCtx, EvalError};
use lanes::{ElemType, Vector};

use crate::expr::UberExpr;

/// Evaluate an uber-expression at `ctx`, producing one typed vector.
///
/// # Errors
///
/// Returns an error if a load references a missing buffer or disagrees
/// with its element type.
pub fn eval_uber(e: &UberExpr, ctx: &EvalCtx<'_>) -> Result<Vector, EvalError> {
    eval_uber_with(e, ctx, |c| eval_uber(c, ctx))
}

/// Evaluate the root node of `e` at `ctx`, taking each child's value from
/// `kid` — one step of [`eval_uber`], which is the recursion through it.
///
/// # Errors
///
/// Returns an error if the root is a load that references a missing
/// buffer or disagrees with its element type, or if `kid` fails.
pub fn eval_uber_with(
    e: &UberExpr,
    ctx: &EvalCtx<'_>,
    mut kid: impl FnMut(&UberExpr) -> Result<Vector, EvalError>,
) -> Result<Vector, EvalError> {
    match e {
        UberExpr::Data(l) => {
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
        UberExpr::Bcast { value, ty } => {
            Ok(Vector::splat(*ty, value.value(ctx.env, ctx.y0)?, ctx.lanes))
        }
        UberExpr::VsMpyAdd(v) => {
            let inputs = v.inputs.iter().map(&mut kid).collect::<Result<Vec<_>, _>>()?;
            let finish = finisher(v.saturating, v.out);
            Ok(Vector::from_fn(v.out, ctx.lanes, |i| {
                let sum: i128 = inputs
                    .iter()
                    .zip(&v.kernel)
                    .map(|(inp, &w)| i128::from(inp.get(i)) * i128::from(w))
                    .sum();
                finish(sum)
            }))
        }
        UberExpr::VvMpyAdd(v) => {
            let pairs = v
                .pairs
                .iter()
                .map(|(a, b)| Ok::<_, EvalError>((kid(a)?, kid(b)?)))
                .collect::<Result<Vec<_>, _>>()?;
            let finish = finisher(v.saturating, v.out);
            Ok(Vector::from_fn(v.out, ctx.lanes, |i| {
                let sum: i128 = pairs
                    .iter()
                    .map(|(a, b)| i128::from(a.get(i)) * i128::from(b.get(i)))
                    .sum();
                finish(sum)
            }))
        }
        UberExpr::AbsDiff(a, b) => {
            let (va, vb) = (kid(a)?, kid(b)?);
            let ty = va.ty();
            Ok(va.zip(&vb, |x, y| lanes::absd(ty, x, y)))
        }
        UberExpr::Min(a, b) => {
            let (va, vb) = (kid(a)?, kid(b)?);
            Ok(va.zip(&vb, |x, y| x.min(y)))
        }
        UberExpr::Max(a, b) => {
            let (va, vb) = (kid(a)?, kid(b)?);
            Ok(va.zip(&vb, |x, y| x.max(y)))
        }
        UberExpr::Average { a, b, round } => {
            let (va, vb) = (kid(a)?, kid(b)?);
            let ty = va.ty();
            Ok(va.zip(&vb, |x, y| lanes::avg(ty, x, y, *round)))
        }
        UberExpr::Narrow { arg, shift, round, saturating, out } => {
            let v = kid(arg)?;
            let ty = v.ty();
            let (sh, rnd, sat, o) = (*shift, *round, *saturating, *out);
            Ok(v.map_to(o, |x| {
                let shifted = if sh == 0 {
                    x
                } else if rnd {
                    // The rounding bias is added with a *wrapping* add at the
                    // source width, matching both the HVX vasr:rnd[:sat]
                    // datapath and Halide's `(x + (1 << (n-1))) >> n` source
                    // pattern on a fixed-width type. Rounding at full
                    // precision here would diverge from the lowered machine
                    // code near the source type's upper boundary.
                    lanes::asr_rnd(ty, x, sh)
                } else {
                    lanes::asr(ty, x, sh)
                };
                if sat {
                    o.saturate(shifted)
                } else {
                    o.wrap(shifted)
                }
            }))
        }
        UberExpr::Widen { arg, out } => {
            let v = kid(arg)?;
            // Canonical values carry their sign, so extension is identity.
            Ok(v.map_to(*out, |x| x))
        }
        UberExpr::Shl { arg, amount } => {
            let v = kid(arg)?;
            let ty = v.ty();
            Ok(v.map(|x| lanes::shl(ty, x, *amount)))
        }
    }
}

fn finisher(saturating: bool, out: ElemType) -> impl Fn(i128) -> i64 {
    move |sum: i128| {
        if saturating {
            out.saturate(sum.clamp(i64::MIN as i128, i64::MAX as i128) as i64)
        } else {
            // Wrap at 64 bits first (safe: canonical inputs keep sums far
            // below i128 range), then into the output type.
            out.wrap(sum as i64)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::VsMpyAdd;
    use halide_ir::{Buffer2D, Env, Load, ScalarOperand};

    fn env() -> Env {
        let mut env = Env::new();
        env.insert(Buffer2D::from_fn("in", ElemType::U8, 32, 4, |x, y| (x + 2 * y) as i64));
        env
    }

    fn ctx(env: &Env) -> EvalCtx<'_> {
        EvalCtx { env, x0: 2, y0: 1, lanes: 4 }
    }

    #[test]
    fn vs_mpy_add_is_weighted_sum() {
        let e = UberExpr::conv("in", ElemType::U8, -1, 0, &[1, 2, 1], ElemType::U16);
        let env = env();
        let v = eval_uber(&e, &ctx(&env)).unwrap();
        // in(x,1) = x + 2; lane 0: in(1)+2*in(2)+in(3) = 3 + 8 + 5 = 16.
        assert_eq!(v.get(0), 16);
        assert_eq!(v.ty(), ElemType::U16);
    }

    #[test]
    fn vadd_is_vs_mpy_add_with_unit_kernel() {
        // The paper's point: vadd == vs-mpy-add with kernel (1 1).
        let load = |dx| UberExpr::Data(Load { buffer: "in".into(), dx, dy: 0, ty: ElemType::U8 });
        let e = UberExpr::VsMpyAdd(VsMpyAdd {
            inputs: vec![load(0), load(1)],
            kernel: vec![1, 1],
            saturating: false,
            out: ElemType::U8, // same-width: wrapping vector add
        });
        let env = env();
        let v = eval_uber(&e, &ctx(&env)).unwrap();
        // lane 0: in(2,1) + in(3,1) = 4 + 5 (mod 256)
        assert_eq!(v.get(0), 9);
    }

    #[test]
    fn saturating_output() {
        let e = UberExpr::VsMpyAdd(VsMpyAdd {
            inputs: vec![UberExpr::Data(Load {
                buffer: "in".into(),
                dx: 0,
                dy: 0,
                ty: ElemType::U8,
            })],
            kernel: vec![100],
            saturating: true,
            out: ElemType::U8,
        });
        let env = env();
        let v = eval_uber(&e, &ctx(&env)).unwrap();
        assert_eq!(v.get(0), 255); // 4 * 100 saturates
    }

    #[test]
    fn narrow_with_round_and_sat() {
        let wide = UberExpr::conv("in", ElemType::U8, 0, 0, &[64, 64], ElemType::U16);
        let n = UberExpr::Narrow {
            arg: Box::new(wide),
            shift: 4,
            round: true,
            saturating: true,
            out: ElemType::U8,
        };
        let env = env();
        let v = eval_uber(&n, &ctx(&env)).unwrap();
        // lane 0: (4*64 + 5*64 + 8) >> 4 = (576 + 8) >> 4 = 36.
        assert_eq!(v.get(0), 36);
        // lane 3: (7*64 + 8*64 + 8) >> 4 = 60 -> fits, no saturation.
        assert_eq!(v.get(3), 60);
    }

    #[test]
    fn rounding_narrow_wraps_at_source_width() {
        // The round-add wraps at the source width, exactly like the HVX
        // vasr:rnd:sat datapath: i16 32767 + 1 wraps to -32768, shifts to
        // -16384 and saturates to i8 -128. Full-precision rounding would
        // have produced +127 — the miscompile the oracle first caught.
        let mut env = Env::new();
        env.insert(Buffer2D::from_fn("hot", ElemType::I16, 8, 1, |x, _| {
            if x % 2 == 0 {
                i64::from(i16::MAX)
            } else {
                100
            }
        }));
        let n = UberExpr::Narrow {
            arg: Box::new(UberExpr::Data(Load {
                buffer: "hot".into(),
                dx: 0,
                dy: 0,
                ty: ElemType::I16,
            })),
            shift: 1,
            round: true,
            saturating: true,
            out: ElemType::I8,
        };
        let v = eval_uber(&n, &EvalCtx { env: &env, x0: 0, y0: 0, lanes: 4 }).unwrap();
        assert_eq!(v.get(0), -128);
        assert_eq!(v.get(1), 50); // (100 + 1) >> 1, in range: unaffected
    }

    #[test]
    fn average_and_absdiff() {
        let load = |dx| {
            Box::new(UberExpr::Data(Load { buffer: "in".into(), dx, dy: 0, ty: ElemType::U8 }))
        };
        let env = env();
        let avg =
            eval_uber(&UberExpr::Average { a: load(0), b: load(2), round: true }, &ctx(&env))
                .unwrap();
        // lane 0: (4 + 6 + 1) >> 1 = 5
        assert_eq!(avg.get(0), 5);
        let ad = eval_uber(&UberExpr::AbsDiff(load(0), load(2)), &ctx(&env)).unwrap();
        assert_eq!(ad.get(0), 2);
    }

    #[test]
    fn widen_preserves_value() {
        let d = UberExpr::Data(Load { buffer: "in".into(), dx: 0, dy: 0, ty: ElemType::U8 });
        let w = UberExpr::Widen { arg: Box::new(d), out: ElemType::U16 };
        let env = env();
        let v = eval_uber(&w, &ctx(&env)).unwrap();
        assert_eq!(v.ty(), ElemType::U16);
        assert_eq!(v.get(1), 5);
    }

    #[test]
    fn runtime_scalar_broadcast() {
        let e = UberExpr::Bcast {
            value: ScalarOperand::Load { buffer: "in".into(), x: 3, dy: 0 },
            ty: ElemType::U8,
        };
        let env = env();
        let v = eval_uber(&e, &ctx(&env)).unwrap();
        // in(3, 1) = 5 broadcast
        assert_eq!(v.as_slice(), &[5, 5, 5, 5]);
    }

    #[test]
    fn missing_buffer_errors() {
        let e = UberExpr::Data(Load { buffer: "nope".into(), dx: 0, dy: 0, ty: ElemType::U8 });
        let env = Env::new();
        assert!(eval_uber(&e, &EvalCtx { env: &env, x0: 0, y0: 0, lanes: 2 }).is_err());
    }
}

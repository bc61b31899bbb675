//! Instruction semantics.

use std::fmt;

use halide_ir::{Env, EvalError, ScalarOperand};
use lanes::{ElemType, Vector};

use crate::ops::Op;
use crate::reg::{Value, VecReg};

/// Evaluation context for HVX expressions: the tile origin and widths.
#[derive(Debug, Clone, Copy)]
pub struct ExecCtx<'a> {
    /// Input buffers.
    pub env: &'a Env,
    /// Loop `x` coordinate of lane 0.
    pub x0: i64,
    /// Loop `y` coordinate.
    pub y0: i64,
    /// Halide-level vectorization width in lanes: every load produces this
    /// many lanes.
    pub lanes: usize,
    /// Byte width of one machine register; values larger than this are
    /// split into natural-order pairs at source boundaries.
    pub vec_bytes: usize,
}

/// Failure executing an instruction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ExecError {
    /// Wrong number of arguments.
    Arity {
        /// Offending op (rendered).
        op: String,
        /// Expected argument count.
        expected: usize,
        /// Actual argument count.
        got: usize,
    },
    /// Operand shapes (vector vs. pair, byte lengths) do not fit the op.
    Shape {
        /// Offending op (rendered).
        op: String,
        /// What was wrong.
        detail: String,
    },
    /// A load failed (missing buffer or element-type mismatch).
    Buffer(EvalError),
    /// An immediate or type parameter is invalid for the op.
    BadOperand {
        /// Offending op (rendered).
        op: String,
        /// What was wrong.
        detail: String,
    },
}

impl fmt::Display for ExecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExecError::Arity { op, expected, got } => {
                write!(f, "`{op}` expects {expected} arguments, got {got}")
            }
            ExecError::Shape { op, detail } => write!(f, "`{op}` operand shape error: {detail}"),
            ExecError::Buffer(e) => write!(f, "load failed: {e}"),
            ExecError::BadOperand { op, detail } => write!(f, "`{op}`: {detail}"),
        }
    }
}

impl std::error::Error for ExecError {}

impl From<EvalError> for ExecError {
    fn from(e: EvalError) -> ExecError {
        ExecError::Buffer(e)
    }
}

fn shape_err(op: &Op, detail: impl Into<String>) -> ExecError {
    ExecError::Shape { op: op.to_string(), detail: detail.into() }
}

fn bad_operand(op: &Op, detail: impl Into<String>) -> ExecError {
    ExecError::BadOperand { op: op.to_string(), detail: detail.into() }
}

/// Resolve and validate a multiply scalar. Scalar registers exist in
/// signed and unsigned element-wide variants (`Rt.b` / `Rt.ub`, ...), so a
/// value is valid when it fits *either* range; runtime scalars must come
/// from a buffer no wider than the lane type so validity is
/// value-independent.
fn mul_scalar(op: &Op, elem: ElemType, s: &ScalarOperand, ctx: &ExecCtx<'_>) -> Result<i64, ExecError> {
    if let ScalarOperand::Load { buffer, .. } = s {
        let buf = ctx
            .env
            .get(buffer)
            .ok_or_else(|| EvalError::UnknownBuffer(buffer.clone()))?;
        if buf.elem().bits() > elem.bits() {
            return Err(bad_operand(
                op,
                format!("runtime scalar of type {} too wide for {elem} lanes", buf.elem()),
            ));
        }
    }
    let v = s.value(ctx.env, ctx.y0)?;
    if v < elem.as_signed().min_value() || v > elem.max_value() {
        return Err(bad_operand(op, format!("scalar {v} out of range for {elem} lanes")));
    }
    Ok(v)
}

/// Split `bytes` into a value: one register if it fits `vec_bytes`, else a
/// natural-order pair.
fn value_from_bytes(bytes: Vec<u8>, vec_bytes: usize) -> Value {
    if bytes.len() <= vec_bytes {
        Value::Vec(VecReg::new(bytes))
    } else {
        let half = bytes.len() / 2;
        Value::Pair(VecReg::new(bytes[..half].to_vec()), VecReg::new(bytes[half..].to_vec()))
    }
}

/// Deinterleave natural-order wide lanes into a register pair (even lanes
/// to `lo`), the layout widening instructions produce.
fn deinterleave(wide: &Vector) -> Value {
    let n = wide.lanes();
    let lo = Vector::from_fn(wide.ty(), n / 2, |i| wide.get(2 * i));
    let hi = Vector::from_fn(wide.ty(), n / 2, |i| wide.get(2 * i + 1));
    Value::Pair(VecReg::from_lanes(&lo), VecReg::from_lanes(&hi))
}

fn map_reg(r: &VecReg, elem: ElemType, f: &mut impl FnMut(i64) -> i64) -> VecReg {
    VecReg::from_lanes(&r.typed_lanes(elem).map(f))
}

fn elementwise1(
    op: &Op,
    v: &Value,
    elem: ElemType,
    mut f: impl FnMut(i64) -> i64,
) -> Result<Value, ExecError> {
    check_elem_len(op, v, elem)?;
    Ok(match v {
        Value::Vec(r) => Value::Vec(map_reg(r, elem, &mut f)),
        Value::Pair(lo, hi) => Value::Pair(map_reg(lo, elem, &mut f), map_reg(hi, elem, &mut f)),
    })
}

fn check_elem_len(op: &Op, v: &Value, elem: ElemType) -> Result<(), ExecError> {
    let ok = match v {
        Value::Vec(r) => r.len() % elem.bytes() == 0,
        Value::Pair(lo, hi) => lo.len() % elem.bytes() == 0 && lo.len() == hi.len(),
    };
    if ok {
        Ok(())
    } else {
        Err(shape_err(op, format!("value of {} bytes not divisible into {elem} lanes", v.len())))
    }
}

fn elementwise2(
    op: &Op,
    a: &Value,
    b: &Value,
    elem: ElemType,
    mut f: impl FnMut(i64, i64) -> i64,
) -> Result<Value, ExecError> {
    check_elem_len(op, a, elem)?;
    check_elem_len(op, b, elem)?;
    match (a, b) {
        (Value::Vec(ra), Value::Vec(rb)) if ra.len() == rb.len() => {
            let la = ra.typed_lanes(elem);
            let lb = rb.typed_lanes(elem);
            Ok(Value::Vec(VecReg::from_lanes(&la.zip(&lb, &mut f))))
        }
        (Value::Pair(alo, ahi), Value::Pair(blo, bhi))
            if alo.len() == blo.len() && ahi.len() == bhi.len() =>
        {
            let lo = alo.typed_lanes(elem).zip(&blo.typed_lanes(elem), &mut f);
            let hi = ahi.typed_lanes(elem).zip(&bhi.typed_lanes(elem), f);
            Ok(Value::Pair(VecReg::from_lanes(&lo), VecReg::from_lanes(&hi)))
        }
        _ => Err(shape_err(op, "operands must have identical shapes and lengths")),
    }
}

fn expect_vec<'v>(op: &Op, v: &'v Value) -> Result<&'v VecReg, ExecError> {
    v.as_vec().ok_or_else(|| shape_err(op, "expected a single register, got a pair"))
}

fn expect_pair<'v>(op: &Op, v: &'v Value) -> Result<(&'v VecReg, &'v VecReg), ExecError> {
    v.as_pair().ok_or_else(|| shape_err(op, "expected a register pair, got a single register"))
}

fn expect_same_len(op: &Op, a: &VecReg, b: &VecReg) -> Result<(), ExecError> {
    if a.len() == b.len() {
        Ok(())
    } else {
        Err(shape_err(op, format!("register lengths differ: {} vs {}", a.len(), b.len())))
    }
}

fn widened(op: &Op, elem: ElemType) -> Result<ElemType, ExecError> {
    elem.widened().ok_or_else(|| bad_operand(op, format!("{elem} has no widened type")))
}

/// Widening two-source multiply-accumulate core shared by `vmpa`-style ops:
/// computes `a*w0 + b*w1` in natural order, then deinterleaves, optionally
/// adding an accumulator pair.
#[allow(clippy::too_many_arguments)]
fn mpa_core(
    op: &Op,
    acc: Option<&Value>,
    a: &VecReg,
    b: &VecReg,
    elem: ElemType,
    w0: i64,
    w1: i64,
) -> Result<Value, ExecError> {
    expect_same_len(op, a, b)?;
    let wide_ty = widened(op, elem)?;
    let la = a.typed_lanes(elem);
    let lb = b.typed_lanes(elem);
    let wide = Vector::from_fn(wide_ty, la.lanes(), |i| la.get(i) * w0 + lb.get(i) * w1);
    accumulate_deint(op, acc, &wide, wide_ty)
}

/// Deinterleave `wide` and add it to an optional accumulator pair.
fn accumulate_deint(
    op: &Op,
    acc: Option<&Value>,
    wide: &Vector,
    wide_ty: ElemType,
) -> Result<Value, ExecError> {
    let fresh = deinterleave(wide);
    match acc {
        None => Ok(fresh),
        Some(acc) => {
            let (alo, ahi) = expect_pair(op, acc)?;
            let (flo, fhi) = fresh.as_pair().expect("deinterleave returns a pair");
            expect_same_len(op, alo, flo)?;
            expect_same_len(op, ahi, fhi)?;
            let lo = alo.typed_lanes(wide_ty).zip(&flo.typed_lanes(wide_ty), |x, y| x + y);
            let hi = ahi.typed_lanes(wide_ty).zip(&fhi.typed_lanes(wide_ty), |x, y| x + y);
            Ok(Value::Pair(VecReg::from_lanes(&lo), VecReg::from_lanes(&hi)))
        }
    }
}

/// Interleaving narrow shared by `vpack`/`vshuffe`/`vasr`-narrow:
/// `out[2i] = f(even_src[i])`, `out[2i+1] = f(odd_src[i])`.
fn narrow_interleave(
    op: &Op,
    odd_src: &VecReg,
    even_src: &VecReg,
    elem: ElemType,
    out: ElemType,
    mut f: impl FnMut(i64) -> i64,
) -> Result<Value, ExecError> {
    expect_same_len(op, odd_src, even_src)?;
    if out.bits() * 2 != elem.bits() {
        return Err(bad_operand(op, format!("{out} is not the half-width type of {elem}")));
    }
    let le = even_src.typed_lanes(elem);
    let lo = odd_src.typed_lanes(elem);
    let n = le.lanes();
    let outv = Vector::from_fn(out, 2 * n, |i| {
        if i % 2 == 0 {
            f(le.get(i / 2))
        } else {
            f(lo.get(i / 2))
        }
    });
    Ok(Value::Vec(VecReg::from_lanes(&outv)))
}

/// Execute one operation.
///
/// # Errors
///
/// Returns [`ExecError`] on arity, shape or operand violations, or if a
/// load references a missing/ill-typed buffer.
pub fn eval_op(op: &Op, args: &[Value], ctx: &ExecCtx<'_>) -> Result<Value, ExecError> {
    if args.len() != op.arity() {
        return Err(ExecError::Arity {
            op: op.to_string(),
            expected: op.arity(),
            got: args.len(),
        });
    }
    match op {
        Op::Vmem { buffer, dx, dy, elem } => {
            let buf = ctx
                .env
                .get(buffer)
                .ok_or_else(|| EvalError::UnknownBuffer(buffer.clone()))?;
            if buf.elem() != *elem {
                return Err(EvalError::BufferTypeMismatch {
                    buffer: buffer.clone(),
                    expected: *elem,
                    actual: buf.elem(),
                }
                .into());
            }
            let v = Vector::from_fn(*elem, ctx.lanes, |i| {
                buf.get(ctx.x0 + i64::from(*dx) + i as i64, ctx.y0 + i64::from(*dy))
            });
            Ok(value_from_bytes(v.to_le_bytes(), ctx.vec_bytes))
        }
        Op::Vsplat { value, elem } => {
            let s = value.value(ctx.env, ctx.y0)?;
            let v = Vector::splat(*elem, s, ctx.lanes);
            Ok(value_from_bytes(v.to_le_bytes(), ctx.vec_bytes))
        }

        Op::Vadd { elem, sat } => {
            let f: fn(ElemType, i64, i64) -> i64 =
                if *sat { lanes::add_sat } else { lanes::add_wrap };
            elementwise2(op, &args[0], &args[1], *elem, |a, b| f(*elem, a, b))
        }
        Op::Vsub { elem, sat } => {
            let f: fn(ElemType, i64, i64) -> i64 =
                if *sat { lanes::sub_sat } else { lanes::sub_wrap };
            elementwise2(op, &args[0], &args[1], *elem, |a, b| f(*elem, a, b))
        }
        Op::Vavg { elem, round } => {
            elementwise2(op, &args[0], &args[1], *elem, |a, b| lanes::avg(*elem, a, b, *round))
        }
        Op::Vnavg { elem } => {
            elementwise2(op, &args[0], &args[1], *elem, |a, b| lanes::navg(*elem, a, b, false))
        }
        Op::Vabsdiff { elem } => {
            elementwise2(op, &args[0], &args[1], *elem, |a, b| lanes::absd(*elem, a, b))
        }
        Op::Vmax { elem } => {
            elementwise2(op, &args[0], &args[1], *elem, |a, b| lanes::max(*elem, a, b))
        }
        Op::Vmin { elem } => {
            elementwise2(op, &args[0], &args[1], *elem, |a, b| lanes::min(*elem, a, b))
        }
        Op::Vand => elementwise2(op, &args[0], &args[1], ElemType::U8, |a, b| a & b),
        Op::Vor => elementwise2(op, &args[0], &args[1], ElemType::U8, |a, b| a | b),
        Op::Vxor => elementwise2(op, &args[0], &args[1], ElemType::U8, |a, b| a ^ b),
        Op::Vnot => elementwise1(op, &args[0], ElemType::U8, |a| !a),

        Op::Vasl { elem, shift } => {
            check_shift(op, *elem, *shift)?;
            elementwise1(op, &args[0], *elem, |a| lanes::shl(*elem, a, *shift))
        }
        Op::Vasr { elem, shift } => {
            check_shift(op, *elem, *shift)?;
            elementwise1(op, &args[0], *elem, |a| lanes::asr(*elem, a, *shift))
        }
        Op::Vlsr { elem, shift } => {
            check_shift(op, *elem, *shift)?;
            elementwise1(op, &args[0], *elem, |a| lanes::lsr(*elem, a, *shift))
        }
        Op::VasrNarrow { elem, shift, round, sat, out } => {
            check_shift(op, *elem, *shift)?;
            let (a, b) = (expect_vec(op, &args[0])?, expect_vec(op, &args[1])?);
            let (sh, rnd, st, o, e) = (*shift, *round, *sat, *out, *elem);
            narrow_interleave(op, a, b, e, o, move |x| {
                let shifted = if rnd { lanes::asr_rnd(e, x, sh) } else { lanes::asr(e, x, sh) };
                if st {
                    o.saturate(shifted)
                } else {
                    o.wrap(shifted)
                }
            })
        }

        Op::Vmpy { elem } => {
            let (a, b) = (expect_vec(op, &args[0])?, expect_vec(op, &args[1])?);
            expect_same_len(op, a, b)?;
            let wide_ty = widened(op, *elem)?;
            let la = a.typed_lanes(*elem);
            let lb = b.typed_lanes(*elem);
            let wide = Vector::from_fn(wide_ty, la.lanes(), |i| la.get(i) * lb.get(i));
            Ok(deinterleave(&wide))
        }
        Op::VmpyScalar { elem, scalar } => {
            let a = expect_vec(op, &args[0])?;
            let s = mul_scalar(op, *elem, scalar, ctx)?;
            let wide_ty = widened(op, *elem)?;
            let la = a.typed_lanes(*elem);
            let wide = Vector::from_fn(wide_ty, la.lanes(), |i| la.get(i) * s);
            Ok(deinterleave(&wide))
        }
        Op::VmpyAcc { elem, scalar } => {
            let x = expect_vec(op, &args[1])?;
            let s = mul_scalar(op, *elem, scalar, ctx)?;
            let wide_ty = widened(op, *elem)?;
            let lx = x.typed_lanes(*elem);
            let wide = Vector::from_fn(wide_ty, lx.lanes(), |i| lx.get(i) * s);
            accumulate_deint(op, Some(&args[0]), &wide, wide_ty)
        }
        Op::Vmpyi { elem, scalar } => {
            let s = mul_scalar(op, *elem, scalar, ctx)?;
            elementwise1(op, &args[0], *elem, |a| lanes::mul_wrap(*elem, a, s))
        }
        Op::VmpyiAcc { elem, scalar } => {
            let s = mul_scalar(op, *elem, scalar, ctx)?;
            elementwise2(op, &args[0], &args[1], *elem, |acc, x| {
                elem.wrap(acc + lanes::mul_wrap(*elem, x, s))
            })
        }
        Op::Vmpyie => mpy_wordhalf(op, &args[0], &args[1], false),
        Op::Vmpyio => mpy_wordhalf(op, &args[0], &args[1], true),
        Op::Vmpa { elem, w0, w1 } => {
            let (a, b) = (expect_vec(op, &args[0])?, expect_vec(op, &args[1])?);
            mpa_core(op, None, a, b, *elem, *w0, *w1)
        }
        Op::VmpaAcc { elem, w0, w1 } => {
            let (a, b) = (expect_vec(op, &args[1])?, expect_vec(op, &args[2])?);
            mpa_core(op, Some(&args[0]), a, b, *elem, *w0, *w1)
        }
        Op::Vtmpy { elem, w0, w1 } => {
            let (a, b) = (expect_vec(op, &args[0])?, expect_vec(op, &args[1])?);
            tmpy_core(op, None, a, b, *elem, *w0, *w1)
        }
        Op::VtmpyAcc { elem, w0, w1 } => {
            let (a, b) = (expect_vec(op, &args[1])?, expect_vec(op, &args[2])?);
            tmpy_core(op, Some(&args[0]), a, b, *elem, *w0, *w1)
        }
        Op::Vdmpy { elem, w0, w1 } => dmpy_core(op, None, &args[0], *elem, *w0, *w1),
        Op::VdmpyAcc { elem, w0, w1 } => {
            dmpy_core(op, Some(&args[0]), &args[1], *elem, *w0, *w1)
        }
        Op::Vrmpy { elem, w } => rmpy_core(op, None, &args[0], *elem, w),
        Op::VrmpyAcc { elem, w } => rmpy_core(op, Some(&args[0]), &args[1], *elem, w),

        Op::Vpack { elem, sat, out } => {
            let (a, b) = (expect_vec(op, &args[0])?, expect_vec(op, &args[1])?);
            let (st, o) = (*sat, *out);
            narrow_interleave(op, a, b, *elem, o, move |x| {
                if st {
                    o.saturate(x)
                } else {
                    o.wrap(x)
                }
            })
        }

        Op::Vcombine => {
            let (hi, lo) = (expect_vec(op, &args[0])?, expect_vec(op, &args[1])?);
            expect_same_len(op, hi, lo)?;
            Ok(Value::Pair(lo.clone(), hi.clone()))
        }
        Op::Lo => Ok(Value::Vec(expect_pair(op, &args[0])?.0.clone())),
        Op::Hi => Ok(Value::Vec(expect_pair(op, &args[0])?.1.clone())),
        Op::VshuffPair { elem } => {
            let (lo, hi) = expect_pair(op, &args[0])?;
            expect_same_len(op, lo, hi)?;
            let ll = lo.typed_lanes(*elem);
            let lh = hi.typed_lanes(*elem);
            let n = ll.lanes();
            let stream = Vector::from_fn(*elem, 2 * n, |i| {
                if i % 2 == 0 {
                    ll.get(i / 2)
                } else {
                    lh.get(i / 2)
                }
            });
            Ok(Value::Pair(
                VecReg::from_lanes(&stream.slice(0, n)),
                VecReg::from_lanes(&stream.slice(n, n)),
            ))
        }
        Op::VdealPair { elem } => {
            let (lo, hi) = expect_pair(op, &args[0])?;
            expect_same_len(op, lo, hi)?;
            let nat = lo.typed_lanes(*elem).concat(&hi.typed_lanes(*elem));
            Ok(deinterleave(&nat))
        }
        Op::Valign { bytes } => {
            let (a, b) = (expect_vec(op, &args[0])?, expect_vec(op, &args[1])?);
            expect_same_len(op, a, b)?;
            let n = *bytes as usize;
            if n > a.len() {
                return Err(bad_operand(op, format!("align offset {n} exceeds register size")));
            }
            let concat: Vec<u8> = b.as_bytes().iter().chain(a.as_bytes()).copied().collect();
            Ok(Value::Vec(VecReg::new(concat[n..n + a.len()].to_vec())))
        }
        Op::Vror { bytes } => {
            let a = expect_vec(op, &args[0])?;
            Ok(Value::Vec(a.rotate_bytes(*bytes as usize)))
        }
        Op::Vzxt { elem } => {
            let a = expect_vec(op, &args[0])?;
            let src = elem.as_unsigned();
            let wide_ty = widened(op, src)?;
            let la = a.typed_lanes(src);
            let wide = Vector::from_fn(wide_ty, la.lanes(), |i| la.get(i));
            Ok(deinterleave(&wide))
        }
        Op::Vsxt { elem } => {
            let a = expect_vec(op, &args[0])?;
            let src = elem.as_signed();
            let wide_ty = widened(op, src)?;
            let la = a.typed_lanes(src);
            let wide = Vector::from_fn(wide_ty, la.lanes(), |i| la.get(i));
            Ok(deinterleave(&wide))
        }
    }
}

fn check_shift(op: &Op, elem: ElemType, shift: u32) -> Result<(), ExecError> {
    if shift < elem.bits() {
        Ok(())
    } else {
        Err(bad_operand(op, format!("shift {shift} out of range for {elem}")))
    }
}

fn mpy_wordhalf(op: &Op, w: &Value, h: &Value, odd: bool) -> Result<Value, ExecError> {
    let (w, h) = (expect_vec(op, w)?, expect_vec(op, h)?);
    expect_same_len(op, w, h)?;
    let lw = w.typed_lanes(ElemType::I32);
    let lh = if odd {
        h.typed_lanes(ElemType::I16)
    } else {
        h.typed_lanes(ElemType::U16)
    };
    let off = usize::from(odd);
    let out = Vector::from_fn(ElemType::I32, lw.lanes(), |i| lw.get(i) * lh.get(2 * i + off));
    Ok(Value::Vec(VecReg::from_lanes(&out)))
}

fn tmpy_core(
    op: &Op,
    acc: Option<&Value>,
    a: &VecReg,
    b: &VecReg,
    elem: ElemType,
    w0: i64,
    w1: i64,
) -> Result<Value, ExecError> {
    expect_same_len(op, a, b)?;
    let wide_ty = widened(op, elem)?;
    let c = a.typed_lanes(elem).concat(&b.typed_lanes(elem));
    let n = a.lanes(elem);
    let wide =
        Vector::from_fn(wide_ty, n, |i| c.get(i) * w0 + c.get(i + 1) * w1 + c.get(i + 2));
    accumulate_deint(op, acc, &wide, wide_ty)
}

fn dmpy_core(
    op: &Op,
    acc: Option<&Value>,
    a: &Value,
    elem: ElemType,
    w0: i64,
    w1: i64,
) -> Result<Value, ExecError> {
    let a = expect_vec(op, a)?;
    let wide_ty = widened(op, elem)?;
    let la = a.typed_lanes(elem);
    let out =
        Vector::from_fn(wide_ty, la.lanes() / 2, |i| la.get(2 * i) * w0 + la.get(2 * i + 1) * w1);
    match acc {
        None => Ok(Value::Vec(VecReg::from_lanes(&out))),
        Some(acc) => {
            let acc = expect_vec(op, acc)?;
            if acc.len() != out.lanes() * wide_ty.bytes() {
                return Err(shape_err(op, "accumulator length mismatch"));
            }
            let sum = acc.typed_lanes(wide_ty).zip(&out, |x, y| x + y);
            Ok(Value::Vec(VecReg::from_lanes(&sum)))
        }
    }
}

fn rmpy_core(
    op: &Op,
    acc: Option<&Value>,
    a: &Value,
    elem: ElemType,
    w: &[i64; 4],
) -> Result<Value, ExecError> {
    let a = expect_vec(op, a)?;
    if elem.bits() != 8 {
        return Err(bad_operand(op, "vrmpy requires byte elements"));
    }
    let wide2 = ElemType::I32; // 4-way byte reduce accumulates in words
    let la = a.typed_lanes(elem);
    let out = Vector::from_fn(wide2, la.lanes() / 4, |i| {
        (0..4).map(|k| la.get(4 * i + k) * w[k]).sum()
    });
    match acc {
        None => Ok(Value::Vec(VecReg::from_lanes(&out))),
        Some(acc) => {
            let acc = expect_vec(op, acc)?;
            if acc.len() != out.lanes() * wide2.bytes() {
                return Err(shape_err(op, "accumulator length mismatch"));
            }
            let sum = acc.typed_lanes(wide2).zip(&out, |x, y| x + y);
            Ok(Value::Vec(VecReg::from_lanes(&sum)))
        }
    }
}

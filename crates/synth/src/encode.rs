//! SMT encodings of Halide IR and Uber IR lane semantics.
//!
//! Each accessed buffer cell becomes one bit-vector variable, so a lane of
//! an expression is a term over the symbolic tile window. Equivalence of
//! two expressions over `L` lanes is the unsatisfiability of "some lane
//! differs" — the query shape Rake issues to Z3, here discharged by the
//! bundled bit-blasting solver.

use halide_ir::{BinOp, Expr, ScalarOperand, ShiftDir};
use lanes::ElemType;
use smt::{Context, TermId};
use uber_ir::UberExpr;

/// Name of the variable standing for cell `(buffer, x, dy)` where `x` is
/// lane-relative (`dx + lane`).
pub fn cell_var(buffer: &str, x: i64, dy: i32) -> String {
    format!("cell_{buffer}_x{x}_y{dy}")
}

/// Name of the variable standing for a runtime scalar `buffer(x, y0+dy)`.
pub fn scalar_var(buffer: &str, x: i32, dy: i32) -> String {
    format!("scal_{buffer}_x{x}_y{dy}")
}

fn ext_to(ctx: &mut Context, t: TermId, signed: bool, width: u32) -> TermId {
    let w = ctx.width(t);
    debug_assert!(width >= w);
    if signed {
        ctx.sign_ext(t, width - w)
    } else {
        ctx.zero_ext(t, width - w)
    }
}

/// Saturating cast of a term of type `src` into type `dst` (result width
/// `dst.bits()`).
pub fn sat_cast(ctx: &mut Context, t: TermId, src: ElemType, dst: ElemType) -> TermId {
    if dst.bits() >= src.bits() && dst.is_signed() == src.is_signed() {
        return ext_to(ctx, t, src.is_signed(), dst.bits());
    }
    let clamped = if src.is_signed() {
        let lo = dst.min_value().max(src.min_value());
        let hi = dst.max_value().min(src.max_value());
        ctx.sclamp(t, lo, hi)
    } else {
        // Unsigned source: only an upper clamp can apply.
        let hi = (dst.max_value() as u64).min(src.max_value() as u64);
        let hi_t = ctx.constant(hi, src.bits());
        ctx.umin(t, hi_t)
    };
    if dst.bits() <= src.bits() {
        ctx.extract(clamped, dst.bits() - 1, 0)
    } else {
        ext_to(ctx, clamped, src.is_signed(), dst.bits())
    }
}

fn bin_minmax(ctx: &mut Context, op: BinOp, ty: ElemType, a: TermId, b: TermId) -> TermId {
    match (op, ty.is_signed()) {
        (BinOp::Min, true) => ctx.smin(a, b),
        (BinOp::Min, false) => ctx.umin(a, b),
        (BinOp::Max, true) => ctx.smax(a, b),
        (BinOp::Max, false) => ctx.umax(a, b),
        _ => unreachable!("bin_minmax only handles min/max"),
    }
}

fn absd(ctx: &mut Context, ty: ElemType, a: TermId, b: TermId) -> TermId {
    let lt = if ty.is_signed() { ctx.slt(a, b) } else { ctx.ult(a, b) };
    let d1 = ctx.sub(a, b);
    let d2 = ctx.sub(b, a);
    ctx.ite(lt, d2, d1)
}

/// Encode one lane of a Halide IR expression as a term of width
/// `e.ty().bits()`.
pub fn encode_halide_lane(ctx: &mut Context, e: &Expr, lane: usize) -> TermId {
    match e {
        Expr::Load(l) => {
            let name = cell_var(&l.buffer, i64::from(l.dx) + lane as i64, l.dy);
            ctx.var(&name, l.ty.bits())
        }
        Expr::Broadcast(b) => ctx.constant_signed(b.value, b.ty.bits()),
        Expr::BroadcastLoad(b) => {
            let name = scalar_var(&b.buffer, b.x, b.dy);
            ctx.var(&name, b.ty.bits())
        }
        Expr::Cast(c) => {
            let src = c.arg.ty();
            let t = encode_halide_lane(ctx, &c.arg, lane);
            if c.saturating {
                sat_cast(ctx, t, src, c.to)
            } else if c.to.bits() <= src.bits() {
                ctx.extract(t, c.to.bits() - 1, 0)
            } else {
                ext_to(ctx, t, src.is_signed(), c.to.bits())
            }
        }
        Expr::Binary(b) => {
            let ty = e.ty();
            let ta = encode_halide_lane(ctx, &b.lhs, lane);
            let tb = encode_halide_lane(ctx, &b.rhs, lane);
            match b.op {
                BinOp::Add => ctx.add(ta, tb),
                BinOp::Sub => ctx.sub(ta, tb),
                BinOp::Mul => ctx.mul(ta, tb),
                BinOp::Min | BinOp::Max => bin_minmax(ctx, b.op, ty, ta, tb),
                BinOp::Absd => absd(ctx, ty, ta, tb),
            }
        }
        Expr::Shift(s) => {
            let ty = e.ty();
            let t = encode_halide_lane(ctx, &s.arg, lane);
            match s.dir {
                ShiftDir::Left => ctx.shl(t, s.amount),
                ShiftDir::Right => {
                    if ty.is_signed() {
                        ctx.ashr(t, s.amount)
                    } else {
                        ctx.lshr(t, s.amount)
                    }
                }
            }
        }
    }
}

/// A scalar operand as a term of the lane type's width: an immediate is a
/// constant, a runtime scalar the variable [`scalar_var`] names.
pub(crate) fn scalar_term(ctx: &mut Context, s: &ScalarOperand, ty: ElemType) -> TermId {
    match s {
        ScalarOperand::Imm(v) => ctx.constant_signed(*v, ty.bits()),
        ScalarOperand::Load { buffer, x, dy } => {
            let name = scalar_var(buffer, *x, *dy);
            ctx.var(&name, ty.bits())
        }
    }
}

/// Headroom width for multiply-accumulate sums.
fn acc_width(out_bits: u32, extra: u32) -> u32 {
    (out_bits + extra).min(64)
}

/// Encode one lane of an uber-expression as a term of width
/// `e.ty().bits()`.
///
/// # Panics
///
/// Panics if a `vs-mpy-add` kernel weight exceeds the headroom bound
/// (|w| ≥ 2^12); the lifting engine never constructs such kernels.
pub fn encode_uber_lane(ctx: &mut Context, e: &UberExpr, lane: usize) -> TermId {
    match e {
        UberExpr::Data(l) => {
            let name = cell_var(&l.buffer, i64::from(l.dx) + lane as i64, l.dy);
            ctx.var(&name, l.ty.bits())
        }
        UberExpr::Bcast { value, ty } => scalar_term(ctx, value, *ty),
        UberExpr::VsMpyAdd(v) => {
            let w = acc_width(v.out.bits(), 16);
            let mut sum = ctx.constant(0, w);
            for (input, &k) in v.inputs.iter().zip(&v.kernel) {
                assert!(k.unsigned_abs() < (1 << 12), "kernel weight {k} too large to encode");
                let ity = input.ty();
                let t = encode_uber_lane(ctx, input, lane);
                let wide = ext_to(ctx, t, ity.is_signed(), w);
                let kc = ctx.constant_signed(k, w);
                let prod = ctx.mul(wide, kc);
                sum = ctx.add(sum, prod);
            }
            finish_acc(ctx, sum, v.saturating, v.out)
        }
        UberExpr::VvMpyAdd(v) => {
            let max_in: u32 = v
                .pairs
                .iter()
                .map(|(a, b)| a.ty().bits() + b.ty().bits())
                .max()
                .unwrap_or(16);
            let w = acc_width(v.out.bits().max(max_in), 6);
            let mut sum = ctx.constant(0, w);
            for (a, b) in &v.pairs {
                let (ta, tb) = (encode_uber_lane(ctx, a, lane), encode_uber_lane(ctx, b, lane));
                let wa = ext_to(ctx, ta, a.ty().is_signed(), w);
                let wb = ext_to(ctx, tb, b.ty().is_signed(), w);
                let prod = ctx.mul(wa, wb);
                sum = ctx.add(sum, prod);
            }
            finish_acc(ctx, sum, v.saturating, v.out)
        }
        UberExpr::AbsDiff(a, b) => {
            let ty = a.ty();
            let (ta, tb) = (encode_uber_lane(ctx, a, lane), encode_uber_lane(ctx, b, lane));
            absd(ctx, ty, ta, tb)
        }
        UberExpr::Min(a, b) => {
            let ty = a.ty();
            let (ta, tb) = (encode_uber_lane(ctx, a, lane), encode_uber_lane(ctx, b, lane));
            bin_minmax(ctx, BinOp::Min, ty, ta, tb)
        }
        UberExpr::Max(a, b) => {
            let ty = a.ty();
            let (ta, tb) = (encode_uber_lane(ctx, a, lane), encode_uber_lane(ctx, b, lane));
            bin_minmax(ctx, BinOp::Max, ty, ta, tb)
        }
        UberExpr::Average { a, b, round } => {
            let ty = a.ty();
            let w = ty.bits() + 2;
            let (ta, tb) = (encode_uber_lane(ctx, a, lane), encode_uber_lane(ctx, b, lane));
            let wa = ext_to(ctx, ta, ty.is_signed(), w);
            let wb = ext_to(ctx, tb, ty.is_signed(), w);
            let mut sum = ctx.add(wa, wb);
            if *round {
                let one = ctx.constant(1, w);
                sum = ctx.add(sum, one);
            }
            let sh = ctx.ashr(sum, 1);
            ctx.extract(sh, ty.bits() - 1, 0)
        }
        UberExpr::Narrow { arg, shift, round, saturating, out } => {
            let src = arg.ty();
            let t = encode_uber_lane(ctx, arg, lane);
            if *saturating {
                // The round-add wraps at the source width (same datapath as
                // vasr:rnd:sat and the wrapping branch below); only the final
                // clamp into `out` distinguishes the saturating form.
                let mut v = t;
                if *round && *shift > 0 {
                    let r = ctx.constant(1u64 << (shift - 1), src.bits());
                    v = ctx.add(v, r);
                }
                let shifted =
                    if src.is_signed() { ctx.ashr(v, *shift) } else { ctx.lshr(v, *shift) };
                let w = src.bits().max(out.bits()) + 1;
                let wide = ext_to(ctx, shifted, src.is_signed(), w);
                let clamped = ctx.sclamp(wide, out.min_value(), out.max_value());
                ctx.extract(clamped, out.bits() - 1, 0)
            } else {
                // Wrapping semantics: round-add wraps at the source width.
                let mut v = t;
                if *round && *shift > 0 {
                    let r = ctx.constant(1u64 << (shift - 1), src.bits());
                    v = ctx.add(v, r);
                }
                let shifted =
                    if src.is_signed() { ctx.ashr(v, *shift) } else { ctx.lshr(v, *shift) };
                if out.bits() <= src.bits() {
                    ctx.extract(shifted, out.bits() - 1, 0)
                } else {
                    ext_to(ctx, shifted, src.is_signed(), out.bits())
                }
            }
        }
        UberExpr::Widen { arg, out } => {
            let src = arg.ty();
            let t = encode_uber_lane(ctx, arg, lane);
            ext_to(ctx, t, src.is_signed(), out.bits())
        }
        UberExpr::Shl { arg, amount } => {
            let t = encode_uber_lane(ctx, arg, lane);
            ctx.shl(t, *amount)
        }
    }
}

fn finish_acc(ctx: &mut Context, sum: TermId, saturating: bool, out: ElemType) -> TermId {
    let w = ctx.width(sum);
    if saturating {
        let clamped = ctx.sclamp(sum, out.min_value(), out.max_value());
        ctx.extract(clamped, out.bits() - 1, 0)
    } else if out.bits() <= w {
        ctx.extract(sum, out.bits() - 1, 0)
    } else {
        ext_to(ctx, sum, true, out.bits())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use halide_ir::builder as hb;

    fn equiv_lane0(h: &Expr, u: &UberExpr) -> bool {
        smt::prove_unsat(
            |ctx| {
                let th = encode_halide_lane(ctx, h, 0);
                let tu = encode_uber_lane(ctx, u, 0);
                Some(ctx.ne(th, tu))
            },
            u64::MAX,
        )
        .expect("unbounded check cannot time out")
    }

    #[test]
    fn widen_mul_add_equals_vs_mpy_add() {
        // u16(in(x)) * 2 + u16(in(x+1))  ==  vs-mpy-add(in, [2, 1], u16)
        let h = hb::add(
            hb::mul(hb::widen(hb::load("in", ElemType::U8, 0, 0)), hb::bcast(2, ElemType::U16)),
            hb::widen(hb::load("in", ElemType::U8, 1, 0)),
        );
        let u = UberExpr::conv("in", ElemType::U8, 0, 0, &[2, 1], ElemType::U16);
        assert!(equiv_lane0(&h, &u));
    }

    #[test]
    fn wrong_kernel_rejected() {
        let h = hb::add(
            hb::widen(hb::load("in", ElemType::U8, 0, 0)),
            hb::widen(hb::load("in", ElemType::U8, 1, 0)),
        );
        let u = UberExpr::conv("in", ElemType::U8, 0, 0, &[2, 1], ElemType::U16);
        assert!(!equiv_lane0(&h, &u));
    }

    #[test]
    fn saturating_clamp_pattern() {
        // u8(max(min(x, 255), 0)) over u16 x == narrow:sat(x)
        let x = hb::load("w", ElemType::U16, 0, 0);
        let h = hb::cast(ElemType::U8, hb::clamp(x, 0, 255));
        let u = UberExpr::Narrow {
            arg: Box::new(UberExpr::Data(halide_ir::Load {
                buffer: "w".into(),
                dx: 0,
                dy: 0,
                ty: ElemType::U16,
            })),
            shift: 0,
            round: false,
            saturating: true,
            out: ElemType::U8,
        };
        assert!(equiv_lane0(&h, &u));
    }

    #[test]
    fn rounding_shift_cast_pattern() {
        // u8((x + 8) >> 4) over a *bounded* u16 x is the gaussian3x3 fused
        // narrow; over an unbounded u16 load it must NOT verify against the
        // saturating fused form but must verify against the wrapping form.
        let x = hb::load("w", ElemType::U16, 0, 0);
        let h = hb::cast(ElemType::U8, hb::shr(hb::add(x, hb::bcast(8, ElemType::U16)), 4));
        let data = UberExpr::Data(halide_ir::Load {
            buffer: "w".into(),
            dx: 0,
            dy: 0,
            ty: ElemType::U16,
        });
        let wrapping = UberExpr::Narrow {
            arg: Box::new(data.clone()),
            shift: 4,
            round: true,
            saturating: false,
            out: ElemType::U8,
        };
        assert!(equiv_lane0(&h, &wrapping));
        let saturating = UberExpr::Narrow {
            arg: Box::new(data),
            shift: 4,
            round: true,
            saturating: true,
            out: ElemType::U8,
        };
        assert!(!equiv_lane0(&h, &saturating));
    }

    #[test]
    fn saturating_rounding_narrow_wraps_at_source_width() {
        // sat_i8((x + 1) >> 1) over an unbounded i16 x: the round-add wraps
        // at i16 (x = 32767 lands on -128, not 127), and the fused
        // saturating narrow must agree on every lane value for the lift to
        // be provable. This is the SMT-level twin of the interpreter fix.
        let x = hb::load("w", ElemType::I16, 0, 0);
        let h = hb::sat_cast(ElemType::I8, hb::shr(hb::add(x, hb::bcast(1, ElemType::I16)), 1));
        let u = UberExpr::Narrow {
            arg: Box::new(UberExpr::Data(halide_ir::Load {
                buffer: "w".into(),
                dx: 0,
                dy: 0,
                ty: ElemType::I16,
            })),
            shift: 1,
            round: true,
            saturating: true,
            out: ElemType::I8,
        };
        assert!(equiv_lane0(&h, &u));
    }

    #[test]
    fn absd_encoding_matches() {
        let h = hb::absd(hb::load("a", ElemType::U8, 0, 0), hb::load("b", ElemType::U8, 0, 0));
        let u = UberExpr::AbsDiff(
            Box::new(UberExpr::Data(halide_ir::Load {
                buffer: "a".into(),
                dx: 0,
                dy: 0,
                ty: ElemType::U8,
            })),
            Box::new(UberExpr::Data(halide_ir::Load {
                buffer: "b".into(),
                dx: 0,
                dy: 0,
                ty: ElemType::U8,
            })),
        );
        assert!(equiv_lane0(&h, &u));
    }

    #[test]
    fn shift_left_is_mul_by_power_of_two() {
        // i16(in) << 6 == vs-mpy-add(in, [64], i16): the `add` benchmark's
        // semantic-reasoning case (Figure 12).
        let h = hb::shl(hb::cast(ElemType::I16, hb::load("in", ElemType::U8, 0, 0)), 6);
        let u = UberExpr::conv("in", ElemType::U8, 0, 0, &[64], ElemType::I16);
        assert!(equiv_lane0(&h, &u));
    }
}

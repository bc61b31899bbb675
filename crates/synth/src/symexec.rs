//! A symbolic executor for HVX expressions: the "interpreter for the
//! target ISA" that the paper gives its SMT engine (§2.2.1), here over the
//! bundled bit-vector solver.
//!
//! Registers are vectors of 8-bit terms (bytes), exactly like the concrete
//! executor's byte-level registers, so reinterpretation effects —
//! deinterleaved pairs, `vaslw` on halfword data, saturating packs — are
//! modeled bit-precisely. Combined with [`crate::encode::encode_uber_lane`]
//! this yields solver-checked lowering verification
//! ([`Verifier`](crate::Verifier) option `smt_lowering`).

use halide_ir::ScalarOperand;
use lanes::ElemType;
use smt::{Context, TermId};

use crate::encode::{cell_var, scalar_term, scalar_var};
use hvx::{HvxExpr, Op};

/// A symbolic register: little-endian bytes, each an 8-bit term.
#[derive(Debug, Clone)]
pub struct SymReg {
    bytes: Vec<TermId>,
}

/// A symbolic value: register or pair.
#[derive(Debug, Clone)]
pub enum SymValue {
    /// One register.
    Vec(SymReg),
    /// A register pair `(lo, hi)`.
    Pair(SymReg, SymReg),
}

/// Why symbolic execution declined an expression.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Unsupported(pub String);

type Sym<T> = Result<T, Unsupported>;

fn unsupported<T>(what: impl Into<String>) -> Sym<T> {
    Err(Unsupported(what.into()))
}

impl SymReg {
    fn lanes(&self, ctx: &mut Context, elem: ElemType) -> Vec<TermId> {
        self.bytes
            .chunks(elem.bytes())
            .map(|chunk| {
                let mut t = chunk[0];
                for &b in &chunk[1..] {
                    t = ctx.concat(b, t); // later bytes are more significant
                }
                t
            })
            .collect()
    }

    fn from_lanes(ctx: &mut Context, lanes: &[TermId], elem: ElemType) -> SymReg {
        let mut bytes = Vec::with_capacity(lanes.len() * elem.bytes());
        for &lane in lanes {
            for k in 0..elem.bytes() as u32 {
                bytes.push(ctx.extract(lane, k * 8 + 7, k * 8));
            }
        }
        SymReg { bytes }
    }

    fn len(&self) -> usize {
        self.bytes.len()
    }
}

impl SymValue {
    fn as_vec(&self) -> Sym<&SymReg> {
        match self {
            SymValue::Vec(r) => Ok(r),
            SymValue::Pair(..) => unsupported("expected a single register"),
        }
    }

    fn as_pair(&self) -> Sym<(&SymReg, &SymReg)> {
        match self {
            SymValue::Vec(_) => unsupported("expected a pair"),
            SymValue::Pair(lo, hi) => Ok((lo, hi)),
        }
    }

    /// Natural-order lanes (`lo` then `hi` for a pair).
    pub fn natural_lanes(&self, ctx: &mut Context, elem: ElemType) -> Vec<TermId> {
        match self {
            SymValue::Vec(r) => r.lanes(ctx, elem),
            SymValue::Pair(lo, hi) => {
                let mut l = lo.lanes(ctx, elem);
                l.extend(hi.lanes(ctx, elem));
                l
            }
        }
    }
}

/// The symbolic execution context: lane count (kept small — the symbolic
/// tile) and the term context.
pub struct SymExec<'c> {
    /// Term-building context.
    pub ctx: &'c mut Context,
    /// Lanes of the symbolic tile.
    pub lanes: usize,
    /// Register width in bytes: sources wider than this split into
    /// natural-order pairs, as in the concrete executor.
    pub vec_bytes: usize,
}

impl SymExec<'_> {
    fn widen_lane(&mut self, t: TermId, signed: bool, extra: u32) -> TermId {
        if signed {
            self.ctx.sign_ext(t, extra)
        } else {
            self.ctx.zero_ext(t, extra)
        }
    }

    /// A multiply scalar as a term of width `2 * elem.bits()`. Runtime
    /// scalars are element-wide solver variables (the same name and width
    /// the uber encoder uses), extended by the element's signedness.
    fn scalar(&mut self, s: &ScalarOperand, elem: ElemType) -> Sym<TermId> {
        let width = elem.bits() * 2;
        match s {
            ScalarOperand::Imm(v) => Ok(self.ctx.constant_signed(*v, width)),
            ScalarOperand::Load { buffer, x, dy } => {
                let narrow = self.ctx.var(&scalar_var(buffer, *x, *dy), elem.bits());
                Ok(ext(self.ctx, narrow, elem.is_signed(), elem.bits()))
            }
        }
    }

    /// Wrap source lanes into a value, splitting into a natural-order pair
    /// when wider than one register.
    fn source_value(&mut self, lanes: &[TermId], elem: ElemType) -> SymValue {
        if lanes.len() * elem.bytes() <= self.vec_bytes {
            SymValue::Vec(SymReg::from_lanes(self.ctx, lanes, elem))
        } else {
            let half = lanes.len() / 2;
            SymValue::Pair(
                SymReg::from_lanes(self.ctx, &lanes[..half], elem),
                SymReg::from_lanes(self.ctx, &lanes[half..], elem),
            )
        }
    }

    /// Deinterleave natural-order wide lanes into a pair.
    fn deinterleave(&mut self, wide: &[TermId], elem: ElemType) -> SymValue {
        let evens: Vec<TermId> = wide.iter().copied().step_by(2).collect();
        let odds: Vec<TermId> = wide.iter().copied().skip(1).step_by(2).collect();
        SymValue::Pair(
            SymReg::from_lanes(self.ctx, &evens, elem),
            SymReg::from_lanes(self.ctx, &odds, elem),
        )
    }

    fn elementwise2(
        &mut self,
        a: &SymValue,
        b: &SymValue,
        elem: ElemType,
        f: &mut dyn FnMut(&mut Context, TermId, TermId) -> TermId,
    ) -> Sym<SymValue> {
        let mut go = |sx: &mut SymExec<'_>, ra: &SymReg, rb: &SymReg| -> Sym<SymReg> {
            if ra.len() != rb.len() {
                return unsupported("length mismatch");
            }
            let (la, lb) = (ra.lanes(sx.ctx, elem), rb.lanes(sx.ctx, elem));
            let out: Vec<TermId> =
                la.iter().zip(&lb).map(|(&x, &y)| f(sx.ctx, x, y)).collect();
            Ok(SymReg::from_lanes(sx.ctx, &out, elem))
        };
        match (a, b) {
            (SymValue::Vec(ra), SymValue::Vec(rb)) => Ok(SymValue::Vec(go(self, ra, rb)?)),
            (SymValue::Pair(al, ah), SymValue::Pair(bl, bh)) => {
                Ok(SymValue::Pair(go(self, al, bl)?, go(self, ah, bh)?))
            }
            _ => unsupported("mixed shapes"),
        }
    }

    /// Symbolically execute an HVX expression over the shared cell
    /// variables.
    pub fn eval(&mut self, e: &HvxExpr) -> Sym<SymValue> {
        let args: Vec<SymValue> =
            e.args().iter().map(|a| self.eval(a)).collect::<Sym<Vec<_>>>()?;
        self.eval_op(e.root(), &args)
    }

    #[allow(clippy::too_many_lines)]
    fn eval_op(&mut self, op: &Op, args: &[SymValue]) -> Sym<SymValue> {
        match op {
            Op::Vmem { buffer, dx, dy, elem } => {
                let lanes: Vec<TermId> = (0..self.lanes)
                    .map(|i| {
                        self.ctx.var(
                            &cell_var(buffer, i64::from(*dx) + i as i64, *dy),
                            elem.bits(),
                        )
                    })
                    .collect();
                Ok(self.source_value(&lanes, *elem))
            }
            Op::Vsplat { value, elem } => {
                let s = scalar_term(self.ctx, value, *elem);
                let lanes = vec![s; self.lanes];
                Ok(self.source_value(&lanes, *elem))
            }
            Op::Vadd { elem, sat } | Op::Vsub { elem, sat } => {
                let is_add = matches!(op, Op::Vadd { .. });
                let (e, s, signed) = (*elem, *sat, elem.is_signed());
                self.elementwise2(&args[0], &args[1], e, &mut |ctx, x, y| {
                    if !s {
                        if is_add {
                            ctx.add(x, y)
                        } else {
                            ctx.sub(x, y)
                        }
                    } else {
                        // Saturate at 2-bit headroom.
                        let wx = ext(ctx, x, signed, 2);
                        let wy = ext(ctx, y, signed, 2);
                        let sum = if is_add { ctx.add(wx, wy) } else { ctx.sub(wx, wy) };
                        let clamped = ctx.sclamp(sum, e.min_value(), e.max_value());
                        ctx.extract(clamped, e.bits() - 1, 0)
                    }
                })
            }
            Op::Vavg { elem, round } => {
                let (e, r, signed) = (*elem, *round, elem.is_signed());
                self.elementwise2(&args[0], &args[1], e, &mut |ctx, x, y| {
                    let wx = ext(ctx, x, signed, 2);
                    let wy = ext(ctx, y, signed, 2);
                    let mut sum = ctx.add(wx, wy);
                    if r {
                        let one = ctx.constant(1, e.bits() + 2);
                        sum = ctx.add(sum, one);
                    }
                    let sh = ctx.ashr(sum, 1);
                    ctx.extract(sh, e.bits() - 1, 0)
                })
            }
            Op::Vabsdiff { elem } => {
                let signed = elem.is_signed();
                self.elementwise2(&args[0], &args[1], *elem, &mut |ctx, x, y| {
                    let lt = if signed { ctx.slt(x, y) } else { ctx.ult(x, y) };
                    let d1 = ctx.sub(x, y);
                    let d2 = ctx.sub(y, x);
                    ctx.ite(lt, d2, d1)
                })
            }
            Op::Vmax { elem } | Op::Vmin { elem } => {
                let is_max = matches!(op, Op::Vmax { .. });
                let signed = elem.is_signed();
                self.elementwise2(&args[0], &args[1], *elem, &mut |ctx, x, y| {
                    match (is_max, signed) {
                        (true, true) => ctx.smax(x, y),
                        (true, false) => ctx.umax(x, y),
                        (false, true) => ctx.smin(x, y),
                        (false, false) => ctx.umin(x, y),
                    }
                })
            }
            Op::Vasl { elem, shift } => {
                let sh = *shift;
                self.elementwise2(&args[0], &args[0].clone(), *elem, &mut |ctx, x, _| {
                    ctx.shl(x, sh)
                })
            }
            Op::Vasr { elem, shift } | Op::Vlsr { elem, shift } => {
                let arith = matches!(op, Op::Vasr { .. }) && elem.is_signed();
                let sh = *shift;
                self.elementwise2(&args[0], &args[0].clone(), *elem, &mut |ctx, x, _| {
                    if arith {
                        ctx.ashr(x, sh)
                    } else {
                        ctx.lshr(x, sh)
                    }
                })
            }
            Op::VasrNarrow { elem, shift, round, sat, out } => {
                let (a, b) = (args[0].as_vec()?.clone(), args[1].as_vec()?.clone());
                let (la, lb) = (a.lanes(self.ctx, *elem), b.lanes(self.ctx, *elem));
                let signed = elem.is_signed();
                let mut outl = Vec::with_capacity(la.len() * 2);
                for i in 0..la.len() {
                    for src in [lb[i], la[i]] {
                        // even lane from b, odd from a
                        let t = narrow_term(self.ctx, src, signed, *shift, *round, *sat, *out);
                        outl.push(t);
                    }
                }
                Ok(SymValue::Vec(SymReg::from_lanes(self.ctx, &outl, *out)))
            }
            Op::Vpack { elem, sat, out } => {
                let (a, b) = (args[0].as_vec()?.clone(), args[1].as_vec()?.clone());
                let (la, lb) = (a.lanes(self.ctx, *elem), b.lanes(self.ctx, *elem));
                let signed = elem.is_signed();
                let mut outl = Vec::with_capacity(la.len() * 2);
                for i in 0..la.len() {
                    for src in [lb[i], la[i]] {
                        let t = narrow_term(self.ctx, src, signed, 0, false, *sat, *out);
                        outl.push(t);
                    }
                }
                Ok(SymValue::Vec(SymReg::from_lanes(self.ctx, &outl, *out)))
            }
            Op::Vmpy { elem } => {
                let (a, b) = (args[0].as_vec()?.clone(), args[1].as_vec()?.clone());
                let wide = self.widening_mul(&a, Some(&b), None, *elem)?;
                Ok(self.deinterleave(&wide, elem.widened().expect("widened")))
            }
            Op::VmpyScalar { elem, scalar } => {
                let a = args[0].as_vec()?.clone();
                let s = self.scalar(scalar, *elem)?;
                let wide = self.widening_mul(&a, None, Some(s), *elem)?;
                Ok(self.deinterleave(&wide, elem.widened().expect("widened")))
            }
            Op::VmpyAcc { elem, scalar } => {
                let x = args[1].as_vec()?.clone();
                let s = self.scalar(scalar, *elem)?;
                let wide = self.widening_mul(&x, None, Some(s), *elem)?;
                self.acc_pair(&args[0], &wide, elem.widened().expect("widened"))
            }
            Op::Vmpa { elem, w0, w1 } | Op::VmpaAcc { elem, w0, w1 } => {
                let accumulating = matches!(op, Op::VmpaAcc { .. });
                let off = usize::from(accumulating);
                let (a, b) = (args[off].as_vec()?.clone(), args[off + 1].as_vec()?.clone());
                let wide_ty = elem.widened().expect("widened");
                let signed = elem.is_signed();
                let (la, lb) = (a.lanes(self.ctx, *elem), b.lanes(self.ctx, *elem));
                let wide: Vec<TermId> = la
                    .iter()
                    .zip(&lb)
                    .map(|(&x, &y)| {
                        let wx = ext(self.ctx, x, signed, elem.bits());
                        let wy = ext(self.ctx, y, signed, elem.bits());
                        let c0 = self.ctx.constant_signed(*w0, wide_ty.bits());
                        let c1 = self.ctx.constant_signed(*w1, wide_ty.bits());
                        let p0 = self.ctx.mul(wx, c0);
                        let p1 = self.ctx.mul(wy, c1);
                        self.ctx.add(p0, p1)
                    })
                    .collect();
                if accumulating {
                    self.acc_pair(&args[0], &wide, wide_ty)
                } else {
                    Ok(self.deinterleave(&wide, wide_ty))
                }
            }
            Op::Vzxt { elem } | Op::Vsxt { elem } => {
                let signed = matches!(op, Op::Vsxt { .. });
                let src = if signed { elem.as_signed() } else { elem.as_unsigned() };
                let a = args[0].as_vec()?.clone();
                let la = a.lanes(self.ctx, src);
                let wide: Vec<TermId> =
                    la.iter().map(|&t| self.widen_lane(t, signed, src.bits())).collect();
                Ok(self.deinterleave(&wide, src.widened().expect("widened")))
            }
            Op::Vcombine => {
                let (hi, lo) = (args[0].as_vec()?.clone(), args[1].as_vec()?.clone());
                Ok(SymValue::Pair(lo, hi))
            }
            Op::Lo => Ok(SymValue::Vec(args[0].as_pair()?.0.clone())),
            Op::Hi => Ok(SymValue::Vec(args[0].as_pair()?.1.clone())),
            Op::VshuffPair { elem } => {
                let (lo, hi) = args[0].as_pair()?;
                let (lo, hi) = (lo.clone(), hi.clone());
                let (ll, lh) = (lo.lanes(self.ctx, *elem), hi.lanes(self.ctx, *elem));
                let mut stream = Vec::with_capacity(ll.len() * 2);
                for i in 0..ll.len() {
                    stream.push(ll[i]);
                    stream.push(lh[i]);
                }
                let n = ll.len();
                Ok(SymValue::Pair(
                    SymReg::from_lanes(self.ctx, &stream[..n], *elem),
                    SymReg::from_lanes(self.ctx, &stream[n..], *elem),
                ))
            }
            Op::VdealPair { elem } => {
                let (lo, hi) = args[0].as_pair()?;
                let (lo, hi) = (lo.clone(), hi.clone());
                let mut nat = lo.lanes(self.ctx, *elem);
                nat.extend(hi.lanes(self.ctx, *elem));
                Ok(self.deinterleave(&nat, *elem))
            }
            Op::Valign { bytes } => {
                let (a, b) = (args[0].as_vec()?, args[1].as_vec()?);
                let n = *bytes as usize;
                if n > a.len() || a.len() != b.len() {
                    return unsupported("valign out of range");
                }
                let concat: Vec<TermId> =
                    b.bytes.iter().chain(&a.bytes).copied().collect();
                Ok(SymValue::Vec(SymReg { bytes: concat[n..n + a.len()].to_vec() }))
            }
            Op::Vror { bytes } => {
                let a = args[0].as_vec()?;
                let n = *bytes as usize % a.len();
                let mut out = a.bytes[n..].to_vec();
                out.extend_from_slice(&a.bytes[..n]);
                Ok(SymValue::Vec(SymReg { bytes: out }))
            }
            other => unsupported(format!("symbolic execution of `{other}`")),
        }
    }

    /// Products widened to 2× the element width, natural order.
    fn widening_mul(
        &mut self,
        a: &SymReg,
        b: Option<&SymReg>,
        scalar: Option<TermId>,
        elem: ElemType,
    ) -> Sym<Vec<TermId>> {
        let signed = elem.is_signed();
        let la = a.lanes(self.ctx, elem);
        let lb = match b {
            Some(b) => b.lanes(self.ctx, elem).iter().map(|&t| ext(self.ctx, t, signed, elem.bits())).collect(),
            None => vec![scalar.expect("scalar operand"); la.len()],
        };
        Ok(la
            .iter()
            .zip(&lb)
            .map(|(&x, &y)| {
                let wx = ext(self.ctx, x, signed, elem.bits());
                self.ctx.mul(wx, y)
            })
            .collect())
    }

    /// `acc + deinterleave(wide)` lane-wise.
    fn acc_pair(&mut self, acc: &SymValue, wide: &[TermId], wide_ty: ElemType) -> Sym<SymValue> {
        let (alo, ahi) = acc.as_pair()?;
        let (alo, ahi) = (alo.clone(), ahi.clone());
        let (llo, lhi) = (alo.lanes(self.ctx, wide_ty), ahi.lanes(self.ctx, wide_ty));
        let evens: Vec<TermId> = wide.iter().copied().step_by(2).collect();
        let odds: Vec<TermId> = wide.iter().copied().skip(1).step_by(2).collect();
        if evens.len() != llo.len() || odds.len() != lhi.len() {
            return unsupported("accumulator length mismatch");
        }
        let lo: Vec<TermId> =
            llo.iter().zip(&evens).map(|(&x, &y)| self.ctx.add(x, y)).collect();
        let hi: Vec<TermId> =
            lhi.iter().zip(&odds).map(|(&x, &y)| self.ctx.add(x, y)).collect();
        Ok(SymValue::Pair(
            SymReg::from_lanes(self.ctx, &lo, wide_ty),
            SymReg::from_lanes(self.ctx, &hi, wide_ty),
        ))
    }
}

/// Solver-checked equivalence of an uber-expression and a lowered HVX
/// expression over a symbolic tile of `lanes` lanes (which must be the
/// width the HVX expression was lowered for — sliding-window operands
/// embed it).
///
/// Returns `Some(equivalent)` when the proof ran to completion, `None`
/// when the expression uses an op outside the symbolic executor's support
/// or the conflict budget was exhausted.
pub fn smt_equiv_uber_hvx(
    u: &uber_ir::UberExpr,
    h: &HvxExpr,
    lanes: usize,
    vec_bytes: usize,
    deinterleaved: bool,
    conflict_budget: u64,
) -> Option<bool> {
    let build = |ctx: &mut Context| {
        let uber_lanes: Vec<TermId> =
            (0..lanes).map(|i| crate::encode::encode_uber_lane(ctx, u, i)).collect();
        let mut sx = SymExec { ctx: &mut *ctx, lanes, vec_bytes };
        let val = sx.eval(h).ok()?;
        let got = val.natural_lanes(&mut *ctx, u.ty());
        if got.len() != uber_lanes.len() {
            // Lane counts differ: a trivially satisfiable query refutes.
            return Some(ctx.tt());
        }
        let mut any_ne = ctx.ff();
        for (i, &g) in got.iter().enumerate() {
            let want_idx = if deinterleaved {
                let n = got.len();
                if i < n / 2 {
                    2 * i
                } else {
                    2 * (i - n / 2) + 1
                }
            } else {
                i
            };
            let ne = ctx.ne(g, uber_lanes[want_idx]);
            any_ne = ctx.or(any_ne, ne);
        }
        Some(any_ne)
    };
    smt::prove_unsat(build, conflict_budget)
}

fn ext(ctx: &mut Context, t: TermId, signed: bool, extra: u32) -> TermId {
    if signed {
        ctx.sign_ext(t, extra)
    } else {
        ctx.zero_ext(t, extra)
    }
}

/// Rounding/saturating narrow of one lane (the shared `vasr`/`vpack`
/// semantics, mirroring `lanes::asr_rnd` wrap-rounding).
fn narrow_term(
    ctx: &mut Context,
    t: TermId,
    signed: bool,
    shift: u32,
    round: bool,
    sat: bool,
    out: ElemType,
) -> TermId {
    let w = ctx.width(t);
    let mut v = t;
    if round && shift > 0 {
        let r = ctx.constant(1u64 << (shift - 1), w);
        v = ctx.add(v, r); // wraps at the source width, like the hardware
    }
    let shifted = if shift == 0 {
        v
    } else if signed {
        ctx.ashr(v, shift)
    } else {
        ctx.lshr(v, shift)
    };
    if sat {
        let clamped = if signed {
            ctx.sclamp(shifted, out.min_value(), out.max_value())
        } else {
            let hi = ctx.constant(out.max_value() as u64, w);
            ctx.umin(shifted, hi)
        };
        ctx.extract(clamped, out.bits() - 1, 0)
    } else {
        ctx.extract(shifted, out.bits() - 1, 0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use uber_ir::UberExpr;

    /// Solver-checked equivalence over a tiny symbolic tile.
    fn smt_equiv(u: &UberExpr, h: &HvxExpr, lanes: usize, deint: bool) -> bool {
        smt_equiv_uber_hvx(u, h, lanes, lanes, deint, u64::MAX).unwrap_or(false)
    }

    #[test]
    fn proves_vtmpy_free_conv_via_vmpa() {
        // vmpa(a, b, 2, 1) implements in(x)*2 + in(x+1) deinterleaved.
        let u = UberExpr::conv("in", ElemType::U8, 0, 0, &[2, 1], ElemType::U16);
        let h = HvxExpr::op(
            Op::Vmpa { elem: ElemType::U8, w0: 2, w1: 1 },
            vec![
                HvxExpr::vmem("in", ElemType::U8, 0, 0),
                HvxExpr::vmem("in", ElemType::U8, 1, 0),
            ],
        );
        assert!(smt_equiv(&u, &h, 4, true));
        // Wrong weights refuted.
        let bad = HvxExpr::op(
            Op::Vmpa { elem: ElemType::U8, w0: 1, w1: 2 },
            vec![
                HvxExpr::vmem("in", ElemType::U8, 0, 0),
                HvxExpr::vmem("in", ElemType::U8, 1, 0),
            ],
        );
        assert!(!smt_equiv(&u, &bad, 4, true));
    }

    #[test]
    fn proves_widen_shuffle_natural_order() {
        let u = UberExpr::Widen {
            arg: Box::new(UberExpr::Data(halide_ir::Load {
                buffer: "in".into(),
                dx: 0,
                dy: 0,
                ty: ElemType::U8,
            })),
            out: ElemType::U16,
        };
        let zxt = HvxExpr::op(
            Op::Vzxt { elem: ElemType::U8 },
            vec![HvxExpr::vmem("in", ElemType::U8, 0, 0)],
        );
        // Deinterleaved: the raw vzxt. Natural: needs the shuffle.
        assert!(smt_equiv(&u, &zxt, 4, true));
        assert!(!smt_equiv(&u, &zxt, 4, false));
        let shuffled =
            HvxExpr::op(Op::VshuffPair { elem: ElemType::U16 }, vec![zxt]);
        assert!(smt_equiv(&u, &shuffled, 4, false));
    }

    #[test]
    fn proves_fused_narrow() {
        // narrow:rnd:sat of a widened value == vasr-narrow of the vzxt pair.
        let data = UberExpr::Data(halide_ir::Load {
            buffer: "in".into(),
            dx: 0,
            dy: 0,
            ty: ElemType::U8,
        });
        let u = UberExpr::Narrow {
            arg: Box::new(UberExpr::VsMpyAdd(uber_ir::VsMpyAdd {
                inputs: vec![data],
                kernel: vec![3],
                saturating: false,
                out: ElemType::U16,
            })),
            shift: 2,
            round: true,
            saturating: true,
            out: ElemType::U8,
        };
        let wide = HvxExpr::op(
            Op::VmpyScalar { elem: ElemType::U8, scalar: ScalarOperand::Imm(3) },
            vec![HvxExpr::vmem("in", ElemType::U8, 0, 0)],
        );
        let h = HvxExpr::op(
            Op::VasrNarrow {
                elem: ElemType::U16,
                shift: 2,
                round: true,
                sat: true,
                out: ElemType::U8,
            },
            vec![
                HvxExpr::op(Op::Hi, vec![wide.clone()]),
                HvxExpr::op(Op::Lo, vec![wide]),
            ],
        );
        assert!(smt_equiv(&u, &h, 4, false));
    }

    #[test]
    fn refutes_missing_saturation() {
        // A saturating uber-narrow against a truncating pack: refuted.
        let data = UberExpr::Data(halide_ir::Load {
            buffer: "in".into(),
            dx: 0,
            dy: 0,
            ty: ElemType::I16,
        });
        let u = UberExpr::Narrow {
            arg: Box::new(data),
            shift: 0,
            round: false,
            saturating: true,
            out: ElemType::U8,
        };
        let load = HvxExpr::vmem("in", ElemType::I16, 0, 0);
        let dealt = HvxExpr::op(Op::VdealPair { elem: ElemType::I16 }, vec![load]);
        let mk = |sat| {
            HvxExpr::op(
                Op::Vpack { elem: ElemType::I16, sat, out: ElemType::U8 },
                vec![
                    HvxExpr::op(Op::Hi, vec![dealt.clone()]),
                    HvxExpr::op(Op::Lo, vec![dealt.clone()]),
                ],
            )
        };
        assert!(smt_equiv(&u, &mk(true), 4, false));
        assert!(!smt_equiv(&u, &mk(false), 4, false));
    }
}

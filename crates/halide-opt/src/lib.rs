//! The baseline: a pattern-matching HVX instruction selector in the style
//! of Halide 12's `HexagonOptimizer` — the comparison target of the Rake
//! paper's evaluation (§7).
//!
//! The selector walks the Halide IR greedily, rewriting syntactic patterns
//! into HVX intrinsics. It is *correct* (every translation is
//! differentially tested against the IR interpreter) but it has exactly
//! the blind spots the paper documents for the production backend:
//!
//! * no 3-tap sliding-window fusion — a `[1,2,1]` row becomes
//!   `vmpa + vzxt + vadd`, never `vtmpy` (Figure 4a);
//! * no accumulator fusion — `vmpa + vadd`, never `vmpa.acc` (Figure 4b);
//! * no fused round-shift-saturate narrowing — rounding shifts become
//!   `vadd + vasr + vshuffe` (Figure 12, gaussian3x3);
//! * explicit clamps are kept even when a saturating pack subsumes them
//!   (Figure 12, camera_pipe);
//! * widening results are normalized to natural lane order immediately
//!   after each producing instruction; only *adjacent* shuffle/deal pairs
//!   are cancelled, so interleaves survive whenever any op sits between
//!   them (§7.1.3, "not always able to do so");
//! * no `vmpyie` — word×halfword products shift the even halfwords into
//!   odd position with `vaslw` and reuse `vmpyio` (Figure 12, l2norm);
//! * no widening multiply-accumulate for mixed-width adds — `u16 + u8`
//!   zero-extends and adds (Figure 12, average_pool);
//! * shifts never fold into multiplies (Figure 12, add).

use std::fmt;

use halide_ir::{BinOp, Expr, ScalarOperand, ShiftDir};
use hvx::{HvxExpr, Op};
use lanes::ElemType;

/// Geometry of the target machine (mirrors `rake::Target`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BaselineOptions {
    /// Vectorization width in lanes.
    pub lanes: usize,
    /// Register width in bytes.
    pub vec_bytes: usize,
}

impl BaselineOptions {
    /// Full-width HVX.
    pub fn hvx() -> BaselineOptions {
        BaselineOptions { lanes: 128, vec_bytes: 128 }
    }

    /// Scaled-down machine for tests.
    pub fn small(lanes: usize) -> BaselineOptions {
        BaselineOptions { lanes, vec_bytes: lanes }
    }
}

/// The selector failed to cover an expression shape.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SelectError(String);

impl fmt::Display for SelectError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "no pattern covers: {}", self.0)
    }
}

impl std::error::Error for SelectError {}

/// Select HVX instructions for `e` with the baseline pattern matcher,
/// producing a natural-order result.
///
/// # Errors
///
/// Returns [`SelectError`] if some sub-expression matches no rule.
pub fn select(e: &Expr, opts: BaselineOptions) -> Result<HvxExpr, SelectError> {
    let sel = Selector { opts };
    let out = sel.go(e)?;
    Ok(cancel_adjacent_shuffles(out))
}

struct Selector {
    opts: BaselineOptions,
}

/// One flattened additive term: an expression with a constant weight, plus
/// whether it is a "narrow" term (needs widening into the result type).
struct Term {
    expr: Expr,
    weight: i64,
    narrow: bool,
}

impl Selector {
    fn pair_sized(&self, ty: ElemType) -> bool {
        self.opts.lanes * ty.bytes() > self.opts.vec_bytes
    }

    /// Normalize a deinterleaved pair to natural order — what the
    /// production backend does after every widening instruction.
    fn normalize(&self, e: HvxExpr, ty: ElemType) -> HvxExpr {
        if self.pair_sized(ty) {
            HvxExpr::op(Op::VshuffPair { elem: ty }, vec![e])
        } else {
            e
        }
    }

    fn go(&self, e: &Expr) -> Result<HvxExpr, SelectError> {
        // Rules are tried most-specific first, as a pattern matcher does.
        if let Some(r) = self.match_avg(e)? {
            return Ok(r);
        }
        if let Some(r) = self.match_saturating_narrow(e)? {
            return Ok(r);
        }
        match e {
            Expr::Load(l) => Ok(HvxExpr::vmem(&l.buffer, l.ty, l.dx, l.dy)),
            Expr::Broadcast(b) => Ok(HvxExpr::vsplat_imm(b.value, b.ty)),
            Expr::BroadcastLoad(b) => Ok(HvxExpr::vsplat_load(&b.buffer, b.x, b.dy, b.ty)),
            Expr::Cast(c) => self.cast(e, c.to, &c.arg, c.saturating),
            Expr::Binary(b) => match b.op {
                BinOp::Add | BinOp::Sub => self.add_chain(e),
                BinOp::Mul => self.mul(e, &b.lhs, &b.rhs),
                BinOp::Min => self.elementwise(Op::Vmin { elem: e.ty() }, &b.lhs, &b.rhs),
                BinOp::Max => self.elementwise(Op::Vmax { elem: e.ty() }, &b.lhs, &b.rhs),
                BinOp::Absd => {
                    self.elementwise(Op::Vabsdiff { elem: e.ty() }, &b.lhs, &b.rhs)
                }
            },
            Expr::Shift(s) => {
                let a = self.go(&s.arg)?;
                let op = match s.dir {
                    ShiftDir::Left => Op::Vasl { elem: e.ty(), shift: s.amount },
                    ShiftDir::Right => Op::Vasr { elem: e.ty(), shift: s.amount },
                };
                Ok(HvxExpr::op(op, vec![a]))
            }
        }
    }

    fn elementwise(&self, op: Op, a: &Expr, b: &Expr) -> Result<HvxExpr, SelectError> {
        Ok(HvxExpr::op(op, vec![self.go(a)?, self.go(b)?]))
    }

    /// `cast_narrow((widen(a) + widen(b) [+ 1]) >> 1)` → `vavg` — a rule
    /// the production backend does have.
    fn match_avg(&self, e: &Expr) -> Result<Option<HvxExpr>, SelectError> {
        let Expr::Cast(c) = e else { return Ok(None) };
        if c.to.bits() * 2 != c.arg.ty().bits() {
            return Ok(None);
        }
        let Expr::Shift(s) = &*c.arg else { return Ok(None) };
        if s.dir != ShiftDir::Right || s.amount != 1 {
            return Ok(None);
        }
        let (sum, round) = match &*s.arg {
            Expr::Binary(b)
                if b.op == BinOp::Add
                    && matches!(&*b.rhs, Expr::Broadcast(bc) if bc.value == 1) =>
            {
                (&b.lhs, true)
            }
            _ => (&s.arg, false),
        };
        let Expr::Binary(add) = &**sum else { return Ok(None) };
        if add.op != BinOp::Add {
            return Ok(None);
        }
        let (Some(a), Some(b)) = (strip_widen(&add.lhs), strip_widen(&add.rhs)) else {
            return Ok(None);
        };
        if a.ty() != c.to || b.ty() != c.to {
            return Ok(None);
        }
        Ok(Some(HvxExpr::op(
            Op::Vavg { elem: c.to, round },
            vec![self.go(a)?, self.go(b)?],
        )))
    }

    /// `cast_narrow(max(min(x, hi), 0))` with `hi` = the exact type maximum
    /// → saturating pack. (With any other bound the pattern does NOT fire
    /// and the clamp is computed explicitly — the camera_pipe miss.)
    fn match_saturating_narrow(&self, e: &Expr) -> Result<Option<HvxExpr>, SelectError> {
        let Expr::Cast(c) = e else { return Ok(None) };
        let src = c.arg.ty();
        if c.to.bits() * 2 != src.bits() {
            return Ok(None);
        }
        let Expr::Binary(outer) = &*c.arg else { return Ok(None) };
        if outer.op != BinOp::Max || !matches!(&*outer.rhs, Expr::Broadcast(b) if b.value == 0) {
            return Ok(None);
        }
        let Expr::Binary(inner) = &*outer.lhs else { return Ok(None) };
        if inner.op != BinOp::Min
            || !matches!(&*inner.rhs, Expr::Broadcast(b) if b.value == c.to.max_value())
        {
            return Ok(None);
        }
        let x = self.go(&inner.lhs)?;
        let deal = self.deal_for_narrow(x, src);
        Ok(Some(self.pack(deal, src, c.to, true)))
    }

    fn cast(
        &self,
        _e: &Expr,
        to: ElemType,
        arg: &Expr,
        saturating: bool,
    ) -> Result<HvxExpr, SelectError> {
        let src = arg.ty();
        if to.bits() > src.bits() {
            // Widening: vzxt/vsxt, then normalize to natural order.
            if to.bits() != src.bits() * 2 {
                return Err(SelectError(format!("double-widening cast {src} -> {to}")));
            }
            let a = self.go(arg)?;
            let op = if src.is_signed() { Op::Vsxt { elem: src } } else { Op::Vzxt { elem: src } };
            Ok(self.normalize(HvxExpr::op(op, vec![a]), to))
        } else if to.bits() == src.bits() {
            // Same-width reinterpretation is free on registers.
            self.go(arg)
        } else {
            if to.bits() * 2 != src.bits() {
                return Err(SelectError(format!("double-narrowing cast {src} -> {to}")));
            }
            if !self.pair_sized(src) {
                // Narrowing needs the two halves of a pair; a tile that
                // fits one register has no pack rule.
                return Err(SelectError(format!("narrow of single-register {src} tile")));
            }
            let a = self.go(arg)?;
            let deal = self.deal_for_narrow(a, src);
            Ok(self.pack(deal, src, to, saturating))
        }
    }

    /// Narrowing instructions interleave from a deinterleaved pair, so a
    /// natural-order pair must be dealt first.
    fn deal_for_narrow(&self, e: HvxExpr, src: ElemType) -> HvxExpr {
        if self.pair_sized(src) {
            HvxExpr::op(Op::VdealPair { elem: src }, vec![e])
        } else {
            e
        }
    }

    fn pack(&self, dealt: HvxExpr, src: ElemType, to: ElemType, sat: bool) -> HvxExpr {
        HvxExpr::op(
            Op::Vpack { elem: src, sat, out: to },
            vec![
                HvxExpr::op(Op::Hi, vec![dealt.clone()]),
                HvxExpr::op(Op::Lo, vec![dealt]),
            ],
        )
    }

    fn mul(&self, e: &Expr, lhs: &Expr, rhs: &Expr) -> Result<HvxExpr, SelectError> {
        let ty = e.ty();
        // Widening multiply patterns. Scalar registers are element-wide
        // (Rt.b/Rt.h), so the rule only fires when the scalar fits.
        for (a, b) in [(lhs, rhs), (rhs, lhs)] {
            if let (Some(na), Some(scalar)) = (strip_widen(a), scalar_of(b)) {
                if na.ty().bits() * 2 == ty.bits() && scalar_fits(b, na.ty()) {
                    let m = HvxExpr::op(
                        Op::VmpyScalar { elem: na.ty(), scalar },
                        vec![self.go(na)?],
                    );
                    return Ok(self.normalize(m, ty));
                }
            }
        }
        if let (Some(na), Some(nb)) = (strip_widen(lhs), strip_widen(rhs)) {
            if na.ty() == nb.ty() && na.ty().bits() * 2 == ty.bits() {
                let m = HvxExpr::op(Op::Vmpy { elem: na.ty() }, vec![self.go(na)?, self.go(nb)?]);
                return Ok(self.normalize(m, ty));
            }
        }
        // Word × halfword via vmpyio + vaslw (no vmpyie rule). The widen of
        // the halfword operand never happens physically: vmpyio reads the
        // halfword lanes straight from the register.
        if ty.bits() == 32 {
            for (a, b) in [(lhs, rhs), (rhs, lhs)] {
                if let (Some(wa), Some(nb)) = (widen_to_word(a), strip_widen(b)) {
                    if nb.ty().bits() == 16 && !self.pair_sized(nb.ty()) {
                        let w = self.word_operand(wa)?;
                        let h = self.go(nb)?;
                        let odd = HvxExpr::op(Op::Vmpyio, vec![w.clone(), h.clone()]);
                        let shifted =
                            HvxExpr::op(Op::Vasl { elem: ElemType::I32, shift: 16 }, vec![h]);
                        let even = HvxExpr::op(Op::Vmpyio, vec![w, shifted]);
                        let m = HvxExpr::op(Op::Vcombine, vec![odd, even]);
                        return Ok(self.normalize(m, ty));
                    }
                }
            }
        }
        // Non-widening multiply by a constant. `vmpyi` scalars are at most
        // half the element width (`vmpyiwh`, `vmpyihb`).
        for (a, b) in [(lhs, rhs), (rhs, lhs)] {
            if let Some(scalar) = scalar_of(b) {
                let narrow = ty.narrowed();
                if narrow.is_some_and(|n| scalar_fits(b, n)) {
                    return Ok(HvxExpr::op(Op::Vmpyi { elem: ty, scalar }, vec![self.go(a)?]));
                }
            }
        }
        Err(SelectError(e.to_string()))
    }

    /// One register holding the broadcast word for `vmpyio`.
    fn word_operand(&self, w: &Expr) -> Result<HvxExpr, SelectError> {
        let full = self.go(w)?;
        if self.pair_sized(w.ty()) {
            Ok(HvxExpr::op(Op::Lo, vec![full]))
        } else {
            Ok(full)
        }
    }

    /// Greedy multiply-add selection over a flattened `+`/`-` chain: pair
    /// the first weighted narrow term with its neighbour into a `vmpa`,
    /// zero-extend lone widen terms, and `vadd` everything together. No
    /// `vtmpy`, no accumulating forms — the production backend's shape.
    fn add_chain(&self, e: &Expr) -> Result<HvxExpr, SelectError> {
        let ty = e.ty();
        let mut terms = Vec::new();
        flatten_add(e, 1, &mut terms);
        let widening = terms.iter().any(|t| t.narrow);
        if !widening {
            return self.add_chain_flat(e, ty, terms);
        }

        // Partition: narrow (widening) terms vs wide terms.
        let (narrow, wide): (Vec<&Term>, Vec<&Term>) = terms.iter().partition(|t| t.narrow);
        if narrow.iter().any(|t| t.expr.ty().bits() * 2 != ty.bits())
            || wide.iter().any(|t| t.expr.ty().bits() != ty.bits())
        {
            return Err(SelectError(e.to_string()));
        }
        let mut parts: Vec<HvxExpr> = Vec::new();
        // Order weighted terms first so vmpa absorbs the multiplies.
        let mut narrow = narrow;
        narrow.sort_by_key(|t| t.weight.abs() == 1);
        let mut i = 0;
        while i < narrow.len() {
            let t0 = narrow[i];
            if i + 1 < narrow.len() && t0.expr.ty() == narrow[i + 1].expr.ty() {
                let t1 = narrow[i + 1];
                let m = HvxExpr::op(
                    Op::Vmpa { elem: t0.expr.ty(), w0: t0.weight, w1: t1.weight },
                    vec![self.go(&t0.expr)?, self.go(&t1.expr)?],
                );
                parts.push(self.normalize(m, ty));
                i += 2;
            } else {
                let src = t0.expr.ty();
                let m = if t0.weight == 1 {
                    let op = if src.is_signed() {
                        Op::Vsxt { elem: src }
                    } else {
                        Op::Vzxt { elem: src }
                    };
                    HvxExpr::op(op, vec![self.go(&t0.expr)?])
                } else {
                    HvxExpr::op(
                        Op::VmpyScalar { elem: src, scalar: ScalarOperand::Imm(t0.weight) },
                        vec![self.go(&t0.expr)?],
                    )
                };
                parts.push(self.normalize(m, ty));
                i += 1;
            }
        }
        for t in wide {
            let x = self.go(&t.expr)?;
            let x = match t.weight {
                1 => x,
                w => HvxExpr::op(
                    Op::Vmpyi { elem: ty, scalar: ScalarOperand::Imm(w) },
                    vec![x],
                ),
            };
            parts.push(x);
        }
        let mut acc = parts.remove(0);
        for p in parts {
            acc = HvxExpr::op(Op::Vadd { elem: ty, sat: false }, vec![acc, p]);
        }
        Ok(acc)
    }

    /// Same-width add/sub chain.
    fn add_chain_flat(
        &self,
        e: &Expr,
        ty: ElemType,
        terms: Vec<Term>,
    ) -> Result<HvxExpr, SelectError> {
        if terms.iter().any(|t| t.expr.ty() != ty) {
            return Err(SelectError(e.to_string()));
        }
        let mut acc: Option<HvxExpr> = None;
        for t in terms {
            let x = self.go(&t.expr)?;
            let x = match t.weight {
                1 | -1 => x,
                w => HvxExpr::op(
                    Op::Vmpyi { elem: ty, scalar: ScalarOperand::Imm(w) },
                    vec![x],
                ),
            };
            acc = Some(match (acc.take(), t.weight) {
                (None, w) if !(-1..1).contains(&w) => x,
                (None, _) => {
                    let zero = HvxExpr::vsplat_imm(0, ty);
                    HvxExpr::op(Op::Vsub { elem: ty, sat: false }, vec![zero, x])
                }
                (Some(acc), -1) => HvxExpr::op(Op::Vsub { elem: ty, sat: false }, vec![acc, x]),
                (Some(acc), _) => HvxExpr::op(Op::Vadd { elem: ty, sat: false }, vec![acc, x]),
            });
        }
        acc.ok_or_else(|| SelectError(e.to_string()))
    }
}

/// `widen(x)` → `x` for a one-step widening cast.
fn strip_widen(e: &Expr) -> Option<&Expr> {
    match e {
        Expr::Cast(c) if !c.saturating && c.to.bits() == c.arg.ty().bits() * 2 => Some(&c.arg),
        _ => None,
    }
}

/// Whether the broadcast scalar fits an element-wide scalar register.
/// Signed and unsigned register variants both exist, so the valid range is
/// their union; runtime scalars are judged by their buffer's width.
fn scalar_fits(e: &Expr, elem: ElemType) -> bool {
    match e {
        Expr::Broadcast(b) => {
            b.value >= elem.as_signed().min_value() && b.value <= elem.max_value()
        }
        Expr::BroadcastLoad(b) => b.ty.bits() <= elem.bits(),
        _ => false,
    }
}

/// A broadcast (immediate or runtime scalar) as a scalar operand.
fn scalar_of(e: &Expr) -> Option<ScalarOperand> {
    match e {
        Expr::Broadcast(b) => Some(ScalarOperand::Imm(b.value)),
        Expr::BroadcastLoad(b) => {
            Some(ScalarOperand::Load { buffer: b.buffer.clone(), x: b.x, dy: b.dy })
        }
        _ => None,
    }
}

/// A broadcast already at word width (for the vmpyio rule).
fn widen_to_word(e: &Expr) -> Option<&Expr> {
    match e {
        Expr::Broadcast(b) if b.ty.bits() == 32 => Some(e),
        Expr::BroadcastLoad(b) if b.ty.bits() == 32 => Some(e),
        _ => None,
    }
}

/// Flatten `a + b` / `a - b` chains into weighted terms, marking widening
/// (`widen(x) * c` / `widen(x)`) terms as narrow.
fn flatten_add(e: &Expr, weight: i64, terms: &mut Vec<Term>) {
    match e {
        Expr::Binary(b) if b.op == BinOp::Add => {
            flatten_add(&b.lhs, weight, terms);
            flatten_add(&b.rhs, weight, terms);
        }
        Expr::Binary(b) if b.op == BinOp::Sub => {
            flatten_add(&b.lhs, weight, terms);
            flatten_add(&b.rhs, -weight, terms);
        }
        Expr::Binary(b) if b.op == BinOp::Mul => {
            // widen(x) * c or c * widen(x).
            for (v, c) in [(&b.lhs, &b.rhs), (&b.rhs, &b.lhs)] {
                if let (Some(n), Expr::Broadcast(bc)) = (strip_widen(v), &**c) {
                    terms.push(Term { expr: n.clone(), weight: bc.value * weight, narrow: true });
                    return;
                }
            }
            terms.push(Term { expr: e.clone(), weight, narrow: false });
        }
        _ => {
            if let Some(n) = strip_widen(e) {
                terms.push(Term { expr: n.clone(), weight, narrow: true });
            } else {
                terms.push(Term { expr: e.clone(), weight, narrow: false });
            }
        }
    }
}

/// The production backend's interleave-elimination pass: cancel *directly
/// adjacent* `vshuffvdd`/`vdealvdd` pairs. Anything in between defeats it.
fn cancel_adjacent_shuffles(e: HvxExpr) -> HvxExpr {
    let args: Vec<HvxExpr> =
        e.args().iter().cloned().map(cancel_adjacent_shuffles).collect();
    match (e.root(), args.as_slice()) {
        (Op::VdealPair { .. }, [inner]) if matches!(inner.root(), Op::VshuffPair { .. }) => {
            inner.args()[0].clone()
        }
        (Op::VshuffPair { .. }, [inner]) if matches!(inner.root(), Op::VdealPair { .. }) => {
            inner.args()[0].clone()
        }
        _ => HvxExpr::op(e.root().clone(), args),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use halide_ir::builder::*;
    use halide_ir::{Buffer2D, Env, EvalCtx};
    use lanes::rng::Rng;

    const LANES: usize = 8;

    fn opts() -> BaselineOptions {
        BaselineOptions::small(LANES)
    }

    fn check_equiv(e: &Expr) -> HvxExpr {
        let h = select(e, opts()).expect("baseline must cover workloads");
        // Differential check against the IR interpreter.
        let mut rng = Rng::seed_from_u64(7);
        for _ in 0..8 {
            let mut env = Env::new();
            for name in halide_ir::analysis::buffers_used(e) {
                let ty = halide_ir::analysis::loads(e)
                    .iter()
                    .find(|l| l.buffer == name)
                    .map(|l| l.ty)
                    .unwrap_or(ElemType::U8);
                env.insert(Buffer2D::from_fn(&name, ty, 64, 9, |_, _| {
                    rng.gen_range(ty.min_value()..=ty.max_value())
                }));
            }
            let ctx = EvalCtx { env: &env, x0: 16, y0: 4, lanes: LANES };
            let want = halide_ir::eval(e, &ctx).unwrap();
            let got = h.eval(&env, 16, 4, LANES).unwrap();
            assert_eq!(got.typed_lanes(e.ty()), want, "baseline wrong for {e}");
        }
        h
    }

    fn count(e: &HvxExpr, f: &dyn Fn(&Op) -> bool) -> usize {
        // Count over the CSE'd program so shared subtrees count once.
        e.to_program().instrs().iter().filter(|i| f(&i.op)).count()
    }

    #[test]
    fn conv_row_uses_vmpa_vzxt_vadd_not_vtmpy() {
        let t = |dx| widen(load("in", ElemType::U8, dx, 0));
        let e = add(add(t(-1), mul(t(0), bcast(2, ElemType::U16))), t(1));
        let h = check_equiv(&e);
        assert_eq!(count(&h, &|o| matches!(o, Op::Vtmpy { .. })), 0);
        assert_eq!(count(&h, &|o| matches!(o, Op::Vmpa { .. })), 1, "got:\n{h}");
        assert_eq!(count(&h, &|o| matches!(o, Op::Vzxt { .. })), 1, "got:\n{h}");
        assert_eq!(count(&h, &|o| matches!(o, Op::Vadd { .. })), 1, "got:\n{h}");
    }

    #[test]
    fn rounding_shift_is_unfused() {
        let t = |dx| widen(load("in", ElemType::U8, dx, 0));
        let row = add(add(t(-1), mul(t(0), bcast(2, ElemType::U16))), t(1));
        let e = cast(ElemType::U8, shr(add(row, bcast(8, ElemType::U16)), 4));
        let h = check_equiv(&e);
        assert_eq!(count(&h, &|o| matches!(o, Op::VasrNarrow { .. })), 0, "got:\n{h}");
        assert!(count(&h, &|o| matches!(o, Op::Vasr { .. })) >= 1, "got:\n{h}");
        assert!(count(&h, &|o| matches!(o, Op::Vpack { .. })) >= 1, "got:\n{h}");
    }

    #[test]
    fn exact_clamp_pattern_fires_saturating_pack() {
        let x = add(
            widen(load("in", ElemType::U8, 0, 0)),
            widen(load("in", ElemType::U8, 1, 0)),
        );
        let e = cast(ElemType::U8, clamp(x, 0, 255));
        let h = check_equiv(&e);
        assert_eq!(count(&h, &|o| matches!(o, Op::Vpack { sat: true, .. })), 1);
        assert_eq!(count(&h, &|o| matches!(o, Op::Vmax { .. })), 0, "got:\n{h}");
    }

    #[test]
    fn inexact_clamp_keeps_min_max() {
        // min against 127 (not the u8 max): pattern does not fire.
        let x = load("w", ElemType::I16, 0, 0);
        let e = cast(ElemType::U8, max(min(x, bcast(127, ElemType::I16)), bcast(0, ElemType::I16)));
        let h = check_equiv(&e);
        assert_eq!(count(&h, &|o| matches!(o, Op::Vmin { .. })), 1, "got:\n{h}");
        assert_eq!(count(&h, &|o| matches!(o, Op::Vmax { .. })), 1, "got:\n{h}");
    }

    #[test]
    fn average_rule_exists() {
        let a = widen(load("a", ElemType::U8, 0, 0));
        let b = widen(load("b", ElemType::U8, 0, 0));
        let e = cast(ElemType::U8, shr(add(add(a, b), bcast(1, ElemType::U16)), 1));
        let h = check_equiv(&e);
        assert_eq!(count(&h, &|o| matches!(o, Op::Vavg { round: true, .. })), 1, "got:\n{h}");
    }

    #[test]
    fn mixed_width_add_zero_extends() {
        // u16 + widen(u8): vzxt + vadd, not vmpy-acc (Figure 12).
        let e = add(
            load("w", ElemType::U16, 0, 0),
            widen(load("n", ElemType::U8, 0, 0)),
        );
        let h = check_equiv(&e);
        assert_eq!(count(&h, &|o| matches!(o, Op::Vzxt { .. })), 1, "got:\n{h}");
        assert_eq!(count(&h, &|o| matches!(o, Op::VmpyAcc { .. })), 0);
    }

    #[test]
    fn widening_scalar_multiply() {
        let e = mul(widen(load("in", ElemType::U8, 0, 0)), bcast(3, ElemType::U16));
        let h = check_equiv(&e);
        assert_eq!(count(&h, &|o| matches!(o, Op::VmpyScalar { .. })), 1, "got:\n{h}");
    }

    #[test]
    fn adjacent_shuffles_cancel() {
        // widen then immediately narrow: the shuff/deal pair cancels.
        let e = cast(
            ElemType::U8,
            widen(load("in", ElemType::U8, 0, 0)),
        );
        let h = check_equiv(&e);
        assert_eq!(count(&h, &|o| matches!(o, Op::VshuffPair { .. })), 0, "got:\n{h}");
        assert_eq!(count(&h, &|o| matches!(o, Op::VdealPair { .. })), 0, "got:\n{h}");
    }

    #[test]
    fn intervening_op_defeats_cancellation() {
        // widen, add a splat, then narrow: shuff and deal survive (§7.1.3).
        let wide = add(widen(load("in", ElemType::U8, 0, 0)), bcast(5, ElemType::U16));
        let e = cast(ElemType::U8, wide);
        let h = check_equiv(&e);
        assert_eq!(count(&h, &|o| matches!(o, Op::VshuffPair { .. })), 1, "got:\n{h}");
        assert_eq!(count(&h, &|o| matches!(o, Op::VdealPair { .. })), 1, "got:\n{h}");
    }

    #[test]
    fn word_half_uses_vaslw_not_vmpyie() {
        // x(runtime i32) * i32(i16x): the scalar does not fit Rt.h, so the
        // word×halfword rule fires — vmpyio twice with a vaslw, never
        // vmpyie (Figure 12, l2norm). Geometry: i16 tile in one register.
        let e = mul(
            cast(ElemType::I32, load("h", ElemType::I16, 0, 0)),
            bcast_load("s", 0, 0, ElemType::I32),
        );
        let o = BaselineOptions { lanes: 8, vec_bytes: 16 };
        let h = select(&e, o).expect("must select");
        let prog = h.to_program();
        let n_io = prog.instrs().iter().filter(|i| matches!(i.op, Op::Vmpyio)).count();
        let n_ie = prog.instrs().iter().filter(|i| matches!(i.op, Op::Vmpyie)).count();
        let n_asl =
            prog.instrs().iter().filter(|i| matches!(i.op, Op::Vasl { shift: 16, .. })).count();
        assert_eq!((n_io, n_ie, n_asl), (2, 0, 1), "got:\n{h}");
        // Differential check at that geometry.
        let mut env = Env::new();
        env.insert(Buffer2D::from_fn("h", ElemType::I16, 64, 1, |x, _| (x as i64) * 117 - 400));
        env.insert(Buffer2D::from_fn("s", ElemType::I32, 4, 1, |_, _| 1 << 20));
        let ctx = EvalCtx { env: &env, x0: 16, y0: 0, lanes: 8 };
        let want = halide_ir::eval(&e, &ctx).unwrap();
        let got = h
            .eval_ctx(&hvx::ExecCtx { env: &env, x0: 16, y0: 0, lanes: 8, vec_bytes: 16 })
            .unwrap();
        assert_eq!(got.typed_lanes(ElemType::I32), want);
    }
}

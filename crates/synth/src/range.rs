//! Interval range analysis over the Uber-Instruction IR.
//!
//! This powers the paper's "semantic reasoning" optimizations (§7.1.2):
//! proving that a value is non-negative (so the unsigned-only `vmpyie` is
//! safe — the l2norm case) or that it fits a narrow type (so a fused
//! saturating narrow equals the unfused truncating sequence — the
//! gaussian3x3 case).

use halide_ir::analysis::Range;
use lanes::ElemType;

use uber_ir::UberExpr;

/// Sound interval for an uber-expression's lanes.
pub fn uber_range(e: &UberExpr) -> Range {
    match e {
        UberExpr::Data(l) => Range::of_type(l.ty),
        UberExpr::Bcast { value, ty } => match value {
            halide_ir::ScalarOperand::Imm(v) => Range::point(*v),
            halide_ir::ScalarOperand::Load { .. } => Range::of_type(*ty),
        },
        UberExpr::VsMpyAdd(v) => {
            let mut lo = 0i128;
            let mut hi = 0i128;
            for (input, &w) in v.inputs.iter().zip(&v.kernel) {
                let r = uber_range(input);
                let (a, b) = (r.lo * i128::from(w), r.hi * i128::from(w));
                lo += a.min(b);
                hi += a.max(b);
            }
            clamp_into(Range { lo, hi }, v.out, v.saturating)
        }
        UberExpr::VvMpyAdd(v) => {
            let mut lo = 0i128;
            let mut hi = 0i128;
            for (a, b) in &v.pairs {
                let (ra, rb) = (uber_range(a), uber_range(b));
                let products =
                    [ra.lo * rb.lo, ra.lo * rb.hi, ra.hi * rb.lo, ra.hi * rb.hi];
                lo += products.iter().copied().min().expect("non-empty");
                hi += products.iter().copied().max().expect("non-empty");
            }
            clamp_into(Range { lo, hi }, v.out, v.saturating)
        }
        UberExpr::AbsDiff(a, b) => {
            let (ra, rb) = (uber_range(a), uber_range(b));
            let lo = ra.lo - rb.hi;
            let hi = ra.hi - rb.lo;
            let r = if lo >= 0 {
                Range { lo, hi }
            } else if hi <= 0 {
                Range { lo: -hi, hi: -lo }
            } else {
                Range { lo: 0, hi: (-lo).max(hi) }
            };
            clamp_into(r, e.ty(), false)
        }
        UberExpr::Min(a, b) => {
            let (ra, rb) = (uber_range(a), uber_range(b));
            Range { lo: ra.lo.min(rb.lo), hi: ra.hi.min(rb.hi) }
        }
        UberExpr::Max(a, b) => {
            let (ra, rb) = (uber_range(a), uber_range(b));
            Range { lo: ra.lo.max(rb.lo), hi: ra.hi.max(rb.hi) }
        }
        UberExpr::Average { a, b, round } => {
            let (ra, rb) = (uber_range(a), uber_range(b));
            let r = i128::from(*round);
            Range { lo: (ra.lo + rb.lo + r) >> 1, hi: (ra.hi + rb.hi + r) >> 1 }
        }
        UberExpr::Narrow { arg, shift, round, saturating, out } => {
            let src = arg.ty();
            let r = uber_range(arg);
            let rnd = if *round && *shift > 0 { 1i128 << (shift - 1) } else { 0 };
            // The round-add wraps at the source width, so once `hi + rnd`
            // can leave the source type the interval is no longer contiguous
            // and the only sound answer is the full shifted source range.
            let shifted = if rnd > 0 && r.hi + rnd > i128::from(src.max_value()) {
                Range {
                    lo: i128::from(src.min_value()) >> shift,
                    hi: i128::from(src.max_value()) >> shift,
                }
            } else {
                Range { lo: (r.lo + rnd) >> shift, hi: (r.hi + rnd) >> shift }
            };
            clamp_into(shifted, *out, *saturating)
        }
        UberExpr::Widen { arg, .. } => uber_range(arg),
        UberExpr::Shl { arg, amount } => {
            let r = uber_range(arg);
            clamp_into(Range { lo: r.lo << amount, hi: r.hi << amount }, e.ty(), false)
        }
    }
}

fn clamp_into(r: Range, ty: ElemType, saturating: bool) -> Range {
    if saturating {
        Range {
            lo: r.lo.clamp(ty.min_value() as i128, ty.max_value() as i128),
            hi: r.hi.clamp(ty.min_value() as i128, ty.max_value() as i128),
        }
    } else if r.fits(ty) {
        r
    } else {
        Range::of_type(ty)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use halide_ir::Load;
    use uber_ir::VsMpyAdd;

    #[test]
    fn conv_row_range() {
        let e = UberExpr::conv("in", ElemType::U8, -1, 0, &[1, 2, 1], ElemType::U16);
        let r = uber_range(&e);
        assert_eq!((r.lo, r.hi), (0, 1020));
        assert!(r.is_non_negative());
        assert!(!r.fits(ElemType::U8));
    }

    #[test]
    fn narrow_after_round_shift_fits_u8() {
        let wide = UberExpr::conv("in", ElemType::U8, -1, 0, &[1, 2, 1], ElemType::U16);
        let n = UberExpr::Narrow {
            arg: Box::new(wide),
            shift: 4,
            round: true,
            saturating: false,
            out: ElemType::U16,
        };
        let r = uber_range(&n);
        assert_eq!((r.lo, r.hi), (0, 64));
        assert!(r.fits(ElemType::U8));
    }

    #[test]
    fn rounding_narrow_near_source_boundary_widens() {
        // An unbounded u16 argument can wrap under the round-add, so the
        // shifted range must cover the full shifted source range rather
        // than the naive `(hi + rnd) >> shift`.
        let d = UberExpr::Data(Load { buffer: "in".into(), dx: 0, dy: 0, ty: ElemType::U16 });
        let n = UberExpr::Narrow {
            arg: Box::new(d),
            shift: 4,
            round: true,
            saturating: false,
            out: ElemType::U16,
        };
        let r = uber_range(&n);
        // Wrap makes 0 reachable (x = 0xfff8..0xffff round to 0..0), and the
        // naive hi would have been (65535 + 8) >> 4 = 4096 — out of type.
        assert_eq!((r.lo, r.hi), (0, 4095));
    }

    #[test]
    fn negative_weights_go_signed() {
        let e = UberExpr::VsMpyAdd(VsMpyAdd {
            inputs: vec![UberExpr::Data(Load {
                buffer: "in".into(),
                dx: 0,
                dy: 0,
                ty: ElemType::U8,
            })],
            kernel: vec![-2],
            saturating: false,
            out: ElemType::I16,
        });
        let r = uber_range(&e);
        assert_eq!((r.lo, r.hi), (-510, 0));
        assert!(!r.is_non_negative());
    }

    #[test]
    fn overflow_falls_back_to_type_range() {
        let e = UberExpr::conv("in", ElemType::U8, 0, 0, &[255, 255], ElemType::U8);
        let r = uber_range(&e);
        assert_eq!(r, Range::of_type(ElemType::U8));
    }
}

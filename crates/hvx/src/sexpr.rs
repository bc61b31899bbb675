//! S-expression serialization of HVX expressions.
//!
//! The synthesis cache persists compiled tiles across processes, so the
//! HVX side needs the same canonical machine-readable bridge the Uber-IR
//! already has (`uber_ir::sexpr`): a form distinct from the pretty
//! [`std::fmt::Display`] listing, with an exact round-tripping parser.
//! The parser is this grammar table over the reader all three IRs share
//! (`halide_ir::sexpr::Cursor`).
//!
//! # Grammar
//!
//! ```text
//! expr   := (<head> <param>... expr...)
//! head   := vmem | vsplat | vadd | vsub | ... (one per [`Op`] variant)
//! scalar := <int> | (scal <buffer> <x> <dy>)
//! flag   := #t | #f
//! ```
//!
//! Each head is followed by the variant's parameters (element types,
//! flags, weights) and then exactly `op.arity()` child expressions.

use halide_ir::sexpr::{flag, write_scalar, Cursor, ParseError};

use crate::expr::HvxExpr;
use crate::ops::Op;

/// Serialize to the canonical S-expression.
pub fn to_sexpr(e: &HvxExpr) -> String {
    let mut s = String::new();
    write_expr(e, &mut s);
    s
}

fn write_head(op: &Op, out: &mut String) {
    use std::fmt::Write;
    match op {
        Op::Vmem { buffer, dx, dy, elem } => {
            let _ = write!(out, "vmem {buffer} {elem} {dx} {dy}");
        }
        Op::Vsplat { value, elem } => {
            out.push_str("vsplat ");
            write_scalar(value, out);
            let _ = write!(out, " {elem}");
        }
        Op::Vadd { elem, sat } => {
            let _ = write!(out, "vadd {elem} {}", flag(*sat));
        }
        Op::Vsub { elem, sat } => {
            let _ = write!(out, "vsub {elem} {}", flag(*sat));
        }
        Op::Vavg { elem, round } => {
            let _ = write!(out, "vavg {elem} {}", flag(*round));
        }
        Op::Vnavg { elem } => {
            let _ = write!(out, "vnavg {elem}");
        }
        Op::Vabsdiff { elem } => {
            let _ = write!(out, "vabsdiff {elem}");
        }
        Op::Vmax { elem } => {
            let _ = write!(out, "vmax {elem}");
        }
        Op::Vmin { elem } => {
            let _ = write!(out, "vmin {elem}");
        }
        Op::Vand => out.push_str("vand"),
        Op::Vor => out.push_str("vor"),
        Op::Vxor => out.push_str("vxor"),
        Op::Vnot => out.push_str("vnot"),
        Op::Vasl { elem, shift } => {
            let _ = write!(out, "vasl {elem} {shift}");
        }
        Op::Vasr { elem, shift } => {
            let _ = write!(out, "vasr {elem} {shift}");
        }
        Op::Vlsr { elem, shift } => {
            let _ = write!(out, "vlsr {elem} {shift}");
        }
        Op::VasrNarrow { elem, shift, round, sat, out: oty } => {
            let _ =
                write!(out, "vasr-narrow {elem} {shift} {} {} {oty}", flag(*round), flag(*sat));
        }
        Op::Vmpy { elem } => {
            let _ = write!(out, "vmpy {elem}");
        }
        Op::VmpyScalar { elem, scalar } => {
            let _ = write!(out, "vmpy-scalar {elem} ");
            write_scalar(scalar, out);
        }
        Op::VmpyAcc { elem, scalar } => {
            let _ = write!(out, "vmpy-acc {elem} ");
            write_scalar(scalar, out);
        }
        Op::Vmpyi { elem, scalar } => {
            let _ = write!(out, "vmpyi {elem} ");
            write_scalar(scalar, out);
        }
        Op::VmpyiAcc { elem, scalar } => {
            let _ = write!(out, "vmpyi-acc {elem} ");
            write_scalar(scalar, out);
        }
        Op::Vmpyie => out.push_str("vmpyie"),
        Op::Vmpyio => out.push_str("vmpyio"),
        Op::Vmpa { elem, w0, w1 } => {
            let _ = write!(out, "vmpa {elem} {w0} {w1}");
        }
        Op::VmpaAcc { elem, w0, w1 } => {
            let _ = write!(out, "vmpa-acc {elem} {w0} {w1}");
        }
        Op::Vtmpy { elem, w0, w1 } => {
            let _ = write!(out, "vtmpy {elem} {w0} {w1}");
        }
        Op::VtmpyAcc { elem, w0, w1 } => {
            let _ = write!(out, "vtmpy-acc {elem} {w0} {w1}");
        }
        Op::Vdmpy { elem, w0, w1 } => {
            let _ = write!(out, "vdmpy {elem} {w0} {w1}");
        }
        Op::VdmpyAcc { elem, w0, w1 } => {
            let _ = write!(out, "vdmpy-acc {elem} {w0} {w1}");
        }
        Op::Vrmpy { elem, w } => {
            let _ = write!(out, "vrmpy {elem} {} {} {} {}", w[0], w[1], w[2], w[3]);
        }
        Op::VrmpyAcc { elem, w } => {
            let _ = write!(out, "vrmpy-acc {elem} {} {} {} {}", w[0], w[1], w[2], w[3]);
        }
        Op::Vpack { elem, sat, out: oty } => {
            let _ = write!(out, "vpack {elem} {} {oty}", flag(*sat));
        }
        Op::Vcombine => out.push_str("vcombine"),
        Op::Lo => out.push_str("lo"),
        Op::Hi => out.push_str("hi"),
        Op::VshuffPair { elem } => {
            let _ = write!(out, "vshuff-pair {elem}");
        }
        Op::VdealPair { elem } => {
            let _ = write!(out, "vdeal-pair {elem}");
        }
        Op::Valign { bytes } => {
            let _ = write!(out, "valign {bytes}");
        }
        Op::Vror { bytes } => {
            let _ = write!(out, "vror {bytes}");
        }
        Op::Vzxt { elem } => {
            let _ = write!(out, "vzxt {elem}");
        }
        Op::Vsxt { elem } => {
            let _ = write!(out, "vsxt {elem}");
        }
    }
}

fn write_expr(e: &HvxExpr, out: &mut String) {
    out.push('(');
    write_head(e.root(), out);
    for a in e.args() {
        out.push(' ');
        write_expr(a, out);
    }
    out.push(')');
}

fn op(c: &mut Cursor<'_>, head: &str) -> Result<Op, ParseError> {
    // Struct fields are evaluated in the order written: the grammar's order.
    Ok(match head {
        "vmem" => {
            Op::Vmem { buffer: c.atom()?.to_owned(), elem: c.ty()?, dx: c.int()?, dy: c.int()? }
        }
        "vsplat" => Op::Vsplat { value: c.scalar()?, elem: c.ty()? },
        "vadd" => Op::Vadd { elem: c.ty()?, sat: c.flag()? },
        "vsub" => Op::Vsub { elem: c.ty()?, sat: c.flag()? },
        "vavg" => Op::Vavg { elem: c.ty()?, round: c.flag()? },
        "vnavg" => Op::Vnavg { elem: c.ty()? },
        "vabsdiff" => Op::Vabsdiff { elem: c.ty()? },
        "vmax" => Op::Vmax { elem: c.ty()? },
        "vmin" => Op::Vmin { elem: c.ty()? },
        "vand" => Op::Vand,
        "vor" => Op::Vor,
        "vxor" => Op::Vxor,
        "vnot" => Op::Vnot,
        "vasl" => Op::Vasl { elem: c.ty()?, shift: c.int()? },
        "vasr" => Op::Vasr { elem: c.ty()?, shift: c.int()? },
        "vlsr" => Op::Vlsr { elem: c.ty()?, shift: c.int()? },
        "vasr-narrow" => Op::VasrNarrow {
            elem: c.ty()?,
            shift: c.int()?,
            round: c.flag()?,
            sat: c.flag()?,
            out: c.ty()?,
        },
        "vmpy" => Op::Vmpy { elem: c.ty()? },
        "vmpy-scalar" => Op::VmpyScalar { elem: c.ty()?, scalar: c.scalar()? },
        "vmpy-acc" => Op::VmpyAcc { elem: c.ty()?, scalar: c.scalar()? },
        "vmpyi" => Op::Vmpyi { elem: c.ty()?, scalar: c.scalar()? },
        "vmpyi-acc" => Op::VmpyiAcc { elem: c.ty()?, scalar: c.scalar()? },
        "vmpyie" => Op::Vmpyie,
        "vmpyio" => Op::Vmpyio,
        "vmpa" => Op::Vmpa { elem: c.ty()?, w0: c.int()?, w1: c.int()? },
        "vmpa-acc" => Op::VmpaAcc { elem: c.ty()?, w0: c.int()?, w1: c.int()? },
        "vtmpy" => Op::Vtmpy { elem: c.ty()?, w0: c.int()?, w1: c.int()? },
        "vtmpy-acc" => Op::VtmpyAcc { elem: c.ty()?, w0: c.int()?, w1: c.int()? },
        "vdmpy" => Op::Vdmpy { elem: c.ty()?, w0: c.int()?, w1: c.int()? },
        "vdmpy-acc" => Op::VdmpyAcc { elem: c.ty()?, w0: c.int()?, w1: c.int()? },
        "vrmpy" => Op::Vrmpy { elem: c.ty()?, w: [c.int()?, c.int()?, c.int()?, c.int()?] },
        "vrmpy-acc" => Op::VrmpyAcc { elem: c.ty()?, w: [c.int()?, c.int()?, c.int()?, c.int()?] },
        "vpack" => Op::Vpack { elem: c.ty()?, sat: c.flag()?, out: c.ty()? },
        "vcombine" => Op::Vcombine,
        "lo" => Op::Lo,
        "hi" => Op::Hi,
        "vshuff-pair" => Op::VshuffPair { elem: c.ty()? },
        "vdeal-pair" => Op::VdealPair { elem: c.ty()? },
        "valign" => Op::Valign { bytes: c.int()? },
        "vror" => Op::Vror { bytes: c.int()? },
        "vzxt" => Op::Vzxt { elem: c.ty()? },
        "vsxt" => Op::Vsxt { elem: c.ty()? },
        other => return Err(c.error(format!("unknown hvx op `{other}`"))),
    })
}

fn expr(c: &mut Cursor<'_>) -> Result<HvxExpr, ParseError> {
    c.open()?;
    let head = c.atom()?;
    let op = op(c, head)?;
    let mut args = Vec::new();
    while c.at_open() {
        args.push(expr(c)?);
    }
    c.close()?;
    if args.len() != op.arity() {
        return Err(c.error(format!(
            "`{head}` takes {} argument(s), got {}",
            op.arity(),
            args.len()
        )));
    }
    Ok(HvxExpr::op(op, args))
}

/// Parse a canonical HVX S-expression.
///
/// # Errors
///
/// Returns [`ParseError`] on malformed input.
pub fn parse(input: &str) -> Result<HvxExpr, ParseError> {
    let mut c = Cursor::new(input);
    let e = expr(&mut c)?;
    c.end()?;
    Ok(e)
}

#[cfg(test)]
mod tests {
    use super::*;
    use halide_ir::ScalarOperand;
    use lanes::ElemType::{U16, U8};

    fn roundtrip(e: &HvxExpr) {
        let text = to_sexpr(e);
        let back = parse(&text).unwrap_or_else(|err| panic!("reparse `{text}`: {err}"));
        assert_eq!(&back, e, "round-trip failed for `{text}`");
    }

    #[test]
    fn roundtrips_typical_synthesized_tile() {
        // vtmpy row + fused narrow, the gaussian3x3 shape.
        let vt = HvxExpr::op(
            Op::Vtmpy { elem: U8, w0: 1, w1: 2 },
            vec![HvxExpr::vmem("in", U8, -1, 0), HvxExpr::vmem("in", U8, 7, 0)],
        );
        let e = HvxExpr::op(
            Op::VasrNarrow { elem: U16, shift: 4, round: true, sat: true, out: U8 },
            vec![HvxExpr::op(Op::Hi, vec![vt.clone()]), HvxExpr::op(Op::Lo, vec![vt])],
        );
        roundtrip(&e);
    }

    #[test]
    fn roundtrips_every_scalar_form() {
        let x = HvxExpr::vmem("a", U8, 0, 0);
        roundtrip(&HvxExpr::op(
            Op::Vmpyi { elem: U8, scalar: ScalarOperand::Imm(-3) },
            vec![x.clone()],
        ));
        roundtrip(&HvxExpr::op(
            Op::VmpyScalar {
                elem: U8,
                scalar: ScalarOperand::Load { buffer: "w".into(), x: 2, dy: -1 },
            },
            vec![x.clone()],
        ));
        roundtrip(&HvxExpr::vsplat_imm(7, U16));
        roundtrip(&HvxExpr::op(Op::Vrmpy { elem: U8, w: [1, -2, 3, -4] }, vec![x]));
    }

    #[test]
    fn roundtrips_permutes_and_logicals() {
        let a = HvxExpr::vmem("a", U8, 0, 0);
        let b = HvxExpr::vmem("b", U8, 1, 0);
        for e in [
            HvxExpr::op(Op::Valign { bytes: 3 }, vec![a.clone(), b.clone()]),
            HvxExpr::op(Op::Vand, vec![a.clone(), b.clone()]),
            HvxExpr::op(Op::Vnot, vec![a.clone()]),
            HvxExpr::op(
                Op::VshuffPair { elem: U8 },
                vec![HvxExpr::op(Op::Vzxt { elem: U8 }, vec![a.clone()])],
            ),
            HvxExpr::op(
                Op::Vpack { elem: U16, sat: true, out: U8 },
                vec![
                    HvxExpr::op(Op::Hi, vec![HvxExpr::op(Op::Vzxt { elem: U8 }, vec![a.clone()])]),
                    HvxExpr::op(Op::Lo, vec![HvxExpr::op(Op::Vzxt { elem: U8 }, vec![b])]),
                ],
            ),
        ] {
            roundtrip(&e);
        }
    }

    #[test]
    fn rejects_malformed_input() {
        assert!(parse("").is_err());
        assert!(parse("(vadd u8 #f)").is_err()); // missing args
        assert!(parse("(vfrob u8)").is_err()); // unknown op
        assert!(parse("(vmem in u8 0 0) junk").is_err()); // trailing input
        assert!(parse("(vadd u99 #f (vmem a u8 0 0) (vmem b u8 0 0))").is_err());
    }

    #[test]
    fn out_of_range_integers_are_located_errors() {
        let a = "(vmem a u8 0 0)";
        for (text, offset) in [
            ("(vmem a u8 4294967296 0)".to_owned(), 11),
            (format!("(vasl u16 4294967297 {a})"), 10),
            (format!("(valign 4294967299 {a} {a})"), 8),
            (format!("(vror -1 {a})"), 6),
            (format!("(vmpyi u8 (scal w 0 2147483648) {a})"), 20),
            (format!("(vmpa u8 1 9223372036854775808 {a} {a})"), 11),
        ] {
            let err = parse(&text).unwrap_err();
            assert_eq!(err.offset, offset, "{text}: {err}");
            assert!(err.message.starts_with("expected "), "{text}: {err}");
        }
    }
}

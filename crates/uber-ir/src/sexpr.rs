//! S-expression serialization of the Uber-Instruction IR.
//!
//! The paper's toolchain passes the synthesizer's intermediate results
//! between processes as S-expressions (§6). This is the Uber-IR side of
//! that bridge: a canonical machine-readable form (distinct from the
//! pretty [`std::fmt::Display`] rendering of Figure 5) with an exact
//! round-tripping parser. The parser is this grammar table over the
//! reader all three IRs share (`halide_ir::sexpr::Cursor`).
//!
//! # Grammar
//!
//! ```text
//! expr   := (data <buffer> <ty> <dx> <dy>)
//!         | (bcast <scalar> <ty>)
//!         | (vs-mpy-add <sat?> <ty> (<w> expr)...)
//!         | (vv-mpy-add <sat?> <ty> (expr expr)...)
//!         | (abs-diff expr expr) | (min expr expr) | (max expr expr)
//!         | (avg <round?> expr expr)
//!         | (narrow <shift> <round?> <sat?> <ty> expr)
//!         | (widen <ty> expr)
//!         | (shl <n> expr)
//! scalar := <int> | (scal <buffer> <x> <dy>)
//! flag   := #t | #f
//! ```

use halide_ir::sexpr::{flag, write_scalar, Cursor, ParseError};
use halide_ir::Load;

use crate::expr::{UberExpr, VsMpyAdd, VvMpyAdd};

/// Serialize to the canonical S-expression.
pub fn to_sexpr(e: &UberExpr) -> String {
    let mut s = String::new();
    write_expr(e, &mut s);
    s
}

fn write_expr(e: &UberExpr, out: &mut String) {
    use std::fmt::Write;
    match e {
        UberExpr::Data(l) => {
            let _ = write!(out, "(data {} {} {} {})", l.buffer, l.ty, l.dx, l.dy);
        }
        UberExpr::Bcast { value, ty } => {
            out.push_str("(bcast ");
            write_scalar(value, out);
            let _ = write!(out, " {ty})");
        }
        UberExpr::VsMpyAdd(v) => {
            let _ = write!(out, "(vs-mpy-add {} {}", flag(v.saturating), v.out);
            for (input, w) in v.inputs.iter().zip(&v.kernel) {
                let _ = write!(out, " ({w} ");
                write_expr(input, out);
                out.push(')');
            }
            out.push(')');
        }
        UberExpr::VvMpyAdd(v) => {
            let _ = write!(out, "(vv-mpy-add {} {}", flag(v.saturating), v.out);
            for (a, b) in &v.pairs {
                out.push_str(" (");
                write_expr(a, out);
                out.push(' ');
                write_expr(b, out);
                out.push(')');
            }
            out.push(')');
        }
        UberExpr::AbsDiff(a, b) => write_call(out, "abs-diff", &[a, b]),
        UberExpr::Min(a, b) => write_call(out, "min", &[a, b]),
        UberExpr::Max(a, b) => write_call(out, "max", &[a, b]),
        UberExpr::Average { a, b, round } => {
            let _ = write!(out, "(avg {} ", flag(*round));
            write_expr(a, out);
            out.push(' ');
            write_expr(b, out);
            out.push(')');
        }
        UberExpr::Narrow { arg, shift, round, saturating, out: oty } => {
            let _ = write!(out, "(narrow {shift} {} {} {oty} ", flag(*round), flag(*saturating));
            write_expr(arg, out);
            out.push(')');
        }
        UberExpr::Widen { arg, out: oty } => {
            let _ = write!(out, "(widen {oty} ");
            write_expr(arg, out);
            out.push(')');
        }
        UberExpr::Shl { arg, amount } => {
            let _ = write!(out, "(shl {amount} ");
            write_expr(arg, out);
            out.push(')');
        }
    }
}

fn write_call(out: &mut String, head: &str, args: &[&UberExpr]) {
    out.push('(');
    out.push_str(head);
    for a in args {
        out.push(' ');
        write_expr(a, out);
    }
    out.push(')');
}

fn expr(c: &mut Cursor<'_>) -> Result<UberExpr, ParseError> {
    c.open()?;
    let head = c.atom()?;
    // Struct fields are evaluated in the order written: the grammar's order.
    let e = match head {
        "data" => UberExpr::Data(Load {
            buffer: c.atom()?.to_owned(),
            ty: c.ty()?,
            dx: c.int()?,
            dy: c.int()?,
        }),
        "bcast" => UberExpr::Bcast { value: c.scalar()?, ty: c.ty()? },
        "vs-mpy-add" => {
            let (saturating, out) = (c.flag()?, c.ty()?);
            let (mut inputs, mut kernel) = (Vec::new(), Vec::new());
            while c.at_open() {
                c.open()?;
                kernel.push(c.int()?);
                inputs.push(expr(c)?);
                c.close()?;
            }
            UberExpr::VsMpyAdd(VsMpyAdd { inputs, kernel, saturating, out })
        }
        "vv-mpy-add" => {
            let (saturating, out) = (c.flag()?, c.ty()?);
            let mut pairs = Vec::new();
            while c.at_open() {
                c.open()?;
                pairs.push((expr(c)?, expr(c)?));
                c.close()?;
            }
            UberExpr::VvMpyAdd(VvMpyAdd { pairs, saturating, out })
        }
        "abs-diff" | "min" | "max" => {
            let (a, b) = (Box::new(expr(c)?), Box::new(expr(c)?));
            match head {
                "abs-diff" => UberExpr::AbsDiff(a, b),
                "min" => UberExpr::Min(a, b),
                _ => UberExpr::Max(a, b),
            }
        }
        "avg" => {
            UberExpr::Average { round: c.flag()?, a: Box::new(expr(c)?), b: Box::new(expr(c)?) }
        }
        "narrow" => UberExpr::Narrow {
            shift: c.int()?,
            round: c.flag()?,
            saturating: c.flag()?,
            out: c.ty()?,
            arg: Box::new(expr(c)?),
        },
        "widen" => UberExpr::Widen { out: c.ty()?, arg: Box::new(expr(c)?) },
        "shl" => UberExpr::Shl { amount: c.int()?, arg: Box::new(expr(c)?) },
        other => return Err(c.error(format!("unknown uber-instruction `{other}`"))),
    };
    c.close()?;
    Ok(e)
}

/// Parse a canonical Uber-IR S-expression.
///
/// # Errors
///
/// Returns [`ParseError`] on malformed input.
pub fn parse(input: &str) -> Result<UberExpr, ParseError> {
    let mut c = Cursor::new(input);
    let e = expr(&mut c)?;
    c.end()?;
    Ok(e)
}

#[cfg(test)]
mod tests {
    use super::*;
    use halide_ir::ScalarOperand;
    use lanes::ElemType::{I16, U16, U8};

    fn roundtrip(e: &UberExpr) {
        let text = to_sexpr(e);
        let back = parse(&text).unwrap_or_else(|err| panic!("reparse `{text}`: {err}"));
        assert_eq!(&back, e, "round-trip failed for `{text}`");
    }

    fn d(dx: i32) -> UberExpr {
        UberExpr::Data(Load { buffer: "in".into(), dx, dy: 0, ty: U8 })
    }

    #[test]
    fn roundtrips_every_node_kind() {
        roundtrip(&d(-2));
        roundtrip(&UberExpr::Bcast { value: ScalarOperand::Imm(-5), ty: I16 });
        roundtrip(&UberExpr::Bcast {
            value: ScalarOperand::Load { buffer: "w".into(), x: 3, dy: -1 },
            ty: U8,
        });
        roundtrip(&UberExpr::conv("in", U8, -1, 0, &[1, 2, 1], U16));
        roundtrip(&UberExpr::VvMpyAdd(VvMpyAdd {
            pairs: vec![(d(0), d(1)), (d(2), d(3))],
            saturating: false,
            out: U16,
        }));
        roundtrip(&UberExpr::AbsDiff(Box::new(d(0)), Box::new(d(1))));
        roundtrip(&UberExpr::Min(Box::new(d(0)), Box::new(d(1))));
        roundtrip(&UberExpr::Max(Box::new(d(0)), Box::new(d(1))));
        roundtrip(&UberExpr::Average { a: Box::new(d(0)), b: Box::new(d(1)), round: true });
        roundtrip(&UberExpr::Narrow {
            arg: Box::new(UberExpr::conv("in", U8, 0, 0, &[1, 1], U16)),
            shift: 4,
            round: true,
            saturating: true,
            out: U8,
        });
        roundtrip(&UberExpr::Widen { arg: Box::new(d(0)), out: U16 });
        roundtrip(&UberExpr::Shl {
            arg: Box::new(UberExpr::conv("in", U8, 0, 0, &[1], U16)),
            amount: 3,
        });
    }

    #[test]
    fn canonical_form_is_stable() {
        let e = UberExpr::conv("in", U8, -1, 0, &[1, 2, 1], U16);
        assert_eq!(
            to_sexpr(&e),
            "(vs-mpy-add #f u16 (1 (data in u8 -1 0)) (2 (data in u8 0 0)) (1 (data in u8 1 0)))"
        );
    }

    #[test]
    fn errors_are_located() {
        let err = parse("(frob 1)").unwrap_err();
        assert!(err.message.contains("unknown uber-instruction"));
        assert_eq!(err.offset, 1);
        let err = parse("(narrow 4 #t maybe u8 (data in u8 0 0))").unwrap_err();
        assert!(err.message.contains("expected #t or #f"));
        assert_eq!(err.offset, 13);
        let err = parse("(data in u8 0 0) junk").unwrap_err();
        assert!(err.message.contains("trailing input"));
        assert_eq!(err.offset, 17);
        assert!(parse("(data in u8 0").is_err());
    }

    #[test]
    fn out_of_range_integers_are_located_errors() {
        for (text, offset) in [
            ("(data in u8 4294967296 0)", 12),
            ("(bcast (scal w 2147483648 0) u8)", 15),
            ("(narrow 4294967300 #f #f u8 (data in u8 0 0))", 8),
            ("(shl -1 (data in u16 0 0))", 5),
        ] {
            let err = parse(text).unwrap_err();
            assert_eq!(err.offset, offset, "{text}: {err}");
            assert!(err.message.starts_with("expected "), "{text}: {err}");
        }
    }

    #[test]
    fn nested_deep_roundtrip() {
        // The full sobel-like shape: narrow(sat) of min of adds of absdiffs.
        let row = UberExpr::conv("in", U8, -1, -1, &[1, 2, 1], U16);
        let col = UberExpr::conv("in", U8, -1, 1, &[1, 2, 1], U16);
        let sum = UberExpr::VsMpyAdd(VsMpyAdd {
            inputs: vec![
                UberExpr::AbsDiff(Box::new(row.clone()), Box::new(col.clone())),
                UberExpr::AbsDiff(Box::new(col), Box::new(row)),
            ],
            kernel: vec![1, 1],
            saturating: false,
            out: U16,
        });
        roundtrip(&UberExpr::Narrow {
            arg: Box::new(sum),
            shift: 0,
            round: false,
            saturating: true,
            out: U8,
        });
    }
}

//! Pretty-printing in the paper's Figure-3 notation.

use std::fmt;

use crate::expr::{BinOp, Expr, ScalarOperand, ShiftDir};

impl fmt::Display for ScalarOperand {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ScalarOperand::Imm(v) => write!(f, "{v}"),
            ScalarOperand::Load { buffer, x, dy } => write!(f, "{buffer}[{x}, y+{dy}]"),
        }
    }
}

fn precedence(e: &Expr) -> u8 {
    match e {
        Expr::Binary(b) => match b.op {
            BinOp::Add | BinOp::Sub => 1,
            BinOp::Mul => 2,
            // min/max/absd print as calls, which never need parens.
            BinOp::Min | BinOp::Max | BinOp::Absd => 9,
        },
        Expr::Shift(_) => 0,
        _ => 9,
    }
}

fn fmt_with_parens(e: &Expr, parent: u8, f: &mut fmt::Formatter<'_>) -> fmt::Result {
    if precedence(e) < parent {
        write!(f, "(")?;
        fmt_expr(e, f)?;
        write!(f, ")")
    } else {
        fmt_expr(e, f)
    }
}

fn fmt_expr(e: &Expr, f: &mut fmt::Formatter<'_>) -> fmt::Result {
    match e {
        Expr::Load(l) => {
            write!(f, "{}(x", l.buffer)?;
            if l.dx != 0 {
                write!(f, " {} {}", if l.dx < 0 { "-" } else { "+" }, l.dx.abs())?;
            }
            write!(f, ", y")?;
            if l.dy != 0 {
                write!(f, " {} {}", if l.dy < 0 { "-" } else { "+" }, l.dy.abs())?;
            }
            write!(f, ")")
        }
        Expr::Broadcast(b) => write!(f, "x({})", b.value),
        Expr::BroadcastLoad(b) => write!(f, "x({}({}, y + {}))", b.buffer, b.x, b.dy),
        Expr::Cast(c) => {
            let kind = if c.saturating { "sat_" } else { "" };
            let name = match c.to.name() {
                n if c.to.is_signed() => format!("int{}", &n[1..]),
                n => format!("uint{}", &n[1..]),
            };
            write!(f, "{kind}{name}x(")?;
            fmt_expr(&c.arg, f)?;
            write!(f, ")")
        }
        Expr::Binary(b) => match b.op {
            BinOp::Add | BinOp::Sub | BinOp::Mul => {
                let p = precedence(e);
                fmt_with_parens(&b.lhs, p, f)?;
                write!(f, " {} ", b.op.name())?;
                // Right operand needs parens at equal precedence for the
                // non-associative ops (`-`).
                fmt_with_parens(&b.rhs, p + u8::from(b.op == BinOp::Sub), f)
            }
            BinOp::Min | BinOp::Max | BinOp::Absd => {
                write!(f, "{}(", b.op.name())?;
                fmt_expr(&b.lhs, f)?;
                write!(f, ", ")?;
                fmt_expr(&b.rhs, f)?;
                write!(f, ")")
            }
        },
        Expr::Shift(s) => {
            fmt_with_parens(&s.arg, 1, f)?;
            let sym = match s.dir {
                ShiftDir::Left => "<<",
                ShiftDir::Right => ">>",
            };
            write!(f, " {sym} {}", s.amount)
        }
    }
}

impl fmt::Display for Expr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt_expr(self, f)
    }
}

#[cfg(test)]
mod tests {
    use crate::builder::*;
    use lanes::ElemType;

    #[test]
    fn figure3_style() {
        let e = add(
            widen(load("input", ElemType::U8, -1, -1)),
            mul(widen(load("input", ElemType::U8, 0, -1)), bcast(2, ElemType::U16)),
        );
        assert_eq!(
            e.to_string(),
            "uint16x(input(x - 1, y - 1)) + uint16x(input(x, y - 1)) * x(2)"
        );
    }

    #[test]
    fn parens_only_where_needed() {
        let a = load("a", ElemType::I16, 0, 0);
        let b = load("b", ElemType::I16, 0, 0);
        let e = mul(add(a.clone(), b.clone()), sub(a.clone(), b.clone()));
        assert_eq!(e.to_string(), "(a(x, y) + b(x, y)) * (a(x, y) - b(x, y))");
        let e = sub(sub(a.clone(), b.clone()), a.clone());
        assert_eq!(e.to_string(), "a(x, y) - b(x, y) - a(x, y)");
        let e = sub(a.clone(), sub(b, a));
        assert_eq!(e.to_string(), "a(x, y) - (b(x, y) - a(x, y))");
    }

    #[test]
    fn calls_and_shifts() {
        let e = shr(
            max(load("a", ElemType::I16, 0, 0), bcast(0, ElemType::I16)),
            4,
        );
        assert_eq!(e.to_string(), "max(a(x, y), x(0)) >> 4");
        let e = sat_cast(ElemType::U8, load("a", ElemType::I16, 2, 0));
        assert_eq!(e.to_string(), "sat_uint8x(a(x + 2, y))");
    }
}

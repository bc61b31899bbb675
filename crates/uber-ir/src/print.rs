//! S-expression printing in the paper's Figure-5 style.

use std::fmt;

use crate::expr::UberExpr;

fn go(e: &UberExpr, indent: usize, f: &mut fmt::Formatter<'_>) -> fmt::Result {
    let pad = "  ".repeat(indent);
    match e {
        UberExpr::Data(l) => {
            writeln!(f, "{pad}(load-data {} x{:+} y{:+} {})", l.buffer, l.dx, l.dy, l.ty)
        }
        UberExpr::Bcast { value, ty } => writeln!(f, "{pad}(broadcast {value} {ty})"),
        UberExpr::VsMpyAdd(v) => {
            writeln!(
                f,
                "{pad}(vs-mpy-add [kernel: {:?}] [saturating: {}] [output-type: {}]",
                v.kernel, v.saturating, v.out
            )?;
            for i in &v.inputs {
                go(i, indent + 1, f)?;
            }
            writeln!(f, "{pad})")
        }
        UberExpr::VvMpyAdd(v) => {
            writeln!(
                f,
                "{pad}(vv-mpy-add [saturating: {}] [output-type: {}]",
                v.saturating, v.out
            )?;
            for (a, b) in &v.pairs {
                go(a, indent + 1, f)?;
                go(b, indent + 1, f)?;
            }
            writeln!(f, "{pad})")
        }
        UberExpr::AbsDiff(a, b) => nest(f, indent, "abs-diff", &[a, b]),
        UberExpr::Min(a, b) => nest(f, indent, "min", &[a, b]),
        UberExpr::Max(a, b) => nest(f, indent, "max", &[a, b]),
        UberExpr::Average { a, b, round } => {
            let name = if *round { "average:rnd" } else { "average" };
            nest(f, indent, name, &[a, b])
        }
        UberExpr::Narrow { arg, shift, round, saturating, out } => {
            writeln!(
                f,
                "{pad}(narrow [shift: {shift}] [round: {round}] [saturating: {saturating}] [output-type: {out}]"
            )?;
            go(arg, indent + 1, f)?;
            writeln!(f, "{pad})")
        }
        UberExpr::Widen { arg, out } => {
            writeln!(f, "{pad}(widen [output-type: {out}]")?;
            go(arg, indent + 1, f)?;
            writeln!(f, "{pad})")
        }
        UberExpr::Shl { arg, amount } => {
            writeln!(f, "{pad}(shl [amount: {amount}]")?;
            go(arg, indent + 1, f)?;
            writeln!(f, "{pad})")
        }
    }
}

fn nest(
    f: &mut fmt::Formatter<'_>,
    indent: usize,
    name: &str,
    args: &[&UberExpr],
) -> fmt::Result {
    let pad = "  ".repeat(indent);
    writeln!(f, "{pad}({name}")?;
    for a in args {
        go(a, indent + 1, f)?;
    }
    writeln!(f, "{pad})")
}

impl fmt::Display for UberExpr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        go(self, 0, f)
    }
}

#[cfg(test)]
mod tests {
    use crate::expr::UberExpr;
    use lanes::ElemType;

    #[test]
    fn figure5_style() {
        let e = UberExpr::conv("input", ElemType::U8, -1, -1, &[1, 2, 1], ElemType::U16);
        let s = e.to_string();
        assert!(s.contains("vs-mpy-add"));
        assert!(s.contains("[kernel: [1, 2, 1]]"));
        assert!(s.contains("load-data input x-1 y-1"));
    }

    #[test]
    fn narrow_prints_flags() {
        let e = UberExpr::Narrow {
            arg: Box::new(UberExpr::conv("in", ElemType::U8, 0, 0, &[1], ElemType::U16)),
            shift: 4,
            round: true,
            saturating: true,
            out: ElemType::U8,
        };
        let s = e.to_string();
        assert!(s.contains("(narrow [shift: 4] [round: true] [saturating: true] [output-type: u8]"));
    }
}

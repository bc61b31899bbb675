//! S-expression serialization of the IR.
//!
//! The paper's implementation exchanges expressions between the Halide
//! compiler (C++) and the synthesis engine (Racket) as S-expressions, with
//! a parser on each side (§6). This module is that bridge: a compact
//! canonical S-expression form with a printer and a parser that round-trip
//! exactly.
//!
//! One reader serves all three IRs: [`Cursor`] reads the parentheses and
//! atoms, and the integers, flags, element types and scalar operands the
//! grammars share, and reports every failure as one [`ParseError`] located
//! at the start of the offending token. `uber_ir::sexpr` and `hvx::sexpr`
//! are grammar tables and printers on top of it.
//!
//! # Grammar
//!
//! ```text
//! expr := (load <buffer> <ty> <dx> <dy>)
//!       | (bcast <value> <ty>)
//!       | (bcast-load <buffer> <x> <dy> <ty>)
//!       | (cast <ty> expr) | (sat-cast <ty> expr)
//!       | (add expr expr) | (sub expr expr) | (mul expr expr)
//!       | (min expr expr) | (max expr expr) | (absd expr expr)
//!       | (shl expr <n>)  | (shr expr <n>)
//! ty   := u8 | i8 | u16 | i16 | u32 | i32
//! ```
//!
//! # Example
//!
//! ```
//! use halide_ir::builder::*;
//! use halide_ir::sexpr;
//! use lanes::ElemType;
//!
//! let e = add(widen(load("in", ElemType::U8, -1, 0)), bcast(2, ElemType::U16));
//! let text = sexpr::to_sexpr(&e);
//! assert_eq!(text, "(add (cast u16 (load in u8 -1 0)) (bcast 2 u16))");
//! assert_eq!(sexpr::parse(&text)?, e);
//! # Ok::<(), halide_ir::sexpr::ParseError>(())
//! ```

use std::any::type_name;
use std::fmt;
use std::str::FromStr;

use lanes::ElemType;

use crate::expr::{BinOp, BroadcastLoad, Cast, Expr, Load, ScalarOperand, ShiftDir, TypeError};

/// Serialize an expression to its canonical S-expression.
pub fn to_sexpr(e: &Expr) -> String {
    let mut s = String::new();
    write_sexpr(e, &mut s);
    s
}

fn write_sexpr(e: &Expr, out: &mut String) {
    use std::fmt::Write;
    match e {
        Expr::Load(l) => {
            let _ = write!(out, "(load {} {} {} {})", l.buffer, l.ty, l.dx, l.dy);
        }
        Expr::Broadcast(b) => {
            let _ = write!(out, "(bcast {} {})", b.value, b.ty);
        }
        Expr::BroadcastLoad(b) => {
            let _ = write!(out, "(bcast-load {} {} {} {})", b.buffer, b.x, b.dy, b.ty);
        }
        Expr::Cast(c) => {
            let head = if c.saturating { "sat-cast" } else { "cast" };
            let _ = write!(out, "({head} {} ", c.to);
            write_sexpr(&c.arg, out);
            out.push(')');
        }
        Expr::Binary(b) => {
            let head = match b.op {
                BinOp::Add => "add",
                BinOp::Sub => "sub",
                BinOp::Mul => "mul",
                BinOp::Min => "min",
                BinOp::Max => "max",
                BinOp::Absd => "absd",
            };
            let _ = write!(out, "({head} ");
            write_sexpr(&b.lhs, out);
            out.push(' ');
            write_sexpr(&b.rhs, out);
            out.push(')');
        }
        Expr::Shift(s) => {
            let head = match s.dir {
                ShiftDir::Left => "shl",
                ShiftDir::Right => "shr",
            };
            let _ = write!(out, "({head} ");
            write_sexpr(&s.arg, out);
            let _ = write!(out, " {})", s.amount);
        }
    }
}

/// The text of a flag: `#t` or `#f`.
pub fn flag(b: bool) -> &'static str {
    if b {
        "#t"
    } else {
        "#f"
    }
}

/// Append a scalar operand's S-expression: `<int>` or
/// `(scal <buffer> <x> <dy>)`.
pub fn write_scalar(s: &ScalarOperand, out: &mut String) {
    use std::fmt::Write;
    let _ = match s {
        ScalarOperand::Imm(v) => write!(out, "{v}"),
        ScalarOperand::Load { buffer, x, dy } => write!(out, "(scal {buffer} {x} {dy})"),
    };
}

/// A parse failure, located at the start of the offending token.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// Byte offset into the input.
    pub offset: usize,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "parse error at byte {}: {}", self.offset, self.message)
    }
}

impl std::error::Error for ParseError {}

/// A cursor over S-expression text, borrowing it: parentheses, atoms, and
/// the typed atoms the three IRs share. An atom is a run of bytes up to
/// whitespace or a parenthesis.
pub struct Cursor<'s> {
    input: &'s str,
    /// The next unread byte.
    pos: usize,
    /// Where the token read or peeked last starts.
    token: usize,
}

impl<'s> Cursor<'s> {
    /// A cursor at the start of `input`.
    pub fn new(input: &'s str) -> Self {
        Cursor { input, pos: 0, token: 0 }
    }

    /// Where the token read last starts.
    pub(crate) fn offset(&self) -> usize {
        self.token
    }

    /// An error located at the start of the token read last.
    pub fn error(&self, message: impl Into<String>) -> ParseError {
        ParseError { offset: self.token, message: message.into() }
    }

    /// Skip whitespace and return the next token's first byte.
    fn peek(&mut self) -> Option<u8> {
        let bytes = self.input.as_bytes();
        while bytes.get(self.pos).is_some_and(u8::is_ascii_whitespace) {
            self.pos += 1;
        }
        self.token = self.pos;
        bytes.get(self.pos).copied()
    }

    fn punct(&mut self, c: u8) -> Result<(), ParseError> {
        match self.peek() {
            Some(b) if b == c => {
                self.pos += 1;
                Ok(())
            }
            Some(_) => Err(self.error(format!("expected `{}`", c as char))),
            None => Err(self.error("unexpected end of input")),
        }
    }

    /// Read `(`.
    ///
    /// # Errors
    ///
    /// Returns [`ParseError`] if the next token is anything else.
    pub fn open(&mut self) -> Result<(), ParseError> {
        self.punct(b'(')
    }

    /// Read `)`.
    ///
    /// # Errors
    ///
    /// Returns [`ParseError`] if the next token is anything else.
    pub fn close(&mut self) -> Result<(), ParseError> {
        self.punct(b')')
    }

    /// Whether the next token is `(`.
    pub fn at_open(&mut self) -> bool {
        self.peek() == Some(b'(')
    }

    /// Read an atom.
    ///
    /// # Errors
    ///
    /// Returns [`ParseError`] at a parenthesis or the end of the input.
    pub fn atom(&mut self) -> Result<&'s str, ParseError> {
        match self.peek() {
            None => return Err(self.error("unexpected end of input")),
            Some(b'(' | b')') => return Err(self.error("expected atom")),
            Some(_) => {}
        }
        let bytes = self.input.as_bytes();
        while bytes.get(self.pos).is_some_and(|b| !b.is_ascii_whitespace() && !b"()".contains(b)) {
            self.pos += 1;
        }
        Ok(&self.input[self.token..self.pos])
    }

    /// Read an integer atom as a `T`.
    ///
    /// # Errors
    ///
    /// Returns [`ParseError`] unless the atom is an integer in `T`'s range:
    /// an out-of-range offset or shift is rejected, never wrapped.
    pub fn int<T: FromStr>(&mut self) -> Result<T, ParseError> {
        let a = self.atom()?;
        a.parse().map_err(|_| self.error(format!("expected {}, got `{a}`", type_name::<T>())))
    }

    /// Read a flag, `#t` or `#f`.
    ///
    /// # Errors
    ///
    /// Returns [`ParseError`] on any other atom.
    pub fn flag(&mut self) -> Result<bool, ParseError> {
        match self.atom()? {
            "#t" => Ok(true),
            "#f" => Ok(false),
            other => Err(self.error(format!("expected #t or #f, got `{other}`"))),
        }
    }

    /// Read an element type.
    ///
    /// # Errors
    ///
    /// Returns [`ParseError`] on an unknown type name.
    pub fn ty(&mut self) -> Result<ElemType, ParseError> {
        let a = self.atom()?;
        ElemType::ALL
            .into_iter()
            .find(|t| t.name() == a)
            .ok_or_else(|| self.error(format!("unknown element type `{a}`")))
    }

    /// Read a scalar operand: `<int>` or `(scal <buffer> <x> <dy>)`.
    ///
    /// # Errors
    ///
    /// Returns [`ParseError`] on any other form.
    pub fn scalar(&mut self) -> Result<ScalarOperand, ParseError> {
        if !self.at_open() {
            return Ok(ScalarOperand::Imm(self.int()?));
        }
        self.open()?;
        let tag = self.atom()?;
        if tag != "scal" {
            return Err(self.error(format!("expected `scal`, got `{tag}`")));
        }
        let s = ScalarOperand::Load {
            buffer: self.atom()?.to_owned(),
            x: self.int()?,
            dy: self.int()?,
        };
        self.close()?;
        Ok(s)
    }

    /// Require the end of the input.
    ///
    /// # Errors
    ///
    /// Returns [`ParseError`] at the first trailing token.
    pub fn end(&mut self) -> Result<(), ParseError> {
        match self.peek() {
            None => Ok(()),
            Some(_) => Err(self.error("trailing input after expression")),
        }
    }
}

/// The deepest paren nesting [`parse`] accepts. Halide text comes from
/// outside the program (`rakec`, `rake-served`) and the reader recurses
/// once per level, so this bounds its stack.
pub const MAX_DEPTH: usize = 256;

fn expr(c: &mut Cursor<'_>, depth: usize) -> Result<Expr, ParseError> {
    c.open()?;
    if depth > MAX_DEPTH {
        return Err(c.error(format!("expression nests deeper than {MAX_DEPTH} levels")));
    }
    let head = c.atom()?;
    let at = c.offset();
    let typed = |e: Result<Expr, TypeError>| {
        e.map_err(|e| ParseError { offset: at, message: e.to_string() })
    };
    // Struct fields and call arguments are evaluated in the order written,
    // which is the grammar's order.
    let e = match head {
        "load" => Expr::Load(Load {
            buffer: c.atom()?.to_owned(),
            ty: c.ty()?,
            dx: c.int()?,
            dy: c.int()?,
        }),
        "bcast" => typed(Expr::broadcast(c.int()?, c.ty()?))?,
        "bcast-load" => Expr::BroadcastLoad(BroadcastLoad {
            buffer: c.atom()?.to_owned(),
            x: c.int()?,
            dy: c.int()?,
            ty: c.ty()?,
        }),
        "cast" | "sat-cast" => Expr::Cast(Cast {
            to: c.ty()?,
            saturating: head == "sat-cast",
            arg: Box::new(expr(c, depth + 1)?),
        }),
        "add" | "sub" | "mul" | "min" | "max" | "absd" => {
            let op = match head {
                "add" => BinOp::Add,
                "sub" => BinOp::Sub,
                "mul" => BinOp::Mul,
                "min" => BinOp::Min,
                "max" => BinOp::Max,
                _ => BinOp::Absd,
            };
            typed(Expr::binary(op, expr(c, depth + 1)?, expr(c, depth + 1)?))?
        }
        "shl" | "shr" => {
            let dir = if head == "shl" { ShiftDir::Left } else { ShiftDir::Right };
            typed(Expr::shift(dir, expr(c, depth + 1)?, c.int()?))?
        }
        other => return Err(c.error(format!("unknown operator `{other}`"))),
    };
    c.close()?;
    Ok(e)
}

/// Parse a canonical S-expression into an IR expression.
///
/// # Errors
///
/// Returns [`ParseError`] with a byte offset on malformed input, unknown
/// operators/types, out-of-range integers, nesting deeper than
/// [`MAX_DEPTH`], or type-rule violations.
pub fn parse(input: &str) -> Result<Expr, ParseError> {
    let mut c = Cursor::new(input);
    let e = expr(&mut c, 1)?;
    c.end()?;
    Ok(e)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::*;

    fn roundtrip(e: &Expr) {
        let text = to_sexpr(e);
        let back = parse(&text).unwrap_or_else(|err| panic!("reparse `{text}`: {err}"));
        assert_eq!(&back, e, "round-trip failed for `{text}`");
    }

    #[test]
    fn roundtrips_all_node_kinds() {
        roundtrip(&load("in", ElemType::U8, -3, 2));
        roundtrip(&bcast(-5, ElemType::I16));
        roundtrip(&bcast_load("w", 4, -1, ElemType::U16));
        roundtrip(&cast(ElemType::U16, load("in", ElemType::U8, 0, 0)));
        roundtrip(&sat_cast(ElemType::U8, load("in", ElemType::I16, 0, 0)));
        roundtrip(&shl(load("in", ElemType::U16, 0, 0), 3));
        roundtrip(&shr(load("in", ElemType::I32, 0, 0), 7));
        for op in ["add", "sub", "mul", "min", "max", "absd"] {
            let a = load("a", ElemType::I16, 0, 0);
            let b = load("b", ElemType::I16, 1, 0);
            let e = match op {
                "add" => add(a, b),
                "sub" => sub(a, b),
                "mul" => mul(a, b),
                "min" => min(a, b),
                "max" => max(a, b),
                _ => absd(a, b),
            };
            roundtrip(&e);
        }
    }

    #[test]
    fn roundtrips_workloads() {
        for w in [
            crate::builder::add(
                widen(load("in", ElemType::U8, -1, 0)),
                mul(widen(load("in", ElemType::U8, 0, 0)), bcast(2, ElemType::U16)),
            ),
            sat_cast(
                ElemType::U8,
                shr(
                    crate::builder::add(
                        absd(load("a", ElemType::U16, 0, 0), load("b", ElemType::U16, 0, 0)),
                        bcast(8, ElemType::U16),
                    ),
                    4,
                ),
            ),
        ] {
            roundtrip(&w);
        }
    }

    #[test]
    fn reports_errors_with_offsets() {
        let err = parse("(frobnicate 1 2)").unwrap_err();
        assert!(err.message.contains("unknown operator"));
        assert_eq!(err.offset, 1);

        let err = parse("(load in u9 0 0)").unwrap_err();
        assert!(err.message.contains("unknown element type"));

        let err = parse("(add (load a u8 0 0) (load b u16 0 0))").unwrap_err();
        assert!(err.message.contains("mismatched types"));

        let err = parse("(add (load a u8 0 0)").unwrap_err();
        assert!(err.message.contains("unexpected end of input"));

        let err = parse("(bcast 300 u8)").unwrap_err();
        assert!(err.message.contains("does not fit"));

        let err = parse("(load a u8 0 0) garbage").unwrap_err();
        assert!(err.message.contains("trailing input"));
        assert_eq!(err.offset, 16);
    }

    #[test]
    fn out_of_range_integers_are_located_errors() {
        for (text, offset) in [
            ("(add (load a u8 4294967296 0) (load b u8 0 0))", 16),
            ("(load a u8 0 -2147483649)", 13),
            ("(shl (load a u16 0 0) 4294967297)", 22),
            ("(shl (load a u16 0 0) -1)", 22),
            ("(bcast-load w 4294967296 0 u8)", 14),
            ("(bcast 9223372036854775808 u16)", 7),
        ] {
            let err = parse(text).unwrap_err();
            assert_eq!(err.offset, offset, "{text}: {err}");
            assert!(err.message.starts_with("expected "), "{text}: {err}");
        }
    }

    #[test]
    fn nesting_is_bounded_at_max_depth() {
        let nest = |depth: usize| {
            let casts = depth - 1;
            format!("{}(load a u8 0 0){}", "(cast u8 ".repeat(casts), ")".repeat(casts))
        };
        assert!(parse(&nest(MAX_DEPTH)).is_ok());
        let err = parse(&nest(MAX_DEPTH + 1)).unwrap_err();
        assert!(err.message.contains("nests deeper"), "{err}");
        assert_eq!(err.offset, "(cast u8 ".len() * MAX_DEPTH);
        // Far deeper input stops at the same place instead of exhausting
        // the stack.
        assert_eq!(parse(&nest(200_000)).unwrap_err(), err);
    }

    #[test]
    fn whitespace_is_insignificant() {
        let e = parse("  ( add\n(load in u8 0 0)\t(load in u8 1 0) ) ").unwrap();
        assert_eq!(e.ty(), ElemType::U8);
    }
}

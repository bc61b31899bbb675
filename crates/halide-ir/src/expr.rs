//! The vector-expression AST.

use std::fmt;

use lanes::ElemType;

/// A lane-wise binary operator.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BinOp {
    /// Wrapping addition.
    Add,
    /// Wrapping subtraction.
    Sub,
    /// Wrapping multiplication.
    Mul,
    /// Lane minimum.
    Min,
    /// Lane maximum.
    Max,
    /// Absolute difference (`absd` in Halide).
    Absd,
}

impl BinOp {
    /// All binary operators.
    pub const ALL: [BinOp; 6] =
        [BinOp::Add, BinOp::Sub, BinOp::Mul, BinOp::Min, BinOp::Max, BinOp::Absd];

    /// Whether `op(a, b) == op(b, a)`.
    pub fn is_commutative(self) -> bool {
        matches!(self, BinOp::Add | BinOp::Mul | BinOp::Min | BinOp::Max | BinOp::Absd)
    }

    /// Halide source-level name.
    pub fn name(self) -> &'static str {
        match self {
            BinOp::Add => "+",
            BinOp::Sub => "-",
            BinOp::Mul => "*",
            BinOp::Min => "min",
            BinOp::Max => "max",
            BinOp::Absd => "absd",
        }
    }
}

/// Direction of a shift-by-immediate.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ShiftDir {
    /// Wrapping shift left.
    Left,
    /// Shift right: arithmetic for signed element types, logical for
    /// unsigned (both coincide on canonical unsigned values).
    Right,
}

/// A vector load of consecutive elements from a named 2-D buffer, offset by
/// `(dx, dy)` from the evaluation origin. Models `input(x + dx, y + dy)` in
/// the paper's lowered loop bodies.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Load {
    /// Buffer name.
    pub buffer: String,
    /// Horizontal offset relative to the loop's `x` coordinate.
    pub dx: i32,
    /// Vertical offset relative to the loop's `y` coordinate.
    pub dy: i32,
    /// Element type of the buffer.
    pub ty: ElemType,
}

/// A scalar broadcast, `x128(c)` in the paper's notation.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Broadcast {
    /// The canonical scalar value.
    pub value: i64,
    /// Element type of every lane.
    pub ty: ElemType,
}

/// A broadcast of a *runtime* scalar loaded from a buffer — the form
/// unrolled reduction loops produce (`x128(weights(k, y))` in a matrix
/// multiply). The column is absolute; the row is tile-relative.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct BroadcastLoad {
    /// Buffer name.
    pub buffer: String,
    /// Absolute column of the scalar.
    pub x: i32,
    /// Row offset relative to the loop's `y` coordinate.
    pub dy: i32,
    /// Element type of the buffer (and of every broadcast lane).
    pub ty: ElemType,
}

/// The scalar of a lowered broadcast or vector-scalar instruction: an
/// immediate, or a runtime scalar read from a buffer (absolute column,
/// tile-relative row). The uber-instruction and HVX IRs share this type.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum ScalarOperand {
    /// Compile-time immediate.
    Imm(i64),
    /// Runtime scalar `buffer(x, y0 + dy)`.
    Load {
        /// Buffer name.
        buffer: String,
        /// Absolute column.
        x: i32,
        /// Row offset relative to the tile's `y`.
        dy: i32,
    },
}

/// A lane-wise cast.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Cast {
    /// Destination element type.
    pub to: ElemType,
    /// Saturating (`sat_cast`) vs. truncating semantics.
    pub saturating: bool,
    /// Operand.
    pub arg: Box<Expr>,
}

/// A lane-wise binary operation. Both operands must have the same element
/// type, which is also the result type.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Binary {
    /// The operator.
    pub op: BinOp,
    /// Left operand.
    pub lhs: Box<Expr>,
    /// Right operand.
    pub rhs: Box<Expr>,
}

/// A lane-wise shift by an immediate.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Shift {
    /// Direction.
    pub dir: ShiftDir,
    /// Shift amount; must be `< ty.bits()`.
    pub amount: u32,
    /// Operand.
    pub arg: Box<Expr>,
}

/// A target-independent Halide IR vector expression (Figure 3 of the paper).
///
/// Lane count is not part of the expression: the same expression evaluates
/// at any vector width (the schedule picks 128 for HVX; tests use narrower
/// widths). Element types are intrinsic and can be queried with
/// [`Expr::ty`].
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Expr {
    /// Vector load from a buffer.
    Load(Load),
    /// Scalar broadcast.
    Broadcast(Broadcast),
    /// Runtime-scalar broadcast.
    BroadcastLoad(BroadcastLoad),
    /// Lane-wise cast.
    Cast(Cast),
    /// Lane-wise binary operation.
    Binary(Binary),
    /// Lane-wise shift by immediate.
    Shift(Shift),
}

/// Error constructing an ill-typed expression.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TypeError {
    /// Binary operands have different element types.
    OperandMismatch {
        /// The operator.
        op: BinOp,
        /// Left operand type.
        lhs: ElemType,
        /// Right operand type.
        rhs: ElemType,
    },
    /// A shift amount is as wide as (or wider than) the element type.
    ShiftOutOfRange {
        /// The offending amount.
        amount: u32,
        /// Element type being shifted.
        ty: ElemType,
    },
    /// A broadcast value does not fit its element type.
    BroadcastOutOfRange {
        /// The offending value.
        value: i64,
        /// Target element type.
        ty: ElemType,
    },
}

impl fmt::Display for TypeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TypeError::OperandMismatch { op, lhs, rhs } => {
                write!(f, "operands of `{}` have mismatched types {lhs} and {rhs}", op.name())
            }
            TypeError::ShiftOutOfRange { amount, ty } => {
                write!(f, "shift amount {amount} out of range for element type {ty}")
            }
            TypeError::BroadcastOutOfRange { value, ty } => {
                write!(f, "broadcast value {value} does not fit element type {ty}")
            }
        }
    }
}

impl std::error::Error for TypeError {}

impl Expr {
    /// Fallible constructor for a binary operation.
    ///
    /// # Errors
    ///
    /// Returns [`TypeError::OperandMismatch`] if the operand element types
    /// differ.
    pub fn binary(op: BinOp, lhs: Expr, rhs: Expr) -> Result<Expr, TypeError> {
        let (lt, rt) = (lhs.ty(), rhs.ty());
        if lt != rt {
            return Err(TypeError::OperandMismatch { op, lhs: lt, rhs: rt });
        }
        Ok(Expr::Binary(Binary { op, lhs: Box::new(lhs), rhs: Box::new(rhs) }))
    }

    /// Fallible constructor for a shift.
    ///
    /// # Errors
    ///
    /// Returns [`TypeError::ShiftOutOfRange`] if `amount >= ty.bits()`.
    pub fn shift(dir: ShiftDir, arg: Expr, amount: u32) -> Result<Expr, TypeError> {
        let ty = arg.ty();
        if amount >= ty.bits() {
            return Err(TypeError::ShiftOutOfRange { amount, ty });
        }
        Ok(Expr::Shift(Shift { dir, amount, arg: Box::new(arg) }))
    }

    /// Fallible constructor for a broadcast.
    ///
    /// # Errors
    ///
    /// Returns [`TypeError::BroadcastOutOfRange`] if `value` is not
    /// canonical for `ty`.
    pub fn broadcast(value: i64, ty: ElemType) -> Result<Expr, TypeError> {
        if !ty.contains(value) {
            return Err(TypeError::BroadcastOutOfRange { value, ty });
        }
        Ok(Expr::Broadcast(Broadcast { value, ty }))
    }

    /// The element type of the expression's lanes.
    pub fn ty(&self) -> ElemType {
        match self {
            Expr::Load(l) => l.ty,
            Expr::Broadcast(b) => b.ty,
            Expr::BroadcastLoad(b) => b.ty,
            Expr::Cast(c) => c.to,
            Expr::Binary(b) => b.lhs.ty(),
            Expr::Shift(s) => s.arg.ty(),
        }
    }

    /// Immediate children, left to right.
    pub fn children(&self) -> Vec<&Expr> {
        match self {
            Expr::Load(_) | Expr::Broadcast(_) | Expr::BroadcastLoad(_) => Vec::new(),
            Expr::Cast(c) => vec![&c.arg],
            Expr::Binary(b) => vec![&b.lhs, &b.rhs],
            Expr::Shift(s) => vec![&s.arg],
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ld(ty: ElemType) -> Expr {
        Expr::Load(Load { buffer: "in".into(), dx: 0, dy: 0, ty })
    }

    #[test]
    fn binary_checks_types() {
        assert!(Expr::binary(BinOp::Add, ld(ElemType::U8), ld(ElemType::U8)).is_ok());
        let err = Expr::binary(BinOp::Add, ld(ElemType::U8), ld(ElemType::U16)).unwrap_err();
        assert!(matches!(err, TypeError::OperandMismatch { .. }));
        assert!(!err.to_string().is_empty());
    }

    #[test]
    fn shift_checks_amount() {
        assert!(Expr::shift(ShiftDir::Left, ld(ElemType::U8), 7).is_ok());
        assert!(Expr::shift(ShiftDir::Left, ld(ElemType::U8), 8).is_err());
    }

    #[test]
    fn broadcast_checks_range() {
        assert!(Expr::broadcast(255, ElemType::U8).is_ok());
        assert!(Expr::broadcast(256, ElemType::U8).is_err());
        assert!(Expr::broadcast(-1, ElemType::U8).is_err());
    }

    #[test]
    fn type_propagates() {
        let e = Expr::Cast(Cast {
            to: ElemType::U16,
            saturating: false,
            arg: Box::new(ld(ElemType::U8)),
        });
        let sum = Expr::binary(BinOp::Add, e.clone(), e).unwrap();
        assert_eq!(sum.ty(), ElemType::U16);
    }

    #[test]
    fn children_order() {
        let b = Expr::binary(BinOp::Sub, ld(ElemType::I16), ld(ElemType::I16)).unwrap();
        assert_eq!(b.children().len(), 2);
        assert!(ld(ElemType::I16).children().is_empty());
    }

    #[test]
    fn commutativity_table() {
        assert!(BinOp::Add.is_commutative());
        assert!(!BinOp::Sub.is_commutative());
        assert!(BinOp::Absd.is_commutative());
    }
}

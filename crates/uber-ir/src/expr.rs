//! The uber-instruction expression AST.

use halide_ir::{Load, ScalarOperand};
use lanes::ElemType;

/// The `vs-mpy-add` uber-instruction: `out[i] = Σ_k inputs[k][i] *
/// kernel[k]`, accumulated at full precision and wrapped (or saturated)
/// into `out`.
///
/// This single pattern unifies `vadd` (kernel `[1,1]`, same-width output),
/// `vmpy` (widening, kernel `[w]`), `vmpa`/`vtmpy` (2–3 inputs, widening),
/// and with consecutive-offset load inputs it is exactly a sliding-window
/// reduction (`vtmpy`/`vdmpy`/`vrmpy`).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct VsMpyAdd {
    /// Input vectors, all of the same element type.
    pub inputs: Vec<UberExpr>,
    /// One weight per input.
    pub kernel: Vec<i64>,
    /// Saturate (rather than wrap) into the output type.
    pub saturating: bool,
    /// Output element type; must be at least as wide as the input type.
    pub out: ElemType,
}

/// The `vv-mpy-add` uber-instruction: `out[i] = Σ_k a_k[i] * b_k[i]` —
/// vector–vector multiply-add (element-wise products and dot products).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct VvMpyAdd {
    /// Multiplicand pairs; all operands share one element type.
    pub pairs: Vec<(UberExpr, UberExpr)>,
    /// Saturate into the output type.
    pub saturating: bool,
    /// Output element type.
    pub out: ElemType,
}

/// An uber-instruction expression (see the crate docs for the catalogue).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum UberExpr {
    /// Abstract data load (`load-data` in the paper's Figure 5): the
    /// lowering decides how the window is actually fetched.
    Data(Load),
    /// Scalar broadcast.
    Bcast {
        /// The scalar.
        value: ScalarOperand,
        /// Lane type.
        ty: ElemType,
    },
    /// Vector–scalar multiply-add.
    VsMpyAdd(VsMpyAdd),
    /// Vector–vector multiply-add.
    VvMpyAdd(VvMpyAdd),
    /// Absolute difference.
    AbsDiff(Box<UberExpr>, Box<UberExpr>),
    /// Lane minimum.
    Min(Box<UberExpr>, Box<UberExpr>),
    /// Lane maximum.
    Max(Box<UberExpr>, Box<UberExpr>),
    /// Halving average `(a + b + round) >> 1`.
    Average {
        /// First operand.
        a: Box<UberExpr>,
        /// Second operand.
        b: Box<UberExpr>,
        /// Round up.
        round: bool,
    },
    /// Fused downcast: shift right (optionally rounding), then wrap or
    /// saturate into `out` (which may equal the input width for a plain
    /// shift).
    Narrow {
        /// Operand.
        arg: Box<UberExpr>,
        /// Right-shift amount (0 for a pure cast).
        shift: u32,
        /// Round before shifting.
        round: bool,
        /// Saturate rather than wrap.
        saturating: bool,
        /// Output element type.
        out: ElemType,
    },
    /// Zero/sign extension to a wider type (by the signedness of `out`).
    Widen {
        /// Operand.
        arg: Box<UberExpr>,
        /// Output element type (wider than the operand's).
        out: ElemType,
    },
    /// Lane-wise left shift.
    Shl {
        /// Operand.
        arg: Box<UberExpr>,
        /// Shift amount.
        amount: u32,
    },
}

impl UberExpr {
    /// Convenience constructor for a sliding-window convolution over a
    /// single buffer: `Σ_k input(x + dx + k, y + dy) * kernel[k]`,
    /// expressed as a [`VsMpyAdd`] over consecutive loads.
    pub fn conv(
        buffer: &str,
        elem: ElemType,
        dx: i32,
        dy: i32,
        kernel: &[i64],
        out: ElemType,
    ) -> UberExpr {
        let inputs = (0..kernel.len())
            .map(|k| {
                UberExpr::Data(Load {
                    buffer: buffer.to_owned(),
                    dx: dx + k as i32,
                    dy,
                    ty: elem,
                })
            })
            .collect();
        UberExpr::VsMpyAdd(VsMpyAdd {
            inputs,
            kernel: kernel.to_vec(),
            saturating: false,
            out,
        })
    }

    /// The element type of the expression's lanes.
    ///
    /// # Panics
    ///
    /// Panics on an ill-formed node (e.g. empty `vs-mpy-add`); nodes are
    /// validated at construction by the lifting engine.
    pub fn ty(&self) -> ElemType {
        match self {
            UberExpr::Data(l) => l.ty,
            UberExpr::Bcast { ty, .. } => *ty,
            UberExpr::VsMpyAdd(v) => v.out,
            UberExpr::VvMpyAdd(v) => v.out,
            UberExpr::AbsDiff(a, _) | UberExpr::Min(a, _) | UberExpr::Max(a, _) => a.ty(),
            UberExpr::Average { a, .. } => a.ty(),
            UberExpr::Narrow { out, .. } => *out,
            UberExpr::Widen { out, .. } => *out,
            UberExpr::Shl { arg, .. } => arg.ty(),
        }
    }

    /// Immediate children.
    pub fn children(&self) -> Vec<&UberExpr> {
        match self {
            UberExpr::Data(_) | UberExpr::Bcast { .. } => Vec::new(),
            UberExpr::VsMpyAdd(v) => v.inputs.iter().collect(),
            UberExpr::VvMpyAdd(v) => {
                v.pairs.iter().flat_map(|(a, b)| [a, b]).collect()
            }
            UberExpr::AbsDiff(a, b) | UberExpr::Min(a, b) | UberExpr::Max(a, b) => {
                vec![a, b]
            }
            UberExpr::Average { a, b, .. } => vec![a, b],
            UberExpr::Narrow { arg, .. } | UberExpr::Widen { arg, .. } | UberExpr::Shl { arg, .. } => {
                vec![arg]
            }
        }
    }

    /// Number of uber-instructions in the expression (data sources and
    /// broadcasts count as instructions, as in the paper's Figure 9).
    pub fn node_count(&self) -> usize {
        1 + self.children().iter().map(|c| c.node_count()).sum::<usize>()
    }

    /// Whether the expression is a pure data source (no compute).
    pub fn is_source(&self) -> bool {
        matches!(self, UberExpr::Data(_) | UberExpr::Bcast { .. })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conv_builds_consecutive_loads() {
        let e = UberExpr::conv("in", ElemType::U8, -1, 2, &[1, 2, 1], ElemType::U16);
        let UberExpr::VsMpyAdd(v) = &e else { panic!("expected vs-mpy-add") };
        assert_eq!(v.inputs.len(), 3);
        assert_eq!(v.kernel, vec![1, 2, 1]);
        let UberExpr::Data(l0) = &v.inputs[0] else { panic!() };
        let UberExpr::Data(l2) = &v.inputs[2] else { panic!() };
        assert_eq!((l0.dx, l0.dy), (-1, 2));
        assert_eq!((l2.dx, l2.dy), (1, 2));
        assert_eq!(e.ty(), ElemType::U16);
    }

    #[test]
    fn node_counts() {
        let e = UberExpr::conv("in", ElemType::U8, 0, 0, &[1, 1], ElemType::U16);
        assert_eq!(e.node_count(), 3);
        let n = UberExpr::Narrow {
            arg: Box::new(e),
            shift: 4,
            round: true,
            saturating: true,
            out: ElemType::U8,
        };
        assert_eq!(n.node_count(), 4);
        assert_eq!(n.ty(), ElemType::U8);
    }

    #[test]
    fn sources() {
        let d = UberExpr::Data(Load { buffer: "b".into(), dx: 0, dy: 0, ty: ElemType::I16 });
        assert!(d.is_source());
        assert_eq!(d.ty(), ElemType::I16);
        assert!(d.children().is_empty());
        let b = UberExpr::Bcast { value: ScalarOperand::Imm(3), ty: ElemType::U8 };
        assert!(b.is_source());
    }
}

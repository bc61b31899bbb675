//! The instruction set: operations, operands and static metadata.

use std::fmt;

use halide_ir::ScalarOperand;
use lanes::ElemType;

/// The hardware resource class an instruction executes on. The paper's
/// cost model (§6) counts instructions per resource and takes the maximum,
/// biasing selection toward implementations that spread work across
/// resources.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Resource {
    /// Vector load/store unit.
    Load,
    /// Multiplier array.
    Mpy,
    /// Shifter.
    Shift,
    /// Permute network.
    Permute,
    /// Plain vector ALU.
    Alu,
}

impl Resource {
    /// All resource classes.
    pub const ALL: [Resource; 5] =
        [Resource::Load, Resource::Mpy, Resource::Shift, Resource::Permute, Resource::Alu];
}

/// An HVX-style operation. Element types name the *interpretation* of the
/// raw register bytes; immediates are embedded in the op.
///
/// Widening operations (`vmpy`, `vmpa`, `vtmpy`, `vzxt`, ...) produce
/// *deinterleaved* register pairs (even result lanes in `lo`); narrowing
/// operations (`vpack`, `vasr`-narrow) consume two registers and
/// re-interleave. See the crate docs.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
#[allow(missing_docs)] // variant fields are documented in the semantics table of `exec`
pub enum Op {
    // -- sources ----------------------------------------------------------
    /// Vector load of the tile's lanes from `buffer(x0 + dx .., y0 + dy)`.
    Vmem { buffer: String, dx: i32, dy: i32, elem: ElemType },
    /// Scalar broadcast. Zero-cost: loop-invariant, hoisted by LLVM.
    Vsplat { value: ScalarOperand, elem: ElemType },

    // -- vector ALU -------------------------------------------------------
    Vadd { elem: ElemType, sat: bool },
    Vsub { elem: ElemType, sat: bool },
    Vavg { elem: ElemType, round: bool },
    Vnavg { elem: ElemType },
    Vabsdiff { elem: ElemType },
    Vmax { elem: ElemType },
    Vmin { elem: ElemType },
    Vand,
    Vor,
    Vxor,
    Vnot,

    // -- shifts -----------------------------------------------------------
    Vasl { elem: ElemType, shift: u32 },
    Vasr { elem: ElemType, shift: u32 },
    Vlsr { elem: ElemType, shift: u32 },
    /// Fused narrowing shift: `(odd_src, even_src)` → interleaved vector of
    /// the half-width type `out`, with optional rounding and saturation
    /// (`vasrhubsat` and friends).
    VasrNarrow { elem: ElemType, shift: u32, round: bool, sat: bool, out: ElemType },

    // -- multiplies -------------------------------------------------------
    /// Widening lane-wise multiply → deinterleaved pair.
    Vmpy { elem: ElemType },
    /// Widening multiply by a scalar → deinterleaved pair.
    VmpyScalar { elem: ElemType, scalar: ScalarOperand },
    /// `acc(pair) + widen(x) * scalar` → pair (deinterleaved accumulate).
    VmpyAcc { elem: ElemType, scalar: ScalarOperand },
    /// Non-widening multiply by a scalar.
    Vmpyi { elem: ElemType, scalar: ScalarOperand },
    /// `acc + x * scalar`, non-widening.
    VmpyiAcc { elem: ElemType, scalar: ScalarOperand },
    /// Word × even (unsigned) halfword: `out.w[i] = w[i] * uh(h[2i])`.
    Vmpyie,
    /// Word × odd (signed) halfword: `out.w[i] = w[i] * h[2i+1]`.
    Vmpyio,
    /// Two-source widening multiply-add `a*w0 + b*w1` → deinterleaved pair.
    Vmpa { elem: ElemType, w0: i64, w1: i64 },
    /// `acc(pair) + a*w0 + b*w1` → pair.
    VmpaAcc { elem: ElemType, w0: i64, w1: i64 },
    /// Sliding-window 3-tap `c[i]*w0 + c[i+1]*w1 + c[i+2]` over `c = a ++ b`
    /// → deinterleaved pair (the third tap weight is fixed at 1, as on HVX).
    Vtmpy { elem: ElemType, w0: i64, w1: i64 },
    /// Accumulating `vtmpy`.
    VtmpyAcc { elem: ElemType, w0: i64, w1: i64 },
    /// Pairwise widening dot: `out[i] = a[2i]*w0 + a[2i+1]*w1` (halves the
    /// lane count; natural order).
    Vdmpy { elem: ElemType, w0: i64, w1: i64 },
    /// Accumulating `vdmpy`.
    VdmpyAcc { elem: ElemType, w0: i64, w1: i64 },
    /// 4-way widening reduce: `out[i] = Σ_k a[4i+k]*w[k]` (quarter lane
    /// count, double-widened type; natural order).
    Vrmpy { elem: ElemType, w: [i64; 4] },
    /// Accumulating `vrmpy`.
    VrmpyAcc { elem: ElemType, w: [i64; 4] },

    // -- narrowing packs --------------------------------------------------
    /// Interleaving narrow: `(odd_src, even_src)` → vector of half-width
    /// `out`, truncating (`vshuffe`) or saturating (`vpack:sat`, `vsat`).
    Vpack { elem: ElemType, sat: bool, out: ElemType },

    // -- permutes ---------------------------------------------------------
    /// `(hi, lo)` → pair.
    Vcombine,
    /// Low register of a pair (zero-cost).
    Lo,
    /// High register of a pair (zero-cost).
    Hi,
    /// Interleave a pair at `elem` granularity (deinterleaved → natural;
    /// `vshuffvdd`).
    VshuffPair { elem: ElemType },
    /// Deinterleave a pair at `elem` granularity (natural → deinterleaved;
    /// `vdealvdd`).
    VdealPair { elem: ElemType },
    /// Byte window into `b ++ a` starting at `bytes` (`valign`).
    Valign { bytes: u32 },
    /// Rotate register bytes right (`vror`).
    Vror { bytes: u32 },
    /// Zero-extending widen → deinterleaved pair (`vzxt`).
    Vzxt { elem: ElemType },
    /// Sign-extending widen → deinterleaved pair (`vsxt`).
    Vsxt { elem: ElemType },
}

impl Op {
    /// Number of value arguments the op takes.
    pub fn arity(&self) -> usize {
        match self {
            Op::Vmem { .. } | Op::Vsplat { .. } => 0,
            Op::Vnot
            | Op::Vasl { .. }
            | Op::Vasr { .. }
            | Op::Vlsr { .. }
            | Op::Vmpyi { .. }
            | Op::VmpyScalar { .. }
            | Op::Vdmpy { .. }
            | Op::Vrmpy { .. }
            | Op::Lo
            | Op::Hi
            | Op::VshuffPair { .. }
            | Op::VdealPair { .. }
            | Op::Vror { .. }
            | Op::Vzxt { .. }
            | Op::Vsxt { .. } => 1,
            Op::Vadd { .. }
            | Op::Vsub { .. }
            | Op::Vavg { .. }
            | Op::Vnavg { .. }
            | Op::Vabsdiff { .. }
            | Op::Vmax { .. }
            | Op::Vmin { .. }
            | Op::Vand
            | Op::Vor
            | Op::Vxor
            | Op::VasrNarrow { .. }
            | Op::Vmpy { .. }
            | Op::VmpyAcc { .. }
            | Op::VmpyiAcc { .. }
            | Op::Vmpyie
            | Op::Vmpyio
            | Op::Vmpa { .. }
            | Op::Vpack { .. }
            | Op::Vcombine
            | Op::Valign { .. }
            | Op::VdmpyAcc { .. }
            | Op::VrmpyAcc { .. }
            | Op::Vtmpy { .. } => 2,
            Op::VmpaAcc { .. } | Op::VtmpyAcc { .. } => 3,
        }
    }

    /// The hardware resource the op occupies.
    pub fn resource(&self) -> Resource {
        match self {
            Op::Vmem { .. } => Resource::Load,
            Op::Vadd { .. }
            | Op::Vsub { .. }
            | Op::Vavg { .. }
            | Op::Vnavg { .. }
            | Op::Vabsdiff { .. }
            | Op::Vmax { .. }
            | Op::Vmin { .. }
            | Op::Vand
            | Op::Vor
            | Op::Vxor
            | Op::Vnot => Resource::Alu,
            Op::Vasl { .. } | Op::Vasr { .. } | Op::Vlsr { .. } | Op::VasrNarrow { .. } => {
                Resource::Shift
            }
            Op::Vmpy { .. }
            | Op::VmpyScalar { .. }
            | Op::VmpyAcc { .. }
            | Op::Vmpyi { .. }
            | Op::VmpyiAcc { .. }
            | Op::Vmpyie
            | Op::Vmpyio
            | Op::Vmpa { .. }
            | Op::VmpaAcc { .. }
            | Op::Vtmpy { .. }
            | Op::VtmpyAcc { .. }
            | Op::Vdmpy { .. }
            | Op::VdmpyAcc { .. }
            | Op::Vrmpy { .. }
            | Op::VrmpyAcc { .. } => Resource::Mpy,
            Op::Vsplat { .. }
            | Op::Vpack { .. }
            | Op::Vcombine
            | Op::Lo
            | Op::Hi
            | Op::VshuffPair { .. }
            | Op::VdealPair { .. }
            | Op::Valign { .. }
            | Op::Vror { .. }
            | Op::Vzxt { .. }
            | Op::Vsxt { .. } => Resource::Permute,
        }
    }

    /// Whether the op is free for cost purposes: broadcasts of
    /// loop-invariant scalars are hoisted by LLVM (the paper excludes them
    /// from latency), and `lo`/`hi` of a pair are register-allocation
    /// artifacts.
    pub fn is_free(&self) -> bool {
        matches!(self, Op::Vsplat { .. } | Op::Lo | Op::Hi)
    }

    /// Issue-to-result latency in cycles (0 for free ops, 2 for the
    /// multiplier pipeline, 1 otherwise).
    pub fn latency(&self) -> u32 {
        if self.is_free() {
            0
        } else if self.resource() == Resource::Mpy {
            2
        } else {
            1
        }
    }

    /// Whether this is a data-movement (swizzle) op rather than compute.
    /// Loads and swizzles are what `??load`/`??swizzle` holes abstract in
    /// swizzle-free sketches (§4).
    pub fn is_swizzle(&self) -> bool {
        matches!(
            self,
            Op::Vmem { .. }
                | Op::Vsplat { .. }
                | Op::Vcombine
                | Op::Lo
                | Op::Hi
                | Op::VshuffPair { .. }
                | Op::VdealPair { .. }
                | Op::Valign { .. }
                | Op::Vror { .. }
        )
    }

    /// Mnemonic (without operands), e.g. `vtmpy` or `vadd:sat`.
    pub fn mnemonic(&self) -> String {
        match self {
            Op::Vmem { .. } => "vmem".into(),
            Op::Vsplat { .. } => "vsplat".into(),
            Op::Vadd { sat, .. } => if *sat { "vadd:sat" } else { "vadd" }.into(),
            Op::Vsub { sat, .. } => if *sat { "vsub:sat" } else { "vsub" }.into(),
            Op::Vavg { round, .. } => if *round { "vavg:rnd" } else { "vavg" }.into(),
            Op::Vnavg { .. } => "vnavg".into(),
            Op::Vabsdiff { .. } => "vabsdiff".into(),
            Op::Vmax { .. } => "vmax".into(),
            Op::Vmin { .. } => "vmin".into(),
            Op::Vand => "vand".into(),
            Op::Vor => "vor".into(),
            Op::Vxor => "vxor".into(),
            Op::Vnot => "vnot".into(),
            Op::Vasl { .. } => "vasl".into(),
            Op::Vasr { .. } => "vasr".into(),
            Op::Vlsr { .. } => "vlsr".into(),
            Op::VasrNarrow { round, sat, .. } => {
                let mut s = "vasr-narrow".to_owned();
                if *round {
                    s.push_str(":rnd");
                }
                if *sat {
                    s.push_str(":sat");
                }
                s
            }
            Op::Vmpy { .. } => "vmpy".into(),
            Op::VmpyScalar { .. } => "vmpy".into(),
            Op::VmpyAcc { .. } => "vmpy-acc".into(),
            Op::Vmpyi { .. } => "vmpyi".into(),
            Op::VmpyiAcc { .. } => "vmpyi-acc".into(),
            Op::Vmpyie => "vmpyie".into(),
            Op::Vmpyio => "vmpyio".into(),
            Op::Vmpa { .. } => "vmpa".into(),
            Op::VmpaAcc { .. } => "vmpa-acc".into(),
            Op::Vtmpy { .. } => "vtmpy".into(),
            Op::VtmpyAcc { .. } => "vtmpy-acc".into(),
            Op::Vdmpy { .. } => "vdmpy".into(),
            Op::VdmpyAcc { .. } => "vdmpy-acc".into(),
            Op::Vrmpy { .. } => "vrmpy".into(),
            Op::VrmpyAcc { .. } => "vrmpy-acc".into(),
            Op::Vpack { sat, .. } => if *sat { "vpack:sat" } else { "vshuffe" }.into(),
            Op::Vcombine => "vcombine".into(),
            Op::Lo => "lo".into(),
            Op::Hi => "hi".into(),
            Op::VshuffPair { .. } => "vshuffvdd".into(),
            Op::VdealPair { .. } => "vdealvdd".into(),
            Op::Valign { .. } => "valign".into(),
            Op::Vror { .. } => "vror".into(),
            Op::Vzxt { .. } => "vzxt".into(),
            Op::Vsxt { .. } => "vsxt".into(),
        }
    }
}

impl fmt::Display for Op {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Op::Vmem { buffer, dx, dy, elem } => {
                write!(f, "vmem.{elem}({buffer}, x{dx:+}, y{dy:+})")
            }
            Op::Vsplat { value, elem } => write!(f, "vsplat.{elem}({value})"),
            Op::Vmpa { elem, w0, w1 } | Op::VmpaAcc { elem, w0, w1 } => {
                write!(f, "{}.{elem}(w={w0},{w1})", self.mnemonic())
            }
            Op::Vtmpy { elem, w0, w1 } | Op::VtmpyAcc { elem, w0, w1 } => {
                write!(f, "{}.{elem}(w={w0},{w1},1)", self.mnemonic())
            }
            Op::Vdmpy { elem, w0, w1 } | Op::VdmpyAcc { elem, w0, w1 } => {
                write!(f, "{}.{elem}(w={w0},{w1})", self.mnemonic())
            }
            Op::Vrmpy { elem, w } | Op::VrmpyAcc { elem, w } => {
                write!(f, "{}.{elem}(w={},{},{},{})", self.mnemonic(), w[0], w[1], w[2], w[3])
            }
            Op::VmpyScalar { elem, scalar }
            | Op::VmpyAcc { elem, scalar }
            | Op::Vmpyi { elem, scalar }
            | Op::VmpyiAcc { elem, scalar } => {
                write!(f, "{}.{elem}({scalar})", self.mnemonic())
            }
            Op::Vasl { elem, shift } | Op::Vasr { elem, shift } | Op::Vlsr { elem, shift } => {
                write!(f, "{}.{elem}(#{shift})", self.mnemonic())
            }
            Op::VasrNarrow { elem, shift, out, .. } => {
                write!(f, "{}.{elem}->{out}(#{shift})", self.mnemonic())
            }
            Op::Vpack { elem, out, .. } => write!(f, "{}.{elem}->{out}", self.mnemonic()),
            Op::Valign { bytes } | Op::Vror { bytes } => {
                write!(f, "{}(#{bytes})", self.mnemonic())
            }
            Op::Vadd { elem, .. }
            | Op::Vsub { elem, .. }
            | Op::Vavg { elem, .. }
            | Op::Vnavg { elem }
            | Op::Vabsdiff { elem }
            | Op::Vmax { elem }
            | Op::Vmin { elem }
            | Op::Vmpy { elem }
            | Op::VshuffPair { elem }
            | Op::VdealPair { elem }
            | Op::Vzxt { elem }
            | Op::Vsxt { elem } => write!(f, "{}.{elem}", self.mnemonic()),
            _ => write!(f, "{}", self.mnemonic()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metadata_consistency() {
        let vtmpy = Op::Vtmpy { elem: ElemType::U8, w0: 1, w1: 2 };
        assert_eq!(vtmpy.resource(), Resource::Mpy);
        assert_eq!(vtmpy.latency(), 2);
        assert_eq!(vtmpy.arity(), 2);
        assert!(!vtmpy.is_swizzle());
        assert!(!vtmpy.is_free());

        let splat = Op::Vsplat { value: ScalarOperand::Imm(2), elem: ElemType::U16 };
        assert!(splat.is_free());
        assert_eq!(splat.latency(), 0);
        assert!(splat.is_swizzle());

        let add = Op::Vadd { elem: ElemType::I16, sat: false };
        assert_eq!(add.resource(), Resource::Alu);
        assert_eq!(add.latency(), 1);
    }

    #[test]
    fn display_is_informative() {
        let op = Op::Vtmpy { elem: ElemType::U8, w0: 1, w1: 2 };
        assert_eq!(op.to_string(), "vtmpy.u8(w=1,2,1)");
        let op = Op::VasrNarrow {
            elem: ElemType::I16,
            shift: 4,
            round: true,
            sat: true,
            out: ElemType::U8,
        };
        assert_eq!(op.to_string(), "vasr-narrow:rnd:sat.i16->u8(#4)");
        let op = Op::Vmem { buffer: "in".into(), dx: -1, dy: 1, elem: ElemType::U8 };
        assert_eq!(op.to_string(), "vmem.u8(in, x-1, y+1)");
    }

    #[test]
    fn swizzle_classification() {
        assert!(Op::Vcombine.is_swizzle());
        assert!(Op::VshuffPair { elem: ElemType::U16 }.is_swizzle());
        assert!(Op::Valign { bytes: 2 }.is_swizzle());
        assert!(!Op::Vpack { elem: ElemType::I16, sat: true, out: ElemType::U8 }.is_swizzle());
        assert!(!Op::Vadd { elem: ElemType::U8, sat: false }.is_swizzle());
    }
}

//! The paper's cost model (§6): per-resource instruction counting.

use crate::ops::Resource;
use crate::program::Program;

/// Instruction units charged to each hardware resource.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ResourceCounts {
    /// Load/store units.
    pub load: u32,
    /// Multiplier units.
    pub mpy: u32,
    /// Shifter units.
    pub shift: u32,
    /// Permute-network units.
    pub permute: u32,
    /// Vector-ALU units.
    pub alu: u32,
}

impl ResourceCounts {
    /// The paper's cost: the maximum over resources. "Since different
    /// instructions can execute on different hardware resources within the
    /// same cycle, we count the number of instructions per resource and
    /// take the maximum" (§6).
    pub fn cost(&self) -> u32 {
        self.load.max(self.mpy).max(self.shift).max(self.permute).max(self.alu)
    }

    /// Total units across all resources (tie-breaker: fewer instructions
    /// overall is better at equal max-cost).
    pub fn total(&self) -> u32 {
        self.load + self.mpy + self.shift + self.permute + self.alu
    }

    fn slot(&mut self, r: Resource) -> &mut u32 {
        match r {
            Resource::Load => &mut self.load,
            Resource::Mpy => &mut self.mpy,
            Resource::Shift => &mut self.shift,
            Resource::Permute => &mut self.permute,
            Resource::Alu => &mut self.alu,
        }
    }
}

/// The cost model used by the lowering search (Algorithm 2's `InferCost`).
///
/// # Example
///
/// ```
/// use rake_hvx::{CostModel, HvxExpr, Op};
/// use lanes::ElemType;
///
/// let e = HvxExpr::op(
///     Op::Vtmpy { elem: ElemType::U8, w0: 1, w1: 2 },
///     vec![
///         HvxExpr::vmem("in", ElemType::U8, -1, 0),
///         HvxExpr::vmem("in", ElemType::U8, 127, 0),
///     ],
/// );
/// let model = CostModel::new(128, 128);
/// let counts = model.count(&e.to_program());
/// assert_eq!(counts.mpy, 1);
/// assert_eq!(counts.load, 2);
/// assert_eq!(counts.cost(), 2);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CostModel {
    lanes: usize,
    vec_bytes: usize,
}

impl CostModel {
    /// A cost model for the given vectorization width (lanes) and register
    /// byte width.
    pub fn new(lanes: usize, vec_bytes: usize) -> CostModel {
        CostModel { lanes, vec_bytes }
    }

    /// Per-resource unit counts for a program.
    pub fn count(&self, p: &Program) -> ResourceCounts {
        let units = p.units(self.lanes, self.vec_bytes);
        let mut counts = ResourceCounts::default();
        for (instr, &u) in p.instrs().iter().zip(&units) {
            *counts.slot(instr.op.resource()) += u;
        }
        counts
    }

    /// Scalar cost of a program: `(max-per-resource, total, latency-sum)`
    /// compared lexicographically. The primary term is the paper's cost;
    /// the others break ties toward smaller and shorter code.
    pub fn cost(&self, p: &Program) -> (u32, u32, u64) {
        let c = self.count(p);
        (c.cost(), c.total(), p.latency_sum(self.lanes, self.vec_bytes))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::HvxExpr;
    use crate::ops::Op;
    use lanes::ElemType;

    fn model() -> CostModel {
        CostModel::new(128, 128)
    }

    #[test]
    fn counts_spread_across_resources() {
        // shift feeding an add: one unit each on shift + alu + load.
        let e = HvxExpr::op(
            Op::Vadd { elem: ElemType::U8, sat: false },
            vec![
                HvxExpr::op(
                    Op::Vlsr { elem: ElemType::U8, shift: 1 },
                    vec![HvxExpr::vmem("in", ElemType::U8, 0, 0)],
                ),
                HvxExpr::vmem("in", ElemType::U8, 1, 0),
            ],
        );
        let c = model().count(&e.to_program());
        assert_eq!(c.load, 2);
        assert_eq!(c.shift, 1);
        assert_eq!(c.alu, 1);
        assert_eq!(c.mpy, 0);
        assert_eq!(c.cost(), 2);
        assert_eq!(c.total(), 4);
    }

    #[test]
    fn max_biases_toward_balance() {
        // Three ALU ops on one resource cost 3...
        let load = HvxExpr::vmem("in", ElemType::U8, 0, 0);
        let mut alu = load.clone();
        for _ in 0..3 {
            alu = HvxExpr::op(
                Op::Vadd { elem: ElemType::U8, sat: false },
                vec![alu, HvxExpr::vsplat_imm(1, ElemType::U8)],
            );
        }
        let c_alu = model().count(&alu.to_program());
        assert_eq!(c_alu.alu, 3);
        assert_eq!(c_alu.cost(), 3);

        // ...while alu+shift+mpy of the same length costs max = 1 each.
        let spread = HvxExpr::op(
            Op::Vmpyi { elem: ElemType::U8, scalar: halide_ir::ScalarOperand::Imm(3) },
            vec![HvxExpr::op(
                Op::Vlsr { elem: ElemType::U8, shift: 1 },
                vec![HvxExpr::op(
                    Op::Vadd { elem: ElemType::U8, sat: false },
                    vec![load.clone(), HvxExpr::vsplat_imm(1, ElemType::U8)],
                )],
            )],
        );
        let c = model().count(&spread.to_program());
        assert_eq!(c.cost(), 1);
        assert!(c.total() >= 3);
    }

    #[test]
    fn lexicographic_cost_ordering() {
        let a = HvxExpr::op(
            Op::Vtmpy { elem: ElemType::U8, w0: 1, w1: 2 },
            vec![
                HvxExpr::vmem("in", ElemType::U8, -1, 0),
                HvxExpr::vmem("in", ElemType::U8, 127, 0),
            ],
        );
        let b = HvxExpr::op(
            Op::Vadd { elem: ElemType::U16, sat: false },
            vec![
                HvxExpr::op(
                    Op::Vmpa { elem: ElemType::U8, w0: 2, w1: 1 },
                    vec![
                        HvxExpr::vmem("in", ElemType::U8, 0, 0),
                        HvxExpr::vmem("in", ElemType::U8, 1, 0),
                    ],
                ),
                HvxExpr::op(
                    Op::Vzxt { elem: ElemType::U8 },
                    vec![HvxExpr::vmem("in", ElemType::U8, -1, 0)],
                ),
            ],
        );
        let ca = model().cost(&a.to_program());
        let cb = model().cost(&b.to_program());
        assert!(ca < cb, "vtmpy ({ca:?}) must beat vmpa+vadd+vzxt ({cb:?})");
    }
}

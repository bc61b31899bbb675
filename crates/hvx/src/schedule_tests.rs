//! Property tests over the VLIW packet scheduler: resource slots are
//! never oversubscribed, dependencies are respected, and the cycle count
//! is bounded below by both the critical path and the resource bound.

use lanes::rng::Rng;
use lanes::ElemType;

use crate::expr::HvxExpr;
use crate::ops::{Op, Resource};
use crate::program::SlotBudget;

/// A random compute DAG built from loads at distinct offsets.
fn random_program(seed: u64, size: usize) -> crate::program::Program {
    let mut rng = Rng::seed_from_u64(seed);
    let mut exprs: Vec<HvxExpr> = (0..3)
        .map(|i| HvxExpr::vmem("in", ElemType::U8, i, 0))
        .collect();
    for _ in 0..size {
        let pick = |rng: &mut Rng, exprs: &[HvxExpr]| -> HvxExpr {
            exprs[rng.gen_range_usize(0..=exprs.len() - 1)].clone()
        };
        // Only compose same-shape (single register, u8) values.
        let a = pick(&mut rng, &exprs);
        let b = pick(&mut rng, &exprs);
        let e = match rng.gen_range(0..=4) {
            0 => HvxExpr::op(Op::Vadd { elem: ElemType::U8, sat: false }, vec![a, b]),
            1 => HvxExpr::op(Op::Vmax { elem: ElemType::U8 }, vec![a, b]),
            2 => HvxExpr::op(Op::Vabsdiff { elem: ElemType::U8 }, vec![a, b]),
            3 => HvxExpr::op(Op::Vlsr { elem: ElemType::U8, shift: 1 }, vec![a]),
            _ => HvxExpr::op(
                Op::Vmpyi { elem: ElemType::U8, scalar: halide_ir::ScalarOperand::Imm(3) },
                vec![a],
            ),
        };
        exprs.push(e);
    }
    exprs.last().expect("non-empty").to_program()
}

/// Draw (seed, size) pairs for the randomized schedule tests.
fn cases(n: usize, salt: u64) -> Vec<(u64, usize)> {
    let mut rng = Rng::seed_from_u64(salt);
    (0..n).map(|_| (rng.next_u64() % 1000, rng.gen_range_usize(1..=23))).collect()
}

/// No cycle issues more units of a resource than the packet allows.
#[test]
fn prop_no_slot_oversubscription() {
    for (seed, size) in cases(32, 0x5105) {
        let p = random_program(seed, size);
        let slots = SlotBudget::hvx();
        let s = p.schedule(8, 8, slots);
        let units = p.units(8, 8);
        let mut per_cycle: std::collections::HashMap<(u64, Resource), u32> =
            std::collections::HashMap::new();
        for (i, instr) in p.instrs().iter().enumerate() {
            if units[i] == 0 {
                continue;
            }
            *per_cycle.entry((s.issue[i], instr.op.resource())).or_insert(0) += units[i];
        }
        for ((cycle, r), used) in per_cycle {
            let cap = match r {
                Resource::Load => 1,
                Resource::Mpy => 2,
                Resource::Shift => 1,
                Resource::Permute => 1,
                Resource::Alu => 2,
            };
            if used > cap {
                // A wide op may exceed one packet's slots by spilling into
                // later cycles, but then it must be ALONE on the resource.
                let issuers = p
                    .instrs()
                    .iter()
                    .enumerate()
                    .filter(|(i, instr)| {
                        units[*i] > 0
                            && s.issue[*i] == cycle
                            && instr.op.resource() == r
                    })
                    .count();
                assert_eq!(
                    issuers, 1,
                    "cycle {}: {} units on {:?} (cap {}) from {} instructions",
                    cycle, used, r, cap, issuers
                );
            }
        }
    }
}

/// Every instruction issues only after its operands' results are ready.
#[test]
fn prop_dependencies_respected() {
    for (seed, size) in cases(32, 0xdeb5) {
        let p = random_program(seed, size);
        let s = p.schedule(8, 8, SlotBudget::hvx());
        for (i, instr) in p.instrs().iter().enumerate() {
            for &a in &instr.args {
                let ready = s.issue[a] + u64::from(p.instrs()[a].op.latency());
                assert!(
                    s.issue[i] >= ready,
                    "instr {i} issued at {} before operand {a} ready at {ready}",
                    s.issue[i]
                );
            }
        }
    }
}

/// Total cycles dominate both the dependence critical path and the
/// per-resource unit count (the paper's cost lower bound).
#[test]
fn prop_cycles_lower_bounds() {
    for (seed, size) in cases(32, 0xcb0d) {
        let p = random_program(seed, size);
        let slots = SlotBudget::hvx();
        let s = p.schedule(8, 8, slots);
        // Resource bound: ceil(units / capacity) per resource.
        let counts = crate::cost::CostModel::new(8, 8).count(&p);
        let res_bound = [
            (counts.load, 1u32),
            (counts.mpy, 2),
            (counts.shift, 1),
            (counts.permute, 1),
            (counts.alu, 2),
        ]
        .iter()
        .map(|&(n, cap)| u64::from(n.div_ceil(cap)))
        .max()
        .unwrap_or(0);
        assert!(s.cycles >= res_bound, "cycles {} < resource bound {res_bound}", s.cycles);

        // Critical-path bound.
        let mut depth = vec![0u64; p.len()];
        for (i, instr) in p.instrs().iter().enumerate() {
            let in_depth =
                instr.args.iter().map(|&a| depth[a]).max().unwrap_or(0);
            depth[i] = in_depth + u64::from(instr.op.latency());
        }
        let cp = depth.iter().copied().max().unwrap_or(0);
        assert!(s.cycles >= cp, "cycles {} < critical path {cp}", s.cycles);
    }
}

/// Scheduling is deterministic.
#[test]
fn prop_deterministic() {
    let mut rng = Rng::seed_from_u64(0xde7e);
    for _ in 0..32 {
        let (seed, size) = (rng.next_u64() % 200, rng.gen_range_usize(1..=15));
        let p = random_program(seed, size);
        let a = p.schedule(8, 8, SlotBudget::hvx());
        let b = p.schedule(8, 8, SlotBudget::hvx());
        assert_eq!(a, b);
    }
}

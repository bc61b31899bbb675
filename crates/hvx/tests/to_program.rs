//! `HvxExpr::to_program` against a subtree-keyed flattening: the same
//! instructions in the same order, on generated trees with repeated
//! subtrees and on the programs Rake compiles for two suite workloads.

use std::collections::HashMap;

use lanes::rng::Rng;
use lanes::ElemType;
use rake::{Rake, Target};
use rake_hvx::{HvxExpr, Instr, Op, Program};

/// Subtree-keyed flattening: the CSE memo is keyed on whole subtrees, so
/// every node hashes and clones its subtree. The reference the one-pass
/// `to_program` must agree with.
fn reference_program(e: &HvxExpr) -> Program {
    fn go(e: &HvxExpr, memo: &mut HashMap<HvxExpr, usize>, instrs: &mut Vec<Instr>) -> usize {
        if let Some(&id) = memo.get(e) {
            return id;
        }
        let args: Vec<usize> = e.args().iter().map(|a| go(a, memo, instrs)).collect();
        let id = instrs.len();
        instrs.push(Instr { op: e.root().clone(), args });
        memo.insert(e.clone(), id);
        id
    }
    let mut memo = HashMap::new();
    let mut instrs = Vec::new();
    let output = go(e, &mut memo, &mut instrs);
    Program::new(instrs, output)
}

/// A random tree of `budget` nodes or fewer that reuses earlier subtrees
/// from `pool`, so most trees repeat some subtree, often at different
/// depths. Types are not checked: flattening reads only operations and
/// arity.
fn gen(rng: &mut Rng, budget: usize, pool: &mut Vec<HvxExpr>) -> HvxExpr {
    let e = if !pool.is_empty() && rng.gen_bool(0.3) {
        pool[rng.gen_range_usize(0..=pool.len() - 1)].clone()
    } else if budget <= 1 || rng.gen_bool(0.2) {
        match rng.gen_range_usize(0..=2) {
            0 => HvxExpr::vmem("in", ElemType::U8, rng.gen_range_usize(0..=3) as i32, 0),
            1 => HvxExpr::vmem("w", ElemType::U8, 0, rng.gen_range_usize(0..=1) as i32),
            _ => HvxExpr::vsplat_imm(rng.gen_range_usize(1..=3) as i64, ElemType::U8),
        }
    } else if rng.gen_bool(0.25) {
        let arg = gen(rng, budget - 1, pool);
        HvxExpr::op(Op::Vasl { elem: ElemType::U8, shift: 1 }, vec![arg])
    } else {
        let half = (budget - 1) / 2;
        let lhs = gen(rng, half.max(1), pool);
        let rhs = gen(rng, (budget - 1 - half).max(1), pool);
        let op = match rng.gen_range_usize(0..=2) {
            0 => Op::Vadd { elem: ElemType::U8, sat: false },
            1 => Op::Vmax { elem: ElemType::U8 },
            _ => Op::Vavg { elem: ElemType::U8, round: true },
        };
        HvxExpr::op(op, vec![lhs, rhs])
    };
    pool.push(e.clone());
    e
}

#[test]
fn generated_trees_with_repeats_flatten_like_the_reference() {
    let mut rng = Rng::seed_from_u64(0x70_9E0);
    let mut repeats = 0;
    for _ in 0..300 {
        let mut pool = Vec::new();
        let e = gen(&mut rng, 40, &mut pool);
        let program = e.to_program();
        assert_eq!(program, reference_program(&e), "{e}");
        repeats += usize::from(program.len() < e.node_count());
    }
    // Most trees share a subtree, so CSE is what the comparison exercises.
    assert!(repeats > 150, "only {repeats} of 300 trees repeat a subtree");
}

#[test]
fn compiled_suite_programs_flatten_like_the_reference() {
    for name in ["median", "gaussian7x7"] {
        let w = workloads::by_name(name).expect("a suite workload");
        let rake = Rake::new(Target::hvx_small(16));
        let mut compiled = 0;
        for e in &w.exprs {
            let Ok(c) = rake.compile(e) else { continue };
            assert_eq!(c.hvx.to_program(), reference_program(&c.hvx), "{name}: {}", c.hvx);
            assert_eq!(c.program, c.hvx.to_program(), "{name}");
            compiled += 1;
        }
        assert!(compiled > 0, "{name}: nothing compiled");
    }
}

//! Integration across the solver stack: lifting queries decided while the
//! query is built (word-level normalization in `smt::Context`) and by the
//! bit-blasting solver must agree with the full oracle, the end-to-end
//! verifier must be sound on engineered near-misses, the one-node
//! evaluation steps the oracle's value memo runs must be the interpreters,
//! and the three IRs' S-expression forms must read back through the one
//! shared reader.

use std::collections::BTreeSet;

use halide_ir::builder::*;
use halide_ir::{EvalCtx, Expr, Load, ScalarOperand};
use hvx::{HvxExpr, Op};
use lanes::rng::Rng;
use lanes::ElemType::{I16, I8, U16, U8};
use synth::encode::{encode_halide_lane, encode_uber_lane};
use synth::Verifier;
use uber_ir::{UberExpr, VsMpyAdd, VvMpyAdd};

fn v() -> Verifier {
    Verifier::fast()
}

/// Decide `h ≡ u` over two lanes, as the lifting oracle does, within
/// `budget` CDCL conflicts. `Some(true)` is a proof of equivalence.
fn prove(h: &Expr, u: &UberExpr, budget: u64) -> Option<bool> {
    smt::prove_unsat(
        |ctx| {
            let mut any_ne = ctx.ff();
            for lane in 0..2 {
                let th = encode_halide_lane(ctx, h, lane);
                let tu = encode_uber_lane(ctx, u, lane);
                let ne = ctx.ne(th, tu);
                any_ne = ctx.or(any_ne, ne);
            }
            Some(any_ne)
        },
        budget,
    )
}

/// Accepted by normalization alone: no conflict may be spent.
fn decided_while_built(h: &Expr, u: &UberExpr) -> bool {
    prove(h, u, 0) == Some(true)
}

/// Refuted by the solver with an unbounded budget.
fn refuted(h: &Expr, u: &UberExpr) -> bool {
    prove(h, u, u64::MAX) == Some(false)
}

fn data(buffer: &str, dx: i32, dy: i32) -> UberExpr {
    UberExpr::Data(Load { buffer: buffer.into(), dx, dy, ty: U8 })
}

fn vs_mpy_add(inputs: Vec<UberExpr>, kernel: &[i64]) -> UberExpr {
    UberExpr::VsMpyAdd(VsMpyAdd { inputs, kernel: kernel.to_vec(), saturating: false, out: U16 })
}

#[test]
fn linear_and_solver_agree_on_small_kernels() {
    // For 2-tap kernels over u8 cells, every weight pair in a small grid:
    // the true kernel is proved while the query is built, every other
    // kernel is refuted by the solver, and the full oracle agrees.
    for w0 in 1..4i64 {
        for w1 in 1..4i64 {
            let h = add(
                mul(widen(load("in", U8, 0, 0)), bcast(w0, U16)),
                mul(widen(load("in", U8, 1, 0)), bcast(w1, U16)),
            );
            for c0 in 1..4i64 {
                for c1 in 1..4i64 {
                    let u = UberExpr::conv("in", U8, 0, 0, &[c0, c1], U16);
                    let equal = (w0, w1) == (c0, c1);
                    let decided = if equal { decided_while_built(&h, &u) } else { refuted(&h, &u) };
                    assert!(decided, "weights ({w0},{w1}) vs kernel ({c0},{c1})");
                    assert_eq!(
                        v().equiv_halide_uber(&h, &u),
                        equal,
                        "oracle disagrees at weights ({w0},{w1}) vs kernel ({c0},{c1})"
                    );
                }
            }
        }
    }
}

#[test]
fn near_miss_candidates_are_rejected() {
    let t = |dx| widen(load("in", U8, dx, 0));
    let h = add(add(t(-1), mul(t(0), bcast(2, U16))), t(1));
    // Right kernel, shifted window.
    let u = UberExpr::conv("in", U8, 0, 0, &[1, 2, 1], U16);
    assert!(!v().equiv_halide_uber(&h, &u));
    // Right window, permuted kernel.
    let u = UberExpr::conv("in", U8, -1, 0, &[2, 1, 1], U16);
    assert!(!v().equiv_halide_uber(&h, &u));
    // Wrong output type.
    let u = UberExpr::conv("in", U8, -1, 0, &[1, 2, 1], I16);
    assert!(!v().equiv_halide_uber(&h, &u));
}

#[test]
fn saturation_vs_wrap_distinguished_by_nonlinear_path() {
    // u8(x + y) vs sat_u8(x + y) over u16 sums that can exceed 255: the
    // clamp is live, so the solver must find a counterexample; against the
    // wrapping narrow the two sides normalize to one term.
    let x = add(widen(load("a", U8, 0, 0)), widen(load("b", U8, 0, 0)));
    let truncating = cast(U8, x);
    let sum = || Box::new(vs_mpy_add(vec![data("a", 0, 0), data("b", 0, 0)], &[1, 1]));
    let u_sat = UberExpr::Narrow { arg: sum(), shift: 0, round: false, saturating: true, out: U8 };
    assert!(refuted(&truncating, &u_sat));
    assert!(!v().equiv_halide_uber(&truncating, &u_sat));
    let u_wrap =
        UberExpr::Narrow { arg: sum(), shift: 0, round: false, saturating: false, out: U8 };
    assert!(decided_while_built(&truncating, &u_wrap));
    assert!(v().equiv_halide_uber(&truncating, &u_wrap));
}

/// Random wrap-free weighted sums: the true lift is proved while the
/// query is built and a perturbed kernel is refuted.
#[test]
fn prop_linear_path_correct() {
    let mut rng = Rng::seed_from_u64(0xc505);
    for _ in 0..24 {
        let k: Vec<i64> = (0..rng.gen_range_usize(2..=4)).map(|_| rng.gen_range(1..=7)).collect();
        let perturb = rng.gen_range_usize(0..=3);
        let mut h: Option<Expr> = None;
        for (i, &w) in k.iter().enumerate() {
            let t = widen(load("in", U8, i as i32, 0));
            let term = if w == 1 { t } else { mul(t, bcast(w, U16)) };
            h = Some(match h {
                None => term,
                Some(a) => add(a, term),
            });
        }
        let h = h.expect("non-empty");
        let u = UberExpr::conv("in", U8, 0, 0, &k, U16);
        assert!(decided_while_built(&h, &u), "kernel {k:?}");

        let mut k2 = k.clone();
        let idx = perturb % k2.len();
        k2[idx] += 1;
        let u2 = UberExpr::conv("in", U8, 0, 0, &k2, U16);
        assert!(refuted(&h, &u2), "kernel {k:?} vs {k2:?}");
    }
}

// ---- Query shapes that used to exhaust the conflict budget ------------

/// `u16(b) * u16(a)` against a one-pair `vv-mpy-add`, which is encoded as
/// a 22-bit product and then truncated to 16 bits.
#[test]
fn widening_product_against_vv_mpy_add() {
    let h = mul(widen(load("b", U8, 0, 0)), widen(load("a", U8, 0, 0)));
    let u = UberExpr::VvMpyAdd(VvMpyAdd {
        pairs: vec![(data("b", 0, 0), data("a", 0, 0))],
        saturating: false,
        out: U16,
    });
    assert!(decided_while_built(&h, &u));
}

/// The matmul reduction: four widening products of a vector cell and a
/// runtime scalar, summed, against one four-pair `vv-mpy-add`.
#[test]
fn matmul_sum_against_vv_mpy_add() {
    let prod = |k: i32| mul(widen(load("b", U8, 0, k)), widen(bcast_load("a", k, 0, U8)));
    let h = add(add(add(prod(0), prod(1)), prod(2)), prod(3));
    let scalar = |k: i32| UberExpr::Bcast {
        value: ScalarOperand::Load { buffer: "a".into(), x: k, dy: 0 },
        ty: U8,
    };
    let u = UberExpr::VvMpyAdd(VvMpyAdd {
        pairs: (0..4).map(|k| (data("b", 0, k), scalar(k))).collect(),
        saturating: false,
        out: U16,
    });
    assert!(decided_while_built(&h, &u));
}

/// One `[1, 2, 1]` row of `input` at `dy`, widened to u16.
fn row121(dy: i32) -> Expr {
    let w = |dx| widen(load("input", U8, dx, dy));
    add(add(w(-1), mul(w(0), bcast(2, U16))), w(1))
}

fn row121_uber(dy: i32) -> (Vec<UberExpr>, Vec<i64>) {
    ((-1..=1).map(|dx| data("input", dx, dy)).collect(), vec![1, 2, 1])
}

/// gaussian3x3: a truncating `u8((sum + 8) >> 4)` against the saturating
/// rounding narrow. The clamp is dead because the sum's range fits.
#[test]
fn gaussian3x3_saturating_narrow() {
    let sum = add(add(row121(-1), mul(row121(0), bcast(2, U16))), row121(1));
    let h = cast(U8, shr(add(sum, bcast(8, U16)), 4));
    let (mut inputs, mut kernel) = (Vec::new(), Vec::new());
    for (dy, scale) in [(-1, 1), (0, 2), (1, 1)] {
        let (i, k) = row121_uber(dy);
        inputs.extend(i);
        kernel.extend(k.iter().map(|w| w * scale));
    }
    let u = UberExpr::Narrow {
        arg: Box::new(vs_mpy_add(inputs, &kernel)),
        shift: 4,
        round: true,
        saturating: true,
        out: U8,
    };
    assert!(decided_while_built(&h, &u));
}

/// Two rounding averages, written as Halide lowers them, under one
/// `vs-mpy-add`: the 10-bit average datapath against the 16-bit one.
#[test]
fn rounding_averages_under_vs_mpy_add() {
    let p = |dx, dy| load("input", U8, dx, dy);
    let avg = |a: Expr, b: Expr| cast(U8, shr(add(add(widen(a), widen(b)), bcast(1, U16)), 1));
    let h = add(widen(avg(p(0, 0), p(1, 0))), mul(widen(avg(p(0, 1), p(1, 1))), bcast(3, U16)));
    let uavg = |dy| UberExpr::Average {
        a: Box::new(data("input", 0, dy)),
        b: Box::new(data("input", 1, dy)),
        round: true,
    };
    let u = vs_mpy_add(vec![uavg(0), uavg(1)], &[1, 3]);
    assert!(decided_while_built(&h, &u));
}

/// sobel: the absolute difference of two `[1, 2, 1]` rows against an
/// `absd` of two `vs-mpy-add`s.
#[test]
fn sobel_absd_of_two_vs_mpy_adds() {
    let h = absd(row121(-1), row121(1));
    let side = |dy| {
        let (inputs, kernel) = row121_uber(dy);
        Box::new(vs_mpy_add(inputs, &kernel))
    };
    let u = UberExpr::AbsDiff(side(-1), side(1));
    assert!(decided_while_built(&h, &u));
}

/// gaussian5x5: a 25-term weighted sum built as five weighted rows against
/// one 25-input `vs-mpy-add` with the outer-product kernel.
#[test]
fn big_gaussian_column_decides_instantly() {
    let taps: [i64; 5] = [1, 4, 6, 4, 1];
    let weighted_sum = |terms: Vec<Expr>| {
        let mut acc: Option<Expr> = None;
        for (term, &t) in terms.into_iter().zip(&taps) {
            let term = if t == 1 { term } else { mul(term, bcast(t, U16)) };
            acc = Some(match acc {
                None => term,
                Some(a) => add(a, term),
            });
        }
        acc.expect("five taps")
    };
    let row = |dy: i32| weighted_sum((-2..=2).map(|dx| widen(load("in", U8, dx, dy))).collect());
    let h = weighted_sum((-2..=2).map(row).collect());
    let (mut inputs, mut kernel) = (Vec::new(), Vec::new());
    for (dy, &ty) in (-2..=2).zip(&taps) {
        for (dx, &tx) in (-2..=2).zip(&taps) {
            inputs.push(data("in", dx, dy));
            kernel.push(tx * ty);
        }
    }
    assert!(decided_while_built(&h, &vs_mpy_add(inputs, &kernel)));
}

/// A fuzz-corpus product: `(w(2,-1) >> 12) * w(-2,0)` over i16 against a
/// one-pair `vv-mpy-add` whose first operand is the saturating narrow of
/// `w(2,-1)`. The shifted value lies in [-8, 7], so that narrow's clamp is
/// dead; only a signed interval shows it, since the value straddles zero.
#[test]
fn signed_narrow_under_vv_mpy_add() {
    let h = mul(shr(load("w", I16, 2, -1), 12), load("w", I16, -2, 0));
    let cell = |dx, dy| UberExpr::Data(Load { buffer: "w".into(), dx, dy, ty: I16 });
    let narrow = UberExpr::Narrow {
        arg: Box::new(cell(2, -1)),
        shift: 12,
        round: false,
        saturating: true,
        out: I16,
    };
    let u = UberExpr::VvMpyAdd(VvMpyAdd {
        pairs: vec![(narrow, cell(-2, 0))],
        saturating: false,
        out: I16,
    });
    assert!(decided_while_built(&h, &u));
}

/// gaussian7x7 with its rescale split into two shifts: three
/// `((row + 8) >> 1) >> 3` rows weighted `[1, 6, 15]` against a
/// `vs-mpy-add` of three `narrow[shift 4]` rows. One row alone blasts to
/// identical wiring on both sides; under the outer sum the shift chain
/// must merge for the two sides' atoms to be one term.
#[test]
fn split_shift_rows_under_vs_mpy_add() {
    let taps: [i64; 7] = [1, 6, 15, 20, 15, 6, 1];
    let row = |dy: i32| {
        let mut acc: Option<Expr> = None;
        for (dx, &t) in (-3..=3).zip(&taps) {
            let w = widen(load("input", U8, dx, dy));
            let term = if t == 1 { w } else { mul(w, bcast(t, U16)) };
            acc = Some(match acc {
                None => term,
                Some(a) => add(a, term),
            });
        }
        shr(shr(add(acc.expect("seven taps"), bcast(8, U16)), 1), 3)
    };
    let h = add(add(row(-3), mul(row(-2), bcast(6, U16))), mul(row(-1), bcast(15, U16)));
    let row_uber = |dy: i32| {
        let mut inputs: Vec<UberExpr> = (-3..=3).map(|dx| data("input", dx, dy)).collect();
        inputs.push(UberExpr::Bcast { value: ScalarOperand::Imm(8), ty: U16 });
        let mut kernel = taps.to_vec();
        kernel.push(1);
        UberExpr::Narrow {
            arg: Box::new(vs_mpy_add(inputs, &kernel)),
            shift: 4,
            round: false,
            saturating: true,
            out: U16,
        }
    };
    let u = vs_mpy_add((-3..=-1).map(row_uber).collect(), &[1, 6, 15]);
    assert!(decided_while_built(&h, &u));
}

fn visit_uber(u: &UberExpr, f: &mut impl FnMut(&UberExpr)) {
    f(u);
    for c in u.children() {
        visit_uber(c, f);
    }
}

/// `eval_with` and `eval_uber_with`, fed by recursive evaluation of the
/// children, equal `eval` and `eval_uber` at every node of generated
/// expressions and of their liftings, at 1, 16 and 128 lanes. The
/// verifier's memoized screen, which steps every node that reads no
/// buffer once over a whole family's lanes, accepts each lifting exactly
/// as the recursive interpreters do.
#[test]
fn prop_node_steps_match_the_recursive_interpreters() {
    let cfg = oracle::GenConfig::default();
    let spec: synth::envs::BufferSpec = cfg.buffers.iter().cloned().collect();
    let mut rng = Rng::seed_from_u64(0x57e9);
    let mut lifted = 0;
    for _ in 0..16 {
        let e = oracle::gen_expr(&mut rng, &cfg);
        // Lifted by the recursive interpreters, so the memoized screen
        // below is checked against liftings it did not choose.
        let plain = Verifier { memoize: false, ..v() };
        let u = synth::lift_expr(&e, &plain, &mut synth::SynthStats::default()).map(|(u, _)| u);
        lifted += usize::from(u.is_some());
        if let Some(u) = &u {
            assert_eq!(uber_ir::sexpr::parse(&uber_ir::sexpr::to_sexpr(u)).as_ref(), Ok(u));
        }
        for lanes in [1, 16, 128] {
            for env in synth::envs::test_envs(&spec, lanes + 64, 17, 3) {
                let ctx = EvalCtx { env: &env, x0: 32, y0: 8, lanes };
                halide_ir::analysis::visit(&e, &mut |n| {
                    let step = halide_ir::eval_with(n, &ctx, |c| halide_ir::eval(c, &ctx));
                    assert_eq!(step, halide_ir::eval(n, &ctx), "{n} at {lanes} lanes");
                });
                if let Some(u) = &u {
                    visit_uber(u, &mut |n| {
                        let step =
                            uber_ir::eval_uber_with(n, &ctx, |c| uber_ir::eval_uber(c, &ctx));
                        assert_eq!(step, uber_ir::eval_uber(n, &ctx), "{n} at {lanes} lanes");
                    });
                }
            }
            if let Some(u) = &u {
                let verdicts = [true, false].map(|memoize| {
                    let screen =
                        Verifier { memoize, use_smt: false, lanes, alt_lanes: lanes, ..v() };
                    screen.equiv_halide_uber(&e, u)
                });
                assert_eq!(verdicts, [true, true], "memoized, unmemoized: {e} at {lanes} lanes");
            }
        }
    }
    assert!(lifted >= 4, "only {lifted} of 16 generated expressions lifted");
}

/// A lifting candidate that agrees with the Halide side in lane 0 of every
/// test environment, and differs in a later lane, is rejected with the
/// value memo on and off: the full-width comparison decides it alone.
#[test]
fn lane_zero_agreement_does_not_admit_a_later_lane_mismatch() {
    // Lane 0 of both `a` windows clamps to the buffer's first column; from
    // lane 1 on the candidate's window lags one column behind.
    let h = absd(load("a", U8, -32, 0), load("b", U8, 0, 0));
    let lagging = UberExpr::AbsDiff(Box::new(data("a", -33, 0)), Box::new(data("b", 0, 0)));
    let exact = UberExpr::AbsDiff(Box::new(data("a", -32, 0)), Box::new(data("b", 0, 0)));
    let differential = Verifier { use_smt: false, ..v() };
    let lane0 = Verifier { lanes: 1, alt_lanes: 1, ..differential.clone() };
    assert!(lane0.equiv_halide_uber(&h, &lagging), "lane 0 must agree in every environment");
    for memoize in [true, false] {
        let ver = Verifier { memoize, ..differential.clone() };
        assert!(!ver.equiv_halide_uber(&h, &lagging), "memoize: {memoize}");
        assert!(ver.equiv_halide_uber(&h, &exact), "memoize: {memoize}");
    }
}

/// Candidates whose evaluation fails are rejected with the value memo on
/// and off, and a repeat query reads the stored failure the same way.
#[test]
fn candidates_that_fail_to_evaluate_are_rejected() {
    // The candidate reads `a` as u16, the Halide side as u8: the test
    // environments hold one type, so one side's load fails.
    let h = widen(load("a", U8, 0, 0));
    let mistyped = UberExpr::Data(Load { buffer: "a".into(), dx: 0, dy: 0, ty: U16 });
    // A lowering candidate whose multiply scalar reads a buffer no load
    // names: the test environments do not hold it.
    let u = UberExpr::conv("a", U8, 0, 0, &[2], U16);
    let mpy = |scalar| {
        HvxExpr::op(Op::VmpyScalar { elem: U8, scalar }, vec![HvxExpr::vmem("a", U8, 0, 0)])
    };
    let unknown = mpy(ScalarOperand::Load { buffer: "k".into(), x: 0, dy: 0 });
    let imm = mpy(ScalarOperand::Imm(2));
    for memoize in [true, false] {
        let ver = Verifier { memoize, ..v() };
        for _ in 0..2 {
            assert!(!ver.equiv_halide_uber(&h, &mistyped), "memoize: {memoize}");
            assert!(!ver.equiv_uber_hvx(&u, &unknown, true), "memoize: {memoize}");
            assert!(ver.equiv_uber_hvx(&u, &imm, true), "memoize: {memoize}");
        }
    }
}

/// One instance of every `hvx::Op` variant, with each flag combination,
/// both scalar forms and non-zero parameters.
fn every_op() -> Vec<Op> {
    let w = ScalarOperand::Load { buffer: "w".into(), x: 3, dy: -2 };
    let mut ops = vec![
        Op::Vmem { buffer: "a".into(), dx: -1, dy: 2, elem: U8 },
        Op::Vsplat { value: ScalarOperand::Imm(-7), elem: I16 },
        Op::Vsplat { value: w.clone(), elem: U8 },
        Op::Vnavg { elem: U8 },
        Op::Vabsdiff { elem: U16 },
        Op::Vmax { elem: I16 },
        Op::Vmin { elem: I8 },
        Op::Vand,
        Op::Vor,
        Op::Vxor,
        Op::Vnot,
        Op::Vasl { elem: U16, shift: 3 },
        Op::Vasr { elem: I16, shift: 5 },
        Op::Vlsr { elem: U16, shift: 7 },
        Op::Vmpy { elem: U8 },
        Op::Vmpyie,
        Op::Vmpyio,
        Op::Vmpa { elem: U8, w0: 2, w1: -3 },
        Op::VmpaAcc { elem: U8, w0: -4, w1: 5 },
        Op::Vtmpy { elem: U8, w0: 1, w1: 2 },
        Op::VtmpyAcc { elem: I8, w0: 3, w1: -1 },
        Op::Vdmpy { elem: U8, w0: 6, w1: 7 },
        Op::VdmpyAcc { elem: U8, w0: -6, w1: 8 },
        Op::Vrmpy { elem: U8, w: [1, -2, 3, -4] },
        Op::VrmpyAcc { elem: U8, w: [5, 6, -7, 8] },
        Op::Vcombine,
        Op::Lo,
        Op::Hi,
        Op::VshuffPair { elem: U16 },
        Op::VdealPair { elem: U8 },
        Op::Valign { bytes: 3 },
        Op::Vror { bytes: 5 },
        Op::Vzxt { elem: U8 },
        Op::Vsxt { elem: I8 },
    ];
    for scalar in [ScalarOperand::Imm(-3), w] {
        ops.extend([
            Op::VmpyScalar { elem: U8, scalar: scalar.clone() },
            Op::VmpyAcc { elem: U8, scalar: scalar.clone() },
            Op::Vmpyi { elem: I16, scalar: scalar.clone() },
            Op::VmpyiAcc { elem: I16, scalar },
        ]);
    }
    for flag in [false, true] {
        ops.extend([
            Op::Vadd { elem: U8, sat: flag },
            Op::Vsub { elem: I16, sat: flag },
            Op::Vavg { elem: U16, round: flag },
            Op::Vpack { elem: U16, sat: flag, out: U8 },
        ]);
        for sat in [false, true] {
            ops.push(Op::VasrNarrow { elem: I16, shift: 4, round: flag, sat, out: U8 });
        }
    }
    // Naming every variant here makes a new one fail to compile until it
    // is listed above.
    for op in &ops {
        match op {
            Op::Vmem { .. }
            | Op::Vsplat { .. }
            | Op::Vadd { .. }
            | Op::Vsub { .. }
            | Op::Vavg { .. }
            | Op::Vnavg { .. }
            | Op::Vabsdiff { .. }
            | Op::Vmax { .. }
            | Op::Vmin { .. }
            | Op::Vand
            | Op::Vor
            | Op::Vxor
            | Op::Vnot
            | Op::Vasl { .. }
            | Op::Vasr { .. }
            | Op::Vlsr { .. }
            | Op::VasrNarrow { .. }
            | Op::Vmpy { .. }
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
            | Op::VrmpyAcc { .. }
            | Op::Vpack { .. }
            | Op::Vcombine
            | Op::Lo
            | Op::Hi
            | Op::VshuffPair { .. }
            | Op::VdealPair { .. }
            | Op::Valign { .. }
            | Op::Vror { .. }
            | Op::Vzxt { .. }
            | Op::Vsxt { .. } => {}
        }
    }
    ops
}

#[test]
fn every_hvx_op_roundtrips_through_its_sexpr() {
    for op in every_op() {
        let e = HvxExpr::op(op.clone(), vec![HvxExpr::vmem("b", U8, 1, 0); op.arity()]);
        let text = hvx::sexpr::to_sexpr(&e);
        assert_eq!(hvx::sexpr::parse(&text).as_ref(), Ok(&e), "{text}");
    }
}

/// The coverage report's opcode catalog is exactly the set of mnemonics
/// the ISA model renders.
#[test]
fn opcode_catalog_matches_the_isa() {
    let rendered: BTreeSet<String> = every_op().iter().map(Op::mnemonic).collect();
    let catalog: BTreeSet<String> =
        synth::coverage::OPCODES.iter().map(|m| (*m).to_owned()).collect();
    assert_eq!(rendered, catalog);
}

/// The uber and HVX programs compiled for two suite workloads read back
/// as themselves.
#[test]
fn compiled_suite_programs_roundtrip_through_their_sexprs() {
    let rake = rake::Rake::new(rake::Target::hvx_small(16));
    for name in ["median", "gaussian7x7"] {
        for e in workloads::by_name(name).expect("a suite workload").exprs {
            let c = rake.compile(&e).unwrap_or_else(|err| panic!("{name}: {err:?}"));
            let uber = uber_ir::sexpr::to_sexpr(&c.uber);
            assert_eq!(uber_ir::sexpr::parse(&uber).as_ref(), Ok(&c.uber), "{uber}");
            let hvx = hvx::sexpr::to_sexpr(&c.hvx);
            assert_eq!(hvx::sexpr::parse(&hvx).as_ref(), Ok(&c.hvx), "{hvx}");
        }
    }
}

/// Each IR's reader locates an unknown head, a bad element type and a bad
/// integer at the start of that token.
#[test]
fn every_reader_locates_errors_at_the_offending_token() {
    type ErrorOffset = fn(&str) -> Option<usize>;
    let readers: [(&str, ErrorOffset); 3] = [
        ("load", |t| halide_ir::sexpr::parse(t).err().map(|e| e.offset)),
        ("data", |t| uber_ir::sexpr::parse(t).err().map(|e| e.offset)),
        ("vmem", |t| hvx::sexpr::parse(t).err().map(|e| e.offset)),
    ];
    for (load, parse) in readers {
        for (text, token) in [
            ("(frob 1)".to_owned(), "frob"),
            (format!("({load} a u9 0 0)"), "u9"),
            (format!("({load} a u8 1x 0)"), "1x"),
        ] {
            assert_eq!(parse(&text), text.find(token), "{text}");
        }
    }
}

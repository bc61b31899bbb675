//! Unit tests for instruction semantics not covered by the property tests:
//! reductions, accumulating forms, bitwise and rotate ops, and error paths.

use halide_ir::{Buffer2D, Env, ScalarOperand};
use lanes::{ElemType, Vector};

use crate::exec::{eval_op, ExecCtx, ExecError};
use crate::ops::Op;
use crate::reg::{Value, VecReg};

fn ctx(env: &Env, lanes: usize) -> ExecCtx<'_> {
    ExecCtx { env, x0: 0, y0: 0, lanes, vec_bytes: lanes }
}

fn v8(data: &[i64]) -> Value {
    Value::Vec(VecReg::from_lanes(&Vector::new_wrapped(ElemType::U8, data.iter().copied())))
}

fn v16(data: &[i64]) -> Value {
    Value::Vec(VecReg::from_lanes(&Vector::new_wrapped(ElemType::I16, data.iter().copied())))
}

fn lanes_of(v: &Value, ty: ElemType) -> Vec<i64> {
    v.typed_lanes(ty).as_slice().to_vec()
}

#[test]
fn vdmpy_pairwise_reduce() {
    let env = Env::new();
    let a = v8(&[1, 2, 3, 4, 5, 6, 7, 8]);
    let out = eval_op(
        &Op::Vdmpy { elem: ElemType::U8, w0: 2, w1: 3 },
        &[a],
        &ctx(&env, 8),
    )
    .expect("vdmpy");
    // out[i] = a[2i]*2 + a[2i+1]*3
    assert_eq!(lanes_of(&out, ElemType::U16), vec![2 + 2 * 3, 3 * 2 + 4 * 3, 5 * 2 + 6 * 3, 7 * 2 + 8 * 3]);
}

#[test]
fn vdmpy_acc_accumulates() {
    let env = Env::new();
    let a = v8(&[1, 1, 1, 1, 2, 2, 2, 2]);
    let acc = Value::Vec(VecReg::from_lanes(&Vector::new(
        ElemType::U16,
        vec![100, 200, 300, 400],
    )));
    let out = eval_op(
        &Op::VdmpyAcc { elem: ElemType::U8, w0: 1, w1: 1 },
        &[acc, a],
        &ctx(&env, 8),
    )
    .expect("vdmpy-acc");
    assert_eq!(lanes_of(&out, ElemType::U16), vec![102, 202, 304, 404]);
}

#[test]
fn vrmpy_four_way_reduce() {
    let env = Env::new();
    let a = v8(&[1, 2, 3, 4, 10, 20, 30, 40]);
    let out = eval_op(
        &Op::Vrmpy { elem: ElemType::U8, w: [1, -1, 2, -2] },
        &[a],
        &ctx(&env, 8),
    )
    .expect("vrmpy");
    // out[0] = 1 - 2 + 6 - 8 = -3; out[1] = 10 - 20 + 60 - 80 = -30.
    assert_eq!(lanes_of(&out, ElemType::I32), vec![-3, -30]);
}

#[test]
fn vrmpy_acc_and_byte_requirement() {
    let env = Env::new();
    let a = v8(&[1, 1, 1, 1, 1, 1, 1, 1]);
    let acc =
        Value::Vec(VecReg::from_lanes(&Vector::new(ElemType::I32, vec![5, -5])));
    let out = eval_op(
        &Op::VrmpyAcc { elem: ElemType::U8, w: [1, 1, 1, 1] },
        &[acc, a],
        &ctx(&env, 8),
    )
    .expect("vrmpy-acc");
    assert_eq!(lanes_of(&out, ElemType::I32), vec![9, -1]);

    let wide = v16(&[1, 2, 3, 4]);
    let err = eval_op(&Op::Vrmpy { elem: ElemType::I16, w: [1, 1, 1, 1] }, &[wide], &ctx(&env, 4))
        .unwrap_err();
    assert!(matches!(err, ExecError::BadOperand { .. }));
}

#[test]
fn vtmpy_acc_adds_window() {
    let env = Env::new();
    let a = v8(&[1, 2, 3, 4]);
    let b = v8(&[5, 6, 7, 8]);
    let plain = eval_op(
        &Op::Vtmpy { elem: ElemType::U8, w0: 1, w1: 1 },
        &[a.clone(), b.clone()],
        &ctx(&env, 4),
    )
    .expect("vtmpy");
    let acc = eval_op(
        &Op::VtmpyAcc { elem: ElemType::U8, w0: 1, w1: 1 },
        &[plain.clone(), a, b],
        &ctx(&env, 4),
    )
    .expect("vtmpy-acc");
    let (p, q) = (plain.typed_lanes(ElemType::U16), acc.typed_lanes(ElemType::U16));
    for i in 0..p.lanes() {
        assert_eq!(q.get(i), p.get(i) * 2, "lane {i}");
    }
}

#[test]
fn vnavg_and_vlsr() {
    let env = Env::new();
    let a = v16(&[10, -10, 300, 7]);
    let b = v16(&[4, 6, 100, 7]);
    let out = eval_op(&Op::Vnavg { elem: ElemType::I16 }, &[a.clone(), b], &ctx(&env, 4))
        .expect("vnavg");
    assert_eq!(lanes_of(&out, ElemType::I16), vec![3, -8, 100, 0]);

    let out = eval_op(&Op::Vlsr { elem: ElemType::I16, shift: 4 }, &[a], &ctx(&env, 4))
        .expect("vlsr");
    // Logical shift on the bit pattern: -10 as u16 = 0xfff6 >> 4 = 0x0fff.
    assert_eq!(lanes_of(&out, ElemType::I16), vec![0, 0x0fff, 300 >> 4, 0]);
}

#[test]
fn bitwise_ops() {
    let env = Env::new();
    let a = v8(&[0b1100, 0b1010, 0xff, 0]);
    let b = v8(&[0b1010, 0b0110, 0x0f, 0xff]);
    let and = eval_op(&Op::Vand, &[a.clone(), b.clone()], &ctx(&env, 4)).expect("vand");
    assert_eq!(lanes_of(&and, ElemType::U8), vec![0b1000, 0b0010, 0x0f, 0]);
    let or = eval_op(&Op::Vor, &[a.clone(), b.clone()], &ctx(&env, 4)).expect("vor");
    assert_eq!(lanes_of(&or, ElemType::U8), vec![0b1110, 0b1110, 0xff, 0xff]);
    let xor = eval_op(&Op::Vxor, &[a.clone(), b], &ctx(&env, 4)).expect("vxor");
    assert_eq!(lanes_of(&xor, ElemType::U8), vec![0b0110, 0b1100, 0xf0, 0xff]);
    let not = eval_op(&Op::Vnot, &[a], &ctx(&env, 4)).expect("vnot");
    assert_eq!(lanes_of(&not, ElemType::U8), vec![0xf3, 0xf5, 0, 0xff]);
}

#[test]
fn vmpyi_and_acc() {
    let env = Env::new();
    let a = v16(&[5, -5, 100, 0]);
    let m = eval_op(
        &Op::Vmpyi { elem: ElemType::I16, scalar: ScalarOperand::Imm(-3) },
        std::slice::from_ref(&a),
        &ctx(&env, 4),
    )
    .expect("vmpyi");
    assert_eq!(lanes_of(&m, ElemType::I16), vec![-15, 15, -300, 0]);
    let acc = eval_op(
        &Op::VmpyiAcc { elem: ElemType::I16, scalar: ScalarOperand::Imm(2) },
        &[m, a],
        &ctx(&env, 4),
    )
    .expect("vmpyi-acc");
    assert_eq!(lanes_of(&acc, ElemType::I16), vec![-5, 5, -100, 0]);
}

#[test]
fn vror_rotates_register_bytes() {
    let env = Env::new();
    let a = v8(&[1, 2, 3, 4]);
    let out = eval_op(&Op::Vror { bytes: 1 }, &[a], &ctx(&env, 4)).expect("vror");
    assert_eq!(lanes_of(&out, ElemType::U8), vec![2, 3, 4, 1]);
}

#[test]
fn runtime_scalar_loads_resolve_per_row() {
    let mut env = Env::new();
    env.insert(Buffer2D::from_fn("w", ElemType::U8, 4, 4, |x, y| (10 * y + x) as i64));
    let a = v8(&[1, 1, 1, 1]);
    let op = Op::VmpyScalar {
        elem: ElemType::U8,
        scalar: ScalarOperand::Load { buffer: "w".into(), x: 2, dy: 1 },
    };
    // y0 = 2 -> reads w(2, 3) = 32.
    let c = ExecCtx { env: &env, x0: 0, y0: 2, lanes: 4, vec_bytes: 4 };
    let out = eval_op(&op, &[a], &c).expect("vmpy with runtime scalar");
    assert_eq!(out.typed_lanes(ElemType::U16).get(0), 32);
}

#[test]
fn arity_and_shape_errors() {
    let env = Env::new();
    let a = v8(&[1, 2, 3, 4]);
    let err = eval_op(&Op::Vnot, &[], &ctx(&env, 4)).unwrap_err();
    assert!(matches!(err, ExecError::Arity { .. }));

    let err = eval_op(&Op::Lo, std::slice::from_ref(&a), &ctx(&env, 4)).unwrap_err();
    assert!(matches!(err, ExecError::Shape { .. }));
    assert!(!err.to_string().is_empty());

    let short = v8(&[1, 2]);
    let err = eval_op(&Op::Vadd { elem: ElemType::U8, sat: false }, &[a, short], &ctx(&env, 4))
        .unwrap_err();
    assert!(matches!(err, ExecError::Shape { .. }));
}

#[test]
fn missing_buffer_and_bad_shift() {
    let env = Env::new();
    let err = eval_op(
        &Op::Vmem { buffer: "nope".into(), dx: 0, dy: 0, elem: ElemType::U8 },
        &[],
        &ctx(&env, 4),
    )
    .unwrap_err();
    assert!(matches!(err, ExecError::Buffer(_)));

    let a = v8(&[1, 2, 3, 4]);
    let err =
        eval_op(&Op::Vasl { elem: ElemType::U8, shift: 8 }, &[a], &ctx(&env, 4)).unwrap_err();
    assert!(matches!(err, ExecError::BadOperand { .. }));
}

#[test]
fn valign_offset_validated() {
    let env = Env::new();
    let a = v8(&[1, 2, 3, 4]);
    let b = v8(&[5, 6, 7, 8]);
    let err = eval_op(&Op::Valign { bytes: 5 }, &[a, b], &ctx(&env, 4)).unwrap_err();
    assert!(matches!(err, ExecError::BadOperand { .. }));
}

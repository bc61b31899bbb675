//! Property tests over the instruction semantics: the algebraic
//! identities the synthesis engine's correctness leans on.

use halide_ir::{Buffer2D, Env, ScalarOperand};
use lanes::rng::Rng;
use lanes::{ElemType, Vector};

use crate::exec::{eval_op, ExecCtx};
use crate::ops::Op;
use crate::reg::{Value, VecReg};

fn env_with(name: &str, ty: ElemType, data: &[i64]) -> Env {
    let mut env = Env::new();
    env.insert(Buffer2D::from_fn(name, ty, data.len(), 1, |x, _| data[x]));
    env
}

fn ctx<'a>(env: &'a Env, lanes: usize) -> ExecCtx<'a> {
    ExecCtx { env, x0: 0, y0: 0, lanes, vec_bytes: lanes }
}

fn vec_of(ty: ElemType, data: &[i64]) -> Value {
    Value::Vec(VecReg::from_lanes(&Vector::new_wrapped(ty, data.iter().copied())))
}

fn bytes(rng: &mut Rng, n: usize) -> Vec<i64> {
    (0..n).map(|_| rng.gen_range(0..=255)).collect()
}

/// Interleave then deinterleave of a pair is the identity, at any
/// element granularity.
#[test]
fn prop_shuff_deal_roundtrip() {
    let mut rng = Rng::seed_from_u64(0x5dea1);
    for _ in 0..64 {
        let data = bytes(&mut rng, 8);
        let env = Env::new();
        let c = ctx(&env, 8);
        let pair = Value::Pair(
            VecReg::from_lanes(&Vector::new(ElemType::U8, data[..4].to_vec())),
            VecReg::from_lanes(&Vector::new(ElemType::U8, data[4..].to_vec())),
        );
        for elem in [ElemType::U8, ElemType::U16] {
            let shuffled =
                eval_op(&Op::VshuffPair { elem }, std::slice::from_ref(&pair), &c).expect("shuff");
            let back = eval_op(&Op::VdealPair { elem }, &[shuffled], &c).expect("deal");
            assert_eq!(&back, &pair);
        }
    }
}

/// The widening multiply's deinterleaved pair holds exactly the
/// products, with even lanes in `lo`.
#[test]
fn prop_vmpy_deinterleaves() {
    let mut rng = Rng::seed_from_u64(0x33d1);
    for _ in 0..64 {
        let a = bytes(&mut rng, 8);
        let b = bytes(&mut rng, 8);
        let env = Env::new();
        let c = ctx(&env, 8);
        let out = eval_op(
            &Op::Vmpy { elem: ElemType::U8 },
            &[vec_of(ElemType::U8, &a), vec_of(ElemType::U8, &b)],
            &c,
        )
        .expect("vmpy");
        let (lo, hi) = out.as_pair().expect("pair");
        let (llo, lhi) = (lo.typed_lanes(ElemType::U16), hi.typed_lanes(ElemType::U16));
        for i in 0..8usize {
            let expect = a[i] * b[i];
            let got = if i % 2 == 0 { llo.get(i / 2) } else { lhi.get(i / 2) };
            assert_eq!(got, expect, "lane {i}");
        }
    }
}

/// valign reads the byte window of the concatenation.
#[test]
fn prop_valign_window() {
    let mut rng = Rng::seed_from_u64(0xa116);
    for _ in 0..64 {
        let data = bytes(&mut rng, 16);
        let n = rng.gen_range_usize(0..=7) as u32;
        let env = Env::new();
        let c = ctx(&env, 8);
        let a = vec_of(ElemType::U8, &data[8..]);
        let b = vec_of(ElemType::U8, &data[..8]);
        let out = eval_op(&Op::Valign { bytes: n }, &[a, b], &c).expect("valign");
        let lanes = out.typed_lanes(ElemType::U8);
        for i in 0..8usize {
            assert_eq!(lanes.get(i), data[i + n as usize]);
        }
    }
}

/// vmpa == two vmpy-by-scalar added lane-wise (the uber-instruction
/// unification the paper's §6 describes).
#[test]
fn prop_vmpa_is_sum_of_scalar_multiplies() {
    let mut rng = Rng::seed_from_u64(0x33a2);
    for _ in 0..64 {
        let a = bytes(&mut rng, 8);
        let b = bytes(&mut rng, 8);
        let w0 = rng.gen_range(-4..=4);
        let w1 = rng.gen_range(-4..=4);
        let env = Env::new();
        let c = ctx(&env, 8);
        let va = vec_of(ElemType::U8, &a);
        let vb = vec_of(ElemType::U8, &b);
        let mpa = eval_op(&Op::Vmpa { elem: ElemType::U8, w0, w1 }, &[va.clone(), vb.clone()], &c)
            .expect("vmpa");
        // Reference: products at full precision, deinterleaved.
        let (lo, hi) = mpa.as_pair().expect("pair");
        let (llo, lhi) = (lo.typed_lanes(ElemType::U16), hi.typed_lanes(ElemType::U16));
        for i in 0..8usize {
            let expect = ElemType::U16.wrap(a[i] * w0 + b[i] * w1);
            let got = if i % 2 == 0 { llo.get(i / 2) } else { lhi.get(i / 2) };
            assert_eq!(got, expect, "lane {i}");
        }
    }
}

/// The fused narrowing shift applied to the two halves of a widening
/// op's pair restores natural order: narrow(widen(x)) == x >> 0.
#[test]
fn prop_narrow_of_widen_is_identity() {
    let mut rng = Rng::seed_from_u64(0x1de1);
    for _ in 0..64 {
        let data = bytes(&mut rng, 8);
        let env = env_with("in", ElemType::U8, &data);
        let c = ctx(&env, 8);
        let loaded = eval_op(
            &Op::Vmem { buffer: "in".into(), dx: 0, dy: 0, elem: ElemType::U8 },
            &[],
            &c,
        )
        .expect("load");
        let wide = eval_op(&Op::Vzxt { elem: ElemType::U8 }, std::slice::from_ref(&loaded), &c)
            .expect("zxt");
        let (lo, hi) = wide.as_pair().expect("pair");
        let packed = eval_op(
            &Op::Vpack { elem: ElemType::U16, sat: false, out: ElemType::U8 },
            &[Value::Vec(hi.clone()), Value::Vec(lo.clone())],
            &c,
        )
        .expect("pack");
        assert_eq!(packed, loaded);
    }
}

/// Saturating pack clamps; truncating pack wraps.
#[test]
fn prop_pack_sat_vs_trunc() {
    let mut rng = Rng::seed_from_u64(0x9acc);
    for _ in 0..64 {
        let data: Vec<i64> = (0..8).map(|_| rng.gen_range(-32768..=32767)).collect();
        let env = Env::new();
        let c = ctx(&env, 8);
        let half = |r: &[i64]| vec_of(ElemType::I16, r);
        let (lo, hi) = (half(&data[..4]), half(&data[4..]));
        // Build natural order from the deinterleaved convention:
        // out[2i] = f(even_src[i] = lo), out[2i+1] = f(odd_src[i] = hi).
        let sat = eval_op(
            &Op::Vpack { elem: ElemType::I16, sat: true, out: ElemType::U8 },
            &[hi.clone(), lo.clone()],
            &c,
        )
        .expect("sat pack");
        let trunc = eval_op(
            &Op::Vpack { elem: ElemType::I16, sat: false, out: ElemType::U8 },
            &[hi, lo],
            &c,
        )
        .expect("trunc pack");
        let (s, t) = (sat.typed_lanes(ElemType::U8), trunc.typed_lanes(ElemType::U8));
        for i in 0..8usize {
            let src = if i % 2 == 0 { data[i / 2] } else { data[4 + i / 2] };
            assert_eq!(s.get(i), ElemType::U8.saturate(src));
            assert_eq!(t.get(i), ElemType::U8.wrap(src));
        }
    }
}

/// Scalar-multiply operands out of the dual signed/unsigned range are
/// rejected rather than silently wrapped.
#[test]
fn prop_scalar_range_validated() {
    let mut rng = Rng::seed_from_u64(0x5ca1);
    for _ in 0..64 {
        let v = rng.gen_range(-70000..=69999);
        let env = Env::new();
        let c = ctx(&env, 8);
        let x = vec_of(ElemType::U8, &[1, 2, 3, 4, 5, 6, 7, 8]);
        let r = eval_op(
            &Op::VmpyScalar { elem: ElemType::U8, scalar: ScalarOperand::Imm(v) },
            &[x],
            &c,
        );
        let in_range = (ElemType::I8.min_value()..=ElemType::U8.max_value()).contains(&v);
        assert_eq!(r.is_ok(), in_range, "scalar {v}");
    }
}

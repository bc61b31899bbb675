//! Soundness of the word-level normalizer: random trees over every
//! [`Context`] constructor, built through the normalizing constructors,
//! must evaluate exactly like a reference evaluator run over the tree as
//! written, and every interned subterm's value must lie in its unsigned
//! and its signed interval.

use std::collections::HashMap;
use std::time::{Duration, Instant};

use lanes::rng::Rng;

use crate::term::{Context, Node, TermId};

const WIDTHS: [u32; 7] = [1, 3, 8, 13, 16, 32, 64];
/// Variables per width; few, so that atoms repeat and rewrites fire.
const VARS: usize = 2;

fn mask(w: u32) -> u64 {
    if w == 64 {
        u64::MAX
    } else {
        (1 << w) - 1
    }
}

fn sext(v: u64, w: u32) -> i64 {
    ((v << (64 - w)) as i64) >> (64 - w)
}

/// A term as written, before any normalization.
#[derive(Debug, Clone)]
enum Tree {
    Const(u64, u32),
    Var(usize, u32),
    Bin(Op, Box<Tree>, Box<Tree>),
    Not(Box<Tree>),
    Shift(Shift, Box<Tree>, u32),
    Ext { signed: bool, arg: Box<Tree>, extra: u32 },
    Extract(Box<Tree>, u32, u32),
    Concat(Box<Tree>, Box<Tree>),
    Ite(Box<Tree>, Box<Tree>, Box<Tree>),
    Sclamp(Box<Tree>, i64, i64),
}

#[derive(Debug, Clone, Copy)]
enum Op {
    Add,
    Sub,
    Mul,
    And,
    Or,
    Xor,
    Eq,
    Ult,
    Slt,
    Smin,
    Smax,
    Umin,
    Umax,
}

#[derive(Debug, Clone, Copy)]
enum Shift {
    Shl,
    Lshr,
    Ashr,
}

fn var_name(i: usize, w: u32) -> String {
    format!("v{w}_{i}")
}

impl Tree {
    fn width(&self) -> u32 {
        match self {
            Tree::Const(_, w) | Tree::Var(_, w) => *w,
            Tree::Bin(Op::Eq | Op::Ult | Op::Slt, ..) => 1,
            Tree::Bin(_, a, _) | Tree::Not(a) | Tree::Shift(_, a, _) | Tree::Sclamp(a, ..) => {
                a.width()
            }
            Tree::Ext { arg, extra, .. } => arg.width() + extra,
            Tree::Extract(_, hi, lo) => hi - lo + 1,
            Tree::Concat(h, l) => h.width() + l.width(),
            Tree::Ite(_, t, _) => t.width(),
        }
    }

    /// The reference semantics, straight from the SMT-LIB definitions.
    fn eval(&self, env: &HashMap<String, u64>) -> u64 {
        let w = self.width();
        let v = match self {
            Tree::Const(v, _) => *v,
            Tree::Var(i, w) => env[&var_name(*i, *w)],
            Tree::Bin(op, a, b) => {
                let aw = a.width();
                let (x, y) = (a.eval(env), b.eval(env));
                let (sx, sy) = (sext(x, aw), sext(y, aw));
                match op {
                    Op::Add => x.wrapping_add(y),
                    Op::Sub => x.wrapping_sub(y),
                    Op::Mul => x.wrapping_mul(y),
                    Op::And => x & y,
                    Op::Or => x | y,
                    Op::Xor => x ^ y,
                    Op::Eq => u64::from(x == y),
                    Op::Ult => u64::from(x < y),
                    Op::Slt => u64::from(sx < sy),
                    Op::Smin => {
                        if sx < sy {
                            x
                        } else {
                            y
                        }
                    }
                    Op::Smax => {
                        if sx < sy {
                            y
                        } else {
                            x
                        }
                    }
                    Op::Umin => x.min(y),
                    Op::Umax => x.max(y),
                }
            }
            Tree::Not(a) => !a.eval(env),
            Tree::Shift(kind, a, n) => {
                let x = a.eval(env);
                match kind {
                    Shift::Shl => x << n,
                    Shift::Lshr => x >> n,
                    Shift::Ashr => (sext(x, w) >> n) as u64,
                }
            }
            Tree::Ext { signed, arg, .. } => {
                let x = arg.eval(env);
                if *signed {
                    sext(x, arg.width()) as u64
                } else {
                    x
                }
            }
            Tree::Extract(a, _, lo) => a.eval(env) >> lo,
            Tree::Concat(h, l) => (h.eval(env) << l.width()) | l.eval(env),
            Tree::Ite(c, t, e) => {
                if c.eval(env) == 1 {
                    t.eval(env)
                } else {
                    e.eval(env)
                }
            }
            Tree::Sclamp(a, lo, hi) => {
                let x = sext(a.eval(env), w);
                x.clamp(*lo, *hi) as u64
            }
        };
        v & mask(w)
    }

    /// Build through the normalizing constructors.
    fn build(&self, ctx: &mut Context) -> TermId {
        match self {
            Tree::Const(v, w) => ctx.constant(*v, *w),
            Tree::Var(i, w) => ctx.var(&var_name(*i, *w), *w),
            Tree::Bin(op, a, b) => {
                let (a, b) = (a.build(ctx), b.build(ctx));
                match op {
                    Op::Add => ctx.add(a, b),
                    Op::Sub => ctx.sub(a, b),
                    Op::Mul => ctx.mul(a, b),
                    Op::And => ctx.and(a, b),
                    Op::Or => ctx.or(a, b),
                    Op::Xor => ctx.xor(a, b),
                    Op::Eq => ctx.eq(a, b),
                    Op::Ult => ctx.ult(a, b),
                    Op::Slt => ctx.slt(a, b),
                    Op::Smin => ctx.smin(a, b),
                    Op::Smax => ctx.smax(a, b),
                    Op::Umin => ctx.umin(a, b),
                    Op::Umax => ctx.umax(a, b),
                }
            }
            Tree::Not(a) => {
                let a = a.build(ctx);
                ctx.not(a)
            }
            Tree::Shift(kind, a, n) => {
                let a = a.build(ctx);
                match kind {
                    Shift::Shl => ctx.shl(a, *n),
                    Shift::Lshr => ctx.lshr(a, *n),
                    Shift::Ashr => ctx.ashr(a, *n),
                }
            }
            Tree::Ext { signed, arg, extra } => {
                let a = arg.build(ctx);
                if *signed {
                    ctx.sign_ext(a, *extra)
                } else {
                    ctx.zero_ext(a, *extra)
                }
            }
            Tree::Extract(a, hi, lo) => {
                let a = a.build(ctx);
                ctx.extract(a, *hi, *lo)
            }
            Tree::Concat(h, l) => {
                let (h, l) = (h.build(ctx), l.build(ctx));
                ctx.concat(h, l)
            }
            Tree::Ite(c, t, e) => {
                let (c, t, e) = (c.build(ctx), t.build(ctx), e.build(ctx));
                ctx.ite(c, t, e)
            }
            Tree::Sclamp(a, lo, hi) => {
                let a = a.build(ctx);
                ctx.sclamp(a, *lo, *hi)
            }
        }
    }
}

/// A constant biased towards the values rewrites care about.
fn constant(rng: &mut Rng, w: u32) -> u64 {
    let v = match rng.gen_range_usize(0..=5) {
        0 => 0,
        1 => 1,
        2 => mask(w),
        3 => 1 << (w - 1),
        4 => rng.next_u64() % 8,
        _ => rng.next_u64(),
    };
    v & mask(w)
}

/// A shift amount or bit offset in `0..=max`, biased to the edges.
fn boundary(rng: &mut Rng, max: u32) -> u32 {
    match rng.gen_range_usize(0..=3) {
        0 => 0,
        1 => max.min(1),
        2 => max,
        _ => rng.gen_range_usize(0..=max as usize) as u32,
    }
}

fn pick_width(rng: &mut Rng, at_least: u32) -> u32 {
    let choices: Vec<u32> = WIDTHS.iter().copied().filter(|&w| w >= at_least).collect();
    choices[rng.gen_range_usize(0..=choices.len() - 1)]
}

/// A random tree of width `w`.
fn gen(rng: &mut Rng, w: u32, depth: u32) -> Tree {
    let b = |t: Tree| Box::new(t);
    if depth == 0 || rng.gen_range_usize(0..=3) == 0 {
        return if rng.gen_bool(0.7) {
            Tree::Var(rng.gen_range_usize(0..=VARS - 1), w)
        } else {
            Tree::Const(constant(rng, w), w)
        };
    }
    let d = depth - 1;
    let arith = [Op::Add, Op::Sub, Op::Mul, Op::And, Op::Or, Op::Xor];
    let minmax = [Op::Smin, Op::Smax, Op::Umin, Op::Umax];
    loop {
        match rng.gen_range_usize(0..=11) {
            0 | 1 => {
                // Arithmetic twice as often: it feeds the linear form.
                let op = arith[rng.gen_range_usize(0..=arith.len() - 1)];
                return Tree::Bin(op, b(gen(rng, w, d)), b(gen(rng, w, d)));
            }
            2 => return Tree::Not(b(gen(rng, w, d))),
            3 => {
                let kind = [Shift::Shl, Shift::Lshr, Shift::Ashr][rng.gen_range_usize(0..=2)];
                let n = boundary(rng, w - 1);
                return Tree::Shift(kind, b(gen(rng, w, d)), n);
            }
            4 if w > 1 => {
                let narrower: Vec<u32> = WIDTHS.iter().copied().filter(|&x| x < w).collect();
                let cw = narrower[rng.gen_range_usize(0..=narrower.len() - 1)];
                return Tree::Ext {
                    signed: rng.gen_bool(0.5),
                    arg: b(gen(rng, cw, d)),
                    extra: w - cw,
                };
            }
            5 => {
                let cw = pick_width(rng, w);
                let lo = boundary(rng, cw - w);
                return Tree::Extract(b(gen(rng, cw, d)), lo + w - 1, lo);
            }
            6 if w > 1 => {
                let splits: Vec<u32> = WIDTHS
                    .iter()
                    .copied()
                    .filter(|&l| l < w && WIDTHS.contains(&(w - l)))
                    .collect();
                if let Some(&lw) = splits.get(rng.gen_range_usize(0..=splits.len().max(1) - 1)) {
                    return Tree::Concat(b(gen(rng, w - lw, d)), b(gen(rng, lw, d)));
                }
            }
            7 if w == 1 => {
                let op = [Op::Eq, Op::Ult, Op::Slt][rng.gen_range_usize(0..=2)];
                let cw = pick_width(rng, 1);
                let x = gen(rng, cw, d);
                // Half the time, compare against a linear function of `x`.
                let k = b(Tree::Const(constant(rng, cw), cw));
                let y = match rng.gen_range_usize(0..=5) {
                    0 => Tree::Bin(Op::Add, b(x.clone()), k),
                    1 => Tree::Bin(Op::Sub, k, b(x.clone())),
                    2 => Tree::Bin(Op::Mul, b(x.clone()), k),
                    _ => gen(rng, cw, d),
                };
                return Tree::Bin(op, b(x), b(y));
            }
            8 => {
                return Tree::Ite(b(gen(rng, 1, d)), b(gen(rng, w, d)), b(gen(rng, w, d)));
            }
            9 => {
                let op = minmax[rng.gen_range_usize(0..=minmax.len() - 1)];
                return Tree::Bin(op, b(gen(rng, w, d)), b(gen(rng, w, d)));
            }
            10 => {
                let (smin, smax) = (sext(1 << (w - 1), w), sext(mask(w) >> 1, w));
                let x = sext(constant(rng, w), w).clamp(smin, smax);
                let y = sext(constant(rng, w), w).clamp(smin, smax);
                return Tree::Sclamp(b(gen(rng, w, d)), x.min(y), x.max(y));
            }
            11 => {
                // A sum of a term with itself and a scaled copy: repeated
                // atoms, so the linear form merges coefficients.
                let t = gen(rng, w, d);
                let k = Tree::Const(constant(rng, w), w);
                let scaled = Tree::Bin(Op::Mul, b(t.clone()), b(k));
                return Tree::Bin(Op::Sub, b(Tree::Bin(Op::Add, b(t.clone()), b(scaled))), b(t));
            }
            _ => {}
        }
    }
}

/// Assignments: all-zero, all-one, all-max, all-sign-bit, then random
/// values mixed with those boundaries.
fn envs(rng: &mut Rng) -> Vec<HashMap<String, u64>> {
    let boundary = |k: usize, w: u32| [0, 1, mask(w), 1 << (w - 1)][k] & mask(w);
    let mut out = Vec::new();
    for k in 0..4 {
        out.push(all_vars().map(|(name, w)| (name, boundary(k, w))).collect());
    }
    for _ in 0..4 {
        out.push(all_vars().map(|(name, w)| (name, constant(rng, w))).collect());
    }
    out
}

fn all_vars() -> impl Iterator<Item = (String, u32)> {
    WIDTHS.iter().flat_map(|&w| (0..VARS).map(move |i| (var_name(i, w), w)))
}

fn children(node: &Node) -> Vec<TermId> {
    match *node {
        Node::Const { .. } | Node::Var { .. } => vec![],
        Node::Not(a)
        | Node::Shl(a, _)
        | Node::Lshr(a, _)
        | Node::Ashr(a, _)
        | Node::ZeroExt(a, _)
        | Node::SignExt(a, _)
        | Node::Extract(a, ..) => vec![a],
        Node::Add(a, b)
        | Node::Sub(a, b)
        | Node::Mul(a, b)
        | Node::And(a, b)
        | Node::Or(a, b)
        | Node::Xor(a, b)
        | Node::Concat(a, b)
        | Node::Eq(a, b)
        | Node::Ult(a, b)
        | Node::Slt(a, b) => vec![a, b],
        Node::Ite(c, a, b) => vec![c, a, b],
    }
}

/// Every subterm reachable from `root` evaluates inside its unsigned
/// interval, and its signed reading inside its signed interval.
fn assert_ranges_hold(ctx: &Context, root: TermId, env: &HashMap<String, u64>, tree: &Tree) {
    let mut stack = vec![root];
    let mut seen = std::collections::HashSet::new();
    while let Some(t) = stack.pop() {
        if !seen.insert(t) {
            continue;
        }
        let v = ctx.eval(t, env);
        let (lo, hi) = ctx.range(t);
        assert!(
            lo <= v && v <= hi,
            "value {v:#x} of {:?} outside [{lo:#x}, {hi:#x}] in {tree:?}",
            ctx.node(t)
        );
        let sv = sext(v, ctx.width(t));
        let (slo, shi) = ctx.srange(t);
        assert!(
            slo <= sv && sv <= shi,
            "signed value {sv} of {:?} outside [{slo}, {shi}] in {tree:?}",
            ctx.node(t)
        );
        stack.extend(children(ctx.node(t)));
    }
}

#[test]
fn prop_normalized_terms_match_reference_semantics() {
    let mut rng = Rng::seed_from_u64(0x5eed_f4e0);
    // One context for all cases: normalization must not depend on what
    // else the context holds.
    let mut ctx = Context::new();
    for case in 0..8000 {
        let w = WIDTHS[case % WIDTHS.len()];
        let tree = gen(&mut rng, w, 5);
        let t = tree.build(&mut ctx);
        assert_eq!(ctx.width(t), w);
        for env in envs(&mut rng) {
            assert_eq!(ctx.eval(t, &env), tree.eval(&env), "case {case}: {tree:?} under {env:?}");
            assert_ranges_hold(&ctx, t, &env, &tree);
        }
    }
}

#[test]
fn shared_chains_build_in_linear_time() {
    // `s = s + s` and `s = s*s + s` double the number of paths at every
    // level: 48 levels would never finish if a rewrite re-walked shared
    // subterms. Nested extracts of `s` push through the whole DAG again.
    let t0 = Instant::now();
    let mut ctx = Context::new();
    let (x, y) = (ctx.var("x", 64), ctx.var("y", 64));
    let (xv, yv) = (0x0123_4567_89ab_cdefu64, 0xfedc_ba98_7654_3211u64);
    let env: HashMap<String, u64> = [("x".into(), xv), ("y".into(), yv)].into();

    let (mut s, mut sv) = (ctx.mul(x, y), xv.wrapping_mul(yv));
    let (mut p, mut pv) = (s, sv);
    for _ in 0..48 {
        s = ctx.add(s, s);
        sv = sv.wrapping_add(sv);
        let sq = ctx.mul(p, p);
        p = ctx.add(sq, p);
        pv = pv.wrapping_mul(pv).wrapping_add(pv);
    }
    let (mut e, mut ev, mut w) = (ctx.add(s, p), sv.wrapping_add(pv), 64);
    for _ in 0..48 {
        w -= 1;
        e = ctx.extract(e, w - 1, 0);
        ev &= mask(w);
    }
    let mid = ctx.extract(p, 40, 9);
    let mid = ctx.extract(mid, 20, 3);
    let built = t0.elapsed();
    assert!(built < Duration::from_secs(1), "48-level chains took {built:?} to build");

    assert_eq!(ctx.eval(s, &env), sv);
    assert_eq!(ctx.width(e), 16);
    assert_eq!(ctx.eval(e, &env), ev);
    assert_eq!(ctx.eval(mid, &env), (pv >> 12) & mask(18));
}

#[test]
fn miter_sides_intern_to_one_term() {
    // The widening product vs the same product at 22 bits then
    // truncated: both normalize to one term, so the miter is `false`.
    let mut ctx = Context::new();
    let (a, b) = (ctx.var("a", 8), ctx.var("b", 8));
    let (a16, b16) = (ctx.zero_ext(a, 8), ctx.zero_ext(b, 8));
    let lhs = ctx.mul(a16, b16);
    let (a22, b22) = (ctx.zero_ext(a, 14), ctx.zero_ext(b, 14));
    let zero = ctx.constant(0, 22);
    let prod = ctx.mul(a22, b22);
    let sum = ctx.add(zero, prod);
    let rhs = ctx.extract(sum, 15, 0);
    assert_eq!(lhs, rhs);

    // Association and an undistributed constant factor.
    let (x, y, z) = (ctx.var("x", 16), ctx.var("y", 16), ctx.var("z", 16));
    let two = ctx.constant(2, 16);
    let xy = ctx.add(x, y);
    let l = ctx.add(xy, z);
    let l = ctx.mul(l, two);
    let yz = ctx.add(y, z);
    let r = ctx.add(x, yz);
    let r = ctx.shl(r, 1);
    assert_eq!(l, r);

    // A saturating clamp whose input provably fits is the input itself.
    let narrow = ctx.lshr(l, 8);
    let wide = ctx.zero_ext(narrow, 1);
    let clamped = ctx.sclamp(wide, 0, 255);
    assert_eq!(clamped, wide);
}

//! Content-addressed canonicalization of Halide IR expressions.
//!
//! Two tiles produced by different pipeline stages frequently have
//! identical structure and differ only in buffer names (`input` vs `blur_y`)
//! or in the order of commutative operands. Synthesis is name-blind — the
//! search and the oracle treat buffers as opaque symbol tables — so such
//! tiles have interchangeable compilations. This module computes the
//! canonical representative the cache is keyed on:
//!
//! 1. operands of commutative binary operators are sorted by a name-blind
//!    structural key, and
//! 2. buffers are renamed `b0, b1, …` in first-occurrence order over the
//!    canonicalized tree.
//!
//! Both steps take one pass over the tree. The name-blind key of a subtree
//! is its S-expression with every buffer printed as `_`; the sort builds
//! each node's key from its children's keys on the way up, so no subtree is
//! renamed or printed again for each of its ancestors. The keys, and so
//! the canonical forms and cache keys, are the strings a whole-subtree
//! print gives (the tests hold the two to each other).
//!
//! The mapping back is a bijection, so a cached compilation is replayed
//! for a new tile by renaming canonical buffers to the tile's buffers in
//! every artifact (HVX expression, Uber-IR expression, trace strings).
//!
//! Offsets (`dx`/`dy`) are deliberately **not** normalized: alignment of a
//! load window is semantically visible when `aligned_loads` is on, and
//! swizzle synthesis depends on absolute offsets.

use std::collections::HashMap;

use halide_ir::{BinOp, Binary, BroadcastLoad, Cast, Expr, Load, ScalarOperand, Shift, ShiftDir};
use hvx::{HvxExpr, Op};
use uber_ir::{UberExpr, VsMpyAdd, VvMpyAdd};

/// A canonicalized expression plus the bijection back to original names.
#[derive(Debug, Clone)]
pub struct Canonical {
    /// The canonical representative (commutative operands sorted, buffers
    /// renamed `b0, b1, …`).
    pub expr: Expr,
    /// Map canonical name → original name.
    pub to_original: HashMap<String, String>,
    /// Map original name → canonical name.
    pub to_canonical: HashMap<String, String>,
}

/// Canonicalize `e` for cache addressing.
pub fn canonicalize(e: &Expr) -> Canonical {
    let (sorted, _) = sort_commutative(e);
    let mut order: Vec<String> = Vec::new();
    buffer_order(&sorted, &mut order);
    let mut to_canonical = HashMap::new();
    let mut to_original = HashMap::new();
    for (i, name) in order.iter().enumerate() {
        let canon = format!("b{i}");
        to_canonical.insert(name.clone(), canon.clone());
        to_original.insert(canon, name.clone());
    }
    let expr = rename_expr(&sorted, &to_canonical);
    Canonical { expr, to_original, to_canonical }
}

/// Recursively sort commutative operands by their name-blind key: the
/// S-expression with every buffer printed as `_`. Returns the sorted tree
/// with its key, each node's key built from its children's in one
/// bottom-up pass, so a node's own tokens are printed once. Stable: equal
/// keys keep source order, which the canonical renaming then makes
/// irrelevant (alpha-equivalent inputs collide either way).
fn sort_commutative(e: &Expr) -> (Expr, String) {
    match e {
        Expr::Load(l) => (e.clone(), format!("(load _ {} {} {})", l.ty, l.dx, l.dy)),
        Expr::Broadcast(b) => (e.clone(), format!("(bcast {} {})", b.value, b.ty)),
        Expr::BroadcastLoad(b) => (e.clone(), format!("(bcast-load _ {} {} {})", b.x, b.dy, b.ty)),
        Expr::Cast(c) => {
            let (arg, key) = sort_commutative(&c.arg);
            let head = if c.saturating { "sat-cast" } else { "cast" };
            let key = format!("({head} {} {key})", c.to);
            (Expr::Cast(Cast { to: c.to, saturating: c.saturating, arg: Box::new(arg) }), key)
        }
        Expr::Shift(s) => {
            let (arg, key) = sort_commutative(&s.arg);
            let head = match s.dir {
                ShiftDir::Left => "shl",
                ShiftDir::Right => "shr",
            };
            let key = format!("({head} {key} {})", s.amount);
            (Expr::Shift(Shift { dir: s.dir, amount: s.amount, arg: Box::new(arg) }), key)
        }
        Expr::Binary(b) => {
            let mut lhs = sort_commutative(&b.lhs);
            let mut rhs = sort_commutative(&b.rhs);
            if b.op.is_commutative() && rhs.1 < lhs.1 {
                std::mem::swap(&mut lhs, &mut rhs);
            }
            let head = match b.op {
                BinOp::Add => "add",
                BinOp::Sub => "sub",
                BinOp::Mul => "mul",
                BinOp::Min => "min",
                BinOp::Max => "max",
                BinOp::Absd => "absd",
            };
            let key = format!("({head} {} {})", lhs.1, rhs.1);
            let (lhs, rhs) = (Box::new(lhs.0), Box::new(rhs.0));
            (Expr::Binary(Binary { op: b.op, lhs, rhs }), key)
        }
    }
}

fn buffer_order(e: &Expr, order: &mut Vec<String>) {
    let mut push = |name: &str| {
        if !order.iter().any(|n| n == name) {
            order.push(name.to_owned());
        }
    };
    match e {
        Expr::Load(l) => push(&l.buffer),
        Expr::BroadcastLoad(b) => push(&b.buffer),
        Expr::Broadcast(_) => {}
        Expr::Cast(c) => buffer_order(&c.arg, order),
        Expr::Shift(s) => buffer_order(&s.arg, order),
        Expr::Binary(b) => {
            buffer_order(&b.lhs, order);
            buffer_order(&b.rhs, order);
        }
    }
}

fn map_name(name: &str, map: &HashMap<String, String>) -> String {
    map.get(name).cloned().unwrap_or_else(|| name.to_owned())
}

/// Rename every buffer reference in a Halide expression through `map`
/// (names missing from the map are kept).
pub fn rename_expr(e: &Expr, map: &HashMap<String, String>) -> Expr {
    rename_expr_with(e, &|n| map_name(n, map))
}

fn rename_expr_with(e: &Expr, f: &dyn Fn(&str) -> String) -> Expr {
    match e {
        Expr::Load(l) => Expr::Load(Load { buffer: f(&l.buffer), dx: l.dx, dy: l.dy, ty: l.ty }),
        Expr::Broadcast(b) => Expr::Broadcast(b.clone()),
        Expr::BroadcastLoad(b) => {
            Expr::BroadcastLoad(BroadcastLoad { buffer: f(&b.buffer), x: b.x, dy: b.dy, ty: b.ty })
        }
        Expr::Cast(c) => Expr::Cast(Cast {
            to: c.to,
            saturating: c.saturating,
            arg: Box::new(rename_expr_with(&c.arg, f)),
        }),
        Expr::Shift(s) => Expr::Shift(Shift {
            dir: s.dir,
            amount: s.amount,
            arg: Box::new(rename_expr_with(&s.arg, f)),
        }),
        Expr::Binary(b) => Expr::Binary(Binary {
            op: b.op,
            lhs: Box::new(rename_expr_with(&b.lhs, f)),
            rhs: Box::new(rename_expr_with(&b.rhs, f)),
        }),
    }
}

/// Rename every buffer reference in an Uber-IR expression through `map`.
pub fn rename_uber(u: &UberExpr, map: &HashMap<String, String>) -> UberExpr {
    let r = |x: &UberExpr| Box::new(rename_uber(x, map));
    match u {
        UberExpr::Data(l) => {
            UberExpr::Data(Load { buffer: map_name(&l.buffer, map), dx: l.dx, dy: l.dy, ty: l.ty })
        }
        UberExpr::Bcast { value, ty } => {
            UberExpr::Bcast { value: rename_scalar(value, map), ty: *ty }
        }
        UberExpr::VsMpyAdd(v) => UberExpr::VsMpyAdd(VsMpyAdd {
            inputs: v.inputs.iter().map(|i| rename_uber(i, map)).collect(),
            kernel: v.kernel.clone(),
            saturating: v.saturating,
            out: v.out,
        }),
        UberExpr::VvMpyAdd(v) => UberExpr::VvMpyAdd(VvMpyAdd {
            pairs: v
                .pairs
                .iter()
                .map(|(a, b)| (rename_uber(a, map), rename_uber(b, map)))
                .collect(),
            saturating: v.saturating,
            out: v.out,
        }),
        UberExpr::AbsDiff(a, b) => UberExpr::AbsDiff(r(a), r(b)),
        UberExpr::Min(a, b) => UberExpr::Min(r(a), r(b)),
        UberExpr::Max(a, b) => UberExpr::Max(r(a), r(b)),
        UberExpr::Average { a, b, round } => UberExpr::Average { a: r(a), b: r(b), round: *round },
        UberExpr::Narrow { arg, shift, round, saturating, out } => UberExpr::Narrow {
            arg: r(arg),
            shift: *shift,
            round: *round,
            saturating: *saturating,
            out: *out,
        },
        UberExpr::Widen { arg, out } => UberExpr::Widen { arg: r(arg), out: *out },
        UberExpr::Shl { arg, amount } => UberExpr::Shl { arg: r(arg), amount: *amount },
    }
}

/// Rename every buffer reference in an HVX expression through `map`.
pub fn rename_hvx(h: &HvxExpr, map: &HashMap<String, String>) -> HvxExpr {
    let op = match h.root() {
        Op::Vmem { buffer, dx, dy, elem } => {
            Op::Vmem { buffer: map_name(buffer, map), dx: *dx, dy: *dy, elem: *elem }
        }
        Op::Vsplat { value, elem } => Op::Vsplat { value: rename_scalar(value, map), elem: *elem },
        Op::VmpyScalar { elem, scalar } => {
            Op::VmpyScalar { elem: *elem, scalar: rename_scalar(scalar, map) }
        }
        Op::VmpyAcc { elem, scalar } => {
            Op::VmpyAcc { elem: *elem, scalar: rename_scalar(scalar, map) }
        }
        Op::Vmpyi { elem, scalar } => Op::Vmpyi { elem: *elem, scalar: rename_scalar(scalar, map) },
        Op::VmpyiAcc { elem, scalar } => {
            Op::VmpyiAcc { elem: *elem, scalar: rename_scalar(scalar, map) }
        }
        other => other.clone(),
    };
    HvxExpr::op(op, h.args().iter().map(|a| rename_hvx(a, map)).collect())
}

fn rename_scalar(s: &ScalarOperand, map: &HashMap<String, String>) -> ScalarOperand {
    match s {
        ScalarOperand::Imm(v) => ScalarOperand::Imm(*v),
        ScalarOperand::Load { buffer, x, dy } => {
            ScalarOperand::Load { buffer: map_name(buffer, map), x: *x, dy: *dy }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use halide_ir::builder::*;
    use lanes::ElemType::{U16, U8};

    #[test]
    fn alpha_equivalent_tiles_share_a_key() {
        let t = |buf: &str, dx| widen(load(buf, U8, dx, 0));
        let e1 = add(add(t("input", -1), mul(t("input", 0), bcast(2, U16))), t("input", 1));
        let e2 = add(add(t("blur_y", -1), mul(t("blur_y", 0), bcast(2, U16))), t("blur_y", 1));
        assert_eq!(canonicalize(&e1).expr, canonicalize(&e2).expr);
    }

    #[test]
    fn commutative_operand_order_is_normalized() {
        let a = widen(load("a", U8, 0, 0));
        let b = mul(widen(load("a", U8, 1, 0)), bcast(3, U16));
        assert_eq!(canonicalize(&add(a.clone(), b.clone())).expr, canonicalize(&add(b, a)).expr);
    }

    #[test]
    fn non_commutative_order_is_preserved() {
        let a = load("a", U8, 0, 0);
        let b = load("a", U8, 1, 0);
        assert_ne!(canonicalize(&sub(a.clone(), b.clone())).expr, canonicalize(&sub(b, a)).expr);
    }

    #[test]
    fn distinct_offsets_do_not_collide() {
        let e1 = add(load("in", U8, 0, 0), load("in", U8, 1, 0));
        let e2 = add(load("in", U8, 1, 0), load("in", U8, 2, 0));
        assert_ne!(canonicalize(&e1).expr, canonicalize(&e2).expr);
    }

    #[test]
    fn repeated_buffer_roles_are_distinguished() {
        // a+a and a+b are structurally equal name-blind but must canonicalize
        // to different keys (b0+b0 vs b0+b1).
        let aa = add(load("a", U8, 0, 0), load("a", U8, 0, 0));
        let ab = add(load("a", U8, 0, 0), load("b", U8, 0, 0));
        assert_ne!(canonicalize(&aa).expr, canonicalize(&ab).expr);
    }

    #[test]
    fn rename_is_a_bijection_back_to_the_original() {
        let e = add(mul(widen(load("x", U8, 0, 0)), bcast(2, U16)), widen(load("w", U8, -1, 0)));
        let c = canonicalize(&e);
        // Renaming canonical → original recovers an expression using only
        // original buffers (possibly with commutative operands re-ordered).
        let back = rename_expr(&c.expr, &c.to_original);
        assert_eq!(halide_ir::analysis::buffers_used(&back), halide_ir::analysis::buffers_used(&e));
        assert_eq!(canonicalize(&back).expr, c.expr);
    }

    #[test]
    fn broadcast_load_buffers_participate() {
        let e1 = mul(bcast_load("w", 3, 0, U8), load("in", U8, 0, 0));
        let e2 = mul(bcast_load("k", 3, 0, U8), load("data", U8, 0, 0));
        let e3 = mul(bcast_load("k", 4, 0, U8), load("data", U8, 0, 0));
        assert_eq!(canonicalize(&e1).expr, canonicalize(&e2).expr);
        assert_ne!(canonicalize(&e2).expr, canonicalize(&e3).expr);
    }

    /// Whole-subtree sorting: each binary node renames and prints both
    /// operands to compare them, so every node is printed once per
    /// ancestor. The reference [`sort_commutative`] must agree with.
    fn reference_sort(e: &Expr) -> Expr {
        match e {
            Expr::Load(_) | Expr::Broadcast(_) | Expr::BroadcastLoad(_) => e.clone(),
            Expr::Cast(c) => Expr::Cast(Cast {
                to: c.to,
                saturating: c.saturating,
                arg: Box::new(reference_sort(&c.arg)),
            }),
            Expr::Shift(s) => Expr::Shift(Shift {
                dir: s.dir,
                amount: s.amount,
                arg: Box::new(reference_sort(&s.arg)),
            }),
            Expr::Binary(b) => {
                let lhs = reference_sort(&b.lhs);
                let rhs = reference_sort(&b.rhs);
                let (lhs, rhs) = if b.op.is_commutative()
                    && reference_blind_key(&rhs) < reference_blind_key(&lhs)
                {
                    (rhs, lhs)
                } else {
                    (lhs, rhs)
                };
                Expr::Binary(Binary { op: b.op, lhs: Box::new(lhs), rhs: Box::new(rhs) })
            }
        }
    }

    fn reference_blind_key(e: &Expr) -> String {
        halide_ir::sexpr::to_sexpr(&rename_expr_with(e, &|_| "_".to_owned()))
    }

    fn reference_canonical(e: &Expr) -> Expr {
        let sorted = reference_sort(e);
        let mut order = Vec::new();
        buffer_order(&sorted, &mut order);
        let map = order.iter().enumerate().map(|(i, n)| (n.clone(), format!("b{i}"))).collect();
        rename_expr(&sorted, &map)
    }

    #[test]
    fn bottom_up_keys_match_whole_subtree_keys() {
        let rake = rake::Rake::new(rake::Target::hvx_small(8));
        let driver = crate::Driver::new(rake.clone());
        let fingerprint = crate::fingerprint(rake.target(), &rake.options());
        let cfg = oracle::GenConfig { max_nodes: 64, ..oracle::GenConfig::default() };
        let mut rng = lanes::rng::Rng::seed_from_u64(0xB0770);
        let mut exprs: Vec<Expr> = (0..500).map(|_| oracle::gen_expr(&mut rng, &cfg)).collect();
        exprs.extend(workloads::all().into_iter().flat_map(|w| w.exprs));
        for e in &exprs {
            let map: HashMap<String, String> = halide_ir::analysis::buffers_used(e)
                .into_iter()
                .map(|n| (n.clone(), format!("z_{n}")))
                .collect();
            let renamed = rename_expr(e, &map);
            let commuted = swap_commutative(&renamed, &mut rng);
            for v in [e, &renamed, &commuted] {
                let text = halide_ir::sexpr::to_sexpr(v);
                let (sorted, key) = sort_commutative(v);
                assert_eq!(sorted, reference_sort(v), "{text}");
                assert_eq!(key, reference_blind_key(&sorted), "{text}");
                let canonical = reference_canonical(v);
                assert_eq!(canonicalize(v).expr, canonical, "{text}");
                let key = format!("{}|{fingerprint}", halide_ir::sexpr::to_sexpr(&canonical));
                assert_eq!(driver.cache_key(v), key, "{text}");
            }
        }
    }

    /// Recursively swap commutative operands at random: a semantics- and
    /// key-preserving scramble for the property tests below.
    fn swap_commutative(e: &Expr, rng: &mut lanes::rng::Rng) -> Expr {
        match e {
            Expr::Load(_) | Expr::Broadcast(_) | Expr::BroadcastLoad(_) => e.clone(),
            Expr::Cast(c) => Expr::Cast(Cast {
                to: c.to,
                saturating: c.saturating,
                arg: Box::new(swap_commutative(&c.arg, rng)),
            }),
            Expr::Shift(s) => Expr::Shift(Shift {
                dir: s.dir,
                amount: s.amount,
                arg: Box::new(swap_commutative(&s.arg, rng)),
            }),
            Expr::Binary(b) => {
                let lhs = swap_commutative(&b.lhs, rng);
                let rhs = swap_commutative(&b.rhs, rng);
                let (lhs, rhs) = if b.op.is_commutative() && rng.gen_bool(0.5) {
                    (rhs, lhs)
                } else {
                    (lhs, rhs)
                };
                Expr::Binary(Binary { op: b.op, lhs: Box::new(lhs), rhs: Box::new(rhs) })
            }
        }
    }

    #[test]
    fn canonicalization_is_idempotent_on_generated_exprs() {
        let cfg = oracle::GenConfig::default();
        let mut rng = lanes::rng::Rng::seed_from_u64(0xD0C5);
        for _ in 0..200 {
            let e = oracle::gen_expr(&mut rng, &cfg);
            let once = canonicalize(&e);
            let twice = canonicalize(&once.expr);
            assert_eq!(twice.expr, once.expr, "{}", halide_ir::sexpr::to_sexpr(&e));
            // The fixpoint's rename maps are the identity.
            assert!(twice.to_canonical.iter().all(|(k, v)| k == v));
        }
    }

    #[test]
    fn equal_canonical_keys_imply_interpreter_equivalence() {
        // Alpha-rename the buffers and scramble commutative operands: the
        // canonical key must survive, and key equality must be
        // semantically real — both expressions evaluate identically on
        // every adversarial environment (modulo the buffer renaming).
        let cfg = oracle::GenConfig::default();
        let mut rng = lanes::rng::Rng::seed_from_u64(0x5EED);
        for _ in 0..100 {
            let e = oracle::gen_expr(&mut rng, &cfg);
            let map: HashMap<String, String> = halide_ir::analysis::buffers_used(&e)
                .into_iter()
                .map(|n| (n.clone(), format!("renamed_{n}")))
                .collect();
            let variant = swap_commutative(&rename_expr(&e, &map), &mut rng);
            assert_eq!(
                canonicalize(&e).expr,
                canonicalize(&variant).expr,
                "{}",
                halide_ir::sexpr::to_sexpr(&e)
            );

            let checker = oracle::Oracle { envs: 2, ..oracle::Oracle::default() };
            for env in checker.envs_for(&e) {
                let renamed: halide_ir::Env = env
                    .iter()
                    .map(|b| {
                        halide_ir::Buffer2D::from_fn(
                            &map[b.name()],
                            b.elem(),
                            b.width(),
                            b.height(),
                            |x, y| b.get(x as i64, y as i64),
                        )
                    })
                    .collect();
                for (x0, y0) in [(0i64, 0i64), (7, 1)] {
                    let lanes = 8;
                    let a = halide_ir::eval(&e, &halide_ir::EvalCtx { env: &env, x0, y0, lanes });
                    let b = halide_ir::eval(
                        &variant,
                        &halide_ir::EvalCtx { env: &renamed, x0, y0, lanes },
                    );
                    assert_eq!(a.ok(), b.ok(), "{}", halide_ir::sexpr::to_sexpr(&e));
                }
            }
        }
    }
}

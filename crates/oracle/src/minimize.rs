//! Shrinking of failing differential cases.
//!
//! A raw counterexample from the fuzzer is a 20-node expression over three
//! 32×4 buffers of noise — useless for debugging. The minimizer applies
//! greedy delta debugging in two phases:
//!
//! 1. **Expression shrink**: repeatedly try to replace a subtree with one
//!    of its children (cast-wrapped if the types differ) or with `bcast(0)`,
//!    keeping any replacement that still mismatches. First-improvement
//!    restarts until a fixpoint: no single replacement keeps the failure.
//! 2. **Input shrink**: drop buffers the final expression no longer reads,
//!    then zero every buffer cell whose value is not needed to reproduce.
//!
//! The subject is re-invoked per candidate, so a subject that compiles on
//! every call should memoize internally (see `oracle_fuzz`).

use halide_ir::{analysis, eval, Binary, Broadcast, Cast, Env, EvalCtx, Expr, Shift};
use lanes::Vector;

/// The subject under test: compile-and-run an expression at one point.
/// `None` means the point cannot be executed (compilation failed there) —
/// the minimizer treats that as "not a reproduction" and backtracks.
pub type Subject<'a> = &'a dyn Fn(&Expr, &Env, i64, i64, usize) -> Option<Vector>;

/// A minimized, self-contained reproduction of one mismatch.
#[derive(Debug, Clone)]
pub struct Repro {
    /// The shrunk expression (still mismatching).
    pub expr: Expr,
    /// The shrunk environment.
    pub env: Env,
    /// Tile origin.
    pub x0: i64,
    /// Tile origin.
    pub y0: i64,
    /// Vector width.
    pub lanes: usize,
    /// Ground-truth output (Halide IR interpreter).
    pub want: Vector,
    /// The subject's output.
    pub got: Vector,
    /// Candidate evaluations spent shrinking.
    pub steps: usize,
}

/// Does `(expr, env)` still reproduce a mismatch at the pinned origin?
fn still_fails(e: &Expr, env: &Env, x0: i64, y0: i64, lanes: usize, subject: Subject) -> bool {
    let Ok(want) = eval(e, &EvalCtx { env, x0, y0, lanes }) else {
        return false;
    };
    match subject(e, env, x0, y0, lanes) {
        Some(got) => crate::first_mismatch(&want, &got).is_some(),
        None => false,
    }
}

/// Shrink a failing case to a minimal one. `expr`/`env` must mismatch at
/// `(x0, y0)` under `subject`; if they do not, they are returned as-is.
pub fn minimize(
    expr: &Expr,
    env: &Env,
    x0: i64,
    y0: i64,
    lanes: usize,
    subject: Subject,
) -> Repro {
    let mut steps = 0;
    let mut cur = expr.clone();

    // Phase 1: greedy first-improvement expression shrink.
    'outer: loop {
        let total = analysis::node_count(&cur);
        for index in 0..total {
            for cand in candidates_at(&cur, index) {
                if analysis::node_count(&cand) >= total {
                    continue;
                }
                steps += 1;
                if still_fails(&cand, env, x0, y0, lanes, subject) {
                    cur = cand;
                    continue 'outer;
                }
            }
        }
        break;
    }

    // Phase 2: input shrink. Drop unread buffers, then zero cells one at a
    // time, keeping each zero that preserves the failure.
    let used = analysis::buffer_types(&cur);
    let mut small: Env = env.iter().filter(|b| used.contains_key(b.name())).cloned().collect();
    let dropped = small.clone();
    let names: Vec<String> = small.iter().map(|b| b.name().to_owned()).collect();
    for name in names {
        let (w, h) = {
            let b = small.get(&name).expect("buffer present");
            (b.width(), b.height())
        };
        for y in 0..h {
            for x in 0..w {
                let old = small.get(&name).expect("buffer present").get(x as i64, y as i64);
                if old == 0 {
                    continue;
                }
                small.get_mut(&name).expect("buffer present").set(x, y, 0);
                steps += 1;
                if !still_fails(&cur, &small, x0, y0, lanes, subject) {
                    small.get_mut(&name).expect("buffer present").set(x, y, old);
                }
            }
        }
    }

    // Phase 3: re-verify the final pair. A drifting subject (one answered
    // by a cache that another compile warms mid-run, say) can stop
    // reproducing after cell zeroing even though every individual zero was
    // re-checked at the time: each zero changes what the subject compiles,
    // and a subject whose behavior drifts between calls may no longer
    // mismatch — or no longer execute — on the accumulated result. Back
    // off to the widest environment that still reproduces (zeroed →
    // buffers-dropped → original) instead of panicking below.
    if !still_fails(&cur, &small, x0, y0, lanes, subject) {
        steps += 1;
        small = if still_fails(&cur, &dropped, x0, y0, lanes, subject) {
            dropped
        } else {
            steps += 1;
            env.clone()
        };
    }

    let want = eval(&cur, &EvalCtx { env: &small, x0, y0, lanes })
        .expect("minimized expression evaluates");
    // A drifted subject may decline the final point entirely; record the
    // ground truth on both sides rather than aborting the whole run.
    let got = subject(&cur, &small, x0, y0, lanes).unwrap_or_else(|| want.clone());
    Repro { expr: cur, env: small, x0, y0, lanes, want, got, steps }
}

/// Smaller same-typed replacements for the subtree at preorder `index`:
/// each child (cast-wrapped when the type differs) and `bcast(0)`.
fn candidates_at(e: &Expr, index: usize) -> Vec<Expr> {
    let Some(node) = nth(e, index) else {
        return Vec::new();
    };
    let ty = node.ty();
    let mut out = Vec::new();
    for child in node.children() {
        let replacement = if child.ty() == ty {
            child.clone()
        } else {
            Expr::Cast(Cast { to: ty, saturating: false, arg: Box::new(child.clone()) })
        };
        out.push(replace_at(e, index, &replacement));
    }
    if !matches!(node, Expr::Broadcast(_)) {
        out.push(replace_at(e, index, &Expr::Broadcast(Broadcast { value: 0, ty })));
    }
    out
}

/// The subtree at preorder position `index`.
fn nth(e: &Expr, index: usize) -> Option<&Expr> {
    fn walk<'a>(e: &'a Expr, index: usize, counter: &mut usize) -> Option<&'a Expr> {
        if *counter == index {
            return Some(e);
        }
        *counter += 1;
        for c in e.children() {
            if let Some(found) = walk(c, index, counter) {
                return Some(found);
            }
        }
        None
    }
    walk(e, index, &mut 0)
}

/// A copy of `e` with the subtree at preorder `index` replaced.
fn replace_at(e: &Expr, index: usize, new: &Expr) -> Expr {
    fn walk(e: &Expr, index: usize, new: &Expr, counter: &mut usize) -> Expr {
        if *counter == index {
            *counter += count(e);
            return new.clone();
        }
        *counter += 1;
        match e {
            Expr::Load(_) | Expr::Broadcast(_) | Expr::BroadcastLoad(_) => e.clone(),
            Expr::Cast(c) => Expr::Cast(Cast {
                to: c.to,
                saturating: c.saturating,
                arg: Box::new(walk(&c.arg, index, new, counter)),
            }),
            Expr::Binary(b) => {
                let lhs = walk(&b.lhs, index, new, counter);
                let rhs = walk(&b.rhs, index, new, counter);
                Expr::Binary(Binary { op: b.op, lhs: Box::new(lhs), rhs: Box::new(rhs) })
            }
            Expr::Shift(s) => Expr::Shift(Shift {
                dir: s.dir,
                amount: s.amount,
                arg: Box::new(walk(&s.arg, index, new, counter)),
            }),
        }
    }
    fn count(e: &Expr) -> usize {
        analysis::node_count(e)
    }
    walk(e, index, new, &mut 0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use halide_ir::builder as hb;
    use lanes::ElemType;

    use crate::fixtures::{broken_avg_demo, broken_vavg_subject};

    #[test]
    fn shrinks_broken_vavg_to_minimal_repro() {
        // The faulty average buried inside a larger expression; everything
        // around it is computed correctly.
        let (e, env) = broken_avg_demo();
        let subject: Subject = &broken_vavg_subject;
        let (x0, y0, lanes) = (0, 0, 8);
        assert!(still_fails(&e, &env, x0, y0, lanes, subject), "fixture must fail");

        let repro = minimize(&e, &env, x0, y0, lanes, subject);
        // Deterministically shrinks to (at most) the 7-node avg pattern.
        assert!(
            analysis::node_count(&repro.expr) <= 10,
            "not minimal: {}",
            halide_ir::sexpr::to_sexpr(&repro.expr)
        );
        assert!(still_fails(&repro.expr, &repro.env, x0, y0, lanes, subject));
        // The unused buffer is dropped from the environment.
        assert!(repro.env.get("b").is_none());
        assert!(repro.steps > 0);

        // Determinism: the same inputs shrink to the same repro.
        let again = minimize(&e, &env, x0, y0, lanes, subject);
        assert_eq!(again.expr, repro.expr);
        assert_eq!(again.want, repro.want);
        assert_eq!(again.got, repro.got);
    }

    #[test]
    fn replace_at_preserves_preorder_indexing() {
        let e = hb::add(
            hb::mul(hb::load("a", ElemType::U8, 0, 0), hb::bcast(2, ElemType::U8)),
            hb::load("a", ElemType::U8, 1, 0),
        );
        // Index 0 is the root.
        let z = Expr::Broadcast(Broadcast { value: 0, ty: ElemType::U8 });
        assert_eq!(replace_at(&e, 0, &z), z);
        // Index 4 is the second operand of the Add (after root, mul, load, bcast).
        let swapped = replace_at(&e, 4, &z);
        assert_eq!(analysis::node_count(&swapped), 5);
        assert!(matches!(swapped, Expr::Binary(ref b) if *b.rhs == z));
    }

    /// A subject whose behavior changes mid-minimization — the shape of a
    /// subject answered by a cache that another compile warms mid-run. The final re-verify must
    /// back off across the fallback environments instead of panicking.
    #[test]
    fn tier_drifting_subject_does_not_panic() {
        use std::cell::Cell;
        let (e, env) = broken_avg_demo();
        let calls = Cell::new(0usize);
        let drifting = |e: &Expr, env: &Env, x0: i64, y0: i64, lanes: usize| {
            let n = calls.get();
            calls.set(n + 1);
            if n < 30 {
                broken_vavg_subject(e, env, x0, y0, lanes)
            } else {
                // Answered honestly from the warmed cache: the mismatch
                // is gone from here on.
                eval(e, &EvalCtx { env, x0, y0, lanes }).ok()
            }
        };
        let subject: Subject = &drifting;
        let repro = minimize(&e, &env, 0, 0, 8, subject);
        assert!(repro.steps > 0);
        assert!(calls.get() > 30, "drift must have happened mid-run");
    }

    /// A subject that stops executing mid-minimization (it starts
    /// declining the expression): the repro records ground truth on both
    /// sides instead of panicking on the final `subject` call.
    #[test]
    fn subject_that_stops_executing_falls_back_to_ground_truth() {
        use std::cell::Cell;
        let (e, env) = broken_avg_demo();
        let calls = Cell::new(0usize);
        let dying = |e: &Expr, env: &Env, x0: i64, y0: i64, lanes: usize| {
            let n = calls.get();
            calls.set(n + 1);
            if n < 30 {
                broken_vavg_subject(e, env, x0, y0, lanes)
            } else {
                None
            }
        };
        let subject: Subject = &dying;
        let repro = minimize(&e, &env, 0, 0, 8, subject);
        assert_eq!(repro.want, repro.got, "declined final point records ground truth");
    }

    #[test]
    fn non_failing_case_is_not_a_repro() {
        let e = hb::add(hb::load("a", ElemType::U8, 0, 0), hb::bcast(1, ElemType::U8));
        let mut env = Env::new();
        env.insert(halide_ir::Buffer2D::filled("a", ElemType::U8, 8, 1, 5));
        let honest: Subject =
            &|e, env, x0, y0, lanes| eval(e, &EvalCtx { env, x0, y0, lanes }).ok();
        assert!(!still_fails(&e, &env, 0, 0, 4, honest));
    }
}

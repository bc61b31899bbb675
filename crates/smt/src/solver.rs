//! The bit-vector solver façade.

use std::collections::HashMap;

use sat::SatResult;

use crate::blast::Blaster;
use crate::term::{Context, Node, TermId};

/// Result of a [`BvSolver::check`] call.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SmtResult {
    /// Satisfiable; the model assigns every variable of the context.
    Sat(BvModel),
    /// Unsatisfiable.
    Unsat,
}

impl SmtResult {
    /// Whether the result is [`SmtResult::Sat`].
    pub fn is_sat(&self) -> bool {
        matches!(self, SmtResult::Sat(_))
    }
}

/// A satisfying assignment of bit-vector variables, keyed by name.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct BvModel {
    values: HashMap<String, u64>,
}

impl BvModel {
    /// The value of a variable, if it occurs in the model. Variables that
    /// never appeared in an assertion are unconstrained and reported as 0.
    pub fn get(&self, name: &str) -> Option<u64> {
        self.values.get(name).copied()
    }

    /// The full assignment, for handing to [`Context::eval`].
    pub fn as_env(&self) -> &HashMap<String, u64> {
        &self.values
    }
}

/// A one-shot solver over terms of a [`Context`].
///
/// Build all terms first, then create the solver, assert width-1 terms and
/// call [`BvSolver::check`]. See the crate docs for an example.
pub struct BvSolver<'a> {
    ctx: &'a Context,
    blaster: Blaster<'a>,
}

impl<'a> BvSolver<'a> {
    /// A solver over the given context.
    pub fn new(ctx: &'a Context) -> BvSolver<'a> {
        BvSolver { ctx, blaster: Blaster::new(ctx) }
    }

    /// Assert that a width-1 term is true.
    ///
    /// # Panics
    ///
    /// Panics if the term does not have width 1.
    pub fn assert_term(&mut self, t: TermId) {
        self.blaster.assert_true(t);
    }

    /// Decide the conjunction of all assertions.
    pub fn check(&mut self) -> SmtResult {
        self.check_limited(u64::MAX).expect("unlimited check always decides")
    }

    /// Like [`BvSolver::check`], but give up after `max_conflicts` CDCL
    /// conflicts and return `None` ("unknown").
    pub fn check_limited(&mut self, max_conflicts: u64) -> Option<SmtResult> {
        Some(match self.blaster.sat.solve_limited(max_conflicts)? {
            SatResult::Unsat => SmtResult::Unsat,
            SatResult::Sat(model) => {
                let mut values = HashMap::new();
                for i in 0..self.ctx.len() {
                    let t = TermId(i as u32);
                    if let Node::Var { name, width } = self.ctx.node(t) {
                        let v = match self.blaster.bits_of(t) {
                            Some(bits) => bits
                                .iter()
                                .enumerate()
                                .fold(0u64, |acc, (i, &l)| {
                                    acc | (u64::from(model.lit_value(l)) << i)
                                }),
                            // Variable never blasted: unconstrained.
                            None => 0,
                        };
                        let _ = width;
                        values.insert(name.clone(), v);
                    }
                }
                SmtResult::Sat(BvModel { values })
            }
        })
    }
}

/// Check whether two terms are equivalent for all variable assignments.
///
/// Returns `Ok(())` when equivalent, or `Err(model)` with a distinguishing
/// assignment otherwise. This is the workhorse query of Rake's lifting and
/// lowering verification.
///
/// # Panics
///
/// Panics if the terms have different widths.
pub fn check_equivalent(ctx: &mut Context, a: TermId, b: TermId) -> Result<(), BvModel> {
    let ne = ctx.ne(a, b);
    let mut solver = BvSolver::new(ctx);
    solver.assert_term(ne);
    match solver.check() {
        SmtResult::Unsat => Ok(()),
        SmtResult::Sat(model) => Err(model),
    }
}

/// Build a width-1 term on a fresh [`Context`] and decide whether it is
/// unsatisfiable within `max_conflicts` CDCL conflicts.
///
/// Returns `Some(true)` when unsatisfiable, `Some(false)` when a model
/// exists, `None` when the conflict budget ran out ("unknown") or when
/// `build` declined to produce a term (nothing is solved then). Every call
/// records one `smt.prove_unsat` span with the query's size, SAT work and
/// outcome.
pub fn prove_unsat(
    build: impl FnOnce(&mut Context) -> Option<TermId>,
    max_conflicts: u64,
) -> Option<bool> {
    let mut sp = trace::span("smt.prove_unsat", "smt");
    let mut ctx = Context::new();
    let Some(t) = build(&mut ctx) else {
        sp.arg("outcome", "unsupported");
        return None;
    };
    let mut blaster = Blaster::new(&ctx);
    blaster.assert_true(t);
    let mut sat = blaster.sat;
    let verdict = sat.solve_limited(max_conflicts).map(|r| r == SatResult::Unsat);
    if sp.is_active() {
        let stats = sat.stats();
        sp.arg("terms", ctx.len());
        sp.arg("vars", sat.num_vars());
        sp.arg("conflicts", stats.conflicts);
        sp.arg("decisions", stats.decisions);
        sp.arg("propagations", stats.propagations);
        sp.arg(
            "outcome",
            match verdict {
                Some(true) => "unsat",
                Some(false) => "sat",
                None => "unknown",
            },
        );
    }
    verdict
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ctx() -> Context {
        Context::new()
    }

    #[test]
    fn sat_finds_model() {
        let mut c = ctx();
        let x = c.var("x", 8);
        let k = c.constant(42, 8);
        let eq = c.eq(x, k);
        let mut s = BvSolver::new(&c);
        s.assert_term(eq);
        match s.check() {
            SmtResult::Sat(m) => assert_eq!(m.get("x"), Some(42)),
            SmtResult::Unsat => panic!("x = 42 should be sat"),
        }
    }

    #[test]
    fn unsat_contradiction() {
        let mut c = ctx();
        let x = c.var("x", 8);
        let k1 = c.constant(1, 8);
        let k2 = c.constant(2, 8);
        let e1 = c.eq(x, k1);
        let e2 = c.eq(x, k2);
        let mut s = BvSolver::new(&c);
        s.assert_term(e1);
        s.assert_term(e2);
        assert_eq!(s.check(), SmtResult::Unsat);
    }

    #[test]
    fn add_commutes() {
        let mut c = ctx();
        let x = c.var("x", 8);
        let y = c.var("y", 8);
        let l = c.add(x, y);
        let r = c.add(y, x);
        assert!(check_equivalent(&mut c, l, r).is_ok());
    }

    #[test]
    fn mul_by_two_is_shl() {
        let mut c = ctx();
        let x = c.var("x", 16);
        let two = c.constant(2, 16);
        let l = c.mul(x, two);
        let r = c.shl(x, 1);
        assert!(check_equivalent(&mut c, l, r).is_ok());
    }

    #[test]
    fn sub_self_is_zero() {
        let mut c = ctx();
        let x = c.var("x", 12);
        let l = c.sub(x, x);
        let r = c.constant(0, 12);
        assert!(check_equivalent(&mut c, l, r).is_ok());
    }

    #[test]
    fn decides_across_queries() {
        let commutes = |ctx: &mut Context| {
            let x = ctx.var("x", 8);
            let y = ctx.var("y", 8);
            let l = ctx.add(x, y);
            let r = ctx.add(y, x);
            Some(ctx.ne(l, r))
        };
        assert_eq!(prove_unsat(commutes, u64::MAX), Some(true));
        let sat = prove_unsat(
            |ctx| {
                let x = ctx.var("x", 8);
                let k = ctx.constant(3, 8);
                Some(ctx.eq(x, k))
            },
            u64::MAX,
        );
        assert_eq!(sat, Some(false));
        // A declined build is "no verdict", not a proof.
        assert_eq!(prove_unsat(|_| None, u64::MAX), None);
    }

    /// Multiplication commutes, but no rewrite reorders a product's
    /// operands, so only the CDCL search can show it.
    fn mul_commutes(ctx: &mut Context, width: u32) -> TermId {
        let x = ctx.var("hx", width);
        let y = ctx.var("hy", width);
        let l = ctx.mul(x, y);
        let r = ctx.mul(y, x);
        ctx.ne(l, r)
    }

    #[test]
    fn commuted_product_is_left_to_the_search() {
        let mut c = ctx();
        let miter = mul_commutes(&mut c, 16);
        let mut blaster = Blaster::new(&c);
        blaster.assert_true(miter);
        assert!(
            blaster.sat.num_vars() > 1,
            "normalization decided the query: it never reaches the search"
        );
        // A 16-bit multiplier miter is beyond the search in test time (a
        // 10-bit one already runs past a minute), but no budget may turn it
        // sat.
        assert_ne!(prove_unsat(|ctx| Some(mul_commutes(ctx, 16)), 2_000), Some(false));
        assert_eq!(prove_unsat(|ctx| Some(mul_commutes(ctx, 6)), AMPLE_BUDGET), Some(true));
    }

    /// Conflicts the 6-bit product miter may spend: far more than it needs.
    const AMPLE_BUDGET: u64 = 1_000_000;

    #[test]
    fn counterexample_is_genuine() {
        // x + 1 != x - 1: the counterexample must actually distinguish them.
        let mut c = ctx();
        let x = c.var("x", 8);
        let one = c.constant(1, 8);
        let l = c.add(x, one);
        let r = c.sub(x, one);
        let m = check_equivalent(&mut c, l, r).unwrap_err();
        let lv = c.eval(l, m.as_env());
        let rv = c.eval(r, m.as_env());
        assert_ne!(lv, rv);
    }

    #[test]
    fn signed_compare_differs_from_unsigned() {
        let mut c = ctx();
        let x = c.var("x", 8);
        let zero = c.constant(0, 8);
        let s = c.slt(x, zero); // x < 0 signed: true for 128..=255
        let u = c.ult(x, zero); // never true
        let m = check_equivalent(&mut c, s, u).unwrap_err();
        let xv = m.get("x").expect("x must be in the model");
        assert!(xv >= 128, "counterexample must have sign bit set, got {xv}");
    }

    #[test]
    fn saturating_add_identity_via_clamp() {
        // For u8 zero-extended to 16 bits, x + y <= 510 < 2^16, so
        // clamping to [0, 255] equals min(x + y, 255).
        let mut c = ctx();
        let x8 = c.var("x", 8);
        let y8 = c.var("y", 8);
        let x = c.zero_ext(x8, 8);
        let y = c.zero_ext(y8, 8);
        let sum = c.add(x, y);
        let k255 = c.constant(255, 16);
        let l = c.sclamp(sum, 0, 255);
        let r = c.umin(sum, k255);
        assert!(check_equivalent(&mut c, l, r).is_ok());
    }

    #[test]
    fn rounding_shift_fusion_requires_range() {
        // The gaussian3x3 soundness condition (§7.1.2): for arbitrary i16 x,
        // wrap16(x + 8) >> 4 as u8  !=  sat_u8((x + 8) >> 4).
        let mut c = ctx();
        let x = c.var("x", 16);
        let eight = c.constant(8, 16);
        let sum = c.add(x, eight);
        let shifted = c.ashr(sum, 4);
        let truncated = c.extract(shifted, 7, 0);
        let saturated = {
            let s = c.sclamp(shifted, 0, 255);
            c.extract(s, 7, 0)
        };
        // Unconstrained: distinguishable.
        assert!(check_equivalent(&mut c, truncated, saturated).is_err());

        // Constrained to the analyzed range [0, 1020]: equivalent.
        let mut c = ctx();
        let x = c.var("x", 16);
        let hi = c.constant(1020, 16);
        let in_range = c.ult(x, hi);
        let eight = c.constant(8, 16);
        let sum = c.add(x, eight);
        let shifted = c.ashr(sum, 4);
        let truncated = c.extract(shifted, 7, 0);
        let saturated = {
            let s = c.sclamp(shifted, 0, 255);
            c.extract(s, 7, 0)
        };
        let ne = c.ne(truncated, saturated);
        let both = c.and(in_range, ne);
        let mut s = BvSolver::new(&c);
        s.assert_term(both);
        assert_eq!(s.check(), SmtResult::Unsat);
    }

    /// The blasted semantics agree with the interpreter on random
    /// expressions: solve `out == expr(x, y)` with x/y pinned, and the
    /// model value of `out` must equal the evaluated value.
    #[test]
    fn prop_blast_matches_eval() {
        let mut rng = lanes::rng::Rng::seed_from_u64(0xb1a5);
        for _ in 0..16 {
            let xv = rng.next_u64() % 256;
            let yv = rng.next_u64() % 256;
            let op = rng.gen_range_usize(0..=7);
            let mut c = ctx();
            let x = c.var("x", 8);
            let y = c.var("y", 8);
            let expr = match op {
                0 => c.add(x, y),
                1 => c.sub(x, y),
                2 => c.mul(x, y),
                3 => c.smin(x, y),
                4 => c.umax(x, y),
                5 => { let s = c.ashr(x, 2); c.xor(s, y) }
                6 => { let z = c.zero_ext(x, 8); let w = c.sign_ext(y, 8); let s = c.add(z, w); c.extract(s, 7, 0) }
                _ => { let lt = c.ult(x, y); c.ite(lt, x, y) }
            };
            let out = c.var("out", 8);
            let kx = c.constant(xv, 8);
            let ky = c.constant(yv, 8);
            let ex = c.eq(x, kx);
            let ey = c.eq(y, ky);
            let eo = c.eq(out, expr);
            let mut s = BvSolver::new(&c);
            s.assert_term(ex);
            s.assert_term(ey);
            s.assert_term(eo);
            match s.check() {
                SmtResult::Sat(m) => {
                    let env: std::collections::HashMap<String, u64> =
                        [("x".to_owned(), xv), ("y".to_owned(), yv)].into();
                    assert_eq!(m.get("out").unwrap(), c.eval(expr, &env) & 0xff);
                }
                SmtResult::Unsat => panic!("pinned query must be sat"),
            }
        }
    }
}

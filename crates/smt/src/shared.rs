//! A shareable, long-lived solver handle over one hash-consed [`Context`].
//!
//! Every equivalence proof Rake issues used to build a fresh [`Context`],
//! re-interning the same load/constant/arithmetic terms thousands of times
//! per compilation. [`SharedSolver`] keeps a single context alive behind a
//! mutex: a query builds its term under the lock (hash-consing reuses any
//! structurally-identical term from earlier queries) and bit-blasts it
//! into a SAT solver it owns. The lock is then released, and the CDCL
//! search runs while other queries build and search concurrently.
//!
//! Neither sharing the context nor searching outside the lock can change
//! a verdict: the CNF a query sees is produced by a fresh `Blaster` that
//! allocates SAT variables lazily, in traversal order of the *asserted
//! term*, so it depends only on that term's structure — never on how many
//! unrelated terms the context already holds or on the numeric values of
//! their [`TermId`]s — and once blasted the SAT instance references the
//! context no more. DESIGN.md ("Performance") spells out the argument.

use std::sync::Mutex;

use sat::SatResult;

use crate::blast::Blaster;
use crate::term::{Context, TermId};

/// A mutex-guarded [`Context`] reused across many queries.
///
/// Cheap to share behind an `Arc`; each query holds the lock only while
/// it builds and bit-blasts its own term, never during the SAT search.
#[derive(Debug, Default)]
pub struct SharedSolver {
    ctx: Mutex<Context>,
}

impl SharedSolver {
    /// A fresh shared solver with an empty context.
    pub fn new() -> SharedSolver {
        SharedSolver::default()
    }

    /// Run `f` with exclusive access to the shared context.
    ///
    /// # Panics
    ///
    /// Panics if the mutex was poisoned by a panicking query.
    fn run<R>(&self, f: impl FnOnce(&mut Context) -> R) -> R {
        let mut ctx = self.ctx.lock().expect("shared solver context poisoned");
        f(&mut ctx)
    }

    /// Build a width-1 term under the shared context and decide whether it
    /// is unsatisfiable within `max_conflicts` CDCL conflicts. The search
    /// runs after the context lock is released.
    ///
    /// Returns `Some(true)` when unsatisfiable, `Some(false)` when a model
    /// exists, `None` when the conflict budget ran out ("unknown") or when
    /// `build` declined to produce a term (nothing is solved then).
    pub fn prove_unsat(
        &self,
        build: impl FnOnce(&mut Context) -> Option<TermId>,
        max_conflicts: u64,
    ) -> Option<bool> {
        let mut sp = trace::span("smt.prove_unsat", "smt");
        let (cnf, terms, new_terms) = self.run(|ctx| {
            let before = ctx.len();
            let cnf = build(ctx).map(|t| {
                let mut blaster = Blaster::new(ctx);
                blaster.assert_true(t);
                blaster.sat
            });
            (cnf, ctx.len(), ctx.len() - before)
        });
        let Some(mut sat) = cnf else {
            sp.arg("outcome", "unsupported");
            return None;
        };
        let verdict = sat.solve_limited(max_conflicts).map(|r| r == SatResult::Unsat);
        if sp.is_active() {
            let stats = sat.stats();
            sp.arg("terms", terms);
            sp.arg("new_terms", new_terms);
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

    /// Number of terms interned in the shared context — the observable
    /// measure of cross-query reuse (a repeated query adds zero terms).
    pub fn terms(&self) -> usize {
        self.run(|ctx| ctx.len())
    }
}

#[cfg(test)]
mod tests {
    use std::sync::atomic::{AtomicBool, Ordering};

    use super::*;

    fn commutes(s: &SharedSolver) -> Option<bool> {
        s.prove_unsat(
            |ctx| {
                let x = ctx.var("x", 8);
                let y = ctx.var("y", 8);
                let l = ctx.add(x, y);
                let r = ctx.add(y, x);
                Some(ctx.ne(l, r))
            },
            u64::MAX,
        )
    }

    /// Twenty unrelated queries that fill a context with terms before the
    /// query whose verdict is compared against a fresh context.
    fn pollute(s: &SharedSolver, tag: &str) {
        for seed in 0..20u64 {
            let _ = s.prove_unsat(
                |ctx| {
                    let x = ctx.var(&format!("{tag}{seed}"), 16);
                    let k = ctx.constant(seed, 16);
                    let sum = ctx.add(x, k);
                    Some(ctx.eq(sum, x))
                },
                u64::MAX,
            );
        }
    }

    /// 16-bit multiplication commutes: true, but no rewrite reorders a
    /// product's operands, so only the CDCL search can show it.
    fn mul_commutes(ctx: &mut Context) -> TermId {
        let x = ctx.var("hx", 16);
        let y = ctx.var("hy", 16);
        let l = ctx.mul(x, y);
        let r = ctx.mul(y, x);
        ctx.ne(l, r)
    }

    fn double_is_shift(ctx: &mut Context) -> Option<TermId> {
        let x = ctx.var("x", 16);
        let two = ctx.constant(2, 16);
        let l = ctx.mul(x, two);
        let r = ctx.shl(x, 1);
        Some(ctx.ne(l, r))
    }

    #[test]
    fn decides_across_queries() {
        let s = SharedSolver::new();
        assert_eq!(commutes(&s), Some(true));
        // A satisfiable query on the same context.
        let sat = s.prove_unsat(
            |ctx| {
                let x = ctx.var("x", 8);
                let k = ctx.constant(3, 8);
                Some(ctx.eq(x, k))
            },
            u64::MAX,
        );
        assert_eq!(sat, Some(false));
        // A declined build is "no verdict", not a proof.
        assert_eq!(s.prove_unsat(|_| None, u64::MAX), None);
    }

    #[test]
    fn repeated_queries_intern_no_new_terms() {
        let s = SharedSolver::new();
        assert_eq!(commutes(&s), Some(true));
        let after_first = s.terms();
        for _ in 0..5 {
            assert_eq!(commutes(&s), Some(true));
        }
        assert_eq!(s.terms(), after_first, "hash-consing must absorb repeats");
    }

    #[test]
    fn verdicts_match_fresh_context() {
        // The same query answered on a polluted shared context and on a
        // fresh private context must agree.
        let s = SharedSolver::new();
        pollute(&s, "p");
        let shared = s.prove_unsat(double_is_shift, u64::MAX);
        let fresh = SharedSolver::new().prove_unsat(double_is_shift, u64::MAX);
        assert_eq!(shared, fresh);
        assert_eq!(shared, Some(true));
    }

    #[test]
    fn concurrent_verdicts_match_fresh_context() {
        let fresh = SharedSolver::new().prove_unsat(double_is_shift, u64::MAX);
        let s = SharedSolver::new();
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..4)
                .map(|t| {
                    let s = &s;
                    scope.spawn(move || {
                        pollute(s, &format!("t{t}_"));
                        s.prove_unsat(double_is_shift, u64::MAX)
                    })
                })
                .collect();
            for h in handles {
                assert_eq!(h.join().expect("query thread"), fresh);
            }
        });
        assert_eq!(fresh, Some(true));
    }

    #[test]
    fn search_runs_outside_the_context_lock() {
        // A hard query with a budget it cannot finish quickly; while it
        // searches, another thread on the same solver must complete 100
        // queries. If the search held the lock, they would all queue
        // behind it and finish after it.
        let mut ctx = Context::new();
        let miter = mul_commutes(&mut ctx);
        let mut blaster = Blaster::new(&ctx);
        blaster.assert_true(miter);
        assert!(
            blaster.sat.num_vars() > 1,
            "normalization decided the hard query: it never reaches the search"
        );

        let s = SharedSolver::new();
        let hard_done = AtomicBool::new(false);
        let hard_started = AtomicBool::new(false);
        std::thread::scope(|scope| {
            scope.spawn(|| {
                let _ = s.prove_unsat(
                    |ctx| {
                        let miter = mul_commutes(ctx);
                        hard_started.store(true, Ordering::SeqCst);
                        Some(miter)
                    },
                    HARD_BUDGET,
                );
                hard_done.store(true, Ordering::SeqCst);
            });
            while !hard_started.load(Ordering::SeqCst) {
                std::thread::yield_now();
            }
            for _ in 0..100 {
                assert_eq!(commutes(&s), Some(true));
            }
            assert!(
                !hard_done.load(Ordering::SeqCst),
                "light queries waited for the hard query's search"
            );
        });
    }

    /// Conflicts the hard query may spend: far more than 100 light
    /// queries take, in debug and release builds alike.
    const HARD_BUDGET: u64 = 20_000;
}

//! Quantifier-free bit-vector SMT via bit-blasting.
//!
//! This crate is the reproduction's stand-in for Z3 (see DESIGN.md): the
//! synthesis queries Rake issues are quantifier-free bit-vector equivalence
//! checks, which we decide by Tseitin-encoding the terms to CNF and running
//! the [`rake-sat`](sat) CDCL core.
//!
//! The flow is:
//!
//! 1. build terms in a [`Context`] (hash-consed, normalized at word level),
//! 2. assert width-1 terms on a [`BvSolver`],
//! 3. [`BvSolver::check`] returns [`SmtResult::Unsat`] or a counterexample
//!    [`BvModel`] assigning every bit-vector variable.
//!
//! Rake's verifier asks yes/no questions under a conflict budget through
//! [`prove_unsat`] instead: each query builds its term on a fresh
//! `Context`, so no state is shared between queries or threads.
//!
//! # Example: prove `x + y == y + x` over 8-bit vectors
//!
//! ```
//! use rake_smt::{BvSolver, Context, SmtResult};
//!
//! let mut ctx = Context::new();
//! let x = ctx.var("x", 8);
//! let y = ctx.var("y", 8);
//! let lhs = ctx.add(x, y);
//! let rhs = ctx.add(y, x);
//! let diff = ctx.ne(lhs, rhs);
//!
//! let mut solver = BvSolver::new(&ctx);
//! solver.assert_term(diff);
//! assert_eq!(solver.check(), SmtResult::Unsat); // no distinguishing input
//! ```

mod blast;
#[cfg(test)]
mod normalize_tests;
mod solver;
mod term;

pub use solver::{check_equivalent, prove_unsat, BvModel, BvSolver, SmtResult};
pub use term::{Context, TermId};

//! Rake: synthesis-based vector instruction selection for DSPs.
//!
//! A Rust reproduction of *"Vector Instruction Selection for Digital
//! Signal Processors using Program Synthesis"* (Ahmad, Root, Adams, Kamil,
//! Cheung — ASPLOS 2022). Given a lowered, vectorized Halide IR expression,
//! [`Rake::compile`] synthesizes a provably-equivalent HVX instruction
//! sequence in three stages:
//!
//! 1. **lift** to the Uber-Instruction IR (Algorithm 1),
//! 2. **lower** each uber-instruction through swizzle-free sketches
//!    (Algorithm 2),
//! 3. **synthesize the data movement** (loads, `valign`, layout shuffles).
//!
//! The result carries the final expression, the flattened [`Program`], the
//! lifting trace (Figure 9) and per-stage synthesis statistics (Table 1).
//!
//! # Example
//!
//! ```
//! use halide_ir::builder::*;
//! use lanes::ElemType;
//! use rake::{Rake, Target};
//!
//! // A 3-tap horizontal filter row: u16(in(x-1)) + u16(in(x))*2 + u16(in(x+1)).
//! let t = |dx| widen(load("in", ElemType::U8, dx, 0));
//! let e = add(add(t(-1), mul(t(0), bcast(2, ElemType::U16))), t(1));
//!
//! let rake = Rake::new(Target::hvx_small(8)); // 8-lane model for the example
//! let compiled = rake.compile(&e)?;
//! assert!(compiled.hvx.to_string().contains("vtmpy"));
//! # Ok::<(), rake::CompileError>(())
//! ```

use std::collections::HashMap;
use std::fmt;

use halide_ir::Expr;
use hvx::{HvxExpr, Program};
use synth::{
    lift_expr_cancellable, lower_expr, LiftTrace, LoweringOptions, MemoHandle, SynthStats, Verifier,
};
use uber_ir::UberExpr;

/// The compilation target: vector geometry of the HVX-style machine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Target {
    /// Vectorization width in lanes (what the schedule chose).
    pub lanes: usize,
    /// Machine register width in bytes.
    pub vec_bytes: usize,
}

impl Target {
    /// Full-width HVX: 128-byte (1024-bit) registers, 128-lane tiles.
    pub fn hvx() -> Target {
        Target { lanes: 128, vec_bytes: 128 }
    }

    /// Full-width HVX registers with a narrower vectorization (used by
    /// benchmarks whose accumulators are 32-bit, so a tile still fits a
    /// register pair).
    pub fn hvx_with_lanes(lanes: usize) -> Target {
        Target { lanes, vec_bytes: 128 }
    }

    /// A scaled-down machine for fast tests and doc examples.
    pub fn hvx_small(lanes: usize) -> Target {
        Target { lanes, vec_bytes: lanes }
    }
}

/// Why compilation declined or failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CompileError {
    /// The expression is trivial (plain load/broadcast); Rake leaves these
    /// to LLVM (§7).
    NotQualifying,
    /// No verified lifting to the Uber-Instruction IR was found.
    LiftFailed,
    /// No verified lowering to the target ISA was found.
    LowerFailed,
    /// The final end-to-end equivalence check failed (would indicate a bug
    /// in the synthesis engine; surfaced rather than silently miscompiled).
    FinalCheckFailed,
    /// Synthesis was cut short by the configured wall-clock deadline
    /// ([`LoweringOptions::deadline`]). Unlike [`CompileError::LiftFailed`]
    /// and [`CompileError::LowerFailed`], this does not prove the
    /// expression uncompilable — a retry with more time may succeed.
    DeadlineExceeded,
}

impl fmt::Display for CompileError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CompileError::NotQualifying => write!(f, "expression is trivial; left to LLVM"),
            CompileError::LiftFailed => write!(f, "no verified lifting found"),
            CompileError::LowerFailed => write!(f, "no verified lowering found"),
            CompileError::FinalCheckFailed => {
                write!(f, "final end-to-end equivalence check failed")
            }
            CompileError::DeadlineExceeded => {
                write!(f, "synthesis deadline exceeded before a result was found")
            }
        }
    }
}

impl std::error::Error for CompileError {}

/// A successful compilation.
#[derive(Debug, Clone)]
pub struct Compiled {
    /// The lifted Uber-Instruction IR expression.
    pub uber: UberExpr,
    /// The synthesized HVX expression (natural output order).
    pub hvx: HvxExpr,
    /// The flattened, CSE'd instruction program.
    pub program: Program,
    /// Accepted lifting steps (the Figure 9 demonstration).
    pub trace: LiftTrace,
    /// Per-stage query counts and times (Table 1).
    pub stats: SynthStats,
}

/// The synthesis-based instruction selector.
#[derive(Debug, Clone)]
pub struct Rake {
    target: Target,
    verifier: Verifier,
    options: LoweringOptions,
}

impl Rake {
    /// An instruction selector for the given target, with default search
    /// options (backtracking and layout exploration on).
    pub fn new(target: Target) -> Rake {
        let verifier = Verifier {
            lanes: target.lanes,
            vec_bytes: target.vec_bytes,
            ..Verifier::default()
        };
        let options = LoweringOptions {
            lanes: target.lanes,
            vec_bytes: target.vec_bytes,
            ..LoweringOptions::default()
        };
        Rake { target, verifier, options }
    }

    /// Override the lowering search options (ablations).
    pub fn with_options(mut self, options: LoweringOptions) -> Rake {
        self.options = LoweringOptions {
            lanes: self.target.lanes,
            vec_bytes: self.target.vec_bytes,
            ..options
        };
        self
    }

    /// Override the verification effort.
    pub fn with_verifier(mut self, verifier: Verifier) -> Rake {
        self.verifier = Verifier {
            lanes: self.target.lanes,
            vec_bytes: self.target.vec_bytes,
            ..verifier
        };
        self
    }

    /// The compilation target.
    pub fn target(&self) -> Target {
        self.target
    }

    /// The lowering search options in effect.
    pub fn options(&self) -> LoweringOptions {
        self.options
    }

    /// The verification effort in effect.
    pub fn verifier(&self) -> &Verifier {
        &self.verifier
    }

    /// Compile one qualifying Halide IR vector expression to HVX.
    ///
    /// Each call verifies against a cold memo of its own, so the
    /// [`Compiled::stats`] counters are exactly this compilation's work;
    /// only the verifier's process-global proof cache carries over from
    /// earlier compilations.
    ///
    /// # Errors
    ///
    /// Returns [`CompileError`] when the expression is trivial, when either
    /// synthesis stage finds no verified candidate, or when the final
    /// end-to-end check fails.
    pub fn compile(&self, e: &Expr) -> Result<Compiled, CompileError> {
        if !halide_ir::analysis::is_qualifying(e) {
            return Err(CompileError::NotQualifying);
        }
        let mut stats = SynthStats::default();
        let verifier = Verifier { memo: MemoHandle::default(), ..self.verifier.clone() };
        let lifted = lift_expr_cancellable(
            e,
            &verifier,
            self.options.deadline,
            self.options.cancel,
            self.options.max_lift_depth,
            &mut stats,
        );
        let Some((uber, trace)) = lifted else {
            return Err(if stats.deadline_exceeded {
                CompileError::DeadlineExceeded
            } else {
                CompileError::LiftFailed
            });
        };
        let Some(hvx) = lower_expr(&uber, &verifier, self.options, &mut stats) else {
            return Err(if stats.deadline_exceeded {
                CompileError::DeadlineExceeded
            } else {
                CompileError::LowerFailed
            });
        };
        // The verifier's geometry was pinned to the target in the
        // constructors, so it is used directly for the final check.
        {
            let mut sp = trace::span("verify.final", "verify");
            if !verifier.equiv_halide_hvx(e, &hvx) {
                sp.arg("passed", false);
                return Err(CompileError::FinalCheckFailed);
            }
            sp.arg("passed", true);
        }
        let program = hvx.to_program();
        let memo = verifier.memo_snapshot();
        stats.smt_queries += memo.smt_queries;
        stats.smt_time += memo.smt_time();
        stats.proof_cache_hits += memo.proof_hits;
        stats.env_cache_hits += memo.env_hits;
        Ok(Compiled { uber, hvx, program, trace, stats })
    }

    /// Compile every qualifying expression of a pipeline, collecting the
    /// per-expression outcomes and merged statistics — Rake's "patch the
    /// lowered program" step (§2.2).
    ///
    /// Structurally identical expressions are synthesized once: repeats
    /// reuse the first outcome and count as [`SynthStats::cache_hits`].
    /// The per-expression outcomes and skip/fail counts are unaffected.
    pub fn compile_pipeline(&self, exprs: &[Expr]) -> PipelineReport {
        let mut report = PipelineReport::default();
        let mut memo: HashMap<&Expr, Result<Compiled, CompileError>> = HashMap::new();
        for e in exprs {
            let (outcome, hit) = match memo.get(e) {
                Some(cached) => (cached.clone(), true),
                None => {
                    let fresh = self.compile(e);
                    memo.insert(e, fresh.clone());
                    (fresh, false)
                }
            };
            if hit {
                // Reused outcome: no new queries, just a cache hit.
                report.stats.cache_hits += 1;
            } else if let Ok(ref c) = outcome {
                report.stats.merge(&c.stats);
            }
            match outcome {
                Ok(c) => report.compiled.push((e.clone(), Some(c))),
                Err(err) => {
                    report.skipped += usize::from(err == CompileError::NotQualifying);
                    report.failed += usize::from(err != CompileError::NotQualifying);
                    report.compiled.push((e.clone(), None));
                }
            }
        }
        report
    }
}

/// Outcome of compiling a set of pipeline expressions.
#[derive(Debug, Clone, Default)]
pub struct PipelineReport {
    /// Each input expression with its compilation (if any).
    pub compiled: Vec<(Expr, Option<Compiled>)>,
    /// Expressions skipped as trivial.
    pub skipped: usize,
    /// Qualifying expressions with no verified implementation.
    pub failed: usize,
    /// Merged synthesis statistics.
    pub stats: SynthStats,
}

impl PipelineReport {
    /// Number of expressions Rake successfully optimized.
    pub fn optimized(&self) -> usize {
        self.compiled.iter().filter(|(_, c)| c.is_some()).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use halide_ir::builder::*;
    use lanes::ElemType;

    fn rake8() -> Rake {
        Rake::new(Target::hvx_small(8)).with_verifier(Verifier::fast())
    }

    #[test]
    fn compiles_conv_row_to_vtmpy() {
        let t = |dx| widen(load("in", ElemType::U8, dx, 0));
        let e = add(add(t(-1), mul(t(0), bcast(2, ElemType::U16))), t(1));
        let c = rake8().compile(&e).expect("must compile");
        assert!(c.hvx.to_string().contains("vtmpy"), "got:\n{}", c.hvx);
        assert!(c.stats.lifting_queries > 0);
        assert!(c.stats.sketching_queries > 0);
        assert!(!c.trace.steps.is_empty());
        assert!(c.program.len() >= 3);
    }

    #[test]
    fn rejects_trivial_exprs() {
        assert_eq!(
            rake8().compile(&load("in", ElemType::U8, 0, 0)).unwrap_err(),
            CompileError::NotQualifying
        );
        assert_eq!(
            rake8().compile(&bcast(3, ElemType::U8)).unwrap_err(),
            CompileError::NotQualifying
        );
    }

    #[test]
    fn gaussian_tail_uses_fused_narrow() {
        // u8((row + 8) >> 4) — must compile to vasr-narrow:rnd:sat.
        let t = |dx| widen(load("in", ElemType::U8, dx, 0));
        let row = add(add(t(-1), mul(t(0), bcast(2, ElemType::U16))), t(1));
        let e = cast(ElemType::U8, shr(add(row, bcast(8, ElemType::U16)), 4));
        let c = rake8().compile(&e).expect("must compile");
        let text = c.hvx.to_string();
        assert!(text.contains("vasr-narrow:rnd:sat"), "got:\n{text}");
        assert!(text.contains("vtmpy"), "got:\n{text}");
        // Fused narrow consumes the deinterleaved pair: no shuffle at all.
        assert!(!text.contains("vshuffvdd"), "got:\n{text}");
    }

    #[test]
    fn pipeline_report_aggregates() {
        let t = |dx| widen(load("in", ElemType::U8, dx, 0));
        let exprs = vec![
            add(t(0), t(1)),
            load("in", ElemType::U8, 0, 0), // trivial
            absd(load("a", ElemType::U8, 0, 0), load("b", ElemType::U8, 0, 0)),
        ];
        let report = rake8().compile_pipeline(&exprs);
        assert_eq!(report.optimized(), 2);
        assert_eq!(report.skipped, 1);
        assert_eq!(report.failed, 0);
        assert!(report.stats.lifting_queries > 0);
    }

    #[test]
    fn pipeline_dedupes_identical_exprs() {
        let t = |dx| widen(load("in", ElemType::U8, dx, 0));
        let e1 = add(t(0), t(1));
        let e2 = absd(load("a", ElemType::U8, 0, 0), load("b", ElemType::U8, 0, 0));
        let exprs = vec![e1.clone(), e1.clone(), e2, e1];
        let report = rake8().compile_pipeline(&exprs);
        assert_eq!(report.optimized(), 4);
        assert_eq!(report.stats.cache_hits, 2);
        // The duplicates reuse the first compilation's result verbatim.
        let texts: Vec<String> = report
            .compiled
            .iter()
            .filter(|(e, _)| *e == exprs[0])
            .map(|(_, c)| c.as_ref().unwrap().hvx.to_string())
            .collect();
        assert_eq!(texts.len(), 3);
        assert!(texts.iter().all(|t| t == &texts[0]));
    }

    #[test]
    fn expired_deadline_reports_deadline_exceeded() {
        let opts = LoweringOptions {
            deadline: Some(std::time::Instant::now()),
            ..LoweringOptions::default()
        };
        let rake = rake8().with_options(opts);
        let t = |dx| widen(load("in", ElemType::U8, dx, 0));
        let e = add(add(t(-1), mul(t(0), bcast(2, ElemType::U16))), t(1));
        assert_eq!(rake.compile(&e).unwrap_err(), CompileError::DeadlineExceeded);
    }

    #[test]
    fn compiles_with_symbolic_lowering_proofs() {
        // Every lowering step proved by the symbolic HVX executor.
        let rake = Rake::new(Target::hvx_small(8))
            .with_verifier(Verifier { smt_lowering: true, ..Verifier::fast() });
        let t = |dx| widen(load("in", ElemType::U8, dx, 0));
        let e = add(add(t(-1), mul(t(0), bcast(2, ElemType::U16))), t(1));
        let c = rake.compile(&e).expect("must compile under smt_lowering");
        assert!(c.hvx.to_string().contains("vtmpy"), "got:\n{}", c.hvx);
    }

    #[test]
    fn compiled_program_runs_and_matches_ir() {
        use halide_ir::{Buffer2D, Env, EvalCtx};
        let e = absd(load("a", ElemType::U8, 0, 0), load("a", ElemType::U8, 1, 0));
        let c = rake8().compile(&e).expect("must compile");
        let mut env = Env::new();
        env.insert(Buffer2D::from_fn("a", ElemType::U8, 32, 1, |x, _| (x * x % 251) as i64));
        let want = halide_ir::eval(&e, &EvalCtx { env: &env, x0: 4, y0: 0, lanes: 8 }).unwrap();
        let got = c.program.run(&env, 4, 0, 8).unwrap();
        assert_eq!(got.typed_lanes(ElemType::U8), want);
    }
}

//! Hot-path equivalence and regression properties: memoization must be a
//! pure speedup. Verdicts, lifted programs and compiled output are
//! identical with it on or off, and the memoized path never issues more
//! SMT queries than the unmemoized one.

use oracle::{gen_expr, GenConfig};
use rake::{Rake, Target};
use synth::Verifier;

fn verifier(memoize: bool) -> Verifier {
    // fast() with a tighter proof budget: generated streams hit a few
    // adversarial queries that would otherwise burn the full 50k-conflict
    // budget twice per expression. Both sides share the budget, so the
    // equivalence property is unaffected.
    Verifier { memoize, smt_conflict_budget: 5_000, ..Verifier::fast() }
}

fn rake(memoize: bool) -> Rake {
    Rake::new(Target::hvx_small(8)).with_verifier(verifier(memoize))
}

/// Property: over a seeded stream of generated expressions, the memoized
/// and unmemoized verifiers reach identical compilation outcomes — same
/// accept/reject verdicts all the way down, same final programs.
#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "compiles a generated stream twice; run with: cargo test --release"
)]
fn memoized_and_unmemoized_compilations_agree_on_generated_streams() {
    let cfg = GenConfig::default();
    let mut rng = lanes::rng::Rng::seed_from_u64(0x5EED_4);
    let memo = rake(true);
    let plain = rake(false);
    for i in 0..30 {
        let e = gen_expr(&mut rng, &cfg);
        let a = memo.compile(&e);
        let b = plain.compile(&e);
        match (&a, &b) {
            (Ok(ca), Ok(cb)) => {
                assert_eq!(ca.uber, cb.uber, "lifted programs differ on #{i}: {e}");
                assert_eq!(
                    ca.program.to_string(),
                    cb.program.to_string(),
                    "compiled programs differ on #{i}: {e}"
                );
            }
            (Err(ea), Err(eb)) => assert_eq!(ea, eb, "errors differ on #{i}: {e}"),
            _ => panic!(
                "outcomes differ on #{i}: {e}\nmemoized: {:?}\nunmemoized: {:?}",
                a.as_ref().map(|c| c.program.to_string()),
                b.as_ref().map(|c| c.program.to_string()),
            ),
        }
    }
    // The memoized run answered from cache at least some of the time and
    // never proved more than the unmemoized run.
    let (m, p) = (memo.verifier().memo_snapshot(), plain.verifier().memo_snapshot());
    assert!(m.verdict_hits > 0, "stream produced no cache hits");
    assert!(m.smt_queries <= p.smt_queries, "memoization increased SMT queries");
}

/// Regression: with memoization on, compiling the sobel workload issues no
/// more SMT queries than the unmemoized pre-memo path did — the cache can
/// only remove proofs, never add them.
#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "full sobel synthesis; run with: cargo test --release"
)]
fn sobel_smt_queries_are_monotone_non_increasing_under_memoization() {
    let w = workloads::by_name("sobel").expect("sobel registered");
    let lanes = (16 * w.lanes / 128).max(4); // quick geometry
    let bench_like = |memoize: bool| Verifier {
        lanes,
        vec_bytes: 16,
        alt_lanes: (lanes / 2).max(4),
        random_envs: 6,
        use_smt: true,
        smt_lanes: 1,
        smt_conflict_budget: 10_000,
        smt_lowering: false,
        memoize,
        ..Verifier::default()
    };
    let target = Target { lanes, vec_bytes: 16 };
    let compile = |memoize: bool| {
        Rake::new(target)
            .with_verifier(bench_like(memoize))
            .compile_pipeline(&w.exprs)
            .stats
    };
    let plain = compile(false);
    let memo = compile(true);
    assert!(
        memo.smt_queries <= plain.smt_queries,
        "memoized sobel proved more: {} > {}",
        memo.smt_queries,
        plain.smt_queries
    );
    assert!(memo.verdict_cache_hits > 0, "sobel should hit the verdict cache");
}

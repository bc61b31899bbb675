//! Hot-path equivalence and regression properties: memoization must be a
//! pure speedup. Verdicts, lifted programs and compiled output are
//! identical with it on or off, and the memoized path never issues more
//! SMT queries than the unmemoized one. The work counts a compilation
//! reports also agree with the spans it traced.

use oracle::{gen_expr, GenConfig};
use rake::{Rake, Target};
use rake_bench::{bench_verifier, run_workload, RunConfig};
use synth::{SynthStats, Verifier};
use trace::{ArgValue, SpanRecord};

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
    let (mut env_hits, mut proof_hits, mut memo_queries, mut plain_queries) = (0, 0, 0, 0);
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
                env_hits += ca.stats.env_cache_hits;
                proof_hits += ca.stats.proof_cache_hits;
                memo_queries += ca.stats.smt_queries;
                plain_queries += cb.stats.smt_queries;
            }
            (Err(ea), Err(eb)) => assert_eq!(ea, eb, "errors differ on #{i}: {e}"),
            _ => panic!(
                "outcomes differ on #{i}: {e}\nmemoized: {:?}\nunmemoized: {:?}",
                a.as_ref().map(|c| c.program.to_string()),
                b.as_ref().map(|c| c.program.to_string()),
            ),
        }
    }
    // The memoized run reused its test families, and it asked exactly the
    // proofs the unmemoized run solved: each one either solved or answered
    // from the proof cache.
    assert!(env_hits > 0, "stream reused no test family");
    assert_eq!(memo_queries + proof_hits, plain_queries, "the two runs asked different proofs");
}

/// Every compilation starts from a cold memo, so compiling one expression
/// twice on one `Rake` reports the same work both times. The second
/// compile answers from the process-wide proof cache what the first
/// proved, so hits plus queries is what stays equal.
#[test]
fn compiling_twice_reports_the_same_work() {
    let w = workloads::by_name("sobel").expect("sobel registered");
    let cfg = RunConfig::quick(&w);
    let rake = Rake::new(Target { lanes: cfg.lanes, vec_bytes: cfg.vec_bytes })
        .with_verifier(bench_verifier(cfg));
    let work = || {
        let s = rake.compile(&w.exprs[0]).expect("sobel[0] compiles").stats;
        (s.env_cache_hits, s.proof_cache_hits + s.smt_queries)
    };
    let first = work();
    assert!(first.0 > 0 && first.1 > 0, "sobel[0] did no memoized work: {first:?}");
    assert_eq!(work(), first, "(env hits, proof hits + queries) of two compiles");
}

/// Regression: with memoization on, compiling the sobel workload issues no
/// more SMT queries than the unmemoized pre-memo path did — the cache can
/// only remove proofs, never add them.
#[test]
#[cfg_attr(debug_assertions, ignore = "full sobel synthesis; run with: cargo test --release")]
fn sobel_smt_queries_are_monotone_non_increasing_under_memoization() {
    let w = workloads::by_name("sobel").expect("sobel registered");
    let compile = |memoize: bool| {
        let cfg = RunConfig { memoize, ..RunConfig::quick(&w) };
        Rake::new(Target { lanes: cfg.lanes, vec_bytes: cfg.vec_bytes })
            .with_verifier(bench_verifier(cfg))
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
    assert!(memo.env_cache_hits > 0, "sobel should reuse its test families");
    assert!(memo.proof_cache_hits > 0, "sobel's translated rows should share proofs");
}

/// The ledger adds up: over the whole quick suite, compiled through the
/// driver under one traced root span, every SMT query counted in the
/// stats is one `smt.prove_unsat` span, every proof-cache hit is one
/// `verify.smt_equiv` span on the `proof-cache` path, and every proof is
/// decided. An `unknown` is a lifting step accepted on differential
/// evidence alone; a `sat` is a compiler bug. Proof-cache hits depend on
/// how the workers interleave, so the counts are compared within the run,
/// never against a constant.
#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "compiles the whole quick suite; run with: cargo test --release"
)]
fn quick_suite_stats_match_its_trace() {
    trace::enable();
    let dropped_before = trace::dropped();
    let trace_id = trace::new_trace_id();
    let mut stats = SynthStats::default();
    {
        let _root = trace::span_root("ledger.suite", "test", trace_id);
        for w in workloads::all() {
            stats.merge(&run_workload(&w, RunConfig::quick(&w)).stats);
        }
    }
    let spans = trace::drain_trace(trace_id);
    trace::disable();
    assert_eq!(trace::dropped(), dropped_before, "the span ring overflowed during the run");

    let arg =
        |s: &SpanRecord, key: &str| s.args.iter().find(|(k, _)| *k == key).map(|(_, v)| v.clone());
    let str_arg = |v: &str| Some(ArgValue::Str(v.to_owned()));
    let queries = spans.iter().filter(|s| s.name == "smt.prove_unsat").count() as u64;
    let proof_hits = spans
        .iter()
        .filter(|s| s.name == "verify.smt_equiv" && arg(s, "path") == str_arg("proof-cache"))
        .count() as u64;
    assert!(queries > 0, "the quick suite traced no SMT query");
    assert_eq!(stats.smt_queries, queries, "stats.smt_queries vs smt.prove_unsat spans");
    assert_eq!(stats.proof_cache_hits, proof_hits, "stats.proof_cache_hits vs proof-cache spans");
    let undecided: Vec<String> = spans
        .iter()
        .filter(|s| {
            let outcome = arg(s, "outcome");
            outcome == str_arg("unknown") || outcome == str_arg("sat")
        })
        .map(|s| format!("{} {:?}", s.name, s.args))
        .collect();
    assert!(undecided.is_empty(), "undecided proofs in the quick suite:\n{}", undecided.join("\n"));
}

//! The conformance harness: apply relations, compile both sides,
//! compare lane-for-lane, check cost envelopes, minimize violations.

use std::cell::RefCell;
use std::collections::{BTreeMap, HashMap};
use std::io;
use std::net::TcpStream;
use std::path::PathBuf;
use std::time::{Duration, Instant};

use driver::json::{self, Json};
use driver::{Driver, DriverConfig};
use halide_ir::{eval, Buffer2D, Env, EvalCtx, Expr};
use hvx::{CostModel, Program};
use lanes::rng::Rng;
use lanes::Vector;
use oracle::{gen_expr, GenConfig, Oracle};
use rake::{Rake, Target};
use synth::Verifier;

use crate::relations::{Applied, Relation};

/// Harness configuration (the `conform` binary's flags).
#[derive(Debug, Clone)]
pub struct HarnessConfig {
    /// Base RNG seed for environments and generated expressions.
    pub seed: u64,
    /// Relation-name filter; `None` runs the whole catalog.
    pub relations: Option<Vec<String>>,
    /// Wall-clock cap; exceeding it truncates the run (reported, never
    /// silent).
    pub budget: Option<Duration>,
    /// Compile over HTTP via a running `rake-served` at this address
    /// instead of in-process.
    pub server: Option<String>,
    /// Directory for minimized repros.
    pub out: PathBuf,
    /// Number of oracle-generated expressions to sweep.
    pub generated: usize,
    /// Vector width for the generated/seeded sweep.
    pub gen_lanes: usize,
    /// Sweep only the first N workloads (`None` = all 21). For quick
    /// smokes; the nightly gate runs uncapped.
    pub workloads: Option<usize>,
}

impl Default for HarnessConfig {
    fn default() -> HarnessConfig {
        HarnessConfig {
            seed: oracle::fnv1a(b"RAKE"),
            relations: None,
            budget: None,
            server: None,
            out: "results/repros/conform".into(),
            generated: 12,
            gen_lanes: 8,
            workloads: None,
        }
    }
}

/// Per-relation tallies.
#[derive(Debug, Clone, Copy, Default)]
pub struct RelationStats {
    /// Pairs where the relation applied and both sides compiled.
    pub applied: usize,
    /// Expressions the relation did not apply to (or a side failed to
    /// compile).
    pub skipped: usize,
    /// Pairs with a lane mismatch (each minimized into a repro).
    pub violations: usize,
    /// Pairs whose variant cost left the declared envelope.
    pub cost_violations: usize,
}

/// What a conformance run concluded.
#[derive(Debug, Clone, Default)]
pub struct Summary {
    /// Expressions swept (workloads + generated + seeded).
    pub exprs: usize,
    /// (Relation, expression) pairs fully checked.
    pub pairs: usize,
    /// (env, origin) points compared across all pairs.
    pub points: usize,
    /// Pairs with a lane-for-lane output mismatch.
    pub violations: usize,
    /// Pairs outside their cost envelope.
    pub cost_violations: usize,
    /// Relation applications where the *interpreter* disagreed with
    /// itself — a catalog bug, reported separately from compiler bugs.
    pub unsound: usize,
    /// Pairs skipped because a side failed to compile.
    pub skipped_pairs: usize,
    /// Whether the wall-clock budget truncated the sweep.
    pub truncated: bool,
    /// Per-relation tallies, keyed by relation name.
    pub per_relation: BTreeMap<String, RelationStats>,
    /// Minimized repro artifacts written this run.
    pub repros: Vec<PathBuf>,
}

impl Summary {
    /// Whether the run found no compiler or catalog misbehavior.
    pub fn clean(&self) -> bool {
        self.violations == 0 && self.cost_violations == 0 && self.unsound == 0
    }
}

/// One compiled side of a pair.
struct Side {
    program: Program,
}

/// Compilation backend: in-process drivers (one per lane width, sharing
/// a warm canonicalizing cache across relations) or a remote
/// `rake-served` instance.
enum Backend {
    Local { ctxs: HashMap<usize, LocalCtx> },
    Server { addr: String },
}

struct LocalCtx {
    driver: Driver,
}

fn base_rake(lanes: usize) -> Rake {
    Rake::new(Target::hvx_small(lanes)).with_verifier(Verifier {
        lanes,
        vec_bytes: lanes,
        ..Verifier::fast()
    })
}

impl Backend {
    fn local_ctx(&mut self, lanes: usize) -> Option<&LocalCtx> {
        match self {
            Backend::Local { ctxs } => Some(ctxs.entry(lanes).or_insert_with(|| {
                let driver = Driver::new(base_rake(lanes)).with_config(DriverConfig {
                    workers: 2,
                    job_timeout: Some(Duration::from_secs(60)),
                    validate: false,
                    ..DriverConfig::default()
                });
                LocalCtx { driver }
            })),
            Backend::Server { .. } => None,
        }
    }

    /// Compile a batch of labeled expressions at one width. Entries that
    /// fail to produce any runnable program come back `None`.
    fn compile(&mut self, batch: &[(String, Expr)], lanes: usize) -> io::Result<Vec<Option<Side>>> {
        let sides = match self {
            Backend::Local { .. } => {
                let ctx = self.local_ctx(lanes).expect("local backend");
                let report = ctx.driver.compile_batch_named(batch.to_vec());
                report
                    .results
                    .iter()
                    .map(|r| r.program().map(|p| Side { program: p.clone() }))
                    .collect()
            }
            Backend::Server { addr } => server_compile(addr, batch, lanes)?,
        };
        for side in sides.iter().flatten() {
            synth::coverage::record_program(&side.program);
        }
        Ok(sides)
    }
}

/// POST the batch to `rake-served` and rematerialize runnable programs
/// from the returned HVX S-expressions.
fn server_compile(
    addr: &str,
    batch: &[(String, Expr)],
    lanes: usize,
) -> io::Result<Vec<Option<Side>>> {
    let exprs: Vec<Json> =
        batch.iter().map(|(_, e)| Json::Str(halide_ir::sexpr::to_sexpr(e))).collect();
    let body = Json::obj([("exprs", Json::Arr(exprs)), ("lanes", lanes.into())]).to_string();
    let mut stream = TcpStream::connect(addr)?;
    let (status, reply) =
        served::http::roundtrip(&mut stream, "POST", "/compile", Some(body.as_bytes()))?;
    if status != 200 {
        return Err(io::Error::other(format!(
            "server returned {status}: {}",
            String::from_utf8_lossy(&reply)
        )));
    }
    let text =
        std::str::from_utf8(&reply).map_err(|_| io::Error::other("non-UTF-8 compile response"))?;
    let doc = json::parse(text).map_err(|e| io::Error::other(format!("bad response: {e}")))?;
    let results = doc
        .get("results")
        .and_then(|r| r.as_arr())
        .ok_or_else(|| io::Error::other("response missing `results`"))?;
    Ok(results.iter().map(parse_side).collect())
}

fn parse_side(r: &Json) -> Option<Side> {
    if r.get("outcome")?.as_str()? != "compiled" {
        return None;
    }
    let hvx_expr = hvx::sexpr::parse(r.get("hvx")?.as_str()?).ok()?;
    Some(Side { program: hvx_expr.to_program() })
}

/// Rebuild the environment a transformed variant must be evaluated in:
/// the base environment with each renamed buffer duplicated under its
/// new name (contents identical).
pub fn variant_env(env: &Env, applied: &Applied) -> Env {
    if applied.renames.is_empty() {
        return env.clone();
    }
    let mut out = env.clone();
    for (old, new) in &applied.renames {
        if let Some(b) = env.get(old) {
            out.insert(Buffer2D::from_fn(new, b.elem(), b.width(), b.height(), |x, y| {
                b.get(x as i64, y as i64)
            }));
        }
    }
    out
}

/// Expressions hand-seeded toward lifting rules the workload corpus
/// under-exercises (minima, absolute differences, rounding averages,
/// clamp stripping, deepened narrows) — the coverage report's feedback
/// loop made concrete.
pub fn seed_corpus() -> Vec<(String, Expr)> {
    use halide_ir::builder as hb;
    use lanes::ElemType;
    let ld = |b: &str, dx: i32| hb::load(b, ElemType::U8, dx, 0);
    let wide = |b: &str, dx: i32| hb::widen(hb::load(b, ElemType::U8, dx, 0));
    vec![
        (
            "seed_minmax".to_owned(),
            hb::min(hb::max(ld("a", 0), ld("b", 0)), hb::max(ld("a", 1), ld("b", 1))),
        ),
        ("seed_absd".to_owned(), hb::max(hb::absd(ld("a", 0), ld("a", 1)), ld("b", 0))),
        (
            "seed_average".to_owned(),
            hb::shr(hb::add(hb::add(wide("a", 0), wide("b", 0)), hb::bcast(1, ElemType::U16)), 1),
        ),
        (
            "seed_clamp".to_owned(),
            hb::cast(ElemType::U8, hb::clamp(hb::add(wide("a", 0), wide("a", 1)), 0, 255)),
        ),
        ("seed_vvmpy".to_owned(), hb::mul(wide("a", 0), wide("b", 0))),
        ("seed_scalar".to_owned(), hb::mul(hb::bcast_load("w", 2, 0, ElemType::U8), ld("a", 0))),
        (
            "seed_shl_weight".to_owned(),
            hb::add(hb::shl(hb::cast(ElemType::I16, ld("a", 0)), 6), hb::bcast(-64, ElemType::I16)),
        ),
        (
            "seed_narrow_deepen".to_owned(),
            hb::shr(hb::cast(ElemType::U8, hb::shr(hb::add(wide("a", 0), wide("a", 1)), 2)), 1),
        ),
        (
            "seed_rounding".to_owned(),
            hb::cast(
                ElemType::U8,
                hb::shr(
                    hb::add(
                        hb::add(
                            hb::add(
                                wide("a", -1),
                                hb::mul(wide("a", 0), hb::bcast(2, ElemType::U16)),
                            ),
                            wide("a", 1),
                        ),
                        hb::bcast(8, ElemType::U16),
                    ),
                    4,
                ),
            ),
        ),
        (
            "seed_widen_identity".to_owned(),
            hb::add(hb::cast(ElemType::U8, hb::widen(ld("a", 0))), ld("a", 1)),
        ),
        // A sum of products sharing a multiplicand: the only shape the
        // `factor` relation applies to, absent from the paper workloads.
        (
            "seed_factor".to_owned(),
            hb::add(
                hb::mul(wide("a", 0), hb::bcast(3, ElemType::U16)),
                hb::mul(wide("a", 0), hb::bcast(5, ElemType::U16)),
            ),
        ),
        // A two-tap dot product: an Add over two vector-vector multiplies,
        // each lifting to a non-saturating vv-mpy-add, so the Add merges
        // their pair lists (`add.vvmpy-merge`). The paper workloads reach
        // vv-mpy only through single products.
        (
            "seed_vvmpy_merge".to_owned(),
            hb::add(
                hb::mul(wide("a", 0), wide("b", 0)),
                hb::mul(wide("a", 1), wide("b", 1)),
            ),
        ),
    ]
}

/// A minimizer subject compiling each candidate with the sweep's own
/// selector, memoized by S-expression (the minimizer re-invokes the
/// subject per shrink candidate).
struct CompilingSubject {
    rake: Rake,
    programs: RefCell<HashMap<String, Option<Program>>>,
}

impl CompilingSubject {
    fn new(lanes: usize) -> CompilingSubject {
        CompilingSubject { rake: base_rake(lanes), programs: RefCell::new(HashMap::new()) }
    }

    fn run(&self, e: &Expr, env: &Env, x0: i64, y0: i64, lanes: usize) -> Option<Vector> {
        let key = halide_ir::sexpr::to_sexpr(e);
        let mut programs = self.programs.borrow_mut();
        let program = programs
            .entry(key)
            .or_insert_with(|| {
                std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| self.rake.compile(e)))
                    .ok()
                    .and_then(|r| r.ok())
                    .map(|c| c.program)
            })
            .as_ref()?;
        program.run(env, x0, y0, lanes).ok().map(|v| v.typed_lanes(e.ty()))
    }
}

/// Run the full conformance sweep.
///
/// # Errors
///
/// Propagates server I/O failures (`--via-server` mode) and repro
/// emission failures; compiler misbehavior is reported in the
/// [`Summary`], not as an error.
pub fn run(cfg: &HarnessConfig) -> io::Result<Summary> {
    synth::coverage::reset();
    let rels: Vec<Relation> = crate::relations::catalog()
        .into_iter()
        .filter(|r| cfg.relations.as_ref().is_none_or(|f| f.iter().any(|n| n == r.name)))
        .collect();
    let mut backend = match &cfg.server {
        Some(addr) => Backend::Server { addr: addr.clone() },
        None => Backend::Local { ctxs: HashMap::new() },
    };
    let mut summary = Summary::default();
    for r in &rels {
        summary.per_relation.insert(r.name.to_owned(), RelationStats::default());
    }
    let t0 = Instant::now();
    let over_budget = |t0: Instant| cfg.budget.is_some_and(|b| t0.elapsed() > b);

    // Phase 1: the 21 paper workloads at quick-scaled widths.
    let sweep: Vec<_> = workloads::all();
    let cap = cfg.workloads.unwrap_or(sweep.len());
    if cap < sweep.len() {
        // Never truncate silently: a capped smoke says so.
        eprintln!("conform: sweeping {cap} of {} workloads (--workloads)", sweep.len());
    }
    for w in sweep.into_iter().take(cap) {
        if over_budget(t0) {
            summary.truncated = true;
            break;
        }
        let mut lanes = (16 * w.lanes / 128).max(4);
        if cfg.server.is_some() {
            lanes = lanes.max(8); // the server rejects sub-HVX widths
        }
        for (i, e) in w.exprs.iter().enumerate() {
            let label = format!("{}_{i}", w.name);
            check_expr(&mut backend, &rels, &label, e, lanes, cfg, &mut summary)?;
        }
    }

    // Phase 2: oracle-generated expressions plus the coverage-seeded
    // corpus, at the configured width.
    let mut lanes = cfg.gen_lanes;
    if cfg.server.is_some() {
        lanes = lanes.max(8);
    }
    let gen_cfg = GenConfig { max_nodes: 14, ..GenConfig::default() };
    let mut rng = Rng::seed_from_u64(cfg.seed);
    for case in 0..cfg.generated {
        if over_budget(t0) {
            summary.truncated = true;
            break;
        }
        let e = gen_expr(&mut rng, &gen_cfg);
        check_expr(&mut backend, &rels, &format!("gen_{case}"), &e, lanes, cfg, &mut summary)?;
    }
    for (name, e) in seed_corpus() {
        if over_budget(t0) {
            summary.truncated = true;
            break;
        }
        check_expr(&mut backend, &rels, &name, &e, lanes, cfg, &mut summary)?;
    }
    Ok(summary)
}

/// Check one expression against every relation.
#[allow(clippy::too_many_arguments)]
fn check_expr(
    backend: &mut Backend,
    rels: &[Relation],
    label: &str,
    e: &Expr,
    lanes: usize,
    cfg: &HarnessConfig,
    summary: &mut Summary,
) -> io::Result<()> {
    summary.exprs += 1;
    let oracle = Oracle { lanes, width: lanes + 24, seed: cfg.seed, ..Oracle::default() };
    let cost_model = CostModel::new(lanes, lanes);

    // Compile the base and every applicable variant in one batch: the
    // shared driver cache then serves structural re-canonicalizations
    // (commute, alpha-rename) without re-synthesis — which is itself the
    // end-to-end test of cache canonicalization.
    let mut applications: Vec<(usize, Applied)> = Vec::new();
    let mut batch: Vec<(String, Expr)> = vec![(format!("{label}:base"), e.clone())];
    for (ri, rel) in rels.iter().enumerate() {
        match (rel.apply)(e) {
            Some(applied) => {
                batch.push((format!("{label}:{}", rel.name), applied.expr.clone()));
                applications.push((ri, applied));
            }
            None => summary.per_relation.get_mut(rel.name).expect("seeded").skipped += 1,
        }
    }
    if applications.is_empty() {
        // Nothing to differ against this expression; don't burn a base
        // compile (matters for `--relations` filtered runs).
        return Ok(());
    }
    let mut sides = backend.compile(&batch, lanes)?;
    let base = match sides.remove(0) {
        Some(base) => base,
        None => {
            // Nothing to differ against: the whole expression is skipped.
            for (ri, _) in &applications {
                summary.per_relation.get_mut(rels[*ri].name).expect("seeded").skipped += 1;
                summary.skipped_pairs += 1;
            }
            return Ok(());
        }
    };
    let base_cost = cost_model.cost(&base.program).0;
    let envs = oracle.envs_for(e);

    for ((ri, applied), side) in applications.into_iter().zip(sides) {
        let rel = &rels[ri];
        let stats = summary.per_relation.get_mut(rel.name).expect("seeded");
        let Some(var) = side else {
            stats.skipped += 1;
            summary.skipped_pairs += 1;
            continue;
        };
        stats.applied += 1;
        summary.pairs += 1;

        // Cost envelope first: cheap, and independent of execution.
        let var_cost = cost_model.cost(&var.program).0;
        if !rel.envelope.allows(base_cost, var_cost) {
            stats.cost_violations += 1;
            summary.cost_violations += 1;
            eprintln!(
                "COST {label}/{}: base {base_cost} -> variant {var_cost} exceeds envelope \
                 ({}x/{} + {})",
                rel.name, rel.envelope.num, rel.envelope.den, rel.envelope.slack
            );
        }

        // Lane-for-lane equality over adversarial environments.
        let mut violation: Option<(Expr, Env, i64, i64)> = None;
        'points: for env in &envs {
            let var_env = variant_env(env, &applied);
            for &(x0, y0) in &oracle.origins {
                let ctx = EvalCtx { env, x0, y0, lanes };
                let Ok(want) = eval(e, &ctx) else { continue };
                let vctx = EvalCtx { env: &var_env, x0: x0 + applied.origin_dx, y0, lanes };
                let Ok(want_var) = eval(&applied.expr, &vctx) else { continue };
                if oracle::first_mismatch(&want, &want_var).is_some() {
                    // The interpreter itself disagrees: the relation (not
                    // the compiler) is broken. Report loudly; do not
                    // charge the compiler.
                    summary.unsound += 1;
                    eprintln!("UNSOUND RELATION {}: interpreter disagrees on {label}", rel.name);
                    break 'points;
                }
                summary.points += 1;
                let base_out =
                    base.program.run(env, x0, y0, lanes).ok().map(|v| v.typed_lanes(e.ty()));
                let var_out = var
                    .program
                    .run(&var_env, x0 + applied.origin_dx, y0, lanes)
                    .ok()
                    .map(|v| v.typed_lanes(applied.expr.ty()));
                // Attribute the mismatch to the side that disagrees with
                // ground truth so the minimizer shrinks the right program.
                let base_bad =
                    base_out.as_ref().is_some_and(|o| oracle::first_mismatch(&want, o).is_some());
                let var_bad = var_out
                    .as_ref()
                    .is_some_and(|o| oracle::first_mismatch(&want_var, o).is_some());
                if base_bad || var_bad {
                    let (expr, env, x0) = if var_bad {
                        (applied.expr.clone(), var_env.clone(), x0 + applied.origin_dx)
                    } else {
                        (e.clone(), env.clone(), x0)
                    };
                    violation = Some((expr, env, x0, y0));
                    break 'points;
                }
            }
        }

        if let Some((expr, env, x0, y0)) = violation {
            stats.violations += 1;
            summary.violations += 1;
            eprintln!("VIOLATION {label}/{}: minimizing", rel.name);
            let subject = CompilingSubject::new(lanes);
            let run_subject =
                |e: &Expr, env: &Env, x0: i64, y0: i64, l: usize| subject.run(e, env, x0, y0, l);
            let repro = oracle::minimize(&expr, &env, x0, y0, lanes, &run_subject);
            let tag = sanitize(&format!("{label}_{}", rel.name));
            match oracle::emit(&cfg.out, &tag, &repro) {
                Ok(paths) => {
                    eprintln!("  repro: {}", paths.test.display());
                    summary.repros.push(paths.test);
                }
                Err(err) => eprintln!("  failed to write repro: {err}"),
            }
        }
    }
    Ok(())
}

fn sanitize(s: &str) -> String {
    s.chars().map(|c| if c.is_ascii_alphanumeric() { c } else { '_' }).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use halide_ir::builder as hb;
    use lanes::ElemType;

    #[test]
    fn variant_env_duplicates_renamed_buffers() {
        let mut env = Env::new();
        env.insert(Buffer2D::filled("a", ElemType::U8, 8, 2, 7));
        let applied = Applied {
            expr: hb::load("a_r", ElemType::U8, 0, 0),
            origin_dx: 0,
            renames: vec![("a".to_owned(), "a_r".to_owned())],
        };
        let out = variant_env(&env, &applied);
        assert_eq!(out.get("a_r").expect("renamed buffer").get(3, 1), 7);
        assert!(out.get("a").is_some(), "original stays available");
    }

    #[test]
    fn seed_corpus_expressions_are_evaluable() {
        let mut env = Env::new();
        for name in ["a", "b", "w"] {
            env.insert(Buffer2D::filled(name, ElemType::U8, 16, 4, 9));
        }
        for (name, e) in seed_corpus() {
            let ctx = EvalCtx { env: &env, x0: 1, y0: 1, lanes: 4 };
            assert!(eval(&e, &ctx).is_ok(), "{name} does not evaluate");
        }
    }

    /// The seed corpus exists to reach relations the workloads miss;
    /// `factor` in particular must fire on `seed_factor`, or the catalog
    /// entry is dead weight.
    #[test]
    fn factor_applies_to_the_seeded_sum_of_products() {
        let factor = crate::relations::catalog()
            .into_iter()
            .find(|r| r.name == "factor")
            .expect("factor is catalogued");
        let (_, e) = seed_corpus()
            .into_iter()
            .find(|(name, _)| name == "seed_factor")
            .expect("seed_factor is seeded");
        let applied = (factor.apply)(&e).expect("factor must apply to seed_factor");
        let mut env = Env::new();
        env.insert(Buffer2D::filled("a", ElemType::U8, 16, 4, 9));
        let ctx = EvalCtx { env: &env, x0: 1, y0: 1, lanes: 4 };
        assert_eq!(
            eval(&e, &ctx).expect("base evaluates"),
            eval(&applied.expr, &ctx).expect("variant evaluates"),
            "factor must preserve semantics on seed_factor"
        );
    }

    /// A tiny end-to-end sweep: one seeded expression, two relations,
    /// local backend — must be clean and must count coverage.
    #[test]
    fn mini_sweep_is_clean() {
        let cfg = HarnessConfig {
            relations: Some(vec!["commute".to_owned(), "identity-pad".to_owned()]),
            generated: 0,
            ..HarnessConfig::default()
        };
        let mut backend = Backend::Local { ctxs: HashMap::new() };
        let rels: Vec<Relation> = crate::relations::catalog()
            .into_iter()
            .filter(|r| cfg.relations.as_ref().unwrap().iter().any(|n| n == r.name))
            .collect();
        let mut summary = Summary::default();
        for r in &rels {
            summary.per_relation.insert(r.name.to_owned(), RelationStats::default());
        }
        let e = seed_corpus().remove(0).1;
        check_expr(&mut backend, &rels, "mini", &e, 4, &cfg, &mut summary).expect("local sweep");
        assert!(summary.clean(), "violations: {summary:?}");
        assert!(summary.pairs >= 1);
        assert!(summary.points > 0);
        let rules: u64 = synth::coverage::rule_counts().iter().map(|(_, n)| n).sum();
        assert!(rules > 0, "coverage counters must fire under the coverage feature");
    }
}

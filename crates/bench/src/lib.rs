//! The evaluation harness: runs each benchmark through the baseline
//! pattern-matching selector and through Rake, checks both against the
//! Halide IR interpreter over a tile sweep, and reports simulated cycle
//! counts — regenerating the data behind every table and figure of §7.

use driver::{Driver, DriverConfig, JobOutcome};
use halide_ir::{Env, EvalCtx, Expr};
use hvx::{ExecCtx, Program, SlotBudget};
use rake::{Rake, Target};
use synth::{SynthStats, Verifier};
use workloads::Workload;

/// Service-layer knobs for harness runs, forwarded to [`driver::Driver`].
/// The default is a cold in-memory cache and an auto-sized pool.
#[derive(Debug, Clone, Default)]
pub struct ServiceOptions {
    /// Persistent synthesis-cache directory (warm starts across runs).
    pub cache_dir: Option<std::path::PathBuf>,
    /// JSONL event log to append to.
    pub log_path: Option<std::path::PathBuf>,
    /// Worker threads; `None` auto-sizes.
    pub workers: Option<usize>,
    /// Per-expression wall-clock budget.
    pub job_timeout: Option<std::time::Duration>,
    /// Differentially validate every compiled program against the Halide
    /// IR interpreter (forwarded to `DriverConfig::validate`).
    pub validate: bool,
}

impl ServiceOptions {
    /// Build the driver for one workload run.
    pub fn driver(&self, rake: Rake) -> Driver {
        let defaults = DriverConfig::default();
        Driver::new(rake).with_config(DriverConfig {
            workers: self.workers.unwrap_or(defaults.workers),
            job_timeout: self.job_timeout,
            cache_dir: self.cache_dir.clone(),
            log_path: self.log_path.clone(),
            validate: self.validate,
            ..defaults
        })
    }
}

/// Geometry of one harness run.
#[derive(Debug, Clone, Copy)]
pub struct RunConfig {
    /// Vectorization width (lanes). Full runs use the workload's own
    /// width; quick runs scale it down proportionally.
    pub lanes: usize,
    /// Register width in bytes.
    pub vec_bytes: usize,
    /// Number of output tiles swept horizontally.
    pub tiles_x: usize,
    /// Number of output rows swept.
    pub rows: usize,
    /// Memoize verdicts, test environments and SMT proofs
    /// ([`Verifier::memoize`]). Synthesized programs are identical either
    /// way; off is the reference path for A/B runs.
    pub memoize: bool,
}

impl RunConfig {
    /// Full-width configuration for a workload (its scheduled lane count on
    /// 128-byte registers).
    pub fn full(w: &Workload) -> RunConfig {
        RunConfig { lanes: w.lanes, vec_bytes: 128, tiles_x: 4, rows: 4, memoize: true }
    }

    /// Scaled-down configuration preserving the lanes:register ratio, for
    /// quick integration runs.
    pub fn quick(w: &Workload) -> RunConfig {
        let lanes = (16 * w.lanes / 128).max(4);
        RunConfig { lanes, vec_bytes: 16, tiles_x: 2, rows: 2, memoize: true }
    }
}

/// Outcome for one expression of a workload.
#[derive(Debug, Clone)]
pub struct ExprOutcome {
    /// Rendered source expression.
    pub halide: String,
    /// Baseline cycles per tile.
    pub baseline_cycles: u64,
    /// Rake cycles per tile (baseline cycles when Rake declined).
    pub rake_cycles: u64,
    /// Whether Rake produced (and verified) an implementation.
    pub rake_optimized: bool,
    /// Whether both implementations matched the interpreter on the sweep.
    pub verified: bool,
    /// The baseline program.
    pub baseline_program: Program,
    /// The Rake program, when compiled.
    pub rake_program: Option<Program>,
}

/// Aggregated outcome for one workload.
#[derive(Debug, Clone)]
pub struct WorkloadRun {
    /// Benchmark name.
    pub name: &'static str,
    /// Per-expression outcomes.
    pub exprs: Vec<ExprOutcome>,
    /// Merged synthesis statistics.
    pub stats: SynthStats,
    /// Total simulated baseline cycles over the sweep.
    pub baseline_cycles: u64,
    /// Total simulated Rake cycles over the sweep (including the §7.3
    /// layout penalty where it applies).
    pub rake_cycles: u64,
}

impl WorkloadRun {
    /// Rake speedup over the baseline.
    pub fn speedup(&self) -> f64 {
        self.baseline_cycles as f64 / self.rake_cycles as f64
    }

    /// Whether every expression's outputs matched the interpreter.
    pub fn all_verified(&self) -> bool {
        self.exprs.iter().all(|e| e.verified)
    }

    /// Number of expressions Rake optimized.
    pub fn optimized(&self) -> usize {
        self.exprs.iter().filter(|e| e.rake_optimized).count()
    }
}

/// Verifier effort for harness runs: differential-heavy, SMT proofs on,
/// memoized as [`RunConfig::memoize`] says.
pub fn bench_verifier(cfg: RunConfig) -> Verifier {
    Verifier {
        lanes: cfg.lanes,
        vec_bytes: cfg.vec_bytes,
        alt_lanes: (cfg.lanes / 2).max(4),
        random_envs: 6,
        use_smt: true,
        smt_lanes: 1,
        smt_conflict_budget: 10_000,
        smt_lowering: false,
        memoize: cfg.memoize,
        ..Verifier::default()
    }
}

/// Run one workload through both code generators and the simulator, with
/// default service options (in-memory cache, auto-sized pool).
///
/// # Panics
///
/// Panics if the baseline selector fails to cover a workload expression —
/// the baseline must be total over the benchmark suite.
pub fn run_workload(w: &Workload, cfg: RunConfig) -> WorkloadRun {
    run_workload_with(w, cfg, &ServiceOptions::default())
}

/// Like [`run_workload`], but Rake compilations go through the
/// [`driver::Driver`] service layer configured by `svc`: batched over a
/// worker pool, deduplicated, cached (persistently when `cache_dir` is
/// set), with per-job deadlines and panic isolation.
///
/// # Panics
///
/// Panics if the baseline selector fails to cover a workload expression —
/// the baseline must be total over the benchmark suite.
pub fn run_workload_with(w: &Workload, cfg: RunConfig, svc: &ServiceOptions) -> WorkloadRun {
    let target = Target { lanes: cfg.lanes, vec_bytes: cfg.vec_bytes };
    let rake = Rake::new(target).with_verifier(bench_verifier(cfg));
    let bopts = halide_opt::BaselineOptions { lanes: cfg.lanes, vec_bytes: cfg.vec_bytes };
    let env = w.env(cfg.lanes * (cfg.tiles_x + 2), cfg.rows + 16, 0xC0FFEE);
    let slots = SlotBudget::hvx();

    let report = svc.driver(rake).compile_batch_named(
        w.exprs.iter().enumerate().map(|(i, e)| (format!("{}[{i}]", w.name), e.clone())).collect(),
    );
    let stats = report.stats;

    let mut exprs = Vec::new();
    let mut baseline_total = 0u64;
    let mut rake_total = 0u64;
    for (e, result) in w.exprs.iter().zip(&report.results) {
        let baseline = halide_opt::select(e, bopts)
            .unwrap_or_else(|err| panic!("baseline must cover {}: {err}", w.name));
        let baseline_program = baseline.to_program();
        let (rake_program, rake_optimized) = match &result.outcome {
            JobOutcome::Compiled(c) => (Some(c.program.clone()), true),
            _ => (None, false),
        };

        let verified = verify_sweep(e, &baseline_program, rake_program.as_ref(), &env, cfg);

        let bc = baseline_program.schedule(cfg.lanes, cfg.vec_bytes, slots).cycles;
        let rc = match &rake_program {
            Some(p) => {
                p.schedule(cfg.lanes, cfg.vec_bytes, slots).cycles
                    + u64::from(w.rake_layout_penalty)
            }
            None => bc,
        };
        baseline_total += bc;
        rake_total += rc;
        exprs.push(ExprOutcome {
            halide: e.to_string(),
            baseline_cycles: bc,
            rake_cycles: rc,
            rake_optimized,
            verified,
            baseline_program,
            rake_program,
        });
    }
    let tiles = (cfg.tiles_x * cfg.rows) as u64;
    WorkloadRun {
        name: w.name,
        exprs,
        stats,
        baseline_cycles: baseline_total * tiles,
        rake_cycles: rake_total * tiles,
    }
}

/// Execute both programs over the tile sweep and compare each against the
/// IR interpreter.
fn verify_sweep(
    e: &Expr,
    baseline: &Program,
    rake: Option<&Program>,
    env: &Env,
    cfg: RunConfig,
) -> bool {
    let out_ty = e.ty();
    for ty in 0..cfg.rows {
        for tx in 0..cfg.tiles_x {
            // Odd rows sweep from an unaligned origin, so alignment
            // assumptions baked into either code generator would surface.
            let skew = if ty % 2 == 1 { 3 } else { 0 };
            let (x0, y0) = ((cfg.lanes * (tx + 1) + skew) as i64, (8 + ty) as i64);
            let ctx = EvalCtx { env, x0, y0, lanes: cfg.lanes };
            let Ok(want) = halide_ir::eval(e, &ctx) else { return false };
            let hctx = ExecCtx { env, x0, y0, lanes: cfg.lanes, vec_bytes: cfg.vec_bytes };
            let Ok(got_b) = baseline.run_ctx(&hctx) else { return false };
            if got_b.typed_lanes(out_ty) != want {
                return false;
            }
            if let Some(rp) = rake {
                let Ok(got_r) = rp.run_ctx(&hctx) else { return false };
                if got_r.typed_lanes(out_ty) != want {
                    return false;
                }
            }
        }
    }
    true
}

/// Pretty-print a program as an indented listing (for the codegen figures).
pub fn listing(p: &Program) -> String {
    p.to_string()
}

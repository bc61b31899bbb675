//! One measurement in a fresh process.
//!
//! The SMT proof cache is process-global, so a cold compile needs a new
//! process: the parent (`bench.rs`) starts this binary once per
//! measurement. The child sets up, prints `ready` (the parent times set-up
//! from spawn to that line), runs the measured phase, checks the outputs
//! outside the timed region, and prints one JSON report line.
//!
//! Every layer is timed from the outside: calls into public functions,
//! and spans the library already emits, read by name. Nothing here adds
//! instrumentation to a library crate.

use std::collections::{BTreeMap, HashMap, HashSet};
use std::hint::black_box;
use std::io::Write as _;
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use driver::json::{self, Json};
use driver::{Driver, DriverConfig, JobOutcome, JobResult};
use halide_ir::{Env, Expr};
use hvx::{ExecCtx, Program, SlotBudget};
use rake::{CompileError, Rake, Target};
use trace::{ArgValue, SpanRecord};

use crate::catalog::{median, percentile, sorted};
use crate::inputs::{self, Batch, Mix, Workload, CONNECTIONS, SERVE_LANES};

/// What the parent asks one child to do.
#[derive(Debug, Clone)]
pub struct ChildArgs {
    pub workload: Workload,
    pub seed: u64,
    /// Requests a serving child sends; a compile child runs one cold pass.
    pub requests: u64,
    pub traced: bool,
    pub mode: Mode,
    /// Scratch directory (cache, journal, server traces), removed on exit.
    pub tmp: PathBuf,
    /// Where to keep this child's Chrome trace (a file for a compile
    /// workload, a directory of per-request files for a serving one).
    pub trace_out: Option<PathBuf>,
}

/// What a child does after set-up.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// Run the workload's measured phase.
    Measure,
    /// Run the stage pass over the workload's expressions.
    Stage,
}

/// What one child measured.
#[derive(Debug, Clone, Default)]
pub struct Report {
    pub measured_s: f64,
    /// Units completed: Table-1 workloads with every expression compiled,
    /// fuzz jobs with a verdict, requests answered in full.
    pub units: usize,
    /// Units attempted that did not complete.
    pub failed: usize,
    pub wrong: usize,
    pub unit_ms: Vec<f64>,
    pub cpu_s: f64,
    pub rss_mib: f64,
    pub speedup: f64,
    /// Per-layer values measured by calls and results.
    pub layers: BTreeMap<String, f64>,
    /// Per-layer values read from spans (traced children only).
    pub spans: BTreeMap<String, f64>,
    pub dropped: u64,
    /// Expected span names that never appeared.
    pub missing: Vec<String>,
}

impl Report {
    pub fn to_json(&self) -> Json {
        let map = |m: &BTreeMap<String, f64>| {
            Json::Obj(m.iter().map(|(k, v)| (k.clone(), num(*v))).collect())
        };
        Json::obj([
            ("measured_s", num(self.measured_s)),
            ("units", self.units.into()),
            ("failed", self.failed.into()),
            ("wrong", self.wrong.into()),
            ("unit_ms", Json::Arr(self.unit_ms.iter().map(|&v| num(v)).collect())),
            ("cpu_s", num(self.cpu_s)),
            ("rss_mib", num(self.rss_mib)),
            ("speedup", num(self.speedup)),
            ("layers", map(&self.layers)),
            ("spans", map(&self.spans)),
            ("dropped", self.dropped.into()),
            ("missing", Json::Arr(self.missing.iter().map(|m| Json::Str(m.clone())).collect())),
        ])
    }

    pub fn from_json(doc: &Json) -> Result<Report, String> {
        let num = |k: &str| match doc.get(k) {
            Some(Json::Num(n)) => Ok(*n),
            _ => Err(format!("child report lacks `{k}`")),
        };
        let map = |k: &str| -> BTreeMap<String, f64> {
            match doc.get(k) {
                Some(Json::Obj(fields)) => fields
                    .iter()
                    .filter_map(|(k, v)| match v {
                        Json::Num(n) => Some((k.clone(), *n)),
                        _ => None,
                    })
                    .collect(),
                _ => BTreeMap::new(),
            }
        };
        let list = |k: &str| doc.get(k).and_then(Json::as_arr).unwrap_or(&[]);
        Ok(Report {
            measured_s: num("measured_s")?,
            units: num("units")? as usize,
            failed: num("failed")? as usize,
            wrong: num("wrong")? as usize,
            unit_ms: list("unit_ms")
                .iter()
                .filter_map(|v| if let Json::Num(n) = v { Some(*n) } else { None })
                .collect(),
            cpu_s: num("cpu_s")?,
            rss_mib: num("rss_mib")?,
            speedup: num("speedup")?,
            layers: map("layers"),
            spans: map("spans"),
            dropped: num("dropped")? as u64,
            missing: list("missing").iter().filter_map(|m| m.as_str().map(str::to_owned)).collect(),
        })
    }
}

/// A JSON number; a statistic of no samples (NaN) is written as 0.
pub fn num(v: f64) -> Json {
    Json::Num(if v.is_finite() { v } else { 0.0 })
}

/// Run one child to completion; the report goes to stdout.
pub fn main(args: &ChildArgs) -> Result<(), String> {
    std::fs::create_dir_all(&args.tmp)
        .map_err(|e| format!("cannot create {}: {e}", args.tmp.display()))?;
    let report = if args.workload.is_serve() { serve_child(args) } else { compile_child(args) };
    let _ = std::fs::remove_dir_all(&args.tmp);
    println!("{}", report?.to_json());
    Ok(())
}

/// Tell the parent set-up is done.
fn ready() {
    let mut out = std::io::stdout().lock();
    let _ = writeln!(out, "ready");
    let _ = out.flush();
}

// ---------------------------------------------------------------------------
// Compile workloads: paper-suite, fuzz-batch
// ---------------------------------------------------------------------------

fn compile_child(args: &ChildArgs) -> Result<Report, String> {
    let batches = match args.workload {
        Workload::PaperSuite => inputs::suite_batches(),
        _ => vec![inputs::fuzz_batch()],
    };
    let drivers: Vec<Driver> = batches
        .iter()
        .map(|b| Driver::new(b.rake.clone()).with_config(DriverConfig::default()))
        .collect();
    let mut jobs: Vec<Vec<(String, Expr)>> = batches.iter().map(|b| b.jobs.clone()).collect();
    ready();
    if args.mode == Mode::Stage {
        let units: Vec<(Rake, Vec<Expr>)> = batches
            .iter()
            .map(|b| (b.rake.clone(), b.jobs.iter().map(|(_, e)| e.clone()).collect()))
            .collect();
        return Ok(stage_pass(&units));
    }

    let tracer = args.traced.then(|| Tracer::start(args.trace_out.is_some()));
    let cpu0 = cpu_seconds();
    let start = Instant::now();
    let mut batch_ms = Vec::with_capacity(batches.len());
    let mut results: Vec<Vec<JobResult>> = Vec::with_capacity(batches.len());
    for (driver, jobs) in drivers.iter().zip(jobs.drain(..)) {
        let t = Instant::now();
        let report = driver.compile_batch_named(jobs);
        batch_ms.push(t.elapsed().as_secs_f64() * 1e3);
        results.push(report.results);
    }
    let measured_s = start.elapsed().as_secs_f64();
    let cpu_s = cpu_seconds() - cpu0;
    let mut report = Report { measured_s, cpu_s, rss_mib: peak_rss_mib(), ..Report::default() };

    if let Some(tracer) = tracer {
        let (tally, records) = tracer.finish();
        report.spans = tally.metrics(cpu_s);
        report.missing = tally.missing(args.workload);
        report.dropped = trace::dropped();
        if let Some(path) = &args.trace_out {
            std::fs::write(path, trace::chrome_trace_json(&records))
                .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
        }
    }

    // Outputs and code quality, outside the timed region.
    let all: Vec<(&Batch, &JobResult)> =
        batches.iter().zip(&results).flat_map(|(b, rs)| rs.iter().map(move |r| (b, r))).collect();
    report.wrong = all
        .iter()
        .filter(|(b, r)| match &r.outcome {
            JobOutcome::Compiled(c) => {
                !agrees(&b.jobs[r.index].1, &c.program, b.lanes, b.vec_bytes)
            }
            _ => false,
        })
        .count();
    let broken = |r: &JobResult| match &r.outcome {
        JobOutcome::Compiled(_) => false,
        // A failed lift or lowering is a verdict on a fuzz expression;
        // every paper workload must compile.
        JobOutcome::Failed(CompileError::LiftFailed | CompileError::LowerFailed) => {
            args.workload == Workload::PaperSuite
        }
        _ => true,
    };
    let mut ratios = Vec::new();
    if args.workload == Workload::PaperSuite {
        // One unit per Table-1 workload, as the paper reports them.
        report.failed = results.iter().filter(|rs| rs.iter().any(broken)).count();
        report.units = batch_ms.len() - report.failed;
        report.unit_ms = batch_ms;
        for (b, rs) in batches.iter().zip(&results) {
            let (mut base, mut rake) = (0u64, 0u64);
            for r in rs {
                let Some(bc) = baseline_cycles(&b.jobs[r.index].1, b.lanes, b.vec_bytes) else {
                    continue;
                };
                base += bc;
                rake += rake_cycles(r, b).unwrap_or(bc);
            }
            ratios.push(base as f64 / rake as f64);
        }
    } else {
        report.unit_ms = all.iter().map(|(_, r)| r.run_time.as_secs_f64() * 1e3).collect();
        report.failed = all.iter().filter(|(_, r)| broken(r)).count();
        report.units = all.len() - report.failed;
        for (b, r) in &all {
            if let Some(bc) = baseline_cycles(&b.jobs[r.index].1, b.lanes, b.vec_bytes) {
                ratios.push(bc as f64 / rake_cycles(r, b).unwrap_or(bc) as f64);
            }
        }
    }
    report.speedup = geomean(&ratios);

    let sum_s = |f: &dyn Fn(&JobResult) -> Option<Duration>| -> f64 {
        all.iter().filter_map(|(_, r)| f(r)).map(|d| d.as_secs_f64()).sum()
    };
    let jobs = all.len() as f64;
    let declined =
        all.iter().filter(|(_, r)| !matches!(r.outcome, JobOutcome::Compiled(_))).count() as f64;
    let compiled: Vec<(&Batch, &rake::Compiled)> = all
        .iter()
        .filter_map(|(b, r)| match &r.outcome {
            JobOutcome::Compiled(c) => Some((*b, c.as_ref())),
            _ => None,
        })
        .collect();
    let layers = &mut report.layers;
    layers.insert("driver.job_run_s".into(), sum_s(&|r| Some(r.run_time)));
    layers.insert("driver.queue_wait_s".into(), sum_s(&|r| Some(r.queue_wait)));
    layers.insert(
        "driver.failed_job_s".into(),
        sum_s(&|r| (!matches!(r.outcome, JobOutcome::Compiled(_))).then_some(r.run_time)),
    );
    layers.insert("driver.decline_share".into(), declined / jobs);
    layers.insert(
        "driver.cache_hit_share".into(),
        all.iter().filter(|(_, r)| r.cache_hit).count() as f64 / jobs,
    );
    layers.insert(
        "driver.key_us".into(),
        median(
            &batches
                .iter()
                .zip(&drivers)
                .flat_map(|(b, d)| b.jobs.iter().map(move |(_, e)| per_call_us(|| d.cache_key(e))))
                .collect::<Vec<_>>(),
        ),
    );
    let sexprs: Vec<String> =
        all.iter().map(|(b, r)| halide_ir::sexpr::to_sexpr(&b.jobs[r.index].1)).collect();
    layers.insert("halide-ir.parse_us".into(), parse_us(&sexprs));
    layers.insert(
        "hvx.render_us".into(),
        median(
            &compiled
                .iter()
                .map(|(_, c)| per_call_us(|| render(&c.program, &c.hvx, Some(&c.uber))))
                .collect::<Vec<_>>(),
        ),
    );
    layers.insert(
        "hvx.schedule_us".into(),
        median(
            &compiled
                .iter()
                .map(|(b, c)| {
                    per_call_us(|| c.program.schedule(b.lanes, b.vec_bytes, SlotBudget::hvx()))
                })
                .collect::<Vec<_>>(),
        ),
    );
    Ok(report)
}

/// Rake cycles per tile of a compiled job, with the layout penalty.
fn rake_cycles(r: &JobResult, b: &Batch) -> Option<u64> {
    match &r.outcome {
        JobOutcome::Compiled(c) => Some(
            c.program.schedule(b.lanes, b.vec_bytes, SlotBudget::hvx()).cycles
                + u64::from(b.penalty),
        ),
        _ => None,
    }
}

/// Baseline-selector cycles per tile, when the baseline covers `e`.
fn baseline_cycles(e: &Expr, lanes: usize, vec_bytes: usize) -> Option<u64> {
    let opts = halide_opt::BaselineOptions { lanes, vec_bytes };
    halide_opt::select(e, opts)
        .ok()
        .map(|h| h.to_program().schedule(lanes, vec_bytes, SlotBudget::hvx()).cycles)
}

fn geomean(ratios: &[f64]) -> f64 {
    if ratios.is_empty() {
        return f64::NAN;
    }
    (ratios.iter().map(|r| r.ln()).sum::<f64>() / ratios.len() as f64).exp()
}

/// Whether `program` agrees with the Halide IR interpreter on the oracle's
/// adversarial inputs (and actually ran on some of them).
fn agrees(e: &Expr, program: &Program, lanes: usize, vec_bytes: usize) -> bool {
    let checker = oracle::Oracle { lanes, width: lanes + 24, ..oracle::Oracle::default() };
    let ty = e.ty();
    let report = checker.check(e, &|env: &Env, x0: i64, y0: i64, lanes: usize| {
        program.run_ctx(&ExecCtx { env, x0, y0, lanes, vec_bytes }).ok().map(|v| v.typed_lanes(ty))
    });
    report.is_clean() && report.checks > 0
}

/// Time the synthesis stages from the outside: the public lift, lower and
/// final-check calls Rake makes, per expression, with each unit's own
/// verifier and options. The three sums and the pass wall must agree.
fn stage_pass(units: &[(Rake, Vec<Expr>)]) -> Report {
    let (mut lift, mut lower, mut check) = (Duration::ZERO, Duration::ZERO, Duration::ZERO);
    let start = Instant::now();
    for (rake, exprs) in units {
        let (verifier, options) = (rake.verifier(), rake.options());
        for e in exprs {
            let t = Instant::now();
            let lifted = synth::lift_expr_cancellable(
                e,
                verifier,
                None,
                None,
                options.max_lift_depth,
                &mut Default::default(),
            );
            lift += t.elapsed();
            let Some((uber, _)) = lifted else { continue };
            let t = Instant::now();
            let lowered = synth::lower_expr(&uber, verifier, options, &mut Default::default());
            lower += t.elapsed();
            let Some(hvx) = lowered else { continue };
            let t = Instant::now();
            black_box(verifier.equiv_halide_hvx(e, &hvx));
            check += t.elapsed();
        }
    }
    let wall = start.elapsed().as_secs_f64();
    let staged = (lift + lower + check).as_secs_f64();
    let mut report = Report { measured_s: wall, ..Report::default() };
    report.layers = BTreeMap::from([
        ("synth.lift_s".into(), lift.as_secs_f64()),
        ("synth.lower_s".into(), lower.as_secs_f64()),
        ("synth.final_verify_s".into(), check.as_secs_f64()),
        ("synth.stage_wall_s".into(), wall),
        ("synth.stage_unattributed_share".into(), 1.0 - staged / wall),
    ]);
    report
}

// ---------------------------------------------------------------------------
// Serving workloads: serve-warm, serve-mixed
// ---------------------------------------------------------------------------

/// One measured request.
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    pub latency_ms: f64,
    /// The server's own `wall_ms` for the request.
    pub server_ms: f64,
    /// Whether any result missed the synthesis cache.
    pub miss: bool,
}

/// The outcome of a load phase.
#[derive(Debug, Default)]
pub struct Load {
    pub samples: Vec<Sample>,
    pub failed: usize,
    pub wall_s: f64,
    /// First `(expression, returned hvx)` seen per cache key.
    pub seen: HashMap<String, (String, String)>,
}

/// A running server with its templates compiled.
pub struct Server {
    handle: served::ServerHandle,
    pub addr: String,
    traces: Option<PathBuf>,
}

impl Server {
    /// Start a server on an ephemeral port and compile every template once
    /// through it. The mixed workload persists its cache and journal under
    /// `dir`; a traced server writes per-request traces there.
    pub fn start(
        workload: Workload,
        dir: &Path,
        traced: bool,
        templates: &[(&str, Vec<String>)],
    ) -> Result<Server, String> {
        let mixed = workload == Workload::ServeMixed;
        let traces = traced.then(|| dir.join("traces"));
        if let Some(t) = &traces {
            std::fs::create_dir_all(t)
                .map_err(|e| format!("cannot create {}: {e}", t.display()))?;
        }
        let config = served::ServerConfig {
            addr: "127.0.0.1:0".to_owned(),
            cache_dir: mixed.then(|| dir.join("cache")),
            log_path: mixed.then(|| dir.join("journal.jsonl")),
            trace_out: traces.clone(),
            ..served::ServerConfig::default()
        };
        let handle = served::serve(config).map_err(|e| format!("cannot start the server: {e}"))?;
        let server = Server { addr: handle.addr().to_string(), handle, traces };
        let mut stream = None;
        for (name, exprs) in templates {
            let (status, reply) = post(&mut stream, &server.addr, &inputs::request_body(exprs))
                .map_err(|e| format!("warm-up of {name} failed: {e}"))?;
            let compiled = json::parse(&String::from_utf8_lossy(&reply)).ok().and_then(|doc| {
                doc.get("results")?.as_arr().map(|rs| {
                    rs.iter().all(|r| r.get("outcome").and_then(Json::as_str) == Some("compiled"))
                })
            });
            if status != 200 || compiled != Some(true) {
                return Err(format!(
                    "warm-up of {name} answered {status}: {}",
                    String::from_utf8_lossy(&reply)
                ));
            }
        }
        // Set-up traces are not part of the measured phase.
        if let Some(t) = &server.traces {
            let _ = std::fs::remove_dir_all(t);
            std::fs::create_dir_all(t)
                .map_err(|e| format!("cannot recreate {}: {e}", t.display()))?;
        }
        Ok(server)
    }

    pub fn shutdown(self) -> Option<PathBuf> {
        self.handle.shutdown();
        self.traces
    }
}

/// POST one `/compile` body over a kept-alive connection, connecting
/// first when there is none. A signal that interrupts the exchange leaves
/// the connection mid-message, so it is retried on a new connection, up to
/// `ATTEMPTS` times in all (interruptions come in bursts: two in a row
/// failed one smoke-test run in five); any other error drops the
/// connection.
fn post(
    stream: &mut Option<TcpStream>,
    addr: &str,
    body: &[u8],
) -> std::io::Result<(u16, Vec<u8>)> {
    let mut attempt = || -> std::io::Result<(u16, Vec<u8>)> {
        if stream.is_none() {
            let fresh = TcpStream::connect(addr)?;
            fresh.set_read_timeout(Some(Duration::from_secs(120)))?;
            *stream = Some(fresh);
        }
        let answer = served::http::roundtrip(
            stream.as_mut().expect("connected above"),
            "POST",
            "/compile",
            Some(body),
        );
        if answer.is_err() {
            *stream = None;
        }
        answer
    };
    const ATTEMPTS: usize = 5;
    let mut answer = attempt();
    for _ in 1..ATTEMPTS {
        match &answer {
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => answer = attempt(),
            _ => break,
        }
    }
    answer
}

/// Closed-loop load of `requests` requests: `CONNECTIONS` clients each
/// send their next request as soon as the previous one is answered.
/// Request numbers come from one shared counter and the mix maps each
/// number to its request, so the stream does not depend on which
/// connection sends what. The count is fixed rather than the time, so a
/// faster build sends the same misses and grows the same server state.
pub fn drive(addr: &str, mix: &Mix, templates: &[(&str, Vec<String>)], requests: u64) -> Load {
    let next = AtomicU64::new(0);
    let merged = Mutex::new(Load::default());
    let start = Instant::now();
    std::thread::scope(|scope| {
        for _ in 0..CONNECTIONS {
            scope.spawn(|| {
                let mut local = Load::default();
                let mut stream = None;
                loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= requests {
                        break;
                    }
                    let exprs = mix.exprs(templates, i);
                    let body = inputs::request_body(&exprs);
                    let t = Instant::now();
                    let answer = post(&mut stream, addr, &body);
                    let latency_ms = t.elapsed().as_secs_f64() * 1e3;
                    match answer
                        .ok()
                        .filter(|(status, _)| *status == 200)
                        .and_then(|(_, reply)| record(&reply, &exprs, &mut local.seen))
                    {
                        Some((server_ms, miss)) => {
                            local.samples.push(Sample { latency_ms, server_ms, miss })
                        }
                        None => local.failed += 1,
                    }
                }
                let mut all =
                    merged.lock().expect("no client thread panics holding the merge lock");
                all.samples.extend(local.samples);
                all.failed += local.failed;
                for (k, v) in local.seen {
                    all.seen.entry(k).or_insert(v);
                }
            });
        }
    });
    let mut load = merged.into_inner().expect("client threads joined");
    load.wall_s = start.elapsed().as_secs_f64();
    load
}

/// Read one `/compile` reply: `(wall_ms, missed)` when every result
/// compiled, remembering the first program returned for each key.
fn record(
    reply: &[u8],
    exprs: &[String],
    seen: &mut HashMap<String, (String, String)>,
) -> Option<(f64, bool)> {
    let doc = json::parse(std::str::from_utf8(reply).ok()?).ok()?;
    let results = doc.get("results")?.as_arr()?;
    if results.len() != exprs.len() {
        return None;
    }
    let mut miss = false;
    for (r, e) in results.iter().zip(exprs) {
        if r.get("outcome")?.as_str()? != "compiled" {
            return None;
        }
        miss |= r.get("cache_hit")?.as_bool() != Some(true);
        let key = r.get("key")?.as_str()?;
        if !seen.contains_key(key) {
            seen.insert(key.to_owned(), (e.clone(), r.get("hvx")?.as_str()?.to_owned()));
        }
    }
    match doc.get("wall_ms")? {
        Json::Num(ms) => Some((*ms, miss)),
        _ => None,
    }
}

fn serve_child(args: &ChildArgs) -> Result<Report, String> {
    let templates = inputs::serve_templates();
    if args.mode == Mode::Stage {
        ready();
        let rake = Rake::new(Target { lanes: SERVE_LANES, vec_bytes: SERVE_LANES });
        let exprs =
            templates.iter().flat_map(|(_, es)| es.iter().map(|e| inputs::reparse(e))).collect();
        return Ok(stage_pass(&[(rake, exprs)]));
    }
    let server = Server::start(args.workload, &args.tmp, args.traced, &templates)?;
    let mix = Mix::new(args.workload, args.seed, templates.len());
    ready();

    let cpu0 = cpu_seconds();
    let load = drive(&server.addr, &mix, &templates, args.requests);
    let cpu_s = cpu_seconds() - cpu0;
    let traces = server.shutdown();
    let mut report = Report {
        measured_s: load.wall_s,
        units: load.samples.len(),
        failed: load.failed,
        unit_ms: load.samples.iter().map(|s| s.latency_ms).collect(),
        cpu_s,
        rss_mib: peak_rss_mib(),
        ..Report::default()
    };
    let driver = Driver::new(Rake::new(Target { lanes: SERVE_LANES, vec_bytes: SERVE_LANES }));
    let exprs: Vec<String> = templates.iter().flat_map(|(_, es)| es.iter().cloned()).collect();
    let template_keys: HashSet<String> =
        exprs.iter().map(|e| driver.cache_key(&inputs::reparse(e))).collect();
    let checks = check_served(&load.seen, &template_keys);
    report.wrong = checks.wrong;
    report.speedup = geomean(&checks.ratios);

    let layers = &mut report.layers;
    let ms = |f: &dyn Fn(&Sample) -> Option<f64>| {
        percentile(&sorted(&load.samples.iter().filter_map(f).collect::<Vec<_>>()), 50.0)
    };
    layers.insert("served.server_ms_p50".into(), ms(&|s| Some(s.server_ms)));
    layers.insert("served.outside_ms_p50".into(), ms(&|s| Some(s.latency_ms - s.server_ms)));
    layers.insert("served.miss_server_ms_p50".into(), ms(&|s| s.miss.then_some(s.server_ms)));
    layers.insert(
        "driver.cache_hit_share".into(),
        load.samples.iter().filter(|s| !s.miss).count() as f64 / load.samples.len().max(1) as f64,
    );
    layers.insert("driver.disk_bytes".into(), dir_bytes(&args.tmp, traces.as_deref()) as f64);
    layers.insert(
        "driver.key_us".into(),
        median(
            &exprs
                .iter()
                .map(|e| inputs::reparse(e))
                .map(|e| per_call_us(|| driver.cache_key(&e)))
                .collect::<Vec<_>>(),
        ),
    );
    layers.insert("halide-ir.parse_us".into(), parse_us(&exprs));
    layers.insert(
        "hvx.render_us".into(),
        median(
            &checks
                .programs
                .iter()
                .map(|(p, h)| per_call_us(|| render(p, h, None)))
                .collect::<Vec<_>>(),
        ),
    );
    layers.insert(
        "hvx.schedule_us".into(),
        median(
            &checks
                .programs
                .iter()
                .map(|(p, _)| {
                    per_call_us(|| p.schedule(SERVE_LANES, SERVE_LANES, SlotBudget::hvx()))
                })
                .collect::<Vec<_>>(),
        ),
    );

    if let Some(dir) = traces {
        let mut tally = Tally::default();
        let mut files: Vec<(u64, PathBuf)> = Vec::new();
        for entry in
            std::fs::read_dir(&dir).map_err(|e| format!("cannot list {}: {e}", dir.display()))?
        {
            let path = entry.map_err(|e| e.to_string())?.path();
            let text = std::fs::read_to_string(&path)
                .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
            let doc = json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
            let events = doc.get("traceEvents").and_then(Json::as_arr).unwrap_or(&[]);
            files.push((
                events
                    .iter()
                    .filter_map(|ev| {
                        (ev.get("name")?.as_str()? == "http.request")
                            .then(|| ev.get("dur")?.as_i64())?
                    })
                    .sum::<i64>() as u64,
                path,
            ));
            for ev in events {
                tally.add_event(ev);
            }
        }
        report.spans = tally.metrics(cpu_s);
        report.missing = tally.missing(args.workload);
        report.dropped = trace::dropped();
        if let Some(keep) = &args.trace_out {
            // Keep the slowest requests' traces: thousands of fast hits
            // say nothing the summary does not.
            std::fs::create_dir_all(keep)
                .map_err(|e| format!("cannot create {}: {e}", keep.display()))?;
            files.sort_by_key(|f| std::cmp::Reverse(f.0));
            for (_, path) in files.iter().take(16) {
                let to = keep.join(path.file_name().expect("trace files have names"));
                std::fs::copy(path, &to)
                    .map_err(|e| format!("cannot copy to {}: {e}", to.display()))?;
            }
        }
    }
    Ok(report)
}

/// Correctness of every distinct program a server returned, and the code
/// quality of the templates' programs.
struct ServedChecks {
    wrong: usize,
    /// Baseline over Rake cycles per template expression. Variants are left
    /// out: which ones a run reaches depends on the seed, and the
    /// templates' programs are what every client gets.
    ratios: Vec<f64>,
    /// Up to 32 returned programs, for the render and schedule timings.
    programs: Vec<(Program, hvx::HvxExpr)>,
}

fn check_served(
    seen: &HashMap<String, (String, String)>,
    templates: &HashSet<String>,
) -> ServedChecks {
    let mut checks = ServedChecks { wrong: 0, ratios: Vec::new(), programs: Vec::new() };
    let mut keys: Vec<&String> = seen.keys().collect();
    keys.sort();
    for key in keys {
        let (expr, hvx_text) = &seen[key];
        let (Ok(e), Ok(h)) = (halide_ir::sexpr::parse(expr), hvx::sexpr::parse(hvx_text)) else {
            checks.wrong += 1;
            continue;
        };
        let program = h.to_program();
        if !agrees(&e, &program, SERVE_LANES, SERVE_LANES) {
            checks.wrong += 1;
        }
        if let Some(bc) =
            baseline_cycles(&e, SERVE_LANES, SERVE_LANES).filter(|_| templates.contains(key))
        {
            checks.ratios.push(
                bc as f64
                    / program.schedule(SERVE_LANES, SERVE_LANES, SlotBudget::hvx()).cycles as f64,
            );
        }
        if checks.programs.len() < 32 {
            checks.programs.push((program, h));
        }
    }
    checks
}

/// Bytes on disk under `dir`, leaving out the trace directory.
fn dir_bytes(dir: &Path, skip: Option<&Path>) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else { return 0 };
    entries
        .filter_map(Result::ok)
        .map(|e| e.path())
        .filter(|p| Some(p.as_path()) != skip)
        .map(|p| if p.is_dir() { dir_bytes(&p, skip) } else { p.metadata().map_or(0, |m| m.len()) })
        .sum()
}

// ---------------------------------------------------------------------------
// Micro-timings of single calls
// ---------------------------------------------------------------------------

/// Mean microseconds per call of `f` over a fixed number of calls.
fn per_call_us<R>(f: impl Fn() -> R) -> f64 {
    const CALLS: u32 = 32;
    let t = Instant::now();
    for _ in 0..CALLS {
        black_box(f());
    }
    t.elapsed().as_secs_f64() * 1e6 / f64::from(CALLS)
}

fn parse_us(sexprs: &[String]) -> f64 {
    median(&sexprs.iter().map(|s| per_call_us(|| halide_ir::sexpr::parse(s))).collect::<Vec<_>>())
}

/// What a `/compile` response renders per program.
fn render(p: &Program, h: &hvx::HvxExpr, uber: Option<&uber_ir::UberExpr>) -> usize {
    p.to_string().len()
        + hvx::sexpr::to_sexpr(h).len()
        + uber.map_or(0, |u| uber_ir::sexpr::to_sexpr(u).len())
}

// ---------------------------------------------------------------------------
// Process counters
// ---------------------------------------------------------------------------

/// User plus system CPU seconds of this process, all threads.
pub fn cpu_seconds() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // Fields after the parenthesised command name start at field 3;
    // utime and stime are fields 14 and 15, in USER_HZ (100/s) ticks.
    let fields: Vec<&str> =
        stat.rsplit_once(')').map_or("", |(_, rest)| rest).split_whitespace().collect();
    let tick = |i: usize| fields.get(i).and_then(|v| v.parse::<f64>().ok()).unwrap_or(0.0);
    (tick(11) + tick(12)) / 100.0
}

/// Peak resident set (VmHWM) of this process, in MiB.
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

// ---------------------------------------------------------------------------
// Span ledger
// ---------------------------------------------------------------------------

/// Span counts and summed durations by name, plus the verify path and
/// SMT outcome breakdowns, read from the spans the library emits.
#[derive(Debug, Default)]
pub struct Tally {
    by_key: BTreeMap<String, (u64, u64)>,
}

/// Span names each workload's ledger is read from; one that never appears
/// is reported as missing rather than read as zero work.
fn expected_spans(w: Workload) -> &'static [&'static str] {
    match w {
        Workload::PaperSuite | Workload::FuzzBatch => &[
            "driver.job",
            "lift",
            "lift.screen",
            "lower",
            "verify.smt_equiv",
            "verify.encode",
            "smt.prove_unsat",
            "verify.final",
        ],
        Workload::ServeWarm => &["http.request", "driver.batch"],
        Workload::ServeMixed => {
            &["http.request", "driver.batch", "driver.job", "lift", "lower", "verify.final"]
        }
    }
}

impl Tally {
    fn add(&mut self, name: &str, dur_us: u64, arg: impl Fn(&str) -> Option<String>) {
        let mut bump = |key: String| {
            let e = self.by_key.entry(key).or_insert((0, 0));
            e.0 += 1;
            e.1 += dur_us;
        };
        bump(name.to_owned());
        let split = match name {
            "verify.smt_equiv" => "path",
            "smt.prove_unsat" => "outcome",
            _ => return,
        };
        if let Some(v) = arg(split) {
            bump(format!("{name}/{v}"));
        }
    }

    pub fn add_record(&mut self, r: &SpanRecord) {
        self.add(r.name, r.dur_us, |k| {
            r.args.iter().find_map(|(key, v)| match v {
                ArgValue::Str(s) if *key == k => Some(s.clone()),
                _ => None,
            })
        });
    }

    /// One Chrome trace event, as the server exports them.
    pub fn add_event(&mut self, ev: &Json) {
        let (Some(name), Some(dur)) =
            (ev.get("name").and_then(Json::as_str), ev.get("dur").and_then(Json::as_i64))
        else {
            return;
        };
        let args = ev.get("args");
        self.add(name, dur.max(0) as u64, |k| args?.get(k)?.as_str().map(str::to_owned));
    }

    fn count(&self, key: &str) -> f64 {
        self.by_key.get(key).map_or(0.0, |e| e.0 as f64)
    }

    fn secs(&self, key: &str) -> f64 {
        self.by_key.get(key).map_or(0.0, |e| e.1 as f64 / 1e6)
    }

    pub fn missing(&self, w: Workload) -> Vec<String> {
        expected_spans(w).iter().filter(|n| self.count(n) == 0.0).map(|n| (*n).to_owned()).collect()
    }

    /// The span-derived per-layer metrics. `smt.prove_unsat` spans are
    /// summed over threads and include waits on the shared solver lock,
    /// so `smt.span_over_cpu` above 1 means lock waiting.
    pub fn metrics(&self, cpu_s: f64) -> BTreeMap<String, f64> {
        let smt_s = self.secs("smt.prove_unsat");
        BTreeMap::from([
            ("synth.screen_count".into(), self.count("lift.screen")),
            ("synth.verify_linear".into(), self.count("verify.smt_equiv/linear")),
            ("synth.verify_proof_cache".into(), self.count("verify.smt_equiv/proof-cache")),
            ("synth.verify_solve".into(), self.count("verify.smt_equiv/solve")),
            ("smt.queries".into(), self.count("smt.prove_unsat")),
            ("smt.unsat".into(), self.count("smt.prove_unsat/unsat")),
            ("smt.sat".into(), self.count("smt.prove_unsat/sat")),
            ("smt.unknown".into(), self.count("smt.prove_unsat/unknown")),
            ("smt.span_s".into(), smt_s),
            ("smt.unknown_s".into(), self.secs("smt.prove_unsat/unknown")),
            ("smt.span_over_cpu".into(), if cpu_s > 0.0 { smt_s / cpu_s } else { 0.0 }),
            ("smt.encode_s".into(), self.secs("verify.encode")),
        ])
    }
}

/// Drains the span ring on a side thread while a compile pass runs, so
/// the ring never overflows however many spans a pass emits.
struct Tracer {
    stop: Arc<AtomicBool>,
    handle: std::thread::JoinHandle<(Tally, Vec<SpanRecord>)>,
}

impl Tracer {
    fn start(keep: bool) -> Tracer {
        trace::enable();
        let stop = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&stop);
        let handle = std::thread::spawn(move || {
            let (mut tally, mut kept) = (Tally::default(), Vec::new());
            loop {
                let last = flag.load(Ordering::SeqCst);
                let records = trace::drain();
                for r in &records {
                    tally.add_record(r);
                }
                if keep {
                    kept.extend(records);
                }
                if last {
                    return (tally, kept);
                }
                std::thread::sleep(Duration::from_millis(20));
            }
        });
        Tracer { stop, handle }
    }

    fn finish(self) -> (Tally, Vec<SpanRecord>) {
        trace::disable();
        self.stop.store(true, Ordering::SeqCst);
        self.handle.join().expect("the span drainer does not panic")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn serve_smoke_two_templates_fifty_requests() {
        let start = Instant::now();
        let templates: Vec<(&str, Vec<String>)> =
            inputs::serve_templates().into_iter().take(2).collect();
        let dir = std::env::temp_dir().join(format!("rakebench-smoke-{}", std::process::id()));
        for w in [Workload::ServeWarm, Workload::ServeMixed] {
            let server = Server::start(w, &dir, false, &templates).expect("server starts");
            let mix = Mix::new(w, inputs::DEFAULT_SEED, templates.len());
            let load = drive(&server.addr, &mix, &templates, 50);
            server.shutdown();
            assert_eq!(load.samples.len(), 50, "{w:?}");
            assert_eq!(load.failed, 0);
            let keys: HashSet<String> = load.seen.keys().cloned().collect();
            let checks = check_served(&load.seen, &keys);
            assert_eq!(checks.wrong, 0);
            let misses = load.samples.iter().filter(|s| s.miss).count();
            match w {
                Workload::ServeWarm => {
                    assert_eq!(misses, 0);
                    assert_eq!(load.seen.len(), 2);
                }
                _ => {
                    assert_eq!(misses, 13, "one request in four is a fresh variant");
                    assert_eq!(load.seen.len(), 2 + 13);
                }
            }
            let _ = std::fs::remove_dir_all(&dir);
        }
        assert!(start.elapsed() < Duration::from_secs(10), "took {:?}", start.elapsed());
    }

    #[test]
    fn report_round_trips_through_json() {
        let mut r = Report {
            measured_s: 1.5,
            units: 3,
            unit_ms: vec![1.0, 2.5],
            speedup: 1.25,
            ..Report::default()
        };
        r.layers.insert("driver.key_us".into(), 4.0);
        r.missing.push("lift".into());
        let back = Report::from_json(&json::parse(&r.to_json().to_string()).unwrap()).unwrap();
        assert_eq!(back.unit_ms, r.unit_ms);
        assert_eq!(back.layers, r.layers);
        assert_eq!(back.missing, r.missing);
        assert_eq!(back.speedup, 1.25);
    }
}

//! One run of one workload: fresh child processes, aggregated into the
//! catalogue's metrics.
//!
//! A run spawns children one after another. A compile workload's child
//! runs one cold pass; a run makes as many passes as fit `--seconds` on
//! the reference box (at least three). A serving workload runs three
//! children, each sending as many requests as fit `seconds / 3` on the
//! reference box. Pass and request counts are functions of `--seconds`
//! alone, so every build does the same work. A traced run alternates
//! untraced and traced children, so the per-layer numbers and the tracing
//! overhead come from the same run, and adds one child for the stage pass.
//! End-to-end metrics come from untraced children only.
//!
//! The machine the benchmark runs on is shared, and contention from its
//! other tenants only ever slows a child down. Every child of a run repeats
//! the same inputs, so throughput and CPU per unit are read from the run's
//! fastest child, the reading closest to the code's own speed (Chen and
//! Revels, "Robust benchmarking in noisy environments", 2016); so are a
//! serving run's latencies, which cut the spread of serve-warm's median
//! latency over ten runs from 18% to 7%. A compile run's latency is its
//! median pass.

use std::io::{BufRead, BufReader};
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::sync::mpsc;
use std::time::{Duration, Instant};

use driver::json::{self, Json};

use crate::catalog::{beyond, median, percentile, sorted, tail_percentile, Catalog, Metric};
use crate::child::{ChildArgs, Mode, Report};
use crate::inputs::Workload;

/// Measuring children per run at least; a serving run makes exactly this
/// many untraced.
const MIN_CHILDREN: usize = 3;
/// A run's children are killed this long after it starts, so that `bench`
/// always exits within 180 s.
const RUN_DEADLINE: Duration = Duration::from_secs(170);
/// On a machine far slower than the reference box, stop adding compile
/// passes after this much of a run.
const RUN_BUDGET: Duration = Duration::from_secs(100);

/// The end-to-end metrics `run` computes, in `BENCHMARK.json` order.
const END_TO_END: [&str; 7] = [
    "setup_s",
    "throughput_per_s",
    "latency_p50_ms",
    "latency_tail_ms",
    "cpu_ms_per_unit",
    "peak_rss_mb",
    "code_speedup",
];

/// The per-layer metrics children and the stage pass compute, in
/// `BENCHMARK.json` order. A workload that does not reach a layer reads
/// 0 there.
const LAYERS: [&str; 35] = [
    "driver.unit_p50_ms",
    "driver.unit_tail_ms",
    "driver.job_run_s",
    "driver.queue_wait_s",
    "driver.failed_job_s",
    "driver.decline_share",
    "driver.key_us",
    "driver.cache_hit_share",
    "driver.disk_bytes",
    "synth.lift_s",
    "synth.lower_s",
    "synth.final_verify_s",
    "synth.stage_wall_s",
    "synth.stage_unattributed_share",
    "synth.screen_count",
    "synth.verify_linear",
    "synth.verify_proof_cache",
    "synth.verify_solve",
    "smt.queries",
    "smt.unsat",
    "smt.sat",
    "smt.unknown",
    "smt.span_s",
    "smt.unknown_s",
    "smt.span_over_cpu",
    "smt.encode_s",
    "halide-ir.parse_us",
    "hvx.render_us",
    "hvx.schedule_us",
    "served.server_ms_p50",
    "served.outside_ms_p50",
    "served.miss_server_ms_p50",
    "trace.overhead_share",
    "trace.dropped",
    "trace.missing_spans",
];

/// The outcome of one run, its metrics in catalogue order.
#[derive(Debug, Clone)]
pub struct Outcome {
    pub correct: bool,
    pub attempted: usize,
    pub failed: usize,
    pub wrong: usize,
    pub metrics: Vec<(Metric, f64)>,
    /// Sample counts and caveats for the human-readable report.
    pub notes: Vec<String>,
}

impl Outcome {
    /// The result line `bench` prints last.
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("correct", self.correct.into()),
            ("attempted", self.attempted.into()),
            ("failed", self.failed.into()),
            (
                "metrics",
                Json::Obj(
                    self.metrics
                        .iter()
                        .map(|(m, v)| {
                            (
                                m.name.clone(),
                                Json::obj([
                                    ("value", (*v).into()),
                                    ("unit", m.unit.as_str().into()),
                                ]),
                            )
                        })
                        .collect(),
                ),
            ),
        ])
    }
}

struct Child {
    traced: bool,
    setup_s: f64,
    report: Report,
}

/// Run `workload` once. `trace_dir` keeps the first traced child's Chrome
/// trace there.
pub fn run(
    cat: &Catalog,
    workload: Workload,
    seed: u64,
    seconds: f64,
    traced: bool,
    trace_dir: Option<&Path>,
) -> Result<Outcome, String> {
    let scratch = scratch_dir()?;
    let outcome = run_in(cat, workload, seed, seconds, traced, trace_dir, &scratch);
    let _ = std::fs::remove_dir_all(&scratch);
    outcome
}

fn run_in(
    cat: &Catalog,
    workload: Workload,
    seed: u64,
    seconds: f64,
    traced_run: bool,
    trace_dir: Option<&Path>,
    scratch: &Path,
) -> Result<Outcome, String> {
    let start = Instant::now();
    let deadline = start + RUN_DEADLINE;
    // Child `k`: odd children of a traced run are traced, and the first
    // traced child keeps its trace.
    let requests = (seconds / MIN_CHILDREN as f64 * workload.reference_rate()).round() as u64;
    let child = |k: usize, mode: Mode| -> Result<Child, String> {
        let traced = traced_run && mode == Mode::Measure && k % 2 == 1;
        let trace_out = trace_dir.filter(|_| traced && k == 1).map(|dir| {
            if workload.is_serve() {
                dir.join(workload.name())
            } else {
                dir.join(format!("{}.json", workload.name()))
            }
        });
        let tmp = scratch.join(format!("child-{k}"));
        let args = ChildArgs { workload, seed, requests, traced, mode, tmp, trace_out };
        let (setup_s, report) = spawn(&args, deadline)?;
        Ok(Child { traced, setup_s, report })
    };
    let mut children: Vec<Child> = Vec::new();
    if workload.is_serve() {
        for k in 0..if traced_run { 4 } else { MIN_CHILDREN } {
            children.push(child(k, Mode::Measure)?);
        }
    } else {
        // With a pass count that followed the machine, pooled percentiles
        // would move with it (63 or 84 suite samples put the median on
        // either side of a 25% gap between neighbouring workloads) and a
        // faster build would be judged on a best of more passes.
        let passes = ((seconds * workload.reference_rate()).round() as usize).max(MIN_CHILDREN);
        while children.len() < passes
            && (children.len() < MIN_CHILDREN || start.elapsed() < RUN_BUDGET)
        {
            children.push(child(children.len(), Mode::Measure)?);
        }
    }
    let stage = if traced_run { Some(child(children.len(), Mode::Stage)?.report) } else { None };

    let plain: Vec<&Report> = children.iter().filter(|c| !c.traced).map(|c| &c.report).collect();
    let with_spans: Vec<&Report> =
        children.iter().filter(|c| c.traced).map(|c| &c.report).collect();
    let unit_ms = sorted(&plain.iter().flat_map(|r| r.unit_ms.iter().copied()).collect::<Vec<_>>());
    // The fastest child's reading: the lowest time, the highest rate.
    let best = |rs: &[&Report], f: &dyn Fn(&Report) -> f64| {
        rs.iter().map(|r| f(r)).fold(f64::NAN, f64::min)
    };
    let throughput =
        |rs: &[&Report]| rs.iter().map(|r| r.units as f64 / r.measured_s).fold(f64::NAN, f64::max);
    let units: usize = plain.iter().map(|r| r.units).sum();
    let tail = workload.tail_pct();
    // A serving child's thousands of requests give it its own percentiles.
    // A compile client waits for a whole pass; with 3-9 passes no
    // percentile above the median has ten samples beyond it, so the tail
    // is the median too. The units inside a pass (Table-1 workloads, fuzz
    // jobs) are few and unlike each other: their median falls in gaps
    // between clusters (box_blur ~180 ms, gaussian5x5 ~230 ms; fuzz jobs at
    // 6 ms or 16 ms) and jumped 25% between runs, so their percentiles are
    // per-layer metrics, pooled over the passes.
    let (p50_ms, tail_ms) = if workload.is_serve() {
        (
            best(&plain, &|r| percentile(&sorted(&r.unit_ms), 50.0)),
            best(&plain, &|r| percentile(&sorted(&r.unit_ms), tail)),
        )
    } else {
        let pass_ms = median(&plain.iter().map(|r| r.measured_s * 1e3).collect::<Vec<_>>());
        (pass_ms, pass_ms)
    };

    let mut values: Vec<(String, f64)> = vec![
        ("setup_s".into(), median(&children.iter().map(|c| c.setup_s).collect::<Vec<_>>())),
        ("throughput_per_s".into(), throughput(&plain)),
        ("latency_p50_ms".into(), p50_ms),
        ("latency_tail_ms".into(), tail_ms),
        ("cpu_ms_per_unit".into(), best(&plain, &|r| r.cpu_s * 1e3 / r.units as f64)),
        ("peak_rss_mb".into(), median(&plain.iter().map(|r| r.rss_mib).collect::<Vec<_>>())),
        (
            "code_speedup".into(),
            median(&children.iter().map(|c| c.report.speedup).collect::<Vec<_>>()),
        ),
    ];
    if !workload.is_serve() {
        values.push(("driver.unit_p50_ms".into(), percentile(&unit_ms, 50.0)));
        values.push(("driver.unit_tail_ms".into(), percentile(&unit_ms, tail)));
    }
    // Per-layer values: call and result measurements from untraced
    // children, span measurements from traced ones, the stage split from
    // the stage child.
    let mut layer_keys: Vec<&String> = plain.iter().flat_map(|r| r.layers.keys()).collect();
    layer_keys.extend(with_spans.iter().flat_map(|r| r.spans.keys()));
    layer_keys.sort();
    layer_keys.dedup();
    for key in layer_keys {
        let samples: Vec<f64> = plain
            .iter()
            .filter_map(|r| r.layers.get(key))
            .chain(with_spans.iter().filter_map(|r| r.spans.get(key)))
            .copied()
            .collect();
        values.push((key.clone(), median(&samples)));
    }
    if let Some(stage) = &stage {
        values.extend(stage.layers.iter().map(|(k, v)| (k.clone(), *v)));
    }
    let mut missing: Vec<String> =
        with_spans.iter().flat_map(|r| r.missing.iter().cloned()).collect();
    missing.sort();
    missing.dedup();
    let dropped: u64 = with_spans.iter().map(|r| r.dropped).sum();
    if traced_run {
        values.push((
            "trace.overhead_share".into(),
            throughput(&plain) / throughput(&with_spans) - 1.0,
        ));
        values.push(("trace.dropped".into(), dropped as f64));
        values.push(("trace.missing_spans".into(), missing.len() as f64));
    }

    let all: Vec<&Report> = children.iter().map(|c| &c.report).chain(stage.as_ref()).collect();
    let wrong: usize = all.iter().map(|r| r.wrong).sum();
    let mut notes = vec![format!(
        "{} children ({} traced), {} units, unit tail = p{tail} of {} samples",
        children.len(),
        with_spans.len(),
        units,
        unit_ms.len()
    )];
    if beyond(unit_ms.len(), tail) < 10 {
        notes.push(format!(
            "p{tail} has fewer than ten samples beyond it (p{} would)",
            tail_percentile(unit_ms.len())
        ));
    }
    if !missing.is_empty() {
        notes.push(format!("missing spans: {}", missing.join(", ")));
    }
    if let Some(share) =
        values.iter().find(|(k, _)| k == "synth.stage_unattributed_share").map(|(_, v)| *v)
    {
        if share.abs() > 0.05 {
            notes.push(format!(
                "stage pass: lift + lower + final check leave {:.1}% of its wall unattributed",
                share * 100.0
            ));
        }
    }

    let mut metrics = Vec::new();
    for m in cat.metrics(traced_run) {
        if !END_TO_END.contains(&m.name.as_str()) && !LAYERS.contains(&m.name.as_str()) {
            return Err(format!(
                "BENCHMARK.json lists {}, which rakebench does not compute",
                m.name
            ));
        }
        let value = values.iter().find(|(k, _)| *k == m.name).map(|(_, v)| *v).unwrap_or(0.0);
        // Per-layer values of no samples (a layer this workload does not
        // reach) read as 0; an end-to-end metric must always be measured.
        let value = if value.is_finite() {
            value
        } else if traced_run {
            0.0
        } else {
            return Err(format!("{}: {} was not measured", workload.name(), m.name));
        };
        metrics.push((m.clone(), value));
    }
    Ok(Outcome {
        correct: wrong == 0 && dropped == 0,
        attempted: all.iter().map(|r| r.units + r.failed).sum(),
        failed: all.iter().map(|r| r.failed).sum(),
        wrong,
        metrics,
        notes,
    })
}

/// Start one child, time its set-up, and collect its report; kill it at
/// `deadline`.
fn spawn(args: &ChildArgs, deadline: Instant) -> Result<(f64, Report), String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot locate this binary: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.arg("child")
        .args(["--workload", args.workload.name()])
        .args(["--seed", &args.seed.to_string()])
        .args(["--requests", &args.requests.to_string()])
        .args(["--tmp", &args.tmp.to_string_lossy()]);
    if args.traced {
        cmd.arg("--traced");
    }
    if args.mode == Mode::Stage {
        cmd.arg("--stage");
    }
    if let Some(out) = &args.trace_out {
        cmd.args(["--trace-out", &out.to_string_lossy()]);
    }
    let start = Instant::now();
    let mut child = cmd
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit())
        .spawn()
        .map_err(|e| format!("cannot start a child: {e}"))?;
    let stdout = child.stdout.take().expect("stdout is piped");
    let (tx, rx) = mpsc::channel();
    let reader = std::thread::spawn(move || {
        for line in BufReader::new(stdout).lines() {
            let Ok(line) = line else { break };
            if tx.send((Instant::now(), line)).is_err() {
                break;
            }
        }
    });
    let mut setup_s = None;
    let mut report = None;
    while let Ok((at, line)) = rx.recv_timeout(deadline.saturating_duration_since(Instant::now())) {
        if line == "ready" {
            setup_s.get_or_insert((at - start).as_secs_f64());
        } else if line.starts_with('{') {
            report = Some(line);
        }
    }
    if Instant::now() >= deadline {
        let _ = child.kill();
    }
    let status = child.wait().map_err(|e| format!("lost a child: {e}"))?;
    let _ = reader.join();
    let what = format!("{} child", args.workload.name());
    if !status.success() {
        return Err(format!("{what} exited with {status}"));
    }
    let (Some(setup_s), Some(line)) = (setup_s, report) else {
        return Err(format!("{what} ended without a report"));
    };
    let doc = json::parse(&line).map_err(|e| format!("{what} report: {e}"))?;
    Ok((setup_s, Report::from_json(&doc)?))
}

/// A scratch directory beside this binary (inside the build directory),
/// unique to this process.
fn scratch_dir() -> Result<PathBuf, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot locate this binary: {e}"))?;
    let dir = exe
        .parent()
        .unwrap_or(Path::new("."))
        .join("rakebench-tmp")
        .join(std::process::id().to_string());
    std::fs::create_dir_all(&dir).map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    Ok(dir)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catalog_lists_exactly_the_computed_metrics() {
        let cat = Catalog::embedded();
        let names = |ms: &[Metric]| ms.iter().map(|m| m.name.clone()).collect::<Vec<_>>();
        assert_eq!(names(&cat.end_to_end), END_TO_END);
        assert_eq!(names(&cat.per_layer), LAYERS);
        let workloads: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
        assert_eq!(cat.workloads, workloads);
    }
}

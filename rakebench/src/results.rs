//! Results files: `run` and `trace` write them, `check` validates one
//! against the catalogue, `compare` sets two side by side.

use std::collections::BTreeMap;
use std::path::Path;

use driver::json::{self, Json};

use crate::bench::Outcome;
use crate::catalog::{median, sorted, Catalog, Metric};
use crate::child::num;

/// The configuration a results file records.
#[derive(Debug, Clone)]
pub struct Config {
    pub seed: u64,
    pub reps: usize,
    pub seconds: f64,
}

impl Config {
    fn to_json(&self) -> Json {
        let git = std::process::Command::new("git")
            .args(["rev-parse", "--short=12", "HEAD"])
            .output()
            .ok()
            .filter(|o| o.status.success())
            .map_or_else(
                || "unknown".to_owned(),
                |o| String::from_utf8_lossy(&o.stdout).trim().to_owned(),
            );
        Json::obj([
            ("nproc", std::thread::available_parallelism().map_or(1, |n| n.get()).into()),
            ("git_rev", git.into()),
            ("profile", if cfg!(debug_assertions) { "debug" } else { "release" }.into()),
            ("seed", self.seed.into()),
            ("reps", self.reps.into()),
            ("seconds", self.seconds.into()),
            ("conflict_budget", crate::inputs::CONFLICT_BUDGET.into()),
        ])
    }
}

/// Every run of one workload.
#[derive(Debug, Default)]
pub struct Runs {
    pub outcomes: Vec<Outcome>,
}

impl Runs {
    fn correct(&self) -> bool {
        self.outcomes.iter().all(|o| o.correct)
    }

    fn samples(&self) -> Vec<(&Metric, Vec<f64>)> {
        let Some(first) = self.outcomes.first() else { return Vec::new() };
        first
            .metrics
            .iter()
            .enumerate()
            .map(|(i, (m, _))| (m, self.outcomes.iter().map(|o| o.metrics[i].1).collect()))
            .collect()
    }
}

/// Render `run` results (median, min, max and count of every metric over
/// the reps) for the console.
pub fn print_runs(runs: &[(String, Runs)]) {
    for (name, r) in runs {
        let failed: usize = r.outcomes.iter().map(|o| o.failed).sum();
        let attempted: usize = r.outcomes.iter().map(|o| o.attempted).sum();
        let wrong: usize = r.outcomes.iter().map(|o| o.wrong).sum();
        eprintln!("{name}: {attempted} attempted, {failed} failed, {wrong} wrong outputs");
        for (m, v) in r.samples() {
            let s = sorted(&v);
            eprintln!(
                "  {:<34} {:>12.4} {:<6} min {:>12.4}  max {:>12.4}  n={}",
                m.name,
                median(&v),
                m.unit,
                s[0],
                s[s.len() - 1],
                s.len()
            );
        }
        for o in &r.outcomes {
            for n in &o.notes {
                eprintln!("  note: {n}");
            }
        }
    }
}

/// The results document of `run` (`schema: rakebench-results-v1`) or, for
/// a traced run, `trace` (`rakebench-layers-v1`).
pub fn document(config: &Config, runs: &[(String, Runs)], traced: bool) -> Json {
    let workloads = runs
        .iter()
        .map(|(name, r)| {
            let metrics = r
                .samples()
                .into_iter()
                .map(|(m, v)| {
                    let s = sorted(&v);
                    let stats = Json::obj([
                        ("unit", m.unit.as_str().into()),
                        ("median", num(median(&v))),
                        ("min", num(s[0])),
                        ("max", num(s[s.len() - 1])),
                        ("n", v.len().into()),
                        ("samples", Json::Arr(v.iter().map(|&x| num(x)).collect())),
                    ]);
                    (m.name.clone(), stats)
                })
                .collect();
            Json::obj([
                ("name", name.as_str().into()),
                ("correct", r.correct().into()),
                ("attempted", r.outcomes.iter().map(|o| o.attempted).sum::<usize>().into()),
                ("failed", r.outcomes.iter().map(|o| o.failed).sum::<usize>().into()),
                ("wrong_outputs", r.outcomes.iter().map(|o| o.wrong).sum::<usize>().into()),
                (
                    "notes",
                    Json::Arr(
                        r.outcomes
                            .iter()
                            .flat_map(|o| o.notes.iter().map(|n| Json::Str(n.clone())))
                            .collect(),
                    ),
                ),
                ("metrics", Json::Obj(metrics)),
            ])
        })
        .collect();
    Json::obj([
        ("schema", if traced { "rakebench-layers-v1" } else { "rakebench-results-v1" }.into()),
        ("config", config.to_json()),
        ("workloads", Json::Arr(workloads)),
    ])
}

pub fn load(path: &Path) -> Result<Json, String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

/// Problems that keep a results file from standing as a record: a missing
/// config field, a missing workload or end-to-end metric, a unit that
/// disagrees with the catalogue, any wrong output, or any failed unit (a
/// failed lift or lowering of a fuzz expression is a verdict, not a
/// failure).
pub fn check(cat: &Catalog, doc: &Json) -> Vec<String> {
    let mut problems = Vec::new();
    if doc.get("schema").and_then(Json::as_str) != Some("rakebench-results-v1") {
        problems.push("schema is not rakebench-results-v1".to_owned());
    }
    for key in ["nproc", "git_rev", "profile", "seed", "reps"] {
        if doc.get("config").and_then(|c| c.get(key)).is_none() {
            problems.push(format!("config.{key} is missing"));
        }
    }
    let entries = doc.get("workloads").and_then(Json::as_arr).unwrap_or(&[]);
    for w in &cat.workloads {
        let Some(entry) = entries.iter().find(|e| e.get("name").and_then(Json::as_str) == Some(w))
        else {
            problems.push(format!("workload {w} is missing"));
            continue;
        };
        for key in ["wrong_outputs", "failed"] {
            if entry.get(key).and_then(Json::as_i64) != Some(0) {
                problems.push(format!("{w}: {key} is not 0"));
            }
        }
        for m in &cat.end_to_end {
            let Some(stats) = entry.get("metrics").and_then(|ms| ms.get(&m.name)) else {
                problems.push(format!("{w}: metric {} is missing", m.name));
                continue;
            };
            if stats.get("unit").and_then(Json::as_str) != Some(m.unit.as_str()) {
                problems.push(format!("{w}: metric {} is not in {}", m.name, m.unit));
            }
            if !matches!(stats.get("median"), Some(Json::Num(_)))
                || stats.get("n").and_then(Json::as_i64).unwrap_or(0) < 1
            {
                problems.push(format!("{w}: metric {} has no samples", m.name));
            }
        }
    }
    problems
}

/// How a metric moved between two results files.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Better,
    Same,
    Worse,
    /// Either side's min–max spread exceeds the bound.
    Unresolved,
}

/// One row of `compare`.
#[derive(Debug, Clone)]
pub struct Row {
    pub workload: String,
    pub metric: String,
    pub base: f64,
    pub new: f64,
    pub verdict: Verdict,
}

/// Settings that change what a run measures: `--seconds` sets the pass
/// and request counts, and with them the mixed server's size.
const SETTINGS: [&str; 5] = ["seed", "seconds", "conflict_budget", "profile", "nproc"];

/// Differences smaller than this, in the metric's unit, are timer and
/// scheduling noise whatever the relative bound says: the paper suite
/// sets up in about 2 ms.
fn abs_floor(unit: &str) -> f64 {
    match unit {
        "s" | "ms" => 0.05,
        _ => 0.0,
    }
}

/// Compare every workload × end-to-end metric of two results files, and
/// each workload's share of failed units. Files run with different
/// settings do not compare.
pub fn compare(cat: &Catalog, base: &Json, new: &Json) -> Result<Vec<Row>, String> {
    let setting =
        |doc: &Json, k: &str| doc.get("config").and_then(|c| c.get(k)).map(Json::to_string);
    let differ: Vec<String> = SETTINGS
        .iter()
        .filter(|k| setting(base, k) != setting(new, k))
        .map(|k| {
            let show = |doc| setting(doc, k).unwrap_or_else(|| "none".to_owned());
            format!("{k} {} vs {}", show(base), show(new))
        })
        .collect();
    if !differ.is_empty() {
        return Err(format!("the files were run with different settings: {}", differ.join(", ")));
    }
    fn entry<'a>(doc: &'a Json, w: &str) -> Result<&'a Json, String> {
        doc.get("workloads")
            .and_then(Json::as_arr)
            .and_then(|ws| ws.iter().find(|e| e.get("name").and_then(Json::as_str) == Some(w)))
            .ok_or_else(|| format!("workload {w} is missing"))
    }
    let stats = |e: &Json, w: &str, m: &str| -> Result<BTreeMap<&'static str, f64>, String> {
        let stats =
            e.get("metrics").and_then(|ms| ms.get(m)).ok_or(format!("{w}/{m} is missing"))?;
        ["median", "min", "max"]
            .into_iter()
            .map(|k| match stats.get(k) {
                Some(Json::Num(v)) => Ok((k, *v)),
                _ => Err(format!("{w}/{m}.{k} is missing")),
            })
            .collect()
    };
    let failed_share = |e: &Json, w: &str| -> Result<f64, String> {
        match (e.get("failed").and_then(Json::as_i64), e.get("attempted").and_then(Json::as_i64)) {
            (Some(f), Some(a)) if a > 0 => Ok(f as f64 / a as f64),
            _ => Err(format!("{w}: failed or attempted is missing")),
        }
    };
    let mut rows = Vec::new();
    for w in &cat.workloads {
        let (be, ne) = (entry(base, w)?, entry(new, w)?);
        for m in &cat.end_to_end {
            let (b, n) = (stats(be, w, &m.name)?, stats(ne, w, &m.name)?);
            let tolerance =
                |median: f64| (m.bound.unwrap_or(0.0) * median.abs()).max(abs_floor(&m.unit));
            // Signed so that positive is an improvement.
            let gain = |from: f64, to: f64| if m.higher_is_better { to - from } else { from - to };
            let noisy = |s: &BTreeMap<&str, f64>| s["max"] - s["min"] > tolerance(s["median"]);
            let verdict = if noisy(&b) || noisy(&n) {
                // Too noisy to call, unless every new run beats every base run.
                if gain(b["max"], n["min"]) > 0.0 && gain(b["min"], n["max"]) > 0.0 {
                    Verdict::Better
                } else {
                    Verdict::Unresolved
                }
            } else if gain(b["median"], n["median"]) < -tolerance(b["median"]) {
                Verdict::Worse
            } else if gain(b["median"], n["median"]) > tolerance(b["median"]) {
                Verdict::Better
            } else {
                Verdict::Same
            };
            rows.push(Row {
                workload: w.clone(),
                metric: m.name.clone(),
                base: b["median"],
                new: n["median"],
                verdict,
            });
        }
        // Any more failed work is a regression, whatever the timings say.
        let (b, n) = (failed_share(be, w)?, failed_share(ne, w)?);
        rows.push(Row {
            workload: w.clone(),
            metric: "failed_share".to_owned(),
            base: b,
            new: n,
            verdict: match n.total_cmp(&b) {
                std::cmp::Ordering::Greater => Verdict::Worse,
                std::cmp::Ordering::Less => Verdict::Better,
                std::cmp::Ordering::Equal => Verdict::Same,
            },
        });
    }
    Ok(rows)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A results document with every catalogue metric at `value`.
    fn doc(cat: &Catalog, value: f64, spread: f64) -> Json {
        let metrics: Vec<(String, Json)> = cat
            .end_to_end
            .iter()
            .map(|m| {
                (
                    m.name.clone(),
                    Json::obj([
                        ("unit", m.unit.as_str().into()),
                        ("median", value.into()),
                        ("min", (value * (1.0 - spread)).into()),
                        ("max", (value * (1.0 + spread)).into()),
                        ("n", 3usize.into()),
                    ]),
                )
            })
            .collect();
        let workloads = cat
            .workloads
            .iter()
            .map(|w| {
                Json::obj([
                    ("name", w.as_str().into()),
                    ("attempted", 100usize.into()),
                    ("failed", 0usize.into()),
                    ("wrong_outputs", 0usize.into()),
                    ("metrics", Json::Obj(metrics.clone())),
                ])
            })
            .collect();
        let config = Config { seed: 1, reps: 3, seconds: 1.0 };
        Json::obj([
            ("schema", "rakebench-results-v1".into()),
            ("config", config.to_json()),
            ("workloads", Json::Arr(workloads)),
        ])
    }

    /// `doc` with the first occurrence of `from` replaced by `to`.
    fn edit(doc: &Json, from: &str, to: &str) -> Json {
        json::parse(&doc.to_string().replacen(from, to, 1)).unwrap()
    }

    /// `(workload, metric, verdict)` of every row that is not `Same`.
    fn changed(rows: &[Row]) -> Vec<(&str, &str, Verdict)> {
        rows.iter()
            .filter(|r| r.verdict != Verdict::Same)
            .map(|r| (r.workload.as_str(), r.metric.as_str(), r.verdict))
            .collect()
    }

    #[test]
    fn check_accepts_a_complete_file_and_rejects_a_missing_metric() {
        let cat = Catalog::embedded();
        let full = doc(&cat, 1.0, 0.0);
        assert_eq!(check(&cat, &full), Vec::<String>::new());
        let broken = edit(&full, "\"latency_p50_ms\"", "\"latency_p51_ms\"");
        let problems = check(&cat, &broken);
        assert_eq!(problems, vec!["paper-suite: metric latency_p50_ms is missing".to_owned()]);
        let wrong = edit(&full, "\"wrong_outputs\":0", "\"wrong_outputs\":2");
        assert_eq!(check(&cat, &wrong), vec!["paper-suite: wrong_outputs is not 0".to_owned()]);
        let failed = edit(&full, "\"failed\":0", "\"failed\":1");
        assert_eq!(check(&cat, &failed), vec!["paper-suite: failed is not 0".to_owned()]);
    }

    #[test]
    fn compare_reads_direction_bounds_and_spread() {
        let cat = Catalog::embedded();
        let timed = |base: &Json, new: &Json| -> Vec<(String, Verdict)> {
            compare(&cat, base, new)
                .unwrap()
                .into_iter()
                .filter(|r| r.metric != "failed_share")
                .map(|r| (r.metric, r.verdict))
                .collect()
        };
        let base = doc(&cat, 100.0, 0.0);
        assert!(timed(&base, &base).iter().all(|(_, v)| *v == Verdict::Same));
        // Up by half: worse where lower is better, better where higher is.
        let up = doc(&cat, 150.0, 0.0);
        for ((name, verdict), m) in timed(&base, &up).iter().zip(cat.end_to_end.iter().cycle()) {
            assert_eq!(name, &m.name);
            let expect = if m.higher_is_better { Verdict::Better } else { Verdict::Worse };
            assert_eq!(*verdict, expect, "{name}");
        }
        // A spread wider than any bound leaves everything unresolved.
        let noisy = doc(&cat, 101.0, 0.3);
        assert!(timed(&base, &noisy).iter().all(|(_, v)| *v == Verdict::Unresolved));
    }

    #[test]
    fn compare_marks_more_failed_work_worse() {
        let cat = Catalog::embedded();
        let base = doc(&cat, 100.0, 0.0);
        let failing = edit(&base, "\"failed\":0", "\"failed\":1");
        let rows = compare(&cat, &base, &failing).unwrap();
        assert_eq!(changed(&rows), vec![("paper-suite", "failed_share", Verdict::Worse)]);
        let rows = compare(&cat, &failing, &base).unwrap();
        assert_eq!(changed(&rows), vec![("paper-suite", "failed_share", Verdict::Better)]);
    }

    #[test]
    fn compare_refuses_files_run_with_different_settings() {
        let cat = Catalog::embedded();
        let base = doc(&cat, 100.0, 0.0);
        let other = edit(&base, "\"seed\":1", "\"seed\":2");
        let err = compare(&cat, &base, &other).unwrap_err();
        assert!(err.contains("seed 1 vs 2"), "{err}");
        let longer = edit(&base, "\"seconds\":1", "\"seconds\":2");
        assert!(compare(&cat, &base, &longer).is_err());
    }

    #[test]
    fn compare_ignores_time_differences_below_the_absolute_floor() {
        let cat = Catalog::embedded();
        // A 2 ms set-up whose runs spread by 30% and whose median moves by
        // half: both within 0.05 s.
        let base = doc(&cat, 0.002, 0.3);
        let new = doc(&cat, 0.003, 0.3);
        let rows = compare(&cat, &base, &new).unwrap();
        for r in &rows {
            let unit = cat.end_to_end.iter().find(|m| m.name == r.metric).map(|m| m.unit.as_str());
            if matches!(unit, Some("s" | "ms")) {
                assert_eq!(r.verdict, Verdict::Same, "{}/{}", r.workload, r.metric);
            }
        }
        assert!(rows.iter().any(|r| r.metric == "setup_s"));
    }
}

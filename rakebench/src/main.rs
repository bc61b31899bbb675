//! `rakebench` — the benchmark of record for the Rake reproduction.
//!
//! ```text
//! rakebench bench --workload W [--seed S] [--seconds T] [--trace 0|1]
//! rakebench run [--seed S] [--reps R] [--seconds T] [--out FILE]
//! rakebench trace [--seed S] [--seconds T] [--trace-dir DIR] [--out FILE]
//! rakebench check FILE
//! rakebench compare BASE NEW
//! ```
//!
//! `bench` runs one workload and prints one JSON line: the end-to-end
//! metrics untraced, the per-layer metrics with `--trace 1`. `run`
//! repeats every workload `--reps` times, round-robin, and writes the
//! results file `check` and `compare` read. `trace` runs every workload
//! traced and writes the per-layer ledger. See `README.md`.

mod bench;
mod catalog;
mod child;
mod inputs;
mod results;

use std::path::PathBuf;
use std::process::ExitCode;

use catalog::Catalog;
use inputs::Workload;
use results::{Config, Runs, Verdict};

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let Some((command, rest)) = argv.split_first() else {
        return usage("missing command");
    };
    let result = match command.as_str() {
        "bench" => bench(rest),
        "run" => run(rest, false),
        "trace" => run(rest, true),
        "check" => check(rest),
        "compare" => compare(rest),
        "child" => child(rest),
        other => return usage(&format!("unknown command `{other}`")),
    };
    match result {
        Ok(code) => code,
        Err(e) => {
            eprintln!("rakebench: {e}");
            ExitCode::FAILURE
        }
    }
}

fn usage(err: &str) -> ExitCode {
    eprintln!("rakebench: {err}");
    eprintln!(
        "usage: rakebench bench --workload W [--seed S] [--seconds T] [--trace 0|1]\n       \
         rakebench run [--seed S] [--reps R] [--seconds T] [--out FILE]\n       \
         rakebench trace [--seed S] [--seconds T] [--trace-dir DIR] [--out FILE]\n       \
         rakebench check FILE\n       rakebench compare BASE NEW"
    );
    ExitCode::from(2)
}

/// Flag parser: `--name value` pairs and bare `--switch`es.
struct Flags(Vec<(String, Option<String>)>);

impl Flags {
    fn parse(args: &[String], switches: &[&str]) -> Result<Flags, String> {
        let mut out = Vec::new();
        let mut it = args.iter();
        while let Some(a) = it.next() {
            let Some(name) = a.strip_prefix("--") else {
                return Err(format!("unexpected argument `{a}`"));
            };
            if switches.contains(&name) {
                out.push((name.to_owned(), None));
            } else {
                let value = it.next().ok_or_else(|| format!("--{name} needs a value"))?;
                out.push((name.to_owned(), Some(value.clone())));
            }
        }
        Ok(Flags(out))
    }

    fn get(&self, name: &str) -> Option<&str> {
        self.0.iter().rev().find(|(n, _)| n == name).and_then(|(_, v)| v.as_deref())
    }

    fn has(&self, name: &str) -> bool {
        self.0.iter().any(|(n, _)| n == name)
    }

    fn num<T: std::str::FromStr>(&self, name: &str, default: T) -> Result<T, String> {
        self.get(name)
            .map_or(Ok(default), |v| v.parse().map_err(|_| format!("--{name}: bad value `{v}`")))
    }

    /// Reject flags outside `known`.
    fn only(self, known: &[&str]) -> Result<Flags, String> {
        match self.0.iter().find(|(n, _)| !known.contains(&n.as_str())) {
            Some((n, _)) => Err(format!("unknown option --{n}")),
            None => Ok(self),
        }
    }
}

fn workload(flags: &Flags) -> Result<Workload, String> {
    let name = flags.get("workload").ok_or("--workload is required")?;
    Workload::from_name(name).ok_or_else(|| format!("unknown workload `{name}`"))
}

fn bench(args: &[String]) -> Result<ExitCode, String> {
    let flags = Flags::parse(args, &[])?.only(&["workload", "seed", "seconds", "trace"])?;
    let cat = Catalog::embedded();
    let w = workload(&flags)?;
    let traced = match flags.get("trace").unwrap_or("0") {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, not `{other}`")),
    };
    let seconds = flags.num("seconds", cat.run_seconds as f64)?;
    let outcome =
        bench::run(&cat, w, flags.num("seed", inputs::DEFAULT_SEED)?, seconds, traced, None)?;
    for (m, v) in &outcome.metrics {
        eprintln!("{:<34} {v:>14.6} {}", m.name, m.unit);
    }
    for n in &outcome.notes {
        eprintln!("note: {n}");
    }
    println!("{}", outcome.to_json());
    Ok(if outcome.correct && outcome.failed == 0 { ExitCode::SUCCESS } else { ExitCode::FAILURE })
}

/// `run` (end-to-end, `--reps` round-robin reps) or `trace` (one traced
/// run per workload).
fn run(args: &[String], traced: bool) -> Result<ExitCode, String> {
    let known: &[&str] = if traced {
        &["seed", "seconds", "trace-dir", "out"]
    } else {
        &["seed", "seconds", "reps", "out"]
    };
    let flags = Flags::parse(args, &[])?.only(known)?;
    let cat = Catalog::embedded();
    let config = Config {
        seed: flags.num("seed", inputs::DEFAULT_SEED)?,
        reps: if traced { 1 } else { flags.num("reps", 3)? },
        seconds: flags.num("seconds", cat.run_seconds as f64)?,
    };
    let trace_dir = flags.get("trace-dir").map(PathBuf::from);
    if let Some(dir) = &trace_dir {
        std::fs::create_dir_all(dir)
            .map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    }
    let mut runs: Vec<(String, Runs)> =
        Workload::ALL.iter().map(|w| (w.name().to_owned(), Runs::default())).collect();
    for rep in 0..config.reps {
        for (w, (_, r)) in Workload::ALL.iter().zip(runs.iter_mut()) {
            eprintln!("rakebench: rep {}/{} {}", rep + 1, config.reps, w.name());
            r.outcomes.push(bench::run(
                &cat,
                *w,
                config.seed,
                config.seconds,
                traced,
                trace_dir.as_deref(),
            )?);
        }
    }
    results::print_runs(&runs);
    let doc = results::document(&config, &runs, traced);
    if let Some(out) = flags.get("out") {
        std::fs::write(out, format!("{doc}\n")).map_err(|e| format!("cannot write {out}: {e}"))?;
        eprintln!("rakebench: wrote {out}");
    }
    let clean = runs.iter().all(|(_, r)| r.outcomes.iter().all(|o| o.correct && o.failed == 0));
    Ok(if clean { ExitCode::SUCCESS } else { ExitCode::FAILURE })
}

fn check(args: &[String]) -> Result<ExitCode, String> {
    let [file] = args else { return Err("usage: rakebench check FILE".into()) };
    let problems = results::check(&Catalog::embedded(), &results::load(file.as_ref())?);
    for p in &problems {
        eprintln!("{file}: {p}");
    }
    if problems.is_empty() {
        eprintln!("{file}: ok");
    }
    Ok(if problems.is_empty() { ExitCode::SUCCESS } else { ExitCode::FAILURE })
}

fn compare(args: &[String]) -> Result<ExitCode, String> {
    let [base, new] = args else { return Err("usage: rakebench compare BASE NEW".into()) };
    let cat = Catalog::embedded();
    let (base_doc, new_doc) = (results::load(base.as_ref())?, results::load(new.as_ref())?);
    let rows = results::compare(&cat, &base_doc, &new_doc)?;
    for (label, doc) in [("base", &base_doc), ("new", &new_doc)] {
        let rev = doc.get("config").and_then(|c| c.get("git_rev")).and_then(|r| r.as_str());
        println!("{label}: git {}", rev.unwrap_or("unknown"));
    }
    println!(
        "{:<12} {:<20} {:>14} {:>14} {:>8}  verdict",
        "workload", "metric", "base", "new", "change"
    );
    for r in &rows {
        let change = (r.new - r.base) / r.base * 100.0;
        println!(
            "{:<12} {:<20} {:>14.4} {:>14.4} {:>8}  {}",
            r.workload,
            r.metric,
            r.base,
            r.new,
            if change.is_finite() { format!("{change:+.1}%") } else { "-".to_owned() },
            match r.verdict {
                Verdict::Better => "better",
                Verdict::Same => "same",
                Verdict::Worse => "worse",
                Verdict::Unresolved => "unresolved",
            }
        );
    }
    let clean = rows.iter().all(|r| matches!(r.verdict, Verdict::Better | Verdict::Same));
    Ok(if clean { ExitCode::SUCCESS } else { ExitCode::FAILURE })
}

/// Internal: one measurement in this fresh process (see `child.rs`).
fn child(args: &[String]) -> Result<ExitCode, String> {
    let flags = Flags::parse(args, &["traced", "stage"])?.only(&[
        "workload",
        "seed",
        "requests",
        "tmp",
        "traced",
        "stage",
        "trace-out",
    ])?;
    let args = child::ChildArgs {
        workload: workload(&flags)?,
        seed: flags.num("seed", inputs::DEFAULT_SEED)?,
        requests: flags.num("requests", 0)?,
        traced: flags.has("traced"),
        mode: if flags.has("stage") { child::Mode::Stage } else { child::Mode::Measure },
        tmp: PathBuf::from(flags.get("tmp").ok_or("--tmp is required")?),
        trace_out: flags.get("trace-out").map(PathBuf::from),
    };
    child::main(&args)?;
    Ok(ExitCode::SUCCESS)
}

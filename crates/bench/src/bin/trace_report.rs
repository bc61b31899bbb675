//! `trace_report` — analyze `rake-trace-v1` Chrome trace-event JSON.
//!
//! Consumes the traces written by `rakec --trace-out`, `conform
//! --trace-out` (a whole conformance sweep), or a `rake-served
//! --trace-out` directory, and renders aggregate views a timeline viewer
//! cannot:
//!
//!   * per-stage breakdown — self-time (duration minus direct children)
//!     summed by span category (lift / smt / swizzle / driver / served ...);
//!     its total counts only spans whose parent is in another category, so
//!     nested spans of one category (`verify.smt_equiv` over
//!     `smt.prove_unsat`, `driver.batch` over `driver.job`) count once
//!   * per-operation breakdown — the same, by span name
//!   * per-rule breakdown — time and firing count per lifting rule
//!   * top-N slowest SMT queries, each listed once: its `verify.smt_equiv`
//!     span with the path, proof-cache key and outcome, or the bare
//!     `smt.prove_unsat` span when no verifier span encloses it
//!
//! ```sh
//! trace_report trace.json                  # breakdown tables
//! trace_report --top 20 traces/           # every *.json in the directory
//! trace_report --folded trace.json        # flamegraph folded stacks
//! trace_report --check trace.json         # schema validation (CI gates)
//! ```
//!
//! Options:
//!   --top N     slowest SMT queries to list (default 10)
//!   --folded    emit flamegraph folded stacks to stdout instead of tables
//!   --check     validate the `rake-trace-v1` schema and event
//!               well-formedness; exit non-zero on any malformed file

use std::collections::HashMap;
use std::path::Path;
use std::process::ExitCode;

use driver::json::{self, Json};
use trace::{ArgValue, SpanRecord};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut top = 10usize;
    let mut folded = false;
    let mut check = false;
    let mut paths: Vec<String> = Vec::new();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--top" => match it.next().and_then(|v| v.parse().ok()) {
                Some(v) => top = v,
                None => return usage("--top needs an integer"),
            },
            "--folded" => folded = true,
            "--check" => check = true,
            "--help" | "-h" => return usage(""),
            other if !other.starts_with('-') => paths.push(other.to_owned()),
            other => return usage(&format!("unknown option `{other}`")),
        }
    }
    if paths.is_empty() {
        return usage("need at least one trace file or directory");
    }

    let mut records: Vec<SpanRecord> = Vec::new();
    let mut files = 0usize;
    for p in &paths {
        if let Err(e) = load_path(Path::new(p), &mut records, &mut files) {
            eprintln!("trace_report: {e}");
            return ExitCode::FAILURE;
        }
    }
    if files == 0 {
        eprintln!("trace_report: no trace files found");
        return ExitCode::FAILURE;
    }

    if check {
        emit(&format!("ok: {} events across {} file(s)\n", records.len(), files));
        return ExitCode::SUCCESS;
    }
    if folded {
        emit(&trace::folded_stacks(&records));
        return ExitCode::SUCCESS;
    }
    emit(&report(&records, files, top));
    ExitCode::SUCCESS
}

/// Write to stdout, swallowing a broken pipe (`trace_report ... | head`
/// must not panic).
fn emit(s: &str) {
    use std::io::Write as _;
    let _ = std::io::stdout().write_all(s.as_bytes());
}

/// Load a trace file, or every `*.json` in a directory, appending parsed
/// span records. Any malformed file or event is an error (this is what
/// `--check` leans on).
fn load_path(path: &Path, out: &mut Vec<SpanRecord>, files: &mut usize) -> Result<(), String> {
    if path.is_dir() {
        let entries =
            std::fs::read_dir(path).map_err(|e| format!("cannot read {}: {e}", path.display()))?;
        let mut names: Vec<_> = entries
            .filter_map(|e| e.ok().map(|e| e.path()))
            .filter(|p| p.extension().and_then(|e| e.to_str()) == Some("json"))
            .collect();
        names.sort();
        for p in names {
            load_path(&p, out, files)?;
        }
        return Ok(());
    }
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    let doc = json::parse(&text).map_err(|e| format!("{}: invalid JSON: {e:?}", path.display()))?;
    if doc.get("schema").and_then(Json::as_str) != Some("rake-trace-v1") {
        return Err(format!(
            "{}: missing or unknown schema tag (want rake-trace-v1)",
            path.display()
        ));
    }
    let Some(events) = doc.get("traceEvents").and_then(Json::as_arr) else {
        return Err(format!("{}: missing traceEvents array", path.display()));
    };
    for (i, ev) in events.iter().enumerate() {
        out.push(
            parse_event(ev).map_err(|e| format!("{}: traceEvents[{i}]: {e}", path.display()))?,
        );
    }
    *files += 1;
    Ok(())
}

/// Parse one complete event back into a `SpanRecord`. Strict: every field
/// the exporter writes must be present and well-typed.
fn parse_event(ev: &Json) -> Result<SpanRecord, String> {
    if ev.get("ph").and_then(Json::as_str) != Some("X") {
        return Err("ph is not \"X\"".to_owned());
    }
    let name = ev.get("name").and_then(Json::as_str).ok_or("missing name")?;
    let cat = ev.get("cat").and_then(Json::as_str).ok_or("missing cat")?;
    let num = |k: &str| -> Result<u64, String> {
        ev.get(k)
            .and_then(Json::as_i64)
            .filter(|n| *n >= 0)
            .map(|n| n as u64)
            .ok_or_else(|| format!("{k} missing or not a non-negative number"))
    };
    let args = ev.get("args").ok_or("missing args")?;
    let id = |k: &str| -> Result<u64, String> {
        args.get(k)
            .and_then(Json::as_str)
            .and_then(trace::parse_id)
            .ok_or_else(|| format!("args.{k} missing or not a hex id"))
    };
    let trace_id = id("trace")?;
    let span_id = id("span")?;
    if span_id == 0 {
        return Err("args.span is zero".to_owned());
    }
    let mut extra: Vec<(&'static str, ArgValue)> = Vec::new();
    if let Json::Obj(fields) = args {
        for (k, v) in fields {
            if matches!(k.as_str(), "trace" | "span" | "parent") {
                continue;
            }
            let val = match v {
                Json::Str(s) => ArgValue::Str(s.clone()),
                Json::Bool(b) => ArgValue::Bool(*b),
                Json::Num(_) => ArgValue::I64(v.as_i64().unwrap_or(0)),
                _ => continue,
            };
            extra.push((trace::intern(k), val));
        }
    }
    Ok(SpanRecord {
        seq: 0,
        trace_id,
        span_id,
        parent_id: id("parent")?,
        name: trace::intern(name),
        cat: trace::intern(cat),
        start_us: num("ts")?,
        dur_us: num("dur")?,
        pid: num("pid")? as u32,
        args: extra,
    })
}

fn str_arg<'a>(r: &'a SpanRecord, key: &str) -> Option<&'a str> {
    r.args.iter().find_map(|(k, v)| {
        (*k == key).then_some(v).and_then(|v| match v {
            ArgValue::Str(s) => Some(s.as_str()),
            _ => None,
        })
    })
}

fn ms(us: u64) -> f64 {
    us as f64 / 1000.0
}

fn report(records: &[SpanRecord], files: usize, top: usize) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let by_id: HashMap<u64, &SpanRecord> = records.iter().map(|r| (r.span_id, r)).collect();
    let parent = |r: &SpanRecord| by_id.get(&r.parent_id).copied();
    // Self time = duration minus direct children, so nested same-category
    // spans (verify.smt_equiv over smt.prove_unsat) are not double-counted.
    let mut child_us: HashMap<u64, u64> = HashMap::new();
    for r in records {
        if r.parent_id != 0 {
            *child_us.entry(r.parent_id).or_insert(0) += r.dur_us;
        }
    }
    let self_us =
        |r: &SpanRecord| r.dur_us.saturating_sub(child_us.get(&r.span_id).copied().unwrap_or(0));

    let traces: std::collections::HashSet<u64> = records.iter().map(|r| r.trace_id).collect();
    let _ =
        writeln!(out, "{} spans, {} trace(s), {} file(s)\n", records.len(), traces.len(), files);

    let table = |out: &mut String, title: &str, rows: HashMap<&str, (u64, u64, usize)>| {
        let mut sorted: Vec<_> = rows.into_iter().collect();
        sorted.sort_by(|a, b| b.1 .0.cmp(&a.1 .0));
        let _ = writeln!(out, "{title}:");
        let _ = writeln!(out, "  {:<24} {:>10} {:>10} {:>7}", "", "self ms", "total ms", "spans");
        for (key, (self_t, total, count)) in sorted {
            let _ =
                writeln!(out, "  {key:<24} {:>10.2} {:>10.2} {count:>7}", ms(self_t), ms(total));
        }
        let _ = writeln!(out);
    };
    // A row's total counts a span only when its parent lies in another
    // row, so a span nested in its own row is not counted twice.
    let add = |rows: &mut HashMap<&'static str, (u64, u64, usize)>,
               key: &'static str,
               r: &SpanRecord,
               nested: bool| {
        let e = rows.entry(key).or_insert((0, 0, 0));
        e.0 += self_us(r);
        e.1 += if nested { 0 } else { r.dur_us };
        e.2 += 1;
    };

    let mut by_cat: HashMap<&str, (u64, u64, usize)> = HashMap::new();
    let mut by_name: HashMap<&str, (u64, u64, usize)> = HashMap::new();
    let mut by_rule: HashMap<&str, (u64, u64, usize)> = HashMap::new();
    for r in records {
        let p = parent(r);
        add(&mut by_cat, r.cat, r, p.is_some_and(|p| p.cat == r.cat));
        add(&mut by_name, r.name, r, p.is_some_and(|p| p.name == r.name));
        if r.name == "lift.rule" || r.name == "lift.screen" {
            if let Some(rule) = str_arg(r, "rule") {
                add(&mut by_rule, trace::intern(rule), r, false);
            }
        }
    }
    table(&mut out, "per-stage (span category)", by_cat);
    table(&mut out, "per-operation (span name)", by_name);
    if !by_rule.is_empty() {
        table(&mut out, "per-rule (lift.rule / lift.screen firings)", by_rule);
    }

    // One row per query: the verifier span that asked it, when there is one.
    let mut smt: Vec<&SpanRecord> = records
        .iter()
        .filter(|r| r.name == "smt.prove_unsat")
        .map(|r| parent(r).filter(|p| p.name == "verify.smt_equiv").unwrap_or(r))
        .collect();
    smt.sort_by(|a, b| b.dur_us.cmp(&a.dur_us));
    if !smt.is_empty() {
        let _ = writeln!(out, "top {} slowest SMT queries:", top.min(smt.len()));
        for r in smt.iter().take(top) {
            let outcome = str_arg(r, "outcome").unwrap_or("-");
            let key = str_arg(r, "proof_key").map_or(String::new(), |k| format!("  key={k}"));
            let path = str_arg(r, "path").map_or(String::new(), |p| format!("  path={p}"));
            let _ = writeln!(
                out,
                "  {:>10.2}ms  {}  trace={} outcome={outcome}{path}{key}",
                ms(r.dur_us),
                r.name,
                trace::fmt_id(r.trace_id),
            );
        }
    }
    out
}

fn usage(err: &str) -> ExitCode {
    if !err.is_empty() {
        eprintln!("trace_report: {err}");
    }
    eprintln!("usage: trace_report [--top N] [--folded] [--check] FILE_OR_DIR...");
    if err.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: u64, name: &str, cat: &str, dur_us: u64) -> SpanRecord {
        SpanRecord {
            seq: 0,
            trace_id: 7,
            span_id: id,
            parent_id: parent,
            name: trace::intern(name),
            cat: trace::intern(cat),
            start_us: 0,
            dur_us,
            pid: 1,
            args: Vec::new(),
        }
    }

    fn with(mut r: SpanRecord, args: &[(&str, &str)]) -> SpanRecord {
        r.args = args.iter().map(|&(k, v)| (trace::intern(k), ArgValue::Str(v.into()))).collect();
        r
    }

    /// The first row named `key`, as (self ms, total ms, spans).
    fn row(out: &str, key: &str) -> (f64, f64, usize) {
        let line = out
            .lines()
            .find(|l| l.split_whitespace().next() == Some(key))
            .unwrap_or_else(|| panic!("no row `{key}` in\n{out}"));
        let f: Vec<&str> = line.split_whitespace().collect();
        (f[1].parse().unwrap(), f[2].parse().unwrap(), f[3].parse().unwrap())
    }

    #[test]
    fn nested_spans_count_once() {
        let records = vec![
            span(1, 0, "driver.batch", "driver", 10_000),
            span(2, 1, "driver.job", "driver", 9_000),
            with(
                span(3, 2, "verify.smt_equiv", "smt", 5_000),
                &[("path", "solve"), ("proof_key", "k3"), ("outcome", "unknown")],
            ),
            with(span(4, 3, "smt.prove_unsat", "smt", 4_800), &[("outcome", "unknown")]),
            with(span(5, 2, "smt.prove_unsat", "smt", 1_000), &[("outcome", "unsat")]),
            with(span(6, 2, "verify.smt_equiv", "smt", 100), &[("path", "proof-cache")]),
        ];
        let out = report(&records, 1, 10);

        // Per stage: the batch alone covers the driver's time, and the
        // verifier spans cover the query nested in one of them.
        assert_eq!(row(&out, "driver"), (3.9, 10.0, 2));
        assert_eq!(row(&out, "smt"), (6.1, 6.1, 4));

        // Two queries, each listed once; the proof-cache hit asked none.
        let top: Vec<&str> = out.lines().skip_while(|l| !l.starts_with("top ")).skip(1).collect();
        assert_eq!(top.len(), 2, "{out}");
        assert!(top[0].contains("verify.smt_equiv"), "{out}");
        assert!(top[0].contains("outcome=unknown  path=solve  key=k3"), "{out}");
        assert!(top[1].contains("smt.prove_unsat") && top[1].contains("outcome=unsat"), "{out}");
    }
}

//! Structured span tracing for the rake pipeline.
//!
//! The paper's headline cost is synthesis time, and synthesis time hides
//! inside solver queries and candidate screening. This crate gives every
//! layer of the pipeline — HTTP accept, driver job, lift-rule firing,
//! swizzle search, individual SMT query — a named, timed span in one
//! shared tree, so a slow workload can be attributed to the stage that
//! actually burned the time.
//!
//! Design constraints, in order:
//!
//! 1. **Disabled means free.** Tracing is runtime-gated; when off, the
//!    only cost at an instrumentation point is a single `Relaxed` atomic
//!    load ([`enabled`]). No allocation, no clock read, no thread-local
//!    touch.
//! 2. **No dependencies.** std only, like the rest of the workspace.
//! 3. **Lock-free hot path.** Completed spans land in a fixed-capacity
//!    ring of `AtomicPtr` slots: one `fetch_add` to claim a slot, one
//!    `swap` to publish. Under overflow the oldest record is dropped and
//!    counted, never blocked on.
//! 4. **Cross-process stitching.** A span context (`trace_id` +
//!    `span_id`) serializes to a pair of integers, crosses the
//!    `--isolate` worker frame protocol, and worker-side spans re-enter
//!    the parent's ring via [`submit`] with their parent pointers intact.
//!    Worker clocks are aligned with [`set_clock_offset_us`].
//!
//! ## Span model
//!
//! A *trace* is one end-to-end request (or one CLI compile batch). A
//! *span* is a named interval with a category (pipeline stage), a parent
//! span, and a small list of key/value annotations. Parentage is implicit
//! through a thread-local span stack; crossing a thread or process
//! boundary requires explicitly carrying a [`TraceContext`] and
//! re-entering it with [`adopt`].
//!
//! IDs are 64-bit. Span IDs are allocated from a per-process counter
//! seeded with the pid in the high bits, so spans minted on both sides of
//! a worker boundary never collide within one trace. `0` is reserved to
//! mean "no parent".
//!
//! ## Export
//!
//! [`chrome_trace_json`] renders records as Chrome trace-event JSON
//! (schema tag `rake-trace-v1`, complete events `ph:"X"`, microsecond
//! timestamps) loadable in `chrome://tracing` / Perfetto.
//! [`folded_stacks`] renders the same records as flamegraph-compatible
//! folded stacks with self-time weights.

use std::cell::RefCell;
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicPtr, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// Default ring capacity (spans) installed by [`enable`].
pub const DEFAULT_CAPACITY: usize = 1 << 16;

/// Cap on the slow-span side log, so a pathological threshold cannot
/// accumulate unbounded memory.
const SLOW_LOG_CAP: usize = 4096;

/// Bound on parent-chain walks during export, against cyclic or torn
/// foreign records.
const MAX_STACK_DEPTH: usize = 64;

static ENABLED: AtomicBool = AtomicBool::new(false);
static SLOW_US: AtomicU64 = AtomicU64::new(0);
/// Added to raw monotonic micros when a record is published; workers set
/// this to align their clock with the dispatching parent process.
static CLOCK_OFFSET_US: AtomicI64 = AtomicI64::new(0);
static NEXT_ID: AtomicU64 = AtomicU64::new(0);
static SEQ: AtomicU64 = AtomicU64::new(0);
static EPOCH: OnceLock<Instant> = OnceLock::new();
static RING: OnceLock<Ring> = OnceLock::new();
static SLOW: Mutex<Vec<SpanRecord>> = Mutex::new(Vec::new());
/// Serializes drains: [`drain_trace`] sweeps every trace out of the ring
/// and re-publishes the ones it does not own, so a concurrent drain would
/// miss whatever the first one is holding. Publishing never takes it.
static DRAINING: Mutex<()> = Mutex::new(());

thread_local! {
    /// Stack of (trace_id, span_id) for implicit parenting.
    static STACK: RefCell<Vec<(u64, u64)>> = const { RefCell::new(Vec::new()) };
}

/// Whether tracing is currently recording. A single `Relaxed` load — the
/// entire disabled-path cost of an instrumentation point.
#[inline(always)]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Turn tracing on, installing the global ring sink on first use.
pub fn enable() {
    EPOCH.get_or_init(Instant::now);
    RING.get_or_init(|| Ring::new(DEFAULT_CAPACITY));
    if NEXT_ID.load(Ordering::Relaxed) == 0 {
        NEXT_ID.store(id_seed(), Ordering::Relaxed);
    }
    ENABLED.store(true, Ordering::Relaxed);
}

/// Turn tracing off. Already-recorded spans stay in the ring until
/// drained; in-flight guards finish quietly.
pub fn disable() {
    ENABLED.store(false, Ordering::Relaxed);
}

/// Set the slow-span threshold. Spans with duration >= the threshold are
/// additionally copied to a capped side log ([`drain_slow`]) that
/// survives ring overflow. `0` disables the side log.
pub fn set_slow_threshold_us(us: u64) {
    SLOW_US.store(us, Ordering::Relaxed);
}

/// Align this process's clock with a parent process: `offset_us` is
/// added to every subsequently published record's timestamp. A worker
/// computes it as `parent_now_us - now_us()` from the frame it received.
pub fn set_clock_offset_us(offset_us: i64) {
    CLOCK_OFFSET_US.store(offset_us, Ordering::Relaxed);
}

/// Microseconds since this process's trace epoch (first [`enable`] /
/// first clock read). Monotonic; unaffected by wall-clock steps.
pub fn now_us() -> u64 {
    EPOCH.get_or_init(Instant::now).elapsed().as_micros() as u64
}

fn id_seed() -> u64 {
    // Pid in the high bits keeps IDs minted on both sides of a worker
    // boundary disjoint; the low 32 bits count allocations.
    (u64::from(std::process::id()) << 32) | 1
}

fn next_id() -> u64 {
    let id = NEXT_ID.fetch_add(1, Ordering::Relaxed);
    if id == 0 {
        // enable() was never called (pure in-process use); seed lazily.
        NEXT_ID.store(id_seed() + 1, Ordering::Relaxed);
        return id_seed();
    }
    id
}

/// A span's identity, compact enough to cross thread and process
/// boundaries: carry the two integers, then [`adopt`] on the far side.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceContext {
    /// The end-to-end request this span belongs to.
    pub trace_id: u64,
    /// The span itself (a parent for whatever is created under it).
    pub span_id: u64,
}

/// Allocate a fresh trace ID (one per request / CLI invocation).
pub fn new_trace_id() -> u64 {
    next_id()
}

/// Render an ID the way responses and exports spell it.
pub fn fmt_id(id: u64) -> String {
    format!("{id:016x}")
}

/// Parse an ID rendered by [`fmt_id`].
pub fn parse_id(s: &str) -> Option<u64> {
    u64::from_str_radix(s, 16).ok()
}

/// The context of the innermost open span on this thread, if any.
pub fn current() -> Option<TraceContext> {
    STACK.with(|s| {
        s.borrow().last().map(|&(trace_id, span_id)| TraceContext { trace_id, span_id })
    })
}

/// An annotation value on a span.
#[derive(Debug, Clone, PartialEq)]
pub enum ArgValue {
    /// Unsigned counter/size.
    U64(u64),
    /// Signed quantity.
    I64(i64),
    /// Short label. Keep these small; they are copied per span.
    Str(String),
    /// Flag.
    Bool(bool),
}

impl From<u64> for ArgValue {
    fn from(v: u64) -> ArgValue {
        ArgValue::U64(v)
    }
}
impl From<usize> for ArgValue {
    fn from(v: usize) -> ArgValue {
        ArgValue::U64(v as u64)
    }
}
impl From<u32> for ArgValue {
    fn from(v: u32) -> ArgValue {
        ArgValue::U64(u64::from(v))
    }
}
impl From<i64> for ArgValue {
    fn from(v: i64) -> ArgValue {
        ArgValue::I64(v)
    }
}
impl From<bool> for ArgValue {
    fn from(v: bool) -> ArgValue {
        ArgValue::Bool(v)
    }
}
impl From<&str> for ArgValue {
    fn from(v: &str) -> ArgValue {
        ArgValue::Str(v.to_owned())
    }
}
impl From<String> for ArgValue {
    fn from(v: String) -> ArgValue {
        ArgValue::Str(v)
    }
}

/// A completed span, as stored in the ring and consumed by exporters.
#[derive(Debug, Clone)]
pub struct SpanRecord {
    /// Global publish order (survives ring reshuffling).
    pub seq: u64,
    /// The trace this span belongs to.
    pub trace_id: u64,
    /// This span's ID.
    pub span_id: u64,
    /// Parent span ID; `0` for a trace root.
    pub parent_id: u64,
    /// Span name (stage or rule site).
    pub name: &'static str,
    /// Category: `http`, `driver`, `lift`, `lower`, `swizzle`, `verify`,
    /// `smt`, `worker`, ...
    pub cat: &'static str,
    /// Start, micros since the trace epoch (clock offset applied).
    pub start_us: u64,
    /// Duration in micros.
    pub dur_us: u64,
    /// Process that minted the span.
    pub pid: u32,
    /// Annotations.
    pub args: Vec<(&'static str, ArgValue)>,
}

/// An open span. Records itself (and pops the thread-local stack) on
/// drop. Obtained from [`span`], [`span_root`], or [`span_under`];
/// guards from a disabled tracer are inert.
pub struct SpanGuard {
    active: bool,
    trace_id: u64,
    span_id: u64,
    parent_id: u64,
    name: &'static str,
    cat: &'static str,
    start_us_raw: u64,
    args: Vec<(&'static str, ArgValue)>,
}

impl SpanGuard {
    const INERT: SpanGuard = SpanGuard {
        active: false,
        trace_id: 0,
        span_id: 0,
        parent_id: 0,
        name: "",
        cat: "",
        start_us_raw: 0,
        args: Vec::new(),
    };

    fn open(name: &'static str, cat: &'static str, trace_id: u64, parent_id: u64) -> SpanGuard {
        let span_id = next_id();
        STACK.with(|s| s.borrow_mut().push((trace_id, span_id)));
        SpanGuard {
            active: true,
            trace_id,
            span_id,
            parent_id,
            name,
            cat,
            start_us_raw: now_us(),
            args: Vec::new(),
        }
    }

    /// Whether this guard is recording. Gate expensive annotation
    /// construction (`format!`, sexpr printing) on this.
    pub fn is_active(&self) -> bool {
        self.active
    }

    /// This span's context, for handing to another thread or process.
    pub fn context(&self) -> Option<TraceContext> {
        self.active.then_some(TraceContext { trace_id: self.trace_id, span_id: self.span_id })
    }

    /// Attach an annotation. No-op (and allocation-free for scalar
    /// values) on an inert guard.
    pub fn arg(&mut self, key: &'static str, value: impl Into<ArgValue>) {
        if self.active {
            self.args.push((key, value.into()));
        }
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if !self.active {
            return;
        }
        STACK.with(|s| {
            let mut stack = s.borrow_mut();
            // Pop our own entry specifically: panics can unwind guards
            // out of order, and a mispop would reparent later spans.
            if let Some(pos) = stack.iter().rposition(|&(_, id)| id == self.span_id) {
                stack.remove(pos);
            }
        });
        let end = now_us();
        let offset = CLOCK_OFFSET_US.load(Ordering::Relaxed);
        let record = SpanRecord {
            seq: SEQ.fetch_add(1, Ordering::Relaxed),
            trace_id: self.trace_id,
            span_id: self.span_id,
            parent_id: self.parent_id,
            name: self.name,
            cat: self.cat,
            start_us: self.start_us_raw.saturating_add_signed(offset),
            dur_us: end.saturating_sub(self.start_us_raw),
            pid: std::process::id(),
            args: std::mem::take(&mut self.args),
        };
        let slow = SLOW_US.load(Ordering::Relaxed);
        if slow > 0 && record.dur_us >= slow {
            if let Ok(mut log) = SLOW.lock() {
                if log.len() < SLOW_LOG_CAP {
                    log.push(record.clone());
                }
            }
        }
        submit(record);
    }
}

/// Open a span under the innermost open span on this thread. If no span
/// is open, the span becomes the root of a fresh trace. Inert when
/// tracing is disabled.
pub fn span(name: &'static str, cat: &'static str) -> SpanGuard {
    if !enabled() {
        return SpanGuard::INERT;
    }
    match current() {
        Some(ctx) => SpanGuard::open(name, cat, ctx.trace_id, ctx.span_id),
        None => SpanGuard::open(name, cat, new_trace_id(), 0),
    }
}

/// Open the root span of trace `trace_id`. Inert when disabled.
pub fn span_root(name: &'static str, cat: &'static str, trace_id: u64) -> SpanGuard {
    if !enabled() {
        return SpanGuard::INERT;
    }
    SpanGuard::open(name, cat, trace_id, 0)
}

/// Open a span under an explicit parent context — the cross-thread /
/// cross-process entry point. Inert when disabled.
pub fn span_under(name: &'static str, cat: &'static str, ctx: TraceContext) -> SpanGuard {
    if !enabled() {
        return SpanGuard::INERT;
    }
    SpanGuard::open(name, cat, ctx.trace_id, ctx.span_id)
}

/// Make `ctx` the implicit parent for spans opened on this thread, until
/// the returned guard drops. Use when work moves to a thread that has no
/// open spans (driver queue workers, isolate workers).
pub fn adopt(ctx: TraceContext) -> AdoptGuard {
    if !enabled() {
        return AdoptGuard { span_id: 0 };
    }
    STACK.with(|s| s.borrow_mut().push((ctx.trace_id, ctx.span_id)));
    AdoptGuard { span_id: ctx.span_id }
}

/// Reverts [`adopt`] on drop.
pub struct AdoptGuard {
    span_id: u64,
}

impl Drop for AdoptGuard {
    fn drop(&mut self) {
        if self.span_id == 0 {
            return;
        }
        STACK.with(|s| {
            let mut stack = s.borrow_mut();
            if let Some(pos) = stack.iter().rposition(|&(_, id)| id == self.span_id) {
                stack.remove(pos);
            }
        });
    }
}

/// Intern a dynamic string (a foreign span name parsed off the wire)
/// into a `&'static str`. Leaks once per distinct string; span and
/// category names form a small closed set, so the leak is bounded.
pub fn intern(s: &str) -> &'static str {
    static INTERNED: Mutex<Vec<&'static str>> = Mutex::new(Vec::new());
    let mut table = INTERNED.lock().unwrap_or_else(|e| e.into_inner());
    if let Some(hit) = table.iter().find(|t| **t == s) {
        return hit;
    }
    let leaked: &'static str = Box::leak(s.to_owned().into_boxed_str());
    table.push(leaked);
    leaked
}

// ---------------------------------------------------------------------------
// Ring sink
// ---------------------------------------------------------------------------

struct Ring {
    slots: Box<[AtomicPtr<SpanRecord>]>,
    cursor: AtomicUsize,
    dropped: AtomicU64,
}

impl Ring {
    fn new(capacity: usize) -> Ring {
        let slots =
            (0..capacity.max(1)).map(|_| AtomicPtr::new(std::ptr::null_mut())).collect();
        Ring { slots, cursor: AtomicUsize::new(0), dropped: AtomicU64::new(0) }
    }

    fn push(&self, record: SpanRecord) {
        let i = self.cursor.fetch_add(1, Ordering::Relaxed) % self.slots.len();
        let old = self.slots[i].swap(Box::into_raw(Box::new(record)), Ordering::AcqRel);
        if !old.is_null() {
            // SAFETY: the swap transferred exclusive ownership of `old`
            // to this thread; nobody else can observe that pointer again.
            drop(unsafe { Box::from_raw(old) });
            self.dropped.fetch_add(1, Ordering::Relaxed);
        }
    }

    fn sweep(&self) -> Vec<SpanRecord> {
        let mut out = Vec::new();
        for slot in self.slots.iter() {
            let p = slot.swap(std::ptr::null_mut(), Ordering::AcqRel);
            if !p.is_null() {
                // SAFETY: as in push — the swap made us the sole owner.
                out.push(*unsafe { Box::from_raw(p) });
            }
        }
        out.sort_by_key(|r| r.seq);
        out
    }
}

/// Publish an already-built record (used to re-ingest worker-side spans
/// whose IDs were minted in another process). Silently dropped when
/// tracing is disabled or the sink was never installed.
pub fn submit(record: SpanRecord) {
    if let Some(ring) = RING.get() {
        ring.push(record);
    }
}

/// Remove and return every record in the ring, in publish order.
pub fn drain() -> Vec<SpanRecord> {
    let _draining = DRAINING.lock().unwrap_or_else(|e| e.into_inner());
    RING.get().map(Ring::sweep).unwrap_or_default()
}

/// Remove and return the records of one trace, leaving other traces'
/// records in the ring (they are re-published, keeping their original
/// sequence numbers).
pub fn drain_trace(trace_id: u64) -> Vec<SpanRecord> {
    let Some(ring) = RING.get() else {
        return Vec::new();
    };
    let _draining = DRAINING.lock().unwrap_or_else(|e| e.into_inner());
    let mut mine = Vec::new();
    for record in ring.sweep() {
        if record.trace_id == trace_id {
            mine.push(record);
        } else {
            ring.push(record);
        }
    }
    mine
}

/// Remove and return the slow-span side log.
pub fn drain_slow() -> Vec<SpanRecord> {
    std::mem::take(&mut *SLOW.lock().unwrap_or_else(|e| e.into_inner()))
}

/// Number of records lost to ring overflow so far.
pub fn dropped() -> u64 {
    RING.get().map(|r| r.dropped.load(Ordering::Relaxed)).unwrap_or(0)
}

// ---------------------------------------------------------------------------
// Export
// ---------------------------------------------------------------------------

fn push_json_str(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

fn push_arg_value(out: &mut String, v: &ArgValue) {
    match v {
        ArgValue::U64(n) => out.push_str(&n.to_string()),
        ArgValue::I64(n) => out.push_str(&n.to_string()),
        ArgValue::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        ArgValue::Str(s) => push_json_str(out, s),
    }
}

/// Render records as Chrome trace-event JSON (`rake-trace-v1`): complete
/// events (`ph:"X"`), microsecond timestamps, span identity under
/// `args.span` / `args.parent` / `args.trace`. Loadable in
/// `chrome://tracing` and Perfetto.
pub fn chrome_trace_json(records: &[SpanRecord]) -> String {
    let mut out = String::with_capacity(records.len() * 160 + 128);
    out.push_str("{\"schema\":\"rake-trace-v1\",\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
    for (i, r) in records.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("{\"name\":");
        push_json_str(&mut out, r.name);
        out.push_str(",\"cat\":");
        push_json_str(&mut out, r.cat);
        out.push_str(&format!(
            ",\"ph\":\"X\",\"ts\":{},\"dur\":{},\"pid\":{},\"tid\":{}",
            r.start_us, r.dur_us, r.pid, r.pid
        ));
        out.push_str(",\"args\":{\"trace\":");
        push_json_str(&mut out, &fmt_id(r.trace_id));
        out.push_str(",\"span\":");
        push_json_str(&mut out, &fmt_id(r.span_id));
        out.push_str(",\"parent\":");
        push_json_str(&mut out, &fmt_id(r.parent_id));
        for (k, v) in &r.args {
            out.push(',');
            push_json_str(&mut out, k);
            out.push(':');
            push_arg_value(&mut out, v);
        }
        out.push_str("}}");
    }
    out.push_str("]}");
    out
}

/// Render records as flamegraph folded stacks: one `a;b;c weight` line
/// per span, where the path is the parent chain of span names and the
/// weight is the span's *self* time in micros (duration minus direct
/// children). Spans whose parents fall outside `records` (lost to ring
/// overflow, or crashed workers) root their own stacks.
pub fn folded_stacks(records: &[SpanRecord]) -> String {
    let by_id: HashMap<u64, &SpanRecord> =
        records.iter().map(|r| (r.span_id, r)).collect();
    let mut child_us: HashMap<u64, u64> = HashMap::new();
    for r in records {
        if r.parent_id != 0 {
            *child_us.entry(r.parent_id).or_insert(0) += r.dur_us;
        }
    }
    let mut lines: HashMap<String, u64> = HashMap::new();
    for r in records {
        let self_us = r.dur_us.saturating_sub(child_us.get(&r.span_id).copied().unwrap_or(0));
        if self_us == 0 {
            continue;
        }
        let mut path = vec![r.name];
        let mut cursor = r.parent_id;
        for _ in 0..MAX_STACK_DEPTH {
            let Some(p) = (cursor != 0).then(|| by_id.get(&cursor)).flatten() else {
                break;
            };
            path.push(p.name);
            cursor = p.parent_id;
        }
        path.reverse();
        *lines.entry(path.join(";")).or_insert(0) += self_us;
    }
    let mut sorted: Vec<(String, u64)> = lines.into_iter().collect();
    sorted.sort();
    let mut out = String::new();
    for (path, us) in sorted {
        out.push_str(&path);
        out.push(' ');
        out.push_str(&us.to_string());
        out.push('\n');
    }
    out
}

/// Render the slow-span log as human-readable lines (one per span,
/// slowest first).
pub fn slow_log_lines(records: &[SpanRecord]) -> String {
    let mut sorted: Vec<&SpanRecord> = records.iter().collect();
    sorted.sort_by_key(|r| std::cmp::Reverse(r.dur_us));
    let mut out = String::new();
    for r in sorted {
        out.push_str(&format!(
            "{:>10}us  {}/{}  trace={} span={} parent={}",
            r.dur_us,
            r.cat,
            r.name,
            fmt_id(r.trace_id),
            fmt_id(r.span_id),
            fmt_id(r.parent_id)
        ));
        for (k, v) in &r.args {
            let mut rendered = String::new();
            push_arg_value(&mut rendered, v);
            out.push_str(&format!(" {k}={rendered}"));
        }
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    // The tests share global tracer state, so they serialize on a lock
    // and fully drain between cases.
    static TEST_LOCK: Mutex<()> = Mutex::new(());

    fn locked() -> std::sync::MutexGuard<'static, ()> {
        let guard = TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        enable();
        let _ = drain();
        let _ = drain_slow();
        set_slow_threshold_us(0);
        set_clock_offset_us(0);
        guard
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let _l = locked();
        disable();
        {
            let mut sp = span("lift", "synth");
            sp.arg("rule", "add.vvmpy-merge");
            assert!(!sp.is_active());
            assert!(sp.context().is_none());
        }
        enable();
        assert!(drain().is_empty());
    }

    #[test]
    fn nested_spans_parent_through_the_thread_stack() {
        let _l = locked();
        let trace_id;
        {
            let root = span("request", "http");
            trace_id = root.context().unwrap().trace_id;
            {
                let mid = span("job", "driver");
                assert_eq!(mid.context().unwrap().trace_id, trace_id);
                let _leaf = span("smt.prove", "smt");
            }
        }
        let records = drain();
        assert_eq!(records.len(), 3);
        // Drained in publish (completion) order: leaf, mid, root.
        assert_eq!(records[0].name, "smt.prove");
        assert_eq!(records[2].name, "request");
        assert_eq!(records[2].parent_id, 0);
        assert_eq!(records[1].parent_id, records[2].span_id);
        assert_eq!(records[0].parent_id, records[1].span_id);
        assert!(records.iter().all(|r| r.trace_id == trace_id));
    }

    #[test]
    fn adopt_carries_context_across_threads() {
        let _l = locked();
        let root = span_root("request", "http", new_trace_id());
        let ctx = root.context().unwrap();
        std::thread::scope(|s| {
            s.spawn(move || {
                let _adopted = adopt(ctx);
                let _child = span("job", "driver");
            });
        });
        drop(root);
        let records = drain();
        let child = records.iter().find(|r| r.name == "job").unwrap();
        assert_eq!(child.parent_id, ctx.span_id);
        assert_eq!(child.trace_id, ctx.trace_id);
    }

    #[test]
    fn drain_trace_keeps_other_traces() {
        let _l = locked();
        let ta = new_trace_id();
        let tb = new_trace_id();
        drop(span_root("a", "http", ta));
        drop(span_root("b", "http", tb));
        let mine = drain_trace(ta);
        assert_eq!(mine.len(), 1);
        assert_eq!(mine[0].name, "a");
        let rest = drain();
        assert_eq!(rest.len(), 1);
        assert_eq!(rest[0].name, "b");
    }

    #[test]
    fn concurrent_drains_each_get_their_whole_trace() {
        let _l = locked();
        let barrier = std::sync::Barrier::new(4);
        // Each thread counts its short drains instead of asserting: a
        // panicking thread would leave the others waiting at the barrier.
        let short: Vec<usize> = std::thread::scope(|s| {
            let threads: Vec<_> = (0..4)
                .map(|_| {
                    s.spawn(|| {
                        let mut short = 0;
                        for _ in 0..100 {
                            let trace_id = new_trace_id();
                            {
                                let _root = span_root("request", "http", trace_id);
                                for _ in 0..20 {
                                    drop(span("job", "driver"));
                                }
                            }
                            barrier.wait();
                            short += usize::from(drain_trace(trace_id).len() != 21);
                        }
                        short
                    })
                })
                .collect();
            threads.into_iter().map(|t| t.join().unwrap()).collect()
        });
        assert_eq!(short, [0; 4], "drains per thread that missed their own spans");
        assert!(drain().is_empty());
    }

    #[test]
    fn slow_log_captures_spans_over_threshold() {
        let _l = locked();
        set_slow_threshold_us(1);
        {
            let _sp = span("slow.op", "driver");
            std::thread::sleep(std::time::Duration::from_millis(2));
        }
        set_slow_threshold_us(0);
        let slow = drain_slow();
        assert_eq!(slow.len(), 1);
        assert_eq!(slow[0].name, "slow.op");
        assert!(slow_log_lines(&slow).contains("slow.op"));
        let _ = drain();
    }

    #[test]
    fn chrome_export_has_schema_and_span_identity() {
        let _l = locked();
        {
            let mut sp = span("smt.prove", "smt");
            sp.arg("terms", 41u64);
            sp.arg("outcome", "unsat");
            sp.arg("cached", false);
        }
        let records = drain();
        let json = chrome_trace_json(&records);
        assert!(json.starts_with("{\"schema\":\"rake-trace-v1\""));
        assert!(json.contains("\"ph\":\"X\""));
        assert!(json.contains("\"terms\":41"));
        assert!(json.contains("\"outcome\":\"unsat\""));
        assert!(json.contains(&fmt_id(records[0].span_id)));
    }

    #[test]
    fn folded_stacks_attribute_self_time() {
        let _l = locked();
        let mk = |seq, span_id, parent_id, name: &'static str, dur_us| SpanRecord {
            seq,
            trace_id: 7,
            span_id,
            parent_id,
            name,
            cat: "t",
            start_us: 0,
            dur_us,
            pid: 1,
            args: Vec::new(),
        };
        let records =
            vec![mk(0, 10, 0, "root", 100), mk(1, 11, 10, "mid", 60), mk(2, 12, 11, "leaf", 25)];
        let folded = folded_stacks(&records);
        assert!(folded.contains("root 40\n"), "{folded}");
        assert!(folded.contains("root;mid 35\n"), "{folded}");
        assert!(folded.contains("root;mid;leaf 25\n"), "{folded}");
    }

    #[test]
    fn foreign_records_submit_and_stitch() {
        let _l = locked();
        let root = span_root("dispatch", "driver", new_trace_id());
        let ctx = root.context().unwrap();
        // Simulate a worker-side span parsed off the wire.
        submit(SpanRecord {
            seq: SEQ.fetch_add(1, Ordering::Relaxed),
            trace_id: ctx.trace_id,
            span_id: 0xdead_0001,
            parent_id: ctx.span_id,
            name: intern("worker.compile"),
            cat: intern("worker"),
            start_us: 5,
            dur_us: 9,
            pid: 4242,
            args: vec![(intern("tier"), ArgValue::Str("full".into()))],
        });
        drop(root);
        let records = drain_trace(ctx.trace_id);
        assert_eq!(records.len(), 2);
        let foreign = records.iter().find(|r| r.name == "worker.compile").unwrap();
        assert_eq!(foreign.parent_id, ctx.span_id);
        assert_eq!(foreign.pid, 4242);
    }

    #[test]
    fn ring_overflow_drops_oldest_and_counts() {
        let _l = locked();
        let before = dropped();
        let n = DEFAULT_CAPACITY + 8;
        for _ in 0..n {
            drop(span_root("x", "t", 1));
        }
        let records = drain();
        assert_eq!(records.len(), DEFAULT_CAPACITY);
        assert!(dropped() >= before + 8);
    }

    #[test]
    fn interning_is_stable() {
        let a = intern("lift.screen");
        let b = intern(&String::from("lift.screen"));
        assert!(std::ptr::eq(a, b));
    }

    #[test]
    fn id_formatting_roundtrips() {
        let id = new_trace_id();
        assert_eq!(parse_id(&fmt_id(id)), Some(id));
        assert_eq!(fmt_id(id).len(), 16);
    }
}

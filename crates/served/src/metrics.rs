//! The server's metrics registry, rendered in Prometheus text exposition
//! format on `GET /metrics`.
//!
//! Two feeds land here: the HTTP layer records request/response/latency
//! facts directly, and every per-request [`driver::Driver`] is built with
//! an event sink ([`Metrics::sink`]) so job outcomes and fresh-vs-cached
//! synthesis counts stream in without re-parsing the JSONL journal. Everything is atomics or a short-held mutex — the
//! registry is shared by every connection thread.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use driver::event::DriverEvent;
use driver::EventSink;

/// Latency histogram bucket upper bounds, in milliseconds. The `+Inf`
/// bucket is implicit.
const BUCKETS_MS: [u64; 13] = [1, 2, 5, 10, 25, 50, 100, 250, 500, 1000, 2500, 5000, 10000];

/// Endpoints broken out in `requests_total`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Endpoint {
    /// `POST /compile`
    Compile,
    /// `GET /metrics`
    Metrics,
    /// `GET /healthz`
    Healthz,
    /// Anything else.
    Other,
}

impl Endpoint {
    fn name(self) -> &'static str {
        match self {
            Endpoint::Compile => "compile",
            Endpoint::Metrics => "metrics",
            Endpoint::Healthz => "healthz",
            Endpoint::Other => "other",
        }
    }

    const ALL: [Endpoint; 4] =
        [Endpoint::Compile, Endpoint::Metrics, Endpoint::Healthz, Endpoint::Other];
}

/// A fixed-bucket latency histogram (Prometheus `histogram` type).
#[derive(Debug, Default)]
struct Histogram {
    /// Cumulative-from-scratch per-bucket counts (`le` semantics applied
    /// at render time); one extra slot for `+Inf`.
    counts: [AtomicU64; BUCKETS_MS.len() + 1],
    sum_micros: AtomicU64,
    count: AtomicU64,
}

impl Histogram {
    fn observe(&self, d: Duration) {
        let ms = d.as_millis() as u64;
        let idx = BUCKETS_MS.iter().position(|&b| ms <= b).unwrap_or(BUCKETS_MS.len());
        self.counts[idx].fetch_add(1, Ordering::Relaxed);
        self.sum_micros.fetch_add(d.as_micros() as u64, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
    }

    fn render(&self, out: &mut String, name: &str) {
        let mut cumulative = 0u64;
        for (i, &bound) in BUCKETS_MS.iter().enumerate() {
            cumulative += self.counts[i].load(Ordering::Relaxed);
            out.push_str(&format!("{name}_bucket{{le=\"{}\"}} {cumulative}\n", bound as f64 / 1e3));
        }
        cumulative += self.counts[BUCKETS_MS.len()].load(Ordering::Relaxed);
        out.push_str(&format!("{name}_bucket{{le=\"+Inf\"}} {cumulative}\n"));
        out.push_str(&format!(
            "{name}_sum {}\n",
            self.sum_micros.load(Ordering::Relaxed) as f64 / 1e6
        ));
        out.push_str(&format!("{name}_count {}\n", self.count.load(Ordering::Relaxed)));
    }
}

/// Cache-layer numbers supplied by the server at render time (the cache
/// keeps its own counters; the registry does not duplicate them).
#[derive(Debug, Clone, Copy, Default)]
pub struct CacheSnapshot {
    /// Lookups served from the cache.
    pub hits: u64,
    /// Lookups that missed.
    pub misses: u64,
    /// Entries currently held.
    pub entries: usize,
    /// Serialized bytes of the in-memory entries (what the byte cap
    /// bounds).
    pub mem_bytes: usize,
    /// Entries loaded from disk at startup (warm-start size).
    pub loaded: u64,
    /// Entries evicted by the entry/byte caps.
    pub evicted: u64,
    /// Entry lines appended to the segment log.
    pub appended: u64,
    /// Log-into-snapshot compactions performed.
    pub compactions: u64,
    /// On-disk snapshot file size in bytes.
    pub snapshot_bytes: u64,
    /// On-disk segment-log size in bytes.
    pub log_bytes: u64,
    /// Size of the live event-journal file in bytes.
    pub journal_bytes: u64,
    /// Journal roll-overs performed since startup.
    pub journal_rotations: u64,
    /// Keys currently quarantined as poison pills (crashed workers past
    /// the threshold).
    pub quarantined: usize,
}

/// Worker-pool numbers supplied at render time when the server runs
/// isolated (`--isolate`); the pool keeps its own counters
/// ([`crate::supervisor::PoolCounters`]) and this is their snapshot.
#[derive(Debug, Clone, Default)]
pub struct WorkerSnapshot {
    /// Workers (re)started after the initial pre-fork.
    pub restarts: u64,
    /// Live worker processes right now.
    pub alive: u64,
    /// Highest resident-set size observed on any worker, in bytes.
    pub rss_high_water: u64,
    /// Crash counts by cause label (`signal_9`, `exit_2`, `rss`, ...).
    pub crashes: Vec<(String, u64)>,
}

/// The registry. One per server process, shared by all connections.
#[derive(Debug, Default)]
pub struct Metrics {
    requests: [AtomicU64; 4],
    responses: Mutex<BTreeMap<u16, u64>>,
    in_flight: AtomicU64,
    queue_depth: AtomicU64,
    rejected_busy: AtomicU64,
    warm_path: AtomicU64,
    exprs: AtomicU64,
    jobs: Mutex<BTreeMap<&'static str, u64>>,
    synth_fresh: AtomicU64,
    cache_served: AtomicU64,
    validation_mismatches: AtomicU64,
    disconnects: AtomicU64,
    quarantine_added: AtomicU64,
    latency: Histogram,
}

impl Metrics {
    /// A fresh registry.
    pub fn new() -> Arc<Metrics> {
        Arc::default()
    }

    /// Count a request hitting `endpoint`.
    pub fn request(&self, endpoint: Endpoint) {
        let idx = Endpoint::ALL.iter().position(|e| *e == endpoint).unwrap_or(3);
        self.requests[idx].fetch_add(1, Ordering::Relaxed);
    }

    /// Count a response by status code.
    pub fn response(&self, status: u16) {
        *self.responses.lock().unwrap().entry(status).or_insert(0) += 1;
    }

    /// Enter/exit the in-flight compile gauge (RAII-free: callers pair
    /// them around the compile path).
    pub fn compile_started(&self) {
        self.in_flight.fetch_add(1, Ordering::Relaxed);
    }

    /// See [`Metrics::compile_started`].
    pub fn compile_finished(&self, latency: Duration) {
        self.in_flight.fetch_sub(1, Ordering::Relaxed);
        self.latency.observe(latency);
    }

    /// Adjust the admission-queue depth gauge by `delta`.
    pub fn queue_changed(&self, delta: i64) {
        if delta >= 0 {
            self.queue_depth.fetch_add(delta as u64, Ordering::Relaxed);
        } else {
            self.queue_depth.fetch_sub((-delta) as u64, Ordering::Relaxed);
        }
    }

    /// Count a 429 admission rejection.
    pub fn rejected_busy(&self) {
        self.rejected_busy.fetch_add(1, Ordering::Relaxed);
    }

    /// Count a compile served on the warm fast path (every key already
    /// cached; no permit taken).
    pub fn warm_path(&self) {
        self.warm_path.fetch_add(1, Ordering::Relaxed);
    }

    /// Count expressions submitted for compilation.
    pub fn exprs_submitted(&self, n: usize) {
        self.exprs.fetch_add(n as u64, Ordering::Relaxed);
    }

    /// Count a client that vanished mid-compile (its cancel flag fired)
    /// or mid-response (the write hit EPIPE / a reset).
    pub fn client_disconnected(&self) {
        self.disconnects.fetch_add(1, Ordering::Relaxed);
    }

    /// Count a key newly quarantined as a poison pill.
    pub fn key_quarantined(&self) {
        self.quarantine_added.fetch_add(1, Ordering::Relaxed);
    }

    /// Current in-flight gauge (used by tests and the drain path).
    pub fn in_flight(&self) -> u64 {
        self.in_flight.load(Ordering::Relaxed)
    }

    /// Total fresh (non-cache) synthesis runs observed.
    pub fn synth_fresh(&self) -> u64 {
        self.synth_fresh.load(Ordering::Relaxed)
    }

    /// An [`EventSink`] feeding this registry; hand it to every
    /// per-request driver via [`driver::Driver::with_event_sink`].
    pub fn sink(self: &Arc<Metrics>) -> EventSink {
        let metrics = Arc::clone(self);
        Arc::new(move |event: &DriverEvent| match event {
            DriverEvent::JobFinished(r) => {
                *metrics.jobs.lock().unwrap().entry(r.outcome.name()).or_insert(0) += 1;
                if r.cache_hit {
                    metrics.cache_served.fetch_add(1, Ordering::Relaxed);
                } else {
                    metrics.synth_fresh.fetch_add(1, Ordering::Relaxed);
                }
            }
            DriverEvent::JobValidated { mismatches, .. } => {
                metrics.validation_mismatches.fetch_add(*mismatches as u64, Ordering::Relaxed);
            }
            _ => {}
        })
    }

    /// Render the whole registry in Prometheus text format. `workers` is
    /// `Some` only when the server runs with process isolation; its
    /// families are omitted otherwise.
    pub fn render(
        &self,
        started: Instant,
        cache: CacheSnapshot,
        workers: Option<&WorkerSnapshot>,
    ) -> String {
        let mut out = String::with_capacity(4096);
        let out = &mut out;

        out.push_str(
            "# HELP rake_served_uptime_seconds Seconds since the server started.\n\
             # TYPE rake_served_uptime_seconds gauge\n",
        );
        out.push_str(&format!("rake_served_uptime_seconds {}\n", started.elapsed().as_secs_f64()));

        out.push_str(
            "# HELP rake_served_requests_total Requests received, by endpoint.\n\
             # TYPE rake_served_requests_total counter\n",
        );
        for (i, e) in Endpoint::ALL.iter().enumerate() {
            out.push_str(&format!(
                "rake_served_requests_total{{endpoint=\"{}\"}} {}\n",
                e.name(),
                self.requests[i].load(Ordering::Relaxed)
            ));
        }

        out.push_str(
            "# HELP rake_served_responses_total Responses sent, by status code.\n\
             # TYPE rake_served_responses_total counter\n",
        );
        for (code, n) in self.responses.lock().unwrap().iter() {
            out.push_str(&format!("rake_served_responses_total{{code=\"{code}\"}} {n}\n"));
        }

        out.push_str(
            "# HELP rake_served_inflight_requests Compile requests currently executing.\n\
             # TYPE rake_served_inflight_requests gauge\n",
        );
        out.push_str(&format!(
            "rake_served_inflight_requests {}\n",
            self.in_flight.load(Ordering::Relaxed)
        ));

        out.push_str(
            "# HELP rake_served_queue_depth Requests waiting for a compile permit.\n\
             # TYPE rake_served_queue_depth gauge\n",
        );
        out.push_str(&format!(
            "rake_served_queue_depth {}\n",
            self.queue_depth.load(Ordering::Relaxed)
        ));

        out.push_str(
            "# HELP rake_served_rejected_busy_total Compile requests rejected with 429.\n\
             # TYPE rake_served_rejected_busy_total counter\n",
        );
        out.push_str(&format!(
            "rake_served_rejected_busy_total {}\n",
            self.rejected_busy.load(Ordering::Relaxed)
        ));

        out.push_str(
            "# HELP rake_served_warm_path_total Compile requests served entirely from cache, \
             bypassing admission control.\n\
             # TYPE rake_served_warm_path_total counter\n",
        );
        out.push_str(&format!(
            "rake_served_warm_path_total {}\n",
            self.warm_path.load(Ordering::Relaxed)
        ));

        out.push_str(
            "# HELP rake_served_exprs_total Expressions submitted for compilation.\n\
             # TYPE rake_served_exprs_total counter\n",
        );
        out.push_str(&format!("rake_served_exprs_total {}\n", self.exprs.load(Ordering::Relaxed)));

        out.push_str(
            "# HELP rake_served_jobs_total Per-expression outcomes.\n\
             # TYPE rake_served_jobs_total counter\n",
        );
        for (outcome, n) in self.jobs.lock().unwrap().iter() {
            out.push_str(&format!("rake_served_jobs_total{{outcome=\"{outcome}\"}} {n}\n"));
        }

        out.push_str(
            "# HELP rake_served_synth_fresh_total Jobs that ran a fresh synthesis (not served \
             from cache or dedup).\n\
             # TYPE rake_served_synth_fresh_total counter\n",
        );
        out.push_str(&format!(
            "rake_served_synth_fresh_total {}\n",
            self.synth_fresh.load(Ordering::Relaxed)
        ));

        out.push_str(
            "# HELP rake_served_cache_served_total Jobs served from cache or dedup.\n\
             # TYPE rake_served_cache_served_total counter\n",
        );
        out.push_str(&format!(
            "rake_served_cache_served_total {}\n",
            self.cache_served.load(Ordering::Relaxed)
        ));

        out.push_str(
            "# HELP rake_served_validation_mismatches_total Differential-oracle mismatches \
             (non-zero means a miscompile escaped).\n\
             # TYPE rake_served_validation_mismatches_total counter\n",
        );
        out.push_str(&format!(
            "rake_served_validation_mismatches_total {}\n",
            self.validation_mismatches.load(Ordering::Relaxed)
        ));

        out.push_str(
            "# HELP rake_served_client_disconnects_total Clients that vanished mid-compile; \
             their jobs were cooperatively cancelled.\n\
             # TYPE rake_served_client_disconnects_total counter\n",
        );
        out.push_str(&format!(
            "rake_served_client_disconnects_total {}\n",
            self.disconnects.load(Ordering::Relaxed)
        ));

        out.push_str(
            "# HELP rake_served_cache_hits_total Synthesis-cache lookup hits.\n\
             # TYPE rake_served_cache_hits_total counter\n",
        );
        out.push_str(&format!("rake_served_cache_hits_total {}\n", cache.hits));
        out.push_str(
            "# HELP rake_served_cache_misses_total Synthesis-cache lookup misses.\n\
             # TYPE rake_served_cache_misses_total counter\n",
        );
        out.push_str(&format!("rake_served_cache_misses_total {}\n", cache.misses));
        out.push_str(
            "# HELP rake_served_cache_entries Synthesis-cache entries currently held.\n\
             # TYPE rake_served_cache_entries gauge\n",
        );
        out.push_str(&format!("rake_served_cache_entries {}\n", cache.entries));
        out.push_str(
            "# HELP rake_served_cache_loaded_total Entries loaded from disk at startup.\n\
             # TYPE rake_served_cache_loaded_total counter\n",
        );
        out.push_str(&format!("rake_served_cache_loaded_total {}\n", cache.loaded));
        out.push_str(
            "# HELP rake_served_cache_bytes Serialized bytes of in-memory cache entries.\n\
             # TYPE rake_served_cache_bytes gauge\n",
        );
        out.push_str(&format!("rake_served_cache_bytes {}\n", cache.mem_bytes));
        out.push_str(
            "# HELP rake_served_cache_evicted_total Entries evicted by the entry/byte caps.\n\
             # TYPE rake_served_cache_evicted_total counter\n",
        );
        out.push_str(&format!("rake_served_cache_evicted_total {}\n", cache.evicted));
        out.push_str(
            "# HELP rake_served_cache_appended_total Entry lines appended to the cache's \
             segment log.\n\
             # TYPE rake_served_cache_appended_total counter\n",
        );
        out.push_str(&format!("rake_served_cache_appended_total {}\n", cache.appended));
        out.push_str(
            "# HELP rake_served_cache_compactions_total Segment-log-into-snapshot \
             compactions.\n\
             # TYPE rake_served_cache_compactions_total counter\n",
        );
        out.push_str(&format!("rake_served_cache_compactions_total {}\n", cache.compactions));
        out.push_str(
            "# HELP rake_served_cache_snapshot_bytes On-disk cache snapshot size.\n\
             # TYPE rake_served_cache_snapshot_bytes gauge\n",
        );
        out.push_str(&format!("rake_served_cache_snapshot_bytes {}\n", cache.snapshot_bytes));
        out.push_str(
            "# HELP rake_served_cache_log_bytes On-disk cache segment-log size.\n\
             # TYPE rake_served_cache_log_bytes gauge\n",
        );
        out.push_str(&format!("rake_served_cache_log_bytes {}\n", cache.log_bytes));
        out.push_str(
            "# HELP rake_served_journal_bytes Live event-journal file size (<log>.1 excluded).\n\
             # TYPE rake_served_journal_bytes gauge\n",
        );
        out.push_str(&format!("rake_served_journal_bytes {}\n", cache.journal_bytes));
        out.push_str(
            "# HELP rake_served_journal_rotations_total Journal roll-overs to <log>.1 since \
             startup.\n\
             # TYPE rake_served_journal_rotations_total counter\n",
        );
        out.push_str(&format!("rake_served_journal_rotations_total {}\n", cache.journal_rotations));
        out.push_str(
            "# HELP rake_served_quarantined_keys Keys currently quarantined as poison pills \
             (they crashed workers past the threshold; served as structured failures).\n\
             # TYPE rake_served_quarantined_keys gauge\n",
        );
        out.push_str(&format!("rake_served_quarantined_keys {}\n", cache.quarantined));
        out.push_str(
            "# HELP rake_served_quarantine_added_total Keys quarantined since startup.\n\
             # TYPE rake_served_quarantine_added_total counter\n",
        );
        out.push_str(&format!(
            "rake_served_quarantine_added_total {}\n",
            self.quarantine_added.load(Ordering::Relaxed)
        ));

        if let Some(w) = workers {
            out.push_str(
                "# HELP rake_served_worker_restarts_total Worker processes restarted by the \
                 supervisor (initial pre-forks excluded).\n\
                 # TYPE rake_served_worker_restarts_total counter\n",
            );
            out.push_str(&format!("rake_served_worker_restarts_total {}\n", w.restarts));
            out.push_str(
                "# HELP rake_served_worker_crashes_total Worker deaths, by cause.\n\
                 # TYPE rake_served_worker_crashes_total counter\n",
            );
            for (cause, n) in &w.crashes {
                out.push_str(&format!(
                    "rake_served_worker_crashes_total{{cause=\"{cause}\"}} {n}\n"
                ));
            }
            out.push_str(
                "# HELP rake_served_workers_alive Live worker processes.\n\
                 # TYPE rake_served_workers_alive gauge\n",
            );
            out.push_str(&format!("rake_served_workers_alive {}\n", w.alive));
            out.push_str(
                "# HELP rake_served_worker_rss_high_water_bytes Highest resident-set size \
                 observed on any worker.\n\
                 # TYPE rake_served_worker_rss_high_water_bytes gauge\n",
            );
            out.push_str(&format!(
                "rake_served_worker_rss_high_water_bytes {}\n",
                w.rss_high_water
            ));
        }

        out.push_str(
            "# HELP rake_served_compile_latency_seconds End-to-end /compile latency.\n\
             # TYPE rake_served_compile_latency_seconds histogram\n",
        );
        self.latency.render(out, "rake_served_compile_latency_seconds");
        std::mem::take(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_buckets_are_cumulative() {
        let h = Histogram::default();
        h.observe(Duration::from_millis(1));
        h.observe(Duration::from_millis(30));
        h.observe(Duration::from_secs(60));
        let mut out = String::new();
        h.render(&mut out, "t");
        assert!(out.contains("t_bucket{le=\"0.001\"} 1\n"), "{out}");
        assert!(out.contains("t_bucket{le=\"0.05\"} 2\n"), "{out}");
        assert!(out.contains("t_bucket{le=\"10\"} 2\n"), "{out}");
        assert!(out.contains("t_bucket{le=\"+Inf\"} 3\n"), "{out}");
        assert!(out.contains("t_count 3\n"), "{out}");
    }

    #[test]
    fn render_includes_all_families() {
        let m = Metrics::new();
        m.request(Endpoint::Compile);
        m.response(200);
        m.compile_started();
        m.compile_finished(Duration::from_millis(3));
        m.exprs_submitted(2);
        m.rejected_busy();
        m.key_quarantined();
        let text = m.render(
            Instant::now(),
            CacheSnapshot {
                hits: 5,
                misses: 2,
                entries: 4,
                mem_bytes: 2048,
                loaded: 3,
                evicted: 7,
                appended: 9,
                compactions: 2,
                snapshot_bytes: 4096,
                log_bytes: 512,
                journal_bytes: 8192,
                journal_rotations: 3,
                quarantined: 2,
            },
            Some(&WorkerSnapshot {
                restarts: 4,
                alive: 2,
                rss_high_water: 1 << 20,
                crashes: vec![("signal_9".to_owned(), 3)],
            }),
        );
        for family in [
            "rake_served_requests_total{endpoint=\"compile\"} 1",
            "rake_served_responses_total{code=\"200\"} 1",
            "rake_served_inflight_requests 0",
            "rake_served_queue_depth 0",
            "rake_served_rejected_busy_total 1",
            "rake_served_exprs_total 2",
            "rake_served_cache_hits_total 5",
            "rake_served_cache_entries 4",
            "rake_served_cache_bytes 2048",
            "rake_served_cache_evicted_total 7",
            "rake_served_cache_appended_total 9",
            "rake_served_cache_compactions_total 2",
            "rake_served_cache_snapshot_bytes 4096",
            "rake_served_cache_log_bytes 512",
            "rake_served_journal_bytes 8192",
            "rake_served_journal_rotations_total 3",
            "rake_served_quarantined_keys 2",
            "rake_served_quarantine_added_total 1",
            "rake_served_worker_restarts_total 4",
            "rake_served_worker_crashes_total{cause=\"signal_9\"} 3",
            "rake_served_workers_alive 2",
            "rake_served_worker_rss_high_water_bytes 1048576",
            "rake_served_compile_latency_seconds_count 1",
        ] {
            assert!(text.contains(family), "missing `{family}` in:\n{text}");
        }
        let plain = m.render(Instant::now(), CacheSnapshot::default(), None);
        assert!(
            !plain.contains("rake_served_worker_restarts_total"),
            "worker families must be omitted without a pool"
        );
        assert!(plain.contains("rake_served_quarantined_keys 0"));
    }

    #[test]
    fn sink_classifies_fresh_vs_cached() {
        use driver::event::{JobRecord, OutcomeKind};
        use std::time::Duration;
        let m = Metrics::new();
        let sink = m.sink();
        let record = |cache_hit| {
            DriverEvent::JobFinished(JobRecord {
                index: 0,
                name: None,
                key: "k".into(),
                outcome: OutcomeKind::Compiled,
                detail: None,
                fault_injected: false,
                cache_hit,
                queue_wait: Duration::ZERO,
                run_time: Duration::ZERO,
                instructions: None,
                stats: Default::default(),
            })
        };
        sink(&record(false));
        sink(&record(true));
        sink(&record(true));
        assert_eq!(m.synth_fresh(), 1);
        assert_eq!(m.cache_served.load(Ordering::Relaxed), 2);
        let jobs = m.jobs.lock().unwrap();
        assert_eq!(jobs.get("compiled"), Some(&3));
    }
}

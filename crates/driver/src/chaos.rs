//! Deterministic fault injection for the driver (feature `chaos`).
//!
//! A [`FaultPlan`] is a *seeded, deterministic* schedule of faults: given
//! the same seed and the same batch, the same jobs fail in the same ways
//! on every run, so chaos findings reproduce exactly. The plan can inject
//!
//! * worker **panics** — both `&str` payloads and non-string payloads
//!   (`panic_any(42)`), exercising the panic-capture path end to end;
//! * **forced deadline exhaustion** — the compile call reports
//!   `DeadlineExceeded` immediately, as a starved solver would, and the
//!   job must end `timed_out` with the baseline program;
//! * artificial **latency** before the real compile runs;
//! * persistent **cache-file corruption** ([`corrupt_cache_file`]) —
//!   truncated tail, garbage bytes, or a version bump — used by the chaos
//!   harness between runs to prove the cache self-heals.
//!
//! Nothing in this module runs unless the driver was built with the
//! `chaos` feature *and* given a plan via `Driver::with_chaos`; release
//! binaries without the feature compile the hooks out entirely.

use std::path::Path;
use std::time::Duration;

/// One injected fault, decided per job key.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fault {
    /// The worker panics with a `&str` payload.
    PanicStr,
    /// The worker panics with a non-string payload (`panic_any(42)`),
    /// exercising the typed-placeholder capture path.
    PanicNonStr,
    /// The compile call reports `DeadlineExceeded` immediately (a starved
    /// solver / exhausted budget).
    ForcedDeadline,
    /// The worker sleeps this long before compiling for real.
    Latency(Duration),
    /// The worker process calls `std::process::abort()` — no unwind, no
    /// `catch_unwind` rescue. Only survivable under process isolation.
    Abort,
    /// The worker allocates until the per-worker RSS limit (or the kernel
    /// OOM killer) takes it down. Only survivable under process isolation.
    Oom,
}

/// Execute an injected fault that kills the *process* (not just the
/// unwinding thread). [`Fault::Abort`] aborts outright; [`Fault::Oom`]
/// grows touched heap memory until something (the supervisor's RSS limit,
/// the kernel) kills the process — bounded at 8 GiB so a misconfigured
/// run still terminates via abort rather than swapping forever.
pub fn execute_lethal(fault: Fault) {
    match fault {
        Fault::Abort => std::process::abort(),
        Fault::Oom => {
            let mut hog: Vec<Vec<u8>> = Vec::new();
            for _ in 0..(8 * 1024) {
                // 1 MiB chunks, touched so the pages are actually resident.
                let mut chunk = vec![0u8; 1024 * 1024];
                for page in chunk.chunks_mut(4096) {
                    page[0] = 1;
                }
                hog.push(chunk);
                std::thread::sleep(Duration::from_micros(200));
            }
            std::process::abort();
        }
        _ => {}
    }
}

/// How to corrupt a cache file on disk.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheCorruption {
    /// Drop the final bytes, as a crash mid-write would (torn tail).
    TruncatedTail,
    /// Overwrite a span in the middle with garbage bytes.
    GarbageBytes,
    /// Rewrite the schema version to an unsupported number.
    VersionMismatch,
}

/// A seeded, deterministic fault schedule.
#[derive(Debug, Clone)]
pub struct FaultPlan {
    /// The schedule seed: same seed, same batch → same faults.
    pub seed: u64,
    /// Probability a job is handed a [`Fault::ForcedDeadline`].
    pub deadline_rate: f64,
    /// Probability a job panics (split evenly between string and
    /// non-string payloads).
    pub panic_rate: f64,
    /// Probability a job is delayed before compiling.
    pub latency_rate: f64,
    /// Upper bound on the injected delay.
    pub max_latency: Duration,
    /// Probability a job aborts the worker process outright.
    /// Zero by default: only meaningful under process isolation.
    pub abort_rate: f64,
    /// Probability a job allocates until killed. Zero by default:
    /// only meaningful under process isolation.
    pub oom_rate: f64,
}

impl FaultPlan {
    /// The default schedule for a seed: 20% forced deadlines, 15% panics,
    /// 15% latency injections of up to 3 ms.
    pub fn seeded(seed: u64) -> FaultPlan {
        FaultPlan {
            seed,
            deadline_rate: 0.20,
            panic_rate: 0.15,
            latency_rate: 0.15,
            max_latency: Duration::from_millis(3),
            abort_rate: 0.0,
            oom_rate: 0.0,
        }
    }

    /// The fault (if any) scheduled for this job. Purely a function of
    /// `(seed, key)`: asking again gives the same answer, so a schedule
    /// replays exactly.
    pub fn fault_for(&self, key: &str) -> Option<Fault> {
        let h = mix(self.seed ^ fnv1a(key.as_bytes()));
        let r = unit(h);
        if r < self.deadline_rate {
            return Some(Fault::ForcedDeadline);
        }
        if r < self.deadline_rate + self.panic_rate {
            return Some(if h & (1 << 60) == 0 { Fault::PanicStr } else { Fault::PanicNonStr });
        }
        if r < self.deadline_rate + self.panic_rate + self.latency_rate {
            let micros = 1 + mix(h) % self.max_latency.as_micros().max(2) as u64;
            return Some(Fault::Latency(Duration::from_micros(micros)));
        }
        let lethal_floor = self.deadline_rate + self.panic_rate + self.latency_rate;
        if r < lethal_floor + self.abort_rate {
            return Some(Fault::Abort);
        }
        if r < lethal_floor + self.abort_rate + self.oom_rate {
            return Some(Fault::Oom);
        }
        None
    }
}

/// Corrupt a cache (or journal) file on disk the way a crash or bit-rot
/// would. `seed` picks the damaged span deterministically. Missing files
/// are a no-op for [`CacheCorruption::TruncatedTail`] /
/// [`CacheCorruption::GarbageBytes`] semantics: the error is returned and
/// the caller decides.
pub fn corrupt_cache_file(
    path: &Path,
    corruption: CacheCorruption,
    seed: u64,
) -> std::io::Result<()> {
    let mut bytes = std::fs::read(path)?;
    match corruption {
        CacheCorruption::TruncatedTail => {
            // Keep a prefix: between half and all-but-one bytes.
            let keep = bytes.len() / 2 + (mix(seed) as usize) % (bytes.len() / 2).max(1);
            bytes.truncate(keep.min(bytes.len().saturating_sub(1)));
        }
        CacheCorruption::GarbageBytes => {
            let len = bytes.len();
            if len > 0 {
                let start = (mix(seed) as usize) % len;
                for (i, b) in bytes.iter_mut().skip(start).take(16).enumerate() {
                    *b = (mix(seed.wrapping_add(i as u64)) & 0xff) as u8;
                }
            }
        }
        CacheCorruption::VersionMismatch => {
            let text = String::from_utf8_lossy(&bytes).replace("\"version\":1", "\"version\":999");
            bytes = text.into_bytes();
        }
    }
    std::fs::write(path, bytes)
}

/// FNV-1a over bytes: a stable, dependency-free content hash.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf29ce484222325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x100000001b3);
    }
    h
}

/// SplitMix64 finalizer: decorrelates the structured inputs.
fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e3779b97f4a7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
    z ^ (z >> 31)
}

/// Map a hash to [0, 1).
fn unit(h: u64) -> f64 {
    (h >> 11) as f64 / (1u64 << 53) as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedule_is_deterministic_and_sticky() {
        let plan = FaultPlan::seeded(0xC4A05);
        for key in ["job-a|l8", "job-b|l8", "job-c|l8"] {
            // Ask repeatedly: the answer never changes (stickiness).
            let first = plan.fault_for(key);
            for _ in 0..5 {
                assert_eq!(plan.fault_for(key), first);
            }
        }
    }

    #[test]
    fn seeds_produce_different_schedules() {
        let keys: Vec<String> = (0..64).map(|i| format!("job-{i}")).collect();
        let a = FaultPlan::seeded(1);
        let b = FaultPlan::seeded(2);
        let differs = keys.iter().any(|k| a.fault_for(k) != b.fault_for(k));
        assert!(differs, "different seeds must give different schedules");
    }

    #[test]
    fn rates_are_roughly_respected() {
        let plan = FaultPlan::seeded(7);
        let n = 2000;
        let faults = (0..n).filter(|i| plan.fault_for(&format!("job-{i}")).is_some()).count();
        let expected = plan.deadline_rate + plan.panic_rate + plan.latency_rate;
        let got = faults as f64 / n as f64;
        assert!((got - expected).abs() < 0.05, "fault rate {got} vs configured {expected}");
    }

    #[test]
    fn lethal_faults_schedule_deterministically_and_default_off() {
        // seeded() plans never schedule lethal faults: the in-process chaos
        // harness must keep working unchanged.
        let plan = FaultPlan::seeded(0xDEAD);
        for i in 0..256 {
            let f = plan.fault_for(&format!("job-{i}"));
            assert!(
                !matches!(f, Some(Fault::Abort) | Some(Fault::Oom)),
                "lethal fault from default plan: {f:?}"
            );
        }

        // With lethal rates dialed up, the schedule is sticky and mixes
        // both lethal kinds across keys.
        let lethal = FaultPlan {
            deadline_rate: 0.0,
            panic_rate: 0.0,
            latency_rate: 0.0,
            abort_rate: 0.5,
            oom_rate: 0.5,
            ..FaultPlan::seeded(0xDEAD)
        };
        let mut aborts = 0;
        let mut ooms = 0;
        for i in 0..64 {
            let key = format!("job-{i}");
            let first = lethal.fault_for(&key);
            assert_eq!(lethal.fault_for(&key), first, "sticky");
            match first {
                Some(Fault::Abort) => aborts += 1,
                Some(Fault::Oom) => ooms += 1,
                other => panic!("rates sum to 1.0 yet got {other:?}"),
            }
        }
        assert!(aborts > 0 && ooms > 0, "both lethal kinds appear: {aborts} aborts, {ooms} ooms");
    }

    #[test]
    fn corruptions_damage_the_file() {
        let dir = std::env::temp_dir().join(format!("rake-chaos-corrupt-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("synthcache.json");
        let original =
            r#"{"version":1,"entries":[{"key":"k","kind":"failed","error":"lift_failed"}]}"#;

        std::fs::write(&path, original).unwrap();
        corrupt_cache_file(&path, CacheCorruption::TruncatedTail, 3).unwrap();
        assert!(std::fs::read(&path).unwrap().len() < original.len());

        std::fs::write(&path, original).unwrap();
        corrupt_cache_file(&path, CacheCorruption::GarbageBytes, 3).unwrap();
        assert_ne!(std::fs::read(&path).unwrap(), original.as_bytes());

        std::fs::write(&path, original).unwrap();
        corrupt_cache_file(&path, CacheCorruption::VersionMismatch, 3).unwrap();
        assert!(String::from_utf8(std::fs::read(&path).unwrap())
            .unwrap()
            .contains("\"version\":999"));

        let _ = std::fs::remove_dir_all(&dir);
    }
}

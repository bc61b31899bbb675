//! Per-stage synthesis statistics (the columns of Table 1).

use std::time::Duration;

/// Query counts and wall-clock time per synthesis stage.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SynthStats {
    /// Equivalence queries issued while lifting (update/replace/extend
    /// candidates checked).
    pub lifting_queries: u64,
    /// Sketch candidates checked while lowering compute.
    pub sketching_queries: u64,
    /// Data-movement candidates checked while concretizing swizzles.
    pub swizzling_queries: u64,
    /// Wall-clock time in lifting.
    pub lifting_time: Duration,
    /// Wall-clock time in sketch synthesis.
    pub sketching_time: Duration,
    /// Wall-clock time in swizzle synthesis.
    pub swizzling_time: Duration,
    /// SMT solver queries actually issued (after the proof cache; counted
    /// whether or not memoization is on).
    pub smt_queries: u64,
    /// Wall-clock time inside the SMT solver (term construction through
    /// the CDCL search), across all stages.
    pub smt_time: Duration,
    /// SMT queries answered by the process-wide proof cache instead of
    /// the solver.
    pub proof_cache_hits: u64,
    /// Test-environment families served from the verifier's env cache
    /// instead of regenerated.
    pub env_cache_hits: u64,
    /// Results served from a synthesis cache instead of fresh queries
    /// (filled in by callers that layer caching over the engine).
    pub cache_hits: u64,
    /// Whether synthesis was cut short by a cooperative deadline. A
    /// deadline-terminated run is *incomplete*, not a proof of failure,
    /// so callers must not negative-cache it.
    pub deadline_exceeded: bool,
}

impl SynthStats {
    /// Total synthesis time across stages.
    pub fn total_time(&self) -> Duration {
        self.lifting_time + self.sketching_time + self.swizzling_time
    }

    /// Accumulate another stats record into this one.
    pub fn merge(&mut self, other: &SynthStats) {
        self.lifting_queries += other.lifting_queries;
        self.sketching_queries += other.sketching_queries;
        self.swizzling_queries += other.swizzling_queries;
        self.lifting_time += other.lifting_time;
        self.sketching_time += other.sketching_time;
        self.swizzling_time += other.swizzling_time;
        self.smt_queries += other.smt_queries;
        self.smt_time += other.smt_time;
        self.proof_cache_hits += other.proof_cache_hits;
        self.env_cache_hits += other.env_cache_hits;
        self.cache_hits += other.cache_hits;
        self.deadline_exceeded |= other.deadline_exceeded;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merge_accumulates() {
        let mut a = SynthStats {
            lifting_queries: 2,
            sketching_queries: 3,
            swizzling_queries: 4,
            lifting_time: Duration::from_millis(10),
            sketching_time: Duration::from_millis(20),
            swizzling_time: Duration::from_millis(30),
            smt_queries: 5,
            smt_time: Duration::from_millis(40),
            proof_cache_hits: 6,
            env_cache_hits: 7,
            cache_hits: 1,
            deadline_exceeded: false,
        };
        a.merge(&a.clone());
        assert_eq!(a.lifting_queries, 4);
        assert_eq!(a.swizzling_queries, 8);
        assert_eq!(a.smt_queries, 10);
        assert_eq!(a.smt_time, Duration::from_millis(80));
        assert_eq!(a.proof_cache_hits, 12);
        assert_eq!(a.env_cache_hits, 14);
        assert_eq!(a.cache_hits, 2);
        assert!(!a.deadline_exceeded);
        assert_eq!(a.total_time(), Duration::from_millis(120));
        a.merge(&SynthStats { deadline_exceeded: true, ..SynthStats::default() });
        assert!(a.deadline_exceeded);
    }
}

//! The benchmark's catalogue of workloads and metrics, and the statistics
//! every metric is reported with.
//!
//! `BENCHMARK.json` at the repository root is the single source of the
//! catalogue: it is compiled into the binary, so the names, units,
//! directions and bounds printed by `bench`, checked by `check` and
//! compared by `compare` are exactly the ones that file declares.

use driver::json::{self, Json};

/// `BENCHMARK.json`, as built into this binary.
pub const SPEC_TEXT: &str = include_str!("../../BENCHMARK.json");

/// One metric of the catalogue.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: String,
    pub unit: String,
    pub higher_is_better: bool,
    /// Share of the base median by which the metric may worsen before a
    /// change counts as a regression. Per-layer metrics have none.
    pub bound: Option<f64>,
}

/// Workloads and metrics, in `BENCHMARK.json` order.
#[derive(Debug, Clone)]
pub struct Catalog {
    pub workloads: Vec<String>,
    pub end_to_end: Vec<Metric>,
    pub per_layer: Vec<Metric>,
    pub run_seconds: u64,
}

impl Catalog {
    /// Parse a `BENCHMARK.json` document.
    pub fn parse(text: &str) -> Result<Catalog, String> {
        let doc = json::parse(text).map_err(|e| format!("BENCHMARK.json: {e}"))?;
        let list = |key: &str| -> Result<&[Json], String> {
            doc.get(key).and_then(Json::as_arr).ok_or_else(|| format!("missing `{key}` list"))
        };
        let text_of = |v: &Json, key: &str| -> Result<String, String> {
            v.get(key)
                .and_then(Json::as_str)
                .map(str::to_owned)
                .ok_or_else(|| format!("missing `{key}`"))
        };
        let metrics = |key: &str| -> Result<Vec<Metric>, String> {
            list(key)?
                .iter()
                .map(|m| {
                    Ok(Metric {
                        name: text_of(m, "name")?,
                        unit: text_of(m, "unit")?,
                        higher_is_better: text_of(m, "better")? == "higher",
                        bound: match m.get("bound") {
                            Some(Json::Num(b)) => Some(*b),
                            _ => None,
                        },
                    })
                })
                .collect()
        };
        Ok(Catalog {
            workloads: list("workloads")?
                .iter()
                .map(|w| text_of(w, "name"))
                .collect::<Result<_, _>>()?,
            end_to_end: metrics("end_to_end")?,
            per_layer: metrics("per_layer")?,
            run_seconds: doc.get("run_seconds").and_then(Json::as_i64).unwrap_or(10) as u64,
        })
    }

    /// The catalogue built into this binary.
    pub fn embedded() -> Catalog {
        Catalog::parse(SPEC_TEXT).expect("the embedded BENCHMARK.json is valid")
    }

    /// The metrics a run prints: end-to-end untraced, per-layer traced.
    pub fn metrics(&self, traced: bool) -> &[Metric] {
        if traced {
            &self.per_layer
        } else {
            &self.end_to_end
        }
    }
}

/// Nearest-rank percentile of ascending `sorted` samples: the smallest
/// sample with at least `p`% of the samples at or below it.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    sorted[rank(sorted.len(), p) - 1]
}

/// 1-based nearest rank of percentile `p` among `n` samples. The epsilon
/// keeps `99.9 * 10_000 / 100` from rounding up past 9990.
fn rank(n: usize, p: f64) -> usize {
    ((p * n as f64 / 100.0 - 1e-9).ceil() as usize).clamp(1, n)
}

/// Samples strictly beyond the nearest rank of percentile `p`.
pub fn beyond(n: usize, p: f64) -> usize {
    if n == 0 {
        0
    } else {
        n - rank(n, p)
    }
}

/// The highest of the usual reporting percentiles that still has at
/// least ten samples beyond it; the median when none has.
pub fn tail_percentile(n: usize) -> f64 {
    [99.9, 99.0, 95.0, 90.0, 75.0].into_iter().find(|&p| beyond(n, p) >= 10).unwrap_or(50.0)
}

/// Nearest-rank median of unsorted samples.
pub fn median(samples: &[f64]) -> f64 {
    percentile(&sorted(samples), 50.0)
}

/// An ascending copy.
pub fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 99.0), 99.0);
        assert_eq!(percentile(&v, 100.0), 100.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&[7.0], 99.0), 7.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        // Nearest rank takes the lower middle of an even count.
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.0);
        assert!(percentile(&[], 50.0).is_nan());
    }

    #[test]
    fn tail_percentile_keeps_ten_samples_beyond() {
        assert_eq!(beyond(100, 90.0), 10);
        assert_eq!(beyond(100, 95.0), 5);
        // 63 samples: p75 has 15 beyond, p90 only 6.
        assert_eq!(tail_percentile(63), 75.0);
        assert_eq!(tail_percentile(100), 90.0);
        assert_eq!(tail_percentile(576), 95.0);
        assert_eq!(tail_percentile(1000), 99.0);
        assert_eq!(tail_percentile(10_000), 99.9);
        // Too few samples for any tail: report the median.
        assert_eq!(tail_percentile(12), 50.0);
        for n in [20, 63, 200, 999, 1000, 5000, 10_000] {
            assert!(beyond(n, tail_percentile(n)) >= 10, "n = {n}");
        }
    }

    #[test]
    fn embedded_catalog_parses() {
        let cat = Catalog::embedded();
        assert_eq!(cat.workloads.len(), 4);
        assert!(cat.end_to_end.iter().any(|m| m.name == "setup_s" && m.unit == "s"));
        let setup_bound = cat.end_to_end.iter().find(|m| m.name == "setup_s").unwrap().bound;
        for m in &cat.end_to_end {
            let bound = m.bound.expect("end-to-end metrics carry a bound");
            assert!(bound > 0.0 && bound <= 0.25, "{}", m.name);
            assert!(bound <= setup_bound.unwrap(), "setup_s has the largest bound");
        }
        assert!(cat.per_layer.iter().all(|m| m.bound.is_none()));
    }
}

//! The four workloads' inputs, each a pure function of the seed.
//!
//! Why each workload exists is recorded in `BENCHMARK.json` and
//! `README.md`; this module only builds their inputs. The paper suite is
//! the same for every seed, and so is the fuzz corpus (see
//! `FUZZ_CORPUS_SEED`). The serving mixes draw their templates, variants
//! and buffer names from the seed.

use driver::json::Json;
use halide_ir::Expr;
use lanes::rng::Rng;
use rake::{Rake, Target};
use synth::Verifier;

/// Seed used when none is given.
pub const DEFAULT_SEED: u64 = 0x5EED;

/// SMT conflict budget of the compile workloads. The synthesized programs
/// are the same at 500, 2 000 and 10 000 conflicts (speedup geomean
/// 1.2722 at each); 2 000 keeps a cold paper-suite pass near 7 s instead
/// of 37 s, so several cold passes fit in one run.
pub const CONFLICT_BUDGET: u64 = 2_000;

/// Expressions in the fuzz batch.
pub const FUZZ_EXPRS: usize = 64;
/// Seed of the fixed fuzz corpus. The corpus does not follow `--seed`:
/// generated corpora hit a miscompile the benchmark did not cause (one
/// expression in ~8 700; see README.md), which would fail a run whatever
/// the change under test, and their cost is heavy-tailed (single
/// expressions of 6–8 s), so it spread 35% between ten seeds. Every
/// program this corpus compiles to is correct.
const FUZZ_CORPUS_SEED: u64 = 0x5EED;
/// Fuzz geometry: 16 lanes on 16-byte registers.
pub const FUZZ_LANES: usize = 16;

/// Lane width of every serving request.
pub const SERVE_LANES: usize = 16;
/// The serving templates: the 128-lane paper workloads that compile cold
/// in under 1.5 s at server defaults. depthwise_conv is left out: it takes
/// 8–10 s cold in a fresh server, which would dominate set-up.
pub const SERVE_TEMPLATES: [&str; 7] =
    ["dilate", "box_blur", "median", "add", "mean", "average_pool", "max_pool"];
/// Closed-loop client connections (the core count of the reference box).
pub const CONNECTIONS: usize = 2;
/// In the mixed workload, one request in this many is a never-seen variant.
pub const MISS_EVERY: u64 = 4;
/// A re-sent variant was first sent at least this many requests earlier,
/// so with two connections it has long finished compiling.
const RESEND_DISTANCE: u64 = 64;
/// Variant shifts: every load moves by `dx` in `-16..=16` and `dy` in
/// `-4..=4`, which keeps every tap inside the verifier's 32 x 8 margins.
const SHIFT_X: i32 = 16;
const SHIFT_Y: i32 = 4;

/// The benchmark's workloads, in `BENCHMARK.json` order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    PaperSuite,
    FuzzBatch,
    ServeWarm,
    ServeMixed,
}

impl Workload {
    pub const ALL: [Workload; 4] =
        [Workload::PaperSuite, Workload::FuzzBatch, Workload::ServeWarm, Workload::ServeMixed];

    pub fn name(self) -> &'static str {
        match self {
            Workload::PaperSuite => "paper-suite",
            Workload::FuzzBatch => "fuzz-batch",
            Workload::ServeWarm => "serve-warm",
            Workload::ServeMixed => "serve-mixed",
        }
    }

    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    pub fn is_serve(self) -> bool {
        matches!(self, Workload::ServeWarm | Workload::ServeMixed)
    }

    /// Cold passes (compile workloads) or requests (serving) per second of
    /// one child on the reference box. A run's pass and request counts are
    /// `--seconds` times this, whatever the machine, so every build does
    /// the same work.
    pub fn reference_rate(self) -> f64 {
        match self {
            Workload::PaperSuite => 1.0 / 6.5,
            Workload::FuzzBatch => 1.0 / 2.3,
            Workload::ServeWarm => 3000.0,
            Workload::ServeMixed => 330.0,
        }
    }

    /// The tail percentile of a run's units (`latency_tail_ms` for the
    /// serving workloads, `driver.unit_tail_ms` for the compile ones): the
    /// highest one with at least ten samples beyond it at the counts one
    /// run makes (63 suite workloads, 576 fuzz jobs, thousands of requests
    /// per serving child). It is fixed per workload so a faster build,
    /// which gathers more samples, is not judged at a higher percentile.
    pub fn tail_pct(self) -> f64 {
        match self {
            Workload::PaperSuite => 75.0,
            Workload::FuzzBatch => 95.0,
            Workload::ServeWarm | Workload::ServeMixed => 99.0,
        }
    }
}

/// The compile workloads' verifier effort at one geometry.
pub fn effort(lanes: usize, vec_bytes: usize) -> Verifier {
    Verifier {
        lanes,
        vec_bytes,
        alt_lanes: (lanes / 2).max(4),
        random_envs: 6,
        use_smt: true,
        smt_lanes: 1,
        smt_conflict_budget: CONFLICT_BUDGET,
        smt_lowering: false,
        ..Verifier::default()
    }
}

/// One driver batch of a compile workload.
#[derive(Clone)]
pub struct Batch {
    pub lanes: usize,
    pub vec_bytes: usize,
    /// Permute units charged per tile for the paper's cross-expression
    /// layout limitation (depthwise_conv only).
    pub penalty: u32,
    pub rake: Rake,
    pub jobs: Vec<(String, Expr)>,
}

impl Batch {
    fn new(
        name: &'static str,
        lanes: usize,
        vec_bytes: usize,
        penalty: u32,
        exprs: Vec<Expr>,
    ) -> Batch {
        Batch {
            lanes,
            vec_bytes,
            penalty,
            rake: Rake::new(Target { lanes, vec_bytes }).with_verifier(effort(lanes, vec_bytes)),
            jobs: exprs.into_iter().enumerate().map(|(i, e)| (format!("{name}[{i}]"), e)).collect(),
        }
    }
}

/// The 21 Table-1 workloads at full width (their own lanes, 128-byte
/// registers), in Table-1 order, one batch each.
pub fn suite_batches() -> Vec<Batch> {
    workloads::all()
        .into_iter()
        .map(|w| Batch::new(w.name, w.lanes, 128, w.rake_layout_penalty, w.exprs))
        .collect()
}

/// The fuzz corpus as one batch.
pub fn fuzz_batch() -> Batch {
    let mut rng = Rng::seed_from_u64(FUZZ_CORPUS_SEED);
    let cfg = oracle::GenConfig::default();
    let exprs = (0..FUZZ_EXPRS).map(|_| oracle::gen_expr(&mut rng, &cfg)).collect();
    Batch::new("fuzz", FUZZ_LANES, FUZZ_LANES, 0, exprs)
}

/// The serving templates: name and S-expressions, in `SERVE_TEMPLATES`
/// order.
pub fn serve_templates() -> Vec<(&'static str, Vec<String>)> {
    let all = workloads::all();
    SERVE_TEMPLATES
        .iter()
        .map(|name| {
            let w = all
                .iter()
                .find(|w| w.name == *name)
                .expect("serve templates are Table-1 workloads");
            (w.name, w.exprs.iter().map(halide_ir::sexpr::to_sexpr).collect())
        })
        .collect()
}

/// `/compile` request body for expressions at the serving width.
pub fn request_body(exprs: &[String]) -> Vec<u8> {
    Json::obj([
        ("exprs", Json::Arr(exprs.iter().map(|e| Json::Str(e.clone())).collect())),
        ("lanes", SERVE_LANES.into()),
    ])
    .to_string()
    .into_bytes()
}

/// What serving request `i` sends: a template, a shift of its loads, and
/// a buffer-name tag. A pure function of `(seed, i)`, so the stream is the
/// same under any thread interleaving.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Request {
    pub template: usize,
    pub shift: (i32, i32),
    pub tag: String,
}

/// The request stream of one serving workload.
pub struct Mix {
    workload: Workload,
    seed: u64,
    templates: usize,
    /// Every `(template, dx, dy)` variant, shuffled by the seed; miss `m`
    /// sends entry `m`, so misses are distinct for the table's length.
    variants: Vec<(usize, i32, i32)>,
}

impl Mix {
    pub fn new(workload: Workload, seed: u64, templates: usize) -> Mix {
        let mut variants: Vec<(usize, i32, i32)> = (0..templates)
            .flat_map(|t| {
                (-SHIFT_X..=SHIFT_X)
                    .flat_map(move |dx| (-SHIFT_Y..=SHIFT_Y).map(move |dy| (t, dx, dy)))
            })
            .filter(|&(_, dx, dy)| (dx, dy) != (0, 0))
            .collect();
        let mut rng = Rng::seed_from_u64(seed);
        for i in (1..variants.len()).rev() {
            variants.swap(i, rng.gen_range_usize(0..=i));
        }
        Mix { workload, seed, templates, variants }
    }

    pub fn request(&self, i: u64) -> Request {
        let h = mix(self.seed, i);
        let tag = tag(self.seed, i);
        let variant = |m: u64| {
            let (template, dx, dy) = self.variants[(m % self.variants.len() as u64) as usize];
            Request { template, shift: (dx, dy), tag: tag.clone() }
        };
        let template = |t: u64| Request { template: t as usize, shift: (0, 0), tag: tag.clone() };
        let n = self.templates as u64;
        match self.workload {
            Workload::ServeMixed if i.is_multiple_of(MISS_EVERY) => variant(i / MISS_EVERY),
            Workload::ServeMixed => {
                let old =
                    if i >= RESEND_DISTANCE { (i - RESEND_DISTANCE) / MISS_EVERY + 1 } else { 0 };
                let r = h % (n + old);
                if r < n {
                    template(r)
                } else {
                    variant(r - n)
                }
            }
            _ => template(h % n),
        }
    }

    /// The S-expressions request `i` sends.
    pub fn exprs(&self, templates: &[(&str, Vec<String>)], i: u64) -> Vec<String> {
        let r = self.request(i);
        templates[r.template].1.iter().map(|e| rewrite(e, &r.tag, r.shift)).collect()
    }
}

/// SplitMix64 of `seed` and `i`: the per-request random draw.
pub fn mix(seed: u64, i: u64) -> u64 {
    let mut z = (seed ^ i.wrapping_mul(0x9e37_79b9_7f4a_7c15)).wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Buffer-name prefix for request `i`. A shared prefix keeps the sorted
/// order of an expression's buffers, which seeds the verifier's random
/// environments, so renaming leaves the verifier's test inputs unchanged.
fn tag(seed: u64, i: u64) -> String {
    format!("r{:04x}", mix(seed, i) & 0xffff)
}

/// Rename every buffer `b` to `{tag}_{b}` (no renaming for an empty tag)
/// and move every vector load by `shift`, on the S-expression text.
pub fn rewrite(sexpr: &str, tag: &str, shift: (i32, i32)) -> String {
    let spaced = sexpr.replace('(', " ( ").replace(')', " ) ");
    let toks: Vec<&str> = spaced.split_whitespace().collect();
    let name = |b: &str| if tag.is_empty() { b.to_owned() } else { format!("{tag}_{b}") };
    let offset = |t: &str, d: i32| {
        let v: i32 = t.parse().expect("load offsets are integers");
        (v + d).to_string()
    };
    let mut out: Vec<String> = Vec::with_capacity(toks.len());
    let mut i = 0;
    while i < toks.len() {
        match toks[i] {
            // (load <buffer> <ty> <dx> <dy>)
            "load" if i + 4 < toks.len() => {
                out.extend([
                    "load".to_owned(),
                    name(toks[i + 1]),
                    toks[i + 2].to_owned(),
                    offset(toks[i + 3], shift.0),
                    offset(toks[i + 4], shift.1),
                ]);
                i += 5;
            }
            // (bcast-load <buffer> <x> <dy> <ty>): x is an absolute column.
            "bcast-load" if i + 1 < toks.len() => {
                out.extend(["bcast-load".to_owned(), name(toks[i + 1])]);
                i += 2;
            }
            t => {
                out.push(t.to_owned());
                i += 1;
            }
        }
    }
    out.join(" ").replace("( ", "(").replace(" )", ")")
}

/// Parse an S-expression this module produced.
pub fn reparse(sexpr: &str) -> Expr {
    halide_ir::sexpr::parse(sexpr).expect("rewritten expressions stay well-formed")
}

#[cfg(test)]
mod tests {
    use super::*;
    use driver::{Driver, DriverConfig};

    fn key_driver() -> Driver {
        Driver::new(Rake::new(Target { lanes: SERVE_LANES, vec_bytes: SERVE_LANES }))
            .with_config(DriverConfig::default())
    }

    #[test]
    fn rewrite_renames_and_shifts_loads_only() {
        let e = "(add (cast u16 (load in u8 -1 0)) (mul (bcast-load k 3 1 u16) (bcast 2 u16)))";
        assert_eq!(
            rewrite(e, "r1", (2, -1)),
            "(add (cast u16 (load r1_in u8 1 -1)) (mul (bcast-load r1_k 3 1 u16) (bcast 2 u16)))"
        );
        assert_eq!(rewrite(e, "", (0, 0)), e);
        for (_, exprs) in serve_templates() {
            for e in exprs {
                assert_eq!(rewrite(&e, "", (0, 0)), e);
                reparse(&rewrite(&e, "r00ff", (16, -4)));
            }
        }
    }

    #[test]
    fn shifted_variants_get_distinct_keys_and_renamed_repeats_equal_ones() {
        let driver = key_driver();
        let templates = serve_templates();
        let key = |exprs: &[String]| -> Vec<String> {
            exprs.iter().map(|e| driver.cache_key(&reparse(e))).collect()
        };
        let mix = Mix::new(Workload::ServeMixed, DEFAULT_SEED, templates.len());
        let mut miss_keys = std::collections::HashSet::new();
        for i in (0..400).step_by(MISS_EVERY as usize) {
            let keys = key(&mix.exprs(&templates, i));
            let (t, _) = &templates[mix.request(i).template];
            assert!(miss_keys.insert(keys.clone()), "variant {i} ({t}) repeats an earlier key");
            let base = key(&templates[mix.request(i).template].1);
            assert_ne!(keys, base, "variant {i} collides with its template");
        }
        // Repeats: the same template or variant under other buffer names.
        for i in 1..400u64 {
            let r = mix.request(i);
            if i % MISS_EVERY != 0 {
                let plain: Vec<String> =
                    templates[r.template].1.iter().map(|e| rewrite(e, "", r.shift)).collect();
                assert_eq!(key(&mix.exprs(&templates, i)), key(&plain), "request {i}");
                if r.shift != (0, 0) {
                    let first =
                        (0..i - RESEND_DISTANCE + 1).step_by(MISS_EVERY as usize).find(|&j| {
                            mix.request(j).template == r.template && mix.request(j).shift == r.shift
                        });
                    assert!(first.is_some(), "request {i} re-sends a variant not yet sent");
                }
            }
        }
    }

    #[test]
    fn inputs_are_deterministic_per_seed() {
        let templates = serve_templates();
        for w in [Workload::ServeWarm, Workload::ServeMixed] {
            let (a, b) = (Mix::new(w, 7, templates.len()), Mix::new(w, 7, templates.len()));
            let c = Mix::new(w, 8, templates.len());
            let stream = |m: &Mix| (0..200).map(|i| m.exprs(&templates, i)).collect::<Vec<_>>();
            assert_eq!(stream(&a), stream(&b));
            assert_ne!(stream(&a), stream(&c));
        }
        let sexprs = |b: &Batch| {
            b.jobs.iter().map(|(_, e)| halide_ir::sexpr::to_sexpr(e)).collect::<Vec<_>>()
        };
        let corpus = sexprs(&fuzz_batch());
        assert_eq!(corpus, sexprs(&fuzz_batch()));
        assert_eq!(corpus.len(), FUZZ_EXPRS);
        assert_eq!(corpus.iter().collect::<std::collections::HashSet<_>>().len(), FUZZ_EXPRS);
    }
}

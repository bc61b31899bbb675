//! Integration: both code generators agree with the IR interpreter on
//! randomized programs, and Rake's output never costs more than the
//! baseline's under the paper's cost model (it searched a superset).

use halide_ir::builder::*;
use halide_ir::{Buffer2D, Env, EvalCtx, Expr};
use hvx::CostModel;
use lanes::rng::Rng;
use lanes::ElemType::{U16, U8};
use rake::{Rake, Target};
use synth::Verifier;

const LANES: usize = 8;

fn rake() -> Rake {
    Rake::new(Target::hvx_small(LANES)).with_verifier(Verifier::fast())
}

/// Random wrap-free stencil expressions over one u8 buffer.
fn random_stencil(rng: &mut Rng) -> Expr {
    let taps = rng.gen_range_usize(2..=3);
    let mut acc: Option<Expr> = None;
    for k in 0..taps {
        let w = rng.gen_range(1..=3);
        let t = widen(load("in", U8, k as i32 - 1, rng.gen_range(-1..=1) as i32));
        let term = if w == 1 { t } else { mul(t, bcast(w, U16)) };
        acc = Some(match acc {
            None => term,
            Some(a) => add(a, term),
        });
    }
    let acc = acc.expect("taps");
    match rng.gen_range(0..=2) {
        0 => acc,
        1 => cast(U8, shr(add(acc, bcast(4, U16)), 3)),
        _ => absd(acc.clone(), acc),
    }
}

fn random_env(rng: &mut Rng) -> Env {
    let mut env = Env::new();
    env.insert(Buffer2D::from_fn("in", U8, 96, 9, |_, _| rng.gen_range(0..=255)));
    env
}

#[test]
fn randomized_programs_agree_with_interpreter() {
    let rake = rake();
    let mut rng = Rng::seed_from_u64(2024);
    let mut compiled_count = 0;
    for _ in 0..12 {
        let e = random_stencil(&mut rng);
        if !halide_ir::analysis::is_qualifying(&e) {
            continue;
        }
        let baseline = halide_opt::select(&e, halide_opt::BaselineOptions::small(LANES))
            .expect("baseline covers stencils")
            .to_program();
        let compiled = match rake.compile(&e) {
            Ok(c) => c,
            Err(err) => panic!("rake failed on {e}: {err}"),
        };
        compiled_count += 1;
        let env = random_env(&mut rng);
        for x0 in [16i64, 24, 40] {
            let ctx = EvalCtx { env: &env, x0, y0: 4, lanes: LANES };
            let want = halide_ir::eval(&e, &ctx).expect("interpretable");
            let got_b = baseline.run(&env, x0, 4, LANES).expect("baseline runs");
            let got_r = compiled.program.run(&env, x0, 4, LANES).expect("rake runs");
            assert_eq!(got_b.typed_lanes(e.ty()), want, "baseline wrong for {e}");
            assert_eq!(got_r.typed_lanes(e.ty()), want, "rake wrong for {e}");
        }
    }
    assert!(compiled_count >= 8, "rake compiled only {compiled_count} stencils");
}

#[test]
fn rake_cost_never_exceeds_baseline() {
    let rake = rake();
    let model = CostModel::new(LANES, LANES);
    let mut rng = Rng::seed_from_u64(77);
    for _ in 0..10 {
        let e = random_stencil(&mut rng);
        let Ok(c) = rake.compile(&e) else { continue };
        let baseline = halide_opt::select(&e, halide_opt::BaselineOptions::small(LANES))
            .expect("covers")
            .to_program();
        let (cb, cr) = (model.cost(&baseline), model.cost(&c.program));
        assert!(
            cr <= cb,
            "rake ({cr:?}) costlier than baseline ({cb:?}) for {e}\nrake:\n{}\nbaseline:\n{baseline}",
            c.program
        );
    }
}

#[test]
fn pipeline_compiles_whole_sobel_workload() {
    let rake = rake();
    let sobel = workloads::by_name("sobel").expect("registered");
    let report = rake.compile_pipeline(&sobel.exprs);
    assert_eq!(report.optimized(), sobel.exprs.len());
    assert_eq!(report.failed, 0);
    assert!(report.stats.lifting_queries > 0);
    assert!(report.stats.total_time().as_nanos() > 0);
}

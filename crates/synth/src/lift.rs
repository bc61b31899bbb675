//! Algorithm 1: lifting Halide IR to the Uber-Instruction IR.
//!
//! The lifter walks the Halide expression bottom-up. At every node it
//! enumerates candidate uber-expressions built from the already-lifted
//! children by three rules — *update* (fold the new operation into an
//! existing uber-instruction's parameters, e.g. extending a `vs-mpy-add`
//! kernel), *replace* (swap the top uber-instruction for a different one,
//! e.g. `widen` → `vs-mpy-add`), and *extend* (wrap the children in a new
//! uber-instruction) — and keeps the first candidate the equivalence
//! oracle accepts. Each oracle call is one "lifting query" of Table 1.

use std::time::Instant;

use halide_ir::{BinOp, Expr, ScalarOperand, ShiftDir};
use lanes::ElemType;
use uber_ir::{UberExpr, VsMpyAdd, VvMpyAdd};

use crate::stats::SynthStats;
use crate::verify::Verifier;

/// Which rule produced a lifting step (Figure 9's "Rule" column).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LiftRule {
    /// Parameters of an existing uber-instruction were updated.
    Update,
    /// The top uber-instruction was replaced by a different one.
    Replace,
    /// A new uber-instruction was added on top.
    Extend,
}

/// One accepted step of the lifting run.
#[derive(Debug, Clone)]
pub struct LiftStep {
    /// The rule that fired.
    pub rule: LiftRule,
    /// The Halide sub-expression being lifted (rendered).
    pub halide: String,
    /// The accepted uber-expression (rendered).
    pub lifted: String,
}

/// The sequence of accepted steps — the demonstration of Figure 9.
#[derive(Debug, Clone, Default)]
pub struct LiftTrace {
    /// Steps in the order they were accepted.
    pub steps: Vec<LiftStep>,
}

/// Cap on `vs-mpy-add` kernel length; longer reductions are left nested.
const MAX_KERNEL: usize = 9;

/// The SMT encoder's headroom bound on `vs-mpy-add` kernel weights
/// (`encode_uber_lane` rejects |w| ≥ 2^12): lifting must never construct
/// a kernel the encoder cannot express, so weight-growing folds past this
/// bound are dropped and the general multiply path covers them instead.
const MAX_WEIGHT: i64 = 1 << 12;

struct Lifter<'a> {
    verifier: &'a Verifier,
    stats: &'a mut SynthStats,
    trace: LiftTrace,
    deadline: Option<Instant>,
    cancel: Option<crate::cancel::CancelFlag>,
    /// Cap on the lifting recursion depth: sub-expressions nested deeper
    /// than this fail to lift instead of spending the budget on a deep
    /// candidate search.
    max_depth: Option<usize>,
    depth: usize,
}

/// Lift a Halide IR expression into the Uber-Instruction IR.
///
/// Returns the lifted expression and the accepted-step trace, or `None`
/// when some sub-expression admits no verified candidate (the expression
/// is then left to the baseline code generator, as Rake does for
/// non-qualifying expressions).
pub fn lift_expr(
    e: &Expr,
    verifier: &Verifier,
    stats: &mut SynthStats,
) -> Option<(UberExpr, LiftTrace)> {
    lift_expr_cancellable(e, verifier, None, None, None, stats)
}

/// [`lift_expr`] under a cooperative wall-clock deadline, a cancellation
/// flag (see [`crate::cancel`]) and a recursion-depth cap. Once the
/// deadline passes or the flag is raised, the run stops at the next
/// candidate-screening check point and returns `None` with
/// [`SynthStats::deadline_exceeded`] set, so the caller knows the result
/// is "ran out of time", not "proved unliftable". `max_depth: Some(n)`
/// makes expressions nesting deeper than `n` fail as non-qualifying.
pub fn lift_expr_cancellable(
    e: &Expr,
    verifier: &Verifier,
    deadline: Option<Instant>,
    cancel: Option<crate::cancel::CancelFlag>,
    max_depth: Option<usize>,
    stats: &mut SynthStats,
) -> Option<(UberExpr, LiftTrace)> {
    let start = Instant::now();
    let mut sp = trace::span("lift", "synth");
    let queries_before = stats.lifting_queries;
    let mut lifter = Lifter {
        verifier,
        stats,
        trace: LiftTrace::default(),
        deadline,
        cancel,
        max_depth,
        depth: 0,
    };
    let result = lifter.lift(e);
    let trace = lifter.trace;
    stats.lifting_time += start.elapsed();
    if sp.is_active() {
        sp.arg("queries", stats.lifting_queries - queries_before);
        sp.arg("lifted", result.is_some());
        sp.arg("steps", trace.steps.len());
    }
    result.map(|u| (u, trace))
}

impl Lifter<'_> {
    fn lift(&mut self, e: &Expr) -> Option<UberExpr> {
        match e {
            Expr::Load(l) => {
                let u = UberExpr::Data(l.clone());
                self.accept_silently(e, LiftRule::Extend, "leaf.load", &u);
                Some(u)
            }
            Expr::Broadcast(b) => {
                let u = UberExpr::Bcast { value: ScalarOperand::Imm(b.value), ty: b.ty };
                self.accept_silently(e, LiftRule::Extend, "leaf.imm-broadcast", &u);
                Some(u)
            }
            Expr::BroadcastLoad(b) => {
                let u = UberExpr::Bcast {
                    value: ScalarOperand::Load { buffer: b.buffer.clone(), x: b.x, dy: b.dy },
                    ty: b.ty,
                };
                self.accept_silently(e, LiftRule::Extend, "leaf.scalar-broadcast", &u);
                Some(u)
            }
            _ => {
                if self.max_depth.is_some_and(|cap| self.depth >= cap) {
                    return None;
                }
                self.depth += 1;
                let kids: Option<Vec<UberExpr>> =
                    e.children().iter().map(|c| self.lift(c)).collect();
                self.depth -= 1;
                let kids = kids?;
                let cands = self.candidates(e, &kids);
                let mut sp = trace::span("lift.screen", "lift");
                if sp.is_active() {
                    sp.arg("depth", self.depth);
                    sp.arg("candidates", cands.len());
                }
                let Some(winner) = self.screen(e, &cands) else {
                    sp.arg("accepted", false);
                    return None;
                };
                let (rule, site, cand) =
                    cands.into_iter().nth(winner).expect("winner in range");
                sp.arg("rule", site);
                crate::coverage::record_rule(site);
                self.trace.push_step(rule, e, &cand);
                Some(cand)
            }
        }
    }

    /// Screen `cands` against the oracle and return the index of the
    /// first (in input order) accepted candidate.
    fn screen(
        &mut self,
        e: &Expr,
        cands: &[(LiftRule, &'static str, UberExpr)],
    ) -> Option<usize> {
        for (i, (_, _, cand)) in cands.iter().enumerate() {
            let expired = self.deadline.is_some_and(|deadline| Instant::now() >= deadline);
            if expired || crate::cancel::cancelled(self.cancel) {
                self.stats.deadline_exceeded = true;
                return None;
            }
            self.stats.lifting_queries += 1;
            if self.verifier.equiv_halide_uber(e, cand) {
                return Some(i);
            }
        }
        None
    }

    fn accept_silently(&mut self, e: &Expr, rule: LiftRule, site: &'static str, u: &UberExpr) {
        if trace::enabled() {
            // A zero-duration marker span: leaves cost no oracle time but
            // still count toward per-rule firing breakdowns.
            let mut sp = trace::span("lift.rule", "lift");
            sp.arg("rule", site);
            sp.arg("depth", self.depth);
        }
        crate::coverage::record_rule(site);
        self.trace.push_step(rule, e, u);
    }

    /// Candidate uber-expressions for `e` given lifted children, in
    /// decreasing preference (updates before replaces before extends).
    /// Each candidate carries the name of the rule site that produced it
    /// (the [`crate::coverage::RULES`] catalog) for coverage accounting.
    fn candidates(&self, e: &Expr, kids: &[UberExpr]) -> Vec<(LiftRule, &'static str, UberExpr)> {
        let ty = e.ty();
        let mut out: Vec<(LiftRule, &'static str, UberExpr)> = Vec::new();
        match e {
            Expr::Binary(b) => match b.op {
                BinOp::Add | BinOp::Sub => {
                    // Merge vector-vector dot products. An Update, so it
                    // precedes the vs-mpy combinations below — otherwise
                    // the weight-1 vs-mpy wrapping of the same two kids
                    // verifies first and the merged dot product (one
                    // accumulating vv-mpy chain instead of a multiply
                    // followed by a reduction) is never selected.
                    if b.op == BinOp::Add {
                        if let (UberExpr::VvMpyAdd(va), UberExpr::VvMpyAdd(vb)) =
                            (&kids[0], &kids[1])
                        {
                            if va.out == ty && vb.out == ty && !va.saturating && !vb.saturating
                            {
                                let mut pairs = va.pairs.clone();
                                pairs.extend(vb.pairs.clone());
                                out.push((
                                    LiftRule::Update,
                                    "add.vvmpy-merge",
                                    UberExpr::VvMpyAdd(VvMpyAdd {
                                        pairs,
                                        saturating: false,
                                        out: ty,
                                    }),
                                ));
                            }
                        }
                    }
                    let neg = if b.op == BinOp::Sub { -1 } else { 1 };
                    for (ra, oa) in absorb_options(&kids[0], ty, 1) {
                        for (rb, ob) in absorb_options(&kids[1], ty, neg) {
                            let mut inputs = oa.clone();
                            inputs.extend(ob.clone());
                            if inputs.len() > MAX_KERNEL {
                                continue;
                            }
                            let (rule, site) = if ra == LiftRule::Update || rb == LiftRule::Update
                            {
                                (LiftRule::Update, "addsub.vsmpy-update")
                            } else {
                                (LiftRule::Extend, "addsub.vsmpy-extend")
                            };
                            out.push((rule, site, mk_vsmpy(inputs, ty)));
                        }
                    }
                }
                BinOp::Mul => {
                    // Multiplication by an immediate broadcast folds into a
                    // vs-mpy-add weight (Figure 9 step 5, a Replace).
                    for (vec_side, bc_side) in [(0usize, 1usize), (1, 0)] {
                        if let UberExpr::Bcast { value: ScalarOperand::Imm(c), .. } =
                            &kids[bc_side]
                        {
                            if c.unsigned_abs() < MAX_WEIGHT.unsigned_abs() {
                                for (_, opt) in absorb_options(&kids[vec_side], ty, *c) {
                                    out.push((
                                        LiftRule::Replace,
                                        "mul.imm-weight-fold",
                                        mk_vsmpy(opt, ty),
                                    ));
                                }
                            }
                        }
                    }
                    // Vector-vector multiply with the widening casts peeled
                    // off: the hardware multiplies the narrow registers
                    // directly, so `widen(a) * widen(b)` lifts to a
                    // narrow-operand dot product.
                    let strip = |k: &UberExpr| match k {
                        UberExpr::Widen { arg, .. } => (**arg).clone(),
                        other => other.clone(),
                    };
                    let (sa, sb) = (strip(&kids[0]), strip(&kids[1]));
                    if (&sa, &sb) != (&kids[0], &kids[1]) {
                        out.push((
                            LiftRule::Replace,
                            "mul.widen-strip-vvmpy",
                            UberExpr::VvMpyAdd(VvMpyAdd {
                                pairs: vec![(sa, sb)],
                                saturating: false,
                                out: ty,
                            }),
                        ));
                    }
                    // General vector-vector multiply.
                    out.push((
                        LiftRule::Extend,
                        "mul.vvmpy-extend",
                        UberExpr::VvMpyAdd(VvMpyAdd {
                            pairs: vec![(kids[0].clone(), kids[1].clone())],
                            saturating: false,
                            out: ty,
                        }),
                    ));
                }
                BinOp::Min => out.push((
                    LiftRule::Extend,
                    "min.extend",
                    UberExpr::Min(Box::new(kids[0].clone()), Box::new(kids[1].clone())),
                )),
                BinOp::Max => out.push((
                    LiftRule::Extend,
                    "max.extend",
                    UberExpr::Max(Box::new(kids[0].clone()), Box::new(kids[1].clone())),
                )),
                BinOp::Absd => out.push((
                    LiftRule::Extend,
                    "absd.extend",
                    UberExpr::AbsDiff(Box::new(kids[0].clone()), Box::new(kids[1].clone())),
                )),
            },
            Expr::Shift(s) => match s.dir {
                ShiftDir::Left => {
                    // x << n == x * 2^n: fold into multiply-add weights
                    // (the `add` benchmark's optimization, Figure 12).
                    if s.amount < 12 {
                        for (_, opt) in absorb_options(&kids[0], ty, 1i64 << s.amount) {
                            out.push((LiftRule::Replace, "shl.weight-fold", mk_vsmpy(opt, ty)));
                        }
                    }
                    out.push((
                        LiftRule::Extend,
                        "shl.extend",
                        UberExpr::Shl { arg: Box::new(kids[0].clone()), amount: s.amount },
                    ));
                }
                ShiftDir::Right => {
                    // Averaging: (a + b [+1]) >> 1 == average(a, b); checked
                    // first since `vavg` is the cheapest implementation.
                    if s.amount == 1 {
                        out.extend(average_candidates(&kids[0], ty));
                    }
                    out.extend(self.narrow_candidates(&kids[0], s.amount, ty, false));
                }
            },
            Expr::Cast(c) => {
                let k = &kids[0];
                if c.to.bits() > k.ty().bits() {
                    // Widening cast: update a non-saturating multiply-add's
                    // output type (sum at full width), else extend.
                    if let UberExpr::VsMpyAdd(v) = k {
                        if !v.saturating {
                            let mut v2 = v.clone();
                            v2.out = c.to;
                            out.push((
                                LiftRule::Update,
                                "widen.vsmpy-output",
                                UberExpr::VsMpyAdd(v2),
                            ));
                        }
                    }
                    out.push((
                        LiftRule::Extend,
                        "widen.extend",
                        UberExpr::Widen { arg: Box::new(k.clone()), out: c.to },
                    ));
                } else {
                    out.extend(self.narrow_candidates(k, 0, c.to, c.saturating));
                }
            }
            Expr::Load(_) | Expr::Broadcast(_) | Expr::BroadcastLoad(_) => {}
        }
        out
    }

    /// Candidates for a right-shift-and/or-cast: fused `narrow` forms, with
    /// clamp stripping (saturation subsumes the min/max) and rounding-term
    /// stripping (the `+ (1 << (n-1))` input becomes the round flag).
    fn narrow_candidates(
        &self,
        k: &UberExpr,
        shift: u32,
        to: ElemType,
        cast_saturating: bool,
    ) -> Vec<(LiftRule, &'static str, UberExpr)> {
        let mut out = Vec::new();
        let mk = |arg: &UberExpr, shift, round, saturating| UberExpr::Narrow {
            arg: Box::new(arg.clone()),
            shift,
            round,
            saturating,
            out: to,
        };

        // A widen that is immediately narrowed back is the identity.
        if shift == 0 {
            if let UberExpr::Widen { arg, .. } = k {
                if arg.ty() == to {
                    out.push((LiftRule::Replace, "narrow.widen-identity", (**arg).clone()));
                }
            }
        }

        // Update an existing narrow: deepen the shift / change the output.
        if let UberExpr::Narrow { arg, shift: s0, round, saturating, out: _ } = k {
            out.push((LiftRule::Update, "narrow.deepen", mk(arg, s0 + shift, *round, true)));
            out.push((
                LiftRule::Update,
                "narrow.deepen",
                mk(arg, s0 + shift, *round, *saturating),
            ));
        }

        // Strip explicit clamps: saturation makes them redundant (the
        // camera_pipe case, Figure 12).
        for stripped in strip_clamps(k) {
            if let UberExpr::Narrow { arg, shift: s0, round, .. } = &stripped {
                out.push((
                    LiftRule::Replace,
                    "narrow.strip-clamp",
                    mk(arg, s0 + shift, *round, true),
                ));
            }
            out.push((LiftRule::Replace, "narrow.strip-clamp", mk(&stripped, shift, false, true)));
        }

        // Strip a rounding term: vs-mpy-add with a `+ 2^(n-1)` constant
        // input becomes round=true (the gaussian3x3 case).
        if shift > 0 {
            if let Some(stripped) = strip_rounding_term(k, shift) {
                // Prefer the fused saturating form (a single HVX
                // instruction) — valid whenever the value range fits, which
                // the oracle decides.
                out.push((
                    LiftRule::Update,
                    "narrow.strip-rounding",
                    mk(&stripped, shift, true, true),
                ));
                out.push((
                    LiftRule::Update,
                    "narrow.strip-rounding",
                    mk(&stripped, shift, true, false),
                ));
            }
        }

        // Plain fused shift-narrow; try the saturating form first (it is
        // the cheaper single instruction when provably equivalent).
        out.push((LiftRule::Extend, "narrow.fuse", mk(k, shift, false, true)));
        out.push((LiftRule::Extend, "narrow.fuse", mk(k, shift, false, cast_saturating)));
        // A narrow shifts at the *source* width, so a deepened shift that
        // reaches it is unrepresentable — and would panic the evaluators
        // during verification (found by oracle_fuzz on `(x >> 10) >> 7`
        // over u16). Drop such candidates; the shifts stay nested.
        out.retain(|(_, _, u)| match u {
            UberExpr::Narrow { arg, shift, .. } => *shift < arg.ty().bits(),
            _ => true,
        });
        out
    }
}

impl LiftTrace {
    fn push_step(&mut self, rule: LiftRule, e: &Expr, u: &UberExpr) {
        self.steps.push(LiftStep {
            rule,
            halide: e.to_string(),
            lifted: u.to_string().trim_end().to_owned(),
        });
    }
}

fn mk_vsmpy(terms: Vec<(UberExpr, i64)>, out: ElemType) -> UberExpr {
    let (inputs, kernel) = terms.into_iter().unzip();
    UberExpr::VsMpyAdd(VsMpyAdd { inputs, kernel, saturating: false, out })
}

/// Ways to express `k * mult` as weighted `vs-mpy-add` terms with output
/// type `out`. Flattened (merge) decompositions come first; the opaque
/// pass-through (weight on the whole value) last.
fn absorb_options(
    k: &UberExpr,
    out: ElemType,
    mult: i64,
) -> Vec<(LiftRule, Vec<(UberExpr, i64)>)> {
    let mut options = Vec::new();
    match k {
        UberExpr::Widen { arg, out: o } if *o == out => {
            options.push((LiftRule::Replace, vec![((**arg).clone(), mult)]));
        }
        UberExpr::VsMpyAdd(v) if v.out == out && !v.saturating => {
            let merged: Option<Vec<(UberExpr, i64)>> = v
                .inputs
                .iter()
                .cloned()
                .zip(v.kernel.iter().map(|w| w.checked_mul(mult)))
                .map(|(input, w)| w.map(|w| (input, w)))
                .collect();
            if let Some(merged) = merged {
                options.push((LiftRule::Update, merged));
            }
        }
        UberExpr::Shl { arg, amount } if k.ty() == out && *amount < 12 => {
            if let Some(shifted) = mult.checked_mul(1i64 << amount) {
                for (_, inner) in absorb_options(arg, out, shifted) {
                    options.push((LiftRule::Replace, inner));
                }
            }
        }
        _ => {}
    }
    if k.ty() == out {
        options.push((LiftRule::Extend, vec![(k.clone(), mult)]));
    }
    // Uphold the encoder's invariant: any fold whose weights left the
    // encodable range is discarded, not clamped.
    options.retain(|(_, terms)| terms.iter().all(|(_, w)| w.unsigned_abs() < MAX_WEIGHT.unsigned_abs()));
    options
}

/// Remove leading `min`/`max`-against-broadcast layers (clamps), innermost
/// variants last.
fn strip_clamps(k: &UberExpr) -> Vec<UberExpr> {
    let mut out = Vec::new();
    let mut cur = k;
    while let UberExpr::Max(a, b) | UberExpr::Min(a, b) = cur {
        let inner = if matches!(**b, UberExpr::Bcast { .. }) {
            a
        } else if matches!(**a, UberExpr::Bcast { .. }) {
            b
        } else {
            break;
        };
        out.push((**inner).clone());
        cur = inner;
    }
    out
}

/// If `k` is a `vs-mpy-add` containing a `+ 2^(shift-1)` constant-broadcast
/// term with weight 1, return it with that term removed.
fn strip_rounding_term(k: &UberExpr, shift: u32) -> Option<UberExpr> {
    let UberExpr::VsMpyAdd(v) = k else { return None };
    let rounding = 1i64 << (shift - 1);
    let pos = v.inputs.iter().zip(&v.kernel).position(|(input, &w)| {
        matches!(input, UberExpr::Bcast { value: ScalarOperand::Imm(c), .. } if c.checked_mul(w) == Some(rounding))
    })?;
    let mut v2 = v.clone();
    v2.inputs.remove(pos);
    v2.kernel.remove(pos);
    if v2.inputs.is_empty() {
        return None;
    }
    Some(UberExpr::VsMpyAdd(v2))
}

/// Candidates turning `(a + b [+ 1]) >> 1` into `average(a, b)`.
fn average_candidates(k: &UberExpr, ty: ElemType) -> Vec<(LiftRule, &'static str, UberExpr)> {
    let UberExpr::VsMpyAdd(v) = k else { return Vec::new() };
    if v.out != ty {
        return Vec::new();
    }
    let mut operands = Vec::new();
    let mut round = false;
    for (input, &w) in v.inputs.iter().zip(&v.kernel) {
        if w != 1 {
            return Vec::new();
        }
        if let UberExpr::Bcast { value: ScalarOperand::Imm(1), .. } = input {
            if round {
                return Vec::new();
            }
            round = true;
        } else {
            operands.push(input.clone());
        }
    }
    if operands.len() != 2 || operands[0].ty() != operands[1].ty() {
        return Vec::new();
    }
    let avg = UberExpr::Average {
        a: Box::new(operands[0].clone()),
        b: Box::new(operands[1].clone()),
        round,
    };
    let t = operands[0].ty();
    if t == ty {
        vec![(LiftRule::Replace, "shr.average", avg)]
    } else if t.bits() * 2 == ty.bits() {
        // Halving sum of widened operands: average at the narrow width,
        // then widen — `(u16(a) + u16(b) + 1) >> 1 == u16(vavg(a, b))`.
        vec![(
            LiftRule::Replace,
            "shr.average",
            UberExpr::Widen { arg: Box::new(avg), out: ty },
        )]
    } else {
        Vec::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use halide_ir::builder as hb;

    fn lift(e: &Expr) -> Option<UberExpr> {
        let verifier = Verifier::fast();
        let mut stats = SynthStats::default();
        lift_expr(e, &verifier, &mut stats).map(|(u, _)| u)
    }

    #[test]
    fn lifts_three_tap_row_to_single_vs_mpy_add() {
        // Figure 9: u16(in(x-1)) + u16(in(x))*2 + u16(in(x+1)).
        let t = |dx| hb::widen(hb::load("in", ElemType::U8, dx, 0));
        let e = hb::add(hb::add(t(-1), hb::mul(t(0), hb::bcast(2, ElemType::U16))), t(1));
        let u = lift(&e).expect("must lift");
        let UberExpr::VsMpyAdd(v) = &u else { panic!("got {u}") };
        assert_eq!(v.inputs.len(), 3);
        assert_eq!(v.kernel, vec![1, 2, 1]);
        assert!(v.inputs.iter().all(|i| matches!(i, UberExpr::Data(_))));
    }

    #[test]
    fn lift_trace_records_rules() {
        let t = |dx| hb::widen(hb::load("in", ElemType::U8, dx, 0));
        let e = hb::add(t(-1), hb::mul(t(0), hb::bcast(2, ElemType::U16)));
        let verifier = Verifier::fast();
        let mut stats = SynthStats::default();
        let (_, trace) = lift_expr(&e, &verifier, &mut stats).unwrap();
        assert!(stats.lifting_queries > 0);
        assert!(trace.steps.iter().any(|s| s.rule == LiftRule::Replace));
    }

    #[test]
    fn lifts_saturating_clamp_cast() {
        // u8(max(min(x, 255), 0)) over u16 -> narrow:sat.
        let x = hb::add(
            hb::widen(hb::load("in", ElemType::U8, 0, 0)),
            hb::widen(hb::load("in", ElemType::U8, 1, 0)),
        );
        let e = hb::cast(ElemType::U8, hb::clamp(x, 0, 255));
        let u = lift(&e).expect("must lift");
        let UberExpr::Narrow { saturating, shift, .. } = &u else { panic!("got {u}") };
        assert!(*saturating);
        assert_eq!(*shift, 0);
    }

    #[test]
    fn lifts_rounding_shift_to_fused_narrow() {
        // u8((sum + 8) >> 4) — the gaussian3x3 shape. The bounded range
        // makes the saturating fused form provably equivalent.
        let t = |dx| hb::widen(hb::load("in", ElemType::U8, dx, 0));
        let sum = hb::add(hb::add(t(-1), hb::mul(t(0), hb::bcast(2, ElemType::U16))), t(1));
        let e = hb::cast(ElemType::U8, hb::shr(hb::add(sum, hb::bcast(8, ElemType::U16)), 4));
        let u = lift(&e).expect("must lift");
        let UberExpr::Narrow { arg, shift, round, saturating, out } = &u else {
            panic!("got {u}")
        };
        assert_eq!((*shift, *round, *saturating, *out), (4, true, true, ElemType::U8));
        assert!(matches!(**arg, UberExpr::VsMpyAdd(_)));
    }

    #[test]
    fn lifts_shl_into_weight() {
        // i16(u8x) << 6 + bcast: the `add` benchmark fold (Figure 12).
        let e = hb::add(
            hb::shl(hb::cast(ElemType::I16, hb::load("in", ElemType::U8, 0, 0)), 6),
            hb::bcast(-64, ElemType::I16),
        );
        let u = lift(&e).expect("must lift");
        let UberExpr::VsMpyAdd(v) = &u else { panic!("got {u}") };
        assert!(v.kernel.contains(&64), "kernel {:?} should contain 64", v.kernel);
    }

    #[test]
    fn lifts_absd_and_max() {
        let t = |dx| hb::load("in", ElemType::U8, dx, 0);
        let e = hb::max(hb::absd(t(0), t(1)), t(2));
        let u = lift(&e).expect("must lift");
        assert!(matches!(u, UberExpr::Max(..)));
    }

    #[test]
    fn lifts_average_pattern() {
        // u8((u16(a) + u16(b) + 1) >> 1) -> average:rnd over u8? The
        // halving-add stays in u16 then narrows; check the shift-1 average
        // candidate at matching width: (a + b + 1) >> 1 over u16 values.
        let a = hb::widen(hb::load("a", ElemType::U8, 0, 0));
        let b = hb::widen(hb::load("b", ElemType::U8, 0, 0));
        let e = hb::shr(hb::add(hb::add(a, b), hb::bcast(1, ElemType::U16)), 1);
        let u = lift(&e).expect("must lift");
        match &u {
            UberExpr::Widen { arg, .. } => assert!(matches!(**arg, UberExpr::Average { round: true, .. })),
            // A narrow over the sum is also correct; average is preferred.
            other => panic!("expected average, got {other}"),
        }
    }

    #[test]
    fn lifts_runtime_scalar_multiply() {
        let e = hb::mul(
            hb::bcast_load("w", 3, 0, ElemType::U8),
            hb::load("in", ElemType::U8, 0, 0),
        );
        let u = lift(&e).expect("must lift");
        assert!(matches!(u, UberExpr::VvMpyAdd(_)));
    }

    #[test]
    fn depth_cap_fails_deep_expressions_but_keeps_shallow_ones() {
        // The three-tap row nests four operator levels; a cap of 2 must
        // reject it fast while a generous cap still lifts it.
        let t = |dx| hb::widen(hb::load("in", ElemType::U8, dx, 0));
        let e = hb::add(hb::add(t(-1), hb::mul(t(0), hb::bcast(2, ElemType::U16))), t(1));
        let verifier = Verifier::fast();
        let mut stats = SynthStats::default();
        assert!(lift_expr_cancellable(&e, &verifier, None, None, Some(2), &mut stats).is_none());
        assert!(!stats.deadline_exceeded, "a depth reject is not a timeout");
        let mut stats = SynthStats::default();
        assert!(lift_expr_cancellable(&e, &verifier, None, None, Some(16), &mut stats).is_some());
    }

    /// Found by `oracle_fuzz`: stacked right shifts must not deepen a
    /// fused narrow past the source width — `(x >> 10) >> 7` over u16
    /// built a shift-17 narrow that panicked the evaluators.
    #[test]
    fn stacked_right_shifts_do_not_overdeepen_narrow() {
        let e = hb::shr(hb::shr(hb::load("w", ElemType::U16, 0, 0), 10), 7);
        if let Some(u) = lift(&e) {
            fn narrow_ok(u: &UberExpr) -> bool {
                let own = match u {
                    UberExpr::Narrow { arg, shift, .. } => *shift < arg.ty().bits(),
                    _ => true,
                };
                own && u.children().iter().all(|c| narrow_ok(c))
            }
            assert!(narrow_ok(&u), "{u}");
        }
    }

    /// Found by `oracle_fuzz`: stacked left shifts compound multiply-add
    /// weights past the encoder's 2^12 headroom bound — `(x << 11) << 1`
    /// reached weight 4096 and panicked the SMT encoder. Such folds must
    /// be dropped, not constructed.
    #[test]
    fn compounded_shift_weights_stay_encodable() {
        let e = hb::shl(hb::shl(hb::load("w", ElemType::I16, 0, 0), 11), 1);
        if let Some(u) = lift(&e) {
            fn max_weight(u: &UberExpr) -> u64 {
                let own = match u {
                    UberExpr::VsMpyAdd(v) => {
                        v.kernel.iter().map(|w| w.unsigned_abs()).max().unwrap_or(0)
                    }
                    _ => 0,
                };
                u.children().iter().map(|c| max_weight(c)).max().unwrap_or(0).max(own)
            }
            assert!(max_weight(&u) < MAX_WEIGHT.unsigned_abs(), "{u}");
        }
    }
}

//! Algorithm 2: lowering the Uber-Instruction IR to HVX.
//!
//! Each uber-instruction owns a small *grammar* of concrete HVX templates
//! (the specialization §3.1 says lifting enables). The lowerer enumerates
//! template instantiations in increasing cost under a tightening upper
//! bound β, recursively lowering sub-expressions parameterized by the
//! intermediate data layout ℓ ∈ {natural, deinterleaved} (§5.1), and keeps
//! the cheapest candidate the oracle verifies. Cost is the cycle count the
//! VLIW scheduler gives the candidate (the quantity Figure 11 measures),
//! then the §6 per-resource counts. Candidates containing data movement
//! account their verification to the swizzling stage; pure compute
//! candidates to the sketching stage (Table 1's split).

use std::time::Instant;

use halide_ir::ScalarOperand;
use hvx::{CostModel, HvxExpr, Op, SlotBudget};
use lanes::{ElemType, FxHashMap};
use uber_ir::{UberExpr, VsMpyAdd, VvMpyAdd};

use crate::stats::SynthStats;
use crate::swizzle;
use crate::verify::Verifier;

/// Layout of a register-pair value (§5.1). Single-register values are
/// always [`Layout::Natural`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Layout {
    /// Lane `i` lives at natural position `i` (`lo` holds the first half).
    Natural,
    /// Even lanes in `lo`, odd lanes in `hi` — the layout widening
    /// instructions produce.
    Deinterleaved,
}

impl Layout {
    fn other(self) -> Layout {
        match self {
            Layout::Natural => Layout::Deinterleaved,
            Layout::Deinterleaved => Layout::Natural,
        }
    }
}

/// Knobs of the lowering search (the ablation switches of DESIGN.md).
#[derive(Debug, Clone, Copy)]
pub struct LoweringOptions {
    /// Halide-level vectorization width in lanes.
    pub lanes: usize,
    /// Machine register width in bytes.
    pub vec_bytes: usize,
    /// Keep searching after the first verified implementation, tightening
    /// the cost bound β (Algorithm 2's backtracking).
    pub backtrack: bool,
    /// Explore deinterleaved intermediate layouts.
    pub layouts: bool,
    /// Restrict vector loads to aligned addresses, synthesizing `valign`
    /// for unaligned windows.
    pub aligned_loads: bool,
    /// Cooperative wall-clock deadline. When set, the candidate loops
    /// stop issuing new equivalence queries once the instant passes and
    /// synthesis returns whatever it has (usually `None`), flagging
    /// [`SynthStats::deadline_exceeded`].
    pub deadline: Option<std::time::Instant>,
    /// Cooperative cancellation flag (see [`crate::cancel`]): checked at
    /// the same sites as the deadline, so a caller can stop an in-flight
    /// search early (e.g. the serving layer when a client disconnects).
    /// Cancellation reports as [`SynthStats::deadline_exceeded`] — like a
    /// deadline, it proves nothing about the tile.
    pub cancel: Option<crate::cancel::CancelFlag>,
    /// Cap on the lifting recursion depth: expressions nesting deeper
    /// than this fail to lift instead of burning the budget on a deep
    /// search. `None` imposes no cap.
    pub max_lift_depth: Option<usize>,
}

impl Default for LoweringOptions {
    fn default() -> LoweringOptions {
        LoweringOptions {
            lanes: 128,
            vec_bytes: 128,
            backtrack: true,
            layouts: true,
            aligned_loads: false,
            deadline: None,
            cancel: None,
            max_lift_depth: None,
        }
    }
}

/// A verified lowering of an uber-expression.
#[derive(Debug, Clone)]
pub struct Lowered {
    /// The concrete HVX expression.
    pub expr: HvxExpr,
    /// The layout its value is in.
    pub layout: Layout,
}

/// Lower an uber-expression to a natural-order HVX expression.
///
/// Returns `None` when no verified implementation exists within the
/// template grammars (the caller then leaves the expression to the
/// baseline code generator).
pub fn lower_expr(
    u: &UberExpr,
    verifier: &Verifier,
    opts: LoweringOptions,
    stats: &mut SynthStats,
) -> Option<HvxExpr> {
    let mut sp = trace::span("lower", "synth");
    let swizzles_before = stats.swizzling_queries;
    let sketches_before = stats.sketching_queries;
    let verifier =
        Verifier { lanes: opts.lanes, vec_bytes: opts.vec_bytes, ..verifier.clone() };
    let mut lw = Lowerer { verifier, opts, stats, memo: FxHashMap::default() };
    let best = lw.lower(u, Layout::Natural);
    if sp.is_active() {
        sp.arg("sketching_queries", stats.sketching_queries - sketches_before);
        sp.arg("swizzling_queries", stats.swizzling_queries - swizzles_before);
        sp.arg("lowered", best.is_some());
    }
    Some(best?.expr)
}

struct Lowerer<'a> {
    verifier: Verifier,
    opts: LoweringOptions,
    stats: &'a mut SynthStats,
    memo: FxHashMap<(UberExpr, Layout), Option<Lowered>>,
}

impl Lowerer<'_> {
    fn pair_sized(&self, ty: ElemType) -> bool {
        self.opts.lanes * ty.bytes() > self.opts.vec_bytes
    }

    /// Scheduled cycles first, then the §6 `(max, total, latency-sum)`
    /// tuple to break ties toward fewer and shorter instructions.
    fn cost(&self, e: &HvxExpr) -> (u64, u32, u32, u64) {
        let (lanes, vec_bytes) = (self.opts.lanes, self.opts.vec_bytes);
        let p = e.to_program();
        let cycles = p.schedule(lanes, vec_bytes, SlotBudget::hvx()).cycles;
        let (max, total, latency) = CostModel::new(lanes, vec_bytes).cost(&p);
        (cycles, max, total, latency)
    }

    fn lower(&mut self, e: &UberExpr, want: Layout) -> Option<Lowered> {
        let want = if self.pair_sized(e.ty()) { want } else { Layout::Natural };
        let key = (e.clone(), want);
        if let Some(cached) = self.memo.get(&key) {
            return cached.clone();
        }
        // Each candidate is costed once; the stable sort keeps equal-cost
        // candidates in template order.
        let mut cands: Vec<_> =
            self.templates(e, want).into_iter().map(|c| (self.cost(&c), c)).collect();
        cands.sort_by_key(|&(cost, _)| cost);
        let mut best: Option<Lowered> = None;
        let mut beta = (u64::MAX, u32::MAX, u32::MAX, u64::MAX);
        for (cost, cand) in cands {
            let expired = self.opts.deadline.is_some_and(|deadline| Instant::now() >= deadline);
            if expired || crate::cancel::cancelled(self.opts.cancel) {
                self.stats.deadline_exceeded = true;
                // Don't memoize: a later call with more time may succeed.
                return best;
            }
            if cost >= beta {
                continue;
            }
            let has_swizzle = contains_swizzle(&cand);
            let t0 = Instant::now();
            let ok = self.verifier.equiv_uber_hvx(e, &cand, want == Layout::Deinterleaved);
            let dt = t0.elapsed();
            if has_swizzle {
                self.stats.swizzling_queries += 1;
                self.stats.swizzling_time += dt;
            } else {
                self.stats.sketching_queries += 1;
                self.stats.sketching_time += dt;
            }
            if ok {
                beta = cost;
                best = Some(Lowered { expr: cand, layout: want });
                if !self.opts.backtrack {
                    break;
                }
            }
        }
        self.memo.insert(key, best.clone());
        best
    }

    /// Lower a child so its value arrives in `layout`, converting from the
    /// other layout when that is cheaper or the only option.
    fn child_in(&mut self, e: &UberExpr, layout: Layout) -> Option<HvxExpr> {
        let direct = self.lower(e, layout);
        if !self.opts.layouts || !self.pair_sized(e.ty()) {
            return direct.map(|l| l.expr);
        }
        let alt = self.lower(e, layout.other()).map(|l| {
            swizzle::to_layout(l.expr, layout.other(), layout, e.ty(), self.stats)
        });
        match (direct, alt) {
            (Some(d), Some(a)) => {
                Some(if self.cost(&d.expr) <= self.cost(&a) { d.expr } else { a })
            }
            (Some(d), None) => Some(d.expr),
            (None, a) => a,
        }
    }

    fn load(&mut self, l: &halide_ir::Load) -> HvxExpr {
        let lanes = self.opts.lanes;
        if self.opts.aligned_loads && l.dx.rem_euclid(lanes as i32) != 0 {
            // Synthesize the unaligned window from aligned loads with the
            // enumerative swizzle searcher (Figure 8's query).
            let spec: crate::envs::BufferSpec =
                [(l.buffer.clone(), l.ty)].into_iter().collect();
            let envs = crate::envs::test_envs(&spec, lanes * 4, 4, 2);
            let mut search = crate::swizzle_search::SwizzleSearch::new(
                &envs,
                crate::swizzle_search::SearchCtx {
                    x0: (lanes * 2) as i64,
                    y0: 1,
                    lanes,
                    vec_bytes: self.opts.vec_bytes,
                },
            );
            search.deadline = self.opts.deadline;
            search.cancel = self.opts.cancel;
            let target = HvxExpr::vmem(&l.buffer, l.ty, l.dx, l.dy);
            let base = l.dx.div_euclid(lanes as i32) * lanes as i32;
            let sources = vec![
                HvxExpr::vmem(&l.buffer, l.ty, base, l.dy),
                HvxExpr::vmem(&l.buffer, l.ty, base + lanes as i32, l.dy),
            ];
            if let Some(found) = search.synthesize(&target, &sources, l.ty, self.stats) {
                return found;
            }
            // Fall through to the closed-form recipe if the search was
            // exhausted.
        }
        swizzle::load_window(
            &l.buffer,
            l.ty,
            l.dx,
            l.dy,
            self.opts.lanes,
            self.opts.aligned_loads,
            self.stats,
        )
    }

    /// Fix up a produced layout to the requested one.
    fn finish(&mut self, e: HvxExpr, produced: Layout, want: Layout, ty: ElemType) -> HvxExpr {
        if !self.pair_sized(ty) || produced == want {
            e
        } else {
            swizzle::to_layout(e, produced, want, ty, self.stats)
        }
    }

    fn templates(&mut self, e: &UberExpr, want: Layout) -> Vec<HvxExpr> {
        let mut out = Vec::new();
        match e {
            UberExpr::Data(l) => {
                let base = self.load(l);
                let e2 = self.finish(base, Layout::Natural, want, l.ty);
                out.push(e2);
            }
            UberExpr::Bcast { value, ty } => {
                out.push(HvxExpr::op(Op::Vsplat { value: value.clone(), elem: *ty }, vec![]));
            }
            UberExpr::Widen { arg, out: oty } => {
                if !self.pair_sized(arg.ty()) {
                    if let Some(a) = self.child_in(arg, Layout::Natural) {
                        let w = HvxExpr::op(widen_op(arg.ty()), vec![a]);
                        out.push(self.finish(w, Layout::Deinterleaved, want, *oty));
                    }
                }
            }
            UberExpr::Shl { arg, amount } => {
                if let Some(a) = self.child_in(arg, want) {
                    out.push(HvxExpr::op(
                        Op::Vasl { elem: e.ty(), shift: *amount },
                        vec![a],
                    ));
                }
            }
            UberExpr::Min(a, b) | UberExpr::Max(a, b) | UberExpr::AbsDiff(a, b) => {
                let elem = e.ty();
                let op = match e {
                    UberExpr::Min(..) => Op::Vmin { elem },
                    UberExpr::Max(..) => Op::Vmax { elem },
                    _ => Op::Vabsdiff { elem },
                };
                if let (Some(la), Some(lb)) =
                    (self.child_in(a, want), self.child_in(b, want))
                {
                    out.push(HvxExpr::op(op, vec![la, lb]));
                }
            }
            UberExpr::Average { a, b, round } => {
                if let (Some(la), Some(lb)) =
                    (self.child_in(a, want), self.child_in(b, want))
                {
                    out.push(HvxExpr::op(
                        Op::Vavg { elem: e.ty(), round: *round },
                        vec![la, lb],
                    ));
                }
            }
            UberExpr::Narrow { arg, shift, round, saturating, out: oty } => {
                out.extend(self.narrow_templates(arg, *shift, *round, *saturating, *oty, want));
            }
            UberExpr::VsMpyAdd(v) => {
                out.extend(self.vtmpy_template(v, want));
                out.extend(self.vsmpy_chunks(v, want));
            }
            UberExpr::VvMpyAdd(v) => {
                out.extend(self.vvmpy_templates(v, want));
            }
        }
        out
    }

    fn narrow_templates(
        &mut self,
        arg: &UberExpr,
        shift: u32,
        round: bool,
        saturating: bool,
        oty: ElemType,
        want: Layout,
    ) -> Vec<HvxExpr> {
        let src = arg.ty();
        let mut out = Vec::new();
        if oty.bits() == src.bits() {
            // Pure shift right (with optional rounding add). Saturation
            // into the same type after an arithmetic shift is the
            // identity, so the plain shift covers both flag settings (the
            // oracle re-checks anyway).
            if let Some(a) = self.child_in(arg, want) {
                let base = if round && shift > 0 {
                    let splat = HvxExpr::vsplat_imm(1i64 << (shift - 1), src);
                    HvxExpr::op(Op::Vadd { elem: src, sat: false }, vec![a, splat])
                } else {
                    a
                };
                out.push(HvxExpr::op(Op::Vasr { elem: src, shift }, vec![base]));
            }
            return out;
        }
        if oty.bits() * 2 != src.bits() || !self.pair_sized(src) {
            return out;
        }
        // A same-width round-shift feeding this narrow fuses into one
        // `vasr`-narrow (our ISA's rnd form rounds with wrap-add, matching
        // the unfused Halide pattern bit for bit). The inner narrow's
        // saturation flag does not matter: saturating a shifted value into
        // its own type is the identity.
        if shift == 0 {
            if let UberExpr::Narrow { arg: inner, shift: s, round: r, out: mid, .. } = arg {
                if *mid == src && *s > 0 {
                    if let Some(a2) = self.child_in(inner, Layout::Deinterleaved) {
                        out.push(HvxExpr::op(
                            Op::VasrNarrow {
                                elem: src,
                                shift: *s,
                                round: *r,
                                sat: saturating,
                                out: oty,
                            },
                            vec![
                                HvxExpr::op(Op::Hi, vec![a2.clone()]),
                                HvxExpr::op(Op::Lo, vec![a2]),
                            ],
                        ));
                    }
                }
            }
        }

        // Halving narrow of a pair: the fused interleaving instructions.
        let Some(a) = self.child_in(arg, Layout::Deinterleaved) else { return out };
        let hi = HvxExpr::op(Op::Hi, vec![a.clone()]);
        let lo = HvxExpr::op(Op::Lo, vec![a.clone()]);
        if shift == 0 {
            out.push(HvxExpr::op(
                Op::Vpack { elem: src, sat: saturating, out: oty },
                vec![hi.clone(), lo.clone()],
            ));
            if !saturating {
                // Saturating pack is equally cheap and sometimes the only
                // real instruction; valid whenever the range fits.
                out.push(HvxExpr::op(
                    Op::Vpack { elem: src, sat: true, out: oty },
                    vec![hi, lo],
                ));
            }
        } else {
            for sat_flag in [saturating, true] {
                out.push(HvxExpr::op(
                    Op::VasrNarrow { elem: src, shift, round, sat: sat_flag, out: oty },
                    vec![hi.clone(), lo.clone()],
                ));
            }
            // Unfused baseline shape: rounding add + per-half shift, then a
            // truncating pack (what a pattern-matcher that misses the fused
            // form emits).
            if let Some(a_nat) = self.child_in(arg, Layout::Deinterleaved) {
                let base = if round {
                    let splat = HvxExpr::vsplat_imm(1i64 << (shift - 1), src);
                    HvxExpr::op(Op::Vadd { elem: src, sat: false }, vec![a_nat, splat])
                } else {
                    a_nat
                };
                let shifted = HvxExpr::op(Op::Vasr { elem: src, shift }, vec![base]);
                out.push(HvxExpr::op(
                    Op::Vpack { elem: src, sat: saturating, out: oty },
                    vec![
                        HvxExpr::op(Op::Hi, vec![shifted.clone()]),
                        HvxExpr::op(Op::Lo, vec![shifted]),
                    ],
                ));
            }
        }
        out
    }

    /// The sliding-window template: three consecutive loads with a
    /// `[w0, w1, 1]` kernel are one `vtmpy` (Figure 4a).
    fn vtmpy_template(&mut self, v: &VsMpyAdd, want: Layout) -> Vec<HvxExpr> {
        if v.saturating || v.inputs.len() != 3 {
            return Vec::new();
        }
        let loads: Option<Vec<&halide_ir::Load>> = v
            .inputs
            .iter()
            .map(|i| match i {
                UberExpr::Data(l) => Some(l),
                _ => None,
            })
            .collect();
        let Some(loads) = loads else { return Vec::new() };
        let t = loads[0].ty;
        if t.bits() > 16
            || t.bits() * 2 != v.out.bits()
            || !loads.iter().all(|l| l.buffer == loads[0].buffer && l.dy == loads[0].dy && l.ty == t)
        {
            return Vec::new();
        }
        let mut terms: Vec<(i32, i64)> =
            loads.iter().map(|l| l.dx).zip(v.kernel.iter().copied()).collect();
        terms.sort_by_key(|&(dx, _)| dx);
        let (d0, w0) = terms[0];
        let (d1, w1) = terms[1];
        let (d2, w2) = terms[2];
        if d1 != d0 + 1 || d2 != d0 + 2 || w2 != 1 || w0.abs() > 127 || w1.abs() > 127 {
            return Vec::new();
        }
        let a = swizzle::load_window(
            &loads[0].buffer,
            t,
            d0,
            loads[0].dy,
            self.opts.lanes,
            self.opts.aligned_loads,
            self.stats,
        );
        let b = swizzle::load_window(
            &loads[0].buffer,
            t,
            d0 + self.opts.lanes as i32,
            loads[0].dy,
            self.opts.lanes,
            self.opts.aligned_loads,
            self.stats,
        );
        let e = HvxExpr::op(Op::Vtmpy { elem: t, w0, w1 }, vec![a, b]);
        vec![self.finish(e, Layout::Deinterleaved, want, v.out)]
    }

    /// The general chunked decomposition: pick an accumulator base, then
    /// fold the remaining terms in with `vmpa.acc` / `vmpy.acc` /
    /// element-wise adds. Several base choices are generated; the cost
    /// bound picks the winner.
    fn vsmpy_chunks(&mut self, v: &VsMpyAdd, want: Layout) -> Vec<HvxExpr> {
        let out_ty = v.out;
        let terms: Vec<(UberExpr, i64)> =
            v.inputs.iter().cloned().zip(v.kernel.iter().copied()).collect();
        if terms.iter().any(|(_, w)| w.unsigned_abs() >= (1 << 12)) {
            return Vec::new();
        }
        let widening = terms
            .iter()
            .any(|(t, _)| !matches!(t, UberExpr::Bcast { .. }) && t.ty().bits() * 2 == out_ty.bits());
        if !widening {
            return self.same_width_chain(v, want);
        }
        // Classify terms.
        let mut narrow: Vec<(UberExpr, i64)> = Vec::new();
        let mut wide: Vec<(UberExpr, i64)> = Vec::new();
        let mut consts: Vec<i64> = Vec::new();
        for (t, w) in &terms {
            if let UberExpr::Bcast { value: ScalarOperand::Imm(c), .. } = t {
                consts.push(c * w);
            } else if t.ty().bits() * 2 == out_ty.bits() {
                narrow.push((t.clone(), *w));
            } else if t.ty().bits() == out_ty.bits() {
                wide.push((t.clone(), *w));
            } else {
                return Vec::new();
            }
        }
        if v.saturating {
            return Vec::new(); // saturating wide accumulation: no template
        }

        // Base choices: a unit-weight wide term, a unit-weight narrow term
        // via zero/sign-extension, or the first vmpa pair. Wide terms can
        // be folded in either layout (§5.1): staying deinterleaved avoids
        // a shuffle when the consumer narrows, converting to natural
        // avoids re-dealing wide values loaded from memory.
        let mut bases: Vec<(Option<usize>, Option<usize>)> = Vec::new(); // (wide base idx, narrow base idx)
        if let Some(i) = wide.iter().position(|(_, w)| *w == 1) {
            bases.push((Some(i), None));
        }
        if let Some(i) = narrow.iter().position(|(_, w)| *w == 1) {
            bases.push((None, Some(i)));
        }
        bases.push((None, None));
        let fold_layouts: &[Layout] = if wide.is_empty() || !self.opts.layouts {
            &[Layout::Deinterleaved]
        } else {
            &[Layout::Deinterleaved, Layout::Natural]
        };
        let mut variants = Vec::new();
        for &fl in fold_layouts {
            for &b in &bases {
                variants.push((b.0, b.1, fl));
            }
        }

        let mut cands = Vec::new();
        'variant: for (wbase, nbase, fold_layout) in variants {
            let mut acc: Option<HvxExpr> = None;
            let mut cur_layout = Layout::Deinterleaved;
            let mut narrow_rest: Vec<(UberExpr, i64)> = narrow.clone();
            let mut wide_rest: Vec<(UberExpr, i64)> = wide.clone();
            if let Some(i) = wbase {
                let (t, _) = wide_rest.remove(i);
                // With no narrow chunks, the whole chain can run in the
                // fold layout directly.
                let base_layout = if narrow_rest.is_empty() {
                    fold_layout
                } else {
                    Layout::Deinterleaved
                };
                let Some(b) = self.child_in(&t, base_layout) else { continue };
                acc = Some(b);
                cur_layout = base_layout;
            } else if let Some(i) = nbase {
                let (t, _) = narrow_rest.remove(i);
                let Some(b) = self.child_in(&t, Layout::Natural) else { continue };
                acc = Some(HvxExpr::op(widen_op(t.ty()), vec![b]));
            }
            // Fold narrow terms: pairs via vmpa, a leftover via vmpy.
            let mut i = 0;
            while i + 1 < narrow_rest.len() {
                let (ta, wa) = &narrow_rest[i];
                let (tb, wb) = &narrow_rest[i + 1];
                let elem = ta.ty();
                if tb.ty() != elem || wa.abs() > 127 || wb.abs() > 127 {
                    continue 'variant;
                }
                let (Some(la), Some(lb)) = (
                    self.child_in(ta, Layout::Natural),
                    self.child_in(tb, Layout::Natural),
                ) else {
                    continue 'variant;
                };
                acc = Some(match acc.take() {
                    None => HvxExpr::op(Op::Vmpa { elem, w0: *wa, w1: *wb }, vec![la, lb]),
                    Some(acc) => HvxExpr::op(
                        Op::VmpaAcc { elem, w0: *wa, w1: *wb },
                        vec![acc, la, lb],
                    ),
                });
                i += 2;
            }
            if i < narrow_rest.len() {
                let (t, w) = &narrow_rest[i];
                let elem = t.ty();
                let Some(l) = self.child_in(t, Layout::Natural) else { continue };
                acc = Some(match acc.take() {
                    None => HvxExpr::op(
                        Op::VmpyScalar { elem, scalar: ScalarOperand::Imm(*w) },
                        vec![l],
                    ),
                    Some(acc) => HvxExpr::op(
                        Op::VmpyAcc { elem, scalar: ScalarOperand::Imm(*w) },
                        vec![acc, l],
                    ),
                });
            }
            // Fold wide terms element-wise, in the chosen fold layout.
            if !wide_rest.is_empty() {
                if let Some(acc0) = acc.take() {
                    let converted = self.finish(acc0, cur_layout, fold_layout, out_ty);
                    acc = Some(converted);
                    cur_layout = fold_layout;
                }
            }
            for (t, w) in &wide_rest {
                let Some(mut l) = self.child_in(t, fold_layout) else {
                    continue 'variant;
                };
                let Some(acc0) = acc.take() else { continue 'variant };
                let op = match w {
                    1 => Op::Vadd { elem: out_ty, sat: false },
                    -1 => Op::Vsub { elem: out_ty, sat: false },
                    _ => {
                        l = HvxExpr::op(
                            Op::Vmpyi { elem: out_ty, scalar: ScalarOperand::Imm(*w) },
                            vec![l],
                        );
                        Op::Vadd { elem: out_ty, sat: false }
                    }
                };
                acc = Some(HvxExpr::op(op, vec![acc0, l]));
            }
            // Fold constants as one wide splat.
            let csum: i64 = consts.iter().sum();
            if csum != 0 || (!consts.is_empty() && acc.is_none()) {
                let splat = HvxExpr::vsplat_imm(out_ty.wrap(csum), out_ty);
                acc = Some(match acc.take() {
                    None => splat,
                    Some(acc) => {
                        HvxExpr::op(Op::Vadd { elem: out_ty, sat: false }, vec![acc, splat])
                    }
                });
            }
            if let Some(done) = acc {
                cands.push(self.finish(done, cur_layout, want, out_ty));
            }
        }
        cands
    }

    /// Non-widening chain: adds, subtracts and `vmpyi` at the output width.
    fn same_width_chain(&mut self, v: &VsMpyAdd, want: Layout) -> Vec<HvxExpr> {
        let out_ty = v.out;
        let mut terms: Vec<(UberExpr, i64)> =
            v.inputs.iter().cloned().zip(v.kernel.iter().copied()).collect();
        if terms
            .iter()
            .any(|(t, _)| !matches!(t, UberExpr::Bcast { .. }) && t.ty().bits() != out_ty.bits())
        {
            return Vec::new();
        }
        if v.saturating {
            if terms.len() == 2 && v.kernel == [1, 1] {
                let (Some(a), Some(b)) = (
                    self.child_in(&terms[0].0, want),
                    self.child_in(&terms[1].0, want),
                ) else {
                    return Vec::new();
                };
                return vec![HvxExpr::op(Op::Vadd { elem: out_ty, sat: true }, vec![a, b])];
            }
            return Vec::new();
        }
        // Unit weights first so the chain starts without a multiply.
        terms.sort_by_key(|(_, w)| w.abs() != 1);
        let mut acc: Option<HvxExpr> = None;
        for (t, w) in &terms {
            // Immediate broadcasts fold the weight into the splat.
            let (l, w) = if let UberExpr::Bcast { value: ScalarOperand::Imm(c), .. } = t {
                (HvxExpr::vsplat_imm(out_ty.wrap(c * w), out_ty), 1)
            } else {
                let Some(l) = self.child_in(t, want) else { return Vec::new() };
                (l, *w)
            };
            acc = Some(match (acc.take(), w) {
                (None, 1) => l,
                (None, -1) => {
                    let zero = HvxExpr::vsplat_imm(0, out_ty);
                    HvxExpr::op(Op::Vsub { elem: out_ty, sat: false }, vec![zero, l])
                }
                (None, w) => HvxExpr::op(
                    Op::Vmpyi { elem: out_ty, scalar: ScalarOperand::Imm(w) },
                    vec![l],
                ),
                (Some(acc), 1) => {
                    HvxExpr::op(Op::Vadd { elem: out_ty, sat: false }, vec![acc, l])
                }
                (Some(acc), -1) => {
                    HvxExpr::op(Op::Vsub { elem: out_ty, sat: false }, vec![acc, l])
                }
                (Some(acc), w) => HvxExpr::op(
                    Op::VmpyiAcc { elem: out_ty, scalar: ScalarOperand::Imm(w) },
                    vec![acc, l],
                ),
            });
        }
        acc.into_iter().collect()
    }

    fn vvmpy_templates(&mut self, v: &VvMpyAdd, want: Layout) -> Vec<HvxExpr> {
        if v.saturating || v.pairs.is_empty() {
            return Vec::new();
        }
        let mut cands = Vec::new();
        // Word × halfword (the l2norm shape): 32-bit splat times a 16-bit
        // vector producing 32-bit lanes.
        if v.pairs.len() == 1 && v.out.bits() == 32 {
            let (a, b) = &v.pairs[0];
            for (w, h) in [(a, b), (b, a)] {
                if w.ty().bits() == 32 && h.ty().bits() == 16 && !self.pair_sized(h.ty()) {
                    cands.extend(self.word_half_templates(w, h, want, v.out));
                }
            }
        }
        // Widening multiply chain, and the same chain split in two halves
        // summed by one add: each accumulate waits for the previous one, so
        // the halves can overlap in the schedule.
        if v.pairs.iter().all(|(a, b)| {
            let (na, nb) = (a.ty().bits(), b.ty().bits());
            na == nb && na * 2 == v.out.bits()
        }) {
            if let Some(chain) = self.widening_mul_chain(&v.pairs, v.out) {
                cands.push(self.finish(chain, Layout::Deinterleaved, want, v.out));
            }
            if v.pairs.len() >= 2 {
                let (left, right) = v.pairs.split_at(v.pairs.len() / 2);
                if let (Some(l), Some(r)) = (
                    self.widening_mul_chain(left, v.out),
                    self.widening_mul_chain(right, v.out),
                ) {
                    let sum = HvxExpr::op(Op::Vadd { elem: v.out, sat: false }, vec![l, r]);
                    cands.push(self.finish(sum, Layout::Deinterleaved, want, v.out));
                }
            }
        }
        cands
    }

    /// `vmpy`/`vmpy-acc` chain over `pairs`, in the deinterleaved layout
    /// widening multiplies produce.
    fn widening_mul_chain(
        &mut self,
        pairs: &[(UberExpr, UberExpr)],
        out: ElemType,
    ) -> Option<HvxExpr> {
        let mut acc: Option<HvxExpr> = None;
        for (a, b) in pairs {
            // Broadcast operands become vector-scalar multiplies.
            let (vecside, scalar) = match (a, b) {
                (UberExpr::Bcast { value, .. }, x) | (x, UberExpr::Bcast { value, .. }) => {
                    (x, Some(value.clone()))
                }
                _ => (a, None),
            };
            let elem = vecside.ty();
            let lx = self.child_in(vecside, Layout::Natural)?;
            acc = Some(match (acc.take(), scalar) {
                (None, Some(s)) => {
                    HvxExpr::op(Op::VmpyScalar { elem, scalar: s }, vec![lx])
                }
                (Some(acc), Some(s)) => {
                    HvxExpr::op(Op::VmpyAcc { elem, scalar: s }, vec![acc, lx])
                }
                (None, None) => {
                    let ly = self.child_in(b, Layout::Natural)?;
                    HvxExpr::op(Op::Vmpy { elem }, vec![lx, ly])
                }
                (Some(acc), None) => {
                    let ly = self.child_in(b, Layout::Natural)?;
                    let prod = HvxExpr::op(Op::Vmpy { elem }, vec![lx, ly]);
                    HvxExpr::op(Op::Vadd { elem: out, sat: false }, vec![acc, prod])
                }
            });
        }
        acc
    }

    /// `vmpyie`/`vmpyio` pairs for word × halfword products (Figure 12,
    /// l2norm). The `vmpyie` form multiplies *unsigned* even halfwords, so
    /// it is gated on a non-negativity proof; the baseline form shifts the
    /// even halfwords into odd position with `vaslw` instead.
    fn word_half_templates(
        &mut self,
        w: &UberExpr,
        h: &UberExpr,
        want: Layout,
        out_ty: ElemType,
    ) -> Vec<HvxExpr> {
        let Some(splat_pair) = self.child_in(w, Layout::Natural) else { return Vec::new() };
        // Scalar-register operand: one register's worth of the broadcast.
        let wreg = if self.pair_sized(w.ty()) {
            HvxExpr::op(Op::Lo, vec![splat_pair])
        } else {
            splat_pair
        };
        let Some(hreg) = self.child_in(h, Layout::Natural) else { return Vec::new() };
        let odd = HvxExpr::op(Op::Vmpyio, vec![wreg.clone(), hreg.clone()]);
        let mut cands = Vec::new();
        if self.verifier.proves_non_negative(h) {
            let even = HvxExpr::op(Op::Vmpyie, vec![wreg.clone(), hreg.clone()]);
            cands.push(self.finish(
                HvxExpr::op(Op::Vcombine, vec![odd.clone(), even]),
                Layout::Deinterleaved,
                want,
                out_ty,
            ));
        }
        let shifted = HvxExpr::op(Op::Vasl { elem: ElemType::I32, shift: 16 }, vec![hreg]);
        let even = HvxExpr::op(Op::Vmpyio, vec![wreg, shifted]);
        cands.push(self.finish(
            HvxExpr::op(Op::Vcombine, vec![odd, even]),
            Layout::Deinterleaved,
            want,
            out_ty,
        ));
        cands
    }
}

fn widen_op(t: ElemType) -> Op {
    if t.is_signed() {
        Op::Vsxt { elem: t }
    } else {
        Op::Vzxt { elem: t }
    }
}

fn contains_swizzle(e: &HvxExpr) -> bool {
    let op = e.root();
    (op.is_swizzle() && !matches!(op, Op::Vmem { .. } | Op::Vsplat { .. }))
        || e.args().iter().any(contains_swizzle)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::SynthStats;

    fn opts() -> LoweringOptions {
        LoweringOptions { lanes: 8, vec_bytes: 8, ..LoweringOptions::default() }
    }

    fn lower(u: &UberExpr) -> Option<HvxExpr> {
        let mut verifier = Verifier::fast();
        verifier.lanes = 8;
        let mut stats = SynthStats::default();
        lower_expr(u, &verifier, opts(), &mut stats)
    }

    fn count_op(e: &HvxExpr, f: &dyn Fn(&Op) -> bool) -> usize {
        usize::from(f(e.root())) + e.args().iter().map(|a| count_op(a, f)).sum::<usize>()
    }

    fn cycles(e: &HvxExpr) -> u64 {
        e.to_program().schedule(8, 8, SlotBudget::hvx()).cycles
    }

    /// `splat(w[k]) * in(x+k)`: one pair of the matmul / conv_nn dot
    /// product.
    fn scalar_pair(k: i32) -> (UberExpr, UberExpr) {
        (
            UberExpr::Bcast {
                value: ScalarOperand::Load { buffer: "w".into(), x: k, dy: 0 },
                ty: ElemType::U8,
            },
            UberExpr::Data(halide_ir::Load {
                buffer: "in".into(),
                dx: k,
                dy: 0,
                ty: ElemType::U8,
            }),
        )
    }

    #[test]
    fn three_tap_window_lowers_to_vtmpy() {
        let u = UberExpr::conv("in", ElemType::U8, -1, 0, &[1, 2, 1], ElemType::U16);
        let e = lower(&u).expect("must lower");
        assert!(
            count_op(&e, &|o| matches!(o, Op::Vtmpy { w0: 1, w1: 2, .. })) == 1,
            "expected a vtmpy, got:\n{e}"
        );
        // Natural-order output requires one shuffle after the vtmpy.
        assert_eq!(count_op(&e, &|o| matches!(o, Op::VshuffPair { .. })), 1);
    }

    #[test]
    fn column_sum_lowers_to_vmpa_acc_with_zxt_base() {
        // Loads differ in dy, so vtmpy does not apply: the winner is
        // vmpa.acc(vzxt(..), .., 2, 1) — Figure 4b.
        let mk = |dy| UberExpr::Data(halide_ir::Load {
            buffer: "in".into(),
            dx: 0,
            dy,
            ty: ElemType::U8,
        });
        let u = UberExpr::VsMpyAdd(VsMpyAdd {
            inputs: vec![mk(-1), mk(0), mk(1)],
            kernel: vec![1, 2, 1],
            saturating: false,
            out: ElemType::U16,
        });
        let e = lower(&u).expect("must lower");
        assert_eq!(count_op(&e, &|o| matches!(o, Op::VmpaAcc { .. })), 1, "got:\n{e}");
        assert_eq!(count_op(&e, &|o| matches!(o, Op::Vzxt { .. })), 1);
    }

    #[test]
    fn fused_narrow_lowers_to_vasr_narrow() {
        let wide = UberExpr::conv("in", ElemType::U8, -1, 0, &[1, 2, 1], ElemType::U16);
        let u = UberExpr::Narrow {
            arg: Box::new(wide),
            shift: 4,
            round: true,
            saturating: true,
            out: ElemType::U8,
        };
        let e = lower(&u).expect("must lower");
        assert_eq!(
            count_op(&e, &|o| matches!(o, Op::VasrNarrow { shift: 4, round: true, .. })),
            1,
            "got:\n{e}"
        );
        // The narrow consumes the deinterleaved pair directly: no shuffle.
        assert_eq!(count_op(&e, &|o| matches!(o, Op::VshuffPair { .. })), 0, "got:\n{e}");
    }

    #[test]
    fn widening_add_lowers_to_vmpy_acc() {
        // wide + widen(narrow) == vmpy-acc(wide, narrow, 1) — Figure 12,
        // average_pool. The fused form leaves its sum deinterleaved, so it
        // wins only where the consumer wants that layout; a natural
        // consumer would pay a deal before and a shuffle after it.
        let wide = UberExpr::Data(halide_ir::Load {
            buffer: "w".into(),
            dx: 0,
            dy: 0,
            ty: ElemType::U16,
        });
        let narrow = UberExpr::Data(halide_ir::Load {
            buffer: "n".into(),
            dx: 0,
            dy: 0,
            ty: ElemType::U8,
        });
        let u = UberExpr::VsMpyAdd(VsMpyAdd {
            inputs: vec![wide, narrow],
            kernel: vec![1, 1],
            saturating: false,
            out: ElemType::U16,
        });
        let mut stats = SynthStats::default();
        let mut lw = Lowerer {
            verifier: Verifier::fast(),
            opts: opts(),
            stats: &mut stats,
            memo: FxHashMap::default(),
        };
        let dealt = lw.lower(&u, Layout::Deinterleaved).expect("must lower").expr;
        assert_eq!(count_op(&dealt, &|o| matches!(o, Op::VmpyAcc { .. })), 1, "got:\n{dealt}");
        assert_eq!(cycles(&dealt), 5, "got:\n{dealt}");

        let e = lower(&u).expect("must lower");
        let fused = HvxExpr::op(
            Op::VshuffPair { elem: ElemType::U16 },
            vec![HvxExpr::op(
                Op::VmpyAcc { elem: ElemType::U8, scalar: ScalarOperand::Imm(1) },
                vec![
                    HvxExpr::op(
                        Op::VdealPair { elem: ElemType::U16 },
                        vec![HvxExpr::vmem("w", ElemType::U16, 0, 0)],
                    ),
                    HvxExpr::vmem("n", ElemType::U8, 0, 0),
                ],
            )],
        );
        assert!(
            cycles(&e) < cycles(&fused),
            "{} vs {} cycles, got:\n{e}",
            cycles(&e),
            cycles(&fused)
        );
    }

    #[test]
    fn saturating_add_lowers_to_vadd_sat() {
        let mk = |dx| UberExpr::Data(halide_ir::Load {
            buffer: "in".into(),
            dx,
            dy: 0,
            ty: ElemType::U8,
        });
        let u = UberExpr::VsMpyAdd(VsMpyAdd {
            inputs: vec![mk(0), mk(1)],
            kernel: vec![1, 1],
            saturating: true,
            out: ElemType::U8,
        });
        let e = lower(&u).expect("must lower");
        assert!(matches!(e.root(), Op::Vadd { sat: true, .. }), "got:\n{e}");
    }

    #[test]
    fn runtime_scalar_dot_uses_vmpy_acc_chain() {
        // sum_k splat(w[k]) * in(x+k): the matmul shape.
        let u = UberExpr::VvMpyAdd(VvMpyAdd {
            pairs: vec![scalar_pair(0), scalar_pair(1)],
            saturating: false,
            out: ElemType::U16,
        });
        let e = lower(&u).expect("must lower");
        assert_eq!(count_op(&e, &|o| matches!(o, Op::VmpyScalar { .. })), 1, "got:\n{e}");
        assert_eq!(count_op(&e, &|o| matches!(o, Op::VmpyAcc { .. })), 1, "got:\n{e}");
    }

    #[test]
    fn three_pair_dot_splits_its_accumulate_chain() {
        // conv_nn's shape: three dependent accumulates schedule longer
        // than two independent halves joined by one add.
        let u = UberExpr::VvMpyAdd(VvMpyAdd {
            pairs: vec![scalar_pair(0), scalar_pair(1), scalar_pair(2)],
            saturating: false,
            out: ElemType::U16,
        });
        let e = lower(&u).expect("must lower");
        let weight = |k| ScalarOperand::Load { buffer: "w".into(), x: k, dy: 0 };
        let load = |k| HvxExpr::vmem("in", ElemType::U8, k, 0);
        let mut chain =
            HvxExpr::op(Op::VmpyScalar { elem: ElemType::U8, scalar: weight(0) }, vec![load(0)]);
        for k in 1..3 {
            chain = HvxExpr::op(
                Op::VmpyAcc { elem: ElemType::U8, scalar: weight(k) },
                vec![chain, load(k)],
            );
        }
        let chain = HvxExpr::op(Op::VshuffPair { elem: ElemType::U16 }, vec![chain]);
        assert!(
            cycles(&e) < cycles(&chain),
            "{} vs {} cycles, got:\n{e}",
            cycles(&e),
            cycles(&chain)
        );
    }

    #[test]
    fn rounding_shift_under_a_cast_fuses_into_one_vasr_narrow() {
        // average_pool[1], uint8x((acc + 2) >> 2): lifting nests a
        // saturating same-width round-shift under a truncating narrow.
        let inner = UberExpr::Narrow {
            arg: Box::new(UberExpr::Data(halide_ir::Load {
                buffer: "acc".into(),
                dx: 0,
                dy: 0,
                ty: ElemType::U16,
            })),
            shift: 2,
            round: true,
            saturating: true,
            out: ElemType::U16,
        };
        let u = UberExpr::Narrow {
            arg: Box::new(inner),
            shift: 0,
            round: false,
            saturating: false,
            out: ElemType::U8,
        };
        let e = lower(&u).expect("must lower");
        assert!(
            matches!(e.root(), Op::VasrNarrow { shift: 2, round: true, sat: false, .. }),
            "got:\n{e}"
        );
        assert_eq!(count_op(&e, &|o| matches!(o, Op::Vadd { .. } | Op::Vasr { .. })), 0);
        let proving = Verifier { smt_lowering: true, ..Verifier::fast() };
        assert!(proving.equiv_uber_hvx(&u, &e, false), "got:\n{e}");
    }

    #[test]
    fn stats_count_queries() {
        let u = UberExpr::conv("in", ElemType::U8, -1, 0, &[1, 2, 1], ElemType::U16);
        let mut verifier = Verifier::fast();
        verifier.lanes = 8;
        let mut stats = SynthStats::default();
        lower_expr(&u, &verifier, opts(), &mut stats).unwrap();
        assert!(stats.sketching_queries + stats.swizzling_queries > 0);
    }
}

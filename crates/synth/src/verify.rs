//! The equivalence oracle.
//!
//! Candidates are screened by differential testing (the paper's §4.1
//! incremental pruning) over adversarial and randomized environments at
//! two vector widths. Lifting candidates that survive screening are
//! finally *proved* with a bit-vector SMT query over a symbolic tile
//! window (DESIGN.md documents this split of duties between testing and
//! proof).
//!
//! The oracle memoizes its hot path (on by default, [`Verifier::memoize`]):
//! test-environment families are built once per buffer signature (from
//! buffers the process generates once, see [`crate::envs`]), and SMT
//! outcomes are cached process-wide keyed by the offset-translated pair.
//! Each family also keeps a value memo: the values every Halide, uber and
//! HVX subexpression the oracle has evaluated took in each of its
//! environments, packed at element width. Screening is node-incremental
//! over it: a query evaluates only the nodes it has not seen, from its
//! children's stored values, and all three checks compare stored values.
//! A node that reads no buffer is lane-wise, so it steps once over the
//! concatenated lanes of all environments; a buffer read and an HVX
//! instruction step once per environment, and an uber vector load reuses
//! the value of the Halide load it equals. A repeated query therefore
//! costs value-memo reads and a proof-cache hit. Clones of a `Verifier` —
//! including the re-pinned clones the lowering stages make — share one
//! memo. `rake::Rake::compile` gives every compilation a fresh memo; only
//! the proof cache and the buffer table outlive it.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::{Duration, Instant};

use halide_ir::{Env, EvalCtx, EvalError, Expr, ScalarOperand};
use hvx::{ExecCtx, ExecError, HvxExpr, Op, Value, VecReg};
use lanes::{ElemType, FxHashMap, Vector};
use smt::Context;
use uber_ir::UberExpr;

use crate::encode::{encode_halide_lane, encode_uber_lane};
use crate::envs::{test_envs, BufferSpec};

/// Geometry of the differential test tile.
const MARGIN_X: i64 = 32;
const MARGIN_Y: i64 = 8;

/// The equivalence oracle used by all three synthesis stages.
#[derive(Debug, Clone)]
pub struct Verifier {
    /// Primary differential width in lanes.
    pub lanes: usize,
    /// Machine register width in bytes when executing HVX candidates.
    pub vec_bytes: usize,
    /// Secondary differential width (catches width-dependent bugs).
    pub alt_lanes: usize,
    /// Number of seeded-random environments (on top of the adversarial
    /// ones).
    pub random_envs: usize,
    /// Whether surviving lifting candidates are SMT-proved.
    pub use_smt: bool,
    /// Number of lanes included in the SMT query.
    pub smt_lanes: usize,
    /// CDCL conflict budget per SMT proof; beyond it the (already
    /// differential-tested) candidate is accepted without a proof.
    pub smt_conflict_budget: u64,
    /// Also prove lowering steps with the symbolic HVX executor (bounded
    /// to the target width; off by default — lowering is otherwise
    /// verified differentially).
    pub smt_lowering: bool,
    /// Memoize test-environment families, subexpression values and SMT
    /// proof outcomes across queries. Off reproduces the unmemoized path
    /// exactly (fresh families, whole-tree evaluation by the recursive
    /// interpreters and a proof per query); verdicts are identical either
    /// way.
    pub memoize: bool,
    /// Shared memo state (env families with their value memos, query
    /// counters).
    /// Clones share it; a fresh handle starts cold.
    pub memo: MemoHandle,
}

impl Default for Verifier {
    fn default() -> Verifier {
        Verifier {
            lanes: 16,
            vec_bytes: 16,
            alt_lanes: 8,
            random_envs: 10,
            use_smt: true,
            smt_lanes: 2,
            smt_conflict_budget: 50_000,
            smt_lowering: false,
            memoize: true,
            memo: MemoHandle::default(),
        }
    }
}

/// Point-in-time reading of the verifier's monotone query counters. Read
/// at the end of a compilation, whose memo started cold, it is that
/// compilation's work.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MemoSnapshot {
    /// SMT solver queries issued (counted with memoization on or off).
    pub smt_queries: u64,
    /// Nanoseconds spent inside SMT queries.
    pub smt_time_nanos: u64,
    /// Proof-cache hits: SMT queries answered by an earlier proof.
    pub proof_hits: u64,
    /// Env-cache hits.
    pub env_hits: u64,
}

impl MemoSnapshot {
    /// SMT time as a [`Duration`].
    pub fn smt_time(&self) -> Duration {
        Duration::from_nanos(self.smt_time_nanos)
    }
}

/// A memoized SMT proof outcome, keyed by the offset-translated canonical
/// pair (see [`Canon::proof`]): the solver's result is a function of the
/// term DAG alone, so translated copies of one query share one solve.
#[derive(PartialEq, Eq, Hash)]
struct ProofKey {
    smt_lanes: usize,
    budget: u64,
    h: Expr,
    u: UberExpr,
}

/// A compact, stable-within-a-run fingerprint of a proof key, used to
/// correlate repeated SMT queries in trace output without serializing
/// the full expression pair into every span.
fn proof_fingerprint(key: &ProofKey) -> String {
    use std::hash::{Hash, Hasher};
    let mut h = std::collections::hash_map::DefaultHasher::new();
    key.hash(&mut h);
    format!("{:016x}", h.finish())
}

/// The proof map is process-global rather than per-[`MemoHandle`]: the key
/// carries every proof-relevant parameter and the encoder and solver are
/// deterministic, so an outcome is a pure function of the key no matter
/// which compilation computed it. It is the only memo state that outlives
/// a compilation: the recurring stencil/matmul query shapes are proved
/// once per process. Hit counters stay per-handle (only storage is
/// shared).
fn global_proofs() -> &'static Mutex<HashMap<ProofKey, Option<bool>>> {
    static PROOFS: OnceLock<Mutex<HashMap<ProofKey, Option<bool>>>> = OnceLock::new();
    PROOFS.get_or_init(Mutex::default)
}

/// Env-cache key: (buffer signature, lanes, random env count).
type EnvKey = (BufferSpec, usize, usize);

#[derive(Default)]
struct MemoState {
    envs: Mutex<FxHashMap<EnvKey, Arc<Family>>>,
    smt_queries: AtomicU64,
    smt_nanos: AtomicU64,
    proof_hits: AtomicU64,
    env_hits: AtomicU64,
}

/// One test-environment family: the environments generated for a buffer
/// signature at one width, and the value memo over them.
struct Family {
    lanes: usize,
    envs: Vec<Env>,
    values: Mutex<ValueMemo>,
}

/// The values each subexpression evaluated over a family took, in every
/// one of its environments. `None` records an evaluation that failed (in
/// some environment): its parents fail too, and every check reading it is
/// false.
#[derive(Default)]
struct ValueMemo {
    halide: FxHashMap<Expr, Option<Arc<Lanes>>>,
    uber: FxHashMap<UberExpr, Option<Arc<Lanes>>>,
    /// Keyed by register width first: an HVX value depends on `vec_bytes`.
    hvx: FxHashMap<usize, FxHashMap<HvxExpr, Option<Arc<Regs>>>>,
}

/// A Halide or uber subexpression's lanes in every environment of a
/// family, packed at element width: environment `i` holds the
/// little-endian bytes `i * stride .. (i + 1) * stride`.
struct Lanes {
    ty: ElemType,
    bytes: Box<[u8]>,
}

impl Lanes {
    /// All environments' lanes, concatenated in environment order.
    fn whole(&self) -> Vector {
        Vector::from_le_bytes(self.ty, &self.bytes)
    }
}

/// An HVX subexpression's register bytes in every environment of a
/// family, each in natural order (a pair's `lo`, then its `hi`).
struct Regs {
    /// Byte length of a pair's `lo` register, or `None` for a single
    /// register. A value's shape does not depend on the data, so one
    /// serves every environment.
    lo: Option<usize>,
    bytes: Box<[u8]>,
}

impl Family {
    fn stride(&self, bytes: &[u8]) -> usize {
        bytes.len() / self.envs.len()
    }

    /// Evaluate `f` in every environment and pack the lanes; `None` as
    /// soon as one evaluation fails.
    fn pack_lanes(
        &self,
        mut f: impl FnMut(usize, &EvalCtx<'_>) -> Result<Vector, EvalError>,
    ) -> Option<Arc<Lanes>> {
        let mut bytes = Vec::new();
        let mut ty = None;
        for (i, env) in self.envs.iter().enumerate() {
            let ctx = EvalCtx { env, x0: MARGIN_X, y0: MARGIN_Y, lanes: self.lanes };
            let v = f(i, &ctx).ok()?;
            if i == 0 {
                bytes.reserve_exact(self.envs.len() * v.lanes() * v.ty().bytes());
            }
            v.extend_le_bytes(&mut bytes);
            ty = Some(v.ty());
        }
        Some(Arc::new(Lanes { ty: ty?, bytes: bytes.into_boxed_slice() }))
    }

    /// One step of a node that reads no buffer, over every environment at
    /// once. Such a node is lane-wise, so evaluating it once at `lanes ×
    /// envs` lanes over its children's [whole](Lanes::whole) values gives
    /// the bytes a step per environment would pack. The step sees no
    /// buffers: a buffer read routed here fails rather than reading one
    /// environment's cells.
    fn step_lanewise(
        &self,
        f: impl FnOnce(&EvalCtx<'_>) -> Result<Vector, EvalError>,
    ) -> Option<Arc<Lanes>> {
        let no_buffers = Env::new();
        let lanes = self.lanes * self.envs.len();
        let ctx = EvalCtx { env: &no_buffers, x0: MARGIN_X, y0: MARGIN_Y, lanes };
        let v = f(&ctx).ok()?;
        let mut bytes = Vec::new();
        v.extend_le_bytes(&mut bytes);
        Some(Arc::new(Lanes { ty: v.ty(), bytes: bytes.into_boxed_slice() }))
    }

    /// [`Family::pack_lanes`] for HVX values at register width `vec_bytes`.
    fn pack_regs(
        &self,
        vec_bytes: usize,
        mut f: impl FnMut(usize, &ExecCtx<'_>) -> Result<Value, ExecError>,
    ) -> Option<Arc<Regs>> {
        let mut bytes = Vec::new();
        let mut lo = None;
        for (i, env) in self.envs.iter().enumerate() {
            let ctx = ExecCtx { env, x0: MARGIN_X, y0: MARGIN_Y, lanes: self.lanes, vec_bytes };
            let v = f(i, &ctx).ok()?;
            if i == 0 {
                bytes.reserve_exact(self.envs.len() * v.len());
            }
            match &v {
                Value::Vec(r) => bytes.extend_from_slice(r.as_bytes()),
                Value::Pair(l, h) => {
                    lo = Some(l.len());
                    bytes.extend_from_slice(l.as_bytes());
                    bytes.extend_from_slice(h.as_bytes());
                }
            }
        }
        Some(Arc::new(Regs { lo, bytes: bytes.into_boxed_slice() }))
    }

    /// Environment `i`'s lanes of `v`.
    fn lanes_at(&self, v: &Lanes, i: usize) -> Vector {
        let stride = self.stride(&v.bytes);
        Vector::from_le_bytes(v.ty, &v.bytes[i * stride..(i + 1) * stride])
    }

    /// Environment `i`'s value of `v`.
    fn regs_at(&self, v: &Regs, i: usize) -> Value {
        let stride = self.stride(&v.bytes);
        let env = &v.bytes[i * stride..(i + 1) * stride];
        match v.lo {
            None => Value::Vec(VecReg::new(env.to_vec())),
            Some(lo) => {
                Value::Pair(VecReg::new(env[..lo].to_vec()), VecReg::new(env[lo..].to_vec()))
            }
        }
    }

    /// Whether `got` holds `expected`'s lanes, read as `out_ty`, in every
    /// environment — in [`deinterleaved_order`] when asked.
    fn regs_hold(
        &self,
        got: &Regs,
        expected: &Lanes,
        out_ty: ElemType,
        deinterleaved: bool,
    ) -> bool {
        if expected.ty != out_ty || got.bytes.len() != expected.bytes.len() {
            return false;
        }
        if !deinterleaved {
            return got.bytes == expected.bytes;
        }
        let stride = self.stride(&got.bytes);
        (0..self.envs.len()).all(|i| {
            let want = deinterleaved_order(&self.lanes_at(expected, i)).to_le_bytes();
            got.bytes[i * stride..(i + 1) * stride] == want[..]
        })
    }
}

/// The stored value of `c`, one of the children a one-node step was
/// handed alongside their values.
fn kid_values<'k, E, V>(kids: &'k [(&E, Arc<V>)], c: &E) -> &'k V {
    let (_, v) = kids
        .iter()
        .find(|(k, _)| std::ptr::eq(*k, c))
        .expect("a node step asks only for its own children");
    v
}

/// Recover a possibly-poisoned cache lock: the maps hold plain data whose
/// invariants hold between every insert, so a payload panicked elsewhere
/// (e.g. injected by the driver's chaos plane) must not cascade here.
fn lock<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// Shared handle to a verifier's memo state. Cloning shares the state;
/// `MemoHandle::default()` starts a fresh, cold memo, which is what
/// `rake::Rake::compile` does for every compilation.
#[derive(Clone, Default)]
pub struct MemoHandle(Arc<MemoState>);

impl std::fmt::Debug for MemoHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MemoHandle")
            .field("proofs", &lock(global_proofs()).len())
            .field("families", &lock(&self.0.envs).len())
            .field("smt_queries", &self.0.smt_queries.load(Ordering::Relaxed))
            .field("proof_hits", &self.0.proof_hits.load(Ordering::Relaxed))
            .finish()
    }
}

impl MemoHandle {
    fn lookup_proof(&self, key: &ProofKey) -> Option<Option<bool>> {
        let hit = lock(global_proofs()).get(key).copied();
        if hit.is_some() {
            self.0.proof_hits.fetch_add(1, Ordering::Relaxed);
        }
        hit
    }

    fn insert_proof(&self, key: ProofKey, outcome: Option<bool>) {
        lock(global_proofs()).insert(key, outcome);
    }

    fn record_smt(&self, elapsed: Duration) {
        self.0.smt_queries.fetch_add(1, Ordering::Relaxed);
        self.0.smt_nanos.fetch_add(elapsed.as_nanos() as u64, Ordering::Relaxed);
    }

    fn snapshot(&self) -> MemoSnapshot {
        MemoSnapshot {
            smt_queries: self.0.smt_queries.load(Ordering::Relaxed),
            smt_time_nanos: self.0.smt_nanos.load(Ordering::Relaxed),
            proof_hits: self.0.proof_hits.load(Ordering::Relaxed),
            env_hits: self.0.env_hits.load(Ordering::Relaxed),
        }
    }
}

fn add_halide_loads(e: &Expr, spec: &mut BufferSpec) {
    halide_ir::analysis::visit(e, &mut |n| match n {
        Expr::Load(l) => {
            spec.insert(l.buffer.clone(), l.ty);
        }
        Expr::BroadcastLoad(b) => {
            spec.insert(b.buffer.clone(), b.ty);
        }
        _ => {}
    });
}

fn add_uber_loads(e: &UberExpr, spec: &mut BufferSpec) {
    match e {
        UberExpr::Data(l) => {
            spec.insert(l.buffer.clone(), l.ty);
        }
        UberExpr::Bcast { value: ScalarOperand::Load { buffer, .. }, ty } => {
            spec.insert(buffer.clone(), *ty);
        }
        _ => {}
    }
    for c in e.children() {
        add_uber_loads(c, spec);
    }
}

fn add_hvx_loads(e: &HvxExpr, spec: &mut BufferSpec) {
    match e.root() {
        Op::Vmem { buffer, elem, .. } => {
            spec.insert(buffer.clone(), *elem);
        }
        Op::Vsplat { value: ScalarOperand::Load { buffer, .. }, elem } => {
            spec.insert(buffer.clone(), *elem);
        }
        _ => {}
    }
    for a in e.args() {
        add_hvx_loads(a, spec);
    }
}

/// A joint rewrite of a (Halide, uber) query pair that canonicalizes its
/// proof-cache key: buffer alpha-renaming with per-buffer uniform offset
/// translation.
#[derive(Default)]
struct Canon {
    /// Buffer → canonical name (`b0`, `b1`, ... in first-appearance order
    /// over the Halide expression, then the candidate).
    names: HashMap<String, String>,
    /// Buffer → (min dx, min dy) over its vector loads on both sides;
    /// subtracted so the minimum becomes 0.
    load_shift: HashMap<String, (i32, i32)>,
    /// Buffer → (min x, min dy) over its scalar reads on both sides.
    scalar_shift: HashMap<String, (i32, i32)>,
}

impl Canon {
    /// Alpha-renaming plus per-buffer offset translation. This preserves
    /// the *SMT* verdict exactly — the encoder names a load variable by
    /// `(buffer, dx + lane, dy)` and a scalar by `(buffer, x, dy)`, so a
    /// uniform per-buffer shift yields the identical term DAG, identical
    /// CNF, and the identical solver trajectory (including budget
    /// exhaustion). It does NOT preserve differential verdicts (concrete
    /// test data varies by offset), so it keys [`ProofKey`] only.
    fn proof(h: &Expr, u: &UberExpr) -> Canon {
        let mut canon = Canon::default();
        canon.collect_names(h, u);
        let mut note_load = |buffer: &str, dx: i32, dy: i32| {
            let e = canon.load_shift.entry(buffer.to_owned()).or_insert((dx, dy));
            e.0 = e.0.min(dx);
            e.1 = e.1.min(dy);
        };
        let mut note_scalar_shifts: Vec<(String, i32, i32)> = Vec::new();
        halide_ir::analysis::visit(h, &mut |n| match n {
            Expr::Load(l) => note_load(&l.buffer, l.dx, l.dy),
            Expr::BroadcastLoad(b) => note_scalar_shifts.push((b.buffer.clone(), b.x, b.dy)),
            _ => {}
        });
        visit_uber(u, &mut |n| match n {
            UberExpr::Data(l) => note_load(&l.buffer, l.dx, l.dy),
            UberExpr::Bcast { value: ScalarOperand::Load { buffer, x, dy }, .. } => {
                note_scalar_shifts.push((buffer.clone(), *x, *dy));
            }
            _ => {}
        });
        for (buffer, x, dy) in note_scalar_shifts {
            let e = canon.scalar_shift.entry(buffer).or_insert((x, dy));
            e.0 = e.0.min(x);
            e.1 = e.1.min(dy);
        }
        canon
    }

    fn collect_names(&mut self, h: &Expr, u: &UberExpr) {
        let mut order: Vec<String> = Vec::new();
        let mut note = |name: &str| {
            if !order.iter().any(|n| n == name) {
                order.push(name.to_owned());
            }
        };
        halide_ir::analysis::visit(h, &mut |n| match n {
            Expr::Load(l) => note(&l.buffer),
            Expr::BroadcastLoad(b) => note(&b.buffer),
            _ => {}
        });
        visit_uber(u, &mut |n| match n {
            UberExpr::Data(l) => note(&l.buffer),
            UberExpr::Bcast { value: ScalarOperand::Load { buffer, .. }, .. } => note(buffer),
            _ => {}
        });
        self.names =
            order.into_iter().enumerate().map(|(i, n)| (n, format!("b{i}"))).collect();
    }

    fn name(&self, n: &str) -> String {
        self.names.get(n).cloned().unwrap_or_else(|| n.to_owned())
    }

    fn load(&self, l: &halide_ir::Load) -> halide_ir::Load {
        let (sx, sy) = self.load_shift.get(&l.buffer).copied().unwrap_or((0, 0));
        halide_ir::Load {
            buffer: self.name(&l.buffer),
            dx: l.dx - sx,
            dy: l.dy - sy,
            ty: l.ty,
        }
    }

    fn scalar(&self, buffer: &str, x: i32, dy: i32) -> ScalarOperand {
        let (sx, sy) = self.scalar_shift.get(buffer).copied().unwrap_or((0, 0));
        ScalarOperand::Load { buffer: self.name(buffer), x: x - sx, dy: dy - sy }
    }

    fn halide(&self, e: &Expr) -> Expr {
        use halide_ir::{Binary, Cast, Shift};
        match e {
            Expr::Load(l) => Expr::Load(self.load(l)),
            Expr::Broadcast(b) => Expr::Broadcast(b.clone()),
            Expr::BroadcastLoad(b) => {
                let ScalarOperand::Load { buffer, x, dy } = self.scalar(&b.buffer, b.x, b.dy)
                else {
                    unreachable!("scalar() always returns a load")
                };
                Expr::BroadcastLoad(halide_ir::BroadcastLoad { buffer, x, dy, ty: b.ty })
            }
            Expr::Cast(c) => Expr::Cast(Cast {
                to: c.to,
                saturating: c.saturating,
                arg: Box::new(self.halide(&c.arg)),
            }),
            Expr::Binary(b) => Expr::Binary(Binary {
                op: b.op,
                lhs: Box::new(self.halide(&b.lhs)),
                rhs: Box::new(self.halide(&b.rhs)),
            }),
            Expr::Shift(s) => Expr::Shift(Shift {
                dir: s.dir,
                amount: s.amount,
                arg: Box::new(self.halide(&s.arg)),
            }),
        }
    }

    fn uber(&self, u: &UberExpr) -> UberExpr {
        use uber_ir::{VsMpyAdd, VvMpyAdd};
        let r = |c: &UberExpr| Box::new(self.uber(c));
        match u {
            UberExpr::Data(l) => UberExpr::Data(self.load(l)),
            UberExpr::Bcast { value: ScalarOperand::Load { buffer, x, dy }, ty } => {
                UberExpr::Bcast { value: self.scalar(buffer, *x, *dy), ty: *ty }
            }
            UberExpr::Bcast { value, ty } => UberExpr::Bcast { value: value.clone(), ty: *ty },
            UberExpr::VsMpyAdd(v) => UberExpr::VsMpyAdd(VsMpyAdd {
                inputs: v.inputs.iter().map(|i| self.uber(i)).collect(),
                kernel: v.kernel.clone(),
                saturating: v.saturating,
                out: v.out,
            }),
            UberExpr::VvMpyAdd(v) => UberExpr::VvMpyAdd(VvMpyAdd {
                pairs: v.pairs.iter().map(|(a, b)| (self.uber(a), self.uber(b))).collect(),
                saturating: v.saturating,
                out: v.out,
            }),
            UberExpr::AbsDiff(a, b) => UberExpr::AbsDiff(r(a), r(b)),
            UberExpr::Min(a, b) => UberExpr::Min(r(a), r(b)),
            UberExpr::Max(a, b) => UberExpr::Max(r(a), r(b)),
            UberExpr::Average { a, b, round } => {
                UberExpr::Average { a: r(a), b: r(b), round: *round }
            }
            UberExpr::Narrow { arg, shift, round, saturating, out } => UberExpr::Narrow {
                arg: r(arg),
                shift: *shift,
                round: *round,
                saturating: *saturating,
                out: *out,
            },
            UberExpr::Widen { arg, out } => UberExpr::Widen { arg: r(arg), out: *out },
            UberExpr::Shl { arg, amount } => UberExpr::Shl { arg: r(arg), amount: *amount },
        }
    }
}

fn visit_uber(u: &UberExpr, f: &mut impl FnMut(&UberExpr)) {
    f(u);
    for c in u.children() {
        visit_uber(c, f);
    }
}

/// Rearrange natural-order lanes into deinterleaved pair order (even lanes
/// first, then odd) — the layout a widening HVX instruction leaves a pair
/// in, flattened to natural register order `lo ++ hi`.
pub fn deinterleaved_order(v: &Vector) -> Vector {
    let n = v.lanes();
    Vector::from_fn(v.ty(), n, |i| {
        if i < n / 2 {
            v.get(2 * i)
        } else {
            v.get(2 * (i - n / 2) + 1)
        }
    })
}

impl Verifier {
    /// A verifier with small widths for fast unit tests.
    pub fn fast() -> Verifier {
        Verifier {
            lanes: 8,
            vec_bytes: 8,
            alt_lanes: 4,
            random_envs: 6,
            use_smt: true,
            smt_lanes: 2,
            smt_conflict_budget: 50_000,
            smt_lowering: false,
            ..Verifier::default()
        }
    }

    /// Current reading of the monotone query counters (SMT queries, SMT
    /// time, cache hits). Counted with memoization on or off.
    pub fn memo_snapshot(&self) -> MemoSnapshot {
        self.memo.snapshot()
    }

    /// The environment family for `spec` at `lanes`: memoized with its
    /// value memo, or generated fresh (and left empty) when memoization
    /// is off.
    fn family(&self, spec: &BufferSpec, lanes: usize) -> Arc<Family> {
        let width = lanes + 2 * MARGIN_X as usize;
        let height = 2 * MARGIN_Y as usize + 1;
        let generate = || {
            let envs = test_envs(spec, width, height, self.random_envs);
            Arc::new(Family { lanes, envs, values: Mutex::default() })
        };
        if !self.memoize {
            return generate();
        }
        let key = (spec.clone(), lanes, self.random_envs);
        if let Some(family) = lock(&self.memo.0.envs).get(&key) {
            self.memo.0.env_hits.fetch_add(1, Ordering::Relaxed);
            return Arc::clone(family);
        }
        let family = generate();
        Arc::clone(lock(&self.memo.0.envs).entry(key).or_insert(family))
    }

    /// The values of `e` over `family`. Memoized, only the nodes the value
    /// memo has not seen are evaluated: a buffer read by one step per
    /// environment, any other node by one [lane-wise
    /// step](Family::step_lanewise) from its children's stored values.
    /// Unmemoized, the recursive interpreter evaluates the whole tree and
    /// nothing is kept.
    fn halide_values(&self, family: &Family, e: &Expr) -> Option<Arc<Lanes>> {
        if !self.memoize {
            return family.pack_lanes(|_, ctx| halide_ir::eval(e, ctx));
        }
        if let Some(hit) = lock(&family.values).halide.get(e) {
            return hit.clone();
        }
        let values = match e {
            Expr::Load(_) | Expr::BroadcastLoad(_) => {
                family.pack_lanes(|_, ctx| halide_ir::eval(e, ctx))
            }
            _ => {
                let kids: Option<Vec<(&Expr, Arc<Lanes>)>> = e
                    .children()
                    .into_iter()
                    .map(|c| Some((c, self.halide_values(family, c)?)))
                    .collect();
                kids.and_then(|kids| {
                    family.step_lanewise(|ctx| {
                        halide_ir::eval_with(e, ctx, |c| Ok(kid_values(&kids, c).whole()))
                    })
                })
            }
        };
        lock(&family.values).halide.insert(e.clone(), values.clone());
        values
    }

    /// [`Verifier::halide_values`] for an uber-expression. A vector load
    /// takes the value of the Halide load with the same buffer, offsets
    /// and type, so each load is read once per family.
    fn uber_values(&self, family: &Family, u: &UberExpr) -> Option<Arc<Lanes>> {
        if !self.memoize {
            return family.pack_lanes(|_, ctx| uber_ir::eval_uber(u, ctx));
        }
        if let Some(hit) = lock(&family.values).uber.get(u) {
            return hit.clone();
        }
        let values = match u {
            UberExpr::Data(l) => self.halide_values(family, &Expr::Load(l.clone())),
            UberExpr::Bcast { value: ScalarOperand::Load { .. }, .. } => {
                family.pack_lanes(|_, ctx| uber_ir::eval_uber(u, ctx))
            }
            _ => {
                let kids: Option<Vec<(&UberExpr, Arc<Lanes>)>> = u
                    .children()
                    .into_iter()
                    .map(|c| Some((c, self.uber_values(family, c)?)))
                    .collect();
                kids.and_then(|kids| {
                    family.step_lanewise(|ctx| {
                        uber_ir::eval_uber_with(u, ctx, |c| Ok(kid_values(&kids, c).whole()))
                    })
                })
            }
        };
        lock(&family.values).uber.insert(u.clone(), values.clone());
        values
    }

    /// [`Verifier::halide_values`] for an HVX expression, executed at this
    /// verifier's register width.
    fn hvx_values(&self, family: &Family, h: &HvxExpr) -> Option<Arc<Regs>> {
        if !self.memoize {
            return family.pack_regs(self.vec_bytes, |_, ctx| h.eval_ctx(ctx));
        }
        let hit = lock(&family.values).hvx.get(&self.vec_bytes).and_then(|m| m.get(h).cloned());
        if let Some(hit) = hit {
            return hit;
        }
        let kids: Option<Vec<Arc<Regs>>> =
            h.args().iter().map(|a| self.hvx_values(family, a)).collect();
        let values = kids.and_then(|kids| {
            family.pack_regs(self.vec_bytes, |i, ctx| {
                let args: Vec<Value> = kids.iter().map(|k| family.regs_at(k, i)).collect();
                hvx::eval_op(h.root(), &args, ctx)
            })
        });
        lock(&family.values)
            .hvx
            .entry(self.vec_bytes)
            .or_default()
            .insert(h.clone(), values.clone());
        values
    }

    /// Differential + SMT equivalence of a Halide expression and an
    /// uber-expression (the lifting oracle).
    pub fn equiv_halide_uber(&self, h: &Expr, u: &UberExpr) -> bool {
        if h.ty() != u.ty() {
            return false;
        }
        let mut spec = BufferSpec::new();
        add_halide_loads(h, &mut spec);
        add_uber_loads(u, &mut spec);
        for &lanes in &[self.lanes, self.alt_lanes] {
            let family = self.family(&spec, lanes);
            let (Some(a), Some(b)) = (self.halide_values(&family, h), self.uber_values(&family, u))
            else {
                return false;
            };
            if a.ty != b.ty || a.bytes != b.bytes {
                return false;
            }
        }
        if self.use_smt {
            return self.smt_equiv(h, u);
        }
        true
    }

    fn smt_equiv(&self, h: &Expr, u: &UberExpr) -> bool {
        let mut sp = trace::span("verify.smt_equiv", "smt");
        // The proof cache keys on the translation-canonicalized pair: the
        // encoder names variables by per-buffer relative offsets, so two
        // queries that differ only in a uniform per-buffer shift produce
        // the same term DAG and hence the same proof outcome (including
        // budget exhaustion). The stencil workloads hit this constantly —
        // every row of a separable filter is a dy-translation of the rest.
        let key = self.memoize.then(|| {
            let canon = Canon::proof(h, u);
            ProofKey {
                smt_lanes: self.smt_lanes,
                budget: self.smt_conflict_budget,
                h: canon.halide(h),
                u: canon.uber(u),
            }
        });
        if sp.is_active() {
            if let Some(k) = key.as_ref() {
                sp.arg("proof_key", proof_fingerprint(k));
            }
        }
        if let Some(hit) = key.as_ref().and_then(|k| self.memo.lookup_proof(k)) {
            sp.arg("path", "proof-cache");
            sp.arg("proof_cache", "hit");
            return hit.unwrap_or(true);
        }
        let t0 = Instant::now();
        let build = |ctx: &mut Context| {
            let mut sp = trace::span("verify.encode", "verify");
            let mut any_ne = ctx.ff();
            for lane in 0..self.smt_lanes {
                let th = encode_halide_lane(ctx, h, lane);
                let tu = encode_uber_lane(ctx, u, lane);
                let ne = ctx.ne(th, tu);
                any_ne = ctx.or(any_ne, ne);
            }
            sp.arg("lanes", self.smt_lanes);
            Some(any_ne)
        };
        let result = smt::prove_unsat(build, self.smt_conflict_budget);
        self.memo.record_smt(t0.elapsed());
        if sp.is_active() {
            sp.arg("path", "solve");
            sp.arg("proof_cache", "miss");
            sp.arg(
                "outcome",
                match result {
                    Some(true) => "unsat",
                    Some(false) => "sat",
                    None => "unknown",
                },
            );
        }
        if let Some(key) = key {
            self.memo.insert_proof(key, result);
        }
        // Proof effort exhausted: fall back on the differential evidence
        // that already screened this candidate (documented in DESIGN.md's
        // verification-strategy table).
        result.unwrap_or(true)
    }

    /// Differential equivalence of an uber-expression and a lowered HVX
    /// expression (the sketch/swizzle oracle). `deinterleaved` states the
    /// layout the HVX value is expected in.
    pub fn equiv_uber_hvx(&self, u: &UberExpr, h: &HvxExpr, deinterleaved: bool) -> bool {
        let mut spec = BufferSpec::new();
        add_uber_loads(u, &mut spec);
        add_hvx_loads(h, &mut spec);
        // Lowered code is width-specific (sliding-window operands embed the
        // vector length), so only the target width is meaningful here.
        let family = self.family(&spec, self.lanes);
        let Some(expected) = self.uber_values(&family, u) else { return false };
        let Some(got) = self.hvx_values(&family, h) else { return false };
        if !family.regs_hold(&got, &expected, u.ty(), deinterleaved) {
            return false;
        }
        if self.smt_lowering {
            let t0 = Instant::now();
            let proved = crate::symexec::smt_equiv_uber_hvx(
                u,
                h,
                self.lanes,
                self.vec_bytes,
                deinterleaved,
                self.smt_conflict_budget,
            );
            self.memo.record_smt(t0.elapsed());
            if let Some(proved) = proved {
                return proved;
            }
            // Unsupported op or budget exhausted: the differential
            // evidence stands.
        }
        true
    }

    /// End-to-end differential check: Halide expression against the final
    /// lowered HVX expression in natural order.
    pub fn equiv_halide_hvx(&self, e: &Expr, h: &HvxExpr) -> bool {
        let mut spec = BufferSpec::new();
        add_halide_loads(e, &mut spec);
        add_hvx_loads(h, &mut spec);
        let family = self.family(&spec, self.lanes);
        let Some(expected) = self.halide_values(&family, e) else { return false };
        let Some(got) = self.hvx_values(&family, h) else { return false };
        family.regs_hold(&got, &expected, e.ty(), false)
    }

    /// Prove a lane-invariant property of an uber-expression by interval
    /// analysis: used for the "semantic reasoning" candidates (§7.1.2).
    pub fn proves_non_negative(&self, u: &UberExpr) -> bool {
        crate::range::uber_range(u).is_non_negative()
    }

    /// Whether the value range of `u` provably fits `ty`.
    pub fn proves_fits(&self, u: &UberExpr, ty: ElemType) -> bool {
        crate::range::uber_range(u).fits(ty)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use halide_ir::builder as hb;
    use halide_ir::Load;

    fn v() -> Verifier {
        Verifier::fast()
    }

    #[test]
    fn accepts_correct_lift() {
        let h = hb::add(
            hb::mul(hb::widen(hb::load("in", ElemType::U8, 0, 0)), hb::bcast(2, ElemType::U16)),
            hb::widen(hb::load("in", ElemType::U8, 1, 0)),
        );
        let u = UberExpr::conv("in", ElemType::U8, 0, 0, &[2, 1], ElemType::U16);
        assert!(v().equiv_halide_uber(&h, &u));
    }

    #[test]
    fn rejects_wrong_lift() {
        let h = hb::add(
            hb::widen(hb::load("in", ElemType::U8, 0, 0)),
            hb::widen(hb::load("in", ElemType::U8, 1, 0)),
        );
        let u = UberExpr::conv("in", ElemType::U8, 0, 0, &[1, 2], ElemType::U16);
        assert!(!v().equiv_halide_uber(&h, &u));
    }

    #[test]
    fn rejects_type_mismatch() {
        let h = hb::load("in", ElemType::U8, 0, 0);
        let u = UberExpr::Data(Load { buffer: "in".into(), dx: 0, dy: 0, ty: ElemType::U16 });
        assert!(!v().equiv_halide_uber(&h, &u));
    }

    #[test]
    fn hvx_vtmpy_implements_conv_deinterleaved() {
        let u = UberExpr::conv("in", ElemType::U8, -1, 0, &[1, 2, 1], ElemType::U16);
        let lanes = 8; // verifier's fast width
        let hv = HvxExpr::op(
            Op::Vtmpy { elem: ElemType::U8, w0: 1, w1: 2 },
            vec![
                HvxExpr::vmem("in", ElemType::U8, -1, 0),
                HvxExpr::vmem("in", ElemType::U8, -1 + lanes, 0),
            ],
        );
        // vtmpy leaves the pair deinterleaved: equivalence holds only under
        // the deinterleaved layout, and the verifier distinguishes the two.
        let mut ver = v();
        ver.alt_lanes = 8; // vtmpy's second operand offset bakes in the width
        assert!(ver.equiv_uber_hvx(&u, &hv, true));
        assert!(!ver.equiv_uber_hvx(&u, &hv, false));
    }

    #[test]
    fn deinterleaved_order_roundtrip() {
        let nat = Vector::from_fn(ElemType::U16, 8, |i| i as i64);
        let de = deinterleaved_order(&nat);
        assert_eq!(de.as_slice(), &[0, 2, 4, 6, 1, 3, 5, 7]);
    }

    #[test]
    fn range_proofs() {
        let u = UberExpr::conv("in", ElemType::U8, 0, 0, &[1, 2, 1], ElemType::U16);
        assert!(v().proves_non_negative(&u));
        assert!(v().proves_fits(&u, ElemType::U16));
        assert!(!v().proves_fits(&u, ElemType::U8));
    }

    #[test]
    fn repeated_queries_hit_the_proof_cache() {
        let ver = v();
        let h = hb::add(
            hb::mul(hb::widen(hb::load("in", ElemType::U8, 0, 0)), hb::bcast(2, ElemType::U16)),
            hb::widen(hb::load("in", ElemType::U8, 1, 0)),
        );
        let u = UberExpr::conv("in", ElemType::U8, 0, 0, &[2, 1], ElemType::U16);
        assert!(ver.equiv_halide_uber(&h, &u));
        let before = ver.memo_snapshot();
        assert!(ver.equiv_halide_uber(&h, &u));
        let after = ver.memo_snapshot();
        assert_eq!(after.proof_hits, before.proof_hits + 1);
        assert_eq!(after.env_hits, before.env_hits + 2, "both widths' families are reused");
        assert_eq!(after.smt_queries, before.smt_queries, "a repeat issues no proof");
    }

    #[test]
    fn buffer_renaming_shares_one_proof() {
        let ver = v();
        let query = |buf: &str| {
            let h = hb::add(
                hb::widen(hb::load(buf, ElemType::U8, 0, 0)),
                hb::widen(hb::load(buf, ElemType::U8, 1, 0)),
            );
            let u = UberExpr::conv(buf, ElemType::U8, 0, 0, &[1, 1], ElemType::U16);
            (h, u)
        };
        let (h1, u1) = query("alpha");
        let (h2, u2) = query("beta");
        assert!(ver.equiv_halide_uber(&h1, &u1));
        let before = ver.memo_snapshot();
        assert!(ver.equiv_halide_uber(&h2, &u2));
        let after = ver.memo_snapshot();
        assert_eq!(after.proof_hits, before.proof_hits + 1, "alpha-renamed pair must hit");
        assert_eq!(after.smt_queries, before.smt_queries);
    }

    #[test]
    fn translated_queries_share_one_proof() {
        // Two queries whose loads differ only by a uniform per-buffer
        // offset shift: the differential data differs, but they share one
        // SMT proof, so the second verdict does not prove afresh.
        let ver = v();
        let query = |(ax, ay): (i32, i32), (bx, by): (i32, i32)| {
            let h = hb::absd(
                hb::load("a", ElemType::U8, ax, ay),
                hb::load("b", ElemType::U8, bx, by),
            );
            let u = UberExpr::AbsDiff(
                Box::new(UberExpr::Data(Load {
                    buffer: "a".into(),
                    dx: ax,
                    dy: ay,
                    ty: ElemType::U8,
                })),
                Box::new(UberExpr::Data(Load {
                    buffer: "b".into(),
                    dx: bx,
                    dy: by,
                    ty: ElemType::U8,
                })),
            );
            (h, u)
        };
        let (h1, u1) = query((2, 0), (5, 0));
        assert!(ver.equiv_halide_uber(&h1, &u1));
        let before = ver.memo_snapshot();
        // Buffers shift independently: a by (+2, +3), b by (-4, +7).
        let (h2, u2) = query((4, 3), (1, 7));
        assert!(ver.equiv_halide_uber(&h2, &u2));
        let after = ver.memo_snapshot();
        assert_eq!(after.smt_queries, before.smt_queries, "translated query must reuse the proof");
        assert_eq!(after.proof_hits, before.proof_hits + 1, "the proof-cache hit is counted");
    }

    #[test]
    fn clones_share_the_memo_but_not_stale_configs() {
        let ver = v();
        let h = hb::absd(hb::load("a", ElemType::U8, 0, 0), hb::load("b", ElemType::U8, 0, 0));
        let u = UberExpr::AbsDiff(
            Box::new(UberExpr::Data(Load {
                buffer: "a".into(),
                dx: 0,
                dy: 0,
                ty: ElemType::U8,
            })),
            Box::new(UberExpr::Data(Load {
                buffer: "b".into(),
                dx: 0,
                dy: 0,
                ty: ElemType::U8,
            })),
        );
        assert!(ver.equiv_halide_uber(&h, &u));
        // A re-pinned clone (the lowering pattern) shares the families and
        // the proof...
        let clone = Verifier { lanes: ver.lanes, vec_bytes: ver.vec_bytes, ..ver.clone() };
        let before = clone.memo_snapshot();
        assert!(clone.equiv_halide_uber(&h, &u));
        let after = clone.memo_snapshot();
        assert_eq!((after.env_hits, after.proof_hits), (before.env_hits + 2, before.proof_hits + 1));
        // ...a different differential geometry builds its own family at
        // the new width, sharing the SMT proof (which depends on smt_lanes
        // and budget, not on the test geometry)...
        let wider = Verifier { lanes: 16, vec_bytes: 16, ..ver.clone() };
        let before = wider.memo_snapshot();
        assert!(wider.equiv_halide_uber(&h, &u));
        let after = wider.memo_snapshot();
        assert_eq!(after.smt_queries, before.smt_queries, "proof is geometry-independent");
        assert_eq!(after.proof_hits, before.proof_hits + 1);
        assert_eq!(after.env_hits, before.env_hits + 1, "only the alternate width is shared");
        // ...and a different proof configuration proves afresh.
        let deeper = Verifier { smt_lanes: ver.smt_lanes + 1, ..ver.clone() };
        let before = deeper.memo_snapshot();
        assert!(deeper.equiv_halide_uber(&h, &u));
        let after = deeper.memo_snapshot();
        assert_eq!(after.proof_hits, before.proof_hits, "no stale hits across configs");
        assert_eq!(after.smt_queries, before.smt_queries + 1);
    }

    #[test]
    fn memoized_and_unmemoized_verdicts_agree() {
        let memo = v();
        let plain = Verifier { memoize: false, ..v() };
        let h_ok = hb::add(
            hb::widen(hb::load("in", ElemType::U8, 0, 0)),
            hb::widen(hb::load("in", ElemType::U8, 1, 0)),
        );
        let u_ok = UberExpr::conv("in", ElemType::U8, 0, 0, &[1, 1], ElemType::U16);
        let u_bad = UberExpr::conv("in", ElemType::U8, 0, 0, &[1, 2], ElemType::U16);
        for _ in 0..2 {
            assert_eq!(
                memo.equiv_halide_uber(&h_ok, &u_ok),
                plain.equiv_halide_uber(&h_ok, &u_ok)
            );
            assert_eq!(
                memo.equiv_halide_uber(&h_ok, &u_bad),
                plain.equiv_halide_uber(&h_ok, &u_bad)
            );
        }
        assert!(plain.memo_snapshot().smt_queries >= memo.memo_snapshot().smt_queries);
    }

    #[test]
    fn env_cache_serves_repeat_signatures() {
        let ver = v();
        let mut spec = BufferSpec::new();
        spec.insert("in".to_owned(), ElemType::U8);
        let a = ver.family(&spec, 8);
        let before = ver.memo_snapshot();
        let b = ver.family(&spec, 8);
        assert_eq!(ver.memo_snapshot().env_hits, before.env_hits + 1);
        assert!(Arc::ptr_eq(&a, &b));
        // A different width is a different family.
        let c = ver.family(&spec, 4);
        assert!(!Arc::ptr_eq(&a, &c));
    }
}

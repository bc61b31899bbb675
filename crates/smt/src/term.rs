//! Hash-consed bit-vector terms, normalized at word level as they are built.
//!
//! Every constructor returns its term in a small normal form, so that two
//! encodings of one computation — the Halide side and the uber side of a
//! lifting miter — intern to the same DAG and the miter folds to a
//! constant before anything is bit-blasted:
//!
//! - constants fold;
//! - `extract[k-1:0]` is pushed towards the leaves, and other extracts are
//!   re-indexed onto the operands of shifts, extensions and concatenations;
//! - sums, differences and constant multiples flatten into a linear normal
//!   form whose atoms keep the order in which they first occur;
//! - nested constant right shifts of one kind merge into one shift;
//! - every term carries a conservative unsigned interval and a
//!   conservative signed one, which decide comparisons and drop min/max
//!   operations (and so clamps) whose outcome the operands' ranges
//!   already fix.
//!
//! No rewrite orders anything by [`TermId`] value, so the term a query
//! builds is a function of the query's own structure, never of what else
//! the context holds. DESIGN.md ("Word-level normalization") gives the
//! full rewrite list and the soundness argument.

use std::collections::HashMap;

/// A handle to a term in a [`Context`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TermId(pub(crate) u32);

/// Internal term node. Booleans are width-1 bit-vectors.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub(crate) enum Node {
    Const { width: u32, value: u64 },
    Var { width: u32, name: String },
    Add(TermId, TermId),
    Sub(TermId, TermId),
    Mul(TermId, TermId),
    And(TermId, TermId),
    Or(TermId, TermId),
    Xor(TermId, TermId),
    Not(TermId),
    /// Shift left by a constant amount.
    Shl(TermId, u32),
    /// Logical shift right by a constant amount.
    Lshr(TermId, u32),
    /// Arithmetic shift right by a constant amount.
    Ashr(TermId, u32),
    ZeroExt(TermId, u32),
    SignExt(TermId, u32),
    /// Bits `hi..=lo` (inclusive), LSB-indexed.
    Extract(TermId, u32, u32),
    /// `hi ++ lo` — `hi` occupies the most-significant bits.
    Concat(TermId, TermId),
    Eq(TermId, TermId),
    Ult(TermId, TermId),
    Slt(TermId, TermId),
    /// `cond ? then : else`; `cond` has width 1.
    Ite(TermId, TermId, TermId),
}

fn mask(width: u32) -> u64 {
    if width == 64 {
        u64::MAX
    } else {
        (1u64 << width) - 1
    }
}

/// The sign bit of a `width`-bit value.
fn half(width: u32) -> u64 {
    1u64 << (width - 1)
}

fn sext_val(v: u64, width: u32) -> i64 {
    let shift = 64 - width;
    ((v << shift) as i64) >> shift
}

/// The smallest all-ones value `>= v`.
fn smear(v: u64) -> u64 {
    if v == 0 {
        0
    } else {
        u64::MAX >> v.leading_zeros()
    }
}

/// The signed reading of the unsigned interval `[lo, hi]` of a
/// `width`-bit value: exact within one sign half, else the full range.
fn signed_view(lo: u64, hi: u64, width: u32) -> (i64, i64) {
    if hi < half(width) || lo >= half(width) {
        (sext_val(lo, width), sext_val(hi, width))
    } else {
        (sext_val(half(width), width), sext_val(half(width) - 1, width))
    }
}

/// A linear normal form `Σ coef·atom + constant` modulo `2^width`. Atoms
/// are the terms that are not sums, differences, constants or constant
/// multiples; they keep the order in which they first occur.
#[derive(Debug, Default)]
struct Lin {
    terms: Vec<(TermId, u64)>,
    constant: u64,
}

impl Lin {
    /// Add `coef·atom`, merging with an earlier occurrence of `atom`.
    fn push(&mut self, atom: TermId, coef: u64, m: u64) {
        match self.terms.iter_mut().find(|(t, _)| *t == atom) {
            Some((_, c)) => *c = c.wrapping_add(coef) & m,
            None => self.terms.push((atom, coef & m)),
        }
    }
}

/// A term-building context. Terms are immutable, hash-consed and
/// normalized at construction (see the module docs).
///
/// # Panics
///
/// All constructors panic on width mismatches or out-of-range widths — a
/// malformed query is a bug in the encoder, not a runtime condition.
#[derive(Debug, Default)]
pub struct Context {
    pub(crate) nodes: Vec<Node>,
    widths: Vec<u32>,
    /// A conservative unsigned interval `[lo, hi]` of every term's value.
    ranges: Vec<(u64, u64)>,
    /// A conservative signed interval of every term's value, read as a
    /// two's-complement number of the term's width.
    sranges: Vec<(i64, i64)>,
    dedup: HashMap<Node, TermId>,
    /// `extract[k-1:0]` of a term after pushing it towards the leaves,
    /// keyed by `(term, k)`, so shared subterms are narrowed once.
    low_bits: HashMap<(TermId, u32), TermId>,
}

impl Context {
    /// An empty context.
    pub fn new() -> Context {
        Context::default()
    }

    /// Number of distinct terms created.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether no terms have been created.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// The width in bits of a term.
    pub fn width(&self, t: TermId) -> u32 {
        self.widths[t.0 as usize]
    }

    pub(crate) fn node(&self, t: TermId) -> &Node {
        &self.nodes[t.0 as usize]
    }

    /// The unsigned interval every value of `t` lies in.
    pub(crate) fn range(&self, t: TermId) -> (u64, u64) {
        self.ranges[t.0 as usize]
    }

    /// The signed interval every value of `t` lies in.
    pub(crate) fn srange(&self, t: TermId) -> (i64, i64) {
        self.sranges[t.0 as usize]
    }

    fn nonneg(&self, t: TermId) -> bool {
        self.srange(t).0 >= 0
    }

    /// Intern a node as is. Its unsigned and signed intervals refine each
    /// other; a node whose interval is a single point is that constant.
    fn intern(&mut self, node: Node, width: u32) -> TermId {
        assert!((1..=64).contains(&width), "width {width} out of range");
        if let Some(&id) = self.dedup.get(&node) {
            return id;
        }
        let (mut lo, mut hi) = self.node_range(&node, width);
        let ((sl, sh), (vl, vh)) = (self.node_srange(&node, width), signed_view(lo, hi, width));
        let (mut slo, mut shi) = (sl.max(vl), sh.min(vh));
        if slo >= 0 || shi < 0 {
            // One sign half: both intervals bound the same bit patterns.
            let m = mask(width);
            (lo, hi) = (lo.max(slo as u64 & m), hi.min(shi as u64 & m));
            (slo, shi) = signed_view(lo, hi, width);
        }
        debug_assert!(lo <= hi && slo <= shi, "empty interval for {node:?}");
        if lo == hi && !matches!(node, Node::Const { .. }) {
            return self.constant(lo, width);
        }
        let id = TermId(self.nodes.len() as u32);
        self.nodes.push(node.clone());
        self.widths.push(width);
        self.ranges.push((lo, hi));
        self.sranges.push((slo, shi));
        self.dedup.insert(node, id);
        id
    }

    /// The interval of a node's value, from its children's intervals.
    fn node_range(&self, node: &Node, w: u32) -> (u64, u64) {
        let m = mask(w);
        let full = (0, m);
        // `[lo, hi]` when the exact bounds fit the width, else `full`.
        let fit =
            |lo: u128, hi: u128| if hi <= u128::from(m) { (lo as u64, hi as u64) } else { full };
        let r = |t: TermId| self.range(t);
        let wide = |t: TermId| {
            let (lo, hi) = self.range(t);
            (u128::from(lo), u128::from(hi))
        };
        match *node {
            Node::Const { value, .. } => (value, value),
            Node::Var { .. } => full,
            Node::Add(a, b) => {
                let ((al, ah), (bl, bh)) = (wide(a), wide(b));
                fit(al + bl, ah + bh)
            }
            Node::Sub(a, b) => {
                let ((al, ah), (bl, bh)) = (r(a), r(b));
                if al >= bh {
                    (al - bh, ah - bl)
                } else {
                    full
                }
            }
            Node::Mul(a, b) => {
                let ((al, ah), (bl, bh)) = (wide(a), wide(b));
                fit(al * bl, ah * bh)
            }
            Node::And(a, b) => (0, r(a).1.min(r(b).1)),
            Node::Or(a, b) => (r(a).0.max(r(b).0), smear(r(a).1 | r(b).1)),
            Node::Xor(a, b) => (0, smear(r(a).1 | r(b).1)),
            Node::Not(a) => (m - r(a).1, m - r(a).0),
            Node::Shl(a, n) => {
                let (lo, hi) = wide(a);
                fit(lo << n, hi << n)
            }
            Node::Lshr(a, n) => (r(a).0 >> n, r(a).1 >> n),
            Node::ZeroExt(a, _) => r(a),
            Node::Extract(a, _, lo) => {
                let (al, ah) = r(a);
                if ah >> lo <= m {
                    (al >> lo, ah >> lo)
                } else {
                    full
                }
            }
            Node::Concat(hi, lo) => {
                let lw = self.width(lo);
                ((r(hi).0 << lw) | r(lo).0, (r(hi).1 << lw) | r(lo).1)
            }
            Node::Eq(..) | Node::Ult(..) | Node::Slt(..) => (0, 1),
            Node::Ite(_, a, b) => (r(a).0.min(r(b).0), r(a).1.max(r(b).1)),
            // Signed intervals bound these (see `node_srange`).
            Node::Ashr(..) | Node::SignExt(..) => full,
        }
    }

    /// The signed interval of a node's value, from its children's signed
    /// intervals, by exact bound arithmetic in 128 bits. Constants and the
    /// nodes left at the full range here are bounded by the signed reading
    /// of their unsigned interval (see `intern`).
    fn node_srange(&self, node: &Node, w: u32) -> (i64, i64) {
        let (min, max) = (-i128::from(half(w)), i128::from(half(w)) - 1);
        let full = (min as i64, max as i64);
        // `[lo, hi]` when the exact bounds fit the width, else `full`.
        let fit = |lo: i128, hi: i128| {
            if min <= lo && hi <= max {
                (lo as i64, hi as i64)
            } else {
                full
            }
        };
        let s = |t: TermId| self.srange(t);
        let wide = |t: TermId| {
            let (lo, hi) = self.srange(t);
            (i128::from(lo), i128::from(hi))
        };
        match *node {
            Node::Add(a, b) => {
                let ((al, ah), (bl, bh)) = (wide(a), wide(b));
                fit(al + bl, ah + bh)
            }
            Node::Sub(a, b) => {
                let ((al, ah), (bl, bh)) = (wide(a), wide(b));
                fit(al - bh, ah - bl)
            }
            Node::Mul(a, b) => {
                let ((al, ah), (bl, bh)) = (wide(a), wide(b));
                let c = [al * bl, al * bh, ah * bl, ah * bh];
                fit(c[0].min(c[1]).min(c[2]).min(c[3]), c[0].max(c[1]).max(c[2]).max(c[3]))
            }
            Node::Shl(a, n) => {
                let (lo, hi) = wide(a);
                fit(lo << n, hi << n)
            }
            // Monotone.
            Node::Ashr(a, n) => (s(a).0 >> n, s(a).1 >> n),
            Node::Not(a) => (!s(a).1, !s(a).0),
            Node::SignExt(a, _) => s(a),
            Node::Extract(a, _, 0) => {
                let (lo, hi) = wide(a);
                fit(lo, hi)
            }
            Node::Ite(_, a, b) => (s(a).0.min(s(b).0), s(a).1.max(s(b).1)),
            _ => full,
        }
    }

    fn const_of(&self, t: TermId) -> Option<u64> {
        match self.node(t) {
            Node::Const { value, .. } => Some(*value),
            _ => None,
        }
    }

    /// A constant of the given width (value is masked).
    pub fn constant(&mut self, value: u64, width: u32) -> TermId {
        self.intern(Node::Const { width, value: value & mask(width) }, width)
    }

    /// A signed constant of the given width (two's-complement wrapped).
    pub fn constant_signed(&mut self, value: i64, width: u32) -> TermId {
        self.constant(value as u64, width)
    }

    /// The width-1 constant 1.
    pub fn tt(&mut self) -> TermId {
        self.constant(1, 1)
    }

    /// The width-1 constant 0.
    pub fn ff(&mut self) -> TermId {
        self.constant(0, 1)
    }

    /// A free variable. Variables are identified by name: asking twice for
    /// the same `(name, width)` returns the same term.
    pub fn var(&mut self, name: &str, width: u32) -> TermId {
        self.intern(Node::Var { width, name: name.to_owned() }, width)
    }

    fn bin_width(&self, a: TermId, b: TermId, what: &str) -> u32 {
        let (wa, wb) = (self.width(a), self.width(b));
        assert_eq!(wa, wb, "{what}: operand widths {wa} and {wb} differ");
        wa
    }

    // ---- Linear normal form ---------------------------------------------

    /// Add `scale·t` to `out`, flattening `t`'s sums, differences and
    /// constant multiples; atoms are visited left to right.
    fn lin_into(&self, out: &mut Lin, t: TermId, scale: u64) {
        let m = mask(self.width(t));
        let mut stack = vec![(t, scale & m)];
        while let Some((t, s)) = stack.pop() {
            if s == 0 {
                continue;
            }
            match *self.node(t) {
                Node::Const { value, .. } => {
                    out.constant = out.constant.wrapping_add(value.wrapping_mul(s)) & m;
                }
                Node::Add(a, b) => {
                    stack.push((b, s));
                    stack.push((a, s));
                }
                Node::Sub(a, b) => {
                    stack.push((b, s.wrapping_neg() & m));
                    stack.push((a, s));
                }
                Node::Shl(a, n) => stack.push((a, (s << n) & m)),
                Node::Mul(a, b) => match (self.const_of(a), self.const_of(b)) {
                    (_, Some(c)) => stack.push((a, s.wrapping_mul(c) & m)),
                    (Some(c), None) => stack.push((b, s.wrapping_mul(c) & m)),
                    (None, None) => out.push(t, s, m),
                },
                _ => out.push(t, s, m),
            }
        }
    }

    /// The canonical term of a linear form: one left fold over the atoms
    /// in order. A power-of-two coefficient becomes a shift, a coefficient
    /// in the top half of the range (a negative one) a subtraction.
    fn rebuild(&mut self, lin: Lin, w: u32) -> TermId {
        let m = mask(w);
        let mut constant = lin.constant;
        let mut acc: Option<TermId> = None;
        for (atom, c) in lin.terms {
            if c == 0 {
                continue;
            }
            let neg = c > half(w);
            let term = self.scaled(atom, if neg { c.wrapping_neg() & m } else { c }, w);
            acc = Some(match acc {
                // A leading negative term subtracts from the constant.
                None if neg => {
                    let k = self.constant(constant, w);
                    constant = 0;
                    self.intern(Node::Sub(k, term), w)
                }
                None => term,
                Some(a) if neg => self.intern(Node::Sub(a, term), w),
                Some(a) => self.intern(Node::Add(a, term), w),
            });
        }
        match acc {
            None => self.constant(constant, w),
            Some(a) if constant == 0 => a,
            Some(a) if constant > half(w) => {
                let k = self.constant(constant.wrapping_neg(), w);
                self.intern(Node::Sub(a, k), w)
            }
            Some(a) => {
                let k = self.constant(constant, w);
                self.intern(Node::Add(a, k), w)
            }
        }
    }

    /// `c·atom` for a coefficient `c` in `1..2^w`.
    fn scaled(&mut self, atom: TermId, c: u64, w: u32) -> TermId {
        if c == 1 {
            atom
        } else if c.is_power_of_two() {
            self.intern(Node::Shl(atom, c.trailing_zeros()), w)
        } else {
            let k = self.constant(c, w);
            self.intern(Node::Mul(atom, k), w)
        }
    }

    /// `Σ scale·t` over `parts`, normalized.
    fn linear(&mut self, parts: &[(TermId, u64)], w: u32) -> TermId {
        let mut lin = Lin::default();
        for &(t, scale) in parts {
            self.lin_into(&mut lin, t, scale);
        }
        self.rebuild(lin, w)
    }

    // ---- Arithmetic and bitwise constructors -----------------------------

    /// Wrapping addition.
    pub fn add(&mut self, a: TermId, b: TermId) -> TermId {
        let w = self.bin_width(a, b, "add");
        self.linear(&[(a, 1), (b, 1)], w)
    }

    /// Wrapping subtraction.
    pub fn sub(&mut self, a: TermId, b: TermId) -> TermId {
        let w = self.bin_width(a, b, "sub");
        self.linear(&[(a, 1), (b, mask(w))], w)
    }

    /// Wrapping multiplication.
    pub fn mul(&mut self, a: TermId, b: TermId) -> TermId {
        let w = self.bin_width(a, b, "mul");
        match (self.const_of(a), self.const_of(b)) {
            (_, Some(c)) => self.linear(&[(a, c)], w),
            (Some(c), None) => self.linear(&[(b, c)], w),
            (None, None) => self.intern(Node::Mul(a, b), w),
        }
    }

    /// Bitwise and.
    pub fn and(&mut self, a: TermId, b: TermId) -> TermId {
        let w = self.bin_width(a, b, "and");
        if let (Some(x), Some(y)) = (self.const_of(a), self.const_of(b)) {
            return self.constant(x & y, w);
        }
        self.intern(Node::And(a, b), w)
    }

    /// Bitwise or.
    pub fn or(&mut self, a: TermId, b: TermId) -> TermId {
        let w = self.bin_width(a, b, "or");
        if let (Some(x), Some(y)) = (self.const_of(a), self.const_of(b)) {
            return self.constant(x | y, w);
        }
        self.intern(Node::Or(a, b), w)
    }

    /// Bitwise xor.
    pub fn xor(&mut self, a: TermId, b: TermId) -> TermId {
        let w = self.bin_width(a, b, "xor");
        if let (Some(x), Some(y)) = (self.const_of(a), self.const_of(b)) {
            return self.constant(x ^ y, w);
        }
        self.intern(Node::Xor(a, b), w)
    }

    /// Bitwise not.
    pub fn not(&mut self, a: TermId) -> TermId {
        let w = self.width(a);
        if let Some(x) = self.const_of(a) {
            return self.constant(!x, w);
        }
        self.intern(Node::Not(a), w)
    }

    /// Shift left by a constant; `n` must be `< width`.
    pub fn shl(&mut self, a: TermId, n: u32) -> TermId {
        let w = self.width(a);
        assert!(n < w, "shift amount {n} out of range for width {w}");
        if n == 0 {
            return a;
        }
        self.linear(&[(a, 1u64 << n)], w)
    }

    /// Logical shift right by a constant; `n` must be `< width`. Nested
    /// logical shifts merge; one past the width is 0.
    pub fn lshr(&mut self, a: TermId, n: u32) -> TermId {
        let w = self.width(a);
        assert!(n < w, "shift amount {n} out of range for width {w}");
        if n == 0 {
            return a;
        }
        if let Some(x) = self.const_of(a) {
            return self.constant(x >> n, w);
        }
        if let Node::Lshr(x, m) = *self.node(a) {
            return if m + n >= w { self.constant(0, w) } else { self.lshr(x, m + n) };
        }
        self.intern(Node::Lshr(a, n), w)
    }

    /// Arithmetic shift right by a constant; `n` must be `< width`. On a
    /// provably non-negative operand this is [`Context::lshr`]. Nested
    /// arithmetic shifts merge, saturating at `width - 1`.
    pub fn ashr(&mut self, a: TermId, n: u32) -> TermId {
        let w = self.width(a);
        assert!(n < w, "shift amount {n} out of range for width {w}");
        if n == 0 {
            return a;
        }
        if let Some(x) = self.const_of(a) {
            return self.constant((sext_val(x, w) >> n) as u64, w);
        }
        if let Node::Ashr(x, m) = *self.node(a) {
            return self.ashr(x, (m + n).min(w - 1));
        }
        if self.nonneg(a) {
            return self.lshr(a, n);
        }
        self.intern(Node::Ashr(a, n), w)
    }

    /// Zero-extend by `extra` bits.
    pub fn zero_ext(&mut self, a: TermId, extra: u32) -> TermId {
        if extra == 0 {
            return a;
        }
        let w = self.width(a) + extra;
        match *self.node(a) {
            Node::Const { value, .. } => self.constant(value, w),
            Node::ZeroExt(b, e) => self.zero_ext(b, e + extra),
            _ => self.intern(Node::ZeroExt(a, extra), w),
        }
    }

    /// Sign-extend by `extra` bits. On a provably non-negative operand
    /// this is [`Context::zero_ext`].
    pub fn sign_ext(&mut self, a: TermId, extra: u32) -> TermId {
        if extra == 0 {
            return a;
        }
        let aw = self.width(a);
        let w = aw + extra;
        if let Some(x) = self.const_of(a) {
            return self.constant(sext_val(x, aw) as u64, w);
        }
        if self.nonneg(a) {
            return self.zero_ext(a, extra);
        }
        if let Node::SignExt(b, e) = *self.node(a) {
            return self.sign_ext(b, e + extra);
        }
        self.intern(Node::SignExt(a, extra), w)
    }

    // ---- Extraction -------------------------------------------------------

    /// Bits `hi..=lo` (LSB-indexed, inclusive).
    pub fn extract(&mut self, a: TermId, hi: u32, lo: u32) -> TermId {
        let aw = self.width(a);
        assert!(lo <= hi && hi < aw, "extract [{hi}:{lo}] out of range for width {aw}");
        if lo == 0 && hi == aw - 1 {
            return a;
        }
        let w = hi - lo + 1;
        if let Some(x) = self.const_of(a) {
            return self.constant(x >> lo, w);
        }
        if lo == 0 {
            return self.low(a, w);
        }
        // Re-index onto the operand when the bits stay in range.
        match *self.node(a) {
            Node::Extract(b, _, l) => return self.extract(b, hi + l, lo + l),
            Node::Lshr(b, n) | Node::Ashr(b, n) if hi + n < aw => {
                return self.extract(b, hi + n, lo + n);
            }
            Node::Shl(b, n) if lo >= n => return self.extract(b, hi - n, lo - n),
            Node::ZeroExt(b, _) | Node::SignExt(b, _) if hi < self.width(b) => {
                return self.extract(b, hi, lo);
            }
            Node::ZeroExt(b, _) if lo < self.width(b) => {
                let bw = self.width(b);
                let t = self.extract(b, bw - 1, lo);
                return self.zero_ext(t, hi + 1 - bw);
            }
            Node::SignExt(b, _) if lo < self.width(b) => {
                let bw = self.width(b);
                let t = self.extract(b, bw - 1, lo);
                return self.sign_ext(t, hi + 1 - bw);
            }
            Node::Concat(h, l) => {
                let lw = self.width(l);
                if hi < lw {
                    return self.extract(l, hi, lo);
                }
                if lo >= lw {
                    return self.extract(h, hi - lw, lo - lw);
                }
            }
            _ => {}
        }
        // Otherwise narrow the operand to `hi + 1` bits first, when that
        // pushes the truncation anywhere.
        if hi + 1 < aw {
            let narrow = self.low(a, hi + 1);
            if !matches!(*self.node(narrow), Node::Extract(b, _, 0) if b == a) {
                return self.extract(narrow, hi, lo);
            }
        }
        self.intern(Node::Extract(a, hi, lo), w)
    }

    /// `extract[k-1:0]` of `a` for `k <= width(a)`, pushed towards the
    /// leaves: the low `k` bits of a sum, product, bitwise operation,
    /// shift left or `ite` depend only on the low `k` bits of its
    /// operands.
    fn low(&mut self, a: TermId, k: u32) -> TermId {
        if self.width(a) == k {
            return a;
        }
        if let Some(&t) = self.low_bits.get(&(a, k)) {
            return t;
        }
        let t = self.push_low(a, k);
        self.low_bits.insert((a, k), t);
        t
    }

    fn push_low(&mut self, a: TermId, k: u32) -> TermId {
        let aw = self.width(a);
        let mut lin = Lin::default();
        self.lin_into(&mut lin, a, 1);
        if lin.terms != [(a, 1)] {
            // A constant or a sum: narrow every atom.
            let mut parts = Vec::with_capacity(lin.terms.len() + 1);
            for (atom, c) in lin.terms {
                parts.push((self.low(atom, k), c));
            }
            parts.push((self.constant(lin.constant, k), 1));
            return self.linear(&parts, k);
        }
        match *self.node(a) {
            Node::Mul(x, y) => {
                let (x, y) = (self.low(x, k), self.low(y, k));
                self.mul(x, y)
            }
            Node::And(x, y) => {
                let (x, y) = (self.low(x, k), self.low(y, k));
                self.and(x, y)
            }
            Node::Or(x, y) => {
                let (x, y) = (self.low(x, k), self.low(y, k));
                self.or(x, y)
            }
            Node::Xor(x, y) => {
                let (x, y) = (self.low(x, k), self.low(y, k));
                self.xor(x, y)
            }
            Node::Not(x) => {
                let x = self.low(x, k);
                self.not(x)
            }
            Node::Ite(c, x, y) => {
                let (x, y) = (self.low(x, k), self.low(y, k));
                self.ite(c, x, y)
            }
            Node::ZeroExt(x, _) | Node::SignExt(x, _) if k <= self.width(x) => self.low(x, k),
            Node::ZeroExt(x, _) => {
                let extra = k - self.width(x);
                self.zero_ext(x, extra)
            }
            Node::SignExt(x, _) => {
                let extra = k - self.width(x);
                self.sign_ext(x, extra)
            }
            Node::Concat(h, l) => {
                let lw = self.width(l);
                if k <= lw {
                    self.low(l, k)
                } else {
                    let h = self.low(h, k - lw);
                    self.concat(h, l)
                }
            }
            Node::Extract(x, _, lo) => self.extract(x, lo + k - 1, lo),
            Node::Lshr(x, n) | Node::Ashr(x, n) if n + k <= aw => self.extract(x, n + k - 1, n),
            _ => self.intern(Node::Extract(a, k - 1, 0), k),
        }
    }

    /// Concatenation `hi ++ lo`; `hi` becomes the most-significant bits.
    /// Adjacent slices of one term merge back into one slice.
    pub fn concat(&mut self, hi: TermId, lo: TermId) -> TermId {
        let lw = self.width(lo);
        let w = self.width(hi) + lw;
        if let (Some(h), Some(l)) = (self.const_of(hi), self.const_of(lo)) {
            return self.constant((h << lw) | l, w);
        }
        if let Node::Extract(b, h, l) = *self.node(hi) {
            if l >= lw && self.extract(b, l - 1, l - lw) == lo {
                return self.extract(b, h, l - lw);
            }
        }
        self.intern(Node::Concat(hi, lo), w)
    }

    // ---- Predicates and selection ----------------------------------------

    /// Equality (width-1 result). Decided when the two sides' linear forms
    /// differ by a constant, or when their intervals are disjoint.
    pub fn eq(&mut self, a: TermId, b: TermId) -> TermId {
        let w = self.bin_width(a, b, "eq");
        if a == b {
            return self.tt();
        }
        let mut diff = Lin::default();
        self.lin_into(&mut diff, a, 1);
        self.lin_into(&mut diff, b, mask(w));
        if diff.terms.iter().all(|&(_, c)| c == 0) {
            return self.constant(u64::from(diff.constant == 0), 1);
        }
        let ((al, ah), (bl, bh)) = (self.range(a), self.range(b));
        if ah < bl || bh < al {
            return self.ff();
        }
        self.intern(Node::Eq(a, b), 1)
    }

    /// Disequality (width-1 result).
    pub fn ne(&mut self, a: TermId, b: TermId) -> TermId {
        let e = self.eq(a, b);
        self.not(e)
    }

    /// Unsigned less-than (width-1 result); decided by the intervals when
    /// they order the operands.
    pub fn ult(&mut self, a: TermId, b: TermId) -> TermId {
        self.bin_width(a, b, "ult");
        let ((al, ah), (bl, bh)) = (self.range(a), self.range(b));
        if ah < bl {
            return self.tt();
        }
        if al >= bh || a == b {
            return self.ff();
        }
        self.intern(Node::Ult(a, b), 1)
    }

    /// Signed less-than (width-1 result); decided by the signed intervals
    /// when they order the operands, and an unsigned comparison when both
    /// operands lie in one sign half.
    pub fn slt(&mut self, a: TermId, b: TermId) -> TermId {
        self.bin_width(a, b, "slt");
        let ((al, ah), (bl, bh)) = (self.srange(a), self.srange(b));
        if ah < bl {
            return self.tt();
        }
        if al >= bh || a == b {
            return self.ff();
        }
        if (al >= 0 && bl >= 0) || (ah < 0 && bh < 0) {
            return self.ult(a, b);
        }
        self.intern(Node::Slt(a, b), 1)
    }

    /// `cond ? then : else`; `cond` must have width 1.
    pub fn ite(&mut self, cond: TermId, then: TermId, els: TermId) -> TermId {
        assert_eq!(self.width(cond), 1, "ite condition must have width 1");
        let w = self.bin_width(then, els, "ite");
        if let Some(c) = self.const_of(cond) {
            return if c == 1 { then } else { els };
        }
        if then == els {
            return then;
        }
        self.intern(Node::Ite(cond, then, els), w)
    }

    // ---- Derived constructors -------------------------------------------
    //
    // Each returns an operand outright when the intervals already order
    // the two, which removes a clamp whose input provably fits.

    /// Signed minimum.
    pub fn smin(&mut self, a: TermId, b: TermId) -> TermId {
        let ((al, ah), (bl, bh)) = (self.srange(a), self.srange(b));
        if ah <= bl {
            return a;
        }
        if bh <= al {
            return b;
        }
        let c = self.slt(a, b);
        self.ite(c, a, b)
    }

    /// Signed maximum.
    pub fn smax(&mut self, a: TermId, b: TermId) -> TermId {
        let ((al, ah), (bl, bh)) = (self.srange(a), self.srange(b));
        if ah <= bl {
            return b;
        }
        if bh <= al {
            return a;
        }
        let c = self.slt(a, b);
        self.ite(c, b, a)
    }

    /// Unsigned minimum.
    pub fn umin(&mut self, a: TermId, b: TermId) -> TermId {
        let ((al, ah), (bl, bh)) = (self.range(a), self.range(b));
        if ah <= bl {
            return a;
        }
        if bh <= al {
            return b;
        }
        let c = self.ult(a, b);
        self.ite(c, a, b)
    }

    /// Unsigned maximum.
    pub fn umax(&mut self, a: TermId, b: TermId) -> TermId {
        let ((al, ah), (bl, bh)) = (self.range(a), self.range(b));
        if ah <= bl {
            return b;
        }
        if bh <= al {
            return a;
        }
        let c = self.ult(a, b);
        self.ite(c, b, a)
    }

    /// Signed clamp of `a` to `[lo, hi]` given as signed i64 constants.
    pub fn sclamp(&mut self, a: TermId, lo: i64, hi: i64) -> TermId {
        let w = self.width(a);
        let lo_t = self.constant_signed(lo, w);
        let hi_t = self.constant_signed(hi, w);
        let m = self.smax(a, lo_t);
        self.smin(m, hi_t)
    }

    /// Evaluate a term under an assignment of variable names to values
    /// (used to validate counterexamples and for differential testing).
    /// Shared subterms are evaluated once.
    ///
    /// # Panics
    ///
    /// Panics if a variable is missing from `env`.
    pub fn eval(&self, t: TermId, env: &HashMap<String, u64>) -> u64 {
        self.eval_in(t, env, &mut HashMap::new())
    }

    fn eval_in(
        &self,
        t: TermId,
        env: &HashMap<String, u64>,
        memo: &mut HashMap<TermId, u64>,
    ) -> u64 {
        if let Some(&v) = memo.get(&t) {
            return v;
        }
        let w = self.width(t);
        let mut ev = |x: TermId| self.eval_in(x, env, memo);
        let v = match *self.node(t) {
            Node::Const { value, .. } => value,
            Node::Var { ref name, .. } => {
                *env.get(name).unwrap_or_else(|| panic!("unbound variable `{name}`"))
            }
            Node::Add(a, b) => ev(a).wrapping_add(ev(b)),
            Node::Sub(a, b) => ev(a).wrapping_sub(ev(b)),
            Node::Mul(a, b) => ev(a).wrapping_mul(ev(b)),
            Node::And(a, b) => ev(a) & ev(b),
            Node::Or(a, b) => ev(a) | ev(b),
            Node::Xor(a, b) => ev(a) ^ ev(b),
            Node::Not(a) => !ev(a),
            Node::Shl(a, n) => ev(a) << n,
            Node::Lshr(a, n) => ev(a) >> n,
            Node::Ashr(a, n) => (sext_val(ev(a), w) >> n) as u64,
            Node::ZeroExt(a, _) => ev(a),
            Node::SignExt(a, _) => sext_val(ev(a), self.width(a)) as u64,
            Node::Extract(a, _, lo) => ev(a) >> lo,
            Node::Concat(hi, lo) => (ev(hi) << self.width(lo)) | ev(lo),
            Node::Eq(a, b) => u64::from(ev(a) == ev(b)),
            Node::Ult(a, b) => u64::from(ev(a) < ev(b)),
            Node::Slt(a, b) => {
                let aw = self.width(a);
                u64::from(sext_val(ev(a), aw) < sext_val(ev(b), aw))
            }
            Node::Ite(c, a, b) => {
                if ev(c) == 1 {
                    ev(a)
                } else {
                    ev(b)
                }
            }
        } & mask(w);
        memo.insert(t, v);
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hash_consing_dedupes() {
        let mut ctx = Context::new();
        let x = ctx.var("x", 8);
        let y = ctx.var("y", 8);
        let a = ctx.add(x, y);
        let b = ctx.add(x, y);
        assert_eq!(a, b);
        assert_ne!(a, ctx.add(y, x));
    }

    #[test]
    fn constant_folding() {
        let mut ctx = Context::new();
        let a = ctx.constant(250, 8);
        let b = ctx.constant(10, 8);
        let sum = ctx.add(a, b);
        assert_eq!(ctx.node(sum), &Node::Const { width: 8, value: 4 });
        let prod = ctx.mul(a, b);
        assert_eq!(ctx.node(prod), &Node::Const { width: 8, value: (250u64 * 10) & 0xff });
    }

    #[test]
    fn signed_folding() {
        let mut ctx = Context::new();
        let a = ctx.constant_signed(-1, 8);
        let b = ctx.constant_signed(-2, 8);
        let lt = ctx.slt(b, a);
        assert_eq!(ctx.node(lt), &Node::Const { width: 1, value: 1 });
        let ext = ctx.sign_ext(a, 8);
        assert_eq!(ctx.node(ext), &Node::Const { width: 16, value: 0xffff });
        let sh = ctx.ashr(b, 1);
        assert_eq!(ctx.node(sh), &Node::Const { width: 8, value: 0xff });
    }

    #[test]
    fn widths_propagate() {
        let mut ctx = Context::new();
        let x = ctx.var("x", 8);
        let z = ctx.zero_ext(x, 8);
        assert_eq!(ctx.width(z), 16);
        let hi = ctx.extract(x, 7, 4);
        assert_eq!(ctx.width(hi), 4);
        let cc = ctx.concat(x, x);
        assert_eq!(ctx.width(cc), 16);
        let e = ctx.eq(x, x);
        assert_eq!(ctx.width(e), 1);
    }

    #[test]
    #[should_panic(expected = "widths 8 and 16 differ")]
    fn mismatched_widths_panic() {
        let mut ctx = Context::new();
        let x = ctx.var("x", 8);
        let y = ctx.var("y", 16);
        let _ = ctx.add(x, y);
    }

    #[test]
    fn eval_matches_semantics() {
        let mut ctx = Context::new();
        let x = ctx.var("x", 8);
        let y = ctx.var("y", 8);
        let t1 = ctx.mul(x, y);
        let t2 = ctx.sub(t1, x);
        let env: HashMap<String, u64> = [("x".into(), 7u64), ("y".into(), 40u64)].into();
        assert_eq!(ctx.eval(t2, &env), (7u64 * 40 - 7) & 0xff);
        let c = ctx.slt(x, y);
        let m = ctx.ite(c, x, y);
        assert_eq!(ctx.eval(m, &env), 7);
    }

    #[test]
    fn derived_min_max_clamp() {
        let mut ctx = Context::new();
        let a = ctx.constant_signed(-5, 8);
        let b = ctx.constant(3, 8);
        let m = ctx.smin(a, b);
        assert_eq!(ctx.node(m), &Node::Const { width: 8, value: 0xfb });
        let clamped = ctx.sclamp(a, 0, 100);
        assert_eq!(ctx.node(clamped), &Node::Const { width: 8, value: 0 });
    }

    #[test]
    fn clamp_of_a_value_straddling_zero_is_dropped() {
        // `ashr(x:i16, 12)` lies in [-8, 7]: the saturating narrow's clamp
        // to the i16 range is dead once intervals are signed.
        let mut ctx = Context::new();
        let x = ctx.var("x", 16);
        let sh = ctx.ashr(x, 12);
        assert_eq!(ctx.srange(sh), (-8, 7));
        let wide = ctx.sign_ext(sh, 1);
        let clamped = ctx.sclamp(wide, i64::from(i16::MIN), i64::from(i16::MAX));
        assert_eq!(clamped, wide);
    }

    #[test]
    fn nested_right_shifts_merge() {
        let mut ctx = Context::new();
        let x = ctx.var("x", 16);
        let l = ctx.lshr(x, 1);
        let l = ctx.lshr(l, 3);
        assert_eq!(l, ctx.lshr(x, 4));
        let a = ctx.ashr(x, 2);
        let a = ctx.ashr(a, 5);
        assert_eq!(a, ctx.ashr(x, 7));

        // A logical shift past the width is 0; an arithmetic one stops at
        // `width - 1`, which leaves only copies of the sign bit.
        let l = ctx.lshr(x, 9);
        let l = ctx.lshr(l, 7);
        assert_eq!(ctx.node(l), &Node::Const { width: 16, value: 0 });
        let a = ctx.ashr(x, 9);
        let a = ctx.ashr(a, 9);
        assert_eq!(a, ctx.ashr(x, 15));
        assert_eq!(ctx.srange(a), (-1, 0));
    }

    #[test]
    fn low_extract_keeps_its_operands_interval_only_when_it_fits() {
        // The pushdown leaves low extracts only over variables and right
        // shifts, whose intervals are full or fit; so intern one directly,
        // over a sum in [100, 355] that 8 signed bits cannot hold.
        let mut ctx = Context::new();
        let x = ctx.var("x", 8);
        let wide = ctx.zero_ext(x, 8);
        let k = ctx.constant(100, 16);
        let sum = ctx.add(wide, k);
        let low = ctx.intern(Node::Extract(sum, 7, 0), 8);
        let env: HashMap<String, u64> = [("x".into(), 28u64)].into();
        let v = sext_val(ctx.eval(low, &env), 8);
        assert_eq!(v, -128);
        let (lo, hi) = ctx.srange(low);
        assert!(lo <= v && v <= hi, "{v} outside [{lo}, {hi}]");

        // One that fits keeps the operand's interval.
        let y = ctx.var("y", 16);
        let sh = ctx.ashr(y, 12);
        let low = ctx.extract(sh, 7, 0);
        assert!(matches!(ctx.node(low), Node::Extract(..)));
        assert_eq!(ctx.srange(low), (-8, 7));
    }
}

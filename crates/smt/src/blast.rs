//! Tseitin bit-blasting of terms to CNF.

use sat::{Lit, Solver};

use crate::term::{Context, Node, TermId};

/// Blasts terms into an underlying SAT solver. Each term becomes a vector
/// of literals, LSB first.
pub(crate) struct Blaster<'a> {
    ctx: &'a Context,
    pub(crate) sat: Solver,
    /// Each blasted term's literals, indexed by term id (empty until
    /// blasted: every term is at least one bit wide).
    bits: Vec<Vec<Lit>>,
    tt: Lit,
}

impl<'a> Blaster<'a> {
    pub(crate) fn new(ctx: &'a Context) -> Blaster<'a> {
        let mut sat = Solver::new();
        let tt = Lit::pos(sat.new_var());
        sat.add_clause([tt]);
        Blaster { ctx, sat, bits: vec![Vec::new(); ctx.len()], tt }
    }

    fn tt(&self) -> Lit {
        self.tt
    }

    fn ff(&self) -> Lit {
        !self.tt
    }

    fn fresh(&mut self) -> Lit {
        Lit::pos(self.sat.new_var())
    }

    fn const_bits(&self, value: u64, width: u32) -> Vec<Lit> {
        (0..width)
            .map(|i| if (value >> i) & 1 == 1 { self.tt() } else { self.ff() })
            .collect()
    }

    /// `x <-> a & b`.
    fn and2(&mut self, a: Lit, b: Lit) -> Lit {
        if a == self.ff() || b == self.ff() || a == !b {
            return self.ff();
        }
        if a == self.tt() || a == b {
            return b;
        }
        if b == self.tt() {
            return a;
        }
        let x = self.fresh();
        self.sat.add_clause([!x, a]);
        self.sat.add_clause([!x, b]);
        self.sat.add_clause([x, !a, !b]);
        x
    }

    /// `x <-> a | b`.
    fn or2(&mut self, a: Lit, b: Lit) -> Lit {
        
        !self.and2(!a, !b)
    }

    /// `x <-> a ^ b`.
    fn xor2(&mut self, a: Lit, b: Lit) -> Lit {
        if a == self.ff() {
            return b;
        }
        if b == self.ff() {
            return a;
        }
        if a == self.tt() {
            return !b;
        }
        if b == self.tt() {
            return !a;
        }
        if a == b {
            return self.ff();
        }
        if a == !b {
            return self.tt();
        }
        let x = self.fresh();
        self.sat.add_clause([!x, a, b]);
        self.sat.add_clause([!x, !a, !b]);
        self.sat.add_clause([x, !a, b]);
        self.sat.add_clause([x, a, !b]);
        x
    }

    /// `x <-> c ? t : e`.
    fn mux(&mut self, c: Lit, t: Lit, e: Lit) -> Lit {
        if t == e {
            return t;
        }
        if c == self.tt() {
            return t;
        }
        if c == self.ff() {
            return e;
        }
        let x = self.fresh();
        self.sat.add_clause([!c, !t, x]);
        self.sat.add_clause([!c, t, !x]);
        self.sat.add_clause([c, !e, x]);
        self.sat.add_clause([c, e, !x]);
        x
    }

    fn full_adder(&mut self, a: Lit, b: Lit, cin: Lit) -> (Lit, Lit) {
        let axb = self.xor2(a, b);
        let sum = self.xor2(axb, cin);
        let ab = self.and2(a, b);
        let axb_c = self.and2(axb, cin);
        let cout = self.or2(ab, axb_c);
        (sum, cout)
    }

    /// Ripple-carry addition of equal-width bit vectors.
    fn adder(&mut self, a: &[Lit], b: &[Lit], mut carry: Lit) -> Vec<Lit> {
        let mut out = Vec::with_capacity(a.len());
        for i in 0..a.len() {
            let (s, c) = self.full_adder(a[i], b[i], carry);
            out.push(s);
            carry = c;
        }
        out
    }

    /// Unsigned less-than: scan LSB to MSB, the most significant differing
    /// bit decides.
    fn ult_lit(&mut self, a: &[Lit], b: &[Lit]) -> Lit {
        let mut lt = self.ff();
        for i in 0..a.len() {
            let d = self.xor2(a[i], b[i]);
            lt = self.mux(d, b[i], lt);
        }
        lt
    }

    fn eq_lit(&mut self, a: &[Lit], b: &[Lit]) -> Lit {
        let mut acc = self.tt();
        for i in 0..a.len() {
            let x = self.xor2(a[i], b[i]);
            acc = self.and2(acc, !x);
        }
        acc
    }

    /// Bit vector of a term, LSB first (memoized).
    pub(crate) fn blast(&mut self, t: TermId) -> Vec<Lit> {
        if !self.bits[t.0 as usize].is_empty() {
            return self.bits[t.0 as usize].clone();
        }
        let w = self.ctx.width(t) as usize;
        let bits: Vec<Lit> = match self.ctx.node(t) {
            Node::Const { width, value } => self.const_bits(*value, *width),
            Node::Var { .. } => (0..w).map(|_| self.fresh()).collect(),
            Node::Add(a, b) => {
                let (a, b) = (self.blast(*a), self.blast(*b));
                let ff = self.ff();
                self.adder(&a, &b, ff)
            }
            Node::Sub(a, b) => {
                let (a, b) = (self.blast(*a), self.blast(*b));
                let nb: Vec<Lit> = b.iter().map(|&l| !l).collect();
                let tt = self.tt();
                self.adder(&a, &nb, tt)
            }
            Node::Mul(a, b) => {
                let (a, b) = (self.blast(*a), self.blast(*b));
                let mut acc = vec![self.ff(); w];
                for i in 0..w {
                    // acc[i..] += a[..w-i] & b[i]
                    let mut carry = self.ff();
                    for j in 0..w - i {
                        let pp = self.and2(a[j], b[i]);
                        let (s, c) = self.full_adder(acc[i + j], pp, carry);
                        acc[i + j] = s;
                        carry = c;
                    }
                }
                acc
            }
            Node::And(a, b) => {
                let (a, b) = (self.blast(*a), self.blast(*b));
                (0..w).map(|i| self.and2(a[i], b[i])).collect()
            }
            Node::Or(a, b) => {
                let (a, b) = (self.blast(*a), self.blast(*b));
                (0..w).map(|i| self.or2(a[i], b[i])).collect()
            }
            Node::Xor(a, b) => {
                let (a, b) = (self.blast(*a), self.blast(*b));
                (0..w).map(|i| self.xor2(a[i], b[i])).collect()
            }
            Node::Not(a) => self.blast(*a).iter().map(|&l| !l).collect(),
            Node::Shl(a, n) => {
                let a = self.blast(*a);
                let n = *n as usize;
                let mut out = vec![self.ff(); n];
                out.extend_from_slice(&a[..w - n]);
                out
            }
            Node::Lshr(a, n) => {
                let a = self.blast(*a);
                let n = *n as usize;
                let mut out = a[n..].to_vec();
                out.extend(std::iter::repeat_n(self.ff(), n));
                out
            }
            Node::Ashr(a, n) => {
                let a = self.blast(*a);
                let n = *n as usize;
                let msb = *a.last().expect("non-empty");
                let mut out = a[n..].to_vec();
                out.extend(std::iter::repeat_n(msb, n));
                out
            }
            Node::ZeroExt(a, extra) => {
                let a = self.blast(*a);
                let mut out = a;
                out.extend(std::iter::repeat_n(self.ff(), *extra as usize));
                out
            }
            Node::SignExt(a, extra) => {
                let a = self.blast(*a);
                let msb = *a.last().expect("non-empty");
                let mut out = a;
                out.extend(std::iter::repeat_n(msb, *extra as usize));
                out
            }
            Node::Extract(a, hi, lo) => {
                let a = self.blast(*a);
                a[*lo as usize..=*hi as usize].to_vec()
            }
            Node::Concat(hi, lo) => {
                let (hi, lo) = (self.blast(*hi), self.blast(*lo));
                let mut out = lo;
                out.extend(hi);
                out
            }
            Node::Eq(a, b) => {
                let (a, b) = (self.blast(*a), self.blast(*b));
                vec![self.eq_lit(&a, &b)]
            }
            Node::Ult(a, b) => {
                let (a, b) = (self.blast(*a), self.blast(*b));
                vec![self.ult_lit(&a, &b)]
            }
            Node::Slt(a, b) => {
                // Signed compare = unsigned compare with MSBs flipped.
                let (mut a, mut b) = (self.blast(*a), self.blast(*b));
                let la = a.len();
                a[la - 1] = !a[la - 1];
                let lb = b.len();
                b[lb - 1] = !b[lb - 1];
                vec![self.ult_lit(&a, &b)]
            }
            Node::Ite(c, t2, e) => {
                let c = self.blast(*c)[0];
                let (t2, e) = (self.blast(*t2), self.blast(*e));
                (0..w).map(|i| self.mux(c, t2[i], e[i])).collect()
            }
        };
        debug_assert_eq!(bits.len(), w);
        self.bits[t.0 as usize] = bits.clone();
        bits
    }

    /// Assert a width-1 term to be 1.
    pub(crate) fn assert_true(&mut self, t: TermId) {
        assert_eq!(self.ctx.width(t), 1, "assertions must have width 1");
        let bits = self.blast(t);
        self.sat.add_clause([bits[0]]);
    }

    /// Literals of a term if it has been blasted.
    pub(crate) fn bits_of(&self, t: TermId) -> Option<&[Lit]> {
        Some(self.bits[t.0 as usize].as_slice()).filter(|b| !b.is_empty())
    }
}

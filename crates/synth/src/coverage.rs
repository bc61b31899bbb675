//! Synthesis-rule and opcode coverage counters for the conformance
//! harness (`crates/conform`).
//!
//! Two instrumentation points:
//!
//! * **Lifting rules**: every *accepted* candidate in [`crate::lift`] is
//!   produced by one named rule site (the catalog below). Under the
//!   `coverage` feature each acceptance bumps a relaxed atomic counter;
//!   without the feature [`record_rule`] compiles to nothing, so the
//!   default build is unchanged.
//! * **HVX opcodes**: [`record_program`] folds a compiled program's
//!   instruction mnemonics into a histogram, measured against the
//!   [`OPCODES`] catalog of every mnemonic the ISA model can emit.
//!
//! A conformance run snapshots both tables at the end and reports which
//! rules and opcodes its corpus never reached, so new expressions can be
//! seeded toward the gaps (see `conform --coverage-out`).

/// Every named lifting-rule site in [`crate::lift`], in catalog order.
/// The names are stable identifiers (they appear in coverage reports and
/// waiver tables): `<halide-op>.<what the rule does>`.
pub const RULES: &[&str] = &[
    "leaf.load",
    "leaf.imm-broadcast",
    "leaf.scalar-broadcast",
    "addsub.vsmpy-update",
    "addsub.vsmpy-extend",
    "add.vvmpy-merge",
    "mul.imm-weight-fold",
    "mul.widen-strip-vvmpy",
    "mul.vvmpy-extend",
    "min.extend",
    "max.extend",
    "absd.extend",
    "shl.weight-fold",
    "shl.extend",
    "shr.average",
    "narrow.widen-identity",
    "narrow.deepen",
    "narrow.strip-clamp",
    "narrow.strip-rounding",
    "narrow.fuse",
    "widen.vsmpy-output",
    "widen.extend",
];

/// Every instruction mnemonic [`hvx::Op::mnemonic`] can render — the
/// measuring stick for opcode coverage. Kept in sync by the
/// `opcode_catalog_matches_the_isa` test in `tests/cross_stack.rs`.
pub const OPCODES: &[&str] = &[
    "vmem",
    "vsplat",
    "vadd",
    "vadd:sat",
    "vsub",
    "vsub:sat",
    "vavg",
    "vavg:rnd",
    "vnavg",
    "vabsdiff",
    "vmax",
    "vmin",
    "vand",
    "vor",
    "vxor",
    "vnot",
    "vasl",
    "vasr",
    "vlsr",
    "vasr-narrow",
    "vasr-narrow:rnd",
    "vasr-narrow:sat",
    "vasr-narrow:rnd:sat",
    "vmpy",
    "vmpy-acc",
    "vmpyi",
    "vmpyi-acc",
    "vmpyie",
    "vmpyio",
    "vmpa",
    "vmpa-acc",
    "vtmpy",
    "vtmpy-acc",
    "vdmpy",
    "vdmpy-acc",
    "vrmpy",
    "vrmpy-acc",
    "vpack:sat",
    "vshuffe",
    "vcombine",
    "lo",
    "hi",
    "vshuffvdd",
    "vdealvdd",
    "valign",
    "vror",
    "vzxt",
    "vsxt",
];

#[cfg(feature = "coverage")]
mod counters {
    use std::sync::atomic::{AtomicU64, Ordering};

    const N_RULES: usize = super::RULES.len();
    const N_OPS: usize = super::OPCODES.len();
    #[allow(clippy::declare_interior_mutable_const)]
    const ZERO: AtomicU64 = AtomicU64::new(0);
    static RULE_HITS: [AtomicU64; N_RULES] = [ZERO; N_RULES];
    static OP_HITS: [AtomicU64; N_OPS] = [ZERO; N_OPS];

    pub(super) fn bump_rule(site: &str) {
        if let Some(i) = super::RULES.iter().position(|r| *r == site) {
            RULE_HITS[i].fetch_add(1, Ordering::Relaxed);
        }
    }

    pub(super) fn bump_op(mnemonic: &str) {
        if let Some(i) = super::OPCODES.iter().position(|o| *o == mnemonic) {
            OP_HITS[i].fetch_add(1, Ordering::Relaxed);
        }
    }

    pub(super) fn rule_hits() -> Vec<u64> {
        RULE_HITS.iter().map(|c| c.load(Ordering::Relaxed)).collect()
    }

    pub(super) fn op_hits() -> Vec<u64> {
        OP_HITS.iter().map(|c| c.load(Ordering::Relaxed)).collect()
    }

    pub(super) fn reset() {
        for c in &RULE_HITS {
            c.store(0, Ordering::Relaxed);
        }
        for c in &OP_HITS {
            c.store(0, Ordering::Relaxed);
        }
    }
}

/// Record one accepted firing of the named lifting-rule site. A no-op
/// without the `coverage` feature.
#[inline]
pub fn record_rule(site: &'static str) {
    #[cfg(feature = "coverage")]
    counters::bump_rule(site);
    #[cfg(not(feature = "coverage"))]
    let _ = site;
}

/// Fold a compiled HVX program's instruction mnemonics into the opcode
/// histogram. A no-op without the `coverage` feature.
pub fn record_program(program: &hvx::Program) {
    #[cfg(feature = "coverage")]
    for instr in program.instrs() {
        counters::bump_op(&instr.op.mnemonic());
    }
    #[cfg(not(feature = "coverage"))]
    let _ = program;
}

/// Per-rule hit counts in [`RULES`] order (all zero without the
/// `coverage` feature).
pub fn rule_counts() -> Vec<(&'static str, u64)> {
    #[cfg(feature = "coverage")]
    {
        RULES.iter().copied().zip(counters::rule_hits()).collect()
    }
    #[cfg(not(feature = "coverage"))]
    {
        RULES.iter().map(|r| (*r, 0)).collect()
    }
}

/// Per-opcode hit counts in [`OPCODES`] order (all zero without the
/// `coverage` feature).
pub fn opcode_counts() -> Vec<(&'static str, u64)> {
    #[cfg(feature = "coverage")]
    {
        OPCODES.iter().copied().zip(counters::op_hits()).collect()
    }
    #[cfg(not(feature = "coverage"))]
    {
        OPCODES.iter().map(|o| (*o, 0)).collect()
    }
}

/// Zero every counter (a conformance run resets before it starts so the
/// report reflects only its own corpus).
pub fn reset() {
    #[cfg(feature = "coverage")]
    counters::reset();
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catalogs_are_unique() {
        for (i, r) in RULES.iter().enumerate() {
            assert!(!RULES[i + 1..].contains(r), "duplicate rule {r}");
        }
        for (i, o) in OPCODES.iter().enumerate() {
            assert!(!OPCODES[i + 1..].contains(o), "duplicate opcode {o}");
        }
    }

    #[test]
    fn snapshots_cover_the_catalogs() {
        let rules = rule_counts();
        assert_eq!(rules.len(), RULES.len());
        let ops = opcode_counts();
        assert_eq!(ops.len(), OPCODES.len());
    }

    #[cfg(feature = "coverage")]
    #[test]
    fn recording_is_visible_in_snapshots_and_reset_clears() {
        reset();
        record_rule("min.extend");
        record_rule("min.extend");
        let hits: std::collections::HashMap<_, _> = rule_counts().into_iter().collect();
        assert_eq!(hits["min.extend"], 2);
        reset();
        let hits: std::collections::HashMap<_, _> = rule_counts().into_iter().collect();
        assert_eq!(hits["min.extend"], 0);
    }
}

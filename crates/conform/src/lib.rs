//! # rake-conform — metamorphic + differential conformance harness
//!
//! Point checks (the oracle's random expressions, the workloads' golden
//! outputs) leave whole bug classes unprobed: rewrites that are
//! individually verified but compose incorrectly, cost regressions, and
//! cache interactions. This crate closes that gap with *metamorphic
//! relations*: semantics-preserving Halide-IR transformations
//! ([`relations`]) under which the compiled HVX output must stay
//! lane-for-lane identical and the cost must stay inside a declared
//! envelope.
//!
//! The harness ([`harness`]) applies the catalog to the 21 paper
//! workloads plus oracle-generated and coverage-seeded expressions,
//! compiles both sides of every pair through the driver service layer
//! (or over HTTP via `rake-served`), executes them on adversarial
//! environments, and delta-debugs any violation into a self-contained
//! repro under `results/repros/conform/`.
//!
//! A coverage layer (`synth::coverage`, enabled here via the `coverage`
//! feature) counts lifting-rule firings and emitted HVX opcodes so each
//! run can report which parts of the uber-IR rule space the corpus never
//! reached ([`report`]); gaps drive the seeded corpus.

pub mod harness;
pub mod relations;
pub mod report;

pub use harness::{run, HarnessConfig, RelationStats, Summary};
pub use relations::{catalog, Applied, Envelope, Relation};
pub use report::{coverage_report, waivers, Waiver, WaiverKind};

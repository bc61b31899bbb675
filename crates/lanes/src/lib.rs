//! Typed fixed-point lane arithmetic.
//!
//! This crate is the numeric substrate shared by every interpreter in the
//! Rake reproduction: the Halide IR interpreter, the Uber-Instruction IR
//! interpreter and the HVX instruction-set model all compute on the same
//! canonical scalar representation so that cross-level equivalence checks
//! compare like with like.
//!
//! A scalar value of element type `t` is stored as an `i64` holding the
//! *canonical* value: for unsigned types the plain value in `0..=t.max()`,
//! for signed types the sign-extended value in `t.min()..=t.max()`. All
//! operations take and return canonical values; [`ElemType::wrap`] and
//! [`ElemType::saturate`] are the two ways of re-canonicalizing a wider
//! intermediate result.
//!
//! # Example
//!
//! ```
//! use lanes::{ElemType, Vector};
//!
//! let a = Vector::splat(ElemType::U8, 200, 4);
//! let b = Vector::splat(ElemType::U8, 100, 4);
//! let wrapped = a.zip(&b, |x, y| ElemType::U8.wrap(x + y));
//! let saturated = a.zip(&b, |x, y| ElemType::U8.saturate(x + y));
//! assert_eq!(wrapped.get(0), 44);      // 300 mod 256
//! assert_eq!(saturated.get(0), 255);   // clamped
//! ```

mod elem;
mod fx;
mod ops;
pub mod rng;
mod vector;

pub use elem::ElemType;
pub use fx::{FxHashMap, FxHasher};
pub use ops::{
    absd, add_sat, add_wrap, asr, asr_rnd, asr_rnd_sat, avg, lsr, max, min, mul_wrap, navg, shl,
    sub_sat, sub_wrap,
};
#[cfg(any(test, feature = "test-fixtures"))]
pub use ops::broken_avg;
pub use vector::Vector;

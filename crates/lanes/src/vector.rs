//! Typed vector values.

use std::fmt;

use crate::ElemType;

/// A typed vector value: an element type plus one canonical `i64` per lane.
///
/// This is the value domain of the Halide IR and Uber-Instruction IR
/// interpreters. (The HVX model uses raw byte registers instead, and
/// converts through [`Vector::to_le_bytes`] / [`Vector::from_le_bytes`].)
///
/// # Example
///
/// ```
/// use lanes::{ElemType, Vector};
///
/// let v = Vector::from_fn(ElemType::I16, 4, |i| i as i64 * 10);
/// assert_eq!(v.lanes(), 4);
/// assert_eq!(v.get(3), 30);
/// let bytes = v.to_le_bytes();
/// assert_eq!(Vector::from_le_bytes(ElemType::I16, &bytes), v);
/// ```
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct Vector {
    ty: ElemType,
    data: Vec<i64>,
}

impl Vector {
    /// Build a vector from explicit canonical lane values.
    ///
    /// # Panics
    ///
    /// Panics if any value is outside the canonical range of `ty`.
    pub fn new(ty: ElemType, data: Vec<i64>) -> Vector {
        for (i, &v) in data.iter().enumerate() {
            assert!(ty.contains(v), "lane {i} value {v} not canonical for {ty}");
        }
        Vector { ty, data }
    }

    /// Build a vector by wrapping each value into the canonical range.
    pub fn new_wrapped(ty: ElemType, data: impl IntoIterator<Item = i64>) -> Vector {
        Vector { ty, data: data.into_iter().map(|v| ty.wrap(v)).collect() }
    }

    /// A vector with every lane equal to `value` (wrapped).
    pub fn splat(ty: ElemType, value: i64, lanes: usize) -> Vector {
        Vector { ty, data: vec![ty.wrap(value); lanes] }
    }

    /// Build a vector lane-by-lane from a function of the lane index.
    pub fn from_fn(ty: ElemType, lanes: usize, f: impl FnMut(usize) -> i64) -> Vector {
        Vector { ty, data: (0..lanes).map(f).map(|v| ty.wrap(v)).collect() }
    }

    /// The element type.
    pub fn ty(&self) -> ElemType {
        self.ty
    }

    /// The number of lanes.
    pub fn lanes(&self) -> usize {
        self.data.len()
    }

    /// The canonical value of lane `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of bounds.
    pub fn get(&self, i: usize) -> i64 {
        self.data[i]
    }

    /// Overwrite lane `i` with `v` (wrapped).
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of bounds.
    pub fn set(&mut self, i: usize, v: i64) {
        self.data[i] = self.ty.wrap(v);
    }

    /// Iterate over canonical lane values.
    pub fn iter(&self) -> impl Iterator<Item = i64> + '_ {
        self.data.iter().copied()
    }

    /// The lanes as a slice of canonical values.
    pub fn as_slice(&self) -> &[i64] {
        &self.data
    }

    /// Apply `f` to each lane; the results are wrapped into `self.ty()`.
    pub fn map(&self, mut f: impl FnMut(i64) -> i64) -> Vector {
        Vector::from_fn(self.ty, self.lanes(), |i| f(self.data[i]))
    }

    /// Apply `f` to each lane, producing a vector of a different type.
    pub fn map_to(&self, ty: ElemType, mut f: impl FnMut(i64) -> i64) -> Vector {
        Vector::from_fn(ty, self.lanes(), |i| f(self.data[i]))
    }

    /// Combine two same-length vectors lane-wise; results wrap into
    /// `self.ty()`.
    ///
    /// # Panics
    ///
    /// Panics if the lane counts differ.
    pub fn zip(&self, other: &Vector, mut f: impl FnMut(i64, i64) -> i64) -> Vector {
        assert_eq!(self.lanes(), other.lanes(), "lane count mismatch");
        Vector::from_fn(self.ty, self.lanes(), |i| f(self.data[i], other.data[i]))
    }

    /// Combine two same-length vectors lane-wise into a vector of type `ty`.
    ///
    /// # Panics
    ///
    /// Panics if the lane counts differ.
    pub fn zip_to(
        &self,
        other: &Vector,
        ty: ElemType,
        mut f: impl FnMut(i64, i64) -> i64,
    ) -> Vector {
        assert_eq!(self.lanes(), other.lanes(), "lane count mismatch");
        Vector::from_fn(ty, self.lanes(), |i| f(self.data[i], other.data[i]))
    }

    /// Lane-wise cast to `ty`, truncating (wrap) or saturating.
    pub fn cast(&self, ty: ElemType, saturate: bool) -> Vector {
        let f = if saturate { ElemType::saturate } else { ElemType::wrap };
        Vector { ty, data: self.data.iter().map(|&v| f(ty, v)).collect() }
    }

    /// Serialize to little-endian bytes (`lanes * ty.bytes()` long), the
    /// layout an HVX register holds.
    pub fn to_le_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.lanes() * self.ty.bytes());
        self.extend_le_bytes(&mut out);
        out
    }

    /// Append the little-endian bytes of every lane to `out`. Canonical
    /// values truncate to their two's-complement bit pattern, so each
    /// width is one plain cast per lane.
    pub fn extend_le_bytes(&self, out: &mut Vec<u8>) {
        let start = out.len();
        out.resize(start + self.data.len() * self.ty.bytes(), 0);
        let dst = &mut out[start..];
        match self.ty.bytes() {
            1 => {
                for (d, &v) in dst.iter_mut().zip(&self.data) {
                    *d = v as u8;
                }
            }
            2 => {
                for (d, &v) in dst.chunks_exact_mut(2).zip(&self.data) {
                    d.copy_from_slice(&(v as u16).to_le_bytes());
                }
            }
            _ => {
                for (d, &v) in dst.chunks_exact_mut(4).zip(&self.data) {
                    d.copy_from_slice(&(v as u32).to_le_bytes());
                }
            }
        }
    }

    /// Deserialize from little-endian bytes.
    ///
    /// # Panics
    ///
    /// Panics if `bytes.len()` is not a multiple of `ty.bytes()`.
    pub fn from_le_bytes(ty: ElemType, bytes: &[u8]) -> Vector {
        assert_eq!(bytes.len() % ty.bytes(), 0, "byte length not a multiple of element size");
        let data = match ty {
            ElemType::U8 => bytes.iter().map(|&b| i64::from(b)).collect(),
            ElemType::I8 => bytes.iter().map(|&b| i64::from(b as i8)).collect(),
            ElemType::U16 => {
                bytes.chunks_exact(2).map(|c| i64::from(u16::from_le_bytes([c[0], c[1]]))).collect()
            }
            ElemType::I16 => {
                bytes.chunks_exact(2).map(|c| i64::from(i16::from_le_bytes([c[0], c[1]]))).collect()
            }
            ElemType::U32 => bytes
                .chunks_exact(4)
                .map(|c| i64::from(u32::from_le_bytes([c[0], c[1], c[2], c[3]])))
                .collect(),
            ElemType::I32 => bytes
                .chunks_exact(4)
                .map(|c| i64::from(i32::from_le_bytes([c[0], c[1], c[2], c[3]])))
                .collect(),
        };
        Vector { ty, data }
    }

    /// Concatenate two vectors of the same element type.
    ///
    /// # Panics
    ///
    /// Panics if the element types differ.
    pub fn concat(&self, other: &Vector) -> Vector {
        assert_eq!(self.ty, other.ty, "element type mismatch");
        let mut data = self.data.clone();
        data.extend_from_slice(&other.data);
        Vector { ty: self.ty, data }
    }

    /// A sub-range of lanes `[start, start + len)`.
    ///
    /// # Panics
    ///
    /// Panics if the range is out of bounds.
    pub fn slice(&self, start: usize, len: usize) -> Vector {
        Vector { ty: self.ty, data: self.data[start..start + len].to_vec() }
    }
}

impl fmt::Debug for Vector {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}x{}{:?}", self.ty, self.lanes(), self.data)
    }
}

impl fmt::Display for Vector {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}x{}[", self.ty, self.lanes())?;
        for (i, v) in self.data.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{v}")?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_access() {
        let v = Vector::new(ElemType::U8, vec![1, 2, 3]);
        assert_eq!(v.lanes(), 3);
        assert_eq!(v.get(1), 2);
        assert_eq!(v.ty(), ElemType::U8);
    }

    #[test]
    #[should_panic(expected = "not canonical")]
    fn new_rejects_out_of_range() {
        let _ = Vector::new(ElemType::U8, vec![300]);
    }

    #[test]
    fn new_wrapped_wraps() {
        let v = Vector::new_wrapped(ElemType::U8, [300, -1]);
        assert_eq!(v.as_slice(), &[44, 255]);
    }

    #[test]
    fn cast_truncating_vs_saturating() {
        let v = Vector::new(ElemType::I16, vec![300, -5, 100]);
        assert_eq!(v.cast(ElemType::U8, false).as_slice(), &[44, 251, 100]);
        assert_eq!(v.cast(ElemType::U8, true).as_slice(), &[255, 0, 100]);
    }

    #[test]
    fn concat_and_slice() {
        let a = Vector::new(ElemType::U8, vec![1, 2]);
        let b = Vector::new(ElemType::U8, vec![3, 4]);
        let c = a.concat(&b);
        assert_eq!(c.as_slice(), &[1, 2, 3, 4]);
        assert_eq!(c.slice(1, 2).as_slice(), &[2, 3]);
    }

    #[test]
    fn byte_layout_is_little_endian() {
        let v = Vector::new(ElemType::I16, vec![-2, 0x0102]);
        assert_eq!(v.to_le_bytes(), vec![0xfe, 0xff, 0x02, 0x01]);
    }

    #[test]
    fn display_is_nonempty() {
        let v = Vector::new(ElemType::U8, vec![]);
        assert_eq!(format!("{v}"), "u8x0[]");
    }

    fn random_data(rng: &mut crate::rng::Rng, ty: ElemType, min_len: usize) -> Vec<i64> {
        let len = rng.gen_range_usize(min_len..=15);
        (0..len).map(|_| rng.gen_range(ty.min_value()..=ty.max_value())).collect()
    }

    #[test]
    fn prop_bytes_roundtrip() {
        let mut rng = crate::rng::Rng::seed_from_u64(0xb17e5);
        for _ in 0..256 {
            let v = Vector::new(ElemType::I16, random_data(&mut rng, ElemType::I16, 0));
            let back = Vector::from_le_bytes(ElemType::I16, &v.to_le_bytes());
            assert_eq!(v, back);
        }
    }

    /// The width-generic codec the specialised one replaced: the reference
    /// it must agree with byte for byte.
    fn reference_to_le_bytes(v: &Vector) -> Vec<u8> {
        let mut out = Vec::new();
        for x in v.iter() {
            out.extend_from_slice(&v.ty().to_bits(x).to_le_bytes()[..v.ty().bytes()]);
        }
        out
    }

    fn reference_from_le_bytes(ty: ElemType, bytes: &[u8]) -> Vec<i64> {
        bytes
            .chunks_exact(ty.bytes())
            .map(|chunk| {
                let mut raw = [0u8; 8];
                raw[..chunk.len()].copy_from_slice(chunk);
                ty.wrap(u64::from_le_bytes(raw) as i64)
            })
            .collect()
    }

    #[test]
    fn codec_matches_the_generic_loop_for_every_type() {
        let mut rng = crate::rng::Rng::seed_from_u64(0xc0dec);
        for ty in ElemType::ALL {
            let mut data = vec![ty.min_value(), ty.max_value(), 0, 1, ty.wrap(-1)];
            if ty.is_signed() {
                data.extend([-1, ty.min_value() + 1, ty.max_value() - 1]);
            }
            data.extend((0..64).map(|_| rng.gen_range(ty.min_value()..=ty.max_value())));
            let v = Vector::new(ty, data);
            let bytes = v.to_le_bytes();
            assert_eq!(bytes, reference_to_le_bytes(&v), "{ty} encode");
            assert_eq!(Vector::from_le_bytes(ty, &bytes), v, "{ty} round trip");
            assert_eq!(
                Vector::from_le_bytes(ty, &bytes).as_slice(),
                reference_from_le_bytes(ty, &bytes)
            );
            let mut appended = vec![0xaa];
            v.extend_le_bytes(&mut appended);
            assert_eq!(appended[1..], bytes[..], "{ty} append");
        }
    }

    #[test]
    fn prop_zip_commutes_with_map() {
        let mut rng = crate::rng::Rng::seed_from_u64(0x217);
        for _ in 0..256 {
            let v = Vector::new(ElemType::U8, random_data(&mut rng, ElemType::U8, 1));
            let doubled = v.zip(&v, |a, b| a + b);
            let mapped = v.map(|a| a * 2);
            assert_eq!(doubled, mapped);
        }
    }
}

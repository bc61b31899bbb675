//! 2-D input buffers and evaluation environments.

use std::collections::BTreeMap;
use std::sync::Arc;

use lanes::ElemType;

/// A row-major 2-D buffer of canonical scalar values with clamp-to-edge
/// boundary handling (the boundary condition a scheduled Halide pipeline
/// applies to its inputs).
///
/// Every element type is at most 32 bits wide, so a cell holds the value's
/// 32-bit two's-complement pattern; [`Buffer2D::get`] returns the canonical
/// `i64`.
///
/// Cells are shared: cloning a buffer or [renaming](Buffer2D::renamed) it
/// copies no cells, and [`Buffer2D::set`] copies them on first write, so a
/// write never shows through another holder of the same cells.
///
/// # Example
///
/// ```
/// use halide_ir::Buffer2D;
/// use lanes::ElemType;
///
/// let b = Buffer2D::from_fn("in", ElemType::U8, 4, 2, |x, y| (x + 10 * y) as i64);
/// assert_eq!(b.get(1, 1), 11);
/// assert_eq!(b.get(-5, 0), 0);   // clamped to column 0
/// assert_eq!(b.get(9, 9), 13);   // clamped to (3, 1)
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Buffer2D {
    name: String,
    elem: ElemType,
    width: usize,
    height: usize,
    data: Arc<[i32]>,
}

impl Buffer2D {
    /// Build a buffer by evaluating `f(x, y)` for every site; values are
    /// wrapped into the element type.
    ///
    /// # Panics
    ///
    /// Panics if `width` or `height` is zero.
    pub fn from_fn(
        name: &str,
        elem: ElemType,
        width: usize,
        height: usize,
        mut f: impl FnMut(usize, usize) -> i64,
    ) -> Buffer2D {
        assert!(width > 0 && height > 0, "buffer dimensions must be positive");
        let mut data = Vec::with_capacity(width * height);
        for y in 0..height {
            for x in 0..width {
                data.push(elem.wrap(f(x, y)) as i32);
            }
        }
        Buffer2D { name: name.to_owned(), elem, width, height, data: data.into() }
    }

    /// The same cells under another name, sharing them rather than
    /// copying.
    pub fn renamed(&self, name: &str) -> Buffer2D {
        Buffer2D { name: name.to_owned(), ..self.clone() }
    }

    /// A buffer filled with a constant.
    ///
    /// # Panics
    ///
    /// Panics if `width` or `height` is zero.
    pub fn filled(name: &str, elem: ElemType, width: usize, height: usize, v: i64) -> Buffer2D {
        Buffer2D::from_fn(name, elem, width, height, |_, _| v)
    }

    /// Buffer name (the key loads refer to).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Element type.
    pub fn elem(&self) -> ElemType {
        self.elem
    }

    /// Width in elements.
    pub fn width(&self) -> usize {
        self.width
    }

    /// Height in rows.
    pub fn height(&self) -> usize {
        self.height
    }

    /// Read with clamp-to-edge semantics: out-of-range coordinates are
    /// clamped to the nearest valid site.
    pub fn get(&self, x: i64, y: i64) -> i64 {
        let cx = x.clamp(0, self.width as i64 - 1) as usize;
        let cy = y.clamp(0, self.height as i64 - 1) as usize;
        let cell = self.data[cy * self.width + cx];
        if self.elem == ElemType::U32 {
            i64::from(cell as u32)
        } else {
            i64::from(cell)
        }
    }

    /// Overwrite a site (wrapped into the element type). Cells shared with
    /// another buffer are copied first.
    ///
    /// # Panics
    ///
    /// Panics if the coordinates are out of bounds — writes never clamp.
    pub fn set(&mut self, x: usize, y: usize, v: i64) {
        assert!(x < self.width && y < self.height, "write out of bounds");
        Arc::make_mut(&mut self.data)[y * self.width + x] = self.elem.wrap(v) as i32;
    }
}

/// A named collection of input buffers — the evaluation environment of an
/// expression.
#[derive(Debug, Clone, Default)]
pub struct Env {
    buffers: BTreeMap<String, Buffer2D>,
}

impl Env {
    /// An empty environment.
    pub fn new() -> Env {
        Env::default()
    }

    /// Insert (or replace) a buffer, keyed by its name. Returns the
    /// previous buffer with that name, if any.
    pub fn insert(&mut self, buffer: Buffer2D) -> Option<Buffer2D> {
        self.buffers.insert(buffer.name().to_owned(), buffer)
    }

    /// Look up a buffer by name.
    pub fn get(&self, name: &str) -> Option<&Buffer2D> {
        self.buffers.get(name)
    }

    /// Look up a buffer by name, mutably (used by the differential
    /// oracle's input shrinker to zero cells in place).
    pub fn get_mut(&mut self, name: &str) -> Option<&mut Buffer2D> {
        self.buffers.get_mut(name)
    }

    /// Iterate over buffers in name order.
    pub fn iter(&self) -> impl Iterator<Item = &Buffer2D> {
        self.buffers.values()
    }
}

impl FromIterator<Buffer2D> for Env {
    fn from_iter<I: IntoIterator<Item = Buffer2D>>(iter: I) -> Env {
        let mut env = Env::new();
        for b in iter {
            env.insert(b);
        }
        env
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clamp_to_edge() {
        let b = Buffer2D::from_fn("b", ElemType::I16, 3, 3, |x, y| (x * 10 + y) as i64);
        assert_eq!(b.get(-1, -1), b.get(0, 0));
        assert_eq!(b.get(3, 1), b.get(2, 1));
        assert_eq!(b.get(1, 100), b.get(1, 2));
    }

    #[test]
    fn values_wrap_into_elem_type() {
        let b = Buffer2D::from_fn("b", ElemType::U8, 2, 1, |x, _| 300 + x as i64);
        assert_eq!(b.get(0, 0), 44);
        assert_eq!(b.get(1, 0), 45);
    }

    #[test]
    fn set_then_get_returns_each_types_extremes() {
        for ty in ElemType::ALL {
            let mut b = Buffer2D::filled("b", ty, 2, 1, 0);
            b.set(0, 0, ty.min_value());
            b.set(1, 0, ty.max_value());
            assert_eq!(b.get(0, 0), ty.min_value(), "{ty} min");
            assert_eq!(b.get(1, 0), ty.max_value(), "{ty} max");
            // Clamp-to-edge reads the same cells from outside the buffer.
            assert_eq!(b.get(-3, 5), ty.min_value(), "{ty} clamped min");
            assert_eq!(b.get(7, -2), ty.max_value(), "{ty} clamped max");
            // Writes still wrap into the element type.
            b.set(0, 0, ty.max_value() + 1);
            assert_eq!(b.get(0, 0), ty.min_value(), "{ty} wrap");
        }
    }

    #[test]
    fn env_lookup_and_replace() {
        let mut env = Env::new();
        assert!(env.insert(Buffer2D::filled("a", ElemType::U8, 1, 1, 7)).is_none());
        assert_eq!(env.get("a").unwrap().get(0, 0), 7);
        let old = env.insert(Buffer2D::filled("a", ElemType::U8, 1, 1, 9)).unwrap();
        assert_eq!(old.get(0, 0), 7);
        assert_eq!(env.get("a").unwrap().get(0, 0), 9);
        assert!(env.get("missing").is_none());
    }

    #[test]
    fn env_from_iterator() {
        let env: Env = [
            Buffer2D::filled("x", ElemType::U8, 1, 1, 1),
            Buffer2D::filled("y", ElemType::U8, 1, 1, 2),
        ]
        .into_iter()
        .collect();
        assert_eq!(env.iter().count(), 2);
    }

    #[test]
    fn writes_do_not_show_through_shared_cells() {
        let a = Buffer2D::from_fn("a", ElemType::U8, 2, 1, |x, _| x as i64);
        let mut b = a.renamed("b");
        assert_eq!((b.name(), b.get(1, 0)), ("b", 1));
        b.set(1, 0, 9);
        assert_eq!((a.get(1, 0), b.get(1, 0)), (1, 9));
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn set_does_not_clamp() {
        let mut b = Buffer2D::filled("b", ElemType::U8, 2, 2, 0);
        b.set(2, 0, 1);
    }
}

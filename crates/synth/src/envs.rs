//! Test-environment generation for differential verification.
//!
//! Counterexample-guided search needs input environments that actually
//! distinguish wrong candidates. We combine adversarial fills (extremes,
//! near-saturation, sign boundaries, alternation) with seeded random fills.
//!
//! A test buffer's cells are a pure function of its element type, size and
//! fill, so each is generated once per process into a table bounded by
//! `TABLE_CAP_BYTES` and shared by name-renamed copies: a family costs a
//! lookup per buffer, not a refill. An insert that would pass the cap
//! clears the table first; cells regenerate identically, so eviction never
//! changes a verdict.

use std::collections::{BTreeMap, HashMap};
use std::sync::{Mutex, OnceLock, PoisonError};

use halide_ir::{Buffer2D, Env};
use lanes::ElemType;
use lanes::rng::Rng;

/// The buffers an expression reads: name → element type.
pub type BufferSpec = BTreeMap<String, ElemType>;

/// Byte cap of the process-wide buffer table. The full-width paper suite
/// peaks near 2 MB, the fuzz corpus near 0.4 MB.
const TABLE_CAP_BYTES: usize = 8 << 20;

/// The adversarial fills, in environment order: a cell's value from its
/// element type and coordinates.
const ADVERSARIAL: [fn(ElemType, usize, usize) -> i64; 9] = [
    |_t, _x, _y| 0,
    |t, _x, _y| t.max_value(),
    |t, _x, _y| t.min_value(),
    |t, x, _y| if x % 2 == 0 { t.max_value() } else { 0 },
    |t, x, y| if (x + y) % 2 == 0 { t.max_value() } else { t.min_value() },
    |t, x, _y| t.wrap(t.max_value() - x as i64),
    |t, x, y| t.wrap((x * 7 + y * 13) as i64),
    // One inside the extremes: MIN+1/MAX-1 catch off-by-one clamps that
    // the exact extremes mask.
    |t, x, _y| if x % 2 == 0 { t.max_value() - 1 } else { t.min_value() + 1 },
    // Rounding cut-points: ±1 around powers of two, where round-then-shift
    // and saturation decisions flip.
    |t, x, y| {
        let k = 1 + ((x + y * 3) as u32 % (t.bits() - 1));
        t.wrap((1i64 << k) + (x % 3) as i64 - 1)
    },
];

/// What a test buffer is filled with.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum Fill {
    /// The `ADVERSARIAL` pattern at this index.
    Adversarial(usize),
    /// Uniform random cells from this seed.
    Random(u64),
}

type CellKey = (ElemType, usize, usize, Fill);

#[derive(Default)]
struct Table {
    cells: HashMap<CellKey, Buffer2D>,
    bytes: usize,
}

fn table() -> &'static Mutex<Table> {
    static TABLE: OnceLock<Mutex<Table>> = OnceLock::new();
    TABLE.get_or_init(Mutex::default)
}

/// Buffer `name` with the cells of `fill`, shared through the table.
/// Generation runs outside the table's lock.
fn shared(name: &str, ty: ElemType, width: usize, height: usize, fill: Fill) -> Buffer2D {
    let key = (ty, width, height, fill);
    if let Some(b) = table().lock().unwrap_or_else(PoisonError::into_inner).cells.get(&key) {
        return b.renamed(name);
    }
    let b = match fill {
        Fill::Adversarial(k) => {
            Buffer2D::from_fn(name, ty, width, height, |x, y| ADVERSARIAL[k](ty, x, y))
        }
        Fill::Random(seed) => {
            let mut rng = Rng::seed_from_u64(seed);
            Buffer2D::from_fn(name, ty, width, height, |_x, _y| {
                rng.gen_range(ty.min_value()..=ty.max_value())
            })
        }
    };
    let size = width * height * std::mem::size_of::<i32>();
    if size > TABLE_CAP_BYTES {
        return b;
    }
    let mut guard = table().lock().unwrap_or_else(PoisonError::into_inner);
    let t = &mut *guard;
    if t.bytes + size > TABLE_CAP_BYTES {
        t.cells.clear();
        t.bytes = 0;
    }
    t.cells
        .entry(key)
        .or_insert_with(|| {
            t.bytes += size;
            b
        })
        .renamed(name)
}

/// Deterministically generate a family of test environments for the given
/// buffers. `width`/`height` must cover the tile plus any stencil halo.
///
/// The first environments are adversarial (constant extremes, alternating
/// patterns, saturation edges); the rest are seeded-random.
pub fn test_envs(spec: &BufferSpec, width: usize, height: usize, random: usize) -> Vec<Env> {
    let env = |fill: &dyn Fn(usize) -> Fill| -> Env {
        spec.iter()
            .enumerate()
            .map(|(bi, (name, &ty))| shared(name, ty, width, height, fill(bi)))
            .collect()
    };
    let mut envs: Vec<Env> =
        (0..ADVERSARIAL.len()).map(|k| env(&|_| Fill::Adversarial(k))).collect();
    envs.extend((0..random as u64).map(|seed| env(&|bi| Fill::Random(seed * 1031 + bi as u64))));
    envs
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec() -> BufferSpec {
        [("a".to_owned(), ElemType::U8), ("b".to_owned(), ElemType::I16)].into_iter().collect()
    }

    #[test]
    fn generates_requested_count() {
        let envs = test_envs(&spec(), 8, 2, 5);
        assert_eq!(envs.len(), 9 + 5);
        for env in &envs {
            assert_eq!(env.get("a").unwrap().elem(), ElemType::U8);
            assert_eq!(env.get("b").unwrap().elem(), ElemType::I16);
            assert_eq!(env.get("a").unwrap().width(), 8);
        }
    }

    #[test]
    fn deterministic() {
        let a = test_envs(&spec(), 4, 1, 3);
        let b = test_envs(&spec(), 4, 1, 3);
        for (ea, eb) in a.iter().zip(&b) {
            for name in ["a", "b"] {
                let (ba, bb) = (ea.get(name).unwrap(), eb.get(name).unwrap());
                for x in 0..4 {
                    assert_eq!(ba.get(x, 0), bb.get(x, 0));
                }
            }
        }
    }

    #[test]
    fn adversarial_extremes_present() {
        let envs = test_envs(&spec(), 4, 1, 0);
        assert_eq!(envs[0].get("a").unwrap().get(0, 0), 0);
        assert_eq!(envs[1].get("a").unwrap().get(0, 0), 255);
        assert_eq!(envs[2].get("b").unwrap().get(0, 0), -32768);
    }

    #[test]
    fn table_buffers_equal_fresh_fills() {
        let spec: BufferSpec =
            ElemType::ALL.iter().enumerate().map(|(i, &ty)| (format!("t{i}"), ty)).collect();
        for width in [21, 80] {
            for _ in 0..2 {
                let envs = test_envs(&spec, width, 3, 4);
                for (bi, (name, &ty)) in spec.iter().enumerate() {
                    let fresh = |e: usize| match e.checked_sub(ADVERSARIAL.len()) {
                        None => {
                            Buffer2D::from_fn(name, ty, width, 3, |x, y| ADVERSARIAL[e](ty, x, y))
                        }
                        Some(seed) => {
                            let mut rng = Rng::seed_from_u64(seed as u64 * 1031 + bi as u64);
                            Buffer2D::from_fn(name, ty, width, 3, |_, _| {
                                rng.gen_range(ty.min_value()..=ty.max_value())
                            })
                        }
                    };
                    for (e, env) in envs.iter().enumerate() {
                        assert_eq!(env.get(name), Some(&fresh(e)), "{ty} width {width} env {e}");
                    }
                }
            }
        }
    }

    #[test]
    fn writes_to_a_family_do_not_reach_the_next() {
        let spec: BufferSpec = [("w".to_owned(), ElemType::I16)].into_iter().collect();
        let mut envs = test_envs(&spec, 6, 2, 1);
        let before = envs[1].get("w").unwrap().get(3, 1);
        envs[1].get_mut("w").unwrap().set(3, 1, before - 5);
        assert_eq!(test_envs(&spec, 6, 2, 1)[1].get("w").unwrap().get(3, 1), before);
    }

    #[test]
    fn table_stays_under_its_cap() {
        let spec: BufferSpec = [("c".to_owned(), ElemType::U32)].into_iter().collect();
        let first = test_envs(&spec, 300, 17, 10);
        for width in 300..420 {
            test_envs(&spec, width, 17, 10);
            let t = table().lock().unwrap();
            let held: usize = t.cells.values().map(|b| b.width() * b.height() * 4).sum();
            assert_eq!(t.bytes, held);
            assert!(t.bytes <= TABLE_CAP_BYTES, "{} bytes at width {width}", t.bytes);
        }
        // 120 widths of 19 buffers of 20 kB each passed the cap, and the
        // regenerated cells are the same.
        let again = test_envs(&spec, 300, 17, 10);
        assert!(first.iter().zip(&again).all(|(a, b)| a.get("c") == b.get("c")));
    }

    #[test]
    fn near_boundary_fills_present() {
        let envs = test_envs(&spec(), 4, 1, 0);
        // Fill 7: one inside the extremes.
        assert_eq!(envs[7].get("a").unwrap().get(0, 0), 254);
        assert_eq!(envs[7].get("b").unwrap().get(1, 0), -32767);
        // Fill 8: within one of a power of two.
        let v = envs[8].get("b").unwrap().get(0, 0);
        assert!((1..=3).contains(&v), "got {v}");
    }
}

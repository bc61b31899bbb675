//! A fast, non-cryptographic hasher for tables that live one compilation
//! or one query and are keyed by the program's own trees and ids.
//!
//! This is the multiply-rotate hash rustc uses for its interners. It is
//! not resistant to crafted collisions, so a table whose keys come from
//! requests and outlive a request keeps the standard library's SipHash.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

/// The Fx word-at-a-time hasher.
#[derive(Debug, Default, Clone, Copy)]
pub struct FxHasher {
    hash: u64,
}

impl FxHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(SEED);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut words = bytes.chunks_exact(8);
        for w in &mut words {
            self.add(u64::from_le_bytes(w.try_into().expect("8-byte chunk")));
        }
        for &b in words.remainder() {
            self.add(u64::from(b));
        }
    }

    #[inline]
    fn write_u32(&mut self, i: u32) {
        self.add(u64::from(i));
    }

    #[inline]
    fn write_u64(&mut self, i: u64) {
        self.add(i);
    }

    #[inline]
    fn write_usize(&mut self, i: usize) {
        self.add(i as u64);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }
}

/// A `HashMap` hashed with [`FxHasher`].
pub type FxHashMap<K, V> = HashMap<K, V, BuildHasherDefault<FxHasher>>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn equal_keys_hash_equal_and_maps_round_trip() {
        use std::hash::{BuildHasher, BuildHasherDefault};
        let b = BuildHasherDefault::<FxHasher>::default();
        assert_eq!(b.hash_one(("abc", 7u32)), b.hash_one(("abc", 7u32)));
        assert_ne!(b.hash_one(("abc", 7u32)), b.hash_one(("abd", 7u32)));
        let mut m: FxHashMap<String, usize> = FxHashMap::default();
        for i in 0..100 {
            m.insert(format!("k{i}"), i);
        }
        assert!((0..100).all(|i| m[&format!("k{i}")] == i));
    }
}

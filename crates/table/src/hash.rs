//! A small, fast, non-cryptographic hasher for group-by keys.
//!
//! Group-by counting is the hottest loop in HypDB (every entropy, every
//! permutation test is a `count(*) GROUP BY`). The standard library's
//! SipHash is DoS-resistant but slow for the short `u32`-code keys we
//! hash; this module implements the well-known "Fx" multiply-xor hash
//! used by rustc, which is not in the offline dependency set.

use std::hash::{BuildHasherDefault, Hasher};

const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

/// Multiply-xor hasher (the rustc "Fx" construction).
#[derive(Default, Clone)]
pub struct FxHasher {
    state: u64,
}

impl FxHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.state = (self.state.rotate_left(5) ^ word).wrapping_mul(SEED);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.state
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for c in chunks.by_ref() {
            self.add(u64::from_le_bytes(c.try_into().expect("8-byte chunk")));
        }
        let rest = chunks.remainder();
        if !rest.is_empty() {
            let mut buf = [0u8; 8];
            buf[..rest.len()].copy_from_slice(rest);
            self.add(u64::from_le_bytes(buf));
        }
    }

    #[inline]
    fn write_u32(&mut self, v: u32) {
        self.add(v as u64);
    }

    #[inline]
    fn write_u64(&mut self, v: u64) {
        self.add(v);
    }

    #[inline]
    fn write_usize(&mut self, v: usize) {
        self.add(v as u64);
    }
}

/// Fx hash of a byte string, for tables keyed by short strings (the
/// dictionary). Words are read as in [`FxHasher::write`], except that
/// the 1-7 byte tail is assembled from overlapping fixed-width reads
/// instead of a variable-length copy; the length is mixed in last, so
/// tails of different lengths that assemble to the same word differ.
#[inline]
pub fn hash_bytes(bytes: &[u8]) -> u64 {
    let mut h = FxHasher::default();
    let mut chunks = bytes.chunks_exact(8);
    for c in chunks.by_ref() {
        h.add(u64::from_le_bytes(c.try_into().expect("8-byte chunk")));
    }
    let rest = chunks.remainder();
    let n = rest.len();
    if n >= 4 {
        let lo = u32::from_le_bytes([rest[0], rest[1], rest[2], rest[3]]);
        let hi = u32::from_le_bytes([rest[n - 4], rest[n - 3], rest[n - 2], rest[n - 1]]);
        h.add(u64::from(lo) | u64::from(hi) << 32);
    } else if n > 0 {
        h.add(u64::from(rest[0]) | u64::from(rest[n / 2]) << 8 | u64::from(rest[n - 1]) << 16);
    }
    h.add(bytes.len() as u64);
    h.finish()
}

/// `BuildHasher` for [`FxHasher`].
pub type FxBuildHasher = BuildHasherDefault<FxHasher>;

/// A `HashMap` keyed with the Fx hash.
pub type FxHashMap<K, V> = std::collections::HashMap<K, V, FxBuildHasher>;

/// A `HashSet` keyed with the Fx hash.
pub type FxHashSet<K> = std::collections::HashSet<K, FxBuildHasher>;

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::{BuildHasher, Hash};

    fn hash_of<T: Hash + ?Sized>(v: &T) -> u64 {
        FxBuildHasher::default().hash_one(v)
    }

    #[test]
    fn deterministic() {
        assert_eq!(hash_of(&42u64), hash_of(&42u64));
        assert_eq!(hash_of(&[1u32, 2, 3][..]), hash_of(&[1u32, 2, 3][..]));
    }

    #[test]
    fn distinguishes_values() {
        assert_ne!(hash_of(&1u64), hash_of(&2u64));
        assert_ne!(hash_of(&[1u32, 2][..]), hash_of(&[2u32, 1][..]));
    }

    #[test]
    fn byte_tail_is_hashed() {
        // Differ only in the non-8-aligned tail.
        let a = [0u8, 0, 0, 0, 0, 0, 0, 0, 1];
        let b = [0u8, 0, 0, 0, 0, 0, 0, 0, 2];
        assert_ne!(hash_of(&a[..]), hash_of(&b[..]));
    }

    #[test]
    fn map_roundtrip() {
        let mut m: FxHashMap<Box<[u32]>, u64> = FxHashMap::default();
        m.insert(vec![1, 2, 3].into_boxed_slice(), 7);
        assert_eq!(m.get(&vec![1, 2, 3].into_boxed_slice()).copied(), Some(7));
        assert_eq!(m.get(&vec![3, 2, 1].into_boxed_slice()), None);
    }
}

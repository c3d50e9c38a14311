//! FxHash, the rustc multiply-rotate hash, and the map keyed with it.
//!
//! A seedless, deterministic, non-cryptographic hasher: the same bytes hash
//! to the same value on every run, on every thread and on every platform
//! with the same pointer width. That is what the determinism contract needs
//! from the hot-path maps (the std `RandomState` hasher is randomized per
//! process and much slower for the small fixed-width keys the CCT and the
//! interner use).

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// Multiplicative constant from the rustc implementation (64-bit).
const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;
const ROTATE: u32 = 5;

/// A `HashMap` keyed with [`FxHasher`].
pub type FxHashMap<K, V> = HashMap<K, V, BuildHasherDefault<FxHasher>>;

/// The rustc FxHash state: one word, mixed by rotate-xor-multiply.
#[derive(Debug, Clone, Copy, Default)]
pub struct FxHasher {
    hash: u64,
}

impl FxHasher {
    #[inline]
    fn add_to_hash(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(ROTATE) ^ word).wrapping_mul(SEED);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for chunk in chunks.by_ref() {
            let mut word = [0u8; 8];
            word.copy_from_slice(chunk);
            self.add_to_hash(u64::from_le_bytes(word));
        }
        let rest = chunks.remainder();
        if !rest.is_empty() {
            let mut word = [0u8; 8];
            word[..rest.len()].copy_from_slice(rest);
            self.add_to_hash(u64::from_le_bytes(word) | ((rest.len() as u64) << 56));
        }
    }

    #[inline]
    fn write_u8(&mut self, n: u8) {
        self.add_to_hash(u64::from(n));
    }

    #[inline]
    fn write_u16(&mut self, n: u16) {
        self.add_to_hash(u64::from(n));
    }

    #[inline]
    fn write_u32(&mut self, n: u32) {
        self.add_to_hash(u64::from(n));
    }

    #[inline]
    fn write_u64(&mut self, n: u64) {
        self.add_to_hash(n);
    }

    #[inline]
    fn write_u128(&mut self, n: u128) {
        self.add_to_hash(n as u64);
        self.add_to_hash((n >> 64) as u64);
    }

    #[inline]
    fn write_usize(&mut self, n: usize) {
        self.add_to_hash(n as u64);
    }

    #[inline]
    fn write_i8(&mut self, n: i8) {
        self.add_to_hash(n as u8 as u64);
    }

    #[inline]
    fn write_i16(&mut self, n: i16) {
        self.add_to_hash(n as u16 as u64);
    }

    #[inline]
    fn write_i32(&mut self, n: i32) {
        self.add_to_hash(n as u32 as u64);
    }

    #[inline]
    fn write_i64(&mut self, n: i64) {
        self.add_to_hash(n as u64);
    }

    #[inline]
    fn write_isize(&mut self, n: isize) {
        self.add_to_hash(n as usize as u64);
    }
}

#[cfg(test)]
mod tests {
    use std::hash::{Hash, Hasher};

    use super::FxHasher;

    fn fx<T: Hash + ?Sized>(value: &T) -> u64 {
        let mut h = FxHasher::default();
        value.hash(&mut h);
        h.finish()
    }

    #[test]
    fn hash_values_are_pinned() {
        // Map iteration orders, and through them some outputs, depend on
        // these values.
        assert_eq!(fx(&0xDEAD_BEEFu32), 0x67f3c0372953771b);
        assert_eq!(fx(&0x0123_4567_89AB_CDEFu64), 0x56cc4aad99c8321b);
        assert_eq!(fx(&42usize), 0x5e77c80c6b95bc72);
        // 14 and 19 bytes: 6- and 3-byte tails.
        assert_eq!(fx("slimstart.core"), 0x1d8054d64f8211fd);
        assert_eq!(fx("torch.nn.functional"), 0x18eb6084154ed4b1);
        assert_eq!(fx(&(7u32, 9u64, 11usize, "numpy")), 0x392a39d7847eec0d);
    }
}

//! A fixed, seedless hasher for the simulator's maps.
//!
//! The standard `HashMap` seeds SipHash from the process's random state,
//! so its iteration order changes from run to run, and SipHash costs
//! more than the simulator's small integer keys need. [`FxHasher`] is
//! the multiply-rotate hash of the Firefox and rustc hash tables: one
//! rotate, xor and multiply per word, with no seed. A map keyed through
//! it iterates in an order that depends only on the operations applied
//! to it, so it is the same in every process.
//!
//! It offers no protection against keys crafted to collide. Every key
//! it hashes in this workspace is an id the simulator assigns itself
//! (connection ordinals, query ids, server and client indices) or a
//! name from the embedded metro catalogue.

use std::hash::{BuildHasherDefault, Hasher};

/// The multiplier of the Fx hash (rustc's `FxHasher`, 64-bit).
const K: u64 = 0x517c_c1b7_2722_0a95;

/// The multiply-rotate (Fx) hasher. Seedless: equal keys hash equally
/// in every process.
#[derive(Clone, Copy, Default)]
pub struct FxHasher {
    hash: u64,
}

impl FxHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(K);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.add(u64::from_le_bytes(word));
        }
    }

    #[inline]
    fn write_u32(&mut self, i: u32) {
        self.add(i as u64);
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

/// A `std` hash map keyed through [`FxHasher`]. Build one with
/// `HashMap::default()`.
pub type HashMap<K, V> = std::collections::HashMap<K, V, BuildHasherDefault<FxHasher>>;

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::{BuildHasher, Hash};

    fn fx<T: Hash>(x: &T) -> u64 {
        BuildHasherDefault::<FxHasher>::default().hash_one(x)
    }

    #[test]
    fn hashes_are_seedless_and_pinned() {
        // The same value in every process: a pinned constant, not just
        // two equal reads in one process.
        assert_eq!(fx(&1u64), K);
        assert_eq!(fx(&(1u32, 2u32)), ((K.rotate_left(5)) ^ 2).wrapping_mul(K));
        assert_ne!(fx(&1u64), fx(&2u64));
    }

    #[test]
    fn iteration_order_depends_only_on_the_operations() {
        let build = || {
            let mut m: HashMap<u64, u64> = HashMap::default();
            for k in 0..1_000u64 {
                m.insert(k * 7919 % 1_009, k);
            }
            for k in (0..1_000u64).step_by(3) {
                m.remove(&k);
            }
            m.into_iter().collect::<Vec<_>>()
        };
        assert_eq!(build(), build());
    }
}

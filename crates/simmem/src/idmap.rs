//! [`IdMap`]: the standard `HashMap` with a fixed integer hasher.
//!
//! Some of the simulator's hottest host-side tables are keyed by integers it
//! derives itself — virtual page numbers, physical futex addresses. (Thread
//! and process ids are dense enough to index a `Vec` instead; see
//! `simkernel::table`.) SipHash protects a map against keys an attacker chose;
//! none of these keys comes from outside the program, and hashing them was
//! a measurable share of every kernel step. [`IdHasher`] is one multiply
//! and a fold instead, and has no per-process seed, so two runs build the
//! same table in the same order.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// A `HashMap` for integer(-newtype) keys the program itself generates.
/// Build one with `IdMap::default()`; everything else is the `HashMap` API.
pub type IdMap<K, V> = HashMap<K, V, BuildHasherDefault<IdHasher>>;

/// Multiply-and-fold hasher behind [`IdMap`].
///
/// `hashbrown` picks the bucket from the low bits of the hash and tags the
/// entry with the top seven, so both ends must vary for the keys we see:
/// sequential ids, sequential page numbers, 8-byte-aligned addresses and
/// page-strided ones. A bare multiply leaves an aligned key's low bits
/// zero; folding the high half of the 128-bit product into the low half
/// repairs that (tests below).
#[derive(Clone, Copy, Default)]
pub struct IdHasher(u64);

/// 2^64 / φ, the Fibonacci-hashing multiplier.
const K: u64 = 0x9E37_79B9_7F4A_7C15;

impl Hasher for IdHasher {
    #[inline]
    fn write_u64(&mut self, x: u64) {
        let p = u128::from(self.0 ^ x) * u128::from(K);
        self.0 = (p as u64) ^ ((p >> 64) as u64);
    }

    /// Fallback for keys that are not a single word.
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.write_u64(u64::from_le_bytes(word));
        }
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use std::collections::HashSet;
    use std::hash::{BuildHasher, Hash};

    use super::*;

    #[derive(Clone, Copy, PartialEq, Eq, Hash)]
    struct Id(u64);

    /// Distinct (low-10-bit buckets, top-7-bit tags) over `keys`.
    fn spread<K: Hash>(keys: impl Iterator<Item = K>) -> (usize, usize) {
        let build = BuildHasherDefault::<IdHasher>::default();
        let (mut buckets, mut tags) = (HashSet::new(), HashSet::new());
        for k in keys {
            let h = build.hash_one(k);
            buckets.insert(h & 1023);
            tags.insert(h >> 57);
        }
        (buckets.len(), tags.len())
    }

    fn assert_spread<K: Hash>(what: &str, keys: impl Iterator<Item = K>) {
        let (buckets, tags) = spread(keys);
        assert!(buckets >= 922, "{what}: 4096 keys fill only {buckets} of 1024 buckets");
        assert!(tags >= 100, "{what}: 4096 keys use only {tags} of 128 tags");
    }

    #[test]
    fn sequential_ids_spread() {
        // `Tid`/`Pid` hash through their derived impl, i.e. `write_u64`.
        assert_spread("ids from 1", (1..=4096).map(Id));
        assert_spread("ids from 2^20", (0..4096).map(|i| Id((1 << 20) + i)));
    }

    #[test]
    fn sequential_vpns_spread() {
        // Heap, stack-top and kernel-shared regions of the guest layouts.
        for base in [0x1000_0000u64 >> 12, 0x7fff_ffff_f000 >> 12, 0x7000_0000_0000 >> 12] {
            assert_spread("vpns", (0..4096).map(|i| base + i));
        }
    }

    #[test]
    fn aligned_addresses_spread() {
        assert_spread("8-byte-aligned futex words", (0..4096u64).map(|i| 0x0123_4000 + 8 * i));
        assert_spread("page-strided keys", (0..4096u64).map(|i| 4096 * i));
        assert_spread("page-strided, high base", (0..4096u64).map(|i| (1 << 40) + 4096 * i));
    }

    #[test]
    fn byte_fallback_folds_every_chunk() {
        let build = BuildHasherDefault::<IdHasher>::default();
        let long = [7u8; 17];
        assert_ne!(build.hash_one(&long[..16]), build.hash_one(&long[..]));
        assert_ne!(build.hash_one((1u64, 2u64)), build.hash_one((2u64, 1u64)));
    }

    /// No per-process seed: the same edits give the same iteration order
    /// (std's `RandomState` gives a different one per map).
    #[test]
    fn same_edits_same_order() {
        let build = || {
            let mut m: IdMap<Id, u64> = IdMap::default();
            for i in 0..3000 {
                m.insert(Id(i * 7), i);
            }
            for i in (0..3000).step_by(3) {
                m.remove(&Id(i * 7));
            }
            for i in 0..500 {
                m.insert(Id(1 << 33 | i), i);
            }
            m
        };
        let (a, b) = (build(), build());
        assert!(a.iter().eq(b.iter()));
        assert_eq!(a.len(), 2500);
    }
}

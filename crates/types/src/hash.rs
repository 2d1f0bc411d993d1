//! A fast, deterministic hasher for the simulator's integer-keyed maps.
//!
//! `std`'s default `HashMap` hashes with randomly keyed SipHash: robust
//! against hostile keys, but several times slower than needed for the
//! block and page numbers the simulator looks up on every transaction.
//! [`DetHasher`] is a multiply-rotate hash with no random state, so a
//! [`DetMap`] costs one multiply per `u64` key and behaves the same in
//! every process.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// Odd multiplier with well-spread bits (the 64-bit constant of
/// rustc-hash 2).
const K: u64 = 0xf135_7aea_2e62_a9c5;

/// Multiply-rotate hasher over 64-bit words, with no random state.
///
/// Each word is folded in as `hash = (hash + word) * K`; [`finish`]
/// rotates the product so its well-mixed high bits land in the low bits
/// `HashMap` uses to pick a bucket. Keys that are multiples of a power of
/// two (block numbers of a strided sweep) therefore still spread.
///
/// [`finish`]: Hasher::finish
///
/// ```
/// use std::hash::Hasher;
/// use vcoma_types::DetHasher;
/// let (mut a, mut b) = (DetHasher::default(), DetHasher::default());
/// a.write_u64(0x40);
/// b.write_u64(0x40);
/// assert_eq!(a.finish(), b.finish());
/// ```
#[derive(Debug, Clone, Copy, Default)]
pub struct DetHasher {
    hash: u64,
}

impl DetHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.hash = self.hash.wrapping_add(word).wrapping_mul(K);
    }
}

impl Hasher for DetHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.hash.rotate_left(26)
    }

    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for c in &mut chunks {
            self.add(u64::from_le_bytes(c.try_into().expect("8-byte chunk")));
        }
        let rest = chunks.remainder();
        if !rest.is_empty() {
            let mut buf = [0u8; 8];
            buf[..rest.len()].copy_from_slice(rest);
            self.add(u64::from_le_bytes(buf) ^ ((rest.len() as u64) << 59));
        }
    }

    /// The one-multiply path every map key here takes (`u64`, `VPage`).
    #[inline]
    fn write_u64(&mut self, n: u64) {
        self.add(n);
    }
}

/// A `HashMap` hashed by [`DetHasher`].
///
/// Use it only where nothing observable depends on iteration order. The
/// maps that use it today have been audited for that: the coherence
/// directory (`Protocol`; its only walks sort the keys first), the page
/// table (`PageTable`; its walks feed the `.min()` swap-out victim picks
/// and `PressureProfile::from_pages`, which counts per set) and the
/// CC-NUMA directory (`NumaMachine`; point lookups only).
///
/// With no random key, crafted keys can collide. Its keys are the
/// simulated machine's block and page numbers, so a hostile trace can at
/// worst slow its own run; keep `std`'s default hasher for maps keyed by
/// anything a client sends.
pub type DetMap<K, V> = HashMap<K, V, BuildHasherDefault<DetHasher>>;

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::Hash;

    fn hash_of<T: Hash>(v: T) -> u64 {
        let mut h = DetHasher::default();
        v.hash(&mut h);
        h.finish()
    }

    #[test]
    fn equal_keys_hash_equal_and_the_hash_is_fixed() {
        assert_eq!(hash_of(42u64), hash_of(42u64));
        assert_ne!(hash_of(1u64), hash_of(2u64));
        // No per-process random state: the value is a pure function of
        // the key.
        assert_eq!(hash_of(1u64), 0xf135_7aea_2e62_a9c5u64.rotate_left(26));
    }

    #[test]
    fn strided_keys_spread_over_low_bits() {
        // Block numbers with a power-of-two stride must not all land in
        // one bucket of a 1024-bucket table.
        let buckets: std::collections::BTreeSet<u64> =
            (0..1024u64).map(|i| hash_of(i * 32) & 1023).collect();
        assert!(buckets.len() > 512, "only {} distinct buckets", buckets.len());
    }

    #[test]
    fn byte_writes_distinguish_length_and_content() {
        let bytes = |b: &[u8]| {
            let mut h = DetHasher::default();
            h.write(b);
            h.finish()
        };
        assert_ne!(bytes(b"ab"), bytes(b"ab\0"));
        assert_ne!(bytes(b"abcdefgh1"), bytes(b"abcdefgh2"));
        assert_eq!(bytes(b"same"), bytes(b"same"));
    }

    #[test]
    fn det_map_round_trips() {
        let mut m: DetMap<u64, u32> = DetMap::default();
        for i in 0..1000u64 {
            m.insert(i * 64, i as u32);
        }
        assert_eq!(m.len(), 1000);
        assert!((0..1000u64).all(|i| m[&(i * 64)] == i as u32));
    }
}

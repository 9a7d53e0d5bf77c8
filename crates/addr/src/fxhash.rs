//! A dependency-free Fx-style hasher for hot-path dedup sets.
//!
//! `std`'s default `HashMap` hasher is SipHash-1-3 — a keyed PRF chosen
//! for HashDoS resistance, not speed. Scan-side dedup sets (responder
//! addresses, /64 prefixes, MACs) are keyed by values *we* derive from a
//! seeded simulation, so the adversarial-input defence buys nothing and
//! its per-insert cost is measurable once a campaign block collects
//! hundreds of thousands of responders.
//!
//! The same rule covers the per-probe maps: the scanner's `outstanding`
//! (keyed by the destination it just built) and `answered` (by target
//! prefix), and the simulated world's discovery `registry` (by responder
//! address) and ICMPv6 `error_limiters` (by block and sub-prefix index).
//! None of them is iterated into an artifact unsorted — checkpoints sort
//! `outstanding` by destination and `answered` by prefix — so the hasher
//! cannot change a byte of output.
//!
//! [`FxHasher`] is the multiply-fold hasher popularized by the Rust
//! compiler's `rustc-hash` crate: each 8-byte word of input is folded in
//! with an xor and a multiplication by a single odd 64-bit constant
//! (derived from the golden ratio, so the high bits — the ones hash maps
//! index with — mix well). It is not DoS-resistant and must not be used
//! for attacker-controlled keys.
//!
//! # Examples
//!
//! ```
//! use xmap_addr::{FxHashSet, Ip6};
//!
//! let mut seen: FxHashSet<Ip6> = FxHashSet::default();
//! assert!(seen.insert(Ip6::new(1)));
//! assert!(!seen.insert(Ip6::new(1)));
//! ```

use std::hash::{BuildHasherDefault, Hasher};

/// The golden-ratio multiplier (`2^64 / φ`, forced odd) — one odd
/// constant is all Fx needs for full-width avalanche of the high bits.
const SEED: u64 = 0x9e37_79b9_7f4a_7c15;

/// How far to rotate the accumulator before each fold, so consecutive
/// small integers don't collide in the low bits.
const ROTATE: u32 = 5;

/// The Fx multiply-fold hasher. Fast, deterministic across runs and
/// platforms, **not** HashDoS-resistant.
#[derive(Debug, Clone, Copy, Default)]
pub struct FxHasher {
    hash: u64,
}

impl FxHasher {
    #[inline]
    fn fold(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(ROTATE) ^ word).wrapping_mul(SEED);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for chunk in &mut chunks {
            self.fold(u64::from_le_bytes(chunk.try_into().expect("8-byte chunk")));
        }
        let rest = chunks.remainder();
        if !rest.is_empty() {
            let mut tail = [0u8; 8];
            tail[..rest.len()].copy_from_slice(rest);
            // Length byte keeps `[1]` and `[1, 0]` distinct.
            tail[7] = rest.len() as u8;
            self.fold(u64::from_le_bytes(tail));
        }
    }

    #[inline]
    fn write_u8(&mut self, v: u8) {
        self.fold(v as u64);
    }

    #[inline]
    fn write_u16(&mut self, v: u16) {
        self.fold(v as u64);
    }

    #[inline]
    fn write_u32(&mut self, v: u32) {
        self.fold(v as u64);
    }

    #[inline]
    fn write_u64(&mut self, v: u64) {
        self.fold(v);
    }

    #[inline]
    fn write_u128(&mut self, v: u128) {
        self.fold(v as u64);
        self.fold((v >> 64) as u64);
    }

    #[inline]
    fn write_usize(&mut self, v: usize) {
        self.fold(v as u64);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }
}

/// `BuildHasher` for [`FxHasher`] (zero-sized, `Default`-constructible).
pub type FxBuildHasher = BuildHasherDefault<FxHasher>;

/// A `HashSet` keyed by [`FxHasher`].
pub type FxHashSet<T> = std::collections::HashSet<T, FxBuildHasher>;

/// A `HashMap` keyed by [`FxHasher`].
pub type FxHashMap<K, V> = std::collections::HashMap<K, V, FxBuildHasher>;

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::{BuildHasher, Hash};

    fn hash_of<T: Hash>(v: T) -> u64 {
        FxBuildHasher::default().hash_one(v)
    }

    #[test]
    fn deterministic_across_builders() {
        assert_eq!(hash_of(0xdead_beefu64), hash_of(0xdead_beefu64));
        assert_eq!(hash_of("periphery"), hash_of("periphery"));
    }

    #[test]
    fn distinguishes_nearby_keys() {
        // Consecutive integers — the common dedup workload — must spread.
        let hashes: std::collections::HashSet<u64> = (0u64..1024).map(hash_of).collect();
        assert_eq!(hashes.len(), 1024);
    }

    #[test]
    fn tail_bytes_are_length_prefixed() {
        assert_ne!(hash_of([1u8].as_slice()), hash_of([1u8, 0].as_slice()));
    }

    #[test]
    fn u128_folds_both_halves() {
        let low = hash_of(7u128);
        let high = hash_of(7u128 << 64);
        assert_ne!(low, high);
    }

    #[test]
    fn set_and_map_aliases_work() {
        let mut set: FxHashSet<crate::Ip6> = FxHashSet::default();
        assert!(set.insert(crate::Ip6::new(42)));
        assert!(set.contains(&crate::Ip6::new(42)));
        let mut map: FxHashMap<u64, u64> = FxHashMap::default();
        map.insert(1, 2);
        assert_eq!(map.get(&1), Some(&2));
    }
}

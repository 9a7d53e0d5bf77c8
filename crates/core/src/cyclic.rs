//! The multiplicative-group address permutation — XMap's key module.
//!
//! ZMap randomizes probe order by walking the multiplicative group of
//! integers modulo a prime slightly larger than the scan space: starting
//! from a random group element and repeatedly multiplying by a generator
//! visits every element exactly once in an order that looks random, with
//! O(1) state. XMap generalizes this from "the rear 32 bits of IPv4" to
//! *any* bit range of the 128-bit space; this module is that generalization
//! (backed by [`crate::math`] instead of GMP).
//!
//! Values `v ∈ [1, p)` map to scan indices `v − 1`; indices `≥ N` (the few
//! between the space size and the prime) are skipped during iteration, so
//! the walk emits each of the `N` indices exactly once per cycle.
//!
//! A step costs one multiply and one `u128` division: the group element
//! and the stride are always reduced below `p`, so for every space whose
//! prime is at most 2⁶⁴ their product fits in a `u128`. Only the largest
//! spaces (from 2⁶⁴ − 59 indices up) step through [`mulmod`].

use crate::math::{is_prime, mulmod, next_prime, powmod, primitive_root};

/// A full-cycle random permutation of `0..len` built on the multiplicative
/// group modulo a prime.
///
/// # Examples
///
/// ```
/// use xmap::cyclic::Cycle;
///
/// let cycle = Cycle::new(100, 0x5eed);
/// let mut seen: Vec<u64> = cycle.iter().collect();
/// assert_eq!(seen.len(), 100);      // visits every index once
/// seen.sort_unstable();
/// assert_eq!(seen, (0..100).collect::<Vec<_>>());
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Cycle {
    /// Number of permuted indices.
    len: u64,
    /// Prime modulus, smallest prime > len.
    prime: u128,
    /// Generator of the multiplicative group mod `prime`.
    generator: u128,
    /// First group element of the walk (derived from the seed).
    start: u128,
}

impl Cycle {
    /// Builds a permutation of `0..len` seeded by `seed`.
    ///
    /// The generator is derived from a primitive root `g` as `g^e` for a
    /// seed-dependent exponent `e` coprime to `p − 1`, so different seeds
    /// produce different full-cycle walks.
    ///
    /// # Panics
    ///
    /// Panics if `len == 0`.
    pub fn new(len: u64, seed: u64) -> Self {
        assert!(len > 0, "cannot permute an empty space");
        let prime = next_prime(len as u128);
        if prime == 2 {
            // len == 1: the multiplicative group mod 2 is trivial.
            return Cycle {
                len,
                prime,
                generator: 1,
                start: 1,
            };
        }
        let root = primitive_root(prime);
        // Pick a seed-dependent exponent coprime to p-1 (odd exponents
        // coprime to the odd part suffice; retry linearly until coprime).
        let phi = prime - 1;
        let mut e = (seed as u128 % phi).max(1);
        while crate::math::gcd(e, phi) != 1 {
            e += 1;
            if e >= phi {
                e = 1;
            }
        }
        let generator = powmod(root, e, prime);
        // Start element in [1, p).
        let start = (seed as u128)
            .wrapping_mul(0x9e37_79b9_7f4a_7c15)
            .wrapping_add(1)
            % (prime - 1)
            + 1;
        Cycle {
            len,
            prime,
            generator,
            start,
        }
    }

    /// Number of indices in the permutation.
    pub fn len(&self) -> u64 {
        self.len
    }

    /// Whether the permutation is empty (never true — `new` rejects 0).
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The prime modulus in use (exposed for tests and diagnostics).
    pub fn prime(&self) -> u128 {
        self.prime
    }

    /// Iterates over all indices of the permutation in walk order.
    pub fn iter(&self) -> Iter {
        Iter {
            cycle: self.clone(),
            current: self.start,
            remaining: self.len,
        }
    }

    /// Iterates over the shard `shard` of `shards`: the walk positions
    /// `shard, shard + shards, shard + 2·shards, …` — ZMap-style sharding
    /// where every shard covers a disjoint subset and the union is the whole
    /// space. Implemented by stepping with `g^shards` after an offset of
    /// `g^shard`.
    ///
    /// # Panics
    ///
    /// Panics if `shards == 0` or `shard >= shards`.
    pub fn iter_shard(&self, shard: u64, shards: u64) -> ShardIter {
        assert!(shards > 0, "shards must be nonzero");
        assert!(shard < shards, "shard index out of range");
        let stride = powmod(self.generator, shards as u128, self.prime);
        let offset = mulmod(
            self.start,
            powmod(self.generator, shard as u128, self.prime),
            self.prime,
        );
        // Walk length: positions shard, shard+shards, ... < cycle length
        // (p-1 group elements in the full walk).
        let group_len = self.prime - 1;
        let walk_len = (group_len - shard as u128).div_ceil(shards as u128);
        ShardIter {
            len: self.len,
            prime: self.prime,
            stride,
            current: offset,
            remaining_walk: walk_len,
        }
    }
}

/// One walk step, `current · stride mod prime`, for operands already
/// reduced below `prime`. While `prime ≤ 2⁶⁴` both operands fit in 64
/// bits, so the product fits in a `u128` and one division reduces it.
/// Only a space of at least 2⁶⁴ − 59 indices (the largest 64-bit prime)
/// has a modulus past 2⁶⁴ and takes [`mulmod`]'s double-and-add.
#[inline]
fn step(current: u128, stride: u128, prime: u128) -> u128 {
    if prime <= 1 << 64 {
        current * stride % prime
    } else {
        mulmod(current, stride, prime)
    }
}

/// Iterator over a [`Cycle`], produced by [`Cycle::iter`].
#[derive(Debug, Clone)]
pub struct Iter {
    cycle: Cycle,
    current: u128,
    remaining: u64,
}

impl Iterator for Iter {
    type Item = u64;

    fn next(&mut self) -> Option<u64> {
        while self.remaining > 0 {
            let v = self.current;
            self.current = step(v, self.cycle.generator, self.cycle.prime);
            let index = v - 1;
            if index < self.cycle.len as u128 {
                self.remaining -= 1;
                return Some(index as u64);
            }
            // Index in the prime/space gap: skip (at most p - 1 - len of
            // these exist per cycle).
        }
        None
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.remaining as usize, Some(self.remaining as usize))
    }
}

/// Iterator over one shard of a [`Cycle`], produced by [`Cycle::iter_shard`].
#[derive(Debug, Clone)]
pub struct ShardIter {
    len: u64,
    prime: u128,
    stride: u128,
    current: u128,
    remaining_walk: u128,
}

impl ShardIter {
    /// Fills `out` with the next indices of the walk, returning how many
    /// were written (short only when the shard is exhausted).
    ///
    /// This is the batched form of `next()` for the scanner's chunked
    /// target generator: one call amortizes the iterator dispatch over a
    /// whole chunk and keeps the modular-multiply walk in registers,
    /// without materializing the full shard up front.
    pub fn fill(&mut self, out: &mut [u64]) -> usize {
        let mut n = 0;
        while n < out.len() && self.remaining_walk > 0 {
            let v = self.current;
            self.current = step(v, self.stride, self.prime);
            self.remaining_walk -= 1;
            let index = v - 1;
            if index < self.len as u128 {
                out[n] = index as u64;
                n += 1;
            }
        }
        n
    }

    /// Like [`fill`](Self::fill) but emits **every** group step: fringe
    /// elements (`index >= len`, the `prime − 1 − len` group members with
    /// no corresponding target) surface as `u64::MAX`, a sentinel no
    /// scan range of enumerable size resolves. The scanner's target
    /// generator walks this raw stream and rejects fringe indices at the
    /// range lookup, so one walk position is exactly one group step — the
    /// invariant the nested sub-shard split math relies on: shard `s` of
    /// `M` then owns precisely the base walk's positions `≡ s (mod M)`,
    /// with no drift from fringe elements swallowed inside one shard.
    pub fn fill_raw(&mut self, out: &mut [u64]) -> usize {
        let mut n = 0;
        while n < out.len() && self.remaining_walk > 0 {
            let v = self.current;
            self.current = step(v, self.stride, self.prime);
            self.remaining_walk -= 1;
            let index = v - 1;
            out[n] = if index < self.len as u128 {
                index as u64
            } else {
                u64::MAX
            };
            n += 1;
        }
        n
    }
}

impl ShardIter {
    /// The walk position as `(current, remaining_walk)` — the complete
    /// iteration state (the modulus and stride are derived from the
    /// configuration). Captured into checkpoints so a resumed scan
    /// continues the multiplicative walk exactly where it stopped.
    pub fn position(&self) -> (u128, u128) {
        (self.current, self.remaining_walk)
    }

    /// Restores a walk position captured by [`ShardIter::position`] on an
    /// iterator freshly built from the same `Cycle` and shard arguments.
    pub fn set_position(&mut self, current: u128, remaining_walk: u128) {
        self.current = current;
        self.remaining_walk = remaining_walk;
    }
}

impl Iterator for ShardIter {
    type Item = u64;

    fn next(&mut self) -> Option<u64> {
        let mut one = [0u64; 1];
        if self.fill(&mut one) == 1 {
            Some(one[0])
        } else {
            None
        }
    }
}

/// Validates that `prime` is usable for a cycle over `len` indices — used
/// by property tests.
pub fn valid_prime_for(len: u64, prime: u128) -> bool {
    prime > len as u128 && is_prime(prime)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn full_permutation_small() {
        for len in [1u64, 2, 7, 100, 257, 1000] {
            let c = Cycle::new(len, 42);
            let visited: Vec<u64> = c.iter().collect();
            assert_eq!(visited.len() as u64, len, "len {len}");
            let set: HashSet<u64> = visited.iter().copied().collect();
            assert_eq!(set.len() as u64, len, "distinct, len {len}");
            assert!(visited.iter().all(|i| *i < len));
        }
    }

    #[test]
    fn different_seeds_different_orders() {
        let a: Vec<u64> = Cycle::new(1000, 1).iter().collect();
        let b: Vec<u64> = Cycle::new(1000, 2).iter().collect();
        assert_ne!(a, b);
        // But both are permutations of the same set.
        let sa: HashSet<_> = a.into_iter().collect();
        let sb: HashSet<_> = b.into_iter().collect();
        assert_eq!(sa, sb);
    }

    #[test]
    fn order_looks_scattered() {
        // The whole point of the permutation: consecutive outputs should not
        // be consecutive indices (spreads load across target networks).
        let out: Vec<u64> = Cycle::new(1 << 16, 7).iter().take(1000).collect();
        let adjacent = out.windows(2).filter(|w| w[0].abs_diff(w[1]) == 1).count();
        assert!(adjacent < 10, "{adjacent} adjacent pairs in 1000 outputs");
    }

    #[test]
    fn shards_partition_the_space() {
        let c = Cycle::new(10_000, 99);
        let mut all = HashSet::new();
        for shard in 0..4 {
            let part: Vec<u64> = c.iter_shard(shard, 4).collect();
            for idx in part {
                assert!(all.insert(idx), "index {idx} emitted by two shards");
            }
        }
        assert_eq!(all.len(), 10_000);
    }

    #[test]
    fn single_shard_equals_full_iteration() {
        let c = Cycle::new(5_000, 3);
        let full: Vec<u64> = c.iter().collect();
        let sharded: Vec<u64> = c.iter_shard(0, 1).collect();
        assert_eq!(full, sharded);
    }

    #[test]
    fn large_space_uses_valid_prime() {
        let c = Cycle::new(1 << 32, 5);
        assert_eq!(c.prime(), 4_294_967_311);
        assert!(valid_prime_for(1 << 32, c.prime()));
        // Spot-check the first outputs are in range and distinct.
        let head: Vec<u64> = c.iter().take(10_000).collect();
        let set: HashSet<_> = head.iter().collect();
        assert_eq!(set.len(), 10_000);
        assert!(head.iter().all(|i| *i < 1 << 32));
    }

    #[test]
    fn fill_matches_iteration_in_chunks() {
        let c = Cycle::new(10_000, 99);
        let expect: Vec<u64> = c.iter_shard(1, 3).collect();
        let mut it = c.iter_shard(1, 3);
        let mut got = Vec::new();
        let mut chunk = [0u64; 64];
        loop {
            let n = it.fill(&mut chunk);
            if n == 0 {
                break;
            }
            got.extend_from_slice(&chunk[..n]);
        }
        assert_eq!(got, expect);
    }

    #[test]
    fn position_roundtrip_resumes_walk() {
        let c = Cycle::new(10_000, 7);
        let mut it = c.iter_shard(1, 3);
        let mut head = [0u64; 100];
        assert_eq!(it.fill(&mut head), 100);
        let (current, remaining) = it.position();
        let tail_direct: Vec<u64> = it.collect();
        let mut resumed = c.iter_shard(1, 3);
        resumed.set_position(current, remaining);
        let tail_resumed: Vec<u64> = resumed.collect();
        assert_eq!(tail_resumed, tail_direct);
    }

    #[test]
    fn step_agrees_with_mulmod_on_both_sides_of_2_pow_64() {
        use crate::math::next_prime;
        let mut x = 0x5eed_u64;
        let mut draw = || {
            // splitmix64
            x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = x;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        };
        let largest_u64_prime = (1u128 << 64) - 59;
        for prime in [
            2,
            4_294_967_311,
            largest_u64_prime,
            next_prime(largest_u64_prime),
            next_prime(1 << 100),
        ] {
            let mut cases = vec![(1, 1), (prime - 1, prime - 1), (1, prime - 1)];
            for _ in 0..10_000 {
                let wide = |lo: u64, hi: u64| ((hi as u128) << 64 | lo as u128) % prime;
                cases.push((wide(draw(), draw()), wide(draw(), draw())));
            }
            for (a, b) in cases {
                assert_eq!(
                    step(a, b, prime),
                    mulmod(a, b, prime),
                    "{a} * {b} mod {prime}"
                );
            }
        }
    }

    #[test]
    #[should_panic(expected = "empty space")]
    fn zero_length_rejected() {
        Cycle::new(0, 0);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn shard_bounds_checked() {
        Cycle::new(10, 0).iter_shard(3, 3);
    }
}

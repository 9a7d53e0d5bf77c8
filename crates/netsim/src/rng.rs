//! Deterministic hashing utilities for procedural generation.
//!
//! The world model derives every device property (existence, vendor, IID,
//! services, vulnerability) by hashing `(seed, namespace, index…)` tuples.
//! All derivations funnel through [`DetHash`], a SplitMix64-based stream
//! hasher: cheap, full-avalanche, stable across platforms and runs.

/// A deterministic 64-bit stream hasher.
///
/// # Examples
///
/// ```
/// use xmap_netsim::rng::DetHash;
///
/// let a = DetHash::new(42).mix(b"device").mix_u64(7).finish();
/// let b = DetHash::new(42).mix(b"device").mix_u64(7).finish();
/// assert_eq!(a, b);
/// let c = DetHash::new(42).mix(b"device").mix_u64(8).finish();
/// assert_ne!(a, c);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DetHash {
    state: u64,
}

impl DetHash {
    /// Starts a hash stream from a seed.
    pub const fn new(seed: u64) -> Self {
        DetHash {
            state: seed ^ 0x6a09_e667_f3bc_c909,
        }
    }

    /// Mixes a byte-string label into the stream (used as a namespace).
    #[must_use]
    pub fn mix(mut self, label: &[u8]) -> Self {
        for chunk in label.chunks(8) {
            let mut v = [0u8; 8];
            v[..chunk.len()].copy_from_slice(chunk);
            self.state = splitmix(self.state ^ u64::from_le_bytes(v));
        }
        self.state = splitmix(self.state ^ label.len() as u64);
        self
    }

    /// Mixes a 64-bit value into the stream.
    #[must_use]
    pub fn mix_u64(mut self, v: u64) -> Self {
        self.state = splitmix(self.state ^ v);
        self
    }

    /// Mixes a 128-bit value into the stream.
    #[must_use]
    pub fn mix_u128(self, v: u128) -> Self {
        self.mix_u64(v as u64).mix_u64((v >> 64) as u64)
    }

    /// Finishes the stream, producing a full-avalanche 64-bit digest.
    pub fn finish(self) -> u64 {
        splitmix(self.state)
    }

    /// Finishes and maps the digest to a uniform float in `[0, 1)`.
    pub fn unit(self) -> f64 {
        // 53 high bits -> exactly representable dyadic rational in [0,1).
        (self.finish() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Finishes and maps the digest uniformly onto `0..bound`.
    ///
    /// # Panics
    ///
    /// Panics if `bound == 0`.
    pub fn bounded(self, bound: u64) -> u64 {
        assert!(bound > 0, "bound must be nonzero");
        // 128-bit multiply-shift: unbiased enough for simulation purposes
        // (bias < 2^-64 per draw).
        ((self.finish() as u128 * bound as u128) >> 64) as u64
    }

    /// Finishes and returns `true` with probability `p`.
    pub fn chance(self, p: f64) -> bool {
        self.unit() < p
    }
}

/// SplitMix64 step.
fn splitmix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Draws an index from a weighted table: returns `i` with probability
/// `weights[i] / sum(weights)`. The weights are walked twice (sum, then
/// pick), so callers pass a cheap cloneable iterator instead of collecting
/// a `Vec` per draw.
///
/// # Panics
///
/// Panics if `weights` is empty or sums to zero.
pub fn weighted_pick(h: DetHash, weights: impl Iterator<Item = u32> + Clone) -> usize {
    let total: u64 = weights.clone().map(u64::from).sum();
    assert!(total > 0, "weights must not all be zero");
    let mut draw = h.bounded(total);
    for (i, w) in weights.enumerate() {
        if draw < w as u64 {
            return i;
        }
        draw -= w as u64;
    }
    unreachable!("draw below total guarantees a pick")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_across_instances() {
        let a = DetHash::new(1).mix(b"x").mix_u64(2).finish();
        let b = DetHash::new(1).mix(b"x").mix_u64(2).finish();
        assert_eq!(a, b);
    }

    #[test]
    fn namespace_separation() {
        let a = DetHash::new(1).mix(b"alpha").finish();
        let b = DetHash::new(1).mix(b"beta").finish();
        assert_ne!(a, b);
        // Length is mixed, so a prefix label differs from its extension.
        let c = DetHash::new(1).mix(b"alph").finish();
        assert_ne!(a, c);
    }

    #[test]
    fn unit_in_range_and_spread() {
        let mut below_half = 0;
        for i in 0..1000u64 {
            let u = DetHash::new(9).mix_u64(i).unit();
            assert!((0.0..1.0).contains(&u));
            if u < 0.5 {
                below_half += 1;
            }
        }
        // Roughly uniform: 500 ± 70.
        assert!((430..570).contains(&below_half), "{below_half}");
    }

    #[test]
    fn bounded_covers_small_range() {
        let mut seen = [false; 7];
        for i in 0..500u64 {
            seen[DetHash::new(3).mix_u64(i).bounded(7) as usize] = true;
        }
        assert!(seen.iter().all(|s| *s));
    }

    #[test]
    #[should_panic(expected = "bound must be nonzero")]
    fn bounded_zero_panics() {
        DetHash::new(0).bounded(0);
    }

    #[test]
    fn weighted_pick_respects_weights() {
        let weights = [0, 10, 0, 30];
        let mut counts = [0u32; 4];
        for i in 0..4000u64 {
            counts[weighted_pick(DetHash::new(5).mix_u64(i), weights.iter().copied())] += 1;
        }
        assert_eq!(counts[0], 0);
        assert_eq!(counts[2], 0);
        // 1:3 ratio, tolerant bounds.
        assert!(counts[1] > 700 && counts[1] < 1300, "{counts:?}");
        assert!(counts[3] > 2700 && counts[3] < 3300, "{counts:?}");
    }

    #[test]
    fn chance_extremes() {
        assert!(!DetHash::new(1).mix_u64(1).chance(0.0));
        assert!(DetHash::new(1).mix_u64(1).chance(1.0));
    }
}

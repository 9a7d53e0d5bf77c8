//! Public chunked index-walk streaming.
//!
//! The scanner's hot loop fills fixed-size index chunks from an
//! [`IndexWalk`] ([`ShardIter::fill_raw`], [`FeistelPermutation::fill`],
//! or a plain stride) instead of materializing per-target state. Callers
//! outside the scanner — the loopscan surveys' strided walks and the
//! adaptive engine's per-node permutation draws — use the same type, so
//! every target loop in the workspace streams through one chunked,
//! zero-allocation path.

use crate::cyclic::ShardIter;
use crate::feistel::FeistelPermutation;

/// A resumable stream of scan-space indices, filled chunk by chunk.
///
/// # Examples
///
/// ```
/// use xmap::walk::IndexWalk;
///
/// // The strided walk 0, 3, 6, 9 — chunked through a 3-slot buffer.
/// let mut walk = IndexWalk::strided(0, 3, 4);
/// let mut buf = [0u64; 3];
/// assert_eq!(walk.fill(&mut buf), 3);
/// assert_eq!(buf, [0, 3, 6]);
/// assert_eq!(walk.fill(&mut buf), 1);
/// assert_eq!(buf[0], 9);
/// assert_eq!(walk.fill(&mut buf), 0);
/// ```
#[derive(Debug, Clone)]
pub enum IndexWalk {
    /// Arithmetic progression `start, start + stride, …` of `remaining`
    /// indices — the survey scanners' deterministic coarse walk and the
    /// scanner's sequential (unpermuted) order.
    Strided {
        /// Next index to emit.
        next: u64,
        /// Step between indices.
        stride: u64,
        /// Indices left to emit.
        remaining: u64,
    },
    /// A Feistel permutation evaluated at positions `next_pos,
    /// next_pos + stride, …` up to the permutation length — the
    /// pseudorandom without-replacement walk of the scanner and the
    /// adaptive engine's per-node sampler.
    Feistel {
        /// The permutation over the index space.
        perm: FeistelPermutation,
        /// Next position to evaluate.
        next_pos: u64,
        /// Step between positions.
        stride: u64,
    },
    /// A cyclic-group shard walk (the classic ZMap multiplicative
    /// cycle), one index per group step: a step that lands in the gap
    /// between the space and the group emits `u64::MAX`
    /// ([`ShardIter::fill_raw`]), so walk positions stay group steps.
    Cyclic(ShardIter),
}

impl IndexWalk {
    /// A strided walk emitting `count` indices from `start` in steps of
    /// `stride`.
    pub fn strided(start: u64, stride: u64, count: u64) -> Self {
        assert!(stride > 0, "stride must be positive");
        IndexWalk::Strided {
            next: start,
            stride,
            remaining: count,
        }
    }

    /// A permuted walk from position `first_pos`, striding by 1.
    pub fn permuted(perm: FeistelPermutation, first_pos: u64) -> Self {
        IndexWalk::Feistel {
            perm,
            next_pos: first_pos,
            stride: 1,
        }
    }

    /// Fills `out` with the next indices, returning how many were
    /// produced (less than `out.len()` only at the end of the walk).
    pub fn fill(&mut self, out: &mut [u64]) -> usize {
        match self {
            IndexWalk::Strided {
                next,
                stride,
                remaining,
            } => {
                let n = (*remaining).min(out.len() as u64) as usize;
                for slot in out.iter_mut().take(n) {
                    *slot = *next;
                    // The final advance may sit at the space boundary;
                    // saturate instead of wrapping.
                    *next = next.saturating_add(*stride);
                }
                *remaining -= n as u64;
                n
            }
            IndexWalk::Feistel {
                perm,
                next_pos,
                stride,
            } => {
                let n = perm.fill(*next_pos, *stride, out);
                // Past the end on overflow: positions are below the
                // permutation length, so MAX ends the walk.
                *next_pos = (n as u64)
                    .checked_mul(*stride)
                    .and_then(|step| next_pos.checked_add(step))
                    .unwrap_or(u64::MAX);
                n
            }
            IndexWalk::Cyclic(iter) => iter.fill_raw(out),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn strided_walk_matches_naive_loop() {
        let space = 1u64 << 16;
        let step = space / 100;
        let mut expect = Vec::new();
        for k in 0..100u64 {
            expect.push((k * step) % space);
        }
        let mut walk = IndexWalk::strided(0, step, 100);
        let mut got = Vec::new();
        let mut buf = [0u64; 7];
        loop {
            let n = walk.fill(&mut buf);
            if n == 0 {
                break;
            }
            got.extend_from_slice(&buf[..n]);
        }
        assert_eq!(got, expect);
    }

    #[test]
    fn permuted_walk_matches_index_calls() {
        let perm = FeistelPermutation::new(1000, 42);
        let expect: Vec<u64> = (0..1000).map(|i| perm.index(i)).collect();
        let mut walk = IndexWalk::permuted(FeistelPermutation::new(1000, 42), 0);
        let mut got = Vec::new();
        let mut buf = [0u64; 64];
        loop {
            let n = walk.fill(&mut buf);
            if n == 0 {
                break;
            }
            got.extend_from_slice(&buf[..n]);
        }
        assert_eq!(got, expect);
    }

    #[test]
    fn permuted_walk_resumes_mid_stream() {
        let perm = FeistelPermutation::new(500, 9);
        let mut all = IndexWalk::permuted(perm, 0);
        let mut buf = [0u64; 100];
        assert_eq!(all.fill(&mut buf), 100);
        let head: Vec<u64> = buf.to_vec();
        // A fresh walk from position 50 reproduces the tail.
        let mut resumed = IndexWalk::permuted(perm, 50);
        let mut buf2 = [0u64; 50];
        assert_eq!(resumed.fill(&mut buf2), 50);
        assert_eq!(&head[50..], &buf2[..]);
    }
}

//! Public chunked index-walk streaming, and the one rule for which walk
//! positions a run owns.
//!
//! The scanner's hot loop fills fixed-size index chunks from an
//! [`IndexWalk`] ([`ShardIter::fill_raw`], [`FeistelPermutation::fill`],
//! or a plain stride) instead of materializing per-target state. Callers
//! outside the scanner — the loopscan surveys' strided walks and the
//! adaptive engine's per-node permutation draws — use the same type, so
//! every target loop in the workspace streams through one chunked,
//! zero-allocation path.
//!
//! A [`SplitUnit`] names an arithmetic sub-progression of a walk's
//! positions: `{offset + j·stride : j < cap}`. A scan slot — shard `s`
//! of `S` of the base permutation — is itself the unit `(s, S, ·)` of
//! the base walk, and every finer division nests inside it:
//! [`ParallelScanner`](crate::ParallelScanner)'s worker `w` of `n` runs
//! [`part`](SplitUnit::part) `w` of `n` of the slot, and the campaign
//! executor's intra-block splits deal a unit's remaining positions
//! round-robin with [`split_tail`](SplitUnit::split_tail). Parts
//! compose: any part can split again, and every reachable partition
//! covers each position exactly once (pinned by the proptests below).
//! [`Scanner::run_unit`](crate::Scanner::run_unit) walks a unit
//! [`nested_in`](SplitUnit::nested_in) its slot as base shard
//! [`shard`](SplitUnit::shard) of `stride` with the first
//! [`walk_skip`](SplitUnit::walk_skip) positions discarded, so
//! `offset ≥ stride` — the normal case for late parts — never violates
//! the `shard < shards` invariant.

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
    /// Given indices in list order: the targets an earlier walk left
    /// silent ([`Scanner::run_second_chance`](crate::Scanner::run_second_chance)).
    Listed(std::vec::IntoIter<u64>),
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
            IndexWalk::Listed(indices) => out.iter_mut().zip(indices).map(|(o, i)| *o = i).count(),
        }
    }
}

/// One sub-progression of a walk: positions `{offset + j·stride : j <
/// cap}`. Coordinates are relative to whatever walk contains the unit —
/// a block's walk inside its scan slot, or the base permutation once
/// [`nested_in`](SplitUnit::nested_in) that slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SplitUnit {
    /// First walk position this unit owns.
    pub offset: u64,
    /// Distance between consecutive owned positions.
    pub stride: u64,
    /// Number of positions owned.
    pub cap: u64,
}

impl SplitUnit {
    /// The root unit covering the first `cap` positions of a walk.
    pub fn whole(cap: u64) -> Self {
        SplitUnit {
            offset: 0,
            stride: 1,
            cap,
        }
    }

    /// Whether this unit is the (settled) root: the unique unit with
    /// stride 1 of any partition that splits in two or more parts.
    pub fn is_root(&self) -> bool {
        self.stride == 1
    }

    /// The shard index this unit walks as.
    pub fn shard(&self) -> u64 {
        self.offset % self.stride
    }

    /// Leading shard-walk positions discarded before this unit's first
    /// owned position.
    pub fn walk_skip(&self) -> u64 {
        self.offset / self.stride
    }

    /// The containing walk's position of this unit's `j`-th owned
    /// position.
    pub fn position(&self, j: u64) -> u64 {
        self.offset + j * self.stride
    }

    /// All owned positions, in unit-local order.
    pub fn positions(&self) -> impl Iterator<Item = u64> + '_ {
        (0..self.cap).map(move |j| self.position(j))
    }

    /// Part `i` of `parts`: the owned positions whose unit-local ordinal
    /// is `≡ i (mod parts)`. The parts `0..parts` partition this unit;
    /// a part may own nothing (`cap == 0`) when `parts` exceeds `cap`.
    pub fn part(&self, i: u64, parts: u64) -> SplitUnit {
        SplitUnit {
            offset: self.position(i),
            stride: self.stride * parts,
            cap: worker_cap(self.cap, i, parts),
        }
    }

    /// This unit of the walk of shard `shard` of `shards`, in positions
    /// of the walk that shard divides: `{shard + shards·p : p owned}`.
    pub fn nested_in(&self, shard: u64, shards: u64) -> SplitUnit {
        SplitUnit {
            offset: shard + shards * self.offset,
            stride: shards * self.stride,
            cap: self.cap,
        }
    }

    /// Splits the tail of this unit after `consumed` owned positions
    /// into `parts` sub-units, returning `(settled, parts)`: the
    /// settled prefix `(offset, stride, consumed)` plus the non-empty
    /// [`part`](SplitUnit::part)s `0..parts` of the remaining positions,
    /// i.e. `(offset + (consumed+i)·stride, stride·parts,
    /// ⌈(cap−consumed−i)/parts⌉)`.
    ///
    /// # Panics
    ///
    /// Panics if `consumed > cap` or `parts == 0`.
    pub fn split_tail(&self, consumed: u64, parts: u64) -> (SplitUnit, Vec<SplitUnit>) {
        assert!(consumed <= self.cap, "cannot settle beyond the unit cap");
        assert!(parts > 0, "need at least one part");
        let settled = SplitUnit {
            cap: consumed,
            ..*self
        };
        let rest = SplitUnit {
            offset: self.position(consumed),
            stride: self.stride,
            cap: self.cap - consumed,
        };
        let out = (0..parts)
            .map(|i| rest.part(i, parts))
            .filter(|part| part.cap > 0)
            .collect();
        (settled, out)
    }
}

/// How many of the first `cap` positions part `i` of `n` owns (position
/// `j` goes to part `j mod n`).
fn worker_cap(cap: u64, i: u64, n: u64) -> u64 {
    if cap <= i {
        0
    } else {
        (cap - i).div_ceil(n)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

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

    fn positions_of(units: &[SplitUnit]) -> Vec<u64> {
        let mut all: Vec<u64> = units.iter().flat_map(|u| u.positions()).collect();
        all.sort_unstable();
        all
    }

    #[test]
    fn whole_unit_covers_every_position_once() {
        let u = SplitUnit::whole(10);
        assert!(u.is_root());
        assert_eq!(
            u.positions().collect::<Vec<_>>(),
            (0..10).collect::<Vec<_>>()
        );
    }

    #[test]
    fn split_tail_settles_prefix_and_partitions_rest() {
        let (settled, parts) = SplitUnit::whole(10).split_tail(4, 3);
        assert_eq!(
            settled,
            SplitUnit {
                offset: 0,
                stride: 1,
                cap: 4
            }
        );
        assert!(settled.is_root());
        let mut rest = positions_of(&parts);
        rest.sort_unstable();
        assert_eq!(rest, (4..10).collect::<Vec<_>>());
        // No part is a root: the settled prefix keeps stride 1 for itself.
        assert!(parts.iter().all(|p| !p.is_root()));
    }

    #[test]
    fn sub_shard_form_respects_shard_invariant() {
        let (_, parts) = SplitUnit::whole(1000).split_tail(700, 4);
        for p in &parts {
            assert!(p.shard() < p.stride, "{p:?}");
            // shard + (skip + j) * stride reproduces every position.
            let rebuilt: Vec<u64> = (0..p.cap)
                .map(|j| p.shard() + (p.walk_skip() + j) * p.stride)
                .collect();
            assert_eq!(rebuilt, p.positions().collect::<Vec<_>>());
        }
    }

    proptest! {
        /// Splitting at any cursor into any (workers, shard) layout
        /// exactly partitions the remaining indices — no duplicate, no
        /// loss — and composes with a second nested split of any part.
        #[test]
        fn nested_splits_partition_exactly(
            cap in 1u64..5000,
            consumed_frac in 0u64..=100,
            parts in 1u64..9,
            pick in 0usize..8,
            consumed2_frac in 0u64..=100,
            parts2 in 1u64..9,
        ) {
            let root = SplitUnit::whole(cap);
            let consumed = cap * consumed_frac / 100;
            let (settled, subs) = root.split_tail(consumed, parts);
            let mut units = vec![settled];
            units.extend(subs.iter().copied());
            prop_assert_eq!(positions_of(&units), (0..cap).collect::<Vec<_>>());

            // Second-level split of an arbitrary part.
            if !subs.is_empty() {
                let victim = subs[pick % subs.len()];
                let consumed2 = victim.cap * consumed2_frac / 100;
                let (settled2, subs2) = victim.split_tail(consumed2, parts2);
                let mut nested: Vec<SplitUnit> = units
                    .iter()
                    .copied()
                    .filter(|u| *u != victim)
                    .collect();
                nested.push(settled2);
                nested.extend(subs2);
                prop_assert_eq!(positions_of(&nested), (0..cap).collect::<Vec<_>>());
                // Exactly one root survives any real split schedule
                // (the executor always splits k ≥ 2; a k = 1 "split"
                // degenerately hands the whole tail to one part, which
                // then inherits the parent's stride).
                if parts >= 2 && parts2 >= 2 {
                    prop_assert_eq!(nested.iter().filter(|u| u.is_root()).count(), 1);
                }
            }
        }

        /// Every unit runs under the scanner's `shard < shards` invariant.
        #[test]
        fn parts_always_satisfy_shard_invariant(
            cap in 1u64..5000,
            consumed_frac in 0u64..=100,
            parts in 2u64..9,
        ) {
            let consumed = cap * consumed_frac / 100;
            let (_, subs) = SplitUnit::whole(cap).split_tail(consumed, parts);
            for p in subs {
                prop_assert!(p.shard() < p.stride);
                prop_assert_eq!(p.shard() + p.walk_skip() * p.stride, p.offset);
            }
        }
    }

    #[test]
    fn nested_units_walk_inside_their_slot() {
        // Part 1 of 2 of shard 1 of 3's first 7 positions.
        let unit = SplitUnit::whole(7).part(1, 2).nested_in(1, 3);
        assert_eq!(unit.positions().collect::<Vec<_>>(), [4, 10, 16]);
        assert_eq!((unit.shard(), unit.stride, unit.walk_skip()), (4, 6, 0));
        // A late split part walks its shard after a skip.
        let (_, parts) = SplitUnit::whole(100).split_tail(40, 2);
        let late = parts[1].nested_in(1, 3);
        assert_eq!(late.position(0), 1 + 3 * 41);
        assert_eq!(late.shard() + late.walk_skip() * late.stride, late.offset);
    }

    #[test]
    fn worker_caps_partition_exactly() {
        for cap in [0u64, 1, 5, 4096, 4097] {
            for n in [1u64, 2, 3, 4, 7] {
                let total: u64 = (0..n).map(|w| worker_cap(cap, w, n)).sum();
                assert_eq!(total, cap, "cap {cap} workers {n}");
            }
        }
    }
}

//! Intra-block shard splitting: the nested-shard math behind the
//! campaign executor's split-when-idle protocol (DESIGN.md §5j).
//!
//! A [`SplitUnit`] names an arithmetic sub-progression of one block's
//! walk positions: `{offset + j·stride : j < cap}` over the block's
//! permuted index walk. The whole block is the root unit `(0, 1, cap)`;
//! when a worker running unit `(o, M, C)` yields after consuming `d`
//! positions, [`SplitUnit::split_tail`] settles the consumed prefix as
//! `(o, M, d)` and deals the remaining `C − d` positions round-robin
//! into `k` parts `(o + (d+i)·M, M·k, ⌈(C−d−i)/k⌉)` — exactly
//! `ParallelScanner`'s `shard s + w·S of S·N` nesting, applied to the
//! *remaining* cursor range. Parts compose: any part can split again,
//! and every reachable partition covers each position exactly once
//! (pinned by the proptests below).
//!
//! Execution: a unit runs as scanner shard `offset % stride` of
//! `stride` with the first `offset / stride` walk positions skipped
//! ([`Scanner::set_sub_shard`](xmap::Scanner::set_sub_shard)), so
//! `offset ≥ stride` — the normal case for late parts — never violates
//! the `shard < shards` invariant. Exactly one unit in any partition of
//! a block has `stride == 1` (the settled root prefix); that
//! [`is_root`](SplitUnit::is_root) unit is the one that carries
//! root-only per-block work.

use xmap::worker_cap;

/// One sub-shard of a block's walk: positions `{offset + j·stride : j <
/// cap}` of the block's permuted index walk.
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
    /// The root unit covering a whole block of `cap` walk positions.
    pub fn whole(cap: u64) -> Self {
        SplitUnit {
            offset: 0,
            stride: 1,
            cap,
        }
    }

    /// Whether this unit is the (settled) root: the unique unit of any
    /// partition with stride 1. Root-only per-block work (the mop-up
    /// refill delay) keys off this.
    pub fn is_root(&self) -> bool {
        self.stride == 1
    }

    /// The scanner shard index this unit runs as.
    pub fn shard(&self) -> u64 {
        self.offset % self.stride
    }

    /// Leading shard-walk positions the scanner discards before this
    /// unit's first owned position.
    pub fn walk_skip(&self) -> u64 {
        self.offset / self.stride
    }

    /// The base walk position of this unit's `j`-th owned position.
    pub fn position(&self, j: u64) -> u64 {
        self.offset + j * self.stride
    }

    /// All owned base walk positions, in unit-local order.
    pub fn positions(&self) -> impl Iterator<Item = u64> + '_ {
        (0..self.cap).map(move |j| self.position(j))
    }

    /// Splits the tail of this unit after `consumed` owned positions
    /// into `parts` sub-units, returning `(settled, parts)`: the
    /// settled prefix `(offset, stride, consumed)` plus up to `parts`
    /// non-empty sub-units that exactly partition the remaining
    /// positions. Part `i` takes remaining ordinals `≡ i (mod parts)`,
    /// i.e. `(offset + (consumed+i)·stride, stride·parts,
    /// worker_cap(cap−consumed, i, parts))`; zero-cap parts are
    /// dropped.
    ///
    /// # Panics
    ///
    /// Panics if `consumed > cap` or `parts == 0`.
    pub fn split_tail(&self, consumed: u64, parts: u64) -> (SplitUnit, Vec<SplitUnit>) {
        assert!(consumed <= self.cap, "cannot settle beyond the unit cap");
        assert!(parts > 0, "need at least one part");
        let settled = SplitUnit {
            offset: self.offset,
            stride: self.stride,
            cap: consumed,
        };
        let rest = self.cap - consumed;
        let out = (0..parts)
            .filter_map(|i| {
                let cap = worker_cap(rest, i, parts);
                (cap > 0).then(|| SplitUnit {
                    offset: self.offset + (consumed + i) * self.stride,
                    stride: self.stride * parts,
                    cap,
                })
            })
            .collect();
        (settled, out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

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
}

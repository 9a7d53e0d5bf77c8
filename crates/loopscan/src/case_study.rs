//! The 99-entry controlled router testbed (Section VI-D / Table XII).
//!
//! Each router model is wired into the Figure 4 home network (WAN /64,
//! delegated LAN /60) and probed with one 255-hop-limit packet into the
//! not-used region of each prefix; routing tables and traffic decide the
//! verdicts. Conforming with the paper, every model is vulnerable on at
//! least one prefix, routers with an immune prefix answer Destination
//! Unreachable there, and the limited-loop firmware (Xiaomi, Gargoyle,
//! librecmc, OpenWrt) forwards loop packets more than 10 but far fewer
//! than (255−n)/2 times.

use xmap_netsim::packet::{Icmpv6, Ipv6Packet, Network, Payload, MAX_HOP_LIMIT};
use xmap_netsim::topology::{build_home_network, full_catalog, HomeNetworkPlan, RouterModel};

/// Verdict for one prefix of one tested router.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PrefixVerdict {
    /// The prefix loops; carries the measured loop traversal count.
    Vulnerable {
        /// ISP↔CPE traversals of one attack packet.
        loop_forwards: u64,
    },
    /// The router answered Destination Unreachable (immune).
    Immune,
    /// No conclusive response.
    Inconclusive,
}

impl PrefixVerdict {
    /// Whether the verdict is vulnerable.
    pub fn is_vulnerable(&self) -> bool {
        matches!(self, PrefixVerdict::Vulnerable { .. })
    }
}

/// One Table XII row: a tested router with per-prefix verdicts.
#[derive(Debug, Clone)]
pub struct CaseStudyRow {
    /// The tested model.
    pub model: RouterModel,
    /// WAN-prefix verdict.
    pub wan: PrefixVerdict,
    /// LAN-prefix verdict.
    pub lan: PrefixVerdict,
}

impl CaseStudyRow {
    /// Vulnerable on at least one prefix.
    pub fn is_vulnerable(&self) -> bool {
        self.wan.is_vulnerable() || self.lan.is_vulnerable()
    }
}

/// Tests one prefix of one model; `target` must be a not-used destination
/// inside the prefix under test.
fn test_prefix(
    model: &RouterModel,
    plan: &HomeNetworkPlan,
    target: xmap_addr::Ip6,
) -> PrefixVerdict {
    let (mut engine, net) = build_home_network(model, plan);
    engine.reset_counters();
    let mut replies = Vec::new();
    engine.handle_into(
        Ipv6Packet::echo_request(plan.vantage_addr, target, MAX_HOP_LIMIT, 0, 0),
        &mut replies,
    );
    let loop_forwards =
        engine.link_forwards(net.isp, net.cpe) + engine.link_forwards(net.cpe, net.isp);
    match replies.first().map(|r| &r.payload) {
        Some(Payload::Icmp(Icmpv6::TimeExceeded { .. })) => {
            PrefixVerdict::Vulnerable { loop_forwards }
        }
        Some(Payload::Icmp(Icmpv6::DestUnreachable { .. })) => PrefixVerdict::Immune,
        _ if loop_forwards > 4 => PrefixVerdict::Vulnerable { loop_forwards },
        _ => PrefixVerdict::Inconclusive,
    }
}

/// Tests one router model on both prefixes.
pub fn run_case_study(model: &RouterModel) -> CaseStudyRow {
    let plan = HomeNetworkPlan::default();
    let wan = test_prefix(model, &plan, plan.nx_wan_address());
    let lan = test_prefix(model, &plan, plan.not_used_lan_prefix().addr().with_iid(1));
    CaseStudyRow {
        model: *model,
        wan,
        lan,
    }
}

/// Runs the full 99-entry testbed.
pub fn run_case_studies() -> Vec<CaseStudyRow> {
    full_catalog().iter().map(run_case_study).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use xmap_netsim::topology::NAMED_MODELS;

    #[test]
    fn all_99_models_vulnerable() {
        let rows = run_case_studies();
        assert_eq!(rows.len(), 99);
        for row in &rows {
            assert!(
                row.is_vulnerable(),
                "{} {} not vulnerable",
                row.model.brand,
                row.model.model
            );
        }
    }

    #[test]
    fn verdicts_match_table_xii_flags() {
        for model in NAMED_MODELS {
            let row = run_case_study(model);
            assert_eq!(
                row.wan.is_vulnerable(),
                model.wan_vulnerable,
                "{} WAN",
                model.brand
            );
            assert_eq!(
                row.lan.is_vulnerable(),
                model.lan_vulnerable,
                "{} LAN",
                model.brand
            );
        }
    }

    #[test]
    fn immune_prefixes_answer_unreachable() {
        // ASUS GT-AC5300: LAN immune.
        let asus = NAMED_MODELS.iter().find(|m| m.brand == "ASUS").unwrap();
        let row = run_case_study(asus);
        assert_eq!(row.lan, PrefixVerdict::Immune);
        assert!(row.wan.is_vulnerable());
    }

    #[test]
    fn limited_models_forward_more_than_10_times() {
        let rows = run_case_studies();
        let limited: Vec<_> = rows
            .iter()
            .filter(|r| {
                matches!(
                    r.model.behavior,
                    xmap_netsim::topology::LoopBehavior::Limited { .. }
                )
            })
            .collect();
        assert!(limited.len() >= 4, "{}", limited.len());
        for row in limited {
            let PrefixVerdict::Vulnerable { loop_forwards } = row.wan else {
                panic!("{}: WAN not vulnerable", row.model.brand);
            };
            assert!(
                loop_forwards > 10 && loop_forwards < 60,
                "{}: {loop_forwards}",
                row.model.brand
            );
        }
    }

    #[test]
    fn full_loop_models_forward_about_half_of_255_each_way() {
        let huawei = NAMED_MODELS.iter().find(|m| m.brand == "Huawei").unwrap();
        let row = run_case_study(huawei);
        let PrefixVerdict::Vulnerable { loop_forwards } = row.lan else {
            panic!()
        };
        // Each router sees the packet (255-n)/2 times; traversals ≈ 255-n.
        assert!((240..=255).contains(&loop_forwards), "{loop_forwards}");
    }
}

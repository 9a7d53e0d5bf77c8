//! Integration: survey → disclosure → mitigation, end to end.

use xmap::{ScanConfig, Scanner};
use xmap_loopscan::{patch_model, verify_mitigation, DepthSurvey, DisclosureCampaign, Severity};
use xmap_netsim::isp::SAMPLE_BLOCKS;
use xmap_netsim::packet::{Icmpv6, Ipv6Packet, Network, Payload, MAX_HOP_LIMIT};
use xmap_netsim::topology::{build_home_network, full_catalog, HomeNetworkPlan};
use xmap_netsim::world::{World, WorldConfig};

#[test]
fn survey_feeds_disclosure_which_names_real_vendors() {
    let world = World::with_config(WorldConfig::lossless(777, 10));
    let mut scanner = Scanner::new(
        world,
        ScanConfig {
            seed: 777,
            ..Default::default()
        },
    );
    let mut depth = xmap_loopscan::survey::DepthSurveyResult::default();
    let driver = DepthSurvey::new(1 << 16);
    for idx in [11usize, 12, 13] {
        driver.run_block(&mut scanner, &SAMPLE_BLOCKS[idx], &mut depth);
    }
    assert!(!depth.peripheries.is_empty());

    let campaign = DisclosureCampaign::from_depth_survey(&depth);
    // Every advisory vendor resolves in the OUI registry and every advisory
    // carries actionable text.
    for advisory in &campaign.vendors {
        assert!(
            xmap_addr::oui::ouis_of(advisory.vendor).next().is_some(),
            "advisory for unknown vendor {}",
            advisory.vendor
        );
        assert_eq!(advisory.severity, Severity::High);
        assert!(advisory.affected_devices > 0);
        let text = campaign
            .advisory_text(advisory.vendor)
            .expect("advisory renders");
        assert!(text.contains("RFC 7084"));
    }
    // Operators are the measurement ASes.
    for notice in &campaign.operators {
        assert!(
            [4134u32, 4837, 9808].contains(&notice.asn),
            "unexpected operator AS{}",
            notice.asn
        );
        assert!(notice.affected_devices > 0);
    }
    // The vendor totals equal the attributable loop devices.
    let attributed: usize = campaign.vendors.iter().map(|v| v.affected_devices).sum();
    assert!(attributed <= depth.peripheries.len());
}

#[test]
fn mitigated_catalog_passes_the_loop_scan() {
    // After applying the RFC 7084 patch to every catalog model, the attack
    // packet draws a reject-route unreachable and the loop scan finds
    // nothing.
    let plan = HomeNetworkPlan::default();
    for model in full_catalog() {
        let patched = patch_model(&model);
        let (mut engine, net) = build_home_network(&patched, &plan);
        engine.reset_counters();
        for target in [
            plan.nx_wan_address(),
            plan.not_used_lan_prefix().addr().with_iid(1),
        ] {
            let mut replies = Vec::new();
            engine.handle_into(
                Ipv6Packet::echo_request(plan.vantage_addr, target, MAX_HOP_LIMIT, 0, 0),
                &mut replies,
            );
            assert!(
                replies
                    .iter()
                    .any(|r| matches!(r.payload, Payload::Icmp(Icmpv6::DestUnreachable { .. }))),
                "{} {}: no unreachable for {target}",
                model.brand,
                model.model
            );
        }
        let loop_fwd =
            engine.link_forwards(net.isp, net.cpe) + engine.link_forwards(net.cpe, net.isp);
        assert!(
            loop_fwd <= 4,
            "{} {}: residual loop {loop_fwd}",
            model.brand,
            model.model
        );
    }
}

#[test]
fn mitigation_report_consistency_with_case_studies() {
    // Every vulnerable named model's report shows a >100x traffic drop.
    for model in xmap_netsim::topology::NAMED_MODELS {
        let report = verify_mitigation(model);
        assert!(report.effective(), "{}: {report:?}", model.brand);
        assert!(
            report.loop_forwards_before >= 10 * report.loop_forwards_after.max(1),
            "{}: {report:?}",
            model.brand
        );
    }
}

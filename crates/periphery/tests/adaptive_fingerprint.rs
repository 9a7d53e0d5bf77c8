//! Pins `AdaptiveCampaign::fingerprint` for the configurations the CLI,
//! the daemon and the benchmark build. The fingerprint is stored in every
//! `adaptive.ckpt`, so a change to it refuses every checkpoint written
//! before the change. The constants were captured from the engine while
//! each arm's policy was still a set of public `AdaptiveConfig` fields.

use xmap::ScanConfig;
use xmap_periphery::{AdaptiveCampaign, AdaptiveConfig};

fn fp(campaign: AdaptiveCampaign) -> u64 {
    campaign.fingerprint(&ScanConfig {
        seed: 7,
        ..Default::default()
    })
}

#[test]
fn adaptive_fingerprints_are_pinned() {
    let cases = [
        (
            "default",
            AdaptiveCampaign::new(AdaptiveConfig::default()),
            0x108d_e77f_3be0_4c77,
        ),
        (
            "root_bits 16",
            AdaptiveCampaign::new(AdaptiveConfig {
                root_bits: Some(16),
                ..Default::default()
            }),
            0x7954_63b6_63d7_ffa2,
        ),
        (
            "exhaustive 16",
            AdaptiveCampaign::new(AdaptiveConfig::exhaustive(Some(16))),
            0xdacf_7c96_df9d_d112,
        ),
        (
            "default, inferred boundary",
            AdaptiveCampaign::new(AdaptiveConfig::default()).with_inferred_boundary(true),
            0x911e_1b45_9a4c_a292,
        ),
    ];
    let moved: Vec<String> = cases
        .into_iter()
        .filter_map(|(name, campaign, want)| {
            let got = fp(campaign);
            (got != want).then(|| format!("{name}: {got:#018x}, pinned {want:#018x}"))
        })
        .collect();
    assert!(moved.is_empty(), "fingerprints moved: {moved:#?}");
}

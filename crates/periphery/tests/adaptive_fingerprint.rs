//! Pins `AdaptiveCampaign::fingerprint` for the configurations the CLI,
//! the daemon and the benchmark build. The fingerprint is stored in every
//! `adaptive.ckpt`, so a change to it refuses every checkpoint written
//! before the change. The constants were first captured while each arm's
//! policy was still a set of public `AdaptiveConfig` fields, and moved
//! once, with checkpoint format v2: the `0` slot the deleted marginal-rate
//! stop left in the hash is gone. v1 files are refused by their schema
//! anyway, so the move refuses nothing more.

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
            0x56e1_e1f6_d86b_e137,
        ),
        (
            "root_bits 16",
            AdaptiveCampaign::new(AdaptiveConfig {
                root_bits: Some(16),
                ..Default::default()
            }),
            0x87e5_2669_f602_5562,
        ),
        (
            "exhaustive 16",
            AdaptiveCampaign::new(AdaptiveConfig::exhaustive(Some(16))),
            0x6228_5bd8_fd66_9332,
        ),
        (
            "default, inferred boundary",
            AdaptiveCampaign::new(AdaptiveConfig::default()).with_inferred_boundary(true),
            0xb8ef_869e_9b58_9252,
        ),
    ];
    // Each arm must keep an identity of its own.
    let mut pins: Vec<u64> = cases.iter().map(|c| c.2).collect();
    pins.sort_unstable();
    pins.dedup();
    assert_eq!(pins.len(), cases.len(), "two configurations share a pin");
    let moved: Vec<String> = cases
        .into_iter()
        .filter_map(|(name, campaign, want)| {
            let got = fp(campaign);
            (got != want).then(|| format!("{name}: {got:#018x}, pinned {want:#018x}"))
        })
        .collect();
    assert!(moved.is_empty(), "fingerprints moved: {moved:#?}");
}

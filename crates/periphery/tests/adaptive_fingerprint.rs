//! Pins the identity fingerprint of `adaptive.ckpt` for the
//! configurations the CLI, the daemon and the benchmark build. Every
//! entry of an adaptive journal carries it as `fp`, so a change to it
//! refuses every journal written before the change. The constants were
//! first captured while each arm's policy was still a set of public
//! `AdaptiveConfig` fields, moved once with checkpoint format v2 (the `0`
//! slot the deleted marginal-rate stop left in the hash went), and once
//! more with `adaptive.ckpt` format 2, whose entry 0 states the run's
//! identity field by field, the world included
//! (`AdaptiveCampaign::identity`). Format 1 journals are refused by their
//! format anyway, so neither move refuses anything more. They moved once
//! more when the default world's fault plan stopped limiting ICMPv6
//! errors: the identity states the plan, so a journal of the default
//! world written before that is refused with a `fault:` mismatch, as its
//! answers came from the other limiter.

use xmap::ScanConfig;
use xmap_netsim::world::WorldConfig;
use xmap_periphery::{AdaptiveCampaign, AdaptiveConfig};

fn fp(campaign: AdaptiveCampaign) -> u64 {
    let base = ScanConfig {
        seed: 7,
        ..Default::default()
    };
    campaign
        .identity(&base, &WorldConfig::default())
        .fingerprint()
}

#[test]
fn adaptive_fingerprints_are_pinned() {
    let cases = [
        (
            "default",
            AdaptiveCampaign::new(AdaptiveConfig::default()),
            0xc3aa_d2e8_8e3f_fcda,
        ),
        (
            "root_bits 16",
            AdaptiveCampaign::new(AdaptiveConfig {
                root_bits: Some(16),
                ..Default::default()
            }),
            0x7adf_e4c9_a2ac_bce6,
        ),
        (
            "exhaustive 16",
            AdaptiveCampaign::new(AdaptiveConfig::exhaustive(Some(16))),
            0x8709_c703_a5af_c0f1,
        ),
        (
            "default, inferred boundary",
            AdaptiveCampaign::new(AdaptiveConfig::default()).with_inferred_boundary(true),
            0x0a19_1c00_f9da_cb96,
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

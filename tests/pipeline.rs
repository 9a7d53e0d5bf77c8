//! End-to-end pipeline test: discovery → service survey → loop survey on a
//! single shared world, with cross-crate invariants.

use xmap::{ScanConfig, Scanner};
use xmap_appscan::SurveyRunner;
use xmap_loopscan::DepthSurvey;
use xmap_netsim::isp::SAMPLE_BLOCKS;
use xmap_netsim::world::{World, WorldConfig};
use xmap_periphery::{Campaign, CampaignResult};

fn scanner() -> Scanner<World> {
    let world = World::with_config(WorldConfig::lossless(3141, 50));
    Scanner::new(
        world,
        ScanConfig {
            seed: 3141,
            ..Default::default()
        },
    )
}

#[test]
fn discovery_then_services_then_loops() {
    let mut s = scanner();

    // 1. Discovery over the two dense Chinese broadband blocks.
    let driver = Campaign::new(1 << 16);
    let mut campaign = CampaignResult::default();
    for idx in [11usize, 12] {
        campaign
            .blocks
            .push(driver.run_block(&mut s, &SAMPLE_BLOCKS[idx]));
    }
    let discovered = campaign.total_unique();
    assert!(discovered > 60, "only {discovered} discovered");

    // Every discovered address is unique and inside a known zone.
    let mut seen = std::collections::HashSet::new();
    for p in campaign.peripheries() {
        assert!(seen.insert(p.address), "duplicate discovery {}", p.address);
    }

    // 2. Service survey over the discovered set.
    let survey = SurveyRunner.run(&mut s, &campaign);
    assert_eq!(survey.probed(), discovered);
    // Every serviced address was previously discovered.
    let discovered_set: std::collections::HashSet<_> =
        campaign.peripheries().map(|p| p.address).collect();
    for obs in &survey.observations {
        assert!(
            discovered_set.contains(&obs.address),
            "service observation for undiscovered {}",
            obs.address
        );
    }
    // Devices with any service are a subset of all devices.
    assert!(survey.devices_with_any().len() <= discovered);
    // China Mobile (id 13) exposes more than Unicom (id 12) proportionally
    // (Table VII: 57.5% vs 24.6%).
    let frac = |id: u8| {
        survey.devices_with_any_in_block(id).len() as f64
            / survey.probed_per_block[&id].max(1) as f64
    };
    assert!(frac(13) > frac(12), "{} vs {}", frac(13), frac(12));

    // 3. Loop survey over the same blocks.
    let mut loops = xmap_loopscan::survey::DepthSurveyResult::default();
    let loop_driver = DepthSurvey::new(1 << 15);
    for idx in [11usize, 12] {
        loop_driver.run_block(&mut s, &SAMPLE_BLOCKS[idx], &mut loops);
    }
    // Unicom's loop rate (78.8%) dwarfs Telecom's (39.7%) — per probe.
    let unicom = loops.count_in_block(12) as f64;
    let telecom = loops.count_in_block(11) as f64;
    assert!(unicom > 0.0);
    // Telecom has ~1.7x Unicom's density but half its loop rate; with the
    // same probe budget Unicom should still lead or be close.
    assert!(unicom >= telecom * 0.4, "unicom {unicom} telecom {telecom}");

    // Loop responders answer echo after discovery (they are registered).
    let some_loop = loops.peripheries.first().expect("found loops");
    let mut replies = Vec::new();
    s.targeted()
        .probe(some_loop.address, &xmap::IcmpEchoProbe, 64, &mut replies);
    assert!(replies
        .iter()
        .any(|(_, r)| matches!(r, xmap::ProbeResult::Alive)));

    // World statistics are coherent.
    let stats = s.network_mut().stats();
    assert!(stats.probes > 0);
    assert!(stats.responses <= stats.probes * 2);
    assert!(stats.loop_events > 0);
    assert!(stats.amplification() > 0.0);
}

#[test]
fn determinism_across_identical_runs() {
    let run = || {
        let mut s = scanner();
        let campaign = Campaign::new(1 << 14).run_block(&mut s, &SAMPLE_BLOCKS[12]);
        campaign
            .peripheries
            .iter()
            .map(|p| (p.address, p.same64, p.iid_class))
            .collect::<Vec<_>>()
    };
    let a = run();
    let b = run();
    assert_eq!(a, b, "identical seeds must reproduce identical discoveries");
    assert!(!a.is_empty());
}

#[test]
fn different_seeds_find_different_populations() {
    let discover = |seed: u64| {
        let world = World::with_config(WorldConfig::lossless(seed, 10));
        let mut s = Scanner::new(
            world,
            ScanConfig {
                seed,
                ..Default::default()
            },
        );
        Campaign::new(1 << 14)
            .run_block(&mut s, &SAMPLE_BLOCKS[12])
            .peripheries
            .iter()
            .map(|p| p.address)
            .collect::<std::collections::HashSet<_>>()
    };
    let a = discover(1);
    let b = discover(2);
    assert!(!a.is_empty() && !b.is_empty());
    let overlap = a.intersection(&b).count();
    assert!(
        overlap * 10 < a.len().max(b.len()),
        "different worlds should rarely share addresses (overlap {overlap})"
    );
}

#[test]
fn scan_output_roundtrips_through_csv() {
    let world = World::with_config(WorldConfig::lossless(3141, 50));
    let config = ScanConfig {
        seed: 3141,
        max_targets: Some(1 << 14),
        ..Default::default()
    };
    let mut s = Scanner::new(world, config);
    let profile = &SAMPLE_BLOCKS[12];
    let results = s.run(
        &profile.scan_range(),
        &xmap::IcmpEchoProbe,
        &xmap::Blocklist::with_standard_reserved(),
    );
    assert!(!results.records.is_empty());
    let csv = xmap::output::to_csv(&results.records);
    let parsed = xmap::output::from_csv(&csv).expect("csv parses");
    assert_eq!(parsed, results.records);
}

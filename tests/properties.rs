//! Cross-crate property-based tests.

use proptest::prelude::*;
use xmap::{Blocklist, IcmpEchoProbe, ProbeModule, ProbeResult, ScanConfig, Scanner, Validator};
use xmap_addr::Ip6;
use xmap_netsim::packet::{Icmpv6, Ipv6Packet, Network, Payload};
use xmap_netsim::world::{World, WorldConfig};
use xmap_netsim::FaultPlan;

/// The replies `net` returns for `packet`.
fn handle(net: &mut impl Network, packet: Ipv6Packet) -> Vec<Ipv6Packet> {
    let mut out = Vec::new();
    net.handle_into(packet, &mut out);
    out
}

fn world(seed: u64) -> World {
    World::with_config(WorldConfig::lossless(seed, 20))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The world is a pure function of (seed, packet): any probe handled
    /// twice (on fresh worlds) yields identical responses.
    #[test]
    fn world_is_deterministic(seed in 0u64..1000, idx in 0u64..100_000, iid in any::<u64>()) {
        let profile = &xmap_netsim::isp::SAMPLE_BLOCKS[12];
        let dst = profile.scan_prefix().subprefix(profile.assigned_len, idx as u128).addr().with_iid(iid);
        let probe = Ipv6Packet::echo_request("fd00::1".parse().unwrap(), dst, 64, 1, 1);
        let a = handle(&mut world(seed), probe.clone());
        let b = handle(&mut world(seed), probe);
        prop_assert_eq!(a, b);
    }

    /// Every response the world produces to a cookie-stamped probe passes
    /// stateless validation — the simulator never emits packets the real
    /// scanner would discard as noise.
    #[test]
    fn world_responses_validate(seed in 0u64..200, idx in 0u64..200_000) {
        let v = Validator::new(seed ^ 0x5ca1_ab1e);
        let profile = &xmap_netsim::isp::SAMPLE_BLOCKS[2];
        let dst = profile.scan_prefix().subprefix(64, idx as u128).addr().with_iid(0x1234);
        let probe = IcmpEchoProbe.build("fd00::1".parse().unwrap(), dst, 64, &v);
        let mut w = world(seed);
        for resp in handle(&mut w, probe) {
            let result = IcmpEchoProbe.classify(&resp, &v);
            prop_assert_ne!(result, ProbeResult::Invalid, "world response failed validation");
        }
    }

    /// Tampering with any cookie bit makes validation fail.
    #[test]
    fn tampered_cookies_rejected(key in any::<u64>(), bits in any::<u128>(), flip in 0u32..32) {
        let v = Validator::new(key);
        let dst = Ip6::new(bits);
        let (ident, seq) = v.echo_fields(dst);
        let cookie = ((ident as u32) << 16) | seq as u32;
        let bad = cookie ^ (1 << flip);
        prop_assert!(!v.check_echo(dst, (bad >> 16) as u16, bad as u16));
    }

    /// Sharded scans of the same range partition the findings: the union
    /// of N shards equals the unsharded scan, with no double-counting.
    #[test]
    fn shards_partition_findings(shards in 2u64..5) {
        let range: xmap_addr::ScanRange = "2402:3a80::/32-64".parse().unwrap();
        let full_cfg = ScanConfig { seed: 11, max_targets: Some(3000), ..Default::default() };
        // Unsharded reference over 3000 permuted targets.
        let mut reference = Scanner::new(world(5), full_cfg.clone());
        let ref_records = reference.run(&range, &IcmpEchoProbe, &Blocklist::allow_all()).records;
        let ref_targets: std::collections::HashSet<_> =
            ref_records.iter().map(|r| r.target).collect();

        // The same walk split into shards (each shard takes every Nth
        // element, so together the first 3000 positions are covered when
        // each shard takes 3000/N).
        let mut union = std::collections::HashSet::new();
        let per_shard = 3000 / shards;
        for shard in 0..shards {
            let cfg = ScanConfig {
                seed: 11,
                shard,
                shards,
                max_targets: Some(per_shard),
                ..Default::default()
            };
            let mut scanner = Scanner::new(world(5), cfg);
            for rec in scanner.run(&range, &IcmpEchoProbe, &Blocklist::allow_all()).records {
                prop_assert!(union.insert(rec.target), "target {} in two shards", rec.target);
            }
        }
        // The sharded union covers the same leading portion of the walk.
        let covered = union.intersection(&ref_targets).count();
        prop_assert!(covered as f64 >= ref_targets.len() as f64 * 0.9,
            "sharded union covered {covered} of {}", ref_targets.len());
    }

    /// Injected loss can only remove findings: for any world seed and any
    /// loss rate, the lossless scan's hit rate dominates the lossy one's.
    #[test]
    fn loss_only_removes_findings(seed in 0u64..50, loss_pct in 1u32..=40) {
        let loss = loss_pct as f64 / 100.0;
        let profile = &xmap_netsim::isp::SAMPLE_BLOCKS[2];
        let scan = |w: World| {
            let cfg = ScanConfig { seed: 3, max_targets: Some(512), ..Default::default() };
            let mut s = Scanner::new(w, cfg);
            s.run(&profile.scan_range(), &IcmpEchoProbe, &Blocklist::allow_all()).stats
        };
        let lossless = scan(World::with_config(WorldConfig::lossless(seed, 20)));
        let lossy = scan(World::with_config(
            WorldConfig::lossless(seed, 20)
                .with_fault(FaultPlan::none().seeded(seed ^ 0xF00D).with_forward_loss(loss)),
        ));
        prop_assert_eq!(lossless.sent, lossy.sent);
        prop_assert!(lossless.valid >= lossy.valid,
            "loss {loss} created findings: {} < {}", lossless.valid, lossy.valid);
        prop_assert!(lossless.hit_rate() >= lossy.hit_rate());
    }

    /// Under loss, retransmission never loses findings relative to a
    /// single-probe scan of the same faulty world.
    #[test]
    fn retransmission_never_hurts_under_loss(seed in 0u64..30) {
        let profile = &xmap_netsim::isp::SAMPLE_BLOCKS[2];
        let config = WorldConfig::lossless(seed, 20)
            .with_fault(FaultPlan::none().seeded(seed ^ 0xBEEF).with_forward_loss(0.15));
        let scan = |k: u32| {
            let cfg = ScanConfig {
                seed: 3,
                max_targets: Some(512),
                probes_per_target: k,
                ..Default::default()
            };
            let mut s = Scanner::new(World::with_config(config), cfg);
            s.run(&profile.scan_range(), &IcmpEchoProbe, &Blocklist::allow_all()).stats
        };
        let single = scan(1);
        let retried = scan(3);
        prop_assert!(retried.valid >= single.valid,
            "retransmission lost findings: {} < {}", retried.valid, single.valid);
    }

    /// The world never replies from the unspecified address and never
    /// echoes the probe's destination as an error source for unallocated
    /// space.
    #[test]
    fn response_sources_are_sane(seed in 0u64..100, idx in 0u64..50_000, hl in 2u8..=255) {
        let profile = &xmap_netsim::isp::SAMPLE_BLOCKS[11];
        let dst = profile.scan_prefix().subprefix(profile.assigned_len, idx as u128).addr().with_iid(7);
        let mut w = world(seed);
        for resp in handle(&mut w, Ipv6Packet::echo_request("fd00::1".parse().unwrap(), dst, hl, 0, 0)) {
            prop_assert_ne!(resp.src, Ip6::UNSPECIFIED);
            prop_assert_eq!(resp.dst, "fd00::1".parse::<Ip6>().unwrap());
            if let Payload::Icmp(Icmpv6::DestUnreachable { invoking, .. }) = &resp.payload {
                prop_assert_eq!(invoking.dst, dst);
            }
        }
    }
}

/// Pinned-seed companion to `retransmission_never_hurts_under_loss`: at a
/// real loss rate, retransmission *strictly* improves the valid count.
#[test]
fn retransmission_strictly_improves_under_loss() {
    let profile = &xmap_netsim::isp::SAMPLE_BLOCKS[2];
    let config = WorldConfig::lossless(77, 20)
        .with_fault(FaultPlan::none().seeded(0x5107).with_forward_loss(0.2));
    let scan = |k: u32| {
        let cfg = ScanConfig {
            seed: 3,
            max_targets: Some(2048),
            probes_per_target: k,
            ..Default::default()
        };
        let mut s = Scanner::new(World::with_config(config), cfg);
        s.run(
            &profile.scan_range(),
            &IcmpEchoProbe,
            &Blocklist::allow_all(),
        )
        .stats
    };
    let single = scan(1);
    let retried = scan(3);
    assert!(single.valid > 0, "loss=0.2 should leave survivors");
    assert!(
        retried.valid > single.valid,
        "20% loss leaves recoverable gaps: {} vs {}",
        retried.valid,
        single.valid
    );
    assert!(retried.retransmits > 0);
}

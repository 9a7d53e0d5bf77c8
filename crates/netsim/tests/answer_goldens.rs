//! Answer goldens: one fixed probe list per layer, hashed.
//!
//! The world list covers every branch of the procedural Internet's answer
//! logic (ISP zone, BGP zone, application ports) and runs twice: lossless,
//! then under a token-bucket fault plan whose ICMPv6 error budget drops
//! errors (RFC 4443 §2.4(f)). The engine list runs a handful of probes
//! through every Table XII router model's home network, with and without
//! transit hops. Each run is hashed (FNV-1a over the `{:?}` of every reply
//! and of the layer's traffic counters), so any change to any answer —
//! source, hop limit, quote, code or count — moves a golden.
//!
//! Low-hop-limit probes to addresses the world has *registered* are left
//! out on purpose: the goldens were recorded before the registry fast path
//! applied the RFC 4443 §3.3 expiry check, which changed exactly those
//! answers. `rules::tests::rfc4443_3_3_registered_address_still_expires_in_transit`
//! covers them.

use xmap_netsim::device::ReplyMode;
use xmap_netsim::fault::{FaultPlan, IcmpRateLimit};
use xmap_netsim::packet::{Icmpv6, Ipv6Packet, Network, Payload, TcpFlags, UnreachCode};
use xmap_netsim::services::{AppRequest, ServiceKind, TransportProto};
use xmap_netsim::topology::{build_home_network, full_catalog, HomeNetworkPlan};
use xmap_netsim::world::{World, WorldConfig};
use xmap_netsim::Device;

/// The replies `net` returns for `packet`.
fn handle(net: &mut impl Network, packet: Ipv6Packet) -> Vec<Ipv6Packet> {
    let mut out = Vec::new();
    net.handle_into(packet, &mut out);
    out
}

const SEED: u64 = 7;
const ASES: usize = 50;

/// The world run, lossless.
const WORLD_GOLDEN: u64 = 0x8b45_94cb_c0e0_b337;
/// The world run under the token-bucket fault plan.
const WORLD_LIMITED_GOLDEN: u64 = 0x6c33_42eb_e590_5adf;
/// The engine run over the full router catalog.
const ENGINE_GOLDEN: u64 = 0x336e_4ea6_63a5_3843;

/// 64-bit FNV-1a.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn write(&mut self, text: &str) {
        for b in text.bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }
}

/// The class of a probe's first reply.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    Silent,
    Echo,
    TimeExceeded,
    Unreach(UnreachCode),
    Udp,
    Tcp(TcpFlags),
}

fn kind(replies: &[Ipv6Packet]) -> Kind {
    match replies.first().map(|r| &r.payload) {
        None => Kind::Silent,
        Some(Payload::Icmp(Icmpv6::EchoReply { .. })) => Kind::Echo,
        Some(Payload::Icmp(Icmpv6::TimeExceeded { .. })) => Kind::TimeExceeded,
        Some(Payload::Icmp(Icmpv6::DestUnreachable { code, .. })) => Kind::Unreach(*code),
        Some(Payload::Udp { .. }) => Kind::Udp,
        Some(Payload::Tcp { flags, .. }) => Kind::Tcp(*flags),
        Some(other) => panic!("unexpected reply {other:?}"),
    }
}

struct Probe {
    label: &'static str,
    packet: Ipv6Packet,
    /// What the lossless world answers.
    expect: Kind,
}

fn vantage() -> xmap_addr::Ip6 {
    "fd00::1".parse().unwrap()
}

fn echo(dst: xmap_addr::Ip6, hop_limit: u8) -> Ipv6Packet {
    Ipv6Packet::echo_request(vantage(), dst, hop_limit, 0x5eed, 0x0007)
}

/// Finds devices in a scout world (a separate instance, so the search
/// leaves the measured worlds untouched).
struct Scout(World);

impl Scout {
    /// The first device of profile `pi` that `pred` accepts and that
    /// answers an echo into its used subnet (so it is neither filtered
    /// nor hidden behind an aliased sub-prefix).
    fn device(&mut self, pi: usize, pred: impl Fn(&Device) -> bool) -> (u64, Device) {
        for i in 0..1u64 << 22 {
            let Some(d) = self.0.device_at(pi, i) else {
                continue;
            };
            if !pred(&d) || self.0.is_aliased(pi, i) {
                continue;
            }
            let dst = d.used_subnet64.addr().with_iid(0x5c07_0000_0000_0001);
            if !handle(&mut self.0, echo(dst, 64)).is_empty() {
                return (i, d);
            }
        }
        panic!("no device in profile {pi} matches");
    }
}

/// An unused /64 of a diff-mode device's delegated prefix.
fn unused_lan(d: &Device) -> xmap_addr::Ip6 {
    let subnets = 1u128 << (64 - d.delegated_prefix.len());
    (0..subnets)
        .map(|k| d.delegated_prefix.subprefix(64, k))
        .find(|p| *p != d.used_subnet64)
        .expect("a delegated prefix wider than /64")
        .addr()
        .with_iid(0x0bad_0000_0000_0042)
}

fn world_probes() -> Vec<Probe> {
    let mut scout = Scout(World::with_config(WorldConfig::lossless(SEED, ASES)));
    let w = &World::with_config(WorldConfig::lossless(SEED, ASES));
    let mut probes = Vec::new();
    let mut add = |label, packet, expect| {
        probes.push(Probe {
            label,
            packet,
            expect,
        })
    };

    // ISP zone, Reliance Jio (same-prefix UEs/CPEs).
    let jio = &w.profiles()[0];
    let unallocated = (0..)
        .find(|&i| w.device_at(0, i).is_none() && !w.is_aliased(0, i))
        .unwrap();
    add(
        "unallocated",
        echo(
            jio.scan_prefix()
                .subprefix(jio.assigned_len, unallocated as u128)
                .addr()
                .with_iid(1),
            64,
        ),
        Kind::Silent,
    );
    let bsnl = &w.profiles()[1];
    let aliased = (0..1u64 << 22).find(|&i| w.is_aliased(1, i)).unwrap();
    add(
        "aliased",
        echo(
            bsnl.scan_prefix()
                .subprefix(bsnl.assigned_len, aliased as u128)
                .addr()
                .with_iid(0xa11a5),
            64,
        ),
        Kind::Echo,
    );
    // Each candidate draws its device's first error, which the limiter
    // always admits: silence means the device is filtered upstream.
    let airtel = &w.profiles()[2];
    let filtered = (0..1u64 << 22)
        .find(|&i| {
            w.device_at(2, i).is_some_and(|d| {
                !w.is_aliased(2, i)
                    && handle(
                        &mut scout.0,
                        echo(d.delegated_prefix.addr().with_iid(0xf17), 64),
                    )
                    .is_empty()
            })
        })
        .unwrap();
    add(
        "filtered",
        echo(
            airtel
                .scan_prefix()
                .subprefix(airtel.assigned_len, filtered as u128)
                .addr()
                .with_iid(0xf17),
            64,
        ),
        Kind::Silent,
    );

    let (_, ue) = scout.device(0, |d| {
        d.reply_mode == ReplyMode::SamePrefix && !d.loop_vuln_wan && d.hops_to_isp > 3
    });
    let nx = ue.delegated_prefix.addr().with_iid(0x0e0e_0000_0000_0001);
    add("transit expiry", echo(nx, 3), Kind::TimeExceeded);
    add(
        "same-prefix address unreachable",
        echo(nx, 64),
        Kind::Unreach(UnreachCode::AddressUnreachable),
    );
    add(
        "own WAN address (cold)",
        echo(ue.wan_address(), 64),
        Kind::Echo,
    );
    add(
        "own WAN address (registered)",
        echo(ue.wan_address(), 64),
        Kind::Echo,
    );

    // ISP zone, China Unicom (diff-prefix CPEs, most of them loop).
    let (li, looper) = scout.device(11, |d| {
        d.reply_mode == ReplyMode::DiffPrefix && d.loop_vuln_lan
    });
    let (_, patched) = scout.device(11, |d| {
        d.reply_mode == ReplyMode::DiffPrefix && !d.loop_vuln_lan
    });
    let (_, same_looper) = scout.device(11, |d| {
        d.reply_mode == ReplyMode::SamePrefix && d.loop_vuln_wan
    });
    for hop_limit in [64, 128, 255] {
        add(
            "loop (unused LAN)",
            echo(unused_lan(&looper), hop_limit),
            Kind::TimeExceeded,
        );
    }
    add(
        "loop (same-prefix WAN)",
        echo(same_looper.delegated_prefix.addr().with_iid(0x100b), 255),
        Kind::TimeExceeded,
    );
    add(
        "reject route",
        echo(unused_lan(&patched), 64),
        Kind::Unreach(UnreachCode::RejectRoute),
    );
    add(
        "used subnet address unreachable",
        echo(looper.used_subnet64.addr().with_iid(0xdead_beef), 64),
        Kind::Unreach(UnreachCode::AddressUnreachable),
    );
    let host = w.hosts_of(11, li)[0];
    add("LAN host", echo(host, 64), Kind::Echo);

    // BGP zone.
    let (mut looping, mut clean, mut empty) = (None, None, None);
    'entries: for entry in w.bgp().entries() {
        for i in 0..4096u64 {
            let dst = entry.prefix.subprefix(48, i as u128).addr().with_iid(0xb6b);
            match w.bgp_host_at(entry.prefix, entry.asn, i) {
                Some(h) if h.loops => looping = looping.or(Some(dst)),
                Some(_) => clean = clean.or(Some(dst)),
                None => empty = empty.or(Some(dst)),
            }
            if looping.is_some() && clean.is_some() && empty.is_some() {
                break 'entries;
            }
        }
    }
    let (looping, clean, empty) = (looping.unwrap(), clean.unwrap(), empty.unwrap());
    add("BGP transit expiry", echo(clean, 3), Kind::TimeExceeded);
    add("BGP loop", echo(looping, 64), Kind::TimeExceeded);
    add(
        "BGP unreachable",
        echo(clean, 64),
        Kind::Unreach(UnreachCode::AddressUnreachable),
    );
    add("BGP no host", echo(empty, 64), Kind::Silent);

    // Application ports, China Mobile (service-rich). The echo registers
    // the reply source; the port probes then go to it.
    let has = |d: &Device, t: TransportProto, open: bool| {
        ServiceKind::ALL
            .into_iter()
            .any(|k| k.transport() == t && d.services.has(k) == open)
    };
    let (_, rich) = scout.device(12, |d| {
        !d.loop_vuln_lan
            && !d.loop_vuln_wan
            && has(d, TransportProto::Udp, true)
            && has(d, TransportProto::Udp, false)
            && has(d, TransportProto::Tcp, true)
            && has(d, TransportProto::Tcp, false)
    });
    let pick = |t: TransportProto, open: bool| {
        ServiceKind::ALL
            .into_iter()
            .find(|k| k.transport() == t && rich.services.has(*k) == open)
            .unwrap()
    };
    let probe_dst = rich.used_subnet64.addr().with_iid(0xa99);
    let addr = rich.reply_source(probe_dst);
    add(
        "UDP to an unregistered address",
        Ipv6Packet::udp_request(vantage(), addr, 40000, 53, AppRequest::DnsQuery),
        Kind::Silent,
    );
    add(
        "register the service-rich device",
        echo(probe_dst, 64),
        Kind::Unreach(UnreachCode::AddressUnreachable),
    );
    let udp =
        |k: ServiceKind| Ipv6Packet::udp_request(vantage(), addr, 40000, k.port(), k.request());
    let open_udp = pick(TransportProto::Udp, true);
    let closed_udp = pick(TransportProto::Udp, false);
    let open_tcp = pick(TransportProto::Tcp, true);
    let closed_tcp = pick(TransportProto::Tcp, false);
    add("UDP open", udp(open_udp), Kind::Udp);
    add(
        "UDP closed",
        udp(closed_udp),
        Kind::Unreach(UnreachCode::PortUnreachable),
    );
    add(
        "UDP to a TCP port",
        udp(open_tcp),
        Kind::Unreach(UnreachCode::PortUnreachable),
    );
    add(
        "UDP to an unknown port",
        Ipv6Packet::udp_request(vantage(), addr, 40000, 9999, AppRequest::DnsQuery),
        Kind::Unreach(UnreachCode::PortUnreachable),
    );
    let syn = |k: ServiceKind| Ipv6Packet::tcp_syn(vantage(), addr, 40001, k.port());
    let ack =
        |k: ServiceKind| Ipv6Packet::tcp_request(vantage(), addr, 40001, k.port(), k.request());
    add("TCP SYN open", syn(open_tcp), Kind::Tcp(TcpFlags::SynAck));
    add("TCP SYN closed", syn(closed_tcp), Kind::Tcp(TcpFlags::Rst));
    add("TCP ACK open", ack(open_tcp), Kind::Tcp(TcpFlags::Ack));
    add("TCP ACK closed", ack(closed_tcp), Kind::Tcp(TcpFlags::Rst));
    add("registered echo", echo(addr, 64), Kind::Echo);
    probes
}

/// Runs `probes` through a fresh world built from `cfg`, hashing every
/// reply and the final statistics.
fn run_world(cfg: WorldConfig, probes: &[Probe], check: bool) -> (u64, World) {
    let mut world = World::with_config(cfg);
    let mut h = Fnv::new();
    for p in probes {
        let replies = handle(&mut world, p.packet.clone());
        if check {
            assert_eq!(kind(&replies), p.expect, "{}", p.label);
        }
        h.write(&format!("{replies:?}"));
    }
    h.write(&format!("{:?}", world.stats()));
    (h.0, world)
}

#[test]
fn world_answers_match_golden() {
    let probes = world_probes();
    let (hash, _) = run_world(WorldConfig::lossless(SEED, ASES), &probes, true);
    assert_eq!(hash, WORLD_GOLDEN, "world golden: {hash:#018x}");
}

#[test]
fn rate_limited_world_answers_match_golden() {
    let probes = world_probes();
    let limited = WorldConfig::lossless(SEED, ASES).with_fault(FaultPlan::none().with_icmp_limit(
        IcmpRateLimit::TokenBucket {
            capacity: 1,
            refill_interval: 1 << 20,
            start_depleted_frac: 0.0,
        },
    ));
    let (hash, world) = run_world(limited, &probes, false);
    assert!(
        world.stats().rate_limited > 0,
        "the error budget never ran out"
    );
    assert_eq!(
        hash, WORLD_LIMITED_GOLDEN,
        "rate-limited golden: {hash:#018x}"
    );
}

#[test]
fn engine_answers_match_golden() {
    let mut h = Fnv::new();
    let mut runs = 0;
    for model in full_catalog() {
        for transit_hops in [0, 3] {
            let plan = HomeNetworkPlan {
                transit_hops,
                ..HomeNetworkPlan::default()
            };
            let (mut engine, _) = build_home_network(&model, &plan);
            let v = plan.vantage_addr;
            let probes = [
                Ipv6Packet::echo_request(
                    v,
                    plan.not_used_lan_prefix().addr().with_iid(1),
                    255,
                    1,
                    1,
                ),
                Ipv6Packet::echo_request(v, plan.nx_wan_address(), 255, 1, 2),
                Ipv6Packet::echo_request(v, plan.lan_host, 64, 1, 3),
                Ipv6Packet::echo_request(v, plan.cpe_wan_addr, 64, 1, 4),
                Ipv6Packet::udp_request(v, plan.cpe_wan_addr, 40000, 53, AppRequest::DnsQuery),
                Ipv6Packet::tcp_syn(v, plan.cpe_wan_addr, 40000, 80),
                Ipv6Packet::echo_request(v, plan.lan_host, 2, 1, 5),
            ];
            for probe in probes {
                let replies = handle(&mut engine, probe);
                h.write(&format!("{replies:?} {}", engine.total_forwards()));
                runs += 1;
            }
        }
    }
    assert_eq!(runs, 99 * 2 * 7);
    assert_eq!(h.0, ENGINE_GOLDEN, "engine golden: {:#018x}", h.0);
}

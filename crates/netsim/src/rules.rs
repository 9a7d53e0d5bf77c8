//! The rule book: every answer the simulated Internet gives is decided and
//! built here, one submodule per RFC.
//!
//! Both layers call these rules. The [`crate::World`] applies them to
//! hash-derived devices at the ISP edge; the [`crate::Engine`] applies them
//! hop by hop on explicit route tables. Where the two layers differ on
//! purpose, the difference is an argument (the hop limit an answer leaves
//! with, the routers a hop limit must cross) or a line of the clause table
//! in DESIGN.md §2 — never a second copy of the rule.

/// RFC 4443, ICMPv6: which error a node answers with, how the answer is
/// built, and when no answer may be sent at all.
pub mod rfc4443 {
    use xmap_addr::Ip6;

    use crate::engine::RouteAction;
    use crate::fault::{FaultPlan, IcmpRateLimit};
    use crate::packet::{AppData, Icmpv6, Ipv6Packet, Payload, TcpFlags, UnreachCode};

    /// What a node answers a packet with.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub enum Answer {
        /// §4.2 Echo Reply, carrying the request's identifier and sequence.
        EchoReply,
        /// §3.1 Destination Unreachable with this code.
        Unreachable(UnreachCode),
        /// §3.3 Time Exceeded, code 0: hop limit exceeded in transit.
        TimeExceeded,
        /// A UDP datagram back to the invoking datagram's source port.
        Udp(AppData),
        /// A TCP segment back to the invoking segment's source port.
        Tcp(TcpFlags, AppData),
    }

    /// Every reply is made here: `answer` from `src` back to the invoking
    /// packet's source, leaving with `hop_limit`. Errors quote the invoking
    /// packet (§2.4(c)); transport replies swap its ports.
    ///
    /// # Panics
    ///
    /// Panics if `answer` cannot answer `invoking`: an echo reply to
    /// anything but an echo request, or a UDP/TCP reply to the other
    /// transport.
    pub fn reply(src: Ip6, invoking: &Ipv6Packet, hop_limit: u8, answer: Answer) -> Ipv6Packet {
        let payload = match (answer, &invoking.payload) {
            (Answer::EchoReply, Payload::Icmp(Icmpv6::EchoRequest { ident, seq })) => {
                Payload::Icmp(Icmpv6::EchoReply {
                    ident: *ident,
                    seq: *seq,
                })
            }
            (Answer::Unreachable(code), _) => Payload::Icmp(Icmpv6::DestUnreachable {
                code,
                invoking: invoking.quote(),
            }),
            (Answer::TimeExceeded, _) => Payload::Icmp(Icmpv6::TimeExceeded {
                invoking: invoking.quote(),
            }),
            (
                Answer::Udp(data),
                Payload::Udp {
                    src_port, dst_port, ..
                },
            ) => Payload::Udp {
                src_port: *dst_port,
                dst_port: *src_port,
                data,
            },
            (
                Answer::Tcp(flags, data),
                Payload::Tcp {
                    src_port, dst_port, ..
                },
            ) => Payload::Tcp {
                src_port: *dst_port,
                dst_port: *src_port,
                flags,
                data,
            },
            (answer, payload) => panic!("{answer:?} cannot answer {payload:?}"),
        };
        Ipv6Packet {
            src,
            dst: invoking.src,
            hop_limit,
            payload,
        }
    }

    /// §2.4(e): whether `packet` is an ICMPv6 error message, which no node
    /// answers with another error.
    pub fn is_error(packet: &Ipv6Packet) -> bool {
        matches!(
            packet.payload,
            Payload::Icmp(Icmpv6::DestUnreachable { .. } | Icmpv6::TimeExceeded { .. })
        )
    }

    /// §3.3: whether a packet sent with `hop_limit` expires in transit
    /// within the next `routers` forwarding routers. Each decrements the
    /// hop limit and the one that would forward it at zero discards it and
    /// answers Time Exceeded.
    pub fn expires(hop_limit: u8, routers: u8) -> bool {
        hop_limit <= routers
    }

    /// §3.1: the Destination Unreachable code of a router that cannot
    /// deliver by `route`, its table's match for the destination: code 0
    /// without a match, 6 for a reject route, 3 for an on-link prefix
    /// without that neighbour (the last hop's discovery signal). `None`
    /// for routes that forward or silently discard.
    pub fn unreachable_code(route: Option<RouteAction>) -> Option<UnreachCode> {
        match route {
            None => Some(UnreachCode::NoRoute),
            Some(RouteAction::Reject) => Some(UnreachCode::RejectRoute),
            Some(RouteAction::OnLink) => Some(UnreachCode::AddressUnreachable),
            Some(RouteAction::Forward(_) | RouteAction::Blackhole) => None,
        }
    }

    /// Per-device state of the §2.4(f) token bucket, owned by the network
    /// and updated through [`admit_error`].
    #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
    pub struct ErrorLimiterState {
        /// Tokens currently in the bucket.
        pub tokens: u32,
        /// Tick of the last bucket refill.
        pub last_refill_tick: u64,
        /// Whether the bucket has been seeded with its initial fill.
        pub initialized: bool,
    }

    /// §2.4(f): a node limits the rate of the errors it originates. Decides
    /// whether device `(zone, index)` may emit one more error at `tick`
    /// under the plan's limiter model, updating its `state`. `burst_scale`
    /// scales the token-bucket capacity for the device class (routers
    /// afford a larger burst than battery-powered UEs; see
    /// [`crate::device::Device::icmp_burst_scale`]).
    pub fn admit_error(
        plan: &FaultPlan,
        zone: u64,
        index: u64,
        state: &mut ErrorLimiterState,
        tick: u64,
        burst_scale: u32,
    ) -> bool {
        match plan.icmp_limit {
            IcmpRateLimit::Unlimited => true,
            IcmpRateLimit::TokenBucket {
                capacity,
                refill_interval,
                ..
            } => {
                let capacity = (capacity * burst_scale.max(1)).max(1);
                if !state.initialized {
                    state.initialized = true;
                    state.last_refill_tick = tick;
                    state.tokens = if plan.starts_depleted(zone, index) {
                        0
                    } else {
                        capacity
                    };
                }
                let gained = (tick - state.last_refill_tick)
                    .checked_div(refill_interval)
                    .unwrap_or(0);
                if gained > 0 {
                    state.tokens = state
                        .tokens
                        .saturating_add(gained.min(u64::from(capacity)) as u32)
                        .min(capacity);
                    state.last_refill_tick += gained * refill_interval;
                }
                if state.tokens > 0 {
                    state.tokens -= 1;
                    true
                } else {
                    false
                }
            }
        }
    }
}

/// RFC 7084, basic requirements for IPv6 customer edge routers: how a CPE
/// routes a destination inside its prefixes that is not its own.
pub mod rfc7084 {
    use xmap_addr::Ip6;

    use crate::device::{Device, ReplyMode};
    use crate::packet::UnreachCode;

    /// A CPE's answer for a destination it does not own.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub enum CpeAnswer {
        /// No L-14 unreachable route: the CPE's default route hands the
        /// packet back to the ISP router, whose route for the prefix hands
        /// it back again, until the hop limit dies and the CPE answers
        /// Time Exceeded.
        Loop,
        /// An RFC 4443 §3.1 error from the CPE.
        Unreachable(UnreachCode),
    }

    /// The answer of `device` for `dst`, an address inside its prefixes
    /// that is neither its own nor one of its LAN hosts:
    ///
    /// * the LAN /64 in use is on-link: no such neighbour, code 3;
    /// * the rest of the delegated prefix (WPD-5): the L-14 unreachable
    ///   route answers code 6 (reject route); without it the packet loops;
    /// * the rest of the WAN /64: a CPE holding only a host route for its
    ///   own address loops it; otherwise the /64 is on-link, code 3.
    ///
    /// A same-prefix device's delegated /64 *is* its WAN link, so only the
    /// WAN rule applies to it.
    pub fn answer(device: &Device, dst: Ip6) -> CpeAnswer {
        use CpeAnswer::{Loop, Unreachable};
        use UnreachCode::{AddressUnreachable, RejectRoute};
        match device.reply_mode {
            ReplyMode::DiffPrefix if device.used_subnet64.contains(dst) => {
                Unreachable(AddressUnreachable)
            }
            ReplyMode::DiffPrefix if device.delegated_prefix.contains(dst) => {
                if device.loop_vuln_lan {
                    Loop
                } else {
                    Unreachable(RejectRoute)
                }
            }
            ReplyMode::DiffPrefix if device.wan_prefix64.contains(dst) && device.loop_vuln_wan => {
                Loop
            }
            ReplyMode::SamePrefix
                if device.delegated_prefix.contains(dst) && device.loop_vuln_wan =>
            {
                Loop
            }
            _ => Unreachable(AddressUnreachable),
        }
    }
}

/// One test per clause, named after it, each against the rule that
/// implements it (and, where a layer applies the clause its own way,
/// against that layer too).
#[cfg(test)]
mod tests {
    use xmap_addr::{IidClass, Ip6};

    use super::rfc4443::{self, Answer, ErrorLimiterState};
    use super::rfc7084::{self, CpeAnswer};
    use crate::device::{Device, DeviceKind, ReplyMode, ServiceSet};
    use crate::engine::RouteAction;
    use crate::fault::{FaultPlan, IcmpRateLimit};
    use crate::packet::{Icmpv6, Ipv6Packet, Network, Payload, UnreachCode, MAX_HOP_LIMIT};
    use crate::services::AppRequest;
    use crate::topology::{build_home_network, HomeNetworkPlan, NAMED_MODELS};
    use crate::world::{World, WorldConfig};

    fn addr(s: &str) -> Ip6 {
        s.parse().unwrap()
    }

    /// A CPE with a WAN /64, a delegated /60 and one LAN /64 in use,
    /// vulnerable on both prefixes.
    fn cpe(reply_mode: ReplyMode) -> Device {
        Device {
            kind: DeviceKind::Cpe,
            vendor: "ZTE",
            iid_class: IidClass::Randomized,
            iid: 0x9c3a_71e2_b048_5d16,
            mac: None,
            delegated_prefix: "2001:db8:4321:8760::/60".parse().unwrap(),
            wan_prefix64: "2001:db8:1234:5678::/64".parse().unwrap(),
            used_subnet64: "2001:db8:4321:8765::/64".parse().unwrap(),
            reply_mode,
            services: ServiceSet::empty(),
            loop_vuln_wan: true,
            loop_vuln_lan: true,
            hops_to_isp: 12,
        }
    }

    /// Whether `reply` is Time Exceeded from a synthetic transit router.
    fn transit_time_exceeded(reply: &Ipv6Packet) -> bool {
        matches!(reply.payload, Payload::Icmp(Icmpv6::TimeExceeded { .. }))
            && reply.src.iid() >> 48 == 0xffff
    }

    #[test]
    fn rfc4443_2_4_c_errors_quote_the_invoking_packet() {
        let (v, dst, router) = (addr("fd00::1"), addr("2001:db8::1"), addr("2001:db8::ff"));
        for invoking in [
            Ipv6Packet::echo_request(v, dst, 64, 7, 9),
            Ipv6Packet::udp_request(v, dst, 4321, 53, AppRequest::DnsQuery),
            Ipv6Packet::tcp_syn(v, dst, 4321, 80),
        ] {
            for answer in [
                Answer::Unreachable(UnreachCode::AddressUnreachable),
                Answer::TimeExceeded,
            ] {
                let error = rfc4443::reply(router, &invoking, MAX_HOP_LIMIT, answer);
                assert_eq!((error.src, error.dst), (router, v));
                assert_eq!(error.hop_limit, MAX_HOP_LIMIT);
                let (Payload::Icmp(Icmpv6::DestUnreachable {
                    invoking: quote, ..
                })
                | Payload::Icmp(Icmpv6::TimeExceeded { invoking: quote })) = error.payload
                else {
                    panic!("not an error: {error:?}");
                };
                assert_eq!(quote, invoking.quote());
            }
        }
    }

    #[test]
    fn rfc4443_4_2_echo_reply_carries_the_request_ident_and_seq() {
        let (v, dst) = (addr("fd00::1"), addr("2001:db8::1"));
        let reply = rfc4443::reply(
            dst,
            &Ipv6Packet::echo_request(v, dst, 3, 7, 9),
            64,
            Answer::EchoReply,
        );
        assert_eq!((reply.src, reply.dst, reply.hop_limit), (dst, v, 64));
        assert_eq!(
            reply.payload,
            Payload::Icmp(Icmpv6::EchoReply { ident: 7, seq: 9 })
        );
    }

    #[test]
    fn rfc4443_2_4_e_a_looping_error_begets_no_second_error() {
        let (v, dst) = (addr("fd00::1"), addr("2001:db8::1"));
        let probe = Ipv6Packet::echo_request(v, dst, 64, 1, 1);
        for (answer, error) in [
            (Answer::EchoReply, false),
            (Answer::TimeExceeded, true),
            (Answer::Unreachable(UnreachCode::PortUnreachable), true),
        ] {
            assert_eq!(
                rfc4443::is_error(&rfc4443::reply(dst, &probe, 64, answer)),
                error
            );
        }
        assert!(!rfc4443::is_error(&probe));

        // A probe whose spoofed source lies in a LAN-vulnerable CPE's unused
        // prefix: the CPE's address-unreachable about it ping-pongs on the
        // ISP↔CPE link until its hop limit dies at the CPE. A second error
        // about that error would go to the CPE's own WAN address, which the
        // vantage here also listens on — so it would surface as a reply.
        let huawei = NAMED_MODELS.iter().find(|m| m.brand == "Huawei").unwrap();
        let plan = HomeNetworkPlan::default();
        let (mut engine, net) = build_home_network(huawei, &plan);
        engine.add_addr(net.vantage, plan.cpe_wan_addr);
        let spoofed = plan.not_used_lan_prefix().addr().with_iid(0x5900f);
        let nx = plan.subnet_prefix.addr().with_iid(0xdead);
        let replies = engine.handle(Ipv6Packet::echo_request(spoofed, nx, 64, 0, 0));
        assert!(replies.is_empty(), "{replies:?}");
        // vantage→ISP→CPE for the probe, then 254 loop forwards of the error
        // (hop limit 255 down to 1).
        assert_eq!(engine.total_forwards(), 2 + 254);
    }

    fn token_bucket(capacity: u32, refill_interval: u64, start_depleted_frac: f64) -> FaultPlan {
        FaultPlan::none().with_icmp_limit(IcmpRateLimit::TokenBucket {
            capacity,
            refill_interval,
            start_depleted_frac,
        })
    }

    #[test]
    fn rfc4443_2_4_f_token_bucket_depletes_and_refills() {
        let plan = token_bucket(4, 10, 0.0);
        let mut st = ErrorLimiterState::default();
        let mut admit = |tick| rfc4443::admit_error(&plan, 0, 0, &mut st, tick, 1);
        // Burst of 4 admitted, fifth denied.
        for _ in 0..4 {
            assert!(admit(0));
        }
        assert!(!admit(0));
        // After one refill interval, exactly one more token.
        assert!(admit(10));
        assert!(!admit(10));
        // A long quiet period refills to capacity, not beyond.
        for _ in 0..4 {
            assert!(admit(1000));
        }
        assert!(!admit(1000));
    }

    #[test]
    fn rfc4443_2_4_f_unlimited_admits_every_error() {
        let plan = FaultPlan::none();
        assert_eq!(plan.icmp_limit, IcmpRateLimit::Unlimited);
        let mut st = ErrorLimiterState::default();
        for tick in 0..200 {
            assert!(rfc4443::admit_error(&plan, 0, 0, &mut st, tick, 1));
        }
        assert_eq!(st, ErrorLimiterState::default(), "no history kept");
    }

    #[test]
    fn rfc4443_2_4_f_depleted_bucket_is_silent_then_recovers() {
        let plan = token_bucket(8, 16, 1.0);
        let mut st = ErrorLimiterState::default();
        // Silent at tick 0 (bucket empty) …
        assert!(!rfc4443::admit_error(&plan, 7, 7, &mut st, 0, 1));
        // … but the retry after a refill interval is admitted.
        assert!(rfc4443::admit_error(&plan, 7, 7, &mut st, 16, 1));
    }

    #[test]
    fn rfc4443_3_1_address_unreachable_vs_reject_route() {
        use UnreachCode::{AddressUnreachable, NoRoute, RejectRoute};
        // A router's table: no match, a reject route, an on-link prefix
        // without the neighbour; forwarding and blackholing answer nothing.
        assert_eq!(rfc4443::unreachable_code(None), Some(NoRoute));
        assert_eq!(
            rfc4443::unreachable_code(Some(RouteAction::Reject)),
            Some(RejectRoute)
        );
        assert_eq!(
            rfc4443::unreachable_code(Some(RouteAction::OnLink)),
            Some(AddressUnreachable)
        );
        assert_eq!(
            rfc4443::unreachable_code(Some(RouteAction::Blackhole)),
            None
        );
        // A patched CPE: code 3 in the subnet it uses, code 6 in the rest
        // of its delegated prefix.
        let patched = Device {
            loop_vuln_lan: false,
            ..cpe(ReplyMode::DiffPrefix)
        };
        assert_eq!(
            rfc7084::answer(&patched, addr("2001:db8:4321:8765::dead")),
            CpeAnswer::Unreachable(AddressUnreachable)
        );
        assert_eq!(
            rfc7084::answer(&patched, addr("2001:db8:4321:8769::1")),
            CpeAnswer::Unreachable(RejectRoute)
        );
    }

    #[test]
    fn rfc4443_3_3_hop_limit_expires_within_the_routers_it_must_cross() {
        assert!(rfc4443::expires(1, 1));
        assert!(!rfc4443::expires(2, 1));
        assert!(rfc4443::expires(14, 14));
        assert!(!rfc4443::expires(15, 14));
    }

    #[test]
    fn rfc4443_3_3_engine_expires_at_the_forwarding_router() {
        let huawei = NAMED_MODELS.iter().find(|m| m.brand == "Huawei").unwrap();
        let plan = HomeNetworkPlan::default();
        let (mut engine, _) = build_home_network(huawei, &plan);
        let probe =
            |hop_limit| Ipv6Packet::echo_request(plan.vantage_addr, plan.lan_host, hop_limit, 0, 0);
        // Hop limit 1 dies at the vantage's own next hop, 2 at the ISP
        // router; 3 reaches the LAN host.
        for (hop_limit, from) in [(1, plan.vantage_addr), (2, plan.isp_addr)] {
            let replies = engine.handle(probe(hop_limit));
            assert_eq!(replies.len(), 1);
            assert_eq!(replies[0].src, from);
            assert!(matches!(
                replies[0].payload,
                Payload::Icmp(Icmpv6::TimeExceeded { .. })
            ));
        }
        assert!(matches!(
            engine.handle(probe(3))[0].payload,
            Payload::Icmp(Icmpv6::EchoReply { .. })
        ));
    }

    /// The first device of the world's first sample block and its WAN
    /// address.
    fn first_device(world: &World) -> (Device, Ip6) {
        let device = (0..).find_map(|i| world.device_at(0, i)).unwrap();
        let wan = device.wan_address();
        (device, wan)
    }

    #[test]
    fn rfc4443_3_3_world_expires_before_the_isp_edge() {
        let mut world = World::with_config(WorldConfig::lossless(7, 5));
        let (device, _) = first_device(&world);
        let nx = device.delegated_prefix.addr().with_iid(9);
        let n = device.hops_to_isp;
        let probe = |hop_limit| Ipv6Packet::echo_request(addr("fd00::1"), nx, hop_limit, 0, 0);
        let expired = world.handle(probe(n));
        assert_eq!(expired.len(), 1);
        assert!(transit_time_exceeded(&expired[0]), "{expired:?}");
        // One more hop reaches the periphery, which answers itself.
        let reached = world.handle(probe(n + 1));
        assert_eq!(reached.len(), 1);
        assert!(!transit_time_exceeded(&reached[0]), "{reached:?}");
    }

    #[test]
    fn rfc4443_3_3_registered_address_still_expires_in_transit() {
        let mut world = World::with_config(WorldConfig::lossless(7, 5));
        let (device, wan) = first_device(&world);
        assert!(device.hops_to_isp > 3, "{device:?}");
        let probe = |hop_limit| Ipv6Packet::echo_request(addr("fd00::1"), wan, hop_limit, 0, 0);
        let cold = world.handle(probe(3));
        assert_eq!(cold.len(), 1);
        assert!(transit_time_exceeded(&cold[0]), "{cold:?}");
        // A full-hop-limit echo registers the address …
        assert!(matches!(
            world.handle(probe(64))[0].payload,
            Payload::Icmp(Icmpv6::EchoReply { .. })
        ));
        assert_eq!(world.discovered_count(), 1);
        // … and the registry's answer still expires in transit, exactly as
        // the cold path's did.
        assert_eq!(world.handle(probe(3)), cold);
        assert_eq!(world.handle(probe(device.hops_to_isp)).len(), 1);
        assert!(matches!(
            world.handle(probe(device.hops_to_isp + 1))[0].payload,
            Payload::Icmp(Icmpv6::EchoReply { .. })
        ));
    }

    #[test]
    fn rfc7084_l14_unused_prefixes_loop_without_the_unreachable_route() {
        let d = cpe(ReplyMode::DiffPrefix);
        // Unused LAN destination loops (Figure 4's "Not-used Prefix").
        assert_eq!(
            rfc7084::answer(&d, addr("2001:db8:4321:8769::1")),
            CpeAnswer::Loop
        );
        // Unused WAN-prefix destination loops (Figure 4's "NX Address").
        assert_eq!(
            rfc7084::answer(&d, addr("2001:db8:1234:5678:ffff::1")),
            CpeAnswer::Loop
        );
        // The in-use subnet is on-link and never loops.
        let on_link = CpeAnswer::Unreachable(UnreachCode::AddressUnreachable);
        assert_eq!(rfc7084::answer(&d, addr("2001:db8:4321:8765::1")), on_link);
        // Nor do destinations outside the device's prefixes.
        assert_eq!(rfc7084::answer(&d, addr("2001:db9::1")), on_link);
        // A same-prefix device's delegated /64 is its WAN link.
        let same = Device {
            delegated_prefix: "2001:db8:abcd:ef12::/64".parse().unwrap(),
            ..cpe(ReplyMode::SamePrefix)
        };
        assert_eq!(
            rfc7084::answer(&same, addr("2001:db8:abcd:ef12::1")),
            CpeAnswer::Loop
        );
    }

    #[test]
    fn rfc7084_l14_the_unreachable_route_stops_the_loop() {
        let patched = Device {
            loop_vuln_lan: false,
            loop_vuln_wan: false,
            ..cpe(ReplyMode::DiffPrefix)
        };
        assert_eq!(
            rfc7084::answer(&patched, addr("2001:db8:4321:8769::1")),
            CpeAnswer::Unreachable(UnreachCode::RejectRoute)
        );
        assert_eq!(
            rfc7084::answer(&patched, addr("2001:db8:1234:5678:ffff::1")),
            CpeAnswer::Unreachable(UnreachCode::AddressUnreachable)
        );
        let same = Device {
            delegated_prefix: "2001:db8:abcd:ef12::/64".parse().unwrap(),
            loop_vuln_wan: false,
            ..cpe(ReplyMode::SamePrefix)
        };
        assert_eq!(
            rfc7084::answer(&same, addr("2001:db8:abcd:ef12::1")),
            CpeAnswer::Unreachable(UnreachCode::AddressUnreachable)
        );
    }
}

//! Router-model catalog and topology builders for the case studies.
//!
//! Section VI-D tests 95 sample home routers from 20 vendors plus 4
//! open-source router OSes (all updated to their latest firmware as of
//! Dec 1st 2020) in a controlled broadband home network: WAN assigned a
//! /64, LAN delegated a /60. Table XII reports per-model vulnerability of
//! the WAN and LAN prefixes; all 99 are vulnerable to the loop on at least
//! one prefix, and four (Xiaomi, Gargoyle, librecmc, OpenWrt) forward loop
//! packets only a bounded number of times.
//!
//! [`RouterModel`] encodes those behaviours; [`build_home_network`] turns a
//! model into an explicit [`Engine`] topology reproducing Figure 4.

use xmap_addr::{Ip6, Prefix};

use crate::engine::{Engine, NodeId, RouteAction};

/// How a router handles loop packets.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LoopBehavior {
    /// Standards-compliant forwarding: the packet loops (255−n)/2 times
    /// through the router.
    FullLoop,
    /// The firmware clamps forwarded hop limits, so a loop packet is
    /// forwarded only a bounded number of times (>10 in the paper's tests).
    Limited {
        /// Hop-limit value the router clamps to when forwarding.
        clamp: u8,
    },
}

/// One tested router (a Table XII row).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RouterModel {
    /// Vendor brand.
    pub brand: &'static str,
    /// Model name (or OS version for router OSes).
    pub model: &'static str,
    /// Firmware version tested.
    pub firmware: &'static str,
    /// Loop-vulnerable for not-used addresses within the WAN /64.
    pub wan_vulnerable: bool,
    /// Loop-vulnerable for not-used prefixes within the delegated LAN /60.
    pub lan_vulnerable: bool,
    /// Loop forwarding behaviour.
    pub behavior: LoopBehavior,
    /// Whether this entry is an open-source router OS rather than hardware.
    pub is_os: bool,
}

impl RouterModel {
    /// Whether the model is vulnerable on at least one prefix (the paper
    /// finds this true for all 99 entries).
    pub const fn is_vulnerable(&self) -> bool {
        self.wan_vulnerable || self.lan_vulnerable
    }
}

/// The individually named rows of Table XII.
pub const NAMED_MODELS: &[RouterModel] = &[
    RouterModel {
        brand: "ASUS",
        model: "GT-AC5300",
        firmware: "3.0.0.4.384_82037",
        wan_vulnerable: true,
        lan_vulnerable: false,
        behavior: LoopBehavior::FullLoop,
        is_os: false,
    },
    RouterModel {
        brand: "D-Link",
        model: "COVR-3902",
        firmware: "1.01",
        wan_vulnerable: true,
        lan_vulnerable: false,
        behavior: LoopBehavior::FullLoop,
        is_os: false,
    },
    RouterModel {
        brand: "Huawei",
        model: "WS5100",
        firmware: "10.0.2.8",
        wan_vulnerable: true,
        lan_vulnerable: true,
        behavior: LoopBehavior::FullLoop,
        is_os: false,
    },
    RouterModel {
        brand: "Linksys",
        model: "EA8100",
        firmware: "2.0.1.200539",
        wan_vulnerable: true,
        lan_vulnerable: true,
        behavior: LoopBehavior::FullLoop,
        is_os: false,
    },
    RouterModel {
        brand: "Netgear",
        model: "R6400v2",
        firmware: "1.0.4.102_10.0.75",
        wan_vulnerable: true,
        lan_vulnerable: true,
        behavior: LoopBehavior::FullLoop,
        is_os: false,
    },
    RouterModel {
        brand: "Tenda",
        model: "AC23",
        firmware: "16.03.07.35",
        wan_vulnerable: true,
        lan_vulnerable: false,
        behavior: LoopBehavior::FullLoop,
        is_os: false,
    },
    RouterModel {
        brand: "TP-Link",
        model: "TL-XDR3230",
        firmware: "1.0.8",
        wan_vulnerable: true,
        lan_vulnerable: true,
        behavior: LoopBehavior::FullLoop,
        is_os: false,
    },
    RouterModel {
        brand: "Xiaomi",
        model: "AX5",
        firmware: "1.0.33",
        wan_vulnerable: true,
        lan_vulnerable: false,
        behavior: LoopBehavior::Limited { clamp: 24 },
        is_os: false,
    },
    RouterModel {
        brand: "OpenWrt",
        model: "19.07.4",
        firmware: "r11208-ce6496d796",
        wan_vulnerable: true,
        lan_vulnerable: false,
        behavior: LoopBehavior::Limited { clamp: 24 },
        is_os: true,
    },
];

/// Brand → number of tested units (Table XII footer; 95 routers total) and
/// per-brand defaults for the unnamed units.
const BRAND_COUNTS: &[(&str, u8, bool, bool)] = &[
    // (brand, tested units, default wan_vulnerable, default lan_vulnerable)
    ("ASUS", 1, true, false),
    ("China Mobile", 4, true, true),
    ("D-Link", 2, true, false),
    ("FAST", 1, true, false),
    ("Fiberhome", 2, true, true),
    ("H3C", 1, true, false),
    ("Hisense", 1, true, false),
    ("Huawei", 4, true, true),
    ("iKuai", 3, true, false),
    ("Linksys", 1, true, true),
    ("Mercury", 8, true, false),
    ("MikroTik", 1, true, false),
    ("Netgear", 2, true, true),
    ("Skyworth", 9, true, true),
    ("Tenda", 1, true, false),
    ("Totolink", 1, true, false),
    ("TP-Link", 42, true, true),
    ("Xiaomi", 1, true, false),
    ("Youhua Tech", 1, true, true),
    ("ZTE", 9, true, true),
];

/// The four tested open-source router OSes.
const OS_MODELS: &[(&str, &str, LoopBehavior)] = &[
    ("DD-Wrt", "r44715", LoopBehavior::FullLoop),
    ("Gargoyle", "1.12.0", LoopBehavior::Limited { clamp: 24 }),
    ("librecmc", "1.5.7", LoopBehavior::Limited { clamp: 24 }),
    ("OpenWrt", "19.07.4", LoopBehavior::Limited { clamp: 24 }),
];

/// Builds the full 99-entry catalog: 95 hardware routers (per the brand
/// counts of Table XII's footer, with the individually named rows taking
/// their published behaviour) plus the 4 router OSes.
pub fn full_catalog() -> Vec<RouterModel> {
    let mut out = Vec::with_capacity(99);
    for (brand, count, wan, lan) in BRAND_COUNTS {
        for unit in 0..*count {
            // The first unit of a brand with a named row uses the named data.
            let named = (unit == 0)
                .then(|| NAMED_MODELS.iter().find(|m| m.brand == *brand && !m.is_os))
                .flatten();
            match named {
                Some(m) => out.push(*m),
                None => out.push(RouterModel {
                    brand,
                    model: "unit",
                    firmware: "latest (Dec 2020)",
                    wan_vulnerable: *wan,
                    lan_vulnerable: *lan,
                    behavior: if *brand == "Xiaomi" {
                        LoopBehavior::Limited { clamp: 24 }
                    } else {
                        LoopBehavior::FullLoop
                    },
                    is_os: false,
                }),
            }
        }
    }
    for (brand, fw, behavior) in OS_MODELS {
        out.push(RouterModel {
            brand,
            model: "router OS",
            firmware: fw,
            wan_vulnerable: true,
            lan_vulnerable: *brand == "DD-Wrt",
            behavior: *behavior,
            is_os: true,
        });
    }
    out
}

/// The addressing plan of the controlled home network (Figure 4).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HomeNetworkPlan {
    /// Scanner address.
    pub vantage_addr: Ip6,
    /// ISP router address.
    pub isp_addr: Ip6,
    /// WAN /64 assigned to the CPE.
    pub wan_prefix: Prefix,
    /// CPE WAN interface address.
    pub cpe_wan_addr: Ip6,
    /// /60 delegated to the CPE.
    pub lan_prefix: Prefix,
    /// The one /64 the CPE actually uses on its LAN.
    pub subnet_prefix: Prefix,
    /// A host inside the used subnet.
    pub lan_host: Ip6,
    /// Number of transit hops between the vantage and the ISP router.
    pub transit_hops: u8,
}

impl Default for HomeNetworkPlan {
    fn default() -> Self {
        HomeNetworkPlan {
            vantage_addr: "fd00::1".parse().expect("static"),
            isp_addr: "2001:db8::1".parse().expect("static"),
            wan_prefix: "2001:db8:1234:5678::/64".parse().expect("static"),
            cpe_wan_addr: "2001:db8:1234:5678::aa".parse().expect("static"),
            lan_prefix: "2001:db8:4321:8760::/60".parse().expect("static"),
            subnet_prefix: "2001:db8:4321:8765::/64".parse().expect("static"),
            lan_host: "2001:db8:4321:8765::100".parse().expect("static"),
            transit_hops: 0,
        }
    }
}

impl HomeNetworkPlan {
    /// A not-used /64 inside the delegated LAN prefix (Figure 4's
    /// `2001:db8:4321:8769::/64`).
    pub fn not_used_lan_prefix(&self) -> Prefix {
        self.lan_prefix.subprefix(64, 9)
    }

    /// A nonexistent address within the WAN /64 (Figure 4's "NX Address").
    pub fn nx_wan_address(&self) -> Ip6 {
        self.wan_prefix.addr().with_iid(0xdead_beef_0000_0001)
    }
}

/// Handles to the nodes of a built home network.
#[derive(Debug, Clone, Copy)]
pub struct HomeNetwork {
    /// The scanner's node.
    pub vantage: NodeId,
    /// The provider router P of Figure 4.
    pub isp: NodeId,
    /// The CPE router R of Figure 4.
    pub cpe: NodeId,
}

/// Builds the Figure 4 topology for one router model: vantage → (transit
/// hops) → ISP router P → CPE router R with the plan's prefixes, wiring the
/// CPE's routing table per the model's vulnerability flags:
///
/// * `wan_vulnerable` — the CPE has a host route for its own WAN address
///   only, so other WAN-/64 addresses fall through to the default route,
/// * `lan_vulnerable` — the CPE lacks the RFC 7084 unreachable route for
///   the unused part of the delegated prefix,
/// * a patched prefix gets an explicit [`RouteAction::Reject`].
pub fn build_home_network(model: &RouterModel, plan: &HomeNetworkPlan) -> (Engine, HomeNetwork) {
    let mut e = Engine::new();
    let vantage = e.add_node("vantage", vec![plan.vantage_addr]);
    e.set_vantage(vantage);

    // Optional transit chain between vantage and ISP router.
    let mut prev = vantage;
    for i in 0..plan.transit_hops {
        let addr = Ip6::new(plan.vantage_addr.bits() | (0x1_0000 + i as u128));
        let hop = e.add_node(&format!("transit{i}"), vec![addr]);
        e.add_route(
            prev,
            "::/0".parse().expect("static"),
            RouteAction::Forward(hop),
        );
        // Return path toward the vantage.
        e.add_route(
            hop,
            "fd00::/16".parse().expect("static"),
            RouteAction::Forward(prev),
        );
        prev = hop;
    }

    let isp = e.add_node("isp-router", vec![plan.isp_addr]);
    e.add_route(
        prev,
        "::/0".parse().expect("static"),
        RouteAction::Forward(isp),
    );

    let cpe = e.add_node(
        &format!("{} {}", model.brand, model.model),
        vec![plan.cpe_wan_addr],
    );
    if let LoopBehavior::Limited { clamp } = model.behavior {
        e.set_hop_limit_clamp(cpe, clamp);
    }

    // ISP router P routes both the WAN /64 and the delegated /60 to R.
    e.add_route(isp, plan.wan_prefix, RouteAction::Forward(cpe));
    e.add_route(isp, plan.lan_prefix, RouteAction::Forward(cpe));
    e.add_route(
        isp,
        "fd00::/16".parse().expect("static"),
        RouteAction::Forward(prev),
    );
    e.add_route(isp, "::/0".parse().expect("static"), RouteAction::Blackhole);

    // CPE router R: the used subnet is on-link; everything else defaults
    // upstream. Patched prefixes get explicit unreachable routes.
    e.add_route(cpe, plan.subnet_prefix, RouteAction::OnLink);
    e.add_host(cpe, plan.lan_host);
    if !model.lan_vulnerable {
        e.add_route(cpe, plan.lan_prefix, RouteAction::Reject);
    }
    if !model.wan_vulnerable {
        e.add_route(cpe, plan.wan_prefix, RouteAction::Reject);
    }
    e.add_route(
        cpe,
        "::/0".parse().expect("static"),
        RouteAction::Forward(isp),
    );

    (e, HomeNetwork { vantage, isp, cpe })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::tests::handle;
    use crate::packet::{Icmpv6, Ipv6Packet, Payload, UnreachCode, MAX_HOP_LIMIT};

    #[test]
    fn catalog_has_99_entries_all_vulnerable() {
        let catalog = full_catalog();
        assert_eq!(catalog.len(), 99);
        assert!(
            catalog.iter().all(|m| m.is_vulnerable()),
            "every entry is vulnerable"
        );
        let hardware = catalog.iter().filter(|m| !m.is_os).count();
        assert_eq!(hardware, 95);
        // 20 hardware brands.
        let mut brands: Vec<&str> = catalog
            .iter()
            .filter(|m| !m.is_os)
            .map(|m| m.brand)
            .collect();
        brands.sort_unstable();
        brands.dedup();
        assert_eq!(brands.len(), 20);
    }

    #[test]
    fn tplink_dominates_test_pool() {
        let catalog = full_catalog();
        let tplink = catalog.iter().filter(|m| m.brand == "TP-Link").count();
        assert_eq!(tplink, 42);
    }

    #[test]
    fn named_models_match_table_xii() {
        let huawei = NAMED_MODELS.iter().find(|m| m.brand == "Huawei").unwrap();
        assert!(huawei.wan_vulnerable && huawei.lan_vulnerable);
        let asus = NAMED_MODELS.iter().find(|m| m.brand == "ASUS").unwrap();
        assert!(asus.wan_vulnerable && !asus.lan_vulnerable);
        let xiaomi = NAMED_MODELS.iter().find(|m| m.brand == "Xiaomi").unwrap();
        assert!(matches!(xiaomi.behavior, LoopBehavior::Limited { .. }));
    }

    #[test]
    fn vulnerable_lan_prefix_loops() {
        let model = NAMED_MODELS.iter().find(|m| m.brand == "Huawei").unwrap();
        let plan = HomeNetworkPlan::default();
        let (mut e, net) = build_home_network(model, &plan);
        let target = plan.not_used_lan_prefix().addr().with_iid(1);
        e.reset_counters();
        let replies = handle(
            &mut e,
            Ipv6Packet::echo_request(plan.vantage_addr, target, MAX_HOP_LIMIT, 0, 0),
        );
        let loop_fwd = e.link_forwards(net.isp, net.cpe) + e.link_forwards(net.cpe, net.isp);
        assert!(loop_fwd > 200, "{loop_fwd}");
        assert!(matches!(
            replies[0].payload,
            Payload::Icmp(Icmpv6::TimeExceeded { .. })
        ));
    }

    #[test]
    fn immune_lan_prefix_answers_unreachable() {
        // ASUS GT-AC5300: LAN not vulnerable → reject route → unreachable.
        let model = NAMED_MODELS.iter().find(|m| m.brand == "ASUS").unwrap();
        let plan = HomeNetworkPlan::default();
        let (mut e, _) = build_home_network(model, &plan);
        let target = plan.not_used_lan_prefix().addr().with_iid(1);
        let replies = handle(
            &mut e,
            Ipv6Packet::echo_request(plan.vantage_addr, target, MAX_HOP_LIMIT, 0, 0),
        );
        assert!(matches!(
            replies[0].payload,
            Payload::Icmp(Icmpv6::DestUnreachable {
                code: UnreachCode::RejectRoute,
                ..
            })
        ));
    }

    #[test]
    fn wan_nx_address_loops_when_vulnerable() {
        let model = NAMED_MODELS.iter().find(|m| m.brand == "ASUS").unwrap();
        let plan = HomeNetworkPlan::default();
        let (mut e, net) = build_home_network(model, &plan);
        e.reset_counters();
        handle(
            &mut e,
            Ipv6Packet::echo_request(
                plan.vantage_addr,
                plan.nx_wan_address(),
                MAX_HOP_LIMIT,
                0,
                0,
            ),
        );
        let loop_fwd = e.link_forwards(net.isp, net.cpe) + e.link_forwards(net.cpe, net.isp);
        assert!(loop_fwd > 200, "{loop_fwd}");
    }

    #[test]
    fn limited_loop_models_forward_bounded_times() {
        let model = NAMED_MODELS.iter().find(|m| m.brand == "Xiaomi").unwrap();
        let plan = HomeNetworkPlan::default();
        let (mut e, net) = build_home_network(model, &plan);
        e.reset_counters();
        handle(
            &mut e,
            Ipv6Packet::echo_request(
                plan.vantage_addr,
                plan.nx_wan_address(),
                MAX_HOP_LIMIT,
                0,
                0,
            ),
        );
        let loop_fwd = e.link_forwards(net.isp, net.cpe) + e.link_forwards(net.cpe, net.isp);
        // ">10 times" but far below the full 253.
        assert!(loop_fwd > 10, "{loop_fwd}");
        assert!(loop_fwd < 40, "{loop_fwd}");
    }

    #[test]
    fn transit_hops_shorten_loops() {
        let model = NAMED_MODELS.iter().find(|m| m.brand == "Huawei").unwrap();
        let plan = HomeNetworkPlan {
            transit_hops: 10,
            ..Default::default()
        };
        let (mut e, net) = build_home_network(model, &plan);
        e.reset_counters();
        handle(
            &mut e,
            Ipv6Packet::echo_request(
                plan.vantage_addr,
                plan.not_used_lan_prefix().addr().with_iid(1),
                MAX_HOP_LIMIT,
                0,
                0,
            ),
        );
        let loop_fwd = e.link_forwards(net.isp, net.cpe) + e.link_forwards(net.cpe, net.isp);
        // Amplification 255 - n: ten extra hops remove ten loop traversals.
        assert_eq!(loop_fwd, 253 - 10);
    }

    #[test]
    fn lan_host_reachable_through_cpe() {
        let model = NAMED_MODELS.iter().find(|m| m.brand == "Huawei").unwrap();
        let plan = HomeNetworkPlan::default();
        let (mut e, _) = build_home_network(model, &plan);
        let replies = handle(
            &mut e,
            Ipv6Packet::echo_request(plan.vantage_addr, plan.lan_host, 64, 3, 4),
        );
        assert_eq!(replies.len(), 1);
        assert!(matches!(
            replies[0].payload,
            Payload::Icmp(Icmpv6::EchoReply { ident: 3, seq: 4 })
        ));
    }
}

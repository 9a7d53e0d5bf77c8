//! Explicit packet-level simulation engine.
//!
//! The engine models a small topology node by node: each node owns
//! interface addresses, a list of directly attached hosts, and a routing
//! table evaluated by longest-prefix match. Packets are forwarded hop by
//! hop with hop-limit decrement; the rule book ([`crate::rules`]) decides
//! and builds each ICMPv6 error exactly where RFC 4443 says it belongs:
//!
//! * hop limit expires in transit → Time Exceeded from that router,
//! * no route / reject route → Destination Unreachable from that router,
//! * destination inside an on-link /64 but no such neighbour → Destination
//!   Unreachable (address unreachable) from the *last-hop* router — the
//!   response the periphery-discovery technique harvests.
//!
//! Error and reply packets are themselves routed (so a spoofed-source attack
//! packet whose error response flows back into a looping prefix is modelled),
//! but per RFC 4443 §2.4(e) an ICMPv6 error never begets another error.
//!
//! Every link traversal is counted, which is how the routing-loop
//! amplification factor is measured (Section VI-A).

use std::collections::HashMap;

use xmap_addr::{Ip6, Prefix};

use crate::fault::FaultPlan;
use crate::packet::{
    AppData, Icmpv6, Ipv6Packet, Network, Payload, TcpFlags, UnreachCode, DEFAULT_HOP_LIMIT,
    MAX_HOP_LIMIT,
};
use crate::rules::rfc4443::{self, Answer};

/// Identifier of a node inside an [`Engine`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(usize);

/// What a routing-table entry does with a matching packet.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RouteAction {
    /// Forward to another node over a link.
    Forward(NodeId),
    /// Administratively reject: answer Destination Unreachable (reject
    /// route). This is the RFC 7084 "unreachable route" a patched CE router
    /// installs for the unused part of its delegated prefix.
    Reject,
    /// Silently discard.
    Blackhole,
    /// The prefix is on-link: deliver to a local host or answer
    /// address-unreachable.
    OnLink,
}

/// A routing-table entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Route {
    /// Destination prefix.
    pub prefix: Prefix,
    /// Action on match.
    pub action: RouteAction,
}

/// One router/host in the topology.
#[derive(Debug, Clone)]
struct Node {
    name: String,
    /// Interface addresses owned by this node (answer echo themselves).
    addrs: Vec<Ip6>,
    /// Directly attached neighbour hosts that answer echo.
    hosts: Vec<Ip6>,
    routes: Vec<Route>,
    /// Some router firmware rewrites large hop limits down to a small value
    /// when forwarding (observed as ">10 loop forwards" for Xiaomi/OpenWrt
    /// class devices in Table XII). `None` = standards-compliant decrement.
    hl_clamp: Option<u8>,
}

impl Node {
    /// Longest-prefix-match lookup.
    fn lookup(&self, dst: Ip6) -> Option<Route> {
        self.routes
            .iter()
            .filter(|r| r.prefix.contains(dst))
            .max_by_key(|r| r.prefix.len())
            .copied()
    }

    fn primary_addr(&self) -> Ip6 {
        *self.addrs.first().expect("node has no interface address")
    }
}

/// An explicit network topology with packet-by-packet forwarding.
///
/// # Examples
///
/// ```
/// use xmap_netsim::engine::{Engine, RouteAction};
/// use xmap_netsim::packet::{Ipv6Packet, Network};
///
/// # fn main() -> Result<(), xmap_addr::ParseAddrError> {
/// let mut e = Engine::new();
/// let vantage = e.add_node("vantage", vec!["fd::1".parse()?]);
/// let router = e.add_node("router", vec!["2001:db8::1".parse()?]);
/// e.add_route(vantage, "::/0".parse()?, RouteAction::Forward(router));
/// e.add_route(router, "fd::/16".parse()?, RouteAction::Forward(vantage));
/// e.add_route(router, "2001:db8::/64".parse()?, RouteAction::OnLink);
/// e.set_vantage(vantage);
///
/// // Ping the router itself: echo reply comes back.
/// let mut replies = Vec::new();
/// e.handle_into(
///     Ipv6Packet::echo_request("fd::1".parse()?, "2001:db8::1".parse()?, 64, 1, 1),
///     &mut replies,
/// );
/// assert_eq!(replies.len(), 1);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Default)]
pub struct Engine {
    nodes: Vec<Node>,
    vantage: Option<NodeId>,
    /// Per-directed-link forward counters.
    link_forwards: HashMap<(NodeId, NodeId), u64>,
    /// Total number of link traversals since the last reset.
    total_forwards: u64,
    /// Injected faults: per-link loss keyed on the fault seed and the
    /// virtual clock. Identity plan by default.
    fault: FaultPlan,
    /// Virtual clock in ticks; advanced by [`Network::tick_into`].
    clock: u64,
    /// Packets dropped on links by the fault plan since the last reset.
    link_drops: u64,
    /// Registry handles for the `netsim.engine.*` metric surface (inert
    /// unless [`Engine::set_telemetry`] attached a live bundle).
    telemetry: crate::telemetry::NetsimTelemetry,
}

impl Engine {
    /// Creates an empty topology.
    pub fn new() -> Self {
        Engine::default()
    }

    /// Adds a node with its interface addresses; returns its id.
    pub fn add_node(&mut self, name: &str, addrs: Vec<Ip6>) -> NodeId {
        let id = NodeId(self.nodes.len());
        self.nodes.push(Node {
            name: name.to_owned(),
            addrs,
            hosts: Vec::new(),
            routes: Vec::new(),
            hl_clamp: None,
        });
        id
    }

    /// Adds an interface address to an existing node.
    pub fn add_addr(&mut self, node: NodeId, addr: Ip6) {
        self.nodes[node.0].addrs.push(addr);
    }

    /// Attaches a directly connected host (answers echo) to a node.
    pub fn add_host(&mut self, node: NodeId, addr: Ip6) {
        self.nodes[node.0].hosts.push(addr);
    }

    /// Installs a route on a node.
    pub fn add_route(&mut self, node: NodeId, prefix: Prefix, action: RouteAction) {
        self.nodes[node.0].routes.push(Route { prefix, action });
    }

    /// Makes a node clamp the hop limit of packets it forwards to at most
    /// `clamp` — the non-compliant behaviour of Table XII's limited-loop
    /// routers (they forward a 255-hop-limit loop packet only >10 times).
    pub fn set_hop_limit_clamp(&mut self, node: NodeId, clamp: u8) {
        self.nodes[node.0].hl_clamp = Some(clamp);
    }

    /// Declares the node the scanner sits on. Response packets arriving at
    /// any of its addresses are appended by [`Network::handle_into`].
    pub fn set_vantage(&mut self, node: NodeId) {
        self.vantage = Some(node);
    }

    /// Attaches a telemetry bundle: injections, deliveries, link
    /// traversals and fault drops are mirrored into its registry as
    /// `netsim.engine.*` counters, and ticks emit `netsim.tick` events.
    pub fn set_telemetry(&mut self, telemetry: &xmap_telemetry::Telemetry) {
        self.telemetry = crate::telemetry::NetsimTelemetry::bind(telemetry);
    }

    /// Installs a fault plan: every link traversal (in either direction)
    /// then drops the packet with the plan's forward-loss probability,
    /// redrawn per tick.
    pub fn set_fault_plan(&mut self, fault: FaultPlan) {
        self.fault = fault;
    }

    /// Packets dropped on links by the fault plan since the last
    /// [`Engine::reset_counters`].
    pub fn link_drops(&self) -> u64 {
        self.link_drops
    }

    /// Number of packets forwarded over the directed link `from → to` since
    /// the last [`Engine::reset_counters`].
    pub fn link_forwards(&self, from: NodeId, to: NodeId) -> u64 {
        self.link_forwards.get(&(from, to)).copied().unwrap_or(0)
    }

    /// Total link traversals since the last reset — the attack traffic
    /// volume used to compute amplification factors.
    pub fn total_forwards(&self) -> u64 {
        self.total_forwards
    }

    /// Zeroes all traffic counters.
    pub fn reset_counters(&mut self) {
        self.link_forwards.clear();
        self.total_forwards = 0;
        self.link_drops = 0;
    }

    /// Renders a node's routing table in `ip -6 route`-like text — the
    /// "Routing Table R / P" boxes of the paper's Figure 4.
    pub fn routing_table(&self, node: NodeId) -> String {
        use std::fmt::Write as _;
        let n = &self.nodes[node.0];
        let mut out = String::new();
        let _ = writeln!(out, "routing table of {} ({}):", n.name, n.primary_addr());
        let mut routes = n.routes.clone();
        routes.sort_by(|a, b| {
            b.prefix
                .len()
                .cmp(&a.prefix.len())
                .then(a.prefix.cmp(&b.prefix))
        });
        for r in routes {
            let action = match r.action {
                RouteAction::Forward(next) => {
                    format!("via {}", self.nodes[next.0].primary_addr())
                }
                RouteAction::Reject => "unreachable".to_owned(),
                RouteAction::Blackhole => "blackhole".to_owned(),
                RouteAction::OnLink => "dev lan (on-link)".to_owned(),
            };
            let _ = writeln!(out, "  {:<28} {}", r.prefix.to_string(), action);
        }
        out
    }

    /// Routes one packet from `at` until delivery, drop or error.
    /// Generated packets (errors/replies) are pushed to `out`, tagged with
    /// the node that emitted them. `is_error` marks a generated error,
    /// which nothing answers (RFC 4443 §2.4(e)): a node it is addressed to
    /// consumes it, and a router that cannot forward it drops it.
    fn route_packet(
        &mut self,
        mut packet: Ipv6Packet,
        mut at: NodeId,
        is_error: bool,
        out: &mut Vec<(Ipv6Packet, NodeId)>,
    ) {
        loop {
            let node = &self.nodes[at.0];
            // A node's own address needs no route lookup.
            let own = node.addrs.contains(&packet.dst);
            let route = (!own)
                .then(|| node.lookup(packet.dst).map(|r| r.action))
                .flatten();
            let answer = match route {
                _ if own
                    || (route == Some(RouteAction::OnLink) && node.hosts.contains(&packet.dst)) =>
                {
                    local_answer(&packet).map(|a| (packet.dst, a))
                }
                Some(RouteAction::Forward(next)) => {
                    if let Some(clamp) = node.hl_clamp {
                        packet.hop_limit = packet.hop_limit.min(clamp);
                    }
                    if rfc4443::expires(packet.hop_limit, 1) {
                        Some((node.primary_addr(), Answer::TimeExceeded))
                    } else {
                        packet.hop_limit -= 1;
                        if self
                            .fault
                            .drop_link(at.0 as u64, next.0 as u64, packet.dst, self.clock)
                        {
                            self.link_drops += 1;
                            return;
                        }
                        *self.link_forwards.entry((at, next)).or_insert(0) += 1;
                        self.total_forwards += 1;
                        at = next;
                        continue;
                    }
                }
                _ => rfc4443::unreachable_code(route)
                    .map(|code| (node.primary_addr(), Answer::Unreachable(code))),
            };
            if let Some((src, answer)) = answer.filter(|_| !is_error) {
                let mut reply = rfc4443::reply(src, &packet, DEFAULT_HOP_LIMIT, answer);
                if rfc4443::is_error(&reply) {
                    reply.hop_limit = ERROR_HOP_LIMIT;
                }
                out.push((reply, at));
            }
            return;
        }
    }
}

/// The hop limit engine routers originate ICMPv6 errors with. Router
/// stacks commonly use 255; this matters for the spoofed-source
/// loop-doubling attack, where the error itself re-enters the loop and
/// must survive another ~250 traversals.
const ERROR_HOP_LIMIT: u8 = MAX_HOP_LIMIT;

/// What a node answers a packet addressed to it or to one of its on-link
/// hosts: engine nodes run no application services, so UDP draws port
/// unreachable and TCP a reset; replies and errors are consumed silently.
fn local_answer(packet: &Ipv6Packet) -> Option<Answer> {
    match &packet.payload {
        Payload::Icmp(Icmpv6::EchoRequest { .. }) => Some(Answer::EchoReply),
        Payload::Udp { .. } => Some(Answer::Unreachable(UnreachCode::PortUnreachable)),
        Payload::Tcp { .. } => Some(Answer::Tcp(TcpFlags::Rst, AppData::None)),
        Payload::Icmp(_) => None,
    }
}

impl Network for Engine {
    /// Injects `packet` at the vantage node and appends every packet that
    /// makes it back to a vantage address to `out`.
    ///
    /// # Panics
    ///
    /// Panics if no vantage node has been set.
    fn handle_into(&mut self, packet: Ipv6Packet, out: &mut Vec<Ipv6Packet>) {
        let vantage = self.vantage.expect("vantage node not set");
        let vantage_addrs: Vec<Ip6> = self.nodes[vantage.0].addrs.clone();
        let forwards_before = self.total_forwards;
        let drops_before = self.link_drops;

        let mut queue: Vec<(Ipv6Packet, NodeId)> = Vec::new();
        self.route_packet(packet, vantage, false, &mut queue);

        // Route generated packets (errors/replies) from the node that
        // produced them until they reach the vantage or die. Each may itself
        // generate more traffic (e.g. spoofed-source loop doubling), but
        // never new ICMP errors about errors. Packets addressed to the
        // vantage are delivered directly (the reverse path to the scanner is
        // assumed up and is not part of any measured link).
        let before = out.len();
        // Bounded by hop limits; the guard is belt and braces.
        let mut steps = 0usize;
        while let Some((p, at)) = queue.pop() {
            steps += 1;
            if steps > 100_000 {
                break;
            }
            if vantage_addrs.contains(&p.dst) {
                out.push(p);
                continue;
            }
            let is_error = rfc4443::is_error(&p);
            let mut more = Vec::new();
            self.route_packet(p, at, is_error, &mut more);
            queue.extend(more);
        }
        out[before..].reverse();
        if self.telemetry.is_enabled() {
            self.telemetry.engine_injected.inc();
            self.telemetry
                .engine_delivered
                .add((out.len() - before) as u64);
            self.telemetry
                .engine_forwards
                .add(self.total_forwards - forwards_before);
            self.telemetry
                .engine_link_drops
                .add(self.link_drops - drops_before);
        }
    }

    fn tick_into(&mut self, ticks: u64, _out: &mut Vec<Ipv6Packet>) {
        self.clock += ticks;
        if self.telemetry.is_enabled() {
            self.telemetry.record_tick(self.clock, ticks, 0);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::tests::{handle, tick};
    use crate::packet::DEFAULT_HOP_LIMIT;

    fn addr(s: &str) -> Ip6 {
        s.parse().unwrap()
    }

    fn prefix(s: &str) -> Prefix {
        s.parse().unwrap()
    }

    /// vantage --- isp --- cpe (with an on-link LAN /64 and a delegated /60).
    fn three_node_topology(cpe_patched: bool) -> (Engine, NodeId, NodeId, NodeId) {
        let mut e = Engine::new();
        let vantage = e.add_node("vantage", vec![addr("fd::1")]);
        let isp = e.add_node("isp", vec![addr("2001:db8::1")]);
        let cpe = e.add_node("cpe", vec![addr("2001:db8:1234:5678::aa")]);

        e.set_vantage(vantage);
        e.add_route(vantage, prefix("::/0"), RouteAction::Forward(isp));

        // ISP: WAN /64 and delegated LAN /60 both routed to the CPE.
        e.add_route(
            isp,
            prefix("2001:db8:1234:5678::/64"),
            RouteAction::Forward(cpe),
        );
        e.add_route(
            isp,
            prefix("2001:db8:4321:8760::/60"),
            RouteAction::Forward(cpe),
        );
        e.add_route(isp, prefix("fd::/16"), RouteAction::Forward(vantage));
        e.add_route(isp, prefix("::/0"), RouteAction::Blackhole);

        // CPE: one subnet in use on-link; rest of the /60 is not used.
        e.add_route(cpe, prefix("2001:db8:4321:8765::/64"), RouteAction::OnLink);
        if cpe_patched {
            // RFC 7084: unreachable (reject) route for the delegated prefix.
            e.add_route(cpe, prefix("2001:db8:4321:8760::/60"), RouteAction::Reject);
        }
        e.add_route(cpe, prefix("::/0"), RouteAction::Forward(isp));
        e.add_host(cpe, addr("2001:db8:4321:8765::100"));
        (e, vantage, isp, cpe)
    }

    #[test]
    fn echo_reply_from_cpe_interface() {
        let (mut e, ..) = three_node_topology(true);
        let replies = handle(
            &mut e,
            Ipv6Packet::echo_request(
                addr("fd::1"),
                addr("2001:db8:1234:5678::aa"),
                DEFAULT_HOP_LIMIT,
                1,
                2,
            ),
        );
        assert_eq!(replies.len(), 1);
        assert_eq!(replies[0].src, addr("2001:db8:1234:5678::aa"));
        assert!(matches!(
            replies[0].payload,
            Payload::Icmp(Icmpv6::EchoReply { ident: 1, seq: 2 })
        ));
    }

    #[test]
    fn echo_reply_from_lan_host() {
        let (mut e, ..) = three_node_topology(true);
        let replies = handle(
            &mut e,
            Ipv6Packet::echo_request(
                addr("fd::1"),
                addr("2001:db8:4321:8765::100"),
                DEFAULT_HOP_LIMIT,
                0,
                0,
            ),
        );
        assert_eq!(replies.len(), 1);
        assert!(matches!(
            replies[0].payload,
            Payload::Icmp(Icmpv6::EchoReply { .. })
        ));
    }

    #[test]
    fn nonexistent_lan_host_yields_address_unreachable_from_last_hop() {
        let (mut e, ..) = three_node_topology(true);
        let probe_dst = addr("2001:db8:4321:8765::dead");
        let replies = handle(
            &mut e,
            Ipv6Packet::echo_request(addr("fd::1"), probe_dst, 64, 7, 7),
        );
        assert_eq!(replies.len(), 1);
        // The CPE (last hop) answers from its own WAN address — this is the
        // periphery-discovery mechanism.
        assert_eq!(replies[0].src, addr("2001:db8:1234:5678::aa"));
        match &replies[0].payload {
            Payload::Icmp(Icmpv6::DestUnreachable { code, invoking }) => {
                assert_eq!(*code, UnreachCode::AddressUnreachable);
                assert_eq!(invoking.dst, probe_dst);
            }
            other => panic!("expected unreachable, got {other:?}"),
        }
    }

    #[test]
    fn patched_cpe_rejects_unused_prefix() {
        let (mut e, ..) = three_node_topology(true);
        let replies = handle(
            &mut e,
            Ipv6Packet::echo_request(addr("fd::1"), addr("2001:db8:4321:8769::1"), 64, 0, 0),
        );
        assert_eq!(replies.len(), 1);
        assert!(matches!(
            replies[0].payload,
            Payload::Icmp(Icmpv6::DestUnreachable {
                code: UnreachCode::RejectRoute,
                ..
            })
        ));
    }

    #[test]
    fn vulnerable_cpe_loops_until_hop_limit() {
        let (mut e, _v, isp, cpe) = three_node_topology(false);
        e.reset_counters();
        let replies = handle(
            &mut e,
            Ipv6Packet::echo_request(addr("fd::1"), addr("2001:db8:4321:8769::1"), 255, 0, 0),
        );
        // The packet ping-pongs on the isp<->cpe link until hop limit death.
        let fwd = e.link_forwards(isp, cpe) + e.link_forwards(cpe, isp);
        assert!(fwd > 200, "loop traversals {fwd} should exceed 200");
        // A time-exceeded error eventually reaches the scanner.
        assert_eq!(replies.len(), 1);
        assert!(matches!(
            replies[0].payload,
            Payload::Icmp(Icmpv6::TimeExceeded { .. })
        ));
    }

    #[test]
    fn loop_amplification_is_roughly_hoplimit_minus_path() {
        let (mut e, _v, isp, cpe) = three_node_topology(false);
        e.reset_counters();
        handle(
            &mut e,
            Ipv6Packet::echo_request(addr("fd::1"), addr("2001:db8:4321:8769::1"), 255, 0, 0),
        );
        let loop_fwd = e.link_forwards(isp, cpe) + e.link_forwards(cpe, isp);
        // 254 forwards happen in total (hop limit 255 → 1); the first is
        // vantage→isp, the remaining 253 bounce on the isp↔cpe link. The
        // amplification factor of Section VI-A is ≈ 255 − n for path
        // length n.
        assert_eq!(loop_fwd, 253);
    }

    #[test]
    fn no_route_yields_noroute_unreachable() {
        let mut e = Engine::new();
        let v = e.add_node("v", vec![addr("fd::1")]);
        let r = e.add_node("r", vec![addr("2001:db8::1")]);
        e.set_vantage(v);
        e.add_route(v, prefix("::/0"), RouteAction::Forward(r));
        e.add_route(r, prefix("fd::/16"), RouteAction::Forward(v));
        let replies = handle(
            &mut e,
            Ipv6Packet::echo_request(addr("fd::1"), addr("2001:db9::1"), 64, 0, 0),
        );
        assert_eq!(replies.len(), 1);
        assert!(matches!(
            replies[0].payload,
            Payload::Icmp(Icmpv6::DestUnreachable {
                code: UnreachCode::NoRoute,
                ..
            })
        ));
    }

    #[test]
    fn blackhole_is_silent() {
        let (mut e, ..) = three_node_topology(true);
        // Destination outside every specific route hits the ISP blackhole.
        let replies = handle(
            &mut e,
            Ipv6Packet::echo_request(addr("fd::1"), addr("2001:dead::1"), 64, 0, 0),
        );
        assert!(replies.is_empty());
    }

    #[test]
    fn longest_prefix_match_wins() {
        let (mut e, _v, _isp, cpe) = three_node_topology(false);
        // Add a more specific reject inside the delegated prefix; it must
        // shadow the default route for its own addresses only.
        e.add_route(cpe, prefix("2001:db8:4321:8768::/64"), RouteAction::Reject);
        let replies = handle(
            &mut e,
            Ipv6Packet::echo_request(addr("fd::1"), addr("2001:db8:4321:8768::1"), 255, 0, 0),
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
    fn udp_to_router_yields_port_unreachable() {
        let (mut e, ..) = three_node_topology(true);
        let replies = handle(
            &mut e,
            Ipv6Packet::udp_request(
                addr("fd::1"),
                addr("2001:db8:1234:5678::aa"),
                40000,
                53,
                crate::services::AppRequest::DnsQuery,
            ),
        );
        assert_eq!(replies.len(), 1);
        assert!(matches!(
            replies[0].payload,
            Payload::Icmp(Icmpv6::DestUnreachable {
                code: UnreachCode::PortUnreachable,
                ..
            })
        ));
    }

    #[test]
    fn routing_table_renders_figure4_style() {
        let (e, _v, isp, cpe) = three_node_topology(true);
        let table = e.routing_table(cpe);
        assert!(table.contains("on-link"), "{table}");
        assert!(table.contains("unreachable"), "{table}");
        assert!(table.contains("::/0"), "{table}");
        // Most specific routes print first.
        let onlink_pos = table.find("2001:db8:4321:8765::/64").unwrap();
        let default_pos = table.find("::/0").unwrap();
        assert!(onlink_pos < default_pos, "{table}");
        let isp_table = e.routing_table(isp);
        assert!(isp_table.contains("via"), "{isp_table}");
    }

    /// Echoes to 200 absent hosts of the CPE's on-link /64. Each crosses
    /// vantage → isp → cpe and draws an address unreachable that goes
    /// straight back to the vantage, so a probe is either answered or
    /// dropped on exactly one link. Returns which probes were answered.
    fn answered_lan_probes(e: &mut Engine) -> Vec<bool> {
        let lan = addr("2001:db8:4321:8765::");
        (0..200u16)
            .map(|k| {
                let dst = lan.with_iid(0x1000 + u64::from(k));
                let probe = Ipv6Packet::echo_request(addr("fd::1"), dst, DEFAULT_HOP_LIMIT, 0, k);
                !handle(e, probe).is_empty()
            })
            .collect()
    }

    #[test]
    fn fault_plan_drops_link_traversals_per_tick_and_counts_them() {
        let plan = FaultPlan::none().seeded(3).with_forward_loss(0.5);
        let telemetry = xmap_telemetry::Telemetry::new();
        let (mut e, ..) = three_node_topology(false);
        e.set_telemetry(&telemetry);
        e.set_fault_plan(plan);

        let tick0 = answered_lan_probes(&mut e);
        let dropped = tick0.iter().filter(|answered| !**answered).count() as u64;
        assert!(dropped > 0 && dropped < 200, "{dropped} of 200 dropped");
        assert_eq!(e.link_drops(), dropped);
        let published = |t: &xmap_telemetry::Telemetry| {
            t.registry
                .snapshot()
                .counter(crate::telemetry::names::ENGINE_LINK_DROPS)
        };
        assert_eq!(published(&telemetry), dropped);

        // Within a tick the draws repeat; the next tick redraws them.
        assert_eq!(answered_lan_probes(&mut e), tick0);
        assert_eq!(e.link_drops(), 2 * dropped);
        tick(&mut e, 1);
        let tick1 = answered_lan_probes(&mut e);
        assert_ne!(tick1, tick0);
        let total = e.link_drops();
        assert_eq!(
            total,
            2 * dropped + tick1.iter().filter(|a| !**a).count() as u64
        );
        assert_eq!(published(&telemetry), total);

        // The draws depend only on the plan, the packet and the tick.
        let (mut fresh, ..) = three_node_topology(false);
        fresh.set_fault_plan(plan);
        tick(&mut fresh, 1);
        assert_eq!(answered_lan_probes(&mut fresh), tick1);

        // No plan, no drops.
        let (mut clean, ..) = three_node_topology(false);
        assert!(answered_lan_probes(&mut clean).iter().all(|a| *a));
        assert_eq!(clean.link_drops(), 0);

        e.reset_counters();
        assert_eq!(e.link_drops(), 0);
    }

    #[test]
    fn counters_reset() {
        let (mut e, _v, isp, cpe) = three_node_topology(false);
        handle(
            &mut e,
            Ipv6Packet::echo_request(addr("fd::1"), addr("2001:db8:4321:8769::1"), 255, 0, 0),
        );
        assert!(e.total_forwards() > 0);
        e.reset_counters();
        assert_eq!(e.total_forwards(), 0);
        assert_eq!(e.link_forwards(isp, cpe), 0);
    }
}

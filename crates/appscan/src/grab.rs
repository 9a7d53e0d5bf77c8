//! Per-service banner grabbing (the ZGrab2 role).
//!
//! For a UDP service the grabber sends the application-specific request of
//! Table VI and waits for a valid response. For a TCP service it first
//! checks port openness with a SYN (as the paper does), then performs the
//! application exchange on the open port.

use xmap::Scanner;
use xmap_addr::Ip6;
use xmap_netsim::packet::{AppData, Ipv6Packet, Network, Payload, TcpFlags};
use xmap_netsim::services::{AppResponse, ServiceKind, TransportProto};

/// Outcome of grabbing one service on one target.
#[derive(Debug, Clone, PartialEq)]
pub enum GrabOutcome {
    /// The service answered with a valid application response.
    Open(AppResponse),
    /// The port is closed (RST / port unreachable).
    Closed,
    /// No answer (filtered or dead).
    Silent,
    /// The port answered but the application response was invalid for the
    /// service (e.g. a mismatched protocol) — counted as not alive.
    Protocol,
}

impl GrabOutcome {
    /// Whether the service is alive per Table VI's valid-response rule.
    pub fn is_alive(&self) -> bool {
        matches!(self, GrabOutcome::Open(_))
    }

    /// The response, when alive.
    pub fn response(&self) -> Option<&AppResponse> {
        match self {
            GrabOutcome::Open(r) => Some(r),
            _ => None,
        }
    }
}

/// Per-protocol metric name for one grab counter, e.g.
/// `appscan.grabs.dns` or `appscan.open.http-8080`.
pub fn metric_name(prefix: &str, kind: ServiceKind) -> String {
    format!(
        "appscan.{prefix}.{}",
        kind.short_name().to_ascii_lowercase()
    )
}

/// Grabs one service from one target address.
///
/// When the scanner carries a live telemetry bundle, every attempt bumps
/// the per-protocol `appscan.grabs.<svc>` counter and every valid
/// response bumps `appscan.open.<svc>`.
pub fn grab<N: Network>(scanner: &mut Scanner<N>, addr: Ip6, kind: ServiceKind) -> GrabOutcome {
    let mut scratch = Vec::new();
    grab_with(scanner, addr, kind, &mut scratch)
}

/// [`grab`] with an external response buffer, for drivers grabbing many
/// (target, service) pairs: the buffer's capacity is reused across
/// calls, so the steady-state grab loop does not allocate.
pub fn grab_with<N: Network>(
    scanner: &mut Scanner<N>,
    addr: Ip6,
    kind: ServiceKind,
    scratch: &mut Vec<Ipv6Packet>,
) -> GrabOutcome {
    let out = match kind.transport() {
        TransportProto::Udp => grab_udp(scanner, addr, kind, scratch),
        TransportProto::Tcp => grab_tcp(scanner, addr, kind, scratch),
    };
    let registry = &scanner.telemetry().registry;
    if registry.is_enabled() {
        registry.counter(&metric_name("grabs", kind)).inc();
        if out.is_alive() {
            registry.counter(&metric_name("open", kind)).inc();
        }
    }
    out
}

fn grab_udp<N: Network>(
    scanner: &mut Scanner<N>,
    addr: Ip6,
    kind: ServiceKind,
    scratch: &mut Vec<Ipv6Packet>,
) -> GrabOutcome {
    let src = scanner.config().source;
    let sport = scanner.validator().source_port(addr);
    let probe = Ipv6Packet::udp_request(src, addr, sport, kind.port(), kind.request());
    scratch.clear();
    scanner.network_mut().handle_into(probe, scratch);
    classify_app_responses(scratch, sport, kind)
}

fn grab_tcp<N: Network>(
    scanner: &mut Scanner<N>,
    addr: Ip6,
    kind: ServiceKind,
    scratch: &mut Vec<Ipv6Packet>,
) -> GrabOutcome {
    let src = scanner.config().source;
    let sport = scanner.validator().source_port(addr);
    // Step 1: SYN to check openness.
    let syn = Ipv6Packet::tcp_syn(src, addr, sport, kind.port());
    let mut open = false;
    scratch.clear();
    scanner.network_mut().handle_into(syn, scratch);
    for resp in scratch.iter() {
        match &resp.payload {
            Payload::Tcp {
                flags: TcpFlags::SynAck,
                dst_port,
                ..
            } if *dst_port == sport => {
                open = true;
            }
            Payload::Tcp {
                flags: TcpFlags::Rst,
                dst_port,
                ..
            } if *dst_port == sport => {
                return GrabOutcome::Closed;
            }
            Payload::Icmp(_) => return GrabOutcome::Closed,
            _ => {}
        }
    }
    if !open {
        return GrabOutcome::Silent;
    }
    // Step 2: application exchange.
    let req = Ipv6Packet::tcp_request(src, addr, sport, kind.port(), kind.request());
    scratch.clear();
    scanner.network_mut().handle_into(req, scratch);
    classify_app_responses(scratch, sport, kind)
}

fn classify_app_responses(
    responses: &mut Vec<Ipv6Packet>,
    sport: u16,
    kind: ServiceKind,
) -> GrabOutcome {
    for resp in responses.drain(..) {
        match resp.payload {
            Payload::Udp {
                dst_port,
                data: AppData::Response(r),
                ..
            }
            | Payload::Tcp {
                dst_port,
                data: AppData::Response(r),
                ..
            } if dst_port == sport => {
                return if r.is_valid_for(kind) {
                    GrabOutcome::Open(r)
                } else {
                    GrabOutcome::Protocol
                };
            }
            Payload::Tcp {
                flags: TcpFlags::Rst,
                dst_port,
                ..
            } if dst_port == sport => {
                return GrabOutcome::Closed;
            }
            Payload::Icmp(_) => return GrabOutcome::Closed,
            _ => {}
        }
    }
    GrabOutcome::Silent
}

#[cfg(test)]
mod tests {
    use super::*;
    use xmap::{IcmpEchoProbe, ProbeResult, ScanConfig};
    use xmap_netsim::isp::SAMPLE_BLOCKS;
    use xmap_netsim::world::{World, WorldConfig};

    /// Discovers one periphery with at least one open service and returns
    /// (scanner, address, expected services).
    fn discover_service_device() -> (Scanner<World>, Ip6, xmap_netsim::device::ServiceSet) {
        let world = World::with_config(WorldConfig::lossless(77, 10));
        let mut scanner = Scanner::new(
            world,
            ScanConfig {
                seed: 13,
                ..Default::default()
            },
        );
        // China Mobile broadband (index 12) is service-rich.
        let p = &SAMPLE_BLOCKS[12];
        for i in 0..3_000_000u64 {
            let Some(d) = scanner.network_mut().device_at(12, i) else {
                continue;
            };
            if !d.services.any() {
                continue;
            }
            let target = p.scan_prefix().subprefix(p.assigned_len, i as u128);
            let dst = xmap::fill_host_bits(target, 13);
            let mut hits = Vec::new();
            scanner.targeted().probe(dst, &IcmpEchoProbe, 64, &mut hits);
            let Some((addr, _)) = hits.iter().find(|(_, r)| {
                matches!(
                    r,
                    ProbeResult::Unreachable { .. } | ProbeResult::TimeExceeded
                )
            }) else {
                continue;
            };
            return (scanner, *addr, d.services);
        }
        panic!("no service device found");
    }

    #[test]
    fn open_services_grab_valid_responses() {
        let (mut scanner, addr, services) = discover_service_device();
        for (kind, _) in services.iter() {
            let out = grab(&mut scanner, addr, kind);
            assert!(out.is_alive(), "{kind} should be alive, got {out:?}");
            assert!(out.response().unwrap().is_valid_for(kind));
        }
    }

    #[test]
    fn grab_counters_track_each_protocol() {
        let (mut scanner, addr, _) = discover_service_device();
        let base = scanner.telemetry().registry.snapshot();
        for kind in ServiceKind::ALL {
            let out = grab(&mut scanner, addr, kind);
            let snap = scanner.telemetry().registry.snapshot();
            let grabs = metric_name("grabs", kind);
            let open = metric_name("open", kind);
            assert_eq!(snap.counter(&grabs) - base.counter(&grabs), 1, "{kind}");
            assert_eq!(
                snap.counter(&open) - base.counter(&open),
                u64::from(out.is_alive()),
                "{kind}"
            );
        }
    }

    #[test]
    fn closed_services_report_closed() {
        let (mut scanner, addr, services) = discover_service_device();
        for kind in ServiceKind::ALL {
            if services.has(kind) {
                continue;
            }
            let out = grab(&mut scanner, addr, kind);
            assert!(
                matches!(out, GrabOutcome::Closed | GrabOutcome::Silent),
                "{kind}: {out:?}"
            );
        }
    }

    #[test]
    fn undiscovered_address_is_silent() {
        let world = World::with_config(WorldConfig::lossless(77, 10));
        let mut scanner = Scanner::new(world, ScanConfig::default());
        let out = grab(
            &mut scanner,
            "2405:200::1".parse().unwrap(),
            ServiceKind::Dns,
        );
        assert_eq!(out, GrabOutcome::Silent);
    }
}

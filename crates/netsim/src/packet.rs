//! The packet model and the network abstraction.
//!
//! Only the fields the measurement methodology observes are modelled: IPv6
//! source/destination and hop limit, ICMPv6 message types from RFC 4443
//! (echo, destination unreachable, time exceeded) including the *invoking
//! packet quote* that real ICMPv6 errors carry (and which stateless scanners
//! use to validate responses), and UDP/TCP carrying application-layer
//! requests and responses for the service scans.

use xmap_addr::Ip6;

use crate::services::{AppRequest, AppResponse};

/// Default hop limit used by originating hosts (typical OS default).
pub const DEFAULT_HOP_LIMIT: u8 = 64;

/// Maximum hop limit value (used by the routing-loop attack packets).
pub const MAX_HOP_LIMIT: u8 = 255;

/// A simulated IPv6 packet.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Ipv6Packet {
    /// Source address.
    pub src: Ip6,
    /// Destination address.
    pub dst: Ip6,
    /// Remaining hop limit.
    pub hop_limit: u8,
    /// Transport payload.
    pub payload: Payload,
}

impl Ipv6Packet {
    /// Builds an ICMPv6 echo request — the periphery-discovery probe.
    pub fn echo_request(src: Ip6, dst: Ip6, hop_limit: u8, ident: u16, seq: u16) -> Self {
        Ipv6Packet {
            src,
            dst,
            hop_limit,
            payload: Payload::Icmp(Icmpv6::EchoRequest { ident, seq }),
        }
    }

    /// Builds a UDP packet carrying an application request.
    pub fn udp_request(src: Ip6, dst: Ip6, src_port: u16, dst_port: u16, req: AppRequest) -> Self {
        Ipv6Packet {
            src,
            dst,
            hop_limit: DEFAULT_HOP_LIMIT,
            payload: Payload::Udp {
                src_port,
                dst_port,
                data: AppData::Request(req),
            },
        }
    }

    /// Builds a TCP SYN to test port openness.
    pub fn tcp_syn(src: Ip6, dst: Ip6, src_port: u16, dst_port: u16) -> Self {
        Ipv6Packet {
            src,
            dst,
            hop_limit: DEFAULT_HOP_LIMIT,
            payload: Payload::Tcp {
                src_port,
                dst_port,
                flags: TcpFlags::Syn,
                data: AppData::None,
            },
        }
    }

    /// Builds a TCP data segment carrying an application request (assumes the
    /// handshake already succeeded).
    pub fn tcp_request(src: Ip6, dst: Ip6, src_port: u16, dst_port: u16, req: AppRequest) -> Self {
        Ipv6Packet {
            src,
            dst,
            hop_limit: DEFAULT_HOP_LIMIT,
            payload: Payload::Tcp {
                src_port,
                dst_port,
                flags: TcpFlags::Ack,
                data: AppData::Request(req),
            },
        }
    }

    /// The quote an ICMPv6 error about this packet would carry.
    pub fn quote(&self) -> Invoking {
        let proto = match &self.payload {
            Payload::Icmp(Icmpv6::EchoRequest { ident, seq })
            | Payload::Icmp(Icmpv6::EchoReply { ident, seq }) => QuotedProto::Icmp {
                ident: *ident,
                seq: *seq,
            },
            Payload::Icmp(_) => QuotedProto::OtherIcmp,
            Payload::Udp {
                src_port, dst_port, ..
            } => QuotedProto::Udp {
                src_port: *src_port,
                dst_port: *dst_port,
            },
            Payload::Tcp {
                src_port, dst_port, ..
            } => QuotedProto::Tcp {
                src_port: *src_port,
                dst_port: *dst_port,
            },
        };
        Invoking {
            src: self.src,
            dst: self.dst,
            proto,
        }
    }
}

/// Transport-layer payload of a packet.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Payload {
    /// ICMPv6 message.
    Icmp(Icmpv6),
    /// UDP datagram.
    Udp {
        /// Source port.
        src_port: u16,
        /// Destination port.
        dst_port: u16,
        /// Application payload.
        data: AppData,
    },
    /// (Abstracted) TCP segment: flags plus optional application payload.
    Tcp {
        /// Source port.
        src_port: u16,
        /// Destination port.
        dst_port: u16,
        /// Segment flags.
        flags: TcpFlags,
        /// Application payload.
        data: AppData,
    },
}

/// Abstracted TCP segment kinds (sequence numbers are not modelled).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TcpFlags {
    /// Connection request.
    Syn,
    /// Connection accept.
    SynAck,
    /// Connection refused.
    Rst,
    /// Established-connection data segment.
    Ack,
    /// Connection teardown.
    Fin,
}

/// Application data carried by UDP/TCP.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AppData {
    /// No payload (bare SYN/RST...).
    None,
    /// A client request.
    Request(AppRequest),
    /// A server response.
    Response(AppResponse),
}

/// ICMPv6 messages (RFC 4443 subset used by the methodology).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Icmpv6 {
    /// Type 128.
    EchoRequest {
        /// Echo identifier (scanner validation cookie, high half).
        ident: u16,
        /// Echo sequence (scanner validation cookie, low half).
        seq: u16,
    },
    /// Type 129.
    EchoReply {
        /// Identifier copied from the request.
        ident: u16,
        /// Sequence copied from the request.
        seq: u16,
    },
    /// Type 1 — the message the periphery-discovery technique relies on.
    DestUnreachable {
        /// Unreachable code.
        code: UnreachCode,
        /// Quote of the invoking packet.
        invoking: Invoking,
    },
    /// Type 3 code 0 (hop limit exceeded in transit) — the message the
    /// routing-loop measurement relies on.
    TimeExceeded {
        /// Quote of the invoking packet.
        invoking: Invoking,
    },
}

/// ICMPv6 destination-unreachable codes (RFC 4443 §3.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UnreachCode {
    /// Code 0: no route to destination.
    NoRoute,
    /// Code 1: communication administratively prohibited (filtering).
    AdminProhibited,
    /// Code 3: address unreachable — what a last-hop router answers for a
    /// nonexistent IID inside an on-link /64.
    AddressUnreachable,
    /// Code 4: port unreachable.
    PortUnreachable,
    /// Code 5: source address failed ingress/egress policy.
    SourcePolicy,
    /// Code 6: reject route to destination — what a *patched* CE router
    /// answers for the unused part of its delegated prefix (RFC 7084 L-14).
    RejectRoute,
}

/// The portion of the invoking packet quoted inside an ICMPv6 error.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Invoking {
    /// Original source (the scanner's address).
    pub src: Ip6,
    /// Original destination (the probed address).
    pub dst: Ip6,
    /// Original transport header fields.
    pub proto: QuotedProto,
}

/// Transport header fields quoted in an ICMPv6 error.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QuotedProto {
    /// Invoking packet was an ICMPv6 echo.
    Icmp {
        /// Echo identifier.
        ident: u16,
        /// Echo sequence.
        seq: u16,
    },
    /// Invoking packet was UDP.
    Udp {
        /// Source port.
        src_port: u16,
        /// Destination port.
        dst_port: u16,
    },
    /// Invoking packet was TCP.
    Tcp {
        /// Source port.
        src_port: u16,
        /// Destination port.
        dst_port: u16,
    },
    /// Some other ICMPv6 message.
    OtherIcmp,
}

/// A network the scanner can inject packets into.
///
/// `handle` delivers one packet and returns every packet that comes back to
/// the sender (possibly none: filtered, lost, or genuinely unanswered).
/// Implementations must be deterministic for reproducible experiments.
///
/// Implemented by [`crate::World`] (procedural Internet) and
/// [`crate::Engine`] (explicit topology).
pub trait Network {
    /// Injects `packet` and returns the response packets observed by the
    /// sender, in arrival order.
    fn handle(&mut self, packet: Ipv6Packet) -> Vec<Ipv6Packet>;

    /// Like [`handle`](Network::handle), but appends the responses to
    /// `out` instead of returning a fresh `Vec` — the zero-allocation
    /// entry point for hot loops that reuse one receive buffer across
    /// millions of probes. Must observe the same packets in the same
    /// order as `handle`. The default bridges through `handle`;
    /// implementations with a real per-probe cost override it natively.
    fn handle_into(&mut self, packet: Ipv6Packet, out: &mut Vec<Ipv6Packet>) {
        out.extend(self.handle(packet));
    }

    /// Advances the network's virtual clock by `ticks` and returns any
    /// responses that were in flight (delayed by jitter) and are now due,
    /// in delivery order.
    ///
    /// The scanner advances the clock one tick per probe sent, making a
    /// tick the simulator's send-slot time unit: ICMPv6 token buckets
    /// refill, flaky devices reboot, and jittered responses surface on
    /// this clock. Networks without time-dependent behaviour keep the
    /// default no-op.
    fn tick(&mut self, ticks: u64) -> Vec<Ipv6Packet> {
        let _ = ticks;
        Vec::new()
    }

    /// Buffer-reusing variant of [`tick`](Network::tick): appends the due
    /// responses to `out`. Same contract as
    /// [`handle_into`](Network::handle_into).
    fn tick_into(&mut self, ticks: u64, out: &mut Vec<Ipv6Packet>) {
        out.extend(self.tick(ticks));
    }

    /// Publishes any internally batched telemetry into the attached
    /// registry. Networks that mirror their statistics into a telemetry
    /// bundle may coalesce updates on the per-packet path; the scanner
    /// calls this at observation boundaries (end of a run, targeted
    /// probes) so exported snapshots are exact. No-op by default.
    fn flush_telemetry(&mut self) {}

    /// Number of responses currently held in flight (delayed by jitter
    /// and not yet due). The scanner drains the network by ticking until
    /// this reaches zero, and takes zero as a promise that no probe
    /// handled so far will be answered later (it forgets answered-or-not
    /// state on that basis), so a network that delays replies through
    /// [`tick`](Network::tick) must count them here.
    fn in_flight(&self) -> usize {
        0
    }

    /// Sets the network's virtual clock to an absolute `tick` without
    /// surfacing any in-flight responses or publishing tick telemetry.
    ///
    /// This is the checkpoint-resume path: time-keyed behaviour (loss
    /// draws, token-bucket refills, flaky-device outages) must see the
    /// same clock values a continued run would have seen, so a resumed
    /// scanner realigns the network before replaying. Checkpoints are
    /// only taken with nothing in flight, so there is never delayed state
    /// to reconstruct. Clock-free networks keep the default no-op.
    fn restore_clock(&mut self, tick: u64) {
        let _ = tick;
    }

    /// Returns the network to just-constructed *behaviour*: whatever a
    /// probe's outcome can depend on besides the probe itself — the
    /// virtual clock, in-flight responses, per-device memory such as
    /// rate-limiter state — is forgotten, so the next probe is answered
    /// exactly as a freshly built network would answer it.
    ///
    /// The telemetry binding and lifetime statistics are kept, and
    /// pending telemetry is published first, so deltas taken from the
    /// bound registry stay exact across resets (an armed kill point
    /// keeps counting lifetime probes). This is what lets a driver
    /// reuse one network for many units of work that must each be a
    /// pure function of their inputs. Networks with no per-probe memory
    /// keep the default no-op.
    fn reset(&mut self) {}
}

impl<N: Network + ?Sized> Network for &mut N {
    fn handle(&mut self, packet: Ipv6Packet) -> Vec<Ipv6Packet> {
        (**self).handle(packet)
    }

    fn handle_into(&mut self, packet: Ipv6Packet, out: &mut Vec<Ipv6Packet>) {
        (**self).handle_into(packet, out)
    }

    fn tick(&mut self, ticks: u64) -> Vec<Ipv6Packet> {
        (**self).tick(ticks)
    }

    fn tick_into(&mut self, ticks: u64, out: &mut Vec<Ipv6Packet>) {
        (**self).tick_into(ticks, out)
    }

    fn flush_telemetry(&mut self) {
        (**self).flush_telemetry()
    }

    fn in_flight(&self) -> usize {
        (**self).in_flight()
    }

    fn restore_clock(&mut self, tick: u64) {
        (**self).restore_clock(tick)
    }

    fn reset(&mut self) {
        (**self).reset()
    }
}

/// A freelist of [`Ipv6Packet`] buffers.
///
/// Response assembly needs a staging `Vec` per exchange (responses are
/// drawn, fault-filtered, then delivered); allocating one per probe
/// dominated the scan hot path. An arena parks cleared buffers — capacity
/// intact — between exchanges, so steady-state probing performs no heap
/// allocation at all: [`get`](PacketArena::get) pops a parked buffer and
/// [`put`](PacketArena::put) returns it.
#[derive(Debug, Default)]
pub struct PacketArena {
    free: Vec<Vec<Ipv6Packet>>,
}

impl PacketArena {
    /// An empty arena (the first `get` allocates, later ones recycle).
    pub fn new() -> Self {
        PacketArena::default()
    }

    /// Pops a cleared buffer off the freelist, allocating only when the
    /// freelist is empty.
    pub fn get(&mut self) -> Vec<Ipv6Packet> {
        self.free.pop().unwrap_or_default()
    }

    /// Parks `buf` for reuse: cleared, capacity retained.
    pub fn put(&mut self, mut buf: Vec<Ipv6Packet>) {
        buf.clear();
        self.free.push(buf);
    }

    /// Buffers currently parked.
    pub fn parked(&self) -> usize {
        self.free.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn addr(s: &str) -> Ip6 {
        s.parse().unwrap()
    }

    #[test]
    fn arena_recycles_capacity() {
        let mut arena = PacketArena::new();
        let mut buf = arena.get();
        for _ in 0..32 {
            buf.push(Ipv6Packet::echo_request(
                Ip6::UNSPECIFIED,
                Ip6::UNSPECIFIED,
                64,
                0,
                0,
            ));
        }
        let cap = buf.capacity();
        arena.put(buf);
        assert_eq!(arena.parked(), 1);
        let reused = arena.get();
        assert!(reused.is_empty());
        assert_eq!(reused.capacity(), cap, "capacity survives the freelist");
        assert_eq!(arena.parked(), 0);
    }

    #[test]
    fn handle_into_default_matches_handle() {
        struct Echoer;
        impl Network for Echoer {
            fn handle(&mut self, p: Ipv6Packet) -> Vec<Ipv6Packet> {
                vec![p]
            }
        }
        let probe = Ipv6Packet::echo_request(addr("fd::1"), addr("2001:db8::1"), 64, 7, 9);
        let direct = Echoer.handle(probe.clone());
        let mut buffered = Vec::new();
        Echoer.handle_into(probe, &mut buffered);
        Echoer.tick_into(3, &mut buffered);
        assert_eq!(direct, buffered);
    }

    #[test]
    fn echo_request_builder() {
        let p = Ipv6Packet::echo_request(addr("fd::1"), addr("2001:db8::1"), 64, 7, 9);
        assert_eq!(p.hop_limit, 64);
        match p.payload {
            Payload::Icmp(Icmpv6::EchoRequest { ident: 7, seq: 9 }) => {}
            other => panic!("unexpected payload {other:?}"),
        }
    }

    #[test]
    fn quote_captures_transport_fields() {
        let p = Ipv6Packet::echo_request(addr("fd::1"), addr("2001:db8::1"), 64, 7, 9);
        let q = p.quote();
        assert_eq!(q.src, addr("fd::1"));
        assert_eq!(q.dst, addr("2001:db8::1"));
        assert_eq!(q.proto, QuotedProto::Icmp { ident: 7, seq: 9 });

        let u = Ipv6Packet::udp_request(
            addr("fd::1"),
            addr("2001:db8::1"),
            4321,
            53,
            AppRequest::DnsQuery,
        );
        assert_eq!(
            u.quote().proto,
            QuotedProto::Udp {
                src_port: 4321,
                dst_port: 53
            }
        );

        let t = Ipv6Packet::tcp_syn(addr("fd::1"), addr("2001:db8::1"), 4321, 80);
        assert_eq!(
            t.quote().proto,
            QuotedProto::Tcp {
                src_port: 4321,
                dst_port: 80
            }
        );
    }

    #[test]
    fn network_impl_for_mut_ref() {
        struct Echoer;
        impl Network for Echoer {
            fn handle(&mut self, p: Ipv6Packet) -> Vec<Ipv6Packet> {
                vec![p]
            }
        }
        fn run(mut n: impl Network) -> usize {
            n.handle(Ipv6Packet::echo_request(
                Ip6::UNSPECIFIED,
                Ip6::UNSPECIFIED,
                1,
                0,
                0,
            ))
            .len()
        }
        let mut e = Echoer;
        assert_eq!(run(&mut e), 1);
        assert_eq!(run(e), 1);
    }
}

//! Packet-trace wrapper — tcpdump for the simulated Internet.
//!
//! [`TracingNetwork`] wraps any [`Network`] and records every injected
//! packet together with its responses in a bounded ring buffer, so tests,
//! examples and debugging sessions can inspect exactly what went over the
//! (virtual) wire without changing the code under test.

use std::collections::VecDeque;

use crate::packet::{Icmpv6, Ipv6Packet, Network, Payload};

/// One recorded exchange: a probe and everything it drew back.
#[derive(Debug, Clone, PartialEq)]
pub struct Exchange {
    /// Sequence number (monotonic per wrapper).
    pub seq: u64,
    /// The injected packet.
    pub probe: Ipv6Packet,
    /// The responses, in arrival order.
    pub responses: Vec<Ipv6Packet>,
}

impl Exchange {
    /// Whether any response is an ICMPv6 error.
    pub fn drew_error(&self) -> bool {
        self.responses.iter().any(|r| {
            matches!(
                r.payload,
                Payload::Icmp(Icmpv6::DestUnreachable { .. })
                    | Payload::Icmp(Icmpv6::TimeExceeded { .. })
            )
        })
    }

    /// Whether the exchange went unanswered.
    pub fn silent(&self) -> bool {
        self.responses.is_empty()
    }
}

/// A [`Network`] wrapper that records the last `capacity` exchanges.
///
/// # Examples
///
/// ```
/// use xmap_netsim::trace::TracingNetwork;
/// use xmap_netsim::{Ipv6Packet, Network, World};
///
/// let mut net = TracingNetwork::new(World::new(7), 128);
/// net.handle(Ipv6Packet::echo_request(
///     "fd00::1".parse()?, "2405:200::1".parse()?, 64, 0, 0));
/// assert_eq!(net.exchanges().count(), 1);
/// # Ok::<(), xmap_addr::ParseAddrError>(())
/// ```
#[derive(Debug)]
pub struct TracingNetwork<N> {
    inner: N,
    buffer: VecDeque<Exchange>,
    capacity: usize,
    next_seq: u64,
}

impl<N: Network> TracingNetwork<N> {
    /// Wraps `inner`, keeping at most `capacity` exchanges.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(inner: N, capacity: usize) -> Self {
        assert!(capacity > 0, "trace capacity must be nonzero");
        TracingNetwork {
            inner,
            buffer: VecDeque::with_capacity(capacity),
            capacity,
            next_seq: 0,
        }
    }

    /// The wrapped network.
    pub fn inner(&self) -> &N {
        &self.inner
    }

    /// Mutable access to the wrapped network.
    pub fn inner_mut(&mut self) -> &mut N {
        &mut self.inner
    }

    /// Unwraps, discarding the trace.
    pub fn into_inner(self) -> N {
        self.inner
    }

    /// Recorded exchanges, oldest first.
    pub fn exchanges(&self) -> impl Iterator<Item = &Exchange> {
        self.buffer.iter()
    }

    /// Total packets injected since construction (not bounded by capacity).
    pub fn injected(&self) -> u64 {
        self.next_seq
    }

    /// Clears the ring buffer (sequence numbers keep counting).
    pub fn clear(&mut self) {
        self.buffer.clear();
    }

    /// Renders the trace in a compact, tcpdump-like text form.
    pub fn dump(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        for ex in &self.buffer {
            let _ = writeln!(
                out,
                "#{} {} > {} hl={} {}",
                ex.seq,
                ex.probe.src,
                ex.probe.dst,
                ex.probe.hop_limit,
                payload_tag(&ex.probe.payload)
            );
            for r in &ex.responses {
                let _ = writeln!(out, "    < {} {}", r.src, payload_tag(&r.payload));
            }
            if ex.responses.is_empty() {
                let _ = writeln!(out, "    < (silence)");
            }
        }
        out
    }
}

fn payload_tag(p: &Payload) -> &'static str {
    match p {
        Payload::Icmp(Icmpv6::EchoRequest { .. }) => "icmp6 echo request",
        Payload::Icmp(Icmpv6::EchoReply { .. }) => "icmp6 echo reply",
        Payload::Icmp(Icmpv6::DestUnreachable { .. }) => "icmp6 unreachable",
        Payload::Icmp(Icmpv6::TimeExceeded { .. }) => "icmp6 time exceeded",
        Payload::Udp { .. } => "udp",
        Payload::Tcp { .. } => "tcp",
    }
}

impl<N: Network> Network for TracingNetwork<N> {
    fn handle(&mut self, packet: Ipv6Packet) -> Vec<Ipv6Packet> {
        let responses = self.inner.handle(packet.clone());
        if self.buffer.len() == self.capacity {
            self.buffer.pop_front();
        }
        self.buffer.push_back(Exchange {
            seq: self.next_seq,
            probe: packet,
            responses: responses.clone(),
        });
        self.next_seq += 1;
        responses
    }

    fn reset(&mut self) {
        // The ring buffer is a diagnostic log, not behaviour: it stays.
        self.inner.reset();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::world::{World, WorldConfig};
    use xmap_addr::Ip6;

    fn probe(dst: &str, hl: u8) -> Ipv6Packet {
        Ipv6Packet::echo_request("fd00::1".parse().unwrap(), dst.parse().unwrap(), hl, 0, 0)
    }

    fn traced() -> TracingNetwork<World> {
        let world = World::with_config(WorldConfig::lossless(5, 5));
        TracingNetwork::new(world, 4)
    }

    #[test]
    fn records_probes_and_responses() {
        let mut net = traced();
        net.handle(probe("2405:200::1", 64));
        assert_eq!(net.exchanges().count(), 1);
        assert_eq!(net.injected(), 1);
        let ex = net.exchanges().next().unwrap();
        assert_eq!(ex.seq, 0);
        assert_eq!(ex.probe.dst, "2405:200::1".parse::<Ip6>().unwrap());
    }

    #[test]
    fn ring_buffer_evicts_oldest() {
        let mut net = traced();
        for i in 0..10u64 {
            net.handle(probe(&format!("2405:200::{}", i + 1), 64));
        }
        assert_eq!(net.exchanges().count(), 4);
        assert_eq!(net.injected(), 10);
        let seqs: Vec<u64> = net.exchanges().map(|e| e.seq).collect();
        assert_eq!(seqs, vec![6, 7, 8, 9]);
    }

    #[test]
    fn dump_is_readable() {
        let mut net = traced();
        net.handle(probe("2405:200:0:1::1", 64));
        let dump = net.dump();
        assert!(dump.contains("icmp6 echo request"), "{dump}");
        assert!(dump.contains('<'), "{dump}");
    }

    #[test]
    fn exchange_classifiers() {
        let mut net = traced();
        // Unallocated space: silence.
        net.handle(probe("2405:201:ffff::1", 64));
        let ex = net.exchanges().last().unwrap();
        assert!(ex.silent());
        assert!(!ex.drew_error());
        net.clear();
        assert_eq!(net.exchanges().count(), 0);
        assert!(net.injected() > 0);
    }

    #[test]
    fn transparent_to_the_scanner() {
        // The wrapper must not change scan results.
        let mk = || World::with_config(WorldConfig::lossless(5, 5));
        let range: xmap_addr::ScanRange = "2409:8000::/28-60".parse().unwrap();
        let mut direct = mk();
        let mut wrapped = TracingNetwork::new(mk(), 16);
        for i in 0..2000u64 {
            let dst = range.nth(i).unwrap().addr().with_iid(7);
            let a = direct.handle(probe(&dst.to_string(), 64));
            let b = wrapped.handle(probe(&dst.to_string(), 64));
            assert_eq!(a, b, "index {i}");
        }
    }

    #[test]
    #[should_panic(expected = "nonzero")]
    fn zero_capacity_rejected() {
        TracingNetwork::new(World::new(1), 0);
    }
}

//! The [`Transport`] contract and its simulator-backed implementation.
//!
//! The scan loop drives its `Network` directly; this contract is the
//! benchmark ledger's `reactor.transport` subject.

use xmap_netsim::packet::{Ipv6Packet, Network};

use crate::queue::BoundedQueue;

/// Default soft capacity of a transport's receive queue. Sized for the
/// scan loop's envelope (one probe per slot can fan out to a handful of
/// replies) times a generous burst factor; the queue grows past it
/// rather than dropping, see [`BoundedQueue`].
pub const DEFAULT_RECV_CAPACITY: usize = 1024;

/// One received packet, stamped with the virtual tick it arrived at.
///
/// The stamp is what keeps the scan loop's artifacts independent of its
/// polling pattern: RTTs are computed from `tick`, not from whenever
/// the loop got around to polling.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RecvEntry {
    /// Run-local virtual tick of arrival.
    pub tick: u64,
    /// The packet.
    pub packet: Ipv6Packet,
}

/// A decoupled view of a [`Network`]: batched sends, polled receives
/// and a virtual clock.
///
/// ## Contract
///
/// * [`send_batch`](Transport::send_batch) drains the probe buffer onto
///   the wire. Replies it produces are *queued*, stamped with the
///   current clock — never handed back synchronously.
/// * [`poll_recv`](Transport::poll_recv) appends every queued reply to
///   `out` in arrival order and returns the count. Arrival order is the
///   wire order; two polls never reorder.
/// * [`advance`](Transport::advance) moves the clock forward; replies
///   that come due in the advanced window are queued stamped with the
///   new clock.
/// * [`in_flight`](Transport::in_flight) counts replies the transport
///   still owes the engine: committed-but-undelivered wire traffic plus
///   anything queued. Returning 0 is a promise that no reply to any
///   probe sent so far is still to come. The engine builds on it twice:
///   a checkpoint cut is only taken at `in_flight() == 0`, and at such a
///   boundary it forgets every sent probe no retry timer still names. A
///   reply that breaks the promise finds no probe to attribute it to and
///   is tallied `invalid`, like any other unattributable reply.
pub trait Transport {
    /// Sends every probe in `probes` (drained).
    fn send_batch(&mut self, probes: &mut Vec<Ipv6Packet>);

    /// Appends queued arrivals to `out` in arrival order; returns count.
    fn poll_recv(&mut self, out: &mut Vec<RecvEntry>) -> usize;

    /// Advances the virtual clock by `ticks`.
    fn advance(&mut self, ticks: u64);

    /// The current virtual tick.
    fn now(&self) -> u64;

    /// Sets the virtual clock (resume path; run-local ticks).
    fn set_clock(&mut self, tick: u64);

    /// Replies committed but not yet delivered to the engine. Zero
    /// promises that no reply to any probe sent so far is still to come
    /// (see the contract above); overcounting is always safe.
    fn in_flight(&self) -> usize;

    /// Flushes any batched transport-side telemetry.
    fn flush_telemetry(&mut self) {}
}

/// [`Transport`] over any [`Network`]: the simulator backend.
///
/// Wraps the network's synchronous `handle_into`/`tick_into` calls
/// behind the decoupled contract — replies are staged in a
/// [`BoundedQueue`] stamped with the tick they were produced at.
#[derive(Debug)]
pub struct SimTransport<N> {
    net: N,
    clock: u64,
    queue: BoundedQueue<RecvEntry>,
    scratch: Vec<Ipv6Packet>,
}

impl<N: Network> SimTransport<N> {
    /// A transport over `net` with the clock at zero and the default
    /// receive-queue capacity.
    pub fn new(net: N) -> Self {
        SimTransport::with_capacity(net, DEFAULT_RECV_CAPACITY)
    }

    /// A transport with an explicit receive-queue soft capacity.
    pub fn with_capacity(net: N, capacity: usize) -> Self {
        SimTransport {
            net,
            clock: 0,
            queue: BoundedQueue::new(capacity),
            scratch: Vec::new(),
        }
    }

    /// Borrows the wrapped network.
    pub fn network_mut(&mut self) -> &mut N {
        &mut self.net
    }

    /// Consumes the transport, returning the network.
    pub fn into_network(self) -> N {
        self.net
    }

    /// Pushes staged replies from `scratch` into the queue, stamped now.
    fn stage_scratch(&mut self) {
        // Most slots draw no reply; skip the drain set-up for those.
        if self.scratch.is_empty() {
            return;
        }
        for packet in self.scratch.drain(..) {
            self.queue.push(RecvEntry {
                tick: self.clock,
                packet,
            });
        }
    }
}

impl<N: Network> Transport for SimTransport<N> {
    fn send_batch(&mut self, probes: &mut Vec<Ipv6Packet>) {
        for probe in probes.drain(..) {
            debug_assert!(self.scratch.is_empty());
            self.net.handle_into(probe, &mut self.scratch);
            self.stage_scratch();
        }
    }

    fn poll_recv(&mut self, out: &mut Vec<RecvEntry>) -> usize {
        self.queue.drain_into(out)
    }

    fn advance(&mut self, ticks: u64) {
        debug_assert!(self.scratch.is_empty());
        self.net.tick_into(ticks, &mut self.scratch);
        self.clock += ticks;
        self.stage_scratch();
    }

    fn now(&self) -> u64 {
        self.clock
    }

    fn set_clock(&mut self, tick: u64) {
        self.clock = tick;
    }

    fn in_flight(&self) -> usize {
        self.net.in_flight() + self.queue.len()
    }

    fn flush_telemetry(&mut self) {
        self.net.flush_telemetry();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xmap_netsim::World;

    fn echo(dst: u128) -> Ipv6Packet {
        Ipv6Packet::echo_request(
            xmap_addr::Ip6::new(0xfd00 << 112 | 1),
            xmap_addr::Ip6::new(dst),
            64,
            7,
            1,
        )
    }

    #[test]
    fn stamps_immediate_replies_with_send_tick_and_delayed_with_due_tick() {
        let mut t = SimTransport::new(World::new(7));
        t.set_clock(5);
        let mut probes = vec![echo((0x2405_0200u128) << 96 | 0xabcd)];
        t.send_batch(&mut probes);
        assert!(probes.is_empty());
        let mut got = Vec::new();
        t.poll_recv(&mut got);
        for e in &got {
            assert_eq!(e.tick, 5, "immediate replies carry the send tick");
        }
        t.advance(3);
        assert_eq!(t.now(), 8);
        let mut later = Vec::new();
        t.poll_recv(&mut later);
        for e in &later {
            assert_eq!(e.tick, 8, "delayed replies carry the advance tick");
        }
    }

    #[test]
    fn matches_direct_network_replies() {
        let mut direct = World::new(7);
        let probe = echo((0x2405_0200u128) << 96 | 0x1234);
        let mut direct_replies = Vec::new();
        direct.handle_into(probe.clone(), &mut direct_replies);

        let mut t = SimTransport::new(World::new(7));
        let mut probes = vec![probe];
        t.send_batch(&mut probes);
        let mut got = Vec::new();
        t.poll_recv(&mut got);
        let via_transport: Vec<Ipv6Packet> = got.into_iter().map(|e| e.packet).collect();
        assert_eq!(via_transport, direct_replies);
    }
}

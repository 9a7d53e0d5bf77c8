//! Composable, deterministic fault injection for the simulated Internet.
//!
//! The live IPv6 Internet the paper scanned is a hostile channel: probes
//! and responses are lost, CPEs rate-limit ICMPv6 error generation with
//! token buckets (RFC 4443 §2.4(f)), home routers reboot, and responses
//! arrive duplicated, late, and out of order. A [`FaultPlan`] describes
//! all of those behaviours as a pure function of `(plan seed, packet,
//! virtual time)`, so any experiment under faults replays byte-for-byte:
//! two worlds built from the same `WorldConfig` (including its plan) and
//! probed with the same packet sequence produce identical responses,
//! identical statistics, and identical retransmission behaviour in the
//! scanner above.
//!
//! The default world's plan, [`FaultPlan::none`], injects nothing and
//! limits no error: a limiter is a plan a caller asks for.
//!
//! Virtual time is counted in *ticks*. The scanner advances the network
//! one tick per probe it sends ([`crate::packet::Network::tick_into`]), so a
//! tick is "one send slot" — the natural unit for token-bucket refill
//! intervals, reboot windows, and response jitter.

#![deny(missing_docs)]

use xmap_addr::Ip6;

use crate::rng::DetHash;

/// How a device's ICMPv6 error generation is rate-limited (RFC 4443
/// §2.4(f), applied by [`crate::rules::rfc4443::admit_error`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum IcmpRateLimit {
    /// A real token bucket refilled by virtual time: the bucket holds at
    /// most `capacity` tokens and gains one every `refill_interval` ticks.
    /// An error is sent only when a token is available. Devices chosen by
    /// `start_depleted_frac` begin with an empty bucket — these are the
    /// peripheries that appear *silent* to a single-probe scan but answer
    /// a retry after the bucket refills.
    TokenBucket {
        /// Maximum burst of errors (tokens) a device can emit.
        capacity: u32,
        /// Ticks per regained token.
        refill_interval: u64,
        /// Fraction of devices whose bucket starts empty (recently
        /// exhausted by background traffic).
        start_depleted_frac: f64,
    },
    /// No limiting and no per-device state: [`FaultPlan::none`]'s model.
    Unlimited,
}

/// A seeded, deterministic fault schedule for a simulated network.
///
/// All probabilities are per-event Bernoulli draws keyed on the plan seed,
/// the packet addresses, and the current tick, so the same plan applied to
/// the same traffic always faults the same packets.
///
/// # Examples
///
/// ```
/// use xmap_netsim::fault::{FaultPlan, IcmpRateLimit};
///
/// let plan = FaultPlan::none()
///     .with_forward_loss(0.05)
///     .with_jitter(8)
///     .with_icmp_limit(IcmpRateLimit::TokenBucket {
///         capacity: 16,
///         refill_interval: 32,
///         start_depleted_frac: 0.3,
///     });
/// assert!(plan.any_faults());
/// assert!(!FaultPlan::none().any_faults());
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultPlan {
    /// Seed for every fault decision (independent of the world seed so the
    /// same topology can be replayed under different fault draws). Private
    /// so that it cannot drift from `keys`; set it with
    /// [`FaultPlan::seeded`].
    seed: u64,
    /// The seed hashed with each draw's label.
    keys: FaultKeys,
    /// Probability a probe is dropped on its way *to* the destination.
    /// Redrawn per tick, so a retransmission of the same destination can
    /// succeed where the original was lost.
    pub forward_loss: f64,
    /// Probability a response is dropped on its way *back*.
    pub reverse_loss: f64,
    /// Probability a response is duplicated in flight (the duplicate
    /// arrives immediately after the original).
    pub duplicate_frac: f64,
    /// Maximum response delay in ticks. When nonzero, each response is
    /// held for `0..=max_jitter_ticks` ticks and delivered by a later
    /// [`crate::packet::Network::tick_into`], which also reorders responses.
    pub max_jitter_ticks: u64,
    /// Fraction of devices that are *flaky*: they reboot on a cycle and
    /// drop all traffic while down.
    pub flaky_frac: f64,
    /// Reboot cycle length in ticks for flaky devices.
    pub flaky_period: u64,
    /// Ticks per cycle a flaky device spends down (dropping everything).
    pub flaky_outage: u64,
    /// ICMPv6 error rate-limiting model applied to periphery devices.
    pub icmp_limit: IcmpRateLimit,
}

/// Every fault draw starts from `DetHash::new(seed).mix(label)`; those
/// prefixes are hashed once per seed, so a draw mixes only what varies
/// (addresses, tick, copy index, device).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct FaultKeys {
    fwd: DetHash,
    link: DetHash,
    rev: DetHash,
    dup: DetHash,
    jit: DetHash,
    flaky: DetHash,
    phase: DetHash,
    depleted: DetHash,
}

impl FaultKeys {
    fn new(seed: u64) -> Self {
        let key = |label: &[u8]| DetHash::new(seed).mix(label);
        FaultKeys {
            fwd: key(b"fwd"),
            link: key(b"link"),
            rev: key(b"rev"),
            dup: key(b"dup"),
            jit: key(b"jit"),
            flaky: key(b"flaky"),
            phase: key(b"phase"),
            depleted: key(b"depleted"),
        }
    }
}

impl Default for FaultPlan {
    fn default() -> Self {
        FaultPlan::none()
    }
}

impl FaultPlan {
    /// The identity plan: no loss, no duplication, no jitter, no flaky
    /// devices, and no error limiter ([`IcmpRateLimit::Unlimited`]).
    /// Every check short-circuits on a zero probability, and a world
    /// under this plan keeps no per-device history.
    pub fn none() -> Self {
        const SEED: u64 = 0xFA_17;
        FaultPlan {
            seed: SEED,
            keys: FaultKeys::new(SEED),
            forward_loss: 0.0,
            reverse_loss: 0.0,
            duplicate_frac: 0.0,
            max_jitter_ticks: 0,
            flaky_frac: 0.0,
            flaky_period: 1024,
            flaky_outage: 128,
            icmp_limit: IcmpRateLimit::Unlimited,
        }
    }

    /// Replaces the fault seed.
    #[must_use]
    pub fn seeded(mut self, seed: u64) -> Self {
        self.seed = seed;
        self.keys = FaultKeys::new(seed);
        self
    }

    /// The fault seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Sets the forward (probe-direction) loss probability.
    #[must_use]
    pub fn with_forward_loss(mut self, p: f64) -> Self {
        self.forward_loss = p;
        self
    }

    /// Sets the reverse (response-direction) loss probability.
    #[must_use]
    pub fn with_reverse_loss(mut self, p: f64) -> Self {
        self.reverse_loss = p;
        self
    }

    /// Sets the response duplication probability.
    #[must_use]
    pub fn with_duplication(mut self, p: f64) -> Self {
        self.duplicate_frac = p;
        self
    }

    /// Sets the maximum response delay (enables reordering when > 0).
    #[must_use]
    pub fn with_jitter(mut self, max_ticks: u64) -> Self {
        self.max_jitter_ticks = max_ticks;
        self
    }

    /// Makes a fraction of devices reboot cyclically: down for `outage`
    /// ticks out of every `period`.
    #[must_use]
    pub fn with_flaky(mut self, frac: f64, period: u64, outage: u64) -> Self {
        assert!(period > 0, "flaky period must be nonzero");
        assert!(outage <= period, "outage cannot exceed the period");
        self.flaky_frac = frac;
        self.flaky_period = period;
        self.flaky_outage = outage;
        self
    }

    /// Sets the ICMPv6 error rate-limiting model.
    #[must_use]
    pub fn with_icmp_limit(mut self, limit: IcmpRateLimit) -> Self {
        self.icmp_limit = limit;
        self
    }

    /// Whether this plan draws any loss, duplication, jitter or flaky
    /// device (the error limiter is not a draw).
    pub fn any_faults(&self) -> bool {
        self.forward_loss > 0.0
            || self.reverse_loss > 0.0
            || self.duplicate_frac > 0.0
            || self.max_jitter_ticks > 0
            || self.flaky_frac > 0.0
    }

    /// Whether a probe to `dst` sent at `tick` is dropped en route.
    /// Mixing the tick means a retry of the same destination redraws.
    pub fn drop_forward(&self, dst: Ip6, tick: u64) -> bool {
        self.forward_loss > 0.0
            && self
                .keys
                .fwd
                .mix_u128(dst.bits())
                .mix_u64(tick)
                .chance(self.forward_loss)
    }

    /// Whether a packet to `dst` crossing the directed link `from → to`
    /// at `tick` is dropped on that link (the [`crate::Engine`] applies
    /// this per traversal; the procedural [`crate::World`] has no explicit
    /// links and uses [`FaultPlan::drop_forward`] end to end instead).
    pub fn drop_link(&self, from: u64, to: u64, dst: Ip6, tick: u64) -> bool {
        self.forward_loss > 0.0
            && self
                .keys
                .link
                .mix_u64(from)
                .mix_u64(to)
                .mix_u128(dst.bits())
                .mix_u64(tick)
                .chance(self.forward_loss)
    }

    /// Whether the `k`-th response from `src` at `tick` is dropped on the
    /// return path.
    pub fn drop_reverse(&self, src: Ip6, tick: u64, k: u64) -> bool {
        self.reverse_loss > 0.0
            && self
                .keys
                .rev
                .mix_u128(src.bits())
                .mix_u64(tick)
                .mix_u64(k)
                .chance(self.reverse_loss)
    }

    /// Whether the `k`-th response from `src` at `tick` is duplicated.
    pub fn duplicate(&self, src: Ip6, tick: u64, k: u64) -> bool {
        self.duplicate_frac > 0.0
            && self
                .keys
                .dup
                .mix_u128(src.bits())
                .mix_u64(tick)
                .mix_u64(k)
                .chance(self.duplicate_frac)
    }

    /// Delay in ticks applied to the `k`-th response from `src` at `tick`
    /// (0 = delivered immediately).
    pub fn jitter_ticks(&self, src: Ip6, tick: u64, k: u64) -> u64 {
        if self.max_jitter_ticks == 0 {
            return 0;
        }
        self.keys
            .jit
            .mix_u128(src.bits())
            .mix_u64(tick)
            .mix_u64(k)
            .bounded(self.max_jitter_ticks + 1)
    }

    /// Whether the device identified by `(zone, index)` is flaky under
    /// this plan.
    pub fn device_flaky(&self, zone: u64, index: u64) -> bool {
        self.flaky_frac > 0.0
            && self
                .keys
                .flaky
                .mix_u64(zone)
                .mix_u64(index)
                .chance(self.flaky_frac)
    }

    /// Whether the device identified by `(zone, index)` is down (mid
    /// reboot) at `tick`. Each flaky device gets its own phase so outages
    /// are spread over the cycle.
    pub fn device_down(&self, zone: u64, index: u64, tick: u64) -> bool {
        if !self.device_flaky(zone, index) {
            return false;
        }
        let phase = self
            .keys
            .phase
            .mix_u64(zone)
            .mix_u64(index)
            .bounded(self.flaky_period);
        (tick + phase) % self.flaky_period < self.flaky_outage
    }

    /// Whether the token bucket of device `(zone, index)` starts empty,
    /// with the plan's `start_depleted_frac` (see
    /// [`IcmpRateLimit::TokenBucket`]). Never under other limiter models.
    pub(crate) fn starts_depleted(&self, zone: u64, index: u64) -> bool {
        let IcmpRateLimit::TokenBucket {
            start_depleted_frac,
            ..
        } = self.icmp_limit
        else {
            return false;
        };
        self.keys
            .depleted
            .mix_u64(zone)
            .mix_u64(index)
            .chance(start_depleted_frac)
    }
}

/// A response held back by jitter, ordered by delivery time.
///
/// The ordering key is `(due_tick, seq)` where `seq` is the insertion
/// sequence number — ties break by arrival order, which keeps the delay
/// queue fully deterministic.
#[derive(Debug, Clone)]
pub struct DelayedResponse {
    /// Tick at which the response becomes deliverable.
    pub due_tick: u64,
    /// Insertion sequence number (tie-breaker).
    pub seq: u64,
    /// The response packet itself.
    pub packet: crate::packet::Ipv6Packet,
}

impl PartialEq for DelayedResponse {
    fn eq(&self, other: &Self) -> bool {
        self.due_tick == other.due_tick && self.seq == other.seq
    }
}

impl Eq for DelayedResponse {}

impl PartialOrd for DelayedResponse {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for DelayedResponse {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // Reversed: BinaryHeap is a max-heap, we want earliest-due first.
        (other.due_tick, other.seq).cmp(&(self.due_tick, self.seq))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rules::rfc4443;

    #[test]
    fn none_plan_injects_nothing() {
        let plan = FaultPlan::none();
        let dst: Ip6 = "2001:db8::1".parse().unwrap();
        for t in 0..1000 {
            assert!(!plan.drop_forward(dst, t));
            assert!(!plan.drop_reverse(dst, t, 0));
            assert!(!plan.duplicate(dst, t, 0));
            assert_eq!(plan.jitter_ticks(dst, t, 0), 0);
            assert!(!plan.device_down(3, t, t));
        }
    }

    #[test]
    fn decisions_are_deterministic_and_seed_dependent() {
        let a = FaultPlan::none().seeded(1).with_forward_loss(0.5);
        let b = FaultPlan::none().seeded(1).with_forward_loss(0.5);
        let c = FaultPlan::none().seeded(2).with_forward_loss(0.5);
        let dst: Ip6 = "2001:db8::42".parse().unwrap();
        let seq_a: Vec<bool> = (0..256).map(|t| a.drop_forward(dst, t)).collect();
        let seq_b: Vec<bool> = (0..256).map(|t| b.drop_forward(dst, t)).collect();
        let seq_c: Vec<bool> = (0..256).map(|t| c.drop_forward(dst, t)).collect();
        assert_eq!(seq_a, seq_b);
        assert_ne!(seq_a, seq_c);
        // Loss rate is roughly the configured probability.
        let hits = seq_a.iter().filter(|d| **d).count();
        assert!((90..170).contains(&hits), "{hits}");
    }

    #[test]
    fn forward_loss_redraws_per_tick() {
        // The same destination lost at one tick gets through at another —
        // the property retransmission relies on.
        let plan = FaultPlan::none().with_forward_loss(0.5);
        let dst: Ip6 = "2001:db8::7".parse().unwrap();
        let outcomes: std::collections::HashSet<bool> =
            (0..64).map(|t| plan.drop_forward(dst, t)).collect();
        assert_eq!(outcomes.len(), 2, "loss must vary with time");
    }

    #[test]
    fn flaky_devices_cycle() {
        let plan = FaultPlan::none().with_flaky(1.0, 100, 25);
        assert!(plan.device_flaky(0, 1));
        let down: Vec<bool> = (0..200).map(|t| plan.device_down(0, 1, t)).collect();
        let down_count = down.iter().filter(|d| **d).count();
        // Two cycles, a quarter down each.
        assert_eq!(down_count, 50);
        // And the outage is contiguous within a cycle (one flip per edge).
        let flips = down.windows(2).filter(|w| w[0] != w[1]).count();
        assert!(flips <= 5, "{flips}");
    }

    #[test]
    fn keyed_draws_match_the_unkeyed_chains() {
        assert_eq!(FaultPlan::none(), FaultPlan::none().seeded(0xFA_17));
        let h = |seed: u64, label: &[u8]| DetHash::new(seed).mix(label);
        let addrs: [Ip6; 3] = [
            "::".parse().unwrap(),
            "2409:8000::1".parse().unwrap(),
            "ffff:ffff:ffff:ffff:ffff:ffff:ffff:ffff".parse().unwrap(),
        ];
        let devices = [0, 1, u32::MAX as u64, u64::MAX];
        for seed in [0xFA_17, 1, 0xF00D] {
            let plan = FaultPlan::none()
                .seeded(seed)
                .with_forward_loss(0.5)
                .with_reverse_loss(0.5)
                .with_duplication(0.5)
                .with_jitter(7)
                .with_flaky(0.5, 100, 25)
                .with_icmp_limit(IcmpRateLimit::TokenBucket {
                    capacity: 4,
                    refill_interval: 10,
                    start_depleted_frac: 0.5,
                });
            for a in addrs {
                for t in 0..64 {
                    let fwd = h(seed, b"fwd").mix_u128(a.bits()).mix_u64(t);
                    assert_eq!(plan.drop_forward(a, t), fwd.chance(0.5));
                    for (from, to) in [(0, 1), (7, u64::MAX)] {
                        let link = h(seed, b"link")
                            .mix_u64(from)
                            .mix_u64(to)
                            .mix_u128(a.bits())
                            .mix_u64(t);
                        assert_eq!(plan.drop_link(from, to, a, t), link.chance(0.5));
                    }
                    for k in 0..3 {
                        let per_copy =
                            |label| h(seed, label).mix_u128(a.bits()).mix_u64(t).mix_u64(k);
                        assert_eq!(plan.drop_reverse(a, t, k), per_copy(b"rev").chance(0.5));
                        assert_eq!(plan.duplicate(a, t, k), per_copy(b"dup").chance(0.5));
                        assert_eq!(plan.jitter_ticks(a, t, k), per_copy(b"jit").bounded(8));
                    }
                }
            }
            for zone in devices {
                for index in devices {
                    let device = |label| h(seed, label).mix_u64(zone).mix_u64(index);
                    let flaky = device(b"flaky").chance(0.5);
                    assert_eq!(plan.device_flaky(zone, index), flaky);
                    let phase = device(b"phase").bounded(100);
                    for t in 0..200 {
                        let down = flaky && (t + phase) % 100 < 25;
                        assert_eq!(plan.device_down(zone, index, t), down);
                    }
                    let depleted = device(b"depleted").chance(0.5);
                    assert_eq!(plan.starts_depleted(zone, index), depleted);
                    let mut fresh = rfc4443::ErrorLimiterState::default();
                    assert_eq!(
                        rfc4443::admit_error(&plan, zone, index, &mut fresh, 0, 1),
                        !depleted
                    );
                }
            }
        }
    }

    #[test]
    fn delayed_response_orders_by_due_then_seq() {
        use crate::packet::Ipv6Packet;
        let mk = |due, seq| DelayedResponse {
            due_tick: due,
            seq,
            packet: Ipv6Packet::echo_request(
                "fd00::1".parse().unwrap(),
                "fd00::2".parse().unwrap(),
                64,
                0,
                0,
            ),
        };
        let mut heap = std::collections::BinaryHeap::new();
        heap.push(mk(5, 0));
        heap.push(mk(3, 2));
        heap.push(mk(3, 1));
        heap.push(mk(9, 3));
        let order: Vec<(u64, u64)> = std::iter::from_fn(|| heap.pop())
            .map(|d| (d.due_tick, d.seq))
            .collect();
        assert_eq!(order, vec![(3, 1), (3, 2), (5, 0), (9, 3)]);
    }
}

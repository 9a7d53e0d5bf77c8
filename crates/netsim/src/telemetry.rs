//! Simulator-side telemetry: `netsim.*` counters and trace events.
//!
//! [`NetsimTelemetry`] mirrors [`WorldStats`] into a shared
//! [`Registry`] and emits fault-injection / engine-tick trace events.
//! The world keeps its own plain-integer stats as before (they stay the
//! cheap, always-on accounting); when a telemetry bundle
//! is attached the deltas are published into the registry at the end of
//! every [`Network::handle_into`](crate::Network::handle_into) /
//! [`Network::tick_into`](crate::Network::tick_into) call, so one publish site
//! covers every scattered `stats.* += 1` without touching the hot
//! per-packet logic.
//!
//! [`Registry`]: xmap_telemetry::Registry

use std::sync::Arc;

use xmap_telemetry::{Counter, Telemetry, Tracer};

use crate::world::WorldStats;

/// Well-known `netsim.*` metric names (kept in sync with DESIGN.md
/// §"Telemetry").
pub mod names {
    /// Virtual-clock ticks advanced (counter).
    pub const TICKS: &str = "netsim.ticks";
    /// Probe packets injected into the world (counter).
    pub const PROBES: &str = "netsim.probes";
    /// Response packets delivered back to the vantage (counter).
    pub const RESPONSES: &str = "netsim.responses";
    /// Probes that entered a routing loop (counter).
    pub const LOOP_EVENTS: &str = "netsim.loop_events";
    /// Link traversals consumed by routing loops (counter).
    pub const LOOP_FORWARDS: &str = "netsim.loop_forwards";
    /// ICMPv6 errors suppressed by RFC 4443 rate limiting (counter).
    pub const RATE_LIMITED: &str = "netsim.rate_limited";
    /// Probes dropped forward by the fault plan (counter).
    pub const FWD_LOST: &str = "netsim.fwd_lost";
    /// Responses dropped on the return path by the fault plan (counter).
    pub const REV_LOST: &str = "netsim.rev_lost";
    /// Extra response copies produced by fault-plan duplication (counter).
    pub const DUP_RESPONSES: &str = "netsim.dup_responses";
    /// Responses delayed by fault-plan jitter (counter).
    pub const JITTERED: &str = "netsim.jittered";
    /// Probes swallowed by mid-reboot devices (counter).
    pub const FLAKY_DROPPED: &str = "netsim.flaky_dropped";
    /// Packets injected at the engine vantage (counter).
    pub const ENGINE_INJECTED: &str = "netsim.engine.injected";
    /// Packets the engine delivered back to the vantage (counter).
    pub const ENGINE_DELIVERED: &str = "netsim.engine.delivered";
    /// Directed-link traversals inside the engine topology (counter).
    pub const ENGINE_FORWARDS: &str = "netsim.engine.forwards";
    /// Packets dropped on engine links by the fault plan (counter).
    pub const ENGINE_LINK_DROPS: &str = "netsim.engine.link_drops";
}

/// Pre-bound handles for the simulator's metric surface, plus the tracer
/// used for `netsim.tick` and `netsim.fault` events.
#[derive(Debug, Clone)]
pub struct NetsimTelemetry {
    enabled: bool,
    /// Virtual ticks advanced.
    pub ticks: Counter,
    /// Probes injected.
    pub probes: Counter,
    /// Responses delivered.
    pub responses: Counter,
    /// Routing-loop events.
    pub loop_events: Counter,
    /// Looped link traversals.
    pub loop_forwards: Counter,
    /// Rate-limited ICMPv6 errors.
    pub rate_limited: Counter,
    /// Forward fault-plan drops.
    pub fwd_lost: Counter,
    /// Reverse fault-plan drops.
    pub rev_lost: Counter,
    /// Duplicated responses.
    pub dup_responses: Counter,
    /// Jitter-delayed responses.
    pub jittered: Counter,
    /// Flaky-device drops.
    pub flaky_dropped: Counter,
    /// Engine vantage injections.
    pub engine_injected: Counter,
    /// Engine vantage deliveries.
    pub engine_delivered: Counter,
    /// Engine link traversals.
    pub engine_forwards: Counter,
    /// Engine fault-plan link drops.
    pub engine_link_drops: Counter,
    tracer: Arc<Tracer>,
}

impl NetsimTelemetry {
    /// Binds every `netsim.*` metric in `telemetry`'s registry.
    pub fn bind(telemetry: &Telemetry) -> Self {
        let r = &telemetry.registry;
        NetsimTelemetry {
            enabled: r.is_enabled(),
            ticks: r.counter(names::TICKS),
            probes: r.counter(names::PROBES),
            responses: r.counter(names::RESPONSES),
            loop_events: r.counter(names::LOOP_EVENTS),
            loop_forwards: r.counter(names::LOOP_FORWARDS),
            rate_limited: r.counter(names::RATE_LIMITED),
            fwd_lost: r.counter(names::FWD_LOST),
            rev_lost: r.counter(names::REV_LOST),
            dup_responses: r.counter(names::DUP_RESPONSES),
            jittered: r.counter(names::JITTERED),
            flaky_dropped: r.counter(names::FLAKY_DROPPED),
            engine_injected: r.counter(names::ENGINE_INJECTED),
            engine_delivered: r.counter(names::ENGINE_DELIVERED),
            engine_forwards: r.counter(names::ENGINE_FORWARDS),
            engine_link_drops: r.counter(names::ENGINE_LINK_DROPS),
            tracer: Arc::clone(&telemetry.tracer),
        }
    }

    /// A no-op bundle: every counter add and event is inert.
    pub fn disabled() -> Self {
        NetsimTelemetry::bind(&Telemetry::disabled())
    }

    /// Whether publishing does anything at all.
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// The tracer events are recorded into.
    pub fn tracer(&self) -> &Tracer {
        &self.tracer
    }

    /// Publishes the difference `now - prev` into the registry and emits a
    /// `netsim.fault` trace event if any fault-injection machinery fired
    /// in the interval. Call with the stats as of the last publish.
    ///
    /// Zero deltas skip the atomic add entirely — this runs once per
    /// handled packet, and in a fault-free world only one or two fields
    /// move, so the skip keeps the per-packet cost to a couple of relaxed
    /// adds instead of ten.
    pub fn publish_delta(&self, prev: &WorldStats, now: &WorldStats, clock: u64) {
        fn bump(counter: &Counter, delta: u64) {
            if delta > 0 {
                counter.add(delta);
            }
        }
        bump(&self.probes, now.probes - prev.probes);
        bump(&self.responses, now.responses - prev.responses);
        bump(&self.loop_events, now.loop_events - prev.loop_events);
        bump(&self.loop_forwards, now.loop_forwards - prev.loop_forwards);
        bump(&self.rate_limited, now.rate_limited - prev.rate_limited);
        bump(&self.fwd_lost, now.fwd_lost - prev.fwd_lost);
        bump(&self.rev_lost, now.rev_lost - prev.rev_lost);
        bump(&self.dup_responses, now.dup_responses - prev.dup_responses);
        bump(&self.jittered, now.jittered - prev.jittered);
        bump(&self.flaky_dropped, now.flaky_dropped - prev.flaky_dropped);
        if self.tracer.is_enabled() {
            let faults = (now.fwd_lost - prev.fwd_lost)
                + (now.rev_lost - prev.rev_lost)
                + (now.dup_responses - prev.dup_responses)
                + (now.jittered - prev.jittered)
                + (now.flaky_dropped - prev.flaky_dropped)
                + (now.rate_limited - prev.rate_limited);
            if faults > 0 {
                self.tracer.event(
                    clock,
                    "netsim.fault",
                    vec![
                        ("fwd_lost", (now.fwd_lost - prev.fwd_lost).into()),
                        ("rev_lost", (now.rev_lost - prev.rev_lost).into()),
                        ("dup", (now.dup_responses - prev.dup_responses).into()),
                        ("jittered", (now.jittered - prev.jittered).into()),
                        ("flaky", (now.flaky_dropped - prev.flaky_dropped).into()),
                        (
                            "rate_limited",
                            (now.rate_limited - prev.rate_limited).into(),
                        ),
                    ],
                );
            }
        }
    }

    /// Records a tick advance and, when anything was delivered from the
    /// delay queue, a `netsim.tick` trace event.
    pub fn record_tick(&self, clock: u64, ticks: u64, delivered: u64) {
        self.ticks.add(ticks);
        self.tick_event(clock, ticks, delivered);
    }

    /// Emits the `netsim.tick` trace event without touching the ticks
    /// counter — for networks that batch the counter through
    /// [`publish_delta`](Self::publish_delta)-style publishing.
    pub fn tick_event(&self, clock: u64, ticks: u64, delivered: u64) {
        if delivered > 0 && self.tracer.is_enabled() {
            self.tracer.event(
                clock,
                "netsim.tick",
                vec![("ticks", ticks.into()), ("delivered", delivered.into())],
            );
        }
    }
}

impl Default for NetsimTelemetry {
    fn default() -> Self {
        NetsimTelemetry::disabled()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn publish_delta_mirrors_stats() {
        let telemetry = Telemetry::with_tracing();
        let nt = NetsimTelemetry::bind(&telemetry);
        let prev = WorldStats::default();
        let now = WorldStats {
            probes: 10,
            responses: 7,
            fwd_lost: 2,
            jittered: 1,
            ..WorldStats::default()
        };
        nt.publish_delta(&prev, &now, 42);
        let snap = telemetry.registry.snapshot();
        assert_eq!(snap.counter(names::PROBES), 10);
        assert_eq!(snap.counter(names::RESPONSES), 7);
        assert_eq!(snap.counter(names::FWD_LOST), 2);
        assert_eq!(snap.counter(names::JITTERED), 1);
        // Faults fired, so exactly one netsim.fault event was recorded.
        let events = telemetry.tracer.events();
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].span, "netsim.fault");
        assert_eq!(events[0].tick, 42);
    }

    #[test]
    fn disabled_bundle_is_inert() {
        let nt = NetsimTelemetry::disabled();
        assert!(!nt.is_enabled());
        let now = WorldStats {
            probes: 5,
            ..WorldStats::default()
        };
        nt.publish_delta(&WorldStats::default(), &now, 0);
        nt.record_tick(0, 3, 2);
        assert_eq!(nt.probes.get(), 0);
        assert_eq!(nt.ticks.get(), 0);
        assert_eq!(nt.tracer().len(), 0);
    }
}

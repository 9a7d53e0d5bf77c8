//! The scanner's metric surface.
//!
//! [`ScanMetrics`] binds every well-known `scan.*` metric against a shared
//! [`Registry`] once, so the scan hot path pays exactly one relaxed atomic
//! add per counted event. [`crate::ScanStats`] is now a *view* over these
//! metrics: [`Scanner::run`](crate::Scanner::run) snapshots a
//! [`MetricsBaseline`] on entry and reports the delta on exit, which makes
//! the registry the single source of truth for scan accounting —
//! targeted sessions ([`crate::Targeted`]: mop-up, loop detection,
//! adaptive sampling) count through the same handles.

use xmap_telemetry::{Counter, Gauge, Histogram, Registry};

use crate::scanner::ScanStats;

/// Well-known metric names (the monitor and snapshot consumers key on
/// these; keep them in sync with DESIGN.md §"Telemetry").
pub mod names {
    /// Probes sent (counter).
    pub const SENT: &str = "scan.sent";
    /// Targets skipped by the blocklist (counter).
    pub const BLOCKED: &str = "scan.blocked";
    /// Response packets received (counter).
    pub const RECEIVED: &str = "scan.received";
    /// Responses failing stateless validation (counter).
    pub const INVALID: &str = "scan.invalid";
    /// Valid, recorded responses (counter).
    pub const VALID: &str = "scan.valid";
    /// Retransmitted probes (counter).
    pub const RETRANSMITS: &str = "scan.retransmits";
    /// Suspected ICMPv6 rate-limited targets (counter).
    pub const RATE_LIMITED: &str = "scan.rate_limited_suspected";
    /// Targets abandoned with every attempt unanswered (counter).
    pub const GAVE_UP: &str = "scan.gave_up";
    /// Accounted pacing in nanoseconds of virtual send time (counter).
    pub const PACED_NANOS: &str = "scan.paced_nanos";
    /// Valid responses per million probes sent (gauge, updated per run).
    pub const HIT_RATE_PPM: &str = "scan.hit_rate_ppm";
    /// Probe→response round-trip time in virtual ticks (histogram).
    pub const RTT_TICKS: &str = "scan.rtt_ticks";
    /// Scheduled retransmission backoff in virtual ticks (histogram).
    pub const BACKOFF_TICKS: &str = "scan.backoff_ticks";
    /// 1 while a checkpoint sink is running in degraded (in-memory)
    /// mode after a storage failure, 0 once durability is restored
    /// (gauge; only present in runs that degraded at least once).
    pub const DURABILITY_DEGRADED: &str = "state.durability_degraded";
    /// Worker panics caught and supervised by a parallel executor
    /// (counter; only present in runs that saw at least one).
    pub const EXEC_WORKER_PANICS: &str = "exec.worker_panics";
    /// Work units (shards/blocks) requeued for retry after a worker
    /// panic (counter; only present when nonzero).
    pub const EXEC_REQUEUED: &str = "exec.requeued";
    /// Work units abandoned as poisoned after exhausting retry attempts
    /// (counter; only present when nonzero).
    pub const EXEC_POISONED: &str = "exec.poisoned";
    /// Intra-block split events performed by the campaign executor
    /// (counter; schedule-dependent, only present when nonzero).
    pub const EXEC_SPLITS: &str = "exec.splits";
    /// Sub-shard units created by intra-block splits, summed over all
    /// split events (counter; schedule-dependent, only present when
    /// nonzero).
    pub const EXEC_SPLIT_SHARDS: &str = "exec.split_shards";
}

/// RTT histogram bucket bounds (virtual ticks; one tick per send slot).
pub const RTT_BOUNDS: [u64; 9] = [0, 1, 2, 4, 8, 16, 32, 64, 128];

/// Backoff histogram bucket bounds (virtual ticks).
pub const BACKOFF_BOUNDS: [u64; 7] = [8, 16, 32, 64, 128, 256, 512];

/// Pre-bound handles for every scanner metric.
#[derive(Debug, Clone)]
pub struct ScanMetrics {
    /// Probes sent.
    pub sent: Counter,
    /// Blocklist skips.
    pub blocked: Counter,
    /// Responses received.
    pub received: Counter,
    /// Validation failures.
    pub invalid: Counter,
    /// Valid responses.
    pub valid: Counter,
    /// Retransmissions (included in `sent`).
    pub retransmits: Counter,
    /// Suspected rate-limited targets.
    pub rate_limited_suspected: Counter,
    /// Abandoned targets.
    pub gave_up: Counter,
    /// Accounted pacing, nanoseconds.
    pub paced_nanos: Counter,
    /// Valid-per-million-sent, refreshed after every run.
    pub hit_rate_ppm: Gauge,
    /// Round-trip times in ticks.
    pub rtt_ticks: Histogram,
    /// Retransmission backoffs in ticks.
    pub backoff_ticks: Histogram,
}

impl ScanMetrics {
    /// Binds all scan metrics in `registry`.
    pub fn bind(registry: &Registry) -> Self {
        ScanMetrics {
            sent: registry.counter(names::SENT),
            blocked: registry.counter(names::BLOCKED),
            received: registry.counter(names::RECEIVED),
            invalid: registry.counter(names::INVALID),
            valid: registry.counter(names::VALID),
            retransmits: registry.counter(names::RETRANSMITS),
            rate_limited_suspected: registry.counter(names::RATE_LIMITED),
            gave_up: registry.counter(names::GAVE_UP),
            paced_nanos: registry.counter(names::PACED_NANOS),
            hit_rate_ppm: registry.gauge(names::HIT_RATE_PPM),
            rtt_ticks: registry.histogram(names::RTT_TICKS, &RTT_BOUNDS),
            backoff_ticks: registry.histogram(names::BACKOFF_TICKS, &BACKOFF_BOUNDS),
        }
    }

    /// The raw counter totals right now (the anchor for a per-run delta).
    pub fn baseline(&self) -> MetricsBaseline {
        MetricsBaseline {
            sent: self.sent.get(),
            blocked: self.blocked.get(),
            received: self.received.get(),
            invalid: self.invalid.get(),
            valid: self.valid.get(),
            retransmits: self.retransmits.get(),
            rate_limited_suspected: self.rate_limited_suspected.get(),
            gave_up: self.gave_up.get(),
            paced_nanos: self.paced_nanos.get(),
        }
    }

    /// The [`ScanStats`] accumulated since `base` was captured. Exact: the
    /// subtraction happens on the raw integer counters (pacing included,
    /// as nanoseconds) before any float conversion.
    pub fn stats_since(&self, base: &MetricsBaseline) -> ScanStats {
        ScanStats {
            sent: self.sent.get() - base.sent,
            blocked: self.blocked.get() - base.blocked,
            received: self.received.get() - base.received,
            invalid: self.invalid.get() - base.invalid,
            valid: self.valid.get() - base.valid,
            retransmits: self.retransmits.get() - base.retransmits,
            rate_limited_suspected: self.rate_limited_suspected.get() - base.rate_limited_suspected,
            gave_up: self.gave_up.get() - base.gave_up,
            paced_secs: (self.paced_nanos.get() - base.paced_nanos) as f64 / 1e9,
        }
    }

    /// Refreshes the hit-rate gauge from the lifetime totals.
    pub fn update_hit_rate(&self) {
        let ppm = self
            .valid
            .get()
            .saturating_mul(1_000_000)
            .checked_div(self.sent.get());
        if let Some(ppm) = ppm {
            self.hit_rate_ppm.set(ppm);
        }
    }
}

/// Plain-integer tallies for the scanner's per-slot loop and for
/// targeted sessions.
///
/// The hot path bumps these local fields (one register add, no atomics)
/// and [`flush`](HotTally::flush)es them through the shared [`ScanMetrics`]
/// handles at the points where the registry is read: before the monitor
/// renders a status line, before a mid-range checkpoint snapshots the
/// registry, when a run finishes and when a targeted session ends. Nothing reads a
/// registry mid-run otherwise, so everything it exports stays exact where
/// it is read, while the per-probe cost drops to nothing.
///
/// Only metrics the send/recv loop can touch every slot are batched:
/// under loss with several probes per target most sends arm a retry, so
/// backoff scheduling is tallied too. Rare events (suspected rate
/// limiting, nonzero RTTs) keep their direct handles.
#[derive(Debug, Default)]
pub struct HotTally {
    /// Probes sent.
    pub sent: u64,
    /// Blocklist skips.
    pub blocked: u64,
    /// Responses received.
    pub received: u64,
    /// Validation failures.
    pub invalid: u64,
    /// Valid responses.
    pub valid: u64,
    /// Retransmitted probes (every slot is one under sustained loss).
    pub retransmits: u64,
    /// Accounted pacing, nanoseconds.
    pub paced_nanos: u64,
    /// Valid responses that arrived in the send slot (RTT of zero ticks,
    /// the overwhelmingly common case) — flushed into the RTT histogram
    /// with [`Histogram::record_n`](xmap_telemetry::Histogram::record_n).
    pub rtt_zero: u64,
    /// Retry timers armed, per attempt, as `(backoff ticks, arms)`: every
    /// retry armed by attempt `a` is scheduled the same `rto_ticks << a`
    /// out, so each attempt flushes into the backoff histogram with one
    /// [`Histogram::record_n`](xmap_telemetry::Histogram::record_n).
    pub backoffs: Vec<(u64, u64)>,
}

impl HotTally {
    /// Counts one retry armed by `attempt`, `backoff` ticks out.
    #[inline]
    pub fn arm(&mut self, attempt: usize, backoff: u64) {
        if attempt >= self.backoffs.len() {
            self.backoffs.resize(attempt + 1, (0, 0));
        }
        let slot = &mut self.backoffs[attempt];
        *slot = (backoff, slot.1 + 1);
    }

    /// Adds every nonzero tally to the shared handles and resets to zero.
    pub fn flush(&mut self, metrics: &ScanMetrics) {
        fn bump(counter: &Counter, n: &mut u64) {
            if *n > 0 {
                counter.add(*n);
                *n = 0;
            }
        }
        bump(&metrics.sent, &mut self.sent);
        bump(&metrics.blocked, &mut self.blocked);
        bump(&metrics.received, &mut self.received);
        bump(&metrics.invalid, &mut self.invalid);
        bump(&metrics.valid, &mut self.valid);
        bump(&metrics.retransmits, &mut self.retransmits);
        bump(&metrics.paced_nanos, &mut self.paced_nanos);
        if self.rtt_zero > 0 {
            metrics.rtt_ticks.record_n(0, self.rtt_zero);
            self.rtt_zero = 0;
        }
        for (backoff, arms) in &mut self.backoffs {
            metrics
                .backoff_ticks
                .record_n(*backoff, std::mem::take(arms));
        }
    }
}

/// A frozen copy of the raw scan counters, used to compute per-run deltas.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MetricsBaseline {
    sent: u64,
    blocked: u64,
    received: u64,
    invalid: u64,
    valid: u64,
    retransmits: u64,
    rate_limited_suspected: u64,
    gave_up: u64,
    paced_nanos: u64,
}

impl MetricsBaseline {
    /// The baseline as a fixed-order array, for checkpoint serialization.
    /// Order: sent, blocked, received, invalid, valid, retransmits,
    /// rate_limited_suspected, gave_up, paced_nanos.
    pub fn to_raw(&self) -> [u64; 9] {
        [
            self.sent,
            self.blocked,
            self.received,
            self.invalid,
            self.valid,
            self.retransmits,
            self.rate_limited_suspected,
            self.gave_up,
            self.paced_nanos,
        ]
    }

    /// Rebuilds a baseline from the array produced by [`Self::to_raw`].
    pub fn from_raw(raw: [u64; 9]) -> Self {
        MetricsBaseline {
            sent: raw[0],
            blocked: raw[1],
            received: raw[2],
            invalid: raw[3],
            valid: raw[4],
            retransmits: raw[5],
            rate_limited_suspected: raw[6],
            gave_up: raw[7],
            paced_nanos: raw[8],
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stats_delta_is_exact() {
        let reg = Registry::new();
        let m = ScanMetrics::bind(&reg);
        m.sent.add(100);
        m.paced_nanos.add(40_000 * 100);
        let base = m.baseline();
        m.sent.add(2500);
        m.valid.add(50);
        m.paced_nanos.add(40_000 * 2500);
        let stats = m.stats_since(&base);
        assert_eq!(stats.sent, 2500);
        assert_eq!(stats.valid, 50);
        assert!(
            (stats.paced_secs - 0.1).abs() < 1e-12,
            "{}",
            stats.paced_secs
        );
    }

    #[test]
    fn hot_tally_flush_matches_direct_counting() {
        let reg = Registry::new();
        let m = ScanMetrics::bind(&reg);
        let mut tally = HotTally {
            sent: 10,
            received: 7,
            valid: 6,
            invalid: 1,
            paced_nanos: 40_000,
            rtt_zero: 6,
            ..HotTally::default()
        };
        tally.flush(&m);
        assert_eq!(m.sent.get(), 10);
        assert_eq!(m.received.get(), 7);
        assert_eq!(m.rtt_ticks.count(), 6);
        assert_eq!(m.rtt_ticks.sum(), 0);
        // Flushing resets; a second flush adds nothing.
        tally.flush(&m);
        assert_eq!(m.sent.get(), 10);
        assert_eq!(tally.sent, 0);
    }

    #[test]
    fn batched_backoffs_match_one_record_per_arm() {
        let (direct_reg, batched_reg) = (Registry::new(), Registry::new());
        let (direct, batched) = (
            ScanMetrics::bind(&direct_reg),
            ScanMetrics::bind(&batched_reg),
        );
        let rto = 6u64;
        let mut tally = HotTally::default();
        // Arms interleaved over three attempts, the middle one first, so
        // the tally grows past a lane it has not seen yet.
        for attempt in [1usize, 0, 2, 0, 1, 1, 2, 0, 0, 2, 1] {
            let backoff = rto << attempt;
            direct.backoff_ticks.record(backoff);
            tally.arm(attempt, backoff);
        }
        tally.flush(&batched);
        let (d, b) = (&direct.backoff_ticks, &batched.backoff_ticks);
        assert_eq!(b.bucket_counts(), d.bucket_counts());
        assert_eq!(b.bucket_counts()[..3], [4, 4, 3]);
        assert_eq!((b.count(), b.sum()), (d.count(), d.sum()));
        // Flushing resets; a second flush adds nothing.
        tally.flush(&batched);
        assert_eq!(batched.backoff_ticks.count(), 11);
    }

    #[test]
    fn hit_rate_gauge_tracks_totals() {
        let reg = Registry::new();
        let m = ScanMetrics::bind(&reg);
        m.sent.add(1000);
        m.valid.add(25);
        m.update_hit_rate();
        assert_eq!(m.hit_rate_ppm.get(), 25_000);
    }
}

//! The scan loop: permutation → probe → validate → record.
//!
//! Mirrors XMap's architecture: a target generator walks a random
//! permutation of the scan space, one send loop builds probes under a
//! token bucket, responses are validated statelessly and recorded. The
//! loop reaches the network only through the [`Transport`] contract —
//! batched sends, polled tick-stamped receives, a virtual clock — and
//! parks retransmissions in a deadline [`TimerHeap`], so a backend other
//! than the simulator is a type parameter away, not a second loop.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use xmap_addr::{FxHashMap, FxHashSet, Ip6, Prefix, ScanRange};
use xmap_netsim::packet::{Icmpv6, Ipv6Packet, Network, Payload};
use xmap_reactor::{RecvEntry, SimTransport, TimerHeap, Transport};
use xmap_state::{AbortSignal, AdaptiveState, CursorState, RunState};
use xmap_telemetry::{Monitor, Snapshot, Telemetry, Tracer};

use crate::blocklist::Blocklist;
use crate::checkpoint::{RangeMode, RunResume, RunSink};
use crate::cyclic::Cycle;
use crate::feistel::FeistelPermutation;
use crate::probe::{ProbeModule, ProbeResult};
use crate::rate::{AdaptiveRateController, RateLimiter};
use crate::target::fill_host_bits;
use crate::telemetry::{names, HotTally, MetricsBaseline, ScanMetrics};
use crate::validate::Validator;

/// Probe-order strategies (ablation: `permutation_vs_sequential`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Permutation {
    /// Multiplicative-group walk (ZMap/XMap default).
    #[default]
    Cyclic,
    /// Feistel bijection (index-addressable).
    Feistel,
    /// No permutation: ascending order (hammers one subnet at a time).
    Sequential,
}

/// Scanner configuration.
#[derive(Debug, Clone)]
pub struct ScanConfig {
    /// Seed for permutation, cookies and IID fill.
    pub seed: u64,
    /// Source address probes are sent from.
    pub source: Ip6,
    /// Hop limit on outgoing probes.
    pub hop_limit: u8,
    /// Probe-order strategy.
    pub permutation: Permutation,
    /// This scanner's shard (0-based) of `shards` total.
    pub shard: u64,
    /// Total number of cooperating shards.
    pub shards: u64,
    /// Probe at most this many targets per range (scaled experiments);
    /// `None` scans the full space.
    pub max_targets: Option<u64>,
    /// Packets-per-second budget; `None` = unlimited. Against the simulator
    /// pacing is accounted, not slept (see [`ScanStats::paced_secs`]).
    pub rate_pps: Option<u64>,
    /// Probes per target sub-prefix (default 1, the paper's discipline).
    /// Additional probes use fresh host bits and are only sent when the
    /// previous attempt drew no response — the loss-recovery knob measured
    /// by the `probes` ablation.
    pub probes_per_target: u32,
    /// Base retransmission timeout in virtual ticks (one tick = one send
    /// slot). Attempt *n* is scheduled `rto_ticks << (n-1)` ticks after
    /// attempt *n-1* went out — classic exponential backoff.
    pub rto_ticks: u64,
    /// Bound on the retransmission queue. When the backlog is full further
    /// retries are abandoned; targets that consequently stay silent end up
    /// in [`ScanStats::gave_up`].
    pub max_retry_backlog: usize,
    /// Enables the AIMD [`AdaptiveRateController`] seeded from `rate_pps`
    /// (no effect when `rate_pps` is `None`): the accounted pacing then
    /// follows the controller's current rate instead of the fixed budget.
    pub adaptive_rate: bool,
    /// Collect targets that never produced a valid response into
    /// [`ScanResults::silent_targets`] (the mop-up pass input). Off by
    /// default: the list is proportional to the probed slice.
    pub record_silent: bool,
}

impl Default for ScanConfig {
    fn default() -> Self {
        ScanConfig {
            seed: 1,
            source: Ip6::new(0xfd00 << 112 | 1),
            hop_limit: 64,
            permutation: Permutation::Cyclic,
            shard: 0,
            shards: 1,
            max_targets: None,
            rate_pps: None,
            probes_per_target: 1,
            rto_ticks: 8,
            max_retry_backlog: 4096,
            adaptive_rate: false,
            record_silent: false,
        }
    }
}

/// How many attempts a recorded response took — the per-record confidence
/// tag of the loss-recovery pipeline.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Confidence {
    /// The first probe to the target was answered.
    #[default]
    FirstTry,
    /// Answered only on the `n`-th retransmission (`n >= 1`); the target
    /// sits behind a lossy or rate-limited path.
    Retry(u32),
}

/// One validated response.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScanRecord {
    /// The sub-prefix this probe targeted.
    pub target: Prefix,
    /// The full probe destination (target + filled host bits).
    pub probe_dst: Ip6,
    /// Source address of the validated response — for unreachables this is
    /// the periphery's exposed WAN/UE address.
    pub responder: Ip6,
    /// Classified outcome.
    pub result: ProbeResult,
    /// How many attempts this response took.
    pub confidence: Confidence,
}

/// Aggregate counters for one scan.
///
/// Since the telemetry migration this is a *view*: the scanner counts into
/// its [`ScanMetrics`] registry handles and each run reports the delta, so
/// the registry is the single source of truth (campaign mop-up passes
/// count through the same handles).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ScanStats {
    /// Probes sent.
    pub sent: u64,
    /// Targets skipped by the blocklist.
    pub blocked: u64,
    /// Response packets received.
    pub received: u64,
    /// Responses that failed stateless validation.
    pub invalid: u64,
    /// Valid, recorded responses.
    pub valid: u64,
    /// Probes that were retransmissions (attempt >= 1); included in `sent`.
    pub retransmits: u64,
    /// Targets whose first probe went unanswered but whose retransmission
    /// drew an ICMPv6 error — the signature of an RFC 4443 §2.4 rate
    /// limiter refilling between attempts (echo replies are not typically
    /// rate limited, so those do not count).
    pub rate_limited_suspected: u64,
    /// Targets abandoned with every configured attempt unanswered. Only
    /// counted when recovery was in play (`probes_per_target > 1`); a
    /// single-probe scan records silence, it does not "give up".
    pub gave_up: u64,
    /// Seconds the configured rate limit would have stretched this scan to.
    pub paced_secs: f64,
}

impl ScanStats {
    /// Valid responses per probe sent.
    pub fn hit_rate(&self) -> f64 {
        if self.sent == 0 {
            0.0
        } else {
            self.valid as f64 / self.sent as f64
        }
    }

    /// Accumulates another run's counters into this one. Integer counters
    /// saturate instead of wrapping, so a pathological merge (e.g. folding
    /// many near-full campaign aggregates) degrades to a pinned maximum
    /// rather than a nonsense small number.
    pub fn merge(&mut self, other: &ScanStats) {
        self.sent = self.sent.saturating_add(other.sent);
        self.blocked = self.blocked.saturating_add(other.blocked);
        self.received = self.received.saturating_add(other.received);
        self.invalid = self.invalid.saturating_add(other.invalid);
        self.valid = self.valid.saturating_add(other.valid);
        self.retransmits = self.retransmits.saturating_add(other.retransmits);
        self.rate_limited_suspected = self
            .rate_limited_suspected
            .saturating_add(other.rate_limited_suspected);
        self.gave_up = self.gave_up.saturating_add(other.gave_up);
        self.paced_secs += other.paced_secs;
    }
}

/// Results of one scan.
#[derive(Debug, Clone, Default)]
pub struct ScanResults {
    /// Validated responses in arrival order.
    pub records: Vec<ScanRecord>,
    /// Counters.
    pub stats: ScanStats,
    /// Targets that never produced a valid response, in probe order.
    /// Populated only under [`ScanConfig::record_silent`]; the mop-up
    /// pass re-probes these after ICMPv6 token buckets have refilled.
    pub silent_targets: Vec<Prefix>,
    /// The run stopped early on an [`AbortSignal`]. Records and counters
    /// are the partial progress; the last durable checkpoint (if a sink
    /// was attached) is what a later `--resume` continues from.
    pub interrupted: bool,
    /// Walk positions of `records` (parallel vector), counted in
    /// consumed permutation indices of this run's walk. Populated only
    /// under [`Scanner::set_track_positions`]; the intra-block split
    /// executor uses them as merge keys.
    pub record_positions: Vec<u64>,
    /// Walk positions of `silent_targets` (parallel vector); populated
    /// only under [`Scanner::set_track_positions`].
    pub silent_positions: Vec<u64>,
    /// Permutation indices consumed from this run's walk (every index
    /// drawn from the generator, whether or not the range produced a
    /// target for it — the unit the `max_targets` budget is counted in).
    pub consumed: u64,
    /// The run stopped at a cooperative yield request with walk budget
    /// left (see [`Scanner::set_yield_request`]): records, silence and
    /// stats cover the consumed prefix exactly as a standalone run over
    /// that prefix would; the remainder was never drawn.
    pub yielded: bool,
}

impl ScanResults {
    /// Folds another run's results into these: counters merge, `records`
    /// and `silent_targets` append, `interrupted` ORs. The per-run walk
    /// fields (`record_positions`, `silent_positions`, `consumed`,
    /// `yielded`) describe one run's walk and are not carried.
    pub fn absorb(&mut self, other: ScanResults) {
        self.stats.merge(&other.stats);
        self.records.extend(other.records);
        self.silent_targets.extend(other.silent_targets);
        self.interrupted |= other.interrupted;
    }
}

/// The scanner: a [`ProbeModule`] driven over a permuted target space
/// against any [`Network`].
///
/// # Examples
///
/// ```
/// use xmap::{IcmpEchoProbe, Blocklist, ScanConfig, Scanner};
/// use xmap_netsim::World;
///
/// # fn main() -> Result<(), xmap_addr::ParseAddrError> {
/// let world = World::new(7);
/// let mut scanner = Scanner::new(world, ScanConfig { max_targets: Some(2000), ..Default::default() });
/// let results = scanner.run(&"2405:200::/32-64".parse()?, &IcmpEchoProbe, &Blocklist::allow_all());
/// assert_eq!(results.stats.sent, 2000);
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct Scanner<N> {
    /// The network, behind the transport contract the run loop drives.
    /// Its receive queue is empty between runs (a run only ends on an
    /// empty queue), so targeted probes may reach past it to the network.
    transport: SimTransport<N>,
    config: ScanConfig,
    validator: Validator,
    telemetry: Telemetry,
    metrics: ScanMetrics,
    monitor: Option<Monitor>,
    /// Virtual ticks issued to the network across all runs — the monotone
    /// clock the monitor and trace spans are stamped with.
    total_ticks: u64,
    /// Checkpoint sink: when attached, records are journalled to its WAL
    /// and worker checkpoints written at the configured cadence.
    sink: Option<RunSink>,
    /// Last sink-degradation state mirrored into the
    /// `state.durability_degraded` gauge (the gauge is only created on
    /// the first transition, so fault-free snapshots never carry it).
    durability_flagged: bool,
    /// Cooperative stop flag, checked once per send slot.
    abort: Option<AbortSignal>,
    /// When set, record/silent walk positions are captured into results
    /// (split-executor merge keys).
    track_positions: bool,
    /// Leading walk positions of the configured shard to discard before
    /// probing — the sub-shard form of intra-block splits (see
    /// [`Scanner::set_sub_shard`]).
    walk_skip: u64,
    /// Cooperative yield request: when the flag is set (by an idle
    /// executor worker), the scanner stops drawing fresh targets at the
    /// next slot boundary, drains in-flight state, and returns with
    /// [`ScanResults::yielded`] set.
    yield_flag: Option<Arc<AtomicBool>>,
    /// Yield requests are ignored unless at least this many walk
    /// positions remain (splitting a nearly-done run is pure overhead).
    yield_min_remaining: u64,
    /// Deterministic forced yield: behave as if the yield flag fired
    /// once `consumed` reaches this count (test/CI knob; fires at most
    /// once per run).
    force_yield_at: Option<u64>,
}

impl<N: Network> Scanner<N> {
    /// Creates a scanner over a network with private telemetry (live
    /// counters, tracing off).
    ///
    /// # Panics
    ///
    /// Panics if `config.shards == 0` or `config.shard >= config.shards`.
    pub fn new(network: N, config: ScanConfig) -> Self {
        Scanner::with_telemetry(network, config, Telemetry::new())
    }

    /// Creates a scanner counting into a shared [`Telemetry`] bundle, so
    /// monitors, snapshot exports and other components observe this
    /// scanner's metrics.
    ///
    /// # Panics
    ///
    /// Panics if `config.shards == 0` or `config.shard >= config.shards`.
    pub fn with_telemetry(network: N, config: ScanConfig, telemetry: Telemetry) -> Self {
        assert!(config.shards > 0, "shards must be nonzero");
        assert!(config.shard < config.shards, "shard index out of range");
        let validator = Validator::new(config.seed ^ 0x5ca1_ab1e);
        let metrics = ScanMetrics::bind(&telemetry.registry);
        Scanner {
            transport: SimTransport::new(network),
            config,
            validator,
            telemetry,
            metrics,
            monitor: None,
            total_ticks: 0,
            sink: None,
            durability_flagged: false,
            abort: None,
            track_positions: false,
            walk_skip: 0,
            yield_flag: None,
            yield_min_remaining: 1,
            force_yield_at: None,
        }
    }

    /// The telemetry bundle this scanner counts into.
    pub fn telemetry(&self) -> &Telemetry {
        &self.telemetry
    }

    /// The pre-bound scan metric handles (shared cells with the registry).
    pub fn metrics(&self) -> &ScanMetrics {
        &self.metrics
    }

    /// The event tracer (disabled unless the telemetry bundle enables it).
    pub fn tracer(&self) -> &Tracer {
        &self.telemetry.tracer
    }

    /// Attaches a live monitor, polled once per virtual tick during runs.
    pub fn set_monitor(&mut self, monitor: Monitor) {
        self.monitor = Some(monitor);
    }

    /// Arms a cooperative abort: the scanner checks the signal at each
    /// slot boundary and stops early (results marked
    /// [`interrupted`](ScanResults::interrupted)) once it fires.
    pub fn set_abort(&mut self, abort: AbortSignal) {
        self.abort = Some(abort);
    }

    /// Whether an armed abort signal has fired.
    pub fn is_aborted(&self) -> bool {
        self.abort.as_ref().is_some_and(AbortSignal::is_set)
    }

    /// Attaches a checkpoint sink. Subsequent runs journal every record
    /// to its WAL and write a worker checkpoint at the sink's cadence
    /// (and once more when a range completes).
    pub fn set_sink(&mut self, sink: RunSink) {
        self.sink = Some(sink);
    }

    /// Detaches the checkpoint sink, returning it (e.g. to inspect a
    /// deferred I/O error at session end).
    pub fn take_sink(&mut self) -> Option<RunSink> {
        self.sink.take()
    }

    /// Restores the scanner's lifetime tick count and the network's
    /// virtual clock from a checkpoint — the resume path's first step, to
    /// be called before any run.
    pub fn restore_clock(&mut self, tick: u64) {
        self.total_ticks = tick;
        self.transport.network_mut().restore_clock(tick);
    }

    /// Restores the telemetry registry from a checkpoint snapshot; the
    /// scanner's (and a bound network's) existing metric handles observe
    /// the restored values. A `state.durability_degraded` gauge captured
    /// while the killed run was degraded is stale for this process (its
    /// sink starts healthy) and is reset.
    pub fn restore_metrics(&mut self, snap: &Snapshot) {
        self.telemetry.registry.restore(snap);
        if snap.gauges.contains_key(names::DURABILITY_DEGRADED) {
            self.telemetry
                .registry
                .gauge(names::DURABILITY_DEGRADED)
                .set(0);
        }
    }

    /// Virtual ticks issued to the network so far (monotone across runs).
    pub fn ticks(&self) -> u64 {
        self.total_ticks
    }

    /// Advances the network's virtual clock by `ticks`, appending any
    /// delayed packets that came due to `out` (which callers clear and
    /// reuse across invocations — the mop-up loop calls this once per
    /// drain slot, and a returned `Vec` per call was a measurable
    /// allocation tax). Keeps the scanner's monotone tick count in sync —
    /// campaign drivers use this instead of ticking the network directly.
    pub fn advance(&mut self, ticks: u64, out: &mut Vec<Ipv6Packet>) {
        self.total_ticks += ticks;
        let network = self.transport.network_mut();
        network.tick_into(ticks, out);
        network.flush_telemetry();
    }

    /// The configuration in effect.
    pub fn config(&self) -> &ScanConfig {
        &self.config
    }

    /// Adjusts the per-range target cap for subsequent runs (used by
    /// campaign drivers that scan many ranges at one scale).
    pub fn set_max_targets(&mut self, max_targets: Option<u64>) {
        self.config.max_targets = max_targets;
    }

    /// Toggles silent-target tracking for subsequent runs (used by the
    /// campaign mop-up pass).
    pub fn set_record_silent(&mut self, record_silent: bool) {
        self.config.record_silent = record_silent;
    }

    /// Toggles walk-position tracking for subsequent runs: when on,
    /// [`ScanResults::record_positions`] and
    /// [`ScanResults::silent_positions`] carry each record's / silent
    /// target's walk position. Tracking never changes any other output.
    pub fn set_track_positions(&mut self, track: bool) {
        self.track_positions = track;
    }

    /// Reconfigures the `(shard, shards)` pair plus a leading-position
    /// skip for subsequent runs. This is the sub-shard form intra-block
    /// splits run in: a split unit covering base walk positions
    /// `{offset + j·stride : j < cap}` executes as shard
    /// `offset % stride` of `stride` with the first `offset / stride`
    /// positions of that shard walk discarded, so `offset ≥ stride`
    /// never violates the `shard < shards` invariant.
    ///
    /// # Panics
    ///
    /// Panics if `shards == 0` or `shard >= shards`.
    pub fn set_sub_shard(&mut self, shard: u64, shards: u64, walk_skip: u64) {
        assert!(shards > 0, "shards must be nonzero");
        assert!(shard < shards, "shard index out of range");
        self.config.shard = shard;
        self.config.shards = shards;
        self.walk_skip = walk_skip;
    }

    /// The `(shard, shards, walk_skip)` triple in effect (so drivers can
    /// save and restore it around sub-shard runs).
    pub fn sub_shard(&self) -> (u64, u64, u64) {
        (self.config.shard, self.config.shards, self.walk_skip)
    }

    /// Arms (or disarms, with `None`) a cooperative yield request for
    /// subsequent runs. When the shared flag is set mid-run, the scanner
    /// stops drawing fresh targets at the next slot boundary with
    /// in-flight == 0, finishes end-of-run accounting for the consumed
    /// prefix, and returns with [`ScanResults::yielded`] — the executor
    /// then splits the unconsumed remainder across idle workers. A run
    /// never yields before consuming at least one index, and ignores
    /// requests once fewer than `min_remaining` positions remain.
    pub fn set_yield_request(&mut self, flag: Option<Arc<AtomicBool>>, min_remaining: u64) {
        self.yield_flag = flag;
        self.yield_min_remaining = min_remaining.max(1);
    }

    /// Forces the yield gate open once `consumed` reaches `at` indices
    /// (deterministic split point for tests and CI smokes), regardless
    /// of the shared flag. `None` disables.
    pub fn set_force_yield_at(&mut self, at: Option<u64>) {
        self.force_yield_at = at;
    }

    /// The stateless validator (shared with helper probes).
    pub fn validator(&self) -> &Validator {
        &self.validator
    }

    /// Borrows the underlying network.
    pub fn network_mut(&mut self) -> &mut N {
        self.transport.network_mut()
    }

    /// Consumes the scanner, returning the network.
    pub fn into_network(self) -> N {
        self.transport.into_network()
    }

    /// Sends one probe to an explicit destination and classifies responses.
    /// Used by the application-layer and loop scanners for targeted probes.
    /// Counts into the same `scan.*` metrics as [`Scanner::run`], so
    /// targeted passes (mop-up, loop detection) share the accounting.
    pub fn probe_addr(
        &mut self,
        dst: Ip6,
        module: &dyn ProbeModule,
        hop_limit: u8,
    ) -> Vec<(Ip6, ProbeResult)> {
        let mut scratch = Vec::new();
        let mut out = Vec::new();
        self.probe_addr_into(dst, module, hop_limit, &mut scratch, &mut out);
        out
    }

    /// [`probe_addr`](Self::probe_addr) into caller-owned buffers: the
    /// raw responses land in `scratch` and the classified results in
    /// `out` (both cleared first). Targeted inner loops — loop
    /// detection, application grabs, adaptive sampling — reuse the
    /// buffers across probes so the steady state allocates nothing.
    pub fn probe_addr_into(
        &mut self,
        dst: Ip6,
        module: &dyn ProbeModule,
        hop_limit: u8,
        scratch: &mut Vec<Ipv6Packet>,
        out: &mut Vec<(Ip6, ProbeResult)>,
    ) {
        let probe = module.build(self.config.source, dst, hop_limit, &self.validator);
        self.metrics.sent.inc();
        scratch.clear();
        out.clear();
        self.transport.network_mut().handle_into(probe, scratch);
        for resp in scratch.iter() {
            let result = module.classify(resp, &self.validator);
            self.metrics.received.inc();
            if matches!(result, ProbeResult::Invalid) {
                self.metrics.invalid.inc();
            } else {
                self.metrics.valid.inc();
            }
            out.push((resp.src, result));
        }
        self.transport.flush_telemetry();
    }

    /// Scans one range with a probe module, honouring the blocklist.
    ///
    /// Runs the full loss-recovery pipeline on a virtual clock (one tick
    /// per send slot, forwarded to the network via [`Transport::advance`]):
    /// unanswered probes are retransmitted with fresh host bits under
    /// exponential backoff, a retransmission is suppressed when the answer
    /// arrives (possibly delayed/jittered) before its timer fires, and the
    /// scan drains in-flight responses before returning. With the default
    /// `probes_per_target = 1` no retry state is kept and behaviour
    /// matches the paper's single-probe discipline.
    pub fn run(
        &mut self,
        range: &ScanRange,
        module: &dyn ProbeModule,
        blocklist: &Blocklist,
    ) -> ScanResults {
        self.run_inner(range, module, blocklist, None)
    }

    /// Runs the `range_index`-th range of a checkpointed session under an
    /// explicit [`RangeMode`]: replay the records of an already-completed
    /// range, resume a mid-range checkpoint, or start fresh. Drivers
    /// iterate their range list through this method so the attached
    /// [`RunSink`] stamps every journalled record and checkpoint with the
    /// right range index.
    pub fn run_checkpointed(
        &mut self,
        range_index: u32,
        range: &ScanRange,
        module: &dyn ProbeModule,
        blocklist: &Blocklist,
        mode: RangeMode,
    ) -> ScanResults {
        match mode {
            RangeMode::Skip(records) => ScanResults {
                records,
                ..ScanResults::default()
            },
            RangeMode::Fresh => {
                if let Some(sink) = self.sink.as_mut() {
                    sink.begin_range(range_index, None);
                }
                self.run_inner(range, module, blocklist, None)
            }
            RangeMode::Resume(resume) => {
                if let Some(sink) = self.sink.as_mut() {
                    sink.begin_range(range_index, Some(resume.state.run_wal_start));
                }
                self.run_inner(range, module, blocklist, Some(*resume))
            }
        }
    }

    fn run_inner(
        &mut self,
        range: &ScanRange,
        module: &dyn ProbeModule,
        blocklist: &Blocklist,
        resume: Option<RunResume>,
    ) -> ScanResults {
        let mut limiter = self.config.rate_pps.map(|pps| RateLimiter::new(pps, 64));
        let attempts = self.config.probes_per_target.max(1);
        let mut run = match resume {
            None => Run::fresh(self, range),
            // Mid-range resume: the journal replayed the records emitted
            // before the checkpoint; every run local restarts from the
            // captured state, so the loop below re-executes the tail of
            // the range exactly as the killed run would have continued it.
            Some(r) => Run::restore(self, range, r),
        };
        self.transport.set_clock(run.now);
        // Records already durable in the journal; everything past this
        // index still needs journalling.
        let mut journaled = run.results.records.len();
        let mut send_buf: Vec<Ipv6Packet> = Vec::new();
        let mut recv_buf: Vec<RecvEntry> = Vec::new();
        let mut yielding = false;

        loop {
            // An abort takes a best-effort final checkpoint at this slot
            // boundary (a no-op without a sink or with responses still in
            // flight), then stops.
            let aborted = self.is_aborted();
            if aborted || self.sink.as_ref().is_some_and(RunSink::due) {
                self.checkpoint_now(&mut run);
            }
            if aborted {
                run.results.interrupted = true;
                break;
            }
            if run.retire_due() && self.transport.in_flight() == 0 {
                run.retire_dead();
            }
            // Cooperative split point: once the gate fires, stop drawing
            // fresh targets and fall through to the drain branch, so the
            // consumed prefix completes exactly as a standalone run over
            // that prefix would.
            if !yielding && self.yield_due(&run.gen) {
                yielding = true;
            }
            // One send slot: a due retransmission wins over a fresh target.
            let job = if let Some(retry) = run.due_retry() {
                Some((retry.target, retry.attempt, retry.position))
            } else if let Some(target) = (!yielding).then(|| run.gen.next_target(range)).flatten() {
                let position = run.gen.consumed - 1;
                run.probed.push(target);
                if self.track_positions {
                    run.probed_positions.push(position);
                }
                Some((target, 0, position))
            } else if !run.retries.is_empty() || self.transport.in_flight() > 0 {
                // Fresh walk done: drain timers and in-flight responses
                // without sending.
                None
            } else {
                break;
            };

            if let Some((target, attempt, position)) = job {
                // Fresh host bits per attempt: a lost exchange is retried
                // on a new (deterministically lossy) path.
                let dst = fill_host_bits(target, self.config.seed.wrapping_add(attempt as u64));
                if !blocklist.is_allowed(dst) {
                    run.tally.blocked += 1;
                    continue;
                }
                // Pacing is accounted, not slept: the simulator answers
                // instantly, so the budget is tracked instead.
                if let Some(ctrl) = run.adaptive.as_mut() {
                    run.tally.paced_nanos += 1_000_000_000 / ctrl.current_pps().max(1);
                    ctrl.on_probe();
                } else if let Some(limiter) = limiter.as_mut() {
                    run.tally.paced_nanos += 1_000_000_000 / limiter.rate_pps().max(1);
                }
                let probe = module.build(
                    self.config.source,
                    dst,
                    self.config.hop_limit,
                    &self.validator,
                );
                run.tally.sent += 1;
                if attempt > 0 {
                    run.tally.retransmits += 1;
                }
                if self.telemetry.tracer.is_enabled() {
                    self.telemetry.tracer.event(
                        self.total_ticks,
                        "scan.send",
                        vec![
                            ("attempt", (attempt as u64).into()),
                            ("dst", dst.to_string().into()),
                        ],
                    );
                }
                // Bounded backlog: an overflowing retry is abandoned (the
                // target is then counted in `gave_up` if it stays silent).
                let retry_armed =
                    attempt + 1 < attempts && run.retries.len() < self.config.max_retry_backlog;
                run.outstanding.insert(
                    dst,
                    Outstanding {
                        target,
                        attempt,
                        answered: false,
                        retry_armed,
                        sent_tick: run.now,
                        position,
                    },
                );
                if retry_armed {
                    let backoff = self.config.rto_ticks << attempt;
                    self.metrics.backoff_ticks.record(backoff);
                    run.retries.arm(
                        run.now + backoff,
                        RetryTimer {
                            target,
                            attempt: attempt + 1,
                            prev_dst: dst,
                            position,
                        },
                    );
                }
                send_buf.push(probe);
                self.transport.send_batch(&mut send_buf);
                // First poll of the slot: immediate replies, stamped with
                // the send tick.
                self.absorb(&mut recv_buf, module, &mut run);
            }

            self.transport.advance(1);
            run.now += 1;
            self.total_ticks += 1;
            // Progress heartbeat: surface the batched tallies every 1024
            // slots so concurrent observers of the registry — the campaign
            // watchdog's probes-sent heartbeat above all — see a live run
            // advancing instead of a counter frozen until run end. Counters
            // are additive, so flush timing cannot change any final
            // snapshot; the cost is a handful of atomic adds per KiB of
            // slots.
            if self.total_ticks & 0x3ff == 0 {
                run.tally.flush(&self.metrics);
            }
            if let Some(sink) = self.sink.as_mut() {
                sink.tick();
            }
            if let Some(monitor) = self.monitor.as_mut() {
                if monitor.is_due(self.total_ticks) {
                    // Flush batched tallies so the status line is exact.
                    run.tally.flush(&self.metrics);
                    monitor.poll(self.total_ticks);
                }
            }
            // Second poll of the slot: replies that came due in the
            // advance, stamped with the post-advance tick.
            self.absorb(&mut recv_buf, module, &mut run);
            if let Some(sink) = self.sink.as_mut() {
                // Journal this slot's records before the next checkpoint
                // can reference their sequence numbers.
                for r in &run.results.records[journaled..] {
                    sink.journal(r);
                }
                journaled = run.results.records.len();
            }
            self.mirror_durability();
        }

        run.tally.flush(&self.metrics);
        self.transport.flush_telemetry();
        let mut results = run.results;
        results.consumed = run.gen.consumed;
        results.yielded = yielding && !results.interrupted && run.gen.unconsumed() > 0;

        if results.interrupted {
            // Partial run: report the delta so far and leave the last
            // durable checkpoint as the resume point. Per-target
            // give-up/silence accounting only makes sense for a range
            // that actually finished.
            results.stats = self.metrics.stats_since(&run.base);
            return results;
        }

        // Per-target recovery accounting, in deterministic probe order.
        // Abandonments are tallied locally and flushed in one counter add.
        let mut gave_up = 0u64;
        for (i, target) in run.probed.iter().enumerate() {
            if run.answered.contains(target) {
                continue;
            }
            if attempts > 1 {
                gave_up += 1;
            }
            if self.config.record_silent {
                results.silent_targets.push(*target);
                if self.track_positions {
                    results.silent_positions.push(run.probed_positions[i]);
                }
            }
        }
        if gave_up > 0 {
            self.metrics.gave_up.add(gave_up);
        }
        results.stats = self.metrics.stats_since(&run.base);
        self.metrics.update_hit_rate();
        self.telemetry.tracer.span_event(
            run.run_start_tick,
            self.total_ticks,
            "scan.run",
            vec![
                ("sent", results.stats.sent.into()),
                ("valid", results.stats.valid.into()),
            ],
        );
        if self.sink.is_some() {
            // Durably mark the range complete (`run: None`): a resume
            // replays its records from the journal and moves on.
            let snap = self.telemetry.registry.snapshot();
            if let Some(sink) = self.sink.as_mut() {
                sink.write_checkpoint(self.total_ticks, snap, None);
            }
            self.mirror_durability();
        }
        results
    }

    /// Whether the cooperative yield gate fires at this slot boundary.
    /// Strict progress is guaranteed — a run never yields before
    /// consuming at least one index, so repeated splits always
    /// terminate — and a run whose walk is already exhausted completes
    /// normally instead of yielding.
    fn yield_due(&self, gen: &TargetGen) -> bool {
        if gen.consumed == 0 {
            return false;
        }
        let remaining = gen.unconsumed();
        if remaining == 0 {
            return false;
        }
        if self.force_yield_at.is_some_and(|at| gen.consumed >= at) {
            return true;
        }
        remaining >= self.yield_min_remaining
            && self
                .yield_flag
                .as_ref()
                .is_some_and(|f| f.load(Ordering::Relaxed))
    }

    /// Mirrors the sink's degraded/healthy state into the
    /// `state.durability_degraded` gauge on transitions. The gauge is
    /// only created on the first degradation, so fault-free runs export
    /// byte-identical snapshots with or without a sink attached.
    fn mirror_durability(&mut self) {
        let degraded = self.sink.as_ref().is_some_and(RunSink::is_degraded);
        if degraded != self.durability_flagged {
            self.durability_flagged = degraded;
            self.telemetry
                .registry
                .gauge(names::DURABILITY_DEGRADED)
                .set(degraded as u64);
        }
    }

    /// Captures and writes a mid-range checkpoint, provided a sink is
    /// attached and the transport owes nothing — neither wire traffic
    /// still in flight nor replies queued but unabsorbed (a snapshot
    /// taken with responses pending could not be replayed
    /// deterministically — the attempt is simply retried next slot).
    fn checkpoint_now(&mut self, run: &mut Run) {
        if self.sink.is_none() || self.transport.in_flight() > 0 {
            return;
        }
        // The snapshot must carry everything counted so far: flush the
        // local tallies and any batched network-side telemetry first.
        run.tally.flush(&self.metrics);
        self.transport.flush_telemetry();
        let snap = self.telemetry.registry.snapshot();
        let sink = self.sink.as_mut().expect("sink presence checked above");
        // Unconditionally, so that a cut holds exactly the entries its
        // retries name whatever the sweep cadence before it was.
        run.retire_dead();
        let state = run.capture(sink.run_wal_start());
        sink.write_checkpoint(self.total_ticks, snap, Some(state));
    }

    /// Polls the transport and classifies what arrived, attributing each
    /// reply back to its probe through the response itself (stateless,
    /// like the C scanner: echo replies carry the probed address as their
    /// source, ICMPv6 errors quote it in the invoking packet). RTTs and
    /// trace stamps come from each entry's arrival tick, not poll time.
    fn absorb(&mut self, batch: &mut Vec<RecvEntry>, module: &dyn ProbeModule, run: &mut Run) {
        batch.clear();
        if self.transport.poll_recv(batch) == 0 {
            return;
        }
        // Trace events are stamped with the *lifetime* tick: translate
        // each entry's run-local arrival tick by the current offset.
        let run_offset = self.total_ticks.wrapping_sub(run.now);
        for entry in batch.iter() {
            let resp = &entry.packet;
            run.tally.received += 1;
            match module.classify(resp, &self.validator) {
                ProbeResult::Invalid => run.tally.invalid += 1,
                result => {
                    let probe_dst = probe_dst_of(resp);
                    let Some(out) = run.outstanding.get_mut(&probe_dst) else {
                        // Validated but unattributable: a duplicate of a
                        // probe sent outside this run, or a reply that
                        // outlived the transport's `in_flight() == 0`
                        // promise and found its entry retired. Not ours
                        // to record.
                        run.tally.invalid += 1;
                        continue;
                    };
                    let confidence = match out.attempt {
                        0 => Confidence::FirstTry,
                        n => Confidence::Retry(n),
                    };
                    let first_answer = !out.answered;
                    out.answered = true;
                    if first_answer
                        && out.attempt > 0
                        && matches!(
                            result,
                            ProbeResult::Unreachable { .. } | ProbeResult::TimeExceeded
                        )
                    {
                        self.metrics.rate_limited_suspected.inc();
                    }
                    run.tally.valid += 1;
                    let rtt = entry.tick.saturating_sub(out.sent_tick);
                    if rtt == 0 {
                        // Same-slot answers dominate; batch them and flush
                        // through `Histogram::record_n`.
                        run.tally.rtt_zero += 1;
                    } else {
                        self.metrics.rtt_ticks.record(rtt);
                    }
                    if self.telemetry.tracer.is_enabled() {
                        self.telemetry.tracer.event(
                            run_offset.wrapping_add(entry.tick),
                            "scan.recv",
                            vec![
                                ("rtt_ticks", rtt.into()),
                                ("attempt", (out.attempt as u64).into()),
                            ],
                        );
                    }
                    if let Some(ctrl) = run.adaptive.as_mut() {
                        ctrl.on_valid();
                    }
                    run.answered.insert(out.target);
                    if self.track_positions {
                        run.results.record_positions.push(out.position);
                    }
                    run.results.records.push(ScanRecord {
                        target: out.target,
                        probe_dst,
                        responder: resp.src,
                        result,
                        confidence,
                    });
                }
            }
        }
    }

    /// Scans several ranges, merging results.
    pub fn run_all(
        &mut self,
        ranges: &[ScanRange],
        module: &dyn ProbeModule,
        blocklist: &Blocklist,
    ) -> ScanResults {
        let mut all = ScanResults::default();
        for r in ranges {
            all.absorb(self.run(r, module, blocklist));
        }
        all
    }
}

/// Indices per refill of the streaming target generator. Large enough to
/// amortize dispatch, small enough to stay in L1.
const TARGET_CHUNK: usize = 256;

/// Streaming probe-order generator: walks the configured permutation
/// shard in fixed-size chunks instead of materializing the whole order up
/// front (a 2³²-index shard used to cost a 32 GiB `Vec` in principle and a
/// cap-sized allocation in practice; the generator is O(1) in space and
/// emits exactly the order [`Scanner::run`] always used).
#[derive(Debug)]
struct TargetGen {
    stream: IndexStream,
    /// Remaining `max_targets` budget, counted in raw walk steps (for
    /// the cyclic permutation, group steps — fringe sentinels included),
    /// so the budget partitions exactly under nested sub-shard splits.
    remaining: u64,
    buf: [u64; TARGET_CHUNK],
    len: usize,
    pos: usize,
    /// Indices consumed so far (excluding any leading skip) — the walk
    /// position counter split units are keyed by.
    consumed: u64,
}

/// The per-permutation walk state behind [`TargetGen`].
#[derive(Debug)]
enum IndexStream {
    /// Multiplicative-group walk over this scanner's shard.
    Cyclic(crate::cyclic::ShardIter),
    /// Index-addressable bijection evaluated at strided positions.
    Feistel {
        perm: FeistelPermutation,
        next_pos: u64,
        stride: u64,
    },
    /// Ascending strided positions, no permutation.
    Sequential {
        next_pos: u64,
        stride: u64,
        len: u64,
    },
}

impl TargetGen {
    fn new(config: &ScanConfig, range: &ScanRange) -> Self {
        let len = u64::try_from(range.space_size().min(u64::MAX as u128)).unwrap_or(u64::MAX);
        let (shard, shards) = (config.shard, config.shards);
        let stream = match config.permutation {
            Permutation::Cyclic => {
                IndexStream::Cyclic(Cycle::new(len, config.seed).iter_shard(shard, shards))
            }
            Permutation::Feistel => IndexStream::Feistel {
                perm: FeistelPermutation::new(len, config.seed),
                next_pos: shard,
                stride: shards,
            },
            Permutation::Sequential => IndexStream::Sequential {
                next_pos: shard,
                stride: shards,
                len,
            },
        };
        TargetGen {
            stream,
            remaining: config.max_targets.unwrap_or(u64::MAX),
            buf: [0; TARGET_CHUNK],
            len: 0,
            pos: 0,
            consumed: 0,
        }
    }

    /// A generator that transparently discards the first `skip` walk
    /// positions of the configured shard: the `max_targets` budget then
    /// applies to the positions *after* the skip and `consumed` restarts
    /// at zero. This is how a split unit `(offset, stride, cap)` runs:
    /// shard `offset % stride` of `stride`, skipping `offset / stride`
    /// positions — O(skip) index draws, uniform across all three
    /// permutation streams.
    fn with_skip(config: &ScanConfig, range: &ScanRange, skip: u64) -> Self {
        let mut gen = TargetGen::new(config, range);
        if skip > 0 {
            gen.remaining = gen.remaining.saturating_add(skip);
            for _ in 0..skip {
                if gen.next_index().is_none() {
                    break;
                }
            }
            gen.consumed = 0;
        }
        gen
    }

    /// Walk positions not yet consumed under the `max_targets` budget
    /// (drawn-but-buffered indices count as unconsumed).
    fn unconsumed(&self) -> u64 {
        self.remaining + (self.len - self.pos) as u64
    }

    /// The next fresh target, skipping indices the range cannot produce
    /// (cyclic fringe sentinels included). A skipped index still consumed
    /// one walk position of the `max_targets` budget — walk positions are
    /// raw permutation steps, the unit the sub-shard split math divides.
    fn next_target(&mut self, range: &ScanRange) -> Option<Prefix> {
        while let Some(i) = self.next_index() {
            if i == u64::MAX {
                continue; // cyclic fringe sentinel: no target at this step
            }
            if let Some(target) = range.nth(i) {
                return Some(target);
            }
        }
        None
    }

    /// The next permuted index, or `None` once the shard walk or the
    /// target cap is exhausted.
    fn next_index(&mut self) -> Option<u64> {
        if self.pos == self.len {
            self.refill();
            if self.pos == self.len {
                return None;
            }
        }
        let i = self.buf[self.pos];
        self.pos += 1;
        self.consumed += 1;
        Some(i)
    }

    fn refill(&mut self) {
        self.pos = 0;
        self.len = 0;
        let want = (TARGET_CHUNK as u64).min(self.remaining) as usize;
        if want == 0 {
            return;
        }
        let out = &mut self.buf[..want];
        let n = match &mut self.stream {
            IndexStream::Cyclic(walk) => walk.fill_raw(out),
            IndexStream::Feistel {
                perm,
                next_pos,
                stride,
            } => {
                let n = perm.fill(*next_pos, *stride, out);
                *next_pos = (n as u64)
                    .checked_mul(*stride)
                    .and_then(|step| next_pos.checked_add(step))
                    .unwrap_or(u64::MAX);
                n
            }
            IndexStream::Sequential {
                next_pos,
                stride,
                len,
            } => {
                let mut n = 0;
                while n < out.len() && *next_pos < *len {
                    out[n] = *next_pos;
                    n += 1;
                    // On overflow the walk is past every valid position
                    // (positions are < len <= u64::MAX), so MAX terminates.
                    *next_pos = next_pos.checked_add(*stride).unwrap_or(u64::MAX);
                }
                n
            }
        };
        self.len = n;
        self.remaining -= n as u64;
    }

    /// The complete generator state for a checkpoint: permutation cursor,
    /// remaining target budget, and the chunk-buffer run-ahead (indices
    /// drawn from the stream but not yet consumed by the scan).
    fn capture(&self) -> (CursorState, u64, Vec<u64>) {
        let cursor = match &self.stream {
            IndexStream::Cyclic(walk) => {
                let (current, remaining_walk) = walk.position();
                CursorState::Cyclic {
                    current,
                    remaining_walk,
                }
            }
            IndexStream::Feistel { next_pos, .. } => CursorState::Feistel {
                next_pos: *next_pos,
            },
            IndexStream::Sequential { next_pos, .. } => CursorState::Sequential {
                next_pos: *next_pos,
            },
        };
        (
            cursor,
            self.remaining,
            self.buf[self.pos..self.len].to_vec(),
        )
    }

    /// Rebuilds a generator from checkpointed state (the configuration
    /// fingerprint guarantees `config`/`range` match what was captured).
    fn restore(config: &ScanConfig, range: &ScanRange, rs: &RunState) -> TargetGen {
        let mut gen = TargetGen::new(config, range);
        match (&mut gen.stream, &rs.cursor) {
            (
                IndexStream::Cyclic(walk),
                CursorState::Cyclic {
                    current,
                    remaining_walk,
                },
            ) => walk.set_position(*current, *remaining_walk),
            (IndexStream::Feistel { next_pos, .. }, CursorState::Feistel { next_pos: p }) => {
                *next_pos = *p;
            }
            (IndexStream::Sequential { next_pos, .. }, CursorState::Sequential { next_pos: p }) => {
                *next_pos = *p;
            }
            _ => panic!("checkpoint cursor does not match the configured permutation"),
        }
        let n = rs.pending_indices.len();
        assert!(
            n <= TARGET_CHUNK,
            "checkpoint carries {n} pending indices, generator chunk is {TARGET_CHUNK}"
        );
        gen.buf[..n].copy_from_slice(&rs.pending_indices);
        gen.pos = 0;
        gen.len = n;
        gen.remaining = rs.remaining;
        gen
    }
}

/// Entries `outstanding` may hold beyond twice the armed retries before
/// a quiescent slot boundary sweeps the dead ones out. Each sweep walks
/// the table once and leaves one entry per armed retry, so the next is
/// at least this many sends away: amortised O(1) per probe, over a table
/// that stays cache-sized however long the walk.
const RETIRE_SLACK: usize = 1024;

/// One sent probe whose answer can still matter: a reply to it may be in
/// flight, or a retry timer will ask whether it was answered.
#[derive(Debug, Clone, Copy)]
struct Outstanding {
    target: Prefix,
    attempt: u32,
    answered: bool,
    /// A timer in `Run::retries` names this probe as its `prev_dst`.
    retry_armed: bool,
    /// Run-local virtual tick the probe went out at (RTT measurement).
    sent_tick: u64,
    /// Walk position of the fresh probe this entry descends from. Not
    /// persisted in checkpoints (position-tracked runs never resume
    /// mid-unit); restores default it to zero.
    position: u64,
}

/// A retransmission parked in the timer heap, which owns its
/// `(due_tick, seq)` key — `seq` breaks ties deterministically.
#[derive(Debug, Clone, Copy)]
struct RetryTimer {
    target: Prefix,
    attempt: u32,
    prev_dst: Ip6,
    /// Walk position carried from the original fresh probe (see
    /// [`Outstanding::position`]).
    position: u64,
}

/// Everything one [`Scanner::run`] holds between send slots — the state
/// a mid-range checkpoint captures and a resume restores.
#[derive(Debug)]
struct Run {
    gen: TargetGen,
    /// Sent probes that are still live (see [`Run::retire_dead`]).
    outstanding: FxHashMap<Ip6, Outstanding>,
    /// The bounded retransmission backlog.
    retries: TimerHeap<RetryTimer>,
    answered: FxHashSet<Prefix>,
    /// Fresh targets drawn from the walk so far, in probe order (blocked
    /// ones included).
    probed: Vec<Prefix>,
    /// Walk position of each `probed` entry (parallel vector); filled
    /// only under position tracking.
    probed_positions: Vec<u64>,
    adaptive: Option<AdaptiveRateController>,
    base: MetricsBaseline,
    /// Scanner lifetime tick at which the range started.
    run_start_tick: u64,
    /// Run-local virtual tick: send slots completed since the range
    /// started.
    now: u64,
    /// Per-slot metrics, tallied locally and flushed at observation
    /// boundaries (monitor lines, every 1024 slots, checkpoints, run
    /// end) — see [`HotTally`].
    tally: HotTally,
    results: ScanResults,
}

impl Run {
    /// The state a range starts from.
    fn fresh<N>(scanner: &Scanner<N>, range: &ScanRange) -> Run {
        let config = &scanner.config;
        Run {
            gen: TargetGen::with_skip(config, range, scanner.walk_skip),
            outstanding: FxHashMap::default(),
            retries: TimerHeap::new(),
            answered: FxHashSet::default(),
            probed: Vec::new(),
            probed_positions: Vec::new(),
            adaptive: adaptive_controller(config),
            base: scanner.metrics.baseline(),
            run_start_tick: scanner.total_ticks,
            now: 0,
            tally: HotTally::default(),
            results: ScanResults::default(),
        }
    }

    /// Rebuilds the state captured by [`Run::capture`], under the records
    /// the journal already holds for the range. What the cut left out is
    /// derived: the answered targets are the targets of those records,
    /// and the probed ones are the first `probed_count` the range's walk
    /// delivers.
    fn restore<N>(scanner: &Scanner<N>, range: &ScanRange, resume: RunResume) -> Run {
        let config = &scanner.config;
        let rs = resume.state;
        let mut adaptive = adaptive_controller(config);
        if let (Some(ctrl), Some(a)) = (adaptive.as_mut(), rs.adaptive.as_ref()) {
            ctrl.restore_state(
                a.current_pps,
                a.sent,
                a.valid,
                a.baseline_bits.map(f64::from_bits),
            );
        }
        // Retries restore under their original sequence numbers, so the
        // heap pops in the captured order (keys are unique) and the
        // counter resumes where the killed run left it.
        let mut retries = TimerHeap::with_next_seq(rs.retry_seq);
        for r in &rs.retries {
            retries.insert_restored(
                r.due_tick,
                r.seq,
                RetryTimer {
                    target: r.target,
                    attempt: r.attempt,
                    prev_dst: r.prev_dst.into(),
                    position: 0,
                },
            );
        }
        let outstanding = rs.outstanding.iter().map(|o| {
            let restored = Outstanding {
                target: o.target,
                attempt: o.attempt,
                answered: o.answered,
                // A cut holds only the entries its retries name.
                retry_armed: true,
                sent_tick: o.sent_tick,
                position: 0,
            };
            (o.dst.into(), restored)
        });
        let mut walk = TargetGen::with_skip(config, range, scanner.walk_skip);
        let probed = (0..rs.probed_count)
            .map_while(|_| walk.next_target(range))
            .collect();
        Run {
            gen: TargetGen::restore(config, range, &rs),
            outstanding: outstanding.collect(),
            retries,
            answered: resume.records.iter().map(|r| r.target).collect(),
            probed,
            probed_positions: Vec::new(),
            adaptive,
            base: MetricsBaseline::from_raw(rs.baseline),
            run_start_tick: rs.run_start_tick,
            now: rs.now,
            tally: HotTally::default(),
            results: ScanResults {
                records: resume.records,
                ..ScanResults::default()
            },
        }
    }

    /// Pops the next due retransmission whose previous attempt is still
    /// unanswered (answered ones are suppressed silently). Either way the
    /// previous attempt stops being retry-armed.
    fn due_retry(&mut self) -> Option<RetryTimer> {
        while let Some((_due, _seq, retry)) = self.retries.pop_due(self.now) {
            let Some(prev) = self.outstanding.get_mut(&retry.prev_dst) else {
                continue;
            };
            prev.retry_armed = false;
            if !prev.answered {
                return Some(retry);
            }
        }
        None
    }

    /// Whether `outstanding` has outgrown its armed retries far enough
    /// for a sweep to pay (see [`RETIRE_SLACK`]).
    fn retire_due(&self) -> bool {
        self.outstanding.len() > 2 * self.retries.len() + RETIRE_SLACK
    }

    /// Drops every entry no retry timer names. Sound only while the
    /// transport reports `in_flight() == 0` — its promise that no reply
    /// to any probe sent so far is still to come — because then nothing
    /// but a timer can ever look these entries up again.
    fn retire_dead(&mut self) {
        self.outstanding.retain(|_, o| o.retry_armed);
    }

    /// The run in canonical (sorted) order for a checkpoint. The hash
    /// map and the heap have no stable iteration order of their own;
    /// sorting by destination / `(due_tick, seq)` makes checkpoint bytes
    /// deterministic. Callers [`retire_dead`](Run::retire_dead) first.
    fn capture(&self, run_wal_start: u64) -> RunState {
        let (cursor, remaining, pending_indices) = self.gen.capture();
        let mut outstanding: Vec<xmap_state::OutstandingEntry> = self
            .outstanding
            .iter()
            .map(|(dst, o)| xmap_state::OutstandingEntry {
                dst: dst.bits(),
                target: o.target,
                attempt: o.attempt,
                answered: o.answered,
                sent_tick: o.sent_tick,
            })
            .collect();
        outstanding.sort_by_key(|o| o.dst);
        let mut retries: Vec<xmap_state::RetryEntryState> = self
            .retries
            .iter()
            .map(|(due_tick, seq, r)| xmap_state::RetryEntryState {
                due_tick,
                seq,
                target: r.target,
                attempt: r.attempt,
                prev_dst: r.prev_dst.bits(),
            })
            .collect();
        retries.sort_by_key(|r| (r.due_tick, r.seq));
        RunState {
            now: self.now,
            run_start_tick: self.run_start_tick,
            run_wal_start,
            cursor,
            remaining,
            pending_indices,
            outstanding,
            retries,
            retry_seq: self.retries.next_seq(),
            probed_count: self.probed.len() as u64,
            adaptive: self.adaptive.as_ref().map(|c| {
                let (current_pps, sent, valid, baseline) = c.checkpoint_state();
                AdaptiveState {
                    current_pps,
                    sent,
                    valid,
                    baseline_bits: baseline.map(f64::to_bits),
                }
            }),
            baseline: self.base.to_raw(),
        }
    }
}

/// The AIMD controller a run paces by, when the configuration asks for
/// one (it needs a `rate_pps` budget to seed from).
fn adaptive_controller(config: &ScanConfig) -> Option<AdaptiveRateController> {
    config
        .adaptive_rate
        .then(|| config.rate_pps.map(AdaptiveRateController::standard))
        .flatten()
}

/// The probed destination a response packet speaks about.
fn probe_dst_of(resp: &Ipv6Packet) -> Ip6 {
    match &resp.payload {
        Payload::Icmp(Icmpv6::DestUnreachable { invoking, .. })
        | Payload::Icmp(Icmpv6::TimeExceeded { invoking }) => invoking.dst,
        // Echo replies and transport answers come from the probed address.
        _ => resp.src,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::probe::IcmpEchoProbe;
    use xmap_netsim::packet::{Icmpv6, Ipv6Packet, Payload};

    #[test]
    fn stats_merge_sums_counters_and_recomputes_hit_rate() {
        let mut a = ScanStats {
            sent: 1000,
            blocked: 3,
            received: 120,
            invalid: 20,
            valid: 100,
            retransmits: 50,
            rate_limited_suspected: 4,
            gave_up: 7,
            paced_secs: 0.25,
        };
        let b = ScanStats {
            sent: 3000,
            blocked: 1,
            received: 350,
            invalid: 50,
            valid: 300,
            retransmits: 10,
            rate_limited_suspected: 2,
            gave_up: 1,
            paced_secs: 0.75,
        };
        a.merge(&b);
        assert_eq!(a.sent, 4000);
        assert_eq!(a.blocked, 4);
        assert_eq!(a.received, 470);
        assert_eq!(a.invalid, 70);
        assert_eq!(a.valid, 400);
        assert_eq!(a.retransmits, 60);
        assert_eq!(a.rate_limited_suspected, 6);
        assert_eq!(a.gave_up, 8);
        assert!((a.paced_secs - 1.0).abs() < 1e-12);
        assert!((a.hit_rate() - 0.1).abs() < 1e-12);

        // Skewed sides: merged hit rate is the ratio of merged totals
        // (≈ 0.0909), not the mean of the per-side rates (0.3).
        let mut skew = ScanStats {
            sent: 100,
            valid: 50,
            ..ScanStats::default()
        };
        skew.merge(&ScanStats {
            sent: 1000,
            valid: 50,
            ..ScanStats::default()
        });
        assert!((skew.hit_rate() - 100.0 / 1100.0).abs() < 1e-12);
    }

    #[test]
    fn stats_merge_saturates_instead_of_wrapping() {
        let near_full = ScanStats {
            sent: u64::MAX - 1,
            blocked: u64::MAX,
            received: u64::MAX - 5,
            invalid: u64::MAX,
            valid: u64::MAX - 2,
            retransmits: u64::MAX,
            rate_limited_suspected: u64::MAX,
            gave_up: u64::MAX,
            paced_secs: 1.0,
        };
        let mut merged = near_full;
        merged.merge(&near_full);
        assert_eq!(merged.sent, u64::MAX);
        assert_eq!(merged.blocked, u64::MAX);
        assert_eq!(merged.received, u64::MAX);
        assert_eq!(merged.invalid, u64::MAX);
        assert_eq!(merged.valid, u64::MAX);
        assert_eq!(merged.retransmits, u64::MAX);
        assert_eq!(merged.rate_limited_suspected, u64::MAX);
        assert_eq!(merged.gave_up, u64::MAX);
        assert!((merged.paced_secs - 2.0).abs() < 1e-12);
        // Saturated counters still yield a sane (≤ 1) hit rate.
        assert!(merged.hit_rate() <= 1.0);
    }

    /// A toy network: even /64 indices host a responder that answers
    /// unreachable from a derived address; odd ones are silent.
    struct ToyNet {
        handled: u64,
    }

    impl Network for ToyNet {
        fn handle(&mut self, p: Ipv6Packet) -> Vec<Ipv6Packet> {
            self.handled += 1;
            let idx = p.dst.bit_slice(32, 64);
            if !idx.is_multiple_of(2) {
                return Vec::new();
            }
            vec![Ipv6Packet {
                src: p.dst.network(64).with_iid(0xbeef),
                dst: p.src,
                hop_limit: 60,
                payload: Payload::Icmp(Icmpv6::DestUnreachable {
                    code: xmap_netsim::packet::UnreachCode::AddressUnreachable,
                    invoking: p.quote(),
                }),
            }]
        }
    }

    fn range() -> ScanRange {
        "2001:100::/32-64".parse().unwrap()
    }

    #[test]
    fn scan_records_valid_responses() {
        let mut s = Scanner::new(
            ToyNet { handled: 0 },
            ScanConfig {
                max_targets: Some(1000),
                ..Default::default()
            },
        );
        let res = s.run(&range(), &IcmpEchoProbe, &Blocklist::allow_all());
        assert_eq!(res.stats.sent, 1000);
        // Half the targets respond.
        assert!(
            (420..=580).contains(&res.stats.valid),
            "{}",
            res.stats.valid
        );
        assert_eq!(res.stats.valid as usize, res.records.len());
        assert_eq!(res.stats.invalid, 0);
        for r in &res.records {
            assert!(matches!(r.result, ProbeResult::Unreachable { .. }));
            assert_eq!(r.responder.iid(), 0xbeef);
            assert!(r.target.contains(r.probe_dst));
        }
    }

    #[test]
    fn blocklist_skips_targets() {
        let mut bl = Blocklist::allow_all();
        bl.insert(
            "2001:100::/33".parse().unwrap(),
            crate::blocklist::Verdict::Deny,
        );
        let mut s = Scanner::new(
            ToyNet { handled: 0 },
            ScanConfig {
                max_targets: Some(1000),
                ..Default::default()
            },
        );
        let res = s.run(&range(), &IcmpEchoProbe, &bl);
        assert!(res.stats.blocked > 300, "{}", res.stats.blocked);
        assert_eq!(res.stats.blocked + res.stats.sent, 1000);
    }

    #[test]
    fn shards_cover_disjoint_targets() {
        let mut seen = std::collections::HashSet::new();
        for shard in 0..4 {
            let mut s = Scanner::new(
                ToyNet { handled: 0 },
                ScanConfig {
                    shard,
                    shards: 4,
                    max_targets: Some(250),
                    ..Default::default()
                },
            );
            let res = s.run(&range(), &IcmpEchoProbe, &Blocklist::allow_all());
            for r in res.records {
                assert!(seen.insert(r.target), "target probed twice: {}", r.target);
            }
        }
    }

    #[test]
    fn sequential_and_cyclic_find_same_population() {
        // Over the whole (tiny) space, probe order must not change findings.
        let tiny: ScanRange = "2001:100::/32-40".parse().unwrap(); // 256 targets
        let mut a = Scanner::new(
            ToyNet { handled: 0 },
            ScanConfig {
                permutation: Permutation::Cyclic,
                ..Default::default()
            },
        );
        let mut b = Scanner::new(
            ToyNet { handled: 0 },
            ScanConfig {
                permutation: Permutation::Sequential,
                ..Default::default()
            },
        );
        let mut c = Scanner::new(
            ToyNet { handled: 0 },
            ScanConfig {
                permutation: Permutation::Feistel,
                ..Default::default()
            },
        );
        let mut ra: Vec<_> = a
            .run(&tiny, &IcmpEchoProbe, &Blocklist::allow_all())
            .records;
        let mut rb: Vec<_> = b
            .run(&tiny, &IcmpEchoProbe, &Blocklist::allow_all())
            .records;
        let mut rc: Vec<_> = c
            .run(&tiny, &IcmpEchoProbe, &Blocklist::allow_all())
            .records;
        for r in [&mut ra, &mut rb, &mut rc] {
            r.sort_by_key(|x| x.target);
        }
        assert_eq!(ra, rb);
        assert_eq!(ra, rc);
    }

    #[test]
    fn rate_budget_is_accounted() {
        let mut s = Scanner::new(
            ToyNet { handled: 0 },
            ScanConfig {
                max_targets: Some(2500),
                rate_pps: Some(25_000),
                ..Default::default()
            },
        );
        let res = s.run(&range(), &IcmpEchoProbe, &Blocklist::allow_all());
        // 2500 probes at 25 kpps = 0.1 s.
        assert!(
            (res.stats.paced_secs - 0.1).abs() < 1e-9,
            "{}",
            res.stats.paced_secs
        );
    }

    #[test]
    fn run_all_keeps_every_ranges_silent_targets() {
        let ranges = [range(), "2001:200::/32-64".parse().unwrap()];
        let mut s = Scanner::new(
            ToyNet { handled: 0 },
            ScanConfig {
                max_targets: Some(64),
                record_silent: true,
                ..Default::default()
            },
        );
        let all = s.run_all(&ranges, &IcmpEchoProbe, &Blocklist::allow_all());
        // Every probed target either answered or is listed silent.
        assert_eq!(all.records.len() + all.silent_targets.len(), 128);
        for r in &ranges {
            assert!(
                all.silent_targets
                    .iter()
                    .any(|t| r.base().contains(t.addr())),
                "no silent target under {r:?} survived the merge"
            );
        }
    }

    #[test]
    fn probe_addr_targets_exact_destination() {
        let mut s = Scanner::new(ToyNet { handled: 0 }, ScanConfig::default());
        let dst: Ip6 = "2001:100:0:2::1".parse().unwrap(); // even index -> responds
        let out = s.probe_addr(dst, &IcmpEchoProbe, 64);
        assert_eq!(out.len(), 1);
        assert!(matches!(out[0].1, ProbeResult::Unreachable { .. }));
    }

    #[test]
    fn capture_is_sorted_whatever_the_insertion_order() {
        // The property that keeps checkpoint bytes independent of the hash
        // map's iteration order (and so of its hasher).
        let s = Scanner::new(ToyNet { handled: 0 }, ScanConfig::default());
        let n = 257u64;
        let reversed: Vec<u64> = (0..n).rev().collect();
        // 101 is coprime to 257, so this visits every index once.
        let shuffled: Vec<u64> = (0..n).map(|i| (i * 101 + 7) % n).collect();
        let mut captures = Vec::new();
        for order in [reversed, shuffled] {
            let mut run = Run::fresh(&s, &range());
            for &i in &order {
                let target = range().nth(i).unwrap();
                run.outstanding.insert(
                    fill_host_bits(target, i),
                    Outstanding {
                        target,
                        attempt: 0,
                        answered: i % 3 == 0,
                        retry_armed: true,
                        sent_tick: i,
                        position: i,
                    },
                );
            }
            let state = run.capture(0);
            assert_eq!(state.outstanding.len(), n as usize);
            assert!(state.outstanding.windows(2).all(|w| w[0].dst < w[1].dst));
            captures.push(state.outstanding);
        }
        assert_eq!(captures[0], captures[1]);
    }

    #[test]
    fn retries_recover_lost_responses() {
        /// Drops the first attempt to any /64 (seed-0 fill), answers
        /// retries.
        struct Flaky;
        impl Network for Flaky {
            fn handle(&mut self, p: Ipv6Packet) -> Vec<Ipv6Packet> {
                let first_attempt = p.dst
                    == crate::target::fill_host_bits(
                        xmap_addr::Prefix::new(p.dst.network(64), 64),
                        1,
                    );
                if first_attempt {
                    return Vec::new();
                }
                vec![Ipv6Packet {
                    src: p.dst.network(64).with_iid(0xbeef),
                    dst: p.src,
                    hop_limit: 60,
                    payload: Payload::Icmp(Icmpv6::DestUnreachable {
                        code: xmap_netsim::packet::UnreachCode::AddressUnreachable,
                        invoking: p.quote(),
                    }),
                }]
            }
        }
        let run = |k: u32| {
            let mut s = Scanner::new(
                Flaky,
                ScanConfig {
                    seed: 1,
                    max_targets: Some(100),
                    probes_per_target: k,
                    ..Default::default()
                },
            );
            s.run(&range(), &IcmpEchoProbe, &Blocklist::allow_all())
        };
        let one = run(1);
        assert_eq!(one.stats.valid, 0, "every first attempt is dropped");
        let two = run(2);
        assert_eq!(two.stats.valid, 100, "retries recover everything");
        assert_eq!(two.stats.sent, 200);
    }

    #[test]
    fn confidence_and_recovery_counters() {
        /// Answers only retransmissions (seed-1, attempt >= 1 fills).
        struct DropFirst;
        impl Network for DropFirst {
            fn handle(&mut self, p: Ipv6Packet) -> Vec<Ipv6Packet> {
                let first_attempt = p.dst
                    == crate::target::fill_host_bits(
                        xmap_addr::Prefix::new(p.dst.network(64), 64),
                        1,
                    );
                if first_attempt {
                    return Vec::new();
                }
                vec![Ipv6Packet {
                    src: p.dst.network(64).with_iid(0xbeef),
                    dst: p.src,
                    hop_limit: 60,
                    payload: Payload::Icmp(Icmpv6::DestUnreachable {
                        code: xmap_netsim::packet::UnreachCode::AddressUnreachable,
                        invoking: p.quote(),
                    }),
                }]
            }
        }
        let mut s = Scanner::new(
            DropFirst,
            ScanConfig {
                seed: 1,
                max_targets: Some(50),
                probes_per_target: 3,
                ..Default::default()
            },
        );
        let res = s.run(&range(), &IcmpEchoProbe, &Blocklist::allow_all());
        assert_eq!(res.stats.valid, 50);
        assert_eq!(res.stats.retransmits, 50, "one retry each, then answered");
        assert_eq!(res.stats.gave_up, 0);
        // Every answer came on the first retransmission and was an ICMPv6
        // error — the rate-limited signature.
        assert_eq!(res.stats.rate_limited_suspected, 50);
        assert!(res
            .records
            .iter()
            .all(|r| r.confidence == Confidence::Retry(1)));
    }

    #[test]
    fn gave_up_and_silent_targets_tracked() {
        // ToyNet: odd indices never answer.
        let run = |k: u32, record_silent: bool| {
            let mut s = Scanner::new(
                ToyNet { handled: 0 },
                ScanConfig {
                    max_targets: Some(200),
                    probes_per_target: k,
                    record_silent,
                    ..Default::default()
                },
            );
            s.run(&range(), &IcmpEchoProbe, &Blocklist::allow_all())
        };
        let single = run(1, true);
        assert_eq!(single.stats.gave_up, 0, "no retransmission attempted");
        let silent = single.silent_targets.len() as u64;
        assert_eq!(silent + single.stats.valid, 200);
        assert!(silent > 0);

        let retried = run(3, true);
        assert_eq!(
            retried.stats.gave_up, silent,
            "every silent target exhausted retries"
        );
        assert_eq!(retried.silent_targets, single.silent_targets);
        assert_eq!(retried.stats.retransmits, 2 * silent);

        let untracked = run(1, false);
        assert!(untracked.silent_targets.is_empty());
    }

    #[test]
    fn delayed_response_suppresses_retransmission() {
        /// Answers every probe, but 3 ticks late, through [`Network::tick`].
        struct SlowNet {
            clock: u64,
            queue: Vec<(u64, Ipv6Packet)>,
        }
        impl Network for SlowNet {
            fn handle(&mut self, p: Ipv6Packet) -> Vec<Ipv6Packet> {
                let resp = Ipv6Packet {
                    src: p.dst.network(64).with_iid(0xbeef),
                    dst: p.src,
                    hop_limit: 60,
                    payload: Payload::Icmp(Icmpv6::DestUnreachable {
                        code: xmap_netsim::packet::UnreachCode::AddressUnreachable,
                        invoking: p.quote(),
                    }),
                };
                self.queue.push((self.clock + 3, resp));
                Vec::new()
            }
            fn tick(&mut self, ticks: u64) -> Vec<Ipv6Packet> {
                self.clock += ticks;
                let clock = self.clock;
                let (due, rest): (Vec<_>, Vec<_>) = std::mem::take(&mut self.queue)
                    .into_iter()
                    .partition(|(d, _)| *d <= clock);
                self.queue = rest;
                due.into_iter().map(|(_, p)| p).collect()
            }
            fn in_flight(&self) -> usize {
                self.queue.len()
            }
        }
        let mut s = Scanner::new(
            SlowNet {
                clock: 0,
                queue: Vec::new(),
            },
            ScanConfig {
                max_targets: Some(100),
                probes_per_target: 3,
                ..Default::default()
            },
        );
        let res = s.run(&range(), &IcmpEchoProbe, &Blocklist::allow_all());
        // Every answer lands before the 8-tick RTO: no retransmissions.
        assert_eq!(res.stats.sent, 100);
        assert_eq!(res.stats.retransmits, 0);
        assert_eq!(res.stats.valid, 100);
        assert!(res
            .records
            .iter()
            .all(|r| r.confidence == Confidence::FirstTry));
        for r in &res.records {
            assert!(
                r.target.contains(r.probe_dst),
                "late response attributed to its target"
            );
        }
    }

    /// Answers only the probes it handles at the indices in `answer`
    /// (0-based, in send order), and each of those `hold` ticks late:
    /// `in_flight()` stays positive for as long as a reply is held.
    struct HoldNet {
        answer: &'static [u64],
        hold: u64,
        handled: u64,
        clock: u64,
        held: Vec<(u64, Ipv6Packet)>,
    }

    impl HoldNet {
        fn new(answer: &'static [u64], hold: u64) -> Self {
            HoldNet {
                answer,
                hold,
                handled: 0,
                clock: 0,
                held: Vec::new(),
            }
        }
    }

    impl Network for HoldNet {
        fn handle(&mut self, p: Ipv6Packet) -> Vec<Ipv6Packet> {
            if self.answer.contains(&self.handled) {
                let reply = Ipv6Packet {
                    src: p.dst.network(64).with_iid(0xbeef),
                    dst: p.src,
                    hop_limit: 60,
                    payload: Payload::Icmp(Icmpv6::DestUnreachable {
                        code: xmap_netsim::packet::UnreachCode::AddressUnreachable,
                        invoking: p.quote(),
                    }),
                };
                self.held.push((self.clock + self.hold, reply));
            }
            self.handled += 1;
            Vec::new()
        }
        fn tick(&mut self, ticks: u64) -> Vec<Ipv6Packet> {
            self.clock += ticks;
            let clock = self.clock;
            let (due, rest): (Vec<_>, Vec<_>) = std::mem::take(&mut self.held)
                .into_iter()
                .partition(|(d, _)| *d <= clock);
            self.held = rest;
            due.into_iter().map(|(_, p)| p).collect()
        }
        fn in_flight(&self) -> usize {
            self.held.len()
        }
    }

    #[test]
    fn nothing_is_retired_while_a_reply_is_in_flight() {
        // The first probe's reply is held for 3000 slots. No timer names
        // the probe and `outstanding` passes the sweep threshold 1025
        // sends in, yet the entry must outlive the wait: the reply is
        // recorded, not tallied unattributable.
        let mut s = Scanner::new(
            HoldNet::new(&[0], 3000),
            ScanConfig {
                max_targets: Some(4000),
                ..Default::default()
            },
        );
        let res = s.run(&range(), &IcmpEchoProbe, &Blocklist::allow_all());
        assert_eq!(res.stats.sent, 4000);
        assert_eq!(res.stats.invalid, 0);
        assert_eq!(res.stats.valid, 1);
        assert_eq!(res.records[0].confidence, Confidence::FirstTry);
    }

    #[test]
    fn retry_armed_entries_survive_the_sweep() {
        // A backlog of two arms a retry for the first two probes only.
        // The first one's answer lands 2000 slots late — before its
        // 4000-slot timer — and the second is answered on retransmission
        // alone (the 3001st probe handled). Once the late answer is in,
        // nothing is in flight and 2000 entries sit in `outstanding`, so
        // the sweep runs with both timers still armed. Had it dropped
        // their entries, neither timer would find its previous attempt
        // and the second target's retransmission would never go out.
        let mut s = Scanner::new(
            HoldNet::new(&[0, 3000], 2000),
            ScanConfig {
                max_targets: Some(3000),
                probes_per_target: 2,
                max_retry_backlog: 2,
                rto_ticks: 4000,
                ..Default::default()
            },
        );
        let res = s.run(&range(), &IcmpEchoProbe, &Blocklist::allow_all());
        assert_eq!(
            res.stats.retransmits, 1,
            "the answered one is suppressed, the silent one retried"
        );
        assert_eq!(res.stats.sent, 3001);
        assert_eq!(res.stats.invalid, 0);
        let confidences: Vec<Confidence> = res.records.iter().map(|r| r.confidence).collect();
        assert_eq!(confidences, [Confidence::FirstTry, Confidence::Retry(1)]);
        assert_eq!(res.stats.gave_up, 2998);
    }

    #[test]
    fn retry_backlog_is_bounded() {
        let mut s = Scanner::new(
            ToyNet { handled: 0 },
            ScanConfig {
                max_targets: Some(100),
                probes_per_target: 2,
                max_retry_backlog: 0,
                ..Default::default()
            },
        );
        let res = s.run(&range(), &IcmpEchoProbe, &Blocklist::allow_all());
        // Backlog of zero: every would-be retry abandoned immediately, so
        // the silent half of the space is given up without retransmission.
        assert_eq!(res.stats.retransmits, 0);
        assert_eq!(res.stats.sent, 100);
        assert!(res.stats.gave_up > 30, "{}", res.stats.gave_up);
        assert_eq!(res.stats.gave_up, 100 - res.stats.valid);
    }

    #[test]
    fn adaptive_rate_paces_no_faster_than_fixed() {
        let fixed = {
            let mut s = Scanner::new(
                ToyNet { handled: 0 },
                ScanConfig {
                    max_targets: Some(2500),
                    rate_pps: Some(25_000),
                    ..Default::default()
                },
            );
            s.run(&range(), &IcmpEchoProbe, &Blocklist::allow_all())
        };
        let adaptive = {
            let mut s = Scanner::new(
                ToyNet { handled: 0 },
                ScanConfig {
                    max_targets: Some(2500),
                    rate_pps: Some(25_000),
                    adaptive_rate: true,
                    ..Default::default()
                },
            );
            s.run(&range(), &IcmpEchoProbe, &Blocklist::allow_all())
        };
        // The controller never exceeds the configured budget, so the
        // accounted duration can only stretch.
        assert!(adaptive.stats.paced_secs >= fixed.stats.paced_secs - 1e-9);
        assert_eq!(adaptive.stats.valid, fixed.stats.valid);
    }

    #[test]
    fn hit_rate_math() {
        let stats = ScanStats {
            sent: 200,
            valid: 50,
            ..Default::default()
        };
        assert!((stats.hit_rate() - 0.25).abs() < 1e-12);
        assert_eq!(ScanStats::default().hit_rate(), 0.0);
    }

    #[test]
    fn telemetry_registry_is_source_of_truth() {
        let telemetry = Telemetry::with_tracing();
        let mut s = Scanner::with_telemetry(
            ToyNet { handled: 0 },
            ScanConfig {
                max_targets: Some(500),
                probes_per_target: 2,
                ..Default::default()
            },
            telemetry.clone(),
        );
        let res = s.run(&range(), &IcmpEchoProbe, &Blocklist::allow_all());
        let snap = telemetry.registry.snapshot();
        // The stats view and the registry agree exactly.
        assert_eq!(snap.counter("scan.sent"), res.stats.sent);
        assert_eq!(snap.counter("scan.valid"), res.stats.valid);
        assert_eq!(snap.counter("scan.retransmits"), res.stats.retransmits);
        assert_eq!(snap.counter("scan.gave_up"), res.stats.gave_up);
        assert_eq!(
            snap.gauges["scan.hit_rate_ppm"],
            res.stats.valid * 1_000_000 / res.stats.sent
        );
        // One RTT observation per valid response; backoffs recorded for
        // every scheduled retry.
        let rtt = &snap.histograms["scan.rtt_ticks"];
        assert_eq!(rtt.count, res.stats.valid);
        assert!(snap.histograms["scan.backoff_ticks"].count > 0);
        // The trace ring saw sends, receives and the run span.
        let spans: std::collections::HashSet<&str> =
            telemetry.tracer.events().iter().map(|e| e.span).collect();
        for span in ["scan.send", "scan.recv", "scan.run"] {
            assert!(spans.contains(span), "missing {span}");
        }
    }

    #[test]
    fn monitor_emits_status_lines_on_virtual_clock() {
        let telemetry = Telemetry::new();
        let mut s = Scanner::with_telemetry(
            ToyNet { handled: 0 },
            ScanConfig {
                max_targets: Some(1000),
                ..Default::default()
            },
            telemetry.clone(),
        );
        let buf = std::sync::Arc::new(std::sync::Mutex::new(Vec::new()));
        s.set_monitor(
            xmap_telemetry::Monitor::new(&telemetry.registry, 100, 100)
                .with_sink(xmap_telemetry::MonitorSink::Buffer(buf.clone())),
        );
        s.run(&range(), &IcmpEchoProbe, &Blocklist::allow_all());
        let lines = buf.lock().unwrap().clone();
        // 1000 send slots at one tick each, one line per 100 ticks.
        assert_eq!(lines.len(), 10, "{lines:?}");
        assert!(lines[0].contains("send: 100 "), "{}", lines[0]);
        assert!(lines[9].contains("send: 1000 "), "{}", lines[9]);
    }

    #[test]
    #[should_panic(expected = "shard index out of range")]
    fn bad_shard_config_rejected() {
        Scanner::new(
            ToyNet { handled: 0 },
            ScanConfig {
                shard: 2,
                shards: 2,
                ..Default::default()
            },
        );
    }
}

//! The scan loop: permutation → probe → validate → record.
//!
//! Mirrors XMap's architecture: a target generator walks a random
//! permutation of the scan space, one send loop builds probes against an
//! accounted rate budget, responses are validated statelessly and recorded. The
//! loop drives any [`Network`] directly — `handle_into` per probe,
//! `tick_into` per slot, replies classified straight out of the
//! network's buffer — and parks retransmissions in per-attempt FIFO lanes
//! (`RetryLanes`), so a backend other than the simulator is a type
//! parameter away, not a second loop.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use xmap_addr::{FxHashMap, FxHashSet, Ip6, Prefix, ScanRange};
use xmap_netsim::packet::{Icmpv6, Ipv6Packet, Network, Payload};
use xmap_state::{AbortSignal, CursorState, RunState};
use xmap_telemetry::{Monitor, Snapshot, Telemetry, Tracer};

use crate::blocklist::Blocklist;
use crate::checkpoint::{RangeMode, RunResume, RunSink};
use crate::cyclic::Cycle;
use crate::feistel::FeistelPermutation;
use crate::probe::{ProbeModule, ProbeResult};
use crate::retry::RetryLanes;
use crate::target::fill_host_bits;
use crate::telemetry::{names, HotTally, MetricsBaseline, ScanMetrics};
use crate::validate::Validator;
use crate::walk::{IndexWalk, SplitUnit};

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
    /// Packets-per-second budget; `None` = unlimited. The budget is
    /// accounted, not slept: each probe adds `1/rate` s to
    /// `scan.paced_nanos` (see [`ScanStats::paced_secs`]).
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
/// the registry is the single source of truth (a [`Targeted`] session
/// counts through the same handles and reports its own counts).
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
    /// Walk positions of `records` (parallel vector): for record `i`
    /// found at the unit's `j`-th position, `unit.position(j)`, a
    /// position of the slot's walk. Populated only by
    /// [`Scanner::run_unit`]; the intra-block split executor uses them as
    /// merge keys.
    pub record_positions: Vec<u64>,
    /// Walk positions of `silent_targets` (parallel vector), in the same
    /// coordinates; populated only by [`Scanner::run_unit`].
    pub silent_positions: Vec<u64>,
    /// Permutation indices consumed from this run's unit (every index
    /// drawn from the generator, whether or not the range produced a
    /// target for it — the unit the `max_targets` budget and a
    /// [`SplitUnit`]'s `cap` are counted in).
    pub consumed: u64,
    /// The run stopped at its [`YieldGate`] with walk budget left (only
    /// [`Scanner::run_unit`] takes one): records, silence and stats
    /// cover the consumed prefix exactly as a standalone run over that
    /// prefix would; the remainder was never drawn.
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

/// A campaign worker's cooperative split point, armed for one
/// [`Scanner::run_unit`]. Once the gate fires, the scanner stops drawing
/// fresh targets at the next slot boundary, drains in-flight state,
/// finishes end-of-run accounting for the consumed prefix, and returns
/// with [`ScanResults::yielded`] — the executor then splits the
/// unconsumed remainder across idle workers. A run never yields before
/// consuming at least one index (so repeated splits always terminate),
/// and a run whose walk is already exhausted completes normally.
#[derive(Debug, Clone)]
pub struct YieldGate {
    /// Set by an idle executor worker to ask for a split.
    pub flag: Arc<AtomicBool>,
    /// The flag is ignored unless at least this many walk positions
    /// remain (splitting a nearly-done run is pure overhead).
    pub min_remaining: u64,
    /// Deterministic forced yield: fire once `consumed` reaches this
    /// count, flag or not (the test/CI split point).
    pub force_at: Option<u64>,
}

impl YieldGate {
    /// Whether the gate fires at this slot boundary.
    fn is_due(&self, gen: &TargetGen) -> bool {
        let remaining = gen.unconsumed();
        if gen.consumed == 0 || remaining == 0 {
            return false;
        }
        self.force_at.is_some_and(|at| gen.consumed >= at)
            || (remaining >= self.min_remaining && self.flag.load(Ordering::Relaxed))
    }
}

/// A second-chance pass over targets an earlier run left silent, for
/// [`Scanner::run_second_chance`].
#[derive(Debug, Clone, Copy)]
pub struct SecondChance<'l> {
    /// `(position, target)` pairs, probed in this order.
    pub targets: &'l [(u64, Prefix)],
    /// Each target's one probe goes to `fill_host_bits(target, host_seed)`.
    pub host_seed: u64,
}

/// What one run walks and reports: [`Scanner::run`] walks the slot's
/// whole unit, [`Scanner::run_unit`] any unit of it, and
/// [`Scanner::run_second_chance`] a list.
struct Walk<'g> {
    /// The positions of the slot's walk this run owns.
    unit: SplitUnit,
    /// Keep the silent list.
    record_silent: bool,
    /// Report record and silent positions.
    positions: bool,
    gate: Option<&'g YieldGate>,
    /// Walk this list instead of `unit`.
    second_chance: Option<SecondChance<'g>>,
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
    /// The network the run loop and targeted sessions drive.
    network: N,
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
}

impl<N: Network> Scanner<N> {
    /// Creates a scanner over a network with private telemetry (live
    /// counters, tracing off).
    ///
    /// # Panics
    ///
    /// Panics on the configurations [`with_telemetry`](Self::with_telemetry)
    /// refuses.
    pub fn new(network: N, config: ScanConfig) -> Self {
        Scanner::with_telemetry(network, config, Telemetry::new())
    }

    /// Creates a scanner counting into a shared [`Telemetry`] bundle, so
    /// monitors, snapshot exports and other components observe this
    /// scanner's metrics.
    ///
    /// # Panics
    ///
    /// Panics if `config.shards == 0` or `config.shard >= config.shards`,
    /// or if the last retransmission's backoff,
    /// `rto_ticks << (probes_per_target − 1)`, does not fit in a `u64`.
    pub fn with_telemetry(network: N, config: ScanConfig, telemetry: Telemetry) -> Self {
        assert!(config.shards > 0, "shards must be nonzero");
        assert!(config.shard < config.shards, "shard index out of range");
        let last = config.probes_per_target.max(1) - 1;
        assert!(
            config
                .rto_ticks
                .checked_shl(last)
                .is_some_and(|backoff| backoff >> last == config.rto_ticks),
            "rto_ticks << (probes_per_target - 1) overflows u64"
        );
        let validator = Validator::new(config.seed ^ 0x5ca1_ab1e);
        let metrics = ScanMetrics::bind(&telemetry.registry);
        Scanner {
            network,
            config,
            validator,
            telemetry,
            metrics,
            monitor: None,
            total_ticks: 0,
            sink: None,
            durability_flagged: false,
            abort: None,
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

    /// Whether a checkpoint sink is attached.
    pub(crate) fn has_sink(&self) -> bool {
        self.sink.is_some()
    }

    /// Sets the scanner's lifetime tick count and the network's virtual
    /// clock: the resume path's first step, before any run. Jumping both
    /// ahead idles the network without ticking it (the mop-up's refill
    /// delay before [`run_second_chance`](Self::run_second_chance)).
    pub fn restore_clock(&mut self, tick: u64) {
        self.total_ticks = tick;
        self.network.restore_clock(tick);
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

    /// The configuration in effect.
    pub fn config(&self) -> &ScanConfig {
        &self.config
    }

    /// The stateless validator (shared with helper probes).
    pub fn validator(&self) -> &Validator {
        &self.validator
    }

    /// Borrows the underlying network.
    pub fn network_mut(&mut self) -> &mut N {
        &mut self.network
    }

    /// Consumes the scanner, returning the network.
    pub fn into_network(self) -> N {
        self.network
    }

    /// Opens a targeted-probing session: single probes to explicit
    /// destinations (loop detection, application grabs, alias checks,
    /// adaptive sampling) counted into [`Scanner::run`]'s `scan.*`
    /// metrics, but published once, when the session ends. See [`Targeted`].
    pub fn targeted(&mut self) -> Targeted<'_, N> {
        Targeted {
            scanner: self,
            tally: HotTally::default(),
            lapped: ScanStats::default(),
            scratch: Vec::new(),
        }
    }

    /// Scans one range with a probe module, honouring the blocklist.
    ///
    /// Runs the full loss-recovery pipeline on a virtual clock (one tick
    /// per send slot, forwarded to the network via [`Network::tick_into`]):
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
        self.run_inner(range, module, blocklist, self.slot_walk(), None)
    }

    /// Scans one [`SplitUnit`] of the slot's walk: the positions
    /// `{unit.offset + j·unit.stride : j < unit.cap}` of this scanner's
    /// `(shard, shards)` walk, i.e. `unit` nested in the slot
    /// ([`SplitUnit::nested_in`]). [`run`](Self::run) walks the slot's
    /// whole unit, `SplitUnit::whole(max_targets)`; the campaign walks
    /// one block per unit, split or not, through this method.
    ///
    /// `record_silent` keeps [`ScanResults::silent_targets`] for this
    /// run whatever the configuration says. Record and silent positions
    /// are reported in the slot's walk (`unit.position(j)`), the
    /// campaign's merge keys. An armed `gate` can stop the walk early
    /// (see [`YieldGate`]); [`ScanResults::consumed`] then tells the
    /// caller where to split the remainder.
    pub fn run_unit(
        &mut self,
        range: &ScanRange,
        module: &dyn ProbeModule,
        blocklist: &Blocklist,
        unit: SplitUnit,
        record_silent: bool,
        gate: Option<&YieldGate>,
    ) -> ScanResults {
        let walk = Walk {
            unit,
            record_silent,
            positions: true,
            gate,
            second_chance: None,
        };
        self.run_inner(range, module, blocklist, walk, None)
    }

    /// Scans a [`SecondChance`] over targets of `range` that stayed
    /// silent in an earlier run (the campaign's mop-up pass) through
    /// [`run`](Self::run)'s loop. Each target's one probe counts as its
    /// retransmission, and its first ICMPv6 error answer in
    /// `scan.rate_limited_suspected`; no retry follows, no target counts
    /// as given up. Records carry their listed positions in
    /// [`ScanResults::record_positions`].
    ///
    /// # Panics
    ///
    /// Panics with a checkpoint sink attached (a list is not a resumable
    /// walk), or if a target lies outside `range`.
    pub fn run_second_chance(
        &mut self,
        range: &ScanRange,
        module: &dyn ProbeModule,
        blocklist: &Blocklist,
        pass: SecondChance<'_>,
    ) -> ScanResults {
        assert!(self.sink.is_none(), "a second chance takes no checkpoint");
        let walk = Walk {
            record_silent: false,
            positions: true,
            second_chance: Some(pass),
            ..self.slot_walk()
        };
        self.run_inner(range, module, blocklist, walk, None)
    }

    /// The walk [`run`](Self::run) and checkpointed runs cover: the
    /// slot's first `max_targets` positions, nothing reported beyond
    /// what the configuration asks for.
    fn slot_walk(&self) -> Walk<'static> {
        Walk {
            unit: SplitUnit::whole(self.config.max_targets.unwrap_or(u64::MAX)),
            record_silent: self.config.record_silent,
            positions: false,
            gate: None,
            second_chance: None,
        }
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
                self.run_inner(range, module, blocklist, self.slot_walk(), None)
            }
            RangeMode::Resume(resume) => {
                if let Some(sink) = self.sink.as_mut() {
                    sink.begin_range(range_index, Some(resume.state.run_wal_start));
                }
                self.run_inner(range, module, blocklist, self.slot_walk(), Some(*resume))
            }
        }
    }

    fn run_inner(
        &mut self,
        range: &ScanRange,
        module: &dyn ProbeModule,
        blocklist: &Blocklist,
        walk: Walk<'_>,
        resume: Option<RunResume>,
    ) -> ScanResults {
        // Pacing is accounted, not slept: the simulator answers
        // instantly, so each send adds its share of the budget instead.
        let pace_nanos = self
            .config
            .rate_pps
            .map_or(0, |pps| 1_000_000_000 / pps.max(1));
        // Attempt `a` fills host bits from `host_seed + a`: a second chance
        // sends only attempt 1 (not retried, so none is given up on).
        let (first_attempt, attempts, host_seed) = match &walk.second_chance {
            None => (0, self.config.probes_per_target.max(1), self.config.seed),
            Some(pass) => (1, 1, pass.host_seed.wrapping_sub(1)),
        };
        // Every destination lies inside the range's base prefix, so the
        // blocklist walk over the base's bits is done once, here.
        let blocklist = blocklist.scope(range.base());
        let unit = walk.unit.nested_in(self.config.shard, self.config.shards);
        let track_silent = walk.positions && walk.record_silent;
        let mut run = match resume {
            None => Run::fresh(self, range, &walk, unit),
            // Mid-range resume: the journal replayed the records emitted
            // before the checkpoint; every run local restarts from the
            // captured state, so the loop below re-executes the tail of
            // the range exactly as the killed run would have continued it.
            Some(r) => Run::restore(self, range, unit, r),
        };
        // Records already durable in the journal; everything past this
        // index still needs journalling.
        let mut journaled = run.results.records.len();
        let mut replies: Vec<Ipv6Packet> = Vec::new();
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
            if run.retire_due() && self.network.in_flight() == 0 {
                run.retire_dead();
            }
            // Cooperative split point: once the gate fires, stop drawing
            // fresh targets and fall through to the drain branch, so the
            // consumed prefix completes exactly as a standalone run over
            // that prefix would.
            if !yielding && walk.gate.is_some_and(|gate| gate.is_due(&run.gen)) {
                yielding = true;
            }
            // One send slot: a due retransmission wins over a fresh target.
            let job = if let Some(retry) = run.due_retry(|| self.network.in_flight() == 0) {
                Some((retry.target, retry.attempt, retry.position))
            } else if let Some((index, target)) =
                (!yielding).then(|| run.gen.next_target(range)).flatten()
            {
                let position = run.gen.consumed - 1;
                run.probed.push(index);
                if track_silent {
                    run.probed_positions.push(position);
                }
                Some((target, first_attempt, position))
            } else if !run.retries.is_empty() || self.network.in_flight() > 0 {
                // Fresh walk done: drain timers and in-flight responses
                // without sending.
                None
            } else {
                break;
            };

            if let Some((target, attempt, position)) = job {
                // Fresh host bits per attempt: a lost exchange is retried
                // on a new (deterministically lossy) path.
                let dst = fill_host_bits(target, host_seed.wrapping_add(attempt as u64));
                if !blocklist.is_allowed(dst) {
                    run.tally.blocked += 1;
                    continue;
                }
                run.tally.paced_nanos += pace_nanos;
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
                let retry_armed = attempt + 1 < attempts && run.retries.len() < MAX_RETRY_BACKLOG;
                let mut sent = (
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
                self.network.handle_into(probe, &mut replies);
                // First poll of the slot: immediate replies, stamped with
                // the send tick, attributed to the slot-local entry first.
                if !replies.is_empty() {
                    self.absorb(run.now, &mut replies, module, &mut run, Some(&mut sent));
                }
                // With nothing in flight no reply to this probe is still to
                // come, so its answer is settled and its retry carries it.
                // Otherwise the entry joins the in-flight index, where later
                // replies and its retry look it up.
                let in_flight = self.network.in_flight() > 0;
                if retry_armed {
                    let backoff = self.config.rto_ticks << attempt;
                    run.tally.arm(attempt as usize, backoff);
                    run.retries.arm(
                        attempt as usize,
                        run.now + backoff,
                        RetryTimer {
                            target,
                            attempt: attempt + 1,
                            prev_dst: dst,
                            settled: (!in_flight).then_some(sent.1.answered),
                            position,
                        },
                    );
                }
                if in_flight {
                    run.outstanding.insert(sent.0, sent.1);
                }
            }

            self.network.tick_into(1, &mut replies);
            run.now += 1;
            self.total_ticks += 1;
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
            if !replies.is_empty() {
                self.absorb(run.now, &mut replies, module, &mut run, None);
            }
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
        self.network.flush_telemetry();
        let mut results = run.results;
        results.consumed = run.gen.consumed;
        results.yielded = yielding && !results.interrupted && run.gen.unconsumed() > 0;
        for j in &mut results.record_positions {
            *j = match &walk.second_chance {
                Some(pass) => pass.targets[*j as usize].0,
                None => walk.unit.position(*j),
            };
        }

        if results.interrupted {
            // Partial run: report the delta so far and leave the last
            // durable checkpoint as the resume point. Per-target
            // give-up/silence accounting only makes sense for a range
            // that actually finished.
            results.stats = self.metrics.stats_since(&run.base);
            return results;
        }

        // Every answered target was probed, and every probed one was
        // drawn once, so the targets given up on number probed − answered.
        debug_assert!(run.answered.len() <= run.probed.len());
        let gave_up = (run.probed.len() - run.answered.len()) as u64;
        if attempts > 1 && gave_up > 0 {
            self.metrics.gave_up.add(gave_up);
        }
        // The silent list names them, in deterministic probe order.
        if walk.record_silent {
            for (i, &index) in run.probed.iter().enumerate() {
                let target = range.nth(index).expect("logged indices lie in the range");
                if run.answered.contains(&target) {
                    continue;
                }
                results.silent_targets.push(target);
                if track_silent {
                    let j = run.probed_positions[i];
                    results.silent_positions.push(walk.unit.position(j));
                }
            }
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
    /// attached and the network owes no reply (a snapshot taken with
    /// responses in flight could not be replayed deterministically —
    /// the attempt is simply retried next slot).
    fn checkpoint_now(&mut self, run: &mut Run) {
        if self.sink.is_none() || self.network.in_flight() > 0 {
            return;
        }
        // The snapshot must carry everything counted so far: flush the
        // local tallies and any batched network-side telemetry first.
        run.tally.flush(&self.metrics);
        self.network.flush_telemetry();
        let snap = self.telemetry.registry.snapshot();
        let sink = self.sink.as_mut().expect("sink presence checked above");
        // Unconditionally, so that a cut holds exactly the entries its
        // retries name whatever the sweep cadence before it was.
        run.retire_dead();
        let state = run.capture(sink.run_wal_start(), self.config.rto_ticks);
        sink.write_checkpoint(self.total_ticks, snap, Some(state));
    }

    /// Classifies the replies that arrived at run-local tick `tick`
    /// (draining `batch`), attributing each reply back to its probe
    /// through the response itself (stateless, like the C scanner: echo
    /// replies carry the probed address as their source, ICMPv6 errors
    /// quote it in the invoking packet). RTTs and trace stamps come from
    /// `tick`. A reply to `slot`, the probe just sent and not yet in
    /// `outstanding`, is attributed to it.
    fn absorb(
        &mut self,
        tick: u64,
        batch: &mut Vec<Ipv6Packet>,
        module: &dyn ProbeModule,
        run: &mut Run,
        mut slot: Option<&mut (Ip6, Outstanding)>,
    ) {
        // Trace events are stamped with the *lifetime* tick: translate
        // the run-local arrival tick by the current offset.
        let trace_tick = self.total_ticks.wrapping_sub(run.now).wrapping_add(tick);
        for resp in batch.drain(..) {
            run.tally.received += 1;
            match module.classify(&resp, &self.validator) {
                ProbeResult::Invalid => run.tally.invalid += 1,
                result => {
                    let probe_dst = probe_dst_of(&resp);
                    let out = match slot.as_deref_mut() {
                        Some((dst, out)) if *dst == probe_dst => out,
                        _ => match run.outstanding.get_mut(&probe_dst) {
                            Some(out) => out,
                            None => {
                                // Validated but unattributable: a duplicate
                                // of a probe sent outside this run, or a
                                // reply that outlived the network's
                                // `in_flight() == 0` promise and found its
                                // entry dropped. Not ours to record.
                                run.tally.invalid += 1;
                                continue;
                            }
                        },
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
                    let rtt = tick.saturating_sub(out.sent_tick);
                    if rtt == 0 {
                        // Same-slot answers dominate; batch them and flush
                        // through `Histogram::record_n`.
                        run.tally.rtt_zero += 1;
                    } else {
                        self.metrics.rtt_ticks.record(rtt);
                    }
                    if self.telemetry.tracer.is_enabled() {
                        self.telemetry.tracer.event(
                            trace_tick,
                            "scan.recv",
                            vec![
                                ("rtt_ticks", rtt.into()),
                                ("attempt", (out.attempt as u64).into()),
                            ],
                        );
                    }
                    run.answered.insert(out.target);
                    if run.report_positions {
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
    walk: IndexWalk,
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

/// The index-space length a range's walk covers.
fn walk_len(range: &ScanRange) -> u64 {
    u64::try_from(range.space_size().min(u64::MAX as u128)).unwrap_or(u64::MAX)
}

/// How many of the positions `next, next + stride, …` lie below `len`:
/// the count of a sequential walk (re)started at `next`.
fn positions_below(next: u64, stride: u64, len: u64) -> u64 {
    if next < len {
        (len - 1 - next) / stride + 1
    } else {
        0
    }
}

impl TargetGen {
    /// The generator for `unit`, a unit of the base permutation's walk
    /// (a slot's unit [`nested_in`](SplitUnit::nested_in) the slot): it
    /// walks shard `unit.shard()` of `unit.stride`, transparently
    /// discarding the first `unit.walk_skip()` positions — O(skip) index
    /// draws, uniform across all three permutation streams — and stops
    /// after `unit.cap` more. `consumed` counts from zero after the skip.
    fn new(config: &ScanConfig, range: &ScanRange, unit: SplitUnit) -> Self {
        let len = walk_len(range);
        let (shard, shards, skip) = (unit.shard(), unit.stride, unit.walk_skip());
        let walk = match config.permutation {
            Permutation::Cyclic => {
                IndexWalk::Cyclic(Cycle::new(len, config.seed).iter_shard(shard, shards))
            }
            Permutation::Feistel => IndexWalk::Feistel {
                perm: FeistelPermutation::new(len, config.seed),
                next_pos: shard,
                stride: shards,
            },
            Permutation::Sequential => {
                IndexWalk::strided(shard, shards, positions_below(shard, shards, len))
            }
        };
        let mut gen = TargetGen::over(walk, unit.cap.saturating_add(skip));
        for _ in 0..skip {
            if gen.next_index().is_none() {
                break;
            }
        }
        gen.consumed = 0;
        gen
    }

    /// The generator over a second chance's list: it draws each target's
    /// range index in list order, so walk position `j` is entry `j`.
    fn listed(range: &ScanRange, targets: &[(u64, Prefix)]) -> Self {
        let index = |t: &Prefix| range.index_of(t.addr()).expect("target in range");
        let indices: Vec<u64> = targets.iter().map(|(_, t)| index(t)).collect();
        TargetGen::over(IndexWalk::Listed(indices.into_iter()), targets.len() as u64)
    }

    /// A generator drawing at most `budget` indices from `walk`.
    fn over(walk: IndexWalk, budget: u64) -> Self {
        TargetGen {
            walk,
            remaining: budget,
            buf: [0; TARGET_CHUNK],
            len: 0,
            pos: 0,
            consumed: 0,
        }
    }

    /// Walk positions not yet consumed under the `max_targets` budget
    /// (drawn-but-buffered indices count as unconsumed).
    fn unconsumed(&self) -> u64 {
        self.remaining + (self.len - self.pos) as u64
    }

    /// The next fresh target and its range index, skipping indices the
    /// range cannot produce (cyclic fringe sentinels included). A skipped
    /// index still consumed one walk position of the `max_targets` budget
    /// — walk positions are raw permutation steps, the unit the sub-shard
    /// split math divides.
    fn next_target(&mut self, range: &ScanRange) -> Option<(u64, Prefix)> {
        while let Some(i) = self.next_index() {
            if i == u64::MAX {
                continue; // cyclic fringe sentinel: no target at this step
            }
            if let Some(target) = range.nth(i) {
                return Some((i, target));
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
        let n = self.walk.fill(&mut self.buf[..want]);
        self.len = n;
        self.remaining -= n as u64;
    }

    /// The complete generator state for a checkpoint: permutation cursor,
    /// remaining target budget, and the chunk-buffer run-ahead (indices
    /// drawn from the stream but not yet consumed by the scan).
    fn capture(&self) -> (CursorState, u64, Vec<u64>) {
        let cursor = match &self.walk {
            IndexWalk::Cyclic(walk) => {
                let (current, remaining_walk) = walk.position();
                CursorState::Cyclic {
                    current,
                    remaining_walk,
                }
            }
            IndexWalk::Feistel { next_pos, .. } => CursorState::Feistel {
                next_pos: *next_pos,
            },
            IndexWalk::Strided { next, .. } => CursorState::Sequential { next_pos: *next },
            IndexWalk::Listed(_) => unreachable!("a second chance takes no checkpoint"),
        };
        (
            cursor,
            self.remaining,
            self.buf[self.pos..self.len].to_vec(),
        )
    }

    /// Rebuilds a generator from checkpointed state (the configuration
    /// fingerprint guarantees `config`/`range` match what was captured).
    fn restore(
        config: &ScanConfig,
        range: &ScanRange,
        unit: SplitUnit,
        rs: &RunState,
    ) -> TargetGen {
        let mut gen = TargetGen::new(config, range, unit);
        match (&mut gen.walk, &rs.cursor) {
            (
                IndexWalk::Cyclic(walk),
                CursorState::Cyclic {
                    current,
                    remaining_walk,
                },
            ) => walk.set_position(*current, *remaining_walk),
            (IndexWalk::Feistel { next_pos, .. }, CursorState::Feistel { next_pos: p }) => {
                *next_pos = *p;
            }
            (
                IndexWalk::Strided {
                    next,
                    stride,
                    remaining,
                },
                CursorState::Sequential { next_pos: p },
            ) => {
                *next = *p;
                *remaining = positions_below(*p, *stride, walk_len(range));
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
/// a quiescent slot boundary sweeps the dead ones out. Only a slot that
/// ends with replies still in flight puts an entry there at all, so on a
/// quiet network the index stays empty and the sweep never runs. Each
/// sweep walks the index once and leaves at most one entry per armed
/// retry, so the next is at least this many sends away: amortised O(1)
/// per probe, over an index that stays cache-sized however long the
/// walk.
const RETIRE_SLACK: usize = 1024;

/// Bound on the armed retransmissions. A retry that would overflow it is
/// abandoned; a target that consequently stays silent ends up in
/// [`ScanStats::gave_up`].
const MAX_RETRY_BACKLOG: usize = 4096;

/// One sent probe whose reply may still arrive. The send slot holds it
/// locally through its first poll and records it in `Run::outstanding`
/// only if the network still has replies in flight afterwards; a
/// probe settled by then lives on, if at all, as its retry's
/// [`RetryTimer::settled`].
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

/// A retransmission parked in `Run::retries`, in the lane of the attempt
/// that armed it (`attempt − 1`); the lanes own its `(due_tick, seq)`
/// key — `seq` breaks ties deterministically.
#[derive(Debug, Clone, Copy)]
struct RetryTimer {
    target: Prefix,
    attempt: u32,
    prev_dst: Ip6,
    /// Whether the previous attempt was answered, once that is final:
    /// `Some` when nothing was in flight after its send slot's first
    /// poll, `None` while its [`Outstanding`] entry can still take a
    /// reply (the timer then looks it up under `prev_dst`).
    settled: Option<bool>,
    /// Walk position carried from the original fresh probe (see
    /// [`Outstanding::position`]).
    position: u64,
}

/// Everything one [`Scanner::run`] holds between send slots — the state
/// a mid-range checkpoint captures and a resume restores.
#[derive(Debug)]
struct Run {
    gen: TargetGen,
    /// The in-flight index: probes whose send slot ended with replies
    /// in flight (see [`Run::retire_dead`]), and after a resume the
    /// predecessors the cut listed. A settled predecessor is carried by
    /// its retry timer instead.
    outstanding: FxHashMap<Ip6, Outstanding>,
    /// The bounded retransmission backlog.
    retries: RetryLanes<RetryTimer>,
    answered: FxHashSet<Prefix>,
    /// Range indices ([`ScanRange::nth`]) of the fresh targets drawn from
    /// the walk so far, in probe order (blocked ones included): 8 B a
    /// target where its `Prefix` would take 32. Read only by the silent
    /// list and a cut's `probed_count`; `gave_up` takes just its length.
    probed: Vec<u64>,
    /// Walk position of each `probed` entry (parallel vector); filled
    /// only when a silent list's positions are reported.
    probed_positions: Vec<u64>,
    /// Report each record's walk position.
    report_positions: bool,
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
    /// The state `walk` starts from: its list, or `unit` (in base
    /// positions) of the permutation's walk.
    fn fresh<N>(scanner: &Scanner<N>, range: &ScanRange, walk: &Walk, unit: SplitUnit) -> Run {
        Run {
            gen: match &walk.second_chance {
                Some(pass) => TargetGen::listed(range, pass.targets),
                None => TargetGen::new(&scanner.config, range, unit),
            },
            outstanding: FxHashMap::default(),
            retries: RetryLanes::with_next_seq(0),
            answered: FxHashSet::default(),
            probed: Vec::new(),
            probed_positions: Vec::new(),
            report_positions: walk.positions,
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
    fn restore<N>(
        scanner: &Scanner<N>,
        range: &ScanRange,
        unit: SplitUnit,
        resume: RunResume,
    ) -> Run {
        let config = &scanner.config;
        let rs = resume.state;
        // Retries restore under their original sequence numbers, in the
        // cut's `(due_tick, seq)` order, so every lane stays sorted, the
        // lanes pop in the captured order (keys are unique) and the
        // counter resumes where the killed run left it. The session
        // refused a cut whose attempts or order the lanes cannot hold.
        let mut retries = RetryLanes::with_next_seq(rs.retry_seq);
        for r in &rs.retries {
            retries.insert_restored(
                r.attempt as usize - 1,
                r.due_tick,
                r.seq,
                RetryTimer {
                    target: r.target,
                    attempt: r.attempt,
                    prev_dst: r.prev_dst.into(),
                    settled: None,
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
        let mut walk = TargetGen::new(config, range, unit);
        let probed = (0..rs.probed_count)
            .map_while(|_| walk.next_target(range).map(|(index, _)| index))
            .collect();
        Run {
            gen: TargetGen::restore(config, range, unit, &rs),
            outstanding: outstanding.collect(),
            retries,
            answered: resume.records.iter().map(|r| r.target).collect(),
            probed,
            probed_positions: Vec::new(),
            report_positions: false,
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
    /// unanswered (answered ones are suppressed silently). A settled
    /// previous attempt answers from the timer itself. One in the
    /// in-flight index stops being retry-armed there; if `quiet` (asked
    /// only then) says no reply is in flight, nothing can look its entry
    /// up again and it is removed outright.
    fn due_retry(&mut self, quiet: impl Fn() -> bool) -> Option<RetryTimer> {
        while let Some((_due, _seq, retry)) = self.retries.pop_due(self.now) {
            let answered = retry.settled.or_else(|| {
                if quiet() {
                    self.outstanding.remove(&retry.prev_dst).map(|o| o.answered)
                } else {
                    self.outstanding.get_mut(&retry.prev_dst).map(|prev| {
                        prev.retry_armed = false;
                        prev.answered
                    })
                }
            });
            if answered == Some(false) {
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
    /// network reports `in_flight() == 0` — its promise that no reply
    /// to any probe sent so far is still to come — because then nothing
    /// but a timer can ever look these entries up again.
    fn retire_dead(&mut self) {
        self.outstanding.retain(|_, o| o.retry_armed);
    }

    /// The run in canonical (sorted) order for a checkpoint. The hash
    /// map and the lanes have no stable iteration order of their own;
    /// sorting by destination / `(due_tick, seq)` makes checkpoint bytes
    /// deterministic. Callers [`retire_dead`](Run::retire_dead) first, so
    /// the outstanding rows are exactly the predecessors the retries
    /// name: those in the in-flight index, and the settled ones each
    /// timer carries. A settled row's send tick is its timer's deadline
    /// less the backoff it was armed with, `rto_ticks << (attempt − 1)`.
    fn capture(&self, run_wal_start: u64, rto_ticks: u64) -> RunState {
        let (cursor, remaining, pending_indices) = self.gen.capture();
        let in_flight = self
            .outstanding
            .iter()
            .map(|(dst, o)| xmap_state::OutstandingEntry {
                dst: dst.bits(),
                target: o.target,
                attempt: o.attempt,
                answered: o.answered,
                sent_tick: o.sent_tick,
            });
        let settled = self.retries.iter().filter_map(|(due_tick, _, r)| {
            r.settled.map(|answered| xmap_state::OutstandingEntry {
                dst: r.prev_dst.bits(),
                target: r.target,
                attempt: r.attempt - 1,
                answered,
                sent_tick: due_tick - (rto_ticks << (r.attempt - 1)),
            })
        });
        let mut outstanding: Vec<xmap_state::OutstandingEntry> = in_flight.chain(settled).collect();
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
            baseline: self.base.to_raw(),
        }
    }
}

/// A targeted-probing session over one [`Scanner`], opened with
/// [`Scanner::targeted`].
///
/// Probes to explicit destinations count like the run loop's: into a
/// private [`HotTally`], with no atomic add and no network telemetry
/// publish per probe (the network coalesces its own publishes, and
/// publishes every call under tracing). The tally and the network's
/// telemetry are published once, when the session is
/// [`finish`](Targeted::finish)ed or dropped — a panic unwinding through
/// the session publishes what it counted too. The session mutably
/// borrows the scanner, so nothing reads the scanner's registry while
/// its tallies are pending.
///
/// One session can run many units of work that must each be a pure
/// function of their inputs: [`reset_network`](Targeted::reset_network)
/// before each unit, [`lap`](Targeted::lap) after it for the unit's
/// counts. The publishes stay once per session.
///
/// # Examples
///
/// ```
/// use xmap::{IcmpEchoProbe, ScanConfig, Scanner};
/// use xmap_netsim::World;
///
/// let mut scanner = Scanner::new(World::new(7), ScanConfig::default());
/// let mut session = scanner.targeted();
/// let mut answers = Vec::new();
/// session.probe("2405:200::1".parse().unwrap(), &IcmpEchoProbe, 64, &mut answers);
/// let stats = session.finish();
/// assert_eq!(stats.sent, 1);
/// assert_eq!(scanner.metrics().sent.get(), 1);
/// ```
#[derive(Debug)]
pub struct Targeted<'s, N: Network> {
    scanner: &'s mut Scanner<N>,
    tally: HotTally,
    /// The tally as of the last [`lap`](Targeted::lap).
    lapped: ScanStats,
    /// Raw responses of the current probe, reused across probes.
    scratch: Vec<Ipv6Packet>,
}

impl<N: Network> Targeted<'_, N> {
    /// Sends one probe to `dst` and classifies its immediate responses
    /// into `out` (cleared first; callers reuse it across probes).
    pub fn probe(
        &mut self,
        dst: Ip6,
        module: &dyn ProbeModule,
        hop_limit: u8,
        out: &mut Vec<(Ip6, ProbeResult)>,
    ) {
        let s = &mut *self.scanner;
        let probe = module.build(s.config.source, dst, hop_limit, &s.validator);
        self.tally.sent += 1;
        out.clear();
        self.scratch.clear();
        s.network.handle_into(probe, &mut self.scratch);
        for resp in &self.scratch {
            let result = module.classify(resp, &s.validator);
            self.tally.received += 1;
            if matches!(result, ProbeResult::Invalid) {
                self.tally.invalid += 1;
            } else {
                self.tally.valid += 1;
            }
            out.push((resp.src, result));
        }
    }

    /// Counts a destination skipped by the blocklist.
    pub fn skip_blocked(&mut self) {
        self.tally.blocked += 1;
    }

    /// Returns the network to just-constructed behaviour
    /// ([`Network::reset`]): the next probe is answered as a freshly
    /// built network would answer it, while the session's tally and the
    /// network's lifetime telemetry run on.
    pub fn reset_network(&mut self) {
        self.scanner.network.reset();
    }

    /// What the session counted since the previous lap, or since it
    /// opened: the `scan.*` delta the registry gains from those probes
    /// once the session ends.
    pub fn lap(&mut self) -> ScanStats {
        let (now, then) = (self.counted(), self.lapped);
        self.lapped = now;
        ScanStats {
            sent: now.sent - then.sent,
            blocked: now.blocked - then.blocked,
            received: now.received - then.received,
            invalid: now.invalid - then.invalid,
            valid: now.valid - then.valid,
            ..ScanStats::default()
        }
    }

    /// Everything the session counted so far.
    fn counted(&self) -> ScanStats {
        let t = &self.tally;
        ScanStats {
            sent: t.sent,
            blocked: t.blocked,
            received: t.received,
            invalid: t.invalid,
            valid: t.valid,
            ..ScanStats::default()
        }
    }

    /// The scanner's configuration.
    pub fn config(&self) -> &ScanConfig {
        &self.scanner.config
    }

    /// The scanner's lifetime tick count.
    pub fn ticks(&self) -> u64 {
        self.scanner.total_ticks
    }

    /// The scanner's telemetry bundle, for other metric families and
    /// trace events. Its `scan.*` counters lag this session's tally
    /// until the session ends.
    pub fn telemetry(&self) -> &Telemetry {
        &self.scanner.telemetry
    }

    /// Ends the session, publishing its counts and the network's
    /// telemetry, and returns what it counted — exactly the registry's
    /// `scan.*` delta across the session.
    pub fn finish(self) -> ScanStats {
        self.counted()
    }
}

impl<N: Network> Drop for Targeted<'_, N> {
    fn drop(&mut self) {
        self.tally.flush(&self.scanner.metrics);
        self.scanner.network.flush_telemetry();
    }
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
        fn handle_into(&mut self, p: Ipv6Packet, out: &mut Vec<Ipv6Packet>) {
            self.handled += 1;
            let idx = p.dst.bit_slice(32, 64);
            if !idx.is_multiple_of(2) {
                return;
            }
            out.push(Ipv6Packet {
                src: p.dst.network(64).with_iid(0xbeef),
                dst: p.src,
                hop_limit: 60,
                payload: Payload::Icmp(Icmpv6::DestUnreachable {
                    code: xmap_netsim::packet::UnreachCode::AddressUnreachable,
                    invoking: p.quote(),
                }),
            });
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

    /// A 1000-target scan of [`range`] under `bl`, keeping the silent
    /// list so that records and silent targets name every target walked.
    fn scan_under(bl: &Blocklist) -> ScanResults {
        let mut s = Scanner::new(
            ToyNet { handled: 0 },
            ScanConfig {
                max_targets: Some(1000),
                record_silent: true,
                ..Default::default()
            },
        );
        s.run(&range(), &IcmpEchoProbe, bl)
    }

    /// An entry inside the range blocks exactly the walked targets it
    /// covers: the scan reads as the unblocked one with those targets
    /// sent nothing and answered nothing.
    #[test]
    fn blocklist_skips_targets() {
        let entry: Prefix = "2001:100::/33".parse().unwrap();
        let mut bl = Blocklist::allow_all();
        bl.insert(entry, crate::blocklist::Verdict::Deny);
        let res = scan_under(&bl);
        assert!(res.stats.blocked > 300, "{}", res.stats.blocked);
        assert_eq!(res.stats.blocked + res.stats.sent, 1000);

        let open = scan_under(&Blocklist::allow_all());
        let walked: Vec<Prefix> = open
            .records
            .iter()
            .map(|r| r.target)
            .chain(open.silent_targets.iter().copied())
            .collect();
        assert_eq!(walked.len(), 1000);
        let inside = walked.iter().filter(|t| entry.covers(**t)).count() as u64;
        assert_eq!(res.stats.blocked, inside);
        let outside: Vec<&ScanRecord> = open
            .records
            .iter()
            .filter(|r| !entry.covers(r.target))
            .collect();
        assert_eq!(res.records.iter().collect::<Vec<_>>(), outside);
    }

    /// A range wholly inside a Deny entry (under a more specific Allow
    /// elsewhere) sends nothing: every target is blocked.
    #[test]
    fn range_inside_a_deny_entry_blocks_every_target() {
        let mut bl = Blocklist::allow_all();
        bl.insert(
            "2001::/16".parse().unwrap(),
            crate::blocklist::Verdict::Deny,
        );
        bl.insert(
            "2001:200::/32".parse().unwrap(),
            crate::blocklist::Verdict::Allow,
        );
        let res = scan_under(&bl);
        assert_eq!(res.stats.blocked, 1000);
        assert_eq!(res.stats.sent, 0);
        assert!(res.records.is_empty());
        assert_eq!(res.silent_targets.len(), 1000);
    }

    /// The last retransmission's backoff, `rto_ticks << (probes − 1)`,
    /// must fit in a `u64`: the widest that fits constructs, one bit
    /// more is refused (below).
    #[test]
    fn the_widest_backoff_that_fits_constructs() {
        for (probes, rto_ticks) in [(62, 4), (64, 1), (1, u64::MAX)] {
            let config = ScanConfig {
                probes_per_target: probes,
                rto_ticks,
                ..Default::default()
            };
            Scanner::new(ToyNet { handled: 0 }, config);
        }
    }

    #[test]
    #[should_panic(expected = "overflows u64")]
    fn a_backoff_past_u64_is_refused() {
        Scanner::new(
            ToyNet { handled: 0 },
            ScanConfig {
                probes_per_target: 63,
                rto_ticks: 4,
                ..Default::default()
            },
        );
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
    fn targeted_probe_hits_exact_destination() {
        let mut s = Scanner::new(ToyNet { handled: 0 }, ScanConfig::default());
        let dst: Ip6 = "2001:100:0:2::1".parse().unwrap(); // even index -> responds
        let mut out = Vec::new();
        s.targeted().probe(dst, &IcmpEchoProbe, 64, &mut out);
        assert_eq!(out.len(), 1);
        assert!(matches!(out[0].1, ProbeResult::Unreachable { .. }));
    }

    /// A scanner over a dense world under `plan` whose telemetry shares
    /// the scanner's registry, so snapshots carry both `scan.*` and
    /// `netsim.*`.
    fn targeted_scanner(plan: xmap_netsim::FaultPlan) -> Scanner<xmap_netsim::World> {
        let telemetry = Telemetry::new();
        let config = xmap_netsim::world::WorldConfig::lossless(11, 10).with_fault(plan);
        let mut world = xmap_netsim::World::with_config(config);
        world.set_telemetry(&telemetry);
        Scanner::with_telemetry(world, ScanConfig::default(), telemetry)
    }

    /// One target's worth of a counted session operation.
    fn targeted_step(session: &mut Targeted<'_, xmap_netsim::World>, i: u64) {
        let dense: ScanRange = "2402:3a80::/32-64".parse().unwrap();
        let dst = fill_host_bits(dense.nth(i).unwrap(), 11);
        let mut out = Vec::new();
        match i % 4 {
            0 => session.skip_blocked(),
            _ => session.probe(dst, &IcmpEchoProbe, 64, &mut out),
        }
    }

    #[test]
    fn targeted_batching_is_unobservable() {
        const N: u64 = 300;
        let mut batched = targeted_scanner(xmap_netsim::FaultPlan::none());
        let mut session = batched.targeted();
        for i in 0..N {
            targeted_step(&mut session, i);
        }
        session.finish();
        let mut single = targeted_scanner(xmap_netsim::FaultPlan::none());
        for i in 0..N {
            let mut session = single.targeted();
            targeted_step(&mut session, i);
            session.finish();
        }
        let snap = batched.telemetry().registry.snapshot();
        assert!(snap.counter(names::VALID) > 0, "the world must answer");
        assert_eq!(snap, single.telemetry().registry.snapshot());
    }

    /// One session over many units, the network reset before each, is
    /// one session per unit: the same per-unit counts and the same
    /// registry. Every unit probes the same destinations through
    /// one-token ICMPv6 buckets that never refill, so a unit that saw an
    /// earlier unit's limiter state would lose answers.
    #[test]
    fn one_session_across_resets_is_one_session_per_unit() {
        use xmap_netsim::{FaultPlan, IcmpRateLimit};
        const UNITS: usize = 4;
        let limited = || {
            targeted_scanner(
                FaultPlan::none().with_icmp_limit(IcmpRateLimit::TokenBucket {
                    capacity: 1,
                    refill_interval: 1 << 20,
                    start_depleted_frac: 0.0,
                }),
            )
        };
        let unit = |session: &mut Targeted<'_, xmap_netsim::World>| {
            for i in 0..1000 {
                targeted_step(session, i);
            }
        };

        let mut shared = limited();
        let mut session = shared.targeted();
        let laps: Vec<ScanStats> = (0..UNITS)
            .map(|_| {
                session.reset_network();
                unit(&mut session);
                session.lap()
            })
            .collect();
        let total = session.finish();

        let mut single = limited();
        let finished: Vec<ScanStats> = (0..UNITS)
            .map(|_| {
                single.network_mut().reset();
                let mut session = single.targeted();
                unit(&mut session);
                session.finish()
            })
            .collect();

        assert_eq!(laps, finished);
        assert!(laps.iter().all(|lap| *lap == laps[0]), "{laps:?}");
        let mut summed = ScanStats::default();
        laps.iter().for_each(|lap| summed.merge(lap));
        assert_eq!(summed, total);
        let snap = shared.telemetry().registry.snapshot();
        assert_eq!(snap, single.telemetry().registry.snapshot());

        // Without the reset the buckets remember the first unit.
        let mut unreset = limited();
        let mut session = unreset.targeted();
        unit(&mut session);
        let first = session.lap();
        unit(&mut session);
        assert!(first.valid > 0, "the world must answer");
        assert!(session.lap().valid < first.valid, "the buckets must limit");
    }

    #[test]
    fn panicking_targeted_session_still_publishes() {
        let mut s = targeted_scanner(xmap_netsim::FaultPlan::none());
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let mut session = s.targeted();
            for i in 0..5 {
                targeted_step(&mut session, i);
            }
            panic!("mid-session failure");
        }));
        assert!(caught.is_err());
        let snap = s.telemetry().registry.snapshot();
        // Targets 1–3 were probed (0 and 4 were skipped as blocked), and
        // the world published below its coalescing batch.
        assert_eq!(snap.counter(names::SENT), 3);
        assert_eq!(snap.counter(names::BLOCKED), 2);
        assert_eq!(snap.counter(xmap_netsim::telemetry::names::PROBES), 3);
    }

    #[test]
    fn targeted_finish_returns_the_registry_delta() {
        let mut s = targeted_scanner(xmap_netsim::FaultPlan::none());
        let mut session = s.targeted();
        for i in 0..40 {
            targeted_step(&mut session, i);
        }
        session.finish();
        let base = s.metrics().baseline();
        let mut session = s.targeted();
        for i in 40..1000 {
            targeted_step(&mut session, i);
        }
        let stats = session.finish();
        assert!(stats.valid > 0 && stats.blocked > 0, "{stats:?}");
        assert_eq!(stats, s.metrics().stats_since(&base));
    }

    /// A second chance over a jittered, rate-limited world: one probe per
    /// listed target at the pass's host bits, counted as a
    /// retransmission, each answer filed under the probe it quotes with
    /// its target's listed position, nothing left in flight, and the
    /// results' counts exactly the registry delta.
    #[test]
    fn second_chance_files_each_answer_under_its_probe() {
        use xmap_netsim::world::WorldConfig;
        use xmap_netsim::{FaultPlan, IcmpRateLimit};
        let plan = FaultPlan::none().seeded(7).with_jitter(5).with_icmp_limit(
            IcmpRateLimit::TokenBucket {
                capacity: 2,
                refill_interval: 64,
                start_depleted_frac: 0.5,
            },
        );
        let telemetry = Telemetry::new();
        let mut world =
            xmap_netsim::World::with_config(WorldConfig::lossless(99, 50).with_fault(plan));
        world.set_telemetry(&telemetry);
        let config = ScanConfig {
            seed: 5,
            max_targets: Some(1 << 12),
            record_silent: true,
            ..Default::default()
        };
        let mut s = Scanner::with_telemetry(world, config, telemetry);
        let range = xmap_netsim::isp::SAMPLE_BLOCKS[0].scan_range();
        let allow = Blocklist::allow_all();
        let first = s.run(&range, &IcmpEchoProbe, &allow);
        let targets: Vec<(u64, Prefix)> = (1000..).zip(first.silent_targets).collect();
        let base = s.metrics().baseline();
        let rtt_sum =
            |s: &Scanner<_>| s.telemetry().registry.snapshot().histograms[names::RTT_TICKS].sum;
        let rtt_before = rtt_sum(&s);
        let pass = SecondChance {
            targets: &targets,
            host_seed: 77,
        };
        s.restore_clock(s.ticks() + 512);
        let second = s.run_second_chance(&range, &IcmpEchoProbe, &allow, pass);
        let stats = second.stats;
        assert_eq!(stats, s.metrics().stats_since(&base));
        assert_eq!(stats.sent, targets.len() as u64);
        assert_eq!(stats.retransmits, stats.sent);
        assert_eq!(stats.gave_up, 0);
        assert!(stats.rate_limited_suspected > 0, "{stats:?}");
        assert!(rtt_sum(&s) > rtt_before, "no answer of the pass came late");
        assert_eq!(s.network_mut().in_flight(), 0);
        assert_eq!(second.records.len(), second.record_positions.len());
        for (r, &position) in second.records.iter().zip(&second.record_positions) {
            assert_eq!(targets[(position - 1000) as usize].1, r.target);
            assert_eq!(r.probe_dst, fill_host_bits(r.target, 77));
            assert_eq!(r.confidence, Confidence::Retry(1));
        }
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
        let rto = s.config().rto_ticks;
        for order in [reversed, shuffled] {
            let mut run = Run::fresh(&s, &range(), &s.slot_walk(), SplitUnit::whole(u64::MAX));
            for &i in &order {
                let target = range().nth(i).unwrap();
                let dst = fill_host_bits(target, i);
                let answered = i % 3 == 0;
                // Odd probes settled when sent (all at tick `n`): their
                // retries carry them.
                if i % 2 == 1 {
                    let retry = RetryTimer {
                        target,
                        attempt: 1,
                        prev_dst: dst,
                        settled: Some(answered),
                        position: i,
                    };
                    run.retries.arm(0, n + rto, retry);
                    continue;
                }
                run.outstanding.insert(
                    dst,
                    Outstanding {
                        target,
                        attempt: 0,
                        answered,
                        retry_armed: true,
                        sent_tick: i,
                        position: i,
                    },
                );
            }
            let state = run.capture(0, rto);
            assert_eq!(state.outstanding.len(), n as usize);
            assert!(state.outstanding.windows(2).all(|w| w[0].dst < w[1].dst));
            for o in &state.outstanding {
                let i = range().index_of(Ip6::new(o.dst)).unwrap();
                assert_eq!(o.answered, i.is_multiple_of(3));
                assert_eq!(o.sent_tick, if i % 2 == 1 { n } else { i });
            }
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
            fn handle_into(&mut self, p: Ipv6Packet, out: &mut Vec<Ipv6Packet>) {
                let first_attempt = p.dst
                    == crate::target::fill_host_bits(
                        xmap_addr::Prefix::new(p.dst.network(64), 64),
                        1,
                    );
                if first_attempt {
                    return;
                }
                out.push(Ipv6Packet {
                    src: p.dst.network(64).with_iid(0xbeef),
                    dst: p.src,
                    hop_limit: 60,
                    payload: Payload::Icmp(Icmpv6::DestUnreachable {
                        code: xmap_netsim::packet::UnreachCode::AddressUnreachable,
                        invoking: p.quote(),
                    }),
                });
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
            fn handle_into(&mut self, p: Ipv6Packet, out: &mut Vec<Ipv6Packet>) {
                let first_attempt = p.dst
                    == crate::target::fill_host_bits(
                        xmap_addr::Prefix::new(p.dst.network(64), 64),
                        1,
                    );
                if first_attempt {
                    return;
                }
                out.push(Ipv6Packet {
                    src: p.dst.network(64).with_iid(0xbeef),
                    dst: p.src,
                    hop_limit: 60,
                    payload: Payload::Icmp(Icmpv6::DestUnreachable {
                        code: xmap_netsim::packet::UnreachCode::AddressUnreachable,
                        invoking: p.quote(),
                    }),
                });
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
        /// Answers every probe, but 3 ticks late, through [`Network::tick_into`].
        struct SlowNet {
            clock: u64,
            queue: Vec<(u64, Ipv6Packet)>,
        }
        impl Network for SlowNet {
            fn handle_into(&mut self, p: Ipv6Packet, _out: &mut Vec<Ipv6Packet>) {
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
            }
            fn tick_into(&mut self, ticks: u64, out: &mut Vec<Ipv6Packet>) {
                self.clock += ticks;
                let clock = self.clock;
                let (due, rest): (Vec<_>, Vec<_>) = std::mem::take(&mut self.queue)
                    .into_iter()
                    .partition(|(d, _)| *d <= clock);
                self.queue = rest;
                out.extend(due.into_iter().map(|(_, p)| p));
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
    /// from `handle_into` itself at a hold of 0, otherwise from the
    /// `tick_into` that reaches the due tick. `in_flight()` stays
    /// positive for as long as a reply is held. An armed `abort` fires
    /// once the given number of probes is handled.
    struct HoldNet {
        answer: &'static [u64],
        hold: u64,
        handled: u64,
        clock: u64,
        held: Vec<(u64, Ipv6Packet)>,
        abort: Option<(u64, AbortSignal)>,
    }

    impl HoldNet {
        fn new(answer: &'static [u64], hold: u64) -> Self {
            HoldNet {
                answer,
                hold,
                handled: 0,
                clock: 0,
                held: Vec::new(),
                abort: None,
            }
        }
    }

    impl Network for HoldNet {
        fn handle_into(&mut self, p: Ipv6Packet, out: &mut Vec<Ipv6Packet>) {
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
                if self.hold == 0 {
                    out.push(reply);
                } else {
                    self.held.push((self.clock + self.hold, reply));
                }
            }
            self.handled += 1;
            if let Some((at, abort)) = &self.abort {
                if self.handled == *at {
                    abort.set();
                }
            }
        }
        fn tick_into(&mut self, ticks: u64, out: &mut Vec<Ipv6Packet>) {
            self.clock += ticks;
            let clock = self.clock;
            let (due, rest): (Vec<_>, Vec<_>) = std::mem::take(&mut self.held)
                .into_iter()
                .partition(|(d, _)| *d <= clock);
            self.held = rest;
            out.extend(due.into_iter().map(|(_, p)| p));
        }
        fn in_flight(&self) -> usize {
            self.held.len()
        }
    }

    /// The `scan.rtt_ticks` histogram's `(count, sum)`.
    fn rtt_ticks<N: Network>(s: &Scanner<N>) -> (u64, u64) {
        let snap = s.telemetry().registry.snapshot();
        let rtt = &snap.histograms["scan.rtt_ticks"];
        (rtt.count, rtt.sum)
    }

    #[test]
    fn a_reply_from_the_send_is_a_first_try_at_rtt_zero() {
        let mut s = Scanner::new(
            HoldNet::new(&[0], 0),
            ScanConfig {
                max_targets: Some(4),
                probes_per_target: 2,
                ..Default::default()
            },
        );
        let res = s.run(&range(), &IcmpEchoProbe, &Blocklist::allow_all());
        assert_eq!(res.records.len(), 1);
        assert_eq!(res.records[0].confidence, Confidence::FirstTry);
        assert_eq!(rtt_ticks(&s), (1, 0));
    }

    #[test]
    fn a_reply_from_an_advance_k_ticks_on_has_rtt_k() {
        for k in [1, 3, 20] {
            // Probe 1 goes out at run tick 1; its reply is due at 1 + k.
            let mut s = Scanner::new(
                HoldNet::new(&[1], k),
                ScanConfig {
                    max_targets: Some(4),
                    ..Default::default()
                },
            );
            let res = s.run(&range(), &IcmpEchoProbe, &Blocklist::allow_all());
            assert_eq!(res.records.len(), 1, "k = {k}");
            assert_eq!(rtt_ticks(&s), (1, k), "k = {k}");
        }
    }

    /// The last cut in a checkpointed run over `HoldNet::new(&[0], hold)`
    /// at a cadence of 4 slots, aborted after 30 probes: `None` when the
    /// journal holds no cut.
    fn last_cut_of_aborted_run(hold: u64) -> Option<xmap_state::WorkerCheckpoint> {
        use crate::checkpoint::{build_manifest, ScanSession};
        let dir =
            std::env::temp_dir().join(format!("xmap-scanner-cut-{}-{hold}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let config = ScanConfig {
            max_targets: Some(100),
            ..Default::default()
        };
        let blocklist = Blocklist::allow_all();
        let manifest = build_manifest(1, &config, &IcmpEchoProbe, &[range()], &blocklist, 0, 4);
        let worker = ScanSession::create(&dir, manifest)
            .and_then(|session| session.fresh_worker(0, 1))
            .unwrap();
        let abort = AbortSignal::new();
        let mut net = HoldNet::new(&[0], hold);
        net.abort = Some((30, abort.clone()));
        let mut s = Scanner::new(net, config);
        s.set_abort(abort);
        s.set_sink(worker.sink);
        let res = s.run_checkpointed(0, &range(), &IcmpEchoProbe, &blocklist, RangeMode::Fresh);
        assert!(res.interrupted);
        drop(s);
        let cut = xmap_state::WorkerJournal::recover(&dir.join("worker-0.ckpt"))
            .unwrap()
            .map(|journal| journal.checkpoint(None, None).unwrap());
        std::fs::remove_dir_all(&dir).unwrap();
        cut
    }

    #[test]
    fn no_checkpoint_is_cut_while_a_reply_is_in_flight() {
        // Probe 0's reply is held past the abort at slot 30: every slot
        // boundary until then, the abort's included, sees `in_flight() >
        // 0`, so the journal gets no cut at all.
        assert!(last_cut_of_aborted_run(50).is_none());
        // Released at tick 10, the cadence cuts again and the abort's
        // final cut lands at its slot boundary.
        let cut = last_cut_of_aborted_run(10).expect("cuts after the reply");
        assert_eq!(cut.tick, 30);
        assert!(cut.run.is_some(), "a mid-range cut");
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
        // The backlog arms a retry for the first MAX_RETRY_BACKLOG probes
        // only. The first one's answer lands HOLD slots late — before its
        // timer — and the second is answered on retransmission alone (the
        // first probe handled after the fresh walk). Once the late answer
        // is in, nothing is in flight and HOLD entries sit in
        // `outstanding`, past the sweep threshold, so the sweep runs with
        // every timer still armed. Had it dropped their entries, no timer
        // would find its previous attempt and no retransmission would go
        // out.
        const TARGETS: u64 = 12_000;
        const HOLD: u64 = 10_000;
        const { assert!(HOLD as usize > 2 * MAX_RETRY_BACKLOG + RETIRE_SLACK) };
        let mut s = Scanner::new(
            HoldNet::new(&[0, TARGETS], HOLD),
            ScanConfig {
                max_targets: Some(TARGETS),
                probes_per_target: 2,
                rto_ticks: 2 * HOLD,
                ..Default::default()
            },
        );
        let res = s.run(&range(), &IcmpEchoProbe, &Blocklist::allow_all());
        let silent_armed = MAX_RETRY_BACKLOG as u64 - 1;
        assert_eq!(
            res.stats.retransmits, silent_armed,
            "the answered one is suppressed, every silent armed one retried"
        );
        assert_eq!(res.stats.sent, TARGETS + silent_armed);
        assert_eq!(res.stats.invalid, 0);
        let confidences: Vec<Confidence> = res.records.iter().map(|r| r.confidence).collect();
        assert_eq!(confidences, [Confidence::FirstTry, Confidence::Retry(1)]);
        assert_eq!(res.stats.gave_up, TARGETS - 2);
    }

    /// [`HoldNet`] reporting nothing in flight while it holds replies:
    /// it breaks the promise the run loop's bookkeeping rests on.
    struct LyingNet(HoldNet);

    impl Network for LyingNet {
        fn handle_into(&mut self, p: Ipv6Packet, out: &mut Vec<Ipv6Packet>) {
            self.0.handle_into(p, out)
        }
        fn tick_into(&mut self, ticks: u64, out: &mut Vec<Ipv6Packet>) {
            self.0.tick_into(ticks, out)
        }
        fn in_flight(&self) -> usize {
            0
        }
    }

    #[test]
    fn reply_breaking_the_in_flight_promise_is_invalid() {
        // Each answered probe's reply lands one tick late, in its slot's
        // second poll, while the network reports nothing in flight. No
        // timer names the probe, so its entry never left the slot: the
        // reply is unattributable at once, before (probe 0), between
        // (1500) and after (3000) the sweeps that a growing table would
        // have triggered.
        let mut s = Scanner::new(
            LyingNet(HoldNet::new(&[0, 1500, 3000], 1)),
            ScanConfig {
                max_targets: Some(4000),
                ..Default::default()
            },
        );
        let res = s.run(&range(), &IcmpEchoProbe, &Blocklist::allow_all());
        assert_eq!(res.stats.sent, 4000);
        assert_eq!(res.stats.received, 3);
        assert_eq!(res.stats.invalid, 3);
        assert_eq!(res.stats.valid, 0);
        assert!(res.records.is_empty());
    }

    #[test]
    fn retry_backlog_is_bounded() {
        // Nothing answers and no timer fires before the walk ends, so the
        // backlog fills: every would-be retry past the bound is abandoned
        // and its target given up without retransmission.
        let targets = MAX_RETRY_BACKLOG as u64 + 100;
        let mut s = Scanner::new(
            HoldNet::new(&[], 0),
            ScanConfig {
                max_targets: Some(targets),
                probes_per_target: 2,
                rto_ticks: targets,
                ..Default::default()
            },
        );
        let res = s.run(&range(), &IcmpEchoProbe, &Blocklist::allow_all());
        assert_eq!(res.stats.retransmits, MAX_RETRY_BACKLOG as u64);
        assert_eq!(res.stats.sent, targets + MAX_RETRY_BACKLOG as u64);
        assert_eq!(res.stats.valid, 0);
        assert_eq!(res.stats.gave_up, targets);
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

//! The layer ledger: one row per layer, measured from outside by timing
//! calls into public functions. Runs in the traced run only; no row is
//! gated. Every measurement is a span, so the numbers below are span
//! durations and the trace file shows where each came from.
//!
//! Per-probe stage rows replay the exact target sequence of
//! `scan_lossless` stage by stage over the whole batch — one span per
//! stage per round, no per-probe timers — so that the stages can be
//! added up and reconciled against `Scanner::run` over the same slice.

use std::hint::black_box;
use std::path::{Path, PathBuf};
use std::time::{Instant, SystemTime};

use xmap::telemetry::names;
use xmap::{
    fill_host_bits, Blocklist, Cycle, FeistelPermutation, IcmpEchoProbe, ParallelScanner,
    ProbeModule, ProbeResult, ScanConfig, ScanRecord, Validator,
};
use xmap_addr::{classify_iid, FxHashSet, Ip6, Prefix, PrefixTree};
use xmap_loopscan::DepthSurvey;
use xmap_netsim::isp::SAMPLE_BLOCKS;
use xmap_netsim::world::WorldConfig;
use xmap_netsim::{Ipv6Packet, KillPoint, Network, World};
use xmap_reactor::{BoundedQueue, SimTransport, TimerHeap, Transport};
use xmap_serve::daemon::{job_dir, metric};
use xmap_serve::{Daemon, DrrScheduler, LedgerEvent};
use xmap_state::{AbortSignal, Wal, WorkerCheckpoint};
use xmap_telemetry::Telemetry;

use crate::estimator::{median, normalise, splitmix64, Calibrator};
use crate::report::{Better, Metric};
use crate::spans::Tracer;
use crate::workloads::{
    scan_range, scanner_over, world_with, AdaptiveWorkload, CampaignWorkload, DurableWorkload,
    ScanWorkload, Seeds, ServeWorkload, Workload, CAMPAIGN_GIANT, DURABLE_EVERY, DURABLE_TARGETS,
    LOSSLESS_TARGETS, SERVE_BOB_PROBES,
};

use Better::{Higher, Lower};

/// Every per-layer metric: `(name, unit, better)`. The traced run of any
/// workload reports all of them; `workload.*` and the `host.*` timing
/// rows describe the workload named on the command line, every other
/// row is that layer's own canonical input.
pub const PER_LAYER: &[(&str, &str, Better)] = &[
    // core hot path, per index/probe over the scan_lossless slice
    ("core.cyclic.ns_per_index", "ns", Lower),
    ("core.feistel.ns_per_index", "ns", Lower),
    ("addr.range.ns_per_nth", "ns", Lower),
    ("core.target.ns_per_fill", "ns", Lower),
    ("core.blocklist.ns_per_lookup", "ns", Lower),
    ("core.probe.ns_per_build", "ns", Lower),
    ("core.probe.ns_per_classify", "ns", Lower),
    ("core.validate.ns_per_cookie", "ns", Lower),
    ("addr.fxhash.ns_per_insert", "ns", Lower),
    ("telemetry.registry.ns_per_add", "ns", Lower),
    // netsim
    ("netsim.world.ns_per_handle", "ns", Lower),
    ("netsim.world.ns_per_tick", "ns", Lower),
    ("netsim.world.replies_per_probe", "ratio", Higher),
    ("netsim.world.construct_ms", "ms", Lower),
    ("netsim.fault.ns_per_handle", "ns", Lower),
    // core::scanner
    ("core.scanner.ns_per_probe", "ns", Lower),
    ("core.scanner.self_ns_per_probe", "ns", Lower),
    ("core.scanner.residual_frac", "fraction", Lower),
    ("core.scanner.bytes_per_target", "B", Lower),
    ("core.scanner.valid_per_sent", "ratio", Higher),
    ("core.scanner.retransmit_frac", "fraction", Lower),
    ("core.scanner.gave_up_frac", "fraction", Lower),
    // reactor
    ("reactor.timer.ns_per_op", "ns", Lower),
    ("reactor.queue.ns_per_op", "ns", Lower),
    ("reactor.transport.ns_per_send_recv", "ns", Lower),
    // state / core::checkpoint
    ("state.wal.ns_per_append", "ns", Lower),
    ("state.wal.flush_us", "us", Lower),
    ("state.checkpoint.write_us", "us", Lower),
    ("state.checkpoint.read_us", "us", Lower),
    ("core.checkpoint.ns_per_probe", "ns", Lower),
    ("core.checkpoint.count", "count", Lower),
    ("core.checkpoint.bytes_per_checkpoint", "B", Lower),
    // periphery::campaign / parallel, core::parallel
    ("periphery.campaign.ns_per_probe", "ns", Lower),
    ("periphery.campaign.post_ns_per_record", "ns", Lower),
    ("periphery.parallel.efficiency_2w", "ratio", Higher),
    ("periphery.parallel.giant_block_frac", "fraction", Lower),
    ("periphery.parallel.splits", "count", Higher),
    ("core.parallel.efficiency_2w", "ratio", Higher),
    // periphery::adaptive, addr::prefix_tree
    ("periphery.adaptive.ns_per_probe", "ns", Lower),
    ("periphery.adaptive.exhaustive_ns_per_probe", "ns", Lower),
    ("periphery.adaptive.cost_ratio", "ratio", Lower),
    ("periphery.adaptive.probes", "count", Lower),
    ("addr.prefix_tree.ns_per_update", "ns", Lower),
    ("addr.iid.ns_per_classify", "ns", Lower),
    // serve, loopscan, telemetry
    ("serve.submit_ack_us_p50", "us", Lower),
    ("serve.ledger.ns_per_append", "ns", Lower),
    ("serve.sched.ns_per_dispatch", "ns", Lower),
    ("serve.unit_run_ms_p50", "ms", Lower),
    ("serve.dispatch_overhead_frac", "fraction", Lower),
    ("serve.small_job_done_ms", "ms", Lower),
    ("serve.small_job_slowdown", "ratio", Lower),
    ("serve.units_executed", "count", Lower),
    ("loopscan.survey.ns_per_probe", "ns", Lower),
    ("telemetry.registry.snapshot_us", "us", Lower),
    ("telemetry.registry.absorb_us", "us", Lower),
    // the workload named on the command line, and the host
    ("workload.ns_per_probe", "ns", Lower),
    ("host.raw_wall_s_p50", "s", Lower),
    ("host.trace_overhead_frac", "fraction", Lower),
    ("host.calib_ms_p50", "ms", Lower),
    ("host.calib_spread", "ratio", Lower),
    ("host.cpus", "count", Higher),
];

/// Rounds per measurement; the row is the median, so one disturbed
/// round does not move it.
const ROUNDS: usize = 3;
/// Rounds of the two rows the reconciliation hinges on.
const KEY_ROUNDS: usize = 5;

/// The ledger under construction.
pub struct Ledger {
    seed: u64,
    seeds: Seeds,
    dir: PathBuf,
    tr: Tracer,
    /// One-thread calibrator, its last sample and when it was taken.
    cal: Calibrator,
    last_calib: (Instant, f64),
    /// Calibrator on as many threads as the two-worker rows use.
    cal_pool: Calibrator,
    rows: Vec<Metric>,
    attempted: u64,
    failed: u64,
}

/// A calibration sample older than this is retaken before a round.
const CALIB_FRESH: std::time::Duration = std::time::Duration::from_millis(20);

/// What the stage replay hands to the sections after it.
struct Replay {
    cfg: ScanConfig,
    world_cfg: WorldConfig,
    validator: Validator,
    /// Allowed probe destinations, in send order.
    dsts: Vec<Ip6>,
    /// `Scanner::run` over the slice: normalised seconds, probes sent.
    scan_s: f64,
    sent: u64,
}

/// What one daemon lifetime took.
struct DaemonRound {
    /// `Daemon::run`, normalised seconds.
    run_s: f64,
    /// Each `submit` call, raw seconds.
    submit_s: Vec<f64>,
    /// `serve.units_executed` at the end.
    units: u64,
    /// When the last job's `result.csv` was published, normalised
    /// seconds after `run` began.
    published_s: f64,
}

/// One echo probe per destination, as the scanner would build them.
fn build_probes(cfg: &ScanConfig, validator: &Validator, dsts: &[Ip6]) -> Vec<Ipv6Packet> {
    dsts.iter()
        .map(|d| IcmpEchoProbe.build(cfg.source, *d, cfg.hop_limit, validator))
        .collect()
}

impl Ledger {
    /// A ledger for `seed`, writing under `dir`, recording into `tr`.
    pub fn new(seed: u64, dir: &Path, tr: Tracer) -> Self {
        let mut cal = Calibrator::new(1);
        let last_calib = (Instant::now(), cal.run());
        Ledger {
            seed,
            seeds: Seeds::derive(seed),
            dir: dir.to_path_buf(),
            tr,
            cal,
            last_calib,
            cal_pool: Calibrator::new(2),
            rows: Vec::with_capacity(PER_LAYER.len()),
            attempted: 0,
            failed: 0,
        }
    }

    /// The tracer (for writing the spans out).
    pub fn tracer(&self) -> &Tracer {
        &self.tr
    }

    /// Oracle checks the ledger made.
    pub fn attempted(&self) -> u64 {
        self.attempted
    }

    /// Oracle checks that failed.
    pub fn failed(&self) -> u64 {
        self.failed
    }

    /// Records one row.
    ///
    /// # Panics
    ///
    /// Panics on a name [`PER_LAYER`] does not list, or listed twice.
    pub fn row(&mut self, name: &str, value: f64) {
        let (_, unit, _) = PER_LAYER
            .iter()
            .find(|(n, _, _)| *n == name)
            .unwrap_or_else(|| panic!("{name} is not a per-layer metric"));
        assert!(
            !self.rows.iter().any(|m| m.name == name),
            "{name} recorded twice"
        );
        self.rows.push(Metric::new(name, value, unit));
    }

    /// The rows in [`PER_LAYER`] order.
    ///
    /// # Panics
    ///
    /// Panics if a listed metric was never recorded.
    pub fn into_metrics(mut self) -> Vec<Metric> {
        PER_LAYER
            .iter()
            .map(|(name, _, _)| {
                let at = self
                    .rows
                    .iter()
                    .position(|m| m.name == *name)
                    .unwrap_or_else(|| panic!("{name} was never measured"));
                self.rows.swap_remove(at)
            })
            .collect()
    }

    fn check(&mut self, ok: bool, what: &str) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("xmap-benchmark: ledger oracle failed: {what}");
        }
    }

    /// Runs `f` between two calibration samples taken on `threads`
    /// threads and returns its output with the factor that rescales a
    /// wall time measured inside `f` to the nominal host. A fresh
    /// one-thread sample is shared by adjacent measurements.
    fn calibrated<T>(&mut self, threads: usize, f: impl FnOnce(&mut Tracer) -> T) -> (T, f64) {
        let pooled = threads > 1;
        let before = if pooled {
            self.cal_pool.run()
        } else {
            if self.last_calib.0.elapsed() > CALIB_FRESH {
                self.last_calib = (Instant::now(), self.cal.run());
            }
            self.last_calib.1
        };
        let out = f(&mut self.tr);
        let after = if pooled {
            self.cal_pool.run()
        } else {
            self.last_calib = (Instant::now(), self.cal.run());
            self.last_calib.1
        };
        (out, normalise(1.0, before, after))
    }

    /// Times `body(prepare())` over `rounds` rounds, one span per round;
    /// returns the last round's output and the median seconds, each
    /// round normalised like a workload rep. `prepare` is outside the
    /// span.
    fn timed<S, T>(
        &mut self,
        name: &'static str,
        rounds: usize,
        prepare: impl FnMut() -> S,
        body: impl FnMut(S) -> T,
    ) -> (T, f64) {
        self.timed_on(1, name, rounds, prepare, body)
    }

    /// [`timed`](Self::timed) for code that runs on `threads` threads.
    fn timed_on<S, T>(
        &mut self,
        threads: usize,
        name: &'static str,
        rounds: usize,
        mut prepare: impl FnMut() -> S,
        mut body: impl FnMut(S) -> T,
    ) -> (T, f64) {
        let mut secs = Vec::with_capacity(rounds);
        let mut last = None;
        for round in 0..rounds {
            let input = prepare();
            let ((out, wall), scale) = self.calibrated(threads, |tr| {
                tr.set_rep(round as u32);
                let span = tr.begin(name);
                let start = Instant::now();
                let out = black_box(body(input));
                let wall = start.elapsed().as_secs_f64();
                tr.end(span);
                (out, wall)
            });
            secs.push(wall * scale);
            last = Some(out);
        }
        (last.expect("at least one round"), median(&secs))
    }

    /// Median normalised measured-region time of `ROUNDS` reps of a
    /// workload, each checked against `expect_fp`.
    fn rep_secs(&mut self, workload: &mut dyn Workload, expect_fp: u64) -> f64 {
        let mut secs = Vec::with_capacity(ROUNDS);
        for round in 0..ROUNDS {
            let (rep, scale) = self.calibrated(workload.pool(), |tr| {
                tr.set_rep(round as u32);
                workload.rep(tr)
            });
            self.check(rep.failed(expect_fp) == 0, "rep matches its oracle");
            secs.push(rep.timed_s * scale);
        }
        median(&secs)
    }

    /// Measures every section.
    pub fn run_all(&mut self) {
        let replay = self.core_hot_path();
        self.netsim_and_reactor(&replay);
        self.scanner_recovery_and_memory();
        self.parallel_scanner(&replay);
        self.state_and_checkpoint();
        self.campaign();
        self.adaptive(&replay);
        self.serve();
    }

    // -----------------------------------------------------------------
    // core hot path + netsim handle/tick + Scanner::run, reconciled

    fn core_hot_path(&mut self) -> Replay {
        let (cfg, world_cfg) = ScanWorkload::lossless_cfg(self.seeds, LOSSLESS_TARGETS);
        let range = scan_range();
        let blocklist = Blocklist::with_standard_reserved();
        let steps = LOSSLESS_TARGETS as usize;
        let space = u64::try_from(range.space_size()).expect("scan range fits 64 bits");
        let per = |secs: f64, n: usize| secs * 1e9 / n as f64;

        // End to end first: the number the stages must add up to.
        let ((records, stats, validator), scan_s) = self.timed(
            "core.scanner.run",
            KEY_ROUNDS,
            || scanner_over(world_cfg, cfg.clone()),
            |mut scanner| {
                let results = scanner.run(&range, &IcmpEchoProbe, &blocklist);
                (results.records, results.stats, *scanner.validator())
            },
        );

        // permute
        let (indices, secs) = self.timed(
            "core.cyclic.fill_raw",
            ROUNDS,
            || vec![0u64; steps],
            |mut out| {
                let got = Cycle::new(space, cfg.seed)
                    .iter_shard(0, 1)
                    .fill_raw(&mut out);
                out.truncate(got);
                out
            },
        );
        self.row("core.cyclic.ns_per_index", per(secs, indices.len()));
        // Seconds of the stages that add up to a scanner probe.
        let mut staged_secs = secs;
        let (_, secs) = self.timed(
            "core.feistel.fill",
            ROUNDS,
            || vec![0u64; steps],
            |mut out| {
                FeistelPermutation::new(space, cfg.seed).fill(0, 1, &mut out);
                out
            },
        );
        self.row("core.feistel.ns_per_index", per(secs, steps));

        // index -> target -> destination -> blocklist
        let (targets, secs) = self.timed(
            "addr.range.nth",
            ROUNDS,
            || Vec::<Prefix>::with_capacity(steps),
            |mut out| {
                // `u64::MAX` is the cyclic walk's fringe sentinel.
                out.extend(indices.iter().filter_map(|i| range.nth(*i)));
                out
            },
        );
        self.row("addr.range.ns_per_nth", per(secs, indices.len()));
        staged_secs += secs;
        let (mut dsts, secs) = self.timed(
            "core.target.fill_host_bits",
            ROUNDS,
            || Vec::<Ip6>::with_capacity(steps),
            |mut out| {
                out.extend(targets.iter().map(|t| fill_host_bits(*t, cfg.seed)));
                out
            },
        );
        self.row("core.target.ns_per_fill", per(secs, targets.len()));
        staged_secs += secs;
        let (allowed, secs) = self.timed(
            "core.blocklist.is_allowed",
            ROUNDS,
            || (),
            |()| dsts.iter().filter(|d| blocklist.is_allowed(**d)).count(),
        );
        self.row("core.blocklist.ns_per_lookup", per(secs, dsts.len()));
        staged_secs += secs;
        dsts.retain(|d| blocklist.is_allowed(*d));
        debug_assert_eq!(allowed, dsts.len());

        // build (and the cookie inside it, on its own)
        let (_, secs) = self.timed(
            "core.probe.build",
            ROUNDS,
            || (),
            |()| build_probes(&cfg, &validator, &dsts),
        );
        self.row("core.probe.ns_per_build", per(secs, dsts.len()));
        staged_secs += secs;
        let (_, secs) = self.timed(
            "core.validate.cookie",
            ROUNDS,
            || (),
            |()| dsts.iter().fold(0u32, |acc, d| acc ^ validator.cookie(*d)),
        );
        self.row("core.validate.ns_per_cookie", per(secs, dsts.len()));

        // world respond: every probe handled, then the clock ticked as
        // often as the scanner ticks it (once per send slot).
        let ((mut world, replies), secs) = self.timed(
            "netsim.world.handle_into",
            KEY_ROUNDS,
            || {
                (
                    world_with(world_cfg, &Telemetry::new()),
                    build_probes(&cfg, &validator, &dsts),
                )
            },
            |(mut world, probes)| {
                let mut replies = Vec::new();
                for probe in probes {
                    world.handle_into(probe, &mut replies);
                }
                (world, replies)
            },
        );
        self.row("netsim.world.ns_per_handle", per(secs, dsts.len()));
        staged_secs += secs;
        self.row(
            "netsim.world.replies_per_probe",
            replies.len() as f64 / dsts.len() as f64,
        );
        let (_, secs) = self.timed(
            "netsim.world.tick_into",
            ROUNDS,
            || (),
            |()| {
                let mut due = Vec::new();
                for _ in 0..dsts.len() {
                    world.tick_into(1, &mut due);
                }
                due.len()
            },
        );
        self.row("netsim.world.ns_per_tick", per(secs, dsts.len()));
        staged_secs += secs;

        // classify
        let (valid, secs) = self.timed(
            "core.probe.classify",
            ROUNDS,
            || Vec::<Ip6>::with_capacity(replies.len()),
            |mut valid| {
                for reply in &replies {
                    if IcmpEchoProbe.classify(reply, &validator) != ProbeResult::Invalid {
                        valid.push(reply.src);
                    }
                }
                valid
            },
        );
        self.row(
            "core.probe.ns_per_classify",
            per(secs, replies.len().max(1)),
        );
        staged_secs += secs;

        // Oracle: the replay must reproduce the scanner's records.
        self.check(
            dsts.len() as u64 == stats.sent,
            "stage replay sends as many probes as Scanner::run",
        );
        self.check(
            valid == records.iter().map(|r| r.responder).collect::<Vec<_>>(),
            "stage replay sees Scanner::run's responders in order",
        );

        // record/dedup and tally primitives (informative; the scanner's
        // own use of them is inside its self time)
        let (_, secs) = self.timed(
            "addr.fxhash.insert",
            ROUNDS,
            || (),
            |()| {
                let mut seen: FxHashSet<Ip6> = FxHashSet::default();
                for d in &dsts {
                    seen.insert(*d);
                }
                seen.len()
            },
        );
        self.row("addr.fxhash.ns_per_insert", per(secs, dsts.len()));
        let (_, secs) = self.timed(
            "telemetry.registry.add",
            ROUNDS,
            || Telemetry::new().registry.counter("bench.adds"),
            |counter| {
                for _ in 0..dsts.len() {
                    counter.add(1);
                }
                counter.get()
            },
        );
        self.row("telemetry.registry.ns_per_add", per(secs, dsts.len()));

        // reconcile: what Scanner::run spends outside the stages above
        let sent = stats.sent as usize;
        let run_ns = per(scan_s, sent);
        let staged_ns = per(staged_secs, sent);
        self.row("core.scanner.ns_per_probe", run_ns);
        self.row("core.scanner.self_ns_per_probe", run_ns - staged_ns);
        self.row("core.scanner.residual_frac", (run_ns - staged_ns) / run_ns);

        Replay {
            cfg,
            world_cfg,
            validator,
            dsts,
            scan_s,
            sent: stats.sent,
        }
    }

    // -----------------------------------------------------------------
    // netsim construct/fault, reactor

    fn netsim_and_reactor(&mut self, replay: &Replay) {
        let (_, campaign_world) = CampaignWorkload::cfg(self.seeds);
        let (_, secs) = self.timed(
            "netsim.world.construct",
            ROUNDS,
            || (),
            |()| World::with_config(campaign_world),
        );
        self.row("netsim.world.construct_ms", secs * 1e3);

        let n = replay.dsts.len();
        let probes = || build_probes(&replay.cfg, &replay.validator, &replay.dsts);
        let (_, lossy_world) = ScanWorkload::lossy_cfg(self.seeds);
        let (_, secs) = self.timed(
            "netsim.fault.handle_into",
            ROUNDS,
            || (world_with(lossy_world, &Telemetry::new()), probes()),
            |(mut world, probes)| {
                let mut replies = Vec::new();
                for probe in probes {
                    world.handle_into(probe, &mut replies);
                    world.tick_into(1, &mut replies); // loss is redrawn per tick
                }
                replies.len()
            },
        );
        self.row("netsim.fault.ns_per_handle", secs * 1e9 / n as f64);

        // The same probes through the reactor's transport, 64 a batch.
        let (_, secs) = self.timed(
            "reactor.transport.send_recv",
            ROUNDS,
            || {
                let world = world_with(replay.world_cfg, &Telemetry::new());
                (SimTransport::new(world), probes())
            },
            |(mut transport, probes)| {
                let mut batch = Vec::with_capacity(64);
                let mut arrivals = Vec::new();
                let mut probes = probes.into_iter();
                loop {
                    batch.extend(probes.by_ref().take(64));
                    if batch.is_empty() {
                        return arrivals.len();
                    }
                    transport.send_batch(&mut batch);
                    transport.advance(1);
                    transport.poll_recv(&mut arrivals);
                }
            },
        );
        self.row("reactor.transport.ns_per_send_recv", secs * 1e9 / n as f64);

        // Timer heap: arm a retry-sized population, then fire it in
        // deadline order. One op = one arm or one pop.
        const TIMERS: u64 = 1 << 16;
        let (_, secs) = self.timed(
            "reactor.timer.arm_pop",
            ROUNDS,
            TimerHeap::<u64>::new,
            |mut heap| {
                let mut state = 0x71_3e5u64;
                for i in 0..TIMERS {
                    heap.arm(splitmix64(&mut state) % TIMERS, i);
                }
                let mut fired = 0u64;
                for now in 0..TIMERS {
                    while heap.pop_due(now).is_some() {
                        fired += 1;
                    }
                }
                fired
            },
        );
        self.row("reactor.timer.ns_per_op", secs * 1e9 / (2 * TIMERS) as f64);
        let (_, secs) = self.timed(
            "reactor.queue.push_pop",
            ROUNDS,
            || BoundedQueue::<u64>::new(1024),
            |mut queue| {
                let mut sum = 0u64;
                for round in 0..(TIMERS / 1024) {
                    for i in 0..1024 {
                        queue.push(round * 1024 + i);
                    }
                    while let Some(v) = queue.pop() {
                        sum = sum.wrapping_add(v);
                    }
                }
                sum
            },
        );
        self.row("reactor.queue.ns_per_op", secs * 1e9 / (2 * TIMERS) as f64);
    }

    // -----------------------------------------------------------------
    // the scanner's recovery path, and its memory per target

    fn scanner_recovery_and_memory(&mut self) {
        let (cfg, world_cfg) = ScanWorkload::lossy_cfg(self.seeds);
        let range = scan_range();
        let blocklist = Blocklist::with_standard_reserved();
        let (stats, _) = self.timed(
            "core.scanner.run_lossy",
            1,
            || scanner_over(world_cfg, cfg.clone()),
            |mut scanner| scanner.run(&range, &IcmpEchoProbe, &blocklist).stats,
        );
        let targets = (stats.sent - stats.retransmits) as f64;
        self.row("core.scanner.valid_per_sent", stats.hit_rate());
        self.row(
            "core.scanner.retransmit_frac",
            stats.retransmits as f64 / stats.sent as f64,
        );
        self.row("core.scanner.gave_up_frac", stats.gave_up as f64 / targets);

        // Peak RSS of the scan at two sizes, each in a process of its own.
        let half = LOSSLESS_TARGETS / 2;
        let small = self.rss_child(half);
        let large = self.rss_child(LOSSLESS_TARGETS);
        self.check(small > 0.0 && large >= small, "rss-rep children ran");
        self.row(
            "core.scanner.bytes_per_target",
            (large - small) * 1024.0 / half as f64,
        );
    }

    /// Peak RSS (kB) of a child running the lossless scan once at
    /// `targets` targets.
    fn rss_child(&mut self, targets: u64) -> f64 {
        let span = self.tr.begin("core.scanner.rss_rep");
        let kb = crate::run::peak_rss_kb_of("scan_lossless", self.seed, targets);
        self.tr.end(span);
        kb.unwrap_or(0.0)
    }

    fn parallel_scanner(&mut self, replay: &Replay) {
        let range = scan_range();
        let blocklist = Blocklist::with_standard_reserved();
        let world_cfg = replay.world_cfg;
        let (sent, secs) = self.timed_on(
            2,
            "core.parallel.run_2w",
            ROUNDS,
            || {
                ParallelScanner::new(2, replay.cfg.clone(), move |_, telemetry| {
                    world_with(world_cfg, telemetry)
                })
            },
            |mut pool| pool.run(&range, &IcmpEchoProbe, &blocklist).stats.sent,
        );
        self.check(sent == replay.sent, "2-worker scan sends the same probes");
        self.row("core.parallel.efficiency_2w", replay.scan_s / (2.0 * secs));
    }

    // -----------------------------------------------------------------
    // state: journal and checkpoint files; core::checkpoint on top

    fn state_and_checkpoint(&mut self) {
        // Journal: appends of record-sized payloads, then flushes of the
        // few records a checkpoint interval leaves buffered.
        const APPENDS: usize = 1 << 14;
        let payload = [0xa5u8; 56];
        let wal_path = self.dir.join("ledger-journal.wal");
        let (mut wal, secs) = self.timed(
            "state.wal.append",
            ROUNDS,
            || Wal::create(&wal_path).expect("create journal"),
            |mut wal| {
                for _ in 0..APPENDS {
                    wal.append(&payload).expect("append");
                }
                wal
            },
        );
        self.row("state.wal.ns_per_append", secs * 1e9 / APPENDS as f64);
        let mut flushes = Vec::with_capacity(64);
        for _ in 0..64 {
            for _ in 0..16 {
                wal.append(&payload).expect("append");
            }
            let span = self.tr.begin("state.wal.flush");
            let start = Instant::now();
            wal.flush().expect("flush");
            flushes.push(start.elapsed().as_secs_f64());
            self.tr.end(span);
        }
        self.row("state.wal.flush_us", median(&flushes) * 1e6);

        // A real mid-range checkpoint: kill scan_durable halfway and keep
        // what its sink last wrote.
        let mut durable = DurableWorkload::new(self.seeds, &self.dir);
        let facts = durable.oracle();
        let signal = AbortSignal::new();
        let mut scanner = durable.scanner_with_sink();
        scanner.network_mut().arm_kill(
            KillPoint {
                after_probes: Some(DURABLE_TARGETS / 2),
                ..Default::default()
            },
            signal.clone(),
        );
        scanner.set_abort(signal);
        let killed = durable.run(&mut scanner);
        let ckpt_path = durable.checkpoint_path();
        self.check(
            killed.interrupted && ckpt_path.exists(),
            "killed durable scan left a checkpoint",
        );
        let bytes = std::fs::metadata(&ckpt_path).map_or(0, |m| m.len());
        self.row("core.checkpoint.bytes_per_checkpoint", bytes as f64);
        let (ckpt, secs) = self.timed(
            "state.checkpoint.read_from",
            5,
            || (),
            |()| WorkerCheckpoint::read_from(&ckpt_path).expect("read checkpoint"),
        );
        self.row("state.checkpoint.read_us", secs * 1e6);
        self.check(ckpt.run.is_some(), "mid-range checkpoint carries run state");
        let copy_path = self.dir.join("checkpoint-copy.ckpt");
        let (_, secs) = self.timed(
            "state.checkpoint.write_to",
            5,
            || (),
            |()| ckpt.write_to(&copy_path).expect("write checkpoint"),
        );
        self.row("state.checkpoint.write_us", secs * 1e6);

        // What durability costs a probe: scan_durable against the same
        // scan with no sink attached.
        let durable_secs = self.rep_secs(&mut durable, facts.expect_fp);
        let mut plain = ScanWorkload::lossless(self.seeds, DURABLE_TARGETS);
        let plain_secs = self.rep_secs(&mut plain, facts.expect_fp);
        self.row(
            "core.checkpoint.ns_per_probe",
            (durable_secs - plain_secs) * 1e9 / facts.probes as f64,
        );
        // One checkpoint per DURABLE_EVERY send slots, plus the one that
        // marks the range complete.
        self.row(
            "core.checkpoint.count",
            (facts.probes / DURABLE_EVERY + 1) as f64,
        );
    }

    // -----------------------------------------------------------------
    // periphery::campaign and the block executor

    fn campaign(&mut self) {
        let (base, world_cfg) = CampaignWorkload::cfg(self.seeds);
        let campaign = CampaignWorkload::campaign();
        let ((sent, found_giant), seq_secs) = self.timed(
            "periphery.campaign.run",
            ROUNDS,
            || scanner_over(world_cfg, base.clone()),
            |mut scanner| {
                let result = campaign.run(&mut scanner);
                let sent = scanner.telemetry().registry.snapshot().counter(names::SENT);
                (sent, result.blocks[CAMPAIGN_GIANT.0].peripheries.len())
            },
        );
        self.row(
            "periphery.campaign.ns_per_probe",
            seq_secs * 1e9 / sent as f64,
        );

        let executor = xmap_periphery::ParallelCampaign::new(campaign.clone(), 2);
        let (splits, par_secs) = self.timed_on(
            2,
            "periphery.parallel.run_2w",
            ROUNDS,
            || (),
            |()| {
                executor
                    .run(&base, |_, telemetry| world_with(world_cfg, telemetry))
                    .snapshot
                    .counter(names::EXEC_SPLITS)
            },
        );
        self.row(
            "periphery.parallel.efficiency_2w",
            seq_secs / (2.0 * par_secs),
        );
        self.row("periphery.parallel.splits", splits as f64);

        // The straggler alone, and the bare scan underneath it.
        let giant = &SAMPLE_BLOCKS[CAMPAIGN_GIANT.0];
        let (_, giant_secs) = self.timed(
            "periphery.campaign.run_block_giant",
            ROUNDS,
            || scanner_over(world_cfg, base.clone()),
            |mut scanner| campaign.run_block(&mut scanner, giant).peripheries.len(),
        );
        self.row("periphery.parallel.giant_block_frac", giant_secs / par_secs);
        let bare_cfg = ScanConfig {
            max_targets: Some(CAMPAIGN_GIANT.1),
            ..base.clone()
        };
        let range = giant.scan_range();
        let blocklist = Blocklist::with_standard_reserved();
        let (_, bare_secs) = self.timed(
            "core.scanner.run_giant",
            ROUNDS,
            || scanner_over(world_cfg, bare_cfg.clone()),
            |mut scanner| {
                let records: Vec<ScanRecord> =
                    scanner.run(&range, &IcmpEchoProbe, &blocklist).records;
                records.len()
            },
        );
        self.row(
            "periphery.campaign.post_ns_per_record",
            (giant_secs - bare_secs) * 1e9 / found_giant.max(1) as f64,
        );
    }

    // -----------------------------------------------------------------
    // periphery::adaptive and what it leans on

    fn adaptive(&mut self, replay: &Replay) {
        let (base, world_cfg) = AdaptiveWorkload::cfg(self.seeds);
        let make_world = |telemetry: &Telemetry| world_with(world_cfg, telemetry);
        let probes_of = |out: xmap_periphery::AdaptiveOutcome| -> u64 {
            out.result.blocks.iter().map(|b| b.probed).sum()
        };
        let adaptive = AdaptiveWorkload::adaptive();
        let (probes, secs) = self.timed(
            "periphery.adaptive.run",
            ROUNDS,
            || (),
            |()| probes_of(adaptive.run(&base, make_world)),
        );
        let adaptive_ns = secs * 1e9 / probes as f64;
        let exhaustive = AdaptiveWorkload::exhaustive();
        let (ex_probes, secs) = self.timed(
            "periphery.adaptive.run_exhaustive",
            ROUNDS,
            || (),
            |()| probes_of(exhaustive.run(&base, make_world)),
        );
        let exhaustive_ns = secs * 1e9 / ex_probes as f64;
        self.row("periphery.adaptive.ns_per_probe", adaptive_ns);
        self.row("periphery.adaptive.exhaustive_ns_per_probe", exhaustive_ns);
        self.row("periphery.adaptive.cost_ratio", adaptive_ns / exhaustive_ns);
        self.row("periphery.adaptive.probes", probes as f64);

        // Prefix tree: a round's worth of bookkeeping per frontier node —
        // record the samples, then split, prune or leave it.
        let root: Prefix = "2409:8000::/28".parse().expect("static prefix parses");
        let (ops, secs) = self.timed(
            "addr.prefix_tree.update",
            ROUNDS,
            || PrefixTree::new(root, 60, 4),
            |mut tree| {
                let mut state = 0x7ee_u64;
                let mut ops = 0u64;
                while tree.len() < 1 << 15 {
                    for idx in tree.frontier() {
                        let draw = splitmix64(&mut state);
                        let hits = u64::from(draw & 3 == 0);
                        tree.record(idx, 16, hits);
                        ops += 1;
                        if hits == 1 {
                            tree.split(idx);
                            ops += 1;
                        } else if draw & 4 == 0 {
                            tree.prune(idx);
                            ops += 1;
                        }
                    }
                }
                ops
            },
        );
        self.row("addr.prefix_tree.ns_per_update", secs * 1e9 / ops as f64);
        let (_, secs) = self.timed(
            "addr.iid.classify",
            ROUNDS,
            || (),
            |()| {
                replay
                    .dsts
                    .iter()
                    .filter(|d| classify_iid(**d) == xmap_addr::IidClass::Eui64)
                    .count()
            },
        );
        self.row(
            "addr.iid.ns_per_classify",
            secs * 1e9 / replay.dsts.len() as f64,
        );
    }

    // -----------------------------------------------------------------
    // serve, with loopscan and telemetry underneath

    /// One daemon lifetime over `specs`.
    fn daemon_round(
        &mut self,
        root: &Path,
        specs: &[(&'static str, xmap_serve::JobSpec)],
    ) -> DaemonRound {
        let _ = std::fs::remove_dir_all(root);
        let cfg = ServeWorkload::config();
        let workers = cfg.workers;
        let daemon = Daemon::open(root, cfg).expect("open daemon root");
        let mut submits = Vec::with_capacity(specs.len());
        let mut last_job = 0;
        for (tenant, spec) in specs {
            let span = self.tr.begin("serve.daemon.submit");
            let start = Instant::now();
            last_job = daemon
                .submit(tenant, spec.clone())
                .expect("submit admitted");
            submits.push(start.elapsed().as_secs_f64());
            self.tr.end(span);
        }
        daemon.drain();
        let ((ran, run_secs, began), scale) = self.calibrated(workers, |tr| {
            let began = SystemTime::now();
            let span = tr.begin("serve.daemon.run");
            let start = Instant::now();
            let ran = daemon.run();
            let run_secs = start.elapsed().as_secs_f64();
            tr.end(span);
            (ran, run_secs, began)
        });
        self.check(
            ran.is_ok_and(|o| o.completed == specs.len() as u64),
            "daemon completed every job",
        );
        // Publication time from the artifact's mtime: no watcher thread,
        // at the cost of the filesystem's timestamp granularity.
        let published = std::fs::metadata(job_dir(root, last_job).join("result.csv"))
            .and_then(|m| m.modified())
            .ok()
            .and_then(|t| t.duration_since(began).ok())
            .map_or(run_secs, |d| d.as_secs_f64());
        let units = daemon.metrics().counter(metric::UNITS_EXECUTED).get();
        DaemonRound {
            run_s: run_secs * scale,
            submit_s: submits,
            units,
            published_s: published * scale,
        }
    }

    fn serve(&mut self) {
        let specs = ServeWorkload::specs(self.seeds);
        let root = self.dir.join("ledger-daemon");
        let (mut runs, mut submits, mut shared_done) = (Vec::new(), Vec::new(), Vec::new());
        let mut units = 0;
        for round in 0..ROUNDS {
            self.tr.set_rep(round as u32);
            let round = self.daemon_round(&root, &specs);
            runs.push(round.run_s);
            submits.extend(round.submit_s);
            shared_done.push(round.published_s);
            units = round.units;
        }
        let mut solo_done = Vec::new();
        for round in 0..ROUNDS {
            self.tr.set_rep(round as u32);
            solo_done.push(self.daemon_round(&root, &specs[1..]).published_s);
        }
        self.row("serve.submit_ack_us_p50", median(&submits) * 1e6);
        self.row("serve.units_executed", units as f64);
        self.row("serve.small_job_done_ms", median(&shared_done) * 1e3);
        self.row(
            "serve.small_job_slowdown",
            median(&shared_done) / median(&solo_done),
        );

        // Every unit run directly: what the pool would take with no
        // ledger, admission, dispatch, checkpoints or finalize.
        let mut unit_secs = Vec::new();
        for (_, spec) in &specs {
            for unit in 0..spec.units() {
                let (wall, scale) = self.calibrated(1, |tr| {
                    let span = tr.begin("serve.job.run_unit");
                    let start = Instant::now();
                    black_box(spec.run_unit(unit));
                    let wall = start.elapsed().as_secs_f64();
                    tr.end(span);
                    wall
                });
                unit_secs.push(wall * scale);
            }
        }
        self.row("serve.unit_run_ms_p50", median(&unit_secs) * 1e3);
        let workers = ServeWorkload::config().workers as f64;
        self.row(
            "serve.dispatch_overhead_frac",
            1.0 - unit_secs.iter().sum::<f64>() / (workers * median(&runs)),
        );

        // Ledger appends (each flushed before it is acknowledged).
        const EVENTS: u64 = 256;
        let ledger_path = self.dir.join("ledger-bench.wal");
        let (_, secs) = self.timed(
            "serve.ledger.append",
            ROUNDS,
            || {
                let _ = std::fs::remove_file(&ledger_path);
                xmap_serve::Ledger::open(&ledger_path)
                    .expect("open ledger")
                    .0
            },
            |mut ledger| {
                for job in 0..EVENTS {
                    ledger
                        .append(&LedgerEvent::Completed { job })
                        .expect("append");
                }
                ledger.len()
            },
        );
        self.row("serve.ledger.ns_per_append", secs * 1e9 / EVENTS as f64);

        // DRR dispatch: 64 jobs of 64 units, drained.
        const JOBS: u64 = 64;
        let (dispatched, secs) = self.timed(
            "serve.sched.dispatch",
            ROUNDS,
            || DrrScheduler::new(4096),
            |mut sched| {
                for job in 0..JOBS {
                    let tenant = if job % 2 == 0 { "alice" } else { "bob" };
                    sched.admit(job, tenant, 1, (0..64).map(|u| (u, 2048)));
                }
                let mut dispatched = 0u64;
                while sched.next_unit().is_some() {
                    dispatched += 1;
                }
                dispatched
            },
        );
        self.check(dispatched == JOBS * 64, "scheduler dispatched every unit");
        self.row(
            "serve.sched.ns_per_dispatch",
            secs * 1e9 / dispatched as f64,
        );

        // loopscan's survey on its own scanner, and the registry
        // operations every unit boundary pays.
        let (bob_cfg, bob_world) = (
            ScanConfig {
                seed: specs[1].1.seed(),
                ..Default::default()
            },
            WorldConfig::lossless(specs[1].1.world_seed(), 10),
        );
        let (scanner, secs) = self.timed(
            "loopscan.survey.run",
            ROUNDS,
            || scanner_over(bob_world, bob_cfg.clone()),
            |mut scanner| {
                DepthSurvey::new(SERVE_BOB_PROBES).run(&mut scanner);
                scanner
            },
        );
        let registry = &scanner.telemetry().registry;
        let sent = registry.snapshot().counter(names::SENT);
        self.row("loopscan.survey.ns_per_probe", secs * 1e9 / sent as f64);
        const REGISTRY_OPS: usize = 256;
        let (snap, secs) = self.timed(
            "telemetry.registry.snapshot",
            ROUNDS,
            || (),
            |()| {
                let mut snap = registry.snapshot();
                for _ in 1..REGISTRY_OPS {
                    snap = registry.snapshot();
                }
                snap
            },
        );
        self.row(
            "telemetry.registry.snapshot_us",
            secs * 1e6 / REGISTRY_OPS as f64,
        );
        let sink = Telemetry::new();
        let (_, secs) = self.timed(
            "telemetry.registry.absorb",
            ROUNDS,
            || (),
            |()| (0..REGISTRY_OPS).for_each(|_| sink.registry.absorb(&snap)),
        );
        self.row(
            "telemetry.registry.absorb_us",
            secs * 1e6 / REGISTRY_OPS as f64,
        );
    }
}

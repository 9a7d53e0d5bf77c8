//! The six workloads: fixtures, oracle and one measured repetition each.
//!
//! Every workload is a closed-loop batch job driven by the one benchmark
//! thread; the program's own pools get `min(2, nproc)` workers. A rep is
//! fixed work, so every count it produces repeats exactly for a seed.
//!
//! API-surface discipline: every config is built with
//! `..Default::default()` and only the public items listed in
//! `benchmark/README.md` are named, so later simplification PRs can
//! delete slated knobs without editing this file.

use std::path::{Path, PathBuf};
use std::time::Instant;

use xmap::telemetry::names;
use xmap::{
    build_manifest, merge_worker_snapshots, Blocklist, IcmpEchoProbe, RangeMode, ScanConfig,
    ScanRecord, ScanResults, ScanSession, Scanner,
};
use xmap_addr::{FxHashSet, Ip6, ScanRange};
use xmap_netsim::world::{Allocation, WorldConfig};
use xmap_netsim::{FaultPlan, World};
use xmap_periphery::{
    AdaptiveCampaign, AdaptiveConfig, Campaign, CampaignResult, ParallelCampaign,
};
use xmap_serve::daemon::{job_dir, metric};
use xmap_serve::{Daemon, JobSpec, ServeConfig};
use xmap_telemetry::{Snapshot, Telemetry};

use crate::estimator::{derive_seed, fnv1a};
use crate::spans::Tracer;

/// Workload names, in reporting order.
pub const WORKLOADS: [&str; 6] = [
    "scan_lossless",
    "scan_lossy",
    "scan_durable",
    "campaign_skewed",
    "adaptive_clustered",
    "serve_two_tenants",
];

/// The sample block every `scan_*` workload walks (China Mobile, 2^32
/// /60 sub-prefixes; the range the repo's own scanner benches use).
pub const SCAN_RANGE: &str = "2409:8000::/28-60";
/// Targets of `scan_lossless`.
pub const LOSSLESS_TARGETS: u64 = 1 << 18;
/// Targets of `scan_lossy` (×≤3 probes each).
pub const LOSSY_TARGETS: u64 = 1 << 17;
/// Targets of `scan_durable`.
pub const DURABLE_TARGETS: u64 = 1 << 15;
/// Checkpoint cadence of `scan_durable`, the CLI's default.
pub const DURABLE_EVERY: u64 = 1024;
/// Per-block budget of `campaign_skewed`'s fourteen ordinary blocks.
pub const CAMPAIGN_BLOCK_TARGETS: u64 = 1 << 13;
/// Index and budget of the one 32× block.
pub const CAMPAIGN_GIANT: (usize, u64) = (2, 1 << 18);
/// `root_bits` of `adaptive_clustered`: each block's first 2^16 targets.
pub const ADAPTIVE_ROOT_BITS: u8 = 16;
/// alice's periphery campaign budget per block.
pub const SERVE_ALICE_TARGETS: u64 = 1 << 15;
/// bob's loopscan survey budget per block.
pub const SERVE_BOB_PROBES: u64 = 1 << 11;

/// Worker count handed to the program's own pools.
pub fn pool_workers() -> usize {
    std::thread::available_parallelism()
        .map_or(1, usize::from)
        .min(2)
}

/// The seeds a workload's inputs derive from.
#[derive(Debug, Clone, Copy)]
pub struct Seeds {
    /// Simulated-world seed.
    pub world: u64,
    /// Scanner seed (permutation, cookies, host bits).
    pub scan: u64,
    /// Fault-plan seed.
    pub fault: u64,
}

impl Seeds {
    /// Derives the three seeds from the workload seed.
    pub fn derive(seed: u64) -> Self {
        Seeds {
            world: derive_seed(seed, 1),
            scan: derive_seed(seed, 2),
            fault: derive_seed(seed, 3),
        }
    }
}

/// What one measured repetition reports.
#[derive(Debug, Clone, Copy)]
pub struct RepOutcome {
    /// Wall time of the measured region, in seconds.
    pub timed_s: f64,
    /// Operations attempted: the rep itself, plus each job for serve.
    pub attempted: u64,
    /// Operations that failed on their own account: jobs not completed,
    /// poisoned blocks, worker panics, a journal that does not replay.
    /// The caller adds one more when `artifact_fp` is not the oracle's.
    pub faults: u64,
    /// FNV-1a over the rep's CSV bytes and metrics-snapshot JSON with
    /// `exec.*` counters dropped.
    pub artifact_fp: u64,
}

impl RepOutcome {
    /// Failed operations of this rep, judged against the oracle's
    /// fingerprint.
    pub fn failed(&self, expect_fp: u64) -> u64 {
        (self.faults + u64::from(self.artifact_fp != expect_fp)).min(self.attempted)
    }
}

/// The exact per-(workload, seed) facts the oracle establishes at set-up.
#[derive(Debug, Clone, Copy)]
pub struct Facts {
    /// The oracle's artifact fingerprint; every rep must reproduce it.
    pub expect_fp: u64,
    /// Probes one rep sends (`ScanStats.sent` summed over the rep).
    pub probes: u64,
    /// Unique discovered responder addresses per rep.
    pub found: u64,
    /// `found` ∩ reference ÷ reference, the reference being the lossless,
    /// exhaustive, single-worker run over the same slice.
    pub recall: f64,
    /// Probes that reference sends: the size of the slice in probes.
    pub reference_probes: u64,
}

/// One workload's fixtures.
pub trait Workload {
    /// Runs the oracle: the simplest path over the same slice.
    fn oracle(&self) -> Facts;

    /// Runs one measured repetition.
    fn rep(&mut self, tr: &mut Tracer) -> RepOutcome;

    /// Threads the program's own pool runs this workload on; the
    /// calibration kernel runs on as many.
    fn pool(&self) -> usize {
        1
    }
}

/// Builds `name`'s fixtures. `dir` is a private scratch directory for
/// the workloads that write.
///
/// # Panics
///
/// Panics on an unknown workload name (validated by the caller).
pub fn fixtures(name: &str, seed: u64, dir: &Path) -> Box<dyn Workload> {
    let seeds = Seeds::derive(seed);
    match name {
        "scan_lossless" => Box::new(ScanWorkload::lossless(seeds, LOSSLESS_TARGETS)),
        "scan_lossy" => Box::new(ScanWorkload::lossy(seeds)),
        "scan_durable" => Box::new(DurableWorkload::new(seeds, dir)),
        "campaign_skewed" => Box::new(CampaignWorkload::new(seeds)),
        "adaptive_clustered" => Box::new(AdaptiveWorkload::new(seeds)),
        "serve_two_tenants" => Box::new(ServeWorkload::new(seeds, dir)),
        other => panic!("unknown workload {other}"),
    }
}

/// A world whose counters land in `telemetry`, the way the `xmap` CLI and
/// every executor build theirs.
pub fn world_with(cfg: WorldConfig, telemetry: &Telemetry) -> World {
    let mut world = World::with_config(cfg);
    world.set_telemetry(telemetry);
    world
}

/// A scanner and world sharing one fresh telemetry bundle.
pub fn scanner_over(world_cfg: WorldConfig, cfg: ScanConfig) -> Scanner<World> {
    let telemetry = Telemetry::new();
    let world = world_with(world_cfg, &telemetry);
    Scanner::with_telemetry(world, cfg, telemetry)
}

/// The artifact fingerprint: CSV bytes, then the snapshot's JSON with
/// every `exec.*` counter dropped (as `scripts/cmp_metrics_no_exec.py`
/// does), so a schedule that happens to split is not a failure.
pub fn artifact_fp(csv: &str, snapshot: &Snapshot) -> u64 {
    let mut snap = snapshot.clone();
    snap.counters.retain(|name, _| !name.starts_with("exec."));
    fnv1a(&[csv.as_bytes(), snap.to_json().as_bytes()])
}

/// The range every `scan_*` workload walks.
pub fn scan_range() -> ScanRange {
    SCAN_RANGE.parse().expect("static range parses")
}

/// A finished scan's artifact fingerprint: its CSV and its scanner's
/// registry snapshot.
fn scan_fp(scanner: &Scanner<World>, records: &[ScanRecord]) -> u64 {
    artifact_fp(
        &xmap::output::to_csv(records),
        &scanner.telemetry().registry.snapshot(),
    )
}

fn unique_responders(records: &[ScanRecord]) -> FxHashSet<Ip6> {
    records.iter().map(|r| r.responder).collect()
}

fn campaign_addresses(result: &CampaignResult) -> FxHashSet<Ip6> {
    result.peripheries().map(|p| p.address).collect()
}

fn recall_of(found: &FxHashSet<Ip6>, reference: &FxHashSet<Ip6>) -> f64 {
    found.intersection(reference).count() as f64 / reference.len().max(1) as f64
}

fn outcome(timed_s: f64, artifact_fp: u64, faults: u64) -> RepOutcome {
    RepOutcome {
        timed_s,
        attempted: 1,
        faults,
        artifact_fp,
    }
}

// ---------------------------------------------------------------------
// scan_lossless / scan_lossy: plain `Scanner::run`.

/// `scan_lossless` and `scan_lossy`: one `Scanner::run` over a slice of
/// [`SCAN_RANGE`], no sink, no rate limit.
pub struct ScanWorkload {
    range: ScanRange,
    blocklist: Blocklist,
    cfg: ScanConfig,
    world_cfg: WorldConfig,
    seeds: Seeds,
}

impl ScanWorkload {
    /// The scan configuration of `scan_lossless` at `targets` targets
    /// (shared with the ledger, which replays the same slice by stage).
    pub fn lossless_cfg(seeds: Seeds, targets: u64) -> (ScanConfig, WorldConfig) {
        (
            ScanConfig {
                seed: seeds.scan,
                max_targets: Some(targets),
                ..Default::default()
            },
            WorldConfig::lossless(seeds.world, 10),
        )
    }

    /// The scan configuration of `scan_lossy`: 30 % forward loss, up to
    /// three probes per target, short retransmission timeout.
    pub fn lossy_cfg(seeds: Seeds) -> (ScanConfig, WorldConfig) {
        (
            ScanConfig {
                seed: seeds.scan,
                max_targets: Some(LOSSY_TARGETS),
                probes_per_target: 3,
                rto_ticks: 4,
                ..Default::default()
            },
            WorldConfig::lossless(seeds.world, 10).with_fault(
                FaultPlan::none()
                    .seeded(seeds.fault)
                    .with_forward_loss(0.30),
            ),
        )
    }

    /// `scan_lossless` at `targets` targets.
    pub fn lossless(seeds: Seeds, targets: u64) -> Self {
        let (cfg, world_cfg) = Self::lossless_cfg(seeds, targets);
        Self::new(cfg, world_cfg, seeds)
    }

    fn lossy(seeds: Seeds) -> Self {
        let (cfg, world_cfg) = Self::lossy_cfg(seeds);
        Self::new(cfg, world_cfg, seeds)
    }

    fn new(cfg: ScanConfig, world_cfg: WorldConfig, seeds: Seeds) -> Self {
        ScanWorkload {
            range: scan_range(),
            blocklist: Blocklist::with_standard_reserved(),
            cfg,
            world_cfg,
            seeds,
        }
    }
}

impl Workload for ScanWorkload {
    fn oracle(&self) -> Facts {
        // The plain single-probe scan of the same slice over the lossless
        // world. For `scan_lossless` that is the workload itself (the
        // independent check is the ledger's stage replay); for
        // `scan_lossy` it is the recall reference.
        let targets = self
            .cfg
            .max_targets
            .expect("scan workloads cap their slice");
        let (ref_cfg, ref_world) = Self::lossless_cfg(self.seeds, targets);
        let mut reference = scanner_over(ref_world, ref_cfg);
        let ref_results = reference.run(&self.range, &IcmpEchoProbe, &self.blocklist);
        let ref_found = unique_responders(&ref_results.records);

        let mut scanner = scanner_over(self.world_cfg, self.cfg.clone());
        let results = scanner.run(&self.range, &IcmpEchoProbe, &self.blocklist);
        let found = unique_responders(&results.records);
        Facts {
            expect_fp: scan_fp(&scanner, &results.records),
            probes: results.stats.sent,
            found: found.len() as u64,
            recall: recall_of(&found, &ref_found),
            reference_probes: ref_results.stats.sent,
        }
    }

    fn rep(&mut self, tr: &mut Tracer) -> RepOutcome {
        let mut scanner = scanner_over(self.world_cfg, self.cfg.clone());
        let span = tr.begin("core.scanner.run");
        let start = Instant::now();
        let results = scanner.run(&self.range, &IcmpEchoProbe, &self.blocklist);
        let timed_s = start.elapsed().as_secs_f64();
        tr.end(span);
        outcome(timed_s, scan_fp(&scanner, &results.records), 0)
    }
}

// ---------------------------------------------------------------------
// scan_durable: the same scan with a journal and periodic checkpoints.

/// `scan_durable`: the lossless single-probe scan through `ScanSession` +
/// `RunSink`, checkpointing every [`DURABLE_EVERY`] slots.
pub struct DurableWorkload {
    /// The same scan without a sink: configuration, and the oracle.
    scan: ScanWorkload,
    dir: PathBuf,
}

impl DurableWorkload {
    /// The durable scan, keeping its session under `dir`.
    pub fn new(seeds: Seeds, dir: &Path) -> Self {
        DurableWorkload {
            scan: ScanWorkload::lossless(seeds, DURABLE_TARGETS),
            dir: dir.join("session"),
        }
    }

    /// The session manifest of this scan (create and resume must agree).
    fn manifest(&self) -> xmap_state::Manifest {
        build_manifest(
            1,
            &self.scan.cfg,
            &IcmpEchoProbe,
            std::slice::from_ref(&self.scan.range),
            &self.scan.blocklist,
            self.scan.seeds.world,
            DURABLE_EVERY,
        )
    }

    /// A scanner over a fresh world with a fresh session's sink attached
    /// (creating the session clears whatever the directory held).
    pub fn scanner_with_sink(&self) -> Scanner<World> {
        let mut scanner = scanner_over(self.scan.world_cfg, self.scan.cfg.clone());
        let session = ScanSession::create(&self.dir, self.manifest()).expect("create session");
        scanner.set_sink(session.fresh_worker(0, 1).expect("fresh worker").sink);
        scanner
    }

    /// Runs the scan's one range through the attached sink.
    pub fn run(&self, scanner: &mut Scanner<World>) -> ScanResults {
        scanner.run_checkpointed(
            0,
            &self.scan.range,
            &IcmpEchoProbe,
            &self.scan.blocklist,
            RangeMode::Fresh,
        )
    }

    /// Where the one worker's latest checkpoint lives.
    pub fn checkpoint_path(&self) -> PathBuf {
        self.dir.join("worker-0.ckpt")
    }
}

impl Workload for DurableWorkload {
    fn oracle(&self) -> Facts {
        // The same scan without any sink: durability must not change a
        // single record or counter.
        self.scan.oracle()
    }

    fn rep(&mut self, tr: &mut Tracer) -> RepOutcome {
        let start = Instant::now();
        let span = tr.begin("core.checkpoint.session_create");
        let mut scanner = self.scanner_with_sink();
        tr.end(span);
        let span = tr.begin("core.scanner.run_checkpointed");
        let results = self.run(&mut scanner);
        let timed_s = start.elapsed().as_secs_f64();
        tr.end(span);

        let sink_failed = scanner
            .take_sink()
            .is_some_and(|mut sink| sink.take_error().is_some());
        // Second oracle: re-open the directory as a resume would and
        // require the journal to replay to exactly the emitted records.
        let span = tr.begin("core.checkpoint.resume_replay");
        let replayed = ScanSession::resume(&self.dir, self.manifest())
            .and_then(|s| s.load_worker(0, 1))
            .map(|mut w| w.modes.pop());
        tr.end(span);
        let replay_ok = matches!(
            replayed,
            Ok(Some(RangeMode::Skip(ref records))) if *records == results.records
        );
        outcome(
            timed_s,
            scan_fp(&scanner, &results.records),
            u64::from(sink_failed || !replay_ok),
        )
    }
}

// ---------------------------------------------------------------------
// campaign_skewed: the block executor with one 32x straggler.

/// `campaign_skewed`: `ParallelCampaign` over the fifteen sample blocks,
/// block 2 carrying 32× the others' budget, every knob at its default.
pub struct CampaignWorkload {
    executor: ParallelCampaign,
    base: ScanConfig,
    world_cfg: WorldConfig,
}

impl CampaignWorkload {
    /// The skewed campaign (shared with the ledger).
    pub fn campaign() -> Campaign {
        Campaign::new(CAMPAIGN_BLOCK_TARGETS).with_block_targets(vec![CAMPAIGN_GIANT])
    }

    /// Scanner and world configuration (shared with the ledger).
    pub fn cfg(seeds: Seeds) -> (ScanConfig, WorldConfig) {
        (
            ScanConfig {
                seed: seeds.scan,
                ..Default::default()
            },
            WorldConfig::lossless(seeds.world, 50),
        )
    }

    fn new(seeds: Seeds) -> Self {
        let (base, world_cfg) = Self::cfg(seeds);
        CampaignWorkload {
            executor: ParallelCampaign::new(Self::campaign(), pool_workers()),
            base,
            world_cfg,
        }
    }
}

impl Workload for CampaignWorkload {
    fn oracle(&self) -> Facts {
        // The sequential walk: one scanner, blocks in order.
        let mut scanner = scanner_over(self.world_cfg, self.base.clone());
        let result = Self::campaign().run(&mut scanner);
        let snapshot = scanner.telemetry().registry.snapshot();
        Facts {
            expect_fp: artifact_fp(&result.to_csv(), &snapshot),
            probes: snapshot.counter(names::SENT),
            found: campaign_addresses(&result).len() as u64,
            recall: 1.0,
            reference_probes: snapshot.counter(names::SENT),
        }
    }

    fn pool(&self) -> usize {
        self.executor.workers()
    }

    fn rep(&mut self, tr: &mut Tracer) -> RepOutcome {
        let world_cfg = self.world_cfg;
        let span = tr.begin("periphery.parallel.run");
        let start = Instant::now();
        let out = self
            .executor
            .run(&self.base, |_, telemetry| world_with(world_cfg, telemetry));
        let timed_s = start.elapsed().as_secs_f64();
        tr.end(span);
        let fp = artifact_fp(&out.result.to_csv(), &out.snapshot);
        let faults = out.poisoned.len() as u64
            + u64::from(out.interrupted)
            + out.snapshot.counter(names::EXEC_WORKER_PANICS);
        outcome(timed_s, fp, u64::from(faults > 0))
    }
}

// ---------------------------------------------------------------------
// adaptive_clustered: the adaptive round loop over a clustered world.

/// `adaptive_clustered`: `AdaptiveCampaign` with its default knobs over
/// each block's first 2^16 targets of a clustered-sparse world.
pub struct AdaptiveWorkload {
    campaign: AdaptiveCampaign,
    base: ScanConfig,
    world_cfg: WorldConfig,
}

impl AdaptiveWorkload {
    /// Scanner and world configuration (shared with the ledger).
    pub fn cfg(seeds: Seeds) -> (ScanConfig, WorldConfig) {
        (
            ScanConfig {
                seed: seeds.scan,
                ..Default::default()
            },
            // 1-in-256 pods of 256 consecutive assignments are active:
            // responders concentrate, the rest of the space is empty.
            WorldConfig::lossless(seeds.world, 10).with_allocation(Allocation::Clustered {
                pod_bits: 8,
                active_frac: 1.0 / 256.0,
            }),
        )
    }

    /// The adaptive campaign at its default knobs.
    pub fn adaptive() -> AdaptiveCampaign {
        AdaptiveCampaign::new(AdaptiveConfig {
            root_bits: Some(ADAPTIVE_ROOT_BITS),
            ..Default::default()
        })
    }

    /// The equal-coverage reference: adaptation off, root enumerated.
    pub fn exhaustive() -> AdaptiveCampaign {
        AdaptiveCampaign::new(AdaptiveConfig::exhaustive(Some(ADAPTIVE_ROOT_BITS)))
    }

    fn new(seeds: Seeds) -> Self {
        let (base, world_cfg) = Self::cfg(seeds);
        AdaptiveWorkload {
            campaign: Self::adaptive(),
            base,
            world_cfg,
        }
    }
}

impl Workload for AdaptiveWorkload {
    fn oracle(&self) -> Facts {
        let world_cfg = self.world_cfg;
        let make_world = |telemetry: &Telemetry| world_with(world_cfg, telemetry);
        let reference = Self::exhaustive().run(&self.base, make_world);
        let ref_found = campaign_addresses(&reference.result);
        // For the artifacts: the adaptive campaign is deterministic, so a
        // second run must agree byte for byte; recall is judged against
        // the exhaustive reference.
        let out = self.campaign.run(&self.base, make_world);
        let found = campaign_addresses(&out.result);
        Facts {
            expect_fp: artifact_fp(&out.result.to_csv(), &out.snapshot),
            probes: out.result.blocks.iter().map(|b| b.probed).sum(),
            found: found.len() as u64,
            recall: recall_of(&found, &ref_found),
            reference_probes: reference.result.blocks.iter().map(|b| b.probed).sum(),
        }
    }

    fn rep(&mut self, tr: &mut Tracer) -> RepOutcome {
        let world_cfg = self.world_cfg;
        let span = tr.begin("periphery.adaptive.run");
        let start = Instant::now();
        let out = self
            .campaign
            .run(&self.base, |telemetry| world_with(world_cfg, telemetry));
        let timed_s = start.elapsed().as_secs_f64();
        tr.end(span);
        let fp = artifact_fp(&out.result.to_csv(), &out.snapshot);
        outcome(timed_s, fp, u64::from(out.interrupted))
    }
}

// ---------------------------------------------------------------------
// serve_two_tenants: the daemon end to end.

/// `serve_two_tenants`: an in-process `Daemon` with two tenants' jobs —
/// submit, drain, run to completion, read the published artifacts.
pub struct ServeWorkload {
    specs: [(&'static str, JobSpec); 2],
    root: PathBuf,
}

impl ServeWorkload {
    /// The two tenants' jobs (shared with the ledger).
    pub fn specs(seeds: Seeds) -> [(&'static str, JobSpec); 2] {
        [
            (
                "alice",
                JobSpec::PeripheryCampaign {
                    targets_per_block: SERVE_ALICE_TARGETS,
                    seed: seeds.scan,
                    world_seed: seeds.world,
                    mop_up_ticks: None,
                    block_targets: Vec::new(),
                },
            ),
            (
                "bob",
                JobSpec::LoopscanSurvey {
                    probes_per_block: SERVE_BOB_PROBES,
                    seed: derive_seed(seeds.scan, 1),
                    world_seed: derive_seed(seeds.world, 1),
                },
            ),
        ]
    }

    /// The daemon configuration: defaults, pool sized to the host.
    pub fn config() -> ServeConfig {
        ServeConfig {
            workers: pool_workers(),
            ..Default::default()
        }
    }

    fn new(seeds: Seeds, dir: &Path) -> Self {
        ServeWorkload {
            specs: Self::specs(seeds),
            root: dir.join("daemon"),
        }
    }
}

impl Workload for ServeWorkload {
    fn oracle(&self) -> Facts {
        // Every unit run directly, in order, rendered the way the
        // daemon's finalize renders unit checkpoints.
        let mut probes = 0;
        let mut found = 0;
        let mut artifacts: Vec<Vec<u8>> = Vec::with_capacity(4);
        for (_, spec) in &self.specs {
            let (outputs, deltas): (Vec<_>, Vec<_>) =
                (0..spec.units()).map(|u| spec.run_unit(u)).unzip();
            let csv = spec.render_csv(&outputs);
            let metrics = merge_worker_snapshots(deltas);
            probes += metrics.counter(names::SENT);
            found += csv.lines().count() as u64 - 1;
            artifacts.push(csv.into_bytes());
            artifacts.push(metrics.to_json().into_bytes());
        }
        let chunks: Vec<&[u8]> = artifacts.iter().map(Vec::as_slice).collect();
        Facts {
            expect_fp: fnv1a(&chunks),
            probes,
            found,
            recall: 1.0,
            reference_probes: probes,
        }
    }

    fn pool(&self) -> usize {
        Self::config().workers
    }

    fn rep(&mut self, tr: &mut Tracer) -> RepOutcome {
        // A daemon root is a ledger of everything ever submitted: start
        // each rep from an empty one (removal is outside the timing).
        let _ = std::fs::remove_dir_all(&self.root);
        let start = Instant::now();
        let span = tr.begin("serve.daemon.open");
        let daemon = Daemon::open(&self.root, Self::config()).expect("open daemon root");
        tr.end(span);
        let jobs = self.specs.clone().map(|(tenant, spec)| {
            let span = tr.begin("serve.daemon.submit");
            let job = daemon.submit(tenant, spec).expect("submit admitted");
            tr.end(span);
            job
        });
        daemon.drain();
        let span = tr.begin("serve.daemon.run");
        let ran = daemon.run();
        let timed_s = start.elapsed().as_secs_f64();
        tr.end(span);

        let completed = ran.map_or(0, |o| o.completed);
        let panicked = daemon.metrics().counter(metric::WORKER_PANICS).get() > 0;
        let mut artifacts: Vec<Vec<u8>> = Vec::with_capacity(4);
        for job in jobs {
            let dir = job_dir(&self.root, job);
            artifacts.push(std::fs::read(dir.join("result.csv")).unwrap_or_default());
            artifacts.push(std::fs::read(dir.join("metrics.json")).unwrap_or_default());
        }
        let chunks: Vec<&[u8]> = artifacts.iter().map(Vec::as_slice).collect();
        RepOutcome {
            timed_s,
            // The rep, and each tenant's job.
            attempted: 3,
            faults: 2u64.saturating_sub(completed) + u64::from(panicked),
            artifact_fp: fnv1a(&chunks),
        }
    }
}

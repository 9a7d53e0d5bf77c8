//! The scan loop's byte-identity contract: for a seed and configuration,
//! [`Scanner::run`] emits exactly the artifacts pinned below — CSV
//! records, metrics snapshots, trace events, checkpoint files — and the
//! same ones across worker counts, kill/resume cycles and recorded-trace
//! replays.
//!
//! The `GOLDEN_*` constants are FNV-1a-64 fingerprints captured from the
//! two loops the scanner used to carry (which agreed on every one of
//! them) just before they were collapsed into one. A change that moves a
//! fingerprint has changed what a seeded scan emits, or — for the
//! checkpoint files — what an older build's session directory must look
//! like to be resumed.

use std::fs;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

use xmap::output::to_csv;
use xmap::{
    build_manifest, run_session, Blocklist, IcmpEchoProbe, ParallelScanner, ScanConfig,
    ScanResults, ScanSession, Scanner, SessionSpec,
};
use xmap_addr::ScanRange;
use xmap_netsim::world::{World, WorldConfig};
use xmap_netsim::{FaultPlan, KillPoint};
use xmap_reactor::{ReplayNet, WireRecorder};
use xmap_state::{AbortSignal, Fingerprint, WorkerCheckpoint};
use xmap_telemetry::{Snapshot, Telemetry};

const GOLDEN_LOSSY_CSV: u64 = 0x69cf_e933_187e_7c3e;
const GOLDEN_LOSSY_SNAPSHOT: u64 = 0x26f3_7d6b_52ab_d595;
const GOLDEN_LOSSY_TRACE: u64 = 0x6644_0a66_5dd3_7db2;
const GOLDEN_DENSE_CSV: u64 = 0x3236_5ab0_65e8_6135;
const GOLDEN_DENSE_SNAPSHOT: u64 = 0xc1aa_ef9d_5d7f_a8e0;
/// `worker-0.ckpt` / `worker-1.ckpt` of [`killed_session`] at 233 probes.
const GOLDEN_CHECKPOINTS: [u64; 2] = [0xd1ef_1c93_c888_961e, 0x3e12_dbf8_3079_d373];
/// The lossy scan's CSV merged across workers (sorted by target, so the
/// same at every worker count) and its merged snapshot at 1, 2 and 4
/// workers. The snapshots differ because the lossy world drops by tick:
/// each worker count walks its shards on a different tick schedule.
const GOLDEN_MERGED_CSV: u64 = 0x3a3f_cfb1_a5d6_0068;
const GOLDEN_MERGED_SNAPSHOTS: [(usize, u64); 3] = [
    (1, GOLDEN_LOSSY_SNAPSHOT),
    (2, 0x4765_617c_7890_17b9),
    (4, 0xf1e3_e202_864d_6f39),
];
/// The checkpointed session below runs two workers.
const GOLDEN_SESSION_SNAPSHOT: u64 = GOLDEN_MERGED_SNAPSHOTS[1].1;

fn fnv(bytes: impl AsRef<[u8]>) -> u64 {
    Fingerprint::new().push_bytes(bytes.as_ref()).finish()
}

fn session_dir(tag: &str) -> PathBuf {
    static COUNTER: AtomicU64 = AtomicU64::new(0);
    let n = COUNTER.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!("xmap-loop-{tag}-{}-{n}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    dir
}

fn range() -> ScanRange {
    "2405:200::/32-64".parse().unwrap()
}

/// Retransmission-heavy configuration: 30% forward loss forces the
/// retry pipeline (timer heap, backoff, suppression) to carry real
/// load, so identity cannot hold by the retry path being idle.
fn lossy_config() -> ScanConfig {
    ScanConfig {
        seed: 17,
        max_targets: Some(1500),
        probes_per_target: 3,
        rto_ticks: 4,
        record_silent: true,
        ..Default::default()
    }
}

fn lossy_world() -> World {
    World::with_config(
        WorldConfig::lossless(4242, 3000)
            .with_fault(FaultPlan::none().seeded(0xF00D).with_forward_loss(0.3)),
    )
}

#[test]
fn lossy_traced_run_matches_golden_fingerprints() {
    let telemetry = Telemetry::with_tracing();
    let mut world = lossy_world();
    world.set_telemetry(&telemetry);
    let mut scanner = Scanner::with_telemetry(world, lossy_config(), telemetry);
    let results = scanner.run(&range(), &IcmpEchoProbe, &Blocklist::allow_all());
    assert!(
        results.stats.retransmits > 0,
        "loss must force retransmissions for this test to bite"
    );
    assert_eq!(fnv(to_csv(&results.records)), GOLDEN_LOSSY_CSV);
    let snapshot = scanner.telemetry().registry.snapshot().to_json();
    assert_eq!(fnv(snapshot), GOLDEN_LOSSY_SNAPSHOT);
    let trace = scanner.telemetry().tracer.to_ndjson();
    assert_eq!(fnv(trace), GOLDEN_LOSSY_TRACE);
}

/// Dense lossless world, single probe per target: high record volume
/// (the lossy case above stresses retries, this one stresses absorb).
#[test]
fn dense_lossless_run_matches_golden_fingerprints() {
    let telemetry = Telemetry::new();
    let mut world = World::new(11);
    world.set_telemetry(&telemetry);
    let config = ScanConfig {
        seed: 11,
        max_targets: Some(16_384),
        ..Default::default()
    };
    let mut scanner = Scanner::with_telemetry(world, config, telemetry);
    let dense: ScanRange = "2402:3a80::/32-64".parse().unwrap();
    let results = scanner.run(&dense, &IcmpEchoProbe, &Blocklist::allow_all());
    let csv = to_csv(&results.records);
    assert!(csv.lines().count() > 50, "expected a lively scan");
    assert_eq!(fnv(csv), GOLDEN_DENSE_CSV);
    let snapshot = scanner.telemetry().registry.snapshot().to_json();
    assert_eq!(fnv(snapshot), GOLDEN_DENSE_SNAPSHOT);
}

/// 1-, 2- and 4-worker runs must merge to the pinned artifacts.
#[test]
fn worker_counts_match_golden_fingerprints() {
    for (workers, golden_snapshot) in GOLDEN_MERGED_SNAPSHOTS {
        let mut ps = ParallelScanner::new(workers, lossy_config(), |_, telemetry| {
            let mut world = lossy_world();
            world.set_telemetry(telemetry);
            world
        });
        let results = ps.run(&range(), &IcmpEchoProbe, &Blocklist::allow_all());
        assert_eq!(
            fnv(to_csv(&results.records)),
            GOLDEN_MERGED_CSV,
            "CSV diverges at {workers} workers"
        );
        assert_eq!(
            fnv(ps.snapshot().to_json()),
            golden_snapshot,
            "snapshot diverges at {workers} workers"
        );
    }
}

fn session_spec<'a>(ranges: &'a [ScanRange], dir: &'a Path, resume: bool) -> SessionSpec<'a> {
    SessionSpec {
        workers: 2,
        config: lossy_config(),
        ranges,
        dir,
        every: 16,
        resume,
        world_seed: 5,
    }
}

fn run_one_session(dir: &Path, resume: bool, kill_after: Option<u64>) -> (ScanResults, Snapshot) {
    let ranges = [range()];
    let signal = AbortSignal::new();
    let kill_signal = signal.clone();
    let outcome = run_session(
        &session_spec(&ranges, dir, resume),
        &IcmpEchoProbe,
        &Blocklist::allow_all(),
        Some(&signal),
        move |_, telemetry| {
            let mut w = lossy_world();
            w.set_telemetry(telemetry);
            if let Some(n) = kill_after {
                w.arm_kill(
                    KillPoint {
                        after_probes: Some(n),
                        ..Default::default()
                    },
                    kill_signal.clone(),
                );
            }
            w
        },
    )
    .expect("checkpointed session");
    assert!(outcome.sink_error.is_none(), "{:?}", outcome.sink_error);
    (outcome.results, outcome.snapshot)
}

/// The same 2-worker session [`run_one_session`] starts, except that
/// each worker is stopped by its *own* world after `kill` probes. (Under
/// `run_session`'s one shared signal the worker that did not trip the
/// kill stops at whatever slot it happens to be in, so the files it
/// leaves differ from run to run.) Returns the bytes of every worker
/// checkpoint left in `dir`.
fn killed_session(dir: &Path, kill: u64) -> Vec<Vec<u8>> {
    let ranges = [range()];
    let spec = session_spec(&ranges, dir, false);
    let blocklist = Blocklist::allow_all();
    let manifest = build_manifest(
        spec.workers,
        &spec.config,
        &IcmpEchoProbe,
        &ranges,
        &blocklist,
        spec.world_seed,
        spec.every,
    );
    let session = ScanSession::create(dir, manifest).expect("fresh session");
    let signals = [AbortSignal::new(), AbortSignal::new()];
    let world_signals = signals.clone();
    let mut ps = ParallelScanner::new(spec.workers, spec.config, move |w, telemetry| {
        let mut world = lossy_world();
        world.set_telemetry(telemetry);
        world.arm_kill(
            KillPoint {
                after_probes: Some(kill),
                ..Default::default()
            },
            world_signals[w].clone(),
        );
        world
    });
    let mut modes = Vec::new();
    for (w, signal) in signals.iter().enumerate() {
        let wr = session
            .fresh_worker(w as u32, ranges.len())
            .expect("fresh worker");
        ps.worker_mut(w).set_abort(signal.clone());
        ps.worker_mut(w).set_sink(wr.sink);
        modes.push(wr.modes);
    }
    let partial = ps.run_with_modes(&ranges, &IcmpEchoProbe, &blocklist, modes);
    assert!(
        partial.interrupted,
        "kill after {kill} probes must interrupt"
    );
    (0..signals.len())
        .map(|w| fs::read(dir.join(format!("worker-{w}.ckpt"))).expect("worker checkpoint"))
        .collect()
}

/// Kill-and-resume parity: a session killed after 40 or 233 probes and
/// resumed must equal the uninterrupted session byte for byte.
#[test]
fn kill_and_resume_equals_uninterrupted() {
    let base_dir = session_dir("base");
    let (base, base_snap) = run_one_session(&base_dir, false, None);
    assert!(!base.interrupted);
    assert!(base.stats.retransmits > 0);
    assert_eq!(fnv(to_csv(&base.records)), GOLDEN_MERGED_CSV);
    assert_eq!(fnv(base_snap.to_json()), GOLDEN_SESSION_SNAPSHOT);
    fs::remove_dir_all(&base_dir).unwrap();

    for kill in [40u64, 233] {
        let dir = session_dir("kill");
        let (partial, _) = run_one_session(&dir, false, Some(kill));
        assert!(
            partial.interrupted,
            "kill after {kill} probes must interrupt"
        );
        let (resumed, snap) = run_one_session(&dir, true, None);
        assert!(!resumed.interrupted);
        assert_eq!(
            to_csv(&resumed.records),
            to_csv(&base.records),
            "records diverged, kill {kill}"
        );
        assert_eq!(snap, base_snap, "snapshot diverged, kill {kill}");
        fs::remove_dir_all(&dir).unwrap();
    }
}

/// The checkpoint files a killed session leaves are pinned byte for
/// byte, mid-range with retransmissions pending — so a session directory
/// written by the build the fingerprints were captured from is exactly
/// what this build writes, and (second half) what it resumes from.
#[test]
fn killed_session_checkpoints_match_golden_and_resume() {
    let dir = session_dir("ckpt");
    let files = killed_session(&dir, 233);
    for (w, bytes) in files.iter().enumerate() {
        let path = dir.join(format!("worker-{w}.ckpt"));
        let run = WorkerCheckpoint::read_from(&path)
            .expect("checkpoint parses")
            .run
            .expect("killed mid-range");
        assert!(!run.retries.is_empty(), "worker {w}: retry queue is empty");
        assert_eq!(fnv(bytes), GOLDEN_CHECKPOINTS[w], "worker-{w}.ckpt");
    }
    let (resumed, snap) = run_one_session(&dir, true, None);
    assert!(!resumed.interrupted);
    assert_eq!(fnv(to_csv(&resumed.records)), GOLDEN_MERGED_CSV);
    assert_eq!(fnv(snap.to_json()), GOLDEN_SESSION_SNAPSHOT);
    fs::remove_dir_all(&dir).unwrap();
}

/// Record a run's wire traffic through [`WireRecorder`], then replay the
/// trace with no simulator at all: the scan over a [`ReplayNet`] must
/// reproduce the original records and stats, consume the whole trace,
/// and observe zero desyncs.
#[test]
fn recorded_trace_replays_byte_identically() {
    let mut recording = Scanner::new(WireRecorder::new(lossy_world()), lossy_config());
    let original = recording.run(&range(), &IcmpEchoProbe, &Blocklist::allow_all());
    let trace = recording.into_network().finish();
    assert!(trace.lines().count() > 100, "trace should carry the run");

    let replay = ReplayNet::from_trace(&trace).expect("recorded trace parses");
    let mut replayer = Scanner::new(replay, lossy_config());
    let replayed = replayer.run(&range(), &IcmpEchoProbe, &Blocklist::allow_all());

    assert_eq!(
        to_csv(&replayed.records),
        to_csv(&original.records),
        "replay diverged from the recorded run"
    );
    assert_eq!(replayed.stats, original.stats);
    let net = replayer.into_network();
    assert_eq!(net.desyncs(), 0, "replay fell out of sync with the trace");
    assert_eq!(net.mismatched_sends(), 0, "replayed probes diverged");
    assert!(net.fully_consumed(), "replay left recorded events unused");
}

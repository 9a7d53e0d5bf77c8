//! The scan loop's byte-identity contract: for a seed and configuration,
//! [`Scanner::run`] emits exactly the artifacts pinned below — CSV
//! records, metrics snapshots, trace events, checkpoint files — and the
//! same ones across worker counts, kill/resume cycles and recorded-trace
//! replays.
//!
//! The `GOLDEN_*` constants are FNV-1a-64 fingerprints captured from the
//! two loops the scanner used to carry (which agreed on every one of
//! them) just before they were collapsed into one; the checkpoint pair
//! was re-captured when the mid-range state moved to the `live` section
//! (the fields both layouts carry decoded equal). A change that moves a
//! fingerprint has changed what a seeded scan emits, or — for the
//! checkpoint files — what an older build's session directory must look
//! like to be resumed.

use std::fs;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

use xmap::output::to_csv;
use xmap::{
    build_manifest, run_session, Blocklist, IcmpEchoProbe, ParallelScanner, Permutation, RangeMode,
    ScanConfig, ScanResults, ScanSession, Scanner, SessionSpec, Verdict,
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
const GOLDEN_CHECKPOINTS: [u64; 2] = [0x328b_63ba_a621_4f1d, 0xfe0c_e938_4f26_8dc0];
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

/// One worker's session driven by hand — the pool's merge sorts silent
/// targets, and their probe order is part of what the tests below pin.
/// Returns the run's results and whether it continued a mid-range cut.
fn single_worker_session(
    dir: &Path,
    world: World,
    config: &ScanConfig,
    blocklist: &Blocklist,
    resume: bool,
    kill_after: Option<u64>,
) -> (ScanResults, bool) {
    let ranges = [range()];
    let manifest = build_manifest(1, config, &IcmpEchoProbe, &ranges, blocklist, 5, 16);
    let mut wr = if resume {
        ScanSession::resume(dir, manifest).and_then(|s| s.load_worker(0, 1))
    } else {
        ScanSession::create(dir, manifest).and_then(|s| s.fresh_worker(0, 1))
    }
    .expect("session worker");
    let signal = AbortSignal::new();
    let mut world = world;
    if let Some(n) = kill_after {
        world.arm_kill(
            KillPoint {
                after_probes: Some(n),
                ..Default::default()
            },
            signal.clone(),
        );
    }
    let mut scanner = Scanner::new(world, config.clone());
    if let Some(snap) = wr.metrics.take() {
        scanner.restore_metrics(&snap);
        scanner.restore_clock(wr.tick);
    }
    scanner.set_abort(signal);
    scanner.set_sink(wr.sink);
    let mode = wr.modes.pop().expect("one range");
    let mid_range = matches!(mode, RangeMode::Resume(_));
    let results = scanner.run_checkpointed(0, &ranges[0], &IcmpEchoProbe, blocklist, mode);
    let sink_error = scanner.take_sink().and_then(|mut sink| sink.take_error());
    assert!(sink_error.is_none(), "{sink_error:?}");
    (results, mid_range)
}

/// A mid-range cut carries neither the probed nor the answered targets:
/// a resume re-walks the permutation for the first and reads the journal
/// for the second. Under `record_silent`, with a blocklist that blocks
/// walked targets, the silent list (in probe order) and `gave_up` of a
/// killed-and-resumed range equal the uninterrupted run's, whichever
/// permutation has to be re-walked.
#[test]
fn resumed_silent_targets_and_gave_up_equal_uninterrupted() {
    let mut blocklist = Blocklist::allow_all();
    // Half the block (the permuted walks land there) and a /56 inside
    // the first 1500 /64s (the sequential walk crosses it).
    for denied in ["2405:200:8000::/33", "2405:200:0:100::/56"] {
        blocklist.insert(denied.parse().unwrap(), Verdict::Deny);
    }
    for permutation in [
        Permutation::Cyclic,
        Permutation::Feistel,
        Permutation::Sequential,
    ] {
        let config = ScanConfig {
            permutation,
            ..lossy_config()
        };
        let mut scanner = Scanner::new(lossy_world(), config.clone());
        let base = scanner.run(&range(), &IcmpEchoProbe, &blocklist);
        assert!(base.stats.blocked > 0, "{permutation:?}: nothing blocked");
        // Blocked targets were probed and never answered: they are
        // silent, and given up on, like any other.
        assert!(
            base.silent_targets.len() as u64 >= base.stats.blocked,
            "{permutation:?}"
        );
        assert_eq!(
            base.stats.gave_up,
            base.silent_targets.len() as u64,
            "{permutation:?}"
        );

        let dir = session_dir("silent");
        let (killed, _) =
            single_worker_session(&dir, lossy_world(), &config, &blocklist, false, Some(233));
        assert!(killed.interrupted, "{permutation:?}: kill must interrupt");
        let (resumed, mid_range) =
            single_worker_session(&dir, lossy_world(), &config, &blocklist, true, None);
        assert!(mid_range, "{permutation:?}: resume must continue a cut");
        assert!(!resumed.interrupted);
        assert_eq!(resumed.records, base.records, "{permutation:?}");
        assert_eq!(
            resumed.silent_targets, base.silent_targets,
            "{permutation:?}"
        );
        assert_eq!(resumed.stats.gave_up, base.stats.gave_up, "{permutation:?}");
        fs::remove_dir_all(&dir).unwrap();
    }
}

/// A cut's size follows what is still live, not what was probed: a
/// lossless single-probe session has no retry armed at any boundary, so
/// its checkpoint is as long after 12 Ki probes as after 2 Ki — apart
/// from the JSON header, which prints `tick` and `wal_seq` in decimal
/// and so grows by a digit each.
#[test]
fn mid_range_checkpoint_size_is_flat() {
    let config = ScanConfig {
        seed: 11,
        max_targets: Some(16_384),
        ..Default::default()
    };
    let blocklist = Blocklist::allow_all();
    let sizes = [2u64, 12].map(|kib| {
        let dir = session_dir("flat");
        let (killed, _) = single_worker_session(
            &dir,
            World::new(11),
            &config,
            &blocklist,
            false,
            Some(kib * 1024),
        );
        assert!(killed.interrupted, "kill after {kib} Ki probes");
        let path = dir.join("worker-0.ckpt");
        let ckpt = WorkerCheckpoint::read_from(&path).expect("checkpoint parses");
        assert!(ckpt.run.is_some(), "killed mid-range");
        let bytes = fs::read(&path).unwrap();
        fs::remove_dir_all(&dir).unwrap();
        // b"XMCKPT1\n", then the header's length as a little-endian u32.
        let header_len = u32::from_le_bytes(bytes[8..12].try_into().unwrap()) as usize;
        (bytes.len(), bytes.len() - header_len)
    });
    assert_eq!(sizes[0].1, sizes[1].1, "sections grew with the probes sent");
    assert!(sizes[1].0 <= sizes[0].0 + 2, "{sizes:?}");
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

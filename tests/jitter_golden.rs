//! Jittered scans pinned across versions: replies held back past the
//! retransmission timeout are the one path where a probe's
//! `outstanding` entry must outlive its send slot for a reply, not a
//! timer. No benchmark workload has jitter, and the fault tests compare
//! two runs of one build, so the artifacts of `fault_recovery`'s stress
//! plan at jitter 12 (above the default `rto_ticks` of 8) are pinned
//! here as FNV-1a-64 fingerprints: CSV, metrics snapshot and silent list
//! at 1 and 3 probes per target, and the 3-probe run's trace. A killed
//! and resumed session and a recorded-trace replay of the 3-probe run
//! must reproduce the same constants.

use std::fs;
use std::path::{Path, PathBuf};

use xmap::output::to_csv;
use xmap::{
    build_manifest, Blocklist, IcmpEchoProbe, RangeMode, ScanConfig, ScanResults, ScanSession,
    Scanner,
};
use xmap_addr::ScanRange;
use xmap_netsim::fault::IcmpRateLimit;
use xmap_netsim::isp::SAMPLE_BLOCKS;
use xmap_netsim::world::{World, WorldConfig};
use xmap_netsim::{FaultPlan, KillPoint, Network};
use xmap_reactor::{ReplayNet, WireRecorder};
use xmap_state::{AbortSignal, Fingerprint};
use xmap_telemetry::Telemetry;

/// `[csv, snapshot, silent]` fingerprints at 1 and 3 probes per target.
const GOLDEN_1: [u64; 3] = [
    0xfac2_8307_b093_669b,
    0x467e_4eb0_d456_fd07,
    0xeebf_978c_6ffd_2242,
];
const GOLDEN_3: [u64; 3] = [
    0x3656_5364_6f2f_a5d8,
    0x9b11_1a78_2223_12af,
    0x2e72_48df_b187_5995,
];
/// The 3-probe run's trace NDJSON.
const GOLDEN_TRACE: u64 = 0xdebd_ec16_a4bd_7530;

fn fnv(bytes: impl AsRef<[u8]>) -> u64 {
    Fingerprint::new().push_bytes(bytes.as_ref()).finish()
}

/// `fault_recovery`'s stress plan with its jitter raised from 5 to 12.
fn jitter_plan() -> FaultPlan {
    FaultPlan::none()
        .seeded(0xBAD_CAFE)
        .with_forward_loss(0.05)
        .with_reverse_loss(0.02)
        .with_duplication(0.02)
        .with_jitter(12)
        .with_flaky(0.05, 256, 32)
        .with_icmp_limit(IcmpRateLimit::TokenBucket {
            capacity: 8,
            refill_interval: 512,
            start_depleted_frac: 0.2,
        })
}

fn world() -> World {
    World::with_config(WorldConfig::lossless(4242, 30).with_fault(jitter_plan()))
}

fn config(probes_per_target: u32) -> ScanConfig {
    ScanConfig {
        seed: 17,
        max_targets: Some(4096),
        probes_per_target,
        record_silent: true,
        ..Default::default()
    }
}

fn range() -> ScanRange {
    SAMPLE_BLOCKS[2].scan_range()
}

/// The fingerprints of one run: CSV, metrics snapshot and silent list.
fn fingerprints<N: Network>(scanner: &Scanner<N>, results: &ScanResults) -> [u64; 3] {
    let silent: String = results
        .silent_targets
        .iter()
        .map(|t| format!("{t}\n"))
        .collect();
    [
        fnv(to_csv(&results.records)),
        fnv(scanner.telemetry().registry.snapshot().to_json()),
        fnv(silent),
    ]
}

#[test]
fn jittered_scans_match_golden_fingerprints() {
    for (probes_per_target, golden) in [(1, GOLDEN_1), (3, GOLDEN_3)] {
        let mut scanner = Scanner::with_telemetry(
            world(),
            config(probes_per_target),
            Telemetry::with_tracing(),
        );
        let results = scanner.run(&range(), &IcmpEchoProbe, &Blocklist::allow_all());
        assert!(!results.records.is_empty(), "expected responders");
        assert_eq!(
            fingerprints(&scanner, &results),
            golden,
            "{probes_per_target} probes per target"
        );
        if probes_per_target == 3 {
            assert!(results.stats.retransmits > 0, "{:?}", results.stats);
            assert_eq!(fnv(scanner.telemetry().tracer.to_ndjson()), GOLDEN_TRACE);
        }
    }
}

fn session_dir() -> PathBuf {
    let dir = std::env::temp_dir().join(format!("xmap-jitter-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    dir
}

/// One single-worker session over the 3-probe configuration, killed
/// after `kill_after` probes if given. Returns the scanner, its results
/// and whether the run continued a mid-range cut.
fn session_run(
    dir: &Path,
    resume: bool,
    kill_after: Option<u64>,
) -> (Scanner<World>, ScanResults, bool) {
    let config = config(3);
    let ranges = [range()];
    let blocklist = Blocklist::allow_all();
    let manifest = build_manifest(1, &config, &IcmpEchoProbe, &ranges, &blocklist, 4242, 16);
    let mut wr = if resume {
        ScanSession::resume(dir, manifest).and_then(|s| s.load_worker(0, 1))
    } else {
        ScanSession::create(dir, manifest).and_then(|s| s.fresh_worker(0, 1))
    }
    .expect("session worker");
    let signal = AbortSignal::new();
    let mut world = world();
    if let Some(n) = kill_after {
        world.arm_kill(
            KillPoint {
                after_probes: Some(n),
                ..Default::default()
            },
            signal.clone(),
        );
    }
    let mut scanner = Scanner::new(world, config);
    if let Some(snap) = wr.metrics.take() {
        scanner.restore_metrics(&snap);
        scanner.restore_clock(wr.tick);
    }
    scanner.set_abort(signal);
    scanner.set_sink(wr.sink);
    let mode = wr.modes.pop().expect("one range");
    let mid_range = matches!(mode, RangeMode::Resume(_));
    let results = scanner.run_checkpointed(0, &ranges[0], &IcmpEchoProbe, &blocklist, mode);
    let sink_error = scanner.take_sink().and_then(|mut sink| sink.take_error());
    assert!(sink_error.is_none(), "{sink_error:?}");
    (scanner, results, mid_range)
}

#[test]
fn killed_and_resumed_jittered_scan_matches_golden() {
    let dir = session_dir();
    let (_, killed, _) = session_run(&dir, false, Some(2000));
    assert!(killed.interrupted, "the kill must interrupt the range");
    let (scanner, resumed, mid_range) = session_run(&dir, true, None);
    assert!(mid_range, "the resume must continue a mid-range cut");
    assert!(!resumed.interrupted);
    assert_eq!(fingerprints(&scanner, &resumed), GOLDEN_3);
    fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn replayed_jittered_scan_matches_golden() {
    let mut recording = Scanner::new(WireRecorder::new(world()), config(3));
    let original = recording.run(&range(), &IcmpEchoProbe, &Blocklist::allow_all());
    assert_eq!(fingerprints(&recording, &original), GOLDEN_3);
    let trace = recording.into_network().finish();

    let replay = ReplayNet::from_trace(&trace).expect("recorded trace parses");
    let mut replayer = Scanner::new(replay, config(3));
    let replayed = replayer.run(&range(), &IcmpEchoProbe, &Blocklist::allow_all());
    assert_eq!(fingerprints(&replayer, &replayed), GOLDEN_3);
    let net = replayer.into_network();
    assert_eq!(net.desyncs(), 0, "replay fell out of sync with the trace");
    assert!(net.fully_consumed(), "replay left recorded events unused");
}

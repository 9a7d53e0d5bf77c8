//! A committed wire trace replayed through the scan loop.
//!
//! `tests/fixtures/wire/scan.ndjson` is a [`WireRecorder`] trace of a
//! small retrying scan (3 probes per target, `rto_ticks` 4) under
//! forward loss, duplication and jitter, and `scan.csv` is the CSV that
//! run wrote. Both were recorded by an earlier build of the loop and
//! are never rewritten by a passing test. Replaying the trace through
//! [`ReplayNet`] checks each call the loop makes against the recorded
//! one, in order: a probe that differs, a send where the recording has
//! an advance (or the reverse), or a call left over at either end
//! fails the test. So the loop must keep making the same network calls
//! in the same order — immediate replies, replies delivered by an
//! advance while earlier probes are still in flight, retransmissions —
//! and must still write the same CSV from them.
//!
//! `cargo test --test wire_fixture -- --ignored regen_wire_fixture`
//! rewrites both files from the build under test.

use std::path::PathBuf;

use xmap::output::to_csv;
use xmap::{Blocklist, IcmpEchoProbe, ScanConfig, ScanResults, Scanner};
use xmap_addr::ScanRange;
use xmap_netsim::world::{Allocation, World, WorldConfig};
use xmap_netsim::{FaultPlan, Network};
use xmap_reactor::{ReplayNet, WireRecorder};

/// World seed of the recorded run.
const WORLD_SEED: u64 = 4242;
/// Seed of the fault plan's draws.
const FAULT_SEED: u64 = 0x5EED_0050;
/// Scan seed (permutation, cookies, host bits).
const SCAN_SEED: u64 = 23;

fn fixture_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/wire")
}

/// Devices packed into pods of 256 /64s, about half of each active pod
/// allocated, so a few dozen probes draw a few dozen replies. Jitter
/// past `rto_ticks` makes some replies land after their retry timer is
/// armed, while the probe waits in the in-flight index.
fn world() -> World {
    let plan = FaultPlan::none()
        .seeded(FAULT_SEED)
        .with_forward_loss(0.3)
        .with_duplication(0.2)
        .with_jitter(6);
    let allocation = Allocation::Clustered {
        pod_bits: 8,
        active_frac: 0.01,
    };
    World::with_config(
        WorldConfig::lossless(WORLD_SEED, 30)
            .with_allocation(allocation)
            .with_fault(plan),
    )
}

fn config() -> ScanConfig {
    ScanConfig {
        seed: SCAN_SEED,
        max_targets: Some(48),
        probes_per_target: 3,
        rto_ticks: 4,
        ..Default::default()
    }
}

/// Active pod 0x13 of `2402:3a80::/32` (137 of its 256 /64s allocated
/// under [`WORLD_SEED`]).
fn range() -> ScanRange {
    "2402:3a80:0:1300::/56-64".parse().unwrap()
}

fn scan<N: Network>(network: N) -> (ScanResults, N) {
    let mut scanner = Scanner::new(network, config());
    let results = scanner.run(&range(), &IcmpEchoProbe, &Blocklist::allow_all());
    (results, scanner.into_network())
}

#[test]
#[ignore = "rewrites the committed fixture"]
fn regen_wire_fixture() {
    let (results, recorder) = scan(WireRecorder::new(world()));
    let dir = fixture_dir();
    std::fs::create_dir_all(&dir).unwrap();
    let trace = recorder.finish();
    assert!(trace.len() <= 64 * 1024, "trace is {} bytes", trace.len());
    std::fs::write(dir.join("scan.ndjson"), trace).unwrap();
    std::fs::write(dir.join("scan.csv"), to_csv(&results.records)).unwrap();
}

#[test]
fn committed_wire_trace_replays_call_for_call() {
    let dir = fixture_dir();
    let trace = std::fs::read_to_string(dir.join("scan.ndjson")).unwrap();
    // The recording exercises what the fixture is for: a reply served
    // by an advance, not a send, and a retransmission.
    let lines: Vec<&str> = trace.lines().collect();
    assert!(
        lines
            .windows(2)
            .any(|w| w[0].starts_with(r#"{"ev":"tick""#) && w[1].starts_with(r#"{"ev":"recv""#)),
        "no delayed reply in the fixture"
    );
    let replay = ReplayNet::from_trace(&trace).expect("fixture parses");
    let (results, net) = scan(replay);
    assert!(results.stats.retransmits > 0, "{:?}", results.stats);
    assert_eq!(
        net.mismatched_sends(),
        0,
        "a probe differs from the recording"
    );
    assert_eq!(net.desyncs(), 0, "a call out of the recorded order");
    assert!(net.fully_consumed(), "recorded calls left unmade");
    let csv = std::fs::read_to_string(dir.join("scan.csv")).unwrap();
    assert_eq!(to_csv(&results.records), csv);
}

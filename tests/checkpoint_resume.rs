//! End-to-end checkpoint/resume tests: a scan killed at an arbitrary
//! point and resumed from its checkpoint directory must produce output
//! byte-identical to the same scan run uninterrupted — records, stats,
//! and the full telemetry snapshot — across worker counts, kill points
//! (including mid-retry-backoff and mid-mop-up), and repeated resumes.

use std::fs;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

use xmap::output::to_csv;
use xmap::{run_session, Blocklist, IcmpEchoProbe, ScanConfig, ScanResults, Scanner, SessionSpec};
use xmap_addr::ScanRange;
use xmap_netsim::fault::IcmpRateLimit;
use xmap_netsim::world::{World, WorldConfig};
use xmap_netsim::{FaultPlan, KillPoint};
use xmap_periphery::{Campaign, ParallelCampaign};
use xmap_state::AbortSignal;
use xmap_telemetry::Snapshot;

/// Fresh per-test checkpoint directory (removed by the tests that pass).
fn session_dir(tag: &str) -> PathBuf {
    static COUNTER: AtomicU64 = AtomicU64::new(0);
    let n = COUNTER.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!("xmap-ckpt-{tag}-{}-{n}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    dir
}

/// Runs one checkpointed session; `kill_after` arms a per-worker-world
/// kill point that fires after that many handled probes.
#[allow(clippy::too_many_arguments)]
fn run_one(
    workers: usize,
    dir: &Path,
    resume: bool,
    kill_after: Option<u64>,
    config: &ScanConfig,
    ranges: &[ScanRange],
    every: u64,
    world: impl Fn() -> World + 'static,
) -> (ScanResults, Snapshot) {
    let signal = AbortSignal::new();
    let kill_signal = signal.clone();
    let spec = SessionSpec {
        workers,
        config: config.clone(),
        ranges,
        dir,
        every,
        resume,
        world_seed: 5,
    };
    let outcome = run_session(
        &spec,
        &IcmpEchoProbe,
        &Blocklist::allow_all(),
        Some(&signal),
        move |_, telemetry| {
            let mut w = world();
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
    assert!(
        outcome.sink_error.is_none(),
        "checkpoint I/O failed: {:?}",
        outcome.sink_error
    );
    (outcome.results, outcome.snapshot)
}

fn copy_dir(src: &Path, dst: &Path) {
    fs::create_dir_all(dst).unwrap();
    for entry in fs::read_dir(src).unwrap() {
        let entry = entry.unwrap();
        fs::copy(entry.path(), dst.join(entry.file_name())).unwrap();
    }
}

fn two_ranges() -> Vec<ScanRange> {
    vec![
        "2405:200::/32-64".parse().unwrap(),
        "2402:3a80::/36-64".parse().unwrap(),
    ]
}

/// Kill at several probe indices for 1, 2 and 4 workers; the resumed
/// session must reproduce the uninterrupted run byte-for-byte (CSV and
/// telemetry snapshot), exercising fresh, mid-range and skip-range
/// resume paths across two ranges.
#[test]
fn kill_and_resume_byte_identical_across_worker_counts() {
    let ranges = two_ranges();
    let config = ScanConfig {
        seed: 21,
        max_targets: Some(600),
        ..Default::default()
    };
    for workers in [1usize, 2, 4] {
        let base_dir = session_dir("base");
        let (base, base_snap) = run_one(
            workers,
            &base_dir,
            false,
            None,
            &config,
            &ranges,
            64,
            || World::new(5),
        );
        assert!(!base.interrupted);
        assert!(base.stats.sent >= 1200, "sent {}", base.stats.sent);
        fs::remove_dir_all(&base_dir).unwrap();

        // Kill points are per-worker world probe counts; with 4 workers
        // each worker sends ~300 probes, so all of these fire.
        for kill in [1u64, 37, 113, 251] {
            let dir = session_dir("kill");
            let (partial, _) = run_one(
                workers,
                &dir,
                false,
                Some(kill),
                &config,
                &ranges,
                64,
                || World::new(5),
            );
            assert!(
                partial.interrupted,
                "kill after {kill} probes ({workers} workers) must interrupt"
            );
            let (resumed, snap) = run_one(workers, &dir, true, None, &config, &ranges, 64, || {
                World::new(5)
            });
            assert!(!resumed.interrupted);
            assert_eq!(
                to_csv(&resumed.records),
                to_csv(&base.records),
                "records diverged: workers {workers} kill {kill}"
            );
            assert_eq!(
                resumed.stats, base.stats,
                "stats diverged: workers {workers} kill {kill}"
            );
            assert_eq!(
                snap, base_snap,
                "snapshot diverged: workers {workers} kill {kill}"
            );
            fs::remove_dir_all(&dir).unwrap();
        }
    }
}

/// A fresh checkpointed session produces exactly the same output as the
/// plain (non-checkpointed) parallel executor — journalling is invisible
/// to the scan.
#[test]
fn checkpointing_does_not_change_results() {
    let ranges = two_ranges();
    let config = ScanConfig {
        seed: 9,
        max_targets: Some(500),
        ..Default::default()
    };
    let dir = session_dir("overhead");
    let (session, snap) = run_one(2, &dir, false, None, &config, &ranges, 32, || World::new(5));
    let mut plain = xmap::ParallelScanner::new(2, config, |_, telemetry| {
        let mut w = World::new(5);
        w.set_telemetry(telemetry);
        w
    });
    let expected = plain.run_all(&ranges, &IcmpEchoProbe, &Blocklist::allow_all());
    assert_eq!(to_csv(&session.records), to_csv(&expected.records));
    assert_eq!(session.stats, expected.stats);
    assert_eq!(snap, plain.snapshot());
    fs::remove_dir_all(&dir).unwrap();
}

/// Kill while retries are pending in the backoff heap (lossy forward
/// path, 3 probes per target, short RTO, tight checkpoint cadence); the
/// resumed run must still be byte-identical.
#[test]
fn kill_mid_retry_backoff_resumes_identically() {
    let ranges: Vec<ScanRange> = vec!["2405:200::/32-64".parse().unwrap()];
    let config = ScanConfig {
        seed: 17,
        max_targets: Some(400),
        probes_per_target: 3,
        rto_ticks: 4,
        record_silent: true,
        ..Default::default()
    };
    let world = || {
        World::with_config(
            WorldConfig::lossless(4242, 30)
                .with_fault(FaultPlan::none().seeded(0xF00D).with_forward_loss(0.3)),
        )
    };
    for workers in [1usize, 2] {
        let base_dir = session_dir("rbase");
        let (base, base_snap) =
            run_one(workers, &base_dir, false, None, &config, &ranges, 16, world);
        assert!(
            base.stats.retransmits > 0,
            "loss must force retries for this test to bite"
        );
        fs::remove_dir_all(&base_dir).unwrap();
        // Retries begin interleaving with fresh sends almost immediately
        // under 30% loss; these kill points land with a nonempty heap.
        for kill in [50u64, 133, 390] {
            let dir = session_dir("retry");
            let (partial, _) = run_one(
                workers,
                &dir,
                false,
                Some(kill),
                &config,
                &ranges,
                16,
                world,
            );
            assert!(partial.interrupted, "kill {kill} workers {workers}");
            let (resumed, snap) = run_one(workers, &dir, true, None, &config, &ranges, 16, world);
            assert!(!resumed.interrupted);
            assert_eq!(
                to_csv(&resumed.records),
                to_csv(&base.records),
                "workers {workers} kill {kill}"
            );
            assert_eq!(snap, base_snap, "workers {workers} kill {kill}");
            fs::remove_dir_all(&dir).unwrap();
        }
    }
}

/// Resuming an already-completed session sends nothing and returns the
/// identical output again; resuming from a byte-copy of the checkpoint
/// directory is equivalent to resuming from the original.
#[test]
fn double_resume_is_idempotent() {
    let ranges = two_ranges();
    let config = ScanConfig {
        seed: 33,
        max_targets: Some(400),
        ..Default::default()
    };
    let base_dir = session_dir("dbase");
    let (base, base_snap) = run_one(1, &base_dir, false, None, &config, &ranges, 64, || {
        World::new(5)
    });
    fs::remove_dir_all(&base_dir).unwrap();

    let dir = session_dir("dkill");
    let (partial, _) = run_one(1, &dir, false, Some(170), &config, &ranges, 64, || {
        World::new(5)
    });
    assert!(partial.interrupted);
    // Snapshot the interrupted state before the first resume consumes it.
    let copy = session_dir("dcopy");
    copy_dir(&dir, &copy);

    let (first, first_snap) = run_one(1, &dir, true, None, &config, &ranges, 64, || World::new(5));
    assert_eq!(to_csv(&first.records), to_csv(&base.records));
    assert_eq!(first_snap, base_snap);

    // Second resume of the completed session: everything replays from the
    // journal, no probes are sent, output identical.
    let (second, second_snap) =
        run_one(1, &dir, true, None, &config, &ranges, 64, || World::new(5));
    assert_eq!(to_csv(&second.records), to_csv(&first.records));
    assert_eq!(second_snap, first_snap);

    // Resuming from the byte-copied interrupted directory also converges
    // to the same final output.
    let (copied, copied_snap) =
        run_one(1, &copy, true, None, &config, &ranges, 64, || World::new(5));
    assert_eq!(to_csv(&copied.records), to_csv(&base.records));
    assert_eq!(copied_snap, base_snap);

    fs::remove_dir_all(&dir).unwrap();
    fs::remove_dir_all(&copy).unwrap();
}

/// Kill the periphery campaign in the middle of a mop-up pass (ICMPv6
/// token buckets make targets silent in the main pass; mop-up probes
/// start right after the 4096 main-pass probes of block 0). Killed under
/// one worker and resumed under two, the campaign must equal the
/// uninterrupted sequential one exactly.
#[test]
fn campaign_killed_mid_mop_up_resumes_identically() {
    let world = || {
        World::with_config(
            WorldConfig::lossless(99, 50).with_fault(FaultPlan::none().seeded(7).with_icmp_limit(
                IcmpRateLimit::TokenBucket {
                    capacity: 2,
                    refill_interval: 64,
                    start_depleted_frac: 0.5,
                },
            )),
        )
    };
    let config = ScanConfig {
        seed: 5,
        max_targets: Some(1 << 12),
        ..Default::default()
    };
    let campaign = Campaign::new(1 << 12).with_mop_up(512);
    let dir = session_dir("campaign");

    let mut base_scanner = Scanner::new(world(), config.clone());
    let baseline = campaign.run(&mut base_scanner);
    assert!(
        baseline.blocks[0].mop_up_recovered > 0,
        "rate limiting must leave block 0 something to mop up"
    );

    // Block 0's main pass sends exactly 4096 probes (allow-all blocklist),
    // so probe 4101 is the fifth mop-up probe.
    let signal = AbortSignal::new();
    let partial = ParallelCampaign::new(campaign.clone(), 1)
        .run_checkpointed(&config, &dir, false, Some(&signal), |_, _| {
            let mut w = world();
            w.arm_kill(
                KillPoint {
                    after_probes: Some(4101),
                    ..Default::default()
                },
                signal.clone(),
            );
            w
        })
        .unwrap();
    assert!(partial.interrupted);
    assert!(
        partial.result.blocks.is_empty(),
        "the mid-mop-up block must be discarded, not half-kept"
    );

    let full = ParallelCampaign::new(campaign, 2)
        .run_checkpointed(&config, &dir, true, None, |_, _| world())
        .unwrap();
    assert!(!full.interrupted);
    assert_eq!(
        full.result, baseline,
        "resumed campaign diverged from baseline"
    );
    fs::remove_dir_all(&dir).unwrap();
}

//! End-to-end parallel-campaign determinism: the periphery-discovery
//! campaign run on 1, 2 and 4 workers must be
//! byte-identical to the sequential walk — Table II rows, CSV records
//! and merged telemetry snapshots — and a campaign killed mid-block
//! under one worker count must resume byte-identically under another.

use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

use xmap::ScanConfig;
use xmap_bench::{table2, Experiment, ExperimentConfig};
use xmap_netsim::world::{World, WorldConfig};
use xmap_netsim::KillPoint;
use xmap_periphery::{BlockMode, Campaign, ParallelCampaign};
use xmap_state::AbortSignal;
use xmap_telemetry::Telemetry;

const TPB: u64 = 1 << 12;

fn campaign_dir(tag: &str) -> PathBuf {
    static COUNTER: AtomicU64 = AtomicU64::new(0);
    let n = COUNTER.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!("xmap-pcampaign-{tag}-{}-{n}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn quick_config(workers: usize) -> ExperimentConfig {
    ExperimentConfig {
        discovery_probes_per_block: TPB,
        campaign_workers: workers,
        ..ExperimentConfig::quick()
    }
}

/// One experiment's campaign-facing artifacts: Table II text, the raw
/// CSV records, and the experiment registry's full snapshot JSON.
fn campaign_artifacts(workers: usize) -> (String, String, String) {
    let telemetry = Telemetry::new();
    let mut exp = Experiment::with_telemetry(quick_config(workers), telemetry.clone());
    let table = table2(&mut exp);
    let csv = exp.campaign().to_csv();
    (table, csv, telemetry.registry.snapshot().to_json())
}

#[test]
fn experiment_campaign_workers_are_byte_identical() {
    let (table1w, csv1w, snap1w) = campaign_artifacts(1);
    assert!(table1w.contains("TABLE II"), "{table1w}");
    assert!(csv1w.lines().count() > 1, "no peripheries:\n{csv1w}");
    for workers in [2usize, 4] {
        let (table, csv, snap) = campaign_artifacts(workers);
        assert_eq!(table, table1w, "{workers}-worker Table II diverged");
        assert_eq!(csv, csv1w, "{workers}-worker CSV diverged");
        assert_eq!(snap, snap1w, "{workers}-worker snapshot diverged");
    }
}

fn base() -> ScanConfig {
    ScanConfig {
        seed: 9,
        ..Default::default()
    }
}

/// The world every replica is built from.
fn world() -> WorldConfig {
    WorldConfig::lossless(41, 60)
}

fn make_world(_w: usize, telemetry: &Telemetry) -> World {
    let mut world = World::with_config(world());
    world.set_telemetry(telemetry);
    world
}

#[test]
fn kill_mid_block_resumes_byte_identically_under_other_worker_counts() {
    // Uninterrupted 1-worker reference.
    let reference = ParallelCampaign::new(Campaign::new(TPB), 1).run(&base(), make_world);
    assert!(!reference.interrupted);

    // Kill a 2-worker campaign mid-block: worker 1's replica trips the
    // shared abort signal after 5000 of its own probes, leaving at least
    // one completed block checkpoint and at least one block unfinished.
    let dir = campaign_dir("kill");
    let signal = AbortSignal::new();
    let exec2 = ParallelCampaign::new(Campaign::new(TPB), 2);
    let partial = exec2
        .run_checkpointed(
            &base(),
            &world(),
            &dir,
            false,
            Some(&signal),
            |w, telemetry| {
                let mut world = World::with_config(WorldConfig::lossless(41, 60));
                world.set_telemetry(telemetry);
                if w == 1 {
                    world.arm_kill(
                        KillPoint {
                            after_probes: Some(5_000),
                            ..Default::default()
                        },
                        signal.clone(),
                    );
                }
                world
            },
        )
        .unwrap();
    assert!(partial.interrupted, "kill point must fire");
    assert!(
        partial.result.blocks.len() < reference.result.blocks.len(),
        "a mid-campaign kill must leave blocks undone"
    );
    let plan = exec2.resume_plan(&base(), &world(), &dir).unwrap();
    assert!(plan.contains(&BlockMode::Skip), "{plan:?}");
    assert!(plan.iter().any(|m| *m != BlockMode::Skip), "{plan:?}");

    // Resume under 4 workers (≠ the 2 the campaign was killed under).
    let exec4 = ParallelCampaign::new(Campaign::new(TPB), 4);
    let resumed = exec4
        .run_checkpointed(&base(), &world(), &dir, true, None, make_world)
        .unwrap();
    assert!(!resumed.interrupted);
    assert_eq!(
        resumed.result, reference.result,
        "4-worker resume of a 2-worker kill diverged from the uninterrupted campaign"
    );
    assert_eq!(
        resumed.result.to_csv(),
        reference.result.to_csv(),
        "CSV must be byte-identical"
    );
    assert_eq!(
        resumed.snapshot.to_json(),
        reference.snapshot.to_json(),
        "merged telemetry must be byte-identical"
    );

    // And the directory now resumes as a no-op from any worker count.
    let again = ParallelCampaign::new(Campaign::new(TPB), 3)
        .run_checkpointed(&base(), &world(), &dir, true, None, make_world)
        .unwrap();
    assert_eq!(again.result, reference.result);
    assert_eq!(again.snapshot, reference.snapshot);
    let _ = std::fs::remove_dir_all(&dir);
}

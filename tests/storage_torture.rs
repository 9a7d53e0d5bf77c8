//! Crash-consistency torture harness: sweep injected host-side fault
//! points (process kills, ENOSPC, torn writes) across the checkpointed
//! session and campaign executors. The invariant under test is the
//! strongest the storage layer claims: **every** surviving on-disk state
//! either resumes byte-identically to the uninterrupted run or is
//! cleanly refused (a typed error, never a silent divergence) — in which
//! case a fresh run over the same directory must still converge to the
//! baseline. Scripted worker panics ride the same harness through the
//! executor-fault plan.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

use xmap::output::to_csv;
use xmap::telemetry::names;
use xmap::{
    run_session, Blocklist, IcmpEchoProbe, ParallelScanner, ScanConfig, ScanResults, SessionSpec,
};
use xmap_addr::ScanRange;
use xmap_failpoint::{FailPlan, FaultKind, FsAction, FsOp, FsRule};
use xmap_netsim::World;
use xmap_periphery::{BlockMode, Campaign, CampaignOutcome, ParallelCampaign, UnitMode};
use xmap_state::{AbortSignal, StateError};
use xmap_telemetry::{Snapshot, Telemetry};

/// Fresh per-test directory under the system temp dir.
fn torture_dir(tag: &str) -> PathBuf {
    static COUNTER: AtomicU64 = AtomicU64::new(0);
    let n = COUNTER.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!("xmap-torture-{tag}-{}-{n}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn ranges() -> Vec<ScanRange> {
    vec!["2405:200::/32-64".parse().unwrap()]
}

fn session_config() -> ScanConfig {
    ScanConfig {
        seed: 77,
        max_targets: Some(300),
        ..Default::default()
    }
}

/// One checkpointed session run. Returns the outcome *and* the sink
/// error so callers can distinguish "completed but durability degraded"
/// from a hard failure.
fn session_run(
    dir: &Path,
    resume: bool,
    workers: usize,
) -> Result<(ScanResults, Snapshot, Option<StateError>), StateError> {
    let signal = AbortSignal::new();
    let config = session_config();
    let ranges = ranges();
    let spec = SessionSpec {
        workers,
        config,
        ranges: &ranges,
        dir,
        every: 16,
        resume,
        world_seed: 5,
    };
    let outcome = run_session(
        &spec,
        &IcmpEchoProbe,
        &Blocklist::allow_all(),
        Some(&signal),
        |_, telemetry| {
            let mut w = World::new(5);
            w.set_telemetry(telemetry);
            w
        },
    )?;
    Ok((outcome.results, outcome.snapshot, outcome.sink_error))
}

/// After a fault run, drive the directory back to the baseline: try a
/// resume first; a clean refusal (typed error) downgrades to a fresh
/// run over the same directory. Anything else — a panic, a silently
/// divergent result — fails the sweep.
fn session_recover(dir: &Path, workers: usize) -> (ScanResults, Snapshot) {
    match session_run(dir, true, workers) {
        Ok((results, snap, sink_error)) => {
            assert!(
                sink_error.is_none(),
                "recovery run (no faults armed) must be fully durable: {sink_error:?}"
            );
            (results, snap)
        }
        Err(refusal) => {
            // Cleanly refused: the state was unusable and said so. A
            // fresh session over the same directory must still work.
            let (results, snap, sink_error) = session_run(dir, false, workers)
                .unwrap_or_else(|e| panic!("fresh run after refusal `{refusal}` failed: {e}"));
            assert!(sink_error.is_none(), "{sink_error:?}");
            (results, snap)
        }
    }
}

/// Kill the host at every sampled filesystem operation of a checkpointed
/// session; whatever survives on disk must resume (or be refused and
/// re-run) byte-identically to the uninterrupted baseline.
#[test]
fn session_kill_sweep_every_surviving_state_recovers() {
    // Baseline with an observation scope: fault-free, but counts the
    // failpoint-routed operations so the sweep knows its domain.
    let base_dir = torture_dir("sess-base");
    let scope = FailPlan::observe(&base_dir).arm();
    let (base, base_snap, sink_error) = session_run(&base_dir, false, 1).unwrap();
    assert!(sink_error.is_none(), "{sink_error:?}");
    let total_ops = scope.ops();
    drop(scope);
    assert!(!base.interrupted);
    assert!(
        total_ops >= 40,
        "expected a rich op stream to torture, got {total_ops}"
    );
    eprintln!("# session torture sweep: {total_ops} fs ops in the fault-free stream");
    std::fs::remove_dir_all(&base_dir).unwrap();
    let base_csv = to_csv(&base.records);

    // Sample ~10 kill points across the stream, at two torn-write keep
    // offsets each. Op 0 (the journal create) and the final op are
    // always included.
    let stride = (total_ops / 8).max(1);
    let mut kills: Vec<u64> = (0..total_ops).step_by(stride as usize).collect();
    kills.push(total_ops - 1);
    for kill in kills {
        for keep in [0u64, 5] {
            let dir = torture_dir("sess-kill");
            let scope = FailPlan::kill_at(&dir, kill, keep).arm();
            let outcome = session_run(&dir, false, 1);
            assert!(scope.killed(), "kill point {kill} never fired");
            drop(scope);
            // The run either completed in degraded in-memory mode (the
            // sink caught the dead disk and kept scanning) or reported
            // a typed error; a completed run must already match the
            // baseline records exactly.
            match outcome {
                Ok((results, _, sink_error)) => {
                    assert!(
                        sink_error.is_some(),
                        "kill at op {kill} latched every op, the sink cannot have recovered"
                    );
                    assert_eq!(
                        to_csv(&results.records),
                        base_csv,
                        "degraded completion diverged: kill {kill} keep {keep}"
                    );
                }
                Err(StateError::Io { .. }) | Err(StateError::Corrupt(_)) => {}
                Err(other) => panic!("kill {kill} keep {keep}: unexpected refusal {other}"),
            }
            // Faults disarmed: the surviving bytes must recover.
            let (recovered, snap) = session_recover(&dir, 1);
            assert!(!recovered.interrupted);
            assert_eq!(
                to_csv(&recovered.records),
                base_csv,
                "records diverged after kill {kill} keep {keep}"
            );
            assert_eq!(
                recovered.stats, base.stats,
                "stats diverged after kill {kill} keep {keep}"
            );
            assert_eq!(
                snap, base_snap,
                "snapshot diverged after kill {kill} keep {keep}"
            );
            std::fs::remove_dir_all(&dir).unwrap();
        }
    }
}

/// The same sweep under two workers: op interleaving is nondeterministic
/// there, so each sampled point tortures a different (but always valid)
/// on-disk state. A coarser sample keeps the test quick.
#[test]
fn session_kill_sweep_recovers_under_two_workers() {
    let base_dir = torture_dir("sess2-base");
    let scope = FailPlan::observe(&base_dir).arm();
    let (base, base_snap, _) = session_run(&base_dir, false, 2).unwrap();
    let total_ops = scope.ops();
    drop(scope);
    eprintln!("# 2-worker session torture sweep: {total_ops} fs ops in the fault-free stream");
    std::fs::remove_dir_all(&base_dir).unwrap();
    let base_csv = to_csv(&base.records);

    for kill in [1, total_ops / 3, total_ops / 2, total_ops - 2] {
        let dir = torture_dir("sess2-kill");
        let scope = FailPlan::kill_at(&dir, kill, 3).arm();
        let _ = session_run(&dir, false, 2);
        drop(scope);
        let (recovered, snap) = session_recover(&dir, 2);
        assert_eq!(to_csv(&recovered.records), base_csv, "kill {kill}");
        assert_eq!(snap, base_snap, "kill {kill}");
        std::fs::remove_dir_all(&dir).unwrap();
    }
}

/// A one-shot ENOSPC on a checkpoint publish degrades the sink to
/// in-memory mode without corrupting the previously published
/// checkpoint; the sink recovers at a later boundary and the session
/// ends fully durable. A persistent ENOSPC keeps it degraded to the
/// end — and the last *successfully* published state still resumes
/// byte-identically.
#[test]
fn enospc_on_checkpoint_publish_degrades_without_corruption() {
    let base_dir = torture_dir("enospc-base");
    let (base, base_snap, _) = session_run(&base_dir, false, 1).unwrap();
    let base_csv = to_csv(&base.records);
    std::fs::remove_dir_all(&base_dir).unwrap();

    // One-shot: the second checkpoint publish (`.tmp` create) fails.
    let dir = torture_dir("enospc-once");
    let scope = FailPlan {
        prefix: dir.clone(),
        rules: vec![FsRule {
            op: FsOp::Create,
            suffix: Some(".tmp".into()),
            nth: 1,
            action: FsAction::Fail(FaultKind::Enospc),
        }],
        schedules: Vec::new(),
    }
    .arm();
    let (results, _, sink_error) = session_run(&dir, false, 1).unwrap();
    assert_eq!(scope.fired(), 1, "the ENOSPC rule must actually fire");
    drop(scope);
    assert_eq!(to_csv(&results.records), base_csv, "one-shot ENOSPC");
    assert!(
        sink_error.is_none(),
        "a transient ENOSPC must be recovered from, not carried to session end: {sink_error:?}"
    );
    // The directory is a complete, healthy session: replay-only resume.
    let (replayed, _, _) = session_run(&dir, true, 1).unwrap();
    assert_eq!(to_csv(&replayed.records), base_csv);
    std::fs::remove_dir_all(&dir).unwrap();

    // Persistent: every publish after the first fails. The first
    // published checkpoint must survive untouched and still resume.
    // (A fired rule short-circuits rule evaluation for that op, so the
    // *next* rule in line has seen one fewer matching op — `nth: 1` on
    // every rule means each one fails the next create it witnesses.)
    let dir = torture_dir("enospc-dead");
    let rules = (0..200)
        .map(|_| FsRule {
            op: FsOp::Create,
            suffix: Some(".tmp".into()),
            nth: 1,
            action: FsAction::Fail(FaultKind::Enospc),
        })
        .collect();
    let scope = FailPlan {
        prefix: dir.clone(),
        rules,
        schedules: Vec::new(),
    }
    .arm();
    let (results, _, sink_error) = session_run(&dir, false, 1).unwrap();
    assert!(scope.fired() >= 1);
    drop(scope);
    assert_eq!(
        to_csv(&results.records),
        base_csv,
        "degraded-to-the-end completion diverged"
    );
    assert!(
        sink_error.is_some(),
        "a disk that stays full must be surfaced at session end"
    );
    let (recovered, snap) = session_recover(&dir, 1);
    assert_eq!(to_csv(&recovered.records), base_csv, "persistent ENOSPC");
    assert_eq!(snap, base_snap, "persistent ENOSPC snapshot diverged");
    std::fs::remove_dir_all(&dir).unwrap();
}

const CAMPAIGN_TPB: u64 = 1 << 10;

fn campaign_base() -> ScanConfig {
    ScanConfig {
        seed: 9,
        ..Default::default()
    }
}

fn campaign_world(_w: usize, telemetry: &Telemetry) -> World {
    let mut world = World::new(41);
    world.set_telemetry(telemetry);
    world
}

fn campaign(workers: usize) -> ParallelCampaign {
    ParallelCampaign::new(Campaign::new(CAMPAIGN_TPB), workers)
}

fn campaign_run(
    exec: &ParallelCampaign,
    dir: &Path,
    resume: bool,
) -> Result<CampaignOutcome, StateError> {
    exec.run_checkpointed(&campaign_base(), dir, resume, None, campaign_world)
}

/// The snapshot without its `exec.*` counters, which describe the
/// schedule (a resume splits only the blocks it re-runs).
fn strip_exec(mut snap: Snapshot) -> Snapshot {
    snap.counters.retain(|name, _| !name.starts_with("exec."));
    snap
}

/// Kill the host at filesystem operations of a checkpointed campaign
/// (block checkpoints, the directory manifest and, once a block splits,
/// its units manifest and unit checkpoints); the surviving directory
/// must resume — or be refused and re-run fresh — to the exact
/// uninterrupted result. Two inputs: a plain campaign, sampled across its
/// op stream, and a forced-split one, killed at every op up to and
/// including block 0's commit and sampled after that. The plain
/// campaign's snapshot must match in full; the split one's `exec.*`
/// counters are left out (a resume re-splits only the blocks it re-runs).
#[test]
fn campaign_kill_sweep_every_surviving_state_recovers() {
    let plain = campaign(1);
    let split = campaign(1).with_force_split_at(300);
    let mut all_units_skip = false;
    for (exec, mut dense, strip) in [(&plain, false, false), (&split, true, true)] {
        let compared = |snap: Snapshot| if strip { strip_exec(snap) } else { snap };
        let base_dir = torture_dir("camp-base");
        let scope = FailPlan::observe(&base_dir).arm();
        let baseline = campaign_run(exec, &base_dir, false).unwrap();
        let total_ops = scope.ops();
        drop(scope);
        assert!(baseline.poisoned.is_empty());
        assert!(
            total_ops >= 30,
            "campaign op stream too thin to torture: {total_ops}"
        );
        eprintln!("# campaign torture sweep: {total_ops} fs ops in the fault-free stream");
        std::fs::remove_dir_all(&base_dir).unwrap();
        let base_csv = baseline.result.to_csv();
        let base_snap = compared(baseline.snapshot);

        let stride = (total_ops / 8).max(1);
        // `dense` holds until a kill leaves block 0 committed.
        let mut kill = 0;
        while kill < total_ops {
            let dir = torture_dir("camp-kill");
            let scope = FailPlan::kill_at(&dir, kill, 4).arm();
            // With the disk dead mid-run this either errors out or (when
            // the kill lands on the very last op) completes; both leave a
            // valid torture state behind.
            let _ = campaign_run(exec, &dir, false);
            assert!(scope.killed(), "kill point {kill} never fired");
            drop(scope);
            let block0 = exec
                .resume_plan(&campaign_base(), &dir)
                .ok()
                .map(|plan| plan[0].clone());
            if let Some(BlockMode::Split(units)) = &block0 {
                all_units_skip |= units.iter().all(|u| u.mode == UnitMode::Skip);
            }
            dense &= block0 != Some(BlockMode::Skip);
            let recovered = match campaign_run(exec, &dir, true) {
                Ok(outcome) => outcome,
                Err(refusal) => campaign_run(exec, &dir, false).unwrap_or_else(|e| {
                    panic!("fresh campaign after refusal `{refusal}` failed: {e}")
                }),
            };
            assert!(recovered.poisoned.is_empty(), "kill {kill}");
            assert_eq!(
                recovered.result, baseline.result,
                "campaign result diverged after kill {kill}"
            );
            assert_eq!(
                recovered.result.to_csv(),
                base_csv,
                "campaign CSV diverged after kill {kill}"
            );
            assert_eq!(
                compared(recovered.snapshot),
                base_snap,
                "campaign snapshot diverged after kill {kill}"
            );
            std::fs::remove_dir_all(&dir).unwrap();
            kill = match kill {
                k if dense || k + 1 == total_ops => k + 1,
                k => (k + stride).min(total_ops - 1),
            };
        }
    }
    assert!(
        all_units_skip,
        "no kill left a split block with every unit checkpointed but the block uncommitted"
    );
}

/// Scripted executor faults at integration level: a worker that panics
/// mid-shard is supervised — its shard re-runs and the merged output is
/// byte-identical to the fault-free run, with the fault surfaced in the
/// `exec.*` counters rather than a crash.
#[test]
fn scripted_worker_panic_is_supervised_end_to_end() {
    let ranges = ranges();
    let config = session_config();
    let module = IcmpEchoProbe;
    let blocklist = Blocklist::allow_all();

    let mut clean = ParallelScanner::new(2, config.clone(), |_, telemetry: &Telemetry| {
        let mut w = World::new(5);
        w.set_telemetry(telemetry);
        w
    });
    let expected = clean.run_all(&ranges, &module, &blocklist);
    let expected_snap = clean.snapshot();

    let mut faulty = ParallelScanner::new(2, config, |_, telemetry: &Telemetry| {
        let mut w = World::new(5);
        w.set_telemetry(telemetry);
        w
    });
    faulty.set_exec_faults(xmap_failpoint::ExecPlan::panic_on(1, 0).armed());
    let results = faulty.run_all(&ranges, &module, &blocklist);
    assert_eq!(to_csv(&results.records), to_csv(&expected.records));
    assert_eq!(results.stats, expected.stats);
    assert!(faulty.poisoned_shards().is_empty());

    // The snapshot equals the clean one *plus* the executor-fault
    // counters — stripping them must give byte equality.
    let mut snap = faulty.snapshot();
    assert_eq!(snap.counters.get(names::EXEC_WORKER_PANICS), Some(&1));
    assert!(snap.counters.contains_key(names::EXEC_REQUEUED));
    for key in [
        names::EXEC_WORKER_PANICS,
        names::EXEC_REQUEUED,
        names::EXEC_POISONED,
    ] {
        snap.counters.remove(key);
    }
    assert_eq!(snap, expected_snap);
}

/// Campaign-level scripted panic with checkpointing: the panicked
/// block's in-progress marker and requeue leave no trace in the final
/// result, and nothing in the checkpoint directory is corrupted.
#[test]
fn scripted_campaign_panic_leaves_directory_resumable() {
    let clean =
        ParallelCampaign::new(Campaign::new(CAMPAIGN_TPB), 2).run(&campaign_base(), campaign_world);

    let dir = torture_dir("camp-panic");
    let outcome = ParallelCampaign::new(Campaign::new(CAMPAIGN_TPB), 2)
        .with_exec_faults(xmap_failpoint::ExecPlan::panic_on(0, 1))
        .run_checkpointed(&campaign_base(), &dir, false, None, campaign_world)
        .unwrap();
    assert!(outcome.poisoned.is_empty());
    assert_eq!(outcome.result, clean.result);
    assert_eq!(
        outcome.snapshot.counters.get(names::EXEC_WORKER_PANICS),
        Some(&1)
    );

    // Every block checkpoint the run published must be loadable: a
    // resume replays the whole campaign from disk without scanning.
    let replay = campaign_run(&campaign(1), &dir, true).unwrap();
    assert_eq!(replay.result, clean.result);
    std::fs::remove_dir_all(&dir).unwrap();
}

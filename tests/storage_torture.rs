//! Crash-consistency torture harness: sweep injected host-side fault
//! points (process kills, power cuts, ENOSPC, torn writes) across the
//! checkpointed session, campaign and adaptive-campaign executors. The invariant under test is the
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
use xmap_failpoint::{FailPlan, FaultKind, FsAction, FsOp, FsRule, FsSchedule};
use xmap_netsim::world::{Allocation, WorldConfig};
use xmap_netsim::{KillPoint, World};
use xmap_periphery::{
    AdaptiveCampaign, AdaptiveConfig, AdaptiveOutcome, BlockMode, Campaign, CampaignOutcome,
    ParallelCampaign, UnitMode,
};
use xmap_state::checkpoint::{Kind, CUT_ENTRY};
use xmap_state::wal::frame_len;
use xmap_state::{AbortSignal, StateError, Wal, WorkerCheckpoint};
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

/// The shape of one checkpointed session run: its checkpoint cadence in
/// slots, its target budget, and optionally a kill after that many
/// probes.
#[derive(Debug, Clone, Copy)]
struct Shape {
    every: u64,
    targets: u64,
    kill_after: Option<u64>,
}

/// The session the sweeps run unless they say otherwise.
const DEFAULT_SHAPE: Shape = Shape {
    every: 16,
    targets: 300,
    kill_after: None,
};

/// One checkpointed session run. Returns the outcome *and* the sink
/// error so callers can distinguish "completed but durability degraded"
/// from a hard failure.
fn session_run(
    dir: &Path,
    resume: bool,
    workers: usize,
) -> Result<(ScanResults, Snapshot, Option<StateError>), StateError> {
    session_run_shaped(dir, resume, workers, DEFAULT_SHAPE)
}

/// [`session_run`] of another [`Shape`].
fn session_run_shaped(
    dir: &Path,
    resume: bool,
    workers: usize,
    shape: Shape,
) -> Result<(ScanResults, Snapshot, Option<StateError>), StateError> {
    let signal = AbortSignal::new();
    let config = ScanConfig {
        max_targets: Some(shape.targets),
        ..session_config()
    };
    let kill_signal = signal.clone();
    let mut scanner = ParallelScanner::new(workers, config, move |_, telemetry| {
        let mut w = World::new(5);
        w.set_telemetry(telemetry);
        if let Some(n) = shape.kill_after {
            let point = KillPoint {
                after_probes: Some(n),
                ..Default::default()
            };
            w.arm_kill(point, kill_signal.clone());
        }
        w
    });
    let ranges = ranges();
    let spec = SessionSpec {
        ranges: &ranges,
        dir,
        every: shape.every,
        resume,
        world_seed: 5,
    };
    let outcome = run_session(
        &spec,
        &mut scanner,
        &IcmpEchoProbe,
        &Blocklist::allow_all(),
        Some(&signal),
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

/// Power loss at every filesystem operation of a checkpointed session:
/// the kill latches the disk, then every byte that was not fsynced is
/// lost. A cut, once published, must survive together with every record
/// it covers: from the first kill point that leaves one on disk, every
/// later one must resume — never a `Corrupt` refusal — to the baseline
/// CSV and snapshot.
#[test]
fn session_power_loss_sweep_resumes_every_published_cut() {
    let base_dir = torture_dir("power-base");
    let scope = FailPlan::observe(&base_dir).arm();
    let (base, base_snap, sink_error) = session_run(&base_dir, false, 1).unwrap();
    assert!(sink_error.is_none(), "{sink_error:?}");
    let total_ops = scope.ops();
    drop(scope);
    std::fs::remove_dir_all(&base_dir).unwrap();
    let base_csv = to_csv(&base.records);

    let mut published = false;
    let mut covered_a_record = false;
    let (mut from_cut, mut refused) = (0, 0);
    for kill in 0..total_ops {
        let dir = torture_dir("power-kill");
        let scope = FailPlan::kill_at(&dir, kill, 0).arm();
        let _ = session_run(&dir, false, 1);
        assert!(scope.killed(), "kill point {kill} never fired");
        scope.lose_unsynced();
        drop(scope);
        let cut = WorkerCheckpoint::read_from(&dir.join("worker-0.ckpt")).ok();
        assert!(
            cut.is_some() || !published,
            "kill {kill}: power loss took a cut an earlier op had published"
        );
        published |= cut.is_some();
        covered_a_record |= cut.as_ref().is_some_and(|c| c.wal_seq >= 1);
        from_cut += u64::from(cut.is_some());
        match session_run(&dir, true, 1) {
            Ok((resumed, snap, sink_error)) => {
                assert!(sink_error.is_none(), "kill {kill}: {sink_error:?}");
                assert!(!resumed.interrupted, "kill {kill}");
                assert_eq!(to_csv(&resumed.records), base_csv, "kill {kill}: records");
                assert_eq!(snap, base_snap, "kill {kill}: snapshot");
            }
            Err(StateError::Corrupt(msg)) => {
                panic!("kill {kill}: resume refused as corrupt: {msg}")
            }
            Err(refusal) => {
                assert!(
                    !published,
                    "kill {kill}: a published cut must resume, got `{refusal}`"
                );
                refused += 1;
            }
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }
    eprintln!(
        "# power-loss sweep: {total_ops} kill points, {from_cut} resumed from a cut, \
         {refused} refused before the first one"
    );
    assert!(
        covered_a_record,
        "no kill point left a published cut covering a record"
    );
}

/// A kill mid-publish can tear the journal's last cut entry at any byte.
/// Cut back to every offset inside that entry, the journal must resume
/// from the cut before it to the uninterrupted artifacts.
#[test]
fn torn_last_cut_falls_back_to_the_previous_cut() {
    let base_dir = torture_dir("torn-base");
    let (base, base_snap, _) = session_run(&base_dir, false, 1).unwrap();
    std::fs::remove_dir_all(&base_dir).unwrap();
    let base_csv = to_csv(&base.records);

    let killed_dir = torture_dir("torn-killed");
    let shape = Shape {
        kill_after: Some(250),
        ..DEFAULT_SHAPE
    };
    let (killed, _, _) = session_run_shaped(&killed_dir, false, 1, shape).unwrap();
    assert!(killed.interrupted, "kill after 250 probes must interrupt");
    let journal = std::fs::read(killed_dir.join("worker-0.ckpt")).unwrap();
    let manifest = std::fs::read(killed_dir.join("manifest.json")).unwrap();
    let entries = Wal::recover(&killed_dir.join("worker-0.ckpt"))
        .unwrap()
        .entries;
    std::fs::remove_dir_all(&killed_dir).unwrap();
    let last = entries.last().expect("journal holds entries");
    assert_eq!(
        last.first(),
        Some(&CUT_ENTRY),
        "the kill's cut ends the journal"
    );
    let cuts = entries
        .iter()
        .filter(|e| e.first() == Some(&CUT_ENTRY))
        .count();
    assert!(cuts >= 2, "a cut must precede the torn one, found {cuts}");
    let last_start = journal.len() - frame_len(last.len()) as usize;

    for len in last_start..journal.len() {
        let dir = torture_dir("torn-cut");
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join("manifest.json"), &manifest).unwrap();
        std::fs::write(dir.join("worker-0.ckpt"), &journal[..len]).unwrap();
        let (resumed, snap, sink_error) = session_run(&dir, true, 1)
            .unwrap_or_else(|e| panic!("journal cut to {len} bytes: resume refused: {e}"));
        assert!(sink_error.is_none(), "{sink_error:?}");
        assert_eq!(
            to_csv(&resumed.records),
            base_csv,
            "journal cut to {len} bytes"
        );
        assert_eq!(snap, base_snap, "journal cut to {len} bytes");
        std::fs::remove_dir_all(&dir).unwrap();
    }
}

/// A session directory of the older layout — a `worker-N.wal` record
/// journal beside the checkpoint file — is refused on resume as a
/// version error, naming the remedy.
#[test]
fn older_session_layout_is_refused_as_a_version_error() {
    let dir = torture_dir("legacy");
    session_run(&dir, false, 1).unwrap();
    std::fs::write(dir.join("worker-0.wal"), b"").unwrap();
    match session_run(&dir, true, 1) {
        Err(StateError::Version(msg)) => assert!(msg.contains("--resume"), "{msg}"),
        other => panic!("expected a version refusal, got {other:?}"),
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

/// The shape compaction needs: a cut every slot, enough slots for the
/// superseded cuts to pass the 1 MiB floor.
const COMPACTING_SHAPE: Shape = Shape {
    every: 1,
    targets: 1200,
    kill_after: None,
};

/// Every cut entry of the journal in `dir`, and the journal's length.
fn journal_cuts(dir: &Path) -> (Vec<Vec<u8>>, u64) {
    let path = dir.join("worker-0.ckpt");
    let mut entries = Wal::recover(&path).unwrap().entries;
    entries.retain(|e| e.first() == Some(&CUT_ENTRY));
    (entries, std::fs::metadata(&path).unwrap().len())
}

/// A cut every slot outgrows the compaction floor: the journal is
/// rewritten as its records plus the latest cut, ending shorter than the
/// cuts written into it. With compaction failing throughout, the run is
/// unchanged and durable. Power loss at each compaction step — the
/// `.tmp` create, write and sync, the rename, the directory sync —
/// resumes from a published cut to the uninterrupted artifacts.
#[test]
fn compaction_drops_superseded_cuts_and_survives_a_kill_at_each_step() {
    let base_dir = torture_dir("compact-base");
    let (base, base_snap, sink_error) =
        session_run_shaped(&base_dir, false, 1, COMPACTING_SHAPE).unwrap();
    assert!(sink_error.is_none(), "{sink_error:?}");
    let base_csv = to_csv(&base.records);
    let (kept_cuts, compacted_len) = journal_cuts(&base_dir);
    std::fs::remove_dir_all(&base_dir).unwrap();

    // Every compaction fails at its first step: nothing is ever dropped.
    let dir = torture_dir("compact-never");
    let never = FsSchedule {
        suffix: Some("worker-0.tmp".into()),
        ..FsSchedule::disk_full_window(FsOp::Create, 0, u64::MAX)
    };
    let scope = FailPlan::observe(&dir).with_schedule(never).arm();
    let (results, snap, sink_error) = session_run_shaped(&dir, false, 1, COMPACTING_SHAPE).unwrap();
    assert!(scope.fired() >= 1, "no compaction was attempted");
    drop(scope);
    assert!(
        sink_error.is_none(),
        "a failed compaction must not degrade: {sink_error:?}"
    );
    assert_eq!(to_csv(&results.records), base_csv);
    assert_eq!(snap, base_snap);
    let (all_cuts, _) = journal_cuts(&dir);
    std::fs::remove_dir_all(&dir).unwrap();
    let cut_bytes: u64 = all_cuts.iter().map(|c| frame_len(c.len())).sum();
    assert!(
        kept_cuts.len() < all_cuts.len(),
        "no compaction happened: {} cuts kept of {}",
        kept_cuts.len(),
        all_cuts.len()
    );
    assert!(
        compacted_len < cut_bytes,
        "compacted journal {compacted_len} B, cuts written {cut_bytes} B"
    );

    let dir_name = |dir: &Path| dir.file_name().unwrap().to_string_lossy().into_owned();
    let steps = [
        (FsOp::Create, "worker-0.tmp", 0),
        (FsOp::Write, "worker-0.tmp", 0),
        (FsOp::Sync, "worker-0.tmp", 0),
        (FsOp::Rename, "worker-0.tmp", 0),
        // The session's creation syncs the directory first.
        (FsOp::Sync, "", 1),
    ];
    for (op, suffix, nth) in steps {
        let dir = torture_dir("compact-kill");
        let suffix = if suffix.is_empty() {
            dir_name(&dir)
        } else {
            suffix.to_owned()
        };
        let scope = FailPlan {
            prefix: dir.clone(),
            rules: vec![FsRule {
                op,
                suffix: Some(suffix.clone()),
                nth,
                action: FsAction::Kill { keep: 7 },
            }],
            schedules: Vec::new(),
        }
        .arm();
        let _ = session_run_shaped(&dir, false, 1, COMPACTING_SHAPE);
        assert!(scope.killed(), "{op:?} {suffix} never ran");
        scope.lose_unsynced();
        drop(scope);
        // Hundreds of cuts were published before the first compaction.
        let cut = WorkerCheckpoint::read_from(&dir.join("worker-0.ckpt"));
        assert!(
            cut.is_ok(),
            "kill at {op:?} {suffix} lost every cut: {cut:?}"
        );
        let (resumed, snap, sink_error) = session_run_shaped(&dir, true, 1, COMPACTING_SHAPE)
            .unwrap_or_else(|e| panic!("kill at {op:?} {suffix}: resume refused: {e}"));
        assert!(sink_error.is_none(), "{sink_error:?}");
        assert_eq!(
            to_csv(&resumed.records),
            base_csv,
            "kill at {op:?} {suffix}"
        );
        assert_eq!(snap, base_snap, "kill at {op:?} {suffix}");
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

    // One-shot: the second checkpoint publish (the journal's sync) fails.
    let dir = torture_dir("enospc-once");
    let scope = FailPlan {
        prefix: dir.clone(),
        rules: vec![FsRule {
            op: FsOp::Sync,
            suffix: Some(".ckpt".into()),
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
    // every rule means each one fails the next sync it witnesses.)
    let dir = torture_dir("enospc-dead");
    let rules = (0..200)
        .map(|_| FsRule {
            op: FsOp::Sync,
            suffix: Some(".ckpt".into()),
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

/// The world every campaign replica is built from.
fn campaign_world_config() -> WorldConfig {
    WorldConfig {
        seed: 41,
        ..WorldConfig::default()
    }
}

fn campaign_world(_w: usize, telemetry: &Telemetry) -> World {
    let mut world = World::with_config(campaign_world_config());
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
    let world = campaign_world_config();
    exec.run_checkpointed(&campaign_base(), &world, dir, resume, None, campaign_world)
}

/// The snapshot without its `exec.*` counters, which describe the
/// schedule (a resume splits only the blocks it re-runs).
fn strip_exec(mut snap: Snapshot) -> Snapshot {
    snap.counters.retain(|name, _| !name.starts_with("exec."));
    snap
}

/// Kill the host at filesystem operations of a checkpointed campaign
/// (the journal's creation, its claim, split, unit and block appends and
/// their flushes and syncs), once as a process kill and once as a power
/// cut that also drops every unsynced byte; the surviving directory must
/// resume — or be refused and re-run fresh — to the exact uninterrupted
/// result. Two inputs: a plain campaign, sampled across its op stream,
/// and a forced-split one, killed at every op up to and including block
/// 0's commit and sampled after that. The plain campaign's snapshot must
/// match in full; the split one's `exec.*` counters are left out (a
/// resume re-splits only the blocks it re-runs).
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
            for power_loss in [false, true] {
                let label = format!("kill {kill}, power loss {power_loss}");
                let dir = torture_dir("camp-kill");
                let scope = FailPlan::kill_at(&dir, kill, 4).arm();
                // With the disk dead mid-run this either errors out or
                // (when the kill lands on the very last op) completes;
                // both leave a valid torture state behind.
                let _ = campaign_run(exec, &dir, false);
                assert!(scope.killed(), "{label}: kill point never fired");
                if power_loss {
                    scope.lose_unsynced();
                }
                drop(scope);
                let block0 = exec
                    .resume_plan(&campaign_base(), &campaign_world_config(), &dir)
                    .ok()
                    .map(|plan| plan[0].clone());
                if let Some(BlockMode::Split(units)) = &block0 {
                    all_units_skip |= units.iter().all(|u| u.mode == UnitMode::Skip);
                }
                dense &= block0 != Some(BlockMode::Skip);
                let recovered = match campaign_run(exec, &dir, true) {
                    Ok(outcome) => outcome,
                    Err(refusal) => campaign_run(exec, &dir, false).unwrap_or_else(|e| {
                        panic!("{label}: fresh campaign after refusal `{refusal}` failed: {e}")
                    }),
                };
                assert!(recovered.poisoned.is_empty(), "{label}");
                assert_eq!(
                    recovered.result, baseline.result,
                    "{label}: campaign result diverged"
                );
                assert_eq!(
                    recovered.result.to_csv(),
                    base_csv,
                    "{label}: campaign CSV diverged"
                );
                assert_eq!(
                    compared(recovered.snapshot),
                    base_snap,
                    "{label}: campaign snapshot diverged"
                );
                std::fs::remove_dir_all(&dir).unwrap();
            }
            kill = match kill {
                k if dense || k + 1 == total_ops => k + 1,
                k => (k + stride).min(total_ops - 1),
            };
        }
    }
    assert!(
        all_units_skip,
        "no kill left a split block with every unit journalled but the block uncommitted"
    );
}

/// A campaign directory of the older layout — a sectioned
/// `campaign.ckpt` beside per-block files — is refused on resume and by
/// the resume planner as a version error, naming the remedy.
#[test]
fn older_campaign_layout_is_refused_as_a_version_error() {
    let dir = torture_dir("camp-legacy");
    std::fs::create_dir_all(&dir).unwrap();
    let blocks = [("blocks", 15)];
    let older = Kind {
        name: "campaign-dir",
    };
    std::fs::write(dir.join("campaign.ckpt"), older.entry(&blocks, 0, &[])).unwrap();
    let exec = campaign(1);
    let refusals = [
        exec.resume_plan(&campaign_base(), &campaign_world_config(), &dir)
            .map(|_| ()),
        campaign_run(&exec, &dir, true).map(|_| ()),
    ];
    for refusal in refusals {
        match refusal {
            Err(StateError::Version(msg)) => assert!(msg.contains("--resume"), "{msg}"),
            other => panic!("expected a version refusal, got {other:?}"),
        }
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

/// An adaptive campaign over a clustered-sparse world with a small
/// budget: a few rounds per block, every one of them journalled, after a
/// boundary inference whose probes round 0 of each block accounts for.
fn adaptive_run(workers: usize, dir: &Path, resume: bool) -> Result<AdaptiveOutcome, StateError> {
    let engine = AdaptiveCampaign::new(AdaptiveConfig {
        probe_budget: 1 << 7,
        root_bits: Some(12),
        ..AdaptiveConfig::default()
    })
    .with_inferred_boundary(true)
    .with_workers(workers);
    let base = ScanConfig {
        seed: 5,
        ..Default::default()
    };
    let path = dir.join("adaptive.ckpt");
    let sparse = WorldConfig::lossless(99, 10).with_allocation(Allocation::Clustered {
        pod_bits: 8,
        active_frac: 1.0 / 256.0,
    });
    engine.run_checkpointed(&base, &sparse, &path, resume, |telemetry: &Telemetry| {
        let mut world = World::with_config(sparse);
        world.set_telemetry(telemetry);
        world
    })
}

/// Kill the host at sampled filesystem operations of a checkpointed
/// adaptive campaign (the journal's creation and its round appends and
/// syncs), once as a process kill and once as a power cut that also
/// drops every unsynced byte. The surviving journal must resume, under
/// another worker count, to the uninterrupted run's CSV and snapshot.
#[test]
fn adaptive_power_loss_sweep_resumes_every_surviving_journal() {
    let base_dir = torture_dir("adapt-base");
    let scope = FailPlan::observe(&base_dir).arm();
    let baseline = adaptive_run(1, &base_dir, false).unwrap();
    let total_ops = scope.ops();
    drop(scope);
    std::fs::remove_dir_all(&base_dir).unwrap();
    assert!(!baseline.interrupted);
    assert!(
        total_ops >= 60,
        "adaptive op stream too thin to torture: {total_ops}"
    );
    eprintln!("# adaptive torture sweep: {total_ops} fs ops in the fault-free stream");
    let base_csv = baseline.result.to_csv();
    let base_json = baseline.snapshot.to_json();
    let stride = (total_ops / 32).max(1) as usize;
    let kills = (0..total_ops).step_by(stride).chain([total_ops - 1]);
    for (kill, power_loss) in kills.flat_map(|k| [(k, false), (k, true)]) {
        let label = format!("kill {kill}, power loss {power_loss}");
        let dir = torture_dir("adapt-kill");
        let scope = FailPlan::kill_at(&dir, kill, 4).arm();
        let _ = adaptive_run(1, &dir, false);
        assert!(scope.killed(), "{label}: kill point never fired");
        if power_loss {
            scope.lose_unsynced();
        }
        drop(scope);
        let recovered =
            adaptive_run(2, &dir, true).unwrap_or_else(|e| panic!("{label}: resume refused: {e}"));
        assert!(!recovered.interrupted, "{label}");
        assert_eq!(recovered.result.to_csv(), base_csv, "{label}: CSV diverged");
        assert_eq!(
            recovered.snapshot.to_json(),
            base_json,
            "{label}: snapshot diverged"
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }
}

/// An `adaptive.ckpt` of the older layout — one sectioned checkpoint,
/// rewritten whole after every round — is refused on resume as a version
/// error naming the remedy.
#[test]
fn older_adaptive_checkpoint_is_refused_as_a_version_error() {
    let dir = torture_dir("adapt-legacy");
    std::fs::create_dir_all(&dir).unwrap();
    let fields = [("completed_blocks", 0), ("spent", 0)];
    let older = Kind {
        name: "adaptive-campaign",
    };
    std::fs::write(dir.join("adaptive.ckpt"), older.entry(&fields, 0, &[])).unwrap();
    match adaptive_run(1, &dir, true) {
        Err(StateError::Version(msg)) => assert!(msg.contains("--resume"), "{msg}"),
        other => panic!("expected a version refusal, got {other:?}"),
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

/// A short write or ENOSPC on the nth write or sync of `campaign.ckpt`
/// (a split campaign: claims and splits are only flushed) and of
/// `adaptive.ckpt` fails the run with a typed error, not a panic, and
/// leaves the journal at exactly its synced prefix: a power cut right
/// after takes nothing more. The directory then resumes to the
/// uninterrupted CSV and `exec.*`-stripped snapshot.
#[test]
fn journal_io_failure_leaves_the_synced_prefix_and_resumes() {
    type Run<'a> = Box<dyn Fn(&Path, bool) -> Result<(String, Snapshot), StateError> + 'a>;
    let split = campaign(1).with_force_split_at(300);
    let journals: [(&str, Run); 2] = [
        (
            "campaign.ckpt",
            Box::new(|dir: &Path, resume| {
                let outcome = campaign_run(&split, dir, resume)?;
                Ok((outcome.result.to_csv(), strip_exec(outcome.snapshot)))
            }),
        ),
        (
            "adaptive.ckpt",
            Box::new(|dir: &Path, resume| {
                let outcome = adaptive_run(1, dir, resume)?;
                Ok((outcome.result.to_csv(), strip_exec(outcome.snapshot)))
            }),
        ),
    ];
    let torn = FsAction::ShortWrite {
        keep: 5,
        kind: FaultKind::Eio,
    };
    let full = FsAction::Fail(FaultKind::Enospc);
    let faults = [
        (FsOp::Write, 2, torn),
        (FsOp::Write, 5, full),
        (FsOp::Sync, 1, full),
        (FsOp::Sync, 3, full),
    ];
    for (file, run) in &journals {
        let base_dir = torture_dir("journal-io-base");
        let baseline = run(&base_dir, false).unwrap();
        std::fs::remove_dir_all(&base_dir).unwrap();
        for (op, nth, action) in faults {
            let label = format!("{file}: {op:?} {nth} {action:?}");
            let dir = torture_dir("journal-io");
            let scope = FailPlan {
                prefix: dir.clone(),
                rules: vec![FsRule {
                    op,
                    suffix: Some((*file).to_owned()),
                    nth,
                    action,
                }],
                schedules: Vec::new(),
            }
            .arm();
            let failed = run(&dir, false);
            assert_eq!(scope.fired(), 1, "{label}: the fault never fired");
            assert!(
                matches!(failed, Err(StateError::Io(..))),
                "{label}: expected an I/O error, got {:?}",
                failed.map(drop)
            );
            let path = dir.join(file);
            let left = std::fs::metadata(&path).unwrap().len();
            scope.lose_unsynced();
            drop(scope);
            let synced = std::fs::metadata(&path).unwrap().len();
            assert_eq!(left, synced, "{label}: the journal kept unsynced bytes");
            let entries = Wal::recover(&path).unwrap().entries;
            let intact: u64 = entries.iter().map(|e| frame_len(e.len())).sum();
            assert_eq!(intact, synced, "{label}: torn bytes kept");
            let resumed = run(&dir, true).unwrap_or_else(|e| panic!("{label}: resume: {e}"));
            assert_eq!(resumed.0, baseline.0, "{label}: CSV diverged");
            assert_eq!(resumed.1, baseline.1, "{label}: snapshot diverged");
            std::fs::remove_dir_all(&dir).unwrap();
        }
    }
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
/// unit's claim and requeue leave no trace in the final result, and
/// nothing in the campaign journal is corrupted.
#[test]
fn scripted_campaign_panic_leaves_directory_resumable() {
    let clean =
        ParallelCampaign::new(Campaign::new(CAMPAIGN_TPB), 2).run(&campaign_base(), campaign_world);

    let dir = torture_dir("camp-panic");
    let outcome = ParallelCampaign::new(Campaign::new(CAMPAIGN_TPB), 2)
        .with_exec_faults(xmap_failpoint::ExecPlan::panic_on(0, 1))
        .run_checkpointed(
            &campaign_base(),
            &campaign_world_config(),
            &dir,
            false,
            None,
            campaign_world,
        )
        .unwrap();
    assert!(outcome.poisoned.is_empty());
    assert_eq!(outcome.result, clean.result);
    assert_eq!(
        outcome.snapshot.counters.get(names::EXEC_WORKER_PANICS),
        Some(&1)
    );

    // Every block the run journalled must be loadable: a resume replays
    // the whole campaign from disk without scanning.
    let replay = campaign_run(&campaign(1), &dir, true).unwrap();
    assert_eq!(replay.result, clean.result);
    std::fs::remove_dir_all(&dir).unwrap();
}

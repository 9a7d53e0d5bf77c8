//! End-to-end crash-resume acceptance for the `xmap-serve` daemon: two
//! concurrent tenant jobs, a host-fault kill sweep across the run's
//! filesystem-operation stream, and byte-identical artifacts after every
//! resume.
//!
//! The contract under test is the daemon's core invariant: once a submit
//! is acknowledged (its ledger append flushed), the job survives any
//! later crash — a restarted daemon replays the ledger, re-admits every
//! unfinished unit, and publishes final artifacts identical to an
//! uninterrupted run's, regardless of where the crash landed or how many
//! workers the restarted daemon uses.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

use xmap_failpoint::{FailPlan, FaultKind, FsAction, FsOp, FsRule, FsSchedule};
use xmap_serve::daemon::{job_dir, ServeError};
use xmap_serve::sched::AdmissionError;
use xmap_serve::{AdmissionPolicy, Daemon, JobSpec, Ledger, LedgerEvent, ServeConfig, UnitOutput};
use xmap_state::StateError;

fn tdir(tag: &str) -> PathBuf {
    static N: AtomicU64 = AtomicU64::new(0);
    let n = N.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!("xmap-serve-e2e-{}-{tag}-{n}", std::process::id()))
}

fn cfg(workers: usize) -> ServeConfig {
    ServeConfig {
        workers,
        ..ServeConfig::default()
    }
}

/// Tenant alice: a small periphery campaign over all fifteen blocks.
fn alice_spec() -> JobSpec {
    JobSpec::PeripheryCampaign {
        targets_per_block: 256,
        seed: 7,
        world_seed: 11,
        mop_up_ticks: None,
        block_targets: Vec::new(),
    }
}

/// Tenant bob: a loopscan depth survey, concurrently with alice's job.
fn bob_spec() -> JobSpec {
    JobSpec::LoopscanSurvey {
        probes_per_block: 64,
        seed: 3,
        world_seed: 5,
    }
}

/// Submits both tenant jobs and drains the daemon to completion,
/// returning the two job ids.
fn submit_both(daemon: &Daemon) -> (u64, u64) {
    let a = daemon.submit("alice", alice_spec()).expect("submit alice");
    let b = daemon.submit("bob", bob_spec()).expect("submit bob");
    (a, b)
}

/// A job's published `(result.csv, metrics.json)` bytes.
type Artifacts = (Vec<u8>, Vec<u8>);

/// The published artifacts of one job, read back as raw bytes.
fn artifacts(root: &Path, job: u64) -> Artifacts {
    let dir = job_dir(root, job);
    let csv = std::fs::read(dir.join("result.csv"))
        .unwrap_or_else(|e| panic!("job {job}: result.csv unreadable: {e}"));
    let metrics = std::fs::read(dir.join("metrics.json"))
        .unwrap_or_else(|e| panic!("job {job}: metrics.json unreadable: {e}"));
    (csv, metrics)
}

/// Fault-free baseline: both jobs complete; artifacts are the reference
/// bytes for the whole sweep.
fn baseline() -> (Artifacts, Artifacts, u64) {
    let root = tdir("base");
    let daemon = Daemon::open(&root, cfg(2)).expect("open baseline");
    let (a, b) = submit_both(&daemon);
    daemon.drain();
    // Count the failpoint-routed fs operations of the execution phase so
    // the kill sweep knows its domain (submits run unfaulted there too).
    let scope = FailPlan::observe(&root).arm();
    daemon.run().expect("baseline run");
    let ops = scope.ops();
    drop(scope);
    let art_a = artifacts(&root, a);
    let art_b = artifacts(&root, b);
    let _ = std::fs::remove_dir_all(&root);
    (art_a, art_b, ops)
}

/// The acceptance sweep: kill the host mid-run at sampled points of the
/// fs-op stream, restart, and require both tenants' jobs to resume and
/// finish byte-identically to the uninterrupted baseline. The restarted
/// daemon alternates worker counts to prove resume is worker-agnostic.
#[test]
fn kill_sweep_resumes_both_tenant_jobs_byte_identically() {
    let (base_a, base_b, total_ops) = baseline();
    assert!(
        total_ops >= 12,
        "expected a rich op stream to torture, got {total_ops}"
    );
    eprintln!("# serve kill sweep: {total_ops} fs ops in the fault-free run");

    // Five kill points spanning the stream (the acceptance floor is
    // three), each with a torn-write keep offset of 0 or 3.
    let kills = [
        1,
        total_ops / 4,
        total_ops / 2,
        3 * total_ops / 4,
        total_ops - 2,
    ];
    for (i, &kill) in kills.iter().enumerate() {
        let keep = if i % 2 == 0 { 0 } else { 3 };
        let root = tdir("kill");

        // Submit both jobs unfaulted — the contract starts at the
        // acknowledged submit — then arm the kill and run.
        let daemon = Daemon::open(&root, cfg(2)).expect("open");
        let (a, b) = submit_both(&daemon);
        daemon.drain();
        let scope = FailPlan::kill_at(&root, kill, keep).arm();
        let outcome = daemon.run();
        assert!(scope.killed(), "kill point {kill} never fired");
        drop(scope);
        let err = outcome.expect_err("a latched disk must stop the run");
        eprintln!("# kill at op {kill} (keep {keep}): daemon stopped with `{err}`");
        drop(daemon);

        // Faults disarmed: a restarted daemon must resume everything
        // in flight. Worker count alternates between 1 and 3 to show
        // the resume (like dispatch) is deterministic in the job set,
        // not the execution interleaving.
        let workers = if i % 2 == 0 { 1 } else { 3 };
        let daemon = Daemon::open(&root, cfg(workers)).expect("reopen after kill");
        let (resumed_jobs, _pending) = daemon.resumed();
        eprintln!("# kill at op {kill}: restart resumed {resumed_jobs} jobs");
        daemon.drain();
        daemon.run().expect("resumed run");
        assert_eq!(
            artifacts(&root, a),
            base_a,
            "alice's artifacts diverged after kill at op {kill} keep {keep}"
        );
        assert_eq!(
            artifacts(&root, b),
            base_b,
            "bob's artifacts diverged after kill at op {kill} keep {keep}"
        );
        let _ = std::fs::remove_dir_all(&root);
    }
}

/// A restart under another `ServeConfig` resumes every live job: more
/// workers, other tenant weights, and admission caps below the number of
/// live jobs change the schedule and what is admitted next, never a live
/// job's artifacts, which are a pure function of the `JobSpec` the ledger
/// stores. The caps refuse new submissions only, with a typed error.
#[test]
fn restart_under_another_serve_config_resumes_every_live_job() {
    let (base_a, base_b, total_ops) = baseline();
    let root = tdir("reconfig");
    let daemon = Daemon::open(&root, cfg(2)).expect("open");
    let (a, b) = submit_both(&daemon);
    daemon.drain();
    let scope = FailPlan::kill_at(&root, total_ops / 4, 0).arm();
    daemon.run().expect_err("the kill stops the run");
    assert!(scope.killed());
    drop(scope);
    drop(daemon);

    let other = ServeConfig {
        workers: 3,
        admission: AdmissionPolicy {
            max_active_per_tenant: 1,
            max_active_total: 1,
        },
        tenant_weights: [("alice".to_owned(), 5), ("bob".to_owned(), 2)].into(),
    };
    let daemon = Daemon::open(&root, other).expect("reopen under another config");
    assert_eq!(daemon.resumed().0, 2, "both jobs were live at the kill");
    let refusals = [
        (
            daemon.submit("alice", alice_spec()),
            AdmissionError::TenantBusy { limit: 1 },
        ),
        (
            daemon.submit("carol", bob_spec()),
            AdmissionError::DaemonBusy { limit: 1 },
        ),
    ];
    for (submitted, want) in refusals {
        match submitted {
            Err(ServeError::Admission(got)) => assert_eq!(got, want),
            other => panic!("expected {want:?}, got {other:?}"),
        }
    }
    daemon.drain();
    daemon.run().expect("resumed run");
    assert_eq!(artifacts(&root, a), base_a, "alice diverged");
    assert_eq!(artifacts(&root, b), base_b, "bob diverged");
    let _ = std::fs::remove_dir_all(&root);
}

/// A double crash: kill the resumed run too, then resume again. Progress
/// must be monotone (at least as many units done after each restart) and
/// the final artifacts still byte-identical.
#[test]
fn double_kill_still_converges() {
    let (base_a, base_b, total_ops) = baseline();
    let root = tdir("double");
    let daemon = Daemon::open(&root, cfg(2)).expect("open");
    let (a, b) = submit_both(&daemon);
    daemon.drain();
    let scope = FailPlan::kill_at(&root, total_ops / 3, 0).arm();
    daemon.run().expect_err("first kill");
    assert!(scope.killed());
    drop(scope);
    drop(daemon);

    let daemon = Daemon::open(&root, cfg(2)).expect("first reopen");
    daemon.drain();
    let scope = FailPlan::kill_at(&root, total_ops / 4, 2).arm();
    let outcome = daemon.run();
    // The second kill point may land beyond the (shorter) resumed run's
    // op stream; only a fired kill implies an error.
    if scope.killed() {
        outcome.expect_err("second kill fired, run must stop");
    } else {
        outcome.expect("second run outlived the kill point");
    }
    drop(scope);
    drop(daemon);

    let daemon = Daemon::open(&root, cfg(1)).expect("second reopen");
    daemon.drain();
    daemon.run().expect("final resume");
    assert_eq!(
        artifacts(&root, a),
        base_a,
        "alice diverged after double kill"
    );
    assert_eq!(
        artifacts(&root, b),
        base_b,
        "bob diverged after double kill"
    );
    let _ = std::fs::remove_dir_all(&root);
}

/// The long-running degraded-host scenario: instead of a single scripted
/// kill, the daemon lives through a *sick disk* — periodic `EIO` bursts
/// over the whole execution window followed by a disk-full (`ENOSPC`)
/// stretch, scheduled over the filesystem-operation stream. Every burst
/// stops the run with a fatal storage error; the operator loop reopens
/// and resumes, bounded in attempts, until the storm window passes. The
/// daemon must ride it out: progress monotone across restarts, and the
/// final artifacts byte-identical to the fault-free baseline.
#[test]
fn scheduled_fault_storm_converges_to_identical_artifacts() {
    let (base_a, base_b, total_ops) = baseline();
    let root = tdir("storm");
    let daemon = Daemon::open(&root, cfg(2)).expect("open");
    let (a, b) = submit_both(&daemon);
    daemon.drain();

    // EIO bursts of 2 every ~sixth of the baseline stream across twice
    // its length (restarts re-spend ops, so the window is generous),
    // then a solid ENOSPC outage for another quarter of it.
    let period = (total_ops / 6).max(4);
    let storm_end = 2 * total_ops;
    let scope = FailPlan::observe(&root)
        .with_schedule(FsSchedule::eio_bursts(
            FsOp::Any,
            3,
            Some(storm_end),
            period,
            2,
        ))
        .with_schedule(FsSchedule::disk_full_window(
            FsOp::Any,
            storm_end,
            storm_end + total_ops / 4,
        ))
        .arm();

    let mut daemon = Some(daemon);
    let mut attempts = 0u32;
    loop {
        attempts += 1;
        assert!(
            attempts <= 60,
            "storm never cleared after {attempts} attempts ({} ops, {} faults)",
            scope.ops(),
            scope.fired()
        );
        let d = match daemon.take() {
            Some(d) => d,
            // Reopen can itself hit a scheduled fault (ledger replay
            // writes under the armed prefix) — that is part of the
            // storm, so just try again. Worker counts rotate to show
            // resume is agnostic to execution interleaving.
            None => match Daemon::open(&root, cfg(1 + (attempts as usize % 3))) {
                Ok(d) => d,
                Err(e) => {
                    eprintln!("# storm: reopen attempt {attempts} failed: {e}");
                    continue;
                }
            },
        };
        d.drain();
        match d.run() {
            Ok(_) => break,
            Err(e) => eprintln!("# storm: run attempt {attempts} stopped: {e}"),
        }
    }
    let (ops, fired) = (scope.ops(), scope.fired());
    drop(scope);
    eprintln!("# storm: converged after {attempts} attempts, {ops} ops, {fired} injected faults");
    assert!(
        fired >= 4,
        "the storm must actually bite (fired {fired} over {ops} ops)"
    );
    assert_eq!(
        artifacts(&root, a),
        base_a,
        "alice's artifacts diverged after the fault storm"
    );
    assert_eq!(
        artifacts(&root, b),
        base_b,
        "bob's artifacts diverged after the fault storm"
    );
    let _ = std::fs::remove_dir_all(&root);
}

/// An appscan job rides the same machinery: per-target units checkpoint
/// and resume like campaign blocks.
#[test]
fn appscan_job_resumes_after_kill() {
    let targets: Vec<xmap_addr::Ip6> = (1u16..=6)
        .map(|i| format!("2600:1700::{i:x}").parse().expect("addr"))
        .collect();
    let spec = JobSpec::AppscanGrab {
        targets,
        seed: 9,
        world_seed: 11,
    };

    let base_root = tdir("app-base");
    let daemon = Daemon::open(&base_root, cfg(1)).expect("open");
    let job = daemon.submit("carol", spec.clone()).expect("submit");
    daemon.drain();
    let scope = FailPlan::observe(&base_root).arm();
    daemon.run().expect("baseline");
    let ops = scope.ops();
    drop(scope);
    let base = artifacts(&base_root, job);
    let _ = std::fs::remove_dir_all(&base_root);

    let root = tdir("app-kill");
    let daemon = Daemon::open(&root, cfg(1)).expect("open");
    let job = daemon.submit("carol", spec).expect("submit");
    daemon.drain();
    let scope = FailPlan::kill_at(&root, ops / 2, 1).arm();
    daemon.run().expect_err("kill mid-run");
    assert!(scope.killed());
    drop(scope);
    drop(daemon);

    let daemon = Daemon::open(&root, cfg(2)).expect("reopen");
    daemon.drain();
    daemon.run().expect("resume");
    assert_eq!(artifacts(&root, job), base, "appscan artifacts diverged");
    let _ = std::fs::remove_dir_all(&root);
}

/// Counts the failpoint-routed fs operations of a whole fault-free
/// lifetime — open, both submits, the drained run — under a scope armed
/// before the root exists, so power-loss runs track every file from its
/// creation. Returns `(ops before the run, ops in all)`.
fn lifetime_ops() -> (u64, u64) {
    let root = tdir("ops");
    let scope = FailPlan::observe(&root).arm();
    let daemon = Daemon::open(&root, cfg(2)).expect("open");
    submit_both(&daemon);
    daemon.drain();
    let before_run = scope.ops();
    daemon.run().expect("fault-free run");
    let total = scope.ops();
    drop(scope);
    let _ = std::fs::remove_dir_all(&root);
    (before_run, total)
}

/// Kill the daemon at sampled operations of its run, the last one
/// included, once as a process kill and once as a power cut that also
/// drops every unsynced byte and directory entry. The surviving root,
/// reopened under 1 or 3 workers, must finish both jobs to the
/// baseline's artifacts: a journalled unit, a published artifact and a
/// `Completed` record are each durable before anything depends on them.
#[test]
fn power_loss_sweep_resumes_both_tenant_jobs_byte_identically() {
    let (base_a, base_b, _) = baseline();
    let (before_run, total) = lifetime_ops();
    let stride = ((total - before_run) / 32).max(1) as usize;
    let kills: Vec<u64> = (before_run..total)
        .step_by(stride)
        .chain([total - 1])
        .collect();
    assert!(kills.len() >= 30, "only {} kill points", kills.len());
    eprintln!(
        "# serve power-loss sweep: ops {before_run}..{total}, {} kill points",
        kills.len()
    );
    for (i, &kill) in kills.iter().enumerate() {
        for power_loss in [false, true] {
            let label = format!("kill at op {kill}, power loss {power_loss}");
            let root = tdir("power");
            let scope = FailPlan::kill_at(&root, kill, 3).arm();
            let daemon = Daemon::open(&root, cfg(2)).expect("open");
            let (a, b) = submit_both(&daemon);
            daemon.drain();
            let outcome = daemon.run();
            assert!(scope.killed(), "{label}: never fired");
            outcome.expect_err("a latched disk must stop the run");
            if power_loss {
                scope.lose_unsynced();
            }
            drop(scope);
            drop(daemon);
            let workers = if i % 2 == 0 { 1 } else { 3 };
            let daemon = Daemon::open(&root, cfg(workers))
                .unwrap_or_else(|e| panic!("{label}: reopen refused: {e}"));
            daemon.drain();
            daemon
                .run()
                .unwrap_or_else(|e| panic!("{label}: resume: {e}"));
            assert_eq!(artifacts(&root, a), base_a, "{label}: alice diverged");
            assert_eq!(artifacts(&root, b), base_b, "{label}: bob diverged");
            let _ = std::fs::remove_dir_all(&root);
        }
    }
}

/// A unit counts as done only once its `UnitDone` is durable. The
/// ledger's `nth` fsync after both submits fails; the run must stop with
/// the fault, and the units `status()` reported done must be exactly the
/// `UnitDone` records a reopen replays: all 30 units less those it finds
/// pending. The resumed run then finishes both jobs to the baseline's
/// artifacts. The run's ledger fsyncs are 30 `UnitDone`s and 2
/// `Completed`s, so the last `nth` fails the second job's `Completed`.
#[test]
fn a_unit_counts_as_done_only_once_its_record_is_durable() {
    let (base_a, base_b, _) = baseline();
    let units = alice_spec().units() + bob_spec().units();
    for nth in [0, 1, 9, 16, 24, 31] {
        let root = tdir("durable");
        let daemon = Daemon::open(&root, cfg(2)).expect("open");
        let (a, b) = submit_both(&daemon);
        daemon.drain();
        let scope = FailPlan {
            prefix: root.clone(),
            rules: vec![FsRule {
                op: FsOp::Sync,
                suffix: Some("ledger.wal".to_owned()),
                nth,
                action: FsAction::Fail(FaultKind::Eio),
            }],
            schedules: Vec::new(),
        }
        .arm();
        let outcome = daemon.run();
        assert_eq!(scope.fired(), 1, "ledger fsync {nth} never failed");
        drop(scope);
        outcome.expect_err("a failed ledger fsync must stop the run");
        let done: usize = daemon.status().jobs.iter().map(|j| j.units_done).sum();
        drop(daemon);
        let daemon = Daemon::open(&root, cfg(2)).expect("reopen");
        assert_eq!(
            done,
            units - daemon.resumed().1,
            "ledger fsync {nth}: status counted units the ledger does not hold"
        );
        daemon.drain();
        daemon.run().expect("resumed run");
        assert_eq!(artifacts(&root, a), base_a, "fsync {nth}: alice diverged");
        assert_eq!(artifacts(&root, b), base_b, "fsync {nth}: bob diverged");
        let _ = std::fs::remove_dir_all(&root);
    }
}

/// The first submit on a fresh root, acknowledged, then a power cut: the
/// ledger's name is as durable as its bytes, so the job is still there.
#[test]
fn acknowledged_submit_on_a_fresh_root_survives_power_loss() {
    let root = tdir("fresh-power");
    let scope = FailPlan::observe(&root).arm();
    let daemon = Daemon::open(&root, cfg(1)).expect("open");
    let job = daemon.submit("alice", alice_spec()).expect("submit");
    scope.lose_unsynced();
    drop(scope);
    drop(daemon);
    let daemon = Daemon::open(&root, cfg(1)).expect("reopen");
    assert_eq!(daemon.resumed(), (1, alice_spec().units()));
    assert_eq!(daemon.status().jobs[0].job, job);
    let _ = std::fs::remove_dir_all(&root);
}

/// A ledger whose records are CRC-valid but whose `UnitDone` entries
/// contradict its jobs is refused as corrupt, never replayed: a unit of
/// an unsubmitted job, a unit out of range, an output of another kind,
/// and a unit journalled twice. A unit that finished after its job was
/// cancelled is the one a live daemon can write, and replays.
#[test]
fn forged_unit_records_are_refused_as_corrupt() {
    let (output, metrics) = bob_spec().run_unit(0);
    let done = |job: u64, unit: usize, output: &UnitOutput| LedgerEvent::UnitDone {
        job,
        unit,
        output: output.clone(),
        metrics: metrics.clone(),
    };
    let grab = UnitOutput::Appscan {
        addr: xmap_addr::Ip6::from(1u128),
        outcomes: [0; 8],
    };
    let submitted = LedgerEvent::Submitted {
        job: 1,
        tenant: "bob".to_owned(),
        spec: bob_spec(),
    };
    let cases = [
        ("unsubmitted job", vec![done(1, 0, &output)]),
        (
            "unit out of range",
            vec![submitted.clone(), done(1, bob_spec().units(), &output)],
        ),
        (
            "output of another kind",
            vec![submitted.clone(), done(1, 0, &grab)],
        ),
        (
            "unit journalled twice",
            vec![submitted.clone(), done(1, 0, &output), done(1, 0, &output)],
        ),
        (
            "cancelled job",
            vec![
                submitted.clone(),
                LedgerEvent::Cancelled { job: 1 },
                done(1, 0, &output),
            ],
        ),
    ];
    for (label, events) in cases {
        let root = tdir("forged");
        std::fs::create_dir_all(&root).expect("create root");
        let (mut ledger, _) = Ledger::open(&root.join("ledger.wal")).expect("ledger");
        for ev in &events {
            ledger.append(ev).expect("append");
        }
        drop(ledger);
        match (label, Daemon::open(&root, cfg(1))) {
            ("cancelled job", Ok(daemon)) => assert_eq!(daemon.resumed(), (0, 0)),
            (_, Err(StateError::Corrupt(msg))) => assert!(msg.contains("unit"), "{label}: {msg}"),
            (_, other) => panic!("{label}: expected a corrupt ledger, got {other:?}"),
        }
        let _ = std::fs::remove_dir_all(&root);
    }
}

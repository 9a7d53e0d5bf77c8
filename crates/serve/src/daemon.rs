//! The daemon engine: worker pool, per-job persistence, resume-on-open.
//!
//! # On-disk layout
//!
//! ```text
//! root/
//!   ledger.wal                 job-lifecycle journal (submit/complete/cancel)
//!   jobs/job-000001/
//!     unit-000.ckpt            one `xmap-checkpoint/v1` file per finished
//!     unit-001.ckpt            unit: the unit's output + telemetry delta,
//!     ...                      fingerprint-stamped against the job spec
//!     result.csv               final artifact, published on completion
//!     metrics.json             merged telemetry, published on completion
//! ```
//!
//! # Resume-on-restart invariants
//!
//! * The ledger names the live jobs (`Submitted` without a terminal
//!   record). Nothing else is trusted: stray job directories without a
//!   ledger record are ignored.
//! * A unit is *done* iff its checkpoint file reads back intact with the
//!   job's spec fingerprint. Torn, corrupt or mismatched checkpoints are
//!   re-run — safe because units are pure functions of `(spec, unit)`
//!   and checkpoint publication is atomic (tmp + rename).
//! * Final artifacts are rendered from the unit checkpoints in unit
//!   order, never from in-memory state, so an interrupted daemon's
//!   `result.csv`/`metrics.json` are byte-identical to an
//!   uninterrupted run's.
//! * A job whose units are all done but which lacks a `Completed`
//!   record (killed mid-finalize) is finalized again on open;
//!   finalization is idempotent.
//!
//! All file writes route through `xmap-failpoint`, so the torture suite
//! can kill the daemon at every filesystem operation and assert the
//! invariants above.

use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};

use xmap::merge_worker_snapshots;
use xmap::telemetry::names;
use xmap_failpoint::fs as fp;
use xmap_state::checkpoint::{decode_snapshot, encode_snapshot};
use xmap_state::checkpoint::{read_sectioned, write_sectioned};
use xmap_state::{Fingerprint, StateError};
use xmap_telemetry::{Registry, Snapshot};

use crate::job::{JobSpec, UnitOutput};
use crate::ledger::{Ledger, LedgerEvent};
use crate::sched::{AdmissionError, AdmissionPolicy, DrrScheduler};

/// Daemon-level metric names.
pub mod metric {
    /// Jobs admitted.
    pub const SUBMITTED: &str = "serve.submitted";
    /// Submissions refused by admission control.
    pub const ADMISSION_REJECTED: &str = "serve.admission_rejected";
    /// Jobs finalized.
    pub const COMPLETED: &str = "serve.completed";
    /// Jobs cancelled.
    pub const CANCELLED: &str = "serve.cancelled";
    /// Units executed to completion (committed).
    pub const UNITS_EXECUTED: &str = "serve.units_executed";
    /// Worker panics caught by the supervisor.
    pub const WORKER_PANICS: &str = "serve.worker_panics";
    /// Units requeued after a panic.
    pub const REQUEUED: &str = "serve.requeued";
}

/// Daemon configuration.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Worker threads draining the scheduler.
    pub workers: usize,
    /// DRR probe quantum per round per unit of tenant weight.
    pub quantum: u64,
    /// Admission limits.
    pub admission: AdmissionPolicy,
    /// Per-tenant DRR weights; unlisted tenants get weight 1.
    pub tenant_weights: BTreeMap<String, u64>,
    /// Attempts per unit before the owning job is failed (counting the
    /// first), mirroring the executors' [`xmap::Supervision`] default.
    pub max_attempts: u32,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            workers: 2,
            quantum: 4096,
            admission: AdmissionPolicy::default(),
            tenant_weights: BTreeMap::new(),
            max_attempts: 2,
        }
    }
}

/// Errors surfaced to tenants through the control plane.
#[derive(Debug)]
pub enum ServeError {
    /// Admission control refused the submission.
    Admission(AdmissionError),
    /// The daemon is draining and takes no new jobs.
    Draining,
    /// No such job id.
    UnknownJob(u64),
    /// A storage operation failed.
    State(StateError),
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::Admission(e) => write!(f, "admission refused: {e}"),
            ServeError::Draining => write!(f, "daemon is draining"),
            ServeError::UnknownJob(id) => write!(f, "no such job {id}"),
            ServeError::State(e) => write!(f, "storage error: {e}"),
        }
    }
}

impl From<StateError> for ServeError {
    fn from(e: StateError) -> Self {
        ServeError::State(e)
    }
}

/// Lifecycle state of one job.
#[derive(Debug, Clone, PartialEq, Eq)]
enum JobState {
    Active,
    Completed,
    Cancelled,
    Failed(String),
}

impl JobState {
    fn label(&self) -> &'static str {
        match self {
            JobState::Active => "active",
            JobState::Completed => "completed",
            JobState::Cancelled => "cancelled",
            JobState::Failed(_) => "failed",
        }
    }
}

#[derive(Debug)]
struct JobEntry {
    tenant: String,
    spec: JobSpec,
    fp: u64,
    state: JobState,
    done: Vec<bool>,
    done_count: usize,
    attempts: Vec<u32>,
    /// Per-job metric store; unit deltas fold in via `Registry::absorb`.
    registry: Arc<Registry>,
}

#[derive(Debug)]
struct Engine {
    jobs: BTreeMap<u64, JobEntry>,
    sched: DrrScheduler,
    next_id: u64,
    draining: bool,
    stopping: bool,
    in_flight: usize,
    fatal: Option<StateError>,
}

/// One job's externally visible status.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JobStatus {
    /// Job id.
    pub job: u64,
    /// Owning tenant.
    pub tenant: String,
    /// Job kind label.
    pub kind: &'static str,
    /// Lifecycle state label: `active`, `completed`, `cancelled`,
    /// `failed`.
    pub state: &'static str,
    /// Units finished.
    pub units_done: usize,
    /// Units total.
    pub units_total: usize,
    /// Probes sent so far (`scan.sent` from the job's registry).
    pub sent: u64,
    /// The job's probe budget: the sum of its units' scheduling costs.
    /// `sent / budget` is the tenant-visible progress-by-volume gauge;
    /// adaptive jobs typically finish well under it.
    pub budget: u64,
}

/// A full status report.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StatusReport {
    /// Whether the daemon is draining.
    pub draining: bool,
    /// Units pending across all jobs.
    pub queue_depth: usize,
    /// Per-job statuses in job-id order.
    pub jobs: Vec<JobStatus>,
    /// Probes sent per tenant across that tenant's jobs.
    pub tenant_sent: BTreeMap<String, u64>,
    /// Pending units per tenant.
    pub tenant_depth: BTreeMap<String, usize>,
}

/// What [`Daemon::run`] drained.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DrainOutcome {
    /// Jobs that reached `Completed` over the daemon's lifetime
    /// (including jobs finalized during open-time resume).
    pub completed: u64,
}

/// The scan-campaign daemon. See the [module docs](self) for the
/// on-disk layout and resume invariants.
#[derive(Debug)]
pub struct Daemon {
    root: PathBuf,
    cfg: ServeConfig,
    state: Mutex<Engine>,
    wake: Condvar,
    ledger: Mutex<Ledger>,
    metrics: Arc<Registry>,
    resumed_jobs: usize,
    resumed_pending: usize,
}

impl Daemon {
    /// Opens (or creates) a daemon root, replaying the job ledger and
    /// resuming every live job: finished units load from their
    /// checkpoints, unfinished units re-enter the scheduler, and jobs
    /// killed mid-finalize are finalized here.
    pub fn open(root: &Path, cfg: ServeConfig) -> Result<Daemon, StateError> {
        std::fs::create_dir_all(root.join("jobs"))
            .map_err(|e| StateError::io(format!("create daemon root {}", root.display()), e))?;
        let (ledger, events) = Ledger::open(&root.join("ledger.wal"))?;
        let mut live: BTreeMap<u64, (String, JobSpec)> = BTreeMap::new();
        let mut next_id = 1;
        for ev in events {
            match ev {
                LedgerEvent::Submitted { job, tenant, spec } => {
                    next_id = next_id.max(job + 1);
                    live.insert(job, (tenant, spec));
                }
                // First terminal event wins; later ones are no-ops.
                LedgerEvent::Completed { job } | LedgerEvent::Cancelled { job } => {
                    live.remove(&job);
                }
            }
        }
        let mut engine = Engine {
            jobs: BTreeMap::new(),
            sched: DrrScheduler::new(cfg.quantum),
            next_id,
            draining: false,
            stopping: false,
            in_flight: 0,
            fatal: None,
        };
        let mut resumed_pending = 0;
        let resumed_jobs = live.len();
        let mut finalize: Vec<u64> = Vec::new();
        for (job, (tenant, spec)) in live {
            let fp = spec.fingerprint();
            let units = spec.units();
            let registry = Arc::new(Registry::new());
            let mut done = vec![false; units];
            let mut done_count = 0;
            let mut pending = Vec::new();
            for (unit, done_slot) in done.iter_mut().enumerate() {
                match load_unit(root, job, unit, fp) {
                    Some((_, delta)) => {
                        *done_slot = true;
                        done_count += 1;
                        registry.absorb(&delta);
                    }
                    None => pending.push((unit, spec.unit_cost(unit))),
                }
            }
            resumed_pending += pending.len();
            let weight = cfg.tenant_weights.get(&tenant).copied().unwrap_or(1);
            engine.sched.admit(job, &tenant, weight, pending);
            if done_count == units {
                finalize.push(job);
            }
            engine.jobs.insert(
                job,
                JobEntry {
                    tenant,
                    spec,
                    fp,
                    state: JobState::Active,
                    done,
                    done_count,
                    attempts: vec![0; units],
                    registry,
                },
            );
        }
        let daemon = Daemon {
            root: root.to_path_buf(),
            cfg,
            state: Mutex::new(engine),
            wake: Condvar::new(),
            ledger: Mutex::new(ledger),
            metrics: Arc::new(Registry::new()),
            resumed_jobs,
            resumed_pending,
        };
        // Jobs killed between last-unit commit and Completed: finish the
        // interrupted finalization now (idempotent).
        for job in finalize {
            daemon.finalize(job)?;
        }
        Ok(daemon)
    }

    /// `(jobs, pending units)` resumed from the ledger at open.
    pub fn resumed(&self) -> (usize, usize) {
        (self.resumed_jobs, self.resumed_pending)
    }

    /// The daemon root directory.
    pub fn root(&self) -> &Path {
        &self.root
    }

    /// The daemon's own metric registry (`serve.*` counters).
    pub fn metrics(&self) -> &Registry {
        &self.metrics
    }

    fn engine(&self) -> MutexGuard<'_, Engine> {
        self.state.lock().expect("daemon engine poisoned")
    }

    /// Submits a job for `tenant`, journaling it durably before
    /// acknowledging. Returns the assigned job id.
    pub fn submit(&self, tenant: &str, spec: JobSpec) -> Result<u64, ServeError> {
        let mut eng = self.engine();
        if eng.draining || eng.stopping {
            return Err(ServeError::Draining);
        }
        let active_total = eng
            .jobs
            .values()
            .filter(|j| j.state == JobState::Active)
            .count();
        let active_tenant = eng
            .jobs
            .values()
            .filter(|j| j.state == JobState::Active && j.tenant == tenant)
            .count();
        if active_tenant >= self.cfg.admission.max_active_per_tenant {
            self.metrics.counter(metric::ADMISSION_REJECTED).inc();
            return Err(ServeError::Admission(AdmissionError::TenantBusy {
                limit: self.cfg.admission.max_active_per_tenant,
            }));
        }
        if active_total >= self.cfg.admission.max_active_total {
            self.metrics.counter(metric::ADMISSION_REJECTED).inc();
            return Err(ServeError::Admission(AdmissionError::DaemonBusy {
                limit: self.cfg.admission.max_active_total,
            }));
        }
        let job = eng.next_id;
        eng.next_id += 1;
        // Durable before acknowledged: the ledger append flushes.
        self.ledger
            .lock()
            .expect("ledger poisoned")
            .append(&LedgerEvent::Submitted {
                job,
                tenant: tenant.to_owned(),
                spec: spec.clone(),
            })?;
        let units = spec.units();
        let fp = spec.fingerprint();
        let weight = self.cfg.tenant_weights.get(tenant).copied().unwrap_or(1);
        eng.sched.admit(
            job,
            tenant,
            weight,
            (0..units).map(|u| (u, spec.unit_cost(u))),
        );
        eng.jobs.insert(
            job,
            JobEntry {
                tenant: tenant.to_owned(),
                spec,
                fp,
                state: JobState::Active,
                done: vec![false; units],
                done_count: 0,
                attempts: vec![0; units],
                registry: Arc::new(Registry::new()),
            },
        );
        self.metrics.counter(metric::SUBMITTED).inc();
        drop(eng);
        self.wake.notify_all();
        Ok(job)
    }

    /// Cancels a job. Idempotent: cancelling a finished or already
    /// cancelled job is a no-op.
    pub fn cancel(&self, job: u64) -> Result<(), ServeError> {
        let mut eng = self.engine();
        let entry = eng.jobs.get_mut(&job).ok_or(ServeError::UnknownJob(job))?;
        if entry.state != JobState::Active {
            return Ok(());
        }
        entry.state = JobState::Cancelled;
        eng.sched.remove(job);
        self.ledger
            .lock()
            .expect("ledger poisoned")
            .append(&LedgerEvent::Cancelled { job })?;
        self.metrics.counter(metric::CANCELLED).inc();
        drop(eng);
        self.wake.notify_all();
        Ok(())
    }

    /// Starts draining: no new submissions; [`Daemon::run`] returns once
    /// every pending unit has finished.
    pub fn drain(&self) {
        self.engine().draining = true;
        self.wake.notify_all();
    }

    /// Whether [`Daemon::run`] has stopped (drained or failed).
    pub fn is_stopped(&self) -> bool {
        let eng = self.engine();
        eng.stopping || (eng.draining && eng.in_flight == 0 && eng.sched.total_pending() == 0)
    }

    /// A point-in-time status report.
    pub fn status(&self) -> StatusReport {
        let eng = self.engine();
        let mut jobs = Vec::with_capacity(eng.jobs.len());
        let mut tenant_sent: BTreeMap<String, u64> = BTreeMap::new();
        for (id, entry) in &eng.jobs {
            let sent = entry.registry.counter(names::SENT).get();
            *tenant_sent.entry(entry.tenant.clone()).or_insert(0) += sent;
            jobs.push(JobStatus {
                job: *id,
                tenant: entry.tenant.clone(),
                kind: entry.spec.kind_name(),
                state: entry.state.label(),
                units_done: entry.done_count,
                units_total: entry.spec.units(),
                sent,
                budget: (0..entry.spec.units())
                    .map(|u| entry.spec.unit_cost(u))
                    .sum(),
            });
        }
        StatusReport {
            draining: eng.draining,
            queue_depth: eng.sched.total_pending(),
            jobs,
            tenant_sent,
            tenant_depth: eng.sched.tenant_depths(),
        }
    }

    /// One job's merged telemetry snapshot (absorbed unit deltas).
    pub fn job_snapshot(&self, job: u64) -> Result<Snapshot, ServeError> {
        let eng = self.engine();
        let entry = eng.jobs.get(&job).ok_or(ServeError::UnknownJob(job))?;
        Ok(entry.registry.snapshot())
    }

    /// Runs the worker pool until the daemon is drained or a storage
    /// fault stops it. All scheduling state is re-derivable, so an `Err`
    /// return leaves the root resumable by a fresh [`Daemon::open`].
    pub fn run(&self) -> Result<DrainOutcome, StateError> {
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..self.cfg.workers.max(1))
                .map(|_| scope.spawn(|| self.worker_loop()))
                .collect();
            for h in handles {
                h.join().expect("worker loops catch their panics");
            }
        });
        match self.engine().fatal.take() {
            Some(e) => Err(e),
            None => Ok(DrainOutcome {
                completed: self.metrics.counter(metric::COMPLETED).get(),
            }),
        }
    }

    fn worker_loop(&self) {
        loop {
            let dispatch = {
                let mut eng = self.engine();
                loop {
                    if eng.stopping {
                        drop(eng);
                        self.wake.notify_all();
                        return;
                    }
                    if let Some((job, unit)) = eng.sched.next_unit() {
                        let entry = &eng.jobs[&job];
                        let spec = entry.spec.clone();
                        let fp = entry.fp;
                        eng.in_flight += 1;
                        break (job, unit, spec, fp);
                    }
                    if eng.draining && eng.in_flight == 0 {
                        drop(eng);
                        self.wake.notify_all();
                        return;
                    }
                    eng = self.wake.wait(eng).expect("daemon engine poisoned");
                }
            };
            let (job, unit, spec, fp) = dispatch;
            let attempt = catch_unwind(AssertUnwindSafe(|| spec.run_unit(unit)));
            match attempt {
                Ok((out, delta)) => {
                    let write = write_unit(&self.root, job, unit, fp, &out, &delta);
                    let finalize = {
                        let mut eng = self.engine();
                        eng.in_flight -= 1;
                        if let Err(e) = write {
                            self.fail(&mut eng, e);
                            continue;
                        }
                        let entry = eng.jobs.get_mut(&job).expect("jobs are never dropped");
                        if entry.state == JobState::Active && !entry.done[unit] {
                            entry.done[unit] = true;
                            entry.done_count += 1;
                            entry.registry.absorb(&delta);
                            self.metrics.counter(metric::UNITS_EXECUTED).inc();
                            entry.done_count == entry.spec.units()
                        } else {
                            false
                        }
                    };
                    if finalize {
                        if let Err(e) = self.finalize(job) {
                            let mut eng = self.engine();
                            self.fail(&mut eng, e);
                            continue;
                        }
                    }
                    self.wake.notify_all();
                }
                Err(_) => {
                    let mut eng = self.engine();
                    eng.in_flight -= 1;
                    self.metrics.counter(metric::WORKER_PANICS).inc();
                    let entry = eng.jobs.get_mut(&job).expect("jobs are never dropped");
                    if entry.state == JobState::Active {
                        entry.attempts[unit] += 1;
                        if entry.attempts[unit] < self.cfg.max_attempts.max(1) {
                            let cost = entry.spec.unit_cost(unit);
                            eng.sched.requeue(job, unit, cost);
                            self.metrics.counter(metric::REQUEUED).inc();
                        } else {
                            entry.state = JobState::Failed(format!(
                                "unit {unit} panicked {} times",
                                entry.attempts[unit]
                            ));
                            eng.sched.remove(job);
                        }
                    }
                    drop(eng);
                    self.wake.notify_all();
                }
            }
        }
    }

    /// Records a fatal storage fault and stops every worker. The fault
    /// is returned from [`Daemon::run`]; on-disk state stays resumable.
    fn fail(&self, eng: &mut Engine, e: StateError) {
        if eng.fatal.is_none() {
            eng.fatal = Some(e);
        }
        eng.stopping = true;
        self.wake.notify_all();
    }

    /// Publishes a finished job's final artifacts from its unit
    /// checkpoints and journals `Completed`. Idempotent; called by the
    /// worker that commits the last unit, or by [`Daemon::open`] for
    /// jobs killed mid-finalize.
    fn finalize(&self, job: u64) -> Result<(), StateError> {
        let (spec, fp) = {
            let eng = self.engine();
            let entry = &eng.jobs[&job];
            (entry.spec.clone(), entry.fp)
        };
        let units = spec.units();
        let mut outputs = Vec::with_capacity(units);
        let mut deltas = Vec::with_capacity(units);
        for unit in 0..units {
            let (out, delta) = load_unit(&self.root, job, unit, fp).ok_or_else(|| {
                StateError::Corrupt(format!(
                    "job {job}: unit {unit} checkpoint unreadable during finalize"
                ))
            })?;
            outputs.push(out);
            deltas.push(delta);
        }
        let dir = job_dir(&self.root, job);
        let csv = spec.render_csv(&outputs);
        publish(&dir.join("result.csv"), csv.as_bytes())?;
        let merged = merge_worker_snapshots(deltas);
        publish(&dir.join("metrics.json"), merged.to_json().as_bytes())?;
        let mut eng = self.engine();
        let entry = eng.jobs.get_mut(&job).expect("jobs are never dropped");
        if entry.state == JobState::Active {
            entry.state = JobState::Completed;
            self.ledger
                .lock()
                .expect("ledger poisoned")
                .append(&LedgerEvent::Completed { job })?;
            self.metrics.counter(metric::COMPLETED).inc();
        }
        drop(eng);
        self.wake.notify_all();
        Ok(())
    }
}

/// The directory holding one job's checkpoints and artifacts.
pub fn job_dir(root: &Path, job: u64) -> PathBuf {
    root.join("jobs").join(format!("job-{job:06}"))
}

fn unit_path(root: &Path, job: u64, unit: usize) -> PathBuf {
    job_dir(root, job).join(format!("unit-{unit:03}.ckpt"))
}

/// Atomically publishes `bytes` at `path` (tmp + rename, fsynced),
/// routed through the failpoint layer.
fn publish(path: &Path, bytes: &[u8]) -> Result<(), StateError> {
    let tmp = path.with_extension("tmp");
    fp::write(&tmp, bytes)
        .map_err(|e| StateError::io(format!("write artifact {}", tmp.display()), e))?;
    fp::sync_file(&tmp)
        .map_err(|e| StateError::io(format!("sync artifact {}", tmp.display()), e))?;
    fp::rename(&tmp, path)
        .map_err(|e| StateError::io(format!("publish artifact {}", path.display()), e))
}

fn write_unit(
    root: &Path,
    job: u64,
    unit: usize,
    fp_id: u64,
    out: &UnitOutput,
    delta: &Snapshot,
) -> Result<(), StateError> {
    let dir = job_dir(root, job);
    std::fs::create_dir_all(&dir)
        .map_err(|e| StateError::io(format!("create job dir {}", dir.display()), e))?;
    let mut e = xmap_state::codec::Encoder::new();
    out.encode(&mut e);
    let header = format!(
        "{{\"schema\":\"{}\",\"kind\":\"serve-unit\",\"job\":{job},\"unit\":{unit},\"fp\":{fp_id}}}",
        xmap_state::CHECKPOINT_SCHEMA
    );
    write_sectioned(
        &unit_path(root, job, unit),
        &header,
        &[("output", e.finish()), ("metrics", encode_snapshot(delta))],
    )
}

/// Loads one unit checkpoint, verifying kind, coordinates, spec
/// fingerprint and a self-check fingerprint of the decode. Any failure
/// — missing file, torn write, drifted spec — yields `None`: the unit
/// simply re-runs, which rewrites identical bytes.
fn load_unit(root: &Path, job: u64, unit: usize, fp_id: u64) -> Option<(UnitOutput, Snapshot)> {
    let path = unit_path(root, job, unit);
    if !path.exists() {
        return None;
    }
    let (header, mut sections) = read_sectioned(&path, "serve unit checkpoint").ok()?;
    if header.req_str("kind", "serve unit").ok()? != "serve-unit"
        || header.req_u64("job", "serve unit").ok()? != job
        || header.req_u64("unit", "serve unit").ok()? != unit as u64
        || header.req_u64("fp", "serve unit").ok()? != fp_id
    {
        return None;
    }
    let out_raw = sections.remove("output")?;
    let metrics_raw = sections.remove("metrics")?;
    let mut d = xmap_state::codec::Decoder::new(&out_raw, "serve unit output");
    let out = UnitOutput::decode(&mut d).ok()?;
    d.expect_end().ok()?;
    let delta = decode_snapshot(&metrics_raw).ok()?;
    Some((out, delta))
}

/// A stable fingerprint over a rendered artifact, used by tests to
/// compare runs without holding file contents.
pub fn artifact_fingerprint(bytes: &[u8]) -> u64 {
    let mut fp = Fingerprint::new();
    fp.push_bytes(bytes);
    fp.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};

    fn temp_root(tag: &str) -> PathBuf {
        static N: AtomicU64 = AtomicU64::new(0);
        let n = N.fetch_add(1, Ordering::Relaxed);
        std::env::temp_dir().join(format!("xmap-serve-{}-{tag}-{n}", std::process::id()))
    }

    fn small_survey(seed: u64) -> JobSpec {
        JobSpec::LoopscanSurvey {
            probes_per_block: 64,
            seed,
            world_seed: seed.wrapping_mul(3).wrapping_add(1),
        }
    }

    #[test]
    fn submit_drain_produces_artifacts() {
        let root = temp_root("basic");
        let daemon = Daemon::open(&root, ServeConfig::default()).expect("open");
        let job = daemon.submit("alice", small_survey(5)).expect("submit");
        daemon.drain();
        daemon.run().expect("run");
        let dir = job_dir(&root, job);
        let csv = std::fs::read_to_string(dir.join("result.csv")).expect("csv");
        assert!(csv.starts_with("profile_id,address,asn,same64,iid_class,mac\n"));
        let metrics = std::fs::read_to_string(dir.join("metrics.json")).expect("metrics");
        assert!(metrics.contains("scan.sent"));
        let status = daemon.status();
        assert_eq!(status.jobs.len(), 1);
        assert_eq!(status.jobs[0].state, "completed");
        assert_eq!(status.jobs[0].units_done, status.jobs[0].units_total);
        assert!(status.tenant_sent["alice"] > 0);
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn admission_caps_are_enforced() {
        let root = temp_root("admission");
        let cfg = ServeConfig {
            admission: AdmissionPolicy {
                max_active_per_tenant: 1,
                max_active_total: 2,
            },
            ..ServeConfig::default()
        };
        let daemon = Daemon::open(&root, cfg).expect("open");
        daemon.submit("alice", small_survey(1)).expect("first");
        let err = daemon.submit("alice", small_survey(2)).unwrap_err();
        assert!(matches!(
            err,
            ServeError::Admission(AdmissionError::TenantBusy { limit: 1 })
        ));
        daemon
            .submit("bob", small_survey(3))
            .expect("second tenant");
        let err = daemon.submit("carol", small_survey(4)).unwrap_err();
        assert!(matches!(
            err,
            ServeError::Admission(AdmissionError::DaemonBusy { limit: 2 })
        ));
        assert_eq!(
            daemon.metrics().counter(metric::ADMISSION_REJECTED).get(),
            2
        );
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn cancel_stops_a_pending_job() {
        let root = temp_root("cancel");
        let daemon = Daemon::open(&root, ServeConfig::default()).expect("open");
        let job = daemon.submit("alice", small_survey(9)).expect("submit");
        daemon.cancel(job).expect("cancel");
        // Idempotent.
        daemon.cancel(job).expect("cancel again");
        assert!(matches!(
            daemon.cancel(999).unwrap_err(),
            ServeError::UnknownJob(999)
        ));
        daemon.drain();
        daemon.run().expect("run");
        assert_eq!(daemon.status().jobs[0].state, "cancelled");
        assert!(!job_dir(&root, job).join("result.csv").exists());
        // A restart does not resurrect it.
        drop(daemon);
        let daemon = Daemon::open(&root, ServeConfig::default()).expect("reopen");
        assert_eq!(daemon.resumed(), (0, 0));
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn submissions_refused_while_draining() {
        let root = temp_root("draining");
        let daemon = Daemon::open(&root, ServeConfig::default()).expect("open");
        daemon.drain();
        assert!(matches!(
            daemon.submit("alice", small_survey(1)).unwrap_err(),
            ServeError::Draining
        ));
        daemon.run().expect("run");
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn results_identical_across_worker_counts() {
        // Same job set, same seeds: the merged artifacts must not depend
        // on the worker count (scheduler determinism acceptance).
        let mut artifacts: Vec<Vec<u64>> = Vec::new();
        for workers in [1usize, 2, 4] {
            let root = temp_root(&format!("det{workers}"));
            let cfg = ServeConfig {
                workers,
                ..ServeConfig::default()
            };
            let daemon = Daemon::open(&root, cfg).expect("open");
            let a = daemon.submit("alice", small_survey(7)).expect("submit a");
            let b = daemon
                .submit(
                    "bob",
                    JobSpec::PeripheryCampaign {
                        targets_per_block: 256,
                        seed: 11,
                        world_seed: 13,
                        mop_up_ticks: None,
                        block_targets: Vec::new(),
                    },
                )
                .expect("submit b");
            daemon.drain();
            daemon.run().expect("run");
            let mut fps = Vec::new();
            for job in [a, b] {
                let dir = job_dir(&root, job);
                fps.push(artifact_fingerprint(
                    &std::fs::read(dir.join("result.csv")).expect("csv"),
                ));
                fps.push(artifact_fingerprint(
                    &std::fs::read(dir.join("metrics.json")).expect("metrics"),
                ));
            }
            artifacts.push(fps);
            let _ = std::fs::remove_dir_all(&root);
        }
        assert_eq!(artifacts[0], artifacts[1]);
        assert_eq!(artifacts[0], artifacts[2]);
    }
}

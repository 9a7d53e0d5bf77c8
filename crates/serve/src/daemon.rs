//! The daemon engine: worker pool, the job ledger, resume-on-open.
//!
//! # On-disk layout
//!
//! ```text
//! root/
//!   ledger.wal                 journal of job events and finished units
//!   jobs/job-000001/
//!     result.csv               final artifact, published on completion
//!     metrics.json             merged telemetry, published on completion
//! ```
//!
//! # Resume-on-restart invariants
//!
//! * The ledger names the live jobs (`Submitted` without a terminal
//!   record) and holds their finished units (`UnitDone`). Nothing else is
//!   trusted: stray files under `jobs/` are ignored. A unit whose record
//!   was lost re-runs — safe because units are pure functions of
//!   `(spec, unit)`.
//! * Final artifacts are rendered from the journalled unit results in
//!   unit order, so an interrupted daemon's `result.csv`/`metrics.json`
//!   are byte-identical to an uninterrupted run's.
//! * A job whose units are all done but which lacks a `Completed`
//!   record (killed mid-finalize) is finalized again on open;
//!   finalization is idempotent. `Completed` is appended only once the
//!   artifacts' directory entries are fsynced.
//! * During [`Daemon::run`] only the committer thread writes `UnitDone`
//!   records and artifacts. Workers hand it each finished unit, in
//!   queue order, and go on to their next one; a unit counts as done
//!   (in [`Daemon::status`], and towards finalizing its job) only once
//!   the committer has fsynced its record.
//!
//! All file writes route through `xmap-failpoint`, so the torture suite
//! can kill the daemon, or cut its power, at every filesystem operation
//! and assert the invariants above.

use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};

use xmap::telemetry::names;
use xmap::{merge_worker_snapshots, Supervision};
use xmap_state::checkpoint::{publish, sync_dir};
use xmap_state::StateError;
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

/// DRR probe budget a weight-1 job accrues per round: one default
/// periphery-campaign block (`ctl submit`'s `--targets-per-block` 4096),
/// so a weight-1 job dispatches about one such unit per round.
const DRR_QUANTUM: u64 = 4096;

/// Daemon configuration.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Worker threads draining the scheduler.
    pub workers: usize,
    /// Admission limits.
    pub admission: AdmissionPolicy,
    /// Per-tenant DRR weights; unlisted tenants get weight 1.
    pub tenant_weights: BTreeMap<String, u64>,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            workers: 2,
            admission: AdmissionPolicy::default(),
            tenant_weights: BTreeMap::new(),
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
    /// The ledger append failed: the daemon stopped, and [`Daemon::run`]
    /// returns the fault.
    Stopped(String),
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::Admission(e) => write!(f, "admission refused: {e}"),
            ServeError::Draining => write!(f, "daemon is draining"),
            ServeError::UnknownJob(id) => write!(f, "no such job {id}"),
            ServeError::Stopped(e) => write!(f, "daemon stopped on a storage fault: {e}"),
        }
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

/// A finished unit's output and telemetry delta, as journalled.
type UnitResult = (UnitOutput, Snapshot);

/// A unit a worker finished, queued for the committer: `(job, unit,
/// output, metrics)`.
type Finished = (u64, usize, UnitOutput, Snapshot);

#[derive(Debug)]
struct JobEntry {
    tenant: String,
    spec: JobSpec,
    state: JobState,
    /// Each finished unit's result, until finalize takes them.
    done: Vec<Option<UnitResult>>,
    done_count: usize,
    attempts: Vec<u32>,
    /// Per-job metric store; unit deltas fold in via `Registry::absorb`.
    registry: Arc<Registry>,
}

impl JobEntry {
    fn new(tenant: String, spec: JobSpec) -> JobEntry {
        let units = spec.units();
        JobEntry {
            tenant,
            spec,
            state: JobState::Active,
            done: vec![None; units],
            done_count: 0,
            attempts: vec![0; units],
            registry: Arc::new(Registry::new()),
        }
    }

    /// Queues the job's unfinished units at its tenant's weight.
    fn queue(&self, job: u64, sched: &mut DrrScheduler, cfg: &ServeConfig) {
        let weight = cfg.tenant_weights.get(&self.tenant).copied().unwrap_or(1);
        let pending = (0..self.done.len()).filter(|&u| self.done[u].is_none());
        let units = pending.map(|u| (u, self.spec.unit_cost(u)));
        sched.admit(job, &self.tenant, weight, units);
    }
}

#[derive(Debug)]
struct Engine {
    jobs: BTreeMap<u64, JobEntry>,
    sched: DrrScheduler,
    next_id: u64,
    draining: bool,
    stopping: bool,
    /// Units dispatched and not yet applied by the committer: running,
    /// or queued in `finished`.
    in_flight: usize,
    /// Finished units awaiting the committer, in the order they finished.
    finished: VecDeque<Finished>,
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
    /// `(jobs, pending units)` resumed at open.
    resumed: (usize, usize),
}

impl Daemon {
    /// Opens (or creates) a daemon root, replaying the job ledger and
    /// resuming every live job: finished units come back from their
    /// `UnitDone` records, unfinished units re-enter the scheduler, and
    /// jobs killed mid-finalize are finalized here. A `UnitDone` that
    /// names no submitted job, a unit out of range, an output of another
    /// kind or a unit already done is [`StateError::Corrupt`].
    pub fn open(root: &Path, cfg: ServeConfig) -> Result<Daemon, StateError> {
        std::fs::create_dir_all(root.join("jobs"))
            .map_err(|e| StateError::io(format!("create daemon root {}", root.display()), e))?;
        let (ledger, events) = Ledger::open(&root.join("ledger.wal"))?;
        let mut jobs = BTreeMap::new();
        let mut ended = BTreeSet::new();
        let mut next_id = 1;
        for ev in events {
            match ev {
                LedgerEvent::Submitted { job, tenant, spec } => {
                    next_id = next_id.max(job + 1);
                    jobs.insert(job, JobEntry::new(tenant, spec));
                }
                // A unit that finished as its job was cancelled.
                LedgerEvent::UnitDone { job, .. } if ended.contains(&job) => {}
                LedgerEvent::UnitDone {
                    job,
                    unit,
                    output,
                    metrics,
                } => {
                    let corrupt = |why: &str| {
                        StateError::Corrupt(format!("job ledger: unit {unit} of job {job} {why}"))
                    };
                    let entry = jobs
                        .get_mut(&job)
                        .ok_or_else(|| corrupt("names no submitted job"))?;
                    let slot =
                        (entry.done.get_mut(unit)).ok_or_else(|| corrupt("is out of range"))?;
                    if !entry.spec.produces(&output) {
                        return Err(corrupt(&format!("holds a {} output", output.kind_name())));
                    }
                    if slot.is_some() {
                        return Err(corrupt("is journalled twice"));
                    }
                    entry.registry.absorb(&metrics);
                    *slot = Some((output, metrics));
                    entry.done_count += 1;
                }
                // First terminal event wins; later ones are no-ops.
                LedgerEvent::Completed { job } | LedgerEvent::Cancelled { job } => {
                    jobs.remove(&job);
                    ended.insert(job);
                }
            }
        }
        let mut sched = DrrScheduler::new(DRR_QUANTUM);
        let mut finalize = Vec::new();
        for (&job, entry) in &jobs {
            entry.queue(job, &mut sched, &cfg);
            if entry.done_count == entry.spec.units() {
                finalize.push(job);
            }
        }
        let resumed = (jobs.len(), sched.total_pending());
        let engine = Engine {
            jobs,
            sched,
            next_id,
            draining: false,
            stopping: false,
            in_flight: 0,
            finished: VecDeque::new(),
            fatal: None,
        };
        let daemon = Daemon {
            root: root.to_path_buf(),
            cfg,
            state: Mutex::new(engine),
            wake: Condvar::new(),
            ledger: Mutex::new(ledger),
            metrics: Arc::new(Registry::new()),
            resumed,
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
        self.resumed
    }

    /// The daemon's own metric registry (`serve.*` counters).
    pub fn metrics(&self) -> &Registry {
        &self.metrics
    }

    fn engine(&self) -> MutexGuard<'_, Engine> {
        self.state.lock().expect("daemon engine poisoned")
    }

    fn ledger(&self) -> MutexGuard<'_, Ledger> {
        self.ledger.lock().expect("ledger poisoned")
    }

    /// Journals a tenant's request. A failed append closes the ledger, so
    /// it stops the daemon; [`Daemon::run`] returns the fault.
    fn journal(&self, eng: &mut Engine, event: &LedgerEvent) -> Result<(), ServeError> {
        self.ledger().append(event).map_err(|e| {
            let told = ServeError::Stopped(e.to_string());
            self.fail(eng, e);
            told
        })
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
        // Durable before acknowledged: the ledger append fsyncs.
        let submitted = LedgerEvent::Submitted {
            job,
            tenant: tenant.to_owned(),
            spec: spec.clone(),
        };
        self.journal(&mut eng, &submitted)?;
        let entry = JobEntry::new(tenant.to_owned(), spec);
        entry.queue(job, &mut eng.sched, &self.cfg);
        eng.jobs.insert(job, entry);
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
        self.journal(&mut eng, &LedgerEvent::Cancelled { job })?;
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

    /// Runs the worker pool and its committer until the daemon is drained
    /// or a storage fault stops it. All scheduling state is re-derivable,
    /// so an `Err` return leaves the root resumable by a fresh
    /// [`Daemon::open`].
    pub fn run(&self) -> Result<DrainOutcome, StateError> {
        std::thread::scope(|scope| {
            let committer = scope.spawn(|| self.commit_loop());
            let handles: Vec<_> = (0..self.cfg.workers.max(1))
                .map(|_| scope.spawn(|| self.worker_loop()))
                .collect();
            for h in handles {
                h.join().expect("worker loops catch their panics");
            }
            committer.join().expect("the committer does not panic");
        });
        match self.engine().fatal.take() {
            Some(e) => Err(e),
            None => Ok(DrainOutcome {
                completed: self.metrics.counter(metric::COMPLETED).get(),
            }),
        }
    }

    /// Dispatches units and runs them. A finished unit is queued for the
    /// committer under the same lock that dispatches the next one; it
    /// stays in `in_flight` until the committer applies it.
    fn worker_loop(&self) {
        let mut finished = None;
        loop {
            let dispatch = {
                let mut eng = self.engine();
                if let Some(done) = finished.take() {
                    eng.finished.push_back(done);
                    self.wake.notify_all();
                }
                loop {
                    if eng.stopping {
                        drop(eng);
                        self.wake.notify_all();
                        return;
                    }
                    if let Some((job, unit)) = eng.sched.next_unit() {
                        let spec = eng.jobs[&job].spec.clone();
                        eng.in_flight += 1;
                        break (job, unit, spec);
                    }
                    if eng.draining && eng.in_flight == 0 {
                        drop(eng);
                        self.wake.notify_all();
                        return;
                    }
                    eng = self.wake.wait(eng).expect("daemon engine poisoned");
                }
            };
            let (job, unit, spec) = dispatch;
            match catch_unwind(AssertUnwindSafe(|| spec.run_unit(unit))) {
                Ok((output, metrics)) => finished = Some((job, unit, output, metrics)),
                Err(_) => {
                    let mut eng = self.engine();
                    eng.in_flight -= 1;
                    self.metrics.counter(metric::WORKER_PANICS).inc();
                    let entry = eng.jobs.get_mut(&job).expect("jobs are never dropped");
                    if entry.state == JobState::Active {
                        entry.attempts[unit] += 1;
                        // The same attempt budget as every executor pool.
                        if entry.attempts[unit] < Supervision::default().max_attempts {
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

    /// The run's one writer: journals each finished unit in queue order
    /// (one append and fsync per unit, outside the engine lock), then
    /// applies it, and finalizes a job once its last unit is applied.
    /// Returns when the run stops, or once the drain leaves nothing
    /// pending, running or queued; a failed write stops the run, and the
    /// units still queued are lost, as a kill would lose them.
    fn commit_loop(&self) {
        loop {
            let (job, unit, output, metrics) = {
                let mut eng = self.engine();
                loop {
                    if eng.stopping {
                        return;
                    }
                    if let Some(finished) = eng.finished.pop_front() {
                        break finished;
                    }
                    if eng.draining && eng.in_flight == 0 && eng.sched.total_pending() == 0 {
                        return;
                    }
                    eng = self.wake.wait(eng).expect("daemon engine poisoned");
                }
            };
            // Durable before done: the ledger append fsyncs.
            let event = LedgerEvent::UnitDone {
                job,
                unit,
                output,
                metrics,
            };
            let committed = self.ledger().append(&event);
            let LedgerEvent::UnitDone {
                output, metrics, ..
            } = event
            else {
                unreachable!("the event was built as UnitDone")
            };
            let finalize = {
                let mut eng = self.engine();
                eng.in_flight -= 1;
                if let Err(e) = committed {
                    self.fail(&mut eng, e);
                    return;
                }
                let entry = eng.jobs.get_mut(&job).expect("jobs are never dropped");
                if entry.state == JobState::Active && matches!(entry.done.get(unit), Some(None)) {
                    entry.registry.absorb(&metrics);
                    entry.done[unit] = Some((output, metrics));
                    entry.done_count += 1;
                    self.metrics.counter(metric::UNITS_EXECUTED).inc();
                    entry.done_count == entry.spec.units()
                } else {
                    false
                }
            };
            if finalize {
                if let Err(e) = self.finalize(job) {
                    self.fail(&mut self.engine(), e);
                    return;
                }
            }
            self.wake.notify_all();
        }
    }

    /// Records a fatal storage fault and stops every worker and the
    /// committer. The fault is returned from [`Daemon::run`]; on-disk
    /// state stays resumable.
    fn fail(&self, eng: &mut Engine, e: StateError) {
        eng.fatal.get_or_insert(e);
        eng.stopping = true;
        self.wake.notify_all();
    }

    /// Publishes a finished job's final artifacts from its journalled
    /// unit results, fsyncs their directory entries, and journals
    /// `Completed`. Idempotent; called by the committer once it applies
    /// the last unit, or by [`Daemon::open`] for jobs killed mid-finalize.
    fn finalize(&self, job: u64) -> Result<(), StateError> {
        let (spec, done) = {
            let mut eng = self.engine();
            let entry = eng.jobs.get_mut(&job).expect("jobs are never dropped");
            (entry.spec.clone(), std::mem::take(&mut entry.done))
        };
        let (outputs, deltas): (Vec<_>, Vec<_>) = done
            .into_iter()
            .map(|result| result.expect("a job is finalized once every unit is done"))
            .unzip();
        let dir = job_dir(&self.root, job);
        std::fs::create_dir_all(&dir)
            .map_err(|e| StateError::io(format!("create job dir {}", dir.display()), e))?;
        let (csv, merged) = (spec.render_csv(&outputs), merge_worker_snapshots(deltas));
        publish(&dir.join("result.csv"), csv.as_bytes())?;
        publish(&dir.join("metrics.json"), merged.to_json().as_bytes())?;
        // `Completed` ends the job's replay, so the artifacts' names must
        // be durable first: the job directory's, and its own in `jobs/`.
        sync_dir(&dir)?;
        sync_dir(&self.root.join("jobs"))?;
        let mut eng = self.engine();
        let entry = eng.jobs.get_mut(&job).expect("jobs are never dropped");
        if entry.state == JobState::Active {
            self.ledger().append(&LedgerEvent::Completed { job })?;
            entry.state = JobState::Completed;
            self.metrics.counter(metric::COMPLETED).inc();
        }
        drop(eng);
        self.wake.notify_all();
        Ok(())
    }
}

/// The directory holding one job's published artifacts.
pub fn job_dir(root: &Path, job: u64) -> PathBuf {
    root.join("jobs").join(format!("job-{job:06}"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};
    use xmap_state::Fingerprint;

    /// A stable fingerprint over a rendered artifact, to compare runs
    /// without holding file contents.
    fn artifact_fingerprint(bytes: &[u8]) -> u64 {
        let mut fp = Fingerprint::new();
        fp.push_bytes(bytes);
        fp.finish()
    }

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

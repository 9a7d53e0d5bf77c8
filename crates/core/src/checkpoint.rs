//! Checkpoint/resume orchestration: the glue between the scan engine and
//! the durable `xmap-checkpoint/v1` format in `xmap-state`.
//!
//! A checkpointed scan is a **session**: a directory holding one
//! [`Manifest`](xmap_state::Manifest) (the configuration identity), and
//! per worker a record journal (`worker-N.wal`) plus the latest worker
//! checkpoint (`worker-N.ckpt`). The pieces here are:
//!
//! - [`RunSink`] — attached to a [`Scanner`](crate::Scanner); journals
//!   every emitted record and writes checkpoints at a slot cadence.
//! - [`ScanSession`] — creates/validates the directory, loads per-worker
//!   resume state, and refuses configuration mismatches outright.
//! - [`RangeMode`] — what a worker does with each range on resume: replay
//!   it from the journal, continue it mid-range, or scan it fresh.
//! - [`run_session`] — the end-to-end driver shared by the `xmap` CLI and
//!   the integration tests: build manifest → create/resume session →
//!   restore workers → run → merge.
//!
//! ## Determinism envelope
//!
//! Resume is *byte-identical* to an uninterrupted run when network
//! behaviour is a pure function of `(packet, world seed, tick)` — the
//! default simulator worlds and the tick-keyed loss/duplication fault
//! plans. Checkpoints are only taken at send-slot boundaries with nothing
//! in flight, so the re-executed tail sees exactly the state the killed
//! run saw. Stateful network features (ICMPv6 token buckets, jitter
//! queues, app-layer session state) are outside the envelope: resume is
//! then still correct-and-complete, but individual records may differ.

use std::fs;
use std::path::{Path, PathBuf};

use xmap_addr::ScanRange;
use xmap_netsim::packet::{Network, UnreachCode};
use xmap_state::codec::{Decoder, Encoder};
use xmap_state::{AbortSignal, Manifest, RunState, StateError, Wal, WorkerCheckpoint};
use xmap_telemetry::{Snapshot, Telemetry};

use crate::blocklist::Blocklist;
use crate::parallel::ParallelScanner;
use crate::probe::{ProbeModule, ProbeResult};
use crate::scanner::{Confidence, Permutation, ScanConfig, ScanRecord, ScanResults, ScanStats};
use crate::telemetry::names;

/// Records a degraded sink buffers in memory before giving up on ever
/// restoring durability (~14 MB of encoded records at the default record
/// size). Beyond it the sink goes lossy: the scan still completes, the
/// last on-disk checkpoint stays valid, but this process can no longer
/// close the durability gap.
const MAX_PENDING_RECORDS: usize = 1 << 18;

/// Minimum retry backoff, in send slots, once a sink degrades.
const MIN_RETRY_BACKOFF: u64 = 64;

/// Backoff growth cap: retries never space out more than this.
const MAX_RETRY_BACKOFF: u64 = 1 << 16;

/// In-memory state of a sink whose storage failed: everything needed to
/// re-establish durability once the disk recovers.
#[derive(Debug)]
struct DegradedState {
    /// Encoded records not yet durable, in sequence order starting at
    /// [`DegradedState::pending_start_seq`]. Includes the records that
    /// were appended-but-unflushed when the failure hit, so a recovery
    /// can rebuild the journal without losing anything.
    pending: Vec<Vec<u8>>,
    /// Journal sequence number of `pending[0]`. Everything before it was
    /// flushed successfully and is intact on disk.
    pending_start_seq: u64,
    /// Cadence-counter value at which the next recovery attempt runs.
    retry_at: u64,
    /// Current backoff, in send slots. Doubles per failed attempt, capped.
    backoff: u64,
    /// The pending buffer overflowed: durability is unrecoverable in this
    /// process (the scan continues; resume re-executes from the last
    /// durable checkpoint).
    lossy: bool,
}

/// Per-worker checkpoint writer, attached to a scanner via
/// [`Scanner::set_sink`](crate::Scanner::set_sink).
///
/// Storage failures downgrade, never abort: on the first I/O error the
/// sink enters **degraded mode** — records buffer in memory (preserving
/// journal sequence contiguity), the on-disk checkpoint is left exactly
/// as it was, and recovery is retried with exponential backoff at later
/// checkpoint boundaries. A successful recovery truncates the journal's
/// torn tail, re-appends the buffered records, publishes a fresh
/// checkpoint atomically, and returns the sink to healthy. Drivers
/// observe the state via [`RunSink::is_degraded`] (the scanner mirrors
/// it into the `state.durability_degraded` gauge) and surface the
/// original error at session end via [`RunSink::take_error`], which
/// reports `None` when durability was fully restored.
#[derive(Debug)]
pub struct RunSink {
    /// The open journal; `None` while degraded (the writer is dropped on
    /// failure — its buffer state is unknowable — and reopened from disk
    /// on recovery).
    wal: Option<Wal>,
    wal_path: PathBuf,
    ckpt_path: PathBuf,
    worker: u32,
    config_fp: u64,
    every: u64,
    slots: u64,
    range_index: u32,
    run_wal_start: u64,
    /// Encoded records appended since the last successful flush. Kept so
    /// that a failed flush (whose partial frames are torn on disk) can
    /// enter degraded mode without losing anything.
    unflushed: Vec<Vec<u8>>,
    degraded: Option<DegradedState>,
    /// First storage error observed (kept for reporting even across a
    /// successful recovery; only surfaced while degraded).
    first_error: Option<StateError>,
    /// Successful degraded→healthy transitions.
    recoveries: u64,
}

impl RunSink {
    /// Builds a sink over an open journal. `every` is the checkpoint
    /// cadence in send slots (0 disables periodic checkpoints; range-end
    /// and abort checkpoints still happen).
    pub fn new(wal: Wal, ckpt_path: PathBuf, worker: u32, every: u64, config_fp: u64) -> Self {
        let wal_path = wal.path().to_path_buf();
        RunSink {
            wal: Some(wal),
            wal_path,
            ckpt_path,
            worker,
            config_fp,
            every,
            slots: 0,
            range_index: 0,
            run_wal_start: 0,
            unflushed: Vec::new(),
            degraded: None,
            first_error: None,
            recoveries: 0,
        }
    }

    /// Starts (or resumes, with `wal_start: Some`) a range: subsequent
    /// journalled records and checkpoints carry `range_index`.
    pub fn begin_range(&mut self, range_index: u32, wal_start: Option<u64>) {
        self.range_index = range_index;
        self.run_wal_start = wal_start.unwrap_or_else(|| self.seq_end());
        self.slots = 0;
        if let Some(d) = self.degraded.as_mut() {
            d.retry_at = d.backoff;
        }
    }

    /// Advances the cadence counter by one send slot.
    pub fn tick(&mut self) {
        self.slots += 1;
    }

    /// Whether the cadence calls for a checkpoint at the next boundary —
    /// either the periodic cadence (healthy) or a degraded-mode recovery
    /// retry whose backoff has elapsed.
    pub fn due(&self) -> bool {
        if self.every == 0 {
            return false;
        }
        match &self.degraded {
            None => self.slots >= self.every,
            Some(d) => !d.lossy && self.slots >= d.retry_at,
        }
    }

    /// Journal sequence number at which the current range's records start.
    pub fn run_wal_start(&self) -> u64 {
        self.run_wal_start
    }

    /// Whether the sink is currently operating in degraded (in-memory)
    /// mode after a storage failure.
    pub fn is_degraded(&self) -> bool {
        self.degraded.is_some()
    }

    /// Successful degraded→healthy recoveries so far.
    pub fn recoveries(&self) -> u64 {
        self.recoveries
    }

    /// The sequence number the next journalled record will take, whether
    /// it goes to the journal or the in-memory pending buffer.
    fn seq_end(&self) -> u64 {
        match (&self.wal, &self.degraded) {
            (Some(wal), _) => wal.next_seq(),
            (None, Some(d)) => d.pending_start_seq + d.pending.len() as u64,
            (None, None) => 0,
        }
    }

    /// Appends one record: to the journal when healthy, to the pending
    /// buffer when degraded.
    pub fn journal(&mut self, record: &ScanRecord) {
        let payload = encode_record(self.range_index, record);
        if let Some(d) = self.degraded.as_mut() {
            if d.lossy {
                return;
            }
            if d.pending.len() >= MAX_PENDING_RECORDS {
                d.lossy = true;
                d.pending = Vec::new();
                return;
            }
            d.pending.push(payload);
            return;
        }
        let wal = self.wal.as_mut().expect("healthy sink holds its journal");
        match wal.append(&payload) {
            Ok(_) => self.unflushed.push(payload),
            Err(e) => self.enter_degraded(e, Some(payload)),
        }
    }

    /// Flushes the journal and atomically publishes a worker checkpoint
    /// (`run: None` marks the current range complete). Resets the cadence
    /// counter on success. While degraded this is a recovery attempt
    /// instead; failures back off, successes return the sink to healthy.
    pub fn write_checkpoint(&mut self, tick: u64, metrics: Snapshot, run: Option<RunState>) {
        if self.degraded.is_some() {
            self.attempt_recovery(tick, metrics, run);
            return;
        }
        let wal = self.wal.as_mut().expect("healthy sink holds its journal");
        if let Err(e) = wal.flush() {
            self.enter_degraded(e, None);
            return;
        }
        self.unflushed.clear();
        let ckpt = WorkerCheckpoint {
            worker: self.worker,
            range_index: self.range_index,
            tick,
            wal_seq: self.seq_end(),
            config_fp: self.config_fp,
            metrics,
            run,
        };
        match ckpt.write_to(&self.ckpt_path) {
            Ok(()) => self.slots = 0,
            Err(e) => self.enter_degraded(e, None),
        }
    }

    /// Switches to degraded mode after a storage failure. `extra` is a
    /// record whose append itself failed (it joins the pending buffer).
    /// The journal writer is dropped — its buffer may be partially torn
    /// on disk — and recovery reopens the file from its intact prefix.
    fn enter_degraded(&mut self, error: StateError, extra: Option<Vec<u8>>) {
        let seq_end = self.wal.as_ref().map_or(0, Wal::next_seq);
        let mut pending = std::mem::take(&mut self.unflushed);
        let pending_start_seq = seq_end - pending.len() as u64;
        if let Some(p) = extra {
            pending.push(p);
        }
        self.wal = None;
        if self.first_error.is_none() {
            self.first_error = Some(error);
        }
        let backoff = self.every.max(MIN_RETRY_BACKOFF);
        self.degraded = Some(DegradedState {
            pending,
            pending_start_seq,
            retry_at: self.slots.saturating_add(backoff),
            backoff,
            lossy: false,
        });
    }

    /// One recovery attempt: reopen the journal truncated to its known
    /// intact prefix, re-append every pending record, flush, and publish
    /// a checkpoint atomically. All of it goes through the same
    /// write-to-temp + rename path, so a failure anywhere leaves the
    /// previous on-disk checkpoint untouched.
    fn attempt_recovery(&mut self, tick: u64, metrics: Snapshot, run: Option<RunState>) {
        let d = self.degraded.as_mut().expect("called while degraded");
        if d.lossy {
            return;
        }
        let outcome = (|| -> Result<Wal, StateError> {
            let (mut wal, _kept) = Wal::open_truncated(&self.wal_path, d.pending_start_seq)?;
            for payload in &d.pending {
                wal.append(payload)?;
            }
            wal.flush()?;
            let ckpt = WorkerCheckpoint {
                worker: self.worker,
                range_index: self.range_index,
                tick,
                wal_seq: wal.next_seq(),
                config_fp: self.config_fp,
                metrics,
                run,
            };
            ckpt.write_to(&self.ckpt_path)?;
            Ok(wal)
        })();
        match outcome {
            Ok(wal) => {
                self.wal = Some(wal);
                self.degraded = None;
                self.unflushed.clear();
                self.slots = 0;
                self.recoveries += 1;
            }
            Err(_) => {
                let d = self.degraded.as_mut().expect("still degraded");
                d.backoff = (d.backoff * 2).min(MAX_RETRY_BACKOFF);
                d.retry_at = self.slots.saturating_add(d.backoff);
            }
        }
    }

    /// The first storage error, if durability is still degraded (clears
    /// it). A sink that recovered reports `None`: every record reached
    /// the disk and the checkpoint is current.
    pub fn take_error(&mut self) -> Option<StateError> {
        if self.degraded.is_some() {
            self.first_error.take()
        } else {
            None
        }
    }
}

/// What a worker does with one range of a (possibly resumed) session.
#[derive(Debug)]
pub enum RangeMode {
    /// Scan the range from the beginning.
    Fresh,
    /// Continue the range from a mid-range checkpoint (boxed: the
    /// captured state dwarfs the other variants).
    Resume(Box<RunResume>),
    /// The range already completed before the kill: contribute its
    /// journal-replayed records without sending a single probe.
    Skip(Vec<ScanRecord>),
}

/// A mid-range resume point: the captured scanner state plus the records
/// the journal already holds for this range.
#[derive(Debug)]
pub struct RunResume {
    /// Captured mid-range scanner state.
    pub state: RunState,
    /// Records emitted (and journalled) before the checkpoint, in their
    /// original arrival order.
    pub records: Vec<ScanRecord>,
}

/// Everything needed to put one worker back where its checkpoint left it.
#[derive(Debug)]
pub struct WorkerResume {
    /// Per-range modes, in range order.
    pub modes: Vec<RangeMode>,
    /// Scanner lifetime tick to restore the virtual clock to.
    pub tick: u64,
    /// Telemetry snapshot to restore the worker registry from (absent for
    /// fresh workers).
    pub metrics: Option<Snapshot>,
    /// The sink to attach, positioned to append after the kept journal.
    pub sink: RunSink,
}

/// A checkpoint directory with a validated manifest.
#[derive(Debug)]
pub struct ScanSession {
    dir: PathBuf,
    manifest: Manifest,
}

impl ScanSession {
    /// Starts a fresh session: creates the directory (with a clear error
    /// naming the path on failure), clears any leftover worker files so a
    /// later `--resume` can never mix two runs, and writes the manifest.
    pub fn create(dir: &Path, manifest: Manifest) -> Result<ScanSession, StateError> {
        fs::create_dir_all(dir).map_err(|e| {
            StateError::io(format!("create checkpoint directory {}", dir.display()), e)
        })?;
        let listing = fs::read_dir(dir).map_err(|e| {
            StateError::io(format!("list checkpoint directory {}", dir.display()), e)
        })?;
        for entry in listing {
            let entry = entry.map_err(|e| {
                StateError::io(format!("list checkpoint directory {}", dir.display()), e)
            })?;
            let name = entry.file_name();
            let name = name.to_string_lossy();
            let stale = name.starts_with("worker-")
                && (name.ends_with(".ckpt") || name.ends_with(".wal") || name.ends_with(".tmp"));
            if stale {
                fs::remove_file(entry.path()).map_err(|e| {
                    StateError::io(format!("remove stale {}", entry.path().display()), e)
                })?;
            }
        }
        let manifest_path = dir.join("manifest.json");
        fs::write(&manifest_path, manifest.to_json()).map_err(|e| {
            StateError::io(
                format!("write session manifest {}", manifest_path.display()),
                e,
            )
        })?;
        Ok(ScanSession {
            dir: dir.to_path_buf(),
            manifest,
        })
    }

    /// Opens an existing session for resumption. The stored manifest must
    /// match `expected` on every identity field — any difference is a hard
    /// [`StateError::Mismatch`] naming the offending fields, never a
    /// silent continuation against the wrong targets.
    pub fn resume(dir: &Path, expected: Manifest) -> Result<ScanSession, StateError> {
        let manifest_path = dir.join("manifest.json");
        let text = fs::read_to_string(&manifest_path).map_err(|e| {
            StateError::io(
                format!(
                    "read session manifest {} (is this a checkpoint directory?)",
                    manifest_path.display()
                ),
                e,
            )
        })?;
        let stored = Manifest::from_json(&text)?;
        let diffs = expected.diff(&stored);
        if !diffs.is_empty() {
            return Err(StateError::Mismatch(diffs.join("; ")));
        }
        Ok(ScanSession {
            dir: dir.to_path_buf(),
            manifest: expected,
        })
    }

    /// The session's validated manifest.
    pub fn manifest(&self) -> &Manifest {
        &self.manifest
    }

    /// The session directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    fn worker_ckpt(&self, worker: u32) -> PathBuf {
        self.dir.join(format!("worker-{worker}.ckpt"))
    }

    fn worker_wal(&self, worker: u32) -> PathBuf {
        self.dir.join(format!("worker-{worker}.wal"))
    }

    /// A brand-new worker: empty journal, every range fresh.
    pub fn fresh_worker(&self, worker: u32, num_ranges: usize) -> Result<WorkerResume, StateError> {
        let wal = Wal::create(&self.worker_wal(worker))?;
        let sink = RunSink::new(
            wal,
            self.worker_ckpt(worker),
            worker,
            self.manifest.every,
            self.manifest.fingerprint(),
        );
        Ok(WorkerResume {
            modes: (0..num_ranges).map(|_| RangeMode::Fresh).collect(),
            tick: 0,
            metrics: None,
            sink,
        })
    }

    /// Loads a worker's resume state: reads its checkpoint, truncates the
    /// journal's torn tail back to the checkpointed sequence number, and
    /// classifies every range as skip / resume / fresh. A worker killed
    /// before its first checkpoint simply starts over.
    pub fn load_worker(&self, worker: u32, num_ranges: usize) -> Result<WorkerResume, StateError> {
        let ckpt_path = self.worker_ckpt(worker);
        if !ckpt_path.exists() {
            return self.fresh_worker(worker, num_ranges);
        }
        let ckpt = WorkerCheckpoint::read_from(&ckpt_path)?;
        let fp = self.manifest.fingerprint();
        if ckpt.config_fp != fp {
            return Err(StateError::Mismatch(format!(
                "worker {worker} checkpoint was written under configuration {:#018x}, \
                 this session's manifest fingerprints as {fp:#018x}",
                ckpt.config_fp
            )));
        }
        if ckpt.worker != worker {
            return Err(StateError::Corrupt(format!(
                "checkpoint {} belongs to worker {}, expected worker {worker}",
                ckpt_path.display(),
                ckpt.worker
            )));
        }
        let ckpt_range = ckpt.range_index as usize;
        if ckpt_range >= num_ranges {
            return Err(StateError::Corrupt(format!(
                "checkpoint references range {ckpt_range}, session has {num_ranges} ranges"
            )));
        }
        let (wal, payloads) = Wal::open_truncated(&self.worker_wal(worker), ckpt.wal_seq)?;
        let mut per_range: Vec<Vec<ScanRecord>> = (0..num_ranges).map(|_| Vec::new()).collect();
        for payload in &payloads {
            let (range_index, record) = decode_record(payload)?;
            let slot = per_range.get_mut(range_index as usize).ok_or_else(|| {
                StateError::Corrupt(format!(
                    "journalled record references range {range_index}, session has {num_ranges}"
                ))
            })?;
            slot.push(record);
        }
        let mid_range = ckpt.run.is_some();
        let mut run = ckpt.run;
        let modes = per_range
            .into_iter()
            .enumerate()
            .map(|(ri, records)| {
                if mid_range && ri == ckpt_range {
                    RangeMode::Resume(Box::new(RunResume {
                        state: run.take().expect("run consumed once"),
                        records,
                    }))
                } else if ri < ckpt_range || (!mid_range && ri == ckpt_range) {
                    RangeMode::Skip(records)
                } else {
                    RangeMode::Fresh
                }
            })
            .collect();
        let sink = RunSink::new(wal, ckpt_path, worker, self.manifest.every, fp);
        Ok(WorkerResume {
            modes,
            tick: ckpt.tick,
            metrics: Some(ckpt.metrics),
            sink,
        })
    }
}

/// Builds the session manifest for one scan invocation (the identity the
/// resume path checks against).
pub fn build_manifest(
    workers: usize,
    config: &ScanConfig,
    module: &dyn ProbeModule,
    ranges: &[ScanRange],
    blocklist: &Blocklist,
    world_seed: u64,
    every: u64,
) -> Manifest {
    Manifest {
        workers: workers as u64,
        seed: config.seed,
        world_seed,
        shard: config.shard,
        shards: config.shards,
        permutation: match config.permutation {
            Permutation::Cyclic => "cyclic",
            Permutation::Feistel => "feistel",
            Permutation::Sequential => "sequential",
        }
        .into(),
        module: module.name().into(),
        max_targets: config.max_targets,
        rate_pps: config.rate_pps,
        probes_per_target: config.probes_per_target as u64,
        rto_ticks: config.rto_ticks,
        max_retry_backlog: config.max_retry_backlog as u64,
        adaptive: config.adaptive_rate,
        record_silent: config.record_silent,
        ranges: ranges.iter().map(|r| r.to_string()).collect(),
        blocklist_fp: blocklist.fingerprint(),
        every,
    }
}

/// Derives whole-session [`ScanStats`] from a merged telemetry snapshot.
/// In a session the registries start at zero (or are restored from the
/// checkpoint, which itself started at zero), so the lifetime counters
/// *are* the session totals — including ranges replayed from the journal,
/// whose per-range deltas are otherwise unknown to a resumed process.
pub fn stats_from_snapshot(snap: &Snapshot) -> ScanStats {
    ScanStats {
        sent: snap.counter(names::SENT),
        blocked: snap.counter(names::BLOCKED),
        received: snap.counter(names::RECEIVED),
        invalid: snap.counter(names::INVALID),
        valid: snap.counter(names::VALID),
        retransmits: snap.counter(names::RETRANSMITS),
        rate_limited_suspected: snap.counter(names::RATE_LIMITED),
        gave_up: snap.counter(names::GAVE_UP),
        paced_secs: snap.counter(names::PACED_NANOS) as f64 / 1e9,
    }
}

/// One checkpointed scan invocation (everything but the network factory).
#[derive(Debug)]
pub struct SessionSpec<'a> {
    /// Parallel worker count.
    pub workers: usize,
    /// Base scanner configuration (workers nest inside its shard slot).
    pub config: ScanConfig,
    /// Target ranges, in scan order.
    pub ranges: &'a [ScanRange],
    /// Checkpoint directory.
    pub dir: &'a Path,
    /// Checkpoint cadence in send slots (0 = range boundaries only).
    pub every: u64,
    /// Resume from `dir` instead of starting a fresh session.
    pub resume: bool,
    /// Simulated-world seed recorded in the manifest (0 for live scans).
    pub world_seed: u64,
}

/// What [`run_session`] hands back.
#[derive(Debug)]
pub struct SessionOutcome {
    /// Merged results across workers and ranges. `interrupted` is set if
    /// any worker stopped on the abort signal; the session directory then
    /// holds the state a `resume: true` invocation continues from.
    pub results: ScanResults,
    /// Merged telemetry snapshot across workers.
    pub snapshot: Snapshot,
    /// First deferred checkpoint-I/O error from any worker's sink.
    pub sink_error: Option<StateError>,
}

/// Runs one complete checkpointed scan session: manifest → session
/// directory → per-worker restore → sharded execution → deterministic
/// merge. Shared by the `xmap` CLI and the kill/resume integration tests
/// so both exercise the identical orchestration.
pub fn run_session<N: Network + Send>(
    spec: &SessionSpec<'_>,
    module: &(dyn ProbeModule + Sync),
    blocklist: &Blocklist,
    abort: Option<&AbortSignal>,
    make_network: impl FnMut(usize, &Telemetry) -> N + 'static,
) -> Result<SessionOutcome, StateError> {
    let manifest = build_manifest(
        spec.workers,
        &spec.config,
        module,
        spec.ranges,
        blocklist,
        spec.world_seed,
        spec.every,
    );
    let session = if spec.resume {
        ScanSession::resume(spec.dir, manifest)?
    } else {
        ScanSession::create(spec.dir, manifest)?
    };

    let mut scanner = ParallelScanner::new(spec.workers, spec.config.clone(), make_network);
    let mut modes: Vec<Vec<RangeMode>> = Vec::with_capacity(spec.workers);
    for w in 0..spec.workers {
        let mut wr = if spec.resume {
            session.load_worker(w as u32, spec.ranges.len())?
        } else {
            session.fresh_worker(w as u32, spec.ranges.len())?
        };
        let worker = scanner.worker_mut(w);
        if let Some(snap) = wr.metrics.take() {
            worker.restore_metrics(&snap);
            worker.restore_clock(wr.tick);
        }
        if let Some(signal) = abort {
            worker.set_abort(signal.clone());
        }
        worker.set_sink(wr.sink);
        modes.push(wr.modes);
    }

    let mut results = scanner.run_with_modes(spec.ranges, module, blocklist, modes);
    let mut sink_error = None;
    for w in 0..spec.workers {
        if let Some(mut sink) = scanner.worker_mut(w).take_sink() {
            if sink_error.is_none() {
                sink_error = sink.take_error();
            }
        }
    }
    let snapshot = scanner.snapshot();
    results.stats = stats_from_snapshot(&snapshot);
    Ok(SessionOutcome {
        results,
        snapshot,
        sink_error,
    })
}

/// Binary-encodes one journalled record: the range index it belongs to,
/// then the record ([`encode_scan_record`]).
fn encode_record(range_index: u32, r: &ScanRecord) -> Vec<u8> {
    let mut e = Encoder::new();
    e.u32(range_index);
    encode_scan_record(&mut e, r);
    e.finish()
}

/// Decodes a record written by [`encode_record`].
fn decode_record(raw: &[u8]) -> Result<(u32, ScanRecord), StateError> {
    let mut d = Decoder::new(raw, "journalled record");
    let range_index = d.u32()?;
    let record = decode_scan_record(&mut d)?;
    d.expect_end()?;
    Ok((range_index, record))
}

/// The one wire layout of a [`ScanRecord`] (little-endian, same codec as
/// the checkpoint sections), shared by the session journal and the
/// campaign-unit checkpoints: target prefix, `probe_dst`, `responder`,
/// result tag, confidence tag.
pub fn encode_scan_record(e: &mut Encoder, r: &ScanRecord) {
    e.prefix(&r.target);
    e.u128(r.probe_dst.bits());
    e.u128(r.responder.bits());
    match r.result {
        ProbeResult::Alive => e.u8(0),
        ProbeResult::Unreachable { code } => {
            e.u8(1);
            // Tag with the RFC 4443 code numbers themselves.
            e.u8(match code {
                UnreachCode::NoRoute => 0,
                UnreachCode::AdminProhibited => 1,
                UnreachCode::AddressUnreachable => 3,
                UnreachCode::PortUnreachable => 4,
                UnreachCode::SourcePolicy => 5,
                UnreachCode::RejectRoute => 6,
            });
        }
        ProbeResult::TimeExceeded => e.u8(2),
        ProbeResult::Refused => e.u8(3),
        ProbeResult::Invalid => e.u8(4),
    }
    match r.confidence {
        Confidence::FirstTry => e.u8(0),
        Confidence::Retry(n) => {
            e.u8(1);
            e.u32(n);
        }
    }
}

/// Inverse of [`encode_scan_record`].
pub fn decode_scan_record(d: &mut Decoder) -> Result<ScanRecord, StateError> {
    let unknown =
        |field: &str, tag: u8| StateError::Corrupt(format!("scan record: unknown {field} {tag}"));
    let target = d.prefix()?;
    let probe_dst = d.u128()?.into();
    let responder = d.u128()?.into();
    let result = match d.u8()? {
        0 => ProbeResult::Alive,
        1 => ProbeResult::Unreachable {
            code: match d.u8()? {
                0 => UnreachCode::NoRoute,
                1 => UnreachCode::AdminProhibited,
                3 => UnreachCode::AddressUnreachable,
                4 => UnreachCode::PortUnreachable,
                5 => UnreachCode::SourcePolicy,
                6 => UnreachCode::RejectRoute,
                t => return Err(unknown("unreachable code", t)),
            },
        },
        2 => ProbeResult::TimeExceeded,
        3 => ProbeResult::Refused,
        4 => ProbeResult::Invalid,
        t => return Err(unknown("result tag", t)),
    };
    let confidence = match d.u8()? {
        0 => Confidence::FirstTry,
        1 => Confidence::Retry(d.u32()?),
        t => return Err(unknown("confidence tag", t)),
    };
    Ok(ScanRecord {
        target,
        probe_dst,
        responder,
        result,
        confidence,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use xmap_addr::Ip6;

    fn rec(result: ProbeResult, confidence: Confidence) -> ScanRecord {
        ScanRecord {
            target: "2405:200:dead::/48".parse().unwrap(),
            probe_dst: "2405:200:dead::42".parse::<Ip6>().unwrap(),
            responder: "2405:200:dead::1".parse::<Ip6>().unwrap(),
            result,
            confidence,
        }
    }

    #[test]
    fn record_codec_roundtrips_every_variant() {
        let cases = [
            rec(ProbeResult::Alive, Confidence::FirstTry),
            rec(
                ProbeResult::Unreachable {
                    code: UnreachCode::AddressUnreachable,
                },
                Confidence::Retry(2),
            ),
            rec(
                ProbeResult::Unreachable {
                    code: UnreachCode::RejectRoute,
                },
                Confidence::FirstTry,
            ),
            rec(ProbeResult::TimeExceeded, Confidence::Retry(1)),
            rec(ProbeResult::Refused, Confidence::FirstTry),
            rec(ProbeResult::Invalid, Confidence::FirstTry),
        ];
        let mut wire = xmap_state::Fingerprint::new();
        for (i, r) in cases.iter().enumerate() {
            let raw = encode_record(i as u32, r);
            wire.push_bytes(&raw);
            let (ri, back) = decode_record(&raw).unwrap();
            assert_eq!(ri, i as u32);
            assert_eq!(&back, r);
        }
        // The journal's bytes on disk, pinned: a session directory written
        // by an older build must keep decoding.
        assert_eq!(
            wire.finish(),
            0x7fa6_d5a5_1ff3_4573,
            "journal record wire form changed"
        );
    }

    #[test]
    fn decode_rejects_trailing_garbage() {
        let mut raw = encode_record(0, &rec(ProbeResult::Alive, Confidence::FirstTry));
        raw.push(0xAB);
        assert!(matches!(decode_record(&raw), Err(StateError::Corrupt(_))));
    }
}

//! Checkpoint/resume orchestration: the glue between the scan engine and
//! the durable checkpoint format in `xmap-state`.
//!
//! A checkpointed scan is a **session**: a directory holding one
//! [`Manifest`] (the configuration identity) and, per worker, one journal
//! `worker-N.ckpt` of records and cuts ([`WorkerJournal`]): a cut is a
//! worker checkpoint appended to the journal, published by one fsync that
//! also makes every record before it durable. The pieces here are:
//!
//! - [`RunSink`] — attached to a [`Scanner`](crate::Scanner); journals
//!   every emitted record, publishes cuts at a slot cadence, and
//!   compacts superseded cuts away.
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
use xmap_failpoint::fs as fp;
use xmap_netsim::packet::{Network, UnreachCode};
use xmap_state::checkpoint::{publish, sync_dir, CUT_ENTRY, RECORD_ENTRY};
use xmap_state::codec::{Decoder, Encoder};
use xmap_state::wal::frame_len;
use xmap_state::{
    AbortSignal, Manifest, RunState, StateError, Wal, WorkerCheckpoint, WorkerJournal,
};
use xmap_telemetry::Snapshot;

use crate::blocklist::Blocklist;
use crate::parallel::ParallelScanner;
use crate::probe::{ProbeModule, ProbeResult};
use crate::scanner::{Confidence, Permutation, ScanConfig, ScanRecord, ScanResults, ScanStats};
use crate::telemetry::names;

/// Journal entries a degraded sink buffers in memory before giving up on
/// ever restoring durability (~14 MB of encoded records at the default
/// record size). Beyond it the sink goes lossy: the scan still completes,
/// the last durable cut stays valid, but this process can no longer close
/// the durability gap.
const MAX_PENDING_ENTRIES: usize = 1 << 18;

/// Minimum retry backoff, in send slots, once a sink degrades.
const MIN_RETRY_BACKOFF: u64 = 64;

/// Backoff growth cap: retries never space out more than this.
const MAX_RETRY_BACKOFF: u64 = 1 << 16;

/// Superseded cuts a worker journal may carry before it is compacted:
/// they must exceed both this floor and the live bytes (the records plus
/// the latest cut), so the journal stays under twice its live bytes plus
/// the floor.
const COMPACT_FLOOR: u64 = 1 << 20;

/// A worker journal's durable bytes: what compaction keeps (`live`) and
/// what it drops (`dead`).
#[derive(Debug, Default, Clone, Copy)]
struct Footprint {
    /// The records and the latest cut.
    live: u64,
    /// Superseded cuts.
    dead: u64,
    /// The latest cut.
    last_cut: u64,
}

impl Footprint {
    /// Counts one durable entry in.
    fn add(&mut self, entry: &[u8]) {
        let len = frame_len(entry.len());
        if entry.first() == Some(&CUT_ENTRY) {
            self.live -= self.last_cut;
            self.dead += self.last_cut;
            self.last_cut = len;
        }
        self.live += len;
    }
}

/// In-memory state of a sink whose storage failed: everything needed to
/// re-establish durability once the disk recovers.
#[derive(Debug)]
struct DegradedState {
    /// Journal entries (records and cuts) not yet durable, in order.
    /// Includes the entries appended-but-unsynced when the failure hit,
    /// so a recovery can rebuild the journal without losing anything.
    pending: Vec<Vec<u8>>,
    /// Cadence-counter value at which the next recovery attempt runs.
    retry_at: u64,
    /// Current backoff, in send slots. Doubles per failed attempt, capped.
    backoff: u64,
    /// The pending buffer overflowed: durability is unrecoverable in this
    /// process (the scan continues; resume re-executes from the last
    /// durable cut).
    lossy: bool,
}

/// Per-worker checkpoint writer, attached to a scanner via
/// [`Scanner::set_sink`](crate::Scanner::set_sink).
///
/// The sink owns the worker's journal, `worker-N.ckpt`: every emitted
/// record is appended to it, and a checkpoint is published by appending
/// a *cut* entry and syncing the file once, which also makes every record
/// before the cut durable (see [`WorkerJournal`]). When superseded cuts
/// outweigh the live bytes and a 1 MiB floor, the journal is rewritten as
/// its records plus the latest cut ([`Wal::rewrite`]); a compaction that
/// fails before the rename leaves the published journal as it was and is
/// retried at a later cut.
///
/// Storage failures downgrade, never abort: on the first I/O error (the
/// journal then closes at its last synced entry) the sink enters
/// **degraded mode** — entries buffer in memory and recovery is retried
/// with exponential backoff at later checkpoint boundaries. A successful
/// recovery reopens the journal ([`Wal::revive`]), re-appends the
/// buffered entries and a fresh cut, syncs, and returns the sink to
/// healthy. Drivers observe the state via [`RunSink::is_degraded`] (the
/// scanner mirrors it into the `state.durability_degraded` gauge) and
/// surface the original error at session end via [`RunSink::take_error`],
/// which reports `None` when durability was fully restored.
#[derive(Debug)]
pub struct RunSink {
    /// The journal; closed while degraded.
    wal: Wal,
    worker: u32,
    config_fp: u64,
    every: u64,
    slots: u64,
    range_index: u32,
    run_wal_start: u64,
    /// Records journalled so far, durable or not: the next cut's `wal_seq`.
    records: u64,
    /// Entries appended since the last successful sync. Kept so that a
    /// failed append or sync (which drops them from the journal) can
    /// enter degraded mode without losing anything.
    unsynced: Vec<Vec<u8>>,
    /// The journal's durable bytes, live and dead.
    footprint: Footprint,
    /// Dead bytes below which no compaction is tried: [`COMPACT_FLOOR`],
    /// raised by another floor after each failed attempt.
    compact_floor: u64,
    degraded: Option<DegradedState>,
    /// First storage error observed (kept for reporting even across a
    /// successful recovery; only surfaced while degraded).
    first_error: Option<StateError>,
    /// Successful degraded→healthy transitions.
    recoveries: u64,
}

impl RunSink {
    /// Builds a sink over a journal opened past `kept`, its durable
    /// entries, of which `records` are records. `every` is the checkpoint
    /// cadence in send slots (0 disables periodic checkpoints; range-end
    /// and abort checkpoints still happen).
    fn new(
        wal: Wal,
        worker: u32,
        every: u64,
        config_fp: u64,
        kept: &[Vec<u8>],
        records: u64,
    ) -> Self {
        let mut sink = RunSink {
            wal,
            worker,
            config_fp,
            every,
            slots: 0,
            range_index: 0,
            run_wal_start: 0,
            records,
            unsynced: Vec::new(),
            footprint: Footprint::default(),
            compact_floor: COMPACT_FLOOR,
            degraded: None,
            first_error: None,
            recoveries: 0,
        };
        for entry in kept {
            sink.footprint.add(entry);
        }
        sink
    }

    /// Starts (or resumes, with `wal_start: Some`) a range: subsequent
    /// journalled records and checkpoints carry `range_index`.
    pub fn begin_range(&mut self, range_index: u32, wal_start: Option<u64>) {
        self.range_index = range_index;
        self.run_wal_start = wal_start.unwrap_or(self.records);
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

    /// Appends one record: to the journal when healthy, to the pending
    /// buffer when degraded.
    pub fn journal(&mut self, record: &ScanRecord) {
        let entry = record_entry(self.range_index, record);
        if let Some(d) = self.degraded.as_mut() {
            if d.lossy {
                return;
            }
            if d.pending.len() >= MAX_PENDING_ENTRIES {
                d.lossy = true;
                d.pending = Vec::new();
                return;
            }
            d.pending.push(entry);
            self.records += 1;
            return;
        }
        self.records += 1;
        match self.wal.append(&entry) {
            Ok(_) => self.unsynced.push(entry),
            Err(e) => self.enter_degraded(e, Some(entry)),
        }
    }

    /// Publishes a worker checkpoint (`run: None` marks the current range
    /// complete): appends it as a cut and syncs the journal. Resets the
    /// cadence counter on success. While degraded this is a recovery
    /// attempt instead; failures back off, successes return the sink to
    /// healthy.
    pub fn write_checkpoint(&mut self, tick: u64, metrics: Snapshot, run: Option<RunState>) {
        let cut = self.cut(tick, metrics, run);
        if self.degraded.is_some() {
            self.attempt_recovery(cut);
            return;
        }
        if let Err(e) = self.wal.append(&cut) {
            self.enter_degraded(e, Some(cut));
            return;
        }
        self.unsynced.push(cut);
        if let Err(e) = self.wal.sync() {
            self.enter_degraded(e, None);
            return;
        }
        for entry in &self.unsynced {
            self.footprint.add(entry);
        }
        self.unsynced.clear();
        self.slots = 0;
        self.maybe_compact();
    }

    /// The cut entry of a checkpoint covering every record so far.
    fn cut(&self, tick: u64, metrics: Snapshot, run: Option<RunState>) -> Vec<u8> {
        WorkerCheckpoint {
            worker: self.worker,
            range_index: self.range_index,
            tick,
            wal_seq: self.records,
            config_fp: self.config_fp,
            metrics,
            run,
        }
        .cut_entry()
    }

    /// Switches to degraded mode after a storage failure, which closed
    /// the journal at its last synced entry. `extra` is an entry whose
    /// append itself failed (it joins the pending buffer).
    fn enter_degraded(&mut self, error: StateError, extra: Option<Vec<u8>>) {
        let mut pending = std::mem::take(&mut self.unsynced);
        pending.extend(extra);
        if self.first_error.is_none() {
            self.first_error = Some(error);
        }
        let backoff = self.every.max(MIN_RETRY_BACKOFF);
        self.degraded = Some(DegradedState {
            pending,
            retry_at: self.slots.saturating_add(backoff),
            backoff,
            lossy: false,
        });
    }

    /// One recovery attempt: reopen the journal at its last synced
    /// entry, re-append every pending entry and `cut`, and sync. A failed
    /// attempt closes the journal there again, so a sink that stays
    /// degraded leaves its last durable cut as the one a resume takes.
    fn attempt_recovery(&mut self, cut: Vec<u8>) {
        let d = self.degraded.as_mut().expect("called while degraded");
        if d.lossy {
            return;
        }
        d.pending.push(cut);
        let wal = &mut self.wal;
        let outcome = wal.revive().and_then(|()| {
            d.pending
                .iter()
                .try_for_each(|entry| wal.append(entry).map(drop))
                .and_then(|()| wal.sync())
        });
        match outcome {
            Ok(()) => {
                for entry in &d.pending {
                    self.footprint.add(entry);
                }
                self.degraded = None;
                self.slots = 0;
                self.recoveries += 1;
                self.maybe_compact();
            }
            Err(_) => {
                d.pending.pop();
                d.backoff = (d.backoff * 2).min(MAX_RETRY_BACKOFF);
                d.retry_at = self.slots.saturating_add(d.backoff);
            }
        }
    }

    /// Compacts the journal once its superseded cuts outweigh both the
    /// live bytes and the compaction floor.
    fn maybe_compact(&mut self) {
        let Footprint { live, dead, .. } = self.footprint;
        if dead <= live.max(self.compact_floor) {
            return;
        }
        let compacted = WorkerJournal::recover(self.wal.path()).and_then(|journal| {
            let journal = journal.ok_or_else(|| {
                let path = self.wal.path().display();
                StateError::Corrupt(format!("{path}: synced journal holds no cut"))
            })?;
            self.wal.rewrite(&journal.compacted())
        });
        match compacted {
            // Failed before the rename: the published journal and its
            // open handle are as they were. Retry once another floor's
            // worth of cuts has been superseded.
            Err(_) if !self.wal.is_closed() => self.compact_floor = dead + COMPACT_FLOOR,
            // Compacted; or failed after the rename, leaving the compacted
            // journal closed for recovery to reopen.
            result => {
                self.footprint.dead = 0;
                self.compact_floor = COMPACT_FLOOR;
                if let Err(e) = result {
                    self.enter_degraded(e, None);
                }
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
    /// later `--resume` can never mix two runs, publishes the manifest
    /// ([`publish`]), creates every worker's journal and fsyncs the
    /// directory, so the journals' first cuts need no directory sync of
    /// their own.
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
                fp::remove_file(&entry.path()).map_err(|e| {
                    StateError::io(format!("remove stale {}", entry.path().display()), e)
                })?;
            }
        }
        publish(&dir.join("manifest.json"), manifest.to_json().as_bytes())?;
        let session = ScanSession {
            dir: dir.to_path_buf(),
            manifest,
        };
        for worker in 0..session.manifest.workers {
            Wal::create(&session.worker_ckpt(worker as u32))?;
        }
        sync_dir(dir)?;
        Ok(session)
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

    /// A worker's journal: its records and cuts.
    fn worker_ckpt(&self, worker: u32) -> PathBuf {
        self.dir.join(format!("worker-{worker}.ckpt"))
    }

    /// A brand-new worker: empty journal, every range fresh.
    pub fn fresh_worker(&self, worker: u32, num_ranges: usize) -> Result<WorkerResume, StateError> {
        let wal = Wal::create(&self.worker_ckpt(worker))?;
        Ok(self.fresh(wal, worker, num_ranges))
    }

    /// A worker over an empty journal `wal`, every range fresh.
    fn fresh(&self, wal: Wal, worker: u32, num_ranges: usize) -> WorkerResume {
        let sink = RunSink::new(
            wal,
            worker,
            self.manifest.every,
            self.manifest.fingerprint(),
            &[],
            0,
        );
        WorkerResume {
            modes: (0..num_ranges).map(|_| RangeMode::Fresh).collect(),
            tick: 0,
            metrics: None,
            sink,
        }
    }

    /// Loads a worker's resume state: opens its journal just past the
    /// last intact cut ([`WorkerJournal::open`]), takes that cut as the
    /// checkpoint and the record entries before it as the journalled
    /// records, and classifies every range as skip / resume / fresh. A
    /// worker killed before its first cut simply starts over. A directory that still
    /// holds a `worker-N.wal` was written under the older session layout
    /// (separate record journal and checkpoint file) and is refused with
    /// [`StateError::Version`].
    pub fn load_worker(&self, worker: u32, num_ranges: usize) -> Result<WorkerResume, StateError> {
        let legacy = self.dir.join(format!("worker-{worker}.wal"));
        if legacy.exists() {
            return Err(StateError::Version(format!(
                "{}: a separate record journal is the older session layout, this build \
                 journals records and cuts together in worker-{worker}.ckpt; \
                 re-run without --resume",
                legacy.display()
            )));
        }
        let path = self.worker_ckpt(worker);
        let (wal, journal) = WorkerJournal::open(&path)?;
        let Some(journal) = journal else {
            return Ok(self.fresh(wal, worker, num_ranges));
        };
        let fp = self.manifest.fingerprint();
        let ckpt = journal.checkpoint(Some(fp), Some(worker))?;
        let ckpt_range = ckpt.range_index as usize;
        if ckpt_range >= num_ranges {
            return Err(StateError::Corrupt(format!(
                "checkpoint references range {ckpt_range}, session has {num_ranges} ranges"
            )));
        }
        let payloads = journal.records()?;
        if payloads.len() as u64 != ckpt.wal_seq {
            return Err(StateError::Corrupt(format!(
                "journal {} holds {} records before its last cut, the cut covers {}",
                path.display(),
                payloads.len(),
                ckpt.wal_seq
            )));
        }
        let mut per_range: Vec<Vec<ScanRecord>> = (0..num_ranges).map(|_| Vec::new()).collect();
        for payload in payloads {
            let (range_index, record) = decode_record(payload)?;
            let slot = per_range.get_mut(range_index as usize).ok_or_else(|| {
                StateError::Corrupt(format!(
                    "journalled record references range {range_index}, session has {num_ranges}"
                ))
            })?;
            slot.push(record);
        }
        if let Some(run) = &ckpt.run {
            self.check_retries(run, &path)?;
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
        let sink = RunSink::new(
            wal,
            worker,
            self.manifest.every,
            fp,
            journal.entries(),
            ckpt.wal_seq,
        );
        Ok(WorkerResume {
            modes,
            tick: ckpt.tick,
            metrics: Some(ckpt.metrics),
            sink,
        })
    }

    /// Refuses a cut whose retries the scanner's per-attempt lanes cannot
    /// hold in order: each must be a retransmission this session can
    /// send (`attempt` in `1..probes_per_target`), due no later than its
    /// backoff from the cut's tick, numbered below the cut's `retry_seq`,
    /// and the list strictly increasing in `(due_tick, seq)`, the order
    /// the lanes are refilled in.
    fn check_retries(&self, run: &RunState, path: &Path) -> Result<(), StateError> {
        let m = &self.manifest;
        let mut prev: Option<(u64, u64)> = None;
        for (i, r) in run.retries.iter().enumerate() {
            let refuse =
                |why: String| StateError::Corrupt(format!("{}: retry {i} {why}", path.display()));
            if r.attempt == 0 || u64::from(r.attempt) >= m.probes_per_target {
                return Err(refuse(format!(
                    "is attempt {}, the session sends attempts 1..{}",
                    r.attempt, m.probes_per_target
                )));
            }
            let backoff = m.rto_ticks.checked_shl(r.attempt - 1).unwrap_or(u64::MAX);
            if r.due_tick > run.now.saturating_add(backoff) {
                return Err(refuse(format!(
                    "is due at tick {}, past its backoff from tick {}",
                    r.due_tick, run.now
                )));
            }
            if r.seq >= run.retry_seq {
                return Err(refuse(format!(
                    "has seq {}, not below the cut's retry_seq {}",
                    r.seq, run.retry_seq
                )));
            }
            let key = (r.due_tick, r.seq);
            if prev.is_some_and(|p| p >= key) {
                return Err(refuse("is out of (due_tick, seq) order".into()));
            }
            prev = Some(key);
        }
        Ok(())
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

/// One checkpointed scan invocation: what the session directory records
/// beyond the scanner itself (whose worker count and configuration the
/// manifest takes from the [`ParallelScanner`] [`run_session`] drives).
#[derive(Debug)]
pub struct SessionSpec<'a> {
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
    /// any worker stopped on the abort signal or panicked; the session
    /// directory then holds the state a `resume: true` invocation
    /// continues from.
    pub results: ScanResults,
    /// Merged telemetry snapshot across workers.
    pub snapshot: Snapshot,
    /// First deferred checkpoint-I/O error from any worker's sink.
    pub sink_error: Option<StateError>,
}

/// Runs one complete checkpointed scan session on `scanner`: manifest →
/// session directory → per-worker restore → sharded execution →
/// deterministic merge. The caller builds the scanner (traced or not,
/// with exec faults or per-worker abort signals) before any run; `abort`,
/// if given, is armed on every worker on top of that. Shared by the
/// `xmap` CLI and the kill/resume integration tests so both exercise the
/// identical orchestration.
pub fn run_session<N: Network + Send>(
    spec: &SessionSpec<'_>,
    scanner: &mut ParallelScanner<N>,
    module: &(dyn ProbeModule + Sync),
    blocklist: &Blocklist,
    abort: Option<&AbortSignal>,
) -> Result<SessionOutcome, StateError> {
    let manifest = build_manifest(
        scanner.workers(),
        scanner.config(),
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

    let mut modes: Vec<Vec<RangeMode>> = Vec::with_capacity(scanner.workers());
    for w in 0..scanner.workers() {
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
    for w in 0..scanner.workers() {
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

/// The journal entry of one record: the [`RECORD_ENTRY`] tag, then the
/// range index the record belongs to, then the record
/// ([`encode_scan_record`]).
fn record_entry(range_index: u32, r: &ScanRecord) -> Vec<u8> {
    let mut e = Encoder::new();
    e.u8(RECORD_ENTRY);
    e.u32(range_index);
    encode_scan_record(&mut e, r);
    e.finish()
}

/// A record entry's payload: [`record_entry`] without its tag.
#[cfg(test)]
fn encode_record(range_index: u32, r: &ScanRecord) -> Vec<u8> {
    record_entry(range_index, r)[1..].to_vec()
}

/// Decodes a record entry's payload (its bytes after the tag).
fn decode_record(raw: &[u8]) -> Result<(u32, ScanRecord), StateError> {
    let mut d = Decoder::new(raw, "journalled record");
    let range_index = d.u32()?;
    let record = decode_scan_record(&mut d)?;
    d.expect_end()?;
    Ok((range_index, record))
}

/// The one wire layout of a [`ScanRecord`] (little-endian, same codec as
/// the checkpoint sections), shared by the session journal and the
/// campaign journal's unit entries: target prefix, `probe_dst`, `responder`,
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

    /// A cut whose retries the scanner's lanes cannot hold — an attempt
    /// the session never sends, a list out of `(due_tick, seq)` order, a
    /// sequence number at or past `retry_seq`, a deadline past its
    /// backoff — is refused by the resume with `Corrupt`, before any
    /// scanner state is built from it.
    #[test]
    fn a_cut_the_retry_lanes_cannot_hold_is_refused() {
        use xmap_netsim::world::WorldConfig;
        use xmap_netsim::{FaultPlan, KillPoint, World};

        let dir = std::env::temp_dir().join(format!("xmap-ckpt-lanes-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        let ranges: Vec<ScanRange> = vec!["2405:200::/32-64".parse().unwrap()];
        let config = ScanConfig {
            seed: 17,
            max_targets: Some(400),
            probes_per_target: 3,
            rto_ticks: 4,
            ..Default::default()
        };
        let session = |resume: bool, kill: Option<u64>| {
            let signal = AbortSignal::new();
            let kill_signal = signal.clone();
            let mut scanner = ParallelScanner::new(1, config.clone(), move |_, telemetry| {
                let plan = FaultPlan::none().seeded(0xF00D).with_forward_loss(0.3);
                let mut w = World::with_config(WorldConfig::lossless(4242, 30).with_fault(plan));
                w.set_telemetry(telemetry);
                if let Some(n) = kill {
                    let point = KillPoint {
                        after_probes: Some(n),
                        ..Default::default()
                    };
                    w.arm_kill(point, kill_signal.clone());
                }
                w
            });
            let spec = SessionSpec {
                ranges: &ranges,
                dir: &dir,
                every: 16,
                resume,
                world_seed: 5,
            };
            run_session(
                &spec,
                &mut scanner,
                &crate::IcmpEchoProbe,
                &Blocklist::allow_all(),
                Some(&signal),
            )
        };
        assert!(session(false, Some(133)).unwrap().results.interrupted);
        let path = dir.join("worker-0.ckpt");
        let mut cut = WorkerCheckpoint::read_from(&path).unwrap();
        // Rewritten alone, the cut covers no journalled record.
        cut.wal_seq = 0;
        let good = cut.run.clone().expect("killed mid-range");
        assert!(
            good.retries.len() >= 2,
            "the kill must land with retries armed"
        );
        let last = good.retries.len() - 1;

        type Break = fn(&mut RunState, usize);
        let bad: [(&str, Break); 7] = [
            ("attempt 0", |r, _| r.retries[0].attempt = 0),
            ("attempt 3 of 3 probes", |r, _| r.retries[0].attempt = 3),
            ("attempt u32::MAX", |r, last| {
                r.retries[last].attempt = u32::MAX
            }),
            ("swapped", |r, last| r.retries.swap(0, last)),
            ("repeated key", |r, _| r.retries[1] = r.retries[0].clone()),
            ("seq = retry_seq", |r, last| {
                r.retries[last].seq = r.retry_seq
            }),
            ("due past backoff", |r, last| {
                r.retries[last].due_tick = r.now + 9
            }),
        ];
        for (what, breaks) in bad {
            let mut run = good.clone();
            breaks(&mut run, last);
            WorkerCheckpoint {
                run: Some(run),
                ..cut.clone()
            }
            .write_to(&path)
            .unwrap();
            match session(true, None) {
                Err(StateError::Corrupt(msg)) => assert!(msg.contains("retry"), "{what}: {msg}"),
                other => panic!("{what}: expected Corrupt, got {:?}", other.map(|_| ())),
            }
        }
        // The same cut unbroken resumes and finishes.
        cut.write_to(&path).unwrap();
        let resumed = session(true, None).unwrap();
        assert!(!resumed.results.interrupted);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn decode_rejects_trailing_garbage() {
        let mut raw = encode_record(0, &rec(ProbeResult::Alive, Confidence::FirstTry));
        raw.push(0xAB);
        assert!(matches!(decode_record(&raw), Err(StateError::Corrupt(_))));
    }
}

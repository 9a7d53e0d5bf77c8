//! The parallel campaign executor: one worker type that steals blocks,
//! splits stragglers, and merges deterministically.
//!
//! [`Campaign::run`] walks the fifteen sample blocks sequentially on one
//! [`Scanner`]; this module runs them on N workers — each with a private
//! network replica, validator, retry queue, AIMD controller and
//! telemetry [`Registry`] — and merges the [`BlockResult`]s back in
//! Table II (profile) order, so a seeded N-worker campaign is
//! **byte-identical** to the sequential one: records, [`ScanStats`] sums
//! and the merged telemetry [`Snapshot`] included.
//!
//! # Scheduling
//!
//! The unit of work is a [`SplitUnit`]: an arithmetic sub-progression of
//! one block's permutation walk, run through the full main-scan →
//! mop-up pipeline on one worker. A block starts as a single unit, the
//! whole walk, and most blocks finish as one.
//!
//! Blocks differ wildly in cost — scan-space sizes span 2²⁸..2³², and
//! ICMPv6 token-bucket tightness decides how much mop-up work a block
//! carries — so static assignment would leave fast workers idle behind
//! the slowest block. Workers instead drain a deque-based
//! [`StealQueue`]: each owns a round-robin-seeded deque, pops its own
//! front, and steals from a victim's back once empty.
//!
//! Block granularity alone still leaves a straggler tail: once the queue
//! drains, every worker but the one holding the last (often largest)
//! block would sit idle. An idle worker therefore raises every running
//! scanner's yield flag. The gate fires for a unit that still has at
//! least 2¹⁴ walk positions ahead of it (`MIN_SPLIT_REMAINDER`): its
//! scanner stops cooperatively at the next slot boundary (in-flight
//! probes already settled), the unit is settled to its consumed prefix,
//! and the unconsumed remainder is split with
//! [`SplitUnit::split_tail`] — nested-shard math over the *remaining*
//! cursor range, so sub-shard `i` of `k` owns exactly the base walk
//! positions `≡ offset + (consumed + i)·stride (mod stride·k)` — into
//! one sub-shard per idle worker. Whoever delivers a block's last unit
//! assembles every unit's records in walk-position order (the
//! profile-order merge key extended by the sub-shard tag) and commits
//! the block.
//!
//! The floor is a constant, not an option: a split costs about a
//! millisecond (one idle poll, one manifest write, one extra scanner
//! run), so remainders under ~10⁴ probes are cheaper to finish in place,
//! and 2¹², 2¹⁴ and 2¹⁶ measured the same on the skewed campaign. Blocks
//! at or under 2¹⁴ targets therefore never split, whatever the worker
//! count. [`with_force_split_at`](ParallelCampaign::with_force_split_at)
//! forces yields at a fixed consumed count instead, idle workers or not,
//! for tests and the CI kill-point smoke.
//!
//! The schedule — who ran which block, whether and where a block split —
//! is nondeterministic under contention, but every result is keyed by
//! block index and walk position and merged in key order, which makes
//! the schedule unobservable in the output. What *does* describe the
//! schedule is the `exec.*` counter family (`exec.splits`,
//! `exec.split_shards`, `exec.worker_panics`, `exec.requeued`,
//! `exec.stalls`, `exec.poisoned`): each appears in the merged snapshot
//! only when nonzero, and all of them sit outside the byte-identity
//! envelope — compare snapshots with `exec.*` stripped.
//!
//! # Determinism envelope
//!
//! Byte-identity across worker counts and split schedules (and against
//! [`Campaign::run`]) holds because per-unit results do not depend on the
//! virtual clock at which the unit starts:
//!
//! * netsim responses are pure functions of `(probe, world seed)`; the
//!   baseline loss draw keys on addresses, not ticks,
//! * ICMPv6 token-bucket limiters initialize lazily on each device's
//!   first probe, so refill timing is *relative* to the unit's own
//!   probes, and units — of different blocks or of the same one — probe
//!   disjoint targets,
//! * the mop-up pass (retransmission ordering included) runs entirely
//!   inside the unit's owning worker.
//!
//! Time-keyed fault plans (jitter, flaky windows) fall outside the
//! envelope, exactly as for [`ParallelScanner`]. Private replicas also
//! assume campaign probes are the only traffic to the sample blocks
//! during the campaign (true for the default fault-free worlds; a
//! limiter depleted by *earlier* probes on a shared scanner is state a
//! replica cannot see).
//!
//! # Supervision
//!
//! Every unit runs inside the worker's one `catch_unwind`. A panic —
//! scripted ([`with_exec_faults`](ParallelCampaign::with_exec_faults))
//! or real — gives up on the whole block claim: the claim epoch is
//! bumped so nothing still running under it can commit, the block is
//! requeued within its attempt budget (else poisoned), and the worker
//! retires, since its scanner may hold half-mutated state. The optional
//! watchdog does the same to a claim whose probes-sent heartbeat stays
//! flat for a quantum. A requeued block re-runs from its start (or its
//! resume seed) on a surviving worker, or on the supervisor fallback
//! after join, and determinism makes the re-run identical.
//!
//! # Checkpoint layout
//!
//! [`ParallelCampaign::run_checkpointed`] keeps one directory of
//! `xmap-checkpoint/v1` sectioned files:
//!
//! ```text
//! dir/
//!   campaign.ckpt            kind `campaign-dir`: campaign fingerprint
//!   block-NN.ckpt            kind `campaign-block`: one completed block
//!                            + its telemetry delta (written by the
//!                            worker that assembled it)
//!   block-NN.inprogress      marker while block NN is claimed; removed
//!                            on completion, left behind by a kill
//!   block-NN.units.ckpt      kind `campaign-units`, only once block NN
//!                            has split: the current sub-shard layout
//!                            (offset/stride/cap + started flag per
//!                            unit), rewritten durably before new
//!                            sub-shards become claimable
//!   block-NN.unit-O-S.ckpt   kind `campaign-unit`: one completed
//!                            sub-shard's raw delta + metrics
//! ```
//!
//! The two split files are swept when the assembled block commits, so a
//! completed block looks the same whether or not it split. On resume
//! every block is classified [`Skip`](BlockMode::Skip) (checkpoint file
//! present: load, don't re-scan), [`Resume`](BlockMode::Resume) (marker
//! present: the kill hit mid-block; the partial work is discarded and
//! the block re-runs from its start inside whichever worker pops it),
//! [`Fresh`](BlockMode::Fresh) (never started) or
//! [`Split`](BlockMode::Split) (units manifest present: completed units
//! load as [`UnitMode::Skip`], the interrupted one re-runs as
//! [`UnitMode::Resume`], unstarted ones run [`UnitMode::Fresh`]). Because
//! completed blocks and units are self-contained deltas and the campaign
//! fingerprint excludes the worker count, a campaign killed under one N
//! resumes byte-identically under any other.
//!
//! [`Registry`]: xmap_telemetry::Registry
//! [`ScanStats`]: xmap::ScanStats
//! [`ParallelScanner`]: xmap::ParallelScanner
//! [`SplitUnit::split_tail`]: crate::split::SplitUnit::split_tail

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use xmap::telemetry::names;
use xmap::{
    insert_exec_counters, merge_worker_snapshots, ScanConfig, Scanner, StealQueue, Supervision,
};
use xmap_failpoint::exec::{ExecAction, ExecFaults, ExecPlan};
use xmap_failpoint::fs as fp;
use xmap_netsim::isp::SAMPLE_BLOCKS;
use xmap_netsim::packet::Network;
use xmap_state::checkpoint::{
    decode_snapshot, decode_sub_shards, encode_snapshot, encode_sub_shards, parse_fp,
    read_sectioned, write_sectioned, write_sectioned_opts, SubShardEntry,
};
use xmap_state::codec::{Decoder, Encoder};
use xmap_state::{AbortSignal, StateError, CHECKPOINT_SCHEMA};
use xmap_telemetry::{Counter, Snapshot, Telemetry};

use crate::campaign::{
    decode_block, decode_unit_raw, encode_block, encode_unit_raw, BlockResult, Campaign,
    CampaignResult, UnitRaw,
};
use crate::split::SplitUnit;

/// Default group-commit quantum: how many block checkpoints a worker
/// publishes before it batches their fsyncs (one `fsync` per file plus
/// one directory sync, instead of a per-block file-plus-rename sync).
pub const DEFAULT_GROUP_COMMIT: usize = 4;

/// Walk positions a running unit must still have ahead of it before an
/// idle worker's yield request splits it. A split costs one idle poll,
/// one manifest write and one extra scanner run — ≈ 1 ms, i.e. ≈ 10⁴
/// probes at the ledger's 90–170 ns/probe — so a shorter remainder is
/// cheaper to finish in place than to hand out. A constant rather than a
/// knob: 2¹², 2¹⁴ and 2¹⁶ measured the same on the skewed campaign.
const MIN_SPLIT_REMAINDER: u64 = 1 << 14;

/// What the resume planner decided for one sample block.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BlockMode {
    /// A completed checkpoint exists: load it, don't re-scan.
    Skip,
    /// A kill hit mid-block (in-progress marker without a checkpoint):
    /// the partial work was discarded; re-run the block from its start.
    Resume,
    /// The block was never started.
    Fresh,
    /// A kill hit mid-block *after* a split: the units manifest names
    /// the sub-shard partition, with a per-unit
    /// [`Skip`](UnitMode::Skip)/[`Resume`](UnitMode::Resume)/
    /// [`Fresh`](UnitMode::Fresh) plan. Completed units load from their
    /// unit checkpoints; the rest re-run — under **any** worker count —
    /// and the reassembled block is byte-identical.
    Split(Vec<UnitPlan>),
}

/// What the resume planner decided for one sub-shard unit of a split
/// block.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct UnitPlan {
    /// The unit's walk sub-progression.
    pub unit: SplitUnit,
    /// How the resume will treat it.
    pub mode: UnitMode,
}

/// Per-unit resume classification inside a [`BlockMode::Split`] plan.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UnitMode {
    /// A completed unit checkpoint exists: load it, don't re-scan.
    Skip,
    /// The unit was claimed but never checkpointed: the partial work is
    /// discarded and the unit re-runs from its start.
    Resume,
    /// The unit was split off but never claimed.
    Fresh,
}

/// Outcome of one parallel campaign invocation.
#[derive(Debug, Clone)]
pub struct CampaignOutcome {
    /// Completed blocks in Table II order (gaps possible when
    /// interrupted or when blocks were poisoned).
    pub result: CampaignResult,
    /// Merged telemetry across skipped-block deltas and every *committed*
    /// live block, with `scan.hit_rate_ppm` recomputed from the merged
    /// totals. Work lost to a panic, stall or abort mid-block never
    /// contributes (the checkpoint directory agrees with the snapshot by
    /// construction). Supervision counters (`exec.*`) appear only when
    /// nonzero.
    pub snapshot: Snapshot,
    /// Whether an armed abort signal stopped the campaign early (the
    /// checkpoint directory then holds everything completed so far).
    pub interrupted: bool,
    /// Block indices whose attempt budget ran out (worker panics or
    /// stalls on every try). Empty on a healthy run; the campaign
    /// completes *around* a poisoned block rather than aborting.
    pub poisoned: Vec<usize>,
}

/// Work-stealing multi-worker driver around a [`Campaign`].
///
/// # Examples
///
/// ```
/// use xmap::ScanConfig;
/// use xmap_netsim::World;
/// use xmap_periphery::{Campaign, ParallelCampaign};
///
/// let executor = ParallelCampaign::new(Campaign::new(1 << 12), 2);
/// let outcome = executor.run(&ScanConfig::default(), |_, telemetry| {
///     let mut world = World::new(7);
///     world.set_telemetry(telemetry);
///     world
/// });
/// assert_eq!(outcome.result.blocks.len(), 15);
/// ```
#[derive(Debug, Clone)]
pub struct ParallelCampaign {
    campaign: Campaign,
    workers: usize,
    supervision: Supervision,
    watchdog: Option<Duration>,
    group_commit: usize,
    exec_plan: Option<ExecPlan>,
    force_split_at: Option<u64>,
}

/// Checkpoint context threaded into `execute`: `(dir, fingerprint,
/// per-block loaded checkpoints, per-block split-manifest seeds)`.
type CkptCtx<'a> = (
    &'a Path,
    u64,
    Vec<Option<LoadedBlock>>,
    Vec<Option<BinSeed>>,
);

impl ParallelCampaign {
    /// An executor running `campaign` on `workers` threads. One worker
    /// reproduces [`Campaign::run`] exactly (the queue degenerates to
    /// FIFO block order).
    ///
    /// # Panics
    ///
    /// Panics if `workers == 0`.
    pub fn new(campaign: Campaign, workers: usize) -> Self {
        assert!(workers > 0, "need at least one worker");
        ParallelCampaign {
            campaign,
            workers,
            supervision: Supervision::default(),
            watchdog: None,
            group_commit: DEFAULT_GROUP_COMMIT,
            exec_plan: None,
            force_split_at: None,
        }
    }

    /// Forces the yield gate open once a unit has consumed `at` walk
    /// positions, idle workers or not — the deterministic split point
    /// tests and CI smokes use to exercise the split machinery under a
    /// schedule they control (the default policy only splits a unit with
    /// at least 2¹⁴ positions left, and only when a worker is actually
    /// idle).
    ///
    /// # Panics
    ///
    /// Panics if `at == 0` (a run never yields before consuming at
    /// least one index).
    pub fn with_force_split_at(mut self, at: u64) -> Self {
        assert!(at >= 1, "force-split point must be at least 1");
        self.force_split_at = Some(at);
        self
    }

    /// Overrides the supervision policy (attempt budget per block).
    pub fn with_supervision(mut self, policy: Supervision) -> Self {
        self.supervision = policy;
        self
    }

    /// Arms the stalled-worker watchdog: a worker whose probes-sent
    /// heartbeat stays flat for `quantum` is presumed hung; its claim is
    /// invalidated (a late commit is discarded) and the block requeued
    /// for a surviving worker. The quantum bounds time *without probe
    /// progress*, not block runtime — a slow block whose worker keeps
    /// sending probes is never reclaimed, so the quantum can be set
    /// aggressively without fear of spurious requeues. Off by default.
    pub fn with_watchdog(mut self, quantum: Duration) -> Self {
        self.watchdog = Some(quantum);
        self
    }

    /// Sets the group-commit quantum: each worker publishes block
    /// checkpoints with their fsync deferred, then syncs the batch (files
    /// plus directory) every `every` blocks and on retirement. `1`
    /// restores the legacy fsync-per-block behaviour; the default is
    /// [`DEFAULT_GROUP_COMMIT`]. A crash inside the deferred window can
    /// leave a published checkpoint torn — the resume planner treats a
    /// torn block checkpoint as "never completed" and re-runs the block.
    pub fn with_group_commit(mut self, every: usize) -> Self {
        self.group_commit = every.max(1);
        self
    }

    /// Arms scripted executor faults (worker panics and stalls) for the
    /// next run. Test-harness plumbing; production runs never set this.
    pub fn with_exec_faults(mut self, plan: ExecPlan) -> Self {
        self.exec_plan = Some(plan);
        self
    }

    /// Number of workers.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// The wrapped campaign.
    pub fn campaign(&self) -> &Campaign {
        &self.campaign
    }

    /// Runs the campaign across all workers and merges deterministically.
    ///
    /// `make_network(w, telemetry)` builds worker `w`'s network replica;
    /// every worker must be built over the same world seed (disjoint
    /// targets make replicas interchangeable with one shared world —
    /// see the module docs for the envelope). Each worker scans under
    /// `base` unchanged; `base.max_targets` is ignored (the campaign caps
    /// per block).
    pub fn run<N: Network + Send>(
        &self,
        base: &ScanConfig,
        make_network: impl FnMut(usize, &Telemetry) -> N,
    ) -> CampaignOutcome {
        self.execute(base, None, None, make_network)
            .expect("no checkpoint dir, no I/O to fail")
    }

    /// Runs the campaign with checkpointing in `dir` (created if missing;
    /// see the module docs for the layout). An armed `abort` signal
    /// stops every worker mid-unit; the partial unit is discarded (its
    /// block's in-progress marker stays behind) and the outcome reports
    /// `interrupted`. A later `resume: true` invocation — under **any**
    /// worker count — loads completed blocks and sub-shards, re-runs the
    /// rest, and produces a result and merged snapshot byte-identical to
    /// an uninterrupted campaign.
    ///
    /// Resuming under a different campaign or scanner configuration is
    /// a hard [`StateError::Mismatch`]; `resume: false` wipes any
    /// previous campaign state in `dir`.
    pub fn run_checkpointed<N: Network + Send>(
        &self,
        base: &ScanConfig,
        dir: &Path,
        resume: bool,
        abort: Option<&AbortSignal>,
        make_network: impl FnMut(usize, &Telemetry) -> N,
    ) -> Result<CampaignOutcome, StateError> {
        let fp = self.campaign.fingerprint_cfg(base);
        std::fs::create_dir_all(dir)
            .map_err(|e| StateError::io(format!("create campaign dir {}", dir.display()), e))?;
        let (loaded, seeds) = if resume {
            let plan = load_dir(dir, fp)?;
            let mut loaded: Vec<Option<LoadedBlock>> =
                (0..SAMPLE_BLOCKS.len()).map(|_| None).collect();
            let mut seeds: Vec<Option<BinSeed>> = (0..SAMPLE_BLOCKS.len()).map(|_| None).collect();
            for (idx, mode) in plan.iter().enumerate() {
                match mode {
                    BlockMode::Skip => loaded[idx] = Some(load_block_ckpt(dir, idx, fp)?),
                    BlockMode::Split(plans) => {
                        seeds[idx] = Some(load_bin_seed(dir, idx, fp, plans)?);
                    }
                    BlockMode::Resume | BlockMode::Fresh => {}
                }
            }
            (loaded, seeds)
        } else {
            // Fresh start: wipe stale blocks so a same-fingerprint rerun
            // can never silently skip them.
            for idx in 0..SAMPLE_BLOCKS.len() {
                let _ = std::fs::remove_file(block_path(dir, idx));
                let _ = std::fs::remove_file(marker_path(dir, idx));
                remove_split_files(dir, idx);
            }
            write_dir_manifest(dir, fp)?;
            (
                (0..SAMPLE_BLOCKS.len()).map(|_| None).collect(),
                (0..SAMPLE_BLOCKS.len()).map(|_| None).collect(),
            )
        };
        self.execute(base, Some((dir, fp, loaded, seeds)), abort, make_network)
    }

    /// Classifies every block for a resume of the campaign checkpointed
    /// in `dir` without running anything — the
    /// `Skip`/`Resume`/`Fresh`/`Split` plan
    /// [`run_checkpointed`](Self::run_checkpointed) would execute.
    pub fn resume_plan(&self, base: &ScanConfig, dir: &Path) -> Result<Vec<BlockMode>, StateError> {
        load_dir(dir, self.campaign.fingerprint_cfg(base))
    }

    /// Shared driver behind [`run`](Self::run) and
    /// [`run_checkpointed`](Self::run_checkpointed). `ckpt` carries
    /// `(dir, fingerprint, per-block loaded checkpoints, per-block
    /// split-manifest seeds)` when checkpointing is on.
    fn execute<N: Network + Send>(
        &self,
        base: &ScanConfig,
        ckpt: Option<CkptCtx<'_>>,
        abort: Option<&AbortSignal>,
        mut make_network: impl FnMut(usize, &Telemetry) -> N,
    ) -> Result<CampaignOutcome, StateError> {
        let (dir, fp_id, loaded, mut seeds_by_idx) = match ckpt {
            Some((dir, fp, loaded, seeds)) => (Some(dir), fp, loaded, seeds),
            None => (
                None,
                0,
                (0..SAMPLE_BLOCKS.len()).map(|_| None).collect(),
                (0..SAMPLE_BLOCKS.len()).map(|_| None).collect::<Vec<_>>(),
            ),
        };
        // Only non-loaded blocks enter the queue, seeded round-robin in
        // block order so one worker reproduces the sequential walk.
        let pending: Vec<usize> = (0..SAMPLE_BLOCKS.len())
            .filter(|i| loaded[*i].is_none())
            .collect();
        let queue = StealQueue::new(pending.len(), self.workers);
        let slots: Vec<SlotState> = (0..pending.len()).map(|_| SlotState::default()).collect();
        let shared = SplitShared {
            bins: (0..pending.len()).map(|_| BlockBin::default()).collect(),
            seeds: pending.iter().map(|i| seeds_by_idx[*i].take()).collect(),
            yield_flags: (0..self.workers)
                .map(|_| Arc::new(AtomicBool::new(false)))
                .collect(),
            waiters: AtomicUsize::new(0),
            busy: AtomicUsize::new(0),
            outstanding: AtomicUsize::new(pending.len()),
            force_at: self.force_split_at,
        };
        let board: Vec<Mutex<Option<Claim>>> =
            (0..self.workers).map(|_| Mutex::new(None)).collect();
        let faults = self.exec_plan.as_ref().map(ExecPlan::armed);
        let counters = ExecCounters::default();
        let active = AtomicUsize::new(self.workers);
        let max_attempts = self.supervision.max_attempts.max(1);
        let group = self.group_commit.max(1);
        let mut scanners: Vec<Scanner<N>> = (0..self.workers)
            .map(|w| {
                let telemetry = Telemetry::new();
                let network = make_network(w, &telemetry);
                let mut scanner = Scanner::with_telemetry(network, base.clone(), telemetry);
                if let Some(signal) = abort {
                    scanner.set_abort(signal.clone());
                }
                scanner
            })
            .collect();

        let outs: Vec<Result<WorkerOut, StateError>> = std::thread::scope(|scope| {
            let watchdog = self.watchdog.map(|quantum| {
                let (board, slots, queue) = (&board, &slots, &queue);
                let (active, counters) = (&active, &counters);
                scope.spawn(move || {
                    run_watchdog(quantum, board, slots, queue, active, counters, max_attempts)
                })
            });
            let handles: Vec<_> = scanners
                .iter_mut()
                .enumerate()
                .map(|(w, scanner)| {
                    let (queue, pending, slots, board) = (&queue, &pending, &slots, &board);
                    let campaign = &self.campaign;
                    let faults = faults.as_ref();
                    let (counters, active, shared) = (&counters, &active, &shared);
                    scope.spawn(move || {
                        let sent = scanner.telemetry().registry.counter(names::SENT);
                        let result = Worker {
                            w,
                            scanner,
                            campaign,
                            queue,
                            pending,
                            slots,
                            board,
                            faults,
                            counters,
                            max_attempts,
                            group,
                            dir,
                            fp_id,
                            shared,
                            sent,
                            units: 0,
                            to_sync: Vec::new(),
                            out: WorkerOut::default(),
                        }
                        .run();
                        active.fetch_sub(1, Ordering::AcqRel);
                        result
                    })
                })
                .collect();
            // Joining in worker order keeps error reporting (and the
            // merge below) deterministic. A panic that escaped the
            // supervisor would be an executor bug; surface it as an
            // empty worker rather than tearing down the scope.
            let outs: Vec<Result<WorkerOut, StateError>> = handles
                .into_iter()
                .map(|h| match h.join() {
                    Ok(r) => r,
                    Err(_) => Ok(WorkerOut::default()),
                })
                .collect();
            if let Some(h) = watchdog {
                let _ = h.join();
            }
            outs
        });

        let interrupted = abort.is_some_and(AbortSignal::is_set);
        let mut worker_outs: Vec<WorkerOut> = Vec::with_capacity(outs.len());
        for out in outs {
            worker_outs.push(out?);
        }

        // Supervisor fallback: a block can be left neither done nor
        // poisoned when its panicked owner requeued it and every other
        // worker had already retired. Run those inline on fresh
        // single-use scanners until they commit or exhaust the budget.
        let mut supervisor = WorkerOut::default();
        if !interrupted {
            let mut sup_units = 0u64;
            for slot in 0..pending.len() {
                let state = &slots[slot];
                while !state.done.load(Ordering::Acquire) && !state.poisoned.load(Ordering::Acquire)
                {
                    if state.attempts.load(Ordering::Acquire) >= max_attempts {
                        state.poisoned.store(true, Ordering::Release);
                        break;
                    }
                    state.attempts.fetch_add(1, Ordering::AcqRel);
                    let idx = pending[slot];
                    let unit = sup_units;
                    sup_units += 1;
                    // The supervisor consults the fault script under its
                    // own worker index (`self.workers`) so torture tests
                    // can poison a block even under one worker. A Stall
                    // is ignored here — there is nobody left to rescue a
                    // hung supervisor.
                    let action = faults
                        .as_ref()
                        .and_then(|f| f.on_unit(self.workers, unit))
                        .filter(|a| *a == ExecAction::Panic);
                    let telemetry = Telemetry::new();
                    let network = make_network(self.workers, &telemetry);
                    let mut scanner = Scanner::with_telemetry(network, base.clone(), telemetry);
                    if let Some(signal) = abort {
                        scanner.set_abort(signal.clone());
                    }
                    let campaign = &self.campaign;
                    let attempt = catch_unwind(AssertUnwindSafe(
                        || -> Result<Option<(BlockResult, Snapshot)>, StateError> {
                            if action.is_some() {
                                panic!("injected executor fault: supervisor panics on unit {unit}");
                            }
                            if let Some(dir) = dir {
                                write_marker(dir, idx)?;
                            }
                            let block = campaign.run_block(&mut scanner, &SAMPLE_BLOCKS[idx]);
                            if scanner.is_aborted() {
                                return Ok(None);
                            }
                            // Fresh scanner: the baseline is empty, the
                            // delta is its whole registry.
                            let delta = scanner.telemetry().registry.snapshot();
                            Ok(Some((block, delta)))
                        },
                    ));
                    match attempt {
                        Ok(Ok(Some((block, delta)))) => {
                            state.done.store(true, Ordering::Release);
                            if let Some(dir) = dir {
                                write_block_ckpt(dir, fp_id, idx, &block, &delta, true)?;
                                remove_split_files(dir, idx);
                                let _ = std::fs::remove_file(marker_path(dir, idx));
                            }
                            supervisor.committed.merge(&delta);
                            supervisor.done.push((idx, block));
                        }
                        Ok(Ok(None)) => break, // aborted mid-block
                        Ok(Err(e)) => return Err(e),
                        Err(_) => {
                            counters.panics.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                }
            }
        }

        let poisoned: Vec<usize> = (0..pending.len())
            .filter(|&slot| slots[slot].poisoned.load(Ordering::Acquire))
            .map(|slot| pending[slot])
            .collect();

        // Merge: loaded blocks and committed live blocks, in block-index
        // order — which is Table II (profile) order, the sequential
        // walk's order.
        let mut tagged: Vec<(usize, BlockResult)> = Vec::with_capacity(SAMPLE_BLOCKS.len());
        let mut skipped_deltas = Vec::new();
        for (idx, loaded_block) in loaded.into_iter().enumerate() {
            if let Some(l) = loaded_block {
                tagged.push((idx, l.block));
                skipped_deltas.push(l.metrics);
            }
        }
        let mut committed_deltas = Vec::with_capacity(worker_outs.len() + 1);
        for out in worker_outs {
            tagged.extend(out.done);
            committed_deltas.push(out.committed);
        }
        tagged.extend(supervisor.done);
        committed_deltas.push(supervisor.committed);
        tagged.sort_by_key(|(idx, _)| *idx);
        let result = CampaignResult {
            blocks: tagged.into_iter().map(|(_, b)| b).collect(),
        };
        // Committed deltas only: sums telescope to exactly the raw
        // registries on a fault-free run (byte-identical merge), and
        // exclude in-flight garbage from panicked/stalled/aborted blocks
        // otherwise — the snapshot always agrees with the checkpoint
        // directory.
        let mut snapshot =
            merge_worker_snapshots(skipped_deltas.into_iter().chain(committed_deltas));
        insert_exec_counters(
            &mut snapshot,
            counters.panics.load(Ordering::Acquire),
            counters.requeued.load(Ordering::Acquire),
            poisoned.len(),
        );
        let stalls = counters.stalls.load(Ordering::Acquire);
        if stalls > 0 {
            snapshot
                .counters
                .insert(names::EXEC_STALLS.to_owned(), stalls);
        }
        let splits = counters.splits.load(Ordering::Acquire);
        if splits > 0 {
            snapshot
                .counters
                .insert(names::EXEC_SPLITS.to_owned(), splits);
        }
        let split_shards = counters.split_shards.load(Ordering::Acquire);
        if split_shards > 0 {
            snapshot
                .counters
                .insert(names::EXEC_SPLIT_SHARDS.to_owned(), split_shards);
        }
        Ok(CampaignOutcome {
            result,
            snapshot,
            interrupted,
            poisoned,
        })
    }
}

/// Per-block supervision state shared by workers, the watchdog and the
/// supervisor fallback.
#[derive(Debug, Default)]
struct SlotState {
    /// Times the block has been claimed (spawned attempts).
    attempts: AtomicU32,
    /// Claim epoch: bumped to invalidate an in-flight claim (watchdog
    /// requeue, panicked owner). A commit whose claim epoch is stale is
    /// discarded — determinism makes the requeued re-run identical.
    epoch: AtomicU64,
    /// Set exactly once, by the attempt that commits the block.
    done: AtomicBool,
    /// Attempt budget exhausted; the campaign completes around it.
    poisoned: AtomicBool,
    /// Whether [`SplitShared::outstanding`] has been decremented for this
    /// slot (done or poisoned) — swap-once guard.
    retired: AtomicBool,
}

/// What a worker currently holds, for the watchdog's staleness check.
///
/// `sent`/`last_sent` are the heartbeat: a live handle on the owning
/// worker's `scan.sent` counter plus the value last observed by the
/// watchdog. Any probe sent since the previous tick proves the owner
/// alive and resets its quantum clock, so a slow-but-progressing block
/// is never spuriously reclaimed — only a worker that stops sending
/// probes altogether for a full quantum counts as hung.
#[derive(Debug, Clone)]
struct Claim {
    slot: usize,
    epoch: u64,
    since: Instant,
    sent: Counter,
    last_sent: u64,
}

/// Supervision tallies shared across threads, exported as `exec.*`
/// counters (only when nonzero).
#[derive(Debug, Default)]
struct ExecCounters {
    panics: AtomicU64,
    requeued: AtomicU64,
    stalls: AtomicU64,
    /// Yield-and-split events (one per unit that yielded).
    splits: AtomicU64,
    /// Sub-shard units created by those splits.
    split_shards: AtomicU64,
}

/// One worker's contribution: committed blocks and the merged telemetry
/// deltas of exactly those blocks.
#[derive(Debug, Default)]
struct WorkerOut {
    done: Vec<(usize, BlockResult)>,
    committed: Snapshot,
}

/// The watchdog loop: every tick, scan the progress board for claims
/// whose probes-sent heartbeat has been flat for `quantum`. A claim
/// showing any probe progress since the previous tick has its clock
/// reset — only a worker that sends nothing for a full quantum is
/// presumed hung, and its claim given up on ([`invalidate_claim`]: the
/// hung owner's late commit will be discarded). Exits once every worker
/// has retired.
fn run_watchdog(
    quantum: Duration,
    board: &[Mutex<Option<Claim>>],
    slots: &[SlotState],
    queue: &StealQueue,
    active: &AtomicUsize,
    counters: &ExecCounters,
    max_attempts: u32,
) {
    let tick = (quantum / 4).clamp(Duration::from_millis(1), Duration::from_millis(50));
    while active.load(Ordering::Acquire) > 0 {
        std::thread::sleep(tick);
        for (w, entry) in board.iter().enumerate() {
            let mut cur = entry.lock().expect("progress board poisoned");
            let Some(claim) = cur.as_mut() else { continue };
            // Heartbeat first: any probe sent since the last observation
            // proves the owner alive, however slowly the block is going,
            // and restarts its quantum clock.
            let sent_now = claim.sent.get();
            if sent_now != claim.last_sent {
                claim.last_sent = sent_now;
                claim.since = Instant::now();
                continue;
            }
            if claim.since.elapsed() < quantum {
                continue;
            }
            let (slot, epoch) = (claim.slot, claim.epoch);
            if !slots[slot].done.load(Ordering::Acquire)
                && invalidate_claim(slot, epoch, w, slots, queue, counters, max_attempts)
            {
                counters.stalls.fetch_add(1, Ordering::Relaxed);
            }
            *cur = None;
        }
    }
}

/// The unit-level state every worker shares: each block's evolving
/// partition into [`SplitUnit`]s and the idle/busy accounting that
/// drives yield requests and retirement.
struct SplitShared {
    /// One bin per queue slot, holding that block's unit partition.
    bins: Vec<BlockBin>,
    /// Resume seeds per slot (loaded unit checkpoints + re-run units).
    seeds: Vec<Option<BinSeed>>,
    /// Per-worker cooperative yield flags; idle workers broadcast-set
    /// them, a worker acting on its own flag clears it.
    yield_flags: Vec<Arc<AtomicBool>>,
    /// Workers currently spinning idle — the split fan-out factor.
    waiters: AtomicUsize,
    /// Units currently claimed and running anywhere. Idle workers only
    /// retire once this reaches zero with nothing left to claim.
    busy: AtomicUsize,
    /// Slots not yet committed or poisoned.
    outstanding: AtomicUsize,
    /// Deterministic forced yield point (tests/CI).
    force_at: Option<u64>,
}

/// One block's split state: the evolving unit partition of its
/// permutation walk plus the raw outputs delivered so far.
#[derive(Default)]
struct BlockBin {
    inner: Mutex<BinInner>,
}

#[derive(Default)]
struct BinInner {
    /// Claim epoch these contents belong to (mirrors the slot's epoch at
    /// block-claim time); deliveries under any other epoch are dropped.
    epoch: u64,
    /// Bin initialized by a block claim and not yet assembled.
    open: bool,
    /// Whether the block has ever split (unit checkpoints only then).
    split: bool,
    /// Units waiting to be claimed.
    pending: Vec<SplitUnit>,
    /// Units currently running on some worker.
    active: usize,
    /// Delivered unit outputs with their telemetry deltas.
    done: Vec<(UnitRaw, Snapshot)>,
    /// The manifest view: the complete current partition, offset-sorted.
    layout: Vec<SubShardEntry>,
}

/// What a [`BlockMode::Split`] resume plan loads into a bin before the
/// block is re-claimed.
#[derive(Clone, Default)]
struct BinSeed {
    done: Vec<(UnitRaw, Snapshot)>,
    rerun: Vec<SplitUnit>,
    layout: Vec<SubShardEntry>,
}

/// What one unit run produced (the `catch_unwind` payload).
enum UnitRun {
    /// Clean finish: the raw output and its telemetry delta.
    Done(Box<(UnitRaw, Snapshot)>),
    /// Abort signal hit mid-unit; the partial work is discarded.
    Aborted,
    /// The claim was invalidated mid-run (watchdog requeue, panicked
    /// sibling unit); the work is discarded, the worker stays healthy.
    Stale,
}

fn entry_of(unit: SplitUnit, started: bool) -> SubShardEntry {
    SubShardEntry {
        offset: unit.offset,
        stride: unit.stride,
        cap: unit.cap,
        started,
    }
}

fn unit_of(entry: &SubShardEntry) -> SplitUnit {
    SplitUnit {
        offset: entry.offset,
        stride: entry.stride,
        cap: entry.cap,
    }
}

/// Decrements `outstanding` exactly once per slot, however many times
/// the done/poisoned transition is observed.
fn retire_slot(state: &SlotState, shared: &SplitShared) {
    if !state.retired.swap(true, Ordering::AcqRel) {
        shared.outstanding.fetch_sub(1, Ordering::AcqRel);
    }
}

/// Gives up on the claim `slot` holds under `epoch`: bumps the epoch —
/// so nothing still running under the claim can commit — and requeues
/// the block on worker `w`'s deque within its attempt budget, else
/// poisons it. Only one invalidator can win the epoch CAS, so a claim is
/// requeued exactly once however many observers (the watchdog, a
/// panicked owner, a panicked sibling unit) give up on it; returns
/// whether this caller was the one.
fn invalidate_claim(
    slot: usize,
    epoch: u64,
    w: usize,
    slots: &[SlotState],
    queue: &StealQueue,
    counters: &ExecCounters,
    max_attempts: u32,
) -> bool {
    let state = &slots[slot];
    if state
        .epoch
        .compare_exchange(epoch, epoch + 1, Ordering::AcqRel, Ordering::Acquire)
        .is_err()
    {
        return false;
    }
    if state.attempts.load(Ordering::Acquire) < max_attempts {
        counters.requeued.fetch_add(1, Ordering::Relaxed);
        queue.push(w, slot);
    } else {
        state.poisoned.store(true, Ordering::Release);
    }
    true
}

/// The campaign worker. Blocks are claimed off the [`StealQueue`]; each
/// runs as a series of [`SplitUnit`]s through its slot's [`BlockBin`] —
/// a series of one, the whole block, unless it splits. When the queue
/// drains, an idle worker broadcasts yield requests; a running unit
/// with at least [`MIN_SPLIT_REMAINDER`] positions left yields, is
/// settled to its consumed prefix, and its unconsumed remainder is split
/// into nested sub-shards pushed onto the bin, where idle workers claim
/// them. Whoever delivers a bin's last unit reassembles the block
/// ([`Campaign::assemble`]) and commits it through the epoch-CAS
/// protocol — so the merged result is byte-identical to the sequential
/// walk for any worker count and any split schedule.
struct Worker<'a, N: Network> {
    w: usize,
    scanner: &'a mut Scanner<N>,
    campaign: &'a Campaign,
    queue: &'a StealQueue,
    pending: &'a [usize],
    slots: &'a [SlotState],
    board: &'a [Mutex<Option<Claim>>],
    faults: Option<&'a ExecFaults>,
    counters: &'a ExecCounters,
    max_attempts: u32,
    group: usize,
    dir: Option<&'a Path>,
    fp_id: u64,
    shared: &'a SplitShared,
    /// This worker's probes-sent counter — the heartbeat the watchdog
    /// reads. The handle is shared with the scanner's registry, so the
    /// watchdog sees increments the moment they happen.
    sent: Counter,
    /// Units claimed so far — the index the fault script matches on.
    units: u64,
    /// Published block checkpoints awaiting their group-commit fsync.
    to_sync: Vec<PathBuf>,
    out: WorkerOut,
}

impl<N: Network> Worker<'_, N> {
    fn run(mut self) -> Result<WorkerOut, StateError> {
        let flag = self.shared.yield_flags[self.w].clone();
        self.scanner
            .set_yield_request(Some(flag), MIN_SPLIT_REMAINDER);
        let verdict = self.main_loop();
        // Group-commit tail: make every published-but-unsynced
        // checkpoint durable before retiring, whatever the exit path.
        let flushed = match self.dir {
            Some(d) => flush_group(d, &mut self.to_sync),
            None => Ok(()),
        };
        verdict?;
        flushed?;
        Ok(self.out)
    }

    fn main_loop(&mut self) -> Result<(), StateError> {
        loop {
            if self.scanner.is_aborted() {
                return Ok(());
            }
            if let Some(slot) = self.queue.pop(self.w) {
                if let Some(epoch) = self.claim_block(slot)? {
                    if !self.drain_bin(slot, epoch)? {
                        return Ok(());
                    }
                }
                continue;
            }
            if let Some((slot, unit, epoch)) = self.claim_helper_unit()? {
                if !self.run_unit(slot, unit, epoch)? {
                    return Ok(());
                }
                continue;
            }
            // Nothing claimable. Sweep poisoned slots (a watchdog or a
            // panicked peer poisons without retiring the slot), then
            // decide whether to wait.
            for state in self.slots {
                if state.poisoned.load(Ordering::Acquire) {
                    retire_slot(state, self.shared);
                }
            }
            if self.shared.outstanding.load(Ordering::Acquire) == 0 {
                return Ok(());
            }
            if self.shared.busy.load(Ordering::Acquire) == 0 {
                // Outstanding blocks with nothing in flight are
                // unreachable from here (a stalled or panicked owner);
                // the supervisor fallback finishes them after join.
                return Ok(());
            }
            self.shared.waiters.fetch_add(1, Ordering::AcqRel);
            for flag in &self.shared.yield_flags {
                flag.store(true, Ordering::Relaxed);
            }
            std::thread::sleep(Duration::from_micros(200));
            self.shared.waiters.fetch_sub(1, Ordering::AcqRel);
        }
    }

    /// Claims `slot` off the queue: writes the in-progress marker and
    /// initializes the bin (from its resume seed, else the whole-block
    /// unit). Returns the claim epoch, or `None` for a stale requeue —
    /// the block committed (or was poisoned) between the push and this
    /// pop.
    fn claim_block(&mut self, slot: usize) -> Result<Option<u64>, StateError> {
        let state = &self.slots[slot];
        if state.done.load(Ordering::Acquire) || state.poisoned.load(Ordering::Acquire) {
            return Ok(None);
        }
        let idx = self.pending[slot];
        state.attempts.fetch_add(1, Ordering::AcqRel);
        let epoch = state.epoch.load(Ordering::Acquire);
        if let Some(dir) = self.dir {
            write_marker(dir, idx)?;
        }
        let mut bin = self.shared.bins[slot]
            .inner
            .lock()
            .expect("split bin poisoned");
        bin.epoch = epoch;
        bin.open = true;
        bin.active = 0;
        match self.shared.seeds[slot].clone() {
            Some(seed) => {
                bin.done = seed.done;
                bin.pending = seed.rerun;
                bin.layout = seed.layout;
            }
            None => {
                let whole = SplitUnit::whole(self.campaign.block_cap(&SAMPLE_BLOCKS[idx]));
                bin.done = Vec::new();
                bin.pending = vec![whole];
                bin.layout = vec![entry_of(whole, false)];
            }
        }
        bin.split = bin.layout.len() > 1;
        Ok(Some(epoch))
    }

    /// Runs units of `slot`'s bin until none are claimable, then tries
    /// to assemble (covers the all-units-preloaded resume case). Returns
    /// `false` when the worker must retire (abort or panicked scanner).
    fn drain_bin(&mut self, slot: usize, epoch: u64) -> Result<bool, StateError> {
        loop {
            match self.claim_from_bin(slot)? {
                Some((unit, unit_epoch)) => {
                    if !self.run_unit(slot, unit, unit_epoch)? {
                        return Ok(false);
                    }
                }
                None => {
                    // Helpers hold the tail (they will assemble), or the
                    // bin is already complete.
                    self.try_assemble(slot, epoch)?;
                    return Ok(true);
                }
            }
        }
    }

    /// Claims one pending unit from `slot`'s bin, if its epoch is still
    /// current. Marks the unit started in the manifest and bumps `busy`
    /// under the bin lock, so an idle worker observing `busy == 0` can
    /// never race past a unit about to run.
    fn claim_from_bin(&mut self, slot: usize) -> Result<Option<(SplitUnit, u64)>, StateError> {
        let state = &self.slots[slot];
        if state.done.load(Ordering::Acquire) || state.poisoned.load(Ordering::Acquire) {
            return Ok(None);
        }
        let epoch = state.epoch.load(Ordering::Acquire);
        let idx = self.pending[slot];
        let mut bin = self.shared.bins[slot]
            .inner
            .lock()
            .expect("split bin poisoned");
        if !bin.open || bin.epoch != epoch || bin.pending.is_empty() {
            return Ok(None);
        }
        let unit = bin.pending.remove(0);
        bin.active += 1;
        self.shared.busy.fetch_add(1, Ordering::AcqRel);
        let mark = bin
            .layout
            .iter_mut()
            .find(|e| unit_of(e) == unit && !e.started);
        if let Some(entry) = mark {
            entry.started = true;
            if bin.split {
                if let Some(dir) = self.dir {
                    if let Err(e) = write_units_manifest(dir, self.fp_id, idx, &bin.layout) {
                        // Undo the claim so other workers can't hang on
                        // a busy count that will never drain.
                        bin.pending.insert(0, unit);
                        bin.active -= 1;
                        self.shared.busy.fetch_sub(1, Ordering::AcqRel);
                        return Err(e);
                    }
                }
            }
        }
        Ok(Some((unit, epoch)))
    }

    /// Scans bins lowest-slot-first for a claimable sub-unit.
    fn claim_helper_unit(&mut self) -> Result<Option<(usize, SplitUnit, u64)>, StateError> {
        for slot in 0..self.slots.len() {
            if let Some((unit, epoch)) = self.claim_from_bin(slot)? {
                return Ok(Some((slot, unit, epoch)));
            }
        }
        Ok(None)
    }

    /// Runs one claimed unit: main pass (yield-capable), split on yield,
    /// per-unit mop-up, delivery, and assembly when it was the last
    /// unit. Returns `false` when the worker must retire.
    fn run_unit(&mut self, slot: usize, unit: SplitUnit, epoch: u64) -> Result<bool, StateError> {
        let w = self.w;
        let idx = self.pending[slot];
        let profile = &SAMPLE_BLOCKS[idx];
        let (shared, counters, dir, fp_id, campaign, slots) = (
            self.shared,
            self.counters,
            self.dir,
            self.fp_id,
            self.campaign,
            self.slots,
        );
        let unit_no = self.units;
        self.units += 1;
        *self.board[w].lock().expect("progress board poisoned") = Some(Claim {
            slot,
            epoch,
            since: Instant::now(),
            sent: self.sent.clone(),
            last_sent: self.sent.get(),
        });
        let action = self.faults.and_then(|f| f.on_unit(w, unit_no));
        if action == Some(ExecAction::Stall) {
            // Scripted stall: go silent still holding the claim — the
            // board entry and the bin's `active` count stay set, as a
            // hung thread's would. Only `busy` is given back, so peers
            // retire instead of waiting on a unit that will never finish.
            // With a watchdog armed the claim is invalidated and the
            // block requeued after one quantum; without one the
            // supervisor fallback picks the block up after join.
            shared.busy.fetch_sub(1, Ordering::AcqRel);
            return Ok(false);
        }
        let scanner = &mut *self.scanner;
        let attempt = catch_unwind(AssertUnwindSafe(move || -> Result<UnitRun, StateError> {
            if action == Some(ExecAction::Panic) {
                panic!("injected executor fault: worker {w} panics on unit {unit_no}");
            }
            let baseline = scanner.telemetry().registry.snapshot();
            scanner.set_force_yield_at(shared.force_at);
            let mut raw = campaign.unit_main(scanner, profile, unit);
            scanner.set_force_yield_at(None);
            if raw.interrupted {
                return Ok(UnitRun::Aborted);
            }
            if raw.yielded {
                // Split point: settle this unit to its consumed
                // prefix and partition the unconsumed remainder into
                // one nested sub-shard per idle worker (at least 2).
                let k = (shared.waiters.load(Ordering::Acquire) as u64 + 1).max(2);
                let (settled, parts) = raw.unit.split_tail(raw.consumed, k);
                let stale = {
                    let mut bin = shared.bins[slot].inner.lock().expect("split bin poisoned");
                    if !bin.open
                        || bin.epoch != epoch
                        || slots[slot].epoch.load(Ordering::Acquire) != epoch
                    {
                        true
                    } else {
                        bin.layout.retain(|e| unit_of(e) != unit);
                        bin.layout.push(entry_of(settled, true));
                        bin.layout.extend(parts.iter().map(|p| entry_of(*p, false)));
                        bin.layout.sort_by_key(|e| e.offset);
                        bin.split = true;
                        // The manifest must be durable before any
                        // part becomes claimable, so a kill can
                        // never orphan a unit checkpoint.
                        if let Some(dir) = dir {
                            write_units_manifest(dir, fp_id, idx, &bin.layout)?;
                        }
                        bin.pending.extend(parts.iter().copied());
                        counters.splits.fetch_add(1, Ordering::Relaxed);
                        counters
                            .split_shards
                            .fetch_add(parts.len() as u64, Ordering::Relaxed);
                        false
                    }
                };
                shared.yield_flags[w].store(false, Ordering::Relaxed);
                if stale {
                    return Ok(UnitRun::Stale);
                }
                raw.unit = settled;
            }
            campaign.unit_mop_up(scanner, &mut raw);
            if scanner.is_aborted() {
                return Ok(UnitRun::Aborted);
            }
            let delta = scanner.telemetry().registry.snapshot().diff(&baseline);
            Ok(UnitRun::Done(Box::new((raw, delta))))
        }));
        *self.board[w].lock().expect("progress board poisoned") = None;
        let release_unit = |requeue: Option<SplitUnit>| {
            let mut bin = self.shared.bins[slot]
                .inner
                .lock()
                .expect("split bin poisoned");
            if bin.open && bin.epoch == epoch {
                bin.active = bin.active.saturating_sub(1);
                if let Some(u) = requeue {
                    bin.pending.push(u);
                }
            }
            self.shared.busy.fetch_sub(1, Ordering::AcqRel);
        };
        match attempt {
            Ok(Ok(UnitRun::Done(payload))) => {
                let (raw, delta) = *payload;
                let split_now = {
                    let bin = self.shared.bins[slot]
                        .inner
                        .lock()
                        .expect("split bin poisoned");
                    bin.open && bin.epoch == epoch && bin.split
                };
                if split_now {
                    if let Some(dir) = self.dir {
                        if let Err(e) = write_unit_ckpt(dir, self.fp_id, idx, &raw, &delta) {
                            release_unit(Some(raw.unit));
                            return Err(e);
                        }
                    }
                }
                let complete = {
                    let mut bin = self.shared.bins[slot]
                        .inner
                        .lock()
                        .expect("split bin poisoned");
                    if bin.open && bin.epoch == epoch {
                        bin.done.push((raw, delta));
                        bin.active -= 1;
                        bin.pending.is_empty() && bin.active == 0
                    } else {
                        false
                    }
                };
                self.shared.busy.fetch_sub(1, Ordering::AcqRel);
                if complete {
                    self.try_assemble(slot, epoch)?;
                }
                Ok(true)
            }
            Ok(Ok(UnitRun::Stale)) => {
                // The block moved on without us; nothing to repair beyond
                // the busy count (a re-claim resets `active`).
                self.shared.busy.fetch_sub(1, Ordering::AcqRel);
                Ok(true)
            }
            Ok(Ok(UnitRun::Aborted)) => {
                release_unit(None);
                Ok(false)
            }
            Ok(Err(e)) => {
                release_unit(Some(unit));
                Err(e)
            }
            Err(_) => {
                // Panic mid-unit, scripted or real. Give up on the whole
                // block claim — nothing this attempt half-did, and no
                // sibling unit still running under it, can commit — so
                // the block re-runs from its seed on a surviving worker
                // (or the supervisor fallback), and retire: this scanner
                // may hold half-mutated per-unit state.
                self.counters.panics.fetch_add(1, Ordering::Relaxed);
                invalidate_claim(
                    slot,
                    epoch,
                    w,
                    slots,
                    self.queue,
                    self.counters,
                    self.max_attempts,
                );
                // After the requeue, so a peer that sees nothing in
                // flight also sees the block back on the queue.
                self.shared.busy.fetch_sub(1, Ordering::AcqRel);
                Ok(false)
            }
        }
    }

    /// If `slot`'s bin is complete under `epoch`, reassembles the block
    /// from its unit outputs and commits it: the claim must still carry
    /// our epoch (nobody gave up on it) and the done CAS must win (no
    /// requeued copy got there first). A discarded commit is pure wasted
    /// work — the surviving copy produces the identical result.
    fn try_assemble(&mut self, slot: usize, epoch: u64) -> Result<(), StateError> {
        let idx = self.pending[slot];
        let state = &self.slots[slot];
        let taken = {
            let mut bin = self.shared.bins[slot]
                .inner
                .lock()
                .expect("split bin poisoned");
            if !bin.open || bin.epoch != epoch || !bin.pending.is_empty() || bin.active != 0 {
                None
            } else {
                bin.open = false;
                Some(std::mem::take(&mut bin.done))
            }
        };
        let Some(mut done) = taken else {
            return Ok(());
        };
        done.sort_by_key(|(raw, _)| raw.unit.offset);
        let mut delta = Snapshot::default();
        let mut raws = Vec::with_capacity(done.len());
        for (raw, d) in done {
            delta.merge(&d);
            raws.push(raw);
        }
        let block = self
            .campaign
            .assemble(&SAMPLE_BLOCKS[idx], raws, self.scanner.tracer());
        let committed = state.epoch.load(Ordering::Acquire) == epoch
            && state
                .done
                .compare_exchange(false, true, Ordering::AcqRel, Ordering::Acquire)
                .is_ok();
        if !committed {
            return Ok(());
        }
        retire_slot(state, self.shared);
        if let Some(dir) = self.dir {
            write_block_ckpt(dir, self.fp_id, idx, &block, &delta, self.group <= 1)?;
            if self.group > 1 {
                self.to_sync.push(block_path(dir, idx));
                if self.to_sync.len() >= self.group {
                    flush_group(dir, &mut self.to_sync)?;
                }
            }
            remove_split_files(dir, idx);
            let _ = std::fs::remove_file(marker_path(dir, idx));
        }
        self.out.committed.merge(&delta);
        self.out.done.push((idx, block));
        Ok(())
    }
}

/// Fsyncs a batch of published block checkpoints plus the directory —
/// the group-commit step. No-op on an empty batch.
fn flush_group(dir: &Path, paths: &mut Vec<PathBuf>) -> Result<(), StateError> {
    if paths.is_empty() {
        return Ok(());
    }
    for p in paths.drain(..) {
        fp::sync_file(&p)
            .map_err(|e| StateError::io(format!("sync checkpoint {}", p.display()), e))?;
    }
    fp::sync_dir(dir)
        .map_err(|e| StateError::io(format!("sync campaign dir {}", dir.display()), e))?;
    Ok(())
}

/// One block loaded back from its checkpoint file.
struct LoadedBlock {
    block: BlockResult,
    /// The block's exact telemetry delta (counters and histograms the
    /// block contributed), captured by the worker that ran it.
    metrics: Snapshot,
}

fn block_path(dir: &Path, idx: usize) -> PathBuf {
    dir.join(format!("block-{idx:02}.ckpt"))
}

fn marker_path(dir: &Path, idx: usize) -> PathBuf {
    dir.join(format!("block-{idx:02}.inprogress"))
}

fn dir_manifest_path(dir: &Path) -> PathBuf {
    dir.join("campaign.ckpt")
}

/// Path of block `idx`'s sub-shard units manifest (present only while
/// the block is split and uncommitted).
fn units_path(dir: &Path, idx: usize) -> PathBuf {
    dir.join(format!("block-{idx:02}.units.ckpt"))
}

/// Path of one completed sub-shard unit's checkpoint. `(offset,
/// stride)` identifies a unit uniquely within a block — the layout is a
/// partition, so no two units share both.
fn unit_path(dir: &Path, idx: usize, unit: SplitUnit) -> PathBuf {
    dir.join(format!(
        "block-{idx:02}.unit-{}-{}.ckpt",
        unit.offset, unit.stride
    ))
}

/// Removes block `idx`'s units manifest and every unit checkpoint —
/// run after the block commits (the block checkpoint subsumes them) and
/// on a fresh-start wipe. Best-effort: stale split files behind a valid
/// block checkpoint are dead weight, never consulted.
fn remove_split_files(dir: &Path, idx: usize) {
    let _ = std::fs::remove_file(units_path(dir, idx));
    let prefix = format!("block-{idx:02}.unit-");
    if let Ok(entries) = std::fs::read_dir(dir) {
        for entry in entries.flatten() {
            if entry.file_name().to_string_lossy().starts_with(&prefix) {
                let _ = std::fs::remove_file(entry.path());
            }
        }
    }
}

/// Atomically (re)writes block `idx`'s units manifest: the complete
/// current sub-shard partition of the block's walk. Rewritten on every
/// split and unit claim, always before the new layout becomes runnable.
fn write_units_manifest(
    dir: &Path,
    fp: u64,
    idx: usize,
    layout: &[SubShardEntry],
) -> Result<(), StateError> {
    let header = format!(
        "{{\"schema\":\"{CHECKPOINT_SCHEMA}\",\"kind\":\"campaign-units\",\
         \"block\":{idx},\"campaign_fp\":\"{fp:#018x}\",\"sections\":[\"units\"]}}"
    );
    write_sectioned(
        &units_path(dir, idx),
        &header,
        &[("units", encode_sub_shards(layout))],
    )
}

fn load_units_manifest(
    dir: &Path,
    idx: usize,
    expected_fp: u64,
) -> Result<Vec<SubShardEntry>, StateError> {
    let what = "campaign units manifest";
    let path = units_path(dir, idx);
    let (header, mut sections) = read_sectioned(&path, what)?;
    let kind = header.req_str("kind", what)?;
    if kind != "campaign-units" {
        return Err(StateError::Corrupt(format!(
            "{what} {}: expected kind `campaign-units`, found `{kind}`",
            path.display()
        )));
    }
    let fp = parse_fp(&header.req_str("campaign_fp", what)?, what)?;
    if fp != expected_fp {
        return Err(StateError::Mismatch(format!(
            "units manifest {} was written under configuration {fp:#018x}, \
             this campaign fingerprints as {expected_fp:#018x}",
            path.display()
        )));
    }
    let declared = header.req_u64("block", what)? as usize;
    if declared != idx {
        return Err(StateError::Corrupt(format!(
            "{what} {}: declares block {declared}, expected {idx}",
            path.display()
        )));
    }
    let raw = sections.remove("units").ok_or_else(|| {
        StateError::Corrupt(format!(
            "{what} {}: missing `units` section",
            path.display()
        ))
    })?;
    let entries = decode_sub_shards(&raw)?;
    if entries.is_empty() {
        return Err(StateError::Corrupt(format!(
            "{what} {}: empty unit layout",
            path.display()
        )));
    }
    Ok(entries)
}

/// Publishes one completed unit's checkpoint: its telemetry delta plus
/// the raw, classification-free output [`Campaign::assemble`] merges.
fn write_unit_ckpt(
    dir: &Path,
    fp: u64,
    idx: usize,
    raw: &UnitRaw,
    metrics: &Snapshot,
) -> Result<(), StateError> {
    let header = format!(
        "{{\"schema\":\"{CHECKPOINT_SCHEMA}\",\"kind\":\"campaign-unit\",\
         \"block\":{idx},\"offset\":{},\"stride\":{},\"cap\":{},\
         \"campaign_fp\":\"{fp:#018x}\",\"sections\":[\"metrics\",\"unit\"]}}",
        raw.unit.offset, raw.unit.stride, raw.unit.cap
    );
    let mut e = Encoder::new();
    encode_unit_raw(&mut e, raw);
    write_sectioned(
        &unit_path(dir, idx, raw.unit),
        &header,
        &[("metrics", encode_snapshot(metrics)), ("unit", e.finish())],
    )
}

fn load_unit_ckpt(
    dir: &Path,
    idx: usize,
    expected_fp: u64,
    unit: SplitUnit,
) -> Result<(UnitRaw, Snapshot), StateError> {
    let what = "campaign unit checkpoint";
    let path = unit_path(dir, idx, unit);
    let (header, mut sections) = read_sectioned(&path, what)?;
    let kind = header.req_str("kind", what)?;
    if kind != "campaign-unit" {
        return Err(StateError::Corrupt(format!(
            "{what} {}: expected kind `campaign-unit`, found `{kind}`",
            path.display()
        )));
    }
    let fp = parse_fp(&header.req_str("campaign_fp", what)?, what)?;
    if fp != expected_fp {
        return Err(StateError::Mismatch(format!(
            "unit checkpoint {} was taken under configuration {fp:#018x}, \
             this campaign fingerprints as {expected_fp:#018x}",
            path.display()
        )));
    }
    let metrics_raw = sections.remove("metrics").ok_or_else(|| {
        StateError::Corrupt(format!(
            "{what} {}: missing `metrics` section",
            path.display()
        ))
    })?;
    let unit_raw = sections.remove("unit").ok_or_else(|| {
        StateError::Corrupt(format!("{what} {}: missing `unit` section", path.display()))
    })?;
    let mut d = Decoder::new(&unit_raw, "campaign unit");
    let raw = decode_unit_raw(&mut d)?;
    d.expect_end()?;
    if raw.unit != unit || header.req_u64("block", what)? as usize != idx {
        return Err(StateError::Corrupt(format!(
            "{what} {}: payload does not match its manifest entry",
            path.display()
        )));
    }
    Ok((raw, decode_snapshot(&metrics_raw)?))
}

/// Materializes a [`BlockMode::Split`] plan into a bin seed: completed
/// units load from their checkpoints, the rest queue for re-running.
fn load_bin_seed(
    dir: &Path,
    idx: usize,
    fp: u64,
    plans: &[UnitPlan],
) -> Result<BinSeed, StateError> {
    let mut seed = BinSeed::default();
    for plan in plans {
        match plan.mode {
            UnitMode::Skip => seed.done.push(load_unit_ckpt(dir, idx, fp, plan.unit)?),
            UnitMode::Resume | UnitMode::Fresh => seed.rerun.push(plan.unit),
        }
        seed.layout
            .push(entry_of(plan.unit, !matches!(plan.mode, UnitMode::Fresh)));
    }
    seed.layout.sort_by_key(|e| e.offset);
    Ok(seed)
}

fn write_marker(dir: &Path, idx: usize) -> Result<(), StateError> {
    let path = marker_path(dir, idx);
    std::fs::write(&path, b"")
        .map_err(|e| StateError::io(format!("write marker {}", path.display()), e))
}

fn write_dir_manifest(dir: &Path, fp: u64) -> Result<(), StateError> {
    let header = format!(
        "{{\"schema\":\"{CHECKPOINT_SCHEMA}\",\"kind\":\"campaign-dir\",\
         \"blocks\":{},\"campaign_fp\":\"{fp:#018x}\",\"sections\":[]}}",
        SAMPLE_BLOCKS.len()
    );
    write_sectioned(&dir_manifest_path(dir), &header, &[])
}

/// Validates the directory manifest and classifies every block. An
/// absent manifest (killed before anything was written, or a fresh dir)
/// yields an all-[`Fresh`](BlockMode::Fresh) plan, mirroring the
/// sequential campaign's "kill before the first checkpoint resumes as a
/// fresh start".
fn load_dir(dir: &Path, expected_fp: u64) -> Result<Vec<BlockMode>, StateError> {
    let manifest = dir_manifest_path(dir);
    if !manifest.exists() {
        return Ok(vec![BlockMode::Fresh; SAMPLE_BLOCKS.len()]);
    }
    let what = "campaign directory manifest";
    let (header, _) = read_sectioned(&manifest, what)?;
    let kind = header.req_str("kind", what)?;
    if kind != "campaign-dir" {
        return Err(StateError::Corrupt(format!(
            "{what}: expected kind `campaign-dir`, found `{kind}`"
        )));
    }
    let fp = parse_fp(&header.req_str("campaign_fp", what)?, what)?;
    if fp != expected_fp {
        return Err(StateError::Mismatch(format!(
            "campaign checkpoint directory was written under configuration \
             {fp:#018x}, this campaign fingerprints as {expected_fp:#018x}"
        )));
    }
    (0..SAMPLE_BLOCKS.len())
        .map(|idx| {
            if block_path(dir, idx).exists() {
                // A present checkpoint only counts if it reads back
                // cleanly: a crash inside the group-commit window can
                // leave a published-but-torn file. Corrupt reclassifies
                // as a partial block (the re-run's rewrite clobbers the
                // torn file); fingerprint/config mismatches stay hard
                // errors — re-running would scan the wrong thing.
                match load_block_ckpt(dir, idx, expected_fp) {
                    Ok(_) => Ok(BlockMode::Skip),
                    // A torn checkpoint proves the block ran even when
                    // its marker is already gone — floor Fresh to
                    // Resume.
                    Err(StateError::Corrupt(_)) => match classify_partial(dir, idx, expected_fp)? {
                        BlockMode::Fresh => Ok(BlockMode::Resume),
                        partial => Ok(partial),
                    },
                    Err(e) => Err(e),
                }
            } else {
                classify_partial(dir, idx, expected_fp)
            }
        })
        .collect()
}

/// Classifies a block with no (valid) completed checkpoint: a units
/// manifest means a kill hit mid-split — build the per-unit plan;
/// otherwise the in-progress marker decides Resume versus Fresh. A
/// corrupt manifest falls back to re-running the whole block, which is
/// byte-identical by construction.
fn classify_partial(dir: &Path, idx: usize, expected_fp: u64) -> Result<BlockMode, StateError> {
    if units_path(dir, idx).exists() {
        match load_units_manifest(dir, idx, expected_fp) {
            Ok(entries) => {
                let mut plans = Vec::with_capacity(entries.len());
                for entry in entries {
                    let unit = unit_of(&entry);
                    let mode = if unit_path(dir, idx, unit).exists() {
                        // Same torn-file rule as block checkpoints: a
                        // unit checkpoint counts only if it reads back
                        // cleanly; corrupt means the unit re-runs.
                        match load_unit_ckpt(dir, idx, expected_fp, unit) {
                            Ok(_) => UnitMode::Skip,
                            Err(StateError::Corrupt(_)) => UnitMode::Resume,
                            Err(e) => return Err(e),
                        }
                    } else if entry.started {
                        UnitMode::Resume
                    } else {
                        UnitMode::Fresh
                    };
                    plans.push(UnitPlan { unit, mode });
                }
                Ok(BlockMode::Split(plans))
            }
            Err(StateError::Corrupt(_)) => Ok(BlockMode::Resume),
            Err(e) => Err(e),
        }
    } else if marker_path(dir, idx).exists() {
        Ok(BlockMode::Resume)
    } else {
        Ok(BlockMode::Fresh)
    }
}

/// Publishes one block checkpoint. With `sync: false` the data fsync is
/// deferred to the caller's group commit ([`flush_group`]); the file is
/// still published atomically via rename, so readers either see a whole
/// file or (after an OS crash inside the deferred window) a torn one —
/// which the resume planner classifies as "never completed".
fn write_block_ckpt(
    dir: &Path,
    fp: u64,
    idx: usize,
    block: &BlockResult,
    metrics: &Snapshot,
    sync: bool,
) -> Result<(), StateError> {
    let header = format!(
        "{{\"schema\":\"{CHECKPOINT_SCHEMA}\",\"kind\":\"campaign-block\",\
         \"block\":{idx},\"profile\":{},\"campaign_fp\":\"{fp:#018x}\",\
         \"sections\":[\"metrics\",\"block\"]}}",
        block.profile_id
    );
    let mut e = Encoder::new();
    encode_block(&mut e, block);
    write_sectioned_opts(
        &block_path(dir, idx),
        &header,
        &[("metrics", encode_snapshot(metrics)), ("block", e.finish())],
        sync,
    )
}

fn load_block_ckpt(dir: &Path, idx: usize, expected_fp: u64) -> Result<LoadedBlock, StateError> {
    let what = "campaign block checkpoint";
    let path = block_path(dir, idx);
    let (header, mut sections) = read_sectioned(&path, what)?;
    let kind = header.req_str("kind", what)?;
    if kind != "campaign-block" {
        return Err(StateError::Corrupt(format!(
            "{what} {}: expected kind `campaign-block`, found `{kind}`",
            path.display()
        )));
    }
    let fp = parse_fp(&header.req_str("campaign_fp", what)?, what)?;
    if fp != expected_fp {
        return Err(StateError::Mismatch(format!(
            "block checkpoint {} was taken under configuration {fp:#018x}, \
             this campaign fingerprints as {expected_fp:#018x}",
            path.display()
        )));
    }
    let declared = header.req_u64("block", what)? as usize;
    if declared != idx {
        return Err(StateError::Corrupt(format!(
            "{what} {}: declares block {declared}, expected {idx}",
            path.display()
        )));
    }
    let metrics_raw = sections.remove("metrics").ok_or_else(|| {
        StateError::Corrupt(format!(
            "{what} {}: missing `metrics` section",
            path.display()
        ))
    })?;
    let block_raw = sections.remove("block").ok_or_else(|| {
        StateError::Corrupt(format!(
            "{what} {}: missing `block` section",
            path.display()
        ))
    })?;
    let mut d = Decoder::new(&block_raw, "campaign block");
    let block = decode_block(&mut d)?;
    d.expect_end()?;
    if block.profile_id as u64 != header.req_u64("profile", what)? {
        return Err(StateError::Corrupt(format!(
            "{what} {}: profile id does not match its header",
            path.display()
        )));
    }
    Ok(LoadedBlock {
        block,
        metrics: decode_snapshot(&metrics_raw)?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use xmap_netsim::world::{World, WorldConfig};
    use xmap_netsim::KillPoint;

    fn base(max: u64) -> ScanConfig {
        ScanConfig {
            max_targets: Some(max),
            seed: 5,
            ..Default::default()
        }
    }

    fn make_world(_w: usize, telemetry: &Telemetry) -> World {
        let mut world = World::with_config(WorldConfig::lossless(99, 50));
        world.set_telemetry(telemetry);
        world
    }

    fn sequential(tpb: u64) -> (CampaignResult, Snapshot) {
        let telemetry = Telemetry::new();
        let mut world = World::with_config(WorldConfig::lossless(99, 50));
        world.set_telemetry(&telemetry);
        let mut scanner = Scanner::with_telemetry(world, base(tpb), telemetry.clone());
        let result = Campaign::new(tpb).run(&mut scanner);
        (result, telemetry.registry.snapshot())
    }

    #[test]
    fn worker_counts_are_byte_identical() {
        let tpb = 1 << 12;
        let (seq, seq_snap) = sequential(tpb);
        for workers in [1usize, 2, 4] {
            let outcome =
                ParallelCampaign::new(Campaign::new(tpb), workers).run(&base(tpb), make_world);
            assert!(!outcome.interrupted);
            assert_eq!(outcome.result, seq, "{workers} workers diverged");
            assert_eq!(
                outcome.result.to_csv(),
                seq.to_csv(),
                "{workers}-worker CSV diverged"
            );
            assert_eq!(
                outcome.snapshot, seq_snap,
                "{workers}-worker snapshot diverged"
            );
        }
    }

    #[test]
    fn checkpointed_run_writes_all_blocks() {
        let dir = std::env::temp_dir().join(format!("xmap-pcamp-full-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let tpb = 1 << 10;
        let exec = ParallelCampaign::new(Campaign::new(tpb), 2);
        let outcome = exec
            .run_checkpointed(&base(tpb), &dir, false, None, make_world)
            .unwrap();
        assert!(!outcome.interrupted);
        assert_eq!(outcome.result.blocks.len(), SAMPLE_BLOCKS.len());
        let plan = exec.resume_plan(&base(tpb), &dir).unwrap();
        assert!(plan.iter().all(|m| *m == BlockMode::Skip), "{plan:?}");
        // A resume with everything checkpointed scans nothing and still
        // reproduces the result and snapshot exactly.
        let resumed = exec
            .run_checkpointed(&base(tpb), &dir, true, None, make_world)
            .unwrap();
        assert_eq!(resumed.result, outcome.result);
        assert_eq!(resumed.snapshot, outcome.snapshot);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn kill_and_resume_with_different_worker_count() {
        let dir = std::env::temp_dir().join(format!("xmap-pcamp-kill-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let tpb = 1 << 12;
        let (seq, seq_snap) = sequential(tpb);

        let signal = AbortSignal::new();
        let exec2 = ParallelCampaign::new(Campaign::new(tpb), 2);
        let partial = exec2
            .run_checkpointed(&base(tpb), &dir, false, Some(&signal), |w, telemetry| {
                let mut world = World::with_config(WorldConfig::lossless(99, 50));
                world.set_telemetry(telemetry);
                if w == 0 {
                    // Deterministic interrupt: worker 0's world kills the
                    // whole campaign after 6k of its own probes.
                    world.arm_kill(
                        KillPoint {
                            after_probes: Some(6_000),
                            ..Default::default()
                        },
                        signal.clone(),
                    );
                }
                world
            })
            .unwrap();
        assert!(partial.interrupted, "kill point must interrupt");
        assert!(partial.result.blocks.len() < SAMPLE_BLOCKS.len());

        let plan = exec2.resume_plan(&base(tpb), &dir).unwrap();
        assert!(plan.contains(&BlockMode::Skip), "{plan:?}");
        assert!(
            plan.iter().any(|m| *m != BlockMode::Skip),
            "something must be left to do: {plan:?}"
        );

        // Resume under a different worker count.
        let exec3 = ParallelCampaign::new(Campaign::new(tpb), 3);
        let full = exec3
            .run_checkpointed(&base(tpb), &dir, true, None, make_world)
            .unwrap();
        assert!(!full.interrupted);
        assert_eq!(full.result, seq, "resumed campaign must match sequential");
        assert_eq!(full.snapshot, seq_snap, "resumed snapshot must match");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn resume_with_different_campaign_is_refused() {
        let dir = std::env::temp_dir().join(format!("xmap-pcamp-mismatch-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let tpb = 1 << 9;
        ParallelCampaign::new(Campaign::new(tpb), 2)
            .run_checkpointed(&base(tpb), &dir, false, None, make_world)
            .unwrap();
        let other = ParallelCampaign::new(Campaign::new(tpb * 2), 2);
        let err = other
            .run_checkpointed(&base(tpb * 2), &dir, true, None, make_world)
            .unwrap_err();
        assert!(matches!(err, StateError::Mismatch(_)), "{err:?}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    #[should_panic(expected = "at least one worker")]
    fn zero_workers_rejected() {
        let _ = ParallelCampaign::new(Campaign::new(1), 0);
    }

    /// Strips the supervision counters a faulty run adds, so the rest of
    /// the snapshot can be compared byte-for-byte against a clean run.
    fn strip_exec(mut snap: Snapshot) -> Snapshot {
        for name in [
            names::EXEC_WORKER_PANICS,
            names::EXEC_REQUEUED,
            names::EXEC_POISONED,
            names::EXEC_STALLS,
            names::EXEC_SPLITS,
            names::EXEC_SPLIT_SHARDS,
        ] {
            snap.counters.remove(name);
        }
        snap
    }

    #[test]
    fn worker_panic_retries_on_surviving_worker_byte_identically() {
        let tpb = 1 << 13;
        let (seq, seq_snap) = sequential(tpb);
        // Worker 0 panics on its second claimed unit — a whole block, or
        // under forced splits a sub-shard inside a split one; the
        // requeued block re-runs on a surviving worker (or the
        // supervisor fallback).
        for force_split_at in [None, Some(300)] {
            let mut exec = ParallelCampaign::new(Campaign::new(tpb), 2)
                .with_exec_faults(ExecPlan::panic_on(0, 1));
            if let Some(at) = force_split_at {
                exec = exec.with_force_split_at(at);
            }
            let outcome = exec.run(&base(tpb), make_world);
            assert!(!outcome.interrupted);
            assert!(outcome.poisoned.is_empty(), "{:?}", outcome.poisoned);
            assert_eq!(outcome.result, seq, "recovered campaign diverged");
            assert_eq!(outcome.snapshot.counter(names::EXEC_WORKER_PANICS), 1);
            assert_eq!(outcome.snapshot.counter(names::EXEC_REQUEUED), 1);
            assert_eq!(strip_exec(outcome.snapshot), seq_snap);
        }
    }

    #[test]
    fn single_worker_panic_falls_back_to_supervisor() {
        let tpb = 1 << 9;
        let (seq, seq_snap) = sequential(tpb);
        // The only worker panics on its fourth block and retires; the
        // supervisor fallback must finish the requeued block and every
        // block after it, still byte-identically.
        let outcome = ParallelCampaign::new(Campaign::new(tpb), 1)
            .with_exec_faults(ExecPlan::panic_on(0, 3))
            .run(&base(tpb), make_world);
        assert!(outcome.poisoned.is_empty(), "{:?}", outcome.poisoned);
        assert_eq!(outcome.result, seq, "supervisor fallback diverged");
        assert_eq!(outcome.snapshot.counter(names::EXEC_WORKER_PANICS), 1);
        assert_eq!(strip_exec(outcome.snapshot), seq_snap);
    }

    #[test]
    fn stalled_worker_is_rescued_by_watchdog() {
        let tpb = 1 << 13;
        let t0 = Instant::now();
        let (seq, seq_snap) = sequential(tpb);
        // Worker 0 goes silent holding an early unit — its first whole
        // block, or under forced splits a sub-shard inside a split one —
        // leaving the survivor nearly the whole campaign. The watchdog
        // must fire while that run is still live, so the quantum is a
        // small fraction of the measured sequential pace, floored only
        // against a zero quantum: a survivor descheduled for a whole
        // quantum gets spuriously reclaimed, which the wide attempt
        // budget absorbs — the re-run is byte-identical anyway.
        let quantum = (t0.elapsed() / 8).max(Duration::from_millis(2));
        for (force_split_at, stall_unit) in [(None, 0), (Some(300), 1)] {
            let mut exec = ParallelCampaign::new(Campaign::new(tpb), 2)
                .with_exec_faults(ExecPlan::stall_on(0, stall_unit))
                .with_watchdog(quantum)
                .with_supervision(Supervision { max_attempts: 10 });
            if let Some(at) = force_split_at {
                exec = exec.with_force_split_at(at);
            }
            let outcome = exec.run(&base(tpb), make_world);
            assert!(outcome.poisoned.is_empty(), "{:?}", outcome.poisoned);
            assert_eq!(outcome.result, seq, "rescued campaign diverged");
            assert!(outcome.snapshot.counter(names::EXEC_STALLS) >= 1);
            assert!(outcome.snapshot.counter(names::EXEC_REQUEUED) >= 1);
            assert_eq!(strip_exec(outcome.snapshot), seq_snap);
        }
    }

    #[test]
    fn slow_but_alive_worker_is_never_reclaimed() {
        // The watchdog bounds time *without probe progress*, not block
        // runtime. Arm it with a quantum well below one block's runtime
        // — under a wall-clock rule every block would be spuriously
        // requeued — and assert a healthy run sees zero stalls and stays
        // byte-identical to sequential. The quantum self-calibrates from
        // the measured sequential pace, floored high enough that OS
        // scheduling jitter can't fake a flat heartbeat.
        let tpb = 1 << 14;
        let t0 = Instant::now();
        let (seq, seq_snap) = sequential(tpb);
        let per_block = t0.elapsed() / SAMPLE_BLOCKS.len() as u32;
        let quantum = (per_block / 4).max(Duration::from_millis(75));
        let outcome = ParallelCampaign::new(Campaign::new(tpb), 2)
            .with_watchdog(quantum)
            .run(&base(tpb), make_world);
        assert!(outcome.poisoned.is_empty(), "{:?}", outcome.poisoned);
        assert_eq!(outcome.result, seq, "slow-but-alive campaign diverged");
        assert_eq!(
            outcome.snapshot.counter(names::EXEC_STALLS),
            0,
            "live worker was spuriously reclaimed"
        );
        assert_eq!(outcome.snapshot.counter(names::EXEC_REQUEUED), 0);
        assert_eq!(strip_exec(outcome.snapshot), seq_snap);
    }

    #[test]
    fn poisoned_block_leaves_deterministic_gap() {
        let tpb = 1 << 9;
        let (seq, _) = sequential(tpb);
        // One worker, attempt budget 1: the scripted panic on the sixth
        // claimed block (= block index 5, claims are in block order)
        // poisons it immediately. The campaign must complete around the
        // gap with every other block in Table II order.
        let outcome = ParallelCampaign::new(Campaign::new(tpb), 1)
            .with_supervision(Supervision { max_attempts: 1 })
            .with_exec_faults(ExecPlan::panic_on(0, 5))
            .run(&base(tpb), make_world);
        assert_eq!(outcome.poisoned, vec![5]);
        assert_eq!(outcome.result.blocks.len(), SAMPLE_BLOCKS.len() - 1);
        let mut expect = seq.blocks.clone();
        expect.remove(5);
        assert_eq!(outcome.result.blocks, expect, "merge order must hold");
        assert_eq!(outcome.snapshot.counter(names::EXEC_POISONED), 1);
    }

    #[test]
    fn torn_block_checkpoint_reclassifies_as_resume() {
        let dir = std::env::temp_dir().join(format!("xmap-pcamp-torn-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let tpb = 1 << 9;
        let exec = ParallelCampaign::new(Campaign::new(tpb), 2);
        let full = exec
            .run_checkpointed(&base(tpb), &dir, false, None, make_world)
            .unwrap();
        // Tear block 7's checkpoint in half — what an OS crash inside the
        // group-commit window can leave behind a rename.
        let victim = block_path(&dir, 7);
        let bytes = std::fs::read(&victim).unwrap();
        std::fs::write(&victim, &bytes[..bytes.len() / 2]).unwrap();

        let plan = exec.resume_plan(&base(tpb), &dir).unwrap();
        for (idx, mode) in plan.iter().enumerate() {
            let expect = if idx == 7 {
                BlockMode::Resume
            } else {
                BlockMode::Skip
            };
            assert_eq!(*mode, expect, "block {idx}");
        }
        // The resume re-runs exactly the torn block and reproduces the
        // uninterrupted campaign byte-for-byte.
        let resumed = exec
            .run_checkpointed(&base(tpb), &dir, true, None, make_world)
            .unwrap();
        assert_eq!(resumed.result, full.result);
        assert_eq!(resumed.snapshot, full.snapshot);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn group_commit_quantums_agree_with_legacy_per_block_sync() {
        let tpb = 1 << 9;
        let run_with = |group: usize, tag: &str| {
            let dir =
                std::env::temp_dir().join(format!("xmap-pcamp-gc{tag}-{}", std::process::id()));
            let _ = std::fs::remove_dir_all(&dir);
            let out = ParallelCampaign::new(Campaign::new(tpb), 2)
                .with_group_commit(group)
                .run_checkpointed(&base(tpb), &dir, false, None, make_world)
                .unwrap();
            let plan = ParallelCampaign::new(Campaign::new(tpb), 2)
                .resume_plan(&base(tpb), &dir)
                .unwrap();
            assert!(plan.iter().all(|m| *m == BlockMode::Skip), "{plan:?}");
            let _ = std::fs::remove_dir_all(&dir);
            (out.result, out.snapshot)
        };
        let legacy = run_with(1, "legacy");
        let batched = run_with(DEFAULT_GROUP_COMMIT, "batched");
        let whole = run_with(SAMPLE_BLOCKS.len() + 1, "whole");
        assert_eq!(legacy, batched);
        assert_eq!(legacy, whole);
    }

    #[test]
    fn forced_splits_stay_byte_identical_across_worker_counts() {
        let tpb = 1 << 12;
        let (seq, seq_snap) = sequential(tpb);
        for workers in [1usize, 2, 4] {
            let outcome = ParallelCampaign::new(Campaign::new(tpb), workers)
                .with_force_split_at(1_000)
                .run(&base(tpb), make_world);
            assert!(!outcome.interrupted);
            assert!(outcome.poisoned.is_empty(), "{:?}", outcome.poisoned);
            let splits = outcome.snapshot.counter(names::EXEC_SPLITS);
            assert!(splits >= 1, "{workers} workers: forced split never fired");
            assert!(
                outcome.snapshot.counter(names::EXEC_SPLIT_SHARDS) >= 2 * splits,
                "each split must mint at least two sub-shards"
            );
            assert_eq!(outcome.result, seq, "{workers}-worker split run diverged");
            assert_eq!(
                outcome.result.to_csv(),
                seq.to_csv(),
                "{workers}-worker split CSV diverged"
            );
            assert_eq!(
                strip_exec(outcome.snapshot),
                seq_snap,
                "{workers}-worker split snapshot diverged"
            );
        }
    }

    #[test]
    fn threshold_split_on_skewed_blocks_stays_byte_identical() {
        // One giant block dominates the campaign — the straggler shape
        // the splitter exists for, and at 2¹⁶ targets big enough for the
        // default policy to fire. Splits happen only when a worker
        // actually goes idle, so the assertion here is pure
        // byte-identity under every worker count, splits or not.
        let tpb = 1 << 9;
        let giant = 1 << 16;
        let campaign = || Campaign::new(tpb).with_block_targets(vec![(2, giant)]);
        let telemetry = Telemetry::new();
        let mut world = World::with_config(WorldConfig::lossless(99, 50));
        world.set_telemetry(&telemetry);
        let mut scanner = Scanner::with_telemetry(world, base(giant), telemetry.clone());
        let seq = campaign().run(&mut scanner);
        let seq_snap = telemetry.registry.snapshot();
        for workers in [2usize, 4] {
            let outcome = ParallelCampaign::new(campaign(), workers).run(&base(giant), make_world);
            assert!(!outcome.interrupted);
            assert!(outcome.poisoned.is_empty(), "{:?}", outcome.poisoned);
            assert_eq!(outcome.result, seq, "{workers}-worker skewed run diverged");
            assert_eq!(
                strip_exec(outcome.snapshot),
                seq_snap,
                "{workers}-worker skewed snapshot diverged"
            );
        }
    }

    #[test]
    fn blocks_under_the_split_floor_never_split() {
        // No unit of a block at or under MIN_SPLIT_REMAINDER targets ever
        // has enough left to yield, however many workers sit idle:
        // identical bytes, and no split counters ever minted.
        let tpb = 1 << 10;
        let (seq, seq_snap) = sequential(tpb);
        let outcome = ParallelCampaign::new(Campaign::new(tpb), 4).run(&base(tpb), make_world);
        assert_eq!(outcome.result, seq);
        assert_eq!(outcome.snapshot, seq_snap);
        assert!(!outcome.snapshot.counters.contains_key(names::EXEC_SPLITS));
        assert!(!outcome
            .snapshot
            .counters
            .contains_key(names::EXEC_SPLIT_SHARDS));
    }

    #[test]
    fn kill_mid_split_resumes_under_different_worker_count() {
        let dir = std::env::temp_dir().join(format!("xmap-pcamp-ksplit-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let tpb = 1 << 12;
        let (seq, seq_snap) = sequential(tpb);

        // One worker makes the kill land deterministically inside a
        // split: every block force-splits after 1k consumed positions,
        // so by probe 6k the in-flight block has a durable sub-shard
        // manifest plus at least one committed unit checkpoint.
        let signal = AbortSignal::new();
        let exec1 = ParallelCampaign::new(Campaign::new(tpb), 1).with_force_split_at(1_000);
        let partial = exec1
            .run_checkpointed(&base(tpb), &dir, false, Some(&signal), |_w, telemetry| {
                let mut world = World::with_config(WorldConfig::lossless(99, 50));
                world.set_telemetry(telemetry);
                world.arm_kill(
                    KillPoint {
                        after_probes: Some(6_000),
                        ..Default::default()
                    },
                    signal.clone(),
                );
                world
            })
            .unwrap();
        assert!(partial.interrupted, "kill point must interrupt");

        let plan = exec1.resume_plan(&base(tpb), &dir).unwrap();
        let split_plan = plan
            .iter()
            .find_map(|m| match m {
                BlockMode::Split(units) => Some(units.clone()),
                _ => None,
            })
            .unwrap_or_else(|| panic!("no split plan in {plan:?}"));
        assert!(
            split_plan.iter().any(|u| matches!(u.mode, UnitMode::Skip)),
            "a committed sub-shard must be skippable: {split_plan:?}"
        );
        assert!(
            split_plan.iter().any(|u| !matches!(u.mode, UnitMode::Skip)),
            "something inside the split must be left to do: {split_plan:?}"
        );

        // Resume under a different worker count: loaded sub-shard deltas
        // and re-run units must assemble to the sequential bytes.
        let exec3 = ParallelCampaign::new(Campaign::new(tpb), 3).with_force_split_at(1_000);
        let full = exec3
            .run_checkpointed(&base(tpb), &dir, true, None, make_world)
            .unwrap();
        assert!(!full.interrupted);
        assert_eq!(full.result, seq, "resumed split campaign diverged");
        assert_eq!(
            strip_exec(full.snapshot),
            seq_snap,
            "resumed split snapshot diverged"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}

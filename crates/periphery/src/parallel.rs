//! The parallel campaign executor: one worker type that steals blocks,
//! splits stragglers, and merges deterministically.
//!
//! [`Campaign::run`] walks the fifteen sample blocks sequentially on one
//! [`Scanner`]; this module runs them on N workers — each with a private
//! network replica, validator, retry queue and telemetry
//! [`Registry`] — and merges the [`BlockResult`]s back in
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
//! `exec.poisoned`): each appears in the merged snapshot
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
//! retires, since its scanner may hold half-mutated state. A panic is
//! the only way a block is lost: a worker that hung instead would never
//! return, nor would the scoped join, so nothing watches for hangs. A
//! requeued block re-runs from its start (or its resume seed) on a
//! surviving worker, or — once every worker has retired — on the
//! supervisor fallback: one more `Worker` run on the calling thread
//! after join, under worker index `workers`. Determinism makes the
//! re-run identical.
//!
//! # Checkpoint layout
//!
//! [`ParallelCampaign::run_checkpointed`] keeps one directory of
//! `xmap-state` sectioned checkpoint files:
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
use std::time::Duration;

use xmap::telemetry::names;
use xmap::{
    insert_exec_counters, merge_worker_snapshots, ScanConfig, Scanner, StealQueue, Supervision,
};
use xmap_failpoint::exec::{ExecFaults, ExecPlan};
use xmap_netsim::isp::SAMPLE_BLOCKS;
use xmap_netsim::packet::Network;
use xmap_state::checkpoint::{
    decode_snapshot, decode_sub_shards, encode_snapshot, encode_sub_shards, Kind, SubShardEntry,
};
use xmap_state::codec::Encoder;
use xmap_state::{AbortSignal, StateError};
use xmap_telemetry::{Snapshot, Telemetry};

use crate::campaign::{
    decode_block, decode_unit_raw, encode_block, encode_unit_raw, BlockResult, Campaign,
    CampaignResult, UnitRaw,
};
use crate::split::SplitUnit;

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
    /// totals. Work lost to a panic or abort mid-block never
    /// contributes (the checkpoint directory agrees with the snapshot by
    /// construction). Supervision counters (`exec.*`) appear only when
    /// nonzero.
    pub snapshot: Snapshot,
    /// Whether an armed abort signal stopped the campaign early (the
    /// checkpoint directory then holds everything completed so far).
    pub interrupted: bool,
    /// Block indices whose attempt budget ran out (a worker panic on
    /// every try). Empty on a healthy run; the campaign
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
    exec_plan: Option<ExecPlan>,
    force_split_at: Option<u64>,
}

/// Checkpoint context threaded into `execute`: `(dir, fingerprint,
/// per-block loaded checkpoints, per-block split-manifest seeds)`.
type CkptCtx<'a> = (
    &'a Path,
    u64,
    Vec<Option<(BlockResult, Snapshot)>>,
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

    /// Arms scripted executor faults (worker panics) for the
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
            let mut loaded: Vec<Option<(BlockResult, Snapshot)>> =
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
        // block order so one worker reproduces the sequential walk. The
        // queue and the yield flags carry one extra, unseeded slot for
        // the supervisor fallback, which runs as worker index `workers`.
        let pending: Vec<usize> = (0..SAMPLE_BLOCKS.len())
            .filter(|i| loaded[*i].is_none())
            .collect();
        let queue = StealQueue::new(0, self.workers + 1);
        for slot in 0..pending.len() {
            queue.push(slot % self.workers, slot);
        }
        let slots: Vec<SlotState> = (0..pending.len()).map(|_| SlotState::default()).collect();
        let shared = SplitShared {
            bins: (0..pending.len()).map(|_| BlockBin::default()).collect(),
            seeds: pending.iter().map(|i| seeds_by_idx[*i].take()).collect(),
            yield_flags: (0..=self.workers)
                .map(|_| Arc::new(AtomicBool::new(false)))
                .collect(),
            waiters: AtomicUsize::new(0),
            busy: AtomicUsize::new(0),
            outstanding: AtomicUsize::new(pending.len()),
            force_at: self.force_split_at,
        };
        let faults = self.exec_plan.as_ref().map(ExecPlan::armed);
        let counters = ExecCounters::default();
        let max_attempts = self.supervision.max_attempts.max(1);
        let mut new_scanner = |w: usize| {
            let telemetry = Telemetry::new();
            let network = make_network(w, &telemetry);
            let mut scanner = Scanner::with_telemetry(network, base.clone(), telemetry);
            if let Some(signal) = abort {
                scanner.set_abort(signal.clone());
            }
            scanner
        };
        let worker = |w: usize, scanner: Scanner<N>| Worker {
            w,
            scanner,
            campaign: &self.campaign,
            queue: &queue,
            pending: &pending,
            slots: &slots,
            faults: faults.as_ref(),
            counters: &counters,
            max_attempts,
            dir,
            fp_id,
            shared: &shared,
            units: 0,
            out: WorkerOut::default(),
        };
        let scanners: Vec<Scanner<N>> = (0..self.workers).map(&mut new_scanner).collect();

        let outs: Vec<Result<WorkerOut, StateError>> = std::thread::scope(|scope| {
            let worker = &worker;
            let handles: Vec<_> = scanners
                .into_iter()
                .enumerate()
                .map(|(w, scanner)| {
                    scope.spawn(move || {
                        let mut worker = worker(w, scanner);
                        worker.run().map(|()| worker.out)
                    })
                })
                .collect();
            // Joining in worker order keeps error reporting (and the
            // merge below) deterministic. A panic that escaped the
            // supervisor would be an executor bug; surface it as an
            // empty worker rather than tearing down the scope.
            handles
                .into_iter()
                .map(|h| h.join().unwrap_or_else(|_| Ok(WorkerOut::default())))
                .collect()
        });
        let mut worker_outs: Vec<WorkerOut> = Vec::with_capacity(outs.len() + 1);
        for out in outs {
            worker_outs.push(out?);
        }

        // Supervisor fallback: a panicked owner requeues its block, and
        // when every other worker has already retired nobody pops it.
        // One more `Worker` finishes those on the calling thread, under
        // index `workers` and a fresh scanner per pass (a panic retires
        // the pass, whose scanner may hold half-mutated state), until
        // the queue is empty.
        let aborted = || abort.is_some_and(AbortSignal::is_set);
        let mut fallback: Option<Worker<'_, N>> = None;
        while !aborted() && queue.remaining() > 0 {
            let scanner = new_scanner(self.workers);
            let pass = match fallback.as_mut() {
                Some(pass) => {
                    pass.scanner = scanner;
                    pass
                }
                None => fallback.insert(worker(self.workers, scanner)),
            };
            pass.run()?;
        }
        worker_outs.extend(fallback.map(|pass| pass.out));
        // Unless an abort stopped the run, nothing is left to commit a
        // block that is not done: report it as poisoned rather than leave
        // a silent gap in the CSV.
        let interrupted = aborted();
        let poisoned: Vec<usize> = (0..pending.len())
            .filter(|&slot| {
                let state = &slots[slot];
                state.poisoned.load(Ordering::Acquire)
                    || (!interrupted && !state.done.load(Ordering::Acquire))
            })
            .map(|slot| pending[slot])
            .collect();

        // Merge: loaded blocks and committed live blocks, in block-index
        // order — which is Table II (profile) order, the sequential
        // walk's order.
        let mut tagged: Vec<(usize, BlockResult)> = Vec::with_capacity(SAMPLE_BLOCKS.len());
        let mut skipped_deltas = Vec::new();
        for (idx, loaded_block) in loaded.into_iter().enumerate() {
            if let Some((block, metrics)) = loaded_block {
                tagged.push((idx, block));
                skipped_deltas.push(metrics);
            }
        }
        let mut committed_deltas = Vec::with_capacity(worker_outs.len());
        for out in worker_outs {
            tagged.extend(out.done);
            committed_deltas.push(out.committed);
        }
        tagged.sort_by_key(|(idx, _)| *idx);
        let result = CampaignResult {
            blocks: tagged.into_iter().map(|(_, b)| b).collect(),
        };
        // Committed deltas only: sums telescope to exactly the raw
        // registries on a fault-free run (byte-identical merge), and
        // exclude in-flight garbage from panicked or aborted blocks
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

/// Per-block supervision state shared by the workers, the supervisor
/// fallback's included.
#[derive(Debug, Default)]
struct SlotState {
    /// Times the block has been claimed (spawned attempts).
    attempts: AtomicU32,
    /// Claim epoch: bumped to invalidate an in-flight claim (a panicked
    /// unit). A commit whose claim epoch is stale is
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

/// Supervision tallies shared across threads, exported as `exec.*`
/// counters (only when nonzero).
#[derive(Debug, Default)]
struct ExecCounters {
    panics: AtomicU64,
    requeued: AtomicU64,
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
    /// The claim was invalidated mid-run (a panicked sibling unit); the work is discarded, the worker stays healthy.
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
/// requeued exactly once however many of its units panic.
fn invalidate_claim(
    slot: usize,
    epoch: u64,
    w: usize,
    slots: &[SlotState],
    queue: &StealQueue,
    counters: &ExecCounters,
    max_attempts: u32,
) {
    let state = &slots[slot];
    if state
        .epoch
        .compare_exchange(epoch, epoch + 1, Ordering::AcqRel, Ordering::Acquire)
        .is_err()
    {
        return;
    }
    if state.attempts.load(Ordering::Acquire) < max_attempts {
        counters.requeued.fetch_add(1, Ordering::Relaxed);
        queue.push(w, slot);
    } else {
        state.poisoned.store(true, Ordering::Release);
    }
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
    scanner: Scanner<N>,
    campaign: &'a Campaign,
    queue: &'a StealQueue,
    pending: &'a [usize],
    slots: &'a [SlotState],
    faults: Option<&'a ExecFaults>,
    counters: &'a ExecCounters,
    max_attempts: u32,
    dir: Option<&'a Path>,
    fp_id: u64,
    shared: &'a SplitShared,
    /// Units claimed so far — the index the fault script matches on.
    units: u64,
    out: WorkerOut,
}

impl<N: Network> Worker<'_, N> {
    /// Claims and runs work until nothing is left for this worker, or
    /// until it must retire (abort or a panicked unit).
    fn run(&mut self) -> Result<(), StateError> {
        let flag = self.shared.yield_flags[self.w].clone();
        // Idle peers raise every flag, the fallback's too while it has
        // no scanner running; only a request made during this run counts.
        flag.store(false, Ordering::Relaxed);
        self.scanner
            .set_yield_request(Some(flag), MIN_SPLIT_REMAINDER);
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
            // Nothing claimable. Sweep poisoned slots (a panicked peer
            // poisons without retiring the slot), then decide whether to
            // wait.
            for state in self.slots {
                if state.poisoned.load(Ordering::Acquire) {
                    retire_slot(state, self.shared);
                }
            }
            if self.shared.outstanding.load(Ordering::Acquire) == 0 {
                return Ok(());
            }
            if self.shared.busy.load(Ordering::Acquire) == 0 {
                // Outstanding blocks with nothing in flight were requeued
                // by a panicked owner after this worker's pop; the
                // supervisor fallback finishes them after join.
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
        let inject = self.faults.is_some_and(|f| f.on_unit(w, unit_no));
        let scanner = &mut self.scanner;
        let attempt = catch_unwind(AssertUnwindSafe(move || -> Result<UnitRun, StateError> {
            if inject {
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
            write_block_ckpt(dir, self.fp_id, idx, &block, &delta)?;
            remove_split_files(dir, idx);
            let _ = std::fs::remove_file(marker_path(dir, idx));
        }
        self.out.committed.merge(&delta);
        self.out.done.push((idx, block));
        Ok(())
    }
}

/// `campaign.ckpt`: binds the directory to one campaign configuration.
const DIR: Kind = Kind {
    name: "campaign-dir",
};
/// `block-NN.ckpt`: one committed block.
const BLOCK: Kind = Kind {
    name: "campaign-block",
};
/// `block-NN.units.ckpt`: a split block's current unit layout.
const UNITS: Kind = Kind {
    name: "campaign-units",
};
/// `block-NN.unit-O-S.ckpt`: one committed unit of a split block.
const UNIT: Kind = Kind {
    name: "campaign-unit",
};

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
    UNITS.write(
        &units_path(dir, idx),
        &[("block", idx as u64)],
        fp,
        &[("units", encode_sub_shards(layout))],
    )
}

fn load_units_manifest(
    dir: &Path,
    idx: usize,
    expected_fp: u64,
) -> Result<Vec<SubShardEntry>, StateError> {
    let mut ck = UNITS.open(
        &units_path(dir, idx),
        Some(expected_fp),
        &[("block", idx as u64)],
    )?;
    let entries = ck.take("units", decode_sub_shards)?;
    if entries.is_empty() {
        return Err(ck.corrupt("empty unit layout"));
    }
    Ok(entries)
}

/// A unit's identity fields: its block and its walk coordinates.
fn unit_fields(idx: usize, unit: SplitUnit) -> [(&'static str, u64); 4] {
    [
        ("block", idx as u64),
        ("offset", unit.offset),
        ("stride", unit.stride),
        ("cap", unit.cap),
    ]
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
    let mut e = Encoder::new();
    encode_unit_raw(&mut e, raw);
    UNIT.write(
        &unit_path(dir, idx, raw.unit),
        &unit_fields(idx, raw.unit),
        fp,
        &[("metrics", encode_snapshot(metrics)), ("unit", e.finish())],
    )
}

fn load_unit_ckpt(
    dir: &Path,
    idx: usize,
    expected_fp: u64,
    unit: SplitUnit,
) -> Result<(UnitRaw, Snapshot), StateError> {
    let mut ck = UNIT.open(
        &unit_path(dir, idx, unit),
        Some(expected_fp),
        &unit_fields(idx, unit),
    )?;
    let raw = ck.decode("unit", decode_unit_raw)?;
    if raw.unit != unit {
        return Err(ck.corrupt("payload does not match its manifest entry"));
    }
    Ok((raw, ck.take("metrics", decode_snapshot)?))
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
    let blocks = SAMPLE_BLOCKS.len() as u64;
    DIR.write(&dir_manifest_path(dir), &[("blocks", blocks)], fp, &[])
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
    DIR.open(&manifest, Some(expected_fp), &[])?;
    (0..SAMPLE_BLOCKS.len())
        .map(|idx| {
            if block_path(dir, idx).exists() {
                // A present checkpoint only counts if it reads back
                // cleanly. Publication is tmp + fsync + rename, so a
                // torn file means the disk or something outside the
                // executor damaged it; either way Corrupt reclassifies
                // as a partial block (the re-run's rewrite clobbers the
                // torn file). Fingerprint/config mismatches stay hard
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

/// Publishes one block checkpoint: its records and its telemetry delta.
fn write_block_ckpt(
    dir: &Path,
    fp: u64,
    idx: usize,
    block: &BlockResult,
    metrics: &Snapshot,
) -> Result<(), StateError> {
    let mut e = Encoder::new();
    encode_block(&mut e, block);
    BLOCK.write(
        &block_path(dir, idx),
        &[("block", idx as u64), ("profile", block.profile_id as u64)],
        fp,
        &[("metrics", encode_snapshot(metrics)), ("block", e.finish())],
    )
}

/// Loads one committed block: its records and the exact telemetry delta
/// the worker that ran it captured.
fn load_block_ckpt(
    dir: &Path,
    idx: usize,
    expected_fp: u64,
) -> Result<(BlockResult, Snapshot), StateError> {
    let mut ck = BLOCK.open(
        &block_path(dir, idx),
        Some(expected_fp),
        &[("block", idx as u64)],
    )?;
    let block = ck.decode("block", decode_block)?;
    if block.profile_id as u64 != ck.field("profile")? {
        return Err(ck.corrupt("profile id does not match its header"));
    }
    Ok((block, ck.take("metrics", decode_snapshot)?))
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
        // The only worker panics on its fourth unit and retires; the
        // supervisor fallback must finish the requeued block and every
        // block after it, still byte-identically — splitting them too
        // when forced to.
        for force_split_at in [None, Some(300)] {
            let mut exec = ParallelCampaign::new(Campaign::new(tpb), 1)
                .with_exec_faults(ExecPlan::panic_on(0, 3));
            if let Some(at) = force_split_at {
                exec = exec.with_force_split_at(at);
            }
            let outcome = exec.run(&base(tpb), make_world);
            assert!(!outcome.interrupted);
            assert!(outcome.poisoned.is_empty(), "{:?}", outcome.poisoned);
            assert_eq!(outcome.result, seq, "supervisor fallback diverged");
            assert_eq!(outcome.snapshot.counter(names::EXEC_WORKER_PANICS), 1);
            if force_split_at.is_some() {
                assert!(outcome.snapshot.counter(names::EXEC_SPLITS) >= 1);
            }
            assert_eq!(strip_exec(outcome.snapshot), seq_snap);
        }
    }

    #[test]
    fn supervisor_fallback_commits_checkpoints_like_a_worker() {
        let dir = std::env::temp_dir().join(format!("xmap-pcamp-fallback-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let tpb = 1 << 9;
        let (seq, seq_snap) = sequential(tpb);
        // The only worker panics inside the first block after a forced
        // split, so the fallback commits all fifteen blocks through the
        // same claim/unit/commit path a worker uses.
        let exec = ParallelCampaign::new(Campaign::new(tpb), 1)
            .with_force_split_at(300)
            .with_exec_faults(ExecPlan::panic_on(0, 1));
        let outcome = exec
            .run_checkpointed(&base(tpb), &dir, false, None, make_world)
            .unwrap();
        assert!(outcome.poisoned.is_empty(), "{:?}", outcome.poisoned);
        assert_eq!(outcome.result, seq, "fallback-committed campaign diverged");
        assert_eq!(strip_exec(outcome.snapshot), seq_snap);
        let mut files: Vec<String> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
            .collect();
        files.sort();
        let mut expect: Vec<String> = (0..SAMPLE_BLOCKS.len())
            .map(|idx| format!("block-{idx:02}.ckpt"))
            .collect();
        expect.push("campaign.ckpt".to_owned());
        assert_eq!(files, expect, "no marker or split file may survive");
        let plan = exec.resume_plan(&base(tpb), &dir).unwrap();
        assert!(plan.iter().all(|m| *m == BlockMode::Skip), "{plan:?}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn supervisor_fallback_panic_is_retried() {
        use xmap_failpoint::exec::ExecRule;
        let tpb = 1 << 9;
        let (seq, seq_snap) = sequential(tpb);
        // The only worker panics on its fourth block and retires; the
        // supervisor fallback (fault index 1 = `workers`) then panics on
        // its first attempt at that block, and its retry still finishes
        // the campaign byte-identically.
        let outcome = ParallelCampaign::new(Campaign::new(tpb), 1)
            .with_supervision(Supervision { max_attempts: 3 })
            .with_exec_faults(ExecPlan {
                rules: vec![
                    ExecRule { worker: 0, nth: 3 },
                    ExecRule { worker: 1, nth: 0 },
                ],
            })
            .run(&base(tpb), make_world);
        assert!(outcome.poisoned.is_empty(), "{:?}", outcome.poisoned);
        assert_eq!(outcome.result, seq, "supervisor retry diverged");
        assert_eq!(outcome.snapshot.counter(names::EXEC_WORKER_PANICS), 2);
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
        // Tear block 7's checkpoint in half. Publication fsyncs before
        // the rename, so only damage from outside the executor leaves
        // this; the planner still re-runs the block rather than fail.
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

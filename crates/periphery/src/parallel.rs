//! The parallel campaign executor: one worker type that claims
//! sub-shards from per-block bins, splits stragglers, and merges
//! deterministically.
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
//! Every block left to scan owns a bin of pending units, filled before
//! any worker starts: its whole-block unit, or on resume the units its
//! split plan left to do. The bins are the only work queue. A worker
//! claims the first pending unit of the lowest-indexed block that has
//! one, so a single worker runs the blocks in sequential order. Blocks
//! differ wildly in cost — scan-space sizes span 2²⁸..2³², and under a
//! token-bucket fault plan ICMPv6 rate limiting decides how much mop-up
//! work a block carries — so a worker that finishes early simply claims
//! the next block instead of waiting behind the slowest one.
//!
//! Block granularity alone still leaves a straggler tail: once every bin
//! is empty, every worker but the one holding the last (often largest)
//! block would sit idle. An idle worker therefore raises every running
//! scanner's yield flag. The gate fires for a unit that still has at
//! least 2¹⁴ walk positions ahead of it (`MIN_SPLIT_REMAINDER`): its
//! scanner stops cooperatively at the next slot boundary (in-flight
//! probes already settled), the unit is settled to its consumed prefix,
//! and the unconsumed remainder is split with
//! [`SplitUnit::split_tail`] — nested-shard math over the *remaining*
//! cursor range, so sub-shard `i` of `k` owns exactly the base walk
//! positions `≡ offset + (consumed + i)·stride (mod stride·k)` — into
//! one sub-shard per idle worker, pushed into the block's bin. Whoever
//! delivers a block's last unit assembles every unit's records in
//! walk-position order (the profile-order merge key extended by the
//! sub-shard tag) and commits the block. Every unit, root or part, runs
//! through [`Scanner::run_unit`] nested inside the scanner's own
//! `(shard, shards)` slot — the same [`SplitUnit`] algebra that nests
//! [`ParallelScanner`] workers — so on a sharded base a split covers
//! exactly the positions of that shard.
//!
//! The floor is a constant, not an option: a split costs about a
//! millisecond (one idle poll, one journal append, one extra scanner
//! run), so remainders under ~10⁴ probes are cheaper to finish in place,
//! and 2¹², 2¹⁴ and 2¹⁶ measured the same on the skewed campaign. Blocks
//! at or under 2¹⁴ targets therefore never split, whatever the worker
//! count. [`with_force_split_at`](ParallelCampaign::with_force_split_at)
//! forces yields at a fixed consumed count instead, idle workers or not,
//! for tests and the CI kill-point smoke.
//!
//! The schedule — who ran which unit, whether and where a block split —
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
//! It holds only without a fault plan: every `FaultPlan` draw mixes in
//! the tick, which depends on the schedule, so under any plan results
//! can differ with the worker count, exactly as for [`ParallelScanner`].
//! Under a token-bucket plan, private replicas also assume campaign
//! probes are the only traffic to the sample blocks during the campaign:
//! a bucket depleted by *earlier* probes on a shared scanner is state a
//! replica cannot see. The default plan keeps no limiter state.
//!
//! # Supervision
//!
//! Every unit runs inside the worker's one `catch_unwind`. A panic —
//! scripted ([`with_exec_faults`](ParallelCampaign::with_exec_faults))
//! or real — costs only the unit it hit: the unit goes back into its
//! block's bin (once it has split, its settled prefix does, since the
//! parts are already there), sibling units keep what they delivered, and
//! the worker rebuilds its scanner from the network factory (same worker
//! index, fresh telemetry and replica, abort signal re-armed), since the
//! old one may hold half-mutated state, and keeps claiming — the
//! requeued unit included. Units are pure functions of `(block, unit)`,
//! so the re-run is identical. The attempt budget is per block:
//! [`MAX_ATTEMPTS`] covers the first run plus each panic in any of the
//! block's units. Once it is spent the block is poisoned — its pending
//! units are dropped, later deliveries are discarded — and the campaign
//! completes around it. A panic in the factory itself is no unit's: it
//! propagates out of the run. A panic is the only way work is lost: a
//! worker that hung instead would never return, nor would the scoped
//! join, so nothing watches for hangs.
//!
//! # Checkpoint layout
//!
//! [`ParallelCampaign::run_checkpointed`] keeps one file,
//! `dir/campaign.ckpt`: a [`Wal`] journal whose every entry holds the
//! bytes an `xmap-state` sectioned checkpoint of its kind would:
//!
//! ```text
//! campaign-dir     entry 0: the run's identity, field by field
//! campaign-claim   a worker claimed unit (offset, stride, cap) of a block
//! campaign-split   that unit yielded after `consumed` positions and its
//!                  tail was dealt into `k` parts
//! campaign-unit    one delivered unit of a split block: its raw output
//!                  and telemetry delta
//! campaign-block   one committed block: its records and telemetry delta
//! ```
//!
//! Unit and block entries are synced as they are appended; claims and
//! splits are flushed and become durable with the next sync. A split is
//! journalled under its bin's lock before any of its parts can be
//! claimed, so the journal never names a part before the split that made
//! it. A failed append closes the journal at its last sync ([`Wal`]),
//! dropping any claim or split flushed since: a lost claim turns a
//! `Resume` into a `Fresh` (both re-run the unit), and a split precedes
//! every synced entry of its parts. A fresh start creates the journal,
//! syncs its first entry and then the directory, once.
//!
//! Resume replays the journal's intact entries (a torn tail is dropped).
//! A block with a `campaign-block` entry is [`Skip`](BlockMode::Skip).
//! For the rest, split entries rebuild the unit partition from the whole
//! walk ([`SplitUnit::split_tail`] recomputes the settled prefix and the
//! parts), then a unit is [`UnitMode::Skip`] once delivered,
//! [`UnitMode::Resume`] once claimed (the partial work is discarded and
//! the unit re-runs from its start) and [`UnitMode::Fresh`] otherwise.
//! An unsplit block is thus [`Resume`](BlockMode::Resume) or
//! [`Fresh`](BlockMode::Fresh) and a split one
//! [`Split`](BlockMode::Split); a split block whose units were all
//! delivered is assembled and committed before any worker starts. A lost
//! claim only turns Resume into Fresh, and both re-run the unit. Because
//! delivered units and blocks are self-contained deltas and the run's
//! identity ([`Campaign::identity`]) excludes the worker count, a
//! campaign killed under one N resumes byte-identically under any other.
//!
//! [`Registry`]: xmap_telemetry::Registry
//! [`ScanStats`]: xmap::ScanStats
//! [`ParallelScanner`]: xmap::ParallelScanner

use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Duration;

use xmap::telemetry::names;
use xmap::{
    insert_exec_counters, merge_worker_snapshots, ScanConfig, Scanner, SplitUnit, YieldGate,
    MAX_ATTEMPTS,
};
use xmap_failpoint::exec::{ExecFaults, ExecPlan};
use xmap_netsim::isp::SAMPLE_BLOCKS;
use xmap_netsim::packet::Network;
use xmap_netsim::world::WorldConfig;
use xmap_state::checkpoint::{decode_snapshot, encode_snapshot, Identity, Kind, Opened};
use xmap_state::codec::Encoder;
use xmap_state::{AbortSignal, StateError, Wal};
use xmap_telemetry::{Snapshot, Telemetry, Tracer};

use crate::campaign::{
    decode_block, decode_unit_raw, encode_block, encode_unit_raw, BlockResult, Campaign,
    CampaignResult, UnitRaw,
};

/// Walk positions a running unit must still have ahead of it before an
/// idle worker's yield request splits it. A split costs one idle poll,
/// one journal append and one extra scanner run — ≈ 1 ms, i.e. 1.1–1.4 ·
/// 10⁴ probes at the ledger's 71–92 ns/probe (`core.scanner.ns_per_probe`,
/// 2-vCPU host) — so a shorter remainder is cheaper to finish in place
/// than to hand out. A constant rather than a knob: 2¹², 2¹⁴ and 2¹⁶
/// measured the same on the skewed campaign.
const MIN_SPLIT_REMAINDER: u64 = 1 << 14;

/// What the resume planner decided for one sample block.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BlockMode {
    /// The block is committed: load it, don't re-scan.
    Skip,
    /// A kill hit mid-block (claimed, never committed): the partial work
    /// was discarded; re-run the block from its start.
    Resume,
    /// The block was never started.
    Fresh,
    /// A kill hit mid-block *after* a split: the journalled splits name
    /// the sub-shard partition, with a per-unit
    /// [`Skip`](UnitMode::Skip)/[`Resume`](UnitMode::Resume)/
    /// [`Fresh`](UnitMode::Fresh) plan. Delivered units load from the
    /// journal; the rest re-run — under **any** worker count — and the
    /// reassembled block is byte-identical.
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
    /// The unit was delivered: load it, don't re-scan.
    Skip,
    /// The unit was claimed but never delivered: the partial work is
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
    /// totals. Work lost to a panic or abort mid-unit never
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

/// Multi-worker driver around a [`Campaign`].
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
    exec_plan: Option<ExecPlan>,
    force_split_at: Option<u64>,
}

/// A committed block and its telemetry delta.
type Committed = (BlockResult, Snapshot);

impl ParallelCampaign {
    /// An executor running `campaign` on `workers` threads. One worker
    /// reproduces [`Campaign::run`] exactly (it claims the blocks in
    /// order).
    ///
    /// # Panics
    ///
    /// Panics if `workers == 0`.
    pub fn new(campaign: Campaign, workers: usize) -> Self {
        assert!(workers > 0, "need at least one worker");
        ParallelCampaign {
            campaign,
            workers,
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

    /// Arms scripted executor faults for the next run: worker `w`'s
    /// `nth` claimed unit (counting the units it claims after a rebuild)
    /// panics. Test-harness plumbing; production runs never set this.
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
    /// `make_network(w, telemetry)` builds worker `w`'s network replica:
    /// on the calling thread for the first scanner of each worker, on the
    /// worker's thread when a panicked unit makes it rebuild. Every
    /// worker must be built over the same world seed (disjoint targets
    /// make replicas interchangeable with one shared world — see the
    /// module docs for the envelope). Each worker scans under `base`
    /// unchanged; `base.max_targets` is ignored (the campaign caps per
    /// block).
    ///
    /// # Panics
    ///
    /// Panics if `make_network` does.
    pub fn run<N: Network + Send>(
        &self,
        base: &ScanConfig,
        make_network: impl FnMut(usize, &Telemetry) -> N + Send,
    ) -> CampaignOutcome {
        let loaded = SAMPLE_BLOCKS.iter().map(|_| None).collect();
        let bins = self.unstarted().into_iter().map(Replay::into_bin).collect();
        self.execute(base, None, loaded, bins, None, make_network)
            .expect("no checkpoint dir, no I/O to fail")
    }

    /// Runs the campaign with checkpointing in `dir` (created if missing;
    /// see the module docs for the layout). An armed `abort` signal
    /// stops every worker mid-unit; the partial unit is discarded (its
    /// claim stays journalled) and the outcome reports `interrupted`. A
    /// later `resume: true` invocation — under **any** worker count —
    /// loads committed blocks and delivered sub-shards, re-runs the
    /// rest, and produces a result and merged snapshot byte-identical to
    /// an uninterrupted campaign.
    ///
    /// `world` is the world `make_network` builds every replica from:
    /// with `base` and the campaign it is the run's
    /// [`identity`](Campaign::identity), which entry 0 of the journal
    /// states. Resuming under a run that differs in any identity field
    /// is a hard [`StateError::Mismatch`] naming the fields, and a
    /// journal an older build wrote a [`StateError::Version`]; either
    /// leaves the journal as it was. `resume: false` starts a new journal
    /// over any previous one.
    pub fn run_checkpointed<N: Network + Send>(
        &self,
        base: &ScanConfig,
        world: &WorldConfig,
        dir: &Path,
        resume: bool,
        abort: Option<&AbortSignal>,
        make_network: impl FnMut(usize, &Telemetry) -> N + Send,
    ) -> Result<CampaignOutcome, StateError> {
        let id = self.campaign.identity(base, world);
        let path = dir.join("campaign.ckpt");
        let first = DIR.first(&id);
        let mut blocks = self.unstarted();
        let wal = if resume {
            let replay = |entries: &[Vec<u8>]| {
                blocks = self.replay(&path, entries, &id)?;
                Ok(entries.len())
            };
            Wal::open(&path, Some(&first), replay)?.0
        } else {
            Wal::start(&path, Some(&first))?
        };
        let journal = Journal {
            fp: id.fingerprint(),
            wal: Mutex::new(wal),
        };
        // Every block left to scan starts with a bin of its undelivered
        // units; a committed block's bin stays empty.
        let mut loaded = Vec::with_capacity(blocks.len());
        let mut bins = Vec::with_capacity(blocks.len());
        for (idx, mut block) in blocks.into_iter().enumerate() {
            let mut committed = block.committed.take();
            let mut bin = Bin::default();
            if committed.is_none() {
                bin = block.into_bin();
                if bin.pending.is_empty() {
                    // Every unit is delivered but the block is not
                    // committed (the kill landed in between): nothing is
                    // left to claim, so commit it here, as the worker
                    // delivering its last unit would have.
                    let done = std::mem::take(&mut bin).done;
                    let tracer = Tracer::disabled();
                    let journal = Some(&journal);
                    committed = Some(commit_block(&self.campaign, journal, idx, done, &tracer)?);
                }
            }
            loaded.push(committed);
            bins.push(bin);
        }
        self.execute(base, Some(journal), loaded, bins, abort, make_network)
    }

    /// Classifies every block for a resume of the campaign checkpointed
    /// in `dir` without running anything — the
    /// `Skip`/`Resume`/`Fresh`/`Split` plan
    /// [`run_checkpointed`](Self::run_checkpointed) would execute.
    pub fn resume_plan(
        &self,
        base: &ScanConfig,
        world: &WorldConfig,
        dir: &Path,
    ) -> Result<Vec<BlockMode>, StateError> {
        let id = self.campaign.identity(base, world);
        let path = dir.join("campaign.ckpt");
        let blocks = self.replay(&path, &Wal::recover(&path)?.entries, &id)?;
        Ok(blocks.iter().map(Replay::mode).collect())
    }

    /// Every block as a new journal leaves it: one unclaimed unit, its
    /// whole walk.
    fn unstarted(&self) -> Vec<Replay> {
        SAMPLE_BLOCKS
            .iter()
            .map(|profile| Replay {
                committed: None,
                units: vec![UnitPlan {
                    unit: SplitUnit::whole(self.campaign.block_cap(profile)),
                    mode: UnitMode::Fresh,
                }],
                split: false,
                done: Vec::new(),
            })
            .collect()
    }

    /// Replays `entries`, the intact entries of the journal at `path`,
    /// for the run `id`: every block as they leave it. No entries leave
    /// every block unstarted.
    fn replay(
        &self,
        path: &Path,
        entries: &[Vec<u8>],
        id: &Identity,
    ) -> Result<Vec<Replay>, StateError> {
        let mut blocks = self.unstarted();
        let Some((first, rest)) = entries.split_first() else {
            return Ok(blocks);
        };
        let what = |seq: usize| format!("campaign journal {} entry {seq}", path.display());
        DIR.parse_first(first, what(0), id)?;
        let fp = id.fingerprint();
        for (seq, raw) in rest.iter().enumerate() {
            let mut ck = Opened::parse(raw, what(seq + 1), Some(fp))?;
            let Some(block) = blocks.get_mut(ck.field("block")? as usize) else {
                return Err(ck.corrupt("names no sample block"));
            };
            if ck.kind() == BLOCK.name {
                let result = ck.decode("block", decode_block)?;
                if result.profile_id as u64 != ck.field("profile")? {
                    return Err(ck.corrupt("profile id does not match its header"));
                }
                block.committed = Some((result, ck.take("metrics", decode_snapshot)?));
                continue;
            }
            let unit = SplitUnit {
                offset: ck.field("offset")?,
                stride: ck.field("stride")?,
                cap: ck.field("cap")?,
            };
            let Some(at) = block.units.iter().position(|plan| plan.unit == unit) else {
                return Err(ck.corrupt("names no unit of its block"));
            };
            let kind = ck.kind().to_owned();
            if kind == CLAIM.name {
                let plan = &mut block.units[at];
                if plan.mode == UnitMode::Fresh {
                    plan.mode = UnitMode::Resume;
                }
            } else if kind == SPLIT.name {
                let (consumed, k) = (ck.field("consumed")?, ck.field("k")?);
                if k == 0 || consumed > unit.cap || unit.stride.checked_mul(k).is_none() {
                    return Err(ck.corrupt("split does not fit its unit"));
                }
                let (settled, parts) = unit.split_tail(consumed, k);
                block.units[at] = UnitPlan {
                    unit: settled,
                    mode: UnitMode::Resume,
                };
                let fresh = |unit| UnitPlan {
                    unit,
                    mode: UnitMode::Fresh,
                };
                block.units.extend(parts.into_iter().map(fresh));
                block.split = true;
            } else if kind == UNIT.name {
                let raw = ck.decode("unit", decode_unit_raw)?;
                if raw.unit != unit {
                    return Err(ck.corrupt("payload does not match its header"));
                }
                block.units[at].mode = UnitMode::Skip;
                block.done.push((raw, ck.take("metrics", decode_snapshot)?));
            } else {
                return Err(ck.corrupt(&format!("unexpected entry kind `{kind}`")));
            }
        }
        for block in &mut blocks {
            block.units.sort_by_key(|plan| plan.unit.offset);
        }
        Ok(blocks)
    }

    /// Shared driver behind [`run`](Self::run) and
    /// [`run_checkpointed`](Self::run_checkpointed).
    fn execute<N: Network + Send>(
        &self,
        base: &ScanConfig,
        journal: Option<Journal>,
        loaded: Vec<Option<Committed>>,
        bins: Vec<Bin>,
        abort: Option<&AbortSignal>,
        make_network: impl FnMut(usize, &Telemetry) -> N + Send,
    ) -> Result<CampaignOutcome, StateError> {
        let shared = SplitShared {
            bins: bins.into_iter().map(Mutex::new).collect(),
            yield_flags: (0..self.workers)
                .map(|_| Arc::new(AtomicBool::new(false)))
                .collect(),
            waiters: AtomicUsize::new(0),
            busy: AtomicUsize::new(0),
            counters: ExecCounters::default(),
            journal,
        };
        let faults = self.exec_plan.as_ref().map(ExecPlan::armed);
        let factory = Mutex::new(make_network);
        let new_scanner = |w: usize| {
            let telemetry = Telemetry::new();
            let network = (*factory.lock().expect("network factory poisoned"))(w, &telemetry);
            let mut scanner = Scanner::with_telemetry(network, base.clone(), telemetry);
            if let Some(signal) = abort {
                scanner.set_abort(signal.clone());
            }
            scanner
        };
        let worker = |w: usize, scanner: Scanner<N>| Worker {
            w,
            scanner,
            gate: YieldGate {
                flag: shared.yield_flags[w].clone(),
                min_remaining: MIN_SPLIT_REMAINDER,
                force_at: self.force_split_at,
            },
            new_scanner: &new_scanner,
            campaign: &self.campaign,
            faults: faults.as_ref(),
            shared: &shared,
            units: 0,
            out: WorkerOut::default(),
        };
        let scanners: Vec<Scanner<N>> = (0..self.workers).map(&new_scanner).collect();

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
            // merge below) deterministic. Units catch their own panics,
            // so one that reaches the join came from outside any unit —
            // the factory rebuilding a worker — and is the run's.
            handles
                .into_iter()
                .map(|h| h.join().unwrap_or_else(|panic| resume_unwind(panic)))
                .collect()
        });
        let mut worker_outs: Vec<WorkerOut> = Vec::with_capacity(outs.len());
        for out in outs {
            worker_outs.push(out?);
        }

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
        // Unless an abort stopped the run, nothing is left to commit a
        // block that is still missing: report it as poisoned rather than
        // leave a silent gap in the CSV.
        let interrupted = abort.is_some_and(AbortSignal::is_set);
        let poisoned: Vec<usize> = (0..SAMPLE_BLOCKS.len())
            .filter(|&idx| {
                lock(&shared.bins[idx]).poisoned
                    || (!interrupted && tagged.binary_search_by_key(&idx, |(i, _)| *i).is_err())
            })
            .collect();
        let result = CampaignResult {
            blocks: tagged.into_iter().map(|(_, b)| b).collect(),
        };
        // Committed deltas only: sums telescope to exactly the raw
        // registries on a fault-free run (byte-identical merge), and
        // exclude in-flight garbage from panicked or aborted units
        // otherwise — the snapshot always agrees with the checkpoint
        // directory.
        let mut snapshot =
            merge_worker_snapshots(skipped_deltas.into_iter().chain(committed_deltas));
        let counters = &shared.counters;
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

/// Supervision tallies shared across threads, exported as `exec.*`
/// counters (only when nonzero).
#[derive(Debug, Default)]
struct ExecCounters {
    panics: AtomicU64,
    /// Units put back into their bin after a panic.
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

/// The state every worker shares: one bin per block and the idle/busy
/// accounting that drives yield requests and retirement.
struct SplitShared {
    /// One bin per sample block — the executor's only work queue. A
    /// loaded block's bin stays empty.
    bins: Vec<Mutex<Bin>>,
    /// Per-worker cooperative yield flags; idle workers broadcast-set
    /// them, a worker acting on its own flag clears it.
    yield_flags: Vec<Arc<AtomicBool>>,
    /// Workers currently spinning idle — the split fan-out factor.
    waiters: AtomicUsize,
    /// Units currently claimed and running anywhere. Idle workers only
    /// retire once this reaches zero with nothing left to claim.
    busy: AtomicUsize,
    counters: ExecCounters,
    /// The campaign journal, when checkpointing.
    journal: Option<Journal>,
}

/// One block's state: its pending units, the raw outputs delivered so
/// far and its attempt budget.
#[derive(Default)]
struct Bin {
    /// Units waiting to be claimed.
    pending: Vec<SplitUnit>,
    /// Units currently running on some worker.
    active: usize,
    /// Delivered unit outputs with their telemetry deltas.
    done: Vec<(UnitRaw, Snapshot)>,
    /// Whether the block has split: only then are its units journalled.
    split: bool,
    /// Panics so far in any of the block's units.
    panics: u32,
    /// Attempt budget spent: nothing pending, deliveries dropped.
    poisoned: bool,
}

fn lock(bin: &Mutex<Bin>) -> MutexGuard<'_, Bin> {
    bin.lock().expect("split bin poisoned")
}

/// The campaign worker. It claims [`SplitUnit`]s from the blocks' bins,
/// lowest block first — a series of one per block, the whole walk,
/// unless the block splits. When nothing is claimable, an idle worker
/// broadcasts yield requests; a running unit with at least
/// [`MIN_SPLIT_REMAINDER`] positions left yields, is settled to its
/// consumed prefix, and its unconsumed remainder is split into nested
/// sub-shards pushed into the bin, where idle workers claim them.
/// Whoever delivers a bin's last unit reassembles the block
/// ([`Campaign::assemble`]) and commits it — so the merged result is
/// byte-identical to the sequential walk for any worker count and any
/// split schedule.
struct Worker<'a, N: Network> {
    w: usize,
    scanner: Scanner<N>,
    /// This worker's split point: its flag in
    /// [`SplitShared::yield_flags`], armed for every unit it runs.
    gate: YieldGate,
    /// Builds worker `w`'s scanner: what replaces one a panic left.
    new_scanner: &'a (dyn Fn(usize) -> Scanner<N> + Sync),
    campaign: &'a Campaign,
    faults: Option<&'a ExecFaults>,
    shared: &'a SplitShared,
    /// Units claimed so far — the index the fault script matches on.
    units: u64,
    out: WorkerOut,
}

impl<N: Network> Worker<'_, N> {
    /// Claims and runs units until nothing is left for this worker, or
    /// until it must retire (abort or a journal error).
    fn run(&mut self) -> Result<(), StateError> {
        // Idle peers raise every flag, this worker's too before it
        // starts; only a request made during this run counts.
        self.gate.flag.store(false, Ordering::Relaxed);
        loop {
            if self.scanner.is_aborted() {
                return Ok(());
            }
            if let Some((idx, unit)) = self.claim()? {
                if !self.run_unit(idx, unit)? {
                    return Ok(());
                }
                continue;
            }
            if self.shared.busy.load(Ordering::Acquire) == 0 {
                // Nothing claimable and nothing in flight: every block is
                // committed or poisoned. (A panicked peer requeues its
                // unit before it stops counting as busy.)
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

    /// Claims the first pending unit of the lowest-indexed block that
    /// has one. The claim is journalled before the unit is marked
    /// claimed, so a failed append leaves it pending. `busy` is bumped
    /// under the bin lock, so an idle worker observing `busy == 0` can
    /// never race past a unit about to run.
    fn claim(&mut self) -> Result<Option<(usize, SplitUnit)>, StateError> {
        for (idx, bin) in self.shared.bins.iter().enumerate() {
            let mut bin = lock(bin);
            let Some(&unit) = bin.pending.first() else {
                continue;
            };
            if let Some(journal) = &self.shared.journal {
                journal.claim(idx, unit)?;
            }
            bin.pending.remove(0);
            bin.active += 1;
            self.shared.busy.fetch_add(1, Ordering::AcqRel);
            return Ok(Some((idx, unit)));
        }
        Ok(None)
    }

    /// Runs one claimed unit of block `idx`: main pass (yield-capable),
    /// split on yield, per-unit mop-up, then delivery — or, when the run
    /// delivers nothing, the unit's release back into its bin. Returns
    /// `false` when the worker must retire. A panicked unit rebuilds the
    /// worker's scanner, and the worker keeps claiming.
    fn run_unit(&mut self, idx: usize, unit: SplitUnit) -> Result<bool, StateError> {
        let w = self.w;
        let profile = &SAMPLE_BLOCKS[idx];
        let (shared, campaign) = (self.shared, self.campaign);
        let unit_no = self.units;
        self.units += 1;
        let inject = self.faults.is_some_and(|f| f.on_unit(w, unit_no));
        let (scanner, gate) = (&mut self.scanner, &self.gate);
        // What a failed run hands back: the claimed unit or, once it has
        // split, its settled prefix (the parts are already in the bin).
        let mut requeue = unit;
        let attempt = catch_unwind(AssertUnwindSafe(
            || -> Result<Option<(UnitRaw, Snapshot)>, StateError> {
                if inject {
                    panic!("injected executor fault: worker {w} panics on unit {unit_no}");
                }
                let baseline = scanner.telemetry().registry.snapshot();
                let mut raw = campaign.unit_main(scanner, profile, unit, Some(gate));
                if raw.interrupted {
                    return Ok(None);
                }
                if raw.yielded {
                    // Split point: settle this unit to its consumed
                    // prefix and partition the unconsumed remainder into
                    // one nested sub-shard per idle worker (at least 2).
                    let k = (shared.waiters.load(Ordering::Acquire) as u64 + 1).max(2);
                    let (settled, parts) = unit.split_tail(raw.consumed, k);
                    let mut bin = lock(&shared.bins[idx]);
                    if !bin.poisoned {
                        // Journalled before any part becomes claimable,
                        // so no replay meets a part before its split.
                        if let Some(journal) = &shared.journal {
                            journal.split(idx, unit, raw.consumed, k)?;
                        }
                        bin.split = true;
                        bin.pending.extend(parts.iter().copied());
                        let counters = &shared.counters;
                        counters.splits.fetch_add(1, Ordering::Relaxed);
                        counters
                            .split_shards
                            .fetch_add(parts.len() as u64, Ordering::Relaxed);
                    }
                    drop(bin);
                    gate.flag.store(false, Ordering::Relaxed);
                    raw.unit = settled;
                    requeue = settled;
                }
                campaign.unit_mop_up(scanner, profile, &mut raw);
                if scanner.is_aborted() {
                    return Ok(None);
                }
                let delta = scanner.telemetry().registry.snapshot().diff(&baseline);
                Ok(Some((raw, delta)))
            },
        ));
        match attempt {
            Ok(Ok(Some((raw, delta)))) => self.deliver(idx, raw, delta),
            // Aborted mid-unit (the partial work is discarded) or an I/O
            // error: either way this worker stops.
            Ok(result) => {
                self.release(idx, requeue, false);
                result.map(|_| false)
            }
            // Panic mid-unit, scripted or real: this scanner may hold
            // half-mutated per-unit state, so carry on with a new one.
            Err(_) => {
                self.release(idx, requeue, true);
                self.scanner = (self.new_scanner)(w);
                Ok(true)
            }
        }
    }

    /// Hands a claimed `unit` of block `idx` back to its bin after a run
    /// that delivered nothing. A panic charges the block's attempt
    /// budget: within it the unit is requeued, past it the block is
    /// poisoned.
    fn release(&self, idx: usize, unit: SplitUnit, panicked: bool) {
        let counters = &self.shared.counters;
        let mut bin = lock(&self.shared.bins[idx]);
        bin.active -= 1;
        if panicked {
            counters.panics.fetch_add(1, Ordering::Relaxed);
            bin.panics += 1;
            if bin.panics >= MAX_ATTEMPTS {
                bin.poisoned = true;
                bin.pending.clear();
            } else if !bin.poisoned {
                counters.requeued.fetch_add(1, Ordering::Relaxed);
            }
        }
        if !bin.poisoned {
            bin.pending.push(unit);
        }
        drop(bin);
        // After the requeue, so a peer that sees nothing in flight also
        // sees the unit back in its bin.
        self.shared.busy.fetch_sub(1, Ordering::AcqRel);
    }

    /// Delivers a finished unit of block `idx` — journalled first, once
    /// the block has split — and commits the block when it was the last
    /// unit out. A poisoned block drops the delivery.
    fn deliver(&mut self, idx: usize, raw: UnitRaw, delta: Snapshot) -> Result<bool, StateError> {
        let journal = self.shared.journal.as_ref();
        if let Some(journal) = journal.filter(|_| lock(&self.shared.bins[idx]).split) {
            if let Err(e) = journal.unit(idx, &raw, &delta) {
                self.release(idx, raw.unit, false);
                return Err(e);
            }
        }
        let complete = {
            let mut bin = lock(&self.shared.bins[idx]);
            bin.active -= 1;
            if !bin.poisoned {
                bin.done.push((raw, delta));
            }
            (!bin.poisoned && bin.pending.is_empty() && bin.active == 0)
                .then(|| std::mem::take(&mut bin.done))
        };
        self.shared.busy.fetch_sub(1, Ordering::AcqRel);
        if let Some(done) = complete {
            let tracer = self.scanner.tracer();
            let (block, delta) = commit_block(self.campaign, journal, idx, done, tracer)?;
            self.out.committed.merge(&delta);
            self.out.done.push((idx, block));
        }
        Ok(true)
    }
}

/// Assembles block `idx` from its delivered units
/// ([`Campaign::assemble`]) and, when checkpointing, journals it. Returns
/// the block and its merged telemetry delta.
fn commit_block(
    campaign: &Campaign,
    journal: Option<&Journal>,
    idx: usize,
    mut done: Vec<(UnitRaw, Snapshot)>,
    tracer: &Tracer,
) -> Result<Committed, StateError> {
    done.sort_by_key(|(raw, _)| raw.unit.offset);
    let mut delta = Snapshot::default();
    let mut raws = Vec::with_capacity(done.len());
    for (raw, d) in done {
        delta.merge(&d);
        raws.push(raw);
    }
    let block = campaign.assemble(&SAMPLE_BLOCKS[idx], raws, tracer);
    if let Some(journal) = journal {
        journal.block(idx, &block, &delta)?;
    }
    Ok((block, delta))
}

/// Entry 0: states the run the journal belongs to.
const DIR: Kind = Kind {
    name: "campaign-dir",
};
/// A claimed unit.
const CLAIM: Kind = Kind {
    name: "campaign-claim",
};
/// A unit that yielded, with where and how its tail was split.
const SPLIT: Kind = Kind {
    name: "campaign-split",
};
/// One delivered unit of a split block.
const UNIT: Kind = Kind {
    name: "campaign-unit",
};
/// One committed block.
const BLOCK: Kind = Kind {
    name: "campaign-block",
};

/// The campaign journal, `campaign.ckpt`, shared by every worker. A
/// failed append closes it at its last synced entry ([`Wal`]), and every
/// later one fails too.
struct Journal {
    fp: u64,
    wal: Mutex<Wal>,
}

impl Journal {
    /// Appends `entry`, then syncs the journal (`durable`) or only
    /// flushes it.
    fn append(&self, entry: &[u8], durable: bool) -> Result<(), StateError> {
        let mut wal = self.wal.lock().expect("campaign journal poisoned");
        wal.append(entry)?;
        if durable {
            wal.sync()
        } else {
            wal.flush()
        }
    }

    /// Journals a claim of `unit` of block `idx`.
    fn claim(&self, idx: usize, unit: SplitUnit) -> Result<(), StateError> {
        self.append(&CLAIM.entry(&unit_fields(idx, unit), self.fp, &[]), false)
    }

    /// Journals `unit`'s yield after `consumed` positions, its tail dealt
    /// into `k` parts.
    fn split(&self, idx: usize, unit: SplitUnit, consumed: u64, k: u64) -> Result<(), StateError> {
        let [block, offset, stride, cap] = unit_fields(idx, unit);
        let fields = [block, offset, stride, cap, ("consumed", consumed), ("k", k)];
        self.append(&SPLIT.entry(&fields, self.fp, &[]), false)
    }

    /// Journals one delivered unit of a split block: its telemetry delta
    /// plus the raw, classification-free output [`Campaign::assemble`]
    /// merges.
    fn unit(&self, idx: usize, raw: &UnitRaw, metrics: &Snapshot) -> Result<(), StateError> {
        let mut e = Encoder::new();
        encode_unit_raw(&mut e, raw);
        let sections = [("metrics", encode_snapshot(metrics)), ("unit", e.finish())];
        self.append(
            &UNIT.entry(&unit_fields(idx, raw.unit), self.fp, &sections),
            true,
        )
    }

    /// Journals one committed block: its records and telemetry delta.
    fn block(&self, idx: usize, block: &BlockResult, metrics: &Snapshot) -> Result<(), StateError> {
        let mut e = Encoder::new();
        encode_block(&mut e, block);
        let fields = [("block", idx as u64), ("profile", block.profile_id as u64)];
        let sections = [("metrics", encode_snapshot(metrics)), ("block", e.finish())];
        self.append(&BLOCK.entry(&fields, self.fp, &sections), true)
    }
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

/// One block as the journal leaves it.
struct Replay {
    /// Its committed result, once it has one.
    committed: Option<Committed>,
    /// Its current unit partition, each unit with its resume mode.
    units: Vec<UnitPlan>,
    /// Whether it has split.
    split: bool,
    /// The delivered units' outputs and telemetry deltas.
    done: Vec<(UnitRaw, Snapshot)>,
}

impl Replay {
    fn mode(&self) -> BlockMode {
        if self.committed.is_some() {
            BlockMode::Skip
        } else if self.split {
            BlockMode::Split(self.units.clone())
        } else if self.units[0].mode == UnitMode::Resume {
            BlockMode::Resume
        } else {
            BlockMode::Fresh
        }
    }

    /// The block's bin: its undelivered units pending, its delivered
    /// ones done.
    fn into_bin(self) -> Bin {
        let pending = self.units.iter().filter(|p| p.mode != UnitMode::Skip);
        Bin {
            pending: pending.map(|p| p.unit).collect(),
            done: self.done,
            split: self.split,
            ..Bin::default()
        }
    }
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

    /// The world every test network is built from.
    fn world() -> WorldConfig {
        WorldConfig::lossless(99, 50)
    }

    fn make_world(_w: usize, telemetry: &Telemetry) -> World {
        let mut world = World::with_config(world());
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
            .run_checkpointed(&base(tpb), &world(), &dir, false, None, make_world)
            .unwrap();
        assert!(!outcome.interrupted);
        assert_eq!(outcome.result.blocks.len(), SAMPLE_BLOCKS.len());
        let plan = exec.resume_plan(&base(tpb), &world(), &dir).unwrap();
        assert!(plan.iter().all(|m| *m == BlockMode::Skip), "{plan:?}");
        // A resume with everything checkpointed scans nothing and still
        // reproduces the result and snapshot exactly.
        let resumed = exec
            .run_checkpointed(&base(tpb), &world(), &dir, true, None, make_world)
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
            .run_checkpointed(
                &base(tpb),
                &world(),
                &dir,
                false,
                Some(&signal),
                |w, telemetry| {
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
                },
            )
            .unwrap();
        assert!(partial.interrupted, "kill point must interrupt");
        assert!(partial.result.blocks.len() < SAMPLE_BLOCKS.len());

        let plan = exec2.resume_plan(&base(tpb), &world(), &dir).unwrap();
        assert!(plan.contains(&BlockMode::Skip), "{plan:?}");
        assert!(
            plan.iter().any(|m| *m != BlockMode::Skip),
            "something must be left to do: {plan:?}"
        );

        // Resume under a different worker count.
        let exec3 = ParallelCampaign::new(Campaign::new(tpb), 3);
        let full = exec3
            .run_checkpointed(&base(tpb), &world(), &dir, true, None, make_world)
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
            .run_checkpointed(&base(tpb), &world(), &dir, false, None, make_world)
            .unwrap();
        let other = ParallelCampaign::new(Campaign::new(tpb * 2), 2);
        let err = other
            .run_checkpointed(&base(tpb * 2), &world(), &dir, true, None, make_world)
            .unwrap_err();
        assert!(matches!(err, StateError::Mismatch(_)), "{err:?}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A directory written under shard 0 of 2 holds shard 0's blocks; a
    /// resume under shard 1 of 2 once loaded them as its own result.
    #[test]
    fn resume_under_another_shard_is_refused() {
        let dir = std::env::temp_dir().join(format!("xmap-pcamp-shard-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let tpb = 1 << 10;
        let shard = |shard| ScanConfig {
            shard,
            shards: 2,
            ..base(tpb)
        };
        let exec = ParallelCampaign::new(Campaign::new(tpb), 1);
        exec.run_checkpointed(&shard(0), &world(), &dir, false, None, make_world)
            .unwrap();
        let journal = std::fs::read(dir.join("campaign.ckpt")).unwrap();
        let refusals = [
            exec.resume_plan(&shard(1), &world(), &dir).unwrap_err(),
            exec.run_checkpointed(&shard(1), &world(), &dir, true, None, make_world)
                .unwrap_err(),
        ];
        for err in refusals {
            match err {
                StateError::Mismatch(why) => {
                    assert_eq!(why, "shard: checkpoint has 0, current run has 1")
                }
                other => panic!("expected a mismatch, got {other:?}"),
            }
        }
        assert_eq!(std::fs::read(dir.join("campaign.ckpt")).unwrap(), journal);
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
        // requeued unit re-runs on whichever worker claims it next, the
        // surviving one or worker 0 on its rebuilt scanner.
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
    fn single_worker_panic_rebuilds_the_worker() {
        let tpb = 1 << 9;
        let (seq, seq_snap) = sequential(tpb);
        // The only worker panics on its fourth unit; on a rebuilt scanner
        // it must finish the requeued unit and every block after it,
        // still byte-identically — splitting them too when forced to.
        for force_split_at in [None, Some(300)] {
            let mut exec = ParallelCampaign::new(Campaign::new(tpb), 1)
                .with_exec_faults(ExecPlan::panic_on(0, 3));
            if let Some(at) = force_split_at {
                exec = exec.with_force_split_at(at);
            }
            let outcome = exec.run(&base(tpb), make_world);
            assert!(!outcome.interrupted);
            assert!(outcome.poisoned.is_empty(), "{:?}", outcome.poisoned);
            assert_eq!(outcome.result, seq, "rebuilt worker diverged");
            assert_eq!(outcome.snapshot.counter(names::EXEC_WORKER_PANICS), 1);
            if force_split_at.is_some() {
                assert!(outcome.snapshot.counter(names::EXEC_SPLITS) >= 1);
            }
            assert_eq!(strip_exec(outcome.snapshot), seq_snap);
        }
    }

    #[test]
    fn panic_in_a_sub_shard_reruns_only_that_sub_shard() {
        use xmap_netsim::telemetry::names::PROBES;
        let tpb = 1 << 9;
        let (seq, seq_snap) = sequential(tpb);
        // Runs `exec` and sums `netsim.probes` over every registry its
        // factory handed out, the rebuilt scanner's included: the work
        // done.
        let run = |exec: ParallelCampaign| {
            let handed = Mutex::new(Vec::new());
            let outcome = exec.run(&base(tpb), |w, telemetry| {
                handed.lock().unwrap().push(telemetry.clone());
                make_world(w, telemetry)
            });
            let probes: u64 = handed
                .into_inner()
                .unwrap()
                .iter()
                .map(|t| t.registry.snapshot().counter(PROBES))
                .sum();
            (outcome, probes)
        };
        let split = || ParallelCampaign::new(Campaign::new(tpb), 1).with_force_split_at(300);
        let (clean, clean_probes) = run(split());
        // Unit 0 is block 0's whole walk, which splits after 300
        // positions; unit 1 is the first of its parts. Only that part
        // re-runs: the settled prefix it split from stays delivered.
        let (faulty, faulty_probes) = run(split().with_exec_faults(ExecPlan::panic_on(0, 1)));
        assert!(faulty.poisoned.is_empty(), "{:?}", faulty.poisoned);
        assert_eq!(faulty.snapshot.counter(names::EXEC_WORKER_PANICS), 1);
        assert_eq!(faulty.snapshot.counter(names::EXEC_REQUEUED), 1);
        assert_eq!(
            faulty_probes, clean_probes,
            "a panic must re-run only the sub-shard it hit"
        );
        assert_eq!(faulty.result, clean.result);
        assert_eq!(faulty.result, seq);
        let clean_snap = strip_exec(clean.snapshot);
        assert_eq!(clean_snap, seq_snap);
        assert_eq!(strip_exec(faulty.snapshot), clean_snap);
    }

    #[test]
    fn rebuilt_worker_commits_checkpoints_like_the_first() {
        let dir = std::env::temp_dir().join(format!("xmap-pcamp-rebuilt-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let tpb = 1 << 9;
        let (seq, seq_snap) = sequential(tpb);
        // The only worker panics inside the first block after a forced
        // split, so its rebuilt scanner commits all fifteen blocks
        // through the same claim/unit/commit path.
        let exec = ParallelCampaign::new(Campaign::new(tpb), 1)
            .with_force_split_at(300)
            .with_exec_faults(ExecPlan::panic_on(0, 1));
        let outcome = exec
            .run_checkpointed(&base(tpb), &world(), &dir, false, None, make_world)
            .unwrap();
        assert!(outcome.poisoned.is_empty(), "{:?}", outcome.poisoned);
        assert_eq!(outcome.result, seq, "rebuilt-worker campaign diverged");
        assert_eq!(strip_exec(outcome.snapshot), seq_snap);
        let files: Vec<String> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
            .collect();
        assert_eq!(files, ["campaign.ckpt"], "the journal is the only file");
        let plan = exec.resume_plan(&base(tpb), &world(), &dir).unwrap();
        assert!(plan.iter().all(|m| *m == BlockMode::Skip), "{plan:?}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A panic in the factory while a worker rebuilds is no unit's: it
    /// must end the run, not turn into a worker that delivered nothing
    /// and a block reported as poisoned.
    #[test]
    #[should_panic(expected = "factory fails on rebuild")]
    fn factory_panic_on_rebuild_propagates() {
        let tpb = 1 << 9;
        let calls = AtomicUsize::new(0);
        let outcome = ParallelCampaign::new(Campaign::new(tpb), 1)
            .with_exec_faults(ExecPlan::panic_on(0, 0))
            .run(&base(tpb), |w, telemetry| {
                // Call 0 builds the worker; call 1 rebuilds it after the
                // scripted panic.
                if calls.fetch_add(1, Ordering::Relaxed) == 1 {
                    panic!("factory fails on rebuild");
                }
                make_world(w, telemetry)
            });
        panic!("the run returned: poisoned {:?}", outcome.poisoned);
    }

    #[test]
    fn poisoned_block_leaves_deterministic_gap() {
        use xmap_failpoint::exec::ExecRule;
        let tpb = 1 << 9;
        let (seq, _) = sequential(tpb);
        // One worker: the scripted panics on the sixth claimed unit
        // (= block index 5, claims are in block order) and on its re-run,
        // the seventh, spend the block's `MAX_ATTEMPTS` and poison it.
        // The campaign must complete around the gap with every other
        // block in Table II order.
        let outcome = ParallelCampaign::new(Campaign::new(tpb), 1)
            .with_exec_faults(ExecPlan {
                rules: vec![
                    ExecRule { worker: 0, nth: 5 },
                    ExecRule { worker: 0, nth: 6 },
                ],
            })
            .run(&base(tpb), make_world);
        assert_eq!(outcome.poisoned, vec![5]);
        assert_eq!(outcome.result.blocks.len(), SAMPLE_BLOCKS.len() - 1);
        let mut expect = seq.blocks.clone();
        expect.remove(5);
        assert_eq!(outcome.result.blocks, expect, "merge order must hold");
        assert_eq!(outcome.snapshot.counter(names::EXEC_POISONED), 1);
    }

    #[test]
    fn torn_last_block_entry_reruns_only_that_block() {
        use xmap_state::wal::frame_len;
        let dir = std::env::temp_dir().join(format!("xmap-pcamp-torn-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let tpb = 1 << 9;
        // One worker commits the blocks in order, so the last block's
        // entry ends the journal.
        let exec = ParallelCampaign::new(Campaign::new(tpb), 1);
        let full = exec
            .run_checkpointed(&base(tpb), &world(), &dir, false, None, make_world)
            .unwrap();
        let path = dir.join("campaign.ckpt");
        let journal = std::fs::read(&path).unwrap();
        let entries = Wal::recover(&path).unwrap().entries;
        let block_entry = |idx: u64| {
            entries.iter().position(|e| {
                Opened::parse(e, String::new(), None)
                    .is_ok_and(|ck| ck.kind() == BLOCK.name && ck.field("block").ok() == Some(idx))
            })
        };
        let last = SAMPLE_BLOCKS.len() - 1;
        assert_eq!(block_entry(last as u64), Some(entries.len() - 1));
        // Blocks before `torn` load, `torn` re-runs from its claim, and
        // the blocks after it were never journalled.
        let plan = |torn: usize| -> Vec<BlockMode> {
            (0..SAMPLE_BLOCKS.len())
                .map(|idx| match idx.cmp(&torn) {
                    std::cmp::Ordering::Less => BlockMode::Skip,
                    std::cmp::Ordering::Equal => BlockMode::Resume,
                    std::cmp::Ordering::Greater => BlockMode::Fresh,
                })
                .collect()
        };
        let resume_matches = |label: &str| {
            let resumed = exec
                .run_checkpointed(&base(tpb), &world(), &dir, true, None, make_world)
                .unwrap();
            assert_eq!(resumed.result, full.result, "{label}");
            assert_eq!(resumed.snapshot, full.snapshot, "{label}");
        };
        let last_start = journal.len() - frame_len(entries[entries.len() - 1].len()) as usize;
        for len in last_start..journal.len() {
            std::fs::write(&path, &journal[..len]).unwrap();
            let label = format!("journal cut to {len} bytes");
            assert_eq!(
                exec.resume_plan(&base(tpb), &world(), &dir).unwrap(),
                plan(last),
                "{label}"
            );
            resume_matches(&label);
        }
        // A torn entry mid-file drops every entry after it too.
        let mid = block_entry(7).unwrap();
        let at: u64 = entries[..mid].iter().map(|e| frame_len(e.len())).sum();
        let mut bytes = journal.clone();
        bytes[at as usize + 20] ^= 0xff;
        std::fs::write(&path, &bytes).unwrap();
        assert_eq!(
            exec.resume_plan(&base(tpb), &world(), &dir).unwrap(),
            plan(7)
        );
        resume_matches("block 7's entry torn mid-file");
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
    fn forced_split_on_a_sharded_base_matches_unsplit() {
        // A split unit nests inside the scanner's own shard slot: on
        // shard 1 of 2, every split schedule walks exactly the positions
        // the unsplit run walks, never the other shard's.
        let tpb = 1 << 12;
        let world = |_w: usize, telemetry: &Telemetry| {
            let mut world = World::new(7);
            world.set_telemetry(telemetry);
            world
        };
        for (shard, shards) in [(1u64, 2u64), (0, 1)] {
            let cfg = ScanConfig {
                seed: 3,
                shard,
                shards,
                ..Default::default()
            };
            let unsplit = ParallelCampaign::new(Campaign::new(tpb), 1).run(&cfg, world);
            assert!(!unsplit.snapshot.counters.contains_key(names::EXEC_SPLITS));
            for workers in [1usize, 2] {
                for force in [None, Some(100)] {
                    let mut exec = ParallelCampaign::new(Campaign::new(tpb), workers);
                    if let Some(at) = force {
                        exec = exec.with_force_split_at(at);
                    }
                    let outcome = exec.run(&cfg, world);
                    let what = format!("shard {shard}/{shards}, {workers} workers, {force:?}");
                    assert!(!outcome.interrupted, "{what}");
                    assert!(outcome.poisoned.is_empty(), "{what}");
                    if force.is_some() {
                        assert!(outcome.snapshot.counter(names::EXEC_SPLITS) >= 1, "{what}");
                    }
                    assert_eq!(outcome.result, unsplit.result, "{what}: result diverged");
                    assert_eq!(
                        strip_exec(outcome.snapshot),
                        unsplit.snapshot,
                        "{what}: snapshot diverged"
                    );
                }
            }
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
        // so by probe 6k the journal holds the in-flight block's split
        // entry plus at least one of its unit entries.
        let signal = AbortSignal::new();
        let exec1 = ParallelCampaign::new(Campaign::new(tpb), 1).with_force_split_at(1_000);
        let partial = exec1
            .run_checkpointed(
                &base(tpb),
                &world(),
                &dir,
                false,
                Some(&signal),
                |_w, telemetry| {
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
                },
            )
            .unwrap();
        assert!(partial.interrupted, "kill point must interrupt");

        let plan = exec1.resume_plan(&base(tpb), &world(), &dir).unwrap();
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
            .run_checkpointed(&base(tpb), &world(), &dir, true, None, make_world)
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

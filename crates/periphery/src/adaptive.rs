//! Adaptive density-guided target generation.
//!
//! The exhaustive campaign spends its probe budget uniformly across a
//! block, dense and silent space alike. This module drives the same
//! discovery pipeline with a feedback loop in the shape of prefix-crab's
//! split-and-follow-up: model the block as a [`PrefixTree`], seed a
//! coarse sweep, score sub-prefixes by hit density, **split** responsive
//! ones for finer-grained probing, **prune** silent ones early, fully
//! enumerate responsive nodes once they are small, and stop when the
//! frontier empties or the probe budget runs out.
//!
//! # Determinism
//!
//! A campaign is a sequence of *rounds*; a round is a list of *units*
//! (one frontier node's sample batch), fixed before any probe is sent.
//! Every unit runs as a pure function of (unit, seed, world
//! configuration) on one of the campaign's long-lived *probers* — one
//! telemetry bundle + world + scanner per worker, built once per
//! campaign. A prober runs every unit it claims in a round through one
//! targeted session, which publishes its counts once, at the round's
//! end. Purity is bought by [`Network::reset`] before each unit: the
//! world forgets what earlier probes taught it (per-device ICMPv6
//! limiter state, the discovered-WAN registry, delayed responses, the
//! clock) and answers exactly as a freshly built replica would, while
//! its telemetry binding and lifetime statistics run on. The driver
//! merges unit results in unit-index order, and metrics reach the
//! campaign snapshot as *registry deltas* — each prober's registry
//! diffed against what was already absorbed, in worker-index order.
//! Counters and histogram buckets sum commutatively, so which prober
//! ran which unit never shows. Worker count only changes which thread
//! runs a unit, never what the unit computes or the order results
//! merge, so output is byte-identical across 1/2/4 workers.
//!
//! # Checkpoints
//!
//! Round boundaries double as checkpoint points. A checkpointed campaign
//! appends each finished round — its unit results and the telemetry
//! delta absorbed at its end — to one journal, `adaptive.ckpt`, and
//! syncs it. A round's merge and settle step is a deterministic function
//! of its unit results, so a resume runs the same round loop on the
//! journalled results instead of probing: tree, seen-set, peripheries
//! and probe spend are recomputed, not restored, under any worker count.

use std::collections::VecDeque;
use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

use xmap::{
    fill_host_bits, merge_worker_snapshots, Blocklist, FeistelPermutation, IcmpEchoProbe,
    IndexWalk, ProbeResult, ScanConfig, ScanStats, Scanner, ScopedBlocklist, Targeted,
};
use xmap_addr::{classify_iid, FxHashSet, IidClass, Ip6, Mac, Prefix, PrefixTree};
use xmap_netsim::isp::SAMPLE_BLOCKS;
use xmap_netsim::packet::Network;
use xmap_netsim::world::WorldConfig;
use xmap_state::checkpoint::{decode_snapshot, encode_snapshot, Identity, Kind, Opened};
use xmap_state::codec::{Decoder, Encoder};
use xmap_state::{Fingerprint, StateError, Wal};
use xmap_telemetry::{Snapshot, Telemetry};

use crate::campaign::{
    decode_stats, encode_stats, push_world, BlockResult, CampaignResult, DiscoveredPeriphery,
};
use crate::infer_boundary;

/// What an adaptive campaign is asked to do. Each arm's split/prune
/// policy (sample size, split and prune thresholds, branching) is a
/// constant set private to this module.
#[derive(Debug, Clone, PartialEq)]
pub struct AdaptiveConfig {
    /// Maximum probes drawn per block (the scan stops early when the
    /// frontier empties).
    pub probe_budget: u64,
    /// Restrict each block to its first `2^root_bits` leaf targets —
    /// the equal-coverage slice the ablation compares on. `None` scans
    /// the whole block.
    pub root_bits: Option<u8>,
    /// Run the exhaustive ablation arm's policy instead of the adaptive
    /// one.
    pub exhaustive: bool,
}

impl Default for AdaptiveConfig {
    fn default() -> Self {
        AdaptiveConfig {
            probe_budget: 1 << 16,
            root_bits: None,
            exhaustive: false,
        }
    }
}

impl AdaptiveConfig {
    /// The exhaustive ablation arm: the same pipeline with adaptation
    /// switched off — nothing is ever pruned or split, the root is
    /// enumerated to exhaustion. Probes drawn equals the root span, so
    /// this is the equal-coverage baseline the adaptive arm is compared
    /// against.
    pub fn exhaustive(root_bits: Option<u8>) -> Self {
        AdaptiveConfig {
            probe_budget: u64::MAX,
            root_bits,
            exhaustive: true,
        }
    }

    fn policy(&self) -> &'static Policy {
        if self.exhaustive {
            &EXHAUSTIVE
        } else {
            &ADAPTIVE
        }
    }
}

/// One arm's split/prune policy.
struct Policy {
    /// Samples drawn from each frontier node per round.
    samples_per_node: u64,
    /// Minimum hit density for a responsive node to split.
    split_density: f64,
    /// Silent probes a node must absorb before it may be pruned or
    /// force-split.
    prune_after: u64,
    /// Only silent nodes spanning at most this many leaf targets are
    /// pruned; larger silent nodes split instead, so sparse-but-alive
    /// space keeps being examined at finer granularity.
    prune_max_span: u128,
    /// Responsive nodes spanning at most this many leaf targets are
    /// enumerated to exhaustion instead of split (splitting overhead
    /// would exceed the enumeration).
    exhaust_span: u128,
    /// Bits added per split level.
    branch_bits: u8,
    /// Safety valve on rounds per block.
    max_rounds: u64,
}

/// The adaptive arm: 16-probe samples, split on any hit, prune a
/// node of at most 256 leaves after 32 silent probes.
const ADAPTIVE: Policy = Policy {
    samples_per_node: 16,
    split_density: 0.0,
    prune_after: 32,
    prune_max_span: 256,
    exhaust_span: 256,
    branch_bits: 4,
    max_rounds: 10_000,
};

/// The exhaustive arm: a split needs density > 1.0, which is
/// impossible, and nothing is pruned, so the root stays whole and is
/// sampled until its cursor exhausts it.
const EXHAUSTIVE: Policy = Policy {
    samples_per_node: 4096,
    split_density: 2.0,
    prune_after: u64::MAX,
    prune_max_span: 0,
    exhaust_span: u128::MAX,
    branch_bits: 4,
    max_rounds: u64::MAX,
};

/// Outcome of an adaptive campaign.
#[derive(Debug, Clone)]
pub struct AdaptiveOutcome {
    /// Per-block results in Table II order (same shape as the
    /// exhaustive campaign, so CSV rendering and serve units reuse it).
    pub result: CampaignResult,
    /// Merged telemetry across every unit (counters and histograms sum,
    /// so the export does not depend on which worker ran which unit).
    pub snapshot: Snapshot,
    /// Whether the campaign stopped at the engine kill point with its
    /// progress checkpointed (exit-code-3 path).
    pub interrupted: bool,
}

/// Adaptive-campaign driver over the fifteen sample blocks.
///
/// # Examples
///
/// ```
/// use xmap::ScanConfig;
/// use xmap_netsim::World;
/// use xmap_periphery::{AdaptiveCampaign, AdaptiveConfig};
///
/// let engine = AdaptiveCampaign::new(AdaptiveConfig {
///     probe_budget: 1 << 10,
///     root_bits: Some(12),
///     ..AdaptiveConfig::default()
/// });
/// let base = ScanConfig { seed: 7, ..Default::default() };
/// let outcome = engine.run(&base, |telemetry| {
///     let mut world = World::new(99);
///     world.set_telemetry(telemetry);
///     world
/// });
/// assert_eq!(outcome.result.blocks.len(), 15);
/// ```
#[derive(Debug, Clone)]
pub struct AdaptiveCampaign {
    /// Engine knobs.
    pub config: AdaptiveConfig,
    workers: usize,
    blocklist: Blocklist,
    infer: bool,
    kill_after_probes: Option<u64>,
}

/// One frontier node's sample batch — fixed before the round starts.
#[derive(Debug, Clone, Copy)]
struct Unit {
    node: usize,
    prefix: Prefix,
    span: u64,
    cursor: u64,
    count: u64,
}

/// What a unit computed, merged in unit-index order.
#[derive(Debug)]
struct UnitResult {
    node: usize,
    drawn: u64,
    hits: u64,
    /// (responder, target, probe_dst, via_time_exceeded)
    finds: Vec<(Ip6, Prefix, Ip6, bool)>,
    aliases: Vec<Prefix>,
    stats: ScanStats,
}

/// Rounds drawing fewer probes than this run inline on the calling
/// thread: a two-worker `thread::scope` measured ≈ 60 µs to spawn and
/// join against ≈ 45 ns per adaptive probe (the benchmark ledger's
/// `periphery.adaptive.ns_per_probe` with one targeted session per
/// prober per round, 41–49 ns on a 2-vCPU host), so splitting a round
/// only pays from ≈ 2 · 60 µs / 45 ns ≈ 2,700 probes. Two-worker
/// campaigns timed at 2^10 and at 2^11 showed no difference on that
/// host (EXPERIMENTS.md), so the threshold stays at 2^10.
const MIN_PARALLEL_ROUND_PROBES: u64 = 1 << 10;

/// One worker's probing fixture, built once per campaign and reused by
/// every unit that worker runs.
struct Prober<N> {
    scanner: Scanner<N>,
    /// The scanner's registry as of the last
    /// [`absorb_into`](Prober::absorb_into).
    absorbed: Snapshot,
    /// Whether anything ran since then (an idle prober contributes
    /// nothing, not even zero-valued metric names).
    dirty: bool,
}

impl<N: Network> Prober<N> {
    fn new(base: &ScanConfig, make_world: impl Fn(&Telemetry) -> N) -> Self {
        let telemetry = Telemetry::new();
        let network = make_world(&telemetry);
        Prober {
            scanner: Scanner::with_telemetry(network, base.clone(), telemetry),
            absorbed: Snapshot::default(),
            dirty: false,
        }
    }

    /// Lends the scanner over a network reset to just-constructed
    /// behaviour, for a block's boundary inference.
    fn fresh(&mut self) -> &mut Scanner<N> {
        self.dirty = true;
        self.scanner.network_mut().reset();
        &mut self.scanner
    }

    /// Runs the units `claims` hands out, in claim order, through one
    /// targeted session: the network is reset before each unit, which
    /// keeps it a pure function of its inputs, and each result goes to
    /// `done` with its unit index. The session publishes once, when it
    /// ends; a prober that claims nothing opens none and stays clean.
    fn run_units(
        &mut self,
        round: &Round<'_>,
        claims: impl Iterator<Item = usize>,
        mut done: impl FnMut(usize, UnitResult),
    ) {
        let mut claims = claims.peekable();
        if claims.peek().is_none() {
            return;
        }
        self.dirty = true;
        let mut session = self.scanner.targeted();
        let mut answers = Vec::new();
        for i in claims {
            session.reset_network();
            let unit = &round.units[i];
            done(i, round.run_unit(unit, &mut session, &mut answers));
        }
    }

    /// Merges what this prober's registry gained since the last call
    /// into `snapshot`.
    fn absorb_into(&mut self, snapshot: &mut Snapshot) {
        if !self.dirty {
            return;
        }
        let now = self.scanner.telemetry().registry.snapshot();
        snapshot.merge(&now.diff(&self.absorbed));
        self.absorbed = now;
        self.dirty = false;
    }
}

fn absorb_all<N: Network>(probers: &mut [Prober<N>], snapshot: &mut Snapshot) {
    for prober in probers {
        prober.absorb_into(snapshot);
    }
}

/// An in-progress block between rounds.
struct PartialBlock {
    /// Its index in [`SAMPLE_BLOCKS`].
    idx: usize,
    tree: PrefixTree,
    block: BlockResult,
    round: u64,
}

impl AdaptiveCampaign {
    /// An engine with the standard reserved-space blocklist and one
    /// worker.
    pub fn new(config: AdaptiveConfig) -> Self {
        AdaptiveCampaign {
            config,
            workers: 1,
            blocklist: Blocklist::with_standard_reserved(),
            infer: false,
            kill_after_probes: None,
        }
    }

    /// Sets the worker-thread count. Output is byte-identical for any
    /// value.
    #[must_use]
    pub fn with_workers(mut self, workers: usize) -> Self {
        assert!(workers > 0, "worker count must be positive");
        self.workers = workers;
        self
    }

    /// Overrides the blocklist.
    #[must_use]
    pub fn with_blocklist(mut self, blocklist: Blocklist) -> Self {
        self.blocklist = blocklist;
        self
    }

    /// Infers each block's subnet boundary (Section IV-A) before
    /// building its tree, instead of trusting the profile's assigned
    /// length; the inference's probes count against the block's budget.
    #[must_use]
    pub fn with_inferred_boundary(mut self, infer: bool) -> Self {
        self.infer = infer;
        self
    }

    /// Arms a deterministic engine kill: once the campaign has drawn
    /// this many probes in total it stops at the next round boundary
    /// with everything checkpointed (the kill-and-resume test hook;
    /// round boundaries make it worker-count-independent).
    #[must_use]
    pub fn with_kill_after_probes(mut self, probes: u64) -> Self {
        self.kill_after_probes = Some(probes);
        self
    }

    /// What an `adaptive.ckpt` journal of this engine resumes: every
    /// setting that changes its output, scan, world and engine, each
    /// field ruled in or out below. The world comes in as the argument
    /// the caller builds its probers' worlds from. The arm's policy
    /// constants follow from `exhaustive`.
    pub fn identity(&self, base: &ScanConfig, world: &WorldConfig) -> Identity {
        let AdaptiveCampaign {
            config,
            blocklist,
            infer,
            // Any worker count resumes a journal, and the kill point
            // only says where a run stops.
            workers: _,
            kill_after_probes: _,
        } = self;
        let AdaptiveConfig {
            probe_budget,
            root_bits,
            exhaustive,
        } = config;
        let ScanConfig {
            seed,
            source,
            hop_limit,
            // Units probe through targeted sessions: one probe per drawn
            // target, no walk, shard, cap, pacing, retry or silent list.
            permutation: _,
            shard: _,
            shards: _,
            max_targets: _,
            rate_pps: _,
            probes_per_target: _,
            rto_ticks: _,
            record_silent: _,
        } = base;
        let mut id = Identity::new(ADAPTIVE_FORMAT);
        id.push("seed", seed)
            .push("source", source)
            .push("hop_limit", hop_limit);
        push_world(&mut id, world);
        id.push("probe_budget", probe_budget)
            .push("root_bits", format!("{root_bits:?}"))
            .push("exhaustive", exhaustive)
            .push("blocklist", format!("{:#018x}", blocklist.fingerprint()))
            .push("infer", infer);
        id
    }

    /// Runs the adaptive campaign over every sample block.
    pub fn run<N, F>(&self, base: &ScanConfig, make_world: F) -> AdaptiveOutcome
    where
        N: Network + Send,
        F: Fn(&Telemetry) -> N + Sync,
    {
        self.run_inner(None, &mut self.probers(base, &make_world))
            .expect("in-memory run cannot hit checkpoint I/O")
    }

    /// Runs with each finished round journalled at `path` (a file). When
    /// the engine kill point fires the call returns with
    /// [`AdaptiveOutcome::interrupted`] set; rerunning with
    /// `resume: true` — under any worker count — replays the journal and
    /// produces byte-identical final output. `world` is the world
    /// `make_world` builds: with `base` and the engine it is the run's
    /// [`identity`](Self::identity), which entry 0 of the journal states.
    /// A journal of a run that differs in any identity field is
    /// [`StateError::Mismatch`] naming the fields, one whose rounds are
    /// not the campaign's [`StateError::Corrupt`], and an older build's
    /// [`StateError::Version`].
    pub fn run_checkpointed<N, F>(
        &self,
        base: &ScanConfig,
        world: &WorldConfig,
        path: &Path,
        resume: bool,
        make_world: F,
    ) -> Result<AdaptiveOutcome, StateError>
    where
        N: Network + Send,
        F: Fn(&Telemetry) -> N + Sync,
    {
        let mut journal = Journal::open(path, &self.identity(base, world), resume)?;
        let outcome = self.run_inner(Some(&mut journal), &mut self.probers(base, &make_world))?;
        match journal.pending.front() {
            Some(ck) => Err(ck.corrupt("is a round the campaign never runs")),
            None => Ok(outcome),
        }
    }

    /// Runs the adaptive loop over a single sample block — the
    /// `xmap-serve` unit shape (one block per schedulable unit, pure
    /// function of the spec).
    ///
    /// # Panics
    ///
    /// Panics if `block >= SAMPLE_BLOCKS.len()`.
    pub fn run_single_block<N, F>(
        &self,
        block: usize,
        base: &ScanConfig,
        make_world: F,
    ) -> (BlockResult, Snapshot)
    where
        N: Network + Send,
        F: Fn(&Telemetry) -> N + Sync,
    {
        let mut probers = self.probers(base, &make_world);
        let mut snapshot = Snapshot::default();
        let mut spent = 0u64;
        let (done, _) = self
            .run_block(block, &mut probers, None, &mut snapshot, &mut spent)
            .expect("in-memory block run cannot hit checkpoint I/O");
        (done, snapshot)
    }

    /// Builds the campaign's probers, one per worker — the only place
    /// this module constructs a telemetry bundle, a world or a scanner.
    fn probers<N: Network>(
        &self,
        base: &ScanConfig,
        make_world: &impl Fn(&Telemetry) -> N,
    ) -> Vec<Prober<N>> {
        (0..self.workers)
            .map(|_| Prober::new(base, make_world))
            .collect()
    }

    fn run_inner<N: Network + Send>(
        &self,
        mut journal: Option<&mut Journal>,
        probers: &mut [Prober<N>],
    ) -> Result<AdaptiveOutcome, StateError> {
        let mut blocks: Vec<BlockResult> = Vec::new();
        let mut snapshot = Snapshot::default();
        let mut spent = 0u64;
        let mut interrupted = false;
        for idx in 0..SAMPLE_BLOCKS.len() {
            let journal = journal.as_deref_mut();
            let (done, killed) =
                self.run_block(idx, probers, journal, &mut snapshot, &mut spent)?;
            interrupted = killed;
            if killed {
                break;
            }
            blocks.push(done);
        }
        Ok(AdaptiveOutcome {
            result: CampaignResult { blocks },
            snapshot: merge_worker_snapshots([snapshot]),
            interrupted,
        })
    }

    /// Builds block `idx`'s starting state: its leaf length — from the
    /// journal's round 0 of the block when it is next, else by boundary
    /// inference (on `prober`, its metrics arriving with the block's first
    /// absorbed delta) or the profile — and a tree over the root.
    fn init_block<N: Network>(
        &self,
        idx: usize,
        prober: &mut Prober<N>,
        spent_total: &mut u64,
        journal: Option<&Journal>,
    ) -> Result<PartialBlock, StateError> {
        let profile = &SAMPLE_BLOCKS[idx];
        let scan = profile.scan_prefix();
        let journalled = match journal {
            Some(journal) => journal.init(idx, |leaf_len, probes| {
                (leaf_len, probes) == (profile.assigned_len, 0)
                    || (self.infer && scan.len() < leaf_len && leaf_len <= 64)
            })?,
            None => None,
        };
        let (leaf_len, probes) = match journalled {
            Some(init) => init,
            None if self.infer => {
                let inference = infer_boundary(prober.fresh(), scan, 64, 3);
                let leaf_len = inference.inferred_len.unwrap_or(profile.assigned_len);
                (leaf_len, inference.probes)
            }
            None => (profile.assigned_len, 0),
        };
        *spent_total = spent_total.saturating_add(probes);
        let mut root = scan;
        if let Some(bits) = self.config.root_bits {
            let bits = bits.min(leaf_len - root.len()).max(1);
            root = root.subprefix(leaf_len - bits, 0);
        }
        assert!(
            leaf_len - root.len() < 64,
            "adaptive trees index their leaf space with u64 cursors"
        );
        let tree = PrefixTree::new(root, leaf_len, self.config.policy().branch_bits);
        let space_size = tree.span(0);
        Ok(PartialBlock {
            idx,
            tree,
            block: BlockResult {
                profile_id: profile.id,
                peripheries: Vec::new(),
                stats: ScanStats {
                    sent: probes,
                    ..ScanStats::default()
                },
                probed: probes,
                space_size,
                alias_candidates: Vec::new(),
                mop_up_recovered: 0,
            },
            round: 0,
        })
    }

    /// Drives block `idx`'s rounds to completion (or the engine kill).
    fn run_block<N: Network + Send>(
        &self,
        idx: usize,
        probers: &mut [Prober<N>],
        mut journal: Option<&mut Journal>,
        snapshot: &mut Snapshot,
        spent_total: &mut u64,
    ) -> Result<(BlockResult, bool), StateError> {
        let mut state = self.init_block(idx, &mut probers[0], spent_total, journal.as_deref())?;
        let (budget, kill_after) = (self.config.probe_budget, self.kill_after_probes);
        let policy = self.config.policy();
        let mut seen: FxHashSet<Ip6> = FxHashSet::default();
        let interrupted = loop {
            if state.round >= policy.max_rounds {
                break false;
            }
            // Fix the round's units in canonical frontier order; the
            // budget truncates deterministically.
            let mut remaining = budget.saturating_sub(state.block.probed);
            if remaining == 0 {
                break false;
            }
            let mut units = Vec::new();
            for idx in state.tree.frontier() {
                if remaining == 0 {
                    break;
                }
                let span = u64::try_from(state.tree.span(idx)).expect("span fits u64");
                let node = state.tree.node(idx);
                let count = policy
                    .samples_per_node
                    .min(span - node.cursor)
                    .min(remaining);
                if count == 0 {
                    continue;
                }
                remaining -= count;
                units.push(Unit {
                    node: idx,
                    prefix: node.prefix,
                    span,
                    cursor: node.cursor,
                    count,
                });
            }
            if units.is_empty() {
                break false; // frontier empty or fully drawn
            }
            let (results, probed) =
                self.run_round(&state, &units, probers, journal.as_deref_mut(), snapshot)?;

            // Merge in unit-index order — the deterministic merge point.
            let mut round_drawn = 0u64;
            for r in &results {
                state.tree.record(r.node, r.drawn, r.hits);
                round_drawn += r.drawn;
                for (responder, target, probe_dst, via_te) in &r.finds {
                    if !seen.insert(*responder) {
                        continue;
                    }
                    let iid_class = classify_iid(*responder);
                    let mac =
                        Mac::from_eui64(responder.iid()).filter(|_| iid_class == IidClass::Eui64);
                    state.block.peripheries.push(DiscoveredPeriphery {
                        address: *responder,
                        target: *target,
                        probe_dst: *probe_dst,
                        same64: responder.network(64) == probe_dst.network(64),
                        iid_class,
                        mac,
                        via_time_exceeded: *via_te,
                    });
                }
                state
                    .block
                    .alias_candidates
                    .extend(r.aliases.iter().copied());
                state.block.stats.merge(&r.stats);
            }
            state.block.probed += round_drawn;
            *spent_total = spent_total.saturating_add(round_drawn);
            state.round += 1;

            // Settle the frontier: exhaust, split or prune each sampled
            // node in the same canonical order.
            for u in &units {
                let node = state.tree.node(u.node);
                let span = state.tree.span(u.node);
                if node.cursor as u128 >= span {
                    state.tree.exhaust(u.node);
                    continue;
                }
                if node.hits > 0 {
                    if span > policy.exhaust_span
                        && state.tree.can_split(u.node)
                        && node.density() >= policy.split_density
                    {
                        state.tree.split(u.node);
                    }
                    continue;
                }
                if node.probes >= policy.prune_after {
                    if span <= policy.prune_max_span || !state.tree.can_split(u.node) {
                        state.tree.prune(u.node);
                    } else {
                        state.tree.split(u.node);
                    }
                }
            }

            if probed && kill_after.is_some_and(|kill| *spent_total >= kill) {
                break true;
            }
        };
        absorb_all(probers, snapshot);
        Ok((state.block, interrupted))
    }

    /// Runs the round `state` is at over `units`, returning results in
    /// unit-index order and whether it probed: the journal's next round
    /// while it holds any, else the units executed — possibly in
    /// parallel, one prober per worker — and, when checkpointing,
    /// journalled with the telemetry delta absorbed at the round's end.
    fn run_round<N: Network + Send>(
        &self,
        state: &PartialBlock,
        units: &[Unit],
        probers: &mut [Prober<N>],
        mut journal: Option<&mut Journal>,
        snapshot: &mut Snapshot,
    ) -> Result<(Vec<UnitResult>, bool), StateError> {
        if let Some(journal) = journal.as_deref_mut() {
            if let Some(results) = journal.replay(state, units, snapshot)? {
                return Ok((results, false));
            }
        }
        let round = Round::new(
            units,
            &state.tree,
            &self.blocklist,
            probers[0].scanner.config(),
        );
        let round_probes: u64 = units.iter().map(|u| u.count).sum();
        let n_workers = if round_probes < MIN_PARALLEL_ROUND_PROBES {
            1
        } else {
            self.workers.min(units.len()).max(1)
        };
        let results: Vec<_> = if n_workers == 1 {
            let mut results = Vec::with_capacity(units.len());
            probers[0].run_units(&round, 0..units.len(), |_, r| results.push(r));
            results
        } else {
            let next = AtomicUsize::new(0);
            let slots: Vec<Mutex<Option<UnitResult>>> =
                units.iter().map(|_| Mutex::new(None)).collect();
            let claims = || {
                std::iter::from_fn(|| {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    (i < units.len()).then_some(i)
                })
            };
            let fill = |i: usize, r: UnitResult| match slots[i].lock() {
                Ok(mut slot) => *slot = Some(r),
                Err(poisoned) => *poisoned.into_inner() = Some(r),
            };
            std::thread::scope(|scope| {
                for prober in probers.iter_mut().take(n_workers) {
                    let (round, claims, fill) = (&round, &claims, &fill);
                    scope.spawn(move || prober.run_units(round, claims(), fill));
                }
                // scope joins every worker; a worker panic propagates here.
            });
            slots
                .into_iter()
                .map(|m| {
                    m.into_inner()
                        .unwrap_or_else(|p| p.into_inner())
                        .expect("every unit slot is filled before the scope ends")
                })
                .collect()
        };
        if let Some(journal) = journal {
            let mut delta = Snapshot::default();
            absorb_all(probers, &mut delta);
            journal.append(state, &results, &delta)?;
            snapshot.merge(&delta);
        }
        Ok((results, true))
    }
}

/// What every unit of a round shares, fixed once per round.
struct Round<'a> {
    units: &'a [Unit],
    leaf_len: u8,
    seed: u64,
    hop_limit: u8,
    /// [`node_seed`]'s state before it folds in a node's prefix.
    node_fp: Fingerprint,
    /// The blocklist scoped to the tree's root, which every unit's
    /// prefix lies under: its walk over the root's bits is done once per
    /// round, and a unit narrows it to its own prefix from there.
    blocklist: ScopedBlocklist<'a>,
}

impl<'a> Round<'a> {
    fn new(
        units: &'a [Unit],
        tree: &PrefixTree,
        blocklist: &'a Blocklist,
        config: &ScanConfig,
    ) -> Self {
        let mut node_fp = Fingerprint::new();
        node_fp.push_str("adaptive-node").push_u64(config.seed);
        Round {
            units,
            leaf_len: tree.leaf_len(),
            seed: config.seed,
            hop_limit: config.hop_limit,
            node_fp,
            blocklist: blocklist.scope(tree.root()),
        }
    }

    /// Seed of a node's private sample permutation: derived from the
    /// scan seed and the node's identity, so every node walks its own
    /// without-replacement pseudorandom order and a rebuilt tree resumes
    /// the identical walk.
    fn node_seed(&self, prefix: Prefix) -> u64 {
        let mut fp = self.node_fp;
        fp.push_u128(prefix.addr().bits())
            .push_u64(prefix.len() as u64);
        fp.finish()
    }

    /// Runs one unit as a pure function of (unit, seed, world) —
    /// `session` must sit over a just-reset network: draws the batch
    /// through the chunked [`IndexWalk`] streaming path, probes each
    /// leaf target once, and classifies responses with the campaign's
    /// transit filter and alias signature. The unit's stats are the
    /// session's lap across it; `answers` is scratch.
    fn run_unit<N: Network>(
        &self,
        unit: &Unit,
        session: &mut Targeted<'_, N>,
        answers: &mut Vec<(Ip6, ProbeResult)>,
    ) -> UnitResult {
        let perm = FeistelPermutation::new(unit.span, self.node_seed(unit.prefix));
        let mut walk = IndexWalk::Feistel {
            perm,
            next_pos: unit.cursor,
            stride: 1,
        };
        let mut buf = [0u64; 64];
        let mut drawn = 0u64;
        let mut hits = 0u64;
        let mut finds = Vec::new();
        let mut aliases = Vec::new();
        // Every destination lies inside the unit's prefix: a step below
        // the root's scope is taken once per unit, not once per probe.
        let blocklist = self.blocklist.scope(unit.prefix);
        while drawn < unit.count {
            let want = ((unit.count - drawn) as usize).min(buf.len());
            let n = walk.fill(&mut buf[..want]);
            if n == 0 {
                break;
            }
            for &index in &buf[..n] {
                drawn += 1;
                let target = unit.prefix.subprefix(self.leaf_len, index as u128);
                let dst = fill_host_bits(target, self.seed);
                if !blocklist.is_allowed(dst) {
                    session.skip_blocked();
                    continue;
                }
                session.probe(dst, &IcmpEchoProbe, self.hop_limit, answers);
                let mut hit = false;
                for (src, result) in answers.iter() {
                    let via_te = match result {
                        ProbeResult::Unreachable { .. } => false,
                        ProbeResult::TimeExceeded => true,
                        ProbeResult::Alive if *src == dst => {
                            aliases.push(target);
                            continue;
                        }
                        _ => continue,
                    };
                    // Transit-router time-exceeded sources are not
                    // peripheries (synthetic transit IID marker).
                    if via_te && src.iid() >> 48 == 0xffff {
                        continue;
                    }
                    hit = true;
                    finds.push((*src, target, dst, via_te));
                }
                if hit {
                    hits += 1;
                }
            }
        }
        UnitResult {
            node: unit.node,
            drawn,
            hits,
            finds,
            aliases,
            stats: session.lap(),
        }
    }
}

/// Entry 0 of an adaptive journal: states the run it belongs to.
const CAMPAIGN: Kind = Kind {
    name: "adaptive-campaign",
};
/// The format of `adaptive.ckpt`'s entry 0, which states the run's
/// [`Identity`]; a journal of any other format is refused.
const ADAPTIVE_FORMAT: u64 = 2;
/// One finished round: its unit results and telemetry delta.
const ROUND: Kind = Kind {
    name: "adaptive-round",
};

/// The campaign journal, `adaptive.ckpt`, with the rounds a resume has
/// still to replay.
struct Journal {
    wal: Wal,
    fp: u64,
    /// Journalled rounds not yet replayed, in journal order.
    pending: VecDeque<Opened>,
}

impl Journal {
    /// Opens the journal at `path` for the run `id`: on resume its
    /// intact rounds queue for replay and appends go after them;
    /// otherwise, or when no entry is intact, a new journal starts.
    fn open(path: &Path, id: &Identity, resume: bool) -> Result<Journal, StateError> {
        let first = CAMPAIGN.first(id);
        let what = |seq: usize| format!("adaptive journal {} entry {seq}", path.display());
        let (wal, entries) = if resume {
            Wal::open(path, Some(&first), |entries| {
                if let Some(first) = entries.first() {
                    CAMPAIGN.parse_first(first, what(0), id)?;
                }
                Ok(entries.len())
            })?
        } else {
            (Wal::start(path, Some(&first))?, Vec::new())
        };
        let fp = id.fingerprint();
        // Consumed as parsed, so the journal is held in memory once.
        let pending = (entries.into_iter().enumerate().skip(1))
            .map(|(seq, raw)| ROUND.parse(&raw, what(seq), Some(fp), &[]))
            .collect::<Result<_, _>>()?;
        Ok(Journal { wal, fp, pending })
    }

    /// Block `idx`'s leaf length and inference probe count, when the next
    /// round to replay is the block's round 0; `valid` must accept them.
    fn init(
        &self,
        idx: usize,
        valid: impl Fn(u8, u64) -> bool,
    ) -> Result<Option<(u8, u64)>, StateError> {
        match self.pending.front() {
            Some(ck) if (ck.field("block")?, ck.field("round")?) == (idx as u64, 0) => {
                let probes = ck.field("probes")?;
                match u8::try_from(ck.field("leaf_len")?) {
                    Ok(leaf_len) if valid(leaf_len, probes) => Ok(Some((leaf_len, probes))),
                    _ => Err(ck.corrupt("holds a block init the campaign cannot have")),
                }
            }
            _ => Ok(None),
        }
    }

    /// The next journalled round's unit results, its telemetry delta
    /// merged into `snapshot`; `None` once every round is replayed. The
    /// round must be the one `state` is at, over the same `units`.
    fn replay(
        &mut self,
        state: &PartialBlock,
        units: &[Unit],
        snapshot: &mut Snapshot,
    ) -> Result<Option<Vec<UnitResult>>, StateError> {
        let Some(mut ck) = self.pending.pop_front() else {
            return Ok(None);
        };
        let at = (state.idx as u64, state.round);
        if (ck.field("block")?, ck.field("round")?) != at {
            return Err(ck.corrupt(&format!("is not block {} round {}, run next", at.0, at.1)));
        }
        let results = ck.decode("units", decode_units)?;
        let fits = results.len() == units.len()
            && (results.iter().zip(units))
                .all(|(r, u)| r.node == u.node && r.drawn <= u.count && r.hits <= r.drawn);
        if !fits {
            return Err(ck.corrupt("its units disagree with the round's frontier"));
        }
        snapshot.merge(&ck.take("metrics", decode_snapshot)?);
        Ok(Some(results))
    }

    /// Appends the round `state` just probed and syncs it; a block's
    /// round 0 also records the block's init.
    fn append(
        &mut self,
        state: &PartialBlock,
        results: &[UnitResult],
        delta: &Snapshot,
    ) -> Result<(), StateError> {
        let mut fields = vec![("block", state.idx as u64), ("round", state.round)];
        if state.round == 0 {
            fields.extend([
                ("leaf_len", state.tree.leaf_len() as u64),
                ("probes", state.block.probed),
            ]);
        }
        let sections = [
            ("units", encode_units(results)),
            ("metrics", encode_snapshot(delta)),
        ];
        self.wal.append(&ROUND.entry(&fields, self.fp, &sections))?;
        self.wal.sync()
    }
}

/// Serialises a round's unit results, in unit order.
fn encode_units(results: &[UnitResult]) -> Vec<u8> {
    let mut e = Encoder::new();
    e.seq(results.len());
    for r in results {
        e.u64(r.node as u64);
        e.u64(r.drawn);
        e.u64(r.hits);
        e.seq(r.finds.len());
        for (responder, target, probe_dst, via_te) in &r.finds {
            e.u128(responder.bits());
            e.prefix(target);
            e.u128(probe_dst.bits());
            e.bool(*via_te);
        }
        e.seq(r.aliases.len());
        for alias in &r.aliases {
            e.prefix(alias);
        }
        encode_stats(&mut e, &r.stats);
    }
    e.finish()
}

/// Inverse of [`encode_units`].
fn decode_units(d: &mut Decoder) -> Result<Vec<UnitResult>, StateError> {
    (0..d.seq()?)
        .map(|_| {
            Ok(UnitResult {
                node: d.u64()? as usize,
                drawn: d.u64()?,
                hits: d.u64()?,
                finds: (0..d.seq()?)
                    .map(|_| Ok((d.u128()?.into(), d.prefix()?, d.u128()?.into(), d.bool()?)))
                    .collect::<Result<_, StateError>>()?,
                aliases: (0..d.seq()?)
                    .map(|_| d.prefix())
                    .collect::<Result<_, _>>()?,
                stats: decode_stats(d)?,
            })
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use xmap_netsim::fault::{FaultPlan, IcmpRateLimit};
    use xmap_netsim::telemetry::names;
    use xmap_netsim::world::{Allocation, World, WorldConfig};

    /// Concentration matters: active pods must be dense enough that
    /// `prune_after` silent probes is strong evidence of emptiness.
    fn sparse() -> WorldConfig {
        WorldConfig::lossless(99, 10).with_allocation(Allocation::Clustered {
            pod_bits: 8,
            active_frac: 1.0 / 256.0,
        })
    }

    fn sparse_world(telemetry: &Telemetry) -> World {
        let mut world = World::with_config(sparse());
        world.set_telemetry(telemetry);
        world
    }

    fn base() -> ScanConfig {
        ScanConfig {
            seed: 5,
            ..Default::default()
        }
    }

    fn engine() -> AdaptiveCampaign {
        AdaptiveCampaign::new(AdaptiveConfig {
            root_bits: Some(16),
            ..AdaptiveConfig::default()
        })
    }

    #[test]
    fn adaptive_beats_exhaustive_at_equal_discovery_on_sparse_world() {
        let adaptive = engine().run(&base(), sparse_world);
        let exhaustive =
            AdaptiveCampaign::new(AdaptiveConfig::exhaustive(Some(16))).run(&base(), sparse_world);
        let a_probes: u64 = adaptive.result.blocks.iter().map(|b| b.probed).sum();
        let e_probes: u64 = exhaustive.result.blocks.iter().map(|b| b.probed).sum();
        assert!(
            a_probes * 5 <= e_probes,
            "adaptive {a_probes} vs exhaustive {e_probes}"
        );
        // Equal discovered-responder set.
        let aset: FxHashSet<Ip6> = adaptive.result.peripheries().map(|p| p.address).collect();
        let eset: FxHashSet<Ip6> = exhaustive.result.peripheries().map(|p| p.address).collect();
        assert!(!eset.is_empty(), "exhaustive arm found nothing");
        let recall = aset.intersection(&eset).count() as f64 / eset.len() as f64;
        assert!(recall >= 0.95, "recall {recall}");
    }

    #[test]
    fn worker_count_is_unobservable() {
        let one = engine().with_workers(1).run(&base(), sparse_world);
        let two = engine().with_workers(2).run(&base(), sparse_world);
        let four = engine().with_workers(4).run(&base(), sparse_world);
        assert_eq!(one.result, two.result);
        assert_eq!(one.result, four.result);
        assert_eq!(one.result.to_csv(), four.result.to_csv());
        assert_eq!(one.snapshot.to_json(), four.snapshot.to_json());
    }

    /// FNV-1a-64 over the CSV and metrics JSON of the run below,
    /// captured at d1048cb where every unit still built a fresh world.
    const GOLDEN_LIMITED_CSV: u64 = 0x2cb8_1a33_2ed4_9fb7;
    const GOLDEN_LIMITED_METRICS: u64 = 0xcc40_3944_c2ae_5e06;

    /// Devices that remember: a one-token bucket that never refills
    /// within a campaign, so a prober that carried limiter state from
    /// one unit into the next would lose replies a fresh world sends.
    #[test]
    fn reset_prober_matches_fresh_world_goldens_under_a_token_bucket() {
        let fnv = |s: String| Fingerprint::new().push_bytes(s.as_bytes()).finish();
        let limited = WorldConfig::lossless(99, 10)
            .with_fault(
                FaultPlan::none().with_icmp_limit(IcmpRateLimit::TokenBucket {
                    capacity: 1,
                    refill_interval: 1 << 20,
                    start_depleted_frac: 0.0,
                }),
            )
            .with_allocation(Allocation::Clustered {
                pod_bits: 8,
                active_frac: 1.0 / 256.0,
            });
        let scan = ScanConfig {
            seed: 7,
            ..Default::default()
        };
        for workers in [1, 2, 4] {
            let registries = Mutex::new(Vec::new());
            let outcome = AdaptiveCampaign::new(AdaptiveConfig {
                root_bits: Some(14),
                ..AdaptiveConfig::default()
            })
            .with_workers(workers)
            .run(&scan, |telemetry| {
                registries.lock().unwrap().push(telemetry.registry.clone());
                let mut world = World::with_config(limited);
                world.set_telemetry(telemetry);
                world
            });
            assert_eq!(outcome.result.total_unique(), 351, "{workers} workers");
            assert_eq!(
                fnv(outcome.result.to_csv()),
                GOLDEN_LIMITED_CSV,
                "{workers} workers"
            );
            assert_eq!(
                fnv(outcome.snapshot.to_json()),
                GOLDEN_LIMITED_METRICS,
                "{workers} workers"
            );
            // Only a parallel round hands a unit to a prober past the
            // first, so the reset is tested on the parallel path too.
            let registries = registries.into_inner().unwrap();
            assert!(
                workers == 1
                    || registries[1..]
                        .iter()
                        .any(|r| r.snapshot().counter(names::PROBES) > 0),
                "{workers} workers: no round ran in parallel"
            );
        }
    }

    #[test]
    fn kill_and_resume_matches_uninterrupted() {
        let dir = std::env::temp_dir().join(format!("xmap-adaptive-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("adaptive.ckpt");
        let baseline = engine().run(&base(), sparse_world);

        let killed = engine().with_kill_after_probes(9_000);
        let outcome = killed
            .run_checkpointed(&base(), &sparse(), &path, false, sparse_world)
            .unwrap();
        assert!(outcome.interrupted, "kill point must interrupt");
        assert!(outcome.result.blocks.len() < baseline.result.blocks.len());

        // Resume under a different worker count.
        let resumed = engine()
            .with_workers(2)
            .run_checkpointed(&base(), &sparse(), &path, true, sparse_world)
            .unwrap();
        assert!(!resumed.interrupted);
        assert_eq!(resumed.result, baseline.result);
        assert_eq!(resumed.result.to_csv(), baseline.result.to_csv());
        assert_eq!(resumed.snapshot.to_json(), baseline.snapshot.to_json());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn resume_with_different_config_is_refused() {
        let dir = std::env::temp_dir().join(format!("xmap-adaptive-mm-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("adaptive.ckpt");
        let killed = engine().with_kill_after_probes(4_000);
        let outcome = killed
            .run_checkpointed(&base(), &sparse(), &path, false, sparse_world)
            .unwrap();
        assert!(outcome.interrupted);
        let other = AdaptiveCampaign::new(AdaptiveConfig {
            probe_budget: 1 << 10,
            root_bits: Some(16),
            ..AdaptiveConfig::default()
        });
        let err = other
            .run_checkpointed(&base(), &sparse(), &path, true, sparse_world)
            .unwrap_err();
        assert!(matches!(err, StateError::Mismatch(_)), "{err:?}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A journal's last round, torn at every byte offset, is dropped on
    /// resume and probed again: the result is byte-identical. Two rounds
    /// per block keep the journal short, since every cut replays it all.
    #[test]
    fn torn_last_round_resumes_byte_identically() {
        use xmap_state::wal::frame_len;
        let dir = std::env::temp_dir().join(format!("xmap-adaptive-torn-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("adaptive.ckpt");
        let small = || {
            AdaptiveCampaign::new(AdaptiveConfig {
                probe_budget: 1 << 5,
                root_bits: Some(12),
                ..AdaptiveConfig::default()
            })
        };
        let full = small()
            .run_checkpointed(&base(), &sparse(), &path, false, sparse_world)
            .unwrap();
        let journal = std::fs::read(&path).unwrap();
        let entries = Wal::recover(&path).unwrap().entries;
        assert_eq!(entries.len(), 1 + 2 * SAMPLE_BLOCKS.len());
        let last = entries.last().unwrap();
        assert_eq!(
            ROUND.parse(last, String::new(), None, &[]).unwrap().kind(),
            ROUND.name
        );
        let last_start = journal.len() - frame_len(last.len()) as usize;
        for len in last_start..journal.len() {
            std::fs::write(&path, &journal[..len]).unwrap();
            let resumed = small()
                .with_workers(2)
                .run_checkpointed(&base(), &sparse(), &path, true, sparse_world)
                .unwrap();
            assert_eq!(
                resumed.result.to_csv(),
                full.result.to_csv(),
                "cut to {len}"
            );
            assert_eq!(
                resumed.snapshot.to_json(),
                full.snapshot.to_json(),
                "cut to {len}"
            );
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// CRC-valid rounds that disagree with the round the replay reaches —
    /// other node ids, more draws than the unit had, more hits than
    /// draws, a missing unit, a repeated round — are refused as
    /// [`StateError::Corrupt`], never a panic.
    #[test]
    fn forged_round_is_refused_as_corrupt() {
        let dir = std::env::temp_dir().join(format!("xmap-adaptive-forge-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("adaptive.ckpt");
        let outcome = engine()
            .with_kill_after_probes(9_000)
            .run_checkpointed(&base(), &sparse(), &path, false, sparse_world)
            .unwrap();
        assert!(outcome.interrupted);
        let mut entries = Wal::recover(&path).unwrap().entries;
        let last = entries.pop().unwrap();
        let forge = |f: fn(&mut Vec<UnitResult>)| {
            let mut ck = ROUND.parse(&last, String::new(), None, &[]).unwrap();
            let fields = [
                ("block", ck.field("block").unwrap()),
                ("round", ck.field("round").unwrap()),
            ];
            assert!(fields[1].1 > 0, "a later round carries no block init");
            let mut results = ck.decode("units", decode_units).unwrap();
            f(&mut results);
            let metrics = ck.take("metrics", |raw| Ok(raw.to_vec())).unwrap();
            let sections = [("units", encode_units(&results)), ("metrics", metrics)];
            ROUND.entry(&fields, ck.field("fp").unwrap(), &sections)
        };
        let forgeries: [(&str, Vec<Vec<u8>>); 5] = [
            ("node id", vec![forge(|rs| rs[0].node += 1)]),
            ("drawn", vec![forge(|rs| rs[0].drawn = u64::MAX)]),
            ("hits", vec![forge(|rs| rs[0].hits = rs[0].drawn + 1)]),
            ("unit count", vec![forge(|rs| drop(rs.pop()))]),
            ("repeated round", vec![last.clone(), last.clone()]),
        ];
        for (label, tail) in forgeries {
            let mut wal = Wal::create(&path).unwrap();
            for entry in entries.iter().chain(&tail) {
                wal.append(entry).unwrap();
            }
            wal.sync().unwrap();
            drop(wal);
            let err = engine()
                .run_checkpointed(&base(), &sparse(), &path, true, sparse_world)
                .unwrap_err();
            assert!(matches!(err, StateError::Corrupt(_)), "{label}: {err:?}");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn boundary_inference_composes() {
        let small = AdaptiveCampaign::new(AdaptiveConfig {
            probe_budget: 1 << 12,
            root_bits: Some(12),
            ..AdaptiveConfig::default()
        })
        .with_inferred_boundary(true);
        let outcome = small.run(&base(), |t| {
            let mut w = World::with_config(WorldConfig::lossless(99, 10));
            w.set_telemetry(t);
            w
        });
        assert_eq!(outcome.result.blocks.len(), 15);
        // Inference probes count against the block accounting.
        assert!(outcome.result.blocks.iter().all(|b| b.probed > 0));
    }
}

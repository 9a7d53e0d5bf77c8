//! Adaptive density-guided target generation.
//!
//! The exhaustive campaign spends its probe budget uniformly across a
//! block, dense and silent space alike. This module drives the same
//! discovery pipeline with a feedback loop in the shape of prefix-crab's
//! split-and-follow-up: model the block as a [`PrefixTree`], seed a
//! coarse sweep, score sub-prefixes by hit density, **split** responsive
//! ones for finer-grained probing, **prune** silent ones early, fully
//! enumerate responsive nodes once they are small, and stop when the
//! marginal-discovery rate falls below a threshold or the probe budget
//! runs out.
//!
//! # Determinism
//!
//! A campaign is a sequence of *rounds*; a round is a list of *units*
//! (one frontier node's sample batch), fixed before any probe is sent.
//! Every unit runs as a pure function of (unit, seed, world
//! configuration) on one of the campaign's long-lived *probers* — one
//! telemetry bundle + world + scanner per worker, built once per
//! campaign. Purity is bought by [`Network::reset`] before each unit:
//! the world forgets what earlier probes taught it (per-device ICMPv6
//! limiter state, the discovered-WAN registry, delayed responses, the
//! clock) and answers exactly as a freshly built replica would, while
//! its telemetry binding and lifetime statistics run on. The driver
//! merges unit results in unit-index order, and metrics reach the
//! campaign snapshot as *registry deltas* — each prober's registry
//! diffed against what was already absorbed, in worker-index order.
//! Counters and histogram buckets sum commutatively, so which prober
//! ran which unit never shows. Worker count only changes which thread
//! runs a unit, never what the unit computes or the order results
//! merge, so output is byte-identical across 1/2/4 workers. Round
//! boundaries double as checkpoint points: the tree, the in-progress
//! block and the merged telemetry (deltas absorbed at every boundary
//! when a checkpoint is being written, so it carries exact metrics)
//! land in an `xmap-checkpoint/v1` file whose tree-snapshot section
//! lets a killed campaign resume mid-block.

use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

use xmap::{
    fill_host_bits, merge_worker_snapshots, Blocklist, FeistelPermutation, IcmpEchoProbe,
    IndexWalk, ProbeResult, ScanConfig, ScanStats, Scanner,
};
use xmap_addr::{classify_iid, FxHashSet, IidClass, Ip6, Mac, Prefix, PrefixTree};
use xmap_netsim::isp::{IspProfile, SAMPLE_BLOCKS};
use xmap_netsim::packet::{Ipv6Packet, Network};
use xmap_state::checkpoint::{
    decode_snapshot, decode_tree, encode_snapshot, encode_tree, parse_fp, read_sectioned,
    write_sectioned,
};
use xmap_state::codec::{Decoder, Encoder};
use xmap_state::{Fingerprint, StateError, CHECKPOINT_SCHEMA};
use xmap_telemetry::{Snapshot, Telemetry};

use crate::campaign::{
    decode_block, encode_block, BlockResult, CampaignResult, DiscoveredPeriphery,
};
use crate::infer_boundary;

/// Tuning knobs of the adaptive engine.
#[derive(Debug, Clone, PartialEq)]
pub struct AdaptiveConfig {
    /// Maximum probes drawn per block (the scan stops early when the
    /// frontier empties or the marginal-discovery rate collapses).
    pub probe_budget: u64,
    /// Samples drawn from each frontier node per round.
    pub samples_per_node: u64,
    /// Minimum hit density for a responsive node to split (0 splits on
    /// any hit).
    pub split_density: f64,
    /// Silent probes a node must absorb before it may be pruned or
    /// force-split (`u64::MAX` disables pruning — the exhaustive
    /// ablation arm).
    pub prune_after: u64,
    /// Only silent nodes spanning at most this many leaf targets are
    /// pruned; larger silent nodes split instead, so sparse-but-alive
    /// space keeps being examined at finer granularity.
    pub prune_max_span: u128,
    /// Responsive nodes spanning at most this many leaf targets are
    /// enumerated to exhaustion instead of split (splitting overhead
    /// would exceed the enumeration).
    pub exhaust_span: u128,
    /// Stop the block when a round's newly discovered peripheries per
    /// drawn probe falls below this rate (0 disables the stop).
    pub min_marginal: f64,
    /// Bits added per split level.
    pub branch_bits: u8,
    /// Restrict each block to its first `2^root_bits` leaf targets —
    /// the equal-coverage slice the ablation compares on. `None` scans
    /// the whole block.
    pub root_bits: Option<u8>,
    /// Safety valve on rounds per block.
    pub max_rounds: u64,
}

impl Default for AdaptiveConfig {
    fn default() -> Self {
        AdaptiveConfig {
            probe_budget: 1 << 16,
            samples_per_node: 16,
            split_density: 0.0,
            prune_after: 32,
            prune_max_span: 256,
            exhaust_span: 256,
            min_marginal: 0.0,
            branch_bits: 4,
            root_bits: None,
            max_rounds: 10_000,
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
            samples_per_node: 4096,
            // A split needs density > 1.0: impossible, so the root
            // stays whole and is sampled until its cursor exhausts it.
            split_density: 2.0,
            prune_after: u64::MAX,
            prune_max_span: 0,
            exhaust_span: u128::MAX,
            min_marginal: 0.0,
            branch_bits: 4,
            root_bits,
            max_rounds: u64::MAX,
        }
    }
}

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
/// join against ≈ 110 ns per adaptive probe, so splitting a round only
/// pays from ≈ 2 · 60 µs / 110 ns ≈ 2^10 probes.
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
    /// behaviour — what keeps a unit a pure function of its inputs.
    fn fresh(&mut self) -> &mut Scanner<N> {
        self.dirty = true;
        self.scanner.network_mut().reset();
        &mut self.scanner
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

/// An in-progress block between rounds (the checkpointed state).
#[derive(Debug, Clone)]
struct PartialBlock {
    tree: PrefixTree,
    block: BlockResult,
    round: u64,
    leaf_len: u8,
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

    /// Identity of this engine + scan configuration; a checkpoint
    /// resumes only under the same. Deliberately excludes the worker
    /// count.
    pub fn fingerprint(&self, base: &ScanConfig) -> u64 {
        let c = &self.config;
        let mut fp = Fingerprint::new();
        fp.push_str("adaptive")
            .push_u64(c.probe_budget)
            .push_u64(c.samples_per_node)
            .push_u64(c.split_density.to_bits())
            .push_u64(c.prune_after)
            .push_u128(c.prune_max_span)
            .push_u128(c.exhaust_span)
            .push_u64(c.min_marginal.to_bits())
            .push_u64(c.branch_bits as u64)
            .push_u64(match c.root_bits {
                Some(b) => 1 + b as u64,
                None => 0,
            })
            .push_u64(c.max_rounds)
            .push_u64(self.infer as u64)
            .push_u64(self.blocklist.fingerprint())
            .push_u64(base.seed)
            .push_u64(base.hop_limit as u64);
        fp.finish()
    }

    /// Runs the adaptive campaign over every sample block.
    pub fn run<N, F>(&self, base: &ScanConfig, make_world: F) -> AdaptiveOutcome
    where
        N: Network + Send,
        F: Fn(&Telemetry) -> N + Sync,
    {
        self.run_inner(base, None, false, &mut self.probers(base, &make_world))
            .expect("in-memory run cannot hit checkpoint I/O")
    }

    /// Runs with round-granular checkpointing at `path` (a file). When
    /// the engine kill point fires the call returns with
    /// [`AdaptiveOutcome::interrupted`] set; rerunning with
    /// `resume: true` — under any worker count — continues from the
    /// last round boundary and produces byte-identical final output.
    pub fn run_checkpointed<N, F>(
        &self,
        base: &ScanConfig,
        path: &Path,
        resume: bool,
        make_world: F,
    ) -> Result<AdaptiveOutcome, StateError>
    where
        N: Network + Send,
        F: Fn(&Telemetry) -> N + Sync,
    {
        self.run_inner(
            base,
            Some(path),
            resume,
            &mut self.probers(base, &make_world),
        )
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
        let profile = &SAMPLE_BLOCKS[block];
        let mut probers = self.probers(base, &make_world);
        let mut snapshot = Snapshot::default();
        let mut spent = 0u64;
        let state = self.init_block(profile, &mut probers[0], &mut spent);
        let (done, _) = self
            .run_block(state, &mut probers, None, 0, &[], &mut snapshot, &mut spent)
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
        base: &ScanConfig,
        path: Option<&Path>,
        resume: bool,
        probers: &mut [Prober<N>],
    ) -> Result<AdaptiveOutcome, StateError> {
        let fp = self.fingerprint(base);
        let mut blocks: Vec<BlockResult> = Vec::new();
        let mut snapshot = Snapshot::default();
        let mut spent_total = 0u64;
        let mut partial: Option<PartialBlock> = None;
        if resume {
            if let Some(p) = path {
                if let Some(saved) = load_ckpt(p, fp)? {
                    blocks = saved.blocks;
                    snapshot = saved.snapshot;
                    spent_total = saved.spent;
                    partial = saved.partial;
                }
                // Killed before the first checkpoint: fresh start.
            }
        }
        let start = blocks.len();
        for profile in SAMPLE_BLOCKS.iter().skip(start) {
            let state = match partial.take() {
                Some(p) => {
                    debug_assert_eq!(p.block.profile_id, profile.id, "checkpoint block order");
                    p
                }
                None => self.init_block(profile, &mut probers[0], &mut spent_total),
            };
            let (done, interrupted) = self.run_block(
                state,
                probers,
                path,
                fp,
                &blocks,
                &mut snapshot,
                &mut spent_total,
            )?;
            if interrupted {
                return Ok(AdaptiveOutcome {
                    result: CampaignResult { blocks },
                    snapshot: merge_worker_snapshots([snapshot]),
                    interrupted: true,
                });
            }
            blocks.push(done);
            if let Some(p) = path {
                write_ckpt(p, fp, &blocks, &snapshot, spent_total, None)?;
            }
        }
        Ok(AdaptiveOutcome {
            result: CampaignResult { blocks },
            snapshot: merge_worker_snapshots([snapshot]),
            interrupted: false,
        })
    }

    /// Builds a block's starting state: optional boundary inference
    /// (on `prober`, its metrics arriving with the block's first
    /// absorbed delta), then a fresh tree over the (possibly
    /// restricted) root.
    fn init_block<N: Network>(
        &self,
        profile: &IspProfile,
        prober: &mut Prober<N>,
        spent_total: &mut u64,
    ) -> PartialBlock {
        let mut stats = ScanStats::default();
        let mut probed = 0u64;
        let leaf_len = if self.infer {
            let inference = infer_boundary(prober.fresh(), profile.scan_prefix(), 64, 3);
            stats.merge(&ScanStats {
                sent: inference.probes,
                ..ScanStats::default()
            });
            probed += inference.probes;
            *spent_total += inference.probes;
            inference.inferred_len.unwrap_or(profile.assigned_len)
        } else {
            profile.assigned_len
        };
        let mut root = profile.scan_prefix();
        if let Some(bits) = self.config.root_bits {
            let bits = bits.min(leaf_len - root.len()).max(1);
            root = root.subprefix(leaf_len - bits, 0);
        }
        assert!(
            leaf_len - root.len() < 64,
            "adaptive trees index their leaf space with u64 cursors"
        );
        let tree = PrefixTree::new(root, leaf_len, self.config.branch_bits);
        let space_size = tree.span(0);
        PartialBlock {
            tree,
            block: BlockResult {
                profile_id: profile.id,
                peripheries: Vec::new(),
                stats,
                probed,
                space_size,
                alias_candidates: Vec::new(),
                mop_up_recovered: 0,
            },
            round: 0,
            leaf_len,
        }
    }

    /// Drives one block's rounds to completion (or the engine kill).
    #[allow(clippy::too_many_arguments)]
    fn run_block<N: Network + Send>(
        &self,
        mut state: PartialBlock,
        probers: &mut [Prober<N>],
        path: Option<&Path>,
        fp: u64,
        done_blocks: &[BlockResult],
        snapshot: &mut Snapshot,
        spent_total: &mut u64,
    ) -> Result<(BlockResult, bool), StateError> {
        let cfg = &self.config;
        let mut seen: FxHashSet<Ip6> = state.block.peripheries.iter().map(|p| p.address).collect();
        let interrupted = loop {
            if state.round >= cfg.max_rounds {
                break false;
            }
            // Fix the round's units in canonical frontier order; the
            // budget truncates deterministically.
            let mut remaining = cfg.probe_budget.saturating_sub(state.block.probed);
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
                let count = cfg.samples_per_node.min(span - node.cursor).min(remaining);
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
            let results = self.run_round(&units, state.leaf_len, probers);

            // Merge in unit-index order — the deterministic merge point.
            let mut round_drawn = 0u64;
            let mut round_new = 0u64;
            for r in &results {
                state.tree.record(r.node, r.drawn, r.hits);
                round_drawn += r.drawn;
                for (responder, target, probe_dst, via_te) in &r.finds {
                    if !seen.insert(*responder) {
                        continue;
                    }
                    round_new += 1;
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
            *spent_total += round_drawn;
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
                    if span > cfg.exhaust_span
                        && state.tree.can_split(u.node)
                        && node.density() >= cfg.split_density
                    {
                        state.tree.split(u.node);
                    }
                    continue;
                }
                if node.probes >= cfg.prune_after {
                    if span <= cfg.prune_max_span || !state.tree.can_split(u.node) {
                        state.tree.prune(u.node);
                    } else {
                        state.tree.split(u.node);
                    }
                }
            }

            if let Some(p) = path {
                // The checkpoint must carry exact metrics.
                absorb_all(probers, snapshot);
                write_ckpt(p, fp, done_blocks, snapshot, *spent_total, Some(&state))?;
            }
            if let Some(kill) = self.kill_after_probes {
                if *spent_total >= kill {
                    break true;
                }
            }
            if cfg.min_marginal > 0.0
                && round_drawn > 0
                && (round_new as f64 / round_drawn as f64) < cfg.min_marginal
            {
                break false;
            }
        };
        absorb_all(probers, snapshot);
        Ok((state.block, interrupted))
    }

    /// Executes a round's units — possibly in parallel, one prober per
    /// worker — returning results in unit-index order regardless of
    /// scheduling.
    fn run_round<N: Network + Send>(
        &self,
        units: &[Unit],
        leaf_len: u8,
        probers: &mut [Prober<N>],
    ) -> Vec<UnitResult> {
        let exec = |u: &Unit, prober: &mut Prober<N>| {
            run_unit(u, leaf_len, &self.blocklist, prober.fresh())
        };
        let round_probes: u64 = units.iter().map(|u| u.count).sum();
        let n_workers = if round_probes < MIN_PARALLEL_ROUND_PROBES {
            1
        } else {
            self.workers.min(units.len()).max(1)
        };
        if n_workers == 1 {
            let prober = &mut probers[0];
            return units.iter().map(|u| exec(u, prober)).collect();
        }
        let next = AtomicUsize::new(0);
        let slots: Vec<Mutex<Option<UnitResult>>> =
            units.iter().map(|_| Mutex::new(None)).collect();
        let work = |prober: &mut Prober<N>| loop {
            let i = next.fetch_add(1, Ordering::Relaxed);
            if i >= units.len() {
                break;
            }
            let r = exec(&units[i], prober);
            match slots[i].lock() {
                Ok(mut slot) => *slot = Some(r),
                Err(poisoned) => *poisoned.into_inner() = Some(r),
            }
        };
        std::thread::scope(|scope| {
            for prober in probers.iter_mut().take(n_workers) {
                let work = &work;
                scope.spawn(move || work(prober));
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
    }
}

/// Seed of a node's private sample permutation: derived from the scan
/// seed and the node's identity, so every node walks its own
/// without-replacement pseudorandom order and a rebuilt tree resumes
/// the identical walk.
fn node_seed(seed: u64, prefix: Prefix) -> u64 {
    let mut fp = Fingerprint::new();
    fp.push_str("adaptive-node")
        .push_u64(seed)
        .push_u128(prefix.addr().bits())
        .push_u64(prefix.len() as u64);
    fp.finish()
}

/// Runs one unit as a pure function of (unit, seed, world) — `scanner`
/// must sit over a just-reset network: draws the batch through the
/// chunked [`IndexWalk`] streaming path, probes each leaf target once,
/// and classifies responses with the campaign's transit filter and
/// alias signature.
fn run_unit<N: Network>(
    unit: &Unit,
    leaf_len: u8,
    blocklist: &Blocklist,
    scanner: &mut Scanner<N>,
) -> UnitResult {
    let (seed, hop_limit) = (scanner.config().seed, scanner.config().hop_limit);
    let perm = FeistelPermutation::new(unit.span, node_seed(seed, unit.prefix));
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
    let mut scratch: Vec<Ipv6Packet> = Vec::new();
    let mut answers: Vec<(Ip6, ProbeResult)> = Vec::new();
    let baseline = scanner.metrics().baseline();
    while drawn < unit.count {
        let want = ((unit.count - drawn) as usize).min(buf.len());
        let n = walk.fill(&mut buf[..want]);
        if n == 0 {
            break;
        }
        for &index in &buf[..n] {
            drawn += 1;
            let target = unit.prefix.subprefix(leaf_len, index as u128);
            let dst = fill_host_bits(target, seed);
            if !blocklist.is_allowed(dst) {
                scanner.metrics().blocked.inc();
                continue;
            }
            scanner.probe_addr_into(dst, &IcmpEchoProbe, hop_limit, &mut scratch, &mut answers);
            let mut hit = false;
            for (src, result) in &answers {
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
    let stats = scanner.metrics().stats_since(&baseline);
    UnitResult {
        node: unit.node,
        drawn,
        hits,
        finds,
        aliases,
        stats,
    }
}

/// A loaded adaptive checkpoint.
struct AdaptiveCkpt {
    blocks: Vec<BlockResult>,
    snapshot: Snapshot,
    spent: u64,
    partial: Option<PartialBlock>,
}

fn write_ckpt(
    path: &Path,
    fp: u64,
    blocks: &[BlockResult],
    snapshot: &Snapshot,
    spent: u64,
    partial: Option<&PartialBlock>,
) -> Result<(), StateError> {
    let sections_list = if partial.is_some() {
        "[\"metrics\",\"blocks\",\"tree\",\"partial\"]"
    } else {
        "[\"metrics\",\"blocks\"]"
    };
    let header = format!(
        "{{\"schema\":\"{CHECKPOINT_SCHEMA}\",\"kind\":\"adaptive-campaign\",\
         \"completed_blocks\":{},\"spent\":{spent},\
         \"adaptive_fp\":\"{fp:#018x}\",\"sections\":{sections_list}}}",
        blocks.len()
    );
    let mut be = Encoder::new();
    be.seq(blocks.len());
    for b in blocks {
        encode_block(&mut be, b);
    }
    let mut sections: Vec<(&str, Vec<u8>)> = vec![
        ("metrics", encode_snapshot(snapshot)),
        ("blocks", be.finish()),
    ];
    if let Some(p) = partial {
        let mut te = Encoder::new();
        encode_tree(&mut te, &p.tree);
        sections.push(("tree", te.finish()));
        let mut pe = Encoder::new();
        encode_block(&mut pe, &p.block);
        pe.u64(p.round);
        pe.u8(p.leaf_len);
        sections.push(("partial", pe.finish()));
    }
    write_sectioned(path, &header, &sections)
}

/// Loads and validates an adaptive checkpoint; `Ok(None)` when none
/// exists yet.
fn load_ckpt(path: &Path, expected_fp: u64) -> Result<Option<AdaptiveCkpt>, StateError> {
    if !path.exists() {
        return Ok(None);
    }
    let what = "adaptive checkpoint";
    let (header, mut sections) = read_sectioned(path, what)?;
    let kind = header.req_str("kind", what)?;
    if kind != "adaptive-campaign" {
        return Err(StateError::Corrupt(format!(
            "{what}: expected kind `adaptive-campaign`, found `{kind}`"
        )));
    }
    let fp = parse_fp(&header.req_str("adaptive_fp", what)?, what)?;
    if fp != expected_fp {
        return Err(StateError::Mismatch(format!(
            "adaptive checkpoint was taken under configuration {fp:#018x}, \
             this engine fingerprints as {expected_fp:#018x}"
        )));
    }
    let metrics_raw = sections
        .remove("metrics")
        .ok_or_else(|| StateError::Corrupt(format!("{what}: missing `metrics` section")))?;
    let blocks_raw = sections
        .remove("blocks")
        .ok_or_else(|| StateError::Corrupt(format!("{what}: missing `blocks` section")))?;
    let mut d = Decoder::new(&blocks_raw, "adaptive blocks");
    let n = d.seq()?;
    let mut blocks = Vec::with_capacity(n);
    for _ in 0..n {
        blocks.push(decode_block(&mut d)?);
    }
    d.expect_end()?;
    let partial = match (sections.remove("tree"), sections.remove("partial")) {
        (Some(tree_raw), Some(partial_raw)) => {
            let mut td = Decoder::new(&tree_raw, "adaptive tree");
            let tree = decode_tree(&mut td)?;
            td.expect_end()?;
            let mut pd = Decoder::new(&partial_raw, "adaptive partial block");
            let block = decode_block(&mut pd)?;
            let round = pd.u64()?;
            let leaf_len = pd.u8()?;
            pd.expect_end()?;
            if leaf_len != tree.leaf_len() {
                return Err(StateError::Corrupt(format!(
                    "{what}: partial block leaf length {leaf_len} disagrees with tree {}",
                    tree.leaf_len()
                )));
            }
            Some(PartialBlock {
                tree,
                block,
                round,
                leaf_len,
            })
        }
        (None, None) => None,
        _ => {
            return Err(StateError::Corrupt(format!(
                "{what}: `tree` and `partial` sections must appear together"
            )))
        }
    };
    Ok(Some(AdaptiveCkpt {
        blocks,
        snapshot: decode_snapshot(&metrics_raw)?,
        spent: header.req_u64("spent", what)?,
        partial,
    }))
}

#[cfg(test)]
mod tests {
    use super::*;
    use xmap_netsim::fault::{FaultPlan, IcmpRateLimit};
    use xmap_netsim::world::{Allocation, World, WorldConfig};

    fn sparse_world(telemetry: &Telemetry) -> World {
        // Concentration matters: active pods must be dense enough that
        // `prune_after` silent probes is strong evidence of emptiness.
        let mut world = World::with_config(WorldConfig::lossless(99, 10).with_allocation(
            Allocation::Clustered {
                pod_bits: 8,
                active_frac: 1.0 / 256.0,
            },
        ));
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
            let outcome = AdaptiveCampaign::new(AdaptiveConfig {
                root_bits: Some(14),
                ..AdaptiveConfig::default()
            })
            .with_workers(workers)
            .run(&scan, |telemetry| {
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
            .run_checkpointed(&base(), &path, false, sparse_world)
            .unwrap();
        assert!(outcome.interrupted, "kill point must interrupt");
        assert!(outcome.result.blocks.len() < baseline.result.blocks.len());

        // Resume under a different worker count.
        let resumed = engine()
            .with_workers(2)
            .run_checkpointed(&base(), &path, true, sparse_world)
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
            .run_checkpointed(&base(), &path, false, sparse_world)
            .unwrap();
        assert!(outcome.interrupted);
        let other = AdaptiveCampaign::new(AdaptiveConfig {
            probe_budget: 1 << 10,
            root_bits: Some(16),
            ..AdaptiveConfig::default()
        });
        let err = other
            .run_checkpointed(&base(), &path, true, sparse_world)
            .unwrap_err();
        assert!(matches!(err, StateError::Mismatch(_)), "{err:?}");
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

    #[test]
    fn marginal_stop_halts_before_budget() {
        let stopped = AdaptiveCampaign::new(AdaptiveConfig {
            min_marginal: 0.5, // absurdly high: stop after round 1
            root_bits: Some(16),
            ..AdaptiveConfig::default()
        })
        .run(&base(), sparse_world);
        let free = engine().run(&base(), sparse_world);
        let s: u64 = stopped.result.blocks.iter().map(|b| b.probed).sum();
        let f: u64 = free.result.blocks.iter().map(|b| b.probed).sum();
        assert!(s < f, "marginal stop must cut probes: {s} vs {f}");
    }
}

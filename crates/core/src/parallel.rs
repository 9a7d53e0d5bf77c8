//! The parallel shard executor: XMap's multi-threaded send loop.
//!
//! The C scanner reaches wire rate by splitting the cyclic permutation
//! into disjoint shards and driving one send thread per shard. This
//! module is that executor for the reproduction: [`ParallelScanner`]
//! nests `n` worker shards *inside* the scanner's configured `(shard,
//! shards)` slot, runs one [`Scanner`] per worker under
//! [`std::thread::scope`], and merges results and telemetry
//! deterministically, so a seeded N-worker run is byte-identical to the
//! 1-worker run.
//!
//! # Shard → worker mapping
//!
//! A scanner instance owns the walk positions `shard, shard + shards,
//! shard + 2·shards, …` of the permutation. Worker `w` of `n` takes every
//! `n`-th of those: [`SplitUnit::part`] `w` of `n` of the instance's
//! walk, [`nested_in`](SplitUnit::nested_in) the slot, which is itself
//! a shard, `(shard + w·shards)` of `(shards·n)` total. The union over
//! workers is exactly the instance's target set, each target owned by
//! exactly one worker. A `max_targets` cap splits the same way —
//! instance walk position `j` belongs to worker `j mod n`, so worker `w`
//! gets `ceil((cap − w) / n)` of the first `cap` positions. The campaign
//! executor's intra-block splits use the same algebra one level down.
//!
//! # Why determinism survives
//!
//! * **Disjoint targets, pure responses** — each worker probes a disjoint
//!   target set, and the netsim world derives every response from
//!   `(probe, world seed)`, so per-worker world replicas answer exactly
//!   as one shared world would.
//! * **Per-worker everything** — each worker has its own retry queue,
//!   validator (same seed ⇒ same cookies) and telemetry registry;
//!   nothing is shared, so scheduling cannot leak between workers.
//! * **Canonical merge order** — workers are joined in worker order;
//!   records are then stably sorted by target, which equals permutation-
//!   index order (`ScanRange::nth` is monotone), the same order
//!   `run(1 worker)` produces after its own sort. Counters merge by
//!   addition ([`ScanStats::merge`], [`Snapshot::merge`]); the one
//!   derived gauge (`scan.hit_rate_ppm`) is recomputed from merged
//!   totals.
//!
//! Byte-identity holds only without a fault plan ([`FaultPlan::none`]).
//! Every `FaultPlan` draw (loss both ways, duplication, jitter) mixes in
//! the tick, and each worker has its own clock, so under any plan the
//! records — the responder set included — can differ with the worker
//! count, and so can `netsim.ticks` under `probes_per_target > 1`.
//!
//! [`FaultPlan::none`]: xmap_netsim::FaultPlan::none
//! [`ScanStats::merge`]: crate::ScanStats::merge

use std::panic::{catch_unwind, AssertUnwindSafe};

use xmap_addr::ScanRange;
use xmap_failpoint::exec::ExecFaults;
use xmap_netsim::packet::Network;
use xmap_telemetry::{Snapshot, Telemetry};

use crate::blocklist::Blocklist;
use crate::checkpoint::RangeMode;
use crate::probe::ProbeModule;
use crate::scanner::{ScanConfig, ScanResults, Scanner};
use crate::telemetry::names;
use crate::walk::SplitUnit;

/// Supervision policy for a parallel executor: how many times a unit of
/// work may be attempted before it is declared poisoned and skipped — a
/// shard here; in the campaign executor a block, whose first run and
/// every panic in any of its sub-shards each count as one attempt.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Supervision {
    /// Total attempts per unit, counting the first one. `1` disables
    /// retry entirely; the default is `2` (one retry).
    pub max_attempts: u32,
}

impl Default for Supervision {
    fn default() -> Self {
        Supervision { max_attempts: 2 }
    }
}

/// Boxed per-worker network constructor: `(worker index, telemetry) ->
/// network replica`.
type NetworkFactory<N> = Box<dyn FnMut(usize, &Telemetry) -> N>;

/// A sharded, multi-threaded scan executor over per-worker [`Scanner`]s.
///
/// # Examples
///
/// ```
/// use xmap::{Blocklist, IcmpEchoProbe, ParallelScanner, ScanConfig};
/// use xmap_netsim::World;
///
/// # fn main() -> Result<(), xmap_addr::ParseAddrError> {
/// let config = ScanConfig { max_targets: Some(2000), ..Default::default() };
/// let mut scanner = ParallelScanner::new(4, config, |_, telemetry| {
///     let mut world = World::new(7);
///     world.set_telemetry(telemetry);
///     world
/// });
/// let results = scanner.run(&"2405:200::/32-64".parse()?, &IcmpEchoProbe, &Blocklist::allow_all());
/// assert_eq!(results.stats.sent, 2000); // same totals as a 1-worker run
/// # Ok(())
/// # }
/// ```
pub struct ParallelScanner<N> {
    workers: Vec<Scanner<N>>,
    base: ScanConfig,
    traced: bool,
    factory: NetworkFactory<N>,
    supervision: Supervision,
    exec_faults: Option<ExecFaults>,
    /// Per-worker count of range runs started so far (replays
    /// included), the index scripted [`ExecFaults`] rules match against.
    units: Vec<u64>,
    panics: u64,
    requeued: u64,
    poisoned: Vec<usize>,
}

impl<N> std::fmt::Debug for ParallelScanner<N> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ParallelScanner")
            .field("workers", &self.workers.len())
            .field("supervision", &self.supervision)
            .field("poisoned", &self.poisoned)
            .finish_non_exhaustive()
    }
}

impl<N: Network + Send> ParallelScanner<N> {
    /// Builds an executor with `workers` worker scanners nested inside
    /// `base`'s shard slot. `make_network(w, telemetry)` constructs worker
    /// `w`'s network replica; implementations that mirror metrics (e.g.
    /// [`World::set_telemetry`]) should bind the passed per-worker bundle
    /// so [`snapshot`](Self::snapshot) sees their counters.
    ///
    /// Every worker must be built over the same world seed for the
    /// determinism guarantee to hold (disjoint shards make the replicas
    /// interchangeable with one shared world).
    ///
    /// # Panics
    ///
    /// Panics if `workers == 0`, if `base`'s shard config is invalid, or
    /// if `base.shards * workers` overflows.
    ///
    /// [`World::set_telemetry`]: xmap_netsim::World::set_telemetry
    pub fn new(
        workers: usize,
        base: ScanConfig,
        make_network: impl FnMut(usize, &Telemetry) -> N + 'static,
    ) -> Self {
        Self::build(workers, base, false, Box::new(make_network))
    }

    /// Like [`new`](Self::new), but every worker's telemetry bundle has
    /// its event tracer enabled, so callers can export one NDJSON ring
    /// per worker after the run (via
    /// [`worker_telemetry`](Self::worker_telemetry)).
    pub fn new_traced(
        workers: usize,
        base: ScanConfig,
        make_network: impl FnMut(usize, &Telemetry) -> N + 'static,
    ) -> Self {
        Self::build(workers, base, true, Box::new(make_network))
    }

    fn build(
        workers: usize,
        base: ScanConfig,
        traced: bool,
        mut factory: NetworkFactory<N>,
    ) -> Self {
        assert!(workers > 0, "need at least one worker");
        assert!(base.shards > 0, "shards must be nonzero");
        assert!(base.shard < base.shards, "shard index out of range");
        base.shards
            .checked_mul(workers as u64)
            .expect("shards * workers overflows");
        let scanners = (0..workers)
            .map(|w| make_worker(&base, w, workers, traced, factory.as_mut()))
            .collect();
        ParallelScanner {
            workers: scanners,
            base,
            traced,
            factory,
            supervision: Supervision::default(),
            exec_faults: None,
            units: vec![0; workers],
            panics: 0,
            requeued: 0,
            poisoned: Vec::new(),
        }
    }

    /// Overrides the supervision policy (attempt budget per shard).
    pub fn set_supervision(&mut self, policy: Supervision) {
        self.supervision = policy;
    }

    /// Arms scripted executor faults: worker `w`'s `nth` range run
    /// (counting replays) panics per the plan. Test-harness
    /// plumbing; a production run never sets this.
    pub fn set_exec_faults(&mut self, faults: ExecFaults) {
        self.exec_faults = Some(faults);
    }

    /// Shards whose worker panicked and was not replayed to completion
    /// (empty on a healthy run). A poisoned shard contributes nothing to
    /// results. A sinkless one contributes nothing to telemetry either:
    /// its worker slot holds a fresh, never-run scanner. One with a sink
    /// keeps its scanner, so the caller can still take the sink.
    pub fn poisoned_shards(&self) -> &[usize] {
        &self.poisoned
    }

    /// Replaces worker `w` with a freshly built scanner (new telemetry
    /// bundle, new network replica, same nested shard slot) so a
    /// panicked worker's half-updated state never leaks into a replay or
    /// into [`snapshot`](Self::snapshot).
    fn rebuild_worker(&mut self, w: usize) {
        self.workers[w] = make_worker(
            &self.base,
            w,
            self.workers.len(),
            self.traced,
            self.factory.as_mut(),
        );
    }

    /// Number of workers.
    pub fn workers(&self) -> usize {
        self.workers.len()
    }

    /// The base configuration the workers nest inside.
    pub(crate) fn config(&self) -> &ScanConfig {
        &self.base
    }

    /// Worker `w`'s effective configuration (nested shard slot and cap).
    pub fn worker_config(&self, w: usize) -> &ScanConfig {
        self.workers[w].config()
    }

    /// Worker `w`'s telemetry bundle.
    pub fn worker_telemetry(&self, w: usize) -> &Telemetry {
        self.workers[w].telemetry()
    }

    /// Mutable access to worker `w`'s scanner (used by the checkpoint
    /// driver to attach sinks and restore per-worker state).
    pub fn worker_mut(&mut self, w: usize) -> &mut Scanner<N> {
        &mut self.workers[w]
    }

    /// Scans one range across all workers and merges deterministically:
    /// records sorted by target (= permutation-index order), counters
    /// summed. See the module docs for why the result is byte-identical
    /// to a 1-worker run of the same seed. This is
    /// [`run_all`](Self::run_all) over one range.
    pub fn run(
        &mut self,
        range: &ScanRange,
        module: &(dyn ProbeModule + Sync),
        blocklist: &Blocklist,
    ) -> ScanResults {
        self.run_all(std::slice::from_ref(range), module, blocklist)
    }

    /// Scans several ranges, merging results range by range (per-range
    /// canonical order, concatenated). This is
    /// [`run_with_modes`](Self::run_with_modes) with every range
    /// [`RangeMode::Fresh`].
    pub fn run_all(
        &mut self,
        ranges: &[ScanRange],
        module: &(dyn ProbeModule + Sync),
        blocklist: &Blocklist,
    ) -> ScanResults {
        let modes = (0..self.workers.len())
            .map(|_| fresh_modes(ranges.len()))
            .collect();
        self.run_with_modes(ranges, module, blocklist, modes)
    }

    /// Scans several ranges with an explicit per-worker [`RangeMode`] for
    /// each range — the checkpoint/resume execution path. `modes[w][ri]`
    /// tells worker `w` what to do with range `ri`: scan it fresh, resume
    /// it mid-range, or contribute journal-replayed records without
    /// sending. A worker that reports an interrupted range stops before
    /// the following ranges (its checkpoint already covers everything it
    /// did).
    ///
    /// Merging is canonical: per range, records across workers are
    /// sorted by target and silent targets sorted; ranges are then
    /// concatenated in order. The merged `interrupted` flag is the OR
    /// across workers.
    ///
    /// # Supervision
    ///
    /// Each worker runs its whole mode list under one `catch_unwind`.
    /// What happens to a worker that panics depends on whether it holds
    /// a checkpoint sink:
    ///
    /// * **No sink** (every mode `Fresh`, as [`run_all`](Self::run_all)
    ///   passes): running consumed nothing the worker was handed, so it
    ///   is rebuilt from the factory (fresh replica, fresh telemetry,
    ///   same slot) and replays its whole mode list, until
    ///   [`Supervision::max_attempts`] runs out. Determinism makes the
    ///   replay's records *and* telemetry those of a fault-free run.
    /// * **A sink**: the lost attempt consumed the sink's journal
    ///   position and the worker's restored state, so it is not replayed.
    ///   Its checkpoint covers everything it made durable, and resuming
    ///   the session recovers exactly.
    ///
    /// A worker that is not replayed is poisoned: its targets are
    /// skipped, the merged result is marked `interrupted`, and
    /// [`poisoned_shards`](Self::poisoned_shards) and the `exec.*`
    /// counters in [`snapshot`](Self::snapshot) report it. Scripted
    /// [`ExecFaults`] unit `k` of worker `w` is that worker's `k`-th range
    /// run on this executor, replays included.
    ///
    /// # Panics
    ///
    /// Panics if `modes` is not `workers × ranges.len()` in shape.
    pub fn run_with_modes(
        &mut self,
        ranges: &[ScanRange],
        module: &(dyn ProbeModule + Sync),
        blocklist: &Blocklist,
        modes: Vec<Vec<RangeMode>>,
    ) -> ScanResults {
        assert_eq!(modes.len(), self.workers.len(), "one mode list per worker");
        for m in &modes {
            assert_eq!(m.len(), ranges.len(), "one mode per range");
        }
        let max_attempts = self.supervision.max_attempts.max(1);
        // A replay must not depend on anything a run consumes: a sink's
        // journal position, or the restored state and journalled records
        // a `Resume`/`Skip` mode carries.
        let replayable: Vec<bool> = self
            .workers
            .iter()
            .zip(&modes)
            .map(|(worker, m)| {
                !worker.has_sink() && m.iter().all(|m| matches!(m, RangeMode::Fresh))
            })
            .collect();
        let mut attempts = vec![0u32; modes.len()];
        let mut todo: Vec<Option<Vec<RangeMode>>> = modes.into_iter().map(Some).collect();
        // Each worker's per-range results: a prefix of `ranges` (ending
        // early if interrupted), empty for a poisoned worker.
        let mut outs: Vec<Vec<ScanResults>> = (0..todo.len()).map(|_| Vec::new()).collect();
        while todo.iter().any(Option::is_some) {
            let faults = self.exec_faults.as_ref();
            let round: Vec<(usize, std::thread::Result<Vec<ScanResults>>)> =
                std::thread::scope(|scope| {
                    let handles: Vec<_> = self
                        .workers
                        .iter_mut()
                        .zip(&mut self.units)
                        .zip(&mut todo)
                        .enumerate()
                        .filter_map(|(w, ((worker, units), slot))| {
                            let worker_modes = slot.take()?;
                            let handle = scope.spawn(move || {
                                catch_unwind(AssertUnwindSafe(|| {
                                    let mut per_range = Vec::with_capacity(worker_modes.len());
                                    for (ri, (range, mode)) in
                                        ranges.iter().zip(worker_modes).enumerate()
                                    {
                                        let unit = *units;
                                        *units += 1;
                                        consult_exec_faults(faults, w, unit);
                                        let one = worker.run_checkpointed(
                                            ri as u32, range, module, blocklist, mode,
                                        );
                                        let interrupted = one.interrupted;
                                        per_range.push(one);
                                        if interrupted {
                                            break;
                                        }
                                    }
                                    per_range
                                }))
                            });
                            Some((w, handle))
                        })
                        .collect();
                    // Joining in worker order keeps the fold deterministic.
                    handles
                        .into_iter()
                        .map(|(w, h)| (w, h.join().expect("workers catch their own panics")))
                        .collect()
                });
            for (w, out) in round {
                attempts[w] += 1;
                if let Ok(per_range) = out {
                    outs[w] = per_range;
                    continue;
                }
                self.panics += 1;
                if replayable[w] {
                    // Fresh scanner either way: a replay must not see
                    // half-updated state, and a poisoned slot must not
                    // leak partial telemetry into snapshot().
                    self.rebuild_worker(w);
                    if attempts[w] < max_attempts {
                        self.requeued += 1;
                        todo[w] = Some(fresh_modes(ranges.len()));
                        continue;
                    }
                }
                if !self.poisoned.contains(&w) {
                    self.poisoned.push(w);
                }
            }
        }
        // Draining the per-worker lists in step visits range `ri` of
        // every worker that reached it.
        let mut outs: Vec<_> = outs.into_iter().map(Vec::into_iter).collect();
        let mut merged = ScanResults {
            interrupted: !self.poisoned.is_empty(),
            ..ScanResults::default()
        };
        for _ in ranges {
            let mut bucket = ScanResults::default();
            for one in outs.iter_mut().filter_map(Iterator::next) {
                bucket.absorb(one);
            }
            // Stable sort: a target's own records (e.g. fault-plan
            // duplicates) keep their single worker's arrival order.
            bucket.records.sort_by_key(|r| r.target);
            bucket.silent_targets.sort_unstable();
            merged.absorb(bucket);
        }
        merged
    }

    /// Consumes the executor, returning each worker's network in worker
    /// order (a recorder to save, a replay to check for divergence).
    pub fn into_networks(self) -> Vec<N> {
        self.workers
            .into_iter()
            .map(Scanner::into_network)
            .collect()
    }

    /// The merged telemetry snapshot across all workers: counters and
    /// histograms sum; the derived `scan.hit_rate_ppm` gauge is recomputed
    /// from the merged totals (per-worker values are worker-local rates).
    ///
    /// Supervision counters (`exec.worker_panics`, `exec.requeued`,
    /// `exec.poisoned`) are inserted only when nonzero, so fault-free
    /// snapshots stay byte-identical to pre-supervision exports.
    pub fn snapshot(&self) -> Snapshot {
        let mut merged = merge_worker_snapshots(
            self.workers
                .iter()
                .map(|w| w.telemetry().registry.snapshot()),
        );
        insert_exec_counters(&mut merged, self.panics, self.requeued, self.poisoned.len());
        merged
    }
}

/// Inserts the executor supervision counters into a merged snapshot,
/// each only when nonzero (fault-free exports must not change shape).
/// Shared with the campaign-level executor in `xmap-periphery`.
pub fn insert_exec_counters(snap: &mut Snapshot, panics: u64, requeued: u64, poisoned: usize) {
    if panics > 0 {
        snap.counters
            .insert(names::EXEC_WORKER_PANICS.to_owned(), panics);
    }
    if requeued > 0 {
        snap.counters
            .insert(names::EXEC_REQUEUED.to_owned(), requeued);
    }
    if poisoned > 0 {
        snap.counters
            .insert(names::EXEC_POISONED.to_owned(), poisoned as u64);
    }
}

/// `n` ranges, each scanned from the beginning.
fn fresh_modes(n: usize) -> Vec<RangeMode> {
    (0..n).map(|_| RangeMode::Fresh).collect()
}

/// Applies a scripted executor fault for `worker` claiming `unit`: a
/// matched rule panics in place, and the supervisor's `catch_unwind`
/// turns it into a replay or a poisoned shard.
fn consult_exec_faults(faults: Option<&ExecFaults>, worker: usize, unit: u64) {
    if faults.is_some_and(|f| f.on_unit(worker, unit)) {
        panic!("injected executor fault: worker {worker} panics on unit {unit}");
    }
}

/// Merges per-worker registry snapshots into one export: counters and
/// histograms sum ([`Snapshot::merge`]); the derived `scan.hit_rate_ppm`
/// gauge is recomputed from the merged totals, since per-worker values
/// are worker-local rates. Shared by [`ParallelScanner::snapshot`] and
/// the campaign-level executor in `xmap-periphery`.
pub fn merge_worker_snapshots(snaps: impl IntoIterator<Item = Snapshot>) -> Snapshot {
    let mut merged = Snapshot::default();
    for snap in snaps {
        merged.merge(&snap);
    }
    let sent = merged.counter(names::SENT);
    let valid = merged.counter(names::VALID);
    if let Some(ppm) = valid.saturating_mul(1_000_000).checked_div(sent) {
        merged.gauges.insert(names::HIT_RATE_PPM.to_owned(), ppm);
    }
    merged
}

/// Builds worker `w` of `n`: fresh telemetry, a network replica from the
/// factory, and the worker's slot — part `w` of `n` of the base slot's
/// walk ([`SplitUnit::part`]), nested in it. Used both at construction
/// and when the supervisor rebuilds a panicked worker for retry —
/// determinism guarantees the rebuilt worker reproduces exactly what the
/// panicked attempt would have produced.
fn make_worker<N: Network>(
    base: &ScanConfig,
    w: usize,
    n: usize,
    traced: bool,
    factory: &mut dyn FnMut(usize, &Telemetry) -> N,
) -> Scanner<N> {
    let telemetry = if traced {
        Telemetry::with_tracing()
    } else {
        Telemetry::new()
    };
    let network = factory(w, &telemetry);
    // Every part (even one owning no position) starts at its own shard
    // of the nested walk: no skip.
    let slot = SplitUnit::whole(base.max_targets.unwrap_or(u64::MAX))
        .part(w as u64, n as u64)
        .nested_in(base.shard, base.shards);
    let config = ScanConfig {
        shard: slot.shard(),
        shards: slot.stride,
        max_targets: base.max_targets.map(|_| slot.cap),
        ..base.clone()
    };
    Scanner::with_telemetry(network, config, telemetry)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::probe::IcmpEchoProbe;
    use xmap_netsim::World;

    fn range() -> ScanRange {
        "2405:200::/32-64".parse().unwrap()
    }

    fn base_config(cap: u64) -> ScanConfig {
        ScanConfig {
            seed: 77,
            max_targets: Some(cap),
            ..Default::default()
        }
    }

    fn parallel(workers: usize, cap: u64) -> ParallelScanner<World> {
        ParallelScanner::new(workers, base_config(cap), |_, telemetry| {
            let mut world = World::new(5);
            world.set_telemetry(telemetry);
            world
        })
    }

    #[test]
    fn worker_configs_nest_shards() {
        let base = ScanConfig {
            shard: 1,
            shards: 3,
            max_targets: Some(7),
            ..Default::default()
        };
        let ps = ParallelScanner::new(2, base, |_, _| World::new(5));
        assert_eq!(ps.workers(), 2);
        let w0 = ps.worker_config(0);
        let w1 = ps.worker_config(1);
        assert_eq!((w0.shard, w0.shards, w0.max_targets), (1, 6, Some(4)));
        assert_eq!((w1.shard, w1.shards, w1.max_targets), (4, 6, Some(3)));
    }

    #[test]
    fn sharded_runs_match_across_worker_counts() {
        let run = |workers: usize| {
            let mut ps = parallel(workers, 2048);
            let results = ps.run(&range(), &IcmpEchoProbe, &Blocklist::allow_all());
            (results, ps.snapshot())
        };
        let (r1, s1) = run(1);
        let (r2, s2) = run(2);
        let (r4, s4) = run(4);
        assert_eq!(r1.stats.sent, 2048);
        assert!(!r1.records.is_empty());
        assert_eq!(r1.records, r2.records);
        assert_eq!(r1.records, r4.records);
        assert_eq!(r1.stats, r2.stats);
        assert_eq!(r1.stats, r4.stats);
        assert_eq!(s1, s2);
        assert_eq!(s1, s4);
    }

    #[test]
    fn single_worker_matches_plain_scanner_totals() {
        let mut ps = parallel(1, 512);
        let merged = ps.run(&range(), &IcmpEchoProbe, &Blocklist::allow_all());
        let mut world = World::new(5);
        let telemetry = Telemetry::new();
        world.set_telemetry(&telemetry);
        let mut plain = Scanner::with_telemetry(world, base_config(512), telemetry);
        let serial = plain.run(&range(), &IcmpEchoProbe, &Blocklist::allow_all());
        assert_eq!(merged.stats, serial.stats);
        let mut serial_sorted = serial.records;
        serial_sorted.sort_by_key(|r| r.target);
        assert_eq!(merged.records, serial_sorted);
        assert_eq!(ps.snapshot(), plain.telemetry().registry.snapshot());
    }

    #[test]
    fn run_all_keeps_every_ranges_silent_targets() {
        let ranges = [range(), "2001:200::/32-64".parse().unwrap()];
        let config = ScanConfig {
            record_silent: true,
            ..base_config(64)
        };
        let mut ps = ParallelScanner::new(2, config, |_, _| World::new(5));
        let all = ps.run_all(&ranges, &IcmpEchoProbe, &Blocklist::allow_all());
        // Every probed target either answered or is listed silent.
        assert_eq!(all.records.len() + all.silent_targets.len(), 128);
        for r in &ranges {
            assert!(
                all.silent_targets
                    .iter()
                    .any(|t| r.base().contains(t.addr())),
                "no silent target under {r:?} survived the merge"
            );
        }
    }

    #[test]
    fn more_workers_than_targets() {
        let mut ps = parallel(4, 2);
        let results = ps.run(&range(), &IcmpEchoProbe, &Blocklist::allow_all());
        assert_eq!(results.stats.sent, 2);
    }

    #[test]
    #[should_panic(expected = "at least one worker")]
    fn zero_workers_rejected() {
        let _ = ParallelScanner::new(0, ScanConfig::default(), |_, _| World::new(5));
    }

    #[test]
    fn traced_workers_record_events() {
        let mut ps = ParallelScanner::new_traced(2, base_config(64), |_, telemetry| {
            let mut world = World::new(5);
            world.set_telemetry(telemetry);
            world
        });
        let _ = ps.run(&range(), &IcmpEchoProbe, &Blocklist::allow_all());
        for w in 0..2 {
            assert!(ps.worker_telemetry(w).tracer.is_enabled());
            assert!(!ps.worker_telemetry(w).tracer.to_ndjson().is_empty());
        }
    }

    #[test]
    fn injected_panic_is_retried_byte_identically() {
        use xmap_failpoint::exec::ExecPlan;
        let mut clean = parallel(4, 512);
        let baseline = clean.run(&range(), &IcmpEchoProbe, &Blocklist::allow_all());
        let baseline_snap = clean.snapshot();

        let mut ps = parallel(4, 512);
        ps.set_exec_faults(ExecPlan::panic_on(2, 0).armed());
        let results = ps.run(&range(), &IcmpEchoProbe, &Blocklist::allow_all());
        assert!(!results.interrupted);
        assert!(ps.poisoned_shards().is_empty());
        assert_eq!(results.records, baseline.records);
        assert_eq!(results.stats, baseline.stats);

        let snap = ps.snapshot();
        assert_eq!(snap.counter(names::EXEC_WORKER_PANICS), 1);
        assert_eq!(snap.counter(names::EXEC_REQUEUED), 1);
        // Stripped of the supervision counters, the snapshot matches the
        // fault-free run exactly — the retry reproduced the lost shard.
        let mut stripped = snap.clone();
        stripped.counters.remove(names::EXEC_WORKER_PANICS);
        stripped.counters.remove(names::EXEC_REQUEUED);
        assert_eq!(stripped, baseline_snap);
    }

    /// A panic on a worker's second range replays the whole worker, so
    /// the registry that counted its first range is rebuilt rather than
    /// lost: telemetry, not just records, equals the fault-free run.
    #[test]
    fn run_all_retry_keeps_the_workers_earlier_ranges() {
        use xmap_failpoint::exec::ExecPlan;
        let ranges = [range(), "2405:201::/32-64".parse().unwrap()];
        let mut clean = parallel(2, 512);
        let baseline = clean.run_all(&ranges, &IcmpEchoProbe, &Blocklist::allow_all());
        let baseline_snap = clean.snapshot();
        assert_eq!(baseline_snap.counter(names::SENT), 1024);

        let mut ps = parallel(2, 512);
        ps.set_exec_faults(ExecPlan::panic_on(1, 1).armed());
        let results = ps.run_all(&ranges, &IcmpEchoProbe, &Blocklist::allow_all());
        assert!(!results.interrupted);
        assert!(ps.poisoned_shards().is_empty());
        assert_eq!(results.records, baseline.records);
        assert_eq!(results.stats, baseline.stats);

        let mut snap = ps.snapshot();
        assert_eq!(snap.counter(names::EXEC_WORKER_PANICS), 1);
        assert_eq!(snap.counter(names::EXEC_REQUEUED), 1);
        snap.counters.retain(|name, _| !name.starts_with("exec."));
        assert_eq!(snap.counter(names::SENT), 1024);
        assert_eq!(snap, baseline_snap);
    }

    #[test]
    fn exhausted_attempts_poison_the_shard() {
        use xmap_failpoint::exec::ExecPlan;
        let mut ps = parallel(2, 64);
        ps.set_supervision(Supervision { max_attempts: 1 });
        ps.set_exec_faults(ExecPlan::panic_on(1, 0).armed());
        let results = ps.run(&range(), &IcmpEchoProbe, &Blocklist::allow_all());
        assert!(results.interrupted, "poisoned shard must flag the merge");
        assert_eq!(ps.poisoned_shards(), &[1]);
        // Worker 0's half of the 64-target cap still completed.
        assert_eq!(results.stats.sent, 32);
        let snap = ps.snapshot();
        assert_eq!(snap.counter(names::EXEC_WORKER_PANICS), 1);
        assert_eq!(snap.counter(names::EXEC_POISONED), 1);
        assert_eq!(snap.counter(names::EXEC_REQUEUED), 0);
    }

    #[test]
    fn run_all_reports_a_poisoned_shard() {
        use xmap_failpoint::exec::ExecPlan;
        let mut ps = parallel(2, 64);
        ps.set_supervision(Supervision { max_attempts: 1 });
        ps.set_exec_faults(ExecPlan::panic_on(1, 0).armed());
        let results = ps.run_all(&[range(), range()], &IcmpEchoProbe, &Blocklist::allow_all());
        assert_eq!(ps.poisoned_shards(), &[1]);
        assert!(
            results.interrupted,
            "a multi-range scan must not hide its poisoned shard"
        );
    }

    #[test]
    fn repeated_panics_exhaust_budget_then_poison() {
        use xmap_failpoint::exec::{ExecPlan, ExecRule};
        let mut ps = parallel(2, 64);
        // Default budget is 2 attempts; both panic.
        let plan = ExecPlan {
            rules: vec![
                ExecRule { worker: 0, nth: 0 },
                ExecRule { worker: 0, nth: 1 },
            ],
        };
        ps.set_exec_faults(plan.armed());
        let results = ps.run(&range(), &IcmpEchoProbe, &Blocklist::allow_all());
        assert!(results.interrupted);
        assert_eq!(ps.poisoned_shards(), &[0]);
        let snap = ps.snapshot();
        assert_eq!(snap.counter(names::EXEC_WORKER_PANICS), 2);
        assert_eq!(snap.counter(names::EXEC_REQUEUED), 1);
        assert_eq!(snap.counter(names::EXEC_POISONED), 1);
    }

    #[test]
    fn fault_free_snapshot_has_no_exec_counters() {
        let mut ps = parallel(2, 64);
        let _ = ps.run(&range(), &IcmpEchoProbe, &Blocklist::allow_all());
        let snap = ps.snapshot();
        for name in [
            names::EXEC_WORKER_PANICS,
            names::EXEC_REQUEUED,
            names::EXEC_POISONED,
        ] {
            assert!(
                !snap.counters.contains_key(name),
                "{name} must only appear when nonzero"
            );
        }
    }
}

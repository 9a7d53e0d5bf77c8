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
//! `n`-th of those, which is itself a shard: `(shard + w·shards)` of
//! `(shards·n)` total. The union over workers is exactly the instance's
//! target set, each target owned by exactly one worker. A `max_targets`
//! cap splits the same way — instance walk position `j` belongs to worker
//! `j mod n`, so worker `w` gets `ceil((cap − w) / n)` of the first `cap`
//! positions.
//!
//! # Why determinism survives
//!
//! * **Disjoint targets, pure responses** — each worker probes a disjoint
//!   target set, and the netsim world derives every response from
//!   `(probe, world seed)`, so per-worker world replicas answer exactly
//!   as one shared world would.
//! * **Per-worker everything** — each worker has its own retry queue,
//!   validator (same seed ⇒ same cookies), AIMD controller slice, and
//!   telemetry registry; nothing is shared, so scheduling cannot leak
//!   between workers.
//! * **Canonical merge order** — workers are joined in worker order;
//!   records are then stably sorted by target, which equals permutation-
//!   index order (`ScanRange::nth` is monotone), the same order
//!   `run(1 worker)` produces after its own sort. Counters merge by
//!   addition ([`ScanStats::merge`], [`Snapshot::merge`]); the one
//!   derived gauge (`scan.hit_rate_ppm`) is recomputed from merged
//!   totals.
//!
//! The byte-identity guarantee assumes clock-independent worlds (the
//! default: [`FaultPlan::none`]'s limiter and loss draws key on addresses,
//! not ticks). Time-keyed fault plans (jitter, flaky windows) and
//! `netsim.ticks` under `probes_per_target > 1` can shift per-worker
//! drain timing; `scan.*` results remain a set-equal merge even then.
//!
//! [`FaultPlan::none`]: xmap_netsim::FaultPlan::none

use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Mutex;

use xmap_addr::ScanRange;
use xmap_failpoint::exec::{ExecAction, ExecFaults};
use xmap_netsim::packet::Network;
use xmap_telemetry::{Snapshot, Telemetry};

use crate::blocklist::Blocklist;
use crate::probe::ProbeModule;
use crate::scanner::{ScanConfig, ScanResults, Scanner};
use crate::telemetry::names;

/// Supervision policy for a parallel executor: how many times a unit of
/// work (a shard here, a block in the campaign executor) may be
/// attempted before it is declared poisoned and skipped.
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
    /// Per-worker count of units claimed so far (shard-run attempts),
    /// the index scripted [`ExecFaults`] rules match against.
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

    /// Arms scripted executor faults: worker `w`'s `nth` claimed shard
    /// run panics or stalls per the plan. Test-harness plumbing; a
    /// production run never sets this.
    pub fn set_exec_faults(&mut self, faults: ExecFaults) {
        self.exec_faults = Some(faults);
    }

    /// Shards whose attempt budget ran out (empty on a healthy run).
    /// A poisoned shard contributes nothing to results or telemetry;
    /// its worker slot holds a fresh, never-run scanner.
    pub fn poisoned_shards(&self) -> &[usize] {
        &self.poisoned
    }

    /// Replaces worker `w` with a freshly built scanner (new telemetry
    /// bundle, new network replica, same nested shard slot) so a
    /// panicked worker's half-updated state never leaks into a retry or
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
    /// to a 1-worker run of the same seed.
    ///
    /// Workers run under `catch_unwind` supervision: a panicked shard is
    /// rebuilt from the factory (fresh replica, same slot — determinism
    /// makes the retry byte-identical to what the lost attempt would
    /// have produced) and respawned until its attempt budget
    /// ([`Supervision::max_attempts`]) runs out, after which the shard
    /// is poisoned: its targets are skipped, the merged result is marked
    /// `interrupted`, and [`poisoned_shards`](Self::poisoned_shards) /
    /// the `exec.*` counters in [`snapshot`](Self::snapshot) report it.
    pub fn run(
        &mut self,
        range: &ScanRange,
        module: &(dyn ProbeModule + Sync),
        blocklist: &Blocklist,
    ) -> ScanResults {
        let n = self.workers.len();
        let max_attempts = self.supervision.max_attempts.max(1);
        let mut results: Vec<Option<ScanResults>> = (0..n).map(|_| None).collect();
        let mut attempts = vec![0u32; n];
        loop {
            let pending: Vec<bool> = (0..n)
                .map(|w| results[w].is_none() && attempts[w] < max_attempts)
                .collect();
            if !pending.contains(&true) {
                break;
            }
            let mut unit_of = vec![0u64; n];
            for w in 0..n {
                if pending[w] {
                    attempts[w] += 1;
                    unit_of[w] = self.units[w];
                    self.units[w] += 1;
                }
            }
            let faults = self.exec_faults.as_ref();
            let outs: Vec<(usize, std::thread::Result<ScanResults>)> =
                std::thread::scope(|scope| {
                    let handles: Vec<_> = self
                        .workers
                        .iter_mut()
                        .enumerate()
                        .filter(|(w, _)| pending[*w])
                        .map(|(w, worker)| {
                            let unit = unit_of[w];
                            let handle = scope.spawn(move || {
                                catch_unwind(AssertUnwindSafe(|| {
                                    consult_exec_faults(faults, w, unit);
                                    worker.run(range, module, blocklist)
                                }))
                            });
                            (w, handle)
                        })
                        .collect();
                    // Joining in worker order keeps the fold deterministic.
                    handles
                        .into_iter()
                        .map(|(w, h)| match h.join() {
                            Ok(caught) => (w, caught),
                            Err(payload) => (w, Err(payload)),
                        })
                        .collect()
                });
            for (w, out) in outs {
                match out {
                    Ok(res) => results[w] = Some(res),
                    Err(_) => {
                        self.panics += 1;
                        // Fresh scanner either way: a retry must not see
                        // half-updated state, and a poisoned slot must
                        // not leak partial telemetry into snapshot().
                        self.rebuild_worker(w);
                        if attempts[w] < max_attempts {
                            self.requeued += 1;
                        } else if !self.poisoned.contains(&w) {
                            self.poisoned.push(w);
                        }
                    }
                }
            }
        }
        let mut merged = ScanResults::default();
        for one in results.into_iter().flatten() {
            merged.absorb(one);
        }
        // Stable sort: a target's own records (e.g. fault-plan duplicates)
        // keep their single worker's arrival order.
        merged.records.sort_by_key(|r| r.target);
        merged.silent_targets.sort_unstable();
        // Poisoned shards left targets unscanned — surface that the same
        // way an aborted checkpointed run does.
        merged.interrupted |= !self.poisoned.is_empty();
        merged
    }

    /// Scans several ranges, merging results range by range (mirrors
    /// [`Scanner::run_all`]: per-range canonical order, concatenated).
    pub fn run_all(
        &mut self,
        ranges: &[ScanRange],
        module: &(dyn ProbeModule + Sync),
        blocklist: &Blocklist,
    ) -> ScanResults {
        let mut all = ScanResults::default();
        for r in ranges {
            all.absorb(self.run(r, module, blocklist));
        }
        all
    }

    /// Scans several ranges with an explicit per-worker [`RangeMode`] for
    /// each range — the checkpoint/resume execution path. `modes[w][ri]`
    /// tells worker `w` what to do with range `ri`: scan it fresh, resume
    /// it mid-range, or contribute journal-replayed records without
    /// sending. A worker that reports an interrupted range stops before
    /// the following ranges (its checkpoint already covers everything it
    /// did).
    ///
    /// Merging reproduces [`run_all`](Self::run_all)'s canonical order
    /// exactly: per range, records across workers are sorted by target and
    /// silent targets sorted; ranges are then concatenated in order. The
    /// merged `interrupted` flag is the OR across workers.
    ///
    /// # Panics
    ///
    /// Panics if `modes` is not `workers × ranges.len()` in shape.
    pub fn run_with_modes(
        &mut self,
        ranges: &[ScanRange],
        module: &(dyn ProbeModule + Sync),
        blocklist: &Blocklist,
        modes: Vec<Vec<crate::checkpoint::RangeMode>>,
    ) -> ScanResults {
        assert_eq!(modes.len(), self.workers.len(), "one mode list per worker");
        for m in &modes {
            assert_eq!(m.len(), ranges.len(), "one mode per range");
        }
        // Each worker returns its per-range results (ending early if
        // interrupted); merging happens range by range below. A panicked
        // worker is NOT retried in-process: its sink and restored resume
        // state were consumed by the lost attempt, so the only sound
        // recovery is the normal session-resume path. The shard is
        // poisoned and the merged result marked interrupted — the
        // worker's own checkpoint already covers everything it durably
        // did, so a resume recovers exactly.
        let faults = self.exec_faults.as_ref();
        let outs: Vec<std::thread::Result<Vec<ScanResults>>> = std::thread::scope(|scope| {
            let handles: Vec<_> = self
                .workers
                .iter_mut()
                .zip(modes)
                .enumerate()
                .map(|(w, (worker, worker_modes))| {
                    scope.spawn(move || {
                        catch_unwind(AssertUnwindSafe(|| {
                            let mut per_range = Vec::with_capacity(worker_modes.len());
                            for (ri, (range, mode)) in ranges.iter().zip(worker_modes).enumerate() {
                                // Unit index = range index in this path,
                                // so scripts can target "worker w, range
                                // ri" directly.
                                consult_exec_faults(faults, w, ri as u64);
                                let one = worker
                                    .run_checkpointed(ri as u32, range, module, blocklist, mode);
                                let interrupted = one.interrupted;
                                per_range.push(one);
                                if interrupted {
                                    break;
                                }
                            }
                            per_range
                        }))
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| match h.join() {
                    Ok(caught) => caught,
                    Err(payload) => Err(payload),
                })
                .collect()
        });
        // Each worker's list is a prefix of `ranges`, so draining the
        // lists in step visits range `ri` of every worker that reached it.
        let mut outs: Vec<std::vec::IntoIter<ScanResults>> = outs
            .into_iter()
            .enumerate()
            .map(|(w, out)| match out {
                Ok(per_range) => per_range.into_iter(),
                Err(_) => {
                    self.panics += 1;
                    if !self.poisoned.contains(&w) {
                        self.poisoned.push(w);
                    }
                    Vec::new().into_iter()
                }
            })
            .collect();
        let mut merged = ScanResults::default();
        merged.interrupted |= !self.poisoned.is_empty();
        for _ in ranges {
            let mut bucket = ScanResults::default();
            for one in outs.iter_mut().filter_map(Iterator::next) {
                bucket.absorb(one);
            }
            bucket.records.sort_by_key(|r| r.target);
            bucket.silent_targets.sort_unstable();
            merged.absorb(bucket);
        }
        merged
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

/// Applies a scripted executor fault for `worker` claiming `unit`.
/// `Panic` panics in place — the supervisor's `catch_unwind` turns it
/// into a requeue or a poisoned shard. The shard executor has no
/// watchdog (its workers are compute-bound over finite disjoint shards,
/// so a claim cannot be held forever), so `Stall` just parks the worker
/// briefly — exercising slow-worker merge order, not requeue. The
/// campaign executor gives `Stall` its full meaning.
fn consult_exec_faults(faults: Option<&ExecFaults>, worker: usize, unit: u64) {
    match faults.and_then(|f| f.on_unit(worker, unit)) {
        Some(ExecAction::Panic) => {
            panic!("injected executor fault: worker {worker} panics on unit {unit}")
        }
        Some(ExecAction::Stall) => std::thread::sleep(std::time::Duration::from_millis(25)),
        None => {}
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

/// A deque-based work-stealing scheduler over item indices.
///
/// Built for workloads whose items differ wildly in cost (campaign
/// blocks: some scan 2³² spaces under tight ICMPv6 token buckets, others
/// are small and fast) — static assignment would leave the fast workers
/// idle behind the slowest block. Each worker owns a deque seeded
/// round-robin; it pops its own queue from the *front* and, when empty,
/// steals from a victim's *back*, so steals take the work its owner
/// would reach last.
///
/// Scheduling order is nondeterministic under contention by design; the
/// callers that need determinism tag every item's result with its index
/// and merge in index order, which makes the schedule unobservable.
///
/// `std`-only: a `Mutex<VecDeque>` per worker. Item counts here are
/// tiny (15 campaign blocks), so lock contention is irrelevant next to
/// the seconds-long items themselves.
#[derive(Debug)]
pub struct StealQueue {
    deques: Vec<Mutex<VecDeque<usize>>>,
}

impl StealQueue {
    /// Distributes `items` indices (0-based) round-robin over `workers`
    /// deques: worker `w` is seeded with `w, w + workers, w + 2·workers,
    /// …`, mirroring the shard→worker mapping of [`ParallelScanner`].
    ///
    /// # Panics
    ///
    /// Panics if `workers == 0`.
    pub fn new(items: usize, workers: usize) -> Self {
        assert!(workers > 0, "need at least one worker");
        let mut deques: Vec<VecDeque<usize>> = (0..workers).map(|_| VecDeque::new()).collect();
        for item in 0..items {
            deques[item % workers].push_back(item);
        }
        StealQueue {
            deques: deques.into_iter().map(Mutex::new).collect(),
        }
    }

    /// Takes the next item for `worker`: its own front, else a steal
    /// from the back of the first non-empty victim (scanning `worker +
    /// 1, worker + 2, …` cyclically). `None` once every deque is empty.
    pub fn pop(&self, worker: usize) -> Option<usize> {
        assert!(worker < self.deques.len(), "worker index out of range");
        if let Some(item) = self.deques[worker]
            .lock()
            .expect("steal queue poisoned")
            .pop_front()
        {
            return Some(item);
        }
        let n = self.deques.len();
        for offset in 1..n {
            let victim = (worker + offset) % n;
            if let Some(item) = self.deques[victim]
                .lock()
                .expect("steal queue poisoned")
                .pop_back()
            {
                return Some(item);
            }
        }
        None
    }

    /// Requeues `item` at the back of `worker`'s own deque — the
    /// supervision path: a worker that caught a panic, or the watchdog
    /// reclaiming a stalled worker's unit, pushes the item back so a
    /// surviving worker's next [`pop`](Self::pop) (own front or steal)
    /// picks it up.
    pub fn push(&self, worker: usize, item: usize) {
        assert!(worker < self.deques.len(), "worker index out of range");
        self.deques[worker]
            .lock()
            .expect("steal queue poisoned")
            .push_back(item);
    }

    /// Number of worker deques.
    pub fn workers(&self) -> usize {
        self.deques.len()
    }

    /// Items not yet popped, across all deques.
    pub fn remaining(&self) -> usize {
        self.deques
            .iter()
            .map(|d| d.lock().expect("steal queue poisoned").len())
            .sum()
    }
}

/// Builds worker `w` of `n`: fresh telemetry, a network replica from the
/// factory, and the nested shard config. Used both at construction and
/// when the supervisor rebuilds a panicked worker for retry —
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
    let config = ScanConfig {
        shard: base.shard + w as u64 * base.shards,
        shards: base.shards * n as u64,
        max_targets: base
            .max_targets
            .map(|cap| worker_cap(cap, w as u64, n as u64)),
        ..base.clone()
    };
    Scanner::with_telemetry(network, config, telemetry)
}

/// How many of the first `cap` instance walk positions worker `w` of `n`
/// owns (position `j` goes to worker `j mod n`). Public because the
/// campaign executor's intra-block splits partition a block's remaining
/// walk with exactly this math (`xmap_periphery::split`).
pub fn worker_cap(cap: u64, w: u64, n: u64) -> u64 {
    if cap <= w {
        0
    } else {
        (cap - w).div_ceil(n)
    }
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
    fn worker_caps_partition_exactly() {
        for cap in [0u64, 1, 5, 4096, 4097] {
            for n in [1u64, 2, 3, 4, 7] {
                let total: u64 = (0..n).map(|w| worker_cap(cap, w, n)).sum();
                assert_eq!(total, cap, "cap {cap} workers {n}");
            }
        }
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
                ExecRule {
                    worker: 0,
                    nth: 0,
                    action: ExecAction::Panic,
                },
                ExecRule {
                    worker: 0,
                    nth: 1,
                    action: ExecAction::Panic,
                },
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

    #[test]
    fn steal_queue_push_requeues_for_owner() {
        let q = StealQueue::new(2, 2);
        assert_eq!(q.pop(0), Some(0));
        q.push(0, 0);
        assert_eq!(q.remaining(), 2);
        assert_eq!(q.pop(0), Some(0), "requeued item comes back");
        // Worker 1 drains its own, then steals the requeued one.
        q.push(0, 0);
        assert_eq!(q.pop(1), Some(1));
        assert_eq!(q.pop(1), Some(0));
    }

    #[test]
    fn steal_queue_drains_every_item_exactly_once() {
        let q = StealQueue::new(15, 4);
        assert_eq!(q.workers(), 4);
        assert_eq!(q.remaining(), 15);
        let mut seen = std::collections::BTreeSet::new();
        // Worker 3 drains everything: its own deque, then steals.
        while let Some(item) = q.pop(3) {
            assert!(seen.insert(item), "item {item} scheduled twice");
        }
        assert_eq!(seen.len(), 15);
        assert_eq!(q.remaining(), 0);
        assert_eq!(q.pop(0), None);
    }

    #[test]
    fn steal_queue_owner_pops_front_thief_steals_back() {
        let q = StealQueue::new(8, 2);
        // Worker 0 owns 0,2,4,6; worker 1 owns 1,3,5,7.
        assert_eq!(q.pop(0), Some(0));
        // Exhaust worker 1's own deque, front first.
        assert_eq!(q.pop(1), Some(1));
        assert_eq!(q.pop(1), Some(3));
        assert_eq!(q.pop(1), Some(5));
        assert_eq!(q.pop(1), Some(7));
        // Now worker 1 steals from worker 0's *back*.
        assert_eq!(q.pop(1), Some(6));
        assert_eq!(q.pop(0), Some(2));
    }

    #[test]
    fn steal_queue_under_concurrency_partitions_items() {
        let q = StealQueue::new(100, 4);
        let counts: Vec<usize> = std::thread::scope(|scope| {
            (0..4)
                .map(|w| {
                    let q = &q;
                    scope.spawn(move || {
                        let mut taken = 0;
                        while q.pop(w).is_some() {
                            taken += 1;
                        }
                        taken
                    })
                })
                .collect::<Vec<_>>()
                .into_iter()
                .map(|h| h.join().expect("worker panicked"))
                .collect()
        });
        assert_eq!(counts.iter().sum::<usize>(), 100);
    }
}

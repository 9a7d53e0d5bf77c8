//! The lock-free metrics registry.
//!
//! Hot paths hold pre-bound handles ([`Counter`], [`Gauge`], [`Histogram`])
//! whose update cost is a single relaxed atomic operation; the registry's
//! lock is taken only at bind time (get-or-create by name) and at snapshot
//! time. A registry created with [`Registry::disabled`] hands out inert
//! handles so instrumented code can keep its call sites unconditionally —
//! the `telemetry_overhead` bench measures the difference.
//!
//! Snapshots are deterministic: metric names are ordered, values are plain
//! integers, and nothing derives from wall-clock time, so a seeded scan
//! produces a byte-identical [`Snapshot`] on every run.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Schema identifier stamped into every snapshot export.
pub const SNAPSHOT_SCHEMA: &str = "xmap-telemetry/v1";

/// A monotonically increasing counter handle.
#[derive(Debug, Clone)]
pub struct Counter {
    cell: Arc<AtomicU64>,
    enabled: bool,
}

impl Counter {
    /// Adds `n` (one relaxed atomic add on the hot path).
    #[inline]
    pub fn add(&self, n: u64) {
        if self.enabled {
            self.cell.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Increments by one.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// The current value.
    pub fn get(&self) -> u64 {
        self.cell.load(Ordering::Relaxed)
    }
}

/// A last-value-wins gauge handle.
#[derive(Debug, Clone)]
pub struct Gauge {
    cell: Arc<AtomicU64>,
    enabled: bool,
}

impl Gauge {
    /// Sets the gauge.
    #[inline]
    pub fn set(&self, v: u64) {
        if self.enabled {
            self.cell.store(v, Ordering::Relaxed);
        }
    }

    /// The current value.
    pub fn get(&self) -> u64 {
        self.cell.load(Ordering::Relaxed)
    }
}

#[derive(Debug)]
struct HistogramCell {
    /// Inclusive upper bounds of the finite buckets, strictly increasing.
    bounds: Vec<u64>,
    /// One slot per bound plus a trailing overflow bucket.
    buckets: Vec<AtomicU64>,
    count: AtomicU64,
    sum: AtomicU64,
}

/// A fixed-bucket histogram handle (`value <= bound` selects the bucket;
/// values above the last bound land in the overflow bucket).
#[derive(Debug, Clone)]
pub struct Histogram {
    cell: Arc<HistogramCell>,
    enabled: bool,
}

impl Histogram {
    /// Records one observation: two relaxed adds plus a bucket search.
    #[inline]
    pub fn record(&self, value: u64) {
        if !self.enabled {
            return;
        }
        let idx = self
            .cell
            .bounds
            .partition_point(|&b| b < value)
            .min(self.cell.bounds.len());
        self.cell.buckets[idx].fetch_add(1, Ordering::Relaxed);
        self.cell.count.fetch_add(1, Ordering::Relaxed);
        self.cell.sum.fetch_add(value, Ordering::Relaxed);
    }

    /// Records `n` identical observations with the same three relaxed adds
    /// a single [`record`](Self::record) costs — for hot loops that tally a
    /// repeated value locally and flush in one call.
    #[inline]
    pub fn record_n(&self, value: u64, n: u64) {
        if !self.enabled || n == 0 {
            return;
        }
        let idx = self
            .cell
            .bounds
            .partition_point(|&b| b < value)
            .min(self.cell.bounds.len());
        self.cell.buckets[idx].fetch_add(n, Ordering::Relaxed);
        self.cell.count.fetch_add(n, Ordering::Relaxed);
        self.cell
            .sum
            .fetch_add(value.wrapping_mul(n), Ordering::Relaxed);
    }

    /// Total observations.
    pub fn count(&self) -> u64 {
        self.cell.count.load(Ordering::Relaxed)
    }

    /// Sum of observed values (wrapping on u64 overflow).
    pub fn sum(&self) -> u64 {
        self.cell.sum.load(Ordering::Relaxed)
    }

    /// Per-bucket counts (finite buckets then the overflow bucket).
    pub fn bucket_counts(&self) -> Vec<u64> {
        self.cell
            .buckets
            .iter()
            .map(|b| b.load(Ordering::Relaxed))
            .collect()
    }

    /// The configured finite bucket bounds.
    pub fn bounds(&self) -> &[u64] {
        &self.cell.bounds
    }
}

#[derive(Debug, Default)]
struct RegistryInner {
    counters: BTreeMap<String, Arc<AtomicU64>>,
    gauges: BTreeMap<String, Arc<AtomicU64>>,
    histograms: BTreeMap<String, Arc<HistogramCell>>,
}

/// The metric store. Cheap to share via `Arc`; see the module docs for the
/// locking discipline.
#[derive(Debug)]
pub struct Registry {
    enabled: bool,
    inner: Mutex<RegistryInner>,
}

impl Default for Registry {
    fn default() -> Self {
        Registry::new()
    }
}

impl Registry {
    /// A live registry.
    pub fn new() -> Self {
        Registry {
            enabled: true,
            inner: Mutex::new(RegistryInner::default()),
        }
    }

    /// A registry whose handles are no-ops (still registered, always zero).
    /// Lets instrumented code keep unconditional call sites at effectively
    /// zero cost.
    pub fn disabled() -> Self {
        Registry {
            enabled: false,
            inner: Mutex::new(RegistryInner::default()),
        }
    }

    /// Whether handles from this registry record anything.
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Gets or creates the counter `name`.
    pub fn counter(&self, name: &str) -> Counter {
        let mut inner = self.inner.lock().expect("registry poisoned");
        let cell = inner
            .counters
            .entry(name.to_owned())
            .or_insert_with(|| Arc::new(AtomicU64::new(0)))
            .clone();
        Counter {
            cell,
            enabled: self.enabled,
        }
    }

    /// Gets or creates the gauge `name`.
    pub fn gauge(&self, name: &str) -> Gauge {
        let mut inner = self.inner.lock().expect("registry poisoned");
        let cell = inner
            .gauges
            .entry(name.to_owned())
            .or_insert_with(|| Arc::new(AtomicU64::new(0)))
            .clone();
        Gauge {
            cell,
            enabled: self.enabled,
        }
    }

    /// Gets or creates the histogram `name` with the given finite bucket
    /// bounds (strictly increasing). Bounds passed on later lookups of an
    /// existing histogram are ignored.
    ///
    /// # Panics
    ///
    /// Panics if `bounds` is empty or not strictly increasing.
    pub fn histogram(&self, name: &str, bounds: &[u64]) -> Histogram {
        assert!(!bounds.is_empty(), "histogram needs at least one bound");
        assert!(
            bounds.windows(2).all(|w| w[0] < w[1]),
            "histogram bounds must be strictly increasing"
        );
        let mut inner = self.inner.lock().expect("registry poisoned");
        let cell = inner
            .histograms
            .entry(name.to_owned())
            .or_insert_with(|| {
                Arc::new(HistogramCell {
                    bounds: bounds.to_vec(),
                    buckets: (0..=bounds.len()).map(|_| AtomicU64::new(0)).collect(),
                    count: AtomicU64::new(0),
                    sum: AtomicU64::new(0),
                })
            })
            .clone();
        Histogram {
            cell,
            enabled: self.enabled,
        }
    }

    /// Overwrites every metric named in `snap` with its snapshot value,
    /// creating metrics (with the snapshot's bucket bounds) that do not
    /// exist yet. Metrics present in the registry but absent from the
    /// snapshot are left untouched.
    ///
    /// This is the resume path of the checkpoint subsystem: a worker's
    /// registry is rebuilt to the exact state it had when the checkpoint
    /// was taken, so `stats_since`-style deltas and final exports match
    /// an uninterrupted run byte for byte.
    ///
    /// # Panics
    ///
    /// Panics if an existing histogram's bounds differ from the
    /// snapshot's (same contract as [`Snapshot::merge`]) — that indicates
    /// a checkpoint from an incompatible build.
    pub fn restore(&self, snap: &Snapshot) {
        let mut inner = self.inner.lock().expect("registry poisoned");
        for (name, value) in &snap.counters {
            inner
                .counters
                .entry(name.clone())
                .or_insert_with(|| Arc::new(AtomicU64::new(0)))
                .store(*value, Ordering::Relaxed);
        }
        for (name, value) in &snap.gauges {
            inner
                .gauges
                .entry(name.clone())
                .or_insert_with(|| Arc::new(AtomicU64::new(0)))
                .store(*value, Ordering::Relaxed);
        }
        for (name, h) in &snap.histograms {
            let cell = inner.histograms.entry(name.clone()).or_insert_with(|| {
                Arc::new(HistogramCell {
                    bounds: h.bounds.clone(),
                    buckets: (0..=h.bounds.len()).map(|_| AtomicU64::new(0)).collect(),
                    count: AtomicU64::new(0),
                    sum: AtomicU64::new(0),
                })
            });
            assert_eq!(
                cell.bounds, h.bounds,
                "histogram `{name}`: restore with mismatched bucket bounds"
            );
            for (bucket, count) in cell.buckets.iter().zip(&h.counts) {
                bucket.store(*count, Ordering::Relaxed);
            }
            cell.count.store(h.count, Ordering::Relaxed);
            cell.sum.store(h.sum, Ordering::Relaxed);
        }
    }

    /// Folds `snap` *additively* into the live registry: counters add,
    /// histogram buckets/counts add (creating metrics that do not exist
    /// yet), gauges are left untouched — a gauge is a derived point
    /// value, so callers recompute it from the absorbed totals.
    ///
    /// This is how a registry that drove part of a run absorbs the
    /// merged delta of work executed on other registries (e.g. a
    /// parallel campaign's per-worker registries), so the combined
    /// export matches the same work executed locally.
    ///
    /// # Panics
    ///
    /// Panics if an existing histogram's bounds differ from the
    /// snapshot's (same contract as [`Snapshot::merge`]).
    pub fn absorb(&self, snap: &Snapshot) {
        let mut inner = self.inner.lock().expect("registry poisoned");
        for (name, value) in &snap.counters {
            inner
                .counters
                .entry(name.clone())
                .or_insert_with(|| Arc::new(AtomicU64::new(0)))
                .fetch_add(*value, Ordering::Relaxed);
        }
        for (name, h) in &snap.histograms {
            let cell = inner.histograms.entry(name.clone()).or_insert_with(|| {
                Arc::new(HistogramCell {
                    bounds: h.bounds.clone(),
                    buckets: (0..=h.bounds.len()).map(|_| AtomicU64::new(0)).collect(),
                    count: AtomicU64::new(0),
                    sum: AtomicU64::new(0),
                })
            });
            assert_eq!(
                cell.bounds, h.bounds,
                "histogram `{name}`: absorb with mismatched bucket bounds"
            );
            for (bucket, count) in cell.buckets.iter().zip(&h.counts) {
                bucket.fetch_add(*count, Ordering::Relaxed);
            }
            cell.count.fetch_add(h.count, Ordering::Relaxed);
            cell.sum.fetch_add(h.sum, Ordering::Relaxed);
        }
    }

    /// A point-in-time copy of every registered metric.
    pub fn snapshot(&self) -> Snapshot {
        let inner = self.inner.lock().expect("registry poisoned");
        Snapshot {
            counters: inner
                .counters
                .iter()
                .map(|(k, v)| (k.clone(), v.load(Ordering::Relaxed)))
                .collect(),
            gauges: inner
                .gauges
                .iter()
                .map(|(k, v)| (k.clone(), v.load(Ordering::Relaxed)))
                .collect(),
            histograms: inner
                .histograms
                .iter()
                .map(|(k, v)| {
                    (
                        k.clone(),
                        HistogramSnapshot {
                            bounds: v.bounds.clone(),
                            counts: v
                                .buckets
                                .iter()
                                .map(|b| b.load(Ordering::Relaxed))
                                .collect(),
                            count: v.count.load(Ordering::Relaxed),
                            sum: v.sum.load(Ordering::Relaxed),
                        },
                    )
                })
                .collect(),
        }
    }
}

/// Frozen histogram state inside a [`Snapshot`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Finite bucket bounds.
    pub bounds: Vec<u64>,
    /// Per-bucket counts; the trailing entry is the overflow bucket.
    pub counts: Vec<u64>,
    /// Total observations.
    pub count: u64,
    /// Sum of observations.
    pub sum: u64,
}

/// A deterministic point-in-time export of a [`Registry`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Snapshot {
    /// Counter values by name.
    pub counters: BTreeMap<String, u64>,
    /// Gauge values by name.
    pub gauges: BTreeMap<String, u64>,
    /// Histogram states by name.
    pub histograms: BTreeMap<String, HistogramSnapshot>,
}

impl Snapshot {
    /// One counter's value, defaulting to zero.
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Folds `other` into `self`, the reduction step for combining the
    /// per-worker registries of a sharded run into one export.
    ///
    /// Counters add (saturating), histogram buckets/counts add per slot
    /// (saturating, with the `sum` field wrapping exactly as
    /// [`Histogram::record`] does), and gauges take `other`'s value
    /// (last-wins, matching [`Gauge::set`] semantics) — callers that can
    /// recompute a gauge from merged counters should overwrite it after
    /// merging. Metric names missing on either side are unioned in.
    ///
    /// # Panics
    ///
    /// Panics if the same histogram name carries different bucket bounds
    /// on the two sides: merging those would silently misbin, and every
    /// worker of a sharded run binds identical metric surfaces.
    pub fn merge(&mut self, other: &Snapshot) {
        for (name, v) in &other.counters {
            let slot = self.counters.entry(name.clone()).or_insert(0);
            *slot = slot.saturating_add(*v);
        }
        for (name, v) in &other.gauges {
            self.gauges.insert(name.clone(), *v);
        }
        for (name, h) in &other.histograms {
            match self.histograms.entry(name.clone()) {
                std::collections::btree_map::Entry::Vacant(e) => {
                    e.insert(h.clone());
                }
                std::collections::btree_map::Entry::Occupied(mut e) => {
                    let mine = e.get_mut();
                    assert_eq!(
                        mine.bounds, h.bounds,
                        "histogram {name:?} merged with mismatched bounds"
                    );
                    for (slot, add) in mine.counts.iter_mut().zip(&h.counts) {
                        *slot = slot.saturating_add(*add);
                    }
                    mine.count = mine.count.saturating_add(h.count);
                    mine.sum = mine.sum.wrapping_add(h.sum);
                }
            }
        }
    }

    /// The delta from `baseline` to `self`: counters and histogram
    /// buckets/counts subtract (saturating; the histogram `sum` wraps,
    /// the exact inverse of [`Snapshot::merge`]'s wrapping add), gauges
    /// keep `self`'s absolute value (a gauge has no meaningful delta).
    /// Metric names present only in `baseline` are dropped — a metric
    /// that stopped existing contributed nothing in between.
    ///
    /// `base.merge(&current.diff(&base))` reproduces `current`'s
    /// counters and histograms exactly, which is what lets a campaign
    /// checkpoint store per-block deltas and rebuild the merged export
    /// under any worker count.
    ///
    /// # Panics
    ///
    /// Panics if the same histogram name carries different bucket bounds
    /// on the two sides.
    pub fn diff(&self, baseline: &Snapshot) -> Snapshot {
        let mut out = self.clone();
        for (name, v) in &baseline.counters {
            if let Some(slot) = out.counters.get_mut(name) {
                *slot = slot.saturating_sub(*v);
            }
        }
        for (name, h) in &baseline.histograms {
            if let Some(mine) = out.histograms.get_mut(name) {
                assert_eq!(
                    mine.bounds, h.bounds,
                    "histogram {name:?} diffed with mismatched bounds"
                );
                for (slot, sub) in mine.counts.iter_mut().zip(&h.counts) {
                    *slot = slot.saturating_sub(*sub);
                }
                mine.count = mine.count.saturating_sub(h.count);
                mine.sum = mine.sum.wrapping_sub(h.sum);
            }
        }
        out
    }

    /// Renders the snapshot as pretty-printed JSON. Key order and number
    /// formatting are fixed, so equal snapshots render byte-identically.
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(1024);
        out.push_str("{\n");
        out.push_str(&format!("  \"schema\": \"{SNAPSHOT_SCHEMA}\",\n"));
        out.push_str("  \"counters\": {");
        push_scalar_map(&mut out, &self.counters);
        out.push_str("},\n  \"gauges\": {");
        push_scalar_map(&mut out, &self.gauges);
        out.push_str("},\n  \"histograms\": {");
        for (i, (name, h)) in self.histograms.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("\n    ");
            push_json_string(&mut out, name);
            out.push_str(&format!(
                ": {{\"bounds\": {}, \"counts\": {}, \"count\": {}, \"sum\": {}}}",
                json_u64_array(&h.bounds),
                json_u64_array(&h.counts),
                h.count,
                h.sum
            ));
        }
        if !self.histograms.is_empty() {
            out.push_str("\n  ");
        }
        out.push_str("}\n}\n");
        out
    }
}

fn push_scalar_map(out: &mut String, map: &BTreeMap<String, u64>) {
    for (i, (name, v)) in map.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("\n    ");
        push_json_string(out, name);
        out.push_str(&format!(": {v}"));
    }
    if !map.is_empty() {
        out.push_str("\n  ");
    }
}

fn json_u64_array(values: &[u64]) -> String {
    let mut s = String::from("[");
    for (i, v) in values.iter().enumerate() {
        if i > 0 {
            s.push_str(", ");
        }
        s.push_str(&v.to_string());
    }
    s.push(']');
    s
}

/// Appends `s` as a JSON string literal, escaping the characters that can
/// occur in metric names and trace fields.
pub fn push_json_string(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_and_share_by_name() {
        let reg = Registry::new();
        let a = reg.counter("x");
        let b = reg.counter("x");
        a.add(3);
        b.inc();
        assert_eq!(a.get(), 4);
        assert_eq!(reg.snapshot().counter("x"), 4);
    }

    #[test]
    fn disabled_registry_records_nothing() {
        let reg = Registry::disabled();
        let c = reg.counter("x");
        let h = reg.histogram("h", &[1, 2]);
        let g = reg.gauge("g");
        c.add(10);
        h.record(1);
        g.set(7);
        assert!(!reg.is_enabled());
        assert_eq!(c.get(), 0);
        assert_eq!(h.count(), 0);
        assert_eq!(g.get(), 0);
    }

    #[test]
    fn histogram_bucketing_edge_cases() {
        let reg = Registry::new();
        let h = reg.histogram("rtt", &[1, 4, 16]);
        // Zero lands in the first bucket (le 1).
        h.record(0);
        // A value equal to a bound lands in that bound's bucket.
        h.record(4);
        // One past a bound moves to the next bucket.
        h.record(5);
        // The last bound is still finite...
        h.record(16);
        // ...and anything above it, including u64::MAX, overflows.
        h.record(17);
        h.record(u64::MAX);
        assert_eq!(h.bucket_counts(), vec![1, 1, 2, 2]);
        assert_eq!(h.count(), 6);
        assert_eq!(
            h.sum(),
            0u64.wrapping_add(4 + 5 + 16 + 17).wrapping_add(u64::MAX)
        );
    }

    #[test]
    fn record_n_matches_repeated_record() {
        let reg = Registry::new();
        let a = reg.histogram("a", &[1, 4, 16]);
        let b = reg.histogram("b", &[1, 4, 16]);
        for _ in 0..5 {
            a.record(4);
        }
        b.record_n(4, 5);
        b.record_n(4, 0); // zero-count flush is a no-op
        assert_eq!(a.bucket_counts(), b.bucket_counts());
        assert_eq!(a.count(), b.count());
        assert_eq!(a.sum(), b.sum());
    }

    #[test]
    #[should_panic(expected = "strictly increasing")]
    fn histogram_rejects_unsorted_bounds() {
        Registry::new().histogram("bad", &[4, 4]);
    }

    #[test]
    fn concurrent_counter_increments_sum_exactly() {
        let reg = Arc::new(Registry::new());
        let c = reg.counter("threads");
        let h = reg.histogram("obs", &[10, 100]);
        std::thread::scope(|scope| {
            for t in 0..8 {
                let c = c.clone();
                let h = h.clone();
                scope.spawn(move || {
                    for i in 0..10_000u64 {
                        c.inc();
                        h.record((t * 10_000 + i) % 150);
                    }
                });
            }
        });
        assert_eq!(c.get(), 80_000);
        assert_eq!(h.count(), 80_000);
        assert_eq!(h.bucket_counts().iter().sum::<u64>(), 80_000);
    }

    #[test]
    fn snapshot_json_is_deterministic_and_ordered() {
        let build = || {
            let reg = Registry::new();
            reg.counter("b.second").add(2);
            reg.counter("a.first").add(1);
            reg.gauge("g").set(9);
            reg.histogram("h", &[1, 2]).record(3);
            reg.snapshot().to_json()
        };
        let a = build();
        let b = build();
        assert_eq!(a, b);
        // Names are sorted.
        assert!(a.find("a.first").unwrap() < a.find("b.second").unwrap());
        assert!(a.contains("\"schema\": \"xmap-telemetry/v1\""));
        assert!(a.contains("\"counts\": [0, 0, 1]"));
    }

    #[test]
    fn snapshot_merge_sums_counters_and_histograms() {
        let mk = |sent: u64, rtt: u64| {
            let reg = Registry::new();
            reg.counter("scan.sent").add(sent);
            reg.gauge("scan.hit_rate_ppm").set(sent / 2);
            reg.histogram("rtt", &[1, 4]).record(rtt);
            reg.snapshot()
        };
        let mut a = mk(10, 0);
        let b = mk(32, 5);
        a.merge(&b);
        assert_eq!(a.counter("scan.sent"), 42);
        // Gauges are last-wins: merged value is b's.
        assert_eq!(a.gauges["scan.hit_rate_ppm"], 16);
        let h = &a.histograms["rtt"];
        assert_eq!(h.counts, vec![1, 0, 1]);
        assert_eq!(h.count, 2);
        assert_eq!(h.sum, 5);
    }

    #[test]
    fn snapshot_merge_unions_names_and_saturates() {
        let left = Registry::new();
        left.counter("only.left").add(1);
        left.counter("both").add(u64::MAX - 1);
        let right = Registry::new();
        right.counter("only.right").add(2);
        right.counter("both").add(5);
        right.histogram("h", &[1]).record(0);
        let mut snap = left.snapshot();
        snap.merge(&right.snapshot());
        assert_eq!(snap.counter("only.left"), 1);
        assert_eq!(snap.counter("only.right"), 2);
        assert_eq!(snap.counter("both"), u64::MAX, "saturating, not wrapping");
        assert_eq!(snap.histograms["h"].count, 1);
    }

    #[test]
    #[should_panic(expected = "mismatched bounds")]
    fn snapshot_merge_rejects_mismatched_histogram_bounds() {
        let a = Registry::new();
        a.histogram("h", &[1, 2]);
        let b = Registry::new();
        b.histogram("h", &[1, 3]);
        a.snapshot().merge(&b.snapshot());
    }

    #[test]
    fn json_escaping() {
        let mut s = String::new();
        push_json_string(&mut s, "a\"b\\c\nd");
        assert_eq!(s, "\"a\\\"b\\\\c\\nd\"");
    }

    #[test]
    fn restore_rebuilds_exact_state() {
        let source = Registry::new();
        source.counter("c").add(41);
        source.gauge("g").set(7);
        let h = source.histogram("h", &[1, 4, 16]);
        h.record(0);
        h.record(5);
        h.record(1_000);
        let snap = source.snapshot();

        // Target has stale values for some metrics and lacks others.
        let target = Registry::new();
        target.counter("c").add(999);
        target.counter("untouched").add(3);
        target.restore(&snap);
        let live = target.counter("c");
        let restored = target.snapshot();
        assert_eq!(restored.counter("c"), 41);
        assert_eq!(restored.counter("untouched"), 3);
        assert_eq!(restored.gauges["g"], 7);
        assert_eq!(restored.histograms["h"], snap.histograms["h"]);
        // Handles bound before the restore still see restored values.
        live.inc();
        assert_eq!(target.snapshot().counter("c"), 42);
    }

    #[test]
    #[should_panic(expected = "mismatched bucket bounds")]
    fn restore_rejects_mismatched_histogram_bounds() {
        let a = Registry::new();
        a.histogram("h", &[1, 2]);
        let b = Registry::new();
        b.histogram("h", &[1, 3]);
        b.restore(&a.snapshot());
    }

    #[test]
    fn diff_then_merge_roundtrips() {
        let reg = Registry::new();
        reg.counter("c").add(10);
        let h = reg.histogram("h", &[1, 4]);
        h.record(0);
        h.record(2);
        reg.gauge("g").set(3);
        let base = reg.snapshot();
        reg.counter("c").add(5);
        reg.counter("new").add(2);
        h.record(100);
        reg.gauge("g").set(9);
        let current = reg.snapshot();

        let delta = current.diff(&base);
        assert_eq!(delta.counter("c"), 5);
        assert_eq!(delta.counter("new"), 2);
        assert_eq!(delta.histograms["h"].count, 1);
        // Gauges carry the absolute value, not a delta.
        assert_eq!(delta.gauges["g"], 9);

        let mut rebuilt = base.clone();
        rebuilt.merge(&delta);
        assert_eq!(rebuilt.counters, current.counters);
        assert_eq!(rebuilt.histograms, current.histograms);
    }

    #[test]
    fn absorb_adds_counters_and_histograms_only() {
        let reg = Registry::new();
        reg.counter("c").add(7);
        reg.gauge("g").set(1);
        reg.histogram("h", &[1, 4]).record(2);

        let other = Registry::new();
        other.counter("c").add(3);
        other.counter("d").add(4);
        other.gauge("g").set(99);
        let oh = other.histogram("h", &[1, 4]);
        oh.record(0);
        oh.record(50);

        reg.absorb(&other.snapshot());
        let snap = reg.snapshot();
        assert_eq!(snap.counter("c"), 10);
        assert_eq!(snap.counter("d"), 4);
        // Gauges are derived values; absorb leaves them alone.
        assert_eq!(snap.gauges["g"], 1);
        assert_eq!(snap.histograms["h"].count, 3);
        assert_eq!(snap.histograms["h"].sum, 52);
    }

    #[test]
    fn absorb_of_empty_snapshot_is_a_no_op() {
        let reg = Registry::new();
        reg.counter("c").add(7);
        reg.histogram("h", &[1, 4]).record(2);
        let before = reg.snapshot();
        // An empty registry's snapshot carries no metrics at all.
        reg.absorb(&Registry::new().snapshot());
        assert_eq!(reg.snapshot(), before);
        // The mirror case: absorbing into an empty registry recreates
        // the counters and histograms (gauges stay absent by design).
        let fresh = Registry::new();
        fresh.absorb(&before);
        let snap = fresh.snapshot();
        assert_eq!(snap.counter("c"), 7);
        assert_eq!(snap.histograms["h"], before.histograms["h"]);
        assert!(snap.gauges.is_empty());
    }

    #[test]
    fn diff_saturates_instead_of_underflowing() {
        // A counter that regressed below its baseline (a restore from an
        // older snapshot, or u64 wrap-around in a pathological run) must
        // diff to zero, not to a huge bogus delta.
        let reg = Registry::new();
        reg.counter("c").add(100);
        let baseline = reg.snapshot();
        let newer = Registry::new();
        newer.counter("c").add(40);
        let delta = newer.snapshot().diff(&baseline);
        assert_eq!(delta.counter("c"), 0, "saturating, not wrapping");

        // At the saturation ceiling the delta still subtracts cleanly.
        let reg = Registry::new();
        reg.counter("c").add(u64::MAX);
        let base = reg.snapshot();
        reg.counter("c").add(5); // fetch_add wraps the cell; snapshot sees the wrap
        let wrapped = reg.snapshot();
        assert_eq!(
            wrapped.diff(&base).counter("c"),
            0,
            "wrapped cell saturates to zero"
        );
        assert_eq!(base.diff(&wrapped).counter("c"), u64::MAX - 4);

        // Histogram count/buckets saturate the same way; sum wraps by
        // contract so merge can reverse it.
        let a = Registry::new();
        a.histogram("h", &[10]).record(3);
        let b = Registry::new();
        let bh = b.histogram("h", &[10]);
        bh.record(3);
        bh.record(4);
        let d = a.snapshot().diff(&b.snapshot());
        assert_eq!(d.histograms["h"].count, 0);
        assert!(d.histograms["h"].counts.iter().all(|c| *c == 0));
    }

    #[test]
    fn diff_with_disjoint_metric_sets_keeps_only_self() {
        let current = Registry::new();
        current.counter("mine").add(9);
        current.gauge("mg").set(2);
        current.histogram("mh", &[1]).record(0);
        let baseline = Registry::new();
        baseline.counter("theirs").add(5);
        baseline.gauge("tg").set(8);
        baseline.histogram("th", &[1]).record(0);

        let delta = current.snapshot().diff(&baseline.snapshot());
        // Metrics only the baseline knew are dropped, not negated: a
        // delta must be absorbable without inventing regressions.
        assert_eq!(delta.counter("mine"), 9);
        assert!(!delta.counters.contains_key("theirs"));
        assert_eq!(delta.gauges.get("mg"), Some(&2));
        assert!(!delta.gauges.contains_key("tg"));
        assert!(delta.histograms.contains_key("mh"));
        assert!(!delta.histograms.contains_key("th"));
        // Diffing against a completely empty baseline is the identity.
        let snap = current.snapshot();
        assert_eq!(snap.diff(&Snapshot::default()), snap);
    }

    #[test]
    fn one_sided_split_counters_survive_absorb_and_diff() {
        // The campaign executor inserts `exec.splits`/`exec.split_shards`
        // only when a run actually split a block, so a resumed campaign
        // routinely merges a delta that carries them into a baseline
        // that has never heard of them (and vice versa). The round trip
        // `base.merge(delta)` / `merged.diff(base)` must neither drop
        // nor invent the one-sided counters.
        let base_reg = Registry::new();
        base_reg.counter("exec.blocks").add(3);
        let base = base_reg.snapshot();

        // Worker A split a block; worker B ran split-free.
        let a = Registry::new();
        a.counter("exec.blocks").add(1);
        a.counter("exec.splits").add(2);
        a.counter("exec.split_shards").add(5);
        let b = Registry::new();
        b.counter("exec.blocks").add(2);

        let mut merged = base.clone();
        merged.merge(&a.snapshot());
        merged.merge(&b.snapshot());
        assert_eq!(merged.counter("exec.blocks"), 6);
        assert_eq!(merged.counter("exec.splits"), 2);
        assert_eq!(merged.counter("exec.split_shards"), 5);

        // The delta back out carries exactly the split counters the
        // baseline lacked, and replaying it reproduces the merge.
        let delta = merged.diff(&base);
        assert_eq!(delta.counter("exec.splits"), 2);
        assert_eq!(delta.counter("exec.split_shards"), 5);
        let mut rebuilt = base.clone();
        rebuilt.merge(&delta);
        assert_eq!(rebuilt, merged);

        // A live registry that never registered the split counters
        // absorbs them into existence; absorbing a split-free delta
        // afterwards leaves them untouched.
        let live = Registry::new();
        live.counter("exec.blocks").add(3);
        live.absorb(&delta);
        live.absorb(&b.snapshot());
        let snap = live.snapshot();
        assert_eq!(snap.counter("exec.splits"), 2);
        assert_eq!(snap.counter("exec.split_shards"), 5);
        assert_eq!(snap.counter("exec.blocks"), 8);

        // Mirror direction: a split-free current diffed against a
        // baseline that did split drops (never negates) the counters,
        // so no downstream merge can regress a split tally.
        let spare = base.diff(&merged);
        assert!(!spare.counters.contains_key("exec.splits"));
        assert!(!spare.counters.contains_key("exec.split_shards"));
    }
}

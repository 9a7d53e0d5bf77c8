//! Measures the telemetry cost on the scan hot path.
//!
//! The subsystem's budget is <2% overhead: the instrumented scan (live
//! registry, relaxed atomic adds) is benchmarked against the same scan
//! with `Telemetry::disabled()` (every handle inert), and against a scan
//! with event tracing enabled (ring-buffer pushes; off by default in the
//! library). The lossy pair does the same over 30 % forward loss with
//! three probes per target, where two sends in three arm a retry and
//! tally its backoff. Counter increments alone are also timed to expose
//! the raw per-add cost.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion, Throughput};
use std::hint::black_box;
use xmap::{Blocklist, IcmpEchoProbe, ScanConfig, Scanner};
use xmap_netsim::world::WorldConfig;
use xmap_netsim::{FaultPlan, World};
use xmap_telemetry::Telemetry;

const TARGETS: u64 = 4_096;

fn scan_once(telemetry: Telemetry) -> u64 {
    let config = ScanConfig {
        seed: 7,
        max_targets: Some(TARGETS),
        ..Default::default()
    };
    scan_with(WorldConfig::lossless(7, 10), config, telemetry)
}

/// The retry path: 30 % forward loss, up to three probes per target.
fn lossy_once(telemetry: Telemetry) -> u64 {
    let world = WorldConfig::lossless(7, 10)
        .with_fault(FaultPlan::none().seeded(7).with_forward_loss(0.30));
    let config = ScanConfig {
        seed: 7,
        max_targets: Some(TARGETS),
        probes_per_target: 3,
        rto_ticks: 4,
        ..Default::default()
    };
    scan_with(world, config, telemetry)
}

fn scan_with(world: WorldConfig, config: ScanConfig, telemetry: Telemetry) -> u64 {
    let mut world = World::with_config(world);
    world.set_telemetry(&telemetry);
    let mut scanner = Scanner::with_telemetry(world, config, telemetry);
    let range: xmap_addr::ScanRange = "2409:8000::/28-60".parse().unwrap();
    let results = scanner.run(&range, &IcmpEchoProbe, &Blocklist::with_standard_reserved());
    results.stats.sent
}

fn bench_scan_overhead(c: &mut Criterion) {
    let mut g = c.benchmark_group("telemetry_overhead");
    g.throughput(Throughput::Elements(TARGETS));
    g.bench_function("scan_4k_disabled", |b| {
        b.iter(|| black_box(scan_once(Telemetry::disabled())))
    });
    g.bench_function("scan_4k_metrics", |b| {
        b.iter(|| black_box(scan_once(Telemetry::new())))
    });
    g.bench_function("scan_4k_metrics_and_trace", |b| {
        b.iter(|| black_box(scan_once(Telemetry::with_tracing())))
    });
    g.bench_function("lossy_4k_disabled", |b| {
        b.iter(|| black_box(lossy_once(Telemetry::disabled())))
    });
    g.bench_function("lossy_4k_metrics", |b| {
        b.iter(|| black_box(lossy_once(Telemetry::new())))
    });
    g.finish();
}

fn bench_counter_ops(c: &mut Criterion) {
    let mut g = c.benchmark_group("counter_ops");
    g.throughput(Throughput::Elements(10_000));
    g.bench_function("live_add_10k", |b| {
        let telemetry = Telemetry::new();
        let counter = telemetry.registry.counter("bench.counter");
        b.iter(|| {
            for _ in 0..10_000 {
                counter.inc();
            }
            black_box(counter.get())
        })
    });
    g.bench_function("disabled_add_10k", |b| {
        let telemetry = Telemetry::disabled();
        let counter = telemetry.registry.counter("bench.counter");
        b.iter(|| {
            for _ in 0..10_000 {
                counter.inc();
            }
            black_box(counter.get())
        })
    });
    g.finish();

    c.bench_function("snapshot_json", |b| {
        let telemetry = Telemetry::new();
        for i in 0..32 {
            telemetry.registry.counter(&format!("bench.c{i}")).add(i);
        }
        b.iter_batched(
            || (),
            |()| black_box(telemetry.registry.snapshot().to_json()),
            BatchSize::SmallInput,
        )
    });
}

criterion_group!(benches, bench_scan_overhead, bench_counter_ops);
criterion_main!(benches);
